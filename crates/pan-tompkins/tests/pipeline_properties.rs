//! Property-based tests on pipeline invariants. The per-stage properties
//! read the stage signals a batch run retains, with no input shift, so
//! each stage's input is the previous stage's retained output.

use pan_tompkins::detector::StageSignals;
use pan_tompkins::{PipelineConfig, QrsDetector};
use proptest::prelude::*;

/// The retained stage signals of a `config` run over `samples` as given
/// (input shift 0).
fn stage_signals(mut config: PipelineConfig, samples: &[i32]) -> StageSignals {
    config.input_shift = 0;
    QrsDetector::new(config)
        .detect(samples)
        .expect_signals()
        .clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The exact LPF is linear: scaling the input scales the output (up to
    /// the rounding of the gain division).
    #[test]
    fn lpf_homogeneity(samples in prop::collection::vec(-400i32..400, 50..120)) {
        let doubled: Vec<i32> = samples.iter().map(|v| v * 2).collect();
        let y1 = stage_signals(PipelineConfig::exact(), &samples).lpf;
        let y2 = stage_signals(PipelineConfig::exact(), &doubled).lpf;
        for (a, b) in y1.iter().zip(&y2) {
            // gain-36 division rounds per output: allow 1 LSB slack.
            prop_assert!((b - 2 * a).abs() <= 1, "{b} vs 2*{a}");
        }
    }

    /// Exact HPF rejects any constant offset: adding DC to the input leaves
    /// the (settled) output unchanged.
    #[test]
    fn hpf_dc_invariance(
        samples in prop::collection::vec(-400i32..400, 80..150),
        dc in -500i32..500,
    ) {
        let shifted: Vec<i32> = samples.iter().map(|v| v + dc).collect();
        let y1 = stage_signals(PipelineConfig::exact(), &samples).hpf;
        let y2 = stage_signals(PipelineConfig::exact(), &shifted).hpf;
        // After the 32-tap warm-up, outputs agree within rounding.
        for i in 40..samples.len() {
            prop_assert!((y1[i] - y2[i]).abs() <= 1, "at {i}: {} vs {}", y1[i], y2[i]);
        }
    }

    /// The squarer output is never negative, exact or approximate.
    #[test]
    fn squarer_nonnegative(
        x in -30_000i32..30_000,
        k in 0u32..=16,
    ) {
        // A biphasic pulse drives the squarer through both signs and up to
        // the datapath limit.
        let mut samples = vec![0i32; 64];
        samples[20] = x;
        samples[21] = -x / 2;
        for config in [PipelineConfig::exact(), PipelineConfig::least_energy([0, 0, 0, k, 0])] {
            let sqr = stage_signals(config, &samples).sqr;
            prop_assert!(sqr.iter().all(|&y| y >= 0), "{sqr:?}");
        }
    }

    /// The exact MWI output is bounded by its input range (it is a mean).
    #[test]
    fn mwi_mean_bounded(samples in prop::collection::vec(-400i32..400, 40..90)) {
        let s = stage_signals(PipelineConfig::exact(), &samples);
        let max = *s.sqr.iter().max().expect("non-empty");
        for &y in &s.mwi {
            prop_assert!(y >= 0 && y <= max, "mean {y} outside [0, {max}]");
        }
    }

    /// The exact derivative of a constant signal is zero once settled. A
    /// ramp on any offset reaches the derivative as a constant: the LPF
    /// passes it delayed and the HPF turns it into DC.
    #[test]
    fn derivative_kills_dc(level in -10_000i32..10_000, slope in -200i32..200) {
        let ramp: Vec<i32> = (0..80).map(|n| level + slope * n).collect();
        let s = stage_signals(PipelineConfig::exact(), &ramp);
        // LPF (11 taps) then HPF (32 taps) settle by sample 41.
        prop_assert!(s.hpf[41..].iter().all(|&v| v == s.hpf[41]), "{:?}", s.hpf);
        for &y in &s.der[45..] {
            prop_assert_eq!(y, 0);
        }
    }

    /// Detection results are insensitive to input polarity flips in the
    /// squared domain: an inverted ECG yields the same MWI energy signal.
    #[test]
    fn detection_energy_polarity_invariant(
        seed_amp in 150i32..350,
    ) {
        let mut signal = vec![0i32; 1200];
        for beat in 0..6 {
            let at = 160 + beat * 170;
            signal[at] = seed_amp;
            signal[at - 1] = seed_amp / 2;
            signal[at + 1] = seed_amp / 2;
        }
        let inverted: Vec<i32> = signal.iter().map(|v| -v).collect();
        let mut d1 = QrsDetector::new(PipelineConfig::exact());
        let mut d2 = QrsDetector::new(PipelineConfig::exact());
        let r1 = d1.detect(&signal);
        let r2 = d2.detect(&inverted);
        // Squaring removes the sign, so the MWI signals are identical.
        prop_assert_eq!(
            &r1.expect_signals().mwi,
            &r2.expect_signals().mwi
        );
    }

    /// Every detected R peak lies within the record.
    #[test]
    fn detections_within_bounds(
        period in 150usize..220,
        amp in 150i32..400,
    ) {
        let mut signal = vec![0i32; 2000];
        let mut at = 140;
        while at + 2 < signal.len() {
            signal[at] = amp;
            signal[at - 1] = amp / 2;
            signal[at + 1] = amp / 2;
            at += period;
        }
        let mut det = QrsDetector::new(PipelineConfig::exact());
        let result = det.detect(&signal);
        for &p in result.r_peaks() {
            prop_assert!(p < signal.len());
        }
        // Sorted and unique by construction.
        prop_assert!(result.r_peaks().windows(2).all(|w| w[0] < w[1]));
    }

    /// Approximate pipelines never panic across the configuration space
    /// (robustness sweep over all five stages).
    #[test]
    fn no_panics_across_config_space(
        k_lpf in 0u32..=16,
        k_hpf in 0u32..=16,
        k_der in 0u32..=4,
        k_sqr in 0u32..=8,
        k_mwi in 0u32..=16,
    ) {
        let record = ecg::nsrdb::paper_record().truncated(1200);
        let mut det = QrsDetector::new(PipelineConfig::least_energy([
            k_lpf, k_hpf, k_der, k_sqr, k_mwi,
        ]));
        let result = det.detect(record.samples());
        prop_assert_eq!(result.expect_signals().mwi.len(), record.len());
    }
}
