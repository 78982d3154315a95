//! The end-to-end QRS detector: five stages, adaptive thresholding, and the
//! HPF↔MWI peak-alignment cross-check.
//!
//! The paper's misclassification analysis (Fig 13) hinges on this detector
//! structure: a peak found on the integrated (MWI) signal is confirmed
//! against the filtered (HPF) signal; if the two disagree in position by
//! more than a preset threshold, the beat is *omitted* — which is exactly
//! how design B10 loses <1 % of beats.

use std::sync::Arc;

use approx_arith::OpCounter;

use crate::config::{Footprint, PipelineConfig};
use crate::engine::DetectorEngine;
use crate::lane::LaneBank;
use crate::threshold::PeakDecision;

/// Delay from the HPF output to the MWI output (derivative + integrator
/// group delays) — where an MWI peak should sit relative to its HPF peak.
pub(crate) const HPF_TO_MWI_DELAY: usize = 2 + 14;

/// Half-width of the window searched on the HPF signal around the expected
/// peak position.
pub(crate) const ALIGNMENT_SEARCH: usize = 24;

/// Delay from the raw input to the HPF output (LPF + HPF group delays) —
/// subtracted to map a confirmed HPF peak back to raw-sample coordinates.
pub(crate) const PRE_PROCESSING_DELAY: usize = 5 + 16;

// The maximum tolerated |HPF peak − expected position| (the paper's
// "preset threshold") lives in [`crate::config::DEFAULT_MAX_MISALIGNMENT`]:
// the MWI output is a plateau as wide as the integration window, so the
// detected MWI maximum naturally jitters by up to ~half a window (15
// samples) around the nominal delay; 20 tolerates that jitter while still
// catching approximation-induced spurious peaks.

/// All intermediate signals of one detection run (the waveforms plotted in
/// the paper's Figs 10 and 13).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StageSignals {
    /// Low-pass filter output.
    pub lpf: Vec<i64>,
    /// High-pass filter output (the pre-processing output gated by
    /// PSNR/SSIM).
    pub hpf: Vec<i64>,
    /// Derivative output.
    pub der: Vec<i64>,
    /// Squarer output.
    pub sqr: Vec<i64>,
    /// Moving-window-integrator output (thresholded for detection).
    pub mwi: Vec<i64>,
}

/// A beat that was detected on the MWI signal but dropped by the
/// HPF-alignment cross-check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OmittedBeat {
    /// Peak index on the MWI signal.
    pub mwi_index: usize,
    /// Best matching HPF peak index.
    pub hpf_index: usize,
    /// |actual − expected| misalignment in samples.
    pub misalignment: usize,
}

/// Result of running the detector over a record.
///
/// Comparable with `==` down to every counter — which is how the streaming
/// path ([`crate::StreamingQrsDetector`]) is proven bit-identical to the
/// batch path for every chunking.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionResult {
    pub(crate) r_peaks: Vec<usize>,
    pub(crate) omitted: Vec<OmittedBeat>,
    pub(crate) decisions: Vec<PeakDecision>,
    /// `None` under [`crate::Footprint::Bounded`] streaming, where stage
    /// signals are never materialised.
    pub(crate) signals: Option<StageSignals>,
    pub(crate) ops: [OpCounter; 5],
    pub(crate) saturations: [u64; 5],
    pub(crate) add_overflows: [u64; 5],
    pub(crate) total_delay: usize,
}

impl DetectionResult {
    /// Detected R-peak positions in *raw input* sample coordinates.
    #[must_use]
    pub fn r_peaks(&self) -> &[usize] {
        &self.r_peaks
    }

    /// Beats dropped by the HPF↔MWI alignment check (Fig 13's mechanism).
    #[must_use]
    pub fn omitted(&self) -> &[OmittedBeat] {
        &self.omitted
    }

    /// Every candidate-peak classification made by the threshold logic
    /// (MWI-signal coordinates).
    #[must_use]
    pub fn decisions(&self) -> &[PeakDecision] {
        &self.decisions
    }

    /// The intermediate stage signals, when the run retained them.
    ///
    /// Always `Some` for the batch detector and for streaming under
    /// [`crate::Footprint::Retain`] (the default); `None` for streaming
    /// under [`crate::Footprint::Bounded`], which never materialises the
    /// per-stage waveforms — that is the point of the policy.
    #[must_use]
    pub fn signals(&self) -> Option<&StageSignals> {
        self.signals.as_ref()
    }

    /// The intermediate stage signals of a retaining run, asserting they
    /// exist.
    ///
    /// This is the ergonomic accessor for the contexts where retention is
    /// a structural invariant — batch detection and
    /// [`crate::Footprint::Retain`] streaming always populate the
    /// signals. When the footprint is data-dependent, use the panic-free
    /// [`DetectionResult::signals`] and handle `None` instead.
    ///
    /// # Panics
    ///
    /// Panics if the run never materialised stage signals, i.e. it came
    /// from a [`crate::Footprint::Bounded`] streaming session.
    #[must_use]
    #[allow(clippy::panic)] // the documented panicking accessor; `signals()` is the panic-free path
    pub fn expect_signals(&self) -> &StageSignals {
        match self.signals.as_ref() {
            Some(s) => s,
            None => panic!(
                "stage signals were not retained: this result came from a \
                 Footprint::Bounded run, which never materialises per-stage \
                 waveforms; run under Footprint::Retain (or batch detection), \
                 or handle the None via DetectionResult::signals()"
            ),
        }
    }

    /// Word-level operation counts per stage (pipeline order).
    #[must_use]
    pub fn ops(&self) -> &[OpCounter; 5] {
        &self.ops
    }

    /// Total operation counts across all stages.
    #[must_use]
    pub fn total_ops(&self) -> OpCounter {
        let mut total = OpCounter::new();
        for o in &self.ops {
            total.merge(o);
        }
        total
    }

    /// Multiplier operands clamped into the 16-bit datapath range, per
    /// stage (pipeline order): a multiplication in which both operands
    /// clamp, like a clamped squarer input, contributes two.
    #[must_use]
    pub fn saturations(&self) -> &[u64; 5] {
        &self.saturations
    }

    /// Additions whose exact sum did not fit the 32-bit adder bus and
    /// therefore wrapped (silently, as the hardware bus would), per stage
    /// (pipeline order).
    #[must_use]
    pub fn add_overflows(&self) -> &[u64; 5] {
        &self.add_overflows
    }

    /// Total pipeline group delay in samples (MWI coordinates − raw
    /// coordinates).
    #[must_use]
    pub fn total_delay(&self) -> usize {
        self.total_delay
    }
}

/// The five-stage Pan-Tompkins QRS detector.
///
/// See the crate-level example; realistic inputs come from the `ecg` crate.
#[derive(Debug, Clone)]
pub struct QrsDetector {
    config: PipelineConfig,
}

impl QrsDetector {
    /// Creates a detector for the given pipeline configuration — the single
    /// source of truth for the arithmetic *and* the detector knobs
    /// (thresholding via [`PipelineConfig::with_threshold`], alignment
    /// tolerance via [`PipelineConfig::with_max_misalignment`]).
    #[must_use]
    pub fn new(config: PipelineConfig) -> Self {
        Self { config }
    }

    /// The pipeline configuration.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs the full pipeline and detection over a record's samples: one
    /// push of the whole record into a one-lane [`LaneBank`] under
    /// [`Footprint::Retain`] (a one-lane bank runs its stage kernels in
    /// register blocks across time), then that lane's result. The push
    /// works in the calling thread's block scratch (see
    /// [`crate::block_scratch_bytes`]), so repeated calls on one thread
    /// reuse it.
    #[must_use]
    pub fn detect(&mut self, samples: &[i32]) -> DetectionResult {
        let config = self.config.with_footprint(Footprint::Retain);
        let mut bank = LaneBank::new(Arc::new(DetectorEngine::new(config)), 1);
        bank.reserve_retained(samples.len());
        // The retained result carries every peak and omission the events
        // report.
        let _ = bank.push(samples);
        let (_, result) = bank.finish_lane(0);
        result
    }
}

/// Outcome of the HPF↔MWI cross-check for one accepted MWI peak.
pub(crate) enum Alignment {
    Ok {
        hpf_index: usize,
    },
    Misaligned {
        hpf_index: usize,
        misalignment: usize,
    },
}

/// Finds the dominant |HPF| peak near where an MWI peak at `mwi_index`
/// implies it should be, and checks the misalignment against the preset
/// threshold. Shared by the batch and streaming paths; reads only
/// `hpf[expected − 24 ..= expected + 24]` (clipped to the available
/// signal), which is what bounds the streaming confirmation latency.
pub(crate) fn check_alignment(hpf: &[i64], mwi_index: usize, max_misalignment: usize) -> Alignment {
    check_alignment_with(hpf.len(), |i| hpf[i], mwi_index, max_misalignment)
}

/// [`check_alignment`] over any indexed view of the HPF signal — `len` is
/// the total samples produced so far and `value_at` resolves an absolute
/// sample index. The bounded streaming mode drives this with a pruned ring
/// buffer; the window scan order (and therefore the last-maximum tie-break)
/// is identical to the slice version.
pub(crate) fn check_alignment_with(
    len: usize,
    value_at: impl Fn(usize) -> i64,
    mwi_index: usize,
    max_misalignment: usize,
) -> Alignment {
    let expected = mwi_index.saturating_sub(HPF_TO_MWI_DELAY);
    let lo = expected.saturating_sub(ALIGNMENT_SEARCH);
    let hi = (expected + ALIGNMENT_SEARCH + 1).min(len);
    if lo >= hi {
        return Alignment::Misaligned {
            hpf_index: expected.min(len.saturating_sub(1)),
            misalignment: usize::MAX,
        };
    }
    // Last-maximum scan (`>=` keeps the later index on ties), matching
    // `max_by_key`'s documented last-wins tie-break without an `Option`
    // on a window the guard above already proved non-empty.
    let mut hpf_index = lo;
    let mut best = value_at(lo).abs();
    for i in lo + 1..hi {
        let v = value_at(i).abs();
        if v >= best {
            best = v;
            hpf_index = i;
        }
    }
    let misalignment = hpf_index.abs_diff(expected);
    if misalignment <= max_misalignment {
        Alignment::Ok { hpf_index }
    } else {
        Alignment::Misaligned {
            hpf_index,
            misalignment,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A crude but QRS-shaped pulse train (sharp biphasic spikes on a flat
    /// baseline).
    fn pulse_train(n: usize, period: usize, first: usize) -> (Vec<i32>, Vec<usize>) {
        let mut signal = vec![0i32; n];
        let mut peaks = Vec::new();
        let mut at = first;
        while at + 4 < n {
            signal[at - 2] = -60;
            signal[at - 1] = 140;
            signal[at] = 260;
            signal[at + 1] = 120;
            signal[at + 2] = -80;
            peaks.push(at);
            at += period;
        }
        (signal, peaks)
    }

    #[test]
    fn exact_detector_finds_every_pulse() {
        let (signal, truth) = pulse_train(3000, 170, 200);
        let mut det = QrsDetector::new(PipelineConfig::exact());
        let result = det.detect(&signal);
        assert!(
            result.r_peaks().len() >= truth.len() - 1,
            "found {} of {} beats",
            result.r_peaks().len(),
            truth.len()
        );
    }

    #[test]
    fn detected_positions_near_truth() {
        let (signal, truth) = pulse_train(3000, 170, 200);
        let mut det = QrsDetector::new(PipelineConfig::exact());
        let result = det.detect(&signal);
        for &p in result.r_peaks() {
            let nearest = truth
                .iter()
                .map(|t| t.abs_diff(p))
                .min()
                .expect("truth non-empty");
            assert!(nearest <= 15, "peak at {p} is {nearest} from any beat");
        }
    }

    #[test]
    fn signals_have_input_length() {
        let (signal, _) = pulse_train(1000, 170, 200);
        let mut det = QrsDetector::new(PipelineConfig::exact());
        let result = det.detect(&signal);
        let signals = result.expect_signals();
        assert_eq!(signals.lpf.len(), 1000);
        assert_eq!(signals.mwi.len(), 1000);
    }

    #[test]
    fn op_counts_scale_with_input_length() {
        let (signal, _) = pulse_train(1000, 170, 200);
        let mut det = QrsDetector::new(PipelineConfig::exact());
        let result = det.detect(&signal);
        // LPF: 11 muls/sample; HPF: 32; DER: 4; SQR: 1. MWI: 29 adds.
        assert_eq!(result.ops()[0].muls(), 11 * 1000);
        assert_eq!(result.ops()[1].muls(), 32 * 1000);
        assert_eq!(result.ops()[2].muls(), 4 * 1000);
        assert_eq!(result.ops()[3].muls(), 1000);
        assert_eq!(result.ops()[4].adds(), 29 * 1000);
        assert_eq!(result.total_ops().muls(), (11 + 32 + 4 + 1) * 1000);
    }

    #[test]
    fn total_delay_is_37_samples() {
        let (signal, _) = pulse_train(500, 170, 200);
        let mut det = QrsDetector::new(PipelineConfig::exact());
        let result = det.detect(&signal);
        assert_eq!(result.total_delay(), 37);
    }

    #[test]
    fn empty_input_yields_empty_result() {
        let mut det = QrsDetector::new(PipelineConfig::exact());
        let result = det.detect(&[]);
        assert!(result.r_peaks().is_empty());
        assert!(result.decisions().is_empty());
    }

    #[test]
    fn flat_input_detects_nothing() {
        let mut det = QrsDetector::new(PipelineConfig::exact());
        let result = det.detect(&[100; 2000]);
        assert!(result.r_peaks().is_empty());
    }

    #[test]
    fn mildly_approximate_pipeline_still_detects() {
        let (signal, truth) = pulse_train(3000, 170, 200);
        let mut det = QrsDetector::new(PipelineConfig::least_energy([4, 4, 2, 4, 8]));
        let result = det.detect(&signal);
        assert!(
            result.r_peaks().len() >= truth.len() - 2,
            "approximate pipeline found {} of {}",
            result.r_peaks().len(),
            truth.len()
        );
    }

    /// The compiled pipeline against the bit-level netlist
    /// (`approx_arith::RecursiveMultiplier`): recomputing every multiplier
    /// stage from its retained input with the netlist walk and the stage
    /// adder reproduces its retained output, so the MWI the classifier
    /// reads — and with it every detection — is the netlist's.
    #[test]
    fn compiled_and_bit_level_engines_detect_identically() {
        use crate::arith::div_round;
        use crate::config::StageKind;
        use crate::stages::{derivative, hpf, lpf};
        use approx_arith::ArithConfig;

        fn netlist_fir(x: &[i64], taps: &[i64], gain: i64, config: ArithConfig) -> Vec<i64> {
            let (mul, adder) = (config.multiplier(), config.adder());
            let limit = 1i64 << (mul.width() - 1);
            let clamp = |v: i64| v.clamp(-limit, limit - 1);
            (0..x.len())
                .map(|n| {
                    let mut acc = None;
                    for (t, &c) in taps.iter().enumerate().filter(|(_, c)| **c != 0) {
                        let sample = if t <= n { x[n - t] } else { 0 };
                        let p = mul.mul(clamp(sample), clamp(c));
                        acc = Some(acc.map_or(p, |sum| adder.add(sum, p)));
                    }
                    div_round(acc.unwrap_or(0), gain)
                })
                .collect()
        }

        let (signal, _) = pulse_train(2000, 170, 200);
        let config = PipelineConfig::least_energy([8, 10, 2, 8, 16]);
        let result = QrsDetector::new(config).detect(&signal);
        let s = result.expect_signals();
        let arith = |kind| ArithConfig::new(config.stage(kind));
        let input: Vec<i64> = signal
            .iter()
            .map(|&x| i64::from(x) << config.input_shift)
            .collect();
        let lpf_out = netlist_fir(&input, &lpf::TAPS, lpf::GAIN, arith(StageKind::Lpf));
        assert_eq!(lpf_out, s.lpf, "LPF");
        let hpf_out = netlist_fir(&s.lpf, &hpf::TAPS, hpf::GAIN, arith(StageKind::Hpf));
        assert_eq!(hpf_out, s.hpf, "HPF");
        let der_out = netlist_fir(
            &s.hpf,
            &derivative::TAPS,
            derivative::GAIN,
            arith(StageKind::Derivative),
        );
        assert_eq!(der_out, s.der, "DER");
        let sqr = arith(StageKind::Squarer).multiplier();
        let limit = 1i64 << (sqr.width() - 1);
        let sqr_out: Vec<i64> = s
            .der
            .iter()
            .map(|&v| {
                let cv = v.clamp(-limit, limit - 1);
                sqr.mul(cv, cv)
            })
            .collect();
        assert_eq!(sqr_out, s.sqr, "SQR");
        assert!(!result.r_peaks().is_empty());
    }

    #[test]
    fn tight_misalignment_threshold_omits_beats() {
        let (signal, _) = pulse_train(3000, 170, 200);
        let mut strict = QrsDetector::new(PipelineConfig::exact().with_max_misalignment(0));
        let mut normal = QrsDetector::new(PipelineConfig::exact());
        let strict_found = strict.detect(&signal).r_peaks().len();
        let normal_found = normal.detect(&signal).r_peaks().len();
        assert!(
            strict_found <= normal_found,
            "strict {strict_found} > normal {normal_found}"
        );
    }
}
