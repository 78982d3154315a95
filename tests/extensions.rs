//! Cross-crate integration tests for the extension features: activity-based
//! energy accounting, rhythm preservation, the LOA adder family, fault
//! injection, and bounded-memory streaming (DESIGN.md §7).

use approx_arith::{FaultyAdder, LowerOrAdder, StageArith, StuckAtFault};
use ecg::rhythm::{RhythmClass, RrStatistics};
use ecg::synth::{EcgSynthesizer, SynthConfig};
use hwmodel::activity::run_energy_fj;
use pan_tompkins::{Footprint, PipelineConfig, QrsDetector, StreamEvent, StreamingQrsDetector};

#[test]
fn activity_energy_of_b9_run_is_far_below_exact() {
    let record = ecg::nsrdb::paper_record().truncated(4000);

    let exact_cfg = PipelineConfig::exact();
    let b9_cfg = PipelineConfig::least_energy([10, 12, 2, 8, 16]);

    let mut exact = QrsDetector::new(exact_cfg);
    let exact_run = exact.detect(record.samples());
    let mut b9 = QrsDetector::new(b9_cfg);
    let b9_run = b9.detect(record.samples());

    // Same activity (the netlist is fixed), different per-invocation cost.
    assert_eq!(exact_run.total_ops(), b9_run.total_ops());

    let exact_fj = run_energy_fj(exact_run.ops(), &exact_cfg.stages());
    let b9_fj = run_energy_fj(b9_run.ops(), &b9_cfg.stages());
    assert!(
        b9_fj < exact_fj,
        "B9 run energy {b9_fj} >= exact {exact_fj}"
    );
    // The module-sum reduction regime (roughly 1.2-1.5x for B9).
    let reduction = exact_fj / b9_fj;
    assert!(
        (1.1..3.0).contains(&reduction),
        "activity-based reduction {reduction:.2} out of expected band"
    );
}

#[test]
fn approximate_design_preserves_rhythm_class_on_clean_rhythms() {
    for (hr, expected) in [
        (72.0, RhythmClass::NormalSinus),
        (118.0, RhythmClass::Tachycardia),
        (48.0, RhythmClass::Bradycardia),
    ] {
        let record = EcgSynthesizer::new(SynthConfig {
            heart_rate_bpm: hr,
            n_samples: 12_000,
            seed: 2024,
            ..SynthConfig::default()
        })
        .synthesize();
        let mut detector = QrsDetector::new(PipelineConfig::least_energy([10, 12, 2, 8, 16]));
        let result = detector.detect(record.samples());
        let beats: Vec<usize> = result
            .r_peaks()
            .iter()
            .copied()
            .filter(|p| *p >= 400)
            .collect();
        let stats = RrStatistics::from_beats(&beats, record.fs()).expect("beats");
        assert_eq!(stats.classify(), expected, "HR {hr}");
    }
}

#[test]
fn loa_is_usable_as_a_stage_adder_conceptually() {
    // The LOA is not wired into StageArith (the paper's library doesn't
    // include it), but its error profile must be compatible with the LPF's
    // accumulator magnitudes: errors at k=8 stay below the gain-36 rescale
    // noise floor of the stage for typical accumulator values.
    let loa = LowerOrAdder::new(32, 8);
    for acc in [10_000i64, 50_000, 120_000] {
        for x in [500i64, -377, 4095] {
            let err = (loa.add(acc, x) - (acc + x)).abs();
            assert!(err <= loa.error_bound());
            assert!(err < 36 * 36, "error {err} would survive the /36 rescale");
        }
    }
}

#[test]
fn single_msb_fault_breaks_detection_where_b9_does_not() {
    // Approximation is *designed* damage: B9 keeps 100% accuracy. A single
    // stuck carry in the LPF's accumulation path (simulated by corrupting
    // the samples through a faulty adder) destroys signal integrity.
    let record = ecg::nsrdb::paper_record().truncated(6000);
    let faulty = FaultyAdder::new(16, vec![StuckAtFault::carry(12, true)]);
    let corrupted: Vec<i32> = record
        .samples()
        .iter()
        .map(|s| faulty.add(i64::from(*s), 0) as i32)
        .collect();
    let mut det = QrsDetector::new(PipelineConfig::exact());
    let clean = det.detect(record.samples()).r_peaks().len();
    let mut det2 = QrsDetector::new(PipelineConfig::exact());
    let broken = det2.detect(&corrupted).r_peaks().len();
    // The stuck carry adds 2^13 to roughly half the samples — a massive
    // square-wave artefact. Detection count must shift visibly.
    assert!(
        broken != clean,
        "stuck-at fault had no effect ({clean} peaks either way)"
    );
}

/// End-to-end across the facade: a kilobyte-scale bounded detector finds
/// the same beats the batch detector does on a realistic synthetic record.
#[test]
fn bounded_streaming_is_edge_deployable_end_to_end() {
    let record = EcgSynthesizer::new(SynthConfig {
        heart_rate_bpm: 76.0,
        n_samples: 10_000,
        seed: 77,
        ..SynthConfig::default()
    })
    .synthesize();
    let config = PipelineConfig::least_energy([10, 12, 2, 8, 16]);
    let batch = QrsDetector::new(config).detect(record.samples());

    let mut det = StreamingQrsDetector::new(config.with_footprint(Footprint::Bounded));
    let mut peaks = Vec::new();
    let mut high_water = 0usize;
    for chunk in record.samples().chunks(20) {
        peaks.extend(det.push(chunk).iter().filter_map(StreamEvent::r_peak));
        high_water = high_water.max(det.state_bytes());
    }
    let (trailing, slim) = det.finish();
    peaks.extend(trailing.iter().filter_map(StreamEvent::r_peak));
    peaks.sort_unstable();
    peaks.dedup();
    assert_eq!(peaks, batch.r_peaks(), "bounded beats diverged from batch");
    assert!(slim.signals().is_none());
    assert!(
        high_water < 64 * 1024,
        "bounded live state {high_water} B above the sensor-node budget"
    );
}

#[test]
fn stage_arith_and_activity_cost_agree_on_ordering() {
    // More approximated LSBs -> cheaper per-invocation blocks, monotone.
    let mut prev = f64::INFINITY;
    for k in [0u32, 4, 8, 12, 16] {
        let arith = if k == 0 {
            StageArith::exact()
        } else {
            StageArith::least_energy(k)
        };
        let cost = hwmodel::StageActivityCost::for_stage(arith);
        let total = cost.add_fj + cost.mul_fj;
        assert!(total <= prev, "k={k}: cost went up");
        prev = total;
    }
}
