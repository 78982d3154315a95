//! Golden-trace regression: the synthetic paper record, run through the
//! detector once, with the resulting R-peak positions and per-stage
//! operation counts committed as a fixture. Both the batch and the
//! streaming path must keep reproducing it — this pins the *absolute*
//! behavior of the pipeline (not just batch↔streaming agreement), so a
//! refactor that changes both paths in lockstep still trips the test.
//!
//! If a deliberate algorithm change invalidates the fixture, regenerate it
//! with `cargo test -p pan-tompkins --test golden_trace -- --ignored
//! print_fixture --nocapture` and update the constants below with the
//! printed values.

// Integration-test helper fns sit outside clippy's `#[test]`/cfg(test)
// exemption; panicking on a broken fixture is exactly right here.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use pan_tompkins::{
    oracle, Footprint, PipelineConfig, QrsDetector, StreamEvent, StreamingQrsDetector,
};

/// The fixture workload: the first 6000 samples (30 s) of the synthetic
/// NSRDB paper record.
fn workload() -> ecg::EcgRecord {
    ecg::nsrdb::paper_record().truncated(6000)
}

/// One frozen detector trace.
struct Golden {
    config: PipelineConfig,
    r_peaks: &'static [usize],
    /// Per-stage `(adds, muls)` in pipeline order.
    ops: [(u64, u64); 5],
    /// Per-stage multiplier-operand saturation events.
    saturations: [u64; 5],
    /// Per-stage adder-bus overflow events.
    add_overflows: [u64; 5],
    omitted: usize,
}

/// Per-stage `(adds, muls)` for a 6000-sample run — activity is fixed by
/// the netlist (11/32/4/1 multipliers, 10/31/3/0/29 adders per sample), so
/// both configurations share it.
const GOLDEN_OPS: [(u64, u64); 5] = [
    (60_000, 66_000),
    (186_000, 192_000),
    (18_000, 24_000),
    (0, 6_000),
    (174_000, 0),
];

/// The exact pipeline's trace.
fn golden_exact() -> Golden {
    Golden {
        config: PipelineConfig::exact(),
        r_peaks: GOLDEN_EXACT_R_PEAKS,
        ops: GOLDEN_OPS,
        saturations: [0; 5],
        add_overflows: [0; 5],
        omitted: 0,
    }
}

/// The paper's B9 design (LSBs 10/12/2/8/16, least-energy modules).
fn golden_b9() -> Golden {
    Golden {
        config: PipelineConfig::least_energy([10, 12, 2, 8, 16]),
        r_peaks: GOLDEN_B9_R_PEAKS,
        ops: GOLDEN_OPS,
        saturations: [0; 5],
        add_overflows: [0; 5],
        omitted: 0,
    }
}

#[rustfmt::skip]
const GOLDEN_EXACT_R_PEAKS: &[usize] = &[
    93, 268, 427, 587, 762, 935, 1107, 1277, 1433, 1603, 1768, 1934, 2104,
    2267, 2442, 2612, 2778, 2939, 3116, 3284, 3450, 3621, 3799, 3964, 4141,
    4305, 4471, 4649, 4810, 4961, 5123, 5280, 5439, 5596, 5762, 5920,
];

#[rustfmt::skip]
const GOLDEN_B9_R_PEAKS: &[usize] = &[
    92, 268, 428, 587, 762, 935, 1108, 1277, 1433, 1603, 1768, 1935, 2103,
    2267, 2442, 2613, 2778, 2939, 3116, 3285, 3450, 3621, 3800, 3964, 4141,
    4306, 4471, 4649, 4811, 4962, 5124, 5281, 5438, 5596, 5762, 5921,
];

/// Runs one frozen trace through the batch, streaming, scalar-reference
/// and bounded paths.
fn check(golden: &Golden, label: &str) {
    let record = workload();
    let config = golden.config;
    let batch = QrsDetector::new(config).detect(record.samples());
    let mut streaming = StreamingQrsDetector::new(config);
    // AFE-style 50 ms chunks.
    for chunk in record.samples().chunks(10) {
        let _ = streaming.push(chunk);
    }
    let (_, streamed) = streaming.finish();
    let (_, scalar) = oracle::detect_chunked(config, record.samples(), 10);

    for (name, result) in [
        ("batch", &batch),
        ("streaming", &streamed),
        ("scalar", &scalar),
    ] {
        assert_eq!(
            result.r_peaks(),
            golden.r_peaks,
            "{label}/{name}: r-peaks drifted from the golden trace"
        );
        for (i, (adds, muls)) in golden.ops.iter().enumerate() {
            assert_eq!(
                result.ops()[i].adds(),
                *adds,
                "{label}/{name}: stage {i} adds"
            );
            assert_eq!(
                result.ops()[i].muls(),
                *muls,
                "{label}/{name}: stage {i} muls"
            );
        }
        assert_eq!(
            result.saturations(),
            &golden.saturations,
            "{label}/{name}: saturation counters"
        );
        assert_eq!(
            result.add_overflows(),
            &golden.add_overflows,
            "{label}/{name}: add-overflow counters"
        );
        assert_eq!(
            result.omitted().len(),
            golden.omitted,
            "{label}/{name}: omitted-beat count"
        );
    }

    // The bounded-footprint path must reproduce the same absolute trace
    // through its event stream (its slim result carries no peak list) with
    // identical per-stage counters.
    let mut bounded = StreamingQrsDetector::new(config.with_footprint(Footprint::Bounded));
    let mut peaks = Vec::new();
    let mut sink = Vec::new();
    for chunk in record.samples().chunks(10) {
        peaks.extend(
            bounded
                .push_tapped(chunk, &mut sink)
                .iter()
                .filter_map(StreamEvent::r_peak),
        );
    }
    let (trailing, slim) = bounded.finish();
    peaks.extend(trailing.iter().filter_map(StreamEvent::r_peak));
    peaks.sort_unstable();
    peaks.dedup();
    assert_eq!(
        peaks, golden.r_peaks,
        "{label}/bounded: event-stream peaks drifted from the golden trace"
    );
    assert!(
        slim.signals().is_none(),
        "{label}/bounded: signals retained"
    );
    assert_eq!(
        sink,
        batch.expect_signals().hpf,
        "{label}/bounded: HPF tap drifted from the batch signal"
    );
    for (i, (adds, muls)) in golden.ops.iter().enumerate() {
        assert_eq!(
            slim.ops()[i].adds(),
            *adds,
            "{label}/bounded: stage {i} adds"
        );
        assert_eq!(
            slim.ops()[i].muls(),
            *muls,
            "{label}/bounded: stage {i} muls"
        );
    }
    assert_eq!(slim.saturations(), &golden.saturations, "{label}/bounded");
    assert_eq!(
        slim.add_overflows(),
        &golden.add_overflows,
        "{label}/bounded"
    );
}

#[test]
fn exact_pipeline_reproduces_golden_trace() {
    check(&golden_exact(), "exact");
}

#[test]
fn b9_pipeline_reproduces_golden_trace() {
    check(&golden_b9(), "B9");
}

/// The float reference reproduces the very same fixtures: over each
/// golden run's retained MWI, the `f64` transcription
/// (`oracle::float_classify`) makes exactly the decisions the integer
/// kernel made — the absolute form of the Fixed ≡ Float decision
/// equivalence (the MWI does not depend on the decision arithmetic).
#[test]
fn float_decision_path_reproduces_golden_traces() {
    let record = workload();
    for (golden, label) in [(golden_exact(), "exact"), (golden_b9(), "B9")] {
        let batch = QrsDetector::new(golden.config).detect(record.samples());
        assert_eq!(batch.r_peaks(), golden.r_peaks, "{label}: r-peaks");
        let float = oracle::float_classify(&golden.config.threshold(), &batch.expect_signals().mwi);
        assert!(!float.is_empty(), "{label}: no decisions");
        assert_eq!(float, batch.decisions(), "{label}: float decisions");
    }
}

/// Regenerates the fixture constants (run with `--ignored --nocapture`).
#[test]
#[ignore = "fixture generator, not a regression check"]
fn print_fixture() {
    let record = workload();
    for (label, config) in [
        ("EXACT", PipelineConfig::exact()),
        ("B9", PipelineConfig::least_energy([10, 12, 2, 8, 16])),
    ] {
        let result = QrsDetector::new(config).detect(record.samples());
        println!(
            "const GOLDEN_{label}_R_PEAKS: &[usize] = &{:?};",
            result.r_peaks()
        );
        let ops: Vec<(u64, u64)> = result.ops().iter().map(|o| (o.adds(), o.muls())).collect();
        println!("{label} ops: {ops:?}");
        println!("{label} saturations: {:?}", result.saturations());
        println!("{label} add_overflows: {:?}", result.add_overflows());
        println!("{label} omitted: {}", result.omitted().len());
    }
}
