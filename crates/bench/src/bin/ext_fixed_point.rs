//! **Extension experiment**: integer-exact decision arithmetic — the
//! Fixed ≡ Float equivalence gate plus decision-path throughput.
//!
//! Three sections:
//!
//! 1. **Equivalence gate** — pipeline configurations × records: the
//!    detector's decisions (Q-format integer SPK/NPK, rational
//!    search-back — see `DESIGN.md` §8) must equal those of the `f64`
//!    transcription of the paper (`oracle::float_classify`) over the same
//!    retained MWI signal, decision for decision. The MWI does not depend
//!    on the decision arithmetic, so equal decisions mean equal peaks and
//!    events too; chunk and footprint invariance of the detector are gated
//!    by `ext_streaming_speed` and `ext_memory_footprint`. Any divergence,
//!    or a record without beats, exits non-zero — CI's bench-smoke job
//!    runs this via `--check`. (The one *documented* divergence domain,
//!    amplitudes past 2^53, is regression-tested in `pan-tompkins`; no
//!    physiological record reaches it.)
//! 2. **Decision-path throughput** — the classifier alone (pre-computed
//!    MWI signal pushed through an `OnlineClassifier`), in samples/second.
//!    This isolates the decision arithmetic from the FIR stages that
//!    dominate end-to-end time.
//! 3. **End-to-end streaming throughput** — the full bounded-footprint
//!    detector, plus its live-state high-water mark.
//!
//! `--check` runs only section 1 (the CI mode).

use std::time::Instant;

use ecg::EcgRecord;
use hwmodel::report::fmt_f64;
use pan_tompkins::{
    oracle, Footprint, OnlineClassifier, PipelineConfig, QrsDetector, StreamingQrsDetector,
};

fn gate_configs() -> Vec<PipelineConfig> {
    vec![
        PipelineConfig::exact(),
        // The paper's B9 design and a mid design point.
        PipelineConfig::least_energy([10, 12, 2, 8, 16]),
        PipelineConfig::least_energy([4, 4, 2, 4, 8]),
    ]
}

/// The gate corpus: the full paper record plus shorter morphology
/// variants (`ecg::nsrdb::record(i)` reseeds beat shapes and rates).
fn gate_records() -> Vec<EcgRecord> {
    let mut records = vec![xbiosip_bench::experiment_record()];
    for i in 1..4usize {
        records.push(ecg::nsrdb::record(i).truncated(8_000));
    }
    records
}

/// Section 1: the detector's decisions vs the float reference's over the
/// retained MWI, for every configuration × record. Returns the number of
/// (config, record) cells checked; exits non-zero on any divergence.
fn equivalence_gate() -> usize {
    let records = gate_records();
    let mut cells = 0usize;
    for config in gate_configs() {
        for (r, record) in records.iter().enumerate() {
            let batch = QrsDetector::new(config).detect(record.samples());
            if batch.r_peaks().is_empty() {
                eprintln!("DIVERGENCE: {config} record {r}: no beats (vacuous check)");
                std::process::exit(1);
            }
            let float = oracle::float_classify(&config.threshold(), &batch.expect_signals().mwi);
            if float != batch.decisions() {
                eprintln!("DIVERGENCE: {config} record {r}: fixed decisions != float reference");
                std::process::exit(1);
            }
            cells += 1;
        }
    }
    cells
}

/// Section 2: the isolated decision path. Pushes a pre-computed MWI
/// signal through an [`OnlineClassifier`] and returns samples/s, best of a
/// few repeats.
fn decision_throughput() -> f64 {
    // A long decision workload: the paper record's MWI signal, cycled 10×
    // so the classifier (not the harness) dominates the timing.
    let record = xbiosip_bench::experiment_record();
    let result = QrsDetector::new(PipelineConfig::exact()).detect(record.samples());
    let mwi = &result.expect_signals().mwi;
    let workload: Vec<i64> = mwi.iter().copied().cycle().take(mwi.len() * 10).collect();

    let config = PipelineConfig::exact().with_footprint(Footprint::Bounded);
    let best = (0..5)
        .map(|_| {
            let mut classifier = OnlineClassifier::for_config(&config);
            let mut sink = Vec::new();
            let t0 = Instant::now();
            for &x in &workload {
                classifier.push(x, &mut sink);
            }
            classifier.finish(&mut sink);
            let dt = t0.elapsed();
            assert!(!sink.is_empty(), "decision workload produced no decisions");
            dt
        })
        .min()
        .expect("repeats > 0");
    workload.len() as f64 / best.as_secs_f64()
}

/// Section 3: end-to-end bounded streaming. Returns (samples/s, bounded
/// high-water bytes).
fn end_to_end_throughput() -> (f64, usize) {
    let record = xbiosip_bench::experiment_record();
    let config =
        PipelineConfig::least_energy([10, 12, 2, 8, 16]).with_footprint(Footprint::Bounded);
    let best = (0..4)
        .map(|_| {
            let t0 = Instant::now();
            let (events, _) = StreamingQrsDetector::detect_chunked(config, record.samples(), 20);
            assert!(!events.is_empty());
            t0.elapsed()
        })
        .min()
        .expect("repeats > 0");
    let mut det = StreamingQrsDetector::new(config);
    let mut high_water = det.state_bytes();
    for chunk in record.samples().chunks(20) {
        let _ = det.push(chunk);
        high_water = high_water.max(det.state_bytes());
    }
    (record.len() as f64 / best.as_secs_f64(), high_water)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check_only = args.iter().any(|a| a == "--check");
    xbiosip_bench::banner(
        "Extension — integer-exact decision arithmetic",
        "Fixed vs float-reference equivalence gate + decision-path throughput",
    );

    let t0 = Instant::now();
    let cells = equivalence_gate();
    println!(
        "equivalence gate: {cells} configuration x record cells — detector decisions == \
         float-reference decisions over the same MWI everywhere ({:.2?})\n",
        t0.elapsed()
    );

    if check_only {
        return;
    }

    let decision = decision_throughput();
    println!("decision-path throughput (classifier only, bounded retention):");
    println!("  fixed-point: {:>12} samples/s\n", fmt_f64(decision, 0));

    let (e2e, high_water) = end_to_end_throughput();
    println!("end-to-end bounded streaming (B9 design, 20-sample chunks):");
    println!("  fixed-point: {:>12} samples/s", fmt_f64(e2e, 0));
    println!("  bounded live-state high-water: {high_water} B\n");
}
