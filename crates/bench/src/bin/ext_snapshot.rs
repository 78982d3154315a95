//! **Extension experiment**: deterministic snapshot/restore of live
//! detector state — the round-trip gate plus codec throughput.
//!
//! Two sections:
//!
//! 1. **Round-trip gate** — pipeline configurations × records × cut
//!    points × footprints: freezing a session at a push boundary,
//!    dropping it, thawing the blob (solo, and migrated through a
//!    [`LaneBank`] lane), and streaming to the end must reproduce the
//!    uninterrupted run exactly — events, decisions, every per-stage
//!    counter — and re-encoding the thawed session must reproduce the
//!    blob byte for byte. Any divergence exits non-zero — CI's
//!    bench-smoke job runs this via `--check`.
//! 2. **Codec throughput** — encode and decode bandwidth over the
//!    bounded (persist-every-beat-sized) and retaining (full-history)
//!    blobs, plus the full freeze→thaw round-trip latency.
//!
//! `--check` runs only section 1 (the CI mode).

use std::sync::Arc;
use std::time::Instant;

use ecg::EcgRecord;
use hwmodel::report::fmt_f64;
use pan_tompkins::{
    DetectorEngine, Footprint, LaneBank, PipelineConfig, StreamEvent, StreamingQrsDetector,
};

/// Snapshot points exercised by the gate, as per-mille of the record:
/// inside the learning window, mid-record, and near the end.
const GATE_CUTS: [usize; 3] = [40, 500, 930];

fn gate_configs() -> Vec<PipelineConfig> {
    vec![
        PipelineConfig::exact(),
        // The paper's B9 design and a mid design point.
        PipelineConfig::least_energy([10, 12, 2, 8, 16]),
        PipelineConfig::least_energy([4, 4, 2, 4, 8]),
    ]
}

/// The gate corpus: the paper record plus morphology variants.
fn gate_records() -> Vec<EcgRecord> {
    let mut records = vec![xbiosip_bench::experiment_record().truncated(8_000)];
    for i in 1..3usize {
        records.push(ecg::nsrdb::record(i).truncated(6_000));
    }
    records
}

/// Streams `signal` uninterrupted in 64-sample pushes.
fn reference_run(
    engine: &Arc<DetectorEngine>,
    signal: &[i32],
) -> (Vec<StreamEvent>, pan_tompkins::DetectionResult) {
    let mut det = StreamingQrsDetector::from_engine(Arc::clone(engine));
    let mut events = Vec::new();
    for chunk in signal.chunks(64) {
        events.extend(det.push(chunk));
    }
    let (trailing, result) = det.finish();
    events.extend(trailing);
    (events, result)
}

/// Section 1: the round-trip gate. Returns the number of
/// (config, record, footprint, cut) cells checked; exits non-zero on any
/// divergence.
fn round_trip_gate() -> usize {
    let records = gate_records();
    let mut cells = 0usize;
    for config in gate_configs() {
        for footprint in [Footprint::Retain, Footprint::Bounded] {
            let config = config.with_footprint(footprint);
            let engine = Arc::new(DetectorEngine::new(config));
            for (r, record) in records.iter().enumerate() {
                let signal = record.samples();
                let reference = reference_run(&engine, signal);
                for cut_pm in GATE_CUTS {
                    let cut = (signal.len() * cut_pm / 1000).max(64) / 64 * 64;

                    // Freeze at `cut`, thaw solo, continue.
                    let mut det = StreamingQrsDetector::from_engine(Arc::clone(&engine));
                    let mut events = Vec::new();
                    for chunk in signal[..cut].chunks(64) {
                        events.extend(det.push(chunk));
                    }
                    let blob = det.snapshot().unwrap_or_else(|e| {
                        eprintln!("GATE: {config} record {r} cut {cut}: snapshot failed: {e}");
                        std::process::exit(1);
                    });
                    drop(det);
                    let det = StreamingQrsDetector::restore(Arc::clone(&engine), &blob)
                        .unwrap_or_else(|e| {
                            eprintln!("GATE: {config} record {r} cut {cut}: restore failed: {e}");
                            std::process::exit(1);
                        });
                    if det.snapshot().as_deref() != Ok(&blob[..]) {
                        eprintln!("GATE: {config} record {r} cut {cut}: codec not canonical");
                        std::process::exit(1);
                    }

                    // Migrate through a 3-lane bank for the second leg,
                    // then back out to a solo session for the rest.
                    let mid = cut + (signal.len() - cut) / 2 / 64 * 64;
                    let mut bank = LaneBank::new(Arc::clone(&engine), 3);
                    let _ = bank.push(&[0i32; 3 * 100]);
                    let blob = det.snapshot().expect("canonical re-snapshot");
                    drop(det);
                    if let Err(e) = bank.restore_lane(1, &blob) {
                        eprintln!("GATE: {config} record {r} cut {cut}: lane restore: {e}");
                        std::process::exit(1);
                    }
                    for chunk in signal[cut..mid].chunks(64) {
                        let frames: Vec<i32> = chunk.iter().flat_map(|&x| [0, x, 0]).collect();
                        for le in bank.push(&frames) {
                            if le.lane == 1 {
                                events.push(le.event);
                            }
                        }
                    }
                    let blob = bank.snapshot_lane(1).unwrap_or_else(|e| {
                        eprintln!("GATE: {config} record {r} cut {cut}: lane snapshot: {e}");
                        std::process::exit(1);
                    });
                    let mut det = StreamingQrsDetector::restore(Arc::clone(&engine), &blob)
                        .unwrap_or_else(|e| {
                            eprintln!("GATE: {config} record {r} cut {cut}: re-restore: {e}");
                            std::process::exit(1);
                        });
                    for chunk in signal[mid..].chunks(64) {
                        events.extend(det.push(chunk));
                    }
                    let (trailing, result) = det.finish();
                    events.extend(trailing);

                    if events != reference.0 || result != reference.1 {
                        eprintln!(
                            "DIVERGENCE: {config} {footprint:?} record {r} cut {cut}: \
                             snapshot round-trip changed the run"
                        );
                        std::process::exit(1);
                    }
                    if reference.0.is_empty() {
                        eprintln!("GATE: {config} record {r}: no events (vacuous check)");
                        std::process::exit(1);
                    }
                    cells += 1;
                }
            }
        }
    }
    cells
}

/// Section 2: codec throughput over one frozen session. Returns
/// (blob bytes, encode MB/s, decode MB/s, freeze→thaw round-trip µs).
fn codec_throughput(footprint: Footprint) -> (usize, f64, f64, f64) {
    let record = xbiosip_bench::experiment_record().truncated(8_000);
    let config = PipelineConfig::least_energy([10, 12, 2, 8, 16]).with_footprint(footprint);
    let engine = Arc::new(DetectorEngine::new(config));
    let mut det = StreamingQrsDetector::from_engine(Arc::clone(&engine));
    let _ = det.push(&record.samples()[..6_000]);
    let blob = det.snapshot().expect("bench snapshot");

    // Size the iteration counts so each timed section runs ~100 ms even
    // for the 100+ KB retaining blob.
    let iters = (16 * 1024 * 1024 / blob.len()).clamp(64, 20_000);
    let best_encode = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                let b = det.snapshot().expect("bench snapshot");
                std::hint::black_box(&b);
            }
            t0.elapsed()
        })
        .min()
        .expect("repeats > 0");
    let best_decode = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                let d = StreamingQrsDetector::restore(Arc::clone(&engine), &blob)
                    .expect("bench restore");
                std::hint::black_box(&d);
            }
            t0.elapsed()
        })
        .min()
        .expect("repeats > 0");
    let mb = (blob.len() * iters) as f64 / (1024.0 * 1024.0);
    let round_trip_us = (0..64)
        .map(|_| {
            let t0 = Instant::now();
            let b = det.snapshot().expect("bench snapshot");
            let d = StreamingQrsDetector::restore(Arc::clone(&engine), &b).expect("bench restore");
            std::hint::black_box(&d);
            t0.elapsed()
        })
        .min()
        .expect("repeats > 0")
        .as_secs_f64()
        * 1e6;
    (
        blob.len(),
        mb / best_encode.as_secs_f64(),
        mb / best_decode.as_secs_f64(),
        round_trip_us,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check_only = args.iter().any(|a| a == "--check");
    xbiosip_bench::banner(
        "Extension — deterministic snapshot/restore",
        "round-trip gate (solo + lane migration) + codec throughput",
    );

    let t0 = Instant::now();
    let cells = round_trip_gate();
    println!(
        "round-trip gate: {cells} configuration x record x footprint x cut cells — \
         freeze/thaw (solo and via a lane bank) is bit-invisible everywhere ({:.2?})\n",
        t0.elapsed()
    );

    if check_only {
        return;
    }

    let bounded = codec_throughput(Footprint::Bounded);
    let retain = codec_throughput(Footprint::Retain);
    for (label, (bytes, enc, dec, rt)) in [("bounded", bounded), ("retaining", retain)] {
        println!("codec throughput ({label} blob, {bytes} B):");
        println!("  encode:     {:>10} MB/s", fmt_f64(enc, 1));
        println!("  decode:     {:>10} MB/s", fmt_f64(dec, 1));
        println!("  round-trip: {:>10} us\n", fmt_f64(rt, 1));
    }
}
