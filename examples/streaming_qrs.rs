//! Real-time-style streaming QRS detection: samples arrive from the
//! (simulated) analog front-end in 100 ms chunks, and R-peaks are printed
//! the moment they are confirmed — with the emission latency each beat
//! actually paid — then the final result is cross-checked against the
//! batch detector (they are bit-for-bit identical by construction).
//!
//! ```sh
//! cargo run --release --example streaming_qrs
//! ```

use std::sync::Arc;

use ecg::noise::NoiseConfig;
use ecg::synth::{EcgSynthesizer, SynthConfig};
use xbiosip_repro::prelude::*;

fn main() {
    // A 45-second ambulatory ECG at 200 Hz with exact ground truth.
    let record = EcgSynthesizer::new(SynthConfig {
        name: "stream-demo",
        n_samples: 9_000,
        heart_rate_bpm: 71.0,
        noise: NoiseConfig::ambulatory(),
        seed: 21,
        ..SynthConfig::default()
    })
    .synthesize();
    let fs = record.fs();
    println!("record: {record}");

    // The paper's B9 approximate design, pushed 20 samples (100 ms) at a
    // time the way a wearable AFE would deliver them.
    let config = PipelineConfig::least_energy([10, 12, 2, 8, 16]);
    let mut detector = StreamingQrsDetector::new(config);
    println!(
        "streaming with {} (startup {} samples; worst-case peak lag {} samples / {:.0} ms, \
         plus up to one 100 ms chunk)",
        config,
        detector.startup_samples(),
        detector.total_delay() + detector.max_event_lag(),
        (detector.total_delay() + detector.max_event_lag()) as f64 / fs * 1000.0
    );

    let mut pushed = 0usize;
    let mut beats = 0usize;
    let mut omitted = 0usize;
    let mut worst_lag_ms = 0.0f64;
    for chunk in record.samples().chunks(20) {
        let events = detector.push(chunk);
        pushed += chunk.len();
        for event in events {
            match event {
                StreamEvent::RPeak { raw, .. } => {
                    beats += 1;
                    let lag_ms = (pushed.saturating_sub(raw)) as f64 / fs * 1000.0;
                    worst_lag_ms = worst_lag_ms.max(lag_ms);
                    if beats <= 8 {
                        println!(
                            "  t={:6.2}s  R-peak at sample {raw:5}  (confirmed {lag_ms:3.0} ms \
                             after the beat)",
                            pushed as f64 / fs
                        );
                    } else if beats == 9 {
                        println!("  ...");
                    }
                }
                StreamEvent::Omitted(beat) => {
                    omitted += 1;
                    println!(
                        "  t={:6.2}s  beat near MWI {} omitted (misaligned by {})",
                        pushed as f64 / fs,
                        beat.mwi_index,
                        beat.misalignment
                    );
                }
            }
        }
    }
    let (trailing, streamed) = detector.finish();
    beats += trailing
        .iter()
        .filter(|e| matches!(e, StreamEvent::RPeak { .. }))
        .count();

    println!(
        "\nstream summary: {beats} beats confirmed live ({omitted} omitted, {} flushed at \
         finish), worst emission lag {worst_lag_ms:.0} ms",
        trailing.len()
    );

    // The contract: the streamed result is the batch result, exactly.
    let batch = QrsDetector::new(config).detect(record.samples());
    assert_eq!(streamed, batch, "streaming diverged from batch");
    println!(
        "cross-check: streaming == batch detect ({} peaks, {} word-ops, {} saturations) ✔",
        batch.r_peaks().len(),
        batch.total_ops().adds() + batch.total_ops().muls(),
        batch.saturations().iter().sum::<u64>()
    );

    // On the device itself there is no room to retain waveforms: the
    // bounded footprint keeps only ring buffers and live candidates, emits
    // the *identical* event stream, and its measured state stays flat no
    // matter how long the stream runs.
    let mut bounded = StreamingQrsDetector::new(config.with_footprint(Footprint::Bounded));
    let mut bounded_peaks = 0usize;
    let mut high_water = bounded.state_bytes();
    for chunk in record.samples().chunks(20) {
        bounded_peaks += bounded
            .push(chunk)
            .iter()
            .filter(|e| matches!(e, StreamEvent::RPeak { .. }))
            .count();
        high_water = high_water.max(bounded.state_bytes());
    }
    let (trailing, slim) = bounded.finish();
    bounded_peaks += trailing
        .iter()
        .filter(|e| matches!(e, StreamEvent::RPeak { .. }))
        .count();
    assert_eq!(
        bounded_peaks,
        batch.r_peaks().len(),
        "bounded events diverged"
    );
    assert!(
        slim.signals().is_none(),
        "bounded mode must not retain signals"
    );
    println!(
        "bounded footprint: same {bounded_peaks} beats from {} B of live session state \
         plus {} B of this thread's block scratch (high-water; retaining mode needed {} B \
         for this record) ✔",
        high_water,
        pan_tompkins::block_scratch_bytes(),
        {
            let mut retain = StreamingQrsDetector::new(config);
            for chunk in record.samples().chunks(20) {
                let _ = retain.push(chunk);
            }
            retain.state_bytes()
        }
    );

    // A hub serving a ward of wearables runs many sessions at once: one
    // shared compiled engine, one LaneBank, four independent patients
    // advancing in lock-step through the SoA stage kernels. Events come
    // out attributed to their lane, and each lane's final result is
    // bit-identical to a solo streaming run of the same record.
    let bounded = config.with_footprint(Footprint::Bounded);
    let engine = Arc::new(DetectorEngine::new(bounded));
    let patients: Vec<_> = (0u32..4)
        .map(|p| {
            EcgSynthesizer::new(SynthConfig {
                name: "ward",
                n_samples: 4_000,
                heart_rate_bpm: 58.0 + 14.0 * f64::from(p),
                noise: NoiseConfig::ambulatory(),
                seed: 100 + u64::from(p),
                ..SynthConfig::default()
            })
            .synthesize()
        })
        .collect();

    let mut bank = LaneBank::new(Arc::clone(&engine), patients.len());
    let mut live = vec![0usize; patients.len()];
    let mut frames = Vec::with_capacity(20 * patients.len());
    for t0 in (0..4_000).step_by(20) {
        frames.clear();
        for t in t0..t0 + 20 {
            frames.extend(patients.iter().map(|p| p.samples()[t]));
        }
        for event in bank.push(&frames) {
            if event.event.r_peak().is_some() {
                live[event.lane] += 1;
            }
        }
    }
    println!(
        "\nlane bank: {} sessions on one shared engine",
        bank.lanes()
    );
    for (lane, patient) in patients.iter().enumerate() {
        let (trailing, result) = bank.finish_lane(lane);
        let beats = live[lane] + trailing.iter().filter(|e| e.r_peak().is_some()).count();
        let (_, solo) = StreamingQrsDetector::detect_chunked(bounded, patient.samples(), 20);
        assert_eq!(result, solo, "lane {lane} diverged from its solo run");
        println!(
            "  lane {lane}: {beats} beats from {} B of per-lane state (== solo run ✔)",
            bank.lane_state_bytes(lane)
        );
    }
    println!(
        "shared across all lanes: {} B engine + {} B residual tables, billed once, \
         and {} B of block scratch, once per thread",
        engine.engine_bytes(),
        bank.shared_table_bytes(),
        pan_tompkins::block_scratch_bytes()
    );
}
