//! The chunk-invariance contract: for random approximation configurations,
//! random signals, and random chunk partitions, the streaming detector's
//! output — peaks, decisions, stage signals, operation/saturation/overflow
//! counters — equals the batch `detect` exactly, and the event stream does
//! not depend on how the input was split into `push` calls.
//!
//! Batch detection, the streaming detector and every bank lane run the
//! same lane kernels, so each property anchors on the scalar reference
//! (`oracle::detect_chunked`: the public stage objects, one sample at a
//! time), which shares none of their stage code.

use std::sync::Arc;

use approx_arith::{FullAdderKind, Mult2x2Kind, StageArith};
use pan_tompkins::{
    oracle, DetectionResult, DetectorEngine, Footprint, LaneBank, PipelineConfig, QrsDetector,
    StreamEvent, StreamingQrsDetector,
};
use proptest::prelude::*;

/// Feeds `signal` to a streaming detector split at the given chunk sizes
/// (cycled until the signal is exhausted) and returns the event stream and
/// final result.
fn run_streaming(
    config: PipelineConfig,
    signal: &[i32],
    chunk_sizes: &[usize],
) -> (Vec<StreamEvent>, DetectionResult) {
    let mut det = StreamingQrsDetector::new(config);
    let mut events = Vec::new();
    let mut offset = 0usize;
    let mut turn = 0usize;
    while offset < signal.len() {
        let take = chunk_sizes[turn % chunk_sizes.len()]
            .max(1)
            .min(signal.len() - offset);
        events.extend(det.push(&signal[offset..offset + take]));
        offset += take;
        turn += 1;
    }
    let (trailing, result) = det.finish();
    events.extend(trailing);
    (events, result)
}

/// A pipeline configuration drawn from the paper's grid: per-stage LSB
/// depths within the stage bounds, one elementary module pair.
fn config_from(lsb_seed: [u32; 5], mult_idx: usize, adder_idx: usize) -> PipelineConfig {
    let mult = Mult2x2Kind::ALL[mult_idx % Mult2x2Kind::ALL.len()];
    let adder = FullAdderKind::ALL[adder_idx % FullAdderKind::ALL.len()];
    let mut config = PipelineConfig::exact();
    for (kind, k) in pan_tompkins::StageKind::ALL.into_iter().zip(lsb_seed) {
        let k = k % (kind.max_approx_lsbs() + 1);
        config = config.with_stage(kind, StageArith::new(k, mult, adder));
    }
    config
}

/// A synthetic ECG stretch with seed-dependent morphology and length.
fn record_samples(seed: u64, len: usize) -> Vec<i32> {
    let record = ecg::nsrdb::record((seed % 5) as usize);
    let start = (seed as usize * 613) % 4000;
    record.samples()[start..(start + len).min(record.len())].to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole property: streaming == batch for arbitrary
    /// configuration × signal × partition, down to every counter.
    #[test]
    fn streaming_detect_is_chunk_invariant(
        seed in 0u64..10_000,
        len in 600usize..3000,
        k0 in 0u32..=16, k1 in 0u32..=16, k2 in 0u32..=16, k3 in 0u32..=16, k4 in 0u32..=16,
        mult_idx in 0usize..3,
        adder_idx in 0usize..6,
        chunk_a in 1usize..40,
        chunk_b in 1usize..500,
    ) {
        let config = config_from([k0, k1, k2, k3, k4], mult_idx, adder_idx);
        let signal = record_samples(seed, len);
        let batch = QrsDetector::new(config).detect(&signal);
        let (scalar_events, scalar) = oracle::detect_chunked(config, &signal, chunk_b);
        prop_assert_eq!(&batch, &scalar, "batch != scalar reference for {}", config);

        // Fixed partitions: single samples, a small prime, a large chunk,
        // the whole record — plus two drawn alternating partitions.
        let partitions: [&[usize]; 6] = [
            &[1],
            &[7],
            &[997],
            &[usize::MAX],
            &[chunk_a, chunk_b],
            &[1, chunk_b, chunk_a],
        ];
        for sizes in partitions {
            let (events, streamed) = run_streaming(config, &signal, sizes);
            prop_assert_eq!(
                &streamed, &batch,
                "streaming != batch for {} with partition {:?}", config, sizes
            );
            prop_assert_eq!(
                &events, &scalar_events,
                "event stream changed with partition {:?}", sizes
            );
        }

        // The bounded-footprint mode: identical event stream for every
        // partition, a slim result whose counters equal the batch run, and
        // a measured O(1) state bound.
        let bounded_cfg = config.with_footprint(Footprint::Bounded);
        let reference = scalar_events;
        for sizes in [&[1usize] as &[usize], &[chunk_a, chunk_b], &[997]] {
            let (events, slim) = run_streaming(bounded_cfg, &signal, sizes);
            prop_assert_eq!(
                &events, &reference,
                "bounded events diverged for {} with partition {:?}", config, sizes
            );
            prop_assert!(slim.signals().is_none());
            prop_assert!(slim.r_peaks().is_empty());
            prop_assert_eq!(slim.ops(), batch.ops());
            prop_assert_eq!(slim.saturations(), batch.saturations());
            prop_assert_eq!(slim.add_overflows(), batch.add_overflows());
        }
        let mut bounded = StreamingQrsDetector::new(bounded_cfg);
        let mut high_water = 0usize;
        for chunk in signal.chunks(64) {
            let _ = bounded.push(chunk);
            high_water = high_water.max(bounded.state_bytes());
        }
        prop_assert!(
            high_water < 64 * 1024,
            "bounded state hit {} bytes on a {}-sample record", high_water, signal.len()
        );

        // The decision-arithmetic axis of the grid: the integer decisions
        // every path above agreed on equal the `f64` transcription's over
        // the same MWI signal (which no decision arithmetic feeds back
        // into), so the float reference would have produced the same
        // batch result, event streams and bounded footprint.
        let float = oracle::float_classify(&config.threshold(), &batch.expect_signals().mwi);
        prop_assert_eq!(
            float.as_slice(), batch.decisions(),
            "float vs fixed decisions diverged for {}", config
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The lane axis of the contract: every lane of a [`LaneBank`] emits
    /// the same event stream and final result — including every
    /// operation/saturation/overflow counter — as the scalar reference run, for
    /// random configurations × lane counts × signals × push granularities
    /// × footprints.
    #[test]
    fn lane_bank_lanes_match_their_solo_runs(
        seed in 0u64..10_000,
        len in 600usize..2200,
        lanes in 1usize..=17,
        k0 in 0u32..=16, k1 in 0u32..=16, k2 in 0u32..=16, k3 in 0u32..=16, k4 in 0u32..=16,
        mult_idx in 0usize..3,
        adder_idx in 0usize..6,
        ticks_a in 1usize..40,
        ticks_b in 1usize..400,
        bounded in 0u8..2,
    ) {
        let mut config = config_from([k0, k1, k2, k3, k4], mult_idx, adder_idx);
        if bounded == 1 {
            config = config.with_footprint(Footprint::Bounded);
        }

        // One morphology per lane; trim to a common length so the frames
        // interleave (record_samples clips at its source record's end).
        let mut signals: Vec<Vec<i32>> = (0..lanes as u64)
            .map(|l| record_samples(seed + 131 * l, len))
            .collect();
        let n = signals.iter().map(Vec::len).min().expect("lanes >= 1");
        for s in &mut signals {
            s.truncate(n);
        }

        // Drive the bank in alternating drawn tick counts.
        let engine = Arc::new(DetectorEngine::new(config));
        let mut bank = LaneBank::new(engine, lanes);
        let mut per_lane: Vec<Vec<StreamEvent>> = vec![Vec::new(); lanes];
        let ticks = [ticks_a, ticks_b];
        let mut t = 0usize;
        let mut turn = 0usize;
        while t < n {
            let take = ticks[turn % ticks.len()].min(n - t);
            let frames: Vec<i32> = (t..t + take)
                .flat_map(|tick| signals.iter().map(move |s| s[tick]))
                .collect();
            for le in bank.push(&frames) {
                per_lane[le.lane].push(le.event);
            }
            t += take;
            turn += 1;
        }

        for (lane, events) in per_lane.iter_mut().enumerate() {
            let (trailing, result) = bank.finish_lane(lane);
            events.extend(trailing);
            let (solo_events, solo_result) = oracle::detect_chunked(config, &signals[lane], 97);
            prop_assert_eq!(
                &*events, &solo_events,
                "lane {} of {} events diverged for {}", lane, lanes, config
            );
            prop_assert_eq!(
                &result, &solo_result,
                "lane {} of {} result diverged for {}", lane, lanes, config
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The snapshot axis of the contract: freezing a session at a random
    /// push boundary, dropping it, and restoring from the blob — first
    /// into a solo detector, then migrating through a random lane of a
    /// random-width [`LaneBank`] and back out — is invisible: the stitched
    /// event stream, every decision, and every counter of the final result
    /// equal the uninterrupted run, for random configurations × records ×
    /// partitions × snapshot points × footprints.
    #[test]
    fn snapshot_restore_is_invisible_at_any_boundary(
        seed in 0u64..10_000,
        len in 600usize..2400,
        k0 in 0u32..=16, k1 in 0u32..=16, k2 in 0u32..=16, k3 in 0u32..=16, k4 in 0u32..=16,
        mult_idx in 0usize..3,
        adder_idx in 0usize..6,
        chunk_a in 1usize..40,
        chunk_b in 1usize..400,
        cut_num in 0usize..1000,
        cut2_num in 0usize..1000,
        lanes in 1usize..5,
        warm_ticks in 0usize..200,
        bounded in 0u8..2,
    ) {
        let mut config = config_from([k0, k1, k2, k3, k4], mult_idx, adder_idx);
        if bounded == 1 {
            config = config.with_footprint(Footprint::Bounded);
        }
        let signal = record_samples(seed, len);
        let n = signal.len();
        // Two snapshot points: cut inside the record, cut2 in [cut, n].
        let cut = (n * cut_num / 1000).min(n - 1).max(1);
        let cut2 = cut + (n - cut) * cut2_num / 1000;
        let lane = lanes - 1;

        let reference = oracle::detect_chunked(config, &signal, chunk_b);

        // Leg 1: solo up to `cut`, freeze, drop, thaw into a fresh solo.
        let engine = Arc::new(DetectorEngine::new(config));
        let mut det = StreamingQrsDetector::from_engine(Arc::clone(&engine));
        let mut events = Vec::new();
        for chunk in signal[..cut].chunks(chunk_a) {
            events.extend(det.push(chunk));
        }
        let blob = det.snapshot().expect("solo snapshot");
        drop(det);

        // Leg 2: thaw into a lane of a pre-warmed bank (shared FIR ring
        // cursor mid-rotation), stream to `cut2`, freeze the lane back out.
        let mut bank = LaneBank::new(Arc::clone(&engine), lanes);
        if warm_ticks > 0 {
            let _ = bank.push(&vec![0i32; warm_ticks * lanes]);
        }
        bank.restore_lane(lane, &blob).expect("lane restore");
        for chunk in signal[cut..cut2].chunks(chunk_b.max(1)) {
            let frames: Vec<i32> = chunk
                .iter()
                .flat_map(|&x| (0..lanes).map(move |l| if l == lane { x } else { 0 }))
                .collect();
            for le in bank.push(&frames) {
                if le.lane == lane {
                    events.push(le.event);
                }
            }
        }
        let blob = bank.snapshot_lane(lane).expect("lane snapshot");

        // Leg 3: thaw back into a solo session and run to the end.
        let mut det = StreamingQrsDetector::restore(Arc::clone(&engine), &blob)
            .expect("solo restore");
        for chunk in signal[cut2..].chunks(chunk_a) {
            events.extend(det.push(chunk));
        }
        let (trailing, result) = det.finish();
        events.extend(trailing);

        prop_assert_eq!(
            &events, &reference.0,
            "migrated events diverged for {} cut {}/{} via {} lanes", config, cut, cut2, lanes
        );
        prop_assert_eq!(
            &result, &reference.1,
            "migrated result diverged for {} cut {}/{} via {} lanes", config, cut, cut2, lanes
        );
    }
}

/// Saturation-heavy input (large amplitudes force datapath clamps and adder
/// wraps): the counters in the result must still match exactly.
#[test]
fn saturating_signals_stay_equivalent() {
    let config = config_from([12, 14, 3, 6, 16], 1, 4);
    let signal: Vec<i32> = (0..2500)
        .map(|i| {
            let beat = if i % 180 < 4 { 30_000 } else { 0 };
            beat + ((i * 37) % 2000) - 1000
        })
        .collect();
    let batch = QrsDetector::new(config).detect(&signal);
    assert!(
        batch.saturations().iter().sum::<u64>() > 0,
        "test signal failed to exercise the saturation path"
    );
    assert_eq!(batch, oracle::detect_chunked(config, &signal, 64).1);
    for sizes in [[1usize, 1], [13, 380]] {
        let (_, streamed) = run_streaming(config, &signal, &sizes);
        assert_eq!(streamed, batch);
    }
}

/// The evaluator-facing workload: the full paper record under the paper's
/// B9 design, streamed at AFE-like chunk sizes.
#[test]
fn paper_record_streams_identically() {
    let record = ecg::nsrdb::paper_record().truncated(8000);
    let config = PipelineConfig::least_energy([10, 12, 2, 8, 16]);
    let batch = QrsDetector::new(config).detect(record.samples());
    assert!(batch.r_peaks().len() > 20, "workload has no beats");
    assert_eq!(
        batch,
        oracle::detect_chunked(config, record.samples(), 20).1
    );
    for sizes in [[1usize, 1], [20, 20], [160, 7]] {
        let (events, streamed) = run_streaming(config, record.samples(), &sizes);
        assert_eq!(streamed, batch);
        let confirmed: Vec<usize> = events.iter().filter_map(StreamEvent::r_peak).collect();
        let mut sorted = confirmed.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, batch.r_peaks(), "events disagree with r_peaks");
    }
}
