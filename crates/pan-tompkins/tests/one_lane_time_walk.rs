//! The one-lane time walk against the scalar reference: a one-lane
//! `LaneBank` runs its stage kernels in register blocks across *time*, and
//! batch `QrsDetector::detect` and `StreamingQrsDetector` are both such a
//! bank, so every case here compares them with `oracle::detect_chunked` —
//! the five stages one sample at a time, which never touch the lane
//! kernels — in events, peaks, decisions, stage signals and every
//! operation/saturation/overflow counter.
//!
//! The sweep is deterministic: every adder × multiplier kind at spread
//! per-stage LSB depths and the paper's exact/B9/B5 designs, under both
//! footprints; pushes whose lengths leave
//! every register-block remainder (16/8/4/1 ticks) inside the 64-tick
//! kernel blocks; hostile `i32::MIN`/`i32::MAX` inputs; empty and
//! 3-sample records; and snapshots taken mid-block.

use std::sync::Arc;

use approx_arith::{FullAdderKind, Mult2x2Kind, StageArith};
use pan_tompkins::{
    oracle, DetectionResult, DetectorEngine, Footprint, LaneBank, PipelineConfig, QrsDetector,
    StageKind, StreamEvent, StreamingQrsDetector,
};

/// Push lengths: single ticks, a partial 4-block, one tick short of,
/// exactly at, and one past the 64-tick kernel block, a multi-block push
/// with a ragged tail, and the whole record in one push.
const PUSHES: [usize; 6] = [1, 7, 63, 64, 65, 250];

/// Every adder × multiplier kind at per-stage LSB depths spread over each
/// stage's range, then the paper's designs and two single-FIR designs at
/// the extremes of the tap walk: an approximate HPF, whose 32 taps share 2
/// coefficient magnitudes, and an approximate LPF at k = 16, whose residual
/// holds 2^15 + 1 entries.
fn configs() -> Vec<PipelineConfig> {
    let mut configs = Vec::new();
    for (m, &mult) in Mult2x2Kind::ALL.iter().enumerate() {
        for (a, &adder) in FullAdderKind::ALL.iter().enumerate() {
            let i = (m * FullAdderKind::ALL.len() + a) as u32;
            let mut config = PipelineConfig::exact();
            for (s, kind) in StageKind::ALL.into_iter().enumerate() {
                let k = (3 + 5 * i + 7 * s as u32) % (kind.max_approx_lsbs() + 1);
                config = config.with_stage(kind, StageArith::new(k, mult, adder));
            }
            configs.push(config);
        }
    }
    configs.extend([
        PipelineConfig::exact(),
        PipelineConfig::least_energy([10, 12, 2, 8, 16]),
        PipelineConfig::least_energy([4, 4, 2, 4, 8]),
        PipelineConfig::least_energy([0, 16, 0, 0, 0]),
        PipelineConfig::least_energy([16, 0, 0, 0, 0]),
    ]);
    configs
}

/// An ECG stretch with spikes at the datapath extremes: every FIR sees
/// clamped operands and wrapped sums, so saturation and overflow counters
/// move.
fn hostile(len: usize) -> Vec<i32> {
    let mut samples = ecg::nsrdb::record(1).samples()[..len].to_vec();
    for (i, v) in samples.iter_mut().enumerate() {
        match i % 97 {
            11 | 12 => *v = i32::MAX,
            50 => *v = i32::MIN,
            51..=53 => *v = i32::MIN + 1,
            _ => {}
        }
    }
    samples
}

/// The records of the sweep: a clean ECG stretch long enough to emit
/// beats, the hostile one, an empty record and a 3-sample record.
fn records(len: usize) -> Vec<Vec<i32>> {
    let clean = ecg::nsrdb::record(3).samples()[..len].to_vec();
    vec![clean, hostile(len), Vec::new(), vec![-7, 300, 12]]
}

/// Runs `signal` through a fresh one-lane bank in `push`-sample pushes.
fn one_lane(
    config: PipelineConfig,
    signal: &[i32],
    push: usize,
) -> (Vec<StreamEvent>, DetectionResult) {
    let mut bank = LaneBank::new(Arc::new(DetectorEngine::new(config)), 1);
    let mut events = Vec::new();
    for chunk in signal.chunks(push) {
        events.extend(bank.push(chunk).into_iter().map(|e| e.event));
    }
    let (trailing, result) = bank.finish_lane(0);
    events.extend(trailing);
    (events, result)
}

#[test]
fn one_lane_bank_matches_the_scalar_path_for_every_config_push_and_record() {
    let mut moved = [false; 2];
    for config in configs() {
        for footprint in [Footprint::Retain, Footprint::Bounded] {
            let config = config.with_footprint(footprint);
            for signal in records(2000) {
                let scalar = oracle::detect_chunked(config, &signal, 64);
                if footprint == Footprint::Retain {
                    assert_eq!(
                        QrsDetector::new(config).detect(&signal),
                        scalar.1,
                        "{config}: batch detect over {} samples",
                        signal.len()
                    );
                }
                moved[0] |= scalar.1.saturations().iter().sum::<u64>() > 0;
                moved[1] |= scalar.1.add_overflows().iter().sum::<u64>() > 0;
                for push in PUSHES.into_iter().chain([signal.len().max(1)]) {
                    assert!(
                        one_lane(config, &signal, push) == scalar,
                        "{config} {footprint:?}: {push}-sample pushes over {} samples",
                        signal.len()
                    );
                    assert!(
                        StreamingQrsDetector::detect_chunked(config, &signal, push) == scalar,
                        "{config} {footprint:?}: {push}-sample solo pushes over {} samples",
                        signal.len()
                    );
                }
            }
        }
    }
    assert_eq!(
        moved,
        [true, true],
        "saturation / overflow counters never moved"
    );
}

/// A one-lane bank snapshotted mid-block (37 samples in), restored into a
/// solo detector, snapshotted again and restored back into a bank lane
/// resumes bit-identically with the uninterrupted scalar run.
#[test]
fn one_lane_snapshots_round_trip_through_a_solo_detector_mid_block() {
    let signal = hostile(1800);
    for config in [
        PipelineConfig::exact(),
        PipelineConfig::least_energy([10, 12, 2, 8, 16]),
        PipelineConfig::least_energy([4, 4, 2, 4, 8]),
    ] {
        for footprint in [Footprint::Retain, Footprint::Bounded] {
            let config = config.with_footprint(footprint);
            let (ref_events, ref_result) = oracle::detect_chunked(config, &signal, 64);
            let engine = Arc::new(DetectorEngine::new(config));

            let mut bank = LaneBank::new(Arc::clone(&engine), 1);
            let mut events: Vec<StreamEvent> = bank
                .push(&signal[..37])
                .into_iter()
                .map(|e| e.event)
                .collect();
            let blob = bank.snapshot_lane(0).expect("lane snapshot");
            let mut solo =
                StreamingQrsDetector::restore(Arc::clone(&engine), &blob).expect("solo restore");
            events.extend(solo.push(&signal[37..901]));
            let blob = solo.snapshot().expect("solo snapshot");

            // Back into the lane of a bank that already ran another
            // session, whose rings and cursors it overwrites.
            let _ = bank.push(&signal[900..]);
            bank.restore_lane(0, &blob).expect("lane restore");
            assert_eq!(bank.samples_seen(0), 901);
            for chunk in signal[901..].chunks(250) {
                events.extend(bank.push(chunk).into_iter().map(|e| e.event));
            }
            let (trailing, result) = bank.finish_lane(0);
            events.extend(trailing);
            assert_eq!(events, ref_events, "{config} {footprint:?}: events");
            assert_eq!(result, ref_result, "{config} {footprint:?}: result");
        }
    }
}
