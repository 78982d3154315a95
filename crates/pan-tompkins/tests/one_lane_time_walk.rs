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
//!
//! The HPF runs as a running sum when its adder is separable and its
//! overflow bound holds, and on the tap walk otherwise, so HPF designs on
//! both sides of those conditions also run through banks of 1 (the time
//! walk), 2, 5 and 16 lanes (the lane walk).

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
    configs.extend(hpf_designs().map(|(config, _)| config));
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

/// HPF designs on both sides of the running sum's conditions: AMA5 at
/// k = 1, 4, 12 and 16 and the exact HPF run as a running sum; AMA4
/// (wired, not separable) and AMA5 at k = 20 (past the overflow bound)
/// keep the tap walk. The flag says which. An exact or AMA5 LPF keeps its
/// outputs on these records inside the HPF's 16-bit operand range, so
/// every design takes the LPF at AMA3 k = 16, whose sums hostile spikes
/// push out of it; the other stages are exact.
fn hpf_designs() -> [(PipelineConfig, bool); 7] {
    let lpf = StageArith::new(16, Mult2x2Kind::V1, FullAdderKind::Ama3);
    let hpf = |arith| {
        PipelineConfig::exact()
            .with_stage(StageKind::Lpf, lpf)
            .with_stage(StageKind::Hpf, arith)
    };
    [
        (hpf(StageArith::least_energy(1)), true),
        (hpf(StageArith::least_energy(4)), true),
        (hpf(StageArith::least_energy(12)), true),
        (hpf(StageArith::least_energy(16)), true),
        (hpf(StageArith::exact()), true),
        (
            hpf(StageArith::new(12, Mult2x2Kind::V1, FullAdderKind::Ama4)),
            false,
        ),
        (hpf(StageArith::least_energy(20)), false),
    ]
}

/// Lane `lane`'s hostile record: its own stretch of the record, so its
/// spikes fall at another phase.
fn hostile_lane(lane: usize, len: usize) -> Vec<i32> {
    hostile(len + 41 * lane)[41 * lane..].to_vec()
}

/// Runs `signals` through a fresh bank, one lane each, in `push`-tick
/// pushes.
fn bank_run(
    config: PipelineConfig,
    signals: &[Vec<i32>],
    push: usize,
) -> Vec<(Vec<StreamEvent>, DetectionResult)> {
    let lanes = signals.len();
    let mut bank = LaneBank::new(Arc::new(DetectorEngine::new(config)), lanes);
    let frames: Vec<i32> = (0..signals[0].len())
        .flat_map(|t| signals.iter().map(move |s| s[t]))
        .collect();
    let mut events = vec![Vec::new(); lanes];
    for chunk in frames.chunks(push * lanes) {
        for e in bank.push(chunk) {
            events[e.lane].push(e.event);
        }
    }
    events
        .into_iter()
        .enumerate()
        .map(|(lane, mut events)| {
            let (trailing, result) = bank.finish_lane(lane);
            events.extend(trailing);
            (events, result)
        })
        .collect()
}

/// Every HPF design of [`hpf_designs`] on hostile lanes, through banks of
/// 1, 2, 5 and 16 lanes in every push size: each lane's events and result,
/// every operation, saturation and overflow counter included, equal the
/// scalar reference's. The hostile lanes saturate the HPF's multipliers,
/// and the designs that run as a running sum must see no overflow in the
/// reference's own count, which the bound promises for every input.
#[test]
fn running_sum_hpf_matches_the_scalar_path_on_both_sides_of_its_conditions() {
    let signals: Vec<Vec<i32>> = (0..16).map(|lane| hostile_lane(lane, 1200)).collect();
    for (config, running_sum) in hpf_designs() {
        let scalar: Vec<_> = signals
            .iter()
            .map(|s| oracle::detect_chunked(config, s, 64))
            .collect();
        assert!(
            scalar.iter().all(|(_, r)| r.saturations()[1] > 0),
            "{config}: a lane never saturated the HPF"
        );
        if running_sum {
            assert!(
                scalar.iter().all(|(_, r)| r.add_overflows()[1] == 0),
                "{config}: the HPF overflowed within its bound"
            );
        }
        for lanes in [1, 2, 5, 16] {
            for push in PUSHES {
                let runs = bank_run(config, &signals[..lanes], push);
                for (lane, run) in runs.iter().enumerate() {
                    assert!(
                        *run == scalar[lane],
                        "{config}: lane {lane} of {lanes} in {push}-tick pushes"
                    );
                }
            }
        }
    }
}

/// A lane of a 5-lane bank snapshotted mid-block (101 ticks in) resumes
/// bit-identically in a solo detector, and a solo snapshot taken mid-block
/// resumes in a lane of a 16-lane bank whose ring cursor sits elsewhere,
/// for every HPF design of [`hpf_designs`].
#[test]
fn running_sum_hpf_snapshots_resume_mid_block() {
    let signals: Vec<Vec<i32>> = (0..16).map(|lane| hostile_lane(lane, 1200)).collect();
    let target = &signals[2];
    for (config, _) in hpf_designs() {
        let reference = oracle::detect_chunked(config, target, 64);
        let engine = Arc::new(DetectorEngine::new(config));
        let frames = |lanes: usize, ticks: std::ops::Range<usize>| -> Vec<i32> {
            ticks
                .flat_map(|t| signals[..lanes].iter().map(move |s| s[t]))
                .collect()
        };

        // Lane 2 of a 5-lane bank → solo.
        let mut bank = LaneBank::new(Arc::clone(&engine), 5);
        let mut events: Vec<StreamEvent> = bank
            .push(&frames(5, 0..101))
            .into_iter()
            .filter(|e| e.lane == 2)
            .map(|e| e.event)
            .collect();
        let blob = bank.snapshot_lane(2).expect("lane snapshot");
        let mut solo =
            StreamingQrsDetector::restore(Arc::clone(&engine), &blob).expect("solo restore");
        for chunk in target[101..].chunks(63) {
            events.extend(solo.push(chunk));
        }
        let (trailing, result) = solo.finish();
        events.extend(trailing);
        assert_eq!((events, result), reference.clone(), "{config}: lane → solo");

        // Solo → lane 2 of a 16-lane bank that has run 300 ticks.
        let mut solo = StreamingQrsDetector::from_engine(Arc::clone(&engine));
        let mut events = solo.push(&target[..37]);
        let blob = solo.snapshot().expect("solo snapshot");
        let mut bank = LaneBank::new(Arc::clone(&engine), 16);
        let _ = bank.push(&frames(16, 0..300));
        bank.restore_lane(2, &blob).expect("lane restore");
        let rest: Vec<i32> = (37..target.len())
            .flat_map(|t| (0..16).map(move |lane| if lane == 2 { target[t] } else { 0 }))
            .collect();
        for chunk in rest.chunks(65 * 16) {
            events.extend(
                bank.push(chunk)
                    .into_iter()
                    .filter(|e| e.lane == 2)
                    .map(|e| e.event),
            );
        }
        let (trailing, result) = bank.finish_lane(2);
        events.extend(trailing);
        assert_eq!((events, result), reference, "{config}: solo → lane");
    }
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
