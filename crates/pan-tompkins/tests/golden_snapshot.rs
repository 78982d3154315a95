//! Golden snapshot fixtures: four mid-record version-1 snapshot blobs of
//! the exact and B9 designs, committed as cross-version anchors.
//!
//! Two were taken under the integer decision arithmetic (`*_fixed_*`), one
//! per footprint policy. Every future codec revision must keep restoring
//! them and resume them bit-identically, so on-disk session state survives
//! upgrades: each check thaws the committed blob, streams the remainder of
//! the paper workload, and demands the stitched run equal the
//! uninterrupted scalar reference run (`oracle`) — peaks, decisions, and
//! every per-stage counter — and that re-encoding the thawed session
//! reproduces the blob byte for byte (the codec is canonical).
//!
//! The other two (`*_float_*`) were taken under the retired `f64` decision
//! arithmetic. No configuration that can still be built carries their
//! fingerprint, so every restore path must refuse them with
//! `SnapshotError::ConfigMismatch` and leave the target untouched.
//!
//! If a deliberate codec version bump invalidates the fixtures,
//! regenerate the restorable ones with `cargo test -p pan-tompkins --test
//! golden_snapshot -- --ignored write_fixtures --nocapture` and commit
//! the rewritten `tests/fixtures/` blobs alongside the version change.
//! The float blobs cannot be regenerated (their arithmetic is gone); a
//! version bump would have them refused as an unsupported version instead.

// Integration-test helpers sit outside clippy's cfg(test) exemption;
// panicking on a broken fixture is exactly right here.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::Arc;

use pan_tompkins::oracle::ScalarDetector;
use pan_tompkins::{
    DetectorEngine, Footprint, LaneBank, PipelineConfig, SnapshotError, StreamingQrsDetector,
};

/// The samples already inside the committed snapshots (15 s of the 30 s
/// paper workload).
const CUT: usize = 3000;

/// The fixture workload: the first 6000 samples (30 s) of the synthetic
/// NSRDB paper record — the same record the golden trace pins.
fn workload() -> ecg::EcgRecord {
    ecg::nsrdb::paper_record().truncated(6000)
}

/// The two restorable configurations, each `(label, config)`: one per
/// design and footprint.
fn fixture_configs() -> [(&'static str, PipelineConfig); 2] {
    let b9 = PipelineConfig::least_energy([10, 12, 2, 8, 16]);
    [
        ("exact_fixed_retain", PipelineConfig::exact()),
        ("b9_fixed_bounded", b9.with_footprint(Footprint::Bounded)),
    ]
}

/// The committed restorable blobs, in `fixture_configs` order.
const FIXTURES: [&[u8]; 2] = [
    include_bytes!("fixtures/snapshot_exact_fixed_retain.bin"),
    include_bytes!("fixtures/snapshot_b9_fixed_bounded.bin"),
];

/// The committed blobs of the retired `f64` decision arithmetic, taken
/// from the exact design (bounded) and B9 (retaining).
const FLOAT_FIXTURES: [(&str, &[u8]); 2] = [
    (
        "exact_float_bounded",
        include_bytes!("fixtures/snapshot_exact_float_bounded.bin"),
    ),
    (
        "b9_float_retain",
        include_bytes!("fixtures/snapshot_b9_float_retain.bin"),
    ),
];

#[test]
fn committed_snapshots_restore_and_resume_bit_identically() {
    let record = workload();
    let signal = record.samples();
    for ((label, config), blob) in fixture_configs().into_iter().zip(FIXTURES) {
        let engine = Arc::new(DetectorEngine::new(config));

        // The uninterrupted scalar reference run under the same chunking
        // the resumed leg uses.
        let mut reference = ScalarDetector::new(config);
        let mut ref_events = Vec::new();
        for chunk in signal.chunks(10) {
            ref_events.extend(reference.push(chunk));
        }
        let (trailing, ref_result) = reference.finish();
        ref_events.extend(trailing);

        let restored = StreamingQrsDetector::restore(Arc::clone(&engine), blob)
            .unwrap_or_else(|e| panic!("{label}: committed fixture refused: {e}"));
        assert_eq!(
            restored.samples_seen(),
            CUT,
            "{label}: fixture sample count"
        );
        assert_eq!(
            restored.snapshot().expect("re-snapshot"),
            blob,
            "{label}: re-encoding the thawed session must reproduce the blob"
        );

        // Replay the prefix in a scratch session to recover the events the
        // generator saw before the cut, then stitch them to the resumed
        // leg: the whole must equal the uninterrupted stream.
        let mut prefix = StreamingQrsDetector::from_engine(Arc::clone(&engine));
        let mut events = Vec::new();
        for chunk in signal[..CUT].chunks(10) {
            events.extend(prefix.push(chunk));
        }
        assert_eq!(
            prefix.snapshot().expect("prefix snapshot"),
            blob,
            "{label}: a fresh run to the cut must reproduce the committed blob"
        );
        let mut det = restored;
        for chunk in signal[CUT..].chunks(10) {
            events.extend(det.push(chunk));
        }
        let (trailing, result) = det.finish();
        events.extend(trailing);
        assert_eq!(result, ref_result, "{label}: resumed result diverged");
        assert_eq!(events, ref_events, "{label}: stitched events diverged");
    }
}

/// The float-arithmetic blobs are refused with `ConfigMismatch` under
/// the exact and B9 designs in both footprints — by a solo restore and by
/// a bank lane restore — and the refused lane then finishes exactly like
/// an untouched control lane fed the same samples.
#[test]
fn float_decision_snapshots_are_refused_with_config_mismatch() {
    let record = workload();
    let signal = &record.samples()[..CUT];
    let b9 = PipelineConfig::least_energy([10, 12, 2, 8, 16]);
    for (label, blob) in FLOAT_FIXTURES {
        for design in [PipelineConfig::exact(), b9] {
            for footprint in [Footprint::Retain, Footprint::Bounded] {
                let config = design.with_footprint(footprint);
                let engine = Arc::new(DetectorEngine::new(config));
                let refused = |e: Option<SnapshotError>| {
                    matches!(e, Some(SnapshotError::ConfigMismatch { .. }))
                };
                assert!(
                    refused(StreamingQrsDetector::restore(Arc::clone(&engine), blob).err()),
                    "{label} under {config} {footprint:?}: solo restore not refused"
                );

                // Lane 0 takes the refused restore halfway through the
                // record; lane 1 is the control.
                let mut bank = LaneBank::new(engine, 2);
                let mut events = [Vec::new(), Vec::new()];
                let mut feed = |bank: &mut LaneBank, part: &[i32]| {
                    let frames: Vec<i32> = part.iter().flat_map(|&x| [x, x]).collect();
                    for e in bank.push(&frames) {
                        events[e.lane].push(e.event);
                    }
                };
                let (head, tail) = signal.split_at(signal.len() / 2);
                feed(&mut bank, head);
                assert!(
                    refused(bank.restore_lane(0, blob).err()),
                    "{label} under {config} {footprint:?}: lane restore not refused"
                );
                feed(&mut bank, tail);
                let [lane, control] = [0, 1].map(|l| {
                    let (trailing, result) = bank.finish_lane(l);
                    let mut all = std::mem::take(&mut events[l]);
                    all.extend(trailing);
                    (all, result)
                });
                assert_eq!(
                    lane, control,
                    "{label} under {config} {footprint:?}: refused lane diverged"
                );
            }
        }
    }
}

/// Regenerates the restorable fixture blobs (run with `--ignored
/// --nocapture`).
#[test]
#[ignore = "fixture generator, not a regression check"]
fn write_fixtures() {
    let record = workload();
    let signal = record.samples();
    for (label, config) in fixture_configs() {
        let mut det = StreamingQrsDetector::new(config);
        let _ = det.push(&signal[..CUT]);
        let blob = det.snapshot().expect("snapshot");
        let path = format!(
            "{}/tests/fixtures/snapshot_{label}.bin",
            env!("CARGO_MANIFEST_DIR")
        );
        std::fs::write(&path, &blob).expect("write fixture");
        println!("wrote {path}: {} bytes", blob.len());
    }
}
