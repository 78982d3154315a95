//! Golden snapshot fixtures: four mid-record snapshot blobs — the exact
//! and B9 designs under both decision arithmetics, spread across both
//! footprint policies — committed as cross-version anchors. Every future
//! codec revision must keep restoring these version-1 blobs and resume
//! them bit-identically, so on-disk session state survives upgrades.
//!
//! Each check thaws the committed blob, streams the remainder of the
//! paper workload, and demands the stitched run equal the uninterrupted
//! scalar reference run (`oracle`) — peaks, decisions, and every
//! per-stage counter — and that re-encoding the thawed session
//! reproduces the blob byte for byte (the codec is canonical).
//!
//! If a deliberate codec version bump invalidates the fixtures,
//! regenerate them with `cargo test -p pan-tompkins --test
//! golden_snapshot -- --ignored write_fixtures --nocapture` and commit
//! the rewritten `tests/fixtures/` blobs alongside the version change.

// Integration-test helpers sit outside clippy's cfg(test) exemption;
// panicking on a broken fixture is exactly right here.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::Arc;

use pan_tompkins::oracle::ScalarDetector;
use pan_tompkins::{
    DecisionArith, DetectorEngine, Footprint, PipelineConfig, StreamingQrsDetector,
};

/// The samples already inside the committed snapshots (15 s of the 30 s
/// paper workload).
const CUT: usize = 3000;

/// The fixture workload: the first 6000 samples (30 s) of the synthetic
/// NSRDB paper record — the same record the golden trace pins.
fn workload() -> ecg::EcgRecord {
    ecg::nsrdb::paper_record().truncated(6000)
}

/// The four frozen configurations, each `(label, config)`. The diagonal
/// spread puts both footprints and both arithmetics under both designs.
fn fixture_configs() -> [(&'static str, PipelineConfig); 4] {
    let b9 = PipelineConfig::least_energy([10, 12, 2, 8, 16]);
    [
        ("exact_fixed_retain", PipelineConfig::exact()),
        (
            "exact_float_bounded",
            PipelineConfig::exact()
                .with_decision(DecisionArith::Float)
                .with_footprint(Footprint::Bounded),
        ),
        ("b9_fixed_bounded", b9.with_footprint(Footprint::Bounded)),
        ("b9_float_retain", b9.with_decision(DecisionArith::Float)),
    ]
}

/// The committed blobs, in `fixture_configs` order.
const FIXTURES: [&[u8]; 4] = [
    include_bytes!("fixtures/snapshot_exact_fixed_retain.bin"),
    include_bytes!("fixtures/snapshot_exact_float_bounded.bin"),
    include_bytes!("fixtures/snapshot_b9_fixed_bounded.bin"),
    include_bytes!("fixtures/snapshot_b9_float_retain.bin"),
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

/// Regenerates the fixture blobs (run with `--ignored --nocapture`).
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
