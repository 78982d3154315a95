//! Workspace facade for the XBioSiP (DAC'19) reproduction.
//!
//! # Continuous integration
//!
//! [![CI](https://github.com/xbiosip/xbiosip-repro/actions/workflows/ci.yml/badge.svg)](https://github.com/xbiosip/xbiosip-repro/actions/workflows/ci.yml)
//!
//! Every push and pull request runs `cargo build --release`, `cargo test -q`,
//! `cargo fmt --all --check`,
//! `cargo clippy --workspace --all-targets -- -D warnings`, and a bench
//! smoke job (`cargo bench --no-run` plus one experiment binary); see
//! `.github/workflows/ci.yml` and `tests/README.md`.
//!
//! Re-exports the public crates so examples and integration tests can use a
//! single dependency:
//!
//! * [`approx_arith`] — elementary and composed approximate arithmetic.
//! * [`hwmodel`] — 65 nm hardware cost model (paper Table 1) and calibrated
//!   per-stage energy curves.
//! * [`quality`] — PSNR / SSIM / peak-matching quality metrics.
//! * [`ecg`] — synthetic ECG generation and PhysioNet format glue.
//! * [`pan_tompkins`] — the five-stage QRS detection pipeline.
//! * [`xbiosip`] — the XBioSiP methodology: resilience analysis, the
//!   three-phase design-generation algorithm, and the paper's evaluated
//!   configurations.
//! * [`service`] — the sharded million-session hub packing live detector
//!   sessions into lane banks behind one client API.
//!
//! For everyday use, `use xbiosip_repro::prelude::*;` pulls in the one
//! obvious import surface: the detector and its engine/state split, the
//! lane bank, the session hub, the config builders, the snapshot types,
//! and the evaluation entry points.
//!
//! See `README.md` for a tour and `EXPERIMENTS.md` for the paper-vs-measured
//! record of every table and figure.

pub use approx_arith;
pub use ecg;
pub use hwmodel;
pub use pan_tompkins;
pub use quality;
pub use service;
pub use xbiosip;

pub mod prelude {
    //! The one obvious import surface for the whole reproduction.
    //!
    //! Everything a deployment-shaped caller needs in a single glob:
    //!
    //! * **Detection** — [`QrsDetector`] / [`DetectionResult`] batch runs,
    //!   [`StreamingQrsDetector`] over its compiled [`DetectorEngine`] (a
    //!   one-lane bank), [`StreamEvent`]s, and the multi-lane [`LaneBank`].
    //! * **Configuration** — [`PipelineConfig`] and its stage/threshold
    //!   builders, [`StageKind`], [`Footprint`].
    //! * **Persistence** — [`SnapshotError`] and the snapshot codec riding on
    //!   the streaming detector.
    //! * **Service** — the sharded [`SessionHub`] and its [`Client`] face:
    //!   [`ServiceConfig`], [`SessionId`], [`SessionEvent`],
    //!   [`SessionOutput`], [`ServiceError`]/[`PushError`], [`HubMetrics`].
    //! * **Evaluation** — [`Evaluator`] with [`EvalOptions`]/[`EvalMode`],
    //!   [`QualityReport`], [`QualityConstraint`].

    pub use pan_tompkins::{
        DetectionResult, DetectorEngine, Footprint, LaneBank, PipelineConfig, QrsDetector,
        SnapshotError, StageKind, StreamEvent, StreamingQrsDetector,
    };
    pub use service::{
        Client, HubMetrics, PushError, ServiceConfig, ServiceError, SessionEvent, SessionHub,
        SessionId, SessionOutput,
    };
    pub use xbiosip::{EvalMode, EvalOptions, Evaluator, QualityConstraint, QualityReport};
}
