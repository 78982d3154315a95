//! The Pan-Tompkins QRS peak-detection algorithm (Pan & Tompkins, IEEE TBME
//! 1985) with pluggable exact/approximate arithmetic — the target
//! application of XBioSiP's case study.
//!
//! The pipeline has the paper's five stages (Fig 3), implemented as integer
//! FIR netlists whose adder/multiplier *blocks* are instantiated from
//! [`approx_arith`]:
//!
//! 1. **Low-pass filter** — 11 taps, 11 multipliers + 10 adders, cuts above
//!    ~11 Hz;
//! 2. **High-pass filter** — 32 taps, 32 multipliers + 31 adders, cuts below
//!    5 Hz;
//! 3. **Derivative** — 5 taps, QRS slope information;
//! 4. **Squarer** — one 16×16 multiplier, nonlinear amplification;
//! 5. **Moving-window integrator** — 30-sample window, adders only.
//!
//! Detection runs adaptive thresholding on the integrated signal with the
//! classic SPK/NPK update, refractory blanking, T-wave rejection and
//! search-back, plus the HPF↔MWI peak-alignment cross-check whose failure
//! mode the paper dissects in Fig 13.
//!
//! Each concept has one production implementation: stages multiply through
//! the compiled word-level engine, and decisions run the integer
//! [`decision::FixedDecision`] kernel. The references they are proven
//! against — the bit-level netlist walk in `approx_arith`, the scalar stage
//! loop and the `f64` decision transcription in [`oracle`] — are test
//! oracles only.
//!
//! # Example
//!
//! ```
//! use pan_tompkins::{PipelineConfig, QrsDetector};
//!
//! // A clean synthetic pulse train stands in for an ECG here; see the
//! // `ecg` crate for realistic records.
//! let mut signal = vec![0i32; 2000];
//! for beat in 0..10 {
//!     let at = 150 + beat * 170;
//!     signal[at - 1] = 120;
//!     signal[at] = 240;     // R peak
//!     signal[at + 1] = 120;
//! }
//! let mut detector = QrsDetector::new(PipelineConfig::exact());
//! let result = detector.detect(&signal);
//! assert!(result.r_peaks().len() >= 9);
//! ```

// `deny`, not `forbid`: the lane bank's runtime SIMD dispatch needs two
// audited `#[target_feature]` calls (see `lane::SimdLevel`); everything
// else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod arith;
pub mod config;
pub mod decision;
pub mod detector;
pub mod engine;
pub mod fir;
pub mod lane;
#[doc(hidden)]
pub mod oracle;
pub mod snapshot;
pub mod stages;
pub mod streaming;
pub mod threshold;

pub use arith::ArithBackend;
pub use config::{Footprint, PipelineConfig, StageKind};
pub use detector::{DetectionResult, QrsDetector};
pub use engine::DetectorEngine;
pub use fir::FirFilter;
pub use lane::{block_scratch_bytes, simd_level_name, LaneBank};
pub use snapshot::SnapshotError;
pub use streaming::{StreamEvent, StreamingQrsDetector};
pub use threshold::{OnlineClassifier, ThresholdConfig};
