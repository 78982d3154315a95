//! **XBioSiP** — the paper's methodology: two-stage quality-evaluated
//! approximation of bio-signal processing pipelines
//! (Prabakaran, Rehman, Shafique — DAC 2019).
//!
//! The crate ties the substrates together into the methodology of the
//! paper's Fig 4:
//!
//! 1. *Design & evaluation of elementary approximate adders/multipliers* —
//!    [`approx_arith`] + [`hwmodel`] (Table 1).
//! 2. *Error-resilience analysis of application stages* — [`resilience`]:
//!    sweep the approximated LSBs per Pan-Tompkins stage and record quality
//!    (SSIM / PSNR / peak-detection accuracy) against hardware savings
//!    (Figs 2, 8).
//! 3. *Approximations in data pre-processing* — gate the LPF+HPF output on
//!    a signal metric (PSNR/SSIM) — [`quality_eval`].
//! 4. *Approximations in signal processing* — gate the final output on peak
//!    detection accuracy, searching the design space with the three-phase
//!    [`generation`] methodology (Algorithm 1), compared against
//!    [`exhaustive`] and heuristic baselines (Table 2, Fig 11).
//!
//! [`configs`] carries the paper's evaluated hardware configurations
//! (A1, A2, B1..B14 of Fig 12). [`parallel`] provides the std-only worker
//! pool that fans grid searches, resilience sweeps and batch scoring out
//! across cores (deterministically — parallel results are bit-identical to
//! the sequential walk).
//!
//! # Example
//!
//! ```no_run
//! use xbiosip::quality_eval::{EvalOptions, Evaluator};
//! use pan_tompkins::PipelineConfig;
//!
//! // Score the paper's B9 design on the synthetic NSRDB record.
//! let record = ecg::nsrdb::paper_record();
//! let evaluator = Evaluator::new(&record);
//! let report = evaluator
//!     .evaluate_with(&PipelineConfig::least_energy([10, 12, 2, 8, 16]), &EvalOptions::batch())
//!     .expect("non-checkpointed evaluation is infallible");
//! println!("accuracy {:.1}%", report.peak_accuracy * 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod configs;
pub mod exhaustive;
pub mod exploration;
pub mod generation;
pub mod parallel;
pub mod pareto;
pub mod quality_eval;
pub mod resilience;

pub use configs::{paper_configs, NamedConfig};
pub use generation::{DesignGenerator, GenerationOutcome, StageSearchSpace};
pub use pareto::{pareto_frontier, ParetoPoint};
pub use quality_eval::{EvalOptions, Evaluator, QualityConstraint, QualityReport};
pub use resilience::{ResiliencePoint, ResilienceProfile};
