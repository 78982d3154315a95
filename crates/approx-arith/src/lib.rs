//! Behavioral models of the elementary approximate arithmetic modules used by
//! *XBioSiP: A Methodology for Approximate Bio-Signal Processing at the Edge*
//! (Prabakaran, Rehman, Shafique — DAC 2019).
//!
//! The crate provides bit-exact behavioral models of:
//!
//! * the accurate mirror full adder and the five approximate mirror adders
//!   (AMA1..AMA5) of Gupta et al. (IMPACT, ISLPED'11 / TCAD'13) —
//!   [`FullAdderKind`],
//! * the accurate 2×2 multiplier and the approximate 2×2 modules of
//!   Kulkarni et al. (VLSID'11) and Rehman et al. (ICCAD'16) —
//!   [`Mult2x2Kind`],
//! * larger bit-width blocks composed exactly the way the paper's RTL
//!   composes them: ripple-carry adders whose `k` least-significant cells are
//!   approximate ([`RippleCarryAdder`], paper Fig 6) and recursively
//!   partitioned multipliers (16×16 → 8×8 → 4×4 → 2×2, paper Fig 7) whose
//!   modules in the `k`-LSB output region are approximate
//!   ([`RecursiveMultiplier`]).
//!
//! All models operate on two's-complement words ([`Word`]) and can count the
//! elementary module evaluations they perform ([`OpCounter`]) so that a
//! hardware cost model can convert activity into energy.
//!
//! # Example
//!
//! ```
//! use approx_arith::{FullAdderKind, Mult2x2Kind, RippleCarryAdder, RecursiveMultiplier};
//!
//! // A 32-bit adder with its 8 least-significant cells replaced by the
//! // zero-cost ApproxAdd5 (Sum = B, Cout = A).
//! let adder = RippleCarryAdder::new(32, 8, FullAdderKind::Ama5);
//! let approx = adder.add(1000, 2000);
//! let exact = 1000 + 2000;
//! assert!((approx - exact).abs() < 1 << 9);
//!
//! // A 16×16 multiplier with the 8-LSB output region approximated.
//! let mul = RecursiveMultiplier::new(16, 8, Mult2x2Kind::V1, FullAdderKind::Ama5);
//! let approx = mul.mul(1234, 567);
//! assert!((approx - 1234 * 567).abs() < 1 << 9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adder;
pub mod compiled;
pub mod config;
pub mod counters;
pub mod error_stats;
pub mod faults;
pub mod full_adder;
pub mod loa;
pub mod mult2x2;
pub mod multiplier;
pub mod tap;
pub mod vhdl;
pub mod word;

pub use adder::{AdderForm, ClosedForm, RippleCarryAdder};
pub use compiled::CompiledMultiplier;
pub use config::{ArithConfig, StageArith};
pub use counters::OpCounter;
pub use error_stats::ErrorStats;
pub use faults::{FaultyAdder, StuckAtFault};
pub use full_adder::{FullAdder, FullAdderKind};
pub use loa::LowerOrAdder;
pub use mult2x2::Mult2x2Kind;
pub use multiplier::RecursiveMultiplier;
pub use tap::{SquareMultiplier, SquareTable, TapMultiplier, TapTable};
pub use word::Word;
