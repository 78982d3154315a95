//! Approximation configurations: which elementary modules, and how many
//! LSBs, a composed datapath approximates.
//!
//! [`StageArith`] is the per-stage "approximation parameter" triple of the
//! paper's design methodology — `(LSB, Mult, Add)` in Algorithm 1 — and
//! [`ArithConfig`] instantiates the actual arithmetic blocks from it.

use std::fmt;

use crate::adder::RippleCarryAdder;
use crate::full_adder::FullAdderKind;
use crate::mult2x2::Mult2x2Kind;
use crate::multiplier::RecursiveMultiplier;

/// Data-path bus widths used throughout the paper's case study: a 16-bit ADC
/// feeding 32-bit adders and 16×16 multipliers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BusWidths {
    /// Adder width in bits.
    pub adder: u32,
    /// Multiplier operand width in bits.
    pub multiplier: u32,
}

impl Default for BusWidths {
    fn default() -> Self {
        // "RTL models ... of the different approximate adders (32-bit) and
        // multipliers (16×16)" — paper §5.
        Self {
            adder: 32,
            multiplier: 16,
        }
    }
}

/// The approximation parameters of one application stage: the number of
/// approximated LSBs plus the elementary adder and multiplier kinds
/// (Algorithm 1's `{LSB, Mult, Add}` triple).
///
/// # Example
///
/// ```
/// use approx_arith::{FullAdderKind, Mult2x2Kind, StageArith};
///
/// let exact = StageArith::exact();
/// assert!(exact.is_exact());
///
/// let aggressive = StageArith::new(8, Mult2x2Kind::V1, FullAdderKind::Ama5);
/// assert_eq!(aggressive.approx_lsbs, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct StageArith {
    /// Number of approximated output LSBs.
    pub approx_lsbs: u32,
    /// Elementary multiplier module for the approximate region.
    pub mult_kind: Mult2x2Kind,
    /// Elementary full-adder cell for the approximate region.
    pub adder_kind: FullAdderKind,
}

impl StageArith {
    /// Creates an approximation parameter triple.
    #[must_use]
    pub fn new(approx_lsbs: u32, mult_kind: Mult2x2Kind, adder_kind: FullAdderKind) -> Self {
        Self {
            approx_lsbs,
            mult_kind,
            adder_kind,
        }
    }

    /// The exact configuration (zero approximated LSBs).
    #[must_use]
    pub fn exact() -> Self {
        Self::default()
    }

    /// The configuration the paper's main experiments use: the given number
    /// of LSBs with the least-energy modules `ApproxAdd5` / `AppMultV1`
    /// (paper §6.1: "we restrict the design space of adders and multipliers
    /// to ApproxAdd5 and AppMultV1").
    #[must_use]
    pub fn least_energy(approx_lsbs: u32) -> Self {
        Self::new(approx_lsbs, Mult2x2Kind::V1, FullAdderKind::Ama5)
    }

    /// Whether this configuration computes exactly.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.approx_lsbs == 0 || (self.mult_kind.is_accurate() && self.adder_kind.is_accurate())
    }
}

impl fmt::Display for StageArith {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{LSB={}, {}, {}}}",
            self.approx_lsbs, self.mult_kind, self.adder_kind
        )
    }
}

/// A concrete arithmetic backend: the adder and multiplier blocks a stage
/// instantiates from a [`StageArith`] triple and the datapath [`BusWidths`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArithConfig {
    widths: BusWidths,
    stage: StageArith,
}

impl ArithConfig {
    /// Builds the backend for a stage's parameters on the default
    /// (paper) bus widths.
    #[must_use]
    pub fn new(stage: StageArith) -> Self {
        Self::with_widths(stage, BusWidths::default())
    }

    /// Builds the backend with explicit bus widths.
    ///
    /// The adder's approximate region is clamped to the adder width, and the
    /// multiplier's to its output width, so a single `approx_lsbs` knob can
    /// drive both blocks (the paper sweeps one `k` per stage).
    #[must_use]
    pub fn with_widths(stage: StageArith, widths: BusWidths) -> Self {
        Self { widths, stage }
    }

    /// The fully exact backend.
    #[must_use]
    pub fn exact() -> Self {
        Self::new(StageArith::exact())
    }

    /// The stage parameter triple.
    #[must_use]
    pub fn stage(&self) -> StageArith {
        self.stage
    }

    /// The bus widths.
    #[must_use]
    pub fn widths(&self) -> BusWidths {
        self.widths
    }

    /// Instantiates the stage adder.
    #[must_use]
    pub fn adder(&self) -> RippleCarryAdder {
        let k = self.stage.approx_lsbs.min(self.widths.adder);
        RippleCarryAdder::new(self.widths.adder, k, self.stage.adder_kind)
    }

    /// Instantiates the stage multiplier.
    #[must_use]
    pub fn multiplier(&self) -> RecursiveMultiplier {
        let k = self.stage.approx_lsbs.min(2 * self.widths.multiplier);
        RecursiveMultiplier::new(
            self.widths.multiplier,
            k,
            self.stage.mult_kind,
            self.stage.adder_kind,
        )
    }
}

impl Default for ArithConfig {
    fn default() -> Self {
        Self::exact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_widths_match_paper() {
        let w = BusWidths::default();
        assert_eq!(w.adder, 32);
        assert_eq!(w.multiplier, 16);
    }

    #[test]
    fn exact_config_produces_exact_blocks() {
        let cfg = ArithConfig::exact();
        assert!(cfg.adder().is_exact());
        assert!(cfg.multiplier().is_exact());
        assert_eq!(cfg.adder().add(100, 23), 123);
        assert_eq!(cfg.multiplier().mul(12, -12), -144);
    }

    #[test]
    fn least_energy_uses_ama5_and_v1() {
        let s = StageArith::least_energy(8);
        assert_eq!(s.adder_kind, FullAdderKind::Ama5);
        assert_eq!(s.mult_kind, Mult2x2Kind::V1);
        assert_eq!(s.approx_lsbs, 8);
        assert!(!s.is_exact());
    }

    #[test]
    fn approx_region_clamps_to_block_widths() {
        let cfg = ArithConfig::new(StageArith::least_energy(40));
        assert_eq!(cfg.adder().approx_lsbs(), 32);
        assert_eq!(cfg.multiplier().approx_lsbs(), 32);
    }

    #[test]
    fn stage_display_lists_all_three_parameters() {
        let s = StageArith::least_energy(6);
        let text = s.to_string();
        assert!(text.contains("LSB=6"));
        assert!(text.contains("AppMultV1"));
        assert!(text.contains("ApproxAdd5"));
    }

    #[test]
    fn exact_constructor_matches_default() {
        assert_eq!(StageArith::exact(), StageArith::default());
        assert_eq!(ArithConfig::default(), ArithConfig::exact());
    }
}
