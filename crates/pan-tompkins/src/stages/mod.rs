//! The five Pan-Tompkins stages (paper Fig 3), each parameterised by the
//! stage's approximation triple.
//!
//! All stages share the [`Stage`] streaming interface; the transfer
//! functions and operator counts follow the original Pan & Tompkins (1985)
//! integer realisation expanded to FIR form, which is what the paper's VHDL
//! implements and counts (§2, §4.2).

pub mod derivative;
pub mod hpf;
pub mod lpf;
pub mod mwi;
pub mod squarer;

pub use derivative::Derivative;
pub use hpf::HighPassFilter;
pub use lpf::LowPassFilter;
pub use mwi::MovingWindowIntegrator;
pub use squarer::Squarer;

use approx_arith::OpCounter;

/// Streaming interface shared by all five stages.
pub trait Stage {
    /// Stage display name.
    fn name(&self) -> &'static str;

    /// Feeds one sample, returns this step's output.
    fn process(&mut self, x: i64) -> i64;

    /// Group delay in samples contributed by this stage.
    fn group_delay(&self) -> usize;

    /// Number of multiplier blocks in the stage netlist.
    fn multipliers(&self) -> u32;

    /// Number of adder blocks in the stage netlist.
    fn adders(&self) -> u32;

    /// Word-level operations performed so far.
    fn ops(&self) -> OpCounter;

    /// Multiplier operands clamped into the datapath range so far (see
    /// [`crate::ArithBackend::saturation_events`]).
    fn saturations(&self) -> u64;

    /// Additions whose exact sum wrapped the adder bus so far (see
    /// [`crate::ArithBackend::add_overflow_events`]).
    fn add_overflows(&self) -> u64;

    /// Clears signal state (delay lines), keeping configuration.
    fn reset(&mut self);

    /// Resets activity counters (ops, saturations, overflows), keeping
    /// configuration and signal state. `reset()` + `reset_counters()`
    /// returns the stage to its freshly-constructed observable state.
    fn reset_counters(&mut self);

    /// Bytes of live per-instance state (stack size of the stage plus its
    /// owned heap: delay lines, windows, residual handles). Excludes the
    /// process-wide shared residual tables, which are O(configurations) —
    /// see [`crate::FirFilter::shared_table_bytes`].
    fn state_bytes(&self) -> usize;

    /// Bytes of the process-wide shared per-tap residuals this stage
    /// references (0 for stages without compiled taps).
    fn shared_table_bytes(&self) -> usize {
        let mut seen = Vec::new();
        self.collect_shared_tables(&mut seen)
    }

    /// Accumulates this stage's shared-table identities into `seen` and
    /// returns the bytes of the tables not already seen — callers summing
    /// across stages pass one `seen` so a table two stages share is billed
    /// once. Default: no tables.
    fn collect_shared_tables(&self, _seen: &mut Vec<usize>) -> usize {
        0
    }

    /// Processes a whole signal (convenience over [`Stage::process`]).
    fn process_signal(&mut self, signal: &[i64]) -> Vec<i64> {
        signal.iter().map(|x| self.process(*x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approx_arith::StageArith;

    /// Every stage must satisfy the paper's operator-count table.
    #[test]
    fn operator_counts_match_paper() {
        let lpf = LowPassFilter::new(StageArith::exact());
        assert_eq!((lpf.multipliers(), lpf.adders()), (11, 10), "LPF");
        let hpf = HighPassFilter::new(StageArith::exact());
        assert_eq!((hpf.multipliers(), hpf.adders()), (32, 31), "HPF");
        let der = Derivative::new(StageArith::exact());
        assert_eq!((der.multipliers(), der.adders()), (4, 3), "DER");
        let sqr = Squarer::new(StageArith::exact());
        assert_eq!((sqr.multipliers(), sqr.adders()), (1, 0), "SQR");
        let mwi = MovingWindowIntegrator::new(StageArith::exact());
        assert_eq!((mwi.multipliers(), mwi.adders()), (0, 29), "MWI");
    }

    /// Total pipeline group delay stays fixed so detected peaks can be
    /// mapped back to raw-signal positions.
    #[test]
    fn total_group_delay() {
        let total = LowPassFilter::new(StageArith::exact()).group_delay()
            + HighPassFilter::new(StageArith::exact()).group_delay()
            + Derivative::new(StageArith::exact()).group_delay()
            + Squarer::new(StageArith::exact()).group_delay()
            + MovingWindowIntegrator::new(StageArith::exact()).group_delay();
        assert_eq!(total, (5 + 16 + 2) + 14);
    }
}
