//! Streaming FIR filter over an [`ArithBackend`].
//!
//! The filter is the netlist the paper synthesizes: one multiplier block per
//! nonzero tap and a chain of adder blocks accumulating the products (the
//! LPF's "10 adders, 11 multipliers"). The constant gain introduced by the
//! integer coefficients is divided back out *exactly* after accumulation
//! (see [`crate::arith::div_round`]), keeping inter-stage signals on the ADC
//! scale.
//!
//! Every nonzero tap is specialised into a [`approx_arith::TapMultiplier`]
//! at construction, so the hot loop pays an exact multiply plus one
//! residual lookup per tap instead of a full word-level multiplier walk —
//! bit-for-bit identical to the generic multiply, counters included (see
//! [`crate::arith::ArithBackend::mul_tap`]). A zero tap has no multiplier
//! block in the netlist, so it compiles none.
//!
//! The immutable half of a filter — taps, gain, compiled taps, and
//! the arithmetic program — lives in [`FirProgram`] behind an [`Arc`], so
//! many filter instances (detector sessions, lanes of a
//! [`crate::lane::LaneBank`]) share one compiled program; the per-instance
//! [`FirFilter`] carries only the delay line and activity counters.

use std::sync::Arc;

use approx_arith::TapMultiplier;

use crate::arith::{div_round, ArithBackend, ArithProgram};

/// The shared immutable half of an FIR filter: coefficient taps, gain, the
/// compiled per-tap multipliers, and the stage's arithmetic program.
/// Built once per configuration and shared behind an [`Arc`] by every
/// filter instance (scalar detectors and lane banks alike).
#[derive(Debug)]
pub struct FirProgram {
    name: &'static str,
    taps: Vec<i64>,
    gain: i64,
    /// `log2(gain)` when the gain is a power of two — the rescaling
    /// division then strength-reduces to a shift in the hot loop.
    gain_shift: Option<u32>,
    arith: Arc<ArithProgram>,
    /// Per-tap compiled multipliers, aligned with `taps`; zero taps hold
    /// `None` (no multiplier block, no residual) and every walk skips them.
    tap_mults: Vec<Option<TapMultiplier>>,
}

impl FirProgram {
    /// Compiles a program from integer `taps` (c₀ applies to the newest
    /// sample), a positive `gain` divided out of every output, and the
    /// stage's approximation parameters.
    ///
    /// # Panics
    ///
    /// Panics if `taps` is empty or `gain` is not positive.
    #[must_use]
    pub fn new(
        name: &'static str,
        taps: &[i64],
        gain: i64,
        arith: approx_arith::StageArith,
    ) -> Self {
        assert!(!taps.is_empty(), "FIR filter needs at least one tap");
        assert!(gain > 0, "FIR gain must be positive");
        let arith = Arc::new(ArithProgram::new(arith));
        let tap_mults = taps
            .iter()
            .map(|&c| (c != 0).then(|| arith.compile_tap(c)))
            .collect();
        Self {
            name,
            taps: taps.to_vec(),
            gain,
            gain_shift: (gain as u64)
                .is_power_of_two()
                .then(|| gain.trailing_zeros()),
            arith,
            tap_mults,
        }
    }

    /// Filter name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The coefficient taps.
    #[must_use]
    pub fn taps(&self) -> &[i64] {
        &self.taps
    }

    /// Gain divided out of each output.
    #[must_use]
    pub fn gain(&self) -> i64 {
        self.gain
    }

    /// The gain as a power-of-two shift, when it is one (`Some(0)` for
    /// unit gain) — lets callers hoist the [`FirProgram::rescale`] mode
    /// check out of per-lane loops.
    pub(crate) fn gain_shift(&self) -> Option<u32> {
        self.gain_shift
    }

    /// The shared arithmetic program.
    #[must_use]
    pub fn arith(&self) -> &Arc<ArithProgram> {
        &self.arith
    }

    /// The compiled per-tap multipliers, aligned with the taps (`None` for
    /// zero taps).
    pub(crate) fn tap_mults(&self) -> &[Option<TapMultiplier>] {
        &self.tap_mults
    }

    /// Number of multiplier blocks (nonzero taps).
    #[must_use]
    pub fn multipliers(&self) -> u32 {
        // WIDTH: tap counts are bounded by the filter order (tens), far
        // below u32::MAX.
        self.taps.iter().filter(|t| **t != 0).count() as u32
    }

    /// Number of adder blocks (multipliers − 1).
    #[must_use]
    pub fn adders(&self) -> u32 {
        self.multipliers().saturating_sub(1)
    }

    /// Group delay in samples.
    ///
    /// Linear-phase (symmetric or antisymmetric) taps delay by
    /// `(taps − 1) / 2` — the LPF's 5 and the derivative's 2. The expanded
    /// HPF is *neither* (its `+31` spike sits at delay 16 of 32 taps, so
    /// `(32 − 1) / 2 = 15` would be off by one); for such filters the
    /// dominant-tap position is the delay, which is what the streaming
    /// detector's emission-latency accounting relies on.
    #[must_use]
    pub fn group_delay(&self) -> usize {
        let n = self.taps.len();
        let symmetric = (0..n).all(|i| self.taps[i] == self.taps[n - 1 - i]);
        let antisymmetric = (0..n).all(|i| self.taps[i] == -self.taps[n - 1 - i]);
        if symmetric || antisymmetric {
            (n - 1) / 2
        } else {
            self.taps
                .iter()
                .enumerate()
                .max_by_key(|(_, t)| t.abs())
                .map(|(i, _)| i)
                .unwrap_or(0)
        }
    }

    /// Rescales an accumulated sum by the constant gain — exact, with
    /// power-of-two gains (the HPF's 32) taking the shift form of
    /// round-half-away-from-zero.
    #[inline]
    #[must_use]
    pub(crate) fn rescale(&self, acc: i64) -> i64 {
        match self.gain_shift {
            Some(0) => acc,
            Some(shift) => {
                let half = 1i64 << (shift - 1);
                if acc >= 0 {
                    (acc + half) >> shift
                } else {
                    -((-acc + half) >> shift)
                }
            }
            None => div_round(acc, self.gain),
        }
    }

    /// Heap bytes owned by this shared program: taps and the per-tap
    /// residual *handles*. Billed once per configuration, not per detector
    /// instance.
    #[must_use]
    pub fn program_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.taps.capacity() * std::mem::size_of::<i64>()
            + std::mem::size_of::<ArithProgram>()
            + self.tap_mults.capacity() * std::mem::size_of::<Option<TapMultiplier>>()
    }

    /// Accumulates this program's shared-table identities into `seen` and
    /// returns the bytes of the tables *not already seen* — lets callers
    /// sum across several filters without double counting a table two
    /// stages share (e.g. the |1| table when LPF and HPF run at the same
    /// LSB depth).
    pub(crate) fn collect_shared_tables(&self, seen: &mut Vec<usize>) -> usize {
        let mut bytes = 0usize;
        for tap in self.tap_mults.iter().flatten() {
            if let Some(id) = tap.table_id() {
                if !seen.contains(&id) {
                    seen.push(id);
                    bytes += tap.shared_table_bytes();
                }
            }
        }
        bytes
    }
}

/// A streaming integer FIR filter with explicit operator counts.
///
/// # Example
///
/// ```
/// use approx_arith::StageArith;
/// use pan_tompkins::FirFilter;
///
/// // A 3-tap moving-average filter with gain 3.
/// let mut fir = FirFilter::new("avg", &[1, 1, 1], 3, StageArith::exact());
/// assert_eq!(fir.multipliers(), 3);
/// assert_eq!(fir.adders(), 2);
/// let out: Vec<i64> = [3, 3, 3, 9].iter().map(|x| fir.process(*x)).collect();
/// assert_eq!(out, vec![1, 2, 3, 5]);
/// ```
#[derive(Debug, Clone)]
pub struct FirFilter {
    program: Arc<FirProgram>,
    backend: ArithBackend,
    delay_line: Vec<i64>,
    cursor: usize,
}

impl FirFilter {
    /// Creates a filter with integer `taps` (c₀ applies to the newest
    /// sample), a positive `gain` divided out of every output, and the
    /// stage's approximation parameters.
    ///
    /// # Panics
    ///
    /// Panics if `taps` is empty or `gain` is not positive.
    #[must_use]
    pub fn new(
        name: &'static str,
        taps: &[i64],
        gain: i64,
        arith: approx_arith::StageArith,
    ) -> Self {
        Self::from_program(Arc::new(FirProgram::new(name, taps, gain, arith)))
    }

    /// Creates a filter instance over an existing shared program: fresh
    /// delay line and counters, no tap recompilation.
    #[must_use]
    pub fn from_program(program: Arc<FirProgram>) -> Self {
        let backend = ArithBackend::from_program(Arc::clone(program.arith()));
        let delay_line = vec![0; program.taps().len()];
        Self {
            program,
            backend,
            delay_line,
            cursor: 0,
        }
    }

    /// The shared program this filter instance runs.
    #[must_use]
    pub fn program(&self) -> &Arc<FirProgram> {
        &self.program
    }

    /// Filter name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.program.name()
    }

    /// The coefficient taps.
    #[must_use]
    pub fn taps(&self) -> &[i64] {
        self.program.taps()
    }

    /// Gain divided out of each output.
    #[must_use]
    pub fn gain(&self) -> i64 {
        self.program.gain()
    }

    /// Number of multiplier blocks (nonzero taps).
    #[must_use]
    pub fn multipliers(&self) -> u32 {
        self.program.multipliers()
    }

    /// Number of adder blocks (multipliers − 1).
    #[must_use]
    pub fn adders(&self) -> u32 {
        self.program.adders()
    }

    /// Group delay in samples (see [`FirProgram::group_delay`]).
    #[must_use]
    pub fn group_delay(&self) -> usize {
        self.program.group_delay()
    }

    /// The arithmetic backend (for counters).
    #[must_use]
    pub fn backend(&self) -> &ArithBackend {
        &self.backend
    }

    /// Feeds one input sample and returns the filter output at this step.
    pub fn process(&mut self, x: i64) -> i64 {
        // Circular delay line: cursor points at the slot of the newest
        // sample.
        let len = self.delay_line.len();
        self.cursor = if self.cursor == 0 {
            len - 1
        } else {
            self.cursor - 1
        };
        self.delay_line[self.cursor] = x;

        // Walk the delay line with a wrapping index (a conditional reset is
        // markedly cheaper than a modulo per tap in this hot loop).
        let mut idx = self.cursor;
        let mut acc: Option<i64> = None;
        for tap in self.program.tap_mults() {
            let sample = self.delay_line[idx];
            idx += 1;
            if idx == len {
                idx = 0;
            }
            // Zero taps have no multiplier.
            let Some(tap) = tap else {
                continue;
            };
            let product = self.backend.mul_tap(sample, tap);
            acc = Some(match acc {
                None => product,
                Some(sum) => self.backend.add(sum, product),
            });
        }
        self.program.rescale(acc.unwrap_or(0))
    }

    /// Filters a whole signal, returning one output per input.
    pub fn process_signal(&mut self, signal: &[i64]) -> Vec<i64> {
        signal.iter().map(|x| self.process(*x)).collect()
    }

    /// Resets the delay line (keeps configuration and counters).
    pub fn reset(&mut self) {
        self.delay_line.fill(0);
        self.cursor = 0;
    }

    /// Resets the backend activity counters (ops, saturations, overflows),
    /// keeping configuration and signal state. Together with
    /// [`FirFilter::reset`] this returns the filter to its
    /// freshly-constructed observable state without recompiling the taps —
    /// the record-batched evaluation path relies on that.
    pub fn reset_counters(&mut self) {
        self.backend.reset_counters();
    }

    /// Heap bytes owned by this filter *instance*: the delay line. The
    /// taps, residual handles, and arithmetic program live in the shared
    /// [`FirProgram`] (billed once per configuration, see
    /// [`FirProgram::program_bytes`]), and the residual tables
    /// themselves are process-wide shared (see
    /// [`FirFilter::shared_table_bytes`]) — both are deliberately excluded:
    /// they are O(distinct configurations), not O(detectors).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.delay_line.capacity() * std::mem::size_of::<i64>()
    }

    /// Bytes of the distinct shared residuals this filter references (each
    /// counted once even when several taps share it). Shared
    /// process-wide across all detectors using the same configuration.
    #[must_use]
    pub fn shared_table_bytes(&self) -> usize {
        let mut seen = Vec::new();
        self.collect_shared_tables(&mut seen)
    }

    /// See [`FirProgram::collect_shared_tables`].
    pub(crate) fn collect_shared_tables(&self, seen: &mut Vec<usize>) -> usize {
        self.program.collect_shared_tables(seen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approx_arith::StageArith;

    fn exact(taps: &[i64], gain: i64) -> FirFilter {
        FirFilter::new("t", taps, gain, StageArith::exact())
    }

    #[test]
    fn impulse_response_reproduces_taps() {
        let taps = [1i64, 2, 3, 4, 5];
        let mut fir = exact(&taps, 1);
        let mut input = vec![0i64; 8];
        input[0] = 1;
        let out = fir.process_signal(&input);
        assert_eq!(&out[..5], &taps);
        assert_eq!(&out[5..], &[0, 0, 0]);
    }

    #[test]
    fn step_response_accumulates_taps() {
        let mut fir = exact(&[1, 1, 1, 1], 1);
        let out = fir.process_signal(&[1; 6]);
        assert_eq!(out, vec![1, 2, 3, 4, 4, 4]);
    }

    #[test]
    fn gain_divides_output() {
        let mut fir = exact(&[2, 2], 4);
        let out = fir.process_signal(&[2, 2, 2]);
        assert_eq!(out, vec![1, 2, 2]);
    }

    #[test]
    fn zero_taps_use_no_multipliers() {
        let fir = exact(&[2, 1, 0, -1, -2], 8);
        assert_eq!(fir.multipliers(), 4);
        assert_eq!(fir.adders(), 3);
    }

    #[test]
    fn operator_counts_match_paper_stage_arithmetic() {
        // LPF taps -> 11 multipliers, 10 adders.
        let lpf = exact(&[1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1], 36);
        assert_eq!(lpf.multipliers(), 11);
        assert_eq!(lpf.adders(), 10);
    }

    #[test]
    fn activity_counter_counts_blocks_per_sample() {
        let mut fir = exact(&[1, 2, 3], 1);
        let _ = fir.process(5);
        assert_eq!(fir.backend().ops().muls(), 3);
        assert_eq!(fir.backend().ops().adds(), 2);
    }

    #[test]
    fn negative_taps_subtract() {
        let mut fir = exact(&[1, -1], 1);
        let out = fir.process_signal(&[5, 3, 8]);
        // y[n] = x[n] - x[n-1]
        assert_eq!(out, vec![5, -2, 5]);
    }

    #[test]
    fn reset_clears_state_only() {
        let mut fir = exact(&[1, 1], 1);
        let _ = fir.process(9);
        fir.reset();
        let out = fir.process(1);
        assert_eq!(out, 1, "stale delay-line state after reset");
        assert!(fir.backend().ops().muls() > 0, "counters survive reset");
    }

    #[test]
    fn group_delay_of_symmetric_filter() {
        let fir = exact(&[1, 2, 3, 2, 1], 9);
        assert_eq!(fir.group_delay(), 2);
    }

    #[test]
    fn group_delay_of_antisymmetric_filter() {
        // The derivative's taps.
        let fir = exact(&[2, 1, 0, -1, -2], 1);
        assert_eq!(fir.group_delay(), 2);
    }

    #[test]
    fn group_delay_of_asymmetric_hpf_is_dominant_tap() {
        // The expanded HPF: −1 everywhere, +31 at delay 16. The old
        // `(taps−1)/2` formula said 15; the actual delay (the all-pass
        // term x[n−16]) is 16.
        let mut taps = [-1i64; 32];
        taps[16] = 31;
        let fir = exact(&taps, 32);
        assert_eq!(fir.group_delay(), 16);
    }

    /// The compiled taps against the generic multiply: the same tap walk with
    /// [`ArithBackend::mul`] per nonzero tap and the stage adder chaining
    /// the products must give every output and every counter.
    #[test]
    fn per_tap_tables_match_generic_engines_exactly() {
        use approx_arith::{FullAdderKind, Mult2x2Kind};
        let taps = [1i64, -6, 31, 0, 2];
        for stage in [
            StageArith::exact(),
            StageArith::least_energy(8),
            StageArith::new(14, Mult2x2Kind::V2, FullAdderKind::Ama2),
        ] {
            let mut tapped = FirFilter::new("t", &taps, 1, stage);
            let mut generic = ArithBackend::new(stage);
            let mut newest_first = vec![0i64; taps.len()];
            let mut x = -20_000i64;
            for step in 0..600 {
                x = (x.wrapping_mul(31) ^ step).rem_euclid(70_000) - 35_000;
                newest_first.rotate_right(1);
                newest_first[0] = x;
                let mut acc = None;
                for (&c, &sample) in taps.iter().zip(&newest_first) {
                    if c != 0 {
                        let p = generic.mul(sample, c);
                        acc = Some(acc.map_or(p, |sum| generic.add(sum, p)));
                    }
                }
                assert_eq!(tapped.process(x), acc.unwrap_or(0), "step {step}");
            }
            assert_eq!(tapped.backend().ops(), generic.ops());
            assert_eq!(
                tapped.backend().saturation_events(),
                generic.saturation_events()
            );
            assert_eq!(
                tapped.backend().add_overflow_events(),
                generic.add_overflow_events()
            );
        }
    }

    #[test]
    fn shared_program_instances_are_independent_and_identical() {
        let program = Arc::new(FirProgram::new(
            "t",
            &[1, 2, 1],
            4,
            StageArith::least_energy(6),
        ));
        let mut a = FirFilter::from_program(Arc::clone(&program));
        let mut b = FirFilter::from_program(Arc::clone(&program));
        let mut fresh = FirFilter::new("t", &[1, 2, 1], 4, StageArith::least_energy(6));
        let input = [5i64, -9, 300, 40_000, 12];
        let ya = a.process_signal(&input);
        assert_eq!(ya, fresh.process_signal(&input));
        assert_eq!(a.backend().ops(), fresh.backend().ops());
        // The sibling instance saw none of it.
        assert_eq!(b.backend().ops().muls(), 0);
        assert_eq!(b.process_signal(&input), ya);
    }

    #[test]
    fn reset_counters_restores_fresh_observable_state() {
        let mut fir = FirFilter::new("t", &[1, 2, 1], 4, StageArith::least_energy(6));
        let _ = fir.process_signal(&[40_000, -40_000, 7]);
        assert!(fir.backend().ops().muls() > 0);
        fir.reset();
        fir.reset_counters();
        assert_eq!(fir.backend().ops().muls(), 0);
        assert_eq!(fir.backend().saturation_events(), 0);
        let mut fresh = FirFilter::new("t", &[1, 2, 1], 4, StageArith::least_energy(6));
        let input = [5i64, -9, 300, 0, 12];
        assert_eq!(
            fir.process_signal(&input),
            fresh.process_signal(&input),
            "reset filter must behave like a fresh one"
        );
        assert_eq!(fir.backend().ops(), fresh.backend().ops());
    }

    #[test]
    fn memory_accounting_separates_owned_from_shared() {
        let approx = FirFilter::new("t", &[1, -6, 6, 31], 1, StageArith::least_energy(8));
        // Instance-owned: just the delay line. Program-owned: taps + tap
        // handles, billed once per configuration.
        assert!(approx.heap_bytes() < 1024, "{}", approx.heap_bytes());
        assert!(approx.program().program_bytes() < 1024);
        // Shared: |±6| dedupes to one residual, so 3 distinct magnitudes,
        // each of 2^k entries at k = 8.
        assert_eq!(approx.shared_table_bytes(), 3 * (1 << 8) * 4);
        let exact = FirFilter::new("t", &[1, -6, 6, 31], 1, StageArith::exact());
        assert_eq!(exact.shared_table_bytes(), 0, "exact taps need no tables");
    }

    /// The derivative's zero tap has no multiplier block, so it compiles
    /// no residual: only |1| and |2| are billed.
    #[test]
    fn zero_taps_compile_no_table() {
        use crate::stages::derivative::{Derivative, TAPS};
        for k in [2u32, 9, 16] {
            let program = Arc::new(Derivative::program(StageArith::least_energy(k)));
            let zeros: Vec<usize> = (0..TAPS.len()).filter(|&t| TAPS[t] == 0).collect();
            assert_eq!(zeros, [2]);
            assert!(program.tap_mults()[2].is_none());
            let entries = (1usize << k).min((1 << 15) + 1);
            assert_eq!(
                FirFilter::from_program(program).shared_table_bytes(),
                2 * entries * 4,
                "k={k}"
            );
        }
    }

    #[test]
    fn linearity_of_exact_filter() {
        let taps = [3i64, -1, 2];
        let a = [4i64, -2, 7, 0, 3];
        let b = [1i64, 1, -5, 2, 2];
        let mut fa = exact(&taps, 1);
        let mut fb = exact(&taps, 1);
        let mut fab = exact(&taps, 1);
        let sum: Vec<i64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let ya = fa.process_signal(&a);
        let yb = fb.process_signal(&b);
        let yab = fab.process_signal(&sum);
        for i in 0..a.len() {
            assert_eq!(yab[i], ya[i] + yb[i], "superposition failed at {i}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one tap")]
    fn empty_taps_rejected() {
        let _ = exact(&[], 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_gain_rejected() {
        let _ = exact(&[1], 0);
    }
}
