//! The compiled program of an FIR stage.
//!
//! The filter is the netlist the paper synthesizes: one multiplier block per
//! nonzero tap and a chain of adder blocks accumulating the products (the
//! LPF's "10 adders, 11 multipliers"). The constant gain introduced by the
//! integer coefficients is divided back out *exactly* after accumulation
//! (see [`crate::arith::div_round`]), keeping inter-stage signals on the ADC
//! scale.
//!
//! Every nonzero tap is specialised into a [`approx_arith::TapMultiplier`]
//! at compilation, so a kernel pays an exact multiply plus one residual
//! lookup per tap instead of a full word-level multiplier walk —
//! bit-for-bit identical to the generic multiply. A zero tap has no
//! multiplier block in the netlist, so it compiles none.
//!
//! A [`FirProgram`] is immutable and shared behind an [`Arc`] by every
//! lane of every [`crate::lane::LaneBank`] of its configuration (and by
//! the scalar reference, [`crate::oracle`]); the lanes carry only the
//! delay lines and activity counters.

use std::sync::Arc;

use approx_arith::TapMultiplier;

use crate::arith::{div_round, ArithProgram};

/// The shared immutable half of an FIR filter: coefficient taps, gain, the
/// compiled per-tap multipliers, and the stage's arithmetic program.
/// Built once per configuration and shared behind an [`Arc`] by every
/// lane that runs the stage.
#[derive(Debug)]
pub struct FirProgram {
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
    pub fn new(taps: &[i64], gain: i64, arith: approx_arith::StageArith) -> Self {
        Self::with_arith(taps, gain, ArithProgram::new(arith))
    }

    /// [`FirProgram::new`] over an arithmetic program built elsewhere.
    pub(crate) fn with_arith(taps: &[i64], gain: i64, arith: ArithProgram) -> Self {
        assert!(!taps.is_empty(), "FIR filter needs at least one tap");
        assert!(gain > 0, "FIR gain must be positive");
        let arith = Arc::new(arith);
        let tap_mults = taps
            .iter()
            .map(|&c| (c != 0).then(|| arith.compile_tap(c)))
            .collect();
        Self {
            taps: taps.to_vec(),
            gain,
            gain_shift: (gain as u64)
                .is_power_of_two()
                .then(|| gain.trailing_zeros()),
            arith,
            tap_mults,
        }
    }

    /// The coefficient taps.
    #[inline]
    #[must_use]
    pub fn taps(&self) -> &[i64] {
        &self.taps
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
    #[inline]
    pub(crate) fn tap_mults(&self) -> &[Option<TapMultiplier>] {
        &self.tap_mults
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
            Some(shift) => shift_round(acc, shift),
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

/// [`div_round`] by `2^shift` (`shift ≥ 1`), as a shift: round half away
/// from zero.
#[inline(always)]
pub(crate) fn shift_round(acc: i64, shift: u32) -> i64 {
    let half = 1i64 << (shift - 1);
    if acc >= 0 {
        (acc + half) >> shift
    } else {
        -((-acc + half) >> shift)
    }
}

#[cfg(test)]
mod tests {
    //! Programs run on the scalar reference filter ([`crate::oracle::FirFilter`]).

    use super::*;
    use crate::arith::sum_overflows;
    use crate::oracle::FirFilter;
    use approx_arith::StageArith;

    fn program(taps: &[i64], gain: i64, arith: StageArith) -> Arc<FirProgram> {
        Arc::new(FirProgram::new(taps, gain, arith))
    }

    fn exact(taps: &[i64], gain: i64) -> FirFilter {
        FirFilter::from_program(program(taps, gain, StageArith::exact()))
    }

    /// Multiplier blocks compiled: one per nonzero tap.
    fn compiled_taps(program: &FirProgram) -> usize {
        program.tap_mults().iter().flatten().count()
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
        let taps = [2, 1, 0, -1, -2];
        assert_eq!(compiled_taps(&program(&taps, 8, StageArith::exact())), 4);
        let mut fir = exact(&taps, 8);
        let _ = fir.process(5);
        assert_eq!(fir.counters().ops.muls(), 4);
        assert_eq!(fir.counters().ops.adds(), 3);
    }

    #[test]
    fn operator_counts_match_paper_stage_arithmetic() {
        // LPF taps -> 11 multipliers, 10 adders.
        let taps = [1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1];
        assert_eq!(compiled_taps(&program(&taps, 36, StageArith::exact())), 11);
        let mut lpf = exact(&taps, 36);
        let _ = lpf.process(5);
        assert_eq!(lpf.counters().ops.muls(), 11);
        assert_eq!(lpf.counters().ops.adds(), 10);
    }

    #[test]
    fn activity_counter_counts_blocks_per_sample() {
        let mut fir = exact(&[1, 2, 3], 1);
        let _ = fir.process(5);
        assert_eq!(fir.counters().ops.muls(), 3);
        assert_eq!(fir.counters().ops.adds(), 2);
    }

    #[test]
    fn negative_taps_subtract() {
        let mut fir = exact(&[1, -1], 1);
        let out = fir.process_signal(&[5, 3, 8]);
        // y[n] = x[n] - x[n-1]
        assert_eq!(out, vec![5, -2, 5]);
    }

    #[test]
    fn group_delay_of_symmetric_filter() {
        let fir = program(&[1, 2, 3, 2, 1], 9, StageArith::exact());
        assert_eq!(fir.group_delay(), 2);
    }

    #[test]
    fn group_delay_of_antisymmetric_filter() {
        // The derivative's taps.
        let fir = program(&[2, 1, 0, -1, -2], 1, StageArith::exact());
        assert_eq!(fir.group_delay(), 2);
    }

    #[test]
    fn group_delay_of_asymmetric_hpf_is_dominant_tap() {
        // The expanded HPF: −1 everywhere, +31 at delay 16. The old
        // `(taps−1)/2` formula said 15; the actual delay (the all-pass
        // term x[n−16]) is 16.
        let mut taps = [-1i64; 32];
        taps[16] = 31;
        let fir = program(&taps, 32, StageArith::exact());
        assert_eq!(fir.group_delay(), 16);
    }

    /// The compiled taps against the generic multiply: the same tap walk
    /// with the generic compiled product of the clamped operands per
    /// nonzero tap and the stage adder chaining the products must give
    /// every output and every counter.
    #[test]
    fn per_tap_tables_match_generic_engines_exactly() {
        use approx_arith::{FullAdderKind, Mult2x2Kind};
        let taps = [1i64, -6, 31, 0, 2];
        for stage in [
            StageArith::exact(),
            StageArith::least_energy(8),
            StageArith::new(14, Mult2x2Kind::V2, FullAdderKind::Ama2),
        ] {
            let program = program(&taps, 1, stage);
            let mut tapped = FirFilter::from_program(Arc::clone(&program));
            let arith = program.arith();
            let limit = 1i64 << (arith.mul_width() - 1);
            let (mut muls, mut adds, mut saturations, mut overflows) = (0u64, 0u64, 0u64, 0u64);
            let mut newest_first = vec![0i64; taps.len()];
            let mut x = -20_000i64;
            for step in 0..600 {
                x = (x.wrapping_mul(31) ^ step).rem_euclid(70_000) - 35_000;
                newest_first.rotate_right(1);
                newest_first[0] = x;
                let mut acc = None;
                for (&c, &sample) in taps.iter().zip(&newest_first) {
                    if c != 0 {
                        let (cs, cc) =
                            (sample.clamp(-limit, limit - 1), c.clamp(-limit, limit - 1));
                        saturations += u64::from(cs != sample) + u64::from(cc != c);
                        muls += 1;
                        let p = arith.multiplier().mul_signed_clamped(cs, cc);
                        acc = Some(acc.map_or(p, |sum| {
                            adds += 1;
                            overflows += u64::from(sum_overflows(sum, p, arith.adder_width()));
                            arith.adder().add(sum, p)
                        }));
                    }
                }
                assert_eq!(tapped.process(x), acc.unwrap_or(0), "step {step}");
            }
            let counters = tapped.counters();
            assert_eq!((counters.ops.muls(), counters.ops.adds()), (muls, adds));
            assert_eq!(counters.mul_saturations, saturations);
            assert_eq!(counters.add_overflows, overflows);
        }
    }

    #[test]
    fn shared_program_instances_are_independent_and_identical() {
        let shared = program(&[1, 2, 1], 4, StageArith::least_energy(6));
        let mut a = FirFilter::from_program(Arc::clone(&shared));
        let mut b = FirFilter::from_program(Arc::clone(&shared));
        let mut fresh =
            FirFilter::from_program(program(&[1, 2, 1], 4, StageArith::least_energy(6)));
        let input = [5i64, -9, 300, 40_000, 12];
        let ya = a.process_signal(&input);
        assert_eq!(ya, fresh.process_signal(&input));
        assert_eq!(a.counters().ops, fresh.counters().ops);
        // The sibling instance saw none of it.
        assert_eq!(b.counters().ops.muls(), 0);
        assert_eq!(b.process_signal(&input), ya);
    }

    #[test]
    fn memory_accounting_separates_owned_from_shared() {
        let approx = program(&[1, -6, 6, 31], 1, StageArith::least_energy(8));
        // Program-owned: taps + tap handles, billed once per configuration.
        assert!(approx.program_bytes() < 1024, "{}", approx.program_bytes());
        // Shared: |±6| dedupes to one residual, so 3 distinct magnitudes,
        // each of 2^k entries at k = 8 — and a second pass over the same
        // identities bills nothing again.
        let mut seen = Vec::new();
        assert_eq!(approx.collect_shared_tables(&mut seen), 3 * (1 << 8) * 4);
        assert_eq!(seen.len(), 3);
        assert_eq!(approx.collect_shared_tables(&mut seen), 0);
        let exact = program(&[1, -6, 6, 31], 1, StageArith::exact());
        assert_eq!(
            exact.collect_shared_tables(&mut Vec::new()),
            0,
            "exact taps need no tables"
        );
    }

    /// The derivative's zero tap has no multiplier block, so it compiles
    /// no residual: only |1| and |2| are billed.
    #[test]
    fn zero_taps_compile_no_table() {
        use crate::stages::derivative::{GAIN, TAPS};
        for k in [2u32, 9, 16] {
            let program = program(&TAPS, GAIN, StageArith::least_energy(k));
            let zeros: Vec<usize> = (0..TAPS.len()).filter(|&t| TAPS[t] == 0).collect();
            assert_eq!(zeros, [2]);
            assert!(program.tap_mults()[2].is_none());
            let entries = (1usize << k).min((1 << 15) + 1);
            assert_eq!(
                program.collect_shared_tables(&mut Vec::new()),
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
        let sum: Vec<i64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let ya = exact(&taps, 1).process_signal(&a);
        let yb = exact(&taps, 1).process_signal(&b);
        let yab = exact(&taps, 1).process_signal(&sum);
        for i in 0..a.len() {
            assert_eq!(yab[i], ya[i] + yb[i], "superposition failed at {i}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one tap")]
    fn empty_taps_rejected() {
        let _ = FirProgram::new(&[], 1, StageArith::exact());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_gain_rejected() {
        let _ = FirProgram::new(&[1], 0, StageArith::exact());
    }
}
