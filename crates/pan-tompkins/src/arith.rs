//! The arithmetic a stage computes with: the adder and multiplier blocks
//! instantiated from a stage's approximation triple, compiled once and
//! shared by every session of a configuration.
//!
//! Every word-level operation is counted so experiments can integrate
//! energy as `invocations × per-invocation cost`, and every multiplier
//! operand is range-checked against the 16-bit datapath (saturating, with a
//! per-operand saturation counter) the way the fixed-point RTL would. The
//! 32-bit add path wraps like the hardware bus and records an overflow
//! counter whenever the exact sum would not have fit, so quality reports can
//! tell approximation error from datapath clipping.
//!
//! The stage kernels never run a generic multiply. A FIR tap is an exact
//! product plus a residual lookup ([`approx_arith::TapMultiplier`]), and
//! so is the squarer ([`approx_arith::SquareMultiplier`]): the multiplier
//! is approximate only below output bit `k`, so with one operand pinned
//! the error depends only on the other's low `k` bits (see
//! [`approx_arith::tap`]). The table-compiled word-level engine
//! ([`approx_arith::CompiledMultiplier`]) builds those residuals and serves
//! the generic square of the scalar reference ([`crate::oracle`]); it is
//! compiled on first use, so the adder-only MWI never builds one, and
//! neither does a stage whose residuals are all cached. The structural
//! bit-level recursion ([`approx_arith::RecursiveMultiplier`]) it is
//! compiled from stays in `approx_arith` as its reference: the `compiled`
//! property tests, the exhaustive residual sweeps and
//! `ext_compiled_speed --check` pin every product to it.

use std::sync::OnceLock;

use approx_arith::{
    AdderForm, ArithConfig, CompiledMultiplier, OpCounter, RecursiveMultiplier, RippleCarryAdder,
    SquareMultiplier, StageArith, TapMultiplier,
};

/// The immutable compute half of a stage's arithmetic: the adder and
/// multiplier blocks instantiated from a [`StageArith`] triple, with no
/// activity counters. Every operation takes `&self`, so one program can be
/// shared behind an [`std::sync::Arc`] by any number of sessions and lanes.
#[derive(Debug, Clone)]
pub struct ArithProgram {
    adder: RippleCarryAdder,
    /// The multiplier netlist: its width, exactness and the residual cache
    /// keys come from here.
    reference: RecursiveMultiplier,
    /// Its compiled engine, built on first use (see the module docs).
    compiled: OnceLock<CompiledMultiplier>,
}

impl ArithProgram {
    /// Builds a program from stage approximation parameters on the paper's
    /// bus widths (32-bit adders, 16×16 multipliers).
    #[must_use]
    pub fn new(stage: StageArith) -> Self {
        let config = ArithConfig::new(stage);
        Self {
            adder: config.adder(),
            reference: config.multiplier(),
            compiled: OnceLock::new(),
        }
    }

    /// The compiled multiplier engine, compiled on first use.
    #[inline]
    pub(crate) fn multiplier(&self) -> &CompiledMultiplier {
        self.compiled
            .get_or_init(|| CompiledMultiplier::from_recursive(&self.reference))
    }

    /// The adder block as a word-level ripple-carry walk.
    #[inline]
    pub(crate) fn adder(&self) -> &RippleCarryAdder {
        &self.adder
    }

    /// The adder bus width in bits.
    #[inline]
    #[must_use]
    pub fn adder_width(&self) -> u32 {
        self.adder.width()
    }

    /// The multiplier operand width in bits.
    #[inline]
    #[must_use]
    pub fn mul_width(&self) -> u32 {
        self.reference.width()
    }

    /// Whether the multiplier block computes exactly (products are plain
    /// integer multiplication).
    pub(crate) fn mul_is_exact(&self) -> bool {
        self.reference.is_exact()
    }

    /// The multiplier block's worst-case absolute product error (see
    /// [`RecursiveMultiplier::error_bound`]; 0 when exact).
    pub(crate) fn mul_error_bound(&self) -> i64 {
        self.reference.error_bound()
    }

    /// The adder block's closed form with its masks and shifts resolved
    /// (see [`approx_arith::ClosedForm`]).
    pub(crate) fn adder_form(&self) -> AdderForm {
        self.adder.form()
    }

    /// Compiles this program's multiplier against a fixed coefficient: an
    /// exact product plus the shared residual (see [`approx_arith::tap`]).
    #[must_use]
    pub fn compile_tap(&self, coeff: i64) -> TapMultiplier {
        TapMultiplier::from_recursive(&self.reference, coeff, || self.multiplier())
    }

    /// Compiles this program's multiplier as a squarer: an exact square
    /// plus the shared residual (see [`approx_arith::tap`]).
    #[must_use]
    pub fn compile_square(&self) -> SquareMultiplier {
        SquareMultiplier::from_recursive(&self.reference, || self.multiplier())
    }
}

/// Whether the exact sum `a + b` falls outside a `width`-bit signed bus —
/// the scalar reference's overflow test (branch-free). The lane kernels use
/// an equivalent wrap-compare that needs operands bounded below `i64`
/// wrap.
#[inline]
#[must_use]
pub(crate) fn sum_overflows(a: i64, b: i64, width: u32) -> bool {
    let limit = 1i64 << (width - 1);
    let sum = a.wrapping_add(b);
    // Signed i64 overflow iff the operands agree in sign and the wrapped
    // sum disagrees — the classic two's-complement identity, chosen over
    // `overflowing_add` because the intrinsic's flag output keeps LLVM
    // from vectorizing the lane loops. i64 overflow is a fortiori outside
    // any ≤63-bit bus range.
    let wrapped = ((a ^ sum) & (b ^ sum)) < 0;
    wrapped || sum < -limit || sum >= limit
}

/// One stage's activity counters: word-level operations, multiplier
/// operands clamped into the datapath (a multiplication in which both
/// operands clamp contributes two), and additions whose exact sum wrapped
/// the adder bus.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ArithCounters {
    pub(crate) ops: OpCounter,
    pub(crate) mul_saturations: u64,
    pub(crate) add_overflows: u64,
}

/// Rounding integer division (round half away from zero) — the exact
/// inter-stage rescaling step that brings each filter's gain back out of the
/// signal. The paper approximates only adders and multipliers; scaling by
/// the (constant) filter gain stays exact.
#[must_use]
pub fn div_round(value: i64, divisor: i64) -> i64 {
    debug_assert!(divisor > 0, "divisor must be positive");
    if value >= 0 {
        (value + divisor / 2) / divisor
    } else {
        -((-value + divisor / 2) / divisor)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! The programs' arithmetic as the scalar reference counts it
    //! ([`crate::oracle::Counted`]), checked against native arithmetic, the
    //! generic compiled multiply and the bit-level netlist.

    use std::sync::Arc;

    use super::*;
    use crate::oracle::Counted;
    use approx_arith::{FullAdderKind, Mult2x2Kind};

    fn program(stage: StageArith) -> Arc<ArithProgram> {
        Arc::new(ArithProgram::new(stage))
    }

    /// A program whose adder block is built from the triple `adder` and
    /// whose multiplier block from `multiplier`, a pairing no stage triple
    /// yields: an approximate adder over products whose low bits its own
    /// triple's multiplier would clear.
    pub(crate) fn with_blocks(adder: StageArith, multiplier: StageArith) -> ArithProgram {
        ArithProgram {
            adder: ArithConfig::new(adder).adder(),
            reference: ArithConfig::new(multiplier).multiplier(),
            compiled: OnceLock::new(),
        }
    }

    /// The generic compiled product of the datapath-clamped operands.
    fn generic(program: &ArithProgram, a: i64, b: i64) -> i64 {
        let limit = 1i64 << (program.mul_width() - 1);
        let clamp = |v: i64| v.clamp(-limit, limit - 1);
        program.multiplier().mul_signed_clamped(clamp(a), clamp(b))
    }

    #[test]
    fn exact_backend_is_native_arithmetic() {
        let p = program(StageArith::exact());
        let mut b = Counted::new(Arc::clone(&p));
        assert!(p.mul_is_exact() && p.adder().is_exact());
        assert_eq!(b.add(123_456, 654_321), 777_777);
        assert_eq!(b.mul_tap(-321, &p.compile_tap(111)), -35_631);
        assert_eq!(b.square(-9), 81);
    }

    #[test]
    fn counters_track_activity() {
        let p = program(StageArith::exact());
        let mut b = Counted::new(Arc::clone(&p));
        b.add(1, 2);
        b.add(3, 4);
        b.mul_tap(5, &p.compile_tap(6));
        b.square(7);
        assert_eq!(b.counters.ops.adds(), 2);
        assert_eq!(b.counters.ops.muls(), 2);
    }

    #[test]
    fn multiplier_operands_saturate() {
        let p = program(StageArith::exact());
        let mut b = Counted::new(Arc::clone(&p));
        let r = b.mul_tap(1 << 20, &p.compile_tap(2));
        assert_eq!(r, 32767 * 2);
        assert_eq!(b.counters.mul_saturations, 1);
    }

    #[test]
    fn both_operands_clamping_counts_twice() {
        let p = program(StageArith::exact());
        let mut b = Counted::new(Arc::clone(&p));
        let _ = b.mul_tap(1 << 20, &p.compile_tap(-(1 << 20)));
        assert_eq!(b.counters.mul_saturations, 2);
        let _ = b.mul_tap(3, &p.compile_tap(4));
        assert_eq!(b.counters.mul_saturations, 2, "in-range mul must not count");
        // The squarer's one operand feeds both multiplier inputs.
        assert_eq!(b.square(-(1 << 20)), 32768 * 32768);
        assert_eq!(b.counters.mul_saturations, 4);
    }

    #[test]
    fn add_overflow_is_counted_and_wraps() {
        let mut b = Counted::new(program(StageArith::exact()));
        let max31 = (1i64 << 31) - 1;
        let r = b.add(max31, 1);
        // 32-bit bus wrap-around, exactly like the RTL.
        assert_eq!(r, -(1i64 << 31));
        assert_eq!(b.counters.add_overflows, 1);
        let _ = b.add(5, 6);
        assert_eq!(b.counters.add_overflows, 1, "in-range add must not count");
    }

    #[test]
    fn negative_add_overflow_detected() {
        let mut b = Counted::new(program(StageArith::exact()));
        let min32 = -(1i64 << 31);
        let _ = b.add(min32, -1);
        assert_eq!(b.counters.add_overflows, 1);
    }

    /// Products — operands clamped into the datapath, then a compiled tap
    /// or the generic compiled square — equal the bit-level reference
    /// netlist's on the same clamped operands.
    #[test]
    fn engines_produce_identical_results() {
        let stage = StageArith::new(10, Mult2x2Kind::V1, FullAdderKind::Ama5);
        let p = program(stage);
        let mut b = Counted::new(Arc::clone(&p));
        let netlist = ArithConfig::new(stage).multiplier();
        let limit = 1i64 << (netlist.width() - 1);
        for (a, c) in [
            (0i64, 0i64),
            (123, 456),
            (-32768, 32767),
            (1 << 20, -5),
            (-777, -888),
        ] {
            let (ca, cc) = (a.clamp(-limit, limit - 1), c.clamp(-limit, limit - 1));
            assert_eq!(
                b.mul_tap(a, &p.compile_tap(c)),
                netlist.mul(ca, cc),
                "{a}x{c}"
            );
            assert_eq!(b.square(a), netlist.mul(ca, ca), "{a}²");
        }
        // One clamped tap operand, one clamped square (two operands).
        assert_eq!(b.counters.mul_saturations, 3);
    }

    /// A compiled tap is the generic multiply with the coefficient as
    /// second operand: same product, one multiplication, and the same
    /// per-operand saturation count.
    #[test]
    fn mul_tap_matches_mul_with_counters() {
        for stage in [
            StageArith::exact(),
            StageArith::least_energy(8),
            StageArith::new(12, Mult2x2Kind::V2, FullAdderKind::Ama1),
        ] {
            let p = program(stage);
            let mut tapped = Counted::new(Arc::clone(&p));
            let limit = 1i64 << (p.mul_width() - 1);
            let mut saturations = 0u64;
            let coeffs = [1i64, -2, 6, 31, -31, 1 << 20];
            let samples = [0i64, 1, -1, 777, -32768, 32767, 1 << 20, -(1 << 20)];
            for c in coeffs {
                let tap = p.compile_tap(c);
                for a in samples {
                    for v in [a, c] {
                        saturations += u64::from(v != v.clamp(-limit, limit - 1));
                    }
                    assert_eq!(
                        tapped.mul_tap(a, &tap),
                        generic(&p, a, c),
                        "{stage} {a}x{c}"
                    );
                }
            }
            let products = (coeffs.len() * samples.len()) as u64;
            assert_eq!(tapped.counters.ops.muls(), products);
            assert_eq!(tapped.counters.ops.adds(), 0);
            assert_eq!(tapped.counters.mul_saturations, saturations);
        }
    }

    /// The compiled engine is built on first use: a program whose taps and
    /// squarer find their residuals cached never builds one, and neither
    /// does the adder-only MWI; the scalar reference's generic square
    /// builds it.
    #[test]
    fn compiled_multiplier_is_built_on_first_use() {
        let stage = StageArith::new(11, Mult2x2Kind::V2, FullAdderKind::Ama2);
        let cold = ArithProgram::new(stage);
        let _ = (cold.compile_tap(-5), cold.compile_square());
        assert!(cold.compiled.get().is_some(), "a residual miss compiles");
        let warm = ArithProgram::new(stage);
        assert!(
            warm.compiled.get().is_none(),
            "construction compiles nothing"
        );
        let (tap, sqr) = (warm.compile_tap(5), warm.compile_square());
        assert!(
            warm.compiled.get().is_none(),
            "cached residuals need no engine"
        );
        assert_eq!(warm.mul_width(), 16);
        let warm = Arc::new(warm);
        let mut reference = Counted::new(Arc::clone(&warm));
        assert_eq!(sqr.square_clamped(-777), reference.square(-777));
        assert!(warm.compiled.get().is_some(), "the generic square compiles");
        for a in [-32768i64, -777, 0, 1, 4095, 32767] {
            assert_eq!(tap.mul_clamped(a), generic(&warm, a, 5), "{a}x5");
            assert_eq!(sqr.square_clamped(a), reference.square(a), "{a}²");
        }
    }

    #[test]
    fn approximate_backend_bounded_error() {
        let p = program(StageArith::new(8, Mult2x2Kind::V1, FullAdderKind::Ama5));
        let mut b = Counted::new(Arc::clone(&p));
        assert!(!p.mul_is_exact() && !p.adder().is_exact());
        let sum = b.add(10_000, 20_000);
        assert!((sum - 30_000).abs() <= 1 << 9);
        let prod = b.mul_tap(300, &p.compile_tap(50));
        assert!((prod - 15_000).abs() <= 1 << 16);
    }

    #[test]
    fn div_round_rounds_half_away_from_zero() {
        assert_eq!(div_round(7, 2), 4);
        assert_eq!(div_round(-7, 2), -4);
        assert_eq!(div_round(6, 3), 2);
        assert_eq!(div_round(100, 36), 3);
        assert_eq!(div_round(-100, 36), -3);
        assert_eq!(div_round(0, 5), 0);
    }

    #[test]
    fn div_round_is_odd_symmetric() {
        for v in [-100i64, -37, -1, 0, 1, 37, 100] {
            for d in [2i64, 8, 30, 36] {
                assert_eq!(div_round(-v, d), -div_round(v, d), "v={v} d={d}");
            }
        }
    }
}
