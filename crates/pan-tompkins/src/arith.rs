//! The arithmetic backend a stage computes with: either native (exact)
//! integer operations or the behavioral models of the approximate blocks.
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
//! the generic [`ArithBackend::mul`] of the scalar reference; it is
//! compiled on first use, so the adder-only MWI never builds one, and
//! neither does a stage whose residuals are all cached. The structural
//! bit-level recursion ([`approx_arith::RecursiveMultiplier`]) it is
//! compiled from stays in `approx_arith` as its reference: the `compiled`
//! property tests, the exhaustive residual sweeps and
//! `ext_compiled_speed --check` pin every product to it.

use std::sync::{Arc, OnceLock};

use approx_arith::{
    AdderForm, ArithConfig, CompiledMultiplier, OpCounter, RecursiveMultiplier, SquareMultiplier,
    StageArith, TapMultiplier,
};

/// The immutable compute half of a stage's arithmetic: the adder and
/// multiplier blocks instantiated from a [`StageArith`] triple, with no
/// activity counters. Every operation takes `&self`, so one program can be
/// shared behind an [`Arc`] by any number of detector states or lanes — the
/// mutable per-instance half lives in [`ArithBackend`] (or, for the lane
/// bank, in its per-lane counter arrays).
#[derive(Debug, Clone)]
pub struct ArithProgram {
    config: ArithConfig,
    adder: approx_arith::RippleCarryAdder,
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
            config,
        }
    }

    /// The compiled multiplier engine, compiled on first use.
    fn multiplier(&self) -> &CompiledMultiplier {
        self.compiled
            .get_or_init(|| CompiledMultiplier::from_recursive(&self.reference))
    }

    /// The configuration this program was built from.
    #[must_use]
    pub fn config(&self) -> ArithConfig {
        self.config
    }

    /// Whether this program computes exactly.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.adder.is_exact() && self.reference.is_exact()
    }

    /// The adder bus width in bits.
    #[must_use]
    pub fn adder_width(&self) -> u32 {
        self.adder.width()
    }

    /// The multiplier operand width in bits.
    #[must_use]
    pub fn mul_width(&self) -> u32 {
        self.reference.width()
    }

    /// Whether the multiplier block computes exactly (products are plain
    /// integer multiplication).
    pub(crate) fn mul_is_exact(&self) -> bool {
        self.reference.is_exact()
    }

    /// The adder block's closed form with its masks and shifts resolved
    /// (see [`approx_arith::ClosedForm`]).
    pub(crate) fn adder_form(&self) -> AdderForm {
        self.adder.form()
    }

    /// The raw adder block: no counting, no overflow bookkeeping.
    #[inline]
    #[must_use]
    pub fn add_raw(&self, a: i64, b: i64) -> i64 {
        self.adder.add(a, b)
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
/// the scalar backend's overflow test (branch-free). The lane kernels use
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

/// The mutable per-instance half of a stage's arithmetic: plain activity
/// counters, separable from the shared [`ArithProgram`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ArithCounters {
    pub(crate) ops: OpCounter,
    pub(crate) mul_saturations: u64,
    pub(crate) add_overflows: u64,
}

impl ArithCounters {
    pub(crate) fn reset(&mut self) {
        self.ops.reset();
        self.mul_saturations = 0;
        self.add_overflows = 0;
    }
}

/// A stage's arithmetic backend: one adder block and one multiplier block,
/// instantiated from a [`StageArith`] triple, plus activity counters.
///
/// Internally this is a shared [`ArithProgram`] (the compute) paired with
/// per-instance [`ArithCounters`] (the state); cloning a backend clones the
/// counters but shares the program.
///
/// # Example
///
/// ```
/// use approx_arith::StageArith;
/// use pan_tompkins::ArithBackend;
///
/// let mut exact = ArithBackend::exact();
/// assert_eq!(exact.add(70_000, -30), 69_970);
/// assert_eq!(exact.mul(-250, 6), -1500);
/// assert_eq!(exact.ops().adds(), 1);
/// assert_eq!(exact.ops().muls(), 1);
///
/// let mut approx = ArithBackend::new(StageArith::least_energy(8));
/// let sum = approx.add(1000, 2000);
/// assert!((sum - 3000_i64).abs() < 1 << 9);
/// ```
#[derive(Debug, Clone)]
pub struct ArithBackend {
    program: Arc<ArithProgram>,
    counters: ArithCounters,
}

impl ArithBackend {
    /// Builds a backend from stage approximation parameters on the paper's
    /// bus widths (32-bit adders, 16×16 multipliers).
    #[must_use]
    pub fn new(stage: StageArith) -> Self {
        Self::from_program(Arc::new(ArithProgram::new(stage)))
    }

    /// Builds a backend over an existing shared program with fresh counters.
    #[must_use]
    pub fn from_program(program: Arc<ArithProgram>) -> Self {
        Self {
            program,
            counters: ArithCounters::default(),
        }
    }

    /// A fully exact backend.
    #[must_use]
    pub fn exact() -> Self {
        Self::new(StageArith::exact())
    }

    /// The shared compute program.
    #[must_use]
    pub fn program(&self) -> &Arc<ArithProgram> {
        &self.program
    }

    /// The configuration this backend was built from.
    #[must_use]
    pub fn config(&self) -> ArithConfig {
        self.program.config
    }

    /// Adds two values through the stage adder block (32-bit wrap-around,
    /// approximate LSB cells per the configuration). Wrap events of the
    /// exact sum are recorded in [`ArithBackend::add_overflow_events`].
    #[inline]
    pub fn add(&mut self, a: i64, b: i64) -> i64 {
        self.counters.ops.count_add();
        self.counters.add_overflows += u64::from(sum_overflows(a, b, self.program.adder.width()));
        self.program.adder.add(a, b)
    }

    /// Multiplies through the stage multiplier block. Operands saturate into
    /// the signed 16-bit range first (each clamped operand counted), like
    /// the fixed-point datapath.
    #[inline]
    pub fn mul(&mut self, a: i64, b: i64) -> i64 {
        self.counters.ops.count_mul();
        let limit = 1i64 << (self.program.mul_width() - 1);
        let ca = a.clamp(-limit, limit - 1);
        let cb = b.clamp(-limit, limit - 1);
        self.counters.mul_saturations += u64::from(ca != a) + u64::from(cb != b);
        self.program.multiplier().mul_signed_clamped(ca, cb)
    }

    /// Squares a value through the multiplier block (the squarer stage).
    pub fn square(&mut self, x: i64) -> i64 {
        self.mul(x, x)
    }

    /// Compiles this backend's multiplier against a fixed coefficient (see
    /// [`ArithProgram::compile_tap`]). [`ArithBackend::mul_tap`] through the result
    /// is bit-for-bit [`ArithBackend::mul`] with `coeff` as second operand,
    /// counters included.
    #[must_use]
    pub fn compile_tap(&self, coeff: i64) -> TapMultiplier {
        self.program.compile_tap(coeff)
    }

    /// Multiplies through a precompiled tap — the FIR hot-loop fast
    /// path. Identical to `self.mul(a, tap.coeff())` in product, operation
    /// count, and saturation accounting.
    #[inline]
    pub fn mul_tap(&mut self, a: i64, tap: &TapMultiplier) -> i64 {
        self.counters.ops.count_mul();
        let limit = 1i64 << (tap.width() - 1);
        let ca = a.clamp(-limit, limit - 1);
        self.counters.mul_saturations += u64::from(ca != a) + u64::from(tap.coeff_saturates());
        tap.mul_clamped(ca)
    }

    /// Operation counts so far.
    #[must_use]
    pub fn ops(&self) -> &OpCounter {
        &self.counters.ops
    }

    /// Multiplier *operands* that saturated into the datapath range: a
    /// multiplication in which both operands clamp contributes two.
    #[must_use]
    pub fn saturation_events(&self) -> u64 {
        self.counters.mul_saturations
    }

    /// Additions whose exact sum did not fit the adder width and therefore
    /// wrapped (silently, as the hardware bus would).
    #[must_use]
    pub fn add_overflow_events(&self) -> u64 {
        self.counters.add_overflows
    }

    /// Resets activity counters (not the configuration).
    pub fn reset_counters(&mut self) {
        self.counters.reset();
    }

    /// Whether this backend computes exactly.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.program.is_exact()
    }
}

impl Default for ArithBackend {
    fn default() -> Self {
        Self::exact()
    }
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
mod tests {
    use super::*;
    use approx_arith::{FullAdderKind, Mult2x2Kind};

    #[test]
    fn exact_backend_is_native_arithmetic() {
        let mut b = ArithBackend::exact();
        assert!(b.is_exact());
        assert_eq!(b.add(123_456, 654_321), 777_777);
        assert_eq!(b.mul(-321, 111), -35_631);
        assert_eq!(b.square(-9), 81);
    }

    #[test]
    fn counters_track_activity() {
        let mut b = ArithBackend::exact();
        b.add(1, 2);
        b.add(3, 4);
        b.mul(5, 6);
        b.square(7);
        assert_eq!(b.ops().adds(), 2);
        assert_eq!(b.ops().muls(), 2);
        b.reset_counters();
        assert_eq!(b.ops().adds(), 0);
    }

    #[test]
    fn multiplier_operands_saturate() {
        let mut b = ArithBackend::exact();
        let r = b.mul(1 << 20, 2);
        assert_eq!(r, 32767 * 2);
        assert_eq!(b.saturation_events(), 1);
    }

    #[test]
    fn both_operands_clamping_counts_twice() {
        let mut b = ArithBackend::exact();
        let _ = b.mul(1 << 20, -(1 << 20));
        assert_eq!(b.saturation_events(), 2);
        let _ = b.mul(3, 4);
        assert_eq!(b.saturation_events(), 2, "in-range mul must not count");
    }

    #[test]
    fn add_overflow_is_counted_and_wraps() {
        let mut b = ArithBackend::exact();
        let max31 = (1i64 << 31) - 1;
        let r = b.add(max31, 1);
        // 32-bit bus wrap-around, exactly like the RTL.
        assert_eq!(r, -(1i64 << 31));
        assert_eq!(b.add_overflow_events(), 1);
        let _ = b.add(5, 6);
        assert_eq!(b.add_overflow_events(), 1, "in-range add must not count");
        b.reset_counters();
        assert_eq!(b.add_overflow_events(), 0);
    }

    #[test]
    fn negative_add_overflow_detected() {
        let mut b = ArithBackend::exact();
        let min32 = -(1i64 << 31);
        let _ = b.add(min32, -1);
        assert_eq!(b.add_overflow_events(), 1);
    }

    /// The backend's products — operands clamped into the datapath, then
    /// the compiled multiplier — equal the bit-level reference netlist's
    /// on the same clamped operands.
    #[test]
    fn engines_produce_identical_results() {
        let stage = StageArith::new(10, Mult2x2Kind::V1, FullAdderKind::Ama5);
        let mut backend = ArithBackend::new(stage);
        let netlist = ArithConfig::new(stage).multiplier();
        let limit = 1i64 << (netlist.width() - 1);
        for (a, b) in [
            (0i64, 0i64),
            (123, 456),
            (-32768, 32767),
            (1 << 20, -5),
            (-777, -888),
        ] {
            let (ca, cb) = (a.clamp(-limit, limit - 1), b.clamp(-limit, limit - 1));
            assert_eq!(backend.mul(a, b), netlist.mul(ca, cb), "{a}x{b}");
        }
        assert_eq!(backend.saturation_events(), 1);
    }

    #[test]
    fn mul_tap_matches_mul_with_counters() {
        for stage in [
            StageArith::exact(),
            StageArith::least_energy(8),
            StageArith::new(12, Mult2x2Kind::V2, FullAdderKind::Ama1),
        ] {
            let mut generic = ArithBackend::new(stage);
            let mut tapped = ArithBackend::new(stage);
            for c in [1i64, -2, 6, 31, -31, 1 << 20] {
                let tap = tapped.compile_tap(c);
                for a in [0i64, 1, -1, 777, -32768, 32767, 1 << 20, -(1 << 20)] {
                    assert_eq!(
                        tapped.mul_tap(a, &tap),
                        generic.mul(a, c),
                        "{stage} {a}x{c}"
                    );
                }
            }
            assert_eq!(tapped.ops(), generic.ops());
            assert_eq!(tapped.saturation_events(), generic.saturation_events());
        }
    }

    /// The compiled engine is built on first use: a program whose taps and
    /// squarer find their residuals cached never builds one, and neither
    /// does the adder-only MWI.
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
        let mut backend = ArithBackend::from_program(Arc::new(warm));
        for a in [-32768i64, -777, 0, 1, 4095, 32767] {
            assert_eq!(tap.mul_clamped(a), backend.mul(a, 5), "{a}x5");
            assert_eq!(sqr.square_clamped(a), backend.square(a), "{a}²");
        }
        assert!(backend.program().compiled.get().is_some(), "mul compiles");
    }

    #[test]
    fn approximate_backend_bounded_error() {
        let mut b = ArithBackend::new(StageArith::new(8, Mult2x2Kind::V1, FullAdderKind::Ama5));
        assert!(!b.is_exact());
        let sum = b.add(10_000, 20_000);
        assert!((sum - 30_000).abs() <= 1 << 9);
        let prod = b.mul(300, 50);
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
