//! Larger bit-width ripple-carry adders with approximate LSB cells
//! (XBioSiP Fig 6).
//!
//! The paper constructs an N-bit adder from 1-bit full-adder cells and
//! replaces the `k` least-significant cells with an approximate variant,
//! keeping the upper `N−k` cells accurate to bound the error magnitude at
//! roughly `2^k`.
//!
//! [`RippleCarryAdder::add_words_reference`] evaluates the structure bit by
//! bit, exactly as the RTL would. [`RippleCarryAdder::add_words`] reaches the
//! same result through closed-form word-level evaluation for *every* cell
//! kind (property-tested bit-for-bit against the bit-level walker):
//!
//! * `k = 0` or an accurate cell kind ⇒ plain two's-complement addition;
//! * AMA1 keeps the exact carry chain and only flips the sum bit on the two
//!   wrong truth-table rows, so the result is the exact sum XOR a mask;
//! * AMA2 keeps the exact carry chain with `Sum = !Cout` in the region;
//! * AMA3's carry recurrence `Cout = A·B + A·Cin` is the carry chain of the
//!   ordinary addition `A + (A·B)` (propagate `A`, generate `A·B`), which a
//!   single machine add materialises for all cells at once;
//! * AMA4 (`Sum = !A`, `Cout = A`) and AMA5 (`Sum = B`, `Cout = A`) have no
//!   carry dependence at all — the low `k` bits are wires and the carry into
//!   cell `k` is bit `k−1` of `A`.
//!
//! Each closed form is one [`ClosedForm`] value with its masks and shifts
//! resolved ([`RippleCarryAdder::form`]): the scalar entry points match on
//! the resolved [`AdderForm`] per call, while a lane kernel matches once
//! ([`with_adder_form!`](crate::with_adder_form)) and runs a loop
//! monomorphized for the form.

use crate::full_adder::FullAdderKind;
use crate::word::Word;

/// An N-bit ripple-carry adder whose `approx_lsbs` least-significant cells
/// use the approximate full adder `kind` (paper Fig 6).
///
/// Inputs and output are interpreted as `width`-bit two's-complement words;
/// like the hardware, the carry out of the final cell is discarded
/// (wrap-around arithmetic).
///
/// # Example
///
/// ```
/// use approx_arith::{FullAdderKind, RippleCarryAdder};
///
/// let exact = RippleCarryAdder::new(32, 0, FullAdderKind::Ama5);
/// assert_eq!(exact.add(123_456, -789), 122_667);
///
/// let approx = RippleCarryAdder::new(32, 8, FullAdderKind::Ama5);
/// let sum = approx.add(123_456, -789);
/// assert!((sum - 122_667).abs() < 1 << 9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RippleCarryAdder {
    width: u32,
    approx_lsbs: u32,
    kind: FullAdderKind,
}

impl RippleCarryAdder {
    /// Creates an adder of `width` bits with `approx_lsbs` approximate cells
    /// of the given `kind` at the least-significant end.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=63` or `approx_lsbs > width`.
    #[must_use]
    pub fn new(width: u32, approx_lsbs: u32, kind: FullAdderKind) -> Self {
        assert!(
            (1..=crate::word::MAX_WIDTH).contains(&width),
            "adder width {width} out of range"
        );
        assert!(
            approx_lsbs <= width,
            "cannot approximate {approx_lsbs} LSBs of a {width}-bit adder"
        );
        Self {
            width,
            approx_lsbs,
            kind,
        }
    }

    /// A fully accurate adder of the given width.
    #[must_use]
    pub fn accurate(width: u32) -> Self {
        Self::new(width, 0, FullAdderKind::Accurate)
    }

    /// Adder width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of approximate LSB cells.
    #[must_use]
    pub fn approx_lsbs(&self) -> u32 {
        self.approx_lsbs
    }

    /// The approximate cell kind used in the LSB region.
    #[must_use]
    pub fn kind(&self) -> FullAdderKind {
        self.kind
    }

    /// Whether every cell computes exactly.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.approx_lsbs == 0 || self.kind.is_accurate()
    }

    /// Adds two `width`-bit words, returning the `width`-bit result
    /// (sign-extended to `i64`). Inputs wrap into the adder width first,
    /// like driving a hardware bus.
    #[must_use]
    #[inline]
    pub fn add(&self, a: i64, b: i64) -> i64 {
        self.form().add(a, b)
    }

    /// Adds two words; widths must match the adder.
    ///
    /// # Panics
    ///
    /// Panics if either operand width differs from the adder width.
    #[must_use]
    pub fn add_words(&self, a: Word, b: Word) -> Word {
        assert_eq!(a.width(), self.width, "operand width mismatch");
        assert_eq!(b.width(), self.width, "operand width mismatch");
        Word::from_bits(self.add_bits(a.bits(), b.bits()), self.width)
    }

    /// Adds raw bit patterns (the low `width` bits of each operand are
    /// significant and must be the only ones set), returning the wrapped
    /// `width`-bit result bits — the allocation- and assert-free core every
    /// hot path shares.
    #[must_use]
    #[inline]
    pub fn add_bits(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a <= self.width_mask() && b <= self.width_mask());
        self.form().add_bits(a, b)
    }

    /// This adder's closed form with its masks and shifts resolved — the
    /// one implementation behind [`RippleCarryAdder::add`],
    /// [`RippleCarryAdder::add_bits`], and the lane kernels, which resolve
    /// it once and run a loop monomorphized for the form.
    #[must_use]
    #[inline]
    pub fn form(&self) -> AdderForm {
        let ext = 64 - self.width;
        if self.is_exact() {
            return AdderForm::Wrap(Wrap { ext });
        }
        let k = self.approx_lsbs;
        // k ≤ width ≤ 63, so neither shift overflows.
        let low = (1u64 << k) - 1;
        let carry_bit = 1u64 << k;
        match self.kind {
            FullAdderKind::Accurate => AdderForm::Wrap(Wrap { ext }),
            FullAdderKind::Ama1 => AdderForm::Ama1(Ama1 { low, ext }),
            FullAdderKind::Ama2 => AdderForm::Ama2(Ama2 { low, ext }),
            FullAdderKind::Ama3 => AdderForm::Ama3(Ama3 {
                low,
                carry_bit,
                ext,
            }),
            FullAdderKind::Ama4 => AdderForm::Ama4(Wired {
                low,
                carry_bit,
                ext,
            }),
            FullAdderKind::Ama5 => AdderForm::Ama5(Wired {
                low,
                carry_bit,
                ext,
            }),
        }
    }

    #[inline]
    fn width_mask(&self) -> u64 {
        // width ≤ 63, so the shift never overflows.
        (1u64 << self.width) - 1
    }

    /// Reference bit-level evaluation: ripples a carry through every cell,
    /// exactly like the RTL netlist.
    fn add_words_bitwise(&self, a: Word, b: Word) -> Word {
        let mut out = Word::from_bits(0, self.width);
        let mut carry = false;
        for i in 0..self.width {
            let kind = if i < self.approx_lsbs {
                self.kind
            } else {
                FullAdderKind::Accurate
            };
            let cell = kind.eval(a.bit(i), b.bit(i), carry);
            out = out.with_bit(i, cell.sum);
            carry = cell.cout;
        }
        out
    }

    /// Bit-level evaluation exposed for cross-validation; always uses the
    /// per-cell netlist walk regardless of fast paths.
    #[must_use]
    pub fn add_words_reference(&self, a: Word, b: Word) -> Word {
        assert_eq!(a.width(), self.width, "operand width mismatch");
        assert_eq!(b.width(), self.width, "operand width mismatch");
        self.add_words_bitwise(a, b)
    }

    /// Worst-case absolute error bound of this configuration, valid when the
    /// exact sum does not overflow the adder width (wrap-around aliases the
    /// error across the sign boundary, as it would in the RTL).
    ///
    /// Each approximate cell can corrupt its sum bit; a corrupted carry out
    /// of the approximate region propagates as one unit at weight `2^k`. The
    /// bound below is conservative but tight in order of magnitude: `2^(k+1)`.
    #[must_use]
    pub fn error_bound(&self) -> i64 {
        if self.is_exact() {
            0
        } else {
            1i64 << (self.approx_lsbs + 1).min(62)
        }
    }

    /// Number of accurate and approximate cells, for cost accounting:
    /// `(accurate_cells, approximate_cells)`.
    #[must_use]
    pub fn cell_counts(&self) -> (u32, u32) {
        if self.kind.is_accurate() {
            (self.width, 0)
        } else {
            (self.width - self.approx_lsbs, self.approx_lsbs)
        }
    }
}

/// A [`RippleCarryAdder`] closed form with its masks and shifts resolved,
/// so a loop generic over the form runs branch- and dispatch-free.
///
/// [`ClosedForm::raw`] is the form itself on raw operand bits: the low
/// `width` bits of its result depend only on the low `width` bits of each
/// operand (carries only travel upwards), so callers may pass
/// sign-extended `i64` patterns and mask or sign-extend the result
/// afterwards — which is what [`ClosedForm::add`] and
/// [`ClosedForm::add_bits`] do.
pub trait ClosedForm: Copy {
    /// The form on raw bits; only the low `width` bits are significant.
    fn raw(self, a: u64, b: u64) -> u64;

    /// `64 − width`: the shift pair that sign-extends from the bus width.
    fn ext(self) -> u32;

    /// [`RippleCarryAdder::add`]: the `width`-bit result of two bus
    /// values, sign-extended to `i64`.
    #[inline(always)]
    #[must_use]
    fn add(self, a: i64, b: i64) -> i64 {
        let ext = self.ext();
        ((self.raw(a as u64, b as u64) << ext) as i64) >> ext
    }

    /// [`RippleCarryAdder::add_bits`]: the wrapped `width`-bit result bits.
    #[inline(always)]
    #[must_use]
    fn add_bits(self, a: u64, b: u64) -> u64 {
        let ext = self.ext();
        (self.raw(a, b) << ext) >> ext
    }
}

/// `k = 0` or an accurate cell kind: plain two's-complement addition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wrap {
    ext: u32,
}

impl ClosedForm for Wrap {
    #[inline(always)]
    fn raw(self, a: u64, b: u64) -> u64 {
        a.wrapping_add(b)
    }

    #[inline(always)]
    fn ext(self) -> u32 {
        self.ext
    }
}

/// AMA1: the carry chain is exact (its Cout has no error rows); the sum bit
/// is wrong exactly on rows `(A,B,Cin) = (0,1,1)` (reads 1 instead of 0)
/// and `(1,0,0)` (reads 0 instead of 1) — both are *flips* of the exact
/// sum, applied only inside the approximate region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ama1 {
    low: u64,
    ext: u32,
}

impl ClosedForm for Ama1 {
    #[inline(always)]
    fn raw(self, a: u64, b: u64) -> u64 {
        let s = a.wrapping_add(b);
        let cin = a ^ b ^ s; // carry-in vector of the exact addition
        s ^ (((!a & b & cin) | (a & !b & !cin)) & self.low)
    }

    #[inline(always)]
    fn ext(self) -> u32 {
        self.ext
    }
}

/// AMA2: the carry chain is exact; in the approximate region every sum bit
/// is the complement of that cell's (exact) carry-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ama2 {
    low: u64,
    ext: u32,
}

impl ClosedForm for Ama2 {
    #[inline(always)]
    fn raw(self, a: u64, b: u64) -> u64 {
        let s = a.wrapping_add(b);
        let cin = a ^ b ^ s;
        let cout = (a & b) | (cin & (a ^ b));
        (s & !self.low) | (!cout & self.low)
    }

    #[inline(always)]
    fn ext(self) -> u32 {
        self.ext
    }
}

/// AMA3: `Cout = A·B + A·Cin`, `Sum = !Cout`. The carry recurrence has
/// generate `A·B` and propagate `A`; since the generate is a subset of the
/// propagate, its chain is identical to the carry chain of the plain
/// addition `A + (A·B)`, which one machine add produces for all cells. The
/// accurate region adds the operands' upper bits plus the approximate
/// carry into cell `k` (bit `k` of that carry vector).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ama3 {
    low: u64,
    carry_bit: u64,
    ext: u32,
}

impl ClosedForm for Ama3 {
    #[inline(always)]
    fn raw(self, a: u64, b: u64) -> u64 {
        let g = a & b;
        let cin = a ^ g ^ a.wrapping_add(g); // approximate carry-in vector
        let cout = g | (a & cin);
        let hi = (a & !self.low)
            .wrapping_add(b & !self.low)
            .wrapping_add(cin & self.carry_bit);
        (!cout & self.low) | hi
    }

    #[inline(always)]
    fn ext(self) -> u32 {
        self.ext
    }
}

/// The wiring-only kinds AMA4 (`Sum = !A`, `SUM_NOT_A = true`) and AMA5
/// (`Sum = B`): no carry dependence at all — the low `k` sum bits are
/// wires and, with `Cout = A` in both, the carry into cell `k` is bit
/// `k−1` of `A` (`k ≥ 1`: `k = 0` resolves to [`Wrap`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wired<const SUM_NOT_A: bool> {
    low: u64,
    carry_bit: u64,
    ext: u32,
}

impl<const SUM_NOT_A: bool> ClosedForm for Wired<SUM_NOT_A> {
    #[inline(always)]
    fn raw(self, a: u64, b: u64) -> u64 {
        let sum = if SUM_NOT_A { !a } else { b };
        let hi = (a & !self.low)
            .wrapping_add(b & !self.low)
            .wrapping_add((a << 1) & self.carry_bit);
        (sum & self.low) | hi
    }

    #[inline(always)]
    fn ext(self) -> u32 {
        self.ext
    }
}

/// Which closed form a [`RippleCarryAdder`] resolves to
/// ([`RippleCarryAdder::form`]). Matching on it once and handing the
/// payload to code generic over [`ClosedForm`] moves the cell-kind
/// dispatch out of the inner loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdderForm {
    /// Exact: `k = 0` or accurate cells.
    Wrap(Wrap),
    /// AMA1 cells in the low `k` bits.
    Ama1(Ama1),
    /// AMA2 cells in the low `k` bits.
    Ama2(Ama2),
    /// AMA3 cells in the low `k` bits.
    Ama3(Ama3),
    /// AMA4 cells in the low `k` bits.
    Ama4(Wired<true>),
    /// AMA5 cells in the low `k` bits.
    Ama5(Wired<false>),
}

/// Binds `$form` to the concrete [`ClosedForm`] inside an [`AdderForm`]
/// value and evaluates `$body` with it: the one match that selects code
/// monomorphized for a closed form. [`AdderForm::add`] and
/// [`AdderForm::add_bits`] run it per call; a lane kernel runs it once
/// around a whole loop generic over the form.
///
/// ```
/// use approx_arith::{with_adder_form, ClosedForm, FullAdderKind, RippleCarryAdder};
///
/// let adder = RippleCarryAdder::new(16, 4, FullAdderKind::Ama3);
/// let sums: Vec<i64> = with_adder_form!(adder.form(), form => {
///     (0..4).map(|b| form.add(100, b)).collect()
/// });
/// assert_eq!(sums, (0..4).map(|b| adder.add(100, b)).collect::<Vec<_>>());
/// ```
#[macro_export]
macro_rules! with_adder_form {
    ($adder:expr, $form:ident => $body:expr) => {
        match $adder {
            $crate::AdderForm::Wrap($form) => $body,
            $crate::AdderForm::Ama1($form) => $body,
            $crate::AdderForm::Ama2($form) => $body,
            $crate::AdderForm::Ama3($form) => $body,
            $crate::AdderForm::Ama4($form) => $body,
            $crate::AdderForm::Ama5($form) => $body,
        }
    };
}

impl AdderForm {
    /// [`ClosedForm::add`] of the resolved form.
    #[inline]
    #[must_use]
    pub fn add(self, a: i64, b: i64) -> i64 {
        with_adder_form!(self, form => form.add(a, b))
    }

    /// [`ClosedForm::add_bits`] of the resolved form.
    #[inline]
    #[must_use]
    pub fn add_bits(self, a: u64, b: u64) -> u64 {
        with_adder_form!(self, form => form.add_bits(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_adder_matches_integer_addition() {
        let adder = RippleCarryAdder::accurate(16);
        for (a, b) in [(0, 0), (1, 2), (-5, 9), (32767, 1), (-32768, -1)] {
            let expected = Word::new(a + b, 16).value();
            assert_eq!(adder.add(a, b), expected, "{a}+{b}");
        }
    }

    #[test]
    fn zero_approx_lsbs_is_exact_for_all_kinds() {
        for kind in FullAdderKind::ALL {
            let adder = RippleCarryAdder::new(16, 0, kind);
            assert!(adder.is_exact());
            assert_eq!(adder.add(1234, 4321), 5555);
        }
    }

    #[test]
    fn fully_approximate_ama5_returns_b() {
        let adder = RippleCarryAdder::new(16, 16, FullAdderKind::Ama5);
        assert_eq!(adder.add(12345, 678), 678);
        assert_eq!(adder.add(-1, 42), 42);
    }

    /// Exhaustive ground truth at a small width: every operand pair, every
    /// approximation depth, every cell kind — the word-level closed forms
    /// must match the bit-level netlist walk everywhere.
    #[test]
    fn word_level_fast_paths_match_reference_exhaustively() {
        const W: u32 = 6;
        for kind in FullAdderKind::ALL {
            for k in 0..=W {
                let adder = RippleCarryAdder::new(W, k, kind);
                for a in 0..(1u64 << W) {
                    for b in 0..(1u64 << W) {
                        let wa = Word::from_bits(a, W);
                        let wb = Word::from_bits(b, W);
                        assert_eq!(
                            adder.add_words(wa, wb),
                            adder.add_words_reference(wa, wb),
                            "{kind} k={k} a={a:06b} b={b:06b}"
                        );
                    }
                }
            }
        }
    }

    /// The resolved closed form — what the lane kernels run per element,
    /// and what [`RippleCarryAdder::add`] evaluates — against the bit-level
    /// netlist walk for every cell kind and every depth `k = 0..=32` on the
    /// 32-bit bus (`k = width` included), at the wrap boundary, and with
    /// operands outside the bus range, which the kernels pass unwrapped:
    /// they must wrap exactly like driving the bus.
    #[test]
    fn resolved_forms_match_the_netlist_on_the_32_bit_bus() {
        const W: u32 = 32;
        let (max, min) = ((1i64 << (W - 1)) - 1, -(1i64 << (W - 1)));
        let operands = [
            0,
            1,
            -1,
            2,
            -2,
            max,
            min,
            max - 1,
            min + 1,
            0x5555_5555,
            -0x5555_5556,
            0x0F0F_0F0F,
            12_345,
            -98_765,
            // Outside the bus: wrap into it first.
            max + 1,
            min - 1,
            1 << W,
            (1 << 40) + 7,
            -(1 << 33) - 3,
            i64::from(u32::MAX),
        ];
        let mask = (1u64 << W) - 1;
        for kind in FullAdderKind::ALL {
            for k in 0..=W {
                let adder = RippleCarryAdder::new(W, k, kind);
                let form = adder.form();
                for a in operands {
                    for b in operands {
                        let want = adder.add_words_reference(Word::new(a, W), Word::new(b, W));
                        let ctx = format!("{kind} k={k} a={a} b={b}");
                        assert_eq!(form.add(a, b), want.value(), "add: {ctx}");
                        assert_eq!(adder.add(a, b), want.value(), "adder: {ctx}");
                        assert_eq!(
                            form.add_bits(a as u64 & mask, b as u64 & mask),
                            want.bits(),
                            "add_bits: {ctx}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ama5_fast_path_matches_reference_bitwise() {
        for k in 0..=16u32 {
            let adder = RippleCarryAdder::new(16, k, FullAdderKind::Ama5);
            for (a, b) in [
                (0i64, 0i64),
                (1, 1),
                (255, 255),
                (-1, 1),
                (32767, -32768),
                (1234, -4321),
                (257, 513),
            ] {
                let wa = Word::new(a, 16);
                let wb = Word::new(b, 16);
                assert_eq!(
                    adder.add_words(wa, wb),
                    adder.add_words_reference(wa, wb),
                    "k={k} a={a} b={b}"
                );
            }
        }
    }

    #[test]
    fn error_is_bounded_by_two_to_k_plus_one() {
        for kind in FullAdderKind::APPROXIMATE {
            for k in 0..=12u32 {
                let adder = RippleCarryAdder::new(20, k, kind);
                let bound = adder.error_bound();
                for (a, b) in [(1000i64, 2000i64), (-555, 444), (65535, 1)] {
                    let exact = Word::new(a + b, 20).value();
                    let approx = adder.add(a, b);
                    assert!(
                        (approx - exact).abs() <= bound,
                        "{kind} k={k}: |{approx}-{exact}| > {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn cell_counts_partition_width() {
        let adder = RippleCarryAdder::new(32, 12, FullAdderKind::Ama3);
        assert_eq!(adder.cell_counts(), (20, 12));
        let exact = RippleCarryAdder::accurate(32);
        assert_eq!(exact.cell_counts(), (32, 0));
    }

    #[test]
    fn accurate_kind_counts_no_approx_cells_even_with_k() {
        // An "approximate region" built from accurate cells is accurate.
        let adder = RippleCarryAdder::new(32, 12, FullAdderKind::Accurate);
        assert_eq!(adder.cell_counts(), (32, 0));
        assert!(adder.is_exact());
    }

    #[test]
    #[should_panic(expected = "cannot approximate")]
    fn approx_region_wider_than_adder_rejected() {
        let _ = RippleCarryAdder::new(8, 9, FullAdderKind::Ama5);
    }

    #[test]
    fn upper_bits_unaffected_when_carry_region_clean() {
        // With AMA5 and positive operands whose low k bits are zero, the
        // result must be exact.
        let adder = RippleCarryAdder::new(16, 4, FullAdderKind::Ama5);
        assert_eq!(adder.add(0x0F0, 0x100), 0x1F0);
    }

    proptest! {
        #[test]
        fn prop_fast_paths_equal_reference(
            a in -(1i64 << 30)..(1i64 << 30),
            b in -(1i64 << 30)..(1i64 << 30),
            k in 0u32..=32,
            kind_idx in 0usize..6,
        ) {
            let kind = FullAdderKind::ALL[kind_idx];
            let adder = RippleCarryAdder::new(32, k, kind);
            let wa = Word::new(a, 32);
            let wb = Word::new(b, 32);
            prop_assert_eq!(
                adder.add_words(wa, wb),
                adder.add_words_reference(wa, wb)
            );
        }

        #[test]
        fn prop_exact_when_k_zero(
            a in any::<i32>(),
            b in any::<i32>(),
            kind_idx in 0usize..6,
        ) {
            let kind = FullAdderKind::ALL[kind_idx];
            let adder = RippleCarryAdder::new(32, 0, kind);
            let expected = Word::new(i64::from(a) + i64::from(b), 32).value();
            prop_assert_eq!(adder.add(i64::from(a), i64::from(b)), expected);
        }

        #[test]
        fn prop_error_bound_holds(
            a in -(1i64 << 28)..(1i64 << 28),
            b in -(1i64 << 28)..(1i64 << 28),
            k in 0u32..=16,
            kind_idx in 0usize..6,
        ) {
            let kind = FullAdderKind::ALL[kind_idx];
            let adder = RippleCarryAdder::new(32, k, kind);
            let exact = Word::new(a + b, 32).value();
            let approx = adder.add(a, b);
            prop_assert!((approx - exact).abs() <= adder.error_bound());
        }

        #[test]
        fn prop_commutative_for_symmetric_kinds(
            a in any::<i16>(),
            b in any::<i16>(),
            k in 0u32..=16,
        ) {
            // The accurate cell is symmetric in (A, B); the adder built from
            // it must commute. (Approximate kinds like AMA5 are deliberately
            // asymmetric.)
            let adder = RippleCarryAdder::new(16, k, FullAdderKind::Accurate);
            prop_assert_eq!(
                adder.add(i64::from(a), i64::from(b)),
                adder.add(i64::from(b), i64::from(a))
            );
        }
    }
}
