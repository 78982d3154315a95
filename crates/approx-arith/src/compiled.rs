//! Compiled word-level fast-path engine for the recursive multipliers.
//!
//! [`crate::multiplier::RecursiveMultiplier`] walks the paper's 2×2/full-adder
//! structure on every multiplication — faithful, but ~two orders of magnitude
//! slower than the hardware model needs to be at design-space-exploration
//! scale (the paper's Fig 11 projects exhaustive search into *years* at
//! ~300 s per behavioral evaluation). [`CompiledMultiplier`] produces
//! bit-for-bit identical products from a table-compiled representation:
//!
//! * every distinct **8×8 sub-block configuration** `(width, local LSBs,
//!   elementary kinds)` is memoized once into a 64 Ki-entry LUT (`u16`
//!   entries ⇒ 128 KiB per unique configuration) shared process-wide behind
//!   an `Arc`;
//! * a 16×16 multiplier composes its four 8×8 blocks with the paper's three
//!   32-bit accumulation adders, evaluated through the closed-form word-level
//!   paths of [`crate::adder::RippleCarryAdder::add_words`] (no per-bit
//!   rippling for any [`FullAdderKind`]).
//!
//! The key observation making the cache effective: a `W/2 × W/2` sub-block
//! at output weight `w` inside a multiplier approximating `k` LSBs behaves
//! exactly like a *standalone* `W/2`-bit multiplier approximating
//! `k − w` LSBs (every structural comparison inside the block is of the form
//! `w + c ≤ k`). So the block LUTs are keyed by `(width, k − w, kinds)` and
//! shared across grid points of an exploration run — e.g. the `k` and `k+8`
//! designs of an LSB sweep reuse each other's sub-block tables.
//!
//! Equivalence to the bit-level engine is property-tested across the full
//! configuration grid (see the tests here and `DESIGN.md` §5 for the
//! argument); the `ext_compiled_speed` bench binary re-checks a fixed vector
//! set in CI and measures the speedup.
//!
//! The detection pipeline does not run this engine per sample. A FIR tap
//! or the squarer pins one operand, so its product is the exact one plus a
//! small residual table ([`crate::tap`]); this engine builds those
//! residuals and serves the generic multiply of the scalar reference
//! pipeline.
//!
//! # Example
//!
//! ```
//! use approx_arith::{CompiledMultiplier, FullAdderKind, Mult2x2Kind, RecursiveMultiplier};
//!
//! let bit_level = RecursiveMultiplier::new(16, 10, Mult2x2Kind::V1, FullAdderKind::Ama5);
//! let compiled = CompiledMultiplier::from_recursive(&bit_level);
//! for (a, b) in [(1234, 567), (65535, 65535), (40000, 3)] {
//!     assert_eq!(compiled.mul_unsigned(a, b), bit_level.mul_unsigned(a, b));
//! }
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use crate::adder::RippleCarryAdder;
use crate::full_adder::FullAdderKind;
use crate::mult2x2::Mult2x2Kind;
use crate::multiplier::{ModuleCensus, RecursiveMultiplier};

/// Cache key of one memoized block table: `(operand width, local approx
/// LSBs, elementary multiplier, elementary adder)`.
type LutKey = (u32, u32, Mult2x2Kind, FullAdderKind);

/// Upper bound on cached tables, sized to hold the *entire* reachable
/// width-8 configuration space (16 LSB depths × 17 non-exact module pairs =
/// 272 tables) plus the small width-4/2 tables, so even a full-grid sweep
/// (the CI equivalence gate, the exhaustive proptests) never evicts a hot
/// entry. Worst case 384 × 128 KiB = 48 MiB; overflow evicts one arbitrary
/// entry at a time rather than wiping the cache.
const CACHE_CAP: usize = 384;

fn lut_cache() -> &'static Mutex<HashMap<LutKey, Arc<Vec<u16>>>> {
    static CACHE: OnceLock<Mutex<HashMap<LutKey, Arc<Vec<u16>>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Returns the shared product table for a (non-exact) block configuration,
/// building and memoizing it on first use.
fn shared_lut(width: u32, local_k: u32, mult: Mult2x2Kind, add: FullAdderKind) -> Arc<Vec<u16>> {
    // Canonicalize the key: a 2×2 block contains no adder cells at all, and
    // its elementary module only engages once the whole 4-bit result sits in
    // the approximate region (k ≥ 4) — otherwise distinct kinds would cache
    // bit-identical tables under different keys.
    let (mult, add) = if width == 2 {
        let m = if local_k >= 4 {
            mult
        } else {
            Mult2x2Kind::Accurate
        };
        (m, FullAdderKind::Accurate)
    } else {
        (mult, add)
    };
    let key = (width, local_k, mult, add);
    let cache = lut_cache().lock().expect("LUT cache poisoned");
    if let Some(hit) = cache.get(&key) {
        return Arc::clone(hit);
    }
    // Release the lock while building so concurrent workers aren't
    // serialized behind a miss; a racing duplicate build is harmless (the
    // loser's table is dropped).
    drop(cache);
    let built = Arc::new(build_lut(width, local_k, mult, add));
    let mut cache = lut_cache().lock().expect("LUT cache poisoned");
    while cache.len() >= CACHE_CAP {
        // Shed one arbitrary entry; in-use tables stay alive behind their
        // `Arc`s, so the worst case is a rebuild, never a dangling block.
        let victim = cache.keys().next().copied().expect("cache non-empty");
        cache.remove(&victim);
    }
    Arc::clone(cache.entry(key).or_insert(built))
}

/// One sub-block evaluator: either provably exact (native multiply) or a
/// memoized product table.
#[derive(Clone)]
enum Block {
    Exact,
    Lut(Arc<Vec<u16>>),
}

impl Block {
    /// Builds the evaluator for a `width × width` block approximating
    /// `local_k` output LSBs.
    fn new(width: u32, local_k: u32, mult: Mult2x2Kind, add: FullAdderKind) -> Block {
        if local_k == 0 || (mult.is_accurate() && add.is_accurate()) {
            Block::Exact
        } else {
            Block::Lut(shared_lut(width, local_k, mult, add))
        }
    }

    #[inline]
    fn eval(&self, width: u32, a: u64, b: u64) -> u64 {
        match self {
            Block::Exact => a * b,
            // Tables are laid out `[b][a]`: the FIR workloads multiply a
            // varying sample by a small fixed coefficient, so keying the
            // major dimension by `b` keeps each tap's lookups inside one
            // contiguous 2^width-entry row (cache-resident) instead of
            // striding across the whole table.
            Block::Lut(table) => u64::from(table[((b << width) | a) as usize]),
        }
    }
}

/// Builds the full product table of a `width × width` block (`width ≤ 8`)
/// by composing the half-width blocks with the word-level accumulation
/// adders — the same structure [`RecursiveMultiplier`] walks, evaluated
/// once per operand pair instead of once per multiplication.
fn build_lut(width: u32, k: u32, mult: Mult2x2Kind, add: FullAdderKind) -> Vec<u16> {
    assert!(width <= 8, "direct tables stop at 8×8 (128 KiB)");
    let n = 1u64 << width;
    if width == 2 {
        // Recursion bottom: the elementary module itself (approximate only
        // when its whole 4-bit result lands below bit k). `[b][a]` layout.
        let kind = if k >= 4 { mult } else { Mult2x2Kind::Accurate };
        return (0..n * n)
            .map(|i| u16::from(kind.eval((i & 3) as u8, (i >> 2) as u8)))
            .collect();
    }
    let half = width / 2;
    let composed = ComposedBlocks::new(width, k, mult, add);
    let hmask = (1u64 << half) - 1;
    let mut table = Vec::with_capacity((n * n) as usize);
    // `[b][a]` layout — see `Block::eval`.
    for b in 0..n {
        for a in 0..n {
            let p = composed.eval(a >> half, a & hmask, b >> half, b & hmask);
            debug_assert!(p < (1u64 << (2 * width)));
            table.push(p as u16);
        }
    }
    table
}

/// The four half-width blocks and accumulation adder of one composition
/// level (paper Fig 7): `A×B = LL + (HL + LH)·2^half + HH·2^width`.
#[derive(Clone)]
struct ComposedBlocks {
    half: u32,
    out_width: u32,
    /// `AL·BL` — sees the full `k`.
    low: Block,
    /// `AH·BL` and `AL·BH` — at output weight `half`, so `k − half`.
    mid: Block,
    /// `AH·BH` — at output weight `width`, so `k − width`.
    high: Block,
    adder: RippleCarryAdder,
}

impl ComposedBlocks {
    fn new(width: u32, k: u32, mult: Mult2x2Kind, add: FullAdderKind) -> ComposedBlocks {
        let half = width / 2;
        // A sub-block's behavior saturates at its own output width.
        let sub_k = |base: u32| k.saturating_sub(base).min(width);
        ComposedBlocks {
            half,
            out_width: 2 * width,
            low: Block::new(half, sub_k(0), mult, add),
            mid: Block::new(half, sub_k(half), mult, add),
            high: Block::new(half, sub_k(width), mult, add),
            adder: RippleCarryAdder::new(2 * width, k.min(2 * width), add),
        }
    }

    /// Evaluates the composition on split operands, mirroring
    /// `RecursiveMultiplier::mul_rec`'s accumulation order exactly (the
    /// shifted partial products are truncated to the output width before
    /// each accumulation, as `mul_rec`'s `shift` closure does).
    #[inline]
    fn eval(&self, ah: u64, al: u64, bh: u64, bl: u64) -> u64 {
        let half = self.half;
        let ll = self.low.eval(half, al, bl);
        let hl = self.mid.eval(half, ah, bl);
        let lh = self.mid.eval(half, al, bh);
        let hh = self.high.eval(half, ah, bh);
        let out_mask = (1u64 << self.out_width) - 1;
        let t1 = self.adder.add_bits(ll, (hl << half) & out_mask);
        let t2 = self.adder.add_bits(t1, (lh << half) & out_mask);
        self.adder.add_bits(t2, (hh << (2 * half)) & out_mask)
    }
}

#[derive(Clone)]
enum Repr {
    /// The configuration computes exactly: native machine multiply.
    Exact,
    /// `width ≤ 8`: one direct product table over the whole operand pair.
    Table(Arc<Vec<u16>>),
    /// `width = 16`: four 8×8 blocks + the three 32-bit top-level adders.
    Composed(ComposedBlocks),
}

/// A table-compiled multiplier, bit-for-bit equivalent to the
/// [`RecursiveMultiplier`] of the same configuration.
///
/// Construction memoizes the sub-block product tables process-wide, so
/// building one is cheap after the first time a configuration (or a
/// neighbouring one sharing sub-blocks) has been seen — the intended usage
/// is one instance per evaluated design point of an exploration run.
///
/// # Example
///
/// ```
/// use approx_arith::{CompiledMultiplier, FullAdderKind, Mult2x2Kind};
///
/// let exact = CompiledMultiplier::accurate(16);
/// assert_eq!(exact.mul(-321, 123), -321 * 123);
///
/// let approx = CompiledMultiplier::new(16, 8, Mult2x2Kind::V1, FullAdderKind::Ama5);
/// let p = approx.mul(-321, 123);
/// assert!((p - (-321 * 123)).abs() < 1 << 12);
/// ```
#[derive(Clone)]
pub struct CompiledMultiplier {
    reference: RecursiveMultiplier,
    repr: Repr,
}

impl CompiledMultiplier {
    /// Compiles a multiplier for `width`-bit operands (`width ∈ {2,4,8,16}`)
    /// with `approx_lsbs` of the `2·width`-bit output approximated.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`RecursiveMultiplier::new`].
    #[must_use]
    pub fn new(
        width: u32,
        approx_lsbs: u32,
        mult_kind: Mult2x2Kind,
        adder_kind: FullAdderKind,
    ) -> Self {
        Self::from_recursive(&RecursiveMultiplier::new(
            width,
            approx_lsbs,
            mult_kind,
            adder_kind,
        ))
    }

    /// Compiles the fast-path twin of an existing bit-level multiplier.
    #[must_use]
    pub fn from_recursive(reference: &RecursiveMultiplier) -> Self {
        let (width, k) = (reference.width(), reference.approx_lsbs());
        let (mult, add) = (reference.mult_kind(), reference.adder_kind());
        let repr = if reference.is_exact() {
            Repr::Exact
        } else if width <= 8 {
            Repr::Table(shared_lut(width, k, mult, add))
        } else {
            Repr::Composed(ComposedBlocks::new(width, k, mult, add))
        };
        Self {
            reference: *reference,
            repr,
        }
    }

    /// A fully accurate compiled multiplier of the given operand width.
    #[must_use]
    pub fn accurate(width: u32) -> Self {
        Self::from_recursive(&RecursiveMultiplier::accurate(width))
    }

    /// The bit-level multiplier this engine was compiled from.
    #[must_use]
    pub fn reference(&self) -> &RecursiveMultiplier {
        &self.reference
    }

    /// Operand width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.reference.width()
    }

    /// Product width in bits (`2 × width`).
    #[must_use]
    pub fn output_width(&self) -> u32 {
        self.reference.output_width()
    }

    /// Number of approximated output LSBs.
    #[must_use]
    pub fn approx_lsbs(&self) -> u32 {
        self.reference.approx_lsbs()
    }

    /// Whether the configuration computes exactly.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.reference.is_exact()
    }

    /// Elementary-module census of the modeled structure (the cost model's
    /// input — compilation changes evaluation speed, not the hardware).
    #[must_use]
    pub fn census(&self) -> ModuleCensus {
        self.reference.census()
    }

    /// Conservative worst-case absolute error bound (see
    /// [`RecursiveMultiplier::error_bound`]).
    #[must_use]
    pub fn error_bound(&self) -> i64 {
        self.reference.error_bound()
    }

    /// Multiplies two unsigned operands that must fit in `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit in `width` bits.
    #[must_use]
    #[inline]
    pub fn mul_unsigned(&self, a: u64, b: u64) -> u64 {
        let width = self.reference.width();
        assert!(
            a < (1u64 << width) && b < (1u64 << width),
            "operands must fit in {width} bits"
        );
        self.mul_bits(a, b)
    }

    /// Multiplies two sign-magnitude operands with the caller vouching for
    /// range: `|a|, |b| ≤ 2^(width−1)` (the saturating fixed-point
    /// front-ends already clamp, so the hot path skips re-validation).
    #[must_use]
    #[inline]
    pub fn mul_signed_clamped(&self, a: i64, b: i64) -> i64 {
        debug_assert!(
            a.abs() <= 1i64 << (self.reference.width() - 1)
                && b.abs() <= 1i64 << (self.reference.width() - 1)
        );
        let negative = (a < 0) ^ (b < 0);
        let mag = self.mul_bits(a.unsigned_abs(), b.unsigned_abs()) as i64;
        if negative {
            -mag
        } else {
            mag
        }
    }

    /// The assert-free unsigned core (operands already range-checked).
    #[inline]
    fn mul_bits(&self, a: u64, b: u64) -> u64 {
        match &self.repr {
            Repr::Exact => a * b,
            // `[b][a]` layout — see `Block::eval`.
            Repr::Table(table) => u64::from(table[((b << self.reference.width()) | a) as usize]),
            Repr::Composed(c) => {
                let half = self.reference.width() / 2;
                let hmask = (1u64 << half) - 1;
                c.eval(a >> half, a & hmask, b >> half, b & hmask)
            }
        }
    }

    /// Multiplies two signed operands (sign-magnitude; the sign is exact) —
    /// same contract as [`RecursiveMultiplier::mul`].
    ///
    /// # Panics
    ///
    /// Panics if an operand magnitude exceeds `2^(width-1)`.
    #[must_use]
    #[inline]
    pub fn mul(&self, a: i64, b: i64) -> i64 {
        let limit = 1i64 << (self.reference.width() - 1);
        assert!(
            a.abs() <= limit && b.abs() <= limit,
            "signed operand magnitude exceeds {limit}"
        );
        self.mul_signed_clamped(a, b)
    }
}

impl fmt::Debug for CompiledMultiplier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledMultiplier")
            .field("width", &self.reference.width())
            .field("approx_lsbs", &self.reference.approx_lsbs())
            .field("mult_kind", &self.reference.mult_kind())
            .field("adder_kind", &self.reference.adder_kind())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const WIDTHS: [u32; 4] = [2, 4, 8, 16];

    #[test]
    fn exhaustive_equivalence_at_small_widths() {
        for width in [2u32, 4] {
            for k in 0..=2 * width {
                for mult in Mult2x2Kind::ALL {
                    for add in FullAdderKind::ALL {
                        let bit = RecursiveMultiplier::new(width, k, mult, add);
                        let fast = CompiledMultiplier::from_recursive(&bit);
                        for a in 0..(1u64 << width) {
                            for b in 0..(1u64 << width) {
                                assert_eq!(
                                    fast.mul_unsigned(a, b),
                                    bit.mul_unsigned(a, b),
                                    "w={width} k={k} {mult} {add} {a}x{b}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn full_8x8_table_matches_bit_level_for_paper_modules() {
        // The paper's main module pair, across the LSB sweep: every
        // operand pair of the whole 64 Ki table.
        for k in [1u32, 4, 7, 8, 12, 16] {
            let bit = RecursiveMultiplier::new(8, k, Mult2x2Kind::V1, FullAdderKind::Ama5);
            let fast = CompiledMultiplier::from_recursive(&bit);
            for a in 0..256u64 {
                for b in 0..256u64 {
                    assert_eq!(
                        fast.mul_unsigned(a, b),
                        bit.mul_unsigned(a, b),
                        "k={k} {a}x{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_configurations_use_native_multiplication() {
        for width in WIDTHS {
            let fast = CompiledMultiplier::accurate(width);
            assert!(fast.is_exact());
            let max = (1u64 << width) - 1;
            assert_eq!(fast.mul_unsigned(max, max), max * max);
        }
        // k = 0 with approximate kinds is exact too.
        let fast = CompiledMultiplier::new(16, 0, Mult2x2Kind::V2, FullAdderKind::Ama5);
        assert!(fast.is_exact());
        assert_eq!(fast.mul_unsigned(54321, 12345), 54321 * 12345);
    }

    #[test]
    fn luts_are_shared_between_instances() {
        let a = CompiledMultiplier::new(8, 6, Mult2x2Kind::V1, FullAdderKind::Ama3);
        let b = CompiledMultiplier::new(8, 6, Mult2x2Kind::V1, FullAdderKind::Ama3);
        match (&a.repr, &b.repr) {
            (Repr::Table(ta), Repr::Table(tb)) => {
                assert!(Arc::ptr_eq(ta, tb), "identical configs must share LUTs");
            }
            _ => panic!("8-bit approximate configs must be table-backed"),
        }
    }

    #[test]
    fn sixteen_bit_sub_blocks_share_shifted_configurations() {
        // The hh block of a k=24 multiplier (local k = 8) is the ll block
        // of a k=8 multiplier — one shared table serves both.
        let outer = CompiledMultiplier::new(16, 24, Mult2x2Kind::V1, FullAdderKind::Ama5);
        let inner = CompiledMultiplier::new(8, 8, Mult2x2Kind::V1, FullAdderKind::Ama5);
        let (Repr::Composed(c), Repr::Table(t)) = (&outer.repr, &inner.repr) else {
            panic!("unexpected representations");
        };
        let Block::Lut(high) = &c.high else {
            panic!("hh block of k=24 must be approximate");
        };
        assert!(Arc::ptr_eq(high, t));
    }

    #[test]
    fn census_and_error_bound_delegate_to_the_structure() {
        let bit = RecursiveMultiplier::new(16, 12, Mult2x2Kind::V1, FullAdderKind::Ama5);
        let fast = CompiledMultiplier::from_recursive(&bit);
        assert_eq!(fast.census(), bit.census());
        assert_eq!(fast.error_bound(), bit.error_bound());
        assert_eq!(fast.output_width(), 32);
    }

    #[test]
    #[should_panic(expected = "must fit")]
    fn oversized_unsigned_operand_rejected() {
        let _ = CompiledMultiplier::accurate(8).mul_unsigned(256, 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_width_rejected() {
        let _ = CompiledMultiplier::accurate(12);
    }

    proptest! {
        /// The satellite contract: equivalence over the *full* configuration
        /// grid — every width × LSB depth × elementary module pair, with
        /// random operands.
        #[test]
        fn prop_compiled_equals_bit_level_across_config_grid(
            raw_a in 0u64..65536,
            raw_b in 0u64..65536,
            k_raw in 0u32..=32,
            w_idx in 0usize..4,
            mk in 0usize..3,
            ak in 0usize..6,
        ) {
            let width = WIDTHS[w_idx];
            let k = k_raw.min(2 * width);
            let mask = (1u64 << width) - 1;
            let (a, b) = (raw_a & mask, raw_b & mask);
            let bit = RecursiveMultiplier::new(
                width, k, Mult2x2Kind::ALL[mk], FullAdderKind::ALL[ak],
            );
            let fast = CompiledMultiplier::from_recursive(&bit);
            prop_assert_eq!(fast.mul_unsigned(a, b), bit.mul_unsigned(a, b));
        }

        /// Signed multiplication shares the exact sign-magnitude front-end.
        #[test]
        fn prop_signed_compiled_equals_bit_level(
            a in -32768i64..=32767,
            b in -32768i64..=32767,
            k in 0u32..=32,
            mk in 0usize..3,
            ak in 0usize..6,
        ) {
            let bit = RecursiveMultiplier::new(
                16, k, Mult2x2Kind::ALL[mk], FullAdderKind::ALL[ak],
            );
            let fast = CompiledMultiplier::from_recursive(&bit);
            prop_assert_eq!(fast.mul(a, b), bit.mul(a, b));
        }
    }
}
