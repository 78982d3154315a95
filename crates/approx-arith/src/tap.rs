//! Per-tap compiled product tables — the FIR hot-loop fast path.
//!
//! A FIR stage multiplies a *varying* sample by a *fixed* integer
//! coefficient on every tap, every cycle. The generic compiled engine
//! ([`CompiledMultiplier`]) still pays four 8×8 block lookups plus three
//! word-level accumulations per 16×16 product; with one operand pinned, the
//! whole multiplier collapses to a single one-dimensional table over the
//! sample magnitude. [`TapMultiplier`] precomputes that table once per
//! distinct `(width, approximated LSBs, elementary kinds, |coefficient|)`
//! and shares it process-wide behind an `Arc`, exactly like the 8×8 block
//! LUTs of [`crate::compiled`] — so a grid search touching many designs
//! reuses every tap table it has ever built for a configuration.
//!
//! The tables are an *evaluation* artifact only: the modeled hardware is
//! still the recursive multiplier netlist (census, error bounds, and energy
//! accounting are untouched), and the products are bit-for-bit those of
//! [`CompiledMultiplier::mul_signed_clamped`] — and therefore of the
//! bit-level [`crate::multiplier::RecursiveMultiplier`] walk (the
//! equivalence is exhaustively tested below and re-checked in CI by the
//! `ext_streaming_speed` gate).
//!
//! # Example
//!
//! ```
//! use approx_arith::{CompiledMultiplier, FullAdderKind, Mult2x2Kind, TapMultiplier};
//!
//! let mul = CompiledMultiplier::new(16, 8, Mult2x2Kind::V1, FullAdderKind::Ama5);
//! let tap = TapMultiplier::new(&mul, 6); // the LPF's centre coefficient
//! for sample in [-1234i64, -1, 0, 1, 777, 32767] {
//!     assert_eq!(tap.mul_clamped(sample), mul.mul_signed_clamped(sample, 6));
//! }
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use crate::compiled::CompiledMultiplier;
use crate::full_adder::FullAdderKind;
use crate::mult2x2::Mult2x2Kind;

/// Cache key of one per-tap product table: `(operand width, approximated
/// LSBs, elementary multiplier, elementary adder, |coefficient|)`.
type TapKey = (u32, u32, Mult2x2Kind, FullAdderKind, u64);

/// Upper bound on cached tap tables. The five Pan-Tompkins stages use seven
/// distinct coefficient magnitudes, so even a full 17-point LSB sweep over
/// several module pairs stays far below this; overflow sheds one arbitrary
/// entry at a time (in-use tables stay alive behind their `Arc`s).
const TAP_CACHE_CAP: usize = 1024;

fn tap_cache() -> &'static Mutex<HashMap<TapKey, Arc<Vec<u32>>>> {
    static CACHE: OnceLock<Mutex<HashMap<TapKey, Arc<Vec<u32>>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Returns the shared product table of a (non-exact) multiplier
/// configuration against a fixed coefficient magnitude, building and
/// memoizing it on first use. Entry `m` is the product magnitude of
/// `m × coeff_mag` for every sample magnitude `m ∈ 0..=2^(width−1)`.
fn shared_tap_lut(multiplier: &CompiledMultiplier, coeff_mag: u64) -> Arc<Vec<u32>> {
    let reference = multiplier.reference();
    let key = (
        multiplier.width(),
        multiplier.approx_lsbs(),
        reference.mult_kind(),
        reference.adder_kind(),
        coeff_mag,
    );
    let cache = tap_cache().lock().expect("tap cache poisoned");
    if let Some(hit) = cache.get(&key) {
        return Arc::clone(hit);
    }
    // Build outside the lock so concurrent workers aren't serialized behind
    // a miss; a racing duplicate build is harmless.
    drop(cache);
    let built = Arc::new(build_tap_lut(multiplier, coeff_mag));
    let mut cache = tap_cache().lock().expect("tap cache poisoned");
    while cache.len() >= TAP_CACHE_CAP {
        let victim = cache.keys().next().copied().expect("cache non-empty");
        cache.remove(&victim);
    }
    Arc::clone(cache.entry(key).or_insert(built))
}

/// Builds the magnitude-indexed product table by running the compiled
/// word-level engine once per sample magnitude.
fn build_tap_lut(multiplier: &CompiledMultiplier, coeff_mag: u64) -> Vec<u32> {
    let limit = 1i64 << (multiplier.width() - 1);
    (0..=limit)
        .map(|mag| {
            let p = multiplier.mul_signed_clamped(mag, coeff_mag as i64);
            debug_assert!((0..1i64 << (2 * multiplier.width())).contains(&p));
            p as u32
        })
        .collect()
}

/// How a tap multiplier evaluates: natively (exact configuration) or via
/// the shared magnitude-indexed product table.
#[derive(Clone)]
enum TapRepr {
    Exact,
    Lut {
        table: Arc<Vec<u32>>,
        /// The table's last index, `2^(width−1)`.
        last: usize,
        /// The sign fold of [`TapTable`]: `-1` when the (clamped)
        /// coefficient is negative, else `0`.
        sign: i64,
    },
}

/// A multiplier specialised to one fixed coefficient: bit-for-bit
/// equivalent to [`CompiledMultiplier::mul_signed_clamped`] against that
/// coefficient, evaluated as a single table lookup.
///
/// The coefficient is clamped into the signed datapath range at
/// construction, the way the saturating fixed-point front-end
/// (`pan_tompkins::ArithBackend::mul`) clamps its operands;
/// [`TapMultiplier::coeff_saturates`] reports whether that happened so
/// callers can keep their per-operand saturation counters exact.
#[derive(Clone)]
pub struct TapMultiplier {
    coeff: i64,
    clamped_coeff: i64,
    width: u32,
    repr: TapRepr,
}

impl TapMultiplier {
    /// Compiles the per-tap table of `multiplier` against `coeff`.
    #[must_use]
    pub fn new(multiplier: &CompiledMultiplier, coeff: i64) -> Self {
        let width = multiplier.width();
        let limit = 1i64 << (width - 1);
        let clamped_coeff = coeff.clamp(-limit, limit - 1);
        let repr = if multiplier.is_exact() {
            TapRepr::Exact
        } else {
            TapRepr::Lut {
                table: shared_tap_lut(multiplier, clamped_coeff.unsigned_abs()),
                last: 1 << (width - 1),
                sign: -i64::from(clamped_coeff < 0),
            }
        };
        Self {
            coeff,
            clamped_coeff,
            width,
            repr,
        }
    }

    /// The coefficient this tap was compiled for, as given.
    #[must_use]
    pub fn coeff(&self) -> i64 {
        self.coeff
    }

    /// The coefficient after the datapath clamp.
    #[must_use]
    pub fn clamped_coeff(&self) -> i64 {
        self.clamped_coeff
    }

    /// Whether the coefficient itself saturated into the datapath range
    /// (contributes one saturation event per multiplication).
    #[must_use]
    pub fn coeff_saturates(&self) -> bool {
        self.clamped_coeff != self.coeff
    }

    /// Operand width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Whether this tap evaluates natively (exact configuration).
    #[must_use]
    pub fn is_exact(&self) -> bool {
        matches!(self.repr, TapRepr::Exact)
    }

    /// Bytes of the process-wide shared product table this tap references
    /// (0 for exact taps, which evaluate natively). The table lives behind
    /// an `Arc` in the global cache and is shared by every tap compiled for
    /// the same `(width, LSBs, kinds, |coefficient|)`, so it is *not*
    /// per-detector state — memory accounting (e.g.
    /// `pan_tompkins::StreamingQrsDetector::state_bytes`) reports it
    /// separately; deduplicate across taps with [`TapMultiplier::table_id`].
    #[must_use]
    pub fn shared_table_bytes(&self) -> usize {
        match &self.repr {
            TapRepr::Exact => 0,
            TapRepr::Lut { table, .. } => table.len() * std::mem::size_of::<u32>(),
        }
    }

    /// Opaque identity of the shared product table (taps compiled from the
    /// same cache entry return the same id), `None` for exact taps. Lets
    /// accounting sum [`TapMultiplier::shared_table_bytes`] without double
    /// counting a table referenced by several taps.
    #[must_use]
    pub fn table_id(&self) -> Option<usize> {
        match &self.repr {
            TapRepr::Exact => None,
            TapRepr::Lut { table, .. } => Some(Arc::as_ptr(table) as usize),
        }
    }

    /// This tap's shared product table and sign fold, or `None` for an
    /// exact tap, which multiplies natively by
    /// [`TapMultiplier::clamped_coeff`]. A lane kernel resolves it once per
    /// tap and runs [`TapTable::mul_clamped`] over every lane.
    #[must_use]
    #[inline]
    pub fn table(&self) -> Option<TapTable<'_>> {
        match &self.repr {
            TapRepr::Exact => None,
            // The table holds exactly `last + 1` entries. Slicing to that
            // bound (never failing) makes the slice length a known
            // `last + 1`, so the compiler drops the per-element bounds
            // check of `TapTable::mul_clamped`.
            TapRepr::Lut { table, last, sign } => Some(TapTable {
                table: &table[..=*last],
                sign: *sign,
            }),
        }
    }

    /// Multiplies a sample the caller has already clamped into
    /// `|a| ≤ 2^(width−1)` by the compiled coefficient — the same contract
    /// as [`CompiledMultiplier::mul_signed_clamped`] with the coefficient
    /// as second operand.
    #[must_use]
    #[inline]
    pub fn mul_clamped(&self, a: i64) -> i64 {
        debug_assert!(a.abs() <= 1i64 << (self.width - 1));
        self.table()
            .map_or(a * self.clamped_coeff, |table| table.mul_clamped(a))
    }
}

/// One tap's shared magnitude-indexed product table plus its sign fold
/// ([`TapMultiplier::table`]).
#[derive(Clone, Copy)]
pub struct TapTable<'a> {
    /// Entry `m` is the product magnitude for sample magnitude `m`, for
    /// every `m ∈ 0..=2^(width−1)` — never empty.
    table: &'a [u32],
    /// `-1` when the clamped coefficient is negative, else `0` — the sign
    /// is exact in the sign-magnitude core, so it folds into one XOR with
    /// the sample's sign mask.
    sign: i64,
}

impl TapTable<'_> {
    /// The table product, branch-free: [`TapMultiplier::mul_clamped`] of a
    /// table-backed tap, and what lane kernels run per element. The index
    /// is clamped to the last entry, which never changes an in-contract
    /// magnitude but, with the slice length known from
    /// [`TapMultiplier::table`], lets the compiler drop the bounds check,
    /// so lane loops over it vectorize into gathers.
    #[must_use]
    #[inline(always)]
    pub fn mul_clamped(self, a: i64) -> i64 {
        let last = self.table.len() - 1;
        // WIDTH: |a| ≤ 2^(width−1) ≤ 2^31 by contract, so it fits usize.
        let mag = i64::from(self.table[(a.unsigned_abs() as usize).min(last)]);
        let s = (a >> 63) ^ self.sign;
        (mag ^ s) - s
    }
}

impl fmt::Debug for TapTable<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TapTable")
            .field("entries", &self.table.len())
            .field("negate", &(self.sign != 0))
            .finish()
    }
}

impl fmt::Debug for TapMultiplier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TapMultiplier")
            .field("coeff", &self.coeff)
            .field("width", &self.width)
            .field("is_exact", &self.is_exact())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiplier::RecursiveMultiplier;

    /// Every distinct coefficient magnitude appearing in the five
    /// Pan-Tompkins stage netlists (LPF 1..6, HPF 1/31, DER 1/2), both
    /// signs where the stages use them.
    const STAGE_COEFFS: [i64; 9] = [1, 2, 3, 4, 5, 6, 31, -1, -2];

    /// The satellite contract: an exhaustive 8-bit sweep proving the
    /// per-tap LUT path equals both the compiled word-level engine and the
    /// bit-level netlist walk for every elementary-module pair the stages
    /// can be configured with.
    #[test]
    fn exhaustive_8bit_sweep_matches_both_engines() {
        let limit = 1i64 << 7;
        for add in FullAdderKind::ALL {
            for mult in Mult2x2Kind::ALL {
                for k in [1u32, 4, 8, 12, 16] {
                    let bit = RecursiveMultiplier::new(8, k, mult, add);
                    let fast = CompiledMultiplier::from_recursive(&bit);
                    for &c in &STAGE_COEFFS {
                        let tap = TapMultiplier::new(&fast, c);
                        assert_eq!(tap.table().is_none(), tap.is_exact());
                        for a in -limit..=(limit - 1) {
                            let got = tap.mul_clamped(a);
                            let want_fast = fast.mul_signed_clamped(a, c);
                            assert_eq!(got, want_fast, "{mult} {add} k={k} c={c} a={a}");
                            let want_bit = bit.mul(a, c);
                            assert_eq!(
                                got, want_bit,
                                "vs bit-level: {mult} {add} k={k} c={c} a={a}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The production width: every sample magnitude of the 16-bit datapath
    /// against every stage coefficient, on the paper's least-energy modules.
    #[test]
    fn exhaustive_16bit_magnitudes_match_compiled() {
        for k in [4u32, 8, 12] {
            let fast = CompiledMultiplier::new(16, k, Mult2x2Kind::V1, FullAdderKind::Ama5);
            for &c in &STAGE_COEFFS {
                let tap = TapMultiplier::new(&fast, c);
                assert!(tap.table().is_some(), "approximate taps are table-backed");
                for mag in 0..=(1i64 << 15) {
                    for a in [mag, -mag] {
                        let want = fast.mul_signed_clamped(a, c);
                        assert_eq!(tap.mul_clamped(a), want, "k={k} c={c} a={a}");
                    }
                }
            }
        }
    }

    #[test]
    fn exact_configurations_multiply_natively() {
        let tap = TapMultiplier::new(&CompiledMultiplier::accurate(16), -7);
        assert!(tap.is_exact());
        assert_eq!(tap.mul_clamped(1234), -8638);
        assert_eq!(tap.mul_clamped(-3), 21);
    }

    #[test]
    fn tables_are_shared_between_identical_taps() {
        let fast = CompiledMultiplier::new(16, 6, Mult2x2Kind::V1, FullAdderKind::Ama3);
        let a = TapMultiplier::new(&fast, 5);
        let b = TapMultiplier::new(&fast, 5);
        let c = TapMultiplier::new(&fast, -5); // same magnitude, same table
        match (&a.repr, &b.repr, &c.repr) {
            (
                TapRepr::Lut { table: ta, .. },
                TapRepr::Lut { table: tb, .. },
                TapRepr::Lut { table: tc, .. },
            ) => {
                assert!(Arc::ptr_eq(ta, tb));
                assert!(Arc::ptr_eq(ta, tc));
            }
            _ => panic!("approximate taps must be table-backed"),
        }
    }

    #[test]
    fn oversized_coefficient_clamps_and_reports() {
        let fast = CompiledMultiplier::new(16, 8, Mult2x2Kind::V1, FullAdderKind::Ama5);
        let tap = TapMultiplier::new(&fast, 1 << 20);
        assert!(tap.coeff_saturates());
        assert_eq!(tap.clamped_coeff(), 32767);
        assert_eq!(tap.mul_clamped(3), fast.mul_signed_clamped(3, 32767));
        let in_range = TapMultiplier::new(&fast, 31);
        assert!(!in_range.coeff_saturates());
    }

    #[test]
    fn zero_coefficient_always_zero() {
        let fast = CompiledMultiplier::new(16, 12, Mult2x2Kind::V2, FullAdderKind::Ama1);
        let tap = TapMultiplier::new(&fast, 0);
        for a in [-32768i64, -1, 0, 1, 32767] {
            assert_eq!(tap.mul_clamped(a), fast.mul_signed_clamped(a, 0));
        }
    }

    #[test]
    fn table_accounting_reports_shared_identity() {
        let exact = CompiledMultiplier::new(16, 0, Mult2x2Kind::V1, FullAdderKind::Accurate);
        let native = TapMultiplier::new(&exact, 6);
        assert_eq!(native.shared_table_bytes(), 0);
        assert_eq!(native.table_id(), None);

        let approx = CompiledMultiplier::new(16, 8, Mult2x2Kind::V1, FullAdderKind::Ama5);
        let a = TapMultiplier::new(&approx, 6);
        let b = TapMultiplier::new(&approx, -6);
        // One magnitude-indexed entry per sample magnitude 0..=2^15.
        assert_eq!(a.shared_table_bytes(), ((1 << 15) + 1) * 4);
        assert_eq!(a.table_id(), b.table_id(), "same table, same identity");
        let other = TapMultiplier::new(&approx, 31);
        assert_ne!(a.table_id(), other.table_id());
    }
}
