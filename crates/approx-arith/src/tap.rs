//! Residual product tables — the FIR and squarer fast path.
//!
//! The recursive multiplier (paper Fig 7) approximates only the 2×2
//! modules whose output lands below bit `k` and the adder cells below
//! weight `k`. So with one operand pinned, the error of a product depends
//! only on the other operand's low `k` bits:
//!
//! ```text
//! approx(m, c) = m·c + R_c[m mod 2^k]        approx(m, m) = m² + S[m mod 2^k]
//! ```
//!
//! A FIR tap multiplies a varying sample by a fixed coefficient, and the
//! squarer multiplies a sample by itself, so both evaluate a product as the
//! exact one plus one lookup in a residual table: [`TapMultiplier`] holds
//! `R_c`, [`SquareMultiplier`] holds `S`. A residual has one entry per
//! value of `m mod 2^k`, capped at the `2^(width−1) + 1` magnitudes a
//! clamped operand can take — so `k ≥ width` is the full-width case of the
//! same form, not a second path. Entries are `u32`, the residual
//! `(approx − exact) mod 2^32`, added back with wrapping arithmetic: exact,
//! because every product of a ≤16-bit multiplier is below `2^32`.
//!
//! Each residual is built once per distinct `(width, approximated LSBs,
//! elementary kinds, operand)` from the compiled word-level engine and
//! shared process-wide behind an `Arc`, like the 8×8 block LUTs of
//! [`crate::compiled`]. A residual already in the cache needs no compiled
//! engine at all ([`TapMultiplier::from_recursive`]).
//!
//! The tables are an *evaluation* artifact only: the modeled hardware is
//! still the recursive multiplier netlist (census, error bounds, and energy
//! accounting are untouched), and the products are bit-for-bit those of
//! [`CompiledMultiplier::mul_signed_clamped`] — and therefore of the
//! bit-level [`crate::multiplier::RecursiveMultiplier`] walk. The tests
//! below prove the identity exhaustively (every module pair, every `k` up
//! to 16, every stage coefficient magnitude and squares, every sample
//! magnitude), and `ext_compiled_speed --check` re-checks taps and squares
//! against the netlist walk at every `k` in CI.
//!
//! # Example
//!
//! ```
//! use approx_arith::{CompiledMultiplier, FullAdderKind, Mult2x2Kind, SquareMultiplier, TapMultiplier};
//!
//! let mul = CompiledMultiplier::new(16, 8, Mult2x2Kind::V1, FullAdderKind::Ama5);
//! let tap = TapMultiplier::new(&mul, 6); // the LPF's centre coefficient
//! let sqr = SquareMultiplier::new(&mul);
//! assert_eq!(tap.shared_table_bytes(), (1 << 8) * 4); // 2^k entries
//! for sample in [-1234i64, -1, 0, 1, 777, 32767] {
//!     assert_eq!(tap.mul_clamped(sample), mul.mul_signed_clamped(sample, 6));
//!     assert_eq!(sqr.square_clamped(sample), mul.mul_signed_clamped(sample, sample));
//! }
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use crate::compiled::CompiledMultiplier;
use crate::full_adder::FullAdderKind;
use crate::mult2x2::Mult2x2Kind;
use crate::multiplier::RecursiveMultiplier;

/// The pinned operand a residual corrects products for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Operand {
    /// A fixed coefficient magnitude (a FIR tap).
    Coeff(u64),
    /// The sample itself (the squarer).
    Square,
}

/// Cache key of one residual: `(operand width, approximated LSBs,
/// elementary multiplier, elementary adder, operand)`.
type ResidualKey = (u32, u32, Mult2x2Kind, FullAdderKind, Operand);

/// Upper bound on the bytes of cached residuals. The five Pan-Tompkins
/// stages use seven coefficient magnitudes and one squarer, and residuals
/// below `k = 15` hold at most 16 Ki entries, so explorations stay far
/// below it; a full-width sweep (CI's equivalence gate builds 128 KiB
/// residuals for every `k ≥ 15` of every module pair) sheds one arbitrary
/// entry at a time instead of growing without bound (in-use residuals stay
/// alive behind their `Arc`s).
const RESIDUAL_CACHE_BYTES: usize = 32 << 20;

fn residual_cache() -> &'static Mutex<HashMap<ResidualKey, Arc<[u32]>>> {
    static CACHE: OnceLock<Mutex<HashMap<ResidualKey, Arc<[u32]>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Entries of a residual for `width`-bit operands approximating `k` LSBs:
/// one per value of `m mod 2^k`, capped at the `2^(width−1) + 1` magnitudes
/// of a clamped operand.
fn residual_len(width: u32, k: u32) -> usize {
    (1usize << k.min(width)).min((1 << (width - 1)) + 1)
}

/// Builds a residual by running the compiled word-level engine once per
/// entry: entry `m` is `(approx − exact) mod 2^32` for operand magnitude
/// `m`.
fn build_residual(multiplier: &CompiledMultiplier, operand: Operand) -> Vec<u32> {
    let len = residual_len(multiplier.width(), multiplier.approx_lsbs());
    (0..len as i64)
        .map(|m| {
            let b = match operand {
                // WIDTH: a clamped coefficient magnitude is at most 2^15.
                Operand::Coeff(c) => c as i64,
                Operand::Square => m,
            };
            let p = multiplier.mul_signed_clamped(m, b);
            debug_assert!((0..1i64 << (2 * multiplier.width())).contains(&p));
            // WIDTH: both the approximate and the exact product are below
            // 2^32 (≤16-bit operands), so the wrapping difference is the
            // residual mod 2^32.
            (p as u32).wrapping_sub((m * b) as u32)
        })
        .collect()
}

/// A shared residual and its index mask.
#[derive(Clone)]
struct Residual {
    table: Arc<[u32]>,
    /// The table's last index (it is never empty).
    last: usize,
    /// `2^min(k, width) − 1`: keeps `m mod 2^k` below `k = width`, and the
    /// whole magnitude from there on.
    mask: usize,
}

impl Residual {
    /// The shared residual of `reference`'s configuration for `operand`,
    /// from the cache or built on a miss; `compiled` is asked for the
    /// compiled engine only on a miss.
    fn shared<'a>(
        reference: &RecursiveMultiplier,
        operand: Operand,
        compiled: impl FnOnce() -> &'a CompiledMultiplier,
    ) -> Self {
        let (width, k) = (reference.width(), reference.approx_lsbs());
        let key = (
            width,
            k,
            reference.mult_kind(),
            reference.adder_kind(),
            operand,
        );
        let mask = (1usize << k.min(width)) - 1;
        let last = residual_len(width, k) - 1;
        let hit = residual_cache()
            .lock()
            .expect("residual cache poisoned")
            .get(&key)
            .cloned();
        if let Some(table) = hit {
            return Self { table, last, mask };
        }
        // Build outside the lock so concurrent workers aren't serialized
        // behind a miss; a racing duplicate build is harmless.
        let multiplier = compiled();
        debug_assert_eq!(multiplier.reference(), reference);
        let built: Arc<[u32]> = build_residual(multiplier, operand).into();
        let mut cache = residual_cache().lock().expect("residual cache poisoned");
        let mut bytes = cache
            .values()
            .map(|t| std::mem::size_of_val(&**t))
            .sum::<usize>();
        while bytes + std::mem::size_of_val(&*built) > RESIDUAL_CACHE_BYTES {
            let Some(victim) = cache.keys().next().copied() else {
                break;
            };
            bytes -= cache
                .remove(&victim)
                .map_or(0, |t| std::mem::size_of_val(&*t));
        }
        let table = Arc::clone(cache.entry(key).or_insert(built));
        Self { table, last, mask }
    }

    fn bytes(&self) -> usize {
        std::mem::size_of_val(&*self.table)
    }

    fn id(&self) -> usize {
        Arc::as_ptr(&self.table).cast::<u32>() as usize
    }

    /// The residual for a kernel's inner loop. The table holds exactly
    /// `last + 1` entries; slicing to that bound (never failing) makes the
    /// slice length a known `last + 1`, so the compiler drops the
    /// per-element bounds check of [`ResidualRef::at`].
    #[inline]
    fn view(&self) -> ResidualRef<'_> {
        ResidualRef {
            table: &self.table[..=self.last],
            mask: self.mask,
        }
    }
}

/// A residual in use, borrowed for a kernel's inner loop.
#[derive(Clone, Copy)]
struct ResidualRef<'a> {
    /// Never empty (see [`Residual::view`]).
    table: &'a [u32],
    mask: usize,
}

impl ResidualRef<'_> {
    /// The residual of operand magnitude `m ≤ 2^(width−1)`. The index is
    /// clamped to the last entry, which never changes an in-contract index
    /// but lets the compiler drop the bounds check, so lane loops over it
    /// vectorize into gathers.
    #[inline(always)]
    fn at(self, m: u64) -> u32 {
        // WIDTH: m ≤ 2^(width−1) ≤ 2^15 by contract, so it fits usize.
        self.table[(m as usize & self.mask).min(self.table.len() - 1)]
    }
}

/// A multiplier specialised to one fixed coefficient: bit-for-bit
/// equivalent to [`CompiledMultiplier::mul_signed_clamped`] against that
/// coefficient, evaluated as the exact product plus one residual lookup.
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
    /// `None` for an exact multiplier, which multiplies natively.
    residual: Option<Residual>,
}

impl TapMultiplier {
    /// Compiles the tap of `multiplier` against `coeff`.
    #[must_use]
    pub fn new(multiplier: &CompiledMultiplier, coeff: i64) -> Self {
        Self::from_recursive(multiplier.reference(), coeff, || multiplier)
    }

    /// Compiles the tap of `reference`'s configuration against `coeff`,
    /// asking `compiled` for the compiled engine only if the residual is
    /// not cached yet — so a warm build touches no block table.
    #[must_use]
    pub fn from_recursive<'a>(
        reference: &RecursiveMultiplier,
        coeff: i64,
        compiled: impl FnOnce() -> &'a CompiledMultiplier,
    ) -> Self {
        let width = reference.width();
        let limit = 1i64 << (width - 1);
        let clamped_coeff = coeff.clamp(-limit, limit - 1);
        let residual = (!reference.is_exact()).then(|| {
            Residual::shared(
                reference,
                Operand::Coeff(clamped_coeff.unsigned_abs()),
                compiled,
            )
        });
        Self {
            coeff,
            clamped_coeff,
            width,
            residual,
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
        self.residual.is_none()
    }

    /// Bytes of the process-wide shared residual this tap references (0 for
    /// exact taps, which evaluate natively). The residual lives behind an
    /// `Arc` in the global cache and is shared by every tap compiled for
    /// the same `(width, LSBs, kinds, |coefficient|)`, so it is *not*
    /// per-detector state — memory accounting (e.g.
    /// `pan_tompkins::StreamingQrsDetector::state_bytes`) reports it
    /// separately; deduplicate across taps with [`TapMultiplier::table_id`].
    #[must_use]
    pub fn shared_table_bytes(&self) -> usize {
        self.residual.as_ref().map_or(0, Residual::bytes)
    }

    /// Opaque identity of the shared residual (taps compiled from the same
    /// cache entry return the same id), `None` for exact taps. Lets
    /// accounting sum [`TapMultiplier::shared_table_bytes`] without double
    /// counting a residual referenced by several taps.
    #[must_use]
    pub fn table_id(&self) -> Option<usize> {
        self.residual.as_ref().map(Residual::id)
    }

    /// This tap's coefficient magnitude, residual and sign fold, or `None`
    /// for an exact tap, which multiplies natively by
    /// [`TapMultiplier::clamped_coeff`]. A lane kernel resolves it once per
    /// tap and runs [`TapTable::mul_clamped`] over every lane.
    #[must_use]
    #[inline]
    pub fn table(&self) -> Option<TapTable<'_>> {
        self.residual.as_ref().map(|residual| TapTable {
            residual: residual.view(),
            mag: self.clamped_coeff.unsigned_abs(),
            sign: -i64::from(self.clamped_coeff < 0),
        })
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

/// One tap's coefficient magnitude, shared residual and sign fold
/// ([`TapMultiplier::table`]).
#[derive(Clone, Copy)]
pub struct TapTable<'a> {
    residual: ResidualRef<'a>,
    /// `|c|` after the datapath clamp.
    mag: u64,
    /// `-1` when the clamped coefficient is negative, else `0` — the sign
    /// is exact in the sign-magnitude core, so it folds into one XOR with
    /// the sample's sign mask.
    sign: i64,
}

impl TapTable<'_> {
    /// The residual product, branch-free: [`TapMultiplier::mul_clamped`]
    /// of an approximate tap, and what lane kernels run per element —
    /// `m·|c|` plus the residual of `m`, with the sign folded back in.
    #[must_use]
    #[inline(always)]
    pub fn mul_clamped(self, a: i64) -> i64 {
        let m = a.unsigned_abs();
        // WIDTH: m·|c| ≤ 2^30 and the approximate product is below 2^32,
        // so the wrapping u32 add of the residual is exact.
        let mag = i64::from(((m * self.mag) as u32).wrapping_add(self.residual.at(m)));
        let s = (a >> 63) ^ self.sign;
        (mag ^ s) - s
    }
}

/// A squarer: bit-for-bit equivalent to
/// [`CompiledMultiplier::mul_signed_clamped`] of a sample with itself,
/// evaluated as the exact square plus one residual lookup.
#[derive(Clone)]
pub struct SquareMultiplier {
    width: u32,
    /// `None` for an exact multiplier, which squares natively.
    residual: Option<Residual>,
}

impl SquareMultiplier {
    /// Compiles the squarer of `multiplier`.
    #[must_use]
    pub fn new(multiplier: &CompiledMultiplier) -> Self {
        Self::from_recursive(multiplier.reference(), || multiplier)
    }

    /// Compiles the squarer of `reference`'s configuration, asking
    /// `compiled` for the compiled engine only if the residual is not
    /// cached yet (see [`TapMultiplier::from_recursive`]).
    #[must_use]
    pub fn from_recursive<'a>(
        reference: &RecursiveMultiplier,
        compiled: impl FnOnce() -> &'a CompiledMultiplier,
    ) -> Self {
        Self {
            width: reference.width(),
            residual: (!reference.is_exact())
                .then(|| Residual::shared(reference, Operand::Square, compiled)),
        }
    }

    /// Operand width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Bytes of the process-wide shared residual (0 when exact); see
    /// [`TapMultiplier::shared_table_bytes`].
    #[must_use]
    pub fn shared_table_bytes(&self) -> usize {
        self.residual.as_ref().map_or(0, Residual::bytes)
    }

    /// Opaque identity of the shared residual, `None` when exact; see
    /// [`TapMultiplier::table_id`].
    #[must_use]
    pub fn table_id(&self) -> Option<usize> {
        self.residual.as_ref().map(Residual::id)
    }

    /// The shared residual, or `None` for an exact squarer, which squares
    /// natively.
    #[must_use]
    #[inline]
    pub fn table(&self) -> Option<SquareTable<'_>> {
        self.residual.as_ref().map(|residual| SquareTable {
            residual: residual.view(),
        })
    }

    /// Squares a sample the caller has already clamped into
    /// `|a| ≤ 2^(width−1)`.
    #[must_use]
    #[inline]
    pub fn square_clamped(&self, a: i64) -> i64 {
        debug_assert!(a.abs() <= 1i64 << (self.width - 1));
        self.table().map_or(a * a, |table| table.square_clamped(a))
    }
}

/// The squarer's shared residual ([`SquareMultiplier::table`]).
#[derive(Clone, Copy)]
pub struct SquareTable<'a> {
    residual: ResidualRef<'a>,
}

impl SquareTable<'_> {
    /// The residual square, branch-free: `m²` plus the residual of `m`
    /// (a square is never negative in the sign-magnitude core).
    #[must_use]
    #[inline(always)]
    pub fn square_clamped(self, a: i64) -> i64 {
        let m = a.unsigned_abs();
        // WIDTH: m² ≤ 2^30 and the approximate square is below 2^32, so the
        // wrapping u32 add of the residual is exact.
        i64::from(((m * m) as u32).wrapping_add(self.residual.at(m)))
    }
}

impl fmt::Debug for TapTable<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TapTable")
            .field("coeff_mag", &self.mag)
            .field("residual_entries", &self.residual.table.len())
            .field("negate", &(self.sign != 0))
            .finish()
    }
}

impl fmt::Debug for SquareTable<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SquareTable")
            .field("residual_entries", &self.residual.table.len())
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

impl fmt::Debug for SquareMultiplier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SquareMultiplier")
            .field("width", &self.width)
            .field("is_exact", &self.residual.is_none())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every distinct coefficient magnitude appearing in the five
    /// Pan-Tompkins stage netlists (LPF 1..6, HPF 1/31, DER 1/2), both
    /// signs where the stages use them.
    const STAGE_COEFFS: [i64; 9] = [1, 2, 3, 4, 5, 6, 31, -1, -2];

    /// The stage coefficient magnitudes.
    const STAGE_MAGS: [i64; 7] = [1, 2, 3, 4, 5, 6, 31];

    /// The satellite contract: an exhaustive 8-bit sweep proving the
    /// residual path equals both the compiled word-level engine and the
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
                    let sqr = SquareMultiplier::new(&fast);
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
                    for a in -limit..=limit {
                        assert_eq!(
                            sqr.square_clamped(a),
                            bit.mul(a, a),
                            "{mult} {add} k={k} a={a}²"
                        );
                    }
                }
            }
        }
    }

    /// The residual identity at the production width, exhaustively: for
    /// every module pair, every `k` in 1..=16 and every stage coefficient
    /// magnitude (and for squares), the exact product plus the residual of
    /// `m mod 2^k` equals the compiled engine — which the `compiled`
    /// proptests anchor to the netlist walk — at every magnitude
    /// `m ∈ 0..=2^15`.
    #[test]
    fn residual_identity_holds_exhaustively_at_16_bits() {
        let limit = 1i64 << 15;
        for add in FullAdderKind::ALL {
            for mult in Mult2x2Kind::ALL {
                for k in 1u32..=16 {
                    let fast = CompiledMultiplier::new(16, k, mult, add);
                    for c in STAGE_MAGS {
                        let tap = TapMultiplier::new(&fast, c);
                        for m in 0..=limit {
                            assert_eq!(
                                tap.mul_clamped(m),
                                fast.mul_signed_clamped(m, c),
                                "{mult} {add} k={k} c={c} m={m}"
                            );
                        }
                    }
                    let sqr = SquareMultiplier::new(&fast);
                    for m in 0..=limit {
                        assert_eq!(
                            sqr.square_clamped(m),
                            fast.mul_signed_clamped(m, m),
                            "{mult} {add} k={k} m={m}²"
                        );
                    }
                }
            }
        }
    }

    /// The sign fold: every sample sign against every coefficient sign, on
    /// the paper's least-energy modules.
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
            let sqr = SquareMultiplier::new(&fast);
            for a in -(1i64 << 15)..=(1i64 << 15) {
                assert_eq!(
                    sqr.square_clamped(a),
                    fast.mul_signed_clamped(a, a),
                    "k={k} a={a}"
                );
            }
        }
    }

    #[test]
    fn exact_configurations_multiply_natively() {
        let exact = CompiledMultiplier::accurate(16);
        let tap = TapMultiplier::new(&exact, -7);
        assert!(tap.is_exact());
        assert_eq!(tap.mul_clamped(1234), -8638);
        assert_eq!(tap.mul_clamped(-3), 21);
        let sqr = SquareMultiplier::new(&exact);
        assert!(sqr.table().is_none());
        assert_eq!(sqr.square_clamped(-32768), 1 << 30);
        assert_eq!(sqr.shared_table_bytes(), 0);
    }

    #[test]
    fn tables_are_shared_between_identical_taps() {
        let fast = CompiledMultiplier::new(16, 6, Mult2x2Kind::V1, FullAdderKind::Ama3);
        let a = TapMultiplier::new(&fast, 5);
        let b = TapMultiplier::new(&fast, 5);
        let c = TapMultiplier::new(&fast, -5); // same magnitude, same residual
        assert!(a.table_id().is_some());
        assert_eq!(a.table_id(), b.table_id());
        assert_eq!(a.table_id(), c.table_id());
        let sqr = SquareMultiplier::new(&fast);
        assert_eq!(sqr.table_id(), SquareMultiplier::new(&fast).table_id());
        assert_ne!(
            sqr.table_id(),
            a.table_id(),
            "squares have their own residual"
        );
    }

    /// A cached residual needs no compiled engine: the second build of the
    /// same configuration never calls for one.
    #[test]
    fn cached_residuals_skip_the_compiled_engine() {
        let bit = RecursiveMultiplier::new(16, 7, Mult2x2Kind::V2, FullAdderKind::Ama4);
        let fast = CompiledMultiplier::from_recursive(&bit);
        let first = TapMultiplier::from_recursive(&bit, 3, || &fast);
        let again = TapMultiplier::from_recursive(&bit, -3, || unreachable!("cached"));
        assert_eq!(first.table_id(), again.table_id());
        let sqr = SquareMultiplier::from_recursive(&bit, || &fast);
        let sqr_again = SquareMultiplier::from_recursive(&bit, || unreachable!("cached"));
        assert_eq!(sqr.table_id(), sqr_again.table_id());
        let exact = RecursiveMultiplier::accurate(16);
        assert!(TapMultiplier::from_recursive(&exact, 3, || unreachable!("native")).is_exact());
    }

    #[test]
    fn oversized_coefficient_clamps_and_reports() {
        let fast = CompiledMultiplier::new(16, 8, Mult2x2Kind::V1, FullAdderKind::Ama5);
        let tap = TapMultiplier::new(&fast, 1 << 20);
        assert!(tap.coeff_saturates());
        assert_eq!(tap.clamped_coeff(), 32767);
        for a in [3i64, -32768, 32767] {
            assert_eq!(tap.mul_clamped(a), fast.mul_signed_clamped(a, 32767));
        }
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

    /// Residuals hold one entry per value of `m mod 2^k`, up to the
    /// full-width `2^15 + 1` magnitudes from `k = 16` on.
    #[test]
    fn table_accounting_reports_shared_identity() {
        let exact = CompiledMultiplier::new(16, 0, Mult2x2Kind::V1, FullAdderKind::Accurate);
        let native = TapMultiplier::new(&exact, 6);
        assert_eq!(native.shared_table_bytes(), 0);
        assert_eq!(native.table_id(), None);

        let approx = CompiledMultiplier::new(16, 8, Mult2x2Kind::V1, FullAdderKind::Ama5);
        let a = TapMultiplier::new(&approx, 6);
        let b = TapMultiplier::new(&approx, -6);
        assert_eq!(a.shared_table_bytes(), (1 << 8) * 4);
        assert_eq!(a.table_id(), b.table_id(), "same residual, same identity");
        let other = TapMultiplier::new(&approx, 31);
        assert_ne!(a.table_id(), other.table_id());

        for (k, entries) in [
            (1u32, 2usize),
            (15, 1 << 15),
            (16, (1 << 15) + 1),
            (32, (1 << 15) + 1),
        ] {
            let fast = CompiledMultiplier::new(16, k, Mult2x2Kind::V1, FullAdderKind::Ama5);
            assert_eq!(
                TapMultiplier::new(&fast, 6).shared_table_bytes(),
                entries * 4,
                "k={k}"
            );
            assert_eq!(
                SquareMultiplier::new(&fast).shared_table_bytes(),
                entries * 4,
                "k={k}"
            );
        }
    }

    /// The narrower widths the multiplier supports: the residual form holds
    /// at 2, 4 and 8 bits too, for every `k` and module pair — against
    /// every coefficient at 2 and 4 bits, and a spread of them (zero, the
    /// stage magnitudes, both extremes) at 8.
    #[test]
    fn residual_identity_holds_at_narrow_widths() {
        for width in [2u32, 4, 8] {
            let limit = 1i64 << (width - 1);
            let coeffs: Vec<i64> = if width < 8 {
                (-limit..limit).collect()
            } else {
                vec![0, 1, 2, 3, 4, 5, 6, 31, -2, 77, 127, -128]
            };
            for k in 1..=2 * width {
                for mult in Mult2x2Kind::ALL {
                    for add in FullAdderKind::ALL {
                        let fast = CompiledMultiplier::new(width, k, mult, add);
                        let sqr = SquareMultiplier::new(&fast);
                        for a in -limit..=limit {
                            assert_eq!(sqr.square_clamped(a), fast.mul_signed_clamped(a, a));
                        }
                        for &c in &coeffs {
                            let tap = TapMultiplier::new(&fast, c);
                            for a in -limit..=limit {
                                assert_eq!(
                                    tap.mul_clamped(a),
                                    fast.mul_signed_clamped(a, c),
                                    "w={width} k={k} {mult} {add} {a}x{c}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
