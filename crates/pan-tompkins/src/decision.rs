//! Integer-exact decision arithmetic — the SPK/NPK adaptation, THRESHOLD1/2
//! comparisons, and RR search-back test of the Pan-Tompkins classifier,
//! without a single `f64`.
//!
//! XBioSiP's deployment target is a wearable sensor node whose MCU has no
//! floating-point unit; the original Pan & Tompkins (1985) implementation
//! likewise ran the *whole* detector, decisions included, in integer
//! arithmetic. Every coefficient in the decision logic is an exact binary
//! fraction — the EWMA weights are 1/8, 7/8, 1/4, 3/4 and THRESHOLD2 is
//! half of THRESHOLD1 — so a fixed-point path does not have to approximate:
//! the threshold *comparisons* are carried out exactly (cross-multiplied
//! integers, the same shift-and-compare idiom `approx_arith::word` uses for
//! its power-of-two gains), and only the EWMA state itself is quantised, to
//! [`FRAC_BITS`] fractional bits.
//!
//! # The kernel
//!
//! [`FixedDecision`] holds SPK/NPK as Q-format integers
//! (`value · 2^FRAC_BITS`) in `i128`; EWMA updates are shifts and adds;
//! THRESHOLD1/2 tests are pure integer comparisons
//! (`amp·2^(F+2) > 3·NPK + SPK`); the RR search-back factor is the rational
//! `search_back_num / search_back_den` (166/100 by default), so the RR test
//! is the cross-multiplied `gap · den · len > num · Σrr` with no division
//! at all; the SPK/NPK seed divides an exact `i128` learning-window sum.
//!
//! # The float reference, and where it diverges
//!
//! The literal `f64` transcription of the paper's formulas is
//! [`crate::oracle::float_classify`], a batch classifier kept only as the
//! reference this kernel is proven against. The production decisions
//! equal its decisions on the whole corpus and across the random
//! configuration × record-slice × chunking × footprint proptest grid
//! (`tests/streaming_equivalence.rs`, the golden-trace fixtures, the
//! `threshold` fuzz and edge-configuration tests, and CI's
//! `ext_fixed_point --check` gate all compare the two over the retained
//! MWI signal). The agreement is *enforced empirically*, not structural:
//! the two quantise the EWMA state differently (2^−32 truncation vs `f64`
//! round-to-nearest), so a comparison landing within ~10^−16 relative of
//! exact equality could in principle flip — no corpus or proptest
//! workload has ever produced one, and the gates exist to catch it if a
//! change does. The *characterised* divergence domain is amplitudes past
//! 2^53, where `f64` stops representing the integers themselves:
//! `amp as f64` rounds to an even neighbour and the float reference
//! compares against the *wrong amplitude*. There the fixed-point kernel is
//! the ground truth (its comparisons are exact at any magnitude `i64` can
//! hold); see `huge_amplitudes_diverge_and_fixed_is_ground_truth` in
//! `crate::threshold`'s tests and `DESIGN.md` §8 for the worked example.
//!
//! # Q-format choice
//!
//! [`FRAC_BITS`] = 32 fractional bits. Amplitudes are `i64`, so Q-values
//! span ≤ 95 bits and every intermediate (`7·SPK`, `amp·2^(F+3)`) fits an
//! `i128` with headroom. The EWMA truncation grain is 2^−32 *absolute* —
//! below the `f64` ULP for any amplitude above 2^20, i.e. the fixed-point
//! trajectory tracks the real-valued recurrence more closely than the
//! float reference does on realistic MWI magnitudes. An MCU port would
//! narrow the state to `i64` with Q16 and the same code shape; `i128` here
//! keeps the behavioral model exact to the contract rather than to one
//! word size.

use crate::threshold::ThresholdConfig;

/// Fractional bits of the Q-format SPK/NPK state ([`FixedDecision`]).
pub const FRAC_BITS: u32 = 32;

/// The fixed-point decision state: SPK/NPK as Q-format integers
/// (`value · 2^FRAC_BITS`) with exact integer comparisons.
///
/// Threshold tests never materialise THRESHOLD1/2: since
/// `THRESHOLD1 = (3·NPK + SPK) / 4`, the test `amp > THRESHOLD1` is the
/// cross-multiplied `amp · 2^(F+2) > 3·NPK + SPK` — no truncation, so the
/// comparisons are *exact* against the current Q-state at any `i64`
/// amplitude. The only quantisation in the whole kernel is the final
/// right-shift of each EWMA update (and the seed's mean division), with
/// grain 2^−[`FRAC_BITS`].
///
/// [`crate::OnlineClassifier`] owns one and routes every SPK/NPK read and
/// update through it, so no `f64` is reachable from
/// [`crate::StreamingQrsDetector::push`].
#[derive(Debug, Clone, Copy)]
pub struct FixedDecision {
    /// Signal-peak estimate, Q-format.
    spk: i128,
    /// Noise-peak estimate, Q-format.
    npk: i128,
    sb_num: u64,
    sb_den: u64,
}

impl FixedDecision {
    /// A fresh (unseeded) kernel: SPK = NPK = 0, search-back rational from
    /// `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.search_back_den` is zero.
    #[must_use]
    pub(crate) fn new(config: &ThresholdConfig) -> Self {
        assert!(
            config.search_back_den > 0,
            "search_back_den must be positive"
        );
        Self {
            spk: 0,
            npk: 0,
            sb_num: config.search_back_num,
            sb_den: config.search_back_den,
        }
    }

    /// The two adaptive state words `(SPK, NPK)`, Q-format. Every other
    /// field is a constant derived from [`ThresholdConfig`], so these two
    /// words are the kernel's entire snapshot payload.
    pub(crate) fn state_words(&self) -> (i128, i128) {
        (self.spk, self.npk)
    }

    /// Rebuilds a kernel from [`FixedDecision::state_words`] output plus
    /// the config-derived constants — the exact inverse of `state_words`
    /// for the same `config`.
    pub(crate) fn from_state_words(config: &ThresholdConfig, spk: i128, npk: i128) -> Self {
        Self {
            spk,
            npk,
            ..Self::new(config)
        }
    }

    /// `4·THRESHOLD1` in Q-format — the exact common term of both
    /// threshold tests.
    fn threshold1_x4(&self) -> i128 {
        3 * self.npk + self.spk
    }

    /// Q-format image of an amplitude.
    fn q(amp: i64) -> i128 {
        i128::from(amp) << FRAC_BITS
    }

    /// Seeds SPK from the largest learning-window excursion (`max0`,
    /// already floored at 1 by the caller) and NPK from half the window
    /// mean — `learn_sum` is the exact `i128` sum of the first
    /// `learn_len` samples.
    pub(crate) fn seed(&mut self, max0: i64, learn_sum: i128, learn_len: usize) {
        // SPK₀ = max0 / 4 — exact (FRAC_BITS ≥ 2).
        self.spk = i128::from(max0) << (FRAC_BITS - 2);
        // NPK₀ = mean0 / 2 = Σ / (2·len), the seed mean computed from the
        // exact i128 learning-window sum in one division (truncating
        // toward zero, grain 2^−FRAC_BITS).
        self.npk = (learn_sum << FRAC_BITS) / (2 * learn_len.max(1) as i128);
    }

    /// `amp > THRESHOLD1` — the QRS acceptance test.
    #[must_use]
    pub(crate) fn above_threshold1(&self, amp: i64) -> bool {
        // amp > (3·NPK + SPK)/4  ⟺  amp·2^(F+2) > 3·NPK + SPK.
        (i128::from(amp) << (FRAC_BITS + 2)) > self.threshold1_x4()
    }

    /// `amp > THRESHOLD2 = THRESHOLD1/2` — the search-back acceptance
    /// test.
    #[must_use]
    pub(crate) fn above_threshold2(&self, amp: i64) -> bool {
        // THRESHOLD2 = THRESHOLD1/2  ⟺  amp·2^(F+3) > 3·NPK + SPK.
        (i128::from(amp) << (FRAC_BITS + 3)) > self.threshold1_x4()
    }

    /// Whether the current RR gap exceeds the search-back multiple of the
    /// running RR average `rr_sum / rr_len` (`rr_len > 0`).
    #[must_use]
    pub(crate) fn rr_search_back(&self, gap: usize, rr_sum: usize, rr_len: usize) -> bool {
        // gap > (num/den)·(Σrr/len)  ⟺  gap·den·len > num·Σrr — the
        // rational cross-multiplication; no division, no float.
        (gap as u128) * u128::from(self.sb_den) * (rr_len as u128)
            > u128::from(self.sb_num) * (rr_sum as u128)
    }

    /// Folds an accepted QRS amplitude into SPK: `SPK ← amp/8 + 7·SPK/8`
    /// as one shift-and-add, `(amp·2^F + 7·SPK) >> 3`.
    pub(crate) fn adapt_spk(&mut self, amp: i64) {
        self.spk = (Self::q(amp) + 7 * self.spk) >> 3;
    }

    /// Folds a search-back-recovered amplitude into SPK:
    /// `SPK ← amp/4 + 3·SPK/4`.
    pub(crate) fn adapt_spk_search_back(&mut self, amp: i64) {
        self.spk = (Self::q(amp) + 3 * self.spk) >> 2;
    }

    /// Folds a noise-peak amplitude into NPK: `NPK ← amp/8 + 7·NPK/8`.
    pub(crate) fn adapt_npk(&mut self, amp: i64) {
        self.npk = (Self::q(amp) + 7 * self.npk) >> 3;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// THRESHOLD1 of the paper's formula, `NPK + 0.25·(SPK − NPK)`, in
    /// `f64`: exact for the moderate states these tests build, so the
    /// integer comparisons must reproduce its verdicts.
    fn paper_threshold1(spk: f64, npk: f64) -> f64 {
        npk + 0.25 * (spk - npk)
    }

    /// The fixed seed is the exact rational: Q(SPK) = max0·2^F/4 and
    /// Q(NPK) = Σ·2^F/(2·len), hand-checked.
    #[test]
    fn fixed_seed_is_exact() {
        let cfg = ThresholdConfig::default();
        let mut k = FixedDecision::new(&cfg);
        k.seed(1000, 4000, 16);
        assert_eq!(k.spk, 250i128 << FRAC_BITS);
        // mean = 250, NPK = 125.
        assert_eq!(k.npk, 125i128 << FRAC_BITS);
    }

    /// EWMA on exactly-representable states is exact: starting from
    /// SPK = 0, folding amp = 800 gives 100, then 187.5 (Q-exact).
    #[test]
    fn fixed_ewma_is_exact_on_binary_fractions() {
        let cfg = ThresholdConfig::default();
        let mut k = FixedDecision::new(&cfg);
        k.adapt_spk(800);
        assert_eq!(k.spk, 100i128 << FRAC_BITS);
        k.adapt_spk(800);
        // 100·7/8 + 100 = 187.5 exactly.
        assert_eq!(k.spk, 375i128 << (FRAC_BITS - 1));
        k.adapt_spk_search_back(800);
        // 187.5·3/4 + 200 = 340.625 = 10900/32.
        assert_eq!(k.spk, 10900i128 << (FRAC_BITS - 5));
    }

    /// The seed mean divides the *exact* `i128` learning-window sum — a
    /// window like `[2^53, 1, 1, 1]`, whose `f64` running sum would
    /// absorb the trailing ones (the pre-i128 accumulator bug), keeps
    /// every bit.
    #[test]
    fn seed_mean_uses_exact_i128_sum() {
        let cfg = ThresholdConfig::default();
        let mut k = FixedDecision::new(&cfg);
        let sum = (1i128 << 53) + 3;
        k.seed(1, sum, 4);
        // NPK₀ = Σ/(2·len) in Q-format, one exact division.
        assert_eq!(k.npk, (sum << FRAC_BITS) / 8);
        // The f64 path would have seeded from 2^53 flat:
        assert_ne!(k.npk, (1i128 << 53 << FRAC_BITS) / 8);
    }

    /// Threshold comparisons agree with the paper's formulas evaluated in
    /// `f64` across a dense sweep of seeded states and probe amplitudes
    /// (all far from the f64 resolution limit, so float is still exact).
    #[test]
    fn threshold_tests_agree_with_float_at_moderate_amplitudes() {
        let cfg = ThresholdConfig::default();
        for max0 in [1i64, 3, 1000, 55_555] {
            for (sum, len) in [(0i128, 400usize), (123_456, 400), (999_999, 123)] {
                let mut fixed = FixedDecision::new(&cfg);
                fixed.seed(max0, sum, len);
                let t1 = paper_threshold1(0.25 * max0 as f64, 0.5 * (sum as f64 / len as f64));
                for probe in [0i64, 1, 13, 250, 13_888, 250_000] {
                    assert_eq!(
                        fixed.above_threshold1(probe),
                        probe as f64 > t1,
                        "T1 at max0={max0} sum={sum} len={len} probe={probe}"
                    );
                    assert_eq!(
                        fixed.above_threshold2(probe),
                        probe as f64 > 0.5 * t1,
                        "T2 at max0={max0} sum={sum} len={len} probe={probe}"
                    );
                }
            }
        }
    }

    /// The THRESHOLD1 comparison is exact: with SPK = NPK = amp the
    /// threshold equals amp and the strict test must say *no*, for
    /// amplitudes where float could not even represent the difference.
    #[test]
    fn fixed_threshold_is_exact_at_boundary() {
        let cfg = ThresholdConfig::default();
        let amp = (1i64 << 60) + 1; // not representable in f64
        let mut k = FixedDecision::new(&cfg);
        k.spk = FixedDecision::q(amp);
        k.npk = FixedDecision::q(amp);
        assert!(!k.above_threshold1(amp), "amp > amp must be false");
        assert!(k.above_threshold1(amp + 1));
        assert!(!k.above_threshold1(amp - 1));
    }

    /// The rational RR test at the exact boundary: with the default
    /// 166/100 factor, a gap of exactly 1.66× the average is *not* a miss
    /// (strict inequality), one more sample is.
    #[test]
    fn rational_rr_test_is_exact_at_the_boundary() {
        let cfg = ThresholdConfig::default();
        let k = FixedDecision::new(&cfg);
        // Σrr = 800 over 8 intervals — average 100, boundary gap 166.
        assert!(!k.rr_search_back(166, 800, 8));
        assert!(k.rr_search_back(167, 800, 8));
    }

    /// A custom rational factor is honored exactly (3/2 here).
    #[test]
    fn custom_search_back_rational() {
        let cfg = ThresholdConfig {
            search_back_num: 3,
            search_back_den: 2,
            ..ThresholdConfig::default()
        };
        let k = FixedDecision::new(&cfg);
        assert!(!k.rr_search_back(150, 500, 5)); // 150 = 1.5·100
        assert!(k.rr_search_back(151, 500, 5));
    }

    /// Negative amplitudes (possible under saturating approximate
    /// arithmetic) flow through the kernel without disagreeing with the
    /// paper's formulas.
    #[test]
    fn negative_amplitudes_agree() {
        let mut fixed = FixedDecision::new(&ThresholdConfig::default());
        fixed.seed(1, -5_000, 100);
        let (spk, mut npk) = (0.25, 0.5 * -50.0);
        for amp in [-1000i64, -50, -1, 0, 1, 50] {
            assert_eq!(
                fixed.above_threshold1(amp),
                amp as f64 > paper_threshold1(spk, npk),
                "amp {amp}"
            );
        }
        fixed.adapt_npk(-800);
        npk = 0.125 * -800.0 + 0.875 * npk;
        assert_eq!(
            fixed.above_threshold2(-100),
            -100.0 > 0.5 * paper_threshold1(spk, npk)
        );
    }

    /// Past 2^53, `amp as f64` rounds and a float comparison sees the
    /// wrong amplitude; the fixed kernel stays exact. This is the
    /// characterised divergence domain.
    #[test]
    fn fixed_is_exact_past_f64_integer_range() {
        let cfg = ThresholdConfig::default();
        let mut k = FixedDecision::new(&cfg);
        let big = 1i64 << 55;
        // Seed SPK = NPK = big exactly ⇒ THRESHOLD1 = big.
        k.spk = FixedDecision::q(big);
        k.npk = FixedDecision::q(big);
        // big+1 is not an f64; Fixed still resolves the strict inequality.
        assert!(k.above_threshold1(big + 1));
        assert!(!k.above_threshold1(big));
        // Float cannot: (big+1) as f64 == big as f64.
        assert_eq!((big + 1) as f64, big as f64, "f64 resolved 2^55 + 1?");
    }
}
