//! Stage C — the five-point derivative.
//!
//! `y[n] = 2x[n] + x[n−1] − x[n−3] − 2x[n−4]` — the five-tap digital
//! differentiator that extracts QRS slope information (paper §3). The
//! original Pan-Tompkins formulation divides by 8; the hardware datapath
//! keeps the full slope so the squarer sees maximal dynamic range (which is
//! what makes the later stages so error-tolerant — see `DESIGN.md` §4).
//! The coefficient magnitudes are only 2 and 1, which is why the paper
//! finds this stage nearly unapproximable: "approximating more than 4 LSBs
//! truncates all active paths" (§4.2).

use approx_arith::{OpCounter, StageArith};

use crate::fir::{FirFilter, FirProgram};
use crate::stages::Stage;

/// The five derivative taps (newest sample first).
pub const TAPS: [i64; 5] = [2, 1, 0, -1, -2];

/// The gain divided out of every output (1: the datapath keeps the full
/// slope; the original algorithm's /8 is deferred into the adaptive
/// threshold, which is scale-free).
pub const GAIN: i64 = 1;

/// Stage C: derivative (slope) filter.
///
/// # Example
///
/// ```
/// use approx_arith::StageArith;
/// use pan_tompkins::stages::{Derivative, Stage};
///
/// let mut der = Derivative::new(StageArith::exact());
/// // A constant signal has zero slope:
/// let out = der.process_signal(&[100; 10]);
/// assert_eq!(out[8], 0);
/// ```
#[derive(Debug, Clone)]
pub struct Derivative {
    fir: FirFilter,
}

impl Derivative {
    /// Creates the stage with the given approximation parameters.
    #[must_use]
    pub fn new(arith: StageArith) -> Self {
        Self::from_program(std::sync::Arc::new(Self::program(arith)))
    }

    /// Compiles the stage's shared [`FirProgram`] (taps, gain, tap residuals)
    /// for the given arithmetic — built once and shared across detector
    /// states/lanes.
    #[must_use]
    pub fn program(arith: StageArith) -> FirProgram {
        FirProgram::new("DER", &TAPS, GAIN, arith)
    }

    /// Creates a stage instance over an existing shared program.
    #[must_use]
    pub fn from_program(program: std::sync::Arc<FirProgram>) -> Self {
        Self {
            fir: FirFilter::from_program(program),
        }
    }
}

impl Stage for Derivative {
    fn name(&self) -> &'static str {
        "DER"
    }

    fn process(&mut self, x: i64) -> i64 {
        self.fir.process(x)
    }

    fn group_delay(&self) -> usize {
        // Antisymmetric 5-tap FIR: (5 − 1) / 2.
        self.fir.group_delay()
    }

    fn multipliers(&self) -> u32 {
        self.fir.multipliers()
    }

    fn adders(&self) -> u32 {
        self.fir.adders()
    }

    fn ops(&self) -> OpCounter {
        *self.fir.backend().ops()
    }

    fn saturations(&self) -> u64 {
        self.fir.backend().saturation_events()
    }

    fn add_overflows(&self) -> u64 {
        self.fir.backend().add_overflow_events()
    }

    fn reset(&mut self) {
        self.fir.reset();
    }

    fn reset_counters(&mut self) {
        self.fir.reset_counters();
    }

    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.fir.heap_bytes()
    }

    fn shared_table_bytes(&self) -> usize {
        self.fir.shared_table_bytes()
    }

    fn collect_shared_tables(&self, seen: &mut Vec<usize>) -> usize {
        self.fir.collect_shared_tables(seen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn antisymmetric_taps_zero_dc() {
        assert_eq!(TAPS.iter().sum::<i64>(), 0);
    }

    #[test]
    fn constant_input_gives_zero_slope() {
        let mut der = Derivative::new(StageArith::exact());
        let out = der.process_signal(&[777; 12]);
        assert_eq!(out[10], 0);
    }

    #[test]
    fn ramp_gives_constant_slope() {
        let mut der = Derivative::new(StageArith::exact());
        // x[n] = 16n: closed form y = 2*16n + 16(n-1) - 16(n-3) - 2*16(n-4)
        //       = 16*(2n + n-1 - n+3 - 2n+8) = 16*10 = 160.
        let input: Vec<i64> = (0..20).map(|n| 16 * n).collect();
        let out = der.process_signal(&input);
        assert_eq!(out[10], 160);
        assert_eq!(out[15], 160);
    }

    #[test]
    fn slope_sign_follows_edge_direction() {
        let mut der = Derivative::new(StageArith::exact());
        let mut input = vec![0i64; 20];
        for (i, v) in input.iter_mut().enumerate() {
            *v = if i >= 10 { 800 } else { 0 };
        }
        let out = der.process_signal(&input);
        let max = *out.iter().max().expect("non-empty");
        assert!(max > 0, "rising edge should give positive slope");
        // Falling edge:
        let mut der = Derivative::new(StageArith::exact());
        let falling: Vec<i64> = input.iter().map(|v| 800 - v).collect();
        let out = der.process_signal(&falling);
        let min = *out.iter().min().expect("non-empty");
        assert!(min < 0, "falling edge should give negative slope");
    }

    #[test]
    fn four_multipliers_three_adders() {
        let der = Derivative::new(StageArith::exact());
        assert_eq!(der.multipliers(), 4);
        assert_eq!(der.adders(), 3);
    }

    #[test]
    fn aggressive_approximation_destroys_slope() {
        // The paper's observation: beyond ~4 LSBs the tiny coefficients are
        // swamped and the stage stops carrying slope information.
        let input: Vec<i64> = (0..200)
            .map(|n| {
                (300.0 * (std::f64::consts::TAU * 10.0 * n as f64 / 200.0).sin()).round() as i64
            })
            .collect();
        let mut exact = Derivative::new(StageArith::exact());
        let ye = exact.process_signal(&input);
        let mut heavy = Derivative::new(StageArith::least_energy(12));
        let ya = heavy.process_signal(&input);
        let err: i64 = ye.iter().zip(&ya).map(|(a, b)| (a - b).abs()).sum();
        let signal: i64 = ye.iter().map(|v| v.abs()).sum();
        assert!(
            err > signal / 2,
            "12-LSB approximation left the derivative nearly intact"
        );
    }
}
