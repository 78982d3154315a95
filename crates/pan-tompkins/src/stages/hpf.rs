//! Stage B — the high-pass filter.
//!
//! Pan & Tompkins build the high-pass by subtracting a 32-sample low-pass
//! (running mean) from an all-pass delayed by 16 samples:
//! `y[n] = x[n−16] − (1/32)·Σ_{k=0..31} x[n−k]`. Expanded to FIR form the
//! taps are `−1` everywhere except `+31` at delay 16 (with gain 32), which
//! gives the stage its "31 adders and 32 multipliers" (paper §4.2). Cutoff
//! ≈ 5 Hz; it removes baseline wander and respiration drift.

use approx_arith::{OpCounter, StageArith};

use crate::fir::{FirFilter, FirProgram};
use crate::stages::Stage;

/// The 32 FIR taps of the expanded HPF transfer function.
#[must_use]
pub fn taps() -> [i64; 32] {
    let mut taps = [-1i64; 32];
    taps[16] = 31;
    taps
}

/// The gain divided out of every output.
pub const GAIN: i64 = 32;

/// Stage B: high-pass filter.
///
/// # Example
///
/// ```
/// use approx_arith::StageArith;
/// use pan_tompkins::stages::{HighPassFilter, Stage};
///
/// let mut hpf = HighPassFilter::new(StageArith::exact());
/// // DC is rejected once the delay line fills:
/// let out = hpf.process_signal(&[300; 80]);
/// assert_eq!(out[70], 0);
/// ```
#[derive(Debug, Clone)]
pub struct HighPassFilter {
    fir: FirFilter,
}

impl HighPassFilter {
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
        // `taps()` returns an owned array; FirProgram copies it.
        let t = taps();
        FirProgram::new("HPF", &t, GAIN, arith)
    }

    /// Creates a stage instance over an existing shared program.
    #[must_use]
    pub fn from_program(program: std::sync::Arc<FirProgram>) -> Self {
        Self {
            fir: FirFilter::from_program(program),
        }
    }
}

impl Stage for HighPassFilter {
    fn name(&self) -> &'static str {
        "HPF"
    }

    fn process(&mut self, x: i64) -> i64 {
        self.fir.process(x)
    }

    fn group_delay(&self) -> usize {
        // The dominant +31 tap at index 16 (the all-pass term x[n−16]); the
        // expanded taps are not linear-phase, so this comes from
        // `FirFilter::group_delay`'s dominant-tap rule.
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

    fn sine(freq_hz: f64, n: usize, amp: f64) -> Vec<i64> {
        (0..n)
            .map(|i| {
                (amp * (std::f64::consts::TAU * freq_hz * i as f64 / 200.0).sin()).round() as i64
            })
            .collect()
    }

    fn rms_tail(signal: &[i64]) -> f64 {
        let tail = &signal[signal.len() / 2..];
        (tail.iter().map(|v| (*v * *v) as f64).sum::<f64>() / tail.len() as f64).sqrt()
    }

    #[test]
    fn taps_sum_to_zero() {
        // Zero DC gain is the defining high-pass property.
        assert_eq!(taps().iter().sum::<i64>(), -31 + 31);
    }

    #[test]
    fn thirty_two_taps_all_active() {
        assert!(taps().iter().all(|t| *t != 0));
    }

    #[test]
    fn dc_fully_rejected() {
        let mut hpf = HighPassFilter::new(StageArith::exact());
        let out = hpf.process_signal(&[500; 100]);
        assert_eq!(out[80], 0);
    }

    #[test]
    fn slow_wander_suppressed() {
        let mut hpf = HighPassFilter::new(StageArith::exact());
        let input = sine(0.3, 4000, 300.0);
        let out = hpf.process_signal(&input);
        let ratio = rms_tail(&out) / rms_tail(&input);
        assert!(ratio < 0.15, "0.3 Hz wander leaked {ratio}");
    }

    #[test]
    fn qrs_band_passes() {
        let mut hpf = HighPassFilter::new(StageArith::exact());
        let input = sine(10.0, 1000, 300.0);
        let out = hpf.process_signal(&input);
        let ratio = rms_tail(&out) / rms_tail(&input);
        assert!(ratio > 0.6, "10 Hz attenuated to {ratio}");
    }

    #[test]
    fn impulse_response_matches_closed_form() {
        let mut hpf = HighPassFilter::new(StageArith::exact());
        let mut input = vec![0i64; 40];
        input[0] = 3200; // large enough that /32 stays exact per tap
        let out = hpf.process_signal(&input);
        // y[n] = x[n-16] - (1/32) sum x[n-k]
        assert_eq!(out[0], -100);
        assert_eq!(out[15], -100);
        assert_eq!(out[16], 3200 - 100);
        assert_eq!(out[17], -100);
        assert_eq!(out[31], -100);
        assert_eq!(out[32], 0);
    }

    #[test]
    fn approximate_hpf_error_bounded_at_low_k() {
        let mut exact = HighPassFilter::new(StageArith::exact());
        let mut approx = HighPassFilter::new(StageArith::least_energy(2));
        let input = sine(8.0, 600, 250.0);
        let ye = exact.process_signal(&input);
        let ya = approx.process_signal(&input);
        let max_err = ye
            .iter()
            .zip(&ya)
            .map(|(a, b)| (a - b).abs())
            .max()
            .expect("non-empty");
        assert!(max_err < 64, "max error {max_err}");
    }
}
