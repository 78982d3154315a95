//! Stage A — the low-pass filter.
//!
//! Pan & Tompkins' recursive form `H(z) = (1−z⁻⁶)²/(1−z⁻¹)²` expands to the
//! 11-tap FIR `[1,2,3,4,5,6,5,4,3,2,1]` with gain 36 — "a 10th order,
//! 11-tap Low Pass Filter that comprises 10 adders, 11 multipliers and 10
//! registers" (paper §2). Cutoff ≈ 11 Hz at 200 Hz sampling; it removes
//! muscle noise and mains interference.

use approx_arith::{OpCounter, StageArith};

use crate::fir::{FirFilter, FirProgram};
use crate::stages::Stage;

/// The 11-tap FIR taps of the expanded LPF transfer function.
pub const TAPS: [i64; 11] = [1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1];

/// The DC gain of the taps (divided out of every output).
pub const GAIN: i64 = 36;

/// Stage A: low-pass filter.
///
/// # Example
///
/// ```
/// use approx_arith::StageArith;
/// use pan_tompkins::stages::{LowPassFilter, Stage};
///
/// let mut lpf = LowPassFilter::new(StageArith::exact());
/// // DC passes with unity gain once the delay line fills:
/// let out = lpf.process_signal(&[100; 30]);
/// assert_eq!(out[20], 100);
/// ```
#[derive(Debug, Clone)]
pub struct LowPassFilter {
    fir: FirFilter,
}

impl LowPassFilter {
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
        FirProgram::new("LPF", &TAPS, GAIN, arith)
    }

    /// Creates a stage instance over an existing shared program.
    #[must_use]
    pub fn from_program(program: std::sync::Arc<FirProgram>) -> Self {
        Self {
            fir: FirFilter::from_program(program),
        }
    }
}

impl Stage for LowPassFilter {
    fn name(&self) -> &'static str {
        "LPF"
    }

    fn process(&mut self, x: i64) -> i64 {
        self.fir.process(x)
    }

    fn group_delay(&self) -> usize {
        // Symmetric 11-tap FIR: (11 − 1) / 2.
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
    fn taps_sum_to_gain() {
        assert_eq!(TAPS.iter().sum::<i64>(), GAIN);
    }

    #[test]
    fn dc_passes_unity() {
        let mut lpf = LowPassFilter::new(StageArith::exact());
        let out = lpf.process_signal(&[250; 40]);
        assert_eq!(out[30], 250);
    }

    #[test]
    fn passband_5hz_survives() {
        let mut lpf = LowPassFilter::new(StageArith::exact());
        let input = sine(5.0, 800, 200.0);
        let out = lpf.process_signal(&input);
        let ratio = rms_tail(&out) / rms_tail(&input);
        assert!(ratio > 0.7, "5 Hz attenuated to {ratio}");
    }

    #[test]
    fn stopband_50hz_suppressed() {
        let mut lpf = LowPassFilter::new(StageArith::exact());
        let input = sine(50.0, 800, 200.0);
        let out = lpf.process_signal(&input);
        // Closed form: |H(50 Hz)| = (1/0.707)^2 / 36 = 0.0556.
        let ratio = rms_tail(&out) / rms_tail(&input);
        assert!(ratio < 0.06, "50 Hz only attenuated to {ratio}");
    }

    #[test]
    fn transfer_zero_at_33hz() {
        // (1 - z^-6) zeros: f = k * fs / 6 -> 33.3 Hz is a null.
        let mut lpf = LowPassFilter::new(StageArith::exact());
        let input = sine(200.0 / 6.0, 800, 200.0);
        let out = lpf.process_signal(&input);
        let ratio = rms_tail(&out) / rms_tail(&input);
        assert!(ratio < 0.02, "33.3 Hz null leaked {ratio}");
    }

    #[test]
    fn approximate_lpf_tracks_exact_at_low_k() {
        let mut exact = LowPassFilter::new(StageArith::exact());
        let mut approx = LowPassFilter::new(StageArith::least_energy(4));
        let input = sine(5.0, 400, 250.0);
        let ye = exact.process_signal(&input);
        let ya = approx.process_signal(&input);
        let max_err = ye
            .iter()
            .zip(&ya)
            .map(|(a, b)| (a - b).abs())
            .max()
            .expect("non-empty");
        // Error enters through the ~2^(k+1) adder/multiplier bound and is
        // divided by the gain 36.
        assert!(max_err < 64, "max error {max_err}");
    }
}
