//! Stage A — the low-pass filter.
//!
//! Pan & Tompkins' recursive form `H(z) = (1−z⁻⁶)²/(1−z⁻¹)²` expands to the
//! 11-tap FIR `[1,2,3,4,5,6,5,4,3,2,1]` with gain 36 — "a 10th order,
//! 11-tap Low Pass Filter that comprises 10 adders, 11 multipliers and 10
//! registers" (paper §2). Cutoff ≈ 11 Hz at 200 Hz sampling; it removes
//! muscle noise and mains interference. Symmetric taps: group delay
//! `(11 − 1) / 2 = 5`.

/// The 11-tap FIR taps of the expanded LPF transfer function.
pub const TAPS: [i64; 11] = [1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1];

/// The DC gain of the taps (divided out of every output).
pub const GAIN: i64 = 36;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::tests::{fir, rms_ratio, sine};
    use approx_arith::StageArith;

    fn lpf(arith: StageArith) -> crate::oracle::FirFilter {
        fir(&TAPS, GAIN, arith)
    }

    #[test]
    fn taps_sum_to_gain() {
        assert_eq!(TAPS.iter().sum::<i64>(), GAIN);
    }

    #[test]
    fn dc_passes_unity() {
        let out = lpf(StageArith::exact()).process_signal(&[250; 40]);
        assert_eq!(out[30], 250);
    }

    #[test]
    fn passband_5hz_survives() {
        let ratio = rms_ratio(&mut lpf(StageArith::exact()), &sine(5.0, 800, 200.0));
        assert!(ratio > 0.7, "5 Hz attenuated to {ratio}");
    }

    #[test]
    fn stopband_50hz_suppressed() {
        // Closed form: |H(50 Hz)| = (1/0.707)^2 / 36 = 0.0556.
        let ratio = rms_ratio(&mut lpf(StageArith::exact()), &sine(50.0, 800, 200.0));
        assert!(ratio < 0.06, "50 Hz only attenuated to {ratio}");
    }

    #[test]
    fn transfer_zero_at_33hz() {
        // (1 - z^-6) zeros: f = k * fs / 6 -> 33.3 Hz is a null.
        let input = sine(200.0 / 6.0, 800, 200.0);
        let ratio = rms_ratio(&mut lpf(StageArith::exact()), &input);
        assert!(ratio < 0.02, "33.3 Hz null leaked {ratio}");
    }

    #[test]
    fn approximate_lpf_tracks_exact_at_low_k() {
        let input = sine(5.0, 400, 250.0);
        let ye = lpf(StageArith::exact()).process_signal(&input);
        let ya = lpf(StageArith::least_energy(4)).process_signal(&input);
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
