//! Stage B — the high-pass filter.
//!
//! Pan & Tompkins build the high-pass by subtracting a 32-sample low-pass
//! (running mean) from an all-pass delayed by 16 samples:
//! `y[n] = x[n−16] − (1/32)·Σ_{k=0..31} x[n−k]`. Expanded to FIR form the
//! taps are `−1` everywhere except `+31` at delay 16 (with gain 32), which
//! gives the stage its "31 adders and 32 multipliers" (paper §4.2). Cutoff
//! ≈ 5 Hz; it removes baseline wander and respiration drift. The expanded
//! taps are not linear-phase: the group delay is the dominant `+31` tap's
//! 16 (see [`crate::fir::FirProgram::group_delay`]).

/// The 32 FIR taps of the expanded HPF transfer function.
pub const TAPS: [i64; 32] = {
    let mut taps = [-1i64; 32];
    taps[16] = 31;
    taps
};

/// The gain divided out of every output.
pub const GAIN: i64 = 32;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::tests::{fir, rms_ratio, sine};
    use approx_arith::StageArith;

    fn hpf(arith: StageArith) -> crate::oracle::FirFilter {
        fir(&TAPS, GAIN, arith)
    }

    #[test]
    fn taps_sum_to_zero() {
        // Zero DC gain is the defining high-pass property.
        assert_eq!(TAPS.iter().sum::<i64>(), -31 + 31);
    }

    #[test]
    fn thirty_two_taps_all_active() {
        assert!(TAPS.iter().all(|t| *t != 0));
    }

    #[test]
    fn dc_fully_rejected() {
        let out = hpf(StageArith::exact()).process_signal(&[500; 100]);
        assert_eq!(out[80], 0);
    }

    #[test]
    fn slow_wander_suppressed() {
        let ratio = rms_ratio(&mut hpf(StageArith::exact()), &sine(0.3, 4000, 300.0));
        assert!(ratio < 0.15, "0.3 Hz wander leaked {ratio}");
    }

    #[test]
    fn qrs_band_passes() {
        let ratio = rms_ratio(&mut hpf(StageArith::exact()), &sine(10.0, 1000, 300.0));
        assert!(ratio > 0.6, "10 Hz attenuated to {ratio}");
    }

    #[test]
    fn impulse_response_matches_closed_form() {
        let mut input = vec![0i64; 40];
        input[0] = 3200; // large enough that /32 stays exact per tap
        let out = hpf(StageArith::exact()).process_signal(&input);
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
        let input = sine(8.0, 600, 250.0);
        let ye = hpf(StageArith::exact()).process_signal(&input);
        let ya = hpf(StageArith::least_energy(2)).process_signal(&input);
        let max_err = ye
            .iter()
            .zip(&ya)
            .map(|(a, b)| (a - b).abs())
            .max()
            .expect("non-empty");
        assert!(max_err < 64, "max error {max_err}");
    }
}
