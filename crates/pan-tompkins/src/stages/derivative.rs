//! Stage C — the five-point derivative.
//!
//! `y[n] = 2x[n] + x[n−1] − x[n−3] − 2x[n−4]` — the five-tap digital
//! differentiator that extracts QRS slope information (paper §3). The
//! original Pan-Tompkins formulation divides by 8; the hardware datapath
//! keeps the full slope so the squarer sees maximal dynamic range (which is
//! what makes the later stages so error-tolerant — see `DESIGN.md` §4).
//! The coefficient magnitudes are only 2 and 1, which is why the paper
//! finds this stage nearly unapproximable: "approximating more than 4 LSBs
//! truncates all active paths" (§4.2). Antisymmetric taps: group delay
//! `(5 − 1) / 2 = 2`; the zero tap has no multiplier block.

/// The five derivative taps (newest sample first).
pub const TAPS: [i64; 5] = [2, 1, 0, -1, -2];

/// The gain divided out of every output (1: the datapath keeps the full
/// slope; the original algorithm's /8 is deferred into the adaptive
/// threshold, which is scale-free).
pub const GAIN: i64 = 1;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::tests::fir;
    use approx_arith::StageArith;

    fn der(arith: StageArith) -> crate::oracle::FirFilter {
        fir(&TAPS, GAIN, arith)
    }

    #[test]
    fn antisymmetric_taps_zero_dc() {
        assert_eq!(TAPS.iter().sum::<i64>(), 0);
    }

    #[test]
    fn constant_input_gives_zero_slope() {
        let out = der(StageArith::exact()).process_signal(&[777; 12]);
        assert_eq!(out[10], 0);
    }

    #[test]
    fn ramp_gives_constant_slope() {
        // x[n] = 16n: closed form y = 2*16n + 16(n-1) - 16(n-3) - 2*16(n-4)
        //       = 16*(2n + n-1 - n+3 - 2n+8) = 16*10 = 160.
        let input: Vec<i64> = (0..20).map(|n| 16 * n).collect();
        let out = der(StageArith::exact()).process_signal(&input);
        assert_eq!(out[10], 160);
        assert_eq!(out[15], 160);
    }

    #[test]
    fn slope_sign_follows_edge_direction() {
        let input: Vec<i64> = (0..20).map(|i| if i >= 10 { 800 } else { 0 }).collect();
        let out = der(StageArith::exact()).process_signal(&input);
        let max = *out.iter().max().expect("non-empty");
        assert!(max > 0, "rising edge should give positive slope");
        // Falling edge:
        let falling: Vec<i64> = input.iter().map(|v| 800 - v).collect();
        let out = der(StageArith::exact()).process_signal(&falling);
        let min = *out.iter().min().expect("non-empty");
        assert!(min < 0, "falling edge should give negative slope");
    }

    #[test]
    fn four_multipliers_three_adders() {
        // One multiplier per nonzero tap, one add per product after the
        // first, every sample.
        let mut der = der(StageArith::exact());
        let _ = der.process_signal(&[1, 2, 3]);
        assert_eq!(der.counters().ops.muls(), 4 * 3);
        assert_eq!(der.counters().ops.adds(), 3 * 3);
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
        let ye = der(StageArith::exact()).process_signal(&input);
        let ya = der(StageArith::least_energy(12)).process_signal(&input);
        let err: i64 = ye.iter().zip(&ya).map(|(a, b)| (a - b).abs()).sum();
        let signal: i64 = ye.iter().map(|v| v.abs()).sum();
        assert!(
            err > signal / 2,
            "12-LSB approximation left the derivative nearly intact"
        );
    }
}
