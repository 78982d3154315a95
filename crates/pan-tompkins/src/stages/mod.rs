//! The five Pan-Tompkins stages (paper Fig 3) as the constants that define
//! them: taps, gains and the integration window.
//!
//! The transfer functions and operator counts follow the original Pan &
//! Tompkins (1985) integer realisation expanded to FIR form, which is what
//! the paper's VHDL implements and counts (§2, §4.2).
//! [`crate::DetectorEngine::new`] compiles these constants into the
//! programs every stage kernel runs; the squarer has no constants (one
//! 16×16 multiplier) and the MWI's only constant is its window.

pub mod derivative;
pub mod hpf;
pub mod lpf;
pub mod mwi;
pub mod squarer;

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::fir::FirProgram;
    use crate::oracle::FirFilter;
    use crate::{DetectorEngine, PipelineConfig, StageKind};
    use approx_arith::StageArith;

    /// A stage FIR on the scalar reference, fresh delay line and counters.
    pub(super) fn fir(taps: &[i64], gain: i64, arith: StageArith) -> FirFilter {
        FirFilter::from_program(Arc::new(FirProgram::new(taps, gain, arith)))
    }

    /// `amp · sin(2π f n / 200 Hz)`, rounded.
    pub(super) fn sine(freq_hz: f64, n: usize, amp: f64) -> Vec<i64> {
        (0..n)
            .map(|i| {
                (amp * (std::f64::consts::TAU * freq_hz * i as f64 / 200.0).sin()).round() as i64
            })
            .collect()
    }

    /// The filter's settled gain on `input`: output RMS over input RMS,
    /// both over the second half.
    pub(super) fn rms_ratio(filter: &mut FirFilter, input: &[i64]) -> f64 {
        let rms_tail = |signal: &[i64]| {
            let tail = &signal[signal.len() / 2..];
            (tail.iter().map(|v| (*v * *v) as f64).sum::<f64>() / tail.len() as f64).sqrt()
        };
        rms_tail(&filter.process_signal(input)) / rms_tail(input)
    }

    /// The operator-count table the hardware model costs stages by
    /// ([`StageKind::multipliers`]/[`StageKind::adders`]) against the
    /// compiled programs: one multiplier block per nonzero FIR tap chained
    /// by taps − 1 adders, one squarer multiplier, and the MWI's adder
    /// chain over its window.
    #[test]
    fn operator_counts_match_paper() {
        for config in [
            PipelineConfig::exact(),
            PipelineConfig::least_energy([10, 12, 2, 8, 16]),
        ] {
            let engine = DetectorEngine::new(config);
            for (kind, program) in [
                (StageKind::Lpf, engine.lpf_program()),
                (StageKind::Hpf, engine.hpf_program()),
                (StageKind::Derivative, engine.der_program()),
            ] {
                let compiled = program.tap_mults().iter().flatten().count() as u32;
                let nonzero = program.taps().iter().filter(|&&c| c != 0).count() as u32;
                assert_eq!(compiled, nonzero, "{kind}");
                assert_eq!(
                    (kind.multipliers(), kind.adders()),
                    (compiled, compiled - 1)
                );
            }
            assert_eq!(StageKind::Squarer.multipliers(), 1);
            assert_eq!(StageKind::Squarer.adders(), 0);
            assert_eq!(StageKind::Mwi.multipliers(), 0);
            assert_eq!(StageKind::Mwi.adders() as usize, mwi::WINDOW - 1);
        }
        assert_eq!(StageKind::Lpf.multipliers(), 11);
        assert_eq!(StageKind::Hpf.multipliers(), 32);
        assert_eq!(StageKind::Derivative.multipliers(), 4);
    }

    /// Total pipeline group delay stays fixed so detected peaks can be
    /// mapped back to raw-signal positions.
    #[test]
    fn total_group_delay() {
        let engine = DetectorEngine::new(PipelineConfig::exact());
        assert_eq!(engine.lpf_program().group_delay(), 5);
        assert_eq!(engine.hpf_program().group_delay(), 16);
        assert_eq!(engine.der_program().group_delay(), 2);
        // The squarer is point-wise; the MWI delays by (N − 1) / 2.
        assert_eq!((mwi::WINDOW - 1) / 2, 14);
        assert_eq!(engine.total_delay(), (5 + 16 + 2) + 14);
    }
}
