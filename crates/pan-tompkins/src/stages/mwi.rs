//! Stage E — the moving-window integrator.
//!
//! `y[n] = (1/N)·Σ_{k=0..N−1} x[n−k]` with `N = 30` (150 ms at 200 Hz), the
//! window Pan & Tompkins chose to cover the widest possible QRS complex
//! without overlapping a QRS and its T wave. The stage "is composed solely
//! of adder blocks" (paper §4.2): the hardware sums the window with a chain
//! of 29 adders — there are no multipliers to approximate, which is why
//! Fig 8(d) shows it tolerating 16 approximated LSBs. Group delay
//! `(N − 1) / 2 = 14`.

/// Window length in samples (150 ms at 200 Hz).
pub const WINDOW: usize = 30;

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::arith::ArithProgram;
    use crate::oracle::Mwi;
    use approx_arith::StageArith;

    fn mwi(arith: StageArith) -> Mwi {
        Mwi::new(Arc::new(ArithProgram::new(arith)))
    }

    fn run(mwi: &mut Mwi, input: &[i64]) -> Vec<i64> {
        input.iter().map(|&x| mwi.process(x)).collect()
    }

    #[test]
    fn mean_of_constant_is_constant() {
        let out = run(&mut mwi(StageArith::exact()), &[120; 60]);
        assert_eq!(out[59], 120);
    }

    #[test]
    fn impulse_spreads_over_window() {
        let mut input = vec![0i64; 70];
        input[0] = 3000;
        let out = run(&mut mwi(StageArith::exact()), &input);
        assert_eq!(out[0], 100); // 3000/30
        assert_eq!(out[29], 100);
        assert_eq!(out[30], 0);
    }

    #[test]
    fn smooths_alternating_signal() {
        let input: Vec<i64> = (0..90).map(|i| if i % 2 == 0 { 600 } else { 0 }).collect();
        let out = run(&mut mwi(StageArith::exact()), &input);
        assert_eq!(out[80], 300);
    }

    #[test]
    fn twenty_nine_adds_per_sample() {
        let mut mwi = mwi(StageArith::exact());
        let _ = mwi.process(1);
        assert_eq!(mwi.counters().ops.adds(), 29);
        assert_eq!(mwi.counters().ops.muls(), 0);
    }

    #[test]
    fn tolerates_many_approximate_lsbs_on_large_signals() {
        // The paper's "extreme error tolerance": MWI inputs are squared
        // values (millions on the full-scale datapath), so 16 approximated
        // LSBs leave the mean usable.
        let input: Vec<i64> = (0..120)
            .map(|i| {
                let v = 2000.0 * (std::f64::consts::TAU * 3.0 * i as f64 / 200.0).sin();
                ((v * v) as i64).max(0)
            })
            .collect();
        let ye = run(&mut mwi(StageArith::exact()), &input);
        let ya = run(&mut mwi(StageArith::least_energy(16)), &input);
        let peak = *ye.iter().max().expect("non-empty");
        let err = ye
            .iter()
            .zip(&ya)
            .map(|(a, b)| (a - b).abs())
            .max()
            .expect("non-empty");
        // Error after /30 rescale stays well below the signal peak.
        assert!(
            err < peak,
            "approximation error {err} destroyed signal of peak {peak}"
        );
    }
}
