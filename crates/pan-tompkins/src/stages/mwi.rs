//! Stage E — the moving-window integrator.
//!
//! `y[n] = (1/N)·Σ_{k=0..N−1} x[n−k]` with `N = 30` (150 ms at 200 Hz), the
//! window Pan & Tompkins chose to cover the widest possible QRS complex
//! without overlapping a QRS and its T wave. The stage "is composed solely
//! of adder blocks" (paper §4.2): the hardware sums the window with a chain
//! of 29 adders — there are no multipliers to approximate, which is why
//! Fig 8(d) shows it tolerating 16 approximated LSBs.

use approx_arith::{OpCounter, StageArith};

use crate::arith::{div_round, ArithBackend, ArithProgram};
use crate::stages::Stage;

/// Window length in samples (150 ms at 200 Hz).
pub const WINDOW: usize = 30;

/// Stage E: moving-window integrator.
///
/// # Example
///
/// ```
/// use approx_arith::StageArith;
/// use pan_tompkins::stages::{MovingWindowIntegrator, Stage};
///
/// let mut mwi = MovingWindowIntegrator::new(StageArith::exact());
/// let out = mwi.process_signal(&[30; 60]);
/// assert_eq!(out[50], 30); // mean of a constant is the constant
/// ```
#[derive(Debug, Clone)]
pub struct MovingWindowIntegrator {
    backend: ArithBackend,
    window: Vec<i64>,
    cursor: usize,
}

impl MovingWindowIntegrator {
    /// Creates the stage with the given approximation parameters.
    #[must_use]
    pub fn new(arith: StageArith) -> Self {
        Self::from_program(std::sync::Arc::new(Self::program(arith)))
    }

    /// Builds the stage's shared [`ArithProgram`] for the given arithmetic.
    #[must_use]
    pub fn program(arith: StageArith) -> ArithProgram {
        ArithProgram::new(arith)
    }

    /// Creates a stage instance over an existing shared program.
    #[must_use]
    pub fn from_program(program: std::sync::Arc<ArithProgram>) -> Self {
        Self {
            backend: ArithBackend::from_program(program),
            window: vec![0; WINDOW],
            cursor: 0,
        }
    }
}

impl Stage for MovingWindowIntegrator {
    fn name(&self) -> &'static str {
        "MWI"
    }

    fn process(&mut self, x: i64) -> i64 {
        self.window[self.cursor] = x;
        self.cursor = (self.cursor + 1) % WINDOW;
        // The RTL sums the window with a 29-adder chain every cycle; a
        // running-sum shortcut would change which approximate additions
        // happen, so we mirror the netlist faithfully.
        let mut acc = self.window[0];
        for &v in &self.window[1..] {
            acc = self.backend.add(acc, v);
        }
        div_round(acc, WINDOW as i64)
    }

    fn group_delay(&self) -> usize {
        (WINDOW - 1) / 2
    }

    fn multipliers(&self) -> u32 {
        0
    }

    fn adders(&self) -> u32 {
        // WIDTH: `WINDOW` is a small compile-time constant (30 taps).
        (WINDOW - 1) as u32
    }

    fn ops(&self) -> OpCounter {
        *self.backend.ops()
    }

    fn saturations(&self) -> u64 {
        self.backend.saturation_events()
    }

    fn add_overflows(&self) -> u64 {
        self.backend.add_overflow_events()
    }

    fn reset(&mut self) {
        self.window.fill(0);
        self.cursor = 0;
    }

    fn reset_counters(&mut self) {
        self.backend.reset_counters();
    }

    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.window.capacity() * std::mem::size_of::<i64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_constant_is_constant() {
        let mut mwi = MovingWindowIntegrator::new(StageArith::exact());
        let out = mwi.process_signal(&[120; 60]);
        assert_eq!(out[59], 120);
    }

    #[test]
    fn impulse_spreads_over_window() {
        let mut mwi = MovingWindowIntegrator::new(StageArith::exact());
        let mut input = vec![0i64; 70];
        input[0] = 3000;
        let out = mwi.process_signal(&input);
        assert_eq!(out[0], 100); // 3000/30
        assert_eq!(out[29], 100);
        assert_eq!(out[30], 0);
    }

    #[test]
    fn smooths_alternating_signal() {
        let mut mwi = MovingWindowIntegrator::new(StageArith::exact());
        let input: Vec<i64> = (0..90).map(|i| if i % 2 == 0 { 600 } else { 0 }).collect();
        let out = mwi.process_signal(&input);
        assert_eq!(out[80], 300);
    }

    #[test]
    fn twenty_nine_adds_per_sample() {
        let mut mwi = MovingWindowIntegrator::new(StageArith::exact());
        let _ = mwi.process(1);
        assert_eq!(mwi.ops().adds(), 29);
        assert_eq!(mwi.ops().muls(), 0);
    }

    #[test]
    fn reset_clears_window() {
        let mut mwi = MovingWindowIntegrator::new(StageArith::exact());
        let _ = mwi.process(30_000);
        mwi.reset();
        assert_eq!(mwi.process(0), 0);
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
        let mut exact = MovingWindowIntegrator::new(StageArith::exact());
        let mut approx = MovingWindowIntegrator::new(StageArith::least_energy(16));
        let ye = exact.process_signal(&input);
        let ya = approx.process_signal(&input);
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
