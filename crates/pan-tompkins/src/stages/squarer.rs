//! Stage D — point-by-point squaring.
//!
//! `y[n] = x[n]²` — "nonlinearly amplifies the output while emphasizing the
//! higher (ECG) frequencies and renders all data points positive" (paper
//! §3). The stage is a single 16×16 multiplier, so it contributes one
//! multiplier block and no adders to the netlist.

use approx_arith::{OpCounter, StageArith};

use crate::arith::{ArithBackend, ArithProgram};
use crate::stages::Stage;

/// Stage D: squarer.
///
/// # Example
///
/// ```
/// use approx_arith::StageArith;
/// use pan_tompkins::stages::{Squarer, Stage};
///
/// let mut sqr = Squarer::new(StageArith::exact());
/// assert_eq!(sqr.process(-25), 625);
/// assert_eq!(sqr.process(0), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Squarer {
    backend: ArithBackend,
}

impl Squarer {
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
        }
    }
}

impl Stage for Squarer {
    fn name(&self) -> &'static str {
        "SQR"
    }

    fn process(&mut self, x: i64) -> i64 {
        self.backend.square(x)
    }

    fn group_delay(&self) -> usize {
        0
    }

    fn multipliers(&self) -> u32 {
        1
    }

    fn adders(&self) -> u32 {
        0
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

    fn reset(&mut self) {}

    fn reset_counters(&mut self) {
        self.backend.reset_counters();
    }

    fn state_bytes(&self) -> usize {
        // Point-wise: no delay line, no heap beyond the backend itself.
        std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squares_exactly_when_exact() {
        let mut sqr = Squarer::new(StageArith::exact());
        for x in [-300i64, -1, 0, 1, 7, 255, 1000] {
            assert_eq!(sqr.process(x), x * x);
        }
    }

    #[test]
    fn output_nonnegative_even_when_approximate() {
        // Sign handling is exact (sign-magnitude core): x*x can never come
        // out negative.
        let mut sqr = Squarer::new(StageArith::least_energy(8));
        for x in [-500i64, -63, -3, 0, 3, 63, 500] {
            assert!(sqr.process(x) >= 0, "square of {x} negative");
        }
    }

    #[test]
    fn emphasises_large_values() {
        let mut sqr = Squarer::new(StageArith::exact());
        let small = sqr.process(10);
        let large = sqr.process(100);
        assert_eq!(large / small, 100); // 10x input -> 100x output
    }

    #[test]
    fn approximation_error_bounded() {
        let mut exact = Squarer::new(StageArith::exact());
        let mut approx = Squarer::new(StageArith::least_energy(8));
        for x in [-400i64, -100, 50, 333] {
            let e = exact.process(x);
            let a = approx.process(x);
            assert!((e - a).abs() <= 1 << 16, "error for {x}: {}", e - a);
        }
    }

    #[test]
    fn one_multiplication_per_sample() {
        let mut sqr = Squarer::new(StageArith::exact());
        let _ = sqr.process_signal(&[1, 2, 3, 4]);
        assert_eq!(sqr.ops().muls(), 4);
        assert_eq!(sqr.ops().adds(), 0);
    }
}
