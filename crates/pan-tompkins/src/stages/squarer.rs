//! Stage D — point-by-point squaring.
//!
//! `y[n] = x[n]²` — "nonlinearly amplifies the output while emphasizing the
//! higher (ECG) frequencies and renders all data points positive" (paper
//! §3). The stage is a single 16×16 multiplier, so it contributes one
//! multiplier block and no adders to the netlist, has no constants and
//! delays nothing.

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::arith::ArithProgram;
    use crate::oracle::Counted;
    use approx_arith::StageArith;

    fn squarer(arith: StageArith) -> Counted {
        Counted::new(Arc::new(ArithProgram::new(arith)))
    }

    #[test]
    fn squares_exactly_when_exact() {
        let mut sqr = squarer(StageArith::exact());
        for x in [-300i64, -1, 0, 1, 7, 255, 1000] {
            assert_eq!(sqr.square(x), x * x);
        }
    }

    #[test]
    fn output_nonnegative_even_when_approximate() {
        // Sign handling is exact (sign-magnitude core): x*x can never come
        // out negative — neither through the generic multiply the scalar
        // reference runs nor through the compiled squarer the lanes run.
        let mut sqr = squarer(StageArith::least_energy(8));
        let compiled = ArithProgram::new(StageArith::least_energy(8)).compile_square();
        for x in [-500i64, -63, -3, 0, 3, 63, 500] {
            assert!(sqr.square(x) >= 0, "square of {x} negative");
            assert_eq!(compiled.square_clamped(x), sqr.square(x), "{x}²");
        }
    }

    #[test]
    fn emphasises_large_values() {
        let mut sqr = squarer(StageArith::exact());
        let small = sqr.square(10);
        let large = sqr.square(100);
        assert_eq!(large / small, 100); // 10x input -> 100x output
    }

    #[test]
    fn approximation_error_bounded() {
        let mut exact = squarer(StageArith::exact());
        let mut approx = squarer(StageArith::least_energy(8));
        for x in [-400i64, -100, 50, 333] {
            let e = exact.square(x);
            let a = approx.square(x);
            assert!((e - a).abs() <= 1 << 16, "error for {x}: {}", e - a);
        }
    }

    #[test]
    fn one_multiplication_per_sample() {
        let mut sqr = squarer(StageArith::exact());
        for x in [1, 2, 3, 4] {
            let _ = sqr.square(x);
        }
        assert_eq!(sqr.counters.ops.muls(), 4);
        assert_eq!(sqr.counters.ops.adds(), 0);
    }
}
