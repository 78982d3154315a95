//! **Extension experiment**: the compiled word-level arithmetic engine vs
//! the bit-level netlist walk — correctness gate plus speedup measurement.
//!
//! Two sections:
//!
//! 1. **Equivalence gate** — a fixed operand-vector sweep across the full
//!    configuration grid (every LSB depth × elementary module pair). Any
//!    divergence between [`CompiledMultiplier`] and [`RecursiveMultiplier`]
//!    exits non-zero, which is what CI's bench-smoke job checks. The same
//!    sweep checks the residual forms the pipeline runs — a
//!    [`TapMultiplier`] for each stage coefficient magnitude and the
//!    [`SquareMultiplier`] — against the netlist walk, so the wrapping
//!    `u32` residual is anchored to it at every `k`.
//! 2. **Multiplier throughput** — samples/second through each engine on the
//!    paper's main approximate configuration.
//!
//! The pipeline itself only runs the compiled engine; the bit-level
//! netlist walk is its reference, here and in the `approx_arith` property
//! tests.
//!
//! `--check` runs only section 1 (the CI mode).

use std::time::Instant;

use approx_arith::{
    CompiledMultiplier, FullAdderKind, Mult2x2Kind, RecursiveMultiplier, SquareMultiplier,
    TapMultiplier,
};
use hwmodel::report::fmt_f64;

/// Operand pairs exercised per configuration in the equivalence gate:
/// boundary patterns plus a deterministic pseudo-random spread.
fn check_vectors() -> Vec<(u64, u64)> {
    let mut v = vec![
        (0u64, 0u64),
        (1, 1),
        (0, 65535),
        (65535, 0),
        (65535, 65535),
        (32768, 32767),
        (255, 256),
        (0x5555, 0xAAAA),
    ];
    // SplitMix64 spread — fixed seed so CI sees the same vectors every run.
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    for _ in 0..56 {
        let r = next();
        v.push((r & 0xFFFF, (r >> 16) & 0xFFFF));
    }
    v
}

/// The coefficient magnitudes of the five stage netlists (LPF 1..6, HPF
/// 1/31, DER 1/2).
const STAGE_MAGS: [i64; 7] = [1, 2, 3, 4, 5, 6, 31];

/// Section 1: compiled vs bit-level on the full 16×16 configuration grid,
/// and the stage taps' and squarer's residual forms vs bit-level on the
/// same grid (each vector's first operand, re-centred as a signed sample).
/// Returns the number of configurations checked; exits non-zero on any
/// divergence.
fn equivalence_gate() -> usize {
    let vectors = check_vectors();
    let mut configs = 0usize;
    for k in 0..=32u32 {
        for mult in Mult2x2Kind::ALL {
            for add in FullAdderKind::ALL {
                let bit = RecursiveMultiplier::new(16, k, mult, add);
                let fast = CompiledMultiplier::from_recursive(&bit);
                configs += 1;
                for &(a, b) in &vectors {
                    let expect = bit.mul_unsigned(a, b);
                    let got = fast.mul_unsigned(a, b);
                    if got != expect {
                        eprintln!(
                            "DIVERGENCE: k={k} {mult} {add}: {a}x{b} -> compiled {got}, bit-level {expect}"
                        );
                        std::process::exit(1);
                    }
                }
                let taps = STAGE_MAGS.map(|c| TapMultiplier::new(&fast, c));
                let sqr = SquareMultiplier::new(&fast);
                for &(a, _) in &vectors {
                    let sample = a as i64 - 32768;
                    for tap in &taps {
                        let c = tap.coeff();
                        let (got, expect) = (tap.mul_clamped(sample), bit.mul(sample, c));
                        if got != expect {
                            eprintln!(
                                "DIVERGENCE: k={k} {mult} {add}: tap {sample}x{c} -> residual {got}, bit-level {expect}"
                            );
                            std::process::exit(1);
                        }
                    }
                    let (got, expect) = (sqr.square_clamped(sample), bit.mul(sample, sample));
                    if got != expect {
                        eprintln!(
                            "DIVERGENCE: k={k} {mult} {add}: square {sample}² -> residual {got}, bit-level {expect}"
                        );
                        std::process::exit(1);
                    }
                }
            }
        }
    }
    configs
}

/// Section 2: raw multiplier throughput on the paper's main configuration.
fn throughput() {
    const N: u64 = 2_000_000;
    let bit = RecursiveMultiplier::new(16, 8, Mult2x2Kind::V1, FullAdderKind::Ama5);
    let fast = CompiledMultiplier::from_recursive(&bit);
    let run = |f: &dyn Fn(u64, u64) -> u64| {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for i in 0..N {
            let a = (i.wrapping_mul(48271)) & 0xFFFF;
            let b = (i.wrapping_mul(16807) >> 4) & 0xFFFF;
            acc = acc.wrapping_add(f(a, b));
        }
        (t0.elapsed(), acc)
    };
    let (t_bit, acc_bit) = run(&|a, b| bit.mul_unsigned(a, b));
    let (t_fast, acc_fast) = run(&|a, b| fast.mul_unsigned(a, b));
    assert_eq!(acc_bit, acc_fast, "engines disagreed during throughput run");
    let rate = |t: std::time::Duration| N as f64 / t.as_secs_f64();
    println!("multiplier throughput (16x16, k=8, AppMultV1/ApproxAdd5):");
    println!(
        "  bit-level: {:>12} muls/s   ({t_bit:.2?} for {N} muls)",
        fmt_f64(rate(t_bit), 0)
    );
    println!(
        "  compiled:  {:>12} muls/s   ({t_fast:.2?} for {N} muls)",
        fmt_f64(rate(t_fast), 0)
    );
    println!(
        "  speedup:   {}x\n",
        fmt_f64(t_bit.as_secs_f64() / t_fast.as_secs_f64().max(1e-12), 1)
    );
}

fn main() {
    let check_only = std::env::args().any(|a| a == "--check");
    xbiosip_bench::banner(
        "Extension — compiled engine vs bit-level netlist walk",
        "equivalence gate + throughput",
    );

    let t0 = Instant::now();
    let configs = equivalence_gate();
    println!(
        "equivalence gate: {} configurations x {} operand vectors, products and the {} stage taps' and squarer's residual forms — all identical ({:.2?})\n",
        configs,
        check_vectors().len(),
        STAGE_MAGS.len(),
        t0.elapsed()
    );
    if check_only {
        return;
    }

    throughput();
}
