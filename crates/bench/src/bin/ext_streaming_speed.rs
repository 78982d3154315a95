//! **Extension experiment**: the streaming (push-based) QRS pipeline vs the
//! batch detector — equivalence gate plus throughput measurement.
//!
//! Three sections:
//!
//! 1. **Equivalence gate** — several pipeline configurations × chunk sizes
//!    (single samples up to whole-record) over the synthetic paper record;
//!    batch [`QrsDetector::detect`] must equal the scalar reference
//!    pipeline ([`pan_tompkins::oracle`], the stage objects one sample at
//!    a time) in every `DetectionResult` field, the streaming
//!    [`StreamingQrsDetector`] must equal both, and the event stream must
//!    be the reference's for every chunking. Any divergence exits non-zero
//!    — CI's bench-smoke job runs this via `--check`.
//! 2. **Per-tap throughput** — the FIR hot-loop multiply through the
//!    generic compiled 16×16 engine vs the per-tap exact product plus
//!    residual ([`approx_arith::TapMultiplier`]).
//! 3. **End-to-end throughput** — samples/second through the batch
//!    detector vs the streaming detector at AFE-like chunk sizes. The
//!    acceptance target is streaming within 10 % of (or faster than) the
//!    batch compiled path.
//!
//! `--check` runs only section 1 (the CI mode).

use std::time::Instant;

use approx_arith::{CompiledMultiplier, TapMultiplier};
use hwmodel::report::fmt_f64;
use pan_tompkins::{oracle, PipelineConfig, QrsDetector, StreamingQrsDetector};

/// Chunk sizes exercised by the gate: single samples, a small prime, an
/// AFE-style 100 ms block, a large odd block, and the whole record.
const GATE_CHUNKS: [usize; 5] = [1, 7, 20, 997, usize::MAX];

fn gate_configs() -> Vec<PipelineConfig> {
    vec![
        PipelineConfig::exact(),
        // The paper's B9 and a mid/heavy design point.
        PipelineConfig::least_energy([10, 12, 2, 8, 16]),
        PipelineConfig::least_energy([4, 4, 2, 4, 8]),
        PipelineConfig::least_energy([16, 16, 4, 8, 16]),
    ]
}

/// Section 1: streaming vs batch across configurations and chunkings.
/// Returns `(configurations, chunkings)` checked; exits non-zero on any
/// divergence.
fn equivalence_gate() -> (usize, usize) {
    let record = xbiosip_bench::quick_record();
    for config in gate_configs() {
        let batch = QrsDetector::new(config).detect(record.samples());
        let (reference_events, scalar) = oracle::detect_chunked(config, record.samples(), 20);
        if batch != scalar {
            eprintln!("DIVERGENCE: {config}: batch detect != scalar reference");
            std::process::exit(1);
        }
        // The heaviest design point legitimately destroys detection (the
        // paper's LPF breaks past 14 LSBs) — it stays in the gate to prove
        // equivalence in the degraded regime, but only viable designs must
        // produce beats for the check to be non-vacuous.
        if config.lsb_vector()[0] <= 14 && batch.r_peaks().is_empty() {
            eprintln!("DIVERGENCE: {config}: gate workload produced no beats (vacuous check)");
            std::process::exit(1);
        }
        for chunk in GATE_CHUNKS {
            let (events, streamed) =
                StreamingQrsDetector::detect_chunked(config, record.samples(), chunk);
            if streamed != batch {
                eprintln!("DIVERGENCE: {config} chunk {chunk}: streaming result != batch detect");
                std::process::exit(1);
            }
            if events != reference_events {
                eprintln!("DIVERGENCE: {config} chunk {chunk}: event stream != scalar reference's");
                std::process::exit(1);
            }
        }
    }
    (gate_configs().len(), GATE_CHUNKS.len())
}

/// Section 2: the FIR hot-loop multiply — generic compiled engine vs the
/// per-tap residual, on the paper's main approximate configuration.
fn per_tap_throughput() {
    const N: u64 = 4_000_000;
    let mul = CompiledMultiplier::new(
        16,
        8,
        approx_arith::Mult2x2Kind::V1,
        approx_arith::FullAdderKind::Ama5,
    );
    let tap = TapMultiplier::new(&mul, 6); // the LPF's centre coefficient
    let run = |f: &dyn Fn(i64) -> i64| {
        let t0 = Instant::now();
        let mut acc = 0i64;
        for i in 0..N {
            let a = ((i.wrapping_mul(48271)) & 0xFFFF) as i64 - 32768;
            acc = acc.wrapping_add(f(a));
        }
        (t0.elapsed(), acc)
    };
    let (t_generic, acc_generic) = run(&|a| mul.mul_signed_clamped(a, 6));
    let (t_tap, acc_tap) = run(&|a| tap.mul_clamped(a));
    assert_eq!(acc_generic, acc_tap, "per-tap table diverged from engine");
    let rate = |t: std::time::Duration| N as f64 / t.as_secs_f64();
    println!("FIR-tap multiply (16x16, k=8, AppMultV1/ApproxAdd5, coeff 6):");
    println!(
        "  generic compiled: {:>12} muls/s   ({t_generic:.2?} for {N} muls)",
        fmt_f64(rate(t_generic), 0)
    );
    println!(
        "  per-tap residual: {:>12} muls/s   ({t_tap:.2?} for {N} muls)",
        fmt_f64(rate(t_tap), 0)
    );
    println!(
        "  speedup:          {}x\n",
        fmt_f64(t_generic.as_secs_f64() / t_tap.as_secs_f64().max(1e-12), 1)
    );
}

/// Section 3: end-to-end per-sample throughput, batch vs streaming.
fn end_to_end() {
    const REPEATS: usize = 6;
    let record = xbiosip_bench::experiment_record();
    let config = PipelineConfig::least_energy([10, 12, 2, 8, 16]);
    let samples = record.samples();

    let batch_run = || {
        let t0 = Instant::now();
        let result = QrsDetector::new(config).detect(samples);
        (t0.elapsed(), result.r_peaks().len())
    };
    let streaming_run = |chunk: usize| {
        let t0 = Instant::now();
        let (_, result) = StreamingQrsDetector::detect_chunked(config, samples, chunk);
        (t0.elapsed(), result.r_peaks().len())
    };

    // Warm the shared LUT caches, then take the best of a few repeats.
    let (_, peaks) = batch_run();
    let best = |f: &dyn Fn() -> (std::time::Duration, usize)| {
        (0..REPEATS).map(|_| f().0).min().expect("repeats > 0")
    };
    let t_batch = best(&batch_run);
    let rate = |t: std::time::Duration| samples.len() as f64 / t.as_secs_f64();

    println!(
        "end-to-end detection throughput ({} samples, B9 design, {} beats):",
        samples.len(),
        peaks
    );
    println!(
        "  batch detect:        {:>12} samples/s   ({t_batch:.2?})",
        fmt_f64(rate(t_batch), 0)
    );
    let mut worst_ratio = f64::INFINITY;
    for chunk in [1usize, 20, 256] {
        let t = best(&|| streaming_run(chunk));
        let ratio = t_batch.as_secs_f64() / t.as_secs_f64().max(1e-12);
        worst_ratio = worst_ratio.min(ratio);
        println!(
            "  streaming chunk {chunk:>4}: {:>12} samples/s   ({t:.2?}, {}x batch)",
            fmt_f64(rate(t), 0),
            fmt_f64(ratio, 2)
        );
    }
    println!(
        "  slowest streaming path: {}x batch (target >= 0.90x)",
        fmt_f64(worst_ratio, 2)
    );
    if worst_ratio < 0.9 {
        println!("  WARNING: streaming more than 10% behind batch on this machine");
    }
}

fn main() {
    let check_only = std::env::args().any(|a| a == "--check");
    xbiosip_bench::banner(
        "Extension — streaming QRS pipeline vs batch detector",
        "chunk-invariance gate + per-tap residuals + push-path throughput",
    );

    let t0 = Instant::now();
    let (configs, chunkings) = equivalence_gate();
    println!(
        "equivalence gate: {configs} configurations x {chunkings} chunkings — streaming == batch \
         == scalar reference, events chunk-invariant ({:.2?})\n",
        t0.elapsed()
    );
    if check_only {
        return;
    }

    per_tap_throughput();
    end_to_end();
}
