//! **Extension experiment**: bounded-memory streaming detection — the
//! CI-enforced footprint budget plus record-batched evaluation throughput.
//!
//! Three sections:
//!
//! 1. **Footprint gate** — streams records of growing length through a
//!    [`Footprint::Bounded`] detector, sampling
//!    [`StreamingQrsDetector::state_bytes`] every chunk. Fails (exit 1) if
//!    the high-water mark exceeds the fixed budget (64 KiB) or grows with
//!    the record length, or if the bounded event stream ever diverges from
//!    the retaining mode. This is the *measured* O(1) bound — CI's
//!    bench-smoke job runs it via `--check`.
//! 2. **Footprint table** — bounded vs retaining live-state bytes across
//!    record lengths, plus the shared (amortised) residual-table bytes.
//! 3. **Record-batched evaluation** — `evaluate_records_with` (one
//!    reused bounded detector per config) against
//!    `evaluate_across_records` (fresh evaluator + batch detector per
//!    record), same reports, wall-clock compared.
//!
//! `--check` runs only section 1 (the CI mode). `--json PATH` additionally
//! writes the headline numbers (footprint bytes, throughput) as a
//! machine-readable artifact — CI uploads it so the repo accumulates a
//! perf trajectory across PRs.

use std::time::Instant;

use ecg::EcgRecord;
use hwmodel::report::fmt_f64;
use pan_tompkins::{Footprint, PipelineConfig, StreamEvent, StreamingQrsDetector};
use xbiosip::quality_eval::{evaluate_across_records, EvalOptions, Evaluator};

/// The fixed live-state budget the bounded mode must stay under,
/// independent of record length: 64 KiB — sensor-node SRAM scale.
const BUDGET_BYTES: usize = 64 * 1024;

/// Record lengths swept by the gate (samples at 200 Hz: 30 s to 5 min).
const GATE_LENGTHS: [usize; 3] = [6_000, 20_000, 60_000];

/// AFE-style chunk size (100 ms at 200 Hz).
const CHUNK: usize = 20;

fn gate_configs() -> Vec<PipelineConfig> {
    vec![
        PipelineConfig::exact(),
        // The paper's B9 design and a mid design point.
        PipelineConfig::least_energy([10, 12, 2, 8, 16]),
        PipelineConfig::least_energy([4, 4, 2, 4, 8]),
    ]
}

/// A record of exactly `len` samples: the synthetic paper record, cycled
/// (ground-truth beats shifted along) when the requested length exceeds it.
fn record_of_len(len: usize) -> EcgRecord {
    let base = xbiosip_bench::experiment_record();
    if len <= base.len() {
        return base.truncated(len);
    }
    let mut samples = Vec::with_capacity(len);
    let mut peaks = Vec::new();
    while samples.len() < len {
        let offset = samples.len();
        let take = (len - samples.len()).min(base.len());
        samples.extend_from_slice(&base.samples()[..take]);
        peaks.extend(
            base.r_peaks()
                .iter()
                .filter(|p| **p < take)
                .map(|p| p + offset),
        );
    }
    EcgRecord::new("cycled", base.fs(), base.gain(), samples, peaks)
}

/// Allowance for live-state bytes that legitimately do not appear in a
/// snapshot blob: struct sizes (`size_of::<LaneBank>` and friends), the
/// bank's block scratch and scratch queues (sized by the push, dead
/// between pushes), and the slack between `Vec`/`VecDeque` *capacity*
/// (what [`StreamingQrsDetector::state_bytes`] bills) and *length* (what
/// the codec serializes) for the fixed-size containers. The growth-
/// proportional capacity slack of the retained signals is covered
/// separately at the call site: amortized `Vec` growth doubles, so
/// capacity can reach 2x length right after a doubling and the billed
/// state may exceed the serialized lengths by up to one extra blob.
const SNAPSHOT_SLACK_BYTES: usize = 16 * 1024;

/// Streams `record` through a detector with the given footprint, returning
/// the event stream and the state-bytes high-water mark.
///
/// En route (mid-record and at the last push boundary) it cross-checks the
/// accounting against the snapshot codec: everything `state_bytes` bills
/// must be serializable and vice versa, so the blob can never exceed the
/// billed live state (plus its 32-byte header), and the billed state can
/// exceed the blob only by capacity slack (at most one extra blob, from
/// `Vec` doubling on the retained signals) plus the documented
/// [`SNAPSHOT_SLACK_BYTES`] struct/scratch allowance. An accounting drift
/// in either direction — a field serialized but not billed, or billed
/// but not serialized — trips this before it reaches a release.
fn stream_high_water(
    config: PipelineConfig,
    footprint: Footprint,
    record: &EcgRecord,
) -> (Vec<StreamEvent>, usize) {
    let mut det = StreamingQrsDetector::new(config.with_footprint(footprint));
    let mut events = Vec::new();
    let mut high_water = det.state_bytes();
    let checkpoints = [record.len() / 2 / CHUNK, record.len().div_ceil(CHUNK) - 1];
    for (i, chunk) in record.samples().chunks(CHUNK).enumerate() {
        events.extend(det.push(chunk));
        high_water = high_water.max(det.state_bytes());
        if checkpoints.contains(&i) {
            let blob = det.snapshot().unwrap_or_else(|e| {
                eprintln!("ACCOUNTING: {config} {footprint:?}: snapshot failed: {e}");
                std::process::exit(1);
            });
            let state = det.state_bytes();
            let header = pan_tompkins::snapshot::HEADER_BYTES;
            if blob.len() > state + header {
                eprintln!(
                    "ACCOUNTING: {config} {footprint:?}: snapshot ({} B) exceeds \
                     billed live state ({state} B) — state_bytes under-accounts",
                    blob.len()
                );
                std::process::exit(1);
            }
            if state > 2 * blob.len() + SNAPSHOT_SLACK_BYTES {
                eprintln!(
                    "ACCOUNTING: {config} {footprint:?}: billed live state ({state} B) \
                     exceeds snapshot ({} B) beyond capacity slack + {SNAPSHOT_SLACK_BYTES} B \
                     — state_bytes over-accounts or the codec dropped a field",
                    blob.len()
                );
                std::process::exit(1);
            }
        }
    }
    let (trailing, _result) = det.finish();
    events.extend(trailing);
    (events, high_water)
}

/// Section 1: the budget + no-growth + equivalence gate. Returns the
/// bounded high-water mark at the longest gate record (for the JSON
/// artifact); exits non-zero on any violation.
fn footprint_gate() -> usize {
    let mut worst_bounded = 0usize;
    for config in gate_configs() {
        let mut bounded_marks = Vec::new();
        for len in GATE_LENGTHS {
            let record = record_of_len(len);
            let (retained_events, _) = stream_high_water(config, Footprint::Retain, &record);
            let (bounded_events, bounded_mark) =
                stream_high_water(config, Footprint::Bounded, &record);
            if bounded_events != retained_events {
                eprintln!("DIVERGENCE: {config} len {len}: bounded events != retaining events");
                std::process::exit(1);
            }
            if retained_events
                .iter()
                .filter_map(StreamEvent::r_peak)
                .count()
                == 0
            {
                eprintln!("DIVERGENCE: {config} len {len}: gate workload produced no beats");
                std::process::exit(1);
            }
            if bounded_mark > BUDGET_BYTES {
                eprintln!(
                    "BUDGET: {config} len {len}: bounded state hit {bounded_mark} bytes \
                     (budget {BUDGET_BYTES})"
                );
                std::process::exit(1);
            }
            bounded_marks.push(bounded_mark);
            worst_bounded = worst_bounded.max(bounded_mark);
        }
        // No growth with record length: the longest record's high-water
        // mark must not exceed the shortest's by more than ring-capacity
        // jitter (VecDeque doubling), far below the 10x length ratio.
        let (first, last) = (bounded_marks[0], *bounded_marks.last().expect("non-empty"));
        if last > first + first / 2 {
            eprintln!(
                "GROWTH: {config}: bounded state grew with record length: \
                 {bounded_marks:?} bytes over {GATE_LENGTHS:?} samples"
            );
            std::process::exit(1);
        }
    }
    worst_bounded
}

/// Section 2: the footprint table.
fn footprint_table() {
    let config = PipelineConfig::least_energy([10, 12, 2, 8, 16]);
    println!("live detector state (B9 design, {CHUNK}-sample chunks):");
    println!("  samples   bounded       retaining");
    for len in GATE_LENGTHS {
        let record = record_of_len(len);
        let (_, bounded) = stream_high_water(config, Footprint::Bounded, &record);
        let (_, retained) = stream_high_water(config, Footprint::Retain, &record);
        println!("  {len:>7}   {bounded:>7} B     {retained:>9} B");
    }
    let det = StreamingQrsDetector::new(config.with_footprint(Footprint::Bounded));
    println!(
        "  shared residual tables (process-wide, amortised): {} B\n",
        det.shared_table_bytes()
    );
}

/// Section 3: record-batched bounded evaluation vs per-record evaluators.
/// Returns (samples/s batched, samples/s per-record).
fn record_batched_eval() -> (f64, f64) {
    let records: Vec<EcgRecord> = (0..6).map(|i| record_of_len(8_000 + i * 1000)).collect();
    let configs = gate_configs();
    let total_samples: usize = records.len() * configs.len() * 8_500; // ~mean

    let t0 = Instant::now();
    let batched =
        Evaluator::evaluate_records_with(&records, &configs, &EvalOptions::streaming(CHUNK));
    let t_batched = t0.elapsed();
    let t0 = Instant::now();
    let reference = evaluate_across_records(&records, &configs);
    let t_reference = t0.elapsed();
    assert_eq!(batched, reference, "record-batched reports diverged");

    let rate = |t: std::time::Duration| total_samples as f64 / t.as_secs_f64();
    println!(
        "record-batched evaluation ({} records x {} configs):",
        records.len(),
        configs.len()
    );
    println!(
        "  evaluate_records_with:      {:>12} samples/s   ({t_batched:.2?})",
        fmt_f64(rate(t_batched), 0)
    );
    println!(
        "  evaluate_across_records:    {:>12} samples/s   ({t_reference:.2?})",
        fmt_f64(rate(t_reference), 0)
    );
    println!(
        "  reports identical; speedup {}x\n",
        fmt_f64(
            t_reference.as_secs_f64() / t_batched.as_secs_f64().max(1e-12),
            2
        )
    );
    (rate(t_batched), rate(t_reference))
}

/// Streaming throughput of the bounded detector on the paper record (for
/// the JSON artifact): samples per second, best of a few repeats.
fn bounded_throughput() -> f64 {
    let record = xbiosip_bench::experiment_record();
    let config =
        PipelineConfig::least_energy([10, 12, 2, 8, 16]).with_footprint(Footprint::Bounded);
    let best = (0..4)
        .map(|_| {
            let t0 = Instant::now();
            let (_, result) = StreamingQrsDetector::detect_chunked(config, record.samples(), CHUNK);
            assert!(result.signals().is_none());
            t0.elapsed()
        })
        .min()
        .expect("repeats > 0");
    record.len() as f64 / best.as_secs_f64()
}

/// Writes the machine-readable artifact (hand-rolled JSON — the build
/// environment is offline, no serde).
fn write_json(path: &str, bounded_high_water: usize, throughput: f64) {
    let json = format!(
        "{{\n  \"pr\": 4,\n  \"budget_bytes\": {BUDGET_BYTES},\n  \
         \"bounded_state_bytes_high_water\": {bounded_high_water},\n  \
         \"gate_record_lengths\": [{}, {}, {}],\n  \
         \"streaming_samples_per_sec\": {throughput:.0},\n  \
         \"chunk_samples\": {CHUNK}\n}}\n",
        GATE_LENGTHS[0], GATE_LENGTHS[1], GATE_LENGTHS[2]
    );
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check_only = args.iter().any(|a| a == "--check");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    xbiosip_bench::banner(
        "Extension — bounded-memory streaming footprint",
        "state-bytes budget gate + record-batched evaluation",
    );

    let t0 = Instant::now();
    let high_water = footprint_gate();
    println!(
        "footprint gate: {} configurations x {:?}-sample records — bounded events == retaining, \
         state <= {} B high-water (budget {BUDGET_BYTES} B), no growth with record length \
         ({:.2?})\n",
        gate_configs().len(),
        GATE_LENGTHS,
        high_water,
        t0.elapsed()
    );

    if let Some(path) = &json_path {
        let throughput = bounded_throughput();
        write_json(path, high_water, throughput);
    }
    if check_only {
        return;
    }

    footprint_table();
    let _ = record_batched_eval();
}
