//! **Extension experiment**: bounded-memory streaming detection — the
//! CI-enforced footprint budget.
//!
//! Two sections:
//!
//! 1. **Footprint gate** — streams records of growing length through a
//!    [`Footprint::Bounded`] detector, each on a thread of its own,
//!    sampling [`StreamingQrsDetector::state_bytes`] (session state) and
//!    the thread's [`block_scratch_bytes`] every chunk. Fails (exit 1) if
//!    the session plus its thread's block scratch exceeds the fixed budget
//!    (64 KiB), if the session high-water grows with the record length, or
//!    if the bounded event stream ever diverges from the retaining mode.
//!    It also fails unless the block scratch is billed once per thread: two
//!    16-lane banks of different configurations pushing on one thread must
//!    leave it at one bank's size. This is the *measured* O(1) bound — CI's
//!    bench-smoke job runs it via `--check`.
//! 2. **Footprint table** — bounded vs retaining live-state bytes across
//!    record lengths, plus the shared (amortised) residual-table bytes.
//!
//! `--check` runs only section 1 (the CI mode).

use std::sync::Arc;
use std::time::Instant;

use ecg::EcgRecord;
use pan_tompkins::{
    block_scratch_bytes, DetectorEngine, Footprint, LaneBank, PipelineConfig, StreamEvent,
    StreamingQrsDetector,
};

/// The fixed live-state budget the bounded mode must stay under,
/// independent of record length: 64 KiB — sensor-node SRAM scale. It holds
/// one session plus the block scratch of the thread that runs it, which is
/// what a single-session sensor node has to fit.
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
/// tails' scratch queues, and the slack between `Vec`/`VecDeque`
/// *capacity* (what [`StreamingQrsDetector::state_bytes`] bills) and
/// *length* (what the codec serializes) for the fixed-size containers. The
/// growth-proportional capacity slack of the retained signals is covered
/// separately at the call site: amortized `Vec` growth doubles, so
/// capacity can reach 2x length right after a doubling and the billed
/// state may exceed the serialized lengths by up to one extra blob. The
/// block scratch is not session state, so it needs no allowance: the
/// gate's bounded sessions read at most 5 172 B over twice their blob.
const SNAPSHOT_SLACK_BYTES: usize = 8 * 1024;

/// High-water marks of one streamed session.
#[derive(Debug, Clone, Copy, Default)]
struct HighWater {
    /// [`StreamingQrsDetector::state_bytes`]: session state, block scratch
    /// excluded.
    session: usize,
    /// Session state plus the thread's [`block_scratch_bytes`] — what the
    /// budget holds.
    with_scratch: usize,
}

impl HighWater {
    fn max(self, other: Self) -> Self {
        Self {
            session: self.session.max(other.session),
            with_scratch: self.with_scratch.max(other.with_scratch),
        }
    }
}

/// Streams `record` through a detector with the given footprint on a
/// thread of its own, so the thread's block scratch is sized by this
/// session's pushes alone, and returns the event stream and the
/// high-water marks.
///
/// En route (mid-record and at the last push boundary) it cross-checks the
/// accounting against the snapshot codec: everything `state_bytes` bills
/// must be serializable and vice versa, so the blob can never exceed the
/// billed live state (plus its 32-byte header), and the billed state can
/// exceed the blob only by capacity slack (at most one extra blob, from
/// `Vec` doubling on the retained signals) plus the documented
/// [`SNAPSHOT_SLACK_BYTES`] struct allowance. An accounting drift
/// in either direction — a field serialized but not billed, or billed
/// but not serialized — trips this before it reaches a release.
fn stream_high_water(
    config: PipelineConfig,
    footprint: Footprint,
    record: &EcgRecord,
) -> (Vec<StreamEvent>, HighWater) {
    std::thread::scope(|s| {
        s.spawn(|| stream_on_this_thread(config, footprint, record))
            .join()
            .expect("footprint session thread panicked")
    })
}

fn stream_on_this_thread(
    config: PipelineConfig,
    footprint: Footprint,
    record: &EcgRecord,
) -> (Vec<StreamEvent>, HighWater) {
    let mut det = StreamingQrsDetector::new(config.with_footprint(footprint));
    let mut events = Vec::new();
    let fresh = det.state_bytes();
    let mut high_water = HighWater {
        session: fresh,
        with_scratch: fresh + block_scratch_bytes(),
    };
    let checkpoints = [record.len() / 2 / CHUNK, record.len().div_ceil(CHUNK) - 1];
    for (i, chunk) in record.samples().chunks(CHUNK).enumerate() {
        events.extend(det.push(chunk));
        let session = det.state_bytes();
        high_water = high_water.max(HighWater {
            session,
            with_scratch: session + block_scratch_bytes(),
        });
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

/// Section 1: the budget + no-growth + equivalence gate. Returns the worst
/// bounded high-water marks over every configuration and record length
/// (for the report); exits non-zero on any violation.
fn footprint_gate() -> HighWater {
    let mut worst_bounded = HighWater::default();
    for config in gate_configs() {
        let mut bounded_marks = Vec::new();
        for len in GATE_LENGTHS {
            let record = record_of_len(len);
            let (retained_events, _) = stream_high_water(config, Footprint::Retain, &record);
            let (bounded_events, bounded) = stream_high_water(config, Footprint::Bounded, &record);
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
            if bounded.with_scratch > BUDGET_BYTES {
                eprintln!(
                    "BUDGET: {config} len {len}: bounded state plus block scratch hit {} bytes \
                     (budget {BUDGET_BYTES})",
                    bounded.with_scratch
                );
                std::process::exit(1);
            }
            bounded_marks.push(bounded.session);
            worst_bounded = worst_bounded.max(bounded);
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

/// The scratch half of section 1: on one fresh thread, a 16-lane exact
/// bank pushes, then a 16-lane B9 bank pushes the same frames. The thread's
/// block scratch must read the same after the second bank as after the
/// first — one scratch per thread, sized by the widest bank, not one per
/// bank. Returns that size; exits non-zero if it changed or is smaller
/// than the six full-width inter-stage matrices it must hold.
fn scratch_gate() -> usize {
    const LANES: usize = 16;
    let record = xbiosip_bench::experiment_record();
    let samples = record.samples();
    let frames: Vec<i32> = (0..2_000)
        .flat_map(|t| (0..LANES).map(move |lane| samples[(t + 97 * lane) % samples.len()]))
        .collect();
    // The exact design, then B9.
    let banks = gate_configs().into_iter().take(2).map(|config| {
        let engine = DetectorEngine::new(config.with_footprint(Footprint::Bounded));
        LaneBank::new(Arc::new(engine), LANES)
    });
    let readings: Vec<usize> = std::thread::scope(|s| {
        s.spawn(|| {
            banks
                .map(|mut bank| {
                    for push in frames.chunks(250 * LANES) {
                        let _ = bank.push(push);
                    }
                    block_scratch_bytes()
                })
                .collect()
        })
        .join()
        .expect("scratch gate thread panicked")
    });
    let (one_bank, two_banks) = (readings[0], readings[1]);
    let matrices = 6 * 64 * LANES * std::mem::size_of::<i64>();
    if two_banks != one_bank || one_bank < matrices {
        eprintln!(
            "SCRATCH: a thread's block scratch read {one_bank} B after one {LANES}-lane bank \
             and {two_banks} B after a second (expected equal, and at least the {matrices} B \
             of inter-stage matrices)"
        );
        std::process::exit(1);
    }
    one_bank
}

/// Section 2: the footprint table.
fn footprint_table() {
    let config = PipelineConfig::least_energy([10, 12, 2, 8, 16]);
    println!("live detector state (B9 design, {CHUNK}-sample chunks):");
    println!("  samples   bounded session   + block scratch   retaining session");
    for len in GATE_LENGTHS {
        let record = record_of_len(len);
        let (_, bounded) = stream_high_water(config, Footprint::Bounded, &record);
        let (_, retained) = stream_high_water(config, Footprint::Retain, &record);
        println!(
            "  {len:>7}   {:>13} B   {:>13} B   {:>15} B",
            bounded.session, bounded.with_scratch, retained.session
        );
    }
    let det = StreamingQrsDetector::new(config.with_footprint(Footprint::Bounded));
    println!(
        "  shared residual tables (process-wide, amortised): {} B\n",
        det.shared_table_bytes()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check_only = args.iter().any(|a| a == "--check");
    xbiosip_bench::banner(
        "Extension — bounded-memory streaming footprint",
        "state-bytes budget gate",
    );

    let t0 = Instant::now();
    let high_water = footprint_gate();
    let scratch = scratch_gate();
    println!(
        "footprint gate: {} configurations x {:?}-sample records — bounded events == retaining, \
         session state <= {} B high-water (block scratch excluded), session + its thread's \
         block scratch <= {} B (budget {BUDGET_BYTES} B), no growth with record length; \
         two 16-lane banks on one thread share one {scratch} B block scratch ({:.2?})\n",
        gate_configs().len(),
        GATE_LENGTHS,
        high_water.session,
        high_water.with_scratch,
        t0.elapsed()
    );

    if check_only {
        return;
    }

    footprint_table();
}
