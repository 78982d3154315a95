//! **Extension experiment**: the million-session service under load —
//! sessions-per-host, aggregate ingestion throughput, and p99
//! ingest latency (enqueue to chunk ingested) of the sharded
//! [`SessionHub`].
//!
//! The load generator opens `--sessions` concurrent sessions (default
//! 100 000) of mixed pipeline configurations, replays interleaved
//! sample chunks round-robin across all of them, then closes every
//! session and shuts the hub down gracefully. Two properties are
//! asserted on the way:
//!
//! 1. **Bit-equivalence** — every session's event stream and final
//!    result must equal the scalar reference detector
//!    ([`pan_tompkins::oracle`]) fed the exact same chunks. Sessions share a small palette of
//!    (config, signal, partition) combinations, so the solo references
//!    are memoized — the hub still computes every session
//!    individually, and every session is compared individually.
//! 2. **Bounded latency** — the p99 ingest latency (from the hub's
//!    integer-µs histogram of enqueue → chunk fully ingested; the
//!    watermark backpressure is what bounds it) must stay under
//!    `--p99-ceiling-ms` (default 5000). It is not push-to-event time,
//!    since events can trail ingestion by up to 58 samples.
//!
//! `--check` exits non-zero when either fails — CI's bench-smoke job
//! runs a reduced 10 k-session profile via
//! `--check --sessions 10000`.

use std::collections::HashMap;
use std::sync::mpsc::Receiver;
use std::time::Instant;

use hwmodel::report::fmt_f64;
use pan_tompkins::oracle::ScalarDetector;
use pan_tompkins::{DetectionResult, Footprint, PipelineConfig, StreamEvent};
use service::{HubMetrics, ServiceConfig, ServiceError, SessionEvent, SessionHub, SessionOutput};

/// Chunk-size palettes cycled per session, so partitions differ across
/// the fleet (and from any internal block size).
const PARTITIONS: [&[usize]; 4] = [&[250], &[64], &[17, 333], &[113, 64, 250]];

/// Samples each session streams.
const DEFAULT_SAMPLES: usize = 2_000;

fn configs() -> Vec<PipelineConfig> {
    // Bounded footprints throughout: a million-session host cannot
    // retain per-session full-signal history, and the paper's service
    // story is the slim result anyway.
    vec![
        PipelineConfig::exact().with_footprint(Footprint::Bounded),
        // The paper's B9 design and a mid design point.
        PipelineConfig::least_energy([10, 12, 2, 8, 16]).with_footprint(Footprint::Bounded),
        PipelineConfig::least_energy([4, 4, 2, 4, 8]).with_footprint(Footprint::Bounded),
    ]
}

/// The distinct workload a session runs: everything about it is a
/// deterministic function of the session index, so solo references can
/// be shared.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Combo {
    config: usize,
    signal: usize,
    partition: usize,
}

impl Combo {
    fn of(session: usize) -> Self {
        Combo {
            config: session % 3,
            signal: session % 5,
            partition: session % PARTITIONS.len(),
        }
    }
}

fn signal_for(combo: Combo, samples: usize) -> Vec<i32> {
    let record = ecg::nsrdb::record(combo.signal);
    let start = (combo.signal * 613) % 4000;
    record.samples()[start..(start + samples).min(record.len())].to_vec()
}

/// The solo reference for a combo: same chunks, fresh scalar detector.
fn solo_reference(combo: Combo, samples: usize) -> (Vec<StreamEvent>, DetectionResult) {
    let config = configs()[combo.config];
    let signal = signal_for(combo, samples);
    let mut det = ScalarDetector::new(config);
    let mut events = Vec::new();
    let mut at = 0usize;
    let mut turn = 0usize;
    let sizes = PARTITIONS[combo.partition];
    while at < signal.len() {
        let take = sizes[turn % sizes.len()].min(signal.len() - at);
        events.extend(det.push(&signal[at..at + take]));
        at += take;
        turn += 1;
    }
    let (trailing, result) = det.finish();
    events.extend(trailing);
    (events, result)
}

struct Collected {
    events: Vec<Vec<StreamEvent>>,
    results: Vec<Option<DetectionResult>>,
}

fn drain(
    rx: &Receiver<SessionEvent>,
    index_of: &HashMap<u64, usize>,
    out: &mut Collected,
) -> usize {
    let mut n = 0usize;
    for ev in rx.try_iter() {
        n += 1;
        let Some(&i) = index_of.get(&ev.id.as_u64()) else {
            continue;
        };
        match ev.output {
            SessionOutput::Event(e) => out.events[i].push(e),
            SessionOutput::Closed(r) => out.results[i] = Some(*r),
        }
    }
    n
}

struct LoadNumbers {
    sessions: usize,
    total_samples: u64,
    open_secs: f64,
    replay_secs: f64,
    drain_secs: f64,
    p50_us: u64,
    p99_us: u64,
    max_us: u64,
    verified: usize,
    metrics: HubMetrics,
}

#[allow(clippy::too_many_lines)]
fn run_load(sessions: usize, samples: usize) -> LoadNumbers {
    // A deep in-flight watermark buys throughput but every queued sample
    // is ingest latency; 256 Ki samples keeps the queueing delay
    // in the hundreds of milliseconds at measured ingest rates.
    let hub_config = ServiceConfig::default()
        .with_inflight_high_water(1 << 18)
        .with_max_sessions_per_shard((sessions / ServiceConfig::default().shards.max(1)) + 64);
    let mut hub = SessionHub::new(hub_config);
    let client = hub.client();
    let rx = hub.take_events().expect("event receiver taken once");

    // Precompute the palette: signals, partitions, solo references.
    let combos: Vec<Combo> = (0..sessions).map(Combo::of).collect();
    let mut signals: HashMap<Combo, Vec<i32>> = HashMap::new();
    let mut references: HashMap<Combo, (Vec<StreamEvent>, DetectionResult)> = HashMap::new();
    for &c in &combos {
        signals.entry(c).or_insert_with(|| signal_for(c, samples));
        references
            .entry(c)
            .or_insert_with(|| solo_reference(c, samples));
    }
    let cfgs = configs();

    let mut out = Collected {
        events: vec![Vec::new(); sessions],
        results: vec![None; sessions],
    };
    let mut index_of: HashMap<u64, usize> = HashMap::with_capacity(sessions);

    // Phase 1: open the fleet.
    let t0 = Instant::now();
    let mut ids = Vec::with_capacity(sessions);
    for (i, &c) in combos.iter().enumerate() {
        loop {
            match client.open(cfgs[c.config]) {
                Ok(id) => {
                    index_of.insert(id.as_u64(), i);
                    ids.push(id);
                    break;
                }
                Err(ServiceError::Busy) => {
                    drain(&rx, &index_of, &mut out);
                    std::thread::yield_now();
                }
                Err(e) => {
                    eprintln!("open {i} failed: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    let open_secs = t0.elapsed().as_secs_f64();
    let debug = std::env::var("XBIOSIP_SERVICE_DEBUG").is_ok();
    if debug {
        eprintln!(
            "[debug] fleet open after {open_secs:.2}s: {:?}",
            client.metrics().shards[0]
        );
    }

    // Phase 2: replay interleaved chunks round-robin until every
    // session's signal is exhausted.
    let t1 = Instant::now();
    let mut at = vec![0usize; sessions];
    let mut turn = vec![0usize; sessions];
    let mut total_samples = 0u64;
    let mut remaining = sessions;
    while remaining > 0 {
        for i in 0..sessions {
            let signal = &signals[&combos[i]];
            if at[i] >= signal.len() {
                continue;
            }
            let sizes = PARTITIONS[combos[i].partition];
            let take = sizes[turn[i] % sizes.len()].min(signal.len() - at[i]);
            let chunk = &signal[at[i]..at[i] + take];
            let mut busy_spins = 0u64;
            loop {
                match client.push(ids[i], chunk) {
                    Ok(()) => break,
                    Err(ServiceError::Busy) => {
                        busy_spins += 1;
                        if debug && busy_spins.is_multiple_of(3_000_000) {
                            eprintln!(
                                "[debug] session {i} busy x{busy_spins}: {:?}",
                                client.metrics().shards[0]
                            );
                        }
                        if drain(&rx, &index_of, &mut out) == 0 {
                            std::thread::yield_now();
                        }
                    }
                    Err(e) => {
                        eprintln!("push to session {i} failed: {e}");
                        std::process::exit(1);
                    }
                }
            }
            at[i] += take;
            turn[i] += 1;
            total_samples += take as u64;
            if at[i] >= signal.len() {
                remaining -= 1;
            }
        }
        drain(&rx, &index_of, &mut out);
    }
    // Let the workers catch up before reading the latency histogram, so
    // it covers every chunk.
    while client
        .metrics()
        .shards
        .iter()
        .any(|s| s.queue_depth_samples > 0)
    {
        drain(&rx, &index_of, &mut out);
        std::thread::yield_now();
    }
    let replay_secs = t1.elapsed().as_secs_f64();

    let metrics_live = client.metrics();
    let p50_us = metrics_live.latency_quantile_us(500).unwrap_or(0);
    let p99_us = metrics_live.latency_quantile_us(990).unwrap_or(0);
    let max_us = metrics_live.latency_quantile_us(1000).unwrap_or(0);
    let live_peak = metrics_live.sessions_live();

    // Phase 3: close everything and drain the hub down.
    let t2 = Instant::now();
    for &id in &ids {
        loop {
            match client.close(id) {
                Ok(()) => break,
                Err(ServiceError::Busy) => {
                    drain(&rx, &index_of, &mut out);
                    std::thread::yield_now();
                }
                Err(e) => {
                    eprintln!("close failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        drain(&rx, &index_of, &mut out);
    }
    let metrics = hub.shutdown();
    drain(&rx, &index_of, &mut out);
    let drain_secs = t2.elapsed().as_secs_f64();

    if live_peak != sessions {
        eprintln!("expected {sessions} live sessions at peak, saw {live_peak}");
        std::process::exit(1);
    }

    // Phase 4: verify every session against its solo reference.
    let mut verified = 0usize;
    for i in 0..sessions {
        let (want_events, want_result) = &references[&combos[i]];
        if &out.events[i] != want_events {
            eprintln!(
                "DIVERGENCE: session {i} event stream differs from its solo run \
                 ({} vs {} events)",
                out.events[i].len(),
                want_events.len()
            );
            std::process::exit(1);
        }
        match &out.results[i] {
            Some(got) if got == want_result => verified += 1,
            Some(_) => {
                eprintln!("DIVERGENCE: session {i} final result differs from its solo run");
                std::process::exit(1);
            }
            None => {
                eprintln!("LOST: session {i} never delivered its final result");
                std::process::exit(1);
            }
        }
        if want_events.is_empty() {
            eprintln!("GATE: session {i} reference has no events (vacuous check)");
            std::process::exit(1);
        }
    }

    LoadNumbers {
        sessions,
        total_samples,
        open_secs,
        replay_secs,
        drain_secs,
        p50_us,
        p99_us,
        max_us,
        verified,
        metrics,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let sessions = args
        .iter()
        .position(|a| a == "--sessions")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(100_000);
    let samples = args
        .iter()
        .position(|a| a == "--samples")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(DEFAULT_SAMPLES);
    let p99_ceiling_ms = args
        .iter()
        .position(|a| a == "--p99-ceiling-ms")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(5_000);

    xbiosip_bench::banner(
        "Extension — million-session shard service under load",
        "sessions/host + aggregate samples/s + p99 ingest latency",
    );
    println!(
        "fleet: {sessions} sessions x {samples} samples, mixed configs, \
         interleaved chunks, every session checked against its solo run\n"
    );

    let n = run_load(sessions, samples);

    println!(
        "service load ({} sessions, {} shards):",
        n.sessions,
        n.metrics.shards.len()
    );
    println!(
        "  open:           {:>12} sessions/s ({:.2} s for the fleet)",
        fmt_f64(n.sessions as f64 / n.open_secs, 0),
        n.open_secs
    );
    println!(
        "  ingest:         {:>12} samples/s aggregate ({:.2} s replay)",
        fmt_f64(n.total_samples as f64 / n.replay_secs, 0),
        n.replay_secs
    );
    println!(
        "  latency:        p50 <= {} us, p99 <= {} us, max <= {} us (enqueue to ingested)",
        n.p50_us, n.p99_us, n.max_us
    );
    let (occupied, lanes) = n.metrics.lane_occupancy();
    println!(
        "  lanes:          {lanes} allocated, {occupied} occupied at shutdown; \
         {} demotions, {} promotions",
        n.metrics.shards.iter().map(|s| s.demotions).sum::<u64>(),
        n.metrics.shards.iter().map(|s| s.promotions).sum::<u64>(),
    );
    println!(
        "  equivalence:    {}/{} sessions bit-identical to solo runs \
         (close+drain {:.2} s)\n",
        n.verified, n.sessions, n.drain_secs
    );

    if check {
        if n.verified != n.sessions {
            eprintln!(
                "CHECK FAILED: only {}/{} sessions verified",
                n.verified, n.sessions
            );
            std::process::exit(1);
        }
        let ceiling_us = p99_ceiling_ms.saturating_mul(1000);
        if n.p99_us > ceiling_us {
            eprintln!(
                "CHECK FAILED: p99 ingest latency {} us exceeds ceiling {} us",
                n.p99_us, ceiling_us
            );
            std::process::exit(1);
        }
        println!(
            "check passed: {} concurrent sessions, all bit-identical, p99 {} us <= {} us",
            n.sessions, n.p99_us, ceiling_us
        );
    }
}
