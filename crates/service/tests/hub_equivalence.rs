//! The hub's correctness contract: however the scheduler packs, demotes,
//! promotes, or migrates a session, its event stream and final result
//! are bit-identical to the scalar reference detector
//! (`pan_tompkins::oracle`, which shares no stage code with the lanes and
//! one-lane banks the hub runs) fed the same chunks — for random session
//! mixes, chunk partitions, shard counts, and lane widths. Plus the shutdown contract: a hub draining under
//! load loses no accepted samples and never deadlocks.

use std::collections::HashMap;
use std::sync::mpsc::Receiver;

use approx_arith::{FullAdderKind, Mult2x2Kind, StageArith};
use pan_tompkins::oracle::ScalarDetector;
use pan_tompkins::{DetectionResult, Footprint, PipelineConfig, StreamEvent};
use proptest::prelude::*;
use service::{ServiceConfig, ServiceError, SessionHub, SessionId, SessionOutput};

/// Deterministic xorshift for in-test interleaving decisions.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.0 = x;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A small palette of mixed pipeline configurations.
fn config_palette(seed: u64) -> Vec<PipelineConfig> {
    let mult = Mult2x2Kind::ALL[(seed as usize) % Mult2x2Kind::ALL.len()];
    let adder = FullAdderKind::ALL[(seed as usize / 3) % FullAdderKind::ALL.len()];
    let mut approx = PipelineConfig::exact();
    for (kind, k) in pan_tompkins::StageKind::ALL
        .into_iter()
        .zip([2u32, 3, 1, 4, 2])
    {
        let k = k % (kind.max_approx_lsbs() + 1);
        approx = approx.with_stage(kind, StageArith::new(k, mult, adder));
    }
    vec![
        PipelineConfig::exact(),
        PipelineConfig::exact().with_footprint(Footprint::Bounded),
        approx.with_footprint(Footprint::Bounded),
    ]
}

fn record_samples(seed: u64, len: usize) -> Vec<i32> {
    let record = ecg::nsrdb::record((seed % 5) as usize);
    let start = (seed as usize * 613) % 4000;
    record.samples()[start..(start + len).min(record.len())].to_vec()
}

/// Runs `signal` through a fresh scalar reference detector with the same
/// chunk boundaries the hub saw and returns (events ++ trailing, result).
fn solo_run(config: PipelineConfig, chunks: &[Vec<i32>]) -> (Vec<StreamEvent>, DetectionResult) {
    let mut det = ScalarDetector::new(config);
    let mut events = Vec::new();
    for chunk in chunks {
        events.extend(det.push(chunk));
    }
    let (trailing, result) = det.finish();
    events.extend(trailing);
    (events, result)
}

/// Collects everything currently available on the event receiver into
/// per-session buckets.
fn drain_events(
    rx: &Receiver<service::SessionEvent>,
    events: &mut HashMap<SessionId, Vec<StreamEvent>>,
    closed: &mut HashMap<SessionId, DetectionResult>,
) {
    for ev in rx.try_iter() {
        match ev.output {
            SessionOutput::Event(e) => events.entry(ev.id).or_default().push(e),
            SessionOutput::Closed(r) => {
                closed.insert(ev.id, *r);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Lossy-ingestion equivalence at the hub boundary: random session
    /// mixes, interleavings, chunk sizes, shard counts, and lane widths
    /// produce per-session event streams and final results bit-equal to
    /// solo runs. Tiny lane widths and a tiny demotion threshold force
    /// the demote/promote machinery to actually run.
    #[test]
    fn hub_sessions_equal_solo_runs(
        seed in 0u64..100_000,
        shards in 1usize..3,
        lanes in 1usize..6,
        sessions in 2usize..10,
        demote_after in 1usize..600,
        len in 400usize..1600,
    ) {
        let mut hub = SessionHub::new(
            ServiceConfig::default()
                .with_shards(shards)
                .with_lanes_per_bank(lanes)
                .with_demote_after(demote_after),
        );
        let client = hub.client();
        let rx = hub.take_events().expect("first take");
        let palette = config_palette(seed);
        let mut rng = Rng(seed);

        // Open the mix and precompute each session's signal.
        let mut ids = Vec::new();
        for s in 0..sessions {
            let config = palette[s % palette.len()];
            let id = client.open(config).expect("open");
            let signal = record_samples(seed.wrapping_add(s as u64), len);
            ids.push((id, config, signal, Vec::<Vec<i32>>::new(), 0usize));
        }

        // Replay interleaved chunks: random session order, random chunk
        // sizes, until every signal is exhausted.
        let mut events: HashMap<SessionId, Vec<StreamEvent>> = HashMap::new();
        let mut closed: HashMap<SessionId, DetectionResult> = HashMap::new();
        loop {
            let open: Vec<usize> = (0..ids.len())
                .filter(|&i| ids[i].4 < ids[i].2.len())
                .collect();
            if open.is_empty() {
                break;
            }
            let i = open[rng.below(open.len() as u64) as usize];
            let (id, _, signal, chunks, at) = &mut ids[i];
            let take = (1 + rng.below(200) as usize).min(signal.len() - *at);
            let chunk = signal[*at..*at + take].to_vec();
            loop {
                match client.push(*id, &chunk) {
                    Ok(()) => break,
                    Err(ServiceError::Busy) => drain_events(&rx, &mut events, &mut closed),
                    Err(e) => panic!("push failed: {e}"),
                }
            }
            chunks.push(chunk);
            *at += take;
            if rng.below(4) == 0 {
                drain_events(&rx, &mut events, &mut closed);
            }
        }

        // Close everything, stop the hub, and collect the tail.
        for (id, ..) in &ids {
            client.close(*id).expect("close");
        }
        let _ = hub.shutdown();
        drain_events(&rx, &mut events, &mut closed);

        for (id, config, _, chunks, _) in &ids {
            let (want_events, want_result) = solo_run(*config, chunks);
            let got_events = events.remove(id).unwrap_or_default();
            prop_assert_eq!(
                &got_events, &want_events,
                "event stream diverged for {}", id
            );
            let got_result = closed.remove(id);
            prop_assert_eq!(
                got_result.as_ref(), Some(&want_result),
                "final result diverged for {}", id
            );
        }
    }
}

/// Shard drain under load: pushers keep feeding while sessions are
/// closed and the hub shuts down — every accepted sample's events are
/// delivered, every close emits exactly one final result, and the whole
/// thing terminates (no deadlock).
#[test]
fn shard_drain_under_load_loses_nothing() {
    let mut hub = SessionHub::new(
        ServiceConfig::default()
            .with_shards(2)
            .with_lanes_per_bank(4)
            .with_demote_after(256)
            .with_inflight_high_water(8192),
    );
    let client = hub.client();
    let rx = hub.take_events().expect("first take");
    let config = PipelineConfig::exact().with_footprint(Footprint::Bounded);

    const SESSIONS: usize = 24;
    const ROUNDS: usize = 40;
    const CHUNK: usize = 160;

    let mut ids = Vec::new();
    for s in 0..SESSIONS {
        let id = client.open(config).expect("open");
        let signal = record_samples(s as u64, ROUNDS * CHUNK);
        ids.push((id, signal));
    }

    // Drain concurrently with the pushers and the shutdown.
    let drainer = std::thread::spawn(move || {
        let mut events: HashMap<SessionId, Vec<StreamEvent>> = HashMap::new();
        let mut closed: HashMap<SessionId, DetectionResult> = HashMap::new();
        while let Ok(ev) = rx.recv() {
            match ev.output {
                SessionOutput::Event(e) => events.entry(ev.id).or_default().push(e),
                SessionOutput::Closed(r) => {
                    closed.insert(ev.id, *r);
                }
            }
        }
        (events, closed)
    });

    // Two pusher threads feeding disjoint session halves under load.
    let accepted: Vec<_> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for half in ids.chunks(SESSIONS / 2) {
            let client = client.clone();
            handles.push(scope.spawn(move || {
                let mut accepted: Vec<(SessionId, Vec<Vec<i32>>)> =
                    half.iter().map(|(id, _)| (*id, Vec::new())).collect();
                for round in 0..ROUNDS {
                    for (k, (id, signal)) in half.iter().enumerate() {
                        let chunk = &signal[round * CHUNK..(round + 1) * CHUNK];
                        loop {
                            match client.push(*id, chunk) {
                                Ok(()) => {
                                    accepted[k].1.push(chunk.to_vec());
                                    break;
                                }
                                Err(ServiceError::Busy) => std::thread::yield_now(),
                                Err(e) => panic!("push failed: {e}"),
                            }
                        }
                    }
                }
                accepted
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("pusher"))
            .collect()
    });

    for (id, _) in &ids {
        client.close(*id).expect("close");
    }
    let metrics = hub.shutdown();
    let (events, closed) = drainer.join().expect("drainer");

    let total_accepted: usize = accepted
        .iter()
        .map(|(_, c)| c.iter().map(Vec::len).sum::<usize>())
        .sum();
    assert_eq!(
        metrics.samples_in(),
        total_accepted as u64,
        "drained ingestion count"
    );
    assert_eq!(
        closed.len(),
        SESSIONS,
        "every close delivered a final result"
    );
    assert_eq!(metrics.sessions_live(), 0, "all sessions wound down");

    for (id, chunks) in &accepted {
        let (want_events, want_result) = solo_run(config, chunks);
        assert_eq!(
            events.get(id).map(Vec::as_slice).unwrap_or(&[]),
            want_events.as_slice(),
            "event stream diverged for {id} under drain"
        );
        assert_eq!(
            closed.get(id),
            Some(&want_result),
            "result diverged for {id}"
        );
    }
}

/// Stale ids fail closed: a closed session's id is `Gone` for every
/// operation, double close has one winner, and a recycled slot never
/// aliases the old id.
#[test]
fn stale_ids_are_gone() {
    let mut hub = SessionHub::new(ServiceConfig::default().with_shards(1));
    let client = hub.client();
    let rx = hub.take_events().expect("events");
    let config = PipelineConfig::exact();

    let id = client.open(config).expect("open");
    client.push(id, &[0; 64]).expect("push");
    client.close(id).expect("close");
    assert_eq!(client.close(id), Err(ServiceError::Gone), "double close");
    assert_eq!(client.push(id, &[1, 2, 3]), Err(ServiceError::Gone));
    assert!(matches!(client.snapshot(id), Err(ServiceError::Gone)));

    // The recycled slot gets a fresh generation: the old id stays dead.
    let reopened = client.open(config).expect("reopen");
    assert_ne!(reopened, id);
    assert_eq!(client.push(id, &[1]), Err(ServiceError::Gone));
    client.push(reopened, &[0; 32]).expect("push to reopened");
    let _ = hub.shutdown();
    drop(rx);
}

/// Hub snapshot/restore rides the PR 8 codec: a restored session
/// continues bit-identically with the original's future.
#[test]
fn snapshot_restore_round_trip() {
    let mut hub = SessionHub::new(
        ServiceConfig::default()
            .with_shards(1)
            .with_lanes_per_bank(2),
    );
    let client = hub.client();
    let rx = hub.take_events().expect("events");
    let config = PipelineConfig::exact().with_footprint(Footprint::Bounded);
    let signal = record_samples(3, 2400);
    let (head, tail) = signal.split_at(1100);

    let id = client.open(config).expect("open");
    client.push(id, head).expect("push head");
    let blob = client.snapshot(id).expect("snapshot");

    // Drive the original and the restored twin through the same tail.
    let twin = client.restore(config, &blob).expect("restore");
    client.push(id, tail).expect("push tail");
    client.push(twin, tail).expect("push twin tail");
    client.close(id).expect("close");
    client.close(twin).expect("close twin");
    let _ = hub.shutdown();

    let mut events: HashMap<SessionId, Vec<StreamEvent>> = HashMap::new();
    let mut closed: HashMap<SessionId, DetectionResult> = HashMap::new();
    drain_events(&rx, &mut events, &mut closed);

    // The twin emits only post-snapshot events; the original's stream
    // must end with exactly that suffix, and the finals must agree.
    let orig = events.remove(&id).unwrap_or_default();
    let twin_ev = events.remove(&twin).unwrap_or_default();
    assert!(orig.len() >= twin_ev.len());
    assert_eq!(&orig[orig.len() - twin_ev.len()..], twin_ev.as_slice());
    assert_eq!(closed.get(&id), closed.get(&twin));
    assert!(closed.contains_key(&id));

    // And both equal the solo reference.
    let (want_events, want_result) = solo_run(config, &[head.to_vec(), tail.to_vec()]);
    assert_eq!(orig, want_events);
    assert_eq!(closed.get(&id), Some(&want_result));

    // A corrupt blob is rejected without opening anything.
    let mut bad = blob;
    if let Some(b) = bad.last_mut() {
        *b ^= 0xFF;
    }
    let hub2 = SessionHub::new(ServiceConfig::default().with_shards(1));
    let client2 = hub2.client();
    assert!(matches!(
        client2.restore(config, &bad),
        Err(ServiceError::Snapshot(_))
    ));
    assert_eq!(client2.metrics().sessions_live(), 0);
}

/// The backpressure watermark actually rejects: a hub with a tiny
/// inflight budget returns `Busy` rather than queueing unboundedly.
#[test]
fn tiny_watermark_rejects_with_busy() {
    let mut hub = SessionHub::new(
        ServiceConfig::default()
            .with_shards(1)
            .with_inflight_high_water(64),
    );
    let client = hub.client();
    let rx = hub.take_events().expect("events");
    let id = client.open(PipelineConfig::exact()).expect("open");
    let chunk = vec![0i32; 48];
    let mut saw_busy = false;
    for _ in 0..64 {
        match client.push(id, &chunk) {
            Ok(()) => {}
            Err(ServiceError::Busy) => {
                saw_busy = true;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(
        saw_busy,
        "watermark of 64 samples never rejected 48-sample pushes"
    );
    assert!(client.metrics().shards[0].busy_rejections >= 1);
    let _ = hub.shutdown();
    drop(rx);
}
