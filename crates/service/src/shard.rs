//! The shard worker: one thread owning a slab of sessions packed into
//! [`LaneBank`]s.
//!
//! Every session on a shard is in one of two execution modes:
//!
//! * **Lane** — its state lives in one lane of a [`LaneBank`] shared
//!   with up to `lanes_per_bank - 1` other sessions of the same
//!   [`PipelineConfig`]. A shard tick advances each bank by the minimum
//!   number of pending samples across its occupied lanes, so the whole
//!   bank moves through one `LaneBank::push` — the SoA fast path.
//! * **Solo** — a [`StreamingQrsDetector`], itself a one-lane bank whose
//!   kernels block across time, so a solo session runs at its own pace
//!   on the same stage kernels. Sessions land here when they starve a
//!   bank (no pending samples while a bankmate has `demote_after` or more
//!   queued), when they are restored from a snapshot, or while a snapshot
//!   of them is being taken.
//!
//! Sessions migrate between the modes through the snapshot codec, which
//! both sides share byte-for-byte (demotion and promotion are codec
//! round-trips, not a direct bank-to-bank move), so migration is
//! bit-invisible: the stream of events a session observes is identical to
//! what a solo detector fed the same chunks would emit. Unoccupied lanes are fed
//! zeros and their outputs discarded; a lane is reset (via
//! `finish_lane`, output discarded) immediately before a fresh session
//! is assigned to it, and `restore_lane` overwrites a lane completely,
//! so the zero-feeding is never observable.
//!
//! The worker never blocks on the event channel (it is unbounded by
//! design — see `hub.rs`); backpressure is applied at the ingestion
//! edge only.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pan_tompkins::{DetectorEngine, LaneBank, PipelineConfig, SnapshotError, StreamingQrsDetector};

use crate::hub::{HubShared, ServiceError, SessionEvent, SessionOutput};
use crate::id::{SessionId, GEN_MASK};

/// Maximum bank ticks advanced per scheduling pass, so command latency
/// stays bounded while the per-`push` kernel overhead is still amortised
/// over several `BLOCK_TICKS` blocks.
const MAX_TICK: usize = 256;

/// Maximum samples a solo session ingests per scheduling pass.
const SOLO_BUDGET: usize = 2048;

/// Maximum lane promotions per scheduling pass.
const PROMOTE_BUDGET: usize = 8;

/// How long the worker sleeps on an empty queue before re-checking the
/// stop flag.
const IDLE_WAIT: Duration = Duration::from_millis(1);

/// A command routed to one shard worker. Slot and generation are minted
/// client-side (see `hub.rs`); the worker re-validates the generation
/// against its session table so commands that lost a race with `close`
/// are dropped, never misdelivered.
pub(crate) enum Command {
    Open {
        slot: usize,
        generation: u32,
        config: PipelineConfig,
    },
    Restore {
        slot: usize,
        generation: u32,
        config: PipelineConfig,
        blob: Vec<u8>,
        reply: SyncSender<Result<(), ServiceError>>,
    },
    Push {
        slot: usize,
        generation: u32,
        samples: Vec<i32>,
        enqueued: Instant,
    },
    Close {
        slot: usize,
        generation: u32,
    },
    Snapshot {
        slot: usize,
        generation: u32,
        reply: SyncSender<Result<Vec<u8>, ServiceError>>,
    },
}

/// One accepted `push` not yet fully ingested.
struct PendingChunk {
    samples: Vec<i32>,
    /// Samples of `samples` already consumed.
    pos: usize,
    enqueued: Instant,
}

/// Where a session's detector state currently lives.
enum Mode {
    Lane { bank: usize, lane: usize },
    Solo(Box<StreamingQrsDetector>),
}

struct Session {
    generation: u32,
    fingerprint: u64,
    pending: VecDeque<PendingChunk>,
    pending_samples: usize,
    mode: Mode,
}

impl Session {
    /// Pops the next pending sample; records chunk latency into `lat_us`
    /// when this pop completes a chunk. Returns 0 if nothing is pending
    /// (callers only invoke this within the budget they computed, so the
    /// zero path is unreachable in practice but keeps the worker
    /// panic-free).
    fn next_sample(&mut self, now: Instant, lat_us: &mut Vec<u64>) -> i32 {
        let Some(chunk) = self.pending.front_mut() else {
            return 0;
        };
        let s = chunk.samples.get(chunk.pos).copied().unwrap_or(0);
        chunk.pos += 1;
        self.pending_samples = self.pending_samples.saturating_sub(1);
        if chunk.pos >= chunk.samples.len() {
            let elapsed = now.saturating_duration_since(chunk.enqueued);
            // xanalyze: begin-allow(alloc) — `lat_us` is worker-owned
            // scratch, cleared each tick; its capacity persists at the
            // per-tick high-water mark (at most one entry per lane).
            lat_us.push(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
            // xanalyze: end-allow(alloc)
            self.pending.pop_front();
        }
        s
    }
}

/// One `LaneBank` plus its occupancy map.
struct Bank {
    bank: LaneBank,
    /// `slots[lane]` is the slab slot occupying that lane, if any.
    slots: Vec<Option<usize>>,
    free: Vec<usize>,
}

pub(crate) struct ShardWorker {
    hub: Arc<HubShared>,
    index: usize,
    rx: Receiver<Command>,
    events: Sender<SessionEvent>,
    sessions: Vec<Option<Session>>,
    banks: Vec<Bank>,
    /// Config fingerprint → indices into `banks`.
    banks_by_fp: HashMap<u64, Vec<usize>>,
    /// Shared engines, one per distinct config fingerprint.
    engines: HashMap<u64, Arc<DetectorEngine>>,
    /// Slots currently in `Mode::Solo`.
    solo_slots: Vec<usize>,
    /// Scratch frame buffer reused across bank ticks.
    frames: Vec<i32>,
    /// Scratch latency buffer reused across ticks.
    lat_us: Vec<u64>,
    /// Scratch copy of a bank's lane→slot map, reused across bank ticks
    /// so ticking never clones a fresh `Vec`.
    slots_scratch: Vec<Option<usize>>,
    /// Scratch copy of `solo_slots`, reused across promote/solo passes.
    solo_scratch: Vec<usize>,
    /// True once the stop flag was observed; relaxes the demotion
    /// threshold to 1 so stragglers drain instead of waiting for
    /// bankmates that will never push again.
    draining: bool,
}

impl ShardWorker {
    pub(crate) fn new(
        hub: Arc<HubShared>,
        index: usize,
        rx: Receiver<Command>,
        events: Sender<SessionEvent>,
    ) -> Self {
        Self {
            hub,
            index,
            rx,
            events,
            sessions: Vec::new(),
            banks: Vec::new(),
            banks_by_fp: HashMap::new(),
            engines: HashMap::new(),
            solo_slots: Vec::new(),
            frames: Vec::new(),
            lat_us: Vec::new(),
            slots_scratch: Vec::new(),
            solo_scratch: Vec::new(),
            draining: false,
        }
    }

    pub(crate) fn run(mut self) {
        loop {
            let drained_queue = self.apply_queued();
            let did_work = self.tick();
            if self.hub.shards[self.index].stop.load(Ordering::Acquire) {
                self.drain_and_exit();
                return;
            }
            if !did_work && drained_queue {
                // The shard would go idle. If samples are still pending,
                // the fleet is gridlocked on starved lanes (empty lanes
                // blocking their banks below the demotion threshold,
                // while the stranded backlog holds the ingestion
                // watermark shut) — break the cycle by demoting every
                // starved lane, threshold notwithstanding.
                if self.metrics().queue_depth_samples.load(Ordering::Acquire) > 0 {
                    self.relieve_starvation();
                    continue;
                }
                // Nothing pending anywhere: block briefly for the next
                // command instead of spinning.
                match self.rx.recv_timeout(IDLE_WAIT) {
                    Ok(cmd) => self.apply(cmd),
                    Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {}
                }
            }
        }
    }

    /// Applies every queued command without blocking. Returns true when
    /// the queue was drained to empty.
    fn apply_queued(&mut self) -> bool {
        loop {
            match self.rx.try_recv() {
                Ok(cmd) => self.apply(cmd),
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => return true,
            }
        }
    }

    /// Shutdown path: keep applying commands and ticking until every
    /// accepted sample has been ingested, then exit. Sessions that were
    /// not explicitly closed are discarded (their owners were told to
    /// `close` or `snapshot` before shutdown).
    fn drain_and_exit(&mut self) {
        self.draining = true;
        loop {
            self.apply_queued();
            self.tick();
            let depth = self.metrics().queue_depth_samples.load(Ordering::Acquire);
            if depth == 0 && self.apply_queued() {
                break;
            }
        }
    }

    fn metrics(&self) -> &crate::metrics::ShardMetrics {
        &self.hub.shards[self.index].metrics
    }

    fn emit(&self, slot: usize, generation: u32, output: SessionOutput) {
        let id = SessionId::new(self.index, slot, generation);
        if self.events.send(SessionEvent { id, output }).is_ok() {
            self.metrics().events_out.fetch_add(1, Ordering::Relaxed);
        } else {
            self.metrics()
                .events_dropped
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    fn engine_for(&mut self, config: PipelineConfig) -> Arc<DetectorEngine> {
        let fp = config.fingerprint();
        if let Some(e) = self.engines.get(&fp) {
            return Arc::clone(e);
        }
        let e = Arc::new(DetectorEngine::new(config));
        self.engines.insert(fp, Arc::clone(&e));
        e
    }

    /// Finds (or creates) a bank of `fingerprint` with a free lane and
    /// returns `(bank_index, lane)`. The returned lane is still marked
    /// free; the caller assigns it.
    fn find_lane(&mut self, config: PipelineConfig) -> (usize, usize) {
        let fp = config.fingerprint();
        if let Some(indices) = self.banks_by_fp.get(&fp) {
            for &b in indices {
                if let Some(bank) = self.banks.get(b) {
                    if let Some(&lane) = bank.free.last() {
                        return (b, lane);
                    }
                }
            }
        }
        let engine = self.engine_for(config);
        let lanes = self.hub.config.lanes_per_bank;
        let bank = Bank {
            bank: LaneBank::new(engine, lanes),
            slots: vec![None; lanes],
            free: (0..lanes).rev().collect(),
        };
        let b = self.banks.len();
        self.banks.push(bank);
        self.banks_by_fp.entry(fp).or_default().push(b);
        self.metrics()
            .lanes_total
            .fetch_add(lanes, Ordering::Relaxed);
        (b, lanes - 1)
    }

    /// Marks `lane` of bank `b` as occupied by `slot`, resetting the
    /// lane first when asked (a freed lane has been fed zeros since its
    /// last reset, so a *fresh* session must reset it; `restore_lane`
    /// overwrites everything and needs no reset).
    fn occupy_lane(&mut self, b: usize, lane: usize, slot: usize, reset: bool) {
        if let Some(bank) = self.banks.get_mut(b) {
            if reset {
                let _ = bank.bank.finish_lane(lane);
            }
            bank.free.retain(|&l| l != lane);
            if let Some(s) = bank.slots.get_mut(lane) {
                *s = Some(slot);
            }
        }
        self.metrics()
            .lanes_occupied
            .fetch_add(1, Ordering::Relaxed);
    }

    fn release_lane(&mut self, b: usize, lane: usize) {
        if let Some(bank) = self.banks.get_mut(b) {
            if let Some(s) = bank.slots.get_mut(lane) {
                *s = None;
            }
            bank.free.push(lane);
        }
        self.metrics()
            .lanes_occupied
            .fetch_sub(1, Ordering::Relaxed);
    }

    fn apply(&mut self, cmd: Command) {
        match cmd {
            Command::Open {
                slot,
                generation,
                config,
            } => self.apply_open(slot, generation, config),
            Command::Restore {
                slot,
                generation,
                config,
                blob,
                reply,
            } => self.apply_restore(slot, generation, config, &blob, &reply),
            Command::Push {
                slot,
                generation,
                samples,
                enqueued,
            } => self.apply_push(slot, generation, samples, enqueued),
            Command::Close { slot, generation } => self.apply_close(slot, generation),
            Command::Snapshot {
                slot,
                generation,
                reply,
            } => self.apply_snapshot(slot, generation, &reply),
        }
    }

    fn ensure_slot(&mut self, slot: usize) {
        if slot >= self.sessions.len() {
            self.sessions.resize_with(slot + 1, || None);
        }
    }

    fn apply_open(&mut self, slot: usize, generation: u32, config: PipelineConfig) {
        let (b, lane) = self.find_lane(config);
        self.occupy_lane(b, lane, slot, true);
        self.ensure_slot(slot);
        if let Some(s) = self.sessions.get_mut(slot) {
            *s = Some(Session {
                generation,
                fingerprint: config.fingerprint(),
                pending: VecDeque::new(),
                pending_samples: 0,
                mode: Mode::Lane { bank: b, lane },
            });
        }
        self.metrics().sessions_live.fetch_add(1, Ordering::Relaxed);
    }

    fn apply_restore(
        &mut self,
        slot: usize,
        generation: u32,
        config: PipelineConfig,
        blob: &[u8],
        reply: &SyncSender<Result<(), ServiceError>>,
    ) {
        let engine = self.engine_for(config);
        match StreamingQrsDetector::restore(engine, blob) {
            Ok(det) => {
                self.ensure_slot(slot);
                if let Some(s) = self.sessions.get_mut(slot) {
                    *s = Some(Session {
                        generation,
                        fingerprint: config.fingerprint(),
                        pending: VecDeque::new(),
                        pending_samples: 0,
                        mode: Mode::Solo(Box::new(det)),
                    });
                }
                self.solo_slots.push(slot);
                self.metrics().sessions_live.fetch_add(1, Ordering::Relaxed);
                // Reply channels have capacity 1 and carry exactly one
                // message, so `try_send` never spuriously fails — and the
                // worker provably never blocks on a client.
                let _ = reply.try_send(Ok(()));
            }
            Err(e) => {
                // Roll the client-minted slot back: bump the generation
                // to its free (even) value and return the slot.
                let shard = &self.hub.shards[self.index];
                if let Some(g) = shard.generations.get(slot) {
                    g.store(generation.wrapping_add(1) & GEN_MASK, Ordering::Release);
                }
                shard.lock_alloc().free.push(slot);
                let _ = reply.try_send(Err(ServiceError::Snapshot(e)));
            }
        }
    }

    fn apply_push(&mut self, slot: usize, generation: u32, samples: Vec<i32>, enqueued: Instant) {
        let n = samples.len();
        let live = match self.sessions.get_mut(slot) {
            Some(Some(s)) if s.generation == generation => s,
            _ => {
                // Lost a race with close: drop, and release the samples
                // from the backpressure watermark.
                let m = self.metrics();
                m.stale_drops.fetch_add(1, Ordering::Relaxed);
                m.queue_depth_samples.fetch_sub(n, Ordering::AcqRel);
                return;
            }
        };
        live.pending_samples += n;
        live.pending.push_back(PendingChunk {
            samples,
            pos: 0,
            enqueued,
        });
    }

    /// Migrates a lane session to a solo detector, preserving its state
    /// bit-for-bit through the snapshot codec. The lane's trailing flush
    /// events are discarded with `finish_lane` — they are finish-time
    /// artifacts, not part of the continuing stream, and the restored
    /// solo detector re-derives them at its own finish.
    fn demote(&mut self, slot: usize) -> Result<(), SnapshotError> {
        let Some(Some(session)) = self.sessions.get(slot) else {
            return Ok(());
        };
        let Mode::Lane { bank: b, lane } = session.mode else {
            return Ok(());
        };
        let blob = match self.banks.get(b) {
            Some(bank) => bank.bank.snapshot_lane(lane)?,
            None => return Ok(()),
        };
        let engine = match self.banks.get(b) {
            Some(bank) => Arc::clone(bank.bank.engine()),
            None => return Ok(()),
        };
        let det = StreamingQrsDetector::restore(engine, &blob)?;
        if let Some(bank) = self.banks.get_mut(b) {
            let _ = bank.bank.finish_lane(lane);
        }
        self.release_lane(b, lane);
        if let Some(Some(session)) = self.sessions.get_mut(slot) {
            session.mode = Mode::Solo(Box::new(det));
        }
        self.solo_slots.push(slot);
        self.metrics().demotions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Feeds up to `budget` pending samples of a solo session through its
    /// detector — chunk by chunk, so a push never crosses a chunk boundary
    /// — accounting ingested samples, queue depth and the latency of each
    /// completed chunk, and emitting the events. Returns whether anything
    /// was ingested; a no-op for lane sessions. `usize::MAX` drains the
    /// backlog.
    fn ingest_solo(&mut self, slot: usize, mut budget: usize) -> bool {
        let mut did = false;
        while budget > 0 {
            let Some(Some(session)) = self.sessions.get_mut(slot) else {
                break;
            };
            let Mode::Solo(det) = &mut session.mode else {
                break;
            };
            let Some(chunk) = session.pending.front_mut() else {
                break;
            };
            let consumed = budget.min(chunk.samples.len() - chunk.pos);
            let end = chunk.pos + consumed;
            // xanalyze: begin-allow(alloc) — `StreamingQrsDetector::push`
            // is the audited one-lane bank entry point
            // (`LaneBank::push_impl`, lane.rs), not a container append.
            let evs = det.push(&chunk.samples[chunk.pos..end]);
            // xanalyze: end-allow(alloc)
            chunk.pos = end;
            budget -= consumed;
            let generation = session.generation;
            session.pending_samples = session.pending_samples.saturating_sub(consumed);
            let mut finished_latency = None;
            if chunk.pos >= chunk.samples.len() {
                let elapsed = Instant::now().saturating_duration_since(chunk.enqueued);
                finished_latency = Some(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
                session.pending.pop_front();
            }
            let m = self.metrics();
            m.samples_in.fetch_add(consumed as u64, Ordering::Relaxed);
            m.queue_depth_samples.fetch_sub(consumed, Ordering::AcqRel);
            if let Some(us) = finished_latency {
                m.latency.record(us);
            }
            for ev in evs {
                self.emit(slot, generation, SessionOutput::Event(ev));
            }
            did = true;
        }
        did
    }

    fn apply_close(&mut self, slot: usize, generation: u32) {
        match self.sessions.get(slot) {
            Some(Some(s)) if s.generation == generation => {}
            _ => {
                self.metrics().stale_drops.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        // A backlog is drained on a solo detector (a lane session is
        // demoted to one first); a drained lane session finishes in its
        // lane. If the snapshot migration ever failed (it cannot for a live
        // session), the session's pending samples are dropped and the
        // lane state finishes as-is — still freeing the lane and slot.
        let backlog = matches!(self.sessions.get(slot), Some(Some(s)) if s.pending_samples > 0);
        if backlog && self.demote(slot).is_ok() {
            self.ingest_solo(slot, usize::MAX);
        }
        let Some(entry) = self.sessions.get_mut(slot) else {
            return;
        };
        let Some(mut session) = entry.take() else {
            return;
        };
        let dropped = session.pending_samples;
        if dropped > 0 {
            self.metrics()
                .queue_depth_samples
                .fetch_sub(dropped, Ordering::AcqRel);
        }
        let (events, result) = match &mut session.mode {
            Mode::Solo(det) => det.finish_reset(),
            Mode::Lane { bank: b, lane } => {
                let out = self
                    .banks
                    .get_mut(*b)
                    .map(|bank| bank.bank.finish_lane(*lane));
                self.release_lane(*b, *lane);
                match out {
                    Some(out) => out,
                    None => return,
                }
            }
        };
        self.solo_slots.retain(|&s| s != slot);
        for ev in events {
            self.emit(slot, generation, SessionOutput::Event(ev));
        }
        self.emit(slot, generation, SessionOutput::Closed(Box::new(result)));
        let shard = &self.hub.shards[self.index];
        shard.lock_alloc().free.push(slot);
        self.metrics().sessions_live.fetch_sub(1, Ordering::Relaxed);
    }

    fn apply_snapshot(
        &mut self,
        slot: usize,
        generation: u32,
        reply: &SyncSender<Result<Vec<u8>, ServiceError>>,
    ) {
        match self.sessions.get(slot) {
            Some(Some(s)) if s.generation == generation => {}
            _ => {
                self.metrics().stale_drops.fetch_add(1, Ordering::Relaxed);
                // Capacity-1 single-use reply channel: `try_send` cannot
                // spuriously fail, and the worker never blocks on a client.
                let _ = reply.try_send(Err(ServiceError::Gone));
                return;
            }
        }
        // A snapshot reflects every sample pushed before it: migrate to
        // the solo path and ingest the backlog first.
        if let Err(e) = self.demote(slot) {
            let _ = reply.try_send(Err(ServiceError::Snapshot(e)));
            return;
        }
        self.ingest_solo(slot, usize::MAX);
        let out = match self.sessions.get(slot) {
            Some(Some(session)) => match &session.mode {
                Mode::Solo(det) => det.snapshot().map_err(ServiceError::Snapshot),
                Mode::Lane { .. } => Err(ServiceError::Gone),
            },
            _ => Err(ServiceError::Gone),
        };
        let _ = reply.try_send(out);
    }

    /// One scheduling pass: advance every bank, promote eligible solo
    /// sessions back into lanes, drain solo backlogs. Returns whether
    /// any samples were ingested.
    fn tick(&mut self) -> bool {
        let mut did = false;
        for b in 0..self.banks.len() {
            did |= self.tick_bank(b);
        }
        self.promote_some();
        did |= self.tick_solos();
        did
    }

    fn tick_bank(&mut self, b: usize) -> bool {
        let (lanes, occupied) = match self.banks.get(b) {
            Some(bank) => (bank.bank.lanes(), lanes_occupied(bank)),
            None => return false,
        };
        if occupied == 0 {
            return false;
        }
        // The bank advances in lockstep: t = min pending over occupied
        // lanes, so no session ever runs ahead of its queued input.
        let (mut tmin, mut tmax) = (usize::MAX, 0usize);
        for lane in 0..lanes {
            let Some(slot) = self
                .banks
                .get(b)
                .and_then(|bk| bk.slots.get(lane).copied().flatten())
            else {
                continue;
            };
            if let Some(Some(s)) = self.sessions.get(slot) {
                tmin = tmin.min(s.pending_samples);
                tmax = tmax.max(s.pending_samples);
            }
        }
        if tmin == 0 || tmin == usize::MAX {
            let threshold = if self.draining {
                1
            } else {
                self.hub.config.demote_after
            };
            if tmax >= threshold {
                self.demote_starved(b);
            }
            return false;
        }
        let t = tmin.min(MAX_TICK);
        let mut frames = std::mem::take(&mut self.frames);
        let mut lat_us = std::mem::take(&mut self.lat_us);
        let mut slots = std::mem::take(&mut self.slots_scratch);
        // xanalyze: begin-allow(alloc) — amortized scratch: all three
        // buffers are worker-owned, cleared (not dropped) each tick, and
        // reach steady-state capacity at the shard's high-water mark.
        frames.clear();
        frames.resize(t * lanes, 0);
        lat_us.clear();
        match self.banks.get(b) {
            Some(bank) => slots.clone_from(&bank.slots),
            None => slots.clear(),
        }
        // xanalyze: end-allow(alloc)
        let now = Instant::now();
        for (lane, slot) in slots.iter().enumerate() {
            let Some(slot) = *slot else { continue };
            if let Some(Some(session)) = self.sessions.get_mut(slot) {
                for row in frames.chunks_mut(lanes).take(t) {
                    if let Some(cell) = row.get_mut(lane) {
                        *cell = session.next_sample(now, &mut lat_us);
                    }
                }
            }
        }
        // xanalyze: begin-allow(alloc) — `LaneBank::push` is the audited
        // lane-kernel entry point (lane.rs), not a container append.
        let events = match self.banks.get_mut(b) {
            Some(bank) => bank.bank.push(&frames),
            None => Vec::new(),
        };
        // xanalyze: end-allow(alloc)
        let m = self.metrics();
        m.samples_in
            .fetch_add((t * occupied) as u64, Ordering::Relaxed);
        m.queue_depth_samples
            .fetch_sub(t * occupied, Ordering::AcqRel);
        for us in &lat_us {
            m.latency.record(*us);
        }
        for ev in events {
            if let Some(Some(slot)) = slots.get(ev.lane).copied() {
                if let Some(Some(session)) = self.sessions.get(slot) {
                    self.emit(slot, session.generation, SessionOutput::Event(ev.event));
                }
            }
        }
        self.frames = frames;
        self.lat_us = lat_us;
        self.slots_scratch = slots;
        true
    }

    /// Progress guarantee: demotes every starved lane of every bank that
    /// has a pending bankmate, regardless of the demotion threshold.
    /// Called only when the shard would otherwise idle with samples
    /// still queued, so the churn is bounded by actual gridlock events.
    fn relieve_starvation(&mut self) {
        for b in 0..self.banks.len() {
            let Some(bank) = self.banks.get(b) else {
                continue;
            };
            let mut any_pending = false;
            let mut any_starved = false;
            for slot in bank.slots.iter().copied().flatten() {
                if let Some(Some(s)) = self.sessions.get(slot) {
                    if s.pending_samples > 0 {
                        any_pending = true;
                    } else {
                        any_starved = true;
                    }
                }
            }
            if any_pending && any_starved {
                self.demote_starved(b);
            }
        }
    }

    /// Demotes every occupied lane of bank `b` that has nothing pending:
    /// they are blocking bankmates with real backlogs.
    fn demote_starved(&mut self, b: usize) {
        let slots: Vec<usize> = match self.banks.get(b) {
            Some(bank) => bank.slots.iter().copied().flatten().collect(),
            None => return,
        };
        for slot in slots {
            let starved = matches!(
                self.sessions.get(slot),
                Some(Some(s)) if s.pending_samples == 0
            );
            if starved {
                let _ = self.demote(slot);
            }
        }
    }

    /// Moves up to [`PROMOTE_BUDGET`] solo sessions with backlogs into
    /// free lanes of matching banks (existing banks only — promotion
    /// never creates banks, so a starved session cannot oscillate into
    /// a private bank).
    fn promote_some(&mut self) {
        let mut promoted = 0usize;
        let mut candidates = std::mem::take(&mut self.solo_scratch);
        candidates.clone_from(&self.solo_slots);
        for &slot in candidates.iter() {
            if promoted >= PROMOTE_BUDGET {
                break;
            }
            let (fp, has_backlog) = match self.sessions.get(slot) {
                Some(Some(s)) => (s.fingerprint, s.pending_samples > 0),
                _ => continue,
            };
            if !has_backlog {
                continue;
            }
            let target = self.banks_by_fp.get(&fp).and_then(|indices| {
                indices.iter().find_map(|&b| {
                    let lane = self.banks.get(b)?.free.last().copied()?;
                    Some((b, lane))
                })
            });
            let Some((b, lane)) = target else { continue };
            let blob = match self.sessions.get(slot) {
                Some(Some(session)) => match &session.mode {
                    Mode::Solo(det) => match det.snapshot() {
                        Ok(blob) => blob,
                        Err(_) => continue,
                    },
                    Mode::Lane { .. } => continue,
                },
                _ => continue,
            };
            let restored = match self.banks.get_mut(b) {
                Some(bank) => bank.bank.restore_lane(lane, &blob).is_ok(),
                None => false,
            };
            if !restored {
                continue;
            }
            self.occupy_lane(b, lane, slot, false);
            if let Some(Some(session)) = self.sessions.get_mut(slot) {
                session.mode = Mode::Lane { bank: b, lane };
            }
            self.solo_slots.retain(|&s| s != slot);
            self.metrics().promotions.fetch_add(1, Ordering::Relaxed);
            promoted += 1;
        }
        self.solo_scratch = candidates;
    }

    /// Ingests up to [`SOLO_BUDGET`] samples for each solo session with
    /// a backlog. Returns whether anything was ingested.
    fn tick_solos(&mut self) -> bool {
        let mut did = false;
        let mut slots = std::mem::take(&mut self.solo_scratch);
        slots.clone_from(&self.solo_slots);
        for &slot in slots.iter() {
            did |= self.ingest_solo(slot, SOLO_BUDGET);
        }
        self.solo_scratch = slots;
        did
    }
}

fn lanes_occupied(bank: &Bank) -> usize {
    bank.slots.iter().filter(|s| s.is_some()).count()
}
