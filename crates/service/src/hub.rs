//! The session hub: shard spawn, slot allocation, and the [`Client`]
//! front door.
//!
//! # Backpressure protocol
//!
//! Ingestion is the bounded, backpressured edge of the service:
//!
//! * every shard's command queue is a bounded `sync_channel`; a full
//!   queue rejects with [`ServiceError::Busy`] instead of blocking;
//! * each shard tracks `queue_depth_samples` — samples accepted by
//!   `push` but not yet ingested into detector state. A push that would
//!   raise the depth past [`ServiceConfig::inflight_high_water`] is
//!   rejected with `Busy` before it is enqueued.
//!
//! The event channel is deliberately **unbounded**: shard workers must
//! never block (a blocked worker cannot ingest, reply to snapshots, or
//! drain on shutdown), so output is never the backpressured edge.
//! Bounded memory follows from bounded ingestion — a caller that drains
//! events at least as often as it retries `Busy` pushes keeps the event
//! queue within a small multiple of the inflight high-water mark.
//!
//! # Slot allocation and generations
//!
//! Slots are minted client-side under a per-shard mutex; generations
//! (see [`crate::SessionId`]) live in a per-shard atomic table. A slot's
//! generation is even while free and odd while live: `open` bumps it
//! even→odd before enqueueing the `Open` command, `close` bumps it
//! odd→even (via compare-exchange, so double-close races resolve to one
//! winner). The freed slot returns to the allocator only after the
//! worker has finished the session, so a recycled slot can never alias
//! a live one.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use pan_tompkins::{DetectionResult, PipelineConfig, SnapshotError, StreamEvent};

use crate::id::{SessionId, GEN_MASK};
use crate::metrics::{HubMetrics, ShardMetrics};
use crate::shard::{Command, ShardWorker};

/// Sizing and backpressure knobs of a [`SessionHub`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads (and independent session slabs). Defaults to the
    /// host's available parallelism.
    pub shards: usize,
    /// Lanes per [`pan_tompkins::LaneBank`]; sessions of the same
    /// pipeline configuration are packed `lanes_per_bank` to a bank.
    pub lanes_per_bank: usize,
    /// Hard cap on concurrently open sessions per shard (the generation
    /// table is preallocated at this size: 4 bytes per slot).
    pub max_sessions_per_shard: usize,
    /// Bound of each shard's command queue, in commands.
    pub command_queue_depth: usize,
    /// Per-shard backpressure watermark: samples accepted but not yet
    /// ingested before `push` starts returning [`ServiceError::Busy`].
    pub inflight_high_water: usize,
    /// A lane session with nothing pending is demoted to the solo path
    /// once a bankmate has this many samples queued behind it.
    pub demote_after: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            shards: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            lanes_per_bank: 16,
            max_sessions_per_shard: 1 << 17,
            command_queue_depth: 4096,
            inflight_high_water: 1 << 20,
            demote_after: 4096,
        }
    }
}

impl ServiceConfig {
    /// Overrides the shard count.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Overrides the lanes-per-bank packing width.
    #[must_use]
    pub fn with_lanes_per_bank(mut self, lanes: usize) -> Self {
        self.lanes_per_bank = lanes.max(1);
        self
    }

    /// Overrides the per-shard session cap.
    #[must_use]
    pub fn with_max_sessions_per_shard(mut self, max: usize) -> Self {
        self.max_sessions_per_shard = max.clamp(1, 1 << crate::id::SLOT_BITS);
        self
    }

    /// Overrides the backpressure watermark (samples in flight per
    /// shard).
    #[must_use]
    pub fn with_inflight_high_water(mut self, samples: usize) -> Self {
        self.inflight_high_water = samples.max(1);
        self
    }

    /// Overrides the starvation threshold for lane→solo demotion.
    #[must_use]
    pub fn with_demote_after(mut self, samples: usize) -> Self {
        self.demote_after = samples.max(1);
        self
    }
}

/// Why a hub operation could not be carried out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// The shard's queue is full or its inflight watermark is exceeded;
    /// drain events and retry.
    Busy,
    /// The session id is stale: the session was closed (or never
    /// existed) and its slot may since have been recycled.
    Gone,
    /// The hub is shutting down and no longer accepts work.
    ShuttingDown,
    /// Every shard is at its `max_sessions_per_shard` cap.
    Capacity,
    /// The snapshot codec rejected a blob (restore) or the session state
    /// (snapshot).
    Snapshot(SnapshotError),
}

/// Error alias for [`Client::push`], matching the service API sketch.
pub type PushError = ServiceError;

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Busy => f.write_str("shard is at capacity; drain events and retry"),
            ServiceError::Gone => f.write_str("session id is stale or closed"),
            ServiceError::ShuttingDown => f.write_str("hub is shutting down"),
            ServiceError::Capacity => f.write_str("all shards are at their session cap"),
            ServiceError::Snapshot(e) => write!(f, "snapshot codec: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<SnapshotError> for ServiceError {
    fn from(e: SnapshotError) -> Self {
        ServiceError::Snapshot(e)
    }
}

/// What a session emitted: a stream event while live, or its final
/// [`DetectionResult`] when closed.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionOutput {
    /// A finalized detector event (R peak or omitted beat).
    Event(StreamEvent),
    /// The session was closed; this is its final result, bit-identical
    /// to what a solo [`pan_tompkins::StreamingQrsDetector`] fed the
    /// same chunks would return from `finish`.
    Closed(Box<DetectionResult>),
}

/// One entry of the hub's event fan-out, attributed to its session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionEvent {
    /// The emitting session.
    pub id: SessionId,
    /// What it emitted.
    pub output: SessionOutput,
}

/// Slot allocator of one shard: a free list plus a high-water mark of
/// never-used slots.
pub(crate) struct SlotAlloc {
    pub(crate) free: Vec<usize>,
    next: usize,
    max: usize,
}

impl SlotAlloc {
    fn take(&mut self) -> Option<usize> {
        if let Some(slot) = self.free.pop() {
            return Some(slot);
        }
        if self.next < self.max {
            let slot = self.next;
            self.next += 1;
            return Some(slot);
        }
        None
    }
}

/// Client- and worker-visible state of one shard.
pub(crate) struct ShardShared {
    pub(crate) tx: SyncSender<Command>,
    pub(crate) generations: Vec<AtomicU32>,
    alloc: Mutex<SlotAlloc>,
    pub(crate) metrics: ShardMetrics,
    /// Client calls currently between their entry and their (completed
    /// or aborted) queue send — the shutdown handshake waits for this
    /// to reach zero after raising `stopping`.
    pending_sends: AtomicUsize,
    pub(crate) stop: AtomicBool,
}

impl ShardShared {
    pub(crate) fn lock_alloc(&self) -> MutexGuard<'_, SlotAlloc> {
        match self.alloc.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// State shared by the hub, every [`Client`], and every shard worker.
pub(crate) struct HubShared {
    pub(crate) config: ServiceConfig,
    stopping: AtomicBool,
    next_shard: AtomicUsize,
    pub(crate) shards: Vec<ShardShared>,
}

/// A sharded session service over [`pan_tompkins::LaneBank`]s.
///
/// The hub owns the shard worker threads and the event fan-out; cheap,
/// cloneable [`Client`] handles (from [`SessionHub::client`]) carry the
/// session API. Dropping the hub shuts it down gracefully: accepted
/// samples are ingested to completion before the workers exit (see
/// [`SessionHub::shutdown`]).
pub struct SessionHub {
    shared: Arc<HubShared>,
    events: Option<Receiver<SessionEvent>>,
    workers: Vec<JoinHandle<()>>,
}

impl SessionHub {
    /// Spawns the shard workers and returns the hub.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        let shard_count = config.shards.max(1);
        let mut shards = Vec::with_capacity(shard_count);
        let mut receivers = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let (tx, rx) = sync_channel(config.command_queue_depth.max(1));
            receivers.push(rx);
            let mut generations = Vec::with_capacity(config.max_sessions_per_shard);
            generations.resize_with(config.max_sessions_per_shard, || AtomicU32::new(0));
            shards.push(ShardShared {
                tx,
                generations,
                alloc: Mutex::new(SlotAlloc {
                    free: Vec::new(),
                    next: 0,
                    max: config.max_sessions_per_shard,
                }),
                metrics: ShardMetrics::default(),
                pending_sends: AtomicUsize::new(0),
                stop: AtomicBool::new(false),
            });
        }
        let shared = Arc::new(HubShared {
            config,
            stopping: AtomicBool::new(false),
            next_shard: AtomicUsize::new(0),
            shards,
        });
        let (etx, erx) = std::sync::mpsc::channel::<SessionEvent>();
        let mut workers = Vec::with_capacity(shard_count);
        for (index, rx) in receivers.into_iter().enumerate() {
            let worker = ShardWorker::new(Arc::clone(&shared), index, rx, Sender::clone(&etx));
            let handle = std::thread::Builder::new()
                .name(format!("xbiosip-shard-{index}"))
                .spawn(move || worker.run());
            if let Ok(handle) = handle {
                workers.push(handle);
            }
        }
        drop(etx);
        SessionHub {
            shared,
            events: Some(erx),
            workers,
        }
    }

    /// A cloneable handle to the session API.
    #[must_use]
    pub fn client(&self) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Takes the event fan-out receiver. Yields `Some` exactly once;
    /// every session's events arrive here in per-session order.
    pub fn take_events(&mut self) -> Option<Receiver<SessionEvent>> {
        self.events.take()
    }

    /// A point-in-time snapshot of every shard's counters.
    #[must_use]
    pub fn metrics(&self) -> HubMetrics {
        HubMetrics {
            shards: self
                .shared
                .shards
                .iter()
                .map(|s| s.metrics.snapshot())
                .collect(),
        }
    }

    /// Gracefully drains and stops the hub: new `open`/`push` calls are
    /// rejected with [`ServiceError::ShuttingDown`], every already
    /// accepted sample is ingested (emitting its events), queued
    /// `close`/`snapshot` commands complete, and the workers exit.
    /// Sessions that were never closed are discarded without a `Closed`
    /// event — close or snapshot them first if their final state
    /// matters. Returns the final counters.
    ///
    /// The caller must keep draining the receiver from
    /// [`SessionHub::take_events`] (or have dropped it) while this
    /// runs; the drain can emit an arbitrary number of events.
    pub fn shutdown(mut self) -> HubMetrics {
        self.shutdown_impl();
        self.metrics()
    }

    fn shutdown_impl(&mut self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        // Wait out client calls that raced the flag: once every
        // pending_sends gauge is zero, all accepted commands are in the
        // queues and no further ones can be enqueued.
        for shard in &self.shared.shards {
            while shard.pending_sends.load(Ordering::SeqCst) > 0 {
                std::thread::yield_now();
            }
        }
        for shard in &self.shared.shards {
            shard.stop.store(true, Ordering::SeqCst);
        }
        // If the event receiver was never handed out, drop it so worker
        // sends fail fast instead of accumulating.
        drop(self.events.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for SessionHub {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.shutdown_impl();
        }
    }
}

/// Decrements a shard's `pending_sends` gauge on scope exit, so every
/// early return of a client call participates in the shutdown
/// handshake.
struct SendGuard<'a>(&'a AtomicUsize);

impl Drop for SendGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Handle to a [`SessionHub`]'s session API. Cheap to clone and safe to
/// share across threads; every method routes by the [`SessionId`]'s
/// shard bits without any cross-shard coordination.
#[derive(Clone)]
pub struct Client {
    shared: Arc<HubShared>,
}

impl Client {
    fn shard(&self, id: SessionId) -> Result<&ShardShared, ServiceError> {
        self.shared.shards.get(id.shard()).ok_or(ServiceError::Gone)
    }

    /// Checks that `id` is currently live, without enqueueing anything.
    fn live_generation(shard: &ShardShared, id: SessionId) -> Result<&AtomicU32, ServiceError> {
        let cell = shard.generations.get(id.slot()).ok_or(ServiceError::Gone)?;
        if cell.load(Ordering::Acquire) == id.generation() && id.generation() & 1 == 1 {
            Ok(cell)
        } else {
            Err(ServiceError::Gone)
        }
    }

    /// Opens a fresh session with `config`, round-robining across
    /// shards (skipping full ones).
    ///
    /// # Errors
    ///
    /// [`ServiceError::ShuttingDown`] after shutdown began;
    /// [`ServiceError::Capacity`] when every shard is at its session
    /// cap; [`ServiceError::Busy`] when command queues are full (retry
    /// after draining events).
    pub fn open(&self, config: PipelineConfig) -> Result<SessionId, ServiceError> {
        self.open_with(config, |slot, generation, config| Command::Open {
            slot,
            generation,
            config,
        })
    }

    /// Opens a session resuming from a [`Client::snapshot`] blob taken
    /// under the same `config` (checked by the codec). The returned id
    /// is fresh; the session continues bit-identically where the
    /// snapshot left off.
    ///
    /// # Errors
    ///
    /// All of [`Client::open`]'s, plus [`ServiceError::Snapshot`] when
    /// the blob fails validation.
    pub fn restore(&self, config: PipelineConfig, blob: &[u8]) -> Result<SessionId, ServiceError> {
        let (rtx, rrx) = sync_channel::<Result<(), ServiceError>>(1);
        let blob = blob.to_vec();
        let id = self.open_with(config, move |slot, generation, config| Command::Restore {
            slot,
            generation,
            config,
            blob,
            reply: rtx,
        })?;
        match rrx.recv() {
            Ok(Ok(())) => Ok(id),
            Ok(Err(e)) => Err(e),
            Err(_) => Err(ServiceError::Gone),
        }
    }

    /// Shared open/restore machinery: mints a slot+generation on some
    /// shard and enqueues the command built by `make`.
    fn open_with(
        &self,
        config: PipelineConfig,
        make: impl FnOnce(usize, u32, PipelineConfig) -> Command,
    ) -> Result<SessionId, ServiceError> {
        let n = self.shared.shards.len();
        let start = self.shared.next_shard.fetch_add(1, Ordering::Relaxed) % n.max(1);
        let mut make = Some(make);
        let mut saw_busy = false;
        for k in 0..n {
            let index = (start + k) % n;
            let Some(shard) = self.shared.shards.get(index) else {
                continue;
            };
            shard.pending_sends.fetch_add(1, Ordering::SeqCst);
            let guard = SendGuard(&shard.pending_sends);
            if self.shared.stopping.load(Ordering::SeqCst) {
                return Err(ServiceError::ShuttingDown);
            }
            let Some(slot) = shard.lock_alloc().take() else {
                drop(guard);
                continue; // this shard is full; try the next
            };
            let Some(cell) = shard.generations.get(slot) else {
                shard.lock_alloc().free.push(slot);
                drop(guard);
                continue;
            };
            let old = cell.load(Ordering::Acquire);
            let generation = old.wrapping_add(1) & GEN_MASK;
            cell.store(generation, Ordering::Release);
            let Some(make_now) = make.take() else {
                return Err(ServiceError::Busy);
            };
            match shard.tx.try_send(make_now(slot, generation, config)) {
                Ok(()) => return Ok(SessionId::new(index, slot, generation)),
                Err(_) => {
                    cell.store(old, Ordering::Release);
                    shard.lock_alloc().free.push(slot);
                    shard
                        .metrics
                        .busy_rejections
                        .fetch_add(1, Ordering::Relaxed);
                    saw_busy = true;
                    // The command (and any reply channel inside it) was
                    // consumed by the failed send; report Busy rather
                    // than retrying elsewhere with nothing to send.
                    drop(guard);
                    break;
                }
            }
        }
        Err(if saw_busy {
            ServiceError::Busy
        } else {
            ServiceError::Capacity
        })
    }

    /// Queues `samples` for ingestion by `id`'s session. Returns as soon
    /// as the chunk is accepted; resulting events arrive on the hub's
    /// event receiver.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Busy`] when the shard's queue is full or its
    /// inflight watermark would be exceeded — drain events, back off,
    /// retry. [`ServiceError::Gone`] for stale ids,
    /// [`ServiceError::ShuttingDown`] after shutdown began.
    pub fn push(&self, id: SessionId, samples: &[i32]) -> Result<(), PushError> {
        if samples.is_empty() {
            return Ok(());
        }
        let shard = self.shard(id)?;
        shard.pending_sends.fetch_add(1, Ordering::SeqCst);
        let _guard = SendGuard(&shard.pending_sends);
        if self.shared.stopping.load(Ordering::SeqCst) {
            return Err(ServiceError::ShuttingDown);
        }
        Self::live_generation(shard, id)?;
        let n = samples.len();
        let depth = &shard.metrics.queue_depth_samples;
        if depth.load(Ordering::Acquire).saturating_add(n) > self.shared.config.inflight_high_water
        {
            shard
                .metrics
                .busy_rejections
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::Busy);
        }
        depth.fetch_add(n, Ordering::AcqRel);
        let cmd = Command::Push {
            slot: id.slot(),
            generation: id.generation(),
            samples: samples.to_vec(),
            enqueued: Instant::now(),
        };
        match shard.tx.try_send(cmd) {
            Ok(()) => {
                shard.metrics.pushes.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(_) => {
                depth.fetch_sub(n, Ordering::AcqRel);
                shard
                    .metrics
                    .busy_rejections
                    .fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::Busy)
            }
        }
    }

    /// Closes `id`'s session: its backlog is ingested, trailing events
    /// and the final [`DetectionResult`] are emitted as
    /// [`SessionOutput::Closed`], and the slot is recycled. The id is
    /// invalid from the moment this returns `Ok`.
    ///
    /// Close is still accepted while the hub is shutting down, so
    /// callers can wind sessions down before [`SessionHub::shutdown`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::Gone`] for stale (or concurrently closed) ids;
    /// [`ServiceError::Busy`] when the shard queue is full (the session
    /// stays open; retry).
    pub fn close(&self, id: SessionId) -> Result<(), ServiceError> {
        let shard = self.shard(id)?;
        shard.pending_sends.fetch_add(1, Ordering::SeqCst);
        let _guard = SendGuard(&shard.pending_sends);
        let cell = Self::live_generation(shard, id)?;
        let generation = id.generation();
        let freed = generation.wrapping_add(1) & GEN_MASK;
        if cell
            .compare_exchange(generation, freed, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return Err(ServiceError::Gone);
        }
        match shard.tx.try_send(Command::Close {
            slot: id.slot(),
            generation,
        }) {
            Ok(()) => Ok(()),
            Err(_) => {
                cell.store(generation, Ordering::Release);
                shard
                    .metrics
                    .busy_rejections
                    .fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::Busy)
            }
        }
    }

    /// Serializes `id`'s live state through PR 8's snapshot codec,
    /// after ingesting its queued backlog. The session stays open; the
    /// blob restores via [`Client::restore`] (or any other codec
    /// consumer) bit-identically.
    ///
    /// Blocks until the shard worker replies. The caller must not be
    /// the only event drainer if the event queue could grow unboundedly
    /// in the meantime (the worker itself never blocks, so the reply
    /// always comes).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Gone`] for stale ids, [`ServiceError::Busy`] on
    /// a full queue, [`ServiceError::Snapshot`] from the codec.
    pub fn snapshot(&self, id: SessionId) -> Result<Vec<u8>, ServiceError> {
        let shard = self.shard(id)?;
        shard.pending_sends.fetch_add(1, Ordering::SeqCst);
        let guard = SendGuard(&shard.pending_sends);
        Self::live_generation(shard, id)?;
        let (rtx, rrx) = sync_channel::<Result<Vec<u8>, ServiceError>>(1);
        shard
            .tx
            .try_send(Command::Snapshot {
                slot: id.slot(),
                generation: id.generation(),
                reply: rtx,
            })
            .map_err(|_| {
                shard
                    .metrics
                    .busy_rejections
                    .fetch_add(1, Ordering::Relaxed);
                ServiceError::Busy
            })?;
        drop(guard);
        match rrx.recv() {
            Ok(out) => out,
            Err(_) => Err(ServiceError::Gone),
        }
    }

    /// A point-in-time snapshot of every shard's counters.
    #[must_use]
    pub fn metrics(&self) -> HubMetrics {
        HubMetrics {
            shards: self
                .shared
                .shards
                .iter()
                .map(|s| s.metrics.snapshot())
                .collect(),
        }
    }
}
