//! Per-shard counters and the ingest-latency histogram.
//!
//! Everything here is plain atomics: the workers bump counters from the
//! hot loop without locks, and any thread can take a consistent-enough
//! snapshot at any time. The latency histogram measures one interval per
//! accepted `push`: from the moment the client enqueued its chunk to the
//! moment a worker ingested the chunk's last sample. It is *not*
//! push-to-event time: an R-peak's event can be emitted up to 58 samples
//! (DESIGN.md §6), several chunks, after its samples are ingested.
//! Latency is recorded as an integer-microsecond
//! power-of-two histogram so the hot path never touches floating point —
//! quantile extraction (a read-side concern) lives with the consumers,
//! e.g. the `ext_service_load` gate.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Histogram buckets: bucket `i` counts latencies in `[2^i, 2^(i+1))` µs
/// (bucket 0 also absorbs sub-microsecond samples). 2³⁹ µs ≈ 6.4 days
/// saturates the top bucket.
pub const LATENCY_BUCKETS: usize = 40;

/// Live counters of one shard. Shared between the shard's worker thread
/// (writer) and every client handle (readers; the `busy_rejections`
/// counter is client-written).
#[derive(Debug, Default)]
pub struct ShardMetrics {
    /// Sessions currently open on this shard.
    pub sessions_live: AtomicUsize,
    /// Lanes across all of this shard's banks (occupied or not).
    pub lanes_total: AtomicUsize,
    /// Lanes currently carrying a session.
    pub lanes_occupied: AtomicUsize,
    /// Samples accepted by `push` but not yet ingested by the worker —
    /// the backpressure watermark input.
    pub queue_depth_samples: AtomicUsize,
    /// Total `push` calls accepted.
    pub pushes: AtomicU64,
    /// Total samples ingested into detector state.
    pub samples_in: AtomicU64,
    /// Total events fanned out (including `Closed` notifications).
    pub events_out: AtomicU64,
    /// Events discarded because the event receiver was dropped.
    pub events_dropped: AtomicU64,
    /// `push`/`open` attempts rejected with `Busy` (client-side bump).
    pub busy_rejections: AtomicU64,
    /// Commands dropped because their generation was stale by the time
    /// the worker saw them.
    pub stale_drops: AtomicU64,
    /// Lane sessions migrated out to a solo one-lane bank (starved lane).
    pub demotions: AtomicU64,
    /// Solo sessions migrated back into a lane.
    pub promotions: AtomicU64,
    /// Enqueue-to-ingested latency histogram, one sample per accepted
    /// chunk (µs, power-of-two buckets; see the module docs).
    pub latency: LatencyHistogram,
}

/// Lock-free integer-µs histogram with power-of-two buckets.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; LATENCY_BUCKETS],
        }
    }
}

impl LatencyHistogram {
    /// Records one latency sample of `micros` microseconds.
    pub fn record(&self, micros: u64) {
        let bucket = (63 - micros.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Current bucket counts.
    #[must_use]
    pub fn counts(&self) -> [u64; LATENCY_BUCKETS] {
        let mut out = [0u64; LATENCY_BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }
}

/// A point-in-time copy of one shard's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMetricsSnapshot {
    /// Sessions currently open.
    pub sessions_live: usize,
    /// Lanes across all banks.
    pub lanes_total: usize,
    /// Lanes carrying a session.
    pub lanes_occupied: usize,
    /// Samples queued but not yet ingested.
    pub queue_depth_samples: usize,
    /// Accepted `push` calls.
    pub pushes: u64,
    /// Samples ingested.
    pub samples_in: u64,
    /// Events fanned out.
    pub events_out: u64,
    /// Events dropped (receiver gone).
    pub events_dropped: u64,
    /// `Busy` rejections.
    pub busy_rejections: u64,
    /// Stale-generation drops.
    pub stale_drops: u64,
    /// Lane→solo demotions.
    pub demotions: u64,
    /// Solo→lane promotions.
    pub promotions: u64,
    /// Latency histogram bucket counts (µs, power-of-two).
    pub latency: [u64; LATENCY_BUCKETS],
}

impl ShardMetrics {
    /// Takes a snapshot of every counter.
    #[must_use]
    pub fn snapshot(&self) -> ShardMetricsSnapshot {
        ShardMetricsSnapshot {
            sessions_live: self.sessions_live.load(Ordering::Relaxed),
            lanes_total: self.lanes_total.load(Ordering::Relaxed),
            lanes_occupied: self.lanes_occupied.load(Ordering::Relaxed),
            queue_depth_samples: self.queue_depth_samples.load(Ordering::Relaxed),
            pushes: self.pushes.load(Ordering::Relaxed),
            samples_in: self.samples_in.load(Ordering::Relaxed),
            events_out: self.events_out.load(Ordering::Relaxed),
            events_dropped: self.events_dropped.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            stale_drops: self.stale_drops.load(Ordering::Relaxed),
            demotions: self.demotions.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
            latency: self.latency.counts(),
        }
    }
}

/// Aggregated counters across every shard of a hub.
#[derive(Debug, Clone)]
pub struct HubMetrics {
    /// One snapshot per shard, in shard order.
    pub shards: Vec<ShardMetricsSnapshot>,
}

impl HubMetrics {
    /// Total live sessions across shards.
    #[must_use]
    pub fn sessions_live(&self) -> usize {
        self.shards.iter().map(|s| s.sessions_live).sum()
    }

    /// Total samples ingested across shards.
    #[must_use]
    pub fn samples_in(&self) -> u64 {
        self.shards.iter().map(|s| s.samples_in).sum()
    }

    /// Total events fanned out across shards.
    #[must_use]
    pub fn events_out(&self) -> u64 {
        self.shards.iter().map(|s| s.events_out).sum()
    }

    /// Lane occupancy across shards as `(occupied, total)`.
    #[must_use]
    pub fn lane_occupancy(&self) -> (usize, usize) {
        (
            self.shards.iter().map(|s| s.lanes_occupied).sum(),
            self.shards.iter().map(|s| s.lanes_total).sum(),
        )
    }

    /// Merged latency histogram across shards.
    #[must_use]
    pub fn latency_histogram(&self) -> [u64; LATENCY_BUCKETS] {
        let mut merged = [0u64; LATENCY_BUCKETS];
        for s in &self.shards {
            for (m, v) in merged.iter_mut().zip(&s.latency) {
                *m += v;
            }
        }
        merged
    }

    /// The `q`-quantile (per-mille, e.g. 990 for p99) of the merged
    /// latency histogram, as an upper-bound µs value; `None` when no
    /// samples were recorded.
    #[must_use]
    pub fn latency_quantile_us(&self, per_mille: u64) -> Option<u64> {
        let merged = self.latency_histogram();
        let total: u64 = merged.iter().sum();
        if total == 0 {
            return None;
        }
        // Index of the first sample at or beyond the quantile, 1-based.
        let rank = (total * per_mille).div_ceil(1000).max(1);
        let mut seen = 0u64;
        for (i, &count) in merged.iter().enumerate() {
            seen += count;
            if seen >= rank {
                // Upper edge of bucket i: 2^(i+1) µs.
                return Some(1u64 << (i + 1));
            }
        }
        Some(1u64 << LATENCY_BUCKETS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let h = LatencyHistogram::default();
        h.record(0);
        h.record(1); // bucket 0
        h.record(2);
        h.record(3); // bucket 1
        h.record(1024); // bucket 10
        let c = h.counts();
        assert_eq!(c[0], 2);
        assert_eq!(c[1], 2);
        assert_eq!(c[10], 1);
    }

    #[test]
    fn quantile_reads_upper_bucket_edge() {
        let m = ShardMetrics::default();
        for _ in 0..99 {
            m.latency.record(3); // bucket 1, upper edge 4 µs
        }
        m.latency.record(1 << 20); // one outlier in bucket 20
        let hub = HubMetrics {
            shards: vec![m.snapshot()],
        };
        assert_eq!(hub.latency_quantile_us(500), Some(4));
        assert_eq!(hub.latency_quantile_us(990), Some(4));
        assert_eq!(hub.latency_quantile_us(1000), Some(1 << 21));
        let empty = HubMetrics {
            shards: vec![ShardMetrics::default().snapshot()],
        };
        assert_eq!(empty.latency_quantile_us(990), None);
    }
}
