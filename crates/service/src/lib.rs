//! Sharded million-session service over the XBioSiP detector core.
//!
//! This crate turns the compute kernels of `pan-tompkins` into a
//! *service*: a [`SessionHub`] owning N shard worker threads, each
//! driving a slab of detector sessions packed into
//! [`pan_tompkins::LaneBank`]s (the SoA multi-lane kernels of DESIGN.md
//! §9), with solo [`pan_tompkins::StreamingQrsDetector`]s (one-lane
//! banks) as the straggler path. Sessions are addressed by dense
//! [`SessionId`]s with generation bits, ingested over bounded queues with
//! explicit backpressure ([`ServiceError::Busy`]), and migrated between
//! banks and solo sessions through the DESIGN.md §11 snapshot codec — so every
//! session's event stream is bit-identical to a solo detector fed the
//! same chunks, regardless of how the scheduler packed it.
//!
//! See DESIGN.md §12 for the architecture: shard/lane packing, the
//! generation discipline, the backpressure protocol, and measured
//! sessions-per-host numbers. The workers are registered with
//! xanalyze's panic-freedom and float-freedom passes: the hot path
//! never panics and never touches floating point (latency is an
//! integer-µs power-of-two histogram; quantiles are extracted by the
//! reader).
//!
//! ```
//! use service::{ServiceConfig, SessionHub, SessionOutput};
//! use pan_tompkins::PipelineConfig;
//!
//! let mut hub = SessionHub::new(ServiceConfig::default().with_shards(1));
//! let client = hub.client();
//! let events = hub.take_events().into_iter().next();
//!
//! let id = client.open(PipelineConfig::exact()).unwrap();
//! client.push(id, &[0; 256]).unwrap();
//! client.close(id).unwrap();
//! let _ = hub.shutdown();
//! let closed = events
//!     .iter()
//!     .flat_map(|rx| rx.try_iter())
//!     .any(|ev| ev.id == id && matches!(ev.output, SessionOutput::Closed(_)));
//! assert!(closed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hub;
mod id;
mod metrics;
mod shard;

pub use hub::{
    Client, PushError, ServiceConfig, ServiceError, SessionEvent, SessionHub, SessionOutput,
};
pub use id::SessionId;
pub use metrics::{
    HubMetrics, LatencyHistogram, ShardMetrics, ShardMetricsSnapshot, LATENCY_BUCKETS,
};
