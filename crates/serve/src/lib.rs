//! Sampling-as-a-service: a concurrent multi-tenant epoch server over one
//! shared immutable graph.
//!
//! Each tenant registers a [`TenantSpec`] — its own sampling algorithm,
//! fanouts, mini-batch size, and RNG seed — and gets back a session whose
//! replies are **bit-identical** to running a private
//! [`gsampler_core::Sampler`] alone. Three mechanisms make the shared
//! server invisible:
//!
//! - **Admission control** ([`Admission`]): every request is charged its
//!   analytically estimated transient bytes against the server's memory
//!   budget *before* queueing, through the same
//!   [`gsampler_engine::MemoryTracker`] the engine uses. Impossible
//!   requests fail fast with a typed error instead of queueing forever;
//!   zero-cost metadata requests are always admitted.
//! - **Cross-request super-batching** ([`EpochServer`]): the scheduler
//!   drains the queue and packs same-program requests from *different*
//!   tenants into one block-diagonal super-batch
//!   (`Sampler::sample_groups`, the §4.4 planner extended to
//!   heterogeneous request sizes), then scatters per-tenant results back
//!   out exactly. One RNG stream per group keeps each tenant's draws a
//!   pure function of its own seed and stream.
//! - **Fault isolation**: a pack is one `Sampler::window`, so a failed
//!   pack is split by the core's one recovery ladder (halve on OOM, one
//!   run per member otherwise) and a member that still fails quarantines
//!   only its own session; an injected fault runs its request alone.
//!   Co-tenants' outputs stay bit-identical to a fault-free run.
//!
//! Per-tenant latency, throughput, and queue-depth counters surface both
//! through [`EpochServer::snapshot`] and as `serve/*` trace events via
//! `gsampler-obs`.
//!
//! ```no_run
//! use std::sync::Arc;
//! use gsampler_graphs::{Dataset, DatasetKind};
//! use gsampler_serve::{EpochServer, ServeConfig, TenantSpec};
//!
//! let dataset = Dataset::generate(DatasetKind::Tiny, 1.0, 0);
//! let server = EpochServer::start(Arc::new(dataset.graph), ServeConfig::default());
//! server.register(TenantSpec::graphsage("alice", &[4, 4], 1)).unwrap();
//! let sample = server.request_sync("alice", vec![0, 1, 2], 0).unwrap();
//! assert_eq!(sample.layers.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod error;
pub mod metrics;
pub mod server;
pub mod session;

pub use admission::Admission;
pub use error::{Result, ServeError};
pub use metrics::{Metrics, MetricsSnapshot, TenantCounters};
pub use server::{EpochServer, GraphMetadata, ServeConfig, ServerSnapshot, Ticket};
pub use session::{Algorithm, Session, TenantSpec};
