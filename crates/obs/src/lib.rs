//! Observability core for gsampler-rs.
//!
//! The ROADMAP's "as fast as the hardware allows" claim is unverifiable
//! without first-class observability; this crate is the shared,
//! dependency-free substrate every layer instruments itself with:
//!
//! - [`span`]: hierarchical wall-clock spans (RAII guards) with typed
//!   key/value arguments — IR pass timings, kernel dispatches, worker-pool
//!   regions.
//! - [`event`]: zero-duration instant events — plan decisions (super-batch
//!   factor, layout assignment) and warnings.
//! - [`counter`]: cumulative named counters for the flat metrics snapshot.
//! - [`export_chrome_trace`] / [`write_chrome_trace`]: the recorded
//!   timeline as Chrome-trace JSON (`chrome://tracing`, Perfetto).
//! - [`metrics_json`]: counters plus per-span aggregates as one flat JSON
//!   object.
//! - [`check_trace`]: the one trace checker — a trace parses, its events
//!   are well-formed, and the required categories and events occur.
//!
//! Tracing is **off by default** and must be near-free when off: every
//! entry point loads one relaxed [`AtomicBool`] and returns before any
//! allocation, formatting, or locking. Callers that must build a span
//! name dynamically should gate the formatting on [`is_enabled`].
//!
//! The [`json`] module is a minimal self-contained JSON value type
//! (parser + serializer) shared by the trace exporter and by
//! [`check_trace`], which the `trace-check` bin in `gsampler-bench` and the
//! traced smoke tests run.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod check;
pub mod json;
mod trace;

pub use check::{check_trace, TraceCounts};
pub use trace::{
    counter, disable, enable, event, export_chrome_trace, is_enabled, metrics_json, reset, span,
    write_chrome_trace, write_metrics, Arg, SpanGuard,
};
