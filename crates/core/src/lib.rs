//! gSampler-rs core: the public matrix-centric graph-sampling API.
//!
//! This crate ties the substrates together into the system the paper
//! describes (§3–4):
//!
//! 1. Write a sampling layer with [`builder::LayerBuilder`] — matrix
//!    handles whose methods mirror the paper's Table 4 operators, recorded
//!    into a data-flow program (ECSF: extract → compute → select →
//!    finalize).
//! 2. [`compile()`] the layers for a [`Graph`]: the IR passes (fusion,
//!    pre-processing, DCE/CSE, data-layout selection) rewrite each
//!    program; batch-invariant subprograms are evaluated once; the
//!    super-batch factor is planned under a memory budget.
//! 3. Drive the [`Sampler`]: per-batch or per-epoch execution on a modeled
//!    device (V100/T4/CPU) that records kernel launches, bytes, memory and
//!    SM utilization — the quantities the paper's evaluation reports.
//!
//! ```
//! use std::sync::Arc;
//! use gsampler_core::{builder::LayerBuilder, compile, Graph, SamplerConfig, Bindings};
//!
//! // A tiny graph: edges (src, dst, weight); column v = in-edges of v.
//! let graph = Arc::new(Graph::from_edges(
//!     "toy", 5,
//!     &[(1, 0, 1.0), (2, 0, 1.0), (3, 1, 1.0), (4, 1, 1.0), (0, 2, 1.0)],
//!     false,
//! ).unwrap());
//!
//! // One GraphSAGE layer with fanout 2.
//! let b = LayerBuilder::new();
//! let a = b.graph();
//! let f = b.frontiers();
//! let sample = a.slice_cols(&f).individual_sample(2, None);
//! let next = sample.row_nodes();
//! b.output(&sample);
//! b.output_next_frontiers(&next);
//!
//! let sampler = compile(graph, vec![b.build()], SamplerConfig::new()).unwrap();
//! let out = sampler.sample_batch(&[0, 1], &Bindings::new()).unwrap();
//! assert_eq!(out.layers.len(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod compile;
pub mod error;
pub mod exec;
pub mod graph;
pub mod hoist;
pub mod kernels;
pub mod multi_gpu;
mod plandb;
pub mod value;
pub mod window;

pub use compile::{compile, CompiledLayer, GraphSample, Sampler, SamplerConfig};
pub use error::{Error, Result};
pub use exec::Bindings;
pub use graph::Graph;
pub use multi_gpu::{MultiGpuReport, MultiGpuSampler};
pub use plandb::PlanDb;
pub use value::Value;
pub use window::{EpochReport, RecoveryPolicy};

// Re-export the configuration surface users need alongside the API.
pub use gsampler_engine::{DeviceProfile, PlanDbStats, Residency};
pub use gsampler_ir::passes::{LayoutMode, OptConfig};
pub use gsampler_matrix::{Axis, EltOp, ReduceOp};
// The one way to stop a run: install a token with `cancel::scope`. The one
// way to draw: `mix(key, counter)`.
pub use gsampler_runtime::{cancel, CancelToken, Key};
