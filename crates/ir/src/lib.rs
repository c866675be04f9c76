//! Data-flow intermediate representation for graph-sampling programs.
//!
//! A sampling layer written against the matrix-centric API (crate
//! `gsampler-core`) is recorded as a [`Program`]: a DAG whose nodes are
//! operators ([`Op`]) and whose edges are value dependencies. The paper's
//! optimization passes (§4.2–4.4) are implemented as program → program
//! transformations:
//!
//! - **computation passes**: [`passes::dce`], [`passes::cse`],
//!   [`passes::preprocess`] (hoisting sampling-invariant compute onto the
//!   full graph) and [`passes::fusion`] (Extract-Select, Edge-Map and
//!   Edge-MapReduce fusion);
//! - **data-layout selection** ([`passes::layout`]): brute-force search
//!   over sparse formats and compaction for the structure-producing
//!   operators, priced with the engine cost model on estimated shapes;
//! - **super-batch planning** ([`superbatch`]): choose how many
//!   mini-batches to sample together under a memory budget.
//!
//! Passes, planner and executor read one per-node fact table, [`facts()`].
//!
//! Execution of (optimized) programs lives in `gsampler-core`; this crate
//! is purely about representation and transformation, so its tests verify
//! structural properties while the core crate's tests verify semantics.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod costing;
pub mod estimate;
pub mod facts;
pub mod op;
pub mod passes;
pub mod program;
pub mod superbatch;

pub use estimate::{GraphStats, ShapeEst};
pub use facts::{facts, Facts, Space, ValueKind, Varies};
pub use op::{BiasChannel, BiasCombine, EdgeBias, EdgeMapStep, Op};
pub use passes::{run_passes, LayoutDecision, LayoutPlan, OptConfig, PassReport};
pub use program::{identity, Node, OpId, Program};
