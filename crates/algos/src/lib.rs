//! The 15 graph-sampling algorithms of the gSampler paper (Table 2),
//! expressed with the matrix-centric ECSF API of `gsampler-core`.
//!
//! | category   | bias    | algorithms |
//! |------------|---------|------------|
//! | node-wise  | uniform | DeepWalk, GraphSAINT, PinSAGE, HetGNN, GraphSAGE, VR-GCN |
//! | node-wise  | static  | SEAL, ShaDow |
//! | node-wise  | dynamic | Node2Vec, GCN-BS, Thanos, PASS |
//! | layer-wise | static  | FastGCN |
//! | layer-wise | dynamic | AS-GCN, LADIES |
//!
//! Each algorithm builds its per-layer programs in the module named after
//! its category; algorithms whose sampling interleaves with host-side
//! state (random walks, visit counting, bandit updates, subgraph
//! induction) also provide a driver in [`drivers`]. The [`registry`]
//! enumerates everything for the coverage experiment (paper Table 2 / our
//! `table2_coverage` harness), and it is the one place that binds and
//! drives each algorithm.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod drivers;
pub mod layerwise;
pub mod nodewise;
pub mod params;
pub mod ppr;
pub mod registry;
pub mod walks;

pub use params::Hyper;
pub use registry::{algorithm, all_algorithms, AlgoSpec, Drive, Driver};
