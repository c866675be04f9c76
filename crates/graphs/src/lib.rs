//! Synthetic graph generation for gSampler-rs experiments.
//!
//! The paper evaluates on LiveJournal, Ogbn-Products, Ogbn-Papers100M and
//! Friendster. Those datasets are not redistributable here, so this crate
//! generates synthetic graphs whose *shape* matches each dataset at ~1/100
//! to ~1/1000 scale (see `DESIGN.md`'s substitution table): average
//! degree, skewed power-law degree distribution (RMAT), directedness, the
//! presence/absence of edge weights and node features, and — crucially for
//! the performance experiments — whether the graph exceeds device memory
//! and must be accessed via UVA.
//!
//! Also provided: planted-partition graphs with homophilous communities
//! and matching features/labels, the learnable substrate for the
//! end-to-end training experiments (paper Table 8).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod datasets;
pub mod features;
pub mod io;
pub mod rmat;

pub use datasets::{Dataset, DatasetKind};
pub use features::{community_features, community_labels, random_edge_weights};
pub use rmat::{planted_partition, rmat_edges, RmatParams};
