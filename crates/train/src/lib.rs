//! Minimal GNN training stack for end-to-end experiments.
//!
//! The paper's Tables 1 and 8 measure sampling as a share of full training
//! and the end-to-end time/accuracy of training GraphSAGE and LADIES to
//! convergence. This crate provides the smallest training stack that makes
//! those experiments real rather than decorative: dense linear layers with
//! hand-written backward passes ([`nn`]), a mean-aggregation graph
//! convolution over sampled blocks ([`sage`]), Adam, softmax
//! cross-entropy, and a trainer loop ([`trainer`]) that separates modeled
//! sampling time from modeled training compute on the same device model.
//!
//! The task is node classification on a planted-partition graph with
//! community-correlated features (`gsampler-graphs`), which genuinely
//! converges — the accuracy numbers in our Table 8 reproduction are
//! earned.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod nn;
pub mod sage;
pub mod trainer;

pub use nn::{Adam, Linear};
pub use sage::{blocks_from_sample, Block, GnnModel};
pub use trainer::{train_gnn, TrainConfig, TrainReport};
