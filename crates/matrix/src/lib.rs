//! Sparse-matrix substrate for gSampler-rs.
//!
//! This crate implements the storage formats and computational kernels that
//! the matrix-centric graph-sampling API (crate `gsampler-core`) is built on:
//!
//! - Three sparse formats: [`Csc`], [`Csr`], and [`Coo`], with lossless
//!   conversions between them ([`SparseMatrix`] wraps the three and carries
//!   the current format at runtime, mirroring the data-layout-selection
//!   design of the paper).
//! - Structural kernels: column/row slicing (the *extract* step), row
//!   compaction (dropping isolated rows), and global/local node-ID tracking
//!   ([`GraphMatrix`]).
//! - Compute kernels: axis reductions, vector broadcasts, element-wise
//!   scalar/dense ops, sparse × dense matrix multiplication (SpMM) and
//!   sampled dense-dense multiplication (SDDMM).
//! - Selection kernels: one select without replacement behind per-column
//!   sampling (*individual sample*, node-wise algorithms) and cross-column
//!   row sampling (*collective sample*, layer-wise algorithms).
//! - A small dense tensor module ([`dense`]) sufficient for the
//!   model-driven sampling algorithms (PASS, AS-GCN) and the GNN trainer.
//!
//! The kernels here are pure and deterministic (a draw is a function of a
//! [`gsampler_runtime::rng::Key`] and a counter). Hot kernels — SpMM/SDDMM, dense GEMM,
//! sampling, slicing, compaction and format conversions — run on the
//! persistent worker pool of `gsampler-runtime`; decomposition is always a
//! function of the input alone, so results are bit-identical at any thread
//! count. Device cost accounting lives in `gsampler-engine`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bias;
pub mod broadcast;
pub mod compact;
pub mod convert;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod eltwise;
pub mod error;
pub mod graph_matrix;
pub mod reduce;
pub mod sample;
pub mod slice;
pub mod sparse;
pub mod spmm;

pub use coo::Coo;
pub use csc::Csc;
pub use csr::Csr;
pub use dense::Dense;
pub use error::{Error, Result};
pub use graph_matrix::GraphMatrix;
pub use sparse::SparseMatrix;

/// Minimum number of output items (or edge-work units) a kernel must
/// produce before it dispatches to the worker pool; below this, region
/// overhead dominates and the kernel stays sequential. Input-size-derived,
/// never thread-count-derived, so outputs are thread-count independent.
pub(crate) const PAR_GRAIN: usize = 1 << 12;

/// Translate a work estimate into the `min_items` argument of the runtime
/// scheduling helpers: parallel when at least [`PAR_GRAIN`] units of work
/// exist, inline otherwise.
pub(crate) fn par_gate(work: usize) -> usize {
    if work >= PAR_GRAIN {
        1
    } else {
        usize::MAX
    }
}

/// Node identifier within a graph (or row/column index within a matrix).
///
/// 32-bit IDs cover graphs with up to ~4.3 billion nodes, matching the
/// largest graphs in the paper's evaluation (Ogbn-Papers100M: 111M nodes).
pub type NodeId = u32;

/// Sparse storage format tag.
///
/// The formats differ in which access pattern they make cheap (paper §4.3,
/// Table 5): CSC stores in-neighbours of each node consecutively (fast
/// column slicing), CSR stores out-neighbours consecutively (fast row
/// operations), COO stores a flat edge list (fast edge-parallel kernels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Format {
    /// Compressed sparse column.
    Csc,
    /// Compressed sparse row.
    Csr,
    /// Coordinate (edge-list) format.
    Coo,
}

impl Format {
    /// All formats, in a fixed order (useful for layout-search enumeration).
    pub const ALL: [Format; 3] = [Format::Csc, Format::Csr, Format::Coo];

    /// Short lowercase name (`"csc"`, `"csr"`, `"coo"`).
    pub fn name(self) -> &'static str {
        match self {
            Format::Csc => "csc",
            Format::Csr => "csr",
            Format::Coo => "coo",
        }
    }
}

impl std::fmt::Display for Format {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Reduction / broadcast axis.
///
/// Follows the paper's convention (Fig. 3b): `Axis::Row` produces or
/// consumes a vector indexed by *row* nodes (length `nrows`), `Axis::Col`
/// one indexed by *column* nodes (length `ncols`). In the sampling setting,
/// columns are the frontier nodes and rows are their candidate neighbours,
/// so `sum(Axis::Row)` aggregates each candidate's bias across all
/// frontiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Indexed by row nodes; reduction sums over the column dimension.
    Row,
    /// Indexed by column nodes; reduction sums over the row dimension.
    Col,
}

/// Binary element-wise operation on edge values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EltOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Exponentiation (`lhs.powf(rhs)`). Pitfall: glibc `powf(x, 2.0)` and
    /// `x * x` differ on 774,403 of the 2^31 non-negative `f32` patterns,
    /// and LLVM folds a *constant* exponent 2 to `x * x`. A rewrite that
    /// moves a `Pow` (pre-processing's hoisted `A ** 2`) must evaluate it
    /// through the same runtime `apply` — never a `Pow, 2.0` special case.
    Pow,
    /// Keep the maximum of the two operands.
    Max,
    /// Keep the minimum of the two operands.
    Min,
}

impl EltOp {
    /// Apply the operation to a pair of scalars.
    #[inline]
    pub fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            EltOp::Add => a + b,
            EltOp::Sub => a - b,
            EltOp::Mul => a * b,
            EltOp::Div => a / b,
            EltOp::Pow => a.powf(b),
            EltOp::Max => a.max(b),
            EltOp::Min => a.min(b),
        }
    }

    /// Short lowercase name of the operation.
    pub fn name(self) -> &'static str {
        match self {
            EltOp::Add => "add",
            EltOp::Sub => "sub",
            EltOp::Mul => "mul",
            EltOp::Div => "div",
            EltOp::Pow => "pow",
            EltOp::Max => "max",
            EltOp::Min => "min",
        }
    }
}

/// Reduction operator for axis reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Sum of edge values.
    Sum,
    /// Maximum edge value (`-inf` identity; zero for empty slices).
    Max,
    /// Minimum edge value (`+inf` identity; zero for empty slices).
    Min,
    /// Arithmetic mean of edge values (zero for empty slices).
    Mean,
    /// Number of incident edges, ignoring values (node degree).
    Count,
}

impl ReduceOp {
    /// Short lowercase name of the reduction.
    pub fn name(self) -> &'static str {
        match self {
            ReduceOp::Sum => "sum",
            ReduceOp::Max => "max",
            ReduceOp::Min => "min",
            ReduceOp::Mean => "mean",
            ReduceOp::Count => "count",
        }
    }
}
