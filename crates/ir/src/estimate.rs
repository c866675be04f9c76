//! Static shape estimation for sampling programs.
//!
//! The data-layout-selection pass and the super-batch planner both need to
//! price operators *before* running anything, which requires estimates of
//! each intermediate's shape. Given coarse statistics of the input graph
//! and the batch size, this module propagates expected shapes through the
//! program. Estimates only steer performance decisions — a bad estimate
//! can never change results.

use crate::op::Op;
use crate::program::Program;

/// Coarse statistics of the input graph.
#[derive(Debug, Clone, Copy)]
pub struct GraphStats {
    /// Number of nodes.
    pub num_nodes: usize,
    /// Number of (directed) edges.
    pub num_edges: usize,
    /// Feature dimension of node features (0 if none).
    pub feature_dim: usize,
}

impl GraphStats {
    /// Average in-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes == 0 {
            0.0
        } else {
            self.num_edges as f64 / self.num_nodes as f64
        }
    }
}

/// Estimated shape of one node's value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShapeEst {
    /// Sparse matrix estimate.
    Matrix {
        /// Estimated rows.
        nrows: f64,
        /// Estimated columns.
        ncols: f64,
        /// Estimated stored edges.
        nnz: f64,
    },
    /// Dense matrix estimate.
    Dense {
        /// Estimated rows.
        rows: f64,
        /// Estimated columns.
        cols: f64,
    },
    /// Vector length estimate.
    Vector(f64),
    /// Node-list length estimate.
    Nodes(f64),
    /// A scalar.
    Scalar,
}

impl ShapeEst {
    /// Matrix fields, if this is a matrix estimate.
    pub fn as_matrix(&self) -> Option<(f64, f64, f64)> {
        match *self {
            ShapeEst::Matrix { nrows, ncols, nnz } => Some((nrows, ncols, nnz)),
            _ => None,
        }
    }

    /// Estimated resident bytes of this value.
    pub fn bytes(&self) -> f64 {
        match *self {
            ShapeEst::Matrix { nrows, ncols, nnz } => nnz * 8.0 + nrows.min(ncols) * 8.0,
            ShapeEst::Dense { rows, cols } => rows * cols * 4.0,
            ShapeEst::Vector(n) => n * 4.0,
            ShapeEst::Nodes(n) => n * 4.0,
            ShapeEst::Scalar => 4.0,
        }
    }
}

/// Expected number of distinct values when drawing `draws` times uniformly
/// from a population of `n` (birthday-style estimate).
fn expected_distinct(draws: f64, n: f64) -> f64 {
    if n <= 0.0 {
        return 0.0;
    }
    n * (1.0 - (-draws / n).exp())
}

/// Estimate the shape of every node of `program` for one mini-batch of
/// `batch_size` frontiers on a graph described by `stats`.
pub(crate) fn estimate_shapes(
    program: &Program,
    stats: &GraphStats,
    batch_size: usize,
) -> Vec<ShapeEst> {
    let n = stats.num_nodes as f64;
    let e = stats.num_edges as f64;
    let deg = stats.avg_degree();
    let fdim = stats.feature_dim.max(1) as f64;
    let mut shapes: Vec<ShapeEst> = Vec::with_capacity(program.len());

    for node in program.nodes() {
        let input = |i: usize| -> ShapeEst { shapes[node.inputs[i]] };
        let shape = match &node.op {
            Op::InputGraph => ShapeEst::Matrix {
                nrows: n,
                ncols: n,
                nnz: e,
            },
            Op::InputFrontiers => ShapeEst::Nodes(batch_size as f64),
            Op::InputDense(_) => ShapeEst::Dense {
                rows: n,
                cols: fdim,
            },
            Op::InputVector(_) => ShapeEst::Vector(n),
            Op::InputNodes(_) => ShapeEst::Nodes(batch_size as f64),
            Op::SliceCols => {
                let (nrows, _, _) = input(0).as_matrix().unwrap_or((n, n, e));
                let t = nodes_len(input(1));
                ShapeEst::Matrix {
                    nrows,
                    ncols: t,
                    nnz: t * deg,
                }
            }
            Op::SliceRows => {
                let (_, ncols, _) = input(0).as_matrix().unwrap_or((n, n, e));
                let t = nodes_len(input(1));
                ShapeEst::Matrix {
                    nrows: t,
                    ncols,
                    nnz: t * deg,
                }
            }
            Op::InduceSubgraph => {
                let t = nodes_len(input(1));
                // Edge survives if both endpoints are in the node set.
                let keep = (t / n).min(1.0);
                ShapeEst::Matrix {
                    nrows: t,
                    ncols: t,
                    nnz: (e * keep * keep).max(t),
                }
            }
            Op::ScalarOp(..)
            | Op::UnaryOp(..)
            | Op::Broadcast(..)
            | Op::SparseElt(..)
            | Op::Sddmm
            | Op::EdgeValuesFromDense { .. }
            | Op::Node2VecBias { .. }
            | Op::Convert(..)
            | Op::FusedEdgeMap { .. } => input(0),
            Op::Reduce(_, axis) | Op::FusedEdgeMapReduce { axis, .. } => {
                let (nrows, ncols, _) = input(0).as_matrix().unwrap_or((n, n, e));
                ShapeEst::Vector(match axis {
                    gsampler_matrix::Axis::Row => nrows,
                    gsampler_matrix::Axis::Col => ncols,
                })
            }
            Op::FusedExtractReduce { .. } => {
                ShapeEst::Vector(input(0).as_matrix().map_or(n, |(nrows, _, _)| nrows))
            }
            Op::VectorSum => ShapeEst::Scalar,
            Op::Spmm => {
                let (nrows, _, _) = input(0).as_matrix().unwrap_or((n, n, e));
                let cols = dense_cols(input(1), fdim);
                ShapeEst::Dense { rows: nrows, cols }
            }
            Op::SpmmT => {
                let (_, ncols, _) = input(0).as_matrix().unwrap_or((n, n, e));
                let cols = dense_cols(input(1), fdim);
                ShapeEst::Dense { rows: ncols, cols }
            }
            Op::Gemm => {
                let rows = dense_rows(input(0), n);
                let cols = dense_cols(input(1), fdim);
                ShapeEst::Dense { rows, cols }
            }
            Op::GemmT => {
                let rows = dense_rows(input(0), n);
                let cols = dense_rows(input(1), fdim);
                ShapeEst::Dense { rows, cols }
            }
            Op::DenseUnary(..) | Op::DenseSoftmaxRows | Op::DenseSoftmaxFlat => input(0),
            Op::DenseColumn { .. } => {
                let r = dense_rows(input(0), n);
                ShapeEst::Vector(r)
            }
            Op::DenseGatherRows => {
                let cols = dense_cols(input(0), fdim);
                ShapeEst::Dense {
                    rows: nodes_len(input(1)),
                    cols,
                }
            }
            Op::StackEdgeValues => {
                let (_, _, nnz) = input(0).as_matrix().unwrap_or((n, n, e));
                ShapeEst::Dense {
                    rows: nnz,
                    cols: node.inputs.len() as f64,
                }
            }
            Op::VectorOp(..) | Op::VectorScalar(..) | Op::VectorNormalize => input(0),
            Op::GatherVector => ShapeEst::Vector(nodes_len(input(1))),
            Op::GatherRowBias | Op::AlignRowVector => {
                let (nrows, _, _) = input(1).as_matrix().unwrap_or((n, n, e));
                ShapeEst::Vector(nrows)
            }
            Op::IndividualSample { k, .. } | Op::FusedBiasSelect { k, .. } => {
                let (nrows, ncols, nnz) = input(0).as_matrix().unwrap_or((n, n, e));
                let per_col = deg.min(*k as f64);
                ShapeEst::Matrix {
                    nrows,
                    ncols,
                    nnz: (ncols * per_col).min(nnz),
                }
            }
            Op::CollectiveSample { k } => collective(*k, input(0).as_matrix().unwrap_or((n, n, e))),
            Op::FusedExtractCollective { k } => {
                let (nrows, _, _) = input(0).as_matrix().unwrap_or((n, n, e));
                let t = nodes_len(input(1));
                collective(*k, (nrows, t, t * deg))
            }
            Op::FusedExtractSelect { k, .. } => {
                let (nrows, _, _) = input(0).as_matrix().unwrap_or((n, n, e));
                let t = nodes_len(input(1));
                let per_col = deg.min(*k as f64);
                ShapeEst::Matrix {
                    nrows,
                    ncols: t,
                    nnz: t * per_col,
                }
            }
            Op::RowNodes | Op::ColNodes => {
                let (nrows, ncols, nnz) = input(0).as_matrix().unwrap_or((n, n, e));
                let space = match node.op {
                    Op::RowNodes => nrows,
                    _ => ncols,
                };
                ShapeEst::Nodes(expected_distinct(nnz, space).min(space))
            }
            Op::AllRowIds => {
                let (nrows, _, _) = input(0).as_matrix().unwrap_or((n, n, e));
                ShapeEst::Nodes(nrows)
            }
            Op::NextWalkFrontier => {
                let (_, ncols, _) = input(0).as_matrix().unwrap_or((n, n, e));
                ShapeEst::Nodes(ncols)
            }
            Op::CompactRows => {
                let (nrows, ncols, nnz) = input(0).as_matrix().unwrap_or((n, n, e));
                ShapeEst::Matrix {
                    nrows: expected_distinct(nnz, nrows).min(nrows),
                    ncols,
                    nnz,
                }
            }
            Op::Precomputed { .. } => ShapeEst::Vector(n),
        };
        shapes.push(shape);
    }
    shapes
}

/// Estimated peak transient bytes of one batch execution (sum of all
/// non-input intermediates — a deliberate over-approximation that keeps
/// the super-batch planner conservative about the memory budget).
pub(crate) fn estimate_transient_bytes(program: &Program, shapes: &[ShapeEst]) -> f64 {
    program
        .nodes()
        .iter()
        .zip(shapes)
        .filter(|(node, _)| !node.op.is_input())
        .map(|(_, s)| s.bytes())
        .sum()
}

/// A collective select of `k` rows from a `(nrows, ncols, nnz)` matrix.
fn collective(k: usize, (nrows, ncols, nnz): (f64, f64, f64)) -> ShapeEst {
    let distinct = expected_distinct(nnz, nrows).max(1.0);
    let kept = (k as f64).min(distinct);
    ShapeEst::Matrix {
        nrows: kept,
        ncols,
        nnz: nnz * kept / distinct,
    }
}

fn nodes_len(s: ShapeEst) -> f64 {
    match s {
        ShapeEst::Nodes(n) => n,
        _ => 0.0,
    }
}

fn dense_cols(s: ShapeEst, default: f64) -> f64 {
    match s {
        ShapeEst::Dense { cols, .. } => cols,
        _ => default,
    }
}

fn dense_rows(s: ShapeEst, default: f64) -> f64 {
    match s {
        ShapeEst::Dense { rows, .. } => rows,
        _ => default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsampler_matrix::{Axis, EltOp, ReduceOp};

    fn stats() -> GraphStats {
        GraphStats {
            num_nodes: 1_000_000,
            num_edges: 50_000_000,
            feature_dim: 128,
        }
    }

    fn graphsage_program(k: usize) -> Program {
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let f = p.add(Op::InputFrontiers, vec![]);
        let sub = p.add(Op::SliceCols, vec![g, f]);
        let samp = p.add(Op::IndividualSample { k }, vec![sub]);
        let next = p.add(Op::RowNodes, vec![samp]);
        p.mark_output(samp);
        p.mark_output(next);
        p
    }

    #[test]
    fn graphsage_shapes() {
        let p = graphsage_program(10);
        let shapes = estimate_shapes(&p, &stats(), 512);
        // Extract: full row space, 512 columns, ~512*50 edges.
        let (nrows, ncols, nnz) = shapes[2].as_matrix().unwrap();
        assert_eq!(nrows, 1_000_000.0);
        assert_eq!(ncols, 512.0);
        assert!((nnz - 512.0 * 50.0).abs() < 1.0);
        // Sample: fanout 10 < avg degree 50, so ~512*10 edges.
        let (_, _, sampled) = shapes[3].as_matrix().unwrap();
        assert!((sampled - 5120.0).abs() < 1.0);
        // Next frontiers: distinct rows among 5120 draws from 1M ≈ 5107.
        match shapes[4] {
            ShapeEst::Nodes(n) => assert!(n > 4000.0 && n <= 5120.0),
            _ => panic!("expected nodes"),
        }
    }

    #[test]
    fn collective_sample_caps_rows() {
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let f = p.add(Op::InputFrontiers, vec![]);
        let sub = p.add(Op::SliceCols, vec![g, f]);
        let samp = p.add(Op::CollectiveSample { k: 256 }, vec![sub]);
        p.mark_output(samp);
        let shapes = estimate_shapes(&p, &stats(), 512);
        let (nrows, ncols, nnz) = shapes[3].as_matrix().unwrap();
        assert_eq!(nrows, 256.0);
        assert_eq!(ncols, 512.0);
        let (_, _, in_nnz) = shapes[2].as_matrix().unwrap();
        assert!(nnz < in_nnz);
    }

    #[test]
    fn reduce_vector_lengths() {
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let f = p.add(Op::InputFrontiers, vec![]);
        let sub = p.add(Op::SliceCols, vec![g, f]);
        let sq = p.add(Op::ScalarOp(EltOp::Pow, 2.0), vec![sub]);
        let r = p.add(Op::Reduce(ReduceOp::Sum, Axis::Row), vec![sq]);
        let c = p.add(Op::Reduce(ReduceOp::Sum, Axis::Col), vec![sq]);
        p.mark_output(r);
        p.mark_output(c);
        let shapes = estimate_shapes(&p, &stats(), 100);
        assert_eq!(shapes[4], ShapeEst::Vector(1_000_000.0));
        assert_eq!(shapes[5], ShapeEst::Vector(100.0));
    }

    #[test]
    fn transient_bytes_scale_with_batch() {
        let p = graphsage_program(10);
        let small = {
            let s = estimate_shapes(&p, &stats(), 128);
            estimate_transient_bytes(&p, &s)
        };
        let large = {
            let s = estimate_shapes(&p, &stats(), 4096);
            estimate_transient_bytes(&p, &s)
        };
        assert!(large > small * 10.0);
    }

    #[test]
    fn expected_distinct_sane() {
        assert!(expected_distinct(1.0, 1000.0) <= 1.0);
        let d = expected_distinct(1000.0, 1000.0);
        assert!(d > 600.0 && d < 700.0); // 1000(1 - e^-1) ≈ 632
        assert!(expected_distinct(1e9, 1000.0) <= 1000.0 + 1e-6);
    }
}
