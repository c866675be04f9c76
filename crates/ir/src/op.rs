//! The operator vocabulary of sampling programs.

use gsampler_matrix::eltwise::UnaryOp;
use gsampler_matrix::{Axis, EltOp, Format, ReduceOp};

/// One step of a fused edge-map chain (see [`Op::FusedEdgeMap`]).
///
/// `Broadcast` steps reference the fused node's extra inputs by position:
/// input 0 is always the matrix, broadcast vectors follow in step order.
#[derive(Debug, Clone, PartialEq)]
pub enum EdgeMapStep {
    /// `value = op(value, scalar)`.
    Scalar(EltOp, f32),
    /// `value = unary(value)`.
    Unary(UnaryOp),
    /// `value = op(value, v[row-or-col])`; the vector is the fused node's
    /// input at position `input_pos`.
    Broadcast(EltOp, Axis, usize),
}

/// Operators of the sampling IR.
///
/// Attributes live here; value dependencies live in
/// [`crate::program::Node::inputs`]. The comment after each variant lists
/// the expected inputs in order and the produced value kind.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    // ---- inputs -------------------------------------------------------
    /// The base graph adjacency matrix. `[] -> Matrix`.
    InputGraph,
    /// The frontier node IDs of this layer. `[] -> Nodes`.
    InputFrontiers,
    /// A named dense input (features, model weights). `[] -> Dense`.
    InputDense(String),
    /// A named vector input. `[] -> Vector`.
    InputVector(String),
    /// A named node-list input (e.g. the previous random-walk frontier).
    /// `[] -> Nodes`.
    InputNodes(String),

    // ---- extract ------------------------------------------------------
    /// `A[:, frontiers]`. `[matrix, nodes] -> Matrix`.
    SliceCols,
    /// `A[frontiers, :]`. `[matrix, nodes] -> Matrix`.
    SliceRows,
    /// Induce the subgraph on a node set. `[matrix, nodes] -> Matrix`.
    InduceSubgraph,

    // ---- compute: edge-map -------------------------------------------
    /// `A <op> scalar`. `[matrix] -> Matrix`.
    ScalarOp(EltOp, f32),
    /// `unary(A)`. `[matrix] -> Matrix`.
    UnaryOp(UnaryOp),
    /// `A.<op>(V, axis)`. `[matrix, vector] -> Matrix`.
    Broadcast(EltOp, Axis),
    /// `A <op> B`, same sparsity pattern. `[matrix, matrix] -> Matrix`.
    SparseElt(EltOp),
    /// Per-edge dot products of two feature matrices.
    /// `[pattern, denseL, denseR] -> Matrix`.
    Sddmm,
    /// Replace edge values with column `col` of an `nnz × k` dense matrix.
    /// `[pattern, dense] -> Matrix`.
    EdgeValuesFromDense {
        /// Which column of the dense input provides the values.
        col: usize,
    },

    // ---- compute: edge-reduce ------------------------------------------
    /// `A.sum(axis)` and friends. `[matrix] -> Vector`.
    Reduce(ReduceOp, Axis),
    /// Scalar reduction over all edges. `[matrix] -> Scalar`.
    ReduceAll(ReduceOp),
    /// `A @ D`. `[matrix, dense] -> Dense`.
    Spmm,
    /// `A.T @ D`. `[matrix, dense] -> Dense`.
    SpmmT,

    // ---- compute: dense / vector ---------------------------------------
    /// `D1 @ D2`. `[dense, dense] -> Dense`.
    Gemm,
    /// `D1 @ D2.T`. `[dense, dense] -> Dense`.
    GemmT,
    /// Element-wise unary on a dense matrix. `[dense] -> Dense`.
    DenseUnary(UnaryOp),
    /// Row-wise softmax. `[dense] -> Dense`.
    DenseSoftmaxRows,
    /// Whole-buffer softmax. `[dense] -> Dense`.
    DenseSoftmaxFlat,
    /// Extract one column of a dense matrix as a vector.
    /// `[dense] -> Vector`.
    DenseColumn {
        /// Column index to extract.
        col: usize,
    },
    /// Gather rows of a dense matrix by node IDs. `[dense, nodes] -> Dense`.
    DenseGatherRows,
    /// Stack the edge values of k pattern-identical matrices into an
    /// `nnz × k` dense matrix. `[matrix; k] -> Dense`.
    StackEdgeValues,
    /// Element-wise binary on two vectors. `[vector, vector] -> Vector`.
    VectorOp(EltOp),
    /// `v <op> scalar`. `[vector] -> Vector`.
    VectorScalar(EltOp, f32),
    /// Sum of a vector's entries. `[vector] -> Scalar`.
    VectorSum,
    /// `v / v.sum()`. `[vector] -> Vector`.
    VectorNormalize,
    /// Gather vector entries by *local row index* of a matrix's current
    /// row space. `[vector, nodes] -> Vector`.
    GatherVector,
    /// Align a node-indexed vector to a matrix's row space: entry `r` of
    /// the output is `vector[global_row(r) mod len]` — how a full-graph
    /// score vector (e.g. AS-GCN's learned bias) is consumed by a
    /// compacted or block-diagonal sub-matrix. `[vector, matrix] -> Vector`.
    AlignRowVector,
    /// Gather, for every row of `sampled`, its entry of `vector`: at the
    /// position the row occupies in `source`'s row space when the vector is
    /// aligned with `source`'s rows, by the row's global ID otherwise (a
    /// node-indexed bias). This is how a layer-wise sampler looks up the bias
    /// of each selected node (`row_probs[sample_A.row()]`, paper Fig. 3b),
    /// compacted source or not; `vector[id mod len]` without one (what the
    /// aligned lookup reads in an uncompacted extract).
    /// `[vector, matrix(sampled), matrix(source)?] -> Vector`.
    GatherRowBias,

    // ---- select ---------------------------------------------------------
    /// Node-wise sampling of `k` neighbours per frontier.
    /// `[matrix]` or `[matrix, probs_matrix] -> Matrix`.
    IndividualSample {
        /// Neighbours to keep per frontier.
        k: usize,
        /// Sample with replacement (random-walk semantics).
        replace: bool,
    },
    /// Layer-wise sampling of `k` row nodes.
    /// `[matrix]` or `[matrix, node_probs_vector] -> Matrix`.
    CollectiveSample {
        /// Row nodes to keep across the layer.
        k: usize,
    },
    /// Node2Vec second-order bias: each edge `(r, c)` of the sub-matrix is
    /// biased by `1/p` if `r` is the previous node of walker `c`, `1` if
    /// `r` neighbours it, else `1/q`. `[matrix, nodes(prev), matrix(graph)] -> Matrix`.
    Node2VecBias {
        /// Return parameter `p`.
        p: f32,
        /// In-out parameter `q`.
        q: f32,
    },

    // ---- finalize -------------------------------------------------------
    /// Distinct global row IDs with at least one edge. `[matrix] -> Nodes`.
    RowNodes,
    /// Distinct global column IDs with at least one edge. `[matrix] -> Nodes`.
    ColNodes,
    /// All global row IDs of the matrix's row space. `[matrix] -> Nodes`.
    AllRowIds,
    /// Per-walker finalize for random walks: for each column, the global
    /// row ID of its (single) sampled edge, or the column's own node when
    /// the walk hit a dead end. `[matrix] -> Nodes` (length = columns).
    NextWalkFrontier,
    /// Drop isolated rows. `[matrix] -> Matrix`.
    CompactRows,
    /// Drop isolated columns. `[matrix] -> Matrix`.
    CompactCols,

    // ---- inserted by passes ----------------------------------------------
    /// Convert storage format. `[matrix] -> Matrix`.
    Convert(Format),
    /// Fused extract + node-wise select: sample directly from the graph's
    /// adjacency without materializing the sliced sub-matrix.
    /// `[matrix, nodes] -> Matrix`.
    FusedExtractSelect {
        /// Neighbours to keep per frontier.
        k: usize,
        /// Sample with replacement.
        replace: bool,
    },
    /// `CollectiveSample(SliceCols(m, frontiers), probs)` without the
    /// slice: selects in its row space, writes only the selected rows'
    /// edges from `m`'s columns. `[matrix, nodes, vector] -> Matrix`.
    FusedExtractCollective {
        /// Row nodes to keep across the layer.
        k: usize,
    },
    /// `Reduce(reduce, Row)` of `SliceCols(m, frontiers)` without the
    /// slice (pre-processing's sink, `m` the hoisted edge map `M(G)`).
    /// `[matrix, nodes] -> Vector`.
    FusedExtractReduce {
        /// The reduction.
        reduce: ReduceOp,
    },
    /// Fused chain of edge-map steps executed as one kernel.
    /// `[matrix, vectors...] -> Matrix`.
    FusedEdgeMap {
        /// The steps, applied in order.
        steps: Vec<EdgeMapStep>,
    },
    /// Fused edge-map chain followed by an axis reduction; mapped edge
    /// values are never written back to memory.
    /// `[matrix, vectors...] -> Vector`.
    FusedEdgeMapReduce {
        /// The edge-map steps, applied in order.
        steps: Vec<EdgeMapStep>,
        /// The final reduction.
        reduce: ReduceOp,
        /// Reduction axis.
        axis: Axis,
    },
    /// Fused attention combine (paper Fig. 5b, PASS): `pattern` re-valued
    /// with `unary(Σ_k a_k[e] · W[k, col])` — the chain `StackEdgeValues` →
    /// `Gemm` by `W` → `DenseUnary`s → `EdgeValuesFromDense { col }` as one
    /// edge-map kernel with the chain's per-edge operation sequence and
    /// neither intermediate. `[pattern, a_1, .., a_k, W(dense)] -> Matrix`.
    FusedEdgeCombine {
        /// Which column of `W` projects the channels.
        col: usize,
        /// The dense unary maps of the chain, applied in order.
        unary: Vec<UnaryOp>,
    },
    /// A node whose value was precomputed at compile time (pre-processing
    /// pass); the attribute indexes the executable's constant table.
    /// `[] -> any`.
    Precomputed {
        /// Index into the compiled executable's constant pool.
        slot: usize,
    },
}

impl EdgeMapStep {
    /// See [`Op::fold_identity`].
    fn fold_identity(&self, fold: &mut impl FnMut(&[u8])) {
        match self {
            EdgeMapStep::Scalar(op, s) => {
                fold(&[0, *op as u8]);
                fold(&s.to_bits().to_le_bytes());
            }
            EdgeMapStep::Unary(op) => fold(&[1, *op as u8]),
            EdgeMapStep::Broadcast(op, axis, pos) => {
                fold(&[2, *op as u8, *axis as u8]);
                fold(&(*pos as u64).to_le_bytes());
            }
        }
    }
}

impl Op {
    /// Fold this operator's identity into a byte-fold hasher: a distinct
    /// tag byte per variant followed by the raw bytes of every attribute.
    /// This is the operator half of [`crate::Program::fingerprint`], which
    /// runs on every cache-enabled compile — hashing raw bytes instead of
    /// a formatted string keeps that path allocation-free. Exhaustive on
    /// purpose (no wildcard arms, all fields bound): adding a variant or a
    /// field without extending the fold is a compile error, not a silent
    /// hash collision between distinct operators.
    pub fn fold_identity(&self, fold: &mut impl FnMut(&[u8])) {
        match self {
            Op::InputGraph => fold(&[0]),
            Op::InputFrontiers => fold(&[1]),
            Op::InputDense(n) => {
                fold(&[2]);
                fold(&(n.len() as u64).to_le_bytes());
                fold(n.as_bytes());
            }
            Op::InputVector(n) => {
                fold(&[3]);
                fold(&(n.len() as u64).to_le_bytes());
                fold(n.as_bytes());
            }
            Op::InputNodes(n) => {
                fold(&[4]);
                fold(&(n.len() as u64).to_le_bytes());
                fold(n.as_bytes());
            }
            Op::SliceCols => fold(&[5]),
            Op::SliceRows => fold(&[6]),
            Op::InduceSubgraph => fold(&[7]),
            Op::ScalarOp(op, s) => {
                fold(&[8, *op as u8]);
                fold(&s.to_bits().to_le_bytes());
            }
            Op::UnaryOp(op) => fold(&[9, *op as u8]),
            Op::Broadcast(op, axis) => fold(&[10, *op as u8, *axis as u8]),
            Op::SparseElt(op) => fold(&[11, *op as u8]),
            Op::Sddmm => fold(&[12]),
            Op::EdgeValuesFromDense { col } => {
                fold(&[13]);
                fold(&(*col as u64).to_le_bytes());
            }
            Op::Reduce(op, axis) => fold(&[14, *op as u8, *axis as u8]),
            Op::ReduceAll(op) => fold(&[15, *op as u8]),
            Op::Spmm => fold(&[16]),
            Op::SpmmT => fold(&[17]),
            Op::Gemm => fold(&[18]),
            Op::GemmT => fold(&[19]),
            Op::DenseUnary(op) => fold(&[20, *op as u8]),
            Op::DenseSoftmaxRows => fold(&[21]),
            Op::DenseSoftmaxFlat => fold(&[22]),
            Op::DenseColumn { col } => {
                fold(&[23]);
                fold(&(*col as u64).to_le_bytes());
            }
            Op::DenseGatherRows => fold(&[24]),
            Op::StackEdgeValues => fold(&[25]),
            Op::VectorOp(op) => fold(&[26, *op as u8]),
            Op::VectorScalar(op, s) => {
                fold(&[27, *op as u8]);
                fold(&s.to_bits().to_le_bytes());
            }
            Op::VectorSum => fold(&[28]),
            Op::VectorNormalize => fold(&[29]),
            Op::GatherVector => fold(&[30]),
            Op::GatherRowBias => fold(&[31]),
            Op::AlignRowVector => fold(&[32]),
            Op::IndividualSample { k, replace } => {
                fold(&[33, u8::from(*replace)]);
                fold(&(*k as u64).to_le_bytes());
            }
            Op::CollectiveSample { k } => {
                fold(&[34]);
                fold(&(*k as u64).to_le_bytes());
            }
            Op::Node2VecBias { p, q } => {
                fold(&[35]);
                fold(&p.to_bits().to_le_bytes());
                fold(&q.to_bits().to_le_bytes());
            }
            Op::RowNodes => fold(&[36]),
            Op::ColNodes => fold(&[37]),
            Op::AllRowIds => fold(&[38]),
            Op::NextWalkFrontier => fold(&[39]),
            Op::CompactRows => fold(&[40]),
            Op::CompactCols => fold(&[41]),
            Op::Convert(f) => fold(&[42, *f as u8]),
            Op::FusedExtractSelect { k, replace } => {
                fold(&[43, u8::from(*replace)]);
                fold(&(*k as u64).to_le_bytes());
            }
            Op::FusedEdgeMap { steps } => {
                fold(&[44]);
                fold(&(steps.len() as u64).to_le_bytes());
                for step in steps {
                    step.fold_identity(fold);
                }
            }
            Op::FusedEdgeMapReduce {
                steps,
                reduce,
                axis,
            } => {
                fold(&[45, *reduce as u8, *axis as u8]);
                fold(&(steps.len() as u64).to_le_bytes());
                for step in steps {
                    step.fold_identity(fold);
                }
            }
            Op::Precomputed { slot } => {
                fold(&[46]);
                fold(&(*slot as u64).to_le_bytes());
            }
            Op::FusedEdgeCombine { col, unary } => {
                fold(&[47]);
                fold(&(*col as u64).to_le_bytes());
                unary.iter().for_each(|op| fold(&[*op as u8]));
            }
            Op::FusedExtractCollective { k } => {
                fold(&[48]);
                fold(&(*k as u64).to_le_bytes());
            }
            Op::FusedExtractReduce { reduce } => fold(&[49, *reduce as u8]),
        }
    }

    /// True for operators whose output depends on an RNG draw.
    pub fn is_random(&self) -> bool {
        matches!(
            self,
            Op::IndividualSample { .. }
                | Op::CollectiveSample { .. }
                | Op::FusedExtractSelect { .. }
                | Op::FusedExtractCollective { .. }
        )
    }

    /// True for graph/frontier/named inputs.
    pub fn is_input(&self) -> bool {
        matches!(
            self,
            Op::InputGraph
                | Op::InputFrontiers
                | Op::InputDense(..)
                | Op::InputVector(..)
                | Op::InputNodes(..)
        )
    }

    /// Short operator name for display and diagnostics.
    pub fn name(&self) -> String {
        match self {
            Op::InputGraph => "input_graph".into(),
            Op::InputFrontiers => "input_frontiers".into(),
            Op::InputDense(n) => format!("input_dense({n})"),
            Op::InputVector(n) => format!("input_vector({n})"),
            Op::InputNodes(n) => format!("input_nodes({n})"),
            Op::SliceCols => "slice_cols".into(),
            Op::SliceRows => "slice_rows".into(),
            Op::InduceSubgraph => "induce_subgraph".into(),
            Op::ScalarOp(op, s) => format!("scalar_{}({s})", op.name()),
            Op::UnaryOp(op) => format!("unary_{}", op.name()),
            Op::Broadcast(op, axis) => format!("broadcast_{}[{axis:?}]", op.name()),
            Op::SparseElt(op) => format!("sparse_{}", op.name()),
            Op::Sddmm => "sddmm".into(),
            Op::EdgeValuesFromDense { col } => format!("edge_values_from_dense({col})"),
            Op::Reduce(op, axis) => format!("reduce_{}[{axis:?}]", op.name()),
            Op::ReduceAll(op) => format!("reduce_all_{}", op.name()),
            Op::Spmm => "spmm".into(),
            Op::SpmmT => "spmm_t".into(),
            Op::Gemm => "gemm".into(),
            Op::GemmT => "gemm_t".into(),
            Op::DenseUnary(op) => format!("dense_{}", op.name()),
            Op::DenseSoftmaxRows => "dense_softmax_rows".into(),
            Op::DenseSoftmaxFlat => "dense_softmax_flat".into(),
            Op::DenseColumn { col } => format!("dense_column({col})"),
            Op::DenseGatherRows => "dense_gather_rows".into(),
            Op::StackEdgeValues => "stack_edge_values".into(),
            Op::VectorOp(op) => format!("vector_{}", op.name()),
            Op::VectorScalar(op, s) => format!("vector_{}({s})", op.name()),
            Op::VectorSum => "vector_sum".into(),
            Op::VectorNormalize => "vector_normalize".into(),
            Op::GatherVector => "gather_vector".into(),
            Op::GatherRowBias => "gather_row_bias".into(),
            Op::AlignRowVector => "align_row_vector".into(),
            Op::IndividualSample { k, replace } => {
                format!("individual_sample(k={k}, replace={replace})")
            }
            Op::CollectiveSample { k } => format!("collective_sample(k={k})"),
            Op::Node2VecBias { p, q } => format!("node2vec_bias(p={p}, q={q})"),
            Op::RowNodes => "row_nodes".into(),
            Op::ColNodes => "col_nodes".into(),
            Op::AllRowIds => "all_row_ids".into(),
            Op::NextWalkFrontier => "next_walk_frontier".into(),
            Op::CompactRows => "compact_rows".into(),
            Op::CompactCols => "compact_cols".into(),
            Op::Convert(f) => format!("convert[{f}]"),
            Op::FusedExtractSelect { k, replace } => {
                format!("fused_extract_select(k={k}, replace={replace})")
            }
            Op::FusedExtractCollective { k } => format!("fused_extract_collective(k={k})"),
            Op::FusedExtractReduce { reduce } => format!("fused_extract_reduce_{}", reduce.name()),
            Op::FusedEdgeMap { steps } => format!("fused_edge_map({} steps)", steps.len()),
            Op::FusedEdgeMapReduce {
                steps,
                reduce,
                axis,
            } => format!(
                "fused_edge_map_reduce({} steps, {}[{axis:?}])",
                steps.len(),
                reduce.name()
            ),
            Op::FusedEdgeCombine { col, .. } => format!("fused_edge_combine({col})"),
            Op::Precomputed { slot } => format!("precomputed({slot})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(Op::IndividualSample {
            k: 5,
            replace: false
        }
        .is_random());
        assert!(!Op::SliceCols.is_random());
        assert!(Op::InputGraph.is_input());
    }

    #[test]
    fn names_are_informative() {
        assert_eq!(Op::SliceCols.name(), "slice_cols");
        assert!(Op::ScalarOp(EltOp::Pow, 2.0).name().contains("pow"));
        assert!(Op::CollectiveSample { k: 512 }.name().contains("512"));
        assert!(Op::Convert(Format::Csr).name().contains("csr"));
    }
}
