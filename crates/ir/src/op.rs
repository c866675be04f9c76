//! The operator vocabulary of sampling programs.

use gsampler_matrix::eltwise::UnaryOp;
use gsampler_matrix::{Axis, EltOp, Format, ReduceOp};

use crate::facts::{Facts, Space, ValueKind, Varies};

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

/// One per-edge value of an [`EdgeBias`].
#[derive(Debug, Clone, PartialEq)]
pub enum BiasChannel {
    /// `B.row(row) · C.row(col)`: an [`Op::Sddmm`] of the select's matrix,
    /// `B` and `C` the fused node's inputs at these positions.
    Dot(usize, usize),
    /// The edge's own value through these steps: an edge-map chain over
    /// the select's matrix, its broadcast vectors the fused node's inputs
    /// at the steps' positions (none: the value itself).
    Map(Vec<EdgeMapStep>),
}

/// A per-edge sampling bias [`Op::FusedBiasSelect`] evaluates inside its
/// pick. The grammar is fixed — channels, then an optional combine — and
/// is not an interpreter: the chain a fusion rule cannot spell in it stays
/// materialized.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeBias {
    /// The channels, in stack order.
    pub channels: Vec<BiasChannel>,
    /// `unary(Σ_k [a_k ≠ 0] a_k · W[k, col])` over the channels (PASS's
    /// stack → project → map → column); `None`: the one channel as it is.
    pub combine: Option<BiasCombine>,
}

/// The combine of an [`EdgeBias`].
#[derive(Debug, Clone, PartialEq)]
pub struct BiasCombine {
    /// Position of `W` among the fused node's inputs.
    pub w: usize,
    /// Which column of `W` projects the channels.
    pub col: usize,
    /// The dense unary maps of the chain, applied in order.
    pub unary: Vec<UnaryOp>,
}

impl EdgeBias {
    /// The fused node's input kinds after its matrix: the leaves by
    /// position (a dot's two dense inputs, a step's vector, `W`).
    fn leaf_kinds(&self) -> Vec<ValueKind> {
        let mut leaves = Vec::new();
        for channel in &self.channels {
            match channel {
                BiasChannel::Dot(b, c) => {
                    leaves.extend([(*b, ValueKind::Dense), (*c, ValueKind::Dense)])
                }
                BiasChannel::Map(steps) => leaves.extend(steps.iter().filter_map(|s| match s {
                    EdgeMapStep::Broadcast(_, _, pos) => Some((*pos, ValueKind::Vector)),
                    _ => None,
                })),
            }
        }
        leaves.extend(self.combine.as_ref().map(|c| (c.w, ValueKind::Dense)));
        let mut kinds = vec![ValueKind::Matrix; leaves.iter().map(|l| l.0).max().unwrap_or(0)];
        leaves
            .into_iter()
            .for_each(|(pos, kind)| kinds[pos - 1] = kind);
        kinds
    }
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
    /// Node-wise sampling of `k` neighbours per frontier, without
    /// replacement: `min(degree, k)` distinct edges (a walk step is `k = 1`).
    /// `[matrix]` or `[matrix, probs_matrix] -> Matrix`.
    IndividualSample {
        /// Neighbours to keep per frontier.
        k: usize,
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

    // ---- inserted by passes ----------------------------------------------
    /// Convert storage format. `[matrix] -> Matrix`.
    Convert(Format),
    /// Fused extract + node-wise select: sample directly from the graph's
    /// adjacency without materializing the sliced sub-matrix.
    /// `[matrix, nodes] -> Matrix`.
    FusedExtractSelect {
        /// Neighbours to keep per frontier.
        k: usize,
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
    /// `IndividualSample(m, probs)` whose bias chain, read by nothing else,
    /// is evaluated per edge inside the pick ([`EdgeBias`]): the chain's
    /// SDDMM, edge-map and combine arrays are never materialized.
    /// `[matrix, leaves...] -> Matrix`, the leaves at `bias`'s positions.
    FusedBiasSelect {
        /// Neighbours to keep per frontier.
        k: usize,
        /// The per-edge bias.
        bias: EdgeBias,
    },
    /// A node whose value the pre-processing pass hoisted into the
    /// precompute program, evaluated once per graph and set of bound
    /// inputs; the attribute indexes that program's outputs.
    /// `[] ->` the facts of the precompute output it reads.
    Precomputed {
        /// Index into the precompute program's outputs.
        slot: usize,
    },
}

impl Op {
    /// The transfer table of [`crate::facts()`]: this operator's [`Facts`]
    /// given its inputs' (`slots` holds the facts of `Precomputed` values),
    /// or why the inputs are ill-kinded. `uses` is left 0 for the pass to
    /// count. Exhaustive (no wildcard arms), so a new operator must state
    /// its rules; `diagonal` is the super-batch type rule (see
    /// [the `facts` module](mod@crate::facts)).
    pub fn transfer(&self, ins: &[Facts], slots: &[Facts]) -> Result<Facts, String> {
        use Space::{Block, Frontier, Graph};
        use ValueKind::{Dense, Matrix, Nodes, Scalar, Vector};
        // Inputs by position; a missing one reads as the default and fails
        // the kind check below.
        let [a, b] = [0, 1].map(|i| ins.get(i).copied().unwrap_or_default());
        let same = (a.rows, a.cols);
        // The extract kernels lift a side with the graph's `N` rows into
        // block space and, super-batched, read the frontier list rather
        // than their node input: legal keyed by it over a whole-graph matrix.
        let lifted = a.rows.map(|s| if s == Graph { Block } else { s });
        let extract = (lifted, b.cols);
        let keyed = (a.rows, a.cols, b.cols) == (Some(Graph), Some(Graph), Some(Frontier));
        let block_rows = a.rows.filter(|&s| s == Block);
        // A fold over a value no group owns gives every group the same.
        let unowned = |f: Facts| f.varies != Varies::Batch;
        let along = |axis: &Axis| match axis {
            Axis::Row => (a.rows, None),
            Axis::Col => (None, a.cols),
        };
        // Element-wise vector ops tile a graph-period vector over a block one.
        let join = |x: Option<Space>, y: Option<Space>| match (x, y) {
            _ if x == y => x,
            (Some(Graph), Some(Block)) | (Some(Block), Some(Graph)) => Some(Block),
            _ => None,
        };
        // The variadic operators' input kinds.
        let variadic = match self {
            Op::FusedEdgeMap { steps } | Op::FusedEdgeMapReduce { steps, .. } => {
                let vectors = steps
                    .iter()
                    .filter(|s| matches!(s, EdgeMapStep::Broadcast(..)));
                [vec![Matrix], vec![Vector; vectors.count()]].concat()
            }
            Op::FusedBiasSelect { bias, .. } => [vec![Matrix], bias.leaf_kinds()].concat(),
            Op::StackEdgeValues => vec![Matrix; ins.len().max(1)],
            _ => Vec::new(),
        };
        let (want, kind, (rows, cols), diagonal): (&[ValueKind], _, _, _) = match self {
            Op::InputGraph => (&[], Matrix, (Some(Graph), Some(Graph)), true),
            Op::InputFrontiers => (&[], Nodes, (None, Some(Frontier)), true),
            Op::InputDense(_) => (&[], Dense, (None, None), true),
            Op::InputVector(_) => (&[], Vector, (None, None), true),
            Op::InputNodes(_) => (&[], Nodes, (None, None), true),
            // The precompute program runs as one group, whose block is the
            // graph's `N` rows, and every group reads its one value whole.
            Op::Precomputed { slot } => {
                let f = slots.get(*slot);
                let f = f.ok_or_else(|| format!("no facts for precomputed slot {slot}"))?;
                let shared = |s: Option<Space>| s.map(|s| if s == Block { Graph } else { s });
                (&[], f.kind, (shared(f.rows), shared(f.cols)), true)
            }
            Op::SliceCols | Op::FusedExtractSelect { .. } => {
                (&[Matrix, Nodes], Matrix, extract, keyed)
            }
            Op::FusedExtractCollective { .. } => (&[Matrix, Nodes, Vector], Matrix, extract, keyed),
            Op::FusedExtractReduce { .. } => (&[Matrix, Nodes], Vector, (lifted, None), keyed),
            // The graph's columns, shared by every group; a subgraph whose
            // edges cross groups.
            Op::SliceRows => (&[Matrix, Nodes], Matrix, (b.cols, a.cols), false),
            Op::InduceSubgraph => (&[Matrix, Nodes], Matrix, (b.cols, b.cols), false),
            Op::ScalarOp(..) | Op::UnaryOp(..) | Op::Convert(..) => (&[Matrix], Matrix, same, true),
            Op::Broadcast(..) => (&[Matrix, Vector], Matrix, same, true),
            Op::SparseElt(..) => (&[Matrix, Matrix], Matrix, same, true),
            Op::Sddmm => (&[Matrix, Dense, Dense], Matrix, same, true),
            Op::EdgeValuesFromDense { .. } => (&[Matrix, Dense], Matrix, same, true),
            Op::Node2VecBias { .. } => (&[Matrix, Nodes, Matrix], Matrix, same, true),
            Op::FusedEdgeMap { .. } => (&variadic, Matrix, same, true),
            // Block rows stay block IDs through a row-ID table; a positional
            // side does not survive compaction.
            Op::CompactRows => (&[Matrix], Matrix, (block_rows, a.cols), true),
            // Each column draws from its own group's stream.
            Op::IndividualSample { .. } => {
                let want = &[Matrix, Matrix][..ins.len().clamp(1, 2)];
                (want, Matrix, same, a.cols == Some(Frontier))
            }
            Op::FusedBiasSelect { .. } => (&variadic, Matrix, same, a.cols == Some(Frontier)),
            // Each group selects among its own block of rows.
            Op::CollectiveSample { .. } => {
                let want = &[Matrix, Vector][..ins.len().clamp(1, 2)];
                (want, Matrix, same, block_rows.is_some())
            }
            Op::Reduce(_, axis) => (&[Matrix], Vector, along(axis), true),
            Op::FusedEdgeMapReduce { axis, .. } => (&variadic, Vector, along(axis), true),
            Op::Spmm => (&[Matrix, Dense], Dense, (a.rows, b.cols), true),
            Op::SpmmT => (&[Matrix, Dense], Dense, (a.cols, b.cols), unowned(a)),
            // `A @ B` sums over `B`'s rows; `A @ B.T` keeps them apart.
            Op::Gemm => (&[Dense, Dense], Dense, (a.rows, b.cols), unowned(b)),
            Op::GemmT => (&[Dense, Dense], Dense, (a.rows, b.rows), true),
            Op::DenseUnary(_) | Op::DenseSoftmaxRows => (&[Dense], Dense, same, true),
            Op::DenseSoftmaxFlat => (&[Dense], Dense, same, unowned(a)),
            Op::DenseColumn { .. } => (&[Dense], Vector, (a.rows, None), true),
            Op::DenseGatherRows => (&[Dense, Nodes], Dense, (b.cols, a.cols), true),
            Op::StackEdgeValues => (&variadic, Dense, (None, None), true),
            Op::VectorOp(_) => {
                let sides = (join(a.rows, b.rows), join(a.cols, b.cols));
                (&[Vector, Vector], Vector, sides, true)
            }
            Op::VectorScalar(..) => (&[Vector], Vector, same, true),
            Op::VectorNormalize => (&[Vector], Vector, same, unowned(a)),
            Op::VectorSum => (&[Vector], Scalar, (None, None), unowned(a)),
            Op::GatherVector => (&[Vector, Nodes], Vector, (None, b.cols), true),
            Op::GatherRowBias => {
                let want = &[Vector, Matrix, Matrix][..ins.len().clamp(2, 3)];
                (want, Vector, (b.rows, None), true)
            }
            Op::AlignRowVector => (&[Vector, Matrix], Vector, (b.rows, None), true),
            Op::RowNodes | Op::AllRowIds => (&[Matrix], Nodes, (a.rows, None), true),
            // Distinct column IDs merge groups that share a frontier.
            Op::ColNodes => (&[Matrix], Nodes, (None, None), a.cols != Some(Frontier)),
            // One ID per walker: not the frontier list, and not claimed as
            // a row set (a dead-end walker keeps its own node).
            Op::NextWalkFrontier => (&[Matrix], Nodes, (None, None), true),
        };
        if ins.len() != want.len() {
            return Err(format!("expected {} inputs, got {}", want.len(), ins.len()));
        }
        if let Some(i) = (ins.iter().zip(want)).position(|(f, &w)| f.kind != w) {
            return Err(format!(
                "input {i}: expected {:?}, got {:?}",
                want[i], ins[i].kind
            ));
        }
        let varies = match self {
            Op::InputGraph => Varies::Graph,
            // Checked present by the kind rule above.
            Op::Precomputed { slot } => slots[*slot].varies,
            Op::InputDense(_) | Op::InputVector(_) | Op::InputNodes(_) => Varies::Binding,
            Op::InputFrontiers => Varies::Batch,
            op if op.is_random() => Varies::Batch,
            _ => ins.iter().map(|f| f.varies).max().unwrap_or(Varies::Graph),
        };
        let resident = matches!(self, Op::InputGraph | Op::Precomputed { .. });
        let uses = 0;
        Ok(Facts {
            kind,
            rows,
            cols,
            varies,
            resident,
            diagonal,
            uses,
        })
    }

    /// True for operators whose output depends on an RNG draw.
    pub fn is_random(&self) -> bool {
        matches!(
            self,
            Op::IndividualSample { .. }
                | Op::CollectiveSample { .. }
                | Op::FusedExtractSelect { .. }
                | Op::FusedBiasSelect { .. }
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
            Op::IndividualSample { k } => format!("individual_sample(k={k})"),
            Op::CollectiveSample { k } => format!("collective_sample(k={k})"),
            Op::Node2VecBias { p, q } => format!("node2vec_bias(p={p}, q={q})"),
            Op::RowNodes => "row_nodes".into(),
            Op::ColNodes => "col_nodes".into(),
            Op::AllRowIds => "all_row_ids".into(),
            Op::NextWalkFrontier => "next_walk_frontier".into(),
            Op::CompactRows => "compact_rows".into(),
            Op::Convert(f) => format!("convert[{f}]"),
            Op::FusedExtractSelect { k } => format!("fused_extract_select(k={k})"),
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
            Op::FusedBiasSelect { k, bias } => {
                format!("fused_bias_select(k={k}, {} channels)", bias.channels.len())
            }
            Op::Precomputed { slot } => format!("precomputed({slot})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(Op::IndividualSample { k: 5 }.is_random());
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
