//! The matrix-centric program builder — the user-facing API.
//!
//! A sampling layer is written by calling matrix operations on lightweight
//! handles; each call records one node into the underlying data-flow
//! program (the Rust analogue of the paper's `torch.fx` tracing). The
//! handles mirror the Pythonic operators of paper Table 4, so a layer
//! reads close to the paper's Figure 3:
//!
//! ```
//! use gsampler_core::builder::LayerBuilder;
//!
//! // GraphSAGE, one layer (paper Fig. 3a):
//! let b = LayerBuilder::new();
//! let a = b.graph();
//! let frontiers = b.frontiers();
//! let sub_a = a.slice_cols(&frontiers);            // A[:, frontiers]
//! let sample_a = sub_a.individual_sample(8, None); // uniform fanout 8
//! let next = sample_a.row_nodes();                 // sample_A.row()
//! b.output(&sample_a);
//! b.output(&next);
//! let layer = b.build();
//! assert!(layer.program.validate().is_ok());
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use gsampler_ir::{Op, OpId, Program};
use gsampler_matrix::eltwise::UnaryOp;
use gsampler_matrix::{Axis, EltOp, ReduceOp};

/// A single sampling layer: the program plus the output conventions the
/// multi-layer driver needs.
#[derive(Debug, Clone)]
pub struct Layer {
    /// The recorded program.
    pub program: Program,
    /// Which program output (by position) yields the next layer's
    /// frontiers; `None` for the last layer of an algorithm.
    pub next_frontier_output: Option<usize>,
}

type Shared = Rc<RefCell<Program>>;

/// Records one sampling layer as a data-flow program.
#[derive(Debug, Clone, Default)]
pub struct LayerBuilder {
    program: Shared,
    next_frontier_output: Rc<RefCell<Option<usize>>>,
}

macro_rules! handle {
    ($name:ident) => {
        /// A builder handle (records operations; see [`LayerBuilder`]).
        #[derive(Debug, Clone)]
        pub struct $name {
            // Kept even by handle kinds that currently have no recording
            // methods of their own, so every handle can grow them.
            #[allow(dead_code)]
            program: Shared,
            id: OpId,
        }

        impl $name {
            /// The underlying program node ID.
            pub fn id(&self) -> OpId {
                self.id
            }
        }
    };
}

handle!(Mat);
handle!(Vect);
handle!(Dns);
handle!(Nodes);
handle!(Scal);

impl LayerBuilder {
    /// Start an empty layer.
    pub fn new() -> LayerBuilder {
        LayerBuilder::default()
    }

    fn add(&self, op: Op, inputs: Vec<OpId>) -> OpId {
        self.program.borrow_mut().add(op, inputs)
    }

    /// The base graph adjacency matrix `A`.
    pub fn graph(&self) -> Mat {
        Mat {
            program: self.program.clone(),
            id: self.add(Op::InputGraph, vec![]),
        }
    }

    /// The frontier node IDs of this layer.
    pub fn frontiers(&self) -> Nodes {
        Nodes {
            program: self.program.clone(),
            id: self.add(Op::InputFrontiers, vec![]),
        }
    }

    /// A named dense input (features, model weights), bound per batch.
    pub fn dense_input(&self, name: impl Into<String>) -> Dns {
        Dns {
            program: self.program.clone(),
            id: self.add(Op::InputDense(name.into()), vec![]),
        }
    }

    /// A named vector input, bound per batch.
    pub fn vector_input(&self, name: impl Into<String>) -> Vect {
        Vect {
            program: self.program.clone(),
            id: self.add(Op::InputVector(name.into()), vec![]),
        }
    }

    /// A named node-list input, bound per batch (e.g. a random walk's
    /// previous frontier for Node2Vec).
    pub fn nodes_input(&self, name: impl Into<String>) -> Nodes {
        Nodes {
            program: self.program.clone(),
            id: self.add(Op::InputNodes(name.into()), vec![]),
        }
    }

    /// Mark any handle's value as a program output (returned per batch).
    pub fn output(&self, handle: &impl HasId) -> usize {
        let mut p = self.program.borrow_mut();
        p.mark_output(handle.node_id());
        p.outputs().len() - 1
    }

    /// Mark a node-list output as the next layer's frontiers.
    pub fn output_next_frontiers(&self, nodes: &Nodes) {
        let pos = self.output(nodes);
        *self.next_frontier_output.borrow_mut() = Some(pos);
    }

    /// Finish recording.
    pub fn build(self) -> Layer {
        let program = self.program.borrow().clone();
        Layer {
            program,
            next_frontier_output: *self.next_frontier_output.borrow(),
        }
    }
}

/// Anything that wraps a program node.
pub trait HasId {
    /// The wrapped node ID.
    fn node_id(&self) -> OpId;
}

macro_rules! has_id {
    ($($t:ty),*) => {
        $(impl HasId for $t {
            fn node_id(&self) -> OpId {
                self.id
            }
        })*
    };
}
has_id!(Mat, Vect, Dns, Nodes, Scal);

impl Mat {
    fn add(&self, op: Op, inputs: Vec<OpId>) -> OpId {
        self.program.borrow_mut().add(op, inputs)
    }

    fn mat(&self, id: OpId) -> Mat {
        Mat {
            program: self.program.clone(),
            id,
        }
    }

    /// `A[:, frontiers]` — extract the in-neighbour sub-matrix.
    pub fn slice_cols(&self, f: &Nodes) -> Mat {
        let id = self.add(Op::SliceCols, vec![self.id, f.id]);
        self.mat(id)
    }

    /// `A[frontiers, :]` — extract the out-neighbour sub-matrix.
    pub fn slice_rows(&self, f: &Nodes) -> Mat {
        let id = self.add(Op::SliceRows, vec![self.id, f.id]);
        self.mat(id)
    }

    /// Induce the subgraph on a node set (`A[nodes, :][:, nodes]`).
    pub fn induce(&self, nodes: &Nodes) -> Mat {
        let id = self.add(Op::InduceSubgraph, vec![self.id, nodes.id]);
        self.mat(id)
    }

    /// `A ** s` — element-wise power on edge values.
    pub fn pow(&self, s: f32) -> Mat {
        let id = self.add(Op::ScalarOp(EltOp::Pow, s), vec![self.id]);
        self.mat(id)
    }

    /// `A * s`, `A + s`, `A - s`, `A / s` — scalar edge-value arithmetic.
    pub fn scalar(&self, op: EltOp, s: f32) -> Mat {
        let id = self.add(Op::ScalarOp(op, s), vec![self.id]);
        self.mat(id)
    }

    /// Apply a unary function to every edge value.
    pub fn unary(&self, op: UnaryOp) -> Mat {
        let id = self.add(Op::UnaryOp(op), vec![self.id]);
        self.mat(id)
    }

    /// `relu(A)` on edge values.
    pub fn relu(&self) -> Mat {
        self.unary(UnaryOp::Relu)
    }

    /// `A.<op>(v, axis)` — broadcast a vector over edges.
    pub fn broadcast(&self, v: &Vect, op: EltOp, axis: Axis) -> Mat {
        let id = self.add(Op::Broadcast(op, axis), vec![self.id, v.id]);
        self.mat(id)
    }

    /// `A.div(v, axis)` — the common normalization broadcast.
    pub fn div(&self, v: &Vect, axis: Axis) -> Mat {
        self.broadcast(v, EltOp::Div, axis)
    }

    /// `A <op> B` for a pattern-identical sparse matrix.
    pub fn eltwise(&self, rhs: &Mat, op: EltOp) -> Mat {
        let id = self.add(Op::SparseElt(op), vec![self.id, rhs.id]);
        self.mat(id)
    }

    /// Per-edge dot products `B.row(r) · C.row(c)` on this pattern (SDDMM).
    pub fn sddmm(&self, b: &Dns, c: &Dns) -> Mat {
        let id = self.add(Op::Sddmm, vec![self.id, b.id, c.id]);
        self.mat(id)
    }

    /// Replace edge values with column `col` of an `nnz × k` dense matrix.
    pub fn with_edge_values(&self, d: &Dns, col: usize) -> Mat {
        let id = self.add(Op::EdgeValuesFromDense { col }, vec![self.id, d.id]);
        self.mat(id)
    }

    /// `A.sum(axis)` — reduce edge values onto one axis.
    pub fn sum(&self, axis: Axis) -> Vect {
        let id = self.add(Op::Reduce(ReduceOp::Sum, axis), vec![self.id]);
        Vect {
            program: self.program.clone(),
            id,
        }
    }

    /// Reduce with an arbitrary operator.
    pub fn reduce(&self, op: ReduceOp, axis: Axis) -> Vect {
        let id = self.add(Op::Reduce(op, axis), vec![self.id]);
        Vect {
            program: self.program.clone(),
            id,
        }
    }

    /// Node degrees along an axis (edge count, ignoring weights).
    pub fn degrees(&self, axis: Axis) -> Vect {
        self.reduce(ReduceOp::Count, axis)
    }

    /// `A @ D` — SpMM.
    pub fn spmm(&self, d: &Dns) -> Dns {
        let id = self.add(Op::Spmm, vec![self.id, d.id]);
        Dns {
            program: self.program.clone(),
            id,
        }
    }

    /// `A.T @ D` — transposed SpMM.
    pub fn spmm_t(&self, d: &Dns) -> Dns {
        let id = self.add(Op::SpmmT, vec![self.id, d.id]);
        Dns {
            program: self.program.clone(),
            id,
        }
    }

    /// Node-wise select: each frontier keeps up to `k` neighbours,
    /// uniformly or weighted by a pattern-identical bias matrix.
    pub fn individual_sample(&self, k: usize, probs: Option<&Mat>) -> Mat {
        let mut inputs = vec![self.id];
        if let Some(p) = probs {
            inputs.push(p.id);
        }
        let id = self.add(Op::IndividualSample { k }, inputs);
        self.mat(id)
    }

    /// Layer-wise select: keep `k` row nodes across the whole layer,
    /// weighted by per-row bias (default: row degree).
    pub fn collective_sample(&self, k: usize, node_probs: Option<&Vect>) -> Mat {
        let mut inputs = vec![self.id];
        if let Some(p) = node_probs {
            inputs.push(p.id);
        }
        let id = self.add(Op::CollectiveSample { k }, inputs);
        self.mat(id)
    }

    /// Node2Vec second-order edge bias against the previous frontier.
    pub fn node2vec_bias(&self, prev: &Nodes, graph: &Mat, p: f32, q: f32) -> Mat {
        let id = self.add(Op::Node2VecBias { p, q }, vec![self.id, prev.id, graph.id]);
        self.mat(id)
    }

    /// `A.row()` — distinct global row IDs with at least one edge.
    pub fn row_nodes(&self) -> Nodes {
        let id = self.add(Op::RowNodes, vec![self.id]);
        Nodes {
            program: self.program.clone(),
            id,
        }
    }

    /// `A.column()` — distinct global column IDs with at least one edge.
    pub fn col_nodes(&self) -> Nodes {
        let id = self.add(Op::ColNodes, vec![self.id]);
        Nodes {
            program: self.program.clone(),
            id,
        }
    }

    /// All global row IDs of the matrix's current row space.
    pub fn all_row_ids(&self) -> Nodes {
        let id = self.add(Op::AllRowIds, vec![self.id]);
        Nodes {
            program: self.program.clone(),
            id,
        }
    }

    /// Per-walker next frontier after a fanout-1 sample: each column's
    /// sampled row, or the column's own node at dead ends (random walks).
    pub fn next_walk_frontier(&self) -> Nodes {
        let id = self.add(Op::NextWalkFrontier, vec![self.id]);
        Nodes {
            program: self.program.clone(),
            id,
        }
    }

    /// Drop isolated rows (explicit compaction).
    pub fn compact_rows(&self) -> Mat {
        let id = self.add(Op::CompactRows, vec![self.id]);
        self.mat(id)
    }

    /// Stack the edge values of pattern-identical matrices into an
    /// `nnz × k` dense matrix (PASS' attention stacking).
    pub fn stack(mats: &[&Mat]) -> Dns {
        assert!(!mats.is_empty(), "stack needs at least one matrix");
        let program = mats[0].program.clone();
        let inputs: Vec<OpId> = mats.iter().map(|m| m.id).collect();
        let id = program.borrow_mut().add(Op::StackEdgeValues, inputs);
        Dns { program, id }
    }
}

impl Vect {
    fn vect(&self, id: OpId) -> Vect {
        Vect {
            program: self.program.clone(),
            id,
        }
    }

    /// Element-wise binary with another vector.
    pub fn op(&self, rhs: &Vect, op: EltOp) -> Vect {
        let id = self
            .program
            .borrow_mut()
            .add(Op::VectorOp(op), vec![self.id, rhs.id]);
        self.vect(id)
    }

    /// `v <op> s` scalar arithmetic.
    pub fn scalar(&self, op: EltOp, s: f32) -> Vect {
        let id = self
            .program
            .borrow_mut()
            .add(Op::VectorScalar(op, s), vec![self.id]);
        self.vect(id)
    }

    /// `v / v.sum()` — normalize into a distribution.
    pub fn normalize(&self) -> Vect {
        let id = self
            .program
            .borrow_mut()
            .add(Op::VectorNormalize, vec![self.id]);
        self.vect(id)
    }

    /// Sum of entries.
    pub fn sum(&self) -> Scal {
        let id = self.program.borrow_mut().add(Op::VectorSum, vec![self.id]);
        Scal {
            program: self.program.clone(),
            id,
        }
    }

    /// Gather entries by explicit local indices.
    pub fn gather(&self, idx: &Nodes) -> Vect {
        let id = self
            .program
            .borrow_mut()
            .add(Op::GatherVector, vec![self.id, idx.id]);
        self.vect(id)
    }

    /// Align this node-indexed vector to a matrix's current row space
    /// (`out[r] = v[global_row(r)]`), so full-graph score vectors combine
    /// with per-row aggregates of compacted sub-matrices.
    pub fn align_rows(&self, m: &Mat) -> Vect {
        let id = self
            .program
            .borrow_mut()
            .add(Op::AlignRowVector, vec![self.id, m.id]);
        self.vect(id)
    }

    /// `row_probs[sample_A.row()]`: for every row of `sampled`, the entry
    /// of this vector at that row's position in `source`'s row space
    /// (compaction-safe bias lookup, paper Fig. 3b line 5).
    pub fn gather_row_bias(&self, sampled: &Mat, source: &Mat) -> Vect {
        let id = self
            .program
            .borrow_mut()
            .add(Op::GatherRowBias, vec![self.id, sampled.id, source.id]);
        self.vect(id)
    }
}

impl Dns {
    fn dns(&self, id: OpId) -> Dns {
        Dns {
            program: self.program.clone(),
            id,
        }
    }

    /// `D1 @ D2` — dense GEMM.
    pub fn matmul(&self, rhs: &Dns) -> Dns {
        let id = self
            .program
            .borrow_mut()
            .add(Op::Gemm, vec![self.id, rhs.id]);
        self.dns(id)
    }

    /// `D1 @ D2.T`.
    pub fn matmul_t(&self, rhs: &Dns) -> Dns {
        let id = self
            .program
            .borrow_mut()
            .add(Op::GemmT, vec![self.id, rhs.id]);
        self.dns(id)
    }

    /// Element-wise ReLU.
    pub fn relu(&self) -> Dns {
        let id = self
            .program
            .borrow_mut()
            .add(Op::DenseUnary(UnaryOp::Relu), vec![self.id]);
        self.dns(id)
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&self) -> Dns {
        let id = self
            .program
            .borrow_mut()
            .add(Op::DenseSoftmaxRows, vec![self.id]);
        self.dns(id)
    }

    /// Whole-buffer softmax (PASS' `W3.softmax()`).
    pub fn softmax(&self) -> Dns {
        let id = self
            .program
            .borrow_mut()
            .add(Op::DenseSoftmaxFlat, vec![self.id]);
        self.dns(id)
    }

    /// Gather rows by node IDs (`features[frontiers]`).
    pub fn gather_rows(&self, idx: &Nodes) -> Dns {
        let id = self
            .program
            .borrow_mut()
            .add(Op::DenseGatherRows, vec![self.id, idx.id]);
        self.dns(id)
    }

    /// Extract one column as a vector (per-node scores from a dense
    /// model output, e.g. AS-GCN's learned bias).
    pub fn column(&self, col: usize) -> Vect {
        let id = self
            .program
            .borrow_mut()
            .add(Op::DenseColumn { col }, vec![self.id]);
        Vect {
            program: self.program.clone(),
            id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graphsage_layer_records_expected_program() {
        let b = LayerBuilder::new();
        let a = b.graph();
        let f = b.frontiers();
        let sub = a.slice_cols(&f);
        let samp = sub.individual_sample(8, None);
        let next = samp.row_nodes();
        b.output(&samp);
        b.output_next_frontiers(&next);
        let layer = b.build();
        assert_eq!(layer.program.len(), 5);
        assert_eq!(layer.next_frontier_output, Some(1));
        layer.program.validate().unwrap();
    }

    #[test]
    fn ladies_layer_builds_and_validates() {
        let b = LayerBuilder::new();
        let a = b.graph();
        let f = b.frontiers();
        let sub = a.slice_cols(&f);
        let row_probs = sub.pow(2.0).sum(Axis::Row);
        let samp = sub.collective_sample(64, Some(&row_probs));
        let sel = row_probs.gather_row_bias(&samp, &sub);
        let norm = samp.div(&sel, Axis::Row);
        let colsum = norm.sum(Axis::Col);
        let out = norm.div(&colsum, Axis::Col);
        let next = out.row_nodes();
        b.output(&out);
        b.output_next_frontiers(&next);
        let layer = b.build();
        layer.program.validate().unwrap();
        assert_eq!(layer.program.outputs().len(), 2);
    }

    #[test]
    fn fig2_matrix_normalize_is_two_operations() {
        // Paper Fig. 2 (right): h = (A ** 2).sum(axis=1); return h / h.sum()
        let b = LayerBuilder::new();
        let a = b.graph();
        let h = a.pow(2.0).sum(Axis::Row);
        let normalized = h.normalize();
        b.output(&normalized);
        let layer = b.build();
        layer.program.validate().unwrap();
        // graph + pow + sum + normalize = 4 nodes; the user wrote 2 lines.
        assert_eq!(layer.program.len(), 4);
    }

    #[test]
    fn dense_chain_for_pass() {
        let b = LayerBuilder::new();
        let a = b.graph();
        let f = b.frontiers();
        let sub = a.slice_cols(&f);
        let feats = b.dense_input("features");
        let w1 = b.dense_input("W1");
        let bb = feats.matmul(&w1);
        let cc = feats.gather_rows(&f).matmul(&w1);
        let att = sub.sddmm(&bb, &cc);
        let stacked = Mat::stack(&[&att, &sub]);
        let w3 = b.dense_input("W3");
        let bias = stacked.matmul(&w3.softmax()).relu();
        let biased = sub.with_edge_values(&bias, 0);
        let samp = sub.individual_sample(5, Some(&biased));
        b.output(&samp);
        let layer = b.build();
        layer.program.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one matrix")]
    fn empty_stack_panics() {
        let _ = Mat::stack(&[]);
    }
}
