//! One fact table per program: per node, its value kind, the index spaces
//! of its sides, what it varies with, graph residency, and whether
//! super-batching keeps each frontier group's share to itself. [`facts`] is
//! one forward pass over the per-operator rules, [`Op::transfer`]; kind
//! checking, pre-processing's invariance, fusion's and sinking's frontier
//! keying, layout's row chains, pricing and the executor all read it.
//!
//! **Super-batching as a type rule** (paper §4.4). `S` groups run as one
//! execution over their concatenated frontiers; an extract lifts a
//! whole-graph side into block space, group `b` owning rows `b·N..(b+1)·N`.
//! A node is `diagonal` when, given diagonal inputs, its value splits back
//! into exactly the per-group values. A program is [`batchable`] when every
//! node is, and [`scatter_exact`] when, besides, every output is a matrix
//! or node list in block rows, so un-blocking attributes each row and ID by
//! construction.
//!
//! [`Op::transfer`]: crate::Op::transfer

use crate::program::Program;

/// Kind of value a node produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValueKind {
    /// A sparse matrix with ID tracking.
    Matrix,
    /// A dense matrix.
    Dense,
    /// A dense `f32` vector.
    Vector,
    /// A list of node IDs.
    Nodes,
    /// A scalar (the default: a value with no sides).
    #[default]
    Scalar,
}

/// The index space of one side of a value. A vector has the side it is
/// indexed by (`rows` for one entry per row, `cols` for one per column); a
/// node list has `rows` for the space its IDs live in when they are a row
/// set and `cols` for the space of its positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Space {
    /// All `N` nodes of the base graph, by ID. The extract kernels lift a
    /// matrix with this row space (it has the graph's `N` rows) into
    /// [`Space::Block`] under super-batching.
    Graph,
    /// The layer's frontier list, in order: the list itself, or a side with
    /// one entry per frontier. Under super-batching it is the groups'
    /// concatenated frontiers, group `b` owning its column-offset range.
    Frontier,
    /// Block IDs: group `b`'s rows are `b·N..(b+1)·N` (all `S·N` of them,
    /// or a row-ID table of such IDs, ascending by group).
    Block,
}

/// What a value varies with, least to most.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Varies {
    /// Only the graph: the same in every launch.
    #[default]
    Graph,
    /// The bound inputs too (weights, feature tables, bias vectors): the
    /// same in every launch that binds the same values. Pre-processing
    /// hoists both this and [`Varies::Graph`].
    Binding,
    /// The batch: its frontiers or a random draw.
    Batch,
}

/// Everything the compiler and executor know about one node's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Facts {
    /// The kind of value.
    pub kind: ValueKind,
    /// Row space (see [`Space`]; `None`: no side, or none the table tracks).
    pub rows: Option<Space>,
    /// Column space.
    pub cols: Option<Space>,
    /// What the value varies with.
    pub varies: Varies,
    /// Kept across launches, like the graph: the graph input itself or a
    /// precomputed slot (a hoisted value). The executor neither allocates
    /// nor frees it per launch.
    pub resident: bool,
    /// Keeps the block diagonal: evaluated over several frontier groups at
    /// once, each group's share equals its solo value.
    pub diagonal: bool,
    /// Reads of the value: one per consuming input position, plus one if
    /// it is a program output. The executor frees it after the last.
    pub uses: usize,
}

impl Facts {
    /// True if a kernel reading this value reads it where the base graph
    /// lives: the graph, or a resident value derived from the graph alone.
    /// A slot hoisted from a bound input was computed on the device, so it
    /// is read there, and it is not the graph's adjacency.
    pub fn graph_resident(&self) -> bool {
        self.resident && self.varies == Varies::Graph
    }

    /// True for a matrix or node list in block rows: un-blocking splits it
    /// by type (a vector or dense value it splits by length, unproven).
    pub fn block_rows(&self) -> bool {
        matches!(self.kind, ValueKind::Matrix | ValueKind::Nodes) && self.rows == Some(Space::Block)
    }
}

/// The fact table of `program`: one [`Facts`] per node, in node order.
/// `slots[i]` is the facts of the precompute program's output `i`, the
/// value of `Precomputed { slot: i }`. Fails on the first ill-kinded node.
pub fn facts(program: &Program, slots: &[Facts]) -> Result<Vec<Facts>, String> {
    let mut table: Vec<Facts> = Vec::with_capacity(program.len());
    let mut ins: Vec<Facts> = Vec::new();
    for (id, node) in program.nodes().iter().enumerate() {
        ins.clear();
        ins.extend(node.inputs.iter().map(|&i| table[i]));
        let f = node.op.transfer(&ins, slots);
        table.push(f.map_err(|e| format!("node {id} ({}): {e}", node.op.name()))?);
        node.inputs.iter().for_each(|&i| table[i].uses += 1);
    }
    for &o in program.outputs() {
        table[o].uses += 1;
    }
    Ok(table)
}

/// True if a program with this fact table may sample several frontier
/// groups as one super-batch: every node keeps the block diagonal.
pub fn batchable(table: &[Facts]) -> bool {
    table.iter().all(|f| f.diagonal)
}

/// True if super-batched execution of `program` scatters back to per-group
/// results exactly: it is [`batchable`] and every output has
/// [`Facts::block_rows`]. Programs passing this may be packed across
/// independent callers (tenants); others run solo to stay bit-identical.
pub fn scatter_exact(program: &Program, table: &[Facts]) -> bool {
    batchable(table) && program.outputs().iter().all(|&o| table[o].block_rows())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;
    use gsampler_matrix::{Axis, EltOp, ReduceOp};

    /// GraphSAGE-like layer: `(program, slice, sample, next)`.
    fn sage(keyed_by: Op) -> (Program, usize, usize, usize) {
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let f = p.add(keyed_by, vec![]);
        let sub = p.add(Op::SliceCols, vec![g, f]);
        let k = 2;
        let samp = p.add(Op::IndividualSample { k }, vec![sub]);
        let next = p.add(Op::RowNodes, vec![samp]);
        p.mark_output(samp);
        p.mark_output(next);
        (p, sub, samp, next)
    }

    #[test]
    fn a_frontier_slice_lifts_graph_rows_into_block_space() {
        let (p, sub, samp, next) = sage(Op::InputFrontiers);
        let t = facts(&p, &[]).unwrap();
        assert_eq!(
            (t[0].rows, t[0].cols),
            (Some(Space::Graph), Some(Space::Graph))
        );
        assert!(t[0].resident && t[0].varies == Varies::Graph);
        for id in [sub, samp] {
            assert_eq!(t[id].rows, Some(Space::Block));
            assert_eq!(t[id].cols, Some(Space::Frontier));
            assert_eq!(t[id].varies, Varies::Batch);
        }
        assert_eq!(
            (t[next].kind, t[next].rows),
            (ValueKind::Nodes, Some(Space::Block))
        );
        // The slice feeds the sample; the sample, the row list and the output.
        assert_eq!((t[sub].uses, t[samp].uses, t[next].uses), (1, 2, 1));
        assert!(batchable(&t) && scatter_exact(&p, &t));
    }

    #[test]
    fn a_slice_by_a_bound_node_list_is_not_batchable() {
        let (p, sub, ..) = sage(Op::InputNodes("prev".into()));
        let t = facts(&p, &[]).unwrap();
        assert_eq!(t[sub].cols, None);
        assert_eq!(t[1].varies, Varies::Binding);
        assert!(!batchable(&t) && !scatter_exact(&p, &t));
    }

    #[test]
    fn slots_take_the_facts_of_the_precompute_outputs() {
        let mut pre = Program::new();
        let g = pre.add(Op::InputGraph, vec![]);
        let sq = pre.add(Op::ScalarOp(EltOp::Pow, 2.0), vec![g]);
        let deg = pre.add(Op::Reduce(ReduceOp::Count, Axis::Row), vec![g]);
        let w = pre.add(Op::InputDense("W".into()), vec![]);
        let soft = pre.add(Op::DenseSoftmaxFlat, vec![w]);
        pre.mark_output(sq);
        pre.mark_output(deg);
        pre.mark_output(soft);
        let pre_table = facts(&pre, &[]).unwrap();
        let slots = [pre_table[sq], pre_table[deg], pre_table[soft]];

        let mut p = Program::new();
        let m = p.add(Op::Precomputed { slot: 0 }, vec![]);
        let v = p.add(Op::Precomputed { slot: 1 }, vec![]);
        let d = p.add(Op::Precomputed { slot: 2 }, vec![]);
        let f = p.add(Op::InputFrontiers, vec![]);
        let sub = p.add(Op::SliceCols, vec![m, f]);
        let samp = p.add(Op::CollectiveSample { k: 4 }, vec![sub, v]);
        p.mark_output(samp);
        let t = facts(&p, &slots).unwrap();
        // A slot varies with what its precompute output varies with; every
        // slot is resident.
        assert_eq!((t[m].varies, t[v].varies), (Varies::Graph, Varies::Graph));
        assert_eq!(
            (t[d].kind, t[d].varies),
            (ValueKind::Dense, Varies::Binding)
        );
        assert!(t[d].resident && !t[d].graph_resident());
        assert!(t[m].graph_resident() && t[v].graph_resident());
        assert_eq!(
            (t[m].kind, t[m].rows),
            (ValueKind::Matrix, Some(Space::Graph))
        );
        assert_eq!(
            (t[v].kind, t[v].rows),
            (ValueKind::Vector, Some(Space::Graph))
        );
        assert!(t[m].resident && t[v].resident && !t[sub].resident);
        // The slot's `N` rows lift like the graph's.
        assert_eq!(t[sub].rows, Some(Space::Block));
        assert!(scatter_exact(&p, &t));
        // Without the precompute program's facts a slot is an error.
        assert!(facts(&p, &[]).unwrap_err().contains("slot 0"));
    }

    #[test]
    fn only_matrices_and_node_lists_scatter_by_type() {
        // A row sum over a compacted node-wise sample has block rows, but
        // un-blocking splits a vector by its length: not exact.
        let (mut p, _, samp, _) = sage(Op::InputFrontiers);
        let compact = p.add(Op::CompactRows, vec![samp]);
        let per_row = p.add(Op::Reduce(ReduceOp::Sum, Axis::Row), vec![compact]);
        p.mark_output(per_row);
        let t = facts(&p, &[]).unwrap();
        assert_eq!(t[per_row].rows, Some(Space::Block));
        assert!(t[compact].block_rows() && !t[per_row].block_rows());
        assert!(batchable(&t) && !scatter_exact(&p, &t));
    }

    #[test]
    fn folds_over_batch_values_mix_groups() {
        let (mut p, sub, ..) = sage(Op::InputFrontiers);
        let per_row = p.add(Op::Reduce(ReduceOp::Sum, Axis::Row), vec![sub]);
        assert!(batchable(&facts(&p, &[]).unwrap()));
        p.add(Op::VectorNormalize, vec![per_row]);
        assert!(!batchable(&facts(&p, &[]).unwrap()));
        // Folding the graph is the same for every group.
        let (mut q, ..) = sage(Op::InputFrontiers);
        let degrees = q.add(Op::Reduce(ReduceOp::Sum, Axis::Row), vec![0]);
        q.add(Op::VectorSum, vec![degrees]);
        assert!(batchable(&facts(&q, &[]).unwrap()));
    }
}
