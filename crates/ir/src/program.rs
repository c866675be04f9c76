//! Program representation: a DAG of operator nodes.

use crate::op::Op;

/// Index of a node within a [`Program`].
pub type OpId = usize;

/// One node of the program DAG: an operator plus its value dependencies.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The operator.
    pub op: Op,
    /// IDs of the nodes producing this node's inputs, in operator order.
    pub inputs: Vec<OpId>,
}

/// A sampling program: one ECSF layer recorded as a data-flow DAG.
///
/// Nodes are stored in insertion order, which is always a valid topological
/// order because an input must exist before it can be referenced. Passes
/// either rewrite operators in place (keeping IDs) or rebuild the program
/// through [`Program::compact`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    nodes: Vec<Node>,
    outputs: Vec<OpId>,
}

impl Program {
    /// Create an empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Append a node; its inputs must already exist.
    ///
    /// # Panics
    ///
    /// Panics if an input ID is out of range — that is a builder bug, not
    /// a runtime condition.
    pub fn add(&mut self, op: Op, inputs: Vec<OpId>) -> OpId {
        for &i in &inputs {
            assert!(i < self.nodes.len(), "input {i} does not exist yet");
        }
        self.nodes.push(Node { op, inputs });
        self.nodes.len() - 1
    }

    /// Mark a node as a program output (kept alive through DCE; its value
    /// is returned to the driver).
    pub fn mark_output(&mut self, id: OpId) {
        assert!(id < self.nodes.len(), "output {id} does not exist");
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
    }

    /// The program outputs, in marking order.
    pub fn outputs(&self) -> &[OpId] {
        &self.outputs
    }

    /// Borrow a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: OpId) -> &Node {
        &self.nodes[id]
    }

    /// All nodes in topological (insertion) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the program has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Replace a node's operator and inputs in place. Inputs must still
    /// reference strictly earlier nodes to preserve topological order.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or an input is not earlier than `id`.
    pub fn replace(&mut self, id: OpId, op: Op, inputs: Vec<OpId>) {
        for &i in &inputs {
            assert!(i < id, "replacement input {i} must precede node {id}");
        }
        self.nodes[id] = Node { op, inputs };
    }

    /// For each node, the list of nodes that consume its output.
    pub(crate) fn consumers(&self) -> Vec<Vec<OpId>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for (id, node) in self.nodes.iter().enumerate() {
            for &input in &node.inputs {
                out[input].push(id);
            }
        }
        out
    }

    /// IDs reachable (backwards) from the outputs — the live set.
    pub(crate) fn live_set(&self) -> Vec<bool> {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<OpId> = self.outputs.clone();
        while let Some(id) = stack.pop() {
            if live[id] {
                continue;
            }
            live[id] = true;
            stack.extend(self.nodes[id].inputs.iter().copied());
        }
        live
    }

    /// Rebuild the program keeping only nodes where `keep[id]` is true,
    /// remapping inputs. Returns the new program and, for each old ID, its
    /// new ID (or `None` if dropped).
    ///
    /// # Panics
    ///
    /// Panics if a kept node references a dropped node — the pass that
    /// computed `keep` is buggy.
    pub fn compact(&self, keep: &[bool]) -> (Program, Vec<Option<OpId>>) {
        assert_eq!(keep.len(), self.nodes.len());
        let mut mapping: Vec<Option<OpId>> = vec![None; self.nodes.len()];
        let mut out = Program::new();
        for (id, node) in self.nodes.iter().enumerate() {
            if !keep[id] {
                continue;
            }
            let inputs: Vec<OpId> = node
                .inputs
                .iter()
                .map(|&i| mapping[i].expect("kept node references dropped input"))
                .collect();
            let new_id = out.add(node.op.clone(), inputs);
            mapping[id] = Some(new_id);
        }
        for &o in &self.outputs {
            let new_id = mapping[o].expect("program output was dropped");
            out.mark_output(new_id);
        }
        (out, mapping)
    }

    /// Count nodes matching a predicate (test/diagnostic helper).
    pub fn count_ops(&self, pred: impl Fn(&Op) -> bool) -> usize {
        self.nodes.iter().filter(|n| pred(&n.op)).count()
    }

    /// Find the first node matching a predicate.
    pub fn find_op(&self, pred: impl Fn(&Op) -> bool) -> Option<OpId> {
        self.nodes.iter().position(|n| pred(&n.op))
    }

    /// Structural validation: arity and input kinds of every node, the
    /// kind rules of [`crate::facts()`]. A `Precomputed` slot has no facts
    /// without its precompute program, so a program reading one fails here.
    pub fn validate(&self) -> Result<(), String> {
        crate::facts(self, &[]).map(drop)
    }

    /// Graphviz DOT rendering of the data-flow graph (operators as nodes,
    /// value dependencies as edges; outputs double-circled) — the visual
    /// counterpart of the paper's Fig. 5 diagrams.
    pub fn to_dot(&self, title: &str) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "digraph \"{title}\" {{");
        let _ = writeln!(s, "  rankdir=TB; node [fontname=monospace];");
        for (id, node) in self.nodes.iter().enumerate() {
            let shape = if self.outputs.contains(&id) {
                "doublecircle"
            } else if node.op.is_input() {
                "box"
            } else if node.op.is_random() {
                "diamond"
            } else {
                "ellipse"
            };
            let label = node.op.name().replace('"', "'");
            let _ = writeln!(s, "  n{id} [label=\"%{id}: {label}\", shape={shape}];");
            for &input in &node.inputs {
                let _ = writeln!(s, "  n{input} -> n{id};");
            }
        }
        let _ = writeln!(s, "}}");
        s
    }

    /// A 64-bit FNV-1a digest of the program's `Debug` rendering, for
    /// reports that want a short label. Equal programs digest equal, but a
    /// digest decides nothing: "the same program" is [`identity`]'s call.
    pub fn fingerprint(&self) -> u64 {
        (format!("{self:?}").bytes()).fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// Human-readable listing (one node per line) for debugging and docs.
    pub fn display(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (id, node) in self.nodes.iter().enumerate() {
            let marker = if self.outputs.contains(&id) { "*" } else { " " };
            let _ = writeln!(
                s,
                "{marker}%{id:<3} = {:<40} {:?}",
                node.op.name(),
                node.inputs
            );
        }
        s
    }
}

/// The structural identity of a program, a node, or anything else planning
/// reads: its `Debug` rendering. Floats render in their shortest round-trip
/// form, so two renderings are equal exactly when every value in them is,
/// `0.0` and `-0.0` apart. `NaN` is the one value a rendering cannot pin
/// down (every payload prints alike, and none equals itself), so a
/// rendering that contains it has no identity: it never hits and never
/// shares. CSE, the plan database's key and cross-layer hoist sharing all
/// decide "the same" by this rule.
pub fn identity(value: &impl std::fmt::Debug) -> Option<String> {
    let text = format!("{value:?}");
    (!text.contains("NaN")).then_some(text)
}

/// Structural key for CSE: the node's [`identity`]. Random and input
/// operators never produce a key (two samples are never "the same value").
pub(crate) fn cse_key(node: &Node) -> Option<String> {
    if node.op.is_random() || node.op.is_input() {
        return None;
    }
    identity(node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsampler_matrix::{Axis, EltOp, ReduceOp};

    /// Build the LADIES layer program of paper Fig. 3(b).
    pub(crate) fn ladies_program(k: usize) -> Program {
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let f = p.add(Op::InputFrontiers, vec![]);
        let sub = p.add(Op::SliceCols, vec![g, f]);
        let sq = p.add(Op::ScalarOp(EltOp::Pow, 2.0), vec![sub]);
        let row_probs = p.add(Op::Reduce(ReduceOp::Sum, Axis::Row), vec![sq]);
        let samp = p.add(Op::CollectiveSample { k }, vec![sub, row_probs]);
        let sel_probs = p.add(Op::GatherRowBias, vec![row_probs, samp, sub]);
        let norm1 = p.add(Op::Broadcast(EltOp::Div, Axis::Row), vec![samp, sel_probs]);
        let colsum = p.add(Op::Reduce(ReduceOp::Sum, Axis::Col), vec![norm1]);
        let norm2 = p.add(Op::Broadcast(EltOp::Div, Axis::Col), vec![norm1, colsum]);
        let next = p.add(Op::RowNodes, vec![norm2]);
        p.mark_output(norm2);
        p.mark_output(next);
        p
    }

    #[test]
    fn build_and_validate_ladies() {
        let p = ladies_program(512);
        assert_eq!(p.len(), 11);
        p.validate().unwrap();
        assert_eq!(p.outputs().len(), 2);
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn forward_reference_panics() {
        let mut p = Program::new();
        p.add(Op::RowNodes, vec![5]);
    }

    #[test]
    fn kind_mismatch_detected() {
        let mut p = Program::new();
        let f = p.add(Op::InputFrontiers, vec![]);
        // RowNodes expects a matrix, frontiers is a node list.
        p.add(Op::RowNodes, vec![f]);
        assert!(p.validate().is_err());
    }

    #[test]
    fn live_set_and_compact() {
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let f = p.add(Op::InputFrontiers, vec![]);
        let sub = p.add(Op::SliceCols, vec![g, f]);
        let _dead = p.add(Op::ScalarOp(EltOp::Mul, 3.0), vec![sub]);
        let next = p.add(Op::RowNodes, vec![sub]);
        p.mark_output(next);
        let live = p.live_set();
        assert_eq!(live, vec![true, true, true, false, true]);
        let (q, mapping) = p.compact(&live);
        assert_eq!(q.len(), 4);
        assert_eq!(mapping[4], Some(3));
        assert_eq!(mapping[3], None);
        q.validate().unwrap();
        assert_eq!(q.outputs(), &[3]);
    }

    #[test]
    fn consumers_computed() {
        let p = ladies_program(64);
        let consumers = p.consumers();
        // The extracted sub-matrix (node 2) feeds the square, the
        // collective sample, and the bias gather.
        assert_eq!(consumers[2].len(), 3);
    }

    #[test]
    fn cse_key_skips_random_ops() {
        let p = ladies_program(64);
        let samp_id = p
            .find_op(|op| matches!(op, Op::CollectiveSample { .. }))
            .unwrap();
        assert!(cse_key(p.node(samp_id)).is_none());
        let sq_id = p
            .find_op(|op| matches!(op, Op::ScalarOp(EltOp::Pow, _)))
            .unwrap();
        assert!(cse_key(p.node(sq_id)).is_some());
    }

    #[test]
    fn display_lists_all_nodes() {
        let p = ladies_program(8);
        let s = p.display();
        assert_eq!(s.lines().count(), p.len());
        assert!(s.contains("collective_sample"));
        assert!(s.contains("*")); // outputs marked
    }

    #[test]
    fn dot_export_contains_all_nodes_and_edges() {
        let p = ladies_program(8);
        let dot = p.to_dot("ladies");
        assert!(dot.starts_with("digraph"));
        for id in 0..p.len() {
            assert!(dot.contains(&format!("n{id} [")), "node {id} missing");
        }
        // The collective sample is rendered as a diamond (random op).
        assert!(dot.contains("collective_sample(k=8)\", shape=diamond"));
        // Outputs are double-circled.
        assert!(dot.contains("doublecircle"));
        let edge_count = dot.matches(" -> ").count();
        let expected: usize = p.nodes().iter().map(|n| n.inputs.len()).sum();
        assert_eq!(edge_count, expected);
    }

    #[test]
    fn replace_in_place() {
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let id = p.add(Op::ScalarOp(EltOp::Mul, 1.0), vec![g]);
        p.replace(id, Op::ScalarOp(EltOp::Pow, 2.0), vec![g]);
        assert_eq!(p.node(id).op, Op::ScalarOp(EltOp::Pow, 2.0));
    }
}
