//! Pre-processing: hoist sampling-invariant computation out of the
//! per-batch program (paper §4.2, "Pre-processing").
//!
//! **Hoisting**: every batch-invariant node that feeds batch-dependent
//! consumers (or is an output) is moved into a separate *precompute
//! program*, evaluated once at compile time; the main program reads the
//! cached value through an [`Op::Precomputed`] slot. (FastGCN: node
//! degrees; SEAL: PPR scores.) The paper's other case — sinking an edge-map
//! below the extraction so LADIES' `A ** 2` can be hoisted — is not
//! implemented: it pays only on unweighted graphs (DESIGN §5).

use crate::op::Op;
use crate::program::{OpId, Program};

/// Result of the pre-processing pass.
#[derive(Debug, Clone)]
pub struct PreprocessResult {
    /// The rewritten per-batch program.
    pub program: Program,
    /// The batch-invariant subprogram; output `i` fills `Precomputed`
    /// slot `i` of `program`.
    pub precompute: Program,
    /// Number of nodes hoisted into the precompute program.
    pub hoisted: usize,
}

/// True if this operator's value can change between batches even with
/// identical inputs (sampling randomness) or *is* a per-batch input.
fn dynamic_source(op: &Op) -> bool {
    op.is_random()
        || matches!(
            op,
            Op::InputFrontiers | Op::InputDense(..) | Op::InputVector(..)
        )
}

/// Compute, for each node, whether its value is batch-invariant.
fn static_set(program: &Program) -> Vec<bool> {
    let mut s = vec![false; program.len()];
    for (id, node) in program.nodes().iter().enumerate() {
        if dynamic_source(&node.op) {
            continue;
        }
        s[id] = node.inputs.iter().all(|&i| s[i]);
    }
    s
}

/// Run the pass: move batch-invariant nodes with batch-dependent consumers
/// into the precompute program, replacing them with `Precomputed` slots.
/// Hoisting never adds per-batch work (it caches values that needed no
/// extraction, like FastGCN's degrees or SEAL's PPR scores).
pub fn run(program: &Program) -> PreprocessResult {
    let stat = static_set(program);
    let consumers = program.consumers();
    let is_output: Vec<bool> = {
        let mut v = vec![false; program.len()];
        for &o in program.outputs() {
            v[o] = true;
        }
        v
    };

    // Hoist boundary: static, not an input, and visible to dynamic code.
    let hoistable: Vec<OpId> = (0..program.len())
        .filter(|&id| {
            let node = program.node(id);
            stat[id]
                && !node.op.is_input()
                && (is_output[id] || consumers[id].iter().any(|&c| !stat[c]))
        })
        .collect();

    if hoistable.is_empty() {
        return PreprocessResult {
            program: program.clone(),
            precompute: Program::new(),
            hoisted: 0,
        };
    }

    // Build the precompute program: the static closure of the hoisted set.
    let mut pre = Program::new();
    let mut pre_map: Vec<Option<OpId>> = vec![None; program.len()];
    for (id, node) in program.nodes().iter().enumerate() {
        if !stat[id] {
            continue;
        }
        // Copy a static node if it is hoistable or feeds one.
        let needed =
            hoistable.contains(&id) || consumers[id].iter().any(|&c| stat[c]) || node.op.is_input();
        if !needed {
            continue;
        }
        let inputs: Vec<OpId> = node
            .inputs
            .iter()
            .map(|&i| pre_map[i].expect("static input missing from precompute closure"))
            .collect();
        pre_map[id] = Some(pre.add(node.op.clone(), inputs));
    }
    for (slot, &id) in hoistable.iter().enumerate() {
        let pid = pre_map[id].expect("hoisted node missing");
        pre.mark_output(pid);
        debug_assert_eq!(pre.outputs()[slot], pid);
    }

    // Rewrite the main program: hoisted nodes become slots; purely static
    // interior nodes become dead and are removed by DCE later.
    let mut main = program.clone();
    for (slot, &id) in hoistable.iter().enumerate() {
        main.replace(id, Op::Precomputed { slot }, vec![]);
    }

    PreprocessResult {
        program: main,
        precompute: pre,
        hoisted: hoistable.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsampler_matrix::{Axis, EltOp, ReduceOp};

    /// LADIES head: square the extracted sub-matrix, reduce per row.
    fn ladies_head() -> Program {
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let f = p.add(Op::InputFrontiers, vec![]);
        let sub = p.add(Op::SliceCols, vec![g, f]);
        let sq = p.add(Op::ScalarOp(EltOp::Pow, 2.0), vec![sub]);
        let probs = p.add(Op::Reduce(ReduceOp::Sum, Axis::Row), vec![sq]);
        let samp = p.add(Op::CollectiveSample { k: 64 }, vec![sub, probs]);
        p.mark_output(samp);
        p
    }

    #[test]
    fn fastgcn_degrees_are_hoisted() {
        // FastGCN: node bias = degree of the full graph, computed once.
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let f = p.add(Op::InputFrontiers, vec![]);
        let deg = p.add(Op::Reduce(ReduceOp::Count, Axis::Row), vec![g]);
        let sub = p.add(Op::SliceCols, vec![g, f]);
        let samp = p.add(Op::CollectiveSample { k: 64 }, vec![sub, deg]);
        p.mark_output(samp);

        let r = run(&p);
        assert_eq!(r.hoisted, 1);
        assert!(r
            .precompute
            .find_op(|op| matches!(op, Op::Reduce(ReduceOp::Count, _)))
            .is_some());
        let slot_id = r
            .program
            .find_op(|op| matches!(op, Op::Precomputed { slot: 0 }))
            .unwrap();
        // The collective sample now reads the slot.
        let samp_id = r
            .program
            .find_op(|op| matches!(op, Op::CollectiveSample { .. }))
            .unwrap();
        assert!(r.program.node(samp_id).inputs.contains(&slot_id));
    }

    #[test]
    fn dynamic_compute_is_untouched() {
        // GraphSAGE: nothing is batch-invariant except the graph itself.
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let f = p.add(Op::InputFrontiers, vec![]);
        let sub = p.add(Op::SliceCols, vec![g, f]);
        let samp = p.add(
            Op::IndividualSample {
                k: 5,
                replace: false,
            },
            vec![sub],
        );
        p.mark_output(samp);
        let r = run(&p);
        assert_eq!(r.hoisted, 0);
        assert!(r.precompute.is_empty());
        assert_eq!(r.program.len(), p.len());
    }

    #[test]
    fn default_run_does_not_sink() {
        let p = ladies_head();
        let r = run(&p);
        // Without sinking, the square stays in the per-batch program.
        assert_eq!(r.hoisted, 0);
        assert_eq!(
            r.program
                .count_ops(|op| matches!(op, Op::ScalarOp(EltOp::Pow, _))),
            1
        );
    }

    #[test]
    fn static_output_is_hoisted() {
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let deg = p.add(Op::Reduce(ReduceOp::Count, Axis::Col), vec![g]);
        p.mark_output(deg);
        let r = run(&p);
        assert_eq!(r.hoisted, 1);
        assert_eq!(r.precompute.outputs().len(), 1);
    }
}
