//! Common-subexpression elimination.
//!
//! Two nodes with the same operator and the same (already-deduplicated)
//! inputs compute the same value, so the later one is redirected to the
//! earlier. Random operators are never merged: two independent sampling
//! draws are distinct values even with identical inputs.
//!
//! One identity rides on the same table because it *exposes* a common
//! subexpression: row `i` of a GEMM depends only on row `i` of its left
//! operand, so `Gemm(DenseGatherRows(X, idx), W)` is, bit for bit,
//! `DenseGatherRows(Gemm(X, W), idx)` (`X @ W` is as tall as `X`, so the
//! gather's wrap rule is unchanged). It fires only when `Gemm(X, W)` is
//! *already* in the table — as in PASS — never by manufacturing a product.

use std::collections::HashMap;

use crate::op::Op;
use crate::program::{cse_key, Node, OpId, Program};

/// Deduplicate equal subexpressions; returns the rewritten program, the
/// number of nodes merged away and the number of `Gemm(gather(X), W)` nodes
/// rewritten to `gather(Gemm(X, W))`.
pub fn run(program: &Program) -> (Program, usize, usize) {
    let mut table: HashMap<String, OpId> = HashMap::new();
    // For each old node: the node it is replaced by in the rebuilt program.
    let mut redirect: Vec<OpId> = Vec::with_capacity(program.len());
    let mut out = Program::new();
    let (mut merged, mut gathers_moved) = (0, 0);

    for node in program.nodes() {
        let op = node.op.clone();
        let inputs = node.inputs.iter().map(|&i| redirect[i]).collect();
        let mut candidate = Node { op, inputs };
        if let (Op::Gemm, &[lhs, w]) = (&candidate.op, &candidate.inputs[..]) {
            let gather = out.node(lhs);
            if let (Op::DenseGatherRows, &[x, idx]) = (&gather.op, &gather.inputs[..]) {
                let (op, inputs) = (Op::Gemm, vec![x, w]);
                let product = cse_key(&Node { op, inputs }).and_then(|key| table.get(&key));
                if let Some(&product) = product {
                    let (op, inputs) = (Op::DenseGatherRows, vec![product, idx]);
                    candidate = Node { op, inputs };
                    gathers_moved += 1;
                }
            }
        }
        let key = cse_key(&candidate);
        if let Some(&existing) = key.as_ref().and_then(|key| table.get(key)) {
            redirect.push(existing);
            merged += 1;
            continue;
        }
        let new_id = out.add(candidate.op, candidate.inputs);
        if let Some(key) = key {
            table.insert(key, new_id);
        }
        redirect.push(new_id);
    }
    for &o in program.outputs() {
        out.mark_output(redirect[o]);
    }
    (out, merged, gathers_moved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;
    use gsampler_matrix::{Axis, EltOp, ReduceOp};

    #[test]
    fn merges_duplicate_compute() {
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let f = p.add(Op::InputFrontiers, vec![]);
        let sub = p.add(Op::SliceCols, vec![g, f]);
        let sq1 = p.add(Op::ScalarOp(EltOp::Pow, 2.0), vec![sub]);
        let sq2 = p.add(Op::ScalarOp(EltOp::Pow, 2.0), vec![sub]);
        let r1 = p.add(Op::Reduce(ReduceOp::Sum, Axis::Row), vec![sq1]);
        let r2 = p.add(Op::Reduce(ReduceOp::Sum, Axis::Row), vec![sq2]);
        let v = p.add(Op::VectorOp(EltOp::Add), vec![r1, r2]);
        p.mark_output(v);

        let (out, merged, _) = run(&p);
        assert_eq!(merged, 2); // sq2 and r2 both fold away
        assert_eq!(out.len(), 6);
        out.validate().unwrap();
        // The add now consumes the same reduce twice.
        let add = out.node(out.len() - 1);
        assert_eq!(add.inputs[0], add.inputs[1]);
    }

    #[test]
    fn does_not_merge_samples() {
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let f = p.add(Op::InputFrontiers, vec![]);
        let sub = p.add(Op::SliceCols, vec![g, f]);
        let s1 = p.add(Op::IndividualSample { k: 2 }, vec![sub]);
        let s2 = p.add(Op::IndividualSample { k: 2 }, vec![sub]);
        p.mark_output(s1);
        p.mark_output(s2);
        let (out, merged, _) = run(&p);
        assert_eq!(merged, 0);
        assert_eq!(out.len(), p.len());
    }

    #[test]
    fn transitively_dedups_through_rewritten_inputs() {
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let a1 = p.add(Op::ScalarOp(EltOp::Mul, 2.0), vec![g]);
        let a2 = p.add(Op::ScalarOp(EltOp::Mul, 2.0), vec![g]);
        // b1 and b2 reference different (duplicate) parents.
        let b1 = p.add(Op::ScalarOp(EltOp::Add, 1.0), vec![a1]);
        let b2 = p.add(Op::ScalarOp(EltOp::Add, 1.0), vec![a2]);
        p.mark_output(b1);
        p.mark_output(b2);
        let (out, merged, _) = run(&p);
        assert_eq!(merged, 2);
        // Both outputs folded to the same node (mark_output dedups).
        assert_eq!(out.outputs().len(), 1);
    }

    #[test]
    fn distinct_scalars_not_merged() {
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let a = p.add(Op::ScalarOp(EltOp::Mul, 2.0), vec![g]);
        let b = p.add(Op::ScalarOp(EltOp::Mul, 3.0), vec![g]);
        p.mark_output(a);
        p.mark_output(b);
        assert_eq!(run(&p).1, 0);
    }

    /// PASS's two projections of one table: `X @ W` and `X[f] @ W2`, with
    /// the full product of `X` by `full_w` recorded `before` the gathered
    /// one, after it, or (`None`) not at all.
    fn projections(full_w: Option<&str>, before: bool) -> Program {
        let mut p = Program::new();
        let x = p.add(Op::InputDense("X".into()), vec![]);
        let f = p.add(Op::InputFrontiers, vec![]);
        let w = p.add(Op::InputDense("W".into()), vec![]);
        let full = |p: &mut Program| {
            if let Some(name) = full_w {
                let fw = if name == "W" {
                    w
                } else {
                    p.add(Op::InputDense(name.into()), vec![])
                };
                let b = p.add(Op::Gemm, vec![x, fw]);
                p.mark_output(b);
            }
        };
        if before {
            full(&mut p);
        }
        let rows = p.add(Op::DenseGatherRows, vec![x, f]);
        let c = p.add(Op::Gemm, vec![rows, w]);
        p.mark_output(c);
        if !before {
            full(&mut p);
        }
        p
    }

    #[test]
    fn gather_moves_through_a_gemm_that_is_already_there() {
        let p = projections(Some("W"), true);
        let (out, merged, gathers_moved) = run(&p);
        assert_eq!((gathers_moved, merged), (1, 0));
        out.validate().unwrap();
        assert_eq!(out.count_ops(|op| matches!(op, Op::Gemm)), 1);
        // The frontier side now gathers rows of the product, by the same ids.
        let product = out.find_op(|op| matches!(op, Op::Gemm)).unwrap();
        let c = out.node(out.outputs()[1]);
        assert_eq!(c.op, Op::DenseGatherRows);
        assert_eq!(c.inputs, vec![product, 1]);
    }

    #[test]
    fn gather_stays_when_the_full_product_is_absent_late_or_of_another_weight() {
        for (full_w, before) in [(None, true), (Some("W"), false), (Some("W2"), true)] {
            let p = projections(full_w, before);
            assert_eq!(run(&p), (p, 0, 0), "{full_w:?} before={before}");
        }
    }
}
