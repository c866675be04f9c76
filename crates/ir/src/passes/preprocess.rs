//! Pre-processing: hoist sampling-invariant computation out of the
//! per-batch program (paper §4.2, "Pre-processing").
//!
//! **Sinking** (LADIES' `A ** 2`): `Reduce(op, Row)` over single-consumer
//! `ScalarOp` / `UnaryOp` maps over `SliceCols(G, frontiers)`, `G`
//! batch-invariant, becomes [`Op::FusedExtractReduce`] over `[M(G),
//! frontiers]`, `M(G)` the maps as one [`Op::FusedEdgeMap`] on the graph
//! (the same runtime steps, so the same bits). Only when every reader reads
//! the vector by ID — a `CollectiveSample` bias, a `GatherRowBias` `v` —
//! so whatever the layout does to the slice, no reader sees a difference.
//!
//! **Hoisting**: every node that varies with the graph or the bound inputs
//! only ([`Varies::Binding`] or less) and feeds a batch-varying consumer
//! (or is an output) is moved into a separate *precompute program*; the
//! main program reads the value through an [`Op::Precomputed`] slot. The
//! compiled sampler evaluates the precompute program once per graph and
//! set of bound inputs. What hoists: FastGCN's node degrees and LADIES'
//! sunk `A ** 2` (graph only, evaluated at compile time), PASS's
//! `features @ W1`, `features @ W2` and `softmax(W3)`, and AS-GCN's learned
//! score `relu(features @ Wg)` (per bound weights).

use gsampler_matrix::Axis;

use crate::facts::{Space, Varies};
use crate::op::{EdgeMapStep, Op};
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
    /// Row reductions sunk into [`Op::FusedExtractReduce`].
    pub sunk: usize,
}

/// Sink each eligible row reduction in place: the map the reduce read
/// becomes `M(G)`, the reduce the fused extract.
fn sink(program: &mut Program) -> usize {
    let table = crate::facts(program, &[]).expect("pre-processing runs on a valid program");
    let consumers = program.consumers();
    let mut sunk = 0;
    for id in 0..program.len() {
        let Op::Reduce(reduce, Axis::Row) = program.node(id).op else {
            continue;
        };
        let by_id = |&c: &OpId| match (&program.node(c).op, &program.node(c).inputs[..]) {
            (Op::CollectiveSample { .. }, &[m, v]) | (Op::GatherRowBias, &[v, m, ..]) => {
                v == id && m != id
            }
            _ => false,
        };
        let read = &consumers[id];
        if read.is_empty() || program.outputs().contains(&id) || !read.iter().all(by_id) {
            continue;
        }
        let (mut cur, mut reader, mut steps) = (program.node(id).inputs[0], id, Vec::new());
        while consumers[cur] == [reader] {
            let step = match program.node(cur).op {
                Op::ScalarOp(op, s) => EdgeMapStep::Scalar(op, s),
                Op::UnaryOp(op) => EdgeMapStep::Unary(op),
                _ => break,
            };
            steps.insert(0, step);
            (cur, reader) = (program.node(cur).inputs[0], cur);
        }
        let (slice, top) = (program.node(cur), program.node(id).inputs[0]);
        let &[g, f] = &slice.inputs[..] else { continue };
        let keyed = table[cur].cols == Some(Space::Frontier);
        if slice.op != Op::SliceCols || !keyed || table[g].varies != Varies::Graph {
            continue;
        }
        if !steps.is_empty() {
            program.replace(top, Op::FusedEdgeMap { steps }, vec![g]);
        }
        let source = if cur == top { g } else { top };
        program.replace(id, Op::FusedExtractReduce { reduce }, vec![source, f]);
        sunk += 1;
    }
    sunk
}

/// Run the pass: sink, then move batch-invariant nodes with
/// batch-dependent consumers into the precompute program, replacing them
/// with `Precomputed` slots. Neither adds per-batch work.
pub fn run(program: &Program) -> PreprocessResult {
    let mut sunk_program = program.clone();
    let sunk = sink(&mut sunk_program);
    let program = &sunk_program;
    // Batch-invariant: varies with the graph and the bound inputs only.
    let table = crate::facts(program, &[]).expect("pre-processing runs on a valid program");
    let stat: Vec<bool> = table.iter().map(|f| f.varies <= Varies::Binding).collect();
    let consumers = program.consumers();

    // Hoist boundary: static, not an input, and visible to dynamic code.
    let hoistable: Vec<OpId> = (0..program.len())
        .filter(|&id| {
            let node = program.node(id);
            stat[id]
                && !node.op.is_input()
                && (program.outputs().contains(&id) || consumers[id].iter().any(|&c| !stat[c]))
        })
        .collect();

    if hoistable.is_empty() {
        return PreprocessResult {
            program: program.clone(),
            precompute: Program::new(),
            hoisted: 0,
            sunk,
        };
    }

    // Build the precompute program: the static closure of the hoisted set,
    // so it reads exactly the inputs the hoisted values depend on.
    let mut needed = vec![false; program.len()];
    for id in (0..program.len()).rev() {
        needed[id] = hoistable.contains(&id) || consumers[id].iter().any(|&c| needed[c]);
    }
    let mut pre = Program::new();
    let mut pre_map: Vec<Option<OpId>> = vec![None; program.len()];
    for (id, node) in program.nodes().iter().enumerate() {
        if !needed[id] {
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
        sunk,
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
        let samp = p.add(Op::IndividualSample { k: 5 }, vec![sub]);
        p.mark_output(samp);
        let r = run(&p);
        assert_eq!(r.hoisted, 0);
        assert!(r.precompute.is_empty());
        assert_eq!(r.program.len(), p.len());
    }

    #[test]
    fn default_run_sinks_the_square() {
        let p = ladies_head();
        let r = run(&p);
        assert_eq!((r.sunk, r.hoisted), (1, 1));
        // `A ** 2` moves to the precompute program as one edge-map chain
        // over the graph; the reduce reads it through the frontier list.
        let (prog, _) = crate::passes::dce::run(&r.program);
        assert_eq!(prog.count_ops(|op| matches!(op, Op::ScalarOp(..))), 0);
        let fused = prog
            .find_op(|op| {
                *op == Op::FusedExtractReduce {
                    reduce: ReduceOp::Sum,
                }
            })
            .unwrap();
        let [slot, f] = prog.node(fused).inputs[..] else {
            panic!()
        };
        assert_eq!(prog.node(slot).op, Op::Precomputed { slot: 0 });
        assert_eq!(prog.node(f).op, Op::InputFrontiers);
        let steps = vec![EdgeMapStep::Scalar(EltOp::Pow, 2.0)];
        let hoisted = r.precompute.node(r.precompute.outputs()[0]);
        assert_eq!(hoisted.op, Op::FusedEdgeMap { steps });
        assert_eq!(r.precompute.node(hoisted.inputs[0]).op, Op::InputGraph);
    }

    /// LADIES' head with `reader` reading the row reduce besides the
    /// sample, over a slice keyed by `keyed_by` (`None`: the frontiers).
    fn ladies_read_by(reader: Option<Op>, axis: Axis, keyed_by: Option<Op>) -> Program {
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let f = p.add(keyed_by.unwrap_or(Op::InputFrontiers), vec![]);
        let sub = p.add(Op::SliceCols, vec![g, f]);
        let sq = p.add(Op::ScalarOp(EltOp::Pow, 2.0), vec![sub]);
        let probs = p.add(Op::Reduce(ReduceOp::Sum, axis), vec![sq]);
        let samp = p.add(Op::CollectiveSample { k: 64 }, vec![sub, probs]);
        p.mark_output(samp);
        if let Some(op) = reader {
            let other = p.add(Op::InputVector("learned".into()), vec![]);
            let read = p.add(op, vec![probs, other]);
            p.mark_output(read);
        }
        p
    }

    #[test]
    fn sinking_needs_an_id_read_row_reduce_over_a_frontier_slice() {
        let row = Axis::Row;
        let positional = Some(Op::VectorOp(EltOp::Add)); // AS-GCN's bias
        let prev = Some(Op::InputNodes("prev".into()));
        for p in [
            ladies_read_by(positional, row, None),
            ladies_read_by(None, Axis::Col, None),
        ] {
            let r = run(&p);
            assert_eq!((r.sunk, r.hoisted), (0, 0), "{}", p.display());
            assert_eq!(r.program, p);
        }
        // A slice keyed by a bound list is not sunk; it varies with the
        // binding only, so it hoists whole: the slice the sample reads
        // and the row reduce.
        let r = run(&ladies_read_by(None, row, prev));
        assert_eq!((r.sunk, r.hoisted), (0, 2));
        assert_eq!(run(&ladies_read_by(None, row, None)).sunk, 1);
    }

    #[test]
    fn binding_invariant_products_are_hoisted() {
        // PASS's candidate side: `features @ W` read by a per-batch SDDMM
        // and, through a frontier gather, by the frontier side.
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let f = p.add(Op::InputFrontiers, vec![]);
        let x = p.add(Op::InputDense("features".into()), vec![]);
        let w = p.add(Op::InputDense("W".into()), vec![]);
        let unused = p.add(Op::InputVector("bias".into()), vec![]);
        let xw = p.add(Op::Gemm, vec![x, w]);
        let rows = p.add(Op::DenseGatherRows, vec![xw, f]);
        let sub = p.add(Op::SliceCols, vec![g, f]);
        let att = p.add(Op::Sddmm, vec![sub, xw, rows]);
        let per_row = p.add(Op::Broadcast(EltOp::Mul, Axis::Row), vec![att, unused]);
        p.mark_output(per_row);

        let r = run(&p);
        assert_eq!((r.sunk, r.hoisted), (0, 1));
        // The precompute program reads exactly the inputs the product needs.
        let pre = &r.precompute;
        let ops: Vec<&Op> = pre.nodes().iter().map(|n| &n.op).collect();
        assert_eq!(
            ops,
            [
                &Op::InputDense("features".into()),
                &Op::InputDense("W".into()),
                &Op::Gemm
            ]
        );
        assert_eq!(r.program.node(xw).op, Op::Precomputed { slot: 0 });
        let slots = [crate::facts(pre, &[]).unwrap()[pre.outputs()[0]]];
        let t = crate::facts(&r.program, &slots).unwrap();
        assert_eq!(
            (t[xw].varies, t[rows].varies),
            (Varies::Binding, Varies::Batch)
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
