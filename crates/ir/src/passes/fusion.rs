//! Operator fusion (paper §4.2, Fig. 5).
//!
//! Five rules tailored to the ECSF model:
//!
//! - **Extract-Select fusion**: a uniform `individual_sample` applied
//!   directly to a frontier-keyed extract (and nothing else reading that
//!   sub-matrix) samples straight from the graph adjacency — the sliced
//!   matrix is never materialized (Fig. 5a, GraphSAGE). Both extract rules
//!   key by the fact table (`cols == Frontier`): the fused kernels read the
//!   frontier list, not their node input.
//! - **Extract-Collective fusion**, its layer-wise twin: a biased
//!   `collective_sample` of a frontier slice read otherwise only by that
//!   sample's `gather_row_bias`es (which drop it) becomes one
//!   [`Op::FusedExtractCollective`] (LADIES after pre-processing, FastGCN).
//! - **Edge-Map fusion**: consecutive edge-map operators over the same
//!   matrix collapse into one kernel that updates each edge value once
//!   (Fig. 5b, PASS).
//! - **Edge-MapReduce fusion**: an edge-map feeding an axis reduction is
//!   recomputed inside the reduction kernel, so the mapped edge values are
//!   never written to memory (Fig. 5c, LADIES). Applied even when the
//!   mapped matrix has other consumers (the map node then stays alive for
//!   them; the reduction still skips one materialization).
//! - **Bias-Select fusion**: an edge-value chain read only by the bias
//!   input of a node-wise `individual_sample` is evaluated per edge inside
//!   the pick ([`Op::FusedBiasSelect`], C-SAW's `EdgeBias` in the select):
//!   no channel, combine or bias array is materialized. The chain must be
//!   spelled in [`EdgeBias`]'s fixed grammar over the select's own matrix —
//!   channels that are an [`Op::Sddmm`] of it, an edge-map chain of it or
//!   it itself, optionally combined the way PASS combines its three
//!   attention channels (Fig. 5b: `stack` → `@ W` → dense unary maps →
//!   column `col` as edge values) — with every link read by the next one
//!   only. Any other op keeps the chain materialized.

use crate::facts::{Facts, Space};
use crate::op::{BiasChannel, BiasCombine, EdgeBias, EdgeMapStep, Op};
use crate::program::{Node, OpId, Program};

/// What the fusion pass did.
#[derive(Debug, Clone, Default)]
pub struct FusionResult {
    /// The rewritten program (dead nodes left for DCE).
    pub program: Program,
    /// Extract-Select fusions applied.
    pub extract_select: usize,
    /// Extract-Collective fusions applied.
    pub extract_collective: usize,
    /// Edge-map pair merges applied.
    pub edge_map: usize,
    /// Edge-map-reduce fusions applied.
    pub edge_map_reduce: usize,
    /// Bias-Select fusions applied.
    pub bias_select: usize,
}

/// View an edge-map-like node as `(matrix_input, vector_inputs, steps)`.
fn map_steps(node: &Node) -> Option<(OpId, Vec<OpId>, Vec<EdgeMapStep>)> {
    match &node.op {
        Op::ScalarOp(op, s) => Some((node.inputs[0], vec![], vec![EdgeMapStep::Scalar(*op, *s)])),
        Op::UnaryOp(op) => Some((node.inputs[0], vec![], vec![EdgeMapStep::Unary(*op)])),
        Op::Broadcast(op, axis) => Some((
            node.inputs[0],
            vec![node.inputs[1]],
            vec![EdgeMapStep::Broadcast(*op, *axis, 1)],
        )),
        Op::FusedEdgeMap { steps } => {
            Some((node.inputs[0], node.inputs[1..].to_vec(), steps.clone()))
        }
        _ => None,
    }
}

/// Concatenate two step chains, re-basing the broadcast input positions of
/// the second chain after the first chain's vectors.
fn concat_steps(
    a_vecs: &[OpId],
    a_steps: &[EdgeMapStep],
    b_vecs: &[OpId],
    b_steps: &[EdgeMapStep],
) -> (Vec<OpId>, Vec<EdgeMapStep>) {
    let mut vecs = a_vecs.to_vec();
    vecs.extend_from_slice(b_vecs);
    let mut steps = a_steps.to_vec();
    for step in b_steps {
        match step {
            EdgeMapStep::Broadcast(op, axis, pos) => {
                steps.push(EdgeMapStep::Broadcast(*op, *axis, pos + a_vecs.len()));
            }
            other => steps.push(other.clone()),
        }
    }
    (vecs, steps)
}

/// PASS's combine ending in the `EdgeValuesFromDense` node `id` over
/// `pattern`, every link read by the next only: the stack node, `W` and
/// the combine.
fn projected_channels(
    prog: &Program,
    only: impl Fn(OpId, OpId) -> bool,
    pattern: OpId,
    id: OpId,
) -> Option<(OpId, OpId, BiasCombine)> {
    let Op::EdgeValuesFromDense { col } = prog.node(id).op else {
        return None;
    };
    let (mut cur, mut reader, mut unary) = (prog.node(id).inputs[1], id, Vec::new());
    // Up the unary maps to the product, every link read by the next only.
    while let (Op::DenseUnary(u), true) = (&prog.node(cur).op, only(cur, reader)) {
        unary.insert(0, *u);
        (cur, reader) = (prog.node(cur).inputs[0], cur);
    }
    let product = prog.node(cur);
    let stack = *product.inputs.first()?;
    let chained = matches!(product.op, Op::Gemm) && only(cur, reader);
    let stacked = prog.node(stack).op == Op::StackEdgeValues && only(stack, cur);
    let over = prog.node(id).inputs[0] == pattern;
    let combine = BiasCombine { w: 0, col, unary };
    (chained && stacked && over).then(|| (stack, product.inputs[1], combine))
}

/// Rule 5 at node `id`: the fused select and its inputs `[matrix,
/// leaves...]`, if `id` is a biased `IndividualSample` whose bias chain
/// [`EdgeBias`] spells.
fn bias_select(p: &Program, consumers: &[Vec<OpId>], id: OpId) -> Option<(Op, Vec<OpId>)> {
    let (&Op::IndividualSample { k }, &[sub, probs]) = (&p.node(id).op, &p.node(id).inputs[..])
    else {
        return None;
    };
    // `node` is read by `reader` alone, and is no program output.
    let only = |node: OpId, reader: OpId| {
        consumers[node].iter().all(|&c| c == reader) && !p.outputs().contains(&node)
    };
    if !only(probs, id) {
        return None;
    }
    let (links, combine) = match projected_channels(p, only, sub, probs) {
        Some((stack, w, combine)) => (
            p.node(stack).inputs.iter().map(|&a| (a, stack)).collect(),
            Some((w, combine)),
        ),
        None => (vec![(probs, id)], None),
    };
    let mut inputs = vec![sub];
    let mut channels = Vec::with_capacity(links.len());
    for (a, reader) in links {
        let node = p.node(a);
        channels.push(if a == sub {
            BiasChannel::Map(Vec::new())
        } else if !only(a, reader) {
            return None;
        } else if node.op == Op::Sddmm && node.inputs[0] == sub {
            inputs.extend_from_slice(&node.inputs[1..]);
            BiasChannel::Dot(inputs.len() - 2, inputs.len() - 1)
        } else {
            let (_, vecs, steps) = map_steps(node).filter(|m| m.0 == sub)?;
            // Re-base the steps' vectors after the leaves so far.
            let (_, steps) = concat_steps(&inputs[1..], &[], &[], &steps);
            inputs.extend(vecs);
            BiasChannel::Map(steps)
        });
    }
    let combine = combine.map(|(w, combine)| {
        inputs.push(w);
        BiasCombine {
            w: inputs.len() - 1,
            ..combine
        }
    });
    let bias = EdgeBias { channels, combine };
    Some((Op::FusedBiasSelect { k, bias }, inputs))
}

/// An Extract-Collective rewrite: `k`, the fused inputs `[G, frontiers,
/// probs]` and the slice's bias gathers.
type Collective = (usize, Vec<OpId>, Vec<OpId>);

/// Rule 2 at node `id`, if it applies.
fn extract_collective(
    p: &Program,
    keyed: impl Fn(OpId) -> bool,
    consumers: &[Vec<OpId>],
    id: OpId,
) -> Option<Collective> {
    let (&Op::CollectiveSample { k }, &[sub, probs]) = (&p.node(id).op, &p.node(id).inputs[..])
    else {
        return None;
    };
    let (slice, mut gathers) = (p.node(sub), consumers[sub].clone());
    gathers.retain(|&c| c != id);
    let keyed = slice.op == Op::SliceCols && keyed(sub);
    let gather =
        |&c: &OpId| p.node(c).op == Op::GatherRowBias && p.node(c).inputs[1..] == [id, sub];
    let alone = !p.outputs().contains(&sub) && gathers.iter().all(gather);
    (keyed && alone).then(|| (k, [&slice.inputs[..], &[probs]].concat(), gathers))
}

/// Run all five fusion rules. `slots` are the facts of the program's
/// `Precomputed` values.
pub fn run(program: &Program, slots: &[Facts]) -> FusionResult {
    let mut prog = program.clone();
    let mut result = FusionResult::default();
    // The fused extracts read the frontier list: only a slice keyed by it
    // (its columns are the frontiers) fuses. No sweep changes a slice.
    let table = crate::facts(program, slots).expect("fusion runs on a valid program");
    let keyed = |sub: OpId| table[sub].cols == Some(Space::Frontier);

    // 1. Extract-Select fusion; one sweep, since each sample reads its
    //    own slice (a biased sample needs the sub-matrix).
    let consumers = prog.consumers();
    for id in 0..prog.len() {
        let node = prog.node(id);
        let (&Op::IndividualSample { k }, &[sub]) = (&node.op, &node.inputs[..]) else {
            continue;
        };
        if prog.node(sub).op == Op::SliceCols && keyed(sub) && consumers[sub] == [id] {
            let slice = prog.node(sub).inputs.clone();
            prog.replace(id, Op::FusedExtractSelect { k }, slice);
            result.extract_select += 1;
        }
    }

    // 2. Extract-Collective fusion, likewise.
    for id in 0..prog.len() {
        if let Some((k, inputs, gathers)) = extract_collective(&prog, keyed, &consumers, id) {
            for g in gathers {
                let v = prog.node(g).inputs[0];
                prog.replace(g, Op::GatherRowBias, vec![v, id]);
            }
            prog.replace(id, Op::FusedExtractCollective { k }, inputs);
            result.extract_collective += 1;
        }
    }

    // 3. Edge-map chain fusion; an ascending sweep merges whole chains.
    //    (The sweeps so far change no single-consumer fact they read.)
    for id in 0..prog.len() {
        let Some((a_id, b_vecs, b_steps)) = map_steps(prog.node(id)) else {
            continue;
        };
        if let (Some((src, a_vecs, a_steps)), true) =
            (map_steps(prog.node(a_id)), consumers[a_id] == [id])
        {
            let (vecs, steps) = concat_steps(&a_vecs, &a_steps, &b_vecs, &b_steps);
            prog.replace(id, Op::FusedEdgeMap { steps }, [vec![src], vecs].concat());
            result.edge_map += 1;
        }
    }

    // 4. Edge-MapReduce fusion (with recompute when the map has other
    //    consumers); one sweep, since a fused reduce is no map.
    for id in 0..prog.len() {
        let Op::Reduce(reduce, axis) = prog.node(id).op else {
            continue;
        };
        if let Some((src, vecs, steps)) = map_steps(prog.node(prog.node(id).inputs[0])) {
            let fused = Op::FusedEdgeMapReduce {
                steps,
                reduce,
                axis,
            };
            prog.replace(id, fused, [vec![src], vecs].concat());
            result.edge_map_reduce += 1;
        }
    }

    // 5. Bias-Select fusion; one sweep, since no chain feeds two selects.
    let consumers = prog.consumers();
    for id in 0..prog.len() {
        if let Some((op, inputs)) = bias_select(&prog, &consumers, id) {
            prog.replace(id, op, inputs);
            result.bias_select += 1;
        }
    }

    result.program = prog;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::dce;
    use gsampler_matrix::eltwise::UnaryOp;
    use gsampler_matrix::{Axis, EltOp, ReduceOp};

    fn graphsage() -> Program {
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let f = p.add(Op::InputFrontiers, vec![]);
        let sub = p.add(Op::SliceCols, vec![g, f]);
        let samp = p.add(Op::IndividualSample { k: 10 }, vec![sub]);
        let next = p.add(Op::RowNodes, vec![samp]);
        p.mark_output(samp);
        p.mark_output(next);
        p
    }

    #[test]
    fn extract_select_fuses_graphsage() {
        let r = run(&graphsage(), &[]);
        assert_eq!(r.extract_select, 1);
        let (prog, removed) = dce::run(&r.program);
        assert_eq!(removed, 1); // the slice died
        assert_eq!(
            prog.count_ops(|op| matches!(op, Op::FusedExtractSelect { .. })),
            1
        );
        assert_eq!(prog.count_ops(|op| matches!(op, Op::SliceCols)), 0);
        prog.validate().unwrap();
    }

    #[test]
    fn extract_select_skips_biased_sampling() {
        // PASS-style: sampling probabilities derived from the sub-matrix,
        // so the sub-matrix must materialize.
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let f = p.add(Op::InputFrontiers, vec![]);
        let sub = p.add(Op::SliceCols, vec![g, f]);
        let probs = p.add(Op::ScalarOp(EltOp::Pow, 2.0), vec![sub]);
        let samp = p.add(Op::IndividualSample { k: 10 }, vec![sub, probs]);
        p.mark_output(samp);
        let r = run(&p, &[]);
        assert_eq!(r.extract_select, 0);
    }

    #[test]
    fn extract_select_skips_shared_submatrix() {
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let f = p.add(Op::InputFrontiers, vec![]);
        let sub = p.add(Op::SliceCols, vec![g, f]);
        let samp = p.add(Op::IndividualSample { k: 10 }, vec![sub]);
        let deg = p.add(Op::Reduce(ReduceOp::Count, Axis::Col), vec![sub]);
        p.mark_output(samp);
        p.mark_output(deg);
        let r = run(&p, &[]);
        assert_eq!(r.extract_select, 0);
    }

    /// A layer-wise layer as fusion sees it: the slice, a sample biased by
    /// `bias` (unbiased when `None`), its bias gather and a divide; `align`
    /// adds AS-GCN's `align_rows` of the slice into the bias.
    fn layer_wise(bias: Option<Op>, align: bool) -> Program {
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let f = p.add(Op::InputFrontiers, vec![]);
        let sub = p.add(Op::SliceCols, vec![g, f]);
        let Some(bias) = bias else {
            let samp = p.add(Op::CollectiveSample { k: 8 }, vec![sub]);
            p.mark_output(samp);
            return p;
        };
        let reads_graph = matches!(bias, Op::FusedExtractReduce { .. });
        let mut probs = p.add(bias, if reads_graph { vec![g, f] } else { vec![] });
        if align {
            let learned = p.add(Op::InputVector("learned".into()), vec![]);
            let aligned = p.add(Op::AlignRowVector, vec![learned, sub]);
            probs = p.add(Op::VectorOp(EltOp::Add), vec![probs, aligned]);
        }
        let samp = p.add(Op::CollectiveSample { k: 8 }, vec![sub, probs]);
        let sel = p.add(Op::GatherRowBias, vec![probs, samp, sub]);
        let out = p.add(Op::Broadcast(EltOp::Div, Axis::Row), vec![samp, sel]);
        p.mark_output(out);
        p
    }

    /// The facts of slot 0: a full-graph degree vector.
    fn degree_slot() -> Vec<Facts> {
        let mut pre = Program::new();
        let g = pre.add(Op::InputGraph, vec![]);
        let deg = pre.add(Op::Reduce(ReduceOp::Count, Axis::Row), vec![g]);
        pre.mark_output(deg);
        vec![crate::facts(&pre, &[]).unwrap()[deg]]
    }

    #[test]
    fn extract_collective_fuses_ladies_and_fastgcn() {
        // LADIES after pre-processing (an extract-reduce bias) and FastGCN
        // (a hoisted degree vector): the slice dies, the gather loses it.
        let sum = ReduceOp::Sum;
        for bias in [
            Op::FusedExtractReduce { reduce: sum },
            Op::Precomputed { slot: 0 },
        ] {
            let r = run(&layer_wise(Some(bias), false), &degree_slot());
            assert_eq!(r.extract_collective, 1);
            let (prog, _) = dce::run(&r.program);
            crate::facts(&prog, &degree_slot()).unwrap();
            assert_eq!(prog.count_ops(|op| *op == Op::SliceCols), 0);
            let fused = Op::FusedExtractCollective { k: 8 };
            let samp = prog.find_op(|op| *op == fused).unwrap();
            let gather = prog.find_op(|op| *op == Op::GatherRowBias).unwrap();
            assert_eq!(prog.node(gather).inputs[1..], [samp]);
        }
    }

    #[test]
    fn extract_collective_refuses_a_positional_reader_and_an_unbiased_sample() {
        // AS-GCN's `align_rows` reads the slice; an unbiased sample needs
        // its degrees.
        let asgcn = layer_wise(Some(Op::Precomputed { slot: 0 }), true);
        for p in [asgcn, layer_wise(None, false)] {
            let r = run(&p, &degree_slot());
            assert_eq!(r.extract_collective, 0);
            assert_eq!(r.program, p);
        }
    }

    #[test]
    fn edge_map_chain_fuses() {
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let f = p.add(Op::InputFrontiers, vec![]);
        let sub = p.add(Op::SliceCols, vec![g, f]);
        let a = p.add(Op::ScalarOp(EltOp::Pow, 2.0), vec![sub]);
        let b = p.add(Op::ScalarOp(EltOp::Mul, 0.5), vec![a]);
        let c = p.add(Op::UnaryOp(UnaryOp::Relu), vec![b]);
        p.mark_output(c);
        let r = run(&p, &[]);
        assert_eq!(r.edge_map, 2);
        let (prog, _) = dce::run(&r.program);
        let fused = prog
            .find_op(|op| matches!(op, Op::FusedEdgeMap { .. }))
            .unwrap();
        match &prog.node(fused).op {
            Op::FusedEdgeMap { steps } => assert_eq!(steps.len(), 3),
            _ => unreachable!(),
        }
        // Only the slice feeds the fused node.
        assert_eq!(prog.node(fused).inputs.len(), 1);
        prog.validate().unwrap();
    }

    #[test]
    fn broadcast_positions_rebased() {
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let f = p.add(Op::InputFrontiers, vec![]);
        let sub = p.add(Op::SliceCols, vec![g, f]);
        let v1 = p.add(Op::InputVector("a".into()), vec![]);
        let v2 = p.add(Op::InputVector("b".into()), vec![]);
        let b1 = p.add(Op::Broadcast(EltOp::Div, Axis::Row), vec![sub, v1]);
        let b2 = p.add(Op::Broadcast(EltOp::Mul, Axis::Col), vec![b1, v2]);
        p.mark_output(b2);
        let r = run(&p, &[]);
        assert_eq!(r.edge_map, 1);
        let fused = r
            .program
            .find_op(|op| matches!(op, Op::FusedEdgeMap { .. }))
            .unwrap();
        let node = r.program.node(fused);
        assert_eq!(node.inputs, vec![sub, v1, v2]);
        match &node.op {
            Op::FusedEdgeMap { steps } => {
                assert_eq!(steps[0], EdgeMapStep::Broadcast(EltOp::Div, Axis::Row, 1));
                assert_eq!(steps[1], EdgeMapStep::Broadcast(EltOp::Mul, Axis::Col, 2));
            }
            _ => unreachable!(),
        }
        r.program.validate().unwrap();
    }

    #[test]
    fn ladies_div_sum_fuses_with_recompute() {
        // norm1 has two consumers (the reduce and the final div), like
        // LADIES lines 6-7; the reduce still fuses.
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let f = p.add(Op::InputFrontiers, vec![]);
        let sub = p.add(Op::SliceCols, vec![g, f]);
        let v = p.add(Op::InputVector("probs".into()), vec![]);
        let norm1 = p.add(Op::Broadcast(EltOp::Div, Axis::Row), vec![sub, v]);
        let colsum = p.add(Op::Reduce(ReduceOp::Sum, Axis::Col), vec![norm1]);
        let norm2 = p.add(Op::Broadcast(EltOp::Div, Axis::Col), vec![norm1, colsum]);
        p.mark_output(norm2);
        let r = run(&p, &[]);
        assert_eq!(r.edge_map_reduce, 1);
        let fused = r
            .program
            .find_op(|op| matches!(op, Op::FusedEdgeMapReduce { .. }))
            .unwrap();
        // The fused reduce reads the *sub-matrix* and the probs vector.
        assert_eq!(r.program.node(fused).inputs, vec![sub, v]);
        // norm1 survives (norm2 still needs it).
        let (prog, removed) = dce::run(&r.program);
        assert_eq!(removed, 0);
        assert_eq!(prog.count_ops(|op| matches!(op, Op::Broadcast(..))), 2);
    }

    #[test]
    fn plain_reduce_not_fused() {
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let f = p.add(Op::InputFrontiers, vec![]);
        let sub = p.add(Op::SliceCols, vec![g, f]);
        let red = p.add(Op::Reduce(ReduceOp::Sum, Axis::Row), vec![sub]);
        p.mark_output(red);
        let r = run(&p, &[]);
        assert_eq!(r.edge_map_reduce, 0);
        assert_eq!(r.edge_map, 0);
        assert_eq!(r.extract_select, 0);
    }

    /// PASS's bias over three channels of the slice `sub` — an SDDMM, a
    /// row-broadcast map, `sub` itself — stacked, projected by `W`, mapped
    /// by `unary` in order, column `col` read as `sub`'s edge values and
    /// sampled by. `extra_reader` names a link ("sddmm" / "stack" /
    /// "product" / "unary" / "probs") that gets a second consumer.
    fn pass_program(unary: &[UnaryOp], col: usize, extra_reader: Option<&str>) -> Program {
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let f = p.add(Op::InputFrontiers, vec![]);
        let sub = p.add(Op::SliceCols, vec![g, f]);
        let (b, c) = (
            p.add(Op::InputDense("B".into()), vec![]),
            p.add(Op::InputDense("C".into()), vec![]),
        );
        let a1 = p.add(Op::Sddmm, vec![sub, b, c]);
        let v = p.add(Op::InputVector("rows".into()), vec![]);
        let a2 = p.add(Op::Broadcast(EltOp::Div, Axis::Row), vec![sub, v]);
        let w = p.add(Op::InputDense("W3".into()), vec![]);
        let stack = p.add(Op::StackEdgeValues, vec![a1, a2, sub]);
        let product = p.add(Op::Gemm, vec![stack, w]);
        let mut last = product;
        for &u in unary {
            last = p.add(Op::DenseUnary(u), vec![last]);
        }
        let probs = p.add(Op::EdgeValuesFromDense { col }, vec![sub, last]);
        let select = Op::IndividualSample { k: 4 };
        let samp = p.add(select, vec![sub, probs]);
        p.mark_output(samp);
        let shared = match extra_reader {
            Some("sddmm") => Some(a1),
            Some("stack") => Some(stack),
            Some("product") => Some(product),
            Some("unary") => Some(last),
            Some("probs") => Some(probs),
            _ => None,
        };
        if let Some(link) = shared {
            let extra = match p.node(link).op {
                Op::Sddmm | Op::EdgeValuesFromDense { .. } => Op::Reduce(ReduceOp::Sum, Axis::Row),
                _ => Op::DenseSoftmaxRows,
            };
            let extra = p.add(extra, vec![link]);
            p.mark_output(extra);
        }
        p
    }

    #[test]
    fn bias_select_fuses_pass_carrying_col_and_unaries_in_order() {
        let r = run(&pass_program(&[UnaryOp::Relu, UnaryOp::Exp], 1, None), &[]);
        assert_eq!(r.bias_select, 1);
        let (prog, removed) = dce::run(&r.program);
        // sddmm, broadcast, stack, product, both unaries, the edge values
        assert_eq!(removed, 7);
        prog.validate().unwrap();
        crate::facts(&prog, &[]).unwrap();
        let fused = prog.node(prog.outputs()[0]);
        let unary = vec![UnaryOp::Relu, UnaryOp::Exp];
        let bias = EdgeBias {
            channels: vec![
                BiasChannel::Dot(1, 2),
                BiasChannel::Map(vec![EdgeMapStep::Broadcast(EltOp::Div, Axis::Row, 3)]),
                BiasChannel::Map(vec![]),
            ],
            combine: Some(BiasCombine {
                w: 4,
                col: 1,
                unary,
            }),
        };
        let k = 4;
        assert_eq!(fused.op, Op::FusedBiasSelect { k, bias });
        // [sub, B, C, rows, W3], renumbered by DCE
        assert_eq!(fused.inputs, vec![2, 3, 4, 5, 6]);
        // No unary at all is a chain too.
        assert_eq!(run(&pass_program(&[], 0, None), &[]).bias_select, 1);
    }

    #[test]
    fn bias_select_refuses_a_shared_link() {
        for link in ["sddmm", "stack", "product", "unary", "probs"] {
            let p = pass_program(&[UnaryOp::Relu], 0, Some(link));
            let r = run(&p, &[]);
            assert_eq!(r.bias_select, 0, "shared {link}");
            assert_eq!(r.program, p, "shared {link}");
        }
    }

    #[test]
    fn bias_select_fuses_a_lone_map_and_refuses_other_ops() {
        // GCN-BS: `pow(0) · arms[row]`, merged into one map by rule 3.
        let bandit = |map_over_map: bool| {
            let mut p = Program::new();
            let g = p.add(Op::InputGraph, vec![]);
            let f = p.add(Op::InputFrontiers, vec![]);
            let sub = p.add(Op::SliceCols, vec![g, f]);
            let arms = p.add(Op::InputVector("bandit".into()), vec![]);
            let ones = p.add(Op::ScalarOp(EltOp::Pow, 0.0), vec![sub]);
            // A chain over an SDDMM is no channel of the grammar.
            let src = match map_over_map {
                true => ones,
                false => {
                    let d = p.add(Op::InputDense("D".into()), vec![]);
                    p.add(Op::Sddmm, vec![sub, d, d])
                }
            };
            let probs = p.add(Op::Broadcast(EltOp::Mul, Axis::Row), vec![src, arms]);
            let samp = p.add(Op::IndividualSample { k: 2 }, vec![sub, probs]);
            p.mark_output(samp);
            p
        };
        let r = run(&bandit(true), &[]);
        assert_eq!((r.edge_map, r.bias_select), (1, 1));
        let (prog, _) = dce::run(&r.program);
        let fused = prog.node(prog.outputs()[0]);
        let steps = vec![
            EdgeMapStep::Scalar(EltOp::Pow, 0.0),
            EdgeMapStep::Broadcast(EltOp::Mul, Axis::Row, 1),
        ];
        let bias = EdgeBias {
            channels: vec![BiasChannel::Map(steps)],
            combine: None,
        };
        let k = 2;
        assert_eq!(fused.op, Op::FusedBiasSelect { k, bias });
        assert_eq!(fused.inputs, vec![2, 3]);
        assert_eq!(run(&bandit(false), &[]).bias_select, 0);
    }
}
