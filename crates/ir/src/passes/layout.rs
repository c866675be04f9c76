//! Data-layout selection (paper §4.3).
//!
//! Chooses, for every structure-producing operator, which sparse format its
//! output should be stored in and whether isolated rows should be compacted
//! away — by brute-force search over the (small) space of assignments,
//! priced end-to-end with the engine cost model on estimated shapes. A
//! chosen format that differs from the operator's natural output format
//! materializes as an explicit [`Op::Convert`] node, a chosen compaction as
//! an [`Op::CompactRows`] node, so the executor needs no side tables.
//!
//! The [`LayoutMode::Greedy`] variant reproduces the DGL-like strategy the
//! paper compares against: each operator independently picks the format its
//! *consumers* like best, ignoring conversion overheads.

use gsampler_engine::{CostModel, Residency};
use gsampler_matrix::Format;

use crate::costing::{self, output_format};
use crate::estimate::{estimate_shapes, GraphStats};
use crate::facts::Space::{Block, Graph};
use crate::facts::{Facts, ValueKind};
use crate::op::Op;
use crate::program::{OpId, Program};

/// Layout-selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutMode {
    /// Leave every operator in its natural format (no pass).
    None,
    /// Per-operator local best, conversions inserted blindly (DGL-like).
    Greedy,
    /// Global brute-force search including conversion and compaction costs.
    CostAware,
}

/// One layout decision.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutChoice {
    /// Name of the operator the decision applies to.
    pub op_name: String,
    /// Chosen storage format for its output.
    pub format: Format,
    /// Whether isolated rows are compacted after it.
    pub compact: bool,
}

/// One layout decision, addressed by the node it applies to in the
/// *pre-layout* program (post CSE/preprocess/fusion/DCE).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayoutDecision {
    /// Choice-point node in the pre-layout program.
    pub op_id: usize,
    /// Chosen storage format for its output.
    pub format: Format,
    /// Whether isolated rows are compacted after it.
    pub compact: bool,
}

/// The product of the layout [`search`] (paper §4.3): everything [`apply`]
/// needs to rewrite a program. An empty decision list means "keep every
/// operator in its natural format" (either there were no choice points, or
/// the search fell back to natural).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayoutPlan {
    /// Per-choice-point decisions; empty = all-natural.
    pub decisions: Vec<LayoutDecision>,
    /// Modeled per-batch time of the chosen program (seconds).
    pub est_time: f64,
    /// Modeled per-batch time with all-natural layouts.
    pub natural_time: f64,
}

/// Outcome of the layout pass.
#[derive(Debug, Clone, Default)]
pub struct LayoutReport {
    /// The decisions, in program order.
    pub choices: Vec<LayoutChoice>,
    /// Conversion nodes inserted.
    pub conversions: usize,
    /// Compaction nodes inserted.
    pub compactions: usize,
    /// Modeled per-batch time of the chosen program (seconds).
    pub est_time: f64,
    /// Modeled per-batch time with all-natural layouts, for comparison.
    pub natural_time: f64,
}

/// Base-graph storage format (the paper fixes CSC: extraction of in-edges
/// is the first step of every sampling program).
const GRAPH_FMT: Format = Format::Csc;

/// Nodes eligible for a format decision; `bool` = compaction allowed —
/// never on rows a `CollectiveSample` selects from, directly or through
/// matrices in its first input's row set (the fact table's `rows`, graph
/// rows lifted to block rows): a compacted matrix loses its isolated rows,
/// on which a node-indexed bias (AS-GCN's `learned + 1e-6`) is positive.
pub fn choice_points(program: &Program, facts: &[Facts]) -> Vec<(OpId, bool)> {
    let row_set = |i: OpId| facts[i].rows.map(|s| if s == Graph { Block } else { s });
    let mut selected = vec![false; program.len()];
    for (id, node) in program.nodes().iter().enumerate().rev() {
        let Some(&first) = node.inputs.first() else {
            continue;
        };
        let keeps_rows = facts[id].kind == ValueKind::Matrix && row_set(id) == row_set(first);
        if matches!(node.op, Op::CollectiveSample { .. }) || selected[id] && keeps_rows {
            selected[first] = true;
        }
    }
    let points = program.nodes().iter().enumerate();
    (points.filter_map(|(id, node)| match node.op {
        Op::SliceCols
        | Op::FusedExtractSelect { .. }
        | Op::IndividualSample { .. }
        | Op::FusedBiasSelect { .. } => Some((id, !selected[id])),
        Op::SliceRows
        | Op::InduceSubgraph
        | Op::CollectiveSample { .. }
        | Op::FusedExtractCollective { .. } => Some((id, false)),
        _ => None,
    }))
    .collect()
}

/// The *search* half of the pass: price the alternatives and return the
/// decisions as a [`LayoutPlan`], without rewriting the program. All the
/// expensive work (candidate enumeration, per-candidate shape estimation
/// and pricing) lives here; [`apply`] is cheap. `facts` is the program's
/// fact table; `slots`, its `Precomputed` values' facts, price candidates.
#[allow(clippy::too_many_arguments)]
pub fn search(
    program: &Program,
    facts: &[Facts],
    slots: &[Facts],
    mode: LayoutMode,
    stats: &GraphStats,
    batch_size: usize,
    cost_model: &CostModel,
    residency: Residency,
) -> LayoutPlan {
    let price = |p: &Program| price(p, slots, stats, batch_size, cost_model, residency);
    let points = choice_points(program, facts);
    if points.is_empty() {
        return priced(program, facts, Vec::new(), &price);
    }
    let decisions = match mode {
        LayoutMode::None => Vec::new(),
        LayoutMode::Greedy => greedy_assignment(program, &points, stats, batch_size, cost_model),
        LayoutMode::CostAware => search_assignment(program, facts, &points, &price),
    };
    let plan = priced(program, facts, decisions, &price);
    // Cost-aware must never be worse than natural; fall back if the search
    // (on estimated shapes) picked something the final pricing dislikes.
    if mode == LayoutMode::CostAware && plan.est_time > plan.natural_time {
        return priced(program, facts, Vec::new(), &price);
    }
    plan
}

/// Price `decisions` on `program`: the plan with its modeled times filled
/// in (an empty list prices as the all-natural layout).
fn priced(
    program: &Program,
    facts: &[Facts],
    decisions: Vec<LayoutDecision>,
    price: &impl Fn(&Program) -> f64,
) -> LayoutPlan {
    let natural_time = price(program);
    let est_time = if decisions.is_empty() {
        natural_time
    } else {
        price(&apply_assignment(program, facts, &decisions))
    };
    LayoutPlan {
        decisions,
        est_time,
        natural_time,
    }
}

/// The *apply* half: rewrite the program according to an already-decided
/// plan. No pricing, no enumeration. `facts` as for [`search`].
pub fn apply(program: &Program, facts: &[Facts], plan: &LayoutPlan) -> (Program, LayoutReport) {
    if plan.decisions.is_empty() {
        let report = LayoutReport {
            est_time: plan.est_time,
            natural_time: plan.natural_time,
            ..LayoutReport::default()
        };
        return (program.clone(), report);
    }
    let rewritten = apply_assignment(program, facts, &plan.decisions);
    let report = LayoutReport {
        choices: plan
            .decisions
            .iter()
            .map(|d| LayoutChoice {
                op_name: program.node(d.op_id).op.name(),
                format: d.format,
                compact: d.compact,
            })
            .collect(),
        conversions: rewritten.count_ops(|op| matches!(op, Op::Convert(..))),
        compactions: rewritten.count_ops(|op| matches!(op, Op::CompactRows)),
        est_time: plan.est_time,
        natural_time: plan.natural_time,
    };
    (rewritten, report)
}

/// Emit the `plan/layout.assignment` trace event for a completed pass;
/// near-free when tracing is off.
pub(crate) fn emit_assignment_event(mode: LayoutMode, report: &LayoutReport) {
    if gsampler_obs::is_enabled() {
        let chosen: Vec<String> = report
            .choices
            .iter()
            .map(|c| {
                format!(
                    "{}={:?}{}",
                    c.op_name,
                    c.format,
                    if c.compact { "+compact" } else { "" }
                )
            })
            .collect();
        gsampler_obs::event(
            "plan",
            "layout.assignment",
            &[
                ("mode", gsampler_obs::Arg::Str(format!("{mode:?}"))),
                ("chosen", gsampler_obs::Arg::Str(chosen.join(", "))),
                ("est_time_s", gsampler_obs::Arg::Num(report.est_time)),
                (
                    "natural_time_s",
                    gsampler_obs::Arg::Num(report.natural_time),
                ),
            ],
        );
    }
}

fn price(
    program: &Program,
    slots: &[Facts],
    stats: &GraphStats,
    batch_size: usize,
    cost_model: &CostModel,
    residency: Residency,
) -> f64 {
    let facts = crate::facts(program, slots).expect("layout candidates are valid programs");
    let shapes = estimate_shapes(program, stats, batch_size);
    let fmts = costing::derive_formats(program, &facts, GRAPH_FMT);
    costing::price_program(program, &facts, &fmts, &shapes, cost_model, residency)
}

/// Insert `CompactRows` / `Convert` nodes realizing `decisions`.
fn apply_assignment(program: &Program, facts: &[Facts], decisions: &[LayoutDecision]) -> Program {
    let mut out = Program::new();
    let mut map: Vec<OpId> = Vec::with_capacity(program.len());
    let mut fmts: Vec<Option<Format>> = Vec::new();

    let push = |out: &mut Program, fmts: &mut Vec<Option<Format>>, op: Op, kind, inputs: Vec<_>| {
        let first = inputs.first().and_then(|&i: &OpId| fmts[i]);
        fmts.push(output_format(&op, kind, first, GRAPH_FMT));
        out.add(op, inputs)
    };

    for (old_id, node) in program.nodes().iter().enumerate() {
        let inputs: Vec<OpId> = node.inputs.iter().map(|&i| map[i]).collect();
        let kind = facts[old_id].kind;
        let mut last = push(&mut out, &mut fmts, node.op.clone(), kind, inputs);
        if let Some(d) = decisions.iter().find(|d| d.op_id == old_id) {
            if d.compact {
                last = push(&mut out, &mut fmts, Op::CompactRows, kind, vec![last]);
            }
            let current = fmts[last].unwrap_or(GRAPH_FMT);
            if current != d.format {
                last = push(&mut out, &mut fmts, Op::Convert(d.format), kind, vec![last]);
            }
        }
        map.push(last);
    }
    for &o in program.outputs() {
        out.mark_output(map[o]);
    }
    out
}

/// Global search: enumerate the cartesian product of per-point options
/// when small, otherwise coordinate descent from the natural assignment.
fn search_assignment(
    program: &Program,
    facts: &[Facts],
    points: &[(OpId, bool)],
    price: &impl Fn(&Program) -> f64,
) -> Vec<LayoutDecision> {
    let options: Vec<Vec<(Format, bool)>> = points
        .iter()
        .map(|&(_, can_compact)| {
            let mut opts = Vec::new();
            for fmt in Format::ALL {
                opts.push((fmt, false));
                if can_compact {
                    opts.push((fmt, true));
                }
            }
            opts
        })
        .collect();

    let space: usize = options.iter().map(|o| o.len()).product();
    // Price the candidate exactly as `apply` will realize it.
    let evaluate = |choice: &[usize]| -> f64 {
        price(&apply_assignment(
            program,
            facts,
            &to_decisions(points, &options, choice),
        ))
    };

    let n = points.len();
    let mut best_choice = vec![0usize; n];
    if space <= 1500 {
        // Full enumeration.
        let mut best_cost = f64::INFINITY;
        let mut idx = vec![0usize; n];
        loop {
            let cost = evaluate(&idx);
            if cost < best_cost {
                best_cost = cost;
                best_choice = idx.clone();
            }
            // Odometer increment.
            let mut i = 0;
            loop {
                if i == n {
                    return to_decisions(points, &options, &best_choice);
                }
                idx[i] += 1;
                if idx[i] < options[i].len() {
                    break;
                }
                idx[i] = 0;
                i += 1;
            }
        }
    } else {
        // Coordinate descent, two sweeps.
        let mut best_cost = evaluate(&best_choice);
        for _ in 0..2 {
            for i in 0..n {
                for oi in 0..options[i].len() {
                    let mut cand = best_choice.clone();
                    cand[i] = oi;
                    let cost = evaluate(&cand);
                    if cost < best_cost {
                        best_cost = cost;
                        best_choice = cand;
                    }
                }
            }
        }
        to_decisions(points, &options, &best_choice)
    }
}

fn to_decisions(
    points: &[(OpId, bool)],
    options: &[Vec<(Format, bool)>],
    choice: &[usize],
) -> Vec<LayoutDecision> {
    (points.iter().zip(options).zip(choice))
        .map(|((&(op_id, _), opts), &oi)| LayoutDecision {
            op_id,
            format: opts[oi].0,
            compact: opts[oi].1,
        })
        .collect()
}

/// DGL-like greedy: each structure node takes the format its consumers
/// prefer most (summed consumer kernel cost, conversions not priced in),
/// never compacts.
fn greedy_assignment(
    program: &Program,
    points: &[(OpId, bool)],
    stats: &GraphStats,
    batch_size: usize,
    cost_model: &CostModel,
) -> Vec<LayoutDecision> {
    let shapes = estimate_shapes(program, stats, batch_size);
    let consumers = program.consumers();
    let mut assignment = Vec::new();
    for &(id, _) in points {
        let mut best = (Format::Csc, f64::INFINITY);
        for fmt in Format::ALL {
            let mut cost = 0.0;
            for &c in &consumers[id] {
                let node = program.node(c);
                let in_fmts: Vec<Option<Format>> = node
                    .inputs
                    .iter()
                    .map(|&i| if i == id { Some(fmt) } else { Some(GRAPH_FMT) })
                    .collect();
                let in_shapes: Vec<_> = node.inputs.iter().map(|&i| shapes[i]).collect();
                if let Some(desc) = costing::kernel_desc(
                    &node.op,
                    &in_fmts,
                    &in_shapes,
                    &shapes[c],
                    Residency::Device,
                    false,
                ) {
                    cost += cost_model.time(&desc);
                }
            }
            if cost < best.1 {
                best = (fmt, cost);
            }
        }
        assignment.push(LayoutDecision {
            op_id: id,
            format: best.0,
            compact: false,
        });
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsampler_engine::DeviceProfile;
    use gsampler_matrix::{Axis, EltOp, ReduceOp};

    fn stats() -> GraphStats {
        GraphStats {
            num_nodes: 2_400_000,
            num_edges: 123_000_000,
            feature_dim: 100,
        }
    }

    fn big_stats() -> GraphStats {
        GraphStats {
            num_nodes: 111_000_000,
            num_edges: 1_600_000_000,
            feature_dim: 128,
        }
    }

    fn model() -> CostModel {
        CostModel::new(DeviceProfile::v100())
    }

    /// LADIES-like: extract, square+reduce, collective sample.
    fn ladies() -> Program {
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let f = p.add(Op::InputFrontiers, vec![]);
        let sub = p.add(Op::SliceCols, vec![g, f]);
        let sq = p.add(Op::ScalarOp(EltOp::Pow, 2.0), vec![sub]);
        let probs = p.add(Op::Reduce(ReduceOp::Sum, Axis::Row), vec![sq]);
        let samp = p.add(Op::CollectiveSample { k: 512 }, vec![sub, probs]);
        let next = p.add(Op::RowNodes, vec![samp]);
        p.mark_output(samp);
        p.mark_output(next);
        p
    }

    const UVA: Residency = Residency::HostUva {
        cache_hit_rate: 0.7,
    };

    /// Search then apply at batch 512 on a V100.
    fn run(
        p: &Program,
        mode: LayoutMode,
        stats: &GraphStats,
        residency: Residency,
    ) -> (Program, LayoutReport) {
        let facts = crate::facts(p, &[]).unwrap();
        let plan = search(p, &facts, &[], mode, stats, 512, &model(), residency);
        apply(p, &facts, &plan)
    }

    #[test]
    fn cost_aware_never_worse_than_natural() {
        let p = ladies();
        let (out, report) = run(&p, LayoutMode::CostAware, &stats(), Residency::Device);
        out.validate().unwrap();
        assert!(report.est_time <= report.natural_time * 1.0001);
    }

    #[test]
    fn cost_aware_compacts_on_huge_graphs() {
        // With 111M rows, per-row reductions dominate unless isolated rows
        // are dropped first. (LADIES no longer may: its rows are selected.)
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let f = p.add(Op::InputFrontiers, vec![]);
        let sub = p.add(Op::SliceCols, vec![g, f]);
        for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Count] {
            let stat = p.add(Op::Reduce(op, Axis::Row), vec![sub]);
            p.mark_output(stat);
        }
        let (out, report) = run(&p, LayoutMode::CostAware, &big_stats(), UVA);
        out.validate().unwrap();
        assert!(
            report.compactions >= 1,
            "expected compaction, report: {report:?}"
        );
        assert!(report.est_time < report.natural_time);
    }

    #[test]
    fn greedy_inserts_conversions_blindly() {
        let p = ladies();
        let (out, _report) = run(&p, LayoutMode::Greedy, &big_stats(), Residency::Device);
        out.validate().unwrap();
        // Greedy never compacts.
        assert_eq!(out.count_ops(|op| matches!(op, Op::CompactRows)), 0);
    }

    #[test]
    fn cost_aware_beats_greedy_on_large_graph() {
        let p = ladies();
        let (_, aware) = run(&p, LayoutMode::CostAware, &big_stats(), UVA);
        let (greedy_prog, _) = run(&p, LayoutMode::Greedy, &big_stats(), UVA);
        let greedy_time = price(&greedy_prog, &[], &big_stats(), 512, &model(), UVA);
        assert!(
            aware.est_time <= greedy_time,
            "aware {} vs greedy {}",
            aware.est_time,
            greedy_time
        );
    }

    #[test]
    fn no_choice_points_is_identity() {
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let deg = p.add(Op::Reduce(ReduceOp::Count, Axis::Col), vec![g]);
        p.mark_output(deg);
        let (out, report) = run(&p, LayoutMode::CostAware, &stats(), Residency::Device);
        assert_eq!(out, p);
        assert!(report.choices.is_empty());
    }

    #[test]
    fn compact_on_fused_sample_is_a_compact_rows_node() {
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let f = p.add(Op::InputFrontiers, vec![]);
        let samp = p.add(Op::FusedExtractSelect { k: 10 }, vec![g, f]);
        let next = p.add(Op::RowNodes, vec![samp]);
        p.mark_output(samp);
        p.mark_output(next);
        let compact = LayoutDecision {
            op_id: samp,
            format: GRAPH_FMT,
            compact: true,
        };
        let out = apply_assignment(&p, &crate::facts(&p, &[]).unwrap(), &[compact]);
        out.validate().unwrap();
        let compacted = out
            .find_op(|op| matches!(op, Op::CompactRows))
            .expect("compaction realised as a node");
        assert!(matches!(
            out.node(out.node(compacted).inputs[0]).op,
            Op::FusedExtractSelect { k: 10 }
        ));
        // Both outputs follow the compacted matrix.
        assert_eq!(out.outputs()[0], compacted);
        assert_eq!(out.node(out.outputs()[1]).inputs, vec![compacted]);
    }

    #[test]
    fn no_compaction_under_a_collective_select() {
        // LADIES' slice is selected from directly, AS-GCN-like through a
        // map; a node-wise slice may still compact.
        let p = ladies();
        let points = |p: &Program| choice_points(p, &crate::facts(p, &[]).unwrap());
        assert_eq!(points(&p), vec![(2, false), (5, false)]);
        let mut q = Program::new();
        let g = q.add(Op::InputGraph, vec![]);
        let f = q.add(Op::InputFrontiers, vec![]);
        let sub = q.add(Op::SliceCols, vec![g, f]);
        let sq = q.add(Op::ScalarOp(EltOp::Pow, 2.0), vec![sub]);
        let samp = q.add(Op::CollectiveSample { k: 8 }, vec![sq]);
        let sub2 = q.add(Op::SliceCols, vec![g, f]);
        let picks = q.add(Op::IndividualSample { k: 2 }, vec![sub2]);
        q.mark_output(samp);
        q.mark_output(picks);
        let want = vec![(sub, false), (samp, false), (sub2, true), (picks, true)];
        assert_eq!(points(&q), want);
        // A slice keeps its input's rows, lifted from graph to block IDs: a
        // whole-graph sample selected from through a slice may not compact.
        let mut r = Program::new();
        let g = r.add(Op::InputGraph, vec![]);
        let f = r.add(Op::InputFrontiers, vec![]);
        let picks = r.add(Op::IndividualSample { k: 2 }, vec![g]);
        let sub = r.add(Op::SliceCols, vec![picks, f]);
        let samp = r.add(Op::CollectiveSample { k: 8 }, vec![sub]);
        r.mark_output(samp);
        assert_eq!(
            points(&r),
            vec![(picks, false), (sub, false), (samp, false)]
        );
    }

    #[test]
    fn outputs_follow_inserted_nodes() {
        let p = ladies();
        let (out, _) = run(&p, LayoutMode::CostAware, &big_stats(), Residency::Device);
        // Outputs must reference the *final* (possibly converted/compacted)
        // versions: validate catches dangling; also check count unchanged.
        assert_eq!(out.outputs().len(), 2);
        out.validate().unwrap();
    }
}
