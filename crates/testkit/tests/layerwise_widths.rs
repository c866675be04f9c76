//! The layer-wise kernels at pool widths 1 and 2. At super-batch factor 16,
//! on a graph large enough that every size gate opens, `FusedExtractReduce`
//! and `FusedExtractCollective` return the same bits at both widths, equal
//! to the unfused `SliceCols` -> `Reduce` / `CollectiveSample` chains, and
//! at width 2 every call of either kernel dispatches at least one pool
//! region — so the equality is not the single-thread path compared with
//! itself.

use gsampler_core::kernels::{self, ExecCtx};
use gsampler_core::{Bindings, Value};
use gsampler_graphs::{Dataset, DatasetKind};
use gsampler_ir::op::EdgeMapStep;
use gsampler_ir::Op;
use gsampler_matrix::{Axis, EltOp, GraphMatrix, NodeId, ReduceOp};
use gsampler_runtime::pool_metrics;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FACTOR: usize = 16;
const GROUP: usize = 32;
const K: usize = 64;

/// Evaluate `op` with `ctx.s` group streams seeded alike for every call,
/// and the pool regions it dispatched.
fn eval(op: &Op, inputs: &[&Value], ctx: &ExecCtx<'_>) -> (Value, u64) {
    let mut rngs: Vec<StdRng> = (0..ctx.s)
        .map(|b| StdRng::seed_from_u64(0x1A1E5 ^ b as u64))
        .collect();
    let before = pool_metrics();
    let out = kernels::run(op, inputs, ctx, &mut rngs).unwrap_or_else(|e| panic!("{op:?}: {e}"));
    (out, pool_metrics().since(&before).regions)
}

fn bits(v: &Value) -> Vec<u32> {
    v.as_vector().unwrap().iter().map(|x| x.to_bits()).collect()
}

/// What one width produced: the fused reduce of `A` and of `A ** 2`, and
/// the fused collective sample under `A ** 2`'s extract-space bias.
struct Run {
    reduced: Vec<Vec<u32>>,
    sampled: GraphMatrix,
}

/// Run both fused kernels at the current width, check them against the
/// unfused chains, and return their outputs and the fewest regions any
/// fused call dispatched.
fn run_at_width(ctx: &ExecCtx<'_>, a: &Value) -> (Run, u64) {
    let f = Value::Nodes(ctx.concat_frontiers.to_vec());
    let (sub, _) = eval(&Op::SliceCols, &[a, &f], ctx);
    let pow2 = vec![EdgeMapStep::Scalar(EltOp::Pow, 2.0)];
    let (squared, _) = eval(&Op::FusedEdgeMap { steps: pow2 }, &[a], ctx);
    let sum = Op::FusedExtractReduce {
        reduce: ReduceOp::Sum,
    };
    let mut regions = Vec::new();
    let mut reduced = Vec::new();
    for m in [a, &squared] {
        let (fused, r) = eval(&sum, &[m, &f], ctx);
        let (sliced_m, _) = eval(&Op::SliceCols, &[m, &f], ctx);
        let (unfused, _) = eval(&Op::Reduce(ReduceOp::Sum, Axis::Row), &[&sliced_m], ctx);
        assert_eq!(bits(&fused), bits(&unfused), "fused extract-reduce");
        regions.push(r);
        reduced.push(bits(&fused));
    }
    let (bias, _) = eval(&sum, &[&squared, &f], ctx);
    let (fused, r) = eval(&Op::FusedExtractCollective { k: K }, &[a, &f, &bias], ctx);
    let (unfused, _) = eval(&Op::CollectiveSample { k: K }, &[&sub, &bias], ctx);
    let sampled = fused.as_matrix().unwrap().clone();
    assert_eq!(
        Some(&sampled),
        unfused.as_matrix(),
        "fused extract-collective"
    );
    assert!(sampled.data.nnz() > 0, "the sample kept no edge");
    regions.push(r);
    let fewest = regions.into_iter().min().unwrap();
    (Run { reduced, sampled }, fewest)
}

#[test]
fn layerwise_kernels_split_by_segment_with_identical_bits() {
    // The only test in this binary: setting `GSAMPLER_THREADS` between
    // runs races no other test thread.
    let saved = std::env::var("GSAMPLER_THREADS").ok();
    let d = Dataset::generate(DatasetKind::OgbnPapers, 0.05, 7);
    let frontiers: Vec<NodeId> = d.frontiers[..FACTOR * GROUP].to_vec();
    let col_offsets: Vec<usize> = (0..=FACTOR).map(|b| b * GROUP).collect();
    let bindings = Bindings::new();
    let ctx = ExecCtx {
        s: FACTOR,
        col_offsets: &col_offsets,
        concat_frontiers: &frontiers,
        ..ExecCtx::plain(&d.graph, &bindings)
    };
    let a = (*d.graph.matrix_value()).clone();
    let mut runs = Vec::new();
    for threads in ["1", "2"] {
        std::env::set_var("GSAMPLER_THREADS", threads);
        runs.push((threads, run_at_width(&ctx, &a)));
    }
    match saved {
        Some(v) => std::env::set_var("GSAMPLER_THREADS", v),
        None => std::env::remove_var("GSAMPLER_THREADS"),
    }
    let [(_, (one, _)), (_, (two, regions))] = &runs[..] else {
        unreachable!("two widths")
    };
    assert_eq!(one.reduced, two.reduced, "extract-reduce across widths");
    assert_eq!(one.sampled, two.sampled, "extract-collective across widths");
    assert!(
        *regions >= 1,
        "a fused layer-wise call at width 2 ran without a pool region"
    );
}
