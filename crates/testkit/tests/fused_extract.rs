//! The fused extracts against the chains they replace, on arbitrary graphs
//! at super-batch factors 1, 2, 3 and 16 (the suite also runs at
//! `GSAMPLER_THREADS=2`): `FusedExtractReduce` is `SliceCols` + `Reduce` to
//! the bit, and `FusedExtractCollective` is `SliceCols` +
//! `CollectiveSample` field by field, errors included.

use gsampler_core::kernels::{self, ExecCtx};
use gsampler_core::{Bindings, Graph, ReduceOp, Value};
use gsampler_ir::op::EdgeMapStep;
use gsampler_ir::Op;
use gsampler_matrix::{Axis, EltOp, NodeId};
use gsampler_testkit::gen::GraphSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uneven frontier groups over `n` nodes: an empty one, repeats inside a
/// group, and the same node in several groups.
fn groups(rng: &mut StdRng, s: usize, n: usize) -> Vec<Vec<NodeId>> {
    (0..s)
        .map(|b| match b % 4 {
            1 => Vec::new(),
            _ => (0..rng.gen_range(1..6))
                .map(|_| rng.gen_range(0..n) as NodeId)
                .collect(),
        })
        .collect()
}

/// Evaluate `op` with `s` fresh group streams seeded alike for every call.
fn eval(op: &Op, inputs: &[&Value], ctx: &ExecCtx<'_>) -> gsampler_core::Result<Value> {
    let mut rngs: Vec<StdRng> = (0..ctx.s)
        .map(|b| StdRng::seed_from_u64(b as u64))
        .collect();
    kernels::run(op, inputs, ctx, &mut rngs)
}

/// Every case: an arbitrary graph, `A` and `A ** 2` on it, and a context
/// per factor.
fn for_each_case(mut check: impl FnMut(&Graph, &[Value; 2], &ExecCtx<'_>, &mut StdRng)) {
    let mut rng = StdRng::seed_from_u64(0xFE5E);
    for _ in 0..24 {
        let spec = GraphSpec::arbitrary(&mut rng);
        let graph = spec.build();
        let bindings = Bindings::new();
        let plain = ExecCtx::plain(&graph, &bindings);
        let a = (*graph.matrix_value()).clone();
        let steps = vec![EdgeMapStep::Scalar(EltOp::Pow, 2.0)];
        let squared = eval(&Op::FusedEdgeMap { steps }, &[&a], &plain).unwrap();
        let inputs = [a, squared];
        for s in [1, 2, 3, 16] {
            let groups = groups(&mut rng, s, graph.num_nodes());
            let mut col_offsets = vec![0];
            groups
                .iter()
                .for_each(|g| col_offsets.push(col_offsets.last().unwrap() + g.len()));
            let frontiers: Vec<NodeId> = groups.concat();
            let ctx = ExecCtx {
                s,
                col_offsets: &col_offsets,
                concat_frontiers: &frontiers,
                ..ExecCtx::plain(&graph, &bindings)
            };
            check(&graph, &inputs, &ctx, &mut rng);
        }
    }
}

#[test]
fn extract_reduce_is_slice_then_reduce_to_the_bit() {
    for_each_case(|_, inputs, ctx, _| {
        let f = Value::Nodes(ctx.concat_frontiers.to_vec());
        let [a, squared] = inputs;
        let steps = vec![EdgeMapStep::Scalar(EltOp::Pow, 2.0)];
        for reduce in [
            ReduceOp::Sum,
            ReduceOp::Count,
            ReduceOp::Max,
            ReduceOp::Mean,
        ] {
            let bits = |v: Value| -> Vec<u32> {
                v.as_vector().unwrap().iter().map(|x| x.to_bits()).collect()
            };
            let fused =
                |m: &Value| bits(eval(&Op::FusedExtractReduce { reduce }, &[m, &f], ctx).unwrap());
            let sub = eval(&Op::SliceCols, &[a, &f], ctx).unwrap();
            let sliced = eval(&Op::Reduce(reduce, Axis::Row), &[&sub], ctx).unwrap();
            assert_eq!(fused(a), bits(sliced), "{reduce:?} at factor {}", ctx.s);
            // The hoisted `A ** 2` against the per-batch map of the slice.
            let per_batch = Op::FusedEdgeMapReduce {
                steps: steps.clone(),
                reduce,
                axis: Axis::Row,
            };
            let mapped = eval(&per_batch, &[&sub], ctx).unwrap();
            assert_eq!(
                fused(squared),
                bits(mapped),
                "{reduce:?} of A^2 at factor {}",
                ctx.s
            );
        }
    });
}

#[test]
fn extract_collective_is_slice_then_collective_sample_field_by_field() {
    for_each_case(|graph, inputs, ctx, rng| {
        let f = Value::Nodes(ctx.concat_frontiers.to_vec());
        let [a, squared] = inputs;
        let sub = eval(&Op::SliceCols, &[a, &f], ctx).unwrap();
        let sum = Op::FusedExtractReduce {
            reduce: ReduceOp::Sum,
        };
        let extract_space = eval(&sum, &[squared, &f], ctx).unwrap();
        let n = graph.num_nodes();
        let mut draw = |len: usize, zeros: f64| -> Value {
            let weight = |_| {
                if rng.gen_bool(zeros) {
                    0.0
                } else {
                    rng.gen_range(0.1f32..4.0)
                }
            };
            Value::Vector((0..len).map(weight).collect())
        };
        let mut invalid = draw(n, 0.0);
        if let Value::Vector(v) = &mut invalid {
            v[n / 2] = f32::NAN;
        }
        let (rows, _) = sub.as_matrix().unwrap().shape();
        let biases = [extract_space, draw(n, 0.2), draw(rows, 0.5), invalid];
        for (bias, k) in biases.iter().zip([1, 3, 2, 64]) {
            let fused = eval(&Op::FusedExtractCollective { k }, &[a, &f, bias], ctx);
            let sliced = eval(&Op::CollectiveSample { k }, &[&sub, bias], ctx);
            let what = format!("k {k}, bias of {}, factor {}", bias.bytes() / 4, ctx.s);
            let (fused, sliced) = match (fused, sliced) {
                (Ok(fused), Ok(sliced)) => (fused, sliced),
                (fused, sliced) => {
                    let (fused, sliced) = (fused.unwrap_err(), sliced.unwrap_err());
                    assert_eq!(format!("{fused:?}"), format!("{sliced:?}"), "{what}");
                    continue;
                }
            };
            assert_eq!(fused.as_matrix(), sliced.as_matrix(), "{what}");
            // The source-less bias gather reads what the aligned one did.
            let gather = |inputs: &[&Value]| eval(&Op::GatherRowBias, inputs, ctx).unwrap();
            let by_id = gather(&[bias, &fused]);
            assert_eq!(
                by_id.as_vector(),
                gather(&[bias, &sliced, &sub]).as_vector(),
                "{what}"
            );
        }
    });
}
