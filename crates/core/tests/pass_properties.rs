//! Property-based tests of the optimization passes: randomly generated
//! deterministic compute programs must produce bit-identical results under
//! every optimization configuration, and random sampling programs must
//! keep their structural guarantees.

use std::sync::Arc;

use proptest::prelude::*;

use gsampler_core::builder::{LayerBuilder, Mat, Vect};
use gsampler_core::{compile, Axis, Bindings, EltOp, Graph, LayoutMode, OptConfig, SamplerConfig};
use gsampler_graphs::{Dataset, DatasetKind};
use gsampler_matrix::eltwise::UnaryOp;

/// One step of a randomly generated compute chain on the extracted
/// sub-matrix.
#[derive(Debug, Clone)]
enum Step {
    Pow(f32),
    MulScalar(f32),
    AddScalar(f32),
    Unary(u8),
    DivColSum,
    MulRowSum,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1.0f32..3.0).prop_map(Step::Pow),
        (0.2f32..3.0).prop_map(Step::MulScalar),
        (0.1f32..2.0).prop_map(Step::AddScalar),
        (0u8..3).prop_map(Step::Unary),
        Just(Step::DivColSum),
        Just(Step::MulRowSum),
    ]
}

fn apply_step(m: &Mat, step: &Step) -> Mat {
    match step {
        Step::Pow(s) => m.pow(*s),
        Step::MulScalar(s) => m.scalar(EltOp::Mul, *s),
        Step::AddScalar(s) => m.scalar(EltOp::Add, *s),
        Step::Unary(u) => m.unary(match u {
            0 => UnaryOp::Relu,
            1 => UnaryOp::Abs,
            _ => UnaryOp::Sqrt,
        }),
        Step::DivColSum => {
            let s: Vect = m.sum(Axis::Col).scalar(EltOp::Add, 1.0);
            m.div(&s, Axis::Col)
        }
        Step::MulRowSum => {
            let s: Vect = m.sum(Axis::Row).scalar(EltOp::Add, 1.0);
            m.broadcast(&s, EltOp::Mul, Axis::Row)
        }
    }
}

fn test_graph() -> Arc<Graph> {
    let mut edges = Vec::new();
    for v in 0..48u32 {
        for d in 1..5u32 {
            edges.push(((v * 7 + d * 11) % 48, v, 0.2 + (d as f32) * 0.3));
        }
    }
    Arc::new(Graph::from_edges("prop", 48, &edges, true).unwrap())
}

/// Build a deterministic program: extract, apply the chain, reduce to a
/// per-frontier vector output.
fn build_program(steps: &[Step]) -> gsampler_core::builder::Layer {
    let b = LayerBuilder::new();
    let a = b.graph();
    let f = b.frontiers();
    let mut m = a.slice_cols(&f);
    for step in steps {
        m = apply_step(&m, step);
    }
    let out = m.sum(Axis::Col);
    b.output(&out);
    b.build()
}

fn run_with(graph: &Arc<Graph>, steps: &[Step], opt: OptConfig, frontiers: &[u32]) -> Vec<f32> {
    let sampler = compile(
        graph.clone(),
        vec![build_program(steps)],
        SamplerConfig {
            opt,
            batch_size: frontiers.len().max(1),
            ..SamplerConfig::new()
        },
    )
    .expect("compile");
    let out = sampler
        .sample_batch(frontiers, &Bindings::new())
        .expect("run");
    out.layers[0][0].as_vector().unwrap().to_vec()
}

/// LADIES (`square`) or FastGCN as `gsampler-algos` records them.
fn layer_wise(square: bool) -> gsampler_core::builder::Layer {
    let b = LayerBuilder::new();
    let a = b.graph();
    let sub = a.slice_cols(&b.frontiers());
    let bias = match square {
        true => sub.pow(2.0).sum(Axis::Row),
        false => a.degrees(Axis::Row),
    };
    let sample = sub.collective_sample(64, Some(&bias));
    let out = sample.div(&bias.gather_row_bias(&sample, &sub), Axis::Row);
    b.output(&out);
    b.output_next_frontiers(&out.row_nodes());
    b.build()
}

#[test]
fn layer_wise_layers_compile_to_the_fused_extracts() {
    use gsampler_ir::Op;
    let pp = Dataset::generate(DatasetKind::OgbnPapers, 0.05, 2023);
    let graph = Arc::new(pp.graph);
    for square in [true, false] {
        let config = SamplerConfig {
            batch_size: 512,
            ..SamplerConfig::new()
        };
        let sampler = compile(graph.clone(), vec![layer_wise(square)], config).unwrap();
        let program = &sampler.layers()[0].optimized.program;
        let count = |pred: fn(&Op) -> bool| program.count_ops(pred);
        assert_eq!(count(|op| matches!(op, Op::SliceCols)), 0);
        assert_eq!(count(|op| matches!(op, Op::CompactRows)), 0);
        assert_eq!(count(|op| matches!(op, Op::ScalarOp(EltOp::Pow, _))), 0);
        assert_eq!(
            count(|op| matches!(op, Op::FusedExtractCollective { .. })),
            1
        );
        let want = usize::from(square);
        assert_eq!(
            count(|op| matches!(op, Op::FusedExtractReduce { .. })),
            want
        );
        assert_eq!(count(|op| matches!(op, Op::Precomputed { .. })), 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn passes_preserve_random_compute_chains(
        steps in proptest::collection::vec(arb_step(), 0..6),
        picks in proptest::collection::vec(0u32..48, 1..8),
    ) {
        let graph = test_graph();
        let reference = run_with(&graph, &steps, OptConfig::plain(), &picks);
        for opt in [
            OptConfig::compute_only(),
            OptConfig::all(),
            OptConfig {
                fusion: false,
                layout: LayoutMode::CostAware,
                ..OptConfig::all()
            },
            OptConfig {
                layout: LayoutMode::Greedy,
                ..OptConfig::all()
            },
        ] {
            let got = run_with(&graph, &steps, opt, &picks);
            prop_assert_eq!(got.len(), reference.len());
            for (g, r) in got.iter().zip(&reference) {
                prop_assert!(
                    (g - r).abs() <= 1e-3 * (1.0 + r.abs()),
                    "pass changed value: {} vs {} (steps {:?})",
                    g, r, &steps
                );
            }
        }
    }

    #[test]
    fn sampled_programs_keep_guarantees_under_all_configs(
        k in 1usize..5,
        picks in proptest::collection::vec(0u32..48, 1..8),
        layout_aware in any::<bool>(),
    ) {
        let graph = test_graph();
        let build = || {
            let b = LayerBuilder::new();
            let a = b.graph();
            let f = b.frontiers();
            let sub = a.slice_cols(&f);
            let samp = sub.individual_sample(k, None);
            let next = samp.row_nodes();
            b.output(&samp);
            b.output_next_frontiers(&next);
            b.build()
        };
        let opt = OptConfig {
            layout: if layout_aware { LayoutMode::CostAware } else { LayoutMode::Greedy },
            ..OptConfig::all()
        };
        let sampler = compile(
            graph.clone(),
            vec![build()],
            SamplerConfig { opt, batch_size: picks.len(), ..SamplerConfig::new() },
        ).expect("compile");
        let out = sampler.sample_batch(&picks, &Bindings::new()).expect("run");
        let m = out.layers[0][0].as_matrix().unwrap();
        prop_assert_eq!(m.global_col_ids(), picks.clone());
        let base: std::collections::HashSet<(u32, u32)> = graph
            .matrix
            .global_edges()
            .into_iter()
            .map(|(r, c, _)| (r, c))
            .collect();
        for (r, c, _) in m.global_edges() {
            prop_assert!(base.contains(&(r, c)));
        }
        for d in m.data.col_degrees() {
            prop_assert!(d <= k);
        }
    }

    #[test]
    fn super_batch_grouping_is_sound_for_random_groups(
        sizes in proptest::collection::vec(1usize..6, 2..5),
        k in 1usize..4,
    ) {
        let graph = test_graph();
        let b = LayerBuilder::new();
        let a = b.graph();
        let f = b.frontiers();
        let samp = a.slice_cols(&f).individual_sample(k, None);
        let next = samp.row_nodes();
        b.output(&samp);
        b.output_next_frontiers(&next);
        let sampler = compile(
            graph.clone(),
            vec![b.build()],
            SamplerConfig { batch_size: 8, ..SamplerConfig::new() },
        ).expect("compile");
        // Random uneven groups.
        let mut start = 0u32;
        let groups: Vec<Vec<u32>> = sizes
            .iter()
            .map(|&s| {
                let g: Vec<u32> = (start..start + s as u32).map(|v| v % 48).collect();
                start += s as u32;
                g
            })
            .collect();
        use rand::SeedableRng;
        let mut rngs: Vec<rand::rngs::StdRng> = (0..groups.len() as u64)
            .map(rand::rngs::StdRng::seed_from_u64)
            .collect();
        let outs = sampler
            .sample_groups(groups.clone(), &Bindings::new(), &mut rngs)
            .expect("grouped run");
        prop_assert_eq!(outs.len(), groups.len());
        for (g, out) in groups.iter().zip(&outs) {
            let m = out.layers[0][0].as_matrix().unwrap();
            prop_assert_eq!(&m.global_col_ids(), g);
            for d in m.data.col_degrees() {
                prop_assert!(d <= k);
            }
            // Next frontiers stay inside the graph's node range.
            let next = out.layers[0][1].as_nodes().unwrap();
            prop_assert!(next.iter().all(|&v| (v as usize) < graph.num_nodes()));
        }
    }
}
