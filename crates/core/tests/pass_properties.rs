//! Property-based tests of the optimization passes: randomly generated
//! deterministic compute programs must produce bit-identical results under
//! every optimization configuration, and random sampling programs must
//! keep their structural guarantees, 24 seeded cases per property.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// The `n` cases of the property `name`, each drawing from a generator
/// seeded with FNV-1a of the name mixed with the case index.
fn cases(name: &str, n: u64) -> impl Iterator<Item = StdRng> {
    let fnv = |h: u64, b: u8| (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
    let seed = name.bytes().fold(0xCBF2_9CE4_8422_2325, fnv);
    (0..n).map(move |i| StdRng::seed_from_u64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

fn arb_step(rng: &mut StdRng) -> Step {
    match rng.gen_range(0..6) {
        0 => Step::Pow(rng.gen_range(1.0..3.0)),
        1 => Step::MulScalar(rng.gen_range(0.2..3.0)),
        2 => Step::AddScalar(rng.gen_range(0.1..2.0)),
        3 => Step::Unary(rng.gen_range(0..3)),
        4 => Step::DivColSum,
        _ => Step::MulRowSum,
    }
}

/// Between 1 and 7 frontiers of the 48-node test graph.
fn arb_picks(rng: &mut StdRng) -> Vec<u32> {
    (0..rng.gen_range(1..8))
        .map(|_| rng.gen_range(0..48))
        .collect()
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

/// Node-wise sampling: up to `k` in-neighbours per frontier, their rows
/// the next frontiers.
fn node_wise(k: usize) -> gsampler_core::builder::Layer {
    let b = LayerBuilder::new();
    let samp = b
        .graph()
        .slice_cols(&b.frontiers())
        .individual_sample(k, None);
    b.output(&samp);
    b.output_next_frontiers(&samp.row_nodes());
    b.build()
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

#[test]
fn passes_preserve_random_compute_chains() {
    for mut rng in cases("passes_preserve_random_compute_chains", 24) {
        let steps: Vec<Step> = (0..rng.gen_range(0..6))
            .map(|_| arb_step(&mut rng))
            .collect();
        let picks = arb_picks(&mut rng);
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
            assert_eq!(got.len(), reference.len());
            for (g, r) in got.iter().zip(&reference) {
                assert!(
                    (g - r).abs() <= 1e-3 * (1.0 + r.abs()),
                    "pass changed value: {g} vs {r} (steps {steps:?})"
                );
            }
        }
    }
}

#[test]
fn sampled_programs_keep_guarantees_under_all_configs() {
    for mut rng in cases("sampled_programs_keep_guarantees_under_all_configs", 24) {
        let (k, picks) = (rng.gen_range(1usize..5), arb_picks(&mut rng));
        let layout = [LayoutMode::Greedy, LayoutMode::CostAware][rng.gen::<bool>() as usize];
        let graph = test_graph();
        let opt = OptConfig {
            layout,
            ..OptConfig::all()
        };
        let config = SamplerConfig {
            opt,
            batch_size: picks.len(),
            ..SamplerConfig::new()
        };
        let sampler = compile(graph.clone(), vec![node_wise(k)], config).expect("compile");
        let out = sampler.sample_batch(&picks, &Bindings::new()).expect("run");
        let m = out.layers[0][0].as_matrix().unwrap();
        assert_eq!(m.global_col_ids(), picks);
        let base = graph.matrix.global_edges();
        for (r, c, _) in m.global_edges() {
            assert!(base.iter().any(|e| (e.0, e.1) == (r, c)));
        }
        for d in m.data.col_degrees() {
            assert!(d <= k);
        }
    }
}

#[test]
fn super_batch_grouping_is_sound_for_random_groups() {
    for mut rng in cases("super_batch_grouping_is_sound_for_random_groups", 24) {
        // Random uneven groups of consecutive nodes.
        let mut nodes = (0u32..).map(|v| v % 48);
        let groups: Vec<Vec<u32>> = (0..rng.gen_range(2..5))
            .map(|_| nodes.by_ref().take(rng.gen_range(1..6)).collect())
            .collect();
        let k = rng.gen_range(1usize..4);
        let graph = test_graph();
        let config = SamplerConfig {
            batch_size: 8,
            ..SamplerConfig::new()
        };
        let sampler = compile(graph.clone(), vec![node_wise(k)], config).expect("compile");
        let seeds = 0..groups.len() as u64;
        let mut rngs: Vec<StdRng> = seeds.map(StdRng::seed_from_u64).collect();
        let outs = sampler
            .sample_groups(groups.clone(), &Bindings::new(), &mut rngs)
            .expect("grouped run");
        assert_eq!(outs.len(), groups.len());
        for (g, out) in groups.iter().zip(&outs) {
            let m = out.layers[0][0].as_matrix().unwrap();
            assert_eq!(&m.global_col_ids(), g);
            for d in m.data.col_degrees() {
                assert!(d <= k);
            }
            // Next frontiers stay inside the graph's node range.
            let next = out.layers[0][1].as_nodes().unwrap();
            assert!(next.iter().all(|&v| (v as usize) < graph.num_nodes()));
        }
    }
}
