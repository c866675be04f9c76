//! Fixed-seed differential matrix: every registered algorithm × every
//! single-pass ablation × super-batched execution, on a hand-picked set
//! of adversarial graph shapes. The fuzzer explores randomly; this test
//! pins a deterministic slice of the same oracle into tier-1 CI.

use gsampler_algos::all_algorithms;
use gsampler_core::builder::Layer;
use gsampler_core::{compile, Graph};
use gsampler_engine::{CostModel, DeviceProfile};
use gsampler_ir::passes::layout::{self, choice_points, LayoutDecision, LayoutPlan};
use gsampler_ir::passes::{run_passes, LayoutMode, OptConfig};
use gsampler_matrix::Format;
use gsampler_testkit::drive::{drive_sampler, run_algorithm, sampler_config};
use gsampler_testkit::fingerprint::of_values;
use gsampler_testkit::gen::{GraphSpec, Topology};
use gsampler_testkit::oracle::{oracle_hyper, Oracle};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn specs() -> Vec<GraphSpec> {
    vec![
        // Skewed multigraph with self-loops: the common adversarial case.
        GraphSpec {
            topology: Topology::PowerLaw,
            nodes: 48,
            edges: 200,
            weighted: true,
            self_loops: true,
            duplicate_edges: true,
            dangling: false,
            seed: 0xA11CE,
        },
        // Uniform with a dangling tail: empty columns end-to-end.
        GraphSpec {
            topology: Topology::Uniform,
            nodes: 40,
            edges: 120,
            weighted: false,
            self_loops: false,
            duplicate_edges: false,
            dangling: true,
            seed: 0xB0B,
        },
        // Star: one hub column with maximal degree, spokes with degree 1.
        GraphSpec {
            topology: Topology::Star,
            nodes: 24,
            edges: 0,
            weighted: true,
            self_loops: false,
            duplicate_edges: false,
            dangling: false,
            seed: 0xC0FFEE,
        },
        // Chain: minimal degrees, every select clamps to the column size.
        GraphSpec {
            topology: Topology::Chain,
            nodes: 12,
            edges: 0,
            weighted: false,
            self_loops: true,
            duplicate_edges: false,
            dangling: false,
            seed: 0xD00D,
        },
    ]
}

#[test]
fn all_algorithms_agree_across_pass_ablations() {
    for spec in specs() {
        let oracle = Oracle::new(spec.build(), 0x5EED);
        let frontiers = spec.frontiers(8);
        if let Err(d) = oracle.check_all(&frontiers, None, None) {
            panic!("divergence on {}: {d}", spec.describe());
        }
    }
}

#[test]
fn ablation_set_toggles_every_pass_exactly_once() {
    let abl = OptConfig::ablations();
    let names: Vec<&str> = abl.iter().map(|(n, _)| *n).collect();
    assert!(names.contains(&"all") && names.contains(&"plain"));
    let find = |n: &str| &abl.iter().find(|(name, _)| *name == n).unwrap().1;
    assert!(!find("no-dce").dce && find("no-dce").cse);
    assert!(!find("no-cse").cse && find("no-cse").dce);
    assert!(!find("no-preprocess").preprocess);
    assert!(!find("no-fusion").fusion);
    assert_eq!(find("layout-greedy").layout, LayoutMode::Greedy);
    assert_eq!(find("layout-none").layout, LayoutMode::None);
    assert_eq!(abl.len(), 8, "one entry per pass toggle: {names:?}");
    // Every ablation keeps super-batching off; the oracle checks that
    // path separately (different RNG stream keying by design).
    assert!(abl.iter().all(|(_, c)| c.super_batch == 1));
}

/// `layer` as the passes leave it with the layout off (pre-processing too,
/// so it reads no precomputed slot), every choice point then laid out in
/// `format` and compacted wherever `compact` and `choice_points` allow.
fn forced_layout(
    graph: &Graph,
    layer: &Layer,
    compact: bool,
    format: Format,
    batch: usize,
) -> Layer {
    let opt = OptConfig {
        preprocess: false,
        layout: LayoutMode::None,
        ..OptConfig::all()
    };
    let model = CostModel::new(DeviceProfile::v100());
    let program = run_passes(
        &layer.program,
        &opt,
        &graph.stats(),
        batch,
        &model,
        graph.residency,
    );
    let decide = |(op_id, allowed)| LayoutDecision {
        op_id,
        format,
        compact: compact && allowed,
    };
    let decisions = choice_points(&program.program, &program.facts)
        .into_iter()
        .map(decide);
    let plan = LayoutPlan {
        decisions: decisions.collect(),
        ..LayoutPlan::default()
    };
    Layer {
        program: layout::apply(&program.program, &program.facts, &plan).0,
        ..layer.clone()
    }
}

#[test]
fn forced_layouts_are_invisible() {
    // The layout search rarely compacts a small graph, so force it: every
    // compaction `choice_points` allows, then every point in each
    // non-natural format, run with no passes, samples what the all-on
    // pipeline does, for all 15 algorithms. (The parent's choice points
    // fail the compacting leg on FastGCN and AS-GCN.)
    let h = oracle_hyper();
    let mut rng = StdRng::seed_from_u64(0x1A70);
    let randoms: Vec<GraphSpec> = (0..12).map(|_| GraphSpec::arbitrary(&mut rng)).collect();
    let raw = OptConfig {
        layout: LayoutMode::None,
        ..OptConfig::plain()
    };
    for spec in specs().into_iter().chain(randoms) {
        let (graph, frontiers) = (spec.build(), spec.frontiers(8));
        let config = |opt: &OptConfig| sampler_config(opt.clone(), 0x5EED, frontiers.len());
        for algo in all_algorithms(&h) {
            let all = config(&OptConfig::all());
            let reference = run_algorithm(&graph, algo.name, &h, all, &frontiers, None);
            let reference = of_values(&reference.unwrap().unwrap());
            for (compact, format) in [
                (true, Format::Csc),
                (false, Format::Csr),
                (false, Format::Coo),
            ] {
                let forced = algo
                    .layers
                    .iter()
                    .map(|l| forced_layout(&graph, l, compact, format, frontiers.len()));
                let sampler = compile(graph.clone(), forced.collect(), config(&raw)).unwrap();
                let got = drive_sampler(&graph, algo.name, &h, &sampler, config(&raw), &frontiers);
                let what = format!("{} compact {compact} {format:?}", algo.name);
                assert_eq!(
                    of_values(&got.unwrap()),
                    reference,
                    "{what} on {}",
                    spec.describe()
                );
            }
        }
    }
}

/// Every forced layout's choice points, per algorithm and layer, as
/// `(op_id, compaction allowed)` in program order — captured from the
/// layout pass's own row-preservation walk before it read the fact table.
#[test]
fn forced_layout_choice_points_are_pinned() {
    let h = oracle_hyper();
    let model = CostModel::new(DeviceProfile::v100());
    let opt = OptConfig {
        preprocess: false,
        layout: LayoutMode::None,
        ..OptConfig::all()
    };
    for spec in specs() {
        let graph = spec.build();
        let mut got = String::new();
        for algo in all_algorithms(&h) {
            let points: Vec<_> = (algo.layers.iter())
                .map(|l| {
                    let stats = graph.stats();
                    let p = run_passes(&l.program, &opt, &stats, 8, &model, graph.residency);
                    choice_points(&p.program, &p.facts)
                })
                .collect();
            got.push_str(&format!("{}: {points:?}\n", algo.name));
        }
        assert_eq!(got, CHOICE_POINTS, "on {}", spec.describe());
    }
}

const CHOICE_POINTS: &str = "\
DeepWalk: [[(2, true)]]
GraphSAINT: [[(2, true)]]
PinSAGE: [[(2, true)]]
HetGNN: [[(2, true)]]
GraphSAGE: [[(2, true)], [(2, true)]]
VR-GCN: [[(2, true), (3, true)], [(2, true), (3, true)]]
SEAL: [[(3, true), (4, true)], [(3, true), (4, true)]]
ShaDow: [[(2, true)], [(2, true)]]
Node2Vec: [[(3, true), (5, true)]]
GCN-BS: [[(3, true), (4, true)], [(3, true), (4, true)]]
Thanos: [[(3, true), (4, true)], [(3, true), (4, true)]]
PASS: [[(2, true), (13, true)], [(2, true), (13, true)]]
FastGCN: [[(3, false)], [(3, false)]]
AS-GCN: [[(7, false), (12, false)], [(7, false), (12, false)]]
LADIES: [[(2, false), (4, false)], [(2, false), (4, false)]]
";
