//! Fixed-seed differential matrix: every registered algorithm × every
//! single-pass ablation × super-batched execution, on a hand-picked set
//! of adversarial graph shapes. The fuzzer explores randomly; this test
//! pins a deterministic slice of the same oracle into tier-1 CI.

use gsampler_ir::passes::{LayoutMode, OptConfig};
use gsampler_testkit::gen::{GraphSpec, Topology};
use gsampler_testkit::oracle::Oracle;

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
