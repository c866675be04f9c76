//! Plan-database differentials: a compile served from the plan database
//! must be *bit-identical* to a cold compile. Runs every registered
//! algorithm cold, as a hit, and on an equal graph with its own identity
//! (which can only miss) against a database-less compile, and checks the
//! cache counters surface end to end (compile → `Sampler` →
//! `EpochReport`).

use std::sync::Arc;

use gsampler_algos::algorithm;
use gsampler_core::{compile, Bindings, Graph, PlanDb, SamplerConfig};
use gsampler_ir::passes::OptConfig;
use gsampler_testkit::drive::{algorithm_names, run_algorithm, sampler_config};
use gsampler_testkit::fingerprint::of_values;
use gsampler_testkit::gen::{GraphSpec, Topology};
use gsampler_testkit::oracle::oracle_hyper;

fn spec() -> GraphSpec {
    GraphSpec {
        topology: Topology::PowerLaw,
        nodes: 48,
        edges: 200,
        weighted: true,
        self_loops: true,
        duplicate_edges: true,
        dangling: false,
        seed: 0x9A75,
    }
}

/// Drive `algo` on `graph` (through `db`, if any) and fingerprint what it
/// sampled.
fn drive(graph: &Arc<Graph>, algo: &str, frontiers: &[u32], db: Option<&Arc<PlanDb>>) -> u64 {
    let config = SamplerConfig {
        plan_db: db.cloned(),
        ..sampler_config(OptConfig::all(), 0x5EED, frontiers.len())
    };
    let values = run_algorithm(graph, algo, &oracle_hyper(), config, frontiers, None)
        .expect("drive")
        .expect("algorithm ran");
    of_values(&values)
}

#[test]
fn warm_cache_compile_is_bit_identical_for_every_algorithm() {
    let spec = spec();
    let graph = spec.build();
    // Same stats and edges, different identity: entries are pinned to the
    // graph object (FastGCN's and LADIES' carry per-graph hoisted
    // values), so the twin misses and compiles for itself.
    let twin = Arc::new((*graph).clone());
    let frontiers = spec.frontiers(8);
    for algo in algorithm_names(&oracle_hyper()) {
        let reference = drive(&graph, algo, &frontiers, None);
        let db = Arc::new(PlanDb::in_memory());
        for (step, g) in [("cold", &graph), ("hit", &graph), ("twin", &twin)] {
            assert_eq!(
                drive(g, algo, &frontiers, Some(&db)),
                reference,
                "{algo}: {step} compile through the plan database diverges from a database-less one"
            );
        }
        let stats = db.stats();
        // Per compiled sampler (GraphSAINT drives two): one cold miss, one
        // hit, one twin miss — each miss inserted under its own key.
        assert!(stats.hits >= 1, "{algo}: {stats:?}");
        assert_eq!(
            (stats.misses, stats.inserts, db.len() as u64),
            (2 * stats.hits, 2 * stats.hits, 2 * stats.hits),
            "{algo}: {stats:?}"
        );
    }
}

#[test]
fn cache_counters_surface_through_sampler_and_epoch_report() {
    let spec = spec();
    let graph = spec.build();
    let frontiers = spec.frontiers(8);
    let h = oracle_hyper();
    let layers = algorithm("GraphSAGE", &h)
        .expect("GraphSAGE registered")
        .layers;
    let db = Arc::new(PlanDb::in_memory());
    let config = SamplerConfig {
        plan_db: Some(db.clone()),
        batch_size: frontiers.len().max(1),
        ..SamplerConfig::new()
    };

    let cold = compile(graph.clone(), layers.clone(), config.clone()).expect("cold compile");
    assert_eq!(cold.plan_db_stats().misses, 1);
    assert_eq!(cold.plan_db_stats().inserts, 1);
    assert_eq!(cold.plan_db_stats().hits, 0);
    assert_eq!(db.len(), 1);

    let warm = compile(graph.clone(), layers, config).expect("warm compile");
    assert_eq!(warm.plan_db_stats().hits, 1);
    assert_eq!(warm.plan_db_stats().misses, 0);
    assert_eq!(warm.plan_db_stats().inserts, 0);

    // The compile-time counters must survive the per-epoch device reset.
    let report = warm
        .run_epoch(&frontiers, &Bindings::new(), 0)
        .expect("epoch");
    assert_eq!(report.stats.plan_db.hits, 1);

    // Warm and cold samplers sample identically.
    let a = cold
        .sample_batch(&frontiers, &Bindings::new())
        .expect("cold batch");
    let b = warm
        .sample_batch(&frontiers, &Bindings::new())
        .expect("warm batch");
    let flat = |s: gsampler_core::GraphSample| -> Vec<gsampler_core::Value> {
        s.layers.into_iter().flatten().collect()
    };
    assert_eq!(of_values(&flat(a)), of_values(&flat(b)));
}
