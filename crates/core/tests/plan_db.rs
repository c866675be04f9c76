//! Plan-database behaviour through `compile`: the drift path end to end,
//! and the coverage of the lookup key.

use std::sync::Arc;

use gsampler_core::builder::{Layer, LayerBuilder};
use gsampler_core::{
    compile, Axis, Bindings, Graph, LayoutMode, OptConfig, PlanDb, Sampler, SamplerConfig,
};
use gsampler_matrix::NodeId;

const NODES: u32 = 64;

/// A graph on [`NODES`] nodes with exactly `edges` distinct edges: node
/// `u` points at `u + 1`, `u + 2`, ... (mod `NODES`), round-robin.
fn graph(edges: usize) -> Arc<Graph> {
    let list: Vec<(NodeId, NodeId, f32)> = (0..edges as u32)
        .map(|i| (i % NODES, (i % NODES + 1 + i / NODES) % NODES, 1.0))
        .collect();
    Arc::new(Graph::from_edges("g", NODES as usize, &list, false).unwrap())
}

/// LADIES-like: extract, square + row-sum, collective sample — two layout
/// choice points, so the plan is more than a single format.
fn layerwise_layer(width: usize) -> Layer {
    let b = LayerBuilder::new();
    let sub = b.graph().slice_cols(&b.frontiers());
    let probs = sub.pow(2.0).sum(Axis::Row);
    let sample = sub.collective_sample(width, Some(&probs));
    b.output(&sample);
    b.output_next_frontiers(&sample.row_nodes());
    b.build()
}

fn nodewise_layer(k: usize) -> Layer {
    let b = LayerBuilder::new();
    let sample = b
        .graph()
        .slice_cols(&b.frontiers())
        .individual_sample(k, None);
    b.output(&sample);
    b.output_next_frontiers(&sample.row_nodes());
    b.build()
}

fn layers() -> Vec<Layer> {
    vec![layerwise_layer(8), nodewise_layer(3)]
}

fn config(opt: OptConfig, db: Option<&Arc<PlanDb>>) -> SamplerConfig {
    SamplerConfig {
        opt,
        batch_size: 16,
        auto_super_batch_budget: Some(64.0 * 1024.0 * 1024.0),
        plan_db: db.cloned(),
        ..SamplerConfig::new()
    }
}

fn samples(sampler: &Sampler) -> String {
    let seeds: Vec<NodeId> = (0..16).collect();
    let sample = sampler.sample_batch(&seeds, &Bindings::new()).unwrap();
    format!("{:?}", sample.layers)
}

#[test]
fn drifted_entry_is_repriced_refreshed_and_invisible_in_samples() {
    // Same node count, 300 -> 400 edges: both in the [256, 512) edge
    // bucket, so the second graph finds the first one's entry — a third
    // more edges (and average degree) than it was planned under.
    let (planned_on, drifted) = (graph(300), graph(400));
    let db = Arc::new(PlanDb::in_memory());
    let with_db = config(OptConfig::all(), Some(&db));

    let cold = compile(planned_on, layers(), with_db.clone()).unwrap();
    let s = cold.plan_db_stats();
    assert_eq!((s.misses, s.drifts, s.inserts), (1, 0, 1));

    let repriced = compile(drifted.clone(), layers(), with_db.clone()).unwrap();
    let s = repriced.plan_db_stats();
    assert_eq!((s.hits, s.misses, s.drifts, s.inserts), (0, 0, 1, 1));

    // The drifted compile samples exactly what a database-less one does,
    // and its plans were priced under the graph it actually runs on.
    let fresh = compile(drifted.clone(), layers(), config(OptConfig::all(), None)).unwrap();
    assert_eq!(samples(&repriced), samples(&fresh));
    assert_eq!(repriced.super_batch_factor(), fresh.super_batch_factor());
    for (a, b) in repriced.layers().iter().zip(fresh.layers()) {
        let (a, b) = (&a.optimized.layout_plan, &b.optimized.layout_plan);
        assert_eq!(a.natural_time, b.natural_time);
        assert!(a.est_time <= a.natural_time);
    }
    let planned_natural = cold.layers()[0].optimized.layout_plan.natural_time;
    let repriced_natural = repriced.layers()[0].optimized.layout_plan.natural_time;
    assert_ne!(planned_natural, repriced_natural);

    // The entry was refreshed: the same compile again is a clean hit.
    let warm = compile(drifted, layers(), with_db).unwrap();
    let s = warm.plan_db_stats();
    assert_eq!((s.hits, s.misses, s.drifts, s.inserts), (1, 0, 0, 0));
    assert_eq!(samples(&warm), samples(&fresh));
    assert_eq!(db.len(), 1);
}

#[test]
fn every_opt_config_field_is_part_of_the_key() {
    let g = graph(300);
    let db = Arc::new(PlanDb::in_memory());
    let all = OptConfig::all;
    let flipped = [
        (
            "dce",
            OptConfig {
                dce: false,
                ..all()
            },
        ),
        (
            "cse",
            OptConfig {
                cse: false,
                ..all()
            },
        ),
        (
            "preprocess",
            OptConfig {
                preprocess: false,
                ..all()
            },
        ),
        (
            "fusion",
            OptConfig {
                fusion: false,
                ..all()
            },
        ),
        (
            "layout",
            OptConfig {
                layout: LayoutMode::Greedy,
                ..all()
            },
        ),
        ("super_batch", all().with_super_batch(2)),
    ];
    let base = compile(g.clone(), layers(), config(all(), Some(&db))).unwrap();
    assert_eq!(base.plan_db_stats().misses, 1);
    for (field, opt) in flipped {
        let s = compile(g.clone(), layers(), config(opt, Some(&db)))
            .unwrap()
            .plan_db_stats();
        assert_eq!(
            (s.hits, s.misses, s.inserts),
            (0, 1, 1),
            "flipping `{field}` was served another configuration's plan"
        );
    }
    assert_eq!(db.len(), 7);
    let again = compile(g, layers(), config(all(), Some(&db))).unwrap();
    assert_eq!(again.plan_db_stats().hits, 1);
}
