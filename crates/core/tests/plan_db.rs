//! Plan-database behaviour through `compile`: what hits (the same graph
//! object and programs), what can only miss (any other graph, any program
//! that renders differently), what is never inserted or kept, per-compile
//! counters, and the coverage of the lookup key.

use std::sync::Arc;

use gsampler_core::builder::{Layer, LayerBuilder};
use gsampler_core::{
    compile, Axis, Bindings, EltOp, Graph, LayoutMode, OptConfig, PlanDb, PlanDbStats, Sampler,
    SamplerConfig,
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

/// FastGCN-like: sample by the whole graph's row degrees, which the
/// preprocess pass hoists into a per-graph precomputed value.
fn degree_biased_layers() -> Vec<Layer> {
    let b = LayerBuilder::new();
    let deg = b.graph().degrees(Axis::Row);
    let sample = b
        .graph()
        .slice_cols(&b.frontiers())
        .collective_sample(8, Some(&deg));
    b.output(&sample);
    vec![b.build()]
}

/// `(A / zero)[:, frontiers]`: pre-processing hoists the division onto the
/// whole graph, so the layer's precompute program carries `zero`.
fn divided_by(zero: f32) -> Layer {
    let b = LayerBuilder::new();
    let sub = b
        .graph()
        .scalar(EltOp::Div, zero)
        .slice_cols(&b.frontiers());
    b.output(&sub);
    b.build()
}

/// A layer-wise layer with a knob per kind of edit: the bias exponent, the
/// width, whether the two outputs read one draw or two, and the order the
/// outputs are marked in.
fn variant(pow: f32, k: usize, one_draw: bool, rows_first: bool) -> Layer {
    let b = LayerBuilder::new();
    let sub = b.graph().slice_cols(&b.frontiers());
    let probs = sub.pow(pow).sum(Axis::Row);
    let first = sub.collective_sample(k, Some(&probs));
    let second = match one_draw {
        true => first.clone(),
        false => sub.collective_sample(k, Some(&probs)),
    };
    let (rows, cols) = (first.row_nodes(), second.col_nodes());
    if rows_first {
        b.output(&rows);
        b.output(&cols);
    } else {
        b.output(&cols);
        b.output(&rows);
    }
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
fn same_graph_and_program_hit_the_first_compiles_programs() {
    let g = graph(300);
    let db = Arc::new(PlanDb::in_memory());
    let with_db = config(OptConfig::all(), Some(&db));
    let cold = compile(g.clone(), layers(), with_db.clone()).unwrap();
    let s = cold.plan_db_stats();
    assert_eq!((s.hits, s.misses, s.inserts), (0, 1, 1));
    let warm = compile(g.clone(), layers(), with_db).unwrap();
    let s = warm.plan_db_stats();
    assert_eq!((s.hits, s.misses, s.inserts), (1, 0, 0));
    assert_eq!(db.len(), 1);
    for (c, w) in cold.layers().iter().zip(warm.layers()) {
        assert!(Arc::ptr_eq(&c.optimized, &w.optimized));
    }
    assert_eq!(warm.super_batch_factor(), cold.super_batch_factor());
    let fresh = compile(g, layers(), config(OptConfig::all(), None)).unwrap();
    assert_eq!(samples(&warm), samples(&fresh));
}

/// Compile `layer` alone on `g` through `db` and report its lookup.
fn compile_one(g: &Arc<Graph>, db: &Arc<PlanDb>, layer: Layer) -> PlanDbStats {
    let config = config(OptConfig::all(), Some(db));
    let sampler = compile(g.clone(), vec![layer], config).unwrap();
    sampler.plan_db_stats()
}

/// Compile `base` and then each of `edits` through one database: every
/// edit is a distinct program, so each misses and is inserted.
fn assert_each_edit_misses(base: Layer, edits: Vec<(&str, Layer)>) {
    let g = graph(300);
    let db = Arc::new(PlanDb::in_memory());
    assert_eq!(compile_one(&g, &db, base).misses, 1);
    for (edit, layer) in edits {
        let s = compile_one(&g, &db, layer);
        assert_eq!((s.hits, s.misses, s.inserts), (0, 1, 1), "{edit}");
    }
}

#[test]
fn an_attribute_edit_misses() {
    assert_each_edit_misses(
        variant(2.0, 8, true, true),
        vec![
            ("pow 2 -> 3", variant(3.0, 8, true, true)),
            ("pow 0", variant(0.0, 8, true, true)),
            ("pow 0 -> -0", variant(-0.0, 8, true, true)),
            ("k 8 -> 7", variant(2.0, 7, true, true)),
        ],
    );
}

#[test]
fn one_draw_and_two_draws_miss_each_other() {
    // Sampling once and reading the draw twice is another program than
    // sampling twice.
    let edit = ("one draw -> two", variant(2.0, 8, false, true));
    assert_each_edit_misses(variant(2.0, 8, true, true), vec![edit]);
}

#[test]
fn a_rebuilt_program_hits_and_swapped_outputs_miss() {
    let g = graph(300);
    let db = Arc::new(PlanDb::in_memory());
    assert_eq!(compile_one(&g, &db, variant(2.0, 8, true, true)).misses, 1);
    let s = compile_one(&g, &db, variant(2.0, 8, true, true));
    assert_eq!((s.hits, s.misses), (1, 0), "an identical rebuilt program");
    let s = compile_one(&g, &db, variant(2.0, 8, true, false));
    assert_eq!((s.hits, s.misses, s.inserts), (0, 1, 1), "outputs swapped");
}

#[test]
fn a_nan_attribute_program_misses_every_time() {
    let g = graph(300);
    let db = Arc::new(PlanDb::in_memory());
    for compile_no in 0..2 {
        let s = compile_one(&g, &db, divided_by(f32::NAN));
        assert_eq!((s.hits, s.misses, s.inserts), (0, 1, 0), "{compile_no}");
    }
    assert!(db.is_empty());
}

#[test]
fn layers_apart_only_in_a_zeros_sign_neither_share_nor_hit() {
    let g = graph(300);
    let no_db = config(OptConfig::all(), None);
    let layers = vec![divided_by(0.0), divided_by(-0.0)];
    let pair = compile(g.clone(), layers, no_db.clone()).unwrap();
    let solo = compile(g.clone(), vec![divided_by(-0.0)], no_db).unwrap();
    let seeds: Vec<NodeId> = (0..16).collect();
    let sampled = |s: &Sampler| s.sample_batch(&seeds, &Bindings::new()).unwrap().layers;
    let (pair, solo) = (sampled(&pair), sampled(&solo));
    let second = format!("{:?}", pair[1]);
    assert!(second.contains("-inf"), "{second}");
    assert_eq!(second, format!("{:?}", solo[0]));

    let db = Arc::new(PlanDb::in_memory());
    assert_eq!(compile_one(&g, &db, divided_by(0.0)).misses, 1);
    let s = compile_one(&g, &db, divided_by(-0.0));
    assert_eq!((s.hits, s.misses, s.inserts), (0, 1, 1));
}

#[test]
fn another_graph_misses_and_precomputes_for_itself() {
    // Three graphs with equal stats: `g`, an equal graph with its own
    // identity, and one whose edges (hence the hoisted degrees) differ.
    let g = graph(300);
    let twin = Arc::new((*g).clone());
    let list: Vec<(NodeId, NodeId, f32)> = (0..300u32)
        .map(|i| (i % NODES, (i % NODES * 7 + 3 + i / NODES) % NODES, 1.0))
        .collect();
    let other = Arc::new(Graph::from_edges("other", NODES as usize, &list, false).unwrap());
    assert_eq!(g.num_edges(), other.num_edges());

    let db = Arc::new(PlanDb::in_memory());
    let with_db = config(OptConfig::all(), Some(&db));
    let first = compile(g, degree_biased_layers(), with_db.clone()).unwrap();
    assert!(!first.layers()[0].hoist.cached().is_empty());
    for (name, graph) in [("twin", &twin), ("other", &other)] {
        let through_db = compile(graph.clone(), degree_biased_layers(), with_db.clone()).unwrap();
        let s = through_db.plan_db_stats();
        assert_eq!((s.hits, s.misses, s.inserts), (0, 1, 1), "{name}");
        let (a, b) = (&first.layers()[0], &through_db.layers()[0]);
        assert!(!Arc::ptr_eq(&a.optimized, &b.optimized), "{name}");
        assert!(
            !Arc::ptr_eq(&a.hoist.cached()[0], &b.hoist.cached()[0]),
            "{name}: took another graph's precomputed values"
        );
        let fresh = compile(
            graph.clone(),
            degree_biased_layers(),
            config(OptConfig::all(), None),
        )
        .unwrap();
        assert_eq!(samples(&through_db), samples(&fresh), "{name}");
    }
    assert_eq!(db.len(), 3);
}

#[test]
fn a_dropped_graphs_entries_are_purged_not_pinned() {
    let db = Arc::new(PlanDb::in_memory());
    let g = graph(300);
    let alive = Arc::downgrade(&g);
    for opt in [OptConfig::all(), OptConfig::plain()] {
        compile(g.clone(), layers(), config(opt, Some(&db))).unwrap();
    }
    assert_eq!(db.len(), 2);
    drop(g);
    assert!(
        alive.upgrade().is_none(),
        "the database kept the graph alive"
    );
    // The next insert sweeps them out.
    compile(graph(300), layers(), config(OptConfig::all(), Some(&db))).unwrap();
    assert_eq!(db.len(), 1);
    assert_eq!(db.stats().evictions, 0);
}

#[test]
fn lru_eviction_is_counted_on_the_compile_that_caused_it() {
    let g = graph(300);
    let db = Arc::new(PlanDb::in_memory());
    let compile_at = |batch_size: usize| {
        let config = SamplerConfig {
            batch_size,
            ..config(OptConfig::all(), Some(&db))
        };
        compile(g.clone(), layers(), config)
            .unwrap()
            .plan_db_stats()
    };
    for batch_size in 1..=256 {
        assert_eq!(compile_at(batch_size).evictions, 0);
    }
    assert_eq!(compile_at(257).evictions, 1);
    assert_eq!((db.len(), db.stats().evictions), (256, 1));
    // The oldest entry went.
    assert_eq!(compile_at(1).misses, 1);
}

#[test]
fn degraded_compile_is_not_inserted() {
    let db = Arc::new(PlanDb::in_memory());
    let one_byte = SamplerConfig {
        auto_super_batch_budget: Some(1.0),
        ..config(OptConfig::all(), Some(&db))
    };
    let spilled = compile(graph(300), layers(), one_byte).unwrap();
    assert!(spilled.device().spill_enabled());
    let s = spilled.plan_db_stats();
    assert_eq!((s.hits, s.misses, s.inserts), (0, 1, 0));
    assert!(db.is_empty());
}

#[test]
fn concurrent_compiles_each_report_their_own_lookup() {
    let g = graph(300);
    let db = Arc::new(PlanDb::in_memory());
    let threads = 8;
    let barrier = std::sync::Barrier::new(threads);
    let reports: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (g, db, barrier) = (&g, &db, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    // Two keys shared by every thread, one private to it.
                    [16, 32, 100 + t]
                        .map(|batch_size| {
                            let config = SamplerConfig {
                                batch_size,
                                ..config(OptConfig::all(), Some(db))
                            };
                            compile(g.clone(), layers(), config)
                                .unwrap()
                                .plan_db_stats()
                        })
                        .to_vec()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("compile thread"))
            .collect()
    });
    let mut sum = gsampler_core::PlanDbStats::default();
    for r in &reports {
        assert_eq!(r.lookups(), 1, "a compile counted another's lookup: {r:?}");
        sum.merge(r);
    }
    assert_eq!(sum, db.stats());
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
