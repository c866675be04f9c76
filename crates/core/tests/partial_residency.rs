//! Integration tests for the partial residency map: per-batch hit
//! counting against the graph's `CachePlan`, admission-estimate honesty
//! for tail rows, and the modeled cache sweep on the PP preset.

use std::sync::Arc;

use gsampler_core::builder::{Layer, LayerBuilder};
use gsampler_core::{compile, Bindings, Graph, SamplerConfig};
use gsampler_engine::{list_bytes, plan_cache, Residency};
use gsampler_graphs::{Dataset, DatasetKind};
use gsampler_matrix::{Dense, NodeId};

/// A 48-node graph with deliberate degree skew: node 0 receives an edge
/// from every other node (a hub), the rest form a sparse ring.
fn skewed_graph() -> Arc<Graph> {
    let n = 48u32;
    let mut edges: Vec<(NodeId, NodeId, f32)> = Vec::new();
    for u in 1..n {
        edges.push((u, 0, 1.0));
    }
    for u in 0..n {
        edges.push((u, (u + 1) % n, 1.0));
        edges.push(((u + 1) % n, u, 1.0));
    }
    Arc::new(Graph::from_edges("skewed", n as usize, &edges, false).unwrap())
}

fn sage_layer(k: usize) -> Layer {
    let b = LayerBuilder::new();
    let a = b.graph();
    let f = b.frontiers();
    let sample = a.slice_cols(&f).individual_sample(k, None);
    b.output(&sample);
    b.output_next_frontiers(&sample.row_nodes());
    b.build()
}

fn seeds() -> Vec<NodeId> {
    (0..48).collect()
}

#[test]
fn dispatch_reports_actual_hits_under_full_and_empty_plans() {
    let base = skewed_graph();
    let degrees = base.matrix.data.col_degrees();

    // Everything pinned: every frontier row hits.
    let full = Arc::new(
        (*base)
            .clone()
            .with_cache_plan(plan_cache(&degrees, u64::MAX)),
    );
    let sampler = compile(
        full,
        vec![sage_layer(4), sage_layer(4)],
        SamplerConfig::new(),
    )
    .unwrap();
    sampler
        .run_epoch_with(&seeds(), &Bindings::new(), 0, |_, _| {})
        .unwrap();
    let stats = sampler.device().stats();
    assert!(stats.cache_hits > 0, "full plan should record hits");
    assert_eq!(stats.cache_misses, 0, "full plan cannot miss");

    // Nothing pinned: every frontier row misses.
    let empty = Arc::new((*base).clone().with_cache_plan(plan_cache(&degrees, 0)));
    let sampler = compile(
        empty,
        vec![sage_layer(4), sage_layer(4)],
        SamplerConfig::new(),
    )
    .unwrap();
    sampler
        .run_epoch_with(&seeds(), &Bindings::new(), 0, |_, _| {})
        .unwrap();
    let stats = sampler.device().stats();
    assert_eq!(stats.cache_hits, 0, "empty plan cannot hit");
    assert!(stats.cache_misses > 0, "empty plan should record misses");

    // No plan at all: the counters stay untouched.
    let sampler = compile(base, vec![sage_layer(4)], SamplerConfig::new()).unwrap();
    sampler
        .run_epoch_with(&seeds(), &Bindings::new(), 0, |_, _| {})
        .unwrap();
    let stats = sampler.device().stats();
    assert_eq!((stats.cache_hits, stats.cache_misses), (0, 0));
}

#[test]
fn a_slot_hoisted_from_bound_inputs_is_read_on_the_device() {
    // `X @ W` reads only bound inputs: pre-processing hoists it, and the
    // device computes it. Gathering its rows reads device memory, not the
    // graph's host-resident adjacency, however the graph is placed.
    let layer = || {
        let b = LayerBuilder::new();
        let f = b.frontiers();
        let xw = b.dense_input("X").matmul(&b.dense_input("W"));
        b.output(&xw.gather_rows(&f));
        b.build()
    };
    let (n, d) = (48, 4);
    let bindings = Bindings::new()
        .dense("X", Dense::from_vec(n, d, vec![0.5; n * d]).unwrap())
        .dense("W", Dense::from_vec(d, d, vec![0.25; d * d]).unwrap());
    let base = skewed_graph();
    let degrees = base.matrix.data.col_degrees();
    let gather = |graph: Graph| {
        let sampler = compile(Arc::new(graph), vec![layer()], SamplerConfig::new()).unwrap();
        assert_eq!(sampler.layers()[0].optimized.report.preprocessed, 1);
        sampler
            .run_epoch_with(&seeds(), &bindings, 0, |_, _| {})
            .unwrap();
        let stats = sampler.device().stats();
        let agg = stats.per_kernel["gather_features"];
        (
            agg.time,
            agg.bytes_pcie,
            stats.cache_hits,
            stats.cache_misses,
        )
    };
    let on_device = gather((*base).clone());
    // Nothing pinned: a read of the graph would miss on every frontier.
    let uncached = gather((*base).clone().with_cache_plan(plan_cache(&degrees, 0)));
    let uva = gather((*base).clone().with_residency(Residency::host_uva(0.0)));
    assert_eq!(on_device.1, 0);
    assert_eq!(uncached, on_device);
    assert_eq!(uva, on_device);
}

#[test]
fn admission_estimate_charges_tail_rows() {
    let base = skewed_graph();
    let degrees = base.matrix.data.col_degrees();
    let layers = || vec![sage_layer(4), sage_layer(4)];

    let device = compile(base.clone(), layers(), SamplerConfig::new()).unwrap();
    let full_plan = compile(
        Arc::new(
            (*base)
                .clone()
                .with_cache_plan(plan_cache(&degrees, u64::MAX)),
        ),
        layers(),
        SamplerConfig::new(),
    )
    .unwrap();
    let uva = compile(
        Arc::new((*base).clone().with_residency(Residency::host_uva(0.0))),
        layers(),
        SamplerConfig::new(),
    )
    .unwrap();

    let cols = 64;
    // A fully pinned plan has no tail rows: it estimates like Device.
    assert_eq!(
        full_plan.estimate_request_bytes(cols),
        device.estimate_request_bytes(cols)
    );
    // An uncached UVA graph stages every adjacency read through host
    // memory; the §4.4 transient estimate must say so.
    assert!(uva.estimate_request_bytes(cols) > device.estimate_request_bytes(cols));
}

/// The degree-skew hot-set sweep: a GraphSAGE [25, 10] epoch over 4096
/// seeds of the PP preset at scale 0.05, once per pinned fraction of the
/// structure bytes. Modeled times are deterministic cost-model output.
#[test]
fn modeled_epoch_time_is_monotone_in_pinned_fraction() {
    let d = Dataset::generate(DatasetKind::OgbnPapers, 0.05, 2023);
    let degrees = d.graph.matrix.data.col_degrees();
    let structure_total: u64 = degrees.iter().map(|&deg| list_bytes(deg)).sum();
    let seeds: Vec<NodeId> = d.frontiers.iter().take(4096).copied().collect();
    let modeled_ms = |graph: Graph| {
        let config = SamplerConfig {
            seed: 7,
            auto_super_batch_budget: Some(256.0 * (1 << 20) as f64),
            max_super_batch: 16,
            ..SamplerConfig::new()
        };
        let layers = vec![sage_layer(25), sage_layer(10)];
        let sampler = compile(Arc::new(graph), layers, config).unwrap();
        sampler
            .run_epoch_with(&seeds, &Bindings::new(), 0, |_, _| {})
            .unwrap();
        let stats = sampler.device().stats();
        (stats.total_time * 1e3, stats.cache_hit_rate())
    };

    let fractions = [0.0, 0.10, 0.25, 0.50, 0.75, 1.0];
    let points: Vec<f64> = fractions
        .iter()
        .map(|&fraction| {
            let plan = plan_cache(&degrees, (structure_total as f64 * fraction) as u64);
            let (planned, pinned) = (plan.hit_rate, plan.cached_nodes);
            let (ms, observed) = modeled_ms(d.graph.clone().with_cache_plan(plan));
            // Planned vs observed is ROADMAP item 3's gap: printed per
            // point (`--nocapture`), deliberately not asserted on.
            println!(
                "cache fraction {fraction:.2}: modeled {ms:.3} ms, planned hit {planned:.3}, \
                 observed hit {observed:.3}, pinned {pinned} nodes"
            );
            ms
        })
        .collect();

    // More pinned bytes never model slower.
    for (pair, f) in points.windows(2).zip(fractions.windows(2)) {
        assert!(
            pair[1] <= pair[0] + 1e-9,
            "modeled time rose from {:.6} ms at f={:.2} to {:.6} ms at f={:.2}",
            pair[0],
            f[0],
            pair[1],
            f[1],
        );
    }
    // Degree skew concentrates bytes in the hubs: a quarter of the
    // structure bytes must already capture over half of the full win.
    let (uncached, pinned) = (points[0], points[5]);
    assert!(uncached > pinned, "pinning everything must model faster");
    assert!(points[2] <= pinned + (uncached - pinned) * 0.5);
    // The sweep's end points are the two binary residencies.
    let (uva_ms, _) = modeled_ms(d.graph.clone().with_residency(Residency::host_uva(0.0)));
    let (device_ms, _) = modeled_ms(d.graph.clone().with_residency(Residency::Device));
    assert_eq!(uncached, uva_ms);
    assert_eq!(pinned, device_ms);
}
