//! Coverage test for paper Table 2: every one of the 15 algorithms
//! compiles with full optimizations and produces a valid sample on a
//! small dataset. gSampler is "the only system capable of running all"
//! of them (paper §5.2) — this test is that claim, executably.

use std::sync::Arc;

use gsampler::algos::drivers;
use gsampler::algos::{all_algorithms, AlgoSpec, Drive, Hyper};
use gsampler::core::{compile, Graph, OptConfig, Sampler, SamplerConfig};
use gsampler::graphs::Dataset;

fn setup() -> (Arc<Graph>, Hyper) {
    let d = Dataset::tiny(7);
    (Arc::new(d.graph), Hyper::small())
}

fn config(h: &Hyper) -> SamplerConfig {
    SamplerConfig {
        opt: OptConfig::all(),
        batch_size: h.batch_size,
        ..SamplerConfig::new()
    }
}

fn compile_spec(graph: &Arc<Graph>, spec: &AlgoSpec, h: &Hyper) -> Sampler {
    compile(graph.clone(), spec.layers.clone(), config(h))
        .unwrap_or_else(|e| panic!("compile failed: {e}"))
}

/// Check a sampled adjacency is a genuine subgraph of `graph`.
fn assert_subgraph(graph: &Graph, m: &gsampler::matrix::GraphMatrix, tag: &str) {
    let base: std::collections::HashSet<(u32, u32)> = graph
        .matrix
        .global_edges()
        .into_iter()
        .map(|(r, c, _)| (r, c))
        .collect();
    for (r, c, _) in m.global_edges() {
        assert!(base.contains(&(r, c)), "{tag}: edge ({r},{c}) not in graph");
    }
}

#[test]
fn all_fifteen_algorithms_run() {
    let (graph, h) = setup();
    let frontiers: Vec<u32> = (0..h.batch_size as u32).collect();
    let specs = all_algorithms(&h);
    assert_eq!(specs.len(), 15);

    for spec in specs {
        let name = spec.name;
        let sampler = compile_spec(&graph, &spec, &h);
        let drive = spec
            .drive(&graph, &h, &sampler, config(&h), &frontiers)
            .unwrap_or_else(|e| panic!("{name}: drive failed: {e}"));
        match drive {
            Drive::Samples(batches) => {
                for out in &batches {
                    // The first layer samples; every layer's matrix is a
                    // subgraph.
                    let first = out.layers[0][0].as_matrix().unwrap();
                    assert!(first.nnz() > 0, "{name} sampled nothing");
                    for layer in &out.layers {
                        if let Some(m) = layer[0].as_matrix() {
                            assert_subgraph(&graph, m, name);
                        }
                    }
                }
            }
            Drive::Bandit(steps, arms) => {
                assert_eq!(steps.len(), 3);
                for out in &steps {
                    let m = out.layers[0][0].as_matrix().unwrap();
                    assert_subgraph(&graph, m, name);
                }
                // Arms must have moved.
                assert!(arms.iter().any(|&w| (w - 1.0).abs() > 1e-6));
            }
            Drive::Walk(trace) => {
                assert_eq!(trace.positions.len(), h.walk_length);
                for step in &trace.positions {
                    assert_eq!(step.len(), frontiers.len(), "{name} lost walkers");
                }
            }
            Drive::TopK(neigh) => {
                assert_eq!(neigh.len(), 4);
                for (s, list) in neigh.iter().enumerate() {
                    assert!(list.len() <= h.top_k, "{name} seed {s} overflow");
                }
            }
            Drive::Typed(neigh) => {
                assert_eq!(neigh.len(), 4);
                for groups in &neigh {
                    assert_eq!(groups.len(), h.num_types);
                    for (t, group) in groups.iter().enumerate() {
                        for &v in group {
                            assert_eq!(v as usize % h.num_types, t, "{name} type mix-up");
                        }
                    }
                }
            }
            Drive::Induced(m) => {
                assert_subgraph(&graph, &m, name);
                // The induced subgraph contains the seeds' edges.
                assert!(m.nnz() > 0, "{name} induced nothing");
            }
        }
    }
}

#[test]
fn walk_traces_follow_graph_edges() {
    let (graph, h) = setup();
    let spec = all_algorithms(&h).remove(0); // DeepWalk
    let sampler = compile_spec(&graph, &spec, &h);
    let seeds: Vec<u32> = vec![0, 1, 2, 3];
    let trace = drivers::run_walk_batch(&sampler, &seeds, 5, false, 0.0, 9).unwrap();
    let csc = graph.matrix.data.to_csc();
    let mut cur = seeds.clone();
    for step in &trace.positions {
        for (w, &next) in step.iter().enumerate() {
            let stayed = next == cur[w];
            let is_edge = csc.contains_edge(next, cur[w] as usize);
            assert!(
                stayed || is_edge,
                "walker {w} jumped {} -> {next} without an edge",
                cur[w]
            );
        }
        cur = step.clone();
    }
}

#[test]
fn walk_groups_match_each_group_walked_alone() {
    // Group `g` of a super-batched walk draws only from stream
    // `stream + g` — sampling and restarts alike — so stepping groups
    // together returns each group's solo trace.
    let (graph, h) = setup();
    let spec = all_algorithms(&h).remove(0); // DeepWalk
    let sampler = compile_spec(&graph, &spec, &h);
    let groups: Vec<Vec<u32>> = vec![vec![0, 1, 2, 3], vec![4, 5], vec![6, 7, 8]];
    let packed = drivers::run_walk_groups(&sampler, groups.clone(), 6, false, 0.3, 40).unwrap();
    for (g, (seeds, trace)) in groups.iter().zip(&packed).enumerate() {
        let alone = drivers::run_walk_batch(&sampler, seeds, 6, false, 0.3, 40 + g as u64).unwrap();
        assert_eq!(trace.positions, alone.positions, "group {g} diverged");
    }
}

#[test]
fn node2vec_bias_prefers_return_with_small_p() {
    // With p tiny, returning to the previous node dominates.
    let (graph, mut h) = setup();
    h.p = 0.01;
    h.q = 100.0;
    let layers = vec![gsampler::algos::walks::node2vec_step(h.p, h.q)];
    let sampler = compile(graph.clone(), layers, config(&h)).unwrap();
    let seeds: Vec<u32> = (0..16).collect();
    let trace = drivers::run_walk_batch(&sampler, &seeds, 4, true, 0.0, 3).unwrap();
    // After two steps, many walkers should have returned to a previous
    // position (strong return bias).
    let mut returns = 0;
    let mut moves = 0;
    for w in 0..seeds.len() {
        let seq = trace.sequence(w);
        for i in 2..seq.len() {
            if seq[i] != seq[i - 1] {
                moves += 1;
                if seq[i] == seq[i - 2] {
                    returns += 1;
                }
            }
        }
    }
    assert!(
        returns * 2 > moves,
        "expected dominant returns: {returns}/{moves}"
    );
}

#[test]
fn ladies_multi_layer_bounds_growth() {
    // Node-wise sampling grows the frontier; layer-wise caps it at the
    // layer width (the graph-view motivation of the paper's §2.1).
    let d = gsampler::graphs::Dataset::tiny(3);
    let graph = Arc::new(d.graph);
    let ladies = gsampler::core::compile(
        graph.clone(),
        gsampler::algos::layerwise::ladies(12, 3),
        gsampler::core::SamplerConfig {
            opt: OptConfig::all(),
            batch_size: 16,
            ..gsampler::core::SamplerConfig::new()
        },
    )
    .unwrap();
    let frontiers: Vec<u32> = (0..16).collect();
    let out = ladies
        .sample_batch(&frontiers, &gsampler::core::Bindings::new())
        .unwrap();
    for layer in &out.layers {
        let m = layer[0].as_matrix().unwrap();
        assert!(m.row_nodes().len() <= 12);
    }
    let sage = gsampler::core::compile(
        graph,
        gsampler::algos::nodewise::graphsage(&[8, 8, 8]),
        gsampler::core::SamplerConfig {
            opt: OptConfig::all(),
            batch_size: 16,
            ..gsampler::core::SamplerConfig::new()
        },
    )
    .unwrap();
    let out = sage
        .sample_batch(&frontiers, &gsampler::core::Bindings::new())
        .unwrap();
    let last = out.layers.last().unwrap()[0].as_matrix().unwrap();
    assert!(
        last.row_nodes().len() > 12,
        "node-wise sampling should have grown past the layer-wise cap"
    );
}
