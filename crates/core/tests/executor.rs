//! Integration tests: executor semantics and semantic preservation of the
//! optimization passes.

use std::sync::Arc;

use gsampler_core::builder::{Layer, LayerBuilder, Mat};
use gsampler_core::kernels::{self, superbatch, ExecCtx};
use gsampler_core::{
    compile, Axis, Bindings, Error, Graph, Key, LayoutMode, OptConfig, Sampler, SamplerConfig,
    Value,
};
use gsampler_graphs::{Dataset, DatasetKind};
use gsampler_ir::Op;
use gsampler_matrix::{Csc, Dense, Format, GraphMatrix, NodeId, SparseMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic 64-node ring-of-cliques graph: 8 cliques of 8 nodes,
/// ring edges between consecutive cliques. Every node has in-degree >= 7.
fn test_graph() -> Arc<Graph> {
    cliques_graph(true, 0)
}

/// [`test_graph`], optionally unweighted and with `isolated` extra nodes
/// that have no edges at all (frontiers that sample nothing).
fn cliques_graph(weighted: bool, isolated: u32) -> Arc<Graph> {
    let mut edges: Vec<(NodeId, NodeId, f32)> = Vec::new();
    let cliques = 8u32;
    let size = 8u32;
    for c in 0..cliques {
        let base = c * size;
        for i in 0..size {
            for j in 0..size {
                if i != j {
                    let w = 1.0 + ((i * 31 + j) % 5) as f32 * 0.25;
                    edges.push((base + i, base + j, w));
                }
            }
        }
        let next = ((c + 1) % cliques) * size;
        edges.push((base, next, 2.0));
        edges.push((next, base, 2.0));
    }
    let n = (cliques * size + isolated) as usize;
    let features = {
        let data: Vec<f32> = (0..n * 8).map(|i| ((i % 13) as f32) * 0.1 - 0.6).collect();
        Dense::from_vec(n, 8, data).unwrap()
    };
    Arc::new(
        Graph::from_edges("cliques", n, &edges, weighted)
            .unwrap()
            .with_features(features),
    )
}

fn graphsage_layer(k: usize) -> Layer {
    let b = LayerBuilder::new();
    let a = b.graph();
    let f = b.frontiers();
    let sample = a.slice_cols(&f).individual_sample(k, None);
    let next = sample.row_nodes();
    b.output(&sample);
    b.output_next_frontiers(&next);
    b.build()
}

fn ladies_layer(k: usize) -> Layer {
    let b = LayerBuilder::new();
    let a = b.graph();
    let f = b.frontiers();
    let sub = a.slice_cols(&f);
    let row_probs = sub.pow(2.0).sum(Axis::Row);
    let samp = sub.collective_sample(k, Some(&row_probs));
    let sel = row_probs.gather_row_bias(&samp, &sub);
    let norm = samp.div(&sel, Axis::Row);
    let colsum = norm.sum(Axis::Col);
    let out = norm.div(&colsum, Axis::Col);
    let next = out.row_nodes();
    b.output(&out);
    b.output_next_frontiers(&next);
    b.build()
}

/// LADIES with the sliced block compacted before the collective select —
/// what the layout pass does to it on the large presets — so the bias
/// reduction, the select, the bias gather and both normalisations all run
/// on a compacted block.
fn compacted_ladies_layer(k: usize) -> Layer {
    let b = LayerBuilder::new();
    let sub = b.graph().slice_cols(&b.frontiers()).compact_rows();
    let row_probs = sub.pow(2.0).sum(Axis::Row);
    let samp = sub.collective_sample(k, Some(&row_probs));
    let sel = row_probs.gather_row_bias(&samp, &sub);
    let norm = samp.div(&sel, Axis::Row);
    let colsum = norm.sum(Axis::Col);
    let out = norm.div(&colsum, Axis::Col);
    let next = out.row_nodes();
    b.output(&out);
    b.output_next_frontiers(&next);
    b.build()
}

/// FastGCN: full-graph degree bias, looked up by node ID — on the sliced
/// block as it is, or (`compacted`) on a hand-compacted one, whose row
/// positions are no longer node IDs.
fn fastgcn_layer(k: usize, compacted: bool) -> Layer {
    let b = LayerBuilder::new();
    let a = b.graph();
    let deg = a.degrees(Axis::Row);
    let sub = a.slice_cols(&b.frontiers());
    let sub = if compacted { sub.compact_rows() } else { sub };
    let samp = sub.collective_sample(k, Some(&deg));
    let sel = deg.gather_row_bias(&samp, &sub);
    let out = samp.div(&sel, Axis::Row);
    let next = out.row_nodes();
    b.output(&out);
    b.output_next_frontiers(&next);
    b.build()
}

/// PASS (paper Fig. 3c) as `gsampler-algos` records it: two SDDMM attention
/// channels over feature projections plus the degree-normalized adjacency,
/// stacked, projected by `softmax(W3)`, rectified, used as sampling bias.
fn pass_layer(k: usize) -> Layer {
    let b = LayerBuilder::new();
    let f = b.frontiers();
    let sub = b.graph().slice_cols(&f);
    let feats = b.dense_input("features");
    let (w1, w2, w3) = (
        b.dense_input("W1"),
        b.dense_input("W2"),
        b.dense_input("W3"),
    );
    let a1 = sub.sddmm(&feats.matmul(&w1), &feats.gather_rows(&f).matmul(&w1));
    let a2 = sub.sddmm(&feats.matmul(&w2), &feats.gather_rows(&f).matmul(&w2));
    let a3 = sub.div(&sub.sum(Axis::Row), Axis::Row);
    let bias = Mat::stack(&[&a1, &a2, &a3]).matmul(&w3.softmax()).relu();
    let sample = sub.individual_sample(k, Some(&sub.with_edge_values(&bias, 0)));
    b.output(&sample);
    b.output_next_frontiers(&sample.row_nodes());
    b.build()
}

/// AS-GCN as `gsampler-algos` records it: a learned node score
/// `relu(features @ Wg)` aligned to the block's rows plus the structural
/// bias, then a LADIES-style collective select.
fn asgcn_layer(k: usize) -> Layer {
    let b = LayerBuilder::new();
    let sub = b.graph().slice_cols(&b.frontiers());
    let learned = b.dense_input("features").matmul(&b.dense_input("Wg"));
    let learned = learned
        .relu()
        .column(0)
        .scalar(gsampler_core::EltOp::Add, 1e-6);
    let bias =
        (sub.pow(2.0).sum(Axis::Row)).op(&learned.align_rows(&sub), gsampler_core::EltOp::Add);
    let sample = sub.collective_sample(k, Some(&bias));
    let out = sample.div(&bias.gather_row_bias(&sample, &sub), Axis::Row);
    b.output(&out);
    b.output_next_frontiers(&out.row_nodes());
    b.build()
}

/// A node-wise select over a slice of a batch-invariant graph map:
/// pre-processing hoists `A ** 2` into a precomputed slot, and the extract
/// lifts that slot's rows into block space as it lifts the graph's.
fn hoisted_map_slice_layer(k: usize) -> Layer {
    let b = LayerBuilder::new();
    let squared = b.graph().pow(2.0);
    let sample = squared
        .slice_cols(&b.frontiers())
        .individual_sample(k, None);
    b.output(&sample);
    b.output_next_frontiers(&sample.row_nodes());
    b.build()
}

/// A node-wise select over a slice keyed by a bound node list rather than
/// the frontiers. The fused extract reads the frontier list, so fusing it
/// would sample the wrong columns.
fn bound_slice_layer(k: usize) -> Layer {
    let b = LayerBuilder::new();
    let sample = (b.graph().slice_cols(&b.nodes_input("prev"))).individual_sample(k, None);
    b.output(&sample);
    b.output_next_frontiers(&sample.row_nodes());
    b.build()
}

/// Weights for [`pass_layer`] / [`asgcn_layer`] on the 8-wide features of
/// [`cliques_graph`], with zeros and negative entries.
fn model_bindings() -> Bindings {
    let weights = |rows: usize, cols: usize, salt: usize| {
        let cell = |i: usize| ((i * 7 + salt) % 11) as f32 * 0.25 - 1.0;
        Dense::from_vec(rows, cols, (0..rows * cols).map(cell).collect()).unwrap()
    };
    Bindings::new()
        .dense("W1", weights(8, 4, 1))
        .dense("W2", weights(8, 4, 2))
        .dense("W3", weights(3, 1, 3))
        .dense("Wg", weights(8, 1, 4))
        .node_list("prev", vec![5, 20, 40, 64])
}

/// `layer` with its first output also delivered in storage format `fmt`.
fn with_converted_output(mut layer: Layer, fmt: Format) -> Layer {
    let first = layer.program.outputs()[0];
    let converted = layer.program.add(Op::Convert(fmt), vec![first]);
    layer.program.mark_output(converted);
    layer
}

/// Every group of one packed `sample_groups` call must equal its solo run
/// on the same stream field by field — `Debug` spells out the storage
/// format, shape, `indptr`, `indices`, `values`, `row_ids` and `col_ids`
/// of every matrix, and every node list and vector.
fn assert_groups_equal_solo(graph: &Arc<Graph>, layers: &[Layer], opt: OptConfig, what: &str) {
    let sampler = compile(graph.clone(), layers.to_vec(), config(opt)).unwrap();
    let bindings = Bindings::new();
    let n = graph.num_nodes() as NodeId;
    // Uneven groups, an empty one in the middle, and (on graphs with
    // isolated nodes) one whose frontiers have no in-edges at all.
    let group = |b: NodeId| -> Vec<NodeId> {
        match b % 5 {
            1 => Vec::new(),
            3 => (64..n).collect(),
            _ => (0..3 + b % 4).map(|i| (b * 7 + i * 5) % 64).collect(),
        }
    };
    for s in [1, 2, 3, 16] {
        let groups: Vec<Vec<NodeId>> = (0..s).map(group).collect();
        let keys: Vec<Key> = (0..s).map(|b| Key::new(90 + b as u64)).collect();
        let packed = sampler
            .sample_groups(groups.clone(), &bindings, &keys)
            .unwrap_or_else(|e| panic!("{what}: factor {s} failed: {e}"));
        for (b, (group, got)) in groups.into_iter().zip(&packed).enumerate() {
            let key = [Key::new(90 + b as u64)];
            let solo = sampler.sample_groups(vec![group], &bindings, &key).unwrap();
            assert_eq!(
                format!("{:#?}", got.layers),
                format!("{:#?}", solo[0].layers),
                "{what}: group {b} of {s} differs from its solo run"
            );
            // And the matrices as values, not only as they print.
            let values = got
                .layers
                .iter()
                .flatten()
                .zip(solo[0].layers.iter().flatten());
            for (got, solo) in values {
                assert_eq!(
                    got.as_matrix(),
                    solo.as_matrix(),
                    "{what}: group {b} of {s}"
                );
            }
        }
    }
}

fn config(opt: OptConfig) -> SamplerConfig {
    SamplerConfig {
        opt,
        batch_size: 8,
        ..SamplerConfig::new()
    }
}

#[test]
fn graphsage_sample_is_valid_subgraph() {
    let graph = test_graph();
    let sampler = compile(
        graph.clone(),
        vec![graphsage_layer(3)],
        config(OptConfig::all()),
    )
    .unwrap();
    let frontiers = vec![0, 9, 17, 33];
    let out = sampler.sample_batch(&frontiers, &Bindings::new()).unwrap();
    let m = out.layers[0][0].as_matrix().unwrap();
    // Columns are the frontiers; every frontier kept <= 3 in-neighbours.
    assert_eq!(m.global_col_ids(), frontiers);
    for (c, d) in m.data.col_degrees().into_iter().enumerate() {
        assert!(d <= 3, "column {c} kept {d} > 3");
    }
    // Every sampled edge exists in the original graph.
    let base: std::collections::HashSet<(u32, u32)> = graph
        .matrix
        .global_edges()
        .into_iter()
        .map(|(r, c, _)| (r, c))
        .collect();
    for (r, c, _) in m.global_edges() {
        assert!(base.contains(&(r, c)), "edge ({r},{c}) not in graph");
    }
    // Next frontiers are the distinct sampled rows.
    let next = out.layers[0][1].as_nodes().unwrap();
    assert!(!next.is_empty());
    let rows: std::collections::HashSet<u32> = m.row_nodes().into_iter().collect();
    assert_eq!(rows.len(), next.len());
}

#[test]
fn multi_layer_chaining_expands_frontier() {
    let graph = test_graph();
    let sampler = compile(
        graph,
        vec![graphsage_layer(4), graphsage_layer(4)],
        config(OptConfig::all()),
    )
    .unwrap();
    let out = sampler.sample_batch(&[0, 32], &Bindings::new()).unwrap();
    assert_eq!(out.layers.len(), 2);
    // Layer 2's columns must be layer 1's sampled rows.
    let l1 = out.layers[0][0].as_matrix().unwrap();
    let l2 = out.layers[1][0].as_matrix().unwrap();
    assert_eq!(l2.global_col_ids(), l1.row_nodes());
}

#[test]
fn ladies_weights_normalize_per_frontier() {
    let graph = test_graph();
    let sampler = compile(graph, vec![ladies_layer(6)], config(OptConfig::all())).unwrap();
    let out = sampler
        .sample_batch(&[1, 10, 20], &Bindings::new())
        .unwrap();
    let m = out.layers[0][0].as_matrix().unwrap();
    // At most 6 distinct rows selected across the layer.
    assert!(m.row_nodes().len() <= 6);
    // Finalize normalized edge weights per column (LADIES line 7).
    let sums = gsampler_matrix::reduce::reduce(&m.data, gsampler_matrix::ReduceOp::Sum, Axis::Col);
    for (c, s) in sums.into_iter().enumerate() {
        if s != 0.0 {
            assert!((s - 1.0).abs() < 1e-4, "column {c} sums to {s}");
        }
    }
}

#[test]
fn fastgcn_divides_by_node_degree_on_a_compacted_block() {
    // `degrees` is indexed by node; after `compact_rows` a row's position
    // is not its ID, so the bias gather must go by ID.
    let graph = test_graph();
    let degree = graph.matrix.data.row_degrees();
    let weight: std::collections::HashMap<(NodeId, NodeId), f32> = (graph.matrix.global_edges())
        .into_iter()
        .map(|(r, c, w)| ((r, c), w))
        .collect();
    for opt in [OptConfig::all(), OptConfig::plain()] {
        let sampler = compile(graph.clone(), vec![fastgcn_layer(6, true)], config(opt)).unwrap();
        let out = sampler
            .sample_batch(&[1, 10, 20, 63], &Bindings::new())
            .unwrap();
        let edges = out.layers[0][0].as_matrix().unwrap().global_edges();
        assert!(!edges.is_empty());
        for (r, c, v) in edges {
            assert_eq!(v, weight[&(r, c)] / degree[r as usize] as f32, "({r},{c})");
        }
    }
}

#[test]
fn passes_preserve_deterministic_results() {
    // A deterministic program (no sampling): LADIES' bias computation.
    let build = || {
        let b = LayerBuilder::new();
        let a = b.graph();
        let f = b.frontiers();
        let sub = a.slice_cols(&f);
        let probs = sub
            .pow(2.0)
            .scalar(gsampler_core::EltOp::Mul, 0.5)
            .sum(Axis::Row);
        let norm = probs.normalize();
        b.output(&norm);
        b.build()
    };
    let graph = test_graph();
    let frontiers = vec![3, 12, 45, 60];
    let mut results: Vec<Vec<f32>> = Vec::new();
    for opt in [
        OptConfig::plain(),
        OptConfig::compute_only(),
        OptConfig::all(),
        OptConfig {
            layout: LayoutMode::CostAware,
            fusion: false,
            ..OptConfig::all()
        },
    ] {
        let sampler = compile(graph.clone(), vec![build()], config(opt)).unwrap();
        let out = sampler.sample_batch(&frontiers, &Bindings::new()).unwrap();
        results.push(out.layers[0][0].as_vector().unwrap().to_vec());
    }
    for r in &results[1..] {
        assert_eq!(r.len(), results[0].len());
        for (a, b) in r.iter().zip(&results[0]) {
            assert!((a - b).abs() < 1e-5, "pass changed result: {a} vs {b}");
        }
    }
}

#[test]
fn preprocessing_hoists_and_preserves_degree_bias() {
    // FastGCN-style: node bias = in-degree of the full graph.
    let build = || {
        let b = LayerBuilder::new();
        let a = b.graph();
        let f = b.frontiers();
        let deg = a.degrees(Axis::Row);
        let sub = a.slice_cols(&f);
        let samp = sub.collective_sample(5, Some(&deg));
        let next = samp.row_nodes();
        b.output(&samp);
        b.output_next_frontiers(&next);
        b.build()
    };
    let graph = test_graph();
    let sampler = compile(graph.clone(), vec![build()], config(OptConfig::all())).unwrap();
    // The degree reduce was hoisted.
    assert_eq!(sampler.layers()[0].optimized.report.preprocessed, 1);
    assert_eq!(sampler.layers()[0].hoist.cached().len(), 1);
    let out = sampler.sample_batch(&[0, 8, 16], &Bindings::new()).unwrap();
    let m = out.layers[0][0].as_matrix().unwrap();
    assert!(m.row_nodes().len() <= 5);
}

#[test]
fn fusion_report_matches_program_shape() {
    let graph = test_graph();
    let sampler = compile(graph, vec![graphsage_layer(3)], config(OptConfig::all())).unwrap();
    let report = &sampler.layers()[0].optimized.report;
    assert_eq!(report.extract_select_fused, 1);
    // Fused program contains no separate slice+sample pair.
    let prog = &sampler.layers()[0].optimized.program;
    assert_eq!(
        prog.count_ops(|op| matches!(op, gsampler_ir::Op::FusedExtractSelect { .. })),
        1
    );
}

#[test]
fn super_batch_groups_are_independent_and_valid() {
    let graph = test_graph();
    let cfg = SamplerConfig {
        opt: OptConfig::all().with_super_batch(4),
        batch_size: 4,
        ..SamplerConfig::new()
    };
    let sampler = compile(graph.clone(), vec![graphsage_layer(3)], cfg).unwrap();
    assert_eq!(sampler.super_batch_factor(), 4);
    let seeds: Vec<NodeId> = (0..16).collect();
    let mut samples = Vec::new();
    sampler
        .run_epoch_with(&seeds, &Bindings::new(), 0, |_, s| samples.push(s))
        .unwrap();
    assert_eq!(samples.len(), 4);
    let base: std::collections::HashSet<(u32, u32)> = graph
        .matrix
        .global_edges()
        .into_iter()
        .map(|(r, c, _)| (r, c))
        .collect();
    for (b, s) in samples.iter().enumerate() {
        let m = s.layers[0][0].as_matrix().unwrap();
        // Each group's columns are exactly its 4 seeds.
        assert_eq!(
            m.global_col_ids(),
            (b as u32 * 4..b as u32 * 4 + 4).collect::<Vec<_>>()
        );
        for (r, c, _) in m.global_edges() {
            assert!(base.contains(&(r, c)), "group {b}: edge ({r},{c}) invalid");
        }
        for d in m.data.col_degrees() {
            assert!(d <= 3);
        }
    }

    // Independent means identical, layout included: whatever a group is
    // packed with, it gets the diagonal block its solo run produces.
    for weighted in [true, false] {
        let graph = cliques_graph(weighted, 4);
        let check = |layers: &[Layer], opt: OptConfig, what: &str| {
            let what = format!("{what} (weighted: {weighted})");
            assert_groups_equal_solo(&graph, layers, opt, &what);
        };
        check(&[graphsage_layer(3)], OptConfig::all(), "fused GraphSAGE");
        check(&[graphsage_layer(3)], OptConfig::plain(), "GraphSAGE");
        check(&[ladies_layer(5)], OptConfig::all(), "LADIES");
        check(&[ladies_layer(5)], OptConfig::plain(), "plain LADIES");
        let unfused = OptConfig {
            fusion: false,
            ..OptConfig::all()
        };
        check(
            &[hoisted_map_slice_layer(3)],
            unfused,
            "slice of a hoisted map",
        );
        for opt in [OptConfig::all(), OptConfig::plain()] {
            let layer = compacted_ladies_layer(5);
            let compiled = compile(graph.clone(), vec![layer.clone()], config(opt.clone()));
            let nodes = compiled.unwrap().layers()[0]
                .optimized
                .program
                .nodes()
                .to_vec();
            assert!(nodes.iter().any(|n| n.op == Op::CompactRows));
            check(&[layer], opt.clone(), "compacted LADIES");
            check(&[fastgcn_layer(5, false)], opt.clone(), "FastGCN");
            // The bias is node-indexed: a compacted block must read it by
            // ID (by position, a packed group read `inf` for 0.25).
            check(&[fastgcn_layer(5, true)], opt, "compacted FastGCN");
        }
        for fmt in [Format::Csr, Format::Coo] {
            let sage = with_converted_output(graphsage_layer(3), fmt);
            let sampler = compile(
                graph.clone(),
                vec![sage.clone()],
                config(OptConfig::plain()),
            );
            let sample = sampler
                .unwrap()
                .sample_batch(&[0, 9], &Bindings::new())
                .unwrap();
            assert_eq!(sample.layers[0][2].as_matrix().unwrap().data.format(), fmt);
            check(
                &[sage],
                OptConfig::plain(),
                &format!("GraphSAGE as {fmt:?}"),
            );
            let ladies = with_converted_output(compacted_ladies_layer(5), fmt);
            check(&[ladies], OptConfig::plain(), &format!("LADIES as {fmt:?}"));
        }
    }
}

#[test]
fn cross_group_edge_in_a_block_is_a_typed_error() {
    // Two groups of one frontier each over a 4-node graph: a well-formed
    // block matrix keeps column 1's rows in [4, 8).
    let graph = Graph::from_edges("g", 4, &[(0, 1, 1.0), (2, 3, 1.0)], false).unwrap();
    let bindings = Bindings::new();
    let ctx = ExecCtx {
        s: 2,
        col_offsets: &[0, 1, 2],
        concat_frontiers: &[1, 3],
        ..ExecCtx::plain(&graph, &bindings)
    };
    let block = |row_of_col_1: NodeId| {
        let csc = Csc::new(8, 2, vec![0, 1, 2], vec![0, row_of_col_1], None).unwrap();
        let m = GraphMatrix {
            data: SparseMatrix::Csc(csc),
            row_ids: None,
            col_ids: Some(Arc::new(vec![1, 3])),
        };
        // What a frontier slice of the graph is to the fact table.
        let mut p = gsampler_ir::Program::new();
        let (g, f) = (
            p.add(Op::InputGraph, vec![]),
            p.add(Op::InputFrontiers, vec![]),
        );
        let slice = p.add(Op::SliceCols, vec![g, f]);
        let facts = gsampler_ir::facts(&p, &[]).unwrap();
        superbatch::split_outputs(vec![Arc::new(Value::Matrix(m))], &ctx, &facts, &[slice])
    };
    let split = block(4 + 2).unwrap();
    assert_eq!(
        split[1][0].as_matrix().unwrap().global_edges(),
        [(2, 3, 1.0)]
    );
    // Row 2 belongs to group 0: `% n` used to fold it into group 1's sample.
    match block(2) {
        Err(Error::Execution(msg)) => assert!(msg.contains("another group"), "{msg}"),
        other => panic!("cross-group edge was not rejected: {other:?}"),
    }
}

#[test]
fn fused_extract_select_is_slice_then_sample_field_by_field() {
    // Weighted graph, one group and three with an empty one in the middle.
    let graph = test_graph();
    let bindings = Bindings::new();
    let base = Value::Matrix(graph.matrix.clone());
    for groups in [
        vec![vec![3, 17, 40, 9]],
        vec![vec![1, 8, 22], vec![], vec![63, 5]],
    ] {
        let concat: Vec<NodeId> = groups.concat();
        let mut col_offsets = vec![0];
        for group in &groups {
            col_offsets.push(col_offsets[col_offsets.len() - 1] + group.len());
        }
        let ctx = ExecCtx {
            s: groups.len(),
            col_offsets: &col_offsets,
            concat_frontiers: &concat,
            ..ExecCtx::plain(&graph, &bindings)
        };
        let frontiers = Value::Nodes(concat.clone());
        let streams =
            || -> Vec<Key> { (0..groups.len() as u64).map(|b| Key::new(40 + b)).collect() };
        for (k, replace) in [(3, false), (3, true), (1, true), (100, false)] {
            let fused = Op::FusedExtractSelect { k, replace };
            let fused = kernels::run(&fused, &[&base], &ctx, &streams()).unwrap();
            let rngs = streams();
            let sliced = kernels::run(&Op::SliceCols, &[&base, &frontiers], &ctx, &rngs);
            let select = Op::IndividualSample { k, replace };
            let unfused = kernels::run(&select, &[&sliced.unwrap()], &ctx, &rngs).unwrap();
            // `Debug` spells out format, shape, `indptr`, `indices`,
            // `values`, `row_ids` and `col_ids`.
            assert_eq!(
                format!("{fused:#?}"),
                format!("{unfused:#?}"),
                "k {k} replace {replace} over {} groups",
                groups.len()
            );
            let m = fused.as_matrix().unwrap();
            assert_eq!(m.shape(), (64 * groups.len(), concat.len()));
            assert!(m.data.is_weighted());
            let degrees = m.data.col_degrees();
            // Every in-degree is >= 7: three distinct picks without
            // replacement, at least one and at most `k` with.
            assert!(degrees.iter().all(|&d| (1..=k).contains(&d)), "{degrees:?}");
            assert!(replace || k > 3 || degrees.iter().all(|&d| d == 3));
        }
    }
}

#[test]
fn super_batch_ladies_selects_k_rows_per_group() {
    let graph = test_graph();
    let cfg = SamplerConfig {
        opt: OptConfig::all().with_super_batch(2),
        batch_size: 4,
        ..SamplerConfig::new()
    };
    let sampler = compile(graph, vec![ladies_layer(5)], cfg).unwrap();
    assert_eq!(sampler.super_batch_factor(), 2);
    let seeds: Vec<NodeId> = vec![0, 1, 2, 3, 32, 33, 34, 35];
    let mut samples = Vec::new();
    sampler
        .run_epoch_with(&seeds, &Bindings::new(), 0, |_, s| samples.push(s))
        .unwrap();
    assert_eq!(samples.len(), 2);
    for s in &samples {
        let m = s.layers[0][0].as_matrix().unwrap();
        assert!(m.row_nodes().len() <= 5, "more than k rows in a group");
        // Normalization held per group as well.
        let sums =
            gsampler_matrix::reduce::reduce(&m.data, gsampler_matrix::ReduceOp::Sum, Axis::Col);
        for v in sums {
            if v != 0.0 {
                assert!((v - 1.0).abs() < 1e-4);
            }
        }
    }
}

#[test]
fn super_batch_two_layer_chaining_with_uneven_groups() {
    // Layer 1's per-group next frontiers have different sizes; layer 2
    // must still run them as one block-diagonal execution and split
    // correctly.
    let graph = test_graph();
    let cfg = SamplerConfig {
        opt: OptConfig::all().with_super_batch(3),
        batch_size: 4,
        ..SamplerConfig::new()
    };
    let sampler = compile(
        graph.clone(),
        vec![graphsage_layer(3), graphsage_layer(2)],
        cfg,
    )
    .unwrap();
    let seeds: Vec<NodeId> = (0..12).collect();
    let mut samples = Vec::new();
    sampler
        .run_epoch_with(&seeds, &Bindings::new(), 0, |_, s| samples.push(s))
        .unwrap();
    assert_eq!(samples.len(), 3);
    let base: std::collections::HashSet<(u32, u32)> = graph
        .matrix
        .global_edges()
        .into_iter()
        .map(|(r, c, _)| (r, c))
        .collect();
    for (b, s) in samples.iter().enumerate() {
        let l1 = s.layers[0][0].as_matrix().unwrap();
        let l2 = s.layers[1][0].as_matrix().unwrap();
        // Layer 2's columns are exactly this group's layer-1 row nodes.
        assert_eq!(
            l2.global_col_ids(),
            l1.row_nodes(),
            "group {b}: layer chaining broke under super-batching"
        );
        for (r, c, _) in l2.global_edges() {
            assert!(base.contains(&(r, c)), "group {b}: invalid edge");
        }
        for d in l2.data.col_degrees() {
            assert!(d <= 2);
        }
    }
    // Chained layers: each group's second layer runs on its own first
    // layer's rows, so both layers must match the solo run exactly.
    let two = |layer: fn(usize) -> Layer| [layer(3), layer(2)];
    assert_groups_equal_solo(&graph, &two(graphsage_layer), OptConfig::all(), "SAGE x2");
    assert_groups_equal_solo(&graph, &two(ladies_layer), OptConfig::all(), "LADIES x2");
}

#[test]
fn superbatch_compatibility_detection() {
    let superbatch_compatible = |p: &gsampler_ir::Program| {
        gsampler_ir::facts::batchable(&gsampler_ir::facts(p, &[]).unwrap())
    };
    // GraphSAGE-style: compatible.
    let sage = graphsage_layer(3);
    assert!(superbatch_compatible(&sage.program));
    // ShaDow's induce step: not compatible.
    let b = LayerBuilder::new();
    let a = b.graph();
    let f = b.frontiers();
    let sub = a.induce(&f);
    b.output(&sub);
    let induce = b.build();
    assert!(!superbatch_compatible(&induce.program));
    // A slice whose node list is derived (not the frontier input): not
    // compatible (the executor cannot segment it).
    let b = LayerBuilder::new();
    let a = b.graph();
    let f = b.frontiers();
    let s1 = a.slice_cols(&f).individual_sample(2, None);
    let derived = s1.row_nodes();
    let s2 = a.slice_cols(&derived);
    b.output(&s2);
    let two_hop = b.build();
    assert!(!superbatch_compatible(&two_hop.program));
    // Per-column sampling over a matrix whose columns are not the
    // frontiers (a row slice keeps the base graph's columns): a column's
    // draw cannot be attributed to a group, so not compatible.
    assert!(!superbatch_compatible(&row_slice_sample_layer().program));
}

#[test]
fn a_row_sum_over_a_compacted_sample_is_not_pack_exact() {
    // The sum has one entry per kept block row, but un-blocking splits a
    // vector by its length: packing tenants would hand each a wrong share.
    let b = LayerBuilder::new();
    let sample = (b.graph().slice_cols(&b.frontiers()))
        .individual_sample(3, None)
        .compact_rows();
    b.output(&sample.sum(Axis::Row));
    let layer = b.build();
    for opt in [OptConfig::all(), OptConfig::plain()] {
        let sampler = compile(test_graph(), vec![layer.clone()], config(opt)).unwrap();
        assert!(!sampler.pack_exact());
    }
}

#[test]
fn a_hoisted_bound_list_slice_is_whole_in_every_group() {
    // The slice by a bound list varies with the binding only, so it and
    // its row list hoist: one value, computed once for every group.
    // Several groups must each get the whole list, as they do solo.
    let b = LayerBuilder::new();
    let listed = (b.graph().slice_cols(&b.nodes_input("prev"))).row_nodes();
    let sample = (b.graph().slice_cols(&b.frontiers())).individual_sample(2, None);
    b.output(&sample);
    b.output(&listed);
    let layer = b.build();
    let (graph, bindings) = (cliques_graph(true, 4), model_bindings());
    let groups = vec![vec![0, 9], vec![17, 33], vec![63]];
    let seeded = |b: usize| Key::new(b as u64);
    for (opt, hoisted) in [(OptConfig::all(), true), (OptConfig::plain(), false)] {
        let sampler = compile(graph.clone(), vec![layer.clone()], config(opt)).unwrap();
        let keys: Vec<Key> = (0..groups.len()).map(seeded).collect();
        let packed = sampler.sample_groups(groups.clone(), &bindings, &keys);
        // In the launch, a slice by a bound list cannot be super-batched.
        assert_eq!(packed.is_ok(), hoisted);
        let Ok(packed) = packed else { continue };
        // Its row list is in no group's block: never packed across callers.
        assert!(!sampler.pack_exact());
        for (b, group) in groups.iter().enumerate() {
            let solo = sampler
                .sample_groups(vec![group.clone()], &bindings, &[seeded(b)])
                .unwrap();
            let show = |s: &gsampler_core::GraphSample| format!("{:?}", s.layers);
            assert_eq!(show(&packed[b]), show(&solo[0]), "group {b}");
        }
    }
}

fn row_slice_sample_layer() -> Layer {
    let b = LayerBuilder::new();
    let a = b.graph();
    let f = b.frontiers();
    let s = a.slice_rows(&f).individual_sample(2, None);
    b.output(&s);
    b.build()
}

#[test]
fn unattributable_column_sampling_falls_back_to_factor_one() {
    // Asking for (or auto-planning) a super-batch factor on a program that
    // samples columns outside frontier space must clamp to factor 1 at
    // compile time, not fail every window at run time.
    let seeds: Vec<NodeId> = (0..32).collect();
    let epoch = |cfg: SamplerConfig| {
        let sampler = compile(test_graph(), vec![row_slice_sample_layer()], cfg).unwrap();
        assert_eq!(sampler.super_batch_factor(), 1);
        assert!(!sampler.pack_exact());
        let mut samples = Vec::new();
        let report = sampler
            .run_epoch_with(&seeds, &Bindings::new(), 0, |_, s| {
                samples.push(format!("{:?}", s.layers))
            })
            .unwrap();
        assert_eq!(report.batches, 4);
        assert!(!report.faults.any());
        samples
    };
    let base = SamplerConfig {
        batch_size: 8,
        ..SamplerConfig::new()
    };
    let plain = epoch(base.clone());
    let asked = epoch(SamplerConfig {
        opt: OptConfig::all().with_super_batch(2),
        ..base.clone()
    });
    let planned = epoch(SamplerConfig {
        auto_super_batch_budget: Some(1e12),
        ..base
    });
    assert_eq!(plain, asked);
    assert_eq!(plain, planned);
}

#[test]
fn epoch_driver_covers_all_seeds() {
    let graph = test_graph();
    let sampler = compile(graph, vec![graphsage_layer(2)], config(OptConfig::all())).unwrap();
    let seeds: Vec<NodeId> = (0..30).collect();
    let mut seen_cols: Vec<u32> = Vec::new();
    let report = sampler
        .run_epoch_with(&seeds, &Bindings::new(), 0, |_, s| {
            let m = s.layers[0][0].as_matrix().unwrap().clone();
            seen_cols.extend(m.global_col_ids());
        })
        .unwrap();
    // batch_size 8 over 30 seeds = 4 batches (last short).
    assert_eq!(report.batches, 4);
    seen_cols.sort_unstable();
    assert_eq!(seen_cols, (0..30).collect::<Vec<_>>());
    assert!(report.modeled_time > 0.0);
    assert!(report.stats.kernel_launches > 0);
}

#[test]
fn determinism_same_seed_same_sample() {
    let graph = test_graph();
    let mk = || {
        compile(
            graph.clone(),
            vec![graphsage_layer(3)],
            config(OptConfig::all()),
        )
        .unwrap()
    };
    let a = mk().sample_batch(&[0, 9], &Bindings::new()).unwrap();
    let b = mk().sample_batch(&[0, 9], &Bindings::new()).unwrap();
    let ma = a.layers[0][0].as_matrix().unwrap().global_edges();
    let mb = b.layers[0][0].as_matrix().unwrap().global_edges();
    assert_eq!(ma, mb);
}

#[test]
fn pass_style_compute_with_dense_inputs() {
    // Reduced PASS: attention from feature projections drives sampling.
    let graph = test_graph();
    let build = || {
        let b = LayerBuilder::new();
        let a = b.graph();
        let f = b.frontiers();
        let sub = a.slice_cols(&f);
        let feats = b.dense_input("features");
        let w1 = b.dense_input("W1");
        let bb = feats.matmul(&w1);
        let cc = feats.gather_rows(&f).matmul(&w1);
        let att = sub.sddmm(&bb, &cc);
        let a3 = sub.div(&sub.sum(Axis::Col), Axis::Col);
        let stacked = Mat::stack(&[&att, &a3]);
        let w3 = b.dense_input("W3");
        let bias = stacked.matmul(&w3.softmax()).relu();
        let biased = sub.with_edge_values(&bias, 0);
        let samp = sub.individual_sample(3, Some(&biased));
        let next = samp.row_nodes();
        b.output(&samp);
        b.output_next_frontiers(&next);
        b.build()
    };
    let sampler = compile(graph, vec![build()], config(OptConfig::all())).unwrap();
    let bindings = Bindings::new()
        .dense("W1", Dense::from_vec(8, 4, vec![0.1; 32]).unwrap())
        .dense("W3", Dense::from_vec(2, 1, vec![0.5, 0.5]).unwrap());
    let out = sampler.sample_batch(&[0, 17], &bindings).unwrap();
    let m = out.layers[0][0].as_matrix().unwrap();
    for d in m.data.col_degrees() {
        assert!(d <= 3);
    }
}

#[test]
fn model_driven_samplers_agree_across_every_ablation() {
    // The fused attention combine against its unfused chain (`no-fusion`,
    // `plain`), the gather moved through the GEMM against the recomputed
    // product (`no-cse`, `plain`), with and without DCE and under every
    // layout: the same sample, value for value. The layer-wise samplers
    // likewise: the fused extracts against the slice chains. A slice not
    // keyed by the frontiers is never fused.
    let graph = cliques_graph(true, 4);
    let bindings = model_bindings();
    let frontiers = [0, 9, 17, 33, 63, 65];
    for (what, layer) in [
        ("PASS", pass_layer(3)),
        ("AS-GCN", asgcn_layer(6)),
        ("LADIES", ladies_layer(6)),
        ("FastGCN", fastgcn_layer(6, false)),
        ("slice by a bound list", bound_slice_layer(2)),
    ] {
        let run = |opt: OptConfig| {
            let sampler = compile(graph.clone(), vec![layer.clone()], config(opt)).unwrap();
            let out = sampler.sample_batch(&frontiers, &bindings).unwrap();
            let mut edges = out.layers[0][0].as_matrix().unwrap().global_edges();
            edges.sort_by_key(|&(r, c, _)| (r, c));
            let edges: Vec<_> = edges.iter().map(|&(r, c, v)| (r, c, v.to_bits())).collect();
            (edges, out.layers[0][1].as_nodes().unwrap().to_vec())
        };
        let reference = run(OptConfig::all());
        assert!(!reference.0.is_empty(), "{what} sampled nothing");
        for (name, opt) in OptConfig::ablations() {
            assert_eq!(run(opt), reference, "{what} under {name}");
        }
    }
}

#[test]
fn ladies_layers_share_one_hoisted_square_equal_to_the_per_batch_map() {
    let graph = test_graph();
    let layers = vec![ladies_layer(4); 3];
    let sampler = compile(graph.clone(), layers, config(OptConfig::all())).unwrap();
    let squares: Vec<Arc<Value>> = (sampler.layers().iter())
        .map(|l| l.hoist.cached()[0].clone())
        .collect();
    assert!(squares.iter().all(|sq| Arc::ptr_eq(sq, &squares[0])));
    // `A ** 2` as the per-batch `ScalarOp` kernel computes it, bit for bit.
    let bindings = Bindings::new();
    let ctx = ExecCtx::plain(&graph, &bindings);
    let pow = Op::ScalarOp(gsampler_core::EltOp::Pow, 2.0);
    let per_batch = kernels::run(&pow, &[&graph.matrix_value()], &ctx, &[Key::new(0)]).unwrap();
    let bits = |v: &Value| -> Vec<u32> {
        let values = v.as_matrix().unwrap().data.values().unwrap();
        values.iter().map(|x| x.to_bits()).collect()
    };
    assert_eq!(bits(&squares[0]), bits(&per_batch));
}

#[test]
fn compiled_pass_layer_computes_each_projection_once() {
    let graph = test_graph();
    let sampler = compile(graph, vec![pass_layer(3)], config(OptConfig::all())).unwrap();
    let optimized = &sampler.layers()[0].optimized;
    assert_eq!(optimized.report.gather_through_gemm, 2);
    assert_eq!(optimized.report.bias_select_fused, 1);
    // The two projections and `softmax(W3)` read bound inputs only, so
    // pre-processing hoists them; the launch gathers rows of the products.
    assert_eq!(optimized.report.preprocessed, 3);
    let gemm = |op: &Op| matches!(op, Op::Gemm);
    assert_eq!(optimized.precompute.count_ops(gemm), 2);
    let count = |pred: fn(&Op) -> bool| optimized.program.count_ops(pred);
    assert_eq!(count(gemm), 0);
    assert_eq!(count(|op| matches!(op, Op::DenseGatherRows)), 2);
    // The bias chain is evaluated inside the select: no SDDMM, broadcast,
    // stack, projection or edge-value array.
    assert_eq!(count(|op| matches!(op, Op::FusedBiasSelect { .. })), 1);
    assert_eq!(count(|op| matches!(op, Op::Sddmm | Op::Broadcast(..))), 0);
    assert_eq!(count(|op| matches!(op, Op::StackEdgeValues)), 0);
    assert_eq!(count(|op| matches!(op, Op::DenseUnary(..))), 0);
    assert_eq!(count(|op| matches!(op, Op::EdgeValuesFromDense { .. })), 0);
}

/// Every output of `sampler`'s sample of `frontiers`, as comparable bits.
fn sample_bits(sampler: &Sampler, frontiers: &[NodeId], bindings: &Bindings) -> Vec<Vec<u64>> {
    let out = sampler.sample_batch(frontiers, bindings).unwrap();
    let bits = |v: &Value| -> Vec<u64> {
        match v {
            Value::Matrix(m) => {
                let mut edges = m.global_edges();
                edges.sort_by_key(|&(r, c, _)| (r, c));
                let edge = |(r, c, v): (NodeId, NodeId, f32)| [r, c, v.to_bits()].map(u64::from);
                edges.into_iter().flat_map(edge).collect()
            }
            Value::Nodes(n) => n.iter().map(|&n| u64::from(n)).collect(),
            other => panic!("unexpected output {other:?}"),
        }
    };
    out.layers.iter().flatten().map(bits).collect()
}

#[test]
fn rebinding_a_hoisted_weight_matches_a_freshly_compiled_sampler() {
    // PASS's projections and AS-GCN's learned score are hoisted and
    // memoised per bound `Arc`. Rebinding the weight between samples must
    // give what a sampler that never saw the old weight gives: for new
    // values, for the same values in a new `Arc`, and for a new `Arc` bound
    // after every handle to the old one is gone (its address may be reused).
    let graph = Arc::new(Dataset::generate(DatasetKind::Tiny, 1.0, 2023).graph);
    let dim = graph.features.as_ref().unwrap().ncols();
    let frontiers: Vec<NodeId> = (0..48).map(|i| i * 5).collect();
    let weight = |(rows, cols): (usize, usize), seed: u64| {
        Dense::random(rows, cols, 1.0, &mut StdRng::seed_from_u64(seed))
    };
    let base = Bindings::new()
        .dense("W1", weight((dim, 4), 1))
        .dense("W2", weight((dim, 4), 2))
        .dense("W3", weight((3, 1), 3))
        .dense("Wg", weight((dim, 1), 4));
    for (what, layers, name) in [
        ("PASS", vec![pass_layer(2); 2], "W1"),
        ("AS-GCN", vec![asgcn_layer(12); 2], "Wg"),
    ] {
        let shape = base.get_dense(name).unwrap().shape();
        let compiled = || compile(graph.clone(), layers.clone(), config(OptConfig::all())).unwrap();
        let fresh = |b: &Bindings| sample_bits(&compiled(), &frontiers, b);
        let sampler = compiled();
        let first = base.clone();
        assert_eq!(sample_bits(&sampler, &frontiers, &first), fresh(&first));

        // New values; they must sample differently, or the case is blind.
        let rebound = first.clone().dense(name, weight(shape, 10));
        let want = fresh(&rebound);
        assert_ne!(want, fresh(&first), "{what}: the new {name} samples alike");
        let got = sample_bits(&sampler, &frontiers, &rebound);
        assert_eq!(got, want, "{what}: new values");

        // The same values in a new `Arc`.
        let copied = rebound.get_dense(name).unwrap().clone();
        let copy = rebound.clone().dense(name, copied);
        let got = sample_bits(&sampler, &frontiers, &copy);
        assert_eq!(got, want, "{what}: same values, new Arc");

        // Every handle to the memoised weight dropped before the next bind.
        drop((first, rebound, copy));
        let again = base.clone().dense(name, weight(shape, 11));
        let want_again = fresh(&again);
        assert_ne!(want_again, want, "{what}: the third {name} samples alike");
        let got = sample_bits(&sampler, &frontiers, &again);
        assert_eq!(got, want_again, "{what}: old bindings dropped first");
    }
}

#[test]
fn missing_binding_is_reported() {
    let graph = test_graph();
    let build = || {
        let b = LayerBuilder::new();
        let a = b.graph();
        let f = b.frontiers();
        let sub = a.slice_cols(&f);
        let w = b.dense_input("W_missing");
        let out = sub.spmm(&w);
        let _ = &out;
        b.output(&out);
        b.build()
    };
    let sampler = compile(graph, vec![build()], config(OptConfig::plain())).unwrap();
    let err = sampler.sample_batch(&[0], &Bindings::new()).unwrap_err();
    assert!(err.to_string().contains("W_missing"), "{err}");
}

#[test]
fn stats_accumulate_and_reset() {
    let graph = test_graph();
    let sampler = compile(graph, vec![graphsage_layer(2)], config(OptConfig::all())).unwrap();
    sampler.sample_batch(&[0, 1], &Bindings::new()).unwrap();
    assert!(sampler.device().stats().total_time > 0.0);
    sampler.reset_stats();
    assert_eq!(sampler.device().stats().kernel_launches, 0);
}

#[test]
fn vector_outputs_survive_pipeline() {
    // Output both a vector and a scalarized value to exercise value kinds.
    let graph = test_graph();
    let build = || {
        let b = LayerBuilder::new();
        let a = b.graph();
        let f = b.frontiers();
        let sub = a.slice_cols(&f);
        let colsum = sub.sum(Axis::Col);
        let total = colsum.sum();
        let _ = &total;
        b.output(&colsum);
        b.output(&total);
        b.build()
    };
    let sampler = compile(graph.clone(), vec![build()], config(OptConfig::all())).unwrap();
    let out = sampler.sample_batch(&[0, 1, 2], &Bindings::new()).unwrap();
    let v = out.layers[0][0].as_vector().unwrap();
    assert_eq!(v.len(), 3);
    let s = out.layers[0][1].as_scalar().unwrap();
    let expect: f32 = v.iter().sum();
    assert!((s - expect).abs() < 1e-4);
    // Weighted graph: in-degree 7 within a clique, weights >= 1.
    assert!(v.iter().all(|&x| x > 0.0));
    match &out.layers[0][0] {
        Value::Vector(_) => {}
        other => panic!("expected vector, got {}", other.kind_name()),
    }
}
