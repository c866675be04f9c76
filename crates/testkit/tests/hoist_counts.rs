//! Kernel counts of the binding hoist, read from the device session's
//! per-kernel statistics (deterministic call counts, no wall clock).
//!
//! PASS's `features @ W1`, `features @ W2` and `softmax(W3)` read bound
//! inputs only, so pre-processing hoists them and the sampler evaluates
//! them once per set of bound `Arc`s, shared by both layers and by every
//! sampler compiled from the same plan-database entry. Samplers whose
//! bindings feed per-batch operators hoist nothing, and their counts are
//! pinned to what they were before the hoist existed.

use std::sync::Arc;

use gsampler_algos::drivers::pass_bindings;
use gsampler_algos::{nodewise, Hyper};
use gsampler_core::{compile, Bindings, Graph, OptConfig, PlanDb, Sampler, SamplerConfig};
use gsampler_engine::ExecStats;
use gsampler_graphs::{Dataset, DatasetKind};
use gsampler_testkit::drive::{compile_algorithm, drive_sampler, sampler_config};
use gsampler_testkit::oracle::oracle_hyper;

const BATCH: usize = 32;

fn tiny() -> (Arc<Graph>, Vec<u32>) {
    let dataset = Dataset::generate(DatasetKind::Tiny, 1.0, 2023);
    let mut seeds = dataset.frontiers;
    seeds.truncate(4 * BATCH);
    (Arc::new(dataset.graph), seeds)
}

fn calls(stats: &ExecStats, kernel: &str) -> u64 {
    stats.per_kernel.get(kernel).map_or(0, |k| k.count)
}

fn pass_sampler(graph: &Arc<Graph>, db: Option<&Arc<PlanDb>>) -> Sampler {
    let config = SamplerConfig {
        plan_db: db.cloned(),
        ..sampler_config(OptConfig::all(), 7, BATCH)
    };
    let sampler = compile(graph.clone(), nodewise::pass(&[4, 3]), config).unwrap();
    assert_eq!(sampler.super_batch_factor(), 1);
    sampler
}

fn pass_weights(graph: &Graph, seed: u64) -> Bindings {
    let dim = graph.features.as_ref().unwrap().ncols();
    pass_bindings(dim, Hyper::paper().hidden, seed)
}

#[test]
fn a_warm_pass_epoch_runs_no_projection() {
    let (graph, seeds) = tiny();
    let sampler = pass_sampler(&graph, None);
    let bindings = pass_weights(&graph, 1);
    // The first launch fills the memo: two products and one softmax for
    // both layers, inside the epoch that needs them.
    let cold = sampler.run_epoch(&seeds, &bindings, 0).unwrap().stats;
    assert_eq!((calls(&cold, "gemm"), calls(&cold, "dense_map")), (2, 1));
    let warm = sampler.run_epoch(&seeds, &bindings, 1).unwrap().stats;
    assert_eq!((calls(&warm, "gemm"), calls(&warm, "dense_map")), (0, 0));
    assert_eq!(warm.kernel_launches + 3, cold.kernel_launches);
}

#[test]
fn rebinding_the_projections_every_batch_runs_two_gemms_per_batch() {
    let (graph, seeds) = tiny();
    let sampler = pass_sampler(&graph, None);
    let base = pass_weights(&graph, 1);
    let mut batch = 0u64;
    let report = sampler
        .drive_epoch(
            &seeds,
            0,
            |groups, keys| {
                // A trainer's step: new `W1` / `W2`, the same `W3`.
                batch += 1;
                let step = pass_weights(&graph, 100 + batch);
                let bindings = base
                    .clone()
                    .dense("W1", step.get_dense("W1").unwrap().clone())
                    .dense("W2", step.get_dense("W2").unwrap().clone());
                sampler.sample_groups(groups, &bindings, keys)
            },
            |_, _| {},
        )
        .unwrap();
    assert_eq!(report.batches, seeds.len() / BATCH);
    assert_eq!(calls(&report.stats, "gemm"), 2 * report.batches as u64);
}

#[test]
fn a_sampler_from_the_same_plan_db_entry_and_bindings_fills_nothing() {
    let (graph, seeds) = tiny();
    let db = Arc::new(PlanDb::in_memory());
    let bindings = pass_weights(&graph, 1);
    let first = pass_sampler(&graph, Some(&db));
    let filled = first.run_epoch(&seeds, &bindings, 0).unwrap().stats;
    assert_eq!(calls(&filled, "gemm"), 2);
    let second = pass_sampler(&graph, Some(&db));
    assert_eq!(second.plan_db_stats().hits, 1);
    let shared = second.run_epoch(&seeds, &bindings, 0).unwrap().stats;
    assert_eq!(
        (calls(&shared, "gemm"), calls(&shared, "dense_map")),
        (0, 0)
    );
}

/// Per-kernel call counts of one drive of `algo`, as `name:count` pairs
/// in name order.
fn drive_counts(graph: &Arc<Graph>, seeds: &[u32], algo: &str) -> String {
    let h = oracle_hyper();
    let config = sampler_config(OptConfig::all(), 7, BATCH);
    let sampler = compile_algorithm(graph, algo, &h, config.clone(), None)
        .unwrap()
        .unwrap();
    drive_sampler(graph, algo, &h, &sampler, config, &seeds[..BATCH]).unwrap();
    let stats = sampler.device().stats();
    let pairs: Vec<String> = (stats.per_kernel.iter())
        .map(|(name, agg)| format!("{name}:{}", agg.count))
        .collect();
    pairs.join(" ")
}

#[test]
fn samplers_whose_bindings_feed_batch_operators_keep_their_counts() {
    let (graph, seeds) = tiny();
    for (algo, want) in [
        ("SEAL", SEAL_COUNTS),
        ("GCN-BS", GCN_BS_COUNTS),
        ("Node2Vec", NODE2VEC_COUNTS),
    ] {
        assert_eq!(drive_counts(&graph, &seeds, algo), want, "{algo}");
    }
}

// Captured before pre-processing hoisted binding-invariant values; SEAL's
// and GCN-BS's `pow(0) · bias[row]` map is since evaluated inside the select
// (Bias-Select fusion), so they no longer launch a `fused_edge_map`.
const SEAL_COUNTS: &str = "individual_sample[csc]:2 slice_cols[csc]:2 vector_op:2";
const GCN_BS_COUNTS: &str = "individual_sample[csc]:6 slice_cols[csc]:6 vector_op:6";
const NODE2VEC_COUNTS: &str =
    "individual_sample[csc]:4 node2vec_bias[csc]:4 slice_cols[csc]:4 vector_op:4";
