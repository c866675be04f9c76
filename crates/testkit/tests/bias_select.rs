//! Launch, memory and error pins of the Bias-Select fusion, read from the
//! device session's per-kernel statistics and memory tracker (call counts
//! and modeled bytes, no wall clock).
//!
//! PASS's bias — two SDDMMs, a row-normalizing broadcast and the attention
//! combine — and GCN-BS / Thanos's `pow(0) · arms[row]` are evaluated per
//! edge inside the node-wise select, so a steady-state batch launches none
//! of those kernels, holds none of their nnz-sized arrays, and rejects an
//! invalid bias exactly as the materialized chain does.

use std::sync::Arc;

use gsampler_algos::drivers::pass_bindings;
use gsampler_algos::{nodewise, Hyper};
use gsampler_core::{compile, Bindings, Graph, OptConfig, Sampler};
use gsampler_engine::ExecStats;
use gsampler_graphs::{Dataset, DatasetKind};
use gsampler_ir::Op;
use gsampler_testkit::drive::sampler_config;

const BATCH: usize = 32;

fn tiny() -> (Arc<Graph>, Vec<u32>) {
    let dataset = Dataset::generate(DatasetKind::Tiny, 1.0, 2023);
    let mut seeds = dataset.frontiers;
    seeds.truncate(2 * BATCH);
    (Arc::new(dataset.graph), seeds)
}

/// Calls of `kernel` in any storage format (`sddmm[csc]`, `sddmm[csr]`, ..).
fn calls(stats: &ExecStats, kernel: &str) -> u64 {
    let named = |name: &str| name == kernel || name.starts_with(&format!("{kernel}["));
    (stats.per_kernel.iter())
        .filter(|(name, _)| named(name))
        .map(|(_, k)| k.count)
        .sum()
}

fn no_fusion() -> OptConfig {
    OptConfig {
        fusion: false,
        ..OptConfig::all()
    }
}

fn pass(graph: &Arc<Graph>, opt: OptConfig) -> (Sampler, Bindings) {
    let sampler = compile(
        graph.clone(),
        nodewise::pass(&[4, 3]),
        sampler_config(opt, 7, BATCH),
    );
    let dim = graph.features.as_ref().unwrap().ncols();
    (
        sampler.unwrap(),
        pass_bindings(dim, Hyper::paper().hidden, 1),
    )
}

/// The device statistics and memory high-water mark of the second of two
/// batches (the first fills the hoisted products).
fn steady_batch(sampler: &Sampler, seeds: &[u32], bindings: &Bindings) -> (ExecStats, u64) {
    sampler.sample_batch(&seeds[..BATCH], bindings).unwrap();
    sampler.reset_stats();
    sampler.sample_batch(&seeds[BATCH..], bindings).unwrap();
    let device = sampler.device();
    (device.stats(), device.memory().peak())
}

#[test]
fn a_steady_pass_batch_launches_no_bias_kernel() {
    let (graph, seeds) = tiny();
    let (sampler, bindings) = pass(&graph, OptConfig::all());
    let fused = |l: &gsampler_core::CompiledLayer| {
        (l.optimized.program).count_ops(|op| matches!(op, Op::FusedBiasSelect { .. }))
    };
    assert!(sampler.layers().iter().all(|l| fused(l) == 1));
    let (stats, _) = steady_batch(&sampler, &seeds, &bindings);
    for kernel in ["sddmm", "broadcast", "eltwise"] {
        assert_eq!(calls(&stats, kernel), 0, "{kernel}");
    }
    // One biased select per layer; the chain's kernels run unfused.
    assert_eq!(calls(&stats, "individual_sample"), 2);
    let (unfused, _) = pass(&graph, no_fusion());
    let (chain, _) = steady_batch(&unfused, &seeds, &bindings);
    assert_eq!(calls(&chain, "sddmm"), 4);
    assert!(stats.kernel_launches < chain.kernel_launches);
}

#[test]
fn a_fused_pass_batch_peaks_below_the_materialized_chain() {
    let (graph, seeds) = tiny();
    let (fused, bindings) = pass(&graph, OptConfig::all());
    let (unfused, _) = pass(&graph, no_fusion());
    let (_, fused_peak) = steady_batch(&fused, &seeds, &bindings);
    let (_, chain_peak) = steady_batch(&unfused, &seeds, &bindings);
    assert!(fused_peak < chain_peak, "{fused_peak} >= {chain_peak}");
}

#[test]
fn an_invalid_arm_is_the_same_error_fused_and_unfused() {
    let (graph, seeds) = tiny();
    let n = graph.num_nodes();
    let compiled = |opt| {
        compile(
            graph.clone(),
            nodewise::bandit(&[3]),
            sampler_config(opt, 7, BATCH),
        )
    };
    let (fused, unfused) = (
        compiled(OptConfig::all()).unwrap(),
        compiled(no_fusion()).unwrap(),
    );
    let fusions = |s: &Sampler| s.layers()[0].optimized.report.bias_select_fused;
    assert_eq!((fusions(&fused), fusions(&unfused)), (1, 0));
    for bad in [-1.0, f32::NAN, f32::INFINITY] {
        // Rows 3, 8, 13, .. carry the bad arm: several columns see one, at
        // varying offsets, and the error names the lowest position.
        let arms: Vec<f32> = (0..n)
            .map(|r| if r % 5 == 3 { bad } else { 1.0 + r as f32 })
            .collect();
        let bindings = Bindings::new().vector("bandit", arms);
        let error = |s: &Sampler| {
            format!(
                "{:?}",
                s.sample_batch(&seeds[..BATCH], &bindings).unwrap_err()
            )
        };
        let want = error(&unfused);
        assert!(want.contains("InvalidProbability"), "{want}");
        assert_eq!(error(&fused), want, "arm {bad}");
    }
}
