//! Thread-count determinism: every randomized kernel must produce
//! byte-identical output no matter how many pool workers execute it.
//!
//! The worker-pool runtime guarantees that work decomposition and RNG
//! stream assignment are functions of the input only (column `c` draws
//! from stream `c`, etc.), so `GSAMPLER_THREADS=1`, `2`, and `8` must
//! fingerprint identically. The dataset here is large enough (tens of
//! thousands of edges) that the size gates actually engage the parallel
//! paths at widths > 1 — on a tiny graph this test would pass vacuously.
//!
//! The same run pins grouping invisibility: a mini-batch's randomness is a
//! function of (seed, epoch, batch index) only and a group's share of a
//! super-batched execution is the diagonal block its solo run produces, so
//! every epoch-driven algorithm must fingerprint identically — storage
//! layout included — batch for batch at every super-batch factor as well
//! as every thread count.

use std::sync::Arc;

use gsampler::algos::drivers;
use gsampler::algos::{all_algorithms, nodewise, Driver, Hyper};
use gsampler::core::{compile, Bindings, Graph, MultiGpuSampler, OptConfig, SamplerConfig, Value};
use gsampler::engine::Key;
use gsampler::graphs::{Dataset, DatasetKind};
use gsampler::matrix::sample::{collective_sample_seeded, individual_sample_seeded};
use gsampler::matrix::{compact, spmm, SparseMatrix};

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x1_0000_0000_01B3;

fn fold(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

fn fold_matrix(h: &mut u64, m: &SparseMatrix) {
    let (r, c) = m.shape();
    fold(h, format!("{:?}", m.format()).as_bytes());
    fold(h, &(r as u64).to_le_bytes());
    fold(h, &(c as u64).to_le_bytes());
    // Storage order matters: the parallel kernels promise identical
    // layout, not just an identical edge set.
    for (r, c, v) in m.iter_edges() {
        fold(h, &r.to_le_bytes());
        fold(h, &c.to_le_bytes());
        fold(h, &v.to_bits().to_le_bytes());
    }
}

fn fold_value(h: &mut u64, v: &Value) {
    match v {
        Value::Matrix(m) => {
            fold(h, b"matrix");
            fold_matrix(h, &m.data);
            for id in m.global_row_ids() {
                fold(h, &id.to_le_bytes());
            }
            for id in m.global_col_ids() {
                fold(h, &id.to_le_bytes());
            }
        }
        Value::Dense(d) => {
            fold(h, b"dense");
            for x in d.as_slice() {
                fold(h, &x.to_bits().to_le_bytes());
            }
        }
        Value::Vector(xs) => {
            fold(h, b"vector");
            for x in xs {
                fold(h, &x.to_bits().to_le_bytes());
            }
        }
        Value::Nodes(ns) => {
            fold(h, b"nodes");
            for n in ns {
                fold(h, &n.to_le_bytes());
            }
        }
        Value::Scalar(s) => {
            fold(h, b"scalar");
            fold(h, &s.to_bits().to_le_bytes());
        }
    }
}

/// Run the whole parallel surface once: raw matrix kernels on a graph
/// big enough to clear the size gates, then compiled end-to-end sampling
/// for every chained Table-2 algorithm.
fn fingerprint_workload() -> u64 {
    let d = Dataset::generate(DatasetKind::OgbnProducts, 0.02, 7);
    let graph = Arc::new(d.graph);
    let m = &graph.matrix.data;
    let feats = graph.features.as_ref().expect("preset has features");

    let mut h = FNV_OFFSET;

    // Dense aggregation: row-partitioned SpMM over the full graph.
    let agg = spmm::spmm(m, feats).unwrap();
    fold(&mut h, b"spmm");
    for x in agg.as_slice() {
        fold(&mut h, &x.to_bits().to_le_bytes());
    }

    // Format conversions (expansion + counting sort + per-segment sorts).
    fold(&mut h, b"csr");
    fold_matrix(&mut h, &SparseMatrix::Csr(m.to_csr()));
    fold(&mut h, b"coo");
    fold_matrix(&mut h, &SparseMatrix::Coo(m.to_coo()));

    // Seeded samplers with explicit stream pools.
    let pool = Key::new(0xD1CE);
    let ind = individual_sample_seeded(m, 8, None, &pool.child(0)).unwrap();
    fold(&mut h, b"individual");
    fold_matrix(&mut h, &ind);
    let coll = collective_sample_seeded(m, 64, None, &pool.child(1)).unwrap();
    fold(&mut h, b"collective");
    fold_matrix(&mut h, &coll.matrix);
    for r in &coll.rows {
        fold(&mut h, &r.to_le_bytes());
    }

    // Compaction of the (row-sparse) sampled output.
    let compacted = compact::compact_rows(&ind);
    fold(&mut h, b"compact");
    fold_matrix(&mut h, &compacted.matrix);
    for id in &compacted.kept {
        fold(&mut h, &id.to_le_bytes());
    }

    // End-to-end: compile and run every chained algorithm seeded.
    let hyper = Hyper::small();
    let frontiers: Vec<u32> = d.frontiers.iter().take(128).copied().collect();
    let config = SamplerConfig {
        opt: OptConfig::all(),
        batch_size: frontiers.len(),
        ..SamplerConfig::new()
    };
    for spec in all_algorithms(&hyper) {
        if spec.driver != Driver::Chained {
            continue;
        }
        let sampler = compile(graph.clone(), spec.layers, config.clone())
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", spec.name));
        let out = sampler
            .sample_batch_seeded(&frontiers, &Bindings::new(), 42)
            .unwrap_or_else(|e| panic!("{}: sampling failed: {e}", spec.name));
        fold(&mut h, spec.name.as_bytes());
        for layer in &out.layers {
            for v in layer {
                fold_value(&mut h, v);
            }
        }
    }

    // Super-batched epoch execution (block-diagonal grouping): per-segment
    // subpool keying must keep this thread-count independent as well.
    let sb = compile(
        graph.clone(),
        nodewise::graphsage(&[4, 3]),
        SamplerConfig {
            opt: OptConfig::all().with_super_batch(2),
            batch_size: 32,
            ..SamplerConfig::new()
        },
    )
    .unwrap();
    fold(&mut h, b"superbatch-epoch");
    sb.run_epoch_with(&frontiers, &Bindings::new(), 3, |batch, sample| {
        fold(&mut h, &(batch as u64).to_le_bytes());
        for layer in &sample.layers {
            for v in layer {
                fold_value(&mut h, v);
            }
        }
    })
    .unwrap();

    // Multi-GPU sharding: round-robin mini-batches across two modeled
    // devices, each with its own derived seed; the (device, batch) keyed
    // samples must be identical at every worker width.
    let mg = MultiGpuSampler::compile(
        graph.clone(),
        nodewise::graphsage(&[4, 3]),
        SamplerConfig {
            opt: OptConfig::all(),
            batch_size: 32,
            ..SamplerConfig::new()
        },
        2,
    )
    .unwrap();
    fold(&mut h, b"multi-gpu-epoch");
    mg.run_epoch_with(&frontiers, &Bindings::new(), 5, |device, batch, sample| {
        fold(&mut h, &(device as u64).to_le_bytes());
        fold(&mut h, &(batch as u64).to_le_bytes());
        for layer in &sample.layers {
            for v in layer {
                fold_value(&mut h, v);
            }
        }
    })
    .unwrap();
    h
}

/// Per-batch fingerprints of one epoch of every epoch-driven registry
/// algorithm (the ten chained / model-driven / bandit algorithms through
/// `run_epoch_with`, the two walks through `run_walk_epoch_with`) at
/// super-batch factor `factor`: eight mini-batches of 16, so the factors
/// under test cut them into windows of 1, 2, 3+3+2 and 8.
fn epoch_prints(graph: &Arc<Graph>, frontiers: &[u32], factor: usize) -> Vec<(String, Vec<u64>)> {
    let hyper = Hyper::small();
    let config = SamplerConfig {
        opt: OptConfig::all().with_super_batch(factor),
        batch_size: 16,
        ..SamplerConfig::new()
    };
    let mut out = Vec::new();
    for spec in all_algorithms(&hyper) {
        // The visit-counting and inducing walks are host loops, not epochs.
        if spec.driver == Driver::WalkCounting || spec.driver == Driver::WalkInduce {
            continue;
        }
        let walk = spec.driver == Driver::Walk;
        let bindings = spec.bindings(graph, &hyper, 3);
        let sampler = compile(graph.clone(), spec.layers.clone(), config.clone())
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", spec.name));
        let mut prints = vec![FNV_OFFSET; frontiers.len().div_ceil(16)];
        if walk {
            let n2v = spec.second_order();
            drivers::run_walk_epoch_with(&sampler, frontiers, &hyper, n2v, 2, |batch, trace| {
                for step in &trace.positions {
                    fold_value(&mut prints[batch], &Value::Nodes(step.clone()));
                }
            })
        } else {
            sampler.run_epoch_with(frontiers, &bindings, 2, |batch, sample| {
                for v in sample.layers.iter().flatten() {
                    fold_value(&mut prints[batch], v);
                }
            })
        }
        .unwrap_or_else(|e| panic!("{} at factor {factor}: epoch failed: {e}", spec.name));
        out.push((spec.name.to_string(), prints));
    }
    assert_eq!(out.len(), 12, "ten epoch-driven algorithms plus two walks");
    out
}

#[test]
fn outputs_identical_across_thread_counts_and_super_batch_factors() {
    // This is the only test in this binary, so mutating the process
    // environment between runs cannot race another test thread.
    let saved = std::env::var("GSAMPLER_THREADS").ok();
    let d = Dataset::generate(DatasetKind::OgbnProducts, 0.02, 7);
    let frontiers: Vec<u32> = d.frontiers.iter().take(128).copied().collect();
    let graph = Arc::new(d.graph);
    let mut prints = Vec::new();
    let mut epochs = Vec::new();
    for threads in ["1", "2", "8"] {
        std::env::set_var("GSAMPLER_THREADS", threads);
        prints.push((threads, fingerprint_workload()));
        for factor in [1, 2, 3, 16] {
            epochs.push((threads, factor, epoch_prints(&graph, &frontiers, factor)));
        }
    }
    match saved {
        Some(v) => std::env::set_var("GSAMPLER_THREADS", v),
        None => std::env::remove_var("GSAMPLER_THREADS"),
    }
    let (_, base) = prints[0];
    for &(threads, got) in &prints {
        assert_eq!(
            got, base,
            "GSAMPLER_THREADS={threads} diverged: 0x{got:016X} vs 0x{base:016X}"
        );
    }
    let (_, _, plain) = &epochs[0];
    for (threads, factor, got) in &epochs {
        for ((name, want), (_, have)) in plain.iter().zip(got) {
            assert_eq!(
                have, want,
                "{name}: per-batch samples at super-batch factor {factor}, \
                 GSAMPLER_THREADS={threads} differ from the factor-1 single-thread epoch"
            );
        }
    }
}
