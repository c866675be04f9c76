//! Seeded golden-output parity for all 15 Table-2 algorithms.
//!
//! Each algorithm is compiled with full optimizations and driven with
//! fixed seeds; the complete sampled output (every layer, every value,
//! bit-exact edge lists and float payloads) is folded into a fingerprint
//! and compared against baked-in goldens captured from the executor
//! before the kernel-dispatch refactor. Any change to kernel math, RNG
//! consumption order, or output layout shows up here as a one-line diff.
//!
//! To re-capture after an *intentional* behavior change:
//! `GOLDEN_CAPTURE=1 cargo test --test golden_parity -- --nocapture`
//! and paste the printed table over `GOLDEN`.

use std::sync::Arc;

use gsampler::algos::{algorithm, all_algorithms, Drive, Hyper};
use gsampler::core::{compile, Graph, GraphSample, OptConfig, SamplerConfig, Value};
use gsampler::graphs::Dataset;

/// Fingerprints captured after draws became counter-based (seed 42,
/// `Dataset::tiny(7)`, `Hyper::small()`): every sampled bit is
/// `mix(key, counter)` of its group's key, so these differ from the
/// stream-seeded goldens but are identical at every `GSAMPLER_THREADS`
/// setting. They are self-consistent within this repository's mix; they
/// are not comparable across RNG implementations.
const GOLDEN: &[(&str, u64)] = &[
    ("DeepWalk", 0x6B68C3ABF602B0FB),
    ("GraphSAINT", 0x473CC9B738139806),
    ("PinSAGE", 0x19FDA20B31D5F6A0),
    ("HetGNN", 0xB5BE6FF246378EC9),
    ("GraphSAGE", 0x3D090197995F5AEA),
    ("VR-GCN", 0xCBFB779A1BEBA015),
    ("SEAL", 0x009A1CC3523A57C8),
    ("ShaDow", 0x2EB0AFC984938F8C),
    ("Node2Vec", 0x755A8597AA1CB30B),
    ("GCN-BS", 0x6DF14DC85912D5EF),
    ("Thanos", 0xB58F8D65EA6791E1),
    ("PASS", 0xD6BE2D348F041A6F),
    ("FastGCN", 0x45E89F1520669627),
    ("AS-GCN", 0x8AFB99880B14FAE2),
    ("LADIES", 0x27D5DBBEF2675C7A),
];

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x1_0000_0000_01B3;

fn fold(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

fn fold_u64(h: &mut u64, x: u64) {
    fold(h, &x.to_le_bytes());
}

fn fold_f32s(h: &mut u64, xs: &[f32]) {
    for x in xs {
        fold(h, &x.to_bits().to_le_bytes());
    }
}

fn fold_u32s(h: &mut u64, xs: &[u32]) {
    for x in xs {
        fold(h, &x.to_le_bytes());
    }
}

fn fold_value(h: &mut u64, v: &Value) {
    match v {
        Value::Matrix(m) => {
            fold(h, b"matrix");
            let (r, c) = m.shape();
            fold_u64(h, r as u64);
            fold_u64(h, c as u64);
            fold_u32s(h, &m.global_row_ids());
            fold_u32s(h, &m.global_col_ids());
            // Canonical edge order: sort so parity is about the sampled
            // set, independent of storage-format iteration order.
            let mut edges = m.global_edges();
            edges.sort_by_key(|e| (e.0, e.1));
            for (r, c, w) in edges {
                fold_u32s(h, &[r, c]);
                fold(h, &w.to_bits().to_le_bytes());
            }
        }
        Value::Dense(d) => {
            fold(h, b"dense");
            fold_u64(h, d.nrows() as u64);
            fold_u64(h, d.ncols() as u64);
            fold_f32s(h, d.as_slice());
        }
        Value::Vector(v) => {
            fold(h, b"vector");
            fold_f32s(h, v);
        }
        Value::Nodes(n) => {
            fold(h, b"nodes");
            fold_u32s(h, n);
        }
        Value::Scalar(s) => {
            fold(h, b"scalar");
            fold(h, &s.to_bits().to_le_bytes());
        }
    }
}

fn fold_sample(h: &mut u64, out: &GraphSample) {
    for layer in &out.layers {
        fold(h, b"layer");
        for v in layer {
            fold_value(h, v);
        }
    }
}

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

/// Drive one algorithm by the registry's protocol and fold every output
/// into a fingerprint.
fn fingerprint(name: &str) -> u64 {
    let (graph, h) = setup();
    let frontiers: Vec<u32> = (0..h.batch_size as u32).collect();
    let spec = algorithm(name, &h).unwrap_or_else(|| panic!("unknown algorithm {name}"));
    let sampler = compile(graph.clone(), spec.layers.clone(), config(&h))
        .unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
    let drive = spec
        .drive(&graph, &h, &sampler, config(&h), &frontiers)
        .unwrap_or_else(|e| panic!("{name}: drive failed: {e}"));

    let mut hash = FNV_OFFSET;
    fold(&mut hash, name.as_bytes());
    match drive {
        Drive::Samples(batches) => {
            for out in &batches {
                fold_sample(&mut hash, out);
            }
        }
        Drive::Bandit(steps, arms) => {
            for out in &steps {
                fold_sample(&mut hash, out);
            }
            fold_f32s(&mut hash, &arms);
        }
        Drive::Walk(trace) => {
            for step in &trace.positions {
                fold_u32s(&mut hash, step);
            }
        }
        Drive::TopK(lists) => {
            for list in &lists {
                fold_u32s(&mut hash, list);
                fold(&mut hash, b";");
            }
        }
        Drive::Typed(seeds) => {
            for groups in &seeds {
                for group in groups {
                    fold_u32s(&mut hash, group);
                    fold(&mut hash, b",");
                }
                fold(&mut hash, b";");
            }
        }
        Drive::Induced(m) => fold_value(&mut hash, &Value::Matrix(m)),
    }
    hash
}

#[test]
fn golden_outputs_all_fifteen_algorithms() {
    let (_, h) = setup();
    let names: Vec<&'static str> = all_algorithms(&h).iter().map(|s| s.name).collect();
    assert_eq!(names.len(), 15);

    let capture = std::env::var_os("GOLDEN_CAPTURE").is_some();
    let mut mismatches = Vec::new();
    for name in &names {
        let got = fingerprint(name);
        if capture {
            println!("    (\"{name}\", 0x{got:016X}),");
            continue;
        }
        match GOLDEN.iter().find(|(n, _)| n == name) {
            Some(&(_, want)) if want == got => {}
            Some(&(_, want)) => {
                mismatches.push(format!("{name}: got 0x{got:016X}, want 0x{want:016X}"))
            }
            None => mismatches.push(format!("{name}: no golden recorded (got 0x{got:016X})")),
        }
    }
    if capture {
        return;
    }
    assert!(
        mismatches.is_empty(),
        "golden parity broken:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn goldens_are_stable_across_runs() {
    // The fingerprint itself must be deterministic before it can gate
    // refactors: same seed, same process, two runs, same hash.
    for name in ["GraphSAGE", "LADIES", "DeepWalk"] {
        assert_eq!(fingerprint(name), fingerprint(name), "{name} not stable");
    }
}
