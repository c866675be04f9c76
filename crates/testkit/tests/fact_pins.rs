//! Pinned compile-time analyses of every registry program.
//!
//! For the 15 registered algorithms x every `OptConfig::ablations()` entry
//! x {`tiny`, PD at scale 0.05}, with no super-batch budget and with a
//! 256 MiB one, this pins per compiled layer: whether it can be
//! super-batched and, if so, which outputs are proven to live in block-row
//! space; the sampler's `pack_exact` and chosen factor; and what
//! pre-processing hoisted (count and a hash of the precompute program's
//! `Debug` rendering). The table below was captured from the separate
//! analyses the per-program fact table (`gsampler_ir::facts`) replaced, so
//! any drift in what it decides for a registry program fails here. The PASS
//! and AS-GCN hoist columns were recaptured when pre-processing began
//! hoisting values that vary with the bound inputs only; nothing else on
//! those lines moved. The hash column was recaptured, from the code before
//! the change, when the rendering replaced a canonical fingerprint as the
//! program identity; every other column is as it was.

use std::fmt::Write as _;
use std::sync::Arc;

use gsampler_algos::{all_algorithms, Hyper};
use gsampler_core::{compile, Graph, OptConfig, Sampler, SamplerConfig};
use gsampler_graphs::{Dataset, DatasetKind};
use gsampler_ir::{facts, Space};

/// FNV-1a of a program's `Debug` rendering, which is its identity.
fn fnv1a(text: &str) -> u64 {
    (text.bytes()).fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// One line per sampler: `f<factor> x<pack_exact>`, then per layer
/// `c<compatible> <proof> h<hoisted> <precompute hash>`, the proof
/// one character per output (`B` block rows, `.` not proven) or `-` when
/// the layer cannot be super-batched.
fn observe(sampler: &Sampler) -> String {
    let mut line = format!(
        "f{} x{}",
        sampler.super_batch_factor(),
        u8::from(sampler.pack_exact())
    );
    for layer in sampler.layers() {
        let (program, table) = (&layer.optimized.program, &layer.optimized.facts);
        let compatible = facts::batchable(table);
        let block = |&o: &usize| table[o].rows == Some(Space::Block);
        let proof: String = match compatible {
            false => "-".into(),
            true => (program.outputs().iter())
                .map(|o| if block(o) { 'B' } else { '.' })
                .collect(),
        };
        let _ = write!(
            line,
            " | c{} {proof} h{} {:016x}",
            u8::from(compatible),
            layer.optimized.report.preprocessed,
            fnv1a(&format!("{:?}", layer.optimized.precompute))
        );
    }
    line
}

fn table() -> String {
    let h = Hyper::paper();
    let graphs: [(&str, Arc<Graph>); 2] = [
        (
            "tiny",
            Arc::new(Dataset::generate(DatasetKind::Tiny, 1.0, 2023).graph),
        ),
        (
            "PD",
            Arc::new(Dataset::generate(DatasetKind::OgbnProducts, 0.05, 2023).graph),
        ),
    ];
    let mut out = String::new();
    for (dataset, graph) in &graphs {
        for budget in [None, Some(256.0 * (1u64 << 20) as f64)] {
            for algo in all_algorithms(&h) {
                for (ablation, opt) in OptConfig::ablations() {
                    let config = SamplerConfig {
                        opt,
                        batch_size: h.batch_size,
                        auto_super_batch_budget: budget,
                        ..SamplerConfig::new()
                    };
                    let sampler = compile(graph.clone(), algo.layers.clone(), config).unwrap();
                    let budget = if budget.is_some() { "256M" } else { "none" };
                    let _ = writeln!(
                        out,
                        "{} {dataset} {budget} {ablation}: {}",
                        algo.name,
                        observe(&sampler)
                    );
                }
            }
        }
    }
    out
}

#[test]
fn registry_programs_keep_their_pinned_analyses() {
    let got = table();
    let (mut want, mut got_lines) = (PINS.lines(), got.lines());
    for (i, line) in got_lines.by_ref().enumerate() {
        assert_eq!(
            Some(line),
            want.next(),
            "line {i} drifted; full table:\n{got}"
        );
    }
    assert_eq!(
        want.next(),
        None,
        "fewer lines than pinned; full table:\n{got}"
    );
}

const PINS: &str = "\
DeepWalk tiny none all: f1 x0 | c1 B. h0 f61a75f1f4e2f118
DeepWalk tiny none no-dce: f1 x0 | c1 B. h0 f61a75f1f4e2f118
DeepWalk tiny none no-cse: f1 x0 | c1 B. h0 f61a75f1f4e2f118
DeepWalk tiny none no-preprocess: f1 x0 | c1 B. h0 f61a75f1f4e2f118
DeepWalk tiny none no-fusion: f1 x0 | c1 B. h0 f61a75f1f4e2f118
DeepWalk tiny none layout-greedy: f1 x0 | c1 B. h0 f61a75f1f4e2f118
DeepWalk tiny none layout-none: f1 x0 | c1 B. h0 f61a75f1f4e2f118
DeepWalk tiny none plain: f1 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT tiny none all: f1 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT tiny none no-dce: f1 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT tiny none no-cse: f1 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT tiny none no-preprocess: f1 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT tiny none no-fusion: f1 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT tiny none layout-greedy: f1 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT tiny none layout-none: f1 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT tiny none plain: f1 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE tiny none all: f1 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE tiny none no-dce: f1 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE tiny none no-cse: f1 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE tiny none no-preprocess: f1 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE tiny none no-fusion: f1 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE tiny none layout-greedy: f1 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE tiny none layout-none: f1 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE tiny none plain: f1 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN tiny none all: f1 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN tiny none no-dce: f1 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN tiny none no-cse: f1 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN tiny none no-preprocess: f1 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN tiny none no-fusion: f1 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN tiny none layout-greedy: f1 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN tiny none layout-none: f1 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN tiny none plain: f1 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAGE tiny none all: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GraphSAGE tiny none no-dce: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GraphSAGE tiny none no-cse: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GraphSAGE tiny none no-preprocess: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GraphSAGE tiny none no-fusion: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GraphSAGE tiny none layout-greedy: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GraphSAGE tiny none layout-none: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GraphSAGE tiny none plain: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
VR-GCN tiny none all: f1 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
VR-GCN tiny none no-dce: f1 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
VR-GCN tiny none no-cse: f1 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
VR-GCN tiny none no-preprocess: f1 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
VR-GCN tiny none no-fusion: f1 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
VR-GCN tiny none layout-greedy: f1 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
VR-GCN tiny none layout-none: f1 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
VR-GCN tiny none plain: f1 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
SEAL tiny none all: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
SEAL tiny none no-dce: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
SEAL tiny none no-cse: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
SEAL tiny none no-preprocess: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
SEAL tiny none no-fusion: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
SEAL tiny none layout-greedy: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
SEAL tiny none layout-none: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
SEAL tiny none plain: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow tiny none all: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow tiny none no-dce: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow tiny none no-cse: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow tiny none no-preprocess: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow tiny none no-fusion: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow tiny none layout-greedy: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow tiny none layout-none: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow tiny none plain: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Node2Vec tiny none all: f1 x0 | c1 B. h0 f61a75f1f4e2f118
Node2Vec tiny none no-dce: f1 x0 | c1 B. h0 f61a75f1f4e2f118
Node2Vec tiny none no-cse: f1 x0 | c1 B. h0 f61a75f1f4e2f118
Node2Vec tiny none no-preprocess: f1 x0 | c1 B. h0 f61a75f1f4e2f118
Node2Vec tiny none no-fusion: f1 x0 | c1 B. h0 f61a75f1f4e2f118
Node2Vec tiny none layout-greedy: f1 x0 | c1 B. h0 f61a75f1f4e2f118
Node2Vec tiny none layout-none: f1 x0 | c1 B. h0 f61a75f1f4e2f118
Node2Vec tiny none plain: f1 x0 | c1 B. h0 f61a75f1f4e2f118
GCN-BS tiny none all: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GCN-BS tiny none no-dce: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GCN-BS tiny none no-cse: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GCN-BS tiny none no-preprocess: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GCN-BS tiny none no-fusion: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GCN-BS tiny none layout-greedy: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GCN-BS tiny none layout-none: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GCN-BS tiny none plain: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos tiny none all: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos tiny none no-dce: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos tiny none no-cse: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos tiny none no-preprocess: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos tiny none no-fusion: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos tiny none layout-greedy: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos tiny none layout-none: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos tiny none plain: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
PASS tiny none all: f1 x1 | c1 BB h3 1cac13d80200155d | c1 BB h3 1cac13d80200155d
PASS tiny none no-dce: f1 x1 | c1 BB h3 1cac13d80200155d | c1 BB h3 1cac13d80200155d
PASS tiny none no-cse: f1 x1 | c1 BB h3 1cac13d80200155d | c1 BB h3 1cac13d80200155d
PASS tiny none no-preprocess: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
PASS tiny none no-fusion: f1 x1 | c1 BB h3 1cac13d80200155d | c1 BB h3 1cac13d80200155d
PASS tiny none layout-greedy: f1 x1 | c1 BB h3 1cac13d80200155d | c1 BB h3 1cac13d80200155d
PASS tiny none layout-none: f1 x1 | c1 BB h3 1cac13d80200155d | c1 BB h3 1cac13d80200155d
PASS tiny none plain: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
FastGCN tiny none all: f1 x1 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463
FastGCN tiny none no-dce: f1 x1 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463
FastGCN tiny none no-cse: f1 x1 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463
FastGCN tiny none no-preprocess: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
FastGCN tiny none no-fusion: f1 x1 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463
FastGCN tiny none layout-greedy: f1 x1 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463
FastGCN tiny none layout-none: f1 x1 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463
FastGCN tiny none plain: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
AS-GCN tiny none all: f1 x1 | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe
AS-GCN tiny none no-dce: f1 x1 | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe
AS-GCN tiny none no-cse: f1 x1 | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe
AS-GCN tiny none no-preprocess: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
AS-GCN tiny none no-fusion: f1 x1 | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe
AS-GCN tiny none layout-greedy: f1 x1 | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe
AS-GCN tiny none layout-none: f1 x1 | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe
AS-GCN tiny none plain: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
LADIES tiny none all: f1 x1 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539
LADIES tiny none no-dce: f1 x1 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539
LADIES tiny none no-cse: f1 x1 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539
LADIES tiny none no-preprocess: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
LADIES tiny none no-fusion: f1 x1 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539
LADIES tiny none layout-greedy: f1 x1 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539
LADIES tiny none layout-none: f1 x1 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539
LADIES tiny none plain: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
DeepWalk tiny 256M all: f128 x0 | c1 B. h0 f61a75f1f4e2f118
DeepWalk tiny 256M no-dce: f128 x0 | c1 B. h0 f61a75f1f4e2f118
DeepWalk tiny 256M no-cse: f128 x0 | c1 B. h0 f61a75f1f4e2f118
DeepWalk tiny 256M no-preprocess: f128 x0 | c1 B. h0 f61a75f1f4e2f118
DeepWalk tiny 256M no-fusion: f128 x0 | c1 B. h0 f61a75f1f4e2f118
DeepWalk tiny 256M layout-greedy: f128 x0 | c1 B. h0 f61a75f1f4e2f118
DeepWalk tiny 256M layout-none: f128 x0 | c1 B. h0 f61a75f1f4e2f118
DeepWalk tiny 256M plain: f128 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT tiny 256M all: f128 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT tiny 256M no-dce: f128 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT tiny 256M no-cse: f128 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT tiny 256M no-preprocess: f128 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT tiny 256M no-fusion: f128 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT tiny 256M layout-greedy: f128 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT tiny 256M layout-none: f128 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT tiny 256M plain: f128 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE tiny 256M all: f128 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE tiny 256M no-dce: f128 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE tiny 256M no-cse: f128 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE tiny 256M no-preprocess: f128 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE tiny 256M no-fusion: f128 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE tiny 256M layout-greedy: f128 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE tiny 256M layout-none: f128 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE tiny 256M plain: f128 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN tiny 256M all: f128 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN tiny 256M no-dce: f128 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN tiny 256M no-cse: f128 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN tiny 256M no-preprocess: f128 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN tiny 256M no-fusion: f128 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN tiny 256M layout-greedy: f128 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN tiny 256M layout-none: f128 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN tiny 256M plain: f128 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAGE tiny 256M all: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GraphSAGE tiny 256M no-dce: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GraphSAGE tiny 256M no-cse: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GraphSAGE tiny 256M no-preprocess: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GraphSAGE tiny 256M no-fusion: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GraphSAGE tiny 256M layout-greedy: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GraphSAGE tiny 256M layout-none: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GraphSAGE tiny 256M plain: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
VR-GCN tiny 256M all: f128 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
VR-GCN tiny 256M no-dce: f128 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
VR-GCN tiny 256M no-cse: f128 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
VR-GCN tiny 256M no-preprocess: f128 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
VR-GCN tiny 256M no-fusion: f128 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
VR-GCN tiny 256M layout-greedy: f128 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
VR-GCN tiny 256M layout-none: f128 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
VR-GCN tiny 256M plain: f128 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
SEAL tiny 256M all: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
SEAL tiny 256M no-dce: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
SEAL tiny 256M no-cse: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
SEAL tiny 256M no-preprocess: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
SEAL tiny 256M no-fusion: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
SEAL tiny 256M layout-greedy: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
SEAL tiny 256M layout-none: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
SEAL tiny 256M plain: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow tiny 256M all: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow tiny 256M no-dce: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow tiny 256M no-cse: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow tiny 256M no-preprocess: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow tiny 256M no-fusion: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow tiny 256M layout-greedy: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow tiny 256M layout-none: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow tiny 256M plain: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Node2Vec tiny 256M all: f128 x0 | c1 B. h0 f61a75f1f4e2f118
Node2Vec tiny 256M no-dce: f128 x0 | c1 B. h0 f61a75f1f4e2f118
Node2Vec tiny 256M no-cse: f128 x0 | c1 B. h0 f61a75f1f4e2f118
Node2Vec tiny 256M no-preprocess: f128 x0 | c1 B. h0 f61a75f1f4e2f118
Node2Vec tiny 256M no-fusion: f128 x0 | c1 B. h0 f61a75f1f4e2f118
Node2Vec tiny 256M layout-greedy: f128 x0 | c1 B. h0 f61a75f1f4e2f118
Node2Vec tiny 256M layout-none: f128 x0 | c1 B. h0 f61a75f1f4e2f118
Node2Vec tiny 256M plain: f128 x0 | c1 B. h0 f61a75f1f4e2f118
GCN-BS tiny 256M all: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GCN-BS tiny 256M no-dce: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GCN-BS tiny 256M no-cse: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GCN-BS tiny 256M no-preprocess: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GCN-BS tiny 256M no-fusion: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GCN-BS tiny 256M layout-greedy: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GCN-BS tiny 256M layout-none: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GCN-BS tiny 256M plain: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos tiny 256M all: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos tiny 256M no-dce: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos tiny 256M no-cse: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos tiny 256M no-preprocess: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos tiny 256M no-fusion: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos tiny 256M layout-greedy: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos tiny 256M layout-none: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos tiny 256M plain: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
PASS tiny 256M all: f128 x1 | c1 BB h3 1cac13d80200155d | c1 BB h3 1cac13d80200155d
PASS tiny 256M no-dce: f128 x1 | c1 BB h3 1cac13d80200155d | c1 BB h3 1cac13d80200155d
PASS tiny 256M no-cse: f128 x1 | c1 BB h3 1cac13d80200155d | c1 BB h3 1cac13d80200155d
PASS tiny 256M no-preprocess: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
PASS tiny 256M no-fusion: f128 x1 | c1 BB h3 1cac13d80200155d | c1 BB h3 1cac13d80200155d
PASS tiny 256M layout-greedy: f128 x1 | c1 BB h3 1cac13d80200155d | c1 BB h3 1cac13d80200155d
PASS tiny 256M layout-none: f128 x1 | c1 BB h3 1cac13d80200155d | c1 BB h3 1cac13d80200155d
PASS tiny 256M plain: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
FastGCN tiny 256M all: f128 x1 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463
FastGCN tiny 256M no-dce: f128 x1 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463
FastGCN tiny 256M no-cse: f128 x1 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463
FastGCN tiny 256M no-preprocess: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
FastGCN tiny 256M no-fusion: f128 x1 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463
FastGCN tiny 256M layout-greedy: f128 x1 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463
FastGCN tiny 256M layout-none: f128 x1 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463
FastGCN tiny 256M plain: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
AS-GCN tiny 256M all: f128 x1 | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe
AS-GCN tiny 256M no-dce: f128 x1 | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe
AS-GCN tiny 256M no-cse: f128 x1 | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe
AS-GCN tiny 256M no-preprocess: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
AS-GCN tiny 256M no-fusion: f128 x1 | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe
AS-GCN tiny 256M layout-greedy: f128 x1 | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe
AS-GCN tiny 256M layout-none: f128 x1 | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe
AS-GCN tiny 256M plain: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
LADIES tiny 256M all: f128 x1 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539
LADIES tiny 256M no-dce: f128 x1 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539
LADIES tiny 256M no-cse: f128 x1 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539
LADIES tiny 256M no-preprocess: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
LADIES tiny 256M no-fusion: f128 x1 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539
LADIES tiny 256M layout-greedy: f128 x1 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539
LADIES tiny 256M layout-none: f128 x1 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539
LADIES tiny 256M plain: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
DeepWalk PD none all: f1 x0 | c1 B. h0 f61a75f1f4e2f118
DeepWalk PD none no-dce: f1 x0 | c1 B. h0 f61a75f1f4e2f118
DeepWalk PD none no-cse: f1 x0 | c1 B. h0 f61a75f1f4e2f118
DeepWalk PD none no-preprocess: f1 x0 | c1 B. h0 f61a75f1f4e2f118
DeepWalk PD none no-fusion: f1 x0 | c1 B. h0 f61a75f1f4e2f118
DeepWalk PD none layout-greedy: f1 x0 | c1 B. h0 f61a75f1f4e2f118
DeepWalk PD none layout-none: f1 x0 | c1 B. h0 f61a75f1f4e2f118
DeepWalk PD none plain: f1 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT PD none all: f1 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT PD none no-dce: f1 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT PD none no-cse: f1 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT PD none no-preprocess: f1 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT PD none no-fusion: f1 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT PD none layout-greedy: f1 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT PD none layout-none: f1 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT PD none plain: f1 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE PD none all: f1 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE PD none no-dce: f1 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE PD none no-cse: f1 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE PD none no-preprocess: f1 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE PD none no-fusion: f1 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE PD none layout-greedy: f1 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE PD none layout-none: f1 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE PD none plain: f1 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN PD none all: f1 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN PD none no-dce: f1 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN PD none no-cse: f1 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN PD none no-preprocess: f1 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN PD none no-fusion: f1 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN PD none layout-greedy: f1 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN PD none layout-none: f1 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN PD none plain: f1 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAGE PD none all: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GraphSAGE PD none no-dce: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GraphSAGE PD none no-cse: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GraphSAGE PD none no-preprocess: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GraphSAGE PD none no-fusion: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GraphSAGE PD none layout-greedy: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GraphSAGE PD none layout-none: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GraphSAGE PD none plain: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
VR-GCN PD none all: f1 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
VR-GCN PD none no-dce: f1 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
VR-GCN PD none no-cse: f1 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
VR-GCN PD none no-preprocess: f1 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
VR-GCN PD none no-fusion: f1 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
VR-GCN PD none layout-greedy: f1 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
VR-GCN PD none layout-none: f1 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
VR-GCN PD none plain: f1 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
SEAL PD none all: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
SEAL PD none no-dce: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
SEAL PD none no-cse: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
SEAL PD none no-preprocess: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
SEAL PD none no-fusion: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
SEAL PD none layout-greedy: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
SEAL PD none layout-none: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
SEAL PD none plain: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow PD none all: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow PD none no-dce: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow PD none no-cse: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow PD none no-preprocess: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow PD none no-fusion: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow PD none layout-greedy: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow PD none layout-none: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow PD none plain: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Node2Vec PD none all: f1 x0 | c1 B. h0 f61a75f1f4e2f118
Node2Vec PD none no-dce: f1 x0 | c1 B. h0 f61a75f1f4e2f118
Node2Vec PD none no-cse: f1 x0 | c1 B. h0 f61a75f1f4e2f118
Node2Vec PD none no-preprocess: f1 x0 | c1 B. h0 f61a75f1f4e2f118
Node2Vec PD none no-fusion: f1 x0 | c1 B. h0 f61a75f1f4e2f118
Node2Vec PD none layout-greedy: f1 x0 | c1 B. h0 f61a75f1f4e2f118
Node2Vec PD none layout-none: f1 x0 | c1 B. h0 f61a75f1f4e2f118
Node2Vec PD none plain: f1 x0 | c1 B. h0 f61a75f1f4e2f118
GCN-BS PD none all: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GCN-BS PD none no-dce: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GCN-BS PD none no-cse: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GCN-BS PD none no-preprocess: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GCN-BS PD none no-fusion: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GCN-BS PD none layout-greedy: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GCN-BS PD none layout-none: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GCN-BS PD none plain: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos PD none all: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos PD none no-dce: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos PD none no-cse: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos PD none no-preprocess: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos PD none no-fusion: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos PD none layout-greedy: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos PD none layout-none: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos PD none plain: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
PASS PD none all: f1 x1 | c1 BB h3 1cac13d80200155d | c1 BB h3 1cac13d80200155d
PASS PD none no-dce: f1 x1 | c1 BB h3 1cac13d80200155d | c1 BB h3 1cac13d80200155d
PASS PD none no-cse: f1 x1 | c1 BB h3 1cac13d80200155d | c1 BB h3 1cac13d80200155d
PASS PD none no-preprocess: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
PASS PD none no-fusion: f1 x1 | c1 BB h3 1cac13d80200155d | c1 BB h3 1cac13d80200155d
PASS PD none layout-greedy: f1 x1 | c1 BB h3 1cac13d80200155d | c1 BB h3 1cac13d80200155d
PASS PD none layout-none: f1 x1 | c1 BB h3 1cac13d80200155d | c1 BB h3 1cac13d80200155d
PASS PD none plain: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
FastGCN PD none all: f1 x1 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463
FastGCN PD none no-dce: f1 x1 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463
FastGCN PD none no-cse: f1 x1 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463
FastGCN PD none no-preprocess: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
FastGCN PD none no-fusion: f1 x1 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463
FastGCN PD none layout-greedy: f1 x1 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463
FastGCN PD none layout-none: f1 x1 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463
FastGCN PD none plain: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
AS-GCN PD none all: f1 x1 | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe
AS-GCN PD none no-dce: f1 x1 | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe
AS-GCN PD none no-cse: f1 x1 | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe
AS-GCN PD none no-preprocess: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
AS-GCN PD none no-fusion: f1 x1 | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe
AS-GCN PD none layout-greedy: f1 x1 | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe
AS-GCN PD none layout-none: f1 x1 | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe
AS-GCN PD none plain: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
LADIES PD none all: f1 x1 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539
LADIES PD none no-dce: f1 x1 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539
LADIES PD none no-cse: f1 x1 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539
LADIES PD none no-preprocess: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
LADIES PD none no-fusion: f1 x1 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539
LADIES PD none layout-greedy: f1 x1 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539
LADIES PD none layout-none: f1 x1 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539
LADIES PD none plain: f1 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
DeepWalk PD 256M all: f128 x0 | c1 B. h0 f61a75f1f4e2f118
DeepWalk PD 256M no-dce: f128 x0 | c1 B. h0 f61a75f1f4e2f118
DeepWalk PD 256M no-cse: f128 x0 | c1 B. h0 f61a75f1f4e2f118
DeepWalk PD 256M no-preprocess: f128 x0 | c1 B. h0 f61a75f1f4e2f118
DeepWalk PD 256M no-fusion: f128 x0 | c1 B. h0 f61a75f1f4e2f118
DeepWalk PD 256M layout-greedy: f128 x0 | c1 B. h0 f61a75f1f4e2f118
DeepWalk PD 256M layout-none: f128 x0 | c1 B. h0 f61a75f1f4e2f118
DeepWalk PD 256M plain: f128 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT PD 256M all: f128 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT PD 256M no-dce: f128 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT PD 256M no-cse: f128 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT PD 256M no-preprocess: f128 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT PD 256M no-fusion: f128 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT PD 256M layout-greedy: f128 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT PD 256M layout-none: f128 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAINT PD 256M plain: f128 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE PD 256M all: f128 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE PD 256M no-dce: f128 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE PD 256M no-cse: f128 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE PD 256M no-preprocess: f128 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE PD 256M no-fusion: f128 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE PD 256M layout-greedy: f128 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE PD 256M layout-none: f128 x0 | c1 B. h0 f61a75f1f4e2f118
PinSAGE PD 256M plain: f128 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN PD 256M all: f128 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN PD 256M no-dce: f128 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN PD 256M no-cse: f128 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN PD 256M no-preprocess: f128 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN PD 256M no-fusion: f128 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN PD 256M layout-greedy: f128 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN PD 256M layout-none: f128 x0 | c1 B. h0 f61a75f1f4e2f118
HetGNN PD 256M plain: f128 x0 | c1 B. h0 f61a75f1f4e2f118
GraphSAGE PD 256M all: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GraphSAGE PD 256M no-dce: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GraphSAGE PD 256M no-cse: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GraphSAGE PD 256M no-preprocess: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GraphSAGE PD 256M no-fusion: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GraphSAGE PD 256M layout-greedy: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GraphSAGE PD 256M layout-none: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GraphSAGE PD 256M plain: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
VR-GCN PD 256M all: f128 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
VR-GCN PD 256M no-dce: f128 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
VR-GCN PD 256M no-cse: f128 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
VR-GCN PD 256M no-preprocess: f128 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
VR-GCN PD 256M no-fusion: f128 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
VR-GCN PD 256M layout-greedy: f128 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
VR-GCN PD 256M layout-none: f128 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
VR-GCN PD 256M plain: f128 x1 | c1 BBB h0 f61a75f1f4e2f118 | c1 BBB h0 f61a75f1f4e2f118
SEAL PD 256M all: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
SEAL PD 256M no-dce: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
SEAL PD 256M no-cse: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
SEAL PD 256M no-preprocess: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
SEAL PD 256M no-fusion: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
SEAL PD 256M layout-greedy: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
SEAL PD 256M layout-none: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
SEAL PD 256M plain: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow PD 256M all: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow PD 256M no-dce: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow PD 256M no-cse: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow PD 256M no-preprocess: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow PD 256M no-fusion: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow PD 256M layout-greedy: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow PD 256M layout-none: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
ShaDow PD 256M plain: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Node2Vec PD 256M all: f128 x0 | c1 B. h0 f61a75f1f4e2f118
Node2Vec PD 256M no-dce: f128 x0 | c1 B. h0 f61a75f1f4e2f118
Node2Vec PD 256M no-cse: f128 x0 | c1 B. h0 f61a75f1f4e2f118
Node2Vec PD 256M no-preprocess: f128 x0 | c1 B. h0 f61a75f1f4e2f118
Node2Vec PD 256M no-fusion: f128 x0 | c1 B. h0 f61a75f1f4e2f118
Node2Vec PD 256M layout-greedy: f128 x0 | c1 B. h0 f61a75f1f4e2f118
Node2Vec PD 256M layout-none: f128 x0 | c1 B. h0 f61a75f1f4e2f118
Node2Vec PD 256M plain: f128 x0 | c1 B. h0 f61a75f1f4e2f118
GCN-BS PD 256M all: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GCN-BS PD 256M no-dce: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GCN-BS PD 256M no-cse: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GCN-BS PD 256M no-preprocess: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GCN-BS PD 256M no-fusion: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GCN-BS PD 256M layout-greedy: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GCN-BS PD 256M layout-none: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
GCN-BS PD 256M plain: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos PD 256M all: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos PD 256M no-dce: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos PD 256M no-cse: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos PD 256M no-preprocess: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos PD 256M no-fusion: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos PD 256M layout-greedy: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos PD 256M layout-none: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
Thanos PD 256M plain: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
PASS PD 256M all: f128 x1 | c1 BB h3 1cac13d80200155d | c1 BB h3 1cac13d80200155d
PASS PD 256M no-dce: f8 x1 | c1 BB h3 1cac13d80200155d | c1 BB h3 1cac13d80200155d
PASS PD 256M no-cse: f128 x1 | c1 BB h3 1cac13d80200155d | c1 BB h3 1cac13d80200155d
PASS PD 256M no-preprocess: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
PASS PD 256M no-fusion: f8 x1 | c1 BB h3 1cac13d80200155d | c1 BB h3 1cac13d80200155d
PASS PD 256M layout-greedy: f128 x1 | c1 BB h3 1cac13d80200155d | c1 BB h3 1cac13d80200155d
PASS PD 256M layout-none: f128 x1 | c1 BB h3 1cac13d80200155d | c1 BB h3 1cac13d80200155d
PASS PD 256M plain: f8 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
FastGCN PD 256M all: f128 x1 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463
FastGCN PD 256M no-dce: f128 x1 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463
FastGCN PD 256M no-cse: f128 x1 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463
FastGCN PD 256M no-preprocess: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
FastGCN PD 256M no-fusion: f128 x1 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463
FastGCN PD 256M layout-greedy: f128 x1 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463
FastGCN PD 256M layout-none: f128 x1 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463 | c1 BB h1 da6efb46e1e15463
FastGCN PD 256M plain: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
AS-GCN PD 256M all: f128 x1 | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe
AS-GCN PD 256M no-dce: f128 x1 | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe
AS-GCN PD 256M no-cse: f128 x1 | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe
AS-GCN PD 256M no-preprocess: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
AS-GCN PD 256M no-fusion: f128 x1 | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe
AS-GCN PD 256M layout-greedy: f128 x1 | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe
AS-GCN PD 256M layout-none: f128 x1 | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe | c1 BB h1 d837eff1b5ede4fe
AS-GCN PD 256M plain: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
LADIES PD 256M all: f128 x1 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539
LADIES PD 256M no-dce: f128 x1 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539
LADIES PD 256M no-cse: f128 x1 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539
LADIES PD 256M no-preprocess: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
LADIES PD 256M no-fusion: f128 x1 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539
LADIES PD 256M layout-greedy: f128 x1 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539
LADIES PD 256M layout-none: f128 x1 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539 | c1 BB h1 5f059fcd06020539
LADIES PD 256M plain: f128 x1 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118 | c1 BB h0 f61a75f1f4e2f118
";
