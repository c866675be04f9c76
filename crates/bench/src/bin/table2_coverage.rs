//! Reproduces paper Table 2 as an executable coverage matrix: every one
//! of the 15 surveyed algorithms compiles and produces a valid sample.
//! (Also the "gSampler is the only system capable of running all 7
//! evaluated algorithms" claim of §5.2: the baseline columns show which
//! architectures can express each algorithm at all.)

use std::sync::Arc;

use gsampler_algos::{all_algorithms, Drive, Hyper};
use gsampler_core::{compile, GraphSample, OptConfig, SamplerConfig};
use gsampler_graphs::{Dataset, DatasetKind};

/// Edges over the first value of every layer of `batches`.
fn edges(batches: &[GraphSample]) -> usize {
    let layers = batches.iter().flat_map(|s| &s.layers);
    layers
        .filter_map(|l| l[0].as_matrix())
        .map(|m| m.nnz())
        .sum()
}

/// A row's status: what the registry's drive of it produced.
fn status(drive: &Drive, h: &Hyper) -> String {
    match drive {
        Drive::Samples(b) => format!("ok (batches: {}, edges: {})", b.len(), edges(b)),
        Drive::Bandit(steps, _) => {
            format!(
                "ok (steps: {}, edges: {}, arms updated)",
                steps.len(),
                edges(steps)
            )
        }
        Drive::Walk(t) => format!("ok ({} steps)", t.positions.len()),
        Drive::TopK(n) => format!("ok (top-{} of {} seeds)", h.top_k, n.len()),
        Drive::Typed(n) => format!("ok ({} typed groups of {} seeds)", h.num_types, n.len()),
        Drive::Induced(m) => format!("ok (induced {} edges)", m.nnz()),
    }
}

fn main() {
    let d = Dataset::generate(DatasetKind::Tiny, 2.0, 1);
    let graph = Arc::new(d.graph);
    let h = Hyper::small();
    let config = SamplerConfig {
        opt: OptConfig::all(),
        batch_size: h.batch_size,
        ..SamplerConfig::new()
    };
    let frontiers: Vec<u32> = (0..h.batch_size as u32).collect();

    let mut rows = Vec::new();
    for spec in all_algorithms(&h) {
        let name = spec.name;
        // Every row runs the registry's one drive protocol.
        let status = match compile(graph.clone(), spec.layers.clone(), config.clone()) {
            Err(e) => format!("compile failed: {e}"),
            Ok(sampler) => match spec.drive(&graph, &h, &sampler, config.clone(), &frontiers) {
                Ok(drive) => status(&drive, &h),
                Err(e) => format!("FAILED: {e}"),
            },
        };
        // Architecture coverage columns: vertex-centric supports only
        // local-view uniform/static walks & fanouts; message-passing
        // (DGL-like) covers the rest case-by-case (paper Table 3).
        let vc = matches!(name, "DeepWalk" | "Node2Vec" | "GraphSAGE" | "PinSAGE");
        let mp = !matches!(name, "Node2Vec"); // no native GPU Node2Vec in DGL
        rows.push(vec![
            name.into(),
            spec.category.into(),
            spec.bias.into(),
            status,
            if vc { "yes" } else { "no" }.into(),
            if mp { "partial" } else { "no" }.into(),
        ]);
    }

    gsampler_bench::print_table(
        "Table 2: the 15 surveyed algorithms, all runnable on gSampler-rs",
        &[
            "algorithm",
            "category",
            "bias",
            "gSampler-rs",
            "vertex-centric",
            "message-passing",
        ],
        &rows,
    );
}
