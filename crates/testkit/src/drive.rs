//! Driving registered algorithms under arbitrary pipeline variants.
//!
//! Mirrors the per-driver logic of `tests/golden_parity.rs`, but
//! parameterized over the [`SamplerConfig`] (pipeline variant, seed, plan
//! database), graph, and an optional injected [`Fault`] — and it returns
//! the flat list of output values rather than a baked fingerprint, so the
//! oracle can both hash them and validate them structurally against the
//! source graph.

use std::sync::Arc;

use gsampler_algos::drivers::{self, pass_bindings, seal_bindings, BanditRule, BanditState};
use gsampler_algos::{all_algorithms, Driver, Hyper};
use gsampler_core::{compile, Bindings, Graph, OptConfig, Sampler, SamplerConfig, Value};

use crate::fault::Fault;

/// How a drive failed (compile or execution error — always a finding for
/// the fuzzer, since every generated graph must at least run).
pub type DriveError = String;

/// Build the sampler config used throughout the harness.
pub fn sampler_config(opt: OptConfig, seed: u64, batch_size: usize) -> SamplerConfig {
    SamplerConfig {
        opt,
        seed,
        batch_size: batch_size.max(1),
        ..SamplerConfig::new()
    }
}

/// Compile `algo` on `graph` under `config`, with `fault` (if any) applied
/// to the source programs first. Returns `None` when the fault does not
/// rewrite anything for this algorithm.
pub fn compile_algorithm(
    graph: &Arc<Graph>,
    algo: &str,
    h: &Hyper,
    config: SamplerConfig,
    fault: Option<Fault>,
) -> Result<Option<Sampler>, DriveError> {
    let spec = all_algorithms(h)
        .into_iter()
        .find(|s| s.name == algo)
        .ok_or_else(|| format!("unknown algorithm {algo}"))?;
    let mut layers = spec.layers;
    if let Some(f) = fault {
        if !f.apply(&mut layers) {
            return Ok(None);
        }
    }
    compile(graph.clone(), layers, config)
        .map(Some)
        .map_err(|e| format!("{algo}: compile failed: {e}"))
}

/// Drive one algorithm end to end and collect every output value.
///
/// The drive pattern per [`Driver`] matches the golden-parity test:
/// chained algorithms run two seeded batches, bandits three update steps,
/// walks one traced batch, and the induce drivers one induction. All
/// randomness comes from `(seed, stream)` pairs, so two calls with equal
/// arguments must return identical values. `config.batch_size` should be
/// `frontiers.len()` (see [`sampler_config`]).
pub fn run_algorithm(
    graph: &Arc<Graph>,
    algo: &str,
    h: &Hyper,
    config: SamplerConfig,
    frontiers: &[u32],
    fault: Option<Fault>,
) -> Result<Option<Vec<Value>>, DriveError> {
    let Some(sampler) = compile_algorithm(graph, algo, h, config.clone(), fault)? else {
        return Ok(None);
    };
    drive_sampler(graph, algo, h, &sampler, config, frontiers).map(Some)
}

/// [`run_algorithm`]'s drive of an already compiled `sampler` of `algo`
/// (`config` compiles the induce samplers some drivers add).
pub fn drive_sampler(
    graph: &Arc<Graph>,
    algo: &str,
    h: &Hyper,
    sampler: &Sampler,
    config: SamplerConfig,
    frontiers: &[u32],
) -> Result<Vec<Value>, DriveError> {
    let driver = all_algorithms(h)
        .into_iter()
        .find(|s| s.name == algo)
        .ok_or_else(|| format!("unknown algorithm {algo}"))?
        .driver;
    let fail = |e| format!("{algo}: drive failed: {e}");

    let mut out: Vec<Value> = Vec::new();
    let push_sample = |out: &mut Vec<Value>, s: gsampler_core::GraphSample| {
        for layer in s.layers {
            out.extend(layer);
        }
    };
    match driver {
        Driver::Chained => {
            for step in 0..2u64 {
                let s = sampler
                    .sample_batch_seeded(frontiers, &Bindings::new(), step)
                    .map_err(fail)?;
                push_sample(&mut out, s);
            }
        }
        Driver::ModelDriven => {
            let dim = graph.features.as_ref().map(|f| f.ncols()).unwrap_or(0);
            let bindings = if algo == "PASS" {
                pass_bindings(dim, h.hidden, 3)
            } else {
                drivers::asgcn_bindings(dim, 3)
            };
            let s = sampler.sample_batch(frontiers, &bindings).map_err(fail)?;
            push_sample(&mut out, s);
        }
        Driver::Bandit => {
            let rule = if algo == "GCN-BS" {
                BanditRule::GcnBs
            } else {
                BanditRule::Thanos
            };
            let mut state = BanditState::new(graph.num_nodes(), rule);
            for step in 0..3 {
                let s = sampler
                    .sample_batch_seeded(frontiers, &state.bindings(), step)
                    .map_err(fail)?;
                state.update(&s);
                push_sample(&mut out, s);
            }
            out.push(Value::Vector(state.weights.clone()));
        }
        Driver::Walk => {
            let is_n2v = algo == "Node2Vec";
            let trace = drivers::run_walk_batch(sampler, frontiers, h.walk_length, is_n2v, 0.0, 1)
                .map_err(fail)?;
            for step in trace.positions {
                out.push(Value::Nodes(step));
            }
        }
        Driver::WalkCounting => {
            let seeds: Vec<u32> = frontiers.iter().take(4).copied().collect();
            if algo == "PinSAGE" {
                let neigh = drivers::pinsage_neighbors(sampler, &seeds, h, 1).map_err(fail)?;
                for list in neigh {
                    out.push(Value::Nodes(list));
                }
            } else {
                let neigh = drivers::hetgnn_neighbors(sampler, &seeds, h, 1).map_err(fail)?;
                for groups in neigh {
                    for group in groups {
                        out.push(Value::Nodes(group));
                    }
                }
            }
        }
        Driver::WalkInduce => {
            let induce = drivers::induce_sampler(graph.clone(), config).map_err(fail)?;
            let roots: Vec<u32> = frontiers.iter().take(8).copied().collect();
            let m = drivers::graphsaint_sample(sampler, &induce, &roots, h, 1).map_err(fail)?;
            out.push(Value::Matrix(m));
        }
        Driver::ChainedInduce => {
            if algo == "SEAL" {
                let bindings = seal_bindings(graph);
                let s = sampler.sample_batch(frontiers, &bindings).map_err(fail)?;
                push_sample(&mut out, s);
            } else {
                let induce = drivers::induce_sampler(graph.clone(), config).map_err(fail)?;
                let roots: Vec<u32> = frontiers.iter().take(8).copied().collect();
                let m = drivers::shadow_sample(sampler, &induce, &roots, 1).map_err(fail)?;
                out.push(Value::Matrix(m));
            }
        }
    }
    Ok(out)
}

/// The 15 registered algorithm names, in registry order.
pub fn algorithm_names(h: &Hyper) -> Vec<&'static str> {
    all_algorithms(h).iter().map(|s| s.name).collect()
}
