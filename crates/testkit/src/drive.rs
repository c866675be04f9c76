//! Driving registered algorithms under arbitrary pipeline variants.
//!
//! The drive itself is the registry's one protocol ([`AlgoSpec::drive`]);
//! this module parameterizes it over the [`SamplerConfig`] (pipeline
//! variant, seed, plan database), graph, and an optional injected
//! [`Fault`] — and it returns the flat list of output values rather than a
//! baked fingerprint, so the oracle can both hash them and validate them
//! structurally against the source graph.

use std::sync::Arc;

use gsampler_algos::{algorithm, all_algorithms, AlgoSpec, Drive, Hyper};
use gsampler_core::{compile, Graph, GraphSample, OptConfig, Sampler, SamplerConfig, Value};

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

/// The registry's spec of `algo`.
fn spec(algo: &str, h: &Hyper) -> Result<AlgoSpec, DriveError> {
    algorithm(algo, h).ok_or_else(|| format!("unknown algorithm {algo}"))
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
    let mut layers = spec(algo, h)?.layers;
    if let Some(f) = fault {
        if !f.apply(&mut layers) {
            return Ok(None);
        }
    }
    compile(graph.clone(), layers, config)
        .map(Some)
        .map_err(|e| format!("{algo}: compile failed: {e}"))
}

/// Drive one algorithm end to end by the registry's protocol
/// ([`AlgoSpec::drive`]) and collect every output value. All randomness
/// comes from `(seed, stream)` pairs, so two calls with equal arguments
/// must return identical values. `config.batch_size` should be
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
    let drive = spec(algo, h)?
        .drive(graph, h, sampler, config, frontiers)
        .map_err(|e| format!("{algo}: drive failed: {e}"))?;
    Ok(values(drive))
}

/// A drive's outputs as one flat list: every value of every batch's
/// layers, then a bandit's arms; a walk's positions step by step; each
/// neighbourhood (each type group, for HetGNN); or the induced matrix.
fn values(drive: Drive) -> Vec<Value> {
    let layers = |batches: Vec<GraphSample>| batches.into_iter().flat_map(|s| s.layers).flatten();
    match drive {
        Drive::Samples(batches) => layers(batches).collect(),
        Drive::Bandit(steps, arms) => layers(steps).chain([Value::Vector(arms)]).collect(),
        Drive::Walk(trace) => trace.positions.into_iter().map(Value::Nodes).collect(),
        Drive::TopK(lists) => lists.into_iter().map(Value::Nodes).collect(),
        Drive::Typed(seeds) => seeds.into_iter().flatten().map(Value::Nodes).collect(),
        Drive::Induced(m) => vec![Value::Matrix(m)],
    }
}

/// The 15 registered algorithm names, in registry order.
pub fn algorithm_names(h: &Hyper) -> Vec<&'static str> {
    all_algorithms(h).iter().map(|s| s.name).collect()
}
