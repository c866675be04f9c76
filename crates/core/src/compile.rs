//! Compiling layers into executable samplers.
//!
//! [`compile`] runs the optimization pipeline over each layer's program
//! (paper Fig. 4: parse → IR passes → execution), gives each precompute
//! program its [`Hoist`] memo (filled now when it reads only the graph),
//! plans the super-batch factor, and returns a [`Sampler`] whose device
//! session records modeled time, memory, and SM utilization. Epochs and
//! recovery are [`crate::window`]'s.

use std::collections::HashMap;
use std::sync::Arc;

use gsampler_engine::{Device, DeviceProfile, PlanDbStats, RngPool};
use gsampler_ir::passes::{run_passes, OptConfig, OptimizedProgram};
use gsampler_ir::{facts, superbatch};
use gsampler_matrix::NodeId;
use rand::rngs::StdRng;

use crate::builder::Layer;
use crate::error::{Error, Result};
use crate::exec::Bindings;
use crate::graph::Graph;
use crate::hoist::Hoist;
use crate::plandb::{CompiledPlan, PlanDb, PlanKey};
use crate::value::Value;
use crate::window::{execute_recovering, RecoveryPolicy};

/// Sampler configuration: optimization knobs plus runtime parameters.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Optimization passes (paper Fig. 10's P/C/D/B knobs).
    pub opt: OptConfig,
    /// Root RNG seed (all sampling is deterministic given this).
    pub seed: u64,
    /// Device to model.
    pub device: DeviceProfile,
    /// Mini-batch size the programs are planned for.
    pub batch_size: usize,
    /// When set, plan the super-batch factor automatically with this
    /// memory budget in bytes (paper §4.4's grid search); overrides
    /// `opt.super_batch`.
    pub auto_super_batch_budget: Option<f64>,
    /// Upper bound on the planned super-batch factor (the grid search
    /// stops early once the device saturates anyway; this caps the
    /// latency and staleness cost of batching too many mini-batches).
    pub max_super_batch: usize,
    /// Fault-recovery policy for the epoch drivers.
    pub recovery: RecoveryPolicy,
    /// Plan database to look the whole compile up in (and to insert its
    /// result into on a miss). `None` disables plan caching.
    pub plan_db: Option<Arc<PlanDb>>,
}

impl SamplerConfig {
    /// Default configuration: all optimizations, V100, batch 512.
    pub fn new() -> SamplerConfig {
        SamplerConfig {
            opt: OptConfig::all(),
            seed: 42,
            device: DeviceProfile::v100(),
            batch_size: 512,
            auto_super_batch_budget: None,
            max_super_batch: 128,
            recovery: RecoveryPolicy::default(),
            plan_db: None,
        }
    }
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig::new()
    }
}

/// One compiled layer: the optimized program plus the memo of its hoisted
/// values.
pub struct CompiledLayer {
    /// Source layer (original program + output conventions).
    pub layer: Layer,
    /// Optimized program, fact table and pass report (shared: a plan-database
    /// hit reuses the compiling sampler's copy without a deep clone).
    pub optimized: Arc<OptimizedProgram>,
    /// The precompute program and the memo of the values filling the
    /// program's `Precomputed` slots (shared by layers whose precompute
    /// programs have one [`gsampler_ir::identity`] and by plan-database
    /// hits).
    pub hoist: Arc<Hoist>,
}

/// A compiled, executable multi-layer sampler bound to one graph and one
/// device session.
///
/// Every path from seeds to samples (single batches, epochs, walks,
/// multi-GPU shards, serving) goes through [`Sampler::sample_groups`] with
/// one RNG stream per mini-batch, so how batches share executions is
/// invisible: a degraded or super-batched epoch delivers each batch's
/// plain-epoch sample, identical, layout included (a group's share of a
/// block-diagonal execution is the diagonal block its solo run produces).
/// Programs that cannot be grouped (not [`facts::batchable`]) compile to
/// factor 1.
pub struct Sampler {
    graph: Arc<Graph>,
    graph_value: Arc<Value>,
    layers: Vec<CompiledLayer>,
    pub(crate) device: Device,
    pub(crate) pool: RngPool,
    pub(crate) config: SamplerConfig,
    pub(crate) super_batch: usize,
    /// Every layer passes [`facts::scatter_exact`].
    pack_exact: bool,
    /// This sampler's own compile's plan-database lookup (the device
    /// session is reset per epoch, so the compile-time counters are
    /// carried here and re-injected into every epoch's stats).
    pub(crate) plan_db_stats: PlanDbStats,
}

/// Compile `layers` for `graph` under `config`.
pub fn compile(graph: Arc<Graph>, layers: Vec<Layer>, config: SamplerConfig) -> Result<Sampler> {
    let mut compile_span = gsampler_obs::span("compile", "compile");
    compile_span.arg("layers", layers.len());
    compile_span.arg("batch_size", config.batch_size);
    let device = Device::new(config.device.clone());
    let graph_value = graph.matrix_value();
    let pool = RngPool::new(config.seed);

    // One lookup, whose outcome is this compile's own (a before/after
    // delta of the shared counters would count concurrent compiles).
    let mut plan_db_stats = PlanDbStats::default();
    let keyed = config
        .plan_db
        .as_deref()
        .map(|db| (db, PlanKey::new(&graph, &layers, &config)));
    let cached = keyed.as_ref().and_then(|(db, key)| db.lookup(key.as_ref()));
    let (compiled, super_batch) = match cached {
        Some(plan) => {
            plan_db_stats.hits = 1;
            let compiled = layers
                .into_iter()
                .zip(&plan.layers)
                .map(|(layer, (optimized, hoist))| CompiledLayer {
                    layer,
                    optimized: optimized.clone(),
                    hoist: hoist.clone(),
                })
                .collect();
            (compiled, plan.super_batch)
        }
        None => {
            let (compiled, super_batch) =
                plan_layers(&graph, &graph_value, layers, &config, &device)?;
            if let Some((db, key)) = keyed {
                plan_db_stats.misses = 1;
                // Never record a degraded compile: one that landed on the
                // streaming rung planned under memory pressure, and handing
                // it to a healthy compile would bake the degradation in. A
                // compile without a key has nowhere to go.
                if let Some(key) = key.filter(|_| !device.spill_enabled()) {
                    let plan = Arc::new(CompiledPlan::new(&graph, &compiled, super_batch));
                    plan_db_stats.inserts = 1;
                    plan_db_stats.evictions = db.insert(key, plan);
                }
            }
            (compiled, super_batch)
        }
    };
    compile_span.arg("super_batch", super_batch);
    if plan_db_stats.any() {
        compile_span.arg("plan_cache_hits", plan_db_stats.hits);
        compile_span.arg("plan_cache_misses", plan_db_stats.misses);
    }
    drop(compile_span);

    Ok(Sampler {
        graph,
        graph_value,
        pack_exact: (compiled.iter())
            .all(|l| facts::scatter_exact(&l.optimized.program, &l.optimized.facts)),
        layers: compiled,
        device,
        pool,
        config,
        super_batch,
        plan_db_stats,
    })
}

/// The work a plan-database hit skips: run the pass pipeline over every
/// layer, fill the memos of the precompute programs that read only the
/// graph, and choose the super-batch factor. Leaves `device` on the
/// streaming rung when even factor 1 does not fit the budget.
fn plan_layers(
    graph: &Arc<Graph>,
    graph_value: &Arc<Value>,
    layers: Vec<Layer>,
    config: &SamplerConfig,
    device: &Device,
) -> Result<(Vec<CompiledLayer>, usize)> {
    let stats = graph.stats();
    let mut compiled: Vec<CompiledLayer> = Vec::with_capacity(layers.len());
    let mut shared: HashMap<String, Arc<Hoist>> = HashMap::new();
    for layer in layers {
        layer.program.validate().map_err(Error::InvalidProgram)?;
        let optimized = Arc::new(run_passes(
            &layer.program,
            &config.opt,
            &stats,
            config.batch_size,
            device.cost_model(),
            graph.residency,
        ));
        // One memo per distinct precompute program: a layer whose program
        // has an earlier layer's identity shares its values (LADIES' `A **
        // 2`, PASS's projections). One that reads only the graph is filled
        // now.
        let identity = gsampler_ir::identity(&optimized.precompute);
        let hoist = match identity.as_ref().and_then(|id| shared.get(id)) {
            Some(earlier) => earlier.clone(),
            None => {
                let hoist = Arc::new(Hoist::new(&optimized));
                if !hoist.reads_bindings() {
                    let none = Bindings::new();
                    hoist.values(graph, graph_value, &none, &config.recovery, device)?;
                }
                if let Some(id) = identity {
                    shared.insert(id, hoist.clone());
                }
                hoist
            }
        };
        compiled.push(CompiledLayer {
            layer,
            optimized,
            hoist,
        });
    }
    // Precompute cost is one-time; do not let it pollute epoch stats.
    device.reset();

    // Super-batch factor: explicit config, or planned under a budget.
    let mut super_batch = config.opt.super_batch.max(1);
    if let Some(budget) = config.auto_super_batch_budget {
        let mut planned = usize::MAX;
        let mut fits = true;
        for layer in &compiled {
            let plan =
                superbatch::plan(&layer.optimized.program, &stats, config.batch_size, budget);
            planned = planned.min(plan.factor);
            fits &= plan.fits;
        }
        super_batch = planned.clamp(1, config.max_super_batch.max(1));
        if !fits {
            // Even factor 1 exceeds the budget. With degradation enabled
            // the sampler starts directly on the ladder's streaming rung;
            // otherwise this is a hard compile error (the caller asked to
            // run strictly within a budget that cannot hold one batch).
            if config.recovery.allow_degrade {
                device.enter_spill();
                gsampler_obs::event(
                    "degrade",
                    "streaming",
                    &[(
                        "reason",
                        gsampler_obs::Arg::from("super-batch budget unsatisfiable at factor 1"),
                    )],
                );
            } else {
                return Err(Error::MemoryBudget(format!(
                    "no super-batch factor fits the {budget:.0}-byte budget at batch size {} \
                     (even factor 1 exceeds it) and degradation is disabled; raise the budget, \
                     shrink the batch, or enable recovery.allow_degrade",
                    config.batch_size
                )));
            }
        }
    }
    let batchable = |l: &CompiledLayer| facts::batchable(&l.optimized.facts);
    if super_batch > 1 && !compiled.iter().all(batchable) {
        super_batch = 1;
    }
    Ok((compiled, super_batch))
}

/// One layer's outputs for one mini-batch.
pub type LayerValues = Vec<Value>;

/// A complete multi-layer graph sample for one mini-batch.
#[derive(Debug, Clone)]
pub struct GraphSample {
    /// Per layer, the program's output values.
    pub layers: Vec<LayerValues>,
}

impl Sampler {
    /// The compiled layers (for inspecting pass reports).
    pub fn layers(&self) -> &[CompiledLayer] {
        &self.layers
    }

    /// The graph this sampler is bound to.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The chosen super-batch factor.
    pub fn super_batch_factor(&self) -> usize {
        self.super_batch
    }

    /// Plan-database counters of this sampler's own compile: one lookup
    /// (a hit, or a miss and — unless degraded — an insert). All zero when
    /// no plan database was configured.
    pub fn plan_db_stats(&self) -> PlanDbStats {
        self.plan_db_stats
    }

    /// The mini-batch size this sampler was compiled for.
    pub fn config_batch_size(&self) -> usize {
        self.config.batch_size.max(1)
    }

    /// The device session (stats/memory snapshots).
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Reset the device session's statistics.
    pub fn reset_stats(&self) {
        self.device.reset();
    }

    /// Sample one mini-batch starting from `frontiers`.
    pub fn sample_batch(&self, frontiers: &[NodeId], bindings: &Bindings) -> Result<GraphSample> {
        self.sample_batch_seeded(frontiers, bindings, 0)
    }

    /// The RNG stream `stream` of this sampler's seed: what
    /// [`Sampler::sample_batch_seeded`] draws from, and what a caller
    /// packing requests onto [`Sampler::sample_groups`] hands each group.
    pub fn stream(&self, stream: u64) -> StdRng {
        self.pool.stream(stream)
    }

    /// Sample one mini-batch on an explicit RNG stream; drivers that call
    /// the sampler repeatedly (random walks, bandit updates) vary the
    /// stream per step to get independent draws while staying
    /// reproducible.
    pub fn sample_batch_seeded(
        &self,
        frontiers: &[NodeId],
        bindings: &Bindings,
        stream: u64,
    ) -> Result<GraphSample> {
        let mut rng = self.stream(stream);
        let mut samples = self.sample_groups(
            vec![frontiers.to_vec()],
            bindings,
            std::slice::from_mut(&mut rng),
        )?;
        Ok(samples.pop().expect("one group in, one sample out"))
    }

    /// The one door from frontiers to samples: execute every layer over
    /// `groups` together (one super-batch execution) and return one
    /// [`GraphSample`] per group. `rngs` carries one stream per group and
    /// group `b` draws only from `rngs[b]` — exactly the sequence it would
    /// consume sampled alone with that stream — so how mini-batches (or
    /// independent tenants' requests, given [`Sampler::pack_exact`]) are
    /// grouped onto executions never shows in the samples.
    ///
    /// Runs under the configured [`RecoveryPolicy`]: transient faults are
    /// retried (bit-identically — the RNGs are checkpointed per layer
    /// execution), and single-group memory pressure falls back to the
    /// streaming layout. Multi-group OOM propagates so that
    /// [`Sampler::window`] can halve the super-batch instead.
    pub fn sample_groups(
        &self,
        mut groups: Vec<Vec<NodeId>>,
        bindings: &Bindings,
        rngs: &mut [StdRng],
    ) -> Result<Vec<GraphSample>> {
        let s = groups.len();
        let mut exec_span = gsampler_obs::span("exec", "sample_groups");
        exec_span.arg("groups", s);
        let mut per_group: Vec<GraphSample> =
            (0..s).map(|_| GraphSample { layers: Vec::new() }).collect();
        let (graph, policy, device) = (&self.graph, &self.config.recovery, &self.device);
        for layer in &self.layers {
            let hoisted =
                (layer.hoist).values(graph, &self.graph_value, bindings, policy, device)?;
            let outputs = execute_recovering(
                policy,
                &layer.optimized.program,
                &layer.optimized.facts,
                graph,
                &self.graph_value,
                &groups,
                bindings,
                &hoisted,
                device,
                rngs,
            )?;
            // Chain next-layer frontiers per group.
            if let Some(pos) = layer.layer.next_frontier_output {
                let mut next_groups = Vec::with_capacity(s);
                for out in &outputs {
                    let nodes = out.get(pos).and_then(|v| v.as_nodes()).ok_or_else(|| {
                        Error::Execution("next-frontier output is not a node list".to_string())
                    })?;
                    next_groups.push(nodes.to_vec());
                }
                groups = next_groups;
            }
            for (g, out) in outputs.into_iter().enumerate() {
                per_group[g].layers.push(out);
            }
        }
        Ok(per_group)
    }

    /// True if multi-group executions of this sampler's compiled layers
    /// scatter back to per-group results exactly (every layer passes
    /// [`facts::scatter_exact`]), so independent requests may be packed
    /// into one super-batch without changing any caller's output.
    pub fn pack_exact(&self) -> bool {
        self.pack_exact
    }

    /// Estimated peak transient bytes of one execution over `cols` total
    /// frontier columns (§4.4's analytic size model at factor 1, maxed
    /// over layers). This is the admission currency a serving layer
    /// charges against its memory budget before queueing a request.
    ///
    /// The §4.4 sum itself is residency-blind, so tail rows of a
    /// partially-resident graph are charged on top: their adjacency reads
    /// arrive through UVA in whole PCIe transactions that land in device
    /// staging buffers, padding included. A fully-cached plan adds
    /// nothing; an uncached UVA graph pays the full padded frontier read.
    pub fn estimate_request_bytes(&self, cols: usize) -> u64 {
        let stats = self.graph.stats();
        let base = self
            .layers
            .iter()
            .map(|l| superbatch::transient_bytes(&l.optimized.program, &stats, cols.max(1)))
            .fold(0.0f64, f64::max);
        let tail_staging = cols.max(1) as f64
            * self.graph.avg_degree()
            * gsampler_engine::EDGE_BYTES as f64
            * self.graph.residency.pcie_fraction()
            * gsampler_engine::UVA_TRANSACTION_FACTOR;
        (base + tail_staging) as u64
    }
}
