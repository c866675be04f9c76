//! Compiling layers into executable samplers and driving epochs.
//!
//! [`compile`] runs the optimization pipeline over each layer's program
//! (paper Fig. 4: parse → IR passes → execution), gives each precompute
//! program its [`Hoist`] memo (filled now when it reads only the graph),
//! plans the super-batch factor, and returns a [`Sampler`] that can sample
//! single batches or whole epochs while the device session records modeled
//! time, memory, and SM utilization.

use std::sync::Arc;
use std::time::Instant;

use gsampler_engine::{
    Device, DeviceProfile, ExecStats, FaultReport, MemoryTracker, PlanDbStats, RngPool,
};
use gsampler_ir::passes::{run_passes, OptConfig, OptimizedProgram};
use gsampler_ir::{facts, superbatch, Facts};
use gsampler_matrix::NodeId;
use rand::rngs::StdRng;

use crate::builder::Layer;
use crate::error::{Error, Result};
use crate::exec::{self, Bindings};
use crate::graph::Graph;
use crate::hoist::Hoist;
use crate::plandb::{CompiledPlan, PlanDb, PlanKey};
use crate::value::Value;

/// How the epoch drivers respond to faults: bounded retry for transient
/// failures, a degradation ladder for memory pressure, and optional
/// quarantine of batches that exhaust both.
///
/// Recovery is invisible in the samples by construction: a retried
/// execution restores the RNG checkpoint taken before the failed attempt,
/// and every mini-batch keeps its own RNG stream when its window is
/// regrouped, so a run that retries, degrades or quarantines delivers the
/// clean run's samples (see [`Sampler`]) for every batch it delivers.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// Maximum plain retries per execution for transient faults
    /// (injected kernel failures, worker-pool panics). 0 = fail fast.
    pub max_retries: u32,
    /// Base backoff in milliseconds, doubled each retry (deterministic —
    /// no jitter, so wall time varies but behavior does not).
    pub backoff_ms: u64,
    /// Allow the memory-pressure ladder: halve the super-batch factor
    /// down to per-minibatch execution, then fall back to the streaming
    /// (spill) layout.
    pub allow_degrade: bool,
    /// Skip (rather than fail the epoch on) a mini-batch window that
    /// exhausts retries and degradation.
    pub quarantine: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 3,
            backoff_ms: 1,
            allow_degrade: true,
            quarantine: false,
        }
    }
}

impl RecoveryPolicy {
    /// Fail-fast policy: no retries, no degradation, no quarantine —
    /// pre-recovery behavior, and what strict benchmarking wants.
    pub fn disabled() -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 0,
            backoff_ms: 0,
            allow_degrade: false,
            quarantine: false,
        }
    }
}

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
    /// Per-epoch wall-clock budget. Each [`Sampler::run_epoch_with`] call
    /// arms its cancel token with this budget at epoch start; once it
    /// elapses, the epoch stops cooperatively at the next check point
    /// (kernel chunk boundary / window boundary) with
    /// [`Error::DeadlineExceeded`]. `None` (the default) disables the
    /// deadline — the token fast-path then costs one thread-local read
    /// per check.
    pub deadline: Option<std::time::Duration>,
    /// Caller-supplied cancel token, for drivers that want to stop an
    /// epoch from another thread ([`CancelToken::cancel`]) or share one
    /// deadline across several samplers. `None` with `deadline` set makes
    /// each epoch build its own token; `None` without a deadline runs
    /// uncancellable (beyond any token installed by an enclosing scope,
    /// e.g. the serving layer's per-request tokens).
    ///
    /// [`CancelToken::cancel`]: gsampler_runtime::CancelToken::cancel
    pub cancel: Option<gsampler_runtime::CancelToken>,
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
            deadline: None,
            cancel: None,
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
    /// program's `Precomputed` slots (shared by layers with equal
    /// precompute programs and by plan-database hits).
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
    device: Device,
    pool: RngPool,
    config: SamplerConfig,
    super_batch: usize,
    /// Every layer passes [`facts::scatter_exact`].
    pack_exact: bool,
    /// This sampler's own compile's plan-database lookup (the device
    /// session is reset per epoch, so the compile-time counters are
    /// carried here and re-injected into every epoch's stats).
    plan_db_stats: PlanDbStats,
}

/// Everything one epoch produced: modeled device time plus session stats.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Modeled device time for the epoch, in seconds — the headline
    /// "sampling time" quantity of the paper's figures.
    pub modeled_time: f64,
    /// Host wall-clock time actually spent emulating, in seconds.
    pub wall_time: f64,
    /// Number of mini-batches processed.
    pub batches: usize,
    /// Execution statistics (kernel launches, bytes, SM utilization).
    pub stats: ExecStats,
    /// Device memory accounting (peak = paper Table 9's "Memory").
    pub memory: MemoryTracker,
    /// Super-batch factor used.
    pub super_batch: usize,
    /// Injected faults and recovery actions observed during the epoch
    /// (a copy of `stats.faults`; all zero on a healthy run).
    pub faults: FaultReport,
}

/// Run one program execution under `policy`: bounded deterministic retry
/// for transient faults, and — for single-group executions, the bottom of
/// the degradation ladder — a switch to the streaming (spill) layout on
/// memory pressure. Every retry first restores the RNG checkpoint taken
/// before the attempt, so a recovered execution is bit-identical to a
/// clean one.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_recovering(
    policy: &RecoveryPolicy,
    program: &gsampler_ir::Program,
    facts: &[Facts],
    graph: &Graph,
    graph_value: &Arc<Value>,
    groups: &[Vec<NodeId>],
    bindings: &Bindings,
    precomputed: &[Arc<Value>],
    device: &Device,
    rngs: &mut [StdRng],
) -> Result<Vec<Vec<Value>>> {
    let checkpoint = rngs.to_vec();
    let mut retries = 0u32;
    let mut tried_spill = false;
    loop {
        match exec::execute(
            program,
            facts,
            graph,
            graph_value,
            groups,
            bindings,
            precomputed,
            device,
            rngs,
        ) {
            Ok(out) => return Ok(out),
            Err(e) if e.is_transient() && retries < policy.max_retries => {
                // A fired cancel token outranks the retry budget: restore
                // the RNG (a later rerun of this execution is bit-identical
                // to a clean run) and surface the cancellation, not the
                // fault it interrupted.
                if let Some(cause) = gsampler_runtime::cancel::poll() {
                    rngs.clone_from_slice(&checkpoint);
                    return Err(Error::from_cancel(cause));
                }
                retries += 1;
                device.note_faults(|f| f.kernel_retries += 1);
                gsampler_obs::event(
                    "fault",
                    "retry",
                    &[("attempt", gsampler_obs::Arg::from(retries as f64))],
                );
                if policy.backoff_ms > 0 {
                    // Deterministic exponential backoff: no jitter, so the
                    // recovery *behavior* is a pure function of the fault
                    // schedule (only wall time varies).
                    let shift = (retries - 1).min(16);
                    let backoff = std::time::Duration::from_millis(policy.backoff_ms << shift);
                    // Deadline-aware rung skip: backoff the remaining
                    // budget cannot afford is not spent — the retry is
                    // shed and the deadline surfaced now, so a request
                    // near its deadline fails in microseconds instead of
                    // burning the tail on sleeps it can never recover.
                    match gsampler_runtime::cancel::remaining() {
                        Some(rem) if rem < backoff => {
                            device.note_faults(|f| f.deadline_shed_retries += 1);
                            gsampler_obs::event(
                                "deadline",
                                "shed_retry",
                                &[
                                    (
                                        "backoff_ms",
                                        gsampler_obs::Arg::from(backoff.as_millis() as f64),
                                    ),
                                    (
                                        "remaining_ms",
                                        gsampler_obs::Arg::from(rem.as_millis() as f64),
                                    ),
                                ],
                            );
                            rngs.clone_from_slice(&checkpoint);
                            let budget_ms = gsampler_runtime::cancel::current()
                                .and_then(|t| t.budget_ms())
                                .unwrap_or(0);
                            return Err(Error::DeadlineExceeded {
                                budget_ms,
                                elapsed_ms: budget_ms.saturating_sub(rem.as_millis() as u64),
                            });
                        }
                        _ => std::thread::sleep(backoff),
                    }
                }
                rngs.clone_from_slice(&checkpoint);
            }
            Err(Error::Oom(oom))
                if policy.allow_degrade
                    && groups.len() <= 1
                    && !tried_spill
                    && !device.spill_enabled() =>
            {
                // Bottom rung of the ladder: per-minibatch execution still
                // does not fit, so stream over-budget values host-side at
                // PCIe cost (gSampler §4.5's UVA fallback) and re-run.
                tried_spill = true;
                device.enter_spill();
                device.note_faults(|f| f.degrade_steps += 1);
                gsampler_obs::event(
                    "degrade",
                    "streaming",
                    &[(
                        "requested_bytes",
                        gsampler_obs::Arg::from(oom.requested as f64),
                    )],
                );
                rngs.clone_from_slice(&checkpoint);
            }
            Err(e) => return Err(e),
        }
    }
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
    let cached = keyed
        .as_ref()
        .and_then(|(db, key)| db.lookup(key, &graph, &layers));
    let (compiled, super_batch) = match cached {
        Some(plan) => {
            plan_db_stats.hits = 1;
            let compiled = layers
                .into_iter()
                .zip(&plan.layers)
                .map(|(layer, p)| CompiledLayer {
                    layer,
                    optimized: p.optimized.clone(),
                    hoist: p.hoist.clone(),
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
                // it to a healthy compile would bake the degradation in.
                if !device.spill_enabled() {
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
        // equals an earlier layer's shares its values (LADIES' `A ** 2`,
        // PASS's projections). One that reads only the graph is filled now.
        let earlier = compiled
            .iter()
            .find(|c| c.optimized.precompute == optimized.precompute);
        let hoist = match earlier {
            Some(earlier) => earlier.hoist.clone(),
            None => {
                let hoist = Arc::new(Hoist::new(&optimized));
                if !hoist.reads_bindings() {
                    let none = Bindings::new();
                    hoist.values(graph, graph_value, &none, &config.recovery, device)?;
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
        let mut rng = self.pool.stream(stream);
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
    /// streaming layout. Multi-group OOM propagates so the epoch driver
    /// can walk the super-batch degradation ladder instead.
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

    /// Run one epoch: go through `seeds` once in mini-batches of the
    /// configured size, sampling `super_batch` batches per execution
    /// ([`Sampler::drive_epoch`] is the window loop). `consume` is called
    /// once per mini-batch with its sample. Mini-batch `b` always draws
    /// from `pool.subpool(epoch).stream(b)`, so super-batched, degraded
    /// and quarantining epochs deliver the plain factor-1 epoch's samples.
    pub fn run_epoch_with(
        &self,
        seeds: &[NodeId],
        bindings: &Bindings,
        epoch: u64,
        consume: impl FnMut(usize, GraphSample),
    ) -> Result<EpochReport> {
        self.drive_epoch(
            seeds,
            epoch,
            |groups, rngs| self.sample_groups(groups, bindings, rngs),
            consume,
        )
    }

    /// The epoch driver: cut `seeds` into mini-batches of the configured
    /// size and hand `run_window` up to `super_batch` of them at a time,
    /// as one frontier group per batch plus one RNG stream per group —
    /// batch `b`'s is always `pool.subpool(epoch).stream(b)`, however
    /// windows are regrouped. `run_window` returns one item per group,
    /// each passed to `consume` with its mini-batch index.
    ///
    /// Epochs are checkpointed per window: a failed window is re-executed
    /// — walking the degradation ladder (halve the factor → per-minibatch
    /// execution → streaming layout) under memory pressure — without
    /// redoing batches that already succeeded. Windows that exhaust the
    /// [`RecoveryPolicy`] are quarantined (skipped, counted in the
    /// [`FaultReport`]) when the policy allows, and fail the epoch
    /// otherwise. Mini-batch indices stay stable across quarantines.
    pub fn drive_epoch<T>(
        &self,
        seeds: &[NodeId],
        epoch: u64,
        mut run_window: impl FnMut(Vec<Vec<NodeId>>, &mut [StdRng]) -> Result<Vec<T>>,
        mut consume: impl FnMut(usize, T),
    ) -> Result<EpochReport> {
        self.device.reset();
        let mut epoch_span = gsampler_obs::span("epoch", "run_epoch");
        epoch_span.arg("epoch", epoch);
        epoch_span.arg("seeds", seeds.len());
        epoch_span.arg("super_batch", self.super_batch);
        // Deadline plane: arm the caller's token (or a fresh one) with the
        // per-epoch budget and install it as this thread's current token.
        // Every kernel dispatch and pool chunk claim below polls it; pool
        // workers inherit it through the dispatched job. With neither a
        // deadline nor a caller token, nothing is installed and any
        // enclosing scope (e.g. a serving request) stays in effect.
        let token = match (&self.config.cancel, self.config.deadline) {
            (Some(t), d) => {
                if let Some(d) = d {
                    t.arm_deadline(d);
                }
                Some(t.clone())
            }
            (None, Some(d)) => Some(gsampler_runtime::CancelToken::with_deadline(d)),
            (None, None) => None,
        };
        let _cancel_scope = token
            .as_ref()
            .map(|t| gsampler_runtime::cancel::scope(t.clone()));
        if let Some(d) = self.config.deadline {
            gsampler_obs::event(
                "deadline",
                "set",
                &[("budget_ms", gsampler_obs::Arg::from(d.as_millis() as f64))],
            );
        }
        let wall_start = Instant::now();
        let batch = self.config.batch_size.max(1);
        let policy = &self.config.recovery;
        let pool = self.pool.subpool(epoch);
        let mut factor = self.super_batch.max(1);
        let mut batch_idx = 0usize;
        let mut start = 0usize;
        while start < seeds.len() {
            // Window boundary is the coarse cancellation check point: RNG
            // streams are derived fresh per batch, so stopping here needs
            // no RNG restore — a rerun replays the remaining batches
            // bit-identically.
            if let Some(cause) = gsampler_runtime::cancel::poll() {
                return Err(note_stop(Error::from_cancel(cause)));
            }
            // Collect up to `factor` equal-sized groups; `start` is only
            // committed once the window succeeds (or is quarantined).
            let mut groups: Vec<Vec<NodeId>> = Vec::new();
            let mut end = start;
            while groups.len() < factor && end < seeds.len() {
                let stop = (end + batch).min(seeds.len());
                groups.push(seeds[end..stop].to_vec());
                end = stop;
            }
            let window_batches = groups.len();
            let mut rngs: Vec<StdRng> = (batch_idx..batch_idx + window_batches)
                .map(|b| pool.stream(b as u64))
                .collect();
            match run_window(groups, &mut rngs) {
                Ok(samples) => {
                    start = end;
                    for sample in samples {
                        consume(batch_idx, sample);
                        batch_idx += 1;
                    }
                }
                Err(e) if e.is_oom() && policy.allow_degrade && factor > 1 => {
                    // Degradation ladder: halve the super-batch factor and
                    // re-execute the same seed window regrouped. Factor 1
                    // windows that still do not fit take the streaming
                    // rung inside `sample_groups`.
                    let from = factor;
                    factor = (factor / 2).max(1);
                    self.device.note_faults(|f| {
                        f.degrade_steps += 1;
                        f.batch_retries += 1;
                    });
                    gsampler_obs::event(
                        "degrade",
                        "superbatch.factor",
                        &[
                            ("from", gsampler_obs::Arg::from(from as f64)),
                            ("to", gsampler_obs::Arg::from(factor as f64)),
                        ],
                    );
                }
                Err(e) if policy.quarantine && !e.is_cancelled() => {
                    // The window exhausted retries and degradation: skip it,
                    // keep the epoch alive. Batch numbering stays stable —
                    // the skipped indices are simply never given to
                    // `consume`.
                    self.device
                        .note_faults(|f| f.quarantined_batches += window_batches as u64);
                    gsampler_obs::event(
                        "degrade",
                        "quarantine",
                        &[
                            ("batches", gsampler_obs::Arg::from(window_batches as f64)),
                            ("error", gsampler_obs::Arg::from(e.to_string())),
                        ],
                    );
                    start = end;
                    batch_idx += window_batches;
                }
                Err(e) => return Err(note_stop(e)),
            }
        }
        epoch_span.arg("final_super_batch", factor);
        let mut stats = self.device.stats();
        // Compile-time counters survive the per-epoch device reset.
        stats.plan_db = self.plan_db_stats;
        Ok(EpochReport {
            modeled_time: stats.total_time,
            wall_time: wall_start.elapsed().as_secs_f64(),
            batches: batch_idx,
            faults: stats.faults,
            stats,
            memory: self.device.memory(),
            super_batch: self.super_batch,
        })
    }

    /// Run one epoch, discarding the samples (pure timing runs).
    pub fn run_epoch(
        &self,
        seeds: &[NodeId],
        bindings: &Bindings,
        epoch: u64,
    ) -> Result<EpochReport> {
        self.run_epoch_with(seeds, bindings, epoch, |_, _| {})
    }
}

/// Trace why an epoch stopped early (deadline or cancel) and pass the
/// error through.
fn note_stop(e: Error) -> Error {
    match &e {
        Error::DeadlineExceeded {
            budget_ms,
            elapsed_ms,
        } => gsampler_obs::event(
            "deadline",
            "exceeded",
            &[
                ("budget_ms", gsampler_obs::Arg::from(*budget_ms as f64)),
                ("elapsed_ms", gsampler_obs::Arg::from(*elapsed_ms as f64)),
            ],
        ),
        Error::Cancelled(_) => gsampler_obs::event(
            "cancel",
            "fired",
            &[("error", gsampler_obs::Arg::from(e.to_string()))],
        ),
        _ => {}
    }
    e
}
