//! The six workloads. Each one is built from the workload seed alone
//! (the program only ever sees the generated graph, frontiers and
//! requests) and drives the program through its public entry points.
//!
//! Fixed settings, shared by every workload: `DeviceProfile::v100()`,
//! `OptConfig::all()`, `Hyper::paper()` with two layers, batch 512, the
//! 256 MiB auto super-batch budget capped at factor 16 (what
//! `gsampler_bench::build_gsampler` uses), dataset presets at scale 1.0.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gsampler_algos::registry::{all_algorithms, Driver};
use gsampler_algos::{drivers, Hyper};
use gsampler_bench::{build_gsampler_with, Algo, BuildOpts};
use gsampler_core::builder::Layer;
use gsampler_core::{
    compile, Bindings, DeviceProfile, EpochReport, Graph, GraphSample, OptConfig, PlanDb,
    PlanDbStats, Sampler, SamplerConfig,
};
use gsampler_graphs::{Dataset, DatasetKind};
use gsampler_matrix::NodeId;
use gsampler_serve::{Algorithm, EpochServer, ServeConfig, ServeError, TenantSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::probes::probe;
use crate::schema::Metrics;

/// Dataset scale of every preset.
const SCALE: f64 = 1.0;
/// Sampling budget of the auto super-batch planner, in bytes.
const SUPER_BATCH_BUDGET: f64 = 256.0 * (1u64 << 20) as f64;
/// Cap on the planned super-batch factor.
const MAX_SUPER_BATCH: usize = 16;

/// The hyper-parameters every workload uses.
pub fn hyper() -> Hyper {
    Hyper {
        layers: 2,
        ..Hyper::paper()
    }
}

/// What one unit did.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitOut {
    /// Work items completed (seeds, walker steps, requests or compiles).
    pub items: u64,
    /// Operations attempted (units, requests or compiles).
    pub ops: u64,
    /// Operations that failed: an `Err`, a quarantined batch, a shed or
    /// deadline-missed request.
    pub failed: u64,
    /// Modeled device seconds of the unit (0 where undefined).
    pub modeled_s: f64,
}

/// One workload, set up and ready to run units.
pub trait Workload {
    /// Build unit `u`'s inputs; called outside the timed region.
    fn prepare(&mut self, _u: u64) {}

    /// Run unit `u`. Unit `u` uses epoch index / request stream `u`.
    fn run(&mut self, u: u64) -> UnitOut;

    /// Run the correctness checks and return the checksum of unit 0's
    /// outputs.
    fn check(&mut self, checks: &mut Checks) -> u64;

    /// Everything the last unit's return values and the set-up say about
    /// the layers: `graphs.*`, `ir.*`, `engine.*`, `core.*`, `algos.*`,
    /// `serve.*` as defined on this workload.
    fn layer_metrics(&mut self, m: &mut Metrics);

    /// Microprobe inputs: the workload graph and unit 0's first window of
    /// frontiers.
    fn probe_inputs(&self) -> (Arc<Graph>, Vec<NodeId>);
}

/// Outcome of the correctness checks of one run.
#[derive(Default)]
pub struct Checks {
    pub run: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Complete set-up of `workload` from `seed`: generate the dataset, build
/// the graph, compile cold through a fresh plan database, run one unit.
pub fn build(workload: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    let mut w: Box<dyn Workload> = match workload {
        "sage_lj" => Box::new(EpochWorkload::build(&SAGE_LJ, seed)?),
        "ladies_pp" => Box::new(EpochWorkload::build(&LADIES_PP, seed)?),
        "pass_pd" => Box::new(EpochWorkload::build(&PASS_PD, seed)?),
        "deepwalk_lj" => Box::new(EpochWorkload::build(&DEEPWALK_LJ, seed)?),
        "serve_burst_lj" => Box::new(ServeWorkload::build(seed)?),
        "compile_sweep" => Box::new(CompileWorkload::build(seed)),
        other => return Err(format!("unknown workload {other}")),
    };
    w.prepare(0);
    let first = w.run(0);
    if first.failed > 0 {
        return Err(format!("{workload}: the set-up unit failed"));
    }
    Ok(w)
}

fn generate(kind: DatasetKind, seed: u64) -> (Dataset, f64) {
    let _span = gsampler_obs::span("bench", "graphs.generate");
    let start = Instant::now();
    let dataset = Dataset::generate(kind, SCALE, seed);
    (dataset, start.elapsed().as_secs_f64())
}

fn graph_metrics(m: &mut Metrics, graphs: &[&Graph], generate_s: f64) {
    m.set("graphs.generate_s", generate_s);
    m.set(
        "graphs.nodes",
        graphs.iter().map(|g| g.num_nodes()).sum::<usize>() as f64,
    );
    m.set(
        "graphs.edges",
        graphs.iter().map(|g| g.num_edges()).sum::<usize>() as f64,
    );
    m.set(
        "graphs.structure_mb",
        graphs.iter().map(|g| g.structure_bytes()).sum::<usize>() as f64 / MIB,
    );
}

const MIB: f64 = (1u64 << 20) as f64;

/// `ir.*` of a set of compiled samplers: op counts and fusion counts from
/// the pass reports the compile returned, and the median wall time of a
/// direct `run_passes` call per layer program (median over programs).
fn ir_metrics(m: &mut Metrics, samplers: &[&Sampler]) {
    let (mut before, mut after, mut fes, mut femr, mut pre) = (0usize, 0usize, 0usize, 0, 0);
    let mut pass_us = Vec::new();
    for sampler in samplers {
        let graph = sampler.graph();
        let stats = graph.stats();
        for layer in sampler.layers() {
            before += layer.layer.program.len();
            after += layer.optimized.program.len();
            fes += layer.optimized.report.extract_select_fused;
            femr += layer.optimized.report.edge_map_reduce_fused;
            pre += layer.optimized.report.preprocessed;
            pass_us.push(probe("ir.run_passes", Duration::ZERO, || {
                gsampler_ir::passes::run_passes(
                    &layer.layer.program,
                    &OptConfig::all(),
                    &stats,
                    sampler.config_batch_size(),
                    sampler.device().cost_model(),
                    graph.residency,
                )
            }));
        }
    }
    m.set("ir.run_passes_us", crate::stats::median(&pass_us));
    m.set("ir.ops_before", before as f64);
    m.set("ir.ops_after", after as f64);
    m.set("ir.fused_extract_select", fes as f64);
    m.set("ir.fused_edge_map_reduce", femr as f64);
    m.set("ir.preprocessed_ops", pre as f64);
}

fn plandb_metrics(m: &mut Metrics, s: &PlanDbStats) {
    m.set("engine.plandb.hits", s.hits as f64);
    m.set("engine.plandb.misses", s.misses as f64);
    m.set("engine.plandb.hit_rate", s.hit_rate());
}

// ---------------------------------------------------------------------
// Epoch workloads: sage_lj, ladies_pp, pass_pd, deepwalk_lj
// ---------------------------------------------------------------------

struct EpochSpec {
    kind: DatasetKind,
    algo: Algo,
    /// Frontiers per unit (the first `take` of the preset's list).
    take: usize,
}

const SAGE_LJ: EpochSpec = EpochSpec {
    kind: DatasetKind::LiveJournal,
    algo: Algo::GraphSage,
    take: usize::MAX,
};
const LADIES_PP: EpochSpec = EpochSpec {
    kind: DatasetKind::OgbnPapers,
    algo: Algo::Ladies,
    take: 8192,
};
const PASS_PD: EpochSpec = EpochSpec {
    kind: DatasetKind::OgbnProducts,
    algo: Algo::Pass,
    take: 1024,
};
const DEEPWALK_LJ: EpochSpec = EpochSpec {
    kind: DatasetKind::LiveJournal,
    algo: Algo::DeepWalk,
    take: 8192,
};

struct EpochWorkload {
    spec: &'static EpochSpec,
    hyper: Hyper,
    graph: Arc<Graph>,
    plan_db: Arc<PlanDb>,
    sampler: Sampler,
    seeds: Vec<NodeId>,
    bindings: Bindings,
    generate_s: f64,
    compile_cold_us: f64,
    last: Option<EpochReport>,
}

fn compile_epoch_sampler(
    graph: &Arc<Graph>,
    algo: Algo,
    hyper: &Hyper,
    plan_db: &Arc<PlanDb>,
) -> Result<(Sampler, f64), String> {
    let _span = gsampler_obs::span("bench", "core.compile");
    let start = Instant::now();
    let sampler = build_gsampler_with(
        graph,
        algo,
        hyper,
        DeviceProfile::v100(),
        OptConfig::all(),
        true,
        BuildOpts {
            plan_db: Some(plan_db.clone()),
            ..BuildOpts::default()
        },
    )
    .map_err(|e| format!("compile {}: {e}", algo.name()))?;
    Ok((sampler, start.elapsed().as_secs_f64() * 1e6))
}

impl EpochWorkload {
    fn build(spec: &'static EpochSpec, seed: u64) -> Result<EpochWorkload, String> {
        let hyper = hyper();
        let (dataset, generate_s) = generate(spec.kind, seed);
        let graph = Arc::new(dataset.graph);
        let plan_db = Arc::new(PlanDb::in_memory());
        let (sampler, compile_cold_us) =
            compile_epoch_sampler(&graph, spec.algo, &hyper, &plan_db)?;
        let mut seeds = dataset.frontiers;
        seeds.truncate(spec.take);
        let bindings = spec.algo.bindings(&graph, &hyper);
        Ok(EpochWorkload {
            spec,
            hyper,
            graph,
            plan_db,
            sampler,
            seeds,
            bindings,
            generate_s,
            compile_cold_us,
            last: None,
        })
    }

    fn is_walk(&self) -> bool {
        self.spec.algo.is_walk()
    }

    fn epoch(&self, sampler: &Sampler, u: u64) -> gsampler_core::Result<EpochReport> {
        if self.is_walk() {
            let _span = gsampler_obs::span("bench", "algos.run_walk_epoch");
            drivers::run_walk_epoch(sampler, &self.seeds, &self.hyper, false, u)
        } else {
            let _span = gsampler_obs::span("bench", "core.run_epoch");
            sampler.run_epoch(&self.seeds, &self.bindings, u)
        }
    }

    /// Unit 0's outputs on `sampler`, folded into a fingerprint, with the
    /// structural invariants checked on the way.
    fn unit0_outputs(&self, sampler: &Sampler, checks: &mut Checks) -> Result<u64, String> {
        let mut fp = gsampler_testkit::fingerprint::Fingerprint::new();
        let mut violations: Vec<String> = Vec::new();
        if self.is_walk() {
            // The same grouping and RNG streams `run_walk_epoch` uses for
            // epoch 0, with the traces kept.
            let factor = sampler.super_batch_factor().max(1);
            let batches: Vec<Vec<NodeId>> = self
                .seeds
                .chunks(self.hyper.batch_size)
                .map(<[NodeId]>::to_vec)
                .collect();
            for (exec, window) in batches.chunks(factor).enumerate() {
                let traces = drivers::run_walk_groups(
                    sampler,
                    window.to_vec(),
                    self.hyper.walk_length,
                    false,
                    0.0,
                    exec as u64,
                )
                .map_err(|e| format!("walk window {exec}: {e}"))?;
                for trace in &traces {
                    crate::checks::verify_walk(
                        &self.graph,
                        trace,
                        self.hyper.walk_length,
                        &mut violations,
                    );
                    for step in &trace.positions {
                        fp.u64(step.len() as u64);
                        for &v in step {
                            fp.u64(v as u64);
                        }
                    }
                }
            }
        } else {
            let bound = match self.spec.algo {
                Algo::Ladies => crate::checks::Bound::Width(self.hyper.layer_width),
                _ => crate::checks::Bound::Fanouts(&self.hyper.fanouts),
            };
            sampler
                .run_epoch_with(&self.seeds, &self.bindings, 0, |batch, sample| {
                    fp.sample(&sample);
                    crate::checks::verify_sample(
                        &self.graph,
                        &sample,
                        &bound,
                        batch,
                        &mut violations,
                    );
                })
                .map_err(|e| format!("epoch 0: {e}"))?;
        }
        checks.expect(violations.is_empty(), || {
            format!(
                "{} structural violations, first: {}",
                violations.len(),
                violations[0]
            )
        });
        Ok(fp.finish())
    }
}

/// The engine counts two runs of one unit must agree on exactly.
fn engine_counts(r: &EpochReport) -> (u64, u64, u64, u64, u64) {
    (
        r.stats.kernel_launches,
        r.stats.total_bytes,
        r.stats.total_bytes_pcie,
        r.stats.total_flops,
        r.modeled_time.to_bits(),
    )
}

impl Workload for EpochWorkload {
    fn run(&mut self, u: u64) -> UnitOut {
        let items = if self.is_walk() {
            (self.seeds.len() * self.hyper.walk_length) as u64
        } else {
            self.seeds.len() as u64
        };
        match self.epoch(&self.sampler, u) {
            Ok(report) => {
                let out = UnitOut {
                    items,
                    ops: 1,
                    failed: u64::from(report.faults.quarantined_batches > 0),
                    modeled_s: report.modeled_time,
                };
                self.last = Some(report);
                out
            }
            Err(e) => {
                eprintln!("unit {u} failed: {e}");
                UnitOut {
                    ops: 1,
                    failed: 1,
                    ..UnitOut::default()
                }
            }
        }
    }

    fn check(&mut self, checks: &mut Checks) -> u64 {
        let kept = self.unit0_outputs(&self.sampler, checks);
        let kept_report = self.epoch(&self.sampler, 0);
        let fresh_db = Arc::new(PlanDb::in_memory());
        let fresh = compile_epoch_sampler(&self.graph, self.spec.algo, &self.hyper, &fresh_db);
        let (fresh_fp, fresh_report) = match &fresh {
            Ok((sampler, _)) => (
                self.unit0_outputs(sampler, checks),
                self.epoch(sampler, 0).map_err(|e| e.to_string()),
            ),
            Err(e) => (Err(e.clone()), Err(e.clone())),
        };
        checks.expect(kept.is_ok() && kept == fresh_fp, || {
            format!("unit 0 fingerprint: kept sampler {kept:?}, fresh sampler {fresh_fp:?}")
        });
        let counts = (
            kept_report.as_ref().map(engine_counts).ok(),
            fresh_report.as_ref().map(engine_counts).ok(),
        );
        checks.expect(counts.0.is_some() && counts.0 == counts.1, || {
            format!(
                "unit 0 engine counts (launches, bytes, pcie, flops, modeled bits): kept {:?}, fresh {:?}",
                counts.0, counts.1
            )
        });
        kept.unwrap_or(0)
    }

    fn layer_metrics(&mut self, m: &mut Metrics) {
        graph_metrics(m, &[&self.graph], self.generate_s);
        ir_metrics(m, &[&self.sampler]);

        // A second compile through the set-up's plan database is the warm
        // path (payload hit); its counters join the cold compile's.
        let warm = compile_epoch_sampler(&self.graph, self.spec.algo, &self.hyper, &self.plan_db);
        m.set("core.compile_cold_us", self.compile_cold_us);
        if let Ok((_, warm_us)) = &warm {
            m.set("core.compile_warm_us", *warm_us);
        }
        plandb_metrics(m, &self.plan_db.stats());

        let Some(r) = &self.last else { return };
        m.set("engine.modeled_ms", r.modeled_time * 1e3);
        m.set("engine.kernel_launches", r.stats.kernel_launches as f64);
        m.set("engine.bytes_mb", r.stats.total_bytes as f64 / MIB);
        m.set("engine.pcie_mb", r.stats.total_bytes_pcie as f64 / MIB);
        m.set("engine.sm_utilization", r.stats.sm_utilization());
        m.set("engine.device_peak_mb", r.memory.peak() as f64 / MIB);
        m.set(
            "engine.cache.hit_planned",
            self.graph.cache_plan().map_or(0.0, |p| p.hit_rate),
        );
        m.set("engine.cache.hit_observed", r.stats.cache_hit_rate());
        crate::trace::kernel_metrics(
            m,
            r.stats
                .profile()
                .iter()
                .map(|(name, a)| (name.as_str(), a.count, a.wall_time, a.time)),
        );

        m.set("core.super_batch_factor", r.super_batch as f64);
        m.set("core.batches_per_unit", r.batches as f64);
        m.set(
            "core.windows_per_unit",
            r.batches.div_ceil(r.super_batch.max(1)) as f64,
        );
        m.set(
            "core.faults.retries",
            (r.faults.kernel_retries + r.faults.batch_retries) as f64,
        );
        m.set("core.faults.degrade_steps", r.faults.degrade_steps as f64);
        m.set(
            "core.faults.quarantined",
            r.faults.quarantined_batches as f64,
        );
        crate::trace::nonkernel_metrics(m, r.wall_time * 1e3);
        if self.is_walk() {
            m.set(
                "algos.walk.steps_per_unit",
                (self.seeds.len() * self.hyper.walk_length) as f64,
            );
        }
    }

    fn probe_inputs(&self) -> (Arc<Graph>, Vec<NodeId>) {
        let window = self.sampler.super_batch_factor().max(1) * self.hyper.batch_size;
        let first = self.seeds[..window.min(self.seeds.len())].to_vec();
        (self.graph.clone(), first)
    }
}

// ---------------------------------------------------------------------
// serve_burst_lj
// ---------------------------------------------------------------------

/// (fanouts, batch size, tenants) of the two pack groups.
const TENANT_GROUPS: [(&[usize], usize, usize); 2] = [(&[25, 10], 512, 8), (&[10, 5], 128, 4)];
const SERVE_DEADLINE: Duration = Duration::from_secs(10);

fn tenant_specs() -> Vec<TenantSpec> {
    let mut specs = Vec::new();
    for (g, (fanouts, batch_size, tenants)) in TENANT_GROUPS.iter().enumerate() {
        for t in 0..*tenants {
            specs.push(TenantSpec {
                name: format!("g{g}-t{t}"),
                algorithm: Algorithm::GraphSage {
                    fanouts: fanouts.to_vec(),
                },
                seed: 100 + specs.len() as u64,
                batch_size: *batch_size,
            });
        }
    }
    specs
}

struct ServeWorkload {
    seed: u64,
    graph: Arc<Graph>,
    server: EpochServer,
    specs: Vec<TenantSpec>,
    /// The round built by `prepare`, consumed by `run`.
    pending: Vec<(String, Vec<NodeId>, u64)>,
    replies: Vec<Option<GraphSample>>,
    backpressure_retries: u64,
    generate_s: f64,
    register_ms: f64,
    /// Per round: `submit_burst` call time and time to the first reply.
    submit_ns: Vec<u64>,
    first_reply_ns: Vec<u64>,
}

/// Rounds the per-round timing vectors are sized for up front, so the
/// timed region never grows them.
const MAX_ROUNDS: usize = 1 << 16;

impl ServeWorkload {
    fn build(seed: u64) -> Result<ServeWorkload, String> {
        let (dataset, generate_s) = generate(DatasetKind::LiveJournal, seed);
        let graph = Arc::new(dataset.graph);
        let server = EpochServer::start(
            graph.clone(),
            ServeConfig {
                batching: true,
                max_pack: 16,
                default_deadline: Some(SERVE_DEADLINE),
                ..ServeConfig::default()
            },
        );
        let specs = tenant_specs();
        let start = Instant::now();
        for spec in &specs {
            let _span = gsampler_obs::span("bench", "serve.register");
            server
                .register(spec.clone())
                .map_err(|e| format!("register {}: {e}", spec.name))?;
        }
        let register_ms = start.elapsed().as_secs_f64() * 1e3;
        let n = specs.len();
        Ok(ServeWorkload {
            seed,
            graph,
            server,
            specs,
            pending: Vec::new(),
            replies: Vec::with_capacity(n),
            backpressure_retries: 0,
            generate_s,
            register_ms,
            submit_ns: Vec::with_capacity(MAX_ROUNDS),
            first_reply_ns: Vec::with_capacity(MAX_ROUNDS),
        })
    }

    /// Round `u`: one request per tenant, uniform random seeds drawn from
    /// the workload seed and the round, on RNG stream `u`.
    fn round(&self, u: u64) -> Vec<(String, Vec<NodeId>, u64)> {
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ (u.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let n = self.graph.num_nodes() as NodeId;
        self.specs
            .iter()
            .map(|spec| {
                let seeds = (0..spec.batch_size).map(|_| rng.gen_range(0..n)).collect();
                (spec.name.clone(), seeds, u)
            })
            .collect()
    }
}

impl Workload for ServeWorkload {
    fn prepare(&mut self, u: u64) {
        self.pending = self.round(u);
    }

    /// Closed loop, one request in flight per tenant: submit the round as
    /// one burst, wait for all replies. `Backpressure` is retried once the
    /// rest of the round has drained and is not a failure.
    fn run(&mut self, u: u64) -> UnitOut {
        let round = std::mem::take(&mut self.pending);
        let n = round.len() as u64;
        self.replies.clear();
        let start = Instant::now();
        let tickets = {
            let _span = gsampler_obs::span("bench", "serve.submit_burst");
            self.server.submit_burst(round)
        };
        self.submit_ns.push(start.elapsed().as_nanos() as u64);
        let mut failed = 0u64;
        let mut first = None;
        let mut retry: Vec<usize> = Vec::new();
        {
            let _span = gsampler_obs::span("bench", "serve.wait");
            for (slot, ticket) in tickets.into_iter().enumerate() {
                let reply = match ticket {
                    Ok(t) => t.wait(),
                    Err(ServeError::Backpressure { .. }) => {
                        retry.push(slot);
                        self.replies.push(None);
                        continue;
                    }
                    Err(e) => Err(e),
                };
                first.get_or_insert_with(|| start.elapsed());
                if let Err(e) = &reply {
                    eprintln!("request of {} failed: {e}", self.specs[slot].name);
                    failed += 1;
                }
                self.replies.push(reply.ok());
            }
            // Refused entries go again now that the rest of the round has
            // drained; the round is rebuilt only on this rare path.
            for slot in retry {
                self.backpressure_retries += 1;
                let (tenant, seeds, stream) = self.round(u).swap_remove(slot);
                match self.server.request_sync(&tenant, seeds, stream) {
                    Ok(sample) => self.replies[slot] = Some(sample),
                    Err(e) => {
                        eprintln!("request of {tenant} failed after backpressure: {e}");
                        failed += 1;
                    }
                }
            }
        }
        self.first_reply_ns
            .push(first.unwrap_or_default().as_nanos() as u64);
        UnitOut {
            items: n - failed,
            ops: n,
            failed,
            modeled_s: 0.0,
        }
    }

    fn check(&mut self, checks: &mut Checks) -> u64 {
        // Round 0 again, kept, against private solo samplers compiled the
        // way `Session::compile` does.
        self.prepare(0);
        let round = self.pending.clone();
        let out = self.run(0);
        checks.expect(out.failed == 0, || {
            format!("round 0 had {} failed requests", out.failed)
        });
        let mut fp = gsampler_testkit::fingerprint::Fingerprint::new();
        let mut mismatches = Vec::new();
        for ((spec, (_, seeds, stream)), reply) in self.specs.iter().zip(&round).zip(&self.replies)
        {
            let solo = solo_sampler(&self.graph, spec).and_then(|s| {
                s.sample_batch_seeded(seeds, &Bindings::new(), *stream)
                    .map_err(|e| e.to_string())
            });
            let digest = |s: &GraphSample| {
                let mut f = gsampler_testkit::fingerprint::Fingerprint::new();
                f.sample(s);
                f.finish()
            };
            match (reply, &solo) {
                (Some(served), Ok(alone)) if digest(served) == digest(alone) => {
                    fp.sample(served);
                }
                _ => mismatches.push(spec.name.clone()),
            }
        }
        checks.expect(mismatches.is_empty(), || {
            format!("round 0 replies differ from solo samplers for {mismatches:?}")
        });
        self.server.drain_with_timeout(SERVE_DEADLINE);
        let reserved = self.server.snapshot().reserved_bytes;
        checks.expect(reserved == 0, || {
            format!("{reserved} admission bytes still reserved after drain")
        });
        fp.finish()
    }

    fn layer_metrics(&mut self, m: &mut Metrics) {
        graph_metrics(m, &[&self.graph], self.generate_s);
        // One private sampler per distinct tenant program.
        let mut solos: Vec<Sampler> = Vec::new();
        let mut seen = Vec::new();
        for spec in &self.specs {
            let key = (spec.algorithm.pack_key(), spec.batch_size);
            if !seen.contains(&key) {
                seen.push(key);
                solos.extend(solo_sampler(&self.graph, spec).ok());
            }
        }
        ir_metrics(m, &solos.iter().collect::<Vec<_>>());

        let snap = self.server.snapshot();
        plandb_metrics(m, &snap.plan_db);
        m.set("serve.plandb_hit_rate", snap.plan_db.hit_rate());
        let latencies_ms: Vec<f64> = snap
            .metrics
            .tenants
            .values()
            .flat_map(|t| t.latencies_us.iter().map(|&us| us as f64 / 1e3))
            .collect();
        m.set(
            "serve.req_p50_ms",
            crate::stats::quantile(&latencies_ms, 0.50),
        );
        m.set(
            "serve.req_p99_ms",
            crate::stats::quantile(&latencies_ms, 0.99),
        );
        let ms = |ns: &[u64]| {
            crate::stats::median(&ns.iter().map(|&n| n as f64 / 1e6).collect::<Vec<_>>())
        };
        m.set("serve.first_reply_ms", ms(&self.first_reply_ns));
        m.set("serve.submit_us", ms(&self.submit_ns) * 1e3);
        m.set("serve.register_ms", self.register_ms);
        let failed: u64 = snap.metrics.tenants.values().map(|t| t.failed).sum();
        m.set(
            "serve.batched_fraction",
            snap.metrics.batched() as f64 / snap.metrics.completed().max(1) as f64,
        );
        m.set("serve.admission_peak_mb", snap.peak_bytes as f64 / MIB);
        m.set("serve.admission_reserved_end", snap.reserved_bytes as f64);
        m.set("serve.failed", failed as f64);
        m.set("serve.shed", snap.metrics.shed() as f64);
        m.set(
            "serve.deadline_missed",
            snap.metrics.deadline_missed() as f64,
        );
        m.set(
            "serve.backpressure_retries",
            self.backpressure_retries as f64,
        );
    }

    fn probe_inputs(&self) -> (Arc<Graph>, Vec<NodeId>) {
        let (_, batch_size, tenants) = TENANT_GROUPS[0];
        let first = self
            .round(0)
            .into_iter()
            .take(tenants)
            .flat_map(|(_, seeds, _)| seeds)
            .take(batch_size * tenants)
            .collect();
        (self.graph.clone(), first)
    }
}

/// A private sampler configured the way the server configures a tenant's
/// session (`Session::compile`), through its own plan database.
fn solo_sampler(graph: &Arc<Graph>, spec: &TenantSpec) -> Result<Sampler, String> {
    compile(
        graph.clone(),
        spec.algorithm.layers(),
        SamplerConfig {
            seed: spec.seed,
            batch_size: spec.batch_size,
            plan_db: Some(Arc::new(PlanDb::in_memory())),
            ..SamplerConfig::new()
        },
    )
    .map_err(|e| format!("solo compile {}: {e}", spec.name))
}

// ---------------------------------------------------------------------
// compile_sweep
// ---------------------------------------------------------------------

const SWEEP_KINDS: [DatasetKind; 3] = [
    DatasetKind::LiveJournal,
    DatasetKind::OgbnProducts,
    DatasetKind::OgbnPapers,
];

struct CompileWorkload {
    hyper: Hyper,
    graphs: Vec<Arc<Graph>>,
    first_window: Vec<NodeId>,
    generate_s: f64,
    /// The two passes over every (graph, algorithm) pair built by
    /// `prepare`: cold first, then warm.
    pending: [Vec<(usize, Vec<Layer>, SamplerConfig)>; 2],
    /// Per unit: wall time of the cold and of the warm pass.
    cold_ns: Vec<u64>,
    warm_ns: Vec<u64>,
    last_db: Option<Arc<PlanDb>>,
}

fn sweep_config(driver: Driver, db: &Arc<PlanDb>) -> SamplerConfig {
    SamplerConfig {
        opt: OptConfig::all(),
        seed: 7,
        device: DeviceProfile::v100(),
        batch_size: 512,
        // Model-driven samplers are updated between batches and are never
        // super-batched (paper §4.4).
        auto_super_batch_budget: (driver != Driver::ModelDriven).then_some(SUPER_BATCH_BUDGET),
        max_super_batch: MAX_SUPER_BATCH,
        plan_db: Some(db.clone()),
        ..SamplerConfig::new()
    }
}

impl CompileWorkload {
    fn build(seed: u64) -> CompileWorkload {
        let mut generate_s = 0.0;
        let mut first_window = Vec::new();
        let graphs = SWEEP_KINDS
            .iter()
            .map(|&kind| {
                let (dataset, s) = generate(kind, seed);
                generate_s += s;
                if first_window.is_empty() {
                    first_window = dataset.frontiers[..MAX_SUPER_BATCH * 512].to_vec();
                }
                Arc::new(dataset.graph)
            })
            .collect();
        CompileWorkload {
            hyper: hyper(),
            graphs,
            first_window,
            generate_s,
            pending: [Vec::new(), Vec::new()],
            cold_ns: Vec::with_capacity(MAX_ROUNDS),
            warm_ns: Vec::with_capacity(MAX_ROUNDS),
            last_db: None,
        }
    }

    fn sweep(&self, db: &Arc<PlanDb>) -> Vec<(usize, Vec<Layer>, SamplerConfig)> {
        let mut out = Vec::new();
        for g in 0..self.graphs.len() {
            for spec in all_algorithms(&self.hyper) {
                out.push((g, spec.layers, sweep_config(spec.driver, db)));
            }
        }
        out
    }

    /// Compile one pass; returns the samplers, the pass's wall time in
    /// nanoseconds and how many compiles failed.
    fn compile_pass(
        &self,
        pass: Vec<(usize, Vec<Layer>, SamplerConfig)>,
    ) -> (Vec<Sampler>, u64, u64) {
        let _span = gsampler_obs::span("bench", "core.compile_pass");
        let mut samplers = Vec::with_capacity(pass.len());
        let start = Instant::now();
        let mut failed = 0;
        for (g, layers, config) in pass {
            match compile(self.graphs[g].clone(), layers, config) {
                Ok(s) => samplers.push(s),
                Err(e) => {
                    eprintln!("compile failed: {e}");
                    failed += 1;
                }
            }
        }
        (samplers, start.elapsed().as_nanos() as u64, failed)
    }
}

impl Workload for CompileWorkload {
    fn prepare(&mut self, _u: u64) {
        let db = Arc::new(PlanDb::in_memory());
        self.pending = [self.sweep(&db), self.sweep(&db)];
        self.last_db = Some(db);
    }

    /// 45 compiles through a fresh plan database (a miss, search and
    /// insert per distinct program, a hit for the algorithms that share
    /// one) followed by the same 45 through the now-warm database
    /// (payload hits).
    fn run(&mut self, _u: u64) -> UnitOut {
        let [cold, warm] = std::mem::take(&mut self.pending);
        let n = (cold.len() + warm.len()) as u64;
        let (cold_samplers, cold_ns, cold_failed) = self.compile_pass(cold);
        let (warm_samplers, warm_ns, warm_failed) = self.compile_pass(warm);
        self.cold_ns.push(cold_ns);
        self.warm_ns.push(warm_ns);
        std::hint::black_box((&cold_samplers, &warm_samplers));
        let failed = cold_failed + warm_failed;
        UnitOut {
            items: n - failed,
            ops: n,
            failed,
            modeled_s: 0.0,
        }
    }

    fn check(&mut self, checks: &mut Checks) -> u64 {
        let db = Arc::new(PlanDb::in_memory());
        let (cold, _, cold_failed) = self.compile_pass(self.sweep(&db));
        let after_cold = db.stats();
        let (warm, _, warm_failed) = self.compile_pass(self.sweep(&db));
        let after_warm = db.stats();
        checks.expect(cold_failed + warm_failed == 0, || {
            format!("{cold_failed} cold and {warm_failed} warm compiles failed")
        });
        // Algorithms that share a program (the walk family, the two
        // bandits, ShaDow and GraphSAGE) already hit within the cold pass;
        // the warm pass must not miss at all.
        checks.expect(
            after_cold.lookups() as usize == cold.len()
                && after_warm.misses == after_cold.misses
                && after_warm.hits as usize == after_cold.hits as usize + warm.len(),
            || {
                format!(
                    "plan database counters: after cold {after_cold:?}, after warm {after_warm:?}"
                )
            },
        );
        let digest = |samplers: &[Sampler]| -> Vec<(usize, Vec<u64>)> {
            samplers
                .iter()
                .map(|s| {
                    let fps = s
                        .layers()
                        .iter()
                        .map(|l| l.optimized.program.fingerprint())
                        .collect();
                    (s.super_batch_factor(), fps)
                })
                .collect()
        };
        let (cold, warm) = (digest(&cold), digest(&warm));
        checks.expect(cold == warm, || {
            "warm compiles differ from cold in super-batch factor or optimized program".to_string()
        });
        let mut fp = gsampler_testkit::fingerprint::Fingerprint::new();
        for (factor, fps) in &cold {
            fp.u64(*factor as u64);
            for f in fps {
                fp.u64(*f);
            }
        }
        fp.finish()
    }

    fn layer_metrics(&mut self, m: &mut Metrics) {
        let graphs: Vec<&Graph> = self.graphs.iter().map(Arc::as_ref).collect();
        graph_metrics(m, &graphs, self.generate_s);
        let db = Arc::new(PlanDb::in_memory());
        let (samplers, _, _) = self.compile_pass(self.sweep(&db));
        ir_metrics(m, &samplers.iter().collect::<Vec<_>>());
        if let Some(db) = &self.last_db {
            plandb_metrics(m, &db.stats());
        }
        let per_compile_us = |ns: &[u64]| {
            let per: Vec<f64> = ns
                .iter()
                .map(|&n| n as f64 / 1e3 / samplers.len().max(1) as f64)
                .collect();
            crate::stats::median(&per)
        };
        m.set("core.compile_cold_us", per_compile_us(&self.cold_ns));
        m.set("core.compile_warm_us", per_compile_us(&self.warm_ns));
    }

    fn probe_inputs(&self) -> (Arc<Graph>, Vec<NodeId>) {
        (self.graphs[0].clone(), self.first_window.clone())
    }
}
