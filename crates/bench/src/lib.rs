//! Shared experiment infrastructure: dataset caching, epoch runners for
//! gSampler and the baselines, and table formatting.
//!
//! Every harness binary reports **modeled device time** (the cost-model
//! seconds the engine accumulates), which is the substituted analogue of
//! the paper's measured GPU seconds — see `DESIGN.md`. Heavy
//! configurations run a bounded number of mini-batches and extrapolate
//! linearly to the full epoch (sampling cost is per-batch stationary), so
//! every harness finishes in CI-friendly wall time.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::Arc;

use gsampler_algos::drivers::{self, asgcn_bindings, pass_bindings};
use gsampler_algos::{layerwise, nodewise, walks, Hyper};
use gsampler_baselines::{EagerSampler, VertexCentricSampler};
use gsampler_core::builder::Layer;
use gsampler_core::{compile, Bindings, DeviceProfile, Graph, OptConfig, Result, SamplerConfig};
use gsampler_engine::ExecStats;
use gsampler_graphs::{Dataset, DatasetKind};

/// Upper bound on mini-batches actually executed per epoch measurement;
/// the rest of the epoch is extrapolated.
pub const MAX_BATCHES: usize = 12;

/// Upper bound on random-walk steps actually executed (extrapolated to
/// the configured walk length).
pub const MAX_WALK_STEPS: usize = 12;

/// An epoch-time estimate: modeled seconds for the *full* epoch.
#[derive(Debug, Clone, Copy)]
pub struct EpochEstimate {
    /// Modeled device seconds for one full epoch.
    pub seconds: f64,
    /// Mini-batches in the full epoch.
    pub total_batches: usize,
    /// Mini-batches actually executed.
    pub ran_batches: usize,
    /// Time-weighted SM utilization observed.
    pub sm_utilization: f64,
    /// Peak transient device memory (bytes) observed.
    pub peak_memory: u64,
    /// Injected faults and recovery actions observed during the
    /// measurement (all zero for the baselines and on healthy runs).
    pub faults: gsampler_engine::FaultReport,
}

/// The seven evaluated algorithms (paper §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Vanilla random walk.
    DeepWalk,
    /// Second-order biased walk.
    Node2Vec,
    /// Uniform node-wise sampling.
    GraphSage,
    /// Layer-wise with squared-weight bias.
    Ladies,
    /// Layer-wise with learned bias.
    AsGcn,
    /// Node-wise with learned attention bias.
    Pass,
    /// Node-wise expansion plus induced subgraph.
    Shadow,
}

impl Algo {
    /// The three simple algorithms of Fig. 7.
    pub const SIMPLE: [Algo; 3] = [Algo::DeepWalk, Algo::Node2Vec, Algo::GraphSage];
    /// The four complex algorithms of Fig. 8.
    pub const COMPLEX: [Algo; 4] = [Algo::Ladies, Algo::AsGcn, Algo::Pass, Algo::Shadow];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::DeepWalk => "DeepWalk",
            Algo::Node2Vec => "Node2Vec",
            Algo::GraphSage => "GraphSAGE",
            Algo::Ladies => "LADIES",
            Algo::AsGcn => "AS-GCN",
            Algo::Pass => "PASS",
            Algo::Shadow => "ShaDow",
        }
    }

    /// True for the walk-driven algorithms.
    pub fn is_walk(&self) -> bool {
        matches!(self, Algo::DeepWalk | Algo::Node2Vec)
    }

    /// Super-batching applies to every algorithm except those whose
    /// sampling model is updated between batches (paper §4.4 names PASS;
    /// AS-GCN's learned bias is in the same class).
    pub fn super_batch_ok(&self) -> bool {
        !matches!(self, Algo::Pass | Algo::AsGcn)
    }

    /// Layers for the gSampler implementation.
    pub fn layers(&self, h: &Hyper) -> Vec<Layer> {
        match self {
            Algo::DeepWalk => vec![walks::deepwalk_step()],
            Algo::Node2Vec => vec![walks::node2vec_step(h.p, h.q)],
            Algo::GraphSage => nodewise::graphsage(&h.fanouts),
            Algo::Ladies => layerwise::ladies(h.layer_width, h.layers),
            Algo::AsGcn => layerwise::asgcn(h.layer_width, h.layers),
            Algo::Pass => nodewise::pass(&h.fanouts),
            Algo::Shadow => nodewise::shadow_expansion(&h.fanouts),
        }
    }

    /// Model-weight bindings needed by the gSampler implementation.
    pub fn bindings(&self, graph: &Graph, h: &Hyper) -> Bindings {
        let dim = graph.features.as_ref().map_or(1, |f| f.ncols());
        match self {
            Algo::Pass => pass_bindings(dim, h.hidden, 99),
            Algo::AsGcn => asgcn_bindings(dim, 99),
            _ => Bindings::new(),
        }
    }
}

/// Generate (or re-generate) a dataset preset at the given scale.
pub fn dataset(kind: DatasetKind, scale: f64) -> Dataset {
    Dataset::generate(kind, scale, 2023)
}

/// Robustness knobs for [`build_gsampler_with`], split from the
/// positional arguments because every harness wants the same defaults.
#[derive(Debug, Clone, Default)]
pub struct BuildOpts {
    /// Fault-recovery policy; the strict (`--no-degrade`) CLI paths pass
    /// [`RecoveryPolicy`](gsampler_core::RecoveryPolicy)`::disabled()` so
    /// budget violations fail loudly instead of degrading.
    pub recovery: gsampler_core::RecoveryPolicy,
    /// Replace the default 256 MiB super-batch planning budget (bytes).
    /// The chaos smoke passes a tiny budget to force the degradation
    /// ladder deterministically.
    pub budget_override: Option<f64>,
    /// Plan database to compile through; `None` disables plan caching.
    pub plan_db: Option<Arc<gsampler_core::PlanDb>>,
}

/// Build the gSampler sampler for an algorithm (default recovery policy:
/// bounded retry plus the degradation ladder).
pub fn build_gsampler(
    graph: &Arc<Graph>,
    algo: Algo,
    h: &Hyper,
    device: DeviceProfile,
    opt: OptConfig,
    auto_super_batch: bool,
) -> Result<gsampler_core::Sampler> {
    build_gsampler_with(
        graph,
        algo,
        h,
        device,
        opt,
        auto_super_batch,
        BuildOpts::default(),
    )
}

/// [`build_gsampler`] with explicit robustness knobs ([`BuildOpts`]).
#[allow(clippy::too_many_arguments)]
pub fn build_gsampler_with(
    graph: &Arc<Graph>,
    algo: Algo,
    h: &Hyper,
    device: DeviceProfile,
    opt: OptConfig,
    auto_super_batch: bool,
    opts: BuildOpts,
) -> Result<gsampler_core::Sampler> {
    let config = SamplerConfig {
        opt,
        seed: 7,
        device,
        batch_size: h.batch_size,
        auto_super_batch_budget: if let Some(budget) = opts.budget_override {
            Some(budget)
        } else if auto_super_batch && algo.super_batch_ok() {
            // 256 MiB sampling budget; the factor cap keeps the runner in
            // the occupancy regime of the paper's Fig. 6 (saturation near
            // an effective batch of ~8k frontiers).
            Some(256.0 * (1 << 20) as f64)
        } else {
            None
        },
        max_super_batch: 16,
        recovery: opts.recovery,
        plan_db: opts.plan_db,
    };
    compile(graph.clone(), algo.layers(h), config)
}

/// Measure one gSampler epoch (bounded + extrapolated).
pub fn gsampler_epoch(
    sampler: &gsampler_core::Sampler,
    graph: &Arc<Graph>,
    algo: Algo,
    seeds: &[u32],
    h: &Hyper,
) -> Result<EpochEstimate> {
    let total_batches = seeds.len().div_ceil(h.batch_size.max(1));
    if algo.is_walk() {
        // Bounded steps on a bounded number of batches, stepped together
        // as one super-batch (the walk analogue of paper §4.4).
        let steps = h.walk_length.min(MAX_WALK_STEPS);
        let factor = sampler.super_batch_factor().max(1);
        let batches = total_batches.min(factor.max(4));
        sampler.reset_stats();
        let groups: Vec<Vec<u32>> = seeds
            .chunks(h.batch_size.max(1))
            .take(batches)
            .map(|c| c.to_vec())
            .collect();
        let ran = groups.len();
        // A walk epoch never reaches `drive_epoch`; it stops and leaves its
        // post-mortem under the same bracket.
        let node2vec = algo == Algo::Node2Vec;
        gsampler_core::window::stop_bracket(|| {
            drivers::run_walk_groups(sampler, groups, steps, node2vec, 0.0, 1)
        })?;
        let stats = sampler.device().stats();
        let per_step_batch = stats.total_time / (ran * steps) as f64;
        Ok(EpochEstimate {
            seconds: per_step_batch * (total_batches * h.walk_length) as f64,
            total_batches,
            ran_batches: ran,
            sm_utilization: stats.sm_utilization(),
            peak_memory: sampler.device().memory().peak(),
            faults: stats.faults,
        })
    } else {
        let factor = sampler.super_batch_factor().max(1);
        let run_batches = total_batches.min(MAX_BATCHES.max(factor));
        let subset = &seeds[..(run_batches * h.batch_size).min(seeds.len())];
        // PASS and AS-GCN update their sampling model between batches (see
        // `super_batch_ok`), so every batch binds its weights afresh and
        // pays for the products hoisted from them, as under training.
        let report = if algo.super_batch_ok() {
            sampler.run_epoch(subset, &algo.bindings(graph, h), 0)?
        } else {
            let run =
                |groups, keys: &_| sampler.sample_groups(groups, &algo.bindings(graph, h), keys);
            sampler.drive_epoch(subset, 0, run, |_, _| {})?
        };
        let mut per_batch = report.modeled_time / report.batches.max(1) as f64;
        let mut sm = report.stats.sm_utilization();
        let mut peak = report.memory.peak();
        let mut faults = report.faults;
        if algo == Algo::Shadow {
            // ShaDow's finalize induces a subgraph on the union of every
            // sampled node (host-unioned, so outside run_epoch): charge it
            // per batch from a few real inductions.
            let induce = drivers::induce_sampler(
                graph.clone(),
                SamplerConfig {
                    opt: OptConfig::all(),
                    batch_size: h.batch_size,
                    device: sampler.device().profile().clone(),
                    ..SamplerConfig::new()
                },
            )?;
            let probe = report.batches.clamp(1, 3);
            for (i, chunk) in seeds.chunks(h.batch_size.max(1)).take(probe).enumerate() {
                drivers::shadow_sample(sampler, &induce, chunk, 1000 + i as u64)?;
            }
            let induce_stats = induce.device().stats();
            per_batch += induce_stats.total_time / probe as f64;
            sm = (sm + induce_stats.sm_utilization()) / 2.0;
            peak = peak.max(induce.device().memory().peak());
            faults.merge(&induce_stats.faults);
        }
        Ok(EpochEstimate {
            seconds: per_batch * total_batches as f64,
            total_batches,
            ran_batches: report.batches,
            sm_utilization: sm,
            peak_memory: peak,
            faults,
        })
    }
}

/// Measure one DGL-like eager epoch (GPU or CPU profile).
pub fn eager_epoch(
    graph: &Arc<Graph>,
    algo: Algo,
    seeds: &[u32],
    h: &Hyper,
    profile: DeviceProfile,
) -> Option<EpochEstimate> {
    eager_epoch_with_stats(graph, algo, seeds, h, profile).map(|(e, _)| e)
}

/// Like [`eager_epoch`], but also returns the eager device's dispatcher
/// session, so resource reports (Table 9) can read per-kernel records
/// instead of re-deriving totals.
pub fn eager_epoch_with_stats(
    graph: &Arc<Graph>,
    algo: Algo,
    seeds: &[u32],
    h: &Hyper,
    profile: DeviceProfile,
) -> Option<(EpochEstimate, ExecStats)> {
    let sampler = EagerSampler::new(graph.clone(), profile, 5);
    let total_batches = seeds.len().div_ceil(h.batch_size.max(1));
    let dim = graph.features.as_ref().map_or(1, |f| f.ncols());
    let run = |max: usize| -> usize { total_batches.min(max) };
    let mut rng_seed = 0u64;
    let (ran, step_scale): (usize, f64) = match algo {
        Algo::DeepWalk | Algo::Node2Vec => {
            // Eager walks: DGL's random_walk is the DeepWalk path; eager
            // Node2Vec has no GPU implementation in DGL (the paper marks
            // it N/A), so refuse it here.
            if algo == Algo::Node2Vec {
                return None;
            }

            let batches = run(3);
            let steps = h.walk_length.min(MAX_WALK_STEPS);
            for chunk in seeds.chunks(h.batch_size.max(1)).take(batches) {
                sampler.walk_batch(chunk, steps, rng_seed);
                rng_seed += 1;
            }
            (batches, h.walk_length as f64 / steps as f64)
        }
        Algo::GraphSage => {
            let batches = run(MAX_BATCHES);
            for chunk in seeds.chunks(h.batch_size.max(1)).take(batches) {
                sampler.graphsage_batch(chunk, &h.fanouts, rng_seed);
                rng_seed += 1;
            }
            (batches, 1.0)
        }
        Algo::Ladies => {
            let batches = run(MAX_BATCHES);
            for chunk in seeds.chunks(h.batch_size.max(1)).take(batches) {
                sampler.ladies_batch(chunk, h.layer_width, h.layers, rng_seed);
                rng_seed += 1;
            }
            (batches, 1.0)
        }
        Algo::AsGcn => {
            let batches = run(6);
            let wg = gsampler_matrix::Dense::from_vec(dim, 1, vec![0.05; dim]).ok()?;
            let key = gsampler_core::Key::new(3);
            for (b, chunk) in seeds.chunks(h.batch_size.max(1)).take(batches).enumerate() {
                for l in 0..h.layers {
                    let layer = key.child(b as u64).child(l as u64);
                    sampler.asgcn_layer(chunk, h.layer_width, &wg, layer);
                }
            }
            (batches, 1.0)
        }
        Algo::Pass => {
            let batches = run(4);
            let key = gsampler_core::Key::new(4);
            let w1 =
                gsampler_matrix::Dense::from_vec(dim, h.hidden, vec![0.02; dim * h.hidden]).ok()?;
            let w2 = w1.clone();
            let w3 = gsampler_matrix::Dense::from_vec(3, 1, vec![0.3, 0.3, 0.4]).ok()?;
            for (b, chunk) in seeds.chunks(h.batch_size.max(1)).take(batches).enumerate() {
                let mut cur: Vec<u32> = chunk.to_vec();
                for (l, &k) in h.fanouts.iter().enumerate() {
                    let layer = key.child(b as u64).child(l as u64);
                    let m = sampler.pass_layer(&cur, k, &w1, &w2, &w3, layer);
                    cur = m.row_nodes();
                }
            }
            (batches, 1.0)
        }
        Algo::Shadow => {
            let batches = run(6);
            for chunk in seeds.chunks(h.batch_size.max(1)).take(batches) {
                sampler.shadow_batch(chunk, &h.fanouts, rng_seed);
                rng_seed += 1;
            }
            (batches, 1.0)
        }
    };
    let report = sampler.report(ran);
    let per_batch = report.modeled_time / ran.max(1) as f64;
    let est = EpochEstimate {
        seconds: per_batch * step_scale * total_batches as f64,
        total_batches,
        ran_batches: ran,
        sm_utilization: report.sm_utilization,
        peak_memory: report.peak_memory,
        faults: Default::default(),
    };
    Some((est, sampler.device().stats()))
}

/// Measure one SkyWalker-like vertex-centric epoch (simple algos only).
pub fn vertex_centric_epoch(
    graph: &Arc<Graph>,
    algo: Algo,
    seeds: &[u32],
    h: &Hyper,
    profile: DeviceProfile,
) -> Option<EpochEstimate> {
    let sampler = VertexCentricSampler::new(graph.clone(), profile, 6);
    let total_batches = seeds.len().div_ceil(h.batch_size.max(1));
    let steps = h.walk_length.min(MAX_WALK_STEPS);
    let (ran, step_scale): (usize, f64) = match algo {
        Algo::DeepWalk => {
            let batches = total_batches.min(4);
            for (i, chunk) in seeds.chunks(h.batch_size.max(1)).take(batches).enumerate() {
                sampler.deepwalk_batch(chunk, steps, i as u64);
            }
            (batches, h.walk_length as f64 / steps as f64)
        }
        Algo::Node2Vec => {
            let batches = total_batches.min(4);
            for (i, chunk) in seeds.chunks(h.batch_size.max(1)).take(batches).enumerate() {
                sampler.node2vec_batch(chunk, steps, h.p, h.q, i as u64);
            }
            (batches, h.walk_length as f64 / steps as f64)
        }
        Algo::GraphSage => {
            let batches = total_batches.min(MAX_BATCHES);
            for (i, chunk) in seeds.chunks(h.batch_size.max(1)).take(batches).enumerate() {
                sampler.graphsage_batch(chunk, &h.fanouts, i as u64);
            }
            (batches, 1.0)
        }
        _ => return None, // no tensor ops, no global view
    };
    let report = sampler.report(ran);
    let per_batch = report.modeled_time / ran.max(1) as f64;
    Some(EpochEstimate {
        seconds: per_batch * step_scale * total_batches as f64,
        total_batches,
        ran_batches: ran,
        sm_utilization: report.sm_utilization,
        peak_memory: report.peak_memory,
        faults: Default::default(),
    })
}

/// Trace/metrics export destinations parsed from the command line —
/// `--trace-out FILE` (Chrome-trace/Perfetto JSON timeline) and
/// `--metrics-out FILE` (flat counters + span aggregates). Shared by the
/// harness binaries so every one of them exposes the same observability
/// surface.
#[derive(Debug, Clone, Default)]
pub struct TraceOpts {
    /// Chrome-trace JSON destination, if requested.
    pub trace_out: Option<String>,
    /// Metrics snapshot destination, if requested.
    pub metrics_out: Option<String>,
}

impl TraceOpts {
    /// Parse `--trace-out` / `--metrics-out` from raw args and, if either
    /// is present, switch the global trace collector on. Returns the
    /// destinations; call [`TraceOpts::export`] after the workload.
    pub fn from_args(args: &[String]) -> TraceOpts {
        let value = |name: &str| -> Option<String> {
            args.iter()
                .position(|a| a == name)
                .map(|i| match args.get(i + 1) {
                    Some(v) if !v.starts_with("--") => v.clone(),
                    _ => {
                        eprintln!("{name} needs a file path");
                        std::process::exit(2);
                    }
                })
        };
        let opts = TraceOpts {
            trace_out: value("--trace-out"),
            metrics_out: value("--metrics-out"),
        };
        if opts.enabled() {
            gsampler_obs::enable();
        }
        opts
    }

    /// Whether any export destination was requested.
    pub fn enabled(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some()
    }

    /// Write the requested artifacts (call once, after the workload).
    pub fn export(&self) {
        if let Some(path) = &self.trace_out {
            match gsampler_obs::write_chrome_trace(path) {
                Ok(()) => println!(
                    "\nwrote trace to {path} (open in chrome://tracing or https://ui.perfetto.dev)"
                ),
                Err(e) => {
                    eprintln!("failed to write trace {path}: {e}");
                    std::process::exit(2);
                }
            }
        }
        if let Some(path) = &self.metrics_out {
            match gsampler_obs::write_metrics(path) {
                Ok(()) => println!("wrote metrics snapshot to {path}"),
                Err(e) => {
                    eprintln!("failed to write metrics {path}: {e}");
                    std::process::exit(2);
                }
            }
        }
    }
}

/// Install the `GSAMPLER_FAULTS` fault schedule when the variable is set,
/// exiting with a usage diagnostic on a malformed spec. Returns whether a
/// schedule is active. Every harness binary calls this before compiling,
/// so chaos runs need no per-binary flags.
pub fn install_faults_from_env() -> bool {
    match gsampler_engine::faults::install_from_env() {
        Ok(active) => active,
        Err(e) => {
            eprintln!("invalid GSAMPLER_FAULTS spec: {e}");
            std::process::exit(2);
        }
    }
}

/// One-line rendering of a [`FaultReport`](gsampler_engine::FaultReport)
/// for CLI output.
pub fn fmt_fault_report(f: &gsampler_engine::FaultReport) -> String {
    format!(
        "injected: oom={} kernel={} worker_panics={}; recovery: kernel_retries={} \
         batch_retries={} degrade_steps={} spill_events={} spilled={} quarantined={}",
        f.injected_oom,
        f.injected_kernel,
        f.worker_panics,
        f.kernel_retries,
        f.batch_retries,
        f.degrade_steps,
        f.spill_events,
        fmt_bytes(f.spilled_bytes),
        f.quarantined_batches,
    )
}

/// Format seconds with sensible units.
pub fn fmt_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:8.3} s")
    } else if seconds >= 1e-3 {
        format!("{:8.3} ms", seconds * 1e3)
    } else {
        format!("{:8.1} µs", seconds * 1e6)
    }
}

/// Format a byte count with binary units.
pub fn fmt_bytes(bytes: u64) -> String {
    if bytes >= 1 << 30 {
        format!("{:.2} GiB", bytes as f64 / (1u64 << 30) as f64)
    } else if bytes >= 1 << 20 {
        format!("{:.2} MiB", bytes as f64 / (1 << 20) as f64)
    } else if bytes >= 1024 {
        format!("{:.1} KiB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

/// Print the dispatcher's per-op profile of an execution session: one row
/// per kernel name with invocation count, modeled device time (and its
/// share of the session total), device bytes moved, and the host worker
/// pool's average thread count and parallel efficiency for the kernel.
/// This is the `--profile` view of the bench binaries.
pub fn print_profile(title: &str, stats: &ExecStats) {
    let total = stats.total_time.max(f64::MIN_POSITIVE);
    let rows: Vec<Vec<String>> = stats
        .profile()
        .into_iter()
        .map(|(name, a)| {
            let threads = format!("{:.1}", a.avg_threads());
            let eff = format!("{:5.1}%", a.parallel_efficiency() * 100.0);
            vec![
                name,
                a.count.to_string(),
                fmt_time(a.time),
                format!("{:5.1}%", a.time / total * 100.0),
                fmt_bytes(a.bytes),
                threads,
                eff,
            ]
        })
        .collect();
    print_table(
        title,
        &[
            "kernel",
            "count",
            "modeled time",
            "share",
            "bytes",
            "threads",
            "par eff",
        ],
        &rows,
    );
}

/// Print a row-major table with a header.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("| {} |", joined.join(" | "));
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row);
    }
}

/// Scale factor from `GS_SCALE` env (default 1.0) — shrink for smoke runs.
pub fn env_scale() -> f64 {
    std::env::var("GS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_and_complex_partition() {
        let names: Vec<&str> = Algo::SIMPLE
            .iter()
            .chain(Algo::COMPLEX.iter())
            .map(|a| a.name())
            .collect();
        assert_eq!(names.len(), 7);
        assert!(names.contains(&"LADIES"));
    }

    #[test]
    fn gsampler_epoch_estimates() {
        let d = dataset(DatasetKind::Tiny, 1.0);
        let graph = Arc::new(d.graph);
        let h = Hyper::small();
        let sampler = build_gsampler(
            &graph,
            Algo::GraphSage,
            &h,
            DeviceProfile::v100(),
            OptConfig::all(),
            false,
        )
        .unwrap();
        let est = gsampler_epoch(&sampler, &graph, Algo::GraphSage, &d.frontiers, &h).unwrap();
        assert!(est.seconds > 0.0);
        assert_eq!(est.total_batches, 16);
    }

    #[test]
    fn vertex_centric_rejects_complex() {
        let d = dataset(DatasetKind::Tiny, 1.0);
        let graph = Arc::new(d.graph);
        let h = Hyper::small();
        assert!(vertex_centric_epoch(
            &graph,
            Algo::Ladies,
            &d.frontiers,
            &h,
            DeviceProfile::v100()
        )
        .is_none());
    }

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.00 MiB");
        assert_eq!(fmt_bytes(5 << 30), "5.00 GiB");
    }

    #[test]
    fn eager_stats_carry_dispatcher_profile() {
        let d = dataset(DatasetKind::Tiny, 1.0);
        let graph = Arc::new(d.graph);
        let h = Hyper::small();
        let (est, stats) = eager_epoch_with_stats(
            &graph,
            Algo::GraphSage,
            &d.frontiers,
            &h,
            DeviceProfile::v100(),
        )
        .unwrap();
        assert!(est.seconds > 0.0);
        assert!(stats.kernel_launches > 0);
        assert!(!stats.profile().is_empty());
    }

    #[test]
    fn eager_rejects_gpu_node2vec() {
        let d = dataset(DatasetKind::Tiny, 1.0);
        let graph = Arc::new(d.graph);
        let h = Hyper::small();
        assert!(eager_epoch(
            &graph,
            Algo::Node2Vec,
            &d.frontiers,
            &h,
            DeviceProfile::v100()
        )
        .is_none());
    }
}
