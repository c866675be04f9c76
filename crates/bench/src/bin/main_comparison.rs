//! Reproduces paper Figures 7–8 and Table 7: per-epoch sampling time of
//! gSampler vs the baseline architectures for all 7 evaluated algorithms
//! on all 4 dataset presets, plus the speedup over the best baseline.
//!
//! Columns: gSampler (all optimizations + auto super-batch), DGL-like
//! eager on GPU, eager on CPU (the DGL-CPU / PyG-CPU columns), and the
//! SkyWalker-like vertex-centric engine (simple algorithms only).
//! `N/A` marks architecture gaps, exactly as in the paper's figures.
//!
//! Usage: `main_comparison [--simple|--complex] [--profile] [--no-degrade]
//! [--trace-out FILE] [--metrics-out FILE]`. `--profile` additionally
//! prints, per dataset × algorithm, the dispatcher's per-kernel breakdown
//! of the measured gSampler epoch (invocation count, modeled device time,
//! bytes). `--trace-out` records a Chrome-trace/Perfetto timeline of the
//! whole run (IR passes, plan decisions, kernel dispatches, worker-pool
//! regions) and `--metrics-out` a flat JSON counters snapshot. `GS_SCALE`
//! shrinks the datasets for smoke runs.
//!
//! `--no-degrade` turns recovery off, making an unsatisfiable super-batch
//! budget a hard error (exit 1) rather than a degraded run.

use std::sync::Arc;

use gsampler_algos::Hyper;
use gsampler_bench::{
    build_gsampler_with, dataset, eager_epoch, env_scale, fmt_fault_report, fmt_time,
    gsampler_epoch, print_profile, print_table, vertex_centric_epoch, Algo, BuildOpts, TraceOpts,
};
use gsampler_core::{DeviceProfile, Error, OptConfig, RecoveryPolicy};
use gsampler_graphs::DatasetKind;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let simple_only = args.iter().any(|a| a == "--simple");
    let complex_only = args.iter().any(|a| a == "--complex");
    let profile = args.iter().any(|a| a == "--profile");
    let no_degrade = args.iter().any(|a| a == "--no-degrade");
    let trace = TraceOpts::from_args(&args);
    let algos: Vec<Algo> = if simple_only {
        Algo::SIMPLE.to_vec()
    } else if complex_only {
        Algo::COMPLEX.to_vec()
    } else {
        Algo::SIMPLE
            .iter()
            .chain(Algo::COMPLEX.iter())
            .copied()
            .collect()
    };
    let scale = env_scale();

    let mut h = Hyper::paper();
    // Keep the harness CI-friendly: paper walk length is 80; the runner
    // executes a bounded prefix and extrapolates linearly either way.
    h.layers = 2;

    let mut speedups: Vec<(String, String, f64)> = Vec::new();

    for kind in DatasetKind::PAPER {
        let d = dataset(kind, scale);
        let graph = Arc::new(d.graph);
        let seeds = &d.frontiers;
        println!(
            "\n### {} — {} nodes, {} edges, residency {:?}",
            kind.abbr(),
            graph.num_nodes(),
            graph.num_edges(),
            graph.residency
        );
        let mut rows = Vec::new();
        for &algo in &algos {
            // Keep the sampler alive past the measurement: its device
            // session holds the dispatcher records `--profile` prints.
            let recovery = if no_degrade {
                RecoveryPolicy::disabled()
            } else {
                RecoveryPolicy::default()
            };
            let gs = build_gsampler_with(
                &graph,
                algo,
                &h,
                DeviceProfile::v100(),
                OptConfig::all(),
                true,
                BuildOpts {
                    recovery,
                    ..BuildOpts::default()
                },
            )
            .and_then(|s| gsampler_epoch(&s, &graph, algo, seeds, &h).map(|e| (e, s)));
            let dgl_gpu = eager_epoch(&graph, algo, seeds, &h, DeviceProfile::v100());
            let dgl_cpu = eager_epoch(&graph, algo, seeds, &h, DeviceProfile::cpu());
            let vc = vertex_centric_epoch(&graph, algo, seeds, &h, DeviceProfile::v100());

            let gs_time = match &gs {
                Ok((est, sampler)) => {
                    if profile {
                        print_profile(
                            &format!("{} / {} — dispatcher profile", kind.abbr(), algo.name()),
                            &sampler.device().stats(),
                        );
                    }
                    if est.faults.any() {
                        println!(
                            "{} / {}: faults — {}",
                            kind.abbr(),
                            algo.name(),
                            fmt_fault_report(&est.faults)
                        );
                    }
                    est.seconds
                }
                Err(e @ Error::MemoryBudget(_)) => {
                    // An unsatisfiable budget with degradation off is a
                    // configuration error, not a data point: fail the run.
                    eprintln!("main_comparison: {} / {}: {e}", kind.abbr(), algo.name());
                    eprintln!(
                        "main_comparison: rerun without --no-degrade to stream over-budget \
                         batches instead"
                    );
                    std::process::exit(1);
                }
                Err(e) => {
                    rows.push(vec![
                        algo.name().into(),
                        format!("error: {e}"),
                        String::new(),
                        String::new(),
                        String::new(),
                        String::new(),
                    ]);
                    continue;
                }
            };
            let cell = |o: &Option<gsampler_bench::EpochEstimate>| match o {
                Some(e) => fmt_time(e.seconds),
                None => "N/A".to_string(),
            };
            let best_baseline = [
                dgl_gpu.as_ref().map(|e| e.seconds),
                vc.as_ref().map(|e| e.seconds),
                dgl_cpu.as_ref().map(|e| e.seconds),
            ]
            .into_iter()
            .flatten()
            .fold(f64::INFINITY, f64::min);
            let speedup = best_baseline / gs_time;
            speedups.push((kind.abbr().into(), algo.name().into(), speedup));
            rows.push(vec![
                algo.name().into(),
                fmt_time(gs_time),
                cell(&dgl_gpu),
                cell(&vc),
                cell(&dgl_cpu),
                format!("{speedup:.2}x"),
            ]);
        }
        print_table(
            &format!("Figure 7/8 — sampling time per epoch on {}", kind.abbr()),
            &[
                "algorithm",
                "gSampler",
                "DGL-like GPU",
                "SkyWalker-like",
                "CPU (DGL/PyG)",
                "speedup vs best",
            ],
            &rows,
        );
    }

    // Table 7: the speedup matrix.
    let mut rows = Vec::new();
    for &algo in &algos {
        let mut row = vec![algo.name().to_string()];
        for kind in DatasetKind::PAPER {
            let v = speedups
                .iter()
                .find(|(d, a, _)| d == kind.abbr() && a == algo.name())
                .map(|(_, _, s)| format!("{s:.2}"))
                .unwrap_or_else(|| "-".into());
            row.push(v);
        }
        rows.push(row);
    }
    print_table(
        "Table 7: gSampler speedup over the best-performing baseline",
        &["algorithm", "LJ", "PD", "PP", "FS"],
        &rows,
    );
    let avg: f64 = speedups.iter().map(|(_, _, s)| s).sum::<f64>() / speedups.len().max(1) as f64;
    let over2 = speedups.iter().filter(|(_, _, s)| *s > 2.0).count();
    println!(
        "\naverage speedup {avg:.2}x; {over2}/{} cases above 2x",
        speedups.len()
    );
    println!("(paper: 1.14–32.7x, average 6.54x, 19/28 cases above 2x)");
    trace.export();
}
