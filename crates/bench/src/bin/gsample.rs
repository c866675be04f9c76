//! `gsample` — a small CLI over the library: run any of the seven
//! evaluated algorithms on a dataset preset or a user edge-list file and
//! print the epoch report.
//!
//! ```text
//! gsample <algorithm> [options]
//!   algorithm: deepwalk | node2vec | graphsage | ladies | asgcn | pass | shadow
//!   --dataset LJ|PD|PP|FS|tiny   preset graph (default: PD)
//!   --edges FILE                 load a `src dst [w]` edge list instead
//!   --scale F                    preset scale factor (default 1.0)
//!   --batch N                    mini-batch size (default 512)
//!   --device v100|t4|cpu         modeled device (default v100)
//!   --plain                      disable all IR optimizations
//!   --epochs N                   epochs to run (default 1)
//!   --breakdown                  print the per-kernel time breakdown
//!   --dot                        dump the optimized layer programs as DOT
//!   --trace-out FILE             write a Chrome-trace/Perfetto timeline
//!   --metrics-out FILE           write a flat JSON metrics snapshot
//!   --faults SPEC                install a fault-injection schedule
//!                                (grammar: `gsampler_engine::faults`)
//!   --budget MIB                 super-batch planning budget in MiB
//!                                (default 256 when auto-planning)
//!   --no-degrade                 disable fault recovery and the memory
//!                                degradation ladder (fail fast)
//!   --deadline-ms MS             per-epoch wall-clock deadline, for
//!                                every algorithm; an epoch that
//!                                exceeds it stops cooperatively with a
//!                                DeadlineExceeded error (exit 1, trace
//!                                still written)
//! ```
//!
//! With a fault schedule installed the epoch lines
//! are followed by a fault report; an unsatisfiable memory budget under
//! `--no-degrade` is a hard error (exit 1).

use std::sync::Arc;
use std::time::Duration;

use gsampler_algos::Hyper;
use gsampler_bench::{dataset, fmt_time, gsampler_epoch, Algo, TraceOpts};
use gsampler_core::{cancel, CancelToken, DeviceProfile, Graph, OptConfig};
use gsampler_graphs::DatasetKind;

fn usage() -> ! {
    eprintln!("usage: gsample <deepwalk|node2vec|graphsage|ladies|asgcn|pass|shadow> [options]");
    eprintln!("  --dataset LJ|PD|PP|FS|tiny   --edges FILE   --scale F");
    eprintln!("  --batch N   --device v100|t4|cpu   --plain   --epochs N");
    eprintln!("  --trace-out FILE   --metrics-out FILE");
    eprintln!("  --faults SPEC   --budget MIB   --no-degrade");
    eprintln!("  --deadline-ms MS");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let algo = match args[0].to_lowercase().as_str() {
        "deepwalk" => Algo::DeepWalk,
        "node2vec" => Algo::Node2Vec,
        "graphsage" => Algo::GraphSage,
        "ladies" => Algo::Ladies,
        "asgcn" | "as-gcn" => Algo::AsGcn,
        "pass" => Algo::Pass,
        "shadow" => Algo::Shadow,
        other => {
            eprintln!("unknown algorithm: {other}");
            usage();
        }
    };

    let mut kind = DatasetKind::OgbnProducts;
    let mut edges_file: Option<String> = None;
    let mut scale = 1.0f64;
    let mut batch = 512usize;
    let mut device = DeviceProfile::v100();
    let mut plain = false;
    let mut epochs = 1usize;
    let mut breakdown = false;
    let mut dot = false;
    let mut no_degrade = false;
    let mut faults_spec: Option<String> = None;
    let mut budget_mib: Option<f64> = None;
    let mut deadline: Option<Duration> = None;
    let trace = TraceOpts::from_args(&args);
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage();
            })
        };
        match flag.as_str() {
            "--dataset" => {
                kind = match value("--dataset").to_uppercase().as_str() {
                    "LJ" => DatasetKind::LiveJournal,
                    "PD" => DatasetKind::OgbnProducts,
                    "PP" => DatasetKind::OgbnPapers,
                    "FS" => DatasetKind::Friendster,
                    "TINY" => DatasetKind::Tiny,
                    other => {
                        eprintln!("unknown dataset {other}");
                        usage();
                    }
                }
            }
            "--edges" => edges_file = Some(value("--edges")),
            "--scale" => scale = value("--scale").parse().unwrap_or_else(|_| usage()),
            "--batch" => batch = value("--batch").parse().unwrap_or_else(|_| usage()),
            "--epochs" => epochs = value("--epochs").parse().unwrap_or_else(|_| usage()),
            "--device" => {
                device = match value("--device").to_lowercase().as_str() {
                    "v100" => DeviceProfile::v100(),
                    "t4" => DeviceProfile::t4(),
                    "cpu" => DeviceProfile::cpu(),
                    other => {
                        eprintln!("unknown device {other}");
                        usage();
                    }
                }
            }
            "--plain" => plain = true,
            "--breakdown" => breakdown = true,
            "--dot" => dot = true,
            "--no-degrade" => no_degrade = true,
            "--faults" => faults_spec = Some(value("--faults")),
            "--budget" => budget_mib = Some(value("--budget").parse().unwrap_or_else(|_| usage())),
            "--deadline-ms" => {
                let ms = value("--deadline-ms").parse().unwrap_or_else(|_| usage());
                deadline = Some(Duration::from_millis(ms))
            }
            // Parsed before the loop; skip the file path here.
            "--trace-out" | "--metrics-out" => {
                let _ = value(flag);
            }
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }

    let faults_on = faults_spec.is_some();
    if let Some(spec) = faults_spec {
        match gsampler_engine::faults::FaultSpec::parse(&spec) {
            Ok(parsed) => gsampler_engine::faults::install(parsed),
            Err(e) => {
                eprintln!("invalid --faults spec: {e}");
                std::process::exit(2);
            }
        }
    }

    let (graph, seeds): (Arc<Graph>, Vec<u32>) = match edges_file {
        Some(path) => {
            let g = gsampler_graphs::io::load_graph(&path).unwrap_or_else(|e| {
                eprintln!("failed to load {path}: {e}");
                std::process::exit(1);
            });
            let n = g.num_nodes() as u32;
            (Arc::new(g), (0..n).collect())
        }
        None => {
            let d = dataset(kind, scale);
            (Arc::new(d.graph), d.frontiers)
        }
    };
    println!(
        "graph: {} ({} nodes, {} edges, avg degree {:.1}, residency {:?})",
        graph.name,
        graph.num_nodes(),
        graph.num_edges(),
        graph.avg_degree(),
        graph.residency
    );

    let mut h = Hyper::paper();
    h.batch_size = batch;
    h.layers = 2;
    let opt = if plain {
        OptConfig::plain()
    } else {
        OptConfig::all()
    };
    let recovery = if no_degrade {
        gsampler_core::RecoveryPolicy::disabled()
    } else {
        gsampler_core::RecoveryPolicy::default()
    };
    let opts = gsampler_bench::BuildOpts {
        recovery,
        budget_override: budget_mib.map(|mib| mib * (1 << 20) as f64),
        plan_db: None,
    };
    let sampler = gsampler_bench::build_gsampler_with(&graph, algo, &h, device, opt, !plain, opts)
        .unwrap_or_else(|e| {
            if matches!(e, gsampler_core::Error::MemoryBudget(_)) {
                eprintln!("gsample: {e}");
                eprintln!(
                    "gsample: rerun without --no-degrade to stream over-budget batches instead"
                );
            } else {
                eprintln!("compile failed: {e}");
            }
            std::process::exit(1);
        });
    println!(
        "compiled {}: super-batch factor {}, passes: {:?}",
        algo.name(),
        sampler.super_batch_factor(),
        sampler.layers().first().map(|l| (
            l.optimized.report.extract_select_fused,
            l.optimized.report.edge_map_reduce_fused,
            l.optimized.report.preprocessed
        ))
    );

    if dot {
        for (i, layer) in sampler.layers().iter().enumerate() {
            println!(
                "{}",
                layer
                    .optimized
                    .program
                    .to_dot(&format!("{}-layer{}", algo.name(), i))
            );
        }
    }

    for epoch in 0..epochs {
        // The deadline is the token in scope: every window, walk step and
        // kernel dispatch of the epoch polls it.
        let _deadline = deadline.map(|d| cancel::scope(CancelToken::with_deadline(d)));
        let est = gsampler_epoch(&sampler, &graph, algo, &seeds, &h).unwrap_or_else(|e| {
            eprintln!("epoch failed: {e}");
            // The trace is the post-mortem: a deadline miss or fault that
            // kills the epoch must still leave the timeline behind.
            trace.export();
            std::process::exit(1);
        });
        println!(
            "epoch {epoch}: modeled {} over {} batches ({} executed, SM util {:.1}%, peak mem {} KiB)",
            fmt_time(est.seconds),
            est.total_batches,
            est.ran_batches,
            est.sm_utilization * 100.0,
            est.peak_memory / 1024,
        );
        if est.faults.any() {
            println!(
                "epoch {epoch}: faults — {}",
                gsampler_bench::fmt_fault_report(&est.faults)
            );
        }
    }
    if faults_on {
        let i = gsampler_engine::faults::injected();
        println!(
            "fault plane: {} fires (oom={} kernel={} worker_panic={} worker_stall={}) \
             over {} alloc / {} kernel / {} pool sites",
            i.total(),
            i.oom,
            i.kernel,
            i.worker_panic,
            i.worker_stall,
            i.alloc_sites,
            i.kernel_sites,
            i.worker_sites,
        );
    }
    if breakdown {
        println!("\ntop kernels by modeled time:");
        for (name, count, time) in sampler.device().stats().top_kernels(10) {
            println!("  {:<42} x{count:<6} {}", name, fmt_time(time));
        }
    }
    trace.export();
}
