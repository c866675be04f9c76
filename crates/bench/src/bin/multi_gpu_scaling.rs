//! Extension experiment (paper §7, future work): multi-GPU sampling
//! scaling. GraphSAGE and LADIES epochs sharded across 1/2/4/8 modeled
//! V100s, on a device-resident graph (PD) and a UVA host-resident one
//! (PP).
//!
//! Expected shape: near-linear scaling when the graph lives in device
//! memory; clearly sub-linear under UVA, where every GPU contends for the
//! single host interconnect. The bin asserts it at 4 GPUs for both
//! algorithms — PD's speedup at least 3.0x, PP's at most 0.75x of PD's —
//! and exits 1 otherwise. Below `GS_SCALE=0.3` PD has too few mini-batches
//! to fill a fleet and the verdict is not expected to hold.

use std::sync::Arc;

use gsampler_algos::Hyper;
use gsampler_bench::{dataset, env_scale, fmt_time, print_table, Algo};
use gsampler_core::multi_gpu::MultiGpuSampler;
use gsampler_core::{Bindings, OptConfig, SamplerConfig};
use gsampler_graphs::DatasetKind;

fn main() {
    let scale = env_scale();
    let mut h = Hyper::paper();
    h.layers = 2;

    // 4-GPU speedup per (dataset, algorithm), for the verdict.
    let mut at4 = Vec::new();
    for kind in [DatasetKind::OgbnProducts, DatasetKind::OgbnPapers] {
        let d = dataset(kind, scale);
        let graph = Arc::new(d.graph);
        // Bounded epoch for the harness: 16 batches worth of seeds.
        let seeds: Vec<u32> = d
            .frontiers
            .iter()
            .copied()
            .take(16 * h.batch_size)
            .collect();
        let mut rows = Vec::new();
        for algo in [Algo::GraphSage, Algo::Ladies] {
            let mut row = vec![algo.name().to_string()];
            let mut base = None;
            for gpus in [1usize, 2, 4, 8] {
                let fleet = MultiGpuSampler::compile(
                    graph.clone(),
                    algo.layers(&h),
                    SamplerConfig {
                        opt: OptConfig::all().with_super_batch(4),
                        batch_size: h.batch_size,
                        ..SamplerConfig::new()
                    },
                    gpus,
                )
                .expect("compile fleet");
                let report = fleet.run_epoch(&seeds, &Bindings::new(), 0).expect("epoch");
                let t = report.modeled_time;
                let speedup = *base.get_or_insert(t) / t;
                row.push(format!("{} ({speedup:.2}x)", fmt_time(t)));
                if gpus == 4 {
                    at4.push(speedup);
                }
            }
            rows.push(row);
        }
        print_table(
            &format!(
                "Multi-GPU scaling on {} ({:?})",
                kind.abbr(),
                graph.residency
            ),
            &["algorithm", "1 GPU", "2 GPUs", "4 GPUs", "8 GPUs"],
            &rows,
        );
    }
    println!("\nExpected shape: near-linear on device-resident PD; sub-linear on");
    println!("UVA-resident PP (PCIe contention) — the paper's future-work tradeoff.");
    // `at4` is [PD sage, PD ladies, PP sage, PP ladies].
    let mut ok = true;
    for (i, algo) in [Algo::GraphSage, Algo::Ladies].iter().enumerate() {
        let (pd, pp) = (at4[i], at4[i + 2]);
        let holds = pd >= 3.0 && pp <= 0.75 * pd;
        println!(
            "verdict {}: PD {pd:.2}x (>= 3.00x), PP {pp:.2}x (<= {:.2}x): {}",
            algo.name(),
            0.75 * pd,
            if holds { "ok" } else { "FAIL" }
        );
        ok &= holds;
    }
    if !ok {
        std::process::exit(1);
    }
}
