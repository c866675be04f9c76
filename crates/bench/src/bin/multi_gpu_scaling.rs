//! Extension experiment (paper §7, future work): multi-GPU sampling
//! scaling. GraphSAGE and LADIES epochs sharded across 1/2/4/8 modeled
//! V100s, on a device-resident graph (PD) and a UVA host-resident one
//! (PP); the experiment is [`gsampler_bench::MultiGpuScaling`].
//!
//! Expected shape: near-linear scaling when the graph lives in device
//! memory; clearly sub-linear under UVA, where every GPU contends for the
//! single host interconnect. The bin prints the verdict at 4 GPUs for both
//! algorithms — PD's speedup at least 3.0x, PP's at most 0.75x of PD's —
//! and exits 1 if it fails. Below `GS_SCALE=0.3` PD has too few
//! mini-batches to fill a fleet and the verdict is not expected to hold.

use gsampler_bench::{env_scale, fmt_time, print_table, MultiGpuScaling};

fn main() {
    let scaling = MultiGpuScaling::run(env_scale()).expect("multi-GPU epochs");
    for pair in scaling.rows.chunks(2) {
        let (kind, residency, ..) = pair[0];
        let rows: Vec<Vec<String>> = pair
            .iter()
            .map(|(.., algo, seconds)| {
                let cells = seconds
                    .iter()
                    .map(|&t| format!("{} ({:.2}x)", fmt_time(t), seconds[0] / t));
                std::iter::once(algo.name().to_string())
                    .chain(cells)
                    .collect()
            })
            .collect();
        print_table(
            &format!("Multi-GPU scaling on {} ({residency:?})", kind.abbr()),
            &["algorithm", "1 GPU", "2 GPUs", "4 GPUs", "8 GPUs"],
            &rows,
        );
    }
    println!("\nExpected shape: near-linear on device-resident PD; sub-linear on");
    println!("UVA-resident PP (PCIe contention) — the paper's future-work tradeoff.");
    let mut ok = true;
    for v in scaling.verdicts() {
        println!(
            "verdict {}: PD {:.2}x (>= 3.00x), PP {:.2}x (<= {:.2}x): {}",
            v.algo.name(),
            v.pd,
            v.pp,
            0.75 * v.pd,
            if v.holds() { "ok" } else { "FAIL" }
        );
        ok &= v.holds();
    }
    if !ok {
        std::process::exit(1);
    }
}
