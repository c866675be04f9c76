//! The metric tables: every name the benchmark may print, its unit, and
//! the workloads it is defined on. `BENCHMARK.json` lists the same names;
//! `--check-manifest` compares the two.

use std::collections::BTreeMap;

/// Workload bit masks for [`Metric::on`].
pub const SAGE: u8 = 1;
pub const LADIES: u8 = 2;
pub const PASS: u8 = 4;
pub const SERVE: u8 = 8;
pub const WALK: u8 = 16;
pub const COMPILE: u8 = 32;
pub const EPOCH: u8 = SAGE | LADIES | PASS | WALK;
pub const ALL: u8 = EPOCH | SERVE | COMPILE;

/// Workload names in mask-bit order.
pub const WORKLOADS: [&str; 6] = [
    "sage_lj",
    "ladies_pp",
    "pass_pd",
    "serve_burst_lj",
    "deepwalk_lj",
    "compile_sweep",
];

/// How many of [`WORKLOADS`], from the front, `BENCHMARK.json` lists. The
/// acceptance pipeline's time limit pays for four workloads at a run
/// length that outlasts the host's disturbed phases, not for six; the
/// rest run from `run.sh` only (README, "Workloads").
pub const GATED: usize = 4;

/// The mask bit of a workload name.
pub fn mask_of(workload: &str) -> Option<u8> {
    WORKLOADS
        .iter()
        .position(|w| *w == workload)
        .map(|i| 1u8 << i)
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Workloads the metric is defined on; elsewhere it reads 0.
    pub on: u8,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str, on: u8) -> Metric {
    Metric {
        name,
        unit,
        better,
        on,
    }
}

/// End-to-end metrics, reported by the untraced run of every workload.
pub const END_TO_END: [Metric; 4] = [
    m("unit_ms", "ms", "lower", ALL),
    m("work_per_s", "1/s", "higher", ALL),
    m("peak_rss_mb", "MiB", "lower", ALL),
    m("setup_s", "s", "lower", ALL),
];

/// The dispatcher kernels that get their own `core.kernel.<k>.*` pair;
/// anything else the profile names lands in `other`.
pub const KERNELS: [&str; 13] = [
    "fused_extract_select",
    "slice_cols",
    "individual_sample",
    "collective_sample",
    "compact",
    "fused_edge_map_reduce",
    "vector_op",
    "broadcast",
    "reduce",
    "eltwise",
    "sddmm",
    "gemm",
    "dense_map",
];

const KERNEL_ON: u8 = EPOCH | SERVE;

/// Per-layer metrics, reported by the traced run. Layer = crate.
pub const PER_LAYER: &[Metric] = &[
    // bench: qualifies the run, moves nothing.
    m("bench.units", "count", "higher", ALL),
    m("bench.unit_median_ms", "ms", "lower", ALL),
    m("bench.unit_q1_ms", "ms", "lower", ALL),
    m("bench.unit_q3_ms", "ms", "lower", ALL),
    m("bench.unit_tail_ms", "ms", "lower", ALL),
    m("bench.unit_iqr_frac", "ratio", "lower", ALL),
    m("bench.runq_wait_frac", "ratio", "lower", ALL),
    m("bench.invol_ctxsw", "count", "lower", ALL),
    m("bench.traced_unit_ms", "ms", "lower", ALL),
    m("bench.checks", "count", "higher", ALL),
    m("bench.checks_failed", "count", "lower", ALL),
    // graphs
    m("graphs.generate_s", "s", "lower", ALL),
    m("graphs.nodes", "count", "lower", ALL),
    m("graphs.edges", "count", "lower", ALL),
    m("graphs.structure_mb", "MiB", "lower", ALL),
    // ir
    m("ir.run_passes_us", "us", "lower", ALL),
    m("ir.ops_before", "count", "lower", ALL),
    m("ir.ops_after", "count", "lower", ALL),
    m("ir.fused_extract_select", "count", "higher", ALL),
    m("ir.fused_edge_map_reduce", "count", "higher", ALL),
    m("ir.preprocessed_ops", "count", "higher", ALL),
    // engine
    m("engine.modeled_ms", "ms", "lower", EPOCH),
    m("engine.kernel_launches", "count", "lower", EPOCH),
    m("engine.bytes_mb", "MiB", "lower", EPOCH),
    m("engine.pcie_mb", "MiB", "lower", EPOCH),
    m("engine.sm_utilization", "ratio", "higher", EPOCH),
    m("engine.device_peak_mb", "MiB", "lower", EPOCH),
    m("engine.cache.hit_planned", "ratio", "higher", EPOCH),
    m("engine.cache.hit_observed", "ratio", "higher", EPOCH),
    m("engine.model_residual", "ratio", "lower", EPOCH),
    m("engine.plandb.hits", "count", "higher", ALL),
    m("engine.plandb.misses", "count", "lower", ALL),
    m("engine.plandb.hit_rate", "ratio", "higher", ALL),
    // core
    m("core.compile_cold_us", "us", "lower", EPOCH | COMPILE),
    m("core.compile_warm_us", "us", "lower", EPOCH | COMPILE),
    m("core.super_batch_factor", "count", "higher", EPOCH),
    m("core.batches_per_unit", "count", "lower", EPOCH),
    m("core.windows_per_unit", "count", "lower", EPOCH),
    m("core.kernel_wall_ms", "ms", "lower", KERNEL_ON),
    m("core.nonkernel_ms", "ms", "lower", KERNEL_ON),
    m("core.nonkernel_share", "ratio", "lower", KERNEL_ON),
    m("core.faults.retries", "count", "lower", EPOCH),
    m("core.faults.degrade_steps", "count", "lower", EPOCH),
    m("core.faults.quarantined", "count", "lower", EPOCH),
    m(
        "core.kernel.fused_extract_select.ms",
        "ms",
        "lower",
        KERNEL_ON,
    ),
    m(
        "core.kernel.fused_extract_select.calls",
        "count",
        "lower",
        KERNEL_ON,
    ),
    m("core.kernel.slice_cols.ms", "ms", "lower", KERNEL_ON),
    m("core.kernel.slice_cols.calls", "count", "lower", KERNEL_ON),
    m("core.kernel.individual_sample.ms", "ms", "lower", KERNEL_ON),
    m(
        "core.kernel.individual_sample.calls",
        "count",
        "lower",
        KERNEL_ON,
    ),
    m("core.kernel.collective_sample.ms", "ms", "lower", KERNEL_ON),
    m(
        "core.kernel.collective_sample.calls",
        "count",
        "lower",
        KERNEL_ON,
    ),
    m("core.kernel.compact.ms", "ms", "lower", KERNEL_ON),
    m("core.kernel.compact.calls", "count", "lower", KERNEL_ON),
    m(
        "core.kernel.fused_edge_map_reduce.ms",
        "ms",
        "lower",
        KERNEL_ON,
    ),
    m(
        "core.kernel.fused_edge_map_reduce.calls",
        "count",
        "lower",
        KERNEL_ON,
    ),
    m("core.kernel.vector_op.ms", "ms", "lower", KERNEL_ON),
    m("core.kernel.vector_op.calls", "count", "lower", KERNEL_ON),
    m("core.kernel.broadcast.ms", "ms", "lower", KERNEL_ON),
    m("core.kernel.broadcast.calls", "count", "lower", KERNEL_ON),
    m("core.kernel.reduce.ms", "ms", "lower", KERNEL_ON),
    m("core.kernel.reduce.calls", "count", "lower", KERNEL_ON),
    m("core.kernel.eltwise.ms", "ms", "lower", KERNEL_ON),
    m("core.kernel.eltwise.calls", "count", "lower", KERNEL_ON),
    m("core.kernel.sddmm.ms", "ms", "lower", KERNEL_ON),
    m("core.kernel.sddmm.calls", "count", "lower", KERNEL_ON),
    m("core.kernel.gemm.ms", "ms", "lower", KERNEL_ON),
    m("core.kernel.gemm.calls", "count", "lower", KERNEL_ON),
    m("core.kernel.dense_map.ms", "ms", "lower", KERNEL_ON),
    m("core.kernel.dense_map.calls", "count", "lower", KERNEL_ON),
    m("core.kernel.other.ms", "ms", "lower", KERNEL_ON),
    m("core.kernel.other.calls", "count", "lower", KERNEL_ON),
    // matrix microprobes
    m("matrix.slice_cols_us", "us", "lower", ALL),
    m("matrix.individual_sample_us", "us", "lower", ALL),
    m("matrix.collective_sample_us", "us", "lower", ALL),
    m("matrix.compact_rows_us", "us", "lower", ALL),
    m("matrix.spmm_us", "us", "lower", ALL),
    m("matrix.sddmm_us", "us", "lower", ALL),
    m("matrix.gemm_us", "us", "lower", ALL),
    m("matrix.csc_to_csr_us", "us", "lower", ALL),
    // runtime
    m("runtime.threads", "count", "higher", ALL),
    m("runtime.pool.regions", "count", "lower", ALL),
    m("runtime.pool.avg_threads", "count", "higher", ALL),
    m("runtime.pool.efficiency", "ratio", "higher", ALL),
    m("runtime.pool.dispatch_us", "us", "lower", ALL),
    m("runtime.pool.speedup_t2", "ratio", "higher", ALL),
    m("runtime.arena.takes", "count", "lower", ALL),
    m("runtime.arena.hit_rate", "ratio", "higher", ALL),
    m("runtime.arena.reused_mb", "MiB", "higher", ALL),
    // algos
    m("algos.walk.steps_per_unit", "count", "lower", WALK),
    m("algos.driver_self_ms", "ms", "lower", WALK),
    // serve
    m("serve.req_p50_ms", "ms", "lower", SERVE),
    m("serve.req_p99_ms", "ms", "lower", SERVE),
    m("serve.first_reply_ms", "ms", "lower", SERVE),
    m("serve.submit_us", "us", "lower", SERVE),
    m("serve.register_ms", "ms", "lower", SERVE),
    m("serve.batched_fraction", "ratio", "higher", SERVE),
    m("serve.pack_size_mean", "count", "higher", SERVE),
    m("serve.plandb_hit_rate", "ratio", "higher", SERVE),
    m("serve.admission_peak_mb", "MiB", "lower", SERVE),
    m("serve.admission_reserved_end", "count", "lower", SERVE),
    m("serve.failed", "count", "lower", SERVE),
    m("serve.shed", "count", "lower", SERVE),
    m("serve.deadline_missed", "count", "lower", SERVE),
    m("serve.backpressure_retries", "count", "lower", SERVE),
    // obs
    m("obs.trace_overhead_frac", "ratio", "lower", ALL),
    m("obs.events", "count", "lower", ALL),
    m("obs.trace_mb", "MiB", "lower", ALL),
    m("obs.layer_sum_frac", "ratio", "lower", ALL),
];

/// Metric values collected during one run, checked against a table at
/// report time.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Resolve against `table` for `workload`: every metric defined on the
    /// workload must have been set to a finite value, nothing outside the
    /// table may have been set, and metrics not defined on the workload
    /// read 0. Returns `(name, value, unit)` rows in table order.
    pub fn resolve(
        &self,
        table: &[Metric],
        workload: &str,
    ) -> Result<Vec<(String, f64, &'static str)>, String> {
        let mask = mask_of(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
        let mut problems = Vec::new();
        for name in self.0.keys() {
            if !table.iter().any(|m| m.name == name) {
                problems.push(format!("{name} is not in the metric table"));
            }
        }
        let mut rows = Vec::with_capacity(table.len());
        for metric in table {
            let value = match (metric.on & mask != 0, self.get(metric.name)) {
                (true, Some(v)) if v.is_finite() => v,
                (true, Some(v)) => {
                    problems.push(format!("{} is not finite ({v})", metric.name));
                    0.0
                }
                (true, None) => {
                    problems.push(format!("{} is missing", metric.name));
                    0.0
                }
                (false, Some(_)) => {
                    problems.push(format!("{} is not defined on {workload}", metric.name));
                    0.0
                }
                (false, None) => 0.0,
            };
            rows.push((metric.name.to_string(), value, metric.unit));
        }
        if problems.is_empty() {
            Ok(rows)
        } else {
            Err(problems.join("; "))
        }
    }
}

/// True if `name` stays inside the alphabet the benchmark contract allows.
pub fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
