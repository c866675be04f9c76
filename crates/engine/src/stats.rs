//! Execution statistics: modeled time, launches, bytes, SM utilization.
//!
//! Every kernel invocation that flows through the dispatcher is folded
//! into the session totals and the per-kernel-name [`KernelAgg`] aggregates
//! that back the op-level profile reports — a session's stats stay the size
//! of its kernel vocabulary however long it runs. The per-launch log is the
//! obs `kernel` span, when tracing is on.

use std::collections::BTreeMap;

use crate::workload::KernelDesc;
use gsampler_runtime::{ArenaMetrics, PoolMetrics};

/// Per-kernel-name aggregate — one row of the `--profile` breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelAgg {
    /// Number of invocations.
    pub count: u64,
    /// Total modeled device time in seconds.
    pub time: f64,
    /// Total host wall-clock seconds spent emulating.
    pub wall_time: f64,
    /// Total device bytes moved.
    pub bytes: u64,
    /// Total PCIe bytes moved.
    pub bytes_pcie: u64,
    /// Total FLOPs executed.
    pub flops: u64,
    /// Accumulated worker-pool activity across all invocations.
    pub pool: PoolMetrics,
    /// Accumulated scratch-arena activity across all invocations.
    pub arena: ArenaMetrics,
}

impl KernelAgg {
    /// Average pool participants per parallel region of this kernel
    /// (1.0 when the kernel ran sequentially — no regions dispatched).
    pub fn avg_threads(&self) -> f64 {
        self.pool.avg_threads()
    }

    /// Parallel efficiency: busy worker time over occupied capacity, in
    /// `(0, 1]` (1.0 for sequential kernels, which waste no worker time).
    pub fn parallel_efficiency(&self) -> f64 {
        self.pool.efficiency()
    }
}

/// Plan-database counters: one database's totals ([`ExecStats::plan_db`]
/// carries the share of the compile that produced the sampler), also
/// emitted as the obs `plan/cache.*` events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanDbStats {
    /// Lookups served from the database.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Compiled plans inserted (or replaced in place).
    pub inserts: u64,
    /// Entries evicted by the LRU cap.
    pub evictions: u64,
}

impl PlanDbStats {
    /// True when any counter moved.
    pub fn any(&self) -> bool {
        *self != PlanDbStats::default()
    }

    /// Total lookups served.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate over all lookups (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let n = self.lookups();
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }

    /// Fold another counter set into this one.
    pub fn merge(&mut self, other: &PlanDbStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.inserts += other.inserts;
        self.evictions += other.evictions;
    }
}

/// Structured accounting of injected faults and the recovery actions they
/// triggered during one execution session.
///
/// Injected counts come from the fault plane firing (device-OOM on
/// allocation, transient kernel failures at dispatch, worker panics in the
/// pool); recovery counts come from the epoch drivers (retries, super-batch
/// degradation steps, streaming spills, quarantined batches). All zero on a
/// healthy run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Simulated device-OOM faults that fired on allocation.
    pub injected_oom: u64,
    /// Transient kernel faults that fired at dispatch.
    pub injected_kernel: u64,
    /// Worker-pool panics observed at kernel dispatch (injected or real).
    pub worker_panics: u64,
    /// Kernel-level retries performed after transient faults.
    pub kernel_retries: u64,
    /// Mini-batch/super-batch windows re-executed after a failure.
    pub batch_retries: u64,
    /// Degradation-ladder steps taken (factor halvings + streaming mode).
    pub degrade_steps: u64,
    /// Allocations that overflowed the device budget into host-staged
    /// streaming (UVA-style spill).
    pub spill_events: u64,
    /// Total bytes spilled to host-staged streaming.
    pub spilled_bytes: u64,
    /// Mini-batches abandoned after exhausting the recovery policy.
    pub quarantined_batches: u64,
    /// Retry/backoff rungs skipped because the remaining deadline could
    /// not cover the backoff sleep (the request shed instead).
    pub deadline_shed_retries: u64,
}

impl FaultReport {
    /// True when anything at all was injected or recovered from.
    pub fn any(&self) -> bool {
        *self != FaultReport::default()
    }

    /// Fold another report into this one (shard/epoch aggregation).
    pub fn merge(&mut self, other: &FaultReport) {
        self.injected_oom += other.injected_oom;
        self.injected_kernel += other.injected_kernel;
        self.worker_panics += other.worker_panics;
        self.kernel_retries += other.kernel_retries;
        self.batch_retries += other.batch_retries;
        self.degrade_steps += other.degrade_steps;
        self.spill_events += other.spill_events;
        self.spilled_bytes += other.spilled_bytes;
        self.quarantined_batches += other.quarantined_batches;
        self.deadline_shed_retries += other.deadline_shed_retries;
    }
}

/// Aggregated statistics of an execution session.
///
/// `sm_utilization()` is the *time-weighted* average utilization — the
/// quantity paper Table 9 reports per algorithm ("SM %").
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Total modeled device time in seconds.
    pub total_time: f64,
    /// Total host wall-clock seconds spent emulating kernels.
    pub total_wall_time: f64,
    /// Total kernel launches.
    pub kernel_launches: u64,
    /// Total device bytes moved.
    pub total_bytes: u64,
    /// Total PCIe bytes moved.
    pub total_bytes_pcie: u64,
    /// Total FLOPs.
    pub total_flops: u64,
    /// Sum of `time × utilization` (for the weighted average).
    pub util_time_product: f64,
    /// Worker-pool activity accumulated across all kernels.
    pub pool: PoolMetrics,
    /// Scratch-arena activity accumulated across all kernels.
    pub arena: ArenaMetrics,
    /// Per-kernel-name aggregation.
    pub per_kernel: BTreeMap<String, KernelAgg>,
    /// Frontier adjacency lists served from the pinned structure cache —
    /// *observed* per batch at dispatch against the graph's `CachePlan`
    /// membership map, not the planner's prediction. Zero unless a
    /// partially-resident graph was sampled.
    pub cache_hits: u64,
    /// Frontier adjacency lists that missed the pinned set (tail rows,
    /// read over PCIe).
    pub cache_misses: u64,
    /// Injected faults and recovery actions observed this session.
    pub faults: FaultReport,
    /// Plan-database activity attributed to this session (the lookup of
    /// the compile that produced the sampler).
    pub plan_db: PlanDbStats,
}

impl ExecStats {
    /// Record one kernel execution with its modeled time and utilization
    /// (no wall-clock measurement).
    pub fn record(&mut self, desc: KernelDesc, time: f64, utilization: f64) {
        self.record_timed(desc, time, utilization, 0.0);
    }

    /// Record one kernel execution, including the host wall-clock seconds
    /// the emulation took.
    pub fn record_timed(&mut self, desc: KernelDesc, time: f64, utilization: f64, wall_time: f64) {
        self.record_timed_par(
            desc,
            time,
            utilization,
            wall_time,
            PoolMetrics::default(),
            ArenaMetrics::default(),
        );
    }

    /// Record one kernel execution together with the worker-pool and
    /// scratch-arena activity (metric deltas captured around the kernel)
    /// it caused.
    pub fn record_timed_par(
        &mut self,
        desc: KernelDesc,
        time: f64,
        utilization: f64,
        wall_time: f64,
        pool: PoolMetrics,
        arena: ArenaMetrics,
    ) {
        self.total_time += time;
        self.total_wall_time += wall_time;
        self.kernel_launches += desc.launches as u64;
        self.total_bytes += desc.bytes;
        self.total_bytes_pcie += desc.bytes_pcie;
        self.total_flops += desc.flops;
        self.util_time_product += time * utilization;
        self.pool.accumulate(&pool);
        self.arena.accumulate(&arena);
        let agg = self.per_kernel.entry(desc.name).or_default();
        agg.count += 1;
        agg.time += time;
        agg.wall_time += wall_time;
        agg.bytes += desc.bytes;
        agg.bytes_pcie += desc.bytes_pcie;
        agg.flops += desc.flops;
        agg.pool.accumulate(&pool);
        agg.arena.accumulate(&arena);
    }

    /// Observed structure-cache hit rate over frontier adjacency reads,
    /// in `[0, 1]` (0.0 when nothing was counted — device-resident graphs
    /// never consult a plan).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total > 0 {
            self.cache_hits as f64 / total as f64
        } else {
            0.0
        }
    }

    /// Time-weighted average SM utilization in `[0, 1]` (0 when idle).
    pub fn sm_utilization(&self) -> f64 {
        if self.total_time > 0.0 {
            self.util_time_product / self.total_time
        } else {
            0.0
        }
    }

    /// Merge another session's stats into this one (multi-GPU shard
    /// aggregation, epoch roll-ups).
    pub fn merge(&mut self, other: &ExecStats) {
        self.total_time += other.total_time;
        self.total_wall_time += other.total_wall_time;
        self.kernel_launches += other.kernel_launches;
        self.total_bytes += other.total_bytes;
        self.total_bytes_pcie += other.total_bytes_pcie;
        self.total_flops += other.total_flops;
        self.util_time_product += other.util_time_product;
        self.pool.accumulate(&other.pool);
        self.arena.accumulate(&other.arena);
        for (name, a) in &other.per_kernel {
            let agg = self.per_kernel.entry(name.clone()).or_default();
            agg.count += a.count;
            agg.time += a.time;
            agg.wall_time += a.wall_time;
            agg.bytes += a.bytes;
            agg.bytes_pcie += a.bytes_pcie;
            agg.flops += a.flops;
            agg.pool.accumulate(&a.pool);
            agg.arena.accumulate(&a.arena);
        }
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.faults.merge(&other.faults);
        self.plan_db.merge(&other.plan_db);
    }

    /// Kernel names sorted by descending total time — the breakdown view.
    pub fn top_kernels(&self, n: usize) -> Vec<(String, u64, f64)> {
        let mut v: Vec<(String, u64, f64)> = self
            .per_kernel
            .iter()
            .map(|(k, a)| (k.clone(), a.count, a.time))
            .collect();
        v.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
        v.truncate(n);
        v
    }

    /// The full per-kernel profile, sorted by descending modeled time —
    /// what `--profile` prints.
    pub fn profile(&self) -> Vec<(String, KernelAgg)> {
        let mut v: Vec<(String, KernelAgg)> = self
            .per_kernel
            .iter()
            .map(|(k, a)| (k.clone(), *a))
            .collect();
        v.sort_by(|a, b| {
            b.1.time
                .partial_cmp(&a.1.time)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(name: &str) -> KernelDesc {
        KernelDesc::new(name).with_bytes(100, 0).with_flops(10)
    }

    #[test]
    fn record_accumulates() {
        let mut s = ExecStats::default();
        s.record(desc("a"), 1.0, 0.5);
        s.record(desc("a"), 1.0, 1.0);
        s.record(desc("b"), 2.0, 0.25);
        assert_eq!(s.kernel_launches, 3);
        assert_eq!(s.total_bytes, 300);
        assert_eq!(s.total_flops, 30);
        assert!((s.total_time - 4.0).abs() < 1e-12);
        // Weighted util: (1*0.5 + 1*1.0 + 2*0.25) / 4 = 0.5
        assert!((s.sm_utilization() - 0.5).abs() < 1e-12);
        let a = s.per_kernel["a"];
        assert_eq!((a.count, a.time), (2, 2.0));
        assert_eq!(a.bytes, 200);
        assert_eq!(a.flops, 20);
    }

    #[test]
    fn record_timed_tracks_wall_clock() {
        let mut s = ExecStats::default();
        s.record_timed(desc("k"), 1.0, 1.0, 0.25);
        s.record_timed(desc("k"), 1.0, 1.0, 0.5);
        assert!((s.total_wall_time - 0.75).abs() < 1e-12);
        assert!((s.per_kernel["k"].wall_time - 0.75).abs() < 1e-12);
        // Plain `record` contributes zero wall time.
        s.record(desc("k"), 1.0, 1.0);
        assert!((s.total_wall_time - 0.75).abs() < 1e-12);
    }

    #[test]
    fn record_timed_par_aggregates_pool_metrics() {
        let mut s = ExecStats::default();
        let region = PoolMetrics {
            regions: 2,
            threads_sum: 8,
            busy_ns: 900,
            capacity_ns: 1000,
        };
        s.record_timed_par(desc("k"), 1.0, 1.0, 0.1, region, ArenaMetrics::default());
        s.record_timed(desc("k"), 1.0, 1.0, 0.1); // sequential invocation
        let k = s.per_kernel["k"];
        assert_eq!(k.pool.regions, 2);
        assert!((k.avg_threads() - 4.0).abs() < 1e-12);
        assert!((k.parallel_efficiency() - 0.9).abs() < 1e-12);
        assert_eq!(s.pool.regions, 2);
        assert_eq!((s.pool.threads_sum, k.count), (8, 2));
        // Merging carries pool activity along.
        let mut other = ExecStats::default();
        other.record_timed_par(desc("k"), 1.0, 1.0, 0.1, region, ArenaMetrics::default());
        s.merge(&other);
        assert_eq!(s.per_kernel["k"].pool.regions, 4);
        assert_eq!(s.pool.busy_ns, 1800);
        // A kernel with no regions reports the sequential identity.
        let mut seq = ExecStats::default();
        seq.record(desc("s"), 1.0, 1.0);
        assert!((seq.per_kernel["s"].avg_threads() - 1.0).abs() < 1e-12);
        assert!((seq.per_kernel["s"].parallel_efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn record_timed_par_aggregates_arena_metrics() {
        let mut s = ExecStats::default();
        let arena = ArenaMetrics {
            takes: 4,
            hits: 3,
            bytes_reused: 4096,
        };
        s.record_timed_par(desc("k"), 1.0, 1.0, 0.1, PoolMetrics::default(), arena);
        s.record_timed(desc("k"), 1.0, 1.0, 0.1); // no scratch taken
        let k = s.per_kernel["k"];
        assert_eq!(k.arena.takes, 4);
        assert_eq!(k.arena.bytes_reused, 4096);
        assert!((k.arena.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(s.arena.hits, 3);
        assert_eq!((s.arena, k.count), (arena, 2));
        let mut other = ExecStats::default();
        other.record_timed_par(desc("k"), 1.0, 1.0, 0.1, PoolMetrics::default(), arena);
        s.merge(&other);
        assert_eq!(s.per_kernel["k"].arena.takes, 8);
        assert_eq!(s.arena.bytes_reused, 8192);
        // A kernel that took no scratch reports the no-allocation identity.
        let mut seq = ExecStats::default();
        seq.record(desc("s"), 1.0, 1.0);
        assert!((seq.per_kernel["s"].arena.hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_combines_sessions() {
        let mut a = ExecStats::default();
        a.record_timed(desc("x"), 1.0, 1.0, 0.1);
        let mut b = ExecStats::default();
        b.record_timed(desc("x"), 3.0, 0.5, 0.2);
        b.record(desc("y"), 1.0, 1.0);
        a.merge(&b);
        assert_eq!(a.kernel_launches, 3);
        let x = a.per_kernel["x"];
        assert_eq!((x.count, x.time), (2, 4.0));
        assert!((x.wall_time - 0.3).abs() < 1e-12);
        assert_eq!(x.bytes, 200);
        assert!((a.total_wall_time - 0.3).abs() < 1e-12);
    }

    #[test]
    fn merge_into_empty_equals_source() {
        let mut src = ExecStats::default();
        src.record_timed(desc("only"), 2.0, 0.5, 0.1);
        let mut dst = ExecStats::default();
        dst.merge(&src);
        assert_eq!(dst.kernel_launches, src.kernel_launches);
        assert_eq!(dst.total_bytes, src.total_bytes);
        assert_eq!(dst.per_kernel["only"], src.per_kernel["only"]);
        assert_eq!(dst.per_kernel, src.per_kernel);
        assert!((dst.sm_utilization() - src.sm_utilization()).abs() < 1e-12);
    }

    #[test]
    fn top_kernels_sorted() {
        let mut s = ExecStats::default();
        s.record(desc("small"), 0.1, 1.0);
        s.record(desc("big"), 5.0, 1.0);
        s.record(desc("mid"), 1.0, 1.0);
        let top = s.top_kernels(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, "big");
        assert_eq!(top[1].0, "mid");
    }

    #[test]
    fn profile_sorted_with_full_aggregates() {
        let mut s = ExecStats::default();
        s.record(desc("small"), 0.1, 1.0);
        s.record(desc("big"), 5.0, 1.0);
        s.record(desc("big"), 1.0, 1.0);
        let p = s.profile();
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].0, "big");
        assert_eq!(p[0].1.count, 2);
        assert_eq!(p[0].1.bytes, 200);
        assert_eq!(p[1].0, "small");
    }

    #[test]
    fn idle_utilization_is_zero() {
        let s = ExecStats::default();
        assert_eq!(s.sm_utilization(), 0.0);
    }

    #[test]
    fn fault_report_merges_and_detects_activity() {
        let clean = FaultReport::default();
        assert!(!clean.any());
        let mut a = ExecStats::default();
        a.faults.injected_kernel = 2;
        a.faults.kernel_retries = 2;
        let mut b = ExecStats::default();
        b.faults.injected_oom = 1;
        b.faults.degrade_steps = 3;
        b.faults.spilled_bytes = 4096;
        a.merge(&b);
        assert!(a.faults.any());
        assert_eq!(a.faults.injected_kernel, 2);
        assert_eq!(a.faults.injected_oom, 1);
        assert_eq!(a.faults.degrade_steps, 3);
        assert_eq!(a.faults.spilled_bytes, 4096);
    }

    #[test]
    fn cache_counters_merge_and_rate() {
        let mut a = ExecStats::default();
        assert_eq!(a.cache_hit_rate(), 0.0);
        a.cache_hits = 30;
        a.cache_misses = 10;
        assert!((a.cache_hit_rate() - 0.75).abs() < 1e-12);
        let b = ExecStats {
            cache_hits: 10,
            cache_misses: 30,
            ..ExecStats::default()
        };
        a.merge(&b);
        assert_eq!((a.cache_hits, a.cache_misses), (40, 40));
        assert!((a.cache_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_carries_plan_db_counters() {
        let mut a = ExecStats::default();
        a.plan_db.hits = 2;
        a.plan_db.misses = 1;
        let mut b = ExecStats::default();
        b.plan_db.hits = 1;
        b.plan_db.inserts = 3;
        a.merge(&b);
        assert_eq!(a.plan_db.hits, 3);
        assert_eq!(a.plan_db.misses, 1);
        assert_eq!(a.plan_db.inserts, 3);
        assert!(a.plan_db.any());
    }
}
