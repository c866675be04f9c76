//! Execution substrate for gSampler-rs.
//!
//! The paper runs sampling kernels on real GPUs (V100, T4); this crate is
//! the substitution documented in `DESIGN.md`: kernels execute on the CPU
//! (optionally in parallel) while an **analytical device cost model**
//! converts each kernel's *work descriptor* — FLOPs, bytes moved, number of
//! launches, available parallelism — into modeled device time. The effects
//! the paper measures are algorithmic (fused kernels launch less and move
//! fewer bytes; better layouts move fewer bytes; super-batches raise
//! occupancy), so they are exactly the quantities the model is sensitive
//! to.
//!
//! Main pieces:
//!
//! - [`DeviceProfile`]: bandwidth / FLOPS / launch overhead / SM counts for
//!   V100, T4 and a CPU host, plus PCIe parameters for UVA-resident graphs.
//! - [`workload`]: per-operator work descriptors with format-dependent
//!   work factors calibrated against the paper's Table 5.
//! - [`CostModel`]: descriptor → seconds, with an occupancy model that
//!   penalizes under-parallelized kernels (paper Fig. 6).
//! - [`Device`]: a recording session — every kernel executed through it
//!   accumulates modeled time, launches, bytes, memory high-water mark and
//!   SM utilization into [`ExecStats`].

#![warn(missing_docs)]

pub mod cache;
pub mod cost;
pub mod device;
pub mod faults;
pub mod memory;
pub mod stats;
pub mod workload;

pub use cache::{list_bytes, plan_cache, CachePlan};
pub use cost::CostModel;
pub use device::{DeviceProfile, Residency};
pub use faults::{FaultKind, FaultSpec, InjectedCounts};
pub use gsampler_runtime::{
    arena_metrics, pool_metrics, rng, take_scratch, take_scratch_filled, ArenaMetrics, Key,
    PoolError, PoolMetrics, Recycled,
};

/// The older name of [`Key`], kept because `benchmark/src/probes.rs` still
/// seeds its kernel probes with `RngPool::new`.
pub type RngPool = Key;
pub use memory::{MemoryTracker, OomError};
pub use stats::{ExecStats, FaultReport, KernelAgg, PlanDbStats};
pub use workload::{KernelDesc, EDGE_BYTES, UVA_TRANSACTION_FACTOR};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

/// A recording execution session on one device.
///
/// The dispatcher runs a kernel's CPU implementation and charges the
/// analytical cost of its descriptor to the session's [`ExecStats`]
/// ([`Device::charge_timed_par`]). The stats are behind a mutex so parallel
/// drivers can share one device.
pub struct Device {
    profile: DeviceProfile,
    cost: CostModel,
    stats: Mutex<ExecStats>,
    memory: Mutex<MemoryTracker>,
    /// Enforced live-byte ceiling for [`Device::try_alloc`]
    /// (`u64::MAX` = unlimited, the default — budgets are opt-in).
    budget_bytes: AtomicU64,
    /// Streaming degradation: when set, allocations that fail the budget
    /// (or an injected OOM) succeed as host-staged spills charged at PCIe
    /// cost — the modeled analogue of gSampler §4.5's UVA fallback.
    spill: AtomicBool,
}

impl Device {
    /// Create a session for the given profile.
    pub fn new(profile: DeviceProfile) -> Device {
        let cost = CostModel::new(profile.clone());
        Device {
            profile,
            cost,
            stats: Mutex::new(ExecStats::default()),
            memory: Mutex::new(MemoryTracker::default()),
            budget_bytes: AtomicU64::new(u64::MAX),
            spill: AtomicBool::new(false),
        }
    }

    /// The device profile this session models.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// The cost model (for planning passes that price alternatives without
    /// executing them, e.g. data-layout selection).
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Charge a kernel's modeled cost without executing anything (used
    /// when the work already happened inside a fused neighbour kernel).
    pub fn charge(&self, desc: KernelDesc) {
        self.charge_timed_par(desc, 0.0, PoolMetrics::default(), ArenaMetrics::default());
    }

    /// Charge a kernel's modeled cost together with its host wall-clock
    /// seconds and the worker-pool and scratch-arena activity (snapshot
    /// deltas of [`pool_metrics`] / [`arena_metrics`]) its emulation
    /// caused — the dispatcher's entry point. Returns the modeled seconds.
    /// The modeled time — not the wall-clock time — is what experiment
    /// harnesses report as "sampling time": the kernel ran on host silicon
    /// while `desc` describes the device execution.
    pub fn charge_timed_par(
        &self,
        desc: KernelDesc,
        wall_time: f64,
        pool: PoolMetrics,
        arena: ArenaMetrics,
    ) -> f64 {
        let (time, util) = self.cost.time_and_utilization(&desc);
        self.stats
            .lock()
            .record_timed_par(desc, time, util, wall_time, pool, arena);
        time
    }

    /// Record observed structure-cache hit/miss counts (per-batch frontier
    /// membership against the graph's `CachePlan`, counted at dispatch).
    pub fn note_cache(&self, hits: u64, misses: u64) {
        if hits == 0 && misses == 0 {
            return;
        }
        let mut stats = self.stats.lock();
        stats.cache_hits += hits;
        stats.cache_misses += misses;
    }

    /// Register an allocation of `bytes` live device memory.
    pub fn alloc(&self, bytes: usize) {
        self.memory.lock().alloc(bytes);
    }

    /// Set (or with `None` remove) the live-byte budget that
    /// [`Device::try_alloc`] enforces.
    pub fn set_memory_budget(&self, bytes: Option<u64>) {
        self.budget_bytes
            .store(bytes.unwrap_or(u64::MAX), Ordering::SeqCst);
    }

    /// Enter the streaming (spill) degradation mode: from here on,
    /// over-budget and injected-OOM allocations succeed as host-staged
    /// spills charged at PCIe cost. Sticky for the device's life.
    pub fn enter_spill(&self) {
        self.spill.store(true, Ordering::SeqCst);
    }

    /// Whether the device is in streaming (spill) mode.
    pub fn spill_enabled(&self) -> bool {
        self.spill.load(Ordering::SeqCst)
    }

    /// Fallibly register an allocation of `bytes` live device memory.
    ///
    /// Fails when the budget (if any) would be exceeded or when the fault
    /// plane injects a device-OOM for this allocation. In spill mode the
    /// failure is converted into a host-staged allocation instead: the
    /// bytes are still accounted live (they occupy modeled address space),
    /// a `spill::uva` transfer is charged at PCIe cost, and the spill is
    /// recorded in the session's [`FaultReport`].
    pub fn try_alloc(&self, bytes: usize) -> Result<(), OomError> {
        let injected = faults::poll_alloc();
        if injected {
            self.note_faults(|f| f.injected_oom += 1);
        }
        let budget = self.budget_bytes.load(Ordering::SeqCst);
        let failed = if injected {
            Some(OomError {
                requested: bytes as u64,
                live: self.memory.lock().current(),
                budget,
            })
        } else {
            self.memory.lock().try_alloc(bytes, budget).err()
        };
        let Some(oom) = failed else {
            return Ok(());
        };
        if !self.spill_enabled() {
            return Err(oom);
        }
        // Streaming fallback: the value lives host-side, reached over
        // PCIe (gSampler §4.5's UVA story); the run slows down instead of
        // dying.
        self.memory.lock().alloc(bytes);
        self.charge(KernelDesc::new("spill::uva").with_pcie(bytes as u64));
        self.note_faults(|f| {
            f.spill_events += 1;
            f.spilled_bytes += bytes as u64;
        });
        Ok(())
    }

    /// Record fault/recovery accounting into the session's
    /// [`FaultReport`] (used by the recovery layers in `gsampler-core`).
    pub fn note_faults(&self, f: impl FnOnce(&mut FaultReport)) {
        f(&mut self.stats.lock().faults);
    }

    /// Register a free of `bytes` device memory.
    pub fn free(&self, bytes: usize) {
        self.memory.lock().free(bytes);
    }

    /// Snapshot the accumulated execution statistics.
    pub fn stats(&self) -> ExecStats {
        self.stats.lock().clone()
    }

    /// Snapshot the memory tracker.
    pub fn memory(&self) -> MemoryTracker {
        self.memory.lock().clone()
    }

    /// Reset statistics and memory accounting (between epochs/runs).
    /// The memory budget and spill mode are *not* reset: degradation
    /// state is sticky until explicitly lifted.
    pub fn reset(&self) {
        *self.stats.lock() = ExecStats::default();
        *self.memory.lock() = MemoryTracker::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_records_kernel_costs() {
        let dev = Device::new(DeviceProfile::v100());
        let desc = KernelDesc::new("test")
            .with_bytes(1 << 30, 0)
            .with_parallelism(1 << 22);
        let modeled =
            dev.charge_timed_par(desc, 0.5, PoolMetrics::default(), ArenaMetrics::default());
        let stats = dev.stats();
        assert_eq!(stats.kernel_launches, 1);
        assert_eq!((stats.total_time, stats.total_wall_time), (modeled, 0.5));
        // 1 GiB over ~900 GB/s ≈ 1.2 ms.
        assert!(stats.total_time > 1e-4 && stats.total_time < 1e-2);
    }

    #[test]
    fn a_long_session_keeps_one_entry_per_kernel_name() {
        let dev = Device::new(DeviceProfile::v100());
        (0..10_000).for_each(|_| dev.charge(KernelDesc::new("k").with_flops(10)));
        let stats = dev.stats();
        assert_eq!(stats.kernel_launches, 10_000);
        assert_eq!(stats.per_kernel.len(), 1);
        assert_eq!(stats.per_kernel["k"].count, 10_000);
    }

    #[test]
    fn reset_clears_stats() {
        let dev = Device::new(DeviceProfile::t4());
        dev.charge(KernelDesc::new("x").with_flops(1_000_000_000));
        assert!(dev.stats().total_time > 0.0);
        dev.reset();
        assert_eq!(dev.stats().kernel_launches, 0);
        assert_eq!(dev.stats().total_time, 0.0);
    }

    #[test]
    fn note_cache_accumulates_into_stats() {
        let dev = Device::new(DeviceProfile::v100());
        dev.note_cache(3, 1);
        dev.note_cache(0, 0); // no-op
        dev.note_cache(1, 3);
        let s = dev.stats();
        assert_eq!((s.cache_hits, s.cache_misses), (4, 4));
        assert!((s.cache_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn memory_accounting() {
        let dev = Device::new(DeviceProfile::v100());
        dev.alloc(1000);
        dev.alloc(500);
        dev.free(1000);
        dev.alloc(200);
        let mem = dev.memory();
        assert_eq!(mem.current(), 700);
        assert_eq!(mem.peak(), 1500);
    }

    #[test]
    fn try_alloc_without_budget_always_succeeds() {
        let dev = Device::new(DeviceProfile::v100());
        assert!(dev.try_alloc(usize::MAX / 2).is_ok());
    }

    #[test]
    fn try_alloc_enforces_budget_and_spills_when_degraded() {
        let dev = Device::new(DeviceProfile::v100());
        dev.set_memory_budget(Some(1000));
        assert!(dev.try_alloc(800).is_ok());
        let err = dev.try_alloc(500).unwrap_err();
        assert_eq!(err.live, 800);
        assert_eq!(err.budget, 1000);
        assert_eq!(dev.stats().faults, FaultReport::default());
        // Streaming mode turns the same failure into a PCIe-charged spill.
        dev.enter_spill();
        assert!(dev.try_alloc(500).is_ok());
        let stats = dev.stats();
        assert_eq!(stats.faults.spill_events, 1);
        assert_eq!(stats.faults.spilled_bytes, 500);
        assert_eq!(stats.total_bytes_pcie, 500);
        assert!(stats.per_kernel.contains_key("spill::uva"));
        assert_eq!(dev.memory().current(), 1300);
    }

    // Fault-plane integration tests are serialized: the plane is global.
    fn faults_serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn injected_oom_fails_try_alloc_then_spills() {
        let _guard = faults_serial();
        faults::install(FaultSpec::parse("oom:every=1,count=2").unwrap());
        let dev = Device::new(DeviceProfile::v100());
        // No budget at all — the injected fault alone must fail the call.
        assert!(dev.try_alloc(64).is_err());
        assert_eq!(dev.stats().faults.injected_oom, 1);
        dev.enter_spill();
        assert!(dev.try_alloc(64).is_ok());
        let stats = dev.stats();
        assert_eq!(stats.faults.injected_oom, 2);
        assert_eq!(stats.faults.spill_events, 1);
        // Schedule exhausted: allocation works normally again.
        assert!(dev.try_alloc(64).is_ok());
        assert_eq!(faults::injected().oom, 2);
        assert_eq!(faults::injected().alloc_sites, 3);
        faults::clear();
    }
}
