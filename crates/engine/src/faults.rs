//! Seeded, deterministic fault-injection plane (chaos engineering for the
//! modeled GPU).
//!
//! A [`FaultSpec`] — usually parsed from the `GSAMPLER_FAULTS` environment
//! variable — describes *which* simulated faults fire *where*:
//!
//! ```text
//! GSAMPLER_FAULTS="seed=7;kernel:at=3;oom:at=12;worker-panic:at=1;worker-stall:every=5,count=2,ms=3"
//! ```
//!
//! Grammar: `;`-separated entries. `seed=N` seeds the probabilistic rules;
//! every other entry is `kind[:param,param,...]` with kinds
//!
//! - `oom` — a device-OOM on the next matching [`Device::try_alloc`]
//!   (executor allocations),
//! - `kernel` — a transient kernel failure at dispatch,
//! - `worker-panic` (alias `worker`) — a panic inside a pool worker's
//!   participant share,
//! - `worker-stall` (alias `stall`) — a worker-side delay of `ms`
//!   milliseconds (default 2) that must **not** fail the region,
//!
//! and params `at=N` (fire at the N-th occurrence of the site, 1-based),
//! `every=N` (every N-th occurrence), `p=F` (probability per occurrence,
//! decided by a *deterministic* hash of `(seed, site, occurrence)` — no
//! clock, no OS RNG), `count=N` (cap on fires; defaults to 1 for `at`,
//! unlimited otherwise) and `ms=N` (stall length).
//!
//! Determinism contract: the executor visits fault sites in a
//! program-defined order (allocations and dispatches are sequential;
//! worker faults are decided by the *dispatching* thread in dispatch
//! order), so for a fixed program + seed + spec the same occurrences fire
//! on every run — which is what lets the chaos oracle demand bit-identical
//! output fingerprints across reruns of one schedule.
//!
//! Every fire is recorded in the global [`InjectedCounts`] and emitted as
//! a `fault/*` trace event through `gsampler-obs`.
//!
//! [`Device::try_alloc`]: crate::Device::try_alloc

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use gsampler_runtime::WorkerFault;

/// What a fired fault simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Device allocation failure.
    DeviceOom,
    /// Transient kernel failure at dispatch (succeeds when retried).
    KernelTransient,
    /// Panic inside a pool worker.
    WorkerPanic,
    /// Stall inside a pool worker (delays, does not fail).
    WorkerStall,
}

impl FaultKind {
    fn site(self) -> Site {
        match self {
            FaultKind::DeviceOom => Site::Alloc,
            FaultKind::KernelTransient => Site::Kernel,
            FaultKind::WorkerPanic | FaultKind::WorkerStall => Site::Worker,
        }
    }

    fn event_name(self) -> &'static str {
        match self {
            FaultKind::DeviceOom => "oom",
            FaultKind::KernelTransient => "kernel",
            FaultKind::WorkerPanic => "worker.panic",
            FaultKind::WorkerStall => "worker.stall",
        }
    }
}

/// A class of fault site, each with its own occurrence counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Site {
    /// Executor allocations (`Device::try_alloc`).
    Alloc,
    /// Kernel dispatches.
    Kernel,
    /// Worker-pool region dispatches.
    Worker,
}

const SITES: usize = 3;

/// One parsed injection rule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Fault to inject.
    pub kind: FaultKind,
    /// Fire at exactly this (1-based) site occurrence.
    pub at: Option<u64>,
    /// Fire at every N-th site occurrence.
    pub every: Option<u64>,
    /// Fire with this probability per occurrence (deterministic hash).
    pub p: Option<f64>,
    /// Maximum number of fires.
    pub count: u64,
    /// Stall length for [`FaultKind::WorkerStall`].
    pub stall_ms: u64,
}

impl FaultRule {
    fn fires_at(&self, seed: u64, occurrence: u64, rule_idx: usize) -> bool {
        if let Some(at) = self.at {
            return occurrence == at;
        }
        if let Some(every) = self.every {
            return every > 0 && occurrence.is_multiple_of(every);
        }
        if let Some(p) = self.p {
            let h = splitmix64(
                seed ^ (self.kind.site() as u64).wrapping_shl(32)
                    ^ (rule_idx as u64).wrapping_shl(48)
                    ^ occurrence,
            );
            return (h as f64 / u64::MAX as f64) < p;
        }
        // A bare kind defaults to "the first occurrence".
        occurrence == 1
    }
}

/// A complete fault schedule: a seed plus a list of rules.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSpec {
    /// Seed for probabilistic (`p=`) rules.
    pub seed: u64,
    /// Injection rules, applied in order (first match fires).
    pub rules: Vec<FaultRule>,
}

impl FaultSpec {
    /// Parse the `GSAMPLER_FAULTS` grammar (see module docs).
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        let mut out = FaultSpec::default();
        for entry in spec.split(';') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            if let Some(seed) = entry.strip_prefix("seed=") {
                out.seed = seed
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad seed in fault spec: {entry:?}"))?;
                continue;
            }
            let (kind_str, params) = match entry.split_once(':') {
                Some((k, p)) => (k.trim(), p),
                None => (entry, ""),
            };
            let (kind, default_ms) = match kind_str {
                "oom" => (FaultKind::DeviceOom, 0),
                "kernel" => (FaultKind::KernelTransient, 0),
                "worker-panic" | "worker" => (FaultKind::WorkerPanic, 0),
                "worker-stall" | "stall" => (FaultKind::WorkerStall, 2),
                other => return Err(format!("unknown fault kind: {other:?}")),
            };
            let mut rule = FaultRule {
                kind,
                at: None,
                every: None,
                p: None,
                count: 0, // resolved below
                stall_ms: default_ms,
            };
            let mut count: Option<u64> = None;
            for param in params.split(',') {
                let param = param.trim();
                if param.is_empty() {
                    continue;
                }
                let (key, value) = param
                    .split_once('=')
                    .ok_or_else(|| format!("bad fault param (want key=value): {param:?}"))?;
                let value = value.trim();
                match key.trim() {
                    "at" => rule.at = Some(parse_u64(value, param)?),
                    "every" => rule.every = Some(parse_u64(value, param)?),
                    "count" => count = Some(parse_u64(value, param)?),
                    "ms" => rule.stall_ms = parse_u64(value, param)?,
                    "p" => {
                        let p: f64 = value
                            .parse()
                            .map_err(|_| format!("bad probability: {param:?}"))?;
                        if !(0.0..=1.0).contains(&p) {
                            return Err(format!("probability out of [0,1]: {param:?}"));
                        }
                        rule.p = Some(p);
                    }
                    other => return Err(format!("unknown fault param: {other:?}")),
                }
            }
            if rule.at.is_some() && rule.every.is_some() {
                return Err(format!("fault rule mixes at= and every=: {entry:?}"));
            }
            // `at` rules fire once unless told otherwise; recurring rules
            // default to unlimited fires.
            rule.count = count.unwrap_or(if rule.every.is_some() || rule.p.is_some() {
                u64::MAX
            } else {
                1
            });
            out.rules.push(rule);
        }
        Ok(out)
    }
}

fn parse_u64(value: &str, ctx: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("bad integer in fault param: {ctx:?}"))
}

/// SplitMix64 finalizer — the deterministic coin for `p=` rules.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// How often each fault kind actually fired since the plane was installed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedCounts {
    /// Device-OOM fires.
    pub oom: u64,
    /// Transient kernel fires.
    pub kernel: u64,
    /// Worker panic fires.
    pub worker_panic: u64,
    /// Worker stall fires.
    pub worker_stall: u64,
    /// Site occurrences seen: allocations polled.
    pub alloc_sites: u64,
    /// Site occurrences seen: kernel dispatches polled.
    pub kernel_sites: u64,
    /// Site occurrences seen: pool regions polled.
    pub worker_sites: u64,
}

impl InjectedCounts {
    /// Total fires across all kinds.
    pub fn total(&self) -> u64 {
        self.oom + self.kernel + self.worker_panic + self.worker_stall
    }
}

struct Plane {
    spec: FaultSpec,
    site_occurrences: [AtomicU64; SITES],
    fired: Vec<AtomicU64>,
    oom: AtomicU64,
    kernel: AtomicU64,
    worker_panic: AtomicU64,
    worker_stall: AtomicU64,
}

impl Plane {
    fn new(spec: FaultSpec) -> Plane {
        let fired = spec.rules.iter().map(|_| AtomicU64::new(0)).collect();
        Plane {
            spec,
            site_occurrences: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            fired,
            oom: AtomicU64::new(0),
            kernel: AtomicU64::new(0),
            worker_panic: AtomicU64::new(0),
            worker_stall: AtomicU64::new(0),
        }
    }

    /// Count one occurrence of `site` and return the kind that fires
    /// there, if any (first matching rule wins).
    fn poll(&self, site: Site) -> Option<(FaultKind, u64)> {
        let occurrence = self.site_occurrences[site as usize].fetch_add(1, Ordering::SeqCst) + 1;
        for (idx, rule) in self.spec.rules.iter().enumerate() {
            if rule.kind.site() != site {
                continue;
            }
            if !rule.fires_at(self.spec.seed, occurrence, idx) {
                continue;
            }
            // Enforce the per-rule fire cap without double counting under
            // concurrent polls.
            let prev = self.fired[idx].fetch_add(1, Ordering::SeqCst);
            if prev >= rule.count {
                self.fired[idx].fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            let counter = match rule.kind {
                FaultKind::DeviceOom => &self.oom,
                FaultKind::KernelTransient => &self.kernel,
                FaultKind::WorkerPanic => &self.worker_panic,
                FaultKind::WorkerStall => &self.worker_stall,
            };
            counter.fetch_add(1, Ordering::SeqCst);
            gsampler_obs::event(
                "fault",
                rule.kind.event_name(),
                &[
                    ("occurrence", gsampler_obs::Arg::from(occurrence as f64)),
                    ("rule", gsampler_obs::Arg::from(idx as f64)),
                ],
            );
            return Some((rule.kind, rule.stall_ms));
        }
        None
    }

    fn injected(&self) -> InjectedCounts {
        InjectedCounts {
            oom: self.oom.load(Ordering::SeqCst),
            kernel: self.kernel.load(Ordering::SeqCst),
            worker_panic: self.worker_panic.load(Ordering::SeqCst),
            worker_stall: self.worker_stall.load(Ordering::SeqCst),
            alloc_sites: self.site_occurrences[Site::Alloc as usize].load(Ordering::SeqCst),
            kernel_sites: self.site_occurrences[Site::Kernel as usize].load(Ordering::SeqCst),
            worker_sites: self.site_occurrences[Site::Worker as usize].load(Ordering::SeqCst),
        }
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static PLANE: OnceLock<Mutex<Option<Arc<Plane>>>> = OnceLock::new();

fn plane_slot() -> &'static Mutex<Option<Arc<Plane>>> {
    PLANE.get_or_init(|| Mutex::new(None))
}

fn current_plane() -> Option<Arc<Plane>> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    plane_slot()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clone()
}

/// Install a fault schedule globally, resetting all site/fire counters,
/// and hook the worker pool so `worker-*` rules reach it. Replaces any
/// previously installed schedule.
pub fn install(spec: FaultSpec) {
    let plane = Arc::new(Plane::new(spec));
    {
        let mut slot = plane_slot().lock().unwrap_or_else(|p| p.into_inner());
        *slot = Some(Arc::clone(&plane));
    }
    ACTIVE.store(true, Ordering::SeqCst);
    let hooked = Arc::clone(&plane);
    gsampler_runtime::set_worker_fault_hook(Some(Arc::new(move || {
        match hooked.poll(Site::Worker) {
            Some((FaultKind::WorkerPanic, _)) => Some(WorkerFault::Panic),
            Some((FaultKind::WorkerStall, ms)) => Some(WorkerFault::Stall { ms }),
            _ => None,
        }
    })));
}

/// Parse and install `GSAMPLER_FAULTS` if set and non-empty. Returns
/// whether a plane was installed.
pub fn install_from_env() -> Result<bool, String> {
    match std::env::var("GSAMPLER_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => {
            install(FaultSpec::parse(&spec)?);
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Remove the installed schedule and unhook the worker pool.
pub fn clear() {
    ACTIVE.store(false, Ordering::SeqCst);
    gsampler_runtime::set_worker_fault_hook(None);
    let mut slot = plane_slot().lock().unwrap_or_else(|p| p.into_inner());
    *slot = None;
}

/// Counters of fires (and site occurrences) since the last [`install`].
/// All zero when no plane is installed.
pub fn injected() -> InjectedCounts {
    current_plane().map(|p| p.injected()).unwrap_or_default()
}

/// Poll the allocation site: true when an injected device-OOM fires for
/// this allocation. One relaxed atomic load when no plane is installed.
pub fn poll_alloc() -> bool {
    match current_plane() {
        Some(plane) => matches!(plane.poll(Site::Alloc), Some((FaultKind::DeviceOom, _))),
        None => false,
    }
}

/// Poll the kernel-dispatch site: true when an injected transient kernel
/// fault fires for this dispatch.
pub fn poll_kernel() -> bool {
    match current_plane() {
        Some(plane) => matches!(
            plane.poll(Site::Kernel),
            Some((FaultKind::KernelTransient, _))
        ),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_grammar() {
        let spec = FaultSpec::parse(
            "seed=9; kernel:at=3; oom:every=5,count=2; worker-panic:at=1; worker-stall:ms=7; kernel:p=0.5,count=4",
        )
        .unwrap();
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.rules.len(), 5);
        assert_eq!(spec.rules[0].kind, FaultKind::KernelTransient);
        assert_eq!(spec.rules[0].at, Some(3));
        assert_eq!(spec.rules[0].count, 1);
        assert_eq!(spec.rules[1].every, Some(5));
        assert_eq!(spec.rules[1].count, 2);
        assert_eq!(spec.rules[2].kind, FaultKind::WorkerPanic);
        assert_eq!(spec.rules[3].kind, FaultKind::WorkerStall);
        assert_eq!(spec.rules[3].stall_ms, 7);
        assert_eq!(spec.rules[4].p, Some(0.5));
        assert_eq!(spec.rules[4].count, 4);
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(FaultSpec::parse("explode").is_err());
        // The infinite-stall kind is not part of the grammar.
        for spec in ["hang:at=1", "worker-hang"] {
            let err = FaultSpec::parse(spec).unwrap_err();
            assert!(err.starts_with("unknown fault kind"), "{spec}: {err}");
        }
        assert!(FaultSpec::parse("kernel:at=x").is_err());
        assert!(FaultSpec::parse("kernel:at=1,every=2").is_err());
        assert!(FaultSpec::parse("kernel:p=1.5").is_err());
        assert!(FaultSpec::parse("seed=").is_err());
        assert!(FaultSpec::parse("oom:whatever=3").is_err());
        // Empty entries and whitespace are tolerated.
        assert!(FaultSpec::parse(" ; ;oom:at=2; ").is_ok());
        assert_eq!(FaultSpec::parse("").unwrap().rules.len(), 0);
    }

    #[test]
    fn rule_fire_schedules_are_deterministic() {
        let rule = FaultRule {
            kind: FaultKind::KernelTransient,
            at: None,
            every: None,
            p: Some(0.25),
            count: u64::MAX,
            stall_ms: 0,
        };
        let fires: Vec<u64> = (1..=200).filter(|&i| rule.fires_at(7, i, 0)).collect();
        let again: Vec<u64> = (1..=200).filter(|&i| rule.fires_at(7, i, 0)).collect();
        assert_eq!(fires, again, "p= rules must be pure functions");
        assert!(!fires.is_empty(), "p=0.25 over 200 draws should fire");
        let other_seed: Vec<u64> = (1..=200).filter(|&i| rule.fires_at(8, i, 0)).collect();
        assert_ne!(fires, other_seed, "seed must matter");
    }

    #[test]
    fn plane_fires_at_exact_occurrences_and_respects_count() {
        let plane = Plane::new(FaultSpec::parse("oom:at=3; kernel:every=2,count=2").unwrap());
        let oom: Vec<bool> = (0..5)
            .map(|_| matches!(plane.poll(Site::Alloc), Some((FaultKind::DeviceOom, _))))
            .collect();
        assert_eq!(oom, vec![false, false, true, false, false]);
        let kernel: Vec<bool> = (0..8)
            .map(|_| {
                matches!(
                    plane.poll(Site::Kernel),
                    Some((FaultKind::KernelTransient, _))
                )
            })
            .collect();
        // every=2 fires at occurrences 2 and 4, then the count cap stops it.
        assert_eq!(
            kernel,
            vec![false, true, false, true, false, false, false, false]
        );
        let counts = plane.injected();
        assert_eq!(counts.oom, 1);
        assert_eq!(counts.kernel, 2);
        assert_eq!(counts.alloc_sites, 5);
        assert_eq!(counts.kernel_sites, 8);
    }

    #[test]
    fn bare_kind_fires_once_at_first_occurrence() {
        let plane = Plane::new(FaultSpec::parse("kernel").unwrap());
        assert!(matches!(
            plane.poll(Site::Kernel),
            Some((FaultKind::KernelTransient, _))
        ));
        assert!(plane.poll(Site::Kernel).is_none());
    }
}
