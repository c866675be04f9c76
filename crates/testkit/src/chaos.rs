//! Chaos harness: drive registered algorithms under seeded fault
//! schedules and check the recovery contract.
//!
//! The contract has three parts, mirroring `DESIGN.md` §9:
//!
//! 1. **Recovery succeeds** — a schedule the [`RecoveryPolicy`] can absorb
//!    (bounded transient fires, one-shot OOM) must not surface as an
//!    error from any algorithm drive.
//! 2. **Determinism** — two runs of the same seed + schedule produce
//!    bit-identical output fingerprints *and* identical injected-fault
//!    counts; plain-retry recovery is additionally *transparent*
//!    (bit-identical to the clean, fault-free run, because a draw is a
//!    pure function of its batch's key, which a retry reuses).
//! 3. **Counts match the schedule** — the plane's [`InjectedCounts`] are
//!    what the schedule promises, no silent over- or under-firing.
//!
//! The fault plane is process-global, so every test that installs a
//! schedule must hold [`chaos_lock`] for its whole body.
//!
//! [`RecoveryPolicy`]: gsampler_core::RecoveryPolicy
//! [`InjectedCounts`]: gsampler_engine::faults::InjectedCounts

use std::sync::{Arc, Mutex, MutexGuard};

use gsampler_algos::Hyper;
use gsampler_core::{Graph, OptConfig};
use gsampler_engine::faults::{self, FaultSpec, InjectedCounts};

use crate::drive::{algorithm_names, run_algorithm, sampler_config, DriveError};
use crate::fingerprint;

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// Serialize chaos tests (the fault plane is process-global) and start
/// from a clean plane. Poisoning is ignored: a failed chaos test must not
/// cascade into every later one.
pub fn chaos_lock() -> MutexGuard<'static, ()> {
    let guard = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    faults::clear();
    guard
}

/// What one algorithm's drive looked like under a fault schedule.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Registry name of the algorithm.
    pub algo: &'static str,
    /// Output fingerprint of the fault-free drive.
    pub clean: u64,
    /// Output fingerprint under the schedule.
    pub faulted: u64,
    /// Output fingerprint of a second run of the same schedule.
    pub rerun: u64,
    /// Plane counters after the faulted drive.
    pub injected: InjectedCounts,
}

impl ChaosReport {
    /// Reruns of one schedule agree bit-for-bit.
    pub fn deterministic(&self) -> bool {
        self.faulted == self.rerun
    }

    /// Recovery was invisible: the faulted output equals the clean one.
    pub fn transparent(&self) -> bool {
        self.clean == self.faulted && self.deterministic()
    }
}

/// Drive `algo` once (no fault manipulation) and fingerprint its outputs.
pub fn drive_fingerprint(
    graph: &Arc<Graph>,
    algo: &str,
    h: &Hyper,
    seed: u64,
    frontiers: &[u32],
) -> Result<u64, DriveError> {
    let config = sampler_config(OptConfig::all(), seed, frontiers.len());
    let values = run_algorithm(graph, algo, h, config, frontiers, None)?
        .ok_or_else(|| format!("{algo}: drive produced no output"))?;
    Ok(fingerprint::of_values(&values))
}

/// Run every registered algorithm clean, then twice under `spec`,
/// collecting fingerprints and plane counters. Errors if any drive fails
/// (recovery is supposed to absorb the schedule) or if the two faulted
/// runs disagree on what was injected.
///
/// The caller must hold [`chaos_lock`]. The plane is left cleared.
pub fn run_schedule(
    graph: &Arc<Graph>,
    h: &Hyper,
    spec: &str,
    seed: u64,
    frontiers: &[u32],
) -> Result<Vec<ChaosReport>, DriveError> {
    let parsed = FaultSpec::parse(spec).map_err(|e| format!("bad chaos spec {spec:?}: {e}"))?;
    let mut out = Vec::new();
    for algo in algorithm_names(h) {
        faults::clear();
        let clean = drive_fingerprint(graph, algo, h, seed, frontiers)
            .map_err(|e| format!("clean run: {e}"))?;
        faults::install(parsed.clone());
        let faulted = drive_fingerprint(graph, algo, h, seed, frontiers)
            .map_err(|e| format!("under schedule {spec:?}: {e}"))?;
        let injected = faults::injected();
        faults::install(parsed.clone());
        let rerun = drive_fingerprint(graph, algo, h, seed, frontiers)
            .map_err(|e| format!("rerun of schedule {spec:?}: {e}"))?;
        let injected_again = faults::injected();
        faults::clear();
        if injected != injected_again {
            return Err(format!(
                "{algo}: schedule {spec:?} is not deterministic: \
                 {injected:?} vs {injected_again:?}"
            ));
        }
        out.push(ChaosReport {
            algo,
            clean,
            faulted,
            rerun,
            injected,
        });
    }
    Ok(out)
}
