//! Stall watchdog for the persistent worker pool.
//!
//! Every spawned-side participant share registers itself here for the
//! duration of its run. A daemon thread (started lazily with the first
//! registration) scans the registry on a coarse tick and compares each
//! share's age against the stall threshold (`GSAMPLER_WATCHDOG_MS`,
//! default [`DEFAULT_STALL_MS`]; `0` disables). Two escalation rungs:
//!
//! 1. **Warn** — a share past the threshold that is *executing real
//!    work* gets one `watchdog/stall` event. It cannot be killed: the
//!    region closure is a borrowed pointer whose lifetime is tied to the
//!    dispatching caller, so abandoning a share mid-`f` would leave a
//!    second thread racing the caller on freed state. Genuine stragglers
//!    are therefore observed, never reclaimed.
//! 2. **Reclaim** — a share parked in the *cooperative hang loop* (the
//!    injected `WorkerFault::Hang`, which parks **before** the region
//!    closure runs and polls a reclaim flag) is ordered abandoned: the
//!    watchdog sets the flag, the parked worker records a typed failure
//!    and exits through the pool's existing panic/respawn path, the
//!    region fails as a transient `PoolError`, and the recovery layer
//!    above retries it bit-identically. An infinite stall thus costs one
//!    threshold interval plus one retry instead of hanging the epoch.
//!
//! The asymmetry is the soundness argument: only a share that provably
//! never touched the region closure may be abandoned.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Default stall threshold when `GSAMPLER_WATCHDOG_MS` is unset.
pub const DEFAULT_STALL_MS: u64 = 1000;

/// Programmatic threshold override (tests, CLI). `-1` = use environment.
static OVERRIDE_MS: AtomicI64 = AtomicI64::new(-1);

static ENV_MS: OnceLock<u64> = OnceLock::new();

fn env_threshold_ms() -> u64 {
    *ENV_MS.get_or_init(|| {
        std::env::var("GSAMPLER_WATCHDOG_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(DEFAULT_STALL_MS)
    })
}

/// The active stall threshold in milliseconds (`0` = watchdog disabled).
pub fn stall_threshold_ms() -> u64 {
    let o = OVERRIDE_MS.load(Ordering::Relaxed);
    if o >= 0 {
        o as u64
    } else {
        env_threshold_ms()
    }
}

/// Override the stall threshold (`Some(0)` disables the watchdog,
/// `None` restores the environment/default value). Process-global —
/// tests that lower it should restore it.
pub fn set_stall_threshold_ms(ms: Option<u64>) {
    let v = match ms {
        Some(m) => i64::try_from(m).unwrap_or(i64::MAX),
        None => -1,
    };
    OVERRIDE_MS.store(v, Ordering::Relaxed);
}

/// One registered participant share.
struct Share {
    started: Instant,
    /// True while the share is parked in the cooperative hang loop —
    /// the only state the watchdog may reclaim.
    parked: AtomicBool,
    /// Set by the watchdog to order a parked share abandoned.
    reclaim: AtomicBool,
    /// A `watchdog/stall` warning was already emitted for this share.
    warned: AtomicBool,
}

static REGISTRY: OnceLock<Mutex<HashMap<u64, Arc<Share>>>> = OnceLock::new();
static NEXT_ID: AtomicU64 = AtomicU64::new(0);
static RECLAIMS: AtomicU64 = AtomicU64::new(0);
static STALL_WARNINGS: AtomicU64 = AtomicU64::new(0);
static DAEMON: OnceLock<()> = OnceLock::new();

fn registry() -> &'static Mutex<HashMap<u64, Arc<Share>>> {
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Cumulative watchdog activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WatchdogMetrics {
    /// Parked (hung) shares ordered abandoned.
    pub reclaims: u64,
    /// Slow-but-live shares warned about (one per share).
    pub stall_warnings: u64,
}

impl WatchdogMetrics {
    /// The delta from `earlier` to this snapshot.
    pub fn since(&self, earlier: &WatchdogMetrics) -> WatchdogMetrics {
        WatchdogMetrics {
            reclaims: self.reclaims.saturating_sub(earlier.reclaims),
            stall_warnings: self.stall_warnings.saturating_sub(earlier.stall_warnings),
        }
    }
}

/// Snapshot the cumulative watchdog counters.
pub fn watchdog_metrics() -> WatchdogMetrics {
    WatchdogMetrics {
        reclaims: RECLAIMS.load(Ordering::Relaxed),
        stall_warnings: STALL_WARNINGS.load(Ordering::Relaxed),
    }
}

/// RAII registration of one participant share; deregisters on drop.
pub(crate) struct ShareGuard {
    id: u64,
    share: Arc<Share>,
}

impl ShareGuard {
    /// Park in the cooperative hang loop until the watchdog orders this
    /// share abandoned; returns how long the park lasted. Never touches
    /// the region closure, which is what makes the reclaim sound.
    pub(crate) fn park_until_reclaimed(&self) -> Duration {
        let start = Instant::now();
        self.share.parked.store(true, Ordering::SeqCst);
        while !self.share.reclaim.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        start.elapsed()
    }
}

impl Drop for ShareGuard {
    fn drop(&mut self) {
        registry()
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&self.id);
    }
}

/// Register the calling participant share. Returns `None` when the
/// watchdog is disabled (threshold 0) — in that state nothing heartbeats
/// and a hang cannot be reclaimed, so callers fail hangs fast instead.
pub(crate) fn register_share() -> Option<ShareGuard> {
    if stall_threshold_ms() == 0 {
        return None;
    }
    ensure_daemon();
    let share = Arc::new(Share {
        started: Instant::now(),
        parked: AtomicBool::new(false),
        reclaim: AtomicBool::new(false),
        warned: AtomicBool::new(false),
    });
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    registry()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .insert(id, Arc::clone(&share));
    Some(ShareGuard { id, share })
}

fn ensure_daemon() {
    DAEMON.get_or_init(|| {
        // Daemon, never joined: it sleeps on a coarse tick and only ever
        // reads the registry, so process exit mid-scan is harmless.
        let _ = std::thread::Builder::new()
            .name("gsampler-watchdog".to_string())
            .spawn(daemon_loop);
    });
}

fn daemon_loop() {
    loop {
        let threshold = stall_threshold_ms();
        // Tick at a quarter threshold so detection latency stays within
        // ~1.25x the configured bound, clamped to keep a disabled or
        // huge threshold from starving or spinning the daemon.
        let tick = (threshold / 4).clamp(5, 250);
        std::thread::sleep(Duration::from_millis(tick));
        if threshold == 0 {
            continue;
        }
        let shares: Vec<Arc<Share>> = registry()
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .values()
            .cloned()
            .collect();
        for share in shares {
            let elapsed_ms = share.started.elapsed().as_millis() as u64;
            if elapsed_ms < threshold {
                continue;
            }
            if share.parked.load(Ordering::SeqCst) {
                if !share.reclaim.swap(true, Ordering::SeqCst) {
                    RECLAIMS.fetch_add(1, Ordering::Relaxed);
                    gsampler_obs::event(
                        "watchdog",
                        "reclaim",
                        &[
                            ("stalled_ms", gsampler_obs::Arg::from(elapsed_ms as f64)),
                            ("threshold_ms", gsampler_obs::Arg::from(threshold as f64)),
                        ],
                    );
                }
            } else if !share.warned.swap(true, Ordering::SeqCst) {
                STALL_WARNINGS.fetch_add(1, Ordering::Relaxed);
                gsampler_obs::event(
                    "watchdog",
                    "stall",
                    &[
                        ("stalled_ms", gsampler_obs::Arg::from(elapsed_ms as f64)),
                        ("threshold_ms", gsampler_obs::Arg::from(threshold as f64)),
                    ],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_override_wins_and_restores() {
        let _globals = crate::test_globals_guard();
        let base = stall_threshold_ms();
        set_stall_threshold_ms(Some(12345));
        assert_eq!(stall_threshold_ms(), 12345);
        set_stall_threshold_ms(None);
        assert_eq!(stall_threshold_ms(), base);
    }

    #[test]
    fn metrics_delta_is_monotone() {
        let a = watchdog_metrics();
        let b = watchdog_metrics();
        let d = b.since(&a);
        assert_eq!(d, d.since(&WatchdogMetrics::default()));
    }
}
