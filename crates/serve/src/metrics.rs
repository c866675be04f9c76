//! Per-tenant serving counters, surfaced two ways: a queryable snapshot
//! (latency percentiles, throughput, queue depth) and `serve/*` trace
//! events + counters through `gsampler-obs` for offline analysis.

use std::collections::HashMap;
use std::sync::Mutex;

/// Counters for one tenant.
#[derive(Debug, Clone, Default)]
pub struct TenantCounters {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests that failed or were rejected after admission.
    pub failed: u64,
    /// Completions served from a packed (cross-request) super-batch.
    pub batched: u64,
    /// Completions served solo.
    pub solo: u64,
    /// Requests that missed their deadline — shed from the queue or
    /// stopped mid-execution. A subset of `failed` in spirit but counted
    /// separately: a deadline miss is a latency event, not a fault, and
    /// never quarantines the tenant.
    pub deadline_missed: u64,
    /// Deadline misses shed *before* running (queue-expired); the rest of
    /// `deadline_missed` expired mid-execution.
    pub shed: u64,
    /// End-to-end latency samples in microseconds (submit → reply).
    pub latencies_us: Vec<u64>,
}

impl TenantCounters {
    fn percentile_ms(&self, q: f64) -> f64 {
        if self.latencies_us.is_empty() {
            return 0.0;
        }
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        sorted[rank.min(sorted.len() - 1)] as f64 / 1e3
    }

    /// Median end-to-end latency in milliseconds.
    pub fn p50_ms(&self) -> f64 {
        self.percentile_ms(0.50)
    }

    /// 99th-percentile end-to-end latency in milliseconds.
    pub fn p99_ms(&self) -> f64 {
        self.percentile_ms(0.99)
    }
}

/// Whole-server snapshot.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Per-tenant counters.
    pub tenants: HashMap<String, TenantCounters>,
    /// Requests currently queued (admission-reserved, not yet replied).
    pub queue_depth: u64,
}

impl MetricsSnapshot {
    /// Sum of completed requests across tenants.
    pub fn completed(&self) -> u64 {
        self.tenants.values().map(|t| t.completed).sum()
    }

    /// Sum of packed completions across tenants.
    pub fn batched(&self) -> u64 {
        self.tenants.values().map(|t| t.batched).sum()
    }

    /// Sum of deadline misses across tenants.
    pub fn deadline_missed(&self) -> u64 {
        self.tenants.values().map(|t| t.deadline_missed).sum()
    }

    /// Sum of queue-expired (shed-before-running) requests across tenants.
    pub fn shed(&self) -> u64 {
        self.tenants.values().map(|t| t.shed).sum()
    }
}

/// Metrics hub shared by the submit path and the scheduler thread.
pub struct Metrics {
    tenants: Mutex<HashMap<String, TenantCounters>>,
}

impl Metrics {
    /// Empty hub.
    pub fn new() -> Metrics {
        Metrics {
            tenants: Mutex::new(HashMap::new()),
        }
    }

    fn with(&self, tenant: &str, f: impl FnOnce(&mut TenantCounters)) {
        let mut map = self.tenants.lock().unwrap();
        f(map.entry(tenant.to_string()).or_default());
    }

    /// A request passed admission and was queued.
    pub(crate) fn note_submitted(&self, tenant: &str, queue_depth: u64) {
        self.with(tenant, |t| t.submitted += 1);
        gsampler_obs::event(
            "serve",
            "request",
            &[
                ("tenant", gsampler_obs::Arg::Str(tenant.to_string())),
                ("queue_depth", gsampler_obs::Arg::Num(queue_depth as f64)),
            ],
        );
        gsampler_obs::counter("serve.queue_depth", 1.0);
    }

    /// A request completed; `batched` says whether it was served from a
    /// packed super-batch.
    pub(crate) fn note_completed(&self, tenant: &str, latency_us: u64, batched: bool) {
        self.with(tenant, |t| {
            t.completed += 1;
            if batched {
                t.batched += 1;
            } else {
                t.solo += 1;
            }
            t.latencies_us.push(latency_us);
        });
        gsampler_obs::event(
            "serve",
            "complete",
            &[
                ("tenant", gsampler_obs::Arg::Str(tenant.to_string())),
                ("latency_us", gsampler_obs::Arg::Num(latency_us as f64)),
                ("batched", gsampler_obs::Arg::from(batched)),
            ],
        );
        gsampler_obs::counter("serve.queue_depth", -1.0);
    }

    /// A request missed its deadline. `shed` says it expired in the queue
    /// and never ran; otherwise it was stopped mid-execution.
    pub(crate) fn note_deadline_missed(&self, tenant: &str, shed: bool) {
        self.with(tenant, |t| {
            t.failed += 1;
            t.deadline_missed += 1;
            if shed {
                t.shed += 1;
            }
        });
        gsampler_obs::event(
            if shed { "serve" } else { "deadline" },
            if shed { "shed" } else { "miss" },
            &[("tenant", gsampler_obs::Arg::Str(tenant.to_string()))],
        );
        gsampler_obs::counter("serve.queue_depth", -1.0);
    }

    /// A request failed after admission.
    pub(crate) fn note_failed(&self, tenant: &str) {
        self.with(tenant, |t| t.failed += 1);
        gsampler_obs::event(
            "serve",
            "fail",
            &[("tenant", gsampler_obs::Arg::Str(tenant.to_string()))],
        );
        gsampler_obs::counter("serve.queue_depth", -1.0);
    }

    /// Copy out the counters.
    pub fn snapshot(&self, queue_depth: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            tenants: self.tenants.lock().unwrap().clone(),
            queue_depth,
        }
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}
