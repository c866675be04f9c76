//! Order statistics over unit timings and the `/proc` readers behind the
//! noise sentinels (`bench.runq_wait_frac`, `bench.invol_ctxsw`) and
//! `peak_rss_mb`.

/// Median of a sample; 0.0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Quantile (`q` in `[0, 1]`) of a sample by the method Python's
/// `statistics.quantiles` uses by default ("exclusive": position
/// `q · (n + 1)` among the sorted values, interpolated), so spreads
/// computed here match the acceptance pipeline's. 0.0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let n = values.len();
    if n < 2 {
        return values.first().copied().unwrap_or(0.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (n + 1) as f64;
    let j = (pos.floor() as usize).clamp(1, n - 1);
    // Never outside the sample: tiny samples (a two-unit smoke run) would
    // otherwise extrapolate.
    v[j - 1] + (v[j] - v[j - 1]) * (pos - j as f64).clamp(0.0, 1.0)
}

/// Summary of one run's timed units, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitSummary {
    pub n: usize,
    /// 5th percentile: the end-to-end `unit_ms`.
    pub p05: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// Value at the highest percentile that still has ten units beyond it
    /// (0.0 when fewer than twenty units ran: there is no such tail).
    pub tail: f64,
    /// The percentile `tail` sits at, in `[0, 100]`.
    pub tail_pct: f64,
}

impl UnitSummary {
    pub fn of(ms: &[f64]) -> UnitSummary {
        let n = ms.len();
        let (tail, tail_pct) = if n >= 20 {
            let mut v = ms.to_vec();
            v.sort_by(f64::total_cmp);
            (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
        } else {
            (0.0, 0.0)
        };
        UnitSummary {
            n,
            p05: quantile(ms, 0.05),
            median: median(ms),
            q1: quantile(ms, 0.25),
            q3: quantile(ms, 0.75),
            tail,
            tail_pct,
        }
    }

    /// Inter-quartile range as a share of the median.
    pub fn iqr_frac(&self) -> f64 {
        if self.median > 0.0 {
            (self.q3 - self.q1) / self.median
        } else {
            0.0
        }
    }
}

/// Scheduler accounting summed over every thread of this process.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedSnapshot {
    /// Nanoseconds on a CPU.
    pub on_cpu_ns: u64,
    /// Nanoseconds runnable but waiting for a CPU.
    pub runq_wait_ns: u64,
    /// Involuntary context switches.
    pub invol_ctxsw: u64,
}

impl SchedSnapshot {
    /// Read `/proc/self/task/*/{schedstat,status}`. Threads that exit
    /// between the directory listing and the read are skipped.
    pub fn read() -> SchedSnapshot {
        let mut snap = SchedSnapshot::default();
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return snap;
        };
        for task in tasks.flatten() {
            let dir = task.path();
            if let Ok(s) = std::fs::read_to_string(dir.join("schedstat")) {
                let mut fields = s.split_whitespace().map(|f| f.parse::<u64>().unwrap_or(0));
                snap.on_cpu_ns += fields.next().unwrap_or(0);
                snap.runq_wait_ns += fields.next().unwrap_or(0);
            }
            if let Ok(s) = std::fs::read_to_string(dir.join("status")) {
                snap.invol_ctxsw += status_field(&s, "nonvoluntary_ctxt_switches:");
            }
        }
        snap
    }

    pub fn since(&self, earlier: &SchedSnapshot) -> SchedSnapshot {
        SchedSnapshot {
            on_cpu_ns: self.on_cpu_ns.saturating_sub(earlier.on_cpu_ns),
            runq_wait_ns: self.runq_wait_ns.saturating_sub(earlier.runq_wait_ns),
            invol_ctxsw: self.invol_ctxsw.saturating_sub(earlier.invol_ctxsw),
        }
    }

    /// Run-queue wait as a share of on-CPU time.
    pub fn runq_wait_frac(&self) -> f64 {
        if self.on_cpu_ns > 0 {
            self.runq_wait_ns as f64 / self.on_cpu_ns as f64
        } else {
            0.0
        }
    }
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// `VmHWM` of this process in MiB (the kernel reports KiB).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .map(|s| status_field(&s, "VmHWM:") as f64 / 1024.0)
        .unwrap_or(0.0)
}
