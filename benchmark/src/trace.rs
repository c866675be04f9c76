//! Reading the traced run's timeline: the harness's `bench/*` spans and
//! the spans the program already emits share one Chrome trace; this
//! module turns it into per-layer self times and the metrics that only
//! the timeline can give.

use std::collections::BTreeMap;

use gsampler_obs::json::Json;

use crate::schema::{Metrics, KERNELS};

/// One complete (`ph: "X"`) event.
#[derive(Debug, Clone)]
pub struct Span {
    pub cat: String,
    pub name: String,
    pub ts: f64,
    pub dur: f64,
    pub tid: u64,
    /// `dur` minus the part direct child spans on the same thread cover.
    pub self_us: f64,
}

impl Span {
    fn end(&self) -> f64 {
        self.ts + self.dur
    }
}

/// The parsed timeline.
pub struct Timeline {
    pub spans: Vec<Span>,
    /// `(cat, name, args)` of instant events.
    pub instants: Vec<(String, String, Json)>,
    pub events: usize,
}

impl Timeline {
    /// Parse Chrome-trace JSON as `gsampler_obs::export_chrome_trace`
    /// writes it and compute every span's self time.
    pub fn parse(text: &str) -> Result<Timeline, String> {
        let root = crate::json::parse(text)?;
        let events = root
            .get("traceEvents")
            .and_then(Json::as_arr)
            .ok_or("trace has no traceEvents array")?;
        let mut spans = Vec::new();
        let mut instants = Vec::new();
        for e in events {
            let text_of = |key: &str| e.get(key).and_then(Json::as_str).unwrap_or("").to_string();
            let num = |key: &str| e.get(key).and_then(Json::as_f64);
            match (e.get("ph").and_then(Json::as_str), num("dur")) {
                (Some("X"), Some(dur)) => spans.push(Span {
                    cat: text_of("cat"),
                    name: text_of("name"),
                    ts: num("ts").unwrap_or(0.0),
                    dur,
                    tid: num("tid").unwrap_or(0.0) as u64,
                    self_us: dur,
                }),
                _ => instants.push((
                    text_of("cat"),
                    text_of("name"),
                    e.get("args").cloned().unwrap_or(Json::Null),
                )),
            }
        }
        self_times(&mut spans);
        Ok(Timeline {
            spans,
            instants,
            events: events.len(),
        })
    }

    /// Spans named `cat/name`, in timeline order.
    pub fn named<'a>(&'a self, cat: &'a str, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans
            .iter()
            .filter(move |s| s.cat == cat && s.name == name)
    }

    /// Spans that start inside `window` (any thread).
    pub fn within<'a>(&'a self, window: &'a Span) -> impl Iterator<Item = &'a Span> {
        self.spans
            .iter()
            .filter(move |s| s.ts >= window.ts && s.ts < window.end())
    }
}

/// Self time = duration minus what direct children on the same thread
/// cover. Spans nest by thread: sorted by start (longest first on ties),
/// a stack of open spans gives each span its parent. Timestamps are
/// whole microseconds, so a child is clipped to its parent.
fn self_times(spans: &mut [Span]) {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by(|&a, &b| {
        let (a, b) = (&spans[a], &spans[b]);
        a.tid
            .cmp(&b.tid)
            .then(a.ts.total_cmp(&b.ts))
            .then(b.dur.total_cmp(&a.dur))
    });
    let mut open: Vec<usize> = Vec::new();
    for &i in &order {
        while let Some(&top) = open.last() {
            if spans[top].tid == spans[i].tid && spans[i].ts < spans[top].end() {
                break;
            }
            open.pop();
        }
        if let Some(&parent) = open.last() {
            let covered = spans[i].end().min(spans[parent].end()) - spans[i].ts;
            spans[parent].self_us -= covered.max(0.0);
        }
        open.push(i);
    }
    for s in spans.iter_mut() {
        s.self_us = s.self_us.max(0.0);
    }
}

/// The layer (crate) a span's self time belongs to. The harness's own
/// `bench/<layer>.<fn>` spans carry the layer in their name: their self
/// time is the part of that call no span inside the program covers.
pub fn layer_of(span: &Span) -> &str {
    match span.cat.as_str() {
        "bench" => span.name.split('.').next().unwrap_or("bench"),
        "pass" | "plan" => "ir",
        "pool" | "watchdog" => "runtime",
        "serve" => "serve",
        _ => "core",
    }
}

/// Per-layer self time in milliseconds of the given spans.
pub fn layer_self_ms<'a>(spans: impl Iterator<Item = &'a Span>) -> BTreeMap<String, f64> {
    let mut table = BTreeMap::new();
    for s in spans {
        *table.entry(layer_of(s).to_string()).or_insert(0.0) += s.self_us / 1e3;
    }
    table
}

/// Strip the layout suffix (`name[csc]`) from a dispatcher kernel name.
fn kernel_key(name: &str) -> &str {
    let base = name.split('[').next().unwrap_or(name);
    if KERNELS.contains(&base) {
        base
    } else {
        "other"
    }
}

/// `core.kernel.*`, `core.kernel_wall_ms` and, when modeled times are
/// given, `engine.model_residual` from per-kernel rows of
/// `(name, calls, wall seconds, modeled seconds)`.
pub fn kernel_metrics<'a>(m: &mut Metrics, rows: impl Iterator<Item = (&'a str, u64, f64, f64)>) {
    let mut by_kernel: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
    for (name, calls, wall, modeled) in rows {
        let agg = by_kernel.entry(kernel_key(name)).or_default();
        agg.0 += calls;
        agg.1 += wall;
        agg.2 += modeled;
    }
    let wall_total: f64 = by_kernel.values().map(|a| a.1).sum();
    let modeled_total: f64 = by_kernel.values().map(|a| a.2).sum();
    for key in KERNELS.iter().copied().chain(["other"]) {
        let (calls, wall, _) = by_kernel.get(key).copied().unwrap_or_default();
        m.set(&format!("core.kernel.{key}.ms"), wall * 1e3);
        m.set(&format!("core.kernel.{key}.calls"), calls as f64);
    }
    m.set("core.kernel_wall_ms", wall_total * 1e3);
    if modeled_total > 0.0 && wall_total > 0.0 {
        let residual = by_kernel
            .values()
            .map(|a| (a.2 / modeled_total - a.1 / wall_total).abs())
            .fold(0.0, f64::max);
        m.set("engine.model_residual", residual);
    }
}

/// Set `core.nonkernel_ms` and `core.nonkernel_share` from a unit's wall
/// time once `core.kernel_wall_ms` is known.
pub fn nonkernel_metrics(m: &mut Metrics, unit_wall_ms: f64) {
    let kernel = m.get("core.kernel_wall_ms").unwrap_or(0.0);
    let nonkernel = (unit_wall_ms - kernel).max(0.0);
    m.set("core.nonkernel_ms", nonkernel);
    m.set(
        "core.nonkernel_share",
        if unit_wall_ms > 0.0 {
            nonkernel / unit_wall_ms
        } else {
            0.0
        },
    );
}
