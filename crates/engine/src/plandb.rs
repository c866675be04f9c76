//! The memoized plan database.
//!
//! Compilation runs the layout brute-force search (paper §4.3) and the
//! super-batch grid search (§4.4). This module memoizes their results the
//! way Morello's search database memoizes synthesis specs: a [`PlanDb`]
//! maps a fingerprint key — canonical program hash, bucketed graph-stat
//! summary, device profile name — to a serializable [`PlanArtifact`],
//! which the compile pipeline takes as an *input* in place of searching.
//! The plan types themselves ([`LayoutPlan`], [`LayoutDecision`]) live
//! here, below the IR crate that produces them, so what the layout pass
//! returns is what the database stores.
//!
//! Three design points:
//!
//! - **Bucketed keys, exact drift checks.** Graph stats enter the key in
//!   coarse log₂ buckets so a slightly grown graph still *finds* its
//!   entry; the artifact stores the exact stats it was planned under, and
//!   a lookup whose current stats moved more than [`DRIFT_THRESHOLD`]
//!   comes back as [`Lookup::Drift`] — the pipeline re-prices the plan
//!   under the fresh stats and the caller re-inserts.
//! - **LRU + optional persistence.** In-memory entries are capped at
//!   [`CAPACITY`] with least-recently-used eviction; with a backing path
//!   the database loads at open and rewrites the file on insert, using
//!   the `obs::json` value type as the one JSON implementation in the
//!   workspace.
//! - **Plans are semantically inert.** Layout and super-batch decisions
//!   never change *what* is sampled, only how fast (the differential
//!   oracle enforces this), so taking a plan across same-bucket graphs is
//!   always safe — at worst it is slower than a fresh search.
//!
//! Degraded compiles (a plan that does not fit its memory budget, or a
//! device already on the streaming spill rung) must **not** insert: the
//! database caches healthy plans only, so a transient pressure episode
//! cannot poison future compiles.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use gsampler_matrix::Format;
use gsampler_obs::json::Json;
use gsampler_obs::Arg;

/// Capacity of the in-memory LRU.
const CAPACITY: usize = 256;

/// Relative drift threshold (25%) on nodes/edges/average degree.
const DRIFT_THRESHOLD: f64 = 0.25;

/// Exact graph statistics a plan was made under — and, bucketed, part of
/// the lookup key.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GraphSummary {
    /// Number of nodes.
    pub num_nodes: f64,
    /// Number of edges.
    pub num_edges: f64,
    /// Feature dimensionality (0 when featureless).
    pub feature_dim: f64,
}

impl GraphSummary {
    /// The key-side bucketing: log₂ buckets for nodes and edges (graphs
    /// within a factor of two land in the same bucket), exact feature
    /// dim. Coarse on purpose — the exact stats live in the artifact and
    /// the drift policy arbitrates within a bucket.
    pub fn bucket(&self) -> String {
        let lg = |x: f64| -> u32 {
            if x < 1.0 {
                0
            } else {
                (x.max(1.0)).log2().floor() as u32
            }
        };
        format!(
            "n{}e{}f{}",
            lg(self.num_nodes),
            lg(self.num_edges),
            self.feature_dim as u64
        )
    }

    /// Largest relative change of nodes, edges, or average degree against
    /// the summary a plan was made under (0.0 = identical).
    pub fn drift_from(&self, planned: &GraphSummary) -> f64 {
        let rel = |now: f64, then: f64| -> f64 {
            if then == 0.0 {
                if now == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                (now - then).abs() / then
            }
        };
        let deg_now = self.num_edges / self.num_nodes.max(1.0);
        let deg_then = planned.num_edges / planned.num_nodes.max(1.0);
        rel(self.num_nodes, planned.num_nodes)
            .max(rel(self.num_edges, planned.num_edges))
            .max(rel(deg_now, deg_then))
    }
}

/// One layout decision, addressed by the node it applies to in the
/// *pre-layout* program (post CSE/preprocess/fusion/DCE). Defined here,
/// below the IR crate that searches for it, so the plan the layout pass
/// produces is the very value the database stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayoutDecision {
    /// Choice-point node in the pre-layout program.
    pub op_id: usize,
    /// Chosen storage format for its output.
    pub format: Format,
    /// Whether isolated rows are compacted after it.
    pub compact: bool,
}

/// The product of the layout search (paper §4.3): everything needed to
/// rewrite a program without searching again. An empty decision list
/// means "keep every operator in its natural format" (either there were
/// no choice points, or the search fell back to natural).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayoutPlan {
    /// Per-choice-point decisions; empty = all-natural.
    pub decisions: Vec<LayoutDecision>,
    /// Modeled per-batch time of the chosen program (seconds).
    pub est_time: f64,
    /// Modeled per-batch time with all-natural layouts.
    pub natural_time: f64,
}

/// The cached plan for one compiled layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerPlanRec {
    /// Canonical fingerprint of the layer's *source* program; the plan is
    /// only offered to a compile whose layer matches.
    pub fingerprint: u64,
    /// The layer's layout plan.
    pub plan: LayoutPlan,
}

/// The cached super-batch decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuperBatchRec {
    /// Whether an automatic budget search planned this (false = the
    /// explicit `opt.super_batch` factor was used; nothing to reuse).
    pub planned: bool,
    /// The chosen factor.
    pub factor: usize,
}

impl Default for SuperBatchRec {
    fn default() -> Self {
        SuperBatchRec {
            planned: false,
            factor: 1,
        }
    }
}

/// Everything a compile needs in place of its searches: per-layer layout
/// plans, the super-batch factor, and the exact graph stats the plan was
/// made under (the drift reference).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanArtifact {
    /// Per-layer plans, in layer order.
    pub layers: Vec<LayerPlanRec>,
    /// The super-batch decision.
    pub super_batch: SuperBatchRec,
    /// Exact graph stats at plan time.
    pub graph: GraphSummary,
    /// Device profile name the plan was priced for.
    pub device: String,
}

/// The composite lookup key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Combined fingerprint of every layer program plus the planning-
    /// relevant compile knobs (pass config, batch size, budget, residency).
    pub program_fp: u64,
    /// Bucketed graph-stat summary ([`GraphSummary::bucket`]).
    pub graph_bucket: String,
    /// Device profile name.
    pub device: String,
}

impl PlanKey {
    fn to_string_key(&self) -> String {
        format!(
            "fp{:016x}/{}/{}",
            self.program_fp, self.graph_bucket, self.device
        )
    }
}

/// Hit/miss/evict counters, surfaced through `ExecStats` and the obs
/// `plan/cache.*` events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanDbStats {
    /// Lookups that returned a fresh artifact.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Lookups that found an artifact past the drift threshold.
    pub drifts: u64,
    /// Artifacts inserted (or updated in place).
    pub inserts: u64,
    /// Entries evicted by the LRU cap.
    pub evictions: u64,
    /// On-disk files discarded at open because they were corrupted,
    /// truncated, or carried an unsupported format version.
    pub corrupt_discards: u64,
}

impl PlanDbStats {
    /// True when any counter moved.
    pub fn any(&self) -> bool {
        *self != PlanDbStats::default()
    }

    /// Total lookups served.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.drifts
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
        self.drifts += other.drifts;
        self.inserts += other.inserts;
        self.evictions += other.evictions;
        self.corrupt_discards += other.corrupt_discards;
    }

    /// Counter deltas since an earlier snapshot of the same database.
    pub fn since(&self, before: &PlanDbStats) -> PlanDbStats {
        PlanDbStats {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            drifts: self.drifts - before.drifts,
            inserts: self.inserts - before.inserts,
            evictions: self.evictions - before.evictions,
            corrupt_discards: self.corrupt_discards - before.corrupt_discards,
        }
    }
}

/// Outcome of a [`PlanDb::lookup`].
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup {
    /// Fresh plan: take it as is.
    Hit(PlanArtifact),
    /// A plan exists but the graph stats drifted past the threshold:
    /// re-price it under the current stats and re-insert.
    Drift(PlanArtifact),
    /// Nothing cached for this key.
    Miss,
}

struct Inner {
    entries: std::collections::HashMap<String, PlanArtifact>,
    /// Same-process compiled payloads riding on in-memory entries (never
    /// persisted): the planner attaches its fully-compiled result so a
    /// later hit in the same process can skip even the deterministic
    /// rewrite passes. Type-erased because this crate sits below the IR
    /// crate in the dependency order; the compiler downcasts.
    payloads: std::collections::HashMap<String, Arc<dyn std::any::Any + Send + Sync>>,
    /// LRU order: most recently used last.
    order: Vec<String>,
    path: Option<PathBuf>,
    stats: PlanDbStats,
}

impl Inner {
    fn touch(&mut self, key: &str) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            let k = self.order.remove(pos);
            self.order.push(k);
        }
    }
}

/// Fingerprint-keyed memo of planning decisions: in-memory LRU with
/// optional on-disk persistence. Interior-mutable so samplers can share
/// one database behind an `Arc` without outer locking.
pub struct PlanDb {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for PlanDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("PlanDb")
            .field("entries", &inner.entries.len())
            .field("path", &inner.path)
            .field("stats", &inner.stats)
            .finish()
    }
}

impl Default for PlanDb {
    fn default() -> Self {
        PlanDb::in_memory()
    }
}

impl PlanDb {
    /// A fresh in-memory database (no persistence).
    pub fn in_memory() -> PlanDb {
        PlanDb {
            inner: Mutex::new(Inner {
                entries: Default::default(),
                payloads: Default::default(),
                order: Vec::new(),
                path: None,
                stats: PlanDbStats::default(),
            }),
        }
    }

    /// Open (or create) an on-disk database: entries load from `path` if
    /// it exists, and every insert rewrites it.
    ///
    /// A corrupted, truncated, or version-mismatched file is **not** an
    /// error: the cache is an accelerator, and refusing to start over a
    /// stale artifact would turn a crash mid-write into a persistent
    /// outage. The file is discarded with a `plan/cache.corrupt` warning
    /// event (and a `corrupt_discards` counter tick) and the database
    /// starts empty — compiles re-search and the next insert rewrites the
    /// file under the current format version. I/O errors (permissions,
    /// unreadable directory) still fail: those are environment problems,
    /// not stale data.
    pub fn open(path: impl AsRef<Path>) -> io::Result<PlanDb> {
        let path = path.as_ref().to_path_buf();
        let db = PlanDb::in_memory();
        {
            let mut inner = db.inner.lock();
            inner.path = Some(path.clone());
            if path.exists() {
                let text = std::fs::read_to_string(&path)?;
                match Json::parse(&text).and_then(|j| entries_from_json(&j)) {
                    Ok((entries, order)) => {
                        inner.entries = entries;
                        inner.order = order;
                    }
                    Err(reason) => {
                        inner.stats.corrupt_discards += 1;
                        gsampler_obs::event(
                            "plan",
                            "cache.corrupt",
                            &[
                                ("path", gsampler_obs::Arg::Str(path.display().to_string())),
                                ("reason", gsampler_obs::Arg::Str(reason)),
                                ("bytes", gsampler_obs::Arg::from(text.len())),
                            ],
                        );
                    }
                }
            }
        }
        Ok(db)
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The backing file, if persistent.
    pub fn path(&self) -> Option<PathBuf> {
        self.inner.lock().path.clone()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PlanDbStats {
        self.inner.lock().stats
    }

    /// Look up the plan for `key`, judging freshness against the current
    /// graph stats. Counts and emits the matching `plan/cache.*` event.
    pub fn lookup(&self, key: &PlanKey, current: &GraphSummary) -> Lookup {
        let skey = key.to_string_key();
        let mut inner = self.inner.lock();
        match inner.entries.get(&skey).cloned() {
            None => {
                inner.stats.misses += 1;
                drop(inner);
                gsampler_obs::event("plan", "cache.miss", &[("key", Arg::Str(skey))]);
                Lookup::Miss
            }
            Some(artifact) => {
                let drift = current.drift_from(&artifact.graph);
                if drift > DRIFT_THRESHOLD {
                    inner.stats.drifts += 1;
                    drop(inner);
                    gsampler_obs::event(
                        "plan",
                        "cache.drift",
                        &[
                            ("key", Arg::Str(skey)),
                            ("drift", Arg::Num(drift)),
                            ("threshold", Arg::Num(DRIFT_THRESHOLD)),
                        ],
                    );
                    Lookup::Drift(artifact)
                } else {
                    inner.stats.hits += 1;
                    inner.touch(&skey);
                    drop(inner);
                    gsampler_obs::event(
                        "plan",
                        "cache.hit",
                        &[("key", Arg::Str(skey)), ("drift", Arg::Num(drift))],
                    );
                    Lookup::Hit(artifact)
                }
            }
        }
    }

    /// Insert (or update) the plan for `key`, evicting the least recently
    /// used entry past capacity and rewriting the backing file if any.
    pub fn insert(&self, key: &PlanKey, artifact: PlanArtifact) {
        let skey = key.to_string_key();
        let mut inner = self.inner.lock();
        inner.stats.inserts += 1;
        if inner.entries.insert(skey.clone(), artifact).is_none() {
            inner.order.push(skey.clone());
        }
        // A new artifact invalidates whatever compiled payload rode on the
        // previous one.
        inner.payloads.remove(&skey);
        inner.touch(&skey);
        let mut evicted = 0u64;
        while inner.order.len() > CAPACITY {
            let victim = inner.order.remove(0);
            inner.entries.remove(&victim);
            inner.payloads.remove(&victim);
            inner.stats.evictions += 1;
            evicted += 1;
        }
        let persist = inner.path.clone().map(|p| (p, to_json_locked(&inner)));
        drop(inner);
        gsampler_obs::event(
            "plan",
            "cache.insert",
            &[
                ("key", Arg::Str(skey)),
                ("evicted", Arg::Num(evicted as f64)),
            ],
        );
        if let Some((path, json)) = persist {
            // Persistence is best-effort: an unwritable path must not fail
            // the compile that produced a perfectly good in-memory plan.
            if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
                gsampler_obs::event(
                    "warn",
                    "plandb.persist_failed",
                    &[
                        ("path", Arg::Str(path.display().to_string())),
                        ("error", Arg::Str(e.to_string())),
                    ],
                );
            }
        }
    }

    /// Attach a same-process compiled payload to `key`'s entry (no-op if
    /// the entry does not exist or was evicted). Payloads are an in-memory
    /// acceleration only — they are never persisted, so a database loaded
    /// from disk starts payload-free and hits go through the passes.
    pub fn attach_payload(&self, key: &PlanKey, payload: Arc<dyn std::any::Any + Send + Sync>) {
        let skey = key.to_string_key();
        let mut inner = self.inner.lock();
        if inner.entries.contains_key(&skey) {
            inner.payloads.insert(skey, payload);
        }
    }

    /// The compiled payload attached to `key`, if any. Callers must treat
    /// a payload as a hint: downcast and validate against the current
    /// inputs before trusting it.
    pub fn payload(&self, key: &PlanKey) -> Option<Arc<dyn std::any::Any + Send + Sync>> {
        self.inner
            .lock()
            .payloads
            .get(&key.to_string_key())
            .cloned()
    }

    /// Serialize the whole database (entries in LRU order).
    pub fn to_json(&self) -> Json {
        to_json_locked(&self.inner.lock())
    }
}

// --- serialization (obs::json is the one JSON implementation) -----------

/// `u64` fingerprints exceed `f64`'s exact-integer range, so they travel
/// as hex strings.
fn hex(v: u64) -> Json {
    Json::Str(format!("{v:#018x}"))
}

fn parse_hex(j: &Json) -> Result<u64, String> {
    let s = j.as_str().ok_or("fingerprint: expected hex string")?;
    let digits = s.strip_prefix("0x").unwrap_or(s);
    u64::from_str_radix(digits, 16).map_err(|e| format!("fingerprint {s:?}: {e}"))
}

fn field<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn num(j: &Json, key: &str) -> Result<f64, String> {
    field(j, key)?
        .as_f64()
        .ok_or_else(|| format!("field {key:?}: expected number"))
}

impl GraphSummary {
    /// Serialize to JSON.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("num_nodes".into(), Json::Num(self.num_nodes)),
            ("num_edges".into(), Json::Num(self.num_edges)),
            ("feature_dim".into(), Json::Num(self.feature_dim)),
        ])
    }

    /// Deserialize from JSON.
    pub fn from_json(j: &Json) -> Result<GraphSummary, String> {
        Ok(GraphSummary {
            num_nodes: num(j, "num_nodes")?,
            num_edges: num(j, "num_edges")?,
            feature_dim: num(j, "feature_dim")?,
        })
    }
}

impl LayoutDecision {
    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("op".into(), Json::Num(self.op_id as f64)),
            ("format".into(), Json::Str(self.format.name().into())),
            ("compact".into(), Json::Bool(self.compact)),
        ])
    }

    fn from_json(j: &Json) -> Result<LayoutDecision, String> {
        let fmt_name = field(j, "format")?
            .as_str()
            .ok_or("format: expected string")?;
        let format = Format::ALL
            .into_iter()
            .find(|f| f.name() == fmt_name)
            .ok_or_else(|| format!("unknown format {fmt_name:?}"))?;
        let compact = matches!(field(j, "compact")?, Json::Bool(true));
        Ok(LayoutDecision {
            op_id: num(j, "op")? as usize,
            format,
            compact,
        })
    }
}

impl LayerPlanRec {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("fingerprint".into(), hex(self.fingerprint)),
            (
                "decisions".into(),
                Json::Arr(self.plan.decisions.iter().map(|d| d.to_json()).collect()),
            ),
            ("est_time".into(), Json::Num(self.plan.est_time)),
            ("natural_time".into(), Json::Num(self.plan.natural_time)),
        ])
    }

    fn from_json(j: &Json) -> Result<LayerPlanRec, String> {
        let decisions = field(j, "decisions")?
            .as_arr()
            .ok_or("decisions: expected array")?
            .iter()
            .map(LayoutDecision::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(LayerPlanRec {
            fingerprint: parse_hex(field(j, "fingerprint")?)?,
            plan: LayoutPlan {
                decisions,
                est_time: num(j, "est_time")?,
                natural_time: num(j, "natural_time")?,
            },
        })
    }
}

impl PlanArtifact {
    /// Serialize to JSON.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "layers".into(),
                Json::Arr(self.layers.iter().map(|l| l.to_json()).collect()),
            ),
            (
                "super_batch".into(),
                Json::Obj(vec![
                    ("planned".into(), Json::Bool(self.super_batch.planned)),
                    ("factor".into(), Json::Num(self.super_batch.factor as f64)),
                ]),
            ),
            ("graph".into(), self.graph.to_json()),
            ("device".into(), Json::Str(self.device.clone())),
        ])
    }

    /// Deserialize from JSON.
    pub fn from_json(j: &Json) -> Result<PlanArtifact, String> {
        let layers = field(j, "layers")?
            .as_arr()
            .ok_or("layers: expected array")?
            .iter()
            .map(LayerPlanRec::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let sb = field(j, "super_batch")?;
        let super_batch = SuperBatchRec {
            planned: matches!(field(sb, "planned")?, Json::Bool(true)),
            factor: (num(sb, "factor")? as usize).max(1),
        };
        Ok(PlanArtifact {
            layers,
            super_batch,
            graph: GraphSummary::from_json(field(j, "graph")?)?,
            device: field(j, "device")?
                .as_str()
                .ok_or("device: expected string")?
                .to_string(),
        })
    }
}

fn to_json_locked(inner: &Inner) -> Json {
    let entries: Vec<Json> = inner
        .order
        .iter()
        .filter_map(|k| {
            inner.entries.get(k).map(|a| {
                Json::Obj(vec![
                    ("key".into(), Json::Str(k.clone())),
                    ("artifact".into(), a.to_json()),
                ])
            })
        })
        .collect();
    Json::Obj(vec![
        ("version".into(), Json::Num(1.0)),
        ("entries".into(), Json::Arr(entries)),
    ])
}

type Entries = (std::collections::HashMap<String, PlanArtifact>, Vec<String>);

fn entries_from_json(j: &Json) -> Result<Entries, String> {
    let version = num(j, "version")? as u64;
    if version != 1 {
        return Err(format!("unsupported plan-db version {version}"));
    }
    let mut entries = std::collections::HashMap::new();
    let mut order = Vec::new();
    for e in field(j, "entries")?
        .as_arr()
        .ok_or("entries: expected array")?
    {
        let key = field(e, "key")?
            .as_str()
            .ok_or("key: expected string")?
            .to_string();
        let artifact = PlanArtifact::from_json(field(e, "artifact")?)?;
        if entries.insert(key.clone(), artifact).is_none() {
            order.push(key);
        }
    }
    Ok((entries, order))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(nodes: f64) -> PlanArtifact {
        PlanArtifact {
            layers: vec![LayerPlanRec {
                fingerprint: 0xDEAD_BEEF_1234_5678,
                plan: LayoutPlan {
                    decisions: vec![
                        LayoutDecision {
                            op_id: 2,
                            format: Format::Csr,
                            compact: true,
                        },
                        LayoutDecision {
                            op_id: 5,
                            format: Format::Coo,
                            compact: false,
                        },
                    ],
                    est_time: 1.5e-3,
                    natural_time: 2.5e-3,
                },
            }],
            super_batch: SuperBatchRec {
                planned: true,
                factor: 8,
            },
            graph: GraphSummary {
                num_nodes: nodes,
                num_edges: nodes * 12.0,
                feature_dim: 64.0,
            },
            device: "V100".to_string(),
        }
    }

    fn key(fp: u64, g: &GraphSummary) -> PlanKey {
        PlanKey {
            program_fp: fp,
            graph_bucket: g.bucket(),
            device: "V100".to_string(),
        }
    }

    #[test]
    fn artifact_round_trips_through_json() {
        let a = artifact(100_000.0);
        let text = a.to_json().to_string();
        let parsed = PlanArtifact::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(a, parsed);
    }

    #[test]
    fn fingerprints_round_trip_above_f64_precision() {
        // 2^53 + 1 is not representable as f64; hex strings must be exact.
        let mut a = artifact(10.0);
        a.layers[0].fingerprint = (1u64 << 53) + 1;
        let text = a.to_json().to_string();
        let parsed = PlanArtifact::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed.layers[0].fingerprint, (1u64 << 53) + 1);
    }

    #[test]
    fn hit_miss_and_insert_counted() {
        let db = PlanDb::in_memory();
        let a = artifact(1000.0);
        let k = key(1, &a.graph);
        assert_eq!(db.lookup(&k, &a.graph), Lookup::Miss);
        db.insert(&k, a.clone());
        assert_eq!(db.lookup(&k, &a.graph), Lookup::Hit(a.clone()));
        let s = db.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn drift_past_threshold_reported() {
        let db = PlanDb::in_memory();
        let a = artifact(1200.0);
        let k = key(2, &a.graph);
        db.insert(&k, a.clone());
        // +8% nodes: same log2 bucket, inside the threshold -> hit.
        let near = GraphSummary {
            num_nodes: 1300.0,
            num_edges: 1300.0 * 12.0,
            ..a.graph
        };
        assert_eq!(k.graph_bucket, near.bucket());
        assert!(matches!(db.lookup(&k, &near), Lookup::Hit(_)));
        // +60% edges at fixed nodes: past the threshold -> drift.
        let far = GraphSummary {
            num_edges: a.graph.num_edges * 1.6,
            ..a.graph
        };
        assert!(matches!(db.lookup(&k, &far), Lookup::Drift(_)));
        assert_eq!(db.stats().drifts, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let db = PlanDb::in_memory();
        let a = artifact(1000.0);
        let keys: Vec<PlanKey> = (0..=CAPACITY as u64).map(|fp| key(fp, &a.graph)).collect();
        for k in &keys[..CAPACITY] {
            db.insert(k, a.clone());
        }
        assert_eq!((db.len(), db.stats().evictions), (CAPACITY, 0));
        // Touch the oldest entry so the second-oldest becomes the victim
        // of the insert that goes past capacity.
        assert!(matches!(db.lookup(&keys[0], &a.graph), Lookup::Hit(_)));
        db.insert(&keys[CAPACITY], a.clone());
        assert_eq!(db.len(), CAPACITY);
        assert!(matches!(db.lookup(&keys[0], &a.graph), Lookup::Hit(_)));
        assert_eq!(db.lookup(&keys[1], &a.graph), Lookup::Miss);
        assert_eq!(db.stats().evictions, 1);
    }

    /// A database file written by the previous release (before the layout
    /// plan types were unified) — `gsample graphsage --dataset tiny
    /// --budget 64 --plan-db ..`, verbatim. The on-disk field names are a
    /// compatibility surface: it must load, not be discarded as corrupt.
    const PARENT_FILE: &str = r#"{"version":1,"entries":[{"key":"fp5c330ba277be5ec5/n8e11f16/V100","artifact":{"layers":[{"fingerprint":"0xf27a59e71902edeb","decisions":[{"op":2,"format":"csc","compact":false}],"est_time":0.00002465276767676768,"natural_time":0.00002465276767676768},{"fingerprint":"0x6741b665caabd759","decisions":[{"op":2,"format":"csc","compact":false}],"est_time":0.00002101187878787879,"natural_time":0.00002101187878787879}],"super_batch":{"planned":true,"factor":16},"graph":{"num_nodes":256,"num_edges":3584,"feature_dim":16},"device":"V100"}}]}"#;

    #[test]
    fn file_written_by_previous_release_still_loads() {
        let dir = std::env::temp_dir().join(format!("gs-plandb-compat-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plans.json");
        std::fs::write(&path, format!("{PARENT_FILE}\n")).unwrap();
        let db = PlanDb::open(&path).unwrap();
        assert_eq!((db.len(), db.stats().corrupt_discards), (1, 0));
        let graph = GraphSummary {
            num_nodes: 256.0,
            num_edges: 3584.0,
            feature_dim: 16.0,
        };
        let k = PlanKey {
            program_fp: 0x5c33_0ba2_77be_5ec5,
            graph_bucket: graph.bucket(),
            device: "V100".to_string(),
        };
        let Lookup::Hit(a) = db.lookup(&k, &graph) else {
            panic!("previous-release entry not found under its key");
        };
        assert_eq!(a.super_batch.factor, 16);
        assert_eq!(a.layers[0].fingerprint, 0xf27a_59e7_1902_edeb);
        assert_eq!(
            a.layers[1].plan.decisions,
            vec![LayoutDecision {
                op_id: 2,
                format: Format::Csc,
                compact: false,
            }]
        );
        assert_eq!(a.layers[1].plan.est_time, 0.00002101187878787879);
        // And what this release writes back is the same text.
        assert_eq!(db.to_json().to_string(), PARENT_FILE);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn persistence_round_trips() {
        let dir = std::env::temp_dir().join(format!("gs-plandb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plans.json");
        let _ = std::fs::remove_file(&path);
        let a = artifact(50_000.0);
        let k = key(42, &a.graph);
        {
            let db = PlanDb::open(&path).unwrap();
            assert!(db.is_empty());
            db.insert(&k, a.clone());
        }
        let db = PlanDb::open(&path).unwrap();
        assert_eq!(db.len(), 1);
        assert_eq!(db.lookup(&k, &a.graph), Lookup::Hit(a));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_file_is_discarded_not_fatal() {
        let dir = std::env::temp_dir().join(format!("gs-plandb-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Malformed JSON, a truncated write, and an unsupported format
        // version must all open as an *empty* database (one
        // corrupt_discards tick each), keep the path, and recover on the
        // next insert: the rewritten file reloads cleanly.
        for (name, bytes) in [
            ("bad.json", "{not json".to_string()),
            (
                "trunc.json",
                "{\"version\":1,\"entries\":[{\"key\":\"x".to_string(),
            ),
            ("vers.json", "{\"version\":999,\"entries\":[]}".to_string()),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, bytes).unwrap();
            let db = PlanDb::open(&path).expect("stale data must not be fatal");
            assert!(db.is_empty(), "{name}: corrupt entries were not discarded");
            assert_eq!(db.stats().corrupt_discards, 1, "{name}");
            assert_eq!(db.path().as_deref(), Some(path.as_path()), "{name}");
            let a = artifact(1000.0);
            db.insert(&key(7, &a.graph), a.clone());
            let reopened = PlanDb::open(&path).unwrap();
            assert_eq!(
                reopened.len(),
                1,
                "{name}: rewrite did not recover the file"
            );
            assert_eq!(reopened.stats().corrupt_discards, 0, "{name}");
            let _ = std::fs::remove_file(&path);
        }
        // A genuinely unreadable path is still an I/O error.
        assert!(PlanDb::open(&dir).is_err(), "reading a directory must fail");
    }

    #[test]
    fn stats_delta_and_merge() {
        let db = PlanDb::in_memory();
        let a = artifact(1000.0);
        let k = key(7, &a.graph);
        let before = db.stats();
        db.insert(&k, a.clone());
        let _ = db.lookup(&k, &a.graph);
        let delta = db.stats().since(&before);
        assert_eq!((delta.hits, delta.inserts), (1, 1));
        let mut merged = PlanDbStats::default();
        merged.merge(&delta);
        merged.merge(&delta);
        assert_eq!(merged.hits, 2);
        assert!(merged.any());
    }

    #[test]
    fn bucket_is_log_scale() {
        let a = GraphSummary {
            num_nodes: 1500.0,
            num_edges: 20_000.0,
            feature_dim: 8.0,
        };
        let b = GraphSummary {
            num_nodes: 2000.0, // same [1024, 2048) bucket
            num_edges: 30_000.0,
            feature_dim: 8.0,
        };
        assert_eq!(a.bucket(), b.bucket());
        let c = GraphSummary {
            num_nodes: 5000.0,
            ..a
        };
        assert_ne!(a.bucket(), c.bucket());
    }
}
