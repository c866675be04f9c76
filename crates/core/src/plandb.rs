//! The plan database: a memo of whole compiles.
//!
//! Compilation runs the pass pipeline with its layout brute-force search
//! (paper §4.3), fills the graph-only precompute memos and walks the
//! super-batch grid (§4.4). A [`PlanDb`] maps everything those depend on —
//! the layer programs, every planning-relevant compile knob, the device
//! profile and the *identity* of the graph — to the compiled result, so a
//! second compile of the same program against the same graph object takes
//! the first one's optimized programs, hoisted-value memos and super-batch
//! factor as they are, so samplers that bind the same input `Arc`s fill a
//! binding-dependent memo once between them. The passes are deterministic,
//! so the reuse is bit-identical to recompiling.
//!
//! There is one tier. Hoisted values are per-graph, so nothing here
//! transfers to another graph (an equal-stats twin misses), and nothing is
//! persisted: what a decisions-only entry would spare a fresh process is
//! the layout search, ~0.1 ms of a ~1 ms compile (DESIGN §10).
//!
//! Degraded compiles (a plan that does not fit its memory budget, or a
//! device already on the streaming spill rung) are **not** inserted, so a
//! transient pressure episode cannot poison later compiles.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

use gsampler_engine::PlanDbStats;
use gsampler_ir::passes::OptimizedProgram;
use gsampler_ir::{identity, Program};
use gsampler_obs::Arg;

use crate::builder::Layer;
use crate::compile::{CompiledLayer, SamplerConfig};
use crate::graph::Graph;
use crate::hoist::Hoist;

/// Capacity of the LRU.
const CAPACITY: usize = 256;

/// What identifies a compile: two compiles with equal keys would run
/// identical passes, precomputes and searches.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    /// The [`identity`] of everything planning reads: every layer's source
    /// program, the pass config, batch size, budget, factor cap, the
    /// graph's residency and the whole device profile.
    planning: String,
    /// Address of the graph object. The entry's `Weak<Graph>` keeps that
    /// allocation from being reused, so an equal address *is* the graph
    /// the entry was compiled against.
    graph: usize,
}

impl PlanKey {
    /// The key of compiling `layers` for `graph` under `config`; `None`
    /// when those inputs have no identity (a `NaN` among them), so such a
    /// compile always misses and is never inserted.
    pub(crate) fn new(
        graph: &Arc<Graph>,
        layers: &[Layer],
        config: &SamplerConfig,
    ) -> Option<PlanKey> {
        let programs: Vec<&Program> = layers.iter().map(|l| &l.program).collect();
        let planning = identity(&(
            programs,
            &config.opt,
            config.batch_size,
            config.auto_super_batch_budget,
            config.max_super_batch,
            graph.residency,
            &config.device,
        ))?;
        let graph = Arc::as_ptr(graph) as usize;
        Some(PlanKey { planning, graph })
    }
}

/// Emit `plan/<name>` with the key as `<hash of the rendering>/g<graph
/// address>` (`none` for a compile without one).
fn event(key: Option<&PlanKey>, name: &str, extra: &[(&'static str, Arg)]) {
    if gsampler_obs::is_enabled() {
        let key = key.map_or("none".into(), |k| {
            let mut h = std::hash::DefaultHasher::new();
            k.planning.hash(&mut h);
            format!("{:016x}/g{:x}", h.finish(), k.graph)
        });
        let mut args = vec![("key", Arg::Str(key))];
        args.extend_from_slice(extra);
        gsampler_obs::event("plan", name, &args);
    }
}

/// The cached product of one compile.
pub(crate) struct CompiledPlan {
    /// The graph this was compiled against; weak, so the database never
    /// keeps a graph alive — an entry whose graph is gone is purged.
    graph: Weak<Graph>,
    /// Per layer, the optimized program and the memo of its hoisted values.
    pub(crate) layers: Vec<(Arc<OptimizedProgram>, Arc<Hoist>)>,
    /// The final super-batch factor.
    pub(crate) super_batch: usize,
}

impl CompiledPlan {
    pub(crate) fn new(
        graph: &Arc<Graph>,
        compiled: &[CompiledLayer],
        super_batch: usize,
    ) -> CompiledPlan {
        let layers = compiled
            .iter()
            .map(|c| (c.optimized.clone(), c.hoist.clone()));
        CompiledPlan {
            graph: Arc::downgrade(graph),
            layers: layers.collect(),
            super_batch,
        }
    }
}

struct Entry {
    plan: Arc<CompiledPlan>,
    /// Value of `Inner::clock` at the last hit or insert.
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<PlanKey, Entry>,
    clock: u64,
    stats: PlanDbStats,
}

/// Memo of compiled samplers, LRU-capped at 256 entries. Interior-mutable
/// so samplers can share one database behind an `Arc` without outer
/// locking.
#[derive(Default)]
pub struct PlanDb {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for PlanDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("PlanDb")
            .field("entries", &inner.entries.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

impl PlanDb {
    /// A fresh, empty database.
    pub fn in_memory() -> PlanDb {
        PlanDb::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // No user code runs under the lock and every update leaves the
        // maps consistent, so a poisoned guard is still valid.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of cached compiles.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PlanDbStats {
        self.lock().stats
    }

    /// The cached compile under `key`, if any (never for no key). Counts a
    /// hit or a miss and emits the matching `plan/cache.*` event.
    pub(crate) fn lookup(&self, key: Option<&PlanKey>) -> Option<Arc<CompiledPlan>> {
        let mut inner = self.lock();
        inner.clock += 1;
        let now = inner.clock;
        let hit = key.and_then(|k| inner.entries.get_mut(k)).map(|e| {
            e.last_used = now;
            e.plan.clone()
        });
        match hit {
            Some(_) => inner.stats.hits += 1,
            None => inner.stats.misses += 1,
        }
        drop(inner);
        let name = if hit.is_some() {
            "cache.hit"
        } else {
            "cache.miss"
        };
        event(key, name, &[]);
        hit
    }

    /// Insert (or replace) the compile under `key`. Entries whose graph
    /// has been dropped are purged first; past capacity the least recently
    /// used entry is evicted. Returns how many were evicted.
    pub(crate) fn insert(&self, key: PlanKey, plan: Arc<CompiledPlan>) -> u64 {
        let mut inner = self.lock();
        let before = inner.entries.len();
        inner.entries.retain(|_, e| e.plan.graph.strong_count() > 0);
        let purged = before - inner.entries.len();
        inner.clock += 1;
        let last_used = inner.clock;
        inner.entries.insert(key.clone(), Entry { plan, last_used });
        inner.stats.inserts += 1;
        let mut evicted = 0u64;
        while inner.entries.len() > CAPACITY {
            let victim = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("over capacity, so not empty");
            inner.entries.remove(&victim);
            evicted += 1;
        }
        inner.stats.evictions += evicted;
        drop(inner);
        event(
            Some(&key),
            "cache.insert",
            &[
                ("evicted", Arg::Num(evicted as f64)),
                ("purged", Arg::Num(purged as f64)),
            ],
        );
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LayerBuilder;
    use crate::compile::compile;

    fn graph() -> Arc<Graph> {
        let edges = [(1, 0, 1.0), (2, 0, 1.0), (3, 1, 1.0), (0, 2, 1.0)];
        Arc::new(Graph::from_edges("toy", 4, &edges, false).unwrap())
    }

    fn layer() -> Layer {
        let b = LayerBuilder::new();
        let sample = b
            .graph()
            .slice_cols(&b.frontiers())
            .individual_sample(2, None);
        b.output(&sample);
        b.build()
    }

    fn config(db: &Arc<PlanDb>) -> SamplerConfig {
        SamplerConfig {
            plan_db: Some(db.clone()),
            ..SamplerConfig::new()
        }
    }

    /// A key no compile would produce, for driving the map directly.
    fn key(n: u64, graph: &Arc<Graph>) -> PlanKey {
        PlanKey {
            planning: n.to_string(),
            graph: Arc::as_ptr(graph) as usize,
        }
    }

    fn empty_plan(graph: &Arc<Graph>) -> Arc<CompiledPlan> {
        Arc::new(CompiledPlan::new(graph, &[], 1))
    }

    #[test]
    fn hit_miss_and_insert_counted() {
        let db = PlanDb::in_memory();
        let g = graph();
        let k = key(1, &g);
        assert!(db.lookup(Some(&k)).is_none());
        assert_eq!(db.insert(k.clone(), empty_plan(&g)), 0);
        assert!(db.lookup(Some(&k)).is_some());
        // A compile without a key misses whatever is cached.
        assert!(db.lookup(None).is_none());
        let s = db.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 2, 1));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let db = PlanDb::in_memory();
        let g = graph();
        let keys: Vec<PlanKey> = (0..=CAPACITY as u64).map(|n| key(n, &g)).collect();
        for k in &keys[..CAPACITY] {
            db.insert(k.clone(), empty_plan(&g));
        }
        assert_eq!((db.len(), db.stats().evictions), (CAPACITY, 0));
        // Touch the oldest entry so the second-oldest becomes the victim
        // of the insert that goes past capacity.
        assert!(db.lookup(Some(&keys[0])).is_some());
        assert_eq!(db.insert(keys[CAPACITY].clone(), empty_plan(&g)), 1);
        assert_eq!(db.len(), CAPACITY);
        assert!(db.lookup(Some(&keys[0])).is_some());
        assert!(db.lookup(Some(&keys[1])).is_none());
        assert_eq!(db.stats().evictions, 1);
    }

    #[test]
    fn stats_delta_and_merge() {
        // Each compile reports its own lookup; merged, the reports are the
        // database's totals.
        let db = Arc::new(PlanDb::in_memory());
        let g = graph();
        let cold = compile(g.clone(), vec![layer()], config(&db)).unwrap();
        let warm = compile(g, vec![layer()], config(&db)).unwrap();
        let (cold, warm) = (cold.plan_db_stats(), warm.plan_db_stats());
        assert_eq!((cold.hits, cold.misses, cold.inserts), (0, 1, 1));
        assert_eq!((warm.hits, warm.misses, warm.inserts), (1, 0, 0));
        let mut merged = PlanDbStats::default();
        merged.merge(&cold);
        merged.merge(&warm);
        assert_eq!(merged, db.stats());
        assert!(merged.any());
    }
}
