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
use std::sync::{Arc, Mutex, MutexGuard, Weak};

use gsampler_engine::PlanDbStats;
use gsampler_ir::passes::{OptConfig, OptimizedProgram};
use gsampler_ir::Program;
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
    /// FNV-1a fold of every layer's canonical program fingerprint plus each
    /// compile knob that changes what the planner would decide (pass
    /// config, batch size, budget, factor cap, residency).
    fingerprint: u64,
    /// Address of the graph object. The entry's `Weak<Graph>` keeps that
    /// allocation from being reused, so an equal address *is* the graph
    /// the entry was compiled against.
    graph: usize,
    /// Device profile name.
    device: &'static str,
}

impl PlanKey {
    pub(crate) fn new(graph: &Arc<Graph>, layers: &[Layer], config: &SamplerConfig) -> PlanKey {
        const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = OFFSET;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        for layer in layers {
            fold(&layer.program.fingerprint().to_le_bytes());
        }
        // Exhaustive on purpose: a new `OptConfig` field fails to compile
        // here until it is folded into the key, so two configurations can
        // never share an entry by omission.
        let OptConfig {
            dce,
            cse,
            preprocess,
            fusion,
            layout,
            super_batch,
        } = &config.opt;
        fold(&[
            u8::from(*dce),
            u8::from(*cse),
            u8::from(*preprocess),
            u8::from(*fusion),
        ]);
        fold(format!("{layout:?}").as_bytes());
        fold(&(*super_batch as u64).to_le_bytes());
        fold(&(config.batch_size as u64).to_le_bytes());
        match config.auto_super_batch_budget {
            Some(b) => fold(&b.to_bits().to_le_bytes()),
            None => fold(b"no-budget"),
        }
        fold(&(config.max_super_batch as u64).to_le_bytes());
        fold(format!("{:?}", graph.residency).as_bytes());
        PlanKey {
            fingerprint: h,
            graph: Arc::as_ptr(graph) as usize,
            device: config.device.name,
        }
    }

    fn event(&self, name: &str, extra: &[(&'static str, Arg)]) {
        if gsampler_obs::is_enabled() {
            let key = format!(
                "fp{:016x}/g{:x}/{}",
                self.fingerprint, self.graph, self.device
            );
            let mut args = vec![("key", Arg::Str(key))];
            args.extend_from_slice(extra);
            gsampler_obs::event("plan", name, &args);
        }
    }
}

/// One layer of a [`CompiledPlan`].
pub(crate) struct PlannedLayer {
    /// The layer's source program, pre-optimization. Equality against the
    /// incoming program is the guarantee that reusing `optimized` is
    /// bit-identical to recompiling (fingerprints can collide).
    source: Program,
    pub(crate) optimized: Arc<OptimizedProgram>,
    pub(crate) hoist: Arc<Hoist>,
}

/// The cached product of one compile.
pub(crate) struct CompiledPlan {
    /// The graph this was compiled against; weak, so the database never
    /// keeps a graph alive — an entry whose graph is gone is purged.
    graph: Weak<Graph>,
    pub(crate) layers: Vec<PlannedLayer>,
    /// The final super-batch factor.
    pub(crate) super_batch: usize,
}

impl CompiledPlan {
    pub(crate) fn new(
        graph: &Arc<Graph>,
        compiled: &[CompiledLayer],
        super_batch: usize,
    ) -> CompiledPlan {
        CompiledPlan {
            graph: Arc::downgrade(graph),
            layers: compiled
                .iter()
                .map(|c| PlannedLayer {
                    source: c.layer.program.clone(),
                    optimized: c.optimized.clone(),
                    hoist: c.hoist.clone(),
                })
                .collect(),
            super_batch,
        }
    }

    /// Whether this is a compile of exactly `layers` against exactly
    /// `graph` (the object, not an equal one).
    fn matches(&self, graph: &Arc<Graph>, layers: &[Layer]) -> bool {
        std::ptr::eq(self.graph.as_ptr(), Arc::as_ptr(graph))
            && self.layers.len() == layers.len()
            && self
                .layers
                .iter()
                .zip(layers)
                .all(|(p, l)| p.source == l.program)
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

    /// The cached compile of `layers` against `graph` under `key`, if any.
    /// Counts a hit or a miss and emits the matching `plan/cache.*` event.
    pub(crate) fn lookup(
        &self,
        key: &PlanKey,
        graph: &Arc<Graph>,
        layers: &[Layer],
    ) -> Option<Arc<CompiledPlan>> {
        let mut inner = self.lock();
        inner.clock += 1;
        let now = inner.clock;
        let hit = inner
            .entries
            .get_mut(key)
            .filter(|e| e.plan.matches(graph, layers))
            .map(|e| {
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
        key.event(name, &[]);
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
        key.event(
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
    fn key(fingerprint: u64, graph: &Arc<Graph>) -> PlanKey {
        PlanKey {
            fingerprint,
            graph: Arc::as_ptr(graph) as usize,
            device: "V100",
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
        assert!(db.lookup(&k, &g, &[]).is_none());
        assert_eq!(db.insert(k.clone(), empty_plan(&g)), 0);
        assert!(db.lookup(&k, &g, &[]).is_some());
        // Same key, different programs (a fingerprint collision): a miss.
        assert!(db.lookup(&k, &g, &[layer()]).is_none());
        let s = db.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 2, 1));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let db = PlanDb::in_memory();
        let g = graph();
        let keys: Vec<PlanKey> = (0..=CAPACITY as u64).map(|fp| key(fp, &g)).collect();
        for k in &keys[..CAPACITY] {
            db.insert(k.clone(), empty_plan(&g));
        }
        assert_eq!((db.len(), db.stats().evictions), (CAPACITY, 0));
        // Touch the oldest entry so the second-oldest becomes the victim
        // of the insert that goes past capacity.
        assert!(db.lookup(&keys[0], &g, &[]).is_some());
        assert_eq!(db.insert(keys[CAPACITY].clone(), empty_plan(&g)), 1);
        assert_eq!(db.len(), CAPACITY);
        assert!(db.lookup(&keys[0], &g, &[]).is_some());
        assert!(db.lookup(&keys[1], &g, &[]).is_none());
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
