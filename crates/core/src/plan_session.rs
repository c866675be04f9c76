//! One compile's conversation with the plan database.
//!
//! [`PlanSession::open`] builds the key and looks it up; the compile loop
//! asks it, per layer, for the compiled payload or the cached layout plan
//! to hand to the pass pipeline; [`PlanSession::commit`] records what the
//! pipeline returned. Nothing here decides *how* a cached plan is used —
//! that is `gsampler_ir::passes::layout::resolve`.

use std::sync::{Arc, Weak};

use gsampler_engine::plandb::{
    GraphSummary, LayerPlanRec, Lookup, PlanArtifact, PlanDb, PlanKey, SuperBatchRec,
};
use gsampler_ir::passes::{CachedPlan, OptConfig, OptimizedProgram};
use gsampler_ir::{GraphStats, Program};

use crate::builder::Layer;
use crate::compile::{CompiledLayer, SamplerConfig};
use crate::graph::Graph;
use crate::value::Value;

/// The plan-database key side of a graph: exact stats as floats (the
/// artifact stores these as the drift reference; the key uses the
/// log₂-bucketed form).
fn graph_summary(stats: &GraphStats) -> GraphSummary {
    GraphSummary {
        num_nodes: stats.num_nodes as f64,
        num_edges: stats.num_edges as f64,
        feature_dim: stats.feature_dim as f64,
    }
}

/// Build the plan-database key: an FNV-1a fold of every layer's canonical
/// program fingerprint plus each compile knob that changes what the
/// planner would decide (pass config, batch size, budget, residency),
/// combined with the bucketed graph summary and the device profile name.
/// Two compiles that agree on all of these would search identical plans —
/// exactly the condition under which taking a cached one is sound.
fn plan_key(layer_fps: &[u64], config: &SamplerConfig, graph: &Graph) -> PlanKey {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = OFFSET;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for fp in layer_fps {
        fold(&fp.to_le_bytes());
    }
    // Exhaustive on purpose: a new `OptConfig` field fails to compile here
    // until it is folded into the key, so two configurations can never
    // share an entry (and its compiled payload) by omission.
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
        program_fp: h,
        graph_bucket: graph_summary(&graph.stats()).bucket(),
        device: config.device.name.to_string(),
    }
}

/// Fully-compiled result attached to an in-memory plan entry (the
/// type-erased payload behind [`PlanDb::attach_payload`]). A persisted
/// plan still goes through the passes, but within one process the
/// compiler can do better: reuse the compiled programs and precomputed
/// values outright. Plans are transferable across graphs in the same stat
/// bucket; compiled values are not, so the payload pins the exact graph
/// object and the exact source programs and is ignored on any mismatch.
struct CompiledPayload {
    /// The graph this was compiled against (identity, not stats: two
    /// graphs can share a bucket yet differ edge-for-edge).
    graph: Weak<Graph>,
    layers: Vec<PayloadLayer>,
}

pub(crate) struct PayloadLayer {
    /// The layer's source program, pre-optimization. Equality against the
    /// incoming program is the guarantee that reusing `optimized` is
    /// bit-identical to recompiling (the passes are deterministic).
    source: Program,
    pub(crate) optimized: Arc<OptimizedProgram>,
    pub(crate) precomputed: Vec<Arc<Value>>,
}

/// The database's answer for one compile, and where its result goes back.
pub(crate) struct PlanSession<'a> {
    db: &'a PlanDb,
    key: PlanKey,
    layer_fps: Vec<u64>,
    /// The cached artifact (only one with a plan per layer) and whether
    /// it is fresh — a hit, not a drift.
    cached: Option<(PlanArtifact, bool)>,
    payload: Option<Arc<CompiledPayload>>,
}

impl<'a> PlanSession<'a> {
    /// Key the compile and look it up.
    pub(crate) fn open(
        db: &'a PlanDb,
        graph: &Arc<Graph>,
        layers: &[Layer],
        config: &SamplerConfig,
    ) -> PlanSession<'a> {
        let layer_fps: Vec<u64> = layers.iter().map(|l| l.program.fingerprint()).collect();
        let key = plan_key(&layer_fps, config, graph);
        let cached = match db.lookup(&key, &graph_summary(&graph.stats())) {
            Lookup::Hit(a) => Some((a, true)),
            Lookup::Drift(a) => Some((a, false)),
            Lookup::Miss => None,
        }
        .filter(|(a, _)| a.layers.len() == layers.len());
        // A fresh hit may carry the compiled payload from the compile that
        // inserted the plan. Trust it only for the very same graph object
        // and (per layer, in `payload_layer`) the very same source program
        // — then the reuse is bit-identical to recompiling.
        let payload = match cached {
            Some((_, true)) => db
                .payload(&key)
                .and_then(|p| p.downcast::<CompiledPayload>().ok())
                .filter(|p| {
                    p.layers.len() == layers.len()
                        && p.graph.upgrade().is_some_and(|g| Arc::ptr_eq(&g, graph))
                }),
            _ => None,
        };
        PlanSession {
            db,
            key,
            layer_fps,
            cached,
            payload,
        }
    }

    /// Layer `li`'s compiled payload, if this process already compiled
    /// exactly `program` against exactly this graph.
    pub(crate) fn payload_layer(&self, li: usize, program: &Program) -> Option<&PayloadLayer> {
        let layer = &self.payload.as_ref()?.layers[li];
        (layer.source == *program).then_some(layer)
    }

    /// Layer `li`'s cached layout plan, for the pass pipeline.
    pub(crate) fn cached_layout(&self, li: usize) -> Option<CachedPlan<'_>> {
        let (artifact, fresh) = self.cached.as_ref()?;
        let rec = &artifact.layers[li];
        (rec.fingerprint == self.layer_fps[li]).then_some(CachedPlan {
            plan: &rec.plan,
            fresh: *fresh,
        })
    }

    /// The cached super-batch factor, if a budget search planned it under
    /// stats that still hold.
    pub(crate) fn cached_factor(&self) -> Option<usize> {
        match &self.cached {
            Some((a, true)) if a.super_batch.planned => Some(a.super_batch.factor),
            _ => None,
        }
    }

    /// Record what the compile produced: insert the plan unless a fresh
    /// entry already says the same, and attach the compiled payload unless
    /// all of it (`payload_reused` layers) came from the payload.
    pub(crate) fn commit(
        self,
        graph: &Arc<Graph>,
        compiled: &[CompiledLayer],
        payload_reused: usize,
        super_batch: SuperBatchRec,
    ) {
        let layers: Vec<LayerPlanRec> = self
            .layer_fps
            .iter()
            .zip(compiled)
            .map(|(&fingerprint, c)| LayerPlanRec {
                fingerprint,
                plan: c.optimized.layout_plan.clone(),
            })
            .collect();
        let unchanged = matches!(&self.cached, Some((a, true))
            if a.layers == layers && a.super_batch == super_batch);
        if !unchanged {
            self.db.insert(
                &self.key,
                PlanArtifact {
                    layers,
                    super_batch,
                    graph: graph_summary(&graph.stats()),
                    device: self.key.device.clone(),
                },
            );
        }
        // After the insert, since inserting invalidates any prior payload.
        if payload_reused < compiled.len() {
            self.db.attach_payload(
                &self.key,
                Arc::new(CompiledPayload {
                    graph: Arc::downgrade(graph),
                    layers: compiled
                        .iter()
                        .map(|c| PayloadLayer {
                            source: c.layer.program.clone(),
                            optimized: c.optimized.clone(),
                            precomputed: c.precomputed.clone(),
                        })
                        .collect(),
                }),
            );
        }
    }
}
