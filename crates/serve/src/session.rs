//! Tenant sessions: each tenant owns a compiled [`Sampler`] (its own seed
//! and device session) over the server's shared immutable graph, with
//! compiles routed through the server's shared plan database so sessions
//! running the same program hit warm plans.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use gsampler_algos::nodewise;
use gsampler_core::builder::Layer;
use gsampler_core::{compile, Graph, OptConfig, PlanDb, Sampler, SamplerConfig};

use crate::error::{Result, ServeError};
use crate::server::ServeConfig;

/// Which sampling program a tenant runs. Tenants with equal algorithms
/// (and batch sizes) compile to structurally identical plans, which is
/// what makes their requests packable into one super-batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Algorithm {
    /// GraphSAGE: per-layer uniform node-wise fanout sampling.
    GraphSage {
        /// Neighbours sampled per frontier node, one entry per layer.
        fanouts: Vec<usize>,
    },
    /// VR-GCN: GraphSAGE-style sampling that also emits the full
    /// candidate row set per layer.
    VrGcn {
        /// Neighbours sampled per frontier node, one entry per layer.
        fanouts: Vec<usize>,
    },
}

impl Algorithm {
    /// Build the per-layer programs.
    pub fn layers(&self) -> Vec<Layer> {
        match self {
            Algorithm::GraphSage { fanouts } => nodewise::graphsage(fanouts),
            Algorithm::VrGcn { fanouts } => nodewise::vrgcn(fanouts),
        }
    }

    /// Structural identity for pack grouping: requests may share a
    /// super-batch only when their sessions compiled the same programs.
    pub fn pack_key(&self) -> String {
        format!("{self:?}")
    }
}

/// One tenant's registration: identity, program, RNG root.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Unique tenant name.
    pub name: String,
    /// The sampling program this tenant runs.
    pub algorithm: Algorithm,
    /// Root RNG seed — the tenant's whole sampling sequence is a pure
    /// function of `(seed, request stream)`, independent of co-tenants.
    pub seed: u64,
    /// Mini-batch size the session's plans are built for.
    pub batch_size: usize,
}

impl TenantSpec {
    /// A GraphSAGE tenant with the given fanouts.
    pub fn graphsage(name: impl Into<String>, fanouts: &[usize], seed: u64) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            algorithm: Algorithm::GraphSage {
                fanouts: fanouts.to_vec(),
            },
            seed,
            batch_size: 64,
        }
    }
}

/// A live session: the compiled sampler plus serving state.
pub struct Session {
    /// The registration this session was built from.
    pub spec: TenantSpec,
    /// The tenant's compiled sampler (own seed, own device session).
    /// Request `stream` draws with `sampler.key(stream)`, the key
    /// `sample_batch_seeded` uses, so a served reply is bit-identical to a
    /// direct call.
    pub sampler: Arc<Sampler>,
    /// Set when the recovery policy quarantines the session; subsequent
    /// requests are rejected with a typed error.
    pub quarantined: AtomicBool,
    /// Requests submitted so far (1-based counter used by the chaos
    /// targeting hooks).
    pub submitted: AtomicU64,
}

impl Session {
    /// Compile a session over `graph`, routing the plan search through
    /// `plan_db` (shared across the server, so same-program sessions hit
    /// warm plans).
    pub fn compile(
        graph: Arc<Graph>,
        plan_db: Arc<PlanDb>,
        spec: TenantSpec,
        config: &ServeConfig,
    ) -> Result<Session> {
        let sampler_config = SamplerConfig {
            opt: OptConfig::all(),
            seed: spec.seed,
            device: config.device.clone(),
            batch_size: spec.batch_size.max(1),
            recovery: config.recovery.clone(),
            plan_db: Some(plan_db),
            ..SamplerConfig::new()
        };
        let sampler = compile(graph, spec.algorithm.layers(), sampler_config)
            .map_err(|e| ServeError::Compile(format!("{}: {e}", spec.name)))?;
        Ok(Session {
            spec,
            sampler: Arc::new(sampler),
            quarantined: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
        })
    }

    /// Whether the session has been quarantined.
    pub(crate) fn is_quarantined(&self) -> bool {
        self.quarantined.load(Ordering::Acquire)
    }

    /// Mark the session quarantined (recovery exhausted).
    pub fn quarantine(&self) {
        self.quarantined.store(true, Ordering::Release);
    }
}
