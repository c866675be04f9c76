//! Optimization passes over sampling programs (paper §4.2–4.3).
//!
//! [`run_passes`] is the compile pipeline: CSE → pre-processing → fusion →
//! DCE → data-layout selection, each gated by [`OptConfig`] so ablation
//! experiments (paper Fig. 10) can toggle pass groups individually.

pub mod cse;
pub mod dce;
pub mod fusion;
pub mod layout;
pub mod preprocess;

pub use layout::{LayoutDecision, LayoutMode, LayoutPlan, LayoutReport};

use gsampler_engine::CostModel;
use gsampler_engine::Residency;

use crate::estimate::GraphStats;
use crate::facts::Facts;
use crate::program::Program;

/// Which optimization passes to run (the knobs of paper Fig. 10).
#[derive(Debug, Clone)]
pub struct OptConfig {
    /// Dead-code elimination.
    pub dce: bool,
    /// Common-subexpression elimination.
    pub cse: bool,
    /// Pre-processing: sink and hoist sampling-invariant compute.
    pub preprocess: bool,
    /// Operator fusion (Extract-Select/-Collective, Edge-Map(Reduce), Bias-Select).
    pub fusion: bool,
    /// Data-layout selection strategy.
    pub layout: LayoutMode,
    /// Super-batch size (number of mini-batches sampled together);
    /// planned separately by [`crate::superbatch`], stored here so the
    /// executor sees one config object.
    pub super_batch: usize,
}

impl OptConfig {
    /// Everything on: the default gSampler configuration ("C+D+B").
    pub fn all() -> OptConfig {
        OptConfig {
            dce: true,
            cse: true,
            preprocess: true,
            fusion: true,
            layout: LayoutMode::CostAware,
            super_batch: 1,
        }
    }

    /// Plain execution ("P" in Fig. 10): no IR optimization at all, greedy
    /// per-operator formats (the DGL-like strategy).
    pub fn plain() -> OptConfig {
        OptConfig {
            dce: false,
            cse: false,
            preprocess: false,
            fusion: false,
            layout: LayoutMode::Greedy,
            super_batch: 1,
        }
    }

    /// Computation optimizations only ("C"): fusion + pre-processing +
    /// DCE/CSE, greedy layouts.
    pub fn compute_only() -> OptConfig {
        OptConfig {
            layout: LayoutMode::Greedy,
            ..OptConfig::all()
        }
    }

    /// Enable super-batching with the given factor (builder-style).
    pub fn with_super_batch(mut self, s: usize) -> OptConfig {
        self.super_batch = s.max(1);
        self
    }

    /// Single-pass ablations of the full configuration: every config that
    /// turns exactly one pass (or pass group) off, plus the all-on
    /// reference and the fully plain config. Differential testing runs
    /// each ablation against the reference; optimization passes must
    /// never change sampling semantics (paper §4.2's correctness claim),
    /// so for seeded programs the outputs must agree variant-for-variant.
    pub fn ablations() -> Vec<(&'static str, OptConfig)> {
        let all = OptConfig::all;
        vec![
            ("all", all()),
            (
                "no-dce",
                OptConfig {
                    dce: false,
                    ..all()
                },
            ),
            (
                "no-cse",
                OptConfig {
                    cse: false,
                    ..all()
                },
            ),
            (
                "no-preprocess",
                OptConfig {
                    preprocess: false,
                    ..all()
                },
            ),
            (
                "no-fusion",
                OptConfig {
                    fusion: false,
                    ..all()
                },
            ),
            (
                "layout-greedy",
                OptConfig {
                    layout: LayoutMode::Greedy,
                    ..all()
                },
            ),
            (
                "layout-none",
                OptConfig {
                    layout: LayoutMode::None,
                    ..all()
                },
            ),
            ("plain", OptConfig::plain()),
        ]
    }
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig::all()
    }
}

/// What the pass pipeline did — used by ablation reporting and tests.
#[derive(Debug, Clone, Default)]
pub struct PassReport {
    /// Nodes removed by DCE.
    pub dce_removed: usize,
    /// Nodes deduplicated by CSE.
    pub cse_merged: usize,
    /// `Gemm(gather(X), W)` nodes CSE rewrote to `gather(Gemm(X, W))`.
    pub gather_through_gemm: usize,
    /// Nodes hoisted into the precompute program.
    pub preprocessed: usize,
    /// Row reductions pre-processing sank below the extraction.
    pub extract_reduce_fused: usize,
    /// Extract-Select fusions applied.
    pub extract_select_fused: usize,
    /// Extract-Collective fusions applied.
    pub extract_collective_fused: usize,
    /// Edge-map chain fusions applied.
    pub edge_map_fused: usize,
    /// Edge-map-reduce fusions applied.
    pub edge_map_reduce_fused: usize,
    /// Bias-Select fusions applied.
    pub bias_select_fused: usize,
    /// Layout decisions, if the layout pass ran.
    pub layout: Option<LayoutReport>,
}

/// The output of the compile pipeline.
#[derive(Debug, Clone)]
pub struct OptimizedProgram {
    /// The optimized per-batch program.
    pub program: Program,
    /// `program`'s fact table ([`crate::facts()`]), its slots typed by
    /// `precompute`'s outputs.
    pub facts: Vec<Facts>,
    /// Sampling-invariant subprogram (it reads the graph and bound inputs
    /// only), evaluated once per graph and set of bound inputs; its
    /// outputs fill the `Precomputed` slots of `program`.
    pub precompute: Program,
    /// `precompute`'s fact table.
    pub precompute_facts: Vec<Facts>,
    /// What the passes did.
    pub report: PassReport,
}

/// Run the configured passes over `program`, which must be valid
/// ([`Program::validate`]).
///
/// `stats`/`batch_size` feed shape estimation for the layout search, and
/// `cost_model`/`residency` price the alternatives.
pub fn run_passes(
    program: &Program,
    config: &OptConfig,
    stats: &GraphStats,
    batch_size: usize,
    cost_model: &CostModel,
    residency: Residency,
) -> OptimizedProgram {
    let mut pipeline_span = gsampler_obs::span("pass", "run_passes");
    pipeline_span.arg("ops_in", program.nodes().len());
    let mut report = PassReport::default();
    let mut prog = program.clone();

    if config.cse {
        let mut span = gsampler_obs::span("pass", "cse");
        (prog, report.cse_merged, report.gather_through_gemm) = cse::run(&prog);
        span.arg("merged", report.cse_merged);
        span.arg("gather_through_gemm", report.gather_through_gemm);
    }

    let mut precompute = Program::new();
    if config.preprocess {
        let mut span = gsampler_obs::span("pass", "preprocess");
        let r = preprocess::run(&prog);
        prog = r.program;
        precompute = r.precompute;
        report.preprocessed = r.hoisted;
        report.extract_reduce_fused = r.sunk;
        span.arg("hoisted", r.hoisted);
        span.arg("extract_reduce", r.sunk);
    }

    let precompute_facts = crate::facts(&precompute, &[]).expect("precompute programs are valid");
    let slot = |&o: &usize| precompute_facts[o];
    let slots: Vec<Facts> = precompute.outputs().iter().map(slot).collect();

    if config.fusion {
        let mut span = gsampler_obs::span("pass", "fusion");
        let r = fusion::run(&prog, &slots);
        prog = r.program;
        report.extract_select_fused = r.extract_select;
        report.extract_collective_fused = r.extract_collective;
        report.edge_map_fused = r.edge_map;
        report.edge_map_reduce_fused = r.edge_map_reduce;
        report.bias_select_fused = r.bias_select;
        span.arg("extract_select", r.extract_select);
        span.arg("extract_collective", r.extract_collective);
        span.arg("edge_map", r.edge_map);
        span.arg("edge_map_reduce", r.edge_map_reduce);
        span.arg("bias_select", r.bias_select);
    }

    if config.dce {
        let mut span = gsampler_obs::span("pass", "dce");
        let (p, removed) = dce::run(&prog);
        prog = p;
        report.dce_removed = removed;
        span.arg("removed", removed);
    }

    if config.layout != LayoutMode::None {
        let mut span = gsampler_obs::span("pass", "layout");
        let facts = crate::facts(&prog, &slots).expect("layout runs on a valid program");
        let plan = layout::search(
            &prog,
            &facts,
            &slots,
            config.layout,
            stats,
            batch_size * config.super_batch.max(1),
            cost_model,
            residency,
        );
        let (p, lr) = layout::apply(&prog, &facts, &plan);
        prog = p;
        span.arg("mode", format!("{:?}", config.layout));
        span.arg("conversions", lr.conversions);
        span.arg("compactions", lr.compactions);
        span.arg("est_time_s", lr.est_time);
        span.arg("natural_time_s", lr.natural_time);
        layout::emit_assignment_event(config.layout, &lr);
        report.layout = Some(lr);
    }
    pipeline_span.arg("ops_out", prog.nodes().len());

    let facts = crate::facts(&prog, &slots).unwrap_or_else(|e| panic!("pass broke program: {e}"));
    OptimizedProgram {
        program: prog,
        facts,
        precompute,
        precompute_facts,
        report,
    }
}
