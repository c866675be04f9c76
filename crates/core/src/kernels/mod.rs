//! The kernel registry: one implementation of every operator, shared by
//! all execution paths.
//!
//! Each operator family lives in its own module — [`slice_sample`]
//! (extract/select), [`matmul`] (SpMM, SDDMM, dense algebra), [`eltwise`]
//! (edge-map, reduce, vector ops), [`walk`] (random-walk frontier ops) —
//! with [`superbatch`] providing the segmented block-diagonal wrappers
//! over the same base kernels (paper §4.4). The standard executor
//! (`exec::execute`), the super-batch path, the multi-GPU shards, and the
//! DGL-like eager baseline all evaluate operators through [`run`] and
//! therefore run the *same math*; what differs between them is pure
//! scheduling policy (fusion, pre-processing, layout choice, dispatch
//! surcharges).
//!
//! [`dispatch`] is the instrumented entry point: it runs the kernel,
//! measures host wall-clock time, derives the `KernelDesc` workload from
//! actual shapes, and charges modeled time + utilization + wall time into
//! the device session's `ExecStats`.

pub mod eltwise;
pub mod matmul;
pub mod slice_sample;
pub mod superbatch;
pub mod walk;

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use gsampler_engine::{arena_metrics, faults, pool_metrics, Device, PoolError};
use gsampler_ir::{costing, Op, ShapeEst};
use gsampler_matrix::{Format, NodeId};
use gsampler_runtime::Key;

use crate::error::{Error, Result};
use crate::exec::Bindings;
use crate::graph::Graph;
use crate::value::Value;

/// Everything an operator evaluation can see: the bound graph, the
/// super-batch layout, per-batch bindings, and precomputed values.
pub struct ExecCtx<'a> {
    /// The graph this program runs against.
    pub graph: &'a Graph,
    /// Original node count (the row period of block-diagonal matrices).
    pub n: usize,
    /// Number of super-batched groups (1 = plain execution).
    pub s: usize,
    /// Prefix sums of group sizes in the concatenated frontier list.
    pub col_offsets: &'a [usize],
    /// All groups' frontiers, concatenated.
    pub concat_frontiers: &'a [NodeId],
    /// Named per-batch inputs.
    pub bindings: &'a Bindings,
    /// Values filling `Op::Precomputed` slots.
    pub precomputed: &'a [Arc<Value>],
}

impl<'a> ExecCtx<'a> {
    /// A plain single-batch context with no frontier segmentation — what
    /// the eager baseline uses to run individual kernels outside a
    /// compiled program.
    pub fn plain(graph: &'a Graph, bindings: &'a Bindings) -> ExecCtx<'a> {
        ExecCtx {
            graph,
            n: graph.num_nodes(),
            s: 1,
            col_offsets: &[0],
            concat_frontiers: &[],
            bindings,
            precomputed: &[],
        }
    }

    /// Check every frontier against the base graph's `ncols` columns up
    /// front, so the parallel passes of an extract kernel cannot fail.
    pub(crate) fn check_frontiers(&self, ncols: usize, op: &'static str) -> Result<()> {
        let bad = self.concat_frontiers.iter().find(|&&f| f as usize >= ncols);
        bad.map_or(Ok(()), |&f| {
            let (index, bound) = (f as usize, ncols);
            Err(gsampler_matrix::Error::IndexOutOfBounds { op, index, bound }.into())
        })
    }

    /// Block-row offset `b·N` of the group `b` that owns output column `c`.
    pub(crate) fn row_offset(&self, c: usize) -> NodeId {
        (group_of_col(self.col_offsets, c) * self.n) as NodeId
    }
}

/// The group whose half-open column range `col_offsets[b]..col_offsets[b+1]`
/// contains column `c` (empty groups own nothing).
pub fn group_of_col(col_offsets: &[usize], c: usize) -> usize {
    col_offsets.partition_point(|&o| o <= c).saturating_sub(1)
}

/// Input plumbing: a named input is the shared handle it was bound as (or,
/// for `"features"`, the one the graph carries). The executor fills the
/// slot with a pointer clone; no kernel runs and nothing is copied.
pub(crate) fn run_input(op: &Op, ctx: &ExecCtx<'_>) -> Result<Arc<Value>> {
    let (name, kind) = match op {
        Op::InputDense(name) => (name, "dense"),
        Op::InputVector(name) => (name, "vector"),
        Op::InputNodes(name) => (name, "nodes"),
        other => return Err(not_a_kernel(other)),
    };
    let bound = ctx.bindings.named.get(name);
    let features = match &ctx.graph.features {
        Some(table) if kind == "dense" && name == "features" => Some(&table.0),
        _ => None,
    };
    (bound
        .filter(|v| v.kind_name() == kind)
        .or(features)
        .cloned())
    .ok_or_else(|| Error::MissingBinding(name.clone()))
}

fn not_a_kernel(op: &Op) -> Error {
    Error::Execution(format!("{op:?} is a shared input slot, not a kernel"))
}

/// An evaluator: the op, its inputs, the context, and — for a randomized op
/// — one key per frontier group (see [`dispatch`]).
type RunFn = fn(&Op, &[&Value], &ExecCtx<'_>, &[Key]) -> Result<Value>;

/// The dispatch table every execution path shares: the family name of
/// `op` (the prefix of its kernel span name, `{family}::{op}`) and its
/// evaluator.
fn resolve(op: &Op) -> (&'static str, RunFn) {
    match op {
        Op::InputGraph
        | Op::InputFrontiers
        | Op::InputDense(..)
        | Op::InputVector(..)
        | Op::InputNodes(..)
        | Op::Precomputed { .. } => ("inputs", |op, _, _, _| Err(not_a_kernel(op))),

        Op::SliceCols
        | Op::SliceRows
        | Op::InduceSubgraph
        | Op::IndividualSample { .. }
        | Op::CollectiveSample { .. }
        | Op::FusedExtractSelect { .. }
        | Op::FusedExtractCollective { .. }
        | Op::FusedBiasSelect { .. }
        | Op::Convert(..)
        | Op::CompactRows
        | Op::RowNodes
        | Op::ColNodes
        | Op::AllRowIds => ("slice_sample", slice_sample::run),

        Op::Spmm
        | Op::SpmmT
        | Op::Gemm
        | Op::GemmT
        | Op::Sddmm
        | Op::DenseUnary(..)
        | Op::DenseSoftmaxRows
        | Op::DenseSoftmaxFlat
        | Op::DenseColumn { .. }
        | Op::DenseGatherRows
        | Op::StackEdgeValues
        | Op::EdgeValuesFromDense { .. } => ("matmul", matmul::run),

        Op::ScalarOp(..)
        | Op::UnaryOp(..)
        | Op::Broadcast(..)
        | Op::SparseElt(..)
        | Op::Reduce(..)
        | Op::VectorOp(..)
        | Op::VectorScalar(..)
        | Op::VectorSum
        | Op::VectorNormalize
        | Op::GatherVector
        | Op::GatherRowBias
        | Op::AlignRowVector
        | Op::FusedEdgeMap { .. }
        | Op::FusedEdgeMapReduce { .. }
        | Op::FusedExtractReduce { .. } => ("eltwise", eltwise::run),

        Op::NextWalkFrontier | Op::Node2VecBias { .. } => ("walk", walk::run),
    }
}

/// Evaluate `op` on `inputs`, uninstrumented (no device charge, no span).
pub fn run(op: &Op, inputs: &[&Value], ctx: &ExecCtx<'_>, keys: &[Key]) -> Result<Value> {
    (resolve(op).1)(op, inputs, ctx, keys)
}

/// Run one operator through the registry with full instrumentation:
/// evaluate, derive the workload from actual shapes, and charge modeled
/// time, SM utilization, host wall-clock time, and the worker-pool
/// occupancy delta (threads used, parallel efficiency) to `device`.
///
/// A randomized op ([`Op::is_random`]) draws with `keys`, one per frontier
/// group: group `b`'s draws are a function of `keys[b]` and their position
/// in the group's own columns or rows, so the group samples what it would
/// alone. Other ops ignore them.
pub fn dispatch(
    op: &Op,
    inputs: &[&Value],
    graph_input_resident: bool,
    ctx: &ExecCtx<'_>,
    device: &Device,
    keys: &[Key],
) -> Result<Value> {
    let (family, eval) = resolve(op);
    let in_fmts: Vec<Option<Format>> = inputs
        .iter()
        .map(|v| v.as_matrix().map(|m| m.data.format()))
        .collect();
    let in_shapes: Vec<ShapeEst> = inputs.iter().map(|v| v.shape_est()).collect();

    // Building the span name formats the op, so gate it on the flag to
    // keep the disabled path to one atomic load.
    let mut span = if gsampler_obs::is_enabled() {
        gsampler_obs::span("kernel", &format!("{family}::{}", op.name()))
    } else {
        gsampler_obs::SpanGuard::inert()
    };

    // Fault plane: a transient kernel failure injected at dispatch. One
    // relaxed atomic load when no schedule is installed.
    if faults::poll_kernel() {
        device.note_faults(|f| f.injected_kernel += 1);
        return Err(Error::Transient(format!(
            "injected kernel fault at {family}::{}",
            op.name()
        )));
    }

    // Cancellation: back out before starting work on a fired token. One
    // thread-local flag read when no token is installed — the same
    // disabled-path discipline as the span above.
    if let Some(cause) = gsampler_runtime::cancel::poll() {
        return Err(Error::from_cancel(cause));
    }

    let pool_before = pool_metrics();
    let arena_before = arena_metrics();
    let start = Instant::now();
    // A pool worker dying mid-kernel unwinds through here as a typed
    // `PoolError` (the pool has already respawned the worker). Contain it
    // as a transient, retryable failure of just this kernel; any other
    // panic is a real bug and keeps unwinding.
    let run_result = catch_unwind(AssertUnwindSafe(|| eval(op, inputs, ctx, keys)));
    let value = match run_result {
        Ok(result) => result?,
        Err(payload) => match payload.downcast::<PoolError>() {
            Ok(pool_err) => {
                device.note_faults(|f| f.worker_panics += 1);
                return Err(Error::Transient(format!(
                    "worker pool failure in {family}::{}: {}",
                    op.name(),
                    pool_err.message()
                )));
            }
            Err(other) => resume_unwind(other),
        },
    };
    let wall = start.elapsed().as_secs_f64();
    let pool = pool_metrics().since(&pool_before);
    let arena = arena_metrics().since(&arena_before);

    // Post-run cancellation check: a token that fired *during* the kernel
    // made the pool's chunk-claim loops bail between chunks, so `value`
    // may be built from partially-filled buffers. Discard it — the
    // cancelled window is re-derived from scratch if it ever reruns.
    if let Some(cause) = gsampler_runtime::cancel::poll() {
        return Err(Error::from_cancel(cause));
    }

    // Frontier-composition-aware cache accounting: when this op read the
    // resident graph driven by a frontier node list and the graph carries
    // a partial-residency plan, count which of *these* frontiers'
    // adjacency lists were pinned — the observed per-batch hit rate, not
    // the planner's byte-weighted prediction. Super-batched frontiers
    // arrive in block space (id + group × n); `% n` maps them back. An
    // extract-reduce re-reads the frontier list its layer's extract counts.
    if graph_input_resident && !matches!(op, Op::FusedExtractReduce { .. }) {
        if let Some(plan) = ctx.graph.cache_plan() {
            if let Some(nodes) = inputs.iter().find_map(|v| v.as_nodes()) {
                let n = ctx.n.max(1);
                let hits = nodes
                    .iter()
                    .filter(|&&id| plan.is_cached(id as usize % n))
                    .count() as u64;
                let misses = nodes.len() as u64 - hits;
                device.note_cache(hits, misses);
                if gsampler_obs::is_enabled() {
                    gsampler_obs::event(
                        "cache",
                        "batch",
                        &[
                            ("op", gsampler_obs::Arg::from(op.name())),
                            ("hits", gsampler_obs::Arg::from(hits)),
                            ("misses", gsampler_obs::Arg::from(misses)),
                        ],
                    );
                }
            }
        }
    }

    // `None` for free operators (pure input plumbing).
    if let Some(desc) = costing::kernel_desc(
        op,
        &in_fmts,
        &in_shapes,
        &value.shape_est(),
        ctx.graph.residency,
        graph_input_resident,
    ) {
        gsampler_obs::counter("kernel.dispatches", 1.0);
        // The span's arguments are traced-run work: the modeled seconds
        // come back from the charge, the rest is built only for a live span.
        let workload = gsampler_obs::is_enabled().then(|| desc.name.clone());
        let modeled = device.charge_timed_par(desc, wall, pool, arena);
        if let Some(workload) = workload {
            span.arg("workload", workload);
            span.arg("pool_regions", pool.regions);
            span.arg("pool_avg_threads", pool.avg_threads());
            span.arg("arena_takes", arena.takes);
            span.arg("arena_hits", arena.hits);
            span.arg("modeled_s", modeled);
        }
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsampler_engine::DeviceProfile;
    use gsampler_matrix::{EltOp, ReduceOp};

    fn graph() -> Graph {
        let edges: Vec<(u32, u32, f32)> = (0..24u32)
            .flat_map(|v| (1..4u32).map(move |d| ((v + d * 5) % 24, v, 1.0 + d as f32)))
            .collect();
        Graph::from_edges("t", 24, &edges, true).unwrap()
    }

    #[test]
    fn registry_covers_every_family() {
        let family = |op: &Op| resolve(op).0;
        assert_eq!(family(&Op::SliceCols), "slice_sample");
        assert_eq!(family(&Op::Spmm), "matmul");
        assert_eq!(
            family(&Op::Reduce(ReduceOp::Sum, gsampler_matrix::Axis::Row)),
            "eltwise"
        );
        assert_eq!(family(&Op::NextWalkFrontier), "walk");
        assert_eq!(family(&Op::InputFrontiers), "inputs");
    }

    #[test]
    fn dispatch_charges_workload_with_wall_time() {
        let g = graph();
        let bindings = Bindings::new();
        let ctx = ExecCtx::plain(&g, &bindings);
        let device = Device::new(DeviceProfile::v100());
        let keys = [Key::new(1)];
        let gv = Value::Matrix(g.matrix.clone());
        let out = dispatch(
            &Op::ScalarOp(EltOp::Mul, 2.0),
            &[&gv],
            true,
            &ctx,
            &device,
            &keys,
        )
        .unwrap();
        assert!(out.as_matrix().is_some());
        let stats = device.stats();
        assert_eq!(stats.kernel_launches, 1);
        assert!(stats.total_time > 0.0);
        let (name, agg) = stats.per_kernel.iter().next().unwrap();
        assert!(name.contains("eltwise"));
        assert!(agg.count == 1 && agg.wall_time >= 0.0);
    }

    #[test]
    fn dispatch_counts_partial_residency_hits_per_batch() {
        let run_batch = |budget: u64| -> (u64, u64) {
            let degrees = graph().matrix.data.col_degrees();
            let g = graph().with_cache_plan(gsampler_engine::plan_cache(&degrees, budget));
            let bindings = Bindings::new();
            let ctx = ExecCtx::plain(&g, &bindings);
            let device = Device::new(DeviceProfile::v100());
            let keys = [Key::new(1)];
            let gv = Value::Matrix(g.matrix.clone());
            let frontiers = Value::Nodes(vec![1, 5, 9, 13]);
            dispatch(
                &Op::SliceCols,
                &[&gv, &frontiers],
                true,
                &ctx,
                &device,
                &keys,
            )
            .unwrap();
            let s = device.stats();
            (s.cache_hits, s.cache_misses)
        };
        // Unlimited budget pins everything: every frontier hits.
        assert_eq!(run_batch(u64::MAX), (4, 0));
        // Zero budget pins nothing: every frontier misses.
        assert_eq!(run_batch(0), (0, 4));
        // No plan at all: nothing is counted.
        let g = graph();
        let bindings = Bindings::new();
        let ctx = ExecCtx::plain(&g, &bindings);
        let device = Device::new(DeviceProfile::v100());
        let keys = [Key::new(1)];
        let gv = Value::Matrix(g.matrix.clone());
        let frontiers = Value::Nodes(vec![1, 5]);
        dispatch(
            &Op::SliceCols,
            &[&gv, &frontiers],
            true,
            &ctx,
            &device,
            &keys,
        )
        .unwrap();
        let s = device.stats();
        assert_eq!((s.cache_hits, s.cache_misses), (0, 0));
    }

    #[test]
    fn input_slots_share_the_bound_tables() {
        // No copy per launch: the dense value a kernel is handed for
        // `"features"` and for a bound weight is the table that was bound.
        let features = gsampler_matrix::Dense::zeros(24, 5);
        let weight = gsampler_matrix::Dense::zeros(5, 2);
        let (features_at, weight_at) = (features.as_slice().as_ptr(), weight.as_slice().as_ptr());
        let g = graph().with_features(features);
        let bindings = Bindings::new().dense("W", weight);
        let ctx = ExecCtx::plain(&g, &bindings);
        for (name, at) in [("features", features_at), ("W", weight_at)] {
            for _launch in 0..2 {
                let v = run_input(&Op::InputDense(name.into()), &ctx).unwrap();
                assert_eq!(v.as_dense().unwrap().as_slice().as_ptr(), at, "{name}");
            }
        }
        assert_eq!(
            g.features.as_ref().unwrap().as_slice().as_ptr(),
            features_at
        );
        assert_eq!(
            bindings.get_dense("W").unwrap().as_slice().as_ptr(),
            weight_at
        );
    }

    #[test]
    fn input_kernels_resolve_bindings() {
        let g = graph();
        let bindings = Bindings::new()
            .vector("w", vec![1.0, 2.0])
            .node_list("prev", vec![3, 4]);
        let ctx = ExecCtx::plain(&g, &bindings);
        let v = run_input(&Op::InputVector("w".into()), &ctx).unwrap();
        assert_eq!(v.as_vector().unwrap(), &[1.0, 2.0]);
        // The slot holds the bound handle itself, not a copy of it.
        assert!(Arc::ptr_eq(&v, &bindings.named["w"]));
        let n = run_input(&Op::InputNodes("prev".into()), &ctx).unwrap();
        assert_eq!(n.as_nodes().unwrap(), &[3, 4]);
        // Absent, or bound as another kind: a missing binding.
        for op in [
            Op::InputVector("absent".into()),
            Op::InputDense("w".into()),
            Op::InputDense("features".into()),
        ] {
            let missing = run_input(&op, &ctx);
            assert!(matches!(missing, Err(Error::MissingBinding(_))), "{op:?}");
        }
        // Inputs are slots, not kernels: the registry refuses to run one.
        let device = Device::new(DeviceProfile::v100());
        let keys = [Key::new(1)];
        let op = Op::InputVector("w".into());
        assert!(dispatch(&op, &[], false, &ctx, &device, &keys).is_err());
        assert_eq!(device.stats().kernel_launches, 0);
    }
}
