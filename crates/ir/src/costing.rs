//! Mapping IR operators to engine work descriptors.
//!
//! Shared by the data-layout-selection pass (which prices programs on
//! *estimated* shapes) and the executor in `gsampler-core` (which charges
//! *actual* shapes to the device session). Keeping the mapping in one
//! place guarantees the planner optimizes the same cost function the
//! runtime measures.

use gsampler_engine::workload::{self, MatShape};
use gsampler_engine::{KernelDesc, Residency};
use gsampler_matrix::{Axis, Format};

use crate::estimate::ShapeEst;
use crate::facts::{Facts, ValueKind};
use crate::op::{BiasChannel, Op};
use crate::program::Program;

fn mat(s: &ShapeEst) -> MatShape {
    match *s {
        ShapeEst::Matrix { nrows, ncols, nnz } => {
            MatShape::new(nrows as usize, ncols as usize, nnz as usize)
        }
        _ => MatShape::new(0, 0, 0),
    }
}

fn veclen(s: &ShapeEst) -> usize {
    match *s {
        ShapeEst::Vector(n) | ShapeEst::Nodes(n) => n as usize,
        _ => 0,
    }
}

fn dense_dims(s: &ShapeEst) -> (usize, usize) {
    match *s {
        ShapeEst::Dense { rows, cols } => (rows as usize, cols as usize),
        _ => (0, 0),
    }
}

/// Build the work descriptor for one operator execution.
///
/// - `in_fmts[i]`: storage format of matrix input `i` (`None` for
///   non-matrix inputs).
/// - `in_shapes` / `out_shape`: shapes (estimated or actual).
/// - `residency`: where the *base graph* lives; applied when
///   `input0_is_graph_resident` (the input is the original graph or a
///   precomputed full-graph matrix, which shares its residency).
///
/// Returns `None` for zero-cost operators (inputs, precomputed slots).
pub fn kernel_desc(
    op: &Op,
    in_fmts: &[Option<Format>],
    in_shapes: &[ShapeEst],
    out_shape: &ShapeEst,
    residency: Residency,
    input0_is_graph_resident: bool,
) -> Option<KernelDesc> {
    let fmt0 = in_fmts.first().copied().flatten().unwrap_or(Format::Csc);
    let res0 = if input0_is_graph_resident {
        residency
    } else {
        Residency::Device
    };
    let in0 = in_shapes.first().map(mat).unwrap_or(MatShape::new(0, 0, 0));
    let out_mat = mat(out_shape);

    let desc = match op {
        Op::InputGraph
        | Op::InputFrontiers
        | Op::InputDense(..)
        | Op::InputVector(..)
        | Op::InputNodes(..)
        | Op::Precomputed { .. } => return None,

        Op::SliceCols => workload::slice_cols(fmt0, in0, out_mat.nnz, out_mat.ncols, res0),
        Op::SliceRows => workload::slice_rows(fmt0, in0, out_mat.nnz, out_mat.nrows, res0),
        Op::InduceSubgraph => {
            workload::induce_subgraph(fmt0, in0, out_mat.nnz, out_mat.nrows, res0)
        }
        Op::ScalarOp(..) | Op::UnaryOp(..) | Op::EdgeValuesFromDense { .. } => {
            workload::eltwise(fmt0, in0)
        }
        Op::Broadcast(..) => workload::broadcast(fmt0, in0),
        Op::SparseElt(..) => workload::sparse_elt(fmt0, in0),
        Op::Sddmm => {
            let (_, k) = dense_dims(&in_shapes[1]);
            workload::sddmm(fmt0, in0, k.max(1))
        }
        Op::Reduce(_, axis) => workload::reduce(fmt0, in0, *axis),
        Op::Spmm | Op::SpmmT => {
            let (_, k) = dense_dims(&in_shapes[1]);
            workload::spmm(fmt0, in0, k.max(1))
        }
        Op::Gemm => {
            let (m, n) = dense_dims(&in_shapes[0]);
            let (_, p) = dense_dims(&in_shapes[1]);
            workload::gemm(m, n, p)
        }
        Op::GemmT => {
            let (m, n) = dense_dims(&in_shapes[0]);
            let (p, _) = dense_dims(&in_shapes[1]);
            workload::gemm(m, n, p)
        }
        Op::DenseUnary(..) | Op::DenseSoftmaxRows | Op::DenseSoftmaxFlat => {
            let (r, c) = dense_dims(&in_shapes[0]);
            workload::dense_map(r * c)
        }
        Op::DenseColumn { .. } => {
            let (r, _) = dense_dims(&in_shapes[0]);
            workload::vector_op(r)
        }
        Op::DenseGatherRows => {
            let (_, dim) = dense_dims(&in_shapes[0]);
            let n = veclen(&in_shapes[1]);
            workload::gather_features(n, dim.max(1), res0)
        }
        Op::StackEdgeValues => {
            let total: usize = in_shapes.iter().map(|s| mat(s).nnz).sum();
            workload::dense_map(total)
        }
        Op::VectorOp(..) | Op::VectorScalar(..) | Op::VectorSum | Op::VectorNormalize => {
            workload::vector_op(veclen(&in_shapes[0]))
        }
        Op::GatherVector => workload::vector_op(veclen(out_shape)),
        Op::GatherRowBias => workload::vector_op(veclen(out_shape).max(mat(&in_shapes[1]).nrows)),
        Op::AlignRowVector => workload::vector_op(mat(&in_shapes[1]).nrows),
        Op::IndividualSample { k, .. } => {
            let weighted = in_shapes.len() > 1;
            workload::individual_sample(fmt0, in0, *k, weighted, res0)
        }
        // The select plus the chain it evaluates per edge: the dots (at
        // their feature dimensions) and every other per-edge operation.
        Op::FusedBiasSelect { k, bias, .. } => {
            let mut dims = Vec::new();
            let mut edge_ops = bias
                .combine
                .as_ref()
                .map_or(0, |c| 2 * bias.channels.len() + c.unary.len());
            for channel in &bias.channels {
                match channel {
                    BiasChannel::Dot(b, _) => dims.push(dense_dims(&in_shapes[*b]).1.max(1)),
                    BiasChannel::Map(steps) => edge_ops += steps.len(),
                }
            }
            workload::biased_individual_sample(fmt0, in0, *k, &dims, edge_ops, res0)
        }
        Op::CollectiveSample { k } => workload::collective_sample(fmt0, in0, *k, out_mat.nnz, res0),
        Op::Node2VecBias { .. } => {
            let graph = mat(&in_shapes[2]);
            let avg_deg = if graph.ncols > 0 {
                graph.nnz as f64 / graph.ncols as f64
            } else {
                2.0
            };
            workload::node2vec_bias(fmt0, in0, avg_deg)
        }
        Op::RowNodes | Op::ColNodes | Op::AllRowIds | Op::NextWalkFrontier => {
            workload::vector_op(in0.nnz.max(veclen(out_shape)))
        }
        Op::CompactRows => workload::compact(fmt0, in0, Axis::Row),
        Op::Convert(to) => workload::convert(fmt0, *to, in0),
        Op::FusedExtractSelect { k, .. } => {
            let t = out_mat.ncols;
            let visited = in0.nnz.min(t * 64);
            let out_nnz = out_mat.nnz.min(t * k);
            workload::fused_extract_select(fmt0, in0, t, visited, out_nnz, res0)
        }
        // The reduce / select of the extract they never build, reading the
        // input's frontier columns (at its average degree) where it lives.
        Op::FusedExtractReduce { .. } | Op::FusedExtractCollective { .. } => {
            let t = veclen(&in_shapes[1]);
            let edges = (t as f64 * in0.nnz as f64 / in0.ncols.max(1) as f64) as usize;
            let rows = veclen(out_shape).max(in_shapes.get(2).map_or(0, veclen));
            let extract = MatShape::new(rows.max(in0.nrows), t, edges);
            if let Op::FusedExtractCollective { k } = op {
                workload::collective_sample(fmt0, extract, *k, out_mat.nnz, res0)
            } else {
                let read = edges as u64 * workload::EDGE_BYTES;
                let pcie = workload::residency_split(read, res0).1;
                workload::reduce(fmt0, extract, Axis::Row).with_pcie(pcie)
            }
        }
        Op::FusedEdgeMap { steps } => workload::fused_edge_map(fmt0, in0, steps.len()),
        Op::FusedEdgeMapReduce { steps, axis, .. } => {
            workload::fused_edge_map_reduce(fmt0, in0, *axis, steps.len())
        }
    };
    Some(desc)
}

/// Storage format an operator naturally produces, given the kind of its
/// value and its first matrix input's format.
///
/// Structure and compute operators produce output in their input's format;
/// explicit `Convert` nodes change it; node-wise sampling kernels emit
/// per-column runs and therefore produce CSC. Non-matrix values have none.
pub(crate) fn output_format(
    op: &Op,
    kind: ValueKind,
    first_input_fmt: Option<Format>,
    graph_fmt: Format,
) -> Option<Format> {
    (kind == ValueKind::Matrix).then(|| match op {
        Op::InputGraph | Op::Precomputed { .. } => graph_fmt,
        Op::Convert(to) => *to,
        Op::FusedExtractSelect { .. }
        | Op::IndividualSample { .. }
        | Op::FusedBiasSelect { .. } => Format::Csc,
        _ => first_input_fmt.unwrap_or(graph_fmt),
    })
}

/// Derive the storage format of every node's matrix value (or `None` for
/// non-matrix values), given the program's fact table and that the base
/// graph is stored in `graph_fmt`.
pub(crate) fn derive_formats(
    program: &Program,
    facts: &[Facts],
    graph_fmt: Format,
) -> Vec<Option<Format>> {
    let mut fmts: Vec<Option<Format>> = Vec::with_capacity(program.len());
    for (node, f) in program.nodes().iter().zip(facts) {
        let first = node.inputs.first().and_then(|&i| fmts[i]);
        fmts.push(output_format(&node.op, f.kind, first, graph_fmt));
    }
    fmts
}

/// Total modeled time of a program under given formats and shapes.
/// A kernel reading a [`Facts::graph_resident`] value (the graph, or a
/// precomputed full-graph value) reads it where the graph lives.
pub(crate) fn price_program(
    program: &Program,
    facts: &[Facts],
    fmts: &[Option<Format>],
    shapes: &[ShapeEst],
    cost_model: &gsampler_engine::CostModel,
    residency: Residency,
) -> f64 {
    let mut total = 0.0;
    for (id, node) in program.nodes().iter().enumerate() {
        let in_fmts: Vec<Option<Format>> = node.inputs.iter().map(|&i| fmts[i]).collect();
        let in_shapes: Vec<ShapeEst> = node.inputs.iter().map(|&i| shapes[i]).collect();
        let graph_input = node
            .inputs
            .first()
            .is_some_and(|&i| facts[i].graph_resident());
        if let Some(desc) = kernel_desc(
            &node.op,
            &in_fmts,
            &in_shapes,
            &shapes[id],
            residency,
            graph_input,
        ) {
            total += cost_model.time(&desc);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{estimate_shapes, GraphStats};
    use gsampler_engine::{CostModel, DeviceProfile};
    use gsampler_matrix::EltOp;

    fn stats() -> GraphStats {
        GraphStats {
            num_nodes: 1_000_000,
            num_edges: 50_000_000,
            feature_dim: 64,
        }
    }

    fn graphsage(fused: bool) -> Program {
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let f = p.add(Op::InputFrontiers, vec![]);
        if fused {
            let s = p.add(Op::FusedExtractSelect { k: 10 }, vec![g, f]);
            p.mark_output(s);
        } else {
            let sub = p.add(Op::SliceCols, vec![g, f]);
            let s = p.add(Op::IndividualSample { k: 10 }, vec![sub]);
            p.mark_output(s);
        }
        p
    }

    #[test]
    fn fused_program_is_cheaper() {
        let model = CostModel::new(DeviceProfile::v100());
        let price = |p: &Program| {
            let shapes = estimate_shapes(p, &stats(), 1024);
            let facts = crate::facts(p, &[]).unwrap();
            let fmts = derive_formats(p, &facts, Format::Csc);
            price_program(p, &facts, &fmts, &shapes, &model, Residency::Device)
        };
        let plain = price(&graphsage(false));
        let fused = price(&graphsage(true));
        assert!(
            fused < plain * 0.7,
            "fusion should cut cost: fused={fused} plain={plain}"
        );
    }

    #[test]
    fn derive_formats_follows_converts() {
        let mut p = Program::new();
        let g = p.add(Op::InputGraph, vec![]);
        let f = p.add(Op::InputFrontiers, vec![]);
        let sub = p.add(Op::SliceCols, vec![g, f]);
        let conv = p.add(Op::Convert(Format::Csr), vec![sub]);
        let sq = p.add(Op::ScalarOp(EltOp::Pow, 2.0), vec![conv]);
        p.mark_output(sq);
        let fmts = derive_formats(&p, &crate::facts(&p, &[]).unwrap(), Format::Csc);
        assert_eq!(fmts[0], Some(Format::Csc));
        assert_eq!(fmts[2], Some(Format::Csc));
        assert_eq!(fmts[3], Some(Format::Csr));
        assert_eq!(fmts[4], Some(Format::Csr));
        assert_eq!(fmts[1], None);
    }

    #[test]
    fn uva_residency_raises_extract_price() {
        let model = CostModel::new(DeviceProfile::v100());
        let p = graphsage(false);
        let shapes = estimate_shapes(&p, &stats(), 1024);
        let facts = crate::facts(&p, &[]).unwrap();
        let fmts = derive_formats(&p, &facts, Format::Csc);
        let on_device = price_program(&p, &facts, &fmts, &shapes, &model, Residency::Device);
        let uva = price_program(
            &p,
            &facts,
            &fmts,
            &shapes,
            &model,
            Residency::HostUva {
                cache_hit_rate: 0.5,
            },
        );
        assert!(uva > on_device);
    }
}
