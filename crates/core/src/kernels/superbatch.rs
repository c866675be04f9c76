//! Super-batch (block-diagonal) execution support — paper §4.4.
//!
//! When `S` frontier groups are sampled together, the extract step builds
//! a block-diagonal matrix: group `b`'s rows live in ID range
//! `[b·N, (b+1)·N)`, so the groups cannot interfere. The segmented kernels
//! here are thin wrappers over the same base selection primitives the
//! plain path uses (`weighted_sample_without_replacement_seeded` etc.) —
//! each group draws from a subpool of its own RNG stream, which is what
//! keeps seeded outputs bit-identical across batch modes and thread
//! counts. [`split_outputs`] undoes the blocking at
//! program exit.

use std::sync::Arc;

use gsampler_ir::{Op, Program};
use gsampler_matrix::sample::weighted_sample_without_replacement_seeded;
use gsampler_matrix::{slice, Csc, GraphMatrix, NodeId, SparseMatrix};
use gsampler_runtime::parallel::{parallel_scatter, parallel_scatter2};
use rand::rngs::StdRng;

use crate::error::Result;
use crate::session_rng::segment_subpools;
use crate::value::Value;

use super::eltwise::fit_row_vector;
use super::{par_gate, ExecCtx};

/// Segmented (block-diagonal) column extraction from a base-space matrix.
///
/// Frontier-parallel: output degrees come straight from the source indptr,
/// so a prefix sum sizes the output exactly and each frontier's segment is
/// copied independently on the worker pool.
pub fn segmented_slice_cols(m: &GraphMatrix, ctx: &ExecCtx<'_>) -> Result<Value> {
    let n = ctx.n;
    let csc = m.data.to_csc();
    let total_cols = ctx.concat_frontiers.len();

    let mut cols_f: Vec<NodeId> = Vec::with_capacity(total_cols);
    let mut row_off: Vec<NodeId> = Vec::with_capacity(total_cols);
    for (b, group) in ctx.frontier_groups.iter().enumerate() {
        let offset = (b * n) as NodeId;
        for &f in group {
            if (f as usize) >= csc.ncols {
                return Err(gsampler_matrix::Error::IndexOutOfBounds {
                    op: "segmented_slice_cols",
                    index: f as usize,
                    bound: csc.ncols,
                }
                .into());
            }
            cols_f.push(f);
            row_off.push(offset);
        }
    }

    let mut indptr = vec![0usize; cols_f.len() + 1];
    for (c, &f) in cols_f.iter().enumerate() {
        indptr[c + 1] = indptr[c] + csc.col_range(f as usize).len();
    }
    let out_nnz = *indptr.last().unwrap();
    let mut indices = vec![0 as NodeId; out_nnz];
    let gate = par_gate(out_nnz);
    let fill_idx = |c: usize, seg_i: &mut [NodeId]| {
        let range = csc.col_range(cols_f[c] as usize);
        let offset = row_off[c];
        for (j, pos) in range.enumerate() {
            seg_i[j] = csc.indices[pos] + offset;
        }
    };
    let values = match csc.values.as_ref() {
        Some(src) => {
            let mut vals = vec![0f32; out_nnz];
            parallel_scatter2(&mut indices, &mut vals, &indptr, gate, |c, seg_i, seg_v| {
                fill_idx(c, seg_i);
                let range = csc.col_range(cols_f[c] as usize);
                seg_v.copy_from_slice(&src[range]);
            });
            Some(vals)
        }
        None => {
            parallel_scatter(&mut indices, &indptr, gate, |c, seg_i| fill_idx(c, seg_i));
            None
        }
    };

    let block = Csc {
        nrows: n * ctx.s,
        ncols: total_cols,
        indptr,
        indices,
        values,
    };
    let fmt = m.data.format();
    Ok(Value::Matrix(GraphMatrix {
        data: SparseMatrix::Csc(block).to_format(fmt),
        row_ids: None,
        col_ids: Some(std::sync::Arc::new(ctx.concat_frontiers.to_vec())),
    }))
}

/// Collective (layer-wise) sampling, segmented per super-batch group: `k`
/// distinct rows are selected inside each group's row range.
// Node-id indexing across the weight/segment arrays reads better than
// zipped iterators here.
#[allow(clippy::needless_range_loop)]
pub fn segmented_collective_sample(
    m: &GraphMatrix,
    k: usize,
    probs: Option<&[f32]>,
    ctx: &ExecCtx<'_>,
    rngs: &mut [StdRng],
) -> Result<Value> {
    let nrows = m.shape().0;
    let weights: Vec<f32> = match probs {
        Some(p) => fit_row_vector(m, p),
        None => m.data.row_degrees().into_iter().map(|d| d as f32).collect(),
    };
    for (i, &w) in weights.iter().enumerate() {
        if !w.is_finite() || w < 0.0 {
            return Err(gsampler_matrix::Error::InvalidProbability { index: i, value: w }.into());
        }
    }

    // Partition candidate rows into segments by their global (block) ID.
    let segments = ctx.s.max(1);
    let period = ctx.n;
    let mut per_segment: Vec<Vec<NodeId>> = vec![Vec::new(); segments];
    for r in 0..nrows {
        if weights[r] > 0.0 {
            let seg = if segments > 1 {
                (m.global_row(r) as usize / period).min(segments - 1)
            } else {
                0
            };
            per_segment[seg].push(r as NodeId);
        }
    }

    // One RNG subpool per segment — the one its group would build running
    // alone. The seeded sampler assigns candidate `i` to stream `i` within
    // the subpool — bit-identical output at any thread count.
    let pools = segment_subpools(rngs, segments)?;
    let mut selected: Vec<NodeId> = Vec::new();
    for (seg, cands) in per_segment.iter().enumerate() {
        if cands.len() <= k {
            selected.extend_from_slice(cands);
        } else {
            let w: Vec<f32> = cands.iter().map(|&r| weights[r as usize]).collect();
            let picks = weighted_sample_without_replacement_seeded(&w, k, &pools[seg]);
            selected.extend(picks.into_iter().map(|i| cands[i]));
        }
    }
    selected.sort_unstable();

    let data = slice::slice_rows(&m.data, &selected)?;
    let globals: Vec<NodeId> = selected.iter().map(|&r| m.global_row(r as usize)).collect();
    Ok(Value::Matrix(GraphMatrix {
        data,
        row_ids: Some(std::sync::Arc::new(globals)),
        col_ids: m.col_ids.clone(),
    }))
}

/// Per-program-node dataflow analysis: `true` means the node's value is
/// *definitely* in block-row space under super-batching — a matrix whose
/// rows carry the `b·N` group offset, or a node list of such row IDs.
///
/// The segmented extract kernels ([`segmented_slice_cols`],
/// `fused_extract_select`) lift the base graph
/// into block space; row-preserving operators propagate it; everything
/// else (column space, dense/vector compute, inputs) is conservatively
/// `false`. [`split_outputs`] uses this to attribute node lists to groups
/// *by op* rather than by inspecting the IDs — an ID-based guess cannot
/// distinguish "group 0's rows" from "every group sampled nothing above
/// N", which mis-scattered empty groups before this analysis existed.
pub fn block_space(program: &Program) -> Vec<bool> {
    let nodes = program.nodes();
    let mut block = vec![false; nodes.len()];
    for (id, node) in nodes.iter().enumerate() {
        let inherit = |i: usize| node.inputs.get(i).map(|&p| block[p]).unwrap_or(false);
        block[id] = match &node.op {
            // Segmented extraction lifts base-space columns into block
            // rows; slicing a block matrix's columns keeps its row space.
            Op::SliceCols => matches!(nodes[node.inputs[0]].op, Op::InputGraph) || inherit(0),
            Op::FusedExtractSelect { .. } => true,
            // Row-space-preserving operators (select, compute, compact,
            // convert) propagate the property from their matrix input.
            Op::IndividualSample { .. }
            | Op::CollectiveSample { .. }
            | Op::Convert(..)
            | Op::CompactRows
            | Op::CompactCols
            | Op::ScalarOp(..)
            | Op::UnaryOp(..)
            | Op::Broadcast(..)
            | Op::SparseElt(..)
            | Op::Sddmm
            | Op::EdgeValuesFromDense { .. }
            | Op::FusedEdgeMap { .. }
            | Op::FusedEdgeMapReduce { .. }
            | Op::RowNodes
            | Op::AllRowIds => inherit(0),
            _ => false,
        };
    }
    block
}

/// Split super-batched output values back into per-group values.
///
/// `program` drives the node-list attribution: outputs the
/// [`block_space`] analysis proves to be block-row IDs are always split by
/// their `b·N` offset (so a group that sampled nothing gets an empty
/// list); for the rest, IDs below `N` cannot be attributed and fall back
/// to the historical whole-list heuristic.
pub fn split_outputs(
    outputs: &[Arc<Value>],
    ctx: &ExecCtx<'_>,
    program: &Program,
) -> Result<Vec<Vec<Value>>> {
    let s = ctx.s;
    if s <= 1 {
        return Ok(vec![outputs.iter().map(|v| (**v).clone()).collect()]);
    }
    let n = ctx.n;
    let block = block_space(program);
    let mut per_group: Vec<Vec<Value>> = vec![Vec::new(); s];
    for (value, &out_id) in outputs.iter().zip(program.outputs()) {
        match &**value {
            Value::Matrix(m) => {
                for (b, group) in per_group.iter_mut().enumerate() {
                    group.push(Value::Matrix(split_matrix(m, b, n, ctx.col_offsets)?));
                }
            }
            Value::Nodes(ids) => {
                // Proven block-row IDs split by period; otherwise fall
                // back to inspecting the IDs (true graph IDs, e.g. from
                // column space, go to every group).
                let split_by_block = block[out_id] || ids.iter().any(|&i| (i as usize) >= n);
                for (b, group) in per_group.iter_mut().enumerate() {
                    let list: Vec<NodeId> = if split_by_block {
                        ids.iter()
                            .filter(|&&i| (i as usize) / n == b)
                            .map(|&i| (i as usize % n) as NodeId)
                            .collect()
                    } else {
                        // Without block offsets we cannot attribute IDs;
                        // give each group the full list.
                        ids.clone()
                    };
                    group.push(Value::Nodes(list));
                }
            }
            Value::Vector(v) => {
                let total_cols = *ctx.col_offsets.last().unwrap();
                for (b, group) in per_group.iter_mut().enumerate() {
                    let piece = if v.len() == n * s {
                        v[b * n..(b + 1) * n].to_vec()
                    } else if v.len() == total_cols {
                        v[ctx.col_offsets[b]..ctx.col_offsets[b + 1]].to_vec()
                    } else {
                        v.clone()
                    };
                    group.push(Value::Vector(piece));
                }
            }
            other => {
                for group in per_group.iter_mut() {
                    group.push(other.clone());
                }
            }
        }
    }
    Ok(per_group)
}

/// Slice group `b`'s columns out of a block-diagonal matrix and translate
/// its block-row IDs back to original node IDs.
fn split_matrix(m: &GraphMatrix, b: usize, n: usize, col_offsets: &[usize]) -> Result<GraphMatrix> {
    let cols: Vec<NodeId> = (col_offsets[b]..col_offsets[b + 1])
        .map(|c| c as NodeId)
        .collect();
    let data = slice::slice_cols(&m.data, &cols)?;
    let col_ids: Vec<NodeId> = cols.iter().map(|&c| m.global_col(c as usize)).collect();
    let piece = GraphMatrix {
        data,
        row_ids: m.row_ids.clone(),
        col_ids: Some(std::sync::Arc::new(col_ids)),
    };
    // Drop the other groups' (isolated) rows, then unwrap the block offset.
    let compacted = piece.compact_rows();
    let fixed: Vec<NodeId> = compacted
        .global_row_ids()
        .into_iter()
        .map(|g| (g as usize % n) as NodeId)
        .collect();
    Ok(GraphMatrix {
        data: compacted.data,
        row_ids: Some(std::sync::Arc::new(fixed)),
        col_ids: compacted.col_ids,
    })
}
