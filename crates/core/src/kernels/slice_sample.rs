//! Extract / select kernels: column and row slicing, subgraph induction,
//! node-wise and layer-wise sampling, the fused extract+select kernel,
//! format conversion, and compaction.
//!
//! Node-wise selection has one implementation, in the matrix crate:
//! `Op::IndividualSample`, `Op::FusedBiasSelect` and `Op::FusedExtractSelect`
//! all draw with `sample::select`, without replacement — over the matrix's
//! own columns (with a materialized bias, one evaluated per edge inside the
//! pick, or none) and over the frontiers' columns of the base graph — and
//! all write with `slice::gather_cols`. This module only hands the select
//! its column groups ([`group_starts`]: group `b` draws with `keys[b]`,
//! counting its columns from its first), resolves a fused bias's leaves and
//! supplies the block-diagonal row offsets.

use gsampler_runtime::Key;

use gsampler_ir::{BiasChannel, EdgeBias, EdgeMapStep, Op};
use gsampler_matrix::bias::{self, Channel, MapStep};
use gsampler_matrix::sample::{individual_sample, sample_columns, select, Uniform};
use gsampler_matrix::spmm::RowsById;
use gsampler_matrix::{Axis, Csc, GraphMatrix, SparseMatrix};

use crate::error::{Error, Result};
use crate::value::Value;

use super::eltwise::{fit_axis_vector, want_matrix, want_nodes, want_vector, with_data};
use super::matmul::want_dense;
use super::{superbatch, ExecCtx};

/// Fused extract + node-wise select: sample `k` in-neighbours per frontier
/// directly from the source matrix's columns, with block-diagonal row
/// offsets under super-batching.
///
/// The selector `Op::IndividualSample` runs, read through the frontier map
/// instead of from a materialised slice: [`select`] over the columns
/// `concat_frontiers[c]`, written by [`superbatch::gather_block`]. Column
/// `c` draws what it would after `Op::SliceCols`: its group's key, counted
/// from the group's first column.
pub fn fused_extract_select(
    m: &GraphMatrix,
    k: usize,
    ctx: &ExecCtx<'_>,
    keys: &[Key],
) -> Result<Value> {
    let csc = m.data.csc();
    let cols_f = ctx.concat_frontiers;
    ctx.check_frontiers(csc.ncols, "fused_extract_select")?;
    let starts = group_starts(ctx, cols_f.len())?;
    let segment = |c: usize| csc.col_range(cols_f[c] as usize);
    let (indptr, picks) = select(cols_f.len(), segment, k, &Uniform, keys, starts)?;
    let block = superbatch::gather_block(&csc, indptr, ctx, |_, out| picks[out].iter().copied());
    Ok(Value::Matrix(GraphMatrix {
        data: SparseMatrix::Csc(block),
        row_ids: m.row_ids.clone(),
        col_ids: Some(std::sync::Arc::new(cols_f.to_vec())),
    }))
}

/// The first output column of every group, the columns a per-column draw
/// counts from. With several groups the `ncols` columns being sampled must
/// be the concatenated frontiers (the fact table's super-batch rule admits
/// a per-column draw only over frontier columns); a single group owns
/// every column whatever the matrix is.
fn group_starts<'c>(ctx: &ExecCtx<'c>, ncols: usize) -> Result<&'c [usize]> {
    let (s, offsets) = (ctx.s.max(1), ctx.col_offsets);
    match s {
        1 => Ok(&[0]),
        _ if offsets.len() == s + 1 && offsets[s] == ncols => Ok(&offsets[..s]),
        _ => Err(Error::Execution(format!(
            "cannot key columns by group: {s} groups, col_offsets {offsets:?}, \
             matrix has {ncols} columns"
        ))),
    }
}

/// The bias chain `bias` of a [`Op::FusedBiasSelect`] over `m` (whose
/// CSC is `csc`), its leaves read from `inputs`: the operands, lookups and
/// checks the unfused chain's kernels would use — a dot's `B` by row ID as
/// in `Op::Sddmm`, a step's vector fitted as in `Op::Broadcast` — so the
/// weights are theirs, bit for bit, and so are the errors.
fn edge_bias<'a>(
    m: &'a GraphMatrix,
    csc: &'a Csc,
    bias: &EdgeBias,
    inputs: &[&'a Value],
    period: usize,
) -> Result<bias::EdgeBias<'a>> {
    let what = "fused_bias_select";
    let row_ids = m.row_ids.as_ref().map(|ids| ids.as_slice());
    let step = |step: &EdgeMapStep| -> Result<MapStep<'a>> {
        Ok(match *step {
            EdgeMapStep::Scalar(op, s) => MapStep::Scalar(op, s),
            EdgeMapStep::Unary(op) => MapStep::Unary(op),
            EdgeMapStep::Broadcast(op, axis, pos) => {
                let v = want_vector(inputs[pos], what)?;
                let fitted = fit_axis_vector(m, v, axis, period)?;
                match axis {
                    Axis::Row => MapStep::Row(op, fitted),
                    Axis::Col => MapStep::Col(op, fitted),
                }
            }
        })
    };
    let channel = |channel: &BiasChannel| -> Result<Channel<'a>> {
        Ok(match channel {
            BiasChannel::Dot(b, c) => {
                let (b, c) = (want_dense(inputs[*b], what)?, want_dense(inputs[*c], what)?);
                Channel::Dot(RowsById::new(&m.data, row_ids, period, b, c)?, c)
            }
            BiasChannel::Map(steps) => Channel::Map(steps.iter().map(step).collect::<Result<_>>()?),
        })
    };
    let channels = bias.channels.iter().map(channel).collect::<Result<_>>()?;
    let combine = match &bias.combine {
        Some(c) => Some((want_dense(inputs[c.w], what)?, c.col, c.unary.clone())),
        None => None,
    };
    Ok(bias::EdgeBias::new(csc, channels, combine)?)
}

/// Extract / select operator family: evaluate `op` on `inputs`.
pub(super) fn run(op: &Op, inputs: &[&Value], ctx: &ExecCtx<'_>, keys: &[Key]) -> Result<Value> {
    // A randomized op draws with one key per group.
    let groups = ctx.s.max(1);
    if op.is_random() && keys.len() != groups {
        let n = keys.len();
        return Err(Error::Execution(format!(
            "{n} keys but the execution has {groups} groups"
        )));
    }
    match op {
        Op::SliceCols => {
            let m = want_matrix(inputs[0], "slice_cols")?;
            let f = want_nodes(inputs[1], "slice_cols")?;
            // The fact table's `Space::Graph` -> `Space::Block` lift.
            if ctx.s > 1 && m.shape().0 == ctx.n {
                superbatch::segmented_slice_cols(m, ctx)
            } else {
                Ok(Value::Matrix(m.slice_cols_global(f)?))
            }
        }
        Op::SliceRows => {
            let m = want_matrix(inputs[0], "slice_rows")?;
            let f = want_nodes(inputs[1], "slice_rows")?;
            Ok(Value::Matrix(m.slice_rows_global(f)?))
        }
        Op::InduceSubgraph => {
            let m = want_matrix(inputs[0], "induce_subgraph")?;
            let nodes = want_nodes(inputs[1], "induce_subgraph")?;
            Ok(Value::Matrix(m.induce_subgraph(nodes)?))
        }
        Op::IndividualSample { k } => {
            let m = want_matrix(inputs[0], "individual_sample")?;
            let probs = match inputs.get(1) {
                Some(v) => Some(want_matrix(v, "individual_sample probs")?),
                None => None,
            };
            // With several groups the matrix columns are the
            // concatenated frontiers (the fact table's `Frontier` column
            // space, which `gsampler_ir::facts::batchable` requires here;
            // `group_starts` re-checks), so each group draws exactly what it
            // would alone.
            let starts = group_starts(ctx, m.shape().1)?;
            let probs = probs.map(|p| &p.data);
            let data = individual_sample(&m.data, *k, probs, keys, starts)?;
            Ok(Value::Matrix(with_data(m, data)))
        }
        Op::FusedBiasSelect { k, bias } => {
            let m = want_matrix(inputs[0], "fused_bias_select")?;
            let csc = m.data.csc();
            let bias = edge_bias(m, &csc, bias, inputs, ctx.n)?;
            // The draws `Op::IndividualSample` makes.
            let starts = group_starts(ctx, m.shape().1)?;
            let out = sample_columns(&csc, *k, &bias, keys, starts)?;
            let data = SparseMatrix::Csc(out).into_format(m.data.format());
            Ok(Value::Matrix(with_data(m, data)))
        }
        Op::CollectiveSample { k } => {
            let m = want_matrix(inputs[0], "collective_sample")?;
            let probs = match inputs.get(1) {
                Some(v) => Some(want_vector(v, "collective_sample probs")?),
                None => None,
            };
            superbatch::segmented_collective_sample(m, *k, probs, ctx, keys)
        }
        Op::FusedExtractCollective { k } => {
            let m = want_matrix(inputs[0], "fused_extract_collective")?;
            let probs = want_vector(inputs[2], "fused_extract_collective probs")?;
            superbatch::fused_extract_collective(m, *k, probs, ctx, keys)
        }
        Op::FusedExtractSelect { k } => {
            let m = want_matrix(inputs[0], "fused_extract_select")?;
            fused_extract_select(m, *k, ctx, keys)
        }
        Op::Convert(fmt) => {
            let m = want_matrix(inputs[0], "convert")?;
            let mut out = m.clone();
            out.data = out.data.to_format(*fmt);
            Ok(Value::Matrix(out))
        }
        Op::CompactRows => {
            let m = want_matrix(inputs[0], "compact_rows")?;
            Ok(Value::Matrix(m.compact_rows()))
        }
        Op::RowNodes => {
            let m = want_matrix(inputs[0], "row_nodes")?;
            Ok(Value::Nodes(m.row_nodes()))
        }
        Op::ColNodes => {
            let m = want_matrix(inputs[0], "col_nodes")?;
            Ok(Value::Nodes(m.col_nodes()))
        }
        Op::AllRowIds => {
            let m = want_matrix(inputs[0], "all_row_ids")?;
            Ok(Value::Nodes(m.global_row_ids()))
        }
        other => Err(Error::Execution(format!(
            "slice_sample kernel cannot evaluate {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Bindings;
    use crate::graph::Graph;

    fn starts(col_offsets: &[usize], s: usize, ncols: usize) -> Result<Vec<usize>> {
        let graph = Graph::from_edges("t", 3, &[(1, 0, 1.0)], false).unwrap();
        let bindings = Bindings::new();
        let ctx = ExecCtx {
            s,
            col_offsets,
            ..ExecCtx::plain(&graph, &bindings)
        };
        group_starts(&ctx, ncols).map(<[usize]>::to_vec)
    }

    #[test]
    fn one_group_owns_every_column() {
        // Offsets that disagree with the matrix are fine for one group.
        assert_eq!(starts(&[0], 1, 5).unwrap(), [0]);
        assert_eq!(starts(&[0, 2, 5], 1, 7).unwrap(), [0]);
        assert_eq!(starts(&[0, 2, 5], 2, 5).unwrap(), [0, 2]);
    }

    #[test]
    fn rejects_mismatched_offsets() {
        assert!(starts(&[0, 2, 5], 2, 4).is_err());
        assert!(starts(&[0, 5], 2, 5).is_err());
        // And a randomized op handed a key count other than its groups'.
        let graph = Graph::from_edges("t", 3, &[(1, 0, 1.0)], false).unwrap();
        let bindings = Bindings::new();
        let ctx = ExecCtx::plain(&graph, &bindings);
        let select = Op::IndividualSample { k: 1 };
        let m = graph.matrix_value();
        assert!(run(&select, &[&m], &ctx, &[]).is_err());
        assert!(run(&select, &[&m], &ctx, &[Key::new(1)]).is_ok());
    }
}
