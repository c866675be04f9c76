//! Extract / select kernels: column and row slicing, subgraph induction,
//! node-wise and layer-wise sampling, the fused extract+select kernel,
//! format conversion, and compaction.
//!
//! Node-wise selection has one implementation, in the matrix crate:
//! `Op::IndividualSample` and `Op::FusedExtractSelect` both pick with
//! `sample::pick_columns` — over the matrix's own columns and over the
//! frontiers' columns of the base graph — and both write with
//! `slice::gather_cols`. This module only draws the per-group column
//! streams ([`ColStreams`]) and supplies the block-diagonal row offsets.

use rand::rngs::StdRng;

use gsampler_ir::Op;
use gsampler_matrix::sample::{individual_sample, pick_columns};
use gsampler_matrix::{GraphMatrix, SparseMatrix};

use crate::error::{Error, Result};
use crate::session_rng::ColStreams;
use crate::value::Value;

use super::eltwise::{want_matrix, want_nodes, want_vector, with_data};
use super::{superbatch, ExecCtx};

/// Fused extract + node-wise select: sample `k` in-neighbours per frontier
/// directly from the source matrix's columns, with block-diagonal row
/// offsets under super-batching.
///
/// The selector `Op::IndividualSample` runs, read through the frontier map
/// instead of from a materialised slice: [`pick_columns`] over the columns
/// `concat_frontiers[c]`, written by [`superbatch::gather_block`]. Column
/// `c` draws from stream `c` of [`ColStreams`] — exactly one
/// `gen::<u64>()` per group stream — as it would after `Op::SliceCols`.
pub fn fused_extract_select(
    m: &GraphMatrix,
    k: usize,
    replace: bool,
    ctx: &ExecCtx<'_>,
    rngs: &mut [StdRng],
) -> Result<Value> {
    let csc = m.data.csc();
    let cols_f = ctx.concat_frontiers;
    ctx.check_frontiers(csc.ncols, "fused_extract_select")?;
    let streams = ColStreams::draw(rngs, ctx.col_offsets, cols_f.len())?;
    let (indptr, picks) = pick_columns(&csc, Some(cols_f), k, replace, None, &streams)?;
    let block = superbatch::gather_block(&csc, indptr, ctx, |_, out| picks[out].iter().copied());
    Ok(Value::Matrix(GraphMatrix {
        data: SparseMatrix::Csc(block),
        row_ids: m.row_ids.clone(),
        col_ids: Some(std::sync::Arc::new(cols_f.to_vec())),
    }))
}

/// Extract / select operator family: evaluate `op` on `inputs`.
pub(super) fn run(
    op: &Op,
    inputs: &[&Value],
    ctx: &ExecCtx<'_>,
    rngs: &mut [StdRng],
) -> Result<Value> {
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
        Op::IndividualSample { k, replace } => {
            let m = want_matrix(inputs[0], "individual_sample")?;
            let probs = match inputs.get(1) {
                Some(v) => Some(want_matrix(v, "individual_sample probs")?),
                None => None,
            };
            // With several groups the matrix columns are the
            // concatenated frontiers (the fact table's `Frontier` column
            // space, which `gsampler_ir::facts::batchable` requires here;
            // `ColStreams::draw` re-checks), so each group draws exactly
            // what it would alone.
            let streams = ColStreams::draw(rngs, ctx.col_offsets, m.shape().1)?;
            let probs = probs.map(|p| &p.data);
            let data = individual_sample(&m.data, *k, *replace, probs, &streams)?;
            Ok(Value::Matrix(with_data(m, data)))
        }
        Op::CollectiveSample { k } => {
            let m = want_matrix(inputs[0], "collective_sample")?;
            let probs = match inputs.get(1) {
                Some(v) => Some(want_vector(v, "collective_sample probs")?),
                None => None,
            };
            superbatch::segmented_collective_sample(m, *k, probs, ctx, rngs)
        }
        Op::FusedExtractCollective { k } => {
            let m = want_matrix(inputs[0], "fused_extract_collective")?;
            let probs = want_vector(inputs[2], "fused_extract_collective probs")?;
            superbatch::fused_extract_collective(m, *k, probs, ctx, rngs)
        }
        Op::FusedExtractSelect { k, replace } => {
            let m = want_matrix(inputs[0], "fused_extract_select")?;
            fused_extract_select(m, *k, *replace, ctx, rngs)
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
