//! Extract / select kernels: column and row slicing, subgraph induction,
//! node-wise and layer-wise sampling, the fused extract+select kernel,
//! format conversion, and compaction.

use rand::rngs::StdRng;
use rand::Rng;

use gsampler_ir::Op;
use gsampler_matrix::sample::{
    individual_sample_seeded, individual_sample_with_replacement_seeded, StreamSource,
};
use gsampler_matrix::{Csc, GraphMatrix, SparseMatrix};
use gsampler_runtime::parallel::parallel_map;

use crate::error::{Error, Result};
use crate::session_rng::ColStreams;
use crate::value::Value;

use super::eltwise::{want_matrix, want_nodes, want_vector, with_data};
use super::{par_gate, superbatch, ExecCtx};

/// Plan the sampled neighbour offsets (sorted) for every frontier column,
/// and the output CSC column pointers they imply.
///
/// Frontier-parallel on the worker pool: column `c` always draws from RNG
/// stream `c` of [`ColStreams`] seeded once per group from that group's
/// RNG, so the plan is bit-identical at any thread count — and consumes
/// exactly one `gen::<u64>()` per group stream.
fn plan_frontier_picks(
    csc: &Csc,
    k: usize,
    replace: bool,
    ctx: &ExecCtx<'_>,
    rngs: &mut [StdRng],
) -> Result<(Vec<Vec<usize>>, Vec<usize>)> {
    let cols_f = ctx.concat_frontiers;
    ctx.check_frontiers(csc.ncols, "fused_extract_select")?;
    let pool = ColStreams::draw(rngs, ctx.col_offsets, cols_f.len())?;
    let picks: Vec<Vec<usize>> = parallel_map(
        cols_f.len(),
        par_gate(cols_f.len().saturating_mul(k.max(1))),
        |c| {
            let deg = csc.col_range(cols_f[c] as usize).len();
            let mut picked: Vec<usize> = if deg == 0 {
                Vec::new()
            } else if replace {
                let mut stream = pool.stream(c as u64);
                let mut p: Vec<usize> = (0..k).map(|_| stream.gen_range(0..deg)).collect();
                p.sort_unstable();
                p.dedup();
                p
            } else if deg <= k {
                (0..deg).collect()
            } else {
                let mut stream = pool.stream(c as u64);
                gsampler_matrix::sample::uniform_sample_without_replacement(deg, k, &mut stream)
            };
            picked.sort_unstable();
            picked
        },
    );

    let mut indptr = vec![0usize; cols_f.len() + 1];
    for (c, p) in picks.iter().enumerate() {
        indptr[c + 1] = indptr[c] + p.len();
    }
    Ok((picks, indptr))
}

/// Fused extract + node-wise select: sample `k` in-neighbours per frontier
/// directly from the source matrix's columns, with block-diagonal row
/// offsets under super-batching.
///
/// A count pass picks neighbour offsets per frontier
/// ([`plan_frontier_picks`]), a prefix sum sizes the output, and
/// [`superbatch::gather_block`] writes each frontier's segment.
pub fn fused_extract_select(
    m: &GraphMatrix,
    k: usize,
    replace: bool,
    ctx: &ExecCtx<'_>,
    rngs: &mut [StdRng],
) -> Result<Value> {
    let csc = m.data.csc();
    let cols_f = ctx.concat_frontiers;
    let (picks, indptr) = plan_frontier_picks(&csc, k, replace, ctx, rngs)?;
    let block = superbatch::gather_block(&csc, indptr, ctx, |c| {
        let start = csc.col_range(cols_f[c] as usize).start;
        picks[c].iter().map(move |&off| start + off)
    });
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
            // concatenated frontiers (`exec::superbatch_compatible`
            // admits nothing else; `ColStreams::draw` re-checks), so
            // each group draws exactly what it would alone.
            let streams = ColStreams::draw(rngs, ctx.col_offsets, m.shape().1)?;
            let data = if *replace {
                individual_sample_with_replacement_seeded(
                    &m.data,
                    *k,
                    probs.map(|p| &p.data),
                    &streams,
                )?
            } else {
                individual_sample_seeded(&m.data, *k, probs.map(|p| &p.data), &streams)?
            };
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
        Op::CompactCols => {
            let m = want_matrix(inputs[0], "compact_cols")?;
            Ok(Value::Matrix(m.compact_cols()))
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
