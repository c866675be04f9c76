//! Extract / select kernels: column and row slicing, subgraph induction,
//! node-wise and layer-wise sampling, the fused extract+select kernel,
//! format conversion, and compaction.

use rand::rngs::StdRng;
use rand::Rng;

use gsampler_ir::Op;
use gsampler_matrix::sample::{
    individual_sample_seeded, individual_sample_with_replacement_seeded, StreamSource,
};
use gsampler_matrix::{Csc, GraphMatrix, NodeId, SparseMatrix};
use gsampler_runtime::parallel::{parallel_map, parallel_scatter, parallel_scatter2};

use crate::error::{Error, Result};
use crate::session_rng::ColStreams;
use crate::value::Value;

use super::eltwise::{want_matrix, want_nodes, want_vector, with_data};
use super::{par_gate, superbatch, ExecCtx};

/// The per-frontier neighbour choices of [`fused_extract_select`]: which
/// graph column each output column reads, its block-row offset under
/// super-batching, the sorted neighbour offsets picked for it, and the
/// output CSC column pointers.
struct FrontierPicks {
    cols_f: Vec<NodeId>,
    row_off: Vec<NodeId>,
    picks: Vec<Vec<usize>>,
    indptr: Vec<usize>,
}

/// Plan the sampled neighbour offsets for every frontier column.
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
) -> Result<FrontierPicks> {
    let n = ctx.n;
    let total_cols = ctx.concat_frontiers.len();

    // Flatten the groups into (frontier, block-row offset) per output
    // column, validating bounds up front so the parallel passes cannot
    // fail.
    let mut cols_f: Vec<NodeId> = Vec::with_capacity(total_cols);
    let mut row_off: Vec<NodeId> = Vec::with_capacity(total_cols);
    for (b, group) in ctx.frontier_groups.iter().enumerate() {
        let offset = if ctx.s > 1 { (b * n) as NodeId } else { 0 };
        for &f in group {
            if (f as usize) >= csc.ncols {
                return Err(gsampler_matrix::Error::IndexOutOfBounds {
                    op: "fused_extract_select",
                    index: f as usize,
                    bound: csc.ncols,
                }
                .into());
            }
            cols_f.push(f);
            row_off.push(offset);
        }
    }

    let pool = ColStreams::draw(rngs, ctx.col_offsets, total_cols)?;
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
    Ok(FrontierPicks {
        cols_f,
        row_off,
        picks,
        indptr,
    })
}

/// Fused extract + node-wise select: sample `k` in-neighbours per frontier
/// directly from the source matrix's columns, with block-diagonal row
/// offsets under super-batching.
///
/// A count pass picks neighbour offsets per frontier
/// ([`plan_frontier_picks`]), a prefix sum sizes the output, and a fill
/// pass writes each frontier's segment.
pub fn fused_extract_select(
    m: &GraphMatrix,
    k: usize,
    replace: bool,
    ctx: &ExecCtx<'_>,
    rngs: &mut [StdRng],
) -> Result<Value> {
    let n = ctx.n;
    let csc = m.data.to_csc();
    let total_cols = ctx.concat_frontiers.len();
    let FrontierPicks {
        cols_f,
        row_off,
        picks,
        indptr,
    } = plan_frontier_picks(&csc, k, replace, ctx, rngs)?;

    let out_nnz = *indptr.last().unwrap();
    let mut indices = vec![0 as NodeId; out_nnz];
    let gate = par_gate(out_nnz);
    let fill_idx = |c: usize, seg_i: &mut [NodeId]| {
        let range = csc.col_range(cols_f[c] as usize);
        let offset = row_off[c];
        for (j, &off) in picks[c].iter().enumerate() {
            seg_i[j] = csc.indices[range.start + off] + offset;
        }
    };
    let values = match csc.values.as_ref() {
        Some(src) => {
            let mut vals = vec![0f32; out_nnz];
            parallel_scatter2(&mut indices, &mut vals, &indptr, gate, |c, seg_i, seg_v| {
                fill_idx(c, seg_i);
                let range = csc.col_range(cols_f[c] as usize);
                for (j, &off) in picks[c].iter().enumerate() {
                    seg_v[j] = src[range.start + off];
                }
            });
            Some(vals)
        }
        None => {
            parallel_scatter(&mut indices, &indptr, gate, |c, seg_i| fill_idx(c, seg_i));
            None
        }
    };

    let nrows = if ctx.s > 1 { n * ctx.s } else { csc.nrows };
    let block = Csc {
        nrows,
        ncols: total_cols,
        indptr,
        indices,
        values,
    };
    Ok(Value::Matrix(GraphMatrix {
        data: SparseMatrix::Csc(block),
        row_ids: m.row_ids.clone(),
        col_ids: Some(std::sync::Arc::new(ctx.concat_frontiers.to_vec())),
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
