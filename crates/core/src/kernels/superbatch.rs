//! Super-batch (block-diagonal) execution support — paper §4.4.
//!
//! When `S` frontier groups are sampled together, the extract step builds
//! a block-diagonal matrix: group `b`'s rows live in ID range
//! `[b·N, (b+1)·N)`, so the groups cannot interfere. The segmented kernels
//! here are thin wrappers over the same base primitives the plain path
//! uses: `gather_block` is the matrix crate's `slice::gather_cols` with
//! this layout's row count and per-column `b·N` offsets — what both extract
//! kernels (`segmented_slice_cols`, `fused_extract_select`) write through —
//! and collective sampling is `sample::collective_select` with one segment
//! per group, sliced or (`fused_extract_collective`) read from the graph.
//! Each group draws with its own key, which is what keeps seeded outputs
//! bit-identical across batch modes and thread counts; the groups
//! are also the selector's work items on the worker pool (as they are the
//! extract-reduce's, `reduce::reduce_col_groups`), so a factor-`S` launch
//! draws its groups side by side.
//!
//! [`split_outputs`] *un-blocks* at program exit: group `b`'s share of an
//! output matrix is the diagonal block it already is — columns
//! `col_offsets[b]..col_offsets[b+1]` by the group's row run, found once
//! per output — copied out as a contiguous range with rows shifted, in the
//! same storage format and without compaction, so it equals the group's
//! solo execution field by field. An edge outside every diagonal block is
//! a typed error.

use std::ops::Range;
use std::sync::Arc;

use gsampler_ir::Facts;
use gsampler_matrix::sample::{self, collective_sample_segments, collective_select};
use gsampler_matrix::{convert, slice, Coo, Csc, GraphMatrix, NodeId, SparseMatrix};
use gsampler_runtime::Key;

use crate::error::{Error, Result};
use crate::value::Value;

use super::eltwise::fit_row_vector;
use super::{group_of_col, ExecCtx};

/// Assemble a block-diagonal extract of the base matrix `csc`, the one
/// layout both extract kernels write: [`slice::gather_cols`] with the rows
/// of output column `c` lifted by the `b·N` of the group owning `c`, `S·N`
/// rows in all. `positions(c, out)` are the source positions of base column
/// `concat_frontiers[c]` that fill output entries `out`.
pub(super) fn gather_block<I: Iterator<Item = usize>>(
    csc: &Csc,
    indptr: Vec<usize>,
    ctx: &ExecCtx<'_>,
    positions: impl Fn(usize, Range<usize>) -> I + Sync,
) -> Csc {
    let nrows = if ctx.s > 1 { ctx.n * ctx.s } else { csc.nrows };
    let lift = |c| {
        let offset = ctx.row_offset(c);
        move |r| r + offset
    };
    slice::gather_cols(csc, nrows, indptr, positions, lift)
}

/// Segmented (block-diagonal) column extraction from a base-space matrix:
/// output degrees come straight from the source indptr.
pub fn segmented_slice_cols(m: &GraphMatrix, ctx: &ExecCtx<'_>) -> Result<Value> {
    let csc = m.data.csc();
    let cols_f = ctx.concat_frontiers;
    ctx.check_frontiers(csc.ncols, "segmented_slice_cols")?;
    let mut indptr = vec![0usize; cols_f.len() + 1];
    for (c, &f) in cols_f.iter().enumerate() {
        indptr[c + 1] = indptr[c] + csc.col_range(f as usize).len();
    }
    let block = gather_block(&csc, indptr, ctx, |c, _| csc.col_range(cols_f[c] as usize));
    Ok(Value::Matrix(GraphMatrix {
        data: SparseMatrix::Csc(block).into_format(m.data.format()),
        row_ids: None,
        col_ids: Some(Arc::new(cols_f.to_vec())),
    }))
}

/// Collective (layer-wise) sampling, segmented per super-batch group: `k`
/// distinct rows are selected inside each group's row range. The matrix
/// crate's one collective routine, given this layout's segments — a row
/// belongs to the group its global (block) ID falls in — and one key per
/// segment, its group's.
pub fn segmented_collective_sample(
    m: &GraphMatrix,
    k: usize,
    probs: Option<&[f32]>,
    ctx: &ExecCtx<'_>,
    keys: &[Key],
) -> Result<Value> {
    let weights = probs.map(|p| fit_row_vector(m, p));
    let runs = segment_runs(m, ctx)?;
    let sample = collective_sample_segments(&m.data, k, weights.as_deref(), &runs, keys)?;
    Ok(selected(m, sample.matrix, &sample.rows))
}

/// Group `b`'s rows (global IDs `b·N..(b+1)·N`) as runs: arithmetic (the
/// last group also takes rows past `S·N`), or [`row_runs`] over row IDs.
fn segment_runs(rows: &GraphMatrix, ctx: &ExecCtx<'_>) -> Result<Vec<usize>> {
    let (nrows, s) = (rows.shape().0, ctx.s.max(1));
    let starts = (0..s).map(|b| nrows.min(b * ctx.n));
    match &rows.row_ids {
        Some(ids) if s > 1 => row_runs(ids, ctx.n, s),
        _ => Ok(starts.chain([nrows]).collect()),
    }
}

/// The rows `picked` of `rows`' row space, stored as `data`.
fn selected(rows: &GraphMatrix, data: SparseMatrix, picked: &[NodeId]) -> Value {
    let globals = picked.iter().map(|&r| rows.global_row(r as usize));
    let (row_ids, col_ids) = (Some(Arc::new(globals.collect())), rows.col_ids.clone());
    Value::Matrix(GraphMatrix {
        data,
        row_ids,
        col_ids,
    })
}

/// `CollectiveSample(SliceCols(m, frontiers), probs)` without the slice:
/// the one selector draws in a column-less stand-in for the extract's rows
/// (`S·N` block rows, else `m`'s), then only the selected rows' edges are
/// written, from `m`'s frontier columns.
pub fn fused_extract_collective(
    m: &GraphMatrix,
    k: usize,
    probs: &[f32],
    ctx: &ExecCtx<'_>,
    keys: &[Key],
) -> Result<Value> {
    let (csc, cols) = (m.data.csc(), ctx.concat_frontiers);
    ctx.check_frontiers(csc.ncols, "fused_extract_collective")?;
    let block = ctx.s > 1 && csc.nrows == ctx.n;
    let rows = GraphMatrix {
        data: SparseMatrix::Csc(Csc::empty(if block { ctx.n * ctx.s } else { csc.nrows }, 0)),
        row_ids: m.row_ids.clone().filter(|_| !block),
        col_ids: Some(Arc::new(cols.to_vec())),
    };
    let weights = fit_row_vector(&rows, probs);
    let picked = collective_select(&weights, k, &segment_runs(&rows, ctx)?, keys)?;
    let lift = |c| if block { ctx.row_offset(c) } else { 0 };
    let out = sample::gather_selected_rows(&csc, cols, lift, rows.shape().0, &picked);
    let data = SparseMatrix::Csc(out).into_format(m.data.format());
    Ok(selected(&rows, data, &picked))
}

/// Un-block the outputs of one execution into per-group value lists.
/// `facts` is the program's fact table and `out_ids` its output nodes,
/// aligned with `outputs`. An output with [`Facts::block_rows`] is split
/// *by type*: its IDs cannot tell "group 0's rows" from "every group
/// sampled nothing above N".
pub fn split_outputs(
    outputs: Vec<Arc<Value>>,
    ctx: &ExecCtx<'_>,
    facts: &[Facts],
    out_ids: &[usize],
) -> Result<Vec<Vec<Value>>> {
    let mut per_group: Vec<Vec<Value>> = vec![Vec::new(); ctx.s];
    for (value, &id) in outputs.into_iter().zip(out_ids) {
        let pieces = unblock(value, facts[id].block_rows(), ctx)?;
        for (group, piece) in per_group.iter_mut().zip(pieces) {
            group.push(piece);
        }
    }
    Ok(per_group)
}

fn not_blocked(what: &str) -> Error {
    Error::Execution(format!("cannot un-block a super-batch output: {what}"))
}

/// One output's per-group pieces. An ID list that is not `proven`
/// block-space is still split as such when it visibly is (an ID at or
/// above `N`); otherwise every group gets it as it stands.
fn unblock(value: Arc<Value>, proven: bool, ctx: &ExecCtx<'_>) -> Result<Vec<Value>> {
    let (n, s, cols) = (ctx.n, ctx.s, ctx.col_offsets);
    let blocked = |ids: &[NodeId]| proven || ids.iter().any(|&i| i as usize >= n);
    // What this run produced is moved out of the executor's `Arc`; only a
    // genuinely shared value (a passed-through graph or precomputed input)
    // is cloned.
    let value = Arc::try_unwrap(value).unwrap_or_else(|shared| (*shared).clone());
    Ok(match value {
        // One group owns every row and column, whatever the value is (as
        // in `slice_sample::group_starts`): its block is the value itself.
        whole if s == 1 => vec![whole],
        Value::Matrix(m) => {
            let nrows = m.shape().0;
            // Group `b` owns local rows `runs[b]..runs[b + 1]`: arithmetic
            // without a row-id table, else one pass over it.
            let runs = match &m.row_ids {
                None if nrows == n * s => Some((0..=s).map(|b| b * n).collect()),
                None if proven || nrows > n => return Err(not_blocked("rows are not S x N")),
                Some(ids) if blocked(ids) => Some(row_runs(ids, n, s)?),
                _ => None,
            };
            let blocks = diagonal_blocks(&m, runs.as_deref(), cols)?.into_iter();
            let piece = |(b, data)| {
                let row_ids = match (&runs, &m.row_ids) {
                    (Some(r), Some(ids)) => {
                        let own = ids[r[b]..r[b + 1]].iter().map(|&i| i % n as NodeId);
                        Some(Arc::new(own.collect()))
                    }
                    (Some(_), None) => None,
                    (None, ids) => ids.clone(),
                };
                let col_ids = (cols[b]..cols[b + 1]).map(|c| m.global_col(c)).collect();
                Value::Matrix(GraphMatrix {
                    data,
                    row_ids,
                    col_ids: Some(Arc::new(col_ids)),
                })
            };
            blocks.enumerate().map(piece).collect()
        }
        Value::Nodes(ids) if blocked(&ids) => {
            let mut lists = vec![Vec::new(); s];
            for i in ids {
                let list = lists.get_mut(i as usize / n);
                list.ok_or_else(|| not_blocked("a node beyond S x N"))?
                    .push(i % n as NodeId);
            }
            lists.into_iter().map(Value::Nodes).collect()
        }
        Value::Vector(v) if v.len() == n * s => (0..s)
            .map(|b| Value::Vector(v[b * n..(b + 1) * n].to_vec()))
            .collect(),
        Value::Vector(v) if v.len() == cols[s] => (0..s)
            .map(|b| Value::Vector(v[cols[b]..cols[b + 1]].to_vec()))
            .collect(),
        whole => vec![whole; s],
    })
}

/// Row runs from a block-space row-id table — an output's groups, and the
/// segments a collective sample selects in. Programs compact and
/// row-select in block space keeping rows ascending, hence grouped.
fn row_runs(ids: &[NodeId], n: usize, s: usize) -> Result<Vec<usize>> {
    let mut runs = vec![0usize; s + 1];
    let mut last = 0;
    for &id in ids {
        let b = id as usize / n;
        if b < last || b >= s {
            return Err(not_blocked("a row outside block order"));
        }
        last = b;
        runs[b + 1] += 1;
    }
    for b in 0..s {
        runs[b + 1] += runs[b];
    }
    Ok(runs)
}

/// Every group's diagonal block of `m`: columns `cols[b]..cols[b + 1]` by
/// rows `runs[b]..runs[b + 1]` (every row, where it is, when the rows are
/// not in block space), in `m`'s storage format and edge order —
/// O(nnz + rows + cols) for all groups together. An edge outside every
/// diagonal block is an error, never a mis-scatter.
fn diagonal_blocks(
    m: &GraphMatrix,
    runs: Option<&[usize]>,
    cols: &[usize],
) -> Result<Vec<SparseMatrix>> {
    let s = cols.len() - 1;
    let (nrows, ncols) = m.shape();
    if ncols != cols[s] {
        return Err(not_blocked("columns are not the frontier groups'"));
    }
    // Group `b`'s row run; every row when the rows are shared.
    let run = |b: usize| runs.map_or(0..nrows, |o| o[b]..o[b + 1]);
    let local_row = |run: &Range<usize>, r: NodeId| {
        if run.contains(&(r as usize)) {
            Ok(r - run.start as NodeId)
        } else {
            Err(not_blocked("an edge in another group's rows"))
        }
    };
    match &m.data {
        SparseMatrix::Csc(csc) => (0..s)
            .map(|b| {
                let rows = run(b);
                let edges = csc.indptr[cols[b]]..csc.indptr[cols[b + 1]];
                let indptr = csc.indptr[cols[b]..=cols[b + 1]].iter();
                let indices = csc.indices[edges.clone()].iter();
                Ok(SparseMatrix::Csc(Csc {
                    nrows: rows.len(),
                    ncols: cols[b + 1] - cols[b],
                    indptr: indptr.map(|p| p - edges.start).collect(),
                    indices: indices
                        .map(|&r| local_row(&rows, r))
                        .collect::<Result<_>>()?,
                    values: csc.values.as_ref().map(|v| v[edges].to_vec()),
                }))
            })
            .collect(),
        // Row-major and coordinate storage: bucket the edges by their
        // column's group in one pass, keeping storage order.
        other => {
            let weighted = other.is_weighted();
            let mut buckets = vec![(Vec::new(), Vec::new(), Vec::new()); s];
            for (r, c, v) in other.iter_edges() {
                let b = group_of_col(cols, c as usize);
                buckets[b].0.push(local_row(&run(b), r)?);
                buckets[b].1.push(c - cols[b] as NodeId);
                if weighted {
                    buckets[b].2.push(v);
                }
            }
            let block = |(b, (rows, cols_b, vals)): (usize, (Vec<_>, Vec<_>, Vec<_>))| {
                let coo = Coo {
                    nrows: run(b).len(),
                    ncols: cols[b + 1] - cols[b],
                    rows,
                    cols: cols_b,
                    values: weighted.then_some(vals),
                };
                match other {
                    SparseMatrix::Csr(_) => SparseMatrix::Csr(convert::coo_to_csr(&coo)),
                    _ => SparseMatrix::Coo(coo),
                }
            };
            Ok(buckets.into_iter().enumerate().map(block).collect())
        }
    }
}
