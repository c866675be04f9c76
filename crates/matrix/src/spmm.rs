//! Sparse × dense multiplication kernels.
//!
//! [`spmm`] implements `A @ D` (paper Table 4): sparse `(N, M)` times dense
//! `(M, K)` gives dense `(N, K)`. [`sddmm`] computes per-edge dot products
//! `out[e] = B.row(r_e) · C.row(c_e)` — the sampled dense-dense product
//! PASS uses to turn feature projections into edge attention without
//! materializing the full dense `N × T` product.
//!
//! # Single-thread engineering (DESIGN.md §11)
//!
//! The hot kernel is restructured along two axes, both preserving the
//! baseline's per-output-element f32 rounding order exactly:
//!
//! - **Wide edge unrolling** ([`accum_run`]): edges are consumed eight at
//!   a time (with a four-wide then scalar tail), so each output element is
//!   loaded/stored once per group instead of once per edge, the
//!   weighted/unweighted branch is hoisted out of the inner loop entirely,
//!   and upcoming dense rows are software-prefetched a few edges ahead.
//!   Per element the adds still happen edge by edge in ascending position
//!   order — the same rounded-f32 sequence the one-edge-at-a-time loop
//!   produced, so golden fingerprints survive.
//! - **Cache blocking**: for operands larger than the fast cache the
//!   column axis is partitioned into blocks sized so a block's dense rows
//!   stay resident; a tile of output rows walks the blocks in ascending
//!   order with one cursor per row. Within a row, edges are still visited
//!   in ascending index order (CSR/CSC validation guarantees sorted
//!   indices), so blocking reorders *which row is touched when*, never
//!   the accumulation order of any single element.
//!
//! The block width is derived from a one-shot pointer-chase cache probe
//! ([`calibrated_block_bytes`]). [`spmm_baseline`] retains the
//! pre-optimization kernel for the `floors` bench ratio and the
//! bit-equality tests.

use std::sync::OnceLock;
use std::time::Instant;

use gsampler_runtime::prefetch::prefetch_read;
use gsampler_runtime::{parallel_map, parallel_scatter};

use crate::csc::Csc;
use crate::csr::Csr;
use crate::dense::{dots, Dense};
use crate::error::{Error, Result};
use crate::par_gate;
use crate::sparse::SparseMatrix;
use crate::{Axis, NodeId};

/// Output rows per blocked-traversal tile (one scatter segment). Block
/// reuse only happens *within* a tile — a block's dense rows must be
/// consumed by as many output rows as possible while still resident — so
/// tiles are large: with average degree `d` and `B` column blocks, one
/// block pass over a tile touches `TILE_ROWS * d / B` edges, and that
/// number must comfortably exceed the block's row count for the traffic
/// saving to materialize. The tile's output segment streams sequentially
/// during a block pass, so it does not compete for cache residency.
const TILE_ROWS: usize = 16384;

/// Below this edge count the whole operand fits in cache anyway and the
/// tile bookkeeping would only add overhead.
const BLOCK_MIN_NNZ: usize = 1 << 15;

/// Narrowest column block the auto-tuner will pick. Guards against a
/// mis-calibrated budget producing sliver blocks whose per-block cursor
/// bookkeeping and output re-walks dominate the traffic they save.
const MIN_BLOCK_COLS: usize = 1024;

/// Sparse-matrix × dense-matrix product `A @ D`.
///
/// `A` is `(N, M)` sparse, `D` is `(M, K)` dense; the result is `(N, K)`
/// dense. Row `i` of the result aggregates `D`'s rows over `A`'s row-`i`
/// edges weighted by the edge values — exactly the neighbour-aggregation
/// primitive of GNNs.
///
/// The product is row-partitioned over the worker pool through a canonical
/// CSR view, which also pins the f32 accumulation order per output row —
/// results are identical for any input format, any thread count, and any
/// cache-block width.
pub fn spmm(a: &SparseMatrix, d: &Dense) -> Result<Dense> {
    spmm_with_block(a, d, configured_block_cols(d.ncols(), a.ncols(), a.nnz()))
}

/// Transposed SpMM: `A.T @ D`, aggregating over columns instead of rows.
///
/// `A` is `(N, M)` sparse, `D` is `(N, K)` dense; the result is `(M, K)`.
///
/// Column-partitioned through a canonical CSC view (each output row is one
/// column of `A`), with the same format- and thread-count-independence
/// guarantee as [`spmm`].
pub fn spmm_t(a: &SparseMatrix, d: &Dense) -> Result<Dense> {
    spmm_t_with_block(a, d, configured_block_cols(d.ncols(), a.nrows(), a.nnz()))
}

/// [`spmm`] with an explicit cache-block width in columns of `A`
/// (`None` = flat traversal). The result is bit-identical for every block
/// choice; this entry point exists for tests that pin the traversal
/// instead of taking the calibrated width.
pub fn spmm_with_block(a: &SparseMatrix, d: &Dense, block_cols: Option<usize>) -> Result<Dense> {
    if a.ncols() != d.nrows() {
        return Err(Error::ShapeMismatch {
            op: "spmm",
            lhs: a.shape(),
            rhs: d.shape(),
        });
    }
    let owned: Csr;
    let csr = match a {
        SparseMatrix::Csr(m) => m,
        _ => {
            owned = a.to_csr();
            &owned
        }
    };
    let mut out = Dense::zeros(a.nrows(), d.ncols());
    spmm_lines(
        Lines {
            indptr: &csr.indptr,
            indices: &csr.indices,
            values: csr.values.as_deref(),
            nlines: csr.nrows,
            axis: csr.ncols,
        },
        d,
        &mut out,
        block_cols,
    );
    Ok(out)
}

/// [`spmm_t`] with an explicit cache-block width (see
/// [`spmm_with_block`]).
pub fn spmm_t_with_block(a: &SparseMatrix, d: &Dense, block_cols: Option<usize>) -> Result<Dense> {
    if a.nrows() != d.nrows() {
        return Err(Error::ShapeMismatch {
            op: "spmm_t",
            lhs: a.shape(),
            rhs: d.shape(),
        });
    }
    let owned: Csc;
    let csc = match a {
        SparseMatrix::Csc(m) => m,
        _ => {
            owned = a.to_csc();
            &owned
        }
    };
    let mut out = Dense::zeros(a.ncols(), d.ncols());
    spmm_lines(
        Lines {
            indptr: &csc.indptr,
            indices: &csc.indices,
            values: csc.values.as_deref(),
            nlines: csc.ncols,
            axis: csc.nrows,
        },
        d,
        &mut out,
        block_cols,
    );
    Ok(out)
}

/// The pre-optimization SpMM kernel, retained verbatim: the denominator of
/// the `floors` bench speedup ratio and the bit-equality reference for the
/// unrolled/blocked traversals.
pub fn spmm_baseline(a: &SparseMatrix, d: &Dense) -> Result<Dense> {
    if a.ncols() != d.nrows() {
        return Err(Error::ShapeMismatch {
            op: "spmm",
            lhs: a.shape(),
            rhs: d.shape(),
        });
    }
    let k = d.ncols();
    let owned: Csr;
    let csr = match a {
        SparseMatrix::Csr(m) => m,
        _ => {
            owned = a.to_csr();
            &owned
        }
    };
    let mut out = Dense::zeros(a.nrows(), k);
    let offsets: Vec<usize> = (0..=csr.nrows).map(|r| r * k).collect();
    let min_items = par_gate(csr.nnz().saturating_mul(k));
    parallel_scatter(out.as_mut_slice(), &offsets, min_items, |r, dst| {
        for pos in csr.row_range(r) {
            let v = csr.value_at(pos);
            let src = d.row(csr.indices[pos] as usize);
            for (o, &x) in dst.iter_mut().zip(src) {
                *o += v * x;
            }
        }
    });
    Ok(out)
}

/// A compressed-axis view unifying CSR (lines = rows) and CSC (lines =
/// columns) so both products share one traversal.
struct Lines<'a> {
    indptr: &'a [usize],
    indices: &'a [NodeId],
    values: Option<&'a [f32]>,
    /// Number of compressed lines = output rows.
    nlines: usize,
    /// Length of the indexed axis (the dense operand's row count).
    axis: usize,
}

/// Shared product body: out.row(line) += Σ value · d.row(index) over the
/// line's edges, flat or cache-blocked.
fn spmm_lines(l: Lines<'_>, d: &Dense, out: &mut Dense, block_cols: Option<usize>) {
    let k = d.ncols();
    let nnz = l.indptr[l.nlines];
    let min_items = par_gate(nnz.saturating_mul(k));
    match block_cols {
        Some(block) if block < l.axis && k > 0 => {
            // Tile-granularity segments: each segment owns TILE_ROWS
            // output rows and walks the column blocks with one cursor per
            // row, so a block's dense rows are reused across the tile
            // while still resident.
            let tiles = l.nlines.div_ceil(TILE_ROWS);
            let offsets: Vec<usize> = (0..=tiles)
                .map(|t| (t * TILE_ROWS).min(l.nlines) * k)
                .collect();
            parallel_scatter(out.as_mut_slice(), &offsets, min_items, |t, seg| {
                let lo = t * TILE_ROWS;
                let hi = (lo + TILE_ROWS).min(l.nlines);
                let mut cursors: Vec<usize> = l.indptr[lo..hi].to_vec();
                let mut block_start = 0usize;
                while block_start < l.axis {
                    let block_end = (block_start + block).min(l.axis) as NodeId;
                    for r in lo..hi {
                        let end = l.indptr[r + 1];
                        let cur = cursors[r - lo];
                        let mut run = cur;
                        while run < end && l.indices[run] < block_end {
                            run += 1;
                        }
                        if run > cur {
                            let dst = &mut seg[(r - lo) * k..(r - lo + 1) * k];
                            accum_run(l.indices, l.values, cur, run, d, dst);
                            cursors[r - lo] = run;
                        }
                    }
                    block_start += block;
                }
            });
        }
        _ => {
            let offsets: Vec<usize> = (0..=l.nlines).map(|r| r * k).collect();
            parallel_scatter(out.as_mut_slice(), &offsets, min_items, |r, dst| {
                accum_run(l.indices, l.values, l.indptr[r], l.indptr[r + 1], d, dst);
            });
        }
    }
}

/// Edges of look-ahead between issuing a dense-row prefetch and consuming
/// the row. Sized so the L2/L3 fill completes while ~2 quads of arithmetic
/// drain, without running past typical row runs.
const PREFETCH_EDGES: usize = 8;

/// Hint the cache lines of dense row `r` into L1/L2 ahead of use.
///
/// The gather of `d.row(index)` per edge is the latency wall of SpMM once
/// the operand no longer sits in L1: rows land on random cache lines the
/// hardware prefetcher cannot predict from the edge stream. A prefetch is
/// purely a hint — no load is architecturally performed — so this cannot
/// change results, only hide fill latency.
#[inline(always)]
fn prefetch_row(d: &Dense, r: usize, k: usize) {
    prefetch_read(&d.row(r)[..k]);
}

/// Accumulate the contiguous edge run `lo..hi` into `dst`, eight edges per
/// step (then a four-wide and a scalar tail). For each output element the
/// adds happen edge by edge in ascending position order — exactly the
/// rounding sequence of the baseline's one-edge loop — while the element
/// load/store and the weightedness branch are amortized over the group and
/// upcoming rows are prefetched [`PREFETCH_EDGES`] ahead.
#[inline]
fn accum_run(
    indices: &[NodeId],
    values: Option<&[f32]>,
    lo: usize,
    hi: usize,
    d: &Dense,
    dst: &mut [f32],
) {
    let k = dst.len();
    let mut e = lo;
    // Warm the first rows of the run before the main loop needs them.
    for &r in &indices[lo..(lo + 4).min(hi)] {
        prefetch_row(d, r as usize, k);
    }
    match values {
        Some(vals) => {
            while e + 8 <= hi {
                for &r in &indices[(e + PREFETCH_EDGES)..(e + PREFETCH_EDGES + 8).min(hi)] {
                    prefetch_row(d, r as usize, k);
                }
                let s0 = &d.row(indices[e] as usize)[..k];
                let s1 = &d.row(indices[e + 1] as usize)[..k];
                let s2 = &d.row(indices[e + 2] as usize)[..k];
                let s3 = &d.row(indices[e + 3] as usize)[..k];
                let s4 = &d.row(indices[e + 4] as usize)[..k];
                let s5 = &d.row(indices[e + 5] as usize)[..k];
                let s6 = &d.row(indices[e + 6] as usize)[..k];
                let s7 = &d.row(indices[e + 7] as usize)[..k];
                for (j, o) in dst.iter_mut().enumerate() {
                    let mut acc = *o;
                    acc += vals[e] * s0[j];
                    acc += vals[e + 1] * s1[j];
                    acc += vals[e + 2] * s2[j];
                    acc += vals[e + 3] * s3[j];
                    acc += vals[e + 4] * s4[j];
                    acc += vals[e + 5] * s5[j];
                    acc += vals[e + 6] * s6[j];
                    acc += vals[e + 7] * s7[j];
                    *o = acc;
                }
                e += 8;
            }
            if e + 4 <= hi {
                let s0 = &d.row(indices[e] as usize)[..k];
                let s1 = &d.row(indices[e + 1] as usize)[..k];
                let s2 = &d.row(indices[e + 2] as usize)[..k];
                let s3 = &d.row(indices[e + 3] as usize)[..k];
                let (v0, v1, v2, v3) = (vals[e], vals[e + 1], vals[e + 2], vals[e + 3]);
                for (j, o) in dst.iter_mut().enumerate() {
                    let mut acc = *o;
                    acc += v0 * s0[j];
                    acc += v1 * s1[j];
                    acc += v2 * s2[j];
                    acc += v3 * s3[j];
                    *o = acc;
                }
                e += 4;
            }
            while e < hi {
                let v = vals[e];
                let src = &d.row(indices[e] as usize)[..k];
                for j in 0..k {
                    dst[j] += v * src[j];
                }
                e += 1;
            }
        }
        // Unweighted edges have value 1.0; `x + 1.0 * y` rounds exactly
        // like `x + y`, so the add form is still bit-identical.
        None => {
            while e + 8 <= hi {
                for &r in &indices[(e + PREFETCH_EDGES)..(e + PREFETCH_EDGES + 8).min(hi)] {
                    prefetch_row(d, r as usize, k);
                }
                let s0 = &d.row(indices[e] as usize)[..k];
                let s1 = &d.row(indices[e + 1] as usize)[..k];
                let s2 = &d.row(indices[e + 2] as usize)[..k];
                let s3 = &d.row(indices[e + 3] as usize)[..k];
                let s4 = &d.row(indices[e + 4] as usize)[..k];
                let s5 = &d.row(indices[e + 5] as usize)[..k];
                let s6 = &d.row(indices[e + 6] as usize)[..k];
                let s7 = &d.row(indices[e + 7] as usize)[..k];
                for (j, o) in dst.iter_mut().enumerate() {
                    let mut acc = *o;
                    acc += s0[j];
                    acc += s1[j];
                    acc += s2[j];
                    acc += s3[j];
                    acc += s4[j];
                    acc += s5[j];
                    acc += s6[j];
                    acc += s7[j];
                    *o = acc;
                }
                e += 8;
            }
            if e + 4 <= hi {
                let s0 = &d.row(indices[e] as usize)[..k];
                let s1 = &d.row(indices[e + 1] as usize)[..k];
                let s2 = &d.row(indices[e + 2] as usize)[..k];
                let s3 = &d.row(indices[e + 3] as usize)[..k];
                for (j, o) in dst.iter_mut().enumerate() {
                    let mut acc = *o;
                    acc += s0[j];
                    acc += s1[j];
                    acc += s2[j];
                    acc += s3[j];
                    *o = acc;
                }
                e += 4;
            }
            while e < hi {
                let src = &d.row(indices[e] as usize)[..k];
                for j in 0..k {
                    dst[j] += src[j];
                }
                e += 1;
            }
        }
    }
}

/// The block width in columns of `A` the auto-tuner would use, or `None`
/// for a flat traversal.
///
/// The width is the calibrated fast cache budget divided by the dense row
/// stride — and `None` whenever the whole operand already fits the budget
/// or the matrix is too small for tiling to pay.
fn configured_block_cols(k: usize, axis: usize, nnz: usize) -> Option<usize> {
    if nnz < BLOCK_MIN_NNZ || k == 0 {
        return None;
    }
    let budget = calibrated_block_bytes();
    let row_bytes = k * std::mem::size_of::<f32>();
    let block = (budget / row_bytes.max(1)).max(MIN_BLOCK_COLS);
    if block >= axis {
        None
    } else {
        Some(block)
    }
}

/// One-shot estimate of the bytes an SpMM column block may occupy so its
/// dense rows stay cache-resident.
///
/// A pointer-chase probe (a shuffled single-cycle walk, which defeats the
/// prefetcher) measures per-access latency at growing working-set sizes;
/// the budget is the largest size still within 2.5× of the 256 KiB rung's
/// latency, clamped to [1 MiB, 2 MiB]. The result only picks a traversal
/// order — every block width yields bit-identical output — so a noisy
/// probe can cost performance, never correctness.
fn calibrated_block_bytes() -> usize {
    static BYTES: OnceLock<usize> = OnceLock::new();
    *BYTES.get_or_init(|| {
        // Anchor the threshold on the 256 KiB rung — spiritually "L2
        // latency" — not the smallest set: the L1→L2 step alone is a >2x
        // latency jump that blocking happily tolerates, and anchoring on
        // L1 made the search bail at its first rung on any host with a
        // normal hierarchy. Per-size latency is the min of three probe
        // passes so one noisy pass on a shared host cannot truncate the
        // search; the budget is the largest rung still within 2x of the
        // anchor, clamped to [1 MiB, 2 MiB] — below that blocks are too
        // narrow to amortize the tile bookkeeping, above it the block
        // competes with the tile's streaming output for residency.
        let lat = |bytes| {
            (0..3)
                .map(|_| probe_ns_per_access(bytes))
                .fold(f64::INFINITY, f64::min)
        };
        let anchor = lat(256 << 10);
        let mut fast = 256 << 10;
        for bytes in [512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20] {
            if lat(bytes) <= anchor * 2.5 {
                fast = bytes;
            } else {
                break;
            }
        }
        fast.clamp(1 << 20, 2 << 20)
    })
}

/// Median-free single-pass latency probe: ns per dependent load when
/// chasing a full-cycle permutation over `bytes` of u64 slots.
fn probe_ns_per_access(bytes: usize) -> f64 {
    let n = (bytes / std::mem::size_of::<u64>()).max(16);
    // Deterministic SplitMix64 Fisher–Yates shuffle, then link successive
    // elements into one cycle covering every slot.
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut rng = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        order.swap(i, (rng() % (i as u64 + 1)) as usize);
    }
    let mut next = vec![0u32; n];
    for w in order.windows(2) {
        next[w[0] as usize] = w[1];
    }
    next[order[n - 1] as usize] = order[0];

    let steps = 1usize << 15;
    let mut p = 0u32;
    for _ in 0..steps {
        p = next[p as usize];
    }
    let start = Instant::now();
    for _ in 0..steps {
        p = next[p as usize];
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    std::hint::black_box(p);
    elapsed / steps as f64
}

/// Sampled dense-dense multiplication: for every stored edge `(r, c)` of
/// `pattern`, compute `B.row(r) · C.row(c)`; the result is a sparse matrix
/// with `pattern`'s structure and the dot products as values.
///
/// `B` must have `pattern.nrows()` rows and `C` must have
/// `pattern.ncols()` rows; both must share the feature dimension.
pub fn sddmm(pattern: &SparseMatrix, b: &Dense, c: &Dense) -> Result<SparseMatrix> {
    if b.nrows() != pattern.nrows() {
        return shape_error("sddmm lhs rows", pattern.shape(), b);
    }
    sddmm_by_id(pattern, None, pattern.nrows(), b, c)
}

fn shape_error<T>(op: &'static str, lhs: (usize, usize), rhs: &Dense) -> Result<T> {
    let rhs = rhs.shape();
    Err(Error::ShapeMismatch { op, lhs, rhs })
}

/// [`sddmm`] with `B` indexed by each row's *global* ID — `row_ids[r]`, or
/// `r` without a table — so a compacted sub-matrix reads a full-graph table
/// directly and a block-diagonal super-batched one through `id mod period`
/// (only a table of exactly `period` rows wraps); an edge whose row the
/// table cannot serve is the `"sddmm lhs rows"` shape error.
///
/// The one SDDMM (`Op::Sddmm`, the eager baseline and [`sddmm`] run it), in
/// the storage it is handed: a CSC / CSR segment fixes one operand row (the
/// column's `C` row, the row's `B` row), gathers the other and writes its
/// dots into the output values on the pool ([`dots`]: strict order from
/// `-0.0`, four edges abreast); COO is one task per edge.
pub fn sddmm_by_id(
    pattern: &SparseMatrix,
    row_ids: Option<&[NodeId]>,
    period: usize,
    b: &Dense,
    c: &Dense,
) -> Result<SparseMatrix> {
    if c.nrows() != pattern.ncols() {
        return shape_error("sddmm rhs rows", pattern.shape(), c);
    }
    if b.ncols() != c.ncols() {
        return shape_error("sddmm feature dims", b.shape(), c);
    }
    let bn = b.nrows();
    let id = |r: usize| row_ids.map_or(r, |ids| ids[r] as usize);
    // Only a table of `period` rows wraps; any other must hold the row of
    // every edge (a row without edges may carry any ID).
    let mut served = true;
    if bn != period || bn == 0 {
        let rows = pattern.edge_index(Axis::Row);
        rows.for_each(|r, _| served &= id(r) < bn);
    }
    if !served {
        return shape_error("sddmm lhs rows", pattern.shape(), b);
    }
    let lhs = |r: usize| b.row(if id(r) < bn { id(r) } else { id(r) % bn.max(1) });
    let min_items = par_gate(pattern.nnz().saturating_mul(b.ncols()));
    let values = match (pattern.compressed(), pattern) {
        (Some((axis, (indptr, indices, _))), _) => {
            let mut values = vec![0f32; pattern.nnz()];
            parallel_scatter(&mut values, indptr, min_items, |seg, out| {
                let ids = &indices[indptr[seg]..indptr[seg + 1]];
                match axis {
                    _ if ids.is_empty() => {}
                    Axis::Col => dots(c.row(seg), |e| lhs(ids[e] as usize), out),
                    Axis::Row => dots(lhs(seg), |e| c.row(ids[e] as usize), out),
                }
            });
            values
        }
        (None, SparseMatrix::Coo(m)) => parallel_map(m.nnz(), min_items, |e| {
            let (x, y) = (lhs(m.rows[e] as usize), c.row(m.cols[e] as usize));
            x.iter().zip(y).fold(-0.0, |dot, (&x, &y)| dot + x * y)
        }),
        (None, _) => unreachable!("only COO has no compressed axis"),
    };
    Ok(pattern.with_values(values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csc::Csc;
    use crate::Format;

    fn sample() -> SparseMatrix {
        SparseMatrix::Csc(
            Csc::new(
                4,
                3,
                vec![0, 2, 3, 6],
                vec![0, 2, 1, 0, 1, 3],
                Some(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            )
            .unwrap(),
        )
    }

    /// Deterministic pseudo-random CSR large enough that quads, remainder
    /// edges, and multiple column blocks all occur.
    fn random_csr(nrows: usize, ncols: usize, avg_deg: usize, weighted: bool) -> SparseMatrix {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut indptr = vec![0usize];
        let mut indices = Vec::new();
        for _ in 0..nrows {
            let deg = (rng() % (2 * avg_deg as u64 + 1)) as usize;
            let mut cols: Vec<NodeId> =
                (0..deg).map(|_| (rng() % ncols as u64) as NodeId).collect();
            cols.sort_unstable();
            cols.dedup();
            indices.extend_from_slice(&cols);
            indptr.push(indices.len());
        }
        let values = weighted.then(|| {
            (0..indices.len())
                .map(|_| (rng() % 1000) as f32 / 100.0 - 5.0)
                .collect()
        });
        SparseMatrix::Csr(Csr::new(nrows, ncols, indptr, indices, values).unwrap())
    }

    fn random_dense(nrows: usize, ncols: usize) -> Dense {
        let mut state = 0xfeed_beef_dead_cafeu64;
        let data = (0..nrows * ncols)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 2000) as f32 / 200.0 - 5.0
            })
            .collect();
        Dense::from_vec(nrows, ncols, data).unwrap()
    }

    #[test]
    fn spmm_against_dense_reference() {
        let a = sample();
        let d = Dense::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]).unwrap();
        let out = spmm(&a, &d).unwrap();
        // Dense reference: materialize A and multiply.
        let mut a_dense = Dense::zeros(4, 3);
        for (r, c, v) in a.iter_edges() {
            a_dense.set(r as usize, c as usize, v);
        }
        let reference = a_dense.matmul(&d).unwrap();
        assert_eq!(out, reference);
    }

    #[test]
    fn spmm_format_independent() {
        let a = sample();
        let d = Dense::from_vec(3, 2, (0..6).map(|x| x as f32).collect()).unwrap();
        let reference = spmm(&a, &d).unwrap();
        for fmt in Format::ALL {
            assert_eq!(spmm(&a.to_format(fmt), &d).unwrap(), reference);
        }
    }

    #[test]
    fn spmm_t_is_transpose() {
        let a = sample();
        let d = Dense::from_vec(4, 2, (0..8).map(|x| x as f32).collect()).unwrap();
        let out = spmm_t(&a, &d).unwrap();
        assert_eq!(out.shape(), (3, 2));
        // Column 2 of A has edges (0,4.0),(1,5.0),(3,6.0):
        // out[2] = 4*d[0] + 5*d[1] + 6*d[3]
        assert_eq!(out.get(2, 0), 4.0 * 0.0 + 5.0 * 2.0 + 6.0 * 6.0);
        assert_eq!(out.get(2, 1), 4.0 * 1.0 + 5.0 * 3.0 + 6.0 * 7.0);
    }

    #[test]
    fn unrolled_and_blocked_match_baseline_bitwise() {
        // The acceptance bar for every traversal variant: exact f32
        // equality with the pre-optimization kernel, weighted and not,
        // across block widths spanning sub-row to multi-block regimes.
        let d = random_dense(1500, 17);
        for weighted in [true, false] {
            let a = random_csr(800, 1500, 20, weighted);
            let reference = spmm_baseline(&a, &d).unwrap();
            for block in [None, Some(1), Some(7), Some(128), Some(100_000)] {
                let got = spmm_with_block(&a, &d, block).unwrap();
                assert_eq!(
                    got.as_slice(),
                    reference.as_slice(),
                    "weighted={weighted} block={block:?}"
                );
            }
            // The default entry point (env/auto choice) must also match.
            assert_eq!(spmm(&a, &d).unwrap().as_slice(), reference.as_slice());
        }
    }

    #[test]
    fn spmm_t_blocked_matches_flat_bitwise() {
        let d = random_dense(800, 9);
        for weighted in [true, false] {
            let a = random_csr(800, 600, 15, weighted);
            let flat = spmm_t_with_block(&a, &d, None).unwrap();
            for block in [Some(1), Some(33), Some(256)] {
                let got = spmm_t_with_block(&a, &d, block).unwrap();
                assert_eq!(got.as_slice(), flat.as_slice(), "weighted={weighted}");
            }
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = sample();
        assert!(spmm(&a, &Dense::zeros(5, 2)).is_err());
        assert!(spmm_t(&a, &Dense::zeros(3, 2)).is_err());
        assert!(spmm_baseline(&a, &Dense::zeros(5, 2)).is_err());
    }

    #[test]
    fn sddmm_dot_products() {
        let a = sample();
        let b = Dense::from_vec(4, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0]).unwrap();
        let c = Dense::from_vec(3, 2, vec![1.0, 1.0, 2.0, 0.0, 0.0, 3.0]).unwrap();
        let out = sddmm(&a, &b, &c).unwrap();
        assert_eq!(out.nnz(), a.nnz());
        // Edge (0,0): b.row(0)=[1,0], c.row(0)=[1,1] -> 1.0
        // Edge (3,2): b.row(3)=[2,2], c.row(2)=[0,3] -> 6.0
        let edges = out.sorted_edges();
        assert!(edges.contains(&(0, 0, 1.0)));
        assert!(edges.contains(&(3, 2, 6.0)));
    }

    #[test]
    fn sddmm_shape_checks() {
        let a = sample();
        assert!(sddmm(&a, &Dense::zeros(3, 2), &Dense::zeros(3, 2)).is_err());
        assert!(sddmm(&a, &Dense::zeros(4, 2), &Dense::zeros(2, 2)).is_err());
        assert!(sddmm(&a, &Dense::zeros(4, 2), &Dense::zeros(3, 5)).is_err());
    }

    #[test]
    fn unweighted_spmm_sums_neighbours() {
        let a = SparseMatrix::Csc(Csc::new(2, 2, vec![0, 2, 2], vec![0, 1], None).unwrap());
        let d = Dense::from_vec(2, 1, vec![10.0, 20.0]).unwrap();
        let out = spmm(&a, &d).unwrap();
        assert_eq!(out.get(0, 0), 10.0);
        assert_eq!(out.get(1, 0), 10.0);
    }

    #[test]
    fn calibration_is_sane() {
        let b = calibrated_block_bytes();
        assert!((1 << 20..=2 << 20).contains(&b));
        // Memoized: a second call must agree.
        assert_eq!(calibrated_block_bytes(), b);
    }
}
