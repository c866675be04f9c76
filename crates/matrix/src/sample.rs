//! Selection kernels — the *select* step of the ECSF model.
//!
//! Two operators mirror the paper's Table 4:
//!
//! - [`individual_sample`] (`replace: bool`; [`individual_sample_seeded`]
//!   is its without-replacement form): each column (frontier)
//!   independently samples up to `K` of its stored edges — node-wise
//!   sampling (GraphSAGE, PASS, random walks with `K = 1`).
//! - [`collective_sample_seeded`]: sample `K` distinct *row* nodes across
//!   the whole matrix according to per-node bias — layer-wise sampling
//!   (FastGCN, LADIES, AS-GCN). It is the one-segment call of
//!   [`collective_sample_segments`], the one collective routine (weights ->
//!   candidates -> Efraimidis–Spirakis keys -> `slice_rows`), which a
//!   super-batch runs with one segment per group.
//!
//! Node-wise selection is one *pick* and one *gather*. [`pick_columns`]
//! chooses, for every output column, sorted source positions out of one
//! source column — the matrix's own column for `individual_sample`, the
//! frontier's column for the fused extract-select kernel, which is
//! therefore the same selection read through the frontier map — by count
//! -> prefix sum -> fill into one flat buffer; [`slice::gather_cols`]
//! writes the chosen entries. The pick reads its bias through a
//! [`ColumnBias`], one column at a time inside its parallel region: a
//! materialized array, a per-edge expression evaluated there
//! ([`crate::bias::EdgeBias`]), or none ([`Uniform`]).
//!
//! Layer-wise selection splits the same way, by segment (a super-batch
//! group's rows): [`collective_select`] sweeps every segment once —
//! validating its bias and counting its candidates — prefix-sums the
//! counts, and draws each segment into its own slice of one buffer on the
//! worker pool; [`gather_selected_rows`], the fused collective's masked
//! gather, picks the selected rows' entries by count -> prefix sum -> fill
//! over the same fixed column chunks as [`pick_columns`].
//!
//! The per-call primitives — Floyd's [`uniform_sample_without_replacement`],
//! Efraimidis–Spirakis [`weighted_sample_without_replacement`] (and its
//! `_seeded` form, which collective sampling runs; both keep the `k`
//! smallest `(key, index)` pairs in one bounded heap, not a full sort, and
//! skip the logarithm of a key that cannot win — keys are `-ln(u)/w` or
//! `+∞`, never NaN) and [`AliasTable`] for O(1) weighted draws with
//! replacement (the structure SkyWalker-style baselines use) — are the
//! references the pick is tested against: it calls the weighted two per
//! column and runs Floyd in place.
//!
//! The operators take a [`StreamSource`] (an [`RngPool`], hence
//! `_seeded`): column `c` (or candidate `i`) always consumes RNG stream
//! `c`, and the work items are columns, chunks or segments of the input,
//! so the sampled output is bit-identical at any worker-pool thread count.

use std::borrow::Cow;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use gsampler_runtime::{parallel_map, parallel_scatter, RngPool};
use rand::rngs::StdRng;
use rand::Rng;

use crate::csc::Csc;
use crate::error::{Error, Result};
use crate::par_gate;
use crate::slice;
use crate::sparse::SparseMatrix;
use crate::NodeId;

/// A deterministic source of per-column RNG streams for the `_seeded`
/// sampling entry points.
///
/// [`RngPool`] is the canonical implementation (column `c` draws from
/// stream `c` of one pool). Callers that pack several independent batches
/// into one matrix — cross-request super-batching — implement this to
/// remap each column onto *its own batch's* pool, so the packed sample is
/// bit-identical to sampling every batch alone. `Sync` because streams are
/// derived on worker-pool threads.
pub trait StreamSource: Sync {
    /// The RNG stream for column (or candidate) `index`.
    fn stream(&self, index: u64) -> StdRng;
}

impl StreamSource for RngPool {
    fn stream(&self, index: u64) -> StdRng {
        RngPool::stream(self, index)
    }
}

/// Result of a collective (layer-wise) sampling step.
#[derive(Debug, Clone)]
pub struct CollectiveSample {
    /// The `K × ncols` sub-matrix containing only edges between the
    /// selected row nodes and the original columns.
    pub matrix: SparseMatrix,
    /// Local row indices (into the input matrix) of the selected rows, in
    /// ascending order; output row `i` corresponds to input row `rows[i]`.
    pub rows: Vec<NodeId>,
}

/// Node-wise selection, the one entry: sample up to `k` stored edges of
/// every column of `m`, independently — without replacement (`replace =
/// false`: exactly `min(degree, k)` distinct edges, columns of degree
/// `<= k` kept whole) or with (`k` draws, duplicates collapsing to one
/// stored edge, for random-walk style semantics).
///
/// `probs`, when given, must have the same shape and sparsity pattern as
/// `m`; its edge values are the (unnormalized, non-negative) sampling bias.
/// When omitted, edges are sampled uniformly. The result preserves `m`'s
/// shape, format and edge values, with only the selected edges stored:
/// [`pick_columns`] over `m`'s own columns, written by
/// [`slice::gather_cols`].
pub fn individual_sample(
    m: &SparseMatrix,
    k: usize,
    replace: bool,
    probs: Option<&SparseMatrix>,
    streams: &impl StreamSource,
) -> Result<SparseMatrix> {
    if let Some(p) = probs.filter(|p| p.shape() != m.shape() || p.nnz() != m.nnz()) {
        return Err(Error::ShapeMismatch {
            op: "individual_sample probs",
            lhs: m.shape(),
            rhs: p.shape(),
        });
    }
    let csc = m.csc();
    let out = match probs.map(|p| p.csc()) {
        None => sample_columns(&csc, k, replace, &Uniform, streams)?,
        Some(p) => {
            let ones: Vec<f32>;
            let weights = match &p.values {
                Some(v) => v.as_slice(),
                None => {
                    ones = vec![1.0; p.nnz()];
                    &ones
                }
            };
            sample_columns(&csc, k, replace, weights, streams)?
        }
    };
    Ok(SparseMatrix::Csc(out).into_format(m.format()))
}

/// Node-wise selection over `csc`'s own columns with the bias `bias`:
/// [`pick_columns`], written by [`slice::gather_cols`].
pub fn sample_columns<B: ColumnBias + ?Sized>(
    csc: &Csc,
    k: usize,
    replace: bool,
    bias: &B,
    streams: &impl StreamSource,
) -> Result<Csc> {
    let (indptr, picks) = pick_columns(csc, None, k, replace, bias, streams)?;
    let positions = |_, out: Range<usize>| picks[out].iter().copied();
    Ok(slice::gather_cols(
        csc,
        csc.nrows,
        indptr,
        positions,
        |_| |r| r,
    ))
}

/// [`individual_sample`] without replacement.
pub fn individual_sample_seeded(
    m: &SparseMatrix,
    k: usize,
    probs: Option<&SparseMatrix>,
    pool: &impl StreamSource,
) -> Result<SparseMatrix> {
    individual_sample(m, k, false, probs, pool)
}

/// Output columns picked per scratch set-up (and per pool work item).
const PICK_CHUNK: usize = 256;

/// The sampling bias [`pick_columns`] reads, one output column at a time,
/// inside its parallel region: a bias array aligned with the source's
/// entries (`[f32]`), one evaluated per edge as the column is picked
/// ([`crate::bias::EdgeBias`]), or none ([`Uniform`]).
pub trait ColumnBias: Sync {
    /// `false` for uniform selection, whose pick never asks for weights.
    const WEIGHTED: bool = true;

    /// The weights of output column `c`, whose source entries are the
    /// positions `range`, one per entry: borrowed, or written into
    /// `scratch` (the chunk's, reused across its columns).
    fn weights<'s>(&'s self, c: usize, range: Range<usize>, scratch: &'s mut Vec<f32>)
        -> &'s [f32];
}

/// No bias: every entry of a column is equally likely.
pub struct Uniform;

impl ColumnBias for Uniform {
    const WEIGHTED: bool = false;

    fn weights<'s>(&'s self, _: usize, _: Range<usize>, _: &'s mut Vec<f32>) -> &'s [f32] {
        &[]
    }
}

impl ColumnBias for [f32] {
    fn weights<'s>(&'s self, _: usize, range: Range<usize>, _: &'s mut Vec<f32>) -> &'s [f32] {
        &self[range]
    }
}

/// Node-wise selection, the pick: choose up to `k` stored entries from one
/// column of `src` per output column and return the output column pointers
/// and, in one flat buffer aligned with them, every column's chosen source
/// positions (indices into `src.indices`), ascending.
///
/// Output column `c` reads source column `cols[c]` — `src`'s own column
/// `c` when `cols` is `None`; the fused extract-select kernel passes the
/// frontiers, so it selects exactly what slicing them out first would.
/// `bias` weights the choice ([`Uniform`] for none). Without replacement a
/// column keeps `min(degree, k)` entries: all of them when `degree <= k`,
/// else the set [`uniform_sample_without_replacement`] or
/// [`weighted_sample_without_replacement`] chooses. With replacement it
/// keeps the distinct outcomes of `k` uniform or [`AliasTable`] draws.
///
/// Count -> prefix sum -> fill: the counts are known up front (an upper
/// bound under replacement, closed up afterwards), so every column fills
/// its own segment of the one buffer on the worker pool and the uniform
/// paths allocate nothing per column. Column `c` draws from
/// `streams.stream(c)`, and only when it has a choice to make, so the
/// picks are the same at any thread count.
///
/// A weighted column's bias is read (evaluated) and validated whole inside
/// the region, kept column or not; an invalid weight fails the pick with
/// the lowest invalid position, and with replacement a non-empty all-zero
/// column fails it as `InvalidProbability { index: 0, value: 0.0 }` — what
/// validating the whole bias array up front reports.
///
/// # Panics
///
/// Panics if an entry of `cols` is not a column of `src`; callers check
/// their frontiers first.
pub fn pick_columns<B: ColumnBias + ?Sized>(
    src: &Csc,
    cols: Option<&[NodeId]>,
    k: usize,
    replace: bool,
    bias: &B,
    streams: &impl StreamSource,
) -> Result<(Vec<usize>, Vec<usize>)> {
    let ncols = cols.map_or(src.ncols, <[NodeId]>::len);
    let col_range = |c: usize| src.col_range(cols.map_or(c, |f| f[c] as usize));
    let mut indptr = Vec::with_capacity(ncols + 1);
    indptr.push(0usize);
    for c in 0..ncols {
        indptr.push(indptr[c] + col_range(c).len().min(k));
    }
    let mut picks = vec![0usize; indptr[ncols]];
    let chunk_ptr: Vec<usize> = (0..=ncols.div_ceil(PICK_CHUNK))
        .map(|g| indptr[(g * PICK_CHUNK).min(ncols)])
        .collect();
    // The lowest invalid weight, and whether an alias table would be built
    // on an all-zero column: found per column, reported after the region.
    let (invalid, dead) = (Mutex::new(None::<(usize, f32)>), AtomicBool::new(false));
    // A weighted pick reads every entry's bias; a uniform one, its picks.
    let work = match B::WEIGHTED {
        true => (0..ncols).map(|c| col_range(c).len()).sum(),
        false => indptr[ncols],
    };
    let gate = par_gate(work);
    parallel_scatter(&mut picks, &chunk_ptr, gate, |g, chunk| {
        // Scratch shared by the chunk's columns: Floyd's membership table,
        // the raw draws of a with-replacement column, and evaluated weights.
        let (mut seen, mut draws, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
        let first = g * PICK_CHUNK;
        for c in first..(first + PICK_CHUNK).min(ncols) {
            let seg = &mut chunk[indptr[c] - indptr[first]..indptr[c + 1] - indptr[first]];
            let range = col_range(c);
            let (start, deg) = (range.start, range.len());
            let weights = if B::WEIGHTED {
                let w = bias.weights(c, range.clone(), &mut scratch);
                if let Some(i) = first_invalid(w) {
                    let mut lowest = invalid.lock().unwrap_or_else(|e| e.into_inner());
                    if lowest.is_none_or(|(at, _)| start + i < at) {
                        *lowest = Some((start + i, w[i]));
                    }
                    continue;
                }
                if replace && deg > 0 && !w.iter().any(|&x| x > 0.0) {
                    dead.store(true, Ordering::Relaxed);
                    continue;
                }
                Some(w)
            } else {
                None
            };
            if seg.is_empty() || (!replace && deg <= k) {
                // No choice to make: the whole column, or none of it.
                seg.iter_mut().zip(range).for_each(|(p, pos)| *p = pos);
                continue;
            }
            let mut rng = streams.stream(c as u64);
            let chosen = if replace {
                draws.clear();
                match weights {
                    Some(w) => {
                        let table = AliasTable::new(w).expect("weights validated above");
                        draws.extend((0..k).map(|_| table.sample(&mut rng)));
                    }
                    None => draws.extend((0..k).map(|_| rng.gen_range(0..deg))),
                }
                draws.sort_unstable();
                draws.dedup();
                let (kept, rest) = seg.split_at_mut(draws.len());
                kept.copy_from_slice(&draws);
                rest.fill(usize::MAX);
                kept
            } else {
                match weights {
                    Some(w) => {
                        let keyed = weighted_sample_without_replacement(w, k, &mut rng);
                        seg.copy_from_slice(&keyed);
                    }
                    None => fill_uniform_sample_without_replacement(deg, &mut rng, &mut seen, seg),
                }
                seg.sort_unstable();
                seg
            };
            chosen.iter_mut().for_each(|p| *p += start);
        }
    });
    if let Some((index, value)) = invalid.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(Error::InvalidProbability { index, value });
    }
    if dead.into_inner() {
        return Err(Error::InvalidProbability {
            index: 0,
            value: 0.0,
        });
    }
    if replace {
        // Close the gaps the collapsed duplicates left (`usize::MAX`
        // padding sorts behind every position).
        let (mut kept, mut start) = (0, 0);
        for c in 0..ncols {
            let end = indptr[c + 1];
            let distinct = picks[start..end].partition_point(|&p| p != usize::MAX);
            picks.copy_within(start..start + distinct, kept);
            kept += distinct;
            indptr[c + 1] = kept;
            start = end;
        }
        picks.truncate(kept);
    }
    Ok((indptr, picks))
}

/// Sample `k` distinct row nodes of `m` without replacement according to
/// `node_probs` and return the row-sliced sub-matrix.
///
/// `node_probs`, when given, must have length `m.nrows()`; rows with zero
/// bias are never selected. When omitted, each row's bias is its degree in
/// `m` (each edge contributes bias 1, per the paper's default). If fewer
/// than `k` rows have positive bias, all of them are taken.
///
/// The one-segment call of [`collective_sample_segments`].
pub fn collective_sample_seeded(
    m: &SparseMatrix,
    k: usize,
    node_probs: Option<&[f32]>,
    pool: &RngPool,
) -> Result<CollectiveSample> {
    let runs = [0, m.nrows()];
    collective_sample_segments(m, k, node_probs, &runs, std::slice::from_ref(pool))
}

/// Collective selection over a matrix: [`collective_select`] on its rows
/// (segment `b` is rows `runs[b]..runs[b + 1]`, one per entry of `pools`),
/// then `slice_rows` of the chosen ones.
pub fn collective_sample_segments(
    m: &SparseMatrix,
    k: usize,
    node_probs: Option<&[f32]>,
    runs: &[usize],
    pools: &[RngPool],
) -> Result<CollectiveSample> {
    let nrows = m.nrows();
    let weights: Cow<'_, [f32]> = match node_probs {
        Some(p) if p.len() != nrows => {
            return Err(Error::LengthMismatch {
                op: "collective_sample node_probs",
                expected: nrows,
                actual: p.len(),
            });
        }
        Some(p) => Cow::Borrowed(p),
        None => Cow::Owned(m.row_degrees().iter().map(|&d| d as f32).collect()),
    };
    let rows = collective_select(&weights, k, runs, pools)?;
    let matrix = slice::slice_rows(m, &rows)?;
    Ok(CollectiveSample { matrix, rows })
}

/// Collective selection, the one selector: up to `k` distinct rows chosen
/// in every segment — rows `runs[b]..runs[b + 1]` — ascending. A segment's
/// candidates are its positive rows, and with more than `k` of them it runs
/// [`weighted_sample_without_replacement_seeded`] on its own pool (candidate
/// `i` on stream `i`), selecting what it would alone.
///
/// Count -> prefix sum -> fill, one segment per work item: one sweep per
/// segment validates its bias and counts its candidates, then every segment
/// draws into its own slice of the one output buffer on the worker pool.
/// The work items are the segments, never the thread count, so the rows —
/// and, for an invalid bias, the error naming the lowest invalid row — are
/// the same at any width.
pub fn collective_select(
    weights: &[f32],
    k: usize,
    runs: &[usize],
    pools: &[RngPool],
) -> Result<Vec<NodeId>> {
    let segs = runs.len().saturating_sub(1).min(pools.len());
    let run = |b: usize| runs[b]..runs[b + 1];
    let gate = par_gate(weights.len());
    // Per segment: its candidate count and its first invalid row, if any.
    let scan = parallel_map(segs, gate, |b| {
        let w = &weights[run(b)];
        let sweep = |(ok, n), &x: &f32| (ok & valid_weight(x), n + usize::from(x > 0.0));
        let (ok, candidates) = w.iter().fold((true, 0), sweep);
        let bad = if ok { None } else { first_invalid(w) };
        (candidates, bad.map(|i| runs[b] + i))
    });
    // Rows outside every segment are validated too, in index order.
    let (lo, hi) = match segs {
        0 => (weights.len(), weights.len()),
        _ => (runs[0], runs[segs]),
    };
    let outside = |r: Range<usize>| first_invalid(&weights[r.clone()]).map(|i| r.start + i);
    let bad = outside(0..lo)
        .or_else(|| scan.iter().find_map(|s| s.1))
        .or_else(|| outside(hi..weights.len()));
    if let Some(index) = bad {
        return Err(invalid_weight(weights, index));
    }

    let mut offsets = Vec::with_capacity(segs + 1);
    offsets.push(0);
    for (b, &(candidates, _)) in scan.iter().enumerate() {
        offsets.push(offsets[b] + candidates.min(k));
    }
    let mut rows = vec![0 as NodeId; offsets[segs]];
    parallel_scatter(&mut rows, &offsets, gate, |b, out| {
        // Every row is written, the count advanced by sign (one slot spare).
        let (run, mut cands, mut len) = (run(b), vec![0 as NodeId; scan[b].0 + 1], 0);
        for (r, &w) in run.clone().zip(&weights[run]) {
            cands[len] = r as NodeId;
            len += usize::from(w > 0.0);
        }
        let cands = &cands[..len];
        if len <= k {
            out.copy_from_slice(cands);
        } else {
            let cand_weights: Vec<f32> = cands.iter().map(|&r| weights[r as usize]).collect();
            let picks = weighted_sample_without_replacement_seeded(&cand_weights, k, &pools[b]);
            out.iter_mut().zip(picks).for_each(|(o, p)| *o = cands[p]);
            out.sort_unstable();
        }
    });
    Ok(rows)
}

/// `slice_rows(rows)` of the `nrows`-row extract `src[:, cols]` (column
/// `c`'s rows lifted by `lift(c)`) that was never built: the pick keeps the
/// positions whose lifted row is in the ascending `rows`' bitmap, which
/// [`slice::gather_cols`] writes, renamed to their rank (a prefix popcount).
/// The pick is count -> prefix sum -> fill over fixed 256-column chunks
/// on the worker pool.
pub fn gather_selected_rows(
    src: &Csc,
    cols: &[NodeId],
    lift: impl Fn(usize) -> NodeId + Sync,
    nrows: usize,
    rows: &[NodeId],
) -> Csc {
    let mut words = vec![0u64; nrows.div_ceil(64)];
    rows.iter()
        .for_each(|&r| words[r as usize / 64] |= 1 << (r % 64));
    let mut ranks = vec![0u32; words.len()];
    (1..words.len()).for_each(|w| ranks[w] = ranks[w - 1] + words[w - 1].count_ones());
    let (words, ranks) = (&words, &ranks);
    let below = move |x: NodeId| words[x as usize / 64] & ((1u64 << (x % 64)) - 1);
    let kept = move |x: NodeId| words[x as usize / 64] >> (x % 64) & 1 == 1;
    let rank = move |x: NodeId| ranks[x as usize / 64] + below(x).count_ones();
    // Column `c`'s source positions and whether each is kept.
    let scan = |c: usize| {
        let (lift, range) = (lift(c), src.col_range(cols[c] as usize));
        let rows = &src.indices[range.clone()];
        range.zip(rows).map(move |(p, &r)| (p, kept(r + lift)))
    };

    let ncols = cols.len();
    let chunk_cols: Vec<usize> = (0..=ncols.div_ceil(PICK_CHUNK))
        .map(|g| (g * PICK_CHUNK).min(ncols))
        .collect();
    let gate = par_gate(cols.iter().map(|&c| src.col_range(c as usize).len()).sum());
    let mut indptr = vec![0usize; ncols + 1];
    parallel_scatter(&mut indptr[1..], &chunk_cols, gate, |g, counts| {
        for (c, n) in (chunk_cols[g]..).zip(counts) {
            *n = scan(c).map(|(_, keep)| usize::from(keep)).sum();
        }
    });
    (0..ncols).for_each(|c| indptr[c + 1] += indptr[c]);
    let mut picks = vec![0usize; indptr[ncols]];
    let chunk_ptr: Vec<usize> = chunk_cols.iter().map(|&c| indptr[c]).collect();
    parallel_scatter(&mut picks, &chunk_ptr, gate, |g, chunk| {
        // Every position is written, the cursor advanced only past a kept
        // one: no branch on the bitmap test.
        let mut at = 0;
        for c in chunk_cols[g]..chunk_cols[g + 1] {
            for (p, keep) in scan(c) {
                if let Some(slot) = chunk.get_mut(at) {
                    *slot = p;
                }
                at += usize::from(keep);
            }
        }
    });
    let positions = |_, out: Range<usize>| picks[out].iter().copied();
    let row_map = |c: usize| {
        let lift = lift(c);
        move |r: NodeId| rank(r + lift)
    };
    slice::gather_cols(src, rows.len(), indptr, positions, row_map)
}

/// The Efraimidis–Spirakis key `-ln(u)/w` of an item of weight `w`, for `u`
/// drawn in `[f64::MIN_POSITIVE, 1)`: positive and finite when `w > 0`,
/// else `+∞` — never NaN. `None` (no logarithm) when provably above
/// `bound`: `-ln(u) >= 1 - u`, and the `1e-12` margin covers the rounding.
fn exponential_key(w: f32, rng: &mut impl Rng, bound: f64) -> Option<f64> {
    if w > 0.0 {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        ((1.0 - u) * (1.0 - 1e-12) <= bound * w as f64).then(|| -u.ln() / w as f64)
    } else {
        Some(f64::INFINITY)
    }
}

/// The items of the `k` smallest `(key(i, _), i)` pairs over `0..n`,
/// ascending (a stable sort's first `k`): one pass keeps them in a max-heap
/// (positive or `+∞` keys order as their bits) whose top, once full, bounds `key`.
fn smallest_k(n: usize, k: usize, mut key: impl FnMut(usize, f64) -> Option<f64>) -> Vec<usize> {
    let mut kept: BinaryHeap<(u64, usize)> = BinaryHeap::with_capacity(k);
    for i in 0..n {
        let top = kept.peek().filter(|_| kept.len() == k);
        let Some(key) = key(i, top.map_or(f64::INFINITY, |t| f64::from_bits(t.0))) else {
            continue;
        };
        let item = (key.to_bits(), i);
        if kept.len() < k {
            kept.push(item);
        } else if let Some(mut top) = kept.peek_mut().filter(|top| item < **top) {
            *top = item;
        }
    }
    kept.into_sorted_vec().into_iter().map(|t| t.1).collect()
}

/// Draw `k` distinct indices from `0..weights.len()` with probability
/// proportional to `weights`, via the Efraimidis–Spirakis exponential-key
/// method (each item gets key `-ln(u)/w`; the `k` smallest keys win).
///
/// # Panics
///
/// Panics if `k > weights.len()`; callers clamp first.
pub fn weighted_sample_without_replacement(
    weights: &[f32],
    k: usize,
    rng: &mut impl Rng,
) -> Vec<usize> {
    assert!(k <= weights.len(), "k must not exceed the population");
    let key = |i: usize, bound| exponential_key(weights[i], rng, bound);
    smallest_k(weights.len(), k, key)
}

/// [`weighted_sample_without_replacement`] with one RNG stream per item:
/// item `i`'s exponential key is drawn from `pool.stream(i)`, so the
/// selection is independent of the thread count.
///
/// # Panics
///
/// Panics if `k > weights.len()`; callers clamp first.
pub fn weighted_sample_without_replacement_seeded(
    weights: &[f32],
    k: usize,
    pool: &RngPool,
) -> Vec<usize> {
    assert!(k <= weights.len(), "k must not exceed the population");
    let key = |i: usize, bound| exponential_key(weights[i], &mut pool.stream(i as u64), bound);
    smallest_k(weights.len(), k, key)
}

/// Draw `k` distinct indices from `0..n` uniformly, via Floyd's algorithm
/// (O(k) expected work, no allocation proportional to `n`).
///
/// # Panics
///
/// Panics if `k > n`; callers clamp first.
pub fn uniform_sample_without_replacement(n: usize, k: usize, rng: &mut impl Rng) -> Vec<usize> {
    assert!(k <= n, "k must not exceed the population");
    let mut chosen = std::collections::HashSet::with_capacity(k);
    let mut out = Vec::with_capacity(k);
    for j in (n - k)..n {
        let t = rng.gen_range(0..=j);
        if chosen.insert(t) {
            out.push(t);
        } else {
            chosen.insert(j);
            out.push(j);
        }
    }
    out
}

/// [`uniform_sample_without_replacement`] of `out.len()` of `0..n` written
/// into `out`: the same draws in the same order and the same choices, with
/// membership kept in `seen` — scratch the caller reuses across columns, an
/// open-addressing table at most half full — instead of a fresh `HashSet`.
fn fill_uniform_sample_without_replacement(
    n: usize,
    rng: &mut impl Rng,
    seen: &mut Vec<usize>,
    out: &mut [usize],
) {
    let cap = (2 * out.len()).next_power_of_two();
    let shift = usize::BITS - cap.trailing_zeros();
    seen.clear();
    seen.resize(cap, usize::MAX);
    // Keys are below `n`, so `usize::MAX` marks a free slot; Fibonacci
    // hashing takes the product's top bits, then probes linearly.
    let mut insert = |key: usize| {
        let mut slot = key.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as usize) >> shift;
        while seen[slot] != usize::MAX {
            if seen[slot] == key {
                return false;
            }
            slot = (slot + 1) & (cap - 1);
        }
        seen[slot] = key;
        true
    };
    let first = n - out.len();
    for (slot, j) in out.iter_mut().zip(first..n) {
        let t = rng.gen_range(0..=j);
        *slot = if insert(t) {
            t
        } else {
            insert(j);
            j
        };
    }
}

/// Walker's alias table: O(n) construction, O(1) weighted draws with
/// replacement. This is the sampling structure SkyWalker builds per
/// adjacency list; the vertex-centric baseline reuses it.
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasTable {
    /// Build an alias table from non-negative weights (not all zero).
    pub fn new(weights: &[f32]) -> Result<AliasTable> {
        let n = weights.len();
        if n == 0 {
            return Err(Error::InvalidStructure {
                reason: "alias table needs at least one weight".to_string(),
            });
        }
        validate_weights(weights)?;
        let total: f64 = weights.iter().map(|&w| w as f64).sum();
        if total <= 0.0 {
            return Err(Error::InvalidProbability {
                index: 0,
                value: 0.0,
            });
        }
        let scaled: Vec<f64> = weights
            .iter()
            .map(|&w| (w as f64) * n as f64 / total)
            .collect();
        let mut prob = vec![0f64; n];
        let mut alias = vec![0usize; n];
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        let mut scaled = scaled;
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            large.pop();
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        for &i in small.iter().chain(large.iter()) {
            prob[i] = 1.0;
            alias[i] = i;
        }
        Ok(AliasTable { prob, alias })
    }

    /// Draw one index with probability proportional to the build weights.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let n = self.prob.len();
        let i = rng.gen_range(0..n);
        if rng.gen_range(0f64..1f64) < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }

    /// Number of entries in the table.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True if the table has no entries (never constructed in practice).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }
}

/// A bias weight is a finite, non-negative number.
fn valid_weight(w: f32) -> bool {
    (0.0..=f32::MAX).contains(&w)
}

/// The position of the first invalid weight: one branch-free sweep, and
/// the search only when it fails.
fn first_invalid(weights: &[f32]) -> Option<usize> {
    if weights.iter().fold(true, |ok, &w| ok & valid_weight(w)) {
        return None;
    }
    weights.iter().position(|&w| !valid_weight(w))
}

fn invalid_weight(weights: &[f32], index: usize) -> Error {
    let value = weights[index];
    Error::InvalidProbability { index, value }
}

fn validate_weights(weights: &[f32]) -> Result<()> {
    first_invalid(weights).map_or(Ok(()), |i| Err(invalid_weight(weights, i)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csc::Csc;
    use crate::Format;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    fn pool() -> RngPool {
        RngPool::new(7)
    }

    fn sample_matrix() -> SparseMatrix {
        // 6x3; col0 deg 4, col1 deg 2, col2 deg 0
        SparseMatrix::Csc(
            Csc::new(
                6,
                3,
                vec![0, 4, 6, 6],
                vec![0, 2, 3, 5, 1, 4],
                Some(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            )
            .unwrap(),
        )
    }

    #[test]
    fn individual_respects_fanout() {
        let m = sample_matrix();
        let out = individual_sample_seeded(&m, 2, None, &pool()).unwrap();
        assert_eq!(out.shape(), m.shape());
        assert_eq!(out.col_degrees(), vec![2, 2, 0]);
        // Selected edges are a subset of the input's.
        let input: std::collections::HashSet<_> = m
            .sorted_edges()
            .into_iter()
            .map(|(r, c, _)| (r, c))
            .collect();
        for (r, c, _) in out.iter_edges() {
            assert!(input.contains(&(r, c)));
        }
    }

    #[test]
    fn individual_small_degree_keeps_all() {
        let m = sample_matrix();
        let out = individual_sample_seeded(&m, 10, None, &pool()).unwrap();
        assert_eq!(out.nnz(), m.nnz());
    }

    #[test]
    fn individual_output_format_matches_input() {
        let m = sample_matrix();
        for fmt in Format::ALL {
            let out = individual_sample_seeded(&m.to_format(fmt), 2, None, &pool()).unwrap();
            assert_eq!(out.format(), fmt);
        }
    }

    #[test]
    fn individual_biased_prefers_heavy_edges() {
        // Column 0 with one overwhelmingly heavy edge: it must virtually
        // always be selected.
        let m = SparseMatrix::Csc(Csc::new(4, 1, vec![0, 4], vec![0, 1, 2, 3], None).unwrap());
        let probs = m.with_values(vec![1e-6, 1e-6, 1e-6, 1.0]);
        let mut hit = 0;
        for seed in 0..50 {
            let out = individual_sample_seeded(&m, 1, Some(&probs), &RngPool::new(seed)).unwrap();
            if out.iter_edges().any(|(row, _, _)| row == 3) {
                hit += 1;
            }
        }
        assert!(hit >= 48, "heavy edge selected only {hit}/50 times");
    }

    #[test]
    fn individual_rejects_mismatched_probs() {
        let m = sample_matrix();
        let bad = SparseMatrix::Csc(Csc::new(6, 3, vec![0, 1, 1, 1], vec![0], None).unwrap());
        assert!(individual_sample_seeded(&m, 2, Some(&bad), &pool()).is_err());
    }

    #[test]
    fn with_replacement_bounded_by_k_and_degree() {
        let m = sample_matrix();
        let out = individual_sample(&m, 3, true, None, &pool()).unwrap();
        for (c, d) in out.col_degrees().into_iter().enumerate() {
            assert!(d <= 3, "column {c} kept {d} > 3 edges");
        }
    }

    #[test]
    fn collective_selects_k_rows() {
        let m = sample_matrix();
        let out = collective_sample_seeded(&m, 3, None, &pool()).unwrap();
        assert_eq!(out.rows.len(), 3);
        assert_eq!(out.matrix.shape(), (3, 3));
        // Rows are ascending and unique.
        assert!(out.rows.windows(2).all(|w| w[0] < w[1]));
        // Zero-degree rows never selected under default (degree) bias.
        // Rows present in m: {0,1,2,3,4,5} all have degree >= 1 except none.
    }

    #[test]
    fn collective_zero_bias_rows_excluded() {
        let m = sample_matrix();
        let mut probs = vec![1.0f32; 6];
        probs[0] = 0.0;
        probs[5] = 0.0;
        for seed in 0..20 {
            let out = collective_sample_seeded(&m, 4, Some(&probs), &RngPool::new(seed)).unwrap();
            assert!(!out.rows.contains(&0));
            assert!(!out.rows.contains(&5));
        }
    }

    #[test]
    fn collective_takes_all_when_k_large() {
        let m = sample_matrix();
        let out = collective_sample_seeded(&m, 100, None, &pool()).unwrap();
        // All rows with degree > 0: every row of the 6 appears in edges.
        assert_eq!(out.rows.len(), 6);
    }

    #[test]
    fn collective_rejects_bad_probs() {
        let m = sample_matrix();
        assert!(collective_sample_seeded(&m, 2, Some(&[1.0, 2.0]), &pool()).is_err());
        let neg = vec![1.0, -1.0, 1.0, 1.0, 1.0, 1.0];
        assert!(collective_sample_seeded(&m, 2, Some(&neg), &pool()).is_err());
    }

    #[test]
    fn collective_select_reports_the_lowest_bad_row() {
        let mut w = vec![1.0f32; 2000];
        for (at, bad) in [(1900, -1.0), (700, f32::NAN), (701, f32::INFINITY)] {
            w[at] = bad;
        }
        let runs = [0, 1000, 2000];
        let err = collective_select(&w, 5, &runs, &[pool(), pool()]).unwrap_err();
        assert!(
            matches!(err, Error::InvalidProbability { index: 700, .. }),
            "{err}"
        );
    }

    #[test]
    fn efraimidis_spirakis_distribution() {
        // Weight 9:1 between two items; item 0 should be first pick ~90%.
        let mut r = rng();
        let mut first0 = 0;
        for _ in 0..1000 {
            let picks = weighted_sample_without_replacement(&[9.0, 1.0], 1, &mut r);
            if picks[0] == 0 {
                first0 += 1;
            }
        }
        assert!((850..950).contains(&first0), "got {first0}/1000");
    }

    #[test]
    fn floyd_sampling_uniform_and_distinct() {
        let mut r = rng();
        for _ in 0..100 {
            let picks = uniform_sample_without_replacement(10, 4, &mut r);
            assert_eq!(picks.len(), 4);
            let set: std::collections::HashSet<_> = picks.iter().collect();
            assert_eq!(set.len(), 4);
            assert!(picks.iter().all(|&p| p < 10));
        }
    }

    #[test]
    fn alias_table_distribution() {
        let table = AliasTable::new(&[1.0, 2.0, 7.0]).unwrap();
        let mut r = rng();
        let mut counts = [0usize; 3];
        let n = 20_000;
        for _ in 0..n {
            counts[table.sample(&mut r)] += 1;
        }
        let f2 = counts[2] as f64 / n as f64;
        assert!((f2 - 0.7).abs() < 0.03, "p(2) = {f2}");
        let f0 = counts[0] as f64 / n as f64;
        assert!((f0 - 0.1).abs() < 0.02, "p(0) = {f0}");
    }

    #[test]
    fn alias_table_rejects_degenerate() {
        assert!(AliasTable::new(&[]).is_err());
        assert!(AliasTable::new(&[0.0, 0.0]).is_err());
        assert!(AliasTable::new(&[1.0, f32::NAN]).is_err());
        assert!(AliasTable::new(&[-1.0]).is_err());
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let m = sample_matrix();
        let a = individual_sample_seeded(&m, 2, None, &pool()).unwrap();
        let b = individual_sample_seeded(&m, 2, None, &pool()).unwrap();
        assert_eq!(a, b);
    }
}
