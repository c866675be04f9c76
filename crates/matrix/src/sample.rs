//! Selection kernels — the *select* step of the ECSF model.
//!
//! Two operators mirror the paper's Table 4, and both draw through one
//! routine, [`select`]:
//!
//! - [`individual_sample`]: each column (frontier) independently keeps up
//!   to `K` of its stored edges — node-wise sampling (GraphSAGE, PASS,
//!   random walks with `K = 1`).
//! - [`collective_sample_seeded`]: `K` distinct *row* nodes across the
//!   whole matrix according to per-node bias — layer-wise sampling
//!   (FastGCN, LADIES, AS-GCN). It is the one-segment call of
//!   [`collective_sample_segments`] (weights -> [`collective_select`] ->
//!   `slice_rows`), which a super-batch runs with one segment per group.
//!
//! Every selection is without replacement. [`select`] takes segments, each
//! a range of candidate positions with one [`ColumnBias`] read over it —
//! a column's edge range (node-wise) or a group's row run (layer-wise) —
//! and keeps `min(len, K)` positions of each, ascending: all of them, or
//! Floyd's uniform choice, or the `K` smallest Efraimidis–Spirakis keys
//! `-ln(u)/w` (a zero weight keys `+∞` and never beats a positive one).
//! Count -> prefix sum -> fill into one flat buffer on the worker pool. The
//! operators differ only in their population: a node-wise column fills up
//! to `min(deg, K)` with zero-weight edges, while a layer-wise segment's
//! zero-weight rows are never candidates, so [`collective_select`] drops
//! them from what [`select`] keeps.
//!
//! Node-wise selection is the pick and one gather: [`slice::gather_cols`]
//! writes the chosen entries, of the matrix's own columns
//! ([`sample_columns`]) or of the frontiers' columns (the fused
//! extract-select kernel, which therefore selects what slicing them out
//! first would). The bias is read one segment at a time inside the region:
//! a materialized array, a per-edge expression evaluated there
//! ([`crate::bias::EdgeBias`]), or none ([`Uniform`]).
//! [`gather_selected_rows`], the fused collective's masked gather, picks
//! the selected rows' entries by count -> prefix sum -> fill over fixed
//! column chunks.
//!
//! Every draw is `mix(key, counter)` ([`Key`]). Draw `j` of segment `c` is
//! `key.draw(counter(c, j))`, with `c` counted from its group's first
//! segment and `key` the group's: a layer-wise segment is its own group, so
//! its row `r`'s ES key is draw `r`, counted from the segment's first row.
//! A draw depends on its group's key and its position only — not on the
//! thread, work item or order that makes it — so the output is
//! bit-identical at any worker-pool thread count, and a packed group picks
//! what it picks alone.

use std::borrow::Cow;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::Mutex;

use gsampler_runtime::parallel_scatter;
use gsampler_runtime::rng::{counter, Key};

use crate::csc::Csc;
use crate::error::{Error, Result};
use crate::par_gate;
use crate::slice;
use crate::sparse::SparseMatrix;
use crate::NodeId;

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

/// Node-wise selection, the one entry: keep `min(degree, k)` distinct
/// stored edges of every column of `m`, independently (columns of degree
/// `<= k` whole).
///
/// `probs`, when given, must have the same shape and sparsity pattern as
/// `m`; its edge values are the (unnormalized, non-negative) sampling bias.
/// When omitted, edges are sampled uniformly. The result preserves `m`'s
/// shape, format and edge values, with only the selected edges stored:
/// [`sample_columns`]; `keys` and `starts` are its column groups.
pub fn individual_sample(
    m: &SparseMatrix,
    k: usize,
    probs: Option<&SparseMatrix>,
    keys: &[Key],
    starts: &[usize],
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
        None => sample_columns(&csc, k, &Uniform, keys, starts)?,
        Some(p) => {
            let ones = || Cow::Owned(vec![1.0; p.nnz()]);
            let weights: Cow<'_, [f32]> = p.values.as_deref().map_or_else(ones, Cow::Borrowed);
            sample_columns(&csc, k, &weights[..], keys, starts)?
        }
    };
    Ok(SparseMatrix::Csc(out).into_format(m.format()))
}

/// Node-wise selection over `csc`'s own columns with the bias `bias`:
/// [`select`] with column `c`'s edge range as segment `c`, written by
/// [`slice::gather_cols`].
pub fn sample_columns<B: ColumnBias + ?Sized>(
    csc: &Csc,
    k: usize,
    bias: &B,
    keys: &[Key],
    starts: &[usize],
) -> Result<Csc> {
    let (indptr, picks) = select(csc.ncols, |c| csc.col_range(c), k, bias, keys, starts)?;
    let positions = |_, out: Range<usize>| picks[out].iter().copied();
    Ok(slice::gather_cols(
        csc,
        csc.nrows,
        indptr,
        positions,
        |_| |r| r,
    ))
}

/// [`individual_sample`] with every column in one group keyed by `key`
/// (the benchmark's kernel probe calls it).
pub fn individual_sample_seeded(
    m: &SparseMatrix,
    k: usize,
    probs: Option<&SparseMatrix>,
    key: &Key,
) -> Result<SparseMatrix> {
    individual_sample(m, k, probs, std::slice::from_ref(key), &[0])
}

/// Segments per work item of [`select`] at most, and the length from which
/// a segment ends its work item; the column chunk of
/// [`gather_selected_rows`].
const PICK_CHUNK: usize = 256;

/// The sampling bias [`select`] reads, one segment at a time, inside its
/// parallel region: a bias array aligned with the candidate positions
/// (`[f32]`), one evaluated per edge as the column is picked
/// ([`crate::bias::EdgeBias`]), or none ([`Uniform`]).
pub trait ColumnBias: Sync {
    /// `false` for uniform selection, whose pick never asks for weights.
    const WEIGHTED: bool = true;

    /// The weights of segment `c`, whose candidates are the positions
    /// `range`, one per candidate: borrowed, or written into `scratch`
    /// (the work item's, reused across its segments).
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

/// The one select: keep `min(len, k)` of the candidate positions of every
/// segment `c < n` — `segment(c)`, ascending — and return the output
/// pointers and, in one flat buffer aligned with them, every segment's kept
/// positions, ascending. A segment of at most `k` candidates is kept whole;
/// a longer one keeps Floyd's uniform choice, or under a weighted `bias`
/// the `k` smallest Efraimidis–Spirakis keys (zero weights key `+∞`, ties
/// go to the lower position).
///
/// Segments are cut into groups: group `b` owns the segments from
/// `starts[b]` (`starts[0] == 0`) up to the next start and draws with
/// `keys[b]`, counting its segments from 0 — draw `j` of its segment `c` is
/// `keys[b].draw(counter(c, j))` — so a group selects what it would alone.
/// A segment draws only when it has a choice to make.
///
/// Count -> prefix sum -> fill: the counts are known up front, so every
/// segment fills its own slice of the one buffer on the worker pool. A
/// work item is up to [`PICK_CHUNK`] segments, and a segment of
/// [`PICK_CHUNK`] candidates or more ends its work item, so a layer-wise
/// super-batch draws its groups side by side. Scratch (Floyd's membership
/// table, evaluated weights, the ES heap) is set up once per work item.
///
/// A weighted segment's bias is read (evaluated) and validated whole inside
/// the region, kept or not; an invalid weight fails the select with the
/// lowest invalid position, whichever work item found it.
///
/// # Panics
///
/// Panics if a segment lies outside the bias; callers check their
/// frontiers first.
pub fn select<B: ColumnBias + ?Sized>(
    n: usize,
    segment: impl Fn(usize) -> Range<usize> + Sync,
    k: usize,
    bias: &B,
    keys: &[Key],
    starts: &[usize],
) -> Result<(Vec<usize>, Vec<usize>)> {
    debug_assert!(starts.len() == keys.len() && (n == 0 || starts.first() == Some(&0)));
    let (mut indptr, mut cuts, mut work) = (Vec::with_capacity(n + 1), vec![0], 0);
    indptr.push(0usize);
    for c in 0..n {
        let len = segment(c).len();
        indptr.push(indptr[c] + len.min(k));
        // A weighted pick reads every candidate's bias; a uniform one, its picks.
        work += if B::WEIGHTED { len } else { len.min(k) };
        if len >= PICK_CHUNK || c + 1 - cuts[cuts.len() - 1] == PICK_CHUNK || c + 1 == n {
            cuts.push(c + 1);
        }
    }
    let mut picks = vec![0usize; indptr[n]];
    let chunk_ptr: Vec<usize> = cuts.iter().map(|&c| indptr[c]).collect();
    // The lowest invalid weight, found per segment, reported after the region.
    let invalid = Mutex::new(None::<(usize, f32)>);
    parallel_scatter(&mut picks, &chunk_ptr, par_gate(work), |g, chunk| {
        // Scratch set up once per work item: Floyd's membership table, the
        // evaluated weights, the ES candidates and heap.
        let (mut seen, mut scratch) = (Vec::new(), Vec::new());
        let (mut cands, mut heap) = (Vec::new(), BinaryHeap::new());
        let first = cuts[g];
        // The group owning the work item's first segment; later ones advance it.
        let mut b = starts.partition_point(|&s| s <= first) - 1;
        for c in first..cuts[g + 1] {
            while starts.get(b + 1).is_some_and(|&s| s <= c) {
                b += 1;
            }
            let seg = &mut chunk[indptr[c] - indptr[first]..indptr[c + 1] - indptr[first]];
            let range = segment(c);
            let (start, len) = (range.start, range.len());
            let weights = if B::WEIGHTED {
                let w = bias.weights(c, range.clone(), &mut scratch);
                if let Some(i) = first_invalid(w) {
                    let mut lowest = invalid.lock().unwrap_or_else(|e| e.into_inner());
                    if lowest.is_none_or(|(at, _)| start + i < at) {
                        *lowest = Some((start + i, w[i]));
                    }
                    continue;
                }
                Some(w)
            } else {
                None
            };
            if seg.is_empty() || len <= k {
                // No choice to make: the whole segment, or none of it.
                seg.iter_mut().zip(range).for_each(|(p, pos)| *p = pos);
                continue;
            }
            let (key, col) = (keys[b], c - starts[b]);
            match weights {
                Some(w) => {
                    smallest_keys(w, k, key, col, &mut heap, &mut cands);
                    seg.iter_mut()
                        .zip(heap.drain())
                        .for_each(|(p, (_, i))| *p = i);
                }
                None => fill_uniform_sample_without_replacement(len, key, col, &mut seen, seg),
            }
            seg.sort_unstable();
            seg.iter_mut().for_each(|p| *p += start);
        }
    });
    match invalid.into_inner().unwrap_or_else(|e| e.into_inner()) {
        Some((index, value)) => Err(Error::InvalidProbability { index, value }),
        None => Ok((indptr, picks)),
    }
}

/// Sample `k` distinct row nodes of `m` without replacement according to
/// `node_probs` and return the row-sliced sub-matrix.
///
/// `node_probs`, when given, must have length `m.nrows()`; rows with zero
/// bias are never selected. When omitted, each row's bias is its degree in
/// `m` (each edge contributes bias 1, per the paper's default). If fewer
/// than `k` rows have positive bias, all of them are taken.
///
/// The one-segment call of [`collective_sample_segments`], keyed by `key`.
pub fn collective_sample_seeded(
    m: &SparseMatrix,
    k: usize,
    node_probs: Option<&[f32]>,
    key: &Key,
) -> Result<CollectiveSample> {
    let runs = [0, m.nrows()];
    collective_sample_segments(m, k, node_probs, &runs, std::slice::from_ref(key))
}

/// Collective selection over a matrix: [`collective_select`] on its rows
/// (segment `b` is rows `runs[b]..runs[b + 1]`, one per entry of `keys`),
/// then `slice_rows` of the chosen ones.
pub fn collective_sample_segments(
    m: &SparseMatrix,
    k: usize,
    node_probs: Option<&[f32]>,
    runs: &[usize],
    keys: &[Key],
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
    let rows = collective_select(&weights, k, runs, keys)?;
    let matrix = slice::slice_rows(m, &rows)?;
    Ok(CollectiveSample { matrix, rows })
}

/// Layer-wise selection: up to `k` distinct rows chosen in every segment —
/// rows `runs[b]..runs[b + 1]`, drawn with `keys[b]` — ascending. A
/// segment's candidates are its positive rows: [`select`] with each
/// segment its own group (so row `r`'s ES key is draw `r - runs[b]`, and a
/// segment selects what it would alone), its zero-weight picks dropped.
/// With more than `k` positive rows the `k` kept all have finite keys;
/// with fewer, the zero rows that filled the segment up to `k` go.
///
/// Rows outside every segment are validated too, so an invalid bias fails
/// with the lowest invalid row at any width.
pub fn collective_select(
    weights: &[f32],
    k: usize,
    runs: &[usize],
    keys: &[Key],
) -> Result<Vec<NodeId>> {
    let segs = runs.len().saturating_sub(1).min(keys.len());
    let (lo, hi) = match segs {
        0 => (weights.len(), weights.len()),
        _ => (runs[0], runs[segs]),
    };
    let bad = |r: Range<usize>| first_invalid(&weights[r.clone()]).map(|i| r.start + i);
    let invalid = |index: usize| Error::InvalidProbability {
        index,
        value: weights[index],
    };
    if let Some(index) = bad(0..lo) {
        return Err(invalid(index));
    }
    let groups: Vec<usize> = (0..segs).collect();
    let segment = |b: usize| runs[b]..runs[b + 1];
    let (_, picks) = select(segs, segment, k, weights, &keys[..segs], &groups)?;
    if let Some(index) = bad(hi..weights.len()) {
        return Err(invalid(index));
    }
    let positive = picks.into_iter().filter(|&r| weights[r] > 0.0);
    Ok(positive.map(|r| r as NodeId).collect())
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

/// Leave in `kept` (empty on entry; its allocation is reused) the `k <=
/// weights.len()` smallest `(key, i)` pairs of Efraimidis–Spirakis keys
/// `-ln(u)/w` over `weights`, item `i`'s `u` drawn as
/// `key.unit(counter(col, i))` and a zero weight keyed `+∞`. One branch-free pass gathers the positive
/// items into `cands` (scratch, reused across calls); one pass over them
/// keeps the smallest keys in a max-heap (keys order as their bits) whose
/// top, once full, bounds the next key. Fewer than `k` positive items leave
/// room for the lowest zero-weight ones: `+∞` keys tie and go by position.
fn smallest_keys(
    weights: &[f32],
    k: usize,
    key: Key,
    col: usize,
    kept: &mut BinaryHeap<(u64, usize)>,
    cands: &mut Vec<usize>,
) {
    if cands.len() <= weights.len() {
        cands.resize(weights.len() + 1, 0);
    }
    // Every position is written, the count advanced by sign (one slot spare).
    let mut len = 0;
    for (i, &w) in weights.iter().enumerate() {
        cands[len] = i;
        len += usize::from(w > 0.0);
    }
    for &i in &cands[..len] {
        let top = kept.peek().filter(|_| kept.len() == k);
        let bound = top.map_or(f64::INFINITY, |t| f64::from_bits(t.0));
        let (w, u) = (weights[i] as f64, key.unit(counter(col, i)));
        // `-ln(u)/w` is provably above `bound` when `(1 - u)/w` is, since
        // `-ln(u) >= 1 - u` (the `1e-12` margin covers the rounding): then
        // no logarithm. Keys are positive and finite, never NaN.
        if (1.0 - u) * (1.0 - 1e-12) > bound * w {
            continue;
        }
        let item = ((-u.ln() / w).to_bits(), i);
        if kept.len() < k {
            kept.push(item);
        } else if let Some(mut top) = kept.peek_mut().filter(|top| item < **top) {
            *top = item;
        }
    }
    let zeros = weights
        .iter()
        .enumerate()
        .filter(|&(_, &w)| w <= 0.0 || w.is_nan());
    let fill = zeros.take(k - kept.len());
    kept.extend(fill.map(|(i, _)| (f64::INFINITY.to_bits(), i)));
}

/// Draw `k` distinct indices from `0..weights.len()` with probability
/// proportional to `weights`, via the Efraimidis–Spirakis exponential-key
/// method (each item gets key `-ln(u)/w`; the `k` smallest keys win), in
/// key order. Item `i`'s `u` is `key.unit(counter(col, i))`: `col` is the
/// segment these are the candidates of (0 for a lone list, whose item `i`
/// is then draw `i`) — what [`select`] keeps, before it sorts.
///
/// # Panics
///
/// Panics if `k > weights.len()`; callers clamp first.
pub fn weighted_sample_without_replacement(
    weights: &[f32],
    k: usize,
    key: Key,
    col: usize,
) -> Vec<usize> {
    assert!(k <= weights.len(), "k must not exceed the population");
    let mut kept = BinaryHeap::with_capacity(k);
    smallest_keys(weights, k, key, col, &mut kept, &mut Vec::new());
    kept.into_sorted_vec().into_iter().map(|t| t.1).collect()
}

/// Floyd's selection of `out.len()` distinct indices of `0..n` (O(k)
/// expected work, no allocation proportional to `n`) written into `out`:
/// draw `i` is `key.below(counter(col, i), j + 1)` for `j` the `i`-th of
/// `n - k..n`, its own `j` taken on a repeat. Membership is kept in `seen`
/// — scratch the caller reuses across segments, an open-addressing table
/// at most half full.
fn fill_uniform_sample_without_replacement(
    n: usize,
    key: Key,
    col: usize,
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
    for (i, (slot, j)) in out.iter_mut().zip(first..n).enumerate() {
        let t = key.below(counter(col, i), j + 1);
        *slot = if insert(t) {
            t
        } else {
            insert(j);
            j
        };
    }
}

/// The position of the first invalid weight — a bias weight is a finite,
/// non-negative number: one branch-free sweep, and the search only when it
/// fails.
fn first_invalid(weights: &[f32]) -> Option<usize> {
    let valid = |w: f32| (0.0..=f32::MAX).contains(&w);
    if weights.iter().fold(true, |ok, &w| ok & valid(w)) {
        return None;
    }
    weights.iter().position(|&w| !valid(w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csc::Csc;
    use crate::Format;

    fn key() -> Key {
        Key::new(7)
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
        let out = individual_sample_seeded(&m, 2, None, &key()).unwrap();
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
        let out = individual_sample_seeded(&m, 10, None, &key()).unwrap();
        assert_eq!(out.nnz(), m.nnz());
    }

    #[test]
    fn individual_output_format_matches_input() {
        let m = sample_matrix();
        for fmt in Format::ALL {
            let out = individual_sample_seeded(&m.to_format(fmt), 2, None, &key()).unwrap();
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
            let out = individual_sample_seeded(&m, 1, Some(&probs), &Key::new(seed)).unwrap();
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
        assert!(individual_sample_seeded(&m, 2, Some(&bad), &key()).is_err());
    }

    #[test]
    fn collective_selects_k_rows() {
        let m = sample_matrix();
        let out = collective_sample_seeded(&m, 3, None, &key()).unwrap();
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
            let out = collective_sample_seeded(&m, 4, Some(&probs), &Key::new(seed)).unwrap();
            assert!(!out.rows.contains(&0));
            assert!(!out.rows.contains(&5));
        }
    }

    #[test]
    fn collective_takes_all_when_k_large() {
        let m = sample_matrix();
        let out = collective_sample_seeded(&m, 100, None, &key()).unwrap();
        // All rows with degree > 0: every row of the 6 appears in edges.
        assert_eq!(out.rows.len(), 6);
    }

    #[test]
    fn collective_rejects_bad_probs() {
        let m = sample_matrix();
        assert!(collective_sample_seeded(&m, 2, Some(&[1.0, 2.0]), &key()).is_err());
        let neg = vec![1.0, -1.0, 1.0, 1.0, 1.0, 1.0];
        assert!(collective_sample_seeded(&m, 2, Some(&neg), &key()).is_err());
    }

    #[test]
    fn collective_select_reports_the_lowest_bad_row() {
        let mut w = vec![1.0f32; 2000];
        for (at, bad) in [(1900, -1.0), (700, f32::NAN), (701, f32::INFINITY)] {
            w[at] = bad;
        }
        let runs = [0, 1000, 2000];
        let err = collective_select(&w, 5, &runs, &[key(), key()]).unwrap_err();
        assert!(
            matches!(err, Error::InvalidProbability { index: 700, .. }),
            "{err}"
        );
    }

    #[test]
    fn efraimidis_spirakis_distribution() {
        // Weight 9:1 between two items; item 0 should be first pick ~90%.
        let mut first0 = 0;
        for t in 0..1000 {
            let picks = weighted_sample_without_replacement(&[9.0, 1.0], 1, key(), t);
            if picks[0] == 0 {
                first0 += 1;
            }
        }
        assert!((850..950).contains(&first0), "got {first0}/1000");
    }

    #[test]
    fn floyd_sampling_uniform_and_distinct() {
        let mut seen = Vec::new();
        for t in 0..100 {
            let mut picks = [0usize; 4];
            fill_uniform_sample_without_replacement(10, key(), t, &mut seen, &mut picks);
            let set: std::collections::HashSet<_> = picks.iter().collect();
            assert_eq!(set.len(), 4);
            assert!(picks.iter().all(|&p| p < 10));
        }
    }

    /// Five columns of six entries each, weighted 1..=4 by position.
    fn five_columns() -> Csc {
        let indices = (0..5).flat_map(|c| (0..6).map(move |r| r + c));
        let values = (0..30).map(|i| 1.0 + (i % 4) as f32).collect();
        let indptr = (0..=5).map(|c| c * 6).collect();
        Csc::new(10, 5, indptr, indices.collect(), Some(values)).unwrap()
    }

    /// The rows `k = 2` without replacement keeps, two per column.
    fn picked_rows(csc: &Csc, weighted: bool, keys: &[Key], starts: &[usize]) -> Vec<NodeId> {
        let values = csc.values.as_deref().unwrap();
        let out = match weighted {
            true => sample_columns(csc, 2, values, keys, starts),
            false => sample_columns(csc, 2, &Uniform, keys, starts),
        };
        out.unwrap().indices
    }

    #[test]
    fn packed_pick_matches_each_group_alone() {
        // Groups of 2 and 3 columns picked together, each with its own key,
        // pick what each picks alone: a column's draws are counted from its
        // group's first column. Every column has a choice to make.
        let csc = five_columns();
        let part = |cols: std::ops::Range<usize>| {
            let ids: Vec<NodeId> = cols.map(|c| c as NodeId).collect();
            slice::slice_cols(&SparseMatrix::Csc(csc.clone()), &ids)
                .unwrap()
                .to_csc()
        };
        let (g0, g1) = (Key::new(10), Key::new(11));
        for weighted in [false, true] {
            let packed = picked_rows(&csc, weighted, &[g0, g1], &[0, 2]);
            let alone = [
                picked_rows(&part(0..2), weighted, &[g0], &[0]),
                picked_rows(&part(2..5), weighted, &[g1], &[0]),
            ];
            assert_eq!(packed, alone.concat(), "weighted {weighted}");
            // The keys are what tells the groups apart.
            let swapped = picked_rows(&part(2..5), weighted, &[g0], &[0]);
            assert_ne!(swapped, alone[1], "weighted {weighted}");
        }
        // An empty group owns no column: the next one starts at its start.
        let with_empty = picked_rows(&csc, false, &[g0, Key::new(3), g1], &[0, 2, 2]);
        assert_eq!(with_empty, picked_rows(&csc, false, &[g0, g1], &[0, 2]));
    }

    #[test]
    fn packed_collective_select_matches_each_segment_alone() {
        // Segment 1 of a packed call selects what it selects alone: its
        // rows' keys are counted from its own first row.
        let w: Vec<f32> = (0..64).map(|r| 1.0 + (r % 5) as f32).collect();
        let (a, b) = (Key::new(10), Key::new(11));
        let packed = collective_select(&w, 4, &[0, 32, 64], &[a, b]).unwrap();
        let first = collective_select(&w[..32], 4, &[0, 32], &[a]).unwrap();
        let second = collective_select(&w[32..], 4, &[0, 32], &[b]).unwrap();
        let second: Vec<NodeId> = second.iter().map(|&r| r + 32).collect();
        assert_eq!(packed, [first, second].concat());
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let m = sample_matrix();
        let a = individual_sample_seeded(&m, 2, None, &key()).unwrap();
        let b = individual_sample_seeded(&m, 2, None, &key()).unwrap();
        assert_eq!(a, b);
    }
}
