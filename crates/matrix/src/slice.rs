//! Row/column slicing — the *extract* step of the ECSF model.
//!
//! `slice_cols(A, frontiers)` implements `A[:, frontiers]`: the result has
//! one column per frontier entry (duplicates allowed, in the order given)
//! and keeps the full row dimension of `A`. `slice_rows` is the transposed
//! operation. Both are implemented for every storage format; the formats
//! differ only in cost (CSC slices columns with a direct gather, CSR and
//! COO must scan all edges — the asymmetry behind paper Table 5).
//!
//! There is one routine per storage shape, used with the axes swapped:
//! `gather_segments` slices the compressed axis (CSC columns, CSR rows),
//! `filter_segments` the index axis (CSC rows, CSR columns) and
//! `filter_edges` either axis of COO. The two filters look ids up in one
//! flat `old -> requested positions` table (`PickMap`) and write in place
//! by count -> prefix sum -> fill; sliced segments come out in canonical
//! order (ascending index, stable), COO in storage order.

use std::ops::Range;

use gsampler_runtime::{
    parallel_map, parallel_scatter, parallel_scatter2, take_scratch_filled, Recycled,
};

use crate::convert::sort_segment;
use crate::coo::Coo;
use crate::csc::Csc;
use crate::error::{Error, Result};
use crate::par_gate;
use crate::sparse::{Compressed, SparseMatrix};
use crate::{Axis, NodeId};

/// Slice columns: `A[:, cols]`.
///
/// The output shape is `(A.nrows, cols.len())`; output column `j` is input
/// column `cols[j]`. Returns an error if any index is out of bounds.
pub fn slice_cols(m: &SparseMatrix, cols: &[NodeId]) -> Result<SparseMatrix> {
    check_bounds(cols, m.ncols(), "slice_cols")?;
    Ok(slice_axis(m, Axis::Col, cols))
}

/// Slice rows: `A[rows, :]`.
///
/// The output shape is `(rows.len(), A.ncols)`; output row `i` is input row
/// `rows[i]`. Returns an error if any index is out of bounds.
pub fn slice_rows(m: &SparseMatrix, rows: &[NodeId]) -> Result<SparseMatrix> {
    check_bounds(rows, m.nrows(), "slice_rows")?;
    Ok(slice_axis(m, Axis::Row, rows))
}

/// `picks` (in bounds) along `axis`, by the routine for `m`'s storage shape.
fn slice_axis(m: &SparseMatrix, axis: Axis, picks: &[NodeId]) -> SparseMatrix {
    let (shape, n) = match axis {
        Axis::Row => ((picks.len(), m.ncols()), m.nrows()),
        Axis::Col => ((m.nrows(), picks.len()), m.ncols()),
    };
    match (m, m.compressed()) {
        (SparseMatrix::Coo(coo), _) => SparseMatrix::Coo(filter_edges(coo, axis, shape, picks)),
        (_, Some((major, (indptr, indices, values)))) => {
            let parts = if major == axis {
                gather_segments(indptr, indices, values, picks)
            } else {
                filter_segments(indptr, indices, values, n, picks)
            };
            SparseMatrix::from_compressed(major, shape, parts)
        }
        (_, None) => unreachable!("only COO has no compressed axis"),
    }
}

fn check_bounds(ids: &[NodeId], bound: usize, op: &'static str) -> Result<()> {
    for &i in ids {
        if (i as usize) >= bound {
            return Err(Error::IndexOutOfBounds {
                op,
                index: i as usize,
                bound,
            });
        }
    }
    Ok(())
}

/// Gather stored entries of `src` into a new `nrows`-row CSC whose column
/// pointers are `indptr`: output column `c`, which owns output entries
/// `out = indptr[c]..indptr[c + 1]`, takes the entries at source positions
/// `positions(c, out)` (as many, in order) with their rows renamed by
/// `row_map(c)`. Each column's segment is filled independently on the
/// worker pool. The one writer behind node-wise selection, the
/// block-diagonal extract of super-batching (a lift by `b·N` for group `b`)
/// and the fused collective select (a selected row's rank).
pub fn gather_cols<I: Iterator<Item = usize>, R: Fn(NodeId) -> NodeId>(
    src: &Csc,
    nrows: usize,
    indptr: Vec<usize>,
    positions: impl Fn(usize, Range<usize>) -> I + Sync,
    row_map: impl Fn(usize) -> R + Sync,
) -> Csc {
    let nnz = *indptr.last().expect("column pointers start with 0");
    let gate = par_gate(nnz);
    let mut indices = vec![0 as NodeId; nnz];
    let fill = |c: usize, seg: &mut [NodeId]| {
        let row = row_map(c);
        for (dst, pos) in seg.iter_mut().zip(positions(c, indptr[c]..indptr[c + 1])) {
            *dst = row(src.indices[pos]);
        }
    };
    let values = src.values.as_ref().map(|vals| {
        let mut values = vec![0f32; nnz];
        parallel_scatter2(
            &mut indices,
            &mut values,
            &indptr,
            gate,
            |c, seg_i, seg_v| {
                fill(c, seg_i);
                for (dst, pos) in seg_v.iter_mut().zip(positions(c, indptr[c]..indptr[c + 1])) {
                    *dst = vals[pos];
                }
            },
        );
        values
    });
    if values.is_none() {
        parallel_scatter(&mut indices, &indptr, gate, fill);
    }
    Csc {
        nrows,
        ncols: indptr.len() - 1,
        indptr,
        indices,
        values,
    }
}

/// Slice the compressed axis (CSC columns, CSR rows) — a direct gather:
/// degree prefix sums define the output layout, then each requested
/// segment is copied into its (disjoint) range on the worker pool.
fn gather_segments(
    indptr: &[usize],
    indices: &[NodeId],
    values: Option<&[f32]>,
    picks: &[NodeId],
) -> Compressed {
    let range = |j: usize| indptr[picks[j] as usize]..indptr[picks[j] as usize + 1];
    let mut out_ptr = Vec::with_capacity(picks.len() + 1);
    out_ptr.push(0usize);
    for j in 0..picks.len() {
        out_ptr.push(out_ptr[j] + range(j).len());
    }
    let nnz = out_ptr[picks.len()];
    let min_items = par_gate(nnz);
    let mut out_i = vec![0 as NodeId; nnz];
    let out_v = match values {
        Some(src) => {
            let mut out_v = vec![0f32; nnz];
            parallel_scatter2(
                &mut out_i,
                &mut out_v,
                &out_ptr,
                min_items,
                |j, seg_i, seg_v| {
                    seg_i.copy_from_slice(&indices[range(j)]);
                    seg_v.copy_from_slice(&src[range(j)]);
                },
            );
            Some(out_v)
        }
        None => {
            parallel_scatter(&mut out_i, &out_ptr, min_items, |j, seg| {
                seg.copy_from_slice(&indices[range(j)]);
            });
            None
        }
    };
    (out_ptr, out_i, out_v)
}

/// Marks an id nobody asked for in [`PickMap::head`], and the end of a
/// chain in [`PickMap::next`].
const NONE: u32 = u32::MAX;

/// The flat `old id -> requested positions` multimap of a slice along the
/// index axis: `head[old]` is the first position of `picks` that asks for
/// `old` and `next[pos]` the following one, so an id requested once costs
/// one table read and an id requested `d` times yields its `d` output
/// positions ascending. `head` is graph-sized scratch from the arena.
struct PickMap {
    head: Recycled<u32>,
    next: Vec<u32>,
}

impl PickMap {
    fn new(picks: &[NodeId], n: usize) -> PickMap {
        let mut head = take_scratch_filled::<u32>(n, NONE);
        let mut next = vec![NONE; picks.len()];
        for (pos, &old) in picks.iter().enumerate().rev() {
            next[pos] = std::mem::replace(&mut head[old as usize], pos as u32);
        }
        PickMap { head, next }
    }

    /// The output positions that take `old`, ascending.
    #[inline]
    fn positions(&self, old: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut at = self.head[old as usize];
        std::iter::from_fn(move || {
            let pos = at;
            (pos != NONE).then(|| {
                at = self.next[pos as usize];
                pos
            })
        })
    }
}

/// Slice the index axis (CSC rows, CSR columns) of length `n`: every
/// segment keeps its entries whose id is requested, one copy per request,
/// renamed to the requesting position. Count -> prefix sum -> fill: each
/// segment sizes, then fills and canonically orders (ascending new id,
/// stable) its own output range on the worker pool.
fn filter_segments(
    indptr: &[usize],
    indices: &[NodeId],
    values: Option<&[f32]>,
    n: usize,
    picks: &[NodeId],
) -> Compressed {
    let map = PickMap::new(picks, n);
    let nsegs = indptr.len() - 1;
    let min_items = par_gate(indices.len());
    let counts = parallel_map(nsegs, min_items, |s| {
        let ids = indices[indptr[s]..indptr[s + 1]].iter();
        ids.map(|&old| map.positions(old).count()).sum::<usize>()
    });
    let mut out_ptr = Vec::with_capacity(nsegs + 1);
    out_ptr.push(0usize);
    for (s, count) in counts.into_iter().enumerate() {
        out_ptr.push(out_ptr[s] + count);
    }
    // The kept entries of segment `s` as (new id, source position).
    let kept = |s: usize| {
        (indptr[s]..indptr[s + 1]).flat_map(|e| map.positions(indices[e]).map(move |new| (new, e)))
    };
    let mut out_i = vec![0 as NodeId; out_ptr[nsegs]];
    let out_v = match values {
        Some(src) => {
            let mut out_v = vec![0f32; out_ptr[nsegs]];
            parallel_scatter2(
                &mut out_i,
                &mut out_v,
                &out_ptr,
                min_items,
                |s, seg_i, seg_v| {
                    for (k, (new, e)) in kept(s).enumerate() {
                        seg_i[k] = new;
                        seg_v[k] = src[e];
                    }
                    sort_segment(seg_i, Some(seg_v));
                },
            );
            Some(out_v)
        }
        None => {
            parallel_scatter(&mut out_i, &out_ptr, min_items, |s, seg_i| {
                for (dst, (new, _)) in seg_i.iter_mut().zip(kept(s)) {
                    *dst = new;
                }
                sort_segment(seg_i, None);
            });
            None
        }
    };
    (out_ptr, out_i, out_v)
}

/// Slice one axis of a COO matrix: scan the edge list in storage order,
/// emitting one edge per request of its `ids` entry, renamed to the
/// requesting position; `other` and the values ride along.
fn filter_edges(m: &Coo, axis: Axis, (nrows, ncols): (usize, usize), picks: &[NodeId]) -> Coo {
    let (ids, other, n) = match axis {
        Axis::Row => (&m.rows, &m.cols, m.nrows),
        Axis::Col => (&m.cols, &m.rows, m.ncols),
    };
    let map = PickMap::new(picks, n);
    let (mut out_ids, mut out_other) = (Vec::new(), Vec::new());
    let mut values = m.values.as_ref().map(|_| Vec::new());
    for (e, &old) in ids.iter().enumerate() {
        for new in map.positions(old) {
            out_ids.push(new);
            out_other.push(other[e]);
            if let (Some(out), Some(src)) = (values.as_mut(), m.values.as_ref()) {
                out.push(src[e]);
            }
        }
    }
    let (rows, cols) = match axis {
        Axis::Row => (out_ids, out_other),
        Axis::Col => (out_other, out_ids),
    };
    Coo {
        nrows,
        ncols,
        rows,
        cols,
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Format;

    fn sample() -> SparseMatrix {
        // 4x3:
        // col0: rows {0:1.0, 2:2.0}, col1: rows {1:3.0}, col2: rows {0:4.0, 1:5.0, 3:6.0}
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

    #[test]
    fn slice_cols_matches_across_formats() {
        let m = sample();
        let reference = slice_cols(&m, &[2, 0]).unwrap().sorted_edges();
        for fmt in Format::ALL {
            let sliced = slice_cols(&m.to_format(fmt), &[2, 0]).unwrap();
            assert_eq!(sliced.shape(), (4, 2));
            assert_eq!(sliced.sorted_edges(), reference);
            sliced.validate().unwrap();
        }
    }

    #[test]
    fn slice_cols_with_duplicates() {
        let m = sample();
        for fmt in Format::ALL {
            let sliced = slice_cols(&m.to_format(fmt), &[1, 1]).unwrap();
            assert_eq!(sliced.shape(), (4, 2));
            assert_eq!(sliced.nnz(), 2);
            let edges = sliced.sorted_edges();
            assert_eq!(edges, vec![(1, 0, 3.0), (1, 1, 3.0)]);
        }
    }

    #[test]
    fn slice_rows_matches_across_formats() {
        let m = sample();
        let reference = slice_rows(&m, &[3, 0]).unwrap().sorted_edges();
        assert_eq!(reference, vec![(0, 2, 6.0), (1, 0, 1.0), (1, 2, 4.0)]);
        for fmt in Format::ALL {
            let sliced = slice_rows(&m.to_format(fmt), &[3, 0]).unwrap();
            assert_eq!(sliced.shape(), (2, 3));
            assert_eq!(sliced.sorted_edges(), reference);
            sliced.validate().unwrap();
        }
    }

    #[test]
    fn out_of_bounds_rejected() {
        let m = sample();
        assert!(slice_cols(&m, &[3]).is_err());
        assert!(slice_rows(&m, &[4]).is_err());
    }

    #[test]
    fn empty_selection() {
        let m = sample();
        let sliced = slice_cols(&m, &[]).unwrap();
        assert_eq!(sliced.shape(), (4, 0));
        assert_eq!(sliced.nnz(), 0);
    }

    #[test]
    fn unweighted_slice_keeps_unweighted() {
        let csc = Csc::new(3, 2, vec![0, 2, 3], vec![0, 1, 2], None).unwrap();
        let m = SparseMatrix::Csc(csc);
        for fmt in Format::ALL {
            let sliced = slice_cols(&m.to_format(fmt), &[0]).unwrap();
            assert!(!sliced.is_weighted());
        }
    }
}
