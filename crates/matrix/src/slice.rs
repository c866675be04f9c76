//! Row/column slicing — the *extract* step of the ECSF model.
//!
//! `slice_cols(A, frontiers)` implements `A[:, frontiers]`: the result has
//! one column per frontier entry (duplicates allowed, in the order given)
//! and keeps the full row dimension of `A`. `slice_rows` is the transposed
//! operation. Both are implemented for every storage format; the formats
//! differ only in cost (CSC slices columns with a direct gather, CSR and
//! COO must scan all edges — the asymmetry behind paper Table 5).

use std::ops::Range;

use gsampler_runtime::{parallel_scatter, parallel_scatter2};

use crate::coo::Coo;
use crate::csc::Csc;
use crate::csr::Csr;
use crate::error::{Error, Result};
use crate::par_gate;
use crate::sparse::SparseMatrix;
use crate::NodeId;

/// Slice columns: `A[:, cols]`.
///
/// The output shape is `(A.nrows, cols.len())`; output column `j` is input
/// column `cols[j]`. Returns an error if any index is out of bounds.
pub fn slice_cols(m: &SparseMatrix, cols: &[NodeId]) -> Result<SparseMatrix> {
    check_bounds(cols, m.ncols(), "slice_cols")?;
    Ok(match m {
        SparseMatrix::Csc(c) => SparseMatrix::Csc(slice_cols_csc(c, cols)),
        SparseMatrix::Csr(c) => SparseMatrix::Csr(slice_cols_csr(c, cols)),
        SparseMatrix::Coo(c) => SparseMatrix::Coo(slice_cols_coo(c, cols)),
    })
}

/// Slice rows: `A[rows, :]`.
///
/// The output shape is `(rows.len(), A.ncols)`; output row `i` is input row
/// `rows[i]`. Returns an error if any index is out of bounds.
pub fn slice_rows(m: &SparseMatrix, rows: &[NodeId]) -> Result<SparseMatrix> {
    check_bounds(rows, m.nrows(), "slice_rows")?;
    Ok(match m {
        SparseMatrix::Csc(c) => SparseMatrix::Csc(slice_rows_csc(c, rows)),
        SparseMatrix::Csr(c) => SparseMatrix::Csr(slice_rows_csr(c, rows)),
        SparseMatrix::Coo(c) => SparseMatrix::Coo(slice_rows_coo(c, rows)),
    })
}

/// Keep only the rows listed in `rows`, relabelling them `0..rows.len()`,
/// without touching columns. This is the structural core of
/// `collective_sample` and of row compaction.
pub fn gather_rows(m: &SparseMatrix, rows: &[NodeId]) -> Result<SparseMatrix> {
    slice_rows(m, rows)
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
/// `positions(c, out)` (as many, in order) with their rows lifted by
/// `row_offset(c)`. Each column's segment is filled independently on the
/// worker pool. The one writer behind node-wise selection and the
/// block-diagonal extract of super-batching (offset `b·N` for group `b`).
pub fn gather_cols<I: Iterator<Item = usize>>(
    src: &Csc,
    nrows: usize,
    indptr: Vec<usize>,
    positions: impl Fn(usize, Range<usize>) -> I + Sync,
    row_offset: impl Fn(usize) -> NodeId + Sync,
) -> Csc {
    let nnz = *indptr.last().expect("column pointers start with 0");
    let gate = par_gate(nnz);
    let mut indices = vec![0 as NodeId; nnz];
    let fill = |c: usize, seg: &mut [NodeId]| {
        let offset = row_offset(c);
        for (dst, pos) in seg.iter_mut().zip(positions(c, indptr[c]..indptr[c + 1])) {
            *dst = src.indices[pos] + offset;
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

/// Direct gather: degree prefix sums define the output layout, then each
/// requested column's slice is copied into its (disjoint) segment on the
/// worker pool.
fn slice_cols_csc(m: &Csc, cols: &[NodeId]) -> Csc {
    let mut indptr = Vec::with_capacity(cols.len() + 1);
    indptr.push(0usize);
    for (j, &c) in cols.iter().enumerate() {
        indptr.push(indptr[j] + m.col_degree(c as usize));
    }
    let nnz = indptr[cols.len()];
    let min_items = par_gate(nnz);
    let mut indices = vec![0 as NodeId; nnz];
    let values = match m.values.as_ref() {
        Some(src) => {
            let mut values = vec![0f32; nnz];
            parallel_scatter2(
                &mut indices,
                &mut values,
                &indptr,
                min_items,
                |j, seg_i, seg_v| {
                    let range = m.col_range(cols[j] as usize);
                    seg_i.copy_from_slice(&m.indices[range.clone()]);
                    seg_v.copy_from_slice(&src[range]);
                },
            );
            Some(values)
        }
        None => {
            parallel_scatter(&mut indices, &indptr, min_items, |j, seg| {
                seg.copy_from_slice(&m.indices[m.col_range(cols[j] as usize)]);
            });
            None
        }
    };
    Csc {
        nrows: m.nrows,
        ncols: cols.len(),
        indptr,
        indices,
        values,
    }
}

/// Scan every row, keeping entries whose column is requested. A column
/// requested `k` times produces `k` output columns.
fn slice_cols_csr(m: &Csr, cols: &[NodeId]) -> Csr {
    // old column -> list of new column positions
    let mut col_map: Vec<Vec<NodeId>> = vec![Vec::new(); m.ncols];
    for (new, &old) in cols.iter().enumerate() {
        col_map[old as usize].push(new as NodeId);
    }
    let mut indptr = Vec::with_capacity(m.nrows + 1);
    indptr.push(0usize);
    let mut indices = Vec::new();
    let mut values = m.values.as_ref().map(|_| Vec::new());
    for r in 0..m.nrows {
        let mut row_entries: Vec<(NodeId, f32)> = Vec::new();
        for pos in m.row_range(r) {
            let old_col = m.indices[pos] as usize;
            for &new_col in &col_map[old_col] {
                row_entries.push((new_col, m.value_at(pos)));
            }
        }
        row_entries.sort_by_key(|(c, _)| *c);
        for (c, v) in row_entries {
            indices.push(c);
            if let Some(out) = values.as_mut() {
                out.push(v);
            }
        }
        indptr.push(indices.len());
    }
    let values = if m.values.is_some() { values } else { None };
    Csr {
        nrows: m.nrows,
        ncols: cols.len(),
        indptr,
        indices,
        values,
    }
}

/// Scan the edge list, emitting one edge per matching requested column.
fn slice_cols_coo(m: &Coo, cols: &[NodeId]) -> Coo {
    let mut col_map: Vec<Vec<NodeId>> = vec![Vec::new(); m.ncols];
    for (new, &old) in cols.iter().enumerate() {
        col_map[old as usize].push(new as NodeId);
    }
    let mut rows = Vec::new();
    let mut out_cols = Vec::new();
    let mut values = m.values.as_ref().map(|_| Vec::new());
    for i in 0..m.nnz() {
        for &new_col in &col_map[m.cols[i] as usize] {
            rows.push(m.rows[i]);
            out_cols.push(new_col);
            if let Some(out) = values.as_mut() {
                out.push(m.value_at(i));
            }
        }
    }
    Coo {
        nrows: m.nrows,
        ncols: cols.len(),
        rows,
        cols: out_cols,
        values,
    }
}

/// Direct gather, symmetric to [`slice_cols_csc`]: prefix sums then a
/// parallel per-row copy.
fn slice_rows_csr(m: &Csr, rows: &[NodeId]) -> Csr {
    let mut indptr = Vec::with_capacity(rows.len() + 1);
    indptr.push(0usize);
    for (i, &r) in rows.iter().enumerate() {
        indptr.push(indptr[i] + m.row_degree(r as usize));
    }
    let nnz = indptr[rows.len()];
    let min_items = par_gate(nnz);
    let mut indices = vec![0 as NodeId; nnz];
    let values = match m.values.as_ref() {
        Some(src) => {
            let mut values = vec![0f32; nnz];
            parallel_scatter2(
                &mut indices,
                &mut values,
                &indptr,
                min_items,
                |i, seg_i, seg_v| {
                    let range = m.row_range(rows[i] as usize);
                    seg_i.copy_from_slice(&m.indices[range.clone()]);
                    seg_v.copy_from_slice(&src[range]);
                },
            );
            Some(values)
        }
        None => {
            parallel_scatter(&mut indices, &indptr, min_items, |i, seg| {
                seg.copy_from_slice(&m.indices[m.row_range(rows[i] as usize)]);
            });
            None
        }
    };
    Csr {
        nrows: rows.len(),
        ncols: m.ncols,
        indptr,
        indices,
        values,
    }
}

fn slice_rows_csc(m: &Csc, rows: &[NodeId]) -> Csc {
    let mut row_map: Vec<Vec<NodeId>> = vec![Vec::new(); m.nrows];
    for (new, &old) in rows.iter().enumerate() {
        row_map[old as usize].push(new as NodeId);
    }
    let mut indptr = Vec::with_capacity(m.ncols + 1);
    indptr.push(0usize);
    let mut indices = Vec::new();
    let mut values = m.values.as_ref().map(|_| Vec::new());
    for c in 0..m.ncols {
        let mut col_entries: Vec<(NodeId, f32)> = Vec::new();
        for pos in m.col_range(c) {
            let old_row = m.indices[pos] as usize;
            for &new_row in &row_map[old_row] {
                col_entries.push((new_row, m.value_at(pos)));
            }
        }
        col_entries.sort_by_key(|(r, _)| *r);
        for (r, v) in col_entries {
            indices.push(r);
            if let Some(out) = values.as_mut() {
                out.push(v);
            }
        }
        indptr.push(indices.len());
    }
    let values = if m.values.is_some() { values } else { None };
    Csc {
        nrows: rows.len(),
        ncols: m.ncols,
        indptr,
        indices,
        values,
    }
}

fn slice_rows_coo(m: &Coo, rows: &[NodeId]) -> Coo {
    let mut row_map: Vec<Vec<NodeId>> = vec![Vec::new(); m.nrows];
    for (new, &old) in rows.iter().enumerate() {
        row_map[old as usize].push(new as NodeId);
    }
    let mut out_rows = Vec::new();
    let mut cols = Vec::new();
    let mut values = m.values.as_ref().map(|_| Vec::new());
    for i in 0..m.nnz() {
        for &new_row in &row_map[m.rows[i] as usize] {
            out_rows.push(new_row);
            cols.push(m.cols[i]);
            if let Some(out) = values.as_mut() {
                out.push(m.value_at(i));
            }
        }
    }
    Coo {
        nrows: rows.len(),
        ncols: m.ncols,
        rows: out_rows,
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
