//! Coordinate (edge-list) storage.

use crate::error::{Error, Result};
use crate::NodeId;

/// A sparse matrix in coordinate format: three parallel arrays of row
/// indices, column indices, and optional values.
///
/// COO is the format of choice for edge-parallel kernels (one thread per
/// edge, paper Table 5: `sub_A.sum()` on COO) and is the natural output of
/// sampling operators that pick arbitrary edge subsets. Edges are kept in
/// *column-major order* (sorted by column, then row) so conversion to CSC is
/// a single scan.
#[derive(Debug, Clone, PartialEq)]
pub struct Coo {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Row index of each edge.
    pub rows: Vec<NodeId>,
    /// Column index of each edge.
    pub cols: Vec<NodeId>,
    /// Optional edge values aligned with `rows`/`cols`.
    pub values: Option<Vec<f32>>,
}

impl Coo {
    /// Create a COO matrix from raw parts, validating bounds and lengths.
    pub fn new(
        nrows: usize,
        ncols: usize,
        rows: Vec<NodeId>,
        cols: Vec<NodeId>,
        values: Option<Vec<f32>>,
    ) -> Result<Coo> {
        let m = Coo {
            nrows,
            ncols,
            rows,
            cols,
            values,
        };
        m.validate()?;
        Ok(m)
    }

    /// Create an empty `nrows × ncols` matrix with no edges.
    pub fn empty(nrows: usize, ncols: usize) -> Coo {
        Coo {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            values: None,
        }
    }

    /// Number of stored edges.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.rows.len()
    }

    /// `(nrows, ncols)` shape tuple.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Value of the edge at position `pos` (1.0 if unweighted).
    #[inline]
    pub fn value_at(&self, pos: usize) -> f32 {
        match &self.values {
            Some(v) => v[pos],
            None => 1.0,
        }
    }

    /// Edge values as a materialized vector, substituting 1.0 for
    /// unweighted matrices.
    pub fn values_or_ones(&self) -> Vec<f32> {
        match &self.values {
            Some(v) => v.clone(),
            None => vec![1.0; self.nnz()],
        }
    }

    /// True if edges are sorted by `(col, row)` — the canonical order that
    /// makes CSC conversion a single counting scan.
    #[cfg(test)]
    pub(crate) fn is_col_sorted(&self) -> bool {
        (1..self.nnz())
            .all(|i| (self.cols[i - 1], self.rows[i - 1]) <= (self.cols[i], self.rows[i]))
    }

    /// Sort edges in-place into canonical `(col, row)` order.
    pub fn sort_col_major(&mut self) {
        let n = self.nnz();
        let mut perm: Vec<usize> = (0..n).collect();
        perm.sort_by_key(|&i| (self.cols[i], self.rows[i]));
        self.apply_permutation(&perm);
    }

    fn apply_permutation(&mut self, perm: &[usize]) {
        self.rows = perm.iter().map(|&i| self.rows[i]).collect();
        self.cols = perm.iter().map(|&i| self.cols[i]).collect();
        if let Some(v) = &self.values {
            self.values = Some(perm.iter().map(|&i| v[i]).collect());
        }
    }

    /// Check bounds and array-length invariants.
    pub fn validate(&self) -> Result<()> {
        if self.rows.len() != self.cols.len() {
            return Err(Error::LengthMismatch {
                op: "Coo::validate rows/cols",
                expected: self.rows.len(),
                actual: self.cols.len(),
            });
        }
        if let Some(v) = &self.values {
            if v.len() != self.rows.len() {
                return Err(Error::LengthMismatch {
                    op: "Coo::validate values",
                    expected: self.rows.len(),
                    actual: v.len(),
                });
            }
        }
        for (&r, &c) in self.rows.iter().zip(self.cols.iter()) {
            if (r as usize) >= self.nrows {
                return Err(Error::IndexOutOfBounds {
                    op: "Coo::validate row",
                    index: r as usize,
                    bound: self.nrows,
                });
            }
            if (c as usize) >= self.ncols {
                return Err(Error::IndexOutOfBounds {
                    op: "Coo::validate col",
                    index: c as usize,
                    bound: self.ncols,
                });
            }
        }
        Ok(())
    }

    /// Iterate over all stored edges as `(row, col, value)` triples.
    pub fn iter_edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f32)> + '_ {
        (0..self.nnz()).map(move |i| (self.rows[i], self.cols[i], self.value_at(i)))
    }

    /// Approximate resident size in bytes (for the memory tracker).
    pub fn size_bytes(&self) -> usize {
        (self.rows.len() + self.cols.len()) * std::mem::size_of::<NodeId>()
            + self
                .values
                .as_ref()
                .map_or(0, |v| v.len() * std::mem::size_of::<f32>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_bounds() {
        assert!(Coo::new(2, 2, vec![0, 3], vec![0, 1], None).is_err());
        assert!(Coo::new(2, 2, vec![0, 1], vec![0, 5], None).is_err());
        assert!(Coo::new(2, 2, vec![0], vec![0, 1], None).is_err());
    }

    #[test]
    fn sorting() {
        let mut m = Coo::new(
            3,
            3,
            vec![2, 0, 1],
            vec![1, 1, 0],
            Some(vec![1.0, 2.0, 3.0]),
        )
        .unwrap();
        assert!(!m.is_col_sorted());
        m.sort_col_major();
        assert!(m.is_col_sorted());
        assert_eq!(m.cols, vec![0, 1, 1]);
        assert_eq!(m.rows, vec![1, 0, 2]);
        assert_eq!(m.values.as_ref().unwrap(), &vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn empty_is_sorted() {
        let m = Coo::empty(4, 4);
        assert!(m.is_col_sorted());
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn iter_edges() {
        let m = Coo::new(2, 2, vec![0, 1], vec![1, 0], Some(vec![5.0, 6.0])).unwrap();
        let e: Vec<_> = m.iter_edges().collect();
        assert_eq!(e, vec![(0, 1, 5.0), (1, 0, 6.0)]);
    }
}
