//! Compressed sparse row storage.

use crate::error::{Error, Result};
use crate::NodeId;

/// A sparse matrix in compressed-sparse-row format.
///
/// For a graph adjacency matrix where `A[v, :]` holds the out-going edges of
/// node `v`, CSR stores the out-neighbours of each node consecutively, which
/// makes row slicing and row-indexed reductions cheap (paper Table 5:
/// `collective_sample`, which gathers rows, prefers CSR).
///
/// Invariants mirror [`crate::Csc`] with rows and columns exchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Row pointer array, length `nrows + 1`.
    pub indptr: Vec<usize>,
    /// Column indices of the non-zeros, row-major.
    pub indices: Vec<NodeId>,
    /// Optional edge values aligned with `indices`.
    pub values: Option<Vec<f32>>,
}

impl Csr {
    /// Create a CSR matrix from raw parts, validating the invariants.
    pub fn new(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<NodeId>,
        values: Option<Vec<f32>>,
    ) -> Result<Csr> {
        let m = Csr {
            nrows,
            ncols,
            indptr,
            indices,
            values,
        };
        m.validate()?;
        Ok(m)
    }

    /// Create an empty `nrows × ncols` matrix with no edges.
    pub fn empty(nrows: usize, ncols: usize) -> Csr {
        Csr {
            nrows,
            ncols,
            indptr: vec![0; nrows + 1],
            indices: Vec::new(),
            values: None,
        }
    }

    /// Number of stored edges (non-zeros).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// `(nrows, ncols)` shape tuple.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Half-open range of non-zero positions belonging to row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= nrows`.
    #[inline]
    pub(crate) fn row_range(&self, r: usize) -> std::ops::Range<usize> {
        self.indptr[r]..self.indptr[r + 1]
    }

    /// Column indices of the non-zeros in row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= nrows`.
    #[inline]
    pub(crate) fn row_cols(&self, r: usize) -> &[NodeId] {
        &self.indices[self.row_range(r)]
    }

    /// Value of the edge at non-zero position `pos` (1.0 if unweighted).
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

    /// True if the edge `(row, col)` is stored.
    pub fn contains_edge(&self, row: usize, col: NodeId) -> bool {
        if row >= self.nrows {
            return false;
        }
        self.row_cols(row).binary_search(&col).is_ok()
    }

    /// Value of edge `(row, col)`, or `None` if absent.
    pub fn get(&self, row: usize, col: NodeId) -> Option<f32> {
        if row >= self.nrows {
            return None;
        }
        let range = self.row_range(row);
        let local = self.indices[range.clone()].binary_search(&col).ok()?;
        Some(self.value_at(range.start + local))
    }

    /// Check all structural invariants, returning the first violation.
    pub fn validate(&self) -> Result<()> {
        if self.indptr.len() != self.nrows + 1 {
            return Err(Error::InvalidStructure {
                reason: format!(
                    "csr indptr length {} != nrows+1 {}",
                    self.indptr.len(),
                    self.nrows + 1
                ),
            });
        }
        if self.indptr[0] != 0 {
            return Err(Error::InvalidStructure {
                reason: "csr indptr[0] != 0".to_string(),
            });
        }
        if *self.indptr.last().unwrap() != self.indices.len() {
            return Err(Error::InvalidStructure {
                reason: "csr indptr tail != nnz".to_string(),
            });
        }
        for w in self.indptr.windows(2) {
            if w[1] < w[0] {
                return Err(Error::InvalidStructure {
                    reason: "csr indptr not monotone".to_string(),
                });
            }
        }
        for r in 0..self.nrows {
            let cols = self.row_cols(r);
            for pair in cols.windows(2) {
                if pair[1] <= pair[0] {
                    return Err(Error::InvalidStructure {
                        reason: format!("csr row {r} cols not strictly increasing"),
                    });
                }
            }
            if let Some(&last) = cols.last() {
                if (last as usize) >= self.ncols {
                    return Err(Error::IndexOutOfBounds {
                        op: "Csr::validate",
                        index: last as usize,
                        bound: self.ncols,
                    });
                }
            }
        }
        if let Some(v) = &self.values {
            if v.len() != self.indices.len() {
                return Err(Error::LengthMismatch {
                    op: "Csr::validate values",
                    expected: self.indices.len(),
                    actual: v.len(),
                });
            }
        }
        Ok(())
    }

    /// Iterate over all stored edges as `(row, col, value)` triples.
    pub fn iter_edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f32)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            self.row_range(r)
                .map(move |pos| (r as NodeId, self.indices[pos], self.value_at(pos)))
        })
    }

    /// Approximate resident size in bytes (for the memory tracker).
    pub fn size_bytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<usize>()
            + self.indices.len() * std::mem::size_of::<NodeId>()
            + self
                .values
                .as_ref()
                .map_or(0, |v| v.len() * std::mem::size_of::<f32>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // 3x4 matrix:
        // row0: cols {0, 2}, row1: cols {1}, row2: cols {0, 1, 3}
        Csr::new(
            3,
            4,
            vec![0, 2, 3, 6],
            vec![0, 2, 1, 0, 1, 3],
            Some(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        )
        .unwrap()
    }

    #[test]
    fn basic_accessors() {
        let m = sample();
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.nnz(), 6);
        assert_eq!(m.row_cols(2).len(), 3);
        assert_eq!(m.row_cols(0), &[0, 2]);
    }

    #[test]
    fn contains_and_get() {
        let m = sample();
        assert!(m.contains_edge(2, 3));
        assert!(!m.contains_edge(0, 1));
        assert_eq!(m.get(1, 1), Some(3.0));
        assert_eq!(m.get(9, 0), None);
    }

    #[test]
    fn validate_rejects_col_out_of_bounds() {
        let r = Csr::new(1, 2, vec![0, 1], vec![7], None);
        assert!(r.is_err());
    }

    #[test]
    fn validate_rejects_unsorted_row() {
        let r = Csr::new(1, 4, vec![0, 2], vec![3, 1], None);
        assert!(r.is_err());
    }

    #[test]
    fn iter_edges_roundtrip() {
        let m = sample();
        let edges: Vec<_> = m.iter_edges().collect();
        assert_eq!(edges[2], (1, 1, 3.0));
        assert_eq!(edges.len(), m.nnz());
    }

    #[test]
    fn empty_matrix() {
        let m = Csr::empty(2, 7);
        m.validate().unwrap();
        assert_eq!(m.nnz(), 0);
    }
}
