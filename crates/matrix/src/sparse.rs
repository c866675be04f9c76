//! Format-polymorphic sparse matrix wrapper.

use std::borrow::Cow;

use crate::convert;
use crate::coo::Coo;
use crate::csc::Csc;
use crate::csr::Csr;
use crate::error::Result;
use crate::{Format, NodeId};

/// A sparse matrix whose storage format is chosen at runtime.
///
/// The data-layout-selection pass of the IR decides which format each
/// operator's output should use; this enum is the value that flows between
/// kernels. All kernels accept any format (with different costs), so a
/// layout decision can never change results, only performance.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseMatrix {
    /// Compressed sparse column.
    Csc(Csc),
    /// Compressed sparse row.
    Csr(Csr),
    /// Coordinate list.
    Coo(Coo),
}

impl SparseMatrix {
    /// The format tag of the current representation.
    pub fn format(&self) -> Format {
        match self {
            SparseMatrix::Csc(_) => Format::Csc,
            SparseMatrix::Csr(_) => Format::Csr,
            SparseMatrix::Coo(_) => Format::Coo,
        }
    }

    /// `(nrows, ncols)` shape tuple.
    pub fn shape(&self) -> (usize, usize) {
        match self {
            SparseMatrix::Csc(m) => m.shape(),
            SparseMatrix::Csr(m) => m.shape(),
            SparseMatrix::Coo(m) => m.shape(),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.shape().0
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.shape().1
    }

    /// Number of stored edges.
    pub fn nnz(&self) -> usize {
        match self {
            SparseMatrix::Csc(m) => m.nnz(),
            SparseMatrix::Csr(m) => m.nnz(),
            SparseMatrix::Coo(m) => m.nnz(),
        }
    }

    /// True if the matrix carries explicit edge values.
    pub fn is_weighted(&self) -> bool {
        match self {
            SparseMatrix::Csc(m) => m.values.is_some(),
            SparseMatrix::Csr(m) => m.values.is_some(),
            SparseMatrix::Coo(m) => m.values.is_some(),
        }
    }

    /// Borrow the edge values, if present.
    pub fn values(&self) -> Option<&[f32]> {
        match self {
            SparseMatrix::Csc(m) => m.values.as_deref(),
            SparseMatrix::Csr(m) => m.values.as_deref(),
            SparseMatrix::Coo(m) => m.values.as_deref(),
        }
    }

    /// Mutably borrow the edge values, materializing implicit ones first.
    pub fn values_mut(&mut self) -> &mut Vec<f32> {
        let nnz = self.nnz();
        let slot = match self {
            SparseMatrix::Csc(m) => &mut m.values,
            SparseMatrix::Csr(m) => &mut m.values,
            SparseMatrix::Coo(m) => &mut m.values,
        };
        slot.get_or_insert_with(|| vec![1.0; nnz])
    }

    /// Replace the edge values wholesale.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.nnz()`; callers construct aligned
    /// vectors, so a mismatch is an internal bug.
    pub fn set_values(&mut self, values: Vec<f32>) {
        assert_eq!(values.len(), self.nnz(), "value vector must match nnz");
        match self {
            SparseMatrix::Csc(m) => m.values = Some(values),
            SparseMatrix::Csr(m) => m.values = Some(values),
            SparseMatrix::Coo(m) => m.values = Some(values),
        }
    }

    /// Drop explicit values, reverting to an unweighted matrix.
    pub fn clear_values(&mut self) {
        match self {
            SparseMatrix::Csc(m) => m.values = None,
            SparseMatrix::Csr(m) => m.values = None,
            SparseMatrix::Coo(m) => m.values = None,
        }
    }

    /// Edge values as a materialized vector (1.0 for unweighted matrices).
    pub fn values_or_ones(&self) -> Vec<f32> {
        match self {
            SparseMatrix::Csc(m) => m.values_or_ones(),
            SparseMatrix::Csr(m) => m.values_or_ones(),
            SparseMatrix::Coo(m) => m.values_or_ones(),
        }
    }

    /// Convert to the given format (no-op if already there).
    pub fn to_format(&self, format: Format) -> SparseMatrix {
        match format {
            Format::Csc => SparseMatrix::Csc(self.to_csc()),
            Format::Csr => SparseMatrix::Csr(self.to_csr()),
            Format::Coo => SparseMatrix::Coo(self.to_coo()),
        }
    }

    /// [`SparseMatrix::to_format`] for an owned matrix: already in `format`,
    /// it is handed back as it is — how a kernel returns the matrix it just
    /// built in its input's format.
    pub fn into_format(self, format: Format) -> SparseMatrix {
        if self.format() == format {
            self
        } else {
            self.to_format(format)
        }
    }

    /// Materialize as CSC (clones if already CSC).
    pub fn to_csc(&self) -> Csc {
        match self {
            SparseMatrix::Csc(m) => m.clone(),
            SparseMatrix::Csr(m) => convert::csr_to_csc(m),
            SparseMatrix::Coo(m) => convert::coo_to_csc(m),
        }
    }

    /// Borrow as CSC, converting only on a format mismatch — what kernels
    /// that read the whole resident graph every launch want.
    pub fn csc(&self) -> Cow<'_, Csc> {
        match self {
            SparseMatrix::Csc(m) => Cow::Borrowed(m),
            other => Cow::Owned(other.to_csc()),
        }
    }

    /// Materialize as CSR (clones if already CSR).
    pub fn to_csr(&self) -> Csr {
        match self {
            SparseMatrix::Csc(m) => convert::csc_to_csr(m),
            SparseMatrix::Csr(m) => m.clone(),
            SparseMatrix::Coo(m) => convert::coo_to_csr(m),
        }
    }

    /// Materialize as COO (clones if already COO).
    pub fn to_coo(&self) -> Coo {
        match self {
            SparseMatrix::Csc(m) => convert::csc_to_coo(m),
            SparseMatrix::Csr(m) => convert::csr_to_coo(m),
            SparseMatrix::Coo(m) => m.clone(),
        }
    }

    /// Borrow as CSC if that is the current format.
    pub fn as_csc(&self) -> Option<&Csc> {
        match self {
            SparseMatrix::Csc(m) => Some(m),
            _ => None,
        }
    }

    /// Iterate over all stored edges as `(row, col, value)` triples.
    ///
    /// The iteration order depends on the current format (column-major for
    /// CSC, row-major for CSR, storage order for COO).
    pub fn iter_edges(&self) -> Box<dyn Iterator<Item = (NodeId, NodeId, f32)> + '_> {
        match self {
            SparseMatrix::Csc(m) => Box::new(m.iter_edges()),
            SparseMatrix::Csr(m) => Box::new(m.iter_edges()),
            SparseMatrix::Coo(m) => Box::new(m.iter_edges()),
        }
    }

    /// All stored edges, canonically sorted by `(row, col)` — useful for
    /// format-independent equality checks in tests.
    pub fn sorted_edges(&self) -> Vec<(NodeId, NodeId, f32)> {
        let mut edges: Vec<_> = self.iter_edges().collect();
        edges.sort_by_key(|&(r, c, _)| (r, c));
        edges
    }

    /// Check the structural invariants of the current representation.
    pub fn validate(&self) -> Result<()> {
        match self {
            SparseMatrix::Csc(m) => m.validate(),
            SparseMatrix::Csr(m) => m.validate(),
            SparseMatrix::Coo(m) => m.validate(),
        }
    }

    /// Approximate resident size in bytes (for the memory tracker).
    pub fn size_bytes(&self) -> usize {
        match self {
            SparseMatrix::Csc(m) => m.size_bytes(),
            SparseMatrix::Csr(m) => m.size_bytes(),
            SparseMatrix::Coo(m) => m.size_bytes(),
        }
    }

    /// In-degree of every column node (length `ncols`).
    pub fn col_degrees(&self) -> Vec<usize> {
        match self {
            SparseMatrix::Csc(m) => (0..m.ncols).map(|c| m.col_degree(c)).collect(),
            other => {
                let mut deg = vec![0usize; other.ncols()];
                for (_, c, _) in other.iter_edges() {
                    deg[c as usize] += 1;
                }
                deg
            }
        }
    }

    /// Out-degree of every row node (length `nrows`).
    pub fn row_degrees(&self) -> Vec<usize> {
        match self {
            SparseMatrix::Csr(m) => (0..m.nrows).map(|r| m.row_degree(r)).collect(),
            other => {
                let mut deg = vec![0usize; other.nrows()];
                for (r, _, _) in other.iter_edges() {
                    deg[r as usize] += 1;
                }
                deg
            }
        }
    }
}

impl From<Csc> for SparseMatrix {
    fn from(m: Csc) -> Self {
        SparseMatrix::Csc(m)
    }
}

impl From<Csr> for SparseMatrix {
    fn from(m: Csr) -> Self {
        SparseMatrix::Csr(m)
    }
}

impl From<Coo> for SparseMatrix {
    fn from(m: Coo) -> Self {
        SparseMatrix::Coo(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn format_conversions_preserve_edges() {
        let m = sample();
        let edges = m.sorted_edges();
        for fmt in Format::ALL {
            let converted = m.to_format(fmt);
            assert_eq!(converted.format(), fmt);
            assert_eq!(converted.sorted_edges(), edges);
            converted.validate().unwrap();
        }
    }

    #[test]
    fn csc_accessor_borrows_csc_and_converts_the_rest() {
        let m = sample();
        assert!(matches!(m.csc(), Cow::Borrowed(_)));
        for fmt in [Format::Csr, Format::Coo] {
            let other = m.to_format(fmt);
            assert!(matches!(other.csc(), Cow::Owned(_)));
            assert_eq!(&*other.csc(), m.as_csc().unwrap());
        }
    }

    #[test]
    fn into_format_keeps_a_matching_matrix_and_converts_the_rest() {
        let m = sample();
        let indptr = m.as_csc().unwrap().indptr.as_ptr();
        let moved = m.into_format(Format::Csc);
        assert_eq!(moved.as_csc().unwrap().indptr.as_ptr(), indptr);
        for fmt in [Format::Csr, Format::Coo] {
            assert_eq!(moved.clone().into_format(fmt), moved.to_format(fmt));
        }
    }

    #[test]
    fn degrees() {
        let m = sample();
        assert_eq!(m.col_degrees(), vec![2, 1, 3]);
        assert_eq!(m.row_degrees(), vec![2, 2, 1, 1]);
        // Degrees must be format-independent.
        for fmt in Format::ALL {
            let c = m.to_format(fmt);
            assert_eq!(c.col_degrees(), vec![2, 1, 3]);
            assert_eq!(c.row_degrees(), vec![2, 2, 1, 1]);
        }
    }

    #[test]
    fn values_mut_materializes_ones() {
        let mut m = SparseMatrix::Csc(Csc::new(2, 2, vec![0, 1, 2], vec![0, 1], None).unwrap());
        assert!(!m.is_weighted());
        m.values_mut()[0] = 7.0;
        assert!(m.is_weighted());
        assert_eq!(m.values().unwrap(), &[7.0, 1.0]);
    }

    #[test]
    fn set_and_clear_values() {
        let mut m = sample();
        m.set_values(vec![0.5; 6]);
        assert_eq!(m.values().unwrap()[3], 0.5);
        m.clear_values();
        assert!(!m.is_weighted());
        assert_eq!(m.values_or_ones(), vec![1.0; 6]);
    }

    #[test]
    #[should_panic(expected = "value vector must match nnz")]
    fn set_values_wrong_length_panics() {
        let mut m = sample();
        m.set_values(vec![1.0; 3]);
    }
}
