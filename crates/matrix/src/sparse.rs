//! Format-polymorphic sparse matrix wrapper.

use std::borrow::Cow;

use crate::convert;
use crate::coo::Coo;
use crate::csc::Csc;
use crate::csr::Csr;
use crate::error::Result;
use crate::{Axis, Format, NodeId};

/// Where every stored edge sits along one axis, read straight off the
/// storage arrays in storage order — what the reductions, broadcasts and
/// degree counts walk instead of the boxed [`SparseMatrix::iter_edges`].
pub(crate) enum EdgeIndex<'a> {
    /// Edge `e` sits at `ids[e]`: the index array of CSC rows / CSR
    /// columns, either array of COO.
    PerEdge(&'a [NodeId]),
    /// Edges `indptr[i]..indptr[i + 1]` sit at `i`: the compressed axis.
    Segments(&'a [usize]),
}

/// The arrays of a CSC / CSR matrix: `(indptr, indices, values)`.
pub(crate) type Compressed = (Vec<usize>, Vec<NodeId>, Option<Vec<f32>>);

/// [`Compressed`], borrowed.
pub(crate) type CompressedRef<'a> = (&'a [usize], &'a [NodeId], Option<&'a [f32]>);

impl EdgeIndex<'_> {
    /// Call `f(slot, edge)` for every stored edge, in storage order.
    #[inline]
    pub(crate) fn for_each(&self, mut f: impl FnMut(usize, usize)) {
        match self {
            EdgeIndex::PerEdge(ids) => {
                for (e, &i) in ids.iter().enumerate() {
                    f(i as usize, e);
                }
            }
            EdgeIndex::Segments(indptr) => {
                for (i, w) in indptr.windows(2).enumerate() {
                    for e in w[0]..w[1] {
                        f(i, e);
                    }
                }
            }
        }
    }
}

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

    /// This matrix's structure with `values` as its edge values — what a
    /// pattern-preserving kernel returns: the index arrays are copied once,
    /// the old values never. Panics (a bug) if `values.len() != self.nnz()`.
    pub fn with_values(&self, values: Vec<f32>) -> SparseMatrix {
        assert_eq!(values.len(), self.nnz(), "value vector must match nnz");
        let values = Some(values);
        match self {
            SparseMatrix::Coo(m) => SparseMatrix::Coo(Coo {
                nrows: m.nrows,
                ncols: m.ncols,
                rows: m.rows.clone(),
                cols: m.cols.clone(),
                values,
            }),
            _ => {
                let (axis, (indptr, indices, _)) = self.compressed().expect("CSC or CSR");
                let parts = (indptr.to_vec(), indices.to_vec(), values);
                Self::from_compressed(axis, self.shape(), parts)
            }
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

    /// The axis a CSC (`Axis::Col`) / CSR (`Axis::Row`) matrix compresses
    /// and its `(indptr, indices, values)` arrays; `None` for COO. The two
    /// formats are one storage shape, so a kernel written against the
    /// arrays serves both with the axes swapped.
    pub(crate) fn compressed(&self) -> Option<(Axis, CompressedRef<'_>)> {
        match self {
            SparseMatrix::Csc(m) => Some((Axis::Col, (&m.indptr, &m.indices, m.values.as_deref()))),
            SparseMatrix::Csr(m) => Some((Axis::Row, (&m.indptr, &m.indices, m.values.as_deref()))),
            SparseMatrix::Coo(_) => None,
        }
    }

    /// The CSC (`axis == Axis::Col`) / CSR (`Axis::Row`) matrix over `parts`.
    pub(crate) fn from_compressed(
        axis: Axis,
        (nrows, ncols): (usize, usize),
        (indptr, indices, values): Compressed,
    ) -> SparseMatrix {
        match axis {
            Axis::Col => SparseMatrix::Csc(Csc {
                nrows,
                ncols,
                indptr,
                indices,
                values,
            }),
            Axis::Row => SparseMatrix::Csr(Csr {
                nrows,
                ncols,
                indptr,
                indices,
                values,
            }),
        }
    }

    /// The per-(format, axis) edge index: which row (`Axis::Row`) or column
    /// (`Axis::Col`) each stored edge belongs to.
    pub(crate) fn edge_index(&self, axis: Axis) -> EdgeIndex<'_> {
        match (self, axis) {
            (SparseMatrix::Csc(m), Axis::Row) => EdgeIndex::PerEdge(&m.indices),
            (SparseMatrix::Csc(m), Axis::Col) => EdgeIndex::Segments(&m.indptr),
            (SparseMatrix::Csr(m), Axis::Row) => EdgeIndex::Segments(&m.indptr),
            (SparseMatrix::Csr(m), Axis::Col) => EdgeIndex::PerEdge(&m.indices),
            (SparseMatrix::Coo(m), Axis::Row) => EdgeIndex::PerEdge(&m.rows),
            (SparseMatrix::Coo(m), Axis::Col) => EdgeIndex::PerEdge(&m.cols),
        }
    }

    /// Iterate over all stored edges as `(row, col, value)` triples — for
    /// tests and cold paths; kernels walk [`SparseMatrix::edge_index`].
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
        self.degrees(Axis::Col, self.ncols())
    }

    /// Out-degree of every row node (length `nrows`).
    pub fn row_degrees(&self) -> Vec<usize> {
        self.degrees(Axis::Row, self.nrows())
    }

    fn degrees(&self, axis: Axis, n: usize) -> Vec<usize> {
        match self.edge_index(axis) {
            EdgeIndex::Segments(indptr) => indptr.windows(2).map(|w| w[1] - w[0]).collect(),
            EdgeIndex::PerEdge(ids) => {
                let mut deg = vec![0usize; n];
                for &i in ids {
                    deg[i as usize] += 1;
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
        let m = sample().with_values(vec![0.5; 6]);
        assert_eq!(m.values().unwrap()[3], 0.5);
        let SparseMatrix::Csc(csc) = m else {
            unreachable!("with_values keeps the format")
        };
        let m = SparseMatrix::Csc(Csc {
            values: None,
            ..csc
        });
        assert!(!m.is_weighted());
        assert_eq!(m.values_or_ones(), vec![1.0; 6]);
    }

    #[test]
    #[should_panic(expected = "value vector must match nnz")]
    fn set_values_wrong_length_panics() {
        let _ = sample().with_values(vec![1.0; 3]);
    }
}
