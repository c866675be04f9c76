//! Row compaction — dropping isolated rows — and row / column occupancy.
//!
//! The extract step keeps the full row dimension of the input graph, so a
//! sliced sub-matrix can carry millions of isolated rows (paper §4.3). The
//! data-layout-selection pass decides whether to pay the relabelling cost;
//! [`compact_rows`] does the actual work and reports the kept-node mapping
//! so that global IDs survive.
//!
//! Compaction never drops an edge — the kept ids are exactly the occupied
//! ones — so it is a rename done in the input's own format, one pass over
//! the edges and no round trip through another layout:
//!
//! - where rows are the *index* axis (CSC, COO) the row ids are mapped
//!   through a pooled `old -> new` table while `indptr` and the values
//!   carry over;
//! - where they are the *compressed* axis (CSR) the empty `indptr`
//!   entries go and `indices` / values carry over.
//!
//! CSC and CSR results then get the canonical within-segment order every
//! conversion produces (`convert::sort_segments`). The rename is
//! monotone, so a sorted segment stays sorted and that is one
//! strictly-ascending check per segment; COO keeps its storage order.

use gsampler_runtime::{parallel_map, take_scratch_filled};

use crate::convert::sort_segments;
use crate::coo::Coo;
use crate::par_gate;
use crate::sparse::{EdgeIndex, SparseMatrix};
use crate::{Axis, NodeId, PAR_GRAIN};

/// An occupancy bitset over `n` ids, packed 64 per word so the survivor
/// scan touches `n/64` words (and skips all-isolated ranges in one
/// compare) instead of loading `n` bools.
struct HitSet {
    words: Vec<u64>,
}

impl HitSet {
    /// The set ids in ascending order.
    fn ones(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some((w as NodeId) * 64 + b as NodeId)
                }
            })
        })
    }

    /// Occupancy straight from a compressed axis: id `i` is set iff
    /// `indptr[i + 1] > indptr[i]`. Word-parallel over the pool.
    fn from_indptr(n: usize, indptr: &[usize]) -> HitSet {
        let words = parallel_map(n.div_ceil(64), PAR_GRAIN / 64, |w| {
            let mut bits = 0u64;
            let lo = w * 64;
            for b in 0..64.min(n - lo) {
                bits |= u64::from(indptr[lo + b + 1] > indptr[lo + b]) << b;
            }
            bits
        });
        HitSet { words }
    }
}

/// Mark which of `n` ids occur in `ids`: one plain pass (relaxed atomic
/// `fetch_or`s from the pool measured 2-7x slower at one and two threads —
/// the hit words of a compacted matrix share a handful of cache lines).
fn mark_hits(n: usize, ids: &[NodeId]) -> HitSet {
    let mut words = vec![0u64; n.div_ceil(64)];
    for &id in ids {
        words[id as usize / 64] |= 1u64 << (id % 64);
    }
    HitSet { words }
}

/// Result of a compaction: the smaller matrix plus the mapping from new
/// (local) indices to the old indices they came from.
#[derive(Debug, Clone)]
pub struct Compacted {
    /// The compacted matrix.
    pub matrix: SparseMatrix,
    /// `kept[i]` is the old index of new row `i` (ascending).
    pub kept: Vec<NodeId>,
}

/// Ascending indices along `axis` that store at least one edge. Format-
/// aware: the compressed axis answers from its indptr, the others mark
/// hits in one pass over the index array.
fn occupied(m: &SparseMatrix, axis: Axis) -> Vec<NodeId> {
    let n = match axis {
        Axis::Row => m.nrows(),
        Axis::Col => m.ncols(),
    };
    let hits = match m.edge_index(axis) {
        EdgeIndex::Segments(indptr) => HitSet::from_indptr(n, indptr),
        EdgeIndex::PerEdge(ids) => mark_hits(n, ids),
    };
    hits.ones().collect()
}

/// Ascending indices of the rows that store at least one edge.
pub fn occupied_rows(m: &SparseMatrix) -> Vec<NodeId> {
    occupied(m, Axis::Row)
}

/// Ascending indices of the columns that store at least one edge.
pub fn occupied_cols(m: &SparseMatrix) -> Vec<NodeId> {
    occupied(m, Axis::Col)
}

/// Drop rows with no stored edges, relabelling the survivors `0..n`.
pub fn compact_rows(m: &SparseMatrix) -> Compacted {
    let kept = occupied_rows(m);
    let (shape, n) = ((kept.len(), m.ncols()), m.nrows());
    let matrix = match (m, m.compressed()) {
        (SparseMatrix::Coo(c), _) => SparseMatrix::Coo(Coo {
            nrows: shape.0,
            ncols: shape.1,
            rows: rename(&c.rows, n, &kept),
            cols: c.cols.clone(),
            values: c.values.clone(),
        }),
        (_, Some((major, (indptr, indices, values)))) => {
            let (indptr, mut indices) = if major == Axis::Row {
                // CSR: the empty row segments go.
                let starts = kept.iter().map(|&k| indptr[k as usize]);
                let indptr = starts.chain(indptr.last().copied()).collect();
                (indptr, indices.to_vec())
            } else {
                (indptr.to_vec(), rename(indices, n, &kept))
            };
            let mut values = values.map(<[f32]>::to_vec);
            sort_segments(&indptr, &mut indices, values.as_deref_mut());
            SparseMatrix::from_compressed(major, shape, (indptr, indices, values))
        }
        (_, None) => unreachable!("only COO has no compressed axis"),
    };
    Compacted { matrix, kept }
}

/// Map every id through `old -> new`, where old id `kept[i]` becomes `i`
/// and every id of `ids` is in `kept`.
fn rename(ids: &[NodeId], n: usize, kept: &[NodeId]) -> Vec<NodeId> {
    // Graph-sized scratch reused batch to batch through the arena: on a
    // training loop this map alone was one fresh `n`-sized allocation per
    // compaction.
    let mut old_to_new = take_scratch_filled::<u32>(n, u32::MAX);
    for (new, &old) in kept.iter().enumerate() {
        old_to_new[old as usize] = new as u32;
    }
    parallel_map(ids.len(), par_gate(ids.len()), |e| {
        old_to_new[ids[e] as usize]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csc::Csc;
    use crate::Format;

    fn sparse_with_isolated_rows() -> SparseMatrix {
        // 6x2: only rows 1, 3, 4 have edges.
        SparseMatrix::Csc(
            Csc::new(
                6,
                2,
                vec![0, 2, 3],
                vec![1, 4, 3],
                Some(vec![1.0, 2.0, 3.0]),
            )
            .unwrap(),
        )
    }

    #[test]
    fn compact_rows_drops_isolated() {
        let m = sparse_with_isolated_rows();
        let c = compact_rows(&m);
        assert_eq!(c.kept, vec![1, 3, 4]);
        assert_eq!(c.matrix.shape(), (3, 2));
        assert_eq!(c.matrix.nnz(), 3);
        // Old row 4 (edge value 2.0 in col 0) is new row 2.
        assert!(c.matrix.sorted_edges().contains(&(2, 0, 2.0)));
    }

    #[test]
    fn compact_rows_format_preserved() {
        let m = sparse_with_isolated_rows();
        for fmt in Format::ALL {
            let c = compact_rows(&m.to_format(fmt));
            assert_eq!(c.matrix.format(), fmt);
            assert_eq!(c.kept, vec![1, 3, 4]);
        }
    }

    #[test]
    fn compact_no_isolated_is_identity_structure() {
        let m = SparseMatrix::Csc(Csc::new(2, 2, vec![0, 1, 2], vec![0, 1], None).unwrap());
        let c = compact_rows(&m);
        assert_eq!(c.kept, vec![0, 1]);
        assert_eq!(c.matrix.sorted_edges(), m.sorted_edges());
    }

    #[test]
    fn hitset_word_boundaries() {
        // Ids straddling u64 word boundaries, plus a trailing partial word.
        let ids: Vec<NodeId> = vec![0, 63, 64, 127, 128, 129, 129];
        let hits = mark_hits(130, &ids);
        assert_eq!(
            hits.ones().collect::<Vec<_>>(),
            vec![0, 63, 64, 127, 128, 129]
        );
        let empty = mark_hits(0, &[]);
        assert_eq!(empty.ones().count(), 0);
    }

    #[test]
    fn hitset_from_indptr_matches_mark_hits() {
        // 70 rows, edges only in rows 1, 63, 64, 69.
        let mut indptr = vec![0usize; 71];
        let mut nnz = 0;
        for r in 0..70 {
            if [1, 63, 64, 69].contains(&r) {
                nnz += 1;
            }
            indptr[r + 1] = nnz;
        }
        let hits = HitSet::from_indptr(70, &indptr);
        assert_eq!(hits.ones().collect::<Vec<_>>(), vec![1, 63, 64, 69]);
    }

    #[test]
    fn compact_all_isolated() {
        let m = SparseMatrix::Csc(Csc::empty(4, 3));
        let c = compact_rows(&m);
        assert!(c.kept.is_empty());
        assert_eq!(c.matrix.shape(), (0, 3));
    }
}
