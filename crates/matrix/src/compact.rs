//! Row/column compaction — dropping isolated nodes.
//!
//! The extract step keeps the full row dimension of the input graph, so a
//! sliced sub-matrix can carry millions of isolated rows (paper §4.3). The
//! data-layout-selection pass decides whether to pay the relabelling cost;
//! these kernels do the actual work and report the kept-node mapping so
//! that global IDs survive.

use gsampler_runtime::{parallel_map, parallel_scatter, parallel_scatter2, take_scratch_filled};

use crate::coo::Coo;
use crate::par_gate;
use crate::sparse::SparseMatrix;
use crate::{NodeId, PAR_GRAIN};

/// Fixed decomposition unit for the relabel two-pass filter. A compile-time
/// constant (never derived from the thread count) so the output layout is
/// identical no matter how many workers execute the passes.
const RELABEL_CHUNK: usize = 4096;

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
    /// `kept[i]` is the old index of new row/column `i` (ascending).
    pub kept: Vec<NodeId>,
}

/// Ascending indices of the rows that store at least one edge.
///
/// Occupancy detection is format-aware: CSR answers from its indptr with a
/// per-row scan, the other formats mark row hits edge-parallel.
pub fn occupied_rows(m: &SparseMatrix) -> Vec<NodeId> {
    let nrows = m.nrows();
    let hits = match m {
        SparseMatrix::Csr(csr) => HitSet::from_indptr(nrows, &csr.indptr),
        SparseMatrix::Csc(csc) => mark_hits(nrows, &csc.indices),
        SparseMatrix::Coo(coo) => mark_hits(nrows, &coo.rows),
    };
    hits.ones().collect()
}

/// Drop rows with no stored edges, relabelling the survivors `0..n`.
pub fn compact_rows(m: &SparseMatrix) -> Compacted {
    let kept = occupied_rows(m);
    let matrix = relabel_rows(m, &kept);
    Compacted { matrix, kept }
}

/// Drop columns with no stored edges, relabelling the survivors `0..n`.
///
/// Mirror of [`compact_rows`]: CSC answers from its indptr, the other
/// formats mark column hits edge-parallel.
pub fn compact_cols(m: &SparseMatrix) -> Compacted {
    let ncols = m.ncols();
    let hits = match m {
        SparseMatrix::Csc(csc) => HitSet::from_indptr(ncols, &csc.indptr),
        SparseMatrix::Csr(csr) => mark_hits(ncols, &csr.indices),
        SparseMatrix::Coo(coo) => mark_hits(ncols, &coo.cols),
    };
    let kept: Vec<NodeId> = hits.ones().collect();
    let matrix = relabel_cols(m, &kept);
    Compacted { matrix, kept }
}

/// Count filter survivors per [`RELABEL_CHUNK`]-sized chunk of the edge
/// list and prefix-sum the counts into per-chunk output offsets.
fn survivor_offsets<P: Fn(usize) -> bool + Sync>(nnz: usize, keep: P) -> Vec<usize> {
    let nchunks = nnz.div_ceil(RELABEL_CHUNK);
    let counts: Vec<usize> = parallel_map(nchunks, 1, |ch| {
        let start = ch * RELABEL_CHUNK;
        let end = (start + RELABEL_CHUNK).min(nnz);
        (start..end).filter(|&i| keep(i)).count()
    });
    let mut offsets = vec![0usize; nchunks + 1];
    for (i, c) in counts.into_iter().enumerate() {
        offsets[i + 1] = offsets[i] + c;
    }
    offsets
}

/// Gather `values[i]` for surviving edges into the chunked output layout.
fn gather_values<P: Fn(usize) -> bool + Sync>(src: &[f32], offsets: &[usize], keep: P) -> Vec<f32> {
    let nnz = src.len();
    let mut vals = vec![0f32; *offsets.last().unwrap()];
    parallel_scatter(&mut vals, offsets, par_gate(nnz), |ch, seg_v| {
        let start = ch * RELABEL_CHUNK;
        let end = (start + RELABEL_CHUNK).min(nnz);
        let mut k = 0;
        for (i, &v) in src.iter().enumerate().take(end).skip(start) {
            if keep(i) {
                seg_v[k] = v;
                k += 1;
            }
        }
    });
    vals
}

/// Relabel rows so that old row `kept[i]` becomes new row `i`; rows not in
/// `kept` are dropped with their edges. `kept` must be ascending.
///
/// Runs as a two-pass chunked filter over the COO edge view: a parallel
/// count pass sizes each fixed chunk's output range, then parallel fill
/// passes write survivors. The output edge order equals the sequential
/// filter order regardless of thread count.
pub fn relabel_rows(m: &SparseMatrix, kept: &[NodeId]) -> SparseMatrix {
    // Graph-sized scratch reused batch to batch through the arena: on a
    // training loop this map alone was one fresh `nrows`-sized allocation
    // per compaction.
    let mut old_to_new = take_scratch_filled::<u32>(m.nrows(), u32::MAX);
    for (new, &old) in kept.iter().enumerate() {
        old_to_new[old as usize] = new as u32;
    }
    let coo = m.to_coo();
    let nnz = coo.nnz();
    let keep = |i: usize| old_to_new[coo.rows[i] as usize] != u32::MAX;
    let offsets = survivor_offsets(nnz, keep);
    let total = *offsets.last().unwrap();
    let mut rows = vec![0 as NodeId; total];
    let mut cols = vec![0 as NodeId; total];
    parallel_scatter2(
        &mut rows,
        &mut cols,
        &offsets,
        par_gate(nnz),
        |ch, seg_r, seg_c| {
            let start = ch * RELABEL_CHUNK;
            let end = (start + RELABEL_CHUNK).min(nnz);
            let mut k = 0;
            for i in start..end {
                let nr = old_to_new[coo.rows[i] as usize];
                if nr == u32::MAX {
                    continue;
                }
                seg_r[k] = nr;
                seg_c[k] = coo.cols[i];
                k += 1;
            }
        },
    );
    let values = coo
        .values
        .as_ref()
        .map(|src| gather_values(src, &offsets, keep));
    let out = Coo {
        nrows: kept.len(),
        ncols: m.ncols(),
        rows,
        cols,
        values,
    };
    SparseMatrix::Coo(out).into_format(m.format())
}

/// Relabel columns so that old column `kept[i]` becomes new column `i`;
/// columns not in `kept` are dropped with their edges. `kept` must be
/// ascending. Mirror of [`relabel_rows`].
pub fn relabel_cols(m: &SparseMatrix, kept: &[NodeId]) -> SparseMatrix {
    let mut old_to_new = take_scratch_filled::<u32>(m.ncols(), u32::MAX);
    for (new, &old) in kept.iter().enumerate() {
        old_to_new[old as usize] = new as u32;
    }
    let coo = m.to_coo();
    let nnz = coo.nnz();
    let keep = |i: usize| old_to_new[coo.cols[i] as usize] != u32::MAX;
    let offsets = survivor_offsets(nnz, keep);
    let total = *offsets.last().unwrap();
    let mut rows = vec![0 as NodeId; total];
    let mut cols = vec![0 as NodeId; total];
    parallel_scatter2(
        &mut rows,
        &mut cols,
        &offsets,
        par_gate(nnz),
        |ch, seg_r, seg_c| {
            let start = ch * RELABEL_CHUNK;
            let end = (start + RELABEL_CHUNK).min(nnz);
            let mut k = 0;
            for i in start..end {
                let nc = old_to_new[coo.cols[i] as usize];
                if nc == u32::MAX {
                    continue;
                }
                seg_r[k] = coo.rows[i];
                seg_c[k] = nc;
                k += 1;
            }
        },
    );
    let values = coo
        .values
        .as_ref()
        .map(|src| gather_values(src, &offsets, keep));
    let out = Coo {
        nrows: m.nrows(),
        ncols: kept.len(),
        rows,
        cols,
        values,
    };
    SparseMatrix::Coo(out).into_format(m.format())
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
    fn compact_cols_drops_isolated() {
        // 2x4 with edges only in columns 0 and 3.
        let m = SparseMatrix::Csc(Csc::new(2, 4, vec![0, 1, 1, 1, 2], vec![0, 1], None).unwrap());
        let c = compact_cols(&m);
        assert_eq!(c.kept, vec![0, 3]);
        assert_eq!(c.matrix.shape(), (2, 2));
        assert_eq!(c.matrix.sorted_edges(), vec![(0, 0, 1.0), (1, 1, 1.0)]);
    }

    #[test]
    fn compact_no_isolated_is_identity_structure() {
        let m = SparseMatrix::Csc(Csc::new(2, 2, vec![0, 1, 2], vec![0, 1], None).unwrap());
        let c = compact_rows(&m);
        assert_eq!(c.kept, vec![0, 1]);
        assert_eq!(c.matrix.sorted_edges(), m.sorted_edges());
    }

    #[test]
    fn relabel_rows_drops_unlisted() {
        let m = sparse_with_isolated_rows();
        let out = relabel_rows(&m, &[3, 4]);
        assert_eq!(out.shape(), (2, 2));
        assert_eq!(out.nnz(), 2);
        // Old row 1's edge disappears.
        assert!(!out.sorted_edges().iter().any(|&(_, _, v)| v == 1.0));
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
