//! The RNG discipline: one stream per frontier group.
//!
//! Every execution carries exactly one `StdRng` per frontier group, and
//! group `b` draws only from `rngs[b]`: every randomized kernel takes one
//! `u64` *per group* and fans per-column streams out of it, keyed by the
//! **in-group** column index. A group therefore observes exactly the RNG
//! sequence it would see running alone, which makes how groups are packed
//! onto one execution — super-batching an epoch, coalescing tenants'
//! requests, halving a window under memory pressure — invisible in the
//! samples. Callers own the mapping from a mini-batch to its stream (an
//! epoch uses `pool.subpool(epoch).stream(batch)`), so a mini-batch's
//! randomness is a function of (sampler seed, epoch, batch index) only.

use rand::rngs::StdRng;
use rand::Rng;

use gsampler_engine::RngPool;
use gsampler_matrix::sample::StreamSource;

use crate::error::{Error, Result};
use crate::kernels::group_of_col;

/// One RNG subpool per super-batch segment, for segmented collective
/// sampling: segment `b` gets the subpool its group would build running
/// alone (`RngPool::new(draw_b).subpool(0)`).
pub fn segment_subpools(rngs: &mut [StdRng], segments: usize) -> Result<Vec<RngPool>> {
    if rngs.len() != segments {
        return Err(Error::Execution(format!(
            "{} RNG streams but the execution has {segments} segments",
            rngs.len()
        )));
    }
    Ok(rngs
        .iter_mut()
        .map(|r| RngPool::new(r.gen::<u64>()).subpool(0))
        .collect())
}

/// Per-column RNG streams for one randomized kernel invocation: one pool
/// per group, keyed by the in-group column index, so column `c` of group
/// `b` draws exactly what it would draw if group `b` ran alone.
pub struct ColStreams {
    pools: Vec<RngPool>,
    offsets: Vec<usize>,
}

impl ColStreams {
    /// Draw the per-invocation pool seeds — exactly one `u64` per group
    /// stream, preserving downstream RNG alignment. `col_offsets` are the
    /// group prefix sums (`ExecCtx`'s) and `ncols` the column count of the
    /// matrix being sampled. With several groups the two must agree (the
    /// fact table's super-batch rule admits a per-column draw only over
    /// frontier columns); a single group owns every column whatever the
    /// matrix is.
    pub fn draw(rngs: &mut [StdRng], col_offsets: &[usize], ncols: usize) -> Result<ColStreams> {
        let offsets = if rngs.len() == 1 {
            vec![0, ncols]
        } else if col_offsets.len() == rngs.len() + 1 && col_offsets.last() == Some(&ncols) {
            col_offsets.to_vec()
        } else {
            return Err(Error::Execution(format!(
                "cannot isolate per-group column streams: {} groups, col_offsets {:?}, \
                 matrix has {ncols} columns",
                rngs.len(),
                col_offsets
            )));
        };
        Ok(ColStreams {
            pools: rngs
                .iter_mut()
                .map(|r| RngPool::new(r.gen::<u64>()))
                .collect(),
            offsets,
        })
    }
}

impl StreamSource for ColStreams {
    fn stream(&self, index: u64) -> StdRng {
        let c = index as usize;
        let b = group_of_col(&self.offsets, c);
        self.pools[b].stream((c - self.offsets[b]) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn one_group_col_streams_match_plain_pool() {
        let mut a = [StdRng::seed_from_u64(5)];
        let mut b = StdRng::seed_from_u64(5);
        // Offsets that disagree with the matrix are fine for one group.
        let streams = ColStreams::draw(&mut a, &[0], 5).unwrap();
        let pool = RngPool::new(b.gen::<u64>());
        for c in 0..5u64 {
            assert_eq!(
                streams.stream(c).gen::<u64>(),
                pool.stream(c).gen::<u64>(),
                "column {c} diverged from the plain-pool keying"
            );
        }
        // Both consumed exactly one draw.
        assert_eq!(a[0].gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn packed_col_streams_match_each_group_alone() {
        // Packed: two groups of sizes 2 and 3.
        let mut g0 = [StdRng::seed_from_u64(10)];
        let mut g1 = [StdRng::seed_from_u64(11)];
        let mut packed = vec![g0[0].clone(), g1[0].clone()];
        let streams = ColStreams::draw(&mut packed, &[0, 2, 5], 5).unwrap();

        let solo0 = ColStreams::draw(&mut g0, &[0, 2], 2).unwrap();
        let solo1 = ColStreams::draw(&mut g1, &[0, 3], 3).unwrap();
        for c in 0..2u64 {
            assert_eq!(streams.stream(c).gen::<u64>(), solo0.stream(c).gen::<u64>());
        }
        for c in 0..3u64 {
            assert_eq!(
                streams.stream(2 + c).gen::<u64>(),
                solo1.stream(c).gen::<u64>()
            );
        }
        // Group streams advanced exactly like the solo ones.
        assert_eq!(packed[0].gen::<u64>(), g0[0].gen::<u64>());
        assert_eq!(packed[1].gen::<u64>(), g1[0].gen::<u64>());
    }

    #[test]
    fn packed_segment_subpools_match_each_group_alone() {
        let mut solo = [StdRng::seed_from_u64(11)];
        let mut packed = vec![StdRng::seed_from_u64(10), solo[0].clone()];
        let pools = segment_subpools(&mut packed, 2).unwrap();
        let alone = segment_subpools(&mut solo, 1).unwrap();
        assert_eq!(
            pools[1].stream(3).gen::<u64>(),
            alone[0].stream(3).gen::<u64>()
        );
        assert!(segment_subpools(&mut packed, 3).is_err());
    }

    #[test]
    fn rejects_mismatched_offsets() {
        let mut rngs = vec![StdRng::seed_from_u64(1), StdRng::seed_from_u64(2)];
        assert!(ColStreams::draw(&mut rngs, &[0, 2, 5], 4).is_err());
        assert!(ColStreams::draw(&mut rngs, &[0, 5], 5).is_err());
    }
}
