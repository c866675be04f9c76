//! Deterministic RNG streams.
//!
//! Every sampling run takes one user seed; kernels, mini-batches and
//! parallel chunks each derive an independent stream from it via SplitMix64
//! mixing, so results are reproducible regardless of thread scheduling and
//! super-batch grouping.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic factory of independent [`StdRng`] streams.
#[derive(Debug, Clone)]
pub struct RngPool {
    seed: u64,
}

impl RngPool {
    /// Create a pool from a user seed.
    pub fn new(seed: u64) -> RngPool {
        RngPool { seed }
    }

    /// The root seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive the RNG for stream `index` (e.g. one per mini-batch).
    pub fn stream(&self, index: u64) -> StdRng {
        StdRng::seed_from_u64(splitmix64(self.seed ^ splitmix64(index)))
    }

    /// Derive a sub-pool (e.g. one per epoch) whose streams are all
    /// independent of this pool's.
    pub fn subpool(&self, index: u64) -> RngPool {
        RngPool {
            seed: splitmix64(
                self.seed
                    .wrapping_add(splitmix64(index ^ 0x9E37_79B9_7F4A_7C15)),
            ),
        }
    }
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation — the
/// workspace's one copy (stream derivation here, `p=` fault coins in the
/// engine).
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn streams_are_deterministic() {
        let pool = RngPool::new(42);
        let a: u64 = pool.stream(3).gen();
        let b: u64 = RngPool::new(42).stream(3).gen();
        assert_eq!(a, b);
    }

    #[test]
    fn streams_are_independent() {
        let pool = RngPool::new(42);
        let a: u64 = pool.stream(0).gen();
        let b: u64 = pool.stream(1).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn subpools_differ_from_parent() {
        let pool = RngPool::new(7);
        let sub = pool.subpool(0);
        assert_ne!(pool.seed(), sub.seed());
        let a: u64 = pool.stream(0).gen();
        let b: u64 = sub.stream(0).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn different_seeds_different_streams() {
        let a: u64 = RngPool::new(1).stream(0).gen();
        let b: u64 = RngPool::new(2).stream(0).gen();
        assert_ne!(a, b);
    }
}
