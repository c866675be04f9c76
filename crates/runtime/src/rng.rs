//! Counter-based random draws.
//!
//! Every sampled bit is `mix(key, counter)`: a [`Key`] names one family of
//! draws (a sampler seed, then an epoch, a mini-batch, a layer, one
//! randomized op of one group), and draw `counter` of it is a pure
//! function of the two. Nothing is stateful, so which thread draws, in
//! what order, how often a failed run is retried and how groups are packed
//! onto one execution cannot show in the bits. This is the discipline of
//! curand's (seed, subsequence, offset) and of Philox (Salmon et al.,
//! "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11), with SplitMix64
//! as the mix.

/// An immutable name for a family of draws: [`Key::child`] derives
/// independent sub-keys, [`Key::draw`] the bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key(u64);

impl Key {
    /// The root key of a user seed.
    pub fn new(seed: u64) -> Key {
        Key(splitmix64(seed))
    }

    /// Sub-key `i`: distinct siblings for distinct `i` (the mix is a
    /// bijection), and independent of this key's own draws.
    pub fn child(self, i: u64) -> Key {
        Key(splitmix64(self.draw(i)))
    }

    /// The 64 bits of draw `counter`.
    pub fn draw(self, counter: u64) -> u64 {
        splitmix64(self.0 ^ splitmix64(counter))
    }

    /// Draw `counter` as an integer in `0..n` (multiply-high: a bias of at
    /// most `n / 2^64`). `n` must be positive.
    pub fn below(self, counter: u64, n: usize) -> usize {
        ((self.draw(counter) as u128 * n as u128) >> 64) as usize
    }

    /// Draw `counter` as an `f64` in `[f64::MIN_POSITIVE, 1)`: 53 uniform
    /// bits, with zero moved up so a logarithm of it is finite.
    pub fn unit(self, counter: u64) -> f64 {
        let u = (self.draw(counter) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u.max(f64::MIN_POSITIVE)
    }
}

/// The counter of draw `lo` of item `hi` (a column and its draw index, a
/// step and its walker): `hi` in the high 32 bits, so `counter(0, j) == j`.
pub fn counter(hi: usize, lo: usize) -> u64 {
    ((hi as u64) << 32) ^ lo as u64
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation — the
/// workspace's one copy (every draw here, `p=` fault coins in the engine).
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn streams_are_deterministic() {
        assert_eq!(Key::new(42).child(3).draw(0), Key::new(42).child(3).draw(0));
    }

    #[test]
    fn streams_are_independent() {
        let key = Key::new(42);
        assert_ne!(key.child(0).draw(0), key.child(1).draw(0));
        assert_ne!(key.draw(0), key.draw(1));
    }

    #[test]
    fn subpools_differ_from_parent() {
        let key = Key::new(7);
        let sub = key.child(0);
        assert_ne!(key, sub);
        assert_ne!(key.draw(0), sub.draw(0));
        // A child is not the parent's draw of the same index either.
        assert_ne!(sub, Key(key.draw(0)));
    }

    #[test]
    fn different_seeds_different_streams() {
        assert_ne!(Key::new(1).draw(0), Key::new(2).draw(0));
    }

    #[test]
    fn a_draw_is_pure_in_any_call_order() {
        let key = Key::new(0xD2A7).child(5);
        let forward: Vec<u64> = (0..1000).map(|c| key.draw(c)).collect();
        let mut backward: Vec<u64> = (0..1000).rev().map(|c| key.draw(c)).collect();
        backward.reverse();
        assert_eq!(forward, backward);
        // Interleaving draws of another key changes nothing.
        let other = Key::new(1);
        for c in (0..1000).step_by(7) {
            other.draw(c);
            assert_eq!(key.draw(c), forward[c as usize]);
            assert_eq!(key.below(c, 10), key.below(c, 10));
            assert_eq!(key.unit(c).to_bits(), key.unit(c).to_bits());
        }
    }

    #[test]
    fn below_is_uniform_over_its_range() {
        // Seeded chi-squared over 10^5 counters in 10 bins: df 9, the
        // alpha = 1e-3 critical value is 27.88.
        let (key, n, draws) = (Key::new(0xC41), 10usize, 100_000u64);
        let mut bins = [0u64; 10];
        for c in 0..draws {
            bins[key.below(c, n)] += 1;
        }
        let expected = draws as f64 / n as f64;
        let chi2: f64 = bins
            .iter()
            .map(|&o| (o as f64 - expected).powi(2) / expected)
            .sum();
        assert!(chi2 < 27.88, "chi-squared {chi2:.2} over {bins:?}");
        let units = (0..draws).map(|c| key.unit(c));
        assert!(units.clone().all(|u| (f64::MIN_POSITIVE..1.0).contains(&u)));
        let mean = units.sum::<f64>() / draws as f64;
        assert!((mean - 0.5).abs() < 0.005, "unit mean {mean}");
    }

    #[test]
    fn sibling_children_are_distinct() {
        let key = Key::new(9);
        let children: HashSet<Key> = (0..10_000).map(|i| key.child(i)).collect();
        assert_eq!(children.len(), 10_000);
        assert!(!children.contains(&key));
    }

    #[test]
    fn counters_pack_item_and_draw() {
        assert_eq!(counter(0, 7), 7);
        assert_ne!(counter(1, 0), counter(0, 1));
        assert_eq!(counter(3, 2), (3 << 32) | 2);
    }
}
