//! A tiny deterministic RNG (SplitMix64).
//!
//! The partitioner's randomized pieces (matching order, region-growing
//! seeds) need reproducibility across runs and platforms; a self-contained
//! SplitMix64 keeps the whole partitioning pipeline bit-stable for a given
//! seed without an external dependency.

/// SplitMix64 generator.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create with a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)` (`bound > 0`).
    #[inline]
    pub fn below(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0);
        (self.next_u64() % bound as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }

    /// A shuffled `0..n` permutation.
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut p = Vec::with_capacity(n);
        self.permutation_into(n, &mut p);
        p
    }

    /// [`SplitMix64::permutation`] into the caller's buffer: the same
    /// draws and the same order, without a new allocation per call.
    pub(crate) fn permutation_into(&mut self, n: usize, p: &mut Vec<u32>) {
        p.clear();
        p.extend(0..n as u32);
        self.shuffle(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
        }
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut r = SplitMix64::new(3);
        let p = r.permutation(50);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50u32).collect::<Vec<_>>());
    }

    #[test]
    fn permutation_into_reuses_the_buffer_for_the_same_draws() {
        let (mut a, mut b) = (SplitMix64::new(5), SplitMix64::new(5));
        let mut buf = Vec::new();
        for n in [50, 7, 0, 50] {
            b.permutation_into(n, &mut buf);
            assert_eq!(buf, a.permutation(n));
        }
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn values_are_roughly_uniform() {
        let mut r = SplitMix64::new(99);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[r.below(4)] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "{counts:?}");
        }
    }
}
