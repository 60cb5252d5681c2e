//! The addressable max-queue an FM pass pops its next vertex from.
//!
//! One bucket per gain value in `[−span, +span]`, where `span` is the
//! largest weighted degree of the graph the pass runs on (an FM gain is
//! external minus internal incident weight, so it cannot leave that
//! range). A bucket is a bitset over the vertices, so its highest set bit
//! is the largest vertex id: [`GainQueue::pop_max`] returns the maximum
//! `(gain, vertex)` pair, the order of the tuples on the lazy binary heap
//! this queue replaced, and a vertex whose gain changes moves between two
//! buckets instead of leaving a stale entry behind.
//!
//! Each bucket remembers a word index above which it is empty, so a pop
//! scans down from there instead of from the top of the bitset.
//!
//! **Sized for:** `(2·span + 1) · ⌈nv/64⌉` words, at most
//! [`MAX_QUEUE_WORDS`]. On the cubed-sphere dual graph `span` is 36 (four
//! edges × 8 points + four corners × 1) and a few hundred on the coarsest
//! levels — a couple of thousand words. Edge weights only ever come from
//! `ExchangeWeights` and from `contract`'s `u32` sums, never from
//! outside input; a graph whose weights push the table past the bound is
//! refused with a panic that says so rather than by exhausting memory.

/// The most memory one queue's bitsets may take, in 64-bit words (128 MiB).
pub(crate) const MAX_QUEUE_WORDS: usize = 1 << 24;

/// What the queue keeps per bucket besides its bits.
#[derive(Clone, Copy, Debug, Default)]
struct Bucket {
    /// Vertices queued at this gain.
    count: u32,
    /// No word of the bucket above this index is non-zero; 0 when empty.
    high: u32,
}

/// A bucket-per-gain, bitset-per-bucket max-queue over `(gain, vertex)`.
///
/// Every pass drains the queue, so between uses all bits are zero and
/// [`GainQueue::reset`] only has to make the tables large enough.
#[derive(Clone, Debug, Default)]
pub(crate) struct GainQueue {
    /// Words per bucket: `⌈nv/64⌉`.
    words: usize,
    /// Bucket `b` holds gain `b − span`.
    span: i64,
    /// Bit `v` of bucket `b` is set iff `v` is queued at that gain.
    bits: Vec<u64>,
    buckets: Vec<Bucket>,
    /// No bucket above this one holds a vertex.
    top: usize,
}

impl GainQueue {
    /// Lay the (empty) queue out for `nv` vertices and gains in
    /// `[−span, +span]`.
    ///
    /// # Panics
    ///
    /// When the table would exceed [`MAX_QUEUE_WORDS`].
    pub(crate) fn reset(&mut self, nv: usize, span: i64) {
        debug_assert!(
            self.buckets.iter().all(|b| b.count == 0 && b.high == 0),
            "queue not drained"
        );
        debug_assert!(span >= 0);
        let words = nv.div_ceil(64);
        let buckets = usize::try_from(span)
            .ok()
            .and_then(|s| s.checked_mul(2))
            .and_then(|s| s.checked_add(1));
        let fits = buckets
            .and_then(|b| b.checked_mul(words))
            .is_some_and(|n| n <= MAX_QUEUE_WORDS);
        let Some(buckets) = buckets.filter(|_| fits) else {
            panic!(
                "FM gain queue: weighted degree {span} on {nv} vertices needs more than \
                 {MAX_QUEUE_WORDS} words; edge weights are out of the supported range"
            );
        };
        if self.bits.len() < buckets * words {
            self.bits.resize(buckets * words, 0);
        }
        if self.buckets.len() < buckets {
            self.buckets.resize(buckets, Bucket::default());
        }
        self.words = words;
        self.span = span;
        self.top = 0;
    }

    #[inline]
    fn bucket(&self, gain: i64) -> usize {
        debug_assert!(
            gain.abs() <= self.span,
            "gain {gain} outside ±{}",
            self.span
        );
        (gain + self.span) as usize
    }

    /// Queue `v` at `gain`; a no-op when it already is.
    #[inline]
    pub(crate) fn insert(&mut self, v: usize, gain: i64) {
        let b = self.bucket(gain);
        let wi = v / 64;
        let word = &mut self.bits[b * self.words + wi];
        let bit = 1u64 << (v % 64);
        if *word & bit == 0 {
            *word |= bit;
            let bucket = &mut self.buckets[b];
            bucket.count += 1;
            bucket.high = bucket.high.max(wi as u32);
            self.top = self.top.max(b);
        }
    }

    /// Take `v` out of the bucket of `gain`; a no-op when it is not there.
    #[inline]
    pub(crate) fn remove(&mut self, v: usize, gain: i64) {
        let b = self.bucket(gain);
        let word = &mut self.bits[b * self.words + v / 64];
        let bit = 1u64 << (v % 64);
        if *word & bit != 0 {
            *word &= !bit;
            let bucket = &mut self.buckets[b];
            bucket.count -= 1;
            if bucket.count == 0 {
                bucket.high = 0; // stays valid under the next layout
            }
        }
    }

    /// Remove and return the maximum `(gain, vertex)` pair.
    pub(crate) fn pop_max(&mut self) -> Option<(i64, usize)> {
        while self.buckets[self.top].count == 0 {
            if self.top == 0 {
                return None;
            }
            self.top -= 1;
        }
        let b = self.top;
        let row = &self.bits[b * self.words..(b + 1) * self.words];
        let mut wi = self.buckets[b].high as usize;
        while row[wi] == 0 {
            wi -= 1; // a counted bucket has a set bit at or below `high`
        }
        self.buckets[b].high = wi as u32;
        let v = wi * 64 + 63 - row[wi].leading_zeros() as usize;
        self.remove(v, b as i64 - self.span);
        Some((b as i64 - self.span, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use std::collections::BTreeSet;

    #[test]
    fn pops_in_descending_gain_then_vertex_order() {
        let mut q = GainQueue::default();
        q.reset(200, 5);
        for (v, g) in [(3, 0), (150, 0), (64, 0), (7, 5), (199, -5), (0, -5)] {
            q.insert(v, g);
        }
        let mut got = Vec::new();
        while let Some(e) = q.pop_max() {
            got.push(e);
        }
        assert_eq!(
            got,
            vec![(5, 7), (0, 150), (0, 64), (0, 3), (-5, 199), (-5, 0)]
        );
        assert_eq!(q.pop_max(), None);
    }

    #[test]
    fn insert_and_remove_are_idempotent() {
        let mut q = GainQueue::default();
        q.reset(10, 2);
        q.insert(4, 1);
        q.insert(4, 1);
        q.remove(4, 0); // not there
        assert_eq!(q.pop_max(), Some((1, 4)));
        q.remove(4, 1); // already gone
        assert_eq!(q.pop_max(), None);
    }

    #[test]
    fn matches_an_ordered_set_under_random_traffic() {
        // Differential: the queue against a BTreeSet of (gain, v) with one
        // entry per vertex, across re-layouts of one reused queue.
        let mut q = GainQueue::default();
        for seed in 0..40u64 {
            let mut rng = SplitMix64::new(seed);
            let bound = [300, 300, 10_000][rng.below(3)];
            let nv = 1 + rng.below(bound);
            let span = rng.below(40) as i64;
            q.reset(nv, span);
            let mut set: BTreeSet<(i64, usize)> = BTreeSet::new();
            let mut at: Vec<Option<i64>> = vec![None; nv];
            for _ in 0..2000 {
                let v = rng.below(nv);
                let g = rng.below(2 * span as usize + 1) as i64 - span;
                match rng.below(3) {
                    0 => {
                        // (re)queue v at g, as FM does after a gain update
                        if let Some(old) = at[v] {
                            q.remove(v, old);
                            set.remove(&(old, v));
                        }
                        q.insert(v, g);
                        set.insert((g, v));
                        at[v] = Some(g);
                    }
                    1 => {
                        let want = set.pop_last();
                        assert_eq!(q.pop_max(), want, "seed {seed}");
                        if let Some((_, v)) = want {
                            at[v] = None;
                        }
                    }
                    _ => {
                        if let Some(old) = at[v].take() {
                            q.remove(v, old);
                            set.remove(&(old, v));
                        }
                    }
                }
            }
            while let Some(want) = set.pop_last() {
                assert_eq!(q.pop_max(), Some(want));
            }
            assert_eq!(q.pop_max(), None);
        }
    }

    #[test]
    #[should_panic(expected = "out of the supported range")]
    fn refuses_a_table_beyond_the_bound() {
        GainQueue::default().reset(64, u32::MAX as i64 * 8);
    }
}
