//! Multi-word `u64` bitsets for active-set scheduling.
//!
//! The cycle kernels keep "which routers / VCs / sources might have work"
//! as dense bitsets and iterate only the set bits, so per-tick cost tracks
//! the in-flight population instead of the structure size. Arbitration in
//! the wormhole pipeline is round-robin, so besides the usual ascending
//! scan the set supports a *rotated* scan that starts at an arbitrary
//! index and wraps — visiting exactly the indices a modular
//! `for off in 0..n { i = (start + off) % n }` sweep would have accepted,
//! in the same order, but in O(set bits) instead of O(n).

/// A fixed-capacity bitset over indices `0..capacity`, backed by `u64`
/// words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// An empty set over the domain `0..capacity`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Domain size (largest index + 1 this set can hold).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `i`.
    ///
    /// # Panics
    /// Panics (in debug builds via the index check) when `i` is outside the
    /// domain.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.capacity, "bit {i} out of domain {}", self.capacity);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Removes `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.capacity, "bit {i} out of domain {}", self.capacity);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// True when `i` is in the set.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.capacity, "bit {i} out of domain {}", self.capacity);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits.
    #[must_use]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no bit is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every bit.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// The backing words (low index = low bits), for popcount-style
    /// instrumentation.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Visits every set bit in ascending order.
    pub fn for_each(&self, mut f: impl FnMut(usize)) {
        for (wi, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                f(wi * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// Visits set bits in rotated order — `start..capacity` then
    /// `0..start` — stopping early when `f` returns `true`. This is the
    /// round-robin arbitration scan: identical visit order to the modular
    /// index sweep, restricted to set bits.
    pub fn for_each_wrapping(&self, start: usize, mut f: impl FnMut(usize) -> bool) {
        if self.words.is_empty() {
            return;
        }
        debug_assert!(start < self.capacity);
        let sw = start / 64;
        let sb = start % 64;
        // Upper segment: bits at indices >= start.
        let mut word = self.words[sw] & (u64::MAX << sb);
        let mut wi = sw;
        loop {
            while word != 0 {
                if f(wi * 64 + word.trailing_zeros() as usize) {
                    return;
                }
                word &= word - 1;
            }
            wi += 1;
            if wi >= self.words.len() {
                break;
            }
            word = self.words[wi];
        }
        // Lower segment: bits at indices < start.
        for wi in 0..=sw {
            let mut word = self.words[wi];
            if wi == sw {
                if sb == 0 {
                    break;
                }
                word &= !(u64::MAX << sb);
            }
            while word != 0 {
                if f(wi * 64 + word.trailing_zeros() as usize) {
                    return;
                }
                word &= word - 1;
            }
        }
    }
}

/// First index, in rotated order `start..` then `0..start`, whose bit is
/// set in `a` and clear in `excl` — one round-robin arbitration over the
/// request lines `a` with the lines in `excl` masked off, in O(words).
/// Both slices are the backing words of same-sized sets (low index = low
/// bits); bits past the domain must be clear in `a`.
///
/// # Panics
/// Panics when the slices differ in length or `start` is past their end.
#[must_use]
pub fn first_set_excluding(a: &[u64], excl: &[u64], start: usize) -> Option<usize> {
    assert_eq!(a.len(), excl.len(), "masks must cover the same domain");
    let (sw, sb) = (start / 64, start % 64);
    let upper = u64::MAX << sb;
    // Word `sw` is visited twice: its bits >= start first, the rest last.
    let hit = |k: usize, keep: u64| {
        let word = a[k] & !excl[k] & keep;
        (word != 0).then(|| k * 64 + word.trailing_zeros() as usize)
    };
    hit(sw, upper)
        .or_else(|| (sw + 1..a.len()).find_map(|k| hit(k, u64::MAX)))
        .or_else(|| (0..sw).find_map(|k| hit(k, u64::MAX)))
        .or_else(|| hit(sw, !upper))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_wrapping(b: &BitSet, start: usize) -> Vec<usize> {
        let mut out = Vec::new();
        b.for_each_wrapping(start, |i| {
            out.push(i);
            false
        });
        out
    }

    /// Reference: the modular sweep the bitset scan replaces.
    fn naive_wrapping(b: &BitSet, start: usize) -> Vec<usize> {
        (0..b.capacity())
            .map(|off| (start + off) % b.capacity())
            .filter(|&i| b.get(i))
            .collect()
    }

    #[test]
    fn set_clear_get_count() {
        let mut b = BitSet::new(130);
        assert!(b.is_empty());
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        assert_eq!(b.count(), 4);
        assert!(b.get(63) && b.get(64));
        b.clear(63);
        assert!(!b.get(63));
        assert_eq!(b.count(), 3);
        b.clear_all();
        assert!(b.is_empty());
    }

    #[test]
    fn ascending_iteration_order() {
        let mut b = BitSet::new(200);
        for i in [5, 64, 65, 127, 128, 199] {
            b.set(i);
        }
        let mut seen = Vec::new();
        b.for_each(|i| seen.push(i));
        assert_eq!(seen, vec![5, 64, 65, 127, 128, 199]);
    }

    #[test]
    fn wrapping_iteration_matches_modular_sweep_everywhere() {
        // Exhaustive over every start index for an irregular pattern that
        // crosses word boundaries.
        let mut b = BitSet::new(150);
        for i in [0, 1, 7, 63, 64, 70, 127, 128, 149] {
            b.set(i);
        }
        for start in 0..150 {
            assert_eq!(
                collect_wrapping(&b, start),
                naive_wrapping(&b, start),
                "start={start}"
            );
        }
    }

    #[test]
    fn wrapping_iteration_small_domain() {
        let mut b = BitSet::new(10);
        b.set(2);
        b.set(9);
        assert_eq!(collect_wrapping(&b, 3), vec![9, 2]);
        assert_eq!(collect_wrapping(&b, 0), vec![2, 9]);
        assert_eq!(collect_wrapping(&b, 9), vec![9, 2]);
    }

    #[test]
    fn wrapping_iteration_early_exit() {
        let mut b = BitSet::new(64);
        b.set(10);
        b.set(20);
        b.set(30);
        let mut seen = Vec::new();
        b.for_each_wrapping(15, |i| {
            seen.push(i);
            true // stop at the first hit
        });
        assert_eq!(seen, vec![20]);
    }

    #[test]
    fn first_set_excluding_matches_modular_sweep_everywhere() {
        // Exhaustive over every start index, requests and exclusions both
        // crossing word boundaries, plus the nothing-eligible case.
        let (mut a, mut excl) = (BitSet::new(150), BitSet::new(150));
        for i in [0, 1, 7, 63, 64, 70, 127, 128, 149] {
            a.set(i);
        }
        for i in [1, 2, 63, 70, 128, 140] {
            excl.set(i);
        }
        for start in 0..150 {
            let want = (0..150)
                .map(|off| (start + off) % 150)
                .find(|&i| a.get(i) && !excl.get(i));
            assert_eq!(
                first_set_excluding(a.words(), excl.words(), start),
                want,
                "start={start}"
            );
            assert_eq!(first_set_excluding(a.words(), a.words(), start), None);
        }
    }

    #[test]
    fn empty_domain_is_inert() {
        let b = BitSet::new(0);
        assert_eq!(b.count(), 0);
        let mut hit = false;
        b.for_each(|_| hit = true);
        assert!(!hit);
    }
}
