//! Multi-word `u64` bitsets for active-set scheduling.
//!
//! The cycle kernels keep "which routers / sources might have work" as
//! dense bitsets and iterate only the set bits, so per-tick cost tracks
//! the in-flight population instead of the structure size. (A router's
//! own VC sets are one `u64` each and live in the fabric's router table.)

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
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn empty_domain_is_inert() {
        let b = BitSet::new(0);
        assert_eq!(b.count(), 0);
        let mut hit = false;
        b.for_each(|_| hit = true);
        assert!(!hit);
    }
}
