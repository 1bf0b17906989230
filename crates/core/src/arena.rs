//! Generational-index arenas for hot protocol state.
//!
//! The control and circuit planes create and destroy probes and circuits
//! constantly; keying their registries by `HashMap` put a hash + probe
//! sequence on every protocol step. These arenas replace that with direct
//! vector indexing: an id packs `generation << 32 | slot`, slots are
//! recycled LIFO, and the generation is bumped on every free, so a stale
//! id held by anyone (a parked probe, a CARP `Failed` cache entry, a
//! release request in flight) can never alias a recycled slot — lookups
//! with dead ids simply miss, exactly like the `HashMap`s they replace.
//!
//! Three pieces, matching the three ownership shapes in the planes:
//!
//! * [`GenSlab`] — self-allocating storage: insertion mints the id
//!   (probes, owned entirely by the controlplane);
//! * [`IdAlloc`] — an allocator without storage, for ids minted by one
//!   plane (circuitplane) while the state lives in another;
//! * [`SlotMap`] — gen-checked storage keyed by externally minted ids
//!   (the controlplane's circuit registry, keyed by [`IdAlloc`] ids).
//!
//! Iteration is in slot order — deterministic, unlike `HashMap`, which is
//! why swapping these in cannot perturb any schedule.

/// An id type backed by a raw `u64` in `generation << 32 | slot` layout.
///
/// [`crate::ids::CircuitId`] and [`crate::ids::ProbeId`] implement this;
/// plain sequential ids (generation 0) remain valid keys, so tests that
/// hand-construct `CircuitId(0)` keep working.
pub trait ArenaId: Copy + Eq {
    /// Builds the id from its raw packed value.
    fn from_raw(raw: u64) -> Self;
    /// The raw packed value.
    fn raw(self) -> u64;
}

#[inline]
fn slot_of(raw: u64) -> u32 {
    raw as u32
}

#[inline]
fn gen_of(raw: u64) -> u32 {
    (raw >> 32) as u32
}

#[inline]
fn pack(generation: u32, slot: u32) -> u64 {
    (u64::from(generation) << 32) | u64::from(slot)
}

/// Self-allocating generational slab: inserting a value mints its id.
#[derive(Debug, Clone)]
pub struct GenSlab<K, V> {
    slots: Vec<(u32, Option<V>)>,
    free: Vec<u32>,
    live: usize,
    _key: std::marker::PhantomData<K>,
}

impl<K, V> Default for GenSlab<K, V> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            _key: std::marker::PhantomData,
        }
    }
}

impl<K: ArenaId, V> GenSlab<K, V> {
    /// Empty slab.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a value built from its freshly minted id (for values that
    /// store their own key).
    pub fn insert_with(&mut self, build: impl FnOnce(K) -> V) -> K {
        self.live += 1;
        if let Some(s) = self.free.pop() {
            let k = K::from_raw(pack(self.slots[s as usize].0, s));
            self.slots[s as usize].1 = Some(build(k));
            k
        } else {
            let s = u32::try_from(self.slots.len()).expect("fewer than 2^32 live entries");
            let k = K::from_raw(pack(0, s));
            self.slots.push((0, Some(build(k))));
            k
        }
    }

    /// Inserts a value, returning its minted id.
    pub fn insert(&mut self, value: V) -> K {
        self.insert_with(|_| value)
    }

    fn index(&self, key: K) -> Option<usize> {
        let raw = key.raw();
        let s = slot_of(raw) as usize;
        match self.slots.get(s) {
            Some(&(generation, Some(_))) if generation == gen_of(raw) => Some(s),
            _ => None,
        }
    }

    /// The value for `key`, unless it was removed (stale ids miss).
    #[must_use]
    pub fn get(&self, key: K) -> Option<&V> {
        self.index(key).and_then(|s| self.slots[s].1.as_ref())
    }

    /// Mutable access to the value for `key`.
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        self.index(key).and_then(|s| self.slots[s].1.as_mut())
    }

    /// True when `key` is live.
    #[must_use]
    pub fn contains_key(&self, key: &K) -> bool {
        self.index(*key).is_some()
    }

    /// Removes and returns the value for `key`, bumping the slot's
    /// generation so the id dies with it.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let s = self.index(*key)?;
        let v = self.slots[s].1.take();
        self.slots[s].0 = self.slots[s].0.wrapping_add(1);
        self.free.push(s as u32);
        self.live -= 1;
        v
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no entries are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates `(id, value)` in slot order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(s, (generation, v))| {
                v.as_ref()
                    .map(|v| (K::from_raw(pack(*generation, s as u32)), v))
            })
    }

    /// Iterates values in slot order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter_map(|(_, v)| v.as_ref())
    }
}

/// Generational id allocator without storage: one plane mints ids, another
/// holds the state. Recycling is gen-checked and idempotent — freeing an
/// id twice (or freeing a stale id) is a no-op, which the release
/// protocol needs: both a probe unwind and a teardown may report the same
/// circuit released.
#[derive(Debug, Clone, Default)]
pub struct IdAlloc<K> {
    gens: Vec<u32>,
    free: Vec<u32>,
    _key: std::marker::PhantomData<K>,
}

impl<K: ArenaId> IdAlloc<K> {
    /// Empty allocator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            gens: Vec::new(),
            free: Vec::new(),
            _key: std::marker::PhantomData,
        }
    }

    /// Mints a fresh id, reusing the most recently recycled slot.
    pub fn alloc(&mut self) -> K {
        if let Some(s) = self.free.pop() {
            K::from_raw(pack(self.gens[s as usize], s))
        } else {
            let s = u32::try_from(self.gens.len()).expect("fewer than 2^32 live ids");
            self.gens.push(0);
            K::from_raw(pack(0, s))
        }
    }

    /// Returns `key`'s slot to the pool. Stale or double frees are
    /// ignored: only the generation currently live for the slot recycles.
    pub fn recycle(&mut self, key: K) {
        let raw = key.raw();
        let s = slot_of(raw) as usize;
        if let Some(generation) = self.gens.get_mut(s) {
            if *generation == gen_of(raw) {
                *generation = generation.wrapping_add(1);
                self.free.push(s as u32);
            }
        }
    }
}

/// Gen-checked storage keyed by externally minted [`ArenaId`]s. Lookups
/// with a stale id (older generation in the same slot) miss; inserting is
/// only valid while the slot is vacant.
#[derive(Debug, Clone)]
pub struct SlotMap<K, V> {
    slots: Vec<Option<(u64, V)>>,
    live: usize,
    _key: std::marker::PhantomData<K>,
}

impl<K, V> Default for SlotMap<K, V> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            live: 0,
            _key: std::marker::PhantomData,
        }
    }
}

impl<K: ArenaId, V> SlotMap<K, V> {
    /// Empty map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn index(&self, key: K) -> Option<usize> {
        let raw = key.raw();
        let s = slot_of(raw) as usize;
        match self.slots.get(s) {
            Some(Some((stored, _))) if *stored == raw => Some(s),
            _ => None,
        }
    }

    /// The value for `key`, if live.
    #[must_use]
    pub fn get(&self, key: K) -> Option<&V> {
        self.index(key)
            .map(|s| &self.slots[s].as_ref().expect("indexed slot is full").1)
    }

    /// Mutable access to the value for `key`.
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        self.index(key)
            .map(|s| &mut self.slots[s].as_mut().expect("indexed slot is full").1)
    }

    /// True when `key` is live.
    #[must_use]
    pub fn contains_key(&self, key: &K) -> bool {
        self.index(*key).is_some()
    }

    /// The value for `key`, inserting `build()` first if absent.
    pub fn get_or_insert_with(&mut self, key: K, build: impl FnOnce() -> V) -> &mut V {
        if self.index(key).is_none() {
            self.insert(key, build());
        }
        self.get_mut(key).expect("just inserted")
    }

    /// Inserts a value under an externally minted key.
    ///
    /// The slot must be vacant: the id allocator guarantees a slot is
    /// never handed out twice concurrently, so an occupied slot means a
    /// recycle was missed.
    pub fn insert(&mut self, key: K, value: V) {
        let raw = key.raw();
        let s = slot_of(raw) as usize;
        if s >= self.slots.len() {
            self.slots.resize_with(s + 1, || None);
        }
        debug_assert!(
            self.slots[s].is_none(),
            "SlotMap::insert into an occupied slot"
        );
        if self.slots[s].is_none() {
            self.live += 1;
        }
        self.slots[s] = Some((raw, value));
    }

    /// Removes and returns the value for `key`.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let s = self.index(*key)?;
        self.live -= 1;
        self.slots[s].take().map(|(_, v)| v)
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no entries are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates `(id, value)` in slot order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.slots
            .iter()
            .filter_map(|e| e.as_ref().map(|(raw, v)| (K::from_raw(*raw), v)))
    }

    /// Iterates ids in slot order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates values in slot order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter_map(|e| e.as_ref().map(|(_, v)| v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Id(u64);
    impl ArenaId for Id {
        fn from_raw(raw: u64) -> Self {
            Id(raw)
        }
        fn raw(self) -> u64 {
            self.0
        }
    }

    #[test]
    fn genslab_recycles_slots_with_fresh_generations() {
        let mut slab: GenSlab<Id, &str> = GenSlab::new();
        let a = slab.insert("a");
        assert_eq!(slab.get(a), Some(&"a"));
        assert_eq!(slab.remove(&a), Some("a"));
        assert!(slab.get(a).is_none(), "stale id must miss");
        let b = slab.insert("b");
        assert_ne!(a.raw(), b.raw(), "recycled slot gets a new generation");
        assert_eq!(a.raw() as u32, b.raw() as u32, "but reuses the slot");
        assert_eq!(slab.get(b), Some(&"b"));
        assert!(!slab.contains_key(&a));
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn genslab_insert_with_sees_its_own_key() {
        let mut slab: GenSlab<Id, Id> = GenSlab::new();
        let k = slab.insert_with(|k| k);
        assert_eq!(slab.get(k), Some(&k));
    }

    #[test]
    fn genslab_iterates_in_slot_order() {
        let mut slab: GenSlab<Id, u32> = GenSlab::new();
        let a = slab.insert(10);
        let _b = slab.insert(20);
        let _c = slab.insert(30);
        slab.remove(&a);
        let vals: Vec<u32> = slab.values().copied().collect();
        assert_eq!(vals, vec![20, 30]);
        assert_eq!(slab.iter().count(), 2);
    }

    #[test]
    fn idalloc_double_recycle_is_a_noop() {
        let mut alloc: IdAlloc<Id> = IdAlloc::new();
        let a = alloc.alloc();
        let b = alloc.alloc();
        alloc.recycle(a);
        alloc.recycle(a); // stale: generation already bumped
        let c = alloc.alloc();
        let d = alloc.alloc();
        // Only one slot was freed, so exactly one of c/d reuses a's slot
        // (under a new generation) and the other opens a fresh slot.
        assert_ne!(c.raw(), a.raw());
        assert_ne!(d.raw(), a.raw());
        assert_ne!(c.raw(), d.raw());
        assert_ne!(b.raw(), c.raw());
    }

    #[test]
    fn slotmap_gen_checks_external_keys() {
        let mut alloc: IdAlloc<Id> = IdAlloc::new();
        let mut map: SlotMap<Id, &str> = SlotMap::new();
        let a = alloc.alloc();
        map.insert(a, "a");
        assert_eq!(map.get(a), Some(&"a"));
        assert_eq!(map.remove(&a), Some("a"));
        alloc.recycle(a);
        let b = alloc.alloc(); // same slot, new generation
        map.insert(b, "b");
        assert!(map.get(a).is_none(), "stale id must not see the new value");
        assert_eq!(map.get(b), Some(&"b"));
        assert_eq!(map.keys().count(), 1);
    }

    #[test]
    fn slotmap_plain_sequential_ids_work() {
        // Hand-built generation-0 ids (as tests construct) are valid keys.
        let mut map: SlotMap<Id, u32> = SlotMap::new();
        map.insert(Id(0), 100);
        map.insert(Id(5), 200);
        assert_eq!(map.get(Id(0)), Some(&100));
        assert_eq!(map.get(Id(5)), Some(&200));
        assert_eq!(map.len(), 2);
        let ids: Vec<u64> = map.keys().map(ArenaId::raw).collect();
        assert_eq!(ids, vec![0, 5], "slot-order iteration");
    }

    #[test]
    fn slotmap_get_or_insert_with() {
        let mut map: SlotMap<Id, u32> = SlotMap::new();
        *map.get_or_insert_with(Id(3), || 7) += 1;
        assert_eq!(map.get(Id(3)), Some(&8));
        *map.get_or_insert_with(Id(3), || 99) += 1;
        assert_eq!(map.get(Id(3)), Some(&9), "existing entry is kept");
    }
}
