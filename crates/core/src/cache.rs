//! The Circuit Cache — Fig. 5 of the paper.
//!
//! "The circuits starting at each node are recorded in a special set of
//! registers denoted as Circuit Cache … located in the network interface
//! of every node." Each [`CacheEntry`] reproduces the Fig. 5 fields
//! (Initial Switch, Switch, Channel, Dest, Ack Returned, In-use, Replace)
//! plus the protocol-visible lifecycle state and the queue of messages
//! waiting for the circuit.
//!
//! The cache is that register file: at most `capacity` entries in slot
//! order, found by a scan on `Dest`. A removal moves the last entry into
//! the freed slot. Storage grows on insert and is never reserved up front,
//! and nothing depends on a hasher: [`CircuitCache::iter`] runs in slot
//! order, in a clone as in the original.

use std::collections::VecDeque;

use wavesim_network::Message;
use wavesim_sim::Cycle;
use wavesim_topology::NodeId;

use crate::config::ReplacementPolicy;
use crate::ids::{CircuitId, LaneId};
use crate::replacement;

/// Lifecycle of a circuit-cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// A probe is searching for a path (Ack Returned still clear).
    Establishing,
    /// The acknowledgment returned; the circuit is ready to carry messages.
    Ready,
    /// A dynamic fault destroyed the circuit; the entry is waiting out the
    /// re-establishment backoff (CLRP only). Sends keep queueing, nothing
    /// is evictable, and the old circuit id stays in `circuit` so a stale
    /// transfer ack can still clear `in_use`.
    RetryWait,
    /// A teardown is propagating (or waiting for In-use to clear).
    Releasing,
    /// Establishment failed on every switch. CARP keeps the entry so
    /// subsequent sends for this set of messages use wormhole switching;
    /// CLRP removes failed entries instead.
    Failed,
}

/// One Circuit Cache register set (Fig. 5).
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// `Dest` field: destination node of the circuit.
    pub dest: NodeId,
    /// The circuit attempt/instance this entry tracks.
    pub circuit: CircuitId,
    /// `Initial Switch` field: first switch tried, "to avoid repeating the
    /// search".
    pub initial_switch: u8,
    /// `Switch` field: switch being searched, or used once set up.
    pub switch: u8,
    /// `Channel` field: output lane used by the circuit at the source.
    pub channel: Option<LaneId>,
    /// `Ack Returned` field: path setup acknowledged, circuit usable.
    pub ack_returned: bool,
    /// `In-use` field: a message is in transit; blocks release.
    pub in_use: bool,
    /// `Replace` field: accounting data for the replacement algorithm.
    pub replace: u64,
    /// Lifecycle state (protocol bookkeeping beyond the raw registers).
    pub state: EntryState,
    /// CLRP: the current establishment attempt runs with the Force bit.
    pub force_phase: bool,
    /// A remote node asked for this circuit to be released (or the local
    /// replacement algorithm chose it); tear down as soon as In-use clears.
    pub release_pending: bool,
    /// Messages waiting to use the circuit (transmitted in FIFO order —
    /// circuits guarantee in-order delivery, §2).
    pub queue: VecDeque<Message>,
    /// Cycle the ack returned, if it did.
    pub established_at: Option<Cycle>,
    /// Messages actually carried (for hit-rate statistics).
    pub uses: u64,
    /// End-point message-buffer size in flits. `Some(n)` means the buffer
    /// was sized blindly (CLRP) and grows — with a re-allocation penalty —
    /// when a longer message arrives; `None` means the buffer was sized
    /// from the known message set (CARP, §2) and never re-allocates.
    pub alloc_flits: Option<u32>,
    /// Path length in hops, recorded when the circuit is established (used
    /// to plan transfer timing without consulting the circuit registry).
    pub path_hops: u32,
    /// Re-establishment attempts consumed after dynamic faults broke this
    /// entry's circuit (bounded by `WaveConfig::fault_retries`).
    pub fault_retries_used: u8,
}

impl CacheEntry {
    /// Fresh entry in `Establishing` state.
    #[must_use]
    pub fn new(dest: NodeId, circuit: CircuitId, initial_switch: u8, switch: u8) -> Self {
        Self {
            dest,
            circuit,
            initial_switch,
            switch,
            channel: None,
            ack_returned: false,
            in_use: false,
            replace: 0,
            state: EntryState::Establishing,
            force_phase: false,
            release_pending: false,
            queue: VecDeque::new(),
            established_at: None,
            uses: 0,
            alloc_flits: None,
            path_hops: 0,
            fault_retries_used: 0,
        }
    }

    /// True when the replacement algorithm may evict this entry right now:
    /// fully established, idle, and not already being released.
    #[must_use]
    pub fn evictable(&self) -> bool {
        self.state == EntryState::Ready
            && !self.in_use
            && !self.release_pending
            && self.queue.is_empty()
    }
}

/// The per-node Circuit Cache: at most `capacity` register sets in slot
/// order, one per destination (one circuit per destination per source, as
/// in §3.1's lookup "to see if a circuit exists for the requested
/// destination").
#[derive(Debug, Clone)]
pub struct CircuitCache {
    capacity: usize,
    slots: Vec<CacheEntry>,
}

impl CircuitCache {
    /// Empty cache with room for `capacity` circuits.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "circuit cache needs at least one entry");
        Self {
            capacity,
            slots: Vec::new(),
        }
    }

    /// Register-file size.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no circuits are cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// True when a new entry cannot be inserted without eviction.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.slots.len() >= self.capacity
    }

    /// Looks up the entry for `dest`.
    #[must_use]
    pub fn get(&self, dest: NodeId) -> Option<&CacheEntry> {
        self.slots.iter().find(|e| e.dest == dest)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, dest: NodeId) -> Option<&mut CacheEntry> {
        self.slots.iter_mut().find(|e| e.dest == dest)
    }

    /// Inserts `entry` into the next free slot.
    ///
    /// # Panics
    /// Panics if the cache is full (evict first) or the destination is
    /// already present.
    pub fn insert(&mut self, entry: CacheEntry) {
        assert!(!self.is_full(), "insert into a full circuit cache");
        assert!(
            self.get(entry.dest).is_none(),
            "duplicate circuit cache entry"
        );
        self.slots.push(entry);
    }

    /// Removes and returns the entry for `dest`; the last slot's entry
    /// moves into the freed slot.
    pub fn remove(&mut self, dest: NodeId) -> Option<CacheEntry> {
        let slot = self.slots.iter().position(|e| e.dest == dest)?;
        Some(self.slots.swap_remove(slot))
    }

    /// Iterates over entries in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &CacheEntry> {
        self.slots.iter()
    }

    /// Selects the eviction victim under `policy`: the evictable entry
    /// with the lowest score, destination id breaking ties for
    /// determinism. `None` when nothing is evictable.
    #[must_use]
    pub fn pick_victim(&self, policy: ReplacementPolicy, seed: u64) -> Option<NodeId> {
        self.slots
            .iter()
            .filter(|e| e.evictable())
            .min_by_key(|e| (replacement::eviction_score(e, policy, seed), e.dest))
            .map(|e| e.dest)
    }

    /// The entry whose circuit id is `circuit`, if present.
    pub fn find_by_circuit_mut(&mut self, circuit: CircuitId) -> Option<&mut CacheEntry> {
        self.slots.iter_mut().find(|e| e.circuit == circuit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(dest: u32, circuit: u64) -> CacheEntry {
        CacheEntry::new(NodeId(dest), CircuitId(circuit), 1, 1)
    }

    #[test]
    fn insert_lookup_remove() {
        let mut c = CircuitCache::new(4);
        c.insert(entry(5, 1));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(NodeId(5)).unwrap().circuit, CircuitId(1));
        assert!(c.get(NodeId(6)).is_none());
        let e = c.remove(NodeId(5)).unwrap();
        assert_eq!(e.dest, NodeId(5));
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_enforced() {
        let mut c = CircuitCache::new(2);
        c.insert(entry(1, 1));
        c.insert(entry(2, 2));
        assert!(c.is_full());
    }

    #[test]
    #[should_panic(expected = "full circuit cache")]
    fn overfull_insert_panics() {
        let mut c = CircuitCache::new(1);
        c.insert(entry(1, 1));
        c.insert(entry(2, 2));
    }

    #[test]
    fn evictability_rules() {
        let mut e = entry(1, 1);
        assert!(!e.evictable(), "establishing entries are not evictable");
        e.state = EntryState::Ready;
        assert!(e.evictable());
        e.in_use = true;
        assert!(!e.evictable(), "In-use blocks eviction (paper §2)");
        e.in_use = false;
        e.release_pending = true;
        assert!(!e.evictable());
        e.release_pending = false;
        e.queue
            .push_back(Message::new(1, NodeId(0), NodeId(1), 4, 0));
        assert!(!e.evictable(), "queued traffic blocks eviction");
    }

    #[test]
    fn victim_selection_respects_policy_and_ties() {
        let mut c = CircuitCache::new(4);
        let mut a = entry(1, 10);
        a.state = EntryState::Ready;
        a.replace = 100; // older LRU stamp
        let mut b = entry(2, 20);
        b.state = EntryState::Ready;
        b.replace = 200;
        c.insert(a);
        c.insert(b);
        assert_eq!(c.pick_victim(ReplacementPolicy::Lru, 0), Some(NodeId(1)));
        // Ties break on destination id.
        c.get_mut(NodeId(2)).unwrap().replace = 100;
        assert_eq!(c.pick_victim(ReplacementPolicy::Lru, 0), Some(NodeId(1)));
    }

    #[test]
    fn no_victim_when_everything_busy() {
        let mut c = CircuitCache::new(2);
        let mut a = entry(1, 1);
        a.state = EntryState::Ready;
        a.in_use = true;
        c.insert(a);
        c.insert(entry(2, 2)); // still establishing
        assert_eq!(c.pick_victim(ReplacementPolicy::Lru, 0), None);
    }

    /// Every permutation of `items`, in lexicographic order of indices.
    fn permutations(items: &[u32]) -> Vec<Vec<u32>> {
        if items.len() <= 1 {
            return vec![items.to_vec()];
        }
        let mut out = Vec::new();
        for (i, &first) in items.iter().enumerate() {
            let mut rest = items.to_vec();
            rest.remove(i);
            for mut tail in permutations(&rest) {
                tail.insert(0, first);
                out.push(tail);
            }
        }
        out
    }

    /// Slot order is insertion order, so a victim must not depend on it:
    /// four entries with one score, inserted in all 24 orders, give one
    /// victim under every policy (the lowest `Dest`).
    #[test]
    fn victim_is_independent_of_slot_order() {
        let orders = permutations(&[7, 2, 9, 4]);
        assert_eq!(orders.len(), 24);
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Lfu,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ] {
            for order in &orders {
                let mut c = CircuitCache::new(4);
                for &dest in order {
                    // One circuit id ties the Random policy's hash too.
                    let mut e = entry(dest, 1);
                    e.state = EntryState::Ready;
                    e.replace = 50;
                    c.insert(e);
                }
                assert_eq!(
                    c.pick_victim(policy, 3),
                    Some(NodeId(2)),
                    "{policy:?} with slots in order {order:?}"
                );
            }
        }
    }

    #[test]
    fn removal_keeps_the_slots_packed() {
        let mut c = CircuitCache::new(4);
        for dest in [1, 2, 3] {
            c.insert(entry(dest, u64::from(dest)));
        }
        c.remove(NodeId(1));
        let dests: Vec<u32> = c.iter().map(|e| e.dest.0).collect();
        assert_eq!(dests, [3, 2], "the last slot fills the hole");
        assert_eq!(
            c.find_by_circuit_mut(CircuitId(2)).map(|e| e.dest),
            Some(NodeId(2))
        );
        assert!(c.find_by_circuit_mut(CircuitId(1)).is_none());
    }
}
