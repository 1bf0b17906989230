//! Wave-lane bookkeeping: the physical channels of switches `S1..Sk`.
//!
//! Each unidirectional physical link is split into `k` lanes, one per wave
//! switch, each paired with its dedicated one-flit control channel
//! (paper §2). A lane is the unit of reservation: the probe reserves
//! "a bidirectional control channel and the associated physical channel in
//! switch `S_i` … both of them … at the same time", so one state machine
//! per lane suffices.
//!
//! The table is **struct-of-arrays**: occupancy lives in one flat `u64`
//! word per lane (free/faulty sentinels or the holding circuit id), and
//! the rarely-populated waiter lists live in a parallel vector, so the
//! control plane's hot lane-scan loops read a dense array instead of
//! chasing per-lane structs. State-change counters are maintained
//! incrementally, making [`LaneTable::census`] O(1) — it is sampled every
//! cycle by instrumentation.
//!
//! Lanes can also be marked **faulty** — the fault-injection hook for the
//! E8 (static) and E14 (dynamic) experiments (the paper notes MB-m "is
//! very resilient to static faults in the network"). Both go through
//! [`LaneTable::force_faulty`], which evicts a holder so the control plane
//! can tear the victim circuit down (a static fault lands at cycle 0,
//! before anything is reserved), and [`LaneTable::repair`] returns a
//! faulty lane to service.

use wavesim_topology::Topology;

use crate::ids::{CircuitId, LaneId, ProbeId};

/// Occupancy state of one wave lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneState {
    /// Available for reservation.
    Free,
    /// Reserved by (or part of) the given circuit.
    Reserved(CircuitId),
    /// Faulty: never reservable until repaired (fault injection).
    Faulty,
}

/// Packed-word sentinel for [`LaneState::Free`].
const FREE: u64 = u64::MAX;
/// Packed-word sentinel for [`LaneState::Faulty`].
const FAULTY: u64 = u64::MAX - 1;

/// Packs a lane state into its occupancy word.
fn pack(s: LaneState) -> u64 {
    match s {
        LaneState::Free => FREE,
        LaneState::Faulty => FAULTY,
        LaneState::Reserved(c) => {
            debug_assert!(c.0 < FAULTY, "circuit id collides with lane sentinels");
            c.0
        }
    }
}

/// Unpacks a lane occupancy word.
fn unpack(w: u64) -> LaneState {
    match w {
        FREE => LaneState::Free,
        FAULTY => LaneState::Faulty,
        c => LaneState::Reserved(CircuitId(c)),
    }
}

/// All wave lanes of the network, indexed densely by `(link, switch)`.
/// Occupancy is one packed `u64` per lane; waiter lists (probes parked for
/// a CLRP phase-two forced release) are a parallel array.
#[derive(Debug, Clone)]
pub struct LaneTable {
    k: u8,
    /// Packed occupancy per lane: [`FREE`], [`FAULTY`], or the holder id.
    states: Vec<u64>,
    /// Probes parked on each lane.
    waiters: Vec<Vec<ProbeId>>,
    /// Incremental census: lanes currently reserved.
    reserved: usize,
    /// Incremental census: lanes currently faulty.
    faulty: usize,
}

impl LaneTable {
    /// Builds the table for `topo` with `k` wave switches.
    #[must_use]
    pub fn new(topo: &Topology, k: u8) -> Self {
        let n = topo.num_link_slots() * k as usize;
        Self {
            k,
            states: vec![FREE; n],
            waiters: vec![Vec::new(); n],
            reserved: 0,
            faulty: 0,
        }
    }

    /// Number of wave switches.
    #[must_use]
    pub fn k(&self) -> u8 {
        self.k
    }

    fn idx(&self, lane: LaneId) -> usize {
        assert!(
            lane.switch >= 1 && lane.switch <= self.k,
            "switch {} out of range 1..={}",
            lane.switch,
            self.k
        );
        lane.link.0 as usize * self.k as usize + (lane.switch as usize - 1)
    }

    /// Writes lane `i`'s occupancy word, keeping the census counters in
    /// sync.
    fn transition(&mut self, i: usize, to: u64) {
        let from = self.states[i];
        if from == to {
            return;
        }
        match from {
            FREE => {}
            FAULTY => self.faulty -= 1,
            _ => self.reserved -= 1,
        }
        match to {
            FREE => {}
            FAULTY => self.faulty += 1,
            _ => self.reserved += 1,
        }
        self.states[i] = to;
    }

    /// Current state of `lane`.
    #[must_use]
    pub fn state(&self, lane: LaneId) -> LaneState {
        unpack(self.states[self.idx(lane)])
    }

    /// True when `lane` can be reserved right now.
    #[must_use]
    pub fn is_free(&self, lane: LaneId) -> bool {
        self.states[self.idx(lane)] == FREE
    }

    /// Circuit currently holding `lane`, if any.
    #[must_use]
    pub fn holder(&self, lane: LaneId) -> Option<CircuitId> {
        match unpack(self.states[self.idx(lane)]) {
            LaneState::Reserved(c) => Some(c),
            _ => None,
        }
    }

    /// Reserves `lane` for `circuit`.
    ///
    /// # Panics
    /// Panics if the lane is not free — callers must check first; the
    /// hardware performs the check-and-set atomically in the PCS unit.
    pub fn reserve(&mut self, lane: LaneId, circuit: CircuitId) {
        let i = self.idx(lane);
        assert_eq!(self.states[i], FREE, "lane {lane} reserved while not free");
        self.transition(i, pack(LaneState::Reserved(circuit)));
    }

    /// Releases `lane` (backtrack or teardown) and returns the probes that
    /// were parked waiting for it, so the caller can retry them.
    ///
    /// # Panics
    /// Panics if the lane was not reserved by `circuit` (protocol
    /// invariant: only the holder releases).
    pub fn release(&mut self, lane: LaneId, circuit: CircuitId) -> Vec<ProbeId> {
        let i = self.idx(lane);
        assert_eq!(
            unpack(self.states[i]),
            LaneState::Reserved(circuit),
            "lane {lane} released by non-holder {circuit}"
        );
        self.transition(i, FREE);
        std::mem::take(&mut self.waiters[i])
    }

    /// Parks `probe` on `lane` until the holder tears down.
    ///
    /// # Panics
    /// Panics if the lane is free (nothing to wait for).
    pub fn park(&mut self, lane: LaneId, probe: ProbeId) {
        let i = self.idx(lane);
        assert!(
            matches!(unpack(self.states[i]), LaneState::Reserved(_)),
            "parking on a lane that is not reserved"
        );
        if !self.waiters[i].contains(&probe) {
            self.waiters[i].push(probe);
        }
    }

    /// Removes `probe` from `lane`'s waiter list (probe gave up or died).
    pub fn unpark(&mut self, lane: LaneId, probe: ProbeId) {
        let i = self.idx(lane);
        self.waiters[i].retain(|&p| p != probe);
    }

    /// Marks `lane` faulty regardless of occupancy.
    /// Returns the evicted holder (if the lane was reserved) and the
    /// probes that were parked waiting for it, so the caller can tear the
    /// victim circuit down and retry the waiters (which will re-scan, see
    /// the lane `Faulty`, and route around it).
    ///
    /// Force-faulting an **already-faulty** lane is a documented no-op
    /// returning `(None, vec![])`: the lane has no holder to evict, and
    /// its waiters (if any raced in between fault and retry) were already
    /// drained by the fault that got there first. Fault schedules may
    /// legitimately hit the same lane twice (overlapping link- and
    /// lane-granularity events), and a second eviction pass must not
    /// re-tear circuits that were already torn down.
    pub fn force_faulty(&mut self, lane: LaneId) -> (Option<CircuitId>, Vec<ProbeId>) {
        let i = self.idx(lane);
        let holder = match unpack(self.states[i]) {
            LaneState::Reserved(c) => Some(c),
            LaneState::Faulty => return (None, Vec::new()),
            LaneState::Free => None,
        };
        self.transition(i, FAULTY);
        (holder, std::mem::take(&mut self.waiters[i]))
    }

    /// Returns a faulty `lane` to service (dynamic fault model). Returns
    /// `true` when the lane was actually faulty; repairing a free or
    /// reserved lane is a tolerant no-op (a repair event may race a fault
    /// that never happened, e.g. an invalidated schedule entry).
    pub fn repair(&mut self, lane: LaneId) -> bool {
        let i = self.idx(lane);
        if self.states[i] == FAULTY {
            self.transition(i, FREE);
            true
        } else {
            false
        }
    }

    /// Releases `lane` if — and only if — it is still reserved by
    /// `circuit`, returning the probes parked on it. A no-op returning no
    /// waiters otherwise. Teardown and unwind walks use this instead of
    /// [`LaneTable::release`]: a dynamic fault may have force-faulted one
    /// of the path's lanes (evicting the reservation and draining the
    /// waiters) before the walk reaches it.
    pub fn release_if_held(&mut self, lane: LaneId, circuit: CircuitId) -> Vec<ProbeId> {
        let i = self.idx(lane);
        if self.states[i] == pack(LaneState::Reserved(circuit)) {
            self.transition(i, FREE);
            std::mem::take(&mut self.waiters[i])
        } else {
            Vec::new()
        }
    }

    /// Number of lanes in each state: `(free, reserved, faulty)`.
    /// O(1): counters are maintained on every transition.
    #[must_use]
    pub fn census(&self) -> (usize, usize, usize) {
        (
            self.states.len() - self.reserved - self.faulty,
            self.reserved,
            self.faulty,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> (Topology, LaneTable) {
        let t = Topology::mesh(&[4, 4]);
        let lt = LaneTable::new(&t, 2);
        (t, lt)
    }

    #[test]
    fn reserve_release_cycle() {
        let (t, mut lt) = table();
        let link = t.links().next().unwrap();
        let lane = LaneId::new(link, 1);
        assert!(lt.is_free(lane));
        lt.reserve(lane, CircuitId(7));
        assert!(!lt.is_free(lane));
        assert_eq!(lt.holder(lane), Some(CircuitId(7)));
        let woken = lt.release(lane, CircuitId(7));
        assert!(woken.is_empty());
        assert!(lt.is_free(lane));
    }

    #[test]
    fn lanes_are_independent_per_switch() {
        let (t, mut lt) = table();
        let link = t.links().next().unwrap();
        lt.reserve(LaneId::new(link, 1), CircuitId(1));
        assert!(lt.is_free(LaneId::new(link, 2)), "S2 lane unaffected");
    }

    #[test]
    fn park_wakes_on_release() {
        let (t, mut lt) = table();
        let lane = LaneId::new(t.links().next().unwrap(), 1);
        lt.reserve(lane, CircuitId(1));
        lt.park(lane, ProbeId(10));
        lt.park(lane, ProbeId(11));
        lt.park(lane, ProbeId(10)); // duplicate ignored
        let woken = lt.release(lane, CircuitId(1));
        assert_eq!(woken, vec![ProbeId(10), ProbeId(11)]);
    }

    #[test]
    fn unpark_removes_waiter() {
        let (t, mut lt) = table();
        let lane = LaneId::new(t.links().next().unwrap(), 1);
        lt.reserve(lane, CircuitId(1));
        lt.park(lane, ProbeId(10));
        lt.unpark(lane, ProbeId(10));
        assert!(lt.release(lane, CircuitId(1)).is_empty());
    }

    #[test]
    fn faulty_lane_is_never_free() {
        let (t, mut lt) = table();
        let link = t.links().next().unwrap();
        let lane = LaneId::new(link, 2);
        lt.force_faulty(lane);
        assert!(!lt.is_free(lane));
        assert_eq!(lt.state(lane), LaneState::Faulty);
        let (_, _, faulty) = lt.census();
        assert_eq!(faulty, 1);
        // Idempotent.
        lt.force_faulty(lane);
        assert_eq!(lt.census().2, 1);
    }

    #[test]
    fn force_fault_evicts_holder_and_drains_waiters() {
        let (t, mut lt) = table();
        let lane = LaneId::new(t.links().next().unwrap(), 1);
        lt.reserve(lane, CircuitId(3));
        lt.park(lane, ProbeId(10));
        let (holder, waiters) = lt.force_faulty(lane);
        assert_eq!(holder, Some(CircuitId(3)));
        assert_eq!(waiters, vec![ProbeId(10)]);
        assert_eq!(lt.state(lane), LaneState::Faulty);
        // A later teardown walk skips the already-faulted lane.
        assert!(lt.release_if_held(lane, CircuitId(3)).is_empty());
        assert_eq!(lt.state(lane), LaneState::Faulty);
    }

    #[test]
    fn force_fault_on_free_lane_has_no_victim() {
        let (t, mut lt) = table();
        let lane = LaneId::new(t.links().next().unwrap(), 2);
        let (holder, waiters) = lt.force_faulty(lane);
        assert_eq!(holder, None);
        assert!(waiters.is_empty());
        assert_eq!(lt.state(lane), LaneState::Faulty);
    }

    #[test]
    fn force_fault_on_faulty_lane_is_a_noop() {
        // Regression: a double fault (overlapping schedule entries) must
        // not report a phantom victim or disturb the census.
        let (t, mut lt) = table();
        let lane = LaneId::new(t.links().next().unwrap(), 1);
        lt.reserve(lane, CircuitId(3));
        let (holder, _) = lt.force_faulty(lane);
        assert_eq!(holder, Some(CircuitId(3)));
        let census = lt.census();
        let (holder2, waiters2) = lt.force_faulty(lane);
        assert_eq!(holder2, None, "second fault must not re-evict");
        assert!(waiters2.is_empty());
        assert_eq!(lt.state(lane), LaneState::Faulty);
        assert_eq!(lt.census(), census, "no-op must not disturb the census");
        // And the lane still repairs normally afterwards.
        assert!(lt.repair(lane));
        assert!(lt.is_free(lane));
    }

    #[test]
    fn repair_restores_only_faulty_lanes() {
        let (t, mut lt) = table();
        let lane = LaneId::new(t.links().next().unwrap(), 1);
        lt.force_faulty(lane);
        assert!(lt.repair(lane));
        assert!(lt.is_free(lane));
        // Free and reserved lanes are untouched by repair.
        assert!(!lt.repair(lane));
        lt.reserve(lane, CircuitId(1));
        assert!(!lt.repair(lane));
        assert_eq!(lt.holder(lane), Some(CircuitId(1)));
    }

    #[test]
    fn release_if_held_only_releases_the_holder() {
        let (t, mut lt) = table();
        let lane = LaneId::new(t.links().next().unwrap(), 1);
        lt.reserve(lane, CircuitId(1));
        lt.park(lane, ProbeId(9));
        assert!(lt.release_if_held(lane, CircuitId(2)).is_empty());
        assert_eq!(lt.holder(lane), Some(CircuitId(1)));
        let woken = lt.release_if_held(lane, CircuitId(1));
        assert_eq!(woken, vec![ProbeId(9)]);
        assert!(lt.is_free(lane));
    }

    #[test]
    #[should_panic(expected = "not free")]
    fn double_reserve_panics() {
        let (t, mut lt) = table();
        let lane = LaneId::new(t.links().next().unwrap(), 1);
        lt.reserve(lane, CircuitId(1));
        lt.reserve(lane, CircuitId(2));
    }

    #[test]
    #[should_panic(expected = "non-holder")]
    fn release_by_non_holder_panics() {
        let (t, mut lt) = table();
        let lane = LaneId::new(t.links().next().unwrap(), 1);
        lt.reserve(lane, CircuitId(1));
        let _ = lt.release(lane, CircuitId(2));
    }

    #[test]
    fn census_counts() {
        let (t, mut lt) = table();
        let total = t.num_link_slots() * 2;
        assert_eq!(lt.census(), (total, 0, 0));
        let lane = LaneId::new(t.links().next().unwrap(), 1);
        lt.reserve(lane, CircuitId(1));
        assert_eq!(lt.census(), (total - 1, 1, 0));
        // The incremental counters track every kind of transition.
        let lane2 = LaneId::new(t.links().next().unwrap(), 2);
        lt.force_faulty(lane2);
        assert_eq!(lt.census(), (total - 2, 1, 1));
        let _ = lt.release(lane, CircuitId(1));
        assert!(lt.repair(lane2));
        assert_eq!(lt.census(), (total, 0, 0));
    }
}
