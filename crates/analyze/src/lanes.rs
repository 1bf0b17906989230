//! Wave-lane reservation occupancy.
//!
//! A wave lane is a `(physical link, wave switch)` pair. Lanes are
//! reserved hop by hop as probes advance ([`TraceEvent::ProbeHop`]),
//! released one at a time on backtrack, and held for the whole circuit
//! lifetime once the probe reaches the destination — until
//! [`TraceEvent::CircuitReleased`] frees the path. Summing those hold
//! intervals per lane yields the reservation-occupancy ranking the "hot
//! lanes" report is built from: the lanes most likely to block other
//! probes and force victim selection.
//!
//! [`TraceEvent::ProbeHop`]: wavesim_trace::TraceEvent::ProbeHop
//! [`TraceEvent::CircuitReleased`]: wavesim_trace::TraceEvent::CircuitReleased

use wavesim_sim::Cycle;

use crate::live::{slot, NONE};

/// Reservation statistics for one wave lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneStats {
    /// Physical link id.
    pub link: u32,
    /// Wave switch (1-based).
    pub switch: u8,
    /// Times a probe hop reserved this lane.
    pub reservations: u64,
    /// Total cycles the lane spent reserved (walks plus circuit holds;
    /// reservations still open at the end of the trace are closed at the
    /// last record's cycle).
    pub held_cycles: u64,
}

/// Singly linked lists threaded through one `Vec`, a list being the `u32`
/// index of its first node ([`NONE`] when empty). Popped nodes go on a
/// free list and are reused, so the arena grows to the most nodes ever
/// linked at once and no further.
struct Lists<T> {
    /// `(value, next node)`; the free list runs through `next` too.
    nodes: Vec<(T, u32)>,
    free: u32,
}

impl<T: Copy> Lists<T> {
    fn new() -> Self {
        Lists {
            nodes: Vec::new(),
            free: NONE,
        }
    }

    /// Puts `value` at the front of the list `*head`.
    fn push(&mut self, head: &mut u32, value: T) {
        let node = (value, *head);
        *head = if self.free == NONE {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let i = self.free;
            self.free = self.nodes[i as usize].1;
            self.nodes[i as usize] = node;
            i
        };
    }

    /// Takes the front of the list `*head` off it.
    fn pop(&mut self, head: &mut u32) -> Option<T> {
        if *head == NONE {
            return None;
        }
        let i = *head;
        let (value, next) = self.nodes[i as usize];
        self.nodes[i as usize].1 = self.free;
        self.free = i;
        *head = next;
        Some(value)
    }

    /// The values of the list `head`, front first.
    fn iter(&self, mut head: u32) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(move || {
            let (value, next) = *self.nodes.get(head as usize)?;
            head = next;
            Some(value)
        })
    }
}

/// One reserved lane: its dense index and the cycle the hop took it.
type Held = (u32, Cycle);

/// Lane-occupancy accounting over dense indices (circuits, probes and
/// lanes as [`crate::live::LiveAnalytics`] resolved them).
///
/// The lanes a probe holds are a stack — a backtrack releases the most
/// recent hop — and all the stacks live in one recycled arena: a capture's
/// worth of probe walks allocates for the most lanes ever held at once,
/// not a `Vec` per probe. The probes holding lanes for a circuit are lists
/// in a second arena.
pub(crate) struct LaneFold {
    /// Per circuit: the switch its last launch searched. The switch is
    /// named by the launch, not repeated on every hop.
    switch_of: Vec<Option<u8>>,
    /// Per circuit: its list in `members`.
    members_of: Vec<u32>,
    /// Per probe: its stack in `held`, most recent hop first.
    stack_of: Vec<u32>,
    held: Lists<Held>,
    /// Dense probe indices.
    members: Lists<u32>,
    /// Per lane, in first-reservation order.
    acc: Vec<LaneStats>,
}

impl LaneFold {
    /// An empty fold.
    pub fn new() -> Self {
        LaneFold {
            switch_of: Vec::new(),
            members_of: Vec::new(),
            stack_of: Vec::new(),
            held: Lists::new(),
            members: Lists::new(),
            acc: Vec::new(),
        }
    }

    /// Circuit `c` launched a probe into `switch`.
    pub fn launch(&mut self, c: usize, switch: u8) {
        *slot(&mut self.switch_of, c, || None) = Some(switch);
    }

    /// The switch a hop of circuit `c` reserves a lane of.
    pub fn switch_of(&self, c: usize) -> u8 {
        self.switch_of.get(c).copied().flatten().unwrap_or(1)
    }

    /// Probe `p` of circuit `c` reserved lane `lane`, which is
    /// `(link, switch)`, at `at`.
    pub fn hop(&mut self, c: usize, p: usize, lane: usize, (link, switch): (u32, u8), at: Cycle) {
        // Lane indices are handed out in first-appearance order and this
        // is the only place a lane appears.
        debug_assert!(lane <= self.acc.len());
        if lane == self.acc.len() {
            self.acc.push(LaneStats {
                link,
                switch,
                reservations: 0,
                held_cycles: 0,
            });
        }
        self.acc[lane].reservations += 1;
        let stack = slot(&mut self.stack_of, p, || NONE);
        self.held.push(stack, (lane as u32, at));
        let members = slot(&mut self.members_of, c, || NONE);
        if !self.members.iter(*members).any(|m| m == p as u32) {
            self.members.push(members, p as u32);
        }
    }

    /// Ends a reservation at `until`.
    fn close(acc: &mut [LaneStats], (lane, since): Held, until: Cycle) {
        let held = &mut acc[lane as usize].held_cycles;
        *held = held.saturating_add(until.saturating_sub(since));
    }

    /// Probe `p` stepped back at `at`, releasing its most recent lane.
    pub fn backtrack(&mut self, p: usize, at: Cycle) {
        let held = self.stack_of.get_mut(p).and_then(|s| self.held.pop(s));
        if let Some(held) = held {
            Self::close(&mut self.acc, held, at);
        }
    }

    /// Circuit `c` was released or abandoned at `at`: every lane its
    /// probes hold is free again.
    pub fn release(&mut self, c: usize, at: Cycle) {
        let Some(members) = self.members_of.get_mut(c) else {
            return;
        };
        while let Some(p) = self.members.pop(members) {
            while let Some(held) = self.held.pop(&mut self.stack_of[p as usize]) {
                Self::close(&mut self.acc, held, at);
            }
        }
    }

    /// Closes open reservations at `horizon` — the highest cycle folded —
    /// and returns the lanes sorted hottest first (held cycles, then
    /// reservations, then lane id: a total order).
    pub fn finish(mut self, horizon: Cycle) -> Vec<LaneStats> {
        // Reservations still open when the trace ends are charged to the
        // horizon; without this a saturated run would under-count its
        // hottest (never-released) lanes.
        for stack in &mut self.stack_of {
            while let Some(held) = self.held.pop(stack) {
                Self::close(&mut self.acc, held, horizon);
            }
        }
        let mut out = self.acc;
        out.sort_unstable_by(|a, b| {
            (b.held_cycles, b.reservations, a.link, a.switch).cmp(&(
                a.held_cycles,
                a.reservations,
                b.link,
                b.switch,
            ))
        });
        out
    }

    /// Rows in the largest table.
    #[cfg(test)]
    pub fn largest_table(&self) -> usize {
        [
            self.switch_of.len(),
            self.members_of.len(),
            self.stack_of.len(),
            self.held.nodes.len(),
            self.members.nodes.len(),
            self.acc.len(),
        ]
        .into_iter()
        .max()
        .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, AnalyzeOptions};
    use wavesim_trace::{TraceEvent, TraceRecord};

    fn rec(at: Cycle, seq: u64, ev: TraceEvent) -> TraceRecord {
        TraceRecord { at, seq, ev }
    }

    fn occupancy(records: &[TraceRecord]) -> Vec<LaneStats> {
        analyze(records, AnalyzeOptions::default()).lanes
    }

    fn hop(at: Cycle, seq: u64, circuit: u64, probe: u64, link: u32) -> TraceRecord {
        rec(
            at,
            seq,
            TraceEvent::ProbeHop {
                circuit,
                probe,
                node: 0,
                link,
                misroute: false,
            },
        )
    }

    #[test]
    fn walk_backtrack_and_release_account_hold_times() {
        let recs = vec![
            rec(
                0,
                0,
                TraceEvent::ProbeLaunch {
                    circuit: 1,
                    src: 0,
                    dest: 3,
                    switch: 2,
                    force: false,
                },
            ),
            hop(10, 1, 1, 7, 0),
            hop(12, 2, 1, 7, 4),
            rec(
                14,
                3,
                TraceEvent::ProbeBacktrack {
                    circuit: 1,
                    probe: 7,
                    node: 1,
                },
            ),
            hop(15, 4, 1, 7, 5),
            rec(30, 5, TraceEvent::CircuitReleased { circuit: 1 }),
        ];
        let lanes = occupancy(&recs);
        let find = |link: u32| lanes.iter().find(|l| l.link == link).unwrap();
        // Link 4 was reserved at 12, backtracked at 14.
        assert_eq!(find(4).held_cycles, 2);
        // Links 0 and 5 were held until the release at 30.
        assert_eq!(find(0).held_cycles, 20);
        assert_eq!(find(5).held_cycles, 15);
        assert!(lanes.iter().all(|l| l.switch == 2));
        // Sorted hottest first.
        assert_eq!(lanes[0].link, 0);
        assert_eq!(lanes[0].reservations, 1);
    }

    #[test]
    fn open_reservations_close_at_the_horizon() {
        let recs = vec![
            rec(
                0,
                0,
                TraceEvent::ProbeLaunch {
                    circuit: 1,
                    src: 0,
                    dest: 3,
                    switch: 1,
                    force: false,
                },
            ),
            hop(5, 1, 1, 7, 2),
            rec(
                25,
                2,
                TraceEvent::PlaneTick {
                    plane: wavesim_trace::PlaneId::Control,
                },
            ),
        ];
        let lanes = occupancy(&recs);
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].held_cycles, 20);
    }

    #[test]
    fn lists_reuse_popped_nodes_and_keep_lists_apart() {
        let mut lists = Lists::new();
        let (mut a, mut b) = (NONE, NONE);
        for round in 0..100u32 {
            lists.push(&mut a, round);
            lists.push(&mut b, round + 1000);
            lists.push(&mut a, round + 1);
            assert_eq!(lists.iter(a).collect::<Vec<_>>(), [round + 1, round]);
            assert_eq!(lists.pop(&mut a), Some(round + 1));
            assert_eq!(lists.pop(&mut b), Some(round + 1000));
            assert_eq!(lists.pop(&mut a), Some(round));
            assert_eq!(lists.pop(&mut a), None);
        }
        assert_eq!((a, b), (NONE, NONE));
        assert_eq!(lists.nodes.len(), 3, "the most nodes ever linked at once");
    }

    #[test]
    fn a_probe_hopping_for_two_circuits_is_released_by_whichever_ends_first() {
        // Not a stream the simulator writes, but one a file can hold: the
        // first release empties the probe's stack, the second finds nothing.
        let recs = vec![
            hop(0, 0, 1, 7, 3),
            hop(2, 1, 2, 7, 4),
            rec(10, 2, TraceEvent::CircuitReleased { circuit: 2 }),
            rec(50, 3, TraceEvent::CircuitAbandoned { circuit: 1 }),
        ];
        let lanes = occupancy(&recs);
        let held = |link| lanes.iter().find(|l| l.link == link).unwrap().held_cycles;
        assert_eq!((held(3), held(4)), (10, 8));
    }

    #[test]
    fn empty_trace_has_no_lanes() {
        assert!(occupancy(&[]).is_empty());
    }
}
