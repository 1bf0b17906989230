//! CARP instruction traces — the "compiler" of §3.2, modelled as a trace
//! generator.
//!
//! The paper relies on "the programmer and/or the compiler \[to\] generate
//! instructions that instruct the router to set up a path or circuit that
//! will be heavily used during a certain period of time". No such compiler
//! exists (the paper itself estimates "several years"), so this module
//! emits the instruction streams such a compiler would produce for two
//! archetypal phased kernels:
//!
//! * [`CarpTrace::stencil`] — every node exchanges bursts with its +X/+Y
//!   neighbours each phase (relaxation/stencil codes);
//! * [`CarpTrace::pairwise`] — fixed hot pairs exchange message bursts
//!   (master/worker or halo-exchange style), using the same partner sets
//!   as the `HotPairs` traffic pattern so CLRP and CARP runs are
//!   comparable.

use wavesim_network::Message;
use wavesim_sim::{Cycle, SimRng};
use wavesim_topology::{Dir, NodeId, PortDir, Topology};

use crate::patterns::partners_of;

/// One CARP instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CarpOp {
    /// `ESTABLISH src → dest`: request a circuit ahead of use
    /// ("similar to prefetching for caches", §3).
    Establish {
        /// Requesting node.
        src: NodeId,
        /// Circuit destination.
        dest: NodeId,
    },
    /// `SEND`: submit a message (uses the circuit if one exists).
    Send(Message),
    /// `TEARDOWN src → dest`: release the circuit.
    Teardown {
        /// Owning node.
        src: NodeId,
        /// Circuit destination.
        dest: NodeId,
    },
}

/// A timed CARP instruction stream, sorted by cycle.
#[derive(Debug, Clone, Default)]
pub struct CarpTrace {
    /// `(cycle, op)` pairs in non-decreasing cycle order.
    pub ops: Vec<(Cycle, CarpOp)>,
    /// Ops before this index have been handed out by [`CarpTrace::due`].
    next: usize,
}

impl CarpTrace {
    /// A trace of `ops`, which must be in non-decreasing cycle order.
    #[must_use]
    pub fn new(ops: Vec<(Cycle, CarpOp)>) -> Self {
        let trace = Self { ops, next: 0 };
        trace.assert_sorted();
        trace
    }

    /// Number of `Send` ops in the trace.
    #[must_use]
    pub fn num_sends(&self) -> usize {
        self.ops
            .iter()
            .filter(|(_, op)| matches!(op, CarpOp::Send(_)))
            .count()
    }

    /// Last op time.
    #[must_use]
    pub fn horizon(&self) -> Cycle {
        self.ops.last().map_or(0, |(t, _)| *t)
    }

    /// The ops due at `now` not handed out before (call with
    /// non-decreasing `now`): a slice of `ops`, found by a search of the
    /// ops still ahead.
    pub fn due(&mut self, now: Cycle) -> &[(Cycle, CarpOp)] {
        let start = self.next;
        self.next += self.ops[start..].partition_point(|(t, _)| *t <= now);
        &self.ops[start..self.next]
    }

    fn assert_sorted(&self) {
        debug_assert!(
            self.ops.windows(2).all(|w| w[0].0 <= w[1].0),
            "trace must be time-sorted"
        );
    }

    /// Stencil kernel: `phases` rounds; in each round every node
    /// establishes circuits to its +X and +Y neighbours, sends
    /// `msgs_per_neighbor` messages of `len` flits, then tears the
    /// circuits down. `phase_gap` cycles separate rounds (time for
    /// establishment and transfers).
    #[must_use]
    pub fn stencil(
        topo: &Topology,
        phases: u32,
        msgs_per_neighbor: u32,
        len: u32,
        phase_gap: Cycle,
        setup_lead: Cycle,
    ) -> Self {
        assert!(setup_lead < phase_gap, "phase must outlast its setup lead");
        let mut ops = Vec::new();
        let mut id = 0u64;
        for phase in 0..phases {
            let t0 = u64::from(phase) * phase_gap;
            for node in topo.nodes() {
                for dim in 0..topo.ndims().min(2) {
                    let port = PortDir::new(dim, Dir::Plus);
                    let Some(nb) = topo.neighbor(node, port) else {
                        continue;
                    };
                    // Prefetch: establish ahead of the data.
                    ops.push((
                        t0,
                        CarpOp::Establish {
                            src: node,
                            dest: nb,
                        },
                    ));
                    for i in 0..msgs_per_neighbor {
                        let t = t0 + setup_lead + u64::from(i);
                        ops.push((t, CarpOp::Send(Message::new(id, node, nb, len, t))));
                        id += 1;
                    }
                    ops.push((
                        t0 + phase_gap - 1,
                        CarpOp::Teardown {
                            src: node,
                            dest: nb,
                        },
                    ));
                }
            }
        }
        ops.sort_by_key(|(t, _)| *t);
        Self::new(ops)
    }

    /// Total exchange (all-to-all personalised communication): in round
    /// `r`, node `i` sends one `len`-flit message to node `(i + r) mod N`.
    /// Each pair communicates exactly once, so a §3.2-style compiler emits
    /// **no** circuits — this is the zero-temporal-locality stress trace
    /// the literature uses to saturate wormhole networks.
    #[must_use]
    pub fn total_exchange(topo: &Topology, len: u32, round_gap: Cycle) -> Self {
        assert!(round_gap >= 1);
        let n = topo.num_nodes();
        let mut ops = Vec::new();
        let mut id = 0u64;
        for round in 1..n {
            let t = u64::from(round - 1) * round_gap;
            for i in 0..n {
                let src = NodeId(i);
                let dest = NodeId((i + round) % n);
                ops.push((t, CarpOp::Send(Message::new(id, src, dest, len, t))));
                id += 1;
            }
        }
        Self::new(ops)
    }

    /// Pairwise-exchange kernel: every node bursts `msgs_per_burst`
    /// messages to one of its partners per phase, bracketed by
    /// establish/teardown. See [`PairwiseSpec`] for the knobs.
    #[must_use]
    pub fn pairwise(topo: &Topology, spec: &PairwiseSpec) -> Self {
        assert!(
            spec.setup_lead < spec.phase_gap,
            "phase must outlast its lead"
        );
        assert!(spec.send_gap >= 1, "sends need spacing");
        let mut ops = Vec::new();
        let mut id = 0u64;
        let mut rng = SimRng::new(spec.seed);
        for phase in 0..spec.phases {
            let t0 = u64::from(phase) * spec.phase_gap;
            for node in topo.nodes() {
                let ps = partners_of(topo, node, spec.partners, spec.seed);
                // One partner per phase, round-robin with jitter, mimicking
                // a compiler that knows the upcoming communication epoch.
                if ps.is_empty() {
                    continue;
                }
                let dest = ps[(phase as usize + rng.index(ps.len())) % ps.len()];
                if spec.use_circuits {
                    ops.push((t0, CarpOp::Establish { src: node, dest }));
                }
                for i in 0..spec.msgs_per_burst {
                    let t = t0 + spec.setup_lead + u64::from(i) * spec.send_gap;
                    ops.push((t, CarpOp::Send(Message::new(id, node, dest, spec.len, t))));
                    id += 1;
                }
                if spec.use_circuits {
                    ops.push((
                        t0 + spec.phase_gap - 1,
                        CarpOp::Teardown { src: node, dest },
                    ));
                }
            }
        }
        ops.sort_by_key(|(t, _)| *t);
        Self::new(ops)
    }
}

/// Parameters of [`CarpTrace::pairwise`].
#[derive(Debug, Clone, Copy)]
pub struct PairwiseSpec {
    /// Partner-set size per node (shared with the `HotPairs` pattern).
    pub partners: u8,
    /// Number of communication phases.
    pub phases: u32,
    /// Messages per burst (the temporal-locality knob: this is how many
    /// times the circuit is reused before teardown).
    pub msgs_per_burst: u32,
    /// Message length in flits.
    pub len: u32,
    /// Cycles per phase.
    pub phase_gap: Cycle,
    /// How far ahead of the first send the ESTABLISH is issued
    /// (the "prefetch distance").
    pub setup_lead: Cycle,
    /// Spacing between consecutive sends of a burst.
    pub send_gap: Cycle,
    /// Emit ESTABLISH/TEARDOWN ops at all — `false` models a compiler
    /// that judged the locality insufficient for circuits (§3.2).
    pub use_circuits: bool,
    /// Seed for partner rotation.
    pub seed: u64,
}

impl Default for PairwiseSpec {
    fn default() -> Self {
        Self {
            partners: 3,
            phases: 3,
            msgs_per_burst: 8,
            len: 64,
            phase_gap: 3_000,
            setup_lead: 300,
            send_gap: 40,
            use_circuits: true,
            seed: 7,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::mesh(&[4, 4])
    }

    #[test]
    fn stencil_shape() {
        let t = topo();
        let trace = CarpTrace::stencil(&t, 2, 3, 32, 1000, 100);
        // 4x4 mesh: +X neighbours = 12 nodes have one, +Y likewise 12.
        // Per phase: 24 establishes, 24*3 sends, 24 teardowns.
        let establishes = trace
            .ops
            .iter()
            .filter(|(_, op)| matches!(op, CarpOp::Establish { .. }))
            .count();
        assert_eq!(establishes, 2 * 24);
        assert_eq!(trace.num_sends(), 2 * 24 * 3);
        let teardowns = trace
            .ops
            .iter()
            .filter(|(_, op)| matches!(op, CarpOp::Teardown { .. }))
            .count();
        assert_eq!(teardowns, 2 * 24);
        assert_eq!(trace.horizon(), 1999);
    }

    #[test]
    fn establish_precedes_sends_precede_teardown() {
        let t = topo();
        let trace = CarpTrace::stencil(&t, 1, 2, 16, 500, 50);
        // For an arbitrary (src, dest) pair, check op ordering.
        let src = NodeId(0);
        let dest = t.neighbor(src, PortDir::new(0, Dir::Plus)).unwrap();
        let mut t_est = None;
        let mut t_send = None;
        let mut t_tear = None;
        for (tm, op) in &trace.ops {
            match op {
                CarpOp::Establish { src: s, dest: d } if *s == src && *d == dest => {
                    t_est = Some(*tm);
                }
                CarpOp::Send(m) if m.src == src && m.dest == dest && t_send.is_none() => {
                    t_send = Some(*tm);
                }
                CarpOp::Teardown { src: s, dest: d } if *s == src && *d == dest => {
                    t_tear = Some(*tm);
                }
                _ => {}
            }
        }
        assert!(t_est.unwrap() < t_send.unwrap());
        assert!(t_send.unwrap() < t_tear.unwrap());
    }

    #[test]
    fn due_drains_in_order() {
        let t = topo();
        let mut trace = CarpTrace::stencil(&t, 1, 1, 8, 100, 10);
        let ops = trace.ops.clone();
        let mut drained = Vec::new();
        for now in 0..100 {
            let due = trace.due(now);
            assert!(due.iter().all(|&(t, _)| t <= now));
            drained.extend_from_slice(due);
        }
        assert_eq!(drained, ops, "every op once, in order");
        assert!(trace.due(1000).is_empty());
    }

    #[test]
    fn pairwise_uses_partner_sets() {
        let t = topo();
        let seed = 5;
        let trace = CarpTrace::pairwise(
            &t,
            &PairwiseSpec {
                partners: 3,
                phases: 2,
                msgs_per_burst: 4,
                len: 64,
                phase_gap: 2000,
                setup_lead: 200,
                seed,
                ..PairwiseSpec::default()
            },
        );
        for (_, op) in &trace.ops {
            if let CarpOp::Establish { src, dest } = op {
                let ps = partners_of(&t, *src, 3, seed);
                assert!(ps.contains(dest), "{dest} not a partner of {src}");
            }
        }
        assert_eq!(trace.num_sends(), 2 * 16 * 4);
    }

    #[test]
    fn send_ids_are_unique() {
        let t = topo();
        let trace = CarpTrace::stencil(&t, 3, 5, 16, 1000, 100);
        let mut ids = std::collections::HashSet::new();
        for (_, op) in &trace.ops {
            if let CarpOp::Send(m) = op {
                assert!(ids.insert(m.id));
            }
        }
    }

    #[test]
    fn total_exchange_covers_every_pair_once() {
        let t = topo(); // 16 nodes
        let trace = CarpTrace::total_exchange(&t, 8, 100);
        assert_eq!(trace.num_sends(), 16 * 15);
        let mut pairs = std::collections::HashSet::new();
        for (_, op) in &trace.ops {
            if let CarpOp::Send(m) = op {
                assert_ne!(m.src, m.dest);
                assert!(pairs.insert((m.src, m.dest)), "pair repeated");
            }
        }
        assert_eq!(pairs.len(), 16 * 15);
        // No circuit instructions at all: zero temporal locality.
        assert_eq!(trace.ops.len(), trace.num_sends());
        assert_eq!(trace.horizon(), 14 * 100);
    }
}
