//! Runtime deadlock detection (Theorems 1–2, executed).
//!
//! Two complementary signals:
//!
//! 1. **Progress age** — the wormhole fabric records the last cycle any
//!    flit moved; a busy fabric whose age exceeds the threshold is frozen.
//! 2. **Wait-for-graph cycle** — the fabric exposes `(held VC →
//!    requested VC)` edges for every blocked head flit. Under
//!    deterministic routing each packet has one requested channel, so a
//!    cycle in this graph is a genuine circular wait: a deadlock by
//!    definition, not merely congestion.
//!
//! A healthy CLRP/CARP run must never produce either signal; the
//! `NaiveTorusDor` negative control must produce both.

use wavesim_core::WaveNetwork;
use wavesim_network::fabric::WaitVc;
use wavesim_network::WormholeFabric;
use wavesim_sim::Cycle;

/// Result of a deadlock check.
#[derive(Debug, Clone)]
pub struct DeadlockReport {
    /// The network was busy yet made no progress for this many cycles.
    pub stall_age: u64,
    /// Flits stuck in the network at check time.
    pub in_flight_flits: u64,
    /// A circular wait among output virtual channels, if one exists.
    pub wait_cycle: Option<Vec<WaitVc>>,
    /// Combined verdict: `true` means a deadlock was detected.
    pub deadlocked: bool,
}

/// Finds a cycle in a wait-for graph, if any: the fabric's output-VC
/// graph, a channel dependency graph ([`crate::cdg`]) or a model state's
/// parked-probe graph. The cycle comes back in edge order; its last
/// vertex waits on its first.
///
/// The graph arrives as an edge list over sparse two-integer keys.
/// Vertices are interned into a dense index space (sort + dedup +
/// binary search), the adjacency is packed into CSR form, and the search
/// is a three-color iterative DFS over plain vectors — no hashing
/// anywhere, so the check stays cheap even when the stall monitor calls
/// it on a large saturated fabric.
#[must_use]
pub fn find_wait_cycle(edges: &[(WaitVc, WaitVc)]) -> Option<Vec<WaitVc>> {
    if edges.is_empty() {
        return None;
    }

    // Intern the vertices.
    let mut verts: Vec<WaitVc> = Vec::with_capacity(edges.len() * 2);
    for &(a, b) in edges {
        verts.push(a);
        verts.push(b);
    }
    verts.sort_unstable();
    verts.dedup();
    let id_of = |v: WaitVc| -> u32 { verts.binary_search(&v).expect("interned vertex") as u32 };
    let n = verts.len();

    // Pack the adjacency into CSR form (counting sort by source).
    let mut deg = vec![0u32; n];
    for &(a, _) in edges {
        deg[id_of(a) as usize] += 1;
    }
    let mut start = vec![0u32; n + 1];
    for i in 0..n {
        start[i + 1] = start[i] + deg[i];
    }
    let mut fill = start.clone();
    let mut adj = vec![0u32; edges.len()];
    for &(a, b) in edges {
        let s = id_of(a) as usize;
        adj[fill[s] as usize] = id_of(b);
        fill[s] += 1;
    }

    // Three-color iterative DFS: WHITE unvisited, GRAY on the current
    // path, BLACK exhausted. A GRAY successor closes a cycle.
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; n];
    let mut stack: Vec<(u32, u32)> = Vec::new(); // (vertex, next out-edge offset)
    let mut path: Vec<u32> = Vec::new();
    for root in 0..n as u32 {
        if color[root as usize] != WHITE {
            continue;
        }
        color[root as usize] = GRAY;
        stack.push((root, start[root as usize]));
        path.push(root);
        while let Some(&mut (v, ref mut next)) = stack.last_mut() {
            if *next < start[v as usize + 1] {
                let w = adj[*next as usize];
                *next += 1;
                match color[w as usize] {
                    GRAY => {
                        // Cycle: slice the path from w onward.
                        let pos = path.iter().position(|&x| x == w).expect("on path");
                        return Some(path[pos..].iter().map(|&i| verts[i as usize]).collect());
                    }
                    WHITE => {
                        color[w as usize] = GRAY;
                        stack.push((w, start[w as usize]));
                        path.push(w);
                    }
                    _ => {}
                }
            } else {
                stack.pop();
                let popped = path.pop().expect("path mirrors stack");
                color[popped as usize] = BLACK;
            }
        }
    }
    None
}

/// Checks the wormhole fabric for deadlock at cycle `now`. `threshold` is
/// the no-progress age (in cycles) from which a busy fabric counts as
/// frozen; size it well above the worst honest service time (e.g. a few
/// thousand cycles for the topologies used here). A frozen fabric's
/// wait-for graph is searched for a circular wait.
#[must_use]
pub fn check_fabric(fabric: &WormholeFabric, now: Cycle, threshold: u64) -> DeadlockReport {
    let in_flight = fabric.in_flight_flits();
    let stall_age = if in_flight > 0 {
        fabric.progress_age(now)
    } else {
        0
    };
    let frozen = in_flight > 0 && stall_age >= threshold;
    let wait_cycle = if frozen {
        find_wait_cycle(&fabric.wait_edges())
    } else {
        None
    };
    DeadlockReport {
        stall_age,
        in_flight_flits: in_flight,
        deadlocked: frozen,
        wait_cycle,
    }
}

/// Checks the full wave-switched network: the wormhole plane's freeze
/// detector plus the protocol-plane invariant audit. The control plane
/// itself cannot silently freeze (every pending action is a scheduled
/// event), so the protocol-plane check is structural.
#[must_use]
pub fn check_wave(net: &WaveNetwork, now: Cycle, threshold: u64) -> DeadlockReport {
    let mut report = check_fabric(net.fabric(), now, threshold);
    // A consistent protocol plane cannot hold the fabric hostage; surface
    // audit violations as a deadlock-adjacent failure.
    if !net.audit().is_empty() {
        report.deadlocked = true;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_no_cycle() {
        assert!(find_wait_cycle(&[]).is_none());
    }

    #[test]
    fn chain_has_no_cycle() {
        let e = [((0, 0), (1, 0)), ((1, 0), (2, 0)), ((2, 0), (3, 0))];
        assert!(find_wait_cycle(&e).is_none());
    }

    #[test]
    fn triangle_is_found() {
        let e = [((0, 0), (1, 0)), ((1, 0), (2, 0)), ((2, 0), (0, 0))];
        let c = find_wait_cycle(&e).expect("cycle");
        assert_eq!(c.len(), 3);
        // Every consecutive pair must be an edge.
        for i in 0..c.len() {
            let a = c[i];
            let b = c[(i + 1) % c.len()];
            assert!(e.contains(&(a, b)), "({a:?} -> {b:?}) missing");
        }
    }

    #[test]
    fn self_loop_is_found() {
        let e = [((5, 1), (5, 1))];
        let c = find_wait_cycle(&e).expect("self-loop");
        assert_eq!(c, vec![(5, 1)]);
    }

    #[test]
    fn large_ring_with_chords_is_found() {
        // A 512-vertex ring plus forward chords: every cycle uses the
        // wrap edge, and whichever one comes back must be a real walk.
        let n: u32 = 512;
        let mut e: Vec<(WaitVc, WaitVc)> = Vec::new();
        for i in 0..n {
            e.push(((i, 0), ((i + 1) % n, 0)));
            if i + 7 < n {
                e.push(((i, 0), (i + 7, 0)));
            }
        }
        let c = find_wait_cycle(&e).expect("ring cycle");
        for i in 0..c.len() {
            let a = c[i];
            let b = c[(i + 1) % c.len()];
            assert!(e.contains(&(a, b)), "({a:?} -> {b:?}) missing");
        }
    }

    #[test]
    fn layered_dag_has_no_cycle() {
        let mut e: Vec<(WaitVc, WaitVc)> = Vec::new();
        for layer in 0..16u32 {
            for i in 0..8u16 {
                for j in 0..8u16 {
                    e.push(((layer, i), (layer + 1, j)));
                }
            }
        }
        assert!(find_wait_cycle(&e).is_none());
    }

    #[test]
    fn branch_then_cycle_is_found() {
        let e = [
            ((0, 0), (1, 0)),
            ((1, 0), (2, 0)),
            ((1, 0), (3, 0)),
            ((3, 0), (4, 0)),
            ((4, 0), (1, 0)),
        ];
        let c = find_wait_cycle(&e).expect("cycle via branch");
        assert!(c.contains(&(1, 0)));
        assert!(c.contains(&(4, 0)));
    }

    /// The 4×4 naive-torus negative control: single-class torus DOR with
    /// every row ring full of wrapping wormholes, injected at cycle 0.
    fn naive_torus_rings() -> WormholeFabric {
        use wavesim_network::{Message, WormholeConfig};
        use wavesim_topology::{Coords, NaiveTorusDor, RoutingKind, Topology};

        let topo = Topology::torus(&[4, 4]);
        let mut fabric = WormholeFabric::with_routing(
            topo.clone(),
            WormholeConfig {
                w: 1,
                buffer_depth: 1,
                routing: RoutingKind::Deterministic,
                routing_delay: 1,
            },
            std::sync::Arc::new(NaiveTorusDor::new(1)),
        );
        let mut id = 0;
        for y in 0..4u16 {
            for x in 0..4u16 {
                let src = topo.node(Coords::new(&[x, y]));
                let dest = topo.node(Coords::new(&[(x + 2) % 4, y]));
                fabric.inject(Message::new(id, src, dest, 64, 0));
                id += 1;
            }
        }
        fabric
    }

    /// Ticks `fabric` from `from` while it is busy, up to cycle 5,000.
    fn run_to_freeze(fabric: &mut WormholeFabric, from: Cycle) -> Cycle {
        let mut now = from;
        while fabric.busy() && now < 5_000 {
            fabric.tick(now);
            now += 1;
        }
        now
    }

    /// The freeze test is inclusive: a deadlocked naive-torus fabric whose
    /// progress age is exactly the threshold is frozen, and its circular
    /// wait is named; one cycle short of the threshold it is not.
    #[test]
    fn check_fabric_freezes_at_exactly_the_threshold() {
        let mut fabric = naive_torus_rings();
        let now = run_to_freeze(&mut fabric, 0);
        let age = fabric.progress_age(now);
        assert!(fabric.busy() && age > 0, "the rings must deadlock");

        let at = check_fabric(&fabric, now, age);
        assert_eq!(at.stall_age, age);
        assert!(at.deadlocked, "{at:?}");
        assert!(at.wait_cycle.is_some(), "a frozen fabric names its wait");

        let short = check_fabric(&fabric, now, age + 1);
        assert_eq!(short.stall_age, age);
        assert!(!short.deadlocked, "{short:?}");
        assert!(short.wait_cycle.is_none());
    }

    /// A clone taken while the rings still move is the same fabric: both
    /// copies freeze on the same cycle, and the detector names the same
    /// circular wait in each.
    #[test]
    fn a_cloned_fabric_freezes_like_its_original() {
        let mut reference = naive_torus_rings();
        let end = run_to_freeze(&mut reference, 0);
        let frozen_at = end - reference.progress_age(end);
        assert!(frozen_at > 2, "the rings move before they freeze");

        let mut fabric = naive_torus_rings();
        let cloned_at = frozen_at / 2;
        for now in 0..cloned_at {
            fabric.tick(now);
        }
        let mut twin = fabric.clone();
        assert_eq!(run_to_freeze(&mut fabric, cloned_at), end);
        assert_eq!(run_to_freeze(&mut twin, cloned_at), end);
        let age = end - frozen_at;
        assert_eq!(fabric.progress_age(end), age, "the original freezes");
        assert_eq!(twin.progress_age(end), age, "the clone freezes with it");
        let (a, b) = (
            check_fabric(&fabric, end, age),
            check_fabric(&twin, end, age),
        );
        assert!(a.wait_cycle.is_some(), "{a:?}");
        assert_eq!(a.wait_cycle, b.wait_cycle);
    }

    /// Theorems 1–4 must survive the dynamic fault model: a CLRP run
    /// under continuous lane fail/repair churn stays deadlock-free (no
    /// wait cycle, no stall), audits clean at every sample, and still
    /// delivers every message.
    #[test]
    fn clrp_stays_deadlock_free_under_fault_churn() {
        use wavesim_core::{FaultEvent, LaneId, ProtocolKind, WaveConfig};
        use wavesim_network::Message;
        use wavesim_topology::{NodeId, Topology};

        let topo = Topology::mesh(&[5, 5]);
        let mut net = WaveNetwork::new(
            topo.clone(),
            WaveConfig {
                protocol: ProtocolKind::Clrp,
                misroutes: 3,
                cache_capacity: 3,
                ..WaveConfig::default()
            },
        );
        // Deterministic churn: every valid link fails and repairs on its
        // own staggered period while traffic flows.
        let links: Vec<_> = topo.links().collect();
        for (i, &link) in links.iter().enumerate() {
            let phase = 200 + (i as u64 * 97) % 1_500;
            for s in 1..=net.config().k {
                let lane = LaneId::new(link, s);
                net.schedule_fault(phase, FaultEvent::Fail(lane)).unwrap();
                net.schedule_fault(phase + 400, FaultEvent::Repair(lane))
                    .unwrap();
                net.schedule_fault(phase + 1_100, FaultEvent::Fail(lane))
                    .unwrap();
                net.schedule_fault(phase + 1_600, FaultEvent::Repair(lane))
                    .unwrap();
            }
        }
        let mut id = 0;
        let mut sent = 0u64;
        for round in 0..12u32 {
            for a in 0..25u32 {
                let b = (a + 3 + round) % 25;
                net.send(
                    u64::from(round) * 150,
                    Message::new(id, NodeId(a), NodeId(b), 48, u64::from(round) * 150),
                );
                id += 1;
                sent += 1;
            }
        }
        let mut now = 0;
        let mut delivered = 0u64;
        while net.busy() && now < 1_000_000 {
            net.tick(now);
            delivered += net.drain_deliveries().len() as u64;
            if now % 64 == 0 {
                let rep = check_wave(&net, now, 20_000);
                assert!(
                    !rep.deadlocked,
                    "deadlock under fault churn at {now}: {rep:?}"
                );
                assert!(rep.wait_cycle.is_none(), "wait cycle at {now}");
            }
            now += 1;
        }
        assert!(!net.busy(), "network failed to drain under churn");
        delivered += net.drain_deliveries().len() as u64;
        assert_eq!(delivered, sent, "messages lost under fault churn");
        assert!(net.audit().is_empty(), "{:?}", net.audit());
        let s = net.stats();
        assert!(s.lane_faults > 0 && s.lane_repairs > 0);
    }
}
