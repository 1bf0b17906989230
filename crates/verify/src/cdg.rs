//! Channel dependency graphs — the paper's proof machinery, executable.
//!
//! Section 4 of the paper grounds its deadlock-freedom theorems in the
//! classical theory: a *deterministic* wormhole routing function is
//! deadlock-free iff its **channel dependency graph** (CDG) is acyclic
//! (Dally & Seitz, ref \[5\]); an *adaptive* function is deadlock-free if
//! every candidate set contains a channel of a deadlock-free **escape**
//! subfunction (Duato, refs \[8, 9\]).
//!
//! This module builds the CDG of a routing function over a concrete
//! topology and checks those conditions mechanically, so the test suite can
//! certify the exact fall-back routing functions used by CLRP/CARP phase 3
//! rather than trusting the construction.
//!
//! A CDG vertex is a *virtual channel*: a `(link, vc)` pair. There is an
//! edge `(c1 → c2)` iff some packet can hold `c1` while requesting `c2`,
//! i.e. iff for some destination the routing function can route a packet
//! into `c1` at one node and offer `c2` at the next. The graph is an edge
//! list of [`WaitVc`] keys, like the fabric's wait-for graph, so
//! [`find_wait_cycle`] searches both.

use wavesim_network::fabric::WaitVc;
use wavesim_topology::{LinkId, Topology, WormholeRouting};

use crate::deadlock::find_wait_cycle;

/// A CDG vertex: one virtual channel of one unidirectional link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelVertex {
    /// The physical link.
    pub link: LinkId,
    /// The virtual channel index on that link.
    pub vc: u8,
}

/// Which condition a [`CdgReport`] certifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckMode {
    /// Dally–Seitz: the full CDG of a deterministic function is acyclic.
    DirectAcyclic,
    /// Duato: the escape-subfunction CDG is acyclic *and* every candidate
    /// set contains at least one escape channel.
    DuatoEscape,
}

/// Result of a deadlock-freedom check.
#[derive(Debug, Clone)]
pub struct CdgReport {
    /// Which condition was checked.
    pub mode: CheckMode,
    /// Number of channel vertices with at least one incident edge.
    pub vertices: usize,
    /// Number of distinct dependency edges.
    pub edges: usize,
    /// A dependency cycle, if one exists (vertices in order; last depends
    /// on first).
    pub cycle: Option<Vec<ChannelVertex>>,
    /// For [`CheckMode::DuatoEscape`]: `(current, dest)` pairs whose
    /// candidate set lacked an escape channel (must be empty).
    pub missing_escape_pairs: usize,
    /// Overall verdict.
    pub deadlock_free: bool,
}

/// The distinct dependency edges of `routing` over `topo` (of its escape
/// subfunction when `escape_only`), and the number of channels they touch.
fn dependencies(
    topo: &Topology,
    routing: &dyn WormholeRouting,
    escape_only: bool,
) -> (Vec<(WaitVc, WaitVc)>, usize) {
    let vcs = usize::from(routing.vcs_per_link());
    let channel = |link: LinkId, vc: u8| link.0 as usize * vcs + usize::from(vc);
    // A channel has a few successors: a linear scan dedupes them.
    let mut succ: Vec<Vec<u32>> = vec![Vec::new(); topo.num_link_slots() * vcs];
    let mut cands_prev = Vec::new();
    let mut cands_cur = Vec::new();
    let route = |from, to, out: &mut Vec<_>| {
        out.clear();
        if escape_only {
            routing.escape_route(topo, from, to, out);
        } else {
            routing.route(topo, from, to, out);
        }
    };

    for dest in topo.nodes() {
        for prev in topo.nodes() {
            if prev == dest {
                continue;
            }
            route(prev, dest, &mut cands_prev);
            for &c1 in &cands_prev {
                let Some(current) = topo.neighbor(prev, c1.port) else {
                    continue;
                };
                if current == dest {
                    continue; // delivered: no further dependency
                }
                let held = &mut succ[channel(topo.link_id(prev, c1.port), c1.vc)];
                route(current, dest, &mut cands_cur);
                for &c2 in &cands_cur {
                    let next = channel(topo.link_id(current, c2.port), c2.vc) as u32;
                    if !held.contains(&next) {
                        held.push(next);
                    }
                }
            }
        }
    }

    let key = |c: usize| -> WaitVc { ((c / vcs) as u32, (c % vcs) as u16) };
    let mut touched = vec![false; succ.len()];
    let mut edges = Vec::new();
    for (from, outs) in succ.iter().enumerate() {
        touched[from] |= !outs.is_empty();
        for &to in outs {
            touched[to as usize] = true;
            edges.push((key(from), key(to as usize)));
        }
    }
    (edges, touched.iter().filter(|&&t| t).count())
}

/// `(current, dest)` pairs whose candidate set lacks an escape channel:
/// Duato's condition needs every escape candidate among the full set.
fn missing_escape_pairs(topo: &Topology, routing: &dyn WormholeRouting) -> usize {
    let mut missing = 0;
    let mut full = Vec::new();
    let mut esc = Vec::new();
    for dest in topo.nodes() {
        for cur in topo.nodes() {
            if cur == dest {
                continue;
            }
            full.clear();
            esc.clear();
            routing.route(topo, cur, dest, &mut full);
            routing.escape_route(topo, cur, dest, &mut esc);
            if esc.is_empty() || !esc.iter().all(|e| full.contains(e)) {
                missing += 1;
            }
        }
    }
    missing
}

/// Checks the appropriate deadlock-freedom condition for `routing` over
/// `topo`: Dally–Seitz for deterministic functions, Duato's escape
/// condition otherwise.
#[must_use]
pub fn check_deadlock_freedom(topo: &Topology, routing: &dyn WormholeRouting) -> CdgReport {
    let deterministic = routing.is_deterministic();
    let (edges, vertices) = dependencies(topo, routing, !deterministic);
    let cycle = find_wait_cycle(&edges).map(|cycle| {
        cycle
            .into_iter()
            .map(|(link, vc)| ChannelVertex {
                link: LinkId(link),
                vc: vc as u8,
            })
            .collect()
    });
    let (mode, missing) = if deterministic {
        (CheckMode::DirectAcyclic, 0)
    } else {
        (CheckMode::DuatoEscape, missing_escape_pairs(topo, routing))
    };
    CdgReport {
        mode,
        vertices,
        edges: edges.len(),
        deadlock_free: cycle.is_none() && missing == 0,
        cycle,
        missing_escape_pairs: missing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesim_topology::routing::{
        Candidate, DorMesh, DorTorus, DuatoAdaptive, EscapeFn, NaiveTorusDor,
    };
    use wavesim_topology::NodeId;

    #[test]
    fn dor_mesh_is_acyclic() {
        for dims in [&[4u16, 4][..], &[8, 8][..], &[4, 4, 4][..]] {
            let t = Topology::mesh(dims);
            let rep = check_deadlock_freedom(&t, &DorMesh::new(2));
            assert!(rep.deadlock_free, "mesh DOR must be deadlock-free: {rep:?}");
            assert!(rep.edges > 0);
        }
    }

    #[test]
    fn hypercube_ecube_is_acyclic() {
        let t = Topology::hypercube(4);
        let rep = check_deadlock_freedom(&t, &DorMesh::new(1));
        assert!(rep.deadlock_free);
    }

    #[test]
    fn dateline_torus_dor_is_acyclic() {
        for dims in [&[4u16, 4][..], &[5, 5][..], &[8, 8][..]] {
            let t = Topology::torus(dims);
            let rep = check_deadlock_freedom(&t, &DorTorus::new(1));
            assert!(
                rep.deadlock_free,
                "dateline torus DOR must be deadlock-free on {dims:?}: cycle={:?}",
                rep.cycle
            );
        }
    }

    #[test]
    fn naive_torus_dor_cycle_is_detected() {
        let t = Topology::torus(&[4, 4]);
        let rep = check_deadlock_freedom(&t, &NaiveTorusDor::new(1));
        assert!(!rep.deadlock_free, "single-class torus DOR must cycle");
        let cycle = rep.cycle.expect("a concrete cycle must be reported");
        assert!(cycle.len() >= 2);
        // The reported cycle must be a real cycle: consecutive vertices
        // connected head-to-tail through the topology.
        for w in cycle.windows(2) {
            let (a, b) = (w[0], w[1]);
            assert_eq!(
                t.link_dest(a.link),
                t.link_endpoints(b.link).0,
                "cycle edges must chain through nodes"
            );
        }
    }

    #[test]
    fn duato_adaptive_mesh_passes_escape_condition() {
        let t = Topology::mesh(&[6, 6]);
        let r = DuatoAdaptive::new(EscapeFn::Mesh, 2);
        let rep = check_deadlock_freedom(&t, &r);
        assert_eq!(rep.mode, CheckMode::DuatoEscape);
        assert!(rep.deadlock_free, "{rep:?}");
        assert_eq!(rep.missing_escape_pairs, 0);
    }

    #[test]
    fn duato_adaptive_torus_passes_escape_condition() {
        let t = Topology::torus(&[5, 5]);
        let r = DuatoAdaptive::new(EscapeFn::Torus, 1);
        let rep = check_deadlock_freedom(&t, &r);
        assert!(rep.deadlock_free, "{rep:?}");
    }

    /// Adaptive function whose escape set is NOT contained in its
    /// candidates for some pairs — violates the Duato condition and must
    /// be flagged.
    struct BrokenAdaptive;

    impl WormholeRouting for BrokenAdaptive {
        fn vcs_per_link(&self) -> u8 {
            2
        }
        fn route(&self, topo: &Topology, current: NodeId, dest: NodeId, out: &mut Vec<Candidate>) {
            // Adaptive channels only — never offers the escape channel.
            for port in topo.min_ports(current, dest) {
                out.push(Candidate { port, vc: 1 });
            }
        }
        fn escape_route(
            &self,
            topo: &Topology,
            current: NodeId,
            dest: NodeId,
            out: &mut Vec<Candidate>,
        ) {
            DorMesh::new(1).route(topo, current, dest, out);
        }
        fn is_deterministic(&self) -> bool {
            false
        }
        fn name(&self) -> &'static str {
            "broken-adaptive"
        }
    }

    #[test]
    fn missing_escape_channels_are_flagged() {
        let t = Topology::mesh(&[4, 4]);
        let rep = check_deadlock_freedom(&t, &BrokenAdaptive);
        assert!(!rep.deadlock_free);
        assert!(rep.missing_escape_pairs > 0);
    }

    #[test]
    fn cdg_edge_counts_are_sane() {
        let t = Topology::mesh(&[4, 4]);
        let rep = check_deadlock_freedom(&t, &DorMesh::new(1));
        // Each dependency chains two adjacent links; with 48 unidirectional
        // links there must be edges but not more than links^2.
        assert!(rep.edges > 0);
        assert!(rep.edges < 48 * 48);
        assert!(rep.vertices <= 48);
    }
}
