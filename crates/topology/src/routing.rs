//! Deadlock-free wormhole routing functions.
//!
//! The wave router's `S0` switch routes ordinary messages with a routing
//! algorithm that *must be deadlock-free* (paper §2). This module provides
//! the three classical options the paper cites:
//!
//! * [`DorMesh`] — dimension-order (e-cube) routing for meshes and
//!   hypercubes; acyclic channel dependencies by construction (Dally–Seitz,
//!   ref \[5\]);
//! * [`DorTorus`] — dimension-order routing for tori with the two-class
//!   *dateline* virtual-channel scheme that breaks ring cycles (ref \[5\]);
//! * [`DuatoAdaptive`] — minimal fully adaptive routing layered over an
//!   escape subnetwork running one of the above, per Duato's sufficient
//!   condition (refs \[8, 9\]).
//!
//! A routing function answers: *given a packet at `current` heading to
//! `dest`, which (output port, virtual channel) pairs may it take next?*
//! Routing is stateless in the packet (header offsets identify `dest`), so
//! candidate sets depend only on `(current, dest)` — exactly the setting of
//! Duato's theory, and what `wavesim-verify`'s CDG check certifies
//! mechanically.

use crate::coords::Dir;
use crate::topo::{NodeId, PortDir, Topology};

/// One admissible next hop: an output port plus a virtual-channel index on
/// that port's link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Candidate {
    /// Output port to take.
    pub port: PortDir,
    /// Virtual channel index within that link (`0..vcs_per_link`).
    pub vc: u8,
}

/// A wormhole routing function.
pub trait WormholeRouting: Send + Sync {
    /// Virtual channels per physical link this function requires/uses.
    fn vcs_per_link(&self) -> u8;

    /// Appends all admissible (port, vc) candidates for a packet at
    /// `current` heading to `dest` (`current != dest`), most-preferred
    /// first. Must append at least one candidate for every reachable pair.
    fn route(&self, topo: &Topology, current: NodeId, dest: NodeId, out: &mut Vec<Candidate>);

    /// Appends the *escape* candidates — the deadlock-free subnetwork of
    /// Duato's condition. For deterministic functions this equals
    /// [`WormholeRouting::route`].
    fn escape_route(
        &self,
        topo: &Topology,
        current: NodeId,
        dest: NodeId,
        out: &mut Vec<Candidate>,
    ) {
        self.route(topo, current, dest, out);
    }

    /// True when the function offers no routing freedom (candidates differ
    /// only in VC replication on a single port).
    fn is_deterministic(&self) -> bool;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Dimension-order routing for meshes and hypercubes.
///
/// Corrects the lowest nonzero offset dimension first; within the chosen
/// port, all `vcs` virtual channels are interchangeable (replication does
/// not add dependencies, so acyclicity is preserved).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DorMesh {
    /// Virtual channels per link (≥ 1); pure replication.
    pub vcs: u8,
}

impl DorMesh {
    /// Creates mesh DOR with `vcs` replicated virtual channels.
    ///
    /// # Panics
    /// Panics if `vcs == 0`.
    #[must_use]
    pub fn new(vcs: u8) -> Self {
        assert!(vcs >= 1, "mesh DOR needs at least one virtual channel");
        Self { vcs }
    }

    fn port_toward(topo: &Topology, current: NodeId, dest: NodeId) -> PortDir {
        for d in 0..topo.ndims() {
            let off = topo.offset(current, dest, d);
            if off > 0 {
                return PortDir::new(d, Dir::Plus);
            }
            if off < 0 {
                return PortDir::new(d, Dir::Minus);
            }
        }
        unreachable!("route() called with current == dest");
    }
}

impl WormholeRouting for DorMesh {
    fn vcs_per_link(&self) -> u8 {
        self.vcs
    }

    fn route(&self, topo: &Topology, current: NodeId, dest: NodeId, out: &mut Vec<Candidate>) {
        let port = Self::port_toward(topo, current, dest);
        for vc in 0..self.vcs {
            out.push(Candidate { port, vc });
        }
    }

    fn is_deterministic(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "dor-mesh"
    }
}

/// Dimension-order routing for tori with dateline virtual-channel classes.
///
/// Each link carries `2 · replication` virtual channels: class 0 ("before
/// the dateline") occupies indices `0..replication`, class 1 ("after the
/// dateline") indices `replication..2·replication`. A packet travelling
/// along a ring uses class 0 while its remaining path still crosses the
/// wraparound link of that ring and class 1 afterwards, which removes the
/// cyclic dependency around each ring (Dally–Seitz).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DorTorus {
    /// Virtual channels per class (≥ 1); total VCs per link is `2·replication`.
    pub replication: u8,
}

impl DorTorus {
    /// Creates torus DOR with `replication` VCs per dateline class.
    ///
    /// # Panics
    /// Panics if `replication == 0`.
    #[must_use]
    pub fn new(replication: u8) -> Self {
        assert!(
            replication >= 1,
            "torus DOR needs at least one VC per class"
        );
        Self { replication }
    }
}

impl WormholeRouting for DorTorus {
    fn vcs_per_link(&self) -> u8 {
        2 * self.replication
    }

    fn route(&self, topo: &Topology, current: NodeId, dest: NodeId, out: &mut Vec<Candidate>) {
        let port = DorMesh::port_toward(topo, current, dest);
        let class: u8 = u8::from(!topo.crosses_dateline(current, dest, port));
        for j in 0..self.replication {
            out.push(Candidate {
                port,
                vc: class * self.replication + j,
            });
        }
    }

    fn is_deterministic(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "dor-torus"
    }
}

/// The escape routing function underneath [`DuatoAdaptive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EscapeFn {
    /// Mesh/hypercube escape: single-VC dimension-order routing.
    Mesh,
    /// Torus escape: two-class dateline dimension-order routing.
    Torus,
}

/// Duato-style minimal fully adaptive routing.
///
/// Links carry `escape_vcs + adaptive_vcs` virtual channels. The adaptive
/// channels (high indices) admit *any* minimal direction; the escape
/// channels (low indices) follow the deterministic base function. Because a
/// packet may select an escape channel at every node, Duato's sufficient
/// condition for deadlock freedom holds (refs \[8, 9\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DuatoAdaptive {
    escape: EscapeFn,
    adaptive_vcs: u8,
}

impl DuatoAdaptive {
    /// Creates an adaptive function with the given escape base and
    /// `adaptive_vcs` fully adaptive channels per link.
    ///
    /// # Panics
    /// Panics if `adaptive_vcs == 0` (use the base function directly).
    #[must_use]
    pub fn new(escape: EscapeFn, adaptive_vcs: u8) -> Self {
        assert!(adaptive_vcs >= 1, "adaptive function needs adaptive VCs");
        Self {
            escape,
            adaptive_vcs,
        }
    }

    fn escape_vcs(&self) -> u8 {
        match self.escape {
            EscapeFn::Mesh => 1,
            EscapeFn::Torus => 2,
        }
    }

    fn base_route(&self, topo: &Topology, current: NodeId, dest: NodeId, out: &mut Vec<Candidate>) {
        match self.escape {
            EscapeFn::Mesh => DorMesh::new(1).route(topo, current, dest, out),
            EscapeFn::Torus => DorTorus::new(1).route(topo, current, dest, out),
        }
    }
}

impl WormholeRouting for DuatoAdaptive {
    fn vcs_per_link(&self) -> u8 {
        self.escape_vcs() + self.adaptive_vcs
    }

    fn route(&self, topo: &Topology, current: NodeId, dest: NodeId, out: &mut Vec<Candidate>) {
        let base = self.escape_vcs();
        // Adaptive candidates: every minimal port, every adaptive VC.
        for port in topo.min_ports(current, dest) {
            for j in 0..self.adaptive_vcs {
                out.push(Candidate { port, vc: base + j });
            }
        }
        // Escape candidates last (least preferred, always present).
        self.base_route(topo, current, dest, out);
    }

    fn escape_route(
        &self,
        topo: &Topology,
        current: NodeId,
        dest: NodeId,
        out: &mut Vec<Candidate>,
    ) {
        self.base_route(topo, current, dest, out);
    }

    fn is_deterministic(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "duato-adaptive"
    }
}

/// **Deliberately broken** torus routing: dimension-order with a single
/// virtual-channel class, ignoring the dateline.
///
/// The wraparound links close the textbook cyclic dependency around every
/// ring, so this function *can deadlock*. It exists as a negative control:
/// `wavesim-verify`'s CDG check must find its cycle and its runtime deadlock
/// detector must trip on it under saturation. Never use
/// it in a real configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NaiveTorusDor {
    /// Virtual channels per link (pure replication — still deadlocks).
    pub vcs: u8,
}

impl NaiveTorusDor {
    /// Creates the broken function with `vcs` replicated channels.
    ///
    /// # Panics
    /// Panics if `vcs == 0`.
    #[must_use]
    pub fn new(vcs: u8) -> Self {
        assert!(vcs >= 1);
        Self { vcs }
    }
}

impl WormholeRouting for NaiveTorusDor {
    fn vcs_per_link(&self) -> u8 {
        self.vcs
    }

    fn route(&self, topo: &Topology, current: NodeId, dest: NodeId, out: &mut Vec<Candidate>) {
        let port = DorMesh::port_toward(topo, current, dest);
        for vc in 0..self.vcs {
            out.push(Candidate { port, vc });
        }
    }

    fn is_deterministic(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "naive-torus-dor(BROKEN)"
    }
}

/// Serializable routing-function selector for experiment configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingKind {
    /// Deterministic dimension-order routing (mesh/hypercube or torus,
    /// chosen by the topology).
    Deterministic,
    /// Duato minimal fully adaptive routing over a deterministic escape.
    Adaptive,
}

impl RoutingKind {
    /// Builds the routing function for `topo` using `w` wormhole data VCs
    /// per link, mirroring the paper's `w` parameter.
    ///
    /// # Panics
    /// Panics when `w` is too small for the requested function on the given
    /// topology (torus DOR needs 2, adaptive needs one more than its escape).
    #[must_use]
    pub fn build(self, topo: &Topology, w: u8) -> Box<dyn WormholeRouting> {
        use crate::topo::TopologyKind;
        match (self, topo.kind()) {
            (RoutingKind::Deterministic, TopologyKind::Mesh) => Box::new(DorMesh::new(w)),
            (RoutingKind::Deterministic, TopologyKind::Torus) => {
                assert!(w >= 2, "torus DOR needs w >= 2 virtual channels, got {w}");
                assert!(
                    w.is_multiple_of(2),
                    "torus DOR replicates 2 classes; w must be even, got {w}"
                );
                Box::new(DorTorus::new(w / 2))
            }
            (RoutingKind::Adaptive, TopologyKind::Mesh) => {
                assert!(w >= 2, "adaptive mesh routing needs w >= 2, got {w}");
                Box::new(DuatoAdaptive::new(EscapeFn::Mesh, w - 1))
            }
            (RoutingKind::Adaptive, TopologyKind::Torus) => {
                assert!(w >= 3, "adaptive torus routing needs w >= 3, got {w}");
                Box::new(DuatoAdaptive::new(EscapeFn::Torus, w - 2))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coords::Coords;

    fn candidates(
        r: &dyn WormholeRouting,
        topo: &Topology,
        from: &[u16],
        to: &[u16],
    ) -> Vec<Candidate> {
        let mut out = Vec::new();
        r.route(
            topo,
            topo.node(Coords::new(from)),
            topo.node(Coords::new(to)),
            &mut out,
        );
        out
    }

    #[test]
    fn dor_mesh_lowest_dimension_first() {
        let t = Topology::mesh(&[8, 8]);
        let r = DorMesh::new(2);
        let c = candidates(&r, &t, &[1, 1], &[5, 5]);
        assert_eq!(c.len(), 2);
        assert!(c.iter().all(|c| c.port == PortDir::new(0, Dir::Plus)));
        // Dim 0 resolved: moves in dim 1.
        let c = candidates(&r, &t, &[5, 1], &[5, 5]);
        assert!(c.iter().all(|c| c.port == PortDir::new(1, Dir::Plus)));
        // Negative offsets go Minus.
        let c = candidates(&r, &t, &[5, 5], &[2, 5]);
        assert!(c.iter().all(|c| c.port == PortDir::new(0, Dir::Minus)));
    }

    #[test]
    fn dor_mesh_candidates_cover_all_vcs() {
        let t = Topology::mesh(&[4, 4]);
        let r = DorMesh::new(3);
        let c = candidates(&r, &t, &[0, 0], &[3, 0]);
        let vcs: Vec<u8> = c.iter().map(|c| c.vc).collect();
        assert_eq!(vcs, vec![0, 1, 2]);
    }

    #[test]
    fn dor_torus_dateline_classes() {
        let t = Topology::torus(&[8, 8]);
        let r = DorTorus::new(1);
        assert_eq!(r.vcs_per_link(), 2);
        // 6 -> 1 going Plus wraps: remaining path crosses dateline -> class 0.
        let c = candidates(&r, &t, &[6, 0], &[1, 0]);
        assert_eq!(
            c,
            vec![Candidate {
                port: PortDir::new(0, Dir::Plus),
                vc: 0
            }]
        );
        // 0 -> 1 after the wrap: no dateline ahead -> class 1.
        let c = candidates(&r, &t, &[0, 0], &[1, 0]);
        assert_eq!(
            c,
            vec![Candidate {
                port: PortDir::new(0, Dir::Plus),
                vc: 1
            }]
        );
        // Minus-direction wrap symmetric.
        let c = candidates(&r, &t, &[1, 0], &[6, 0]);
        assert_eq!(c[0].port, PortDir::new(0, Dir::Minus));
        assert_eq!(c[0].vc, 0);
    }

    #[test]
    fn dor_torus_replication_expands_classes() {
        let t = Topology::torus(&[4, 4]);
        let r = DorTorus::new(2);
        assert_eq!(r.vcs_per_link(), 4);
        let c = candidates(&r, &t, &[0, 0], &[1, 0]); // class 1 -> vcs {2,3}
        assert_eq!(c.iter().map(|c| c.vc).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn duato_adaptive_offers_all_minimal_ports_plus_escape() {
        let t = Topology::mesh(&[8, 8]);
        let r = DuatoAdaptive::new(EscapeFn::Mesh, 2);
        assert_eq!(r.vcs_per_link(), 3);
        let c = candidates(&r, &t, &[1, 1], &[4, 4]);
        // 2 minimal ports x 2 adaptive VCs + 1 escape candidate.
        assert_eq!(c.len(), 5);
        let adaptive: Vec<_> = c.iter().filter(|c| c.vc >= 1).collect();
        assert_eq!(adaptive.len(), 4);
        let ports: std::collections::HashSet<_> = adaptive.iter().map(|c| c.port).collect();
        assert!(ports.contains(&PortDir::new(0, Dir::Plus)));
        assert!(ports.contains(&PortDir::new(1, Dir::Plus)));
        // Escape candidate is DOR: dim 0 first, vc 0.
        let esc = c.last().unwrap();
        assert_eq!(esc.vc, 0);
        assert_eq!(esc.port, PortDir::new(0, Dir::Plus));
    }

    #[test]
    fn duato_escape_route_is_deterministic_base() {
        let t = Topology::torus(&[4, 4]);
        let r = DuatoAdaptive::new(EscapeFn::Torus, 1);
        let mut esc = Vec::new();
        r.escape_route(
            &t,
            t.node(Coords::new(&[0, 0])),
            t.node(Coords::new(&[1, 0])),
            &mut esc,
        );
        let base = DorTorus::new(1);
        let expect = candidates(&base, &t, &[0, 0], &[1, 0]);
        assert_eq!(esc, expect);
    }

    #[test]
    fn every_reachable_pair_has_candidates() {
        for topo in [Topology::mesh(&[4, 4]), Topology::torus(&[4, 4])] {
            let fns: Vec<Box<dyn WormholeRouting>> = vec![
                RoutingKind::Deterministic.build(&topo, 2),
                RoutingKind::Adaptive.build(&topo, 3),
            ];
            for r in &fns {
                for a in topo.nodes() {
                    for b in topo.nodes() {
                        if a == b {
                            continue;
                        }
                        let mut out = Vec::new();
                        r.route(&topo, a, b, &mut out);
                        assert!(!out.is_empty(), "{} gave no route {a}->{b}", r.name());
                        for c in &out {
                            assert!(c.vc < r.vcs_per_link());
                            assert!(
                                topo.neighbor(a, c.port).is_some(),
                                "candidate uses a boundary port"
                            );
                            // All candidates must be minimal.
                            let n = topo.neighbor(a, c.port).unwrap();
                            assert_eq!(topo.distance(n, b) + 1, topo.distance(a, b));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn build_selects_per_topology() {
        let mesh = Topology::mesh(&[4, 4]);
        let torus = Topology::torus(&[4, 4]);
        assert_eq!(RoutingKind::Deterministic.build(&mesh, 1).vcs_per_link(), 1);
        assert_eq!(
            RoutingKind::Deterministic.build(&torus, 4).vcs_per_link(),
            4
        );
        assert_eq!(RoutingKind::Adaptive.build(&mesh, 2).vcs_per_link(), 2);
        assert_eq!(RoutingKind::Adaptive.build(&torus, 3).vcs_per_link(), 3);
    }

    #[test]
    #[should_panic(expected = "w >= 2")]
    fn torus_dor_needs_two_vcs() {
        let torus = Topology::torus(&[4, 4]);
        let _ = RoutingKind::Deterministic.build(&torus, 1);
    }
}
