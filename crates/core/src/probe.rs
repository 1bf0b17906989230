//! Routing probes and the MB-m search state.
//!
//! [`ProbeFlit`] reproduces the probe format of the paper's Fig. 4 field
//! for field (Header, Backtrack, Misroute, Force, per-dimension offsets);
//! [`ProbeState`] is the bookkeeping a probe accumulates while walking the
//! control network — the path of reserved lanes (mirrored in the PCS
//! direct/reverse mapping registers) and the per-node History Store
//! entries that guarantee livelock freedom ("the probe is kept small" by
//! storing search history in the routers, §2; the simulator centralises
//! that distributed state per probe, which is observationally equivalent).

use wavesim_topology::{NodeId, Topology};

use crate::ids::{CircuitId, LaneId, ProbeId};

/// The wire format of a routing probe — Fig. 4 of the paper.
///
/// | Header | Backtrack | Misroute | Force | X1-offset … Xn-offset |
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeFlit {
    /// Identifies the flit as a probe (always set for probes).
    pub header: bool,
    /// Whether the probe is progressing (`false`) or backtracking (`true`).
    pub backtrack: bool,
    /// Number of misrouting operations performed so far.
    pub misroute: u8,
    /// Forces channel release of established circuits (CLRP phase two).
    pub force: bool,
    /// Signed offsets from the destination node, one per dimension,
    /// updated at every hop.
    pub offsets: Vec<i32>,
}

impl ProbeFlit {
    /// Builds the probe flit a source emits toward `dest`, storing the
    /// offset fields in `offsets` (whose old contents are discarded).
    #[must_use]
    pub fn new(
        topo: &Topology,
        src: NodeId,
        dest: NodeId,
        force: bool,
        mut offsets: Vec<i32>,
    ) -> Self {
        offsets.resize(topo.ndims(), 0);
        let mut flit = Self {
            header: true,
            backtrack: false,
            misroute: 0,
            force,
            offsets,
        };
        flit.update_offsets(topo, src, dest);
        flit
    }

    /// Recomputes the offset fields for the probe sitting at `node` —
    /// the per-dimension minimal offsets to `dest`, Fig. 4's
    /// `X1-offset..Xn-offset` — in place.
    pub fn update_offsets(&mut self, topo: &Topology, node: NodeId, dest: NodeId) {
        for (dim, offset) in self.offsets.iter_mut().enumerate() {
            *offset = topo.offset(node, dest, dim);
        }
    }

    /// True when every offset is zero — the probe has reached its
    /// destination.
    #[must_use]
    pub fn at_destination(&self) -> bool {
        self.offsets.iter().all(|&o| o == 0)
    }
}

/// History Store flag: the node is on the probe's reserved path. The low
/// 16 bits of a History Store word are the searched-port mask.
const ON_PATH: u32 = 1 << 31;

/// The heap buffers of a retired probe — History Store zeroed, path and
/// offsets empty — kept so the next probe launches without allocating.
#[derive(Debug, Default)]
pub struct ProbeBufs {
    history: Vec<u32>,
    path: Vec<LaneId>,
    offsets: Vec<i32>,
}

/// Live state of a probe walking the control network.
#[derive(Debug, Clone)]
pub struct ProbeState {
    /// This probe's id.
    pub id: ProbeId,
    /// The circuit attempt this probe works for.
    pub circuit: CircuitId,
    /// Source node (where backtracking ends).
    pub src: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// Wave switch being searched (1-based).
    pub switch: u8,
    /// The Fig. 4 flit contents.
    pub flit: ProbeFlit,
    /// Node the probe currently occupies.
    pub at: NodeId,
    /// Lanes reserved so far, in path order (source first). The PCS
    /// direct/reverse channel mappings hold the same information
    /// distributed across the routers.
    pub path: Vec<LaneId>,
    /// History Store: per node, bitmask of output ports already searched
    /// by this probe (low 16 bits) plus the on-path flag (bit 31), set
    /// while the node is on the reserved path — the path is simple, so one
    /// bit per node is exact. Dense (indexed by node id): the probe engine
    /// reads and writes it on every step, and a torus has few enough nodes
    /// that one `Vec<u32>` beats hashing even though most entries stay
    /// zero.
    pub history: Vec<u32>,
    /// Lane this probe is parked on, waiting for a forced teardown
    /// (CLRP phase two).
    pub parked_on: Option<LaneId>,
    /// Total hops walked (forward + backward), for livelock accounting.
    pub hops: u64,
    /// Total backtrack operations, for statistics.
    pub backtracks: u64,
}

impl ProbeState {
    /// Creates a fresh probe at its source, in the buffers `bufs` (a
    /// retired probe's, or `ProbeBufs::default()`).
    #[expect(clippy::too_many_arguments, reason = "one per probe field")]
    #[must_use]
    pub fn new(
        id: ProbeId,
        circuit: CircuitId,
        topo: &Topology,
        src: NodeId,
        dest: NodeId,
        switch: u8,
        force: bool,
        bufs: ProbeBufs,
    ) -> Self {
        assert!(switch >= 1, "probes search wave switches S1..Sk");
        let ProbeBufs {
            mut history,
            path,
            offsets,
        } = bufs;
        history.resize(topo.num_nodes() as usize, 0);
        let mut probe = Self {
            id,
            circuit,
            src,
            dest,
            switch,
            flit: ProbeFlit::new(topo, src, dest, force, offsets),
            at: src,
            path,
            history,
            parked_on: None,
            hops: 0,
            backtracks: 0,
        };
        probe.enter(src);
        probe
    }

    /// Hands the probe's buffers back for the next probe: the History
    /// Store entries die with the probe.
    #[must_use]
    pub fn retire(self) -> ProbeBufs {
        let Self {
            mut history,
            mut path,
            flit,
            ..
        } = self;
        history.fill(0);
        path.clear();
        ProbeBufs {
            history,
            path,
            offsets: flit.offsets,
        }
    }

    /// Puts `node` on the reserved path (the probe advanced into it).
    pub fn enter(&mut self, node: NodeId) {
        self.history[node.0 as usize] |= ON_PATH;
    }

    /// Takes `node` off the reserved path (the probe backtracked out).
    pub fn leave(&mut self, node: NodeId) {
        self.history[node.0 as usize] &= !ON_PATH;
    }

    /// True when `node` is on the reserved path (the source included).
    #[must_use]
    pub fn on_path(&self, node: NodeId) -> bool {
        self.history[node.0 as usize] & ON_PATH != 0
    }

    /// Marks output port `port_index` of `node` as searched.
    pub fn mark_searched(&mut self, node: NodeId, port_index: usize) {
        self.history[node.0 as usize] |= 1 << port_index;
    }

    /// True when output port `port_index` of `node` was already searched.
    #[must_use]
    pub fn searched(&self, node: NodeId, port_index: usize) -> bool {
        self.history[node.0 as usize] & (1 << port_index) != 0
    }

    /// An upper bound on the steps this probe may take, used by the
    /// livelock monitor: `2 · nodes · 2·ndims + 2`. Every forward step
    /// burns one History Store bit, of which there are at most
    /// `nodes · 2·ndims` (one per (node, port) slot); every backtrack
    /// unwinds one forward step; `+ 2` covers source/destination
    /// processing slack.
    #[must_use]
    pub fn step_bound(topo: &Topology) -> u64 {
        2 * (topo.num_nodes() as u64) * (2 * topo.ndims() as u64) + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesim_topology::{Coords, LinkId, Topology};

    fn t() -> Topology {
        Topology::mesh(&[4, 4])
    }

    #[test]
    fn probe_flit_matches_fig4() {
        let topo = t();
        let src = topo.node(Coords::new(&[0, 0]));
        let dest = topo.node(Coords::new(&[3, 1]));
        let f = ProbeFlit::new(&topo, src, dest, false, Vec::new());
        assert!(f.header);
        assert!(!f.backtrack);
        assert_eq!(f.misroute, 0);
        assert!(!f.force);
        assert_eq!(f.offsets, vec![3, 1]);
        assert!(!f.at_destination());
    }

    #[test]
    fn offsets_reach_zero_at_destination() {
        let topo = t();
        let dest = topo.node(Coords::new(&[2, 2]));
        let mut f = ProbeFlit::new(
            &topo,
            topo.node(Coords::new(&[0, 0])),
            dest,
            true,
            vec![7; 5],
        );
        f.update_offsets(&topo, dest, dest);
        assert!(f.at_destination());
        assert!(f.force, "force bit survives offset updates");
    }

    #[test]
    fn history_store_marks_ports() {
        let topo = t();
        let mut p = ProbeState::new(
            ProbeId(1),
            CircuitId(1),
            &topo,
            NodeId(0),
            NodeId(5),
            1,
            false,
            ProbeBufs::default(),
        );
        let n = NodeId(3);
        assert!(!p.searched(n, 0));
        p.mark_searched(n, 0);
        p.mark_searched(n, 3);
        assert!(p.searched(n, 0));
        assert!(!p.searched(n, 1));
        assert!(p.searched(n, 3));
        // Other nodes unaffected.
        assert!(!p.searched(NodeId(4), 0));
    }

    #[test]
    fn step_bound_is_finite_and_scales() {
        let small = ProbeState::step_bound(&Topology::mesh(&[4, 4]));
        let big = ProbeState::step_bound(&Topology::mesh(&[8, 8]));
        assert!(small > 0);
        assert!(big > small);
    }

    #[test]
    fn fresh_probe_holds_nothing() {
        let topo = t();
        let p = ProbeState::new(
            ProbeId(9),
            CircuitId(2),
            &topo,
            NodeId(1),
            NodeId(9),
            2,
            true,
            ProbeBufs::default(),
        );
        assert!(p.path.is_empty());
        assert!(p.parked_on.is_none());
        assert_eq!(p.at, NodeId(1));
        assert!(p.flit.force);
        assert_eq!(p.switch, 2);
        let _ = LaneId::new(LinkId(0), 1); // silence unused import in cfg(test)
    }
}
