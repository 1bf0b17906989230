//! Scenario descriptions and their compiled form.
//!
//! A [`ModelSpec`] is the *finite instance* handed to the checker: a small
//! topology, a protocol, a fixed message set, and at most one lane fault.
//! [`ModelSpec::compile`] lowers it to a [`ModelCtx`] with a dense lane
//! index (valid unidirectional links × switches), which is what makes
//! [`crate::state::ModelState`] a flat, canonical, hashable vector.
//!
//! [`Mutation`] re-introduces three known-unsafe behaviors on purpose.
//! A checker that proves theorems must also *disprove* their negations,
//! or a vacuous explorer would pass silently; each mutation removes one
//! load-bearing rule from the paper's proofs:
//!
//! * [`Mutation::DropRelease`] — a Force claim parks the probe but the
//!   release request to the victim is lost (the concurrent-release
//!   discard applied where it must not be): the victim never tears down
//!   and the parked probe strands — a lost-wakeup deadlock.
//! * [`Mutation::SkipBackoff`] — an exhausted probe skips the back-off
//!   to the wormhole escape path and relaunches phase one with a cleared
//!   History Store, voiding the finite-search premise of Theorems 3–4:
//!   a livelock lasso.
//! * [`Mutation::WaitEstablishing`] — force probes may wait on lanes held
//!   by circuits still being *established*, violating the §4 no-wait rule
//!   that Theorem 1's acyclicity argument hinges on: a genuine circular
//!   wait that [`wavesim_verify::deadlock::find_wait_cycle`] exhibits.

use wavesim_topology::{LinkId, NodeId, PortDir, Topology};

/// Protocol variant under check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelProtocol {
    /// CLRP with the Force bit: three phases, victim release, parking.
    Clrp,
    /// CLRP with Force disabled — pure probe/MB search over the switches
    /// (phase one only), then wormhole fall-back. This is the "probe/MB-m"
    /// scenario of the theorem tests.
    ClrpNoForce,
    /// CARP: explicit establish/teardown, no Force, no fault retry.
    Carp,
}

impl ModelProtocol {
    /// True for the CLRP family (re-establishes after a fault while
    /// retries remain).
    #[must_use]
    pub fn is_clrp(self) -> bool {
        !matches!(self, ModelProtocol::Carp)
    }

    /// True when phase two (Force) exists.
    #[must_use]
    pub fn force_enabled(self) -> bool {
        matches!(self, ModelProtocol::Clrp)
    }
}

/// A deliberate protocol mutation (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// The protocol as implemented — the theorems should hold.
    #[default]
    None,
    /// Lose the Force release request after parking the probe.
    DropRelease,
    /// Exhausted probes relaunch instead of falling back to wormhole.
    SkipBackoff,
    /// Force probes wait on Establishing circuits (no-wait rule removed).
    WaitEstablishing,
}

impl Mutation {
    /// The CLI spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::DropRelease => "drop-release",
            Mutation::SkipBackoff => "skip-backoff",
            Mutation::WaitEstablishing => "wait-establishing",
        }
    }
}

/// A single injected lane fault (the PR 4 fault/RetryWait path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Dense lane index (see [`ModelCtx::lane_of`]).
    pub lane: u16,
    /// Whether a repair event is also available after the fault.
    pub repair: bool,
}

/// Most messages (circuit attempts) a [`ModelSpec`] may hold: the state
/// space grows with every interleaving of their probes.
pub const MAX_MSGS: usize = 8;

/// Most nodes the topology of a compiled [`ModelSpec`] may have.
pub const MAX_NODES: u32 = 64;

/// A finite checking instance.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// The (small) topology.
    pub topo: Topology,
    /// Protocol variant.
    pub protocol: ModelProtocol,
    /// Wave switches per link (`S1..Sk`).
    pub k: u8,
    /// Message set: one circuit attempt per `(src, dest)` pair.
    pub msgs: Vec<(NodeId, NodeId)>,
    /// Optional single lane fault.
    pub fault: Option<FaultSpec>,
    /// Post-fault re-establishment budget (CLRP only; CARP never
    /// retries).
    pub retries: u8,
    /// Active mutation.
    pub mutation: Mutation,
}

impl ModelSpec {
    /// A spec over `topo` with protocol `protocol` and `k` switches; no
    /// messages, no fault, no mutation.
    #[must_use]
    pub fn new(topo: Topology, protocol: ModelProtocol, k: u8) -> Self {
        assert!(k >= 1, "need at least one wave switch");
        Self {
            topo,
            protocol,
            k,
            msgs: Vec::new(),
            fault: None,
            retries: 1,
            mutation: Mutation::None,
        }
    }

    /// Adds a message (circuit attempt) from `src` to `dest`.
    #[must_use]
    pub fn msg(mut self, src: u32, dest: u32) -> Self {
        assert_ne!(src, dest, "model messages must travel");
        assert!(
            self.msgs.len() < MAX_MSGS,
            "the explorer caps the message set at {MAX_MSGS}"
        );
        self.msgs.push((NodeId(src), NodeId(dest)));
        self
    }

    /// Sets the mutation.
    #[must_use]
    pub fn mutate(mut self, m: Mutation) -> Self {
        self.mutation = m;
        self
    }

    /// Fills the message set by sampling a workload traffic pattern
    /// ([`wavesim_workloads::pattern_pairs`]) — the bridge between the
    /// simulator's workload vocabulary and the checker's fixed specs.
    ///
    /// # Panics
    /// Panics if an existing message plus `count` would exceed
    /// [`MAX_MSGS`], or if the pattern yields a self-loop (patterns
    /// never do).
    #[must_use]
    pub fn msgs_from_pattern(
        mut self,
        pattern: wavesim_workloads::TrafficPattern,
        count: usize,
        seed: u64,
    ) -> Self {
        for (src, dest) in wavesim_workloads::pattern_pairs(&self.topo, pattern, count, seed) {
            self = self.msg(src.0, dest.0);
        }
        self
    }

    /// Arms a fault on the first lane (switch 1) of message 0's
    /// lowest-dimension minimal path — deterministic, and guaranteed to
    /// be a lane the protocol actually wants.
    #[must_use]
    pub fn fault_on_first_path(mut self, repair: bool) -> Self {
        let (src, dest) = *self.msgs.first().expect("add messages before the fault");
        let port = self
            .topo
            .min_ports(src, dest)
            .iter()
            .next()
            .expect("src != dest has a minimal port");
        let ctx = self.compile();
        let lane = ctx
            .lane_of(src, port, 1)
            .expect("minimal port has a physical link");
        self.fault = Some(FaultSpec { lane, repair });
        self
    }

    /// Compiles to the dense context the explorer runs against.
    ///
    /// # Panics
    /// Panics when a message endpoint is out of range or the instance is
    /// degenerate (no messages is allowed only for ad-hoc uses).
    #[must_use]
    pub fn compile(&self) -> ModelCtx {
        let n = self.topo.num_nodes();
        assert!(
            n <= MAX_NODES,
            "the explorer targets small fabrics (≤ {MAX_NODES} nodes)"
        );
        for &(s, d) in &self.msgs {
            assert!(s.0 < n && d.0 < n, "message endpoint out of range");
        }
        let links: Vec<LinkId> = self.topo.links().collect();
        let mut slot_to_dense = vec![u16::MAX; self.topo.num_link_slots()];
        for (i, l) in links.iter().enumerate() {
            slot_to_dense[l.0 as usize] = u16::try_from(i).expect("small fabric");
        }
        ModelCtx {
            spec: self.clone(),
            links,
            slot_to_dense,
        }
    }
}

/// A [`ModelSpec`] lowered to dense lane indices.
///
/// Dense lane `i` is `link_index * k + (switch - 1)` where `link_index`
/// enumerates the topology's *valid* unidirectional links in slot order —
/// the same canonical order every state vector uses.
#[derive(Debug, Clone)]
pub struct ModelCtx {
    /// The source spec.
    pub spec: ModelSpec,
    links: Vec<LinkId>,
    slot_to_dense: Vec<u16>,
}

impl ModelCtx {
    /// Number of dense lanes (`valid links × k`).
    #[must_use]
    pub fn lane_count(&self) -> usize {
        self.links.len() * usize::from(self.spec.k)
    }

    /// Dense lane for `node`'s output `port` at `switch` (1-based), or
    /// `None` at a mesh boundary.
    #[must_use]
    pub fn lane_of(&self, node: NodeId, port: PortDir, switch: u8) -> Option<u16> {
        debug_assert!(switch >= 1 && switch <= self.spec.k);
        self.spec.topo.neighbor(node, port)?;
        let slot = self.spec.topo.link_id(node, port).0 as usize;
        let dense = self.slot_to_dense[slot];
        debug_assert_ne!(dense, u16::MAX);
        Some(dense * u16::from(self.spec.k) + u16::from(switch - 1))
    }

    /// The physical link of a dense lane.
    #[must_use]
    pub fn link_of(&self, lane: u16) -> LinkId {
        self.links[lane as usize / usize::from(self.spec.k)]
    }

    /// The (source node, output port, switch) triple of a dense lane.
    #[must_use]
    pub fn lane_endpoints(&self, lane: u16) -> (NodeId, PortDir, u8) {
        let link = self.link_of(lane);
        let (node, port) = self.spec.topo.link_endpoints(link);
        let switch = (lane % u16::from(self.spec.k)) as u8 + 1;
        (node, port, switch)
    }

    /// The node a dense lane leads to.
    #[must_use]
    pub fn lane_dest(&self, lane: u16) -> NodeId {
        self.spec.topo.link_dest(self.link_of(lane))
    }

    /// The staggered initial switch for a probe from `src`: CLRP spreads
    /// initial-switch choices by source coordinates so concurrent probes
    /// do not all pile onto `S1`.
    #[must_use]
    pub fn initial_switch(&self, src: NodeId) -> u8 {
        let c = self.spec.topo.coords(src);
        let sum: u32 = (0..self.spec.topo.ndims())
            .map(|d| u32::from(c.get(d)))
            .sum();
        (sum % u32::from(self.spec.k)) as u8 + 1
    }

    /// Bitmask with one bit per switch (`switch s ⇒ bit s-1`).
    #[must_use]
    pub fn all_switches(&self) -> u8 {
        if self.spec.k >= 8 {
            u8::MAX
        } else {
            (1u8 << self.spec.k) - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesim_topology::{Dir, PortDir};

    #[test]
    fn dense_lanes_are_a_bijection() {
        let spec = ModelSpec::new(Topology::mesh(&[2, 2]), ModelProtocol::Clrp, 2);
        let ctx = spec.compile();
        assert_eq!(ctx.lane_count(), 8 * 2); // 8 unidirectional links × k=2
        let mut seen = vec![false; ctx.lane_count()];
        for node in ctx.spec.topo.nodes() {
            for port in ctx.spec.topo.ports_of(node) {
                for s in 1..=2u8 {
                    let lane = ctx.lane_of(node, port, s).unwrap();
                    assert!(!seen[lane as usize], "lane {lane} duplicated");
                    seen[lane as usize] = true;
                    let (n2, p2, s2) = ctx.lane_endpoints(lane);
                    assert_eq!((n2, p2, s2), (node, port, s));
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn boundary_ports_have_no_lane() {
        let spec = ModelSpec::new(Topology::mesh(&[2, 2]), ModelProtocol::Carp, 1);
        let ctx = spec.compile();
        // Node 0 of a 2x2 mesh has no Minus neighbours.
        assert!(ctx
            .lane_of(NodeId(0), PortDir::new(0, Dir::Minus), 1)
            .is_none());
    }

    #[test]
    fn fault_lands_on_msg0_first_hop() {
        let spec = ModelSpec::new(Topology::mesh(&[2, 2]), ModelProtocol::Clrp, 1)
            .msg(0, 3)
            .fault_on_first_path(false);
        let f = spec.fault.unwrap();
        let ctx = spec.compile();
        // Lowest dimension first: 0 → 1 is the dim-0 Plus hop.
        assert_eq!(ctx.lane_dest(f.lane), NodeId(1));
    }
}
