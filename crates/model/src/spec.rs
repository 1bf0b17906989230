//! Scenario descriptions: the finite instance handed to the checker — a
//! small topology, the [`WaveConfig`] core runs under, a fixed message
//! set, at most one lane fault and at most one planted [`Mutation`] (a
//! core type this is the only way to set), from which the checker builds
//! core's own [`wavesim_core::WaveNetwork`].

use wavesim_core::{LaneId, Mutation, ProtocolKind, WaveConfig};
use wavesim_topology::{NodeId, Topology};

/// A single lane fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// The lane that fails.
    pub lane: LaneId,
    /// Whether a repair move follows the fault.
    pub repair: bool,
}

/// Most messages a [`ModelSpec`] may hold.
pub const MAX_MSGS: usize = 8;

/// Most nodes a [`ModelSpec`]'s topology may have.
pub const MAX_NODES: u32 = 64;

/// A finite checking instance.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// The (small) topology.
    pub topo: Topology,
    /// The configuration core runs under.
    pub cfg: WaveConfig,
    /// Message `i` (id `i`) goes from `.0` to `.1`.
    pub msgs: Vec<(NodeId, NodeId)>,
    /// Optional single lane fault.
    pub fault: Option<FaultSpec>,
    /// The planted bug, if any.
    pub mutation: Mutation,
}

impl ModelSpec {
    /// A spec over `topo` running `protocol` with `k` wave switches, MB-0
    /// probes and one post-fault retry; no messages, fault or mutation.
    ///
    /// # Panics
    /// Panics on `k == 0` or the wormhole-only protocol.
    #[must_use]
    pub fn new(topo: Topology, protocol: ProtocolKind, k: u8) -> Self {
        assert!(k >= 1, "need at least one wave switch");
        assert_ne!(protocol, ProtocolKind::WormholeOnly, "nothing to check");
        Self {
            topo,
            cfg: WaveConfig {
                k,
                protocol,
                misroutes: 0,
                fault_retries: 1,
                ..WaveConfig::default()
            },
            msgs: Vec::new(),
            fault: None,
            mutation: Mutation::None,
        }
    }

    /// CLRP without the Force phase: pure MB-m search, then wormhole.
    #[must_use]
    pub fn without_force(mut self) -> Self {
        self.cfg.clrp.enable_force = false;
        self
    }

    /// Sets the MB-m misroute budget (MB-0 by default).
    #[must_use]
    pub fn misroutes(mut self, m: u8) -> Self {
        self.cfg.misroutes = m;
        self
    }

    /// The CLI spelling: `clrp`, `carp`, or `probe` (CLRP without Force).
    #[must_use]
    pub fn protocol_name(&self) -> &'static str {
        match self.cfg.protocol {
            ProtocolKind::Carp => "carp",
            ProtocolKind::Clrp if !self.cfg.clrp.enable_force => "probe",
            _ => "clrp",
        }
    }

    /// Adds a message from `src` to `dest`.
    ///
    /// # Panics
    /// Panics on a self-loop, an endpoint outside the topology, or more
    /// than [`MAX_MSGS`] messages.
    #[must_use]
    pub fn msg(mut self, src: u32, dest: u32) -> Self {
        assert_ne!(src, dest, "model messages must travel");
        let n = self.topo.num_nodes();
        assert!(src < n && dest < n, "message endpoint out of range");
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
    /// ([`wavesim_workloads::pattern_pairs`]).
    ///
    /// # Panics
    /// As [`ModelSpec::msg`], past [`MAX_MSGS`] messages.
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

    /// Arms a fault on switch 1 of message 0's first minimal hop.
    #[must_use]
    pub fn fault_on_first_path(mut self, repair: bool) -> Self {
        let (src, dest) = *self.msgs.first().expect("add messages before the fault");
        let port = self
            .topo
            .min_ports(src, dest)
            .iter()
            .next()
            .expect("src != dest has a minimal port");
        let lane = LaneId::new(self.topo.link_id(src, port), 1);
        self.fault = Some(FaultSpec { lane, repair });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_lands_on_msg0_first_hop() {
        let spec = ModelSpec::new(Topology::mesh(&[2, 2]), ProtocolKind::Clrp, 1)
            .msg(0, 3)
            .fault_on_first_path(false);
        let f = spec.fault.unwrap();
        // Lowest dimension first: 0 → 1 is the dim-0 Plus hop.
        assert_eq!(spec.topo.link_dest(f.lane.link), NodeId(1));
        assert_eq!(f.lane.switch, 1);
    }

    #[test]
    fn the_three_automata_keep_their_names() {
        let topo = Topology::mesh(&[2, 2]);
        let clrp = ModelSpec::new(topo.clone(), ProtocolKind::Clrp, 1);
        assert_eq!(clrp.protocol_name(), "clrp");
        assert_eq!(clrp.clone().without_force().protocol_name(), "probe");
        assert_eq!(
            ModelSpec::new(topo, ProtocolKind::Carp, 1).protocol_name(),
            "carp"
        );
        assert_eq!(clrp.cfg.misroutes, 0, "MB-0 unless asked");
    }
}
