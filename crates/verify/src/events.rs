//! Trace observation: detectors that read the network's trace instead of
//! reaching into its state.
//!
//! Every cross-plane fact — probe launches, establishments, releases,
//! deliveries — is a `TraceEvent`, recorded by the call that counts it.
//! [`CircuitLedger`] folds a run's [`TraceRecord`]s into an independent
//! model of which circuits *should* be alive and how many messages
//! *should* have been delivered, then [`CircuitLedger::check`]
//! cross-validates the ledger against the network's own registry. A
//! divergence means a plane dropped, duplicated, or reordered a fact —
//! exactly the class of bug the refactor into planes could introduce and
//! state-based audits cannot see.

use std::collections::HashSet;

use wavesim_core::{CircuitId, WaveNetwork};
use wavesim_trace::{TraceEvent, TraceRecord};

/// An independent replay of the trace: circuit lifecycle and delivery
/// accounting, built only from [`TraceRecord`]s.
#[derive(Debug, Default)]
pub struct CircuitLedger {
    /// Circuits launched and neither abandoned nor released yet.
    live: HashSet<CircuitId>,
    /// Establishment attempts seen (`ProbeLaunch` with a new circuit).
    pub launched: u64,
    /// `CircuitEstablished` records seen.
    pub established: u64,
    /// `CircuitReleased` + `CircuitAbandoned` records seen.
    pub retired: u64,
    /// Deliveries seen (both transports).
    pub delivered: u64,
    /// Messages (re-)injected into the wormhole fabric.
    pub injected_wormhole: u64,
    /// Forced releases requested (`ForcedRelease`).
    pub forced_releases: u64,
    /// Circuits destroyed by dynamic faults (`CircuitBroken`). The
    /// teardown they trigger still ends in `CircuitReleased`, so liveness
    /// tracking is unaffected; this only counts the breakage.
    pub broken: u64,
}

impl CircuitLedger {
    /// Empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Circuits the trace says are alive right now.
    #[must_use]
    pub fn live(&self) -> &HashSet<CircuitId> {
        &self.live
    }

    /// Folds one batch of records (in sequence order) into the ledger:
    /// a whole capture at once, or a run's records batch by batch — only
    /// the order within the stream matters.
    pub fn observe(&mut self, records: &[TraceRecord]) {
        for rec in records {
            match rec.ev {
                TraceEvent::ProbeLaunch { circuit, .. } => {
                    self.launched += u64::from(self.live.insert(CircuitId(circuit)));
                }
                TraceEvent::CircuitEstablished { .. } => self.established += 1,
                TraceEvent::CircuitReleased { circuit }
                | TraceEvent::CircuitAbandoned { circuit } => {
                    self.retired += u64::from(self.live.remove(&CircuitId(circuit)));
                }
                TraceEvent::WormholeDeliver { .. } | TraceEvent::CircuitDeliver { .. } => {
                    self.delivered += 1;
                }
                TraceEvent::WormholeInject { .. } => self.injected_wormhole += 1,
                TraceEvent::ForcedRelease { .. } => self.forced_releases += 1,
                TraceEvent::CircuitBroken { .. } => self.broken += 1,
                _ => {}
            }
        }
    }

    /// Cross-validates the ledger against the network's registry. Returns
    /// human-readable divergences (empty = the trace and the network state
    /// tell the same story). Meaningful at quiescence, where no lifecycle
    /// transition can be mid-flight.
    #[must_use]
    pub fn check(&self, net: &WaveNetwork) -> Vec<String> {
        let mut problems = Vec::new();
        let registry: HashSet<CircuitId> = net.circuits().keys().collect();
        for cid in self.live.difference(&registry) {
            problems.push(format!("{cid:?}: the trace says live, registry disagrees"));
        }
        for cid in registry.difference(&self.live) {
            problems.push(format!(
                "{cid:?}: in the registry but never launched (or already retired) in the trace"
            ));
        }
        let s = net.stats();
        if self.delivered != s.msgs_circuit + s.msgs_wormhole {
            problems.push(format!(
                "delivery mismatch: {} delivery records vs {} + {} counted",
                self.delivered, s.msgs_circuit, s.msgs_wormhole
            ));
        }
        if self.established != s.setups_ok {
            problems.push(format!(
                "establishment mismatch: {} records vs {} setups_ok",
                self.established, s.setups_ok
            ));
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesim_core::{ProtocolKind, WaveConfig, WaveNetwork};
    use wavesim_network::Message;
    use wavesim_topology::{NodeId, Topology};
    use wavesim_trace::VecSink;

    /// Drives `net` until it drains and returns its trace.
    fn drain_traced(net: &mut WaveNetwork) -> Vec<TraceRecord> {
        let mut now = 0;
        while net.busy() && now < 2_000_000 {
            net.tick(now);
            now += 1;
        }
        assert!(!net.busy());
        net.take_trace_sink().expect("sink installed").snapshot()
    }

    /// Drive a contended CLRP run with a sink installed; the ledger's fold
    /// of the trace must agree with the network's own registry and
    /// counters.
    #[test]
    fn ledger_agrees_with_registry_after_contended_run() {
        let mut net = WaveNetwork::new(
            Topology::mesh(&[4, 4]),
            WaveConfig {
                protocol: ProtocolKind::Clrp,
                cache_capacity: 2,
                ..WaveConfig::default()
            },
        );
        net.install_trace_sink(Box::new(VecSink::new()));
        let mut id = 0;
        for a in 0..16u32 {
            for off in [1u32, 5, 9] {
                let b = (a + off) % 16;
                net.send(0, Message::new(id, NodeId(a), NodeId(b), 32, 0));
                id += 1;
            }
        }
        let records = drain_traced(&mut net);
        let _ = net.drain_deliveries();
        let mut ledger = CircuitLedger::new();
        ledger.observe(&records);
        assert_eq!(ledger.delivered, id);
        assert!(ledger.forced_releases > 0, "contention forces releases");
        let problems = ledger.check(&net);
        assert!(problems.is_empty(), "{problems:?}");
    }

    /// A network whose trace the ledger never saw diverges from an empty
    /// ledger — the check actually discriminates.
    #[test]
    fn ledger_detects_unobserved_circuits() {
        let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), WaveConfig::default());
        net.install_trace_sink(Box::new(VecSink::new()));
        net.send(0, Message::new(1, NodeId(0), NodeId(15), 16, 0));
        let records = drain_traced(&mut net);
        assert!(!records.is_empty());
        let ledger = CircuitLedger::new();
        assert!(!ledger.check(&net).is_empty());
    }
}
