//! Runtime livelock checks (Theorems 3–4, executed).
//!
//! The paper's livelock argument: MB-m misroutes at most `m` times, the
//! History Store prevents re-searching a path, and the number of paths is
//! finite, so every probe either reserves a circuit or returns exhausted
//! in finite time; messages then fall back to minimal (livelock-free)
//! wormhole routing. Executable form:
//!
//! * every probe's step count must stay within
//!   [`wavesim_core::probe::ProbeState::step_bound`] — a bound derived
//!   from "each (node, output) pair is searched at most once";
//! * a finished run must have delivered **every** accepted message
//!   ("guaranteeing that every message will reach its destination in
//!   finite time", §5).

use wavesim_core::probe::ProbeState;
use wavesim_core::WaveNetwork;

/// The progress measure shared by the runtime detector and the offline
/// model checker (`wavesim-model`) — **one** definition of "the protocol
/// made progress", so the two can never drift apart.
///
/// Every component is nondecreasing over a run (they are counts of
/// one-way events), which is the property both users rely on:
///
/// * the runtime detector calls a network live only while the measure
///   keeps growing between observations;
/// * the model checker's lasso search exploits that any cycle in the
///   reachable state graph must keep the measure constant, so livelocks
///   hide entirely inside one rank layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProgressMeasure {
    /// Messages accepted into the protocol layer.
    pub injected: u64,
    /// Messages delivered (circuit or wormhole).
    pub delivered: u64,
    /// One-way escapes: establishments abandoned to the wormhole plane,
    /// circuits torn down for good, retry budget consumed, fault events
    /// absorbed — progress in the "giving up is also progress" sense of
    /// Theorems 3–4.
    pub escaped: u64,
}

impl ProgressMeasure {
    /// Collapses the components into one monotone rank. Deliveries weigh
    /// most, then escapes, then injections; the packing only needs to be
    /// monotone in each component, which `saturating` arithmetic keeps
    /// true even on absurd inputs.
    #[must_use]
    pub fn rank(&self) -> u64 {
        self.delivered
            .saturating_mul(1 << 40)
            .saturating_add(self.escaped.saturating_mul(1 << 20))
            .saturating_add(self.injected)
    }
}

/// Reads the measure off a live network — the runtime side of the shared
/// definition (the model checker computes the same components from its
/// abstract states).
#[must_use]
pub fn wave_measure(net: &WaveNetwork) -> ProgressMeasure {
    let s = net.stats();
    ProgressMeasure {
        injected: s.msgs_sent,
        delivered: s.msgs_circuit + s.msgs_wormhole,
        escaped: s.wormhole_fallbacks
            + s.teardowns
            + s.establish_retries
            + s.lane_faults
            + s.lane_repairs,
    }
}

/// Result of a livelock check.
#[derive(Debug, Clone, Copy)]
pub struct LivelockReport {
    /// Largest observed per-probe step count.
    pub max_probe_steps: u64,
    /// The theoretical bound for this topology.
    pub bound: u64,
    /// Messages accepted but never delivered at check time.
    pub undelivered: u64,
    /// The shared progress measure at check time.
    pub measure: ProgressMeasure,
    /// Verdict: bound respected and (if the run is over) nothing lost.
    pub livelock_free: bool,
}

/// Checks the probe step bound and message completeness. Call after a run
/// has drained (`!net.busy()`); calling mid-run checks only the bound.
#[must_use]
pub fn check_probe_livelock(net: &WaveNetwork) -> LivelockReport {
    let bound = ProbeState::step_bound(net.topology());
    let max = net.max_probe_steps();
    let measure = wave_measure(net);
    let undelivered = if net.busy() {
        0
    } else {
        measure.injected - measure.delivered
    };
    LivelockReport {
        max_probe_steps: max,
        bound,
        undelivered,
        measure,
        livelock_free: max <= bound && undelivered == 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesim_core::{ProtocolKind, WaveConfig, WaveNetwork};
    use wavesim_network::Message;
    use wavesim_topology::{NodeId, Topology};

    #[test]
    fn quiet_network_is_livelock_free() {
        let net = WaveNetwork::new(Topology::mesh(&[4, 4]), WaveConfig::default());
        let r = check_probe_livelock(&net);
        assert!(r.livelock_free);
        assert_eq!(r.max_probe_steps, 0);
        assert!(r.bound > 0);
    }

    #[test]
    fn drained_run_reports_complete_delivery() {
        let mut net = WaveNetwork::new(
            Topology::mesh(&[4, 4]),
            WaveConfig {
                protocol: ProtocolKind::Clrp,
                ..WaveConfig::default()
            },
        );
        for i in 0..8u64 {
            net.send(0, Message::new(i, NodeId(i as u32), NodeId(15), 16, 0));
        }
        let mut now = 0;
        while net.busy() && now < 200_000 {
            net.tick(now);
            now += 1;
        }
        assert!(!net.busy());
        let r = check_probe_livelock(&net);
        assert!(r.livelock_free, "{r:?}");
        assert!(r.max_probe_steps > 0, "probes did walk");
        assert!(r.max_probe_steps <= r.bound);
    }
}
