//! Established circuits and the timing of transfers over them.
//!
//! Once a physical circuit exists, "flits will not find any busy channel in
//! their way … there is no need for flow control" at the link level; only
//! **end-to-end** windowing between the injection buffer and the delivery
//! buffer remains (§2). A transfer over an `h`-hop circuit with lane rate
//! `α/σ` flits per base cycle and window `W` therefore proceeds at
//!
//! ```text
//! rate_eff = min(α/σ, W / RTT)        RTT = 2·h·ctrl_hop_delay
//! ```
//!
//! — the circuit's raw wave-pipelined bandwidth, throttled when the
//! window cannot cover the acknowledgment round trip. The message is
//! delivered `h + ceil(len / rate_eff)` cycles after transmission starts
//! (wave-front propagation plus serialization) and the source's In-use bit
//! clears one ack flight later.

use wavesim_sim::time::cycles_for;
use wavesim_topology::NodeId;

use crate::config::WaveConfig;
use crate::ids::{CircuitId, LaneId, ProbeId};

/// Lifecycle of a circuit in the global registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CircuitStatus {
    /// A probe is still searching/reserving.
    Establishing,
    /// Fully reserved and acknowledged.
    Ready,
    /// A teardown flit is propagating along the path.
    TearingDown,
}

/// Global bookkeeping for one circuit (the simulator's eye view; the
/// distributed equivalents live in the per-node [`crate::pcs::PcsUnit`]s).
#[derive(Debug, Clone)]
pub struct CircuitState {
    /// Identity.
    pub id: CircuitId,
    /// Source node (owner; its Circuit Cache holds the Fig. 5 entry).
    pub src: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// Wave switch used at every hop.
    pub switch: u8,
    /// Reserved lanes in path order (source first). Grows/shrinks while
    /// the probe searches; frozen once `Ready`.
    pub path: Vec<LaneId>,
    /// Lifecycle.
    pub status: CircuitStatus,
    /// The probe out searching for this circuit, while there is one: set
    /// at launch, cleared when the probe reaches the destination,
    /// exhausts its switch or unwinds.
    pub probe: Option<ProbeId>,
}

impl CircuitState {
    /// New circuit in `Establishing` state with an empty path.
    #[must_use]
    pub fn new(id: CircuitId, src: NodeId, dest: NodeId, switch: u8) -> Self {
        Self {
            id,
            src,
            dest,
            switch,
            path: Vec::new(),
            status: CircuitStatus::Establishing,
            probe: None,
        }
    }

    /// Path length in hops.
    #[must_use]
    pub fn hops(&self) -> u32 {
        self.path.len() as u32
    }
}

/// The computed timing of one message transfer over a circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferPlan {
    /// Cycles from transmission start until the last flit reaches the
    /// destination's delivery buffer.
    pub delivery_delay: u64,
    /// Cycles from transmission start until the source receives the
    /// acknowledgment for the last fragment (when In-use clears, §2).
    pub ack_delay: u64,
}

/// Plans a transfer of `len_flits` over an `hops`-hop circuit under `cfg`.
///
/// # Panics
/// Panics if `hops == 0` (a circuit has at least one link).
#[must_use]
pub fn plan_transfer(len_flits: u32, hops: u32, cfg: &WaveConfig) -> TransferPlan {
    assert!(hops >= 1, "circuits span at least one link");
    let h = u64::from(hops);
    let (alpha, sigma) = cfg.lane_rate();
    let w = u64::from(cfg.window);
    let rtt = 2 * h * u64::from(cfg.ctrl_hop_delay);
    // Effective rate = min(alpha/sigma, w/rtt), as a fraction.
    let (num, den) = if alpha * rtt <= w * sigma {
        (alpha, sigma)
    } else {
        (w, rtt)
    };
    let serialization = cycles_for(u64::from(len_flits), num, den);
    let delivery_delay = h + serialization;
    let ack_delay = delivery_delay + h * u64::from(cfg.ctrl_hop_delay);
    TransferPlan {
        delivery_delay,
        ack_delay,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WaveConfig;

    fn cfg(alpha: u32, sigma: u32, window: u32) -> WaveConfig {
        WaveConfig {
            clock_multiplier: alpha,
            channel_split: sigma,
            window,
            ..WaveConfig::default()
        }
    }

    #[test]
    fn bandwidth_limited_transfer() {
        // 128 flits at 4/2 = 2 flits/cycle over 4 hops; window 64 covers
        // RTT 8 easily.
        let p = plan_transfer(128, 4, &cfg(4, 2, 64));
        assert_eq!(p.delivery_delay, 4 + 64);
        assert_eq!(p.ack_delay, 4 + 64 + 4);
    }

    #[test]
    fn window_limited_transfer() {
        // Window 4 over 8 hops: RTT = 16, rate = 4/16 = 0.25 flits/cycle.
        let p = plan_transfer(16, 8, &cfg(4, 1, 4));
        assert_eq!(p.delivery_delay, 8 + 64);
    }

    #[test]
    fn window_exactly_covers_rtt() {
        // alpha/sigma = 2, RTT = 4, W = 8: W/RTT = 2 = lane rate; either
        // branch gives the same answer.
        let p = plan_transfer(10, 2, &cfg(4, 2, 8));
        assert_eq!(p.delivery_delay, 2 + 5);
    }

    #[test]
    fn single_flit_over_circuit_is_fast() {
        let p = plan_transfer(1, 3, &cfg(4, 2, 64));
        assert_eq!(p.delivery_delay, 3 + 1);
        assert_eq!(p.ack_delay, 3 + 1 + 3);
    }

    #[test]
    fn longer_paths_cost_propagation_and_ack() {
        let short = plan_transfer(64, 2, &cfg(4, 2, 64));
        let long = plan_transfer(64, 10, &cfg(4, 2, 64));
        assert!(long.delivery_delay > short.delivery_delay);
        assert!(long.ack_delay - long.delivery_delay > short.ack_delay - short.delivery_delay);
    }

    #[test]
    fn circuit_state_lifecycle() {
        let c = CircuitState::new(CircuitId(1), NodeId(0), NodeId(5), 1);
        assert_eq!(c.status, CircuitStatus::Establishing);
        assert_eq!(c.hops(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one link")]
    fn zero_hop_transfer_rejected() {
        let _ = plan_transfer(8, 0, &WaveConfig::default());
    }
}
