//! Inter-plane events and the bus that carries them.
//!
//! The wave router decomposes into three engines — the wormhole
//! **dataplane** ([`crate::dataplane`]), the probe/ack/teardown
//! **controlplane** ([`crate::controlplane`]) and the cache/transfer
//! **circuitplane** ([`crate::circuitplane`]) — that never touch each
//! other's state. Everything one plane needs another to know travels as a
//! [`PlaneEvent`] over the [`EventBus`]; the composition root
//! ([`crate::network::WaveNetwork`]) routes events to their consumer
//! within the same cycle, in FIFO order, until the bus drains.
//!
//! All *time-delayed* work goes through each plane's own
//! [`wavesim_sim::EventQueue`] with a delay of at least one cycle, so the
//! same-cycle routing loop always terminates: every event chain either
//! ends in a plane-local schedule or in a finite amount of immediate
//! bookkeeping.

use std::collections::VecDeque;

use wavesim_network::{Delivery, Message};
use wavesim_topology::NodeId;

use crate::ids::{CircuitId, LaneId};

/// A message between planes (or from a plane to the composition root).
#[derive(Debug)]
pub enum PlaneEvent {
    /// Dataplane → root: a wormhole message reached its destination.
    WormholeDelivered(Delivery),
    /// Circuitplane → root: a circuit transfer reached its destination.
    CircuitDelivered(Delivery),
    /// Any plane → dataplane: inject this message into the wormhole
    /// fabric (protocol fallback or wormhole-only traffic).
    InjectWormhole(Message),
    /// Circuitplane → controlplane: start (or restart, on the next
    /// switch) the probe search for `circuit`.
    LaunchProbe {
        /// Circuit the probe works for.
        circuit: CircuitId,
        /// Source node.
        src: NodeId,
        /// Destination node.
        dest: NodeId,
        /// Wave switch to search (1-based).
        switch: u8,
        /// Whether the probe runs with the Force bit set (CLRP phase 2).
        force: bool,
    },
    /// Controlplane → circuitplane: the probe backtracked to its source
    /// with switch `switch` exhausted; the protocol decides what's next.
    ProbeExhausted {
        /// Circuit whose establishment attempt failed on this switch.
        circuit: CircuitId,
        /// Source node.
        src: NodeId,
        /// Destination node.
        dest: NodeId,
        /// Switch whose search space is exhausted.
        switch: u8,
        /// Whether the exhausted probe had the Force bit set.
        force: bool,
    },
    /// Controlplane → circuitplane: the path-setup acknowledgment
    /// reached the source; the circuit is ready to carry messages.
    CircuitEstablished {
        /// The established circuit.
        circuit: CircuitId,
        /// Source node.
        src: NodeId,
        /// Destination node.
        dest: NodeId,
        /// Path length in hops.
        hops: u32,
        /// First lane of the path (the Fig. 5 `Channel` register).
        first_lane: LaneId,
    },
    /// Controlplane → circuitplane: a force-mode probe (or a release
    /// request that reached the source) wants `circuit` released.
    VictimRelease {
        /// Circuit to release.
        circuit: CircuitId,
        /// The circuit's source node (owner of the cache entry).
        src: NodeId,
    },
    /// Circuitplane → controlplane: the cache entry is gone; release the
    /// circuit's path (teardown walk, or unwind the live probe).
    ReleaseCircuit {
        /// Circuit to release.
        circuit: CircuitId,
    },
    /// Circuitplane → controlplane: establishment failed on every switch;
    /// drop the circuit from the registry (no path to tear down).
    AbandonCircuit {
        /// The abandoned circuit.
        circuit: CircuitId,
    },
    /// Controlplane → circuitplane: the teardown (or probe unwind)
    /// finished and every lane of `circuit` is free again.
    CircuitReleased {
        /// The fully released circuit.
        circuit: CircuitId,
    },
    /// Controlplane → circuitplane: a dynamic fault hit a lane reserved by
    /// `circuit`; its teardown has started. The owning cache entry must be
    /// invalidated, and CLRP may schedule a bounded re-establishment.
    CircuitBroken {
        /// The circuit the fault destroyed.
        circuit: CircuitId,
        /// The circuit's source node (owner of the cache entry).
        src: NodeId,
        /// The circuit's destination node.
        dest: NodeId,
    },
}

/// FIFO bus carrying [`PlaneEvent`]s between planes within one cycle.
///
/// The bus is plumbing, not an observation point: external detectors
/// (`wavesim-verify`) read the trace, which records the circuit lifecycle
/// and the deliveries these events carry.
#[derive(Debug, Default)]
pub struct EventBus {
    queue: VecDeque<PlaneEvent>,
}

impl EventBus {
    /// Empty bus.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues an event.
    pub fn push(&mut self, ev: PlaneEvent) {
        self.queue.push_back(ev);
    }

    /// Moves every event out of `staging` onto the bus, preserving order.
    pub fn absorb(&mut self, staging: &mut Vec<PlaneEvent>) {
        for ev in staging.drain(..) {
            self.push(ev);
        }
    }

    /// Dequeues the oldest event.
    pub fn pop(&mut self) -> Option<PlaneEvent> {
        self.queue.pop_front()
    }

    /// True when no events are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Number of queued events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut bus = EventBus::new();
        bus.push(PlaneEvent::AbandonCircuit {
            circuit: CircuitId(1),
        });
        bus.push(PlaneEvent::CircuitReleased {
            circuit: CircuitId(2),
        });
        assert_eq!(bus.len(), 2);
        assert!(matches!(
            bus.pop(),
            Some(PlaneEvent::AbandonCircuit { circuit }) if circuit == CircuitId(1)
        ));
        assert!(matches!(
            bus.pop(),
            Some(PlaneEvent::CircuitReleased { circuit }) if circuit == CircuitId(2)
        ));
        assert!(bus.pop().is_none());
    }

    #[test]
    fn absorb_preserves_order() {
        let mut bus = EventBus::new();
        let mut staging = vec![
            PlaneEvent::AbandonCircuit {
                circuit: CircuitId(1),
            },
            PlaneEvent::AbandonCircuit {
                circuit: CircuitId(2),
            },
        ];
        bus.absorb(&mut staging);
        assert!(staging.is_empty());
        assert!(matches!(
            bus.pop(),
            Some(PlaneEvent::AbandonCircuit { circuit }) if circuit == CircuitId(1)
        ));
    }
}
