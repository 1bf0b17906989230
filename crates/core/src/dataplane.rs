//! The dataplane: switch `S0`, i.e. the wormhole fabric, as a plane.
//!
//! The wormhole pipeline itself lives in `wavesim-network`; this module
//! wraps it in the plane discipline of [`crate::events`] — inputs arrive
//! as [`PlaneEvent::InjectWormhole`] (routed by the composition root to
//! `DataPlane::inject`) and completed deliveries leave through the
//! plane's outbox as [`PlaneEvent::WormholeDelivered`].

use wavesim_network::message::DeliveryMode;
use wavesim_network::{Message, WormholeConfig, WormholeFabric};
use wavesim_sim::Cycle;
use wavesim_topology::Topology;
use wavesim_trace::TraceEvent;

use crate::events::PlaneEvent;
use crate::stats::Log;

/// The wormhole plane of the wave router.
#[derive(Clone)]
pub struct DataPlane {
    fabric: WormholeFabric,
    outbox: Vec<PlaneEvent>,
    /// Reusable delivery buffer ping-ponged through the fabric's
    /// [`WormholeFabric::drain_deliveries_into`] so the per-cycle
    /// collection path stays allocation-free.
    scratch: Vec<wavesim_network::Delivery>,
}

impl DataPlane {
    /// Builds the plane for `topo` under the `S0` configuration.
    #[must_use]
    pub fn new(topo: Topology, cfg: WormholeConfig) -> Self {
        Self {
            fabric: WormholeFabric::new(topo, cfg),
            outbox: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Injects a message into the wormhole fabric.
    pub(crate) fn inject(&mut self, msg: Message) {
        self.fabric.inject(msg);
    }

    /// Advances the fabric one cycle, notes each completed delivery in
    /// `log` and stages it on the outbox.
    pub(crate) fn step(&mut self, now: Cycle, log: &mut Log) {
        self.fabric.tick(now);
        let mut buf = std::mem::take(&mut self.scratch);
        self.fabric.drain_deliveries_into(&mut buf);
        for &d in &buf {
            debug_assert_eq!(d.mode, DeliveryMode::Wormhole);
            log.note(
                now,
                TraceEvent::WormholeDeliver {
                    msg: d.msg.id.0,
                    src: d.msg.src.0,
                    dest: d.msg.dest.0,
                    latency: d.latency(),
                },
            );
            self.outbox.push(PlaneEvent::WormholeDelivered(d));
        }
        self.scratch = buf;
    }

    /// Moves staged outbound events into `bus`.
    pub(crate) fn drain_outbox_into(&mut self, bus: &mut crate::events::EventBus) {
        bus.absorb(&mut self.outbox);
    }

    /// The underlying fabric (read access for instrumentation).
    #[must_use]
    pub fn fabric(&self) -> &WormholeFabric {
        &self.fabric
    }

    /// True while flits are in flight.
    #[must_use]
    pub fn busy(&self) -> bool {
        self.fabric.busy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesim_network::Message;
    use wavesim_topology::NodeId;

    #[test]
    fn runs_standalone_on_a_plain_tick_loop() {
        let mut plane = DataPlane::new(Topology::mesh(&[4, 4]), WormholeConfig::default());
        plane.inject(Message::new(1, NodeId(0), NodeId(15), 16, 0));
        let mut log = Log::default();
        let mut now = 0;
        while plane.busy() && now < 10_000 {
            plane.step(now, &mut log);
            now += 1;
        }
        assert!(!plane.busy());
        assert!(now > 0);
        let mut bus = crate::events::EventBus::new();
        plane.drain_outbox_into(&mut bus);
        assert!(matches!(bus.pop(), Some(PlaneEvent::WormholeDelivered(_))));
        assert_eq!(log.stats.msgs_wormhole, 1);
    }
}
