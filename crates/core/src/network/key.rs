//! The canonical state key, [`WaveNetwork::state_key`]: every value that
//! can change a later move — lanes, circuits (`path`, `ack`, `torn`),
//! Circuit Caches, probes (`path`, History Store, `parked_on`), the
//! calendars' pending events — and nothing else.
//!
//! * **Arena ids are renamed in first-visit order** (lanes, caches, then
//!   events), a circuit's or probe's record written where it is first met.
//!   Ids are generational and never reused, so only which references share
//!   one matters; every live circuit and probe holds a lane, an entry or
//!   an event.
//! * **Caches are sets sorted by `Dest`**, `replace` reduced to its rank.
//! * **Times, cycles and counters are left out**, and pending events are a
//!   multiset, visited in the order of their encodings alone: a model
//!   checker may fire any. The fabric is keyed by its flit count; the
//!   checker runs it to idle every move.

use crate::cache::CacheEntry;
use crate::circuitplane::TransferEvent;
use crate::controlplane::CtrlEvent;
use crate::ids::{CircuitId, LaneId, ProbeId};
use crate::lanes::LaneState;
use wavesim_network::Message;

use super::{FaultEvent, NetEvent, WaveNetwork};

/// A key being written: LEB128 integers (a prefix code) and the arena ids
/// met so far, each named by its position plus one.
struct Enc<'a> {
    net: &'a WaveNetwork,
    out: Vec<u8>,
    circuits: Vec<CircuitId>,
    probes: Vec<ProbeId>,
}

impl Enc<'_> {
    fn u(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.out.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.out.push(v as u8);
    }

    fn all<const N: usize>(&mut self, vs: [u64; N]) {
        vs.into_iter().for_each(|v| self.u(v));
    }

    /// The lane table's dense index of `l`, plus one.
    fn lane(&self, l: LaneId) -> u64 {
        1 + u64::from(l.link.0) * u64::from(self.net.cfg.k) + u64::from(l.switch - 1)
    }

    fn lanes(&mut self, lanes: &[LaneId]) {
        self.u(lanes.len() as u64);
        lanes.iter().for_each(|&l| self.u(self.lane(l)));
    }

    fn msg(&mut self, m: &Message) {
        self.all([m.id.0, m.src.0.into(), m.dest.0.into(), m.len_flits.into()]);
    }

    /// Writes `id`'s name; `true` when it was met just now and its record
    /// follows.
    fn first<T: PartialEq + Copy>(&mut self, names: fn(&mut Self) -> &mut Vec<T>, id: T) -> bool {
        if let Some(i) = names(self).iter().position(|&x| x == id) {
            self.u(i as u64 + 1);
            return false;
        }
        names(self).push(id);
        let n = names(self).len() as u64;
        self.u(n);
        true
    }

    fn circuit(&mut self, id: CircuitId) {
        if !self.first(|e| &mut e.circuits, id) {
            return;
        }
        let Some(c) = self.net.ctrl.circuits().get(id) else {
            return self.u(0);
        };
        let (src, dest) = (c.src.0.into(), c.dest.0.into());
        self.all([1, src, dest, c.switch.into(), c.status as u64]);
        self.all([c.ack.into(), c.torn.into()]);
        self.lanes(&c.path);
        match c.probe {
            Some(p) => self.probe(p),
            None => self.u(0),
        }
    }

    fn probe(&mut self, id: ProbeId) {
        if !self.first(|e| &mut e.probes, id) {
            return;
        }
        let Some(p) = self.net.ctrl.probes().get(id) else {
            return self.u(0);
        };
        self.u(1);
        self.circuit(p.circuit);
        let (src, dest, at) = (p.src.0.into(), p.dest.0.into(), p.at.0.into());
        let f = &p.flit;
        self.all([src, dest, at, p.switch.into(), f.misroute.into()]);
        self.all([f.force.into(), f.backtrack.into()]);
        self.lanes(&p.path);
        for (node, &h) in p.history.iter().enumerate().filter(|(_, &h)| h != 0) {
            self.all([1 + node as u64, h.into()]);
        }
        self.u(0);
        self.u(p.parked_on.map_or(0, |l| self.lane(l)));
    }

    fn event(&mut self, ev: &NetEvent) {
        use CtrlEvent::{AckHopAt, ProbeAt, ReleaseReqAt, RetryProbe, TeardownAt};
        use TransferEvent::{Acked, Delivered, RetryEstablish};
        match ev {
            NetEvent::Fault(FaultEvent::Fail(l)) => self.tagged(1, [], |e| e.u(e.lane(*l))),
            NetEvent::Fault(FaultEvent::Repair(l)) => self.tagged(2, [], |e| e.u(e.lane(*l))),
            NetEvent::Ctrl(ProbeAt(p)) => self.tagged(3, [], |e| e.probe(*p)),
            NetEvent::Ctrl(RetryProbe(p)) => self.tagged(4, [], |e| e.probe(*p)),
            NetEvent::Ctrl(AckHopAt(c, hop)) => self.tagged(5, [*hop], |e| e.circuit(*c)),
            NetEvent::Ctrl(TeardownAt(c, hop)) => self.tagged(6, [*hop], |e| e.circuit(*c)),
            NetEvent::Ctrl(ReleaseReqAt(c)) => self.tagged(7, [], |e| e.circuit(*c)),
            // The handler reads only the message.
            NetEvent::Transfer(Delivered(_, m)) => self.tagged(8, [], |e| e.msg(m)),
            NetEvent::Transfer(Acked { circuit, src, dest }) => {
                self.tagged(9, [src.0, dest.0], |e| e.circuit(*circuit));
            }
            NetEvent::Transfer(RetryEstablish { circuit, src, dest }) => {
                self.tagged(10, [src.0, dest.0], |e| e.circuit(*circuit));
            }
        }
    }

    /// Writes `tag`, `fields`, then whatever `rest` writes.
    fn tagged<const N: usize>(&mut self, tag: u64, fields: [u32; N], rest: impl FnOnce(&mut Self)) {
        self.u(tag);
        fields.into_iter().for_each(|f| self.u(f.into()));
        rest(self);
    }

    fn entry(&mut self, e: &CacheEntry, rank: u64) {
        self.circuit(e.circuit);
        let flags = [e.ack_returned, e.in_use, e.force_phase, e.release_pending];
        let flags = flags.iter().rev().fold(0, |f, &b| f << 1 | u64::from(b));
        let (dest, channel) = (e.dest.0.into(), e.channel.map_or(0, |l| self.lane(l)));
        let alloc = e.alloc_flits.map_or(0, |f| 1 + u64::from(f));
        let switches = [e.initial_switch.into(), e.switch.into()];
        self.all([dest, switches[0], switches[1], channel, rank, flags]);
        self.all([
            e.state as u64,
            alloc,
            e.path_hops.into(),
            e.fault_retries_used.into(),
        ]);
        self.u(e.queue.len() as u64);
        e.queue.iter().for_each(|m| self.msg(m));
    }
}

impl WaveNetwork {
    /// The canonical state key (see the module docs): two networks with
    /// equal keys have the same moves with the same outcomes, up to a
    /// renaming of arena ids and a shift of time. Equal keys are an exact
    /// test, unlike [`WaveNetwork::state_fingerprint`].
    #[must_use]
    pub fn state_key(&self) -> Vec<u8> {
        let mut e = Enc {
            net: self,
            out: Vec::new(),
            circuits: Vec::new(),
            probes: Vec::new(),
        };
        e.all([self.outstanding_msgs, self.data.fabric().in_flight_flits()]);
        for (i, state, waiters) in self.ctrl.lanes().occupied() {
            e.u(1 + i as u64);
            match state {
                LaneState::Free => e.u(0),
                LaneState::Faulty => e.u(1),
                LaneState::Reserved(c) => {
                    e.u(2);
                    e.circuit(c);
                }
            }
            e.u(waiters.len() as u64);
            waiters.iter().for_each(|&p| e.probe(p));
        }
        e.u(0);
        for (node, cache) in self.circ.caches().iter().enumerate() {
            let mut entries: Vec<&CacheEntry> = cache.iter().collect();
            entries.sort_unstable_by_key(|x| x.dest);
            let mut replace: Vec<u64> = entries.iter().map(|x| x.replace).collect();
            replace.sort_unstable();
            e.all([node as u64, entries.len() as u64]);
            for x in entries {
                e.entry(x, replace.partition_point(|&r| r < x.replace) as u64);
            }
        }
        let pending = self.pending_events();
        let mut shapes: Vec<(Vec<u8>, &NetEvent)> = pending
            .iter()
            .map(|ev| {
                let mut s = Enc {
                    out: Vec::new(),
                    circuits: e.circuits.clone(),
                    probes: e.probes.clone(),
                    ..e
                };
                s.event(&ev.event);
                (s.out, &ev.event)
            })
            .collect();
        shapes.sort_by(|a, b| a.0.cmp(&b.0));
        e.u(shapes.len() as u64);
        shapes.iter().for_each(|(_, ev)| e.event(ev));
        e.all([
            self.ctrl.circuits().len() as u64,
            self.ctrl.probes().len() as u64,
        ]);
        e.out
    }

    /// A 64-bit FNV-1a hash of [`WaveNetwork::state_key`], for reports:
    /// equal states hash equal, but unequal ones can collide, so a
    /// seen-set stores the keys themselves.
    #[must_use]
    pub fn state_fingerprint(&self) -> u64 {
        self.state_key()
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ProtocolKind, WaveConfig};
    use wavesim_sim::Cycle;
    use wavesim_topology::{Dir, NodeId, PortDir, Topology};

    fn carp(k: u8) -> WaveNetwork {
        let cfg = WaveConfig {
            k,
            protocol: ProtocolKind::Carp,
            ..WaveConfig::default()
        };
        WaveNetwork::new(Topology::mesh(&[2, 2]), cfg)
    }

    fn settle(net: &mut WaveNetwork, now: &mut Cycle) {
        while net.busy() {
            net.tick(*now);
            *now += 1;
        }
    }

    fn only_circuit(net: &WaveNetwork) -> CircuitId {
        let ids: Vec<CircuitId> = net.circuits().keys().collect();
        assert_eq!(ids.len(), 1);
        ids[0]
    }

    #[test]
    fn one_state_reached_through_other_ids_has_one_key() {
        let (a, b) = (NodeId(0), NodeId(3));
        let mut direct = carp(1);
        let mut now = 0;
        direct.carp_establish(now, a, b);
        settle(&mut direct, &mut now);

        // A circuit comes and goes first: its slot is reused under a new
        // generation, and the probe slab's likewise.
        let mut detour = carp(1);
        let mut now = 0;
        detour.carp_establish(now, a, NodeId(1));
        settle(&mut detour, &mut now);
        detour.carp_teardown(now, a, NodeId(1));
        settle(&mut detour, &mut now);
        detour.carp_establish(now, a, b);
        settle(&mut detour, &mut now);

        assert_ne!(only_circuit(&direct), only_circuit(&detour), "other ids");
        assert_eq!(direct.state_key(), detour.state_key());
        assert_eq!(direct.state_fingerprint(), detour.state_fingerprint());
    }

    #[test]
    fn a_cache_filled_in_either_slot_order_has_one_key() {
        let topo = Topology::mesh(&[3, 3]);
        // Message `i` goes to destination `[1, 3][i]` either way; only the
        // order of the sends, and so of the slots, differs.
        let fill = |ids: [u64; 2]| {
            let mut net = WaveNetwork::new(topo.clone(), WaveConfig::default());
            for id in ids {
                let dest = NodeId([1, 3][id as usize]);
                net.send(0, Message::new(id, NodeId(0), dest, 16, 0));
            }
            let mut now = 0;
            settle(&mut net, &mut now);
            let order: Vec<u32> = net.cache(NodeId(0)).iter().map(|e| e.dest.0).collect();
            (order, net.state_key())
        };
        let (order_a, key_a) = fill([0, 1]);
        let (order_b, key_b) = fill([1, 0]);
        assert_ne!(order_a, order_b, "the slots differ");
        assert_eq!(key_a, key_b);
    }

    #[test]
    fn a_fork_has_its_originals_key_mid_run() {
        let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), WaveConfig::default());
        for id in 0..12u64 {
            let (src, dest) = ((id % 16) as u32, ((id * 5 + 3) % 16) as u32);
            if src != dest {
                net.send(0, Message::new(id, NodeId(src), NodeId(dest), 16, 0));
            }
        }
        let mut forks = 0;
        let mut now = 0;
        while net.busy() {
            net.tick(now);
            if !net.pending_events().is_empty() {
                forks += 1;
                assert_eq!(net.fork().state_key(), net.state_key(), "cycle {now}");
            }
            now += 1;
        }
        assert!(forks > 10, "forked mid-run");
    }

    #[test]
    fn another_lane_holder_is_another_key() {
        let (a, b) = (NodeId(0), NodeId(1));
        let mut on_s1 = carp(2);
        let mut now = 0;
        on_s1.carp_establish(now, a, b);
        settle(&mut on_s1, &mut now);

        // S1's lane is down while the probe searches, so the circuit takes
        // S2's; S1's comes back empty.
        let mut on_s2 = carp(2);
        let plus_x = PortDir::new(0, Dir::Plus);
        let s1 = LaneId::new(Topology::mesh(&[2, 2]).link_id(a, plus_x), 1);
        let mut now = 0;
        on_s2.schedule_fault(now, FaultEvent::Fail(s1)).unwrap();
        on_s2.carp_establish(now, a, b);
        settle(&mut on_s2, &mut now);
        on_s2.schedule_fault(now, FaultEvent::Repair(s1)).unwrap();
        on_s2.tick(now);

        assert_eq!(on_s1.lanes().holder(s1), Some(only_circuit(&on_s1)));
        assert_eq!(on_s2.lanes().holder(s1), None);
        assert_ne!(on_s1.state_key(), on_s2.state_key());
    }
}
