//! A point of the search — core's own [`WaveNetwork`] plus the stimuli
//! issued so far — and the moves out of it: any pending calendar event,
//! fired through core's dispatch ([`WaveNetwork::fire`]), or a stimulus a
//! workload can issue (inject — `carp_establish` first under CARP — CARP
//! teardown, fault, repair). Every move ends by running the wormhole
//! fabric to idle: a wormhole delivery changes nothing another plane
//! reads, and the explorer re-certifies the fall-back routing. Moves carry
//! no times: one runs a cycle past the last, or at its event's if later.

use std::fmt;

use wavesim_core::{CtrlEvent, FaultEvent, NetEvent, ProtocolKind, TransferEvent, WaveNetwork};
use wavesim_network::Message;
use wavesim_sim::{Cycle, ScheduledEvent};
use wavesim_verify::{wave_measure, ProgressMeasure};

use crate::spec::ModelSpec;

/// Flits per model message.
const MSG_FLITS: u32 = 16;

/// One move of the explored system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Move {
    /// Message `m` is sent (CARP: its circuit is requested first).
    Inject(u8),
    /// CARP: the program tears message `m`'s circuit down.
    Teardown(u8),
    /// The spec's lane fails.
    Fault,
    /// The spec's lane is repaired.
    Repair,
    /// A pending protocol event fires, named by what it does (`probe
    /// n0->n3 at n1`; a repeated name gets ` #k`), so a schedule re-applies
    /// to another run of the spec.
    Fire(String),
}

impl Move {
    /// True for the protocol's own moves; stimuli are the environment's.
    #[must_use]
    pub fn is_protocol(&self) -> bool {
        matches!(self, Move::Fire(_))
    }
}

impl fmt::Display for Move {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Move::Inject(m) => write!(f, "inject m{m}"),
            Move::Teardown(m) => write!(f, "carp-teardown m{m}"),
            Move::Fault => write!(f, "fault"),
            Move::Repair => write!(f, "repair"),
            Move::Fire(name) => write!(f, "{name}"),
        }
    }
}

/// Core's network and the stimuli its environment has issued.
pub struct World {
    /// The network, with the spec's mutation planted.
    pub net: WaveNetwork,
    clock: Cycle,
    injected: u8,
    torn: u8,
    faulted: bool,
    repaired: bool,
}

impl World {
    /// The initial world of `spec`: an idle network, nothing injected.
    #[must_use]
    pub fn new(spec: &ModelSpec) -> Self {
        let mut net = WaveNetwork::new(spec.topo.clone(), spec.cfg);
        net.mutate(spec.mutation);
        World {
            net,
            clock: 0,
            injected: 0,
            torn: 0,
            faulted: false,
            repaired: false,
        }
    }

    /// A deep copy ([`WaveNetwork::fork`]).
    #[must_use]
    pub fn fork(&self) -> Self {
        World {
            net: self.net.fork(),
            ..*self
        }
    }

    /// The world after `schedule`, skipping moves not enabled in turn.
    #[must_use]
    pub fn after(spec: &ModelSpec, schedule: &[Move]) -> Self {
        let mut w = World::new(spec);
        for mv in schedule {
            w.apply(spec, mv);
        }
        w
    }

    /// The seen-set key: [`WaveNetwork::state_key`], the [`ProgressMeasure`]
    /// (a cycle of states then keeps one rank) and the stimuli issued.
    #[must_use]
    pub fn key(&self) -> Vec<u8> {
        let mut key = self.net.state_key();
        let m = self.measure();
        for v in [m.injected, m.delivered, m.escaped] {
            key.extend_from_slice(&v.to_le_bytes());
        }
        let env = u8::from(self.faulted) | u8::from(self.repaired) << 1;
        key.extend([self.injected, self.torn, env]);
        key
    }

    /// The progress measure, read off the network.
    #[must_use]
    pub fn measure(&self) -> ProgressMeasure {
        wave_measure(&self.net)
    }

    /// True while an injected message is undelivered.
    #[must_use]
    pub fn pending_work(&self) -> bool {
        self.net.outstanding() > 0
    }

    /// Messages outstanding, no protocol event pending, the fabric idle.
    #[must_use]
    pub fn stuck(&self) -> bool {
        self.pending_work() && self.net.control_backlog() == 0 && !self.net.fabric().busy()
    }

    /// The one self-loop rule of the explorer and the fuzzer. A move back
    /// to its own key is a wait (a retry re-armed while a transfer still
    /// drains), unless every protocol move from here returns here: then
    /// the protocol spins in place with messages outstanding, a livelock
    /// whose loop is the move returned.
    #[must_use]
    pub fn spin(&self, spec: &ModelSpec) -> Option<Move> {
        if !self.pending_work() {
            return None;
        }
        let key = self.key();
        let mut spin = None;
        for mv in self.moves(spec).into_iter().filter(Move::is_protocol) {
            let mut next = self.fork();
            next.apply(spec, &mv);
            if next.key() != key {
                return None;
            }
            spin.get_or_insert(mv);
        }
        spin
    }

    /// True when every message of `spec` was injected and delivered.
    #[must_use]
    pub fn all_delivered(&self, spec: &ModelSpec) -> bool {
        self.injected.count_ones() as usize == spec.msgs.len() && !self.pending_work()
    }

    /// The name of each pending event (see [`Move::Fire`]).
    fn names(&self, pending: &[ScheduledEvent<NetEvent>]) -> Vec<String> {
        let net = &self.net;
        let stale = || "(stale)".to_string();
        let circuit = |c| {
            net.circuits()
                .get(c)
                .map_or_else(stale, |c| format!("{}->{}", c.src, c.dest))
        };
        let probe = |p| {
            let at = |p: &wavesim_core::ProbeState| format!("{}->{} at {}", p.src, p.dest, p.at);
            net.probes().get(p).map_or_else(stale, at)
        };
        use CtrlEvent::{AckHopAt, ProbeAt, ReleaseReqAt, RetryProbe, TeardownAt};
        use NetEvent::{Ctrl, Fault, Transfer};
        use TransferEvent::{Acked, Delivered, RetryEstablish};
        let base: Vec<String> = pending
            .iter()
            .map(|ev| match &ev.event {
                Ctrl(ProbeAt(p)) => format!("probe {}", probe(*p)),
                Ctrl(RetryProbe(p)) => format!("wake {}", probe(*p)),
                Ctrl(AckHopAt(c, hop)) => format!("ack {} hop {hop}", circuit(*c)),
                Ctrl(TeardownAt(c, hop)) => format!("teardown {} hop {hop}", circuit(*c)),
                Ctrl(ReleaseReqAt(c)) => format!("release-request {}", circuit(*c)),
                Transfer(Delivered(_, m)) => format!("deliver {}->{} m{}", m.src, m.dest, m.id.0),
                Transfer(Acked { src, dest, .. }) => format!("transfer-ack {src}->{dest}"),
                Transfer(RetryEstablish { src, dest, .. }) => format!("retry {src}->{dest}"),
                Fault(FaultEvent::Fail(l)) => format!("lane-fail {l}"),
                Fault(FaultEvent::Repair(l)) => format!("lane-repair {l}"),
            })
            .collect();
        let dups = |i: usize| base[..i].iter().filter(|b| **b == base[i]).count();
        (0..base.len())
            .map(|i| match dups(i) {
                0 => base[i].clone(),
                k => format!("{} #{k}", base[i]),
            })
            .collect()
    }

    /// Every enabled move: the pending events in calendar order, then the
    /// stimuli.
    #[must_use]
    pub fn moves(&self, spec: &ModelSpec) -> Vec<Move> {
        let pending = self.net.pending_events();
        let mut moves: Vec<Move> = self.names(&pending).into_iter().map(Move::Fire).collect();
        for m in 0..spec.msgs.len() as u8 {
            if self.injected & 1 << m == 0 {
                moves.push(Move::Inject(m));
            } else if spec.cfg.protocol == ProtocolKind::Carp && self.torn & 1 << m == 0 {
                moves.push(Move::Teardown(m));
            }
        }
        match spec.fault {
            Some(_) if !self.faulted => moves.push(Move::Fault),
            Some(f) if f.repair && !self.repaired => moves.push(Move::Repair),
            _ => {}
        }
        moves
    }

    /// Applies `mv`; returns `false` (changing nothing) when it is not
    /// enabled.
    pub fn apply(&mut self, spec: &ModelSpec, mv: &Move) -> bool {
        let mut now = self.clock + 1;
        if let Move::Fire(name) = mv {
            let pending = self.net.pending_events();
            let Some(i) = self.names(&pending).iter().position(|n| n == name) else {
                return false;
            };
            now = now.max(pending[i].at);
            self.net.fire(now, &pending[i]);
        } else if !self.stimulate(spec, mv, now) {
            return false;
        }
        self.clock = now.max(self.net.run_fabric(now + 1) - 1);
        true
    }

    /// Issues the stimulus `mv` at `now` if it is enabled.
    pub fn stimulate(&mut self, spec: &ModelSpec, mv: &Move, now: Cycle) -> bool {
        let carp = spec.cfg.protocol == ProtocolKind::Carp;
        let ev = match *mv {
            Move::Inject(m) if self.injected & 1 << m == 0 => {
                self.injected |= 1 << m;
                let (src, dest) = spec.msgs[usize::from(m)];
                if carp {
                    self.net.carp_establish(now, src, dest);
                }
                let msg = Message::new(u64::from(m), src, dest, MSG_FLITS, now);
                self.net.send(now, msg);
                return true;
            }
            Move::Teardown(m) if carp && self.injected & !self.torn & 1 << m != 0 => {
                self.torn |= 1 << m;
                let (src, dest) = spec.msgs[usize::from(m)];
                self.net.carp_teardown(now, src, dest);
                return true;
            }
            Move::Fault if !self.faulted => spec.fault.map(|f| FaultEvent::Fail(f.lane)),
            Move::Repair if self.faulted && !self.repaired => spec
                .fault
                .filter(|f| f.repair)
                .map(|f| FaultEvent::Repair(f.lane)),
            _ => None,
        };
        let Some(ev) = ev else { return false };
        self.faulted = true;
        self.repaired = matches!(ev, FaultEvent::Repair(_));
        self.net
            .schedule_fault(now, ev)
            .expect("the spec's lane exists");
        // The one fault event, listed first: fire it now.
        let due = self.net.pending_events().swap_remove(0);
        self.net.fire(now, &due)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesim_core::ProtocolKind;
    use wavesim_topology::Topology;

    /// Runs the first enabled protocol move, else the first stimulus,
    /// until nothing is left.
    fn run_first(spec: &ModelSpec) -> World {
        let mut w = World::new(spec);
        for _ in 0..1_000 {
            let moves = w.moves(spec);
            let Some(mv) = moves
                .iter()
                .find(|m| m.is_protocol())
                .or(moves.first())
                .cloned()
            else {
                return w;
            };
            assert!(w.apply(spec, &mv), "{mv} was listed as enabled");
            assert!(w.net.audit().is_empty(), "{:?}", w.net.audit());
        }
        panic!("no quiescence within 1000 moves");
    }

    #[test]
    fn clrp_establishes_delivers_and_caches() {
        let spec = ModelSpec::new(Topology::mesh(&[2, 2]), ProtocolKind::Clrp, 1).msg(0, 3);
        let w = run_first(&spec);
        assert!(w.all_delivered(&spec));
        assert_eq!(w.net.circuits().len(), 1, "CLRP keeps the circuit cached");
        assert_eq!(w.net.stats().msgs_circuit, 1);
    }

    #[test]
    fn carp_tears_down_after_delivery() {
        let spec = ModelSpec::new(Topology::mesh(&[2, 2]), ProtocolKind::Carp, 1).msg(0, 3);
        let w = run_first(&spec);
        assert!(w.all_delivered(&spec));
        assert!(w.net.circuits().is_empty(), "the teardown stimulus ran");
        assert_eq!(w.net.lanes().census().1, 0, "no lane stays reserved");
    }

    #[test]
    fn a_move_not_enabled_changes_nothing() {
        let spec = ModelSpec::new(Topology::mesh(&[2, 2]), ProtocolKind::Clrp, 1).msg(0, 3);
        let mut w = World::new(&spec);
        let before = w.key();
        assert!(!w.apply(&spec, &Move::Fault), "no fault armed");
        assert!(
            !w.apply(&spec, &Move::Teardown(0)),
            "CLRP has no teardown stimulus"
        );
        assert_eq!(w.key(), before);
        assert!(w.apply(&spec, &Move::Inject(0)));
        assert!(!w.apply(&spec, &Move::Inject(0)), "a message is sent once");
    }

    #[test]
    fn labels_name_what_the_event_does() {
        let spec = ModelSpec::new(Topology::mesh(&[2, 2]), ProtocolKind::Clrp, 1).msg(0, 3);
        let mut w = World::new(&spec);
        assert!(w.apply(&spec, &Move::Inject(0)));
        let moves = w.moves(&spec);
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].to_string(), "probe n0->n3 at n0");
    }
}
