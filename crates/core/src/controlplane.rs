//! The controlplane: MB-m probe stepping, and the ack / teardown /
//! release-request walks over the dedicated control channels.
//!
//! This plane owns everything the control flits touch — the wave-lane
//! reservation table, the live probes, and the global circuit registry.
//! It knows nothing about Circuit Caches or protocols: when a probe
//! exhausts a switch, when an acknowledgment completes, or when a victim
//! circuit must be released, it emits a [`PlaneEvent`] and lets the
//! circuitplane decide.
//!
//! The PCS unit's registers (Fig. 3) are not stored per router. Channel
//! Status is the lane table and the History Store is the probe's. The
//! Direct/Reverse Channel Mappings are the circuit's lane path — the
//! probe's `path` while it searches, [`CircuitState::path`] once it
//! completes. Ack Returned and the teardown's progress are two hop
//! indices into that path ([`CircuitState::ack`], [`CircuitState::torn`]):
//! the ack passes the routers in descending path order, the teardown in
//! ascending.
//!
//! Time-delayed control-flit movement is scheduled on an external
//! [`EventQueue<CtrlEvent>`] (owned by the composition root, or by the
//! test that runs the plane standalone); every delay is at least one
//! cycle, so same-cycle event cascades cannot occur.

use wavesim_sim::{Cycle, EventQueue};
use wavesim_topology::{NodeId, PortDir, PortSet, Topology};
use wavesim_trace::TraceEvent;

use crate::arena::{GenSlab, SlotMap};
use crate::circuit::{CircuitState, CircuitStatus};
use crate::config::{Mutation, WaveConfig};
use crate::events::{EventBus, PlaneEvent};
use crate::ids::{CircuitId, LaneId, ProbeId};
use crate::lanes::{LaneState, LaneTable};
use crate::probe::{ProbeBufs, ProbeState};
use crate::stats::PlaneLog;

/// Control-flit events walking the control channels.
#[derive(Debug, Clone)]
pub enum CtrlEvent {
    /// Probe arrives (or resumes) at its current node.
    ProbeAt(ProbeId),
    /// Parked probe woken by a lane release.
    RetryProbe(ProbeId),
    /// Path-setup acknowledgment reaches the source router of path lane
    /// `hop` on its way back (hop 0 is the circuit's source node, where
    /// the ack completes establishment).
    AckHopAt(CircuitId, u32),
    /// Teardown flit reaches the source router of path lane `hop` (hop
    /// `path.len()` is the destination, where the circuit is released).
    TeardownAt(CircuitId, u32),
    /// Release-request flit reaches the circuit's source.
    ReleaseReqAt(CircuitId),
}

/// The control plane of the wave router.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    probes: GenSlab<ProbeId, ProbeState>,
    /// Buffers of retired probes, reused by the next launches.
    spare_bufs: Vec<ProbeBufs>,
    max_probe_steps: u64,
    pub(crate) routers: Routers,
    /// Every circuit's `(ack, torn)` after the last event, for the step
    /// oracle to check that the ack index only falls and the teardown
    /// index only rises.
    #[cfg(test)]
    oracle_marks: std::collections::BTreeMap<CircuitId, (u32, u32)>,
}

/// The control plane less its probes: everything a probe step reads or
/// writes besides the probe itself. Split out so that a step holds its
/// probe `&mut` in the slab while it works on these.
#[derive(Debug, Clone)]
pub(crate) struct Routers {
    topo: Topology,
    cfg: WaveConfig,
    lanes: LaneTable,
    circuits: SlotMap<CircuitId, CircuitState>,
    /// Path buffers of circuits gone from the registry, reused by the
    /// next probe that completes.
    spare_paths: Vec<Vec<LaneId>>,
    /// Probes a lane release or fault woke, waiting to be rescheduled
    /// (scratch: empty between events).
    woken: Vec<ProbeId>,
    pub(crate) log: PlaneLog,
    outbox: Vec<PlaneEvent>,
    /// The planted bug: `drop-release` and `wait-establishing` branch at
    /// the Force claim.
    pub(crate) mutation: Mutation,
}

/// How a probe step left its probe.
enum Step {
    /// Advanced a hop, or parked on a victim's lane.
    Stays,
    /// Backtracked a hop, freeing a lane: the probes parked on it are in
    /// [`Routers::woken`].
    Backtracked,
    /// Done: the probe leaves the slab.
    Retires(End),
}

/// Why a probe retires.
#[derive(Clone, Copy)]
enum End {
    /// Its circuit is being torn down: unwind the path.
    Cancelled,
    /// At its destination: the path goes to the circuit.
    Reached,
    /// Back at the source with nothing left to search.
    Exhausted,
}

impl ControlPlane {
    /// Builds the plane for `topo` under `cfg`.
    #[must_use]
    pub fn new(topo: Topology, cfg: WaveConfig) -> Self {
        Self {
            probes: GenSlab::new(),
            spare_bufs: Vec::new(),
            max_probe_steps: 0,
            routers: Routers {
                lanes: LaneTable::new(&topo, cfg.k),
                circuits: SlotMap::new(),
                spare_paths: Vec::new(),
                woken: Vec::new(),
                log: PlaneLog::default(),
                outbox: Vec::new(),
                mutation: Mutation::None,
                topo,
                cfg,
            },
            #[cfg(test)]
            oracle_marks: std::collections::BTreeMap::new(),
        }
    }

    // ------------------------------------------------------------------
    // Observation
    // ------------------------------------------------------------------

    /// The wave-lane table (read access for instrumentation).
    #[must_use]
    pub fn lanes(&self) -> &LaneTable {
        &self.routers.lanes
    }

    /// Live circuits (read access for instrumentation).
    #[must_use]
    pub fn circuits(&self) -> &SlotMap<CircuitId, CircuitState> {
        &self.routers.circuits
    }

    /// Live probes (read access for instrumentation).
    #[must_use]
    pub fn probes(&self) -> &GenSlab<ProbeId, ProbeState> {
        &self.probes
    }

    /// The Ack Returned bit of `circuit` at `node`'s PCS unit, if the
    /// circuit has a channel mapping there (Fig. 3 register observation).
    ///
    /// While a probe searches, every router on its path is mapped (the
    /// source once the probe has left it) and none has the ack. Once the
    /// path is complete, router `i` is the upstream end of path lane `i`
    /// (the destination is router `path.len()` and never sees the ack):
    /// it is mapped until the teardown passes it, and has the ack from
    /// hop index [`CircuitState::ack`] on.
    #[must_use]
    pub fn pcs_ack_returned(&self, node: NodeId, circuit: CircuitId) -> Option<bool> {
        let c = self.routers.circuits.get(circuit)?;
        if let Some(pid) = c.probe {
            let p = self.probes.get(pid).expect("recorded probe is live");
            let mapped = if node == p.src {
                p.hops > 0
            } else {
                p.on_path(node)
            };
            return mapped.then_some(false);
        }
        let topo = &self.routers.topo;
        let n = c.path.len();
        let i = if c
            .path
            .last()
            .is_some_and(|l| topo.link_dest(l.link) == node)
        {
            n
        } else {
            c.path
                .iter()
                .position(|l| topo.link_endpoints(l.link).0 == node)?
        };
        let i = i as u32;
        (i >= c.torn).then_some(i < n as u32 && i >= c.ack)
    }

    /// Largest number of control steps any single probe has taken — the
    /// quantity Theorems 3/4 bound (livelock freedom).
    #[must_use]
    pub fn max_probe_steps(&self) -> u64 {
        self.max_probe_steps
    }

    /// True while probes are walking the control network.
    #[must_use]
    pub fn busy(&self) -> bool {
        !self.probes.is_empty()
    }

    /// Fault event: marks `lane` faulty *now*, tearing down the victim
    /// circuit if the lane was reserved (teardown-then-fault). A static
    /// fault is one at cycle 0, when no lane is reserved yet.
    ///
    /// * Parked waiters are drained and retried; they re-scan, see the
    ///   lane `Faulty`, and route around it (counting a fault encounter).
    /// * A `Ready` victim starts the normal teardown walk from its source;
    ///   in-flight transfers already launched on it are wave fronts in
    ///   the pipeline and drain normally (the fault only blocks *new*
    ///   reservations of the lane).
    /// * An `Establishing` victim is marked `TearingDown`: its live probe
    ///   unwinds on its next step (a parked probe is unparked and woken so
    ///   that step happens); if the probe already completed and only the
    ///   ack walk remains, the ack dies against the status check and a
    ///   teardown walk reclaims the path.
    ///
    /// In both victim cases a [`PlaneEvent::CircuitBroken`] tells the
    /// circuitplane to invalidate the cache entry and (CLRP) retry.
    pub fn on_lane_fault(&mut self, now: Cycle, q: &mut EventQueue<CtrlEvent>, lane: LaneId) {
        let r = &mut self.routers;
        if r.lanes.state(lane) == LaneState::Faulty {
            return; // already faulty: idempotent
        }
        let victim = r.lanes.force_faulty(lane, &mut r.woken);
        r.log.note(
            now,
            TraceEvent::LaneFault {
                link: lane.link.0,
                switch: lane.switch,
            },
        );
        self.wake(now, q);
        let Some(victim) = victim else {
            return; // lane was free: no circuit to tear down
        };
        let r = &mut self.routers;
        let c = r
            .circuits
            .get_mut(victim)
            .expect("reserved lane names a live circuit");
        let (src, dest) = (c.src, c.dest);
        match c.status {
            CircuitStatus::TearingDown => {
                // A teardown (or probe unwind) is already reclaiming the
                // path; it skips the faulted lane via release_if_held.
            }
            CircuitStatus::Ready => {
                c.status = CircuitStatus::TearingDown;
                q.schedule(now + 1, CtrlEvent::TeardownAt(victim, 0));
                r.outbox.push(PlaneEvent::CircuitBroken {
                    circuit: victim,
                    src,
                    dest,
                });
            }
            CircuitStatus::Establishing => {
                c.status = CircuitStatus::TearingDown;
                match c.probe {
                    Some(pid) => {
                        // The probe unwinds when it next runs; a parked
                        // probe has no event in flight, so unpark + wake.
                        let p = self.probes.get(pid).expect("recorded probe is live");
                        if let Some(l) = p.parked_on {
                            r.lanes.unpark(l, pid);
                            q.schedule(now + 1, CtrlEvent::RetryProbe(pid));
                        }
                    }
                    None => {
                        // Probe completed; only the ack walk is out. It
                        // dies against the status check — reclaim the
                        // fully-reserved path with a teardown walk.
                        q.schedule(now + 1, CtrlEvent::TeardownAt(victim, 0));
                    }
                }
                r.outbox.push(PlaneEvent::CircuitBroken {
                    circuit: victim,
                    src,
                    dest,
                });
            }
        }
    }

    /// Repair event: returns a faulty lane to service. Repairing
    /// a lane that is not faulty is a tolerant no-op.
    pub fn on_lane_repair(&mut self, now: Cycle, lane: LaneId) {
        let r = &mut self.routers;
        if r.lanes.repair(lane) {
            r.log.note(
                now,
                TraceEvent::LaneRepair {
                    link: lane.link.0,
                    switch: lane.switch,
                },
            );
        }
    }

    /// Moves staged outbound events into `bus`.
    pub fn drain_outbox_into(&mut self, bus: &mut EventBus) {
        bus.absorb(&mut self.routers.outbox);
    }

    // ------------------------------------------------------------------
    // Inbound plane events
    // ------------------------------------------------------------------

    /// [`PlaneEvent::LaunchProbe`]: registers the circuit (on its first
    /// switch attempt) and sends a probe out of the source.
    #[expect(clippy::too_many_arguments, reason = "mirrors the event's fields")]
    pub fn on_launch_probe(
        &mut self,
        now: Cycle,
        q: &mut EventQueue<CtrlEvent>,
        circuit: CircuitId,
        src: NodeId,
        dest: NodeId,
        switch: u8,
        force: bool,
    ) {
        let r = &mut self.routers;
        let topo = &r.topo;
        let bufs = self.spare_bufs.pop().unwrap_or_default();
        let pid = self
            .probes
            .insert_with(|pid| ProbeState::new(pid, circuit, topo, src, dest, switch, force, bufs));
        let c = r
            .circuits
            .get_or_insert_with(circuit, || CircuitState::new(circuit, src, dest, switch));
        c.switch = switch;
        c.status = CircuitStatus::Establishing;
        c.probe = Some(pid);
        // PCS processing before the probe leaves the source.
        q.schedule(
            now + u64::from(r.cfg.pcs_delay).max(1),
            CtrlEvent::ProbeAt(pid),
        );
    }

    /// [`PlaneEvent::ReleaseCircuit`]: the cache entry is gone; tear the
    /// path down (or let the live probe unwind itself).
    pub fn on_release_circuit(
        &mut self,
        now: Cycle,
        q: &mut EventQueue<CtrlEvent>,
        circuit: CircuitId,
    ) {
        let Some(c) = self.routers.circuits.get_mut(circuit) else {
            return; // establishment already failed and cleaned up
        };
        match c.status {
            CircuitStatus::Establishing => {
                // A probe is still out. Backtracking it synchronously
                // would duplicate the search engine, so mark the circuit
                // TearingDown and the probe unwinds on its next step.
                c.status = CircuitStatus::TearingDown;
            }
            CircuitStatus::Ready => {
                c.status = CircuitStatus::TearingDown;
                q.schedule(now + 1, CtrlEvent::TeardownAt(circuit, 0));
            }
            CircuitStatus::TearingDown => {}
        }
    }

    /// [`PlaneEvent::AbandonCircuit`]: establishment failed on every
    /// switch; no lanes are held, so the registry entry just disappears.
    pub fn on_abandon_circuit(&mut self, circuit: CircuitId) {
        self.routers.forget_circuit(circuit);
    }

    // ------------------------------------------------------------------
    // Probe engine (MB-m, §2 + Fig. 4, with the §3.1 Force extension)
    // ------------------------------------------------------------------

    /// One step of probe `pid`, worked on where it lies in the slab: the
    /// probe leaves the slab only when it retires.
    fn process_probe(&mut self, now: Cycle, q: &mut EventQueue<CtrlEvent>, pid: ProbeId) {
        let Some(p) = self.probes.get_mut(pid) else {
            return; // probe already terminated (stale wake-up)
        };
        p.parked_on = None;
        let end = match self.routers.step(now, q, p) {
            Step::Stays => return,
            Step::Backtracked => return self.wake(now, q),
            Step::Retires(end) => end,
        };
        let mut p = self.probes.remove(&pid).expect("a stepped probe is live");
        match end {
            End::Cancelled => self.unwind_probe(now, q, &p),
            End::Reached => self.routers.complete_probe(now, q, &mut p),
            End::Exhausted => self.routers.exhaust_probe(&p),
        }
        // Its step count enters the Theorem 3/4 maximum, and its buffers
        // go back on the spare list.
        self.max_probe_steps = self.max_probe_steps.max(p.hops);
        self.spare_bufs.push(p.retire());
    }

    /// Releases everything a cancelled probe reserved, in reverse path
    /// order.
    fn unwind_probe(&mut self, now: Cycle, q: &mut EventQueue<CtrlEvent>, p: &ProbeState) {
        for lane in p.path.iter().rev() {
            // A dynamic fault may have force-faulted a path lane already;
            // release_if_held skips it (and its waiters were drained then).
            let r = &mut self.routers;
            r.lanes.release_if_held(*lane, p.circuit, &mut r.woken);
            self.wake(now, q);
        }
        // The registry entry goes, and the probe it recorded with it.
        let r = &mut self.routers;
        r.forget_circuit(p.circuit);
        r.outbox
            .push(PlaneEvent::CircuitReleased { circuit: p.circuit });
    }

    /// Schedules a retry for every live probe in [`Routers::woken`], in
    /// the order they were woken, and empties it.
    fn wake(&mut self, now: Cycle, q: &mut EventQueue<CtrlEvent>) {
        for pid in self.routers.woken.drain(..) {
            if self.probes.contains_key(&pid) {
                q.schedule(now + 1, CtrlEvent::RetryProbe(pid));
            }
        }
    }

    // ------------------------------------------------------------------
    // Teardown walk
    // ------------------------------------------------------------------

    /// The teardown flit passes the router at the upstream end of path
    /// lane `hop`, releasing that lane; past the last lane it has reached
    /// the destination and the circuit is gone.
    fn on_teardown(
        &mut self,
        now: Cycle,
        q: &mut EventQueue<CtrlEvent>,
        circuit: CircuitId,
        hop: u32,
    ) {
        let r = &mut self.routers;
        let Some(c) = r.circuits.get_mut(circuit) else {
            return; // already released
        };
        match c.path.get(hop as usize) {
            Some(&lane) => {
                c.torn = hop + 1;
                // release_if_held: a dynamic fault may have force-faulted
                // this hop's lane after the walk started.
                r.lanes.release_if_held(lane, circuit, &mut r.woken);
                q.schedule(
                    now + u64::from(r.cfg.ctrl_hop_delay),
                    CtrlEvent::TeardownAt(circuit, hop + 1),
                );
                self.wake(now, q);
            }
            None => {
                // Destination reached: the circuit is fully released.
                r.forget_circuit(circuit);
                r.outbox.push(PlaneEvent::CircuitReleased { circuit });
            }
        }
    }

    /// Handles one due control-flit event. The plane is purely
    /// event-driven: all its work happens here, on the calendar `q`.
    pub fn handle(&mut self, now: Cycle, event: CtrlEvent, q: &mut EventQueue<CtrlEvent>) {
        match event {
            CtrlEvent::ProbeAt(pid) | CtrlEvent::RetryProbe(pid) => self.process_probe(now, q, pid),
            CtrlEvent::AckHopAt(cid, hop) => self.routers.on_ack_hop(now, q, cid, hop),
            CtrlEvent::TeardownAt(cid, hop) => self.on_teardown(now, q, cid, hop),
            CtrlEvent::ReleaseReqAt(cid) => self.routers.on_release_request(cid),
        }
        #[cfg(test)]
        self.assert_step_oracle();
    }
}

impl Routers {
    /// Removes `circuit` from the registry, keeping its path buffer for
    /// the next circuit.
    fn forget_circuit(&mut self, circuit: CircuitId) {
        if let Some(c) = self.circuits.remove(&circuit) {
            let mut path = c.path;
            if path.capacity() > 0 {
                path.clear();
                self.spare_paths.push(path);
            }
        }
    }

    /// The search step of a probe at `p.at`: advance, park, backtrack, or
    /// report why the probe retires.
    fn step(&mut self, now: Cycle, q: &mut EventQueue<CtrlEvent>, p: &mut ProbeState) -> Step {
        // If the owning circuit was cancelled while the probe was walking
        // (defensive path — a teardown raced the search), unwind: release
        // every reserved lane and die quietly.
        let cancelled = match self.circuits.get(p.circuit) {
            None => true,
            Some(c) => c.status == CircuitStatus::TearingDown,
        };
        if cancelled {
            return Step::Retires(End::Cancelled);
        }

        // Destination reached?
        if p.at == p.dest {
            return Step::Retires(End::Reached);
        }

        let node = p.at;
        let reverse_in: Option<PortDir> = p.path.last().map(|lane| {
            let (_, port) = self.topo.link_endpoints(lane.link);
            port.opposite()
        });

        // The probe must not loop back through a node already on the
        // reserved path (including the source) — its path stays simple,
        // which both keeps the channel mappings well-defined (one hop per
        // circuit per router) and makes the Theorem 3/4 step bound hold.
        let loops_back = |topo: &Topology, p: &ProbeState, port: PortDir| -> bool {
            topo.neighbor(node, port).is_some_and(|n| p.on_path(n))
        };

        // Candidate ports: profitable (minimal) first, in dimension order,
        // then — while misroute budget remains (MB-m) — the rest, except
        // the port the probe came in through. The profitable ones are read
        // off the probe's own offset fields, refreshed along the dimension
        // moved at every hop and backtrack.
        let profitable = PortSet::from_offsets(&p.flit.offsets);
        debug_assert_eq!(profitable, self.topo.min_ports(node, p.dest));
        let misroutable = if p.flit.misroute < self.cfg.misroutes {
            let mut excluded = profitable;
            if let Some(port) = reverse_in {
                excluded.insert(port);
            }
            self.topo.ports_of(node).difference(excluded)
        } else {
            PortSet::default()
        };

        // 1) Free profitable channel not yet searched.
        for port in profitable {
            if p.searched(node, port.index()) || loops_back(&self.topo, p, port) {
                continue;
            }
            let lane = LaneId::new(self.topo.link_id(node, port), p.switch);
            match self.lanes.state(lane) {
                LaneState::Free => {
                    self.advance_probe(now, q, p, port, lane, false);
                    return Step::Stays;
                }
                LaneState::Faulty => {
                    self.log.stats.probe_fault_encounters += 1;
                }
                LaneState::Reserved(_) => {}
            }
        }

        // 2) Misroute.
        for port in misroutable {
            if p.searched(node, port.index()) || loops_back(&self.topo, p, port) {
                continue;
            }
            let lane = LaneId::new(self.topo.link_id(node, port), p.switch);
            match self.lanes.state(lane) {
                LaneState::Free => {
                    self.advance_probe(now, q, p, port, lane, true);
                    return Step::Stays;
                }
                LaneState::Faulty => {
                    self.log.stats.probe_fault_encounters += 1;
                }
                LaneState::Reserved(_) => {}
            }
        }

        // 3) Force mode: pick a victim circuit holding a requested lane
        //    whose acknowledgment has returned (§3.1 phase two).
        if p.flit.force {
            for port in profitable.iter().chain(misroutable) {
                if p.searched(node, port.index()) || loops_back(&self.topo, p, port) {
                    continue;
                }
                let lane = LaneId::new(self.topo.link_id(node, port), p.switch);
                let Some(victim) = self.lanes.holder(lane) else {
                    continue; // free or faulty, handled above
                };
                let Some(vstate) = self.circuits.get(victim) else {
                    continue;
                };
                let ready = vstate.status == CircuitStatus::Ready;
                // §4's no-wait rule, unless wait-establishing removed it.
                let waits = ready
                    || (vstate.status == CircuitStatus::Establishing
                        && self.mutation == Mutation::WaitEstablishing);
                if !waits {
                    continue;
                }
                // Park the probe on the lane; it resumes when freed.
                self.lanes.park(lane, p.id);
                p.parked_on = Some(lane);
                self.log.note(
                    now,
                    TraceEvent::ProbePark {
                        circuit: p.circuit.0,
                        probe: p.id.0,
                        node: node.0,
                        victim: victim.0,
                    },
                );
                let vsrc = vstate.src;
                if !ready || self.mutation == Mutation::DropRelease {
                    // No release for an establishing victim, or a lost one.
                    return Step::Stays;
                }
                if vsrc == node {
                    // Victim starts here: ask the local Circuit Cache to
                    // release it.
                    self.log.stats.forced_local_releases += 1;
                    self.outbox.push(PlaneEvent::VictimRelease {
                        circuit: victim,
                        src: vsrc,
                    });
                } else {
                    // Victim crosses here: ask its source to release it.
                    self.log.stats.forced_remote_releases += 1;
                    let hops_back = self.hops_from_source(victim, node);
                    let delay = hops_back * u64::from(self.cfg.ctrl_hop_delay);
                    q.schedule(now + delay.max(1), CtrlEvent::ReleaseReqAt(victim));
                }
                return Step::Stays;
            }
            // All requested lanes belong to circuits being established (or
            // nothing is requestable): backtrack even with Force set (§4).
        }

        // 4) Backtrack.
        self.backtrack_probe(now, q, p)
    }

    /// Path position of `node` on `circuit` (hops from the source),
    /// counting reserved lanes. Used to time release-request flights.
    fn hops_from_source(&self, circuit: CircuitId, node: NodeId) -> u64 {
        let Some(c) = self.circuits.get(circuit) else {
            return 1;
        };
        for (i, lane) in c.path.iter().enumerate() {
            if self.topo.link_dest(lane.link) == node {
                return (i + 1) as u64;
            }
        }
        1
    }

    fn advance_probe(
        &mut self,
        now: Cycle,
        q: &mut EventQueue<CtrlEvent>,
        p: &mut ProbeState,
        port: PortDir,
        lane: LaneId,
        misroute: bool,
    ) {
        p.mark_searched(p.at, port.index());
        self.lanes.reserve(lane, p.circuit);
        if misroute {
            p.flit.misroute += 1;
        }
        let next = self.topo.link_dest(lane.link);
        p.path.push(lane);
        p.enter(next);
        p.at = next;
        p.hops += 1;
        self.log.note(
            now,
            TraceEvent::ProbeHop {
                circuit: p.circuit.0,
                probe: p.id.0,
                node: next.0,
                link: lane.link.0,
                misroute,
            },
        );
        p.flit.backtrack = false;
        p.flit.step_offset(&self.topo, next, p.dest, port.dim);
        // Forward moves pay the PCS routing decision plus the wire hop.
        let delay = u64::from(self.cfg.ctrl_hop_delay) + u64::from(self.cfg.pcs_delay);
        q.schedule(now + delay, CtrlEvent::ProbeAt(p.id));
    }

    /// Steps the probe back one hop, or reports it exhausted at its
    /// source.
    fn backtrack_probe(
        &mut self,
        now: Cycle,
        q: &mut EventQueue<CtrlEvent>,
        p: &mut ProbeState,
    ) -> Step {
        if p.at == p.src {
            return Step::Retires(End::Exhausted);
        }
        p.flit.backtrack = true;
        let lane = p.path.pop().expect("non-source probe has a path");
        let (prev, port) = self.topo.link_endpoints(lane.link);
        self.lanes.release(lane, p.circuit, &mut self.woken);
        p.leave(p.at);
        p.at = prev;
        p.hops += 1;
        p.backtracks += 1;
        self.log.note(
            now,
            TraceEvent::ProbeBacktrack {
                circuit: p.circuit.0,
                probe: p.id.0,
                node: prev.0,
            },
        );
        p.flit.step_offset(&self.topo, prev, p.dest, port.dim);
        q.schedule(
            now + u64::from(self.cfg.ctrl_hop_delay),
            CtrlEvent::ProbeAt(p.id),
        );
        Step::Backtracked
    }

    /// The search space for this switch is exhausted: the probe id
    /// retires and the circuitplane decides what comes next.
    fn exhaust_probe(&mut self, p: &ProbeState) {
        self.circuits
            .get_mut(p.circuit)
            .expect("live probe has a live circuit")
            .probe = None;
        self.outbox.push(PlaneEvent::ProbeExhausted {
            circuit: p.circuit,
            src: p.src,
            dest: p.dest,
            switch: p.switch,
            force: p.flit.force,
        });
    }

    fn complete_probe(&mut self, now: Cycle, q: &mut EventQueue<CtrlEvent>, p: &mut ProbeState) {
        debug_assert_eq!(p.at, p.dest);
        debug_assert!(!p.path.is_empty(), "src != dest implies a real path");
        self.log.note(
            now,
            TraceEvent::ProbeReached {
                circuit: p.circuit.0,
                probe: p.id.0,
                dest: p.dest.0,
                steps: p.hops,
            },
        );
        let c = self
            .circuits
            .get_mut(p.circuit)
            .expect("live probe has a live circuit");
        // The circuit's path is a copy in a recycled buffer, so the probe
        // keeps its own buffer for the next launch.
        debug_assert!(c.path.is_empty(), "a circuit completes once");
        c.path = self.spare_paths.pop().unwrap_or_default();
        c.path.extend_from_slice(&p.path);
        c.probe = None;
        // The acknowledgment returns hop by hop over the reverse control
        // channels (Fig. 3's Reverse Channel Mappings, the path read
        // backwards), lowering the circuit's Ack Returned index as it
        // passes each router.
        let last_hop = (c.path.len() - 1) as u32;
        let delay = u64::from(self.cfg.ctrl_hop_delay);
        q.schedule(now + delay.max(1), CtrlEvent::AckHopAt(p.circuit, last_hop));
    }

    // ------------------------------------------------------------------
    // Ack / release-request walks
    // ------------------------------------------------------------------

    /// The ack flit passes the router at the upstream end of path lane
    /// `hop`, setting that router's Ack Returned bit; at hop 0 it has
    /// reached the source and establishment completes.
    fn on_ack_hop(
        &mut self,
        now: Cycle,
        q: &mut EventQueue<CtrlEvent>,
        circuit: CircuitId,
        hop: u32,
    ) {
        let Some(c) = self.circuits.get_mut(circuit) else {
            return; // torn down while the ack was in flight
        };
        if c.status != CircuitStatus::Establishing || hop as usize >= c.path.len() {
            return;
        }
        c.ack = hop;
        if hop > 0 {
            q.schedule(
                now + u64::from(self.cfg.ctrl_hop_delay),
                CtrlEvent::AckHopAt(circuit, hop - 1),
            );
            return;
        }
        c.status = CircuitStatus::Ready;
        self.outbox.push(PlaneEvent::CircuitEstablished {
            circuit,
            src: c.src,
            dest: c.dest,
            hops: c.hops(),
            first_lane: *c.path.first().expect("established path is non-empty"),
        });
    }

    fn on_release_request(&mut self, circuit: CircuitId) {
        match self.circuits.get(circuit) {
            Some(c) if c.status == CircuitStatus::Ready => {
                self.outbox.push(PlaneEvent::VictimRelease {
                    circuit,
                    src: c.src,
                });
            }
            // Circuit released (or releasing) while the request was in
            // flight: "the control flit is discarded at some intermediate
            // node" (§4).
            _ => self.log.stats.release_requests_discarded += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolKind;
    use crate::network::WaveNetwork;
    use std::collections::{BTreeMap, BTreeSet};
    use wavesim_network::Message;
    use wavesim_sim::SimRng;

    impl ControlPlane {
        /// The step oracle: [`ControlPlane::handle`] runs it after every
        /// event in this crate's unit tests. It recomputes from scratch
        /// what the probe step keeps incrementally.
        pub(super) fn assert_step_oracle(&mut self) {
            let topo = &self.routers.topo;
            for (pid, p) in self.probes.iter() {
                // The on-path bits are exactly the nodes of the path.
                let marked: BTreeSet<NodeId> = topo.nodes().filter(|&n| p.on_path(n)).collect();
                let walked: BTreeSet<NodeId> = std::iter::once(p.src)
                    .chain(p.path.iter().map(|l| topo.link_dest(l.link)))
                    .collect();
                assert_eq!(marked, walked, "{pid}: on-path bits vs path {:?}", p.path);
                // A probe that has not moved has searched nothing: its
                // (possibly recycled) History Store is a fresh one's.
                if p.hops == 0 {
                    let fresh = ProbeState::new(
                        pid,
                        p.circuit,
                        topo,
                        p.src,
                        p.dest,
                        p.switch,
                        p.flit.force,
                        ProbeBufs::default(),
                    );
                    assert_eq!(p.history, fresh.history, "{pid}: stale History Store");
                }
            }
            // The probe a circuit records is the one a scan of every
            // probe slot finds.
            for (cid, c) in self.routers.circuits.iter() {
                let scanned = self
                    .probes
                    .iter()
                    .find(|(_, p)| p.circuit == cid)
                    .map(|(pid, _)| pid);
                assert_eq!(c.probe, scanned, "{cid}: recorded probe vs scan");
            }
            self.assert_lane_ownership();
        }

        /// The lane-ownership half of the oracle: the lane table, the
        /// circuits' paths and their two hop indices agree.
        fn assert_lane_ownership(&mut self) {
            let lanes = &self.routers.lanes;
            let circuits = &self.routers.circuits;
            let probe_path = |c: &CircuitState| -> &[LaneId] {
                c.probe
                    .and_then(|pid| self.probes.get(pid))
                    .map_or(&[], |p| &p.path)
            };
            // Every reserved lane lies on its holder's path ahead of the
            // teardown, or on the path of its holder's live probe.
            for (lane, cid) in lanes.reserved_lanes() {
                let c = circuits
                    .get(cid)
                    .unwrap_or_else(|| panic!("{lane} held by released {cid}"));
                let unpassed = &c.path[c.torn as usize..];
                assert!(
                    unpassed.contains(&lane) || probe_path(c).contains(&lane),
                    "{lane} held by {cid} off its path {:?} (torn {})",
                    c.path,
                    c.torn
                );
            }
            // Every lane of a circuit's path the teardown has not passed,
            // and of its live probe's path, is held by the circuit. A fault
            // evicts the holder (the lane turns Faulty) and tears the
            // circuit down; a repair may free the lane again before the
            // walk arrives, so a TearingDown circuit is held to check one.
            for (cid, c) in circuits.iter() {
                if c.status == CircuitStatus::TearingDown {
                    continue;
                }
                for &lane in c.path[c.torn as usize..].iter().chain(probe_path(c)) {
                    assert_eq!(
                        lanes.state(lane),
                        LaneState::Reserved(cid),
                        "{cid} ({:?}): path lane {lane} not held",
                        c.status
                    );
                }
            }
            // The ack index only falls and the teardown index only rises,
            // each within the path.
            let marks: BTreeMap<CircuitId, (u32, u32)> = circuits
                .iter()
                .map(|(cid, c)| (cid, (c.ack, c.torn)))
                .collect();
            for (&cid, &(ack, torn)) in &marks {
                let n = circuits.get(cid).expect("listed above").path.len() as u32;
                assert!(
                    ack == u32::MAX || ack < n,
                    "{cid}: ack {ack} past its {n} hops"
                );
                assert!(torn <= n, "{cid}: teardown {torn} past its {n} hops");
                if let Some(&(ack0, torn0)) = self.oracle_marks.get(&cid) {
                    assert!(ack <= ack0, "{cid}: ack index rose {ack0} -> {ack}");
                    assert!(
                        torn >= torn0,
                        "{cid}: teardown index fell {torn0} -> {torn}"
                    );
                }
            }
            self.oracle_marks = marks;
        }
    }

    /// Drives a 6x6 CLRP network — one wave switch, so phase-two Force
    /// probes and MB-2 misroutes are routine, and lanes failing under the
    /// probes — with the step oracle checked after every control event.
    #[test]
    fn step_oracle_holds_through_a_contended_clrp_run() {
        let topo = Topology::torus(&[6, 6]);
        let cfg = WaveConfig {
            protocol: ProtocolKind::Clrp,
            k: 1,
            misroutes: 2,
            cache_capacity: 2,
            ..WaveConfig::default()
        };
        assert!(cfg.clrp.enable_force);
        let mut net = WaveNetwork::new(topo.clone(), cfg);
        let mut rng = SimRng::new(15);
        let links: Vec<_> = topo.links().collect();
        for at in (200..3000).step_by(100) {
            let lane = LaneId::new(*rng.choose(&links).expect("links exist"), 1);
            net.schedule_fault(at, crate::network::FaultEvent::Fail(lane))
                .expect("lane exists");
            net.schedule_fault(at + 150, crate::network::FaultEvent::Repair(lane))
                .expect("lane exists");
        }
        let mut id = 0;
        let mut now = 0;
        while now < 3000 || (net.busy() && now < 100_000) {
            if now < 3000 && now % 2 == 0 {
                let src = NodeId(rng.below(36) as u32);
                let dest = NodeId(rng.below(36) as u32);
                if src != dest {
                    net.send(now, Message::new(id, src, dest, 8, now));
                    id += 1;
                }
            }
            net.tick(now);
            now += 1;
        }
        assert!(!net.busy(), "run drains");
        let s = net.stats();
        // The run exercised what the oracle is there to check.
        assert!(s.probes_sent > 500, "{s:?}");
        assert!(s.probe_backtracks > 100, "{s:?}");
        assert!(s.probe_misroutes > 100, "{s:?}");
        assert!(
            s.forced_local_releases + s.forced_remote_releases > 100,
            "{s:?}"
        );
        assert!(s.circuits_broken > 0, "{s:?}");
    }

    /// A retired probe's buffers come back zeroed, and the next launch
    /// takes them rather than allocating.
    #[test]
    fn launch_reuses_a_retired_probes_zeroed_buffers() {
        let topo = Topology::mesh(&[4, 4]);
        let mut plane = ControlPlane::new(topo.clone(), WaveConfig::default());
        let mut queue = EventQueue::new();
        let run = |plane: &mut ControlPlane, queue: &mut EventQueue<CtrlEvent>| {
            while let Some(now) = queue.next_time() {
                while let Some(ev) = queue.pop_due(now) {
                    plane.handle(now, ev.event, queue);
                }
            }
        };
        // A first hop failed at cycle 0 makes probe 1 search, so it
        // retires with searched and (cleared) on-path bits behind it.
        let blocked = topo.link_id(NodeId(0), PortDir::from_index(0));
        plane.on_lane_fault(0, &mut queue, LaneId::new(blocked, 1));
        plane.on_launch_probe(0, &mut queue, CircuitId(0), NodeId(0), NodeId(3), 1, false);
        assert!(plane.spare_bufs.is_empty(), "nothing retired yet");
        run(&mut plane, &mut queue);
        assert_eq!(plane.routers.log.stats.probes_reached, 1);
        assert!(plane.routers.log.stats.probe_misroutes > 0);
        assert_eq!(plane.spare_bufs.len(), 1, "probe 1 left its buffers");

        plane.on_launch_probe(
            100,
            &mut queue,
            CircuitId(1),
            NodeId(5),
            NodeId(6),
            2,
            false,
        );
        assert!(plane.spare_bufs.is_empty(), "probe 2 took them");
        let p = plane.probes.values().next().expect("probe 2 is live");
        for n in topo.nodes() {
            assert_eq!(p.on_path(n), n == NodeId(5));
            assert!((0..4).all(|i| !p.searched(n, i)), "stale history at {n}");
        }
        assert!(p.path.is_empty());
        assert_eq!(p.flit.offsets, vec![1, 0]);
    }

    /// The plane runs standalone on its own calendar: launch a probe and
    /// watch it reserve a path and complete the ack walk.
    #[test]
    fn establishes_a_circuit_standalone() {
        let topo = Topology::mesh(&[4, 4]);
        let mut plane = ControlPlane::new(topo, WaveConfig::default());
        let mut queue = EventQueue::new();
        let cid = CircuitId(0);
        // Launch through the public inbound-event entry point.
        plane.on_launch_probe(0, &mut queue, cid, NodeId(0), NodeId(15), 1, false);
        while let Some(now) = queue.next_time().filter(|&t| t < 10_000) {
            while let Some(ev) = queue.pop_due(now) {
                plane.handle(now, ev.event, &mut queue);
            }
        }
        let mut bus = EventBus::new();
        plane.drain_outbox_into(&mut bus);
        let mut established = false;
        while let Some(ev) = bus.pop() {
            if let PlaneEvent::CircuitEstablished { circuit, hops, .. } = ev {
                assert_eq!(circuit, cid);
                assert_eq!(hops, 6, "minimal path in a 4x4 mesh corner to corner");
                established = true;
            }
        }
        assert!(established);
        assert!(!plane.busy());
        assert_eq!(plane.routers.log.stats.probes_reached, 1);
    }
}
