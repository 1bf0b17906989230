//! The controlplane: PCS units, MB-m probe stepping, and the ack /
//! teardown / release-request walks over the dedicated control channels.
//!
//! This plane owns everything the control flits touch — the wave-lane
//! reservation table, the per-router PCS mapping registers, the live
//! probes, and the global circuit registry. It knows nothing about
//! Circuit Caches or protocols: when a probe exhausts a switch, when an
//! acknowledgment completes, or when a victim circuit must be released,
//! it emits a [`PlaneEvent`] and lets the circuitplane decide.
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
use crate::config::WaveConfig;
use crate::events::{EventBus, PlaneEvent};
use crate::ids::{CircuitId, LaneId, ProbeId};
use crate::lanes::{LaneState, LaneTable};
use crate::pcs::PcsUnit;
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
    /// Teardown flit reaches `node`.
    TeardownAt(CircuitId, NodeId),
    /// Release-request flit reaches the circuit's source.
    ReleaseReqAt(CircuitId),
}

/// The control plane of the wave router.
#[derive(Debug)]
pub struct ControlPlane {
    topo: Topology,
    cfg: WaveConfig,
    lanes: LaneTable,
    pcs: Vec<PcsUnit>,
    probes: GenSlab<ProbeId, ProbeState>,
    /// Buffers of retired probes, reused by the next launches.
    spare_bufs: Vec<ProbeBufs>,
    circuits: SlotMap<CircuitId, CircuitState>,
    max_probe_steps: u64,
    pub(crate) log: PlaneLog,
    outbox: Vec<PlaneEvent>,
}

impl ControlPlane {
    /// Builds the plane for `topo` under `cfg`.
    #[must_use]
    pub fn new(topo: Topology, cfg: WaveConfig) -> Self {
        let n = topo.num_nodes() as usize;
        Self {
            lanes: LaneTable::new(&topo, cfg.k),
            pcs: vec![PcsUnit::new(); n],
            probes: GenSlab::new(),
            spare_bufs: Vec::new(),
            circuits: SlotMap::new(),
            max_probe_steps: 0,
            log: PlaneLog::default(),
            outbox: Vec::new(),
            topo,
            cfg,
        }
    }

    // ------------------------------------------------------------------
    // Observation
    // ------------------------------------------------------------------

    /// The wave-lane table (read access for instrumentation).
    #[must_use]
    pub fn lanes(&self) -> &LaneTable {
        &self.lanes
    }

    /// Live circuits (read access for instrumentation).
    #[must_use]
    pub fn circuits(&self) -> &SlotMap<CircuitId, CircuitState> {
        &self.circuits
    }

    /// Live probes (read access for instrumentation).
    #[must_use]
    pub fn probes(&self) -> &GenSlab<ProbeId, ProbeState> {
        &self.probes
    }

    /// The Ack Returned bit of `circuit` at `node`'s PCS unit, if the
    /// circuit has a mapping there (Fig. 3 register observation).
    #[must_use]
    pub fn pcs_ack_returned(&self, node: NodeId, circuit: CircuitId) -> Option<bool> {
        self.pcs[node.0 as usize]
            .hop(circuit)
            .map(|h| h.ack_returned)
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
        if self.lanes.state(lane) == LaneState::Faulty {
            return; // already faulty: idempotent
        }
        let (victim, waiters) = self.lanes.force_faulty(lane);
        self.log.note(
            now,
            TraceEvent::LaneFault {
                link: lane.link.0,
                switch: lane.switch,
            },
        );
        self.wake(now, q, waiters);
        let Some(victim) = victim else {
            return; // lane was free: no circuit to tear down
        };
        let c = self
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
                q.schedule(now + 1, CtrlEvent::TeardownAt(victim, src));
                self.outbox.push(PlaneEvent::CircuitBroken {
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
                            self.lanes.unpark(l, pid);
                            q.schedule(now + 1, CtrlEvent::RetryProbe(pid));
                        }
                    }
                    None => {
                        // Probe completed; only the ack walk is out. It
                        // dies against the status check — reclaim the
                        // fully-reserved path with a teardown walk.
                        q.schedule(now + 1, CtrlEvent::TeardownAt(victim, src));
                    }
                }
                self.outbox.push(PlaneEvent::CircuitBroken {
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
        if self.lanes.repair(lane) {
            self.log.note(
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
        bus.absorb(&mut self.outbox);
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
        let topo = &self.topo;
        let bufs = self.spare_bufs.pop().unwrap_or_default();
        let pid = self
            .probes
            .insert_with(|pid| ProbeState::new(pid, circuit, topo, src, dest, switch, force, bufs));
        let c = self
            .circuits
            .get_or_insert_with(circuit, || CircuitState::new(circuit, src, dest, switch));
        c.switch = switch;
        c.status = CircuitStatus::Establishing;
        c.probe = Some(pid);
        // PCS processing before the probe leaves the source.
        q.schedule(
            now + u64::from(self.cfg.pcs_delay).max(1),
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
        src: NodeId,
    ) {
        let Some(c) = self.circuits.get_mut(circuit) else {
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
                q.schedule(now + 1, CtrlEvent::TeardownAt(circuit, src));
            }
            CircuitStatus::TearingDown => {}
        }
    }

    /// [`PlaneEvent::AbandonCircuit`]: establishment failed on every
    /// switch; no lanes are held, so the registry entry just disappears.
    pub fn on_abandon_circuit(&mut self, circuit: CircuitId) {
        self.circuits.remove(&circuit);
    }

    // ------------------------------------------------------------------
    // Probe engine (MB-m, §2 + Fig. 4, with the §3.1 Force extension)
    // ------------------------------------------------------------------

    fn process_probe(&mut self, now: Cycle, q: &mut EventQueue<CtrlEvent>, pid: ProbeId) {
        let Some(mut p) = self.probes.take(&pid) else {
            return; // probe already terminated (stale wake-up)
        };
        p.parked_on = None;

        // If the owning circuit was cancelled while the probe was walking
        // (defensive path — a teardown raced the search), unwind: release
        // every reserved lane and die quietly.
        let cancelled = match self.circuits.get(p.circuit) {
            None => true,
            Some(c) => c.status == CircuitStatus::TearingDown,
        };
        if cancelled {
            self.unwind_probe(now, q, p);
            return;
        }

        // Destination reached?
        if p.at == p.dest {
            self.complete_probe(now, q, p);
            return;
        }

        let node = p.at;
        let reverse_in: Option<PortDir> = p.path.last().map(|lane| {
            let (_, port) = self.topo.link_endpoints(lane.link);
            port.opposite()
        });

        // The probe must not loop back through a node already on the
        // reserved path (including the source) — its path stays simple,
        // which both keeps the PCS mappings well-defined (one hop per
        // circuit per router) and makes the Theorem 3/4 step bound hold.
        let loops_back = |topo: &Topology, p: &ProbeState, port: PortDir| -> bool {
            topo.neighbor(node, port).is_some_and(|n| p.on_path(n))
        };

        // Candidate ports: profitable (minimal) first, in dimension order,
        // then — while misroute budget remains (MB-m) — the rest, except
        // the port the probe came in through.
        let profitable = self.topo.min_ports(node, p.dest);
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
            if p.searched(node, port.index()) || loops_back(&self.topo, &p, port) {
                continue;
            }
            let lane = LaneId::new(self.topo.link_id(node, port), p.switch);
            match self.lanes.state(lane) {
                LaneState::Free => {
                    self.advance_probe(now, q, p, port, lane, false);
                    return;
                }
                LaneState::Faulty => {
                    self.log.stats.probe_fault_encounters += 1;
                }
                LaneState::Reserved(_) => {}
            }
        }

        // 2) Misroute.
        for port in misroutable {
            if p.searched(node, port.index()) || loops_back(&self.topo, &p, port) {
                continue;
            }
            let lane = LaneId::new(self.topo.link_id(node, port), p.switch);
            match self.lanes.state(lane) {
                LaneState::Free => {
                    self.advance_probe(now, q, p, port, lane, true);
                    return;
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
                if p.searched(node, port.index()) || loops_back(&self.topo, &p, port) {
                    continue;
                }
                let lane = LaneId::new(self.topo.link_id(node, port), p.switch);
                let Some(victim) = self.lanes.holder(lane) else {
                    continue; // free or faulty, handled above
                };
                let Some(vstate) = self.circuits.get(victim) else {
                    continue;
                };
                if vstate.status != CircuitStatus::Ready {
                    continue; // being established or already tearing down
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
                self.probes.restore(p.id, p);
                return;
            }
            // All requested lanes belong to circuits being established (or
            // nothing is requestable): backtrack even with Force set (§4).
        }

        // 4) Backtrack.
        self.backtrack_probe(now, q, p);
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
        mut p: ProbeState,
        port: PortDir,
        lane: LaneId,
        misroute: bool,
    ) {
        p.mark_searched(p.at, port.index());
        self.lanes.reserve(lane, p.circuit);
        if misroute {
            p.flit.misroute += 1;
        }
        // PCS bookkeeping at the current node: out mapping.
        let unit = &mut self.pcs[p.at.0 as usize];
        if unit.hop(p.circuit).is_none() {
            // Source node (no in-lane).
            debug_assert_eq!(p.at, p.src);
            unit.record(p.circuit, p.switch, None, Some(lane));
        } else {
            unit.set_out_lane(p.circuit, Some(lane));
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
        let (dest, circuit, switch) = (p.dest, p.circuit, p.switch);
        p.flit.update_offsets(&self.topo, next, dest);
        // Record the in-mapping at the next node on arrival.
        let unit = &mut self.pcs[next.0 as usize];
        if unit.hop(circuit).is_none() {
            unit.record(circuit, switch, Some(lane), None);
        } else {
            // Revisited node after a backtrack elsewhere: refresh in-lane.
            unit.clear(circuit);
            unit.record(circuit, switch, Some(lane), None);
        }
        let pid = p.id;
        self.probes.restore(pid, p);
        // Forward moves pay the PCS routing decision plus the wire hop.
        let delay = u64::from(self.cfg.ctrl_hop_delay) + u64::from(self.cfg.pcs_delay);
        q.schedule(now + delay, CtrlEvent::ProbeAt(pid));
    }

    fn backtrack_probe(&mut self, now: Cycle, q: &mut EventQueue<CtrlEvent>, mut p: ProbeState) {
        if p.at == p.src {
            // Search space for this switch exhausted; the probe id retires.
            self.pcs[p.src.0 as usize].clear(p.circuit);
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
            self.retire_probe(p);
            return;
        }
        p.flit.backtrack = true;
        let lane = p.path.pop().expect("non-source probe has a path");
        let (prev, _) = self.topo.link_endpoints(lane.link);
        // Clear this node's mapping; the previous node's out-lane resets.
        self.pcs[p.at.0 as usize].clear(p.circuit);
        self.pcs[prev.0 as usize].set_out_lane(p.circuit, None);
        let woken = self.lanes.release(lane, p.circuit);
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
        let (dest, pid) = (p.dest, p.id);
        p.flit.update_offsets(&self.topo, prev, dest);
        self.probes.restore(pid, p);
        q.schedule(
            now + u64::from(self.cfg.ctrl_hop_delay),
            CtrlEvent::ProbeAt(pid),
        );
        self.wake(now, q, woken);
    }

    /// Releases everything a cancelled probe reserved (reverse path order)
    /// and clears the PCS mappings it created.
    fn unwind_probe(&mut self, now: Cycle, q: &mut EventQueue<CtrlEvent>, p: ProbeState) {
        self.pcs[p.at.0 as usize].clear(p.circuit);
        for lane in p.path.iter().rev() {
            let (from, _) = self.topo.link_endpoints(lane.link);
            self.pcs[from.0 as usize].clear(p.circuit);
            // A dynamic fault may have force-faulted a path lane already;
            // release_if_held skips it (and its waiters were drained then).
            let woken = self.lanes.release_if_held(*lane, p.circuit);
            self.wake(now, q, woken);
        }
        // The registry entry goes, and the probe it recorded with it.
        self.circuits.remove(&p.circuit);
        self.outbox
            .push(PlaneEvent::CircuitReleased { circuit: p.circuit });
        self.retire_probe(p);
    }

    /// A terminated probe's id retires, its step count enters the
    /// Theorem 3/4 maximum, and its buffers go back on the spare list.
    fn retire_probe(&mut self, p: ProbeState) {
        self.probes.free(p.id);
        self.max_probe_steps = self.max_probe_steps.max(p.hops);
        self.spare_bufs.push(p.retire());
    }

    fn complete_probe(&mut self, now: Cycle, q: &mut EventQueue<CtrlEvent>, mut p: ProbeState) {
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
        c.path = std::mem::take(&mut p.path);
        c.probe = None;
        // The acknowledgment returns hop by hop over the reverse control
        // channels (Fig. 3's Reverse Channel Mappings), setting each
        // router's Ack Returned bit as it passes.
        let last_hop = (c.path.len() - 1) as u32;
        let delay = u64::from(self.cfg.ctrl_hop_delay);
        q.schedule(now + delay.max(1), CtrlEvent::AckHopAt(p.circuit, last_hop));
        // Probe terminates; its History Store entries die with it.
        self.retire_probe(p);
    }

    fn wake(&mut self, now: Cycle, q: &mut EventQueue<CtrlEvent>, probes: Vec<ProbeId>) {
        for pid in probes {
            if self.probes.contains_key(&pid) {
                q.schedule(now + 1, CtrlEvent::RetryProbe(pid));
            }
        }
    }

    // ------------------------------------------------------------------
    // Ack / teardown / release-request walks
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
        let Some(c) = self.circuits.get(circuit) else {
            return; // torn down while the ack was in flight
        };
        if c.status != CircuitStatus::Establishing {
            return;
        }
        let Some(lane) = c.path.get(hop as usize) else {
            return;
        };
        let (node, _) = self.topo.link_endpoints(lane.link);
        self.pcs[node.0 as usize].mark_ack(circuit);
        if hop > 0 {
            q.schedule(
                now + u64::from(self.cfg.ctrl_hop_delay),
                CtrlEvent::AckHopAt(circuit, hop - 1),
            );
            return;
        }
        let c = self.circuits.get_mut(circuit).expect("checked above");
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

    fn on_teardown(
        &mut self,
        now: Cycle,
        q: &mut EventQueue<CtrlEvent>,
        circuit: CircuitId,
        node: NodeId,
    ) {
        let Some(hop) = self.pcs[node.0 as usize].clear(circuit) else {
            return; // already unwound (e.g. backtrack raced)
        };
        match hop.out_lane {
            Some(lane) => {
                // release_if_held: a dynamic fault may have force-faulted
                // this hop's lane after the walk started.
                let woken = self.lanes.release_if_held(lane, circuit);
                let next = self.topo.link_dest(lane.link);
                q.schedule(
                    now + u64::from(self.cfg.ctrl_hop_delay),
                    CtrlEvent::TeardownAt(circuit, next),
                );
                self.wake(now, q, woken);
            }
            None => {
                // Destination reached: the circuit is fully released.
                self.circuits.remove(&circuit);
                self.outbox.push(PlaneEvent::CircuitReleased { circuit });
            }
        }
    }

    /// Handles one due control-flit event. The plane is purely
    /// event-driven: all its work happens here, on the calendar `q`.
    pub fn handle(&mut self, now: Cycle, event: CtrlEvent, q: &mut EventQueue<CtrlEvent>) {
        match event {
            CtrlEvent::ProbeAt(pid) | CtrlEvent::RetryProbe(pid) => self.process_probe(now, q, pid),
            CtrlEvent::AckHopAt(cid, hop) => self.on_ack_hop(now, q, cid, hop),
            CtrlEvent::TeardownAt(cid, node) => self.on_teardown(now, q, cid, node),
            CtrlEvent::ReleaseReqAt(cid) => self.on_release_request(cid),
        }
        #[cfg(test)]
        self.assert_step_oracle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolKind;
    use crate::network::WaveNetwork;
    use std::collections::BTreeSet;
    use wavesim_network::Message;
    use wavesim_sim::SimRng;

    impl ControlPlane {
        /// The step oracle: [`ControlPlane::handle`] runs it after every
        /// event in this crate's unit tests. It recomputes from scratch
        /// what the probe step keeps incrementally.
        pub(super) fn assert_step_oracle(&self) {
            for (pid, p) in self.probes.iter() {
                // The on-path bits are exactly the nodes of the path.
                let marked: BTreeSet<NodeId> =
                    self.topo.nodes().filter(|&n| p.on_path(n)).collect();
                let walked: BTreeSet<NodeId> = std::iter::once(p.src)
                    .chain(p.path.iter().map(|l| self.topo.link_dest(l.link)))
                    .collect();
                assert_eq!(marked, walked, "{pid}: on-path bits vs path {:?}", p.path);
                // A probe that has not moved has searched nothing: its
                // (possibly recycled) History Store is a fresh one's.
                if p.hops == 0 {
                    let fresh = ProbeState::new(
                        pid,
                        p.circuit,
                        &self.topo,
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
            for (cid, c) in self.circuits.iter() {
                let scanned = self
                    .probes
                    .iter()
                    .find(|(_, p)| p.circuit == cid)
                    .map(|(pid, _)| pid);
                assert_eq!(c.probe, scanned, "{cid}: recorded probe vs scan");
            }
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
        assert_eq!(plane.log.stats.probes_reached, 1);
        assert!(plane.log.stats.probe_misroutes > 0);
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
        assert_eq!(plane.log.stats.probes_reached, 1);
    }
}
