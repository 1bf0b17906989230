//! The wave-switched network: a thin composition root over the three
//! plane engines.
//!
//! This module used to contain the whole router; it is now the *wiring*
//! only. The actual machinery lives in:
//!
//! * [`crate::dataplane`] — the `S0` wormhole fabric;
//! * [`crate::controlplane`] — wave lanes, MB-m probes, the circuit
//!   registry whose paths are the PCS channel mappings, and the ack /
//!   teardown / release-request walks;
//! * [`crate::circuitplane`] — Circuit Caches, the CLRP / CARP protocol
//!   engines, and windowed circuit transfers.
//!
//! The planes never touch each other's state: everything crosses the
//! [`EventBus`] as a [`PlaneEvent`], routed here to a fixpoint within the
//! cycle it was emitted (see [`crate::events`] for why that loop
//! terminates). Time-delayed work sits on two per-plane
//! [`EventQueue`]s owned by this root, so the control and circuit planes
//! can also run standalone on a calendar of their own.
//!
//! ### CLRP (§3.1), as implemented
//!
//! 1. **Lookup** — a send consults the source's Circuit Cache. A `Ready`
//!    entry is a hit; an `Establishing` entry queues the message behind
//!    the probe.
//! 2. **Phase one** — on a miss, a probe with Force clear searches switch
//!    `1 + (Σ coords) mod k` first (the paper's staggering rule), then the
//!    next switch modulo `k`, recorded in `Initial Switch` to avoid
//!    repeating the search.
//! 3. **Phase two** — if every switch failed, the probe retries with the
//!    Force bit set: blocked at a node, it selects a victim circuit that
//!    holds a requested lane *and has its acknowledgment returned*; a
//!    circuit starting at that node is released locally, otherwise a
//!    release request travels to the circuit's source. The probe parks on
//!    the lane and resumes when the teardown frees it. If every requested
//!    lane belongs to circuits still being established, the probe
//!    backtracks even in force mode (the §4 no-wait rule that preserves
//!    deadlock freedom).
//! 4. **Phase three** — if force probes also fail on every switch, queued
//!    messages fall back to wormhole switching.
//!
//! ### CARP (§3.2), as implemented
//!
//! Explicit [`WaveNetwork::carp_establish`] / [`WaveNetwork::carp_teardown`]
//! calls drive circuits; probes never set Force. Failed establishments
//! leave a `Failed` entry so the affected message set uses wormhole
//! switching, exactly as §3.2 prescribes.
//!
//! ### Policy decisions the paper leaves open (documented choices)
//!
//! * Queued messages behind a circuit that gets released are re-injected
//!   into the wormhole fabric (the paper only specifies the in-transit
//!   message).
//! * The acknowledgment travels hop by hop on the reverse control
//!   channels, setting each router's Ack-Returned bit as it passes
//!   (observable via [`WaveNetwork::pcs_ack_returned`]). Force-mode victim
//!   selection still requires the victim to be globally `Ready` — slightly
//!   more conservative than the per-node register check, which avoids a
//!   wait-without-wakeup race in the simulator (a release request that
//!   overtakes the victim's own ack would be discarded at the source,
//!   stranding the parked probe).
//! * Remote victim selection picks the first eligible lane in dimension
//!   order (the paper does not specify a remote policy; the Replace field
//!   only exists at the source).

use wavesim_network::{Delivery, Message, WormholeFabric};
use wavesim_sim::{Cycle, CycleKernelStats, EventQueue, ScheduledEvent};
use wavesim_topology::{NodeId, Topology};
use wavesim_trace::{FlightRecorder, PlaneId as TracePlane, StreamSink, TraceEvent, TraceHub};

use crate::arena::{GenSlab, SlotMap};
use crate::cache::{CircuitCache, EntryState};
use crate::circuit::{CircuitState, CircuitStatus};
use crate::circuitplane::{CircuitPlane, TransferEvent};
use crate::config::{Mutation, WaveConfig};
use crate::controlplane::{ControlPlane, CtrlEvent};
use crate::dataplane::DataPlane;
use crate::events::{EventBus, PlaneEvent};
use crate::ids::{CircuitId, LaneId, ProbeId};
use crate::lanes::LaneTable;
use crate::probe::ProbeState;
use crate::stats::WaveStats;

mod key;

/// A timed fault action applied to one wave lane (the composition root's
/// view of a fault schedule; `wavesim-workloads` builds schedules and
/// expands whole-link events into per-lane ones before scheduling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Mark the lane faulty, tearing down its circuit if reserved.
    Fail(LaneId),
    /// Return a faulty lane to service.
    Repair(LaneId),
}

impl FaultEvent {
    /// The lane the action targets.
    #[must_use]
    pub fn lane(self) -> LaneId {
        match self {
            FaultEvent::Fail(l) | FaultEvent::Repair(l) => l,
        }
    }
}

/// One event of the network's three calendars. [`WaveNetwork::tick`]
/// runs the due ones; a model checker fires any pending one
/// ([`WaveNetwork::fire`]) through the same single-event steps.
#[derive(Debug, Clone)]
pub enum NetEvent {
    /// A lane fails or is repaired.
    Fault(FaultEvent),
    /// A probe, ack, teardown or release-request flit arrives.
    Ctrl(CtrlEvent),
    /// A circuit transfer delivers, is acknowledged, or a re-establishment
    /// backoff expires.
    Transfer(TransferEvent),
}

wavesim_sim::stat_table! {
    /// A cheap cross-plane health snapshot ([`WaveNetwork::health`]): the
    /// instantaneous quantities live observers poll without perturbing the
    /// run.
    #[derive(Debug, Clone, Default)]
    pub struct HealthSnapshot {
        /// Flits currently in the wormhole fabric.
        in_flight_flits: Gauge,
        /// Messages accepted but not yet delivered.
        in_flight_msgs: Gauge,
        /// Routers currently doing work, across planes.
        active_routers: Gauge,
        /// Pending control-plane events (probes, acks, teardowns, transfers).
        control_backlog: Gauge,
        /// Cycles since any flit last moved in the fabric.
        progress_age_cycles: Gauge,
        /// Cumulative wall-clock nanoseconds spent in the fabric's tick
        /// (worklist, scan, commit and retire).
        scan_wall_ns: Counter,
    }
}

/// The complete wave-switched network (Fig. 2 routers at every node):
/// three plane engines composed over an event bus.
pub struct WaveNetwork {
    topo: Topology,
    cfg: WaveConfig,
    data: DataPlane,
    ctrl: ControlPlane,
    circ: CircuitPlane,
    ctrl_queue: EventQueue<CtrlEvent>,
    xfer_queue: EventQueue<TransferEvent>,
    fault_queue: EventQueue<FaultEvent>,
    bus: EventBus,
    deliveries: Vec<Delivery>,
    /// The facts this root sees itself: submissions, and every bus event
    /// with a trace projection.
    stats: WaveStats,
    outstanding_msgs: u64,
    kernel: CycleKernelStats,
    trace: TraceHub,
}

/// The trace projection of an inter-plane event, if it has one.
/// `ReleaseCircuit` is internal bookkeeping (the observable outcome is the
/// later `CircuitReleased`) and is not traced. `WormholeDelivered` is
/// traced at its source instead: the dataplane stages the delivery event
/// into its own buffer, absorbed by [`WaveNetwork::route`].
fn trace_event_of(ev: &PlaneEvent) -> Option<TraceEvent> {
    Some(match ev {
        PlaneEvent::WormholeDelivered(_) => return None,
        PlaneEvent::CircuitDelivered(d) => TraceEvent::CircuitDeliver {
            msg: d.msg.id.0,
            src: d.msg.src.0,
            dest: d.msg.dest.0,
            latency: d.latency(),
        },
        PlaneEvent::InjectWormhole(m) => TraceEvent::WormholeInject {
            msg: m.id.0,
            src: m.src.0,
            dest: m.dest.0,
            len_flits: m.len_flits,
        },
        PlaneEvent::LaunchProbe {
            circuit,
            src,
            dest,
            switch,
            force,
        } => TraceEvent::ProbeLaunch {
            circuit: circuit.0,
            src: src.0,
            dest: dest.0,
            switch: *switch,
            force: *force,
        },
        PlaneEvent::ProbeExhausted {
            circuit,
            src,
            switch,
            force,
            ..
        } => TraceEvent::ProbeExhausted {
            circuit: circuit.0,
            src: src.0,
            switch: *switch,
            force: *force,
        },
        PlaneEvent::CircuitEstablished {
            circuit,
            src,
            dest,
            hops,
            ..
        } => TraceEvent::CircuitEstablished {
            circuit: circuit.0,
            src: src.0,
            dest: dest.0,
            hops: *hops,
        },
        PlaneEvent::VictimRelease { circuit, src } => TraceEvent::ForcedRelease {
            circuit: circuit.0,
            src: src.0,
        },
        PlaneEvent::AbandonCircuit { circuit } => {
            TraceEvent::CircuitAbandoned { circuit: circuit.0 }
        }
        PlaneEvent::CircuitReleased { circuit } => {
            TraceEvent::CircuitReleased { circuit: circuit.0 }
        }
        PlaneEvent::CircuitBroken { circuit, src, dest } => TraceEvent::CircuitBroken {
            circuit: circuit.0,
            src: src.0,
            dest: dest.0,
        },
        PlaneEvent::ReleaseCircuit { .. } => return None,
    })
}

impl WaveNetwork {
    /// Builds the network for `topo` under `cfg`.
    #[must_use]
    pub fn new(topo: Topology, cfg: WaveConfig) -> Self {
        cfg.validate();
        Self {
            data: DataPlane::new(topo.clone(), cfg.wormhole),
            ctrl: ControlPlane::new(topo.clone(), cfg),
            circ: CircuitPlane::new(topo.clone(), cfg),
            ctrl_queue: EventQueue::new(),
            xfer_queue: EventQueue::new(),
            fault_queue: EventQueue::new(),
            bus: EventBus::new(),
            deliveries: Vec::new(),
            stats: WaveStats::default(),
            outstanding_msgs: 0,
            kernel: CycleKernelStats::default(),
            trace: TraceHub::new(),
            topo,
            cfg,
        }
    }

    // ------------------------------------------------------------------
    // Tracing
    // ------------------------------------------------------------------

    /// Installs a trace sink and arms every emit point: inter-plane events
    /// and the planes' intra-plane staging buffers all flow into `sink`
    /// from now on, stamped with a single global sequence order.
    pub fn install_trace_sink(&mut self, sink: Box<StreamSink>) {
        self.trace.install(sink);
        self.sync_planes();
    }

    /// Returns the installed sink, if any.
    pub fn take_trace_sink(&mut self) -> Option<Box<StreamSink>> {
        let sink = self.trace.take();
        self.sync_planes();
        sink
    }

    /// Keeps the last `n` (> 0) records from now on, beside any sink: the
    /// watchdog's post-mortem reads them through [`Self::trace_tail`].
    pub fn keep_trace_tail(&mut self, n: usize) {
        self.trace.keep_tail(n);
        self.sync_planes();
    }

    /// The kept tail, current up to the last emit.
    #[must_use]
    pub fn trace_tail(&self) -> Option<&FlightRecorder> {
        self.trace.tail()
    }

    /// Stops keeping the tail and returns it.
    pub fn release_trace_tail(&mut self) -> Option<FlightRecorder> {
        let tail = self.trace.take_tail();
        self.sync_planes();
        tail
    }

    /// Arms the planes' staging buffers while a sink or a tail takes
    /// records; otherwise disarms them, discarding what they staged.
    fn sync_planes(&mut self) {
        let on = self.trace.armed();
        self.data.log.trace.set_armed(on);
        self.ctrl.routers.log.trace.set_armed(on);
        self.circ.log.trace.set_armed(on);
    }

    /// A deep copy of the network without the trace sink or tail: every
    /// plane, calendar, pending delivery and counter is cloned, so the
    /// copy and the original tick on independently and, given the same
    /// inputs, identically. The copy's planes stage nothing (their trace
    /// buffers are disarmed and empty) and it has no sink or tail until
    /// one is installed; the original, its sink and its tail are
    /// untouched.
    #[must_use]
    pub fn fork(&self) -> Self {
        let mut copy = Self {
            topo: self.topo.clone(),
            cfg: self.cfg,
            data: self.data.clone(),
            ctrl: self.ctrl.clone(),
            circ: self.circ.clone(),
            ctrl_queue: self.ctrl_queue.clone(),
            xfer_queue: self.xfer_queue.clone(),
            fault_queue: self.fault_queue.clone(),
            bus: self.bus.clone(),
            deliveries: self.deliveries.clone(),
            stats: self.stats,
            outstanding_msgs: self.outstanding_msgs,
            kernel: self.kernel,
            trace: TraceHub::new(),
        };
        copy.sync_planes();
        copy
    }

    /// True while a trace sink is installed or a tail is kept.
    #[must_use]
    pub fn tracing(&self) -> bool {
        self.trace.armed()
    }

    /// Emits an out-of-band annotation into the trace stream (no-op when
    /// untraced). Watchdogs and other observers use this to stamp
    /// structured events — e.g. [`TraceEvent::WatchdogTrip`] — into the
    /// same globally-sequenced record stream the planes write, so a
    /// post-mortem shows exactly where the observer fired relative to
    /// protocol activity.
    pub fn trace_note(&mut self, now: Cycle, ev: TraceEvent) {
        if self.trace.armed() {
            self.trace.emit(now, ev);
        }
    }

    /// A cheap cross-plane health snapshot for live observers (watchdogs,
    /// the metrics endpoint). Every field is O(1) to read.
    #[must_use]
    pub fn health(&self, now: Cycle) -> HealthSnapshot {
        let fabric = self.data.fabric();
        HealthSnapshot {
            in_flight_flits: fabric.in_flight_flits(),
            in_flight_msgs: self.outstanding_msgs,
            active_routers: self.active_routers(),
            control_backlog: self.control_backlog() as u64,
            progress_age_cycles: fabric.progress_age(now),
            scan_wall_ns: fabric.shard_wall_ns()[0],
        }
    }

    // ------------------------------------------------------------------
    // Observation (delegating to the owning plane)
    // ------------------------------------------------------------------

    /// The topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &WaveConfig {
        &self.cfg
    }

    /// Protocol statistics: the field-wise sum of this root's counters
    /// and the three planes' contributions.
    #[must_use]
    pub fn stats(&self) -> WaveStats {
        let mut s = self.stats;
        s.absorb(&self.data.log.stats);
        s.absorb(&self.ctrl.routers.log.stats);
        s.absorb(&self.circ.log.stats);
        s
    }

    /// The underlying wormhole fabric (read access for instrumentation).
    #[must_use]
    pub fn fabric(&self) -> &WormholeFabric {
        self.data.fabric()
    }

    /// Routers currently doing work, across planes: the wormhole fabric's
    /// active set plus source nodes with a circuit in use or queued
    /// (the health snapshot's gauge; a node busy in both planes counts in
    /// each). Both planes keep their active sets incrementally; the read
    /// is a popcount over the fabric's active bitset (one word per 64
    /// routers) plus the circuit plane's counter.
    #[must_use]
    pub fn active_routers(&self) -> u64 {
        self.data.fabric().active_routers() + self.circ.active_sources()
    }

    /// Deliveries completed but not yet drained (read-only peek — the
    /// status board observes them between `tick` and the driver's drain
    /// without perturbing the run).
    #[must_use]
    pub fn pending_deliveries(&self) -> &[Delivery] {
        &self.deliveries
    }

    /// Cycle-kernel work counters: the fabric's scanning effort plus the
    /// inter-plane events this root routed.
    #[must_use]
    pub fn kernel_stats(&self) -> CycleKernelStats {
        let mut k = self.data.fabric().kernel_stats();
        k.events_routed += self.kernel.events_routed;
        k
    }

    /// The wave-lane table (read access for instrumentation).
    #[must_use]
    pub fn lanes(&self) -> &LaneTable {
        self.ctrl.lanes()
    }

    /// Live circuits (read access for instrumentation).
    #[must_use]
    pub fn circuits(&self) -> &SlotMap<CircuitId, CircuitState> {
        self.ctrl.circuits()
    }

    /// Live probes (read access for instrumentation).
    #[must_use]
    pub fn probes(&self) -> &GenSlab<ProbeId, ProbeState> {
        self.ctrl.probes()
    }

    /// The Circuit Cache of `node`.
    #[must_use]
    pub fn cache(&self, node: NodeId) -> &CircuitCache {
        self.circ.cache(node)
    }

    /// The Ack Returned bit of `circuit` at `node`'s PCS unit, if the
    /// circuit has a mapping there (Fig. 3 register observation).
    #[must_use]
    pub fn pcs_ack_returned(&self, node: NodeId, circuit: CircuitId) -> Option<bool> {
        self.ctrl.pcs_ack_returned(node, circuit)
    }

    /// Largest number of control steps any single probe has taken — the
    /// quantity Theorems 3/4 bound (livelock freedom).
    #[must_use]
    pub fn max_probe_steps(&self) -> u64 {
        self.ctrl.max_probe_steps()
    }

    /// Messages accepted but not yet delivered.
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.outstanding_msgs
    }

    /// Pending control-plane events (probes, acks, teardowns, transfers).
    #[must_use]
    pub fn control_backlog(&self) -> usize {
        self.ctrl_queue.len() + self.xfer_queue.len()
    }

    /// Checks that `lane` exists under this network's topology and `k`.
    fn validate_lane(&self, lane: LaneId) -> Result<(), String> {
        if !self.topo.has_link(lane.link) {
            return Err(format!(
                "lane {lane}: link {} is not in the topology",
                lane.link.0
            ));
        }
        if lane.switch < 1 || lane.switch > self.cfg.k {
            return Err(format!(
                "lane {lane}: switch {} out of range 1..={}",
                lane.switch, self.cfg.k
            ));
        }
        Ok(())
    }

    /// Schedules a fault action for cycle `at`: applied at the start of
    /// [`WaveNetwork::tick`]`(at)`, before any control or transfer event
    /// of that cycle. A static fault is one scheduled at cycle 0, which
    /// lands before any probe can reserve a lane. Only the wave plane
    /// faults; see DESIGN.md. Validates the lane against the topology and
    /// `k` up front. Pending fault events do not keep the network
    /// [`WaveNetwork::busy`] — a drained network with only future repairs
    /// outstanding is done — but [`WaveNetwork::next_activity`] honours
    /// them so the idle fast-forward cannot skip a fault.
    pub fn schedule_fault(&mut self, at: Cycle, ev: FaultEvent) -> Result<(), String> {
        self.validate_lane(ev.lane())?;
        self.fault_queue.schedule(at, ev);
        Ok(())
    }

    /// Drains deliveries completed since the last call (both transports).
    pub fn drain_deliveries(&mut self) -> Vec<Delivery> {
        std::mem::take(&mut self.deliveries)
    }

    /// Drains deliveries into a caller-provided buffer (cleared first) and
    /// keeps the swapped-out capacity for future deliveries — the
    /// allocation-free variant of [`WaveNetwork::drain_deliveries`] for
    /// per-cycle polling loops.
    pub fn drain_deliveries_into(&mut self, out: &mut Vec<Delivery>) {
        out.clear();
        std::mem::swap(&mut self.deliveries, out);
    }

    /// True while any message, probe, or control flit is outstanding.
    #[must_use]
    pub fn busy(&self) -> bool {
        self.data.busy()
            || self.outstanding_msgs > 0
            || self.ctrl.busy()
            || !self.ctrl_queue.is_empty()
            || !self.xfer_queue.is_empty()
    }

    /// The earliest cycle > `now` at which [`WaveNetwork::tick`] has any
    /// work: the very next cycle while wormhole flits are in flight,
    /// otherwise the next scheduled control/transfer event. `None` means
    /// no tick will ever do anything again (quiescent *or* stuck — a
    /// parked probe with no event in flight never wakes, and callers'
    /// stall monitors must still get a chance to observe that).
    #[must_use]
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if self.data.busy() {
            return Some(now + 1);
        }
        let next = [
            self.ctrl_queue.next_time(),
            self.xfer_queue.next_time(),
            self.fault_queue.next_time(),
        ]
        .into_iter()
        .flatten()
        .min();
        next.map(|t| t.max(now + 1))
    }

    // ------------------------------------------------------------------
    // The cycle loop
    // ------------------------------------------------------------------

    /// Advances the whole network by one cycle: the dataplane ticks, then
    /// due control and transfer events are dispatched one at a time, with
    /// the event bus routed to a fixpoint after every step so cross-plane
    /// effects land in the same cycle (matching the pre-split router).
    ///
    /// An idle dataplane is skipped outright: the fabric's VA round-robin
    /// pointer is derived from `now` (not from tick count) and its SA
    /// pointers only move on grants, so skipping dead fabric cycles is
    /// state-identical to ticking through them.
    pub fn tick(&mut self, now: Cycle) {
        let traced = self.trace.armed();
        // Fault events apply first: a lane failing at cycle T is faulty
        // before any probe, ack, or transfer of cycle T runs, regardless
        // of how the caller drives the loop — the deterministic order the
        // jobs-invariance golden relies on.
        while let Some(ev) = self.fault_queue.pop_due(now) {
            self.fault_step(now, ev.event);
        }
        if self.data.busy() {
            if traced {
                self.trace.emit(
                    now,
                    TraceEvent::PlaneTick {
                        plane: TracePlane::Data,
                    },
                );
            }
            self.data.step(now);
            self.data.drain_outbox_into(&mut self.bus);
        }
        self.route(now);
        let mut ctrl_ran = false;
        let mut xfer_ran = false;
        loop {
            if let Some(ev) = self.ctrl_queue.pop_due(now) {
                ctrl_ran = true;
                self.ctrl_step(now, ev.event);
            } else if let Some(ev) = self.xfer_queue.pop_due(now) {
                xfer_ran = true;
                self.xfer_step(now, ev.event);
            } else {
                break;
            }
        }
        if traced {
            if ctrl_ran {
                self.trace.emit(
                    now,
                    TraceEvent::PlaneTick {
                        plane: TracePlane::Control,
                    },
                );
            }
            if xfer_ran {
                self.trace.emit(
                    now,
                    TraceEvent::PlaneTick {
                        plane: TracePlane::Circuit,
                    },
                );
            }
        }
    }

    /// The single-event steps, one per calendar, that `tick` and `fire`
    /// share: the event's handler at `now`, then the bus routed to its
    /// fixpoint, so cross-plane effects land in the same step.
    #[inline]
    fn fault_step(&mut self, now: Cycle, ev: FaultEvent) {
        match ev {
            FaultEvent::Fail(lane) => self.ctrl.on_lane_fault(now, &mut self.ctrl_queue, lane),
            FaultEvent::Repair(lane) => self.ctrl.on_lane_repair(now, lane),
        }
        self.ctrl.drain_outbox_into(&mut self.bus);
        self.route(now);
    }

    #[inline]
    fn ctrl_step(&mut self, now: Cycle, ev: CtrlEvent) {
        self.ctrl.handle(now, ev, &mut self.ctrl_queue);
        self.ctrl.drain_outbox_into(&mut self.bus);
        self.route(now);
    }

    #[inline]
    fn xfer_step(&mut self, now: Cycle, ev: TransferEvent) {
        self.circ.handle(now, ev, &mut self.xfer_queue);
        self.circ.drain_outbox_into(&mut self.bus);
        self.route(now);
    }

    /// Every pending calendar event — fault actions, then control flits,
    /// then transfers, each calendar earliest first. These are the
    /// protocol's own moves; a model checker may [`WaveNetwork::fire`] any
    /// of them, not only the one [`WaveNetwork::tick`] would run next.
    #[must_use]
    pub fn pending_events(&self) -> Vec<ScheduledEvent<NetEvent>> {
        let mut all = Vec::new();
        let mut add = |at, seq, event| all.push(ScheduledEvent { at, seq, event });
        for e in self.fault_queue.pending() {
            add(e.at, e.seq, NetEvent::Fault(e.event));
        }
        for e in self.ctrl_queue.pending() {
            add(e.at, e.seq, NetEvent::Ctrl(e.event.clone()));
        }
        for e in self.xfer_queue.pending() {
            add(e.at, e.seq, NetEvent::Transfer(e.event.clone()));
        }
        all
    }

    /// Takes the pending event `ev` (as [`WaveNetwork::pending_events`]
    /// listed it) off its calendar and dispatches it at `now`, whatever
    /// its scheduled cycle, through the path `tick` uses. Returns `false`
    /// when `ev` is no longer pending.
    pub fn fire(&mut self, now: Cycle, ev: &ScheduledEvent<NetEvent>) -> bool {
        let taken = match ev.event {
            NetEvent::Fault(_) => self.fault_queue.remove(ev.seq).is_some(),
            NetEvent::Ctrl(_) => self.ctrl_queue.remove(ev.seq).is_some(),
            NetEvent::Transfer(_) => self.xfer_queue.remove(ev.seq).is_some(),
        };
        match ev.event.clone() {
            _ if !taken => {}
            NetEvent::Fault(f) => self.fault_step(now, f),
            NetEvent::Ctrl(c) => self.ctrl_step(now, c),
            NetEvent::Transfer(t) => self.xfer_step(now, t),
        }
        taken
    }

    /// Ticks the dataplane alone from `now` until it is idle; returns the
    /// first cycle it did not tick. The model checker runs the wormhole
    /// fall-back so, inside one move. It ends because the fall-back drains
    /// every wormhole: each routing function `RoutingKind::build` makes is
    /// deadlock-free, and the checker certifies the configured one.
    pub fn run_fabric(&mut self, mut now: Cycle) -> Cycle {
        while self.data.busy() {
            self.data.step(now);
            self.data.drain_outbox_into(&mut self.bus);
            self.route(now);
            now += 1;
        }
        now
    }

    /// Plants `m` in the control and circuit planes: the model checker's
    /// hook (see [`Mutation`]).
    pub fn mutate(&mut self, m: Mutation) {
        self.ctrl.routers.mutation = m;
        self.circ.mutation = m;
    }

    /// Routes bus events to their consuming plane until the bus drains.
    /// Terminates because every handler either finishes in bounded
    /// immediate work or schedules delayed work at `now + 1` or later.
    fn route(&mut self, now: Cycle) {
        let traced = self.trace.armed();
        if traced {
            // Intra-plane emits staged since the last route (outbox drains
            // happen right before route calls, so staging order ≈ bus order).
            // Dataplane first: its events (deliveries of the tick that
            // just stepped) precede anything the control or circuit
            // planes staged in response.
            self.trace.absorb(&mut self.data.log.trace);
            self.trace.absorb(&mut self.ctrl.routers.log.trace);
            self.trace.absorb(&mut self.circ.log.trace);
        }
        while let Some(ev) = self.bus.pop() {
            self.kernel.events_routed += 1;
            // A bus fact is counted where it is traced: here, armed or not.
            if let Some(t) = trace_event_of(&ev) {
                self.stats.count(&t);
                self.trace.emit(now, t);
            }
            match ev {
                PlaneEvent::WormholeDelivered(d) | PlaneEvent::CircuitDelivered(d) => {
                    self.outstanding_msgs -= 1;
                    self.deliveries.push(d);
                }
                PlaneEvent::InjectWormhole(msg) => self.data.inject(msg),
                PlaneEvent::LaunchProbe {
                    circuit,
                    src,
                    dest,
                    switch,
                    force,
                } => self.ctrl.on_launch_probe(
                    now,
                    &mut self.ctrl_queue,
                    circuit,
                    src,
                    dest,
                    switch,
                    force,
                ),
                PlaneEvent::ProbeExhausted {
                    circuit,
                    src,
                    dest,
                    switch,
                    force,
                } => self
                    .circ
                    .on_probe_exhausted(circuit, src, dest, switch, force),
                PlaneEvent::CircuitEstablished {
                    circuit,
                    src,
                    dest,
                    hops,
                    first_lane,
                } => self.circ.on_established(
                    now,
                    &mut self.xfer_queue,
                    circuit,
                    src,
                    dest,
                    hops,
                    first_lane,
                ),
                PlaneEvent::VictimRelease { circuit, src } => {
                    self.circ.on_victim_release(circuit, src);
                }
                PlaneEvent::ReleaseCircuit { circuit } => {
                    self.ctrl
                        .on_release_circuit(now, &mut self.ctrl_queue, circuit);
                }
                PlaneEvent::AbandonCircuit { circuit } => {
                    self.ctrl.on_abandon_circuit(circuit);
                    // Nothing references the id any more: recycle its slot.
                    self.circ.on_circuit_freed(circuit);
                }
                PlaneEvent::CircuitReleased { circuit } => {
                    // Teardown (or probe unwind) finished; the id retires.
                    self.circ.on_circuit_freed(circuit);
                }
                PlaneEvent::CircuitBroken { circuit, src, dest } => {
                    self.circ
                        .on_circuit_broken(now, &mut self.xfer_queue, circuit, src, dest);
                }
            }
            self.ctrl.drain_outbox_into(&mut self.bus);
            self.circ.drain_outbox_into(&mut self.bus);
            if traced {
                self.trace.absorb(&mut self.ctrl.routers.log.trace);
                self.trace.absorb(&mut self.circ.log.trace);
            }
        }
    }

    // ------------------------------------------------------------------
    // Message submission
    // ------------------------------------------------------------------

    /// Submits a message; the configured protocol decides its transport.
    pub fn send(&mut self, now: Cycle, msg: Message) {
        self.stats.msgs_sent += 1;
        self.outstanding_msgs += 1;
        self.circ.send(now, msg, &mut self.xfer_queue);
        self.circ.drain_outbox_into(&mut self.bus);
        self.route(now);
    }

    /// CARP: explicitly requests a circuit to `dest` from `src` ("when a
    /// physical circuit is requested, a switch S_i is selected and a probe
    /// is sent to establish it").
    ///
    /// # Panics
    /// Panics unless the configured protocol is
    /// [`crate::config::ProtocolKind::Carp`].
    pub fn carp_establish(&mut self, now: Cycle, src: NodeId, dest: NodeId) {
        self.circ.carp_establish(now, src, dest);
        self.circ.drain_outbox_into(&mut self.bus);
        self.route(now);
    }

    /// CARP: explicitly tears down the circuit from `src` to `dest` once
    /// queued traffic drains ("when the circuit is no longer required, it
    /// is explicitly torn down").
    ///
    /// # Panics
    /// Panics unless the configured protocol is
    /// [`crate::config::ProtocolKind::Carp`].
    pub fn carp_teardown(&mut self, now: Cycle, src: NodeId, dest: NodeId) {
        self.circ.carp_teardown(src, dest);
        self.circ.drain_outbox_into(&mut self.bus);
        self.route(now);
    }

    // ------------------------------------------------------------------
    // Invariant audit (used by wavesim-verify and tests)
    // ------------------------------------------------------------------

    /// Cross-checks lane reservations against circuit paths and probe
    /// paths, cache entries against the circuit registry, and every cache
    /// against its register-file capacity; returns human-readable
    /// violations (empty = consistent).
    ///
    /// When the network is not [`busy`](WaveNetwork::busy) and no circuit
    /// is establishing or tearing down, the lane census must also close:
    /// the reserved lanes are exactly the Ready circuits' paths plus the
    /// live probes' reserved prefixes.
    #[must_use]
    pub fn audit(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let lanes = self.ctrl.lanes();
        // Every Ready circuit's path must be reserved by it.
        for (cid, c) in self.ctrl.circuits().iter() {
            if c.status == CircuitStatus::Ready {
                for lane in &c.path {
                    if lanes.holder(*lane) != Some(cid) {
                        problems.push(format!("{cid}: path lane {lane} not held"));
                    }
                }
            }
        }
        // Every live probe's reserved prefix must be held by its circuit,
        // unless the circuit is tearing down: a fault may have taken a lane
        // the probe skips when it unwinds.
        for (pid, p) in self.ctrl.probes().iter() {
            let unwinding = self
                .ctrl
                .circuits()
                .get(p.circuit)
                .is_none_or(|c| c.status == CircuitStatus::TearingDown);
            for lane in p.path.iter().filter(|_| !unwinding) {
                if lanes.holder(*lane) != Some(p.circuit) {
                    problems.push(format!("{pid}: reserved lane {lane} not held"));
                }
            }
        }
        // Cache entries and circuit registry must agree.
        for (n, cache) in self.circ.caches().iter().enumerate() {
            for e in cache.iter() {
                match e.state {
                    EntryState::Establishing | EntryState::Ready
                        if !self.ctrl.circuits().contains_key(&e.circuit) =>
                    {
                        problems.push(format!(
                            "node {n}: cache entry for {} has no circuit {}",
                            e.dest, e.circuit
                        ));
                    }
                    _ => {}
                }
            }
            if cache.len() > cache.capacity() {
                problems.push(format!(
                    "node {n}: cache holds {} > capacity {}",
                    cache.len(),
                    cache.capacity()
                ));
            }
        }
        if !self.busy() {
            let circuits = self.ctrl.circuits();
            let settled = circuits.values().all(|c| c.status == CircuitStatus::Ready);
            let (_, reserved, _) = lanes.census();
            let circuit_lanes: usize = circuits.values().map(|c| c.path.len()).sum();
            let probe_lanes: usize = self.ctrl.probes().values().map(|p| p.path.len()).sum();
            if settled && reserved != circuit_lanes + probe_lanes {
                problems.push(format!(
                    "lane census mismatch: {reserved} reserved vs {circuit_lanes} circuit + {probe_lanes} probe lanes"
                ));
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolKind;
    use wavesim_trace::stream::{take_listener, CHUNK_RECORDS};
    use wavesim_trace::{TraceRecord, VecSink};

    /// A stream whose one listener keeps every record.
    fn collecting() -> Box<StreamSink> {
        Box::new(StreamSink::listening(
            vec![Box::new(VecSink::new())],
            CHUNK_RECORDS,
        ))
    }

    /// Takes `net`'s stream, finishes it and returns every record it kept.
    fn collected(net: &mut WaveNetwork) -> Vec<TraceRecord> {
        let mut sink = net.take_trace_sink().expect("sink installed");
        sink.finish().expect("an in-memory stream");
        let kept = take_listener::<VecSink>(&mut sink.listeners()).expect("handed back");
        kept.into_records()
    }

    /// Composition smoke test: a wormhole-only message round-trips through
    /// the dataplane and the bus decrements the outstanding counter; the
    /// trace records its injection and its delivery. The full protocol
    /// suites live in `crates/core/tests/network.rs`.
    #[test]
    fn composition_root_routes_deliveries() {
        let cfg = WaveConfig {
            protocol: ProtocolKind::WormholeOnly,
            ..WaveConfig::default()
        };
        let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), cfg);
        net.install_trace_sink(collecting());
        net.send(0, Message::new(1, NodeId(0), NodeId(15), 16, 0));
        assert_eq!(net.outstanding(), 1);
        let mut now = 0;
        while net.busy() && now < 10_000 {
            net.tick(now);
            now += 1;
        }
        assert_eq!(net.outstanding(), 0);
        assert_eq!(net.drain_deliveries().len(), 1);
        let recs = collected(&mut net);
        let kinds: Vec<&str> = recs.iter().map(|r| r.ev.kind()).collect();
        assert!(kinds.contains(&"wormhole_inject"), "{kinds:?}");
        assert!(kinds.contains(&"wormhole_deliver"), "{kinds:?}");
    }

    /// Tracing wiring test: an installed sink observes the whole CLRP
    /// lifecycle — cache miss, probe launch and hops, establishment,
    /// transfer start, delivery — in one global sequence order.
    #[test]
    fn trace_sink_observes_clrp_lifecycle() {
        let mut net = WaveNetwork::new(Topology::mesh(&[2, 2]), WaveConfig::default());
        assert!(!net.tracing());
        net.install_trace_sink(collecting());
        assert!(net.tracing());
        net.send(0, Message::new(1, NodeId(0), NodeId(3), 16, 0));
        let mut now = 0;
        while net.busy() && now < 10_000 {
            net.tick(now);
            now += 1;
        }
        assert_eq!(net.drain_deliveries().len(), 1);
        let recs = collected(&mut net);
        assert!(!net.tracing());
        let kinds: Vec<&str> = recs.iter().map(|r| r.ev.kind()).collect();
        for expected in [
            "cache_miss",
            "probe_launch",
            "probe_hop",
            "probe_reached",
            "circuit_established",
            "transfer_start",
            "circuit_deliver",
        ] {
            assert!(kinds.contains(&expected), "missing {expected} in {kinds:?}");
        }
        assert!(
            recs.windows(2).all(|w| w[0].seq + 1 == w[1].seq),
            "global sequence numbers are gap-free"
        );
        assert!(
            recs.windows(2).all(|w| w[0].at <= w[1].at),
            "records are time-ordered"
        );
    }

    /// With no sink installed the staging buffers stay disarmed and
    /// nothing accumulates (the near-zero-cost default).
    #[test]
    fn untraced_network_stages_nothing() {
        let mut net = WaveNetwork::new(Topology::mesh(&[2, 2]), WaveConfig::default());
        net.send(0, Message::new(1, NodeId(0), NodeId(3), 16, 0));
        let mut now = 0;
        while net.busy() && now < 10_000 {
            net.tick(now);
            now += 1;
        }
        assert_eq!(net.ctrl.routers.log.trace.staged_len(), 0);
        assert_eq!(net.circ.log.trace.staged_len(), 0);
        assert_eq!(net.data.log.trace.staged_len(), 0);
        assert!(net.take_trace_sink().is_none());
    }

    /// Forking a traced network leaves its capture alone: the fork has no
    /// sink and no tail and stages nothing while it runs, and the
    /// original's WSTRACE1 bytes and tail equal those of a run that never
    /// forked.
    #[test]
    fn a_fork_of_a_traced_network_stages_nothing() {
        let capture = |fork_at: Option<Cycle>| {
            let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), WaveConfig::default());
            net.install_trace_sink(collecting());
            net.keep_trace_tail(64);
            for id in 0..12u64 {
                let src = NodeId((id % 16) as u32);
                let dest = NodeId(((id * 5 + 3) % 16) as u32);
                if src != dest {
                    net.send(0, Message::new(id, src, dest, 16, 0));
                }
            }
            let mut fork = None;
            let mut now = 0;
            while net.busy() && now < 50_000 {
                if Some(now) == fork_at {
                    assert!(!net.probes().is_empty(), "forked mid-search");
                    fork = Some(net.fork());
                }
                net.tick(now);
                if let Some(f) = &mut fork {
                    f.tick(now);
                    assert!(!f.tracing());
                    assert!(f.trace_tail().is_none());
                    assert_eq!(f.data.log.trace.staged_len(), 0);
                    assert_eq!(f.ctrl.routers.log.trace.staged_len(), 0);
                    assert_eq!(f.circ.log.trace.staged_len(), 0);
                }
                now += 1;
            }
            if let Some(f) = fork {
                assert!(!f.busy(), "the fork drains with the original");
                assert_eq!(f.stats().msgs_sent, net.stats().msgs_sent);
            }
            let tail = net.release_trace_tail().expect("tail kept");
            let recs = collected(&mut net);
            assert!(tail.dropped() > 0, "the run wraps a 64-record tail");
            assert_eq!(tail.snapshot(), recs[recs.len() - tail.len()..]);
            wavesim_trace::columnar::encode(&recs, wavesim_trace::stream::CHUNK_RECORDS)
        };
        assert_eq!(capture(Some(5)), capture(None));
    }

    /// The circuit plane's incremental active-source set must agree with a
    /// brute-force cache sweep at every cycle of a mixed CLRP run.
    #[test]
    fn active_source_counter_matches_full_scan() {
        let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), WaveConfig::default());
        for id in 0..12u64 {
            let src = NodeId((id % 16) as u32);
            let dest = NodeId(((id * 5 + 3) % 16) as u32);
            if src != dest {
                net.send(0, Message::new(id, src, dest, 16, 0));
            }
        }
        let mut now = 0;
        while net.busy() && now < 50_000 {
            net.tick(now);
            now += 1;
            let brute = net
                .circ
                .caches()
                .iter()
                .filter(|c| c.iter().any(|e| e.in_use || !e.queue.is_empty()))
                .count() as u64;
            assert_eq!(
                net.circ.active_sources(),
                brute,
                "incremental active-source set diverged at cycle {now}"
            );
        }
        assert!(!net.busy());
        assert_eq!(net.circ.active_sources(), 0);
    }

    #[test]
    fn fresh_network_passes_the_audit() {
        let net = WaveNetwork::new(Topology::mesh(&[4, 4]), WaveConfig::default());
        assert!(net.audit().is_empty());
    }

    /// A drained CLRP network keeps its Ready circuits cached: the audit's
    /// census closes over their paths.
    #[test]
    fn drained_network_with_live_circuits_passes_the_audit() {
        let mut net = WaveNetwork::new(
            Topology::mesh(&[5, 5]),
            WaveConfig {
                protocol: ProtocolKind::Clrp,
                cache_capacity: 3,
                ..WaveConfig::default()
            },
        );
        let mut id = 0;
        for s in 0..5u32 {
            for off in [7u32, 11, 13] {
                net.send(
                    0,
                    Message::new(id, NodeId(s), NodeId((s + off) % 25), 24, 0),
                );
                id += 1;
            }
        }
        let mut now = 0;
        while net.busy() && now < 500_000 {
            net.tick(now);
            now += 1;
        }
        assert!(!net.busy());
        assert!(net.ctrl.lanes().census().1 > 0, "circuits stay cached");
        let problems = net.audit();
        assert!(problems.is_empty(), "{problems:?}");
    }
}
