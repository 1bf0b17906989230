//! The circuitplane: per-node Circuit Caches, the CLRP / CARP protocol
//! engines, and windowed bulk transfers over established circuits.
//!
//! This plane owns the Fig. 5 register files and every protocol policy
//! decision — cache lookup, eviction, phase transitions, wormhole
//! fallback — but holds no lanes, probes, or circuit paths. It asks the
//! controlplane to do physical work by emitting [`PlaneEvent`]s
//! ([`PlaneEvent::LaunchProbe`], [`PlaneEvent::ReleaseCircuit`], …) and
//! learns outcomes the same way ([`PlaneEvent::CircuitEstablished`],
//! [`PlaneEvent::ProbeExhausted`], [`PlaneEvent::VictimRelease`]).
//!
//! In-flight circuit transfers are timed on an external
//! [`EventQueue<TransferEvent>`] (owned by the composition root); every
//! scheduled delay is at least the transfer plan's delivery delay, which
//! is always positive.

use std::collections::VecDeque;

use wavesim_network::message::DeliveryMode;
use wavesim_network::{Delivery, Message};
use wavesim_sim::{BitSet, Cycle, EventQueue};
use wavesim_topology::{NodeId, Topology};
use wavesim_trace::TraceEvent;

use crate::arena::IdAlloc;
use crate::cache::{CacheEntry, CircuitCache, EntryState};
use crate::circuit::plan_transfer;
use crate::config::{Mutation, ProtocolKind, WaveConfig};
use crate::events::{EventBus, PlaneEvent};
use crate::ids::{CircuitId, LaneId};
use crate::replacement;
use crate::stats::Log;

/// Windowed-transfer events over established circuits.
#[derive(Debug, Clone)]
pub enum TransferEvent {
    /// Last flit of a circuit transfer reaches the destination.
    Delivered(CircuitId, Message),
    /// Last-fragment acknowledgment reaches the source (In-use clears).
    Acked {
        /// Circuit whose transfer completed.
        circuit: CircuitId,
        /// Source node (owner of the cache entry).
        src: NodeId,
        /// Destination the entry is keyed by.
        dest: NodeId,
    },
    /// Post-fault re-establishment backoff expired: relaunch the probe
    /// search for the cache entry that `circuit` (the *broken* id) last
    /// occupied. Stale if the entry was released or replaced meanwhile.
    RetryEstablish {
        /// The broken circuit the entry is still keyed under.
        circuit: CircuitId,
        /// Source node (owner of the cache entry).
        src: NodeId,
        /// Destination the entry is keyed by.
        dest: NodeId,
    },
}

/// The circuit-management plane of the wave router.
#[derive(Debug, Clone)]
pub struct CircuitPlane {
    topo: Topology,
    cfg: WaveConfig,
    caches: Vec<CircuitCache>,
    /// Message-queue buffers of removed or emptied cache entries, reused
    /// by the next entries any node creates.
    spare_queues: Vec<VecDeque<Message>>,
    circuit_ids: IdAlloc<CircuitId>,
    fifo_seq: u64,
    outbox: Vec<PlaneEvent>,
    /// Nodes with a cache entry that is streaming or queueing — kept
    /// incrementally (via [`CircuitPlane::recount`] after every mutating
    /// entry point) so `busy()` and the per-cycle `active_sources()` gauge
    /// are O(1) instead of an all-nodes × all-entries sweep.
    active: BitSet,
    /// Set bits in `active`.
    active_count: usize,
    /// The planted bug, if any: `skip-backoff` branches where an
    /// exhausted establishment would fall back to wormhole.
    pub(crate) mutation: Mutation,
}

impl CircuitPlane {
    /// Builds the plane for `topo` under `cfg`.
    #[must_use]
    pub fn new(topo: Topology, cfg: WaveConfig) -> Self {
        let n = topo.num_nodes() as usize;
        Self {
            caches: (0..n)
                .map(|_| CircuitCache::new(cfg.cache_capacity.max(1)))
                .collect(),
            spare_queues: Vec::new(),
            circuit_ids: IdAlloc::new(),
            fifo_seq: 0,
            outbox: Vec::new(),
            active: BitSet::new(n),
            active_count: 0,
            mutation: Mutation::None,
            topo,
            cfg,
        }
    }

    /// Re-derives `node`'s membership in the active-source set from its
    /// cache. O(cache capacity); called after every entry point that can
    /// change an entry's `in_use` flag or queue.
    fn recount(&mut self, node: NodeId) {
        let n = node.0 as usize;
        let now_active = self.caches[n]
            .iter()
            .any(|e| e.in_use || !e.queue.is_empty());
        if now_active != self.active.get(n) {
            if now_active {
                self.active.set(n);
                self.active_count += 1;
            } else {
                self.active.clear(n);
                self.active_count -= 1;
            }
        }
    }

    /// Evicts `src`'s cache entry for `victim` to make room.
    fn evict(&mut self, now: Cycle, log: &mut Log, src: NodeId, victim: NodeId) {
        let circuit = self.caches[src.0 as usize]
            .get(victim)
            .map_or(0, |e| e.circuit.0);
        log.note(
            now,
            TraceEvent::CacheEvict {
                node: src.0,
                victim_dest: victim.0,
                circuit,
            },
        );
        self.release_entry_now(log, src, victim);
    }

    // ------------------------------------------------------------------
    // Observation
    // ------------------------------------------------------------------

    /// The Circuit Cache of `node`.
    #[must_use]
    pub fn cache(&self, node: NodeId) -> &CircuitCache {
        &self.caches[node.0 as usize]
    }

    /// All per-node Circuit Caches, indexed by node id.
    #[must_use]
    pub fn caches(&self) -> &[CircuitCache] {
        &self.caches
    }

    /// True while any entry is carrying or queueing traffic. O(1): reads
    /// the incrementally-maintained active-source counter.
    #[must_use]
    pub fn busy(&self) -> bool {
        self.active_count > 0
    }

    /// Number of nodes with a cache entry that is streaming or queueing —
    /// the circuit plane's contribution to the per-cycle active-router
    /// gauge. O(1).
    #[must_use]
    pub fn active_sources(&self) -> u64 {
        self.active_count as u64
    }

    /// Moves staged outbound events into `bus`.
    pub(crate) fn drain_outbox_into(&mut self, bus: &mut EventBus) {
        bus.absorb(&mut self.outbox);
    }

    /// Handles one due transfer event. The plane is purely event-driven:
    /// transfers complete here, on the calendar `q`, and their facts go
    /// into `log`.
    pub(crate) fn handle(
        &mut self,
        now: Cycle,
        event: TransferEvent,
        q: &mut EventQueue<TransferEvent>,
        log: &mut Log,
    ) {
        match event {
            TransferEvent::Delivered(_circuit, msg) => self.on_transfer_delivered(now, msg),
            TransferEvent::Acked { circuit, src, dest } => {
                self.on_transfer_acked(now, q, log, circuit, src, dest);
                self.recount(src);
            }
            TransferEvent::RetryEstablish { circuit, src, dest } => {
                self.on_retry_establish(now, q, log, circuit, src, dest);
            }
        }
    }

    // ------------------------------------------------------------------
    // Message submission
    // ------------------------------------------------------------------

    /// Submits a message; the configured protocol decides its transport.
    pub(crate) fn send(
        &mut self,
        now: Cycle,
        msg: Message,
        q: &mut EventQueue<TransferEvent>,
        log: &mut Log,
    ) {
        match self.cfg.protocol {
            ProtocolKind::WormholeOnly => self.outbox.push(PlaneEvent::InjectWormhole(msg)),
            ProtocolKind::Clrp => self.clrp_send(now, msg, q, log),
            ProtocolKind::Carp => self.carp_send(now, msg, q, log),
        }
        self.recount(msg.src);
    }

    fn send_wormhole_fallback(&mut self, log: &mut Log, msg: Message) {
        log.stats.wormhole_fallbacks += 1;
        self.outbox.push(PlaneEvent::InjectWormhole(msg));
    }

    /// Sends what an entry's `queue` still holds by wormhole, in order, and
    /// keeps the emptied buffer for the next cache entry.
    fn retire_queue(&mut self, log: &mut Log, mut queue: VecDeque<Message>) {
        for m in queue.drain(..) {
            self.send_wormhole_fallback(log, m);
        }
        if queue.capacity() > 0 {
            self.spare_queues.push(queue);
        }
    }

    fn clrp_send(
        &mut self,
        now: Cycle,
        msg: Message,
        q: &mut EventQueue<TransferEvent>,
        log: &mut Log,
    ) {
        let src = msg.src.0 as usize;
        if let Some(entry) = self.caches[src].get_mut(msg.dest) {
            match entry.state {
                EntryState::Ready => {
                    let circuit = entry.circuit.0;
                    replacement::on_use(entry, self.cfg.replacement, now);
                    entry.queue.push_back(msg);
                    log.note(
                        now,
                        TraceEvent::CacheHit {
                            node: msg.src.0,
                            dest: msg.dest.0,
                            circuit,
                        },
                    );
                    self.pump_circuit(now, q, log, msg.src, msg.dest);
                }
                EntryState::Establishing | EntryState::RetryWait => {
                    entry.queue.push_back(msg);
                }
                EntryState::Releasing | EntryState::Failed => {
                    self.send_wormhole_fallback(log, msg);
                }
            }
            return;
        }
        // Miss: establish a circuit, evicting if the register file is full.
        log.note(
            now,
            TraceEvent::CacheMiss {
                node: msg.src.0,
                dest: msg.dest.0,
            },
        );
        if self.caches[src].is_full() {
            match self.caches[src].pick_victim(self.cfg.replacement, self.cfg.seed) {
                Some(victim) => self.evict(now, log, msg.src, victim),
                None => {
                    // Every cached circuit is busy: this message cannot
                    // get a circuit; use wormhole switching.
                    self.send_wormhole_fallback(log, msg);
                    return;
                }
            }
        }
        let force = self.cfg.clrp.skip_phase1;
        let dest = msg.dest;
        self.start_establish(now, msg.src, dest, force)
            .queue
            .push_back(msg);
    }

    fn carp_send(
        &mut self,
        now: Cycle,
        msg: Message,
        q: &mut EventQueue<TransferEvent>,
        log: &mut Log,
    ) {
        let src = msg.src.0 as usize;
        if let Some(entry) = self.caches[src].get_mut(msg.dest) {
            match entry.state {
                EntryState::Ready => {
                    let circuit = entry.circuit.0;
                    replacement::on_use(entry, self.cfg.replacement, now);
                    entry.queue.push_back(msg);
                    log.note(
                        now,
                        TraceEvent::CacheHit {
                            node: msg.src.0,
                            dest: msg.dest.0,
                            circuit,
                        },
                    );
                    self.pump_circuit(now, q, log, msg.src, msg.dest);
                    return;
                }
                EntryState::Establishing => {
                    entry.queue.push_back(msg);
                    return;
                }
                // RetryWait is CLRP-only; a broken CARP circuit degrades
                // to Failed, but stay total over the state space.
                EntryState::Releasing | EntryState::Failed | EntryState::RetryWait => {}
            }
        }
        // No usable circuit: CARP sends such messages by wormhole (§3.2).
        self.outbox.push(PlaneEvent::InjectWormhole(msg));
    }

    /// CARP: explicitly requests a circuit to `dest` from `src` ("when a
    /// physical circuit is requested, a switch S_i is selected and a probe
    /// is sent to establish it").
    pub(crate) fn carp_establish(&mut self, now: Cycle, log: &mut Log, src: NodeId, dest: NodeId) {
        assert_eq!(
            self.cfg.protocol,
            ProtocolKind::Carp,
            "carp_establish requires the CARP protocol"
        );
        assert_ne!(src, dest, "circuits to self are meaningless");
        let s = src.0 as usize;
        if self.caches[s].get(dest).is_some() {
            return; // already cached (any state): idempotent
        }
        if self.caches[s].is_full() {
            match self.caches[s].pick_victim(self.cfg.replacement, self.cfg.seed) {
                Some(victim) => self.evict(now, log, src, victim),
                None => return, // nothing evictable: establishment impossible
            }
        }
        log.note(
            now,
            TraceEvent::CacheMiss {
                node: src.0,
                dest: dest.0,
            },
        );
        let _ = self.start_establish(now, src, dest, false);
        self.recount(src);
    }

    /// CARP: explicitly tears down the circuit from `src` to `dest` once
    /// queued traffic drains ("when the circuit is no longer required, it
    /// is explicitly torn down").
    pub(crate) fn carp_teardown(&mut self, log: &mut Log, src: NodeId, dest: NodeId) {
        assert_eq!(
            self.cfg.protocol,
            ProtocolKind::Carp,
            "carp_teardown requires the CARP protocol"
        );
        let s = src.0 as usize;
        let Some(entry) = self.caches[s].get_mut(dest) else {
            return; // nothing to tear down: idempotent
        };
        match entry.state {
            EntryState::Failed => {
                self.caches[s].remove(dest);
            }
            EntryState::Releasing => {}
            EntryState::Ready | EntryState::Establishing | EntryState::RetryWait => {
                if entry.evictable() {
                    self.release_entry_now(log, src, dest);
                } else {
                    entry.release_pending = true;
                }
            }
        }
        self.recount(src);
    }

    // ------------------------------------------------------------------
    // Establishment
    // ------------------------------------------------------------------

    /// Paper §3.1: "in a 2D-mesh, node (x, y) can first try switch
    /// 1 + (x+y) mod k" — generalised to any dimension count.
    fn initial_switch(&self, src: NodeId) -> u8 {
        if self.cfg.stagger_initial_switch {
            1 + (self.topo.coords(src).coord_sum() % u64::from(self.cfg.k)) as u8
        } else {
            1
        }
    }

    fn start_establish(
        &mut self,
        now: Cycle,
        src: NodeId,
        dest: NodeId,
        force: bool,
    ) -> &mut CacheEntry {
        let cid = self.circuit_ids.alloc();
        let switch = self.initial_switch(src);
        let mut entry = CacheEntry::new(dest, cid, switch, switch);
        entry.queue = self.spare_queues.pop().unwrap_or_default();
        entry.force_phase = force;
        // End-point buffer sizing (§2): CLRP allocates blind and may
        // re-allocate; CARP knows the message set and sizes it exactly.
        entry.alloc_flits = match self.cfg.protocol {
            ProtocolKind::Clrp => Some(self.cfg.initial_buffer_flits),
            _ => None,
        };
        self.fifo_seq += 1;
        replacement::on_create(&mut entry, self.cfg.replacement, now, self.fifo_seq);
        self.caches[src.0 as usize].insert(entry);
        self.outbox.push(PlaneEvent::LaunchProbe {
            circuit: cid,
            src,
            dest,
            switch,
            force,
        });
        self.caches[src.0 as usize]
            .get_mut(dest)
            .expect("entry just inserted")
    }

    // ------------------------------------------------------------------
    // Inbound plane events (controlplane outcomes)
    // ------------------------------------------------------------------

    /// [`PlaneEvent::ProbeExhausted`]: the protocol decides whether to try
    /// the next switch, flip to the Force phase, or fall back to wormhole.
    pub(crate) fn on_probe_exhausted(
        &mut self,
        log: &mut Log,
        circuit: CircuitId,
        src: NodeId,
        dest: NodeId,
        switch: u8,
        force: bool,
    ) {
        let k = self.cfg.k;
        let Some(entry) = self.caches[src.0 as usize].find_by_circuit_mut(circuit) else {
            return; // entry released while the probe was out
        };
        if entry.state == EntryState::RetryWait {
            return; // a dynamic fault already broke this attempt; the
                    // scheduled RetryEstablish owns the entry now
        }
        let initial = entry.initial_switch;
        let next_switch = (switch % k) + 1;
        // The next (switch, Force) search, or `None` to give up.
        let next = match self.cfg.protocol {
            ProtocolKind::Clrp if !force => {
                if next_switch != initial {
                    // Phase one continues on the next switch.
                    Some((next_switch, false))
                } else if self.cfg.clrp.enable_force {
                    // Phase two: Force bit set, back to Initial Switch.
                    Some((initial, true))
                } else {
                    None
                }
            }
            ProtocolKind::Clrp => (!self.cfg.clrp.single_switch_force && next_switch != initial)
                .then_some((next_switch, true)),
            ProtocolKind::Carp => (next_switch != initial).then_some((next_switch, false)),
            ProtocolKind::WormholeOnly => unreachable!("no probes in wormhole-only mode"),
        };
        // Giving up is phase three, wormhole switching — unless the
        // skip-backoff mutation relaunches phase one instead.
        let next = next.or((self.mutation == Mutation::SkipBackoff).then_some((initial, false)));
        match next {
            Some((switch, force)) => {
                entry.switch = switch;
                entry.force_phase = force;
                self.outbox.push(PlaneEvent::LaunchProbe {
                    circuit,
                    src,
                    dest,
                    switch,
                    force,
                });
            }
            None => self.fail_establishment(log, src, dest, circuit),
        }
        self.recount(src);
    }

    fn fail_establishment(&mut self, log: &mut Log, src: NodeId, dest: NodeId, circuit: CircuitId) {
        self.outbox.push(PlaneEvent::AbandonCircuit { circuit });
        let s = src.0 as usize;
        let entry = self.caches[s]
            .get_mut(dest)
            .expect("failed circuit has a cache entry");
        let queued = std::mem::take(&mut entry.queue);
        match self.cfg.protocol {
            ProtocolKind::Carp if !entry.release_pending => {
                // §3.2: "messages requesting that circuit will have to use
                // wormhole switching" — keep a Failed marker.
                entry.state = EntryState::Failed;
            }
            _ => {
                // CLRP always forgets failed attempts; a CARP entry with a
                // teardown already pending is dropped outright.
                self.caches[s].remove(dest);
            }
        }
        self.retire_queue(log, queued);
    }

    /// [`PlaneEvent::CircuitEstablished`]: the ack reached the source; the
    /// Fig. 5 registers update and queued traffic starts flowing.
    #[expect(clippy::too_many_arguments, reason = "mirrors the event's fields")]
    pub(crate) fn on_established(
        &mut self,
        now: Cycle,
        q: &mut EventQueue<TransferEvent>,
        log: &mut Log,
        circuit: CircuitId,
        src: NodeId,
        dest: NodeId,
        hops: u32,
        first_lane: LaneId,
    ) {
        let entry = self.caches[src.0 as usize]
            .get_mut(dest)
            .expect("acked circuit has a cache entry");
        debug_assert_eq!(entry.circuit, circuit);
        entry.state = EntryState::Ready;
        entry.ack_returned = true;
        entry.established_at = Some(now);
        entry.channel = Some(first_lane);
        entry.path_hops = hops;
        if entry.release_pending && entry.queue.is_empty() && !entry.in_use {
            // A CARP teardown (or forced release) raced the ack.
            self.release_entry_now(log, src, dest);
        } else {
            self.pump_circuit(now, q, log, src, dest);
        }
        self.recount(src);
    }

    /// [`PlaneEvent::VictimRelease`]: a forced release of a circuit that
    /// *starts at* `src` (local victim in CLRP phase two, or a release
    /// request that travelled to the source): honour it as soon as the
    /// in-flight message (if any) completes; queued messages fall back to
    /// wormhole.
    pub(crate) fn on_victim_release(&mut self, log: &mut Log, circuit: CircuitId, src: NodeId) {
        let s = src.0 as usize;
        let Some(entry) = self.caches[s].find_by_circuit_mut(circuit) else {
            log.stats.release_requests_discarded += 1;
            return;
        };
        let dest = entry.dest;
        let queued = std::mem::take(&mut entry.queue);
        if entry.in_use {
            entry.release_pending = true;
        }
        self.retire_queue(log, queued);
        let entry = self.caches[s].get_mut(dest).expect("entry still present");
        if !entry.in_use {
            self.release_entry_now(log, src, dest);
        }
        self.recount(src);
    }

    // ------------------------------------------------------------------
    // Dynamic faults: break notification and bounded re-establishment
    // ------------------------------------------------------------------

    /// [`PlaneEvent::CircuitBroken`]: a dynamic fault destroyed `circuit`
    /// (its teardown has already started on the controlplane). CLRP
    /// invalidates the entry and — within the `fault_retries` budget —
    /// schedules a re-establishment after an exponential backoff; beyond
    /// the budget (or under CARP, which never retries automatically) the
    /// entry degrades to wormhole delivery, so no message is ever lost.
    pub(crate) fn on_circuit_broken(
        &mut self,
        now: Cycle,
        q: &mut EventQueue<TransferEvent>,
        log: &mut Log,
        circuit: CircuitId,
        src: NodeId,
        dest: NodeId,
    ) {
        let s = src.0 as usize;
        let Some(entry) = self.caches[s].find_by_circuit_mut(circuit) else {
            return; // entry already evicted or replaced: nothing to fix
        };
        debug_assert_eq!(entry.dest, dest);
        let retry = self.cfg.protocol == ProtocolKind::Clrp
            && !entry.release_pending
            && entry.fault_retries_used < self.cfg.fault_retries;
        if retry {
            entry.fault_retries_used += 1;
            let attempt = entry.fault_retries_used;
            entry.state = EntryState::RetryWait;
            entry.ack_returned = false;
            entry.channel = None;
            entry.established_at = None;
            entry.path_hops = 0;
            // Keep entry.circuit (the broken id): an in-flight transfer
            // on the old circuit still drains, and its ack must match to
            // clear In-use. The retry allocates a fresh id when it fires.
            let delay = u64::from(self.cfg.fault_backoff) << (attempt - 1);
            q.schedule(
                now + delay.max(1),
                TransferEvent::RetryEstablish { circuit, src, dest },
            );
        } else {
            // Degrade to wormhole: queued messages re-inject immediately;
            // an in-flight transfer drains and removes the entry on ack.
            let queued = std::mem::take(&mut entry.queue);
            if entry.in_use {
                entry.state = EntryState::Failed;
                entry.release_pending = true;
            } else {
                self.caches[s].remove(dest);
            }
            self.retire_queue(log, queued);
        }
        self.recount(src);
    }

    /// [`TransferEvent::RetryEstablish`]: the post-fault backoff expired.
    /// If the entry still exists, still waits under the broken `circuit`
    /// id, and is idle, allocate a fresh circuit id and relaunch the probe
    /// search; a still-draining transfer postpones the relaunch one
    /// backoff unit so its ack (keyed by the old id) can clear In-use.
    fn on_retry_establish(
        &mut self,
        now: Cycle,
        q: &mut EventQueue<TransferEvent>,
        log: &mut Log,
        circuit: CircuitId,
        src: NodeId,
        dest: NodeId,
    ) {
        let s = src.0 as usize;
        let Some(entry) = self.caches[s].get_mut(dest) else {
            return; // entry released while waiting
        };
        if entry.circuit != circuit || entry.state != EntryState::RetryWait {
            return; // stale: the entry was replaced meanwhile
        }
        if entry.in_use {
            let delay = u64::from(self.cfg.fault_backoff).max(1);
            q.schedule(
                now + delay,
                TransferEvent::RetryEstablish { circuit, src, dest },
            );
            return;
        }
        let cid = self.circuit_ids.alloc();
        let force = self.cfg.clrp.skip_phase1;
        entry.circuit = cid;
        entry.state = EntryState::Establishing;
        entry.switch = entry.initial_switch;
        entry.force_phase = force;
        let (switch, attempt) = (entry.initial_switch, entry.fault_retries_used);
        log.note(
            now,
            TraceEvent::EstablishRetry {
                circuit: cid.0,
                src: src.0,
                dest: dest.0,
                attempt,
            },
        );
        self.outbox.push(PlaneEvent::LaunchProbe {
            circuit: cid,
            src,
            dest,
            switch,
            force,
        });
    }

    // ------------------------------------------------------------------
    // Transfers
    // ------------------------------------------------------------------

    /// Starts the next queued transfer on the (Ready, idle) circuit.
    fn pump_circuit(
        &mut self,
        now: Cycle,
        q: &mut EventQueue<TransferEvent>,
        log: &mut Log,
        src: NodeId,
        dest: NodeId,
    ) {
        let Some(entry) = self.caches[src.0 as usize].get_mut(dest) else {
            return;
        };
        if entry.state != EntryState::Ready || entry.in_use {
            return;
        }
        let Some(msg) = entry.queue.pop_front() else {
            return;
        };
        entry.in_use = true;
        entry.uses += 1;
        // Blind-sized end-point buffers (CLRP) must grow before a longer
        // message can stream — a software re-allocation cost (§2).
        let mut penalty = 0u64;
        if let Some(alloc) = entry.alloc_flits {
            if msg.len_flits > alloc {
                entry.alloc_flits = Some(msg.len_flits);
                penalty = u64::from(self.cfg.realloc_penalty);
                log.stats.buffer_reallocs += 1;
            }
        }
        let circuit = entry.circuit;
        let plan = plan_transfer(msg.len_flits, entry.path_hops, &self.cfg);
        log.note(
            now,
            TraceEvent::TransferStart {
                circuit: circuit.0,
                msg: msg.id.0,
                src: src.0,
                dest: dest.0,
                len_flits: msg.len_flits,
            },
        );
        q.schedule(
            now + penalty + plan.delivery_delay,
            TransferEvent::Delivered(circuit, msg),
        );
        q.schedule(
            now + penalty + plan.ack_delay,
            TransferEvent::Acked { circuit, src, dest },
        );
    }

    fn on_transfer_delivered(&mut self, now: Cycle, msg: Message) {
        self.outbox.push(PlaneEvent::CircuitDelivered(Delivery {
            msg,
            delivered_at: now,
            mode: DeliveryMode::Circuit,
        }));
    }

    fn on_transfer_acked(
        &mut self,
        now: Cycle,
        q: &mut EventQueue<TransferEvent>,
        log: &mut Log,
        circuit: CircuitId,
        src: NodeId,
        dest: NodeId,
    ) {
        let Some(entry) = self.caches[src.0 as usize].get_mut(dest) else {
            return; // entry released while the ack was in flight
        };
        if entry.circuit != circuit {
            return; // entry replaced by a newer circuit to the same dest
        }
        debug_assert!(entry.in_use, "ack for a transfer that never started");
        entry.in_use = false;
        if entry.release_pending && entry.queue.is_empty() {
            self.release_entry_now(log, src, dest);
        } else {
            self.pump_circuit(now, q, log, src, dest);
        }
    }

    // ------------------------------------------------------------------
    // Release
    // ------------------------------------------------------------------

    /// Immediately removes the cache entry for `dest` and asks the
    /// controlplane to release the path.
    ///
    /// # Panics
    /// Panics if the entry is in use (callers must wait for the ack).
    fn release_entry_now(&mut self, log: &mut Log, src: NodeId, dest: NodeId) {
        let s = src.0 as usize;
        let entry = self.caches[s]
            .remove(dest)
            .expect("release of missing entry");
        assert!(!entry.in_use, "cannot release an in-use circuit");
        self.retire_queue(log, entry.queue);
        self.outbox.push(PlaneEvent::ReleaseCircuit {
            circuit: entry.circuit,
        });
    }

    /// The controlplane fully released (or abandoned) `circuit`: nothing
    /// in the network references it any more, so its id slot returns to
    /// the allocator. Idempotent — a raced unwind and teardown may both
    /// report the same circuit, and only the first recycles the slot.
    pub(crate) fn on_circuit_freed(&mut self, circuit: CircuitId) {
        self.circuit_ids.recycle(circuit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A CLRP send with an empty cache starts an establishment: the entry
    /// appears in Establishing state and a LaunchProbe event leaves the
    /// plane.
    #[test]
    fn clrp_miss_emits_launch_probe() {
        let topo = Topology::mesh(&[4, 4]);
        let mut plane = CircuitPlane::new(topo, WaveConfig::default());
        let mut q = EventQueue::new();
        let mut log = Log::default();
        plane.send(
            0,
            Message::new(1, NodeId(0), NodeId(15), 16, 0),
            &mut q,
            &mut log,
        );
        assert_eq!(log.stats.cache_misses, 1);
        let entry = plane.cache(NodeId(0)).get(NodeId(15)).expect("entry");
        assert_eq!(entry.state, EntryState::Establishing);
        assert_eq!(entry.queue.len(), 1);
        let mut bus = EventBus::new();
        plane.drain_outbox_into(&mut bus);
        assert!(matches!(
            bus.pop(),
            Some(PlaneEvent::LaunchProbe { src, dest, force: false, .. })
                if src == NodeId(0) && dest == NodeId(15)
        ));
    }

    /// Establishment completion pumps the queued message and schedules its
    /// delivery and ack on the transfer queue.
    #[test]
    fn established_circuit_pumps_queue() {
        let topo = Topology::mesh(&[4, 4]);
        let mut plane = CircuitPlane::new(topo, WaveConfig::default());
        let mut q = EventQueue::new();
        let mut log = Log::default();
        plane.send(
            0,
            Message::new(1, NodeId(0), NodeId(15), 16, 0),
            &mut q,
            &mut log,
        );
        let circuit = plane.cache(NodeId(0)).get(NodeId(15)).unwrap().circuit;
        let lane = LaneId::new(wavesim_topology::LinkId(0), 1);
        plane.on_established(
            10,
            &mut q,
            &mut log,
            circuit,
            NodeId(0),
            NodeId(15),
            6,
            lane,
        );
        let entry = plane.cache(NodeId(0)).get(NodeId(15)).unwrap();
        assert_eq!(entry.state, EntryState::Ready);
        assert!(entry.in_use, "queued message starts streaming immediately");
        assert_eq!(entry.path_hops, 6);
        assert!(!q.is_empty(), "delivery + ack scheduled");
    }
}
