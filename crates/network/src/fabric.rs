//! The wormhole fabric: every router of the network plus the per-cycle
//! pipeline that moves flits between them.
//!
//! Each simulated cycle runs four phases over all routers in deterministic
//! node order:
//!
//! 1. **VA** — routing + virtual-channel allocation: unrouted head flits at
//!    buffer fronts ask the routing function for candidates and try to
//!    acquire a free output VC (round-robin over input VCs);
//! 2. **SA** — switch allocation + traversal: every output port forwards at
//!    most one flit from an eligible input VC (credits permitting), every
//!    input port contributes at most one flit (crossbar constraint);
//! 3. **Injection** — queued messages claim idle injection VCs and stream
//!    one flit per cycle into their buffers;
//! 4. **Commit** — flits sent in phase 2 arrive in downstream buffers and
//!    credits return upstream, both with one-cycle latency.
//!
//! Tail flits release resources as they pass: the input-VC route when the
//! tail leaves a router, the output-VC ownership when the tail is forwarded
//! through it — the defining behaviour of wormhole switching that makes
//! blocked messages hold channels (paper §1) and deadlock a real danger.
//!
//! # Active-set scheduling
//!
//! The tick loop is O(work), not O(network): only routers in the *active
//! set* are scanned. A router enters the set when a message is injected at
//! it or a flit arrives in one of its buffers, and leaves only after being
//! scanned through a full tick and found idle (nothing queued, emitting,
//! routed, pending or parked). The invariant is that every non-idle router
//! is in the set; idle routers carry no cycle-dependent state (the VA
//! round-robin pointer is derived from the cycle number, and SA pointers
//! only move on grants), so skipping them is byte-identical to scanning
//! them. The set is iterated in ascending router id, preserving the seed
//! kernel's deterministic phase order.
//!
//! Within a scanned router nothing is polled either: a VC is visited only
//! while the resource it needs can be had, and three events — the only ways
//! such a resource appears — put it back in view (see the `router` module):
//!
//! 1. **Output-VC release → VA waiters.** A head that finds every candidate
//!    output VC owned is parked on all of them; the tail forward that frees
//!    one (`sa_stage`, same router) re-arms its waiters for the next
//!    cycle's VA. An output VC is taken only in VA and freed only by that
//!    release, so between park and release the head would have lost
//!    every cycle; a lost VA visit has no side effect, and the re-armed set
//!    is visited in the same rotated `now % n_ivc` order, so the same head
//!    wins in the same cycle.
//! 2. **Credit 0 → 1 → the owner's request bit.** SA arbitrates each output
//!    port over its *request mask* — input VCs routed there with a flit and
//!    a downstream slot — from the port's round-robin pointer, minus the
//!    input ports already used this cycle. A VC that spends its last credit
//!    leaves the mask; the commit step puts the output VC's owner back when
//!    the first credit returns. A creditless VC was never grantable and the
//!    pointer only moves on grants, so every grant is unchanged. The ports
//!    follow their masks: a router's *ready-port word* has bit `p` set
//!    while port `p`'s mask is non-empty, and SA arbitrates only those.
//! 3. **Flit arrival → `va_pending` or request bit.** A flit landing in an
//!    empty VC is a new head (or, routed, a new request); one landing behind
//!    a waiting head changes nothing that head waits on.
//!
//! A router whose heads are all parked and whose bodies are all creditless
//! stays in the active set (it is not idle) but costs no VC visit:
//! `vcs_touched` counts VA visits plus the request bits each SA arbitration
//! chose among, and a deadlocked fabric counts zero.
//!
//! # One router table, one kernel, two staged queues
//!
//! Every router's state is one fabric-wide struct-of-arrays (the `router`
//! module's `RouterTable`): each input VC a fixed ring of `buffer_depth`
//! flit slots, every other per-VC or per-router field one flat array, and
//! the wiring precomputed — a flit forward or a credit return is one load
//! of the neighbour and its VC, with no division and no topology call. The
//! fabric addresses the table by router id and router-local index only;
//! the global layout stays in the `router` module.
//!
//! The tick is single-threaded (DESIGN §9 has the measurements behind
//! that). VA, SA and injection read and write only the router being
//! scanned plus the fabric-wide bookkeeping — message slab, statistics,
//! in-flight counts — which they update where the event happens. The only
//! effects held back are the two that cross a link: flits forwarded in SA
//! (`arrivals`) and the credits they free (`credit_returns`) land in the
//! commit step after every router was scanned, which *is* the one-cycle
//! link latency — no router can observe another's cycle-`t` output before
//! cycle `t+1`.

use wavesim_sim::{BitSet, Cycle, CycleKernelStats};
use wavesim_topology::{Candidate, NodeId, RoutingKind, Topology, WormholeRouting};

use crate::message::{Delivery, DeliveryMode, Flit, Message};
use crate::router::{
    route_pack, route_vc, Emitting, RouterTable, SlotQueue, MAX_DEPTH, NONE, OWNER_NONE, ROUTE_NONE,
};

/// Configuration of the wormhole fabric (the paper's `S0` switch plane).
#[derive(Debug, Clone, Copy)]
pub struct WormholeConfig {
    /// Virtual channels per physical link — the paper's `w` parameter.
    pub w: u8,
    /// Flit buffer depth per virtual channel.
    pub buffer_depth: u32,
    /// Routing function family.
    pub routing: RoutingKind,
    /// Cycles a head flit spends in the routing control unit per hop.
    pub routing_delay: u32,
}

impl Default for WormholeConfig {
    fn default() -> Self {
        Self {
            w: 2,
            buffer_depth: 4,
            routing: RoutingKind::Deterministic,
            routing_delay: 1,
        }
    }
}

wavesim_sim::stat_table! {
    /// Aggregate fabric statistics.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct FabricStats {
        /// Messages accepted by `WormholeFabric::inject`.
        injected_msgs: Counter,
        /// Messages fully delivered.
        delivered_msgs: Counter,
        /// Flits handed to destination delivery buffers.
        delivered_flits: Counter,
        /// Flits forwarded across links (hop count · flit count).
        flit_hops: Counter,
        /// Successful output-VC allocations.
        va_allocs: Counter,
    }
}

/// A node in the output-VC wait-for graph exposed for deadlock diagnosis:
/// `(router id, dense output-VC index)`.
pub type WaitVc = (u32, u16);

/// One in-flight message record: metadata plus the output VCs it holds.
struct MsgSlot {
    msg: Option<Message>,
    /// Output VCs currently held by this message, in path order.
    held: Vec<WaitVc>,
    /// The slot after this one in its source's injection queue; `NONE`
    /// at the queue's tail and once the message left the queue.
    next: u32,
}

/// Arena of in-flight message records. Every flit carries its record's
/// slot index, so the hot path (tail delivery, held-VC bookkeeping) is a
/// direct vector index instead of a hash lookup. Freed slots are recycled
/// LIFO and each slot's `held` vector keeps its capacity across reuse, so
/// the steady-state fabric allocates nothing per message. The injection
/// queues are linked through the records too.
#[derive(Default)]
struct MsgSlab {
    slots: Vec<MsgSlot>,
    free: Vec<u32>,
    live: usize,
}

impl MsgSlab {
    fn insert(&mut self, msg: Message) -> u32 {
        self.live += 1;
        if let Some(s) = self.free.pop() {
            let slot = &mut self.slots[s as usize];
            debug_assert!(slot.msg.is_none() && slot.held.is_empty());
            slot.msg = Some(msg);
            slot.next = NONE;
            s
        } else {
            self.slots.push(MsgSlot {
                msg: Some(msg),
                held: Vec::new(),
                next: NONE,
            });
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 in-flight messages")
        }
    }

    fn remove(&mut self, s: u32) -> Message {
        let slot = &mut self.slots[s as usize];
        let msg = slot
            .msg
            .take()
            .expect("delivered message must have metadata");
        slot.held.clear();
        self.free.push(s);
        self.live -= 1;
        msg
    }

    fn held(&self, s: u32) -> &[WaitVc] {
        &self.slots[s as usize].held
    }

    fn held_mut(&mut self, s: u32) -> &mut Vec<WaitVc> {
        &mut self.slots[s as usize].held
    }

    /// Appends slot `s` to `queue`.
    fn enqueue(&mut self, queue: &mut SlotQueue, s: u32) {
        if queue.tail == NONE {
            queue.head = s;
        } else {
            self.slots[queue.tail as usize].next = s;
        }
        queue.tail = s;
    }

    /// Takes the oldest slot off `queue`, if any, with its message.
    fn dequeue(&mut self, queue: &mut SlotQueue) -> Option<(u32, Message)> {
        let s = queue.head;
        if s == NONE {
            return None;
        }
        let slot = &mut self.slots[s as usize];
        queue.head = std::mem::replace(&mut slot.next, NONE);
        if queue.head == NONE {
            queue.tail = NONE;
        }
        Some((s, slot.msg.expect("a queued message has metadata")))
    }
}

/// The flit-level wormhole network.
pub struct WormholeFabric {
    topo: Topology,
    routing: Box<dyn WormholeRouting>,
    cfg: WormholeConfig,
    /// Index of the local (injection / ejection) port: the last one.
    local: usize,
    /// Every router's state.
    table: RouterTable,
    /// In-flight message records; flits carry their slot.
    slab: MsgSlab,
    /// Active-set bitset: bit `r` set ⇒ router `r` may have work. Set on
    /// injection and flit arrival; cleared only after the router was
    /// scanned through a full tick and found idle.
    active: BitSet,
    /// Scratch worklist of active router ids, reused across ticks.
    worklist: Vec<u32>,
    /// Routing-candidate scratch for the VA stage.
    cand: Vec<Candidate>,
    /// Flits forwarded this cycle, landing downstream in the commit step:
    /// `(router, input VC, flit)`.
    arrivals: Vec<(u32, u32, Flit)>,
    /// Credits freed this cycle, returning upstream in the commit step:
    /// `(router, output VC)`.
    credit_returns: Vec<(u32, u32)>,
    /// Cumulative wall-clock nanoseconds spent in the VA/SA/injection
    /// scan. A one-element array because `benchmark/` compiles against
    /// `shard_wall_ns() -> &[u64]` and sums it.
    scan_wall_ns: [u64; 1],
    deliveries: Vec<Delivery>,
    in_flight_flits: u64,
    emitting_msgs: u64,
    last_progress: Cycle,
    stats: FabricStats,
    kernel: CycleKernelStats,
}

impl WormholeFabric {
    /// Builds the fabric for `topo` under `cfg`.
    ///
    /// # Panics
    /// Panics if `cfg.w` is insufficient for the routing function on this
    /// topology (see [`RoutingKind::build`]), `buffer_depth` is 0 or above
    /// 65,535, or a router has more than 64 input VCs (`(2 · ndims + 1) ·
    /// w`, the local port counted: each scheduling set is one `u64`).
    #[must_use]
    pub fn new(topo: Topology, cfg: WormholeConfig) -> Self {
        let routing = cfg.routing.build(&topo, cfg.w);
        Self::with_routing(topo, cfg, routing)
    }

    /// Builds the fabric with an explicit routing function (used by tests
    /// and by the verify crate's negative controls, which deliberately run
    /// broken functions the safe constructor would reject).
    ///
    /// # Panics
    /// Panics if the function's VC requirement differs from `cfg.w`,
    /// `buffer_depth` is 0 or above 65,535 (a ring's `u16` index), or a
    /// router has more than 64 input VCs (`(2 · ndims + 1) · w`: each
    /// scheduling set is one `u64`).
    #[must_use]
    pub fn with_routing(
        topo: Topology,
        cfg: WormholeConfig,
        routing: Box<dyn WormholeRouting>,
    ) -> Self {
        assert!(
            (1..=MAX_DEPTH).contains(&cfg.buffer_depth),
            "buffer_depth {} is outside 1..={MAX_DEPTH}: a buffer needs a slot, and a ring's u16 index holds no more",
            cfg.buffer_depth
        );
        assert_eq!(
            routing.vcs_per_link(),
            cfg.w,
            "routing must use exactly w VCs"
        );
        let table = RouterTable::new(&topo, cfg.w as usize, cfg.buffer_depth);
        Self {
            local: table.nports - 1,
            active: BitSet::new(topo.num_nodes() as usize),
            table,
            slab: MsgSlab::default(),
            worklist: Vec::new(),
            cand: Vec::new(),
            arrivals: Vec::new(),
            credit_returns: Vec::new(),
            scan_wall_ns: [0],
            deliveries: Vec::new(),
            in_flight_flits: 0,
            emitting_msgs: 0,
            last_progress: 0,
            stats: FabricStats::default(),
            kernel: CycleKernelStats::default(),
            routing,
            topo,
            cfg,
        }
    }

    /// The topology this fabric runs on.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The fabric configuration.
    #[must_use]
    pub fn config(&self) -> &WormholeConfig {
        &self.cfg
    }

    /// The routing function in use.
    #[must_use]
    pub fn routing(&self) -> &dyn WormholeRouting {
        self.routing.as_ref()
    }

    /// Cumulative wall-clock nanoseconds spent in the VA/SA/injection scan,
    /// as a one-element slice. The name and shape are what `benchmark/`
    /// compiles against (it sums the slice into `network.scan_s`); renaming
    /// it is a `benchmark` change of its own.
    #[must_use]
    pub fn shard_wall_ns(&self) -> &[u64] {
        &self.scan_wall_ns
    }

    /// Accepts a message for injection at its source node.
    pub fn inject(&mut self, msg: Message) {
        assert!(msg.src.0 < self.topo.num_nodes(), "source out of range");
        assert!(msg.dest.0 < self.topo.num_nodes(), "dest out of range");
        let slot = self.slab.insert(msg);
        let src = msg.src.0 as usize;
        self.slab.enqueue(self.table.queue_mut(src), slot);
        self.active.set(src);
        self.emitting_msgs += 1;
        self.stats.injected_msgs += 1;
    }

    /// Messages injected but not yet delivered.
    #[must_use]
    pub fn in_flight_msgs(&self) -> usize {
        self.slab.live
    }

    /// Flits currently buffered somewhere in the network.
    #[must_use]
    pub fn in_flight_flits(&self) -> u64 {
        self.in_flight_flits
    }

    /// Cycles since any flit last moved (0 when progress happened at `now`).
    #[must_use]
    pub fn progress_age(&self, now: Cycle) -> u64 {
        now.saturating_sub(self.last_progress)
    }

    /// Routers currently in the active set (a popcount over the active
    /// bitset — the instantaneous "how much of the network is working"
    /// gauge the status board publishes).
    #[must_use]
    pub fn active_routers(&self) -> u64 {
        self.active.count() as u64
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// Cycle-kernel work counters (scanning effort per tick).
    #[must_use]
    pub fn kernel_stats(&self) -> CycleKernelStats {
        self.kernel
    }

    /// Drains and returns all deliveries completed since the last call.
    pub fn drain_deliveries(&mut self) -> Vec<Delivery> {
        std::mem::take(&mut self.deliveries)
    }

    /// Swaps completed deliveries into `out` (cleared first), retaining the
    /// old buffer's capacity for the next collection cycle. Ping-ponging a
    /// caller-owned buffer through this keeps the steady state allocation
    /// free.
    pub fn drain_deliveries_into(&mut self, out: &mut Vec<Delivery>) {
        out.clear();
        std::mem::swap(&mut self.deliveries, out);
    }

    /// True while any message is queued, emitting, or in flight.
    #[must_use]
    pub fn busy(&self) -> bool {
        self.in_flight_flits > 0 || self.emitting_msgs > 0
    }

    /// Advances the fabric by one cycle: scans only the active set, in
    /// ascending router order (the same order the seed kernel's full scan
    /// visited them, so arbitration and delivery order are unchanged).
    pub fn tick(&mut self, now: Cycle) {
        self.kernel.ticks += 1;
        let mut wl = std::mem::take(&mut self.worklist);
        wl.clear();
        for (wi, &word) in self.active.words().iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                wl.push((wi as u32) * 64 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        self.kernel.routers_scanned += wl.len() as u64;

        self.scan(&wl, now);

        self.commit();

        // Retire provably quiescent routers. Routers that just received an
        // arrival in the commit fail `idle` and stay in the set.
        for &r in &wl {
            if self.table.idle(r as usize) {
                self.active.clear(r as usize);
            }
        }
        self.worklist = wl;
    }

    /// Phases 1–3 over the worklist, timed. Kept out of line: inlined into
    /// `tick` the three stage loops measured 2–3% slower on a 32x32 torus
    /// (bare fabric, load 0.04 and 0.8).
    #[inline(never)]
    fn scan(&mut self, wl: &[u32], now: Cycle) {
        let t0 = std::time::Instant::now();
        // The VA round-robin pointer is cycle-derived: the seed kernel
        // advanced it by exactly one per tick on every router, active or
        // not, so `now % n_ivc` reproduces it without per-router state —
        // and without requiring idle routers to tick at all.
        let va_start = (now % self.table.n_ivc as u64) as usize;
        for &r in wl {
            self.va_stage(r, now, va_start);
        }
        for &r in wl {
            self.sa_stage(r, now);
        }
        for &r in wl {
            self.injection_stage(r);
        }
        self.scan_wall_ns[0] += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }

    /// Phase 4: the flits forwarded and the credits freed this cycle reach
    /// the neighbouring routers, one cycle after they were sent. A flit
    /// arriving at a full buffer or a credit past the buffer's depth is a
    /// broken credit protocol, and panics before it is written.
    fn commit(&mut self) {
        for (r, i, flit) in self.arrivals.drain(..) {
            self.active.set(r as usize);
            self.table.push_flit(r as usize, i as usize, flit);
        }
        for (r, ovc) in self.credit_returns.drain(..) {
            self.table.return_credit(r as usize, ovc as usize);
        }
    }

    /// Phase 1: routing computation + output-VC allocation. Scans only the
    /// router's `va_pending` set, in the same rotated round-robin order the
    /// seed kernel's full sweep used (from `start`, the cycle's pointer); a
    /// head that finds every candidate owned is parked until one of them is
    /// released.
    fn va_stage(&mut self, r: u32, now: Cycle, start: usize) {
        let ru = r as usize;
        let t = &mut self.table;
        // Snapshot the pending set: VA neither adds pending VCs nor clears
        // any but the one it is processing, so the snapshot equals the live
        // visit set of the serial sweep.
        let pending = t.va_pending(ru);
        if pending == 0 {
            return;
        }
        let node = NodeId(r);
        let w = t.w;
        self.kernel.vcs_touched += u64::from(pending.count_ones());
        for mut bits in rotated(pending, start) {
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let Some(front) = t.front(ru, i) else {
                    debug_assert!(false, "va_pending bit set on an empty VC");
                    continue;
                };
                debug_assert!(
                    front.is_head,
                    "unrouted VC front must be a head flit (packet-ordered buffers)"
                );
                let (front_dest, front_slot) = (front.dest, front.slot);
                // Routing-delay accounting.
                if now < t.head_seen(ru, i, now) + u64::from(self.cfg.routing_delay) {
                    continue;
                }
                if front_dest == node {
                    // Ejection needs no output VC: mark the route to the
                    // local port; SA treats it with infinite credit.
                    t.set_route(ru, i, route_pack(self.local as u8, 0));
                    continue;
                }
                self.cand.clear();
                self.routing
                    .route(&self.topo, node, front_dest, &mut self.cand);
                debug_assert!(!self.cand.is_empty(), "routing gave no candidates");
                let ovc_of = |c: &Candidate| c.port.index() * w + c.vc as usize;
                match self
                    .cand
                    .iter()
                    .find(|c| t.owner(ru, ovc_of(c)) == OWNER_NONE)
                {
                    Some(c) => {
                        t.grant(ru, i, c.port.index(), c.vc);
                        self.slab.held_mut(front_slot).push((r, ovc_of(c) as u16));
                        self.stats.va_allocs += 1;
                    }
                    None => t.park(ru, i, self.cand.iter().map(ovc_of)),
                }
            }
        }
    }

    /// Phase 2: switch allocation and flit forwarding / delivery. Each output
    /// port grants the first of its requests, from its round-robin pointer,
    /// whose input port has not sent a flit yet this cycle. Only the ports
    /// of the router's ready-port word are arbitrated, in ascending order:
    /// a port without a request grants nothing, and a grant lowers only its
    /// own port's mask, so the word read up front names every port the
    /// full sweep would have granted on.
    fn sa_stage(&mut self, r: u32, now: Cycle) {
        let ru = r as usize;
        let t = &mut self.table;
        let mut ready = t.ready_ports(ru);
        if ready == 0 {
            return;
        }
        let (w, local) = (t.w, self.local);
        // Input VCs whose input port already sent a flit this cycle: the
        // crossbar constraint.
        let mut used = 0u64;

        while ready != 0 {
            let out_port = ready.trailing_zeros() as usize;
            ready &= ready - 1;
            let avail = t.sa_req(ru, out_port) & !used;
            if avail == 0 {
                continue;
            }
            self.kernel.vcs_touched += u64::from(avail.count_ones());
            let i = rr_grant(avail, t.sa_ptr(ru, out_port));
            let (in_port, in_vc) = t.vc_port(i);
            used |= t.port_bits(in_port);
            t.advance_sa_ptr(ru, out_port, i);

            let rt = t.route(ru, i);
            debug_assert_ne!(rt, ROUTE_NONE, "request bit set on an unrouted VC");
            let flit = t.pop_flit(ru, i).expect("requesting VC has a flit");

            // Return a credit upstream for the slot just freed (network
            // input ports only; injection buffers are local).
            if in_port != local {
                let (up, up_first) = t.link(ru, in_port);
                assert_ne!(up, NONE, "flits only arrive over real links");
                self.credit_returns.push((up, up_first + in_vc));
            }

            self.last_progress = now;
            if out_port == local {
                // Delivery.
                self.in_flight_flits -= 1;
                self.stats.delivered_flits += 1;
                if flit.is_tail {
                    t.clear_route(ru, i);
                    let msg = self.slab.remove(flit.slot);
                    #[cfg(debug_assertions)]
                    assert_eq!(msg.id, flit.msg, "slot/id mismatch at delivery");
                    self.stats.delivered_msgs += 1;
                    self.deliveries.push(Delivery {
                        msg,
                        delivered_at: now,
                        mode: DeliveryMode::Wormhole,
                    });
                } else {
                    t.sync_after_pop(ru, i);
                }
            } else {
                let oidx = out_port * w + route_vc(rt);
                t.spend_credit(ru, oidx);
                let (down, down_first) = t.link(ru, out_port);
                assert_ne!(down, NONE, "allocated outputs point at real links");
                self.arrivals
                    .push((down, down_first + route_vc(rt) as u32, flit));
                self.stats.flit_hops += 1;
                if flit.is_tail {
                    t.clear_route(ru, i);
                    // The tail has left this router: the message no longer
                    // holds this output VC, and heads parked on it may try.
                    t.release_output(ru, oidx);
                    let hs = self.slab.held_mut(flit.slot);
                    let pos = hs
                        .iter()
                        .position(|&h| h == (r, oidx as u16))
                        .expect("held list tracks allocations in path order");
                    hs.remove(pos);
                } else {
                    t.sync_after_pop(ru, i);
                }
            }
        }
    }

    /// Phase 3: message flit emission at sources. A router with nothing
    /// queued and nothing mid-emission has nothing to do here.
    fn injection_stage(&mut self, r: u32) {
        let ru = r as usize;
        let t = &mut self.table;
        if !t.injecting(ru) {
            return;
        }
        let (w, first, depth) = (t.w, self.local * t.w, t.depth);
        // Continue in-progress emissions: one flit per injection VC per cycle.
        for v in 0..w {
            let Some(em) = t.emitter(ru, v) else {
                continue;
            };
            if t.ring_len(ru, first + v) < depth {
                t.push_flit(ru, first + v, Flit::of(&em.msg, em.sent, em.slot));
                self.in_flight_flits += 1;
                let sent = em.sent + 1;
                if sent == em.msg.len_flits {
                    t.set_emitter(ru, v, None);
                    self.emitting_msgs -= 1;
                } else {
                    t.set_emitter(ru, v, Some(Emitting { sent, ..em }));
                }
            }
        }
        // Claim idle injection VCs for queued messages.
        for v in 0..w {
            if t.queue(ru).head == NONE {
                break;
            }
            let i = first + v;
            if t.emitter(ru, v).is_none() && t.ring_len(ru, i) == 0 && t.route(ru, i) == ROUTE_NONE
            {
                let (slot, msg) = (self.slab).dequeue(t.queue_mut(ru)).expect("non-empty");
                t.set_emitter(ru, v, Some(Emitting { msg, sent: 0, slot }));
            }
        }
    }

    /// Builds the current output-VC wait-for graph for deadlock diagnosis:
    /// one edge per `(held VC → requested VC)` pair over packets whose head
    /// flit is waiting for a free output VC. For deterministic routing a
    /// cycle in this graph is a genuine deadlock.
    #[must_use]
    pub fn wait_edges(&self) -> Vec<(WaitVc, WaitVc)> {
        let t = &self.table;
        let mut edges = Vec::new();
        let mut cand = Vec::new();
        for r in 0..self.topo.num_nodes() {
            let node = NodeId(r);
            for i in 0..t.n_ivc {
                if t.route(r as usize, i) != ROUTE_NONE {
                    continue;
                }
                let Some(front) = t.front(r as usize, i) else {
                    continue;
                };
                if !front.is_head || front.dest == node {
                    continue;
                }
                // An empty held list means the head is still at its source
                // and holds nothing yet.
                let Some(&holder) = self.slab.held(front.slot).last() else {
                    continue;
                };
                cand.clear();
                self.routing.route(&self.topo, node, front.dest, &mut cand);
                for c in &cand {
                    let oidx = c.port.index() * t.w + c.vc as usize;
                    edges.push((holder, (r, oidx as u16)));
                }
            }
        }
        edges
    }
}

/// The set `set` split at `start` (below 64) into the bits at `start..`
/// and the bits below it: visiting the first half ascending, then the
/// second, is the modular sweep `(start + off) % n` restricted to the set
/// bits — the VA stage's round-robin visit order.
#[inline(always)]
fn rotated(set: u64, start: usize) -> [u64; 2] {
    let upper = set & (u64::MAX << start);
    [upper, set ^ upper]
}

/// One round-robin switch grant over the non-empty request set `avail`
/// from the pointer `start` (below 64): its lowest bit at `start..`, or
/// its lowest bit when none is there.
#[inline(always)]
fn rr_grant(avail: u64, start: usize) -> usize {
    let upper = avail & (u64::MAX << start);
    (if upper == 0 { avail } else { upper }).trailing_zeros() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageId;
    use std::collections::HashMap;
    use wavesim_topology::{Coords, PortDir};

    fn mesh44(w: u8) -> WormholeFabric {
        WormholeFabric::new(
            Topology::mesh(&[4, 4]),
            WormholeConfig {
                w,
                buffer_depth: 4,
                routing: RoutingKind::Deterministic,
                routing_delay: 1,
            },
        )
    }

    fn run(fabric: &mut WormholeFabric, from: Cycle, max: Cycle) -> Cycle {
        let mut now = from;
        while fabric.busy() && now < max {
            fabric.tick(now);
            now += 1;
        }
        now
    }

    #[test]
    fn single_message_is_delivered_with_plausible_latency() {
        let mut f = mesh44(1);
        let topo = f.topology().clone();
        let src = topo.node(Coords::new(&[0, 0]));
        let dest = topo.node(Coords::new(&[3, 0]));
        f.inject(Message::new(1, src, dest, 5, 0));
        let end = run(&mut f, 0, 10_000);
        assert!(!f.busy(), "message must drain");
        let ds = f.drain_deliveries();
        assert_eq!(ds.len(), 1);
        let d = ds[0];
        assert_eq!(d.msg.id, MessageId(1));
        // 3 hops * ~2 cycles/hop + 5 flits serialization + injection/ejection
        // overhead: latency must be tens of cycles, not hundreds.
        assert!(d.latency() >= 8, "latency {} too small", d.latency());
        assert!(d.latency() <= 40, "latency {} too large", d.latency());
        assert!(end < 100);
        assert_eq!(f.stats().delivered_flits, 5);
    }

    #[test]
    fn longer_messages_pay_serialization_latency() {
        let mut short = mesh44(1);
        let mut long = mesh44(1);
        let topo = short.topology().clone();
        let src = topo.node(Coords::new(&[0, 0]));
        let dest = topo.node(Coords::new(&[3, 3]));
        short.inject(Message::new(1, src, dest, 2, 0));
        long.inject(Message::new(2, src, dest, 64, 0));
        run(&mut short, 0, 10_000);
        run(&mut long, 0, 10_000);
        let ls = short.drain_deliveries()[0].latency();
        let ll = long.drain_deliveries()[0].latency();
        assert!(
            ll >= ls + 60,
            "64-flit message ({ll}) must trail 2-flit message ({ls}) by ~62 cycles"
        );
    }

    #[test]
    fn all_pairs_traffic_drains_on_mesh() {
        let mut f = mesh44(2);
        let topo = f.topology().clone();
        let mut id = 0;
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a != b {
                    f.inject(Message::new(id, a, b, 4, 0));
                    id += 1;
                }
            }
        }
        run(&mut f, 0, 200_000);
        assert!(!f.busy(), "all-pairs traffic must drain without deadlock");
        let ds = f.drain_deliveries();
        assert_eq!(ds.len(), 16 * 15);
        assert_eq!(f.in_flight_msgs(), 0);
    }

    #[test]
    fn all_pairs_traffic_drains_on_torus_with_dateline() {
        let topo = Topology::torus(&[4, 4]);
        let mut f = WormholeFabric::new(
            topo.clone(),
            WormholeConfig {
                w: 2,
                buffer_depth: 2,
                routing: RoutingKind::Deterministic,
                routing_delay: 1,
            },
        );
        let mut id = 0;
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a != b {
                    f.inject(Message::new(id, a, b, 6, 0));
                    id += 1;
                }
            }
        }
        run(&mut f, 0, 500_000);
        assert!(!f.busy(), "torus all-pairs must drain with dateline DOR");
        assert_eq!(f.drain_deliveries().len(), 16 * 15);
    }

    #[test]
    fn adaptive_routing_drains_hotspot_traffic() {
        let topo = Topology::mesh(&[4, 4]);
        let mut f = WormholeFabric::new(
            topo.clone(),
            WormholeConfig {
                w: 3,
                buffer_depth: 4,
                routing: RoutingKind::Adaptive,
                routing_delay: 1,
            },
        );
        let hot = topo.node(Coords::new(&[3, 3]));
        let mut id = 0;
        for a in topo.nodes() {
            if a != hot {
                for _ in 0..4 {
                    f.inject(Message::new(id, a, hot, 8, 0));
                    id += 1;
                }
            }
        }
        run(&mut f, 0, 500_000);
        assert!(!f.busy());
        assert_eq!(f.drain_deliveries().len(), 15 * 4);
    }

    #[test]
    fn wormhole_blocks_hold_channels_but_release_on_tail() {
        // Two long messages share a column link; the second must block
        // until the first's tail releases the VC, then complete.
        let mut f = mesh44(1);
        let topo = f.topology().clone();
        let a = topo.node(Coords::new(&[0, 0]));
        let b = topo.node(Coords::new(&[1, 0]));
        let dest = topo.node(Coords::new(&[3, 0]));
        f.inject(Message::new(1, a, dest, 32, 0));
        f.inject(Message::new(2, b, dest, 32, 0));
        run(&mut f, 0, 10_000);
        let mut ds = f.drain_deliveries();
        assert_eq!(ds.len(), 2);
        ds.sort_by_key(|d| d.delivered_at);
        // Both complete; the trailing one pays blocking delay.
        assert!(ds[1].delivered_at > ds[0].delivered_at);
    }

    #[test]
    fn broken_torus_routing_deadlocks_and_is_diagnosable() {
        // Negative control: single-class torus DOR with ring-filling
        // traffic must stop making progress, and the wait-for graph must
        // contain a cycle.
        let topo = Topology::torus(&[4, 3]);
        let mut f = WormholeFabric::with_routing(
            topo.clone(),
            WormholeConfig {
                w: 1,
                buffer_depth: 1,
                routing: RoutingKind::Deterministic,
                routing_delay: 1,
            },
            Box::new(wavesim_topology::NaiveTorusDor::new(1)),
        );
        // Every node on row 0 sends 2 hops around its ring: with radix 4
        // and long messages these wormholes wrap the ring and deadlock.
        for x in 0..4u16 {
            let src = topo.node(Coords::new(&[x, 0]));
            let dest = topo.node(Coords::new(&[(x + 2) % 4, 0]));
            f.inject(Message::new(u64::from(x), src, dest, 64, 0));
        }
        let mut now = 0;
        while f.busy() && now < 5_000 {
            f.tick(now);
            now += 1;
        }
        assert!(f.busy(), "expected a deadlock to freeze the ring");
        assert!(
            f.progress_age(now) > 1_000,
            "no progress for a long time: age={}",
            f.progress_age(now)
        );
        // A frozen fabric costs nothing to keep simulating: every head is
        // parked and every body flit creditless, so no VC is visited —
        // while the routers stay in the active set, the stall clock keeps
        // running, and the parked heads still show in the wait-for graph.
        let frozen = f.kernel_stats();
        for _ in 0..100 {
            f.tick(now);
            now += 1;
        }
        assert_eq!(f.kernel_stats().vcs_touched, frozen.vcs_touched);
        assert!(f.kernel_stats().routers_scanned > frozen.routers_scanned);
        assert!(f.progress_age(now) > 1_100);
        // The wait-for graph has a cycle among the ring's output VCs.
        let edges = f.wait_edges();
        assert!(!edges.is_empty());
        let mut adj: HashMap<WaitVc, Vec<WaitVc>> = HashMap::new();
        for (a, b) in &edges {
            adj.entry(*a).or_default().push(*b);
        }
        fn has_cycle(
            v: WaitVc,
            adj: &HashMap<WaitVc, Vec<WaitVc>>,
            path: &mut Vec<WaitVc>,
            seen: &mut std::collections::HashSet<WaitVc>,
        ) -> bool {
            if path.contains(&v) {
                return true;
            }
            if !seen.insert(v) {
                return false;
            }
            path.push(v);
            let out = adj.get(&v).cloned().unwrap_or_default();
            for w in out {
                if has_cycle(w, adj, path, seen) {
                    return true;
                }
            }
            path.pop();
            false
        }
        let mut seen = std::collections::HashSet::new();
        let cyclic = adj
            .keys()
            .any(|&v| has_cycle(v, &adj, &mut Vec::new(), &mut seen));
        assert!(cyclic, "deadlocked fabric must show a wait-for cycle");
    }

    #[test]
    fn determinism_same_workload_same_schedule() {
        let build = || {
            let mut f = mesh44(2);
            let topo = f.topology().clone();
            let mut id = 0;
            for a in topo.nodes() {
                for b in topo.nodes() {
                    if a != b && (a.0 + b.0) % 3 == 0 {
                        f.inject(Message::new(id, a, b, 7, 0));
                        id += 1;
                    }
                }
            }
            let mut now = 0;
            while f.busy() && now < 100_000 {
                f.tick(now);
                now += 1;
            }
            f.drain_deliveries()
                .iter()
                .map(|d| (d.msg.id.0, d.delivered_at))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    /// The 4-D radix-2 mesh, 9 ports a router, with `w` VCs a port.
    fn mesh2222(w: u8) -> WormholeFabric {
        WormholeFabric::new(
            Topology::mesh(&[2, 2, 2, 2]),
            WormholeConfig {
                w,
                buffer_depth: 2,
                routing: RoutingKind::Deterministic,
                routing_delay: 1,
            },
        )
    }

    #[test]
    fn wide_router_drains_with_the_pinned_schedule() {
        // 4-D radix-2 mesh at w = 7: 9 ports x 7 VCs = 63 input VCs, the
        // widest router below the one-word bound, with the seven
        // injection VCs in bits 56..63 of every scheduling set. Four
        // rounds of all-pairs traffic keep every injection VC busy. The
        // hash was captured on the multi-word-mask kernel (the commit
        // before one-word sets); `GOLDEN_PRINT=1` prints it instead of
        // asserting. The mask oracle runs after every tick, so the request
        // masks and the ready-port word are checked too.
        let mut f = mesh2222(7);
        let topo = f.topology().clone();
        assert_eq!(f.table.n_ivc, 63);
        let mut id = 0;
        for round in 0..4u32 {
            for a in topo.nodes() {
                for b in topo.nodes() {
                    if a != b {
                        f.inject(Message::new(id, a, b, 3 + (a.0 + b.0 + round) % 5, 0));
                        id += 1;
                    }
                }
            }
        }
        let mut now = 0;
        while f.busy() && now < 500_000 {
            f.tick(now);
            check_all_masks(&f, now);
            now += 1;
        }
        assert!(!f.busy(), "wide-router all-pairs must drain");
        let ds = f.drain_deliveries();
        assert_eq!(ds.len(), 4 * 16 * 15);
        // FNV-1a over (id, delivery cycle), little-endian.
        let h = (ds.iter().flat_map(|d| [d.msg.id.0, d.delivered_at]))
            .flat_map(u64::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        if std::env::var("GOLDEN_PRINT").is_ok() {
            println!("GOLDEN wide_router_schedule = 0x{h:016x}");
        } else {
            assert_eq!(
                h, 0x2448_595c_c79d_f102,
                "wide-router delivery schedule diverged"
            );
        }
    }

    #[test]
    fn a_router_past_64_input_vcs_is_refused() {
        // The same mesh at w = 8 has 72 input VCs a router: more than one
        // u64 scheduling set holds.
        let err = std::panic::catch_unwind(|| mesh2222(8))
            .err()
            .expect("refused");
        let msg = err.downcast_ref::<String>().expect("a formatted message");
        assert_eq!(
            msg,
            "9 ports x 8 VCs is 72 input VCs: a router has at most 64 (one u64 per scheduling set)"
        );
    }

    /// The modular sweep `(start + off) % 64` restricted to `set`'s bits:
    /// the reference round-robin order.
    fn sweep(set: u64, start: usize) -> Vec<usize> {
        (0..64)
            .map(|off| (start + off) % 64)
            .filter(|&i| set >> i & 1 == 1)
            .collect()
    }

    /// Random, empty, full and single-bit sets.
    fn sample_sets() -> Vec<u64> {
        let mut rng = wavesim_sim::SimRng::new(42);
        let mut sets = vec![0, u64::MAX, 0x8000_0000_0000_0001];
        sets.extend((0..64).map(|i| 1u64 << i));
        sets.extend((0..32).map(|_| rng.next_u64()));
        sets.extend((0..32).map(|_| rng.next_u64() & rng.next_u64() & rng.next_u64()));
        sets
    }

    #[test]
    fn va_visit_order_matches_the_modular_sweep_for_every_start() {
        for set in sample_sets() {
            for start in 0..64 {
                let mut seen = Vec::new();
                for mut bits in rotated(set, start) {
                    while bits != 0 {
                        seen.push(bits.trailing_zeros() as usize);
                        bits &= bits - 1;
                    }
                }
                assert_eq!(seen, sweep(set, start), "set {set:#x} start {start}");
            }
        }
    }

    #[test]
    fn sa_grant_matches_the_modular_sweep_for_every_start() {
        // Each request set against each sample set of used inputs (the
        // crossbar exclusion), none and all of them included.
        let sets = sample_sets();
        for &req in &sets {
            for &used in &sets {
                let avail = req & !used;
                for start in 0..64 {
                    let want = sweep(req, start).into_iter().find(|&i| used >> i & 1 == 0);
                    let got = (avail != 0).then(|| rr_grant(avail, start));
                    assert_eq!(got, want, "req {req:#x} used {used:#x} start {start}");
                }
            }
        }
    }

    /// Runs the mask oracle over every router after the tick of `now`.
    fn check_all_masks(f: &WormholeFabric, now: Cycle) {
        for node in f.topo.nodes() {
            (f.table).check_masks(f.routing(), &f.topo, node, f.cfg.routing_delay, now);
        }
    }

    /// The input VC at the far end of output VC `ovc` of router `r`.
    fn downstream(f: &WormholeFabric, r: u32, ovc: usize) -> (u32, usize) {
        let p = PortDir::from_index(ovc / f.table.w);
        let down = f.topo.neighbor(NodeId(r), p).expect("owned VCs are links");
        (down.0, p.opposite().index() * f.table.w + ovc % f.table.w)
    }

    /// Slab slot of the packet input VC `i` of router `r` is routed for:
    /// the front flit's, or — every flit so far forwarded, the tail still
    /// to come — that of whoever feeds the VC: the source's emitter, or
    /// the upstream output VC, which the packet owns until its tail passes.
    fn packet_of(f: &WormholeFabric, r: u32, i: usize) -> u32 {
        let (t, w) = (&f.table, f.table.w);
        if let Some(front) = t.front(r as usize, i) {
            return front.slot;
        }
        if i / w == f.local {
            let em = t.emitter(r as usize, i % w);
            return em.expect("tail not yet emitted").slot;
        }
        let p = PortDir::from_index(i / w);
        let up = f.topo.neighbor(NodeId(r), p).expect("input VCs are links");
        let up_ovc = p.opposite().index() * w + i % w;
        let owner = t.owner(up.0 as usize, up_ovc);
        assert_ne!(owner, OWNER_NONE, "route outlives its upstream owner");
        packet_of(f, up.0, owner as usize)
    }

    /// The slots queued at router `r`, oldest first.
    fn queued(f: &WormholeFabric, r: usize) -> Vec<u32> {
        let mut out = Vec::new();
        let queue = f.table.queue(r);
        let mut s = queue.head;
        while s != NONE {
            out.push(s);
            s = f.slab.slots[s as usize].next;
        }
        assert_eq!(out.last().copied().unwrap_or(NONE), queue.tail);
        out
    }

    /// The bookkeeping oracle: everything the stages write to fabric-wide
    /// state as they go, recomputed from the router table alone. Each
    /// record's `held` list must be exactly the output VCs its packet
    /// owns, each feeding the input VC that owns the next; the flit and
    /// emission counts must equal a recount.
    fn check_bookkeeping(f: &WormholeFabric) {
        let t = &f.table;
        let mut owned = vec![0usize; f.slab.slots.len()];
        for r in 0..f.topo.num_nodes() {
            for ovc in 0..t.n_ivc {
                let owner = t.owner(r as usize, ovc);
                if owner != OWNER_NONE {
                    let slot = packet_of(f, r, owner as usize);
                    owned[slot as usize] += 1;
                    assert!(
                        f.slab.held(slot).contains(&(r, ovc as u16)),
                        "slot {slot} owns ({r}, {ovc}) but does not hold it"
                    );
                }
            }
        }
        for (slot, rec) in f.slab.slots.iter().enumerate() {
            assert!(rec.msg.is_some() || rec.held.is_empty(), "freed slot holds");
            assert_eq!(rec.held.len(), owned[slot], "slot {slot}: stale held entry");
            for pair in rec.held.windows(2) {
                let (r, ovc) = pair[1];
                let owner = t.owner(r as usize, ovc as usize);
                assert_eq!(
                    downstream(f, pair[0].0, pair[0].1 as usize),
                    (r, owner as usize),
                    "slot {slot}: held list out of path order"
                );
            }
        }
        let nodes = f.topo.num_nodes() as usize;
        let flits: usize = (0..nodes).map(|r| t.buffered_flits(r)).sum();
        assert_eq!(f.in_flight_flits, flits as u64, "in-flight flit count");
        let emitting: usize = (0..nodes).map(|r| queued(f, r).len() + t.emitting(r)).sum();
        assert_eq!(f.emitting_msgs, emitting as u64, "emitting message count");
    }

    /// Bernoulli traffic (`rate` messages per node-cycle, random pairs,
    /// lengths 1..=12) for `cycles` cycles, then drain — with the mask and
    /// bookkeeping oracles run after every tick. Returns whether any head
    /// ever parked.
    fn oracle_run(f: &mut WormholeFabric, cycles: Cycle, rate: f64, seed: u64) -> bool {
        let mut rng = wavesim_sim::SimRng::new(seed);
        let nodes = f.topo.num_nodes() as u64;
        let (mut id, mut now, mut ever_parked) = (0, 0, false);
        while now < cycles || f.busy() {
            for src in 0..nodes {
                if now < cycles && rng.chance(rate) {
                    let dest = (src + 1 + rng.below(nodes - 1)) % nodes;
                    let len = 1 + rng.below(12) as u32;
                    f.inject(Message::new(
                        id,
                        NodeId(src as u32),
                        NodeId(dest as u32),
                        len,
                        now,
                    ));
                    id += 1;
                }
            }
            f.tick(now);
            check_all_masks(f, now);
            check_bookkeeping(f);
            // The scheduling invariant, from the other side: a router the
            // active set skips next tick has nothing to do.
            for r in 0..nodes as usize {
                if !f.active.get(r) {
                    assert!(f.table.idle(r), "router {r} left the active set busy");
                    assert_eq!(f.table.buffered_flits(r), 0, "router {r}: flits outside");
                }
            }
            ever_parked |= (0..nodes as usize).any(|r| f.table.parked(r) > 0);
            now += 1;
            assert!(now < 200_000, "oracle traffic must drain");
        }
        assert_eq!(f.drain_deliveries().len() as u64, id);
        assert!(
            f.active.is_empty(),
            "drained fabric must have an empty active set"
        );
        ever_parked
    }

    #[test]
    fn masks_and_bookkeeping_match_first_principles_after_every_tick() {
        // Deterministic w=2, adaptive w=3 (several candidates per parked
        // head, woken by whichever frees first) and one-slot buffers (a
        // credit stall on every hop), on mesh and torus.
        let kinds = [
            (RoutingKind::Deterministic, 2u8, 4u32),
            (RoutingKind::Adaptive, 3, 2),
            (RoutingKind::Deterministic, 2, 1),
        ];
        for torus in [false, true] {
            for (routing, w, buffer_depth) in kinds {
                let dims = [4u16, 4];
                let topo = if torus {
                    Topology::torus(&dims)
                } else {
                    Topology::mesh(&dims)
                };
                let cfg = WormholeConfig {
                    w,
                    buffer_depth,
                    routing,
                    routing_delay: 1,
                };
                let mut f = WormholeFabric::new(topo, cfg);
                let parked = oracle_run(&mut f, 400, 0.12, 8);
                assert!(
                    parked,
                    "torus={torus} {routing:?}: traffic never blocked a head"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "credit protocol violated: credit overflow at router 5 ovc 0")]
    fn a_forged_credit_fails_the_commit() {
        // Every output VC of a fresh fabric holds all its credits: one
        // more returned is a credit nobody spent.
        let mut f = mesh44(1);
        f.credit_returns.push((5, 0));
        f.commit();
    }

    #[test]
    #[should_panic(expected = "credit protocol violated: buffer overflow at router 5 vc 1")]
    fn a_flit_past_the_downstream_credits_fails_the_commit() {
        // Five flits for one 4-slot buffer in one commit: the fifth would
        // be sent on a credit its sender never had.
        let mut f = mesh44(1);
        let m = Message::new(1, NodeId(4), NodeId(7), 5, 0);
        for seq in 0..5 {
            f.arrivals.push((5, 1, Flit::of(&m, seq, 0)));
        }
        f.commit();
    }

    #[test]
    fn buffer_depth_must_fit_a_ring_index() {
        let build = |buffer_depth| {
            std::panic::catch_unwind(|| {
                let cfg = WormholeConfig {
                    w: 1,
                    buffer_depth,
                    ..WormholeConfig::default()
                };
                WormholeFabric::new(Topology::mesh(&[2]), cfg).table.depth
            })
        };
        assert_eq!(build(1).ok(), Some(1));
        assert_eq!(build(MAX_DEPTH).ok(), Some(65_535));
        for bad in [0, MAX_DEPTH + 1, u32::MAX] {
            let err = build(bad).expect_err("refused");
            let msg = err.downcast_ref::<String>().expect("a formatted message");
            assert!(
                msg.starts_with(&format!("buffer_depth {bad} is outside 1..=65535")),
                "{msg}"
            );
        }
    }

    #[test]
    fn injection_respects_vc_count() {
        // With w=1, two messages from the same source serialize.
        let mut f = mesh44(1);
        let topo = f.topology().clone();
        let src = topo.node(Coords::new(&[0, 0]));
        let d1 = topo.node(Coords::new(&[3, 0]));
        let d2 = topo.node(Coords::new(&[0, 3]));
        f.inject(Message::new(1, src, d1, 16, 0));
        f.inject(Message::new(2, src, d2, 16, 0));
        run(&mut f, 0, 10_000);
        let mut ds = f.drain_deliveries();
        ds.sort_by_key(|d| d.msg.id);
        // Disjoint paths, but single injection VC: the second message's
        // emission cannot start until the first finishes.
        assert!(ds[1].delivered_at >= ds[0].delivered_at);
        assert!(ds[1].latency() > 16);
    }

    #[test]
    fn stats_account_for_all_flits() {
        let mut f = mesh44(2);
        let topo = f.topology().clone();
        let src = topo.node(Coords::new(&[0, 0]));
        let dest = topo.node(Coords::new(&[2, 2]));
        f.inject(Message::new(1, src, dest, 10, 0));
        run(&mut f, 0, 10_000);
        let s = f.stats();
        assert_eq!(s.injected_msgs, 1);
        assert_eq!(s.delivered_msgs, 1);
        assert_eq!(s.delivered_flits, 10);
        // 4 hops * 10 flits forwarded across links.
        assert_eq!(s.flit_hops, 40);
    }

    #[test]
    fn active_set_tracks_exactly_the_nonidle_routers() {
        // One short message crosses the mesh, and a long one holds the
        // eastward VC out of (1,0) while a third, injected there behind
        // it, parks on that VC. After every tick, each non-idle router
        // must have its active bit set (the scheduling invariant) — a
        // parked head counts although it left `va_pending` — and after
        // drain the whole set must be empty again.
        let mut f = mesh44(1);
        let topo = f.topology().clone();
        let src = topo.node(Coords::new(&[0, 0]));
        let mid = topo.node(Coords::new(&[1, 0]));
        f.inject(Message::new(1, src, topo.node(Coords::new(&[3, 3])), 6, 0));
        f.inject(Message::new(2, src, topo.node(Coords::new(&[3, 0])), 40, 0));
        let (mut now, mut saw_parked) = (0, false);
        while f.busy() && now < 10_000 {
            if now == 20 {
                f.inject(Message::new(
                    3,
                    mid,
                    topo.node(Coords::new(&[2, 0])),
                    2,
                    now,
                ));
            }
            f.tick(now);
            now += 1;
            for r in 0..topo.num_nodes() as usize {
                if !f.table.idle(r) {
                    assert!(
                        f.active.get(r),
                        "non-idle router {r} missing from active set at cycle {now}"
                    );
                }
                let pending = f.table.va_pending(r) != 0;
                if f.table.parked(r) > 0 && !pending {
                    saw_parked = true;
                    assert!(!f.table.idle(r), "parked head at router {r} reads as idle");
                }
            }
        }
        assert!(saw_parked, "the third message must have parked at (1,0)");
        assert!(!f.busy());
        assert!(
            f.active.is_empty(),
            "drained fabric must have an empty active set"
        );
        // Drained fabric: ticking is O(1) — no routers scanned.
        let before = f.kernel_stats().routers_scanned;
        f.tick(now);
        assert_eq!(f.kernel_stats().routers_scanned, before);
    }

    #[test]
    fn message_slab_recycles_slots_without_growth() {
        // Sequential messages through the same fabric must reuse one slot.
        let mut f = mesh44(1);
        let topo = f.topology().clone();
        let src = topo.node(Coords::new(&[0, 0]));
        let dest = topo.node(Coords::new(&[2, 0]));
        let mut now = 0;
        for id in 0..8 {
            f.inject(Message::new(id, src, dest, 3, now));
            while f.busy() && now < 100_000 {
                f.tick(now);
                now += 1;
            }
        }
        assert_eq!(f.drain_deliveries().len(), 8);
        assert_eq!(f.in_flight_msgs(), 0);
        assert_eq!(
            f.slab.slots.len(),
            1,
            "sequential messages must recycle a single arena slot"
        );
    }
}
