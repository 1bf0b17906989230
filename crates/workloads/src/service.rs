//! Closed-loop service traffic at scale.
//!
//! The paper's introduction motivates wave switching with
//! distributed-shared-memory machines, where "messages are directly sent
//! by the hardware … as a consequence of remote memory accesses or
//! coherence commands" and "reducing the network hardware latency … is
//! crucial". The natural workload is *closed-loop*: a client issues a
//! short **request** to a server (home) node, the server services it, and
//! a longer **reply** (the cache line / page data) returns.
//!
//! [`ServiceWorkload`] generates that pattern at any population, from "a
//! few MSHR slots per node" (E13: `outstanding * nodes` clients with
//! `ramp: 0` — round-robin assignment gives every node exactly
//! `outstanding` of them) to "millions of simulated clients": each client
//! runs the classic closed loop *think → request → service → reply →
//! think*, so offered load responds to latency the way real users do — a
//! congested network slows its own clients down instead of piling up an
//! unbounded backlog. Servers are drawn from the same hot-partner sets as
//! [`crate::patterns::TrafficPattern::HotPairs`], so open-loop and
//! closed-loop experiments are comparable.
//!
//! The bookkeeping is **O(active)**, never O(clients):
//!
//! * unstarted clients are a pair of counters per node (assigned count +
//!   start cursor); start cycles are computed incrementally, spread
//!   evenly over the ramp window;
//! * in-flight round trips live in a map keyed by request id (size =
//!   actual in flight, which the closed loop bounds); a reply is rebuilt
//!   from its request's entry when its service time is up;
//! * everything timed — each node's next ramp start, each thinking
//!   client's wake-up, each reply in service — is one entry of one
//!   `(cycle, kind, key)` calendar, so a cycle visits only what is due.
//!
//! Per-tenant attribution needs no extra machinery: every request keeps
//! its client's `(src, dst)` pair, so `analyze::flows`' keying breaks a
//! traced service run down by tenant for free.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use wavesim_network::{Delivery, Message};
use wavesim_sim::stats::{Histogram, Warmup};
use wavesim_sim::{Cycle, SimRng};
use wavesim_topology::{NodeId, Topology};

use crate::patterns::{pick_partner, PartnerTable};
use crate::{CarpOp, Workload};

/// Reply-id tag: a reply carries its request's id with this bit set.
const REPLY_BIT: u64 = 1 << 63;

/// Configuration of the service workload.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Total simulated clients, spread round-robin over the nodes.
    /// Millions are fine: memory scales with *active* requests, not this.
    pub clients: u64,
    /// Hot server nodes per client node.
    pub partners: u8,
    /// Probability a request targets a hot server (vs uniform).
    pub locality: f64,
    /// Request length in flits.
    pub req_len: u32,
    /// Reply length in flits.
    pub reply_len: u32,
    /// Cycles the server takes to service a request.
    pub service_time: u64,
    /// Think time between a completed reply and the client's next request.
    pub think_time: u64,
    /// Client start times are spread evenly over `[0, ramp)` so a large
    /// population does not fire as one cycle-0 burst. `0` = all at once.
    pub ramp: Cycle,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            clients: 1024,
            partners: 3,
            locality: 0.8,
            req_len: 4,
            reply_len: 64,
            service_time: 20,
            think_time: 200,
            ramp: 200,
            seed: 1,
        }
    }
}

/// What a calendar entry is due for, in the order a cycle serves them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Due {
    /// A node's next ramp start (key: node).
    Start,
    /// A thinking client wakes (key: its node).
    Wake,
    /// A reply leaves its server (key: reply id).
    Reply,
}

/// A round trip in flight, keyed by its request id.
#[derive(Debug, Clone, Copy)]
struct RoundTrip {
    client: NodeId,
    server: NodeId,
    issued_at: Cycle,
}

/// The scalable closed-loop generator.
pub struct ServiceWorkload {
    topo: Topology,
    cfg: ServiceConfig,
    rng: SimRng,
    /// Each client node's hot servers, drawn on its first local pick.
    partners: PartnerTable,
    /// No new requests at or after this cycle (in-flight ones finish).
    stop_at: Cycle,
    /// Round trips of requests issued before this are not measured.
    warmup: Warmup,
    /// Clients assigned to each node (base + remainder distribution).
    assigned: Vec<u64>,
    /// Per node: how many assigned clients have issued their first
    /// request. Start cycle of client `k` is `k * ramp / assigned`.
    started: Vec<u64>,
    /// `(cycle, kind, key)` of every ramp start, wake-up and reply.
    calendar: BinaryHeap<Reverse<(Cycle, Due, u64)>>,
    /// The entries due in one call (scratch).
    due: Vec<(Due, Cycle, u64)>,
    in_flight: HashMap<u64, RoundTrip>,
    round_trips: Histogram,
    thinking: u64,
    /// Replies on the calendar, waiting out their service time.
    in_service: u64,
    next_id: u64,
    requests_issued: u64,
    completed: u64,
    retired: u64,
}

impl ServiceWorkload {
    /// Builds the workload over `topo`.
    ///
    /// # Panics
    /// Panics on a topology with fewer than two nodes or zero-length
    /// messages.
    #[must_use]
    pub fn new(topo: Topology, cfg: ServiceConfig) -> Self {
        let n = topo.num_nodes();
        assert!(n >= 2, "service traffic needs at least two nodes");
        assert!(cfg.req_len >= 1 && cfg.reply_len >= 1);
        let base = cfg.clients / u64::from(n);
        let rem = cfg.clients % u64::from(n);
        let assigned = (0..u64::from(n))
            .map(|i| base + u64::from(i < rem))
            .collect();
        // The nodes with a client to start: all, or the first `clients`.
        let starts = 0..u64::from(n).min(cfg.clients);
        Self {
            rng: SimRng::new(cfg.seed ^ 0xD5_0001),
            partners: PartnerTable::new(cfg.seed),
            stop_at: Cycle::MAX,
            warmup: Warmup::new(0),
            assigned,
            started: vec![0; n as usize],
            calendar: starts.map(|i| Reverse((0, Due::Start, i))).collect(),
            due: Vec::new(),
            in_flight: HashMap::new(),
            round_trips: Histogram::new(),
            thinking: 0,
            in_service: 0,
            next_id: 0,
            requests_issued: 0,
            completed: 0,
            retired: 0,
            topo,
            cfg,
        }
    }

    fn draw_server(&mut self, src: NodeId) -> NodeId {
        if self.rng.chance(self.cfg.locality) {
            let ps = self.partners.of(&self.topo, src, self.cfg.partners);
            if !ps.is_empty() {
                return ps[pick_partner(&mut self.rng, ps.len())];
            }
        }
        let n = u64::from(self.topo.num_nodes());
        let mut d = NodeId(self.rng.below(n) as u32);
        while d == src {
            d = NodeId(self.rng.below(n) as u32);
        }
        d
    }

    fn issue(&mut self, client: NodeId, now: Cycle, out: &mut Vec<CarpOp>) {
        let server = self.draw_server(client);
        let id = self.next_id;
        self.next_id += 1;
        self.requests_issued += 1;
        let trip = RoundTrip {
            client,
            server,
            issued_at: now,
        };
        self.in_flight.insert(id, trip);
        out.push(CarpOp::Send(Message::new(
            id,
            client,
            server,
            self.cfg.req_len,
            now,
        )));
    }

    /// Starts every client of `node` whose ramp start is due by `now`,
    /// and puts the node's next start on the calendar.
    fn start(&mut self, node: u32, now: Cycle, out: &mut Vec<CarpOp>) {
        let i = node as usize;
        let (total, ramp) = (self.assigned[i], self.cfg.ramp);
        let start_of = |k: u64| k * ramp / total;
        while self.started[i] < total && start_of(self.started[i]) <= now {
            self.started[i] += 1;
            self.issue(NodeId(node), now, out);
        }
        if self.started[i] < total {
            let at = start_of(self.started[i]);
            self.calendar
                .push(Reverse((at, Due::Start, u64::from(node))));
        }
    }

    /// Stops generating at `cycle` (in-flight round trips still finish).
    pub fn stop_at(&mut self, cycle: Cycle) {
        self.stop_at = cycle;
    }

    /// Measures only the round trips of requests issued at or after
    /// `cycle`.
    pub fn measure_from(&mut self, cycle: Cycle) {
        self.warmup = Warmup::new(cycle);
    }

    /// Round-trip times, request issue to reply delivery, of the measured
    /// requests.
    #[must_use]
    pub fn round_trips(&self) -> &Histogram {
        &self.round_trips
    }

    /// Requests issued so far.
    #[must_use]
    pub fn requests_issued(&self) -> u64 {
        self.requests_issued
    }

    /// Round trips completed so far.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Requests or replies currently in the network (or in service).
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.in_flight.len() as u64
    }

    /// Clients currently in their think phase.
    #[must_use]
    pub fn thinking(&self) -> u64 {
        self.thinking
    }

    /// Clients that woke at or after the stop cycle and left the system.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }
}

/// A cycle sends, in order: the clients whose ramp start came due, node
/// by node; the clients whose think time elapsed, in (wake cycle, node)
/// order; the replies whose service time elapsed, in (send cycle, reply
/// id) order. From the stop cycle on, no client starts and waking
/// clients retire instead of re-issuing; the source phase lasts while
/// replies are in service or clients think.
impl Workload for ServiceWorkload {
    fn due(&mut self, now: Cycle, out: &mut Vec<CarpOp>) -> bool {
        let open = now < self.stop_at;
        while let Some(&Reverse((at, kind, key))) = self.calendar.peek() {
            if at > now {
                break;
            }
            self.calendar.pop();
            self.due.push((kind, at, key));
        }
        self.due.sort_unstable();
        let mut due = std::mem::take(&mut self.due);
        for &(kind, at, key) in &due {
            match kind {
                Due::Start if open => self.start(key as u32, now, out),
                Due::Start => {}
                Due::Wake => {
                    self.thinking -= 1;
                    if open {
                        self.issue(NodeId(key as u32), now, out);
                    } else {
                        self.retired += 1;
                    }
                }
                Due::Reply => {
                    self.in_service -= 1;
                    if let Some(t) = self.in_flight.get(&(key & !REPLY_BIT)) {
                        let reply = Message::new(key, t.server, t.client, self.cfg.reply_len, at);
                        out.push(CarpOp::Send(reply));
                    }
                }
            }
        }
        due.clear();
        self.due = due;
        open || self.in_service > 0 || self.thinking > 0
    }

    /// A request reaching its server puts the reply on the calendar after
    /// the service time; a reply reaching its client completes the round
    /// trip, and the client thinks until `now + think_time`.
    fn delivered(&mut self, d: &Delivery, now: Cycle) {
        let id = d.msg.id.0;
        if id & REPLY_BIT == 0 {
            if self.in_flight.contains_key(&id) {
                let at = now + self.cfg.service_time;
                self.calendar
                    .push(Reverse((at, Due::Reply, id | REPLY_BIT)));
                self.in_service += 1;
            }
        } else if let Some(t) = self.in_flight.remove(&(id & !REPLY_BIT)) {
            debug_assert_eq!(t.client, d.msg.dest, "reply delivered to its client");
            self.completed += 1;
            if self.warmup.open(t.issued_at) {
                self.round_trips.record(now - t.issued_at);
            }
            let wake = now + self.cfg.think_time;
            self.calendar
                .push(Reverse((wake, Due::Wake, u64::from(t.client.0))));
            self.thinking += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fake_net::{delivery, FakeNet};

    fn topo() -> Topology {
        Topology::mesh(&[4, 4])
    }

    /// The messages `w` sends at `now`.
    fn sends(w: &mut ServiceWorkload, now: Cycle) -> Vec<Message> {
        let mut ops = Vec::new();
        w.due(now, &mut ops);
        ops.into_iter()
            .map(|op| match op {
                CarpOp::Send(m) => m,
                other => panic!("service traffic only sends: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn ramp_spreads_starts_and_wakeups_aggregate() {
        let mut w = ServiceWorkload::new(
            topo(),
            ServiceConfig {
                clients: 160,
                ramp: 100,
                think_time: 50,
                ..ServiceConfig::default()
            },
        );
        let first = sends(&mut w, 0);
        assert!(
            !first.is_empty() && first.len() < 160,
            "ramp spreads the start burst: {} at cycle 0",
            first.len()
        );
        let mut total = first.len();
        for now in 1..100 {
            total += sends(&mut w, now).len();
        }
        assert_eq!(total, 160, "every client started inside the ramp");
        assert_eq!(w.in_flight(), 160);
    }

    #[test]
    fn ramp_zero_starts_every_nodes_share_at_once() {
        // 32 clients on 16 nodes with no ramp: each node holds exactly two
        // outstanding requests (E13's MSHR bound) until replies complete.
        let mut w = ServiceWorkload::new(
            topo(),
            ServiceConfig {
                clients: 32,
                ramp: 0,
                ..ServiceConfig::default()
            },
        );
        let reqs = sends(&mut w, 0);
        for node in 0..16 {
            let from = reqs.iter().filter(|m| m.src == NodeId(node)).count();
            assert_eq!(from, 2, "node {node} fills its two slots");
        }
        assert!(sends(&mut w, 1).is_empty());
        assert_eq!(w.in_flight(), 32);
    }

    #[test]
    fn locality_targets_partner_servers() {
        let cfg = ServiceConfig {
            clients: 32,
            ramp: 0,
            locality: 1.0,
            partners: 2,
            ..ServiceConfig::default()
        };
        let t = topo();
        let mut w = ServiceWorkload::new(t.clone(), cfg);
        for m in sends(&mut w, 0) {
            let ps = crate::patterns::partners_of(&t, m.src, 2, cfg.seed);
            assert!(ps.contains(&m.dest), "{} not a server of {}", m.dest, m.src);
        }
    }

    #[test]
    fn closed_loop_round_trip_and_think_rewake() {
        let mut w = ServiceWorkload::new(
            topo(),
            ServiceConfig {
                clients: 1,
                ramp: 0,
                service_time: 7,
                think_time: 30,
                ..ServiceConfig::default()
            },
        );
        let reqs = sends(&mut w, 0);
        assert_eq!(reqs.len(), 1);
        let r = reqs[0];
        w.delivered(&delivery(r, 10), 10);
        assert!(sends(&mut w, 16).is_empty(), "the server is still busy");
        let replies = sends(&mut w, 17);
        assert_eq!(replies.len(), 1, "service time honoured");
        let reply = replies[0];
        assert_eq!((reply.src, reply.dest), (r.dest, r.src));
        assert_eq!((reply.len_flits, reply.created_at), (64, 17));
        assert_ne!(reply.id.0 & REPLY_BIT, 0);
        w.delivered(&delivery(reply, 25), 25);
        assert_eq!((w.completed(), w.thinking(), w.in_flight()), (1, 1, 0));
        assert_eq!(w.round_trips().count(), 1);
        assert_eq!(w.round_trips().mean(), 25.0, "issued at 0, back at 25");
        // Nothing before the wake cycle, one request at it.
        assert!(sends(&mut w, 54).is_empty());
        let again = sends(&mut w, 55);
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].src, r.src);
        assert_eq!(w.thinking(), 0);
    }

    #[test]
    fn stop_at_retires_waking_clients() {
        let mut w = ServiceWorkload::new(
            topo(),
            ServiceConfig {
                clients: 4,
                ramp: 0,
                think_time: 5,
                ..ServiceConfig::default()
            },
        );
        w.stop_at(50);
        for r in sends(&mut w, 0) {
            w.delivered(&delivery(r, 10), 10);
        }
        let mut ops = Vec::new();
        assert!(w.due(30, &mut ops), "replies in service keep it going");
        assert_eq!(ops.len(), 4, "every reply leaves at 10 + 20");
        for op in ops {
            let CarpOp::Send(reply) = op else { panic!() };
            w.delivered(&delivery(reply, 60), 60);
        }
        // Wakes land at 65, after stop_at: all four retire, none re-issue.
        let mut ops = Vec::new();
        assert!(!w.due(65, &mut ops), "nobody left to wait for");
        assert!(ops.is_empty());
        assert_eq!(w.retired(), 4);
        assert_eq!(w.thinking(), 0);
        assert_eq!(w.in_flight(), 0);

        // Stopped before the first cycle: nobody ever starts.
        let mut never = ServiceWorkload::new(
            topo(),
            ServiceConfig {
                ramp: 0,
                ..ServiceConfig::default()
            },
        );
        never.stop_at(0);
        assert!(sends(&mut never, 0).is_empty());
        assert_eq!(never.requests_issued(), 0);
    }

    #[test]
    fn millions_of_clients_fit_in_o_active_state() {
        // 2M clients on 16 nodes: construction is O(nodes), and polling
        // the first cycle of a long ramp only materializes that cycle's
        // share of starts.
        let mut w = ServiceWorkload::new(
            topo(),
            ServiceConfig {
                clients: 2_000_000,
                ramp: 1_000_000,
                ..ServiceConfig::default()
            },
        );
        // 125k clients per node over a 1M-cycle ramp: one start per node
        // every 8 cycles, and one calendar entry per node between them.
        let first = sends(&mut w, 0);
        assert_eq!(first.len(), 16);
        for now in 1..8 {
            assert!(sends(&mut w, now).is_empty());
        }
        assert_eq!(w.calendar.len(), 16);
        assert_eq!(sends(&mut w, 8).len(), 16);
        assert_eq!(w.in_flight(), 32);
        assert_eq!(w.requests_issued(), 32);
    }

    #[test]
    fn deterministic_across_rebuilds() {
        let build = || {
            ServiceWorkload::new(
                topo(),
                ServiceConfig {
                    clients: 100,
                    ramp: 10,
                    ..ServiceConfig::default()
                },
            )
        };
        let (mut a, mut b) = (build(), build());
        for now in 0..20 {
            assert_eq!(sends(&mut a, now), sends(&mut b, now));
        }
    }

    // The workload as it was before its calendar, kept as the oracle:
    // every poll sweeps every node's ramp counters, wake-ups sit in
    // `(cycle, node)` buckets, and the driver keeps the replies in service.

    #[derive(Debug, Clone, Copy)]
    struct PendingReq {
        client: NodeId,
        issued_at: Cycle,
    }

    /// What a delivery meant to the workload.
    #[derive(Debug, Clone)]
    enum SweepEvent {
        /// A request reached its server: send this reply at the given cycle.
        Reply(Cycle, Message),
        /// A reply reached its client: round trip complete.
        Done {
            /// Cycle the request was issued (for round-trip accounting).
            issued_at: Cycle,
        },
    }

    /// The scalable closed-loop generator.
    struct SweepService {
        topo: Topology,
        cfg: ServiceConfig,
        rng: SimRng,
        /// Each client node's hot servers, drawn on its first local pick.
        partners: PartnerTable,
        /// No new requests at or after this cycle (in-flight ones finish).
        stop_at: Cycle,
        /// Clients assigned to each node (base + remainder distribution).
        assigned: Vec<u64>,
        /// Per node: how many assigned clients have issued their first
        /// request. Start cycle of client `k` is `k * ramp / assigned`.
        started: Vec<u64>,
        /// Thinking clients, aggregated: count per (wake cycle, node).
        wake_counts: HashMap<(Cycle, u32), u64>,
        wakeups: BinaryHeap<Reverse<(Cycle, u32)>>,
        /// In-flight requests and replies by message id.
        pending: HashMap<u64, PendingReq>,
        thinking: u64,
        next_id: u64,
        requests_issued: u64,
        completed: u64,
        retired: u64,
    }

    impl SweepService {
        /// Builds the workload over `topo`.
        ///
        /// # Panics
        /// Panics on a topology with fewer than two nodes or zero-length
        /// messages.
        #[must_use]
        fn new(topo: Topology, cfg: ServiceConfig) -> Self {
            let n = topo.num_nodes();
            assert!(n >= 2, "service traffic needs at least two nodes");
            assert!(cfg.req_len >= 1 && cfg.reply_len >= 1);
            let base = cfg.clients / u64::from(n);
            let rem = cfg.clients % u64::from(n);
            let assigned = (0..u64::from(n))
                .map(|i| base + u64::from(i < rem))
                .collect();
            Self {
                rng: SimRng::new(cfg.seed ^ 0xD5_0001),
                partners: PartnerTable::new(cfg.seed),
                stop_at: Cycle::MAX,
                assigned,
                started: vec![0; n as usize],
                wake_counts: HashMap::new(),
                wakeups: BinaryHeap::new(),
                pending: HashMap::new(),
                thinking: 0,
                next_id: 0,
                requests_issued: 0,
                completed: 0,
                retired: 0,
                topo,
                cfg,
            }
        }

        fn draw_server(&mut self, src: NodeId) -> NodeId {
            if self.rng.chance(self.cfg.locality) {
                let ps = self.partners.of(&self.topo, src, self.cfg.partners);
                if !ps.is_empty() {
                    return ps[pick_partner(&mut self.rng, ps.len())];
                }
            }
            let n = u64::from(self.topo.num_nodes());
            let mut d = NodeId(self.rng.below(n) as u32);
            while d == src {
                d = NodeId(self.rng.below(n) as u32);
            }
            d
        }

        fn issue(&mut self, node: NodeId, now: Cycle, out: &mut Vec<Message>) {
            let server = self.draw_server(node);
            let id = self.next_id;
            self.next_id += 1;
            self.requests_issued += 1;
            self.pending.insert(
                id,
                PendingReq {
                    client: node,
                    issued_at: now,
                },
            );
            out.push(Message::new(id, node, server, self.cfg.req_len, now));
        }

        /// Stops generating at `cycle` (in-flight round trips still finish).
        fn stop_at(&mut self, cycle: Cycle) {
            self.stop_at = cycle;
        }

        /// Requests to inject at cycle `now` (call once per cycle with
        /// non-decreasing `now`): newly-ramped clients plus clients whose
        /// think time elapsed. From the stop cycle on, waking clients retire
        /// instead of re-issuing.
        fn poll(&mut self, now: Cycle) -> Vec<Message> {
            let mut out = Vec::new();
            let open = now < self.stop_at;
            // Ramp-up: start cycles spread over [0, ramp).
            if open {
                for i in 0..self.started.len() {
                    let total = self.assigned[i];
                    while self.started[i] < total
                        && self.started[i] * self.cfg.ramp / total.max(1) <= now
                    {
                        self.started[i] += 1;
                        self.issue(NodeId(i as u32), now, &mut out);
                    }
                }
            }
            // Wake-ups, in deterministic (cycle, node) order.
            while let Some(&Reverse((t, node))) = self.wakeups.peek() {
                if t > now {
                    break;
                }
                self.wakeups.pop();
                let count = self
                    .wake_counts
                    .remove(&(t, node))
                    .expect("wake bucket exists");
                self.thinking -= count;
                if open {
                    for _ in 0..count {
                        self.issue(NodeId(node), now, &mut out);
                    }
                } else {
                    self.retired += count;
                }
            }
            out
        }

        /// Feeds a delivery back into the closed loop.
        ///
        /// # Panics
        /// Panics on a message id this workload never issued.
        fn on_delivered(&mut self, msg_id: u64, dest: NodeId, now: Cycle) -> SweepEvent {
            let entry = self
                .pending
                .remove(&msg_id)
                .expect("delivery of a message this workload never issued");
            if msg_id & REPLY_BIT == 0 {
                let reply_id = msg_id | REPLY_BIT;
                let send_at = now + self.cfg.service_time;
                self.pending.insert(reply_id, entry);
                SweepEvent::Reply(
                    send_at,
                    Message::new(reply_id, dest, entry.client, self.cfg.reply_len, send_at),
                )
            } else {
                debug_assert_eq!(entry.client, dest, "reply delivered to its client");
                self.completed += 1;
                let wake = now + self.cfg.think_time;
                let key = (wake, entry.client.0);
                let slot = self.wake_counts.entry(key).or_insert(0);
                if *slot == 0 {
                    self.wakeups.push(Reverse(key));
                }
                *slot += 1;
                self.thinking += 1;
                SweepEvent::Done {
                    issued_at: entry.issued_at,
                }
            }
        }

        /// Requests issued so far.
        #[must_use]
        fn requests_issued(&self) -> u64 {
            self.requests_issued
        }

        /// Round trips completed so far.
        #[must_use]
        fn completed(&self) -> u64 {
            self.completed
        }

        /// Requests or replies currently in the network (or in service).
        #[must_use]
        fn in_flight(&self) -> u64 {
            self.pending.len() as u64
        }

        /// Clients currently in their think phase.
        #[must_use]
        fn thinking(&self) -> u64 {
            self.thinking
        }

        /// Clients that woke at or after the stop cycle and left the system.
        #[must_use]
        fn retired(&self) -> u64 {
            self.retired
        }
    }

    /// Replies waiting out their home's service time, released in (send
    /// cycle, reply id) order.
    #[derive(Default)]
    struct SweepReplies {
        pending: std::collections::BinaryHeap<std::cmp::Reverse<(Cycle, u64)>>,
        store: std::collections::HashMap<u64, Message>,
    }

    impl SweepReplies {
        fn push(&mut self, send_at: Cycle, reply: Message) {
            self.pending.push(std::cmp::Reverse((send_at, reply.id.0)));
            self.store.insert(reply.id.0, reply);
        }

        /// Sends every reply whose service time elapsed by `now`.
        fn send_due(&mut self, now: Cycle, out: &mut Vec<Message>) {
            while let Some(&std::cmp::Reverse((t, id))) = self.pending.peek() {
                if t > now {
                    break;
                }
                self.pending.pop();
                let m = self.store.remove(&id).expect("stored reply");
                out.push(m);
            }
        }

        fn is_empty(&self) -> bool {
            self.pending.is_empty()
        }
    }

    /// What a run of one implementation showed.
    #[derive(Debug, PartialEq)]
    struct Seen {
        sent: Vec<(Cycle, u64, NodeId, NodeId, u32, Cycle)>,
        active: Vec<bool>,
        counts: (u64, u64, u64, u64),
        round_trips: (u64, u64, u64),
    }

    const WARMUP: Cycle = 100;

    /// Drives the reference as `run_service` drove it: poll, send due
    /// replies, then hear the cycle's deliveries.
    fn run_sweep(cfg: ServiceConfig, stop: Cycle, cycles: Cycle) -> Seen {
        let mut w = SweepService::new(topo(), cfg);
        w.stop_at(stop);
        let (mut net, mut replies) = (FakeNet::new(cfg.seed), SweepReplies::default());
        let (mut active, mut rt) = (Vec::new(), Histogram::new());
        for now in 0..cycles {
            let mut out = w.poll(now);
            replies.send_due(now, &mut out);
            for m in out {
                net.send(now, m);
            }
            active.push(now < stop || !replies.is_empty() || w.thinking() > 0);
            for m in net.deliver(now) {
                match w.on_delivered(m.id.0, m.dest, now) {
                    SweepEvent::Reply(at, reply) => replies.push(at, reply),
                    SweepEvent::Done { issued_at } => {
                        if issued_at >= WARMUP {
                            rt.record(now - issued_at);
                        }
                    }
                }
            }
        }
        Seen {
            sent: net.sent,
            active,
            counts: (
                w.requests_issued(),
                w.completed(),
                w.retired(),
                w.in_flight(),
            ),
            round_trips: (rt.count(), rt.mean().to_bits(), rt.quantile_bound(0.99)),
        }
    }

    /// Drives the calendar through the trait, as the runner does.
    fn run_calendar(cfg: ServiceConfig, stop: Cycle, cycles: Cycle) -> Seen {
        let mut w = ServiceWorkload::new(topo(), cfg);
        w.stop_at(stop);
        w.measure_from(WARMUP);
        let (mut net, mut ops, mut active) = (FakeNet::new(cfg.seed), Vec::new(), Vec::new());
        for now in 0..cycles {
            active.push(w.due(now, &mut ops));
            for op in ops.drain(..) {
                let CarpOp::Send(m) = op else {
                    panic!("{op:?}")
                };
                net.send(now, m);
            }
            for m in net.deliver(now) {
                w.delivered(&delivery(m, now), now);
            }
        }
        let rt = w.round_trips();
        Seen {
            sent: net.sent,
            active,
            counts: (
                w.requests_issued(),
                w.completed(),
                w.retired(),
                w.in_flight(),
            ),
            round_trips: (rt.count(), rt.mean().to_bits(), rt.quantile_bound(0.99)),
        }
    }

    #[test]
    fn calendar_sends_what_the_sweep_sent() {
        let e13 = ServiceConfig {
            clients: 2 * 16,
            locality: 0.5,
            think_time: 10,
            ramp: 0,
            seed: 161,
            ..ServiceConfig::default()
        };
        let cases = [
            ("e13: ramp 0", e13, 1_500),
            ("default ramp", ServiceConfig::default(), 1_500),
            (
                "fewer clients than nodes",
                ServiceConfig {
                    clients: 5,
                    think_time: 20,
                    ramp: 300,
                    seed: 3,
                    ..ServiceConfig::default()
                },
                1_500,
            ),
            (
                "clients not divisible by nodes",
                ServiceConfig {
                    clients: 37,
                    ramp: 250,
                    think_time: 40,
                    seed: 4,
                    ..ServiceConfig::default()
                },
                1_500,
            ),
            (
                "stop mid-ramp",
                ServiceConfig {
                    clients: 600,
                    ramp: 400,
                    seed: 5,
                    ..ServiceConfig::default()
                },
                150,
            ),
            // A zero service time puts a reply due at the cycle just past,
            // beside that cycle's starts and wake-ups: kinds go first.
            (
                "replies due a cycle back",
                ServiceConfig {
                    clients: 300,
                    ramp: 300,
                    service_time: 0,
                    think_time: 1,
                    seed: 6,
                    ..ServiceConfig::default()
                },
                600,
            ),
        ];
        for (name, cfg, stop) in cases {
            let want = run_sweep(cfg, stop, stop + 2_000);
            let got = run_calendar(cfg, stop, stop + 2_000);
            assert!(want.sent.len() > 100, "{name}: {} sends", want.sent.len());
            assert!(want.counts.2 > 0, "{name}: nobody retired");
            assert_eq!(got.sent, want.sent, "{name}: sends");
            assert_eq!(got, want, "{name}");
        }
    }
}
