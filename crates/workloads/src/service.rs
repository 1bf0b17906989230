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
//! * in-flight requests live in a map keyed by message id (size = actual
//!   in-flight, which the closed loop bounds);
//! * thinking clients aggregate into `(wake_cycle, node) → count`
//!   buckets — with a fixed think time, all clients of a node whose
//!   replies land in the same cycle share one bucket.
//!
//! Per-tenant attribution needs no extra machinery: every request keeps
//! its client's `(src, dst)` pair, so `analyze::flows`' keying breaks a
//! traced service run down by tenant for free.
//!
//! The driving loop lives in `wavesim-bench::runner::run_service`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use wavesim_network::Message;
use wavesim_sim::{Cycle, SimRng};
use wavesim_topology::{NodeId, Topology};

use crate::patterns::{pick_partner, PartnerTable};

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

#[derive(Debug, Clone, Copy)]
struct PendingReq {
    client: NodeId,
    issued_at: Cycle,
}

/// What a delivery meant to the workload.
#[derive(Debug, Clone)]
pub enum ServiceEvent {
    /// A request reached its server: send this reply at the given cycle.
    Reply(Cycle, Message),
    /// A reply reached its client: round trip complete.
    Done {
        /// Cycle the request was issued (for round-trip accounting).
        issued_at: Cycle,
    },
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
    pub fn stop_at(&mut self, cycle: Cycle) {
        self.stop_at = cycle;
    }

    /// Requests to inject at cycle `now` (call once per cycle with
    /// non-decreasing `now`): newly-ramped clients plus clients whose
    /// think time elapsed. From the stop cycle on, waking clients retire
    /// instead of re-issuing.
    pub fn poll(&mut self, now: Cycle) -> Vec<Message> {
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
    pub fn on_delivered(&mut self, msg_id: u64, dest: NodeId, now: Cycle) -> ServiceEvent {
        let entry = self
            .pending
            .remove(&msg_id)
            .expect("delivery of a message this workload never issued");
        if msg_id & REPLY_BIT == 0 {
            let reply_id = msg_id | REPLY_BIT;
            let send_at = now + self.cfg.service_time;
            self.pending.insert(reply_id, entry);
            ServiceEvent::Reply(
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
            ServiceEvent::Done {
                issued_at: entry.issued_at,
            }
        }
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
        self.pending.len() as u64
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

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::mesh(&[4, 4])
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
        let first = w.poll(0);
        assert!(
            !first.is_empty() && first.len() < 160,
            "ramp spreads the start burst: {} at cycle 0",
            first.len()
        );
        let mut total = first.len();
        for now in 1..100 {
            total += w.poll(now).len();
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
        let reqs = w.poll(0);
        for node in 0..16 {
            let from = reqs.iter().filter(|m| m.src == NodeId(node)).count();
            assert_eq!(from, 2, "node {node} fills its two slots");
        }
        assert!(w.poll(1).is_empty());
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
        for m in w.poll(0) {
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
        let reqs = w.poll(0);
        assert_eq!(reqs.len(), 1);
        let r = reqs[0];
        let ServiceEvent::Reply(send_at, reply) = w.on_delivered(r.id.0, r.dest, 10) else {
            panic!("request delivery yields a reply");
        };
        assert_eq!(send_at, 17, "service time honoured");
        assert_eq!((reply.src, reply.dest), (r.dest, r.src));
        assert_eq!(reply.len_flits, 64);
        assert_ne!(reply.id.0 & REPLY_BIT, 0);
        let ServiceEvent::Done { issued_at } = w.on_delivered(reply.id.0, reply.dest, 25) else {
            panic!("reply delivery completes the round trip");
        };
        assert_eq!(issued_at, 0);
        assert_eq!((w.completed(), w.thinking()), (1, 1));
        // Nothing before the wake cycle, one request at it.
        assert!(w.poll(54).is_empty());
        let again = w.poll(55);
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
        let reqs = w.poll(0);
        for r in &reqs {
            let ServiceEvent::Reply(_, reply) = w.on_delivered(r.id.0, r.dest, 10) else {
                panic!()
            };
            let ServiceEvent::Done { .. } = w.on_delivered(reply.id.0, reply.dest, 60) else {
                panic!()
            };
        }
        // Wakes land at 65, after stop_at: all four retire, none re-issue.
        assert!(w.poll(65).is_empty());
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
        assert!(never.poll(0).is_empty());
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
        // every 8 cycles.
        let first = w.poll(0);
        assert_eq!(first.len(), 16);
        for now in 1..8 {
            assert!(w.poll(now).is_empty());
        }
        assert_eq!(w.poll(8).len(), 16);
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
            assert_eq!(a.poll(now), b.poll(now));
        }
    }
}
