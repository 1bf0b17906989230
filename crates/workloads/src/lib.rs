//! # wavesim-workloads — traffic for wave-switched networks
//!
//! Substrate #11: synthetic workload generators standing in for the
//! application traces the paper's era used (none survive; DESIGN.md
//! documents the substitution). Six families:
//!
//! * [`patterns`] — the classical spatial patterns of the interconnect
//!   literature (uniform, transpose, bit-reversal, bit-complement,
//!   hotspot, nearest-neighbour) plus a **hot-pairs** pattern whose
//!   `locality` knob dials the temporal communication locality that wave
//!   switching exploits (§1: "in many cases, this locality is not only
//!   spatial but also temporal");
//! * [`traffic`] — an open-loop Bernoulli injection process per node with
//!   configurable offered load and message-length distribution;
//! * [`carp`] — instruction traces for the Compiler-Aided Routing
//!   Protocol: timed `ESTABLISH` / `SEND` / `TEARDOWN` op streams shaped
//!   like the phased communication of stencil and pairwise-exchange
//!   kernels (the "compiler" of §3.2, modelled as a trace generator);
//! * [`faults`] — timed fail/repair schedules: cycle-0 lane faults for
//!   the E7/E8 static experiments, mid-run churn for E14;
//! * [`deptrace`] / [`collectives`] — dependency-aware message traces
//!   (release gated on upstream deliveries) and the classic collectives
//!   (all-to-all, reduce/broadcast trees, phased pattern sweeps) emitted
//!   in that form, replayed by [`DepReplay`];
//! * [`service`] — closed-loop request → service → reply traffic with
//!   O(active) bookkeeping: E13's DSM remote accesses (a few outstanding
//!   requests per node) and `run --service-clients` (millions of clients)
//!   are two configurations of it.
//!
//! Each family owns its timing behind one trait, [`Workload`]: which
//! [`CarpOp`]s are due at a cycle, and what a delivery triggers (a reply,
//! a dependent's release). `wavesim-bench`'s one driver applies the ops
//! and hands the deliveries back; it knows nothing of any family.

#![warn(missing_docs)]

pub mod carp;
pub mod collectives;
pub mod deptrace;
pub mod faults;
pub mod patterns;
pub mod service;
pub mod trace_io;
pub mod traffic;

pub use carp::{CarpOp, CarpTrace, PairwiseSpec};
pub use deptrace::{DepReplay, DepTrace, DepTraceBuilder};
pub use faults::{FaultSchedule, FaultScheduleEvent};
pub use patterns::{pattern_pairs, PartnerTable, TrafficPattern};
pub use service::{ServiceConfig, ServiceWorkload};
pub use traffic::{LengthDist, TrafficConfig, TrafficSource};

use wavesim_network::Delivery;
use wavesim_sim::Cycle;

/// A source of network inputs that owns its own timing.
pub trait Workload {
    /// Appends the ops due at `now` to `out` (call once per cycle, with
    /// non-decreasing `now`). Returns `false` once the source phase is
    /// over: nothing more comes due unless a delivery triggers it.
    fn due(&mut self, now: Cycle, out: &mut Vec<CarpOp>) -> bool;

    /// The network delivered `d` at cycle `now`. A delivery the workload
    /// did not issue is ignored.
    fn delivered(&mut self, _d: &Delivery, _now: Cycle) {}
}

#[cfg(test)]
mod fake_net {
    use std::collections::BTreeMap;

    use wavesim_network::message::DeliveryMode;
    use wavesim_network::{Delivery, Message};
    use wavesim_sim::{Cycle, SimRng};
    use wavesim_topology::NodeId;

    /// A network that delivers each message a seeded random 1..=40 cycles
    /// after it was sent, and remembers what was sent.
    pub struct FakeNet {
        rng: SimRng,
        /// `(delivery cycle, send order)` → message.
        flying: BTreeMap<(Cycle, u64), Message>,
        /// `(send cycle, id, src, dest, len, created_at)` of every send.
        pub sent: Vec<(Cycle, u64, NodeId, NodeId, u32, Cycle)>,
    }

    impl FakeNet {
        pub fn new(seed: u64) -> Self {
            Self {
                rng: SimRng::new(seed),
                flying: BTreeMap::new(),
                sent: Vec::new(),
            }
        }

        pub fn send(&mut self, now: Cycle, m: Message) {
            let at = now + 1 + self.rng.below(40);
            self.flying.insert((at, self.sent.len() as u64), m);
            self.sent
                .push((now, m.id.0, m.src, m.dest, m.len_flits, m.created_at));
        }

        /// The messages delivered at `now`, in send order.
        pub fn deliver(&mut self, now: Cycle) -> Vec<Message> {
            let later = self.flying.split_off(&(now + 1, 0));
            std::mem::replace(&mut self.flying, later)
                .into_values()
                .collect()
        }

        pub fn is_empty(&self) -> bool {
            self.flying.is_empty()
        }
    }

    /// `msg` delivered at `at`.
    pub fn delivery(msg: Message, at: Cycle) -> Delivery {
        Delivery {
            msg,
            delivered_at: at,
            mode: DeliveryMode::Wormhole,
        }
    }
}
