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
//!   in that form, replayed by `wavesim-bench`'s `run_dep_trace`;
//! * [`service`] — closed-loop request → service → reply traffic with
//!   O(active) bookkeeping: E13's DSM remote accesses (a few outstanding
//!   requests per node) and `run --service-clients` (millions of clients)
//!   are two configurations of it.

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
pub use deptrace::{DepMessage, DepTrace};
pub use faults::{FaultSchedule, FaultScheduleEvent};
pub use patterns::{pattern_pairs, TrafficPattern};
pub use service::{ServiceConfig, ServiceEvent, ServiceWorkload};
pub use traffic::{LengthDist, TrafficConfig, TrafficSource};
