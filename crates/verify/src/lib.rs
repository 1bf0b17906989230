//! # wavesim-verify — executable forms of the §4 theorems
//!
//! The paper proves four theorems: CLRP and CARP are deadlock-free
//! (Theorems 1–2) and livelock-free (Theorems 3–4). This crate turns those
//! claims into *checks that run against the simulator*:
//!
//! * **static** ([`cdg`]) — builds the channel dependency graph of the
//!   wormhole fall-back routing function and certifies it: the
//!   Dally–Seitz acyclicity condition for deterministic functions, Duato's
//!   escape condition for adaptive ones;
//! * **runtime deadlock** ([`deadlock`]) — [`check_fabric`] flags a
//!   busy-but-frozen wormhole plane and extracts the circular wait from
//!   its wait-for graph (a cycle under deterministic routing *is* a
//!   deadlock, not just a symptom); the watchdog's rule 4 is this check;
//! * **runtime livelock** ([`livelock`]) — checks every probe respects
//!   the finite step bound implied by the History Store + bounded
//!   misrouting argument of Theorems 3–4, and that runs deliver every
//!   accepted message (the paper's "every message will reach its
//!   destination in finite time").
//!
//! The structural cross-checks between lanes, circuits, probes and circuit
//! caches are core's own `WaveNetwork::audit`.
//!
//! Both graphs are edge lists of two-integer keys (`(link, vc)` in the
//! CDG, `(router, output VC)` in the fabric), and one search,
//! [`deadlock::find_wait_cycle`], finds their cycles.
//!
//! What the trace says is checked where it is counted: every event-counted
//! row of `WaveStats` is bumped by `WaveStats::count` on the event itself,
//! and the root suite's conservation test folds a run's capture into the
//! same counters and its live circuits and compares them with the network.
//!
//! The negative controls matter as much as the positive runs: the test
//! suite feeds the detectors a *known-broken* routing function
//! (`NaiveTorusDor`) and asserts they trip.

#![warn(missing_docs)]

pub mod cdg;
pub mod deadlock;
pub mod livelock;
pub mod progress;

pub use cdg::{check_deadlock_freedom, CdgReport, CheckMode};
pub use deadlock::{check_fabric, check_wave, wave_wait_edges, DeadlockReport};
pub use livelock::{check_probe_livelock, wave_measure, LivelockReport, ProgressMeasure};
pub use progress::ProgressMonitor;
