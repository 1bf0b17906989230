//! # wavesim-verify — executable forms of the §4 theorems
//!
//! The paper proves four theorems: CLRP and CARP are deadlock-free
//! (Theorems 1–2) and livelock-free (Theorems 3–4). This crate turns those
//! claims into *checks that run against the simulator*:
//!
//! * **static** — [`wavesim_topology::cdg`] certifies the wormhole
//!   fall-back routing function (re-exported here for convenience): the
//!   Dally–Seitz acyclicity condition for deterministic functions, Duato's
//!   escape condition for adaptive ones;
//! * **runtime deadlock** ([`deadlock`]) — a progress monitor that flags a
//!   busy-but-frozen network, plus wait-for-graph cycle extraction over
//!   the wormhole plane (a cycle under deterministic routing *is* a
//!   deadlock, not just a symptom);
//! * **runtime livelock** ([`livelock`]) — checks every probe respects
//!   the finite step bound implied by the History Store + bounded
//!   misrouting argument of Theorems 3–4, and that runs deliver every
//!   accepted message (the paper's "every message will reach its
//!   destination in finite time");
//! * **invariants** ([`invariants`]) — structural cross-checks between
//!   lanes, circuits, probes, and circuit caches (`WaveNetwork::audit`).
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

pub mod deadlock;
pub mod invariants;
pub mod livelock;
pub mod progress;

pub use deadlock::{check_fabric, check_wave, DeadlockReport};
pub use invariants::audit_wave;
pub use livelock::{check_probe_livelock, wave_measure, LivelockReport, ProgressMeasure};
pub use progress::ProgressMonitor;

// Static checks, re-exported so downstream users need only this crate.
pub use wavesim_topology::cdg::{check_deadlock_freedom, CdgReport, CheckMode};
