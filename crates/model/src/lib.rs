//! # wavesim-model — machine-checking Theorems 1–4
//!
//! The paper *proves* that the wave-switching protocols are deadlock- and
//! livelock-free (Theorems 1–4); `wavesim-verify` *detects* violations at
//! runtime. This crate closes the gap with an exhaustive explicit-state
//! model checker over the protocol automata — probe/MB backtracking, the
//! CLRP three-phase handshake (Force victim chains, the §4 no-wait rule,
//! concurrent-release discards), CARP establish/teardown, and the
//! fault/RetryWait paths — plus an adversarial schedule fuzzer for
//! configurations too big to enumerate.
//!
//! The pieces:
//!
//! * [`spec`] — a scenario description ([`ModelSpec`]: topology, protocol,
//!   message set, optional lane fault) compiled to a dense lane index
//!   ([`ModelCtx`]), and the deliberate *mutations* that re-introduce
//!   known-unsafe behavior so the checker can prove it is not vacuous;
//! * [`state`] — the canonicalized, hashable [`ModelState`] abstracted
//!   from core's lane/circuit/probe state;
//! * [`step`] — the transition enumerator: every enabled protocol or
//!   fabric [`Action`] per state, and its deterministic application;
//! * [`explore`] — BFS with a seen-set and a resumable frontier
//!   (checkpointing), stuck-state deadlock detection cross-checked against
//!   [`wavesim_verify::deadlock::find_wait_cycle`], and lasso livelock
//!   search over the shared [`wavesim_verify::ProgressMeasure`];
//! * [`mod@fuzz`] — random interleavings + fault churn with delta-debugging
//!   shrinking on violation;
//! * [`replay`] — counterexample schedules replayed through the real
//!   [`wavesim_core::WaveNetwork`], emitted as JSONL / WSTRACE1 traces
//!   that `wavesim analyze`, `validate-trace`, and Perfetto accept.
//!
//! The abstraction is deliberately coarser than the simulator: one
//! atomic action per protocol step, no misrouting budget (MB-0), and the
//! wormhole fall-back plane modeled as a reliable delivery oracle — sound
//! for the safety/liveness properties here because the fall-back routing
//! function is certified deadlock-free separately (the explorer re-checks
//! that certificate before trusting the oracle).

#![warn(missing_docs)]

pub mod explore;
pub mod fuzz;
pub mod replay;
pub mod spec;
pub mod state;
pub mod step;

pub use explore::{check, CheckOutcome, Counterexample, Explorer, ViolationKind};
pub use fuzz::{fuzz, shrink, FuzzConfig, FuzzOutcome};
pub use replay::{replay_schedule, Replay};
pub use spec::{FaultSpec, ModelCtx, ModelProtocol, ModelSpec, Mutation, MAX_MSGS, MAX_NODES};
pub use state::{CircSt, LaneSt, ModelState, Phase, ProbeSt};
pub use step::Action;
