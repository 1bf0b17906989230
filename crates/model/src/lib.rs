//! # wavesim-model — machine-checking Theorems 1–4
//!
//! The paper *proves* that the wave-switching protocols are deadlock- and
//! livelock-free (Theorems 1–4); `wavesim-verify` *detects* violations at
//! runtime. This crate closes the gap with an exhaustive explicit-state
//! model checker over the code that runs — core's own
//! [`wavesim_core::WaveNetwork`], MB-m probes, CLRP's three phases, CARP
//! and the fault/RetryWait paths included — plus a schedule fuzzer for
//! configurations too big to enumerate. It has no protocol of its own.
//!
//! * [`spec`] — a scenario ([`ModelSpec`]): topology, the `WaveConfig`
//!   core runs under, messages, an optional lane fault and [`Mutation`];
//! * [`world`] — a state ([`World`]: a network fork plus the stimuli
//!   issued) and its moves ([`Move`]): any pending calendar event, fired
//!   through core's dispatch, or a stimulus a workload can issue;
//! * [`explore`] — BFS over full state keys with a resumable frontier;
//!   deadlock is a stuck state or a circular wait
//!   ([`wavesim_verify::deadlock::wave_wait_edges`]), livelock a lasso
//!   inside one layer of [`wavesim_verify::wave_measure`];
//! * [`mod@fuzz`] — random walks + fault churn with
//!   [`wavesim_core::WaveNetwork::audit`] after every move, and shrinking;
//! * [`replay`] — a counterexample's stimuli through a timed, un-mutated
//!   network, as a WSTRACE1 capture the trace tooling reads.
//!
//! What is abstracted: time (the explorer may fire any pending event), and
//! the wormhole fall-back, which every move runs to idle — sound because
//! the explorer re-certifies the fall-back routing function first. The
//! MB-m budget is the spec's: MB-0 unless `cfg.misroutes` says otherwise.

#![warn(missing_docs)]

pub mod explore;
pub mod fuzz;
pub mod replay;
pub mod spec;
pub mod world;

pub use explore::{check, CheckOutcome, Counterexample, Explorer, ViolationKind};
pub use fuzz::{fuzz, shrink, FuzzConfig, FuzzOutcome};
pub use replay::{replay_schedule, Replay};
pub use spec::{FaultSpec, ModelSpec, MAX_MSGS, MAX_NODES};
pub use wavesim_core::Mutation;
pub use world::{Move, World};
