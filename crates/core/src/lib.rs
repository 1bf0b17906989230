//! # wavesim-core — wave switching and its routing protocols
//!
//! The paper's contribution, implemented in full:
//!
//! * the **hybrid wave router** of Fig. 2 — a wormhole switch `S0`
//!   (provided by `wavesim-network`) plus `k` wave-pipelined circuit
//!   switches `S1..Sk` whose per-link *lanes* carry pre-established
//!   physical circuits at `clock_multiplier / channel_split` flits per
//!   base cycle ([`lanes`]);
//! * the **PCS routing control unit** of Fig. 3 — channel status, direct
//!   and reverse channel mappings, history store, and ack-returned
//!   registers ([`pcs`]);
//! * the **routing probe** of Fig. 4 and the misrouting-backtracking
//!   search protocol **MB-m** it executes ([`probe`]);
//! * the **circuit cache** of Fig. 5 with pluggable replacement
//!   algorithms ([`cache`], [`replacement`]);
//! * end-to-end **windowed circuit transfers** with acknowledgment-driven
//!   In-use release ([`circuit`]);
//! * the two protocols of §3 — **CLRP** (cache-like, three phases with the
//!   Force bit) and **CARP** (compiler-aided, explicit establish/teardown)
//!   — orchestrated per node by [`network::WaveNetwork`].
//!
//! The §4 theorems (deadlock and livelock freedom) are exercised
//! empirically by `wavesim-verify` and the E1/E2 experiments.

#![warn(missing_docs)]

pub mod arena;
pub mod cache;
pub mod circuit;
pub mod circuitplane;
pub mod config;
pub mod controlplane;
pub mod dataplane;
pub mod events;
pub mod ids;
pub mod lanes;
pub mod network;
pub mod pcs;
pub mod probe;
pub mod render;
pub mod replacement;
pub mod snapshot;
pub mod stats;

pub use arena::{ArenaId, GenSlab, IdAlloc, SlotMap};
pub use cache::{CacheEntry, CircuitCache, EntryState};
pub use circuit::{CircuitState, CircuitStatus, TransferPlan};
pub use circuitplane::{CircuitPlane, TransferEvent};
pub use config::{ClrpVariant, ProtocolKind, ReplacementPolicy, WaveConfig};
pub use controlplane::{ControlPlane, CtrlEvent};
pub use dataplane::DataPlane;
pub use events::{EventBus, PlaneEvent};
pub use ids::{CircuitId, LaneId, ProbeId};
pub use lanes::{LaneState, LaneTable};
pub use network::{FaultEvent, HealthSnapshot, WaveNetwork};
pub use probe::{ProbeBufs, ProbeFlit, ProbeState};
pub use snapshot::{CircuitSnap, LaneUse, NetSnapshot, ProbeSnap};
pub use stats::WaveStats;
