//! # wavesim-sim — simulation kernel
//!
//! The foundation substrate for the wave-switching reproduction: a small,
//! deterministic discrete-event simulation kernel tailored to cycle-accurate
//! interconnection-network models.
//!
//! The IPPS'97 paper (and its companion ICPP'96 architecture paper) evaluate
//! everything by simulation, but no simulator survives from that era and no
//! open-source NoC simulator ecosystem exists in Rust, so this crate builds
//! one from scratch. It provides:
//!
//! * [`EventQueue`] — a time-ordered event calendar with FIFO tie-breaking,
//!   the core of any DES kernel;
//! * [`Model`] — the hybrid cycle/event contract: models that are "hot"
//!   tick every cycle, idle models fast-forward to the next scheduled event;
//! * [`SimRng`] — a seedable, splittable deterministic random source so that
//!   every experiment is exactly reproducible from its seed;
//! * [`stats`] — cycle-kernel work counters, histograms, Welford
//!   mean/variance accumulators, warm-up gates and throughput meters.
//!
//! Everything upstream (topology, wormhole fabric, wave router, CLRP/CARP)
//! composes these pieces; nothing in this crate knows about networks.

#![warn(missing_docs)]

pub mod bitset;
pub mod event;
pub mod model;
pub mod rng;
pub mod stats;
pub mod time;

pub use bitset::BitSet;
pub use event::{EventQueue, ScheduledEvent};
pub use model::Model;
pub use rng::SimRng;
pub use stats::CycleKernelStats;
pub use time::Cycle;
