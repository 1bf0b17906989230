//! # wavesim-network — flit-level wormhole fabric
//!
//! Substrate #4 of the reproduction: the conventional wormhole-switched
//! network that forms switch `S0` of every wave router (paper Fig. 1/2).
//! The wave-switching protocols fall back on this fabric whenever a
//! circuit cannot be established (CLRP phase 3, CARP fallback), and the
//! paper's deadlock proofs lean on its routing algorithm being
//! deadlock-free — which `wavesim-verify`'s CDG check certifies and this crate
//! enforces structurally (packets only ever wait on virtual channels their
//! routing function offers).
//!
//! Model fidelity (matching the level of detail of 1990s interconnect
//! papers):
//!
//! * messages are wormholes: a head flit carrying the route, body flits,
//!   and a tail flit that releases channels behind it;
//! * each unidirectional physical link carries `w` virtual channels with
//!   private `buffer_depth`-flit input buffers and credit-based flow
//!   control (one-cycle link and credit latency);
//! * a router moves at most one flit per input port and per output port
//!   per cycle (crossbar constraint), with round-robin arbitration;
//! * heads pay a configurable `routing_delay` at every hop;
//! * delivery consumes one flit per cycle per node (single ejection
//!   channel) and is never refused — the sink-always-accepts assumption
//!   both the Dally–Seitz and Duato proofs require.
//!
//! One simplification relative to the paper is documented in DESIGN.md:
//! the `k` one-flit *control channels* that share physical bandwidth with
//! the data VCs in the real router are modelled as a separate narrow
//! control plane (in `wavesim-core`) that does not steal data-flit slots;
//! probe traffic is a negligible fraction of link bandwidth.

#![warn(missing_docs)]

pub mod fabric;
pub mod message;
mod router;

pub use fabric::{FabricStats, WormholeConfig, WormholeFabric};
pub use message::{Delivery, Flit, Message, MessageId};
