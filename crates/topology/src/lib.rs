//! # wavesim-topology — network shapes and routing functions
//!
//! Substrate #2/#3 of the reproduction: the k-ary n-cube family the paper's
//! routers live in (low-dimensional **meshes** and **tori**, plus
//! **hypercubes** as the radix-2 special case) and the deadlock-free
//! wormhole routing functions the protocols fall back on:
//!
//! * dimension-order (e-cube) routing for meshes and hypercubes
//!   (Dally & Seitz, ref \[5\] of the paper);
//! * two-class "dateline" dimension-order routing for tori;
//! * Duato-style fully adaptive routing with an escape subnetwork
//!   (refs \[8, 9\]).
//!
//! The [`cdg`] module implements the classical machinery used in the
//! paper's §4 proofs as *executable checks*: it builds the channel
//! dependency graph of a routing function over a concrete topology and
//! verifies the Dally–Seitz acyclicity condition (deterministic functions)
//! or Duato's escape-channel condition (adaptive functions).

#![warn(missing_docs)]

pub mod cdg;
pub mod coords;
pub mod routing;
pub mod topo;

pub use coords::{Coords, Dir, MAX_DIMS};
pub use routing::{
    Candidate, DorMesh, DorTorus, DuatoAdaptive, NaiveTorusDor, RoutingKind, WormholeRouting,
};
pub use topo::{LinkId, NodeId, PortDir, PortSet, Topology, TopologyKind};
