//! Concrete k-ary n-cube topologies: meshes, tori, hypercubes.
//!
//! A topology maps between dense node ids and mixed-radix coordinates,
//! enumerates the unidirectional physical links, and answers the geometric
//! questions the routing layers ask: neighbours, minimal offsets, distances,
//! and torus dateline crossings.

use std::sync::Arc;

use crate::coords::{Coords, Dir, MAX_DIMS};

/// Dense node identifier (row-major mixed-radix index of the coordinates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An output port of a router: a dimension plus a travel direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortDir {
    /// Dimension index.
    pub dim: u8,
    /// Travel direction along that dimension.
    pub dir: Dir,
}

impl PortDir {
    /// Convenience constructor.
    #[inline]
    #[must_use]
    pub fn new(dim: usize, dir: Dir) -> Self {
        Self {
            dim: dim as u8,
            dir,
        }
    }

    /// Dense index of this port within a router: `dim * 2 + dir`.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.dim as usize * 2 + self.dir.index()
    }

    /// Inverse of [`PortDir::index`].
    #[inline]
    #[must_use]
    pub fn from_index(i: usize) -> Self {
        Self {
            dim: (i / 2) as u8,
            dir: Dir::from_index(i % 2),
        }
    }

    /// The port a flit arriving over this output enters at the neighbour
    /// (same dimension, opposite direction).
    #[inline]
    #[must_use]
    pub fn opposite(self) -> Self {
        Self {
            dim: self.dim,
            dir: self.dir.opposite(),
        }
    }
}

impl std::fmt::Display for PortDir {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sign = match self.dir {
            Dir::Plus => '+',
            Dir::Minus => '-',
        };
        write!(f, "X{}{}", self.dim, sign)
    }
}

/// A set of one router's output ports: a bitmask over [`PortDir::index`].
///
/// `Copy` and heap-free, so the per-hop routing paths can ask for a node's
/// ports without allocating. Iterates in ascending port index — lowest
/// dimension first, `Plus` before `Minus`.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct PortSet(u16);

// One bit per port index.
const _: () = assert!(2 * MAX_DIMS <= u16::BITS as usize);

impl PortSet {
    /// True when `port` is in the set.
    #[inline]
    #[must_use]
    pub fn contains(self, port: PortDir) -> bool {
        self.0 & (1 << port.index()) != 0
    }

    /// Adds `port`.
    #[inline]
    pub fn insert(&mut self, port: PortDir) {
        self.0 |= 1 << port.index();
    }

    /// The ports of `self` that are not in `other`.
    #[inline]
    #[must_use]
    pub fn difference(self, other: PortSet) -> PortSet {
        PortSet(self.0 & !other.0)
    }

    /// Number of ports in the set.
    #[inline]
    #[must_use]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True when the set holds no port.
    #[inline]
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The ports, in ascending port index.
    #[inline]
    #[must_use]
    pub fn iter(self) -> PortSetIter {
        PortSetIter(self.0)
    }

    /// The minimal-path ports of a node whose signed offsets to the
    /// destination are `offsets`, one per dimension (the paper's Fig. 4
    /// `X1-offset..Xn-offset`): `Plus` where the offset is positive,
    /// `Minus` where it is negative, none where it is zero.
    #[inline]
    #[must_use]
    pub fn from_offsets(offsets: &[i32]) -> PortSet {
        let mut set = PortSet::default();
        for (dim, &off) in offsets.iter().enumerate() {
            if off != 0 {
                let dir = if off > 0 { Dir::Plus } else { Dir::Minus };
                set.insert(PortDir::new(dim, dir));
            }
        }
        set
    }
}

/// Iterator over a [`PortSet`], in ascending port index.
#[derive(Debug, Clone)]
pub struct PortSetIter(u16);

impl Iterator for PortSetIter {
    type Item = PortDir;

    #[inline]
    fn next(&mut self) -> Option<PortDir> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(PortDir::from_index(i))
    }
}

impl IntoIterator for PortSet {
    type Item = PortDir;
    type IntoIter = PortSetIter;

    #[inline]
    fn into_iter(self) -> PortSetIter {
        self.iter()
    }
}

impl FromIterator<PortDir> for PortSet {
    fn from_iter<I: IntoIterator<Item = PortDir>>(ports: I) -> Self {
        let mut set = PortSet::default();
        for p in ports {
            set.insert(p);
        }
        set
    }
}

impl std::fmt::Debug for PortSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Dense identifier of a unidirectional physical link, derived from its
/// source node and output port: `node * 2·ndims + port.index()`.
///
/// Ids are allocated for *all* (node, port) slots; mesh boundary slots have
/// no link — check [`Topology::has_link`] before use. Dense ids let the
/// fabric index per-link state with flat vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// The shape family of a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// k-ary n-dimensional mesh (no wraparound links).
    Mesh,
    /// k-ary n-dimensional torus (wraparound links in every dimension).
    Torus,
}

/// Neighbour-table entry of a mesh boundary slot (no physical link).
const NO_LINK: u32 = u32::MAX;

/// A concrete k-ary n-cube topology.
///
/// A router's neighbours and coordinates are fixed by the shape, so they
/// are tabulated once at construction — neighbours one entry per (node,
/// port) slot in [`LinkId`] order, coordinates `ndims` entries per node —
/// and every neighbour, link or coordinate query is one load. The tables
/// are shared between clones.
#[derive(Clone)]
pub struct Topology {
    kind: TopologyKind,
    radices: Vec<u16>,
    strides: Vec<u32>,
    nodes: u32,
    neighbors: Arc<[u32]>,
    coords: Arc<[u16]>,
}

/// Prints the shape only — never the neighbour or coordinate table.
impl std::fmt::Debug for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Topology")
            .field("kind", &self.kind)
            .field("radices", &self.radices)
            .finish()
    }
}

/// Two topologies are equal when they have the same shape; everything else
/// is derived from it.
impl PartialEq for Topology {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind && self.radices == other.radices
    }
}

impl Eq for Topology {}

impl Topology {
    /// The most link slots (`nodes * 2 * dimensions`) a topology may have:
    /// the neighbour table is indexed with a `u32`.
    pub const MAX_LINK_SLOTS: u64 = u32::MAX as u64;

    fn build(kind: TopologyKind, radices: &[u16]) -> Self {
        assert!(!radices.is_empty(), "topology needs at least one dimension");
        assert!(
            radices.len() <= MAX_DIMS,
            "at most {MAX_DIMS} dimensions supported"
        );
        assert!(
            radices.iter().all(|&r| r >= 2),
            "every dimension needs radix >= 2"
        );
        if kind == TopologyKind::Torus {
            assert!(
                radices.iter().all(|&r| r >= 3),
                "torus radix must be >= 3 (radix-2 torus duplicates links; use a mesh/hypercube)"
            );
        }
        let mut strides = Vec::with_capacity(radices.len());
        let mut acc: u32 = 1;
        for &r in radices {
            strides.push(acc);
            acc = acc
                .checked_mul(u32::from(r))
                .expect("node count overflowed u32");
        }
        assert!(
            u64::from(acc) * 2 * radices.len() as u64 <= Self::MAX_LINK_SLOTS,
            "link slot count overflowed u32"
        );
        let (neighbors, coords) = Self::tables(kind, radices, &strides, acc);
        Self {
            kind,
            neighbors,
            coords,
            radices: radices.to_vec(),
            strides,
            nodes: acc,
        }
    }

    /// Tabulates every (node, port) slot and every node's coordinates in
    /// one odometer pass over the coordinates: no division, and each
    /// neighbour is its node id plus or minus a stride (or a wrap of
    /// `radix - 1` strides the other way).
    fn tables(
        kind: TopologyKind,
        radices: &[u16],
        strides: &[u32],
        nodes: u32,
    ) -> (Arc<[u32]>, Arc<[u16]>) {
        let torus = kind == TopologyKind::Torus;
        let ndims = radices.len();
        let mut table = Vec::with_capacity(nodes as usize * 2 * ndims);
        let mut coord_table = Vec::with_capacity(nodes as usize * ndims);
        let mut coords = [0u16; MAX_DIMS];
        for node in 0..nodes {
            coord_table.extend_from_slice(&coords[..ndims]);
            for (d, (&r, &stride)) in radices.iter().zip(strides).enumerate() {
                let wrap = u32::from(r - 1) * stride;
                let plus = if coords[d] + 1 < r {
                    node + stride
                } else if torus {
                    node - wrap
                } else {
                    NO_LINK
                };
                let minus = if coords[d] > 0 {
                    node - stride
                } else if torus {
                    node + wrap
                } else {
                    NO_LINK
                };
                table.extend([plus, minus]);
            }
            for (c, &r) in coords.iter_mut().zip(radices) {
                *c += 1;
                if *c < r {
                    break;
                }
                *c = 0;
            }
        }
        (table.into(), coord_table.into())
    }

    /// A k-ary n-dimensional mesh, e.g. `Topology::mesh(&\[8, 8\])`.
    #[must_use]
    pub fn mesh(radices: &[u16]) -> Self {
        Self::build(TopologyKind::Mesh, radices)
    }

    /// A k-ary n-dimensional torus, e.g. `Topology::torus(&\[8, 8\])`.
    #[must_use]
    pub fn torus(radices: &[u16]) -> Self {
        Self::build(TopologyKind::Torus, radices)
    }

    /// An n-dimensional hypercube (binary n-cube): the radix-2 mesh, where
    /// mesh and torus coincide.
    #[must_use]
    pub fn hypercube(ndims: usize) -> Self {
        Self::build(TopologyKind::Mesh, &vec![2u16; ndims])
    }

    /// The shape family.
    #[must_use]
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Number of dimensions.
    #[inline]
    #[must_use]
    pub fn ndims(&self) -> usize {
        self.radices.len()
    }

    /// Radix (nodes per ring/row) of dimension `dim`.
    #[must_use]
    pub fn radix(&self, dim: usize) -> u16 {
        self.radices[dim]
    }

    /// Total number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> u32 {
        self.nodes
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes).map(NodeId)
    }

    /// Coordinates of `node`.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn coords(&self, node: NodeId) -> Coords {
        assert!(node.0 < self.nodes, "node {node} out of range");
        let at = node.0 as usize * self.ndims();
        Coords::new(&self.coords[at..at + self.ndims()])
    }

    /// The coordinate of `node` along `dim` alone.
    #[inline]
    fn coord(&self, node: NodeId, dim: usize) -> u16 {
        assert!(node.0 < self.nodes, "node {node} out of range");
        self.coords[node.0 as usize * self.ndims() + dim]
    }

    /// Node id of `coords`.
    ///
    /// # Panics
    /// Panics if the dimension count mismatches or a coordinate exceeds its
    /// radix.
    #[must_use]
    pub fn node(&self, coords: Coords) -> NodeId {
        assert_eq!(coords.ndims(), self.ndims(), "dimension count mismatch");
        let mut id = 0u32;
        for (i, &c) in coords.as_slice().iter().enumerate() {
            assert!(
                c < self.radices[i],
                "coordinate {c} exceeds radix in dim {i}"
            );
            id += u32::from(c) * self.strides[i];
        }
        NodeId(id)
    }

    /// The neighbour of `node` across output port (`dim`, `dir`), or `None`
    /// at a mesh boundary.
    ///
    /// # Panics
    /// Panics if `node` or `port` is out of range.
    #[inline]
    #[must_use]
    pub fn neighbor(&self, node: NodeId, port: PortDir) -> Option<NodeId> {
        // An out-of-range port would alias another node's slot.
        assert!(port.index() < 2 * self.ndims(), "port {port} out of range");
        self.slot(self.link_id(node, port))
    }

    /// The neighbour-table entry of `link`: `None` on a boundary slot.
    #[inline]
    fn slot(&self, link: LinkId) -> Option<NodeId> {
        let n = self.neighbors[link.0 as usize];
        (n != NO_LINK).then_some(NodeId(n))
    }

    /// Number of (node, port) link *slots*, valid or not: `nodes · 2·ndims`.
    #[must_use]
    pub fn num_link_slots(&self) -> usize {
        self.nodes as usize * 2 * self.ndims()
    }

    /// Dense id of the link leaving `node` through `port` (which may be a
    /// boundary slot with no physical link — see [`Topology::has_link`]).
    #[inline]
    #[must_use]
    pub fn link_id(&self, node: NodeId, port: PortDir) -> LinkId {
        LinkId(node.0 * (2 * self.ndims() as u32) + port.index() as u32)
    }

    /// Source node and output port of `link`.
    #[inline]
    #[must_use]
    pub fn link_endpoints(&self, link: LinkId) -> (NodeId, PortDir) {
        let ports = 2 * self.ndims() as u32;
        (
            NodeId(link.0 / ports),
            PortDir::from_index((link.0 % ports) as usize),
        )
    }

    /// True when the (node, port) slot behind `link` has a physical link.
    /// Total over all link ids: out-of-range ids (from a fault plan built
    /// for a bigger network, say) are simply `false`, not a panic.
    #[must_use]
    pub fn has_link(&self, link: LinkId) -> bool {
        self.neighbors
            .get(link.0 as usize)
            .is_some_and(|&n| n != NO_LINK)
    }

    /// Destination node of `link`.
    ///
    /// # Panics
    /// Panics if the link slot is a mesh boundary (no physical link).
    #[inline]
    #[must_use]
    pub fn link_dest(&self, link: LinkId) -> NodeId {
        self.slot(link)
            .expect("link_dest called on a boundary slot")
    }

    /// Iterates over all *valid* unidirectional links.
    pub fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.num_link_slots() as u32)
            .map(LinkId)
            .filter(|&l| self.has_link(l))
    }

    /// Reverse link of `link` (same physical wire pair, opposite direction).
    ///
    /// # Panics
    /// Panics on a boundary slot.
    #[must_use]
    pub fn reverse_link(&self, link: LinkId) -> LinkId {
        let dest = self
            .slot(link)
            .expect("reverse_link called on a boundary slot");
        let (_, port) = self.link_endpoints(link);
        self.link_id(dest, port.opposite())
    }

    /// Signed minimal offset along `dim` from `from` to `to`:
    /// positive ⇒ travel `Plus`, negative ⇒ travel `Minus`. On a torus the
    /// shorter way around is chosen; an exact tie resolves to `Plus`.
    #[inline]
    #[must_use]
    pub fn offset(&self, from: NodeId, to: NodeId, dim: usize) -> i32 {
        let fc = i32::from(self.coord(from, dim));
        let tc = i32::from(self.coord(to, dim));
        let diff = tc - fc;
        match self.kind {
            TopologyKind::Mesh => diff,
            TopologyKind::Torus => {
                let r = i32::from(self.radices[dim]);
                // |diff| < r, so one add is `diff mod r`: hops going Plus.
                let fwd = if diff < 0 { diff + r } else { diff };
                let bwd = r - fwd; // hops going Minus (when fwd != 0)
                if fwd == 0 {
                    0
                } else if fwd <= bwd {
                    fwd
                } else {
                    -bwd
                }
            }
        }
    }

    /// Minimal-path hop distance between two nodes.
    #[must_use]
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        (0..self.ndims())
            .map(|d| self.offset(a, b, d).unsigned_abs())
            .sum()
    }

    /// Output ports on a minimal path from `from` toward `to`, lowest
    /// dimension first. Empty iff `from == to`.
    #[must_use]
    pub fn min_ports(&self, from: NodeId, to: NodeId) -> PortSet {
        let mut offsets = [0; MAX_DIMS];
        let offsets = &mut offsets[..self.ndims()];
        for (dim, off) in offsets.iter_mut().enumerate() {
            *off = self.offset(from, to, dim);
        }
        PortSet::from_offsets(offsets)
    }

    /// All output ports of a node that have a physical link.
    #[inline]
    #[must_use]
    pub fn ports_of(&self, node: NodeId) -> PortSet {
        (0..2 * self.ndims())
            .map(PortDir::from_index)
            .filter(|&p| self.neighbor(node, p).is_some())
            .collect()
    }

    /// True when travelling from `node` in `port`'s direction toward the
    /// (minimal-path) destination coordinate still has to cross the torus
    /// dateline (the wrap link of that dimension). Used by the dateline
    /// VC-class assignment; always `false` on meshes.
    #[must_use]
    pub fn crosses_dateline(&self, node: NodeId, dest: NodeId, port: PortDir) -> bool {
        if self.kind == TopologyKind::Mesh {
            return false;
        }
        let dim = port.dim as usize;
        let c = self.coord(node, dim);
        let d = self.coord(dest, dim);
        match port.dir {
            Dir::Plus => c > d,
            Dir::Minus => c < d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The arithmetic coordinates the table replaced: one division and one
    /// remainder per dimension. Kept as the reference the table is checked
    /// against.
    fn coords_reference(t: &Topology, node: NodeId) -> Coords {
        let mut rem = node.0;
        let mut vals = [0u16; MAX_DIMS];
        for (i, &r) in t.radices.iter().enumerate() {
            vals[i] = (rem % u32::from(r)) as u16;
            rem /= u32::from(r);
        }
        Coords::new(&vals[..t.ndims()])
    }

    /// The `rem_euclid` offset the division-free one replaced.
    fn offset_reference(t: &Topology, from: NodeId, to: NodeId, dim: usize) -> i32 {
        let fc = i32::from(coords_reference(t, from).get(dim));
        let tc = i32::from(coords_reference(t, to).get(dim));
        let diff = tc - fc;
        match t.kind() {
            TopologyKind::Mesh => diff,
            TopologyKind::Torus => {
                let r = i32::from(t.radix(dim));
                let fwd = diff.rem_euclid(r);
                let bwd = r - fwd;
                if fwd == 0 {
                    0
                } else if fwd <= bwd {
                    fwd
                } else {
                    -bwd
                }
            }
        }
    }

    /// The arithmetic neighbour the table replaced: decompose, step one
    /// coordinate, recompose. Kept as the reference the table is checked
    /// against.
    fn neighbor_reference(t: &Topology, node: NodeId, port: PortDir) -> Option<NodeId> {
        let c = coords_reference(t, node);
        let dim = port.dim as usize;
        let r = t.radix(dim);
        let cur = c.get(dim);
        let next = match (port.dir, t.kind()) {
            (Dir::Plus, TopologyKind::Mesh) => {
                if cur + 1 >= r {
                    return None;
                }
                cur + 1
            }
            (Dir::Minus, TopologyKind::Mesh) => {
                if cur == 0 {
                    return None;
                }
                cur - 1
            }
            (Dir::Plus, TopologyKind::Torus) => (cur + 1) % r,
            (Dir::Minus, TopologyKind::Torus) => (cur + r - 1) % r,
        };
        let mut nc = c;
        nc.set(dim, next);
        Some(t.node(nc))
    }

    /// The shapes the tables are checked on: a 1-D mesh, a mixed-radix 3-D
    /// torus, a 2×7 mesh, a 6-cube and an 8-D radix-2 mesh.
    fn reference_shapes() -> [Topology; 5] {
        [
            Topology::mesh(&[9]),
            Topology::torus(&[3, 5, 4]),
            Topology::mesh(&[2, 7]),
            Topology::hypercube(6),
            Topology::mesh(&[2; MAX_DIMS]),
        ]
    }

    #[test]
    fn coordinate_table_agrees_with_the_arithmetic_reference() {
        for t in reference_shapes() {
            for node in t.nodes() {
                let want = coords_reference(&t, node);
                assert_eq!(t.coords(node), want, "{t:?} {node}");
                for dim in 0..t.ndims() {
                    assert_eq!(t.coord(node, dim), want.get(dim), "{t:?} {node} {dim}");
                }
            }
        }
    }

    #[test]
    fn division_free_offset_agrees_with_rem_euclid() {
        for t in [
            Topology::torus(&[5, 7]),
            Topology::torus(&[3, 4, 5]),
            Topology::mesh(&[4, 4]),
        ] {
            for from in t.nodes() {
                for to in t.nodes() {
                    for dim in 0..t.ndims() {
                        assert_eq!(
                            t.offset(from, to, dim),
                            offset_reference(&t, from, to, dim),
                            "{t:?} {from} {to} {dim}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coords_rejects_a_node_past_the_table() {
        let t = Topology::torus(&[3, 4]);
        let _ = t.coords(NodeId(t.num_nodes()));
    }

    #[test]
    fn neighbor_table_agrees_with_the_arithmetic_reference() {
        for t in reference_shapes() {
            for node in t.nodes() {
                for port in (0..2 * t.ndims()).map(PortDir::from_index) {
                    let want = neighbor_reference(&t, node, port);
                    let link = t.link_id(node, port);
                    assert_eq!(t.neighbor(node, port), want, "{t:?} {node} {port}");
                    assert_eq!(t.has_link(link), want.is_some(), "{t:?} {node} {port}");
                    assert_eq!(t.ports_of(node).contains(port), want.is_some());
                    if let Some(dest) = want {
                        assert_eq!(t.link_dest(link), dest);
                        assert_eq!(t.reverse_link(link), t.link_id(dest, port.opposite()));
                    }
                }
            }
        }
    }

    #[test]
    fn has_link_is_total_past_the_last_slot() {
        for t in [Topology::mesh(&[4, 4]), Topology::torus(&[4, 4])] {
            let slots = t.num_link_slots() as u32;
            for id in [slots, slots + 1, 10 * slots, u32::MAX - 1, u32::MAX] {
                assert!(!t.has_link(LinkId(id)), "{t:?}: link {id}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn neighbor_rejects_a_port_of_a_missing_dimension() {
        let _ = Topology::mesh(&[4, 4]).neighbor(NodeId(0), PortDir::new(2, Dir::Plus));
    }

    #[test]
    fn debug_and_equality_see_the_shape_only() {
        let t = Topology::torus(&[4, 6]);
        assert_eq!(
            format!("{t:?}"),
            "Topology { kind: Torus, radices: [4, 6] }"
        );
        assert_eq!(t, Topology::torus(&[4, 6]));
        assert_eq!(t, t.clone());
        assert_ne!(t, Topology::mesh(&[4, 6]));
        assert_ne!(t, Topology::torus(&[6, 4]));
    }

    #[test]
    fn port_set_iterates_in_port_index_order() {
        let (a, b, c) = (
            PortDir::new(0, Dir::Minus),
            PortDir::new(2, Dir::Plus),
            PortDir::new(MAX_DIMS - 1, Dir::Minus),
        );
        let set = PortSet::from_iter([c, a, b]);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![a, b, c]);
        assert_eq!(set.len(), 3);
        assert!(set.contains(b) && !set.contains(b.opposite()));
        let rest = set.difference(PortSet::from_iter([b]));
        assert_eq!(rest.into_iter().collect::<Vec<_>>(), vec![a, c]);
        assert!(PortSet::default().is_empty() && !rest.is_empty());
    }

    #[test]
    fn mesh_coords_roundtrip() {
        let t = Topology::mesh(&[4, 3, 2]);
        assert_eq!(t.num_nodes(), 24);
        for n in t.nodes() {
            assert_eq!(t.node(t.coords(n)), n);
        }
        assert_eq!(t.coords(NodeId(0)).as_slice(), &[0, 0, 0]);
        assert_eq!(t.coords(NodeId(1)).as_slice(), &[1, 0, 0]);
        assert_eq!(t.coords(NodeId(4)).as_slice(), &[0, 1, 0]);
        assert_eq!(t.coords(NodeId(12)).as_slice(), &[0, 0, 1]);
    }

    #[test]
    fn mesh_boundary_has_no_neighbor() {
        let t = Topology::mesh(&[4, 4]);
        let corner = t.node(Coords::new(&[0, 0]));
        assert!(t.neighbor(corner, PortDir::new(0, Dir::Minus)).is_none());
        assert!(t.neighbor(corner, PortDir::new(1, Dir::Minus)).is_none());
        assert_eq!(
            t.neighbor(corner, PortDir::new(0, Dir::Plus)),
            Some(t.node(Coords::new(&[1, 0])))
        );
    }

    #[test]
    fn torus_wraps() {
        let t = Topology::torus(&[4, 4]);
        let edge = t.node(Coords::new(&[3, 2]));
        assert_eq!(
            t.neighbor(edge, PortDir::new(0, Dir::Plus)),
            Some(t.node(Coords::new(&[0, 2])))
        );
        let zero = t.node(Coords::new(&[0, 0]));
        assert_eq!(
            t.neighbor(zero, PortDir::new(1, Dir::Minus)),
            Some(t.node(Coords::new(&[0, 3])))
        );
    }

    #[test]
    fn link_count_mesh_vs_torus() {
        let mesh = Topology::mesh(&[4, 4]);
        // 2D 4x4 mesh: per dim 3*4 bidirectional = 24 bidir total = 48 unidir.
        assert_eq!(mesh.links().count(), 48);
        let torus = Topology::torus(&[4, 4]);
        // Torus: every slot valid: 16 nodes * 4 ports = 64 unidir links.
        assert_eq!(torus.links().count(), 64);
        assert_eq!(torus.num_link_slots(), 64);
    }

    #[test]
    fn link_id_roundtrip_and_reverse() {
        let t = Topology::torus(&[4, 4]);
        for l in t.links() {
            let (n, p) = t.link_endpoints(l);
            assert_eq!(t.link_id(n, p), l);
            let r = t.reverse_link(l);
            assert_eq!(t.reverse_link(r), l, "reverse is an involution");
            assert_eq!(t.link_dest(r), n, "reverse link returns to source");
        }
    }

    #[test]
    fn mesh_offsets_are_plain_differences() {
        let t = Topology::mesh(&[8, 8]);
        let a = t.node(Coords::new(&[1, 6]));
        let b = t.node(Coords::new(&[5, 2]));
        assert_eq!(t.offset(a, b, 0), 4);
        assert_eq!(t.offset(a, b, 1), -4);
        assert_eq!(t.distance(a, b), 8);
    }

    #[test]
    fn torus_offsets_take_short_way() {
        let t = Topology::torus(&[8, 8]);
        let a = t.node(Coords::new(&[1, 1]));
        let b = t.node(Coords::new(&[7, 1]));
        assert_eq!(t.offset(a, b, 0), -2, "wrap via 0 is shorter");
        assert_eq!(t.distance(a, b), 2);
        // Exact tie (offset 4 on radix 8) resolves to Plus.
        let c = t.node(Coords::new(&[5, 1]));
        assert_eq!(t.offset(a, c, 0), 4);
    }

    #[test]
    fn min_ports_empty_at_destination() {
        let t = Topology::mesh(&[4, 4]);
        let n = NodeId(5);
        assert!(t.min_ports(n, n).is_empty());
        let m = NodeId(6);
        assert_eq!(
            t.min_ports(n, m),
            PortSet::from_iter([PortDir::new(0, Dir::Plus)])
        );
    }

    #[test]
    fn hypercube_is_radix2_mesh() {
        let h = Topology::hypercube(4);
        assert_eq!(h.num_nodes(), 16);
        assert_eq!(h.ndims(), 4);
        // Every node has exactly 4 neighbours, one per dimension.
        for n in h.nodes() {
            assert_eq!(h.ports_of(n).len(), 4);
        }
        // Distance equals Hamming distance of ids.
        for a in h.nodes() {
            for b in h.nodes() {
                assert_eq!(h.distance(a, b), (a.0 ^ b.0).count_ones());
            }
        }
    }

    #[test]
    fn dateline_detection() {
        let t = Topology::torus(&[8, 8]);
        let a = t.node(Coords::new(&[6, 0]));
        let b = t.node(Coords::new(&[1, 0]));
        // 6 -> 1 going Plus wraps through 7 -> 0.
        assert!(t.crosses_dateline(a, b, PortDir::new(0, Dir::Plus)));
        // 1 -> 6 going Minus wraps through 0 -> 7.
        assert!(t.crosses_dateline(b, a, PortDir::new(0, Dir::Minus)));
        // 1 -> 6 going Plus does not wrap.
        assert!(!t.crosses_dateline(b, a, PortDir::new(0, Dir::Plus)));
        let mesh = Topology::mesh(&[8, 8]);
        assert!(!mesh.crosses_dateline(NodeId(0), NodeId(7), PortDir::new(0, Dir::Plus)));
    }

    #[test]
    #[should_panic(expected = "radix must be >= 3")]
    fn radix2_torus_rejected() {
        let _ = Topology::torus(&[2, 4]);
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn empty_topology_rejected() {
        let _ = Topology::mesh(&[]);
    }

    #[test]
    fn ports_of_interior_and_corner() {
        let t = Topology::mesh(&[4, 4]);
        let interior = t.node(Coords::new(&[2, 2]));
        assert_eq!(t.ports_of(interior).len(), 4);
        let corner = t.node(Coords::new(&[0, 0]));
        assert_eq!(t.ports_of(corner).len(), 2);
    }
}
