//! Collective communication patterns as dependency traces.
//!
//! The classic collectives of the message-passing literature, emitted as
//! [`DepTrace`]s so they replay through [`crate::DepReplay`] and self-pace
//! on the network under test:
//!
//! * [`all_to_all`] — every node exchanges one message with every other
//!   node, in `n - 1` shifted rounds (node `i` targets `(i + r) mod n` in
//!   round `r`); each node's round `r` send depends on its own round
//!   `r - 1` send having been delivered, so rounds pipeline per node
//!   instead of firing as one burst;
//! * [`reduce`] — a binomial reduction tree toward `root`: each non-root
//!   rank sends one partial result to its tree parent, and an inner
//!   node's send depends on **all** of its children's messages (it cannot
//!   combine what has not arrived);
//! * [`broadcast`] — the reverse: the root's subtree forwards depend on
//!   the incoming parent message;
//! * [`pattern_sweep`] — a phased spatial-pattern collective (transpose /
//!   bit-reversal / hotspot / …): every node sends one message per phase,
//!   with phase `p + 1` gated on the node's phase-`p` delivery. Silent
//!   pattern sources are remapped deterministically
//!   ([`TrafficPattern::dest_or_remap`]) — a phased collective with
//!   silent members would stall its own later phases.
//!
//! All generators are deterministic in their arguments, use dense message
//! ids (so traces merge by offsetting), and return validated traces. Each
//! sizes a [`DepTraceBuilder`] up front and pushes every message with its
//! dependency ids, so a trace costs a fixed handful of allocations however
//! many nodes it spans: no list per message, none per tree node.

use wavesim_network::Message;
use wavesim_sim::SimRng;
use wavesim_topology::{NodeId, Topology};

use crate::deptrace::{DepTrace, DepTraceBuilder};
use crate::patterns::{PartnerTable, TrafficPattern};

/// Binomial-tree parent of a non-zero rank: clear the lowest set bit.
/// Every rank's parent is a smaller rank, so the tree is well-formed for
/// any node count (not just powers of two).
fn parent_rank(rank: u32) -> u32 {
    debug_assert!(rank > 0);
    rank & (rank - 1)
}

/// Binomial-tree children of a non-zero rank among `n` ranks, ascending:
/// `rank + 2^b` for every power of two below the rank's lowest set bit
/// (the ranks whose [`parent_rank`] it is), written into `out`.
fn children(rank: u32, n: u32, out: &mut [u64; 32]) -> &[u64] {
    let mut k = 0;
    for b in 0..rank.trailing_zeros() {
        let child = u64::from(rank) + (1 << b);
        if child >= u64::from(n) {
            break;
        }
        out[k] = child;
        k += 1;
    }
    &out[..k]
}

fn rank_to_node(rank: u32, root: NodeId, n: u32) -> NodeId {
    NodeId((rank + root.0) % n)
}

fn finish(builder: DepTraceBuilder, what: &str) -> DepTrace {
    builder
        .build()
        .unwrap_or_else(|e| panic!("generated {what} trace must validate: {e}"))
}

/// Full pairwise exchange: `n * (n - 1)` messages of `len` flits, in
/// `n - 1` shifted rounds. Message ids are `(round - 1) * n + src`.
///
/// # Panics
/// Panics when `topo` has fewer than two nodes.
#[must_use]
pub fn all_to_all(topo: &Topology, len: u32) -> DepTrace {
    let n = topo.num_nodes();
    assert!(n >= 2, "all-to-all needs at least two nodes");
    let nodes = n as usize;
    let mut trace = DepTraceBuilder::with_capacity(nodes * (nodes - 1), nodes * (nodes - 2));
    for r in 1..n {
        for i in 0..n {
            let id = u64::from(r - 1) * u64::from(n) + u64::from(i);
            let prev = (r > 1).then(|| u64::from(r - 2) * u64::from(n) + u64::from(i));
            trace.push(
                Message::new(id, NodeId(i), NodeId((i + r) % n), len, 0),
                prev.as_slice(),
            );
        }
    }
    finish(trace, "all-to-all")
}

/// Binomial-tree reduction toward `root`: `n - 1` messages of `len`
/// flits, one per non-root rank, each targeting its tree parent. An
/// inner rank's message depends on every message its children send.
/// Message ids are the sender's rank (1-based ranks relative to `root`).
///
/// # Panics
/// Panics when `topo` has fewer than two nodes or `root` is out of range.
#[must_use]
pub fn reduce(topo: &Topology, root: NodeId, len: u32) -> DepTrace {
    let n = topo.num_nodes();
    assert!(n >= 2, "reduce needs at least two nodes");
    assert!(root.0 < n, "root {root} out of range");
    // Each non-root rank is at most one send's dependency: its parent's.
    let mut trace = DepTraceBuilder::with_capacity(n as usize - 1, n as usize - 1);
    let mut kids = [0; 32];
    for rank in 1..n {
        trace.push(
            Message::new(
                u64::from(rank),
                rank_to_node(rank, root, n),
                rank_to_node(parent_rank(rank), root, n),
                len,
                0,
            ),
            children(rank, n, &mut kids),
        );
    }
    finish(trace, "reduce")
}

/// Binomial-tree broadcast from `root`: `n - 1` messages of `len` flits,
/// one per non-root rank, each sent by the rank's tree parent. A forward
/// deeper in the tree depends on the message that brought the data to its
/// sender. Message ids are the receiver's rank.
///
/// # Panics
/// Panics when `topo` has fewer than two nodes or `root` is out of range.
#[must_use]
pub fn broadcast(topo: &Topology, root: NodeId, len: u32) -> DepTrace {
    let n = topo.num_nodes();
    assert!(n >= 2, "broadcast needs at least two nodes");
    assert!(root.0 < n, "root {root} out of range");
    let mut trace = DepTraceBuilder::with_capacity(n as usize - 1, n as usize - 1);
    for rank in 1..n {
        let parent = parent_rank(rank);
        let prev = (parent != 0).then_some(u64::from(parent));
        trace.push(
            Message::new(
                u64::from(rank),
                rank_to_node(parent, root, n),
                rank_to_node(rank, root, n),
                len,
                0,
            ),
            prev.as_slice(),
        );
    }
    finish(trace, "broadcast")
}

/// A phased spatial-pattern collective: `phases` rounds in which every
/// node sends one `len`-flit message to its pattern destination, phase
/// `p + 1` gated on the node's own phase-`p` delivery. Randomized
/// patterns (hotspot, uniform, hot-pairs) draw each `(phase, node)`
/// destination from an rng split off `seed`, so the trace is a pure
/// function of its arguments. Silent sources are remapped
/// ([`TrafficPattern::dest_or_remap`]) — every node sends in every phase.
/// Message ids are `phase * n + node`.
///
/// # Panics
/// Panics when `topo` has fewer than two nodes (no pattern can be
/// non-silent there) or on a pattern/topology mismatch (e.g. transpose on
/// a non-square mesh).
#[must_use]
pub fn pattern_sweep(
    topo: &Topology,
    pattern: TrafficPattern,
    phases: u32,
    len: u32,
    seed: u64,
) -> DepTrace {
    let n = topo.num_nodes();
    assert!(n >= 2, "a pattern sweep needs at least two nodes");
    let mut trace = DepTraceBuilder::with_capacity(
        phases as usize * n as usize,
        phases.saturating_sub(1) as usize * n as usize,
    );
    let mut partners = PartnerTable::new(seed);
    for p in 0..phases {
        for i in 0..n {
            let mut rng = SimRng::new(seed ^ 0xC01_1EC7)
                .split(u64::from(p))
                .split(u64::from(i));
            let dest = pattern
                .dest_or_remap(topo, NodeId(i), &mut rng, &mut partners)
                .expect("n >= 2 guarantees a destination");
            let id = u64::from(p) * u64::from(n) + u64::from(i);
            let prev = (p > 0).then(|| u64::from(p - 1) * u64::from(n) + u64::from(i));
            trace.push(Message::new(id, NodeId(i), dest, len, 0), prev.as_slice());
        }
    }
    finish(trace, "pattern sweep")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Topology {
        Topology::mesh(&[4, 4])
    }

    /// Trace index of the message with id `id`.
    fn find(trace: &DepTrace, id: u64) -> usize {
        trace.messages().iter().position(|m| m.id.0 == id).unwrap()
    }

    #[test]
    fn all_to_all_covers_every_pair_once() {
        let t = mesh();
        let trace = all_to_all(&t, 8);
        assert_eq!(trace.len(), 16 * 15);
        let mut pairs = std::collections::HashSet::new();
        for m in trace.messages() {
            assert!(pairs.insert((m.src, m.dest)), "duplicate pair");
            assert_ne!(m.src, m.dest);
        }
        assert_eq!(pairs.len(), 16 * 15);
        // Round 1 is dependency-free; later rounds chain per source.
        assert_eq!(trace.num_roots(), 16);
    }

    #[test]
    fn reduce_tree_flows_toward_root_with_child_deps() {
        let t = mesh();
        let root = NodeId(5);
        let trace = reduce(&t, root, 16);
        assert_eq!(trace.len(), 15);
        // Exactly the direct children of rank 0 (ranks that are powers of
        // two) target the root, and leaves are the dependency-free sends.
        let to_root = trace.messages().iter().filter(|m| m.dest == root).count();
        assert_eq!(to_root, 4, "ranks 1, 2, 4, 8 send to the root");
        for m in trace.messages() {
            assert_ne!(m.src, root, "the root never sends in a reduce");
        }
        // Rank 4's send depends on its children 5 and 6 (7's parent is 6,
        // 12's parent is 8).
        assert_eq!(trace.deps(find(&trace, 4)), [5, 6]);
    }

    #[test]
    fn reduce_deps_are_each_ranks_tree_children() {
        // 13 ranks: not a power of two, so the last subtrees are cut short.
        let t = Topology::torus(&[13]);
        let trace = reduce(&t, NodeId(0), 4);
        for (i, m) in trace.messages().iter().enumerate() {
            let rank = m.id.0 as u32;
            let want: Vec<u64> = (1..13)
                .filter(|&c| parent_rank(c) == rank)
                .map(u64::from)
                .collect();
            assert_eq!(trace.deps(i), want, "rank {rank}");
        }
        assert_eq!(trace.deps(find(&trace, 8)), [9, 10, 12]);
    }

    #[test]
    fn broadcast_mirrors_reduce_downward() {
        let t = mesh();
        let root = NodeId(0);
        let trace = broadcast(&t, root, 16);
        assert_eq!(trace.len(), 15);
        let from_root = trace.messages().iter().filter(|m| m.src == root).count();
        assert_eq!(from_root, 4);
        for m in trace.messages() {
            assert_ne!(m.dest, root, "the root never receives");
        }
        // Rank 5 (= 4 | 1) hears from rank 4, whose data came via rank 4's
        // own incoming message.
        let rank5 = find(&trace, 5);
        assert_eq!(trace.messages()[rank5].src, NodeId(4));
        assert_eq!(trace.deps(rank5), [4]);
    }

    #[test]
    fn pattern_sweep_chains_phases_and_silences_nobody() {
        let t = mesh();
        let trace = pattern_sweep(&t, TrafficPattern::Transpose, 3, 8, 11);
        assert_eq!(trace.len(), 3 * 16);
        assert_eq!(trace.num_roots(), 16, "phase 0 is dependency-free");
        for m in trace.messages() {
            assert_ne!(m.src, m.dest, "remap keeps diagonals sending");
        }
        // Phase 2's node 3 depends on phase 1's node 3.
        assert_eq!(trace.deps(find(&trace, 2 * 16 + 3)), [16 + 3]);
        // Deterministic in its arguments.
        let again = pattern_sweep(&t, TrafficPattern::Transpose, 3, 8, 11);
        assert_eq!(trace, again);
    }

    #[test]
    fn hotspot_sweep_is_deterministic_and_non_self() {
        let t = mesh();
        let pat = TrafficPattern::Hotspot {
            node: 5,
            fraction: 0.8,
        };
        let a = pattern_sweep(&t, pat, 2, 4, 9);
        let b = pattern_sweep(&t, pat, 2, 4, 9);
        assert_eq!(a, b);
        let hot_hits = a.messages().iter().filter(|m| m.dest == NodeId(5)).count();
        assert!(hot_hits > a.len() / 2, "hotspot concentrates: {hot_hits}");
    }
}
