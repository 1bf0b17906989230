//! Spatial traffic patterns.
//!
//! Each pattern maps a source node to a destination draw. Deterministic
//! patterns (transpose, bit-reversal, bit-complement) may leave a node
//! silent when it maps to itself — the convention of the literature.
//! Callers that cannot tolerate silent nodes (phased collectives, which
//! would deadlock on a member that never sends) draw with
//! [`TrafficPattern::dest_or_remap`], which remaps self-images
//! deterministically instead.

use wavesim_sim::SimRng;
use wavesim_topology::{NodeId, Topology};

/// A destination-selection rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficPattern {
    /// Uniformly random destination (≠ source).
    Uniform,
    /// 2-D matrix transpose: `(x, y) → (y, x)`. Requires a square 2-D
    /// topology; diagonal nodes are silent.
    Transpose,
    /// Bit reversal of the node index. Requires a power-of-two node count;
    /// palindromic nodes are silent.
    BitReversal,
    /// Bit complement of the node index. Requires a power-of-two node
    /// count; always productive.
    BitComplement,
    /// With probability `fraction`, send to node `node`; otherwise
    /// uniform. The classic hotspot stressor.
    Hotspot {
        /// The hot node's id.
        node: u32,
        /// Probability of targeting the hot node.
        fraction: f64,
    },
    /// Uniformly random physical neighbour — maximal spatial locality.
    NearestNeighbor,
    /// Temporal-locality pattern: each source owns `partners` fixed
    /// partner nodes (chosen deterministically from the seed); with
    /// probability `locality` the destination is one of them, otherwise
    /// uniform. `locality = 0` degenerates to uniform; `locality = 1`
    /// restricts all traffic to the partner set — the regime where
    /// circuit caching pays off.
    HotPairs {
        /// Partners per source node.
        partners: u8,
        /// Probability a message targets a partner.
        locality: f64,
    },
}

fn bits_of(n: u32) -> u32 {
    assert!(n.is_power_of_two(), "pattern requires power-of-two nodes");
    n.trailing_zeros()
}

/// Draws a partner index in `[0, n)` with harmonic (Zipf-like) weights:
/// partner 0 is the hottest, partner `i` has weight `1/(i+1)`. This skew is
/// what lets recency/frequency replacement policies beat FIFO/Random in the
/// E6 experiment — with uniform partner popularity all policies tie.
#[must_use]
pub fn pick_partner(rng: &mut SimRng, n: usize) -> usize {
    debug_assert!(n > 0);
    let total: f64 = (1..=n).map(|i| 1.0 / i as f64).sum();
    let mut u = rng.unit() * total;
    for i in 0..n {
        u -= 1.0 / (i + 1) as f64;
        if u <= 0.0 {
            return i;
        }
    }
    n - 1
}

/// Deterministic partner list of `src` under seed `seed` (used by
/// `HotPairs`; exposed so CARP trace builders can pick the same partners).
#[must_use]
pub fn partners_of(topo: &Topology, src: NodeId, partners: u8, seed: u64) -> Vec<NodeId> {
    let n = topo.num_nodes();
    let mut rng = SimRng::new(seed ^ 0x9E37_79B9).split(u64::from(src.0));
    let mut out = Vec::with_capacity(partners as usize);
    while out.len() < partners as usize && out.len() + 1 < n as usize {
        let cand = NodeId(rng.below(u64::from(n)) as u32);
        if cand != src && !out.contains(&cand) {
            out.push(cand);
        }
    }
    out
}

impl TrafficPattern {
    /// Draws a destination for `src`, or `None` when this source is silent
    /// under the pattern.
    #[must_use]
    pub fn dest(
        &self,
        topo: &Topology,
        src: NodeId,
        rng: &mut SimRng,
        seed: u64,
    ) -> Option<NodeId> {
        let n = topo.num_nodes();
        match *self {
            TrafficPattern::Uniform => {
                if n < 2 {
                    return None;
                }
                let mut d = NodeId(rng.below(u64::from(n)) as u32);
                while d == src {
                    d = NodeId(rng.below(u64::from(n)) as u32);
                }
                Some(d)
            }
            TrafficPattern::Transpose => {
                assert_eq!(topo.ndims(), 2, "transpose needs a 2-D topology");
                assert_eq!(topo.radix(0), topo.radix(1), "transpose needs a square");
                let c = topo.coords(src);
                let d = topo.node(wavesim_topology::Coords::new(&[c.get(1), c.get(0)]));
                (d != src).then_some(d)
            }
            TrafficPattern::BitReversal => {
                let b = bits_of(n);
                let d = NodeId(src.0.reverse_bits() >> (32 - b));
                (d != src).then_some(d)
            }
            TrafficPattern::BitComplement => {
                let _ = bits_of(n);
                let d = NodeId(!src.0 & (n - 1));
                (d != src).then_some(d)
            }
            TrafficPattern::Hotspot { node, fraction } => {
                let hot = NodeId(node);
                if src != hot && rng.chance(fraction) {
                    Some(hot)
                } else {
                    TrafficPattern::Uniform.dest(topo, src, rng, seed)
                }
            }
            TrafficPattern::NearestNeighbor => {
                let ports = topo.ports_of(src);
                let port = ports.iter().nth(rng.index(ports.len()))?;
                topo.neighbor(src, port)
            }
            TrafficPattern::HotPairs { partners, locality } => {
                if rng.chance(locality) {
                    let ps = partners_of(topo, src, partners, seed);
                    if ps.is_empty() {
                        TrafficPattern::Uniform.dest(topo, src, rng, seed)
                    } else {
                        Some(ps[pick_partner(rng, ps.len())])
                    }
                } else {
                    TrafficPattern::Uniform.dest(topo, src, rng, seed)
                }
            }
        }
    }

    /// Like [`TrafficPattern::dest`], but *remaps* a silent source
    /// deterministically instead of returning `None`: a source whose
    /// pattern image is itself (a transpose diagonal, a bit-reversal
    /// palindrome) sends to its successor node id instead. Collective
    /// sweeps use this so every node stays productive — a phased
    /// collective with silent members would deadlock waiting on messages
    /// that are never sent.
    ///
    /// Returns `None` only when the topology has fewer than two nodes
    /// (no non-self destination exists at all).
    #[must_use]
    pub fn dest_or_remap(
        &self,
        topo: &Topology,
        src: NodeId,
        rng: &mut SimRng,
        seed: u64,
    ) -> Option<NodeId> {
        let n = topo.num_nodes();
        if n < 2 {
            return None;
        }
        match self.dest(topo, src, rng, seed) {
            Some(d) => Some(d),
            None => Some(NodeId((src.0 + 1) % n)),
        }
    }
}

/// Materializes `count` deterministic `(src, dest)` pairs under a
/// pattern: sources round-robin over the nodes, destinations are drawn
/// with [`TrafficPattern::dest`] from an rng derived from `seed`. Silent
/// sources are **skipped deterministically** — the round-robin simply
/// moves on, so the returned pairs never contain a self-send and the
/// request is still filled from the productive sources (a bounded
/// attempts budget keeps a fully-silent pattern from looping forever).
/// Callers that instead need *every* node productive (phased collectives)
/// should draw with [`TrafficPattern::dest_or_remap`]. Built for the
/// model checker (`wavesim-model`), whose specs are *fixed* small message
/// sets rather than rate-driven streams — but any caller wanting a
/// reproducible pattern sample can use it.
#[must_use]
pub fn pattern_pairs(
    topo: &Topology,
    pattern: TrafficPattern,
    count: usize,
    seed: u64,
) -> Vec<(NodeId, NodeId)> {
    let mut rng = SimRng::new(seed);
    let mut pairs = Vec::with_capacity(count);
    let nodes: Vec<NodeId> = topo.nodes().collect();
    // A pattern can be silent from many sources (e.g. transpose on the
    // diagonal); bound the scan so a fully silent pattern terminates.
    let mut attempts = 0usize;
    let budget = count.saturating_mul(nodes.len().max(1)).saturating_mul(4);
    let mut i = 0usize;
    while pairs.len() < count && attempts < budget {
        attempts += 1;
        let src = nodes[i % nodes.len()];
        i += 1;
        if let Some(dest) = pattern.dest(topo, src, &mut rng, seed) {
            debug_assert_ne!(dest, src, "patterns never draw a self-send");
            pairs.push((src, dest));
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesim_topology::Coords;

    fn mesh() -> Topology {
        Topology::mesh(&[4, 4])
    }

    #[test]
    fn pattern_pairs_is_deterministic_and_non_self() {
        let t = mesh();
        let a = pattern_pairs(&t, TrafficPattern::Uniform, 6, 42);
        let b = pattern_pairs(&t, TrafficPattern::Uniform, 6, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        for (s, d) in &a {
            assert_ne!(s, d);
        }
        // Transpose silences the diagonal but still fills the request.
        let tp = pattern_pairs(&t, TrafficPattern::Transpose, 4, 1);
        assert_eq!(tp.len(), 4);
        for (s, d) in &tp {
            let c = t.coords(*s);
            assert_eq!(*d, t.node(Coords::new(&[c.get(1), c.get(0)])));
        }
    }

    #[test]
    fn uniform_never_self() {
        let t = mesh();
        let mut rng = SimRng::new(1);
        for src in t.nodes() {
            for _ in 0..50 {
                let d = TrafficPattern::Uniform.dest(&t, src, &mut rng, 0).unwrap();
                assert_ne!(d, src);
                assert!(d.0 < 16);
            }
        }
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let t = mesh();
        let mut rng = SimRng::new(1);
        let src = t.node(Coords::new(&[1, 3]));
        let d = TrafficPattern::Transpose
            .dest(&t, src, &mut rng, 0)
            .unwrap();
        assert_eq!(t.coords(d).as_slice(), &[3, 1]);
        // Diagonal nodes are silent.
        let diag = t.node(Coords::new(&[2, 2]));
        assert!(TrafficPattern::Transpose
            .dest(&t, diag, &mut rng, 0)
            .is_none());
    }

    #[test]
    fn bit_patterns() {
        let t = mesh(); // 16 nodes, 4 bits
        let mut rng = SimRng::new(1);
        let d = TrafficPattern::BitComplement
            .dest(&t, NodeId(0b0011), &mut rng, 0)
            .unwrap();
        assert_eq!(d.0, 0b1100);
        let d = TrafficPattern::BitReversal
            .dest(&t, NodeId(0b0001), &mut rng, 0)
            .unwrap();
        assert_eq!(d.0, 0b1000);
        // Palindrome is silent under reversal.
        assert!(TrafficPattern::BitReversal
            .dest(&t, NodeId(0b1001), &mut rng, 0)
            .is_none());
    }

    #[test]
    fn hotspot_concentrates() {
        let t = mesh();
        let mut rng = SimRng::new(2);
        let pat = TrafficPattern::Hotspot {
            node: 5,
            fraction: 0.5,
        };
        let mut hits = 0;
        let trials = 2000;
        for _ in 0..trials {
            if pat.dest(&t, NodeId(0), &mut rng, 0) == Some(NodeId(5)) {
                hits += 1;
            }
        }
        let frac = f64::from(hits) / f64::from(trials);
        assert!(frac > 0.45 && frac < 0.60, "hot fraction {frac}");
    }

    #[test]
    fn nearest_neighbor_is_adjacent() {
        let t = mesh();
        let mut rng = SimRng::new(3);
        for src in t.nodes() {
            for _ in 0..20 {
                let d = TrafficPattern::NearestNeighbor
                    .dest(&t, src, &mut rng, 0)
                    .unwrap();
                assert_eq!(t.distance(src, d), 1);
            }
        }
    }

    #[test]
    fn hot_pairs_locality_targets_partners() {
        let t = mesh();
        let seed = 77;
        let pat = TrafficPattern::HotPairs {
            partners: 2,
            locality: 1.0,
        };
        let mut rng = SimRng::new(4);
        let src = NodeId(3);
        let ps = partners_of(&t, src, 2, seed);
        assert_eq!(ps.len(), 2);
        for _ in 0..100 {
            let d = pat.dest(&t, src, &mut rng, seed).unwrap();
            assert!(ps.contains(&d), "{d} not in partner set {ps:?}");
        }
    }

    #[test]
    fn partners_are_stable_and_distinct() {
        let t = mesh();
        let a = partners_of(&t, NodeId(7), 4, 9);
        let b = partners_of(&t, NodeId(7), 4, 9);
        assert_eq!(a, b);
        let uniq: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(uniq.len(), 4);
        assert!(!a.contains(&NodeId(7)));
        // Different seed, different partners (overwhelmingly likely).
        let c = partners_of(&t, NodeId(7), 4, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn partner_pick_is_skewed_toward_low_indices() {
        let mut rng = SimRng::new(11);
        let mut counts = [0u32; 4];
        for _ in 0..8000 {
            counts[pick_partner(&mut rng, 4)] += 1;
        }
        // Harmonic weights 1, 1/2, 1/3, 1/4 over total 25/12:
        // expect ~48%, 24%, 16%, 12%.
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[3]);
        assert!(counts[3] > 0, "tail partners still get traffic");
        let frac0 = f64::from(counts[0]) / 8000.0;
        assert!((frac0 - 0.48).abs() < 0.05, "hottest share {frac0}");
    }

    #[test]
    fn dest_or_remap_makes_every_source_productive() {
        let t = mesh();
        let mut rng = SimRng::new(5);
        for pat in [
            TrafficPattern::Transpose,
            TrafficPattern::BitReversal,
            TrafficPattern::BitComplement,
        ] {
            for src in t.nodes() {
                let d = pat.dest_or_remap(&t, src, &mut rng, 0).unwrap();
                assert_ne!(d, src, "{pat:?} remap must not self-send");
            }
        }
        // The remap is deterministic: a transpose diagonal node sends to
        // its successor id.
        let diag = t.node(Coords::new(&[2, 2]));
        let d = TrafficPattern::Transpose
            .dest_or_remap(&t, diag, &mut rng, 0)
            .unwrap();
        assert_eq!(d.0, diag.0 + 1);
        // Productive sources keep their pattern image.
        let src = t.node(Coords::new(&[1, 3]));
        let d = TrafficPattern::Transpose
            .dest_or_remap(&t, src, &mut rng, 0)
            .unwrap();
        assert_eq!(t.coords(d).as_slice(), &[3, 1]);
    }

    #[test]
    fn hotspot_source_at_hot_node_still_injects() {
        // The hot node itself falls through to uniform — it is never
        // silent and never targets itself.
        let t = mesh();
        let mut rng = SimRng::new(6);
        let pat = TrafficPattern::Hotspot {
            node: 5,
            fraction: 0.9,
        };
        for _ in 0..200 {
            let d = pat.dest(&t, NodeId(5), &mut rng, 0).unwrap();
            assert_ne!(d, NodeId(5));
        }
    }

    #[test]
    fn pattern_pairs_skips_silent_sources_but_fills_request() {
        let t = mesh();
        // 16 sources round-robin; 4 transpose diagonals are silent, yet a
        // 16-pair request is filled entirely from productive sources.
        let pairs = pattern_pairs(&t, TrafficPattern::Transpose, 16, 3);
        assert_eq!(pairs.len(), 16);
        for (s, d) in &pairs {
            assert_ne!(s, d);
            let c = t.coords(*s);
            assert!(c.get(0) != c.get(1), "diagonal sources are skipped");
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn bit_pattern_rejects_non_pow2() {
        let t = Topology::mesh(&[3, 3]);
        let mut rng = SimRng::new(1);
        let _ = TrafficPattern::BitComplement.dest(&t, NodeId(0), &mut rng, 0);
    }
}
