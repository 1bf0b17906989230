//! Randomized-but-deterministic tests over the core invariants:
//!
//! * conservation — every accepted message is delivered exactly once,
//!   under arbitrary loads, lengths, protocols, and cache pressures;
//! * the §4 theorems as properties — no stall, probe steps within bound,
//!   structural audit clean — over randomly drawn configurations;
//! * topology algebra (coordinate/link round-trips, distance symmetry,
//!   minimal ports from the offsets) over random shapes;
//! * a probe hop or backtrack moves one offset field, its own dimension's;
//! * routing candidates are always minimal and in range.
//!
//! Configurations are drawn from a seeded [`SimRng`] (the offline build
//! has no property-testing framework), so each case sweeps many random
//! configurations while staying exactly reproducible.

use std::collections::HashSet;
use wavesim::core::{ProbeFlit, ProtocolKind, ReplacementPolicy, WaveConfig, WaveNetwork};
use wavesim::network::Message;
use wavesim::sim::SimRng;
use wavesim::topology::{NodeId, PortSet, RoutingKind, Topology};
use wavesim::verify::check_probe_livelock;
use wavesim::workloads::{LengthDist, TrafficConfig, TrafficPattern, TrafficSource};

const PROTOCOLS: [ProtocolKind; 3] = [
    ProtocolKind::Clrp,
    ProtocolKind::WormholeOnly,
    ProtocolKind::Carp,
];

const POLICIES: [ReplacementPolicy; 4] = [
    ReplacementPolicy::Lru,
    ReplacementPolicy::Lfu,
    ReplacementPolicy::Fifo,
    ReplacementPolicy::Random,
];

/// Conservation + deadlock/livelock freedom over random configs.
#[test]
fn random_runs_deliver_everything() {
    let mut draw = SimRng::new(0xc05e7e);
    for case in 0..24 {
        let seed = draw.below(1_000);
        let load = 0.02 + draw.unit() * 0.58;
        let len = 1 + draw.below(159) as u32;
        let cache = 1 + draw.index(5);
        let k = 1 + draw.below(3) as u8;
        let m = draw.below(4) as u8;
        let protocol = *draw.choose(&PROTOCOLS).unwrap();
        let policy = *draw.choose(&POLICIES).unwrap();
        let torus = draw.chance(0.5);
        let topo = if torus {
            Topology::torus(&[4, 4])
        } else {
            Topology::mesh(&[4, 4])
        };
        let mut net = WaveNetwork::new(
            topo.clone(),
            WaveConfig {
                protocol,
                cache_capacity: cache,
                k,
                misroutes: m,
                replacement: policy,
                seed,
                ..WaveConfig::default()
            },
        );
        let mut src = TrafficSource::new(
            topo,
            TrafficConfig {
                load,
                pattern: TrafficPattern::Uniform,
                len: LengthDist::Fixed(len),
                seed,
            },
        );
        src.stop_at(1_500);
        let mut delivered: Vec<u64> = Vec::new();
        let mut now = 0u64;
        loop {
            for msg in src.poll(now) {
                net.send(now, msg);
            }
            if now >= 1_500 && !net.busy() {
                break;
            }
            net.tick(now);
            for d in net.drain_deliveries() {
                delivered.push(d.msg.id.0);
            }
            now += 1;
            assert!(now < 3_000_000, "case {case}: run refused to drain");
        }
        // Exactly-once delivery.
        let unique: HashSet<u64> = delivered.iter().copied().collect();
        assert_eq!(unique.len(), delivered.len(), "case {case}: duplicate");
        assert_eq!(
            delivered.len() as u64,
            src.generated(),
            "case {case}: lost messages"
        );
        // Theorems 3/4 as a property.
        let live = check_probe_livelock(&net);
        assert!(live.livelock_free, "case {case}: {live:?}");
        // Structural consistency.
        let audit = net.audit();
        assert!(audit.is_empty(), "case {case}: {audit:?}");
    }
}

/// Coordinate/id round-trips and distance metric laws on random shapes.
#[test]
fn topology_algebra() {
    let mut draw = SimRng::new(0x7090);
    for _ in 0..24 {
        let dims = [
            2 + draw.below(4) as u16,
            2 + draw.below(4) as u16,
            2 + draw.below(2) as u16,
        ];
        let torus = draw.chance(0.5);
        let topo = if torus && dims.iter().all(|&d| d >= 3) {
            Topology::torus(&dims)
        } else {
            Topology::mesh(&dims)
        };
        let mut rng = SimRng::new(draw.next_u64());
        for _ in 0..32 {
            let a = NodeId(rng.below(u64::from(topo.num_nodes())) as u32);
            let b = NodeId(rng.below(u64::from(topo.num_nodes())) as u32);
            // Round trip.
            assert_eq!(topo.node(topo.coords(a)), a);
            // Distance symmetry, identity, triangle inequality via a midpoint.
            assert_eq!(topo.distance(a, b), topo.distance(b, a));
            assert_eq!(topo.distance(a, a), 0);
            let c = NodeId(rng.below(u64::from(topo.num_nodes())) as u32);
            assert!(topo.distance(a, b) <= topo.distance(a, c) + topo.distance(c, b));
            // min_ports steps reduce distance by exactly one.
            if a != b {
                for p in topo.min_ports(a, b) {
                    let n = topo.neighbor(a, p).expect("minimal ports exist");
                    assert_eq!(topo.distance(n, b) + 1, topo.distance(a, b));
                }
            }
        }
        // Link involution over every link.
        for l in topo.links() {
            assert_eq!(topo.reverse_link(topo.reverse_link(l)), l);
        }
    }
}

/// `min_ports` is the port set of the per-dimension offsets — the one
/// definition the probe's own offset fields route on — for random node
/// pairs on 2-D and 3-D meshes and tori.
#[test]
fn min_ports_are_the_ports_of_the_offsets() {
    let mut draw = SimRng::new(0x0ff5);
    for shape in 0..16 {
        let (ndims, torus) = (2 + shape % 2, shape % 4 >= 2);
        // A torus ring needs three nodes; a mesh may be two wide.
        let least = if torus { 3 } else { 2 };
        let dims: Vec<u16> = (0..ndims).map(|_| least + draw.below(5) as u16).collect();
        let topo = if torus {
            Topology::torus(&dims)
        } else {
            Topology::mesh(&dims)
        };
        let mut rng = SimRng::new(draw.next_u64());
        for _ in 0..64 {
            let a = NodeId(rng.below(u64::from(topo.num_nodes())) as u32);
            let b = NodeId(rng.below(u64::from(topo.num_nodes())) as u32);
            let offsets: Vec<i32> = (0..ndims).map(|d| topo.offset(a, b, d)).collect();
            assert_eq!(
                topo.min_ports(a, b),
                PortSet::from_offsets(&offsets),
                "{dims:?} {a:?} -> {b:?}"
            );
        }
    }
}

/// A probe hop along any port, and the backtrack that undoes it, change
/// only the offset field of the port's dimension, to `Topology::offset`
/// of the new node: the one-dimension refresh the probe step does in
/// place of a full one. Random 2-D and 3-D meshes and tori, even radices
/// included, where a misroute from an exact tie (offset `+r/2`) flips the
/// offset's sign.
#[test]
fn a_probe_move_changes_only_its_dimensions_offset() {
    let mut draw = SimRng::new(0x0ffd);
    let mut tie_flips = 0;
    for shape in 0..24 {
        let (ndims, torus) = (2 + shape % 2, shape % 4 >= 2);
        // Every third shape is all-even, so tori with exact ties are sure.
        let dims: Vec<u16> = (0..ndims)
            .map(|_| match shape % 3 {
                0 => 4 + 2 * draw.below(3) as u16,
                _ => 3 + draw.below(5) as u16,
            })
            .collect();
        let topo = if torus {
            Topology::torus(&dims)
        } else {
            Topology::mesh(&dims)
        };
        let mut rng = SimRng::new(draw.next_u64());
        for _ in 0..32 {
            let at = NodeId(rng.below(u64::from(topo.num_nodes())) as u32);
            let dest = NodeId(rng.below(u64::from(topo.num_nodes())) as u32);
            let start = ProbeFlit::new(&topo, at, dest, false, Vec::new());
            for port in topo.ports_of(at) {
                let dim = usize::from(port.dim);
                let next = topo.neighbor(at, port).expect("ports_of has links");
                let mut flit = start.clone();
                flit.step_offset(&topo, next, dest, port.dim);
                for d in 0..ndims {
                    let want = if d == dim {
                        topo.offset(next, dest, d)
                    } else {
                        start.offsets[d]
                    };
                    assert_eq!(flit.offsets[d], want, "{dims:?} {at} -> {next} dim {d}");
                }
                let tie = torus && 2 * start.offsets[dim] == i32::from(dims[dim]);
                if tie && flit.offsets[dim] < 0 {
                    tie_flips += 1;
                }
                // The backtrack over the same link restores the start.
                flit.step_offset(&topo, at, dest, port.dim);
                assert_eq!(flit, start, "{dims:?} backtrack {next} -> {at}");
            }
        }
    }
    assert!(tie_flips > 0, "no misroute from an exact tie was drawn");
}

/// Routing functions only ever emit minimal, in-range candidates, and
/// at least one per reachable pair.
#[test]
fn routing_candidates_are_sound() {
    let mut draw = SimRng::new(0x50d);
    for _ in 0..16 {
        let torus = draw.chance(0.5);
        let adaptive = draw.chance(0.5);
        let w = 1 + draw.below(4) as u8;
        let topo = if torus {
            Topology::torus(&[4, 4])
        } else {
            Topology::mesh(&[4, 4])
        };
        let kind = if adaptive {
            RoutingKind::Adaptive
        } else {
            RoutingKind::Deterministic
        };
        // Clamp w to the function's legal minimum.
        let w = match (kind, torus) {
            (RoutingKind::Deterministic, false) => w,
            (RoutingKind::Deterministic, true) => (w.max(2) / 2) * 2,
            (RoutingKind::Adaptive, false) => w.max(2),
            (RoutingKind::Adaptive, true) => w.max(3),
        };
        let routing = kind.build(&topo, w);
        let mut out = Vec::new();
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a == b {
                    continue;
                }
                out.clear();
                routing.route(&topo, a, b, &mut out);
                assert!(!out.is_empty());
                for c in &out {
                    assert!(c.vc < routing.vcs_per_link());
                    let n = topo.neighbor(a, c.port).expect("no boundary candidates");
                    assert_eq!(topo.distance(n, b) + 1, topo.distance(a, b));
                }
            }
        }
    }
}

/// Scripted single-pair traffic: circuit deliveries preserve FIFO
/// order regardless of message sizes.
#[test]
fn circuit_fifo_property() {
    let mut draw = SimRng::new(0xf1f0);
    for case in 0..24 {
        let seed = draw.next_u64();
        let n = 2 + draw.index(10);
        let lens: Vec<u32> = (0..n).map(|_| 1 + draw.below(199) as u32).collect();
        let topo = Topology::mesh(&[4, 4]);
        let mut net = WaveNetwork::new(
            topo.clone(),
            WaveConfig {
                protocol: ProtocolKind::Clrp,
                seed,
                ..WaveConfig::default()
            },
        );
        let src = NodeId(0);
        let dest = NodeId(15);
        for (i, len) in lens.iter().enumerate() {
            net.send(0, Message::new(i as u64, src, dest, *len, 0));
        }
        let mut order = Vec::new();
        let mut now = 0;
        while net.busy() {
            net.tick(now);
            for d in net.drain_deliveries() {
                order.push(d.msg.id.0);
            }
            now += 1;
            assert!(now < 1_000_000, "case {case}");
        }
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted, "case {case}");
    }
}
