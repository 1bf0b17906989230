//! Cross-crate protocol behaviour: end-to-end scenarios exercising CLRP's
//! three phases, CARP's instruction interface, circuit properties the
//! paper promises (in-order delivery, buffer reuse via In-use, fault
//! fallback), and the interplay between the two transport planes.

use wavesim::core::{
    CircuitStatus, ClrpVariant, FaultEvent, LaneId, ProtocolKind, ReplacementPolicy, WaveConfig,
    WaveNetwork,
};
use wavesim::network::message::DeliveryMode;
use wavesim::network::Message;
use wavesim::topology::{Coords, NodeId, Topology};

fn run(net: &mut WaveNetwork, from: u64, max: u64) -> u64 {
    let mut now = from;
    while net.busy() && now < max {
        net.tick(now);
        now += 1;
    }
    assert!(!net.busy(), "network did not drain by {max}");
    now
}

#[test]
fn clrp_interleaves_circuit_and_wormhole_traffic() {
    let topo = Topology::mesh(&[8, 8]);
    let mut net = WaveNetwork::new(
        topo.clone(),
        WaveConfig {
            protocol: ProtocolKind::Clrp,
            cache_capacity: 4,
            ..WaveConfig::default()
        },
    );
    // Many nodes, many destinations: some sends hit circuits, evictions
    // and failures push others to wormhole; everything must arrive.
    let mut id = 0;
    for n in 0..32u32 {
        for off in [1u32, 9, 17, 33] {
            net.send(
                0,
                Message::new(id, NodeId(n), NodeId((n + off) % 64), 40, 0),
            );
            id += 1;
        }
    }
    run(&mut net, 0, 2_000_000);
    let ds = net.drain_deliveries();
    assert_eq!(ds.len() as u64, id);
    let circuits = ds
        .iter()
        .filter(|d| d.mode == DeliveryMode::Circuit)
        .count();
    assert!(circuits > 0, "some messages must ride circuits");
    assert!(net.audit().is_empty(), "{:?}", net.audit());
}

#[test]
fn circuit_delivery_is_fifo_per_destination() {
    let topo = Topology::mesh(&[8, 8]);
    let mut net = WaveNetwork::new(topo.clone(), WaveConfig::default());
    let src = topo.node(Coords::new(&[0, 0]));
    let dest = topo.node(Coords::new(&[7, 7]));
    for i in 0..25u64 {
        net.send(i, Message::new(i, src, dest, 16 + (i % 5) as u32 * 30, i));
    }
    run(&mut net, 0, 500_000);
    let ds = net.drain_deliveries();
    let circuit_ids: Vec<u64> = ds
        .iter()
        .filter(|d| d.mode == DeliveryMode::Circuit)
        .map(|d| d.msg.id.0)
        .collect();
    let mut sorted = circuit_ids.clone();
    sorted.sort_unstable();
    assert_eq!(circuit_ids, sorted, "in-order delivery on a circuit (§2)");
}

#[test]
fn carp_circuits_survive_between_bursts_clrp_style_thrash_does_not() {
    // CARP holds a circuit across idle gaps until TEARDOWN; verify the
    // entry persists and later sends still hit it.
    let topo = Topology::mesh(&[6, 6]);
    let mut net = WaveNetwork::new(
        topo.clone(),
        WaveConfig {
            protocol: ProtocolKind::Carp,
            ..WaveConfig::default()
        },
    );
    let a = NodeId(0);
    let b = NodeId(35);
    net.carp_establish(0, a, b);
    let t = run(&mut net, 0, 100_000);
    // Long idle gap...
    let t = t + 10_000;
    net.send(t, Message::new(1, a, b, 64, t));
    let t2 = run(&mut net, t, t + 100_000);
    assert_eq!(net.stats().cache_hits, 1, "circuit survived the gap");
    assert_eq!(net.circuits().len(), 1);
    assert_eq!(
        net.circuits().values().next().unwrap().status,
        CircuitStatus::Ready
    );
    net.carp_teardown(t2, a, b);
    run(&mut net, t2, t2 + 100_000);
    assert_eq!(net.circuits().len(), 0);
}

#[test]
fn force_phase_chain_reaction_stays_consistent() {
    // k=1 on a line: every new circuit must force the previous one out.
    let topo = Topology::mesh(&[8]);
    let mut net = WaveNetwork::new(
        topo.clone(),
        WaveConfig {
            protocol: ProtocolKind::Clrp,
            k: 1,
            misroutes: 0,
            ..WaveConfig::default()
        },
    );
    // Chain of overlapping circuits: 0->7, then 1->6, then 2->5, 3->4.
    let mut t = 0;
    for (i, (s, d)) in [(0u32, 7u32), (1, 6), (2, 5), (3, 4)].iter().enumerate() {
        net.send(t, Message::new(i as u64, NodeId(*s), NodeId(*d), 32, t));
        t = run(&mut net, t, t + 100_000);
    }
    let s = net.stats();
    assert!(
        s.forced_remote_releases + s.forced_local_releases >= 3,
        "each new circuit had to force its predecessor: {s:?}"
    );
    assert!(net.audit().is_empty(), "{:?}", net.audit());
    // Only the last circuit remains.
    assert_eq!(net.circuits().len(), 1);
    assert!(net.cache(NodeId(3)).get(NodeId(4)).is_some());
}

#[test]
fn replacement_policies_all_keep_caches_within_capacity() {
    for policy in [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Lfu,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Random,
    ] {
        let topo = Topology::mesh(&[5, 5]);
        let mut net = WaveNetwork::new(
            topo.clone(),
            WaveConfig {
                protocol: ProtocolKind::Clrp,
                cache_capacity: 2,
                replacement: policy,
                ..WaveConfig::default()
            },
        );
        let mut id = 0;
        for round in 0..4u32 {
            for d in 1..8u32 {
                net.send(
                    0,
                    Message::new(id, NodeId(0), NodeId((d * 3 + round) % 25), 16, 0),
                );
                id += 1;
            }
        }
        run(&mut net, 0, 2_000_000);
        assert!(net.cache(NodeId(0)).len() <= 2, "{policy:?} overflowed");
        assert_eq!(net.drain_deliveries().len() as u64, id);
        assert!(net.audit().is_empty());
    }
}

#[test]
fn dead_wave_plane_degrades_to_pure_wormhole() {
    let topo = Topology::mesh(&[6, 6]);
    let cfg = WaveConfig {
        protocol: ProtocolKind::Clrp,
        ..WaveConfig::default()
    };
    let mut net = WaveNetwork::new(topo.clone(), cfg);
    for link in topo.links() {
        for s in 1..=cfg.k {
            net.schedule_fault(0, FaultEvent::Fail(LaneId::new(link, s)))
                .expect("fault plan matches topology");
        }
    }
    let mut id = 0;
    for n in 0..36u32 {
        net.send(0, Message::new(id, NodeId(n), NodeId((n + 13) % 36), 24, 0));
        id += 1;
    }
    run(&mut net, 0, 2_000_000);
    let ds = net.drain_deliveries();
    assert_eq!(ds.len() as u64, id);
    assert!(ds.iter().all(|d| d.mode == DeliveryMode::Wormhole));
    assert_eq!(net.stats().setups_ok, 0);
}

#[test]
fn clrp_variants_deliver_identical_message_sets() {
    // Different phase policies change timing, never delivery.
    let variants = [
        ClrpVariant::default(),
        ClrpVariant {
            skip_phase1: true,
            ..ClrpVariant::default()
        },
        ClrpVariant {
            single_switch_force: true,
            ..ClrpVariant::default()
        },
        ClrpVariant {
            enable_force: false,
            ..ClrpVariant::default()
        },
    ];
    for v in variants {
        let topo = Topology::mesh(&[6, 6]);
        let mut net = WaveNetwork::new(
            topo.clone(),
            WaveConfig {
                protocol: ProtocolKind::Clrp,
                clrp: v,
                cache_capacity: 2,
                k: 1,
                ..WaveConfig::default()
            },
        );
        let mut id = 0;
        for n in 0..36u32 {
            for off in [5u32, 11] {
                net.send(
                    0,
                    Message::new(id, NodeId(n), NodeId((n + off) % 36), 32, 0),
                );
                id += 1;
            }
        }
        run(&mut net, 0, 3_000_000);
        let mut got: Vec<u64> = net.drain_deliveries().iter().map(|d| d.msg.id.0).collect();
        got.sort_unstable();
        assert_eq!(
            got,
            (0..id).collect::<Vec<_>>(),
            "variant {v:?} lost messages"
        );
        assert!(net.audit().is_empty());
    }
}

#[test]
fn hypercube_topology_works_end_to_end() {
    let topo = Topology::hypercube(4); // 16 nodes
    let mut net = WaveNetwork::new(
        topo.clone(),
        WaveConfig {
            protocol: ProtocolKind::Clrp,
            ..WaveConfig::default()
        },
    );
    let mut id = 0;
    for n in 0..16u32 {
        net.send(0, Message::new(id, NodeId(n), NodeId(n ^ 0xF), 64, 0));
        id += 1;
    }
    run(&mut net, 0, 1_000_000);
    assert_eq!(net.drain_deliveries().len() as u64, id);
    assert!(net.audit().is_empty());
}
