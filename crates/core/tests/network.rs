//! End-to-end protocol tests over the composed [`WaveNetwork`] — CLRP
//! phases, CARP lifecycle, force-mode releases, replacement, buffers, and
//! ack propagation. These exercise the public API only, which is what
//! keeps the plane split honest: everything here worked against the
//! pre-split monolith and must keep working against the composition root.

use wavesim_core::config::ClrpVariant;
use wavesim_core::{
    EntryState, FaultEvent, LaneId, ProbeState, ProtocolKind, WaveConfig, WaveNetwork,
};
use wavesim_network::message::DeliveryMode;
use wavesim_network::{Message, WormholeConfig};
use wavesim_sim::Cycle;
use wavesim_topology::{Coords, NodeId, RoutingKind, Topology};

fn cfg(protocol: ProtocolKind) -> WaveConfig {
    WaveConfig {
        protocol,
        ..WaveConfig::default()
    }
}

fn mesh(dims: &[u16], c: WaveConfig) -> WaveNetwork {
    WaveNetwork::new(Topology::mesh(dims), c)
}

fn run(net: &mut WaveNetwork, from: Cycle, max: Cycle) -> Cycle {
    let mut now = from;
    while net.busy() && now < max {
        net.tick(now);
        now += 1;
    }
    now
}

fn node(net: &WaveNetwork, c: &[u16]) -> NodeId {
    net.topology().node(Coords::new(c))
}

#[test]
fn clrp_establishes_circuit_and_delivers() {
    let mut net = mesh(&[8, 8], cfg(ProtocolKind::Clrp));
    let src = node(&net, &[0, 0]);
    let dest = node(&net, &[5, 3]);
    net.send(0, Message::new(1, src, dest, 128, 0));
    run(&mut net, 0, 50_000);
    assert!(!net.busy());
    let ds = net.drain_deliveries();
    assert_eq!(ds.len(), 1);
    assert_eq!(ds[0].mode, DeliveryMode::Circuit);
    let s = net.stats();
    assert_eq!(s.setups_ok, 1);
    assert_eq!(s.cache_misses, 1);
    assert_eq!(s.msgs_circuit, 1);
    // Circuit persists after the transfer (it is cached).
    assert_eq!(net.circuits().len(), 1);
    assert!(net.cache(src).get(dest).unwrap().ack_returned);
    assert!(net.audit().is_empty(), "{:?}", net.audit());
}

#[test]
fn clrp_second_send_hits_the_cache() {
    let mut net = mesh(&[8, 8], cfg(ProtocolKind::Clrp));
    let src = node(&net, &[1, 1]);
    let dest = node(&net, &[6, 6]);
    net.send(0, Message::new(1, src, dest, 32, 0));
    let t = run(&mut net, 0, 50_000);
    net.send(t, Message::new(2, src, dest, 32, t));
    run(&mut net, t, t + 50_000);
    let s = net.stats();
    assert_eq!(s.cache_misses, 1);
    assert_eq!(s.cache_hits, 1);
    assert_eq!(s.probes_sent, 1, "second send must not probe");
    let ds = net.drain_deliveries();
    assert_eq!(ds.len(), 2);
    // The cache hit skips establishment: strictly lower latency.
    assert!(ds[1].latency() < ds[0].latency());
}

#[test]
fn circuit_reuse_preserves_fifo_order() {
    let mut net = mesh(&[8, 8], cfg(ProtocolKind::Clrp));
    let src = node(&net, &[0, 0]);
    let dest = node(&net, &[7, 7]);
    for i in 0..10 {
        net.send(0, Message::new(i, src, dest, 64, 0));
    }
    run(&mut net, 0, 100_000);
    let ds = net.drain_deliveries();
    assert_eq!(ds.len(), 10);
    // In-order delivery is guaranteed on a circuit (§2).
    let ids: Vec<u64> = ds.iter().map(|d| d.msg.id.0).collect();
    assert_eq!(ids, (0..10).collect::<Vec<_>>());
    assert!(ds.iter().all(|d| d.mode == DeliveryMode::Circuit));
    assert_eq!(net.cache(src).get(dest).unwrap().uses, 10);
}

#[test]
fn wormhole_only_baseline_uses_s0() {
    let mut net = mesh(&[4, 4], cfg(ProtocolKind::WormholeOnly));
    let src = node(&net, &[0, 0]);
    let dest = node(&net, &[3, 3]);
    net.send(0, Message::new(1, src, dest, 16, 0));
    run(&mut net, 0, 10_000);
    let ds = net.drain_deliveries();
    assert_eq!(ds.len(), 1);
    assert_eq!(ds[0].mode, DeliveryMode::Wormhole);
    assert_eq!(net.stats().probes_sent, 0);
}

#[test]
fn carp_establish_send_teardown_lifecycle() {
    let mut net = mesh(&[6, 6], cfg(ProtocolKind::Carp));
    let src = node(&net, &[0, 0]);
    let dest = node(&net, &[4, 4]);
    let free0 = net.lanes().census().0;
    net.carp_establish(0, src, dest);
    let t = run(&mut net, 0, 50_000);
    assert_eq!(net.stats().setups_ok, 1);
    assert!(net.cache(src).get(dest).unwrap().ack_returned);
    // Lanes along the path are reserved.
    assert!(net.lanes().census().1 > 0);

    net.send(t, Message::new(1, src, dest, 200, t));
    let t = run(&mut net, t, t + 50_000);
    let ds = net.drain_deliveries();
    assert_eq!(ds.len(), 1);
    assert_eq!(ds[0].mode, DeliveryMode::Circuit);

    net.carp_teardown(t, src, dest);
    run(&mut net, t, t + 50_000);
    assert!(net.cache(src).get(dest).is_none());
    assert_eq!(net.circuits().len(), 0);
    assert_eq!(net.lanes().census().0, free0, "all lanes free again");
    assert_eq!(net.stats().teardowns, 1);
    assert!(net.audit().is_empty());
}

#[test]
fn carp_send_without_circuit_uses_wormhole() {
    let mut net = mesh(&[4, 4], cfg(ProtocolKind::Carp));
    let src = node(&net, &[0, 0]);
    let dest = node(&net, &[3, 0]);
    net.send(0, Message::new(1, src, dest, 8, 0));
    run(&mut net, 0, 10_000);
    let ds = net.drain_deliveries();
    assert_eq!(ds[0].mode, DeliveryMode::Wormhole);
    assert_eq!(net.stats().probes_sent, 0);
}

#[test]
fn carp_failed_establishment_marks_entry_and_falls_back() {
    let mut net = mesh(&[4], cfg(ProtocolKind::Carp));
    // Fault every lane of every link: no circuit can ever form.
    let topo = net.topology().clone();
    for link in topo.links() {
        for s in 1..=net.config().k {
            net.schedule_fault(0, FaultEvent::Fail(LaneId::new(link, s)))
                .expect("fault plan matches topology");
        }
    }
    let src = NodeId(0);
    let dest = NodeId(3);
    net.carp_establish(0, src, dest);
    net.send(1, Message::new(1, src, dest, 8, 1));
    run(&mut net, 0, 20_000);
    assert_eq!(net.stats().setups_failed, 1);
    assert_eq!(
        net.cache(src).get(dest).map(|e| e.state),
        Some(EntryState::Failed)
    );
    let ds = net.drain_deliveries();
    assert_eq!(ds.len(), 1);
    assert_eq!(ds[0].mode, DeliveryMode::Wormhole);
    // Teardown of a Failed entry just forgets it.
    net.carp_teardown(1_000_000, src, dest);
    assert!(net.cache(src).get(dest).is_none());
}

#[test]
fn clrp_falls_back_to_wormhole_when_wave_plane_dead() {
    let mut net = mesh(&[4, 4], cfg(ProtocolKind::Clrp));
    let topo = net.topology().clone();
    for link in topo.links() {
        for s in 1..=net.config().k {
            net.schedule_fault(0, FaultEvent::Fail(LaneId::new(link, s)))
                .expect("fault plan matches topology");
        }
    }
    let src = node(&net, &[0, 0]);
    let dest = node(&net, &[3, 3]);
    net.send(0, Message::new(1, src, dest, 64, 0));
    run(&mut net, 0, 50_000);
    let ds = net.drain_deliveries();
    assert_eq!(ds.len(), 1);
    assert_eq!(ds[0].mode, DeliveryMode::Wormhole, "phase 3 fallback");
    let s = net.stats();
    assert_eq!(s.setups_failed, 1);
    assert!(s.wormhole_fallbacks >= 1);
    assert!(s.probe_fault_encounters > 0);
    // CLRP forgets failed attempts.
    assert!(net.cache(src).get(dest).is_none());
    assert!(net.audit().is_empty());
}

#[test]
fn clrp_force_mode_tears_down_remote_victim() {
    // 1D mesh, k=1: circuit A (0 -> 3) monopolises the +X lanes; a
    // later circuit B (1 -> 2) must force A's release through a remote
    // release request (A crosses node 1 but starts at node 0).
    let c = WaveConfig {
        k: 1,
        misroutes: 0,
        ..cfg(ProtocolKind::Clrp)
    };
    let mut net = mesh(&[4], c);
    let n0 = NodeId(0);
    let n1 = NodeId(1);
    let n2 = NodeId(2);
    let n3 = NodeId(3);
    net.send(0, Message::new(1, n0, n3, 16, 0));
    let t = run(&mut net, 0, 20_000);
    assert_eq!(net.circuits().len(), 1, "A is up and cached");

    net.send(t, Message::new(2, n1, n2, 16, t));
    run(&mut net, t, t + 50_000);
    let ds = net.drain_deliveries();
    assert_eq!(ds.len(), 2);
    let s = net.stats();
    assert!(s.forced_remote_releases >= 1, "{s:?}");
    assert!(s.teardowns >= 1);
    assert_eq!(s.setups_ok, 2);
    // A's entry is gone from node 0's cache; B's circuit lives.
    assert!(net.cache(n0).get(n3).is_none());
    assert!(net.cache(n1).get(n2).is_some());
    assert!(net.audit().is_empty(), "{:?}", net.audit());
}

#[test]
fn clrp_force_mode_releases_local_victim() {
    // Same geometry, but the blocking circuit *starts at* the stuck
    // node: B (0 -> 2) finds A (0 -> 3) holding its first lane, and A
    // starts at node 0 = B's source, so the release is local.
    let c = WaveConfig {
        k: 1,
        misroutes: 0,
        cache_capacity: 4,
        ..cfg(ProtocolKind::Clrp)
    };
    let mut net = mesh(&[4], c);
    let n0 = NodeId(0);
    let n2 = NodeId(2);
    let n3 = NodeId(3);
    net.send(0, Message::new(1, n0, n3, 16, 0));
    let t = run(&mut net, 0, 20_000);
    net.send(t, Message::new(2, n0, n2, 16, t));
    run(&mut net, t, t + 50_000);
    assert_eq!(net.drain_deliveries().len(), 2);
    let s = net.stats();
    assert!(s.forced_local_releases >= 1, "{s:?}");
    assert!(net.cache(n0).get(n3).is_none(), "victim evicted");
    assert!(net.cache(n0).get(n2).is_some());
    assert!(net.audit().is_empty());
}

#[test]
fn probe_misroutes_around_reserved_lane() {
    // 3x3 mesh, k=1: A = (0,0)->(1,0) takes the +X lane out of the
    // corner; B = (0,0)->(2,0) must leave through +Y (a misroute) and
    // still reach its destination in phase one.
    let c = WaveConfig {
        k: 1,
        misroutes: 2,
        cache_capacity: 8,
        ..cfg(ProtocolKind::Clrp)
    };
    let mut net = mesh(&[3, 3], c);
    let a = node(&net, &[0, 0]);
    let d1 = node(&net, &[1, 0]);
    let d2 = node(&net, &[2, 0]);
    net.send(0, Message::new(1, a, d1, 8, 0));
    let t = run(&mut net, 0, 20_000);
    net.send(t, Message::new(2, a, d2, 8, t));
    run(&mut net, t, t + 50_000);
    assert_eq!(net.drain_deliveries().len(), 2);
    let s = net.stats();
    assert!(s.probe_misroutes >= 1, "{s:?}");
    assert_eq!(s.forced_local_releases + s.forced_remote_releases, 0);
    assert_eq!(net.circuits().len(), 2, "both circuits coexist");
    assert!(net.audit().is_empty());
}

#[test]
fn cache_replacement_evicts_lru_victim() {
    let c = WaveConfig {
        cache_capacity: 1,
        ..cfg(ProtocolKind::Clrp)
    };
    let mut net = mesh(&[4, 4], c);
    let src = node(&net, &[0, 0]);
    let d1 = node(&net, &[3, 0]);
    let d2 = node(&net, &[0, 3]);
    net.send(0, Message::new(1, src, d1, 16, 0));
    let t = run(&mut net, 0, 20_000);
    net.send(t, Message::new(2, src, d2, 16, t));
    run(&mut net, t, t + 50_000);
    assert_eq!(net.drain_deliveries().len(), 2);
    let s = net.stats();
    assert_eq!(s.cache_evictions, 1);
    assert!(net.cache(src).get(d1).is_none(), "d1 evicted");
    assert!(net.cache(src).get(d2).is_some());
    assert_eq!(net.circuits().len(), 1);
    assert!(net.audit().is_empty());
}

#[test]
fn skip_phase1_variant_starts_with_force() {
    let c = WaveConfig {
        k: 1,
        misroutes: 0,
        clrp: ClrpVariant {
            skip_phase1: true,
            ..Default::default()
        },
        ..cfg(ProtocolKind::Clrp)
    };
    let mut net = mesh(&[4], c);
    net.send(0, Message::new(1, NodeId(0), NodeId(3), 8, 0));
    let t = run(&mut net, 0, 20_000);
    // Second circuit immediately forces the victim without a phase-1
    // round: exactly one probe for the second establishment.
    let probes_before = net.stats().probes_sent;
    net.send(t, Message::new(2, NodeId(1), NodeId(2), 8, t));
    run(&mut net, t, t + 50_000);
    assert_eq!(net.stats().probes_sent, probes_before + 1);
    assert!(net.stats().forced_remote_releases >= 1);
    assert_eq!(net.drain_deliveries().len(), 2);
}

#[test]
fn deterministic_replay() {
    let build = || {
        let mut net = mesh(&[4, 4], cfg(ProtocolKind::Clrp));
        let mut id = 0;
        let topo = net.topology().clone();
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a != b && (a.0 * 7 + b.0) % 5 == 0 {
                    net.send(0, Message::new(id, a, b, 24, 0));
                    id += 1;
                }
            }
        }
        run(&mut net, 0, 300_000);
        let mut ds: Vec<(u64, u64)> = net
            .drain_deliveries()
            .iter()
            .map(|d| (d.msg.id.0, d.delivered_at))
            .collect();
        ds.sort_unstable();
        ds
    };
    assert_eq!(build(), build());
}

#[test]
fn saturating_clrp_traffic_drains_and_audits_clean() {
    // Every node talks to several destinations; circuit contention
    // forces replacements and phase transitions all over the fabric.
    let c = WaveConfig {
        cache_capacity: 2,
        ..cfg(ProtocolKind::Clrp)
    };
    let mut net = mesh(&[4, 4], c);
    let topo = net.topology().clone();
    let mut id = 0;
    for a in topo.nodes() {
        for off in [1u32, 5, 9, 13] {
            let b = NodeId((a.0 + off) % 16);
            if a != b {
                net.send(0, Message::new(id, a, b, 32, 0));
                id += 1;
            }
        }
    }
    let end = run(&mut net, 0, 2_000_000);
    assert!(!net.busy(), "all traffic must drain (no deadlock) by {end}");
    let ds = net.drain_deliveries();
    assert_eq!(ds.len() as u64, id);
    assert!(net.audit().is_empty(), "{:?}", net.audit());
    // The livelock bound of Theorems 3/4 holds.
    let bound = ProbeState::step_bound(&topo);
    assert!(net.max_probe_steps() <= bound);
}

#[test]
fn wormhole_config_is_respected() {
    let c = WaveConfig {
        wormhole: WormholeConfig {
            w: 4,
            buffer_depth: 8,
            routing: RoutingKind::Adaptive,
            routing_delay: 2,
        },
        ..cfg(ProtocolKind::WormholeOnly)
    };
    let net = mesh(&[4, 4], c);
    assert_eq!(net.fabric().config().w, 4);
    assert_eq!(net.fabric().routing().name(), "duato-adaptive");
}

#[test]
fn clrp_pays_realloc_for_longer_messages() {
    let cfg = WaveConfig {
        protocol: ProtocolKind::Clrp,
        initial_buffer_flits: 32,
        realloc_penalty: 40,
        ..WaveConfig::default()
    };
    let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), cfg);
    let topo = net.topology().clone();
    let src = topo.node(Coords::new(&[0, 0]));
    let dest = topo.node(Coords::new(&[3, 3]));
    // Fits the initial buffer: no penalty.
    net.send(0, Message::new(1, src, dest, 32, 0));
    let t = run(&mut net, 0, 50_000);
    assert_eq!(net.stats().buffer_reallocs, 0);
    // Longer: one re-allocation, buffer grows to 128.
    net.send(t, Message::new(2, src, dest, 128, t));
    let t = run(&mut net, t, t + 50_000);
    assert_eq!(net.stats().buffer_reallocs, 1);
    assert_eq!(net.cache(src).get(dest).unwrap().alloc_flits, Some(128));
    // Same length again: grown buffer suffices.
    net.send(t, Message::new(3, src, dest, 128, t));
    run(&mut net, t, t + 50_000);
    assert_eq!(net.stats().buffer_reallocs, 1);
    assert_eq!(net.drain_deliveries().len(), 3);
}

#[test]
fn realloc_penalty_delays_the_transfer() {
    let mk = |penalty: u32| {
        let cfg = WaveConfig {
            protocol: ProtocolKind::Clrp,
            initial_buffer_flits: 8,
            realloc_penalty: penalty,
            ..WaveConfig::default()
        };
        let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), cfg);
        let topo = net.topology().clone();
        let src = topo.node(Coords::new(&[0, 0]));
        let dest = topo.node(Coords::new(&[3, 3]));
        net.send(0, Message::new(1, src, dest, 200, 0));
        run(&mut net, 0, 50_000);
        net.drain_deliveries()[0].latency()
    };
    let cheap = mk(0);
    let costly = mk(100);
    assert_eq!(costly, cheap + 100, "penalty shifts delivery 1:1");
}

#[test]
fn carp_never_reallocates() {
    let cfg = WaveConfig {
        protocol: ProtocolKind::Carp,
        initial_buffer_flits: 8,
        realloc_penalty: 100,
        ..WaveConfig::default()
    };
    let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), cfg);
    let topo = net.topology().clone();
    let src = topo.node(Coords::new(&[0, 0]));
    let dest = topo.node(Coords::new(&[3, 3]));
    net.carp_establish(0, src, dest);
    let t = run(&mut net, 0, 50_000);
    // CARP sized the buffers from the message set: huge message, no
    // penalty ever.
    net.send(t, Message::new(1, src, dest, 4096, t));
    run(&mut net, t, t + 100_000);
    assert_eq!(net.stats().buffer_reallocs, 0);
    assert_eq!(net.cache(src).get(dest).unwrap().alloc_flits, None);
    assert_eq!(net.drain_deliveries().len(), 1);
}

/// `probe_fault_encounters` counts *rejections*, not distinct faulty
/// lanes: two establishment attempts bouncing off the same faulty lanes
/// must double the counter (the semantics pinned in `WaveStats`).
#[test]
fn fault_encounters_count_per_encounter_not_per_lane() {
    let c = WaveConfig {
        k: 2,
        misroutes: 0,
        ..cfg(ProtocolKind::Clrp)
    };
    let mut net = mesh(&[2], c);
    let topo = net.topology().clone();
    let link = topo.links().next().expect("one link in a 2-node mesh");
    for s in 1..=2 {
        net.schedule_fault(0, FaultEvent::Fail(LaneId::new(link, s)))
            .expect("fault a known-good lane");
    }
    let src = NodeId(0);
    let dest = NodeId(1);
    net.send(0, Message::new(1, src, dest, 8, 0));
    let t = run(&mut net, 0, 20_000);
    // The establishment attempt scanned both faulty lanes at least once
    // (CLRP's phases may re-scan them; each scan counts).
    let first = net.stats().probe_fault_encounters;
    assert!(first >= 2, "both lanes rejected at least once: {first}");
    // CLRP forgot the failed attempt, so the next send probes again and
    // rejects the *same two lanes* all over: the counter doubles even
    // though no new faulty lane exists.
    assert!(net.cache(src).get(dest).is_none());
    net.send(t, Message::new(2, src, dest, 8, t));
    run(&mut net, t, t + 20_000);
    assert_eq!(
        net.stats().probe_fault_encounters,
        2 * first,
        "same lanes re-scanned must count again (per encounter)"
    );
    assert_eq!(
        net.drain_deliveries().len(),
        2,
        "wormhole fallback delivers"
    );
}

/// A dynamic fault landing on a lane of an *active*, streaming circuit
/// tears the circuit down mid-transfer — and every in-flight and queued
/// message is still delivered (retry, then wormhole degradation; the
/// wormhole plane is unaffected by wave-lane faults).
#[test]
fn mid_run_fault_on_active_circuit_delivers_all_in_flight() {
    let mut net = mesh(&[6], cfg(ProtocolKind::Clrp));
    let topo = net.topology().clone();
    let src = NodeId(0);
    let dest = NodeId(5);
    // Three long messages: the circuit streams for thousands of cycles
    // after the ack returns, so a fault shortly after Ready is
    // guaranteed to hit a live, in-use circuit.
    for i in 0..3 {
        net.send(0, Message::new(i, src, dest, 1024, 0));
    }
    let mut now = 0;
    loop {
        net.tick(now);
        now += 1;
        if net.cache(src).get(dest).is_some_and(|e| e.ack_returned) {
            break;
        }
        assert!(now < 10_000, "circuit should be Ready by now");
    }
    // The 1D path 0 -> 5 crosses the link 2 -> 3; fault every one of its
    // lanes so the retry cannot route around it either.
    let mid = topo
        .links()
        .find(|&l| topo.link_endpoints(l).0 == NodeId(2) && topo.link_dest(l) == NodeId(3))
        .expect("mid-path link");
    for s in 1..=net.config().k {
        net.schedule_fault(now + 5, FaultEvent::Fail(LaneId::new(mid, s)))
            .expect("lane exists");
    }
    run(&mut net, now, now + 200_000);
    assert!(!net.busy(), "network must drain after the mid-run fault");
    let ds = net.drain_deliveries();
    assert_eq!(ds.len(), 3, "every in-flight message is delivered");
    let s = net.stats();
    assert!(
        s.circuits_broken >= 1,
        "the streaming circuit was torn down"
    );
    assert_eq!(s.lane_faults, u64::from(net.config().k));
    assert!(
        s.establish_retries >= 1,
        "CLRP retried before degrading: {s:?}"
    );
    assert!(net.audit().is_empty(), "{:?}", net.audit());
}

/// With a slow control plane, the ack's per-hop progression is
/// observable: routers near the destination see Ack Returned set
/// before the source's Circuit Cache entry becomes Ready.
#[test]
fn ack_propagates_hop_by_hop() {
    let cfg = WaveConfig {
        ctrl_hop_delay: 4,
        pcs_delay: 1,
        ..WaveConfig::default()
    };
    let mut net = WaveNetwork::new(Topology::mesh(&[6]), cfg);
    let topo = net.topology().clone();
    let src = topo.node(Coords::new(&[0]));
    let dest = topo.node(Coords::new(&[5]));
    net.send(0, Message::new(1, src, dest, 8, 0));
    // Tick until the probe reaches the destination (5 forward hops at
    // 5 cycles each + source processing) but before the ack crosses
    // the whole path back (5 hops at 4 cycles each).
    let mut now = 0;
    let cid = loop {
        net.tick(now);
        now += 1;
        if let Some((id, c)) = net.circuits().iter().next() {
            if c.hops() == 5 && net.probes().is_empty() {
                break id;
            }
        }
        assert!(now < 1_000, "probe should have completed by now");
    };
    // Let the ack cross two hops only.
    for _ in 0..9 {
        net.tick(now);
        now += 1;
    }
    let near_dest = topo.node(Coords::new(&[4]));
    assert_eq!(
        net.pcs_ack_returned(near_dest, cid),
        Some(true),
        "router next to the destination has seen the ack"
    );
    assert_eq!(
        net.pcs_ack_returned(src, cid),
        Some(false),
        "the source has not"
    );
    assert_eq!(
        net.cache(src).get(dest).unwrap().state,
        EntryState::Establishing,
        "entry not Ready until the ack arrives home"
    );
    // Finish: the message is delivered over the circuit.
    while net.busy() && now < 50_000 {
        net.tick(now);
        now += 1;
    }
    assert_eq!(net.pcs_ack_returned(src, cid), Some(true));
    assert_eq!(net.drain_deliveries().len(), 1);
}
