//! The routing-protocol knob of §2: "the routing protocols for wormhole
//! switching and PCS" are parameters of the architecture. This example
//! compares the two wormhole fall-back routing functions this library
//! implements — deterministic dimension-order routing vs Duato-style
//! minimal fully adaptive routing — under hotspot pressure, where
//! adaptivity is known to help.
//!
//! Both functions are certified deadlock-free first (the Dally–Seitz /
//! Duato conditions run mechanically), then raced on the same traffic.
//!
//! ```sh
//! cargo run --release --example adaptive_fallback
//! ```

use wavesim::core::{ProtocolKind, WaveConfig, WaveNetwork};
use wavesim::network::WormholeConfig;
use wavesim::sim::stats::Accumulator;
use wavesim::topology::{RoutingKind, Topology};
use wavesim::verify::check_deadlock_freedom;
use wavesim::workloads::{LengthDist, TrafficConfig, TrafficPattern, TrafficSource};

fn run(kind: RoutingKind, w: u8) -> (f64, u64) {
    let topo = Topology::mesh(&[8, 8]);
    let mut net = WaveNetwork::new(
        topo.clone(),
        WaveConfig {
            protocol: ProtocolKind::WormholeOnly,
            wormhole: WormholeConfig {
                w,
                routing: kind,
                ..WormholeConfig::default()
            },
            ..WaveConfig::default()
        },
    );
    let mut src = TrafficSource::new(
        topo,
        TrafficConfig {
            load: 0.25,
            pattern: TrafficPattern::Hotspot {
                node: 27,
                fraction: 0.15,
            },
            len: LengthDist::Fixed(24),
            seed: 3,
        },
    );
    src.stop_at(15_000);
    let mut lat = Accumulator::new();
    let mut delivered = 0u64;
    let mut now = 0;
    loop {
        for m in src.poll(now) {
            net.send(now, m);
        }
        if now >= 15_000 && !net.busy() {
            break;
        }
        net.tick(now);
        for d in net.drain_deliveries() {
            lat.record(d.latency() as f64);
            delivered += 1;
        }
        now += 1;
        assert!(now < 5_000_000, "run did not drain");
    }
    (lat.mean(), delivered)
}

fn main() {
    let topo = Topology::mesh(&[8, 8]);
    println!("certifying both fall-back routing functions (paper §4 grounding):");
    for (name, kind, w) in [
        ("deterministic DOR", RoutingKind::Deterministic, 3u8),
        ("Duato adaptive   ", RoutingKind::Adaptive, 3),
    ] {
        let routing = kind.build(&topo, w);
        let rep = check_deadlock_freedom(&topo, routing.as_ref());
        println!(
            "  {name}: {} dependency edges -> {}",
            rep.edges,
            if rep.deadlock_free {
                "DEADLOCK-FREE"
            } else {
                "CYCLE!"
            }
        );
        assert!(rep.deadlock_free);
    }

    println!();
    println!("hotspot traffic (15% to one node), 8x8 mesh, w = 3 VCs:");
    let (det_lat, det_n) = run(RoutingKind::Deterministic, 3);
    let (ada_lat, ada_n) = run(RoutingKind::Adaptive, 3);
    println!("  deterministic DOR : {det_lat:>7.1} cycles avg ({det_n} delivered)");
    println!("  Duato adaptive    : {ada_lat:>7.1} cycles avg ({ada_n} delivered)");
    assert_eq!(det_n, ada_n, "same workload, same deliveries");
    println!();
    if ada_lat < det_lat {
        println!(
            "Adaptive routing routes around the hotspot: {:.1}% lower latency.",
            (1.0 - ada_lat / det_lat) * 100.0
        );
    } else {
        println!("At this load the deterministic function held its own.");
    }
}
