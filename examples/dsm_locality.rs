//! DSM-style communication locality: the workload the paper's introduction
//! motivates. Distributed-shared-memory nodes talk repeatedly to a few hot
//! partners (home nodes of their working set); wave switching turns that
//! temporal locality into pre-established circuits.
//!
//! Runs the same hot-pairs traffic through a plain wormhole network and
//! through CLRP, and prints the latency and circuit statistics side by
//! side.
//!
//! ```sh
//! cargo run --release --example dsm_locality
//! ```

use wavesim::core::{ProtocolKind, WaveConfig, WaveNetwork};
use wavesim::sim::stats::Accumulator;
use wavesim::topology::Topology;
use wavesim::workloads::{LengthDist, TrafficConfig, TrafficPattern, TrafficSource};

fn run(protocol: ProtocolKind, locality: f64) -> (f64, f64, u64) {
    let topo = Topology::mesh(&[8, 8]);
    let mut net = WaveNetwork::new(
        topo.clone(),
        WaveConfig {
            protocol,
            ..WaveConfig::default()
        },
    );
    let mut src = TrafficSource::new(
        topo,
        TrafficConfig {
            load: 0.15,
            pattern: TrafficPattern::HotPairs {
                partners: 3,
                locality,
            },
            len: LengthDist::Bimodal {
                short: 8,  // coherence commands
                long: 128, // cache-line streams / page moves
                frac_long: 0.3,
            },
            seed: 42,
        },
    );
    src.stop_at(20_000);
    let mut lat = Accumulator::new();
    let mut circuit_msgs = 0u64;
    let mut now = 0;
    loop {
        for m in src.poll(now) {
            net.send(now, m);
        }
        if now >= 20_000 && !net.busy() {
            break;
        }
        net.tick(now);
        for d in net.drain_deliveries() {
            lat.record(d.latency() as f64);
            if d.mode == wavesim::network::message::DeliveryMode::Circuit {
                circuit_msgs += 1;
            }
        }
        now += 1;
        assert!(now < 2_000_000, "run did not drain");
    }
    (lat.mean(), net.stats().hit_rate(), circuit_msgs)
}

fn main() {
    println!("DSM hot-partner traffic on an 8x8 mesh (bimodal 8/128-flit messages)");
    println!();
    println!("locality   wormhole lat   CLRP lat   CLRP hit rate   circuit msgs");
    for &loc in &[0.0, 0.5, 0.9] {
        let (wh, _, _) = run(ProtocolKind::WormholeOnly, loc);
        let (wv, hits, cmsgs) = run(ProtocolKind::Clrp, loc);
        println!(
            "   {loc:>4.2}      {wh:>8.1}     {wv:>8.1}        {:>5.1}%        {cmsgs:>6}",
            hits * 100.0
        );
    }
    println!();
    println!("Higher locality -> higher circuit-cache hit rate -> CLRP pulls ahead.");
}
