//! Fault tolerance of circuit establishment: the MB-m probe protocol
//! backtracks and misroutes around statically faulty wave lanes (§2 of
//! the paper: "this protocol is very resilient to static faults"). A
//! static fault is a fail event at cycle 0.
//!
//! Breaks a growing fraction of wave lanes and shows that (a) no message
//! is ever lost — wormhole fallback covers unreachable circuits — and
//! (b) circuit usage degrades gracefully rather than collapsing.
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```

use wavesim::core::{ProtocolKind, WaveConfig, WaveNetwork};
use wavesim::network::message::DeliveryMode;
use wavesim::topology::Topology;
use wavesim::workloads::{FaultSchedule, LengthDist, TrafficConfig, TrafficPattern, TrafficSource};
use wavesim_bench::apply_fault_schedule;

fn run(fault_rate: f64) -> (usize, usize, usize, f64) {
    let topo = Topology::mesh(&[8, 8]);
    let cfg = WaveConfig {
        protocol: ProtocolKind::Clrp,
        misroutes: 3,
        ..WaveConfig::default()
    };
    let mut net = WaveNetwork::new(topo.clone(), cfg);
    let faults = FaultSchedule::random_lanes(&topo, cfg.k, fault_rate, 1234);
    apply_fault_schedule(&mut net, &faults).expect("schedule matches topology");

    let mut src = TrafficSource::new(
        topo,
        TrafficConfig {
            load: 0.1,
            pattern: TrafficPattern::HotPairs {
                partners: 3,
                locality: 0.85,
            },
            len: LengthDist::Fixed(64),
            seed: 7,
            stop_at: 15_000,
        },
    );

    let mut sent = 0usize;
    let mut delivered = 0usize;
    let mut on_circuit = 0usize;
    let mut now = 0;
    loop {
        for m in src.poll(now) {
            sent += 1;
            net.send(now, m);
        }
        if now >= 15_000 && !net.busy() {
            break;
        }
        net.tick(now);
        for d in net.drain_deliveries() {
            delivered += 1;
            if d.mode == DeliveryMode::Circuit {
                on_circuit += 1;
            }
        }
        now += 1;
        assert!(now < 2_000_000, "run did not drain");
    }
    (
        sent,
        delivered,
        faults.len(),
        on_circuit as f64 / delivered.max(1) as f64,
    )
}

fn main() {
    println!("static wave-lane faults vs CLRP (8x8 mesh, m = 3 misroutes)");
    println!();
    println!("fault rate   faulty lanes   sent   delivered   circuit share");
    for &rate in &[0.0, 0.1, 0.25, 0.5] {
        let (sent, delivered, lanes, share) = run(rate);
        println!(
            "   {:>4.0}%        {lanes:>5}      {sent:>5}     {delivered:>5}        {:>5.1}%",
            rate * 100.0,
            share * 100.0
        );
        assert_eq!(sent, delivered, "faults must never lose messages");
    }
    println!();
    println!("Probes steer around faulty lanes; when no fault-free path exists the");
    println!("message silently falls back to wormhole switching — delivery stays 100%.");
}
