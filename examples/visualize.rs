//! Visualize the wave plane: establish a few circuits on an 8×8 mesh and
//! print the ASCII lane maps of both wave switches plus the circuit list.
//!
//! ```sh
//! cargo run --release --example visualize
//! ```

use wavesim::core::render::{render_circuits, render_lane_map};
use wavesim::core::{FaultEvent, LaneId, WaveConfig, WaveNetwork};
use wavesim::network::Message;
use wavesim::topology::{Coords, Topology};

fn main() {
    let topo = Topology::mesh(&[8, 8]);
    let mut net = WaveNetwork::new(topo.clone(), WaveConfig::default());

    // A broken cable in the middle of the board, failed at cycle 0.
    let victim = topo.node(Coords::new(&[3, 3]));
    let port = wavesim::topology::PortDir::new(0, wavesim::topology::Dir::Plus);
    for s in 1..=net.config().k {
        let lane = LaneId::new(topo.link_id(victim, port), s);
        net.schedule_fault(0, FaultEvent::Fail(lane))
            .expect("fault a known-good lane");
    }

    // A handful of circuits, including one that must dodge the fault.
    let sends = [
        ([0u16, 0u16], [7u16, 0u16]),
        ([0, 7], [7, 7]),
        ([2, 3], [6, 3]), // crosses the faulty region
        ([5, 1], [5, 6]),
    ];
    for (i, (s, d)) in sends.iter().enumerate() {
        let src = topo.node(Coords::new(s));
        let dest = topo.node(Coords::new(d));
        net.send(0, Message::new(i as u64, src, dest, 64, 0));
    }
    let mut now = 0;
    while net.busy() && now < 100_000 {
        net.tick(now);
        now += 1;
    }
    assert!(!net.busy());

    print!("{}", render_circuits(&net));
    println!();
    for s in 1..=net.config().k {
        print!("{}", render_lane_map(&net, s));
        println!();
    }
    println!("(note the x-marked faulty link at (3,3)->(4,3): the probe routed around it)");
}
