//! CARP driving a stencil kernel: the compiler knows each phase's
//! communication ahead of time, so it emits ESTABLISH instructions before
//! the data is ready ("prefetching" circuits, §3 of the paper), streams
//! the halo exchange over the circuits, and tears them down when the phase
//! ends.
//!
//! ```sh
//! cargo run --release --example carp_stencil
//! ```

use wavesim::core::{ProtocolKind, WaveConfig, WaveNetwork};
use wavesim::network::message::DeliveryMode;
use wavesim::topology::Topology;
use wavesim::workloads::{CarpTrace, Workload};
use wavesim_bench::apply_op;

fn main() {
    let topo = Topology::mesh(&[8, 8]);
    let mut net = WaveNetwork::new(
        topo.clone(),
        WaveConfig {
            protocol: ProtocolKind::Carp,
            ..WaveConfig::default()
        },
    );

    // 4 relaxation phases; each node sends 6 x 96-flit halo messages to
    // its +X and +Y neighbours per phase. The compiler leads each phase
    // with the ESTABLISH ops 300 cycles before the first send.
    let mut trace = CarpTrace::stencil(&topo, 4, 6, 96, 4_000, 300);
    let total_sends = trace.num_sends();
    println!(
        "stencil trace: {} ops, {} sends over {} cycles",
        trace.ops.len(),
        total_sends,
        trace.horizon()
    );

    let mut now = 0;
    let mut delivered = 0usize;
    let mut on_circuit = 0usize;
    let mut lat_sum = 0u64;
    let horizon = trace.horizon();
    let mut ops = Vec::new();
    loop {
        // ESTABLISH, SEND and TEARDOWN ops, as the compiler scheduled them.
        trace.due(now, &mut ops);
        for op in ops.drain(..) {
            apply_op(&mut net, now, op);
        }
        if now > horizon && !net.busy() {
            break;
        }
        net.tick(now);
        for d in net.drain_deliveries() {
            delivered += 1;
            lat_sum += d.latency();
            if d.mode == DeliveryMode::Circuit {
                on_circuit += 1;
            }
        }
        now += 1;
        assert!(now < 5_000_000, "run did not drain");
    }

    let s = net.stats();
    println!("delivered {delivered}/{total_sends} messages by cycle {now}");
    println!(
        "  over circuits: {on_circuit} ({:.1}%)   wormhole: {}",
        100.0 * on_circuit as f64 / delivered as f64,
        delivered - on_circuit
    );
    println!(
        "  mean latency: {:.1} cycles",
        lat_sum as f64 / delivered as f64
    );
    println!(
        "  circuits established: {}   torn down: {}   setup failures: {}",
        s.setups_ok, s.teardowns, s.setups_failed
    );
    assert_eq!(delivered, total_sends, "CARP must deliver everything");
    assert!(
        on_circuit * 2 > delivered,
        "with prefetched circuits, most halo traffic rides the wave switches"
    );
    println!("OK: phased establish/send/teardown worked end to end.");
}
