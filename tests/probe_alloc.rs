//! Allocation budgets of a run in steady state: a CLRP run whose time
//! goes to probes must not pay the heap per probe step, and a
//! wormhole-only run must not pay it per message. The History Store, path
//! and offset buffers are recycled between probes, a completed circuit's
//! path between circuits, waiter lists and entry queues between their
//! users, and the sources fire from a calendar into one reused buffer, so
//! what is left is the run's growth to its working sizes, amortised.
//!
//! Measured with a counting global allocator. The count is per thread, so
//! the two tests of this binary may run side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wavesim::core::{ProtocolKind, WaveConfig, WaveNetwork};
use wavesim::network::{Delivery, Message};
use wavesim::topology::Topology;
use wavesim::workloads::{LengthDist, TrafficConfig, TrafficPattern, TrafficSource};

/// [`System`] wrapped with a per-thread count of allocation requests.
struct CountingAlloc;

thread_local! {
    static REQUESTS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left to bump.
    let _ = REQUESTS.try_with(|n| n.set(n.get() + 1));
}

/// Allocation requests this thread has made so far.
fn requests() -> u64 {
    REQUESTS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Drives `net` from `src` over cycles `from..to` as the open-loop runner
/// does: one reused buffer for the polled messages and one for the
/// deliveries. Returns the messages delivered.
fn run(
    net: &mut WaveNetwork,
    src: &mut TrafficSource,
    bufs: &mut (Vec<Message>, Vec<Delivery>),
    from: u64,
    to: u64,
) -> u64 {
    let (polled, delivered) = bufs;
    let mut n = 0;
    for now in from..to {
        src.poll_into(now, polled);
        for msg in polled.drain(..) {
            net.send(now, msg);
        }
        net.tick(now);
        delivered.clear();
        net.drain_deliveries_into(delivered);
        n += delivered.len() as u64;
    }
    n
}

#[test]
fn probe_steps_stay_off_the_heap() {
    const WARM_UP: u64 = 2_000;
    const MEASURED: u64 = 8_000;

    let topo = Topology::torus(&[16, 16]);
    let mut net = WaveNetwork::new(
        topo.clone(),
        WaveConfig {
            protocol: ProtocolKind::Clrp,
            ..WaveConfig::default()
        },
    );
    let mut src = TrafficSource::new(
        topo,
        TrafficConfig {
            load: 0.05,
            pattern: TrafficPattern::HotPairs {
                partners: 3,
                locality: 0.7,
            },
            len: LengthDist::Fixed(64),
            ..TrafficConfig::default()
        },
    );
    let mut bufs = (Vec::new(), Vec::new());
    // A probe step as wavebench's `core.probe_steps` counts it.
    let probe_steps = |net: &WaveNetwork| {
        let s = net.stats();
        s.probe_hops + s.probe_backtracks + s.probe_misroutes
    };

    // Warm-up fills the spare-buffer list, the probe and circuit slabs and
    // the calendars to their working sizes.
    run(&mut net, &mut src, &mut bufs, 0, WARM_UP);
    let steps_before = probe_steps(&net);
    let requests_before = requests();
    run(&mut net, &mut src, &mut bufs, WARM_UP, WARM_UP + MEASURED);
    let requests = requests() - requests_before;
    let steps = probe_steps(&net) - steps_before;

    assert!(steps > 20_000, "the run is probe-bound: {steps} steps");
    let per_step = requests as f64 / steps as f64;
    println!("{requests} allocations over {steps} probe steps = {per_step:.4} per step");
    // Measured 0.0036 (253 allocations over 69,904 steps), rounded up to
    // the next 0.01: a per-probe, per-park or per-bucket allocation
    // breaks it.
    assert!(
        per_step <= 0.01,
        "{requests} allocations over {steps} probe steps = {per_step:.3} per step"
    );
}

#[test]
fn wormhole_messages_stay_off_the_heap() {
    const WARM_UP: u64 = 2_000;
    const MEASURED: u64 = 8_000;

    let topo = Topology::torus(&[16, 16]);
    let mut net = WaveNetwork::new(
        topo.clone(),
        WaveConfig {
            protocol: ProtocolKind::WormholeOnly,
            ..WaveConfig::default()
        },
    );
    let mut src = TrafficSource::new(
        topo,
        TrafficConfig {
            load: 0.04,
            pattern: TrafficPattern::HotPairs {
                partners: 3,
                locality: 0.7,
            },
            len: LengthDist::Fixed(64),
            ..TrafficConfig::default()
        },
    );
    let mut bufs = (Vec::new(), Vec::new());

    // Warm-up grows the fabric's queues, the calendars and both buffers
    // to their working sizes.
    run(&mut net, &mut src, &mut bufs, 0, WARM_UP);
    let requests_before = requests();
    let delivered = run(&mut net, &mut src, &mut bufs, WARM_UP, WARM_UP + MEASURED);
    let requests = requests() - requests_before;

    assert!(delivered > 1_000, "the run delivers: {delivered} messages");
    let per_msg = requests as f64 / delivered as f64;
    println!("{requests} allocations over {delivered} messages = {per_msg:.4} per message");
    // Measured 0.0094 (12 allocations over 1,270 messages), rounded up to
    // the next 0.01: a per-message or per-poll allocation breaks it.
    assert!(
        per_msg <= 0.01,
        "{requests} allocations over {delivered} messages = {per_msg:.3} per message"
    );
}
