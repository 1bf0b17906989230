//! Allocation budget of the probe step: a CLRP run whose time goes to
//! probes must not pay the heap per step. The History Store, path and
//! offset buffers are recycled between probes and the port sets live on
//! the stack, so what is left per step is the run's other bookkeeping
//! (message queues, event calendars), amortised.
//!
//! Measured with a counting global allocator, so this suite owns its own
//! integration binary (one test — allocation accounting is process-wide).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use wavesim::core::{ProtocolKind, WaveConfig, WaveNetwork};
use wavesim::topology::Topology;
use wavesim::workloads::{LengthDist, TrafficConfig, TrafficPattern, TrafficSource};

/// [`System`] wrapped with a count of allocation requests.
struct CountingAlloc;

static REQUESTS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

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
    let mut delivered = Vec::new();
    let mut run = |net: &mut WaveNetwork, from: u64, to: u64| {
        for now in from..to {
            for msg in src.poll(now) {
                net.send(now, msg);
            }
            net.tick(now);
            delivered.clear();
            net.drain_deliveries_into(&mut delivered);
        }
    };
    // A probe step as wavebench's `core.probe_steps` counts it.
    let probe_steps = |net: &WaveNetwork| {
        let s = net.stats();
        s.probe_hops + s.probe_backtracks + s.probe_misroutes
    };

    // Warm-up fills the spare-buffer list, the probe and circuit slabs and
    // the calendars to their working sizes.
    run(&mut net, 0, WARM_UP);
    let steps_before = probe_steps(&net);
    let requests_before = REQUESTS.load(Ordering::Relaxed);
    run(&mut net, WARM_UP, WARM_UP + MEASURED);
    let requests = REQUESTS.load(Ordering::Relaxed) - requests_before;
    let steps = probe_steps(&net) - steps_before;

    assert!(steps > 20_000, "the run is probe-bound: {steps} steps");
    let per_step = requests as f64 / steps as f64;
    assert!(
        per_step <= 0.25,
        "{requests} allocations over {steps} probe steps = {per_step:.3} per step"
    );
}
