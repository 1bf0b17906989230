//! Allocation budgets of a run in steady state: a CLRP run whose time
//! goes to probes must not pay the heap per probe step, and a
//! wormhole-only run must not pay it per message. The History Store, path
//! and offset buffers are recycled between probes, a completed circuit's
//! path between circuits, waiter lists and entry queues between their
//! users, and the sources fire from a calendar into one reused buffer, so
//! what is left is the run's growth to its working sizes, amortised.
//!
//! A dependency trace is flat (DESIGN §15.1): building one, however many
//! messages it holds, starting its replay and saving it cost a fixed
//! handful of allocations, not a heap block per message.
//!
//! The analysis document (`wavesim analyze --json`) is written through
//! one JSON writer, not built as a tree: printing it costs the growth of
//! its one output string, not a heap block per flow or lane.
//!
//! Measured with a counting global allocator. The count is per thread, so
//! the two tests of this binary may run side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wavesim::core::{ProtocolKind, WaveConfig, WaveNetwork};
use wavesim::network::Delivery;
use wavesim::topology::Topology;
use wavesim::trace::stream::{take_listener, StreamSink, CHUNK_RECORDS};
use wavesim::trace::VecSink;
use wavesim::workloads::trace_io::{save_dep_trace, save_dep_trace_jsonl};
use wavesim::workloads::{
    collectives, CarpOp, LengthDist, TrafficConfig, TrafficPattern, TrafficSource, Workload,
};
use wavesim_analyze::{analyze, report, AnalyzeOptions};
use wavesim_bench::apply_op;

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

/// Drives `net` from `src` over cycles `from..to` as the runner does:
/// one reused buffer for the due ops and one for the deliveries. Returns
/// the messages delivered.
fn run(
    net: &mut WaveNetwork,
    src: &mut TrafficSource,
    bufs: &mut (Vec<CarpOp>, Vec<Delivery>),
    from: u64,
    to: u64,
) -> u64 {
    let (ops, delivered) = bufs;
    let mut n = 0;
    for now in from..to {
        src.due(now, ops);
        for op in ops.drain(..) {
            apply_op(net, now, op);
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

#[test]
fn a_dependency_trace_builds_in_a_fixed_handful_of_allocations() {
    for side in [8u16, 16] {
        let topo = Topology::torus(&[side, side]);
        let n = usize::from(side * side);

        let before = requests();
        let trace = collectives::all_to_all(&topo, 32);
        let built = requests() - before;
        assert_eq!(trace.len(), n * (n - 1));
        println!(
            "{side}x{side} all-to-all: {built} allocations for {} messages",
            trace.len()
        );
        // Measured 9 at both sizes: the builder's three arrays, the id
        // index, the resolved dependencies, the dependents' two arrays and
        // the cycle check's counts and queue. A heap block per message or
        // per edge breaks it at once.
        assert!(
            built <= 32,
            "{side}x{side} all-to-all: {built} allocations for {} messages",
            trace.len()
        );

        let before = requests();
        let replay = trace.replay();
        let started = requests() - before;
        // The waiting counts and the ready heap.
        assert!(started <= 4, "{side}x{side} replay: {started} allocations");
        drop(replay);

        // Saving writes each message straight through the JSON writer:
        // the document into one string, the JSONL lines through one
        // reused line buffer. What is left is the growth of those and of
        // the output vector: measured 23 (JSON) and 25 (JSONL) at 16x16,
        // where a tree per message took 40,152 at 8x8.
        for format in ["JSON", "JSONL"] {
            let mut out = Vec::new();
            let before = requests();
            if format == "JSON" {
                save_dep_trace(&trace, &mut out)
            } else {
                save_dep_trace_jsonl(&trace, &mut out)
            }
            .expect("in memory");
            let saved = requests() - before;
            println!(
                "{side}x{side} all-to-all saved as {format}: {saved} allocations for {} bytes",
                out.len()
            );
            assert!(
                saved <= 64,
                "{side}x{side} all-to-all saved as {format}: {saved} allocations"
            );
        }
    }
}

#[test]
fn the_analysis_document_is_written_in_a_fixed_handful_of_allocations() {
    let topo = Topology::torus(&[8, 8]);
    let mut net = WaveNetwork::new(
        topo.clone(),
        WaveConfig {
            protocol: ProtocolKind::Clrp,
            ..WaveConfig::default()
        },
    );
    net.install_trace_sink(Box::new(StreamSink::listening(
        vec![Box::new(VecSink::new())],
        CHUNK_RECORDS,
    )));
    let mut src = TrafficSource::new(
        topo,
        TrafficConfig {
            load: 0.1,
            pattern: TrafficPattern::Uniform,
            len: LengthDist::Fixed(32),
            ..TrafficConfig::default()
        },
    );
    run(&mut net, &mut src, &mut (Vec::new(), Vec::new()), 0, 3_000);
    let mut sink = net.take_trace_sink().expect("a stream installed");
    sink.finish().expect("an in-memory stream");
    let records = take_listener::<VecSink>(&mut sink.listeners())
        .expect("handed back")
        .into_records();
    let a = analyze(&records, AnalyzeOptions::default());
    assert!(a.flows.len() >= 500, "{} flows", a.flows.len());

    let before = requests();
    let doc = report::to_json(&a).pretty();
    let written = requests() - before;
    println!(
        "analysis document: {written} allocations for {} flows, {} lanes, {} bytes",
        a.flows.len(),
        a.lanes.len(),
        doc.len()
    );
    // Measured 17 (568 flows, 512 lanes, 325 kB): the output string's
    // doublings, about log2 of its length. A tree of the document took
    // 14,569; a heap block per flow, lane or window breaks it at once.
    assert!(
        written <= 48,
        "analysis document: {written} allocations for {} flows",
        a.flows.len()
    );
}
