//! Allocation behaviour of the analysis fold: what `LiveAnalytics` asks
//! the heap for depends on the record stream alone, and is amortised
//! table growth — not a node per map entry, a `Vec` per probe or a
//! randomly keyed hasher's idea of when to regrow.
//!
//! Measured with a counting global allocator, so this suite owns its own
//! integration binary (one test — allocation accounting is process-wide).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use wavesim_analyze::{analyze, AnalyzeOptions};
use wavesim_trace::{PlaneId, TraceEvent, TraceRecord};

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

/// One circuit setup at a time per walker: miss, launch, a backtracking
/// search, then either a circuit that carries two messages and is released
/// or an abandoned setup and a wormhole fallback.
struct Walker {
    src: u32,
    dest: u32,
    circuit: u64,
    probe: u64,
    /// The message it last started.
    msg: u64,
    depth: u32,
    /// Steps left in the search, then the fixed tail of the lifecycle.
    steps: u32,
    tail: u32,
    reaches: bool,
}

/// A CLRP-shaped stream: `walkers` setups in flight at once, interleaved
/// cycle by cycle, ids minted as `generation << 32 | slot` like the
/// simulator's. Everything derives from a fixed LCG.
fn synthetic_stream(walkers: u32, min_records: usize) -> Vec<TraceRecord> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut draw = move |n: u32| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((state >> 33) % u64::from(n)) as u32
    };
    let mut out = Vec::with_capacity(min_records + 64);
    let mut active: Vec<Option<Walker>> = (0..walkers).map(|_| None).collect();
    let (mut generation, mut msgs, mut at) = (vec![0u64; walkers as usize], 0u64, 0u64);
    while out.len() < min_records {
        let mut emit = |ev| {
            let seq = out.len() as u64;
            out.push(TraceRecord { at, seq, ev });
        };
        emit(TraceEvent::PlaneTick {
            plane: PlaneId::Control,
        });
        for slot in 0..walkers as usize {
            let Some(w) = &mut active[slot] else {
                generation[slot] += 1;
                let id = generation[slot] << 32 | slot as u64;
                let w = Walker {
                    src: draw(256),
                    dest: draw(256),
                    circuit: id,
                    probe: id ^ 0x5555,
                    msg: 0,
                    depth: 0,
                    steps: 8 + draw(40),
                    tail: 0,
                    reaches: draw(10) < 7,
                };
                emit(TraceEvent::CacheMiss {
                    node: w.src,
                    dest: w.dest,
                });
                emit(TraceEvent::ProbeLaunch {
                    circuit: w.circuit,
                    src: w.src,
                    dest: w.dest,
                    switch: 1 + draw(2) as u8,
                    force: draw(4) == 0,
                });
                active[slot] = Some(w);
                continue;
            };
            let (circuit, probe, src, dest) = (w.circuit, w.probe, w.src, w.dest);
            if w.steps > 0 {
                w.steps -= 1;
                if w.depth > 0 && draw(10) < 4 {
                    w.depth -= 1;
                    emit(TraceEvent::ProbeBacktrack {
                        circuit,
                        probe,
                        node: draw(256),
                    });
                } else {
                    w.depth += 1;
                    emit(TraceEvent::ProbeHop {
                        circuit,
                        probe,
                        node: draw(256),
                        link: draw(1024),
                        misroute: false,
                    });
                }
                continue;
            }
            w.tail += 1;
            let done = match (w.reaches, w.tail) {
                (true, 1) => {
                    emit(TraceEvent::CircuitEstablished {
                        circuit,
                        src,
                        dest,
                        hops: w.depth,
                    });
                    false
                }
                (true, 2 | 4) => {
                    msgs += 1;
                    w.msg = msgs;
                    emit(TraceEvent::TransferStart {
                        circuit,
                        msg: w.msg,
                        src,
                        dest,
                        len_flits: 64,
                    });
                    false
                }
                (true, 3 | 5) => {
                    emit(TraceEvent::CircuitDeliver {
                        msg: w.msg,
                        src,
                        dest,
                        latency: 20 + u64::from(w.depth),
                    });
                    false
                }
                (true, _) => {
                    emit(TraceEvent::CircuitReleased { circuit });
                    true
                }
                (false, 1) => {
                    emit(TraceEvent::CircuitAbandoned { circuit });
                    msgs += 1;
                    w.msg = msgs;
                    emit(TraceEvent::WormholeInject {
                        msg: w.msg,
                        src,
                        dest,
                        len_flits: 64,
                    });
                    false
                }
                (false, _) => {
                    emit(TraceEvent::WormholeDeliver {
                        msg: w.msg,
                        src,
                        dest,
                        latency: 90,
                    });
                    true
                }
            };
            if done {
                active[slot] = None;
            }
        }
        at += 1;
    }
    out
}

#[test]
fn fold_allocations_depend_on_the_stream_alone_and_are_amortised() {
    let records = synthetic_stream(400, 120_000);
    let pass = || {
        let before = REQUESTS.load(Ordering::Relaxed);
        let a = analyze(&records, AnalyzeOptions::default());
        let requests = REQUESTS.load(Ordering::Relaxed) - before;
        assert_eq!(a.summary.records, records.len() as u64);
        assert!(a.summary.delivered > 5_000 && a.lanes.len() > 2_000 && a.flows.len() > 3_000);
        requests
    };
    let (first, second) = (pass(), pass());
    assert_eq!(
        first, second,
        "two folds of one stream in one process must ask the heap for the same"
    );
    let budget = records.len() as u64 / 64;
    assert!(
        first < budget,
        "{first} allocations folding {} records (budget {budget})",
        records.len()
    );
}
