//! Reproducibility: a simulation is a pure function of its configuration
//! and seed. EXPERIMENTS.md's numbers are only meaningful because of
//! this property, so it gets its own integration suite.

mod common;

use std::collections::BTreeSet;

use common::{collected, collecting, fnv1a_bytes, golden_check, hash_str, FNV_OFFSET};
use wavesim::core::{ProtocolKind, WaveConfig, WaveNetwork, WaveStats};
use wavesim::network::Message;
use wavesim::topology::{NodeId, RoutingKind, Topology};
use wavesim::trace::{TraceEvent, TraceRecord};
use wavesim::workloads::trace_io;
use wavesim::workloads::{
    collectives, CarpTrace, FaultSchedule, LengthDist, ServiceConfig, ServiceWorkload,
    TrafficConfig, TrafficPattern, TrafficSource,
};
use wavesim_bench::experiments::{all_ids, run, run_all, Ctx};
use wavesim_bench::{
    apply_fault_schedule, run_carp_trace, run_open_loop, run_service, ParallelSweep, RunResult,
    RunSpec, Scale,
};

fn full_run(seed: u64, protocol: ProtocolKind) -> Vec<(u64, u64)> {
    let topo = Topology::mesh(&[5, 5]);
    let mut net = WaveNetwork::new(
        topo.clone(),
        WaveConfig {
            protocol,
            cache_capacity: 3,
            ..WaveConfig::default()
        },
    );
    let mut src = TrafficSource::new(
        topo,
        TrafficConfig {
            load: 0.3,
            pattern: TrafficPattern::HotPairs {
                partners: 2,
                locality: 0.6,
            },
            len: LengthDist::Bimodal {
                short: 8,
                long: 96,
                frac_long: 0.3,
            },
            seed,
        },
    );
    src.stop_at(4_000);
    // Collect the delivery schedule directly (ids + times).
    let mut out = Vec::new();
    let mut now = 0;
    loop {
        for m in src.poll(now) {
            net.send(now, m);
        }
        if now >= 4_000 && !net.busy() {
            break;
        }
        net.tick(now);
        for d in net.drain_deliveries() {
            out.push((d.msg.id.0, d.delivered_at));
        }
        now += 1;
        assert!(now < 1_000_000);
    }
    out
}

#[test]
fn identical_seeds_identical_schedules() {
    for protocol in [ProtocolKind::Clrp, ProtocolKind::WormholeOnly] {
        let a = full_run(7, protocol);
        let b = full_run(7, protocol);
        assert_eq!(a, b, "{protocol:?} replay diverged");
        assert!(!a.is_empty());
    }
}

#[test]
fn different_seeds_differ() {
    let a = full_run(7, ProtocolKind::Clrp);
    let b = full_run(8, ProtocolKind::Clrp);
    assert_ne!(a, b);
}

#[test]
fn runner_results_are_reproducible() {
    let go = || {
        let topo = Topology::mesh(&[4, 4]);
        let mut net = WaveNetwork::new(topo.clone(), WaveConfig::default());
        let mut src = TrafficSource::new(
            topo,
            TrafficConfig {
                load: 0.2,
                seed: 99,
                ..TrafficConfig::default()
            },
        );
        let r = run_open_loop(&mut net, &mut src, RunSpec::standard(500, 2_000));
        (
            r.sent,
            r.delivered,
            r.avg_latency.to_bits(),
            r.throughput.to_bits(),
            r.wave.probe_hops,
        )
    };
    assert_eq!(go(), go(), "runner must be bit-for-bit reproducible");
}

/// Golden trace for the parallel executor: an E11-style load sweep run
/// point-by-point in this test, through `ParallelSweep` with one job, and
/// through `ParallelSweep` with four jobs must produce bit-identical
/// `RunResult`s. Each point derives its whole world (network, source,
/// seed) from the point value, so thread scheduling cannot leak in.
#[test]
fn parallel_sweep_results_match_serial_golden_trace() {
    let loads = [0.05_f64, 0.2, 0.6];
    let point = |_: usize, &load: &f64| {
        let topo = Topology::mesh(&[4, 4]);
        let mut net = WaveNetwork::new(topo.clone(), WaveConfig::default());
        let mut src = TrafficSource::new(
            topo,
            TrafficConfig {
                load,
                pattern: TrafficPattern::HotPairs {
                    partners: 3,
                    locality: 0.7,
                },
                len: LengthDist::Fixed(64),
                seed: 131,
            },
        );
        let r = run_open_loop(&mut net, &mut src, RunSpec::standard(500, 2_000));
        // Debug output covers every field, including float bit patterns
        // rendered exactly, so string equality is bitwise equality.
        format!("{r:?}")
    };
    let golden: Vec<String> = loads.iter().enumerate().map(|(i, l)| point(i, l)).collect();
    assert_eq!(
        golden,
        ParallelSweep::new(1).run(&loads, point),
        "jobs=1 diverged from the serial golden trace"
    );
    assert_eq!(
        golden,
        ParallelSweep::new(4).run(&loads, point),
        "jobs=4 diverged from the serial golden trace"
    );
}

/// Every table of the E-series — the artifacts EXPERIMENTS.md prints — is
/// byte-identical across job counts. The rows of all fifteen experiments
/// form one sweep: open- and closed-loop traffic, static and dynamic fault
/// schedules, and dependency-gated replay all run on whichever worker
/// their row lands.
#[test]
fn every_table_is_identical_across_job_counts() {
    let scale = Scale {
        side: 4,
        measure: 2_000,
        warmup: 500,
        sweep_points: 3,
    };
    let serial = run_all(&all_ids(), &Ctx::unobserved(scale, 1));
    assert_eq!(serial.len(), 15);
    for jobs in [2, 4] {
        let fanned = run_all(&all_ids(), &Ctx::unobserved(scale, jobs));
        for (s, f) in serial.iter().zip(&fanned) {
            assert!(!s.rows.is_empty(), "{}", s.id);
            assert_eq!(s.rows, f.rows, "--jobs {jobs} must not change {}", s.id);
        }
    }
}

/// The observer seam costs no determinism: the whole E-series under a
/// full observer set — record stream, binary file, watchdog —
/// yields the same tables, the same exported Perfetto document (counter
/// tracks from the kept run's series), the same stream bytes and the
/// same watchdog reports at
/// `--jobs 1` and `--jobs 2`, because every run carries its own observers
/// onto whichever worker runs it. Every run is traced (a stream with a
/// tally listener is installed, so every plane's emit points are armed),
/// and only one capture survives the sweep: the last run's.
#[test]
fn observed_e11_sweep_is_identical_across_job_counts() {
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;
    use wavesim::trace::perfetto;
    use wavesim_analyze::{analyze, series, AnalyzeOptions};
    use wavesim_bench::tracecap::Capture;
    use wavesim_bench::watchdog::{Watchdog, WatchdogConfig};
    use wavesim_bench::Observers;

    let scale = Scale {
        side: 4,
        measure: 2_000,
        warmup: 500,
        sweep_points: 3,
    };
    let observed_sweep = |jobs: usize| {
        let path = std::env::temp_dir().join(format!(
            "wavesim_det_seam_{}_{jobs}.wstrace",
            std::process::id()
        ));
        let (runs, exported_runs) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let traced = Arc::new(AtomicU64::new(0));
        let factory = |exported: bool| {
            runs.fetch_add(1, Ordering::Relaxed);
            let mut capture = Capture::new().listen(Box::new(Tally(Arc::clone(&traced))));
            if exported {
                exported_runs.fetch_add(1, Ordering::Relaxed);
                let file = wavesim::trace::stream::ColumnarFile::create(&path).expect("create");
                capture = capture.listen(Box::new(file));
            }
            Observers {
                capture: Some(capture),
                // Tight enough to trip (without aborting) in the sparse
                // low-load runs, so the reports are not vacuous.
                watchdog: Some(Watchdog::new(WatchdogConfig {
                    stall_cycles: Some(64),
                    deadlock: true,
                    ..WatchdogConfig::default()
                })),
                board: None,
            }
        };
        let ctx = Ctx::observed(scale, jobs, &factory);
        let tables = run_all(&all_ids(), &ctx);
        let observed = ctx.into_observed();
        // The factory is called once per run, and every run's report is
        // kept. Only the last run (E15's last replay) may stream and be
        // kept.
        assert_eq!(runs.load(Ordering::Relaxed), observed.reports.len());
        assert_eq!(exported_runs.load(Ordering::Relaxed), 1);
        let trace = observed.trace.as_ref().expect("the last run's capture");
        assert!(trace.stream_error.is_none(), "{:?}", trace.stream_error);
        let stream = std::fs::read(&path).expect("stream written");
        std::fs::remove_file(&path).ok();
        // The file holds the kept run, whole.
        let streamed = wavesim::trace::read_columnar(&stream).expect("decode");
        assert_eq!(streamed.len() as u64, trace.total);
        // Every run streamed its records, not only the kept one.
        let traced = traced.load(Ordering::Relaxed);
        assert!(traced > trace.total, "{traced} records over the sweep");
        let window = AnalyzeOptions {
            window: 500,
            ..AnalyzeOptions::default()
        };
        let a = analyze(&streamed, window);
        assert!(!a.series.is_empty());
        let counters = series::perfetto_counters(&a.series, a.nodes);
        let perfetto = perfetto::export_with_counters(&streamed, counters).compact();
        let rows: Vec<_> = tables.into_iter().map(|t| t.rows).collect();
        (rows, perfetto, stream, observed, traced)
    };
    let (rows1, perfetto1, stream1, observed1, traced1) = observed_sweep(1);
    let (rows2, perfetto2, stream2, observed2, traced2) = observed_sweep(2);
    assert_eq!(
        traced1, traced2,
        "--jobs 2 changed how much the runs traced"
    );
    let unobserved: Vec<_> = run_all(&all_ids(), &Ctx::unobserved(scale, 1))
        .into_iter()
        .map(|t| t.rows)
        .collect();
    assert_eq!(rows1, unobserved, "observers must not move the tables");
    assert_eq!(rows1, rows2);
    assert_eq!(perfetto1, perfetto2);
    assert!(
        stream1 == stream2,
        "--jobs 2 changed the stream file's bytes"
    );
    assert!(
        observed1.reports.iter().any(|r| !r.trips.is_empty()),
        "no watchdog tripped; tighten the SLO"
    );
    assert_eq!(
        format!("{:?}", observed1.reports),
        format!("{:?}", observed2.reports)
    );
    assert_eq!(observed1, observed2);
}

/// Counts the records of every run it listens to into one shared total.
struct Tally(std::sync::Arc<std::sync::atomic::AtomicU64>);

impl wavesim::trace::stream::Listener for Tally {
    fn listen(&mut self, recs: &[TraceRecord]) -> std::io::Result<()> {
        let n = recs.len() as u64;
        self.0.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Golden traces pinned against the seed (pre-active-set) cycle kernel.
//
// The hashes below were captured from the original O(routers × ports ×
// VCs) kernel before the active-set/arena rewrite. Any kernel change
// that alters a single delivery time, arbitration decision, or counter
// flips these hashes — they prove the optimized kernel is observationally
// byte-identical to the seed kernel, not merely "still deterministic".
// To re-capture after an *intentional* semantic change, run:
//     GOLDEN_PRINT=1 cargo test --test determinism golden -- --nocapture
// ---------------------------------------------------------------------

fn hash_schedule(schedule: &[(u64, u64)]) -> u64 {
    let mut h = FNV_OFFSET;
    for &(id, at) in schedule {
        fnv1a_bytes(&mut h, &id.to_le_bytes());
        fnv1a_bytes(&mut h, &at.to_le_bytes());
    }
    h
}

/// CLRP and wormhole-only delivery schedules (ids + cycles) on a 5×5 mesh
/// under bimodal hot-pair traffic — covers VA/SA arbitration, injection,
/// probes, circuit transfers, and wormhole fallback end to end.
#[test]
fn golden_trace_open_loop_schedules_match_seed_kernel() {
    let clrp = full_run(7, ProtocolKind::Clrp);
    let worm = full_run(7, ProtocolKind::WormholeOnly);
    assert!(!clrp.is_empty() && !worm.is_empty());
    golden_check("clrp_schedule", hash_schedule(&clrp), 0x954f_4883_7849_bf93);
    golden_check(
        "wormhole_schedule",
        hash_schedule(&worm),
        0xf26d_d0b6_cc24_7821,
    );
}

/// The small E11 table (the EXPERIMENTS.md artifact) rendered to its
/// exact row strings, including float bit patterns.
#[test]
fn golden_trace_e11_table_matches_seed_kernel() {
    let scale = Scale {
        side: 4,
        measure: 2_000,
        warmup: 500,
        sweep_points: 3,
    };
    let table = run("e11", &Ctx::unobserved(scale, 1)).remove(0);
    golden_check(
        "e11_rows",
        hash_str(&format!("{:?}", table.rows)),
        0x560c_6391_ee34_3045,
    );
}

/// The small E14 dynamic-fault table rendered to its exact row strings:
/// pins the entire fault pipeline — MTBF schedule drawing, mid-run
/// teardown-then-fault, bounded retries, and the resulting counters.
#[test]
fn golden_trace_e14_table_is_reproducible() {
    let scale = Scale {
        side: 4,
        measure: 2_000,
        warmup: 500,
        sweep_points: 3,
    };
    let table = run("e14", &Ctx::unobserved(scale, 1)).remove(0);
    golden_check(
        "e14_rows",
        hash_str(&format!("{:?}", table.rows)),
        0x8f53_4c28_6f64_a6f1,
    );
}

/// A mixed CLRP + CARP workload: the same stencil instruction trace is
/// replayed on a CARP network (explicit establish/teardown executed) and
/// a CLRP network (circuits managed implicitly); both full `RunResult`s —
/// every counter and float bit pattern — are pinned.
#[test]
fn golden_trace_clrp_carp_mixed_workload_matches_seed_kernel() {
    let go = |protocol: ProtocolKind| {
        let topo = Topology::mesh(&[4, 4]);
        let mut net = WaveNetwork::new(
            topo.clone(),
            WaveConfig {
                protocol,
                cache_capacity: 4,
                ..WaveConfig::default()
            },
        );
        let mut trace = CarpTrace::stencil(&topo, 3, 4, 32, 600, 200);
        let r = run_carp_trace(&mut net, &mut trace, RunSpec::standard(100, 1_500), &mut ());
        assert!(r.delivered > 0, "{protocol:?} stencil must deliver");
        format!("{r:?}")
    };
    // Re-pinned when `WaveStats` grew the dynamic-fault counters (all
    // zero here — the filtered strings still hash to the seed goldens
    // 0x22f1_b1c8_63b9_97d1 / 0xbdc6_8777_3a97_ad83; only the Debug
    // schema changed, not a single counter or delivery).
    golden_check(
        "carp_stencil_result",
        hash_str(&go(ProtocolKind::Carp)),
        0x8941_d425_5398_c2ae,
    );
    golden_check(
        "clrp_stencil_result",
        hash_str(&go(ProtocolKind::Clrp)),
        0xf632_b5ec_e635_f488,
    );
}

// ---------------------------------------------------------------------
// Whole-run goldens on 8×8 and 16×16 tori, hashed from the seed kernel:
// every counter and float bit pattern of the `RunResult`.
// ---------------------------------------------------------------------

/// One complete run on a `side`×`side` torus. CLRP runs the open-loop
/// hot-pair workload; CARP replays a stencil instruction trace. With
/// `faults`, a drawn MTBF link fail/repair schedule tears circuits down
/// mid-run.
fn torus_run(side: u16, protocol: ProtocolKind, faults: bool) -> String {
    let mut net = torus_net(side, protocol);
    if faults {
        let sched = torus_faults(net.topology());
        apply_fault_schedule(&mut net, &sched).expect("schedule fits the network");
    }
    let r = torus_drive(&mut net);
    assert!(r.delivered > 0, "{side}x{side} {protocol:?} must deliver");
    // Debug output covers every field, including float bit patterns
    // rendered exactly, so string equality is bitwise equality.
    format!("{r:?}")
}

fn torus_net(side: u16, protocol: ProtocolKind) -> WaveNetwork {
    WaveNetwork::new(
        Topology::torus(&[side, side]),
        WaveConfig {
            protocol,
            cache_capacity: 8,
            ..WaveConfig::default()
        },
    )
}

/// The MTBF link fail/repair schedule of a faulted `torus_run`.
fn torus_faults(topo: &Topology) -> FaultSchedule {
    let sched = FaultSchedule::random_mtbf(topo, 4_000, 300, 1_000, 17);
    assert!(!sched.is_empty(), "fault schedule drew no events");
    sched
}

/// Drives `torus_run`'s workload for the network's protocol.
fn torus_drive(net: &mut WaveNetwork) -> RunResult {
    let topo = net.topology().clone();
    match net.config().protocol {
        ProtocolKind::Carp => {
            let mut trace = CarpTrace::stencil(&topo, 3, 4, 32, 400, 150);
            run_carp_trace(net, &mut trace, RunSpec::standard(150, 1_200), &mut ())
        }
        _ => {
            let mut src = TrafficSource::new(
                topo,
                TrafficConfig {
                    load: 0.25,
                    pattern: TrafficPattern::HotPairs {
                        partners: 3,
                        locality: 0.7,
                    },
                    len: LengthDist::Fixed(48),
                    seed: 131,
                },
            );
            run_open_loop(net, &mut src, RunSpec::standard(300, 1_200))
        }
    }
}

/// The circuits a capture launched and has not yet seen released or
/// abandoned.
fn live_circuits(records: &[TraceRecord]) -> BTreeSet<u64> {
    let mut live = BTreeSet::new();
    for rec in records {
        match rec.ev {
            TraceEvent::ProbeLaunch { circuit, .. } => {
                live.insert(circuit);
            }
            TraceEvent::CircuitReleased { circuit } | TraceEvent::CircuitAbandoned { circuit } => {
                live.remove(&circuit);
            }
            _ => {}
        }
    }
    live
}

/// Checks one traced run's capture against the network it drove: the
/// event-counted rows of `WaveStats` are the capture's events, and the
/// circuits it leaves alive are the registry's. Returns what it counted.
fn check_capture(run: &str, net: &WaveNetwork, records: &[TraceRecord]) -> WaveStats {
    let mut counted = WaveStats::default();
    for rec in records {
        counted.count(&rec.ev);
    }
    for (c, s) in counted.rows().iter().zip(net.stats().rows()) {
        if WaveStats::COUNTED.contains(&c.name) {
            assert_eq!(c.value, s.value, "{run}: {}", c.name);
        }
    }
    let registry: BTreeSet<u64> = net.circuits().keys().map(|c| c.0).collect();
    assert_eq!(live_circuits(records), registry, "{run}: live circuits");
    counted
}

/// A counter with an event pattern is that event's count and nothing
/// else: over every `torus_run` configuration, plus one with static
/// (cycle-0) lane faults and a cache small enough to evict, folding
/// `WaveStats::count` over an unsampled capture gives `net.stats()` on
/// every event-counted row, and every such row is reached by some run.
/// The same capture leaves exactly the registry's circuits alive, also
/// after a contended 4x4 CLRP run whose Force phase releases circuits;
/// some runs end with circuits alive, so that equality is not vacuous.
#[test]
fn counters_equal_the_events_captured_in_the_same_run() {
    let mut runs = Vec::new();
    for side in [8, 16] {
        for protocol in [ProtocolKind::Clrp, ProtocolKind::Carp] {
            runs.push((torus_net(side, protocol), FaultSchedule::none()));
            let net = torus_net(side, protocol);
            let dynamic = torus_faults(net.topology());
            runs.push((net, dynamic));
        }
    }
    let evicting = WaveNetwork::new(
        Topology::torus(&[8, 8]),
        WaveConfig {
            cache_capacity: 2,
            ..WaveConfig::default()
        },
    );
    let static_faults = FaultSchedule::random_lanes(evicting.topology(), 2, 0.1, 5);
    runs.push((evicting, static_faults));

    let mut reached = BTreeSet::new();
    let mut with_circuits = 0;
    for (i, (mut net, faults)) in runs.into_iter().enumerate() {
        apply_fault_schedule(&mut net, &faults).expect("schedule fits the network");
        net.install_trace_sink(collecting());
        torus_drive(&mut net);
        let records = collected(&mut net);
        let counted = check_capture(&format!("run {i}"), &net, &records);
        reached.extend(
            counted
                .rows()
                .into_iter()
                .filter(|r| r.value > 0)
                .map(|r| r.name),
        );
        with_circuits += usize::from(!net.circuits().is_empty());
    }
    let unreached: Vec<&str> = WaveStats::COUNTED
        .iter()
        .copied()
        .filter(|name| !reached.contains(name))
        .collect();
    assert!(
        unreached.is_empty(),
        "no configuration reaches {unreached:?}"
    );

    // Three partners per node and room for two circuits, all sent at once.
    let mut net = WaveNetwork::new(
        Topology::mesh(&[4, 4]),
        WaveConfig {
            protocol: ProtocolKind::Clrp,
            cache_capacity: 2,
            ..WaveConfig::default()
        },
    );
    net.install_trace_sink(collecting());
    let mut id = 0;
    for a in 0..16u32 {
        for off in [1u32, 5, 9] {
            net.send(
                0,
                Message::new(id, NodeId(a), NodeId((a + off) % 16), 32, 0),
            );
            id += 1;
        }
    }
    let mut now = 0;
    while net.busy() && now < 2_000_000 {
        net.tick(now);
        now += 1;
    }
    assert!(!net.busy(), "the contended run drains");
    let records = collected(&mut net);
    let counted = check_capture("contended 4x4", &net, &records);
    assert_eq!(counted.msgs_circuit + counted.msgs_wormhole, id);
    let forced = records
        .iter()
        .filter(|r| matches!(r.ev, TraceEvent::ForcedRelease { .. }));
    assert!(forced.count() > 0, "contention forces releases");
    with_circuits += usize::from(!net.circuits().is_empty());
    assert!(with_circuits > 0, "every run ends with its registry empty");
}

/// Two torus configurations — fault churn under CLRP, a CARP stencil at
/// 16×16 — pinned against the seed kernel byte for byte.
#[test]
fn golden_trace_torus_runs_match_seed_kernel() {
    golden_check(
        "clrp_8x8_faults",
        hash_str(&torus_run(8, ProtocolKind::Clrp, true)),
        0x2283_ec3d_743c_71ba,
    );
    golden_check(
        "carp_16x16",
        hash_str(&torus_run(16, ProtocolKind::Carp, false)),
        0xfbe4_3188_c230_e789,
    );
}

/// The `WSTRACE1` bytes of a capture, hashed.
fn capture_hash(records: &[TraceRecord]) -> u64 {
    let mut h = FNV_OFFSET;
    fnv1a_bytes(
        &mut h,
        &wavesim::trace::columnar::encode(records, wavesim::trace::stream::CHUNK_RECORDS),
    );
    h
}

/// The record order across planes, pinned: every record's sequence
/// number and position, not only the events' counts. Three captures
/// whose records come from all three planes and the root in one
/// interleaving — fault churn under CLRP (Force, broken circuits,
/// retries), the CARP and CLRP stencil replays of the mixed workload,
/// and a wormhole-only run.
#[test]
fn golden_capture_bytes_pin_record_order_across_planes() {
    let capture = |mut net: WaveNetwork, drive: &dyn Fn(&mut WaveNetwork)| {
        net.install_trace_sink(collecting());
        drive(&mut net);
        let records = collected(&mut net);
        assert!(!records.is_empty());
        records
    };

    let mut faulted = torus_net(8, ProtocolKind::Clrp);
    let sched = torus_faults(faulted.topology());
    apply_fault_schedule(&mut faulted, &sched).expect("schedule fits the network");
    let recs = capture(faulted, &|net| {
        torus_drive(net);
    });
    for kind in ["forced_release", "circuit_broken", "establish_retry"] {
        assert!(recs.iter().any(|r| r.ev.kind() == kind), "no {kind}");
    }
    golden_check(
        "capture_clrp_8x8_faults",
        capture_hash(&recs),
        0x3d7b_ba6e_e39c_4fc6,
    );

    let mut h = FNV_OFFSET;
    for protocol in [ProtocolKind::Carp, ProtocolKind::Clrp] {
        let topo = Topology::mesh(&[4, 4]);
        let net = WaveNetwork::new(
            topo.clone(),
            WaveConfig {
                protocol,
                cache_capacity: 4,
                ..WaveConfig::default()
            },
        );
        let recs = capture(net, &|net| {
            let mut trace = CarpTrace::stencil(&topo, 3, 4, 32, 600, 200);
            run_carp_trace(net, &mut trace, RunSpec::standard(100, 1_500), &mut ());
        });
        fnv1a_bytes(&mut h, &capture_hash(&recs).to_le_bytes());
    }
    golden_check("capture_stencil_carp_clrp", h, 0x8b61_f4b7_0aee_6332);

    let recs = capture(torus_net(8, ProtocolKind::WormholeOnly), &|net| {
        torus_drive(net);
    });
    golden_check(
        "capture_wormhole_8x8",
        capture_hash(&recs),
        0x4ff1_8bd6_753f_3888,
    );
}

/// One open-loop run far past the knee on an 8×8 network: most head
/// flits spend most cycles blocked (on an owned output VC or an exhausted
/// credit), which is the regime the moderate-load goldens above barely
/// enter. `adaptive` selects the wormhole-only mesh with Duato adaptive
/// routing at `w = 3` (several candidate output VCs per blocked head);
/// otherwise a CLRP torus with the default deterministic fabric.
fn saturated_run(adaptive: bool) -> String {
    let (topo, cfg, load) = if adaptive {
        let mut cfg = WaveConfig {
            protocol: ProtocolKind::WormholeOnly,
            ..WaveConfig::default()
        };
        cfg.wormhole.w = 3;
        cfg.wormhole.routing = RoutingKind::Adaptive;
        (Topology::mesh(&[8, 8]), cfg, 0.9)
    } else {
        (Topology::torus(&[8, 8]), WaveConfig::default(), 0.8)
    };
    let mut net = WaveNetwork::new(topo.clone(), cfg);
    let mut src = TrafficSource::new(
        topo,
        TrafficConfig {
            load,
            pattern: TrafficPattern::HotPairs {
                partners: 3,
                locality: 0.7,
            },
            len: LengthDist::Fixed(64),
            seed: 131,
        },
    );
    let r = run_open_loop(&mut net, &mut src, RunSpec::standard(250, 2_000));
    assert!(!r.stalled && r.delivered > 0, "saturated run must drain");
    format!("{r:?}")
}

/// Saturation goldens, captured from the polling kernel (the commit
/// before the park/wake fabric): every counter and float bit pattern of
/// the `RunResult` must survive the kernel no longer looking at blocked
/// VCs.
#[test]
fn golden_trace_saturated_runs_match_polling_kernel() {
    golden_check(
        "sat_clrp_torus_8x8",
        hash_str(&saturated_run(false)),
        0x8626_2c06_0625_6a49,
    );
    golden_check(
        "sat_adaptive_w3_mesh_8x8",
        hash_str(&saturated_run(true)),
        0x82ab_cf45_7c2a_19e1,
    );
}

// ---------------------------------------------------------------------
// Dependency-aware replay (`run --replay-trace`, E15): release order is
// set by delivery events, which makes determinism *harder* — a dependent
// message's injection cycle is itself a simulation output. The replay
// must still be a pure function of (trace, config), byte-identical
// across job counts.
// ---------------------------------------------------------------------

/// The small E13 and E15 tables rendered to their exact row strings:
/// pins the closed-loop request/reply pipeline and the dependency-gated
/// collective replay against this kernel.
#[test]
fn golden_trace_e13_and_e15_tables_are_reproducible() {
    let scale = Scale {
        side: 4,
        measure: 2_000,
        warmup: 500,
        sweep_points: 3,
    };
    golden_check(
        "e13_rows",
        hash_str(&format!(
            "{:?}",
            run("e13", &Ctx::unobserved(scale, 1))[0].rows
        )),
        0x0a2a_730d_def9_e8e4,
    );
    let scale = Scale {
        sweep_points: 2,
        ..scale
    };
    golden_check(
        "e15_rows",
        hash_str(&format!(
            "{:?}",
            run("e15", &Ctx::unobserved(scale, 1))[0].rows
        )),
        0x3c9a_aca5_3ba0_b86a,
    );
}

/// Closed-loop service mode (`run --service-clients`): a ramped client
/// population on a 4×4 mesh, pinned through the whole `ServiceResult`
/// and repeatable at each of two seeds.
#[test]
fn golden_trace_service_run_is_reproducible() {
    let go = |seed: u64| {
        let topo = Topology::mesh(&[4, 4]);
        let mut net = WaveNetwork::new(topo.clone(), WaveConfig::default());
        let mut wl = ServiceWorkload::new(
            topo,
            ServiceConfig {
                clients: 2_000,
                seed,
                ..ServiceConfig::default()
            },
        );
        let r = run_service(&mut net, &mut wl, RunSpec::standard(600, 3_000), &mut ());
        assert!(r.drained && !r.stalled && r.completed > 0, "{r:?}");
        format!("{r:?}")
    };
    let (one, two) = (go(1), go(2));
    assert_eq!(one, go(1), "service runs must be bit-for-bit reproducible");
    assert_eq!(two, go(2), "service runs must be bit-for-bit reproducible");
    assert_ne!(one, two, "the seed must reach the server draws");
    golden_check("service_run", hash_str(&one), 0x58d2_545d_45af_b26d);
}

/// The saved bytes of a 4x4 torus all-to-all are pinned in both formats:
/// the pretty JSON document and the JSONL lines.
#[test]
fn golden_saved_all_to_all_bytes() {
    let trace = collectives::all_to_all(&Topology::torus(&[4, 4]), 32);
    let mut doc = Vec::new();
    trace_io::save_dep_trace(&trace, &mut doc).expect("in memory");
    let mut jsonl = Vec::new();
    trace_io::save_dep_trace_jsonl(&trace, &mut jsonl).expect("in memory");
    golden_check(
        "all_to_all_4x4_json",
        hash_bytes(&doc),
        0xd59f_f910_35a9_3afc,
    );
    golden_check(
        "all_to_all_4x4_jsonl",
        hash_bytes(&jsonl),
        0x6941_865d_3eeb_7b82,
    );
}

fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    fnv1a_bytes(&mut h, bytes);
    h
}

/// A cyclic dependency trace can never finish replaying, so it must be
/// rejected when *loaded*, with an error naming a stuck message — not
/// hang the replay loop later.
#[test]
fn cyclic_dep_traces_are_rejected_at_load() {
    let text = r#"{"version": 1}
{"id": 0, "src": 0, "dest": 5, "len": 8, "created": 0, "deps": [2]}
{"id": 1, "src": 5, "dest": 6, "len": 8, "created": 0, "deps": [0]}
{"id": 2, "src": 6, "dest": 0, "len": 8, "created": 0, "deps": [1]}
"#;
    let err = trace_io::load_dep_trace(text.as_bytes()).expect_err("cycle must be rejected");
    assert!(
        err.contains("cyclic dependency") && err.contains('0'),
        "error must diagnose the cycle and name a stuck message: {err}"
    );

    // Unknown dependency ids are caught the same way.
    let text = r#"{"version": 1}
{"id": 0, "src": 0, "dest": 5, "len": 8, "created": 0, "deps": [99]}
"#;
    let err = trace_io::load_dep_trace(text.as_bytes()).expect_err("dangling dep must be rejected");
    assert!(err.contains("unknown message id 99"), "{err}");
}
