//! Reproducibility: a simulation is a pure function of its configuration
//! and seed. EXPERIMENTS.md's numbers are only meaningful because of
//! this property, so it gets its own integration suite.

use wavesim::core::{ProtocolKind, WaveConfig, WaveNetwork};
use wavesim::topology::{RoutingKind, Topology};
use wavesim::workloads::trace_io;
use wavesim::workloads::{
    CarpTrace, FaultSchedule, LengthDist, ServiceConfig, ServiceWorkload, TrafficConfig,
    TrafficPattern, TrafficSource,
};
use wavesim_bench::experiments::{
    e11_loadsweep, e13_dsm, e14_dynamic_faults, e15_collectives, Ctx,
};
use wavesim_bench::{
    apply_fault_schedule, run_carp_trace, run_open_loop, run_service, ParallelSweep, RunSpec, Scale,
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
            stop_at: 4_000,
        },
    );
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
                ..TrafficConfig::default()
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

/// The full E11 table — the artifact EXPERIMENTS.md prints — is
/// byte-identical across job counts.
#[test]
fn e11_table_is_identical_across_job_counts() {
    let scale = Scale {
        side: 4,
        measure: 2_000,
        warmup: 500,
        sweep_points: 3,
    };
    let serial = e11_loadsweep::run(&Ctx::unobserved(scale, 1));
    let four = e11_loadsweep::run(&Ctx::unobserved(scale, 4));
    assert!(!serial.rows.is_empty());
    assert_eq!(serial.rows, four.rows, "--jobs 4 must not change the table");
}

/// Closed-loop traffic must not cost determinism either: the E13 DSM
/// table — request/reply round trips with bounded outstanding windows —
/// is byte-identical across job counts.
#[test]
fn e13_table_is_identical_across_job_counts() {
    let scale = Scale {
        side: 4,
        measure: 2_000,
        warmup: 500,
        sweep_points: 3,
    };
    let serial = e13_dsm::run(&Ctx::unobserved(scale, 1));
    let four = e13_dsm::run(&Ctx::unobserved(scale, 4));
    assert!(!serial.rows.is_empty());
    assert_eq!(serial.rows, four.rows, "--jobs 4 must not change the table");
}

/// Dynamic faults must not cost determinism: the E14 table — every run
/// under a drawn `FaultSchedule`, with mid-run teardowns, retries, and
/// wormhole degradation — is byte-identical across job counts.
#[test]
fn e14_fault_schedule_table_is_identical_across_job_counts() {
    let scale = Scale {
        side: 4,
        measure: 2_000,
        warmup: 500,
        sweep_points: 3,
    };
    let serial = e14_dynamic_faults::run(&Ctx::unobserved(scale, 1));
    let four = e14_dynamic_faults::run(&Ctx::unobserved(scale, 4));
    assert!(!serial.rows.is_empty());
    assert_eq!(serial.rows, four.rows, "--jobs 4 must not change the table");
}

/// The observer seam costs no determinism: E11 under a full observer set
/// — flight-recorder ring, binary stream, sampler, watchdog — yields the
/// same table, the same exported Perfetto document, the same stream bytes
/// and the same watchdog reports at `--jobs 1` and `--jobs 2`, because
/// every run carries its own observers onto whichever worker runs it.
/// And only one capture survives the sweep: the last run's.
#[test]
fn observed_e11_sweep_is_identical_across_job_counts() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use wavesim::trace::{perfetto, timeseries};
    use wavesim_bench::timeseries::Sampler;
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
        let factory = |exported: bool| {
            runs.fetch_add(1, Ordering::Relaxed);
            let mut capture = Capture::new(1 << 12);
            if exported {
                exported_runs.fetch_add(1, Ordering::Relaxed);
                let stream = wavesim::trace::ColumnarSink::create(&path).expect("create");
                capture = capture.tee(Box::new(stream));
            }
            Observers {
                capture: Some(capture),
                sampler: Some(Sampler::new(500, false)),
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
        let table = e11_loadsweep::run(&ctx);
        let observed = ctx.into_observed();
        // Three load points, wormhole and wave at each; only the last
        // point's two runs may stream and be kept.
        assert_eq!(runs.load(Ordering::Relaxed), 6);
        assert_eq!(exported_runs.load(Ordering::Relaxed), 2);
        assert_eq!(observed.reports.len(), 6, "one report per run, all kept");
        let trace = observed.trace.as_ref().expect("the last run's capture");
        assert!(trace.stream_error.is_none(), "{:?}", trace.stream_error);
        let series = observed.series.as_ref().expect("the last run's series");
        let counters = timeseries::perfetto_counters(&series.rows, series.nodes);
        let perfetto = perfetto::export_with_counters(&trace.records, counters).compact();
        let stream = std::fs::read(&path).expect("stream written");
        std::fs::remove_file(&path).ok();
        // The file holds the kept run, whole.
        let streamed = wavesim::trace::read_columnar(&stream).expect("decode");
        assert_eq!(streamed.len() as u64, trace.total);
        (table.rows, perfetto, stream, observed)
    };
    let (rows1, perfetto1, stream1, observed1) = observed_sweep(1);
    let (rows2, perfetto2, stream2, observed2) = observed_sweep(2);
    assert_eq!(
        rows1,
        e11_loadsweep::run(&Ctx::unobserved(scale, 1)).rows,
        "observers must not move the table"
    );
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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a_bytes(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

fn hash_schedule(schedule: &[(u64, u64)]) -> u64 {
    let mut h = FNV_OFFSET;
    for &(id, at) in schedule {
        fnv1a_bytes(&mut h, &id.to_le_bytes());
        fnv1a_bytes(&mut h, &at.to_le_bytes());
    }
    h
}

fn hash_str(s: &str) -> u64 {
    let mut h = FNV_OFFSET;
    fnv1a_bytes(&mut h, s.as_bytes());
    h
}

fn golden_check(name: &str, got: u64, want: u64) {
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("GOLDEN {name} = 0x{got:016x}");
        return;
    }
    assert_eq!(
        got, want,
        "{name}: kernel output diverged from the seed kernel (got 0x{got:016x}, want 0x{want:016x})"
    );
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
    let table = e11_loadsweep::run(&Ctx::unobserved(scale, 1));
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
    let table = e14_dynamic_faults::run(&Ctx::unobserved(scale, 1));
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
    let topo = Topology::torus(&[side, side]);
    let mut net = WaveNetwork::new(
        topo.clone(),
        WaveConfig {
            protocol,
            cache_capacity: 8,
            ..WaveConfig::default()
        },
    );
    if faults {
        let sched = FaultSchedule::random_mtbf(&topo, 4_000, 300, 1_000, 17);
        assert!(!sched.is_empty(), "fault schedule drew no events");
        apply_fault_schedule(&mut net, &sched).expect("schedule fits the network");
    }
    let r = match protocol {
        ProtocolKind::Carp => {
            let mut trace = CarpTrace::stencil(&topo, 3, 4, 32, 400, 150);
            run_carp_trace(&mut net, &mut trace, RunSpec::standard(150, 1_200), &mut ())
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
                    ..TrafficConfig::default()
                },
            );
            run_open_loop(&mut net, &mut src, RunSpec::standard(300, 1_200))
        }
    };
    assert!(r.delivered > 0, "{side}x{side} {protocol:?} must deliver");
    // Debug output covers every field, including float bit patterns
    // rendered exactly, so string equality is bitwise equality.
    format!("{r:?}")
}

/// Two torus configurations — fault churn under CLRP, a CARP stencil at
/// 16×16 — pinned against the seed kernel byte for byte.
#[test]
fn golden_trace_sharded_runs_match_seed_kernel() {
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
            ..TrafficConfig::default()
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

/// The full E15 collective grid — every collective × protocol × length —
/// is byte-identical across job counts.
#[test]
fn e15_table_is_identical_across_job_counts() {
    let scale = Scale {
        side: 4,
        measure: 2_000,
        warmup: 500,
        sweep_points: 2,
    };
    let serial = e15_collectives::run(&Ctx::unobserved(scale, 1));
    let four = e15_collectives::run(&Ctx::unobserved(scale, 4));
    assert!(!serial.rows.is_empty());
    assert_eq!(serial.rows, four.rows, "--jobs 4 must not change the table");
}

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
            e13_dsm::run(&Ctx::unobserved(scale, 1)).rows
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
            e15_collectives::run(&Ctx::unobserved(scale, 1)).rows
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
