//! The live observability plane, end to end: the status board, the HTTP
//! endpoint, the in-run analytics fold, and the watchdog subsystem — plus
//! the determinism guarantee that observing with all of it changes
//! nothing about a run's results.
//!
//! Every observer is a value handed to the run it watches, so the tests
//! here share no state and need no serialization.

use std::io::{Read, Write};
use std::net::TcpStream;

use wavesim::core::{ProtocolKind, WaveConfig, WaveNetwork};
use wavesim::network::Message;
use wavesim::sim::stats::Histogram;
use wavesim::topology::{NodeId, Topology};
use wavesim::trace::stream::{ColumnarFile, Listener};
use wavesim::trace::{TraceEvent, TraceRecord};
use wavesim::workloads::{LengthDist, TrafficConfig, TrafficPattern, TrafficSource};
use wavesim_analyze::series::{self, WindowSeries};
use wavesim_analyze::{analyze, report, AnalyzeOptions, LiveAnalytics, RunSeries};
use wavesim_bench::livestate::StatusBoard;
use wavesim_bench::tracecap::Capture;
use wavesim_bench::watchdog::{Watchdog, WatchdogConfig};
use wavesim_bench::{run_open_loop_observed, run_scripted, serve, Observers, RunObserver, RunSpec};

/// One deterministic open-loop workload; everything derives from the
/// arguments so repeat runs are bit-identical.
fn drive_workload(seed: u64, obs: &mut dyn RunObserver) -> wavesim_bench::RunResult {
    let topo = Topology::mesh(&[4, 4]);
    let mut net = WaveNetwork::new(
        topo.clone(),
        WaveConfig {
            seed,
            ..WaveConfig::default()
        },
    );
    let mut src = TrafficSource::new(
        topo,
        TrafficConfig {
            load: 0.2,
            pattern: TrafficPattern::HotPairs {
                partners: 3,
                locality: 0.7,
            },
            len: LengthDist::Fixed(32),
            seed,
            stop_at: u64::MAX,
        },
    );
    run_open_loop_observed(&mut net, &mut src, RunSpec::standard(500, 3000), obs)
}

/// Runs [`drive_workload`] under `obs` plus a flight recorder (and, when
/// `live`, the in-run analytics fold listening beside it). Returns the
/// run result, the live analysis, the captured record stream, and the
/// observers the caller passed in.
fn captured_run(
    seed: u64,
    live: bool,
    mut obs: Observers,
) -> (
    wavesim_bench::RunResult,
    Option<wavesim_analyze::Analysis>,
    Vec<TraceRecord>,
    Observers,
) {
    let mut capture = Capture::new(Some(1 << 20));
    if live {
        capture = capture.listen(Box::new(LiveAnalytics::new(AnalyzeOptions::default())));
    }
    obs.capture = Some(capture);
    let r = drive_workload(seed, &mut obs);
    let mut capture = obs.capture.take().expect("armed above");
    let analysis = capture
        .listener::<LiveAnalytics>()
        .map(LiveAnalytics::finish);
    let cap = capture.into_trace().expect("captured");
    assert_eq!(cap.dropped, 0, "ring must hold the whole run");
    (r, analysis, cap.records, obs)
}

#[test]
fn armed_board_publishes_consistent_vitals() {
    let board = StatusBoard::new(None);
    assert!(board.snapshot().is_none(), "nothing published yet");
    let r = drive_workload(11, &mut board.observer());
    let status = board.snapshot().expect("the run published");
    assert!(status.done, "finish() marks the run done");
    assert_eq!(status.cycle, r.end);
    assert_eq!(status.stats.msgs_sent, r.sent);
    assert_eq!(status.delivered(), r.delivered);
    let run = status.run_line();
    assert!(run.starts_with("protocol=clrp topology=mesh-4x4"), "{run}");
    assert!(status.cycles_per_sec > 0.0);
    assert!((0.0..=1.0).contains(&status.stats.hit_rate()));
    assert!(
        StatusBoard::new(None).snapshot().is_none(),
        "another board saw nothing"
    );
}

#[test]
fn endpoint_serves_armed_board_over_http() {
    let board = StatusBoard::new(None);
    let r = drive_workload(12, &mut board.observer());
    let addr = serve::serve("127.0.0.1:0", board).expect("bind");
    let get = |path: &str| {
        let mut c = TcpStream::connect(addr).expect("connect");
        c.write_all(format!("GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes())
            .expect("send");
        let mut out = String::new();
        c.read_to_string(&mut out).expect("read");
        out
    };
    let prom = get("/metrics");
    let json = get("/status");

    assert!(prom.starts_with("HTTP/1.0 200"), "{prom}");
    let body = prom.split("\r\n\r\n").nth(1).expect("body");
    assert!(body.contains("wavesim_live_run_info{protocol=\"clrp\",topology=\"mesh-4x4\""));
    // Exposition-format check: every sample line is `name[{labels}] value`.
    for line in body.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (_, value) = line.rsplit_once(' ').expect("sample line");
        assert!(value.parse::<f64>().is_ok(), "non-numeric sample: {line:?}");
    }
    assert!(body.contains(&format!("wavesim_live_cycle {}", r.end)));

    assert!(json.starts_with("HTTP/1.0 200"), "{json}");
    let body = json.split("\r\n\r\n").nth(1).expect("body");
    let doc = wavesim::json::Value::parse(body).expect("valid JSON status");
    assert_eq!(
        doc.get("msgs_delivered")
            .and_then(wavesim::json::Value::as_u64),
        Some(r.delivered)
    );
    assert_eq!(
        doc.get("done").and_then(|v| match v {
            wavesim::json::Value::Bool(b) => Some(*b),
            _ => None,
        }),
        Some(true)
    );
}

#[test]
fn live_fold_matches_offline_analyze() {
    let (r, live, records, _) = captured_run(21, true, Observers::default());
    assert!(r.clean(), "{r:?}");
    let live = live.expect("armed live fold yields an analysis");
    let offline = analyze(&records, AnalyzeOptions::default());
    // The live report (folded during the run on the writer thread) is
    // byte-identical to the offline pass over the same capture.
    assert_eq!(report::render(&live), report::render(&offline));
    assert_eq!(
        wavesim::json::Value::pretty(&report::to_json(&live)),
        wavesim::json::Value::pretty(&report::to_json(&offline)),
    );
}

/// A run's time series is its own fold of the records, a [`RunSeries`]
/// folded as they are emitted with the node count the run knows (what
/// `run --timeseries-out` writes): `analyze` over a capture of the same
/// run, inferring the node count, writes the same series, column for
/// column.
#[test]
fn the_run_series_is_the_capture_series() {
    let topo = Topology::mesh(&[8, 8]);
    let mut net = WaveNetwork::new(topo.clone(), WaveConfig::default());
    let mut src = TrafficSource::new(
        topo,
        TrafficConfig {
            load: 0.2,
            pattern: TrafficPattern::HotPairs {
                partners: 3,
                locality: 0.7,
            },
            len: LengthDist::Fixed(64),
            seed: 1,
            stop_at: u64::MAX,
        },
    );
    let fold = Box::new(RunSeries::new(1000, 64));
    let mut obs = Observers {
        capture: Some(Capture::new(Some(1 << 20)).listen(fold)),
        ..Observers::default()
    };
    let r = run_open_loop_observed(&mut net, &mut src, RunSpec::standard(600, 3000), &mut obs);
    assert!(r.clean(), "{r:?}");
    let mut capture = obs.capture.expect("armed above");
    let (rows, nodes) = capture.listener::<RunSeries>().expect("folded").finish();
    let trace = capture.into_trace().expect("captured");
    assert_eq!(trace.dropped, 0, "ring must hold the whole run");
    let capture = analyze(&trace.records, AnalyzeOptions::default());
    assert_eq!((nodes, capture.nodes), (64, 64));
    assert!(rows.len() >= 3, "{rows:?}");
    assert_eq!(rows, capture.series);
    assert_eq!(
        series::to_csv(&rows, nodes),
        series::to_csv(&capture.series, capture.nodes)
    );
    assert_eq!(rows.last().map(|w| w.end), Some(r.end));
}

/// What one run under [`listener_run`] left behind.
struct Listened {
    result: String,
    file: Option<Vec<u8>>,
    live: Option<wavesim_analyze::Analysis>,
    series: Option<Vec<series::WindowRow>>,
}

/// One seeded 8x8 run whose capture arms the listeners `arm` names —
/// an in-memory `WSTRACE1` file sampled 1-in-`sample`, the live fold,
/// the run series — or no capture at all when it names none.
fn listener_run(arm: [bool; 3], sample: u64) -> Listened {
    let topo = Topology::mesh(&[8, 8]);
    let mut net = WaveNetwork::new(
        topo.clone(),
        WaveConfig {
            seed: 7,
            ..WaveConfig::default()
        },
    );
    let mut src = TrafficSource::new(
        topo,
        TrafficConfig {
            load: 0.2,
            pattern: TrafficPattern::HotPairs {
                partners: 3,
                locality: 0.7,
            },
            len: LengthDist::Fixed(64),
            seed: 7,
            stop_at: u64::MAX,
        },
    );
    let listeners: [Option<Box<dyn Listener>>; 3] = [
        arm[0].then(|| Box::new(ColumnarFile::new(Vec::new()).with_sampling(sample)) as _),
        arm[1].then(|| Box::new(LiveAnalytics::new(AnalyzeOptions::default())) as _),
        arm[2].then(|| Box::new(RunSeries::new(1000, 64)) as _),
    ];
    let capture = listeners
        .into_iter()
        .flatten()
        .fold(None, |c: Option<Capture>, l| {
            Some(c.unwrap_or_else(|| Capture::new(None)).listen(l))
        });
    let mut obs = Observers {
        capture,
        ..Observers::default()
    };
    let r = run_open_loop_observed(&mut net, &mut src, RunSpec::standard(400, 2000), &mut obs);
    assert!(r.clean(), "{r:?}");
    let mut capture = obs.capture.unwrap_or_else(|| Capture::new(None));
    Listened {
        result: format!("{r:?}"),
        file: capture
            .listener::<ColumnarFile<Vec<u8>>>()
            .map(ColumnarFile::into_inner),
        live: capture
            .listener::<LiveAnalytics>()
            .map(LiveAnalytics::finish),
        series: capture.listener::<RunSeries>().map(|s| s.finish().0),
    }
}

/// Every subset of {file, live fold, series fold}, with the file at
/// 1-in-1 and 1-in-8 sampling, reads the same run: the file's bytes are
/// the file-only run's, the folds see every record whatever the file
/// keeps, and the run itself does not move.
#[test]
fn the_set_of_armed_listeners_changes_nothing() {
    let unobserved = listener_run([false; 3], 1);
    assert!(unobserved.file.is_none() && unobserved.live.is_none());
    let lossless = listener_run([true, false, false], 1).file.expect("armed");
    let records = wavesim::trace::read_columnar(&lossless).expect("the file decodes");
    let offline = analyze(&records, AnalyzeOptions::default());
    for sample in [1, 8] {
        let file_only = listener_run([true, false, false], sample).file;
        for mask in 1..8u8 {
            let arm = [mask & 1 != 0, mask & 2 != 0, mask & 4 != 0];
            let what = format!("listeners {arm:?} at 1-in-{sample}");
            let run = listener_run(arm, sample);
            assert_eq!(run.result, unobserved.result, "{what}");
            if arm[0] {
                assert!(run.file == file_only, "{what}: the file's bytes moved");
            }
            if let Some(live) = &run.live {
                assert_eq!(report::render(live), report::render(&offline), "{what}");
                assert_eq!(
                    report::to_json(live).pretty(),
                    report::to_json(&offline).pretty(),
                    "{what}"
                );
            }
            if let Some(rows) = &run.series {
                assert_eq!(rows, &offline.series, "{what}");
            }
            let armed = [run.file.is_some(), run.live.is_some(), run.series.is_some()];
            assert_eq!(armed, arm, "{what}: every armed listener came back");
        }
    }
}

#[test]
fn fully_armed_plane_leaves_the_run_untouched() {
    let (baseline, _, base_records, _) = captured_run(31, false, Observers::default());
    // Everything at once: board (no progress line), generous watchdog,
    // live fold.
    // The run result and the captured record stream must not move.
    let board = StatusBoard::new(None);
    let plane = Observers {
        watchdog: Some(Watchdog::new(WatchdogConfig {
            stall_cycles: Some(1_000_000),
            retry_limit: Some(1_000_000),
            deadlock: true,
            abort: true,
            ..WatchdogConfig::default()
        })),
        board: Some(board.observer()),
        ..Observers::default()
    };
    let (armed, live, armed_records, plane) = captured_run(31, true, plane);
    let wd = plane.watchdog.expect("set above").into_report();
    assert!(wd.trips.is_empty(), "{wd:?}");
    assert!(board.snapshot().is_some_and(|s| s.done));
    assert!(live.is_some());
    assert_eq!(format!("{baseline:?}"), format!("{armed:?}"));
    assert_eq!(base_records, armed_records);
}

#[test]
fn watchdog_abort_truncates_the_run_series_at_the_trip() {
    // One long wormhole message and a 16-cycle stall SLO: the first
    // 64-cycle observation trips and aborts, mid-window for the series.
    let mut net = WaveNetwork::new(
        Topology::mesh(&[4, 4]),
        WaveConfig {
            protocol: ProtocolKind::WormholeOnly,
            ..WaveConfig::default()
        },
    );
    let script = [(0u64, Message::new(1, NodeId(0), NodeId(15), 512, 0))];
    let fold = Box::new(RunSeries::new(1000, 16));
    let mut obs = Observers {
        capture: Some(Capture::new(None).listen(fold)),
        watchdog: Some(Watchdog::new(WatchdogConfig {
            stall_cycles: Some(16),
            abort: true,
            ..WatchdogConfig::default()
        })),
        ..Observers::default()
    };
    let r = run_scripted(&mut net, &script, RunSpec::standard(0, 100), &mut obs);
    assert!(obs.watchdog.expect("set above").into_report().aborted);
    assert!(r.stalled && !r.clean());
    let mut capture = obs.capture.expect("armed above");
    let (series, _) = capture.listener::<RunSeries>().expect("folded").finish();
    // The final (partial) window ends at the abort cycle, not at the
    // window boundary — early aborts never fabricate a full window.
    let last = series.last().expect("at least one window");
    assert_eq!(last.end, r.end, "{last:?}");
    assert!(!last.end.is_multiple_of(1000), "abort lands mid-window");
    assert!(last.end < 1000, "tripped at the first 64-cycle observation");
}

#[test]
fn histogram_merge_is_order_independent_across_shards() {
    // A sweep absorbs per-part histograms in whatever order it collects
    // them; merged percentiles must not depend on that order.
    let lats: Vec<u64> = (0..400u64).map(|i| (i * 37) % 1000 + 1).collect();
    let whole = {
        let mut h = Histogram::new();
        for &l in &lats {
            h.record(l);
        }
        h
    };
    // Split into 4 parts two different ways, merge in forward and
    // reverse order.
    let split = |stride: usize| -> Vec<Histogram> {
        let mut hs: Vec<Histogram> = (0..4).map(|_| Histogram::new()).collect();
        for (i, &l) in lats.iter().enumerate() {
            hs[(i / stride) % 4].record(l);
        }
        hs
    };
    for parts in [split(1), split(25)] {
        for reverse in [false, true] {
            let mut merged = Histogram::new();
            let order: Vec<&Histogram> = if reverse {
                parts.iter().rev().collect()
            } else {
                parts.iter().collect()
            };
            for h in order {
                merged.merge(h);
            }
            assert_eq!(merged.count(), whole.count());
            assert_eq!(merged.p50(), whole.p50());
            assert_eq!(merged.p95(), whole.p95());
            assert_eq!(merged.p99(), whole.p99());
            assert!((merged.mean() - whole.mean()).abs() < 1e-9);
        }
    }
}

#[test]
fn window_series_keeps_real_end_when_cut_mid_window() {
    // Direct WindowSeries check mirroring the watchdog-abort test above:
    // deliveries land in windows [0,100) and [100,200), then the records
    // stop at cycle 136 — the trailing window must report its true extent.
    let mut s = WindowSeries::new(100, Some(16));
    let deliver = |latency| TraceEvent::WormholeDeliver {
        msg: 1,
        src: 0,
        dest: 15,
        latency,
    };
    for (seq, (at, latency)) in [(40, 12), (110, 20), (130, 25)].into_iter().enumerate() {
        let ev = deliver(latency);
        s.fold(
            &TraceRecord {
                at,
                seq: seq as u64,
                ev,
            },
            8,
        );
    }
    let quiet = TraceEvent::CircuitReleased { circuit: 1 };
    s.fold(
        &TraceRecord {
            at: 136,
            seq: 3,
            ev: quiet,
        },
        0,
    );
    let (rows, _) = s.finish();
    assert_eq!(rows.len(), 2);
    assert_eq!((rows[0].start, rows[0].end), (0, 100));
    assert_eq!(rows[0].delivered, 1);
    assert_eq!((rows[1].start, rows[1].end), (100, 137));
    assert_eq!(rows[1].delivered, 2);
}
