//! `wavesim` — command-line experiment runner.
//!
//! ```text
//! wavesim all [--scale small|paper] [--json] [--jobs N]   run every experiment
//! wavesim e1 .. e15 [--scale ...] [--json] [--jobs N]     run one experiment
//!                                              (--jobs fans sweep points over
//!                                              N threads; output is identical
//!                                              to --jobs 1)
//! wavesim run [workload flags]                 one custom simulation
//! wavesim gen-trace --collective C --out FILE  emit a dependency trace
//! wavesim analyze --trace run.jsonl            trace analytics report
//! wavesim check [--side N]                     static deadlock-freedom checks (CDG)
//! wavesim check --model clrp|carp|probe        exhaustive protocol model check
//!   [--topology mesh|torus] [--side N] [--k N] [--msgs N | --msg S:D ...] [--seed N]
//!   [--fault] [--repair] [--mutate drop-release|skip-backoff|wait-establishing]
//!   [--max-states N] [--counterexample FILE]
//!   Explores EVERY interleaving of the protocol automaton on a small
//!   fabric (default 2x2 mesh / 3x3 torus) and proves deadlock- and
//!   livelock-freedom, or prints a shrunk counterexample schedule and
//!   exits nonzero. `--counterexample FILE` additionally replays the
//!   schedule through the real network and writes the captured trace
//!   (JSONL, or WSTRACE1 when FILE ends in `.bin`) for `validate-trace`
//!   and `analyze`. `--mutate` injects a deliberate protocol bug so the
//!   checker's teeth can be demonstrated (and regression-tested).
//! wavesim fuzz --model clrp|carp|probe         adversarial schedule fuzzing
//!   [--runs N] [--steps N] [--seed N] + the model flags above
//!   Random interleavings plus random fault churn; violations are
//!   shrunk to 1-minimal schedules. Deterministic in --seed.
//! wavesim validate-trace FILE                  schema-check a Perfetto trace file
//! wavesim info                                 print the default configuration
//!
//! `run` flags: --protocol clrp|carp|wormhole  --topology mesh|torus
//!              --side N  --load F  --len N  --locality F  --cycles N
//!              --seed N  --k N  --alpha N  --cache N  --misroutes N
//!
//! `run --replay-trace FILE` replays a dependency-aware message trace
//! (JSON or JSONL, see `wavesim_workloads::trace_io`) instead of driving
//! the open-loop generator: each message is released only once all its
//! `deps` have been *delivered*, so injection timing responds to the
//! network. Cyclic traces are rejected at load. `gen-trace` emits the
//! collective traces E15 replays (all-to-all, reduce, broadcast,
//! transpose-sweep) for a mesh of `--side`; `--out x.jsonl` selects the
//! line-oriented format, any other name the pretty JSON document.
//!
//! `run --service-clients N` drives closed-loop service traffic instead:
//! N clients (bookkeeping is O(active), so millions are fine) ramp in
//! over the first fifth of `--cycles`, each issuing a request to a
//! server partner chosen with `--locality`, thinking after each reply,
//! and re-issuing — offered load responds to delivered latency.
//!
//! Fault flags (`run` only): `--fault-plan FILE` applies a static fault
//! plan (JSON, see `wavesim_workloads::trace_io`) before traffic starts;
//! `--fault-schedule FILE` schedules timed dynamic fail/repair events.
//! Both are validated against the chosen topology and `--k`; a plan built
//! for a different network is a clean error, not a panic.
//!
//! Observability flags (`run` and experiments): `--trace-out FILE` writes a
//! Chrome/Perfetto `trace_event` JSON of the run (plus `FILE.postmortem.json`
//! when the run stalls), `--metrics-out FILE` (run only) writes a
//! Prometheus-style metrics page, `--flight-recorder N` sizes the in-memory
//! ring buffer (default 65536 records). Every run gets its own observers,
//! on whichever `--jobs` worker it lands, so a traced or watched sweep
//! (`wavesim e11 --jobs 4 --trace-out t.json --trace-bin t.wstrace`) is
//! byte-identical to `--jobs 1`; the exported trace is the last run in
//! serial order.
//!
//! Analytics: `--trace-jsonl FILE` (`run` and experiments) streams the
//! *complete* event record to JSONL with bounded memory (nothing the
//! ring buffer would drop is lost; an experiment sweep streams its last
//! point — the file ends holding the last run), `--timeseries-out
//! FILE` (run only) writes windowed CSV (`--window N` cycles per row,
//! default 1000), `--progress N` prints a
//! one-line status every N cycles. `wavesim analyze --trace run.jsonl
//! [--report FILE] [--json FILE] [--timeseries FILE] [--window N]
//! [--top N]` turns a captured JSONL stream into latency waterfalls,
//! circuit-cache flow attribution, hot-lane occupancy, and fault impact
//! windows — `--json` takes a FILE here, unlike the experiment commands.
//!
//! Binary capture: `--trace-bin FILE` (`run` and experiments) streams the
//! same record stream as `--trace-jsonl` in the compact binary columnar
//! format (`WSTRACE1` frames, typically < 10% of the JSONL bytes);
//! `--trace-sample N` keeps 1-in-N of the bulk event kinds (plane ticks,
//! probe hops, cache probes) deterministically while always keeping
//! lifecycle events. `analyze --trace` accepts either format
//! transparently (pass the same `--trace-sample N` to rescale a sampled
//! capture's bulk counts; the factor is stamped into the report), and
//! `wavesim convert-trace IN --out FILE [--to jsonl|bin]` converts
//! losslessly between them (`validate-trace` also recognises both,
//! alongside Perfetto exports). Both `analyze` and `convert-trace`
//! stream their input frame-by-frame, so arbitrarily large captures are
//! processed in bounded memory.
//!
//! Live observability (`run` and experiments): `--serve-metrics ADDR`
//! binds a dependency-free HTTP endpoint serving the running simulation's
//! vitals (`GET /metrics` Prometheus text, `GET /status` JSON);
//! `--live-status` prints a one-line progress report to stderr every 8192
//! cycles. Both read a snapshot board the running simulation publishes
//! every 64 cycles (one run at a time: under `--jobs N` a run that finds
//! the board taken stays silent) — stdout stays byte-identical to an
//! unserved run.
//! `--live-analyze` (`run` only) folds the full record stream through the
//! incremental analytics engine *during* the run on the capture writer
//! thread and prints the same report `analyze` would, with no second pass
//! over a trace file.
//!
//! Watchdogs (`run` and experiments): `--watch-stall N` trips when no
//! message is delivered for N cycles, `--watch-retries N` on more than N
//! establishment retries in a 4096-cycle window, `--watch-deadlock` runs a
//! wait-for-graph cycle search once the fabric stops for 2048 cycles. A
//! trip stamps a `watchdog_trip` record into the trace;
//! `--watch-postmortem FILE` additionally flushes a flight-recorder
//! post-mortem bundle, and `--watch-abort` ends the run with a nonzero
//! exit.
//! ```

use std::env;
use std::process::ExitCode;

use wavesim_bench::livestate::StatusBoard;
use wavesim_bench::timeseries::Sampler;
use wavesim_bench::tracecap::Capture;
use wavesim_bench::watchdog::{Watchdog, WatchdogConfig};
use wavesim_bench::{experiments, Observed, Observers, RunSpec, Scale};
use wavesim_core::{LaneId, ProtocolKind, WaveConfig, WaveNetwork};
use wavesim_topology::{RoutingKind, Topology};
use wavesim_trace::TraceSink;
use wavesim_verify::check_deadlock_freedom;
use wavesim_workloads::{LengthDist, TrafficConfig, TrafficPattern, TrafficSource};

fn usage() -> ! {
    eprintln!(
        "usage: wavesim <all|e1..e15|run|gen-trace|analyze|convert-trace|check|fuzz|validate-trace|info> [--scale small|paper] [--json] [--jobs N] [--side N]\n\
         model check: wavesim check --model clrp|carp|probe [--topology mesh|torus] [--side N]\n\
                      [--k N] [--msgs N] [--seed N] [--fault] [--repair] [--mutate M]\n\
                      [--max-states N] [--counterexample FILE]\n\
         fuzz:        wavesim fuzz --model ... [--runs N] [--steps N] [--seed N]\n\
         run flags: --protocol clrp|carp|wormhole --topology mesh|torus --side N --load F\n\
                    --len N --locality F --cycles N --seed N --k N --alpha N --cache N\n\
                    --misroutes N\n\
                    --replay-trace FILE (dependency-aware trace replay)\n\
                    --service-clients N (closed-loop service traffic)\n\
         gen-trace: wavesim gen-trace --collective all-to-all|reduce|broadcast|transpose-sweep\n\
                    [--side N] [--len N] [--seed N] --out FILE (.jsonl streams, else JSON doc)\n\
         fault flags (run): --fault-plan FILE --fault-schedule FILE\n\
         trace flags: --trace-out FILE --metrics-out FILE --flight-recorder N\n\
                      --trace-jsonl FILE --trace-bin FILE --trace-sample N\n\
                      --timeseries-out FILE --window N --progress N\n\
         live flags:  --serve-metrics ADDR --live-status --live-analyze\n\
         watchdogs:   --watch-stall N --watch-retries N --watch-deadlock\n\
                      --watch-abort --watch-postmortem FILE\n\
         analyze flags: --trace FILE [--report FILE] [--json FILE] [--timeseries FILE]\n\
                        [--window N] [--top N] [--trace-sample N]\n\
         convert-trace: wavesim convert-trace IN --out FILE [--to jsonl|bin]"
    );
    std::process::exit(2);
}

/// Says what was wrong with the command line, then prints the usage.
fn bad_usage(what: &str) -> ! {
    eprintln!("error: {what}");
    usage();
}

fn invalid(flag: &str, value: &str) -> ! {
    bad_usage(&format!("invalid value `{value}` for `{flag}`"))
}

/// The value following `flag`.
fn value(argv: &mut impl Iterator<Item = String>, flag: &str) -> String {
    argv.next()
        .unwrap_or_else(|| bad_usage(&format!("missing value for `{flag}`")))
}

/// The value following `flag`, parsed; invalid unless `in_range`.
fn parsed_if<T: std::str::FromStr>(
    argv: &mut impl Iterator<Item = String>,
    flag: &str,
    in_range: impl FnOnce(&T) -> bool,
) -> T {
    let v = value(argv, flag);
    match v.parse::<T>() {
        Ok(n) if in_range(&n) => n,
        _ => invalid(flag, &v),
    }
}

/// The value following `flag`, parsed.
fn parsed<T: std::str::FromStr>(argv: &mut impl Iterator<Item = String>, flag: &str) -> T {
    parsed_if(argv, flag, |_| true)
}

/// The value following `flag`, parsed; zero is invalid.
fn nonzero<T: std::str::FromStr + PartialEq + Default>(
    argv: &mut impl Iterator<Item = String>,
    flag: &str,
) -> T {
    parsed_if(argv, flag, |n| *n != T::default())
}

/// The `SRC:DEST` node pair following `--msg`; a message must travel.
fn msg_pair(argv: &mut impl Iterator<Item = String>, flag: &str) -> (u32, u32) {
    let v = value(argv, flag);
    let pair = v
        .split_once(':')
        .and_then(|(s, d)| Some((s.parse().ok()?, d.parse().ok()?)));
    match pair {
        Some((s, d)) if s != d => (s, d),
        _ => invalid(flag, &v),
    }
}

#[derive(Default)]
struct Args {
    cmd: String,
    scale: Scale,
    json: bool,
    jobs: usize,
    side: u16,
    // `run` knobs
    protocol: ProtocolKind,
    torus: bool,
    load: f64,
    len: u32,
    locality: f64,
    cycles: u64,
    seed: u64,
    k: u8,
    alpha: u32,
    cache: usize,
    misroutes: u8,
    // dependency-trace replay / closed-loop service mode (`run`)
    replay_trace: Option<String>,
    service_clients: Option<u64>,
    // `gen-trace` inputs
    collective: Option<String>,
    // fault injection
    fault_plan: Option<String>,
    fault_schedule: Option<String>,
    // observability
    trace_out: Option<String>,
    metrics_out: Option<String>,
    flight_recorder: usize,
    // analytics capture (`run`)
    trace_jsonl: Option<String>,
    trace_bin: Option<String>,
    trace_sample: u64,
    timeseries_out: Option<String>,
    window: u64,
    progress: Option<u64>,
    // live observability plane
    serve_metrics: Option<String>,
    live_status: bool,
    live_analyze: bool,
    // watchdog rules
    watch_stall: Option<u64>,
    watch_retries: Option<u64>,
    watch_deadlock: bool,
    watch_abort: bool,
    watch_postmortem: Option<String>,
    // `analyze` inputs/outputs
    trace_in: Option<String>,
    report_out: Option<String>,
    json_out: Option<String>,
    timeseries_csv: Option<String>,
    top: usize,
    // `convert-trace` outputs
    out: Option<String>,
    to_bin: bool,
    // positional operand (validate-trace FILE / convert-trace IN)
    path: Option<String>,
    // model checker (`check --model …` / `fuzz`)
    model: Option<String>,
    side_set: bool,
    msgs: usize,
    fault: bool,
    repair: bool,
    mutate: Option<String>,
    msg_list: Vec<(u32, u32)>,
    max_states: u64,
    counterexample: Option<String>,
    runs: u32,
    steps: u32,
}

fn parse_args() -> Args {
    let mut argv = env::args().skip(1);
    let cmd = argv.next().unwrap_or_else(|| usage());
    let mut args = Args {
        cmd,
        scale: Scale::paper(),
        jobs: 1,
        side: 8,
        protocol: ProtocolKind::Clrp,
        load: 0.2,
        len: 64,
        locality: 0.7,
        cycles: 20_000,
        seed: 1,
        k: 2,
        alpha: 4,
        cache: 16,
        misroutes: 2,
        flight_recorder: 1 << 16,
        trace_sample: 1,
        window: 1000,
        top: 10,
        msgs: 3,
        max_states: 5_000_000,
        runs: 64,
        steps: 4_000,
        // Every other flag is off, empty or absent until given.
        ..Args::default()
    };
    let argv = &mut argv;
    while let Some(a) = argv.next() {
        let flag = a.as_str();
        match flag {
            "--scale" => {
                args.scale = match value(argv, flag).as_str() {
                    "small" => Scale::small(),
                    "paper" => Scale::paper(),
                    other => invalid(flag, other),
                }
            }
            // For `analyze`, --json names an output file; everywhere else
            // it is a boolean format switch.
            "--json" if args.cmd == "analyze" => args.json_out = Some(value(argv, flag)),
            "--json" => args.json = true,
            "--trace" => args.trace_in = Some(value(argv, flag)),
            "--report" => args.report_out = Some(value(argv, flag)),
            "--timeseries" => args.timeseries_csv = Some(value(argv, flag)),
            "--top" => args.top = parsed(argv, flag),
            "--trace-jsonl" => args.trace_jsonl = Some(value(argv, flag)),
            "--trace-bin" => args.trace_bin = Some(value(argv, flag)),
            "--trace-sample" => args.trace_sample = nonzero(argv, flag),
            "--out" => args.out = Some(value(argv, flag)),
            "--to" => {
                args.to_bin = match value(argv, flag).as_str() {
                    "jsonl" => false,
                    "bin" => true,
                    other => invalid(flag, other),
                }
            }
            "--timeseries-out" => args.timeseries_out = Some(value(argv, flag)),
            "--window" => args.window = nonzero(argv, flag),
            "--progress" => args.progress = Some(nonzero(argv, flag)),
            "--jobs" => args.jobs = parsed(argv, flag),
            "--side" => {
                args.side = parsed_if(argv, flag, |&side| side >= 2);
                args.side_set = true;
            }
            "--model" => args.model = Some(value(argv, flag)),
            "--msgs" => args.msgs = parsed(argv, flag),
            "--msg" => args.msg_list.push(msg_pair(argv, flag)),
            "--fault" => args.fault = true,
            "--repair" => args.repair = true,
            "--mutate" => args.mutate = Some(value(argv, flag)),
            "--max-states" => args.max_states = nonzero(argv, flag),
            "--counterexample" => args.counterexample = Some(value(argv, flag)),
            "--runs" => args.runs = parsed(argv, flag),
            "--steps" => args.steps = parsed(argv, flag),
            "--protocol" => {
                args.protocol = match value(argv, flag).as_str() {
                    "clrp" => ProtocolKind::Clrp,
                    "carp" => ProtocolKind::Carp,
                    "wormhole" => ProtocolKind::WormholeOnly,
                    other => invalid(flag, other),
                }
            }
            "--topology" => {
                args.torus = match value(argv, flag).as_str() {
                    "mesh" => false,
                    "torus" => true,
                    other => invalid(flag, other),
                }
            }
            // `> 0.0` refuses NaN too.
            "--load" => args.load = parsed_if(argv, flag, |&load| load > 0.0),
            "--len" => args.len = nonzero(argv, flag),
            "--locality" => args.locality = parsed(argv, flag),
            "--cycles" => args.cycles = parsed(argv, flag),
            "--seed" => args.seed = parsed(argv, flag),
            "--k" => args.k = nonzero(argv, flag),
            "--alpha" => args.alpha = nonzero(argv, flag),
            "--cache" => args.cache = nonzero(argv, flag),
            "--misroutes" => args.misroutes = parsed(argv, flag),
            "--replay-trace" => args.replay_trace = Some(value(argv, flag)),
            "--service-clients" => args.service_clients = Some(nonzero(argv, flag)),
            "--collective" => args.collective = Some(value(argv, flag)),
            "--fault-plan" => args.fault_plan = Some(value(argv, flag)),
            "--fault-schedule" => args.fault_schedule = Some(value(argv, flag)),
            "--serve-metrics" => args.serve_metrics = Some(value(argv, flag)),
            "--live-status" => args.live_status = true,
            "--live-analyze" => args.live_analyze = true,
            "--watch-stall" => args.watch_stall = Some(nonzero(argv, flag)),
            "--watch-retries" => args.watch_retries = Some(parsed(argv, flag)),
            "--watch-deadlock" => args.watch_deadlock = true,
            "--watch-abort" => args.watch_abort = true,
            "--watch-postmortem" => args.watch_postmortem = Some(value(argv, flag)),
            "--trace-out" => args.trace_out = Some(value(argv, flag)),
            "--metrics-out" => args.metrics_out = Some(value(argv, flag)),
            "--flight-recorder" => args.flight_recorder = nonzero(argv, flag),
            _ if !a.starts_with('-') && args.path.is_none() => args.path = Some(a),
            _ => bad_usage(&format!("unknown argument `{a}`")),
        }
    }
    args
}

/// How a command ended. `Ok(false)`: it ran, and its verdict (a run that
/// is not clean, a model violation, a watchdog abort) fails the process.
/// `Err`: it could not do its job; `main` prints the message after
/// `error: `.
type Outcome = Result<bool, String>;

fn cannot_write(path: &str, e: impl std::fmt::Display) -> String {
    format!("cannot write {path}: {e}")
}

/// `e` is `stream_trace_file`'s error, which already names the path.
fn cannot_read(e: String) -> String {
    format!("cannot read {e}")
}

fn write_file(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| cannot_write(path, e))
}

/// Opens `path` and parses it with `load`; `what` names the input in the
/// error.
fn load_file<T>(
    what: &str,
    path: &str,
    load: impl FnOnce(std::fs::File) -> Result<T, String>,
) -> Result<T, String> {
    std::fs::File::open(path)
        .map_err(|e| format!("cannot open: {e}"))
        .and_then(load)
        .map_err(|e| format!("{what} {path}: {e}"))
}

/// A square 2-D network of the given side (`--side` is at least 2; a
/// radix-2 torus would duplicate its links).
fn square(torus: bool, side: u16) -> Result<Topology, String> {
    if !torus {
        Ok(Topology::mesh(&[side, side]))
    } else if side >= 3 {
        Ok(Topology::torus(&[side, side]))
    } else {
        Err(format!(
            "`--topology torus` needs `--side` >= 3, got {side}"
        ))
    }
}

/// Exports one captured run as Perfetto JSON (plus a post-mortem bundle
/// when the run stalled). `counters` are pre-built counter-track events —
/// the time-series sampler's per-window metrics.
fn export_trace(
    path: &str,
    t: &wavesim_bench::tracecap::RunTrace,
    counters: Vec<wavesim_json::Value>,
) -> Result<(), String> {
    let doc = wavesim_trace::perfetto::export_with_counters(&t.records, counters);
    write_file(path, &doc.compact())?;
    println!(
        "wrote trace: {path} ({} records kept, {} dropped of {})",
        t.records.len(),
        t.dropped,
        t.total
    );
    if let Some(pm) = &t.post_mortem {
        let pm_path = format!("{path}.postmortem.json");
        write_file(&pm_path, &pm.pretty())?;
        println!("run stalled — wrote post-mortem: {pm_path}");
    }
    Ok(())
}

/// Schema-checks a trace file: binary columnar streams (`--trace-bin`),
/// JSONL record streams (`--trace-jsonl`), and Perfetto exports
/// (`--trace-out`) are all recognised by content, not extension.
fn validate_trace(path: &str) -> Outcome {
    use wavesim_trace::stream::{stream_trace_file, TraceFormat, TraceReader as _};
    // The two record formats are counted through the streaming reader, in
    // bounded memory whatever the capture size.
    let mut reader = stream_trace_file(std::path::Path::new(path)).map_err(cannot_read)?;
    let mut records: u64 = 0;
    let mut failure = None;
    while let Some(rec) = reader.next_record() {
        match rec {
            Ok(_) => records += 1,
            Err(e) => failure = Some(e),
        }
    }
    // A JSONL record stream is many one-object lines; a Perfetto export is
    // one document. The record schema goes first so a single-record stream
    // is not misread as a malformed Perfetto file.
    let binary = reader.format() == TraceFormat::Columnar;
    if binary || records > 0 {
        if let Some(e) = failure {
            let what = if binary { "binary" } else { "JSONL" };
            return Err(format!("{path}: corrupt {what} trace: {e}"));
        }
        if binary {
            let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
            println!("{path}: valid binary columnar trace — {records} records ({bytes} bytes)");
        } else {
            println!("{path}: valid JSONL record stream — {records} records");
        }
        return Ok(true);
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{path}: neither a binary trace nor UTF-8 JSON: {e}"))?;
    let doc =
        wavesim_json::Value::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let s = wavesim_trace::perfetto::validate(&doc).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: valid Perfetto trace — {} events ({} spans, {} instants)",
        s.events, s.spans, s.instants
    );
    Ok(true)
}

/// `wavesim convert-trace IN --out FILE [--to jsonl|bin]` — lossless
/// conversion between the JSONL and binary columnar stream formats (the
/// input format is sniffed from its leading bytes).
fn convert_trace(args: &Args) -> Outcome {
    use std::path::Path;
    use wavesim_trace::stream::{ColumnarSink, JsonlSink, TraceReader as _};
    let input = args
        .path
        .as_ref()
        .ok_or("convert-trace needs an input FILE operand")?;
    let out = args.out.as_ref().ok_or("convert-trace needs --out FILE")?;
    // Stream end to end: the reader decodes the input frame-by-frame and
    // the writer is the same chunked background sink the capture path
    // uses, so conversion runs in bounded memory at any capture size.
    let mut reader =
        wavesim_trace::stream::stream_trace_file(Path::new(input)).map_err(cannot_read)?;
    let (mut sink, what): (Box<dyn TraceSink>, &str) = if args.to_bin {
        let sink = ColumnarSink::create(Path::new(out)).map_err(|e| cannot_write(out, e))?;
        (Box::new(sink), "binary columnar")
    } else {
        let sink = JsonlSink::create(Path::new(out)).map_err(|e| cannot_write(out, e))?;
        (Box::new(sink), "JSONL")
    };
    let mut n: u64 = 0;
    while let Some(rec) = reader.next_record() {
        sink.record(rec.map_err(|e| format!("{input}: {e}"))?);
        n += 1;
    }
    sink.finish().map_err(|e| cannot_write(out, e))?;
    let bytes = std::fs::metadata(out).map_or(0, |m| m.len());
    println!("converted {input} -> {out}: {n} records as {what} ({bytes} bytes)");
    Ok(true)
}

/// Loads and applies `--fault-plan` / `--fault-schedule` files onto the
/// run's network, surfacing mismatches against the chosen topology/`k`
/// (a plan built for another network) as clean errors.
fn apply_fault_inputs(net: &mut WaveNetwork, args: &Args) -> Result<(), String> {
    use wavesim_workloads::trace_io::{load_fault_plan, load_fault_schedule};
    if let Some(path) = &args.fault_plan {
        let plan = load_file("fault plan", path, load_fault_plan)?;
        for &(link, s) in &plan.lanes {
            net.inject_lane_fault(LaneId::new(link, s))
                .map_err(|e| format!("fault plan {path} does not fit this network: {e}"))?;
        }
        println!(
            "applied static fault plan: {path} ({} lanes on {} links)",
            plan.len(),
            plan.faulted_links()
        );
    }
    if let Some(path) = &args.fault_schedule {
        let sched = load_file("fault schedule", path, load_fault_schedule)?;
        sched
            .validate(net.topology(), net.config().k)
            .and_then(|()| wavesim_bench::apply_fault_schedule(net, &sched))
            .map_err(|e| format!("fault schedule {path} does not fit this network: {e}"))?;
        println!("scheduled dynamic faults: {path} ({} events)", sched.len());
    }
    Ok(())
}

/// The observability flags, resolved once for `run` and the experiment
/// commands alike; [`Observing::observers`] makes one run's set.
struct Observing<'a> {
    args: &'a Args,
    /// `run` only: the sampler, the metrics page's ring, live analytics.
    single_run: bool,
    watch: WatchdogConfig,
    board: Option<StatusBoard>,
}

impl<'a> Observing<'a> {
    /// Checks the stream paths are writable, brings up the live plane
    /// (status board, HTTP endpoint), and notes the flags this command
    /// ignores. Everything goes to stderr or the socket, so stdout stays
    /// byte-identical to an unobserved run.
    fn new(args: &'a Args, single_run: bool) -> Result<Self, String> {
        for path in [&args.trace_jsonl, &args.trace_bin].into_iter().flatten() {
            // Fail before the run, not after a long sweep.
            std::fs::File::create(path).map_err(|e| format!("cannot stream to {path}: {e}"))?;
        }
        if args.trace_bin.is_none() && args.trace_sample > 1 {
            eprintln!("note: --trace-sample applies to --trace-bin only; ignored");
        }
        if !single_run && args.metrics_out.is_some() {
            eprintln!("note: --metrics-out applies to `run` only; ignored for experiments");
        }
        if !single_run && args.live_analyze {
            eprintln!("note: --live-analyze applies to `run` only; ignored for experiments");
        }
        let board = (args.live_status || args.serve_metrics.is_some())
            .then(|| StatusBoard::new(args.live_status));
        if let (Some(addr), Some(board)) = (&args.serve_metrics, &board) {
            let local = wavesim_bench::serve::serve(addr, board.clone())
                .map_err(|e| format!("--serve-metrics {addr}: {e}"))?;
            eprintln!("serving live metrics on http://{local}/metrics (JSON status at /status)");
        }
        Ok(Self {
            args,
            single_run,
            watch: WatchdogConfig {
                stall_cycles: args.watch_stall,
                retry_limit: args.watch_retries,
                deadlock: args.watch_deadlock,
                abort: args.watch_abort,
                post_mortem: args.watch_postmortem.as_ref().map(std::path::PathBuf::from),
            },
            board,
        })
    }

    /// True when some output needs the captured run.
    fn exporting(&self) -> bool {
        let a = self.args;
        a.trace_out.is_some()
            || a.trace_jsonl.is_some()
            || a.trace_bin.is_some()
            || (self.single_run && a.metrics_out.is_some())
    }

    /// One run's observers. Only an `exported` run (possibly the last in
    /// serial order) streams to the `--trace-jsonl` / `--trace-bin` files.
    fn observers(&self, exported: bool) -> Observers {
        let a = self.args;
        // Only a run that may be exported is captured for the export's
        // sake. A watchdog post-mortem carries the flight recorder's tail,
        // and live analytics rides the capture's tee, so either wants a
        // ring on every run, even when no export flag asked for one.
        let ring = (exported && self.exporting())
            || (self.watch.any() && self.watch.post_mortem.is_some())
            || (self.single_run && a.live_analyze);
        let capture = ring.then(|| {
            let mut c = Capture::new(a.flight_recorder);
            if let (true, Some(path)) = (exported, &a.trace_jsonl) {
                c = tee_stream(c, path, wavesim_trace::JsonlSink::create);
            }
            if let (true, Some(path)) = (exported, &a.trace_bin) {
                c = tee_stream(c, path, |p| {
                    Ok(wavesim_trace::ColumnarSink::create(p)?.with_sampling(a.trace_sample))
                });
            }
            c
        });
        // --progress doubles as the status cadence and the window width,
        // so each printed line covers exactly one closed window.
        let sampler = (self.single_run && (a.timeseries_out.is_some() || a.progress.is_some()))
            .then(|| Sampler::new(a.progress.unwrap_or(a.window), a.progress.is_some()));
        Observers {
            capture,
            sampler,
            watchdog: self.watch.any().then(|| Watchdog::new(self.watch.clone())),
            board: self.board.as_ref().map(StatusBoard::observer),
        }
    }

    /// Prints what the observers of one command's runs left behind —
    /// watchdog trips, then the files written from the last run's series
    /// and capture.
    fn report(&self, observed: &Observed) -> Result<(), String> {
        let a = self.args;
        for rep in &observed.reports {
            for t in &rep.trips {
                println!(
                    "watchdog: {} tripped at cycle {}: {} > limit {}",
                    t.name(),
                    t.at,
                    t.value,
                    t.limit
                );
            }
            if let Some(p) = &rep.post_mortem {
                println!("watchdog: wrote post-mortem bundle: {}", p.display());
            }
            if rep.aborted {
                println!("watchdog: run aborted");
            }
        }
        let mut counters = Vec::new();
        if let Some(series) = &observed.series {
            if let Some(path) = &a.timeseries_out {
                let csv = wavesim_trace::timeseries::to_csv(&series.rows, series.nodes);
                write_file(path, &csv)?;
                println!("wrote time series: {path} ({} windows)", series.rows.len());
            }
            counters = wavesim_trace::timeseries::perfetto_counters(&series.rows, series.nodes);
        }
        if !self.exporting() {
            return Ok(());
        }
        let Some(t) = &observed.trace else {
            eprintln!("note: no run captured; no trace written");
            return Ok(());
        };
        if let Some(e) = &t.stream_error {
            return Err(format!("trace capture: {e}"));
        }
        if let Some(path) = &a.trace_jsonl {
            println!("wrote JSONL stream: {path} ({} records)", t.total);
        }
        if let Some(path) = &a.trace_bin {
            if a.trace_sample > 1 {
                println!(
                    "wrote binary stream: {path} ({} records emitted, bulk kinds sampled 1-in-{})",
                    t.total, a.trace_sample
                );
            } else {
                println!("wrote binary stream: {path} ({} records)", t.total);
            }
        }
        match &a.trace_out {
            Some(path) => export_trace(path, t, counters),
            None => Ok(()),
        }
    }
}

/// Tees `capture` into the stream `create` opens at `path` (truncating: the
/// file ends up holding the last run streamed there).
fn tee_stream<S: TraceSink + 'static>(
    capture: Capture,
    path: &str,
    create: impl FnOnce(&std::path::Path) -> std::io::Result<S>,
) -> Capture {
    match create(std::path::Path::new(path)) {
        Ok(sink) => capture.tee(Box::new(sink)),
        Err(e) => {
            eprintln!("note: cannot stream to {path}: {e}");
            capture
        }
    }
}

/// True when a watchdog trip ended any of the observed runs (the caller
/// turns that into a nonzero exit).
fn watchdog_aborted(observed: &Observed) -> bool {
    observed.reports.iter().any(|r| r.aborted)
}

/// What a `run` invocation produced: the open-loop and replay modes share
/// [`wavesim_bench::RunResult`]; the closed-loop service mode has its own
/// round-trip accounting.
enum RunOutcome {
    /// Open-loop traffic or a dependency-trace replay.
    Flat(wavesim_bench::RunResult),
    /// Closed-loop service traffic.
    Service(wavesim_bench::ServiceResult),
}

fn custom_run(args: &Args) -> Outcome {
    if args.replay_trace.is_some() && args.service_clients.is_some() {
        return Err("--replay-trace and --service-clients are mutually exclusive".into());
    }
    let replay = match &args.replay_trace {
        Some(path) => Some(load_file(
            "replay trace",
            path,
            wavesim_workloads::trace_io::load_dep_trace,
        )?),
        None => None,
    };
    let topo = square(args.torus, args.side)?;
    let cfg = WaveConfig {
        protocol: args.protocol,
        k: args.k,
        clock_multiplier: args.alpha,
        cache_capacity: args.cache,
        misroutes: args.misroutes,
        seed: args.seed,
        ..WaveConfig::default()
    };
    let mut net = WaveNetwork::new(topo.clone(), cfg);
    apply_fault_inputs(&mut net, args)?;
    if let Some(t) = &replay {
        let n = topo.num_nodes();
        if let Some(m) = t
            .messages
            .iter()
            .find(|m| m.msg.src.0 >= n || m.msg.dest.0 >= n)
        {
            return Err(format!(
                "replay trace message {} uses node {} but this {}x{} network has {n} nodes (generate with a matching --side)",
                m.msg.id.0,
                m.msg.src.0.max(m.msg.dest.0),
                args.side,
                args.side,
            ));
        }
    }
    let warmup = args.cycles / 5;
    let observing = Observing::new(args, true)?;
    let mut obs = observing.observers(true);
    let live_handle = args.live_analyze.then(|| {
        let (handle, sink) = wavesim_analyze::live_sink(wavesim_analyze::AnalyzeOptions {
            window: args.window,
            top_k: args.top,
            nodes: None,
            sample_factor: 1,
        });
        obs.capture = obs.capture.take().map(|c| c.tee(Box::new(sink)));
        handle
    });
    let outcome = if let Some(trace) = &replay {
        RunOutcome::Flat(wavesim_bench::run_dep_trace(
            &mut net,
            trace,
            RunSpec::replay(trace.horizon()),
            &mut obs,
        ))
    } else if let Some(clients) = args.service_clients {
        let mut wl = wavesim_workloads::ServiceWorkload::new(
            topo,
            wavesim_workloads::ServiceConfig {
                clients,
                locality: args.locality,
                seed: args.seed,
                ramp: warmup.max(1),
                ..wavesim_workloads::ServiceConfig::default()
            },
        );
        RunOutcome::Service(wavesim_bench::run_service(
            &mut net,
            &mut wl,
            RunSpec::standard(warmup, args.cycles),
            &mut obs,
        ))
    } else {
        let mut src = TrafficSource::new(
            topo,
            TrafficConfig {
                load: args.load,
                pattern: if args.locality > 0.0 {
                    TrafficPattern::HotPairs {
                        partners: 3,
                        locality: args.locality,
                    }
                } else {
                    TrafficPattern::Uniform
                },
                len: LengthDist::Fixed(args.len),
                seed: args.seed,
                stop_at: u64::MAX,
            },
        );
        RunOutcome::Flat(wavesim_bench::run_open_loop_observed(
            &mut net,
            &mut src,
            RunSpec::standard(warmup, args.cycles),
            &mut obs,
        ))
    };
    let mut observed = Observed::default();
    observed.push(obs);
    observing.report(&observed)?;
    if let (Some(path), Some(t)) = (&args.metrics_out, &observed.trace) {
        match &outcome {
            RunOutcome::Flat(r) => {
                let page = wavesim_bench::metrics::metrics_snapshot(&net, r, &t.records);
                write_file(path, &page)?;
                println!("wrote metrics: {path}");
            }
            RunOutcome::Service(_) => {
                eprintln!("note: --metrics-out applies to open-loop and replay runs; ignored");
            }
        }
    }
    let mode = if let Some(path) = &args.replay_trace {
        format!("replay of {path}")
    } else if let Some(clients) = args.service_clients {
        format!("service ({clients} clients)")
    } else {
        "single run".to_string()
    };
    println!(
        "{mode}: {:?} on {}x{} {}",
        args.protocol,
        args.side,
        args.side,
        if args.torus { "torus" } else { "mesh" }
    );
    let (s, ok) = match &outcome {
        RunOutcome::Flat(r) => {
            if let Some(trace) = &replay {
                println!(
                    "  trace            : {} messages, {} roots, horizon {}",
                    trace.len(),
                    trace.num_roots(),
                    trace.horizon()
                );
            } else {
                println!(
                    "  offered load     : {} flits/node/cycle (len {} flits, locality {})",
                    args.load, args.len, args.locality
                );
            }
            println!("  sent / delivered : {} / {}", r.sent, r.delivered);
            println!(
                "  avg latency      : {:.1} cycles (p99 <= {})",
                r.avg_latency, r.p99_latency
            );
            if replay.is_some() {
                println!("  makespan         : {} cycles", r.end);
            } else {
                println!("  accepted thpt    : {:.3} flits/node/cycle", r.throughput);
            }
            println!("  circuit fraction : {:.1}%", r.circuit_fraction * 100.0);
            (r.wave, r.clean())
        }
        RunOutcome::Service(r) => {
            println!(
                "  requests         : {} issued / {} completed ({} clients retired)",
                r.requests, r.completed, r.retired
            );
            println!(
                "  avg round trip   : {:.1} cycles (p99 <= {})",
                r.avg_round_trip, r.p99_round_trip
            );
            (
                r.wave,
                r.drained && !r.stalled && (r.completed > 0 || r.requests == 0),
            )
        }
    };
    println!(
        "  probes {} (ok {} / exhausted {}), backtracks {}, misroutes {}",
        s.probes_sent, s.probes_reached, s.probes_exhausted, s.probe_backtracks, s.probe_misroutes
    );
    println!(
        "  cache hits {} / misses {} / evictions {}; forced releases {} local + {} remote",
        s.cache_hits,
        s.cache_misses,
        s.cache_evictions,
        s.forced_local_releases,
        s.forced_remote_releases
    );
    if args.fault_plan.is_some() || args.fault_schedule.is_some() {
        println!(
            "  faults: {} lane failures, {} repairs; {} circuits broken, {} retries",
            s.lane_faults, s.lane_repairs, s.circuits_broken, s.establish_retries
        );
    }
    let ok = ok && !watchdog_aborted(&observed);
    println!(
        "  verdict          : {}",
        if ok { "CLEAN" } else { "CHECK FAILED" }
    );
    if let Some(handle) = &live_handle {
        let a =
            wavesim_analyze::take_analysis(handle).ok_or("live analytics produced no analysis")?;
        println!();
        println!("live analytics (folded during the run):");
        print!("{}", wavesim_analyze::report::render(&a));
    }
    Ok(ok)
}

/// `wavesim gen-trace --collective C [--side N] [--len N] [--seed N]
/// --out FILE` — emits one of E15's dependency-aware collective traces
/// for `run --replay-trace`. A `.jsonl` output name selects the
/// line-oriented stream format; anything else gets the pretty JSON
/// document (`load_dep_trace` sniffs either back in by content).
fn gen_trace_cmd(args: &Args) -> Outcome {
    let known = ["all-to-all", "reduce", "broadcast", "transpose-sweep"];
    let which = args
        .collective
        .as_ref()
        .ok_or_else(|| format!("gen-trace needs --collective {}", known.join("|")))?;
    let out = args.out.as_ref().ok_or("gen-trace needs --out FILE")?;
    if !known.contains(&which.as_str()) {
        return Err(format!(
            "unknown collective {which:?} (use {})",
            known.join("|")
        ));
    }
    let topo = square(args.torus, args.side)?;
    // transpose-sweep draws per-phase destinations from --seed; the tree
    // collectives are fully determined by the topology.
    let trace = if which == "transpose-sweep" {
        wavesim_workloads::collectives::pattern_sweep(
            &topo,
            TrafficPattern::Transpose,
            3,
            args.len,
            args.seed,
        )
    } else {
        experiments::e15_collectives::build_trace(&topo, which, args.len)
    };
    let file = std::fs::File::create(out).map_err(|e| cannot_write(out, e))?;
    let file = std::io::BufWriter::new(file);
    if out.ends_with(".jsonl") {
        wavesim_workloads::trace_io::save_dep_trace_jsonl(&trace, file)
    } else {
        wavesim_workloads::trace_io::save_dep_trace(&trace, file)
    }
    .map_err(|e| cannot_write(out, e))?;
    println!(
        "wrote {which} trace: {out} ({} messages, {} roots, horizon {})",
        trace.len(),
        trace.num_roots(),
        trace.horizon()
    );
    Ok(true)
}

/// `wavesim analyze` — turns a captured record stream (JSONL or binary
/// columnar, sniffed by content) into the analytics report (tables on
/// stdout or `--report`, machine JSON via `--json`, windowed CSV via
/// `--timeseries`).
fn analyze_cmd(args: &Args) -> Outcome {
    let path = args.trace_in.as_ref().ok_or(
        "analyze needs --trace FILE (a stream from `run --trace-jsonl` or `run --trace-bin`)",
    )?;
    // Stream the capture record-by-record into the incremental engine:
    // peak memory is one frame, whatever the capture size, and the result
    // is identical to the offline fold by construction.
    use wavesim_trace::stream::TraceReader as _;
    let mut reader = wavesim_trace::stream::stream_trace_file(std::path::Path::new(path))
        .map_err(cannot_read)?;
    let mut live = wavesim_analyze::LiveAnalytics::new(wavesim_analyze::AnalyzeOptions {
        window: args.window,
        top_k: args.top,
        nodes: None,
        sample_factor: args.trace_sample.max(1),
    });
    while let Some(rec) = reader.next_record() {
        live.fold(&rec.map_err(|e| format!("{path}: {e}"))?);
        if let Some(why) = live.refusal() {
            return Err(format!("{path}: {why}"));
        }
    }
    let analysis = live.finish();
    let report = wavesim_analyze::report::render(&analysis);
    match &args.report_out {
        Some(out) => {
            write_file(out, &report)?;
            println!("wrote report: {out}");
        }
        None => print!("{report}"),
    }
    if let Some(out) = &args.json_out {
        let doc = wavesim_analyze::report::to_json(&analysis);
        write_file(out, &doc.pretty())?;
        println!("wrote analysis JSON: {out}");
    }
    if let Some(out) = &args.timeseries_csv {
        let csv = wavesim_trace::timeseries::to_csv(&analysis.series, analysis.nodes);
        write_file(out, &csv)?;
        println!(
            "wrote time series: {out} ({} windows)",
            analysis.series.len()
        );
    }
    Ok(true)
}

fn run_experiments(ids: &[&str], args: &Args) -> Outcome {
    let observing = Observing::new(args, false)?;
    let factory = |exported| observing.observers(exported);
    let ctx = experiments::Ctx::observed(args.scale, args.jobs, &factory);
    for id in ids {
        for table in experiments::run(id, &ctx) {
            if args.json {
                println!("{}", table.to_json().pretty());
            } else {
                table.print();
            }
        }
    }
    // Experiments drive many runs; what gets exported is the last one (for
    // sweeps the highest point — the most loaded, most interesting trace).
    let observed = ctx.into_observed();
    observing.report(&observed)?;
    Ok(!watchdog_aborted(&observed))
}

/// Builds a model-checker spec from the CLI flags. `--model` selects the
/// protocol automaton; `probe` is CLRP with the Force phase disabled, so
/// what is exercised is pure MB-m backtracking (Theorem 3's machinery).
fn model_spec(args: &Args) -> Result<wavesim_model::ModelSpec, String> {
    use wavesim_model::{ModelProtocol, ModelSpec, Mutation, MAX_MSGS, MAX_NODES};
    let protocol = match args.model.as_deref() {
        Some("clrp") => ModelProtocol::Clrp,
        Some("carp") => ModelProtocol::Carp,
        Some("probe") => ModelProtocol::ClrpNoForce,
        Some(other) => return Err(format!("unknown model `{other}` (clrp | carp | probe)")),
        None => return Err("missing --model".into()),
    };
    // Exhaustive exploration wants the smallest non-degenerate fabric:
    // 2x2 mesh, 3x3 torus (the torus constructor requires radix >= 3).
    let side = if args.side_set {
        args.side
    } else if args.torus {
        3
    } else {
        2
    };
    // Refused before the topology's tables are built for it.
    let nodes = u32::from(side) * u32::from(side);
    if nodes > MAX_NODES {
        return Err(format!(
            "`--side {side}` makes {nodes} nodes; `--model` explores at most {MAX_NODES}"
        ));
    }
    let topo = square(args.torus, side)?;
    let msgs = if args.msg_list.is_empty() {
        args.msgs
    } else {
        args.msg_list.len()
    };
    if msgs > MAX_MSGS {
        return Err(format!(
            "{msgs} messages (`--msgs` / `--msg`) are too many; `--model` explores at most {MAX_MSGS}"
        ));
    }
    if args.fault && msgs == 0 {
        return Err(
            "`--fault` breaks the first message's path: `--msgs` must be at least 1".into(),
        );
    }
    let mut spec = ModelSpec::new(topo, protocol, args.k);
    if args.msg_list.is_empty() {
        spec = spec.msgs_from_pattern(TrafficPattern::Uniform, args.msgs, args.seed);
    }
    for &(s, d) in &args.msg_list {
        if s.max(d) >= nodes {
            return Err(format!(
                "`--msg {s}:{d}` names node {} but `--side {side}` makes {nodes} nodes",
                s.max(d)
            ));
        }
        spec = spec.msg(s, d);
    }
    if let Some(m) = &args.mutate {
        spec = spec.mutate(Mutation::parse(m)?);
    }
    if args.fault {
        spec = spec.fault_on_first_path(args.repair);
    }
    Ok(spec)
}

/// Prints a shrunk counterexample and, given a `--counterexample` path,
/// writes its concrete replay trace there (JSONL, or `WSTRACE1` columnar
/// when the path ends in `.bin`), ready for `validate-trace`.
fn report_counterexample(
    spec: &wavesim_model::ModelSpec,
    cx: &wavesim_model::Counterexample,
    path: Option<&String>,
) -> Result<(), String> {
    println!("shrunk schedule ({} actions):", cx.schedule.len());
    print!("{}", cx.render());
    let Some(path) = path else {
        return Ok(());
    };
    let rep = wavesim_model::replay_schedule(spec, &cx.schedule);
    if path.ends_with(".bin") {
        std::fs::write(path, rep.columnar())
    } else {
        std::fs::write(path, rep.jsonl())
    }
    .map_err(|e| cannot_write(path, e))?;
    println!(
        "wrote counterexample replay trace: {path} ({} records; real network {})",
        rep.records.len(),
        if rep.survived() {
            "survives the stimulus — the flaw is model-only"
        } else {
            "reproduces the failure"
        }
    );
    Ok(())
}

/// Describes a model spec on one line (header for check/fuzz output).
fn describe_spec(spec: &wavesim_model::ModelSpec) -> String {
    format!(
        "model={:?} k={} msgs={:?} fault={:?} mutation={}",
        spec.protocol,
        spec.k,
        spec.msgs
            .iter()
            .map(|(s, d)| (s.0, d.0))
            .collect::<Vec<_>>(),
        spec.fault,
        spec.mutation.name(),
    )
}

/// Exhaustive model check (`wavesim check --model …`). Returns `false`
/// (nonzero exit) on violation or an exhausted state budget.
fn model_check(args: &Args) -> Outcome {
    let spec = model_spec(args)?;
    println!("exhaustive model check: {}", describe_spec(&spec));
    let out = wavesim_model::check(&spec, args.max_states);
    println!(
        "explored {} states / {} transitions, depth {}, {} wait-graphs checked",
        out.states, out.transitions, out.depth, out.wait_checked
    );
    println!("{}", out.verdict());
    if let Some(cx) = &out.violation {
        let cx = wavesim_model::shrink(&spec, cx);
        report_counterexample(&spec, &cx, args.counterexample.as_ref())?;
        return Ok(false);
    }
    Ok(out.proved())
}

/// Randomized schedule fuzzing (`wavesim fuzz`). Returns `false` on a
/// violation.
fn fuzz_cmd(args: &Args) -> Outcome {
    let spec = model_spec(args)?;
    println!("schedule fuzz: {}", describe_spec(&spec));
    let cfg = wavesim_model::FuzzConfig {
        seed: args.seed,
        runs: args.runs,
        max_steps: args.steps,
        fault_churn: !args.fault,
    };
    let out = wavesim_model::fuzz(&spec, &cfg);
    println!("{}", out.verdict());
    if let Some((variant, cx)) = &out.violation {
        println!("violating variant: {}", describe_spec(variant));
        report_counterexample(variant, cx, args.counterexample.as_ref())?;
        return Ok(false);
    }
    Ok(true)
}

fn static_checks(side: u16) -> Outcome {
    if side < 3 {
        return Err(format!(
            "`check` certifies torus routing too, which needs `--side` >= 3, got {side}"
        ));
    }
    let mut ok = true;
    let cases = [
        (
            "mesh, deterministic DOR",
            false,
            RoutingKind::Deterministic,
            2,
        ),
        ("torus, dateline DOR", true, RoutingKind::Deterministic, 2),
        ("mesh, Duato adaptive", false, RoutingKind::Adaptive, 3),
        ("torus, Duato adaptive", true, RoutingKind::Adaptive, 3),
    ];
    println!("static channel-dependency-graph checks (paper §4 grounding):");
    for (what, torus, kind, w) in cases {
        let name = format!("{side}x{side} {what}");
        let topo = square(torus, side)?;
        let routing = kind.build(&topo, w);
        let rep = check_deadlock_freedom(&topo, routing.as_ref());
        println!(
            "  {name:<40} mode={:?} vertices={} edges={} -> {}",
            rep.mode,
            rep.vertices,
            rep.edges,
            if rep.deadlock_free {
                "DEADLOCK-FREE"
            } else {
                ok = false;
                "CYCLE FOUND"
            }
        );
    }
    Ok(ok)
}

fn info() {
    let cfg = WaveConfig::default();
    println!("wavesim — wave switching (Duato/Lopez/Yalamanchili, IPPS'97) reproduction");
    println!("default configuration:");
    println!("  wave switches per router (k) : {}", cfg.k);
    println!("  wave clock multiplier (alpha): {}", cfg.clock_multiplier);
    println!("  channel split (sigma)        : {}", cfg.channel_split);
    println!(
        "  per-circuit lane bandwidth   : {}/{} flits/cycle",
        cfg.lane_rate().0,
        cfg.lane_rate().1
    );
    println!("  windowing window             : {} flits", cfg.window);
    println!("  MB-m misroute budget (m)     : {}", cfg.misroutes);
    println!("  circuit cache entries/node   : {}", cfg.cache_capacity);
    println!("  replacement policy           : {:?}", cfg.replacement);
    println!("  wormhole VCs per link (w)    : {}", cfg.wormhole.w);
    println!(
        "  wormhole buffer depth        : {}",
        cfg.wormhole.buffer_depth
    );
    println!();
    println!("experiments: {}", experiments::all_ids().join(", "));
}

fn main() -> ExitCode {
    let args = parse_args();
    let outcome = match args.cmd.as_str() {
        "all" => run_experiments(&experiments::all_ids(), &args),
        "check" if args.model.is_some() => model_check(&args),
        "check" => static_checks(args.side),
        "fuzz" => fuzz_cmd(&args),
        "info" => {
            info();
            Ok(true)
        }
        "run" => custom_run(&args),
        "gen-trace" => gen_trace_cmd(&args),
        "analyze" => analyze_cmd(&args),
        "validate-trace" => validate_trace(args.path.as_deref().unwrap_or_else(|| usage())),
        "convert-trace" => convert_trace(&args),
        id if experiments::all_ids().contains(&id) => run_experiments(&[id], &args),
        _ => usage(),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
