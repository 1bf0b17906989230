//! `wavesim` — the command-line experiment runner: every experiment of
//! EXPERIMENTS.md, single custom runs, trace capture and analysis, and the
//! protocol model checker. Run `wavesim help` for the commands and flags;
//! the tables they are declared in, once, are in [`flags`].

mod flags;

use std::process::ExitCode;

use flags::{Args, Cmd};
use wavesim_bench::livestate::StatusBoard;
use wavesim_bench::timeseries::Sampler;
use wavesim_bench::tracecap::Capture;
use wavesim_bench::watchdog::{Watchdog, WatchdogConfig};
use wavesim_bench::{experiments, Observed, Observers, RunSpec};
use wavesim_core::{LaneId, WaveConfig, WaveNetwork};
use wavesim_topology::{RoutingKind, Topology};
use wavesim_trace::TraceSink;
use wavesim_verify::check_deadlock_freedom;
use wavesim_workloads::{LengthDist, TrafficConfig, TrafficPattern, TrafficSource};

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
    use wavesim_trace::stream::{stream_trace_file, TraceFormat};
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

/// `wavesim convert-trace`: lossless conversion between the JSONL and binary
/// columnar stream formats (the input's is sniffed from its leading bytes).
fn convert_trace(args: &Args) -> Outcome {
    use std::path::Path;
    use wavesim_trace::stream::{ColumnarSink, JsonlSink};
    let input = &args.path;
    let out = args
        .out
        .as_ref()
        .ok_or("convert-trace needs `--out FILE`")?;
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
/// commands alike; [`Observing::observers`] makes one run's set. (The flag
/// table gives the sampler, metrics page and live analytics to `run` only.)
struct Observing<'a> {
    args: &'a Args,
    watch: WatchdogConfig,
    board: Option<StatusBoard>,
}

impl<'a> Observing<'a> {
    /// Checks the stream paths are writable and brings up the live plane
    /// (status board, HTTP endpoint). Everything goes to stderr or the
    /// socket, so stdout stays byte-identical to an unobserved run.
    fn new(args: &'a Args) -> Result<Self, String> {
        for path in [&args.trace_jsonl, &args.trace_bin].into_iter().flatten() {
            // Fail before the run, not after a long sweep.
            std::fs::File::create(path).map_err(|e| format!("cannot stream to {path}: {e}"))?;
        }
        if args.trace_bin.is_none() && args.trace_sample > 1 {
            eprintln!("note: --trace-sample applies to --trace-bin only; ignored");
        }
        // The metrics page is the board's final status, so it arms one too.
        let board =
            (args.live_status || args.serve_metrics.is_some() || args.metrics_out.is_some())
                .then(|| StatusBoard::new(args.live_status));
        if let (Some(addr), Some(board)) = (&args.serve_metrics, &board) {
            let local = wavesim_bench::serve::serve(addr, board.clone())
                .map_err(|e| format!("`--serve-metrics {addr}`: {e}"))?;
            eprintln!("serving live metrics on http://{local}/metrics (JSON status at /status)");
        }
        Ok(Self {
            args,
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
            || a.metrics_out.is_some()
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
            || a.live_analyze;
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
        let sampler = (a.timeseries_out.is_some() || a.progress.is_some())
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
        return Err("`--replay-trace` and `--service-clients` are mutually exclusive".into());
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
    let observing = Observing::new(args)?;
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
    let status = observing.board.as_ref().and_then(StatusBoard::snapshot);
    if let (Some(path), Some(t), Some(status)) = (&args.metrics_out, &observed.trace, &status) {
        use wavesim_bench::metrics::{metrics_page, run_gauges, service_gauges, traced_latency};
        let outcome = match &outcome {
            RunOutcome::Flat(r) => run_gauges(r).to_vec(),
            RunOutcome::Service(r) => service_gauges(r).to_vec(),
        };
        let page = metrics_page(
            "wavesim_",
            status,
            &outcome,
            Some(&traced_latency(&t.records)),
        );
        write_file(path, &page)?;
        println!("wrote metrics: {path}");
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

/// `wavesim gen-trace`: emits one of E15's dependency-aware collective
/// traces for `run` to replay. A `.jsonl` output name selects the line
/// format, anything else the pretty JSON document (`load_dep_trace` sniffs
/// either back in by content).
fn gen_trace_cmd(args: &Args) -> Outcome {
    let which = args.collective.ok_or("gen-trace needs `--collective`")?;
    let out = args.out.as_ref().ok_or("gen-trace needs `--out FILE`")?;
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
    let observing = Observing::new(args)?;
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
    use wavesim_model::{ModelSpec, MAX_MSGS, MAX_NODES};
    let protocol = args.model.ok_or("missing `--model`")?;
    // Exhaustive exploration wants the smallest non-degenerate fabric:
    // 2x2 mesh, 3x3 torus (the torus constructor requires radix >= 3).
    let side = if args.given.contains(&"side") {
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
    if let Some(m) = args.mutate {
        spec = spec.mutate(m);
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

fn info() -> Outcome {
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
    Ok(true)
}

fn main() -> ExitCode {
    let args = match flags::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(flags::UsageError(what)) => {
            eprintln!("error: {what}\n{}", flags::USAGE);
            return ExitCode::from(2);
        }
    };
    let outcome = match args.cmd {
        Cmd::All => run_experiments(&experiments::all_ids(), &args),
        Cmd::Exp => run_experiments(&[&args.word], &args),
        Cmd::Run => custom_run(&args),
        Cmd::GenTrace => gen_trace_cmd(&args),
        Cmd::Analyze => analyze_cmd(&args),
        Cmd::ConvertTrace => convert_trace(&args),
        Cmd::ValidateTrace => validate_trace(&args.path),
        Cmd::Check if args.model.is_some() => model_check(&args),
        Cmd::Check => static_checks(args.side),
        Cmd::Fuzz => fuzz_cmd(&args),
        Cmd::Info => info(),
        Cmd::Help => {
            print!("{}", flags::help(&args.word));
            Ok(true)
        }
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
