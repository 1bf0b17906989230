//! `wavesim` — the command-line experiment runner: every experiment of
//! EXPERIMENTS.md, single custom runs, trace capture and analysis, and the
//! protocol model checker. Run `wavesim help` for the commands and flags;
//! the tables they are declared in, once, are in [`flags`].

mod flags;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use flags::{Args, Cmd, ConvertTo};
use wavesim_analyze::series::{self, RunSeries, WindowRow};
use wavesim_analyze::LiveAnalytics;
use wavesim_bench::livestate::StatusBoard;
use wavesim_bench::tracecap::Capture;
use wavesim_bench::watchdog::{Watchdog, WatchdogConfig};
use wavesim_bench::{experiments, Observed, Observers, RunSpec};
use wavesim_core::{WaveConfig, WaveNetwork};
use wavesim_topology::{RoutingKind, Topology};
use wavesim_trace::stream::{
    stream_trace_file, ColumnarFile, Listener, StreamingReader, TraceFormat,
};
use wavesim_trace::{ColumnarSink, FlightRecorder};
use wavesim_verify::check_deadlock_freedom;
use wavesim_workloads::{LengthDist, TrafficConfig, TrafficPattern, TrafficSource};

/// How a command ended. `Ok(false)`: it ran, and its verdict (a run that
/// is not clean, a model violation, a watchdog abort) fails the process.
/// `Err`: it stopped early.
type Outcome = Result<bool, Stop>;

/// Why a command stopped early.
enum Stop {
    /// It could not do its job; `main` prints the message after `error: `.
    Failed(String),
    /// Whoever read stdout closed it (`wavesim run | head -1`): the output
    /// is over, and so is the command.
    Closed,
}

impl From<String> for Stop {
    fn from(why: String) -> Self {
        Stop::Failed(why)
    }
}

impl From<&str> for Stop {
    fn from(why: &str) -> Self {
        Stop::Failed(why.into())
    }
}

/// `main`'s status when stdout closed under it: 128 + SIGPIPE, what a
/// shell reports for a writer the signal ended.
const CLOSED: u8 = 141;

/// Writes to stdout, the one way this file does. A closed pipe is the end
/// of the output, not an error to report.
fn say(text: std::fmt::Arguments) -> Result<(), Stop> {
    use std::io::Write as _;
    match std::io::stdout().lock().write_fmt(text) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Err(Stop::Closed),
        written => written.map_err(|e| format!("cannot write to stdout: {e}").into()),
    }
}

/// `print!` through [`say`].
macro_rules! out {
    ($($arg:tt)*) => { say(format_args!($($arg)*)) };
}

/// `println!` through [`say`].
macro_rules! outln {
    () => { say(format_args!("\n")) };
    ($($arg:tt)*) => { say(format_args!("{}\n", format_args!($($arg)*))) };
}

fn cannot_write(path: &str, e: impl std::fmt::Display) -> String {
    format!("cannot write {path}: {e}")
}

/// Opens a capture for streaming. An empty file has no format to sniff,
/// so it is refused by name rather than misread as malformed JSON.
fn open_capture(path: &str) -> Result<StreamingReader<std::fs::File>, String> {
    // `stream_trace_file`'s error already names the path.
    let reader = stream_trace_file(Path::new(path)).map_err(|e| format!("cannot read {e}"))?;
    if std::fs::metadata(path).is_ok_and(|m| m.len() == 0) {
        return Err(format!("{path}: empty file, no records"));
    }
    Ok(reader)
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

/// Schema-checks a trace file: binary columnar streams (`--trace-bin`),
/// their JSONL and Perfetto views (`convert-trace --to jsonl|perfetto`)
/// are all recognised by content, not extension.
fn validate_trace(path: &str) -> Outcome {
    // The two record formats are counted through the streaming reader, in
    // bounded memory whatever the capture size.
    let mut reader = open_capture(path)?;
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
            return Err(format!("{path}: corrupt {what} trace: {e}").into());
        }
        if binary {
            let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
            outln!("{path}: valid binary columnar trace — {records} records ({bytes} bytes)")?;
        } else {
            outln!("{path}: valid JSONL record stream — {records} records")?;
        }
        return Ok(true);
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{path}: neither a binary trace nor UTF-8 JSON: {e}"))?;
    let doc =
        wavesim_json::Value::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let s = wavesim_trace::perfetto::validate(&doc).map_err(|e| format!("{path}: {e}"))?;
    outln!(
        "{path}: valid Perfetto trace — {} events ({} spans, {} instants)",
        s.events,
        s.spans,
        s.instants
    )?;
    Ok(true)
}

/// Where `path` lives: its directory resolved (so `t.out` and `./t.out`
/// agree) joined with its file name; `path` itself when the directory
/// does not exist.
fn resolved(path: &str) -> PathBuf {
    let path = Path::new(path);
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    match (dir.canonicalize(), path.file_name()) {
        (Ok(dir), Some(name)) => dir.join(name),
        _ => path.to_path_buf(),
    }
}

/// `wavesim convert-trace`: lossless conversion between the binary
/// columnar stream and its JSONL view (the input's format is sniffed from
/// its leading bytes), or the Perfetto view of the capture's last
/// `--flight-recorder` records with counter tracks from its time series.
fn convert_trace(args: &Args) -> Outcome {
    use std::io::Write as _;
    let input = &args.path;
    let out = args
        .out
        .as_ref()
        .ok_or("convert-trace needs `--out FILE`")?;
    // Creating the output would truncate the input before it is read.
    if resolved(out) == resolved(input) {
        let flag = flags::name("out");
        return Err(format!("`{flag}` and the input FILE both name {out}").into());
    }
    // Stream end to end: the reader decodes the input frame-by-frame, so
    // conversion runs in bounded memory at any capture size.
    let mut reader = open_capture(input)?;
    let mut n: u64 = 0;
    let mut next = || {
        let rec = reader.next_record()?;
        n += 1;
        Some(rec.map_err(|e| format!("{input}: {e}")))
    };
    let what = match args.to {
        ConvertTo::Bin => {
            let mut sink =
                ColumnarSink::create(Path::new(out)).map_err(|e| cannot_write(out, e))?;
            while let Some(rec) = next() {
                sink.record(rec?);
            }
            sink.finish().map_err(|e| cannot_write(out, e))?;
            format!("{n} records as binary columnar")
        }
        ConvertTo::Jsonl => {
            let file = std::fs::File::create(out).map_err(|e| cannot_write(out, e))?;
            let mut w = std::io::BufWriter::new(file);
            let mut line = String::new();
            while let Some(rec) = next() {
                line.clear();
                wavesim_trace::stream::encode_record(&mut line, &rec?);
                line.push('\n');
                w.write_all(line.as_bytes())
                    .map_err(|e| cannot_write(out, e))?;
            }
            w.flush().map_err(|e| cannot_write(out, e))?;
            format!("{n} records as JSONL")
        }
        ConvertTo::Perfetto => {
            // The ring bounds the records held, whatever the capture's size.
            let mut ring = FlightRecorder::new(args.flight_recorder);
            let mut live = LiveAnalytics::new(wavesim_analyze::AnalyzeOptions::default());
            while let Some(rec) = next() {
                let rec = rec?;
                live.fold(&rec);
                if let Some(why) = live.refusal() {
                    return Err(format!("{input}: {why}").into());
                }
                ring.record(rec);
            }
            let a = live.finish();
            let counters = series::perfetto_counters(&a.series, a.nodes);
            let doc = wavesim_trace::perfetto::export_with_counters(&ring.snapshot(), counters);
            write_file(out, &doc.compact())?;
            format!("{} of {n} records as Perfetto", ring.len())
        }
    };
    let bytes = std::fs::metadata(out).map_or(0, |m| m.len());
    outln!("converted {input} -> {out}: {what} ({bytes} bytes)")?;
    Ok(true)
}

/// Loads and applies a `--fault-schedule` file onto the run's network,
/// surfacing mismatches against the chosen topology/`k` (a schedule built
/// for another network) as clean errors.
fn apply_fault_inputs(net: &mut WaveNetwork, args: &Args) -> Result<(), Stop> {
    use wavesim_workloads::trace_io::load_fault_schedule;
    if let Some(path) = &args.fault_schedule {
        let sched = load_file("fault schedule", path, load_fault_schedule)?;
        sched
            .validate(net.topology(), net.config().k)
            .and_then(|()| wavesim_bench::apply_fault_schedule(net, &sched))
            .map_err(|e| format!("fault schedule {path} does not fit this network: {e}"))?;
        outln!("scheduled faults: {path} ({} events)", sched.len())?;
    }
    Ok(())
}

/// The observability flags, resolved once for `run` and the experiment
/// commands alike; [`Observing::observers`] makes one run's set. (The flag
/// table gives the time series, metrics page and live analytics to `run`
/// only.)
struct Observing<'a> {
    args: &'a Args,
    watch: WatchdogConfig,
    board: Option<StatusBoard>,
}

impl<'a> Observing<'a> {
    /// Checks the output files are distinct and the stream path writable,
    /// and brings up the live plane (status board, HTTP endpoint).
    /// Everything goes to stderr or the socket, so stdout stays
    /// byte-identical to an unobserved run.
    fn new(args: &'a Args) -> Result<Self, String> {
        // Refused before anything is created: a second writer would
        // silently replace the first one's file.
        let outputs = [
            ("trace_bin", &args.trace_bin),
            ("metrics_out", &args.metrics_out),
            ("timeseries_out", &args.timeseries_out),
            ("watch_postmortem", &args.watch_postmortem),
        ];
        let mut seen: Vec<(&str, PathBuf)> = Vec::new();
        for (field, path) in outputs {
            let Some(path) = path else { continue };
            let at = resolved(path);
            let flag = flags::name(field);
            if let Some((first, _)) = seen.iter().find(|(_, other)| *other == at) {
                return Err(format!("`{first}` and `{flag}` both name {path}"));
            }
            seen.push((flag, at));
        }
        if let Some(path) = &args.trace_bin {
            // Fail before the run, not after a long sweep.
            std::fs::File::create(path).map_err(|e| format!("cannot stream to {path}: {e}"))?;
        }
        if args.trace_bin.is_none() && args.trace_sample > 1 {
            eprintln!("note: --trace-sample applies to --trace-bin only; ignored");
        }
        // The metrics page is the board's final status, so it arms one too.
        let board =
            (args.progress.is_some() || args.serve_metrics.is_some() || args.metrics_out.is_some())
                .then(|| StatusBoard::new(args.progress));
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
                post_mortem: args.watch_postmortem.as_ref().map(PathBuf::from),
            },
            board,
        })
    }

    /// One run's observers, its capture's stream read by the `--trace-bin`
    /// file and by `folds`. Only an `exported` run (possibly the last in
    /// serial order) streams to the file, truncating it: the file ends up
    /// holding the last run streamed there.
    fn observers(&self, exported: bool, folds: Vec<Box<dyn Listener>>) -> Observers {
        let a = self.args;
        let file = a.trace_bin.as_ref().filter(|_| exported).and_then(|path| {
            ColumnarFile::create(Path::new(path))
                .map_err(|e| eprintln!("note: cannot stream to {path}: {e}"))
                .ok()
        });
        let file = file.map(|f| Box::new(f.with_sampling(a.trace_sample)) as Box<dyn Listener>);
        let listeners: Vec<_> = file.into_iter().chain(folds).collect();
        let capture = (!listeners.is_empty())
            .then(|| listeners.into_iter().fold(Capture::new(), Capture::listen));
        Observers {
            capture,
            watchdog: (self.watch.any() || self.watch.post_mortem.is_some())
                .then(|| Watchdog::new(self.watch.clone())),
            board: self.board.as_ref().map(StatusBoard::observer),
        }
    }

    /// Prints what the observers of one command's runs left behind —
    /// watchdog trips, then the files written from the last run's stream
    /// and `timeseries`, the run's rows and node count (`run` only).
    fn report(
        &self,
        observed: &Observed,
        timeseries: Option<(Vec<WindowRow>, u64)>,
    ) -> Result<(), Stop> {
        let a = self.args;
        for rep in &observed.reports {
            for t in &rep.trips {
                outln!(
                    "watchdog: {} tripped at cycle {}: {} > limit {}",
                    t.name(),
                    t.at,
                    t.value,
                    t.limit
                )?;
            }
            if let Some(p) = &rep.post_mortem {
                outln!("watchdog: wrote post-mortem bundle: {}", p.display())?;
            }
            if rep.aborted {
                outln!("watchdog: run aborted")?;
            }
        }
        if let (Some((rows, nodes)), Some(path)) = (timeseries, &a.timeseries_out) {
            write_file(path, &series::to_csv(&rows, nodes))?;
            outln!("wrote time series: {path} ({} windows)", rows.len())?;
        }
        let Some(path) = &a.trace_bin else {
            return Ok(());
        };
        let Some(t) = &observed.trace else {
            eprintln!("note: no run captured; no trace written");
            // `new` created the stream file to fail fast; an empty one
            // would read as a broken capture.
            if std::fs::remove_file(path).is_ok() {
                eprintln!("note: removed the empty {path}");
            }
            return Ok(());
        };
        if let Some(e) = &t.stream_error {
            return Err(format!("trace capture: {e}").into());
        }
        if a.trace_sample > 1 {
            outln!(
                "wrote binary stream: {path} ({} records emitted, bulk kinds sampled 1-in-{})",
                t.total,
                a.trace_sample
            )?;
        } else {
            outln!("wrote binary stream: {path} ({} records)", t.total)?;
        }
        Ok(())
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

/// The run's fold of type `L`, back from its capture when `armed`.
fn fold_back<L: Listener>(obs: &mut Observers, armed: bool) -> Result<Option<L>, Stop> {
    let fold = armed.then(|| obs.capture.as_mut().and_then(Capture::listener));
    fold.map(|f| f.ok_or("a fold of the run died with its stream".into()))
        .transpose()
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
        if let Some(m) = t.messages().iter().find(|m| m.src.0 >= n || m.dest.0 >= n) {
            return Err(format!(
                "replay trace message {} uses node {} but this {}x{} network has {n} nodes (generate with a matching --side)",
                m.id.0,
                m.src.0.max(m.dest.0),
                args.side,
                args.side,
            )
            .into());
        }
    }
    let warmup = args.cycles / 5;
    let observing = Observing::new(args)?;
    // The run's folds read every record, whatever --trace-sample keeps of
    // the file. The series has its own fold, which forgets each message
    // at its delivery: the report's keeps every span.
    let opts = wavesim_analyze::AnalyzeOptions {
        window: args.window,
        top_k: args.top,
    };
    let nodes = u64::from(topo.num_nodes());
    let folds: [Option<Box<dyn Listener>>; 2] = [
        args.live_analyze
            .then(|| Box::new(LiveAnalytics::new(opts)) as _),
        args.timeseries_out
            .as_ref()
            .map(|_| Box::new(RunSeries::new(args.window, nodes)) as _),
    ];
    let mut obs = observing.observers(true, folds.into_iter().flatten().collect());
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
            },
        );
        RunOutcome::Flat(wavesim_bench::run_open_loop_observed(
            &mut net,
            &mut src,
            RunSpec::standard(warmup, args.cycles),
            &mut obs,
        ))
    };
    let analysis = fold_back(&mut obs, args.live_analyze)?.map(LiveAnalytics::finish);
    let timeseries = fold_back::<RunSeries>(&mut obs, args.timeseries_out.is_some())?;
    let mut observed = Observed::default();
    observed.push(obs);
    observing.report(&observed, timeseries.map(RunSeries::finish))?;
    let status = observing.board.as_ref().and_then(StatusBoard::snapshot);
    if let (Some(path), Some(status)) = (&args.metrics_out, &status) {
        use wavesim_bench::metrics::{metrics_page, run_gauges, service_gauges};
        let outcome = match &outcome {
            RunOutcome::Flat(r) => run_gauges(r).to_vec(),
            RunOutcome::Service(r) => service_gauges(r).to_vec(),
        };
        write_file(path, &metrics_page("wavesim_", status, &outcome))?;
        outln!("wrote metrics: {path}")?;
    }
    let mode = if let Some(path) = &args.replay_trace {
        format!("replay of {path}")
    } else if let Some(clients) = args.service_clients {
        format!("service ({clients} clients)")
    } else {
        "single run".to_string()
    };
    outln!(
        "{mode}: {:?} on {}x{} {}",
        args.protocol,
        args.side,
        args.side,
        if args.torus { "torus" } else { "mesh" }
    )?;
    let (s, ok) = match &outcome {
        RunOutcome::Flat(r) => {
            if let Some(trace) = &replay {
                outln!(
                    "  trace            : {} messages, {} roots, horizon {}",
                    trace.len(),
                    trace.num_roots(),
                    trace.horizon()
                )?;
            } else {
                outln!(
                    "  offered load     : {} flits/node/cycle (len {} flits, locality {})",
                    args.load,
                    args.len,
                    args.locality
                )?;
            }
            outln!("  sent / delivered : {} / {}", r.sent, r.delivered)?;
            outln!(
                "  avg latency      : {:.1} cycles (p99 <= {})",
                r.avg_latency,
                r.p99_latency
            )?;
            if replay.is_some() {
                outln!("  makespan         : {} cycles", r.end)?;
            } else {
                outln!("  accepted thpt    : {:.3} flits/node/cycle", r.throughput)?;
            }
            outln!("  circuit fraction : {:.1}%", r.circuit_fraction * 100.0)?;
            (r.wave, r.clean())
        }
        RunOutcome::Service(r) => {
            outln!(
                "  requests         : {} issued / {} completed ({} clients retired)",
                r.requests,
                r.completed,
                r.retired
            )?;
            outln!(
                "  avg round trip   : {:.1} cycles (p99 <= {})",
                r.avg_round_trip,
                r.p99_round_trip
            )?;
            (
                r.wave,
                r.drained && !r.stalled && (r.completed > 0 || r.requests == 0),
            )
        }
    };
    outln!(
        "  probes {} (ok {} / exhausted {}), backtracks {}, misroutes {}",
        s.probes_sent,
        s.probes_reached,
        s.probes_exhausted,
        s.probe_backtracks,
        s.probe_misroutes
    )?;
    outln!(
        "  cache hits {} / misses {} / evictions {}; forced releases {} local + {} remote",
        s.cache_hits,
        s.cache_misses,
        s.cache_evictions,
        s.forced_local_releases,
        s.forced_remote_releases
    )?;
    if args.fault_schedule.is_some() {
        outln!(
            "  faults: {} lane failures, {} repairs; {} circuits broken, {} retries",
            s.lane_faults,
            s.lane_repairs,
            s.circuits_broken,
            s.establish_retries
        )?;
    }
    let ok = ok && !watchdog_aborted(&observed);
    outln!(
        "  verdict          : {}",
        if ok { "CLEAN" } else { "CHECK FAILED" }
    )?;
    if let Some(a) = analysis.filter(|_| args.live_analyze) {
        outln!()?;
        outln!("live analytics (folded during the run):")?;
        out!("{}", wavesim_analyze::report::render(&a))?;
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
    outln!(
        "wrote {which} trace: {out} ({} messages, {} roots, horizon {})",
        trace.len(),
        trace.num_roots(),
        trace.horizon()
    )?;
    Ok(true)
}

/// `wavesim analyze` — turns a captured record stream (binary columnar or
/// its JSONL view, sniffed by content) into the analytics report (tables on
/// stdout or `--report`, machine JSON via `--json`, windowed CSV via
/// `--timeseries`).
fn analyze_cmd(args: &Args) -> Outcome {
    let path = args.trace_in.as_ref().ok_or(
        "analyze needs --trace FILE (a capture from `run --trace-bin`, or its JSONL view)",
    )?;
    // Stream the capture record-by-record into the incremental engine:
    // peak memory is one frame, whatever the capture size, and the result
    // is identical to the offline fold by construction. The fold reads a
    // sampled capture's factor from the gaps its sampler left.
    let mut reader = open_capture(path)?;
    let mut live = LiveAnalytics::new(wavesim_analyze::AnalyzeOptions {
        window: args.window,
        top_k: args.top,
    });
    while let Some(rec) = reader.next_record() {
        live.fold(&rec.map_err(|e| format!("{path}: {e}"))?);
        if let Some(why) = live.refusal() {
            return Err(format!("{path}: {why}").into());
        }
    }
    let analysis = live.finish();
    let report = wavesim_analyze::report::render(&analysis);
    match &args.report_out {
        Some(out) => {
            write_file(out, &report)?;
            outln!("wrote report: {out}")?;
        }
        None => out!("{report}")?,
    }
    if let Some(out) = &args.json_out {
        let doc = wavesim_analyze::report::to_json(&analysis);
        write_file(out, &doc.pretty())?;
        outln!("wrote analysis JSON: {out}")?;
    }
    if let Some(out) = &args.timeseries_csv {
        let csv = series::to_csv(&analysis.series, analysis.nodes);
        write_file(out, &csv)?;
        outln!(
            "wrote time series: {out} ({} windows)",
            analysis.series.len()
        )?;
    }
    Ok(true)
}

fn run_experiments(ids: &[&str], args: &Args) -> Outcome {
    let observing = Observing::new(args)?;
    let factory = |exported| observing.observers(exported, Vec::new());
    let ctx = experiments::Ctx::observed(args.scale, args.jobs, &factory);
    for table in experiments::run_all(ids, &ctx) {
        if args.json {
            outln!("{}", table.to_json().pretty())?;
        } else {
            outln!("{}", table.render())?;
        }
    }
    // Experiments drive many runs; what gets exported is the last one (for
    // sweeps the highest point — the most loaded, most interesting trace).
    let observed = ctx.into_observed();
    observing.report(&observed, None)?;
    Ok(!watchdog_aborted(&observed))
}

/// Builds a model-checker spec from the CLI flags. `--model` selects the
/// protocol; `probe` is CLRP with the Force phase disabled, so
/// what is exercised is pure MB-m backtracking (Theorem 3's machinery).
fn model_spec(args: &Args) -> Result<wavesim_model::ModelSpec, String> {
    use wavesim_model::{ModelSpec, MAX_MSGS, MAX_NODES};
    let (protocol, force) = args.model.ok_or("missing `--model`")?;
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
    if !force {
        spec = spec.without_force();
    }
    // MB-0 unless asked, like `--side`: the smallest search is the default.
    if args.given.contains(&"misroutes") {
        spec = spec.misroutes(args.misroutes);
    }
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
/// writes its concrete replay trace there as `WSTRACE1` (whatever the
/// name), ready for `validate-trace` and `convert-trace`.
fn report_counterexample(
    spec: &wavesim_model::ModelSpec,
    cx: &wavesim_model::Counterexample,
    path: Option<&String>,
) -> Result<(), Stop> {
    outln!("shrunk schedule ({} actions):", cx.schedule.len())?;
    out!("{}", cx.render())?;
    let Some(path) = path else {
        return Ok(());
    };
    let rep = wavesim_model::replay_schedule(spec, &cx.schedule);
    std::fs::write(path, rep.columnar()).map_err(|e| cannot_write(path, e))?;
    outln!(
        "wrote counterexample replay trace: {path} ({} records; real network {})",
        rep.records.len(),
        if rep.survived() {
            "survives the stimulus: the flaw is the mutation's"
        } else {
            "reproduces the failure"
        }
    )?;
    Ok(())
}

/// Describes a model spec on one line (header for check/fuzz output).
fn describe_spec(spec: &wavesim_model::ModelSpec) -> String {
    format!(
        "model={} k={} misroutes={} msgs={:?} fault={:?} mutation={}",
        spec.protocol_name(),
        spec.cfg.k,
        spec.cfg.misroutes,
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
    outln!("exhaustive model check: {}", describe_spec(&spec))?;
    let out = wavesim_model::check(&spec, args.max_states);
    outln!(
        "explored {} states / {} transitions, depth {}, {} wait-graphs checked",
        out.states,
        out.transitions,
        out.depth,
        out.wait_checked
    )?;
    outln!("{}", out.verdict())?;
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
    outln!("schedule fuzz: {}", describe_spec(&spec))?;
    let cfg = wavesim_model::FuzzConfig {
        seed: args.seed,
        runs: args.runs,
        max_steps: args.steps,
        fault_churn: !args.fault,
    };
    let out = wavesim_model::fuzz(&spec, &cfg);
    outln!("{}", out.verdict())?;
    if let Some((variant, cx)) = &out.violation {
        outln!("violating variant: {}", describe_spec(variant))?;
        report_counterexample(variant, cx, args.counterexample.as_ref())?;
        return Ok(false);
    }
    Ok(true)
}

fn static_checks(side: u16) -> Outcome {
    if side < 3 {
        return Err(format!(
            "`check` certifies torus routing too, which needs `--side` >= 3, got {side}"
        )
        .into());
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
    outln!("static channel-dependency-graph checks (paper §4 grounding):")?;
    for (what, torus, kind, w) in cases {
        let name = format!("{side}x{side} {what}");
        let topo = square(torus, side)?;
        let routing = kind.build(&topo, w);
        let rep = check_deadlock_freedom(&topo, routing.as_ref());
        outln!(
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
        )?;
    }
    Ok(ok)
}

fn info() -> Outcome {
    let cfg = WaveConfig::default();
    outln!("wavesim — wave switching (Duato/Lopez/Yalamanchili, IPPS'97) reproduction")?;
    outln!("default configuration:")?;
    outln!("  wave switches per router (k) : {}", cfg.k)?;
    outln!("  wave clock multiplier (alpha): {}", cfg.clock_multiplier)?;
    outln!("  channel split (sigma)        : {}", cfg.channel_split)?;
    outln!(
        "  per-circuit lane bandwidth   : {}/{} flits/cycle",
        cfg.lane_rate().0,
        cfg.lane_rate().1
    )?;
    outln!("  windowing window             : {} flits", cfg.window)?;
    outln!("  MB-m misroute budget (m)     : {}", cfg.misroutes)?;
    outln!("  circuit cache entries/node   : {}", cfg.cache_capacity)?;
    outln!("  replacement policy           : {:?}", cfg.replacement)?;
    outln!("  wormhole VCs per link (w)    : {}", cfg.wormhole.w)?;
    outln!(
        "  wormhole buffer depth        : {}",
        cfg.wormhole.buffer_depth
    )?;
    outln!()?;
    outln!("experiments: {}", experiments::all_ids().join(", "))?;
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
        Cmd::Help => out!("{}", flags::help(&args.word)).map(|()| true),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(Stop::Failed(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(Stop::Closed) => ExitCode::from(CLOSED),
    }
}
