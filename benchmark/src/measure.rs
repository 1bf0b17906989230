//! One measuring process: `wavebench --workload W --seed N --seconds S
//! --trace 0|1`.
//!
//! Untraced, it cycles through the inputs `--seed` names — set-up, timed
//! phase, checks — until the time is up, and reports for each end-to-end
//! metric the median over the repeats of one input, averaged over the
//! inputs. Traced, it runs rounds of the untraced phase, the benchmark's
//! own bare loop and the same loop with spans, one input a round, and
//! reports the per-layer numbers as medians over the rounds.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use wavesim_json::Value;

use crate::alloc::Snapshot;
use crate::metrics::{self, PER_LAYER};
use crate::report::{CheckLine, Metric, ProcessReport};
use crate::spans::{self, Off, Probe, Tracer};
use crate::stats::median;
use crate::workloads::analyze::AnalyzeTrace;
use crate::workloads::eseries::Eseries;
use crate::workloads::sim::Sim;
use crate::workloads::{fnv1a, Check, Ledger, Outcome, Workload, FNV_OFFSET};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// How long to measure; every input is measured once regardless.
    pub seconds: f64,
    pub trace: bool,
    /// The workloads at about a twentieth of their size.
    pub smoke: bool,
    /// Where capture files and span dumps go.
    pub out_dir: PathBuf,
}

/// Inputs a seeded workload's process cycles through: `--seed` names a set
/// of this many traffic seeds, not one. Which node pairs a seed makes hot
/// moves the allocation counts by 2-5% from seed to seed, and on the 16x16
/// torus `wall_s` by 12% and peak memory by 19%; the mean over eight inputs
/// cuts the spread between `--seed` values to a third of that.
const INPUTS: usize = 8;

/// Timed phases a workload that ignores the seed runs at least.
const MIN_REPEATS: usize = 3;

/// Room for the spans of the longest traced phase (probe_clrp, about
/// 15k cycles of seven calls each) with a wide margin.
const SPAN_CAPACITY: usize = 1 << 20;

/// The traffic seed of input `index` of the set `seed` names; input 0 is
/// the seed itself.
fn input_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Measures the named workload.
///
/// # Errors
/// Fails on a name that is not a workload, or an output directory that
/// cannot be created.
pub fn run(args: &Args) -> Result<ProcessReport, String> {
    if !metrics::WORKLOADS.iter().any(|w| w.name == args.workload) {
        let names: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {}; the workloads are {names:?}",
            args.workload
        ));
    }
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let smoke = args.smoke;
    let capture = args
        .out_dir
        .join(format!("capture_seed{}.wstrace", args.seed));
    Ok(match args.workload.as_str() {
        "sat_clrp" => process(&Sim::sat_clrp(smoke), args),
        "flow_wh" => process(&Sim::flow_wh(smoke), args),
        "probe_clrp" => process(&Sim::probe_clrp(smoke), args),
        "capture_clrp" => {
            let report = process(&Sim::capture_clrp(smoke, Some(capture.clone())), args);
            // Best effort: the capture is scratch, and big.
            let _ = std::fs::remove_file(&capture);
            report
        }
        "analyze_trace" => process(&AnalyzeTrace::new(smoke), args),
        "eseries" => process(&Eseries::new(smoke), args),
        other => unreachable!("{other} is listed in WORKLOADS"),
    })
}

fn process<W: Workload>(w: &W, args: &Args) -> ProcessReport {
    let stamp = crate::stamp::machine();
    let mut checks = Checks::default();
    let (repeats, outcome, metrics) = if args.trace {
        traced(w, args, &stamp, &mut checks)
    } else {
        untraced(w, args, &mut checks)
    };
    checks.extend(w.final_checks(args.seed));
    ProcessReport {
        stamp,
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        repeats,
        attempted: outcome.attempted + checks.ran(),
        failed: outcome.failed + checks.failed(),
        fingerprint: outcome.fingerprint,
        checks: checks.0,
        metrics,
    }
}

/// Checks folded by name over the phases they ran in.
#[derive(Default)]
struct Checks(Vec<CheckLine>);

impl Checks {
    fn extend(&mut self, checks: impl IntoIterator<Item = Check>) {
        for c in checks {
            let line = match self.0.iter_mut().find(|l| l.name == c.name) {
                Some(line) => line,
                None => {
                    self.0.push(CheckLine {
                        name: c.name.to_string(),
                        ran: 0,
                        failed: 0,
                        detail: String::new(),
                    });
                    self.0.last_mut().expect("just pushed")
                }
            };
            line.ran += 1;
            if !c.ok {
                line.failed += 1;
                if line.detail.is_empty() {
                    line.detail = c.detail;
                }
            }
        }
    }

    fn ran(&self) -> u64 {
        self.0.iter().map(|c| c.ran).sum()
    }

    fn failed(&self) -> u64 {
        self.0.iter().map(|c| c.failed).sum()
    }

    /// Folds in a phase's own checks, and that its fingerprint is that of
    /// `reference`, an earlier phase over the same input.
    fn same_as(&mut self, name: &'static str, reference: &Outcome, phase: Outcome) {
        let same = phase.fingerprint == reference.fingerprint;
        self.extend(phase.checks);
        self.extend([Check::new(name, same, || {
            format!(
                "{:#018x} against the first phase's {:#018x}",
                phase.fingerprint, reference.fingerprint
            )
        })]);
    }
}

/// The outcomes of a process's distinct inputs as one: operations and
/// simulated cycles add up, simulated statistics average, and the
/// fingerprint is FNV-1a over the inputs' fingerprints in order.
fn combine(outcomes: &[&Outcome]) -> Outcome {
    let n = outcomes.len() as f64;
    let sum = |f: fn(&Outcome) -> Option<u64>| outcomes.iter().map(|o| f(o)).sum::<Option<u64>>();
    let mean = |f: fn(&Outcome) -> Option<f64>| {
        outcomes
            .iter()
            .map(|o| f(o))
            .sum::<Option<f64>>()
            .map(|total| total / n)
    };
    Outcome {
        fingerprint: outcomes.iter().fold(FNV_OFFSET, |acc, o| {
            fnv1a(acc, &o.fingerprint.to_le_bytes())
        }),
        attempted: outcomes.iter().map(|o| o.attempted).sum(),
        failed: outcomes.iter().map(|o| o.failed).sum(),
        checks: Vec::new(),
        sim_cycles: sum(|o| o.sim_cycles),
        records: sum(|o| o.records),
        sim_latency_cycles: mean(|o| o.sim_latency_cycles),
        sim_accepted_load: mean(|o| o.sim_accepted_load),
    }
}

/// What the timed phases over one input measured.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    alloc_calls: Vec<f64>,
    alloc_bytes: Vec<f64>,
    /// The first phase's outcome: what every later phase must reproduce.
    reference: Option<Outcome>,
}

fn untraced<W: Workload>(w: &W, args: &Args, checks: &mut Checks) -> (u64, Outcome, Vec<Metric>) {
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let (inputs, min_phases) = if W::SEEDED {
        (INPUTS, INPUTS)
    } else {
        (1, MIN_REPEATS)
    };
    let mut per_input: Vec<Samples> = (0..inputs).map(|_| Samples::default()).collect();

    // One unmeasured phase first: it alone pays for the process's lazy
    // initialisation, in time and in allocations.
    let mut first = w.check(w.run(w.setup(args.seed, &mut Off)));
    checks.extend(std::mem::take(&mut first.checks));
    per_input[0].reference = Some(first);

    let mut phases = 0;
    while phases < min_phases || start.elapsed() < budget {
        let input = phases % inputs;
        let seed = input_seed(args.seed, input);
        let samples = &mut per_input[input];
        phases += 1;

        let t = Instant::now();
        let built = w.setup(seed, &mut Off);
        samples.setup_s.push(t.elapsed().as_secs_f64());

        let before = Snapshot::now();
        let t = Instant::now();
        let done = w.run(built);
        samples.wall_s.push(t.elapsed().as_secs_f64());
        let asked = Snapshot::now().since(before);
        samples.alloc_calls.push(asked.calls as f64);
        samples.alloc_bytes.push(asked.bytes as f64);

        let mut phase = w.check(done);
        match &samples.reference {
            Some(r) => checks.same_as("every repeat of an input gives one fingerprint", r, phase),
            None => {
                checks.extend(std::mem::take(&mut phase.checks));
                samples.reference = Some(phase);
            }
        }
    }
    // Read before the final checks, which may materialise what the timed
    // phases only stream.
    let peak_rss_mb = vm_hwm_kb() as f64 / 1024.0;

    // Median over the repeats of one input, mean over the inputs.
    let mean = |f: fn(&Samples) -> &Vec<f64>| {
        per_input.iter().map(|s| median(f(s))).sum::<f64>() / inputs as f64
    };
    let outcomes: Vec<&Outcome> = per_input
        .iter()
        .map(|s| s.reference.as_ref().expect("every input ran"))
        .collect();
    let outcome = combine(&outcomes);
    let wall = mean(|s| &s.wall_s);
    let per_s = |count: Option<u64>| count.map(|c| c as f64 / (wall * inputs as f64));
    let values = [
        ("setup_s", Some(mean(|s| &s.setup_s))),
        ("wall_s", Some(wall)),
        ("peak_rss_mb", Some(peak_rss_mb)),
        ("alloc_count", Some(mean(|s| &s.alloc_calls))),
        (
            "alloc_mb",
            Some(mean(|s| &s.alloc_bytes) / (1024.0 * 1024.0)),
        ),
        ("sim_cycles_per_s", per_s(outcome.sim_cycles)),
        ("records_per_s", per_s(outcome.records)),
        ("sim_latency_cycles", outcome.sim_latency_cycles),
        ("sim_accepted_load", outcome.sim_accepted_load),
    ];
    let metrics = values
        .into_iter()
        .filter_map(|(name, value)| {
            let m = metrics::end_to_end(name).expect("listed in END_TO_END");
            Some(Metric {
                name: name.to_string(),
                value: value?,
                unit: m.unit.to_string(),
            })
        })
        .collect();
    (phases as u64, outcome, metrics)
}

fn traced<W: Workload>(
    w: &W,
    args: &Args,
    stamp: &Value,
    checks: &mut Checks,
) -> (u64, Outcome, Vec<Metric>) {
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let inputs = if W::SEEDED { INPUTS } else { 1 };
    let mut ledger = Ledger::default();
    let (mut untraced_s, mut bare_s, mut traced_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut references: Vec<Outcome> = Vec::new();
    let mut last_tracer = None;
    while references.is_empty() || start.elapsed() < budget {
        // Each round takes the next input; its three loops share it.
        let seed = input_seed(args.seed, references.len() % inputs);

        // The phase as the end-to-end runs time it.
        let built = w.setup(seed, &mut Off);
        let t = Instant::now();
        let done = w.run(built);
        let this_untraced_s = t.elapsed().as_secs_f64();
        untraced_s.push(this_untraced_s);
        let mut reference = w.check(done);
        checks.extend(std::mem::take(&mut reference.checks));

        // The benchmark's own loop without spans: what the simulator's
        // driver costs on top of the calls it makes.
        if W::OWN_DRIVER {
            let built = w.setup(seed, &mut Off);
            let t = Instant::now();
            let done = w.run_probed(built, &mut Off);
            bare_s.push(t.elapsed().as_secs_f64());
            let name = "bare loop gives the untraced fingerprint";
            checks.same_as(name, &reference, w.check(done));
        }

        // The same loop, one span per call.
        let mut tracer = Tracer::with_capacity(SPAN_CAPACITY);
        let built = tracer.span("harness.setup", |t| w.setup(seed, t));
        let done = tracer.span("harness.run", |t| w.run_probed(built, t));
        traced_s.push(tracer.total_s("harness.run"));
        ledger.push_spans(&tracer);
        w.layers(&done, &tracer, &mut ledger);
        ledger.push(
            "harness.span_coverage_ratio",
            spans::coverage(tracer.spans(), "harness.run"),
        );
        let name = "traced loop gives the untraced fingerprint";
        checks.same_as(name, &reference, w.check(done));
        last_tracer = Some(tracer);

        checks.extend(w.round_extras(seed, this_untraced_s, &reference, &mut ledger));
        references.push(reference);
    }
    let untraced = median(&untraced_s);
    ledger.push_ratio(
        "harness.tracing_overhead_ratio",
        median(&traced_s) - untraced,
        untraced,
    );
    if W::OWN_DRIVER {
        let bare = median(&bare_s);
        ledger.push_ratio("bench.drive_overhead_ratio", untraced - bare, bare);
    }
    checks.extend(w.standalone(args.seed, &mut ledger));
    if let Some(tracer) = &last_tracer {
        write_spans(tracer.spans(), args, stamp);
    }

    let metrics = PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name.to_string(),
            value: ledger.value(m.name),
            unit: m.unit.to_string(),
        })
        .collect();
    let outcome = combine(&references.iter().collect::<Vec<_>>());
    (references.len() as u64, outcome, metrics)
}

/// Writes the last round's spans to `<out>/spans_<workload>.json`.
fn write_spans(spans: &[spans::Span], args: &Args, stamp: &Value) {
    let run_id = format!("{}-seed{}", args.workload, args.seed);
    let mut doc = spans::dump(spans, &run_id);
    if let Value::Obj(pairs) = &mut doc {
        pairs.insert(0, ("stamp".to_string(), stamp.clone()));
    }
    let path = args.out_dir.join(format!("spans_{}.json", args.workload));
    if let Err(e) = std::fs::write(&path, doc.pretty()) {
        eprintln!("wavebench: cannot write {}: {e}", path.display());
    }
}

/// The process's peak resident set, `VmHWM` of `/proc/self/status`, in kB
/// (0 where there is no procfs).
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Prints the report for people, then the report for `wavebench run`, then
/// the contract's line.
pub fn print(report: &ProcessReport) {
    println!(
        "wavebench {}  {}  seed {}  {} {} {}",
        metrics::VERSION,
        report.workload,
        report.seed,
        report.repeats,
        if report.trace {
            "traced rounds"
        } else {
            "timed phases"
        },
        if report.smoke { "(smoke size)" } else { "" },
    );
    println!("  sim_fingerprint {:#018x}", report.fingerprint);
    for m in &report.metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let ratio = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "  {:<34} {:>16.6} ratio ({} of {} operations and checks)",
        "failed_ratio", ratio, report.failed, report.attempted
    );
    for c in &report.checks {
        let verdict = if c.failed == 0 { "ok  " } else { "FAIL" };
        println!("  check {verdict} {} (x{}) {}", c.name, c.ran, c.detail);
    }
    println!("wavebench-report {}", report.to_json().compact());
    println!("{}", report.contract_line());
}

/// Default directory for capture files and span dumps: `out/` beside the
/// benchmark's manifest when run through cargo, else `benchmark/out`.
pub fn default_out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| Path::new("benchmark").to_path_buf(), PathBuf::from)
        .join("out")
}
