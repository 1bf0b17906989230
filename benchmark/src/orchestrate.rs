//! `wavebench run`: the six workloads round-robin for a number of repeats,
//! each repeat a fresh child process of this binary, one child at a time;
//! then one traced child per workload for the per-layer numbers. Prints
//! every metric by name with its unit and writes `<out>/result.json`.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use wavesim_json::Value;

use crate::metrics::{self, WORKLOADS};
use crate::report::{ProcessReport, RunFile, Series, WorkloadResult};

pub struct Args {
    pub seed: u64,
    pub repeats: u64,
    /// Seconds each child measures.
    pub seconds: f64,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

/// Runs one measuring child and parses its report.
fn child(args: &Args, workload: &str, trace: bool) -> Result<ProcessReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    // The per-layer ratios compare whole phases of about a second, so a
    // traced child gets three times the time: more rounds, steadier ratios.
    let seconds = if trace {
        args.seconds * 3.0
    } else {
        args.seconds
    };
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report = stdout
        .lines()
        .find_map(|l| l.strip_prefix("wavebench-report "))
        .ok_or_else(|| format!("{workload}: child printed no report ({})", out.status))?;
    let report = Value::parse(report)
        .and_then(|v| ProcessReport::from_json(&v))
        .map_err(|e| format!("{workload}: {e}"))?;
    for c in report.checks.iter().filter(|c| c.failed > 0) {
        println!("  check FAIL {} (x{}): {}", c.name, c.failed, c.detail);
    }
    Ok(report)
}

/// Runs everything; `Ok(true)` when every check of every child passed.
pub fn run(args: &Args) -> Result<bool, String> {
    let stamp = crate::stamp::machine();
    println!(
        "wavebench {}  seed {}  {} repeats of {} s{}",
        metrics::VERSION,
        args.seed,
        args.repeats,
        args.seconds,
        if args.smoke { "  (smoke size)" } else { "" }
    );
    println!("machine: {}", stamp.compact());

    let mut results: Vec<WorkloadResult> = WORKLOADS
        .iter()
        .map(|w| WorkloadResult {
            name: w.name.to_string(),
            fingerprint: 0,
            attempted: 0,
            failed: 0,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        })
        .collect();
    let mut all_correct = true;
    let mut fingerprints: Vec<Vec<u64>> = vec![Vec::new(); WORKLOADS.len()];

    let children = (args.repeats + 1) * WORKLOADS.len() as u64;
    let mut started = 0;
    for repeat in 0..=args.repeats {
        // The last round is the traced one.
        let trace = repeat == args.repeats;
        for (i, w) in WORKLOADS.iter().enumerate() {
            started += 1;
            let report = child(args, w.name, trace)?;
            let headline = if trace {
                "harness.span_coverage_ratio"
            } else {
                "wall_s"
            };
            println!(
                "[{started:>2}/{children}] {:<14} {:<8} {headline} {:.4}  {}",
                w.name,
                if trace {
                    "traced".to_string()
                } else {
                    format!("repeat {}", repeat + 1)
                },
                report.metric(headline).unwrap_or(0.0),
                if report.correct() { "ok" } else { "FAILED" }
            );
            all_correct &= report.correct();
            let r = &mut results[i];
            r.attempted += report.attempted;
            r.failed += report.failed;
            if trace {
                // A traced process covers fewer inputs, so its fingerprint
                // is another; it checks itself against its untraced rounds.
                r.per_layer = report.metrics;
                continue;
            }
            fingerprints[i].push(report.fingerprint);
            r.fingerprint = report.fingerprint;
            for m in report.metrics {
                match r.end_to_end.iter_mut().find(|s| s.name == m.name) {
                    Some(s) => s.values.push(m.value),
                    None => r.end_to_end.push(Series {
                        name: m.name,
                        unit: m.unit,
                        values: vec![m.value],
                    }),
                }
            }
        }
    }

    for (r, fps) in results.iter_mut().zip(&fingerprints) {
        let one = fps.iter().all(|&f| f == fps[0]);
        if !one {
            println!(
                "  check FAIL {}: repeats disagree on sim_fingerprint: {fps:x?}",
                r.name
            );
            r.failed += 1;
            all_correct = false;
        }
        r.attempted += 1;
        r.end_to_end.push(Series {
            name: "failed_ratio".into(),
            unit: "ratio".into(),
            values: vec![r.failed as f64 / r.attempted.max(1) as f64],
        });
    }

    let file = RunFile {
        stamp,
        seed: args.seed,
        repeats: args.repeats,
        seconds: args.seconds,
        smoke: args.smoke,
        workloads: results,
    };
    print_run(&file);
    let path = args.out_dir.join("result.json");
    std::fs::write(&path, file.to_json().pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "\nwrote {} and {}/spans_<workload>.json",
        path.display(),
        args.out_dir.display()
    );
    println!(
        "{}",
        if all_correct {
            "all output checks passed"
        } else {
            "OUTPUT CHECKS FAILED"
        }
    );
    Ok(all_correct)
}

/// Every metric by name, with its unit.
fn print_run(file: &RunFile) {
    for (w, info) in file.workloads.iter().zip(&WORKLOADS) {
        println!("\n== {} — {}", w.name, info.why);
        println!("   sim_fingerprint {:#018x}", w.fingerprint);
        println!(
            "   {:<20} {:>14} {:<14} {:>2} {:>12} {:>12} {:>12} {:>12} {:>7} {:>6}",
            "end to end", "median", "unit", "n", "min", "q1", "q3", "max", "spread", "bound"
        );
        for s in &w.end_to_end {
            let (Some(sum), Some(m)) = (s.summary(), metrics::end_to_end(&s.name)) else {
                continue;
            };
            println!(
                "   {:<20} {:>14.6} {:<14} {:>2} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>6.2}% {:>5.1}%",
                s.name,
                sum.median,
                s.unit,
                sum.n,
                sum.min,
                sum.q1,
                sum.q3,
                sum.max,
                sum.spread() * 100.0,
                m.bound * 100.0
            );
        }
        println!("   {:<34} {:>16} unit", "per layer (traced run)", "value");
        for m in &w.per_layer {
            println!("   {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
}
