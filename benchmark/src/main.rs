//! `wavebench`: the repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! wavebench --workload W --seed N --seconds S --trace 0|1   one measuring process
//! wavebench run [--seed 131] [--repeats 5] [--seconds 4] [--smoke]
//! wavebench compare A.json B.json
//! wavebench manifest                                        prints BENCHMARK.json
//! ```

mod alloc;
mod compare;
mod measure;
mod metrics;
mod orchestrate;
mod report;
mod spans;
mod stamp;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  wavebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
  wavebench run [--seed 131] [--repeats 5] [--seconds 4] [--smoke] [--out <dir>]
  wavebench compare <A.json> <B.json>
  wavebench manifest";

/// `--flag value` pairs and bare `--smoke`, in any order.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    repeats: u64,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: 131,
        seconds: None,
        repeats: 5,
        trace: false,
        smoke: false,
        out_dir: measure::default_out_dir(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            f.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => f.workload = Some(value.clone()),
            "--seed" => f.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--repeats" => {
                f.repeats = value.parse().map_err(|_| bad("a whole number"))?;
                if f.repeats == 0 {
                    return Err(bad("at least one repeat"));
                }
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s.is_finite() && (0.0..=3600.0).contains(&s)) {
                    return Err(bad("between 0 and 3600 seconds"));
                }
                f.seconds = Some(s);
            }
            "--trace" => {
                f.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => f.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(f)
}

fn run(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") => {
            let f = parse_flags(&args[1..])?;
            orchestrate::run(&orchestrate::Args {
                seed: f.seed,
                repeats: if f.smoke { 1 } else { f.repeats },
                seconds: f.seconds.unwrap_or(if f.smoke { 0.0 } else { 4.0 }),
                smoke: f.smoke,
                out_dir: f.out_dir,
            })
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a, b),
            _ => Err(USAGE.into()),
        },
        Some("manifest") => {
            println!("{}", metrics::manifest().pretty());
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => {
            let f = parse_flags(args)?;
            let workload = f.workload.ok_or(USAGE)?;
            let report = measure::run(&measure::Args {
                workload,
                seed: f.seed,
                seconds: f.seconds.unwrap_or(metrics::RUN_SECONDS as f64),
                trace: f.trace,
                smoke: f.smoke,
                out_dir: f.out_dir,
            })?;
            measure::print(&report);
            Ok(report.correct())
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("wavebench: {e}");
            ExitCode::from(2)
        }
    }
}
