//! Cycle-kernel throughput benchmark: simulated cycles per wall-clock
//! second at three load points (low / mid / saturation) on 8×8 and 16×16
//! tori plus one 64×64 saturation point, CLRP protocol — the tracked perf
//! baseline for the simulator's inner loop.
//!
//! Plain `harness = false` timing main (the offline build has no bench
//! framework). Writes `BENCH_cycle_kernel.json` (override with
//! `BENCH_OUT`), stamped with the machine it ran on (`cpus`, `rustc`,
//! `profile` — wall times mean nothing without them), and prints a table.
//! Each point runs [`MEASURE`] measurement cycles, best of [`ITERS`], on
//! the tori of [`SIDES`].
//!
//! The metric divides the *simulated* end cycle of the run (warmup +
//! measurement + drain) by the wall time of the whole run, so a kernel
//! that fast-forwards idle cycles gets credit for them — exactly the
//! effect the active-set kernel targets at low load.
//!
//! The 64×64 point always runs, at [`LARGE_MEASURE`] measurement cycles
//! and a single iteration (it is ~20 s of wall on its own).
//!
//! Regression gate: `BENCH_ENFORCE=1` compares this run against the
//! committed `BENCH_cycle_kernel.json` baseline (override with
//! `BENCH_BASELINE`) and fails when any point's *kernel work intensity*
//! — deterministic work counters per simulated cycle — grew more than
//! [`TOLERANCE_PCT`]. Work counters are scheduling- and
//! machine-independent, so this gate is meaningful on shared CI runners
//! where wall clock is not; `BENCH_ENFORCE_WALL=1` additionally gates
//! wall-clock cycles/sec for same-machine comparisons. A baseline that is
//! missing, or that records another `measure_cycles`, fails the gate.

use std::time::Instant;

use wavesim_bench::{run_open_loop, RunSpec};
use wavesim_core::{ProtocolKind, WaveConfig, WaveNetwork};
use wavesim_json::Value;
use wavesim_topology::Topology;
use wavesim_workloads::{LengthDist, TrafficConfig, TrafficPattern, TrafficSource};

const LOADS: [(&str, f64); 3] = [("low", 0.05), ("mid", 0.30), ("sat", 0.80)];

/// Measurement cycles of every point but the large one.
const MEASURE: u64 = 3_000;
/// Repeats per point; the fastest is kept.
const ITERS: u64 = 3;
/// Torus sides of the three load points.
const SIDES: [u16; 2] = [8, 16];
/// Growth in work per cycle, or in wall time, that fails the gate.
const TOLERANCE_PCT: f64 = 15.0;

/// Side and measurement cycles of the large saturation point.
const LARGE_SIDE: u16 = 64;
const LARGE_MEASURE: u64 = 500;

struct PointResult {
    side: u16,
    label: &'static str,
    load: f64,
    sim_cycles: u64,
    wall_s: f64,
    cycles_per_sec: f64,
    delivered: u64,
    scan_wall_ns: u64,
    kernel: Value,
}

fn run_point(side: u16, label: &'static str, load: f64, measure: u64, iters: u64) -> PointResult {
    let mut best: Option<PointResult> = None;
    for _ in 0..iters {
        let topo = Topology::torus(&[side, side]);
        let mut net = WaveNetwork::new(
            topo.clone(),
            WaveConfig {
                protocol: ProtocolKind::Clrp,
                ..WaveConfig::default()
            },
        );
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
        let t0 = Instant::now();
        let r = run_open_loop(&mut net, &mut src, RunSpec::standard(measure / 8, measure));
        let wall_s = t0.elapsed().as_secs_f64();
        assert!(!r.stalled, "{side}x{side} @ {load} stalled");
        let point = PointResult {
            side,
            label,
            load,
            sim_cycles: r.end,
            wall_s,
            cycles_per_sec: r.end as f64 / wall_s,
            delivered: r.delivered,
            scan_wall_ns: net.fabric().shard_wall_ns()[0],
            kernel: kernel_json(&net),
        };
        if best
            .as_ref()
            .is_none_or(|b| point.cycles_per_sec > b.cycles_per_sec)
        {
            best = Some(point);
        }
    }
    best.expect("iters >= 1")
}

/// `rustc --version` of the toolchain on the path (the one cargo built
/// this bench with, short of a `RUSTC` override, which is honoured).
fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string())
}

/// Cycle-kernel counters, when the build exposes them (post-seed kernels).
fn kernel_json(net: &WaveNetwork) -> Value {
    let k = net.kernel_stats();
    Value::obj(vec![
        ("ticks", Value::from(k.ticks)),
        ("routers_scanned", Value::from(k.routers_scanned)),
        ("vcs_touched", Value::from(k.vcs_touched)),
        ("events_routed", Value::from(k.events_routed)),
    ])
}

/// Deterministic kernel work per simulated cycle for one result entry.
fn intensity(entry: &Value) -> Option<f64> {
    let sim = entry.get("sim_cycles")?.as_u64()?;
    let k = entry.get("kernel")?;
    let work = k.get("routers_scanned")?.as_u64()?
        + k.get("vcs_touched")?.as_u64()?
        + k.get("events_routed")?.as_u64()?;
    (sim > 0).then(|| work as f64 / sim as f64)
}

/// Compares `current` against the committed baseline (read into `text`
/// before the current results were written, since the default output path
/// IS the baseline file); returns the gate violations.
fn enforce_baseline(current: &Value, text: &str, gate_wall: bool) -> Vec<String> {
    let baseline = Value::parse(text).expect("baseline json parses");
    let measure = baseline.get("measure_cycles").and_then(Value::as_u64);
    if measure != Some(MEASURE) {
        let measure = measure.map_or_else(|| "no".into(), |m| m.to_string());
        return vec![format!(
            "the baseline measured {measure} cycles a point, this run {MEASURE}"
        )];
    }
    let key = |e: &Value| {
        (
            e.get("topology").and_then(Value::as_str).map(String::from),
            e.get("point").and_then(Value::as_str).map(String::from),
        )
    };
    let empty = Vec::new();
    let cur_results = current
        .get("results")
        .and_then(Value::as_array)
        .unwrap_or(&empty);
    let mut violations = Vec::new();
    for base in baseline
        .get("results")
        .and_then(Value::as_array)
        .unwrap_or(&empty)
    {
        let Some(cur) = cur_results.iter().find(|c| key(c) == key(base)) else {
            continue;
        };
        let (topo, point) = key(base);
        let name = format!("{}/{}", topo.unwrap_or_default(), point.unwrap_or_default());
        if let (Some(b), Some(c)) = (intensity(base), intensity(cur)) {
            let growth_pct = (c / b - 1.0) * 100.0;
            println!("gate {name}: work/cycle {b:.1} -> {c:.1} ({growth_pct:+.1}%)");
            if growth_pct > TOLERANCE_PCT {
                violations.push(format!(
                    "{name}: kernel work intensity grew {growth_pct:.1}% (> {TOLERANCE_PCT}%)"
                ));
            }
        }
        if gate_wall {
            let b = base.get("cycles_per_sec").and_then(Value::as_f64);
            let c = cur.get("cycles_per_sec").and_then(Value::as_f64);
            if let (Some(b), Some(c)) = (b, c) {
                let slowdown_pct = (b / c - 1.0) * 100.0;
                if slowdown_pct > TOLERANCE_PCT {
                    violations.push(format!(
                        "{name}: cycles/sec fell {slowdown_pct:.1}% \
                         ({b:.0} -> {c:.0}, > {TOLERANCE_PCT}%)"
                    ));
                }
            }
        }
    }
    violations
}

fn main() {
    // Snapshot the baseline up front: the default BENCH_OUT below is the
    // baseline file itself, and the gate must not compare a run with its
    // own freshly written results.
    let enforcing = std::env::var("BENCH_ENFORCE").as_deref() == Ok("1");
    let baseline_path = std::env::var("BENCH_BASELINE").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cycle_kernel.json").into()
    });
    let baseline_text = enforcing.then(|| std::fs::read_to_string(&baseline_path));

    let mut results = Vec::new();
    println!(
        "{:<8} {:<5} {:>6} {:>12} {:>10} {:>14} {:>10}",
        "topo", "point", "load", "sim cycles", "wall ms", "cycles/sec", "delivered"
    );
    let points = (SIDES.iter())
        .flat_map(|&side| LOADS.map(|(label, load)| (side, label, load, MEASURE, ITERS)))
        .chain([(LARGE_SIDE, "sat", 0.80, LARGE_MEASURE, 1)]);
    for (side, label, load, measure, iters) in points {
        let p = run_point(side, label, load, measure, iters);
        println!(
            "{:<8} {:<5} {:>6.2} {:>12} {:>10.2} {:>14.0} {:>10}",
            format!("{side}x{side} torus"),
            p.label,
            p.load,
            p.sim_cycles,
            p.wall_s * 1e3,
            p.cycles_per_sec,
            p.delivered,
        );
        results.push(p);
    }

    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let profile = if cfg!(debug_assertions) {
        "dev"
    } else {
        "bench"
    };
    let json = Value::obj(vec![
        ("bench", Value::from("cycle_kernel")),
        ("cpus", Value::from(cpus as u64)),
        ("rustc", Value::from(rustc_version())),
        ("profile", Value::from(profile)),
        ("protocol", Value::from("clrp")),
        ("measure_cycles", Value::from(MEASURE)),
        ("iters", Value::from(ITERS)),
        ("large_measure_cycles", Value::from(LARGE_MEASURE)),
        (
            "results",
            Value::Arr(
                results
                    .into_iter()
                    .map(|p| {
                        Value::obj(vec![
                            ("topology", Value::from(format!("{0}x{0}-torus", p.side))),
                            ("point", Value::from(p.label)),
                            ("load", Value::from(p.load)),
                            ("sim_cycles", Value::from(p.sim_cycles)),
                            ("wall_s", Value::from(p.wall_s)),
                            ("cycles_per_sec", Value::from(p.cycles_per_sec)),
                            ("delivered", Value::from(p.delivered)),
                            ("scan_wall_ns", Value::from(p.scan_wall_ns)),
                            ("kernel", p.kernel),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    // Default to the workspace root (cargo runs benches from the package
    // dir) so the tracked baseline sits beside ROADMAP.md.
    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cycle_kernel.json").into()
    });
    std::fs::write(&out, json.pretty()).expect("write bench json");
    println!("wrote {out}");

    if let Some(text) = baseline_text {
        let gate_wall = std::env::var("BENCH_ENFORCE_WALL").as_deref() == Ok("1");
        let violations = match text {
            Ok(text) => enforce_baseline(&json, &text, gate_wall),
            Err(e) => vec![format!("no baseline at {baseline_path}: {e}")],
        };
        if !violations.is_empty() {
            eprintln!("cycle_kernel regression gate FAILED:");
            for v in &violations {
                eprintln!("  {v}");
            }
            std::process::exit(1);
        }
        println!("cycle_kernel regression gate passed (tolerance {TOLERANCE_PCT}%)");
    }
}
