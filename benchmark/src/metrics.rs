//! The names every performance or simplicity claim in this repository is
//! stated in: the six workloads, the end-to-end metrics with their bounds,
//! and the per-layer metrics. `BENCHMARK.json` at the repository root is
//! [`manifest`] written out; a unit test keeps the two equal.

use wavesim_json::Value;

/// Version of the benchmark's definitions (workload sizes, metric
/// meanings). Results of different versions do not compare.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Seconds one driver run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A workload's name and the reason it is in the set.
pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 6] = [
    WorkloadInfo {
        name: "sat_clrp",
        why: "32x32 torus, CLRP at load 0.8: blocked head flits are re-polled every cycle, so the fabric scan dominates; an event-driven VC wake-up must show here",
    },
    WorkloadInfo {
        name: "flow_wh",
        why: "32x32 torus, wormhole only, load 0.04 below the knee: the same fabric with flits moving every cycle; bookkeeping added per moving flit loses here",
    },
    WorkloadInfo {
        name: "probe_clrp",
        why: "32x32 torus, CLRP at load 0.05: probe backtracking, circuit plane and event bus dominate and the fabric is a few percent; fabric work must not move it",
    },
    WorkloadInfo {
        name: "capture_clrp",
        why: "16x16 torus, CLRP at load 0.3 with an unsampled WSTRACE1 sink streaming to a file: emission, hand-off and encode cost at the balanced fabric/planes point",
    },
    WorkloadInfo {
        name: "analyze_trace",
        why: "streams a captured WSTRACE1 buffer through decode, LiveAnalytics, report rendering and JSONL re-encode: only trace, analyze and json run; the simulation is its set-up",
    },
    WorkloadInfo {
        name: "eseries",
        why: "all 15 experiments on 8x8 networks at jobs 2: hundreds of small networks built and drained, so construction, harness and ParallelSweep matter and the kernel does not",
    },
];

/// An end-to-end metric: what a user of the simulator sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may get worse
    /// before `compare` (and the driver) call it a regression.
    pub bound: f64,
    /// Absolute difference below which a change is never a regression.
    pub floor: f64,
    /// Defined and non-zero on every workload, hence listed in
    /// `BENCHMARK.json` and gated by the driver. The others exist on some
    /// workloads only; `wavebench run` reports and `compare` judges them.
    pub everywhere: bool,
}

pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.005,
        everywhere: true,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
        everywhere: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        floor: 1.0,
        everywhere: true,
    },
    EndToEnd {
        name: "alloc_count",
        unit: "count",
        better: Better::Lower,
        bound: 0.10,
        floor: 0.0,
        everywhere: true,
    },
    EndToEnd {
        name: "alloc_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        floor: 0.0,
        everywhere: true,
    },
    EndToEnd {
        name: "sim_cycles_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
        everywhere: false,
    },
    EndToEnd {
        name: "records_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
        everywhere: false,
    },
    EndToEnd {
        name: "sim_latency_cycles",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.01,
        floor: 0.0,
        everywhere: false,
    },
    EndToEnd {
        name: "sim_accepted_load",
        unit: "flits/node/cyc",
        better: Better::Higher,
        bound: 0.01,
        floor: 0.0,
        everywhere: false,
    },
    EndToEnd {
        name: "failed_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        floor: 0.0,
        everywhere: false,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A per-layer metric of the traced run. Layers are the crate names.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// `(id, span name, metric name)` of each experiment id given.
macro_rules! experiment_spans {
    ($($id:literal),*) => {
        [$(($id, concat!("bench.", $id), concat!("bench.", $id, "_s"))),*]
    };
}

/// Experiments of the E-series, in `experiments::all_ids()` order, with
/// the span and the metric of each.
pub const EXPERIMENT_SPANS: [(&str, &str, &str); 15] = experiment_spans!(
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15"
);

/// A count of simulated work is "better lower": the same simulated result
/// from fewer visits, hops or probes is the improvement a kernel change
/// claims. A metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: [PerLayer; 72] = [
    lower("workloads.new_s", "s"),
    lower("workloads.poll_s", "s"),
    lower("workloads.msgs_generated", "count"),
    lower("topology.new_s", "s"),
    lower("topology.route_ns_per_call", "ns"),
    lower("network.scan_s", "s"),
    lower("network.ticks", "count"),
    lower("network.routers_scanned", "count"),
    lower("network.vcs_touched", "count"),
    lower("network.flit_hops", "count"),
    lower("network.va_allocs", "count"),
    lower("network.routers_per_tick", "count"),
    lower("network.vc_visits_per_flit_hop", "ratio"),
    lower("network.ns_per_vc_visit", "ns"),
    lower("network.bare_tick_s", "s"),
    lower("network.bare_ns_per_flit_hop", "ns"),
    lower("core.new_s", "s"),
    lower("core.send_s", "s"),
    lower("core.tick_s", "s"),
    lower("core.tick_rest_s", "s"),
    lower("core.drain_s", "s"),
    lower("core.next_activity_s", "s"),
    lower("core.events_routed", "count"),
    lower("core.probes_sent", "count"),
    lower("core.probe_steps", "count"),
    lower("core.ns_per_probe_step", "ns"),
    higher("core.probe_reach_ratio", "ratio"),
    higher("core.setup_success_ratio", "ratio"),
    higher("core.cache_hit_ratio", "ratio"),
    higher("core.circuit_msg_ratio", "ratio"),
    lower("core.forced_releases", "count"),
    lower("core.wormhole_fallbacks", "count"),
    higher("core.cycles_skipped_ratio", "ratio"),
    lower("sim.tally_s", "s"),
    lower("sim.evq_ns_per_op", "ns"),
    lower("verify.monitor_s", "s"),
    lower("verify.livelock_check_s", "s"),
    lower("verify.audit_s", "s"),
    lower("trace.records", "count"),
    lower("trace.bytes_per_record", "B"),
    lower("trace.capture_overhead_ratio", "ratio"),
    lower("trace.finish_s", "s"),
    lower("trace.decode_s", "s"),
    lower("trace.decode_ns_per_record", "ns"),
    lower("trace.reencode_bin_s", "s"),
    lower("trace.encode_jsonl_s", "s"),
    lower("trace.encode_jsonl_ns_per_record", "ns"),
    lower("analyze.fold_s", "s"),
    lower("analyze.fold_ns_per_record", "ns"),
    lower("analyze.finish_s", "s"),
    lower("analyze.render_s", "s"),
    lower("json.pretty_s", "s"),
    lower("json.parse_s", "s"),
    lower("bench.e1_s", "s"),
    lower("bench.e2_s", "s"),
    lower("bench.e3_s", "s"),
    lower("bench.e4_s", "s"),
    lower("bench.e5_s", "s"),
    lower("bench.e6_s", "s"),
    lower("bench.e7_s", "s"),
    lower("bench.e8_s", "s"),
    lower("bench.e9_s", "s"),
    lower("bench.e10_s", "s"),
    lower("bench.e11_s", "s"),
    lower("bench.e12_s", "s"),
    lower("bench.e13_s", "s"),
    lower("bench.e14_s", "s"),
    lower("bench.e15_s", "s"),
    higher("bench.jobs_speedup", "ratio"),
    lower("bench.drive_overhead_ratio", "ratio"),
    higher("harness.span_coverage_ratio", "ratio"),
    lower("harness.tracing_overhead_ratio", "ratio"),
];

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let workloads = WORKLOADS
        .iter()
        .map(|w| Value::obj(vec![("name", w.name.into()), ("why", w.why.into())]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .filter(|m| m.everywhere)
        .map(|m| {
            Value::obj(vec![
                ("name", m.name.into()),
                ("unit", m.unit.into()),
                ("better", m.better.as_str().into()),
                ("bound", m.bound.into()),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Value::obj(vec![
                ("name", m.name.into()),
                ("unit", m.unit.into()),
                ("better", m.better.as_str().into()),
            ])
        })
        .collect();
    Value::obj(vec![
        (
            "command",
            vec![
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]
            .into(),
        ),
        ("paths", vec!["benchmark"].into()),
        ("run_seconds", RUN_SECONDS.into()),
        ("workloads", Value::Arr(workloads)),
        ("end_to_end", Value::Arr(end_to_end)),
        ("per_layer", Value::Arr(per_layer)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(END_TO_END.iter().all(|m| (0.0..=0.25).contains(&m.bound)));
        assert!(PER_LAYER.len() <= 128);
        for (id, span, metric) in EXPERIMENT_SPANS {
            assert_eq!(span, format!("bench.{id}"));
            assert_eq!(metric, format!("bench.{id}_s"));
            assert!(PER_LAYER.iter().any(|m| m.name == metric));
        }
    }

    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let on_disk = Value::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `wavebench manifest > BENCHMARK.json`"
        );
        let gated: Vec<&str> = END_TO_END
            .iter()
            .filter(|m| m.everywhere)
            .map(|m| m.name)
            .collect();
        assert!(gated.contains(&"setup_s"));
    }
}
