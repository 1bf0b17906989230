//! Runs the built `wavebench` the way its users do: the whole `run --smoke`
//! (all six workloads at reduced size, every output check), `compare` on
//! the result, and the driver's one-process protocol.

use std::path::PathBuf;
use std::process::{Command, Output};

use wavesim_json::Value;

fn wavebench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wavebench"))
        .args(args)
        .output()
        .expect("wavebench starts")
}

fn out_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

const WORKLOADS: [&str; 6] = [
    "sat_clrp",
    "flow_wh",
    "probe_clrp",
    "capture_clrp",
    "analyze_trace",
    "eseries",
];

#[test]
fn smoke_run_passes_every_check_and_compares_clean_with_itself() {
    let dir = out_dir("smoke_run");
    let out = wavebench(&["run", "--smoke", "--out", dir.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "run --smoke failed:\n{stdout}");
    assert!(stdout.contains("all output checks passed"), "{stdout}");
    assert!(!stdout.contains("FAIL"), "{stdout}");

    let result = dir.join("result.json");
    let doc = Value::parse(&std::fs::read_to_string(&result).unwrap()).unwrap();
    assert_eq!(doc["schema"].as_str(), Some("wavebench-run-1"));
    assert!(doc["stamp"]["rustc"]
        .as_str()
        .unwrap()
        .starts_with("rustc "));
    let workloads = doc["workloads"].as_array().unwrap();
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w["name"].as_str().unwrap())
        .collect();
    assert_eq!(names, WORKLOADS);
    for w in workloads {
        let name = w["name"].as_str().unwrap();
        assert_eq!(w["failed"].as_u64(), Some(0), "{name}");
        for metric in [
            "setup_s",
            "wall_s",
            "peak_rss_mb",
            "alloc_count",
            "alloc_mb",
        ] {
            let median = w["end_to_end"][metric]["median"].as_f64();
            assert!(
                median.is_some_and(|m| m > 0.0),
                "{name} {metric} {median:?}"
            );
        }
        let coverage = w["per_layer"]["harness.span_coverage_ratio"]["value"].as_f64();
        assert!(
            coverage.is_some_and(|c| c > 0.9),
            "{name} coverage {coverage:?}"
        );
        assert!(dir.join(format!("spans_{name}.json")).exists(), "{name}");
    }
    // The layers that must be lit on each kind of workload.
    let layer = |w: usize, m: &str| workloads[w]["per_layer"][m]["value"].as_f64().unwrap();
    assert!(layer(0, "network.scan_s") > 0.0 && layer(0, "core.probe_steps") > 0.0);
    assert!(layer(1, "network.bare_tick_s") > 0.0 && layer(1, "core.probes_sent") == 0.0);
    assert!(layer(3, "trace.records") > 0.0 && layer(3, "trace.finish_s") > 0.0);
    assert!(layer(4, "analyze.fold_s") > 0.0 && layer(4, "json.parse_s") > 0.0);
    assert!(layer(5, "bench.e15_s") > 0.0 && layer(5, "bench.jobs_speedup") > 0.0);

    let result = result.to_str().unwrap();
    let cmp = wavebench(&["compare", result, result]);
    let table = String::from_utf8_lossy(&cmp.stdout);
    assert!(cmp.status.success(), "{table}");
    assert!(table.contains("0 worse"), "{table}");
}

#[test]
fn one_process_speaks_the_driver_protocol() {
    let dir = out_dir("smoke_process");
    for trace in ["0", "1"] {
        let out = wavebench(&[
            "--workload",
            "flow_wh",
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--smoke",
            "--out",
            dir.to_str().unwrap(),
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{stdout}");
        let last = Value::parse(stdout.lines().last().unwrap()).unwrap();
        let Value::Obj(pairs) = &last else {
            panic!("{last}")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last["correct"].as_bool(), Some(true));
        assert!(last["attempted"].as_u64().unwrap() >= 1);
        assert_eq!(last["failed"].as_u64(), Some(0));
        let Value::Obj(metrics) = &last["metrics"] else {
            panic!("{last}")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        if trace == "0" {
            assert_eq!(
                names,
                [
                    "setup_s",
                    "wall_s",
                    "peak_rss_mb",
                    "alloc_count",
                    "alloc_mb"
                ]
            );
            assert!(metrics
                .iter()
                .all(|(_, m)| m["value"].as_f64().unwrap() > 0.0));
        } else {
            assert_eq!(names.len(), 72);
            assert!(names.contains(&"network.vc_visits_per_flit_hop"));
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ][..],
        &["--workload", "flow_wh", "--trace", "2"],
        &["--workload", "flow_wh", "--seconds", "-1"],
        &["compare", "only_one.json"],
        &["compare", "/nonexistent/a.json", "/nonexistent/b.json"],
        &[],
    ] {
        let out = wavebench(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert!(!out.stderr.is_empty(), "{args:?} said nothing");
    }
}
