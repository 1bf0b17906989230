//! End-to-end tests of the `wavesim` binary.

use std::process::Command;

fn wavesim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wavesim"))
}

#[test]
fn info_prints_configuration() {
    let out = wavesim().arg("info").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("wave switches per router"));
    assert!(text.contains("e13"));
}

/// `check`'s whole output is pinned: the vertex and edge counts of each
/// channel dependency graph, not only its verdict.
#[test]
fn check_certifies_routing() {
    let pinned = [
        (
            "4",
            "\
static channel-dependency-graph checks (paper §4 grounding):
  4x4 mesh, deterministic DOR              mode=DirectAcyclic vertices=96 edges=272 -> DEADLOCK-FREE
  4x4 torus, dateline DOR                  mode=DirectAcyclic vertices=72 edges=104 -> DEADLOCK-FREE
  4x4 mesh, Duato adaptive                 mode=DuatoEscape vertices=48 edges=68 -> DEADLOCK-FREE
  4x4 torus, Duato adaptive                mode=DuatoEscape vertices=72 edges=104 -> DEADLOCK-FREE
",
        ),
        (
            "8",
            "\
static channel-dependency-graph checks (paper §4 grounding):
  8x8 mesh, deterministic DOR              mode=DirectAcyclic vertices=448 edges=1552 -> DEADLOCK-FREE
  8x8 torus, dateline DOR                  mode=DirectAcyclic vertices=336 edges=640 -> DEADLOCK-FREE
  8x8 mesh, Duato adaptive                 mode=DuatoEscape vertices=224 edges=388 -> DEADLOCK-FREE
  8x8 torus, Duato adaptive                mode=DuatoEscape vertices=336 edges=640 -> DEADLOCK-FREE
",
        ),
    ];
    for (side, expected) in pinned {
        let out = wavesim()
            .args(["check", "--side", side])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "static checks must pass");
        assert_eq!(String::from_utf8(out.stdout).unwrap(), expected);
    }
}

#[test]
fn experiment_json_output_is_valid() {
    let out = wavesim()
        .args(["e4", "--scale", "small", "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let v = wavesim_json::Value::parse(&text).expect("valid JSON table");
    assert_eq!(v["id"], "E4");
    assert!(v["rows"].as_array().unwrap().len() >= 2);
}

#[test]
fn custom_run_reports_clean() {
    let out = wavesim()
        .args([
            "run",
            "--protocol",
            "clrp",
            "--side",
            "4",
            "--load",
            "0.1",
            "--cycles",
            "2000",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("verdict          : CLEAN"), "{text}");
}

/// The Circuit Cache grows its slots on insert and reserves none up
/// front, so the largest capacity the flag takes runs like any other.
#[test]
fn an_unbounded_cache_runs_clean() {
    let out = wavesim()
        .args([
            "run",
            "--side",
            "4",
            "--cache",
            "18446744073709551615",
            "--cycles",
            "2000",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("verdict          : CLEAN"), "{text}");
}

#[test]
fn run_writes_trace_and_metrics_and_validates() {
    let dir = std::env::temp_dir().join(format!("wavesim-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let capture = dir.join("run.wstrace");
    let trace = dir.join("run.trace.json");
    let metrics = dir.join("run.metrics.txt");
    let out = wavesim()
        .args(["run", "--side", "4", "--load", "0.1", "--cycles", "2000"])
        .arg("--trace-bin")
        .arg(&capture)
        .arg("--metrics-out")
        .arg(&metrics)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Perfetto is a view of the capture, converted after the run.
    let out = wavesim()
        .arg("convert-trace")
        .arg(&capture)
        .args(["--to", "perfetto", "--out"])
        .arg(&trace)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains(" records as Perfetto ("), "{text}");

    // The trace is valid Perfetto JSON with the expected envelope, and
    // carries the capture's time series as counter tracks.
    let text = std::fs::read_to_string(&trace).unwrap();
    let doc = wavesim_json::Value::parse(&text).expect("trace parses");
    assert_eq!(doc["displayTimeUnit"], "ms");
    let events = doc["traceEvents"].as_array().unwrap();
    assert!(events.iter().any(|e| e["ph"] == "C"));

    // The binary's own validator accepts it.
    let out = wavesim()
        .arg("validate-trace")
        .arg(&trace)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("valid Perfetto trace"), "{text}");

    // The metrics page is Prometheus-shaped.
    let page = std::fs::read_to_string(&metrics).unwrap();
    assert!(page.contains("# TYPE wavesim_msgs_sent counter"));
    assert!(page.contains("wavesim_traced_latency_cycles_bucket"));

    // Its histogram counts every delivery of the run.
    let out = wavesim()
        .args(["run", "--side", "8", "--load", "0.3", "--cycles", "3000"])
        .args(["--metrics-out"])
        .arg(&metrics)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let page = std::fs::read_to_string(&metrics).unwrap();
    let sample = |name: &str| {
        let line = page.lines().find(|l| l.starts_with(&format!("{name} ")));
        line.unwrap_or_else(|| panic!("{name} missing: {page}"))[name.len() + 1..].to_string()
    };
    assert_eq!(sample("wavesim_msgs_delivered"), "1089");
    assert_eq!(sample("wavesim_traced_latency_cycles_count"), "1089");

    // A closed-loop run writes its page too: the same tables, with the
    // round-trip numbers where an open-loop run has its latency gauges.
    let out = wavesim()
        .args(["run", "--side", "4", "--cycles", "2000"])
        .args(["--service-clients", "32", "--metrics-out"])
        .arg(&metrics)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success() && out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let page = std::fs::read_to_string(&metrics).unwrap();
    assert!(page.contains("\nwavesim_probes_sent "), "{page}");
    assert!(page.contains("\nwavesim_avg_round_trip_cycles "), "{page}");
    assert!(!page.contains("wavesim_avg_latency_cycles"), "{page}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn validate_trace_rejects_malformed_input() {
    let dir = std::env::temp_dir().join(format!("wavesim-cli-badtrace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"traceEvents\": [{\"ph\": \"b\"}]}").unwrap();
    let out = wavesim()
        .args(["validate-trace", bad.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("error:"), "{err}");

    let missing = dir.join("does-not-exist.json");
    let out = wavesim()
        .args(["validate-trace", missing.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());

    // A command that captures no run (E7 drives its networks by hand)
    // leaves no empty stream file behind, and says so.
    let out = wavesim()
        .current_dir(&dir)
        .args(["e7", "--scale", "small", "--trace-bin", "e7.wstrace"])
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    assert!(err.contains("note: removed the empty e7.wstrace"), "{err}");
    assert!(!dir.join("e7.wstrace").exists());

    // A truncated capture, one with a corrupt length byte, a JSONL stream
    // with a bad line and an empty file: exit 1 (not a panic's 101) and an
    // `error:` that says where, from both commands that read a capture.
    use wavesim_trace::TraceRecord;
    let mut capture = Vec::new();
    let mut jsonl = String::new();
    for (seq, ev) in wavesim_trace::every_event(1 << 40).into_iter().enumerate() {
        let (at, seq) = (seq as u64 / 2, seq as u64);
        let rec = TraceRecord { at, seq, ev };
        capture.push(rec);
        wavesim_trace::stream::encode_record(&mut jsonl, &rec);
        jsonl.push_str(if seq == 1 { "}\n" } else { "\n" });
    }
    let bytes = wavesim_trace::columnar::encode(&capture, wavesim_trace::stream::CHUNK_RECORDS);
    let mut corrupt = bytes.clone();
    corrupt[8] = 0xff; // the first frame's record count
    for (name, content, says) in [
        (
            "cut.wstrace",
            &bytes[..bytes.len() - 7],
            "frame at byte 8: truncated",
        ),
        ("corrupt.wstrace", &corrupt[..], "frame at byte 8: "),
        ("badline.jsonl", jsonl.as_bytes(), "line 2: "),
        (
            "empty.wstrace",
            &[][..],
            "empty.wstrace: empty file, no records",
        ),
        (
            "deep.json",
            "[".repeat(200_000).as_bytes(),
            "JSON nested deeper than 128 at byte 128",
        ),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        let perfetto = ["convert-trace", "--to", "perfetto", "--out", "x.json"];
        for cmd in [&["validate-trace"][..], &["analyze", "--trace"], &perfetto] {
            let out = wavesim()
                .current_dir(&dir)
                .args(cmd)
                .arg(&path)
                .output()
                .expect("runs");
            let err = String::from_utf8(out.stderr).unwrap();
            assert_eq!(out.status.code(), Some(1), "{name}: {err}");
            assert!(err.starts_with("error: ") && err.contains(says), "{err}");
        }
    }
    assert!(
        !dir.join("x.json").exists(),
        "a refused conversion writes nothing"
    );
    // A capture the analyzer refuses (one stamp 4e12 cycles on) cannot be
    // given counter tracks either, and is refused by name.
    let jump = dir.join("jump.jsonl");
    std::fs::write(
        &jump,
        "{\"at\":0,\"seq\":0,\"type\":\"cache_miss\",\"node\":0,\"dest\":1}\n\
         {\"at\":4000000000000,\"seq\":1,\"type\":\"cache_miss\",\"node\":0,\"dest\":1}\n",
    )
    .unwrap();
    let out = wavesim()
        .arg("convert-trace")
        .arg(&jump)
        .args(["--to", "perfetto", "--out"])
        .arg(dir.join("jump.json"))
        .output()
        .expect("runs");
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.starts_with("error: ") && err.contains("jump.jsonl: "),
        "{err}"
    );
    assert!(
        err.contains("--window") && !dir.join("jump.json").exists(),
        "{err}"
    );
    // The same parser reads every JSON input of `run`: no stack overflow,
    // and no id wider than its field narrowed into a different one.
    let wide =
        r#"{"version": 1, "messages": [{"id":1,"src":4294967296,"dest":1,"len":4,"created":0}]}"#;
    std::fs::write(dir.join("wide.json"), wide).unwrap();
    for (flag, name, says) in [
        ("--fault-schedule", "deep.json", "nested deeper than 128"),
        ("--replay-trace", "deep.json", "nested deeper than 128"),
        ("--replay-trace", "wide.json", "src 4294967296"),
    ] {
        let out = wavesim()
            .args(["run", "--side", "4", "--cycles", "100", flag])
            .arg(dir.join(name))
            .output()
            .expect("runs");
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{flag} {name}: {err}");
        assert!(err.starts_with("error: ") && err.contains(name), "{err}");
        assert!(err.contains(says), "{err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn binary_capture_converts_and_analyzes_end_to_end() {
    let dir = std::env::temp_dir().join(format!("wavesim-cli-bintrace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bin = dir.join("run.wstrace");
    let jsonl = dir.join("run.jsonl");
    let run = |extra: &[&str]| {
        let out = wavesim()
            .args(["run", "--side", "4", "--load", "0.1", "--cycles", "2000"])
            .args(extra)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };

    // A run streams WSTRACE1; its JSONL view is a conversion.
    let text = run(&["--trace-bin", bin.to_str().unwrap()]);
    assert!(text.contains("wrote binary stream"), "{text}");
    let out = wavesim()
        .args([
            "convert-trace",
            bin.to_str().unwrap(),
            "--out",
            jsonl.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bin_len = std::fs::metadata(&bin).unwrap().len();
    let jsonl_len = std::fs::metadata(&jsonl).unwrap().len();
    assert!(
        bin_len * 4 <= jsonl_len,
        "binary must be <= 25% of JSONL ({bin_len} vs {jsonl_len} bytes)"
    );

    // validate-trace recognises both formats by content.
    for (path, tag) in [
        (&bin, "binary columnar trace"),
        (&jsonl, "JSONL record stream"),
    ] {
        let out = wavesim()
            .args(["validate-trace", path.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains(tag), "{text}");
    }

    // JSONL -> binary conversion reproduces the streamed binary bytes.
    let conv_bin = dir.join("conv.wstrace");
    let out = wavesim()
        .args([
            "convert-trace",
            jsonl.to_str().unwrap(),
            "--out",
            conv_bin.to_str().unwrap(),
            "--to",
            "bin",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&conv_bin).unwrap(),
        std::fs::read(&bin).unwrap(),
        "round-trip conversion must reproduce the binary stream"
    );

    // analyze consumes the binary stream natively and matches the JSONL
    // analysis exactly.
    let analyze = |path: &std::path::Path, json_out: &std::path::Path| {
        let out = wavesim()
            .args([
                "analyze",
                "--trace",
                path.to_str().unwrap(),
                "--report",
                dir.join("rep.txt").to_str().unwrap(),
                "--json",
                json_out.to_str().unwrap(),
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(json_out).unwrap()
    };
    let from_bin = analyze(&bin, &dir.join("a_bin.json"));
    let from_jsonl = analyze(&jsonl, &dir.join("a_jsonl.json"));
    assert_eq!(from_bin, from_jsonl, "analysis must be format-agnostic");

    // Sampled capture stays decodable and strictly smaller.
    let sampled = dir.join("sampled.wstrace");
    run(&[
        "--trace-bin",
        sampled.to_str().unwrap(),
        "--trace-sample",
        "8",
    ]);
    let out = wavesim()
        .args(["validate-trace", sampled.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(std::fs::metadata(&sampled).unwrap().len() < bin_len);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_sampled_capture_says_how_it_was_sampled() {
    let dir = std::env::temp_dir().join(format!("wavesim-cli-sampled-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bin = dir.join("s8.wstrace");
    let jsonl = dir.join("s8.jsonl");
    let wavesim_ok = |args: &[&str]| {
        let out = wavesim().args(args).output().expect("binary runs");
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let (bin_arg, jsonl_arg) = (bin.to_str().unwrap(), jsonl.to_str().unwrap());
    wavesim_ok(&[
        "run",
        "--side",
        "4",
        "--load",
        "0.1",
        "--cycles",
        "2000",
        "--trace-bin",
        bin_arg,
        "--trace-sample",
        "8",
    ]);
    wavesim_ok(&["convert-trace", bin_arg, "--out", jsonl_arg]);

    // The sampler's gaps in the sequence numbers give the factor: no flag.
    for capture in [bin_arg, jsonl_arg] {
        let report = wavesim_ok(&["analyze", "--trace", capture]);
        let row = report.lines().find(|l| l.contains("sample factor"));
        let row = row.unwrap_or_else(|| panic!("{capture}: no factor row\n{report}"));
        assert!(row.ends_with("1/8 (sampled kinds rescaled)"), "{row}");
    }

    // `analyze` takes no sampling factor: one is a usage error.
    let out = wavesim()
        .args(["analyze", "--trace", bin_arg, "--trace-sample", "8"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    let (first, rest) = err.split_once('\n').expect("usage follows the error");
    assert_eq!(
        first,
        "error: unknown argument `--trace-sample` for `analyze`"
    );
    assert!(rest.starts_with("usage:"), "{rest}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn model_check_proves_and_mutation_refutes() {
    // Exhaustive proof on the 2x2 mesh: exit 0, PROVED verdict with the
    // pinned state count (exploration is deterministic).
    let out = wavesim()
        .args([
            "check", "--model", "clrp", "--k", "1", "--msg", "0:3", "--msg", "3:0", "--msg", "1:2",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("PROVED deadlock- and livelock-free: 7767 states"),
        "{text}"
    );

    // The mutated model must fail, write a replayable counterexample
    // trace, and that trace must pass the binary's own validator.
    let dir = std::env::temp_dir().join(format!("wavesim-cli-model-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cx = dir.join("cx.wstrace");
    let out = wavesim()
        .args([
            "check",
            "--model",
            "clrp",
            "--k",
            "1",
            "--msg",
            "0:1",
            "--msg",
            "2:3",
            "--msg",
            "0:3",
            "--mutate",
            "drop-release",
            "--counterexample",
            cx.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "mutated model must not prove clean");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("VIOLATION (deadlock)"), "{text}");
    let out = wavesim()
        .args(["validate-trace", cx.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("valid binary columnar trace"), "{text}");
    // ...and opens in Perfetto.
    let cx_json = dir.join("cx.json");
    let out = wavesim()
        .arg("convert-trace")
        .arg(&cx)
        .args(["--to", "perfetto", "--out"])
        .arg(&cx_json)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = wavesim()
        .arg("validate-trace")
        .arg(&cx_json)
        .output()
        .expect("binary runs");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("valid Perfetto trace"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fuzz_is_deterministic_and_clean_on_correct_model() {
    let run = || {
        let out = wavesim()
            .args([
                "fuzz", "--model", "carp", "--runs", "16", "--steps", "2000", "--seed", "11",
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let a = run();
    assert!(a.contains("OK: 16 runs"), "{a}");
    assert_eq!(a, run(), "fuzzing must be deterministic in --seed");
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = wavesim().arg("bogus").output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("usage:"));
}

#[test]
fn removed_shard_flags_fail_like_any_unknown_flag() {
    // The two removed flags are spelled in halves so that a repo-wide grep
    // for them, which guards against their return, stays empty.
    let removed = [
        concat!("--sh", "ards"),
        concat!("--watch-imb", "alance"),
        concat!("--trace", "-out"),
    ];
    for flag in removed.into_iter().chain(["--no-such-flag"]) {
        let out = wavesim()
            .args(["run", "--side", "4", flag, "2"])
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "{flag} must be rejected");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown argument `{flag}`")),
            "{flag}: {err}"
        );
        assert_eq!(err.matches(flag).count(), 1, "usage still lists {flag}");
    }
}

#[test]
fn bad_flag_values_are_named_before_the_usage() {
    let cases: [(&str, &[&str], &str); 5] = [
        (
            "run",
            &["--load", "abc"],
            "invalid value `abc` for `--load`",
        ),
        (
            "run",
            &["--protocol", "foo"],
            "invalid value `foo` for `--protocol`",
        ),
        (
            "run",
            &["--window", "0"],
            "invalid value `0` for `--window`",
        ),
        (
            "e3",
            &["--scale", "huge"],
            "invalid value `huge` for `--scale`",
        ),
        (
            "run",
            &["--side", "4", "--load"],
            "missing value for `--load`",
        ),
    ];
    for (cmd, flags, complaint) in cases {
        let out = wavesim()
            .arg(cmd)
            .args(flags)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{flags:?}");
        assert!(out.stdout.is_empty(), "{flags:?} must not start a run");
        let err = String::from_utf8_lossy(&out.stderr);
        let (first, rest) = err.split_once('\n').expect("usage follows the error");
        assert_eq!(first, format!("error: {complaint}"), "{flags:?}");
        assert!(rest.starts_with("usage:"), "{flags:?}: {rest}");
    }
}

#[test]
fn out_of_range_values_are_refused_not_panicked_on() {
    // A value no run can use, and a flag or operand the command does not
    // take, is a usage error (exit 2); values that only clash with each
    // other are an `error:` (exit 1). Either way stderr names the flag,
    // and nothing reaches a library assert (exit 101) or the allocator's
    // abort (exit 134).
    let cases: [(&str, i32, &str); 33] = [
        ("run --side 0", 2, "--side"),
        ("run --side 1", 2, "--side"),
        ("run --topology torus --side 2", 1, "--side"),
        ("run --k 0", 2, "--k"),
        ("run --alpha 0", 2, "--alpha"),
        ("run --cache 0", 2, "--cache"),
        ("run --len 0", 2, "--len"),
        ("run --load 0", 2, "--load"),
        ("run --load -1", 2, "--load"),
        ("run --load nan", 2, "--load"),
        ("run --service-clients 5 --side 1", 2, "--side"),
        ("check --side 1", 2, "--side"),
        ("check --side 2", 1, "--side"),
        (
            "gen-trace --collective reduce --side 1 --out x.json",
            2,
            "--side",
        ),
        (
            "gen-trace --collective reduce --len 0 --out x.json",
            2,
            "--len",
        ),
        ("check --model clrp --k 0", 2, "--k"),
        ("check --model clrp --msg 0:0", 2, "--msg"),
        ("check --model clrp --msg 0:99", 1, "--msg"),
        ("check --model clrp --msgs 200", 1, "--msgs"),
        ("check --model clrp --msgs 0 --fault", 1, "--fault"),
        (
            "check --model clrp --topology torus --side 2",
            1,
            "--topology",
        ),
        ("check --model clrp --side 9", 1, "--side"),
        (
            "convert-trace t.wstrace --out t.json --to perfetto --flight-recorder 999999999999999",
            2,
            "--flight-recorder",
        ),
        ("run --side 65535", 2, "--side"),
        ("run --locality nan", 2, "--locality"),
        ("run --locality 2", 2, "--locality"),
        ("run --locality -1", 2, "--locality"),
        ("info --load 0.5", 2, "--load"),
        ("run --side 4 stray", 2, "stray"),
        ("e3 --scale small --json out.json", 2, "out.json"),
        ("analyze --trace x --watch-stall 5", 2, "--watch-stall"),
        (
            "run --side 4 --cycles 1000 --trace-bin t.out --metrics-out ./t.out",
            1,
            "--trace-bin",
        ),
        (
            "convert-trace a.wstrace --out ./a.wstrace --to bin",
            1,
            "--out",
        ),
    ];
    let dir = std::env::temp_dir().join(format!("wavesim-cli-range-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (line, code, flag) in cases {
        let out = wavesim()
            .args(line.split(' '))
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{line}: {err}");
        assert!(err.starts_with("error: "), "{line}: {err}");
        let complaint = err.lines().next().unwrap();
        assert!(complaint.contains(&format!("`{flag}")), "{line}: {err}");
        let mut words = line.split(' ');
        let cmd = words.next().unwrap();
        if complaint.contains("invalid value") {
            let value = words.skip_while(|w| *w != flag).nth(1).unwrap();
            let says = format!("error: invalid value `{value}` for `{flag}`");
            assert_eq!(complaint, says, "{line}");
        } else if code == 2 {
            assert!(complaint.contains(&format!("`{cmd}`")), "{line}: {err}");
        }
    }
    assert!(
        std::fs::read_dir(&dir).unwrap().next().is_none(),
        "a refused command writes nothing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_missing_capture_is_named_once() {
    for cmd in [
        &["analyze", "--trace", "/nonexistent"][..],
        &["convert-trace", "/nonexistent", "--out", "/nonexistent/x"],
        &["validate-trace", "/nonexistent"],
    ] {
        let out = wavesim().args(cmd).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{cmd:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with("error: cannot read /nonexistent: "),
            "{err}"
        );
        assert_eq!(err.matches("/nonexistent").count(), 1, "{err}");
    }
}

#[test]
fn observed_sweep_is_byte_identical_across_jobs() {
    let dir = std::env::temp_dir().join(format!("wavesim-cli-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sweep = |jobs: &str| {
        let sub = dir.join(jobs);
        std::fs::create_dir_all(&sub).unwrap();
        let out = wavesim()
            .current_dir(&sub)
            .args(["e11", "--scale", "small", "--jobs", jobs])
            .args(["--trace-bin", "t.wstrace"])
            .args(["--watch-stall", "64", "--watch-deadlock"])
            .args(["--serve-metrics", "127.0.0.1:0"])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            !err.contains("force"),
            "--jobs must not be rewritten: {err}"
        );
        let converted = wavesim()
            .current_dir(&sub)
            .args(["convert-trace", "t.wstrace", "--to", "perfetto"])
            .args(["--out", "t.json"])
            .output()
            .expect("binary runs");
        assert!(
            converted.status.success(),
            "{}",
            String::from_utf8_lossy(&converted.stderr)
        );
        (
            String::from_utf8(out.stdout).unwrap(),
            std::fs::read(sub.join("t.json")).unwrap(),
            std::fs::read(sub.join("t.wstrace")).unwrap(),
        )
    };
    let (out1, json1, bin1) = sweep("1");
    let (out2, json2, bin2) = sweep("2");
    assert!(!json1.is_empty());
    assert!(out1.contains("watchdog: stall tripped"), "{out1}");
    assert!(out1.contains("wrote binary stream: t.wstrace"), "{out1}");
    assert_eq!(out1, out2, "stdout");
    assert!(json1 == json2, "the Perfetto view differs across --jobs");
    assert!(bin1 == bin2, "--trace-bin differs across --jobs");
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `wavesim args`, reads the first line of its stdout and closes the
/// pipe; returns that line, the exit code and stderr.
fn first_line_then_close(args: &[&str]) -> (String, Option<i32>, String) {
    use std::io::BufRead;
    let mut child = wavesim()
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdout = std::io::BufReader::new(child.stdout.take().expect("piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("one line");
    drop(stdout);
    let out = child.wait_with_output().expect("exits");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    (line, out.status.code(), err)
}

#[test]
fn a_closed_stdout_ends_the_output_without_a_panic() {
    let dir = std::env::temp_dir().join(format!("wavesim-cli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let capture = dir.join("run.wstrace");
    let capture = capture.to_str().unwrap();
    // Both print far more than a pipe buffers (160 kB of flow and lane
    // rows), so each is still writing when the reader goes away.
    let run = [
        "run",
        "--side",
        "16",
        "--cycles",
        "1000",
        "--live-analyze",
        "--top",
        "100000",
        "--trace-bin",
        capture,
    ];
    let analyze = ["analyze", "--trace", capture, "--top", "100000"];
    for (args, first) in [(&run[..], "wrote binary stream: "), (&analyze, "== A1: ")] {
        let (line, code, err) = first_line_then_close(args);
        assert!(line.starts_with(first), "{args:?}: {line}");
        assert_eq!(code, Some(141), "{args:?}: {err}");
        assert!(err.is_empty(), "{args:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn progress_prints_the_live_line_and_leaves_stdout_alone() {
    let run = |extra: &[&str]| {
        let out = wavesim()
            .args(["run", "--side", "4", "--cycles", "3000"])
            .args(extra)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (out.stdout, String::from_utf8(out.stderr).unwrap())
    };
    let (plain, quiet) = run(&[]);
    let (shown, err) = run(&["--progress", "500"]);
    assert!(quiet.is_empty(), "{quiet}");
    assert!(err.matches("[wavesim live] cycle").count() >= 3, "{err}");
    assert!(plain == shown, "--progress changed stdout");
    // The status board prints the one progress line; its old switch is gone.
    let out = wavesim()
        .args(["run", "--side", "4", "--live-status"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.starts_with("error: unknown argument `--live-status` for `run`"),
        "{err}"
    );
}

/// A capture file that cannot be written fails the run, and fails it
/// alone: the time series folded beside it is the one the same run
/// writes without a capture.
#[cfg(target_os = "linux")]
#[test]
fn a_dead_capture_file_leaves_the_folds_beside_it_whole() {
    let dir = std::env::temp_dir().join(format!("wavesim-cli-full-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |csv: &str, extra: &[&str]| {
        wavesim()
            .args(["run", "--side", "8", "--load", "0.2", "--cycles", "4000"])
            .args(["--live-analyze", "--timeseries-out", csv])
            .args(extra)
            .current_dir(&dir)
            .output()
            .expect("binary runs")
    };
    let dead = run("ts.csv", &["--trace-bin", "/dev/full"]);
    assert_eq!(dead.status.code(), Some(1));
    let err = String::from_utf8_lossy(&dead.stderr);
    assert!(
        err.starts_with("error: trace capture: trace stream i/o error"),
        "{err}"
    );
    let alive = run("alone.csv", &[]);
    assert!(
        alive.status.success(),
        "{}",
        String::from_utf8_lossy(&alive.stderr)
    );
    let read = |name: &str| std::fs::read(dir.join(name)).expect("the series was written");
    assert!(read("ts.csv") == read("alone.csv"), "the series moved");
    std::fs::remove_dir_all(&dir).ok();
}
