//! The trace-analytics engine, end to end: the analyzer report is pinned
//! and byte-identical across sweep parallelism, the JSONL view encodes
//! records losslessly, and the reconstructed latency waterfalls agree
//! with the simulator's own delivery accounting at evaluation scale.

mod common;

use common::{collected, collecting, golden_check, hash_str};
use wavesim::core::{WaveConfig, WaveNetwork};
use wavesim::topology::Topology;
use wavesim::trace::stream::{self, ColumnarFile, Listener};
use wavesim::trace::{TraceEvent, TraceRecord};
use wavesim::workloads::{FaultSchedule, LengthDist, TrafficConfig, TrafficPattern, TrafficSource};
use wavesim_analyze::{analyze, report, AnalyzeOptions};
use wavesim_bench::runner::{apply_fault_schedule, ParallelSweep};
use wavesim_bench::{run_open_loop, RunSpec};

/// Runs one fully traced CLRP workload and returns the captured records.
/// Everything derives from the arguments, so sweep workers reproduce it
/// bit-for-bit regardless of scheduling.
fn traced_run(side: u16, seed: u64, warmup: u64, cycles: u64) -> (Vec<TraceRecord>, f64, u64) {
    let cfg = WaveConfig {
        seed,
        ..WaveConfig::default()
    };
    let net = WaveNetwork::new(Topology::mesh(&[side, side]), cfg);
    traced_net(net, 0.2, seed, warmup, cycles)
}

/// Drives `net` (faults already scheduled, if any) under hot-pair traffic
/// at `load` with an unbounded sink installed, and returns what
/// [`traced_run`] returns.
fn traced_net(
    mut net: WaveNetwork,
    load: f64,
    seed: u64,
    warmup: u64,
    cycles: u64,
) -> (Vec<TraceRecord>, f64, u64) {
    net.install_trace_sink(collecting());
    let mut src = TrafficSource::new(
        net.topology().clone(),
        TrafficConfig {
            load,
            pattern: TrafficPattern::HotPairs {
                partners: 3,
                locality: 0.7,
            },
            len: LengthDist::Fixed(32),
            seed,
        },
    );
    let r = run_open_loop(&mut net, &mut src, RunSpec::standard(warmup, cycles));
    let records = collected(&mut net);
    (records, r.avg_latency, r.delivered)
}

/// Pins the text report and the pretty-printed JSON document of one
/// analysis under `name`.
fn pin_report(name: &str, records: &[TraceRecord], text: u64, json: u64) {
    let a = analyze(records, AnalyzeOptions::default());
    golden_check(
        &format!("{name}_report"),
        hash_str(&report::render(&a)),
        text,
    );
    let doc = report::to_json(&a).pretty();
    golden_check(&format!("{name}_json"), hash_str(&doc), json);
}

/// The 2×2 CLRP analyzer report is byte-identical whether the sweep runs
/// on one worker or four, and its bytes are pinned: any change to event
/// capture, span reconstruction, sorting, or formatting flips this hash.
#[test]
fn golden_analyzer_report_is_stable_across_sweep_parallelism() {
    let seeds = [1u64, 2, 3, 4];
    let render = |_: usize, &seed: &u64| {
        let (records, _, _) = traced_run(2, seed, 100, 600);
        report::render(&analyze(&records, AnalyzeOptions::default()))
    };
    let one = ParallelSweep::new(1).run(&seeds, render);
    let four = ParallelSweep::new(4).run(&seeds, render);
    assert_eq!(one, four, "report must not depend on worker count");
    golden_check(
        "analyze_2x2_clrp_report",
        hash_str(&one.join("\n")),
        0xb32c_7db0_1d29_f6e3,
    );
}

/// The report of a 16x16 torus CLRP run at load 0.3 (the shape of the
/// benchmark's capture: probe hops and backtracks are most of it, Force
/// setups displace victims, the cache evicts) is pinned in both
/// renderings. Recorded before the fold moved to interned dense tables;
/// the 2x2 golden above has too few circuits, lanes and flows to notice a
/// wrong index.
#[test]
fn golden_report_and_json_for_16x16_clrp_at_load_0_3() {
    let cfg = WaveConfig {
        seed: 5,
        ..WaveConfig::default()
    };
    let net = WaveNetwork::new(Topology::torus(&[16, 16]), cfg);
    let (records, _, _) = traced_net(net, 0.3, 5, 250, 1500);
    let parks = records
        .iter()
        .filter(|r| matches!(r.ev, TraceEvent::ProbePark { .. }))
        .count();
    assert!(parks > 0, "the run must exercise Force-mode victims");
    pin_report(
        "analyze_16x16_clrp",
        &records,
        0x4767_bbca_a141_7be0,
        0xbe4b_a3d6_18a4_57b6,
    );
}

/// A dynamic-fault run under an E14-style schedule: links fail and are
/// repaired under load, so the trace carries `lane_fault`, `lane_repair`,
/// `circuit_broken` and `establish_retry`, the flows table has retry
/// waits and the fault-window table (A5) has rows — none of which the
/// fault-free goldens reach.
#[test]
fn golden_report_and_json_for_a_dynamic_fault_run() {
    let cfg = WaveConfig {
        misroutes: 3,
        ..WaveConfig::default()
    };
    let mut net = WaveNetwork::new(Topology::mesh(&[8, 8]), cfg);
    let (warmup, cycles) = (300, 2400);
    let sched = FaultSchedule::random_mtbf(net.topology(), 2000, 251, warmup + cycles, 1414);
    apply_fault_schedule(&mut net, &sched).expect("schedule drawn from this topology");
    let (records, _, _) = traced_net(net, 0.15, 99, warmup, cycles);
    let count = |f: fn(&TraceEvent) -> bool| records.iter().filter(|r| f(&r.ev)).count();
    assert!(count(|e| matches!(e, TraceEvent::LaneFault { .. })) > 0);
    assert!(count(|e| matches!(e, TraceEvent::LaneRepair { .. })) > 0);
    assert!(count(|e| matches!(e, TraceEvent::CircuitBroken { .. })) > 0);
    assert!(count(|e| matches!(e, TraceEvent::EstablishRetry { .. })) > 0);
    let a = analyze(&records, AnalyzeOptions::default());
    assert!(!a.faults.is_empty(), "fault windows must be reported");
    assert!(
        a.flows.iter().any(|f| f.retry_wait > 0),
        "some flow must have waited on a retry"
    );
    pin_report(
        "analyze_dynamic_faults",
        &records,
        0x65ae_c310_2b1a_e126,
        0xbd5d_990d_82f1_6d98,
    );
}

/// A capture sampled 1-in-8 analyzes with `sample_factor` 8: the one
/// conditional key of the JSON summary, and the A1 row that names it.
#[test]
fn golden_report_and_json_for_a_sampled_capture() {
    let (records, _, _) = traced_run(4, 11, 100, 1500);
    let mut file = ColumnarFile::new(Vec::new()).with_sampling(8);
    file.listen(&records)
        .and_then(|()| file.close())
        .expect("an in-memory file");
    let kept = wavesim::trace::read_columnar(&file.into_inner()).expect("the file decodes");
    assert!(kept.len() < records.len(), "sampling thins the bulk kinds");
    let a = analyze(&kept, AnalyzeOptions::default());
    assert_eq!(a.sample_factor, 8);
    pin_report(
        "analyze_sampled_1_in_8",
        &kept,
        0x14bf_6275_4c2a_f0bc,
        0xdec2_90e0_9495_3204,
    );
}

/// An analysis of no records: every list of the JSON document (`flows`,
/// `lanes`, `faults`, `timeseries`) is empty and prints as `[]`.
#[test]
fn golden_report_and_json_for_zero_records() {
    let a = analyze(&[], AnalyzeOptions::default());
    let doc = report::to_json(&a).pretty();
    for key in ["flows", "lanes", "faults", "timeseries"] {
        assert!(doc.contains(&format!("\"{key}\": []")), "{key}:\n{doc}");
    }
    pin_report(
        "analyze_zero_records",
        &[],
        0x0637_e2c2_3dcc_2ded,
        0x153c_735f_b88c_43ff,
    );
}

/// Round-tripping a real record stream through the JSONL encoder and
/// parser reproduces every record exactly — the JSONL view that
/// `convert-trace` writes is lossless, not a summary.
#[test]
fn jsonl_stream_round_trips_records_exactly() {
    let (records, _, _) = traced_run(2, 9, 100, 600);
    assert!(!records.is_empty());
    let mut text = String::new();
    for rec in &records {
        stream::encode_record(&mut text, rec);
        text.push('\n');
    }
    let back = stream::read_jsonl(&text).expect("own output parses");
    assert_eq!(back, records);
}

/// At evaluation scale (16×16 CLRP) the reconstructed waterfall agrees
/// with the simulator's own accounting: one span per delivered message,
/// segments that partition each latency exactly, and a measured-window
/// mean equal to the run's reported average latency.
#[test]
fn waterfall_totals_match_delivered_latencies_at_scale() {
    let warmup = 400;
    let (records, avg_latency, delivered) = traced_run(16, 7, warmup, 2000);
    let a = analyze(&records, AnalyzeOptions::default());
    assert_eq!(a.summary.delivered, delivered);
    for s in &a.spans.spans {
        assert_eq!(
            s.setup + s.queue + s.transit,
            s.latency(),
            "segments must partition the latency: {s:?}"
        );
    }
    let measured: Vec<u64> = a
        .spans
        .spans
        .iter()
        .filter(|s| s.created >= warmup)
        .map(|s| s.latency())
        .collect();
    assert!(!measured.is_empty());
    let mean = measured.iter().sum::<u64>() as f64 / measured.len() as f64;
    let rel = (mean - avg_latency).abs() / avg_latency.max(1.0);
    assert!(
        rel < 1e-9,
        "span mean {mean} != run avg latency {avg_latency} (rel {rel})"
    );
}
