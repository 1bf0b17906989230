//! The flight-recorder observability subsystem, end to end: Perfetto
//! export pinned against a golden hash, schema validation at evaluation
//! scale, and proof that tracing is a pure observer (byte-identical
//! delivery schedules with the recorder on and off).

mod common;

use common::{collected, collecting, golden_check, hash_str};
use wavesim::core::{WaveConfig, WaveNetwork};
use wavesim::network::Message;
use wavesim::topology::{NodeId, Topology};
use wavesim::trace::perfetto;
use wavesim::trace::VecSink;
use wavesim::workloads::{LengthDist, TrafficConfig, TrafficPattern, TrafficSource};
use wavesim_bench::tracecap::Capture;
use wavesim_bench::{run_open_loop_observed, RunSpec};

/// Runs a tiny fully-deterministic CLRP workload — two messages to the
/// same destination, so the trace covers a cache miss, a probe walk, a
/// circuit setup, a transfer, and a cache hit — and returns the exported
/// Perfetto document.
fn tiny_clrp_trace() -> wavesim::json::Value {
    let mut net = WaveNetwork::new(Topology::mesh(&[2, 2]), WaveConfig::default());
    net.install_trace_sink(collecting());
    net.send(0, Message::new(1, NodeId(0), NodeId(3), 24, 0));
    let mut now = 0;
    let mut resend = true;
    while net.busy() || resend {
        if !net.busy() && resend {
            net.send(now, Message::new(2, NodeId(0), NodeId(3), 24, now));
            resend = false;
        }
        net.tick(now);
        net.drain_deliveries();
        now += 1;
        assert!(now < 10_000, "tiny run must quiesce");
    }
    perfetto::export(&collected(&mut net))
}

/// The exported document for the tiny 2×2 run is pinned byte-for-byte:
/// any change to the record stream, the event mapping, or the JSON
/// serialization flips this hash.
#[test]
fn golden_perfetto_export_for_tiny_clrp_run() {
    let doc = tiny_clrp_trace();
    let summary = perfetto::validate(&doc).expect("exporter emits valid traces");
    assert!(summary.spans >= 2, "setup + transfer spans: {summary:?}");
    golden_check(
        "perfetto_2x2_clrp",
        hash_str(&doc.compact()),
        0x0e0a_50bf_763e_96c4,
    );
}

/// The tiny export is also structurally what ui.perfetto.dev expects:
/// the trace_event envelope, metadata naming every process, and only
/// known phases.
#[test]
fn tiny_export_has_the_trace_event_envelope() {
    let doc = tiny_clrp_trace();
    assert_eq!(doc["displayTimeUnit"], "ms");
    let events = doc["traceEvents"].as_array().expect("event array");
    assert!(
        events
            .iter()
            .any(|e| e["ph"] == "M" && e["name"] == "process_name"),
        "process metadata present"
    );
    assert!(events
        .iter()
        .all(|e| { matches!(e["ph"].as_str(), Some("M" | "b" | "e" | "i")) }));
}

/// Acceptance criterion: a traced 16×16 CLRP run emits a schema-valid
/// Perfetto document with real content on every plane.
#[test]
fn traced_16x16_clrp_run_emits_valid_perfetto() {
    let topo = Topology::mesh(&[16, 16]);
    let mut net = WaveNetwork::new(topo.clone(), WaveConfig::default());
    let mut src = TrafficSource::new(
        topo,
        TrafficConfig {
            load: 0.05,
            pattern: TrafficPattern::HotPairs {
                partners: 2,
                locality: 0.8,
            },
            len: LengthDist::Fixed(32),
            seed: 11,
        },
    );
    let mut cap = Capture::new().listen(Box::new(VecSink::new()));
    let spec = RunSpec::standard(200, 1_000);
    let r = run_open_loop_observed(&mut net, &mut src, spec, &mut cap);
    let records = cap.listener::<VecSink>().expect("collected");
    assert!(r.clean(), "{r:?}");

    let doc = perfetto::export(records.records());
    let summary = perfetto::validate(&doc).expect("valid at evaluation scale");
    assert!(summary.events > 100, "{summary:?}");
    assert!(summary.spans > 10, "{summary:?}");

    // All three planes (wormhole pid 1 is idle here only if no fallback
    // happened; control pid 2 and circuit pid 3 must both appear).
    let events = doc["traceEvents"].as_array().unwrap();
    let has_pid = |pid: f64| {
        events
            .iter()
            .any(|e| e["ph"] != "M" && e["pid"].as_f64() == Some(pid))
    };
    assert!(has_pid(2.0), "control-plane track missing");
    assert!(has_pid(3.0), "circuit-plane track missing");
}

/// Tracing must be a pure observer: the delivery schedule of a traced run
/// is byte-identical to the untraced run, and the network's kept tail
/// (tiny on purpose, to force wraparound) never feeds back into the
/// simulation.
#[test]
fn tracing_on_and_off_produce_identical_schedules() {
    let schedule = |traced: bool| {
        let topo = Topology::mesh(&[5, 5]);
        let mut net = WaveNetwork::new(topo.clone(), WaveConfig::default());
        if traced {
            net.keep_trace_tail(64);
        }
        let mut src = TrafficSource::new(
            topo,
            TrafficConfig {
                load: 0.25,
                pattern: TrafficPattern::HotPairs {
                    partners: 2,
                    locality: 0.6,
                },
                len: LengthDist::Fixed(48),
                seed: 23,
            },
        );
        src.stop_at(2_000);
        let mut out = Vec::new();
        let mut now = 0;
        loop {
            for m in src.poll(now) {
                net.send(now, m);
            }
            if now >= 2_000 && !net.busy() {
                break;
            }
            net.tick(now);
            for d in net.drain_deliveries() {
                out.push((d.msg.id.0, d.delivered_at));
            }
            now += 1;
            assert!(now < 1_000_000);
        }
        if traced {
            let tail = net.release_trace_tail().expect("tail kept");
            assert!(tail.dropped() > 0, "64 slots must wrap on this run");
            assert!(!net.tracing());
        }
        out
    };
    let off = schedule(false);
    let on = schedule(true);
    assert!(!off.is_empty());
    assert_eq!(off, on, "the flight recorder must not perturb the run");
}
