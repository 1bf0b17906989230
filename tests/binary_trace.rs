//! The binary columnar trace format, end to end: a property round-trip
//! of every event kind through encode/decode (including extreme cycle
//! deltas and maximal ids), exact agreement with the JSONL codec over
//! the same records, byte-identity across reruns, and the
//! compression floor the format is shipped for.

use wavesim::core::{WaveConfig, WaveNetwork};
use wavesim::topology::Topology;
use wavesim::trace::stream;
use wavesim::trace::{
    read_columnar, ColumnarBuf, ColumnarSink, JsonlSink, PlaneId, TraceEvent, TraceRecord,
    TraceSink,
};
use wavesim::workloads::{LengthDist, TrafficConfig, TrafficPattern, TrafficSource};
use wavesim_bench::tracecap::Capture;
use wavesim_bench::{run_open_loop_observed, RunSpec};

/// The largest integer the JSONL codec can carry exactly (its number
/// layer is f64); the binary codec carries full `u64`, so tests that
/// compare the two formats cap `u64` fields here while binary-only tests
/// use `u64::MAX`.
const MAX_JSONL: u64 = 1 << 53;

/// One instance of every `TraceEvent` variant, pushed toward the edges of
/// its value space: `big` in every `u64`-wide id/count field, maximal
/// node and link ids, maximal switch numbers, both Force-bit polarities.
fn every_event_extreme(big: u64) -> Vec<TraceEvent> {
    let u64_max = big;
    vec![
        TraceEvent::PlaneTick {
            plane: PlaneId::Data,
        },
        TraceEvent::PlaneTick {
            plane: PlaneId::Control,
        },
        TraceEvent::PlaneTick {
            plane: PlaneId::Circuit,
        },
        TraceEvent::ProbeLaunch {
            circuit: u64_max,
            src: u32::MAX,
            dest: 0,
            switch: u8::MAX,
            force: true,
        },
        TraceEvent::ProbeLaunch {
            circuit: 0,
            src: 0,
            dest: u32::MAX,
            switch: 1,
            force: false,
        },
        TraceEvent::ProbeHop {
            circuit: u64_max,
            probe: u64_max,
            node: u32::MAX,
            link: u32::MAX,
            misroute: true,
        },
        TraceEvent::ProbeHop {
            circuit: 1,
            probe: 2,
            node: 3,
            link: 4,
            misroute: false,
        },
        TraceEvent::ProbeBacktrack {
            circuit: u64_max - 1,
            probe: u64_max,
            node: u32::MAX,
        },
        TraceEvent::ProbePark {
            circuit: u64_max,
            probe: 0,
            node: u32::MAX,
            victim: u64_max,
        },
        TraceEvent::ProbeReached {
            circuit: u64_max,
            probe: u64_max,
            dest: u32::MAX,
            steps: u64_max,
        },
        TraceEvent::ProbeExhausted {
            circuit: u64_max,
            src: u32::MAX,
            switch: u8::MAX,
            force: true,
        },
        TraceEvent::ProbeExhausted {
            circuit: 7,
            src: 8,
            switch: 2,
            force: false,
        },
        TraceEvent::CircuitEstablished {
            circuit: u64_max,
            src: u32::MAX,
            dest: u32::MAX,
            hops: u32::MAX,
        },
        TraceEvent::CircuitReleased { circuit: u64_max },
        TraceEvent::CircuitAbandoned { circuit: u64_max },
        TraceEvent::ForcedRelease {
            circuit: u64_max,
            src: u32::MAX,
        },
        TraceEvent::CacheHit {
            node: u32::MAX,
            dest: u32::MAX,
            circuit: u64_max,
        },
        TraceEvent::CacheMiss {
            node: u32::MAX,
            dest: u32::MAX,
        },
        TraceEvent::CacheEvict {
            node: u32::MAX,
            victim_dest: u32::MAX,
            circuit: u64_max,
        },
        TraceEvent::TransferStart {
            circuit: u64_max,
            msg: u64_max,
            src: u32::MAX,
            dest: u32::MAX,
            len_flits: u32::MAX,
        },
        TraceEvent::WormholeInject {
            msg: u64_max,
            src: u32::MAX,
            dest: u32::MAX,
            len_flits: u32::MAX,
        },
        TraceEvent::WormholeDeliver {
            msg: u64_max,
            src: u32::MAX,
            dest: u32::MAX,
            latency: u64_max,
        },
        TraceEvent::CircuitDeliver {
            msg: u64_max,
            src: u32::MAX,
            dest: u32::MAX,
            latency: u64_max,
        },
        TraceEvent::LaneFault {
            link: u32::MAX,
            switch: u8::MAX,
        },
        TraceEvent::LaneRepair {
            link: u32::MAX,
            switch: u8::MAX,
        },
        TraceEvent::CircuitBroken {
            circuit: u64_max,
            src: u32::MAX,
            dest: u32::MAX,
        },
        TraceEvent::EstablishRetry {
            circuit: u64_max,
            src: u32::MAX,
            dest: u32::MAX,
            attempt: u8::MAX,
        },
    ]
}

/// Timestamps chosen to exercise the zigzag delta codec at its extremes:
/// forward jumps of `big`, backward jumps of the same magnitude, and
/// zero-width deltas, cycled over the event list.
fn extreme_records(consecutive_seq: bool, big: u64) -> Vec<TraceRecord> {
    let cycles = [0u64, big, 0, 1, big - 1, big, 12_345, 12_345];
    every_event_extreme(big)
        .into_iter()
        .enumerate()
        .map(|(i, ev)| TraceRecord {
            at: cycles[i % cycles.len()],
            seq: if consecutive_seq {
                i as u64
            } else {
                // Huge gaps, scaled so the top stays near `big` (wrapping
                // only when `big` spans the whole u64 range).
                (i as u64).wrapping_mul(big / 32 + 1)
            },
            ev,
        })
        .collect()
}

fn encode_jsonl(recs: &[TraceRecord]) -> String {
    let mut text = String::new();
    for rec in recs {
        stream::encode_record(&mut text, rec);
        text.push('\n');
    }
    text
}

/// The binary codec alone carries the full `u64` value space: every
/// variant with ids, counts, and cycle stamps at `u64::MAX` (and deltas
/// spanning the whole range in both directions) round-trips exactly.
#[test]
fn binary_round_trips_full_u64_extremes() {
    for consecutive in [true, false] {
        let recs = extreme_records(consecutive, u64::MAX);
        let mut buf = ColumnarBuf::new();
        buf.record_many(&recs);
        let back = read_columnar(&buf.into_bytes()).expect("decode own encoding");
        assert_eq!(back, recs, "binary round trip (consecutive={consecutive})");
    }
}

/// Every variant, with every id field at the edge of the JSONL-exact
/// domain (`2^53`, its number layer being f64), survives the binary
/// encode/decode round trip exactly — and agrees record-for-record with
/// the JSONL codec applied to the same buffer.
#[test]
fn every_variant_round_trips_binary_and_matches_jsonl() {
    for consecutive in [true, false] {
        let recs = extreme_records(consecutive, MAX_JSONL);
        let mut buf = ColumnarBuf::new();
        buf.record_many(&recs);
        let bytes = buf.into_bytes();
        let back = read_columnar(&bytes).expect("decode own encoding");
        assert_eq!(back, recs, "binary round trip (consecutive={consecutive})");

        let jsonl = encode_jsonl(&recs);
        let via_json = stream::read_jsonl(&jsonl).expect("decode own JSONL");
        assert_eq!(via_json, back, "JSONL and binary decodes must agree");

        // And the format sniffer sends each encoding to the right decoder.
        assert_eq!(
            stream::read_trace_bytes(&bytes).expect("autodetect binary"),
            recs
        );
        assert_eq!(
            stream::read_trace_bytes(jsonl.as_bytes()).expect("autodetect JSONL"),
            recs
        );
    }
}

/// Tiny frames force the chunking edge cases: one record per frame, and a
/// chunk boundary landing between the extreme timestamp jumps (each frame
/// restarts the delta base and the dictionary).
#[test]
fn single_record_frames_round_trip() {
    let recs = extreme_records(false, u64::MAX);
    let mut buf = ColumnarBuf::with_chunk(1);
    buf.record_many(&recs);
    let back = read_columnar(&buf.into_bytes()).expect("decode 1-record frames");
    assert_eq!(back, recs);
}

fn capture_workload() -> (WaveNetwork, TrafficSource) {
    let topo = Topology::mesh(&[8, 8]);
    let net = WaveNetwork::new(
        topo.clone(),
        WaveConfig {
            seed: 99,
            ..WaveConfig::default()
        },
    );
    let src = TrafficSource::new(
        topo,
        TrafficConfig {
            load: 0.2,
            pattern: TrafficPattern::HotPairs {
                partners: 3,
                locality: 0.7,
            },
            len: LengthDist::Fixed(64),
            seed: 99,
            stop_at: u64::MAX,
        },
    );
    (net, src)
}

fn bin_sink(path: &std::path::Path, sample: u64) -> Box<dyn TraceSink> {
    let sink = ColumnarSink::create(path).expect("create bin");
    Box::new(sink.with_sampling(sample))
}

/// Runs [`capture_workload`] under `cap` and checks the streams flushed.
fn capture_run(mut cap: Capture) {
    let (mut net, mut src) = capture_workload();
    let spec = RunSpec::standard(400, 2_000);
    let r = run_open_loop_observed(&mut net, &mut src, spec, &mut cap);
    assert!(r.clean(), "{r:?}");
    let t = cap.into_trace().expect("captured");
    assert!(t.stream_error.is_none(), "{:?}", t.stream_error);
}

/// Streams one real 8x8 run to disk in both formats and checks the
/// tentpole's contract: the binary stream decodes to exactly the JSONL
/// stream's records (lossless) in at most a quarter of the bytes.
#[test]
fn real_run_binary_stream_is_lossless_and_compact() {
    let pid = std::process::id();
    let jpath = std::env::temp_dir().join(format!("wavesim_bt_lossless_{pid}.jsonl"));
    let bpath = std::env::temp_dir().join(format!("wavesim_bt_lossless_{pid}.wstrace"));
    capture_run(
        Capture::new(1 << 16)
            .tee(Box::new(JsonlSink::create(&jpath).expect("create jsonl")))
            .tee(bin_sink(&bpath, 1)),
    );
    let jbytes = std::fs::read(&jpath).expect("read jsonl");
    let bbytes = std::fs::read(&bpath).expect("read bin");
    let from_jsonl = stream::read_trace_bytes(&jbytes).expect("decode jsonl");
    let from_bin = stream::read_trace_bytes(&bbytes).expect("decode bin");
    assert!(!from_bin.is_empty());
    assert_eq!(from_bin, from_jsonl, "binary stream must be lossless");
    assert!(
        bbytes.len() * 4 <= jbytes.len(),
        "binary must be <= 25% of JSONL ({} vs {} bytes)",
        bbytes.len(),
        jbytes.len()
    );
    let _ = std::fs::remove_file(&jpath);
    let _ = std::fs::remove_file(&bpath);
}

/// Runs the same workload twice and requires the binary stream files to
/// be byte-identical, through the columnar encoder's lossless path and
/// its sampling path (whose keep-counter walks the deterministic record
/// order).
#[test]
fn binary_stream_is_byte_identical_on_rerun() {
    let pid = std::process::id();
    for sample in [1u64, 8] {
        let capture = |run: u32| {
            let path =
                std::env::temp_dir().join(format!("wavesim_bt_rerun_{pid}_{sample}_{run}.wstrace"));
            capture_run(Capture::new(1 << 16).tee(bin_sink(&path, sample)));
            let bytes = std::fs::read(&path).expect("read bin");
            let _ = std::fs::remove_file(&path);
            bytes
        };
        assert_eq!(
            capture(0),
            capture(1),
            "sample={sample}: a rerun changed the stream bytes"
        );
    }
}

/// Sampling keeps every lifecycle event and exactly the deterministic
/// 1-in-N spine of the bulk kinds — so a sampled stream is a strict,
/// reproducible subset of the lossless one.
#[test]
fn sampled_stream_is_deterministic_subset() {
    let pid = std::process::id();
    let full_path = std::env::temp_dir().join(format!("wavesim_bt_full_{pid}.wstrace"));
    let samp_path = std::env::temp_dir().join(format!("wavesim_bt_samp_{pid}.wstrace"));
    // Two identical deterministic runs, one lossless and one sampled: the
    // record streams match, so the sampled file must be a subset.
    for (path, sample) in [(&full_path, 1u64), (&samp_path, 8)] {
        capture_run(Capture::new(1 << 16).tee(bin_sink(path, sample)));
    }
    let full = read_columnar(&std::fs::read(&full_path).expect("read full")).expect("decode");
    let samp = read_columnar(&std::fs::read(&samp_path).expect("read samp")).expect("decode");
    let _ = std::fs::remove_file(&full_path);
    let _ = std::fs::remove_file(&samp_path);
    assert!(!samp.is_empty() && samp.len() < full.len());
    // Subset check: sampled records appear in the full stream in order.
    let mut it = full.iter();
    for rec in &samp {
        assert!(
            it.any(|f| f == rec),
            "sampled record missing from lossless stream: {rec:?}"
        );
    }
    // Lifecycle events all survive sampling.
    let lifecycle = |r: &&TraceRecord| !stream::is_bulk_kind(&r.ev);
    assert_eq!(
        samp.iter().filter(lifecycle).count(),
        full.iter().filter(lifecycle).count(),
        "sampling must keep every lifecycle event"
    );
}
