//! The binary columnar trace format, end to end: a property round-trip
//! of every event kind through encode/decode (including extreme cycle
//! deltas and maximal ids), exact agreement with the JSONL codec over
//! the same records, byte-identity across reruns, and the
//! compression floor the format is shipped for.

use wavesim::core::{WaveConfig, WaveNetwork};
use wavesim::topology::Topology;
use wavesim::trace::stream::{ColumnarFile, Listener};
use wavesim::trace::{columnar, stream};
use wavesim::trace::{every_event, read_columnar, read_trace, TraceRecord};
use wavesim::workloads::{LengthDist, TrafficConfig, TrafficPattern, TrafficSource};
use wavesim_bench::tracecap::{Capture, RunTrace};
use wavesim_bench::{run_open_loop_observed, RunSpec};

/// The largest integer the JSONL codec can carry exactly (its number
/// layer is f64); the binary codec carries full `u64`, so tests that
/// compare the two formats cap `u64` fields here while binary-only tests
/// use `u64::MAX`.
const MAX_JSONL: u64 = 1 << 53;

/// Timestamps chosen to exercise the zigzag delta codec at its extremes:
/// forward jumps of `big`, backward jumps of the same magnitude, and
/// zero-width deltas, cycled over the event list.
fn extreme_records(consecutive_seq: bool, big: u64) -> Vec<TraceRecord> {
    let cycles = [0u64, big, 0, 1, big - 1, big, 12_345, 12_345];
    let events = every_event(big);
    // Huge gaps, scaled so the last stamp stays under `big`.
    let gap = big / events.len() as u64 + 1;
    events
        .into_iter()
        .enumerate()
        .map(|(i, ev)| TraceRecord {
            at: cycles[i % cycles.len()],
            seq: i as u64 * if consecutive_seq { 1 } else { gap },
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
    let round_trip = |recs: &[TraceRecord], what: &str| {
        let bytes = columnar::encode(recs, stream::CHUNK_RECORDS);
        let back = read_columnar(&bytes).expect("decode own encoding");
        assert_eq!(back, recs, "binary round trip ({what})");
    };
    round_trip(&extreme_records(true, u64::MAX), "consecutive seqs");
    round_trip(&extreme_records(false, u64::MAX), "gapped seqs");
    // `u64::MAX, 0` is consecutive to the encoder (no seq column), so the
    // decoder's implicit count has to wrap the same way.
    let mut wrapping = extreme_records(true, u64::MAX);
    for (i, rec) in wrapping.iter_mut().enumerate() {
        rec.seq = (i as u64).wrapping_sub(1);
    }
    round_trip(&wrapping, "seqs wrapping past u64::MAX");
}

/// Every variant, with every id field at the edge of the JSONL-exact
/// domain (`2^53`, its number layer being f64), survives the binary
/// encode/decode round trip exactly — and agrees record-for-record with
/// the JSONL codec applied to the same buffer.
#[test]
fn every_variant_round_trips_binary_and_matches_jsonl() {
    for consecutive in [true, false] {
        let recs = extreme_records(consecutive, MAX_JSONL);
        let bytes = columnar::encode(&recs, stream::CHUNK_RECORDS);
        let back = read_columnar(&bytes).expect("decode own encoding");
        assert_eq!(back, recs, "binary round trip (consecutive={consecutive})");

        let jsonl = encode_jsonl(&recs);
        let via_json = stream::read_jsonl(&jsonl).expect("decode own JSONL");
        assert_eq!(via_json, back, "JSONL and binary decodes must agree");

        // And the format sniffer sends each encoding to the right decoder.
        assert_eq!(read_trace(&bytes[..]).expect("autodetect binary"), recs);
        assert_eq!(
            read_trace(jsonl.as_bytes()).expect("autodetect JSONL"),
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
    let back = read_columnar(&columnar::encode(&recs, 1)).expect("decode 1-record frames");
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

fn bin_file(path: &std::path::Path, sample: u64) -> Box<dyn Listener> {
    let file = ColumnarFile::create(path).expect("create bin");
    Box::new(file.with_sampling(sample))
}

/// Runs [`capture_workload`] under `cap`, checks the streams flushed and
/// returns the capture's trace.
fn capture_run(mut cap: Capture) -> RunTrace {
    let (mut net, mut src) = capture_workload();
    let spec = RunSpec::standard(400, 2_000);
    let r = run_open_loop_observed(&mut net, &mut src, spec, &mut cap);
    assert!(r.clean(), "{r:?}");
    let t = cap.into_trace().expect("captured");
    assert!(t.stream_error.is_none(), "{:?}", t.stream_error);
    t
}

/// Streams one real 8x8 run to disk and checks the format's contract: the
/// binary stream decodes to exactly the records the run emitted
/// (lossless) in at most a quarter of the bytes of their JSONL view.
#[test]
fn real_run_binary_stream_is_lossless_and_compact() {
    let pid = std::process::id();
    let bpath = std::env::temp_dir().join(format!("wavesim_bt_lossless_{pid}.wstrace"));
    // A ring that holds the whole run is the reference record list.
    let t = capture_run(Capture::new(Some(1 << 20)).listen(bin_file(&bpath, 1)));
    assert_eq!(t.dropped, 0, "the ring must hold the whole run");
    let bbytes = std::fs::read(&bpath).expect("read bin");
    let from_bin = read_trace(&bbytes[..]).expect("decode bin");
    assert!(!from_bin.is_empty());
    assert_eq!(from_bin, t.records, "binary stream must be lossless");
    let jsonl = encode_jsonl(&from_bin);
    assert!(
        bbytes.len() * 4 <= jsonl.len(),
        "binary must be <= 25% of JSONL ({} vs {} bytes)",
        bbytes.len(),
        jsonl.len()
    );
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
            capture_run(Capture::new(None).listen(bin_file(&path, sample)));
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
        capture_run(Capture::new(None).listen(bin_file(path, sample)));
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

/// The JSONL golden: one line per record exactly as `encode_record` must
/// write it — every kind, all three planes, both polarities of every
/// flag, ids seen more than once (one dictionary slot, several uses), a
/// `seq` gap in the second frame (the explicit-seq column) and a cycle
/// stamp that jumps to 2^53 and back. Recorded on the hand-written codecs
/// that preceded `trace::schema`; the table must reproduce it byte for
/// byte.
const WIRE_JSONL: &str = r#"{"at":0,"seq":0,"type":"plane_tick","plane":"wormhole plane"}
{"at":0,"seq":1,"type":"plane_tick","plane":"control plane"}
{"at":0,"seq":2,"type":"plane_tick","plane":"circuit plane"}
{"at":1,"seq":3,"type":"cache_miss","node":3,"dest":12}
{"at":1,"seq":4,"type":"probe_launch","circuit":9007199254740992,"src":3,"dest":12,"switch":255,"force":false}
{"at":2,"seq":5,"type":"probe_hop","circuit":9007199254740992,"probe":4,"node":7,"link":4294967295,"misroute":false}
{"at":3,"seq":6,"type":"probe_hop","circuit":9007199254740992,"probe":4,"node":11,"link":22,"misroute":true}
{"at":4,"seq":7,"type":"probe_backtrack","circuit":9007199254740992,"probe":4,"node":7}
{"at":5,"seq":8,"type":"probe_exhausted","circuit":9007199254740992,"src":3,"switch":255,"force":false}
{"at":5,"seq":9,"type":"probe_launch","circuit":9007199254740992,"src":3,"dest":12,"switch":1,"force":true}
{"at":6,"seq":10,"type":"probe_park","circuit":9007199254740992,"probe":5,"node":7,"victim":2}
{"at":7,"seq":11,"type":"forced_release","circuit":2,"src":0}
{"at":9,"seq":12,"type":"circuit_released","circuit":2}
{"at":10,"seq":13,"type":"probe_reached","circuit":9007199254740992,"probe":5,"dest":12,"steps":11}
{"at":14,"seq":14,"type":"circuit_established","circuit":9007199254740992,"src":3,"dest":12,"hops":5}
{"at":14,"seq":15,"type":"transfer_start","circuit":9007199254740992,"msg":77,"src":3,"dest":12,"len_flits":32}
{"at":46,"seq":16,"type":"circuit_deliver","msg":77,"src":3,"dest":12,"latency":90}
{"at":47,"seq":17,"type":"cache_hit","node":3,"dest":12,"circuit":9007199254740992}
{"at":48,"seq":40,"type":"cache_evict","node":3,"victim_dest":8,"circuit":5}
{"at":48,"seq":41,"type":"wormhole_inject","msg":78,"src":4294967295,"dest":0,"len_flits":4294967295}
{"at":9007199254740992,"seq":42,"type":"wormhole_deliver","msg":78,"src":4294967295,"dest":0,"latency":9007199254740992}
{"at":50,"seq":43,"type":"lane_fault","link":21,"switch":2}
{"at":50,"seq":44,"type":"circuit_broken","circuit":9007199254740992,"src":3,"dest":12}
{"at":60,"seq":45,"type":"establish_retry","circuit":10,"src":3,"dest":12,"attempt":255}
{"at":61,"seq":46,"type":"probe_exhausted","circuit":10,"src":3,"switch":2,"force":true}
{"at":61,"seq":47,"type":"circuit_abandoned","circuit":10}
{"at":70,"seq":48,"type":"lane_repair","link":21,"switch":2}
{"at":99,"seq":49,"type":"watchdog_trip","rule":3,"value":5000,"limit":4096}
"#;

/// The WSTRACE1 golden: [`WIRE_JSONL`]'s records in frames of 16 (the
/// first frame's `seq`s are consecutive, the second's are not), as hex.
const WIRE_BIN_HEX: &str = concat!(
    "5753545241434531100000000580808080808080100405024d100001020e0304",
    "44050843060c0a070910100000000200020202020002020402080032030c0003",
    "0cff01000107ffffffff0f00010b160001070003ff0100030c01000207030300",
    "0300020c0b00030c050004030c200c012e10054d8080808080808010054e0a0c",
    "130d0f1112141617480b15181a00020200a0ffffffffffff1f9bffffffffffff",
    "1f00140200123a0c00022e0202020202020202023a00030c5a030c0103080203",
    "ffffffff0f00ffffffff0f03ffffffff0f008080808080808010150201030c04",
    "030cff010403020415020388278020",
);

/// Both wire formats against committed constants. Every other codec test
/// compares the encoders with each other or with a rerun; this one is
/// what notices when both move together.
#[test]
fn wire_bytes_match_committed_goldens() {
    let recs = stream::read_jsonl(WIRE_JSONL).expect("golden text decodes");
    assert_eq!(encode_jsonl(&recs), WIRE_JSONL, "JSONL bytes drifted");
    let hex: String = columnar::encode(&recs, 16)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(hex, WIRE_BIN_HEX, "WSTRACE1 bytes drifted");
    // A variant added to the table needs a line in the golden too.
    for ev in every_event(1) {
        let kind = ev.kind();
        assert!(
            recs.iter().any(|r| r.ev.kind() == kind),
            "WIRE_JSONL has no `{kind}` record"
        );
    }
}
