//! `analyze_trace`: a captured WSTRACE1 buffer streamed through decode,
//! the live analytics fold, report rendering and JSONL re-encode. Only the
//! `trace`, `analyze` and `json` crates run in the timed phase; simulating
//! the capture is the set-up, so a capture regression shows in `setup_s`.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use wavesim_analyze::{analyze, report, AnalyzeOptions, LiveAnalytics};
use wavesim_bench::{run_open_loop, RunResult, RunSpec};
use wavesim_json::Value;
use wavesim_trace::columnar::{FrameEncoder, FrameStream, MAGIC};
use wavesim_trace::stream::{encode_record, ChunkEncoder};
use wavesim_trace::{read_columnar, ColumnarSink, TraceRecord};

use super::sim::Sim;
use super::{fnv1a, Check, Ledger, Outcome, Workload, FNV_OFFSET};
use crate::spans::{Off, Probe, Tracer};

pub struct AnalyzeTrace {
    /// The simulation whose trace is analysed: `capture_clrp`'s.
    source: Sim,
    /// Passes over the buffer in one timed phase.
    passes: u32,
}

impl AnalyzeTrace {
    pub fn new(smoke: bool) -> Self {
        AnalyzeTrace {
            source: Sim::capture_clrp(smoke, None),
            passes: 3,
        }
    }
}

/// A `Write` the capture's writer thread fills and the benchmark reads
/// back: `take_trace_sink` returns a `Box<dyn TraceSink>`, which cannot
/// give its writer back.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("the writer thread never panics holding the buffer")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

pub struct Capture {
    /// The WSTRACE1 stream, magic included.
    bytes: Vec<u8>,
    /// Records the sink accepted.
    records: u64,
    result: RunResult,
    audit: Vec<String>,
}

/// One pass: text report, JSON document, records folded, JSONL bytes out.
#[derive(Default)]
pub struct Pass {
    report: String,
    json: String,
    folded: u64,
    jsonl_bytes: u64,
}

pub struct Analyzed {
    capture: Capture,
    /// The passes, or why the capture did not decode.
    passes: Result<Vec<Pass>, String>,
}

/// Stream-decodes `bytes` frame by frame into the analytics fold and the
/// JSONL encoder, then renders: memory stays bounded by one frame plus the
/// fold's entities, never the capture.
fn pipeline<P: Probe>(bytes: &[u8], probe: &mut P) -> Result<Pass, String> {
    let body = bytes
        .strip_prefix(&MAGIC[..])
        .ok_or("capture does not start with the WSTRACE1 magic")?;
    let mut frames = FrameStream::new(body);
    let mut live = LiveAnalytics::new(AnalyzeOptions::default());
    let mut frame: Vec<TraceRecord> = Vec::new();
    let mut lines = String::new();
    let mut out = std::io::sink();
    let mut jsonl_bytes = 0u64;
    while probe.span("trace.decode", |_| frames.next_frame(&mut frame))? {
        probe.span("analyze.fold", |_| live.fold_many(&frame));
        probe
            .span("trace.encode_jsonl", |_| {
                lines.clear();
                for rec in &frame {
                    encode_record(&mut lines, rec);
                    lines.push('\n');
                }
                jsonl_bytes += lines.len() as u64;
                out.write_all(lines.as_bytes())
            })
            .map_err(|e| format!("jsonl write: {e}"))?;
    }
    let folded = live.records();
    let analysis = probe.span("analyze.finish", |_| live.finish());
    let (report, json) = probe.span("analyze.render", |probe| {
        let text = report::render(&analysis);
        let doc = report::to_json(&analysis);
        (text, probe.span("json.pretty", |_| doc.pretty()))
    });
    Ok(Pass {
        report,
        json,
        folded,
        jsonl_bytes,
    })
}

/// Decodes `bytes` frame by frame and re-encodes every frame. Returns the
/// re-encoded stream and the seconds spent encoding.
fn reencode(bytes: &[u8]) -> Result<(Vec<u8>, f64), String> {
    let body = bytes
        .strip_prefix(&MAGIC[..])
        .ok_or("capture does not start with the WSTRACE1 magic")?;
    let mut frames = FrameStream::new(body);
    let mut encoder = FrameEncoder::new();
    let mut again = Vec::with_capacity(bytes.len());
    encoder.header(&mut again);
    let mut frame = Vec::new();
    let mut encode_s = 0.0;
    while frames.next_frame(&mut frame)? {
        let t = Instant::now();
        encoder.encode_frame(&frame, &mut again);
        encode_s += t.elapsed().as_secs_f64();
    }
    Ok((again, encode_s))
}

/// A WSTRACE1 capture must decode and re-encode to its own bytes.
pub fn reencode_check(bytes: &[u8]) -> Check {
    let again = reencode(bytes);
    Check::new(
        "capture decodes and re-encodes to the same bytes",
        again.as_ref().is_ok_and(|(b, _)| b == bytes),
        || match again {
            Ok((b, _)) => format!("{} bytes in, {} bytes out", bytes.len(), b.len()),
            Err(e) => e,
        },
    )
}

impl Workload for AnalyzeTrace {
    type Input = Capture;
    type Done = Analyzed;
    const OWN_DRIVER: bool = false;
    const SEEDED: bool = true;

    fn setup<P: Probe>(&self, seed: u64, probe: &mut P) -> Capture {
        let (mut net, mut src) = self.source.build(seed, probe);
        let buf = SharedBuf::default();
        net.install_trace_sink(Box::new(ColumnarSink::new(buf.clone())));
        let measure = self.source.measure;
        let result = run_open_loop(&mut net, &mut src, RunSpec::standard(measure / 8, measure));
        let mut sink = net.take_trace_sink().expect("sink installed above");
        sink.finish().expect("in-memory capture cannot fail");
        let bytes = std::mem::take(&mut *buf.0.lock().expect("writer thread has ended"));
        Capture {
            bytes,
            records: sink.total(),
            audit: net.audit(),
            result,
        }
    }

    fn run(&self, capture: Capture) -> Analyzed {
        self.run_probed(capture, &mut Off)
    }

    fn run_probed<P: Probe>(&self, capture: Capture, probe: &mut P) -> Analyzed {
        let passes = (0..self.passes)
            .map(|_| pipeline(&capture.bytes, probe))
            .collect();
        Analyzed { capture, passes }
    }

    fn layers(&self, done: &Analyzed, tracer: &Tracer, l: &mut Ledger) {
        let records = (done.capture.records * u64::from(self.passes)) as f64;
        l.push("trace.records", done.capture.records as f64);
        l.push_ratio(
            "trace.bytes_per_record",
            done.capture.bytes.len() as f64,
            done.capture.records as f64,
        );
        for (metric, span) in [
            ("trace.decode_ns_per_record", "trace.decode"),
            ("trace.encode_jsonl_ns_per_record", "trace.encode_jsonl"),
            ("analyze.fold_ns_per_record", "analyze.fold"),
        ] {
            l.push_ratio(metric, tracer.total_s(span) * 1e9, records);
        }
    }

    fn check(&self, done: Analyzed) -> Outcome {
        let Analyzed { capture, passes } = done;
        let r = &capture.result;
        let mut checks = vec![
            Check::new("captured run is clean", r.clean(), || format!("{r:?}")),
            Check::new("audit is empty", capture.audit.is_empty(), || {
                capture.audit.join("; ")
            }),
            Check::new("capture decodes", passes.is_ok(), || {
                passes.as_ref().err().cloned().unwrap_or_default()
            }),
        ];
        let passes = passes.unwrap_or_default();
        let empty = Pass::default();
        let first = passes.first().unwrap_or(&empty);
        checks.push(Check::new(
            "every pass gives the same report",
            passes
                .iter()
                .all(|p| p.report == first.report && p.json == first.json),
            || "reports differ between passes over one buffer".into(),
        ));
        checks.push(Check::new(
            "report and JSONL are not empty",
            !first.report.is_empty() && first.jsonl_bytes > 0,
            || format!("{} report bytes", first.report.len()),
        ));
        let read = capture.records * u64::from(self.passes);
        let folded: u64 = passes.iter().map(|p| p.folded).sum();
        let mut fingerprint = fnv1a(FNV_OFFSET, format!("{r:?}").as_bytes());
        fingerprint = fnv1a(fingerprint, first.report.as_bytes());
        fingerprint = fnv1a(fingerprint, first.json.as_bytes());
        Outcome {
            fingerprint,
            attempted: read,
            failed: read.abs_diff(folded),
            checks,
            sim_cycles: None,
            records: Some(read),
            sim_latency_cycles: None,
            sim_accepted_load: None,
        }
    }

    fn standalone(&self, seed: u64, l: &mut Ledger) -> Vec<Check> {
        let capture = self.setup(seed, &mut Off);
        if let Ok((_, encode_s)) = reencode(&capture.bytes) {
            l.push("trace.reencode_bin_s", encode_s);
        }
        let json = pipeline(&capture.bytes, &mut Off).map_or_else(|e| e, |p| p.json);
        let t = Instant::now();
        let parsed = Value::parse(&json);
        l.push("json.parse_s", t.elapsed().as_secs_f64());
        vec![Check::new(
            "analysis JSON survives a parse and print round trip",
            parsed.as_ref().is_ok_and(|v| v.pretty() == json),
            || format!("{:?}", parsed.map(|_| "printed differently")),
        )]
    }

    fn final_checks(&self, seed: u64) -> Vec<Check> {
        // The offline path materialises every record, so it runs last,
        // after the streaming path's peak memory has been read.
        let capture = self.setup(seed, &mut Off);
        let streamed = pipeline(&capture.bytes, &mut Off);
        let offline = read_columnar(&capture.bytes).map(|records| {
            let a = analyze(&records, AnalyzeOptions::default());
            (report::render(&a), report::to_json(&a).pretty())
        });
        vec![
            Check::new(
                "streamed report equals the offline analyze() report",
                matches!((&offline, &streamed), (Ok((text, json)), Ok(pass))
                    if *text == pass.report && *json == pass.json),
                || format!("{:?}", offline.and(streamed.map(|_| "reports differ"))),
            ),
            reencode_check(&capture.bytes),
        ]
    }
}
