//! Flight-recorder capture of one run.
//!
//! The golden-hash determinism suite pins the `Debug` output of
//! [`crate::RunResult`], so tracing output cannot ride on the result
//! struct. Instead a [`Capture`] is a [`RunObserver`]: handed to a
//! `run_*` entry point it installs a fresh [`FlightRecorder`] into the
//! network for the duration of the run — teed into whatever other sinks
//! the caller supplied, typically lossless on-disk streams — and
//! afterwards owns the run's [`RunTrace`].
//!
//! When a run trips the deadlock monitor, the capture additionally holds a
//! post-mortem bundle: the recorder tail plus the wormhole fabric's
//! wait-for graph (and the circular wait inside it, if one exists) at the
//! stall cycle.

use wavesim_core::WaveNetwork;
use wavesim_json::Value;
use wavesim_sim::Cycle;
use wavesim_trace::postmortem::{self, StallContext};
use wavesim_trace::recorder::TeeSink;
use wavesim_trace::{FlightRecorder, TraceRecord, TraceSink};
use wavesim_verify::deadlock::find_wait_cycle;

use crate::{Drained, RunObserver};

/// One run's flight-recorder contents.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    /// Surviving records, oldest first.
    pub records: Vec<TraceRecord>,
    /// Records overwritten by ring wraparound.
    pub dropped: u64,
    /// Records emitted over the whole run.
    pub total: u64,
    /// Post-mortem bundle; present only when the run stalled.
    pub post_mortem: Option<Value>,
    /// Error from flushing a teed stream, if one occurred.
    pub stream_error: Option<String>,
}

/// Records one run into a flight-recorder ring (the post-mortem tail) and
/// into every teed sink (a [`wavesim_trace::JsonlSink`] or
/// [`wavesim_trace::ColumnarSink`] captures everything the ring drops).
pub struct Capture {
    ring: usize,
    tees: Vec<Box<dyn TraceSink>>,
    trace: Option<RunTrace>,
}

impl Capture {
    /// A capture into a ring of `ring` record slots.
    ///
    /// # Panics
    /// Panics if `ring` is zero (a flight recorder needs at least one
    /// slot).
    #[must_use]
    pub fn new(ring: usize) -> Self {
        assert!(ring > 0, "a flight recorder needs at least one slot");
        Self {
            ring,
            tees: Vec::new(),
            trace: None,
        }
    }

    /// Also feeds every record to `sink`, flushed when the run ends.
    #[must_use]
    pub fn tee(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.tees.push(sink);
        self
    }

    /// The finished run's trace (`None` before the run ends).
    #[must_use]
    pub fn into_trace(self) -> Option<RunTrace> {
        self.trace
    }
}

/// The flight-recorder tail plus the fabric's wait-for graph (and the
/// circular wait inside it, if any) at `now`.
pub(crate) fn stall_bundle(
    net: &WaveNetwork,
    now: Cycle,
    records: &[TraceRecord],
    dropped: u64,
    total: u64,
) -> Value {
    let fabric = net.fabric();
    let edges = fabric.wait_edges();
    let cycle = find_wait_cycle(&edges);
    let ctx = StallContext {
        edges: &edges,
        cycle: cycle.as_deref(),
        now,
        stall_age: fabric.progress_age(now),
        in_flight: fabric.in_flight_flits(),
    };
    postmortem::bundle(records, dropped, total, &ctx)
}

impl RunObserver for Capture {
    /// Installs the ring, which stays the query-answering primary through
    /// the nested tees.
    fn start(&mut self, net: &mut WaveNetwork) {
        let mut sink: Box<dyn TraceSink> = Box::new(FlightRecorder::new(self.ring));
        for tee in self.tees.drain(..) {
            sink = Box::new(TeeSink::new(sink, tee));
        }
        net.install_trace_sink(sink);
    }

    /// Removes the sink installed by `start`, snapshots it, and keeps the
    /// [`RunTrace`] — with a post-mortem bundle when the run stalled.
    fn finish(&mut self, net: &mut WaveNetwork, outcome: Drained) {
        let Some(mut sink) = net.take_trace_sink() else {
            return;
        };
        let stream_error = sink.finish().err();
        let records = sink.snapshot();
        let dropped = sink.dropped();
        let total = sink.total();
        let post_mortem = outcome
            .stalled
            .then(|| stall_bundle(net, outcome.end, &records, dropped, total));
        self.trace = Some(RunTrace {
            records,
            dropped,
            total,
            post_mortem,
            stream_error,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_open_loop, run_open_loop_observed, RunSpec};
    use wavesim_core::{WaveConfig, WaveNetwork};
    use wavesim_topology::Topology;
    use wavesim_trace::{ColumnarSink, JsonlSink};
    use wavesim_workloads::{LengthDist, TrafficConfig, TrafficSource};

    fn workload(load: f64, len: u32) -> (WaveNetwork, TrafficSource) {
        let net = WaveNetwork::new(Topology::mesh(&[4, 4]), WaveConfig::default());
        let src = TrafficSource::new(
            net.topology().clone(),
            TrafficConfig {
                load,
                len: LengthDist::Fixed(len),
                ..TrafficConfig::default()
            },
        );
        (net, src)
    }

    /// Every record of the stream file at `path`, either format.
    fn read_file(path: &std::path::Path) -> Vec<wavesim_trace::TraceRecord> {
        let file = std::fs::File::open(path).expect("stream file exists");
        wavesim_trace::read_trace(file).expect("stream file decodes")
    }

    /// One 4x4 run under `cap`; returns the result and the capture's trace.
    fn captured_run(mut cap: Capture, spec: RunSpec) -> (crate::RunResult, RunTrace) {
        let (mut net, mut src) = workload(0.1, 32);
        let r = run_open_loop_observed(&mut net, &mut src, spec, &mut cap);
        assert!(!net.tracing(), "the capture takes its sink back down");
        (r, cap.into_trace().expect("a finished run has a trace"))
    }

    #[test]
    fn capture_owns_the_trace_of_its_run() {
        let (r, t) = captured_run(Capture::new(1 << 16), RunSpec::standard(200, 1_000));
        assert!(r.clean(), "{r:?}");
        assert!(t.post_mortem.is_none());
        assert!(t.total > 0);
        assert_eq!(t.records.len() as u64 + t.dropped, t.total);
        // Seq numbers are gap-free over the surviving tail.
        for w in t.records.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
        }
    }

    #[test]
    fn tracing_does_not_change_the_schedule() {
        let spec = RunSpec::standard(200, 1_000);
        let (mut net, mut src) = workload(0.1, 32);
        let baseline = format!("{:?}", run_open_loop(&mut net, &mut src, spec));
        let (r, _) = captured_run(Capture::new(1 << 16), spec);
        assert_eq!(baseline, format!("{r:?}"));
    }

    #[test]
    fn jsonl_stream_tees_full_run_to_disk() {
        let path = std::env::temp_dir().join(format!(
            "wavesim_tracecap_stream_{}.jsonl",
            std::process::id()
        ));
        // Tiny ring: the stream must still be lossless.
        let cap = Capture::new(64).tee(Box::new(JsonlSink::create(&path).expect("create")));
        let (r, t) = captured_run(cap, RunSpec::standard(200, 1_000));
        assert!(r.clean(), "{r:?}");
        assert!(t.stream_error.is_none(), "{:?}", t.stream_error);
        assert!(t.dropped > 0, "the tiny ring must have wrapped");
        let streamed = read_file(&path);
        std::fs::remove_file(&path).ok();
        // The file holds every record the ring was offered, gap-free.
        assert_eq!(streamed.len() as u64, t.total);
        for w in streamed.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
        }
        // The ring tail is a suffix of the stream.
        let tail = &streamed[streamed.len() - t.records.len()..];
        assert_eq!(tail, &t.records[..]);
    }

    #[test]
    fn a_later_run_to_the_same_path_replaces_the_stream() {
        let path = std::env::temp_dir().join(format!(
            "wavesim_tracecap_per_run_{}.jsonl",
            std::process::id()
        ));
        let mut last_total = 0;
        for cycles in [400u64, 900] {
            let cap =
                Capture::new(1 << 16).tee(Box::new(JsonlSink::create(&path).expect("create")));
            let (r, t) = captured_run(cap, RunSpec::standard(100, cycles));
            assert!(r.clean(), "{r:?}");
            assert!(t.stream_error.is_none(), "{:?}", t.stream_error);
            last_total = t.total;
        }
        // The file was truncated per run, so it holds exactly the last one.
        let streamed = read_file(&path);
        std::fs::remove_file(&path).ok();
        assert_eq!(streamed.len() as u64, last_total);
        assert_eq!(streamed[0].seq, 0, "a fresh capture restarts at seq 0");
    }

    #[test]
    fn bin_stream_matches_jsonl_stream_exactly() {
        let pid = std::process::id();
        let jpath = std::env::temp_dir().join(format!("wavesim_tracecap_bj_{pid}.jsonl"));
        let bpath = std::env::temp_dir().join(format!("wavesim_tracecap_bj_{pid}.wstrace"));
        let cap = Capture::new(1 << 16)
            .tee(Box::new(JsonlSink::create(&jpath).expect("create jsonl")))
            .tee(Box::new(ColumnarSink::create(&bpath).expect("create bin")));
        let (r, t) = captured_run(cap, RunSpec::standard(200, 1_000));
        assert!(r.clean(), "{r:?}");
        assert!(t.stream_error.is_none(), "{:?}", t.stream_error);
        let jsonl = read_file(&jpath);
        let bin = read_file(&bpath);
        let jsonl_bytes = std::fs::metadata(&jpath).expect("stat").len();
        let bin_bytes = std::fs::metadata(&bpath).expect("stat").len();
        std::fs::remove_file(&jpath).ok();
        std::fs::remove_file(&bpath).ok();
        assert!(!bin.is_empty());
        assert_eq!(bin, jsonl, "both formats capture the identical stream");
        assert!(
            bin_bytes * 4 <= jsonl_bytes,
            "binary must be at most a quarter of JSONL ({bin_bytes} vs {jsonl_bytes})"
        );
    }
}
