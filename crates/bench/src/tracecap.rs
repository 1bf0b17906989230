//! Trace capture of one run.
//!
//! The golden-hash determinism suite pins the `Debug` output of
//! [`crate::RunResult`], so tracing output cannot ride on the result
//! struct. Instead a [`Capture`] is a [`RunObserver`]: handed to a
//! `run_*` entry point it installs its sinks into the network for the
//! duration of the run — typically a lossless on-disk stream, and a
//! [`FlightRecorder`] ring only when something will read the ring's tail
//! (the watchdog's post-mortem) — and afterwards owns the run's
//! [`RunTrace`].

use wavesim_core::WaveNetwork;
use wavesim_trace::recorder::TeeSink;
use wavesim_trace::{FlightRecorder, TraceRecord, TraceSink};

use crate::{Drained, RunObserver};

/// One run's capture.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    /// The ring's surviving records, oldest first (empty without a ring).
    pub records: Vec<TraceRecord>,
    /// Records the ring overwrote (without a ring, records the first
    /// stream lost).
    pub dropped: u64,
    /// Records emitted over the whole run.
    pub total: u64,
    /// Error from flushing a teed stream, if one occurred.
    pub stream_error: Option<String>,
}

/// Records one run into an optional flight-recorder ring and into every
/// teed sink (a [`wavesim_trace::ColumnarSink`] captures everything).
pub struct Capture {
    ring: Option<usize>,
    tees: Vec<Box<dyn TraceSink>>,
    installed: bool,
    trace: Option<RunTrace>,
}

impl Capture {
    /// A capture into a ring of `ring` record slots, or into its tees
    /// alone when `ring` is `None`.
    ///
    /// # Panics
    /// Panics if `ring` is `Some(0)` (a flight recorder needs at least one
    /// slot).
    #[must_use]
    pub fn new(ring: Option<usize>) -> Self {
        assert!(ring != Some(0), "a flight recorder needs at least one slot");
        Self {
            ring,
            tees: Vec::new(),
            installed: false,
            trace: None,
        }
    }

    /// Also feeds every record to `sink`, flushed when the run ends.
    #[must_use]
    pub fn tee(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.tees.push(sink);
        self
    }

    /// The finished run's trace (`None` before the run ends, or when the
    /// capture had nothing to install).
    #[must_use]
    pub fn into_trace(self) -> Option<RunTrace> {
        self.trace
    }
}

impl RunObserver for Capture {
    /// Installs the ring, if any, then every tee; the first of them stays
    /// the query-answering primary through the nested tees.
    fn start(&mut self, net: &mut WaveNetwork) {
        let ring = self
            .ring
            .map(|n| Box::new(FlightRecorder::new(n)) as Box<dyn TraceSink>);
        let mut sinks = ring.into_iter().chain(self.tees.drain(..));
        let Some(first) = sinks.next() else {
            return;
        };
        let sink = sinks.fold(first, |sink, tee| Box::new(TeeSink::new(sink, tee)));
        net.install_trace_sink(sink);
        self.installed = true;
    }

    /// Removes the sink installed by `start`, snapshots it, and keeps the
    /// [`RunTrace`].
    fn finish(&mut self, net: &mut WaveNetwork, _outcome: Drained) {
        if !self.installed {
            return;
        }
        let Some(mut sink) = net.take_trace_sink() else {
            return;
        };
        let stream_error = sink.finish().err();
        self.trace = Some(RunTrace {
            records: sink.snapshot(),
            dropped: sink.dropped(),
            total: sink.total(),
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
    use wavesim_trace::ColumnarSink;
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

    /// Every record of the stream file at `path`.
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
        let (r, t) = captured_run(Capture::new(Some(1 << 16)), RunSpec::standard(200, 1_000));
        assert!(r.clean(), "{r:?}");
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
        let (r, _) = captured_run(Capture::new(Some(1 << 16)), spec);
        assert_eq!(baseline, format!("{r:?}"));
    }

    #[test]
    fn stream_tees_full_run_to_disk() {
        let path = std::env::temp_dir().join(format!(
            "wavesim_tracecap_stream_{}.wstrace",
            std::process::id()
        ));
        // Tiny ring: the stream must still be lossless.
        let cap =
            Capture::new(Some(64)).tee(Box::new(ColumnarSink::create(&path).expect("create")));
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
            "wavesim_tracecap_per_run_{}.wstrace",
            std::process::id()
        ));
        let mut last_total = 0;
        for cycles in [400u64, 900] {
            let cap =
                Capture::new(None).tee(Box::new(ColumnarSink::create(&path).expect("create")));
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
}
