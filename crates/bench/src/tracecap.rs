//! Trace capture of one run.
//!
//! The golden-hash determinism suite pins the `Debug` output of
//! [`crate::RunResult`], so tracing output cannot ride on the result
//! struct. Instead a [`Capture`] is a [`RunObserver`]: handed to a
//! `run_*` entry point it installs one [`StreamSink`] into the network
//! for the duration of the run — read by the on-disk file and the run's
//! folds — and afterwards owns the run's [`RunTrace`] and hands the
//! listeners back. The post-mortem's tail is not the capture's: the
//! watchdog keeps it on the network ([`crate::watchdog`]).

use wavesim_core::WaveNetwork;
use wavesim_trace::stream::{take_listener, Listener, StreamSink, CHUNK_RECORDS};

use crate::{Drained, RunObserver};

/// One run's capture.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    /// Records emitted over the whole run.
    pub total: u64,
    /// Error from finishing the stream, if one occurred.
    pub stream_error: Option<String>,
}

/// Records one run into one stream that every listener reads.
#[derive(Default)]
pub struct Capture {
    /// The listeners to arm before the run, and the ones handed back after.
    listeners: Vec<Box<dyn Listener>>,
    installed: bool,
    trace: Option<RunTrace>,
}

impl Capture {
    /// A capture with no listener yet: it installs nothing until one is
    /// added with [`Self::listen`].
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Also hands every record to `listener`, closed when the run ends.
    #[must_use]
    pub fn listen(mut self, listener: Box<dyn Listener>) -> Self {
        self.listeners.push(listener);
        self
    }

    /// Takes back the finished run's listener of type `L` (`None` before
    /// the run ends, or when there is none).
    pub fn listener<L: Listener>(&mut self) -> Option<L> {
        take_listener(&mut self.listeners)
    }

    /// The finished run's trace (`None` before the run ends, or when the
    /// capture had no listener).
    #[must_use]
    pub fn into_trace(self) -> Option<RunTrace> {
        self.trace
    }
}

impl RunObserver for Capture {
    /// Installs the stream, if anything listens.
    fn start(&mut self, net: &mut WaveNetwork) {
        if self.listeners.is_empty() {
            return;
        }
        let listeners = std::mem::take(&mut self.listeners);
        net.install_trace_sink(Box::new(StreamSink::listening(listeners, CHUNK_RECORDS)));
        self.installed = true;
    }

    /// Removes the stream installed by `start`, finishes it, keeps the
    /// [`RunTrace`] and takes the listeners back.
    fn finish(&mut self, net: &mut WaveNetwork, _outcome: Drained) {
        if !self.installed {
            return;
        }
        let Some(mut sink) = net.take_trace_sink() else {
            return;
        };
        let stream_error = sink.finish().err();
        self.trace = Some(RunTrace {
            total: sink.total(),
            stream_error,
        });
        self.listeners = sink.listeners();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_open_loop, run_open_loop_observed, RunSpec};
    use wavesim_core::{WaveConfig, WaveNetwork};
    use wavesim_topology::Topology;
    use wavesim_trace::stream::ColumnarFile;
    use wavesim_trace::{FlightRecorder, TraceRecord, VecSink};
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

    /// One 4x4 run under `cap`, keeping a `tail`-record tail on the
    /// network when asked; returns the result, the finished capture and
    /// the tail.
    fn captured_run(
        mut cap: Capture,
        spec: RunSpec,
        tail: Option<usize>,
    ) -> (crate::RunResult, Capture, Option<FlightRecorder>) {
        let (mut net, mut src) = workload(0.1, 32);
        if let Some(n) = tail {
            net.keep_trace_tail(n);
        }
        let r = run_open_loop_observed(&mut net, &mut src, spec, &mut cap);
        let tail = net.release_trace_tail();
        assert!(!net.tracing(), "the capture takes its sink back down");
        (r, cap, tail)
    }

    /// A capture whose one listener collects every record.
    fn collecting() -> Capture {
        Capture::new().listen(Box::new(VecSink::new()))
    }

    /// The records the finished capture's [`VecSink`] collected.
    fn collected(cap: &mut Capture) -> Vec<TraceRecord> {
        cap.listener::<VecSink>().expect("collected").into_records()
    }

    #[test]
    fn capture_owns_the_trace_of_its_run() {
        let (r, mut cap, _) = captured_run(collecting(), RunSpec::standard(200, 1_000), None);
        assert!(r.clean(), "{r:?}");
        let records = collected(&mut cap);
        let t = cap.into_trace().expect("a finished run has a trace");
        assert!(t.total > 0);
        assert_eq!(records.len() as u64, t.total);
        // Seq numbers are gap-free over the whole run.
        for w in records.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
        }
    }

    #[test]
    fn tracing_does_not_change_the_schedule() {
        let spec = RunSpec::standard(200, 1_000);
        let (mut net, mut src) = workload(0.1, 32);
        let baseline = format!("{:?}", run_open_loop(&mut net, &mut src, spec));
        let (r, _, _) = captured_run(collecting(), spec, None);
        assert_eq!(baseline, format!("{r:?}"));
        let (r, _, _) = captured_run(Capture::new(), spec, Some(64));
        assert_eq!(baseline, format!("{r:?}"), "nor does keeping a tail");
    }

    #[test]
    fn stream_tees_full_run_to_disk() {
        let path = std::env::temp_dir().join(format!(
            "wavesim_tracecap_stream_{}.wstrace",
            std::process::id()
        ));
        // Tiny tail: the stream must still be lossless.
        let cap = Capture::new().listen(Box::new(ColumnarFile::create(&path).expect("create")));
        let (r, cap, tail) = captured_run(cap, RunSpec::standard(200, 1_000), Some(64));
        let t = cap.into_trace().expect("a finished run has a trace");
        let tail = tail.expect("kept");
        assert!(r.clean(), "{r:?}");
        assert!(t.stream_error.is_none(), "{:?}", t.stream_error);
        assert!(tail.dropped() > 0, "the tiny tail must have wrapped");
        assert_eq!(tail.total(), t.total, "tail and stream saw one run");
        let streamed = read_file(&path);
        std::fs::remove_file(&path).ok();
        // The file holds every record the tail was offered, gap-free.
        assert_eq!(streamed.len() as u64, t.total);
        for w in streamed.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
        }
        // The tail is a suffix of the stream.
        assert_eq!(streamed[streamed.len() - tail.len()..], tail.snapshot());
    }

    #[test]
    fn a_later_run_to_the_same_path_replaces_the_stream() {
        let path = std::env::temp_dir().join(format!(
            "wavesim_tracecap_per_run_{}.wstrace",
            std::process::id()
        ));
        let mut last_total = 0;
        for cycles in [400u64, 900] {
            let cap = Capture::new().listen(Box::new(ColumnarFile::create(&path).expect("create")));
            let (r, cap, _) = captured_run(cap, RunSpec::standard(100, cycles), None);
            let t = cap.into_trace().expect("a finished run has a trace");
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
