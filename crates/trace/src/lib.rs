//! # wavesim-trace — the flight-recorder observability subsystem
//!
//! A fast simulator is only as debuggable as its event record: when a CLRP
//! probe backtracks forever or the wormhole plane freezes, the interesting
//! part is the *order of events leading into the stall*, which counters
//! cannot reconstruct. This crate provides always-on, low-overhead
//! structured tracing for the whole workspace:
//!
//! * [`TraceEvent`] / [`TraceRecord`] — a typed, `Copy` vocabulary of
//!   everything the wave router does: probe lifecycles (launch → hop →
//!   backtrack → park → establish/abort), circuit-cache hits and
//!   evictions, wormhole packet injection→delivery spans, circuit
//!   transfers, and per-plane tick boundaries. The vocabulary is declared
//!   once, as the table in `schema.rs`, which expands to the enum and to
//!   both directions of both file formats;
//! * [`StreamSink`] — the one sink a network streams to: chunks of
//!   records read on a writer thread by every [`stream::Listener`] the
//!   run armed (the `WSTRACE1` file, the analytics folds, or a
//!   [`recorder::VecSink`] that keeps everything, for tests and goldens);
//!   with no sink installed and no tail kept, tracing costs one branch
//!   per emit point;
//! * [`TraceHub`] — the one emit path: a network owns one hub, every
//!   fact its planes note reaches it the moment it is noted (one branch
//!   when nothing takes records), and it stamps a global sequence number
//!   and hands the record straight to the installed sink and to the kept
//!   tail, a [`recorder::FlightRecorder`] (fixed-capacity ring,
//!   allocation-free in steady state) that holds the last N records for
//!   the watchdog's post-mortem;
//! * [`stream`] / [`columnar`] — lossless capture to `WSTRACE1` frames on
//!   a writer thread, and the one decoder of `WSTRACE1` and of the JSONL
//!   view `convert-trace` writes, [`stream::StreamingReader`] over any
//!   `io::Read` ([`read_trace`], [`stream::read_jsonl`] and
//!   [`read_columnar`] drain it into a vector);
//! * [`perfetto`] — Chrome/Perfetto `trace_event` JSON export (one track
//!   per router and plane) plus a serde-less validator;
//! * [`metrics`] — Prometheus-style text exposition built on the
//!   `wavesim-sim` instruments;
//! * [`postmortem`] — the stall watchdog's dump format: last-N recorder
//!   entries plus the wait-for graph, bundled as one JSON document.
//!
//! The crate deliberately depends only on `wavesim-sim` (for [`Cycle`]
//! and the histogram) and `wavesim-json`: identifiers cross the API as
//! raw integers so `wavesim-core` can depend on this crate without a
//! cycle.

#![warn(missing_docs)]

pub mod columnar;
pub mod metrics;
pub mod perfetto;
pub mod postmortem;
pub mod recorder;
mod schema;
pub mod stream;

pub use recorder::{FlightRecorder, VecSink};
#[doc(hidden)]
pub use schema::every_event;
pub use schema::{PlaneId, TraceEvent};
pub use stream::{read_columnar, read_trace, ColumnarSink, StreamSink, TraceFormat};

use wavesim_sim::Cycle;

/// A timestamped trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation cycle the event happened at.
    pub at: Cycle,
    /// Global sequence number: a total order over one network's records,
    /// stamped by the [`TraceHub`] as records reach the sink and the tail.
    pub seq: u64,
    /// The event.
    pub ev: TraceEvent,
}

/// The per-network trace hub: owns the installed sink and the kept tail
/// and stamps global sequence numbers.
///
/// Every stamped record goes straight from the stack to the sink and to
/// the tail, so a record is copied once on the simulation thread, in the
/// order its fact was noted, and the tail is current whenever it is
/// read.
#[derive(Default)]
pub struct TraceHub {
    sink: Option<Box<StreamSink>>,
    tail: Option<FlightRecorder>,
    /// `sink.is_some() || tail.is_some()`, kept so a disarmed emit is one
    /// branch.
    armed: bool,
    seq: u64,
}

impl TraceHub {
    /// A hub with no sink installed and no tail kept (all emits
    /// disabled).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// True when a sink is installed or a tail is kept.
    #[inline]
    #[must_use]
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Installs `sink`. The sequence counter restarts unless a tail is
    /// already being kept: sink and tail share one order.
    pub fn install(&mut self, sink: Box<StreamSink>) {
        self.restart_if_idle();
        self.sink = Some(sink);
        self.armed = true;
    }

    /// Removes and returns the installed sink, if any.
    pub fn take(&mut self) -> Option<Box<StreamSink>> {
        self.armed = self.tail.is_some();
        self.sink.take()
    }

    /// Keeps the last `n` records in a [`FlightRecorder`] from now on,
    /// replacing any tail kept before. The sequence counter restarts
    /// unless a sink is already installed.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn keep_tail(&mut self, n: usize) {
        self.restart_if_idle();
        self.tail = Some(FlightRecorder::new(n));
        self.armed = true;
    }

    /// The kept tail, if any.
    #[must_use]
    pub fn tail(&self) -> Option<&FlightRecorder> {
        self.tail.as_ref()
    }

    /// Stops keeping the tail and returns it, if one was kept.
    pub fn take_tail(&mut self) -> Option<FlightRecorder> {
        self.armed = self.sink.is_some();
        self.tail.take()
    }

    fn restart_if_idle(&mut self) {
        if !self.armed {
            self.seq = 0;
        }
    }

    /// Stamps one event and hands it on (no-op when disarmed).
    #[inline]
    pub fn emit(&mut self, at: Cycle, ev: TraceEvent) {
        if self.armed {
            let rec = TraceRecord {
                at,
                seq: self.seq,
                ev,
            };
            self.seq += 1;
            if let Some(sink) = &mut self.sink {
                sink.record(rec);
            }
            if let Some(tail) = &mut self.tail {
                tail.record(rec);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{take_listener, CHUNK_RECORDS};

    /// A stream whose one listener keeps every record.
    fn collecting() -> Box<StreamSink> {
        Box::new(StreamSink::listening(
            vec![Box::new(VecSink::new())],
            CHUNK_RECORDS,
        ))
    }

    /// Finishes the hub's stream and returns every record it kept.
    fn collected(hub: &mut TraceHub) -> Vec<TraceRecord> {
        let mut sink = hub.take().expect("installed");
        sink.finish().expect("an in-memory stream");
        let kept = take_listener::<VecSink>(&mut sink.listeners()).expect("handed back");
        kept.into_records()
    }

    #[test]
    fn hub_stamps_sequence_in_order() {
        let mut hub = TraceHub::new();
        assert!(!hub.armed());
        hub.install(collecting());
        hub.emit(
            10,
            TraceEvent::PlaneTick {
                plane: PlaneId::Data,
            },
        );
        hub.emit(10, TraceEvent::CacheMiss { node: 2, dest: 7 });
        hub.emit(
            11,
            TraceEvent::CacheHit {
                node: 2,
                dest: 7,
                circuit: 1,
            },
        );
        let recs = collected(&mut hub);
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].seq, 0);
        assert_eq!(recs[1].seq, 1);
        assert_eq!(recs[2].seq, 2);
        assert_eq!(recs[2].at, 11);
        assert!(hub.take().is_none());
    }

    fn tick(hub: &mut TraceHub, at: Cycle) {
        hub.emit(
            at,
            TraceEvent::PlaneTick {
                plane: PlaneId::Data,
            },
        );
    }

    /// The tail is fed beside the sink, from the same stamped records, and
    /// is current whenever it is read.
    #[test]
    fn tail_keeps_the_last_records_beside_the_sink() {
        let mut hub = TraceHub::new();
        hub.install(collecting());
        hub.keep_tail(3);
        for at in 0..4 {
            tick(&mut hub, at);
            hub.emit(at, TraceEvent::CacheMiss { node: 0, dest: 1 });
            let tail = hub.tail().expect("kept");
            assert_eq!(tail.total(), 2 * (at + 1), "current after every emit");
        }
        let tail = hub.take_tail().expect("kept");
        assert!(hub.tail().is_none() && hub.armed(), "the sink stays");
        let all = collected(&mut hub);
        assert!(!hub.armed());
        assert_eq!(all.len(), 8);
        assert_eq!((tail.total(), tail.dropped()), (8, 5));
        assert_eq!(tail.snapshot(), all[5..]);
    }

    /// A tail alone arms the hub; the counter restarts only when the hub
    /// starts from idle, so a sink installed beside a tail shares its
    /// order.
    #[test]
    fn sequence_restarts_only_from_idle() {
        let mut hub = TraceHub::new();
        hub.keep_tail(8);
        assert!(hub.armed());
        tick(&mut hub, 0);
        tick(&mut hub, 1);
        hub.install(collecting());
        tick(&mut hub, 2);
        let seqs = |t: &FlightRecorder| t.snapshot().iter().map(|r| r.seq).collect::<Vec<_>>();
        assert_eq!(seqs(hub.tail().expect("kept")), [0, 1, 2]);
        assert_eq!(collected(&mut hub)[0].seq, 2);
        hub.take_tail();
        assert!(!hub.armed());
        hub.keep_tail(8);
        tick(&mut hub, 3);
        assert_eq!(seqs(hub.tail().expect("kept")), [0]);
    }
}
