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
//! * [`TraceSink`] — the consumer interface, with
//!   [`recorder::FlightRecorder`] (fixed-capacity ring buffer,
//!   allocation-free in steady state) and [`recorder::VecSink`]
//!   (unbounded, for tests and goldens); with no sink installed, tracing
//!   costs one branch per emit point;
//! * [`TraceBuf`] / [`TraceHub`] — the plumbing the instrumented planes
//!   use: each plane stages records in its own [`TraceBuf`] (one branch
//!   when disarmed) and the composition root's [`TraceHub`] stamps a
//!   global sequence number and forwards to the installed sink;
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
pub use stream::{read_columnar, read_trace, ColumnarSink, TraceFormat};

use wavesim_sim::Cycle;

/// A timestamped trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation cycle the event happened at.
    pub at: Cycle,
    /// Global sequence number: a total order over one network's records,
    /// stamped by the [`TraceHub`] as records reach the sink.
    pub seq: u64,
    /// The event.
    pub ev: TraceEvent,
}

/// Consumer of trace records.
///
/// `record` sits on the simulation hot path: implementations must not
/// allocate in steady state (the ring buffer pre-allocates; the null sink
/// does nothing).
pub trait TraceSink {
    /// Accepts one record.
    fn record(&mut self, rec: TraceRecord);

    /// Accepts a batch of records in order. The [`TraceHub`] hands its
    /// pending buffer over through this, so one virtual call amortizes
    /// over thousands of records; sinks with a bulk fast path (the
    /// streaming sinks, [`recorder::VecSink`]) override it.
    fn record_many(&mut self, recs: &[TraceRecord]) {
        for rec in recs {
            self.record(*rec);
        }
    }

    /// The records the sink retained, oldest first. Exporters and the
    /// post-mortem dump read this; sinks that retain nothing return empty.
    fn snapshot(&self) -> Vec<TraceRecord> {
        Vec::new()
    }

    /// Records offered but no longer retained (ring-buffer overwrites).
    fn dropped(&self) -> u64 {
        0
    }

    /// Total records offered to the sink.
    fn total(&self) -> u64 {
        0
    }

    /// Flushes any buffered state to the sink's backing store. Called once
    /// when the traced run ends; a [`stream::StreamSink`] drains its
    /// chunk queue and closes its listeners here. In-memory sinks
    /// keep the default no-op.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Hands back, once, the listeners a finished stream ran (see
    /// [`stream::Listener`]); other sinks have none.
    fn listeners(&mut self) -> Vec<Box<dyn stream::Listener>> {
        Vec::new()
    }
}

/// Events a [`TraceBuf`] pre-allocates for when armed (a plane's worst
/// single-dispatch burst stays well under this on the benched fabrics).
const STAGED_CAPACITY: usize = 4096;

/// Records the [`TraceHub`] accumulates before one `record_many` hand-off
/// to the sink. Batching keeps the per-record hot-path cost to a bounds
/// check + 24-byte copy; the dyn-dispatch and sink bookkeeping amortize
/// across the batch.
const PENDING_FLUSH: usize = 4096;

/// Per-plane staging buffer for intra-plane emit points.
///
/// Planes cannot reach the network-level [`TraceHub`] directly (they are
/// independent engines), so they stage records here and the composition
/// root absorbs them into the hub after every dispatch. A disarmed buffer
/// ignores emits — the instrumented planes pay exactly one predictable
/// branch per potential record, which is what keeps a run with no sink
/// installed inside the < 3 % budget.
///
/// Events are staged as full [`TraceRecord`]s with a placeholder sequence
/// number, so [`TraceHub::absorb`] stamps sequences in place and moves
/// the batch with one bulk copy instead of re-building each record.
#[derive(Debug, Clone, Default)]
pub struct TraceBuf {
    armed: bool,
    staged: Vec<TraceRecord>,
}

impl TraceBuf {
    /// A disarmed, empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// True when emits are being recorded.
    #[inline]
    #[must_use]
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Starts recording emits. Pre-sizes the staging vector so the first
    /// traced cycles never grow it mid-dispatch.
    pub fn arm(&mut self) {
        self.armed = true;
        if self.staged.capacity() < STAGED_CAPACITY {
            self.staged.reserve(STAGED_CAPACITY - self.staged.len());
        }
    }

    /// Stops recording and discards anything staged.
    pub fn disarm(&mut self) {
        self.armed = false;
        self.staged.clear();
    }

    /// Stages one event (no-op while disarmed). The staging vector keeps
    /// its capacity across absorptions, so steady state allocates nothing.
    #[inline]
    pub fn emit(&mut self, at: Cycle, ev: TraceEvent) {
        if self.armed {
            self.staged.push(TraceRecord { at, seq: 0, ev });
        }
    }

    /// Number of staged events (test observation).
    #[must_use]
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }
}

/// The per-network trace hub: owns the installed sink, stamps global
/// sequence numbers, and absorbs the planes' staging buffers.
///
/// Stamped records accumulate in a pending batch and reach the sink
/// through [`TraceSink::record_many`] — every `PENDING_FLUSH` records,
/// and unconditionally in [`TraceHub::take`] / [`TraceHub::flush`] — so
/// the per-record cost on the simulation thread is a plain `Vec` push,
/// not a virtual call.
#[derive(Default)]
pub struct TraceHub {
    sink: Option<Box<dyn TraceSink>>,
    seq: u64,
    pending: Vec<TraceRecord>,
}

impl TraceHub {
    /// A hub with no sink installed (all emits disabled).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// True when a sink is installed.
    #[inline]
    #[must_use]
    pub fn armed(&self) -> bool {
        self.sink.is_some()
    }

    /// Installs `sink` and restarts the sequence counter.
    pub fn install(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = Some(sink);
        self.seq = 0;
        self.pending.reserve(PENDING_FLUSH);
    }

    /// Removes and returns the installed sink (pending records are
    /// flushed to it first), if any.
    pub fn take(&mut self) -> Option<Box<dyn TraceSink>> {
        self.flush();
        self.sink.take()
    }

    /// Read access to the installed sink (peek at a live recorder).
    /// Flushes pending records first so the view is current.
    pub fn sink(&mut self) -> Option<&dyn TraceSink> {
        self.flush();
        self.sink.as_deref()
    }

    /// Hands the pending batch to the sink. Called automatically at the
    /// batch threshold and from [`TraceHub::take`]; callers only need it
    /// when inspecting the sink mid-run through other means.
    pub fn flush(&mut self) {
        if let Some(sink) = &mut self.sink {
            if !self.pending.is_empty() {
                sink.record_many(&self.pending);
                self.pending.clear();
            }
        }
    }

    /// Forwards one event to the sink (no-op when none is installed).
    #[inline]
    pub fn emit(&mut self, at: Cycle, ev: TraceEvent) {
        if self.sink.is_some() {
            let seq = self.seq;
            self.seq += 1;
            self.pending.push(TraceRecord { at, seq, ev });
            if self.pending.len() >= PENDING_FLUSH {
                self.flush();
            }
        }
    }

    /// Drains a plane's staging buffer into the sink, stamping sequence
    /// numbers in staging order: one in-place pass over the staged batch
    /// plus one bulk copy into the pending buffer.
    #[inline]
    pub fn absorb(&mut self, buf: &mut TraceBuf) {
        if buf.staged.is_empty() {
            return;
        }
        if self.sink.is_some() {
            let base = self.seq;
            for (i, rec) in buf.staged.iter_mut().enumerate() {
                rec.seq = base + i as u64;
            }
            self.seq = base + buf.staged.len() as u64;
            self.pending.extend_from_slice(&buf.staged);
            buf.staged.clear();
            if self.pending.len() >= PENDING_FLUSH {
                self.flush();
            }
        } else {
            buf.staged.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_buf_ignores_emits() {
        let mut buf = TraceBuf::new();
        buf.emit(3, TraceEvent::CacheMiss { node: 0, dest: 1 });
        assert_eq!(buf.staged_len(), 0);
        buf.arm();
        buf.emit(4, TraceEvent::CacheMiss { node: 0, dest: 1 });
        assert_eq!(buf.staged_len(), 1);
        buf.disarm();
        assert_eq!(buf.staged_len(), 0);
    }

    #[test]
    fn hub_stamps_sequence_in_order() {
        let mut hub = TraceHub::new();
        assert!(!hub.armed());
        hub.install(Box::new(VecSink::new()));
        hub.emit(
            10,
            TraceEvent::PlaneTick {
                plane: PlaneId::Data,
            },
        );
        let mut buf = TraceBuf::new();
        buf.arm();
        buf.emit(10, TraceEvent::CacheMiss { node: 2, dest: 7 });
        buf.emit(
            11,
            TraceEvent::CacheHit {
                node: 2,
                dest: 7,
                circuit: 1,
            },
        );
        hub.absorb(&mut buf);
        assert_eq!(buf.staged_len(), 0);
        let sink = hub.take().expect("installed");
        let recs = sink.snapshot();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].seq, 0);
        assert_eq!(recs[1].seq, 1);
        assert_eq!(recs[2].seq, 2);
        assert_eq!(recs[2].at, 11);
        assert!(hub.take().is_none());
    }

    #[test]
    fn absorb_without_sink_discards() {
        let mut hub = TraceHub::new();
        let mut buf = TraceBuf::new();
        buf.arm();
        buf.emit(0, TraceEvent::CircuitReleased { circuit: 5 });
        hub.absorb(&mut buf);
        assert_eq!(buf.staged_len(), 0);
    }
}
