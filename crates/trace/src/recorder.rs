//! Record-retaining stores: the fixed-capacity flight recorder and the
//! unbounded test listener.
//!
//! Neither is a sink. A network keeps a recorder as its tail
//! (`WaveNetwork::keep_trace_tail`) beside whatever stream is installed,
//! and `convert-trace --to perfetto` keeps one over a capture it reads; a
//! [`VecSink`] is a [`Listener`] on a run's stream.

use std::io;

use crate::stream::Listener;
use crate::TraceRecord;

/// Fixed-capacity ring buffer over [`TraceRecord`]s.
///
/// The recorder pre-allocates its whole capacity up front and then never
/// allocates again: steady-state recording is a bounds-checked store plus
/// an index increment, consistent with the kernel's scratch-buffer
/// discipline. Once full, the oldest record is overwritten — a crashed or
/// stalled run always has the *last* `capacity` events, which is the part
/// a post-mortem needs.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    buf: Vec<TraceRecord>,
    head: usize,
    total: u64,
    capacity: usize,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` records.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a flight recorder needs at least one slot");
        Self {
            buf: Vec::with_capacity(capacity),
            head: 0,
            total: 0,
            capacity,
        }
    }

    /// Records currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Keeps `rec`, overwriting the oldest record once full.
    #[inline]
    pub fn record(&mut self, rec: TraceRecord) {
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
        }
        self.head += 1;
        if self.head == self.capacity {
            self.head = 0;
        }
        self.total += 1;
    }

    /// Retained records, oldest first (unwrapping the ring).
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        if self.buf.len() < self.capacity {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.capacity);
            out.extend_from_slice(&self.buf[self.head..]);
            out.extend_from_slice(&self.buf[..self.head]);
            out
        }
    }

    /// Records recorded but no longer retained (overwritten).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// Records recorded in all.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Unbounded store retaining every record — for tests, goldens, and small
/// diagnostic runs where completeness beats bounded memory. It is a
/// [`Listener`]: a network's stream (or a capture's) feeds it.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    records: Vec<TraceRecord>,
}

impl VecSink {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded stream, in arrival order.
    #[must_use]
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// The recorded stream, by value.
    #[must_use]
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }
}

impl Listener for VecSink {
    fn listen(&mut self, recs: &[TraceRecord]) -> io::Result<()> {
        self.records.extend_from_slice(recs);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{take_listener, StreamSink, CHUNK_RECORDS};
    use crate::TraceEvent;

    fn rec(i: u64) -> TraceRecord {
        TraceRecord {
            at: i,
            seq: i,
            ev: TraceEvent::CircuitReleased { circuit: i },
        }
    }

    #[test]
    fn fills_then_wraps() {
        let mut r = FlightRecorder::new(4);
        for i in 0..3 {
            r.record(rec(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 0);
        let snap = r.snapshot();
        assert_eq!(snap.iter().map(|r| r.seq).collect::<Vec<_>>(), [0, 1, 2]);
        for i in 3..10 {
            r.record(rec(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.total(), 10);
        assert_eq!(r.dropped(), 6);
        let snap = r.snapshot();
        assert_eq!(
            snap.iter().map(|r| r.seq).collect::<Vec<_>>(),
            [6, 7, 8, 9],
            "last `capacity` records, oldest first"
        );
    }

    /// Wraparound property: for any capacity and record count, the
    /// snapshot is exactly the last `min(count, capacity)` records in
    /// order, and `dropped + len == total`.
    #[test]
    fn wraparound_property() {
        for capacity in [1usize, 2, 3, 7, 8, 64] {
            for count in [0u64, 1, 5, 7, 8, 9, 63, 64, 65, 200] {
                let mut r = FlightRecorder::new(capacity);
                for i in 0..count {
                    r.record(rec(i));
                }
                let snap = r.snapshot();
                let expect_len = (count as usize).min(capacity);
                assert_eq!(snap.len(), expect_len, "cap {capacity} count {count}");
                let first = count - expect_len as u64;
                for (k, rec) in snap.iter().enumerate() {
                    assert_eq!(rec.seq, first + k as u64, "cap {capacity} count {count}");
                }
                assert!(
                    snap.windows(2).all(|w| w[0].seq + 1 == w[1].seq),
                    "snapshot must be in order"
                );
                assert_eq!(r.total(), count);
                assert_eq!(r.dropped() + r.len() as u64, r.total());
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_rejected() {
        let _ = FlightRecorder::new(0);
    }

    #[test]
    fn vec_sink_keeps_everything() {
        let mut s = StreamSink::listening(vec![Box::new(VecSink::new())], CHUNK_RECORDS);
        for i in 0..100 {
            s.record(rec(i));
        }
        assert_eq!(s.total(), 100);
        s.finish().expect("finish");
        let kept = take_listener::<VecSink>(&mut s.listeners()).expect("handed back");
        assert_eq!(kept.records().len(), 100);
        assert_eq!(kept.into_records(), (0..100).map(rec).collect::<Vec<_>>());
    }
}
