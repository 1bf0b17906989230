//! Record-retaining sinks: the fixed-capacity flight recorder and the
//! unbounded test sink.

use crate::{TraceRecord, TraceSink};

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

    /// Retention capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
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
}

impl TraceSink for FlightRecorder {
    fn record(&mut self, rec: TraceRecord) {
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
        }
        self.head = (self.head + 1) % self.capacity;
        self.total += 1;
    }

    /// Retained records, oldest first (unwrapping the ring).
    fn snapshot(&self) -> Vec<TraceRecord> {
        if self.buf.len() < self.capacity {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.capacity);
            out.extend_from_slice(&self.buf[self.head..]);
            out.extend_from_slice(&self.buf[..self.head]);
            out
        }
    }

    fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    fn total(&self) -> u64 {
        self.total
    }
}

/// Unbounded sink retaining every record — for tests, goldens, and small
/// diagnostic runs where completeness beats bounded memory.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    records: Vec<TraceRecord>,
}

impl VecSink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded stream, in arrival order.
    #[must_use]
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, rec: TraceRecord) {
        self.records.push(rec);
    }

    fn record_many(&mut self, recs: &[TraceRecord]) {
        self.records.extend_from_slice(recs);
    }

    fn snapshot(&self) -> Vec<TraceRecord> {
        self.records.clone()
    }

    fn total(&self) -> u64 {
        self.records.len() as u64
    }
}

/// Fans every record out to two sinks: a *primary* that answers the
/// snapshot/dropped/total queries (typically a [`FlightRecorder`] so the
/// post-mortem tail stays available) and a *secondary* that only consumes
/// (typically the run's [`crate::stream::StreamSink`]). `finish` forwards
/// to both and reports the first failure; `listeners` are the
/// secondary's.
pub struct TeeSink {
    primary: Box<dyn TraceSink>,
    secondary: Box<dyn TraceSink>,
}

impl TeeSink {
    /// Tees records into `primary` (which answers queries) and `secondary`.
    #[must_use]
    pub fn new(primary: Box<dyn TraceSink>, secondary: Box<dyn TraceSink>) -> Self {
        Self { primary, secondary }
    }
}

impl TraceSink for TeeSink {
    fn record(&mut self, rec: TraceRecord) {
        self.primary.record(rec);
        self.secondary.record(rec);
    }

    fn record_many(&mut self, recs: &[TraceRecord]) {
        self.primary.record_many(recs);
        self.secondary.record_many(recs);
    }

    fn snapshot(&self) -> Vec<TraceRecord> {
        self.primary.snapshot()
    }

    fn dropped(&self) -> u64 {
        self.primary.dropped()
    }

    fn total(&self) -> u64 {
        self.primary.total()
    }

    fn finish(&mut self) -> Result<(), String> {
        let a = self.primary.finish();
        let b = self.secondary.finish();
        a.and(b)
    }

    fn listeners(&mut self) -> Vec<Box<dyn crate::stream::Listener>> {
        self.secondary.listeners()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Counts what it is offered where the test can still see it.
    struct Counting(std::rc::Rc<std::cell::Cell<u64>>);

    impl TraceSink for Counting {
        fn record(&mut self, _rec: TraceRecord) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn tee_feeds_both_and_queries_primary() {
        let seen = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut tee = TeeSink::new(
            Box::new(FlightRecorder::new(2)),
            Box::new(Counting(std::rc::Rc::clone(&seen))),
        );
        for i in 0..5 {
            tee.record(rec(i));
        }
        // Queries reflect the ring (primary)…
        assert_eq!(tee.total(), 5);
        assert_eq!(tee.dropped(), 3);
        assert_eq!(
            tee.snapshot().iter().map(|r| r.seq).collect::<Vec<_>>(),
            [3, 4]
        );
        // …while the secondary saw the full stream.
        assert_eq!(seen.get(), 5);
        assert!(tee.finish().is_ok());
    }

    #[test]
    fn vec_sink_keeps_everything() {
        let mut s = VecSink::new();
        for i in 0..100 {
            s.record(rec(i));
        }
        assert_eq!(s.records().len(), 100);
        assert_eq!(s.total(), 100);
        assert_eq!(s.dropped(), 0);
        assert_eq!(s.snapshot().len(), 100);
    }
}
