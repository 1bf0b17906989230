//! Bounded-memory guarantee of the streaming trace reader: decoding a
//! multi-frame columnar capture through [`StreamingReader`] must peak far
//! below materializing the same capture as a `Vec<TraceRecord>`.
//!
//! Measured with a counting global allocator, so this suite owns its own
//! integration binary (one test — allocation accounting is process-wide).

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::sync::atomic::{AtomicUsize, Ordering};

use wavesim::trace::stream::{self, ColumnarSink};
use wavesim::trace::{TraceEvent, TraceRecord, TraceSink};

/// [`System`] wrapped with live-byte and high-water accounting.
struct CountingAlloc;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(size: usize) {
    let now = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
            on_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how far live-heap grew above its starting point.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = CURRENT.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(base))
}

/// A synthetic capture big enough to span many columnar frames.
fn big_capture(records: usize) -> Vec<u8> {
    let mut sink = ColumnarSink::with_chunk(Vec::new(), 1024);
    for i in 0..records as u64 {
        sink.record(TraceRecord {
            at: i / 4,
            seq: i,
            ev: TraceEvent::ProbeHop {
                circuit: i % 97,
                probe: i % 31,
                node: (i % 64) as u32,
                link: (i % 4) as u32,
                misroute: i % 13 == 0,
            },
        });
    }
    sink.finish_into().expect("in-memory capture")
}

#[test]
fn streaming_reader_peaks_far_below_materializing() {
    const N: usize = 200_000;
    let bytes = big_capture(N);
    assert!(bytes.len() > 200_000, "capture spans many frames");

    // Materialized baseline: the whole Vec<TraceRecord> lives at once.
    let (records, peak_materialized) =
        peak_growth(|| stream::read_trace(&bytes[..]).expect("valid capture"));
    assert_eq!(records.len(), N);
    drop(records);

    // Streaming pass over the identical bytes: fold without retaining.
    let ((count, last_seq), peak_streaming) = peak_growth(|| {
        let mut reader = stream::StreamingReader::new(Cursor::new(&bytes)).expect("sniff");
        let (mut count, mut last_seq) = (0u64, 0u64);
        while let Some(rec) = reader.next_record() {
            let rec = rec.expect("valid record");
            count += 1;
            last_seq = rec.seq;
        }
        (count, last_seq)
    });
    assert_eq!(count, N as u64);
    assert_eq!(last_seq, N as u64 - 1);

    // The streaming pass holds one frame plus its read window; the
    // materialized pass holds every record. Demand a decisive gap, not a
    // hair's width, so allocator noise can't flake the suite.
    assert!(
        peak_streaming * 4 < peak_materialized,
        "streaming peaked at {peak_streaming} bytes vs {peak_materialized} materialized — \
         expected at least a 4x gap"
    );
}
