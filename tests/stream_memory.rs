//! Bounded memory of the trace stream: decoding a multi-frame columnar
//! capture through [`StreamingReader`] must peak far below materializing
//! the same capture as a `Vec<TraceRecord>`, and a stream whose writer
//! thread died must stop allocating.
//!
//! Measured with a counting global allocator, so this suite owns its own
//! integration binary; allocation accounting is process-wide, so its
//! tests take turns ([`SERIAL`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{self, Cursor};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use wavesim::trace::stream::{self, ColumnarFile, Listener, StreamSink};
use wavesim::trace::{TraceEvent, TraceRecord};

/// [`System`] wrapped with live-byte, high-water and call accounting.
struct CountingAlloc;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

/// Held by each test for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

fn on_alloc(size: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
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

/// The `i`th record of a synthetic probe-hop stream.
fn hop(i: u64) -> TraceRecord {
    TraceRecord {
        at: i / 4,
        seq: i,
        ev: TraceEvent::ProbeHop {
            circuit: i % 97,
            probe: i % 31,
            node: (i % 64) as u32,
            link: (i % 4) as u32,
            misroute: i.is_multiple_of(13),
        },
    }
}

/// A synthetic capture big enough to span many columnar frames.
fn big_capture(records: usize) -> Vec<u8> {
    let file = Box::new(ColumnarFile::new(Vec::new()));
    let mut sink = StreamSink::listening(vec![file], 1024);
    for i in 0..records as u64 {
        sink.record(hop(i));
    }
    sink.finish().expect("in-memory capture");
    let file = stream::take_listener::<ColumnarFile<Vec<u8>>>(&mut sink.listeners());
    file.expect("the file comes back").into_inner()
}

#[test]
fn streaming_reader_peaks_far_below_materializing() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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

/// Panics on the first chunk it is handed.
struct Panicking;

impl Listener for Panicking {
    fn listen(&mut self, _: &[TraceRecord]) -> io::Result<()> {
        panic!("a listener that cannot read");
    }
}

/// Once the writer thread is dead, every later chunk is counted lost in
/// the buffer the stream already has: nothing on the hot path grows.
#[test]
fn a_dead_writer_leaves_the_hot_path_allocation_free() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const CAP: usize = 1024;
    let mut sink = StreamSink::listening(vec![Box::new(Panicking)], CAP);
    // The first chunk kills the writer, and the first two hand-offs take
    // the pool's two spare buffers, so the third returns only once the
    // thread has died.
    let before = 4 * CAP as u64;
    for i in 0..before {
        sink.record(hop(i));
    }
    const AFTER: u64 = 100_000;
    let calls = CALLS.load(Ordering::Relaxed);
    for i in before..before + AFTER {
        sink.record(hop(i));
    }
    let grown = CALLS.load(Ordering::Relaxed) - calls;
    assert!(
        grown <= 4,
        "{grown} allocations for {AFTER} records after the writer died"
    );
    assert_eq!(sink.total(), before + AFTER, "every record is counted");
    let err = sink.finish().unwrap_err();
    assert_eq!(err, "trace stream writer thread panicked");
}
