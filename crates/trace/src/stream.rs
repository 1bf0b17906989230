//! Lossless streaming trace capture (JSONL and binary columnar).
//!
//! The flight recorder keeps the *last N* records; paper-scale runs need
//! the *whole* stream. This module provides the streaming machinery: the
//! hot path appends `Copy` records to an in-progress chunk, and full
//! chunks are handed to a dedicated writer thread, which hands each back
//! empty once it is written. Encoding and file I/O happen entirely off
//! the simulation thread. A sink owns [`POOL_CHUNKS`] chunk buffers from
//! creation to finish and takes them in rotation, so its memory is the
//! same whether the writer keeps up or not; if the writer falls behind,
//! the hot path blocks for an empty buffer instead of queueing more.
//! [`TraceSink::finish`] drains the queue and flushes the writer.
//!
//! Two encoders share that plumbing through [`ChunkEncoder`]:
//!
//! * [`JsonlSink`] writes one JSON object per line ([`encode_record`]),
//!   so a captured file round-trips back into [`TraceRecord`]s via
//!   [`read_jsonl`];
//! * [`ColumnarSink`] writes the compact binary frame format of
//!   [`crate::columnar`] — typically under a tenth of the JSONL bytes —
//!   which round-trips via [`read_columnar`].
//!
//! Reading is format-agnostic: [`StreamingReader`], the one decoder,
//! sniffs the [`crate::columnar::MAGIC`] prefix of any byte source (the
//! magic means columnar, anything else is JSONL) and decodes either format
//! incrementally, so the analyzer and the CLI never care which format a
//! capture used; [`read_trace`], [`read_jsonl`] and
//! [`read_columnar`] drain one into a vector.
//!
//! Saturated runs can cap bytes deterministically with
//! [`StreamSink::with_sampling`]: bulk kinds (tick markers, per-hop probe
//! movement, cache lookups) keep 1-in-N records by a counter over the
//! deterministic record order, while every lifecycle and delivery event
//! is always kept — so spans, flows and fault windows stay exact and the
//! sampled stream is identical on every rerun.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::marker::PhantomData;
use std::path::Path;
use std::sync::mpsc::{sync_channel, Receiver, SendError, SyncSender};
use std::thread::JoinHandle;

use wavesim_json::Value;

use crate::columnar::{FrameEncoder, FrameStream, MAGIC};
pub use crate::schema::{encode_record, is_bulk_kind, record_from_json};
use crate::{TraceRecord, TraceSink};

/// Records per chunk handed to the writer thread (also the columnar
/// frame size).
pub const CHUNK_RECORDS: usize = 8192;
/// Chunk buffers a sink circulates: one filling, one queued, one being
/// encoded. The hot path blocks when the other two are still with the
/// writer.
pub const POOL_CHUNKS: usize = 3;

// ---------------------------------------------------------------------
// Chunk encoders
// ---------------------------------------------------------------------

/// Turns chunks of records into bytes on the writer thread.
///
/// Implementations run off the simulation thread and may keep scratch
/// state across chunks (the columnar encoder reuses its column buffers).
pub trait ChunkEncoder: Send + 'static {
    /// Appends the stream header (file magic) once, before any chunk.
    fn header(&mut self, out: &mut Vec<u8>) {
        let _ = out;
    }

    /// Appends the encoding of `recs` to `out`.
    fn encode_chunk(&mut self, recs: &[TraceRecord], out: &mut Vec<u8>);
}

/// [`ChunkEncoder`] emitting one compact JSON object per line.
#[derive(Default)]
pub struct JsonlEncoder {
    text: String,
}

impl ChunkEncoder for JsonlEncoder {
    fn encode_chunk(&mut self, recs: &[TraceRecord], out: &mut Vec<u8>) {
        self.text.clear();
        for rec in recs {
            encode_record(&mut self.text, rec);
            self.text.push('\n');
        }
        out.extend_from_slice(self.text.as_bytes());
    }
}

// ---------------------------------------------------------------------
// The streaming sink
// ---------------------------------------------------------------------

/// Streaming trace sink: chunks of records encoded and written by a
/// background thread, bounded memory, lossless (unless sampling is
/// requested explicitly).
///
/// Retains nothing in memory (`snapshot` is empty); pair it with a ring
/// buffer via [`TeeSink`](crate::recorder::TeeSink) when the post-mortem
/// machinery also needs a tail snapshot. Use the [`JsonlSink`] /
/// [`ColumnarSink`] aliases rather than naming the encoder directly.
pub struct StreamSink<W: Write + Send + 'static, E: ChunkEncoder> {
    /// `None` once the stream is shut down or the writer thread has died.
    link: Option<WriterLink>,
    handle: Option<JoinHandle<io::Result<W>>>,
    chunk: Vec<TraceRecord>,
    chunk_cap: usize,
    total: u64,
    lost: u64,
    /// Keep 1-in-N bulk-kind records; 0 or 1 = keep everything.
    sample_every: u64,
    /// Bulk-kind records seen (the deterministic sampling clock).
    bulk_seen: u64,
    error: Option<String>,
    _enc: PhantomData<fn() -> E>,
}

/// The hot path's ends of the two channels to the writer thread.
struct WriterLink {
    /// Full chunks out.
    full: SyncSender<Vec<TraceRecord>>,
    /// The same buffers back, empty.
    empty: Receiver<Vec<TraceRecord>>,
}

/// Streaming JSONL sink: one JSON line per record.
pub type JsonlSink<W> = StreamSink<W, JsonlEncoder>;

/// Streaming binary columnar sink: [`crate::columnar`] frames.
pub type ColumnarSink<W> = StreamSink<W, FrameEncoder>;

impl<E: ChunkEncoder + Default> StreamSink<BufWriter<File>, E> {
    /// Creates (truncating) `path` and streams records to it.
    ///
    /// # Errors
    /// Fails when the file cannot be created.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::new(BufWriter::new(file)))
    }
}

impl<W: Write + Send + 'static, E: ChunkEncoder + Default> StreamSink<W, E> {
    /// Streams records to `writer` with the default chunk size.
    pub fn new(writer: W) -> Self {
        Self::with_chunk(writer, CHUNK_RECORDS)
    }

    /// Streams records to `writer`, handing off every `chunk_cap` records.
    ///
    /// # Panics
    /// Panics if `chunk_cap` is zero.
    pub fn with_chunk(writer: W, chunk_cap: usize) -> Self {
        Self::with_encoder(writer, E::default(), chunk_cap)
    }
}

impl<W: Write + Send + 'static, E: ChunkEncoder> StreamSink<W, E> {
    /// Streams records through an explicitly constructed encoder — the
    /// entry point for stateful encoders that carry shared handles (the
    /// live-analytics fold rides this with an `io::sink()` writer).
    ///
    /// # Panics
    /// Panics if `chunk_cap` is zero.
    pub fn with_encoder(writer: W, enc: E, chunk_cap: usize) -> Self {
        assert!(chunk_cap > 0, "chunk capacity must be positive");
        // Neither channel ever blocks a sender: only `POOL_CHUNKS`
        // buffers exist.
        let (full, rx) = sync_channel(POOL_CHUNKS);
        let (free, empty) = sync_channel(POOL_CHUNKS);
        for _ in 1..POOL_CHUNKS {
            free.send(Vec::with_capacity(chunk_cap))
                .expect("receiver is in scope");
        }
        let handle = std::thread::spawn(move || writer_loop(writer, enc, &rx, &free));
        Self {
            link: Some(WriterLink { full, empty }),
            handle: Some(handle),
            chunk: Vec::with_capacity(chunk_cap),
            chunk_cap,
            total: 0,
            lost: 0,
            sample_every: 0,
            bulk_seen: 0,
            error: None,
            _enc: PhantomData,
        }
    }

    /// Keeps only 1-in-`every` records of the bulk kinds (see
    /// [`is_bulk_kind`]); lifecycle and delivery events are always kept.
    ///
    /// Sampling is a counter over the deterministic record order, so the
    /// kept set — and therefore the captured bytes — is identical across
    /// reruns. `every` of 0 or 1 disables sampling.
    #[must_use]
    pub fn with_sampling(mut self, every: u64) -> Self {
        self.sample_every = every;
        self
    }
}

impl<W: Write + Send + 'static, E: ChunkEncoder> StreamSink<W, E> {
    /// Hands the in-progress chunk to the writer thread.
    fn flush_chunk(&mut self) {
        if self.chunk.is_empty() {
            return;
        }
        let Some(link) = &self.link else {
            self.lost += self.chunk.len() as u64;
            self.chunk.clear();
            return;
        };
        match link.full.send(std::mem::take(&mut self.chunk)) {
            // The oldest empty buffer, so every buffer of the pool is in
            // use after `POOL_CHUNKS` chunks whether or not the writer
            // keeps up; blocks while the writer holds them all.
            Ok(()) => match link.empty.recv() {
                Ok(empty) => self.chunk = empty,
                Err(_) => self.link = None,
            },
            // The writer thread died (I/O error); the error surfaces on
            // finish. Stop sending and count what we could not persist.
            Err(SendError(mut full)) => {
                self.lost += full.len() as u64;
                full.clear();
                self.chunk = full;
                self.link = None;
            }
        }
    }

    /// Stops the writer thread and collects its result.
    fn shutdown(&mut self) -> Result<Option<W>, String> {
        self.flush_chunk();
        drop(self.link.take());
        let Some(handle) = self.handle.take() else {
            return match self.error.take() {
                Some(e) => Err(e),
                None => Ok(None),
            };
        };
        match handle.join() {
            Ok(Ok(w)) => {
                if self.lost > 0 {
                    Err(format!("trace stream lost {} records", self.lost))
                } else {
                    Ok(Some(w))
                }
            }
            Ok(Err(e)) => Err(format!("trace stream i/o error: {e}")),
            Err(_) => Err("trace stream writer thread panicked".into()),
        }
    }

    /// Finishes the stream and returns the underlying writer (tests use
    /// this to inspect an in-memory capture).
    ///
    /// # Errors
    /// Fails when the writer thread hit an I/O error, records were lost,
    /// or the stream already finished.
    pub fn finish_into(mut self) -> Result<W, String> {
        match self.shutdown() {
            Ok(Some(w)) => Ok(w),
            Ok(None) => Err("stream already finished".into()),
            Err(e) => Err(e),
        }
    }
}

impl<W: Write + Send + 'static, E: ChunkEncoder> TraceSink for StreamSink<W, E> {
    fn record(&mut self, rec: TraceRecord) {
        self.total += 1;
        if self.sample_every > 1 && is_bulk_kind(&rec.ev) {
            let keep = self.bulk_seen.is_multiple_of(self.sample_every);
            self.bulk_seen += 1;
            if !keep {
                return;
            }
        }
        self.chunk.push(rec);
        if self.chunk.len() >= self.chunk_cap {
            self.flush_chunk();
        }
    }

    fn record_many(&mut self, recs: &[TraceRecord]) {
        if self.sample_every > 1 {
            for rec in recs {
                self.record(*rec);
            }
            return;
        }
        self.total += recs.len() as u64;
        let mut rest = recs;
        while !rest.is_empty() {
            let take = (self.chunk_cap - self.chunk.len()).min(rest.len());
            self.chunk.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.chunk.len() >= self.chunk_cap {
                self.flush_chunk();
            }
        }
    }

    fn dropped(&self) -> u64 {
        self.lost
    }

    fn total(&self) -> u64 {
        self.total
    }

    fn finish(&mut self) -> Result<(), String> {
        let res = self.shutdown().map(|_| ());
        if let Err(e) = &res {
            self.error = Some(e.clone());
        }
        res
    }
}

impl<W: Write + Send + 'static, E: ChunkEncoder> Drop for StreamSink<W, E> {
    fn drop(&mut self) {
        // Best effort: never panic in drop; finish() reports errors.
        let _ = self.shutdown();
    }
}

/// The writer thread: encodes chunks, writes them out and hands the
/// buffers back.
fn writer_loop<W: Write, E: ChunkEncoder>(
    mut w: W,
    mut enc: E,
    rx: &Receiver<Vec<TraceRecord>>,
    free: &SyncSender<Vec<TraceRecord>>,
) -> io::Result<W> {
    let mut bytes = Vec::with_capacity(64 * 1024);
    enc.header(&mut bytes);
    w.write_all(&bytes)?;
    for mut chunk in rx {
        bytes.clear();
        enc.encode_chunk(&chunk, &mut bytes);
        w.write_all(&bytes)?;
        chunk.clear();
        // Fails only for the last chunk of a stream that is shutting down.
        let _ = free.send(chunk);
    }
    w.flush()?;
    Ok(w)
}

// ---------------------------------------------------------------------
// Format detection and the reader trait
// ---------------------------------------------------------------------

/// On-disk encoding of a trace capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// One JSON object per line (`{"at":...`).
    Jsonl,
    /// Binary columnar frames behind the `WSTRACE1` magic.
    Columnar,
}

/// The incremental decoder over any byte source, an in-memory slice
/// included.
///
/// Sniffs the format from the leading bytes and then yields records one
/// at a time — JSONL line by line, columnar frame by frame — so peak
/// memory is one frame (plus the read window), whatever the capture size.
pub struct StreamingReader<R: io::Read> {
    inner: StreamingInner<R>,
    failed: bool,
}

enum StreamingInner<R: io::Read> {
    Jsonl {
        /// The sniffed leading bytes chained back in front of the source.
        src: io::BufReader<io::Chain<io::Cursor<Vec<u8>>, R>>,
        line: String,
        line_no: usize,
    },
    Columnar {
        frames: FrameStream<R>,
        frame: Vec<TraceRecord>,
        next: usize,
    },
}

impl<R: io::Read> StreamingReader<R> {
    /// Sniffs the format from `src`'s first bytes and builds the matching
    /// incremental decoder.
    ///
    /// # Errors
    /// Fails when the source cannot be read at all.
    pub fn new(mut src: R) -> Result<Self, String> {
        use std::io::Read as _;
        // Pull just enough bytes to check for the columnar magic; hand
        // anything that is not the magic back to the line reader.
        let mut head = Vec::with_capacity(MAGIC.len());
        let mut sniff = src.by_ref().take(MAGIC.len() as u64);
        sniff
            .read_to_end(&mut head)
            .map_err(|e| format!("trace stream read: {e}"))?;
        let inner = if head == MAGIC {
            StreamingInner::Columnar {
                frames: FrameStream::new(src),
                frame: Vec::new(),
                next: 0,
            }
        } else {
            StreamingInner::Jsonl {
                src: io::BufReader::new(io::Cursor::new(head).chain(src)),
                line: String::new(),
                line_no: 0,
            }
        };
        Ok(Self {
            inner,
            failed: false,
        })
    }

    /// The sniffed source format.
    #[must_use]
    pub fn format(&self) -> TraceFormat {
        match self.inner {
            StreamingInner::Jsonl { .. } => TraceFormat::Jsonl,
            StreamingInner::Columnar { .. } => TraceFormat::Columnar,
        }
    }

    /// The next record, `None` at end of stream. After an `Err` the
    /// reader is done (subsequent calls return `None`).
    pub fn next_record(&mut self) -> Option<Result<TraceRecord, String>> {
        if self.failed {
            return None;
        }
        let res = match &mut self.inner {
            StreamingInner::Jsonl { src, line, line_no } => loop {
                use std::io::BufRead as _;
                line.clear();
                match src.read_line(line) {
                    Ok(0) => return None,
                    Ok(_) => {}
                    Err(e) => break Err(format!("line {}: read error: {e}", *line_no + 1)),
                }
                *line_no += 1;
                let text = line.trim();
                if text.is_empty() {
                    continue;
                }
                break Value::parse(text)
                    .and_then(|v| record_from_json(&v))
                    .map_err(|e| format!("line {line_no}: {e}"));
            },
            StreamingInner::Columnar {
                frames,
                frame,
                next,
            } => loop {
                if let Some(&rec) = frame.get(*next) {
                    *next += 1;
                    return Some(Ok(rec));
                }
                match frames.next_frame(frame) {
                    Ok(true) => *next = 0,
                    Ok(false) => return None,
                    Err(e) => break Err(e),
                }
            },
        };
        self.failed = res.is_err();
        Some(res)
    }

    /// Drains the reader into a vector, oldest first.
    ///
    /// # Errors
    /// Fails on the first malformed record.
    pub fn read_all(&mut self) -> Result<Vec<TraceRecord>, String> {
        let mut out = Vec::new();
        while let Some(rec) = self.next_record() {
            out.push(rec?);
        }
        Ok(out)
    }
}

/// Opens `path` as an incremental [`StreamingReader`] (auto-detected
/// format, bounded memory).
///
/// # Errors
/// Fails when the file cannot be opened.
pub fn stream_trace_file(path: &Path) -> Result<StreamingReader<File>, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    StreamingReader::new(file)
}

/// Drains `src` through a [`StreamingReader`], refusing a capture whose
/// sniffed format is not the one the caller `expect`s.
fn read_as(src: impl io::Read, expect: Option<TraceFormat>) -> Result<Vec<TraceRecord>, String> {
    let mut reader = StreamingReader::new(src)?;
    match expect {
        Some(want) if want != reader.format() => Err(format!(
            "expected a {want:?} capture, found {:?}",
            reader.format()
        )),
        _ => reader.read_all(),
    }
}

/// Decodes a whole capture of either format, oldest first.
///
/// # Errors
/// Fails on a read error or malformed content.
pub fn read_trace(src: impl io::Read) -> Result<Vec<TraceRecord>, String> {
    read_as(src, None)
}

/// Parses a whole JSONL text back into records, oldest first. Blank
/// lines are skipped.
///
/// # Errors
/// Any malformed line fails the whole parse with its 1-based line number.
pub fn read_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    read_as(text.as_bytes(), Some(TraceFormat::Jsonl))
}

/// Decodes a whole in-memory columnar capture, oldest first.
///
/// # Errors
/// Fails on a missing magic prefix or any malformed frame.
pub fn read_columnar(bytes: &[u8]) -> Result<Vec<TraceRecord>, String> {
    read_as(bytes, Some(TraceFormat::Columnar))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postmortem::record_to_json;
    use crate::TraceEvent;

    /// The schema table's fixture (every kind, edge and small values), in
    /// the JSONL-exact range, stamped with consecutive sequence numbers.
    fn sample_records() -> Vec<TraceRecord> {
        crate::every_event(1 << 53)
            .into_iter()
            .enumerate()
            .map(|(i, ev)| TraceRecord {
                at: 100 + i as u64,
                seq: i as u64,
                ev,
            })
            .collect()
    }

    #[test]
    fn fast_encoder_matches_postmortem_json() {
        for rec in sample_records() {
            let mut fast = String::new();
            encode_record(&mut fast, &rec);
            assert_eq!(fast, record_to_json(&rec).compact(), "{}", rec.ev.kind());
        }
    }

    #[test]
    fn every_kind_round_trips() {
        let recs = sample_records();
        let mut text = String::new();
        for rec in &recs {
            encode_record(&mut text, rec);
            text.push('\n');
        }
        let back = read_jsonl(&text).expect("parse");
        assert_eq!(back, recs);
    }

    #[test]
    fn sink_streams_all_records_through_small_chunks() {
        let recs = sample_records();
        let mut sink = JsonlSink::with_chunk(Vec::new(), 3);
        for rec in &recs {
            sink.record(*rec);
        }
        assert_eq!(sink.total(), recs.len() as u64);
        let bytes = sink.finish_into().expect("finish");
        let back = read_jsonl(std::str::from_utf8(&bytes).unwrap()).expect("parse");
        assert_eq!(back, recs);
    }

    #[test]
    fn columnar_sink_round_trips_every_kind() {
        let recs = sample_records();
        let mut sink = ColumnarSink::with_chunk(Vec::new(), 5);
        sink.record_many(&recs);
        assert_eq!(sink.total(), recs.len() as u64);
        let bytes = sink.finish_into().expect("finish");
        let sniffed = StreamingReader::new(&bytes[..]).expect("open").format();
        assert_eq!(sniffed, TraceFormat::Columnar);
        let back = read_columnar(&bytes).expect("decode");
        assert_eq!(back, recs);
        assert_eq!(read_trace(&bytes[..]).expect("auto-detect"), recs);
    }

    #[test]
    fn record_many_matches_per_record_streaming() {
        let recs = sample_records();
        let mut one = JsonlSink::with_chunk(Vec::new(), 4);
        for rec in &recs {
            one.record(*rec);
        }
        let mut many = JsonlSink::with_chunk(Vec::new(), 4);
        many.record_many(&recs);
        assert_eq!(
            one.finish_into().expect("finish"),
            many.finish_into().expect("finish")
        );
    }

    #[test]
    fn sampling_keeps_lifecycle_events_and_thins_bulk() {
        // 10 bulk records interleaved with 10 lifecycle records.
        let mut recs = Vec::new();
        for i in 0..10u64 {
            recs.push(TraceRecord {
                at: i,
                seq: i * 2,
                ev: TraceEvent::CacheMiss {
                    node: 0,
                    dest: i as u32,
                },
            });
            recs.push(TraceRecord {
                at: i,
                seq: i * 2 + 1,
                ev: TraceEvent::CircuitReleased { circuit: i },
            });
        }
        let mut sink = JsonlSink::with_chunk(Vec::new(), 4).with_sampling(4);
        sink.record_many(&recs);
        let bytes = sink.finish_into().expect("finish");
        let back = read_jsonl(std::str::from_utf8(&bytes).unwrap()).expect("parse");
        let bulk = back.iter().filter(|r| is_bulk_kind(&r.ev)).count();
        let life = back.iter().filter(|r| !is_bulk_kind(&r.ev)).count();
        assert_eq!(bulk, 3, "1-in-4 of 10 bulk records (indices 0,4,8)");
        assert_eq!(life, 10, "lifecycle events always kept");
        // Sampling is deterministic: a rerun produces identical bytes.
        let mut again = JsonlSink::with_chunk(Vec::new(), 4).with_sampling(4);
        again.record_many(&recs);
        assert_eq!(again.finish_into().expect("finish"), bytes);
    }

    /// Notes where each chunk it is handed lives.
    struct AddressEncoder(std::sync::Arc<std::sync::Mutex<Vec<usize>>>);

    impl ChunkEncoder for AddressEncoder {
        fn encode_chunk(&mut self, recs: &[TraceRecord], _out: &mut Vec<u8>) {
            self.0.lock().unwrap().push(recs.as_ptr() as usize);
        }
    }

    #[test]
    fn chunks_rotate_through_a_fixed_pool_of_buffers() {
        // Whatever the two threads' relative speed, chunk `i` travels in
        // buffer `i % POOL_CHUNKS`: the sink's memory does not depend on
        // how far the writer is behind.
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let enc = AddressEncoder(std::sync::Arc::clone(&seen));
        let mut sink = StreamSink::with_encoder(io::sink(), enc, 4);
        let recs = sample_records();
        for rec in recs.iter().cycle().take(4 * 4 * POOL_CHUNKS) {
            sink.record(*rec);
        }
        sink.finish_into().expect("finish");
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 4 * POOL_CHUNKS);
        for (i, addr) in seen.iter().enumerate() {
            assert_eq!(*addr, seen[i % POOL_CHUNKS], "chunk {i}");
        }
        let mut distinct = seen[..POOL_CHUNKS].to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), POOL_CHUNKS);
    }

    /// Accepts the stream header, then fails.
    struct FailingWriter(usize);

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.0 == 0 {
                return Err(io::Error::other("disk full"));
            }
            self.0 -= 1;
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn dead_writer_reports_on_finish_without_blocking_the_hot_path() {
        let mut sink = ColumnarSink::with_chunk(FailingWriter(1), 2);
        for rec in sample_records().iter().cycle().take(64) {
            sink.record(*rec);
        }
        assert_eq!(sink.total(), 64);
        let err = TraceSink::finish(&mut sink).unwrap_err();
        assert!(err.contains("i/o error"), "{err}");
        assert!(sink.dropped() > 0);
    }

    #[test]
    fn trait_finish_flushes_and_is_idempotent() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(TraceRecord {
            at: 1,
            seq: 0,
            ev: TraceEvent::CircuitReleased { circuit: 1 },
        });
        assert!(TraceSink::finish(&mut sink).is_ok());
        assert!(TraceSink::finish(&mut sink).is_ok());
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn reader_rejects_garbage_with_line_number() {
        let err = read_jsonl("{\"at\":1,\"seq\":0,\"type\":\"nope\"}").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(err.contains("unknown event kind"), "{err}");
        let err = read_jsonl("not json").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn reader_skips_blank_lines() {
        let rec = TraceRecord {
            at: 4,
            seq: 0,
            ev: TraceEvent::CacheMiss { node: 1, dest: 2 },
        };
        let mut text = String::from("\n");
        encode_record(&mut text, &rec);
        text.push_str("\n\n");
        assert_eq!(read_jsonl(&text).unwrap(), vec![rec]);
    }

    /// A reader that hands out at most `cap` bytes per call — exercises
    /// the partial-read paths in the magic sniff and frame refill.
    struct Dribble<'a> {
        data: &'a [u8],
        pos: usize,
        cap: usize,
    }

    impl io::Read for Dribble<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = out.len().min(self.cap).min(self.data.len() - self.pos);
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn drain<R: io::Read>(mut reader: StreamingReader<R>) -> Vec<TraceRecord> {
        reader.read_all().expect("stream")
    }

    #[test]
    fn streaming_reader_detects_and_decodes_both_formats() {
        let recs = sample_records();

        let mut jsonl = JsonlSink::with_chunk(Vec::new(), 4);
        jsonl.record_many(&recs);
        let jsonl_bytes = jsonl.finish_into().expect("finish");
        let reader = StreamingReader::new(&jsonl_bytes[..]).expect("open");
        assert_eq!(reader.format(), TraceFormat::Jsonl);
        assert_eq!(drain(reader), recs);

        let mut bin = ColumnarSink::with_chunk(Vec::new(), 4);
        bin.record_many(&recs);
        let bin_bytes = bin.finish_into().expect("finish");
        let reader = StreamingReader::new(&bin_bytes[..]).expect("open");
        assert_eq!(reader.format(), TraceFormat::Columnar);
        assert_eq!(drain(reader), recs);
    }

    #[test]
    fn streaming_reader_survives_short_reads() {
        // Frames of 3 records force several frame boundaries, and a
        // 7-byte dribble guarantees every frame straddles refills.
        let recs = sample_records();
        let mut bin = ColumnarSink::with_chunk(Vec::new(), 3);
        bin.record_many(&recs);
        let bytes = bin.finish_into().expect("finish");
        for cap in [1, 7, 64] {
            let src = Dribble {
                data: &bytes,
                pos: 0,
                cap,
            };
            let reader = StreamingReader::new(src).expect("open");
            assert_eq!(reader.format(), TraceFormat::Columnar);
            assert_eq!(drain(reader), recs, "cap {cap}");
        }
    }

    #[test]
    fn streaming_reader_handles_tiny_and_empty_inputs() {
        // Shorter than the magic: must fall back to JSONL (and yield
        // nothing on empty input).
        let reader = StreamingReader::new(&b""[..]).expect("open");
        assert_eq!(reader.format(), TraceFormat::Jsonl);
        assert!(drain(reader).is_empty());

        let rec = TraceRecord {
            at: 4,
            seq: 0,
            ev: TraceEvent::CacheMiss { node: 1, dest: 2 },
        };
        let mut text = String::new();
        encode_record(&mut text, &rec);
        text.push('\n');
        let reader = StreamingReader::new(text.as_bytes()).expect("open");
        assert_eq!(drain(reader), vec![rec]);
    }

    #[test]
    fn streaming_reader_reports_corrupt_columnar() {
        let recs = sample_records();
        let mut bin = ColumnarSink::with_chunk(Vec::new(), 4);
        bin.record_many(&recs);
        let mut bytes = bin.finish_into().expect("finish");
        bytes.truncate(bytes.len() - 3); // chop mid-frame
        let mut reader = StreamingReader::new(&bytes[..]).expect("open");
        let mut saw_err = false;
        while let Some(rec) = reader.next_record() {
            if let Err(e) = rec {
                assert!(e.contains("frame at byte"), "{e}");
                saw_err = true;
                break;
            }
        }
        assert!(saw_err, "truncated frame must surface an error");
    }
}
