//! Lossless streaming trace capture, and the one reader of both formats.
//!
//! The flight recorder keeps the *last N* records; paper-scale runs need
//! the *whole* stream. This module provides the streaming machinery: the
//! hot path appends `Copy` records to an in-progress chunk, and full
//! chunks are handed to a dedicated writer thread, which hands each back
//! empty once every [`Listener`] has read it. Encoding, folding and file
//! I/O happen entirely off the simulation thread. A [`StreamSink`] owns
//! [`POOL_CHUNKS`] chunk buffers from creation to finish and takes them in
//! rotation, so its memory is the same whether the writer keeps up or not;
//! if the writer falls behind, the hot path blocks for an empty buffer
//! instead of queueing more. [`StreamSink::finish`] drains the queue,
//! closes the listeners and hands them back ([`StreamSink::listeners`]).
//!
//! A run has one stream: [`ColumnarFile`] writes the compact binary
//! frames of [`crate::columnar`] (`WSTRACE1`), which round-trip via
//! [`read_columnar`], and `analyze`'s folds read the same chunks. JSONL —
//! one [`encode_record`] object per line, read back by [`read_jsonl`] —
//! is a view of a capture that `wavesim convert-trace` writes.
//!
//! Reading is format-agnostic: [`StreamingReader`], the one decoder,
//! sniffs the [`crate::columnar::MAGIC`] prefix of any byte source (the
//! magic means columnar, anything else is JSONL) and decodes either format
//! incrementally, so the analyzer and the CLI never care which format a
//! capture used; [`read_trace`], [`read_jsonl`] and
//! [`read_columnar`] drain one into a vector.
//!
//! Saturated runs can cap bytes deterministically with
//! [`ColumnarFile::with_sampling`]: bulk kinds (tick markers, per-hop probe
//! movement, cache lookups) keep 1-in-N records by a counter over the
//! deterministic record order, while every lifecycle and delivery event
//! is always kept — so spans, flows and fault windows stay exact and the
//! sampled file is identical on every rerun. The folds read every record.

use std::any::Any;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

use wavesim_json::Value;

use crate::columnar::{FrameEncoder, FrameStream, MAGIC};
pub use crate::schema::{encode_record, is_bulk_kind, record_from_json};
use crate::TraceRecord;

/// Records per chunk handed to the writer thread (also the columnar
/// frame size).
pub const CHUNK_RECORDS: usize = 8192;
/// Chunk buffers a sink circulates: one filling, one queued, one being
/// read. The hot path blocks when the other two are still with the
/// writer.
pub const POOL_CHUNKS: usize = 3;

// ---------------------------------------------------------------------
// Listeners
// ---------------------------------------------------------------------

/// The header a stream encoder writes before its first chunk.
pub trait ChunkEncoder: Send + 'static {
    /// Appends the stream header (file magic).
    fn header(&mut self, out: &mut Vec<u8>);
}

/// One reader of a run's records on its stream's writer thread: the
/// `WSTRACE1` file ([`ColumnarFile`]) or a fold (`analyze`'s
/// `LiveAnalytics` and `RunSeries`). Every listener of a [`StreamSink`]
/// reads each chunk, in record order, before the chunk goes back to the
/// pool, and comes back when the stream finishes ([`take_listener`]).
pub trait Listener: Any + Send {
    /// Reads the next chunk of records.
    ///
    /// # Errors
    /// Fails when the records cannot be written. The stream then drops
    /// this listener and reports the error on finish; the others read on.
    fn listen(&mut self, recs: &[TraceRecord]) -> io::Result<()>;

    /// Called once, after the last chunk.
    ///
    /// # Errors
    /// Fails when buffered output cannot be flushed.
    fn close(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Takes the listener of type `L` out of `listeners` (what a finished
/// stream handed back), if one is there.
pub fn take_listener<L: Listener>(listeners: &mut Vec<Box<dyn Listener>>) -> Option<L> {
    let at = listeners
        .iter()
        .position(|l| (&**l as &dyn Any).is::<L>())?;
    let any: Box<dyn Any> = listeners.remove(at);
    any.downcast().ok().map(|l| *l)
}

/// The `WSTRACE1` file listener: [`crate::columnar`] frames written to
/// `W`, the bulk kinds optionally sampled.
pub struct ColumnarFile<W> {
    w: W,
    enc: FrameEncoder,
    /// Encoded bytes not yet written: the stream header until the first
    /// frame.
    bytes: Vec<u8>,
    /// Records a sampled frame holds; unsampled, a chunk is a frame.
    frame: usize,
    /// Keep 1-in-N bulk-kind records; 0 or 1 = keep everything.
    sample_every: u64,
    /// Bulk-kind records seen (the deterministic sampling clock).
    bulk_seen: u64,
    /// Kept records not yet framed (sampling only).
    kept: Vec<TraceRecord>,
}

impl ColumnarFile<BufWriter<File>> {
    /// Creates (truncating) `path` and writes the capture to it.
    ///
    /// # Errors
    /// Fails when the file cannot be created.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(Self::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> ColumnarFile<W> {
    /// Writes the capture to `w`.
    pub fn new(w: W) -> Self {
        let mut enc = FrameEncoder::new();
        let mut bytes = Vec::with_capacity(64 * 1024);
        enc.header(&mut bytes);
        Self {
            w,
            enc,
            bytes,
            frame: CHUNK_RECORDS,
            sample_every: 0,
            bulk_seen: 0,
            kept: Vec::new(),
        }
    }

    /// Keeps only 1-in-`every` records of the bulk kinds (see
    /// [`is_bulk_kind`]); lifecycle and delivery events are always kept.
    ///
    /// Sampling is a counter over the deterministic record order, so the
    /// kept set — and therefore the written bytes — is identical across
    /// reruns. `every` of 0 or 1 disables sampling.
    #[must_use]
    pub fn with_sampling(mut self, every: u64) -> Self {
        self.sample_every = every;
        self
    }

    /// Encodes `recs` as one frame and writes it.
    fn write_frame(&mut self, recs: &[TraceRecord]) -> io::Result<()> {
        self.enc.encode_frame(recs, &mut self.bytes);
        self.w.write_all(&self.bytes)?;
        self.bytes.clear();
        Ok(())
    }

    /// The writer.
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl<W: Write + Send + 'static> Listener for ColumnarFile<W> {
    fn listen(&mut self, recs: &[TraceRecord]) -> io::Result<()> {
        if self.sample_every <= 1 {
            return self.write_frame(recs);
        }
        let mut kept = std::mem::take(&mut self.kept);
        for rec in recs {
            if is_bulk_kind(&rec.ev) {
                let keep = self.bulk_seen.is_multiple_of(self.sample_every);
                self.bulk_seen += 1;
                if !keep {
                    continue;
                }
            }
            kept.push(*rec);
            if kept.len() == self.frame {
                self.write_frame(&kept)?;
                kept.clear();
            }
        }
        self.kept = kept;
        Ok(())
    }

    fn close(&mut self) -> io::Result<()> {
        let kept = std::mem::take(&mut self.kept);
        if !kept.is_empty() {
            self.write_frame(&kept)?;
        }
        // An empty capture is its header alone.
        self.w.write_all(&self.bytes)?;
        self.w.flush()
    }
}

// ---------------------------------------------------------------------
// The streaming sink
// ---------------------------------------------------------------------

/// Streaming trace sink: chunks of records read by every [`Listener`] on
/// one background thread, bounded memory, lossless. It is the one sink a
/// network holds.
///
/// Retains nothing the simulation thread can read back: the post-mortem's
/// tail is the network's own ([`crate::TraceHub::keep_tail`]), fed beside
/// the sink, and a test collects records with a [`crate::VecSink`].
pub struct StreamSink {
    /// `None` once the stream is shut down or the writer thread has died.
    link: Option<WriterLink>,
    handle: Option<JoinHandle<Joined>>,
    chunk: Vec<TraceRecord>,
    chunk_cap: usize,
    total: u64,
    lost: u64,
    error: Option<String>,
    /// The listeners, once the writer thread has handed them back.
    listeners: Vec<Box<dyn Listener>>,
}

/// The hot path's ends of the two channels to the writer thread.
struct WriterLink {
    /// Full chunks out.
    full: SyncSender<Vec<TraceRecord>>,
    /// The same buffers back, empty.
    empty: Receiver<Vec<TraceRecord>>,
}

/// What the writer thread hands back on join: the listeners that did not
/// fail, the first failure, and the records handed over after it.
type Joined = (Vec<Box<dyn Listener>>, Option<io::Error>, u64);

/// The name a file-only stream is built under ([`StreamSink::new`],
/// [`StreamSink::create`]).
pub type ColumnarSink = StreamSink;

impl StreamSink {
    /// Creates (truncating) `path` and streams records to it as
    /// `WSTRACE1`.
    ///
    /// # Errors
    /// Fails when the file cannot be created.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(Self::new(BufWriter::new(File::create(path)?)))
    }

    /// Streams records to `writer` as `WSTRACE1`.
    pub fn new<W: Write + Send + 'static>(writer: W) -> Self {
        Self::listening(vec![Box::new(ColumnarFile::new(writer))], CHUNK_RECORDS)
    }

    /// Streams records to every one of `listeners`, handing off every
    /// `chunk_cap` records.
    ///
    /// # Panics
    /// Panics if `chunk_cap` is zero.
    #[must_use]
    pub fn listening(listeners: Vec<Box<dyn Listener>>, chunk_cap: usize) -> Self {
        assert!(chunk_cap > 0, "chunk capacity must be positive");
        // Neither channel ever blocks a sender: only `POOL_CHUNKS`
        // buffers exist.
        let (full, rx) = sync_channel(POOL_CHUNKS);
        let (free, empty) = sync_channel(POOL_CHUNKS);
        for _ in 1..POOL_CHUNKS {
            free.send(Vec::with_capacity(chunk_cap))
                .expect("receiver is in scope");
        }
        let handle = std::thread::spawn(move || writer_loop(listeners, &rx, &free));
        Self {
            link: Some(WriterLink { full, empty }),
            handle: Some(handle),
            chunk: Vec::with_capacity(chunk_cap),
            chunk_cap,
            total: 0,
            lost: 0,
            error: None,
            listeners: Vec::new(),
        }
    }

    /// Takes the oldest empty buffer back from the writer thread and hands
    /// it the in-progress chunk, so every buffer of the pool is in use
    /// after `POOL_CHUNKS` chunks whether or not the writer keeps up;
    /// blocks while the writer holds them all.
    fn flush_chunk(&mut self) {
        let n = self.chunk.len() as u64;
        if n == 0 {
            return;
        }
        let handed = self.link.as_ref().is_some_and(|l| {
            l.empty.recv().is_ok_and(|empty| {
                let full = std::mem::replace(&mut self.chunk, empty);
                l.full.send(full).is_ok()
            })
        });
        if !handed {
            // The writer thread died (a listener panicked), which finish
            // reports: count what it did not get, and refill the buffer in
            // hand rather than grow a new one.
            self.chunk.clear();
            self.lost += n;
            self.link = None;
        }
    }

    /// Accepts one record (a root emit).
    #[inline]
    pub fn record(&mut self, rec: TraceRecord) {
        self.total += 1;
        self.chunk.push(rec);
        if self.chunk.len() >= self.chunk_cap {
            self.flush_chunk();
        }
    }

    /// Accepts a batch of records in order (a plane's stamped batch): one
    /// slice copy into the chunk, or two around a hand-off.
    pub fn record_many(&mut self, mut recs: &[TraceRecord]) {
        self.total += recs.len() as u64;
        while !recs.is_empty() {
            let room = self.chunk_cap - self.chunk.len();
            let (now, later) = recs.split_at(room.min(recs.len()));
            self.chunk.extend_from_slice(now);
            if self.chunk.len() >= self.chunk_cap {
                self.flush_chunk();
            }
            recs = later;
        }
    }

    /// Records offered to the stream.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Hands the last chunk over, stops the writer thread and takes the
    /// listeners back; later calls report the same result.
    ///
    /// # Errors
    /// Fails when a listener failed or the writer thread panicked.
    pub fn finish(&mut self) -> Result<(), String> {
        self.flush_chunk();
        drop(self.link.take());
        if let Some(handle) = self.handle.take() {
            self.error = match handle.join() {
                Ok((listeners, error, lost)) => {
                    self.listeners = listeners;
                    self.lost += lost;
                    error.map(|e| format!("trace stream i/o error: {e}"))
                }
                Err(_) => Some("trace stream writer thread panicked".into()),
            };
        }
        self.error.clone().map_or(Ok(()), Err)
    }

    /// Hands back, once, the listeners a finished stream ran (see
    /// [`take_listener`]).
    pub fn listeners(&mut self) -> Vec<Box<dyn Listener>> {
        std::mem::take(&mut self.listeners)
    }
}

impl Drop for StreamSink {
    fn drop(&mut self) {
        // Best effort: never panic in drop; finish() reports errors.
        let _ = self.finish();
    }
}

/// The writer thread: hands every chunk to every listener, dropping one
/// that fails, then hands the buffer back.
fn writer_loop(
    mut listeners: Vec<Box<dyn Listener>>,
    rx: &Receiver<Vec<TraceRecord>>,
    free: &SyncSender<Vec<TraceRecord>>,
) -> Joined {
    let mut error = None;
    let mut lost = 0;
    for mut chunk in rx {
        listeners.retain_mut(|l| l.listen(&chunk).map_err(|e| error.get_or_insert(e)).is_ok());
        if error.is_some() {
            lost += chunk.len() as u64;
        }
        chunk.clear();
        // Fails only for the last chunk of a stream that is shutting down.
        let _ = free.send(chunk);
    }
    for l in &mut listeners {
        if let Err(e) = l.close() {
            error.get_or_insert(e);
        }
    }
    (listeners, error, lost)
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

    /// A stream to an in-memory file, a frame every `chunk` records.
    fn file_sink(chunk: usize) -> StreamSink {
        StreamSink::listening(vec![Box::new(ColumnarFile::new(Vec::new()))], chunk)
    }

    /// Finishes `sink` and returns what its in-memory file holds.
    fn bytes_of(mut sink: StreamSink) -> Vec<u8> {
        sink.finish().expect("finish");
        let file = take_listener::<ColumnarFile<Vec<u8>>>(&mut sink.listeners());
        file.expect("an in-memory file").into_inner()
    }

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

    /// `recs` as JSONL: one [`encode_record`] object per line.
    fn jsonl_text(recs: &[TraceRecord]) -> String {
        let mut text = String::new();
        for rec in recs {
            encode_record(&mut text, rec);
            text.push('\n');
        }
        text
    }

    #[test]
    fn every_kind_round_trips() {
        let recs = sample_records();
        let back = read_jsonl(&jsonl_text(&recs)).expect("parse");
        assert_eq!(back, recs);
    }

    #[test]
    fn sink_streams_all_records_through_small_chunks() {
        let recs = sample_records();
        let mut sink = file_sink(3);
        for rec in &recs {
            sink.record(*rec);
        }
        assert_eq!(sink.total(), recs.len() as u64);
        let bytes = bytes_of(sink);
        assert_eq!(read_columnar(&bytes).expect("decode"), recs);
    }

    #[test]
    fn columnar_sink_round_trips_every_kind() {
        let recs = sample_records();
        let mut sink = file_sink(5);
        sink.record_many(&recs);
        assert_eq!(sink.total(), recs.len() as u64);
        let bytes = bytes_of(sink);
        let sniffed = StreamingReader::new(&bytes[..]).expect("open").format();
        assert_eq!(sniffed, TraceFormat::Columnar);
        let back = read_columnar(&bytes).expect("decode");
        assert_eq!(back, recs);
        assert_eq!(read_trace(&bytes[..]).expect("auto-detect"), recs);
    }

    /// Batches of every size around a chunk's (1, cap - 1, cap, cap + 1
    /// and 2 cap + 1 records) stream the same frames as one record at a
    /// time, whichever way the chunk is part-filled when they arrive.
    #[test]
    fn record_many_matches_per_record_streaming() {
        const CAP: usize = 4;
        let recs = sample_records();
        let mut one = file_sink(CAP);
        for rec in &recs {
            one.record(*rec);
        }
        let expect = bytes_of(one);
        for batch in [1, CAP - 1, CAP, CAP + 1, 2 * CAP + 1] {
            for lead in 0..CAP {
                let mut many = file_sink(CAP);
                for rec in &recs[..lead] {
                    many.record(*rec);
                }
                for part in recs[lead..].chunks(batch) {
                    many.record_many(part);
                }
                assert_eq!(many.total(), recs.len() as u64);
                assert_eq!(bytes_of(many), expect, "batch {batch}, lead {lead}");
            }
        }
        let mut whole = file_sink(CAP);
        whole.record_many(&recs);
        assert_eq!(bytes_of(whole), expect);
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
        let sampled = || {
            let mut file = ColumnarFile::new(Vec::new()).with_sampling(4);
            file.frame = 4;
            let mut sink = StreamSink::listening(vec![Box::new(file)], 3);
            sink.record_many(&recs);
            bytes_of(sink)
        };
        let bytes = sampled();
        let back = read_columnar(&bytes).expect("decode");
        let bulk = back.iter().filter(|r| is_bulk_kind(&r.ev)).count();
        let life = back.iter().filter(|r| !is_bulk_kind(&r.ev)).count();
        assert_eq!(bulk, 3, "1-in-4 of 10 bulk records (indices 0,4,8)");
        assert_eq!(life, 10, "lifecycle events always kept");
        // Frames hold 4 kept records, whatever the chunks held.
        assert_eq!(bytes, crate::columnar::encode(&back, 4));
        // Sampling is deterministic: a rerun produces identical bytes.
        assert_eq!(sampled(), bytes);
    }

    /// Notes where each chunk it is handed lives.
    #[derive(Default)]
    struct AddressListener(Vec<usize>);

    impl Listener for AddressListener {
        fn listen(&mut self, recs: &[TraceRecord]) -> io::Result<()> {
            self.0.push(recs.as_ptr() as usize);
            Ok(())
        }
    }

    #[test]
    fn chunks_rotate_through_a_fixed_pool_of_buffers() {
        // Whatever the two threads' relative speed, chunk `i` travels in
        // buffer `i % POOL_CHUNKS`: the sink's memory does not depend on
        // how far the writer is behind.
        let mut sink = StreamSink::listening(vec![Box::new(AddressListener::default())], 4);
        let recs = sample_records();
        for rec in recs.iter().cycle().take(4 * 4 * POOL_CHUNKS) {
            sink.record(*rec);
        }
        sink.finish().expect("finish");
        let seen = take_listener::<AddressListener>(&mut sink.listeners())
            .expect("handed back")
            .0;
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
        let file = ColumnarFile::new(FailingWriter(1));
        let mut sink = StreamSink::listening(vec![Box::new(file)], 2);
        for rec in sample_records().iter().cycle().take(64) {
            sink.record(*rec);
        }
        assert_eq!(sink.total(), 64);
        let err = sink.finish().unwrap_err();
        assert!(err.contains("i/o error"), "{err}");
        assert!(sink.lost > 0);
    }

    /// Counts the records it reads.
    #[derive(Default)]
    struct Counting(u64);

    impl Listener for Counting {
        fn listen(&mut self, recs: &[TraceRecord]) -> io::Result<()> {
            self.0 += recs.len() as u64;
            Ok(())
        }
    }

    #[test]
    fn a_dead_file_stops_only_itself() {
        let file = ColumnarFile::new(FailingWriter(1));
        let listeners: Vec<Box<dyn Listener>> = vec![Box::new(file), Box::new(Counting::default())];
        let mut sink = StreamSink::listening(listeners, 2);
        for rec in sample_records().iter().cycle().take(64) {
            sink.record(*rec);
        }
        let err = sink.finish().unwrap_err();
        assert!(err.contains("i/o error"), "{err}");
        assert!(sink.lost > 0);
        let mut back = sink.listeners();
        let fold = take_listener::<Counting>(&mut back).expect("handed back");
        assert_eq!(fold.0, 64, "the fold read every record");
        assert!(back.is_empty(), "the failed file is not handed back");
    }

    #[test]
    fn finish_flushes_and_is_idempotent() {
        let mut sink = ColumnarSink::new(Vec::new());
        sink.record(TraceRecord {
            at: 1,
            seq: 0,
            ev: TraceEvent::CircuitReleased { circuit: 1 },
        });
        assert!(sink.finish().is_ok());
        assert!(sink.finish().is_ok());
        assert_eq!(sink.lost, 0);
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

        let jsonl = jsonl_text(&recs);
        let reader = StreamingReader::new(jsonl.as_bytes()).expect("open");
        assert_eq!(reader.format(), TraceFormat::Jsonl);
        assert_eq!(drain(reader), recs);

        let mut bin = file_sink(4);
        bin.record_many(&recs);
        let bin_bytes = bytes_of(bin);
        let reader = StreamingReader::new(&bin_bytes[..]).expect("open");
        assert_eq!(reader.format(), TraceFormat::Columnar);
        assert_eq!(drain(reader), recs);
    }

    #[test]
    fn streaming_reader_survives_short_reads() {
        // Frames of 3 records force several frame boundaries, and a
        // 7-byte dribble guarantees every frame straddles refills.
        let recs = sample_records();
        let mut bin = file_sink(3);
        bin.record_many(&recs);
        let bytes = bytes_of(bin);
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
        let mut bin = file_sink(4);
        bin.record_many(&recs);
        let mut bytes = bytes_of(bin);
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
