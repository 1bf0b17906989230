//! Binary columnar trace capture — the one format a run streams to.
//!
//! JSONL (one [`crate::stream::encode_record`] line per record) is
//! lossless but pays ~90 bytes and a `core::fmt`-free-but-still-textual
//! encode per record; at 64×64+ fabric sizes that is the difference
//! between always-on tracing and tracing you turn off, so it is only a
//! view `convert-trace` derives. This module defines a compact binary
//! framing of the same [`TraceRecord`] stream:
//!
//! * records are grouped into **frames** (one frame per writer chunk);
//! * within a frame, like data lives in **columns**: one kind-tag byte
//!   per record, zigzag **delta-encoded cycle stamps**, an optional
//!   explicit sequence column (omitted entirely in the common case where
//!   sequence numbers are consecutive), and a varint payload column;
//! * the wide `u64` identifier spaces (circuit, probe, message ids) are
//!   **interned** into a per-frame dictionary in first-appearance order,
//!   so payloads reference 1–2 byte indices instead of repeating 5-byte
//!   varints;
//! * booleans (`force`, `misroute`) fold into the kind-tag byte.
//!
//! Which tag a variant has and which fields follow it is the schema
//! table's business (`schema.rs`: 23 variants, 25 tags — `plane_tick`
//! takes one per plane); this module frames the columns.
//!
//! The result is typically 6–9 bytes per record — less than a tenth of
//! the JSONL line — and the encoder is pure integer appends, cheap enough
//! to gate emission+encode below 5 % of the untraced run on one core.
//!
//! Decoding reproduces every record *exactly* (`at`, `seq`, and event
//! fields), so a binary capture converts to byte-identical JSONL and all
//! analytics consume either format through
//! [`crate::stream::StreamingReader`].
//! The format is deliberately self-contained per frame: a truncated file
//! loses at most its trailing frame, and frames decode with bounded
//! memory.

use crate::schema::{decode_event, encode_event};
use crate::stream::ChunkEncoder;
use crate::TraceRecord;

/// File magic prefixing every columnar capture (8 bytes, version baked in).
pub const MAGIC: [u8; 8] = *b"WSTRACE1";

/// Frame flag bit: an explicit sequence column follows the cycle column.
const FLAG_EXPLICIT_SEQ: u8 = 0x01;

/// Most records one frame may hold. The encoder splits larger chunks and
/// the decoder refuses a larger count, so a corrupt header cannot make a
/// reader buffer an unbounded "frame".
pub const MAX_FRAME_RECORDS: usize = 1 << 16;

/// Most payload fields one record carries (checked against the schema
/// table); with [`MAX_VARINT`] it bounds every per-record column size.
pub(crate) const MAX_RECORD_FIELDS: usize = 6;

/// Longest LEB128 encoding of a `u64`.
const MAX_VARINT: usize = 10;

// ---------------------------------------------------------------------
// Varint primitives
// ---------------------------------------------------------------------

/// Appends `v` as an LEB128 varint (7 bits per byte, high bit = more).
#[inline]
pub(crate) fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Zigzag-maps a signed delta so small magnitudes stay small varints.
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Why a window of bytes did not decode.
#[derive(Debug)]
pub(crate) enum FrameError {
    /// The window ends inside the value; more bytes may complete it.
    Short,
    /// The bytes are malformed whatever follows them.
    Bad(String),
}

/// Reads one varint from `bytes` at `*pos`, advancing it.
pub(crate) fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, FrameError> {
    let overflow = || FrameError::Bad("varint overflows u64".into());
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(*pos).ok_or(FrameError::Short)?;
        *pos += 1;
        if shift >= 64 {
            return Err(overflow());
        }
        v |= u64::from(b & 0x7f)
            .checked_shl(shift)
            .ok_or_else(overflow)?;
        if b & 0x80 == 0 {
            // Reject non-canonical encodings that would silently alias.
            if shift == 63 && b > 1 {
                return Err(overflow());
            }
            return Ok(v);
        }
        shift += 7;
    }
}

// ---------------------------------------------------------------------
// Id interner
// ---------------------------------------------------------------------

/// Open-addressing `u64 -> first-appearance index` map.
///
/// `std::collections::HashMap`'s SipHash costs more than the whole rest
/// of a record's encode; ids only need a collision-resistant-enough
/// multiplicative hash and linear probing over a half-empty table. It has
/// two users: the frame encoder, which rebuilds it per frame so the
/// indices are the frame dictionary, and `wavesim-analyze`, which keeps
/// one per id space for a whole fold so its tables are plain `Vec`s
/// indexed by what this returns (DESIGN §10.3).
pub struct Interner {
    /// Slot -> dictionary index, `u32::MAX` = empty.
    slots: Vec<u32>,
    /// Distinct values in first-appearance order (the frame dictionary).
    dict: Vec<u64>,
}

impl Default for Interner {
    fn default() -> Self {
        Self::new()
    }
}

impl Interner {
    /// An empty interner.
    #[must_use]
    pub fn new() -> Self {
        Self {
            slots: vec![u32::MAX; 1024],
            dict: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.slots.fill(u32::MAX);
        self.dict.clear();
    }

    /// The distinct values interned so far, in first-appearance order:
    /// `dict()[intern(v)] == v`.
    #[must_use]
    pub fn dict(&self) -> &[u64] {
        &self.dict
    }

    #[inline]
    fn hash(v: u64, mask: usize) -> usize {
        (v.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & mask
    }

    /// Index of `v` in first-appearance order, inserting on first sight.
    pub fn intern(&mut self, v: u64) -> u64 {
        let mask = self.slots.len() - 1;
        let mut i = Self::hash(v, mask);
        loop {
            let s = self.slots[i];
            if s == u32::MAX {
                if self.dict.len() * 2 >= self.slots.len() {
                    self.grow();
                    return self.intern(v);
                }
                let idx = self.dict.len() as u32;
                self.dict.push(v);
                self.slots[i] = idx;
                return u64::from(idx);
            }
            if self.dict[s as usize] == v {
                return u64::from(s);
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let cap = self.slots.len() * 2;
        self.slots.clear();
        self.slots.resize(cap, u32::MAX);
        let mask = cap - 1;
        for (idx, &v) in self.dict.iter().enumerate() {
            let mut i = Self::hash(v, mask);
            while self.slots[i] != u32::MAX {
                i = (i + 1) & mask;
            }
            self.slots[i] = idx as u32;
        }
    }
}

// ---------------------------------------------------------------------
// Frame encoder
// ---------------------------------------------------------------------

/// Encodes record chunks into self-contained columnar frames.
///
/// One encoder instance serves a whole stream; its column scratch buffers
/// and interner are reused across frames, so steady-state encoding
/// allocates nothing. Frame layout (all integers varint unless noted):
///
/// ```text
/// n_records
/// flags            (1 byte; bit 0 = explicit seq column)
/// first_at         (absolute cycle of the frame's first record)
/// first_seq        (absolute sequence of the frame's first record)
/// dict_len, dict_len × id value         (first-appearance order)
/// kinds_len,   kinds_len bytes          (1 tag byte per record)
/// cycles_len,  cycle column bytes       (zigzag delta per record after the first)
/// [seqs_len,   seq column bytes]        (only when flags bit 0 set)
/// payload_len, payload column bytes     (varint fields, variant order)
/// ```
#[derive(Default)]
pub struct FrameEncoder {
    interner: Option<Interner>,
    kinds: Vec<u8>,
    cycles: Vec<u8>,
    seqs: Vec<u8>,
    payload: Vec<u8>,
}

impl FrameEncoder {
    /// A fresh encoder (emits the stream header before its first frame).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one frame holding `recs` to `out`. Empty chunks emit
    /// nothing; a chunk above the frame cap the decoder enforces becomes
    /// several frames.
    pub fn encode_frame(&mut self, recs: &[TraceRecord], out: &mut Vec<u8>) {
        if recs.is_empty() {
            return;
        }
        if recs.len() > MAX_FRAME_RECORDS {
            for part in recs.chunks(MAX_FRAME_RECORDS) {
                self.encode_frame(part, out);
            }
            return;
        }
        let interner = self.interner.get_or_insert_with(Interner::new);
        interner.clear();
        self.kinds.clear();
        self.cycles.clear();
        self.seqs.clear();
        self.payload.clear();

        // The hub stamps consecutive sequence numbers; only sampled
        // streams have gaps. Scan once and drop the column when implicit.
        let consecutive = recs
            .windows(2)
            .all(|w| w[1].seq.wrapping_sub(w[0].seq) == 1);

        let mut prev_at = recs[0].at;
        let mut prev_seq = recs[0].seq;
        for rec in recs {
            self.kinds
                .push(encode_event(&rec.ev, &mut self.payload, interner));
            push_varint(
                &mut self.cycles,
                zigzag(rec.at.wrapping_sub(prev_at) as i64),
            );
            prev_at = rec.at;
            if !consecutive {
                push_varint(
                    &mut self.seqs,
                    zigzag(rec.seq.wrapping_sub(prev_seq) as i64),
                );
            }
            prev_seq = rec.seq;
        }

        push_varint(out, recs.len() as u64);
        out.push(if consecutive { 0 } else { FLAG_EXPLICIT_SEQ });
        push_varint(out, recs[0].at);
        push_varint(out, recs[0].seq);
        push_varint(out, interner.dict.len() as u64);
        for &v in &interner.dict {
            push_varint(out, v);
        }
        for col in [&self.kinds, &self.cycles] {
            push_varint(out, col.len() as u64);
            out.extend_from_slice(col);
        }
        if !consecutive {
            push_varint(out, self.seqs.len() as u64);
            out.extend_from_slice(&self.seqs);
        }
        push_varint(out, self.payload.len() as u64);
        out.extend_from_slice(&self.payload);
    }
}

impl ChunkEncoder for FrameEncoder {
    fn header(&mut self, out: &mut Vec<u8>) {
        out.extend_from_slice(&MAGIC);
    }
}

/// Encodes `recs` as a whole `WSTRACE1` capture in memory, a frame per
/// `frame_records` records: the bytes a [`ColumnarSink`](crate::stream::ColumnarSink)
/// sealing frames of that size writes, without its thread or file.
///
/// # Panics
/// Panics if `frame_records` is zero.
#[must_use]
pub fn encode(recs: &[TraceRecord], frame_records: usize) -> Vec<u8> {
    let mut enc = FrameEncoder::new();
    let mut bytes = Vec::new();
    enc.header(&mut bytes);
    for frame in recs.chunks(frame_records) {
        enc.encode_frame(frame, &mut bytes);
    }
    bytes
}

// ---------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------

/// Decodes the frame of `b` (no magic prefix) starting at `*pos` into
/// `frame`, advancing `*pos` past it. Every declared size is checked
/// against what `n` records can occupy before any byte of it is asked
/// for, so `Short` is only ever returned for a bounded frame.
fn decode_frame_into(
    b: &[u8],
    pos: &mut usize,
    frame: &mut Vec<TraceRecord>,
) -> Result<(), FrameError> {
    use FrameError::{Bad, Short};
    let n = read_varint(b, pos)?;
    if n == 0 || n > MAX_FRAME_RECORDS as u64 {
        return Err(Bad(format!(
            "frame declares {n} records (1..={MAX_FRAME_RECORDS} allowed)"
        )));
    }
    let n = n as usize;
    let &flags = b.get(*pos).ok_or(Short)?;
    *pos += 1;
    if flags & !FLAG_EXPLICIT_SEQ != 0 {
        return Err(Bad(format!("unknown frame flags 0x{flags:02x}")));
    }
    let explicit_seq = flags & FLAG_EXPLICIT_SEQ != 0;
    let first_at = read_varint(b, pos)?;
    let first_seq = read_varint(b, pos)?;
    let dict_len = read_varint(b, pos)?;
    if dict_len > (n * MAX_RECORD_FIELDS) as u64 {
        return Err(Bad(format!(
            "dictionary declares {dict_len} ids for {n} records"
        )));
    }
    let mut dict = Vec::with_capacity(dict_len as usize);
    for _ in 0..dict_len {
        dict.push(read_varint(b, pos)?);
    }
    // A column of `min..=max` bytes per record, as a range of `b`.
    let column = |pos: &mut usize, what: &str, min: usize, max: usize| {
        let len = read_varint(b, pos)?;
        if len < (n * min) as u64 || len > (n * max) as u64 {
            return Err(Bad(format!(
                "{what} column holds {len} bytes for {n} records"
            )));
        }
        let start = *pos;
        *pos += len as usize;
        if *pos > b.len() {
            return Err(Short);
        }
        Ok(start..*pos)
    };
    let kinds = column(pos, "kind", 1, 1)?;
    let cycles = column(pos, "cycle", 1, MAX_VARINT)?;
    let seqs = if explicit_seq {
        column(pos, "seq", 1, MAX_VARINT)?
    } else {
        0..0
    };
    let payload = column(pos, "payload", 0, MAX_RECORD_FIELDS * MAX_VARINT)?;

    // The columns are whole: running off one now is a malformed frame,
    // not a short window.
    let ends_early = |what: &str, e: FrameError| match e {
        Short => Bad(format!("{what} column ends inside a record")),
        bad => bad,
    };
    let (mut cyc, mut seqp, mut pay) = (cycles.start, seqs.start, payload.start);
    let (mut at, mut seq) = (first_at, first_seq);
    frame.reserve(n);
    for (i, &tag) in b[kinds].iter().enumerate() {
        let d = read_varint(&b[..cycles.end], &mut cyc).map_err(|e| ends_early("cycle", e))?;
        let step = if explicit_seq {
            let d = read_varint(&b[..seqs.end], &mut seqp).map_err(|e| ends_early("seq", e))?;
            unzigzag(d) as u64
        } else {
            1
        };
        // The first record's deltas are written (as zero) but the header
        // carries its stamps.
        if i > 0 {
            at = at.wrapping_add(unzigzag(d) as u64);
            seq = seq.wrapping_add(step);
        }
        match decode_event(tag, &b[..payload.end], &mut pay, &dict) {
            Ok(ev) => frame.push(TraceRecord { at, seq, ev }),
            Err(e) => return Err(Bad(format!("record {i}: {e}"))),
        }
    }
    if cyc != cycles.end || pay != payload.end || seqp != seqs.end {
        return Err(Bad("frame columns longer than their records".into()));
    }
    Ok(())
}

/// Incremental frame decoder over an arbitrary byte source.
///
/// Reads the source in fixed-size gulps and decodes one frame at a time:
/// peak memory is one frame's records plus the undecoded window, never
/// the capture size — the multi-GB post-mortem path. The window grows
/// only while a well-formed frame header says the frame continues past
/// it, and a frame is capped ([`MAX_FRAME_RECORDS`]), so malformed input
/// is reported from a bounded prefix too.
///
/// The source must be positioned *after* the [`MAGIC`] prefix (the
/// format sniffer consumes it).
pub struct FrameStream<R: std::io::Read> {
    src: R,
    /// Bytes read but not yet decoded; `pos` marks the consumed prefix.
    buf: Vec<u8>,
    pos: usize,
    /// Offset of `buf[0]` in the capture, the magic included.
    base: u64,
    eof: bool,
}

/// Bytes [`FrameStream`] reads from its source per refill.
const STREAM_GULP: usize = 256 * 1024;

impl<R: std::io::Read> FrameStream<R> {
    /// A frame stream over `src` (positioned past the magic).
    pub fn new(src: R) -> Self {
        Self {
            src,
            buf: Vec::new(),
            pos: 0,
            base: MAGIC.len() as u64,
            eof: false,
        }
    }

    /// Tops the window up with one gulp; records end-of-source.
    fn refill(&mut self) -> Result<(), String> {
        use std::io::Read as _;
        // Drop the consumed prefix before growing so the window stays
        // proportional to one frame, not the bytes read so far.
        self.buf.drain(..self.pos);
        self.base += self.pos as u64;
        self.pos = 0;
        let mut gulp = self.src.by_ref().take(STREAM_GULP as u64);
        match gulp.read_to_end(&mut self.buf) {
            Ok(n) => self.eof = n < STREAM_GULP,
            Err(e) => return Err(format!("trace stream read: {e}")),
        }
        Ok(())
    }

    /// Decodes the next frame into `frame` (cleared first). `Ok(false)`
    /// at end of source.
    ///
    /// # Errors
    /// Fails on I/O errors, a malformed frame, or a source that ends
    /// inside a frame; the message carries the frame's byte offset.
    pub fn next_frame(&mut self, frame: &mut Vec<TraceRecord>) -> Result<bool, String> {
        loop {
            frame.clear();
            let mut pos = self.pos;
            let why = match decode_frame_into(&self.buf, &mut pos, frame) {
                Ok(()) => {
                    self.pos = pos;
                    return Ok(true);
                }
                // A frame split across gulps: read more and retry.
                Err(FrameError::Short) if !self.eof => {
                    self.refill()?;
                    continue;
                }
                Err(FrameError::Short) if self.pos == self.buf.len() => return Ok(false),
                Err(FrameError::Short) => "truncated: the capture ends inside the frame".into(),
                Err(FrameError::Bad(why)) => why,
            };
            let at = self.base + self.pos as u64;
            return Err(format!("columnar frame at byte {at}: {why}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::CHUNK_RECORDS;
    use crate::{read_columnar, TraceEvent};

    fn roundtrip(recs: &[TraceRecord]) -> Vec<TraceRecord> {
        let mut enc = FrameEncoder::new();
        let mut bytes = Vec::new();
        enc.header(&mut bytes);
        enc.encode_frame(recs, &mut bytes);
        read_columnar(&bytes).expect("own output decodes")
    }

    #[test]
    fn varint_roundtrips_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn zigzag_roundtrips_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 12345, -12345] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn empty_capture_is_just_magic() {
        let bytes = encode(&[], CHUNK_RECORDS);
        assert_eq!(bytes, MAGIC);
        assert!(read_columnar(&bytes).unwrap().is_empty());
    }

    #[test]
    fn consecutive_seqs_omit_the_seq_column() {
        let recs: Vec<TraceRecord> = (0..100)
            .map(|i| TraceRecord {
                at: 10 + i,
                seq: 40 + i,
                ev: TraceEvent::CacheMiss {
                    node: 1,
                    dest: i as u32,
                },
            })
            .collect();
        let mut gapped = recs.clone();
        gapped[50].seq += 7; // forces the explicit column
        assert_eq!(roundtrip(&recs), recs);
        assert_eq!(roundtrip(&gapped), gapped);
        let size = |rs: &[TraceRecord]| {
            let mut enc = FrameEncoder::new();
            let mut bytes = Vec::new();
            enc.encode_frame(rs, &mut bytes);
            bytes.len()
        };
        assert!(size(&recs) < size(&gapped), "implicit seqs must be free");
    }

    #[test]
    fn interner_survives_growth_and_collisions() {
        let mut i = Interner::new();
        // More distinct ids than the initial table's load limit.
        for v in 0..5000u64 {
            let idx = i.intern(v.wrapping_mul(0x1234_5678_9abc_def1));
            assert_eq!(idx, v, "first appearance order");
        }
        // Re-interning returns the same indices.
        for v in 0..5000u64 {
            assert_eq!(i.intern(v.wrapping_mul(0x1234_5678_9abc_def1)), v);
        }
    }

    #[test]
    fn truncated_capture_reports_an_error() {
        let recs = vec![TraceRecord {
            at: 5,
            seq: 0,
            ev: TraceEvent::CircuitReleased { circuit: 77 },
        }];
        let mut enc = FrameEncoder::new();
        let mut bytes = Vec::new();
        enc.header(&mut bytes);
        enc.encode_frame(&recs, &mut bytes);
        let cut = &bytes[..bytes.len() - 1];
        assert!(read_columnar(cut).is_err());
        assert!(read_columnar(b"JUNKDATA").is_err());
    }

    fn hops(n: u64) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| TraceRecord {
                at: i / 4,
                seq: i,
                ev: TraceEvent::ProbeHop {
                    circuit: i % 97,
                    probe: i % 31,
                    node: (i % 64) as u32,
                    link: (i % 4) as u32,
                    misroute: i % 13 == 0,
                },
            })
            .collect()
    }

    /// The error, and the bytes read by then, when `body` (no magic) is
    /// streamed.
    fn stream_failure(body: &[u8]) -> (String, usize) {
        let mut src = std::io::Cursor::new(body);
        let mut frames = FrameStream::new(&mut src);
        let mut frame = Vec::new();
        loop {
            match frames.next_frame(&mut frame) {
                Ok(true) => {}
                Ok(false) => panic!("a corrupt capture decoded"),
                Err(e) => return (e, src.position() as usize),
            }
        }
    }

    #[test]
    fn malformed_frame_is_reported_from_a_bounded_prefix() {
        let bytes = encode(&hops(400_000), CHUNK_RECORDS);
        assert!(bytes.len() > 2_000_000, "multi-megabyte capture");
        let body = &bytes[MAGIC.len()..];

        // One bit of the first frame's record count: 8192 -> 8193.
        let mut flipped = body.to_vec();
        flipped[0] ^= 1;
        let (err, read) = stream_failure(&flipped);
        assert!(err.contains("frame at byte 8:"), "{err}");
        assert!(err.contains("for 8193 records"), "{err}");
        assert!(
            read <= 2 * STREAM_GULP,
            "read {read} bytes of {}",
            body.len()
        );

        // A length that promises more than any frame may hold is refused,
        // not read for: here the record count itself.
        let mut huge = Vec::new();
        push_varint(&mut huge, MAX_FRAME_RECORDS as u64 + 1);
        huge.extend_from_slice(body);
        let (err, read) = stream_failure(&huge);
        assert!(err.contains("declares 65537 records"), "{err}");
        assert!(read <= 2 * STREAM_GULP, "read {read} bytes");

        // Cut short, the capture names the frame its end falls in.
        let (err, read) = stream_failure(&body[..body.len() - 7]);
        assert!(err.contains("truncated"), "{err}");
        let at: usize = err["columnar frame at byte ".len()..]
            .split(':')
            .next()
            .and_then(|n| n.parse().ok())
            .expect("offset");
        assert!(at > bytes.len() - 100_000 && at < bytes.len(), "{err}");
        assert_eq!(read, body.len() - 7);
    }

    #[test]
    fn oversized_chunk_becomes_frames_the_decoder_accepts() {
        let recs = hops(MAX_FRAME_RECORDS as u64 + 1);
        assert_eq!(roundtrip(&recs), recs);
    }
}
