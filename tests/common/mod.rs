//! Golden hashing shared by the integration suites: a pinned output is
//! its FNV-1a hash, and `GOLDEN_PRINT=1` prints the hashes instead of
//! checking them, for re-capturing an intended change, e.g.
//!
//!     GOLDEN_PRINT=1 cargo test --test determinism golden -- --nocapture
//!
//! Also the one way these suites collect a network's records: a stream
//! with a [`VecSink`] listening.

use wavesim::core::WaveNetwork;
use wavesim::trace::stream::{take_listener, StreamSink, CHUNK_RECORDS};
use wavesim::trace::{TraceRecord, VecSink};

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the FNV-1a hash `h`.
pub fn fnv1a_bytes(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// The FNV-1a hash of `s`.
pub fn hash_str(s: &str) -> u64 {
    let mut h = FNV_OFFSET;
    fnv1a_bytes(&mut h, s.as_bytes());
    h
}

/// Checks the golden `name`, or prints it under `GOLDEN_PRINT`.
pub fn golden_check(name: &str, got: u64, want: u64) {
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("GOLDEN {name} = 0x{got:016x}");
        return;
    }
    assert_eq!(
        got, want,
        "{name}: output changed (got 0x{got:016x}, want 0x{want:016x}); re-capture with \
         GOLDEN_PRINT=1 only if the change is intentional"
    );
}

/// A stream whose one listener keeps every record: install it on a
/// network and read the records back with [`collected`].
pub fn collecting() -> Box<StreamSink> {
    Box::new(StreamSink::listening(
        vec![Box::new(VecSink::new())],
        CHUNK_RECORDS,
    ))
}

/// Takes `net`'s stream, finishes it and returns every record it kept.
pub fn collected(net: &mut WaveNetwork) -> Vec<TraceRecord> {
    let mut sink = net.take_trace_sink().expect("a stream installed");
    sink.finish().expect("an in-memory stream");
    let kept = take_listener::<VecSink>(&mut sink.listeners()).expect("handed back");
    kept.into_records()
}
