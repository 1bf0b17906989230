//! The trace vocabulary, declared once.
//!
//! The `trace_schema!` table below lists every [`TraceEvent`] variant a
//! single time: its doc comment, its snake_case kind (the JSONL `type`),
//! its `WSTRACE1` tag, whether sampling may thin it (`bulk`), and its
//! fields in wire order, each with a carrier class:
//!
//! | class  | Rust type | JSONL          | `WSTRACE1`                          |
//! |--------|-----------|----------------|-------------------------------------|
//! | `id`   | `u64`     | number         | varint index into the frame's dictionary |
//! | `flag` | `bool`    | `true`/`false` | bit 6 of the record's tag byte      |
//! | `u64`, `u32`, `u8` | the same | number | varint                         |
//!
//! The table expands to the enum, [`TraceEvent::kind`], [`is_bulk_kind`],
//! both JSONL directions ([`encode_record`], [`record_from_json`]) and both
//! columnar directions (`encode_event`, `decode_event`). Each expansion is
//! one `match` with one straight-line arm per variant — the code the
//! writer thread and the analyzer run per record — so no field list is
//! interpreted at run time. `PlaneTick` is the one hand-written arm in
//! each: its plane is a name in JSONL and folds into the tag (0, 1, 2) in
//! `WSTRACE1`.
//!
//! Tags, kinds, field names and field order are the on-disk formats:
//! append new variants with the next free tag, and never reorder, rename
//! or re-class a field (`tests/binary_trace.rs` pins both encodings
//! against committed bytes). DESIGN §6.1 has the recipe for adding one.

use wavesim_json::Value;

use crate::columnar::{push_varint, read_varint, FrameError, Interner};
use crate::TraceRecord;

/// A plane of the wave router, as seen by the tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlaneId {
    /// The `S0` wormhole fabric.
    Data,
    /// Probes, acks, teardowns (the PCS control network).
    Control,
    /// Circuit caches, protocol engines, windowed transfers.
    Circuit,
}

impl PlaneId {
    /// Every plane with its stable name, in declaration order: a plane's
    /// index here is its discriminant and its `plane_tick` tag.
    const ALL: [(PlaneId, &'static str); 3] = [
        (PlaneId::Data, "wormhole plane"),
        (PlaneId::Control, "control plane"),
        (PlaneId::Circuit, "circuit plane"),
    ];

    /// Stable display name (also the Perfetto process name).
    #[must_use]
    pub fn name(self) -> &'static str {
        Self::ALL[self as usize].1
    }

    /// Stable Perfetto process id of the plane's track group.
    #[must_use]
    pub fn pid(self) -> u64 {
        match self {
            PlaneId::Data => 1,
            PlaneId::Control => 2,
            PlaneId::Circuit => 3,
        }
    }

    fn from_name(name: &str) -> Result<Self, String> {
        match Self::ALL.iter().find(|p| p.1 == name) {
            Some(p) => Ok(p.0),
            None => Err(format!("unknown plane `{name}`")),
        }
    }
}

/// Tag-byte bit carrying a variant's `flag` field.
const TAG_FLAG: u8 = 0x40;

/// The largest integer a JSON number (an f64) carries exactly.
const JSONL_EXACT: f64 = 9_007_199_254_740_992.0;

// ---------------------------------------------------------------------
// Carrier primitives
// ---------------------------------------------------------------------

/// Appends `v` in decimal without going through `core::fmt` — the
/// formatting machinery costs ~3× the digits themselves, and a JSONL view
/// encodes every record of a capture.
fn push_u64(buf: &mut String, mut v: u64) {
    let mut tmp = [0u8; 20];
    let mut i = tmp.len();
    loop {
        i -= 1;
        tmp[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.push_str(std::str::from_utf8(&tmp[i..]).expect("ascii digits"));
}

/// The integer JSON field `key`, narrowed to the field's type.
fn int<T: TryFrom<u64>>(v: &Value, key: &str) -> Result<T, String> {
    let n = v.get(key).and_then(Value::as_u64).ok_or_else(|| {
        match v.get(key).and_then(Value::as_f64) {
            Some(x) if x > JSONL_EXACT => {
                format!("field `{key}` exceeds the JSONL-exact range (2^53)")
            }
            _ => format!("missing or non-integer field `{key}`"),
        }
    })?;
    T::try_from(n).map_err(|_| out_of_range::<T>(key))
}

#[cold]
fn out_of_range<T>(key: &str) -> String {
    let ty = std::any::type_name::<T>();
    format!("field `{key}` out of {ty} range")
}

fn flag(v: &Value, key: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(Value::as_bool)
        .ok_or_else(|| format!("missing or non-bool field `{key}`"))
}

fn text<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing or non-string field `{key}`"))
}

/// The next payload varint, narrowed to the field's type. Forced inline,
/// with the error text built out of line: as a call of its own (a second
/// `Result` hop per field) it made frame decode 30% slower.
#[inline(always)]
fn take_int<T: TryFrom<u64>>(b: &[u8], pos: &mut usize, key: &str) -> Result<T, String> {
    match read_varint(b, pos) {
        Ok(n) => T::try_from(n).map_err(|_| out_of_range::<T>(key)),
        Err(e) => Err(bad_varint(key, e)),
    }
}

#[cold]
fn bad_varint(key: &str, e: FrameError) -> String {
    match e {
        FrameError::Short => format!("field `{key}`: payload column ends inside it"),
        FrameError::Bad(why) => format!("field `{key}`: {why}"),
    }
}

/// The next payload varint, looked up in the frame dictionary.
#[inline(always)]
fn take_id(b: &[u8], pos: &mut usize, dict: &[u64], key: &str) -> Result<u64, String> {
    let idx: u64 = take_int(b, pos, key)?;
    dict.get(idx as usize)
        .copied()
        .ok_or_else(|| bad_id(key, idx, dict.len()))
}

#[cold]
fn bad_id(key: &str, idx: u64, len: usize) -> String {
    format!("field `{key}`: id index {idx} outside the frame's {len}-entry dictionary")
}

/// What a carrier class means in each codec. `id` and `flag` are the
/// special classes; any other class is the unsigned integer type it names.
macro_rules! carrier {
    (ty id) => {
        u64
    };
    (ty flag) => {
        bool
    };
    (ty $int:ident) => {
        $int
    };

    (put_json flag, $f:ident, $buf:ident) => {
        $buf.push_str(if $f { "true" } else { "false" })
    };
    (put_json $int:ident, $f:ident, $buf:ident) => {
        push_u64($buf, u64::from($f))
    };

    (get_json flag, $v:ident, $key:expr) => {
        flag($v, $key)?
    };
    (get_json $int:ident, $v:ident, $key:expr) => {
        int($v, $key)?
    };

    (put_col id, $f:ident, $p:ident, $ids:ident) => {
        push_varint($p, $ids.intern($f))
    };
    (put_col flag, $f:ident, $p:ident, $ids:ident) => {};
    (put_col $int:ident, $f:ident, $p:ident, $ids:ident) => {
        push_varint($p, u64::from($f))
    };

    (tag_bit flag, $f:ident) => {
        if $f {
            TAG_FLAG
        } else {
            0
        }
    };
    (tag_bit $int:ident, $f:ident) => {
        0
    };

    (take_col id, $key:expr, $b:ident, $pos:ident, $dict:ident, $flag:ident) => {
        take_id($b, $pos, $dict, $key)?
    };
    (take_col flag, $key:expr, $b:ident, $pos:ident, $dict:ident, $flag:ident) => {
        $flag
    };
    (take_col $int:ident, $key:expr, $b:ident, $pos:ident, $dict:ident, $flag:ident) => {
        take_int($b, $pos, $key)?
    };

    (extreme id, $big:ident) => {
        $big
    };
    (extreme flag, $big:ident) => {
        true
    };
    (extreme u64, $big:ident) => {
        $big
    };
    (extreme $int:ident, $big:ident) => {
        $int::MAX
    };

    (plain flag, $i:ident) => {
        false
    };
    (plain $int:ident, $i:ident) => {
        $i as _
    };
}

/// Checks the optional marker after a tag is the word `bulk`.
macro_rules! marker {
    (bulk) => {
        true
    };
}

/// Expands the table into the enum and every codec (see the module doc).
macro_rules! trace_schema {
    ($(
        $(#[$vdoc:meta])*
        $variant:ident = $kind:literal, tag $tag:literal $(, $bulk:ident)? {
            $( $(#[$fdoc:meta])* $field:ident : $class:ident, )+
        }
    )+) => {
        /// One observed fact about the simulation.
        ///
        /// Identifiers are raw integers (`CircuitId.0`, `ProbeId.0`,
        /// `MessageId.0`, `NodeId.0`) so this crate sits *below*
        /// `wavesim-core` in the dependency graph; the emit points convert
        /// typed ids at the boundary.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum TraceEvent {
            /// A plane did work this cycle (tick boundary marker).
            PlaneTick {
                /// The plane that ran.
                plane: PlaneId,
            },
            $(
                $(#[$vdoc])*
                $variant {
                    $( $(#[$fdoc])* $field: carrier!(ty $class), )+
                },
            )+
        }

        impl TraceEvent {
            /// Stable snake_case name of the event kind (the JSONL `type`).
            #[must_use]
            pub fn kind(&self) -> &'static str {
                match self {
                    TraceEvent::PlaneTick { .. } => "plane_tick",
                    $( TraceEvent::$variant { .. } => $kind, )+
                }
            }
        }

        /// True for the high-volume kinds
        /// [`ColumnarFile::with_sampling`](crate::stream::ColumnarFile::with_sampling)
        /// thins: per-cycle tick markers, per-hop probe movement, and cache
        /// lookups. Everything else (circuit lifecycle, transfers,
        /// deliveries, faults) is always captured so span and flow
        /// analytics stay exact under sampling.
        #[must_use]
        pub fn is_bulk_kind(ev: &TraceEvent) -> bool {
            match ev {
                TraceEvent::PlaneTick { .. } => true,
                $( TraceEvent::$variant { .. } => false $(|| marker!($bulk))?, )+
            }
        }

        /// Appends one record as a compact JSON object (no trailing
        /// newline): `at`, `seq`, `type`, then the event's fields under
        /// their own names in declaration order.
        ///
        /// Hand-rolled so that converting a capture of millions of
        /// records does not allocate a [`Value`] tree per record (nor pay
        /// `core::fmt` per integer).
        pub fn encode_record(buf: &mut String, rec: &TraceRecord) {
            buf.push_str("{\"at\":");
            push_u64(buf, rec.at);
            buf.push_str(",\"seq\":");
            push_u64(buf, rec.seq);
            buf.push_str(",\"type\":\"");
            buf.push_str(rec.ev.kind());
            buf.push('"');
            match rec.ev {
                TraceEvent::PlaneTick { plane } => {
                    buf.push_str(",\"plane\":\"");
                    buf.push_str(plane.name());
                    buf.push('"');
                }
                $( TraceEvent::$variant { $($field),+ } => {
                    $(
                        buf.push_str(concat!(",\"", stringify!($field), "\":"));
                        carrier!(put_json $class, $field, buf);
                    )+
                } )+
            }
            buf.push('}');
        }

        /// Parses one JSONL object back into a [`TraceRecord`].
        ///
        /// # Errors
        /// Fails on a missing or unknown `type` and on a missing,
        /// mistyped or out-of-range field, naming it.
        pub fn record_from_json(v: &Value) -> Result<TraceRecord, String> {
            let at = int(v, "at")?;
            let seq = int(v, "seq")?;
            let ev = match text(v, "type")? {
                "plane_tick" => TraceEvent::PlaneTick {
                    plane: PlaneId::from_name(text(v, "plane")?)?,
                },
                $( $kind => TraceEvent::$variant {
                    $( $field: carrier!(get_json $class, v, stringify!($field)), )+
                }, )+
                other => return Err(format!("unknown event kind `{other}`")),
            };
            Ok(TraceRecord { at, seq, ev })
        }

        /// Appends the payload fields of `ev` to `p` and returns its tag
        /// byte (`flag` folded into bit 6).
        #[inline]
        pub(crate) fn encode_event(ev: &TraceEvent, p: &mut Vec<u8>, ids: &mut Interner) -> u8 {
            match *ev {
                TraceEvent::PlaneTick { plane } => plane as u8,
                $( TraceEvent::$variant { $($field),+ } => {
                    $( carrier!(put_col $class, $field, p, ids); )+
                    $tag $(| carrier!(tag_bit $class, $field))+
                } )+
            }
        }

        /// Decodes the record tagged `tag`, reading its payload fields
        /// from `b` at `*pos`.
        pub(crate) fn decode_event(
            tag: u8,
            b: &[u8],
            pos: &mut usize,
            dict: &[u64],
        ) -> Result<TraceEvent, String> {
            let flag = tag & TAG_FLAG != 0;
            Ok(match tag & !TAG_FLAG {
                plane @ 0..=2 => TraceEvent::PlaneTick {
                    plane: PlaneId::ALL[plane as usize].0,
                },
                $( $tag => TraceEvent::$variant {
                    $( $field: carrier!(take_col $class, stringify!($field), b, pos, dict, flag), )+
                }, )+
                other => return Err(format!("unknown kind tag {other}")),
            })
        }

        /// Test fixture: a tick of every plane, then every other variant
        /// twice — each field at the edge of its class (`big` for `id`
        /// and `u64`, the type's `MAX` for narrower integers, `flag` set),
        /// then small distinct values with `flag` clear. Codec tests
        /// round-trip this list, so they cover a variant the day it is
        /// added to the table.
        #[doc(hidden)]
        #[must_use]
        pub fn every_event(big: u64) -> Vec<TraceEvent> {
            let mut out = Vec::new();
            out.extend(PlaneId::ALL.iter().map(|&(plane, _)| TraceEvent::PlaneTick { plane }));
            $(
                out.push(TraceEvent::$variant {
                    $( $field: carrier!(extreme $class, big), )+
                });
                let mut i = 0u64;
                out.push(TraceEvent::$variant {
                    $( $field: { i += 1; carrier!(plain $class, i) }, )+
                });
            )+
            out
        }
    };
}

trace_schema! {
    /// A probe left its source to search one wave switch.
    ProbeLaunch = "probe_launch", tag 3 {
        /// Circuit the probe works for.
        circuit: id,
        /// Source node.
        src: u32,
        /// Destination node.
        dest: u32,
        /// Wave switch searched (1-based).
        switch: u8,
        /// Whether the Force bit is set (CLRP phase two).
        force: flag,
    }
    /// A probe reserved a lane and moved forward one hop.
    ProbeHop = "probe_hop", tag 4, bulk {
        /// Circuit the probe works for.
        circuit: id,
        /// The probe.
        probe: id,
        /// Node the probe arrived at.
        node: u32,
        /// Physical link of the lane the hop reserved (the wave switch is
        /// the one named by the probe's `ProbeLaunch`). Together they name
        /// the reserved lane, which is what lane-occupancy analytics key on.
        link: u32,
        /// Whether this hop spent misroute budget.
        misroute: flag,
    }
    /// A probe released its last lane and stepped back one hop.
    ProbeBacktrack = "probe_backtrack", tag 5, bulk {
        /// Circuit the probe works for.
        circuit: id,
        /// The probe.
        probe: id,
        /// Node the probe backtracked to.
        node: u32,
    }
    /// A force-mode probe parked on a lane and requested a victim release.
    ProbePark = "probe_park", tag 6 {
        /// Circuit the probe works for.
        circuit: id,
        /// The probe.
        probe: id,
        /// Node the probe is blocked at.
        node: u32,
        /// Circuit selected as the victim.
        victim: id,
    }
    /// A probe reached the destination (path reserved; ack walk starts).
    ProbeReached = "probe_reached", tag 7 {
        /// Circuit the probe works for.
        circuit: id,
        /// The probe.
        probe: id,
        /// Destination node.
        dest: u32,
        /// Control steps the probe took (hops + backtracks).
        steps: u64,
    }
    /// A probe backtracked all the way to its source: switch exhausted.
    ProbeExhausted = "probe_exhausted", tag 8 {
        /// Circuit whose attempt failed.
        circuit: id,
        /// Source node.
        src: u32,
        /// Switch whose search space is exhausted.
        switch: u8,
        /// Whether the exhausted probe had the Force bit set.
        force: flag,
    }
    /// The path-setup acknowledgment reached the source: circuit ready.
    CircuitEstablished = "circuit_established", tag 9 {
        /// The established circuit.
        circuit: id,
        /// Source node.
        src: u32,
        /// Destination node.
        dest: u32,
        /// Path length in hops.
        hops: u32,
    }
    /// Teardown (or probe unwind) finished; every lane is free again.
    CircuitReleased = "circuit_released", tag 10 {
        /// The fully released circuit.
        circuit: id,
    }
    /// Establishment failed on every switch; the circuit id retires.
    CircuitAbandoned = "circuit_abandoned", tag 11 {
        /// The abandoned circuit.
        circuit: id,
    }
    /// A forced release was requested for an established circuit.
    ForcedRelease = "forced_release", tag 12 {
        /// Circuit to release.
        circuit: id,
        /// The circuit's source node.
        src: u32,
    }
    /// A send found a Ready circuit in the source's cache.
    CacheHit = "cache_hit", tag 13, bulk {
        /// Node whose cache was consulted.
        node: u32,
        /// Destination looked up.
        dest: u32,
        /// The circuit that will carry the message.
        circuit: id,
    }
    /// A send found no usable cache entry.
    CacheMiss = "cache_miss", tag 14, bulk {
        /// Node whose cache was consulted.
        node: u32,
        /// Destination looked up.
        dest: u32,
    }
    /// A full cache evicted an entry to make room.
    CacheEvict = "cache_evict", tag 15 {
        /// Node whose cache evicted.
        node: u32,
        /// Destination of the evicted entry.
        victim_dest: u32,
        /// Circuit of the evicted entry.
        circuit: id,
    }
    /// A message started streaming over an established circuit.
    TransferStart = "transfer_start", tag 16 {
        /// The carrying circuit.
        circuit: id,
        /// The message.
        msg: id,
        /// Source node.
        src: u32,
        /// Destination node.
        dest: u32,
        /// Message length in flits.
        len_flits: u32,
    }
    /// A message entered the wormhole fabric.
    WormholeInject = "wormhole_inject", tag 17 {
        /// The message.
        msg: id,
        /// Source node.
        src: u32,
        /// Destination node.
        dest: u32,
        /// Message length in flits.
        len_flits: u32,
    }
    /// A wormhole message reached its destination.
    WormholeDeliver = "wormhole_deliver", tag 18 {
        /// The message.
        msg: id,
        /// Source node.
        src: u32,
        /// Destination node.
        dest: u32,
        /// End-to-end latency in cycles.
        latency: u64,
    }
    /// A circuit transfer reached its destination.
    CircuitDeliver = "circuit_deliver", tag 19 {
        /// The message.
        msg: id,
        /// Source node.
        src: u32,
        /// Destination node.
        dest: u32,
        /// End-to-end latency in cycles.
        latency: u64,
    }
    /// A wave lane became faulty (static injection or dynamic fail event).
    LaneFault = "lane_fault", tag 20 {
        /// The lane's physical link.
        link: u32,
        /// The lane's wave switch (1-based).
        switch: u8,
    }
    /// A faulty wave lane returned to service (dynamic repair event).
    LaneRepair = "lane_repair", tag 21 {
        /// The lane's physical link.
        link: u32,
        /// The lane's wave switch (1-based).
        switch: u8,
    }
    /// A dynamic fault destroyed a circuit; its teardown started.
    CircuitBroken = "circuit_broken", tag 22 {
        /// The destroyed circuit.
        circuit: id,
        /// The circuit's source node.
        src: u32,
        /// The circuit's destination node.
        dest: u32,
    }
    /// A post-fault re-establishment attempt launched (backoff expired).
    EstablishRetry = "establish_retry", tag 23 {
        /// The fresh circuit id of the retry attempt.
        circuit: id,
        /// Source node.
        src: u32,
        /// Destination node.
        dest: u32,
        /// Which retry this is (1-based, bounded by the retry budget).
        attempt: u8,
    }
    /// A run watchdog rule fired (progress SLO violated; see
    /// `wavesim-bench`'s watchdog for the rule numbering).
    WatchdogTrip = "watchdog_trip", tag 24 {
        /// Which rule fired (stable small integer, see the watchdog docs).
        rule: u8,
        /// The observed value that violated the rule.
        value: u64,
        /// The rule's configured threshold.
        limit: u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::MAX_RECORD_FIELDS;

    /// Every kind in tag order (a kind's position is its `WSTRACE1` tag),
    /// spelled out once. The tags are the on-disk format: this list only
    /// ever grows at its end.
    const WIRE_KINDS: &str = "plane_tick plane_tick plane_tick probe_launch probe_hop \
        probe_backtrack probe_park probe_reached probe_exhausted circuit_established \
        circuit_released circuit_abandoned forced_release cache_hit cache_miss cache_evict \
        transfer_start wormhole_inject wormhole_deliver circuit_deliver lane_fault \
        lane_repair circuit_broken establish_retry watchdog_trip";

    #[test]
    fn tags_are_the_committed_append_only_list() {
        let mut by_tag: Vec<&str> = Vec::new();
        for ev in every_event(1) {
            let tag = encode_event(&ev, &mut Vec::new(), &mut Interner::new()) & !TAG_FLAG;
            match usize::from(tag).cmp(&by_tag.len()) {
                std::cmp::Ordering::Less => assert_eq!(by_tag[usize::from(tag)], ev.kind()),
                std::cmp::Ordering::Equal => by_tag.push(ev.kind()),
                std::cmp::Ordering::Greater => panic!("{} skips to tag {tag}", ev.kind()),
            }
        }
        assert_eq!(by_tag, WIRE_KINDS.split_whitespace().collect::<Vec<_>>());
    }

    #[test]
    fn jsonl_keys_follow_the_declaration_with_at_most_one_flag() {
        for ev in every_event(1 << 53) {
            let mut line = String::new();
            encode_record(&mut line, &TraceRecord { at: 0, seq: 0, ev });
            let Ok(Value::Obj(pairs)) = Value::parse(&line) else {
                panic!("not a JSON object: {line}");
            };
            let fields = &pairs[3..]; // after at, seq, type
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            // `derive(Debug)` prints `Variant { a: 1, b: 2 }` in the
            // enum's own declaration order.
            let debug = format!("{ev:?}");
            let declared: Vec<&str> = debug[debug.find('{').expect("struct variant") + 1..]
                .split(", ")
                .map(|f| f.split(':').next().expect("name: value").trim())
                .collect();
            assert_eq!(keys, declared, "{}", ev.kind());
            let flags = fields.iter().filter(|(_, v)| v.as_bool().is_some());
            assert!(flags.count() <= 1, "{}: one tag bit, one flag", ev.kind());
            assert!(keys.len() <= MAX_RECORD_FIELDS, "{}", ev.kind());
        }
    }

    #[test]
    fn malformed_input_names_the_field_or_tag() {
        let json = |text: &str| {
            record_from_json(&Value::parse(text).expect("well-formed JSON")).unwrap_err()
        };
        let col = |tag: u8, fields: &[u64], dict: &[u64]| {
            let mut payload = Vec::new();
            for &f in fields {
                push_varint(&mut payload, f);
            }
            decode_event(tag, &payload, &mut 0, dict).unwrap_err()
        };
        let cases = [
            (json(r#"{"at":1,"seq":0,"type":"nope"}"#), "kind `nope`"),
            (
                json(r#"{"at":1,"seq":0,"type":"lane_fault","link":4294967296,"switch":1}"#),
                "`link` out of u32 range",
            ),
            (
                json(r#"{"at":1,"seq":0,"type":"lane_fault","link":1,"switch":256}"#),
                "`switch` out of u8 range",
            ),
            (
                json(r#"{"at":1,"seq":0,"type":"circuit_released","circuit":9007199254740994}"#),
                "`circuit` exceeds the JSONL-exact range (2^53)",
            ),
            (
                json(r#"{"at":1,"seq":0,"type":"plane_tick","plane":"astral plane"}"#),
                "plane `astral plane`",
            ),
            (col(25, &[], &[]), "kind tag 25"),
            (col(20, &[1 << 32, 1], &[]), "`link` out of u32 range"),
            (col(20, &[1, 256], &[]), "`switch` out of u8 range"),
            (col(20, &[1], &[]), "`switch`: payload column ends"),
            (col(10, &[3], &[7]), "`circuit`: id index 3 outside"),
        ];
        for (err, want) in cases {
            assert!(err.contains(want), "`{err}` does not say `{want}`");
        }
    }
}
