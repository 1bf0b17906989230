//! Chrome/Perfetto `trace_event` JSON export.
//!
//! The exporter turns a [`TraceRecord`] stream into the JSON object
//! format consumed by `ui.perfetto.dev` and `chrome://tracing`:
//! `{"traceEvents": [...]}` with one *process* per plane
//! ([`PlaneId::pid`]) and one *thread* (track) per router. Long-lived
//! activities become async-nestable span pairs (`ph: "b"` / `ph: "e"`,
//! matched by category + id):
//!
//! | category   | span                                          |
//! |------------|-----------------------------------------------|
//! | `packet`   | wormhole injection → delivery (id `m<msg>`)   |
//! | `transfer` | circuit transfer start → delivery (id `m<msg>`) |
//! | `setup`    | probe launch → reached/exhausted (id `c<circuit>`) |
//! | `circuit`  | established → released (id `c<circuit>`)      |
//!
//! Point events (hops, backtracks, parks, cache activity) become thread-
//! scoped instants. Timestamps map one simulated cycle to one microsecond.
//! [`TraceEvent::PlaneTick`] records are recorder context only and are not
//! exported (they would dominate the file one instant per plane-cycle).
//!
//! A ring-buffer snapshot may have lost the opening (or will never see the
//! closing) half of a span: the exporter drops orphan ends and closes
//! still-open spans at the trace horizon, so the output is always balanced
//! — [`validate`] checks exactly that, giving CI a serde-less schema gate.

use std::collections::HashMap;

use wavesim_json::Value;

use crate::{PlaneId, TraceEvent, TraceRecord};

/// Open-span bookkeeping key: (category, async id).
type SpanKey = (&'static str, String);
/// Open-span bookkeeping payload: (depth, pid, tid, name).
type OpenSlot = (u64, u64, u64, String);

/// One span/instant mapping decision for a record.
enum Shape {
    /// Async span begin: (cat, id, pid, tid, name, args).
    Begin(
        &'static str,
        String,
        u64,
        u64,
        String,
        Vec<(&'static str, Value)>,
    ),
    /// Async span end.
    End(
        &'static str,
        String,
        u64,
        u64,
        String,
        Vec<(&'static str, Value)>,
    ),
    /// Thread-scoped instant.
    Instant(u64, u64, String, Vec<(&'static str, Value)>),
    /// Not exported.
    Skip,
}

fn shape_of(ev: &TraceEvent) -> Shape {
    let n = |x: u32| u64::from(x);
    match *ev {
        TraceEvent::PlaneTick { .. } => Shape::Skip,
        TraceEvent::WormholeInject {
            msg,
            src,
            dest,
            len_flits,
        } => Shape::Begin(
            "packet",
            format!("m{msg}"),
            PlaneId::Data.pid(),
            n(src),
            format!("msg {msg}"),
            vec![
                ("src", n(src).into()),
                ("dest", n(dest).into()),
                ("len_flits", u64::from(len_flits).into()),
            ],
        ),
        TraceEvent::WormholeDeliver {
            msg,
            src,
            dest,
            latency,
        } => Shape::End(
            "packet",
            format!("m{msg}"),
            PlaneId::Data.pid(),
            n(src),
            format!("msg {msg}"),
            vec![("dest", n(dest).into()), ("latency", latency.into())],
        ),
        TraceEvent::TransferStart {
            circuit,
            msg,
            src,
            dest,
            len_flits,
        } => Shape::Begin(
            "transfer",
            format!("m{msg}"),
            PlaneId::Circuit.pid(),
            n(src),
            format!("msg {msg}"),
            vec![
                ("circuit", circuit.into()),
                ("dest", n(dest).into()),
                ("len_flits", u64::from(len_flits).into()),
            ],
        ),
        TraceEvent::CircuitDeliver {
            msg,
            src,
            dest,
            latency,
        } => Shape::End(
            "transfer",
            format!("m{msg}"),
            PlaneId::Circuit.pid(),
            n(src),
            format!("msg {msg}"),
            vec![("dest", n(dest).into()), ("latency", latency.into())],
        ),
        TraceEvent::ProbeLaunch {
            circuit,
            src,
            dest,
            switch,
            force,
        } => Shape::Begin(
            "setup",
            format!("c{circuit}"),
            PlaneId::Control.pid(),
            n(src),
            format!("setup c{circuit}"),
            vec![
                ("dest", n(dest).into()),
                ("switch", u64::from(switch).into()),
                ("force", force.into()),
            ],
        ),
        TraceEvent::ProbeReached {
            circuit,
            probe,
            dest,
            steps,
        } => Shape::End(
            "setup",
            format!("c{circuit}"),
            PlaneId::Control.pid(),
            n(dest),
            format!("setup c{circuit}"),
            vec![("probe", probe.into()), ("steps", steps.into())],
        ),
        TraceEvent::ProbeExhausted {
            circuit,
            src,
            switch,
            force,
        } => Shape::End(
            "setup",
            format!("c{circuit}"),
            PlaneId::Control.pid(),
            n(src),
            format!("setup c{circuit}"),
            vec![
                ("switch", u64::from(switch).into()),
                ("force", force.into()),
                ("exhausted", true.into()),
            ],
        ),
        TraceEvent::CircuitEstablished {
            circuit,
            src,
            dest,
            hops,
        } => Shape::Begin(
            "circuit",
            format!("c{circuit}"),
            PlaneId::Circuit.pid(),
            n(src),
            format!("c{circuit}"),
            vec![("dest", n(dest).into()), ("hops", u64::from(hops).into())],
        ),
        TraceEvent::CircuitReleased { circuit } => Shape::End(
            "circuit",
            format!("c{circuit}"),
            PlaneId::Circuit.pid(),
            0,
            format!("c{circuit}"),
            Vec::new(),
        ),
        TraceEvent::ProbeHop {
            circuit,
            probe,
            node,
            link,
            misroute,
        } => Shape::Instant(
            PlaneId::Control.pid(),
            n(node),
            format!("hop c{circuit}"),
            vec![
                ("probe", probe.into()),
                ("link", link.into()),
                ("misroute", misroute.into()),
            ],
        ),
        TraceEvent::ProbeBacktrack {
            circuit,
            probe,
            node,
        } => Shape::Instant(
            PlaneId::Control.pid(),
            n(node),
            format!("backtrack c{circuit}"),
            vec![("probe", probe.into())],
        ),
        TraceEvent::ProbePark {
            circuit,
            probe,
            node,
            victim,
        } => Shape::Instant(
            PlaneId::Control.pid(),
            n(node),
            format!("park c{circuit}"),
            vec![("probe", probe.into()), ("victim", victim.into())],
        ),
        TraceEvent::CircuitAbandoned { circuit } => Shape::Instant(
            PlaneId::Circuit.pid(),
            0,
            format!("abandon c{circuit}"),
            Vec::new(),
        ),
        TraceEvent::ForcedRelease { circuit, src } => Shape::Instant(
            PlaneId::Circuit.pid(),
            n(src),
            format!("forced release c{circuit}"),
            Vec::new(),
        ),
        TraceEvent::CacheHit {
            node,
            dest,
            circuit,
        } => Shape::Instant(
            PlaneId::Circuit.pid(),
            n(node),
            "cache hit".to_string(),
            vec![("dest", n(dest).into()), ("circuit", circuit.into())],
        ),
        TraceEvent::CacheMiss { node, dest } => Shape::Instant(
            PlaneId::Circuit.pid(),
            n(node),
            "cache miss".to_string(),
            vec![("dest", n(dest).into())],
        ),
        TraceEvent::CacheEvict {
            node,
            victim_dest,
            circuit,
        } => Shape::Instant(
            PlaneId::Circuit.pid(),
            n(node),
            "cache evict".to_string(),
            vec![
                ("victim_dest", n(victim_dest).into()),
                ("circuit", circuit.into()),
            ],
        ),
        TraceEvent::LaneFault { link, switch } => Shape::Instant(
            PlaneId::Control.pid(),
            n(link),
            format!("lane fault s{switch}"),
            vec![
                ("link", n(link).into()),
                ("switch", u64::from(switch).into()),
            ],
        ),
        TraceEvent::LaneRepair { link, switch } => Shape::Instant(
            PlaneId::Control.pid(),
            n(link),
            format!("lane repair s{switch}"),
            vec![
                ("link", n(link).into()),
                ("switch", u64::from(switch).into()),
            ],
        ),
        TraceEvent::CircuitBroken { circuit, src, dest } => Shape::Instant(
            PlaneId::Circuit.pid(),
            n(src),
            format!("broken c{circuit}"),
            vec![("dest", n(dest).into())],
        ),
        TraceEvent::EstablishRetry {
            circuit,
            src,
            dest,
            attempt,
        } => Shape::Instant(
            PlaneId::Circuit.pid(),
            n(src),
            format!("retry c{circuit}"),
            vec![
                ("dest", n(dest).into()),
                ("attempt", u64::from(attempt).into()),
            ],
        ),
        TraceEvent::WatchdogTrip { rule, value, limit } => Shape::Instant(
            PlaneId::Control.pid(),
            0,
            format!("watchdog r{rule}"),
            vec![("value", value.into()), ("limit", limit.into())],
        ),
    }
}

fn event_json(
    ph: &str,
    ts: u64,
    pid: u64,
    tid: u64,
    name: &str,
    cat_id: Option<(&str, &str)>,
    args: Vec<(&'static str, Value)>,
) -> Value {
    let mut pairs: Vec<(&str, Value)> = vec![
        ("ph", ph.into()),
        ("ts", ts.into()),
        ("pid", pid.into()),
        ("tid", tid.into()),
        ("name", name.into()),
    ];
    if let Some((cat, id)) = cat_id {
        pairs.push(("cat", cat.into()));
        pairs.push(("id", id.into()));
    }
    if ph == "i" {
        pairs.push(("s", "t".into()));
    }
    if !args.is_empty() {
        pairs.push(("args", Value::obj(args)));
    }
    Value::obj(pairs)
}

/// Exports `records` as a Chrome/Perfetto `trace_event` JSON document.
///
/// One simulated cycle maps to one microsecond of trace time. The output
/// is deterministic in the input (no maps are iterated) and always
/// span-balanced: orphan ends are dropped and unclosed spans are closed at
/// the trace horizon.
#[must_use]
pub fn export(records: &[TraceRecord]) -> Value {
    export_with_counters(records, Vec::new())
}

/// [`export`], plus pre-built counter-track events (`ph: "C"`) appended
/// after the event stream — `wavesim-analyze` renders a capture's windowed
/// series this way, so traces open with overlay graphs. Counter events
/// live under a dedicated pid-0 "run metrics" process.
#[must_use]
pub fn export_with_counters(records: &[TraceRecord], counters: Vec<Value>) -> Value {
    let mut events: Vec<Value> = Vec::new();
    // (pid, tid) pairs seen, for thread_name metadata; pids seen, for
    // process_name metadata.
    let mut threads: Vec<(u64, u64)> = Vec::new();
    let mut pids: Vec<u64> = Vec::new();
    // Open span depth per (cat, id); (begin pid, tid, name) retained so a
    // horizon close can reuse them.
    let mut open: HashMap<SpanKey, OpenSlot> = HashMap::new();
    let horizon = records.iter().map(|r| r.at).max().unwrap_or(0);

    for rec in records {
        match shape_of(&rec.ev) {
            Shape::Skip => continue,
            Shape::Begin(cat, id, pid, tid, name, args) => {
                threads.push((pid, tid));
                pids.push(pid);
                let slot = open
                    .entry((cat, id.clone()))
                    .or_insert((0, pid, tid, name.clone()));
                slot.0 += 1;
                events.push(event_json(
                    "b",
                    rec.at,
                    pid,
                    tid,
                    &name,
                    Some((cat, &id)),
                    args,
                ));
            }
            Shape::End(cat, id, pid, tid, name, args) => {
                // Orphan end (the ring dropped the begin): skip to stay
                // balanced.
                let Some(slot) = open.get_mut(&(cat, id.clone())) else {
                    continue;
                };
                if slot.0 == 0 {
                    continue;
                }
                slot.0 -= 1;
                threads.push((pid, tid));
                pids.push(pid);
                events.push(event_json(
                    "e",
                    rec.at,
                    pid,
                    tid,
                    &name,
                    Some((cat, &id)),
                    args,
                ));
            }
            Shape::Instant(pid, tid, name, args) => {
                threads.push((pid, tid));
                pids.push(pid);
                events.push(event_json("i", rec.at, pid, tid, &name, None, args));
            }
        }
    }

    // Close spans still open at the horizon (in-flight at snapshot time),
    // deterministically ordered.
    let mut dangling: Vec<(SpanKey, OpenSlot)> =
        open.into_iter().filter(|(_, slot)| slot.0 > 0).collect();
    dangling.sort_by(|a, b| (a.0 .0, &a.0 .1).cmp(&(b.0 .0, &b.0 .1)));
    for ((cat, id), (depth, pid, tid, name)) in dangling {
        for _ in 0..depth {
            events.push(event_json(
                "e",
                horizon,
                pid,
                tid,
                &name,
                Some((cat, &id)),
                vec![("truncated", true.into())],
            ));
        }
    }

    // Metadata records, emitted ahead of the event stream.
    pids.sort_unstable();
    pids.dedup();
    threads.sort_unstable();
    threads.dedup();
    let mut meta: Vec<Value> = Vec::new();
    if !counters.is_empty() {
        meta.push(Value::obj(vec![
            ("ph", "M".into()),
            ("pid", 0u64.into()),
            ("name", "process_name".into()),
            ("args", Value::obj(vec![("name", "run metrics".into())])),
        ]));
    }
    for pid in pids {
        let name = match pid {
            1 => PlaneId::Data.name(),
            2 => PlaneId::Control.name(),
            _ => PlaneId::Circuit.name(),
        };
        meta.push(Value::obj(vec![
            ("ph", "M".into()),
            ("pid", pid.into()),
            ("name", "process_name".into()),
            ("args", Value::obj(vec![("name", name.into())])),
        ]));
    }
    for (pid, tid) in threads {
        meta.push(Value::obj(vec![
            ("ph", "M".into()),
            ("pid", pid.into()),
            ("tid", tid.into()),
            ("name", "thread_name".into()),
            (
                "args",
                Value::obj(vec![("name", format!("router {tid}").into())]),
            ),
        ]));
    }
    meta.extend(events);
    meta.extend(counters);

    Value::obj(vec![
        ("traceEvents", Value::Arr(meta)),
        ("displayTimeUnit", "ms".into()),
    ])
}

/// Summary statistics returned by a successful [`validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfettoSummary {
    /// Total entries in `traceEvents` (metadata included).
    pub events: usize,
    /// Completed async span pairs.
    pub spans: usize,
    /// Instant events.
    pub instants: usize,
    /// Counter-track samples (`ph: "C"`).
    pub counters: usize,
}

fn require_u64(ev: &Value, key: &str, i: usize) -> Result<u64, String> {
    ev[key]
        .as_u64()
        .ok_or_else(|| format!("event {i}: missing or non-integer {key:?}"))
}

/// Structurally validates a Perfetto `trace_event` JSON document (as
/// produced by [`export`]) without any serde machinery — the check CI runs
/// against traced smoke simulations.
///
/// Verified: `traceEvents` is an array; every entry has a known `ph` and a
/// string `name`; non-metadata entries carry integer `ts`/`pid`/`tid`;
/// span events carry `cat` + `id` and are balanced per `(cat, id)` with no
/// end-before-begin.
///
/// # Errors
/// Returns a description of the first structural violation found.
pub fn validate(doc: &Value) -> Result<PerfettoSummary, String> {
    let events = doc["traceEvents"]
        .as_array()
        .ok_or("traceEvents must be an array")?;
    let mut open: HashMap<(String, String), u64> = HashMap::new();
    let mut spans = 0usize;
    let mut instants = 0usize;
    let mut counters = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev["ph"]
            .as_str()
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if ev["name"].as_str().is_none() {
            return Err(format!("event {i}: missing name"));
        }
        if ph == "M" {
            require_u64(ev, "pid", i)?;
            continue;
        }
        require_u64(ev, "ts", i)?;
        require_u64(ev, "pid", i)?;
        require_u64(ev, "tid", i)?;
        match ph {
            "i" => instants += 1,
            "C" => {
                if ev["args"].get("value").and_then(Value::as_f64).is_none() {
                    return Err(format!("event {i}: counter without numeric args.value"));
                }
                counters += 1;
            }
            "b" | "e" => {
                let cat = ev["cat"]
                    .as_str()
                    .ok_or_else(|| format!("event {i}: span without cat"))?;
                let id = ev["id"]
                    .as_str()
                    .ok_or_else(|| format!("event {i}: span without id"))?;
                let depth = open.entry((cat.to_string(), id.to_string())).or_insert(0);
                if ph == "b" {
                    *depth += 1;
                } else {
                    if *depth == 0 {
                        return Err(format!("event {i}: end before begin for {cat}/{id}"));
                    }
                    *depth -= 1;
                    spans += 1;
                }
            }
            other => return Err(format!("event {i}: unknown ph {other:?}")),
        }
    }
    let mut unbalanced: Vec<&(String, String)> = open
        .iter()
        .filter(|(_, &d)| d > 0)
        .map(|(k, _)| k)
        .collect();
    if !unbalanced.is_empty() {
        unbalanced.sort();
        let (cat, id) = unbalanced[0];
        return Err(format!(
            "{} unclosed span(s), first {cat}/{id}",
            unbalanced.len()
        ));
    }
    Ok(PerfettoSummary {
        events: events.len(),
        spans,
        instants,
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at: u64, seq: u64, ev: TraceEvent) -> TraceRecord {
        TraceRecord { at, seq, ev }
    }

    #[test]
    fn exports_balanced_packet_span() {
        let records = vec![
            rec(
                0,
                0,
                TraceEvent::WormholeInject {
                    msg: 1,
                    src: 0,
                    dest: 3,
                    len_flits: 16,
                },
            ),
            rec(
                9,
                1,
                TraceEvent::WormholeDeliver {
                    msg: 1,
                    src: 0,
                    dest: 3,
                    latency: 9,
                },
            ),
        ];
        let doc = export(&records);
        let sum = validate(&doc).expect("valid");
        assert_eq!(sum.spans, 1);
        assert_eq!(sum.instants, 0);
        // Round-trips through the parser (what CI does with the file).
        let reparsed = Value::parse(&doc.pretty()).expect("parses");
        assert_eq!(validate(&reparsed).expect("still valid"), sum);
    }

    #[test]
    fn closes_dangling_spans_and_drops_orphan_ends() {
        let records = vec![
            // Orphan end: its begin fell out of the ring.
            rec(
                2,
                0,
                TraceEvent::CircuitDeliver {
                    msg: 7,
                    src: 1,
                    dest: 2,
                    latency: 5,
                },
            ),
            // Begin with no end: in flight at snapshot time.
            rec(
                4,
                1,
                TraceEvent::ProbeLaunch {
                    circuit: 3,
                    src: 0,
                    dest: 5,
                    switch: 1,
                    force: false,
                },
            ),
        ];
        let doc = export(&records);
        let sum = validate(&doc).expect("exporter must balance");
        assert_eq!(sum.spans, 1, "dangling launch closed at horizon");
    }

    #[test]
    fn plane_ticks_are_not_exported() {
        let records = vec![rec(
            0,
            0,
            TraceEvent::PlaneTick {
                plane: PlaneId::Data,
            },
        )];
        let doc = export(&records);
        let sum = validate(&doc).expect("valid");
        assert_eq!(sum.events, 0);
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate(&Value::parse("{}").unwrap()).is_err());
        let no_name = r#"{"traceEvents":[{"ph":"i","ts":0,"pid":1,"tid":0}]}"#;
        assert!(validate(&Value::parse(no_name).unwrap())
            .unwrap_err()
            .contains("name"));
        let unbalanced =
            r#"{"traceEvents":[{"ph":"b","name":"x","cat":"c","id":"1","ts":0,"pid":1,"tid":0}]}"#;
        assert!(validate(&Value::parse(unbalanced).unwrap())
            .unwrap_err()
            .contains("unclosed"));
        let early_end =
            r#"{"traceEvents":[{"ph":"e","name":"x","cat":"c","id":"1","ts":0,"pid":1,"tid":0}]}"#;
        assert!(validate(&Value::parse(early_end).unwrap())
            .unwrap_err()
            .contains("end before begin"));
    }

    #[test]
    fn metadata_names_planes_and_routers() {
        let records = vec![rec(1, 0, TraceEvent::CacheMiss { node: 4, dest: 9 })];
        let doc = export(&records);
        let evs = doc["traceEvents"].as_array().unwrap();
        assert!(evs.iter().any(|e| e["ph"].as_str() == Some("M")
            && e["args"]["name"].as_str() == Some("circuit plane")));
        assert!(evs.iter().any(
            |e| e["ph"].as_str() == Some("M") && e["args"]["name"].as_str() == Some("router 4")
        ));
    }
}
