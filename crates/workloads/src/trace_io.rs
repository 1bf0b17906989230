//! Input persistence: save/load dependency traces and timed fault
//! schedules as versioned JSON, so experiment inputs are shareable,
//! versionable artifacts. Loading validates: a malformed or hostile file
//! is an error naming what was wrong and where (the physical line of a
//! JSONL trace, the array index and id of a message in a JSON document),
//! never a panic, and a number too wide for its field is refused rather
//! than narrowed.
//!
//! A dependency trace is saved from its flat arrays (each message beside
//! its span of dependency ids) and loaded straight into a
//! [`DepTraceBuilder`]: each parsed message is pushed with its ids, read
//! into one reused buffer, so a load keeps no per-message list of its own.

use std::io::{Read, Write};

use wavesim_json::Value;
use wavesim_network::Message;
use wavesim_sim::Cycle;
use wavesim_topology::NodeId;

use wavesim_topology::LinkId;

use crate::deptrace::{DepTrace, DepTraceBuilder};
use crate::faults::{FaultSchedule, FaultScheduleEvent};

const VERSION: u64 = 1;

/// `v` as a `T`, or an error naming `what` and the value that does not fit.
fn narrow<T: TryFrom<u64>>(what: &str, v: u64) -> Result<T, String> {
    T::try_from(v).map_err(|_| format!("{what} {v} is out of range"))
}

fn message_from_json(v: &Value) -> Result<Message, String> {
    let field = |k: &str| v[k].as_u64().ok_or_else(|| format!("message missing {k}"));
    let src: u32 = narrow("message src", field("src")?)?;
    let dest: u32 = narrow("message dest", field("dest")?)?;
    let len: u32 = narrow("message len", field("len")?)?;
    if len == 0 {
        return Err("message length must be >= 1".into());
    }
    if src == dest {
        return Err("self-send in trace".into());
    }
    Ok(Message::new(
        field("id")?,
        NodeId(src),
        NodeId(dest),
        len,
        field("created")?,
    ))
}

fn timed_to_json<T>(items: &[(Cycle, T)], encode: impl Fn(&T) -> Value) -> Value {
    Value::Arr(
        items
            .iter()
            .map(|(t, x)| Value::Arr(vec![(*t).into(), encode(x)]))
            .collect(),
    )
}

fn timed_from_json<T>(
    v: &Value,
    what: &str,
    decode: impl Fn(&Value) -> Result<T, String>,
) -> Result<Vec<(Cycle, T)>, String> {
    let items = v
        .as_array()
        .ok_or_else(|| format!("{what} must be an array"))?;
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let pair = item
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| format!("each {what} entry must be a [cycle, value] pair"))?;
        let t = pair[0]
            .as_u64()
            .ok_or_else(|| format!("bad {what} cycle"))?;
        out.push((t, decode(&pair[1])?));
    }
    Ok(out)
}

fn dep_message_to_json(m: &Message, deps: &[u64]) -> Value {
    let mut pairs = vec![
        ("id", m.id.0.into()),
        ("src", u64::from(m.src.0).into()),
        ("dest", u64::from(m.dest.0).into()),
        ("len", m.len_flits.into()),
        ("created", m.created_at.into()),
    ];
    if !deps.is_empty() {
        pairs.push(("deps", Value::Arr(deps.iter().map(|&d| d.into()).collect())));
    }
    Value::obj(pairs)
}

/// Every message of `trace` as a JSON object, in file order.
fn dep_messages_to_json(trace: &DepTrace) -> impl Iterator<Item = Value> + '_ {
    trace
        .messages()
        .iter()
        .enumerate()
        .map(|(i, m)| dep_message_to_json(m, trace.deps(i)))
}

/// Parses one message object and pushes it into `trace`, its dependency
/// ids read through the reused `deps` buffer.
fn push_dep_message(
    v: &Value,
    trace: &mut DepTraceBuilder,
    deps: &mut Vec<u64>,
) -> Result<(), String> {
    let msg = message_from_json(v)?;
    deps.clear();
    if !matches!(v["deps"], Value::Null) {
        for item in v["deps"].as_array().ok_or("deps must be an array")? {
            deps.push(item.as_u64().ok_or("deps entries must be message ids")?);
        }
    }
    trace.push(msg, deps);
    Ok(())
}

/// `e` about the message `v`, prefixed with where it sits in the file and
/// its id when it has one.
fn at_message(at: &str, v: &Value, e: &str) -> String {
    match v["id"].as_u64() {
        Some(id) => format!("{at} (id {id}): {e}"),
        None => format!("{at}: {e}"),
    }
}

/// Serializes a dependency trace as one pretty JSON document
/// (`{"version": 1, "messages": [{id, src, dest, len, created,
/// deps?}, ...]}`; a missing `deps` key means no dependencies).
///
/// # Errors
/// Propagates I/O errors.
pub fn save_dep_trace<W: Write>(trace: &DepTrace, mut writer: W) -> std::io::Result<()> {
    let file = Value::obj(vec![
        ("version", VERSION.into()),
        (
            "messages",
            Value::Arr(dep_messages_to_json(trace).collect()),
        ),
    ]);
    writer.write_all(file.pretty().as_bytes())
}

/// Serializes a dependency trace as JSONL: a `{"version": 1}` header
/// line, then one compact message object per line — the format to use
/// when traces are large or emitted by a streaming producer.
///
/// # Errors
/// Propagates I/O errors.
pub fn save_dep_trace_jsonl<W: Write>(trace: &DepTrace, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "{{\"version\": {VERSION}}}")?;
    for m in dep_messages_to_json(trace) {
        writeln!(writer, "{}", m.compact())?;
    }
    Ok(())
}

/// Deserializes a dependency trace saved by [`save_dep_trace`] (one JSON
/// document) **or** [`save_dep_trace_jsonl`] (header line + one message
/// per line); the format is sniffed from the content. The loaded trace is
/// fully validated — unknown or duplicate ids and **cyclic dependency
/// graphs are rejected here**, at load time, because a cyclic trace can
/// never finish replaying.
///
/// # Errors
/// Fails on malformed JSON, an unknown version, an invalid message
/// (zero length, self-send), or a broken dependency graph. A bad message
/// is named by its physical line (JSONL) or its index in `messages`
/// (JSON document), with its id when it has one.
pub fn load_dep_trace<R: Read>(mut reader: R) -> Result<DepTrace, String> {
    let mut text = String::new();
    reader
        .read_to_string(&mut text)
        .map_err(|e| format!("read failed: {e}"))?;
    let check_version = |v: &Value| -> Result<(), String> {
        let version = v["version"]
            .as_u64()
            .ok_or("malformed dependency trace: no version")?;
        if version == VERSION {
            Ok(())
        } else {
            Err(format!(
                "unsupported dependency trace version {version} (expected {VERSION})"
            ))
        }
    };
    let mut deps = Vec::new();
    let trace = if let Ok(doc) = Value::parse(&text) {
        // Whole-document form: {"version", "messages": [...]}. A bare
        // {"version"} (a JSONL header with no message lines) is an empty
        // trace.
        check_version(&doc)?;
        match &doc["messages"] {
            Value::Null => DepTraceBuilder::new(),
            m => {
                let items = m.as_array().ok_or("messages must be an array")?;
                let mut trace = DepTraceBuilder::with_capacity(items.len(), 0);
                for (k, v) in items.iter().enumerate() {
                    push_dep_message(v, &mut trace, &mut deps)
                        .map_err(|e| at_message(&format!("messages[{k}]"), v, &e))?;
                }
                trace
            }
        }
    } else {
        // JSONL form: header line, then one message object per line. Blank
        // lines are skipped but still counted, so an error names the line
        // an editor shows.
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (_, header) = lines.next().ok_or("empty dependency trace")?;
        let hv =
            Value::parse(header).map_err(|e| format!("malformed dependency trace header: {e}"))?;
        check_version(&hv)?;
        let mut trace = DepTraceBuilder::new();
        for (i, line) in lines {
            let n = i + 1;
            let v = Value::parse(line).map_err(|e| format!("malformed trace line {n}: {e}"))?;
            push_dep_message(&v, &mut trace, &mut deps)
                .map_err(|e| at_message(&format!("trace line {n}"), &v, &e))?;
        }
        trace
    };
    trace.build()
}

fn schedule_event_to_json(ev: &FaultScheduleEvent) -> Value {
    let (op, link, switch) = match *ev {
        FaultScheduleEvent::FailLane(l, s) => ("fail", l, Some(s)),
        FaultScheduleEvent::RepairLane(l, s) => ("repair", l, Some(s)),
        FaultScheduleEvent::FailLink(l) => ("fail", l, None),
        FaultScheduleEvent::RepairLink(l) => ("repair", l, None),
    };
    let mut pairs: Vec<(&str, Value)> = vec![("op", op.into()), ("link", u64::from(link.0).into())];
    if let Some(s) = switch {
        pairs.push(("switch", u64::from(s).into()));
    }
    Value::obj(pairs)
}

fn schedule_event_from_json(v: &Value) -> Result<FaultScheduleEvent, String> {
    let link = LinkId(narrow(
        "fault event link",
        v["link"].as_u64().ok_or("fault event missing link")?,
    )?);
    let switch = match &v["switch"] {
        Value::Null => None,
        s => Some(
            s.as_u64()
                .and_then(|s| u8::try_from(s).ok())
                .filter(|&s| s >= 1)
                .ok_or("fault event switch must be in 1..=255")?,
        ),
    };
    match (v["op"].as_str(), switch) {
        (Some("fail"), Some(s)) => Ok(FaultScheduleEvent::FailLane(link, s)),
        (Some("repair"), Some(s)) => Ok(FaultScheduleEvent::RepairLane(link, s)),
        (Some("fail"), None) => Ok(FaultScheduleEvent::FailLink(link)),
        (Some("repair"), None) => Ok(FaultScheduleEvent::RepairLink(link)),
        (other, _) => Err(format!("unknown fault op {other:?}")),
    }
}

/// Serializes a dynamic fault schedule as pretty JSON
/// (`{"version": 1, "events": [[cycle, {"op", "link", "switch"?}], ...]}`;
/// no `"switch"` key means the whole link).
///
/// # Errors
/// Propagates I/O errors.
pub fn save_fault_schedule<W: Write>(
    schedule: &FaultSchedule,
    mut writer: W,
) -> std::io::Result<()> {
    let file = Value::obj(vec![
        ("version", VERSION.into()),
        (
            "events",
            timed_to_json(&schedule.events, schedule_event_to_json),
        ),
    ]);
    writer.write_all(file.pretty().as_bytes())
}

/// Deserializes a fault schedule saved by [`save_fault_schedule`].
///
/// # Errors
/// Fails on malformed JSON, an unknown version, a bad event, or a
/// time-unsorted schedule. Topology fit is checked separately with
/// [`FaultSchedule::validate`] (the file does not name its topology).
pub fn load_fault_schedule<R: Read>(mut reader: R) -> Result<FaultSchedule, String> {
    let mut text = String::new();
    reader
        .read_to_string(&mut text)
        .map_err(|e| format!("read failed: {e}"))?;
    let v = Value::parse(&text).map_err(|e| format!("malformed fault schedule: {e}"))?;
    let version = v["version"]
        .as_u64()
        .ok_or("malformed fault schedule: no version")?;
    if version != VERSION {
        return Err(format!(
            "unsupported fault schedule version {version} (expected {VERSION})"
        ));
    }
    let events = timed_from_json(&v["events"], "fault event", schedule_event_from_json)?;
    if !events.windows(2).all(|w| w[0].0 <= w[1].0) {
        return Err("fault schedule is not time-sorted".into());
    }
    Ok(FaultSchedule { events })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesim_topology::Topology;

    #[test]
    fn saved_artifacts_are_byte_stable() {
        // save -> load -> save must be byte-identical for every artifact
        // kind, so saved files are canonical and diffable.
        let topo = Topology::mesh(&[4, 4]);
        let sched = FaultSchedule::random_mtbf(&topo, 800, 200, 5_000, 9);
        assert!(!sched.is_empty());
        let mut first = Vec::new();
        save_fault_schedule(&sched, &mut first).unwrap();
        let mut second = Vec::new();
        save_fault_schedule(&load_fault_schedule(first.as_slice()).unwrap(), &mut second).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn fault_schedule_roundtrip_covers_all_variants() {
        let link = LinkId(4);
        let sched = FaultSchedule {
            events: vec![
                (1, FaultScheduleEvent::FailLane(link, 2)),
                (3, FaultScheduleEvent::FailLink(LinkId(9))),
                (7, FaultScheduleEvent::RepairLane(link, 2)),
                (9, FaultScheduleEvent::RepairLink(LinkId(9))),
            ],
        };
        let mut buf = Vec::new();
        save_fault_schedule(&sched, &mut buf).unwrap();
        let loaded = load_fault_schedule(buf.as_slice()).unwrap();
        assert_eq!(loaded, sched);
    }

    #[test]
    fn malformed_fault_schedules_rejected_not_panicking() {
        assert!(load_fault_schedule(&b"not json"[..]).is_err());
        assert!(load_fault_schedule(&b"{}"[..]).is_err());
        let bad_version = r#"{"version": 9, "events": []}"#;
        assert!(load_fault_schedule(bad_version.as_bytes())
            .unwrap_err()
            .contains("version"));
        let bad_op = r#"{"version": 1, "events": [[0, {"op": "explode", "link": 1}]]}"#;
        assert!(load_fault_schedule(bad_op.as_bytes())
            .unwrap_err()
            .contains("unknown fault op"));
        let zero_switch =
            r#"{"version": 1, "events": [[0, {"op": "fail", "link": 1, "switch": 0}]]}"#;
        assert!(load_fault_schedule(zero_switch.as_bytes()).is_err());
        // Link 2^32 + 1 must be refused, not narrowed to link 1.
        let wide_link =
            r#"{"version": 1, "events": [[0, {"op": "fail", "link": 4294967297, "switch": 1}]]}"#;
        assert!(load_fault_schedule(wide_link.as_bytes())
            .unwrap_err()
            .contains("link 4294967297"));
        let unsorted = concat!(
            r#"{"version": 1, "events": [[9, {"op": "fail", "link": 1}],"#,
            r#" [2, {"op": "repair", "link": 1}]]}"#
        );
        assert!(load_fault_schedule(unsorted.as_bytes())
            .unwrap_err()
            .contains("sorted"));
    }

    fn diamond() -> DepTrace {
        let mut trace = DepTraceBuilder::new();
        trace.push(Message::new(0, NodeId(0), NodeId(3), 8, 0), &[]);
        trace.push(Message::new(1, NodeId(3), NodeId(1), 8, 0), &[0]);
        trace.push(Message::new(2, NodeId(3), NodeId(2), 8, 0), &[0]);
        trace.push(Message::new(3, NodeId(1), NodeId(0), 8, 5), &[1, 2]);
        trace.build().unwrap()
    }

    #[test]
    fn dep_trace_roundtrips_in_both_formats() {
        let trace = diamond();
        let mut doc = Vec::new();
        save_dep_trace(&trace, &mut doc).unwrap();
        assert_eq!(load_dep_trace(doc.as_slice()).unwrap(), trace);

        let mut jsonl = Vec::new();
        save_dep_trace_jsonl(&trace, &mut jsonl).unwrap();
        assert_eq!(load_dep_trace(jsonl.as_slice()).unwrap(), trace);

        // save -> load -> save is byte-stable in both formats.
        let mut doc2 = Vec::new();
        save_dep_trace(&load_dep_trace(doc.as_slice()).unwrap(), &mut doc2).unwrap();
        assert_eq!(doc, doc2);
        let mut jsonl2 = Vec::new();
        save_dep_trace_jsonl(&load_dep_trace(jsonl.as_slice()).unwrap(), &mut jsonl2).unwrap();
        assert_eq!(jsonl, jsonl2);
    }

    #[test]
    fn cyclic_dep_trace_rejected_at_load() {
        let cyclic = concat!(
            r#"{"version": 1, "messages": ["#,
            r#"{"id":0,"src":0,"dest":1,"len":4,"created":0,"deps":[1]},"#,
            r#"{"id":1,"src":1,"dest":2,"len":4,"created":0,"deps":[0]}]}"#
        );
        let err = load_dep_trace(cyclic.as_bytes()).unwrap_err();
        assert!(err.contains("cyclic"), "{err}");
    }

    #[test]
    fn malformed_dep_traces_rejected_not_panicking() {
        assert!(load_dep_trace(&b""[..]).is_err());
        assert!(load_dep_trace(&b"not json"[..]).is_err());
        assert!(load_dep_trace(&b"{}"[..]).is_err());
        let bad_version = r#"{"version": 9, "messages": []}"#;
        assert!(load_dep_trace(bad_version.as_bytes())
            .unwrap_err()
            .contains("version"));
        let unknown_dep = r#"{"version": 1, "messages": [{"id":0,"src":0,"dest":1,"len":4,"created":0,"deps":[7]}]}"#;
        assert!(load_dep_trace(unknown_dep.as_bytes())
            .unwrap_err()
            .contains("unknown"));
        let dup = r#"{"version": 1, "messages": [{"id":0,"src":0,"dest":1,"len":4,"created":0},{"id":0,"src":1,"dest":2,"len":4,"created":0}]}"#;
        assert!(load_dep_trace(dup.as_bytes())
            .unwrap_err()
            .contains("duplicate"));
        let self_send =
            r#"{"version": 1, "messages": [{"id":0,"src":3,"dest":3,"len":4,"created":0}]}"#;
        assert!(load_dep_trace(self_send.as_bytes()).is_err());
        // A bare JSONL header is an empty trace; a bad body line errors.
        assert!(load_dep_trace(&b"{\"version\": 1}"[..]).unwrap().is_empty());
        let bad_line = "{\"version\": 1}\nnot json\n";
        assert!(load_dep_trace(bad_line.as_bytes())
            .unwrap_err()
            .contains("line 2"));
    }

    #[test]
    fn jsonl_errors_name_the_physical_line() {
        // Blank lines are skipped, not uncounted: the bad line is line 3.
        let err = load_dep_trace(&b"{\"version\":1}\n\nnot json"[..]).unwrap_err();
        assert!(err.starts_with("malformed trace line 3:"), "{err}");
        let self_send = concat!(
            "{\"version\": 1}\n",
            "{\"id\":0,\"src\":0,\"dest\":1,\"len\":4,\"created\":0}\n",
            "\n",
            "{\"id\":7,\"src\":3,\"dest\":3,\"len\":4,\"created\":0}\n",
        );
        assert_eq!(
            load_dep_trace(self_send.as_bytes()).unwrap_err(),
            "trace line 4 (id 7): self-send in trace"
        );
        let no_id = "{\"version\": 1}\n\n\n{\"src\":0,\"dest\":1,\"len\":4,\"created\":0}\n";
        assert_eq!(
            load_dep_trace(no_id.as_bytes()).unwrap_err(),
            "trace line 4: message missing id"
        );
    }

    #[test]
    fn document_errors_name_the_index_and_id() {
        let zero_len = concat!(
            r#"{"version": 1, "messages": ["#,
            r#"{"id":0,"src":0,"dest":1,"len":4,"created":0},"#,
            r#"{"id":5,"src":1,"dest":2,"len":0,"created":0}]}"#
        );
        assert_eq!(
            load_dep_trace(zero_len.as_bytes()).unwrap_err(),
            "messages[1] (id 5): message length must be >= 1"
        );
        let bad_deps = r#"{"version": 1, "messages": [{"id":9,"src":0,"dest":1,"len":4,"created":0,"deps":3}]}"#;
        assert_eq!(
            load_dep_trace(bad_deps.as_bytes()).unwrap_err(),
            "messages[0] (id 9): deps must be an array"
        );
        let self_send = concat!(
            r#"{"version": 1, "messages": ["#,
            r#"{"id":0,"src":0,"dest":1,"len":4,"created":0},"#,
            r#"{"id":1,"src":1,"dest":2,"len":4,"created":0},"#,
            r#"{"id":2,"src":2,"dest":2,"len":4,"created":0}]}"#
        );
        assert_eq!(
            load_dep_trace(self_send.as_bytes()).unwrap_err(),
            "messages[2] (id 2): self-send in trace"
        );
    }

    #[test]
    fn hostile_values_rejected_not_panicking() {
        // Zero-length and self-send messages must be load errors, not
        // assertion failures inside Message::new.
        let zero_len =
            r#"{"version": 1, "messages": [{"id":1,"src":0,"dest":1,"len":0,"created":0}]}"#;
        assert!(load_dep_trace(zero_len.as_bytes()).is_err());
        let self_send =
            "{\"version\": 1}\n{\"id\":1,\"src\":3,\"dest\":3,\"len\":4,\"created\":0}\n";
        assert!(load_dep_trace(self_send.as_bytes()).is_err());
        // Node 2^32 must be refused, not narrowed to node 0.
        let wide_src = r#"{"version": 1, "messages": [{"id":1,"src":4294967296,"dest":1,"len":4,"created":0}]}"#;
        assert!(load_dep_trace(wide_src.as_bytes())
            .unwrap_err()
            .contains("src 4294967296"));
    }
}
