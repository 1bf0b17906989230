//! Input persistence: save/load dependency traces, static fault plans and
//! timed fault schedules as versioned JSON, so experiment inputs are
//! shareable, versionable artifacts. Loading validates: a malformed or
//! hostile file is an error naming what was wrong, never a panic.

use std::io::{Read, Write};

use wavesim_json::Value;
use wavesim_network::Message;
use wavesim_sim::Cycle;
use wavesim_topology::NodeId;

use wavesim_topology::LinkId;

use crate::deptrace::{DepMessage, DepTrace};
use crate::faults::{FaultPlan, FaultSchedule, FaultScheduleEvent};

const VERSION: u64 = 1;

fn message_from_json(v: &Value) -> Result<Message, String> {
    let field = |k: &str| v[k].as_u64().ok_or_else(|| format!("message missing {k}"));
    let src = field("src")? as u32;
    let dest = field("dest")? as u32;
    let len = field("len")? as u32;
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

fn dep_message_to_json(m: &DepMessage) -> Value {
    let mut pairs = vec![
        ("id", m.msg.id.0.into()),
        ("src", u64::from(m.msg.src.0).into()),
        ("dest", u64::from(m.msg.dest.0).into()),
        ("len", m.msg.len_flits.into()),
        ("created", m.msg.created_at.into()),
    ];
    if !m.deps.is_empty() {
        pairs.push((
            "deps",
            Value::Arr(m.deps.iter().map(|&d| d.into()).collect()),
        ));
    }
    Value::obj(pairs)
}

fn dep_message_from_json(v: &Value) -> Result<DepMessage, String> {
    let msg = message_from_json(v)?;
    let deps = match &v["deps"] {
        Value::Null => Vec::new(),
        d => {
            let items = d.as_array().ok_or("deps must be an array")?;
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                out.push(item.as_u64().ok_or("deps entries must be message ids")?);
            }
            out
        }
    };
    Ok(DepMessage { msg, deps })
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
            Value::Arr(trace.messages.iter().map(dep_message_to_json).collect()),
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
    for m in &trace.messages {
        writeln!(writer, "{}", dep_message_to_json(m).compact())?;
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
/// (zero length, self-send), or a broken dependency graph.
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
    let messages = if let Ok(doc) = Value::parse(&text) {
        // Whole-document form: {"version", "messages": [...]}. A bare
        // {"version"} (a JSONL header with no message lines) is an empty
        // trace.
        check_version(&doc)?;
        match &doc["messages"] {
            Value::Null => Vec::new(),
            m => {
                let items = m.as_array().ok_or("messages must be an array")?;
                items
                    .iter()
                    .map(dep_message_from_json)
                    .collect::<Result<Vec<_>, _>>()?
            }
        }
    } else {
        // JSONL form: header line, then one message object per line.
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or("empty dependency trace")?;
        let hv =
            Value::parse(header).map_err(|e| format!("malformed dependency trace header: {e}"))?;
        check_version(&hv)?;
        let mut out = Vec::new();
        for (i, line) in lines.enumerate() {
            let v =
                Value::parse(line).map_err(|e| format!("malformed trace line {}: {e}", i + 2))?;
            out.push(dep_message_from_json(&v)?);
        }
        out
    };
    DepTrace::new(messages)
}

/// Serializes a fault plan as pretty JSON
/// (`{"version": 1, "lanes": [[link, switch], ...]}`).
///
/// # Errors
/// Propagates I/O errors.
pub fn save_fault_plan<W: Write>(plan: &FaultPlan, mut writer: W) -> std::io::Result<()> {
    let lanes: Vec<Value> = plan
        .lanes
        .iter()
        .map(|(l, s)| Value::Arr(vec![u64::from(l.0).into(), u64::from(*s).into()]))
        .collect();
    let file = Value::obj(vec![
        ("version", VERSION.into()),
        ("lanes", Value::Arr(lanes)),
    ]);
    writer.write_all(file.pretty().as_bytes())
}

/// Deserializes a fault plan saved by [`save_fault_plan`].
///
/// # Errors
/// Fails on malformed JSON, an unknown version, or an invalid lane
/// (switch indices are 1-based and must fit in a `u8`).
pub fn load_fault_plan<R: Read>(mut reader: R) -> Result<FaultPlan, String> {
    let mut text = String::new();
    reader
        .read_to_string(&mut text)
        .map_err(|e| format!("read failed: {e}"))?;
    let v = Value::parse(&text).map_err(|e| format!("malformed fault plan: {e}"))?;
    let version = v["version"]
        .as_u64()
        .ok_or("malformed fault plan: no version")?;
    if version != VERSION {
        return Err(format!(
            "unsupported fault plan version {version} (expected {VERSION})"
        ));
    }
    let entries = v["lanes"]
        .as_array()
        .ok_or("fault plan lanes must be an array")?;
    let mut lanes = Vec::with_capacity(entries.len());
    for item in entries {
        let pair = item
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or("each lane must be a [link, switch] pair")?;
        let link = pair[0].as_u64().ok_or("bad lane link")? as u32;
        let switch = pair[1]
            .as_u64()
            .filter(|&s| (1..=u64::from(u8::MAX)).contains(&s))
            .ok_or("lane switch must be in 1..=255")? as u8;
        lanes.push((LinkId(link), switch));
    }
    Ok(FaultPlan { lanes })
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
    let link = LinkId(v["link"].as_u64().ok_or("fault event missing link")? as u32);
    let switch = match &v["switch"] {
        Value::Null => None,
        s => Some(
            s.as_u64()
                .filter(|&s| (1..=u64::from(u8::MAX)).contains(&s))
                .ok_or("fault event switch must be in 1..=255")? as u8,
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
    fn fault_plan_roundtrip() {
        let topo = Topology::mesh(&[8, 8]);
        let plan = FaultPlan::random_lanes(&topo, 2, 0.2, 5);
        assert!(!plan.is_empty());
        let mut buf = Vec::new();
        save_fault_plan(&plan, &mut buf).unwrap();
        let loaded = load_fault_plan(buf.as_slice()).unwrap();
        assert_eq!(loaded, plan);
    }

    #[test]
    fn saved_artifacts_are_byte_stable() {
        // save -> load -> save must be byte-identical for every artifact
        // kind, so saved files are canonical and diffable.
        let topo = Topology::mesh(&[4, 4]);

        let plan = FaultPlan::random_lanes(&topo, 3, 0.3, 9);
        let mut first = Vec::new();
        save_fault_plan(&plan, &mut first).unwrap();
        let mut second = Vec::new();
        save_fault_plan(&load_fault_plan(first.as_slice()).unwrap(), &mut second).unwrap();
        assert_eq!(first, second);

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
        let unsorted = concat!(
            r#"{"version": 1, "events": [[9, {"op": "fail", "link": 1}],"#,
            r#" [2, {"op": "repair", "link": 1}]]}"#
        );
        assert!(load_fault_schedule(unsorted.as_bytes())
            .unwrap_err()
            .contains("sorted"));
    }

    #[test]
    fn malformed_fault_plans_rejected_not_panicking() {
        assert!(load_fault_plan(&b"not json"[..]).is_err());
        assert!(load_fault_plan(&b"{}"[..]).is_err());
        let bad_version = r#"{"version": 9, "lanes": []}"#;
        assert!(load_fault_plan(bad_version.as_bytes())
            .unwrap_err()
            .contains("version"));
        // Switch 0 would trip LaneId::new's 1-based assertion downstream;
        // it must be a load error here instead.
        let zero_switch = r#"{"version": 1, "lanes": [[3, 0]]}"#;
        assert!(load_fault_plan(zero_switch.as_bytes()).is_err());
        let wide_switch = r#"{"version": 1, "lanes": [[3, 300]]}"#;
        assert!(load_fault_plan(wide_switch.as_bytes()).is_err());
        let not_a_pair = r#"{"version": 1, "lanes": [[3]]}"#;
        assert!(load_fault_plan(not_a_pair.as_bytes()).is_err());
    }

    fn diamond() -> DepTrace {
        DepTrace::new(vec![
            DepMessage {
                msg: Message::new(0, NodeId(0), NodeId(3), 8, 0),
                deps: vec![],
            },
            DepMessage {
                msg: Message::new(1, NodeId(3), NodeId(1), 8, 0),
                deps: vec![0],
            },
            DepMessage {
                msg: Message::new(2, NodeId(3), NodeId(2), 8, 0),
                deps: vec![0],
            },
            DepMessage {
                msg: Message::new(3, NodeId(1), NodeId(0), 8, 5),
                deps: vec![1, 2],
            },
        ])
        .unwrap()
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
    fn hostile_values_rejected_not_panicking() {
        // Zero-length and self-send messages must be load errors, not
        // assertion failures inside Message::new.
        let zero_len =
            r#"{"version": 1, "messages": [{"id":1,"src":0,"dest":1,"len":0,"created":0}]}"#;
        assert!(load_dep_trace(zero_len.as_bytes()).is_err());
        let self_send =
            "{\"version\": 1}\n{\"id\":1,\"src\":3,\"dest\":3,\"len\":4,\"created\":0}\n";
        assert!(load_dep_trace(self_send.as_bytes()).is_err());
    }
}
