//! Stall post-mortem bundles.
//!
//! When the deadlock detector trips mid-run, counters tell you *that* the
//! network froze; the interesting artifact is the event order leading into
//! the freeze plus the wait-for graph at the moment of death. [`bundle`]
//! packages both as one JSON document:
//!
//! ```json
//! {
//!   "kind": "wavesim-postmortem",
//!   "version": 1,
//!   "at": 18230,
//!   "stall_age": 20000,
//!   "in_flight_flits": 412,
//!   "wait_for": { "edges": [[[3,1],[7,0]], ...], "cycle": [[3,1],...] },
//!   "recorder": { "total": 99182, "dropped": 33646, "records": [...] }
//! }
//! ```
//!
//! Wait-for vertices are `[link, lane]` pairs (the fabric's `WaitVc`
//! encoding, passed here as raw integers to keep this crate below
//! `wavesim-core`). Each record carries its cycle, global sequence number,
//! the [`TraceEvent::kind`] tag, and the event's fields.

use wavesim_json::Value;

use crate::stream::encode_record;
use crate::{TraceEvent, TraceRecord};

/// A wait-for-graph vertex as raw integers: `(link id, virtual lane)`.
pub type RawWaitVc = (u32, u16);

fn vc_json(vc: RawWaitVc) -> Value {
    Value::Arr(vec![vc.0.into(), u64::from(vc.1).into()])
}

/// One trace record as `{at, seq, type, ...fields}`: the JSONL line of
/// [`encode_record`], parsed. The bundle is a cold path, so it pays for a
/// parse rather than keep a second encoder in step with the first.
#[must_use]
pub fn record_to_json(rec: &TraceRecord) -> Value {
    let mut line = String::new();
    encode_record(&mut line, rec);
    Value::parse(&line).expect("encode_record writes one valid JSON object")
}

/// The fabric's state at the moment the stall watchdog fired.
#[derive(Debug, Clone, Copy, Default)]
pub struct StallContext<'a> {
    /// Wait-for-graph edges: `(waiter, holder)` pairs.
    pub edges: &'a [(RawWaitVc, RawWaitVc)],
    /// The wait cycle the detector found, if any.
    pub cycle: Option<&'a [RawWaitVc]>,
    /// Cycle the dump was taken at.
    pub now: u64,
    /// Cycles since the fabric last made forward progress.
    pub stall_age: u64,
    /// Flits stuck in the fabric at dump time.
    pub in_flight: u64,
}

/// Builds the post-mortem JSON document.
///
/// `records` is the recorder snapshot (oldest first), `dropped`/`total`
/// the recorder's loss accounting, and `ctx` the fabric state at the
/// moment the watchdog fired.
#[must_use]
pub fn bundle(records: &[TraceRecord], dropped: u64, total: u64, ctx: &StallContext) -> Value {
    let edges_json: Vec<Value> = ctx
        .edges
        .iter()
        .map(|&(a, b)| Value::Arr(vec![vc_json(a), vc_json(b)]))
        .collect();
    let cycle_json = match ctx.cycle {
        Some(vcs) => Value::Arr(vcs.iter().copied().map(vc_json).collect()),
        None => Value::Null,
    };
    // Headline latency summary over the deliveries the recorder still
    // holds: bucket-interpolated percentiles, not a raw bucket dump.
    let mut lat = wavesim_sim::stats::Histogram::new();
    for rec in records {
        if let TraceEvent::WormholeDeliver { latency, .. }
        | TraceEvent::CircuitDeliver { latency, .. } = rec.ev
        {
            lat.record(latency);
        }
    }
    Value::obj(vec![
        ("kind", "wavesim-postmortem".into()),
        ("version", 1u64.into()),
        ("at", ctx.now.into()),
        ("stall_age", ctx.stall_age.into()),
        ("in_flight_flits", ctx.in_flight.into()),
        (
            "latency",
            Value::obj(vec![
                ("delivered", lat.count().into()),
                ("mean", lat.mean().into()),
                ("p50", lat.p50().unwrap_or(0.0).into()),
                ("p95", lat.p95().unwrap_or(0.0).into()),
                ("p99", lat.p99().unwrap_or(0.0).into()),
            ]),
        ),
        (
            "wait_for",
            Value::obj(vec![
                ("edges", Value::Arr(edges_json)),
                ("cycle", cycle_json),
            ]),
        ),
        (
            "recorder",
            Value::obj(vec![
                ("total", total.into()),
                ("dropped", dropped.into()),
                (
                    "records",
                    Value::Arr(records.iter().map(record_to_json).collect()),
                ),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_shape_roundtrips() {
        let records = vec![TraceRecord {
            at: 100,
            seq: 7,
            ev: TraceEvent::ProbeBacktrack {
                circuit: 3,
                probe: 9,
                node: 4,
            },
        }];
        let edges = vec![((0u32, 0u16), (1u32, 1u16)), ((1, 1), (0, 0))];
        let cycle = vec![(0u32, 0u16), (1, 1)];
        let ctx = StallContext {
            edges: &edges,
            cycle: Some(&cycle),
            now: 20100,
            stall_age: 20000,
            in_flight: 37,
        };
        let doc = bundle(&records, 5, 6, &ctx);
        let reparsed = Value::parse(&doc.pretty()).expect("parses");
        assert_eq!(reparsed["kind"], "wavesim-postmortem");
        assert_eq!(reparsed["version"].as_u64(), Some(1));
        assert_eq!(reparsed["at"].as_u64(), Some(20100));
        assert_eq!(reparsed["wait_for"]["edges"].as_array().unwrap().len(), 2);
        assert_eq!(reparsed["wait_for"]["cycle"][1][1].as_u64(), Some(1));
        let rec = &reparsed["recorder"]["records"][0];
        assert_eq!(rec["type"], "probe_backtrack");
        assert_eq!(rec["at"].as_u64(), Some(100));
        assert_eq!(rec["seq"].as_u64(), Some(7));
        assert_eq!(rec["node"].as_u64(), Some(4));
        assert_eq!(reparsed["recorder"]["dropped"].as_u64(), Some(5));
    }

    #[test]
    fn no_cycle_is_null() {
        let ctx = StallContext {
            now: 1,
            stall_age: 2,
            in_flight: 3,
            ..StallContext::default()
        };
        let doc = bundle(&[], 0, 0, &ctx);
        assert_eq!(doc["wait_for"]["cycle"], Value::Null);
        assert!(doc["recorder"]["records"].as_array().unwrap().is_empty());
    }

    #[test]
    fn every_event_kind_serializes() {
        for (i, ev) in crate::every_event(1 << 53).iter().enumerate() {
            let rec = TraceRecord {
                at: i as u64,
                seq: i as u64,
                ev: *ev,
            };
            let json = record_to_json(&rec);
            assert_eq!(json["type"].as_str(), Some(ev.kind()), "event {i}");
            let reparsed = Value::parse(&json.compact()).expect("valid json");
            assert_eq!(reparsed["at"].as_u64(), Some(i as u64));
        }
    }
}
