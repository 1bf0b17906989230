//! Report rendering: human tables and the machine JSON document.
//!
//! Formatting is deliberately boring and fully deterministic — fixed
//! float precision, total sort orders upstream — so a 2×2 golden report
//! can be byte-compared across `--jobs` settings in the test suite.

use wavesim_json::table::{f2, f3, pct, Table};
use wavesim_json::Value;
use wavesim_sim::stats::Histogram;

use crate::spans::SpanMode;
use crate::{series, Analysis};

fn flow_key(src: u32, dest: u32) -> String {
    format!("{src}->{dest}")
}

/// Builds the report's tables, in print order.
#[must_use]
pub fn tables(a: &Analysis) -> Vec<Table> {
    let s = &a.summary;
    let mut out = Vec::new();

    let mut t = Table::new("A1", "run summary", &["metric", "value"]);
    let mut kv = |k: &str, v: String| t.push(vec![k.to_string(), v]);
    kv("trace records", s.records.to_string());
    if a.sample_factor != 1 {
        kv(
            "sample factor",
            format!("1/{} (sampled kinds rescaled)", a.sample_factor),
        );
    }
    kv("cycles", format!("{}..{}", s.first_at, s.last_at));
    kv("nodes", a.nodes.to_string());
    kv("delivered", s.delivered.to_string());
    kv("  circuit", s.circuit_msgs.to_string());
    kv("  wormhole", s.wormhole_msgs.to_string());
    kv("  fallback", s.fallback_msgs.to_string());
    kv("in flight at end", s.in_flight.to_string());
    kv("flits delivered", s.flits.to_string());
    kv("mean latency (cycles)", f2(s.mean_latency));
    kv(
        "p50 / p95 / p99",
        format!("{} / {} / {}", f2(s.p50), f2(s.p95), f2(s.p99)),
    );
    out.push(t);

    let mut t = Table::new(
        "A2",
        "latency waterfall by transport",
        &[
            "transport",
            "msgs",
            "setup",
            "queue",
            "transit",
            "p50",
            "p99",
        ],
    );
    for mode in [SpanMode::Circuit, SpanMode::Fallback, SpanMode::Wormhole] {
        let mut hist = Histogram::new();
        let (mut n, mut setup, mut queue, mut transit) = (0u64, 0u64, 0u64, 0u64);
        for sp in a.spans.spans.iter().filter(|sp| sp.mode == mode) {
            hist.record(sp.latency());
            n += 1;
            setup = setup.saturating_add(sp.setup);
            queue = queue.saturating_add(sp.queue);
            transit = transit.saturating_add(sp.transit);
        }
        if n == 0 {
            continue;
        }
        let per = |x: u64| f2(x as f64 / n as f64);
        t.push(vec![
            mode.name().to_string(),
            n.to_string(),
            per(setup),
            per(queue),
            per(transit),
            f2(hist.p50().unwrap_or(0.0)),
            f2(hist.p99().unwrap_or(0.0)),
        ]);
    }
    out.push(t);

    let mut t = Table::new(
        "A3",
        "hottest flows (circuit-cache attribution)",
        &[
            "flow",
            "msgs",
            "mean lat",
            "hit rate",
            "hits",
            "misses",
            "evicted",
            "force",
            "chain",
            "retry wait",
        ],
    );
    for f in a.flows.iter().take(a.top_k) {
        t.push(vec![
            flow_key(f.src, f.dest),
            f.delivered.to_string(),
            f2(f.mean_latency()),
            pct(f.hit_rate()),
            f.cache_hits.to_string(),
            f.cache_misses.to_string(),
            f.evictions_suffered.to_string(),
            f.force_launches.to_string(),
            f.victim_chain.to_string(),
            f.retry_wait.to_string(),
        ]);
    }
    out.push(t);

    let total_held = a
        .lanes
        .iter()
        .fold(0u64, |sum, l| sum.saturating_add(l.held_cycles));
    let mut t = Table::new(
        "A4",
        "hottest wave lanes (reservation occupancy)",
        &["lane (link,switch)", "reservations", "held cycles", "share"],
    );
    for l in a.lanes.iter().take(a.top_k) {
        let share = if total_held == 0 {
            0.0
        } else {
            l.held_cycles as f64 / total_held as f64
        };
        t.push(vec![
            format!("({},{})", l.link, l.switch),
            l.reservations.to_string(),
            l.held_cycles.to_string(),
            pct(share),
        ]);
    }
    out.push(t);

    if !a.faults.is_empty() {
        let mut t = Table::new(
            "A5",
            "fault impact windows (delivered/cycle @ mean latency, over actual window length)",
            &["lane", "fault", "repair", "before", "during", "after"],
        );
        // Windows clamp at cycle 0, the trace end, and the lane's next
        // fault, so raw counts are not comparable — rates over the
        // window's actual length are.
        let phase = |p: &crate::PhaseStats| {
            format!("{} @ {} ({}cy)", f3(p.rate()), f2(p.mean_latency), p.len())
        };
        for f in &a.faults {
            t.push(vec![
                format!("({},{})", f.link, f.switch),
                f.fault_at.to_string(),
                f.repair_at
                    .map_or_else(|| "-".to_string(), |r| r.to_string()),
                phase(&f.before),
                phase(&f.during),
                f.after.as_ref().map_or_else(|| "-".to_string(), &phase),
            ]);
        }
        out.push(t);
    }
    out
}

/// Renders the whole human-readable report.
#[must_use]
pub fn render(a: &Analysis) -> String {
    tables(a)
        .iter()
        .map(Table::render)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Builds the machine-readable JSON document (`wavesim analyze --json`).
#[must_use]
pub fn to_json(a: &Analysis) -> Value {
    let s = &a.summary;
    let mut summary_rows = vec![
        ("records", s.records.into()),
        ("first_at", s.first_at.into()),
        ("last_at", s.last_at.into()),
        ("nodes", a.nodes.into()),
        ("delivered", s.delivered.into()),
        ("circuit_msgs", s.circuit_msgs.into()),
        ("wormhole_msgs", s.wormhole_msgs.into()),
        ("fallback_msgs", s.fallback_msgs.into()),
        ("in_flight", s.in_flight.into()),
        ("flits", s.flits.into()),
        ("mean_latency", s.mean_latency.into()),
        ("p50", s.p50.into()),
        ("p95", s.p95.into()),
        ("p99", s.p99.into()),
        ("mean_setup", s.mean_setup.into()),
        ("mean_queue", s.mean_queue.into()),
        ("mean_transit", s.mean_transit.into()),
    ];
    if a.sample_factor != 1 {
        summary_rows.insert(1, ("sample_factor", a.sample_factor.into()));
    }
    let summary = Value::obj(summary_rows);
    let flows = Value::Arr(
        a.flows
            .iter()
            .map(|f| {
                Value::obj([
                    ("src", f.src.into()),
                    ("dest", f.dest.into()),
                    ("delivered", f.delivered.into()),
                    ("circuit_msgs", f.circuit_msgs.into()),
                    ("fallback_msgs", f.fallback_msgs.into()),
                    ("wormhole_msgs", f.wormhole_msgs.into()),
                    ("flits", f.flits.into()),
                    ("mean_latency", f.mean_latency().into()),
                    (
                        "mean_setup",
                        (if f.delivered == 0 {
                            0.0
                        } else {
                            f.setup_sum as f64 / f.delivered as f64
                        })
                        .into(),
                    ),
                    (
                        "mean_queue",
                        (if f.delivered == 0 {
                            0.0
                        } else {
                            f.queue_sum as f64 / f.delivered as f64
                        })
                        .into(),
                    ),
                    (
                        "mean_transit",
                        (if f.delivered == 0 {
                            0.0
                        } else {
                            f.transit_sum as f64 / f.delivered as f64
                        })
                        .into(),
                    ),
                    ("cache_hits", f.cache_hits.into()),
                    ("cache_misses", f.cache_misses.into()),
                    ("hit_rate", f.hit_rate().into()),
                    ("evictions_suffered", f.evictions_suffered.into()),
                    ("force_launches", f.force_launches.into()),
                    ("parks", f.parks.into()),
                    ("victim_chain", f.victim_chain.into()),
                    ("retries", f.retries.into()),
                    ("retry_wait", f.retry_wait.into()),
                ])
            })
            .collect(),
    );
    let lanes = Value::Arr(
        a.lanes
            .iter()
            .map(|l| {
                Value::obj([
                    ("link", l.link.into()),
                    ("switch", u32::from(l.switch).into()),
                    ("reservations", l.reservations.into()),
                    ("held_cycles", l.held_cycles.into()),
                ])
            })
            .collect(),
    );
    let phase_json = |p: &crate::PhaseStats| {
        Value::obj([
            ("from", p.from.into()),
            ("to", p.to.into()),
            ("length", p.len().into()),
            ("delivered", p.delivered.into()),
            ("rate", p.rate().into()),
            ("mean_latency", p.mean_latency.into()),
        ])
    };
    let faults = Value::Arr(
        a.faults
            .iter()
            .map(|f| {
                Value::obj([
                    ("link", f.link.into()),
                    ("switch", u32::from(f.switch).into()),
                    ("fault_at", f.fault_at.into()),
                    ("repair_at", f.repair_at.map_or(Value::Null, Value::from)),
                    ("before", phase_json(&f.before)),
                    ("during", phase_json(&f.during)),
                    ("after", f.after.as_ref().map_or(Value::Null, &phase_json)),
                ])
            })
            .collect(),
    );
    Value::obj([
        ("summary", summary),
        ("flows", flows),
        ("lanes", lanes),
        ("faults", faults),
        ("timeseries", series::to_json(&a.series, a.nodes)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, AnalyzeOptions};
    use wavesim_trace::{TraceEvent, TraceRecord};

    fn rec(at: u64, seq: u64, ev: TraceEvent) -> TraceRecord {
        TraceRecord { at, seq, ev }
    }

    fn sample() -> Vec<TraceRecord> {
        vec![
            rec(0, 0, TraceEvent::CacheMiss { node: 0, dest: 3 }),
            rec(
                0,
                1,
                TraceEvent::ProbeLaunch {
                    circuit: 1,
                    src: 0,
                    dest: 3,
                    switch: 1,
                    force: false,
                },
            ),
            rec(
                1,
                2,
                TraceEvent::ProbeHop {
                    circuit: 1,
                    probe: 9,
                    node: 1,
                    link: 0,
                    misroute: false,
                },
            ),
            rec(
                3,
                3,
                TraceEvent::CircuitEstablished {
                    circuit: 1,
                    src: 0,
                    dest: 3,
                    hops: 1,
                },
            ),
            rec(
                4,
                4,
                TraceEvent::TransferStart {
                    circuit: 1,
                    msg: 1,
                    src: 0,
                    dest: 3,
                    len_flits: 8,
                },
            ),
            rec(
                12,
                5,
                TraceEvent::CircuitDeliver {
                    msg: 1,
                    src: 0,
                    dest: 3,
                    latency: 12,
                },
            ),
            rec(20, 6, TraceEvent::LaneFault { link: 0, switch: 1 }),
            rec(25, 7, TraceEvent::LaneRepair { link: 0, switch: 1 }),
            rec(30, 8, TraceEvent::CircuitReleased { circuit: 1 }),
        ]
    }

    #[test]
    fn report_is_deterministic_and_complete() {
        let a = analyze(&sample(), AnalyzeOptions::default());
        let r1 = render(&a);
        let r2 = render(&analyze(&sample(), AnalyzeOptions::default()));
        assert_eq!(r1, r2);
        for id in ["A1", "A2", "A3", "A4", "A5"] {
            assert!(
                r1.contains(&format!("== {id}:")),
                "missing table {id}\n{r1}"
            );
        }
        assert!(r1.contains("0->3"));
    }

    #[test]
    fn sample_factor_is_stamped_only_when_sampled() {
        let unsampled = analyze(&sample(), AnalyzeOptions::default());
        let r = render(&unsampled);
        assert!(
            !r.contains("sample factor"),
            "unsampled report is unchanged"
        );
        assert!(to_json(&unsampled)
            .get("summary")
            .and_then(|s| s.get("sample_factor"))
            .is_none());

        // Eighty more misses of the one flow after the sample, so the
        // sampler keeps 11 of the 82 bulk records: every eighth.
        let mut recs = sample();
        for i in 0..80 {
            recs.push(rec(
                31 + i,
                9 + i,
                TraceEvent::CacheMiss { node: 0, dest: 3 },
            ));
        }
        let kept = crate::live::tests::thinned(&recs, 8);
        assert!(kept.len() < recs.len());
        let sampled = analyze(&kept, AnalyzeOptions::default());
        let r = render(&sampled);
        assert!(r.contains("sample factor"), "{r}");
        assert!(r.contains("1/8 (sampled kinds rescaled)"), "{r}");
        assert_eq!(
            to_json(&sampled)
                .get("summary")
                .and_then(|s| s.get("sample_factor"))
                .and_then(Value::as_u64),
            Some(8)
        );
        // Sampled-kind counts (cache hits/misses) are rescaled by the
        // factor; exact-kind counts (deliveries) are not.
        let f = &sampled.flows[0];
        assert_eq!(f.cache_misses, 88, "11 kept misses × factor 8");
        assert_eq!(f.delivered, 1, "deliveries are never sampled");
    }

    #[test]
    fn json_document_carries_every_section() {
        let a = analyze(&sample(), AnalyzeOptions::default());
        let doc = to_json(&a);
        assert_eq!(
            doc.get("summary")
                .and_then(|s| s.get("delivered"))
                .and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(
            doc.get("flows").and_then(Value::as_array).map(<[_]>::len),
            Some(1)
        );
        assert_eq!(
            doc.get("faults").and_then(Value::as_array).map(<[_]>::len),
            Some(1)
        );
        assert!(doc.get("timeseries").and_then(Value::as_array).is_some());
        // Round-trips through the parser.
        let text = doc.pretty();
        assert!(Value::parse(&text).is_ok());
    }
}
