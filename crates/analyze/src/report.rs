//! Report rendering: human tables and the machine JSON document.
//!
//! Formatting is deliberately boring and fully deterministic — fixed
//! float precision, total sort orders upstream — so a 2×2 golden report
//! can be byte-compared across `--jobs` settings in the test suite.
//!
//! The JSON document is written, not built: [`to_json`] is a view of the
//! analysis whose [`Document::pretty`] walks it straight through one
//! [`Writer`], so a flow or a lane costs no heap block of its own.

use wavesim_json::table::{f2, f3, pct, Table};
use wavesim_json::Writer;
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

/// The machine-readable JSON document (`wavesim analyze --json`) of `a`:
/// a view that writes it on demand.
#[must_use]
pub fn to_json(a: &Analysis) -> Document<'_> {
    Document(a)
}

/// The JSON document of an [`Analysis`]: `summary`, `flows`, `lanes`,
/// `faults` and `timeseries`, in that order.
#[derive(Debug, Clone, Copy)]
pub struct Document<'a>(&'a Analysis);

impl Document<'_> {
    /// The document with two-space indentation.
    #[must_use]
    pub fn pretty(&self) -> String {
        let a = self.0;
        let mut out = String::new();
        Writer::pretty(&mut out).obj(|w| {
            w.key("summary").obj(|w| write_summary(w, a));
            w.key("flows").arr(|w| {
                for f in &a.flows {
                    w.item().obj(|w| write_flow(w, f));
                }
            });
            w.key("lanes").arr(|w| {
                for l in &a.lanes {
                    w.item().obj(|w| {
                        w.key("link").u64(l.link.into());
                        w.key("switch").u64(l.switch.into());
                        w.key("reservations").u64(l.reservations);
                        w.key("held_cycles").u64(l.held_cycles);
                    });
                }
            });
            w.key("faults").arr(|w| {
                for f in &a.faults {
                    w.item().obj(|w| write_fault(w, f));
                }
            });
            series::write_json(w.key("timeseries"), &a.series, a.nodes);
        });
        out
    }
}

fn write_summary(w: &mut Writer<'_>, a: &Analysis) {
    let s = &a.summary;
    w.key("records").u64(s.records);
    if a.sample_factor != 1 {
        w.key("sample_factor").u64(a.sample_factor);
    }
    w.key("first_at").u64(s.first_at);
    w.key("last_at").u64(s.last_at);
    w.key("nodes").u64(a.nodes);
    w.key("delivered").u64(s.delivered);
    w.key("circuit_msgs").u64(s.circuit_msgs);
    w.key("wormhole_msgs").u64(s.wormhole_msgs);
    w.key("fallback_msgs").u64(s.fallback_msgs);
    w.key("in_flight").u64(s.in_flight);
    w.key("flits").u64(s.flits);
    w.key("mean_latency").f64(s.mean_latency);
    w.key("p50").f64(s.p50);
    w.key("p95").f64(s.p95);
    w.key("p99").f64(s.p99);
    w.key("mean_setup").f64(s.mean_setup);
    w.key("mean_queue").f64(s.mean_queue);
    w.key("mean_transit").f64(s.mean_transit);
}

fn write_flow(w: &mut Writer<'_>, f: &crate::FlowStats) {
    // A flow with no deliveries has a mean of 0, not a division by zero.
    let per_msg = |sum: u64| {
        if f.delivered == 0 {
            0.0
        } else {
            sum as f64 / f.delivered as f64
        }
    };
    w.key("src").u64(f.src.into());
    w.key("dest").u64(f.dest.into());
    w.key("delivered").u64(f.delivered);
    w.key("circuit_msgs").u64(f.circuit_msgs);
    w.key("fallback_msgs").u64(f.fallback_msgs);
    w.key("wormhole_msgs").u64(f.wormhole_msgs);
    w.key("flits").u64(f.flits);
    w.key("mean_latency").f64(f.mean_latency());
    w.key("mean_setup").f64(per_msg(f.setup_sum));
    w.key("mean_queue").f64(per_msg(f.queue_sum));
    w.key("mean_transit").f64(per_msg(f.transit_sum));
    w.key("cache_hits").u64(f.cache_hits);
    w.key("cache_misses").u64(f.cache_misses);
    w.key("hit_rate").f64(f.hit_rate());
    w.key("evictions_suffered").u64(f.evictions_suffered);
    w.key("force_launches").u64(f.force_launches);
    w.key("parks").u64(f.parks);
    w.key("victim_chain").u64(f.victim_chain.into());
    w.key("retries").u64(f.retries);
    w.key("retry_wait").u64(f.retry_wait);
}

fn write_fault(w: &mut Writer<'_>, f: &crate::FaultImpact) {
    let phase = |w: &mut Writer<'_>, p: &crate::PhaseStats| {
        w.obj(|w| {
            w.key("from").u64(p.from);
            w.key("to").u64(p.to);
            w.key("length").u64(p.len());
            w.key("delivered").u64(p.delivered);
            w.key("rate").f64(p.rate());
            w.key("mean_latency").f64(p.mean_latency);
        });
    };
    w.key("link").u64(f.link.into());
    w.key("switch").u64(f.switch.into());
    w.key("fault_at").u64(f.fault_at);
    match f.repair_at {
        Some(r) => w.key("repair_at").u64(r),
        None => w.key("repair_at").null(),
    }
    phase(w.key("before"), &f.before);
    phase(w.key("during"), &f.during);
    match &f.after {
        Some(p) => phase(w.key("after"), p),
        None => w.key("after").null(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, AnalyzeOptions};
    use wavesim_json::Value;
    use wavesim_trace::{TraceEvent, TraceRecord};

    /// The printed document, read back.
    fn parsed(a: &Analysis) -> Value {
        Value::parse(&to_json(a).pretty()).expect("the document parses")
    }

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
        assert!(parsed(&unsampled)
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
            parsed(&sampled)
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
        let doc = parsed(&a);
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
        // Round-trips through the parser: the tree prints the same bytes.
        assert_eq!(doc.pretty(), to_json(&a).pretty());
    }
}
