//! Prometheus-style metrics exposition: one page renderer for a run that
//! is still driving (`GET /metrics`) and for one that finished
//! (`--metrics-out`).
//!
//! A page is a walk over a [`LiveStatus`]: its run identity, the four stat
//! tables it holds whole ([`wavesim_core::WaveStats`],
//! [`wavesim_network::FabricStats`], [`wavesim_sim::CycleKernelStats`],
//! [`wavesim_core::HealthSnapshot`] — a series per row, its `# HELP` the
//! row's doc line) and the few values derived from them. A finished run
//! adds its headline gauges and the flight recorder's latency histogram.
//! No row is named in this file: one added to a table is on both
//! pages and in `/status` ([`crate::serve::status_json`], the same walk).

use wavesim_sim::stats::{Histogram, StatKind};
use wavesim_trace::metrics::MetricsPage;
use wavesim_trace::{TraceEvent, TraceRecord};

use crate::livestate::LiveStatus;
use crate::{RunResult, ServiceResult};

/// A gauge outside the stat tables: series name (no prefix), help, value.
pub type Gauge = (&'static str, &'static str, f64);

/// The headline numbers of a finished open-loop, scripted or replay run.
#[must_use]
pub fn run_gauges(r: &RunResult) -> [Gauge; 6] {
    [
        (
            "run_end_cycle",
            "Cycle at which the run ended",
            r.end as f64,
        ),
        (
            "avg_latency_cycles",
            "Mean end-to-end latency over measured messages",
            r.avg_latency,
        ),
        (
            "p99_latency_cycles",
            "99th-percentile latency bound over measured messages",
            r.p99_latency as f64,
        ),
        (
            "throughput_flits_per_node_cycle",
            "Accepted throughput over the measurement window",
            r.throughput,
        ),
        (
            "circuit_fraction",
            "Fraction of measured messages delivered over circuits",
            r.circuit_fraction,
        ),
        (
            "stalled",
            "1 when the deadlock monitor tripped, else 0",
            f64::from(u8::from(r.stalled)),
        ),
    ]
}

/// The headline numbers of a finished closed-loop service run.
#[must_use]
pub fn service_gauges(r: &ServiceResult) -> [Gauge; 2] {
    [
        (
            "avg_round_trip_cycles",
            "Mean round-trip time over measured requests",
            r.avg_round_trip,
        ),
        (
            "p99_round_trip_cycles",
            "99th-percentile round-trip bound over measured requests",
            r.p99_round_trip as f64,
        ),
    ]
}

/// End-to-end latency of the deliveries among `records` (the flight
/// recorder's surviving tail).
#[must_use]
pub fn traced_latency(records: &[TraceRecord]) -> Histogram {
    let mut lat = Histogram::new();
    for rec in records {
        match rec.ev {
            TraceEvent::WormholeDeliver { latency, .. }
            | TraceEvent::CircuitDeliver { latency, .. } => lat.record(latency),
            _ => {}
        }
    }
    lat
}

/// Renders the page of one status under `prefix` (`wavesim_` for a
/// finished run's file, `wavesim_live_` for the endpoint). `outcome` is a
/// finished run's headline gauges ([`run_gauges`], [`service_gauges`]) and
/// `latency` its [`traced_latency`]; a run still driving has neither.
#[must_use]
pub fn metrics_page(
    prefix: &str,
    s: &LiveStatus,
    outcome: &[Gauge],
    latency: Option<&Histogram>,
) -> String {
    let mut page = MetricsPage::new();
    // Self-describing header: a scrape from this page is meaningless
    // without knowing which run produced it.
    page.comment(&format!("run: {}", s.run_line()));
    let mut labels = s.run.clone();
    if s.done {
        labels.push(("cycles", s.cycle.to_string()));
    }
    page.gauge_labeled(
        &format!("{prefix}run_info"),
        "Run identity (always 1; the labels carry the configuration)",
        &labels,
        1.0,
    );
    for (group, rows) in s.tables() {
        for row in rows {
            let name = format!("{prefix}{group}{}", row.name);
            match row.kind {
                StatKind::Counter => page.counter(&name, row.help, row.value),
                StatKind::Gauge => page.gauge_f64(&name, row.help, row.value as f64),
            }
        }
    }
    page.counter(
        &format!("{prefix}msgs_delivered"),
        "Messages delivered, over circuits or by wormhole",
        s.delivered(),
    );
    page.gauge_f64(
        &format!("{prefix}done"),
        "1 once the run finished, else 0",
        f64::from(u8::from(s.done)),
    );
    for (name, help, value) in s.gauges().iter().chain(outcome) {
        page.gauge_f64(&format!("{prefix}{name}"), help, *value);
    }
    if let Some(lat) = latency {
        page.histogram(
            &format!("{prefix}traced_latency_cycles"),
            "End-to-end latency of deliveries surviving in the flight recorder",
            lat,
        );
    }
    page.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::livestate::StatusBoard;
    use crate::observers::Observers;
    use crate::serve::status_json;
    use crate::tracecap::Capture;
    use crate::{run_open_loop_observed, RunSpec};
    use wavesim_core::{WaveConfig, WaveNetwork};
    use wavesim_json::Value;
    use wavesim_topology::Topology;
    use wavesim_workloads::{LengthDist, TrafficConfig, TrafficPattern, TrafficSource};

    /// What `wavesim run --side 4 --load 0.1 --cycles <cycles> --metrics-out`
    /// renders from: the board's final status, the result, the ring.
    fn cli_run(cycles: u64) -> (LiveStatus, RunResult, Histogram) {
        let cfg = WaveConfig {
            seed: 1,
            ..WaveConfig::default()
        };
        let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), cfg);
        let mut src = TrafficSource::new(
            net.topology().clone(),
            TrafficConfig {
                load: 0.1,
                pattern: TrafficPattern::HotPairs {
                    partners: 3,
                    locality: 0.7,
                },
                len: LengthDist::Fixed(64),
                seed: 1,
                stop_at: u64::MAX,
            },
        );
        let board = StatusBoard::new(false);
        let mut obs = Observers {
            capture: Some(Capture::new(1 << 16)),
            board: Some(board.observer()),
            ..Observers::default()
        };
        let spec = RunSpec::standard(cycles / 5, cycles);
        let r = run_open_loop_observed(&mut net, &mut src, spec, &mut obs);
        let trace = obs.capture.take().and_then(Capture::into_trace);
        let latency = traced_latency(&trace.expect("captured").records);
        (board.snapshot().expect("published"), r, latency)
    }

    /// The samples of `page`: every line that is not a `#` line.
    fn samples(page: &str) -> Vec<&str> {
        page.lines().filter(|l| !l.starts_with('#')).collect()
    }

    #[test]
    fn the_tables_are_the_only_list() {
        let (status, r, latency) = cli_run(1_000);
        assert!(status.stats.probes_sent > 0 && status.kernel.events_routed > 0);
        let post = metrics_page("wavesim_", &status, &run_gauges(&r), Some(&latency));
        let live = metrics_page("wavesim_live_", &status, &[], None);
        let json = Value::parse(&status_json(&status).pretty()).expect("valid JSON");
        let pages = [
            (&post, samples(&post), "wavesim_"),
            (&live, samples(&live), "wavesim_live_"),
        ];
        let mut rows = 0;
        for (group, table) in status.tables() {
            for row in table {
                rows += 1;
                let name = format!("{group}{}", row.name);
                for (page, samples, prefix) in &pages {
                    let help = format!("# HELP {prefix}{name} {}\n", row.help);
                    assert!(page.contains(&help), "{help}");
                    let sample = format!("{prefix}{name} {}", row.value);
                    assert!(samples.contains(&sample.as_str()), "{sample}");
                }
                assert_eq!(json.get(&name).and_then(Value::as_u64), Some(row.value));
            }
        }
        assert_eq!(rows, 25 + 5 + 4 + 6);
        // A row's help is the first line of its doc comment, as written.
        assert!(
            post.contains("# HELP wavesim_probes_sent Probes launched (one per switch attempt).\n")
        );
        assert!(post.contains("# TYPE wavesim_probes_sent counter\n"));
        assert!(post.contains("# TYPE wavesim_control_backlog gauge\n"));
        for (_, samples, _) in &pages {
            let mut names: Vec<&str> = samples
                .iter()
                .map(|l| l.rsplit_once(' ').expect("sample line").0)
                .collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), samples.len(), "a series appears twice");
        }
        // The live page is the finished run's page less outcome and histogram.
        for line in &pages[1].1 {
            let line = line.replacen("wavesim_live_", "wavesim_", 1);
            assert!(pages[0].1.contains(&line.as_str()), "{line}");
        }
        assert!(post.contains("# TYPE wavesim_traced_latency_cycles histogram"));
        assert!(post.contains(&format!(
            "wavesim_traced_latency_cycles_count {}",
            r.delivered
        )));
    }

    /// Every sample the parent commit's binary wrote for CI's `traced-smoke`
    /// command line (recorded once from a build of `0224676`, before the
    /// page became a walk over the tables) is on the page, value for value.
    #[test]
    fn the_page_still_carries_every_sample_of_the_hand_written_one() {
        let (status, r, latency) = cli_run(3_000);
        let page = metrics_page("wavesim_", &status, &run_gauges(&r), Some(&latency));
        let now = samples(&page);
        let parent = include_str!("../tests/fixtures/metrics_page.parent.txt");
        assert_eq!(parent.lines().count(), 45);
        for line in parent.lines() {
            assert!(now.contains(&line), "lost or changed: {line}");
        }
    }
}
