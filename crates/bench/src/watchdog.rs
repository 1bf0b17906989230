//! Progress-SLO watchdogs for the measurement loops.
//!
//! Like [`crate::tracecap`] and [`crate::livestate`], a [`Watchdog`] is a
//! [`RunObserver`]: it looks at the drive loop's existing 64-cycle sample
//! point, so an unwatched run pays nothing and a watched run's schedule
//! is untouched (the watchdog only reads, annotates the trace, and — when
//! configured — ends the run).
//!
//! Three rules, each optional, numbered as [`TraceEvent::WatchdogTrip`]
//! records them (3 was a rule that no longer exists; old captures may
//! carry it):
//!
//! 1. **Stall** — no message delivered for `stall_cycles` cycles.
//! 2. **Retry storm** — more than `retry_limit` post-fault establishment
//!    retries inside one [`RETRY_WINDOW`]-cycle window.
//! 4. **Wait cycle** — the wormhole fabric has made no progress for
//!    [`DEADLOCK_AGE`] cycles *and* [`find_wait_cycle`] finds a circular
//!    wait in its wait-for graph: the paper's Theorem 1–2 argument checked
//!    at run time.
//!
//! A trip stamps a [`TraceEvent::WatchdogTrip`] into the trace stream (if
//! the run is captured), flushes a flight-recorder post-mortem bundle to
//! the configured path, and — with `abort` set — ends the run as a stall
//! so `RunResult::clean()` is false and the CLI exits nonzero. A run that
//! ends stalled without a trip having written the bundle (the drive loop's
//! own deadlock monitor called it) gets its bundle at the end. The
//! watchdog is the only writer of a post-mortem.

use std::path::PathBuf;

use wavesim_core::WaveNetwork;
use wavesim_sim::Cycle;
use wavesim_trace::postmortem::{self, StallContext};
use wavesim_trace::TraceEvent;
use wavesim_verify::deadlock::find_wait_cycle;

use crate::{Drained, RunObserver};

/// Window over which rule 2 counts establishment retries.
pub const RETRY_WINDOW: u64 = 4096;

/// Fabric no-progress age (cycles) that triggers rule 4's wait-cycle
/// search. Kept well under the drive loop's stall threshold so the
/// watchdog diagnoses a deadlock before the run gives up.
pub const DEADLOCK_AGE: u64 = 2048;

/// Records of the run's tail a post-mortem bundle carries: the size of
/// the flight-recorder ring armed beside a watchdog that writes one.
pub const POST_MORTEM_TAIL: usize = 1 << 16;

/// Which progress-SLO rules to arm, and what to do on a trip.
#[derive(Debug, Clone, Default)]
pub struct WatchdogConfig {
    /// Rule 1: trip when no message is delivered for this many cycles.
    pub stall_cycles: Option<u64>,
    /// Rule 2: trip when more than this many establishment retries land
    /// inside one [`RETRY_WINDOW`].
    pub retry_limit: Option<u64>,
    /// Rule 4: search the fabric's wait-for graph for a circular wait
    /// once progress stops for [`DEADLOCK_AGE`] cycles.
    pub deadlock: bool,
    /// End the run on any trip (reported as a stall, so the run is not
    /// `clean` and the CLI exits nonzero).
    pub abort: bool,
    /// Flush a flight-recorder post-mortem bundle (the last
    /// [`POST_MORTEM_TAIL`] records) here on any trip, and when the run
    /// ends stalled without one.
    pub post_mortem: Option<PathBuf>,
}

impl WatchdogConfig {
    /// True when at least one rule is armed.
    #[must_use]
    pub fn any(&self) -> bool {
        self.stall_cycles.is_some() || self.retry_limit.is_some() || self.deadlock
    }
}

/// One rule firing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trip {
    /// Rule number (1 = stall, 2 = retry storm, 4 = wait cycle), matching
    /// [`TraceEvent::WatchdogTrip`].
    pub rule: u8,
    /// Cycle at which the rule fired.
    pub at: Cycle,
    /// Observed value (stall age, retry count, wait cycle length).
    pub value: u64,
    /// The configured limit the value crossed.
    pub limit: u64,
}

/// One run's watchdog outcome.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WatchdogReport {
    /// Every rule firing, in trip order.
    pub trips: Vec<Trip>,
    /// True when a trip ended the run.
    pub aborted: bool,
    /// Where the post-mortem bundle was written, if one was.
    pub post_mortem: Option<PathBuf>,
}

impl Trip {
    /// The fired rule's name, as reports print it.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self.rule {
            1 => "stall",
            2 => "retry-storm",
            4 => "wait-cycle",
            _ => "unknown",
        }
    }
}

/// Watches one run under a [`WatchdogConfig`].
#[derive(Default)]
pub struct Watchdog {
    cfg: WatchdogConfig,
    last_delivered: u64,
    last_delivered_at: Cycle,
    stall_tripped: bool,
    retry_mark: u64,
    retry_mark_at: Cycle,
    deadlock_tripped: bool,
    report: WatchdogReport,
}

impl Watchdog {
    /// A watchdog enforcing `cfg`.
    #[must_use]
    pub fn new(cfg: WatchdogConfig) -> Self {
        Self {
            cfg,
            ..Self::default()
        }
    }

    /// The run's report.
    #[must_use]
    pub fn into_report(self) -> WatchdogReport {
        self.report
    }

    fn trip(&mut self, net: &mut WaveNetwork, now: Cycle, rule: u8, value: u64, limit: u64) {
        net.trace_note(now, TraceEvent::WatchdogTrip { rule, value, limit });
        self.report.trips.push(Trip {
            rule,
            at: now,
            value,
            limit,
        });
        self.flush_post_mortem(net, now);
        if self.cfg.abort {
            self.report.aborted = true;
        }
    }

    /// Writes the flight-recorder tail plus the fabric's wait-for graph
    /// (and the circular wait inside it, if any) at `now` to the configured
    /// path, if any (overwriting — the last trip's view wins). Failures are
    /// reported on stderr, never propagated: a watchdog must not take down
    /// the run it watches.
    fn flush_post_mortem(&mut self, net: &mut WaveNetwork, now: Cycle) {
        let Some(path) = self.cfg.post_mortem.clone() else {
            return;
        };
        let (records, dropped, total) = match net.trace_sink() {
            Some(sink) => (sink.snapshot(), sink.dropped(), sink.total()),
            None => (Vec::new(), 0, 0),
        };
        let fabric = net.fabric();
        let edges = fabric.wait_edges();
        let cycle = find_wait_cycle(&edges);
        let ctx = StallContext {
            edges: &edges,
            cycle: cycle.as_deref(),
            now,
            stall_age: fabric.progress_age(now),
            in_flight: fabric.in_flight_flits(),
        };
        let bundle = postmortem::bundle(&records, dropped, total, &ctx);
        match std::fs::write(&path, bundle.pretty()) {
            Ok(()) => self.report.post_mortem = Some(path),
            Err(e) => eprintln!(
                "note: watchdog post-mortem write failed for {}: {e}",
                path.display()
            ),
        }
    }
}

impl RunObserver for Watchdog {
    /// Checks every armed rule; `true` when a trip (with `abort` set)
    /// should end the run.
    fn sample(&mut self, now: Cycle, net: &mut WaveNetwork) -> bool {
        let stats = net.stats();
        let delivered = stats.msgs_circuit + stats.msgs_wormhole;
        if delivered > self.last_delivered {
            self.last_delivered = delivered;
            self.last_delivered_at = now;
            self.stall_tripped = false;
            self.deadlock_tripped = false;
        } else if let Some(limit) = self.cfg.stall_cycles {
            let age = now - self.last_delivered_at;
            if age >= limit && !self.stall_tripped {
                self.stall_tripped = true;
                self.trip(net, now, 1, age, limit);
            }
        }
        if let Some(limit) = self.cfg.retry_limit {
            if now - self.retry_mark_at >= RETRY_WINDOW {
                let burst = stats.establish_retries - self.retry_mark;
                self.retry_mark = stats.establish_retries;
                self.retry_mark_at = now;
                if burst > limit {
                    self.trip(net, now, 2, burst, limit);
                }
            }
        }
        if self.cfg.deadlock && !self.deadlock_tripped {
            let fabric = net.fabric();
            if fabric.progress_age(now) >= DEADLOCK_AGE && fabric.in_flight_flits() > 0 {
                if let Some(cycle) = find_wait_cycle(&fabric.wait_edges()) {
                    self.deadlock_tripped = true;
                    self.trip(net, now, 4, cycle.len() as u64, 0);
                }
            }
        }
        self.report.aborted
    }

    /// Writes the post-mortem of a run that ended stalled when no trip
    /// wrote one.
    fn finish(&mut self, net: &mut WaveNetwork, outcome: Drained) {
        if outcome.stalled && self.report.post_mortem.is_none() {
            self.flush_post_mortem(net, outcome.end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracecap::{Capture, RunTrace};
    use crate::{run_scripted, Observers, RunSpec};
    use wavesim_core::{WaveConfig, WaveNetwork};
    use wavesim_network::Message;
    use wavesim_topology::{NodeId, Topology};

    /// One long corner-to-corner wormhole message: 512 flits deliver well
    /// past cycle 500, so a 16-cycle stall SLO must trip at the first
    /// 64-cycle observation, flush a post-mortem, and (with abort) end
    /// the run.
    fn one_long_message_run(obs: &mut dyn RunObserver) -> crate::RunResult {
        let mut net = WaveNetwork::new(
            Topology::mesh(&[4, 4]),
            WaveConfig {
                protocol: wavesim_core::ProtocolKind::WormholeOnly,
                ..WaveConfig::default()
            },
        );
        let script = [(0u64, Message::new(1, NodeId(0), NodeId(15), 512, 0))];
        run_scripted(&mut net, &script, RunSpec::standard(0, 100), obs)
    }

    fn watched_run(cfg: WatchdogConfig) -> (crate::RunResult, WatchdogReport, RunTrace) {
        let mut obs = Observers {
            capture: Some(Capture::new(Some(1 << 12))),
            watchdog: Some(Watchdog::new(cfg)),
            ..Observers::default()
        };
        let r = one_long_message_run(&mut obs);
        let report = obs.watchdog.expect("set above").into_report();
        let trace = obs.capture.and_then(Capture::into_trace).expect("captured");
        (r, report, trace)
    }

    #[test]
    fn stall_rule_trips_and_aborts_with_post_mortem() {
        let path =
            std::env::temp_dir().join(format!("wavesim_watchdog_pm_{}.json", std::process::id()));
        let (r, report, trace) = watched_run(WatchdogConfig {
            stall_cycles: Some(16),
            abort: true,
            post_mortem: Some(path.clone()),
            ..WatchdogConfig::default()
        });
        assert!(report.aborted, "{report:?}");
        assert_eq!(report.trips[0].rule, 1);
        assert!(report.trips[0].value >= 16);
        assert!(r.stalled, "abort must surface as a stall");
        assert!(!r.clean());
        // The post-mortem bundle landed on disk and parses.
        let text = std::fs::read_to_string(&path).expect("post-mortem written");
        std::fs::remove_file(&path).ok();
        let doc = wavesim_json::Value::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("kind").and_then(wavesim_json::Value::as_str),
            Some("wavesim-postmortem")
        );
        assert!(doc.get("stall_age").is_some(), "bundle carries stall age");
        assert!(
            doc.get("wait_for").is_some(),
            "bundle carries wait-for state"
        );
        // The trip is stamped into the captured trace stream.
        assert!(trace
            .records
            .iter()
            .any(|rec| rec.ev.kind() == "watchdog_trip"));
    }

    /// Ends the run from `sample` at cycle `at`, as the drive loop's
    /// deadlock monitor would, under a watchdog with no rule armed.
    struct StallAt {
        at: Cycle,
        dog: Watchdog,
    }

    impl RunObserver for StallAt {
        fn sample(&mut self, now: Cycle, net: &mut WaveNetwork) -> bool {
            self.dog.sample(now, net) | (now == self.at)
        }
        fn finish(&mut self, net: &mut WaveNetwork, outcome: Drained) {
            self.dog.finish(net, outcome);
        }
    }

    #[test]
    fn a_run_that_ends_stalled_gets_one_post_mortem() {
        let dir = std::env::temp_dir().join(format!("wavesim_watchdog_end_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pm.json");
        let mut obs = StallAt {
            at: 128,
            dog: Watchdog::new(WatchdogConfig {
                post_mortem: Some(path.clone()),
                ..WatchdogConfig::default()
            }),
        };
        assert!(!obs.dog.cfg.any(), "no rule is armed");
        let r = one_long_message_run(&mut obs);
        assert!(r.stalled && r.end == 128, "{r:?}");
        let report = obs.dog.into_report();
        assert!(report.trips.is_empty() && !report.aborted, "{report:?}");
        assert_eq!(report.post_mortem.as_ref(), Some(&path));
        let written: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
        let text = std::fs::read_to_string(&path).expect("post-mortem written");
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(written.len(), 1, "one bundle");
        let doc = wavesim_json::Value::parse(&text).expect("valid JSON");
        assert_eq!(doc["kind"], "wavesim-postmortem");
        assert_eq!(doc["at"].as_u64(), Some(128), "taken at the stall cycle");
    }

    #[test]
    fn untripped_runs_are_untouched() {
        let baseline = one_long_message_run(&mut ());
        // A generous SLO: no trips, and the run result is byte-identical
        // to the unwatched baseline.
        let (r, report, _) = watched_run(WatchdogConfig {
            stall_cycles: Some(1_000_000),
            deadlock: true,
            abort: true,
            ..WatchdogConfig::default()
        });
        assert!(report.trips.is_empty(), "{report:?}");
        assert!(!report.aborted);
        assert!(r.clean(), "{r:?}");
        assert_eq!(format!("{baseline:?}"), format!("{r:?}"));
    }

    #[test]
    fn trip_without_abort_lets_the_run_finish() {
        // The watchdog alone, no capture: the trip's trace note goes
        // nowhere and nothing else changes.
        let mut dog = Watchdog::new(WatchdogConfig {
            stall_cycles: Some(16),
            ..WatchdogConfig::default()
        });
        let r = one_long_message_run(&mut dog);
        let report = dog.into_report();
        assert!(!report.trips.is_empty());
        assert!(!report.aborted);
        assert!(r.clean(), "a non-aborting trip only annotates: {r:?}");
    }
}
