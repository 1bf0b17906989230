//! The one measurement loop and its entry points.
//!
//! Every run goes through one loop, `drive`: ask the workload
//! ([`Workload`]) which ops are due, apply them ([`apply_op`]), tick the
//! network, hand each delivery to the tally and back to the workload,
//! sample the deadlock monitor every 64 cycles, and stop when the source
//! phase is over and the network drained (or the deadline/stall limit
//! hits). The entry points — [`run_open_loop`], [`run_carp_trace`]
//! (which [`run_scripted`] feeds a send-only trace), [`run_dep_trace`],
//! [`run_service`] — only set stop cycles and deadlines and build
//! results. A [`RunResult`] holds the two headline metrics of the
//! literature — mean message latency and accepted throughput — plus
//! protocol statistics and verification verdicts. Whatever watches a run
//! (trace capture, watchdog, status board) is a [`RunObserver`] the
//! caller passes in; `&mut ()` observes nothing.
//!
//! A *window run* ([`run_open_loop_window`]) is the open-loop run cut at
//! the end of its measurement window: the same driver and tally, with
//! `drive`'s deadline at `measure_end` instead of after the drain. Its
//! [`WindowResult`] holds only what the window fixes — windowed
//! throughput, the counters, the probe-step bound — and no latency,
//! since the messages it measured have not all arrived. The meter
//! counts only deliveries before `measure_end`, so a window run's
//! throughput is bit-identical to the drained run's.
//!
//! [`ParallelSweep`] fans independent sweep points out over scoped worker
//! threads, each claiming the next point from one shared counter; because
//! every point builds its own network and RNG stream from the point value
//! alone, the merged output is byte-identical to a serial run regardless
//! of the job count.

use std::sync::atomic::{AtomicUsize, Ordering};

use wavesim_core::{FaultEvent, LaneId, ProtocolKind, WaveNetwork, WaveStats};
use wavesim_network::message::DeliveryMode;
use wavesim_network::{Delivery, Message};
use wavesim_sim::stats::{Histogram, ThroughputMeter, Warmup};
use wavesim_sim::Cycle;
use wavesim_verify::progress::wave_fingerprint;
use wavesim_verify::{check_probe_livelock, ProgressMonitor};
use wavesim_workloads::{
    CarpOp, CarpTrace, DepTrace, FaultSchedule, ServiceWorkload, TrafficSource, Workload,
};

/// Phase lengths and safety limits of a run.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// Warm-up cycles (samples discarded).
    pub warmup: Cycle,
    /// Measurement window length.
    pub measure: Cycle,
    /// Maximum drain time after sources stop.
    pub drain_limit: Cycle,
    /// No-progress age that counts as a stall (deadlock signal).
    pub stall_threshold: u64,
}

impl RunSpec {
    /// A spec with sensible limits for the given measurement window.
    #[must_use]
    pub fn standard(warmup: Cycle, measure: Cycle) -> Self {
        Self {
            warmup,
            measure,
            drain_limit: (warmup + measure) * 20 + 200_000,
            stall_threshold: 20_000,
        }
    }

    /// A spec for trace replay, where the run's true length is set by the
    /// network (dependent messages release when their upstreams deliver)
    /// rather than by a measurement window. Everything is measured — no
    /// warm-up — and the window is wide enough to cover any drain.
    /// `horizon` is the trace's latest earliest-release cycle
    /// ([`DepTrace::horizon`]).
    #[must_use]
    pub fn replay(horizon: Cycle) -> Self {
        let measure = horizon.saturating_mul(4).saturating_add(2_000_000);
        Self {
            warmup: 0,
            measure,
            drain_limit: measure,
            stall_threshold: 20_000,
        }
    }
}

/// Aggregated results of a run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Messages generated by the workload.
    pub sent: u64,
    /// Messages delivered before the run ended.
    pub delivered: u64,
    /// Mean end-to-end latency over measured messages (cycles).
    pub avg_latency: f64,
    /// 99th-percentile latency bound (cycles).
    pub p99_latency: u64,
    /// Accepted throughput in flits/node/cycle over the measurement
    /// window.
    pub throughput: f64,
    /// Fraction of measured messages delivered over circuits.
    pub circuit_fraction: f64,
    /// Protocol counters.
    pub wave: WaveStats,
    /// Cycle at which the run ended.
    pub end: Cycle,
    /// True when the network drained completely.
    pub drained: bool,
    /// True when the deadlock monitor tripped.
    pub stalled: bool,
    /// Largest per-probe step count (livelock accounting).
    pub max_probe_steps: u64,
    /// Probe-step bound for the topology.
    pub probe_step_bound: u64,
}

impl RunResult {
    /// Deadlock- and livelock-freedom verdict: drained, no stall, probes
    /// within bound.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.drained
            && !self.stalled
            && self.max_probe_steps <= self.probe_step_bound
            && self.sent == self.delivered
    }
}

/// What an open-loop run's measurement window fixes, read at its end
/// ([`run_open_loop_window`]). Messages are still in flight then, so
/// there is no latency here: a cell that reads one needs a drained
/// [`RunResult`].
#[derive(Debug, Clone)]
pub struct WindowResult {
    /// Messages generated by the workload, all inside the window.
    pub sent: u64,
    /// Messages delivered before the window closed.
    pub delivered: u64,
    /// Accepted throughput in flits/node/cycle over the measurement
    /// window, equal to the drained run's to the bit.
    pub throughput: f64,
    /// Protocol counters at the run's end.
    pub wave: WaveStats,
    /// Cycle at which the run ended: `measure_end`, or earlier when the
    /// deadlock monitor or an observer called a stall.
    pub end: Cycle,
    /// Largest per-probe step count so far (livelock accounting).
    pub max_probe_steps: u64,
    /// Probe-step bound for the topology (Theorem 3).
    pub probe_step_bound: u64,
}

/// Where a `drive` loop stopped and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Drained {
    /// Cycle at which the run ended.
    pub end: Cycle,
    /// True when the deadlock monitor tripped.
    pub stalled: bool,
}

/// What watches a run from outside: `drive` calls these hooks and hands
/// nothing back, so an observer cannot perturb the schedule and
/// [`RunResult`] (whose `Debug` output is golden-hashed) stays untouched.
/// An observer instance serves one run and owns what it captured; every
/// hook defaults to a no-op and `()` is the unobserved form.
pub trait RunObserver {
    /// The run is about to start (install trace sinks here).
    fn start(&mut self, _net: &mut WaveNetwork) {}

    /// `net` ticked cycle `now` and the driver has not yet drained its
    /// deliveries.
    fn cycle(&mut self, _now: Cycle, _net: &WaveNetwork) {}

    /// The 64-cycle sample point, after the deadlock monitor looked.
    /// Returning `true` ends the run there as a stall.
    fn sample(&mut self, _now: Cycle, _net: &mut WaveNetwork) -> bool {
        false
    }

    /// The run ended with `outcome`.
    fn finish(&mut self, _net: &mut WaveNetwork, _outcome: Drained) {}
}

impl RunObserver for () {}

/// Applies one workload op to `net` at `now`. A network that does not
/// run CARP skips ESTABLISH/TEARDOWN (CLRP manages its circuits itself,
/// wormhole has none), so every protocol runs the identical message
/// schedule.
pub fn apply_op(net: &mut WaveNetwork, now: Cycle, op: CarpOp) {
    let carp = net.config().protocol == ProtocolKind::Carp;
    match op {
        CarpOp::Send(m) => net.send(now, m),
        CarpOp::Establish { src, dest } if carp => net.carp_establish(now, src, dest),
        CarpOp::Teardown { src, dest } if carp => net.carp_teardown(now, src, dest),
        CarpOp::Establish { .. } | CarpOp::Teardown { .. } => {}
    }
}

/// The measurement loop of every `run_*` entry point. Each cycle: the
/// workload's due ops are applied, the network ticks, `obs` looks, every
/// delivery goes to the tally and to [`Workload::delivered`], and every
/// 64 cycles the deadlock monitor samples a state fingerprint and `obs`
/// gets its sample point. The loop ends when the workload's source phase
/// is over and the network is idle (clean drain), when `deadline`
/// passes, or when the monitor or `obs` calls a stall.
///
/// While the source phase is active the loop visits every cycle. During
/// the drain phase it fast-forwards over cycles where
/// [`WaveNetwork::next_activity`] proves nothing can happen — landing on
/// exactly the cycles the cycle-by-cycle loop would have done work at, so
/// `end` and every statistic are unchanged.
fn drive(
    net: &mut WaveNetwork,
    wl: &mut impl Workload,
    spec: RunSpec,
    deadline: Cycle,
    obs: &mut dyn RunObserver,
) -> (Tally, Drained) {
    obs.start(net);
    let mut tally = Tally::new(spec, u64::from(net.topology().num_nodes()));
    let mut monitor = ProgressMonitor::new(spec.stall_threshold);
    let mut ops = Vec::new();
    let mut now: Cycle = 0;
    let stalled = loop {
        let active = wl.due(now, &mut ops);
        for op in ops.drain(..) {
            tally.sent += u64::from(matches!(op, CarpOp::Send(_)));
            apply_op(net, now, op);
        }
        if !active && (!net.busy() || now >= deadline) {
            break false;
        }
        net.tick(now);
        obs.cycle(now, net);
        tally.collect(now, net, wl);
        if now.is_multiple_of(64)
            && (monitor
                .observe(now, wave_fingerprint(net), net.busy())
                .is_some()
                || obs.sample(now, net))
        {
            break true;
        }
        now = if active {
            now + 1
        } else {
            // `None` while still busy means a wedged network (e.g. a
            // parked probe with no event in flight): advance one cycle at
            // a time so the stall monitor keeps sampling and trips.
            net.next_activity(now).unwrap_or(now + 1)
        };
    };
    let outcome = Drained { end: now, stalled };
    obs.finish(net, outcome);
    (tally, outcome)
}

/// Per-run measurement state of [`drive`].
struct Tally {
    warmup: Warmup,
    measure_end: Cycle,
    lat: Histogram,
    meter: ThroughputMeter,
    circuit_msgs: u64,
    measured: u64,
    sent: u64,
    delivered: u64,
    /// Reused delivery buffer: `collect` runs every cycle, and swapping
    /// the same capacity back and forth keeps the hot loop allocation-free.
    scratch: Vec<Delivery>,
}

impl Tally {
    fn new(spec: RunSpec, nodes: u64) -> Self {
        let warmup = Warmup::new(spec.warmup);
        Self {
            warmup,
            measure_end: spec.warmup + spec.measure,
            lat: Histogram::new(),
            meter: ThroughputMeter::new(nodes, warmup),
            circuit_msgs: 0,
            measured: 0,
            sent: 0,
            delivered: 0,
            scratch: Vec::new(),
        }
    }

    /// Drains the deliveries of cycle `now`, counts each and hands it
    /// back to `wl`.
    fn collect(&mut self, now: Cycle, net: &mut WaveNetwork, wl: &mut impl Workload) {
        let mut buf = std::mem::take(&mut self.scratch);
        net.drain_deliveries_into(&mut buf);
        for d in &buf {
            wl.delivered(d, now);
            self.delivered += 1;
            if self.warmup.open(d.msg.created_at) {
                self.lat.record(d.latency());
                self.measured += 1;
                if d.mode == DeliveryMode::Circuit {
                    self.circuit_msgs += 1;
                }
            }
            if d.delivered_at < self.measure_end {
                self.meter
                    .record(d.delivered_at, u64::from(d.msg.len_flits));
            }
        }
        self.scratch = buf;
    }

    fn circuit_fraction(&self) -> f64 {
        if self.measured == 0 {
            0.0
        } else {
            self.circuit_msgs as f64 / self.measured as f64
        }
    }

    /// Accepted throughput over the window of a run that ended at `end`.
    fn throughput(&self, end: Cycle) -> f64 {
        self.meter.rate(self.measure_end.min(end))
    }

    /// Folds the tally, the loop outcome, and the network's final state
    /// into a [`RunResult`].
    fn finish(self, net: &WaveNetwork, outcome: Drained) -> RunResult {
        let live = check_probe_livelock(net);
        RunResult {
            sent: self.sent,
            delivered: self.delivered,
            avg_latency: self.lat.mean(),
            p99_latency: self.lat.quantile_bound(0.99),
            throughput: self.throughput(outcome.end),
            circuit_fraction: self.circuit_fraction(),
            wave: net.stats(),
            end: outcome.end,
            drained: !net.busy(),
            stalled: outcome.stalled,
            max_probe_steps: live.max_probe_steps,
            probe_step_bound: live.bound,
        }
    }
}

/// Schedules every event of a dynamic fault schedule onto `net`, fanning
/// whole-link events out over the network's `k` wave switches. Call
/// before driving the run; the network applies each event at its cycle.
///
/// # Errors
/// Fails (without scheduling further events) when an event does not fit
/// the network's topology or `k` — a schedule built for another network.
pub fn apply_fault_schedule(net: &mut WaveNetwork, schedule: &FaultSchedule) -> Result<(), String> {
    let k = net.config().k;
    for (at, fail, link, switch) in schedule.lane_actions(k) {
        let lane = LaneId::new(link, switch);
        let ev = if fail {
            FaultEvent::Fail(lane)
        } else {
            FaultEvent::Repair(lane)
        };
        net.schedule_fault(at, ev)?;
    }
    Ok(())
}

/// Drives `net` with `src` per `spec`, unobserved: shorthand for
/// [`run_open_loop_observed`] with the no-op observer `()`. A trace sink
/// the caller installed with [`WaveNetwork::install_trace_sink`] stays in
/// place.
pub fn run_open_loop(net: &mut WaveNetwork, src: &mut TrafficSource, spec: RunSpec) -> RunResult {
    run_open_loop_observed(net, src, spec, &mut ())
}

/// Drives `net` with `src` per `spec` under `obs`: `src` injects until
/// the measurement window closes, then the network drains.
pub fn run_open_loop_observed(
    net: &mut WaveNetwork,
    src: &mut TrafficSource,
    spec: RunSpec,
    obs: &mut dyn RunObserver,
) -> RunResult {
    let measure_end = spec.warmup + spec.measure;
    src.stop_at(measure_end);
    let (tally, outcome) = drive(net, src, spec, measure_end + spec.drain_limit, obs);
    tally.finish(net, outcome)
}

/// Drives `net` with `src` per `spec` under `obs` to the end of the
/// measurement window and no further: the run of [`run_open_loop_observed`]
/// without its drain. Deliveries at or after `measure_end` never reach the
/// meter, so the throughput is the drained run's; the probe-step bound is
/// checked on the steps taken so far.
pub fn run_open_loop_window(
    net: &mut WaveNetwork,
    src: &mut TrafficSource,
    spec: RunSpec,
    obs: &mut dyn RunObserver,
) -> WindowResult {
    let measure_end = spec.warmup + spec.measure;
    src.stop_at(measure_end);
    let (tally, outcome) = drive(net, src, spec, measure_end, obs);
    let live = check_probe_livelock(net);
    WindowResult {
        sent: tally.sent,
        delivered: tally.delivered,
        throughput: tally.throughput(outcome.end),
        wave: net.stats(),
        end: outcome.end,
        max_probe_steps: live.max_probe_steps,
        probe_step_bound: live.bound,
    }
}

/// Replays a CARP instruction trace on `net`. On a CARP network the full
/// instruction stream executes; on a CLRP or wormhole-only network the
/// ESTABLISH/TEARDOWN ops are skipped ([`apply_op`]), which lets E5
/// compare all three systems on the *identical* message schedule.
/// `spec.warmup`/`spec.measure` gate the statistics windows as in
/// [`run_open_loop`].
pub fn run_carp_trace(
    net: &mut WaveNetwork,
    trace: &mut CarpTrace,
    spec: RunSpec,
    obs: &mut dyn RunObserver,
) -> RunResult {
    let deadline = trace.horizon() + spec.drain_limit;
    let (tally, outcome) = drive(net, trace, spec, deadline, obs);
    tally.finish(net, outcome)
}

/// Replays an explicit timed message script (used by experiments that
/// need exact send schedules, e.g. the E4 reuse study) as a send-only
/// CARP trace. `script` must be sorted by cycle. `sent` is the script's
/// length even when the run is cut short of its last send.
pub fn run_scripted(
    net: &mut WaveNetwork,
    script: &[(Cycle, Message)],
    spec: RunSpec,
    obs: &mut dyn RunObserver,
) -> RunResult {
    debug_assert!(script.windows(2).all(|w| w[0].0 <= w[1].0));
    let ops = script.iter().map(|&(t, m)| (t, CarpOp::Send(m))).collect();
    RunResult {
        sent: script.len() as u64,
        ..run_carp_trace(net, &mut CarpTrace::new(ops), spec, obs)
    }
}

/// Replays a dependency trace ([`DepTrace::replay`]): a message is
/// released only once every message it depends on has been delivered,
/// so the replay is self-paced — a slower network releases later — and
/// deterministic at any `--jobs` setting. Latency measures network time,
/// not time spent waiting on dependencies.
pub fn run_dep_trace(
    net: &mut WaveNetwork,
    trace: &DepTrace,
    spec: RunSpec,
    obs: &mut dyn RunObserver,
) -> RunResult {
    let deadline = trace.horizon() + spec.drain_limit;
    let (tally, outcome) = drive(net, &mut trace.replay(), spec, deadline, obs);
    tally.finish(net, outcome)
}

/// Drives a closed-loop service workload ([`ServiceWorkload`]): clients
/// ramp in, issue requests to their servers, replies leave after the
/// server's service time, and a client re-issues after reply + think
/// time, so offered load responds to the network's own latency. The
/// headline metric is the **round-trip** time from request issue to
/// reply delivery. The workload's bookkeeping is O(active), so client
/// populations in the millions are fine. Generation stops at
/// `spec.warmup + spec.measure`; clients waking later retire and the run
/// drains.
pub fn run_service(
    net: &mut WaveNetwork,
    wl: &mut ServiceWorkload,
    spec: RunSpec,
    obs: &mut dyn RunObserver,
) -> ServiceResult {
    let measure_end = spec.warmup + spec.measure;
    wl.stop_at(measure_end);
    wl.measure_from(spec.warmup);
    let (_, outcome) = drive(net, wl, spec, measure_end + spec.drain_limit, obs);
    ServiceResult {
        requests: wl.requests_issued(),
        completed: wl.completed(),
        retired: wl.retired(),
        avg_round_trip: wl.round_trips().mean(),
        p99_round_trip: wl.round_trips().quantile_bound(0.99),
        wave: net.stats(),
        end: outcome.end,
        // A reply in service is still in flight.
        drained: !net.busy() && wl.in_flight() == 0,
        stalled: outcome.stalled,
    }
}

/// Results of a closed-loop service run.
#[derive(Debug, Clone)]
pub struct ServiceResult {
    /// Requests issued.
    pub requests: u64,
    /// Round trips completed.
    pub completed: u64,
    /// Clients that woke after the stop cycle and left the system.
    pub retired: u64,
    /// Mean round-trip time over measured requests (cycles).
    pub avg_round_trip: f64,
    /// 99th-percentile round-trip bound.
    pub p99_round_trip: u64,
    /// Protocol counters.
    pub wave: WaveStats,
    /// End cycle.
    pub end: Cycle,
    /// Everything drained.
    pub drained: bool,
    /// Deadlock monitor tripped.
    pub stalled: bool,
}

/// Runs one closure per sweep point across scoped worker threads and
/// returns the results **in point order**.
///
/// Determinism contract: the closure must derive everything — network,
/// traffic source, RNG seed — from `(index, point)` alone, never from
/// shared mutable state. Then thread scheduling cannot influence any
/// result, and `jobs = 1` and `jobs = N` produce byte-identical output
/// (the determinism suite asserts this for every E-series table).
#[derive(Debug, Clone, Copy)]
pub struct ParallelSweep {
    jobs: usize,
}

impl ParallelSweep {
    /// An executor with `jobs` worker threads (clamped to at least 1).
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// Maps `f` over `points`, in parallel when `jobs > 1`, and returns
    /// the results in point order. Every worker claims the next unclaimed
    /// point from one shared counter, in point order, so a worker that
    /// finishes a short point takes the next one instead of idling while
    /// another works through a fixed share of long ones. Which thread
    /// computes a point depends on scheduling; what it computes does not.
    ///
    /// # Panics
    /// Propagates any panic raised by `f` on a worker thread.
    pub fn run<P, R, F>(&self, points: &[P], f: F) -> Vec<R>
    where
        P: Sync,
        R: Send,
        F: Fn(usize, &P) -> R + Sync,
    {
        let workers = self.jobs.min(points.len());
        if workers <= 1 {
            return points.iter().enumerate().map(|(i, p)| f(i, p)).collect();
        }
        // `Relaxed`: the counter hands out indices and publishes no data.
        // The points are shared read-only, and each worker's results come
        // back through `join`, which orders everything the worker wrote.
        let next = AtomicUsize::new(0);
        let (f, next) = (&f, &next);
        let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(move || {
                        // Sized for every point, so how the points split
                        // between workers does not change what is allocated.
                        let mut claimed = Vec::with_capacity(points.len());
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(p) = points.get(i) else {
                                break claimed;
                            };
                            claimed.push((i, f(i, p)));
                        }
                    })
                })
                .collect();
            let mut done = Vec::with_capacity(points.len());
            for h in handles {
                match h.join() {
                    Ok(claimed) => done.extend(claimed),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            done
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesim_core::WaveConfig;
    use wavesim_topology::Topology;
    use wavesim_workloads::{
        LengthDist, ServiceConfig, ServiceWorkload, TrafficConfig, TrafficPattern,
    };

    fn spec() -> RunSpec {
        RunSpec::standard(500, 2_000)
    }

    #[test]
    fn wormhole_open_loop_run_is_clean() {
        let mut net = WaveNetwork::new(
            Topology::mesh(&[4, 4]),
            WaveConfig {
                protocol: ProtocolKind::WormholeOnly,
                ..WaveConfig::default()
            },
        );
        let mut src = TrafficSource::new(
            net.topology().clone(),
            TrafficConfig {
                load: 0.1,
                len: LengthDist::Fixed(16),
                ..TrafficConfig::default()
            },
        );
        let r = run_open_loop(&mut net, &mut src, spec());
        assert!(r.clean(), "{r:?}");
        assert!(r.sent > 0);
        assert!(r.avg_latency > 0.0);
        assert!(r.throughput > 0.0);
        assert_eq!(r.circuit_fraction, 0.0);
    }

    #[test]
    fn clrp_open_loop_uses_circuits_under_locality() {
        let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), WaveConfig::default());
        let mut src = TrafficSource::new(
            net.topology().clone(),
            TrafficConfig {
                load: 0.1,
                len: LengthDist::Fixed(32),
                pattern: TrafficPattern::HotPairs {
                    partners: 2,
                    locality: 0.9,
                },
                ..TrafficConfig::default()
            },
        );
        let r = run_open_loop(&mut net, &mut src, spec());
        assert!(r.clean(), "{r:?}");
        assert!(
            r.circuit_fraction > 0.3,
            "most messages should ride circuits: {}",
            r.circuit_fraction
        );
        assert!(r.wave.cache_hits > 0);
    }

    #[test]
    fn carp_trace_run_is_clean() {
        let mut net = WaveNetwork::new(
            Topology::mesh(&[4, 4]),
            WaveConfig {
                protocol: ProtocolKind::Carp,
                ..WaveConfig::default()
            },
        );
        let mut trace = CarpTrace::stencil(net.topology(), 2, 4, 64, 2_000, 400);
        let r = run_carp_trace(&mut net, &mut trace, spec(), &mut ());
        assert!(r.drained && !r.stalled, "{r:?}");
        assert_eq!(r.sent, r.delivered);
        assert!(r.circuit_fraction > 0.5, "{}", r.circuit_fraction);
    }

    #[test]
    fn circuit_ops_are_applied_on_carp_and_skipped_elsewhere() {
        use wavesim_topology::NodeId;
        /// Not a CARP trace: establishes a circuit at cycle 0 and tears
        /// it down at 2,000, sending nothing.
        struct Circuit;
        impl Workload for Circuit {
            fn due(&mut self, now: Cycle, out: &mut Vec<CarpOp>) -> bool {
                let (src, dest) = (NodeId(0), NodeId(5));
                match now {
                    0 => out.push(CarpOp::Establish { src, dest }),
                    2_000 => out.push(CarpOp::Teardown { src, dest }),
                    _ => {}
                }
                now < 2_000
            }
        }
        for protocol in [
            ProtocolKind::Clrp,
            ProtocolKind::WormholeOnly,
            ProtocolKind::Carp,
        ] {
            let cfg = WaveConfig {
                protocol,
                ..WaveConfig::default()
            };
            let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), cfg);
            let (tally, outcome) = drive(&mut net, &mut Circuit, spec(), 10_000, &mut ());
            let s = net.stats();
            let applied = protocol == ProtocolKind::Carp;
            assert_eq!(
                (s.setups_ok, s.teardowns),
                (u64::from(applied), u64::from(applied)),
                "{protocol:?}"
            );
            assert_eq!((tally.sent, tally.delivered), (0, 0), "{protocol:?}");
            assert!(!outcome.stalled && !net.busy(), "{protocol:?}");
        }
    }

    fn diamond_trace() -> DepTrace {
        use wavesim_network::Message;
        use wavesim_topology::NodeId;
        use wavesim_workloads::DepTraceBuilder;
        let mut trace = DepTraceBuilder::new();
        let m = |id: u64, src: u32, dest: u32| Message::new(id, NodeId(src), NodeId(dest), 8, 0);
        trace.push(m(0, 0, 5), &[]);
        trace.push(m(1, 5, 6), &[0]);
        trace.push(m(2, 5, 9), &[0]);
        trace.push(m(3, 6, 10), &[1, 2]);
        trace.build().unwrap()
    }

    #[test]
    fn dep_trace_replay_releases_after_dependencies_deliver() {
        use wavesim_trace::{TraceEvent, VecSink};
        let trace = diamond_trace();
        let mut net = WaveNetwork::new(
            Topology::mesh(&[4, 4]),
            WaveConfig {
                protocol: ProtocolKind::WormholeOnly,
                ..WaveConfig::default()
            },
        );
        let mut cap = crate::tracecap::Capture::new().listen(Box::new(VecSink::new()));
        let spec = RunSpec::replay(trace.horizon());
        let r = run_dep_trace(&mut net, &trace, spec, &mut cap);
        let records = cap.listener::<VecSink>().expect("collected").into_records();
        assert!(r.clean(), "{r:?}");
        assert_eq!(r.sent, 4);
        assert_eq!(r.delivered, 4);

        let mut injected_d = None;
        let mut delivered = std::collections::HashMap::new();
        for rec in &records {
            match rec.ev {
                TraceEvent::WormholeInject { msg: 3, .. } => injected_d = Some(rec.at),
                TraceEvent::WormholeDeliver { msg, .. } => {
                    delivered.insert(msg, rec.at);
                }
                _ => {}
            }
        }
        let injected_d = injected_d.expect("message D injected");
        assert!(
            injected_d > delivered[&1] && injected_d > delivered[&2],
            "D injected at {injected_d} but B/C delivered at {}/{}",
            delivered[&1],
            delivered[&2]
        );
    }

    #[test]
    fn dep_trace_replay_honours_created_at_release_floor() {
        use wavesim_network::Message;
        use wavesim_topology::NodeId;
        use wavesim_workloads::DepTraceBuilder;
        // The dependent's own timestamp is a release floor: even with its
        // dependency delivered early, it must not launch before cycle 300.
        let mut trace = DepTraceBuilder::new();
        trace.push(Message::new(0, NodeId(0), NodeId(1), 4, 0), &[]);
        trace.push(Message::new(1, NodeId(1), NodeId(2), 4, 300), &[0]);
        let trace = trace.build().unwrap();
        let mut net = WaveNetwork::new(
            Topology::mesh(&[4, 4]),
            WaveConfig {
                protocol: ProtocolKind::WormholeOnly,
                ..WaveConfig::default()
            },
        );
        let r = run_dep_trace(&mut net, &trace, RunSpec::replay(trace.horizon()), &mut ());
        assert!(r.clean(), "{r:?}");
        assert_eq!(r.delivered, 2);
        assert!(r.end >= 300, "run ended at {} before the floor", r.end);
    }

    fn service(net: &WaveNetwork, cfg: ServiceConfig) -> ServiceWorkload {
        ServiceWorkload::new(net.topology().clone(), cfg)
    }

    #[test]
    fn service_run_closes_the_loop_and_drains() {
        // A ramped population, and E13's shape: two clients per node, no
        // ramp, generation cut at a measure_end that finds requests in
        // flight (and replies still being serviced).
        let ramped = ServiceConfig {
            clients: 128,
            ..ServiceConfig::default()
        };
        let mshr = ServiceConfig {
            clients: 32,
            ramp: 0,
            think_time: 10,
            ..ServiceConfig::default()
        };
        let short = RunSpec {
            warmup: 100,
            measure: 400,
            drain_limit: 2_000,
            stall_threshold: 10_000,
        };
        for (cfg, spec) in [(ramped, spec()), (mshr, short)] {
            let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), WaveConfig::default());
            let mut wl = service(&net, cfg);
            let r = run_service(&mut net, &mut wl, spec, &mut ());
            assert!(r.drained && !r.stalled, "{r:?}");
            assert!(r.completed > 0, "{r:?}");
            assert_eq!(
                r.requests, r.completed,
                "every issued request must round-trip during drain: {r:?}"
            );
            assert!(r.avg_round_trip > 0.0);
            assert_eq!(r.retired, wl.retired());
            assert_eq!(wl.in_flight(), 0);
        }
    }

    #[test]
    fn service_run_stops_generation_at_the_window_end_by_itself() {
        /// Remembers the last cycle the network had work after its tick.
        struct LastBusy(Cycle);
        impl RunObserver for LastBusy {
            fn cycle(&mut self, now: Cycle, net: &WaveNetwork) {
                if net.busy() {
                    self.0 = now;
                }
            }
        }
        // The caller sets no stop cycle: the runner does. Nothing is sent
        // after the last reply lands, so the run must end once that reply's
        // client has woken and retired — not spin to the drain deadline.
        let cfg = ServiceConfig::default();
        let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), WaveConfig::default());
        let mut wl = service(&net, cfg);
        let mut last_busy = LastBusy(0);
        let r = run_service(&mut net, &mut wl, spec(), &mut last_busy);
        assert!(r.drained && !r.stalled, "{r:?}");
        assert_eq!(r.requests, r.completed, "{r:?}");
        assert_eq!(r.retired, cfg.clients, "every client woke and left");
        assert!(
            r.end <= last_busy.0 + 1 + cfg.think_time,
            "ended at {} but the last reply landed by {}",
            r.end,
            last_busy.0 + 1
        );
    }

    #[test]
    fn service_clients_exhaust_and_run_reports_undrained() {
        // Servers take far longer to service than the whole run: each
        // node's two clients issue once, then everyone is waiting and
        // generation stops. The loop stays alive for the pending replies
        // (service time is workload-side, invisible to the network) and,
        // with no think time to wait out, ends past the deadline as soon
        // as they have all been handed to the fabric — replies still in
        // flight then are cut, and the result must be honest that it did
        // NOT drain.
        let spec = RunSpec {
            warmup: 0,
            measure: 300,
            drain_limit: 200,
            stall_threshold: 10_000,
        };
        let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), WaveConfig::default());
        let mut wl = service(
            &net,
            ServiceConfig {
                clients: 32,
                ramp: 0,
                service_time: 100_000,
                think_time: 0,
                ..ServiceConfig::default()
            },
        );
        let r = run_service(&mut net, &mut wl, spec, &mut ());
        assert_eq!(r.requests, 32, "one request per client, then all wait");
        assert!(
            r.completed < r.requests,
            "cut-off replies cannot all complete: {r:?}"
        );
        assert_eq!(
            wl.in_flight(),
            r.requests - r.completed,
            "uncompleted requests stay accounted as in flight"
        );
        assert!(r.end >= 100_000, "loop must live until replies release");
        assert!(
            !r.drained,
            "replies still in flight cannot count as drained"
        );
        assert!(!r.stalled, "an exhausted workload is idle, not deadlocked");
    }

    #[test]
    fn parallel_sweep_preserves_point_order() {
        let points: Vec<u64> = (0..23).collect();
        let serial = ParallelSweep::new(1).run(&points, |i, &p| (i as u64, p * p));
        let fanned = ParallelSweep::new(4).run(&points, |i, &p| (i as u64, p * p));
        assert_eq!(serial, fanned);
        assert_eq!(serial[7], (7, 49));
    }

    #[test]
    fn parallel_sweep_matches_serial_simulation() {
        let loads = [0.05_f64, 0.1, 0.2];
        let go = |_: usize, &load: &f64| {
            let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), WaveConfig::default());
            let mut src = TrafficSource::new(
                net.topology().clone(),
                TrafficConfig {
                    load,
                    len: LengthDist::Fixed(32),
                    ..TrafficConfig::default()
                },
            );
            let r = run_open_loop(&mut net, &mut src, RunSpec::standard(200, 1_000));
            format!("{r:?}")
        };
        let serial = ParallelSweep::new(1).run(&loads, go);
        let fanned = ParallelSweep::new(3).run(&loads, go);
        assert_eq!(serial, fanned);
    }

    #[test]
    fn parallel_sweep_propagates_a_worker_panic() {
        let points: Vec<u32> = (0..8).collect();
        let caught = std::panic::catch_unwind(|| {
            ParallelSweep::new(3).run(&points, |_, &p| {
                assert!(p != 5, "point {p} is cursed");
                p
            })
        });
        let payload = caught.expect_err("the worker's panic must reach the caller");
        let msg = payload.downcast_ref::<String>().expect("assert message");
        assert!(msg.contains("point 5 is cursed"), "{msg}");
    }

    #[test]
    fn parallel_sweep_lets_a_free_worker_claim_the_next_point() {
        // Point 0 finishes only after every other point has. With a fixed
        // share per worker, point 0's worker would also own points 2, 4, …
        // and the sweep could not finish.
        let points: Vec<u32> = (0..9).collect();
        let (tx, rx) = std::sync::mpsc::channel();
        let rx = std::sync::Mutex::new(rx);
        let got = ParallelSweep::new(2).run(&points, |i, &p| {
            if i == 0 {
                let rx = rx.lock().expect("only point 0 takes the lock");
                for _ in 1..points.len() {
                    rx.recv_timeout(std::time::Duration::from_secs(60))
                        .expect("the other worker runs every other point");
                }
            } else {
                tx.send(()).expect("point 0 is still listening");
            }
            p
        });
        assert_eq!(got, points);
    }

    /// Records every hook call, and asks for a stall at `abort_at`.
    #[derive(Default)]
    struct Recorder {
        hooks: Vec<(&'static str, Cycle)>,
        abort_at: Option<Cycle>,
        finished: Option<Drained>,
    }

    impl RunObserver for Recorder {
        fn start(&mut self, net: &mut WaveNetwork) {
            assert!(!net.busy(), "start precedes the first injection");
            self.hooks.push(("start", 0));
        }
        fn cycle(&mut self, now: Cycle, _net: &WaveNetwork) {
            self.hooks.push(("cycle", now));
        }
        fn sample(&mut self, now: Cycle, _net: &mut WaveNetwork) -> bool {
            self.hooks.push(("sample", now));
            self.abort_at == Some(now)
        }
        fn finish(&mut self, _net: &mut WaveNetwork, outcome: Drained) {
            self.hooks.push(("finish", outcome.end));
            self.finished = Some(outcome);
        }
    }

    fn recorded_run(abort_at: Option<Cycle>) -> (RunResult, Recorder) {
        let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), WaveConfig::default());
        let mut src = TrafficSource::new(
            net.topology().clone(),
            TrafficConfig {
                load: 0.1,
                len: LengthDist::Fixed(16),
                ..TrafficConfig::default()
            },
        );
        let mut rec = Recorder {
            abort_at,
            ..Recorder::default()
        };
        let r = run_open_loop_observed(&mut net, &mut src, RunSpec::standard(100, 400), &mut rec);
        (r, rec)
    }

    #[test]
    fn observer_hooks_fire_in_order() {
        let (r, rec) = recorded_run(None);
        assert!(r.clean(), "{r:?}");
        let (first, rest) = rec.hooks.split_first().expect("hooks fired");
        let (last, middle) = rest.split_last().expect("hooks fired");
        assert_eq!(*first, ("start", 0));
        assert_eq!(*last, ("finish", r.end));
        assert_eq!(
            rec.finished,
            Some(Drained {
                end: r.end,
                stalled: false
            })
        );
        // In between: every ticked cycle once, in increasing order (the
        // source phase visits each of its 500 cycles), and a sample right
        // after the cycle hook of every ticked multiple of 64.
        let cycles: Vec<Cycle> = middle
            .iter()
            .filter(|h| h.0 == "cycle")
            .map(|h| h.1)
            .collect();
        assert!(cycles.windows(2).all(|w| w[0] < w[1]), "{cycles:?}");
        assert_eq!(cycles[..500], (0..500).collect::<Vec<Cycle>>()[..]);
        for (i, &(hook, at)) in middle.iter().enumerate() {
            match hook {
                "cycle" if at % 64 == 0 => assert_eq!(middle[i + 1], ("sample", at)),
                "cycle" => assert_ne!(middle.get(i + 1).map(|h| h.0), Some("sample")),
                "sample" => assert_eq!(middle[i - 1], ("cycle", at)),
                other => panic!("{other} in the middle of a run"),
            }
        }
    }

    #[test]
    fn observer_abort_ends_the_run_as_a_stall_at_that_cycle() {
        let (r, rec) = recorded_run(Some(128));
        assert!(r.stalled && !r.clean(), "{r:?}");
        assert_eq!(r.end, 128);
        assert_eq!(
            rec.finished,
            Some(Drained {
                end: 128,
                stalled: true
            })
        );
        let n = rec.hooks.len();
        assert_eq!(
            rec.hooks[n - 3..],
            [("cycle", 128), ("sample", 128), ("finish", 128)]
        );
    }

    #[test]
    fn scripted_run_cut_before_its_horizon_still_counts_the_whole_script() {
        use wavesim_network::Message;
        use wavesim_topology::NodeId;
        let script = [
            (0, Message::new(0, NodeId(0), NodeId(5), 8, 0)),
            (1_000, Message::new(1, NodeId(5), NodeId(0), 8, 1_000)),
        ];
        let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), WaveConfig::default());
        let mut rec = Recorder {
            abort_at: Some(64),
            ..Recorder::default()
        };
        let r = run_scripted(&mut net, &script, RunSpec::standard(0, 100), &mut rec);
        assert!(r.stalled && r.end == 64, "{r:?}");
        assert_eq!(r.sent, 2, "sent is the script's length, not sends injected");
        assert_eq!(r.delivered, 1);
    }

    #[test]
    fn unobserved_run_leaves_the_callers_sink_installed() {
        use wavesim_trace::stream::{take_listener, StreamSink, CHUNK_RECORDS};
        use wavesim_trace::VecSink;
        let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), WaveConfig::default());
        let mut src = TrafficSource::new(
            net.topology().clone(),
            TrafficConfig {
                load: 0.1,
                len: LengthDist::Fixed(16),
                ..TrafficConfig::default()
            },
        );
        let sink = StreamSink::listening(vec![Box::new(VecSink::new())], CHUNK_RECORDS);
        net.install_trace_sink(Box::new(sink));
        let r = run_open_loop(&mut net, &mut src, RunSpec::standard(100, 400));
        assert!(r.clean(), "{r:?}");
        let mut sink = net
            .take_trace_sink()
            .expect("the sink is still the caller's");
        assert!(sink.total() > 0, "and it saw the run");
        sink.finish().expect("an in-memory stream");
        let kept = take_listener::<VecSink>(&mut sink.listeners()).expect("handed back");
        assert_eq!(kept.records().len() as u64, sink.total());
    }
}
