//! The live-status board behind `--serve-metrics`, `--metrics-out` and
//! `--progress`.
//!
//! A [`StatusBoard`] is a shared handle: the HTTP serving thread
//! ([`crate::serve`]) reads it while a run's [`BoardObserver`] writes it.
//! It is strictly read-only with respect to the run — the observer pushes
//! a snapshot every 64 cycles and nothing flows back — so observing
//! cannot perturb the schedule, and the determinism goldens hold with the
//! plane up.
//!
//! The board carries one run at a time: an observer claims it when its run
//! starts and releases it at the end, and a run that finds the board
//! claimed (a concurrent sweep point) does not publish. Every snapshot
//! therefore describes a single coherent run.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use wavesim_core::{HealthSnapshot, WaveNetwork, WaveStats};
use wavesim_network::FabricStats;
use wavesim_sim::stats::{Histogram, StatRow};
use wavesim_sim::{Cycle, CycleKernelStats};

use crate::metrics::Gauge;
use crate::{Drained, RunObserver};

/// Cycles between recomputations of the progress rate.
const RATE_WINDOW: u64 = 8192;

/// A point-in-time view of the driving run, published every 64 cycles:
/// the network's four stat structs whole, so every counter a plane keeps
/// is on the board without being named here.
#[derive(Debug, Clone, Default)]
pub struct LiveStatus {
    /// Run identity: the labels of the `run_info` series (`protocol`,
    /// `topology`, `k`, `w`, `seed`).
    pub run: Vec<(&'static str, String)>,
    /// Simulated cycle of this snapshot.
    pub cycle: Cycle,
    /// Protocol counters so far.
    pub stats: WaveStats,
    /// Wormhole-fabric counters so far.
    pub fabric: FabricStats,
    /// Cycle-kernel work counters so far.
    pub kernel: CycleKernelStats,
    /// Instantaneous cross-plane gauges.
    pub health: HealthSnapshot,
    /// End-to-end latency of every delivery so far.
    pub latency: Histogram,
    /// Deliveries per kilocycle over the last `RATE_WINDOW` cycles.
    pub progress_rate: f64,
    /// Simulated cycles per wall-clock second since the run started.
    pub cycles_per_sec: f64,
    /// True once the run finished.
    pub done: bool,
}

impl LiveStatus {
    /// The run identity on one line: `protocol=clrp topology=mesh-4x4 k=2
    /// w=2 seed=1`.
    #[must_use]
    pub fn run_line(&self) -> String {
        let labels: Vec<String> = self.run.iter().map(|(k, v)| format!("{k}={v}")).collect();
        labels.join(" ")
    }

    /// Messages delivered so far, over circuits or by wormhole.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.stats.msgs_circuit + self.stats.msgs_wormhole
    }

    /// The four stat tables, each with the prefix its rows' names take on
    /// a page and in `/status`. Both are this walk and nothing else.
    #[must_use]
    pub fn tables(&self) -> [(&'static str, Vec<StatRow>); 4] {
        [
            ("", self.stats.rows()),
            ("fabric_", self.fabric.rows()),
            ("kernel_", self.kernel.rows()),
            ("", self.health.rows()),
        ]
    }

    /// The gauges a status carries beside its tables, as `(name, help,
    /// value)`.
    #[must_use]
    pub fn gauges(&self) -> [Gauge; 4] {
        [
            ("cycle", "Current simulated cycle", self.cycle as f64),
            (
                "cache_hit_rate",
                "Circuit-cache hit rate so far",
                self.stats.hit_rate(),
            ),
            (
                "progress_rate",
                "Deliveries per kilocycle over the last rate window",
                self.progress_rate,
            ),
            (
                "cycles_per_second",
                "Simulated cycles per wall-clock second",
                self.cycles_per_sec,
            ),
        ]
    }
}

#[derive(Default)]
struct Slot {
    /// The holder's latest snapshot; `None` until a first run publishes.
    status: Option<LiveStatus>,
    /// True while a running observer holds the board.
    claimed: bool,
}

/// The shared board. Clones are handles to the same board.
#[derive(Clone, Default)]
pub struct StatusBoard {
    slot: Arc<Mutex<Slot>>,
    /// Cycles between progress lines on stderr; `None` prints none.
    progress: Option<u64>,
}

impl StatusBoard {
    /// A fresh, empty board. With `progress` cycles, the run holding it
    /// prints a one-line status to stderr at the first publish point that
    /// many cycles after the last line (the CLI's `--progress`).
    #[must_use]
    pub fn new(progress: Option<u64>) -> Self {
        Self {
            slot: Arc::default(),
            progress,
        }
    }

    /// The latest published status, if any run has published yet.
    #[must_use]
    pub fn snapshot(&self) -> Option<LiveStatus> {
        self.slot().status.clone()
    }

    /// An observer publishing one run onto this board.
    #[must_use]
    pub fn observer(&self) -> BoardObserver {
        BoardObserver {
            board: self.clone(),
            holds: false,
            started: Instant::now(),
            latency: Histogram::new(),
            mark_cycle: 0,
            mark_delivered: 0,
            printed_at: 0,
        }
    }

    fn slot(&self) -> std::sync::MutexGuard<'_, Slot> {
        self.slot.lock().expect("live board poisoned")
    }
}

/// `mesh-4x4`, `torus-8x8x8`: the topology as run labels spell it.
fn topology_label(topo: &wavesim_topology::Topology) -> String {
    let radices: Vec<String> = (0..topo.ndims())
        .map(|d| topo.radix(d).to_string())
        .collect();
    let kind = match topo.kind() {
        wavesim_topology::TopologyKind::Mesh => "mesh",
        wavesim_topology::TopologyKind::Torus => "torus",
    };
    format!("{kind}-{}", radices.join("x"))
}

/// Publishes one run onto a [`StatusBoard`] every 64 cycles.
pub struct BoardObserver {
    board: StatusBoard,
    /// True between a successful claim at `start` and `finish`.
    holds: bool,
    started: Instant,
    /// Every delivery's latency so far, copied into each snapshot.
    latency: Histogram,
    mark_cycle: Cycle,
    mark_delivered: u64,
    printed_at: Cycle,
}

impl BoardObserver {
    /// Publishes a snapshot of `net` at `now` if this run holds the board.
    fn publish(&mut self, now: Cycle, net: &WaveNetwork, done: bool) {
        if !self.holds {
            return;
        }
        let mut slot = self.board.slot();
        if done {
            slot.claimed = false;
        }
        let Some(s) = slot.status.as_mut() else {
            return;
        };
        s.cycle = now;
        s.stats = net.stats();
        s.fabric = net.fabric().stats();
        s.kernel = net.kernel_stats();
        s.health = net.health(now);
        s.latency.clone_from(&self.latency);
        s.done = done;
        let delivered = s.delivered();
        if now >= self.mark_cycle + RATE_WINDOW {
            let dc = (now - self.mark_cycle) as f64;
            s.progress_rate = delivered.saturating_sub(self.mark_delivered) as f64 * 1000.0 / dc;
            self.mark_cycle = now;
            self.mark_delivered = delivered;
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            s.cycles_per_sec = now as f64 / elapsed;
        }
        if self
            .board
            .progress
            .is_some_and(|every| now >= self.printed_at.saturating_add(every))
        {
            self.printed_at = now;
            eprintln!(
                "[wavesim live] cycle {:>9} | delivered {:>8}/{:<8} | in-flight {:>6} | \
                 cache hit {:>5.1}% | {:>7.1} msgs/kcy | {:>9.0} cy/s",
                s.cycle,
                delivered,
                s.stats.msgs_sent,
                s.health.in_flight_msgs,
                s.stats.hit_rate() * 100.0,
                s.progress_rate,
                s.cycles_per_sec,
            );
        }
    }
}

impl RunObserver for BoardObserver {
    /// Claims the board for this run unless another run holds it.
    fn start(&mut self, net: &mut WaveNetwork) {
        let mut slot = self.board.slot();
        if slot.claimed {
            return;
        }
        slot.claimed = true;
        self.holds = true;
        self.started = Instant::now();
        let cfg = net.config();
        slot.status = Some(LiveStatus {
            run: vec![
                ("protocol", format!("{:?}", cfg.protocol).to_lowercase()),
                ("topology", topology_label(net.topology())),
                ("k", cfg.k.to_string()),
                ("w", cfg.wormhole.w.to_string()),
                ("seed", cfg.seed.to_string()),
            ],
            ..LiveStatus::default()
        });
    }

    /// Records the latency of each delivery the tick just made.
    fn cycle(&mut self, _now: Cycle, net: &WaveNetwork) {
        if self.holds {
            for d in net.pending_deliveries() {
                self.latency.record(d.latency());
            }
        }
    }

    fn sample(&mut self, now: Cycle, net: &mut WaveNetwork) -> bool {
        self.publish(now, net, false);
        false
    }

    /// Marks the run finished with a final snapshot and releases the board.
    fn finish(&mut self, net: &mut WaveNetwork, outcome: Drained) {
        self.publish(outcome.end, net, true);
        self.holds = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_open_loop_observed, RunSpec};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;
    use wavesim_core::WaveConfig;
    use wavesim_topology::Topology;
    use wavesim_workloads::{LengthDist, TrafficConfig, TrafficSource};

    fn observed_run(board: &StatusBoard, seed: u64) -> crate::RunResult {
        let cfg = WaveConfig {
            seed,
            ..WaveConfig::default()
        };
        let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), cfg);
        let mut src = TrafficSource::new(
            net.topology().clone(),
            TrafficConfig {
                load: 0.2,
                len: LengthDist::Fixed(32),
                seed,
                ..TrafficConfig::default()
            },
        );
        let spec = RunSpec::standard(500, 6_000);
        run_open_loop_observed(&mut net, &mut src, spec, &mut board.observer())
    }

    #[test]
    fn sequential_runs_take_the_board_in_turn() {
        let board = StatusBoard::new(None);
        assert!(board.snapshot().is_none(), "an empty board is silent");
        for seed in [1, 2] {
            let r = observed_run(&board, seed);
            let s = board.snapshot().expect("published");
            assert!(s.done);
            assert!(s.run_line().ends_with(&format!("seed={seed}")), "{s:?}");
            assert_eq!(
                (s.cycle, s.stats.msgs_sent, s.delivered(), s.latency.count()),
                (r.end, r.sent, r.delivered, r.delivered)
            );
        }
    }

    /// The claim protocol, hook by hook: while run A holds the board, run
    /// B's hooks change nothing; once A finishes, the next run claims.
    #[test]
    fn a_claimed_board_ignores_other_runs() {
        let board = StatusBoard::new(None);
        let net_with_seed = |seed| {
            let cfg = WaveConfig {
                seed,
                ..WaveConfig::default()
            };
            WaveNetwork::new(Topology::mesh(&[4, 4]), cfg)
        };
        let (mut net_a, mut net_b) = (net_with_seed(1), net_with_seed(2));
        let (mut a, mut b) = (board.observer(), board.observer());
        a.start(&mut net_a);
        b.start(&mut net_b);
        a.sample(64, &mut net_a);
        b.sample(6400, &mut net_b);
        let s = board.snapshot().expect("A published");
        assert!(
            s.run_line().ends_with("seed=1") && s.cycle == 64 && !s.done,
            "{s:?}"
        );
        let end = Drained {
            end: 9_000,
            stalled: false,
        };
        b.finish(&mut net_b, end);
        let s = board.snapshot().expect("still A's");
        assert!(
            s.run_line().ends_with("seed=1") && s.cycle == 64 && !s.done,
            "{s:?}"
        );
        a.finish(&mut net_a, end);
        let s = board.snapshot().expect("A's final view");
        assert!(
            s.run_line().ends_with("seed=1") && s.cycle == 9_000 && s.done,
            "{s:?}"
        );
        let mut c = board.observer();
        c.start(&mut net_b);
        let s = board
            .snapshot()
            .expect("the released board is B's network's now");
        assert!(
            s.run_line().ends_with("seed=2") && s.cycle == 0 && !s.done,
            "{s:?}"
        );
    }

    /// Two runs share one board while a reader polls it: every snapshot
    /// must be one run's coherent view, never a mixture.
    #[test]
    fn concurrent_runs_never_mix_on_the_board() {
        let board = StatusBoard::new(None);
        let gate = Barrier::new(3);
        let stop = AtomicBool::new(false);
        let (results, snapshots) = std::thread::scope(|s| {
            let runs: Vec<_> = [7u64, 8]
                .into_iter()
                .map(|seed| {
                    let (board, gate) = (&board, &gate);
                    s.spawn(move || {
                        gate.wait();
                        (seed, observed_run(board, seed))
                    })
                })
                .collect();
            let reader = s.spawn(|| {
                gate.wait();
                let mut seen = Vec::new();
                while !stop.load(Ordering::SeqCst) {
                    seen.extend(board.snapshot());
                }
                seen.extend(board.snapshot());
                seen
            });
            let results: Vec<_> = runs.into_iter().map(|h| h.join().unwrap()).collect();
            stop.store(true, Ordering::SeqCst);
            (results, reader.join().unwrap())
        });
        assert!(!snapshots.is_empty());
        let mut last_cycle = std::collections::HashMap::new();
        for s in &snapshots {
            let (_, r) = results
                .iter()
                .find(|(seed, _)| s.run_line().ends_with(&format!("seed={seed}")))
                .unwrap_or_else(|| panic!("snapshot of an unknown run: {}", s.run_line()));
            // Counters are this run's own: bounded by its totals, and a
            // finished snapshot equals them exactly.
            assert!(
                s.cycle <= r.end && s.stats.msgs_sent <= r.sent && s.delivered() <= r.delivered
            );
            assert!(s.delivered() <= s.stats.msgs_sent, "{s:?}");
            if s.done {
                assert_eq!(
                    (s.cycle, s.stats.msgs_sent, s.delivered()),
                    (r.end, r.sent, r.delivered)
                );
            }
            // A run that claimed the board at its start publishes
            // monotonically; one that found it claimed publishes never.
            let prev = last_cycle.insert(s.run_line(), s.cycle).unwrap_or(0);
            assert!(s.cycle >= prev, "cycle went backwards on {}", s.run_line());
        }
    }
}
