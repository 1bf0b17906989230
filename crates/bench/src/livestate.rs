//! The process-wide live-status board behind `--serve-metrics` and
//! `--live-status`.
//!
//! Unlike the thread-local side channels ([`crate::tracecap`],
//! [`crate::timeseries`]), the board is global: the HTTP serving thread
//! ([`crate::serve`]) reads it while the simulation thread writes it.
//! It is strictly read-only with respect to the run — the drive loop
//! pushes a snapshot every 64 cycles and nothing flows back — so arming
//! it cannot perturb the schedule, and the determinism goldens hold with
//! the plane up.
//!
//! When disarmed (the default) the per-update cost is one relaxed atomic
//! load.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use wavesim_core::WaveNetwork;
use wavesim_sim::Cycle;

/// Cycles between recomputations of the progress rate (and between
/// `--live-status` stderr lines).
const RATE_WINDOW: u64 = 8192;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ECHO: AtomicBool = AtomicBool::new(false);

/// A point-in-time view of the driving run, published every 64 cycles.
#[derive(Debug, Clone, Default)]
pub struct LiveStatus {
    /// Run identity: `protocol topology k w seed`.
    pub run: String,
    /// Simulated cycle of this snapshot.
    pub cycle: Cycle,
    /// Messages submitted so far.
    pub sent: u64,
    /// Messages delivered so far.
    pub delivered: u64,
    /// Messages accepted but not yet delivered.
    pub in_flight_msgs: u64,
    /// Flits currently in the wormhole fabric.
    pub in_flight_flits: u64,
    /// Circuit-cache hits so far.
    pub cache_hits: u64,
    /// Circuit-cache misses so far.
    pub cache_misses: u64,
    /// Post-fault establishment retries so far.
    pub establish_retries: u64,
    /// Routers currently doing work.
    pub active_routers: u64,
    /// Cycles since any flit last moved in the fabric.
    pub progress_age: u64,
    /// Cumulative wall-clock nanoseconds spent in the fabric's scan.
    pub scan_wall_ns: u64,
    /// Deliveries per kilocycle over the last `RATE_WINDOW` cycles.
    pub progress_rate: f64,
    /// Simulated cycles per wall-clock second since the run started.
    pub cycles_per_sec: f64,
    /// True once the run finished.
    pub done: bool,
}

impl LiveStatus {
    /// Circuit-cache hit rate so far (0 when no lookups happened).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }
}

struct Board {
    status: LiveStatus,
    started: Instant,
    mark_cycle: Cycle,
    mark_delivered: u64,
    echoed_at: Cycle,
}

fn board() -> &'static Mutex<Board> {
    static BOARD: OnceLock<Mutex<Board>> = OnceLock::new();
    BOARD.get_or_init(|| {
        Mutex::new(Board {
            status: LiveStatus::default(),
            started: Instant::now(),
            mark_cycle: 0,
            mark_delivered: 0,
            echoed_at: 0,
        })
    })
}

/// Arms the board process-wide. With `echo`, a one-line status is
/// printed to stderr every `RATE_WINDOW` cycles (the CLI's
/// `--live-status`).
pub fn arm(echo: bool) {
    ECHO.store(echo, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Disarms the board; [`snapshot`] returns `None` again.
pub fn disarm() {
    ENABLED.store(false, Ordering::Relaxed);
    ECHO.store(false, Ordering::Relaxed);
}

/// The latest published status, if the board is armed.
#[must_use]
pub fn snapshot() -> Option<LiveStatus> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    Some(board().lock().expect("live board poisoned").status.clone())
}

/// Resets the board for a starting run (no-op when disarmed).
pub(crate) fn install(net: &WaveNetwork) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let cfg = net.config();
    let topo = net.topology();
    let run = format!(
        "{} {}-{} k={} w={} seed={}",
        format!("{:?}", cfg.protocol).to_lowercase(),
        match topo.kind() {
            wavesim_topology::TopologyKind::Mesh => "mesh",
            wavesim_topology::TopologyKind::Torus => "torus",
        },
        (0..topo.ndims())
            .map(|d| topo.radix(d).to_string())
            .collect::<Vec<_>>()
            .join("x"),
        cfg.k,
        cfg.wormhole.w,
        cfg.seed
    );
    let mut b = board().lock().expect("live board poisoned");
    b.status = LiveStatus {
        run,
        ..LiveStatus::default()
    };
    b.started = Instant::now();
    b.mark_cycle = 0;
    b.mark_delivered = 0;
    b.echoed_at = 0;
}

/// Publishes a snapshot of `net` at `now` (no-op when disarmed). Called
/// by the drive loop every 64 cycles.
pub(crate) fn update(now: Cycle, net: &WaveNetwork) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let stats = net.stats();
    let health = net.health(now);
    let mut b = board().lock().expect("live board poisoned");
    let s = &mut b.status;
    s.cycle = now;
    s.sent = stats.msgs_sent;
    s.delivered = stats.msgs_circuit + stats.msgs_wormhole;
    s.in_flight_msgs = health.outstanding_msgs;
    s.in_flight_flits = health.in_flight_flits;
    s.cache_hits = stats.cache_hits;
    s.cache_misses = stats.cache_misses;
    s.establish_retries = stats.establish_retries;
    s.active_routers = health.active_routers;
    s.progress_age = health.progress_age;
    s.scan_wall_ns = health.scan_wall_ns;
    let delivered = s.delivered;
    if now >= b.mark_cycle + RATE_WINDOW {
        let dc = (now - b.mark_cycle) as f64;
        b.status.progress_rate = (delivered.saturating_sub(b.mark_delivered)) as f64 * 1000.0 / dc;
        b.mark_cycle = now;
        b.mark_delivered = delivered;
    }
    let elapsed = b.started.elapsed().as_secs_f64();
    if elapsed > 0.0 {
        b.status.cycles_per_sec = now as f64 / elapsed;
    }
    if ECHO.load(Ordering::Relaxed) && now >= b.echoed_at + RATE_WINDOW {
        b.echoed_at = now;
        let s = &b.status;
        eprintln!(
            "[wavesim live] cycle {:>9} | delivered {:>8}/{:<8} | in-flight {:>6} | \
             cache hit {:>5.1}% | {:>7.1} msgs/kcy | {:>9.0} cy/s",
            s.cycle,
            s.delivered,
            s.sent,
            s.in_flight_msgs,
            s.hit_rate() * 100.0,
            s.progress_rate,
            s.cycles_per_sec,
        );
    }
}

/// Marks the run finished at `end` with a final snapshot (no-op when
/// disarmed).
pub(crate) fn finish(end: Cycle, net: &WaveNetwork) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    update(end, net);
    board().lock().expect("live board poisoned").status.done = true;
}

#[cfg(test)]
mod tests {
    use super::*;

    // The board is process-global, so driving a run with it armed cannot
    // be exercised here without racing the other unit tests' runs; the
    // full arm-run-snapshot path is covered by the `live_plane`
    // integration suite, which owns its process.

    #[test]
    fn disarmed_board_is_silent_and_status_math_holds() {
        assert!(snapshot().is_none());
        let s = LiveStatus {
            cache_hits: 3,
            cache_misses: 1,
            ..LiveStatus::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(LiveStatus::default().hit_rate(), 0.0);
    }
}
