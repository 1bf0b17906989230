//! Protocol-level statistics for wave-switched networks, and the one call
//! a plane records a fact with.
//!
//! A row with a `TraceEvent` pattern counts that event and nothing else:
//! the generated [`WaveStats::count`] is its only increment, so a counter
//! and a capture of the same run cannot disagree. The other rows have no
//! twin event and are bumped by hand where their fact happens.

use wavesim_sim::Cycle;
use wavesim_trace::{TraceEvent, TraceHub};

wavesim_sim::stat_table! {
    /// Counters accumulated by [`crate::network::WaveNetwork`] over a run.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct WaveStats counts TraceEvent {
        /// Messages submitted through the protocol layer.
        msgs_sent: Counter,
        /// Messages delivered over pre-established circuits.
        msgs_circuit: Counter = TraceEvent::CircuitDeliver { .. },
        /// Messages delivered through wormhole switching.
        msgs_wormhole: Counter = TraceEvent::WormholeDeliver { .. },
        /// Circuit-cache hits (send found a Ready circuit).
        cache_hits: Counter = TraceEvent::CacheHit { .. },
        /// Circuit-cache misses that triggered an establishment.
        cache_misses: Counter = TraceEvent::CacheMiss { .. },
        /// Source-side evictions performed to make cache room.
        cache_evictions: Counter = TraceEvent::CacheEvict { .. },

        /// Probes launched (one per switch attempt).
        probes_sent: Counter = TraceEvent::ProbeLaunch { .. },
        /// Total probe hops (forward + backward).
        probe_hops: Counter = TraceEvent::ProbeHop { .. } | TraceEvent::ProbeBacktrack { .. },
        /// Backtrack operations.
        probe_backtracks: Counter = TraceEvent::ProbeBacktrack { .. },
        /// Misroute operations.
        probe_misroutes: Counter = TraceEvent::ProbeHop { misroute: true, .. },
        /// Probes that reserved a full path.
        probes_reached: Counter = TraceEvent::ProbeReached { .. },
        /// Probes that exhausted their switch's search space.
        probes_exhausted: Counter = TraceEvent::ProbeExhausted { .. },
        /// Faulty-lane rejections seen by probes, counted per encounter.
        /// Every time any probe scans a lane and finds it `Faulty` this
        /// increments, so one probe bouncing off the same faulty lane across
        /// `n` retries contributes `n` (it is a rejection count, not a count
        /// of distinct probes or distinct lanes).
        probe_fault_encounters: Counter,

        /// Establishment attempts that eventually succeeded (any switch).
        setups_ok: Counter = TraceEvent::CircuitEstablished { .. },
        /// Establishment attempts that failed across every switch.
        setups_failed: Counter = TraceEvent::CircuitAbandoned { .. },
        /// Force-mode victim selections of circuits starting at the stuck node.
        forced_local_releases: Counter,
        /// Force-mode release requests sent to remote sources.
        forced_remote_releases: Counter,
        /// Release-request control flits discarded as stale.
        /// §4's discard rule: the circuit was already releasing or gone.
        release_requests_discarded: Counter,
        /// Circuits torn down (any reason).
        teardowns: Counter = TraceEvent::CircuitReleased { .. },

        /// Messages that fell back to wormhole because establishment failed.
        /// This is CLRP's phase 3 and CARP's fallback.
        wormhole_fallbacks: Counter,
        /// End-point buffer re-allocations.
        /// A CLRP circuit was hit by a message longer than the buffer
        /// allocated for it (§2).
        buffer_reallocs: Counter,

        /// Lanes marked faulty (static injections plus dynamic fail events).
        lane_faults: Counter = TraceEvent::LaneFault { .. },
        /// Faulty lanes returned to service (dynamic repair events).
        lane_repairs: Counter = TraceEvent::LaneRepair { .. },
        /// Circuits destroyed because a dynamic fault hit a reserved lane.
        circuits_broken: Counter = TraceEvent::CircuitBroken { .. },
        /// Re-establishment attempts after a dynamic fault broke a circuit.
        /// A cache entry launches at most `WaveConfig::fault_retries` of them.
        establish_retries: Counter = TraceEvent::EstablishRetry { .. },
    }
}

/// The network's one record of a run: its counters and its trace hub.
/// The composition root owns it and hands it to a plane, like the plane's
/// calendar, for each call that records a fact.
#[derive(Default)]
pub(crate) struct Log {
    /// Every counter of the run.
    pub(crate) stats: WaveStats,
    /// The sink and the tail the run's records reach, if any.
    pub(crate) trace: TraceHub,
}

impl Log {
    /// Records one fact: counts it always, and emits its trace record
    /// when a sink or a tail takes records. The only emit point in a
    /// plane.
    #[inline]
    pub(crate) fn note(&mut self, now: Cycle, ev: TraceEvent) {
        self.stats.count(&ev);
        self.trace.emit(now, ev);
    }
}

impl WaveStats {
    /// Circuit-cache hit rate over sends that consulted the cache.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of launched probes that reserved a path.
    #[must_use]
    pub fn probe_success_rate(&self) -> f64 {
        if self.probes_sent == 0 {
            0.0
        } else {
            self.probes_reached as f64 / self.probes_sent as f64
        }
    }

    /// Fraction of establishment attempts that succeeded.
    #[must_use]
    pub fn setup_success_rate(&self) -> f64 {
        let total = self.setups_ok + self.setups_failed;
        if total == 0 {
            0.0
        } else {
            self.setups_ok as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let s = WaveStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.probe_success_rate(), 0.0);
        assert_eq!(s.setup_success_rate(), 0.0);
    }

    #[test]
    fn rates_compute() {
        let s = WaveStats {
            cache_hits: 3,
            cache_misses: 1,
            probes_sent: 10,
            probes_reached: 5,
            setups_ok: 4,
            setups_failed: 1,
            ..WaveStats::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.probe_success_rate() - 0.5).abs() < 1e-12);
        assert!((s.setup_success_rate() - 0.8).abs() < 1e-12);
    }
}
