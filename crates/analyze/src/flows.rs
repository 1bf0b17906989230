//! Per-flow circuit-cache attribution.
//!
//! A *flow* is a `(source, destination)` pair — the granularity the
//! circuit cache operates at. For each flow this module gathers what the
//! cache did to it (hits, misses, evictions it suffered), what its forced
//! establishments cost others (parks, victim-chain depth), what dynamic
//! faults cost it (retry wait), and how its deliveries broke down across
//! transports.

use wavesim_sim::Cycle;

use crate::live::slot;
use crate::spans::{CircuitLog, MessageSpan, SpanMode};

/// Cache and latency attribution for one `(src, dest)` flow.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowStats {
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dest: u32,
    /// Messages delivered.
    pub delivered: u64,
    /// Deliveries over circuits.
    pub circuit_msgs: u64,
    /// Deliveries that fell back to wormhole under a circuit protocol.
    pub fallback_msgs: u64,
    /// Deliveries by wormhole under a wormhole-only protocol.
    pub wormhole_msgs: u64,
    /// Flits delivered.
    pub flits: u64,
    /// Sum of end-to-end latencies (cycles).
    pub latency_sum: u64,
    /// Sum of setup segments.
    pub setup_sum: u64,
    /// Sum of queue segments.
    pub queue_sum: u64,
    /// Sum of transit segments.
    pub transit_sum: u64,
    /// Circuit-cache hits at the source for this destination.
    pub cache_hits: u64,
    /// Circuit-cache misses.
    pub cache_misses: u64,
    /// Times this flow's cached circuit was evicted to make room.
    pub evictions_suffered: u64,
    /// Probe launches with the Force bit set.
    pub force_launches: u64,
    /// Force-mode parks across this flow's setups.
    pub parks: u64,
    /// Deepest victim chain one forced establishment walked.
    pub victim_chain: u32,
    /// Post-fault re-establishment attempts.
    pub retries: u64,
    /// Cycles between circuit breakage and the retry launch (RetryWait).
    pub retry_wait: u64,
}

impl FlowStats {
    /// Cache hit rate over this flow's lookups.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Mean end-to-end latency of this flow's deliveries.
    #[must_use]
    pub fn mean_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.delivered as f64
        }
    }
}

/// One row of the flow table.
#[derive(Clone, Default)]
struct Slot {
    stats: FlowStats,
    /// The earliest unanswered `circuit_broken` of this flow.
    broken_at: Option<Cycle>,
    /// A breakage alone does not put a flow in the report.
    listed: bool,
}

/// Flow attribution over dense indices: one [`Slot`] per `(src, dest)`
/// pair, indexed by the first-appearance index
/// [`crate::live::LiveAnalytics`] resolved the pair to. The cache and
/// fault-recovery events arrive during the fold; the delivery sums and
/// setup-side costs are merged from the sealed spans and circuit logs
/// just before [`FlowFold::finish`]. Every accumulation is additive per
/// flow, so the order of the two does not affect the result.
#[derive(Default)]
pub(crate) struct FlowFold {
    slots: Vec<Slot>,
}

impl FlowFold {
    /// The statistics of flow `f`, which is `src -> dest`.
    pub fn flow(&mut self, f: usize, src: u32, dest: u32) -> &mut FlowStats {
        let slot = slot(&mut self.slots, f, Slot::default);
        slot.listed = true;
        slot.stats.src = src;
        slot.stats.dest = dest;
        &mut slot.stats
    }

    /// A circuit of flow `f` broke at `at`.
    pub fn broken(&mut self, f: usize, at: Cycle) {
        // Keep the earliest unanswered breakage per flow.
        slot(&mut self.slots, f, Slot::default)
            .broken_at
            .get_or_insert(at);
    }

    /// Flow `f` launched a re-establishment attempt at `at`.
    pub fn retry(&mut self, f: usize, src: u32, dest: u32, at: Cycle) {
        let broken_at = slot(&mut self.slots, f, Slot::default).broken_at.take();
        let e = self.flow(f, src, dest);
        e.retries += 1;
        if let Some(t) = broken_at {
            e.retry_wait = e.retry_wait.saturating_add(at.saturating_sub(t));
        }
    }

    /// Adds one reconstructed delivery of flow `f`.
    pub fn delivered(&mut self, f: usize, s: &MessageSpan) {
        let e = self.flow(f, s.src, s.dest);
        e.delivered += 1;
        match s.mode {
            SpanMode::Circuit => e.circuit_msgs += 1,
            SpanMode::Fallback => e.fallback_msgs += 1,
            SpanMode::Wormhole => e.wormhole_msgs += 1,
        }
        e.flits += u64::from(s.len_flits);
        // Sums of trace-derived cycle counts saturate: a file may carry
        // latencies near `u64::MAX`.
        e.latency_sum = e.latency_sum.saturating_add(s.latency());
        e.setup_sum = e.setup_sum.saturating_add(s.setup);
        e.queue_sum = e.queue_sum.saturating_add(s.queue);
        e.transit_sum = e.transit_sum.saturating_add(s.transit);
    }

    /// Adds the setup-side costs of one circuit of flow `f`.
    pub fn setup_costs(&mut self, f: usize, log: &CircuitLog) {
        let e = self.flow(f, log.src, log.dest);
        e.force_launches += u64::from(log.force_launches);
        e.parks += u64::from(log.parks);
        e.victim_chain = e.victim_chain.max(log.parks);
    }

    /// The flows sorted by traffic (deliveries, then lookups) descending,
    /// with the `(src, dest)` key breaking ties so the order is total.
    pub fn finish(self) -> Vec<FlowStats> {
        let mut out: Vec<FlowStats> = self
            .slots
            .into_iter()
            .filter(|s| s.listed)
            .map(|s| s.stats)
            .collect();
        out.sort_unstable_by(|a, b| {
            (b.delivered, b.cache_hits + b.cache_misses, a.src, a.dest).cmp(&(
                a.delivered,
                a.cache_hits + a.cache_misses,
                b.src,
                b.dest,
            ))
        });
        out
    }

    /// Rows in the flow table.
    #[cfg(test)]
    pub fn largest_table(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, AnalyzeOptions};
    use wavesim_trace::{TraceEvent, TraceRecord};

    fn rec(at: u64, seq: u64, ev: TraceEvent) -> TraceRecord {
        TraceRecord { at, seq, ev }
    }

    fn attribute(records: &[TraceRecord]) -> Vec<FlowStats> {
        analyze(records, AnalyzeOptions::default()).flows
    }

    #[test]
    fn cache_and_retry_attribution_lands_on_the_right_flow() {
        let recs = vec![
            rec(0, 0, TraceEvent::CacheMiss { node: 0, dest: 3 }),
            rec(
                1,
                1,
                TraceEvent::CacheEvict {
                    node: 0,
                    victim_dest: 5,
                    circuit: 9,
                },
            ),
            rec(
                2,
                2,
                TraceEvent::CacheHit {
                    node: 0,
                    dest: 3,
                    circuit: 1,
                },
            ),
            rec(
                10,
                3,
                TraceEvent::CircuitBroken {
                    circuit: 1,
                    src: 0,
                    dest: 3,
                },
            ),
            rec(
                18,
                4,
                TraceEvent::EstablishRetry {
                    circuit: 2,
                    src: 0,
                    dest: 3,
                    attempt: 1,
                },
            ),
        ];
        let flows = attribute(&recs);
        let f03 = flows.iter().find(|f| (f.src, f.dest) == (0, 3)).unwrap();
        assert_eq!(f03.cache_hits, 1);
        assert_eq!(f03.cache_misses, 1);
        assert_eq!(f03.retries, 1);
        assert_eq!(f03.retry_wait, 8);
        assert!((f03.hit_rate() - 0.5).abs() < 1e-12);
        let f05 = flows.iter().find(|f| (f.src, f.dest) == (0, 5)).unwrap();
        assert_eq!(f05.evictions_suffered, 1);
    }

    #[test]
    fn victim_chain_is_the_max_parks_of_one_setup() {
        let recs = vec![
            rec(
                0,
                0,
                TraceEvent::ProbeLaunch {
                    circuit: 1,
                    src: 2,
                    dest: 7,
                    switch: 1,
                    force: true,
                },
            ),
            rec(
                1,
                1,
                TraceEvent::ProbePark {
                    circuit: 1,
                    probe: 4,
                    node: 3,
                    victim: 8,
                },
            ),
            rec(
                5,
                2,
                TraceEvent::ProbePark {
                    circuit: 1,
                    probe: 4,
                    node: 5,
                    victim: 9,
                },
            ),
        ];
        let flows = attribute(&recs);
        let f = flows.iter().find(|f| (f.src, f.dest) == (2, 7)).unwrap();
        assert_eq!(f.force_launches, 1);
        assert_eq!(f.parks, 2);
        assert_eq!(f.victim_chain, 2);
    }

    #[test]
    fn flows_sort_by_traffic_then_key() {
        let recs = vec![
            rec(0, 0, TraceEvent::CacheMiss { node: 1, dest: 2 }),
            rec(0, 1, TraceEvent::CacheMiss { node: 0, dest: 2 }),
            rec(1, 2, TraceEvent::CacheMiss { node: 0, dest: 2 }),
        ];
        let flows = attribute(&recs);
        assert_eq!((flows[0].src, flows[0].dest), (0, 2));
        assert_eq!((flows[1].src, flows[1].dest), (1, 2));
    }
}
