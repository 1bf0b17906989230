//! Offline time-series derivation.
//!
//! Rebuilds the same windowed rows the live bench sampler produces
//! ([`wavesim_trace::timeseries::WindowSeries`]) from a captured record
//! stream: deliveries feed the per-window latency histogram, cache events
//! feed the hit rate, and the set of distinct routers named by a cycle's
//! events stands in for the live active-router gauge.

use std::collections::{HashMap, HashSet};

use wavesim_sim::Cycle;
use wavesim_trace::timeseries::{WindowRow, WindowSeries};
use wavesim_trace::{TraceEvent, TraceRecord};

/// Calls `visit` with every node id an event names as *doing work* (probe
/// positions, cache lookups, transfer endpoints — not idle bystanders).
fn visit_nodes(ev: &TraceEvent, mut visit: impl FnMut(u32)) {
    match *ev {
        TraceEvent::ProbeLaunch { src, .. }
        | TraceEvent::ProbeExhausted { src, .. }
        | TraceEvent::ForcedRelease { src, .. }
        | TraceEvent::WormholeInject { src, .. }
        | TraceEvent::EstablishRetry { src, .. } => visit(src),
        TraceEvent::ProbeHop { node, .. }
        | TraceEvent::ProbeBacktrack { node, .. }
        | TraceEvent::ProbePark { node, .. }
        | TraceEvent::CacheHit { node, .. }
        | TraceEvent::CacheMiss { node, .. }
        | TraceEvent::CacheEvict { node, .. } => visit(node),
        TraceEvent::ProbeReached { dest, .. } => visit(dest),
        TraceEvent::CircuitEstablished { src, dest, .. }
        | TraceEvent::TransferStart { src, dest, .. }
        | TraceEvent::CircuitBroken { src, dest, .. } => {
            visit(src);
            visit(dest);
        }
        TraceEvent::WormholeDeliver { dest, .. } | TraceEvent::CircuitDeliver { dest, .. } => {
            visit(dest);
        }
        TraceEvent::PlaneTick { .. }
        | TraceEvent::CircuitReleased { .. }
        | TraceEvent::CircuitAbandoned { .. }
        | TraceEvent::LaneFault { .. }
        | TraceEvent::LaneRepair { .. }
        | TraceEvent::WatchdogTrip { .. } => {}
    }
}

/// Incremental window-series derivation; [`derive()`] is the batch wrapper.
///
/// The offline path infers the node count in a prepass; the fold instead
/// tracks the highest node id seen while folding. That is equivalent
/// because [`WindowSeries`] rows never read the node count — it only
/// normalizes throughput at render time — so the fold constructs the
/// series with a placeholder and reports the inferred count at
/// [`SeriesFold::finish`].
pub struct SeriesFold {
    series: WindowSeries,
    explicit_nodes: Option<u64>,
    max_node: u32,
    flits_of: HashMap<u64, u32>,
    cur_at: Option<Cycle>,
    touched: HashSet<u32>,
    hits: u64,
    misses: u64,
}

impl SeriesFold {
    /// An empty fold over `window`-cycle windows. `nodes` as in
    /// [`derive()`].
    ///
    /// # Panics
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(window: u64, nodes: Option<u64>) -> Self {
        SeriesFold {
            series: WindowSeries::new(window, nodes.unwrap_or(1).max(1)),
            explicit_nodes: nodes,
            max_node: 0,
            flits_of: HashMap::new(),
            cur_at: None,
            touched: HashSet::new(),
            hits: 0,
            misses: 0,
        }
    }

    fn flush(&mut self, at: Cycle) {
        self.series
            .observe(at, self.touched.len() as u64, self.hits, self.misses);
        self.touched.clear();
        self.hits = 0;
        self.misses = 0;
    }

    /// Folds one record. Records must arrive in cycle order.
    pub fn fold(&mut self, rec: &TraceRecord) {
        if let Some(c) = self.cur_at {
            if c != rec.at {
                self.flush(c);
            }
        }
        self.cur_at = Some(rec.at);
        let max_node = &mut self.max_node;
        let touched = &mut self.touched;
        visit_nodes(&rec.ev, |n| {
            *max_node = (*max_node).max(n);
            touched.insert(n);
        });
        match rec.ev {
            TraceEvent::TransferStart { msg, len_flits, .. }
            | TraceEvent::WormholeInject { msg, len_flits, .. } => {
                self.flits_of.insert(msg, len_flits);
            }
            TraceEvent::CacheHit { .. } => self.hits += 1,
            TraceEvent::CacheMiss { .. } => self.misses += 1,
            TraceEvent::WormholeDeliver { msg, latency, .. }
            | TraceEvent::CircuitDeliver { msg, latency, .. } => {
                let flits = u64::from(self.flits_of.get(&msg).copied().unwrap_or(0));
                self.series.record_delivery(rec.at, latency, flits);
            }
            _ => {}
        }
    }

    /// Flushes the tail window and returns the rows plus the node count
    /// used (the explicit count, or the inferred highest-node-plus-one).
    #[must_use]
    pub fn finish(mut self) -> (Vec<WindowRow>, u64) {
        let end = self.cur_at.map_or(0, |at| at + 1);
        if let Some(at) = self.cur_at {
            self.flush(at);
        }
        let nodes = self.explicit_nodes.unwrap_or(u64::from(self.max_node) + 1);
        (self.series.finish(end), nodes)
    }
}

/// Derives windowed rows from a record stream. `nodes` normalizes
/// throughput; pass `None` to infer the node count as the highest node id
/// seen plus one (exact for workloads that touch every node, a safe lower
/// bound otherwise). Returns the rows and the node count used.
#[must_use]
pub fn derive(records: &[TraceRecord], window: u64, nodes: Option<u64>) -> (Vec<WindowRow>, u64) {
    let mut fold = SeriesFold::new(window, nodes);
    for rec in records {
        fold.fold(rec);
    }
    fold.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at: Cycle, seq: u64, ev: TraceEvent) -> TraceRecord {
        TraceRecord { at, seq, ev }
    }

    #[test]
    fn derived_rows_carry_deliveries_cache_and_activity() {
        let recs = vec![
            rec(0, 0, TraceEvent::CacheMiss { node: 2, dest: 3 }),
            rec(
                1,
                1,
                TraceEvent::WormholeInject {
                    msg: 1,
                    src: 2,
                    dest: 3,
                    len_flits: 16,
                },
            ),
            rec(
                12,
                2,
                TraceEvent::WormholeDeliver {
                    msg: 1,
                    src: 2,
                    dest: 3,
                    latency: 11,
                },
            ),
            rec(
                15,
                3,
                TraceEvent::CacheHit {
                    node: 2,
                    dest: 3,
                    circuit: 1,
                },
            ),
        ];
        let (rows, nodes) = derive(&recs, 10, None);
        assert_eq!(nodes, 4, "highest node id is 3");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].cache_misses, 1);
        assert_eq!(rows[0].active_routers, 1, "one distinct node per cycle");
        assert_eq!(rows[1].delivered, 1);
        assert_eq!(rows[1].flits, 16);
        assert_eq!(rows[1].cache_hits, 1);
        assert!((rows[1].p50.unwrap() - 11.0).abs() < 1e-9);
        assert_eq!(rows[0].p50, None, "no deliveries in the first window");
    }

    #[test]
    fn explicit_node_count_wins_over_inference() {
        let recs = vec![rec(0, 0, TraceEvent::CacheMiss { node: 0, dest: 1 })];
        let (_, nodes) = derive(&recs, 10, Some(64));
        assert_eq!(nodes, 64);
    }

    #[test]
    fn empty_trace_yields_no_rows() {
        let (rows, nodes) = derive(&[], 10, None);
        assert!(rows.is_empty());
        assert_eq!(nodes, 1);
    }
}
