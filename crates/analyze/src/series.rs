//! Offline time-series derivation.
//!
//! Rebuilds the same windowed rows the live bench sampler produces
//! ([`wavesim_trace::timeseries::WindowSeries`]) from a captured record
//! stream: deliveries feed the per-window latency histogram, cache events
//! feed the hit rate, and the set of distinct routers named by a cycle's
//! events stands in for the live active-router gauge.

use wavesim_sim::Cycle;
use wavesim_trace::timeseries::{WindowRow, WindowSeries};

use crate::live::slot;

/// Window-series derivation over dense node indices.
///
/// The node count normalizes throughput only at render time —
/// [`WindowSeries`] rows never read it — so the fold builds the series
/// with a placeholder, tracks the highest node id it is shown, and
/// reports the count at [`SeriesFold::finish`].
pub(crate) struct SeriesFold {
    series: WindowSeries,
    explicit_nodes: Option<u64>,
    max_node: u32,
    cur_at: Option<Cycle>,
    /// Per node: the epoch it last did work in. The nodes doing work in
    /// the current cycle are those stamped with the current epoch, so
    /// starting a cycle clears the set by bumping `epoch`.
    stamp: Vec<u64>,
    epoch: u64,
    touched: u64,
    hits: u64,
    misses: u64,
}

impl SeriesFold {
    /// An empty fold over `window`-cycle windows. `nodes` normalizes
    /// throughput; `None` infers it as the highest node id seen plus one
    /// (exact for workloads that touch every node, a safe lower bound
    /// otherwise).
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn new(window: u64, nodes: Option<u64>) -> Self {
        SeriesFold {
            series: WindowSeries::new(window, nodes.unwrap_or(1).max(1)),
            explicit_nodes: nodes,
            max_node: 0,
            cur_at: None,
            stamp: Vec::new(),
            epoch: 1,
            touched: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn flush(&mut self, at: Cycle) {
        self.series
            .observe(at, self.touched, self.hits, self.misses);
        self.epoch += 1;
        self.touched = 0;
        self.hits = 0;
        self.misses = 0;
    }

    /// The next record is stamped `at`. Records must arrive in cycle
    /// order.
    pub fn advance(&mut self, at: Cycle) {
        if self.cur_at == Some(at) {
            return;
        }
        if let Some(c) = self.cur_at {
            self.flush(c);
        }
        self.cur_at = Some(at);
        // Roll to the new cycle now, so that a stamp past the row ceiling
        // is refused as it is read and not when the next cycle flushes it.
        self.series.observe(at, 0, 0, 0);
    }

    /// The current record names node `node`, whose dense index is `n`, as
    /// *doing work* (a probe position, a cache lookup, a transfer
    /// endpoint — not an idle bystander).
    pub fn touch(&mut self, n: usize, node: u32) {
        self.max_node = self.max_node.max(node);
        let stamp = slot(&mut self.stamp, n, || 0);
        // Branch-free: whether a node was already seen this cycle is a coin
        // toss to the predictor, and it resolves only after the interner's
        // two dependent loads.
        self.touched += u64::from(*stamp != self.epoch);
        *stamp = self.epoch;
    }

    /// A cache lookup hit.
    pub fn hit(&mut self) {
        self.hits += 1;
    }

    /// A cache lookup missed.
    pub fn miss(&mut self) {
        self.misses += 1;
    }

    /// A message of `flits` flits was delivered at `at`.
    pub fn deliver(&mut self, at: Cycle, latency: u64, flits: u32) {
        self.series.record_delivery(at, latency, u64::from(flits));
    }

    /// See [`WindowSeries::overflow`].
    pub fn overflow(&self) -> Option<Cycle> {
        self.series.overflow()
    }

    /// Flushes the tail window and returns the rows plus the node count
    /// used (the explicit count, or the inferred highest-node-plus-one).
    pub fn finish(mut self) -> (Vec<WindowRow>, u64) {
        let end = self.cur_at.map_or(0, |at| at.saturating_add(1));
        if let Some(at) = self.cur_at {
            self.flush(at);
        }
        let nodes = self.explicit_nodes.unwrap_or(u64::from(self.max_node) + 1);
        (self.series.finish(end), nodes)
    }

    /// Rows in the node table.
    #[cfg(test)]
    pub fn largest_table(&self) -> usize {
        self.stamp.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, AnalyzeOptions};
    use wavesim_trace::{TraceEvent, TraceRecord};

    fn rec(at: Cycle, seq: u64, ev: TraceEvent) -> TraceRecord {
        TraceRecord { at, seq, ev }
    }

    fn derive(records: &[TraceRecord], window: u64, nodes: Option<u64>) -> (Vec<WindowRow>, u64) {
        let opts = AnalyzeOptions {
            window,
            nodes,
            ..AnalyzeOptions::default()
        };
        let a = analyze(records, opts);
        (a.series, a.nodes)
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
