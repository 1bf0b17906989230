//! The windowed time series of a run, folded from its records.
//!
//! [`WindowSeries`] is the one builder of [`WindowRow`]s. It cuts a record
//! stream into fixed-width cycle windows and reports, per window:
//! delivered messages and flits, throughput (flits/node/cycle), p50/p99
//! delivery latency, circuit-cache hit rate, and the peak number of
//! routers doing work in one cycle. `analyze --timeseries` folds a
//! capture through it inside [`crate::LiveAnalytics`]; `run
//! --timeseries-out` folds the run's own records through it as they are
//! emitted, inside a [`RunSeries`], so the two write the same file
//! (DESIGN §8.3). Rows export as CSV, JSON and Perfetto counter tracks.
//!
//! A router is active in a cycle when one of the cycle's records names it
//! as doing work: a probe position, a cache lookup, a transfer endpoint.
//! Routers that only carry wormhole flits in transit leave no record and
//! do not count; the fabric-wide gauge is `HealthSnapshot::active_routers`
//! on the metrics pages.
//!
//! Windows are half-open `[start, start + window)`. The series ends one
//! cycle past its last record, or at the last record's cycle when a
//! watchdog tripped there: an aborting watchdog ends its run at the sample
//! point that tripped. A trailing partial window keeps its real `end`, so
//! rates stay honest. A window that delivered nothing has *no* latency:
//! its p50/p99 are `None` (empty CSV cells, JSON `null`, no Perfetto
//! counter sample), never a fabricated zero.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;

use wavesim_json::Value;
use wavesim_sim::stats::Histogram;
use wavesim_sim::Cycle;
use wavesim_trace::columnar::Interner;
use wavesim_trace::stream::Listener;
use wavesim_trace::{TraceEvent, TraceRecord};

use crate::live::slot;

/// One closed window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowRow {
    /// First cycle of the window (inclusive).
    pub start: Cycle,
    /// End of the window (exclusive).
    pub end: Cycle,
    /// Messages delivered inside the window.
    pub delivered: u64,
    /// Flits delivered inside the window.
    pub flits: u64,
    /// Median delivery latency of the window's deliveries; `None` when
    /// the window delivered nothing (an empty window has no latency, and
    /// reporting `0` would read as "instant delivery").
    pub p50: Option<f64>,
    /// 99th-percentile delivery latency; `None` when the window
    /// delivered nothing.
    pub p99: Option<f64>,
    /// Circuit-cache hits in the window.
    pub cache_hits: u64,
    /// Circuit-cache misses in the window.
    pub cache_misses: u64,
    /// Most routers a single cycle of the window named as doing work.
    pub active_routers: u64,
}

impl WindowRow {
    /// A window opening at `start` that has seen nothing yet.
    fn open(start: Cycle) -> Self {
        WindowRow {
            start,
            end: start,
            delivered: 0,
            flits: 0,
            p50: None,
            p99: None,
            cache_hits: 0,
            cache_misses: 0,
            active_routers: 0,
        }
    }

    /// Delivered flits per node per cycle over the window.
    #[must_use]
    pub fn throughput(&self, nodes: u64) -> f64 {
        let span = self.end.saturating_sub(self.start);
        if span == 0 || nodes == 0 {
            return 0.0;
        }
        self.flits as f64 / (span as f64 * nodes as f64)
    }

    /// Cache hit rate over the window (0 when the cache was idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / total as f64
    }
}

/// Most rows a [`WindowSeries`] holds. A window that saw nothing is still
/// a row, so without a ceiling one cycle stamp far ahead of the last —
/// which a trace file can carry — costs a row per window in between
/// (`{"at":4000000000000,..}` after `{"at":0,..}` asked for 2.9 GB at the
/// default window). About 90 MB of rows at the ceiling.
pub const MAX_ROWS: u64 = 1 << 20;

/// The series fold. Feed it every record with [`WindowSeries::fold`];
/// closed windows accumulate, at most [`MAX_ROWS`] of them
/// ([`WindowSeries::overflow`]).
pub struct WindowSeries {
    window: u64,
    /// The node count throughput is normalised by; `None` infers it.
    nodes: Option<u64>,
    max_node: u32,
    /// Dense first-appearance index of every node id named.
    node_ids: Interner,
    /// Per dense node: the epoch it last did work in. The nodes doing work
    /// in the current cycle are those stamped with the current epoch, so
    /// starting a cycle clears the set by bumping `epoch`.
    stamp: Vec<u64>,
    epoch: u64,
    /// Nodes doing work in the current cycle.
    touched: u64,
    /// The current cycle: the stamp of the last record.
    cur_at: Option<Cycle>,
    /// The cycle of the last watchdog trip.
    trip_at: Option<Cycle>,
    /// The open window; its `end`, `p50` and `p99` are set as it closes.
    open: WindowRow,
    lat: Histogram,
    rows: Vec<WindowRow>,
    overflow: Option<Cycle>,
}

impl WindowSeries {
    /// An empty fold over `window`-cycle windows. `nodes` normalizes
    /// throughput; `None` infers it as the highest node id seen plus one
    /// (exact for workloads that touch every node, a safe lower bound
    /// otherwise).
    ///
    /// # Panics
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(window: u64, nodes: Option<u64>) -> Self {
        assert!(window > 0, "window must be positive");
        WindowSeries {
            window,
            nodes,
            max_node: 0,
            node_ids: Interner::new(),
            stamp: Vec::new(),
            epoch: 1,
            touched: 0,
            cur_at: None,
            trip_at: None,
            open: WindowRow::open(0),
            lat: Histogram::new(),
            rows: Vec::new(),
            overflow: None,
        }
    }

    /// Seals the open window as a row ending at `end`; the next opens there.
    fn close(&mut self, end: Cycle) {
        let lat = std::mem::take(&mut self.lat);
        self.rows.push(WindowRow {
            end,
            p50: lat.p50(),
            p99: lat.p99(),
            ..self.open
        });
        self.open = WindowRow::open(end);
    }

    /// Closes every window that ends at or before `now`; `open` is 1 when
    /// the window holding `now` will become a row too (a record at `now`),
    /// 0 when `now` is an exclusive end. False, with nothing closed, once
    /// that takes more than [`MAX_ROWS`] rows.
    fn roll_to(&mut self, now: Cycle, open: u64) -> bool {
        if self.overflow.is_some() || (now / self.window).saturating_add(open) > MAX_ROWS {
            self.overflow.get_or_insert(now);
            return false;
        }
        while now.saturating_sub(self.open.start) >= self.window {
            self.close(self.open.start + self.window);
        }
        true
    }

    /// Folds one record. Records must arrive in cycle order; a stamp
    /// behind the open window counts in it. Every node the record names as
    /// doing work is touched: this match is the one definition of
    /// `active_routers`. A delivery counts `flits`, the length its
    /// message's start record declared, which the caller's message table
    /// holds; other records ignore it.
    pub fn fold(&mut self, rec: &TraceRecord, flits: u32) {
        self.advance(rec.at);
        match rec.ev {
            TraceEvent::ProbeLaunch { src, .. }
            | TraceEvent::ProbeExhausted { src, .. }
            | TraceEvent::ForcedRelease { src, .. }
            | TraceEvent::EstablishRetry { src, .. }
            | TraceEvent::WormholeInject { src, .. } => self.touch(src),
            TraceEvent::ProbeHop { node, .. }
            | TraceEvent::ProbeBacktrack { node, .. }
            | TraceEvent::ProbePark { node, .. }
            | TraceEvent::CacheEvict { node, .. } => self.touch(node),
            TraceEvent::ProbeReached { dest, .. } => self.touch(dest),
            TraceEvent::CircuitEstablished { src, dest, .. }
            | TraceEvent::TransferStart { src, dest, .. }
            | TraceEvent::CircuitBroken { src, dest, .. } => {
                self.touch(src);
                self.touch(dest);
            }
            TraceEvent::CacheHit { node, .. } => {
                self.open.cache_hits += 1;
                self.touch(node);
            }
            TraceEvent::CacheMiss { node, .. } => {
                self.open.cache_misses += 1;
                self.touch(node);
            }
            TraceEvent::CircuitDeliver { dest, latency, .. }
            | TraceEvent::WormholeDeliver { dest, latency, .. } => {
                self.touch(dest);
                self.deliver(latency, flits);
            }
            TraceEvent::WatchdogTrip { .. } => self.trip_at = Some(rec.at),
            TraceEvent::CircuitReleased { .. }
            | TraceEvent::CircuitAbandoned { .. }
            | TraceEvent::LaneFault { .. }
            | TraceEvent::LaneRepair { .. }
            | TraceEvent::PlaneTick { .. } => {}
        }
    }

    /// The next record is stamped `at`.
    fn advance(&mut self, at: Cycle) {
        if self.cur_at == Some(at) {
            return;
        }
        // The cycle before ends: its active count is in.
        self.open.active_routers = self.open.active_routers.max(self.touched);
        self.touched = 0;
        self.epoch += 1;
        self.cur_at = Some(at);
        // Roll now, so that a stamp past the row ceiling is refused as it
        // is read.
        self.roll_to(at, 1);
    }

    /// The current record names `node` as *doing work* (a probe position,
    /// a cache lookup, a transfer endpoint — not an idle bystander).
    fn touch(&mut self, node: u32) {
        self.max_node = self.max_node.max(node);
        let n = self.node_ids.intern(u64::from(node)) as usize;
        let stamp = slot(&mut self.stamp, n, || 0);
        // Branch-free: whether a node was already seen this cycle is a coin
        // toss to the predictor, and it resolves only after the interner's
        // two dependent loads.
        self.touched += u64::from(*stamp != self.epoch);
        *stamp = self.epoch;
    }

    /// A message of `flits` flits was delivered `latency` cycles after it
    /// was created.
    fn deliver(&mut self, latency: u64, flits: u32) {
        self.lat.record(latency);
        self.open.delivered += 1;
        self.open.flits += u64::from(flits);
    }

    /// The first cycle that did not fit: reaching it would have taken more
    /// than [`MAX_ROWS`] rows. From then on the series ignores what it is
    /// fed, so its rows are those of the cycles before, and a caller that
    /// reads stamps from a file should refuse the file.
    #[must_use]
    pub fn overflow(&self) -> Option<Cycle> {
        self.overflow
    }

    /// Closes the series where the stream ended and returns its rows plus
    /// the node count used (the given one, or the inferred
    /// highest-node-plus-one). A trailing partial window keeps its real
    /// `end`, and is dropped when it saw nothing and no watchdog trip
    /// ended the run there.
    #[must_use]
    pub fn finish(mut self) -> (Vec<WindowRow>, u64) {
        let nodes = self.nodes.unwrap_or(u64::from(self.max_node) + 1);
        let Some(last) = self.cur_at else {
            return (self.rows, nodes);
        };
        let tripped = self.trip_at == Some(last);
        let end = if tripped {
            last
        } else {
            last.saturating_add(1)
        };
        self.open.active_routers = self.open.active_routers.max(self.touched);
        let o = self.open;
        // A run that stalled until the trip keeps its quiet last window:
        // that window is the stall.
        let seen =
            tripped || o.delivered > 0 || o.cache_hits + o.cache_misses > 0 || o.active_routers > 0;
        if self.roll_to(end, 0) && end > self.open.start && seen {
            self.close(end);
        }
        (self.rows, nodes)
    }

    /// Rows in the node table.
    #[cfg(test)]
    pub(crate) fn largest_table(&self) -> usize {
        self.stamp.len()
    }
}

/// A run's series and nothing else, as `run --timeseries-out` folds it:
/// a [`WindowSeries`] plus the length of each message in flight, dropped
/// at its delivery. Its memory follows what the network holds — its
/// nodes, and the messages started and not yet delivered, which the
/// network queues too — and [`MAX_ROWS`], not the number of messages
/// delivered, where [`crate::LiveAnalytics`] keeps every delivered span.
pub struct RunSeries {
    series: WindowSeries,
    /// Flits of each started, undelivered message, by id.
    in_flight: BTreeMap<u64, u32>,
}

impl RunSeries {
    /// An empty fold over `window`-cycle windows of a network of `nodes`
    /// nodes.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(window: u64, nodes: u64) -> Self {
        RunSeries {
            series: WindowSeries::new(window, Some(nodes)),
            in_flight: BTreeMap::new(),
        }
    }

    /// Folds one record. A delivery counts the flits of its message's
    /// last start, as [`crate::LiveAnalytics`] does, so both folds build
    /// the same rows from the same records.
    pub fn fold(&mut self, rec: &TraceRecord) {
        let flits = match rec.ev {
            TraceEvent::TransferStart { msg, len_flits, .. }
            | TraceEvent::WormholeInject { msg, len_flits, .. } => {
                self.in_flight.insert(msg, len_flits);
                0
            }
            TraceEvent::CircuitDeliver { msg, .. } | TraceEvent::WormholeDeliver { msg, .. } => {
                self.in_flight.remove(&msg).unwrap_or(0)
            }
            _ => 0,
        };
        self.series.fold(rec, flits);
    }

    /// Closes the series: its rows and the node count.
    #[must_use]
    pub fn finish(self) -> (Vec<WindowRow>, u64) {
        self.series.finish()
    }
}

impl Listener for RunSeries {
    fn listen(&mut self, recs: &[TraceRecord]) -> io::Result<()> {
        recs.iter().for_each(|rec| self.fold(rec));
        Ok(())
    }
}

/// Renders rows as CSV (header + one line per window, `{:.4}` floats for
/// byte stability).
#[must_use]
pub fn to_csv(rows: &[WindowRow], nodes: u64) -> String {
    let mut out = String::from(
        "start,end,delivered,flits,throughput,p50_latency,p99_latency,\
         cache_hits,cache_misses,cache_hit_rate,active_routers\n",
    );
    // Empty windows have no latency: their p50/p99 cells stay empty
    // rather than printing a misleading 0.
    let quantile = |q: Option<f64>| q.map_or_else(String::new, |v| format!("{v:.4}"));
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{:.6},{},{},{},{},{:.4},{}",
            r.start,
            r.end,
            r.delivered,
            r.flits,
            r.throughput(nodes),
            quantile(r.p50),
            quantile(r.p99),
            r.cache_hits,
            r.cache_misses,
            r.hit_rate(),
            r.active_routers,
        );
    }
    out
}

/// Renders rows as a JSON array of window objects.
#[must_use]
pub fn to_json(rows: &[WindowRow], nodes: u64) -> Value {
    Value::Arr(
        rows.iter()
            .map(|r| {
                Value::obj([
                    ("start", r.start.into()),
                    ("end", r.end.into()),
                    ("delivered", r.delivered.into()),
                    ("flits", r.flits.into()),
                    ("throughput", r.throughput(nodes).into()),
                    ("p50_latency", r.p50.map_or(Value::Null, Value::from)),
                    ("p99_latency", r.p99.map_or(Value::Null, Value::from)),
                    ("cache_hits", r.cache_hits.into()),
                    ("cache_misses", r.cache_misses.into()),
                    ("cache_hit_rate", r.hit_rate().into()),
                    ("active_routers", r.active_routers.into()),
                ])
            })
            .collect(),
    )
}

/// Builds Perfetto counter-track events (`ph: "C"`) from rows, one sample
/// per window start per metric, for
/// [`wavesim_trace::perfetto::export_with_counters`]. Windows with no
/// deliveries emit no latency samples (the counter track simply has a gap
/// there), so an idle stretch never renders as a latency of zero.
#[must_use]
pub fn perfetto_counters(rows: &[WindowRow], nodes: u64) -> Vec<Value> {
    let mut out = Vec::with_capacity(rows.len() * 5);
    let mut push = |ts: Cycle, name: &str, value: f64| {
        out.push(Value::obj(vec![
            ("ph", "C".into()),
            ("ts", ts.into()),
            ("pid", 0u64.into()),
            ("tid", 0u64.into()),
            ("name", name.into()),
            ("args", Value::obj(vec![("value", value.into())])),
        ]));
    };
    for r in rows {
        push(
            r.start,
            "throughput (flits/node/cycle)",
            r.throughput(nodes),
        );
        if let Some(p50) = r.p50 {
            push(r.start, "p50 latency (cycles)", p50);
        }
        if let Some(p99) = r.p99 {
            push(r.start, "p99 latency (cycles)", p99);
        }
        push(r.start, "cache hit rate", r.hit_rate());
        push(r.start, "active routers", r.active_routers as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, AnalyzeOptions};
    use wavesim_trace::{perfetto, TraceEvent, TraceRecord};

    fn rec(at: Cycle, seq: u64, ev: TraceEvent) -> TraceRecord {
        TraceRecord { at, seq, ev }
    }

    fn derive(records: &[TraceRecord], window: u64) -> (Vec<WindowRow>, u64) {
        let opts = AnalyzeOptions {
            window,
            ..AnalyzeOptions::default()
        };
        let a = analyze(records, opts);
        (a.series, a.nodes)
    }

    /// A series fed one delivery per `(at, latency, flits)`.
    fn deliveries(window: u64, of: &[(Cycle, u64, u32)]) -> WindowSeries {
        let mut s = WindowSeries::new(window, Some(1));
        for &(at, latency, flits) in of {
            s.advance(at);
            s.deliver(latency, flits);
        }
        s
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
        let (rows, nodes) = derive(&recs, 10);
        assert_eq!(nodes, 4, "highest node id is 3");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].cache_misses, 1);
        assert_eq!(rows[0].active_routers, 1, "one distinct node per cycle");
        assert_eq!(rows[1].delivered, 1);
        assert_eq!(rows[1].flits, 16);
        assert_eq!(rows[1].cache_hits, 1);
        assert!((rows[1].p50.unwrap() - 11.0).abs() < 1e-9);
        assert_eq!(rows[0].p50, None, "no deliveries in the first window");
        assert_eq!(rows[1].end, 16, "one cycle past the last record");
    }

    #[test]
    fn the_run_fold_builds_the_analysis_rows_and_forgets_delivered_messages() {
        let inject = |at, seq, msg| {
            let (src, dest, len_flits) = (0, 1, 8);
            let ev = TraceEvent::WormholeInject {
                msg,
                src,
                dest,
                len_flits,
            };
            rec(at, seq, ev)
        };
        let start = |at, seq, msg| {
            let (circuit, src, dest, len_flits) = (1, 2, 3, 24);
            let ev = TraceEvent::TransferStart {
                circuit,
                msg,
                src,
                dest,
                len_flits,
            };
            rec(at, seq, ev)
        };
        let deliver = |at, seq, msg| {
            let (src, dest, latency) = (0, 1, 3);
            let ev = TraceEvent::WormholeDeliver {
                msg,
                src,
                dest,
                latency,
            };
            rec(at, seq, ev)
        };
        // Message 2 is delivered twice: the second delivery finds its
        // start answered, in both folds.
        let recs = [
            inject(1, 0, 1),
            start(2, 1, 2),
            deliver(4, 2, 1),
            deliver(5, 3, 2),
            deliver(9, 4, 2),
            inject(12, 5, 3),
        ];
        let mut run = RunSeries::new(5, 4);
        for r in &recs {
            run.fold(r);
        }
        assert_eq!(run.in_flight.len(), 1, "only message 3 is in flight");
        let (rows, nodes) = run.finish();
        assert_eq!((rows.clone(), nodes), derive(&recs, 5), "node 3 is named");
        assert_eq!(rows.iter().map(|r| r.flits).sum::<u64>(), 8 + 24);
    }

    #[test]
    fn explicit_node_count_wins_over_inference() {
        let recs = vec![rec(0, 0, TraceEvent::CacheMiss { node: 0, dest: 1 })];
        let mut run = RunSeries::new(10, 64);
        run.fold(&recs[0]);
        assert_eq!(run.finish().1, 64);
        assert_eq!(
            derive(&recs, 10).1,
            1,
            "inferred: node 0 is the highest named"
        );
    }

    #[test]
    fn empty_trace_yields_no_rows() {
        let (rows, nodes) = derive(&[], 10);
        assert!(rows.is_empty());
        assert_eq!(nodes, 1);
    }

    #[test]
    fn a_trip_in_the_last_cycle_ends_the_series_there() {
        let trip = TraceEvent::WatchdogTrip {
            rule: 1,
            value: 64,
            limit: 16,
        };
        let hit = TraceEvent::CacheMiss { node: 1, dest: 0 };
        let aborted = [rec(3, 0, hit), rec(64, 1, hit), rec(64, 2, trip)];
        let (rows, _) = derive(&aborted, 1000);
        assert_eq!((rows[0].start, rows[0].end), (0, 64));
        // A stall that outlasts a window keeps its quiet last window.
        let stalled = [rec(3, 0, hit), rec(128, 1, trip)];
        let (rows, _) = derive(&stalled, 100);
        let spans: Vec<_> = rows.iter().map(|r| (r.start, r.end)).collect();
        assert_eq!(spans, [(0, 100), (100, 128)]);
        assert_eq!(rows[1].cache_misses, 0);
        // A trip the run went on from is not where it ended.
        let watched = [rec(3, 0, hit), rec(64, 1, trip), rec(70, 2, hit)];
        let (rows, _) = derive(&watched, 1000);
        assert_eq!(rows[0].end, 71);
    }

    #[test]
    fn windows_roll_and_aggregate() {
        let mut s = WindowSeries::new(100, Some(4));
        s.advance(0);
        s.fold(
            &rec(
                0,
                0,
                TraceEvent::CacheHit {
                    node: 0,
                    dest: 1,
                    circuit: 1,
                },
            ),
            0,
        );
        s.fold(&rec(0, 1, TraceEvent::CacheMiss { node: 1, dest: 0 }), 0);
        s.advance(10);
        s.deliver(40, 8);
        s.advance(90);
        s.deliver(60, 8);
        s.advance(150);
        for node in [0, 1] {
            s.touch(node);
        }
        s.fold(
            &rec(
                150,
                2,
                TraceEvent::CacheHit {
                    node: 2,
                    dest: 0,
                    circuit: 1,
                },
            ),
            0,
        );
        s.deliver(50, 8);
        s.advance(199);
        let (rows, nodes) = s.finish();
        assert_eq!((rows.len(), nodes), (2, 4));
        let w0 = &rows[0];
        assert_eq!((w0.start, w0.end), (0, 100));
        assert_eq!((w0.delivered, w0.flits), (2, 16));
        assert_eq!((w0.cache_hits, w0.cache_misses), (1, 1));
        assert_eq!(w0.active_routers, 2);
        assert!((w0.hit_rate() - 0.5).abs() < 1e-12);
        assert!((w0.throughput(4) - 16.0 / 400.0).abs() < 1e-12);
        assert!(w0.p50.unwrap() >= 40.0 && w0.p99.unwrap() <= 63.0);
        let w1 = &rows[1];
        assert_eq!((w1.start, w1.end), (100, 200));
        assert_eq!((w1.delivered, w1.active_routers), (1, 3));
    }

    #[test]
    fn a_node_named_twice_in_a_cycle_counts_once() {
        let mut s = WindowSeries::new(10, None);
        s.advance(0);
        for node in [7, 7, u32::MAX, 7] {
            s.touch(node);
        }
        s.advance(1);
        s.touch(7);
        assert_eq!(s.largest_table(), 2, "one row per distinct node");
        let (rows, nodes) = s.finish();
        assert_eq!(rows[0].active_routers, 2);
        assert_eq!(nodes, u64::from(u32::MAX) + 1);
    }

    #[test]
    fn empty_windows_between_activity_are_kept() {
        let (rows, _) = deliveries(10, &[(5, 3, 1), (35, 3, 1), (39, 3, 1)]).finish();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[1].delivered, 0);
        assert_eq!(rows[2].delivered, 0);
        assert_eq!(rows[3].delivered, 2);
        // Empty windows have no latency — explicitly None, not 0.
        assert_eq!(rows[1].p50, None);
        assert_eq!(rows[2].p99, None);
        assert!(rows[3].p50.is_some());
    }

    #[test]
    fn empty_window_latency_is_null_in_json_and_blank_in_csv() {
        let (rows, _) = deliveries(10, &[(5, 3, 1), (25, 7, 1), (29, 7, 1)]).finish();
        assert_eq!(rows.len(), 3);
        let json = to_json(&rows, 1);
        assert!(matches!(json[1]["p50_latency"], Value::Null));
        assert!(matches!(json[1]["p99_latency"], Value::Null));
        assert_eq!(json[0]["p50_latency"].as_f64(), Some(3.0));
        let csv = to_csv(&rows, 1);
        let line: Vec<&str> = csv.lines().nth(2).unwrap().split(',').collect();
        assert_eq!(line[5], "", "empty window's p50 cell must be blank");
        assert_eq!(line[6], "", "empty window's p99 cell must be blank");
        let full: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
        assert_eq!(full[5], "3.0000");
    }

    #[test]
    fn empty_windows_emit_no_latency_counter_samples() {
        let (rows, _) = deliveries(10, &[(5, 3, 1), (25, 7, 1), (29, 7, 1)]).finish();
        // Row 1 is empty: 3 counters instead of 5.
        let counters = perfetto_counters(&rows, 1);
        assert_eq!(counters.len(), 5 + 3 + 5);
        let doc = perfetto::export_with_counters(&[], counters);
        perfetto::validate(&doc).expect("valid");
    }

    #[test]
    fn trailing_partial_window_keeps_real_end() {
        let (rows, _) = deliveries(100, &[(5, 9, 2), (105, 9, 2), (149, 9, 2)]).finish();
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[1].start, rows[1].end), (100, 150));
        assert!((rows[1].throughput(1) - 4.0 / 50.0).abs() < 1e-12);
    }

    #[test]
    fn quiet_trailing_partial_is_dropped() {
        let mut s = deliveries(100, &[(5, 9, 2)]);
        s.advance(149);
        let (rows, _) = s.finish();
        assert_eq!(
            rows.len(),
            1,
            "a 50-cycle tail that saw nothing adds no row"
        );
    }

    #[test]
    fn csv_json_and_counters_agree_on_row_count() {
        let mut s = deliveries(50, &[(10, 5, 4), (60, 7, 4)]);
        s.fold(
            &rec(
                99,
                2,
                TraceEvent::CacheHit {
                    node: 0,
                    dest: 1,
                    circuit: 1,
                },
            ),
            0,
        );
        let (rows, _) = s.finish();
        let csv = to_csv(&rows, 2);
        assert_eq!(csv.lines().count(), 1 + rows.len());
        assert!(csv.starts_with("start,end,delivered"));
        let json = to_json(&rows, 2);
        assert_eq!(json.as_array().unwrap().len(), rows.len());
        assert_eq!(json[0]["delivered"].as_u64(), Some(1));
        let counters = perfetto_counters(&rows, 2);
        assert_eq!(counters.len(), 5 * rows.len());
        let doc = perfetto::export_with_counters(&[], counters);
        let sum = perfetto::validate(&doc).expect("valid");
        assert_eq!(sum.counters, 5 * rows.len());
    }

    #[test]
    fn a_cycle_jump_past_the_row_ceiling_is_refused_not_allocated_for() {
        let mut s = deliveries(1000, &[(0, 9, 2), (1500, 9, 2)]);
        assert_eq!(s.overflow(), None);
        // The repro's stamp: 4e9 windows of 1000 cycles.
        s.advance(4_000_000_000_000);
        assert_eq!(s.overflow(), Some(4_000_000_000_000));
        assert_eq!(s.rows.len(), 1, "nothing was rolled for the refused stamp");
        // Refusal is final, even for a stamp that would have fitted.
        s.advance(1600);
        s.deliver(9, 2);
        s.advance(u64::MAX);
        assert_eq!(s.overflow(), Some(4_000_000_000_000));
        assert_eq!(s.finish().0.len(), 1);
    }

    #[test]
    fn the_ceiling_is_exactly_max_rows_rows() {
        // The last cycle of window MAX_ROWS - 1 fits, as a record and as
        // the exclusive end one past it; the next cycle does not.
        let last = MAX_ROWS * 10 - 1;
        let s = deliveries(10, &[(last, 1, 1)]);
        assert_eq!(s.overflow(), None);
        let (rows, _) = s.finish();
        assert_eq!(rows.len() as u64, MAX_ROWS);
        assert_eq!(
            rows.last().map(|r| (r.start, r.end)),
            Some((last - 9, last + 1))
        );
        let s = deliveries(10, &[(last + 1, 1, 1)]);
        assert_eq!(s.overflow(), Some(last + 1));
        assert!(s.finish().0.is_empty());
    }

    #[test]
    fn extreme_stamps_and_windows_do_not_overflow_the_arithmetic() {
        // Out of order: ignored by the roll, still counted.
        let s = deliveries(u64::MAX, &[(u64::MAX - 1, 1, 1), (3, 1, 1)]);
        let (rows, _) = s.finish();
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].start, rows[0].end), (0, 4));
        assert_eq!(rows[0].delivered, 2);
        let s = deliveries(1, &[(u64::MAX, 1, 1)]);
        assert_eq!(s.overflow(), Some(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = WindowSeries::new(0, None);
    }
}
