//! Windowed time-series sampling.
//!
//! A [`WindowSeries`] folds a run into fixed-width cycle windows and
//! reports, per window: delivered messages and flits, throughput
//! (flits/node/cycle), p50/p99 delivery latency, circuit-cache hit rate,
//! and the peak active-router count. The bench driver feeds one live
//! (`wavesim-bench` observes the network each cycle); the analyzer derives
//! the series offline from a captured trace stream, equal on every column
//! but the active-router count (DESIGN §8.3). Rows export as
//! CSV, JSON, and Perfetto counter tracks
//! ([`crate::perfetto::export_with_counters`]).
//!
//! Windows are half-open `[start, start + window)`; a trailing partial
//! window is emitted by [`WindowSeries::finish`] with its real `end` so
//! rates stay honest. A window that delivered nothing has *no* latency:
//! its p50/p99 are `None` (empty CSV cells, JSON `null`, no Perfetto
//! counter sample), never a fabricated zero.

use std::fmt::Write as _;

use wavesim_json::Value;
use wavesim_sim::stats::Histogram;
use wavesim_sim::Cycle;

/// One closed sampling window.
#[derive(Debug, Clone, PartialEq)]
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
    /// Circuit-cache hits observed in the window.
    pub cache_hits: u64,
    /// Circuit-cache misses observed in the window.
    pub cache_misses: u64,
    /// Peak simultaneously-active router count observed in the window.
    pub active_routers: u64,
}

impl WindowRow {
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
/// which a trace file can carry — costs a row and a histogram per window
/// in between (`{"at":4000000000000,..}` after `{"at":0,..}` asked for
/// 2.9 GB at the default window). About 90 MB of rows at the ceiling.
pub const MAX_ROWS: u64 = 1 << 20;

/// Streaming window accumulator. Feed observations in non-decreasing
/// cycle order; closed windows accumulate in [`WindowSeries::rows`], at
/// most [`MAX_ROWS`] of them ([`WindowSeries::overflow`]).
#[derive(Debug)]
pub struct WindowSeries {
    window: u64,
    nodes: u64,
    start: Cycle,
    lat: Histogram,
    delivered: u64,
    flits: u64,
    cache_hits: u64,
    cache_misses: u64,
    active_peak: u64,
    rows: Vec<WindowRow>,
    overflow: Option<Cycle>,
}

impl WindowSeries {
    /// A series with `window`-cycle windows over a `nodes`-node network.
    ///
    /// # Panics
    /// Panics if `window` or `nodes` is zero.
    #[must_use]
    pub fn new(window: u64, nodes: u64) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(nodes > 0, "node count must be positive");
        Self {
            window,
            nodes,
            start: 0,
            lat: Histogram::new(),
            delivered: 0,
            flits: 0,
            cache_hits: 0,
            cache_misses: 0,
            active_peak: 0,
            rows: Vec::new(),
            overflow: None,
        }
    }

    /// Window width in cycles.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Node count used for throughput normalization.
    #[must_use]
    pub fn nodes(&self) -> u64 {
        self.nodes
    }

    /// Windows closed so far, oldest first.
    #[must_use]
    pub fn rows(&self) -> &[WindowRow] {
        &self.rows
    }

    fn close_window(&mut self) {
        let end = self.start + self.window;
        self.rows.push(WindowRow {
            start: self.start,
            end,
            delivered: self.delivered,
            flits: self.flits,
            p50: self.lat.p50(),
            p99: self.lat.p99(),
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            active_routers: self.active_peak,
        });
        self.start = end;
        self.lat = Histogram::new();
        self.delivered = 0;
        self.flits = 0;
        self.cache_hits = 0;
        self.cache_misses = 0;
        self.active_peak = 0;
    }

    /// The first cycle that did not fit: reaching it would have taken more
    /// than [`MAX_ROWS`] rows. From then on the series ignores what it is
    /// fed, so its rows are those of the cycles before, and a caller that
    /// reads stamps from a file should refuse the file.
    #[must_use]
    pub fn overflow(&self) -> Option<Cycle> {
        self.overflow
    }

    /// Closes every window that ends at or before `now`; `open` is 1 when
    /// the window holding `now` will become a row too (an observation at
    /// `now`), 0 when `now` is an exclusive end. False, with nothing
    /// closed, once that takes more than [`MAX_ROWS`] rows.
    fn roll_to(&mut self, now: Cycle, open: u64) -> bool {
        if self.overflow.is_some() || (now / self.window).saturating_add(open) > MAX_ROWS {
            self.overflow.get_or_insert(now);
            return false;
        }
        while now.saturating_sub(self.start) >= self.window {
            self.close_window();
        }
        true
    }

    /// Per-cycle observation: current active-router count plus the cache
    /// hit/miss activity since the previous observation.
    pub fn observe(&mut self, now: Cycle, active_routers: u64, hits_delta: u64, misses_delta: u64) {
        if !self.roll_to(now, 1) {
            return;
        }
        self.active_peak = self.active_peak.max(active_routers);
        self.cache_hits += hits_delta;
        self.cache_misses += misses_delta;
    }

    /// Records one delivered message.
    pub fn record_delivery(&mut self, at: Cycle, latency: u64, flits: u64) {
        if !self.roll_to(at, 1) {
            return;
        }
        self.lat.record(latency);
        self.delivered += 1;
        self.flits += flits;
    }

    /// Closes out the series at `end` (exclusive) and returns all rows.
    /// A trailing partial window keeps its real `end`.
    #[must_use]
    pub fn finish(mut self, end: Cycle) -> Vec<WindowRow> {
        if self.roll_to(end, 0) && end > self.start {
            let had_content = self.delivered > 0
                || self.cache_hits + self.cache_misses > 0
                || self.active_peak > 0;
            if had_content {
                self.rows.push(WindowRow {
                    start: self.start,
                    end,
                    delivered: self.delivered,
                    flits: self.flits,
                    p50: self.lat.p50(),
                    p99: self.lat.p99(),
                    cache_hits: self.cache_hits,
                    cache_misses: self.cache_misses,
                    active_routers: self.active_peak,
                });
            }
        }
        self.rows
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
/// [`crate::perfetto::export_with_counters`]. Windows with no deliveries
/// emit no latency samples (the counter track simply has a gap there),
/// so an idle stretch never renders as a latency of zero.
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
    use crate::perfetto;

    #[test]
    fn windows_roll_and_aggregate() {
        let mut s = WindowSeries::new(100, 4);
        s.observe(0, 2, 1, 1);
        s.record_delivery(10, 40, 8);
        s.record_delivery(90, 60, 8);
        s.observe(150, 3, 4, 0);
        s.record_delivery(150, 50, 8);
        let rows = s.finish(200);
        assert_eq!(rows.len(), 2);
        let w0 = &rows[0];
        assert_eq!((w0.start, w0.end), (0, 100));
        assert_eq!(w0.delivered, 2);
        assert_eq!(w0.flits, 16);
        assert_eq!(w0.cache_hits, 1);
        assert_eq!(w0.cache_misses, 1);
        assert_eq!(w0.active_routers, 2);
        assert!((w0.hit_rate() - 0.5).abs() < 1e-12);
        assert!((w0.throughput(4) - 16.0 / 400.0).abs() < 1e-12);
        assert!(w0.p50.unwrap() >= 40.0 && w0.p99.unwrap() <= 63.0);
        let w1 = &rows[1];
        assert_eq!((w1.start, w1.end), (100, 200));
        assert_eq!(w1.delivered, 1);
        assert_eq!(w1.active_routers, 3);
    }

    #[test]
    fn empty_windows_between_activity_are_kept() {
        let mut s = WindowSeries::new(10, 1);
        s.record_delivery(5, 3, 1);
        s.record_delivery(35, 3, 1);
        let rows = s.finish(40);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[1].delivered, 0);
        assert_eq!(rows[2].delivered, 0);
        assert_eq!(rows[3].delivered, 1);
        // Empty windows have no latency — explicitly None, not 0.
        assert_eq!(rows[1].p50, None);
        assert_eq!(rows[2].p99, None);
        assert!(rows[3].p50.is_some());
    }

    #[test]
    fn empty_window_latency_is_null_in_json_and_blank_in_csv() {
        let mut s = WindowSeries::new(10, 1);
        s.record_delivery(5, 3, 1);
        s.record_delivery(25, 7, 1);
        let rows = s.finish(30);
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
        let mut s = WindowSeries::new(10, 1);
        s.record_delivery(5, 3, 1);
        s.record_delivery(25, 7, 1);
        let rows = s.finish(30);
        // Row 1 is empty: 3 counters instead of 5.
        let counters = perfetto_counters(&rows, 1);
        assert_eq!(counters.len(), 5 + 3 + 5);
        let doc = perfetto::export_with_counters(&[], counters);
        perfetto::validate(&doc).expect("valid");
    }

    #[test]
    fn trailing_partial_window_keeps_real_end() {
        let mut s = WindowSeries::new(100, 1);
        s.record_delivery(105, 9, 2);
        let rows = s.finish(150);
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[1].start, rows[1].end), (100, 150));
        assert!((rows[1].throughput(1) - 2.0 / 50.0).abs() < 1e-12);
    }

    #[test]
    fn quiet_trailing_partial_is_dropped() {
        let mut s = WindowSeries::new(100, 1);
        s.record_delivery(5, 9, 2);
        let rows = s.finish(150);
        assert_eq!(rows.len(), 1, "empty 50-cycle tail should not add a row");
    }

    #[test]
    fn csv_and_json_agree_on_row_count() {
        let mut s = WindowSeries::new(50, 2);
        s.record_delivery(10, 5, 4);
        s.record_delivery(60, 7, 4);
        let rows = s.finish(100);
        let csv = to_csv(&rows, 2);
        assert_eq!(csv.lines().count(), 1 + rows.len());
        assert!(csv.starts_with("start,end,delivered"));
        let json = to_json(&rows, 2);
        assert_eq!(json.as_array().unwrap().len(), rows.len());
        assert_eq!(json[0]["delivered"].as_u64(), Some(1));
    }

    #[test]
    fn counter_events_validate_inside_export() {
        let mut s = WindowSeries::new(50, 2);
        s.observe(0, 1, 1, 0);
        s.record_delivery(10, 5, 4);
        let rows = s.finish(50);
        let counters = perfetto_counters(&rows, 2);
        assert_eq!(counters.len(), 5 * rows.len());
        let doc = perfetto::export_with_counters(&[], counters);
        let sum = perfetto::validate(&doc).expect("valid");
        assert_eq!(sum.counters, 5 * rows.len());
    }

    #[test]
    fn a_cycle_jump_past_the_row_ceiling_is_refused_not_allocated_for() {
        let mut s = WindowSeries::new(1000, 1);
        s.observe(0, 1, 0, 1);
        s.record_delivery(1500, 9, 2);
        assert_eq!(s.overflow(), None);
        // The repro's stamp: 4e9 windows of 1000 cycles.
        s.observe(4_000_000_000_000, 1, 0, 1);
        assert_eq!(s.overflow(), Some(4_000_000_000_000));
        assert_eq!(
            s.rows().len(),
            1,
            "nothing was rolled for the refused stamp"
        );
        // Refusal is final, even for a stamp that would have fitted.
        s.record_delivery(1600, 9, 2);
        s.observe(u64::MAX, 1, 1, 0);
        assert_eq!(s.overflow(), Some(4_000_000_000_000));
        assert_eq!(s.finish(u64::MAX).len(), 1);
    }

    #[test]
    fn the_ceiling_is_exactly_max_rows_rows() {
        // The last cycle of window MAX_ROWS - 1 fits, as an observation
        // and as the exclusive end one past it; the next cycle does not.
        let last = MAX_ROWS * 10 - 1;
        let mut s = WindowSeries::new(10, 1);
        s.observe(last, 1, 0, 0);
        assert_eq!(s.overflow(), None);
        let rows = s.finish(last + 1);
        assert_eq!(rows.len() as u64, MAX_ROWS);
        assert_eq!(
            rows.last().map(|r| (r.start, r.end)),
            Some((last - 9, last + 1))
        );

        let mut s = WindowSeries::new(10, 1);
        s.observe(last + 1, 1, 0, 0);
        assert_eq!(s.overflow(), Some(last + 1));
        assert!(s.finish(last + 2).is_empty());
    }

    #[test]
    fn extreme_stamps_and_windows_do_not_overflow_the_arithmetic() {
        let mut s = WindowSeries::new(u64::MAX, 1);
        s.record_delivery(u64::MAX, 1, 1);
        s.observe(3, 1, 0, 0); // out of order: ignored by the roll, still counted
        let rows = s.finish(u64::MAX);
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].start, rows[0].end), (0, u64::MAX));
        let mut s = WindowSeries::new(1, 1);
        s.observe(u64::MAX, 1, 0, 0);
        assert_eq!(s.overflow(), Some(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = WindowSeries::new(0, 1);
    }
}
