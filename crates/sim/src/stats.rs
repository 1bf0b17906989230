//! Measurement instruments.
//!
//! Interconnection-network papers of the wormhole era report two headline
//! metrics — **average message latency** (cycles, injection to last-flit
//! delivery) and **accepted throughput** (flits/node/cycle) — measured after
//! a warm-up period so the network is in steady state. This module provides
//! the instruments to collect them plus the distributional detail the
//! experiment harness prints:
//!
//! * [`Accumulator`] — Welford running mean/variance/min/max;
//! * [`Histogram`] — power-of-two bucketed latency histogram with quantile
//!   estimates;
//! * [`Warmup`] — gate that discards samples before the warm-up horizon;
//! * [`ThroughputMeter`] — flits delivered per node per cycle over a window.
//!
//! It also holds the statistics vocabulary's one form: the four counter
//! structs of the workspace ([`CycleKernelStats`] here, `FabricStats` in
//! `wavesim-network`, `WaveStats` and `HealthSnapshot` in `wavesim-core`)
//! are [`stat_table!`](crate::stat_table) tables, and every metrics page
//! and status document is a walk over their [`StatRow`]s.

use crate::time::Cycle;

/// How a row of a [`stat_table!`](crate::stat_table) reads on a metrics page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatKind {
    /// Only ever grows over a run.
    Counter,
    /// An instantaneous reading that may fall.
    Gauge,
}

/// One row of a stat table as [`rows`](CycleKernelStats::rows) walks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatRow {
    /// The field's name, which is also its series name and `/status` key.
    pub name: &'static str,
    /// The first line of the field's doc comment.
    pub help: &'static str,
    /// Counter or gauge.
    pub kind: StatKind,
    /// The field's value.
    pub value: u64,
}

/// Declares a statistics struct as a table in which a counter is one row:
/// its doc comment, its name and its [`StatKind`].
///
/// The table expands to the struct as written by hand (`pub` `u64` fields
/// in row order under the attributes given, so `stats.x += 1` and `Debug`
/// output are what they would be) and to `rows`, one walk over
/// `(name, help, kind, value)`. Metrics pages and status documents are
/// that walk, so a new counter is one row here and one `+= 1` where the
/// event happens.
///
/// A table whose struct line reads `pub struct Name counts Event` may end
/// a row with `= pattern` over `Event`. Such a row is bumped by the
/// generated `count(&mut self, ev: &Event)` once for every event the
/// pattern matches, so the counter is the event and nothing else; the
/// generated `COUNTED` lists those rows in declaration order.
#[macro_export]
macro_rules! stat_table {
    (
        $(#[$meta:meta])*
        pub struct $name:ident counts $ev:ty {
            $( #[doc = $help:literal] $(#[doc = $more:literal])* $field:ident: $kind:ident $(= $pat:pat)?, )+
        }
    ) => {
        $crate::stat_table! {
            $(#[$meta])*
            pub struct $name {
                $( #[doc = $help] $(#[doc = $more])* $field: $kind, )+
            }
        }

        impl $name {
            /// The rows [`count`](Self::count) bumps, in declaration order.
            pub const COUNTED: &'static [&'static str] =
                &[$( $( $crate::stat_table!(@counted $field $pat), )? )+];

            /// Bumps every row whose pattern matches `ev`.
            #[inline]
            pub fn count(&mut self, ev: &$ev) {
                $( $( if matches!(ev, $pat) { self.$field += 1; } )? )+
            }
        }
    };
    (@counted $field:ident $pat:pat) => {
        stringify!($field)
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( #[doc = $help:literal] $(#[doc = $more:literal])* $field:ident: $kind:ident, )+
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( #[doc = $help] $(#[doc = $more])* pub $field: u64, )+
        }

        impl $name {
            /// Every row in declaration order; a row's help is the first
            /// line of its doc comment.
            #[must_use]
            pub fn rows(&self) -> Vec<$crate::stats::StatRow> {
                vec![$( $crate::stats::StatRow {
                    name: stringify!($field),
                    help: $help.trim(),
                    kind: $crate::stats::StatKind::$kind,
                    value: self.$field,
                }, )+]
            }
        }
    };
}

stat_table! {
    /// Cycle-kernel work counters: how much scanning a cycle-driven model
    /// actually performed, independent of wall clock. An O(work) kernel shows
    /// `routers_scanned / ticks` tracking the in-flight population instead of
    /// the network size; these counters make that visible (and regressions
    /// measurable) without a profiler.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CycleKernelStats {
        /// `tick` invocations executed (idle fast-forwarded cycles excluded).
        ticks: Counter,
        /// Router phase-loop visits summed over all ticks.
        routers_scanned: Counter,
        /// Input VCs looked at, summed over all ticks.
        /// These are the heads the VA stage visited, plus the request bits
        /// each switch arbitration chose among (per output port with a
        /// grantable request, the input VCs routed to it with a flit and a
        /// credit whose input port was still free that cycle). Blocked VCs
        /// are parked, not visited, so this tracks flits that can move — a
        /// deadlocked fabric adds nothing.
        vcs_touched: Counter,
        /// Inter-plane events routed to a consuming plane.
        events_routed: Counter,
    }
}

impl CycleKernelStats {
    /// Mean routers scanned per executed tick.
    #[must_use]
    pub fn routers_per_tick(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.routers_scanned as f64 / self.ticks as f64
        }
    }
}

/// Welford online mean/variance accumulator with min/max tracking.
#[derive(Debug, Clone, Default)]
pub struct Accumulator {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0.0 with <2 samples).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Smallest sample (`None` when empty).
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Accumulator) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Power-of-two bucketed histogram for cycle-valued samples.
///
/// Bucket `i` covers `[2^i, 2^(i+1))`, with bucket 0 covering `{0, 1}`.
/// Coarse but allocation-free and adequate for latency-shape reporting.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; 64],
    acc: Accumulator,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram (64 log2 buckets, enough for any `u64`).
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: [0; 64],
            acc: Accumulator::new(),
        }
    }

    fn bucket_of(x: u64) -> usize {
        (64 - x.max(1).leading_zeros() as usize).saturating_sub(1)
    }

    /// Records one sample.
    pub fn record(&mut self, x: u64) {
        self.buckets[Self::bucket_of(x)] += 1;
        self.acc.record(x as f64);
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.acc.count()
    }

    /// Sample mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.acc.mean()
    }

    /// Largest sample seen.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.acc.max().unwrap_or(0.0) as u64
    }

    /// Upper bound of the bucket containing quantile `q` (e.g. 0.99).
    /// Returns 0 when empty.
    #[must_use]
    pub fn quantile_bound(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
            }
        }
        u64::MAX
    }

    /// Bucket-interpolated percentile estimate (`p` in `0.0..=100.0`).
    ///
    /// Finds the bucket containing rank `p/100 × count` and interpolates
    /// linearly inside it, with the bucket bounds clamped to the observed
    /// min/max — so a histogram whose samples all share one value reports
    /// that value exactly, `percentile(0.0)` is the minimum, and
    /// `percentile(100.0)` is the maximum. Returns `None` when the
    /// histogram is empty: an empty distribution has no order statistics,
    /// and a 0.0 sentinel is indistinguishable from a real zero-latency
    /// sample (callers that want the old sentinel write
    /// `.unwrap_or(0.0)`).
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let target = p / 100.0 * n as f64;
        let (min, max) = (self.acc.min().unwrap_or(0.0), self.acc.max().unwrap_or(0.0));
        let mut seen = 0u64;
        for (lo, hi, c) in self.nonzero_buckets() {
            let prev = seen as f64;
            seen += c;
            if seen as f64 >= target {
                let lo = (lo as f64).max(min);
                let hi = (hi as f64).min(max);
                let frac = ((target - prev) / c as f64).clamp(0.0, 1.0);
                return Some(lo + frac * (hi - lo).max(0.0));
            }
        }
        Some(max)
    }

    /// Median estimate ([`Histogram::percentile`] at 50); `None` when
    /// empty.
    #[must_use]
    pub fn p50(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// 95th-percentile estimate ([`Histogram::percentile`] at 95); `None`
    /// when empty.
    #[must_use]
    pub fn p95(&self) -> Option<f64> {
        self.percentile(95.0)
    }

    /// 99th-percentile estimate ([`Histogram::percentile`] at 99); `None`
    /// when empty.
    #[must_use]
    pub fn p99(&self) -> Option<f64> {
        self.percentile(99.0)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.acc.merge(&other.acc);
    }

    /// Non-empty `(bucket_low, bucket_high, count)` triples, for printing.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let lo = if i == 0 { 0 } else { 1u64 << i };
                let hi = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                (lo, hi, c)
            })
            .collect()
    }
}

/// Warm-up gate: ignores samples until a configured cycle horizon so
/// steady-state statistics are not polluted by the cold start.
#[derive(Debug, Clone, Copy)]
pub struct Warmup {
    horizon: Cycle,
}

impl Warmup {
    /// Creates a gate that opens at `horizon`.
    #[must_use]
    pub fn new(horizon: Cycle) -> Self {
        Self { horizon }
    }

    /// True when samples at time `now` should be recorded.
    #[must_use]
    pub fn open(&self, now: Cycle) -> bool {
        now >= self.horizon
    }

    /// The warm-up horizon.
    #[must_use]
    pub fn horizon(&self) -> Cycle {
        self.horizon
    }
}

/// Accepted-throughput meter: flits delivered per node per cycle, measured
/// from the end of warm-up.
#[derive(Debug, Clone)]
pub struct ThroughputMeter {
    warmup: Warmup,
    nodes: u64,
    flits: u64,
    first: Option<Cycle>,
    last: Cycle,
}

impl ThroughputMeter {
    /// Creates a meter for a `nodes`-node network with the given warm-up.
    ///
    /// # Panics
    /// Panics if `nodes == 0`.
    #[must_use]
    pub fn new(nodes: u64, warmup: Warmup) -> Self {
        assert!(nodes > 0, "a network has at least one node");
        Self {
            warmup,
            nodes,
            flits: 0,
            first: None,
            last: 0,
        }
    }

    /// Records `flits` flits delivered at cycle `now`.
    pub fn record(&mut self, now: Cycle, flits: u64) {
        if !self.warmup.open(now) {
            return;
        }
        if self.first.is_none() {
            self.first = Some(self.warmup.horizon());
        }
        self.flits += flits;
        self.last = self.last.max(now);
    }

    /// Flits counted after warm-up.
    #[must_use]
    pub fn flits(&self) -> u64 {
        self.flits
    }

    /// Throughput in flits/node/cycle over the measured span, at observation
    /// time `now`.
    #[must_use]
    pub fn rate(&self, now: Cycle) -> f64 {
        let Some(first) = self.first else { return 0.0 };
        let span = now.max(self.last).saturating_sub(first).max(1);
        self.flits as f64 / (span as f64 * self.nodes as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_matches_naive() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut a = Accumulator::new();
        for &x in &xs {
            a.record(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((a.mean() - mean).abs() < 1e-12);
        assert!((a.variance() - var).abs() < 1e-12);
        assert_eq!(a.min(), Some(1.0));
        assert_eq!(a.max(), Some(9.0));
    }

    #[test]
    fn accumulator_merge_equals_combined() {
        let mut all = Accumulator::new();
        let mut left = Accumulator::new();
        let mut right = Accumulator::new();
        for i in 0..100 {
            let x = (i * 37 % 11) as f64;
            all.record(x);
            if i % 2 == 0 {
                left.record(x);
            } else {
                right.record(x);
            }
        }
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-9);
        assert!((left.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn accumulator_merge_with_empty() {
        let mut a = Accumulator::new();
        a.record(5.0);
        let before = a.clone();
        a.merge(&Accumulator::new());
        assert_eq!(a.count(), before.count());
        let mut empty = Accumulator::new();
        empty.merge(&a);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.mean(), 5.0);
    }

    #[test]
    fn histogram_buckets() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(1023), 9);
        assert_eq!(Histogram::bucket_of(1024), 10);
        assert_eq!(Histogram::bucket_of(u64::MAX), 63);
    }

    #[test]
    fn histogram_quantiles_and_merge() {
        let mut h = Histogram::new();
        for x in 0..1000u64 {
            h.record(x);
        }
        assert_eq!(h.count(), 1000);
        assert!(h.quantile_bound(0.5) >= 499);
        assert!(h.quantile_bound(1.0) >= 999);
        assert_eq!(h.quantile_bound(0.0), 1); // first nonempty bucket bound

        let mut h2 = Histogram::new();
        h2.record(5000);
        h.merge(&h2);
        assert_eq!(h.count(), 1001);
        assert_eq!(h.max(), 5000);
    }

    #[test]
    fn percentile_single_value_is_exact() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(7);
        }
        assert_eq!(h.percentile(0.0), Some(7.0));
        assert_eq!(h.p50(), Some(7.0));
        assert_eq!(h.p95(), Some(7.0));
        assert_eq!(h.p99(), Some(7.0));
        assert_eq!(h.percentile(100.0), Some(7.0));
    }

    #[test]
    fn percentile_two_point_distribution() {
        // 50 samples of 1 and 50 samples of 1000: the median sits on the low
        // value, the extremes are exact, and anything above p50 lands in the
        // high bucket between its clamped bounds.
        let mut h = Histogram::new();
        for _ in 0..50 {
            h.record(1);
            h.record(1000);
        }
        assert_eq!(h.p50(), Some(1.0));
        assert_eq!(h.percentile(0.0), Some(1.0));
        assert_eq!(h.percentile(100.0), Some(1000.0));
        let p75 = h.percentile(75.0).unwrap();
        assert!((512.0..=1000.0).contains(&p75), "p75 = {p75}");
    }

    #[test]
    fn percentile_uniform_within_bucket_resolution() {
        // Uniform 0..=1023: every estimate must fall within one power-of-two
        // bucket of the exact order statistic, and estimates are monotone.
        let mut h = Histogram::new();
        for x in 0..=1023u64 {
            h.record(x);
        }
        let mut prev = -1.0f64;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let est = h.percentile(p).unwrap();
            let exact = (p / 100.0 * 1023.0).round();
            assert!(est >= prev, "non-monotone at p{p}: {est} < {prev}");
            // Bucket i spans [2^i, 2^(i+1)), so the estimate can be off by at
            // most a factor of two from the true order statistic.
            assert!(
                est <= exact.max(1.0) * 2.0 && est * 2.0 >= exact,
                "p{p}: est {est} vs exact {exact}"
            );
            prev = est;
        }
        assert_eq!(h.percentile(100.0), Some(1023.0));
        // Cumulative count hits 512 exactly at bucket 8's top.
        assert_eq!(h.p50(), Some(511.0));
    }

    #[test]
    fn percentile_empty_is_none() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.p50(), None);
        assert_eq!(h.p99(), None);
        // One sample makes every percentile well-defined again.
        let mut h = h;
        h.record(42);
        assert_eq!(h.p99(), Some(42.0));
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_bound(0.99), 0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn warmup_gate() {
        let w = Warmup::new(100);
        assert!(!w.open(99));
        assert!(w.open(100));
        assert!(w.open(1000));
    }

    #[test]
    fn throughput_meter_ignores_warmup_and_computes_rate() {
        let mut m = ThroughputMeter::new(4, Warmup::new(100));
        m.record(50, 1000); // discarded
        assert_eq!(m.flits(), 0);
        m.record(100, 40);
        m.record(200, 40);
        assert_eq!(m.flits(), 80);
        // span = 200-100 = 100 cycles, 4 nodes -> 80/(100*4) = 0.2
        assert!((m.rate(200) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn throughput_meter_empty_rate_zero() {
        let m = ThroughputMeter::new(4, Warmup::new(0));
        assert_eq!(m.rate(1000), 0.0);
    }
}
