//! Windowed time-series sampling of one run.
//!
//! Like [`crate::tracecap`], the sampler is a [`RunObserver`]: the golden
//! suite pins `RunResult`'s `Debug` output and the run schedule, so
//! sampling must observe without perturbing. A [`Sampler`] handed to a
//! `run_*` entry point feeds a [`WindowSeries`] — one observation per
//! simulated cycle (active routers, cache hit/miss deltas) plus every
//! delivery — and afterwards owns the finished [`SampledSeries`]. With
//! `progress` set, a one-line status is printed to stderr as each window
//! closes (the CLI's `--progress`).

use wavesim_core::WaveNetwork;
use wavesim_sim::stats::Histogram;
use wavesim_sim::Cycle;
use wavesim_trace::timeseries::{WindowRow, WindowSeries};

use crate::{Drained, RunObserver};

/// A finished run's time series.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledSeries {
    /// Closed windows, oldest first.
    pub rows: Vec<WindowRow>,
    /// Node count of the sampled network (throughput normalization).
    pub nodes: u64,
    /// Window width in cycles.
    pub window: u64,
}

/// Samples one run into `window`-cycle windows.
#[derive(Default)]
pub struct Sampler {
    window: u64,
    progress: bool,
    /// `Some` between the run's start and its finish.
    live: Option<WindowSeries>,
    last_hits: u64,
    last_misses: u64,
    cumulative: Histogram,
    cum_delivered: u64,
    printed: usize,
    series: Option<SampledSeries>,
}

impl Sampler {
    /// A sampler with `window`-cycle windows. With `progress`, each closed
    /// window prints a one-line status to stderr.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(window: u64, progress: bool) -> Self {
        assert!(window > 0, "sampling window must be positive");
        Self {
            window,
            progress,
            ..Self::default()
        }
    }

    /// The finished run's series (`None` before the run ends).
    #[must_use]
    pub fn into_series(self) -> Option<SampledSeries> {
        self.series
    }
}

impl RunObserver for Sampler {
    fn start(&mut self, net: &mut WaveNetwork) {
        let nodes = u64::from(net.topology().num_nodes());
        self.live = Some(WindowSeries::new(self.window, nodes));
    }

    /// Peeks this cycle's deliveries and counters before the driver
    /// drains them.
    fn cycle(&mut self, now: Cycle, net: &WaveNetwork) {
        let Some(series) = self.live.as_mut() else {
            return;
        };
        for d in net.pending_deliveries() {
            series.record_delivery(d.delivered_at, d.latency(), u64::from(d.msg.len_flits));
            self.cumulative.record(d.latency());
            self.cum_delivered += 1;
        }
        let stats = net.stats();
        let hits_delta = stats.cache_hits.saturating_sub(self.last_hits);
        let misses_delta = stats.cache_misses.saturating_sub(self.last_misses);
        self.last_hits = stats.cache_hits;
        self.last_misses = stats.cache_misses;
        series.observe(now, net.active_routers(), hits_delta, misses_delta);
        if self.progress {
            for row in &series.rows()[self.printed..] {
                eprintln!(
                    "[wavesim] cycle {:>9} | delivered {:>8} | p99 {:>8.1} | cache hit {:>5.1}%",
                    row.end,
                    self.cum_delivered,
                    self.cumulative.p99().unwrap_or(0.0),
                    row.hit_rate() * 100.0,
                );
            }
            self.printed = series.rows().len();
        }
    }

    /// Closes the last (possibly partial) window at the run's end cycle.
    fn finish(&mut self, _net: &mut WaveNetwork, outcome: Drained) {
        if let Some(series) = self.live.take() {
            self.series = Some(SampledSeries {
                nodes: series.nodes(),
                window: series.window(),
                rows: series.finish(outcome.end),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_open_loop_observed, RunSpec};
    use wavesim_core::{WaveConfig, WaveNetwork};
    use wavesim_topology::Topology;
    use wavesim_workloads::{LengthDist, TrafficConfig, TrafficSource};

    fn run(obs: &mut dyn RunObserver) -> crate::RunResult {
        let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), WaveConfig::default());
        let mut src = TrafficSource::new(
            net.topology().clone(),
            TrafficConfig {
                load: 0.1,
                len: LengthDist::Fixed(32),
                ..TrafficConfig::default()
            },
        );
        run_open_loop_observed(&mut net, &mut src, RunSpec::standard(200, 1_000), obs)
    }

    #[test]
    fn sampled_run_produces_consistent_series() {
        let mut sampler = Sampler::new(200, false);
        let r = run(&mut sampler);
        assert!(r.clean(), "{r:?}");
        let series = sampler.into_series().expect("sampled");
        assert_eq!(series.nodes, 16);
        assert_eq!(series.window, 200);
        assert!(!series.rows.is_empty());
        // Every delivery of the run lands in exactly one window.
        let total: u64 = series.rows.iter().map(|w| w.delivered).sum();
        assert_eq!(total, r.delivered);
        // Windows tile the run without gaps.
        for pair in series.rows.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        assert!(series.rows.iter().any(|w| w.active_routers > 0));
        assert!(series
            .rows
            .iter()
            .any(|w| w.cache_hits + w.cache_misses > 0));
    }

    #[test]
    fn sampling_does_not_change_the_schedule() {
        let baseline = format!("{:?}", run(&mut ()));
        let sampled = format!("{:?}", run(&mut Sampler::new(200, false)));
        assert_eq!(baseline, sampled);
    }

    #[test]
    fn a_sampler_that_never_ran_has_no_series() {
        assert!(Sampler::new(200, false).into_series().is_none());
    }
}
