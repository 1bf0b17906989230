//! The product's observer set: the four observers the CLI can hang on a
//! run, composed into one [`RunObserver`], and what a sequence of such
//! runs leaves behind.

use wavesim_core::WaveNetwork;
use wavesim_sim::Cycle;

use crate::livestate::BoardObserver;
use crate::timeseries::{SampledSeries, Sampler};
use crate::tracecap::{Capture, RunTrace};
use crate::watchdog::{Watchdog, WatchdogReport};
use crate::{Drained, RunObserver};

/// One run's observers; every absent one costs nothing.
#[derive(Default)]
pub struct Observers {
    /// Flight-recorder ring and on-disk streams.
    pub capture: Option<Capture>,
    /// Windowed time series.
    pub sampler: Option<Sampler>,
    /// Progress-SLO rules.
    pub watchdog: Option<Watchdog>,
    /// Live-status publisher.
    pub board: Option<BoardObserver>,
}

impl Observers {
    /// The present observers, capture first: it must be installed before
    /// the watchdog can stamp a trip into the trace, and taken down last
    /// so its snapshot holds everything the others emitted.
    fn parts(&mut self) -> impl DoubleEndedIterator<Item = &mut dyn RunObserver> {
        let parts: [Option<&mut dyn RunObserver>; 4] = [
            self.capture.as_mut().map(|o| o as _),
            self.sampler.as_mut().map(|o| o as _),
            self.watchdog.as_mut().map(|o| o as _),
            self.board.as_mut().map(|o| o as _),
        ];
        parts.into_iter().flatten()
    }
}

impl RunObserver for Observers {
    fn start(&mut self, net: &mut WaveNetwork) {
        self.parts().for_each(|o| o.start(net));
    }

    fn cycle(&mut self, now: Cycle, net: &WaveNetwork) {
        self.parts().for_each(|o| o.cycle(now, net));
    }

    fn sample(&mut self, now: Cycle, net: &mut WaveNetwork) -> bool {
        self.parts()
            .fold(false, |stop, o| o.sample(now, net) | stop)
    }

    fn finish(&mut self, net: &mut WaveNetwork, outcome: Drained) {
        self.parts().rev().for_each(|o| o.finish(net, outcome));
    }
}

/// What a sequence of observed runs left behind, in run order: every
/// watchdog report, but only the last run's capture and series — the one
/// an export writes (for sweeps this is the highest point: the most
/// loaded, most interesting run).
#[derive(Debug, Default, PartialEq)]
pub struct Observed {
    /// The last captured run.
    pub trace: Option<RunTrace>,
    /// The last sampled run's series.
    pub series: Option<SampledSeries>,
    /// One report per watched run.
    pub reports: Vec<WatchdogReport>,
}

impl Observed {
    /// Appends one finished run.
    pub fn push(&mut self, run: Observers) {
        self.append(Observed {
            trace: run.capture.and_then(Capture::into_trace),
            series: run.sampler.and_then(Sampler::into_series),
            reports: run
                .watchdog
                .map(Watchdog::into_report)
                .into_iter()
                .collect(),
        });
    }

    /// Appends the runs of `later`, which ran after (in serial order)
    /// every run already here.
    pub fn append(&mut self, later: Observed) {
        self.trace = later.trace.or(self.trace.take());
        self.series = later.series.or(self.series.take());
        self.reports.extend(later.reports);
    }
}
