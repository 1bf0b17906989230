//! Trace analytics for wave-switching runs.
//!
//! The simulator's tracing layer ([`wavesim_trace`]) captures a pure
//! side-channel record stream — every probe hop, cache lookup, circuit
//! lifecycle step, and delivery, with cycle timestamps. This crate turns
//! that stream into answers:
//!
//! * [`spans`] — per-message latency waterfalls (`setup + queue + transit
//!   == latency`, exactly) and circuit lifecycles.
//! * [`flows`] — circuit-cache attribution per `(src, dest)` flow: hits,
//!   misses, evictions suffered, Force victim-chain depth, post-fault
//!   retry wait.
//! * [`lanes`] — wave-lane reservation occupancy, the "hot lanes" ranking.
//! * [`faults`] — before/during/after delivery windows around each lane
//!   fault.
//! * [`series`] — the windowed time series (throughput, latency, cache hit
//!   rate, active routers per window): the one builder of its rows, for
//!   `analyze --timeseries` and `run --timeseries-out` alike.
//! * [`report`] — the human [`wavesim_json::table::Table`] report and the
//!   machine JSON document behind `wavesim analyze`.
//!
//! Everything here is deterministic: the same record stream always yields
//! byte-identical reports, whatever thread count produced the trace. The
//! crate reads records, not networks: it links `wavesim-trace`,
//! `wavesim-json` and `wavesim-sim`, never the simulator itself.
//!
//! A capture says how it was sampled: the sampler (`run --trace-sample
//! N`) keeps every Nth bulk record and leaves gaps in the sequence
//! numbers, from which the fold reads N back ([`Analysis::sample_factor`])
//! and rescales the sampled kinds' counts. Nothing needs to be told the
//! factor, so [`AnalyzeOptions`] holds the window and the table size only.

#![warn(missing_docs)]

pub mod faults;
pub mod flows;
pub mod lanes;
pub mod live;
pub mod report;
pub mod series;
pub mod spans;

use wavesim_sim::Cycle;
use wavesim_trace::TraceRecord;

pub use faults::{FaultImpact, PhaseStats};
pub use flows::FlowStats;
pub use lanes::LaneStats;
pub use live::{fold_sink, live_sink, take_analysis, take_fold, LiveAnalytics};
pub use series::{RunSeries, WindowRow};
pub use spans::{CircuitLog, MessageSpan, SpanMode, SpanSet};

/// Analyzer knobs.
#[derive(Debug, Clone, Copy)]
pub struct AnalyzeOptions {
    /// Time-series window length in cycles.
    pub window: u64,
    /// Rows shown in the flow and hot-lane tables.
    pub top_k: usize,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            window: 1000,
            top_k: 10,
        }
    }
}

/// Whole-run aggregates over the reconstructed spans.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Records in the trace.
    pub records: u64,
    /// First record's cycle.
    pub first_at: Cycle,
    /// Last record's cycle.
    pub last_at: Cycle,
    /// Messages delivered.
    pub delivered: u64,
    /// Deliveries over circuits.
    pub circuit_msgs: u64,
    /// Wormhole deliveries under a wormhole-only protocol.
    pub wormhole_msgs: u64,
    /// Wormhole fallbacks under a circuit protocol.
    pub fallback_msgs: u64,
    /// Transfers still in flight when the trace ended.
    pub in_flight: u64,
    /// Flits delivered.
    pub flits: u64,
    /// Mean end-to-end latency.
    pub mean_latency: f64,
    /// Median end-to-end latency.
    pub p50: f64,
    /// 95th-percentile latency.
    pub p95: f64,
    /// 99th-percentile latency.
    pub p99: f64,
    /// Mean setup segment.
    pub mean_setup: f64,
    /// Mean queue segment.
    pub mean_queue: f64,
    /// Mean transit segment.
    pub mean_transit: f64,
}

/// A full analysis of one captured trace.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Whole-run aggregates.
    pub summary: Summary,
    /// Reconstructed spans and circuit lifecycles.
    pub spans: SpanSet,
    /// Per-flow attribution, hottest first.
    pub flows: Vec<FlowStats>,
    /// Lane occupancy, hottest first.
    pub lanes: Vec<LaneStats>,
    /// Fault impact windows, in fault order.
    pub faults: Vec<FaultImpact>,
    /// Derived windowed time series.
    pub series: Vec<WindowRow>,
    /// Node count the series was normalized with: the highest node id
    /// the trace names, plus one.
    pub nodes: u64,
    /// Table row budget carried into the report.
    pub top_k: usize,
    /// Sampling factor the sampled-kind counts were scaled by, read from
    /// the gaps in the records' sequence numbers (1 for a gap-free
    /// capture; see [`live::LiveAnalytics::finish`]).
    pub sample_factor: u64,
}

/// Runs every analysis pass over one record stream.
///
/// This is the batch entry point of [`live::LiveAnalytics`]: the records
/// are folded one at a time through the same incremental engine the live
/// plane runs, so an offline analysis of a capture and a live analysis of
/// the same stream are byte-identical by construction.
#[must_use]
pub fn analyze(records: &[TraceRecord], opts: AnalyzeOptions) -> Analysis {
    let mut engine = live::LiveAnalytics::new(opts);
    engine.fold_many(records);
    engine.finish()
}
