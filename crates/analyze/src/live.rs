//! Live (streaming) analytics.
//!
//! [`LiveAnalytics`] is the one analysis engine: it consumes a record
//! stream one [`TraceRecord`] at a time and produces an [`Analysis`]. The
//! offline [`crate::analyze`] *is* this fold run over a slice, so live and
//! offline results are identical by construction.
//!
//! Each record is matched once. Its circuit, probe, message, flow, lane
//! and node ids are resolved there, through one [`Interner`] per id
//! space, to dense first-appearance indices, and the five passes (spans,
//! flows, lanes, faults, series) are handed those indices and keep their
//! state in plain `Vec`s: nothing on the per-record path hashes with a
//! keyed hasher, walks a tree or allocates beyond amortized table growth.
//! No table is sized by an id read from the trace — a record naming node
//! `u32::MAX` costs one interner slot, not 4G rows — so a record grows a
//! table by at most one row per id it names.
//!
//! For running beside a capture, [`live_sink`] wraps the fold in a
//! [`wavesim_trace::stream::StreamSink`] whose "encoder" folds records on
//! the writer thread instead of encoding bytes: the simulation thread only
//! pays the existing chunk-and-send cost, and the fold keeps up off the
//! hot path. After the sink is finished (joining the writer thread),
//! [`take_analysis`] extracts the sealed [`Analysis`].

use std::io;
use std::sync::{Arc, Mutex};

use wavesim_sim::stats::Histogram;
use wavesim_sim::Cycle;
use wavesim_trace::columnar::Interner;
use wavesim_trace::stream::{ChunkEncoder, StreamSink};
use wavesim_trace::timeseries::MAX_ROWS;
use wavesim_trace::{TraceEvent, TraceRecord};

use crate::faults::FaultFold;
use crate::flows::FlowFold;
use crate::lanes::LaneFold;
use crate::series::SeriesFold;
use crate::spans::{Delivery, SpanFold};
use crate::{Analysis, AnalyzeOptions, SpanMode, Summary};

/// "No entry" in a table of `u32` dense indices.
pub(crate) const NONE: u32 = u32::MAX;

/// Row `i` of a table indexed by dense first-appearance indices, grown
/// with `empty` rows up to it.
pub(crate) fn slot<T>(table: &mut Vec<T>, i: usize, empty: impl FnMut() -> T) -> &mut T {
    if i >= table.len() {
        table.resize_with(i + 1, empty);
    }
    &mut table[i]
}

/// One interner per id space.
#[derive(Default)]
struct Ids {
    circuits: Interner,
    probes: Interner,
    msgs: Interner,
    /// `(src, dest)` pairs.
    flows: Interner,
    /// `(link, switch)` pairs.
    lanes: Interner,
    nodes: Interner,
}

impl Ids {
    fn circuit(&mut self, id: u64) -> usize {
        self.circuits.intern(id) as usize
    }

    fn probe(&mut self, id: u64) -> usize {
        self.probes.intern(id) as usize
    }

    fn msg(&mut self, id: u64) -> usize {
        self.msgs.intern(id) as usize
    }

    fn flow(&mut self, src: u32, dest: u32) -> usize {
        self.flows.intern(u64::from(src) << 32 | u64::from(dest)) as usize
    }

    fn lane(&mut self, link: u32, switch: u8) -> usize {
        self.lanes.intern(u64::from(link) << 8 | u64::from(switch)) as usize
    }

    fn node(&mut self, node: u32) -> usize {
        self.nodes.intern(u64::from(node)) as usize
    }
}

/// Incremental counterpart of [`crate::analyze`]: fold records as they
/// arrive, then [`LiveAnalytics::finish`] into a full [`Analysis`].
///
/// Memory is bounded by the run's *entities* — messages started (the
/// delivered spans are part of the result), circuits, probes, flows,
/// lanes, nodes, faults and windows (at most [`MAX_ROWS`]) — not by the
/// record count: the bulk event classes (plane ticks, probe hops, cache
/// lookups) fold into counters and never accumulate.
pub struct LiveAnalytics {
    opts: AnalyzeOptions,
    records: u64,
    first_at: Option<Cycle>,
    last_at: Cycle,
    /// Highest cycle folded: where still-open lane reservations and
    /// permanent faults end.
    horizon: Cycle,
    ids: Ids,
    spans: SpanFold,
    flows: FlowFold,
    lanes: LaneFold,
    faults: FaultFold,
    series: SeriesFold,
}

impl LiveAnalytics {
    /// An empty engine with the given knobs.
    #[must_use]
    pub fn new(opts: AnalyzeOptions) -> Self {
        LiveAnalytics {
            opts,
            records: 0,
            first_at: None,
            last_at: 0,
            horizon: 0,
            ids: Ids::default(),
            spans: SpanFold::default(),
            flows: FlowFold::default(),
            lanes: LaneFold::new(),
            faults: FaultFold::default(),
            series: SeriesFold::new(opts.window.max(1), opts.nodes),
        }
    }

    /// Folds one record into every pass. Records must arrive in sequence
    /// order, as every [`wavesim_trace::TraceSink`] stores them.
    pub fn fold(&mut self, rec: &TraceRecord) {
        let at = rec.at;
        self.records += 1;
        self.first_at.get_or_insert(at);
        self.last_at = at;
        self.horizon = self.horizon.max(at);
        let Self {
            ids,
            spans,
            flows,
            lanes,
            faults,
            series,
            ..
        } = self;
        series.advance(at);
        // Every node an event names as doing work is touched. A circuit
        // id is interned only where its log is opened, so the circuit
        // interner and the log table stay the same length.
        match rec.ev {
            TraceEvent::ProbeLaunch {
                circuit,
                src,
                dest,
                switch,
                force,
            } => {
                let c = ids.circuit(circuit);
                let log = spans.circuit(c);
                log.src = src;
                log.dest = dest;
                log.first_launch.get_or_insert(at);
                log.launches += 1;
                log.force_launches += u32::from(force);
                spans.circuit_protocol = true;
                lanes.launch(c, switch);
                series.touch(ids.node(src), src);
            }
            TraceEvent::ProbeHop {
                circuit,
                probe,
                node,
                link,
                ..
            } => {
                let c = ids.circuit(circuit);
                spans.circuit(c).hops += 1;
                let p = ids.probe(probe);
                let switch = lanes.switch_of(c);
                lanes.hop(c, p, ids.lane(link, switch), (link, switch), at);
                series.touch(ids.node(node), node);
            }
            TraceEvent::ProbeBacktrack {
                circuit,
                probe,
                node,
            } => {
                let c = ids.circuit(circuit);
                spans.circuit(c).backtracks += 1;
                lanes.backtrack(ids.probe(probe), at);
                series.touch(ids.node(node), node);
            }
            TraceEvent::ProbePark { circuit, node, .. } => {
                let c = ids.circuit(circuit);
                spans.circuit(c).parks += 1;
                series.touch(ids.node(node), node);
            }
            TraceEvent::ProbeReached { dest, .. } => series.touch(ids.node(dest), dest),
            TraceEvent::ProbeExhausted { src, .. } | TraceEvent::ForcedRelease { src, .. } => {
                series.touch(ids.node(src), src);
            }
            TraceEvent::CircuitEstablished {
                circuit, src, dest, ..
            } => {
                let c = ids.circuit(circuit);
                let log = spans.circuit(c);
                log.src = src;
                log.dest = dest;
                log.established = Some(at);
                spans.circuit_protocol = true;
                series.touch(ids.node(src), src);
                series.touch(ids.node(dest), dest);
            }
            TraceEvent::CircuitReleased { circuit } => {
                let c = ids.circuit(circuit);
                spans.circuit(c).released = Some(at);
                lanes.release(c, at);
            }
            TraceEvent::CircuitAbandoned { circuit } => {
                let c = ids.circuit(circuit);
                spans.circuit(c).abandoned = true;
                lanes.release(c, at);
            }
            TraceEvent::CacheHit { node, dest, .. } => {
                spans.circuit_protocol = true;
                flows.flow(ids.flow(node, dest), node, dest).cache_hits += 1;
                series.hit();
                series.touch(ids.node(node), node);
            }
            TraceEvent::CacheMiss { node, dest } => {
                spans.circuit_protocol = true;
                flows.flow(ids.flow(node, dest), node, dest).cache_misses += 1;
                series.miss();
                series.touch(ids.node(node), node);
            }
            TraceEvent::CacheEvict {
                node, victim_dest, ..
            } => {
                spans.circuit_protocol = true;
                flows
                    .flow(ids.flow(node, victim_dest), node, victim_dest)
                    .evictions_suffered += 1;
                series.touch(ids.node(node), node);
            }
            TraceEvent::TransferStart {
                circuit,
                msg,
                src,
                dest,
                len_flits,
            } => {
                let c = ids.circuit(circuit);
                spans.start(ids.msg(msg), at, len_flits, Some(c));
                spans.circuit_protocol = true;
                series.touch(ids.node(src), src);
                series.touch(ids.node(dest), dest);
            }
            TraceEvent::WormholeInject {
                msg,
                src,
                len_flits,
                ..
            } => {
                spans.start(ids.msg(msg), at, len_flits, None);
                series.touch(ids.node(src), src);
            }
            TraceEvent::CircuitDeliver {
                msg,
                src,
                dest,
                latency,
            }
            | TraceEvent::WormholeDeliver {
                msg,
                src,
                dest,
                latency,
            } => {
                let mode = if matches!(rec.ev, TraceEvent::CircuitDeliver { .. }) {
                    SpanMode::Circuit
                } else {
                    SpanMode::Wormhole
                };
                let d = Delivery {
                    at,
                    msg,
                    src,
                    dest,
                    latency,
                    mode,
                };
                let m = ids.msg(msg);
                let flits = spans.deliver(m, &d, ids.circuits.dict());
                series.touch(ids.node(dest), dest);
                series.deliver(at, latency, flits);
            }
            TraceEvent::LaneFault { link, switch } => faults.lane_event(at, link, switch, true),
            TraceEvent::LaneRepair { link, switch } => faults.lane_event(at, link, switch, false),
            TraceEvent::CircuitBroken { circuit, src, dest } => {
                let c = ids.circuit(circuit);
                let log = spans.circuit(c);
                log.src = src;
                log.dest = dest;
                log.broken = true;
                flows.broken(ids.flow(src, dest), at);
                series.touch(ids.node(src), src);
                series.touch(ids.node(dest), dest);
            }
            TraceEvent::EstablishRetry { src, dest, .. } => {
                flows.retry(ids.flow(src, dest), src, dest, at);
                series.touch(ids.node(src), src);
            }
            TraceEvent::PlaneTick { .. } | TraceEvent::WatchdogTrip { .. } => {}
        }
    }

    /// Folds a batch of records.
    pub fn fold_many(&mut self, recs: &[TraceRecord]) {
        for rec in recs {
            self.fold(rec);
        }
    }

    /// Records folded so far.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Why this stream cannot be analysed, once it cannot: its cycle
    /// stamps span more windows than a series may hold ([`MAX_ROWS`]), so
    /// the time series stopped at the ceiling instead of allocating a row
    /// per empty window up to a stamp only the file vouches for.
    #[must_use]
    pub fn refusal(&self) -> Option<String> {
        let at = self.series.overflow()?;
        let window = self.opts.window.max(1);
        Some(format!(
            "the trace spans cycles {}..{at}: {} windows of {window} cycles, and a time \
             series holds at most {MAX_ROWS}; pass a larger --window",
            self.first_at.unwrap_or(0),
            (at / window).saturating_add(1),
        ))
    }

    /// Rows in the largest table of any pass or interner.
    #[cfg(test)]
    fn largest_table(&self) -> usize {
        let ids = &self.ids;
        [
            &ids.circuits,
            &ids.probes,
            &ids.msgs,
            &ids.flows,
            &ids.lanes,
            &ids.nodes,
        ]
        .map(|i| i.dict().len())
        .into_iter()
        .chain([
            self.spans.largest_table(),
            self.flows.largest_table(),
            self.lanes.largest_table(),
            self.faults.largest_table(),
            self.series.largest_table(),
        ])
        .max()
        .unwrap_or(0)
    }

    /// Seals every pass and assembles the [`Analysis`].
    #[must_use]
    pub fn finish(mut self) -> Analysis {
        let factor = self.opts.sample_factor.max(1);
        let spans = self.spans.finish(self.ids.circuits.dict());
        for s in &spans.spans {
            self.flows.delivered(self.ids.flow(s.src, s.dest), s);
        }
        for (_, log) in &spans.circuits {
            self.flows
                .setup_costs(self.ids.flow(log.src, log.dest), log);
        }
        let mut flows = self.flows.finish();
        let mut lanes = self.lanes.finish(self.horizon);
        let faults = self.faults.finish(&spans.spans, self.horizon);
        let (series, nodes) = self.series.finish();

        // A 1-in-N sampled capture keeps every lifecycle event but only
        // one in N of the bulk kinds (cache lookups, probe hops), so the
        // counts derived from those kinds under-report by the sampling
        // factor. Scaling restores unbiased *rate* estimates; the factor
        // is stamped into the report so readers know these are estimates.
        // Multiplying by a constant preserves the sort orders.
        if factor > 1 {
            for f in &mut flows {
                f.cache_hits = f.cache_hits.saturating_mul(factor);
                f.cache_misses = f.cache_misses.saturating_mul(factor);
            }
            for l in &mut lanes {
                l.reservations = l.reservations.saturating_mul(factor);
                l.held_cycles = l.held_cycles.saturating_mul(factor);
            }
        }

        let mut hist = Histogram::new();
        let (mut setup, mut queue, mut transit, mut flits) = (0u64, 0u64, 0u64, 0u64);
        let mut by_mode = [0u64; 3];
        for s in &spans.spans {
            hist.record(s.latency());
            setup = setup.saturating_add(s.setup);
            queue = queue.saturating_add(s.queue);
            transit = transit.saturating_add(s.transit);
            flits += u64::from(s.len_flits);
            by_mode[match s.mode {
                SpanMode::Circuit => 0,
                SpanMode::Wormhole => 1,
                SpanMode::Fallback => 2,
            }] += 1;
        }
        let delivered = spans.spans.len() as u64;
        let per = |x: u64| {
            if delivered == 0 {
                0.0
            } else {
                x as f64 / delivered as f64
            }
        };
        let summary = Summary {
            records: self.records,
            first_at: self.first_at.unwrap_or(0),
            last_at: self.last_at,
            delivered,
            circuit_msgs: by_mode[0],
            wormhole_msgs: by_mode[1],
            fallback_msgs: by_mode[2],
            in_flight: spans.in_flight,
            flits,
            mean_latency: hist.mean(),
            p50: hist.p50().unwrap_or(0.0),
            p95: hist.p95().unwrap_or(0.0),
            p99: hist.p99().unwrap_or(0.0),
            mean_setup: per(setup),
            mean_queue: per(queue),
            mean_transit: per(transit),
        };
        Analysis {
            summary,
            spans,
            flows,
            lanes,
            faults,
            series,
            nodes,
            top_k: self.opts.top_k,
            sample_factor: factor,
        }
    }
}

/// Shared handle to a [`LiveAnalytics`] fold running on a capture writer
/// thread. `None` once [`take_analysis`] has sealed it.
pub type LiveHandle = Arc<Mutex<Option<LiveAnalytics>>>;

/// A [`ChunkEncoder`] that folds records instead of encoding bytes, so
/// the fold runs on the [`StreamSink`] writer thread.
pub struct LiveEncoder {
    handle: LiveHandle,
}

impl ChunkEncoder for LiveEncoder {
    fn encode_chunk(&mut self, recs: &[TraceRecord], _out: &mut Vec<u8>) {
        if let Some(live) = self.handle.lock().expect("live fold poisoned").as_mut() {
            live.fold_many(recs);
        }
    }
}

/// The live-analytics sink: a [`StreamSink`] whose writer thread folds
/// records and discards the (empty) byte output.
pub type LiveSink = StreamSink<io::Sink, LiveEncoder>;

/// Record batch size handed to the fold thread per channel send.
const LIVE_CHUNK: usize = 8192;

/// Arms a live fold: returns the shared handle and the [`TraceSink`]
/// (tee it beside the capture sinks). Finish the sink — joining its
/// writer thread — before calling [`take_analysis`].
///
/// [`TraceSink`]: wavesim_trace::TraceSink
#[must_use]
pub fn live_sink(opts: AnalyzeOptions) -> (LiveHandle, LiveSink) {
    let handle: LiveHandle = Arc::new(Mutex::new(Some(LiveAnalytics::new(opts))));
    let enc = LiveEncoder {
        handle: Arc::clone(&handle),
    };
    let sink = StreamSink::with_encoder(io::sink(), enc, LIVE_CHUNK);
    (handle, sink)
}

/// Seals the fold behind `handle` and returns its [`Analysis`]; `None`
/// if it was already taken. Only call after the owning sink finished,
/// otherwise in-queue records would be silently missing.
#[must_use]
pub fn take_analysis(handle: &LiveHandle) -> Option<Analysis> {
    handle
        .lock()
        .expect("live fold poisoned")
        .take()
        .map(LiveAnalytics::finish)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesim_trace::TraceSink;

    #[test]
    fn sink_folds_everything_before_take() {
        let recs = vec![
            TraceRecord {
                at: 2,
                seq: 0,
                ev: wavesim_trace::TraceEvent::WormholeInject {
                    msg: 1,
                    src: 0,
                    dest: 3,
                    len_flits: 8,
                },
            },
            TraceRecord {
                at: 9,
                seq: 1,
                ev: wavesim_trace::TraceEvent::WormholeDeliver {
                    msg: 1,
                    src: 0,
                    dest: 3,
                    latency: 8,
                },
            },
        ];
        let (handle, mut sink) = live_sink(AnalyzeOptions::default());
        sink.record_many(&recs);
        TraceSink::finish(&mut sink).expect("finish");
        let live = take_analysis(&handle).expect("first take");
        assert!(take_analysis(&handle).is_none(), "second take is empty");
        let offline = crate::analyze(&recs, AnalyzeOptions::default());
        assert_eq!(live.summary.records, offline.summary.records);
        assert_eq!(live.summary.delivered, 1);
        assert_eq!(live.nodes, offline.nodes);
    }

    /// Every variant with every field at the edge of its type, and again
    /// with small values, under stamps that sit at `u64::MAX`, run
    /// backwards or alternate between the two ends — all of which a
    /// WSTRACE1 file can carry. Run in a debug build, where an unchecked
    /// `+` or `-` on a trace-derived cycle panics.
    #[test]
    fn extreme_and_reordered_streams_fold_without_panic_into_bounded_tables() {
        let stamped = |evs: Vec<wavesim_trace::TraceEvent>, at: fn(u64) -> u64| {
            let recs = evs.into_iter().enumerate();
            recs.map(|(i, ev)| TraceRecord {
                at: at(i as u64),
                seq: i as u64,
                ev,
            })
            .collect::<Vec<_>>()
        };
        let big = wavesim_trace::every_event(u64::MAX);
        let small = wavesim_trace::every_event(1);
        let mut interleaved = Vec::new();
        for (b, s) in big.iter().zip(&small) {
            interleaved.extend([*b, *s]);
        }
        let mut reversed = interleaved.clone();
        reversed.reverse();
        let streams = [
            stamped(big.clone(), |_| u64::MAX),
            stamped(small.clone(), |i| i),
            stamped(interleaved.clone(), |i| i),
            stamped(reversed.clone(), |i| u64::MAX - i),
            stamped(reversed, |i| 1000 - i),
            stamped(interleaved, |i| if i % 2 == 0 { u64::MAX - i } else { i }),
        ];
        for (n, recs) in streams.iter().enumerate() {
            for window in [1, 1000, u64::MAX] {
                let mut live = LiveAnalytics::new(AnalyzeOptions {
                    window,
                    ..AnalyzeOptions::default()
                });
                live.fold_many(recs);
                assert!(
                    live.largest_table() <= recs.len(),
                    "stream {n}: a table of {} rows from {} records",
                    live.largest_table(),
                    recs.len()
                );
                let _ = live.refusal();
                let a = live.finish();
                assert_eq!(a.summary.records, recs.len() as u64);
                // Both renderings add and divide what the fold summed.
                let _ = crate::report::render(&a);
                let _ = crate::report::to_json(&a).pretty();
            }
        }
    }

    #[test]
    fn a_cycle_jump_is_refused_naming_the_span_the_window_and_the_flag() {
        let miss = |at, seq| TraceRecord {
            at,
            seq,
            ev: wavesim_trace::TraceEvent::CacheMiss { node: 0, dest: 1 },
        };
        let mut live = LiveAnalytics::new(AnalyzeOptions::default());
        live.fold(&miss(0, 0));
        assert_eq!(live.refusal(), None);
        live.fold(&miss(4_000_000_000_000, 1));
        let why = live.refusal().expect("refused as the stamp is read");
        live.fold(&miss(4_000_000_000_001, 2));
        assert_eq!(
            live.refusal(),
            Some(why.clone()),
            "the first refusal stands"
        );
        for part in ["0..4000000000000", "windows of 1000 cycles", "--window"] {
            assert!(why.contains(part), "`{why}` does not say `{part}`");
        }
        // The fold stays usable and bounded: the analysis holds the rows
        // from before the jump.
        let a = live.finish();
        assert_eq!(a.summary.records, 3);
        assert!(a.series.len() <= 1);
    }
}
