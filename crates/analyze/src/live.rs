//! Live (streaming) analytics.
//!
//! [`LiveAnalytics`] is the one analysis engine: it consumes a record
//! stream one [`TraceRecord`] at a time and produces an [`Analysis`]. The
//! offline [`crate::analyze`] *is* this fold run over a slice, so live and
//! offline results are identical by construction.
//!
//! Each record is matched once here, and once more by the series
//! ([`WindowSeries::fold`]), which interns the node ids it counts. Its
//! circuit, probe, message, flow and lane ids are resolved here, through
//! one [`Interner`] per id space, to dense first-appearance indices, and
//! the passes (spans, flows, lanes, faults) are handed those indices.
//! Every pass keeps its state in plain `Vec`s: nothing on the
//! per-record path hashes with a keyed hasher, walks a tree or allocates
//! beyond amortized table growth.
//! No table is sized by an id read from the trace — a record naming node
//! `u32::MAX` costs one interner slot, not 4G rows — so a record grows a
//! table by at most one row per id it names.
//!
//! During a run this fold is a [`Listener`] of the run's one
//! [`wavesim_trace::stream::StreamSink`] (`run --live-analyze`), as
//! [`crate::RunSeries`] is (`run --timeseries-out`): it reads the chunks
//! the file listener reads, on the stream's writer thread, and comes back
//! with the run's capture when the stream finishes.

use std::io;

use wavesim_sim::stats::Histogram;
use wavesim_sim::Cycle;
use wavesim_trace::columnar::Interner;
use wavesim_trace::stream::{is_bulk_kind, Listener};
use wavesim_trace::{TraceEvent, TraceRecord};

use crate::faults::FaultFold;
use crate::flows::FlowFold;
use crate::lanes::LaneFold;
use crate::series::{WindowSeries, MAX_ROWS};
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
    /// The last record's sequence number.
    last_seq: u64,
    /// Sequence numbers skipped between consecutive records: what a
    /// sampler left out.
    seq_gaps: u64,
    /// Bulk-kind records folded: what a sampler kept.
    bulk: u64,
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
    series: WindowSeries,
}

impl LiveAnalytics {
    /// An empty engine with the given knobs.
    #[must_use]
    pub fn new(opts: AnalyzeOptions) -> Self {
        LiveAnalytics {
            opts,
            records: 0,
            last_seq: 0,
            seq_gaps: 0,
            bulk: 0,
            first_at: None,
            last_at: 0,
            horizon: 0,
            ids: Ids::default(),
            spans: SpanFold::default(),
            flows: FlowFold::default(),
            lanes: LaneFold::new(),
            faults: FaultFold::default(),
            series: WindowSeries::new(opts.window.max(1), None),
        }
    }

    /// Folds one record into every pass. Records must arrive in sequence
    /// order, as a network's stream hands them out.
    pub fn fold(&mut self, rec: &TraceRecord) {
        let at = rec.at;
        if self.records > 0 {
            // A backwards sequence number skips nothing.
            let gap = rec.seq.saturating_sub(self.last_seq).saturating_sub(1);
            self.seq_gaps = self.seq_gaps.saturating_add(gap);
        }
        self.last_seq = rec.seq;
        self.bulk += u64::from(is_bulk_kind(&rec.ev));
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
        // A delivery's length, from its message's start, for the series.
        let mut flits = 0;
        // A circuit id is interned only where its log is opened, so the
        // circuit interner and the log table stay the same length.
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
            }
            TraceEvent::ProbeHop {
                circuit,
                probe,
                link,
                ..
            } => {
                let c = ids.circuit(circuit);
                spans.circuit(c).hops += 1;
                let p = ids.probe(probe);
                let switch = lanes.switch_of(c);
                lanes.hop(c, p, ids.lane(link, switch), (link, switch), at);
            }
            TraceEvent::ProbeBacktrack { circuit, probe, .. } => {
                let c = ids.circuit(circuit);
                spans.circuit(c).backtracks += 1;
                lanes.backtrack(ids.probe(probe), at);
            }
            TraceEvent::ProbePark { circuit, .. } => {
                let c = ids.circuit(circuit);
                spans.circuit(c).parks += 1;
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
            }
            TraceEvent::CacheMiss { node, dest } => {
                spans.circuit_protocol = true;
                flows.flow(ids.flow(node, dest), node, dest).cache_misses += 1;
            }
            TraceEvent::CacheEvict {
                node, victim_dest, ..
            } => {
                spans.circuit_protocol = true;
                flows
                    .flow(ids.flow(node, victim_dest), node, victim_dest)
                    .evictions_suffered += 1;
            }
            TraceEvent::TransferStart {
                circuit,
                msg,
                len_flits,
                ..
            } => {
                let c = ids.circuit(circuit);
                spans.start(ids.msg(msg), at, len_flits, Some(c));
                spans.circuit_protocol = true;
            }
            TraceEvent::WormholeInject { msg, len_flits, .. } => {
                spans.start(ids.msg(msg), at, len_flits, None);
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
                flits = spans.deliver(m, &d, ids.circuits.dict());
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
            }
            TraceEvent::EstablishRetry { src, dest, .. } => {
                flows.retry(ids.flow(src, dest), src, dest, at);
            }
            TraceEvent::ProbeReached { .. }
            | TraceEvent::ProbeExhausted { .. }
            | TraceEvent::ForcedRelease { .. }
            | TraceEvent::WatchdogTrip { .. }
            | TraceEvent::PlaneTick { .. } => {}
        }
        series.fold(rec, flits);
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

    /// The 1-in-N factor the stream was sampled with, read from the gaps
    /// in its sequence numbers. The hub numbers records consecutively, and
    /// a sampler keeps bulk records 0, N, 2N, … and every other kind, so
    /// `k` kept bulk records leave `(k − 1)(N − 1)` gaps between the first
    /// and the last of them, plus fewer than N after it: the factor is
    /// exact once more than N bulk records are kept. Any gap is read as
    /// sampling, so a hand-filtered stream reports a factor too.
    fn sample_factor(&self) -> u64 {
        match (self.seq_gaps, self.bulk) {
            (0, _) => 1,
            (gaps, kept) if kept >= 2 => (gaps / (kept - 1)).saturating_add(1),
            (gaps, _) => gaps.saturating_add(1),
        }
    }

    /// Seals every pass and assembles the [`Analysis`].
    #[must_use]
    pub fn finish(mut self) -> Analysis {
        let factor = self.sample_factor();
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

impl Listener for LiveAnalytics {
    fn listen(&mut self, recs: &[TraceRecord]) -> io::Result<()> {
        self.fold_many(recs);
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use wavesim_trace::stream::{take_listener, ColumnarFile, StreamSink};

    /// What a capture sampled 1-in-`every` keeps of `recs`: they go through
    /// a real sampling file and back through the decoder.
    pub(crate) fn thinned(recs: &[TraceRecord], every: u64) -> Vec<TraceRecord> {
        let mut file = ColumnarFile::new(Vec::new()).with_sampling(every);
        file.listen(recs)
            .and_then(|()| file.close())
            .expect("an in-memory file");
        wavesim_trace::read_columnar(&file.into_inner()).expect("the file decodes")
    }

    fn factor_of(recs: &[TraceRecord]) -> u64 {
        let mut live = LiveAnalytics::new(AnalyzeOptions::default());
        live.fold_many(recs);
        live.finish().sample_factor
    }

    /// A sampled capture's factor is read back exactly once more than N
    /// bulk records survive, wherever the stream ends; a gap-free stream
    /// reads 1, and a sequence number that runs backwards skips nothing.
    #[test]
    fn the_sample_factor_is_read_from_sequence_gaps() {
        // Bulk kinds (hops, misses) in runs of one to three between
        // lifecycle records, as a run interleaves them.
        let evs = [
            TraceEvent::CacheMiss { node: 0, dest: 1 },
            TraceEvent::ProbeLaunch {
                circuit: 1,
                src: 0,
                dest: 1,
                switch: 1,
                force: false,
            },
            TraceEvent::ProbeHop {
                circuit: 1,
                probe: 1,
                node: 0,
                link: 0,
                misroute: false,
            },
            TraceEvent::CacheMiss { node: 2, dest: 1 },
            TraceEvent::WormholeInject {
                msg: 1,
                src: 0,
                dest: 1,
                len_flits: 4,
            },
            TraceEvent::CacheMiss { node: 3, dest: 1 },
            TraceEvent::ProbeHop {
                circuit: 1,
                probe: 1,
                node: 1,
                link: 2,
                misroute: false,
            },
            TraceEvent::CacheHit {
                node: 0,
                dest: 1,
                circuit: 1,
            },
            TraceEvent::CircuitReleased { circuit: 1 },
        ];
        let stream: Vec<TraceRecord> = (0..8_000)
            .map(|i| TraceRecord {
                at: i / 4,
                seq: i,
                ev: evs[i as usize % evs.len()],
            })
            .collect();
        assert_eq!(factor_of(&stream), 1, "a gap-free stream");
        assert_eq!(factor_of(&thinned(&stream, 1)), 1);
        for n in [2, 3, 8, 64] {
            // Sampling a prefix of the stream keeps a prefix of what
            // sampling the whole keeps, so these are every stream end.
            let kept = thinned(&stream, n);
            let mut exact = 0;
            for len in (1..=kept.len()).rev().step_by(41) {
                let part = &kept[..len];
                let bulk = part.iter().filter(|r| is_bulk_kind(&r.ev)).count() as u64;
                if bulk > n {
                    assert_eq!(factor_of(part), n, "1-in-{n}, {len} records kept");
                    exact += 1;
                }
            }
            assert!(exact >= 10, "1-in-{n}: {exact} stream ends checked");
        }
        // Backwards steps add no gap; the forward gap after them counts.
        let mut back = stream[..40].to_vec();
        for (i, r) in back.iter_mut().enumerate() {
            r.seq = 1_000 - i as u64;
        }
        assert_eq!(factor_of(&back), 1, "a stream numbered backwards");
        back[39].seq = 5_000;
        assert!(
            factor_of(&back) > 1,
            "a forward jump still reads as sampling"
        );
    }

    #[test]
    fn a_stream_hands_its_fold_back_on_finish() {
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
        let fold = LiveAnalytics::new(AnalyzeOptions::default());
        let mut sink = StreamSink::listening(vec![Box::new(fold)], 1);
        for rec in &recs {
            sink.record(*rec);
        }
        sink.finish().expect("finish");
        let mut back = sink.listeners();
        let live = take_listener::<LiveAnalytics>(&mut back).expect("handed back");
        assert!(
            back.is_empty() && sink.listeners().is_empty(),
            "handed back once"
        );
        let live = live.finish();
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
