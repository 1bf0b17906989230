//! Per-message span reconstruction.
//!
//! Every delivery event in a trace carries its end-to-end latency, so the
//! message's creation cycle is `delivered_at - latency` even though the
//! trace has no explicit "send" event. Working backwards from each
//! delivery, this module rebuilds a latency waterfall whose segments
//! **partition the end-to-end latency exactly**:
//!
//! * `setup` — cycles spent establishing the circuit this message
//!   triggered (cache miss → probe walk → ack). Zero for cache hits,
//!   wormhole messages, and messages queued behind an existing circuit.
//! * `queue` — cycles the message waited at the source after setup, before
//!   its first flit moved ([`TraceEvent::TransferStart`] /
//!   [`TraceEvent::WormholeInject`]).
//! * `transit` — cycles from first flit movement to delivery.
//!
//! The invariant `setup + queue + transit == latency` holds for every
//! [`MessageSpan`] by construction; the integration suite cross-checks the
//! totals against the simulator's own delivery latencies on a 16×16 run.
//!
//! [`TraceEvent::TransferStart`]: wavesim_trace::TraceEvent::TransferStart
//! [`TraceEvent::WormholeInject`]: wavesim_trace::TraceEvent::WormholeInject

use wavesim_sim::Cycle;

use crate::live::{slot, NONE};

/// How a delivered message reached its destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanMode {
    /// Streamed over an established circuit.
    Circuit,
    /// Wormhole under a wormhole-only protocol.
    Wormhole,
    /// Wormhole under a circuit protocol: a failed or declined setup.
    Fallback,
}

impl SpanMode {
    /// Stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpanMode::Circuit => "circuit",
            SpanMode::Wormhole => "wormhole",
            SpanMode::Fallback => "fallback",
        }
    }
}

/// One delivered message's latency waterfall.
#[derive(Debug, Clone, Copy)]
pub struct MessageSpan {
    /// Message id.
    pub msg: u64,
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dest: u32,
    /// The carrying circuit (circuit deliveries only).
    pub circuit: Option<u64>,
    /// Message length in flits (zero if the start event was not traced).
    pub len_flits: u32,
    /// Creation cycle, recovered as `delivered - latency`.
    pub created: Cycle,
    /// Delivery cycle.
    pub delivered: Cycle,
    /// Transport of the delivery.
    pub mode: SpanMode,
    /// Cycles establishing the circuit this message triggered.
    pub setup: u64,
    /// Cycles queued at the source before the first flit moved.
    pub queue: u64,
    /// Cycles from first flit movement to delivery.
    pub transit: u64,
}

impl MessageSpan {
    /// End-to-end latency; always equals `setup + queue + transit`.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.delivered - self.created
    }
}

/// One circuit's lifecycle as seen in the trace (shared by the flow and
/// lane analytics).
#[derive(Debug, Clone, Default)]
pub struct CircuitLog {
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dest: u32,
    /// Cycle of the first probe launch.
    pub first_launch: Option<Cycle>,
    /// Cycle the setup acknowledgment reached the source.
    pub established: Option<Cycle>,
    /// Cycle every lane was free again.
    pub released: Option<Cycle>,
    /// Probe launches (one per wave switch tried, plus force retries).
    pub launches: u32,
    /// Launches with the Force bit set (CLRP phase two).
    pub force_launches: u32,
    /// Forward probe hops.
    pub hops: u64,
    /// Probe backtracks.
    pub backtracks: u64,
    /// Force-mode parks: victims this circuit's setup had to displace —
    /// the victim-chain depth of the forced establishment.
    pub parks: u32,
    /// Messages that started streaming over this circuit.
    pub transfers: u32,
    /// Establishment failed on every switch.
    pub abandoned: bool,
    /// Destroyed by a dynamic fault.
    pub broken: bool,
}

/// Everything span reconstruction recovers from one record stream.
#[derive(Debug, Clone, Default)]
pub struct SpanSet {
    /// Delivered messages, in delivery order.
    pub spans: Vec<MessageSpan>,
    /// Circuit lifecycles as `(circuit id, log)`, ascending by id.
    pub circuits: Vec<(u64, CircuitLog)>,
    /// Messages whose transfer started but did not finish in the trace.
    pub in_flight: u64,
    /// True when the trace carries circuit-protocol events; wormhole
    /// deliveries in such a trace are fallbacks.
    pub circuit_protocol: bool,
}

/// A message from its start event on. The entry outlives the delivery
/// (`open` goes false), so the table has one row per message the trace
/// starts, not per message in flight.
#[derive(Clone, Copy, Default)]
struct Msg {
    start: Cycle,
    len_flits: u32,
    /// Dense index of the carrying circuit, [`NONE`] for wormhole.
    circuit: u32,
    /// True when this was the first transfer on its circuit — the message
    /// that triggered (and waited for) the establishment.
    first_on_circuit: bool,
    /// Started and not yet delivered.
    open: bool,
}

/// Builds the three waterfall segments so they sum to `latency` exactly,
/// whatever clamping the raw cycle values needed.
fn segments(
    created: Cycle,
    latency: u64,
    start: Option<&Msg>,
    established: Option<Cycle>,
) -> (u64, u64, u64) {
    let Some(p) = start else {
        return (0, 0, latency);
    };
    let to_start = p.start.saturating_sub(created).min(latency);
    let setup = if p.first_on_circuit {
        established.map_or(0, |e| e.saturating_sub(created).min(to_start))
    } else {
        0
    };
    (setup, to_start - setup, latency - to_start)
}

/// A `*_deliver` record, as [`SpanFold::deliver`] takes it.
pub(crate) struct Delivery {
    pub at: Cycle,
    pub msg: u64,
    pub src: u32,
    pub dest: u32,
    pub latency: u64,
    pub mode: SpanMode,
}

/// Span reconstruction over dense indices: circuit logs and messages live
/// in `Vec`s indexed by the first-appearance index
/// [`crate::live::LiveAnalytics`] resolved each id to.
#[derive(Default)]
pub(crate) struct SpanFold {
    spans: Vec<MessageSpan>,
    logs: Vec<CircuitLog>,
    msgs: Vec<Msg>,
    in_flight: u64,
    /// See [`SpanSet::circuit_protocol`].
    pub circuit_protocol: bool,
}

impl SpanFold {
    /// The log of circuit `c`.
    pub fn circuit(&mut self, c: usize) -> &mut CircuitLog {
        slot(&mut self.logs, c, CircuitLog::default)
    }

    /// Message `m` starts moving at `at`: over `circuit` (a
    /// `transfer_start`) or through the wormhole fabric (`None`).
    pub fn start(&mut self, m: usize, at: Cycle, len_flits: u32, circuit: Option<usize>) {
        let first_on_circuit = circuit.is_some_and(|c| {
            let log = self.circuit(c);
            log.transfers += 1;
            log.transfers == 1
        });
        let msg = slot(&mut self.msgs, m, Msg::default);
        self.in_flight += u64::from(!msg.open);
        *msg = Msg {
            start: at,
            len_flits,
            circuit: circuit.map_or(NONE, |c| c as u32),
            first_on_circuit,
            open: true,
        };
    }

    /// Message `m` is delivered. `circuit_ids` maps a dense circuit index
    /// back to its id. Returns the span's length: what its last start
    /// event declared, zero if none was traced or an earlier delivery
    /// answered it.
    pub fn deliver(&mut self, m: usize, d: &Delivery, circuit_ids: &[u64]) -> u32 {
        let created = d.at.saturating_sub(d.latency);
        // The message's last start event; it answers one delivery.
        let last = self.msgs.get(m).copied().unwrap_or_default();
        let p = last.open.then_some(&last);
        if last.open {
            self.msgs[m].open = false;
            self.in_flight -= 1;
        }
        let carrier = p.filter(|p| p.circuit != NONE).map(|p| p.circuit as usize);
        let established = carrier.and_then(|c| self.logs[c].established);
        let (setup, queue, transit) = segments(created, d.latency, p, established);
        let len_flits = p.map_or(0, |p| p.len_flits);
        self.spans.push(MessageSpan {
            msg: d.msg,
            src: d.src,
            dest: d.dest,
            circuit: carrier.map(|c| circuit_ids[c]),
            len_flits,
            created,
            delivered: d.at,
            mode: d.mode,
            setup,
            queue,
            transit,
        });
        len_flits
    }

    /// Seals the fold: counts unfinished transfers, rewrites wormhole
    /// deliveries to fallbacks when the trace carries circuit traffic, and
    /// orders the circuit logs by id (`circuit_ids` as in
    /// [`SpanFold::deliver`]).
    pub fn finish(mut self, circuit_ids: &[u64]) -> SpanSet {
        if self.circuit_protocol {
            for s in &mut self.spans {
                if s.mode == SpanMode::Wormhole {
                    s.mode = SpanMode::Fallback;
                }
            }
        }
        let mut circuits: Vec<(u64, CircuitLog)> =
            circuit_ids.iter().copied().zip(self.logs).collect();
        circuits.sort_unstable_by_key(|&(id, _)| id);
        SpanSet {
            spans: self.spans,
            circuits,
            in_flight: self.in_flight,
            circuit_protocol: self.circuit_protocol,
        }
    }

    /// Rows in the largest table.
    #[cfg(test)]
    pub fn largest_table(&self) -> usize {
        self.spans.len().max(self.logs.len()).max(self.msgs.len())
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

    fn reconstruct(records: &[TraceRecord]) -> SpanSet {
        analyze(records, AnalyzeOptions::default()).spans
    }

    /// A miss → probe → establish → transfer → deliver walk, followed by a
    /// cache-hit reuse of the same circuit.
    fn circuit_trace() -> Vec<TraceRecord> {
        vec![
            rec(0, 0, TraceEvent::CacheMiss { node: 0, dest: 3 }),
            rec(
                0,
                1,
                TraceEvent::ProbeLaunch {
                    circuit: 1,
                    src: 0,
                    dest: 3,
                    switch: 1,
                    force: false,
                },
            ),
            rec(
                1,
                2,
                TraceEvent::ProbeHop {
                    circuit: 1,
                    probe: 9,
                    node: 1,
                    link: 0,
                    misroute: false,
                },
            ),
            rec(
                2,
                3,
                TraceEvent::ProbeHop {
                    circuit: 1,
                    probe: 9,
                    node: 3,
                    link: 4,
                    misroute: false,
                },
            ),
            rec(
                3,
                4,
                TraceEvent::ProbeReached {
                    circuit: 1,
                    probe: 9,
                    dest: 3,
                    steps: 2,
                },
            ),
            rec(
                5,
                5,
                TraceEvent::CircuitEstablished {
                    circuit: 1,
                    src: 0,
                    dest: 3,
                    hops: 2,
                },
            ),
            rec(
                6,
                6,
                TraceEvent::TransferStart {
                    circuit: 1,
                    msg: 1,
                    src: 0,
                    dest: 3,
                    len_flits: 24,
                },
            ),
            rec(
                20,
                7,
                TraceEvent::CircuitDeliver {
                    msg: 1,
                    src: 0,
                    dest: 3,
                    latency: 20,
                },
            ),
            rec(
                8,
                8,
                TraceEvent::CacheHit {
                    node: 0,
                    dest: 3,
                    circuit: 1,
                },
            ),
            rec(
                21,
                9,
                TraceEvent::TransferStart {
                    circuit: 1,
                    msg: 2,
                    src: 0,
                    dest: 3,
                    len_flits: 24,
                },
            ),
            rec(
                35,
                10,
                TraceEvent::CircuitDeliver {
                    msg: 2,
                    src: 0,
                    dest: 3,
                    latency: 27,
                },
            ),
        ]
    }

    #[test]
    fn miss_span_charges_setup_then_queue_then_transit() {
        let set = reconstruct(&circuit_trace());
        assert_eq!(set.spans.len(), 2);
        let s = &set.spans[0];
        assert_eq!(s.created, 0);
        assert_eq!((s.setup, s.queue, s.transit), (5, 1, 14));
        assert_eq!(s.mode, SpanMode::Circuit);
        assert_eq!(s.circuit, Some(1));
        assert_eq!(s.len_flits, 24);
    }

    #[test]
    fn hit_span_has_no_setup_segment() {
        let set = reconstruct(&circuit_trace());
        let s = &set.spans[1];
        assert_eq!(s.created, 8);
        assert_eq!((s.setup, s.queue, s.transit), (0, 13, 14));
    }

    #[test]
    fn segments_always_partition_latency() {
        let set = reconstruct(&circuit_trace());
        for s in &set.spans {
            assert_eq!(s.setup + s.queue + s.transit, s.latency(), "{s:?}");
        }
    }

    #[test]
    fn wormhole_only_trace_yields_wormhole_spans() {
        let recs = vec![
            rec(
                2,
                0,
                TraceEvent::WormholeInject {
                    msg: 9,
                    src: 0,
                    dest: 2,
                    len_flits: 16,
                },
            ),
            rec(
                10,
                1,
                TraceEvent::WormholeDeliver {
                    msg: 9,
                    src: 0,
                    dest: 2,
                    latency: 9,
                },
            ),
        ];
        let set = reconstruct(&recs);
        let s = &set.spans[0];
        assert_eq!(s.mode, SpanMode::Wormhole);
        assert_eq!(s.created, 1);
        assert_eq!((s.setup, s.queue, s.transit), (0, 1, 8));
    }

    #[test]
    fn wormhole_delivery_in_a_circuit_trace_is_a_fallback() {
        let mut recs = vec![rec(0, 0, TraceEvent::CacheMiss { node: 0, dest: 2 })];
        recs.push(rec(
            4,
            1,
            TraceEvent::WormholeInject {
                msg: 9,
                src: 0,
                dest: 2,
                len_flits: 16,
            },
        ));
        recs.push(rec(
            12,
            2,
            TraceEvent::WormholeDeliver {
                msg: 9,
                src: 0,
                dest: 2,
                latency: 12,
            },
        ));
        let set = reconstruct(&recs);
        assert_eq!(set.spans[0].mode, SpanMode::Fallback);
        // The failed-setup time shows up as queueing before the inject.
        assert_eq!(set.spans[0].queue, 4);
    }

    #[test]
    fn circuit_log_counts_the_setup_walk() {
        let set = reconstruct(&circuit_trace());
        let [(1, log)] = &set.circuits[..] else {
            panic!("one circuit, id 1: {:?}", set.circuits);
        };
        assert_eq!(log.launches, 1);
        assert_eq!(log.hops, 2);
        assert_eq!(log.established, Some(5));
        assert_eq!(log.transfers, 2);
        assert_eq!((log.src, log.dest), (0, 3));
    }

    #[test]
    fn circuit_logs_come_out_ordered_by_id_whatever_order_they_appear_in() {
        let launch = |seq, circuit| {
            rec(
                seq,
                seq,
                TraceEvent::ProbeLaunch {
                    circuit,
                    src: 0,
                    dest: 1,
                    switch: 1,
                    force: false,
                },
            )
        };
        // A (generation << 32 | slot) id, as the simulator mints them.
        let recs = vec![launch(0, 7 << 32 | 2), launch(1, 3), launch(2, 1 << 32)];
        let ids: Vec<u64> = reconstruct(&recs)
            .circuits
            .iter()
            .map(|&(id, _)| id)
            .collect();
        assert_eq!(ids, [3, 1 << 32, 7 << 32 | 2]);
    }

    #[test]
    fn unfinished_transfers_count_as_in_flight() {
        let mut recs = circuit_trace();
        recs.push(rec(
            40,
            11,
            TraceEvent::TransferStart {
                circuit: 1,
                msg: 3,
                src: 0,
                dest: 3,
                len_flits: 24,
            },
        ));
        let set = reconstruct(&recs);
        assert_eq!(set.in_flight, 1);
        assert_eq!(set.spans.len(), 2);
    }

    #[test]
    fn a_restarted_message_is_in_flight_once_and_a_second_delivery_finds_no_start() {
        let start = |at, seq| {
            rec(
                at,
                seq,
                TraceEvent::WormholeInject {
                    msg: 4,
                    src: 0,
                    dest: 1,
                    len_flits: 8,
                },
            )
        };
        let deliver = |at, seq| {
            rec(
                at,
                seq,
                TraceEvent::WormholeDeliver {
                    msg: 4,
                    src: 0,
                    dest: 1,
                    latency: 3,
                },
            )
        };
        let set = reconstruct(&[start(1, 0), start(2, 1)]);
        assert_eq!(set.in_flight, 1);
        let set = reconstruct(&[start(1, 0), deliver(5, 1), deliver(9, 2)]);
        assert_eq!(set.in_flight, 0);
        assert_eq!(set.spans[0].len_flits, 8);
        assert_eq!(
            (set.spans[1].len_flits, set.spans[1].transit),
            (0, 3),
            "the start was consumed by the first delivery"
        );
    }
}
