//! Concrete replay: a counterexample's stimuli (injections, CARP
//! teardowns, fault and repair — the calls a workload can make) issued a
//! few cycles apart to a timed run of [`wavesim_core::WaveNetwork`], which
//! fires its own events on its own clock, captured as a `WSTRACE1` trace
//! for `wavesim validate-trace`, `analyze` and `convert-trace`. The
//! replayed network is built without the spec's mutation, so it is
//! expected to *survive* a mutation's counterexample; the trace still
//! documents the scenario (which messages, lanes and fault) concretely.

use wavesim_core::Mutation;
use wavesim_trace::stream::{self, take_listener, StreamSink};
use wavesim_trace::{columnar, TraceRecord, VecSink};
use wavesim_verify::wave_measure;

use crate::spec::ModelSpec;
use crate::world::{Move, World};

/// Cycles between consecutive schedule slots. Generous enough for a
/// control flit to cross a 2x2..4x4 fabric between stimuli.
const SPACING: u64 = 8;

/// Drain budget after the last stimulus.
const DRAIN: u64 = 50_000;

/// Outcome of replaying a schedule on the real network.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Every trace record the run emitted, in sequence order.
    pub records: Vec<TraceRecord>,
    /// Messages handed to `WaveNetwork::send`.
    pub injected: u64,
    /// Messages the network delivered (circuit or wormhole).
    pub delivered: u64,
    /// True when the network went idle within the drain budget.
    pub drained: bool,
}

impl Replay {
    /// True when the network survived the schedule: drained with every
    /// injected message delivered.
    #[must_use]
    pub fn survived(&self) -> bool {
        self.drained && self.delivered == self.injected
    }

    /// The capture as a `WSTRACE1` columnar byte stream, accepted by
    /// `wavesim_trace::read_columnar` and `wavesim validate-trace`.
    #[must_use]
    pub fn columnar(&self) -> Vec<u8> {
        columnar::encode(&self.records, stream::CHUNK_RECORDS)
    }
}

/// Replays `schedule`'s stimuli through a timed, un-mutated
/// [`wavesim_core::WaveNetwork`] built from `spec`, with a trace sink armed
/// for the whole run.
#[must_use]
pub fn replay_schedule(spec: &ModelSpec, schedule: &[Move]) -> Replay {
    let plain = ModelSpec {
        mutation: Mutation::None,
        ..spec.clone()
    };
    let mut world = World::new(&plain);
    let sink = StreamSink::listening(vec![Box::new(VecSink::new())], stream::CHUNK_RECORDS);
    world.net.install_trace_sink(Box::new(sink));
    let mut now: u64 = 0;
    for mv in schedule {
        // A protocol move is the network's own: the timed run fires it
        // itself, and the slot's SPACING cycles give it time to.
        world.stimulate(&plain, mv, now);
        for _ in 0..SPACING {
            world.net.tick(now);
            now += 1;
        }
    }
    let net = &mut world.net;
    let deadline = now + DRAIN;
    while net.busy() && now < deadline {
        net.tick(now);
        now += 1;
    }
    let drained = !net.busy();
    let m = wave_measure(net);
    let kept = net.take_trace_sink().and_then(|mut sink| {
        sink.finish().ok()?;
        take_listener::<VecSink>(&mut sink.listeners())
    });
    let records = kept.expect("the stream installed above").into_records();
    Replay {
        records,
        injected: m.injected,
        delivered: m.delivered,
        drained,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::check;
    use wavesim_core::ProtocolKind;
    use wavesim_topology::Topology;
    use wavesim_trace::{read_columnar, stream::read_jsonl};

    #[test]
    fn drop_release_counterexample_replays_and_round_trips() {
        let spec = ModelSpec::new(Topology::mesh(&[2, 2]), ProtocolKind::Clrp, 1)
            .msg(0, 1)
            .msg(2, 3)
            .msg(0, 3)
            .mutate(Mutation::DropRelease);
        let cx = check(&spec, 2_000_000)
            .violation
            .expect("drop-release deadlocks the mutated network");
        let rep = replay_schedule(&spec, &cx.schedule);
        // The protocol as written does not drop releases: it must survive.
        assert!(rep.survived(), "{rep:?}");
        assert!(rep.injected >= 1);
        assert!(!rep.records.is_empty(), "trace captured");
        let col = read_columnar(&rep.columnar()).expect("columnar round-trips");
        assert_eq!(col, rep.records);
        let mut jsonl = String::new();
        for rec in &col {
            stream::encode_record(&mut jsonl, rec);
            jsonl.push('\n');
        }
        assert_eq!(read_jsonl(&jsonl).expect("JSONL round-trips"), rep.records);
    }

    #[test]
    fn carp_schedule_with_fault_replays() {
        let spec = ModelSpec::new(Topology::mesh(&[2, 2]), ProtocolKind::Carp, 1)
            .msg(0, 3)
            .msg(3, 0)
            .fault_on_first_path(true);
        let out = check(&spec, 2_000_000);
        assert!(out.proved(), "{}", out.verdict());
        let schedule = [Move::Inject(0), Move::Inject(1), Move::Fault, Move::Repair];
        let rep = replay_schedule(&spec, &schedule);
        assert!(rep.survived(), "{rep:?}");
        assert_eq!(rep.injected, 2);
    }
}
