//! Concrete replay: drives a counterexample schedule through the real
//! [`wavesim_core::WaveNetwork`] and captures the run as a trace.
//!
//! The abstract schedule's *stimulus* actions (injections, CARP
//! teardowns, fault/repair events) are the only ones a workload can
//! actually issue; everything else (probing, backtracking, acking) is
//! protocol-internal and happens on the real network's own clock. The
//! replay therefore maps each stimulus to the matching `WaveNetwork`
//! call, spaced a few cycles apart in schedule order, then lets the
//! network drain.
//!
//! For a counterexample produced under a [`crate::spec::Mutation`] the
//! real network is expected to *survive* the same stimulus sequence —
//! the production code does not contain the mutation. The emitted trace
//! still documents the violating scenario concretely (which messages,
//! which lanes, which fault), in both JSONL and `WSTRACE1` columnar
//! form, and is accepted by the repo's trace tooling
//! (`wavesim validate-trace`).

use wavesim_core::{FaultEvent, LaneId, ProtocolKind, WaveConfig, WaveNetwork};
use wavesim_network::Message;
use wavesim_trace::{columnar, stream, TraceRecord, VecSink};
use wavesim_verify::wave_measure;

use crate::spec::{ModelProtocol, ModelSpec};
use crate::step::Action;

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
    /// Cycles simulated.
    pub cycles: u64,
}

impl Replay {
    /// True when the real network survived the schedule: drained with
    /// every injected message delivered. Expected for mutation-derived
    /// counterexamples (the mutation lives only in the model).
    #[must_use]
    pub fn survived(&self) -> bool {
        self.drained && self.delivered == self.injected
    }

    /// The capture as JSONL (one record per line), accepted by
    /// `wavesim_trace::stream::read_jsonl` and `wavesim validate-trace`.
    #[must_use]
    pub fn jsonl(&self) -> String {
        let mut buf = String::new();
        for rec in &self.records {
            stream::encode_record(&mut buf, rec);
            buf.push('\n');
        }
        buf
    }

    /// The capture as a `WSTRACE1` columnar byte stream, accepted by
    /// `wavesim_trace::read_columnar` and `wavesim validate-trace`.
    #[must_use]
    pub fn columnar(&self) -> Vec<u8> {
        columnar::encode(&self.records, stream::CHUNK_RECORDS)
    }
}

/// Builds the real-network configuration matching a model spec.
fn config_of(spec: &ModelSpec) -> WaveConfig {
    let mut cfg = WaveConfig {
        k: spec.k,
        protocol: match spec.protocol {
            ModelProtocol::Carp => ProtocolKind::Carp,
            ModelProtocol::Clrp | ModelProtocol::ClrpNoForce => ProtocolKind::Clrp,
        },
        fault_retries: spec.retries,
        ..WaveConfig::default()
    };
    if spec.protocol == ModelProtocol::ClrpNoForce {
        cfg.clrp.enable_force = false;
    }
    cfg
}

/// Replays `schedule` through a real [`WaveNetwork`] built from `spec`,
/// with a trace sink armed for the whole run.
#[must_use]
pub fn replay_schedule(spec: &ModelSpec, schedule: &[Action]) -> Replay {
    let ctx = spec.compile();
    let mut net = WaveNetwork::new(spec.topo.clone(), config_of(spec));
    net.install_trace_sink(Box::new(VecSink::new()));

    let mut now: u64 = 0;
    let fault_lane = spec.fault.map(|f| {
        let switch = (f.lane % u16::from(spec.k)) as u8 + 1;
        LaneId::new(ctx.link_of(f.lane), switch)
    });
    for a in schedule {
        match *a {
            Action::Inject { msg } => {
                let (src, dest) = spec.msgs[msg as usize];
                if spec.protocol == ModelProtocol::Carp {
                    net.carp_establish(now, src, dest);
                }
                net.send(now, Message::new(u64::from(msg), src, dest, 16, now));
            }
            Action::Teardown { msg } => {
                let (src, dest) = spec.msgs[msg as usize];
                net.carp_teardown(now, src, dest);
            }
            Action::Fault => {
                let lane = fault_lane.expect("Fault action requires an armed fault");
                net.schedule_fault(now, FaultEvent::Fail(lane))
                    .expect("fault in the future");
            }
            Action::Repair => {
                let lane = fault_lane.expect("Repair action requires an armed fault");
                net.schedule_fault(now, FaultEvent::Repair(lane))
                    .expect("repair in the future");
            }
            // Protocol-internal: the real network performs these on its
            // own; the slot's SPACING cycles give it time to.
            _ => {}
        }
        for _ in 0..SPACING {
            net.tick(now);
            now += 1;
        }
    }
    let deadline = now + DRAIN;
    while net.busy() && now < deadline {
        net.tick(now);
        now += 1;
    }
    let drained = !net.busy();
    let m = wave_measure(&net);
    let records = net
        .take_trace_sink()
        .expect("sink installed above")
        .snapshot();
    Replay {
        records,
        injected: m.injected,
        delivered: m.delivered,
        drained,
        cycles: now,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::check;
    use crate::spec::{ModelProtocol, Mutation};
    use wavesim_topology::Topology;
    use wavesim_trace::{read_columnar, stream::read_jsonl};

    #[test]
    fn drop_release_counterexample_replays_and_round_trips() {
        let spec = ModelSpec::new(Topology::mesh(&[2, 2]), ModelProtocol::Clrp, 1)
            .msg(0, 1)
            .msg(2, 3)
            .msg(0, 3)
            .mutate(Mutation::DropRelease);
        let cx = check(&spec, 2_000_000)
            .violation
            .expect("drop-release deadlocks in the model");
        let rep = replay_schedule(&spec, &cx.schedule);
        // The real protocol does not drop releases: it must survive.
        assert!(rep.survived(), "{rep:?}");
        assert!(rep.injected >= 1);
        assert!(!rep.records.is_empty(), "trace captured");
        let jl = read_jsonl(&rep.jsonl()).expect("JSONL round-trips");
        assert_eq!(jl.len(), rep.records.len());
        let col = read_columnar(&rep.columnar()).expect("columnar round-trips");
        assert_eq!(col.len(), rep.records.len());
    }

    #[test]
    fn carp_schedule_with_fault_replays() {
        let spec = ModelSpec::new(Topology::mesh(&[2, 2]), ModelProtocol::Carp, 1)
            .msg(0, 3)
            .msg(3, 0)
            .fault_on_first_path(true);
        let out = check(&spec, 2_000_000);
        assert!(out.proved(), "{}", out.verdict());
        // No violation: replay the all-messages schedule by hand.
        let schedule: Vec<Action> = (0..spec.msgs.len() as u8)
            .map(|m| Action::Inject { msg: m })
            .chain([Action::Fault, Action::Repair])
            .collect();
        let rep = replay_schedule(&spec, &schedule);
        assert!(rep.survived(), "{rep:?}");
        assert_eq!(rep.injected, 2);
    }
}
