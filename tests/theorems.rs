//! Integration tests for the paper's §4 theorems, run across crates:
//! the protocols (wavesim-core) under workload (wavesim-workloads) with
//! the detectors armed (wavesim-verify).
//!
//! Positive runs assert the theorems hold; the negative control asserts
//! the detectors actually detect (a deliberately broken routing function
//! must deadlock and be diagnosed).

use wavesim::core::{ProtocolKind, WaveConfig, WaveNetwork};
use wavesim::network::{Message, WormholeConfig, WormholeFabric};
use wavesim::topology::{Coords, NaiveTorusDor, RoutingKind, Topology};
use wavesim::verify::{check_fabric, check_probe_livelock, check_wave};
use wavesim::workloads::{
    CarpTrace, LengthDist, TrafficConfig, TrafficPattern, TrafficSource, Workload,
};
use wavesim_bench::{apply_op, run_open_loop, RunSpec};

fn traffic(topo: &Topology, load: f64, seed: u64) -> TrafficSource {
    TrafficSource::new(
        topo.clone(),
        TrafficConfig {
            load,
            pattern: TrafficPattern::Uniform,
            len: LengthDist::Bimodal {
                short: 8,
                long: 128,
                frac_long: 0.25,
            },
            seed,
        },
    )
}

/// Theorem 1 (CLRP deadlock freedom), on both topology families, at a
/// load beyond wormhole saturation.
#[test]
fn theorem1_clrp_is_deadlock_free_under_saturation() {
    for topo in [Topology::mesh(&[6, 6]), Topology::torus(&[6, 6])] {
        let mut net = WaveNetwork::new(
            topo.clone(),
            WaveConfig {
                protocol: ProtocolKind::Clrp,
                cache_capacity: 2, // extra churn: evictions + force probes
                ..WaveConfig::default()
            },
        );
        let mut src = traffic(&topo, 0.9, 17);
        let r = run_open_loop(&mut net, &mut src, RunSpec::standard(1_000, 8_000));
        assert!(!r.stalled, "CLRP stalled on {topo:?}");
        assert!(r.drained, "CLRP failed to drain on {topo:?}");
        assert_eq!(r.sent, r.delivered, "messages lost on {topo:?}");
        let rep = check_wave(&net, r.end, 10_000);
        assert!(!rep.deadlocked, "{rep:?}");
    }
}

/// Theorem 2 (CARP deadlock freedom): dense phased traces with
/// overlapping circuits on both topologies.
#[test]
fn theorem2_carp_is_deadlock_free() {
    for topo in [Topology::mesh(&[6, 6]), Topology::torus(&[5, 5])] {
        let mut net = WaveNetwork::new(
            topo.clone(),
            WaveConfig {
                protocol: ProtocolKind::Carp,
                ..WaveConfig::default()
            },
        );
        let mut trace = CarpTrace::pairwise(
            &topo,
            &wavesim::workloads::carp::PairwiseSpec {
                partners: 4,
                phases: 3,
                msgs_per_burst: 6,
                len: 96,
                phase_gap: 3_000,
                setup_lead: 300,
                send_gap: 20,
                seed: 23,
                ..wavesim::workloads::carp::PairwiseSpec::default()
            },
        );
        let sends = trace.num_sends() as u64;
        let mut now = 0;
        let horizon = trace.horizon();
        let (mut ops, mut delivered) = (Vec::new(), 0u64);
        loop {
            trace.due(now, &mut ops);
            for op in ops.drain(..) {
                apply_op(&mut net, now, op);
            }
            net.tick(now);
            delivered += net.drain_deliveries().len() as u64;
            if now > horizon && !net.busy() {
                break;
            }
            now += 1;
            assert!(now < 5_000_000, "CARP run refused to drain on {topo:?}");
        }
        assert_eq!(delivered, sends);
        let rep = check_wave(&net, now, 10_000);
        assert!(!rep.deadlocked);
    }
}

/// Theorems 3 & 4 (livelock freedom): under maximal circuit churn every
/// probe terminates within the History-Store step bound.
#[test]
fn theorems3_4_probes_are_livelock_free() {
    let topo = Topology::mesh(&[6, 6]);
    let mut net = WaveNetwork::new(
        topo.clone(),
        WaveConfig {
            protocol: ProtocolKind::Clrp,
            cache_capacity: 1,
            misroutes: 4,
            k: 1, // single wave switch: maximal lane contention
            ..WaveConfig::default()
        },
    );
    let mut src = traffic(&topo, 0.6, 31);
    let r = run_open_loop(&mut net, &mut src, RunSpec::standard(500, 6_000));
    assert!(r.drained && !r.stalled);
    let live = check_probe_livelock(&net);
    assert!(live.livelock_free, "{live:?}");
    assert!(
        live.max_probe_steps > 0,
        "the stress run must actually exercise probes"
    );
    assert!(
        net.stats().probe_backtracks > 0,
        "churn must force backtracking"
    );
}

/// Negative control: the detectors must trip on a genuinely deadlocking
/// configuration (single-class torus DOR with ring-wrapping wormholes).
#[test]
fn detectors_trip_on_broken_routing() {
    let topo = Topology::torus(&[4, 4]);
    let mut fabric = WormholeFabric::with_routing(
        topo.clone(),
        WormholeConfig {
            w: 1,
            buffer_depth: 1,
            routing: RoutingKind::Deterministic,
            routing_delay: 1,
        },
        std::sync::Arc::new(NaiveTorusDor::new(1)),
    );
    // Fill every row ring with wrapping wormholes.
    let mut id = 0;
    for y in 0..4u16 {
        for x in 0..4u16 {
            let src = topo.node(Coords::new(&[x, y]));
            let dest = topo.node(Coords::new(&[(x + 2) % 4, y]));
            fabric.inject(Message::new(id, src, dest, 64, 0));
            id += 1;
        }
    }
    let mut now = 0;
    while fabric.busy() && now < 20_000 {
        fabric.tick(now);
        now += 1;
    }
    assert!(fabric.busy(), "broken routing must deadlock");
    let rep = check_fabric(&fabric, now, 1_000);
    assert!(rep.deadlocked, "{rep:?}");
    let cycle = rep.wait_cycle.expect("a concrete circular wait");
    assert!(cycle.len() >= 2);
}

/// The §4 proofs assume the wormhole fall-back routing function is
/// deadlock-free; certify the exact functions used by every default
/// configuration.
#[test]
fn fallback_routing_functions_are_certified() {
    use wavesim::verify::check_deadlock_freedom;
    for (topo, kind, w) in [
        (Topology::mesh(&[8, 8]), RoutingKind::Deterministic, 2u8),
        (Topology::torus(&[8, 8]), RoutingKind::Deterministic, 2),
        (Topology::mesh(&[8, 8]), RoutingKind::Adaptive, 3),
        (Topology::torus(&[6, 6]), RoutingKind::Adaptive, 3),
        (Topology::hypercube(4), RoutingKind::Deterministic, 1),
    ] {
        let routing = kind.build(&topo, w);
        let rep = check_deadlock_freedom(&topo, routing.as_ref());
        assert!(
            rep.deadlock_free,
            "{:?} on {topo:?}: {rep:?}",
            routing.name()
        );
    }
}

// ---------------------------------------------------------------------
// Exhaustive model checking (wavesim-model): the theorems proved over
// EVERY interleaving of core's own moves on small fabrics, not just the
// interleavings one timed run happens to produce. State/transition counts
// are pinned: exploration is deterministic, so a drifting count means the
// protocol itself changed and the proofs must be re-reviewed.
// ---------------------------------------------------------------------

/// Theorems 1–4, machine-checked: CLRP, CARP, and pure probe/MB
/// backtracking (CLRP with Force disabled) on a 2x2 mesh and a 3x3 torus
/// (the torus constructor requires radix >= 3, so 2x2 tori do not exist),
/// plus message sets whose circuits contend for lanes — Force and the
/// victim release run there, so probes park — on the 2x2 mesh at MB-0 and
/// MB-1, and on the 3x3 torus over its wrap-around links.
#[test]
fn theorems_1_to_4_exhaustive_on_small_fabrics() {
    use wavesim::model::{check, ModelSpec};
    let mesh = |protocol| ModelSpec::new(Topology::mesh(&[2, 2]), protocol, 1);
    let torus = |protocol| ModelSpec::new(Topology::torus(&[3, 3]), protocol, 1);
    let mesh_msgs = |spec: ModelSpec| spec.msg(0, 3).msg(3, 0).msg(1, 2);
    let torus_msgs = |spec: ModelSpec| spec.msg(0, 4).msg(4, 8).msg(8, 0);
    let contended = |spec: ModelSpec| spec.msg(0, 1).msg(2, 3).msg(0, 3);
    // 0->2 and 0->8 both leave node 0 on its -x wrap-around link.
    let torus_contended = |spec: ModelSpec| spec.msg(0, 2).msg(6, 8).msg(0, 8);
    let matrix: Vec<(&str, ModelSpec, u64, u64)> = vec![
        (
            "clrp/mesh2x2",
            mesh_msgs(mesh(ProtocolKind::Clrp)),
            1000,
            3000,
        ),
        (
            "carp/mesh2x2",
            mesh_msgs(mesh(ProtocolKind::Carp)),
            15625,
            69375,
        ),
        (
            "probe/mesh2x2",
            mesh_msgs(mesh(ProtocolKind::Clrp).without_force()),
            1000,
            3000,
        ),
        (
            "clrp/torus3x3",
            torus_msgs(torus(ProtocolKind::Clrp)),
            1000,
            3000,
        ),
        (
            "carp/torus3x3",
            torus_msgs(torus(ProtocolKind::Carp)),
            15625,
            69375,
        ),
        (
            "probe/torus3x3",
            torus_msgs(torus(ProtocolKind::Clrp).without_force()),
            1000,
            3000,
        ),
        (
            "clrp/mesh2x2 contended",
            contended(mesh(ProtocolKind::Clrp)),
            2656,
            7750,
        ),
        (
            "clrp/mesh2x2 contended MB-1",
            contended(mesh(ProtocolKind::Clrp).misroutes(1)),
            6830,
            20147,
        ),
        (
            "clrp/torus3x3 contended",
            torus_contended(torus(ProtocolKind::Clrp)),
            2656,
            7750,
        ),
    ];
    for (name, spec, states, transitions) in matrix {
        let out = check(&spec, 20_000_000);
        assert!(out.proved(), "{name}: {}", out.verdict());
        assert_eq!(out.states, states, "{name}: state count drifted");
        assert_eq!(
            out.transitions, transitions,
            "{name}: transition count drifted"
        );
        if name.ends_with("contended") || name.ends_with("MB-1") {
            assert!(out.wait_checked > 0, "{name}: no probe ever parked");
        }
    }
}

/// The fault/RetryWait path, exhaustively: a lane fault mid-protocol
/// (with repair for CLRP, without for CARP) cannot introduce a deadlock
/// or livelock in ANY interleaving of fault vs. protocol steps.
#[test]
fn exhaustive_check_survives_lane_fault_and_retrywait() {
    use wavesim::model::{check, ModelSpec};
    let clrp = ModelSpec::new(Topology::mesh(&[2, 2]), ProtocolKind::Clrp, 1)
        .msg(0, 3)
        .msg(3, 0)
        .fault_on_first_path(true);
    let out = check(&clrp, 20_000_000);
    assert!(out.proved(), "clrp+fault+repair: {}", out.verdict());
    assert_eq!(out.states, 6690, "clrp fault state count drifted");
    assert_eq!(out.transitions, 23930);

    let carp = ModelSpec::new(Topology::mesh(&[2, 2]), ProtocolKind::Carp, 1)
        .msg(0, 3)
        .msg(3, 0)
        .fault_on_first_path(false);
    let out = check(&carp, 20_000_000);
    assert!(out.proved(), "carp+fault: {}", out.verdict());
    assert_eq!(out.states, 3050, "carp fault state count drifted");
    assert_eq!(out.transitions, 10739);
}

/// Every timed schedule is one of the explored interleavings: a run that
/// dispatches exactly what `tick` would, one event at a time, passes only
/// through states the explorer reached (no message falls back to
/// wormhole here, so the fabric stays idle).
#[test]
fn timed_runs_are_explored_paths() {
    use wavesim::model::{Explorer, ModelSpec, Move, World};
    for protocol in [ProtocolKind::Clrp, ProtocolKind::Carp] {
        let spec = ModelSpec::new(Topology::mesh(&[2, 2]), protocol, 1)
            .msg(0, 3)
            .msg(3, 0)
            .msg(1, 2);
        let mut explorer = Explorer::new(&spec);
        assert!(explorer.run(20_000_000));

        let mut world = World::new(&spec);
        let mut ticked = WaveNetwork::new(spec.topo.clone(), spec.cfg);
        for m in 0..spec.msgs.len() as u8 {
            assert!(world.apply(&spec, &Move::Inject(m)));
            assert!(
                explorer.seen(&world.key()),
                "{protocol:?}: after inject m{m}"
            );
            let (src, dest) = spec.msgs[usize::from(m)];
            if protocol == ProtocolKind::Carp {
                ticked.carp_establish(0, src, dest);
            }
            ticked.send(0, Message::new(u64::from(m), src, dest, 16, 0));
        }
        let mut now = 0;
        let mut dispatched = 0;
        while world.net.busy() {
            // What `tick(now)` runs next: the first due event in calendar
            // order (fault, then control, then transfer).
            let due = world.net.pending_events().into_iter().find(|e| e.at <= now);
            match due {
                Some(ev) => {
                    assert!(world.net.fire(now, &ev));
                    dispatched += 1;
                    assert!(
                        explorer.seen(&world.key()),
                        "{protocol:?}: timed state after {dispatched} events, cycle {now}, \
                        was not explored"
                    );
                }
                None => {
                    ticked.tick(now);
                    now += 1;
                }
            }
        }
        ticked.tick(now);
        assert!(dispatched > 20, "the run dispatched the protocol");
        assert_eq!(world.net.stats().wormhole_fallbacks, 0, "no fall-back");
        assert_eq!(world.net.stats().msgs_circuit, 3);
        assert!(!ticked.busy(), "the ticked run finished at the same cycle");
        assert_eq!(
            ticked.state_key(),
            world.net.state_key(),
            "{protocol:?}: stepping event by event is the ticked run"
        );
    }
}

/// Negative controls: each protocol mutation re-introduces a known-unsafe
/// behavior in core, and the checker must find it, shrink it, and produce
/// a schedule whose timed replay on un-mutated core survives and
/// round-trips through the trace tooling.
#[test]
fn mutations_yield_shrunk_replayable_counterexamples() {
    use wavesim::model::{check, replay_schedule, shrink, ModelSpec, Mutation, ViolationKind};
    use wavesim::trace::read_columnar;

    let survives = |spec: &ModelSpec, schedule| {
        let rep = replay_schedule(spec, schedule);
        assert!(rep.survived(), "un-mutated core survives: {rep:?}");
        assert_eq!(
            read_columnar(&rep.columnar()).expect("valid WSTRACE1"),
            rep.records
        );
    };

    // drop-release: the Force victim's release never wakes the parked
    // probe — a lost-wakeup deadlock with NO circular wait.
    let spec = ModelSpec::new(Topology::mesh(&[2, 2]), ProtocolKind::Clrp, 1)
        .msg(0, 1)
        .msg(2, 3)
        .msg(0, 3)
        .mutate(Mutation::DropRelease);
    let cx = check(&spec, 20_000_000)
        .violation
        .expect("drop-release must deadlock");
    assert_eq!(cx.kind, ViolationKind::Deadlock { wait_cycle: None });
    let shrunk = shrink(&spec, &cx);
    assert!(shrunk.schedule.len() <= cx.schedule.len());
    assert_eq!(shrunk.kind, ViolationKind::Deadlock { wait_cycle: None });
    survives(&spec, &shrunk.schedule);

    // skip-backoff: an exhausted probe relaunches with a cleared History
    // Store instead of escaping to wormhole — a livelock lasso.
    let spec = ModelSpec::new(Topology::mesh(&[2, 2]), ProtocolKind::Carp, 1)
        .msg(0, 1)
        .msg(2, 3)
        .msg(0, 3)
        .mutate(Mutation::SkipBackoff);
    let cx = check(&spec, 20_000_000)
        .violation
        .expect("skip-backoff must livelock");
    assert_eq!(cx.kind, ViolationKind::Livelock);
    let loop_start = cx.loop_start.expect("lasso has a loop");
    assert!(loop_start < cx.schedule.len());
    let shrunk = shrink(&spec, &cx);
    assert!(shrunk.schedule.len() <= cx.schedule.len());
    assert!(shrunk.loop_start.is_some(), "shrinking must keep the loop");
    survives(&spec, &shrunk.schedule);

    // wait-establishing: force probes wait on Establishing circuits —
    // exactly what the §4 no-wait rule forbids — and four ring messages
    // on a 4x4 torus row close a genuine circular wait.
    let spec = ModelSpec::new(Topology::torus(&[4, 4]), ProtocolKind::Clrp, 1)
        .msg(0, 2)
        .msg(1, 3)
        .msg(2, 0)
        .msg(3, 1)
        .mutate(Mutation::WaitEstablishing);
    let cx = check(&spec, 20_000_000)
        .violation
        .expect("wait-establishing must deadlock");
    let ViolationKind::Deadlock { wait_cycle } = &cx.kind else {
        panic!("expected deadlock, got {:?}", cx.kind)
    };
    let cycle = wait_cycle.as_ref().expect("a genuine circular wait");
    assert!(cycle.len() >= 2, "cycle involves several probes: {cycle:?}");
    let shrunk = shrink(&spec, &cx);
    let ViolationKind::Deadlock { wait_cycle } = &shrunk.kind else {
        panic!("shrinking keeps the deadlock")
    };
    assert!(wait_cycle.as_ref().is_some_and(|c| c.len() >= 2));
    survives(&spec, &shrunk.schedule);
}
