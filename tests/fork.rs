//! `WaveNetwork::fork` is a deep copy: a fork taken mid-run, with probes
//! in flight and circuits cached, ticks on exactly as the original does.
//!
//! Every configuration `tests/determinism.rs` pins a golden for is driven
//! here to a busy cycle, forked, and then both copies are ticked 10,000
//! more cycles with the same inputs. The workload is consulted once per
//! cycle (with the original's deliveries, for the closed-loop ones) and
//! its inputs are applied to both copies, so any difference in what comes
//! out is a difference in the copied state.

use wavesim::core::{ProtocolKind, WaveConfig, WaveNetwork};
use wavesim::network::{Delivery, Message};
use wavesim::sim::Cycle;
use wavesim::topology::{NodeId, RoutingKind, Topology};
use wavesim::workloads::collectives;
use wavesim::workloads::{
    CarpOp, CarpTrace, DepTrace, FaultSchedule, LengthDist, ServiceConfig, ServiceEvent,
    ServiceWorkload, TrafficConfig, TrafficPattern, TrafficSource,
};
use wavesim_bench::apply_fault_schedule;

/// Cycles both copies run after the fork.
const AFTER_FORK: Cycle = 10_000;

/// Where a run forks: the first cycle at or after `from` on which the
/// network holds the state named.
#[derive(Clone, Copy)]
enum ForkAt {
    /// Probes searching and circuits cached.
    Probing { from: Cycle },
    /// Wormhole flits in flight: for runs whose wave plane stays idle.
    Moving { from: Cycle },
}

/// Where most runs fork: past the start-up transient, mid-search.
const PROBING: ForkAt = ForkAt::Probing { from: 300 };

/// Where runs with no circuits fork.
const MOVING: ForkAt = ForkAt::Moving { from: 300 };

/// One cycle's worth of calls into a network.
enum Input {
    Send(Message),
    Establish(NodeId, NodeId),
    Teardown(NodeId, NodeId),
}

fn apply(net: &mut WaveNetwork, now: Cycle, inputs: &[Input]) {
    for input in inputs {
        match *input {
            Input::Send(m) => net.send(now, m),
            Input::Establish(src, dest) => net.carp_establish(now, src, dest),
            Input::Teardown(src, dest) => net.carp_teardown(now, src, dest),
        }
    }
}

/// A workload: the inputs due at `now`, given what the network delivered
/// on the cycle before.
trait Feed {
    fn inputs(&mut self, now: Cycle, delivered: &[Delivery]) -> Vec<Input>;
}

impl Feed for TrafficSource {
    fn inputs(&mut self, now: Cycle, _: &[Delivery]) -> Vec<Input> {
        self.poll(now).into_iter().map(Input::Send).collect()
    }
}

/// A CARP instruction trace; a non-CARP network skips the circuit ops, as
/// `run_carp_trace` does.
struct Carp {
    trace: CarpTrace,
    is_carp: bool,
}

impl Feed for Carp {
    fn inputs(&mut self, now: Cycle, _: &[Delivery]) -> Vec<Input> {
        let mut out = Vec::new();
        for &(_, op) in self.trace.due(now) {
            match op {
                CarpOp::Send(m) => out.push(Input::Send(m)),
                CarpOp::Establish { src, dest } if self.is_carp => {
                    out.push(Input::Establish(src, dest));
                }
                CarpOp::Teardown { src, dest } if self.is_carp => {
                    out.push(Input::Teardown(src, dest));
                }
                CarpOp::Establish { .. } | CarpOp::Teardown { .. } => {}
            }
        }
        out
    }
}

/// Closed-loop request/reply clients: a delivered request schedules its
/// reply.
struct Service {
    wl: ServiceWorkload,
    replies: Vec<(Cycle, Message)>,
}

impl Feed for Service {
    fn inputs(&mut self, now: Cycle, delivered: &[Delivery]) -> Vec<Input> {
        for d in delivered {
            if let ServiceEvent::Reply(at, reply) =
                self.wl.on_delivered(d.msg.id.0, d.msg.dest, now)
            {
                self.replies.push((at, reply));
            }
        }
        let mut out: Vec<Input> = self.wl.poll(now).into_iter().map(Input::Send).collect();
        self.replies.retain(|&(at, reply)| {
            let due = at <= now;
            if due {
                out.push(Input::Send(reply));
            }
            !due
        });
        out
    }
}

/// A dependency trace: a message is sent once every message it depends
/// on was delivered, and not before its creation cycle.
struct Deps {
    trace: DepTrace,
    waiting_on: Vec<usize>,
    sent: Vec<bool>,
}

impl Deps {
    fn new(trace: DepTrace) -> Self {
        let waiting_on = trace.messages.iter().map(|m| m.deps.len()).collect();
        let sent = vec![false; trace.messages.len()];
        Self {
            trace,
            waiting_on,
            sent,
        }
    }
}

impl Feed for Deps {
    fn inputs(&mut self, now: Cycle, delivered: &[Delivery]) -> Vec<Input> {
        for d in delivered {
            for (i, m) in self.trace.messages.iter().enumerate() {
                if m.deps.contains(&d.msg.id.0) {
                    self.waiting_on[i] -= 1;
                }
            }
        }
        let mut out = Vec::new();
        for (i, m) in self.trace.messages.iter().enumerate() {
            if !self.sent[i] && self.waiting_on[i] == 0 && m.msg.created_at <= now {
                self.sent[i] = true;
                let msg = m.msg;
                out.push(Input::Send(Message::new(
                    msg.id.0,
                    msg.src,
                    msg.dest,
                    msg.len_flits,
                    now,
                )));
            }
        }
        out
    }
}

impl ForkAt {
    fn reached(self, now: Cycle, net: &WaveNetwork) -> bool {
        match self {
            ForkAt::Probing { from } => {
                now >= from
                    && !net.probes().is_empty()
                    && net.topology().nodes().any(|n| !net.cache(n).is_empty())
            }
            ForkAt::Moving { from } => now >= from && net.fabric().in_flight_flits() > 0,
        }
    }
}

/// Drives `net` with `feed` to `at`, forks it, and requires the two
/// copies to agree on every delivery, every counter and the audit for
/// [`AFTER_FORK`] cycles.
fn check_fork(name: &str, at: ForkAt, mut net: WaveNetwork, mut feed: impl Feed) {
    let mut delivered = Vec::new();
    let mut now = 0;
    while !at.reached(now, &net) {
        assert!(now < 20_000, "{name}: never busy enough to fork");
        let inputs = feed.inputs(now, &delivered);
        apply(&mut net, now, &inputs);
        net.tick(now);
        net.drain_deliveries_into(&mut delivered);
        now += 1;
    }
    let mut twin = net.fork();
    assert!(!twin.tracing(), "{name}: a fork has no sink");
    let mut twin_delivered = delivered.clone();
    let mut total = 0;
    for now in now..now + AFTER_FORK {
        let inputs = feed.inputs(now, &delivered);
        apply(&mut net, now, &inputs);
        apply(&mut twin, now, &inputs);
        net.tick(now);
        twin.tick(now);
        net.drain_deliveries_into(&mut delivered);
        twin.drain_deliveries_into(&mut twin_delivered);
        assert_eq!(
            delivered, twin_delivered,
            "{name}: the copies delivered differently at cycle {now}"
        );
        total += delivered.len();
    }
    assert!(total > 0, "{name}: nothing delivered after the fork");
    assert_eq!(
        format!("{:?}", net.stats()),
        format!("{:?}", twin.stats()),
        "{name}: stats()"
    );
    assert_eq!(
        format!("{:?}", net.fabric().stats()),
        format!("{:?}", twin.fabric().stats()),
        "{name}: fabric().stats()"
    );
    assert_eq!(net.audit(), twin.audit(), "{name}: audit()");
    assert_eq!(net.outstanding(), twin.outstanding(), "{name}: outstanding");
}

/// Where a run under `protocol` forks.
fn fork_at(protocol: ProtocolKind) -> ForkAt {
    if protocol == ProtocolKind::WormholeOnly {
        MOVING
    } else {
        PROBING
    }
}

fn config(protocol: ProtocolKind, cache_capacity: usize) -> WaveConfig {
    WaveConfig {
        protocol,
        cache_capacity,
        ..WaveConfig::default()
    }
}

/// The default configuration under `protocol`.
fn protocol_default(protocol: ProtocolKind) -> WaveConfig {
    WaveConfig {
        protocol,
        ..WaveConfig::default()
    }
}

fn hot_pairs(
    topo: &Topology,
    load: f64,
    (partners, locality): (u8, f64),
    len: LengthDist,
    seed: u64,
    stop_at: Cycle,
) -> TrafficSource {
    TrafficSource::new(
        topo.clone(),
        TrafficConfig {
            load,
            pattern: TrafficPattern::HotPairs { partners, locality },
            len,
            seed,
            stop_at,
        },
    )
}

/// The 5×5 mesh open-loop schedules (`full_run`), CLRP and wormhole.
#[test]
fn fork_of_the_mesh_schedule_runs() {
    let topo = Topology::mesh(&[5, 5]);
    let len = LengthDist::Bimodal {
        short: 8,
        long: 96,
        frac_long: 0.3,
    };
    for protocol in [ProtocolKind::Clrp, ProtocolKind::WormholeOnly] {
        check_fork(
            &format!("mesh 5x5 {protocol:?}"),
            fork_at(protocol),
            WaveNetwork::new(topo.clone(), config(protocol, 3)),
            hot_pairs(&topo, 0.3, (2, 0.6), len, 7, 4_000),
        );
    }
}

/// The E11 load sweep's networks (4×4 mesh, wormhole and CLRP) at its
/// lightest and heaviest small-scale loads.
#[test]
fn fork_of_the_e11_load_sweep() {
    let topo = Topology::mesh(&[4, 4]);
    for protocol in [ProtocolKind::WormholeOnly, ProtocolKind::Clrp] {
        for load in [0.05, 1.2] {
            check_fork(
                &format!("e11 {protocol:?} load {load}"),
                fork_at(protocol),
                WaveNetwork::new(topo.clone(), protocol_default(protocol)),
                hot_pairs(&topo, load, (3, 0.7), LengthDist::Fixed(64), 131, 2_500),
            );
        }
    }
}

/// The E14 network: CLRP with a misroute budget of 3 under an MTBF lane
/// fault schedule, whose pending events the fork must carry.
#[test]
fn fork_of_the_e14_dynamic_fault_run() {
    let topo = Topology::mesh(&[4, 4]);
    let mut net = WaveNetwork::new(
        topo.clone(),
        WaveConfig {
            protocol: ProtocolKind::Clrp,
            misroutes: 3,
            ..WaveConfig::default()
        },
    );
    let sched = FaultSchedule::random_mtbf(&topo, 600, 600 / 8 + 1, 2_500, 1414);
    apply_fault_schedule(&mut net, &sched).expect("schedule fits the network");
    check_fork(
        "e14 mtbf 600",
        PROBING,
        net,
        hot_pairs(&topo, 0.15, (3, 0.8), LengthDist::Fixed(64), 99, 2_500),
    );
}

/// The mixed stencil workload, replayed on CARP (circuit ops executed)
/// and on CLRP (circuit ops skipped).
#[test]
fn fork_of_the_stencil_replays() {
    let topo = Topology::mesh(&[4, 4]);
    for protocol in [ProtocolKind::Carp, ProtocolKind::Clrp] {
        check_fork(
            &format!("stencil {protocol:?}"),
            // CLRP keeps its stencil circuits, so it probes only in the
            // first phase.
            if protocol == ProtocolKind::Carp {
                PROBING
            } else {
                ForkAt::Probing { from: 0 }
            },
            WaveNetwork::new(topo.clone(), config(protocol, 4)),
            Carp {
                trace: CarpTrace::stencil(&topo, 3, 4, 32, 600, 200),
                is_carp: protocol == ProtocolKind::Carp,
            },
        );
    }
}

/// The torus goldens: 8×8 CLRP under fault churn and a 16×16 CARP
/// stencil.
#[test]
fn fork_of_the_torus_runs() {
    let topo = Topology::torus(&[8, 8]);
    let mut net = WaveNetwork::new(topo.clone(), config(ProtocolKind::Clrp, 8));
    let sched = FaultSchedule::random_mtbf(&topo, 4_000, 300, 1_000, 17);
    apply_fault_schedule(&mut net, &sched).expect("schedule fits the network");
    check_fork(
        "torus 8x8 clrp faults",
        PROBING,
        net,
        hot_pairs(&topo, 0.25, (3, 0.7), LengthDist::Fixed(48), 131, 1_500),
    );
    let topo = Topology::torus(&[16, 16]);
    check_fork(
        "torus 16x16 carp",
        PROBING,
        WaveNetwork::new(topo.clone(), config(ProtocolKind::Carp, 8)),
        Carp {
            trace: CarpTrace::stencil(&topo, 3, 4, 32, 400, 150),
            is_carp: true,
        },
    );
}

/// The saturation goldens: CLRP on an 8×8 torus at load 0.8, and
/// wormhole-only Duato adaptive routing at `w = 3` on an 8×8 mesh at 0.9.
#[test]
fn fork_of_the_saturated_runs() {
    let topo = Topology::torus(&[8, 8]);
    check_fork(
        "saturated clrp torus",
        PROBING,
        WaveNetwork::new(topo.clone(), WaveConfig::default()),
        hot_pairs(&topo, 0.8, (3, 0.7), LengthDist::Fixed(64), 131, 2_250),
    );
    let topo = Topology::mesh(&[8, 8]);
    let mut cfg = protocol_default(ProtocolKind::WormholeOnly);
    cfg.wormhole.w = 3;
    cfg.wormhole.routing = RoutingKind::Adaptive;
    check_fork(
        "saturated adaptive mesh",
        MOVING,
        WaveNetwork::new(topo.clone(), cfg),
        hot_pairs(&topo, 0.9, (3, 0.7), LengthDist::Fixed(64), 131, 2_250),
    );
}

/// The closed-loop service goldens: the ramped `run --service-clients`
/// population, and E13's two clients per node with no ramp under each
/// protocol.
#[test]
fn fork_of_the_service_runs() {
    let topo = Topology::mesh(&[4, 4]);
    let service = |cfg: ServiceConfig| {
        let mut wl = ServiceWorkload::new(topo.clone(), cfg);
        wl.stop_at(3_600);
        Service {
            wl,
            replies: Vec::new(),
        }
    };
    check_fork(
        "service run",
        PROBING,
        WaveNetwork::new(topo.clone(), WaveConfig::default()),
        service(ServiceConfig {
            clients: 2_000,
            seed: 1,
            ..ServiceConfig::default()
        }),
    );
    for protocol in [ProtocolKind::WormholeOnly, ProtocolKind::Clrp] {
        check_fork(
            &format!("e13 {protocol:?}"),
            fork_at(protocol),
            WaveNetwork::new(topo.clone(), protocol_default(protocol)),
            service(ServiceConfig {
                clients: 2 * 16,
                locality: 0.5,
                think_time: 10,
                ramp: 0,
                seed: 161,
                ..ServiceConfig::default()
            }),
        );
    }
}

/// E15's dependency-gated collectives under CLRP, CARP and MB-1.
#[test]
fn fork_of_the_e15_collectives() {
    let topo = Topology::mesh(&[4, 4]);
    // CARP without its compiler establishes nothing: its messages all
    // travel on the wormhole plane.
    for (label, cfg, at) in [
        ("CLRP", protocol_default(ProtocolKind::Clrp), PROBING),
        ("CARP", protocol_default(ProtocolKind::Carp), MOVING),
        ("MB-1", config(ProtocolKind::Clrp, 1), PROBING),
    ] {
        check_fork(
            &format!("e15 all-to-all {label}"),
            at,
            WaveNetwork::new(topo.clone(), cfg),
            Deps::new(collectives::all_to_all(&topo, 32)),
        );
    }
}
