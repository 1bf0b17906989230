//! `WaveNetwork::fork` is a deep copy: a fork taken mid-run, with probes
//! in flight and circuits cached, ticks on exactly as the original does.
//!
//! Every configuration `tests/determinism.rs` pins a golden for is driven
//! here to a busy cycle, forked, and then both copies are ticked 10,000
//! more cycles with the same inputs. The workload is asked once per cycle
//! which ops are due, and hears the original's deliveries at the cycle
//! they land, as the runner's driver does; its ops are applied to both
//! copies, so any difference in what comes out is a difference in the
//! copied state.

use wavesim::core::{ProtocolKind, WaveConfig, WaveNetwork};
use wavesim::sim::Cycle;
use wavesim::topology::{RoutingKind, Topology};
use wavesim::workloads::collectives;
use wavesim::workloads::{
    CarpTrace, FaultSchedule, LengthDist, ServiceConfig, ServiceWorkload, TrafficConfig,
    TrafficPattern, TrafficSource, Workload,
};
use wavesim_bench::{apply_fault_schedule, apply_op};

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

/// Drives `net` with `wl` to `at`, forks it, and requires the two copies
/// to agree on every delivery, every counter and the audit for
/// [`AFTER_FORK`] cycles.
fn check_fork(name: &str, at: ForkAt, mut net: WaveNetwork, mut wl: impl Workload) {
    let (mut ops, mut delivered) = (Vec::new(), Vec::new());
    let mut now = 0;
    while !at.reached(now, &net) {
        assert!(now < 20_000, "{name}: never busy enough to fork");
        wl.due(now, &mut ops);
        for op in ops.drain(..) {
            apply_op(&mut net, now, op);
        }
        net.tick(now);
        net.drain_deliveries_into(&mut delivered);
        for d in &delivered {
            wl.delivered(d, now);
        }
        now += 1;
    }
    let mut twin = net.fork();
    assert!(!twin.tracing(), "{name}: a fork has no sink");
    let mut twin_delivered = delivered.clone();
    let mut total = 0;
    for now in now..now + AFTER_FORK {
        wl.due(now, &mut ops);
        for op in ops.drain(..) {
            apply_op(&mut net, now, op);
            apply_op(&mut twin, now, op);
        }
        net.tick(now);
        twin.tick(now);
        net.drain_deliveries_into(&mut delivered);
        twin.drain_deliveries_into(&mut twin_delivered);
        for d in &delivered {
            wl.delivered(d, now);
        }
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
            CarpTrace::stencil(&topo, 3, 4, 32, 600, 200),
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
        CarpTrace::stencil(&topo, 3, 4, 32, 400, 150),
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
        wl
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
            collectives::all_to_all(&topo, 32).replay(),
        );
    }
}
