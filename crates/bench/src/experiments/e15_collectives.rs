//! E15 — collective replay: dependency-aware traces under each protocol.
//!
//! The paper's workloads are phased parallel kernels, and their defining
//! structure is *dependency*, not arrival rate: a reduce step cannot start
//! until its children's partial sums arrive. E1–E14 drive open- and
//! closed-loop generators; this experiment replays the classic collectives
//! as [`wavesim_workloads::DepTrace`]s — all-to-all (shifted rounds),
//! binomial-tree reduce and broadcast, and a phased transpose sweep — so
//! injection timing *responds to the network's own delivery order*.
//!
//! Each (collective, protocol, message length) point replays the same
//! trace under:
//!
//! * **CLRP** — the run-time protocol, establishing and caching circuits
//!   on demand (the collectives' repeated pairs are exactly the temporal
//!   locality §3.1 exploits);
//! * **CARP** — the compiler-aided protocol *without* its compiler: a
//!   replayed trace carries no `ESTABLISH` ops, so every send degrades to
//!   wormhole delivery (§3.2's fallback). This is the honest baseline for
//!   "CARP given only the message list";
//! * **MB-1** — CLRP restricted to a single cache entry per node,
//!   modelling the minimal-buffering variant: circuits are established
//!   per-conversation but barely reused.
//!
//! Columns: collective, protocol, message length, trace size, delivered
//! count, makespan (cycles to drain), mean and p99 latency (network time:
//! release-to-delivery), and circuit-carried fraction.

use wavesim_core::{ProtocolKind, WaveConfig};
use wavesim_json::table::{f2, pct};
use wavesim_topology::{NodeId, Topology};
use wavesim_workloads::collectives;
use wavesim_workloads::{DepTrace, TrafficPattern};

use crate::experiments::{rows_of, Ctx, Experiment, Row};
use crate::runner::{run_dep_trace, RunSpec};
use crate::Scale;

/// The collective families replayed by E15, in table order.
const COLLECTIVES: [&str; 4] = ["all-to-all", "reduce", "broadcast", "transpose-sweep"];

/// Protocol variants compared: label plus network config.
fn variants() -> Vec<(&'static str, WaveConfig)> {
    vec![
        (
            "CLRP",
            WaveConfig {
                protocol: ProtocolKind::Clrp,
                ..WaveConfig::default()
            },
        ),
        (
            "CARP",
            WaveConfig {
                protocol: ProtocolKind::Carp,
                ..WaveConfig::default()
            },
        ),
        (
            "MB-1",
            WaveConfig {
                protocol: ProtocolKind::Clrp,
                cache_capacity: 1,
                ..WaveConfig::default()
            },
        ),
    ]
}

/// Builds the named collective's dependency trace on `topo`.
///
/// # Panics
/// Panics on an unknown collective name (a bug, not an input error).
#[must_use]
pub fn build_trace(topo: &Topology, which: &str, len: u32) -> DepTrace {
    match which {
        "all-to-all" => collectives::all_to_all(topo, len),
        "reduce" => collectives::reduce(topo, NodeId(0), len),
        "broadcast" => collectives::broadcast(topo, NodeId(0), len),
        "transpose-sweep" => {
            collectives::pattern_sweep(topo, TrafficPattern::Transpose, 3, len, 1551)
        }
        other => panic!("unknown collective {other:?}"),
    }
}

/// E15: one row per (collective, protocol, length) point.
pub const E15: Experiment = Experiment {
    id: "e15",
    title: "collective replay: dependency-gated traces under CLRP / CARP / MB-1",
    columns: &[
        "collective",
        "protocol",
        "len",
        "msgs",
        "delivered",
        "makespan",
        "avg lat",
        "p99",
        "circuit%",
    ],
    rows,
};

fn rows(scale: Scale) -> Vec<Row> {
    let lens: Vec<u32> = scale.sweep(&[8, 32, 128]);
    let mut points = Vec::new();
    for which in COLLECTIVES {
        for (label, cfg) in variants() {
            for &len in &lens {
                points.push((which, label, cfg, len));
            }
        }
    }
    rows_of(points, collective_row)
}

/// Replays collective `which` of `len`-flit messages under one variant.
fn collective_row(
    ctx: &Ctx,
    &(which, label, cfg, len): &(&'static str, &'static str, WaveConfig, u32),
) -> Vec<String> {
    let mut net = crate::experiments::net_with(ctx.scale.side, cfg);
    let trace = build_trace(net.topology(), which, len);
    let spec = RunSpec::replay(trace.horizon());
    let r = ctx.observe(|obs| run_dep_trace(&mut net, &trace, spec, obs));
    assert!(
        r.clean(),
        "E15 replay must drain cleanly: {which}/{label}/{len}: {r:?}"
    );
    vec![
        which.to_string(),
        label.to_string(),
        len.to_string(),
        trace.len().to_string(),
        r.delivered.to_string(),
        r.end.to_string(),
        f2(r.avg_latency),
        r.p99_latency.to_string(),
        pct(r.circuit_fraction),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            sweep_points: 2,
            ..Scale::small()
        }
    }

    #[test]
    fn every_collective_delivers_its_whole_trace() {
        let t = crate::experiments::table("e15", tiny(), 1);
        assert_eq!(t.rows.len(), COLLECTIVES.len() * variants().len() * 2);
        for row in &t.rows {
            assert_eq!(row[3], row[4], "msgs != delivered in {row:?}");
        }
    }

    #[test]
    fn carp_without_establish_ops_rides_wormhole() {
        let t = crate::experiments::table("e15", tiny(), 1);
        for row in t.rows.iter().filter(|r| r[1] == "CARP") {
            assert_eq!(row[8], "0.0%", "trace-only CARP cannot build circuits");
        }
    }

    #[test]
    fn clrp_uses_circuits_on_collective_locality() {
        let t = crate::experiments::table("e15", tiny(), 1);
        let frac = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        let best = t
            .rows
            .iter()
            .filter(|r| r[1] == "CLRP")
            .map(|r| frac(&r[8]))
            .fold(0.0_f64, f64::max);
        assert!(
            best > 10.0,
            "some CLRP collective replay must ride circuits: {t:?}"
        );
    }

    #[test]
    fn table_is_byte_identical_across_jobs() {
        let serial = crate::experiments::table("e15", tiny(), 1);
        let fanned = crate::experiments::table("e15", tiny(), 4);
        assert_eq!(format!("{serial:?}"), format!("{fanned:?}"));
    }
}
