//! E1 — Theorems 1 & 2: CLRP and CARP are deadlock-free.
//!
//! Saturation-level uniform and hotspot traffic on mesh and torus
//! networks, with the progress monitor armed. The theorems predict every
//! run drains with zero stalls; the `verdict` column must read `OK` on
//! every row. (The negative control that proves the detector works —
//! single-class torus DOR deadlocking — lives in the verify-crate tests
//! and the integration suite, not here, because it requires a broken
//! routing function the public constructors refuse to build.)

use wavesim_core::{ProtocolKind, WaveConfig, WaveNetwork};
use wavesim_topology::{Topology, TopologyKind};
use wavesim_workloads::{CarpTrace, LengthDist, TrafficPattern};

use crate::experiments::Ctx;
use crate::runner::{run_carp_trace, RunSpec};
use crate::Table;

fn topo(kind: TopologyKind, side: u16) -> Topology {
    match kind {
        TopologyKind::Mesh => Topology::mesh(&[side, side]),
        TopologyKind::Torus => Topology::torus(&[side, side]),
    }
}

/// Runs E1.
#[must_use]
pub fn run(ctx: &Ctx) -> Table {
    let scale = ctx.scale;
    let mut t = Table::new(
        "E1",
        "deadlock freedom under saturation (Theorems 1 & 2)",
        &[
            "topology",
            "protocol",
            "pattern",
            "load",
            "sent",
            "delivered",
            "stalls",
            "verdict",
        ],
    );
    let spec = RunSpec::standard(scale.warmup, scale.measure);
    let loads = [0.4, 0.8];
    let hot = (u32::from(scale.side) * u32::from(scale.side)) / 2;

    for kind in [TopologyKind::Mesh, TopologyKind::Torus] {
        for &load in &loads {
            for (pname, pattern) in [
                ("uniform", TrafficPattern::Uniform),
                (
                    "hotspot",
                    TrafficPattern::Hotspot {
                        node: hot,
                        fraction: 0.2,
                    },
                ),
            ] {
                let mut net = WaveNetwork::new(
                    topo(kind, scale.side),
                    WaveConfig {
                        protocol: ProtocolKind::Clrp,
                        ..WaveConfig::default()
                    },
                );
                let r = ctx.open_loop(&mut net, load, pattern, LengthDist::Fixed(32), 11);
                t.push(vec![
                    format!("{kind:?}"),
                    "CLRP".into(),
                    pname.into(),
                    format!("{load}"),
                    r.sent.to_string(),
                    r.delivered.to_string(),
                    u64::from(r.stalled).to_string(),
                    if r.clean() {
                        "OK".into()
                    } else {
                        "DEADLOCK".into()
                    },
                ]);
            }
        }
        // CARP under a dense phased trace.
        let mut net = WaveNetwork::new(
            topo(kind, scale.side),
            WaveConfig {
                protocol: ProtocolKind::Carp,
                ..WaveConfig::default()
            },
        );
        let mut trace = CarpTrace::pairwise(
            net.topology(),
            &wavesim_workloads::carp::PairwiseSpec {
                partners: 3,
                phases: 3,
                msgs_per_burst: 8,
                len: 64,
                phase_gap: scale.measure / 3 + 500,
                setup_lead: 300,
                send_gap: 10,
                seed: 7,
                ..wavesim_workloads::carp::PairwiseSpec::default()
            },
        );
        let r = ctx.observe(|obs| run_carp_trace(&mut net, &mut trace, spec, obs));
        t.push(vec![
            format!("{kind:?}"),
            "CARP".into(),
            "pairwise-trace".into(),
            "-".into(),
            r.sent.to_string(),
            r.delivered.to_string(),
            u64::from(r.stalled).to_string(),
            if r.drained && !r.stalled && r.sent == r.delivered {
                "OK".into()
            } else {
                "DEADLOCK".into()
            },
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn every_row_is_deadlock_free() {
        let t = run(&Ctx::unobserved(Scale::small(), 1));
        assert!(!t.rows.is_empty());
        for row in &t.rows {
            assert_eq!(row.last().unwrap(), "OK", "row {row:?}");
        }
    }
}
