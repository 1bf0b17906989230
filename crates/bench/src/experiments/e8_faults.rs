//! E8 — "this protocol is very resilient to static faults in the network"
//! (§2, on the MB-m probe, citing ref \[12\]).
//!
//! Wave lanes fail independently at a swept rate before the run starts
//! (the paper's static-fault model). Probes must route around faulty
//! lanes; when no fault-free path exists, messages fall back to wormhole
//! switching, so *delivery* must stay at 100% regardless of the fault
//! rate — only the circuit fraction degrades gracefully.

use wavesim_core::{LaneId, ProtocolKind, WaveConfig};
use wavesim_workloads::{FaultPlan, LengthDist, TrafficPattern};

use crate::experiments::Ctx;
use crate::table::{f2, pct};
use crate::Table;

/// Runs E8.
#[must_use]
pub fn run(ctx: &Ctx) -> Table {
    let scale = ctx.scale;
    let mut t = Table::new(
        "E8",
        "static wave-lane faults: probe resilience and graceful fallback",
        &[
            "fault rate",
            "faulty lanes",
            "setup success",
            "circuit%",
            "avg lat",
            "delivered",
            "lost",
        ],
    );
    let rates = scale.sweep(&[0.0, 0.05, 0.10, 0.20, 0.40]);

    for &rate in &rates {
        let cfg = WaveConfig {
            protocol: ProtocolKind::Clrp,
            misroutes: 3, // generous budget: the fault-tolerance enabler
            ..WaveConfig::default()
        };
        let mut net = crate::experiments::net_with(scale.side, cfg);
        let plan = FaultPlan::random_lanes(net.topology(), cfg.k, rate, 88);
        for &(link, s) in &plan.lanes {
            net.inject_lane_fault(LaneId::new(link, s))
                .expect("fault plan matches topology");
        }
        let r = ctx.open_loop(
            &mut net,
            0.15,
            TrafficPattern::HotPairs {
                partners: 3,
                locality: 0.8,
            },
            LengthDist::Fixed(64),
            99,
        );
        t.push(vec![
            pct(rate),
            plan.len().to_string(),
            pct(r.wave.setup_success_rate()),
            pct(r.circuit_fraction),
            f2(r.avg_latency),
            r.delivered.to_string(),
            (r.sent - r.delivered).to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn no_message_is_ever_lost() {
        let t = run(&Ctx::unobserved(Scale::small(), 1));
        for row in &t.rows {
            assert_eq!(row.last().unwrap(), "0", "lost messages in {row:?}");
        }
    }

    #[test]
    fn circuit_fraction_degrades_gracefully() {
        let t = run(&Ctx::unobserved(Scale::small(), 1));
        let parse_pct = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        let healthy = parse_pct(&t.rows.first().unwrap()[3]);
        let broken = parse_pct(&t.rows.last().unwrap()[3]);
        assert!(
            healthy >= broken,
            "more faults cannot increase circuit use: {healthy}% vs {broken}%"
        );
        assert!(healthy > 10.0, "healthy network must use circuits");
    }
}
