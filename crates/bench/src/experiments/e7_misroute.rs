//! E7 — MB-m: "in order to maximize the probability of establishing a
//! circuit, a misrouting backtracking protocol with a maximum of m
//! misroutes is used" (§2).
//!
//! A controlled probe experiment in the style of the MB-m source paper
//! (Gaughan & Yalamanchili, ref \[12\]): a fixed fraction of wave lanes is
//! made unavailable (background occupancy), then many establishment
//! attempts run between random node pairs and we measure the probability
//! that the probe reserves a path, as a function of the misroute budget
//! `m`. A single wave switch (`k = 1`) is used so success is attributable
//! to the search itself rather than to retrying other switches.
//!
//! Expected shape: success grows monotonically with `m` (misrouting lets
//! the probe walk around occupied regions), with diminishing returns —
//! the reason the paper keeps `m` small.

use wavesim_core::{LaneId, ProtocolKind, WaveConfig};
use wavesim_sim::SimRng;
use wavesim_topology::NodeId;
use wavesim_workloads::FaultPlan;

use crate::experiments::Ctx;
use crate::table::{f2, pct};
use crate::{Scale, Table};

struct Outcome {
    success_rate: f64,
    hops_per_probe: f64,
    backtracks_per_probe: f64,
    misroutes_per_probe: f64,
}

fn trial_run(scale: Scale, m: u8, occupancy: f64, trials: u32) -> Outcome {
    let cfg = WaveConfig {
        protocol: ProtocolKind::Carp,
        k: 1,
        misroutes: m,
        cache_capacity: 2,
        ..WaveConfig::default()
    };
    let mut net = crate::experiments::net_with(scale.side, cfg);
    // Background occupancy: lanes held "by other circuits", modelled as
    // unavailable lanes (probes can neither reserve nor force them).
    let plan = FaultPlan::random_lanes(net.topology(), 1, occupancy, 2024);
    for &(link, s) in &plan.lanes {
        net.inject_lane_fault(LaneId::new(link, s))
            .expect("fault plan matches topology");
    }
    let n = u64::from(net.topology().num_nodes());
    let mut rng = SimRng::new(777);
    let mut successes = 0u64;
    let mut now = 0u64;
    for _ in 0..trials {
        let src = NodeId(rng.below(n) as u32);
        let dest = loop {
            let d = NodeId(rng.below(n) as u32);
            if d != src && net.topology().distance(src, d) >= 2 {
                break d;
            }
        };
        net.carp_establish(now, src, dest);
        while net.busy() {
            net.tick(now);
            now += 1;
        }
        let established = net.cache(src).get(dest).is_some_and(|e| e.ack_returned);
        if established {
            successes += 1;
        }
        net.carp_teardown(now, src, dest);
        while net.busy() {
            net.tick(now);
            now += 1;
        }
        now += 10;
    }
    let s = net.stats();
    let probes = s.probes_sent.max(1) as f64;
    Outcome {
        success_rate: successes as f64 / f64::from(trials),
        hops_per_probe: s.probe_hops as f64 / probes,
        backtracks_per_probe: s.probe_backtracks as f64 / probes,
        misroutes_per_probe: s.probe_misroutes as f64 / probes,
    }
}

/// Runs E7.
#[must_use]
pub fn run(ctx: &Ctx) -> Table {
    let scale = ctx.scale;
    let mut t = Table::new(
        "E7",
        "MB-m: setup probability vs misroute budget under lane occupancy",
        &[
            "occupancy",
            "m",
            "setup success",
            "hops/probe",
            "backtracks/probe",
            "misroutes/probe",
        ],
    );
    let ms = scale.sweep(&[0u8, 1, 2, 4]);
    let trials = if scale.side >= 8 { 300 } else { 80 };

    for &occ in &[0.15, 0.30] {
        for &m in &ms {
            let o = trial_run(scale, m, occ, trials);
            t.push(vec![
                pct(occ),
                m.to_string(),
                pct(o.success_rate),
                f2(o.hops_per_probe),
                f2(o.backtracks_per_probe),
                f2(o.misroutes_per_probe),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misrouting_improves_setup_probability() {
        let t = run(&Ctx::unobserved(Scale::small(), 1));
        let parse_pct = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        // Within each occupancy block, m=max must succeed at least as often
        // as m=0 (strictly more at the higher occupancy).
        for occ in ["15.0%", "30.0%"] {
            let block: Vec<&Vec<String>> = t.rows.iter().filter(|r| r[0] == occ).collect();
            assert!(block.len() >= 2);
            let s0 = parse_pct(&block.first().unwrap()[2]);
            let sm = parse_pct(&block.last().unwrap()[2]);
            assert!(
                sm + 1.0 >= s0,
                "misrouting must not hurt success at occ {occ}: {s0}% -> {sm}%"
            );
        }
        // The generous budget is actually exercised somewhere.
        let any_misroutes = t.rows.iter().any(|r| r[5].parse::<f64>().unwrap() > 0.0);
        assert!(any_misroutes);
    }
}
