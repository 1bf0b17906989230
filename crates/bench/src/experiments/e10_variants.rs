//! E10 — the §3.1 CLRP simplifications: "when a circuit cannot be
//! established by using Initial Switch, the Force bit can be set without
//! trying the remaining switches … the second phase may try a single
//! switch … the Force bit can be set when the probe is first sent,
//! therefore skipping phase one. The optimal protocol depends on the
//! number of physical switches per node, and on the applications."
//!
//! Ablation of the CLRP variants under circuit-pressure traffic. The
//! interesting trade-off: skipping phase one saves probe rounds but tears
//! down competitors' circuits more aggressively (more forced releases,
//! worse neighbourly behaviour); disabling force entirely avoids
//! teardowns but pushes more traffic to wormhole fallback.

use wavesim_core::{ClrpVariant, ProtocolKind, WaveConfig};
use wavesim_workloads::{LengthDist, TrafficPattern};

use crate::experiments::Ctx;
use crate::table::{f2, pct};
use crate::Table;

/// Runs E10.
#[must_use]
pub fn run(ctx: &Ctx) -> Table {
    let scale = ctx.scale;
    let mut t = Table::new(
        "E10",
        "CLRP variant ablation (§3.1 simplifications)",
        &[
            "variant",
            "avg lat",
            "probes",
            "forced rel.",
            "fallback msgs",
            "circuit%",
        ],
    );
    let variants = [
        ("full (3 phases)", ClrpVariant::default()),
        (
            "skip phase 1",
            ClrpVariant {
                skip_phase1: true,
                ..ClrpVariant::default()
            },
        ),
        (
            "single-switch force",
            ClrpVariant {
                single_switch_force: true,
                ..ClrpVariant::default()
            },
        ),
        (
            "no force (phases 1+3)",
            ClrpVariant {
                enable_force: false,
                ..ClrpVariant::default()
            },
        ),
    ];

    for (name, v) in variants {
        let cfg = WaveConfig {
            protocol: ProtocolKind::Clrp,
            clrp: v,
            cache_capacity: 4,
            ..WaveConfig::default()
        };
        let mut net = crate::experiments::net_with(scale.side, cfg);
        let r = ctx.open_loop(
            &mut net,
            0.3,
            TrafficPattern::HotPairs {
                partners: 4,
                locality: 0.7,
            },
            LengthDist::Fixed(48),
            123,
        );
        let s = r.wave;
        t.push(vec![
            name.into(),
            f2(r.avg_latency),
            s.probes_sent.to_string(),
            (s.forced_local_releases + s.forced_remote_releases).to_string(),
            s.wormhole_fallbacks.to_string(),
            pct(r.circuit_fraction),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn variants_trade_probes_for_teardowns() {
        let t = run(&Ctx::unobserved(Scale::small(), 1));
        assert_eq!(t.rows.len(), 4);
        let by_name = |n: &str| t.rows.iter().find(|r| r[0].starts_with(n)).unwrap();
        let noforce = by_name("no force");
        let full = by_name("full");
        let forced: u64 = noforce[3].parse().unwrap();
        assert_eq!(forced, 0, "no-force variant must never force a release");
        let full_forced: u64 = full[3].parse().unwrap();
        let _ = full_forced; // may be zero at small scale; the column exists
        for row in &t.rows {
            let lat: f64 = row[1].parse().unwrap();
            assert!(lat > 0.0);
        }
    }
}
