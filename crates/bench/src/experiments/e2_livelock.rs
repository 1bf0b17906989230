//! E2 — Theorems 3 & 4: CLRP and CARP are livelock-free.
//!
//! Circuit-churn stress (tiny caches, uniform destinations, force-mode
//! teardowns everywhere) maximises probe backtracking and misrouting; the
//! theorems predict every probe terminates within the History-Store step
//! bound and every accepted message is delivered. The table reports the
//! worst probe observed against the bound.

use wavesim_core::{ClrpVariant, ProtocolKind, WaveConfig};
use wavesim_workloads::{LengthDist, TrafficPattern};

use crate::experiments::Ctx;
use crate::Table;

/// Runs E2.
#[must_use]
pub fn run(ctx: &Ctx) -> Table {
    let scale = ctx.scale;
    let mut t = Table::new(
        "E2",
        "livelock freedom: probe work is bounded (Theorems 3 & 4)",
        &[
            "config",
            "probes",
            "backtracks",
            "misroutes",
            "max probe steps",
            "bound",
            "undelivered",
            "verdict",
        ],
    );

    let configs = [
        (
            "CLRP m=2 cache=2",
            WaveConfig {
                protocol: ProtocolKind::Clrp,
                cache_capacity: 2,
                misroutes: 2,
                ..WaveConfig::default()
            },
        ),
        (
            "CLRP m=4 cache=1 k=1",
            WaveConfig {
                protocol: ProtocolKind::Clrp,
                cache_capacity: 1,
                misroutes: 4,
                k: 1,
                ..WaveConfig::default()
            },
        ),
        (
            "CLRP skip-phase1 (all-force)",
            WaveConfig {
                protocol: ProtocolKind::Clrp,
                cache_capacity: 2,
                clrp: ClrpVariant {
                    skip_phase1: true,
                    ..ClrpVariant::default()
                },
                ..WaveConfig::default()
            },
        ),
    ];

    for (name, cfg) in configs {
        let mut net = crate::experiments::net_with(scale.side, cfg);
        let r = ctx.open_loop(
            &mut net,
            0.5,
            TrafficPattern::Uniform,
            LengthDist::Fixed(24),
            23,
        );
        let s = r.wave;
        let undelivered = r.sent - r.delivered;
        t.push(vec![
            name.into(),
            s.probes_sent.to_string(),
            s.probe_backtracks.to_string(),
            s.probe_misroutes.to_string(),
            r.max_probe_steps.to_string(),
            r.probe_step_bound.to_string(),
            undelivered.to_string(),
            if r.max_probe_steps <= r.probe_step_bound && undelivered == 0 && !r.stalled {
                "OK".into()
            } else {
                "LIVELOCK".into()
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
    fn probes_stay_within_bound() {
        let t = run(&Ctx::unobserved(Scale::small(), 1));
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            assert_eq!(row.last().unwrap(), "OK", "row {row:?}");
            // Stress configs actually exercise the search machinery.
            let probes: u64 = row[1].parse().unwrap();
            assert!(probes > 0);
        }
    }
}
