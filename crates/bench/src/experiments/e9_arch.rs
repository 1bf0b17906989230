//! E9 — the architecture's flexibility (§2): "several parameters can be
//! adjusted, including the number of fast switches, the number of virtual
//! channels for wormhole switching, and the routing protocols".
//!
//! Sweep of `k` (wave switches per router, incl. the "simplest version of
//! wave router … k = 1"), the wave-pipelining clock multiplier α (the
//! companion study's Spice result caps it at 4), and the wormhole VC
//! count `w`, under locality traffic. Expected shape: more wave switches
//! and higher α raise circuit throughput; `w` matters mostly for the
//! wormhole share.

use wavesim_core::{ProtocolKind, WaveConfig};
use wavesim_network::WormholeConfig;
use wavesim_workloads::{LengthDist, TrafficPattern};

use crate::experiments::Ctx;
use crate::table::{f2, f3, pct};
use crate::Table;

/// Runs E9.
#[must_use]
pub fn run(ctx: &Ctx) -> Table {
    let scale = ctx.scale;
    let mut t = Table::new(
        "E9",
        "architecture sweep: wave switches k, clock ratio α, wormhole VCs w",
        &[
            "k",
            "alpha",
            "w",
            "avg lat",
            "thpt",
            "circuit%",
            "setups ok",
        ],
    );
    let pattern = TrafficPattern::HotPairs {
        partners: 3,
        locality: 0.8,
    };

    let mut combos: Vec<(u8, u32, u8)> = Vec::new();
    for &k in &[1u8, 2, 4] {
        combos.push((k, 4, 2));
    }
    for &alpha in &[1u32, 2, 4] {
        combos.push((2, alpha, 2));
    }
    for &w in &[1u8, 2, 4] {
        combos.push((2, 4, w));
    }
    combos.dedup();
    let combos = scale.sweep(&combos);

    for &(k, alpha, w) in &combos {
        let cfg = WaveConfig {
            protocol: ProtocolKind::Clrp,
            k,
            clock_multiplier: alpha,
            wormhole: WormholeConfig {
                w,
                ..WormholeConfig::default()
            },
            ..WaveConfig::default()
        };
        let mut net = crate::experiments::net_with(scale.side, cfg);
        let r = ctx.open_loop(&mut net, 0.3, pattern, LengthDist::Fixed(64), 111);
        t.push(vec![
            k.to_string(),
            alpha.to_string(),
            w.to_string(),
            f2(r.avg_latency),
            f3(r.throughput),
            pct(r.circuit_fraction),
            r.wave.setups_ok.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn every_configuration_completes() {
        let t = run(&Ctx::unobserved(Scale::small(), 1));
        assert!(!t.rows.is_empty());
        for row in &t.rows {
            let lat: f64 = row[3].parse().unwrap();
            assert!(lat > 0.0, "row {row:?} has no latency sample");
        }
    }
}
