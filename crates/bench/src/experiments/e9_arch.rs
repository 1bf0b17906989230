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
use wavesim_json::table::{f2, f3, pct};
use wavesim_network::WormholeConfig;
use wavesim_workloads::{LengthDist, TrafficPattern};

use crate::experiments::{rows_of, Ctx, Experiment, Row};
use crate::Scale;

/// E9.
pub const E9: Experiment = Experiment {
    id: "e9",
    title: "architecture sweep: wave switches k, clock ratio α, wormhole VCs w",
    columns: &[
        "k",
        "alpha",
        "w",
        "avg lat",
        "thpt",
        "circuit%",
        "setups ok",
    ],
    rows,
};

fn rows(scale: Scale) -> Vec<Row> {
    // One axis at a time around (k, alpha, w) = (2, 4, 2).
    let ks = [1, 2, 4].map(|k| (k, 4, 2));
    let alphas = [1, 2, 4].map(|alpha| (2, alpha, 2));
    let ws = [1, 2, 4].map(|w| (2, 4, w));
    let mut combos: Vec<(u8, u32, u8)> = [ks, alphas, ws].concat();
    combos.dedup();
    rows_of(scale.sweep(&combos), arch_row)
}

fn arch_row(ctx: &Ctx, &(k, alpha, w): &(u8, u32, u8)) -> Vec<String> {
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
    let mut net = crate::experiments::net_with(ctx.scale.side, cfg);
    let pattern = TrafficPattern::HotPairs {
        partners: 3,
        locality: 0.8,
    };
    let r = ctx.open_loop(&mut net, 0.3, pattern, LengthDist::Fixed(64), 111);
    vec![
        k.to_string(),
        alpha.to_string(),
        w.to_string(),
        f2(r.avg_latency),
        f3(r.throughput),
        pct(r.circuit_fraction),
        r.wave.setups_ok.to_string(),
    ]
}

#[cfg(test)]
mod tests {
    use crate::Scale;

    #[test]
    fn every_configuration_completes() {
        let t = crate::experiments::table("e9", Scale::small(), 1);
        assert!(!t.rows.is_empty());
        for row in &t.rows {
            let lat: f64 = row[3].parse().unwrap();
            assert!(lat > 0.0, "row {row:?} has no latency sample");
        }
    }
}
