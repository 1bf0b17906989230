//! E3 — the headline claim: "wave switching is able to reduce latency and
//! increase throughput by a factor higher than three if messages are long
//! enough (≥ 128 flits), even if circuits are not reused" (§1/§5, from the
//! companion ICPP'96 study).
//!
//! Message-length sweep, uniform destinations with the circuit cache
//! capped at one entry so reuse is negligible — the "not reused" regime.
//! Latency is measured at a light load; accepted throughput at an offered
//! load far beyond wormhole saturation. The expected *shape*: both ratios
//! grow with message length and cross ~1 well before 128 flits, reaching
//! ≥ 2–4× at 128+.

use wavesim_core::{ProtocolKind, WaveConfig};
use wavesim_workloads::{LengthDist, TrafficPattern};

use crate::experiments::Ctx;
use crate::table::f2;
use crate::Table;

/// Runs E3.
#[must_use]
pub fn run(ctx: &Ctx) -> Table {
    let scale = ctx.scale;
    let mut t = Table::new(
        "E3",
        "latency & throughput vs message length, no circuit reuse",
        &[
            "len (flits)",
            "lat ratio (idle)",
            "lat ratio (loaded)",
            "WH thpt",
            "wave thpt",
            "thpt ratio",
        ],
    );
    let lens = scale.sweep(&[8u32, 16, 32, 64, 128, 256, 512]);

    for &len in &lens {
        let lat = |protocol: ProtocolKind, load: f64| -> f64 {
            let cfg = WaveConfig {
                protocol,
                cache_capacity: 1, // minimal reuse: uniform dests thrash it
                ..WaveConfig::default()
            };
            let mut net = crate::experiments::net_with(scale.side, cfg);
            ctx.open_loop(
                &mut net,
                load,
                TrafficPattern::Uniform,
                LengthDist::Fixed(len),
                31,
            )
            .avg_latency
        };
        // Contention-free latency, and latency at a load near wormhole
        // saturation (where the companion study's >3x factor shows up:
        // blocked wormholes hold channels, circuits do not contend).
        let idle_ratio =
            lat(ProtocolKind::Clrp, 0.05) / lat(ProtocolKind::WormholeOnly, 0.05).max(1e-9);
        let loaded_ratio =
            lat(ProtocolKind::Clrp, 0.25) / lat(ProtocolKind::WormholeOnly, 0.25).max(1e-9);

        // Accepted throughput far beyond wormhole saturation.
        let heavy = 1.5;
        let thpt = |protocol: ProtocolKind| -> f64 {
            let cfg = WaveConfig {
                protocol,
                cache_capacity: 1,
                ..WaveConfig::default()
            };
            let mut net = crate::experiments::net_with(scale.side, cfg);
            ctx.open_loop(
                &mut net,
                heavy,
                TrafficPattern::Uniform,
                LengthDist::Fixed(len),
                37,
            )
            .throughput
        };
        let wh_th = thpt(ProtocolKind::WormholeOnly);
        let wv_th = thpt(ProtocolKind::Clrp);

        t.push(vec![
            len.to_string(),
            f2(idle_ratio),
            f2(loaded_ratio),
            format!("{wh_th:.3}"),
            format!("{wv_th:.3}"),
            f2(wv_th / wh_th.max(1e-9)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn long_messages_favor_wave_switching() {
        let t = run(&Ctx::unobserved(Scale::small(), 1));
        assert!(t.rows.len() >= 2);
        // Throughput ratio at the longest length must exceed the ratio at
        // the shortest (the claim's shape), and exceed 1.
        let first: f64 = t.rows.first().unwrap()[5].parse().unwrap();
        let last: f64 = t.rows.last().unwrap()[5].parse().unwrap();
        assert!(
            last > 1.0,
            "wave switching must beat wormhole throughput for long messages: {last}"
        );
        assert!(
            last >= first * 0.9,
            "advantage should not shrink with length: {first} -> {last}"
        );
    }
}
