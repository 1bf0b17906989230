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
use wavesim_json::table::f2;
use wavesim_workloads::{LengthDist, TrafficPattern};

use crate::experiments::{Ctx, Experiment, Row};
use crate::runner::RunResult;

/// E3.
pub const E3: Experiment = Experiment {
    id: "e3",
    title: "latency & throughput vs message length, no circuit reuse",
    columns: &[
        "len (flits)",
        "lat ratio (idle)",
        "lat ratio (loaded)",
        "WH thpt",
        "wave thpt",
        "thpt ratio",
    ],
    rows: |scale| {
        let lens = scale.sweep(&[8u32, 16, 32, 64, 128, 256, 512]);
        lens.into_iter().map(len_row).collect()
    },
};

/// A row's runs as `(protocol, offered load, seed)`, in the order its
/// cells read them. First contention-free latency, then latency at a load
/// near wormhole saturation (where the companion study's >3x factor shows
/// up: blocked wormholes hold channels, circuits do not contend), CLRP
/// before wormhole at each; last, accepted throughput far beyond wormhole
/// saturation, wormhole before CLRP.
const RUNS: [(ProtocolKind, f64, u64); 6] = [
    (ProtocolKind::Clrp, 0.05, 31),
    (ProtocolKind::WormholeOnly, 0.05, 31),
    (ProtocolKind::Clrp, 0.25, 31),
    (ProtocolKind::WormholeOnly, 0.25, 31),
    (ProtocolKind::WormholeOnly, 1.5, 37),
    (ProtocolKind::Clrp, 1.5, 37),
];

fn len_row(len: u32) -> Row {
    // One open-loop run with the circuit cache capped at one entry
    // (minimal reuse: uniform destinations thrash it).
    let run = move |ctx: &Ctx, &(protocol, load, seed): &(ProtocolKind, f64, u64)| {
        let cfg = WaveConfig {
            protocol,
            cache_capacity: 1,
            ..WaveConfig::default()
        };
        let mut net = crate::experiments::net_with(ctx.scale.side, cfg);
        ctx.open_loop(
            &mut net,
            load,
            TrafficPattern::Uniform,
            LengthDist::Fixed(len),
            seed,
        )
    };
    let cells = move |[idle, idle_wh, loaded, loaded_wh, wh, wv]: [RunResult; 6]| {
        let (wh_th, wv_th) = (wh.throughput, wv.throughput);
        vec![
            len.to_string(),
            f2(idle.avg_latency / idle_wh.avg_latency.max(1e-9)),
            f2(loaded.avg_latency / loaded_wh.avg_latency.max(1e-9)),
            format!("{wh_th:.3}"),
            format!("{wv_th:.3}"),
            f2(wv_th / wh_th.max(1e-9)),
        ]
    };
    Row::new(RUNS, run, cells)
}

#[cfg(test)]
mod tests {
    use crate::Scale;

    #[test]
    fn long_messages_favor_wave_switching() {
        let t = crate::experiments::table("e3", Scale::small(), 1);
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
