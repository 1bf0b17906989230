//! E11 — the signature figure of the companion ICPP'96 evaluation: the
//! latency-vs-offered-load "hockey stick" and the accepted-vs-offered
//! throughput curve, for plain wormhole switching vs wave switching under
//! locality traffic.
//!
//! Expected shape: both systems track each other at light load; wormhole
//! saturates first (latency blows up, accepted throughput flattens); wave
//! switching keeps accepting traffic well past the wormhole knee because
//! circuit traffic bypasses `S0` entirely and each lane moves
//! `clock_multiplier / channel_split` flits per cycle.

use wavesim_core::{ProtocolKind, WaveConfig};
use wavesim_json::table::{f2, f3};
use wavesim_workloads::{LengthDist, TrafficPattern};

use crate::experiments::{Ctx, Experiment, Row};
use crate::runner::RunResult;

/// E11: one row per offered load.
pub const E11: Experiment = Experiment {
    id: "e11",
    title: "latency and accepted throughput vs offered load (the saturation curve)",
    columns: &[
        "offered",
        "WH lat",
        "WH accepted",
        "wave lat",
        "wave accepted",
    ],
    rows: |scale| {
        let loads = scale.sweep(&[0.05, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0, 1.2]);
        loads.into_iter().map(load_row).collect()
    },
};

/// Wormhole and CLRP each under `load` of hot-pair traffic.
fn load_row(load: f64) -> Row {
    let run = move |ctx: &Ctx, &protocol: &ProtocolKind| {
        let pattern = TrafficPattern::HotPairs {
            partners: 3,
            locality: 0.7,
        };
        let cfg = WaveConfig {
            protocol,
            ..WaveConfig::default()
        };
        let mut net = crate::experiments::net_with(ctx.scale.side, cfg);
        ctx.open_loop(&mut net, load, pattern, LengthDist::Fixed(64), 131)
    };
    let cells = move |[wh, wv]: [RunResult; 2]| {
        vec![
            f2(load),
            f2(wh.avg_latency),
            f3(wh.throughput),
            f2(wv.avg_latency),
            f3(wv.throughput),
        ]
    };
    Row::new([ProtocolKind::WormholeOnly, ProtocolKind::Clrp], run, cells)
}

#[cfg(test)]
mod tests {
    use crate::Scale;

    #[test]
    fn wave_switching_saturates_later() {
        let t = crate::experiments::table("e11", Scale::small(), 1);
        // At the heaviest offered load, wave switching accepts strictly
        // more traffic than wormhole.
        let last = t.rows.last().unwrap();
        let wh: f64 = last[2].parse().unwrap();
        let wv: f64 = last[4].parse().unwrap();
        assert!(
            wv > wh * 1.2,
            "wave accepted {wv} must clearly exceed wormhole {wh} past saturation"
        );
        // Latency is monotone-ish in load for wormhole (hockey stick).
        let first_lat: f64 = t.rows.first().unwrap()[1].parse().unwrap();
        let last_lat: f64 = last[1].parse().unwrap();
        assert!(last_lat > first_lat, "wormhole latency must grow with load");
    }
}
