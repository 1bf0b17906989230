//! E12 — micro-ablations of design choices DESIGN.md §13 calls out:
//!
//! * **initial-switch staggering** — "it is convenient that neighboring
//!   nodes try to use different initial switches" (§3.1): with staggering
//!   off, every probe starts on switch `S1` and collides with its
//!   neighbours' circuits;
//! * **windowing window size** — §2's end-to-end window must cover
//!   bandwidth × RTT or long-haul circuits throttle ("deeper buffers"
//!   trade-off);
//! * **end-point buffer sizing** — CLRP's blind allocation pays
//!   re-allocation penalties that CARP's compiler-sized buffers never do
//!   (§2/§3).

use wavesim_core::{ProtocolKind, WaveConfig};
use wavesim_workloads::{LengthDist, TrafficPattern};

use crate::experiments::Ctx;
use crate::table::{f2, pct};
use crate::Table;

fn locality_run(ctx: &Ctx, cfg: WaveConfig, len: LengthDist) -> crate::RunResult {
    let scale = ctx.scale;
    let mut net = crate::experiments::net_with(scale.side, cfg);
    ctx.open_loop(
        &mut net,
        0.2,
        TrafficPattern::HotPairs {
            partners: 3,
            locality: 0.8,
        },
        len,
        141,
    )
}

/// Runs E12.
#[must_use]
pub fn run(ctx: &Ctx) -> Table {
    let scale = ctx.scale;
    let mut t = Table::new(
        "E12",
        "design-choice ablations: switch staggering, window size, buffer sizing",
        &["config", "avg lat", "circuit%", "setups ok", "reallocs"],
    );
    let len64 = LengthDist::Fixed(64);

    // Staggering on/off (k = 2 so the choice matters).
    for (name, stagger) in [("stagger on", true), ("stagger off", false)] {
        let cfg = WaveConfig {
            protocol: ProtocolKind::Clrp,
            stagger_initial_switch: stagger,
            ..WaveConfig::default()
        };
        let r = locality_run(ctx, cfg, len64);
        t.push(vec![
            name.into(),
            f2(r.avg_latency),
            pct(r.circuit_fraction),
            r.wave.setups_ok.to_string(),
            r.wave.buffer_reallocs.to_string(),
        ]);
    }

    // Window sweep.
    for window in scale.sweep(&[4u32, 16, 64, 256]) {
        let cfg = WaveConfig {
            protocol: ProtocolKind::Clrp,
            window,
            ..WaveConfig::default()
        };
        let r = locality_run(ctx, cfg, len64);
        t.push(vec![
            format!("window {window}"),
            f2(r.avg_latency),
            pct(r.circuit_fraction),
            r.wave.setups_ok.to_string(),
            r.wave.buffer_reallocs.to_string(),
        ]);
    }

    // Buffer sizing under bimodal lengths: a small initial buffer forces
    // re-allocations on every long-message circuit.
    let bimodal = LengthDist::Bimodal {
        short: 16,
        long: 256,
        frac_long: 0.3,
    };
    for (name, initial, penalty) in [
        ("buffers 16f/+64cyc", 16u32, 64u32),
        ("buffers 256f/+64cyc", 256, 64),
    ] {
        let cfg = WaveConfig {
            protocol: ProtocolKind::Clrp,
            initial_buffer_flits: initial,
            realloc_penalty: penalty,
            ..WaveConfig::default()
        };
        let r = locality_run(ctx, cfg, bimodal);
        t.push(vec![
            name.into(),
            f2(r.avg_latency),
            pct(r.circuit_fraction),
            r.wave.setups_ok.to_string(),
            r.wave.buffer_reallocs.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn ablations_show_expected_directions() {
        let t = run(&Ctx::unobserved(Scale::small(), 1));
        let lat = |name: &str| -> f64 {
            t.rows
                .iter()
                .find(|r| r[0] == name)
                .unwrap_or_else(|| panic!("row {name}"))[1]
                .parse()
                .unwrap()
        };
        let reallocs = |name: &str| -> u64 {
            t.rows.iter().find(|r| r[0] == name).unwrap()[4]
                .parse()
                .unwrap()
        };
        // Tiny windows throttle long-haul circuits.
        let w_small = lat("window 4");
        let w_big = lat("window 256");
        assert!(
            w_small > w_big,
            "window 4 ({w_small}) must be slower than window 256 ({w_big})"
        );
        // Small initial buffers re-allocate; ample ones do not.
        assert!(reallocs("buffers 16f/+64cyc") > 0);
        assert_eq!(reallocs("buffers 256f/+64cyc"), 0);
        // Every config still delivers circuit traffic.
        for row in &t.rows {
            let cf = row[2].trim_end_matches('%').parse::<f64>().unwrap();
            assert!(cf > 10.0, "{row:?}");
        }
    }
}
