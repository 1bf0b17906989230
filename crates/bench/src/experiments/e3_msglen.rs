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
//!
//! The latency runs drain to empty, since a mean latency needs every
//! measured message delivered. The throughput runs stop at the end of
//! their measurement window ([`Ctx::open_loop_window`]): the meter counts
//! only deliveries before it, so the drain after it, the longest stretch
//! of the whole E-series at 512 flits, cannot change their cell.

use wavesim_core::{ProtocolKind, WaveConfig, WaveNetwork};
use wavesim_json::table::f2;
use wavesim_workloads::{LengthDist, TrafficPattern};

use crate::experiments::{Ctx, Experiment, Row};
use crate::runner::{RunResult, WindowResult};

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
    rows: |scale| scale.sweep(&LENS).into_iter().map(len_row).collect(),
};

/// Message lengths in flits, one row each.
const LENS: [u32; 7] = [8, 16, 32, 64, 128, 256, 512];

/// One run as `(protocol, offered load, seed)`.
type Run = (ProtocolKind, f64, u64);

/// A row's latency runs, drained, in the order its cells read them. First
/// contention-free latency, then latency at a load near wormhole
/// saturation (where the companion study's >3x factor shows up: blocked
/// wormholes hold channels, circuits do not contend), CLRP before
/// wormhole at each.
const LATENCY_RUNS: [Run; 4] = [
    (ProtocolKind::Clrp, 0.05, 31),
    (ProtocolKind::WormholeOnly, 0.05, 31),
    (ProtocolKind::Clrp, 0.25, 31),
    (ProtocolKind::WormholeOnly, 0.25, 31),
];

/// A row's throughput runs: accepted throughput far beyond wormhole
/// saturation, wormhole before CLRP. Their cells read only windowed
/// throughput, so they are window runs.
const THROUGHPUT_RUNS: [Run; 2] = [
    (ProtocolKind::WormholeOnly, 1.5, 37),
    (ProtocolKind::Clrp, 1.5, 37),
];

/// A network of E3's shape: the circuit cache capped at one entry
/// (minimal reuse: uniform destinations thrash it).
fn net(ctx: &Ctx, protocol: ProtocolKind) -> WaveNetwork {
    let cfg = WaveConfig {
        protocol,
        cache_capacity: 1,
        ..WaveConfig::default()
    };
    crate::experiments::net_with(ctx.scale.side, cfg)
}

fn len_row(len: u32) -> Row {
    let (uniform, fixed) = (TrafficPattern::Uniform, LengthDist::Fixed(len));
    let latency = move |ctx: &Ctx, &(protocol, load, seed): &Run| {
        ctx.open_loop(&mut net(ctx, protocol), load, uniform, fixed, seed)
    };
    let throughput = move |ctx: &Ctx, &(protocol, load, seed): &Run| {
        ctx.open_loop_window(&mut net(ctx, protocol), load, uniform, fixed, seed)
    };
    let cells = move |[idle, idle_wh, loaded, loaded_wh]: [RunResult; 4],
                      [wh, wv]: [WindowResult; 2]| {
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
    Row::split(
        (LATENCY_RUNS, latency),
        (THROUGHPUT_RUNS, throughput),
        cells,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    /// Every throughput run of E3 at small scale, once drained and once
    /// stopped at the window: the cell's number is the same f64, the
    /// window run really stopped with messages in flight, and the drained
    /// run really went on past it.
    #[test]
    fn throughput_runs_read_the_same_number_at_the_window() {
        let ctx = Ctx::unobserved(Scale::small(), 1);
        let measure_end = ctx.scale.warmup + ctx.scale.measure;
        for len in ctx.scale.sweep(&LENS) {
            for (protocol, load, seed) in THROUGHPUT_RUNS {
                let at = format!("{protocol:?} at {len} flits");
                let (uniform, fixed) = (TrafficPattern::Uniform, LengthDist::Fixed(len));
                let drained = ctx.open_loop(&mut net(&ctx, protocol), load, uniform, fixed, seed);
                let mut cut = net(&ctx, protocol);
                let window = ctx.open_loop_window(&mut cut, load, uniform, fixed, seed);
                assert_eq!(
                    window.throughput.to_bits(),
                    drained.throughput.to_bits(),
                    "{at}: {} vs {}",
                    window.throughput,
                    drained.throughput
                );
                assert_eq!(window.end, measure_end, "{at}");
                assert!(cut.busy(), "{at}: nothing was left in flight");
                assert!(drained.end > measure_end, "{at}: {drained:?}");
                assert!(
                    window.max_probe_steps <= window.probe_step_bound,
                    "{at}: {window:?}"
                );
            }
        }
    }

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
