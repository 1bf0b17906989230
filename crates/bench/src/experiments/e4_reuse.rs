//! E4 — "for short messages, wave switching can only improve performance
//! if circuits are reused" (§1).
//!
//! Fixed communicating pairs exchange bursts of 16-flit messages; the
//! burst size (reuse count) sweeps from 1 to 32. Expected shape: at reuse
//! 1 CLRP pays the probe round-trip for nothing and loses to wormhole; as
//! reuse grows the setup cost amortises and the per-message latency drops
//! below wormhole.

use wavesim_core::{ProtocolKind, WaveConfig};
use wavesim_json::table::f2;
use wavesim_network::Message;
use wavesim_sim::{Cycle, SimRng};
use wavesim_topology::NodeId;

use crate::experiments::{Ctx, Experiment, Row};
use crate::runner::{run_scripted, RunResult, RunSpec};
use crate::Scale;

const MSG_LEN: u32 = 8;

fn script(side: u16, pairs: usize, reuse: u32, gap: Cycle, seed: u64) -> Vec<(Cycle, Message)> {
    let n = u32::from(side) * u32::from(side);
    let mut rng = SimRng::new(seed);
    let mut out = Vec::new();
    let mut id = 0u64;
    let mut used: Vec<u32> = Vec::new();
    for p in 0..pairs {
        // Distinct sources so pairs do not serialize on injection.
        let src = loop {
            let c = rng.below(u64::from(n)) as u32;
            if !used.contains(&c) {
                used.push(c);
                break c;
            }
        };
        let dest = loop {
            let c = rng.below(u64::from(n)) as u32;
            if c != src {
                break c;
            }
        };
        let t0 = (p as u64) * 3; // slight stagger
        for i in 0..reuse {
            let t = t0 + u64::from(i) * gap;
            out.push((t, Message::new(id, NodeId(src), NodeId(dest), MSG_LEN, t)));
            id += 1;
        }
    }
    out.sort_by_key(|(t, _)| *t);
    out
}

/// E4.
pub const E4: Experiment = Experiment {
    id: "e4",
    title: "short messages (8 flits): per-message latency vs circuit reuse",
    columns: &["reuse", "WH lat", "CLRP lat", "ratio (CLRP/WH)", "hit rate"],
    rows: |scale| {
        let reuses = scale.sweep(&[1u32, 2, 4, 8, 16, 32]);
        reuses.into_iter().map(|r| reuse_row(scale, r)).collect()
    },
};

/// Wormhole and CLRP each replay one script of `reuse`-message bursts.
fn reuse_row(scale: Scale, reuse: u32) -> Row {
    // Short-message economics need realistic path lengths: pin the
    // network at >= 8x8 even at reduced scale (scripted runs are cheap).
    let side = scale.side.max(8);
    let gap = 40; // cycles between messages of a burst
    let spec = RunSpec::standard(0, u64::from(reuse) * gap + 200);
    let sc = script(side, usize::from(side), reuse, gap, 101);
    let run = move |ctx: &Ctx, &protocol: &ProtocolKind| {
        let cfg = WaveConfig {
            protocol,
            ..WaveConfig::default()
        };
        let mut net = crate::experiments::net_with(side, cfg);
        ctx.observe(|obs| run_scripted(&mut net, &sc, spec, obs))
    };
    let cells = move |[wh, wv]: [RunResult; 2]| {
        vec![
            reuse.to_string(),
            f2(wh.avg_latency),
            f2(wv.avg_latency),
            f2(wv.avg_latency / wh.avg_latency.max(1e-9)),
            f2(wv.wave.hit_rate()),
        ]
    };
    Row::new([ProtocolKind::WormholeOnly, ProtocolKind::Clrp], run, cells)
}

#[cfg(test)]
mod tests {
    use crate::Scale;

    #[test]
    fn reuse_amortises_setup_cost() {
        let t = crate::experiments::table("e4", Scale::small(), 1);
        let first: f64 = t.rows.first().unwrap()[3].parse().unwrap();
        let last: f64 = t.rows.last().unwrap()[3].parse().unwrap();
        // Single-shot short messages should NOT benefit from circuits...
        assert!(
            first > 0.95,
            "no-reuse short messages must not beat wormhole: ratio {first}"
        );
        // ...but heavy reuse must close most of the gap (and typically win).
        assert!(
            last < first,
            "reuse must improve the CLRP/WH ratio: {first} -> {last}"
        );
        // Hit rate grows with reuse.
        let h_first: f64 = t.rows.first().unwrap()[4].parse().unwrap();
        let h_last: f64 = t.rows.last().unwrap()[4].parse().unwrap();
        assert!(h_last > h_first);
    }
}
