//! E5 — "the CARP protocol is able to achieve a higher performance
//! because a circuit is only established when there is enough temporal
//! communication locality" (§3); CLRP in turn beats plain wormhole once
//! locality makes circuits reusable.
//!
//! All three systems replay the **identical** phased pairwise-exchange
//! message schedule; only circuit management differs:
//!
//! * *wormhole* ignores circuits entirely;
//! * *CLRP* discovers reuse on the fly (first message of each burst pays
//!   the establishment, and idle circuits linger and get force-evicted);
//! * *CARP* executes the compiler's ESTABLISH/TEARDOWN bracket — and the
//!   compiler only emits circuits when the burst is long enough
//!   (`use_circuits = burst ≥ 4` here), per §3.2.
//!
//! The locality knob is the burst length: how many messages each
//! (source, partner) pair exchanges per phase. Expected shape: at burst 1
//! wormhole wins (CLRP wastes probes, CARP ≡ wormhole); as bursts grow
//! both circuit protocols pull ahead, CARP slightly ahead of CLRP because
//! its prefetch (`setup_lead`) hides the probe round-trip.

use wavesim_core::{ProtocolKind, WaveConfig};
use wavesim_workloads::{CarpTrace, PairwiseSpec};

use crate::experiments::Ctx;
use crate::runner::{run_carp_trace, RunSpec};
use crate::table::{f2, pct};
use crate::Table;

/// Runs E5.
#[must_use]
pub fn run(ctx: &Ctx) -> Table {
    let scale = ctx.scale;
    let mut t = Table::new(
        "E5",
        "temporal locality (burst length): wormhole vs CLRP vs CARP on one schedule",
        &[
            "burst",
            "WH lat",
            "CLRP lat",
            "CLRP circuit%",
            "CARP lat",
            "CARP circuit%",
        ],
    );
    let bursts = scale.sweep(&[1u32, 2, 4, 8, 16]);
    let spec = RunSpec::standard(0, scale.measure);

    for &burst in &bursts {
        let mk_trace = |use_circuits: bool| {
            CarpTrace::pairwise(
                &crate::experiments::mesh(scale.side),
                &PairwiseSpec {
                    partners: 3,
                    phases: 3,
                    msgs_per_burst: burst,
                    len: 64,
                    phase_gap: scale.measure / 3 + 1_000,
                    setup_lead: 200,
                    send_gap: 60,
                    // The "compiler decision": circuits only for real bursts.
                    use_circuits,
                    seed: 55,
                },
            )
        };
        let run_one = |protocol: ProtocolKind| {
            let cfg = WaveConfig {
                protocol,
                ..WaveConfig::default()
            };
            let mut net = crate::experiments::net_with(scale.side, cfg);
            let carp_circuits = protocol == ProtocolKind::Carp && burst >= 4;
            let mut trace = mk_trace(carp_circuits);
            ctx.observe(|obs| run_carp_trace(&mut net, &mut trace, spec, obs))
        };
        let wh = run_one(ProtocolKind::WormholeOnly);
        let clrp = run_one(ProtocolKind::Clrp);
        let carp = run_one(ProtocolKind::Carp);

        t.push(vec![
            burst.to_string(),
            f2(wh.avg_latency),
            f2(clrp.avg_latency),
            pct(clrp.circuit_fraction),
            f2(carp.avg_latency),
            pct(carp.circuit_fraction),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn circuits_pay_off_with_bursts() {
        let t = run(&Ctx::unobserved(Scale::small(), 1));
        let parse_pct = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        let first = &t.rows[0];
        let last = t.rows.last().unwrap();
        // Single-message "bursts": the CARP compiler emits no circuits.
        assert_eq!(
            parse_pct(&first[5]),
            0.0,
            "CARP must skip circuits at burst 1"
        );
        // Long bursts: both circuit protocols carry most traffic on circuits
        // and beat wormhole latency.
        assert!(parse_pct(&last[3]) > 50.0, "CLRP circuit% {last:?}");
        assert!(parse_pct(&last[5]) > 50.0, "CARP circuit% {last:?}");
        let wh: f64 = last[1].parse().unwrap();
        let clrp: f64 = last[2].parse().unwrap();
        let carp: f64 = last[4].parse().unwrap();
        assert!(
            clrp < wh,
            "CLRP {clrp} must beat wormhole {wh} at high burst"
        );
        assert!(
            carp < wh,
            "CARP {carp} must beat wormhole {wh} at high burst"
        );
    }
}
