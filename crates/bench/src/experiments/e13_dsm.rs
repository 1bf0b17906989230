//! E13 — the paper's DSM motivation, closed-loop: "in distributed
//! shared-memory multiprocessors, the interconnection network is used
//! either to access remote memory locations or to support a cache
//! coherence protocol … reducing the network hardware latency and
//! increasing network throughput is crucial" (§1).
//!
//! Each node keeps a bounded number of outstanding remote accesses to its
//! hot home nodes: a 4-flit request, a served 64-flit reply. That is a
//! [`ServiceWorkload`] with `OUTSTANDING` clients per node and no ramp:
//! round-robin assignment gives every node exactly its share (the MSHR
//! bound). The headline metric is the **round-trip time** — the quantity
//! that actually stalls a DSM processor. Sweep: home-locality, wormhole
//! vs CLRP.
//!
//! Expected shape: with locality, CLRP's request *and* reply both ride
//! cached circuits (homes cache the reverse circuit too), cutting the
//! round trip; with no locality the circuit thrash erodes the advantage.

use wavesim_core::{ProtocolKind, WaveConfig};
use wavesim_json::table::{f2, pct};
use wavesim_workloads::{ServiceConfig, ServiceWorkload};

use crate::experiments::{Ctx, Experiment, Row};
use crate::runner::{run_service, RunSpec, ServiceResult};

/// Outstanding remote accesses allowed per node.
const OUTSTANDING: u64 = 2;

/// E13: one row per home locality.
pub const E13: Experiment = Experiment {
    id: "e13",
    title: "closed-loop DSM remote accesses: round-trip time, wormhole vs CLRP",
    columns: &[
        "locality",
        "WH rtt",
        "CLRP rtt",
        "speedup",
        "CLRP hit rate",
        "completed",
    ],
    rows: |scale| {
        let localities = scale.sweep(&[0.0, 0.5, 0.9]);
        localities.into_iter().map(locality_row).collect()
    },
};

/// Wormhole and CLRP each serve the remote accesses at home locality `loc`.
fn locality_row(loc: f64) -> Row {
    let run = move |ctx: &Ctx, &protocol: &ProtocolKind| {
        let spec = RunSpec::standard(ctx.scale.warmup, ctx.scale.measure);
        let cfg = WaveConfig {
            protocol,
            ..WaveConfig::default()
        };
        let mut net = crate::experiments::net_with(ctx.scale.side, cfg);
        let mut wl = ServiceWorkload::new(
            net.topology().clone(),
            ServiceConfig {
                clients: OUTSTANDING * u64::from(net.topology().num_nodes()),
                partners: 3,
                locality: loc,
                req_len: 4,
                reply_len: 64,
                service_time: 20,
                think_time: 10,
                ramp: 0,
                seed: 161,
            },
        );
        ctx.observe(|obs| run_service(&mut net, &mut wl, spec, obs))
    };
    let cells = move |[wh, wv]: [ServiceResult; 2]| {
        vec![
            f2(loc),
            f2(wh.avg_round_trip),
            f2(wv.avg_round_trip),
            f2(wh.avg_round_trip / wv.avg_round_trip.max(1e-9)),
            pct(wv.wave.hit_rate()),
            format!("{}+{}", wh.completed, wv.completed),
        ]
    };
    Row::new([ProtocolKind::WormholeOnly, ProtocolKind::Clrp], run, cells)
}

#[cfg(test)]
mod tests {
    use crate::Scale;

    #[test]
    fn dsm_round_trips_complete_cleanly() {
        let t = crate::experiments::table("e13", Scale::small(), 1);
        assert!(!t.rows.is_empty());
        for row in &t.rows {
            let wh: f64 = row[1].parse().unwrap();
            let wv: f64 = row[2].parse().unwrap();
            assert!(wh > 0.0 && wv > 0.0, "round trips measured: {row:?}");
        }
        // Hit rate grows with locality.
        let parse_pct = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        let first = parse_pct(&t.rows.first().unwrap()[4]);
        let last = parse_pct(&t.rows.last().unwrap()[4]);
        assert!(
            last > first,
            "locality must raise the hit rate: {first} -> {last}"
        );
    }

    #[test]
    fn table_is_byte_identical_across_jobs() {
        let serial = crate::experiments::table("e13", Scale::small(), 1);
        let fanned = crate::experiments::table("e13", Scale::small(), 4);
        assert_eq!(format!("{serial:?}"), format!("{fanned:?}"));
    }
}
