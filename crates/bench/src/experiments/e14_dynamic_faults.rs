//! E14 — dynamic faults: lanes fail *and repair* mid-run, under load.
//!
//! E8 covers the paper's static model (faults present before traffic).
//! This experiment stresses the harder dynamic case: a timed
//! [`FaultSchedule`] breaks whole links while circuits hold them, forcing
//! teardown-then-fault, CLRP's bounded re-establishment retries, and —
//! when the retry budget runs dry — graceful degradation to wormhole
//! delivery. Sweeping the per-link MTBF from rare to relentless, the
//! invariants are the same as E8's: *delivery stays at 100% at every
//! fault rate*, and only the circuit fraction degrades as churn grows.
//!
//! Columns: per-link MTBF (cycles), fail/repair events applied, circuits
//! broken by faults, re-establishment retries launched, circuit-carried
//! fraction, mean latency, delivered and lost message counts.

use wavesim_core::{ProtocolKind, WaveConfig};
use wavesim_workloads::{FaultSchedule, LengthDist, TrafficPattern};

use crate::experiments::Ctx;
use crate::runner::apply_fault_schedule;
use crate::table::{f2, pct};
use crate::Table;

/// Runs E14, fanning the MTBF points out over the context's worker
/// threads. Every point builds its own network, traffic source, and fault
/// schedule from the point value, so the table is byte-identical for any
/// job count.
///
/// # Panics
/// Panics if a drawn fault schedule does not fit the network it was
/// drawn for (a bug, not an input error).
#[must_use]
pub fn run(ctx: &Ctx) -> Table {
    let scale = ctx.scale;
    let mut t = Table::new(
        "E14",
        "dynamic lane faults: teardown-then-fault, bounded retry, graceful fallback",
        &[
            "link MTBF",
            "events",
            "broken",
            "retries",
            "circuit%",
            "avg lat",
            "delivered",
            "lost",
        ],
    );
    // Largest (healthiest) first: the monotonic-degradation check reads
    // the first and last rows.
    let mtbfs: Vec<u64> = scale.sweep(&[50_000, 8_000, 2_000, 600]);
    let horizon = scale.warmup + scale.measure;

    let rows = ctx.sweep(&mtbfs, |ctx, &mtbf| {
        let cfg = WaveConfig {
            protocol: ProtocolKind::Clrp,
            misroutes: 3, // generous budget: the fault-tolerance enabler
            ..WaveConfig::default()
        };
        let mut net = crate::experiments::net_with(scale.side, cfg);
        let sched = FaultSchedule::random_mtbf(net.topology(), mtbf, mtbf / 8 + 1, horizon, 1414);
        apply_fault_schedule(&mut net, &sched).expect("schedule drawn from this topology");
        let r = ctx.open_loop(
            &mut net,
            0.15,
            TrafficPattern::HotPairs {
                partners: 3,
                locality: 0.8,
            },
            LengthDist::Fixed(64),
            99,
        );
        vec![
            mtbf.to_string(),
            sched.len().to_string(),
            r.wave.circuits_broken.to_string(),
            r.wave.establish_retries.to_string(),
            pct(r.circuit_fraction),
            f2(r.avg_latency),
            r.delivered.to_string(),
            (r.sent - r.delivered).to_string(),
        ]
    });
    for row in rows {
        t.push(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn no_message_is_ever_lost_under_fault_churn() {
        let t = run(&Ctx::unobserved(Scale::small(), 1));
        for row in &t.rows {
            assert_eq!(row.last().unwrap(), "0", "lost messages in {row:?}");
        }
    }

    #[test]
    fn churn_breaks_circuits_and_triggers_retries() {
        let t = run(&Ctx::unobserved(Scale::small(), 1));
        let last = t.rows.last().unwrap();
        let broken: u64 = last[2].parse().unwrap();
        let retries: u64 = last[3].parse().unwrap();
        assert!(broken > 0, "shortest MTBF must break live circuits: {t:?}");
        assert!(retries > 0, "CLRP must retry broken circuits: {t:?}");
    }

    #[test]
    fn circuit_fraction_degrades_with_mtbf() {
        let t = run(&Ctx::unobserved(Scale::small(), 1));
        let parse_pct = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        let healthy = parse_pct(&t.rows.first().unwrap()[4]);
        let churned = parse_pct(&t.rows.last().unwrap()[4]);
        assert!(
            healthy >= churned,
            "more churn cannot increase circuit use: {healthy}% vs {churned}%"
        );
        assert!(healthy > 10.0, "near-fault-free network must use circuits");
    }
}
