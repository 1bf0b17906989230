//! The six workloads and what they have in common.
//!
//! A workload is a batch job of fixed input size: `setup` builds its inputs
//! from a seed, `run` is the timed phase as a user would run it, `check`
//! verifies what came out. One process repeats the three over the inputs
//! `--seed` names for as long as it was asked to measure (see
//! [`crate::measure`]).

pub mod analyze;
pub mod eseries;
pub mod sim;

use std::collections::BTreeMap;

use crate::spans::{Probe, Tracer};

/// One output check. A failed check fails the whole run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    /// What was wrong (empty when `ok`).
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: impl FnOnce() -> String) -> Self {
        Check {
            name,
            ok,
            detail: if ok { String::new() } else { detail() },
        }
    }
}

/// What one timed phase produced, condensed and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// FNV-1a over everything the phase computed. Equal inputs must give
    /// equal fingerprints, in every repeat and in the traced loop; a
    /// speed-only change must leave it untouched.
    pub fingerprint: u64,
    /// Operations attempted: messages sent, records read, experiments run.
    pub attempted: u64,
    /// Operations that did not complete (failed checks are counted apart).
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Simulated cycles the timed phase covered (simulation workloads).
    pub sim_cycles: Option<u64>,
    /// Trace records through the pipeline in the timed phase.
    pub records: Option<u64>,
    /// `RunResult::avg_latency` — simulated time, not host time.
    pub sim_latency_cycles: Option<f64>,
    /// `RunResult::throughput`, flits per node per simulated cycle.
    pub sim_accepted_load: Option<f64>,
}

/// Per-layer values of a traced process: one entry per round and metric,
/// reported as the median over the rounds.
#[derive(Debug, Default)]
pub struct Ledger(BTreeMap<&'static str, Vec<f64>>);

impl Ledger {
    pub fn push(&mut self, metric: &'static str, value: f64) {
        debug_assert!(
            crate::metrics::PER_LAYER.iter().any(|m| m.name == metric),
            "{metric} is not a per-layer metric"
        );
        self.0.entry(metric).or_default().push(value);
    }

    /// `numerator / denominator`, or 0 when there is nothing to divide by.
    pub fn push_ratio(&mut self, metric: &'static str, numerator: f64, denominator: f64) {
        let value = if denominator == 0.0 {
            0.0
        } else {
            numerator / denominator
        };
        self.push(metric, value);
    }

    /// Every span called `layer.call` is the metric `layer.call_s`.
    pub fn push_spans(&mut self, tracer: &Tracer) {
        for (name, agg) in crate::spans::aggregate(tracer.spans()) {
            if let Some(m) = crate::metrics::PER_LAYER
                .iter()
                .find(|m| m.name.strip_suffix("_s") == Some(name))
            {
                self.push(m.name, agg.total_s);
            }
        }
    }

    /// Median over the rounds (0 for a metric the workload does not have).
    pub fn value(&self, metric: &str) -> f64 {
        self.0.get(metric).map_or(0.0, |v| crate::stats::median(v))
    }
}

pub trait Workload {
    /// Inputs of one timed phase.
    type Input;
    /// Raw outputs of one timed phase, before checking.
    type Done;
    /// True when [`Workload::run`] goes through a driver of the
    /// simulator's own instead of [`Workload::run_probed`]'s calls, so
    /// that the bare loop is a second code path worth timing.
    const OWN_DRIVER: bool;
    /// False when the workload's inputs do not depend on the seed.
    const SEEDED: bool;

    /// Builds the inputs from the seed: same seed, same inputs.
    fn setup<P: Probe>(&self, seed: u64, probe: &mut P) -> Self::Input;

    /// The timed phase the way a user runs it: through the simulator's
    /// own entry points.
    fn run(&self, input: Self::Input) -> Self::Done;

    /// The same phase over the layers' public calls, one span per call.
    /// With [`crate::spans::Off`] it is the bare loop; its outputs must
    /// equal those of [`Workload::run`].
    fn run_probed<P: Probe>(&self, input: Self::Input, probe: &mut P) -> Self::Done;

    /// Per-layer counters and ratios of a traced phase, read from the
    /// layers' public statistics and the recorded spans.
    fn layers(&self, done: &Self::Done, tracer: &Tracer, ledger: &mut Ledger);

    /// Untimed: verifies the outputs and condenses them.
    fn check(&self, done: Self::Done) -> Outcome;

    /// Extra measurements of a traced round that need a run of their own
    /// (an un-armed twin, a bare fabric, a second job count). `untraced_s`
    /// is the wall time of this round's [`Workload::run`].
    fn round_extras(
        &self,
        _seed: u64,
        _untraced_s: f64,
        _reference: &Outcome,
        _ledger: &mut Ledger,
    ) -> Vec<Check> {
        Vec::new()
    }

    /// Stand-alone measurements of single calls, once per traced process.
    fn standalone(&self, _seed: u64, _ledger: &mut Ledger) -> Vec<Check> {
        Vec::new()
    }

    /// Checks too expensive, or too memory-hungry, to repeat after every
    /// timed phase: once per process, after peak memory has been read.
    fn final_checks(&self, _seed: u64) -> Vec<Check> {
        Vec::new()
    }
}

/// FNV-1a over `bytes`, continuing from `state`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |acc, &b| {
        (acc ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// FNV-1a offset basis: the `state` to start [`fnv1a`] from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_reports_medians_and_maps_spans_to_metrics() {
        let mut l = Ledger::default();
        for v in [3.0, 1.0, 2.0] {
            l.push("core.tick_s", v);
        }
        l.push_ratio("bench.jobs_speedup", 3.0, 2.0);
        l.push_ratio("core.cache_hit_ratio", 1.0, 0.0);
        assert_eq!(l.value("core.tick_s"), 2.0);
        assert_eq!(l.value("bench.jobs_speedup"), 1.5);
        assert_eq!(l.value("core.cache_hit_ratio"), 0.0);
        assert_eq!(l.value("trace.records"), 0.0, "absent reads 0");

        let mut t = Tracer::with_capacity(4);
        t.span("harness.run", |t| t.span("core.tick", |_| ()));
        let mut l = Ledger::default();
        l.push_spans(&t);
        assert_eq!(l.0.keys().copied().collect::<Vec<_>>(), ["core.tick_s"]);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }
}
