//! # wavesim-bench — the experiment harness
//!
//! Deliverable (d): code that regenerates every evaluation result of the
//! paper. The IPPS'97 paper contains no measurement tables (its five
//! figures are architecture diagrams, reproduced structurally in the
//! library crates and asserted by unit tests); its quantitative content is
//! Theorems 1–4 plus performance claims carried from the companion
//! ICPP'96 study. EXPERIMENTS.md maps each claim to one experiment here:
//!
//! | id  | claim |
//! |-----|-------|
//! | E1  | Theorems 1–2: CLRP/CARP deadlock freedom under saturation |
//! | E2  | Theorems 3–4: livelock freedom, bounded probe work |
//! | E3  | ≥3× latency/throughput for long messages without reuse |
//! | E4  | short messages profit only through circuit reuse |
//! | E5  | CARP ≥ CLRP ≥ wormhole under temporal locality |
//! | E6  | replacement algorithm comparison (Replace field) |
//! | E7  | misrouting maximises setup probability (MB-m) |
//! | E8  | probe resilience to static faults |
//! | E9  | architecture sweep: k switches, clock ratio, w VCs |
//! | E10 | CLRP phase simplifications (§3.1 variants) |
//! | E11 | the saturation curve: latency & accepted vs offered load |
//! | E12 | ablations: switch staggering, window size, buffer sizing |
//! | E13 | closed-loop DSM request/reply round trips (a service run) |
//! | E14 | dynamic lane faults: fail/repair churn under load |
//! | E15 | dependency-gated collective replay under CLRP / CARP / MB-1 |
//!
//! Every experiment is a declared list of rows
//! ([`experiments::Experiment`]): each row is a few independent runs, each
//! a pure function of its own point, and [`experiments::run_all`] runs the
//! runs of every requested experiment through one [`ParallelSweep`] and
//! regroups their results into [`Table`]s. The `wavesim` CLI prints full-size runs (`--scale paper`)
//! or reduced ones (`--scale small`). Wall clock is measured from outside, by
//! wavebench (`benchmark/`); the one bench target here, `cycle_kernel`,
//! gates deterministic kernel work per simulated cycle.
//!
//! ## Driving and observing a run
//!
//! One loop, `runner::drive`, runs every simulation. It talks to two
//! things it is handed: a [`wavesim_workloads::Workload`] (which ops are
//! due at a cycle, what a delivery triggers) and a [`RunObserver`]
//! (whoever watches). Each `run_*` entry point only sets the stop cycles
//! and the deadline and builds its result: open loop ([`run_open_loop`];
//! [`run_open_loop_window`] stops it at the end of its measurement
//! window), CARP instruction trace ([`run_carp_trace`]; [`run_scripted`]
//! is the send-only case), dependency trace ([`run_dep_trace`]) and
//! closed loop ([`run_service`]):
//!
//! ```text
//!   Workload  <-- due / delivered --  drive  -- start / cycle / sample / finish -->  RunObserver
//!  (timing)                (apply_op, tick, tally, monitor)     () | Capture | Watchdog | BoardObserver
//! ```
//!
//! The three observers — [`tracecap::Capture`], [`watchdog::Watchdog`],
//! [`livestate::BoardObserver`] — are plain values: build one, pass it to
//! a `run_*` entry point, then ask it for what it captured. Each owns what
//! it arms on the network: a capture installs the run's one stream, and a
//! watchdog with a post-mortem path keeps the tail its bundle carries
//! (`WaveNetwork::keep_trace_tail`), so neither depends on the other. A
//! run's time series is not an observer of its own: it is
//! `wavesim-analyze`'s fold over the capture's records. [`Observers`] bundles them for the CLI, and an
//! experiment run's [`experiments::Ctx`] makes a fresh bundle for it, on
//! whichever sweep worker thread claims the run. There is no thread-local
//! or process-global state anywhere in this crate.

#![warn(missing_docs)]

pub mod experiments;
pub mod livestate;
pub mod metrics;
pub mod observers;
pub mod runner;
pub mod serve;
pub mod tracecap;
pub mod watchdog;

pub use observers::{Observed, Observers};
pub use runner::{
    apply_fault_schedule, apply_op, run_carp_trace, run_dep_trace, run_open_loop,
    run_open_loop_observed, run_open_loop_window, run_scripted, run_service, Drained,
    ParallelSweep, RunObserver, RunResult, RunSpec, ServiceResult, WindowResult,
};
pub use wavesim_json::table::Table;

/// Experiment sizing: `small` keeps tests and CI fast; `paper` is the
/// full-size run the CLI uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Side length of the (square 2-D) network.
    pub side: u16,
    /// Measurement window in cycles.
    pub measure: u64,
    /// Warm-up cycles before measurement.
    pub warmup: u64,
    /// Points per parameter sweep (sweeps truncate to this many values).
    pub sweep_points: usize,
}

/// The full scale.
impl Default for Scale {
    fn default() -> Self {
        Self::paper()
    }
}

impl Scale {
    /// Reduced scale for tests and CI.
    #[must_use]
    pub fn small() -> Self {
        Self {
            side: 4,
            measure: 4_000,
            warmup: 1_000,
            sweep_points: 3,
        }
    }

    /// Full scale for CLI runs (8×8, the era's standard evaluation size).
    #[must_use]
    pub fn paper() -> Self {
        Self {
            side: 8,
            measure: 30_000,
            warmup: 5_000,
            sweep_points: usize::MAX,
        }
    }

    /// Truncates a sweep to this scale's point budget (keeps endpoints
    /// when it must drop middles).
    #[must_use]
    pub fn sweep<T: Copy>(&self, full: &[T]) -> Vec<T> {
        if full.len() <= self.sweep_points {
            return full.to_vec();
        }
        let n = self.sweep_points.max(2);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let idx = i * (full.len() - 1) / (n - 1);
            out.push(full[idx]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_truncation_keeps_endpoints() {
        let s = Scale {
            sweep_points: 3,
            ..Scale::small()
        };
        let full = [1, 2, 3, 4, 5, 6, 7];
        let got = s.sweep(&full);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], 1);
        assert_eq!(*got.last().unwrap(), 7);
    }

    #[test]
    fn sweep_passthrough_when_small() {
        let s = Scale::paper();
        assert_eq!(s.sweep(&[1, 2, 3]), vec![1, 2, 3]);
    }
}
