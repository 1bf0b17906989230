//! The experiment suite (E1–E15). See the crate docs and EXPERIMENTS.md
//! for the claim-to-experiment mapping.

pub mod e10_variants;
pub mod e11_loadsweep;
pub mod e12_ablations;
pub mod e13_dsm;
pub mod e14_dynamic_faults;
pub mod e15_collectives;
pub mod e1_deadlock;
pub mod e2_livelock;
pub mod e3_msglen;
pub mod e4_reuse;
pub mod e5_locality;
pub mod e6_replacement;
pub mod e7_misroute;
pub mod e8_faults;
pub mod e9_arch;

use std::cell::RefCell;

use wavesim_core::{WaveConfig, WaveNetwork};
use wavesim_topology::Topology;
use wavesim_workloads::{LengthDist, TrafficConfig, TrafficPattern, TrafficSource};

use crate::observers::{Observed, Observers};
use crate::runner::{run_open_loop_observed, RunResult, RunSpec};
use crate::{ParallelSweep, RunObserver, Scale, Table};

/// Square 2-D mesh of the given side.
#[must_use]
pub fn mesh(side: u16) -> Topology {
    Topology::mesh(&[side, side])
}

/// A wave network with an explicit config on a square mesh.
#[must_use]
pub fn net_with(side: u16, cfg: WaveConfig) -> WaveNetwork {
    WaveNetwork::new(mesh(side), cfg)
}

/// Makes one run's observers. The argument says whether the run's capture
/// can be the one exported (it may be the last run in serial order):
/// only then may the factory attach on-disk streams, since runs for which
/// it is `false` can execute concurrently with others.
pub type ObserverFactory<'a> = dyn Fn(bool) -> Observers + Sync + 'a;

/// What an experiment runs under: its scale, how many worker threads its
/// sweep may use, and how its runs are observed.
pub struct Ctx<'a> {
    /// Experiment sizing.
    pub scale: Scale,
    jobs: usize,
    factory: Option<&'a ObserverFactory<'a>>,
    /// False inside every sweep point but the last.
    exported: bool,
    observed: RefCell<Observed>,
}

impl<'a> Ctx<'a> {
    /// A context whose runs nobody observes.
    #[must_use]
    pub fn unobserved(scale: Scale, jobs: usize) -> Self {
        Self {
            scale,
            jobs,
            factory: None,
            exported: true,
            observed: RefCell::default(),
        }
    }

    /// A context that observes every run with a fresh set from `factory`.
    #[must_use]
    pub fn observed(scale: Scale, jobs: usize, factory: &'a ObserverFactory<'a>) -> Self {
        Self {
            factory: Some(factory),
            ..Self::unobserved(scale, jobs)
        }
    }

    /// Performs one run — `run` calls a `run_*` entry point with the
    /// observer it is handed — and keeps what the observers captured.
    pub fn observe<R>(&self, run: impl FnOnce(&mut dyn RunObserver) -> R) -> R {
        let Some(factory) = self.factory else {
            return run(&mut ());
        };
        let mut obs = factory(self.exported);
        let r = run(&mut obs);
        if !self.exported {
            // Nobody will export this run: let go of its ring and series now.
            (obs.capture, obs.sampler) = (None, None);
        }
        self.observed.borrow_mut().push(obs);
        r
    }

    /// One open-loop run of `net` over the scale's warm-up and measurement
    /// window, under `load` flits/node/cycle of `pattern` traffic.
    pub fn open_loop(
        &self,
        net: &mut WaveNetwork,
        load: f64,
        pattern: TrafficPattern,
        len: LengthDist,
        seed: u64,
    ) -> RunResult {
        let cfg = TrafficConfig {
            load,
            pattern,
            len,
            seed,
            stop_at: u64::MAX,
        };
        let mut src = TrafficSource::new(net.topology().clone(), cfg);
        let spec = RunSpec::standard(self.scale.warmup, self.scale.measure);
        self.observe(|obs| run_open_loop_observed(net, &mut src, spec, obs))
    }

    /// Maps `f` over sweep `points` on up to `jobs` worker threads, each
    /// point under its own child context, and returns the results in
    /// point order. `f` must derive everything from its point alone (see
    /// [`ParallelSweep`]); then results and observations — merged here in
    /// point order — are identical for every job count.
    pub fn sweep<P, R, F>(&self, points: &[P], f: F) -> Vec<R>
    where
        P: Sync,
        R: Send,
        F: Fn(&Ctx<'a>, &P) -> R + Sync,
    {
        let (scale, factory, exported) = (self.scale, self.factory, self.exported);
        let last = points.len().saturating_sub(1);
        let done = ParallelSweep::new(self.jobs).run(points, |i, p| {
            let point = Ctx {
                scale,
                jobs: 1,
                factory,
                exported: exported && i == last,
                observed: RefCell::default(),
            };
            let r = f(&point, p);
            (r, point.observed.into_inner())
        });
        let mut observed = self.observed.borrow_mut();
        done.into_iter()
            .map(|(r, point)| {
                observed.append(point);
                r
            })
            .collect()
    }

    /// Everything the context's runs left behind.
    #[must_use]
    pub fn into_observed(self) -> Observed {
        self.observed.into_inner()
    }
}

/// Runs one experiment by id (`"e1"`..`"e15"`) unobserved and returns its
/// tables, fanning sweep points out over `jobs` worker threads where the
/// experiment has a sweep (the E11 load sweep, the E13 locality sweep,
/// the E14 MTBF sweep, and the E15 collective grid).
///
/// # Panics
/// Panics on an unknown id.
#[must_use]
pub fn run_by_id_with_jobs(id: &str, scale: Scale, jobs: usize) -> Vec<Table> {
    run(id, &Ctx::unobserved(scale, jobs))
}

/// Runs one experiment by id under `ctx`. Results are merged in point
/// order and are byte-identical for any job count and any observers.
///
/// # Panics
/// Panics on an unknown id.
#[must_use]
pub fn run(id: &str, ctx: &Ctx) -> Vec<Table> {
    let run = match id {
        "e1" => e1_deadlock::run,
        "e2" => e2_livelock::run,
        "e3" => e3_msglen::run,
        "e4" => e4_reuse::run,
        "e5" => e5_locality::run,
        "e6" => e6_replacement::run,
        "e7" => e7_misroute::run,
        "e8" => e8_faults::run,
        "e9" => e9_arch::run,
        "e10" => e10_variants::run,
        "e11" => e11_loadsweep::run,
        "e12" => e12_ablations::run,
        "e13" => e13_dsm::run,
        "e14" => e14_dynamic_faults::run,
        "e15" => e15_collectives::run,
        other => panic!("unknown experiment id {other:?} (use e1..e15)"),
    };
    vec![run(ctx)]
}

/// All experiment ids, in order.
#[must_use]
pub fn all_ids() -> Vec<&'static str> {
    vec![
        "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14",
        "e15",
    ]
}
