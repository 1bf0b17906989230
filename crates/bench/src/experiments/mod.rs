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

use std::any::Any;
use std::cell::RefCell;

use wavesim_core::{WaveConfig, WaveNetwork};
use wavesim_topology::Topology;
use wavesim_workloads::{LengthDist, TrafficConfig, TrafficPattern, TrafficSource};

use crate::observers::{Observed, Observers};
use crate::runner::{
    run_open_loop_observed, run_open_loop_window, RunResult, RunSpec, WindowResult,
};
use crate::{ParallelSweep, RunObserver, Scale, Table};

/// A wave network with an explicit config on a square 2-D mesh.
#[must_use]
pub fn net_with(side: u16, cfg: WaveConfig) -> WaveNetwork {
    WaveNetwork::new(Topology::mesh(&[side, side]), cfg)
}

/// Makes one run's observers. The argument says whether the run's capture
/// can be the one exported (it may be the last run in serial order):
/// only then may the factory attach on-disk streams, since runs for which
/// it is `false` can execute concurrently with others.
pub type ObserverFactory<'a> = dyn Fn(bool) -> Observers + Sync + 'a;

/// What experiments run under: their scale, how many worker threads their
/// runs may use, and how their runs are observed.
pub struct Ctx<'a> {
    /// Experiment sizing.
    pub scale: Scale,
    jobs: usize,
    factory: Option<&'a ObserverFactory<'a>>,
    /// False inside every run but the last.
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
        self.observed.borrow_mut().push(obs);
        r
    }

    /// One open-loop run of `net` over the scale's warm-up and measurement
    /// window, under `load` flits/node/cycle of `pattern` traffic, drained
    /// to empty.
    pub fn open_loop(
        &self,
        net: &mut WaveNetwork,
        load: f64,
        pattern: TrafficPattern,
        len: LengthDist,
        seed: u64,
    ) -> RunResult {
        self.open_loop_by(net, load, pattern, len, seed, run_open_loop_observed)
    }

    /// The run of [`Ctx::open_loop`] stopped at the end of its measurement
    /// window: for cells that read only windowed throughput.
    pub fn open_loop_window(
        &self,
        net: &mut WaveNetwork,
        load: f64,
        pattern: TrafficPattern,
        len: LengthDist,
        seed: u64,
    ) -> WindowResult {
        self.open_loop_by(net, load, pattern, len, seed, run_open_loop_window)
    }

    /// One observed open-loop run over the scale's window, performed by
    /// the runner entry point `run`.
    fn open_loop_by<R>(
        &self,
        net: &mut WaveNetwork,
        load: f64,
        pattern: TrafficPattern,
        len: LengthDist,
        seed: u64,
        run: fn(&mut WaveNetwork, &mut TrafficSource, RunSpec, &mut dyn RunObserver) -> R,
    ) -> R {
        let cfg = TrafficConfig {
            load,
            pattern,
            len,
            seed,
        };
        let mut src = TrafficSource::new(net.topology().clone(), cfg);
        let spec = RunSpec::standard(self.scale.warmup, self.scale.measure);
        self.observe(|obs| run(net, &mut src, spec, obs))
    }

    /// Everything the context's runs left behind.
    #[must_use]
    pub fn into_observed(self) -> Observed {
        self.observed.into_inner()
    }
}

/// What one run hands back to its row, whatever the row's result type.
type Outcome = Box<dyn Any + Send>;

/// Performs one of a row's runs, by its index.
type RunFn = dyn Fn(&Ctx, usize) -> Outcome + Send + Sync;

/// Turns a row's run results, in run order, into its cells.
type CellsFn = dyn Fn(Vec<Outcome>) -> Vec<String> + Send + Sync;

/// The next `N` outcomes, each unboxed as a `T`.
fn results<T: 'static, const N: usize>(outcomes: &mut impl Iterator<Item = Outcome>) -> [T; N] {
    std::array::from_fn(|_| {
        *outcomes
            .next()
            .and_then(|o| o.downcast::<T>().ok())
            .expect("run_all hands a row one result per run, of its runs' type")
    })
}

/// One table row: the independent runs its cells are computed from.
///
/// A run closes over its row's point and reads nothing else, so the runs
/// of every row can execute in any order on any thread; [`run_all`]
/// schedules runs, not rows, and hands the results back to the row in
/// its run order.
pub struct Row {
    runs: usize,
    run: Box<RunFn>,
    cells: Box<CellsFn>,
}

impl Row {
    /// A row with one run per entry of `runs`: `run(ctx, q)` performs the
    /// run for `q` under the context it is handed, and `cells` turns the
    /// results, in `runs` order, into the row's cells.
    pub fn new<Q, T, const N: usize>(
        runs: [Q; N],
        run: impl Fn(&Ctx, &Q) -> T + Send + Sync + 'static,
        cells: impl Fn([T; N]) -> Vec<String> + Send + Sync + 'static,
    ) -> Self
    where
        Q: Send + Sync + 'static,
        T: Send + 'static,
    {
        Self {
            runs: N,
            run: Box::new(move |ctx: &Ctx, i: usize| -> Outcome { Box::new(run(ctx, &runs[i])) }),
            cells: Box::new(move |outcomes| cells(results(&mut outcomes.into_iter()))),
        }
    }

    /// A row whose runs come in two lists with different result types
    /// (drained runs and window runs, say): every run of `first`, then
    /// every run of `second`. `cells` gets each list's results in its
    /// order.
    pub fn split<Q, T, const N: usize, P, U, const M: usize>(
        (first, run_first): ([Q; N], impl Fn(&Ctx, &Q) -> T + Send + Sync + 'static),
        (second, run_second): ([P; M], impl Fn(&Ctx, &P) -> U + Send + Sync + 'static),
        cells: impl Fn([T; N], [U; M]) -> Vec<String> + Send + Sync + 'static,
    ) -> Self
    where
        Q: Send + Sync + 'static,
        T: Send + 'static,
        P: Send + Sync + 'static,
        U: Send + 'static,
    {
        Self {
            runs: N + M,
            run: Box::new(move |ctx: &Ctx, i: usize| -> Outcome {
                match i.checked_sub(N) {
                    None => Box::new(run_first(ctx, &first[i])),
                    Some(j) => Box::new(run_second(ctx, &second[j])),
                }
            }),
            cells: Box::new(move |outcomes| {
                let mut outcomes = outcomes.into_iter();
                let first = results(&mut outcomes);
                cells(first, results(&mut outcomes))
            }),
        }
    }

    /// A row of one run that computes the row's cells itself.
    pub fn single(run: impl Fn(&Ctx) -> Vec<String> + Send + Sync + 'static) -> Self {
        Self::new([()], move |ctx, ()| run(ctx), |[cells]| cells)
    }
}

/// One single-run row per point, each computing `point_row(ctx, point)`;
/// a row reads its scale from `ctx.scale`.
pub fn rows_of<P: Send + Sync + 'static>(
    points: impl IntoIterator<Item = P>,
    point_row: fn(&Ctx, &P) -> Vec<String>,
) -> Vec<Row> {
    points
        .into_iter()
        .map(|p| Row::single(move |ctx| point_row(ctx, &p)))
        .collect()
}

/// One experiment: its table's heading and the rows a scale asks for.
pub struct Experiment {
    /// Command-line id (`"e1"`); the table's id is its upper case.
    pub id: &'static str,
    /// Table title.
    pub title: &'static str,
    /// Column headers.
    pub columns: &'static [&'static str],
    /// The table's rows at a scale, in table order.
    pub rows: fn(Scale) -> Vec<Row>,
}

/// The experiment suite, in order.
pub const EXPERIMENTS: [Experiment; 15] = [
    e1_deadlock::E1,
    e2_livelock::E2,
    e3_msglen::E3,
    e4_reuse::E4,
    e5_locality::E5,
    e6_replacement::E6,
    e7_misroute::E7,
    e8_faults::E8,
    e9_arch::E9,
    e10_variants::E10,
    e11_loadsweep::E11,
    e12_ablations::E12,
    e13_dsm::E13,
    e14_dynamic_faults::E14,
    e15_collectives::E15,
];

/// Runs the experiments `ids` under `ctx` and returns one table each.
///
/// The runs of all their rows form one [`ParallelSweep`] in serial order:
/// up to `jobs` workers claim them one run at a time, each run under its
/// own child context. A run derives everything from its own point, so the
/// cells and the observations — merged here in run order — are
/// byte-identical for any job count and any observers. Only the last
/// run's capture may be exported.
///
/// # Panics
/// Panics on an unknown id.
#[must_use]
pub fn run_all(ids: &[&str], ctx: &Ctx) -> Vec<Table> {
    let exps: Vec<(&Experiment, Vec<Row>)> = ids
        .iter()
        .map(|&id| {
            let e = EXPERIMENTS.iter().find(|e| e.id == id);
            let e = e.unwrap_or_else(|| panic!("unknown experiment id {id:?} (use e1..e15)"));
            (e, (e.rows)(ctx.scale))
        })
        .collect();
    let runs: Vec<(&Row, usize)> = exps
        .iter()
        .flat_map(|(_, rows)| rows)
        .flat_map(|row| (0..row.runs).map(move |i| (row, i)))
        .collect();
    let (scale, factory, exported) = (ctx.scale, ctx.factory, ctx.exported);
    let last = runs.len().saturating_sub(1);
    let mut done = ParallelSweep::new(ctx.jobs)
        .run(&runs, |k, &(row, i)| {
            let child = Ctx {
                scale,
                jobs: 1,
                factory,
                exported: exported && k == last,
                observed: RefCell::default(),
            };
            ((row.run)(&child, i), child.observed.into_inner())
        })
        .into_iter();
    let mut observed = ctx.observed.borrow_mut();
    exps.iter()
        .map(|(e, rows)| {
            let mut t = Table::new(&e.id.to_uppercase(), e.title, e.columns);
            for row in rows {
                let outcomes = done.by_ref().take(row.runs).map(|(outcome, run)| {
                    observed.append(run);
                    outcome
                });
                t.push((row.cells)(outcomes.collect()));
            }
            t
        })
        .collect()
}

/// Runs one experiment by id (`"e1"`..`"e15"`) unobserved and returns its
/// tables, fanning its runs out over `jobs` worker threads.
///
/// # Panics
/// Panics on an unknown id.
#[must_use]
pub fn run_by_id_with_jobs(id: &str, scale: Scale, jobs: usize) -> Vec<Table> {
    run(id, &Ctx::unobserved(scale, jobs))
}

/// Runs one experiment by id under `ctx` (see [`run_all`]).
///
/// # Panics
/// Panics on an unknown id.
#[must_use]
pub fn run(id: &str, ctx: &Ctx) -> Vec<Table> {
    run_all(&[id], ctx)
}

/// All experiment ids, in order.
#[must_use]
pub fn all_ids() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|e| e.id).collect()
}

/// One experiment's table at `scale`, unobserved, on `jobs` threads.
#[cfg(test)]
fn table(id: &str, scale: Scale, jobs: usize) -> Table {
    run(id, &Ctx::unobserved(scale, jobs)).remove(0)
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;

    /// Every E11 row is two runs, wormhole then CLRP. Each is its own
    /// sweep item with its own observers, and only the sweep's last run
    /// (CLRP at the heaviest load) may be exported.
    #[test]
    fn each_run_is_observed_once_and_only_the_last_is_exported() {
        let scale = Scale {
            sweep_points: 2,
            ..Scale::small()
        };
        for jobs in [1, 2] {
            let (runs, exported) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let factory = |e: bool| {
                runs.fetch_add(1, Ordering::Relaxed);
                exported.fetch_add(usize::from(e), Ordering::Relaxed);
                Observers::default()
            };
            let t = run("e11", &Ctx::observed(scale, jobs, &factory)).remove(0);
            assert_eq!(t.rows, table("e11", scale, 1).rows);
            assert_eq!(runs.load(Ordering::Relaxed), 2 * t.rows.len());
            assert_eq!(exported.load(Ordering::Relaxed), 1, "--jobs {jobs}");
        }
    }
}
