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
/// rows may use, and how their runs are observed.
pub struct Ctx<'a> {
    /// Experiment sizing.
    pub scale: Scale,
    jobs: usize,
    factory: Option<&'a ObserverFactory<'a>>,
    /// False inside every row but the last.
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
            // Nobody will export this run: let go of its ring now.
            obs.capture = None;
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

    /// Everything the context's runs left behind.
    #[must_use]
    pub fn into_observed(self) -> Observed {
        self.observed.into_inner()
    }
}

/// One table row: performs its point's runs under the context it is
/// handed and returns the row's cells. A row closes over its point and
/// reads nothing else, so rows can run in any order on any thread.
pub type Row = Box<dyn Fn(&Ctx) -> Vec<String> + Send + Sync>;

/// One row per point, each computing `point_row(ctx, point)`; a row
/// reads its scale from `ctx.scale`.
pub fn rows_of<P: Send + Sync + 'static>(
    points: impl IntoIterator<Item = P>,
    point_row: fn(&Ctx, &P) -> Vec<String>,
) -> Vec<Row> {
    points
        .into_iter()
        .map(|p| -> Row { Box::new(move |ctx| point_row(ctx, &p)) })
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
/// The rows of all of them form one [`ParallelSweep`] in serial order,
/// each row under its own child context on up to `jobs` worker threads.
/// A row derives everything from its own point, so the cells and the
/// observations — merged here in row order — are byte-identical for any
/// job count and any observers. Only the last row's runs may be exported.
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
    let rows: Vec<&Row> = exps.iter().flat_map(|(_, rows)| rows).collect();
    let (scale, factory, exported) = (ctx.scale, ctx.factory, ctx.exported);
    let last = rows.len().saturating_sub(1);
    let mut done = ParallelSweep::new(ctx.jobs)
        .run(&rows, |i, row| {
            let point = Ctx {
                scale,
                jobs: 1,
                factory,
                exported: exported && i == last,
                observed: RefCell::default(),
            };
            (row(&point), point.observed.into_inner())
        })
        .into_iter();
    let mut observed = ctx.observed.borrow_mut();
    exps.iter()
        .map(|(e, rows)| {
            let mut t = Table::new(&e.id.to_uppercase(), e.title, e.columns);
            for (cells, point) in done.by_ref().take(rows.len()) {
                observed.append(point);
                t.push(cells);
            }
            t
        })
        .collect()
}

/// Runs one experiment by id (`"e1"`..`"e15"`) unobserved and returns its
/// tables, fanning its rows out over `jobs` worker threads.
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
