//! `eseries`: the whole E-series regenerated, the first user journey the
//! ROADMAP names. The experiments pin their own seeds, so `--seed` does not
//! change this workload's inputs.

use std::time::Instant;

use wavesim_bench::{experiments, Scale, Table};
use wavesim_core::{ProtocolKind, WaveConfig, WaveNetwork};
use wavesim_topology::Topology;
use wavesim_workloads::{TrafficConfig, TrafficSource};

use super::{fnv1a, Check, Ledger, Outcome, Workload, FNV_OFFSET};
use crate::metrics::EXPERIMENT_SPANS;
use crate::spans::{Off, Probe, Tracer};

pub struct Eseries {
    scale: Scale,
    /// Worker threads for the experiments that fan out.
    jobs: usize,
    /// Networks built per set-up sample and protocol.
    setup_networks: u32,
}

impl Eseries {
    pub fn new(smoke: bool) -> Self {
        let measure = if smoke { 300 } else { 600 };
        Eseries {
            scale: Scale {
                side: if smoke { 4 } else { 8 },
                measure,
                warmup: measure / 5,
                sweep_points: 3,
            },
            jobs: 2,
            setup_networks: if smoke { 8 } else { 64 },
        }
    }

    fn regenerate<P: Probe>(&self, jobs: usize, probe: &mut P) -> Vec<(&'static str, Vec<Table>)> {
        EXPERIMENT_SPANS
            .iter()
            .map(|&(id, span, _)| {
                let tables = probe.span(span, |_| {
                    experiments::run_by_id_with_jobs(id, self.scale, jobs)
                });
                (id, tables)
            })
            .collect()
    }
}

/// FNV-1a over every table's JSON, in experiment order.
fn tables_fingerprint(tables: &[(&'static str, Vec<Table>)]) -> u64 {
    tables
        .iter()
        .flat_map(|(_, ts)| ts)
        .fold(FNV_OFFSET, |acc, t| {
            fnv1a(acc, t.to_json().compact().as_bytes())
        })
}

impl Workload for Eseries {
    /// Nothing: the harness builds its networks inside the timed call.
    type Input = ();
    type Done = Vec<(&'static str, Vec<Table>)>;
    const OWN_DRIVER: bool = false;
    const SEEDED: bool = false;

    /// The E-series has no set-up of its own to time, so `setup_s` here is
    /// a stand-alone sample of the construction the journey performs
    /// hundreds of times: a network and its sources on the E-series mesh,
    /// for each protocol.
    fn setup<P: Probe>(&self, seed: u64, probe: &mut P) {
        let side = self.scale.side;
        for i in 0..self.setup_networks {
            for protocol in [
                ProtocolKind::WormholeOnly,
                ProtocolKind::Clrp,
                ProtocolKind::Carp,
            ] {
                let topo = probe.span("topology.new", |_| Topology::mesh(&[side, side]));
                let net = probe.span("core.new", |_| {
                    WaveNetwork::new(
                        topo.clone(),
                        WaveConfig {
                            protocol,
                            ..WaveConfig::default()
                        },
                    )
                });
                let src = probe.span("workloads.new", |_| {
                    TrafficSource::new(
                        topo,
                        TrafficConfig {
                            seed: seed.wrapping_add(u64::from(i)),
                            ..TrafficConfig::default()
                        },
                    )
                });
                std::hint::black_box((net, src));
            }
        }
    }

    fn run(&self, (): ()) -> Self::Done {
        self.regenerate(self.jobs, &mut Off)
    }

    fn run_probed<P: Probe>(&self, (): (), probe: &mut P) -> Self::Done {
        self.regenerate(self.jobs, probe)
    }

    fn layers(&self, _: &Self::Done, _: &Tracer, _: &mut Ledger) {}

    fn check(&self, done: Self::Done) -> Outcome {
        let expected = experiments::all_ids();
        let produced: Vec<&str> = done.iter().map(|(id, _)| *id).collect();
        let empty: Vec<&str> = done
            .iter()
            .filter(|(_, ts)| ts.is_empty() || ts.iter().any(|t| t.rows.is_empty()))
            .map(|(id, _)| *id)
            .collect();
        let checks = vec![
            Check::new(
                "the benchmark runs every experiment the harness lists",
                produced == expected,
                || format!("harness lists {expected:?}, benchmark ran {produced:?}"),
            ),
            Check::new("every experiment produced rows", empty.is_empty(), || {
                format!("no rows from {empty:?}")
            }),
        ];
        Outcome {
            fingerprint: tables_fingerprint(&done),
            attempted: expected.len() as u64,
            failed: empty.len() as u64,
            checks,
            ..Outcome::default()
        }
    }

    /// The second job count: what `jobs` buys, and that it changes no byte.
    fn round_extras(
        &self,
        _: u64,
        untraced_s: f64,
        reference: &Outcome,
        l: &mut Ledger,
    ) -> Vec<Check> {
        let t = Instant::now();
        let serial = self.regenerate(1, &mut Off);
        let serial_s = t.elapsed().as_secs_f64();
        l.push_ratio("bench.jobs_speedup", serial_s, untraced_s);
        let fp = tables_fingerprint(&serial);
        vec![Check::new(
            "table JSON is identical at jobs 1 and 2",
            fp == reference.fingerprint,
            || format!("jobs 1 gives {fp:#018x}"),
        )]
    }
}
