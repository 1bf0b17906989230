//! The four simulation workloads: open-loop Bernoulli sources driving a
//! wave-switched torus until the measurement window closes and the network
//! has drained. `HotPairs { partners: 3, locality: 0.7 }`, 64-flit
//! messages, `WaveConfig::default()` but for the protocol; circuit caches
//! start empty.

use std::path::{Path, PathBuf};
use std::time::Instant;

use wavesim_bench::{run_open_loop, RunResult, RunSpec};
use wavesim_core::{ProtocolKind, WaveConfig, WaveNetwork};
use wavesim_network::message::DeliveryMode;
use wavesim_network::{Delivery, WormholeFabric};
use wavesim_sim::stats::{Histogram, ThroughputMeter, Warmup};
use wavesim_sim::{Cycle, EventQueue, SimRng};
use wavesim_topology::{NodeId, Topology};
use wavesim_trace::ColumnarSink;
use wavesim_verify::progress::wave_fingerprint;
use wavesim_verify::{check_probe_livelock, ProgressMonitor};
use wavesim_workloads::{LengthDist, TrafficConfig, TrafficPattern, TrafficSource};

use super::{fnv1a, Check, Ledger, Outcome, Workload, FNV_OFFSET};
use crate::spans::{Off, Probe, Tracer};

/// One simulation workload.
pub struct Sim {
    /// Side of the 2-D torus.
    pub side: u16,
    pub protocol: ProtocolKind,
    /// Offered load, flits per node per cycle.
    pub load: f64,
    /// Measurement window in cycles; the warm-up is an eighth of it.
    pub measure: Cycle,
    /// Stream an unsampled WSTRACE1 capture to this file during the run.
    pub capture: Option<PathBuf>,
    /// Also drive the same messages through a bare `WormholeFabric`.
    pub bare_fabric: bool,
}

impl Sim {
    pub fn sat_clrp(smoke: bool) -> Self {
        Sim {
            side: if smoke { 16 } else { 32 },
            protocol: ProtocolKind::Clrp,
            load: 0.8,
            measure: if smoke { 150 } else { 300 },
            capture: None,
            bare_fabric: false,
        }
    }

    pub fn flow_wh(smoke: bool) -> Self {
        Sim {
            side: if smoke { 16 } else { 32 },
            protocol: ProtocolKind::WormholeOnly,
            load: 0.04,
            measure: if smoke { 4_000 } else { 8_000 },
            capture: None,
            bare_fabric: true,
        }
    }

    pub fn probe_clrp(smoke: bool) -> Self {
        Sim {
            side: if smoke { 16 } else { 32 },
            protocol: ProtocolKind::Clrp,
            load: 0.05,
            measure: if smoke { 6_000 } else { 12_000 },
            capture: None,
            bare_fabric: false,
        }
    }

    /// `capture_clrp`; without a capture file it is the configuration
    /// whose trace `analyze_trace` analyses.
    pub fn capture_clrp(smoke: bool, capture: Option<PathBuf>) -> Self {
        Sim {
            side: if smoke { 8 } else { 16 },
            protocol: ProtocolKind::Clrp,
            load: 0.3,
            measure: if smoke { 4_000 } else { 8_000 },
            capture,
            bare_fabric: false,
        }
    }

    fn spec(&self) -> RunSpec {
        RunSpec::standard(self.measure / 8, self.measure)
    }

    /// Network and sources, without a trace sink.
    pub fn build<P: Probe>(&self, seed: u64, probe: &mut P) -> (WaveNetwork, TrafficSource) {
        let topo = probe.span("topology.new", |_| Topology::torus(&[self.side, self.side]));
        let net = probe.span("core.new", |_| {
            WaveNetwork::new(
                topo.clone(),
                WaveConfig {
                    protocol: self.protocol,
                    ..WaveConfig::default()
                },
            )
        });
        let src = probe.span("workloads.new", |_| {
            TrafficSource::new(
                topo,
                TrafficConfig {
                    load: self.load,
                    pattern: TrafficPattern::HotPairs {
                        partners: 3,
                        locality: 0.7,
                    },
                    len: LengthDist::Fixed(64),
                    seed,
                    ..TrafficConfig::default()
                },
            )
        });
        (net, src)
    }
}

pub struct SimInput {
    net: WaveNetwork,
    src: TrafficSource,
}

pub struct SimDone {
    net: WaveNetwork,
    result: RunResult,
    audit: Vec<String>,
    /// Messages the sources generated.
    generated: u64,
    /// Passes through the cycle loop (0 when the simulator's own driver
    /// ran it): below `result.end` by the idle cycles skipped.
    loop_passes: u64,
    /// Records the capture sink took, and whether it finished cleanly.
    capture: Option<(u64, Result<(), String>)>,
}

/// Drains the capture's writer thread. A user cannot read the file before
/// this, so it belongs to the timed phase.
fn finish_capture<P: Probe>(
    net: &mut WaveNetwork,
    probe: &mut P,
) -> Option<(u64, Result<(), String>)> {
    let mut sink = net.take_trace_sink()?;
    let finished = probe.span("trace.finish", |_| sink.finish());
    Some((sink.total(), finished))
}

/// `wavesim_bench::drive_loop` with `run_open_loop`'s driver and tally,
/// over public calls only: poll, send, tick, drain, tally, monitor every 64
/// cycles, fast-forward while draining. Must return what `run_open_loop`
/// returns, bit for bit.
fn drive<P: Probe>(
    net: &mut WaveNetwork,
    src: &mut TrafficSource,
    spec: RunSpec,
    probe: &mut P,
) -> (RunResult, u64) {
    let measure_end = spec.warmup + spec.measure;
    let deadline = measure_end + spec.drain_limit;
    src.stop_at(measure_end);

    let warmup = Warmup::new(spec.warmup);
    let mut latency = Histogram::new();
    let mut meter = ThroughputMeter::new(u64::from(net.topology().num_nodes()), warmup);
    let (mut delivered, mut measured, mut circuit_msgs) = (0u64, 0u64, 0u64);
    let mut batch: Vec<Delivery> = Vec::new();

    let mut monitor = ProgressMonitor::new(spec.stall_threshold);
    let mut now: Cycle = 0;
    let mut passes = 0u64;
    let stalled = loop {
        probe.at_cycle(now);
        let active = now < measure_end;
        if active {
            let msgs = probe.span("workloads.poll", |_| src.poll(now));
            probe.span("core.send", |_| {
                for m in msgs {
                    net.send(now, m);
                }
            });
        } else if !net.busy() || now >= deadline {
            break false;
        }
        passes += 1;
        probe.span("core.tick", |_| net.tick(now));
        probe.span("core.drain", |_| net.drain_deliveries_into(&mut batch));
        probe.span("sim.tally", |_| {
            for d in &batch {
                delivered += 1;
                if warmup.open(d.msg.created_at) {
                    latency.record(d.latency());
                    measured += 1;
                    if d.mode == DeliveryMode::Circuit {
                        circuit_msgs += 1;
                    }
                }
                if d.delivered_at < measure_end {
                    meter.record(d.delivered_at, u64::from(d.msg.len_flits));
                }
            }
        });
        if now.is_multiple_of(64) {
            let stall = probe.span("verify.monitor", |_| {
                monitor.observe(now, wave_fingerprint(net), net.busy())
            });
            if stall.is_some() {
                break true;
            }
        }
        now = if active {
            now + 1
        } else {
            probe
                .span("core.next_activity", |_| net.next_activity(now))
                .unwrap_or(now + 1)
        };
    };
    probe.at_cycle(u64::MAX);

    let live = probe.span("verify.livelock_check", |_| check_probe_livelock(net));
    let result = RunResult {
        sent: src.generated(),
        delivered,
        avg_latency: latency.mean(),
        p99_latency: latency.quantile_bound(0.99),
        throughput: meter.rate(measure_end.min(now)),
        circuit_fraction: if measured == 0 {
            0.0
        } else {
            circuit_msgs as f64 / measured as f64
        },
        wave: net.stats(),
        end: now,
        drained: !net.busy(),
        stalled,
        max_probe_steps: live.max_probe_steps,
        probe_step_bound: live.bound,
    };
    (result, passes)
}

impl Workload for Sim {
    type Input = SimInput;
    type Done = SimDone;
    const OWN_DRIVER: bool = true;
    const SEEDED: bool = true;

    fn setup<P: Probe>(&self, seed: u64, probe: &mut P) -> SimInput {
        let (mut net, src) = self.build(seed, probe);
        if let Some(path) = &self.capture {
            let sink = ColumnarSink::create(path)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
            net.install_trace_sink(Box::new(sink));
        }
        SimInput { net, src }
    }

    fn run(&self, input: SimInput) -> SimDone {
        let SimInput { mut net, mut src } = input;
        let result = run_open_loop(&mut net, &mut src, self.spec());
        let capture = finish_capture(&mut net, &mut Off);
        let audit = net.audit();
        SimDone {
            generated: src.generated(),
            net,
            result,
            audit,
            loop_passes: 0,
            capture,
        }
    }

    fn run_probed<P: Probe>(&self, input: SimInput, probe: &mut P) -> SimDone {
        let SimInput { mut net, mut src } = input;
        let (result, loop_passes) = drive(&mut net, &mut src, self.spec(), probe);
        let capture = finish_capture(&mut net, probe);
        let audit = probe.span("verify.audit", |_| net.audit());
        SimDone {
            generated: src.generated(),
            net,
            result,
            audit,
            loop_passes,
            capture,
        }
    }

    fn layers(&self, done: &SimDone, tracer: &Tracer, l: &mut Ledger) {
        let fabric = done.net.fabric();
        let kernel = done.net.kernel_stats();
        let fstats = fabric.stats();
        let wave = done.net.stats();
        let scan_s = fabric.shard_wall_ns().iter().sum::<u64>() as f64 / 1e9;
        let tick_s = tracer.total_s("core.tick");
        let tick_rest_s = (tick_s - scan_s).max(0.0);
        let probe_steps = wave.probe_hops + wave.probe_backtracks + wave.probe_misroutes;

        l.push("workloads.msgs_generated", done.generated as f64);
        l.push("network.scan_s", scan_s);
        l.push("network.ticks", kernel.ticks as f64);
        l.push("network.routers_scanned", kernel.routers_scanned as f64);
        l.push("network.vcs_touched", kernel.vcs_touched as f64);
        l.push("network.flit_hops", fstats.flit_hops as f64);
        l.push("network.va_allocs", fstats.va_allocs as f64);
        l.push("network.routers_per_tick", kernel.routers_per_tick());
        l.push_ratio(
            "network.vc_visits_per_flit_hop",
            kernel.vcs_touched as f64,
            fstats.flit_hops as f64,
        );
        l.push_ratio(
            "network.ns_per_vc_visit",
            scan_s * 1e9,
            kernel.vcs_touched as f64,
        );
        l.push("core.tick_rest_s", tick_rest_s);
        l.push("core.events_routed", kernel.events_routed as f64);
        l.push("core.probes_sent", wave.probes_sent as f64);
        l.push("core.probe_steps", probe_steps as f64);
        l.push_ratio(
            "core.ns_per_probe_step",
            tick_rest_s * 1e9,
            probe_steps as f64,
        );
        l.push("core.probe_reach_ratio", wave.probe_success_rate());
        l.push("core.setup_success_ratio", wave.setup_success_rate());
        l.push("core.cache_hit_ratio", wave.hit_rate());
        l.push_ratio(
            "core.circuit_msg_ratio",
            wave.msgs_circuit as f64,
            (wave.msgs_circuit + wave.msgs_wormhole) as f64,
        );
        l.push(
            "core.forced_releases",
            (wave.forced_local_releases + wave.forced_remote_releases) as f64,
        );
        l.push("core.wormhole_fallbacks", wave.wormhole_fallbacks as f64);
        l.push(
            "core.cycles_skipped_ratio",
            1.0 - done.loop_passes as f64 / done.result.end.max(1) as f64,
        );
        if let (Some((records, _)), Some(path)) = (&done.capture, &self.capture) {
            let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
            l.push("trace.records", *records as f64);
            l.push_ratio("trace.bytes_per_record", bytes as f64, *records as f64);
        }
    }

    fn check(&self, done: SimDone) -> Outcome {
        let r = &done.result;
        let mut checks = vec![
            Check::new("run is clean", r.clean(), || format!("{r:?}")),
            Check::new("audit is empty", done.audit.is_empty(), || {
                done.audit.join("; ")
            }),
        ];
        if let Some((records, finished)) = &done.capture {
            checks.push(Check::new(
                "capture finished and is not empty",
                finished.is_ok() && *records > 0,
                || format!("{records} records, finish: {finished:?}"),
            ));
        }
        Outcome {
            fingerprint: fnv1a(FNV_OFFSET, format!("{r:?}").as_bytes()),
            attempted: r.sent,
            failed: r.sent.saturating_sub(r.delivered),
            checks,
            sim_cycles: Some(r.end),
            records: None,
            sim_latency_cycles: Some(r.avg_latency),
            sim_accepted_load: Some(r.throughput),
        }
    }

    fn round_extras(
        &self,
        seed: u64,
        untraced_s: f64,
        reference: &Outcome,
        l: &mut Ledger,
    ) -> Vec<Check> {
        let mut checks = Vec::new();
        if self.capture.is_some() {
            // The un-armed twin, back to back with the armed run: same
            // inputs, no sink. An armed hub must not change the simulation.
            let (mut net, mut src) = self.build(seed, &mut Off);
            let t = Instant::now();
            let twin = run_open_loop(&mut net, &mut src, self.spec());
            let unarmed_s = t.elapsed().as_secs_f64();
            l.push_ratio(
                "trace.capture_overhead_ratio",
                untraced_s - unarmed_s,
                unarmed_s,
            );
            let fp = fnv1a(FNV_OFFSET, format!("{twin:?}").as_bytes());
            checks.push(Check::new(
                "armed capture leaves the simulation unchanged",
                fp == reference.fingerprint,
                || format!("un-armed twin {fp:#018x}"),
            ));
        }
        if self.bare_fabric {
            checks.push(self.bare_fabric_round(seed, l));
        }
        checks
    }

    fn standalone(&self, seed: u64, l: &mut Ledger) -> Vec<Check> {
        let (net, _) = self.build(seed, &mut Off);
        l.push("topology.route_ns_per_call", route_ns_per_call(&net, seed));
        l.push("sim.evq_ns_per_op", evq_ns_per_op(seed));
        Vec::new()
    }

    fn final_checks(&self, _seed: u64) -> Vec<Check> {
        match &self.capture {
            Some(path) => vec![reencode_check(path)],
            None => Vec::new(),
        }
    }
}

impl Sim {
    /// The workload's message stream through a bare `WormholeFabric`:
    /// what the fabric costs with no wave-switching planes above it.
    fn bare_fabric_round(&self, seed: u64, l: &mut Ledger) -> Check {
        let (net, mut src) = self.build(seed, &mut Off);
        let mut fabric = WormholeFabric::new(net.topology().clone(), net.config().wormhole);
        let spec = self.spec();
        let measure_end = spec.warmup + spec.measure;
        let deadline = measure_end + spec.drain_limit;
        src.stop_at(measure_end);
        let mut batch = Vec::new();
        let (mut delivered, mut tick_ns) = (0u64, 0u64);
        let mut now: Cycle = 0;
        while now < measure_end || (fabric.busy() && now < deadline) {
            for m in src.poll(now) {
                fabric.inject(m);
            }
            // Like the wave network's data plane, skip an idle fabric.
            if fabric.busy() {
                let t = Instant::now();
                fabric.tick(now);
                tick_ns += t.elapsed().as_nanos() as u64;
                fabric.drain_deliveries_into(&mut batch);
                delivered += batch.len() as u64;
            }
            now += 1;
        }
        l.push("network.bare_tick_s", tick_ns as f64 / 1e9);
        l.push_ratio(
            "network.bare_ns_per_flit_hop",
            tick_ns as f64,
            fabric.stats().flit_hops as f64,
        );
        Check::new(
            "bare fabric delivers every message",
            delivered == src.generated() && !fabric.busy(),
            || format!("{delivered} of {} delivered", src.generated()),
        )
    }
}

/// Stand-alone cost of the fabric's routing function: one million
/// `(current, dest)` pairs on the workload's torus.
fn route_ns_per_call(net: &WaveNetwork, seed: u64) -> f64 {
    const CALLS: usize = 1_000_000;
    let topo = net.topology();
    let routing = net.fabric().routing();
    let mut rng = SimRng::new(seed);
    let nodes = u64::from(topo.num_nodes());
    let pairs: Vec<(NodeId, NodeId)> = (0..4096)
        .map(|_| {
            let a = rng.below(nodes);
            let b = (a + 1 + rng.below(nodes - 1)) % nodes;
            (NodeId(a as u32), NodeId(b as u32))
        })
        .collect();
    let mut out = Vec::with_capacity(16);
    let mut candidates = 0usize;
    let t = Instant::now();
    for &(current, dest) in pairs.iter().cycle().take(CALLS) {
        out.clear();
        routing.route(topo, current, dest, std::hint::black_box(&mut out));
        candidates += out.len();
    }
    let ns = t.elapsed().as_nanos() as f64;
    std::hint::black_box(candidates);
    ns / CALLS as f64
}

/// Stand-alone cost of one `EventQueue` operation with 10k events pending:
/// pop the earliest, schedule a replacement.
fn evq_ns_per_op(seed: u64) -> f64 {
    const PENDING: u64 = 10_000;
    const ROUNDS: u64 = 500_000;
    let mut rng = SimRng::new(seed);
    let mut q: EventQueue<u64> = EventQueue::with_capacity(PENDING as usize + 1);
    for i in 0..PENDING {
        q.schedule(rng.below(PENDING), i);
    }
    let mut sum = 0u64;
    let t = Instant::now();
    for _ in 0..ROUNDS {
        let ev = q.pop_due(u64::MAX).expect("queue stays at 10k pending");
        sum = sum.wrapping_add(ev.event);
        q.schedule(ev.at + 1 + rng.below(PENDING), ev.event);
    }
    let ns = t.elapsed().as_nanos() as f64;
    std::hint::black_box(sum);
    ns / (2 * ROUNDS) as f64
}

/// The capture file must decode and re-encode to its own bytes.
fn reencode_check(path: &Path) -> Check {
    match std::fs::read(path) {
        Ok(bytes) => super::analyze::reencode_check(&bytes),
        Err(e) => Check::new("capture file is readable", false, || {
            format!("{}: {e}", path.display())
        }),
    }
}
