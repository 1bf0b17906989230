//! Collective-communication stress: total exchange (all-to-all) has zero
//! temporal locality — the regime where §3.2 says the compiler should
//! emit *no* circuits. Verify (a) the trace shape matches that judgement,
//! (b) the pattern drains deadlock-free on both transports, and (c) CLRP
//! survives the pathological case where it tries to cache circuits for
//! one-shot destinations anyway.

use wavesim::core::{ProtocolKind, WaveConfig, WaveNetwork};
use wavesim::topology::Topology;
use wavesim::verify::check_probe_livelock;
use wavesim::workloads::CarpTrace;
use wavesim_bench::{run_carp_trace, RunSpec};

#[test]
fn total_exchange_drains_on_wormhole() {
    let topo = Topology::mesh(&[6, 6]);
    let mut net = WaveNetwork::new(
        topo.clone(),
        WaveConfig {
            protocol: ProtocolKind::WormholeOnly,
            ..WaveConfig::default()
        },
    );
    let mut trace = CarpTrace::total_exchange(&topo, 16, 60);
    let sends = trace.num_sends() as u64;
    let r = run_carp_trace(&mut net, &mut trace, RunSpec::standard(0, 4_000), &mut ());
    assert!(r.drained && !r.stalled, "{r:?}");
    assert_eq!(r.delivered, sends);
    assert_eq!(r.circuit_fraction, 0.0);
}

#[test]
fn total_exchange_survives_clrp_circuit_thrash() {
    // CLRP will try (and mostly waste) circuits for one-shot pairs; the
    // protocol must stay deadlock- and livelock-free and deliver all the
    // same.
    let topo = Topology::mesh(&[6, 6]);
    let mut net = WaveNetwork::new(
        topo.clone(),
        WaveConfig {
            protocol: ProtocolKind::Clrp,
            cache_capacity: 2,
            ..WaveConfig::default()
        },
    );
    let mut trace = CarpTrace::total_exchange(&topo, 16, 60);
    let sends = trace.num_sends() as u64;
    let r = run_carp_trace(&mut net, &mut trace, RunSpec::standard(0, 4_000), &mut ());
    assert!(r.drained && !r.stalled, "{r:?}");
    assert_eq!(r.delivered, sends);
    let live = check_probe_livelock(&net);
    assert!(live.livelock_free, "{live:?}");
    // Thrash happened: far more establishment attempts than reuses.
    assert!(r.wave.cache_misses > r.wave.cache_hits);
}

#[test]
fn carp_correctly_skips_circuits_for_all_to_all() {
    // Through a CARP network, the total-exchange trace (which contains no
    // ESTABLISH ops — the compiler judged the locality insufficient) must
    // use pure wormhole and never probe.
    let topo = Topology::mesh(&[5, 5]);
    let mut net = WaveNetwork::new(
        topo.clone(),
        WaveConfig {
            protocol: ProtocolKind::Carp,
            ..WaveConfig::default()
        },
    );
    let mut trace = CarpTrace::total_exchange(&topo, 24, 80);
    let sends = trace.num_sends() as u64;
    let r = run_carp_trace(&mut net, &mut trace, RunSpec::standard(0, 4_000), &mut ());
    assert!(r.drained && !r.stalled);
    assert_eq!(r.delivered, sends);
    assert_eq!(r.wave.probes_sent, 0, "no ESTABLISH ops, no probes");
    assert_eq!(r.circuit_fraction, 0.0);
}
