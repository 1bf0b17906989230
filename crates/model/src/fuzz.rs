//! Adversarial schedule fuzzing with shrinking.
//!
//! Beyond what the explorer can enumerate, [`fuzz`] drives long random
//! walks over the same moves (plus a random lane fault — fault churn) and
//! checks per move: a stuck state or circular wait (deadlock), an exact
//! key revisit with messages outstanding (a sound lasso certificate; a
//! move back to the key it left counts only as [`World::spin`] says), and
//! a clean [`wavesim_core::WaveNetwork::audit`] (a failure is a core bug,
//! reported as a panic). A violation is [`shrink`]-ed by greedy
//! single-deletion to a local minimum.

use std::collections::BTreeMap;

use wavesim_core::LaneId;
use wavesim_sim::SimRng;
use wavesim_verify::deadlock::{find_wait_cycle, wave_wait_edges};

use crate::explore::{Counterexample, ViolationKind};
use crate::spec::{FaultSpec, ModelSpec};
use crate::world::{Move, World};

/// Fuzzing parameters.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Master seed; run `r` uses the deterministic split `seed ⊕ r`.
    pub seed: u64,
    /// Number of independent random runs.
    pub runs: u32,
    /// Move budget per run (runs usually quiesce much earlier).
    pub max_steps: u32,
    /// When the spec has no fault armed, arm a random lane fault per run
    /// (repairable half the time) — the fault-churn dimension.
    pub fault_churn: bool,
}

/// What a fuzzing campaign found.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// Runs completed (≤ `cfg.runs`; stops early on violation).
    pub runs: u32,
    /// Total moves applied across all runs.
    pub steps: u64,
    /// Runs that quiesced with every message delivered.
    pub clean_runs: u32,
    /// Runs that hit the move budget inconclusively.
    pub exhausted_runs: u32,
    /// The first violation, already shrunk, with the spec variant (fault
    /// placement) that produced it.
    pub violation: Option<(ModelSpec, Counterexample)>,
}

impl FuzzOutcome {
    /// The CLI verdict line.
    #[must_use]
    pub fn verdict(&self) -> String {
        match &self.violation {
            Some((_, cx)) => format!(
                "VIOLATION ({}): shrunk counterexample of {} steps (fingerprint {:#018x})",
                cx.kind.name(),
                cx.schedule.len(),
                cx.fingerprint
            ),
            None => format!(
                "OK: {} runs, {} steps, {} clean, {} budget-capped — no violation",
                self.runs, self.steps, self.clean_runs, self.exhausted_runs
            ),
        }
    }
}

/// The deadlock verdict of `w`, if it is one.
fn deadlock(w: &World) -> Option<ViolationKind> {
    let wait_cycle = find_wait_cycle(&wave_wait_edges(&w.net));
    (w.stuck() || wait_cycle.is_some()).then_some(ViolationKind::Deadlock { wait_cycle })
}

/// A walk's moves, the world they reach, and the start of the repeated
/// stretch if a key with messages outstanding came back.
struct Walk {
    schedule: Vec<Move>,
    world: World,
    loop_start: Option<usize>,
}

/// Applies the moves `next` picks, skipping any not enabled, until it
/// picks none or a key with messages outstanding repeats — which proves a
/// reachable cycle. A move back to the key it left is a wait, not a
/// repeat, unless [`World::spin`] says the protocol can do nothing else.
fn walk(spec: &ModelSpec, mut next: impl FnMut(&World) -> Option<Move>) -> Walk {
    let mut world = World::new(spec);
    let mut left = world.key();
    let mut seen = BTreeMap::from([(left.clone(), 0)]);
    let (mut schedule, mut loop_start) = (Vec::new(), None);
    while let Some(mv) = next(&world) {
        if !world.apply(spec, &mv) {
            continue;
        }
        schedule.push(mv);
        let key = world.key();
        if key == left {
            if world.spin(spec).is_some() {
                loop_start = Some(schedule.len() - 1);
                break;
            }
            continue;
        }
        loop_start = seen.get(&key).copied().filter(|_| world.pending_work());
        if loop_start.is_some() {
            break;
        }
        seen.insert(key.clone(), schedule.len());
        left = key;
    }
    Walk {
        schedule,
        world,
        loop_start,
    }
}

impl Walk {
    /// The violation this walk ended in, if any.
    fn violation(&self) -> Option<Counterexample> {
        let (kind, loop_start) = match self.loop_start {
            Some(start) => (ViolationKind::Livelock, Some(start)),
            None => (deadlock(&self.world)?, None),
        };
        Some(Counterexample {
            kind,
            schedule: self.schedule.clone(),
            loop_start,
            fingerprint: self.world.net.state_fingerprint(),
        })
    }
}

/// One random walk of at most `max_steps` moves, checking
/// [`wavesim_core::WaveNetwork::audit`] and deadlock before each. Returns
/// `(moves, Ok(clean) | Err(counterexample))` where `clean = true` means
/// quiescent with all messages delivered.
fn run_once(
    spec: &ModelSpec,
    rng: &mut SimRng,
    max_steps: u32,
) -> (u64, Result<bool, Counterexample>) {
    let mut budget = max_steps;
    let walk = walk(spec, |w| {
        let problems = w.net.audit();
        assert!(problems.is_empty(), "core audit failed: {problems:?}");
        if budget == 0 || deadlock(w).is_some() {
            return None;
        }
        budget -= 1;
        rng.choose(&w.moves(spec)).cloned()
    });
    let steps = walk.schedule.len() as u64;
    match walk.violation() {
        Some(cx) => (steps, Err(cx)),
        None => (steps, Ok(budget > 0 && walk.world.all_delivered(spec))),
    }
}

/// True when `schedule`, re-applied, still ends in a violation of `kind`'s
/// class — a circular wait must stay one, not shrink to a shallower lost
/// wakeup.
fn violates(spec: &ModelSpec, schedule: &[Move], kind: &ViolationKind) -> bool {
    let mut moves = schedule.iter().cloned();
    let found = walk(spec, |_| moves.next()).violation().map(|cx| cx.kind);
    match (kind, found) {
        (ViolationKind::Livelock, found) => found == Some(ViolationKind::Livelock),
        (
            ViolationKind::Deadlock { wait_cycle },
            Some(ViolationKind::Deadlock { wait_cycle: c }),
        ) => wait_cycle.is_none() || c.is_some(),
        _ => false,
    }
}

/// Greedy delta-debugging: removes one move at a time while the same kind
/// of violation persists; runs to a single-deletion fixpoint.
#[must_use]
pub fn shrink(spec: &ModelSpec, cx: &Counterexample) -> Counterexample {
    let mut best = cx.schedule.clone();
    debug_assert!(
        violates(spec, &best, &cx.kind),
        "counterexample must replay"
    );
    let mut improved = true;
    while improved {
        improved = false;
        let mut i = 0;
        while i < best.len() {
            let mut candidate = best.clone();
            candidate.remove(i);
            if violates(spec, &candidate, &cx.kind) {
                best = candidate;
                improved = true;
            } else {
                i += 1;
            }
        }
    }
    let mut moves = best.into_iter();
    // A lasso's last state is its loop entry again: one fingerprint.
    walk(spec, |_| moves.next())
        .violation()
        .unwrap_or_else(|| cx.clone())
}

/// Runs a fuzzing campaign against `spec`. Deterministic in
/// `cfg.seed` — CI replays are exact.
#[must_use]
pub fn fuzz(spec: &ModelSpec, cfg: &FuzzConfig) -> FuzzOutcome {
    let mut out = FuzzOutcome {
        runs: 0,
        steps: 0,
        clean_runs: 0,
        exhausted_runs: 0,
        violation: None,
    };
    let k = spec.cfg.k;
    let lanes: Vec<LaneId> = spec
        .topo
        .links()
        .flat_map(|link| (1..=k).map(move |s| LaneId::new(link, s)))
        .collect();
    for r in 0..cfg.runs {
        let mut rng = SimRng::new(cfg.seed).split(u64::from(r));
        let mut variant = spec.clone();
        if cfg.fault_churn && variant.fault.is_none() {
            variant.fault = Some(FaultSpec {
                lane: lanes[rng.below(lanes.len() as u64) as usize],
                repair: rng.chance(0.5),
            });
        }
        let (steps, res) = run_once(&variant, &mut rng, cfg.max_steps);
        out.runs += 1;
        out.steps += steps;
        match res {
            Ok(true) => out.clean_runs += 1,
            Ok(false) => out.exhausted_runs += 1,
            Err(cx) => {
                let shrunk = shrink(&variant, &cx);
                out.violation = Some((variant, shrunk));
                return out;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesim_core::{Mutation, ProtocolKind};
    use wavesim_topology::Topology;

    #[test]
    fn correct_clrp_fuzzes_clean_under_fault_churn() {
        let spec = ModelSpec::new(Topology::mesh(&[2, 2]), ProtocolKind::Clrp, 2)
            .msg(0, 3)
            .msg(3, 0)
            .msg(1, 2);
        let out = fuzz(
            &spec,
            &FuzzConfig {
                seed: 7,
                runs: 40,
                max_steps: 4_000,
                fault_churn: true,
            },
        );
        assert!(out.violation.is_none(), "{}", out.verdict());
        assert!(
            out.clean_runs > 0,
            "some runs must drain: {}",
            out.verdict()
        );
        assert_eq!(out.exhausted_runs, 0, "{}", out.verdict());
    }

    #[test]
    fn a_retry_fired_before_the_transfer_ack_is_a_wait() {
        let spec = ModelSpec::new(Topology::mesh(&[2, 2]), ProtocolKind::Clrp, 1)
            .msg(0, 3)
            .msg(3, 0)
            .fault_on_first_path(true);
        // The fault breaks n0->n3's circuit while its transfer drains, so
        // the retry finds the entry in use and re-arms: its own state.
        let fire = |name: &str| Move::Fire(name.to_string());
        let mut prefix = vec![Move::Inject(0)];
        prefix.extend(
            [
                "probe n0->n3 at n0",
                "probe n0->n3 at n1",
                "probe n0->n3 at n3",
            ]
            .map(fire),
        );
        prefix.extend(["ack n0->n3 hop 1", "ack n0->n3 hop 0"].map(fire));
        prefix.extend([Move::Fault, fire("retry n0->n3")]);
        let before = World::after(&spec, &prefix[..prefix.len() - 1]);
        assert_eq!(before.key(), World::after(&spec, &prefix).key());
        assert!(before.spin(&spec).is_none(), "the transfer-ack is pending");

        // Then the first protocol move, else the first stimulus.
        let mut moves = prefix.into_iter();
        let end = walk(&spec, |w| {
            moves.next().or_else(|| {
                let all = w.moves(&spec);
                all.iter()
                    .find(|m| m.is_protocol())
                    .or(all.first())
                    .cloned()
            })
        });
        assert!(end.violation().is_none(), "correct CLRP stays clean");
        assert!(end.world.all_delivered(&spec));
    }

    #[test]
    fn a_walk_reports_a_protocol_that_only_returns_to_its_state() {
        let spec = ModelSpec::new(Topology::mesh(&[2, 2]), ProtocolKind::Carp, 1)
            .msg(0, 1)
            .msg(0, 3)
            .mutate(Mutation::SkipBackoff);
        let cx = crate::check(&spec, 1_000_000)
            .violation
            .expect("the explorer reports the spin");
        assert!(violates(&spec, &cx.schedule, &ViolationKind::Livelock));
        let stem = &cx.schedule[..cx.schedule.len() - 1];
        assert!(!violates(&spec, stem, &ViolationKind::Livelock));
    }

    #[test]
    fn fuzzer_finds_and_shrinks_drop_release() {
        let spec = ModelSpec::new(Topology::mesh(&[2, 2]), ProtocolKind::Clrp, 1)
            .msg(0, 1)
            .msg(2, 3)
            .msg(0, 3)
            .mutate(Mutation::DropRelease);
        let out = fuzz(
            &spec,
            &FuzzConfig {
                seed: 3,
                runs: 200,
                max_steps: 2_000,
                fault_churn: false,
            },
        );
        let (variant, cx) = out.violation.expect("fuzzer must hit the deadlock");
        assert!(matches!(cx.kind, ViolationKind::Deadlock { .. }));
        // Shrunk and still violating.
        assert!(violates(&variant, &cx.schedule, &cx.kind));
        for i in 0..cx.schedule.len() {
            let mut c = cx.schedule.clone();
            c.remove(i);
            assert!(
                !violates(&variant, &c, &cx.kind),
                "schedule not 1-minimal at {i}"
            );
        }
    }
}
