//! Exhaustive exploration: BFS over every interleaving of core's moves,
//! deadlock and livelock verdicts, counterexample extraction.
//!
//! * **Deadlock** — a stuck state ([`World::stuck`]), or a circular wait
//!   among parked probes ([`wave_wait_edges`] into [`find_wait_cycle`]),
//!   searched on every state with one. A cycle is the stronger diagnosis,
//!   so the search stops at the first; a stuck state without one (a lost
//!   wakeup, as `drop-release` makes) is reported only if none turns up.
//! * **Livelock** — a lasso: a reachable cycle through states with
//!   messages outstanding. The key carries the shared
//!   [`wavesim_verify::ProgressMeasure`], which never falls, so a cycle
//!   keeps its rank: the search runs [`find_wait_cycle`] over the
//!   rank-preserving edges. A move back to its own state (a retry
//!   re-armed while a transfer drains) is a wait, not a loop, unless it
//!   is all the protocol can do there ([`World::spin`]).
//!
//! The seen-set stores full keys ([`World::key`]), so no hash collision
//! can merge two states. A state keeps its network ([`World`]) only while
//! it is on the BFS frontier; behind it, it is its key and parent edge.
//! BFS makes stems shortest, and a budget-capped run resumes
//! (checkpointing) when [`Explorer::run`] is called with a larger budget.

use std::collections::{BTreeMap, VecDeque};

use wavesim_network::fabric::WaitVc;
use wavesim_verify::deadlock::{find_wait_cycle, wave_wait_edges};

use crate::spec::ModelSpec;
use crate::world::{Move, World};

/// What went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// A stuck state, or a circular wait among parked probes.
    Deadlock {
        /// The circular wait (vertices as [`wave_wait_edges`] keys them), if
        /// any: a lost wakeup has none.
        wait_cycle: Option<Vec<WaitVc>>,
    },
    /// A reachable cycle through states with messages outstanding.
    Livelock,
}

impl ViolationKind {
    /// Short verdict tag for CLI output.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ViolationKind::Deadlock { .. } => "deadlock",
            ViolationKind::Livelock => "livelock",
        }
    }
}

/// A violating schedule, re-applicable with [`World::after`] and, as its
/// stimuli, through a timed run ([`crate::replay`]).
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The property violated.
    pub kind: ViolationKind,
    /// Moves from the initial state to the violation. For a livelock the
    /// tail from [`Self::loop_start`] onward is the repeatable cycle.
    pub schedule: Vec<Move>,
    /// Start of the lasso loop within `schedule` (livelock only).
    pub loop_start: Option<usize>,
    /// [`wavesim_core::WaveNetwork::state_fingerprint`] of the violating
    /// (deadlock) or loop-entry (livelock) state.
    pub fingerprint: u64,
}

impl Counterexample {
    /// Human-readable one-move-per-line rendering.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, mv) in self.schedule.iter().enumerate() {
            if Some(i) == self.loop_start {
                out.push_str("--- loop ---\n");
            }
            out.push_str(&format!("{i:4}  {mv}\n"));
        }
        out
    }
}

/// The verdict of an exploration.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// Distinct states explored.
    pub states: u64,
    /// Transitions taken (edges).
    pub transitions: u64,
    /// Maximum BFS depth reached.
    pub depth: u32,
    /// True when the state budget ran out before the frontier drained.
    pub truncated: bool,
    /// States with a parked probe, whose wait-for graph was searched.
    pub wait_checked: u64,
    /// The fall-back routing function's CDG certificate (see [`World`]).
    pub fallback_certified: bool,
    /// The violation, if any.
    pub violation: Option<Counterexample>,
}

impl CheckOutcome {
    /// True when the run proves the properties (complete and clean).
    #[must_use]
    pub fn proved(&self) -> bool {
        !self.truncated && self.violation.is_none() && self.fallback_certified
    }

    /// The CLI verdict line.
    #[must_use]
    pub fn verdict(&self) -> String {
        match &self.violation {
            Some(cx) => format!(
                "VIOLATION ({}): counterexample of {} steps (fingerprint {:#018x})",
                cx.kind.name(),
                cx.schedule.len(),
                cx.fingerprint
            ),
            None if self.truncated => format!(
                "INCONCLUSIVE: state budget exhausted after {} states (frontier not drained)",
                self.states
            ),
            None => format!(
                "PROVED deadlock- and livelock-free: {} states, {} transitions, depth {}{}",
                self.states,
                self.transitions,
                self.depth,
                if self.fallback_certified {
                    ""
                } else {
                    " (WARNING: fall-back routing not certified)"
                }
            ),
        }
    }
}

/// Exhaustive BFS explorer with a resumable frontier.
pub struct Explorer {
    spec: ModelSpec,
    /// Full key → state number.
    index: BTreeMap<Box<[u8]>, u32>,
    parent: Vec<Option<(u32, Move)>>,
    /// Rank-preserving edges out of states with messages outstanding: the
    /// only edges a lasso can use.
    edges: Vec<(u32, u32, Move)>,
    frontier: VecDeque<(u32, World)>,
    transitions: u64,
    wait_checked: u64,
    fallback_certified: bool,
    violation: Option<(u32, ViolationKind)>,
    /// The shallowest stuck state without a circular wait, reported only
    /// if no circular wait turns up.
    stuck: Option<u32>,
    truncated: bool,
}

impl Explorer {
    /// Sets up exploration of `spec` from its initial state.
    #[must_use]
    pub fn new(spec: &ModelSpec) -> Self {
        // Every move runs the fabric to idle: re-certify the fall-back.
        let wh = spec.cfg.wormhole;
        let routing = wh.routing.build(&spec.topo, wh.w);
        let fallback_certified =
            wavesim_verify::check_deadlock_freedom(&spec.topo, routing.as_ref()).deadlock_free;
        let init = World::new(spec);
        Explorer {
            spec: spec.clone(),
            index: BTreeMap::from([(init.key().into_boxed_slice(), 0)]),
            parent: vec![None],
            edges: Vec::new(),
            frontier: VecDeque::from([(0, init)]),
            transitions: 0,
            wait_checked: 0,
            fallback_certified,
            violation: None,
            stuck: None,
            truncated: false,
        }
    }

    /// True when a state with key `key` ([`World::key`]) was reached.
    #[must_use]
    pub fn seen(&self, key: &[u8]) -> bool {
        self.index.contains_key(key)
    }

    /// Explores until the frontier drains, a circular wait is found, or the
    /// seen-set reaches `max_states`. Returns `false` when the budget ran
    /// out: the frontier is kept, and a call with a larger budget resumes.
    pub fn run(&mut self, max_states: u64) -> bool {
        self.truncated = false;
        while let Some((u, world)) = self.frontier.pop_front() {
            let waits = wave_wait_edges(&world.net);
            if !waits.is_empty() {
                self.wait_checked += 1;
            }
            if let Some(cycle) = find_wait_cycle(&waits) {
                let kind = ViolationKind::Deadlock {
                    wait_cycle: Some(cycle),
                };
                self.violation = Some((u, kind));
                return true;
            }
            if world.stuck() && self.stuck.is_none() {
                self.stuck = Some(u);
            }
            let rank = world.measure().rank();
            let mut self_loop = false;
            for mv in world.moves(&self.spec) {
                let mut next = world.fork();
                let applied = next.apply(&self.spec, &mv);
                debug_assert!(applied, "{mv} was listed as enabled");
                self.transitions += 1;
                let key = next.key().into_boxed_slice();
                // A lasso keeps its rank and has messages outstanding.
                let loops = rank == next.measure().rank() && next.pending_work();
                let v = match self.index.get(&key) {
                    Some(&v) => v,
                    None => {
                        let v = u32::try_from(self.parent.len()).expect("state count");
                        self.index.insert(key, v);
                        self.parent.push(Some((u, mv.clone())));
                        self.frontier.push_back((v, next));
                        v
                    }
                };
                self_loop |= u == v;
                if u != v && loops {
                    self.edges.push((u, v, mv));
                }
            }
            if let Some(mv) = self_loop.then(|| world.spin(&self.spec)).flatten() {
                self.edges.push((u, u, mv));
            }
            if self.parent.len() as u64 >= max_states && !self.frontier.is_empty() {
                self.truncated = true;
                return false;
            }
        }
        true
    }

    /// The schedule from the initial state to `target`.
    fn stem(&self, target: u32) -> Vec<Move> {
        let mut moves = Vec::new();
        let mut at = target;
        while let Some((p, mv)) = &self.parent[at as usize] {
            moves.push(mv.clone());
            at = *p;
        }
        moves.reverse();
        moves
    }

    /// Lasso search (see module docs): the one cycle search,
    /// [`find_wait_cycle`], over the rank-preserving edges out of states
    /// with messages outstanding, entered at the loop's BFS-shallowest
    /// state. Only meaningful after a complete, deadlock-free run.
    fn find_lasso(&self) -> Option<(u32, Vec<Move>)> {
        let edges: Vec<(WaitVc, WaitVc)> = self
            .edges
            .iter()
            .map(|&(u, v, _)| ((u, 0), (v, 0)))
            .collect();
        let mut cycle: Vec<u32> = find_wait_cycle(&edges)?.into_iter().map(|v| v.0).collect();
        // States are numbered in BFS order: the least is the shallowest.
        let first = (0..cycle.len()).min_by_key(|&i| cycle[i])?;
        cycle.rotate_left(first);
        let moves = (0..cycle.len())
            .map(|i| {
                let (u, v) = (cycle[i], cycle[(i + 1) % cycle.len()]);
                let edge = self.edges.iter().find(|e| (e.0, e.1) == (u, v));
                edge.expect("a cycle runs along edges").2.clone()
            })
            .collect();
        Some((cycle[0], moves))
    }

    /// Finishes the run: verdicts, counts, counterexample.
    #[must_use]
    pub fn into_outcome(self) -> CheckOutcome {
        let lost_wakeup = ViolationKind::Deadlock { wait_cycle: None };
        let found = self
            .violation
            .clone()
            .or(self.stuck.map(|at| (at, lost_wakeup)));
        let violation = match found {
            Some((at, kind)) => Some((kind, self.stem(at), None)),
            None if !self.truncated => self.find_lasso().map(|(entry, cycle)| {
                let mut schedule = self.stem(entry);
                let loop_start = schedule.len();
                schedule.extend(cycle);
                (ViolationKind::Livelock, schedule, Some(loop_start))
            }),
            None => None,
        };
        // A lasso ends where its loop began, so either way the schedule's
        // last state is the one to name.
        let violation = violation.map(|(kind, schedule, loop_start)| Counterexample {
            fingerprint: World::after(&self.spec, &schedule).net.state_fingerprint(),
            kind,
            schedule,
            loop_start,
        });
        CheckOutcome {
            states: self.parent.len() as u64,
            transitions: self.transitions,
            // BFS: the state found last is a deepest one.
            depth: self.stem(self.parent.len() as u32 - 1).len() as u32,
            truncated: self.truncated,
            wait_checked: self.wait_checked,
            fallback_certified: self.fallback_certified,
            violation,
        }
    }
}

/// Convenience wrapper: explore `spec` to at most `max_states` states and
/// return the outcome.
#[must_use]
pub fn check(spec: &ModelSpec, max_states: u64) -> CheckOutcome {
    let mut e = Explorer::new(spec);
    e.run(max_states);
    e.into_outcome()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesim_core::{Mutation, ProtocolKind};
    use wavesim_topology::Topology;

    fn mesh(protocol: ProtocolKind) -> ModelSpec {
        ModelSpec::new(Topology::mesh(&[2, 2]), protocol, 1)
    }

    #[test]
    fn single_message_is_proved_clean() {
        let out = check(&mesh(ProtocolKind::Clrp).msg(0, 3), 1_000_000);
        assert!(out.proved(), "{}", out.verdict());
        assert!(out.states > 1);
    }

    #[test]
    fn budget_checkpointing_resumes() {
        let spec = mesh(ProtocolKind::Clrp).msg(0, 3).msg(3, 0);
        let full = check(&spec, 1_000_000);
        assert!(full.proved());
        let mut e = Explorer::new(&spec);
        let mut rounds = 0;
        let mut budget = 10;
        while !e.run(budget) {
            budget += 10;
            rounds += 1;
            assert!(rounds < 10_000, "resume never finishes");
        }
        let out = e.into_outcome();
        assert!(rounds > 0, "budget was actually hit");
        assert_eq!(
            out.states, full.states,
            "checkpointed run explores the same set"
        );
        assert_eq!(out.transitions, full.transitions);
        assert!(out.proved());
    }

    #[test]
    fn drop_release_deadlocks_without_a_wait_cycle() {
        let spec = mesh(ProtocolKind::Clrp)
            .msg(0, 1)
            .msg(2, 3)
            .msg(0, 3)
            .mutate(Mutation::DropRelease);
        let cx = check(&spec, 2_000_000)
            .violation
            .expect("drop-release must deadlock");
        // Lost wakeup, not a circular wait: the parked probe waits on a
        // Ready circuit that waits on nothing.
        assert_eq!(cx.kind, ViolationKind::Deadlock { wait_cycle: None });
        let end = World::after(&spec, &cx.schedule);
        assert!(end.stuck(), "the schedule re-applies to the stuck state");
        assert_eq!(end.net.state_fingerprint(), cx.fingerprint);
    }

    #[test]
    fn skip_backoff_livelocks_with_a_lasso() {
        let spec = mesh(ProtocolKind::Carp)
            .msg(0, 1)
            .msg(2, 3)
            .msg(0, 3)
            .mutate(Mutation::SkipBackoff);
        let cx = check(&spec, 2_000_000)
            .violation
            .expect("skip-backoff must livelock");
        assert_eq!(cx.kind, ViolationKind::Livelock);
        let loop_start = cx.loop_start.expect("lasso has a loop");
        assert!(loop_start < cx.schedule.len(), "loop is non-empty");
        let entry = World::after(&spec, &cx.schedule[..loop_start]).key();
        let lap = World::after(&spec, &cx.schedule).key();
        assert_eq!(entry, lap, "one lap returns to the loop's entry");
    }

    #[test]
    fn a_protocol_move_that_only_returns_to_its_state_is_a_livelock() {
        // Skip-backoff: while n0->n3's circuit holds n0's one lane to n1,
        // the n0->n1 probe is exhausted at its source and relaunched
        // there, and no other protocol event is pending.
        let spec = mesh(ProtocolKind::Carp)
            .msg(0, 1)
            .msg(0, 3)
            .mutate(Mutation::SkipBackoff);
        let cx = check(&spec, 1_000_000)
            .violation
            .expect("the spin must be reported");
        assert_eq!(cx.kind, ViolationKind::Livelock);
        let entry = cx.schedule.len() - 1;
        assert_eq!(cx.loop_start, Some(entry), "a loop of one move");
        let at = World::after(&spec, &cx.schedule[..entry]);
        assert_eq!(at.spin(&spec).as_ref(), cx.schedule.last());
    }
}
