//! Exhaustive exploration: BFS over every interleaving, deadlock and
//! livelock verdicts, counterexample extraction.
//!
//! * **Deadlock** — a reachable state with pending work where no
//!   *protocol* action is enabled (the environment is never obliged to
//!   act). Every state with parked probes is additionally cross-checked
//!   with [`wavesim_verify::deadlock::find_wait_cycle`]: a circular wait
//!   is reported as a deadlock even before the rest of the system
//!   freezes, and the extracted cycle names the contested lanes. The two
//!   detectors are complementary — `drop-release` strands a probe with
//!   *no* cycle (lost wakeup), `wait-establishing` builds a genuine
//!   4-cycle.
//! * **Livelock** — a lasso: a reachable cycle through states with
//!   pending work. Every component of the shared
//!   [`wavesim_verify::ProgressMeasure`] is nondecreasing along every
//!   transition, so any cycle lives entirely inside one rank layer; the
//!   search therefore restricts itself to rank-preserving edges, finds
//!   strongly connected components there (first DFS pass), and extracts
//!   a concrete cycle from an offending component (second, nested DFS
//!   pass).
//!
//! BFS means extracted stems are shortest; the frontier is kept inside
//! the [`Explorer`] so a budget-capped run can be resumed (checkpointing)
//! by calling [`Explorer::run`] again with a larger budget.

use std::collections::{HashMap, VecDeque};

use wavesim_topology::RoutingKind;
use wavesim_verify::deadlock::find_wait_cycle;

use crate::spec::ModelSpec;
use crate::state::ModelState;
use crate::step::{apply, enabled, Action};
use crate::ModelCtx;

/// What went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// Pending work, no enabled protocol action. When the stuck state's
    /// wait-for graph is cyclic the cycle is attached (`(circuit, dense
    /// lane)` pairs, as returned by `find_wait_cycle`).
    Deadlock {
        /// The circular wait, if one exists (a lost-wakeup deadlock has
        /// none).
        wait_cycle: Option<Vec<(u32, u16)>>,
    },
    /// A reachable cycle through states with pending work.
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

/// A violating schedule, replayable through [`crate::step::apply`] (and,
/// concretely, through the real network via [`crate::replay`]).
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The property violated.
    pub kind: ViolationKind,
    /// Actions from the initial state to the violation. For a livelock
    /// the tail from [`Self::loop_start`] onward is the repeatable cycle.
    pub schedule: Vec<Action>,
    /// Start of the lasso loop within `schedule` (livelock only).
    pub loop_start: Option<usize>,
    /// Digest of the violating (deadlock) / loop-entry (livelock) state.
    pub fingerprint: u64,
}

impl Counterexample {
    /// Human-readable one-action-per-line rendering.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, a) in self.schedule.iter().enumerate() {
            if Some(i) == self.loop_start {
                out.push_str("--- loop ---\n");
            }
            out.push_str(&format!("{i:4}  {a}\n"));
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
    /// True when the state budget ran out before the frontier drained —
    /// verdicts are then only valid for the explored prefix.
    pub truncated: bool,
    /// States whose wait-for graph was checked (those with parked
    /// probes).
    pub wait_checked: u64,
    /// The wormhole fall-back plane's CDG certificate — the escape
    /// oracle the abstraction leans on.
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
    ctx: ModelCtx,
    index: HashMap<ModelState, u32>,
    states: Vec<ModelState>,
    parent: Vec<Option<(u32, Action)>>,
    depth: Vec<u32>,
    edges: Vec<(u32, u32, Action)>,
    frontier: VecDeque<u32>,
    transitions: u64,
    wait_checked: u64,
    max_depth: u32,
    fallback_certified: bool,
    violation: Option<(u32, ViolationKind)>,
    truncated: bool,
}

impl Explorer {
    /// Sets up exploration of `spec` from the initial state.
    #[must_use]
    pub fn new(spec: &ModelSpec) -> Self {
        let ctx = spec.compile();
        // The model treats the wormhole plane as a reliable escape; that
        // is only sound because the fall-back routing function carries a
        // CDG certificate. Re-establish it here instead of assuming it.
        let w = 2;
        let routing = RoutingKind::Deterministic.build(&ctx.spec.topo, w);
        let fallback_certified =
            wavesim_verify::check_deadlock_freedom(&ctx.spec.topo, routing.as_ref()).deadlock_free;
        let init = ModelState::initial(&ctx);
        let mut index = HashMap::new();
        index.insert(init.clone(), 0u32);
        Explorer {
            ctx,
            index,
            states: vec![init],
            parent: vec![None],
            depth: vec![0],
            edges: Vec::new(),
            frontier: VecDeque::from([0u32]),
            transitions: 0,
            wait_checked: 0,
            max_depth: 0,
            fallback_certified,
            violation: None,
            truncated: false,
        }
    }

    /// The compiled context (for replay and reporting).
    #[must_use]
    pub fn ctx(&self) -> &ModelCtx {
        &self.ctx
    }

    /// Explores until the frontier drains, a violation is found, or the
    /// seen-set reaches `max_states`. Returns `true` when exploration is
    /// complete (drained or violated); `false` means the budget ran out
    /// and the frontier is checkpointed — call again with a larger budget
    /// to resume.
    pub fn run(&mut self, max_states: u64) -> bool {
        self.truncated = false;
        while let Some(u) = self.frontier.pop_front() {
            let acts = enabled(&self.ctx, &self.states[u as usize]);
            let state = &self.states[u as usize];

            // Deadlock: pending work, no protocol action.
            if state.has_pending_work() && !acts.iter().any(|a| a.is_protocol()) {
                let cycle = find_wait_cycle(&state.wait_edges());
                self.violation = Some((u, ViolationKind::Deadlock { wait_cycle: cycle }));
                return true;
            }
            // Circular-wait cross-check: a cycle among parked probes is a
            // deadlock even while unrelated circuits still have moves.
            let waits = state.wait_edges();
            if !waits.is_empty() {
                self.wait_checked += 1;
                if let Some(cycle) = find_wait_cycle(&waits) {
                    self.violation = Some((
                        u,
                        ViolationKind::Deadlock {
                            wait_cycle: Some(cycle),
                        },
                    ));
                    return true;
                }
            }

            for a in acts {
                let next = apply(&self.ctx, &self.states[u as usize], a);
                self.transitions += 1;
                let v = match self.index.get(&next) {
                    Some(&v) => v,
                    None => {
                        let v = u32::try_from(self.states.len()).expect("state count");
                        self.index.insert(next.clone(), v);
                        self.states.push(next);
                        self.parent.push(Some((u, a)));
                        let d = self.depth[u as usize] + 1;
                        self.depth.push(d);
                        self.max_depth = self.max_depth.max(d);
                        self.frontier.push_back(v);
                        v
                    }
                };
                self.edges.push((u, v, a));
            }
            if self.states.len() as u64 >= max_states && !self.frontier.is_empty() {
                self.truncated = true;
                return false;
            }
        }
        true
    }

    /// The schedule from the initial state to `target`.
    fn stem(&self, target: u32) -> Vec<Action> {
        let mut acts = Vec::new();
        let mut at = target;
        while let Some((p, a)) = self.parent[at as usize] {
            acts.push(a);
            at = p;
        }
        acts.reverse();
        acts
    }

    /// Lasso search over rank-preserving edges (see module docs). Only
    /// meaningful after a complete, deadlock-free run.
    fn find_lasso(&self) -> Option<(u32, Vec<Action>)> {
        let n = self.states.len();
        let ranks: Vec<u64> = self
            .states
            .iter()
            .map(|s| s.measure(&self.ctx).rank())
            .collect();
        // Adjacency restricted to rank-constant edges — the only edges a
        // cycle can use, because the measure never decreases.
        let mut adj = vec![Vec::new(); n];
        for &(u, v, a) in &self.edges {
            if u != v && ranks[u as usize] == ranks[v as usize] {
                adj[u as usize].push((v, a));
            }
        }
        // Pass one: iterative Tarjan SCC.
        let sccs = tarjan(&adj);
        let mut comp = vec![u32::MAX; n];
        for (ci, scc) in sccs.iter().enumerate() {
            for &s in scc {
                comp[s as usize] = ci as u32;
            }
        }
        for scc in &sccs {
            if scc.len() < 2 {
                continue; // single state, no self-loops (apply never no-ops)
            }
            // Pending-work flags are constant across an SCC (each flag is
            // monotone, and SCC members are mutually reachable).
            let probe = scc[0];
            if !self.states[probe as usize].has_pending_work() {
                continue;
            }
            // Pass two: nested DFS inside the component to extract a
            // concrete cycle through its BFS-shallowest member.
            let entry = *scc
                .iter()
                .min_by_key(|&&s| self.depth[s as usize])
                .expect("non-empty SCC");
            let cycle = cycle_through(&adj, &comp, entry).expect("SCC of size ≥ 2 has a cycle");
            return Some((entry, cycle));
        }
        None
    }

    /// Finishes the run: verdicts, counts, counterexample.
    #[must_use]
    pub fn into_outcome(self) -> CheckOutcome {
        let violation = match &self.violation {
            Some((at, kind)) => Some(Counterexample {
                kind: kind.clone(),
                schedule: self.stem(*at),
                loop_start: None,
                fingerprint: self.states[*at as usize].fingerprint(),
            }),
            None if !self.truncated => self.find_lasso().map(|(entry, cycle)| {
                let mut schedule = self.stem(entry);
                let loop_start = schedule.len();
                schedule.extend(cycle);
                Counterexample {
                    kind: ViolationKind::Livelock,
                    schedule,
                    loop_start: Some(loop_start),
                    fingerprint: self.states[entry as usize].fingerprint(),
                }
            }),
            None => None,
        };
        CheckOutcome {
            states: self.states.len() as u64,
            transitions: self.transitions,
            depth: self.max_depth,
            truncated: self.truncated,
            wait_checked: self.wait_checked,
            fallback_certified: self.fallback_certified,
            violation,
        }
    }
}

/// Iterative Tarjan over a compact adjacency list. Returns SCCs in
/// reverse topological order; order is irrelevant here.
fn tarjan(adj: &[Vec<(u32, Action)>]) -> Vec<Vec<u32>> {
    let n = adj.len();
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut sccs = Vec::new();
    // Explicit call stack of (node, next-child cursor); a node's index is
    // assigned at push time so it is pushed exactly once.
    let mut call: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if index[root as usize] != u32::MAX {
            continue;
        }
        index[root as usize] = next_index;
        low[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;
        call.push((root, 0));
        while let Some(&(v, cursor)) = call.last() {
            let vi = v as usize;
            if let Some(&(w, _)) = adj[vi].get(cursor) {
                call.last_mut().expect("frame just read").1 += 1;
                let wi = w as usize;
                if index[wi] == u32::MAX {
                    index[wi] = next_index;
                    low[wi] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[wi] = true;
                    call.push((w, 0));
                } else if on_stack[wi] {
                    low[vi] = low[vi].min(index[wi]);
                }
            } else {
                call.pop();
                if let Some(&(p, _)) = call.last() {
                    let pi = p as usize;
                    low[pi] = low[pi].min(low[vi]);
                }
                if low[vi] == index[vi] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

/// DFS restricted to `entry`'s component, returning the action labels of
/// a cycle `entry → … → entry`.
fn cycle_through(adj: &[Vec<(u32, Action)>], comp: &[u32], entry: u32) -> Option<Vec<Action>> {
    let target_comp = comp[entry as usize];
    let mut visited = vec![false; adj.len()];
    // (node, path-of-actions)
    let mut stack: Vec<(u32, Vec<Action>)> = vec![(entry, Vec::new())];
    while let Some((v, path)) = stack.pop() {
        for &(w, a) in &adj[v as usize] {
            if comp[w as usize] != target_comp {
                continue;
            }
            if w == entry {
                let mut cycle = path.clone();
                cycle.push(a);
                return Some(cycle);
            }
            if !visited[w as usize] {
                visited[w as usize] = true;
                let mut p = path.clone();
                p.push(a);
                stack.push((w, p));
            }
        }
    }
    None
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
    use crate::spec::{ModelProtocol, Mutation};
    use wavesim_topology::Topology;

    #[test]
    fn single_message_is_proved_clean() {
        let spec = ModelSpec::new(Topology::mesh(&[2, 2]), ModelProtocol::Clrp, 1).msg(0, 3);
        let out = check(&spec, 1_000_000);
        assert!(out.proved(), "{}", out.verdict());
        assert!(out.states > 1);
    }

    #[test]
    fn budget_checkpointing_resumes() {
        let spec = ModelSpec::new(Topology::mesh(&[2, 2]), ModelProtocol::Clrp, 1)
            .msg(0, 3)
            .msg(3, 0);
        // Reference run.
        let full = check(&spec, 1_000_000);
        assert!(full.proved());
        // Budgeted run, resumed to completion.
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
    fn drop_release_deadlocks_and_is_reported() {
        let spec = ModelSpec::new(Topology::mesh(&[2, 2]), ModelProtocol::Clrp, 1)
            .msg(0, 1)
            .msg(2, 3)
            .msg(0, 3)
            .mutate(Mutation::DropRelease);
        let out = check(&spec, 2_000_000);
        let cx = out.violation.expect("drop-release must deadlock");
        let ViolationKind::Deadlock { wait_cycle } = &cx.kind else {
            panic!("expected a deadlock, got {:?}", cx.kind)
        };
        // Lost wakeup, not a circular wait: the parked probe waits on a
        // Ready circuit that waits on nothing.
        assert!(wait_cycle.is_none(), "{wait_cycle:?}");
        assert!(!cx.schedule.is_empty());
    }

    #[test]
    fn skip_backoff_livelocks_with_a_lasso() {
        let spec = ModelSpec::new(Topology::mesh(&[2, 2]), ModelProtocol::Carp, 1)
            .msg(0, 1)
            .msg(2, 3)
            .msg(0, 3)
            .mutate(Mutation::SkipBackoff);
        let out = check(&spec, 2_000_000);
        let cx = out.violation.expect("skip-backoff must livelock");
        assert_eq!(cx.kind, ViolationKind::Livelock);
        let loop_start = cx.loop_start.expect("lasso has a loop");
        assert!(loop_start < cx.schedule.len(), "loop is non-empty");
    }
}
