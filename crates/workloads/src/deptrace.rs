//! Dependency-aware message traces.
//!
//! A [`DepTrace`] is a message script whose entries carry explicit
//! *dependency edges*: message `B` with `deps = [A]` must not be injected
//! before `A` has been **delivered**. This is the natural encoding of
//! application communication — a reduce step cannot start before its
//! children's partial sums arrive, phase `p+1` of a sweep waits for phase
//! `p` — and it makes replay *self-paced*: the trace adapts to whatever
//! latency the network under test exhibits instead of firing on a wall
//! clock recorded on some other machine.
//!
//! Semantics:
//!
//! * a message's `created_at` is its **earliest release** cycle — it is
//!   released at `max(created_at, last dependency delivered + 1)`;
//! * dependencies are by message id and must reference messages present
//!   in the same trace;
//! * the dependency graph must be acyclic — [`DepTrace::new`] rejects
//!   cycles (a cyclic trace can never finish replaying).
//!
//! A trace is valid by construction: [`DepTrace::new`] builds the id
//! index and the dependency graph once, checks them, and keeps them for
//! every [`DepReplay`] of the trace. Persistence (versioned JSON / JSONL)
//! lives in [`crate::trace_io`]; generators for classic collectives in
//! [`crate::collectives`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use wavesim_network::{Delivery, Message};
use wavesim_sim::Cycle;

use crate::{CarpOp, Workload};

/// One message of a dependency trace.
#[derive(Debug, Clone, PartialEq)]
pub struct DepMessage {
    /// The message itself (`created_at` = earliest release cycle).
    pub msg: Message,
    /// Ids of messages that must be *delivered* before this one releases.
    pub deps: Vec<u64>,
}

/// A dependency-ordered message script and its validated graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DepTrace {
    /// The messages, in file order. Order carries no semantics beyond
    /// deterministic tie-breaking; release order is set by `created_at`
    /// and the dependency edges.
    messages: Vec<DepMessage>,
    /// `(message id, trace index)`, sorted by id.
    ids: Vec<(u64, u32)>,
    /// Dependency count per trace index.
    indegree: Vec<u32>,
    /// Trace index -> indices of the messages that depend on it.
    dependents: Vec<Vec<u32>>,
}

impl DepTrace {
    /// Builds a trace and its dependency graph, checking the invariants:
    /// unique message ids, every dependency referencing an id present in
    /// the trace, and an acyclic graph (checked with Kahn's algorithm, so
    /// the error names a message that sits on a cycle).
    ///
    /// # Errors
    /// Returns a human-readable description of the first violation found.
    pub fn new(messages: Vec<DepMessage>) -> Result<Self, String> {
        let n = messages.len();
        let mut ids: Vec<(u64, u32)> = messages
            .iter()
            .enumerate()
            .map(|(i, m)| (m.msg.id.0, i as u32))
            .collect();
        ids.sort_unstable();
        // The first message, in file order, whose id an earlier one took.
        let repeat = ids
            .windows(2)
            .filter(|w| w[0].0 == w[1].0)
            .min_by_key(|w| w[1].1);
        if let Some(w) = repeat {
            return Err(format!("duplicate message id {}", w[1].0));
        }
        let mut indegree = vec![0u32; n];
        let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, m) in messages.iter().enumerate() {
            for &dep in &m.deps {
                let Some(j) = index_in(&ids, dep) else {
                    return Err(format!(
                        "message {} depends on unknown message id {dep}",
                        m.msg.id.0
                    ));
                };
                if j == i {
                    return Err(format!("message {} depends on itself", m.msg.id.0));
                }
                indegree[i] += 1;
                dependents[j].push(i as u32);
            }
        }
        // Kahn's topological sort over dep -> dependent edges. Anything
        // left with a positive indegree afterwards sits on (or behind) a
        // dependency cycle.
        let mut left = indegree.clone();
        let mut queue: Vec<u32> = (0..n as u32).filter(|&i| left[i as usize] == 0).collect();
        while let Some(i) = queue.pop() {
            for &d in &dependents[i as usize] {
                left[d as usize] -= 1;
                if left[d as usize] == 0 {
                    queue.push(d);
                }
            }
        }
        let stuck = (0..n)
            .filter(|&i| left[i] > 0)
            .map(|i| messages[i].msg.id.0);
        if let Some(stuck) = stuck.min() {
            return Err(format!(
                "cyclic dependency: message {stuck} can never be released \
                 (it waits, directly or transitively, on itself)"
            ));
        }
        Ok(Self {
            messages,
            ids,
            indegree,
            dependents,
        })
    }

    /// The messages, in file order.
    #[must_use]
    pub fn messages(&self) -> &[DepMessage] {
        &self.messages
    }

    /// Number of messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// True when the trace has no messages.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// Latest earliest-release cycle in the trace (0 when empty). Actual
    /// replay can extend far past this: dependent messages release only
    /// when their dependencies deliver.
    #[must_use]
    pub fn horizon(&self) -> Cycle {
        self.messages
            .iter()
            .map(|m| m.msg.created_at)
            .max()
            .unwrap_or(0)
    }

    /// Messages with no dependencies (the replay's initially-ready set).
    #[must_use]
    pub fn num_roots(&self) -> usize {
        self.indegree.iter().filter(|&&d| d == 0).count()
    }

    /// A replay of the trace from its start.
    #[must_use]
    pub fn replay(&self) -> DepReplay<'_> {
        let mut ready = Vec::with_capacity(self.len());
        for (i, m) in self.messages.iter().enumerate() {
            if self.indegree[i] == 0 {
                ready.push(Reverse((m.msg.created_at, i as u32)));
            }
        }
        DepReplay {
            trace: self,
            waiting: self.indegree.clone(),
            ready: BinaryHeap::from(ready),
            sent: 0,
        }
    }
}

/// Trace index of the message with id `id`, in an id-sorted index.
fn index_in(ids: &[(u64, u32)], id: u64) -> Option<usize> {
    let at = ids.binary_search_by_key(&id, |&(k, _)| k).ok()?;
    Some(ids[at].1 as usize)
}

/// A [`DepTrace`] being replayed. A message is released (sent) once every
/// message it depends on has been **delivered**, at `max(created_at, last
/// dependency delivered + 1)`, so the replay is self-paced: a slower
/// network releases later. Released messages go out in (release cycle,
/// trace index) order, so a replay is deterministic. `created_at` is
/// re-stamped at release, so latency measures network time, not time
/// spent waiting on dependencies.
pub struct DepReplay<'a> {
    trace: &'a DepTrace,
    /// Undelivered dependencies per trace index.
    waiting: Vec<u32>,
    /// `(release cycle, trace index)` of released messages not yet sent.
    ready: BinaryHeap<Reverse<(Cycle, u32)>>,
    sent: usize,
}

/// The source phase lasts until every message of the trace was sent.
impl Workload for DepReplay<'_> {
    fn due(&mut self, now: Cycle, out: &mut Vec<CarpOp>) -> bool {
        while let Some(&Reverse((at, i))) = self.ready.peek() {
            if at > now {
                break;
            }
            self.ready.pop();
            let m = self.trace.messages[i as usize].msg;
            out.push(CarpOp::Send(Message {
                created_at: now,
                ..m
            }));
            self.sent += 1;
        }
        self.sent < self.trace.len()
    }

    fn delivered(&mut self, d: &Delivery, now: Cycle) {
        let Some(i) = index_in(&self.trace.ids, d.msg.id.0) else {
            return;
        };
        for &j in &self.trace.dependents[i] {
            let j = j as usize;
            self.waiting[j] -= 1;
            if self.waiting[j] == 0 {
                let release = self.trace.messages[j].msg.created_at.max(now + 1);
                self.ready.push(Reverse((release, j as u32)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fake_net::{delivery, FakeNet};
    use wavesim_sim::SimRng;
    use wavesim_topology::NodeId;

    fn msg(id: u64, src: u32, dest: u32) -> Message {
        Message::new(id, NodeId(src), NodeId(dest), 8, 0)
    }

    fn dm(id: u64, src: u32, dest: u32, deps: &[u64]) -> DepMessage {
        DepMessage {
            msg: msg(id, src, dest),
            deps: deps.to_vec(),
        }
    }

    #[test]
    fn diamond_is_valid() {
        let t = DepTrace::new(vec![
            dm(0, 0, 1, &[]),
            dm(1, 1, 2, &[0]),
            dm(2, 1, 3, &[0]),
            dm(3, 2, 0, &[1, 2]),
        ])
        .unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(t.num_roots(), 1);
        assert_eq!(t.horizon(), 0);
    }

    #[test]
    fn duplicate_ids_rejected() {
        let err = DepTrace::new(vec![dm(7, 0, 1, &[]), dm(7, 1, 2, &[])]).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn unknown_dependency_rejected() {
        let err = DepTrace::new(vec![dm(0, 0, 1, &[99])]).unwrap_err();
        assert!(err.contains("unknown"), "{err}");
    }

    #[test]
    fn self_dependency_rejected() {
        let err = DepTrace::new(vec![dm(0, 0, 1, &[0])]).unwrap_err();
        assert!(err.contains("itself"), "{err}");
    }

    #[test]
    fn two_cycle_rejected_with_clear_error() {
        let err = DepTrace::new(vec![dm(0, 0, 1, &[1]), dm(1, 1, 2, &[0])]).unwrap_err();
        assert!(err.contains("cyclic"), "{err}");
        assert!(err.contains('0'), "names a cycle member: {err}");
    }

    #[test]
    fn long_cycle_behind_valid_prefix_rejected() {
        // 0 is fine; 1 -> 2 -> 3 -> 1 is a cycle.
        let err = DepTrace::new(vec![
            dm(0, 0, 1, &[]),
            dm(1, 1, 2, &[3]),
            dm(2, 2, 3, &[1]),
            dm(3, 3, 0, &[2]),
        ])
        .unwrap_err();
        assert!(err.contains("cyclic"), "{err}");
    }

    #[test]
    fn empty_trace_is_valid() {
        let t = DepTrace::new(Vec::new()).unwrap();
        assert_eq!(t, DepTrace::default());
        assert!(t.is_empty());
        assert_eq!(t.horizon(), 0);
    }

    /// The replay as the runner kept it before the trace held its graph:
    /// an id map, indegrees and dependents rebuilt per replay. Returns the
    /// `(cycle, id)` of every send.
    fn replay_by_rebuilt_graph(trace: &DepTrace, seed: u64) -> Vec<(Cycle, u64)> {
        use std::collections::HashMap;
        let messages = trace.messages();
        let n = messages.len();
        let mut id2idx = HashMap::with_capacity(n);
        for (i, m) in messages.iter().enumerate() {
            id2idx.insert(m.msg.id.0, i as u32);
        }
        let mut indegree = vec![0u32; n];
        let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, m) in messages.iter().enumerate() {
            for dep in &m.deps {
                let j = *id2idx.get(dep).expect("validated trace: deps resolve");
                indegree[i] += 1;
                dependents[j as usize].push(i as u32);
            }
        }
        let mut ready = BinaryHeap::with_capacity(n);
        for (i, m) in messages.iter().enumerate() {
            if indegree[i] == 0 {
                ready.push(Reverse((m.msg.created_at, i as u32)));
            }
        }
        let mut net = FakeNet::new(seed);
        let mut injected = 0;
        let mut now = 0;
        while injected < n || !net.is_empty() {
            while let Some(&Reverse((at, idx))) = ready.peek() {
                if at > now {
                    break;
                }
                ready.pop();
                let m = &messages[idx as usize].msg;
                net.send(now, Message::new(m.id.0, m.src, m.dest, m.len_flits, now));
                injected += 1;
            }
            for d in net.deliver(now) {
                let Some(&idx) = id2idx.get(&d.id.0) else {
                    continue;
                };
                for &j in &dependents[idx as usize] {
                    indegree[j as usize] -= 1;
                    if indegree[j as usize] == 0 {
                        let release = messages[j as usize].msg.created_at.max(now + 1);
                        ready.push(Reverse((release, j)));
                    }
                }
            }
            now += 1;
        }
        net.sent.iter().map(|s| (s.0, s.1)).collect()
    }

    /// `n` messages with random ids, sources, release floors and up to
    /// three dependencies each on messages earlier in a hidden order, in
    /// shuffled file order.
    fn random_dag(n: usize, seed: u64) -> DepTrace {
        let mut rng = SimRng::new(seed);
        let mut ids: Vec<u64> = Vec::with_capacity(n);
        while ids.len() < n {
            let id = rng.below(1 << 40);
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        let mut messages: Vec<DepMessage> = (0..n)
            .map(|k| {
                let src = rng.below(16) as u32;
                let dest = (src + 1 + rng.below(15) as u32) % 16;
                let mut m = dm(ids[k], src, dest, &[]);
                m.msg.created_at = rng.below(3_000);
                for _ in 0..rng.below(4) {
                    if k > 0 {
                        m.deps.push(ids[rng.index(k)]);
                    }
                }
                m
            })
            .collect();
        for i in (1..n).rev() {
            messages.swap(i, rng.index(i + 1));
        }
        DepTrace::new(messages).unwrap()
    }

    #[test]
    fn replay_sends_what_the_rebuilt_graph_sent() {
        for seed in [1, 2, 3] {
            let trace = random_dag(1_000, seed);
            assert!(trace.num_roots() < 1_000, "the DAG has edges");
            let want = replay_by_rebuilt_graph(&trace, seed);
            let mut replay = trace.replay();
            let (mut net, mut ops) = (FakeNet::new(seed), Vec::new());
            let mut now = 0;
            loop {
                let active = replay.due(now, &mut ops);
                for op in ops.drain(..) {
                    let CarpOp::Send(m) = op else {
                        panic!("{op:?}")
                    };
                    net.send(now, m);
                }
                if !active && net.is_empty() {
                    break;
                }
                for m in net.deliver(now) {
                    replay.delivered(&delivery(m, now), now);
                }
                now += 1;
            }
            let got: Vec<(Cycle, u64)> = net.sent.iter().map(|s| (s.0, s.1)).collect();
            assert_eq!(got.len(), 1_000, "seed {seed}: every message sent once");
            assert_eq!(got, want, "seed {seed}");
        }
    }
}
