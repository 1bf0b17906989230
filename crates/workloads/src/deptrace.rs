//! Dependency-aware message traces.
//!
//! A [`DepTrace`] is a message script whose entries carry explicit
//! *dependency edges*: message `B` with dependencies `[A]` must not be
//! injected before `A` has been **delivered**. This is the natural
//! encoding of application communication — a reduce step cannot start
//! before its children's partial sums arrive, phase `p+1` of a sweep waits
//! for phase `p` — and it makes replay *self-paced*: the trace adapts to
//! whatever latency the network under test exhibits instead of firing on a
//! wall clock recorded on some other machine.
//!
//! Semantics:
//!
//! * a message's `created_at` is its **earliest release** cycle — it is
//!   released at `max(created_at, last dependency delivered + 1)`;
//! * dependencies are by message id and must reference messages present
//!   in the same trace;
//! * the dependency graph must be acyclic — [`DepTraceBuilder::build`]
//!   rejects cycles (a cyclic trace can never finish replaying).
//!
//! A trace is valid by construction: a [`DepTraceBuilder`] takes the
//! messages one by one, each with its dependency ids, and
//! [`DepTraceBuilder::build`] checks them and builds the id index and the
//! dependency graph once, for every [`DepReplay`] of the trace.
//!
//! A trace is flat: a fixed handful of arrays, however many messages it
//! holds, and no heap block per message.
//!
//! * The messages sit in one array, in file order.
//! * Their dependency ids sit in a second, concatenated in file order, with
//!   one end offset per message: message `i`'s ids run from the end of
//!   `i - 1`'s to its own, so its dependency count is that span's length.
//! * The dependents are the same edges reversed, in compressed sparse row
//!   form: one index array and one end offset per message, filled by a
//!   counting sort over the resolved dependencies, each message's
//!   dependents in ascending trace index.
//!
//! A replay copies its `waiting` counts from the offset spans and walks
//! the dependents' rows. Persistence (versioned JSON / JSONL) lives in
//! [`crate::trace_io`]; generators for classic collectives in
//! [`crate::collectives`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use wavesim_network::{Delivery, Message};
use wavesim_sim::Cycle;

use crate::{CarpOp, Workload};

/// Collects the messages of a [`DepTrace`], each with the ids of the
/// messages it depends on, in file order.
#[derive(Debug, Default)]
pub struct DepTraceBuilder {
    messages: Vec<Message>,
    deps: Vec<u64>,
    /// End of each message's span in `deps`.
    dep_end: Vec<u32>,
}

impl DepTraceBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty builder with room for `messages` messages and `deps`
    /// dependency ids in all, so a producer that knows its sizes builds
    /// without regrowing.
    #[must_use]
    pub fn with_capacity(messages: usize, deps: usize) -> Self {
        Self {
            messages: Vec::with_capacity(messages),
            deps: Vec::with_capacity(deps),
            dep_end: Vec::with_capacity(messages),
        }
    }

    /// Appends `msg` (`created_at` = earliest release cycle), released once
    /// every message whose id is in `deps` has been delivered.
    pub fn push(&mut self, msg: Message, deps: &[u64]) {
        self.messages.push(msg);
        self.deps.extend_from_slice(deps);
        // Wraps only past `u32::MAX` ids in all, which `build` refuses.
        self.dep_end.push(self.deps.len() as u32);
    }

    /// Builds the trace and its dependency graph, checking the invariants:
    /// unique message ids, every dependency referencing an id present in
    /// the trace and not the message's own, and an acyclic graph (checked
    /// with Kahn's algorithm, so the error names a message that sits on a
    /// cycle).
    ///
    /// # Errors
    /// Returns a human-readable description of the first violation found,
    /// naming the first offending message in file order.
    pub fn build(self) -> Result<DepTrace, String> {
        let Self {
            messages,
            deps,
            dep_end,
        } = self;
        let n = messages.len();
        if u32::try_from(n).is_err() || u32::try_from(deps.len()).is_err() {
            return Err(format!(
                "dependency trace too large: {n} messages and {} dependency ids \
                 (at most {} of each)",
                deps.len(),
                u32::MAX
            ));
        }
        let mut ids: Vec<(u64, u32)> = messages
            .iter()
            .enumerate()
            .map(|(i, m)| (m.id.0, i as u32))
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
        // Resolve every dependency to its trace index, in file order, and
        // count each message's dependents.
        let mut dep_index: Vec<u32> = Vec::with_capacity(deps.len());
        let mut dependent_end = vec![0u32; n];
        for (i, (m, span)) in messages.iter().zip(spans(&dep_end)).enumerate() {
            let id = m.id.0;
            for &dep in &deps[span] {
                let Some(j) = index_in(&ids, dep) else {
                    return Err(format!("message {id} depends on unknown message id {dep}"));
                };
                if j == i {
                    return Err(format!("message {id} depends on itself"));
                }
                dep_index.push(j as u32);
                dependent_end[j] += 1;
            }
        }
        // Counting sort of the reversed edges: each message's slot starts
        // at the count of the dependents before it, and filling in file
        // order leaves the slot at its row's end.
        let mut start = 0;
        for end in &mut dependent_end {
            let count = *end;
            *end = start;
            start += count;
        }
        let mut dependents = vec![0u32; deps.len()];
        for (i, span) in spans(&dep_end).enumerate() {
            for &j in &dep_index[span] {
                let slot = &mut dependent_end[j as usize];
                dependents[*slot as usize] = i as u32;
                *slot += 1;
            }
        }
        // Freed before the cycle check allocates its own two arrays.
        drop(dep_index);
        let trace = DepTrace {
            messages,
            deps,
            dep_end,
            ids,
            dependents,
            dependent_end,
        };
        trace.check_acyclic()?;
        Ok(trace)
    }
}

/// A dependency-ordered message script and its validated graph, stored
/// flat (see the module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DepTrace {
    /// The messages, in file order. Order carries no semantics beyond
    /// deterministic tie-breaking; release order is set by `created_at`
    /// and the dependency edges.
    messages: Vec<Message>,
    /// Every message's dependency ids, concatenated in file order.
    deps: Vec<u64>,
    /// End of each message's span in `deps`.
    dep_end: Vec<u32>,
    /// `(message id, trace index)`, sorted by id.
    ids: Vec<(u64, u32)>,
    /// Trace indices of the messages that depend on each message,
    /// concatenated in trace order.
    dependents: Vec<u32>,
    /// End of each message's row in `dependents`.
    dependent_end: Vec<u32>,
}

impl DepTrace {
    /// The messages, in file order.
    #[must_use]
    pub fn messages(&self) -> &[Message] {
        &self.messages
    }

    /// Ids of the messages that must be *delivered* before message `i`
    /// (in file order) releases.
    ///
    /// # Panics
    /// Panics when `i` is not below [`len`](Self::len).
    #[must_use]
    pub fn deps(&self, i: usize) -> &[u64] {
        &self.deps[span(&self.dep_end, i)]
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
            .map(|m| m.created_at)
            .max()
            .unwrap_or(0)
    }

    /// Messages with no dependencies (the replay's initially-ready set).
    #[must_use]
    pub fn num_roots(&self) -> usize {
        spans(&self.dep_end).filter(Range::is_empty).count()
    }

    /// A replay of the trace from its start.
    #[must_use]
    pub fn replay(&self) -> DepReplay<'_> {
        let waiting = self.dep_counts();
        let mut ready = Vec::with_capacity(self.len());
        for (i, &w) in waiting.iter().enumerate() {
            if w == 0 {
                ready.push(Reverse((self.messages[i].created_at, i as u32)));
            }
        }
        DepReplay {
            trace: self,
            waiting,
            ready: BinaryHeap::from(ready),
            sent: 0,
        }
    }

    /// Dependency count per trace index: the length of each offset span.
    fn dep_counts(&self) -> Vec<u32> {
        spans(&self.dep_end).map(|s| s.len() as u32).collect()
    }

    /// Trace indices of the messages that depend on message `i`.
    fn dependents_of(&self, i: usize) -> &[u32] {
        &self.dependents[span(&self.dependent_end, i)]
    }

    /// Kahn's topological sort over dep -> dependent edges. Anything left
    /// with undelivered dependencies afterwards sits on (or behind) a
    /// dependency cycle; the error names the smallest such id.
    fn check_acyclic(&self) -> Result<(), String> {
        let mut left = self.dep_counts();
        let mut queue = Vec::with_capacity(self.len());
        queue.extend((0..self.len() as u32).filter(|&i| left[i as usize] == 0));
        while let Some(i) = queue.pop() {
            for &d in self.dependents_of(i as usize) {
                left[d as usize] -= 1;
                if left[d as usize] == 0 {
                    queue.push(d);
                }
            }
        }
        let stuck = (0..self.len())
            .filter(|&i| left[i] > 0)
            .map(|i| self.messages[i].id.0)
            .min();
        match stuck {
            Some(stuck) => Err(format!(
                "cyclic dependency: message {stuck} can never be released \
                 (it waits, directly or transitively, on itself)"
            )),
            None => Ok(()),
        }
    }
}

/// Row `i` of an end-offset array: from the previous row's end to its own.
fn span(ends: &[u32], i: usize) -> Range<usize> {
    let start = i.checked_sub(1).map_or(0, |p| ends[p]);
    start as usize..ends[i] as usize
}

/// Every row of an end-offset array, in order (an exact-size iterator, so
/// collecting it allocates once).
fn spans(ends: &[u32]) -> impl ExactSizeIterator<Item = Range<usize>> + '_ {
    let mut start = 0;
    ends.iter().map(move |&end| {
        let row = start as usize..end as usize;
        start = end;
        row
    })
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
    /// Undelivered dependencies per trace index, copied from the trace's
    /// offset spans.
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
            let m = self.trace.messages[i as usize];
            out.push(CarpOp::Send(Message {
                created_at: now,
                ..m
            }));
            self.sent += 1;
        }
        self.sent < self.trace.len()
    }

    fn delivered(&mut self, d: &Delivery, now: Cycle) {
        let trace = self.trace;
        let Some(i) = index_in(&trace.ids, d.msg.id.0) else {
            return;
        };
        for &j in trace.dependents_of(i) {
            let j = j as usize;
            self.waiting[j] -= 1;
            if self.waiting[j] == 0 {
                let release = trace.messages[j].created_at.max(now + 1);
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

    /// A trace of `(id, src, dest, deps)` messages, in this order.
    fn build(msgs: &[(u64, u32, u32, &[u64])]) -> Result<DepTrace, String> {
        let mut b = DepTraceBuilder::new();
        for &(id, src, dest, deps) in msgs {
            b.push(msg(id, src, dest), deps);
        }
        b.build()
    }

    #[test]
    fn diamond_is_valid() {
        let t = build(&[
            (0, 0, 1, &[]),
            (1, 1, 2, &[0]),
            (2, 1, 3, &[0]),
            (3, 2, 0, &[1, 2]),
        ])
        .unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(t.num_roots(), 1);
        assert_eq!(t.horizon(), 0);
    }

    #[test]
    fn duplicate_ids_rejected() {
        let err = build(&[(7, 0, 1, &[]), (7, 1, 2, &[])]).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn unknown_dependency_rejected() {
        let err = build(&[(0, 0, 1, &[99])]).unwrap_err();
        assert!(err.contains("unknown"), "{err}");
    }

    #[test]
    fn self_dependency_rejected() {
        let err = build(&[(0, 0, 1, &[0])]).unwrap_err();
        assert!(err.contains("itself"), "{err}");
    }

    #[test]
    fn two_cycle_rejected_with_clear_error() {
        let err = build(&[(0, 0, 1, &[1]), (1, 1, 2, &[0])]).unwrap_err();
        assert!(err.contains("cyclic"), "{err}");
        assert!(err.contains('0'), "names a cycle member: {err}");
    }

    #[test]
    fn long_cycle_behind_valid_prefix_rejected() {
        // 0 is fine; 1 -> 2 -> 3 -> 1 is a cycle.
        let err = build(&[
            (0, 0, 1, &[]),
            (1, 1, 2, &[3]),
            (2, 2, 3, &[1]),
            (3, 3, 0, &[2]),
        ])
        .unwrap_err();
        assert!(err.contains("cyclic"), "{err}");
    }

    #[test]
    fn empty_trace_is_valid() {
        let t = DepTraceBuilder::new().build().unwrap();
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
            id2idx.insert(m.id.0, i as u32);
        }
        let mut indegree = vec![0u32; n];
        let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, count) in indegree.iter_mut().enumerate() {
            for dep in trace.deps(i) {
                let j = *id2idx.get(dep).expect("validated trace: deps resolve");
                *count += 1;
                dependents[j as usize].push(i as u32);
            }
        }
        let mut ready = BinaryHeap::with_capacity(n);
        for (i, m) in messages.iter().enumerate() {
            if indegree[i] == 0 {
                ready.push(Reverse((m.created_at, i as u32)));
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
                let m = &messages[idx as usize];
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
                        let release = messages[j as usize].created_at.max(now + 1);
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
        let mut messages: Vec<(Message, Vec<u64>)> = (0..n)
            .map(|k| {
                let src = rng.below(16) as u32;
                let dest = (src + 1 + rng.below(15) as u32) % 16;
                let mut m = msg(ids[k], src, dest);
                m.created_at = rng.below(3_000);
                let mut deps = Vec::new();
                for _ in 0..rng.below(4) {
                    if k > 0 {
                        deps.push(ids[rng.index(k)]);
                    }
                }
                (m, deps)
            })
            .collect();
        for i in (1..n).rev() {
            messages.swap(i, rng.index(i + 1));
        }
        let mut b = DepTraceBuilder::new();
        for (m, deps) in &messages {
            b.push(*m, deps);
        }
        b.build().unwrap()
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
