//! Span recording around calls into the simulator's public functions.
//!
//! The benchmark measures every layer from outside: a [`Probe`] wraps each
//! call, and the two implementations make the traced and the untraced loop
//! the same code. [`Off`] compiles to the bare call; [`Tracer`] appends one
//! [`Span`] per call to a pre-sized in-memory buffer that is aggregated and
//! written out only when the run has ended.

use std::collections::BTreeMap;
use std::time::Instant;

use wavesim_json::Value;

/// Wraps calls into a layer.
pub trait Probe {
    /// Runs `f` as one span named `name`, a child of the span now open.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R;

    /// Tags the spans that follow with the simulated cycle they belong to.
    fn at_cycle(&mut self, _cycle: u64) {}
}

/// The untraced probe: every span is just the call.
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn span<R>(&mut self, _name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }
}

/// Marks "no parent" and "no cycle".
const NONE: u64 = u64::MAX;

/// One timed call: what, when (nanoseconds since the tracer started),
/// caused by which span, during which simulated cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, [`u64::MAX`] for a root.
    pub parent: u64,
    /// Simulated cycle, [`u64::MAX`] outside the cycle loop.
    pub cycle: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a span buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Aggregate {
    pub count: u64,
    pub total_s: f64,
    /// Total minus the part covered by child spans.
    pub self_s: f64,
    pub max_s: f64,
}

/// The recording probe.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: u64,
    cycle: u64,
}

impl Tracer {
    /// A tracer with room for `capacity` spans before its buffer grows.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: NONE,
            cycle: NONE,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum();
        ns as f64 / 1e9
    }
}

impl Probe for Tracer {
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len() as u64;
        let parent = std::mem::replace(&mut self.open, idx);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            cycle: self.cycle,
        });
        let out = f(self);
        self.spans[idx as usize].end_ns = self.now_ns();
        self.open = parent;
        out
    }

    fn at_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
    }
}

/// Count, total, self time and longest single span per name.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Aggregate> {
    let mut in_children = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NONE {
            in_children[s.parent as usize] += s.ns();
        }
    }
    let mut out: BTreeMap<&'static str, Aggregate> = BTreeMap::new();
    for (s, &children_ns) in spans.iter().zip(&in_children) {
        let a = out.entry(s.name).or_default();
        let secs = s.ns() as f64 / 1e9;
        a.count += 1;
        a.total_s += secs;
        a.self_s += s.ns().saturating_sub(children_ns) as f64 / 1e9;
        a.max_s = a.max_s.max(secs);
    }
    out
}

/// Share of the root span `root` that its direct children cover: the
/// attribution gate (the ROADMAP asks for at least 0.95).
pub fn coverage(spans: &[Span], root: &str) -> f64 {
    let Some(root_idx) = spans.iter().position(|s| s.name == root) else {
        return 0.0;
    };
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent == root_idx as u64)
        .map(Span::ns)
        .sum();
    match spans[root_idx].ns() {
        0 => 0.0,
        root_ns => covered as f64 / root_ns as f64,
    }
}

/// The span file of one traced run: the aggregate, plus the raw spans of
/// everything outside the cycle loop and of every 64th cycle inside it.
pub fn dump(spans: &[Span], run_id: &str) -> Value {
    let opt = |x: u64| if x == NONE { Value::Null } else { x.into() };
    let aggregate = aggregate(spans)
        .into_iter()
        .map(|(name, a)| {
            Value::obj(vec![
                ("name", name.into()),
                ("count", a.count.into()),
                ("total_s", a.total_s.into()),
                ("self_s", a.self_s.into()),
                ("max_s", a.max_s.into()),
            ])
        })
        .collect();
    let raw = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.cycle == NONE || s.cycle % 64 == 0)
        .map(|(i, s)| {
            Value::obj(vec![
                ("id", (i as u64).into()),
                ("name", s.name.into()),
                ("start_ns", s.start_ns.into()),
                ("end_ns", s.end_ns.into()),
                ("parent", opt(s.parent)),
                ("cycle", opt(s.cycle)),
            ])
        })
        .collect();
    Value::obj(vec![
        ("run", run_id.into()),
        ("spans_recorded", (spans.len() as u64).into()),
        ("aggregate", Value::Arr(aggregate)),
        ("spans", Value::Arr(raw)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            cycle: NONE,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // root 0..1000 ns
        //   a 100..400        (child of root)
        //     b 150..250      (nested in a)
        //   a 400..600        (adjacent to the first a)
        //   c 600..600        (empty)
        let spans = [
            span("root", 0, 1000, NONE),
            span("a", 100, 400, 0),
            span("b", 150, 250, 1),
            span("a", 400, 600, 0),
            span("c", 600, 600, 0),
        ];
        let agg = aggregate(&spans);
        let ns = |s: f64| (s * 1e9).round() as u64;
        assert_eq!(agg["root"].count, 1);
        assert_eq!(ns(agg["root"].total_s), 1000);
        assert_eq!(ns(agg["root"].self_s), 500, "1000 - (300 + 200 + 0)");
        assert_eq!(agg["a"].count, 2);
        assert_eq!(ns(agg["a"].total_s), 500);
        assert_eq!(ns(agg["a"].self_s), 400, "b's 100 ns come off the first a");
        assert_eq!(ns(agg["a"].max_s), 300);
        assert_eq!(ns(agg["b"].self_s), 100);
        assert_eq!((agg["c"].count, agg["c"].total_s), (1, 0.0));
        // Grandchildren do not count twice towards the root's coverage.
        assert!((coverage(&spans, "root") - 0.5).abs() < 1e-12);
        assert_eq!(coverage(&spans, "missing"), 0.0);
    }

    #[test]
    fn tracer_records_parents_and_cycles() {
        let mut t = Tracer::with_capacity(8);
        let v = t.span("outer", |t| {
            t.at_cycle(64);
            t.span("inner", |_| 7) + t.span("inner", |_| 1)
        });
        assert_eq!(v, 8);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent, s[0].cycle), ("outer", NONE, NONE));
        assert_eq!((s[1].name, s[1].parent, s[1].cycle), ("inner", 0, 64));
        assert_eq!(s[2].parent, 0);
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert!(s[1].end_ns <= s[2].start_ns);
        assert!(t.total_s("inner") <= t.total_s("outer"));
        // `Off` runs the same closure and records nothing.
        assert_eq!(Off.span("outer", |p| p.span("inner", |_| 8)), 8);
    }

    #[test]
    fn dump_keeps_every_64th_cycle_and_everything_outside_the_loop() {
        let mut spans = vec![span("setup", 0, 10, NONE)];
        for cycle in 0..130 {
            spans.push(Span {
                cycle,
                ..span("tick", 10 + cycle, 11 + cycle, NONE)
            });
        }
        let v = dump(&spans, "w-1");
        let raw = v["spans"].as_array().unwrap();
        let cycles: Vec<Option<u64>> = raw.iter().map(|s| s["cycle"].as_u64()).collect();
        assert_eq!(cycles, [None, Some(0), Some(64), Some(128)]);
        assert_eq!(v["spans_recorded"].as_u64(), Some(131));
        assert_eq!(v["aggregate"].as_array().unwrap().len(), 2);
        assert_eq!(Value::parse(&v.pretty()).unwrap(), v);
    }
}
