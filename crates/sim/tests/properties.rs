//! Randomized-but-deterministic tests of the simulation kernel's
//! contracts. Each case sweeps many configurations drawn from a seeded
//! [`SimRng`], so the coverage is property-style while the run is exactly
//! reproducible (the offline build has no property-testing framework).

use std::collections::BinaryHeap;

use wavesim_sim::stats::{Accumulator, Histogram};
use wavesim_sim::time::cycles_for;
use wavesim_sim::{EventQueue, ScheduledEvent, SimRng};

/// Popping returns events sorted by time, FIFO within a timestamp,
/// regardless of the schedule order.
#[test]
fn event_queue_is_a_stable_priority_queue() {
    let mut rng = SimRng::new(0xbeef);
    for case in 0..50 {
        let n = 1 + rng.index(200);
        let mut q = EventQueue::new();
        for i in 0..n {
            let t = rng.below(1_000);
            q.schedule(t, (t, i));
        }
        let mut popped = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e.event);
        }
        assert_eq!(popped.len(), n, "case {case}");
        for w in popped.windows(2) {
            let (t1, i1) = w[0];
            let (t2, i2) = w[1];
            assert!(
                t1 < t2 || (t1 == t2 && i1 < i2),
                "case {case}: order violated: ({t1},{i1}) before ({t2},{i2})"
            );
        }
    }
}

/// Interleaved scheduling and popping never reorders already-due work.
#[test]
fn event_queue_interleaved() {
    let mut rng = SimRng::new(0xcafe);
    for _ in 0..50 {
        let ops = 1 + rng.index(100);
        let mut q = EventQueue::new();
        let mut clock = 0u64;
        let mut last: Option<u64> = None;
        for _ in 0..ops {
            if rng.chance(0.5) {
                if let Some(e) = q.pop() {
                    if let Some(prev) = last {
                        assert!(e.at >= prev);
                    }
                    last = Some(e.at);
                    clock = clock.max(e.at);
                }
            } else {
                q.schedule(clock + rng.below(100), ());
            }
        }
    }
}

/// The calendar wheel is a `BinaryHeap<ScheduledEvent>` to every caller:
/// a seeded mix of operations, with delays inside the wheel (0–3), across
/// its edge (60–70) and far past it (up to 5,000), and idle jumps where
/// the queue drains and the next event is far ahead, gives the same
/// `(at, seq, event)`, `next_time` and `len` as the heap after every step.
#[test]
fn event_queue_matches_a_binary_heap_oracle() {
    let mut rng = SimRng::new(0x0ca1);
    for case in 0..40 {
        let mut q = EventQueue::new();
        let mut oracle: BinaryHeap<ScheduledEvent<u64>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for step in 0..2_000u64 {
            let roll = rng.below(100);
            if roll < 45 {
                let delay = match rng.below(10) {
                    0..=5 => rng.below(4),
                    6 | 7 => 60 + rng.below(11),
                    _ => rng.below(5_001),
                };
                q.schedule(now + delay, step);
                oracle.push(ScheduledEvent {
                    at: now + delay,
                    seq,
                    event: step,
                });
                seq += 1;
            } else if roll < 70 {
                let got = q.pop();
                let want = oracle.pop();
                assert_eq!(key(&got), key(&want), "case {case} step {step}: pop");
                if let Some(e) = want {
                    now = e.at;
                }
            } else if roll < 95 {
                let due = now + rng.below(8);
                let got = q.pop_due(due);
                let want = if oracle.peek().is_some_and(|e| e.at <= due) {
                    oracle.pop()
                } else {
                    None
                };
                assert_eq!(key(&got), key(&want), "case {case} step {step}: pop_due");
                if let Some(e) = want {
                    now = e.at;
                }
            } else if roll < 98 {
                // Idle jump: drain everything, then schedule far ahead.
                while let Some(want) = oracle.pop() {
                    now = want.at;
                    assert_eq!(key(&q.pop()), key(&Some(want)), "case {case}");
                }
                assert!(q.pop().is_none());
                let at = now + 1_000 + rng.below(100_000);
                q.schedule(at, step);
                oracle.push(ScheduledEvent {
                    at,
                    seq,
                    event: step,
                });
                seq += 1;
            } else {
                q.clear();
                oracle.clear();
            }
            assert_eq!(
                q.next_time(),
                oracle.peek().map(|e| e.at),
                "case {case} step {step}: next_time"
            );
            assert_eq!(q.len(), oracle.len(), "case {case} step {step}: len");
            assert_eq!(q.is_empty(), oracle.is_empty());
        }
        assert_eq!(q.scheduled_total(), seq, "case {case}");
    }
}

/// `pop_due(now)` is `next_time` then `pop`, fused: two calendars fed
/// the same seeded schedule — delays inside the wheel, across its edge
/// and far past it into the heap — and driven the way a simulator drives
/// them, with `now` stepping by one cycle or jumping far ahead (a window
/// advance), hand out the same events at every step.
#[test]
fn pop_due_is_next_time_then_pop() {
    let mut rng = SimRng::new(0x90d0e);
    for case in 0..40 {
        let (mut fused, mut split) = (EventQueue::new(), EventQueue::new());
        let mut now = 0u64;
        for step in 0..1_500u64 {
            for _ in 0..rng.below(4) {
                let delay = match rng.below(10) {
                    0..=5 => rng.below(4),
                    6 | 7 => 60 + rng.below(11),
                    _ => rng.below(5_001),
                };
                fused.schedule(now + delay, step);
                split.schedule(now + delay, step);
            }
            loop {
                let got = fused.pop_due(now);
                let want = if split.next_time().is_some_and(|t| t <= now) {
                    split.pop()
                } else {
                    None
                };
                assert_eq!(key(&got), key(&want), "case {case} step {step}");
                if want.is_none() {
                    break;
                }
            }
            assert_eq!(
                fused.next_time(),
                split.next_time(),
                "case {case} step {step}"
            );
            now += if rng.chance(0.05) {
                64 + rng.below(3_000)
            } else {
                1
            };
        }
        assert_eq!(fused.len(), split.len(), "case {case}");
    }
}

fn key(e: &Option<ScheduledEvent<u64>>) -> Option<(u64, u64, u64)> {
    e.as_ref().map(|e| (e.at, e.seq, e.event))
}

/// `cycles_for` is the exact ceiling of flits·den/num.
#[test]
fn cycles_for_is_exact_ceiling() {
    let mut rng = SimRng::new(0xf00d);
    for _ in 0..2_000 {
        let flits = rng.below(1_000_000);
        let num = 1 + rng.below(63);
        let den = 1 + rng.below(63);
        let c = cycles_for(flits, num, den);
        // c cycles at num/den flits per cycle move at least `flits` flits...
        assert!(c * num >= flits * den);
        // ...and c-1 cycles do not (when c > 0).
        if c > 0 {
            assert!((c - 1) * num < flits * den);
        }
    }
}

/// Merging accumulators in any split equals accumulating everything.
#[test]
fn accumulator_merge_invariant() {
    let mut rng = SimRng::new(0x5eed);
    for _ in 0..50 {
        let n = 1 + rng.index(200);
        let xs: Vec<f64> = (0..n).map(|_| (rng.unit() - 0.5) * 2e6).collect();
        let split = rng.index(n);
        let mut all = Accumulator::new();
        let mut a = Accumulator::new();
        let mut b = Accumulator::new();
        for (i, &x) in xs.iter().enumerate() {
            all.record(x);
            if i < split {
                a.record(x);
            } else {
                b.record(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-6 * (1.0 + all.mean().abs()));
        assert!((a.variance() - all.variance()).abs() < 1e-3 * (1.0 + all.variance()));
    }
}

/// Histogram quantile bounds bracket the true quantiles and merging
/// preserves counts.
#[test]
fn histogram_quantiles_bracket() {
    let mut rng = SimRng::new(0xd1ce);
    for _ in 0..50 {
        let n = 1 + rng.index(300);
        let xs: Vec<u64> = (0..n).map(|_| rng.below(1_000_000)).collect();
        let mut h = Histogram::new();
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        for &x in &xs {
            h.record(x);
        }
        assert_eq!(h.count(), xs.len() as u64);
        for &q in &[0.5, 0.9, 0.99, 1.0] {
            let bound = h.quantile_bound(q);
            let idx = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len()) - 1;
            assert!(
                bound >= sorted[idx],
                "q={q}: bound {bound} below true quantile {}",
                sorted[idx]
            );
        }
        // Merge with itself doubles the count, same max bucket.
        let mut h2 = h.clone();
        h2.merge(&h);
        assert_eq!(h2.count(), 2 * h.count());
        assert_eq!(h2.quantile_bound(1.0), h.quantile_bound(1.0));
    }
}
