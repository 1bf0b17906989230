//! Open-loop traffic injection.
//!
//! Every node runs an independent Bernoulli message process tuned so the
//! *offered load* — flits per node per cycle — matches the configured
//! value, the standard methodology of the evaluation sections this
//! reproduction regenerates. Sources stop at a configurable horizon so
//! runs can drain and the delivered/offered accounting closes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use wavesim_network::Message;
use wavesim_sim::{Cycle, SimRng};
use wavesim_topology::{NodeId, Topology};

use crate::patterns::{PartnerTable, TrafficPattern};
use crate::{CarpOp, Workload};

/// Message-length distribution, in flits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LengthDist {
    /// Every message has the same length.
    Fixed(u32),
    /// Short/long mix: long with probability `frac_long`. The paper's
    /// short-vs-long discussion (§1, §5) motivates this shape.
    Bimodal {
        /// Short-message length.
        short: u32,
        /// Long-message length.
        long: u32,
        /// Fraction of long messages.
        frac_long: f64,
    },
}

impl LengthDist {
    /// Expected length in flits.
    #[must_use]
    pub fn mean(&self) -> f64 {
        match *self {
            LengthDist::Fixed(l) => f64::from(l),
            LengthDist::Bimodal {
                short,
                long,
                frac_long,
            } => f64::from(short) * (1.0 - frac_long) + f64::from(long) * frac_long,
        }
    }

    /// Draws a length.
    #[must_use]
    pub fn sample(&self, rng: &mut SimRng) -> u32 {
        match *self {
            LengthDist::Fixed(l) => l,
            LengthDist::Bimodal {
                short,
                long,
                frac_long,
            } => {
                if rng.chance(frac_long) {
                    long
                } else {
                    short
                }
            }
        }
    }
}

/// Traffic process configuration.
#[derive(Debug, Clone, Copy)]
pub struct TrafficConfig {
    /// Offered load in flits per node per cycle.
    pub load: f64,
    /// Spatial pattern.
    pub pattern: TrafficPattern,
    /// Message lengths.
    pub len: LengthDist,
    /// RNG seed (drives arrivals, destinations, and lengths).
    pub seed: u64,
    /// Cycle after which sources fall silent (`u64::MAX` = never).
    pub stop_at: Cycle,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        Self {
            load: 0.1,
            pattern: TrafficPattern::Uniform,
            len: LengthDist::Fixed(16),
            seed: 1,
            stop_at: Cycle::MAX,
        }
    }
}

/// Per-node Bernoulli message sources.
///
/// Each node's next message time sits in one calendar, so a poll visits
/// the nodes that fire and no others: its cost follows the messages
/// generated, not the network's size.
pub struct TrafficSource {
    topo: Topology,
    cfg: TrafficConfig,
    /// Each node's arrival, destination and length stream.
    rngs: Vec<SimRng>,
    /// `(next_fire, node)` of every node, earliest first.
    calendar: BinaryHeap<Reverse<(Cycle, u32)>>,
    /// The nodes due in one poll with their fire times (scratch).
    due: Vec<(u32, Cycle)>,
    partners: PartnerTable,
    next_id: u64,
    generated: u64,
}

impl TrafficSource {
    /// Builds sources for every node of `topo`.
    ///
    /// # Panics
    /// Panics unless `0 < load` and the mean message length is positive.
    #[must_use]
    pub fn new(topo: Topology, cfg: TrafficConfig) -> Self {
        assert!(cfg.load > 0.0, "offered load must be positive");
        let mean = cfg.len.mean();
        assert!(mean >= 1.0, "mean message length must be >= 1 flit");
        let p = (cfg.load / mean).min(1.0);
        let root = SimRng::new(cfg.seed);
        let mut first_fires = Vec::with_capacity(topo.num_nodes() as usize);
        let rngs = (0..topo.num_nodes())
            .map(|n| {
                let mut rng = root.split(u64::from(n));
                first_fires.push(Reverse((rng.geometric(p).saturating_sub(1), n)));
                rng
            })
            .collect();
        Self {
            rngs,
            calendar: BinaryHeap::from(first_fires),
            due: Vec::new(),
            partners: PartnerTable::new(cfg.seed),
            topo,
            cfg,
            next_id: 0,
            generated: 0,
        }
    }

    /// Messages generated so far.
    #[must_use]
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Per-cycle message probability per node.
    #[must_use]
    pub fn msg_probability(&self) -> f64 {
        (self.cfg.load / self.cfg.len.mean()).min(1.0)
    }

    /// Collects the messages created at cycle `now` (call once per cycle,
    /// with non-decreasing `now`).
    pub fn poll(&mut self, now: Cycle) -> Vec<Message> {
        let mut out = Vec::new();
        self.fire(now, |m| out.push(m));
        out
    }

    /// Hands `emit` the messages created at cycle `now`: the nodes due by
    /// `now` fire in ascending node order, each as many times as its
    /// arrival process has come due, so ids and order are those of a
    /// sweep over every node.
    fn fire(&mut self, now: Cycle, mut emit: impl FnMut(Message)) {
        if now >= self.cfg.stop_at {
            return;
        }
        while let Some(&Reverse((at, n))) = self.calendar.peek() {
            if at > now {
                break;
            }
            self.calendar.pop();
            self.due.push((n, at));
        }
        self.due.sort_unstable();
        let p = self.msg_probability();
        for &(n, mut next_fire) in &self.due {
            let src = NodeId(n);
            let rng = &mut self.rngs[n as usize];
            while next_fire <= now {
                next_fire += rng.geometric(p).max(1);
                if let Some(dest) = self
                    .cfg
                    .pattern
                    .dest(&self.topo, src, rng, &mut self.partners)
                {
                    let len = self.cfg.len.sample(rng);
                    let id = self.next_id;
                    self.next_id += 1;
                    self.generated += 1;
                    emit(Message::new(id, src, dest, len.max(1), now));
                }
            }
            self.calendar.push(Reverse((next_fire, n)));
        }
        self.due.clear();
    }

    /// Silences all sources from `cycle` on.
    pub fn stop_at(&mut self, cycle: Cycle) {
        self.cfg.stop_at = cycle;
    }
}

/// Every message is a `Send`; the source phase ends at the stop cycle.
impl Workload for TrafficSource {
    fn due(&mut self, now: Cycle, out: &mut Vec<CarpOp>) -> bool {
        self.fire(now, |m| out.push(CarpOp::Send(m)));
        now < self.cfg.stop_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::mesh(&[4, 4])
    }

    /// The source as it was before the calendar: every poll sweeps every
    /// node, and a `HotPairs` pick draws its source's partners afresh.
    struct Sweep {
        topo: Topology,
        cfg: TrafficConfig,
        per_node: Vec<(SimRng, Cycle)>,
        next_id: u64,
    }

    impl Sweep {
        fn new(topo: Topology, cfg: TrafficConfig) -> Self {
            let p = (cfg.load / cfg.len.mean()).min(1.0);
            let root = SimRng::new(cfg.seed);
            let per_node = (0..topo.num_nodes())
                .map(|n| {
                    let mut rng = root.split(u64::from(n));
                    let first = rng.geometric(p).saturating_sub(1);
                    (rng, first)
                })
                .collect();
            Self {
                topo,
                cfg,
                per_node,
                next_id: 0,
            }
        }

        fn poll(&mut self, now: Cycle) -> Vec<Message> {
            let mut out = Vec::new();
            if now >= self.cfg.stop_at {
                return out;
            }
            let p = (self.cfg.load / self.cfg.len.mean()).min(1.0);
            for (n, (rng, next_fire)) in self.per_node.iter_mut().enumerate() {
                let src = NodeId(n as u32);
                while *next_fire <= now {
                    *next_fire += rng.geometric(p).max(1);
                    let fresh = &mut PartnerTable::new(self.cfg.seed);
                    if let Some(dest) = self.cfg.pattern.dest(&self.topo, src, rng, fresh) {
                        let len = self.cfg.len.sample(rng);
                        out.push(Message::new(self.next_id, src, dest, len.max(1), now));
                        self.next_id += 1;
                    }
                }
            }
            out
        }
    }

    /// The calendar fires what the sweep fires, message for message, over
    /// every pattern on a mesh and a torus, at loads up to p = 1 (every
    /// node every cycle), across the `stop_at` horizon, and with polls
    /// that skip cycles.
    #[test]
    fn calendar_fires_what_a_sweep_of_every_node_fires() {
        let patterns = [
            TrafficPattern::Uniform,
            TrafficPattern::Transpose,
            TrafficPattern::Hotspot {
                node: 5,
                fraction: 0.3,
            },
            TrafficPattern::HotPairs {
                partners: 3,
                locality: 0.7,
            },
        ];
        let topos = [Topology::mesh(&[5, 5]), Topology::torus(&[4, 4])];
        // (load, len): p = 0.01, 0.25, 1 (load = mean length), and over 1.
        let loads = [
            (0.16, LengthDist::Fixed(16)),
            (0.5, LengthDist::Fixed(2)),
            (4.0, LengthDist::Fixed(4)),
            (
                30.0,
                LengthDist::Bimodal {
                    short: 2,
                    long: 40,
                    frac_long: 0.25,
                },
            ),
        ];
        let mut gaps = SimRng::new(99);
        for topo in &topos {
            for (i, &pattern) in patterns.iter().enumerate() {
                for (j, &(load, len)) in loads.iter().enumerate() {
                    let cfg = TrafficConfig {
                        load,
                        pattern,
                        len,
                        seed: 1 + (i * 4 + j) as u64,
                        stop_at: 700,
                    };
                    let mut cal = TrafficSource::new(topo.clone(), cfg);
                    let mut sweep = Sweep::new(topo.clone(), cfg);
                    let mut polled = Vec::new();
                    let mut now = 0;
                    while now < 900 {
                        polled.clear();
                        assert_eq!(cal.due(now, &mut polled), now < 700);
                        let want = sweep.poll(now);
                        let key = |m: &Message| (m.id, m.src, m.dest, m.len_flits, m.created_at);
                        let sent = |op: &CarpOp| match op {
                            CarpOp::Send(m) => key(m),
                            other => panic!("a source emits only sends: {other:?}"),
                        };
                        assert_eq!(
                            polled.iter().map(sent).collect::<Vec<_>>(),
                            want.iter().map(key).collect::<Vec<_>>(),
                            "{pattern:?} load {load} at cycle {now}"
                        );
                        // Mostly one cycle at a time; now and then a gap.
                        now += if gaps.chance(0.1) {
                            1 + gaps.below(40)
                        } else {
                            1
                        };
                    }
                    assert_eq!(cal.generated(), sweep.next_id);
                    assert!(cal.generated() > 0, "{pattern:?} load {load} fired");
                }
            }
        }
    }

    #[test]
    fn length_means() {
        assert_eq!(LengthDist::Fixed(16).mean(), 16.0);
        let b = LengthDist::Bimodal {
            short: 8,
            long: 128,
            frac_long: 0.25,
        };
        assert!((b.mean() - 38.0).abs() < 1e-9);
    }

    #[test]
    fn samples_respect_distributions() {
        let mut rng = SimRng::new(5);
        for _ in 0..100 {
            assert_eq!(LengthDist::Fixed(7).sample(&mut rng), 7);
            let b = LengthDist::Bimodal {
                short: 2,
                long: 99,
                frac_long: 0.5,
            }
            .sample(&mut rng);
            assert!(b == 2 || b == 99);
        }
    }

    #[test]
    fn offered_load_is_approximated() {
        let cfg = TrafficConfig {
            load: 0.2,
            len: LengthDist::Fixed(10),
            stop_at: 10_000,
            ..TrafficConfig::default()
        };
        let mut src = TrafficSource::new(topo(), cfg);
        let mut flits = 0u64;
        for now in 0..10_000 {
            for m in src.poll(now) {
                flits += u64::from(m.len_flits);
            }
        }
        // 16 nodes * 10k cycles * 0.2 = 32k flits expected.
        let rate = flits as f64 / (16.0 * 10_000.0);
        assert!(
            (rate - 0.2).abs() < 0.02,
            "offered rate {rate} should approximate 0.2"
        );
    }

    #[test]
    fn sources_stop_at_horizon() {
        let cfg = TrafficConfig {
            stop_at: 100,
            load: 0.5,
            ..TrafficConfig::default()
        };
        let mut src = TrafficSource::new(topo(), cfg);
        let mut after = 0;
        for now in 0..1000 {
            let msgs = src.poll(now);
            if now >= 100 {
                after += msgs.len();
            }
        }
        assert_eq!(after, 0);
    }

    #[test]
    fn deterministic_in_seed() {
        let gen = |seed| {
            let cfg = TrafficConfig {
                seed,
                stop_at: 500,
                ..TrafficConfig::default()
            };
            let mut src = TrafficSource::new(topo(), cfg);
            let mut v = Vec::new();
            for now in 0..500 {
                for m in src.poll(now) {
                    v.push((m.id.0, m.src.0, m.dest.0, m.len_flits, m.created_at));
                }
            }
            v
        };
        assert_eq!(gen(42), gen(42));
        assert_ne!(gen(42), gen(43));
    }

    #[test]
    fn message_ids_unique() {
        let cfg = TrafficConfig {
            load: 0.9,
            stop_at: 300,
            ..TrafficConfig::default()
        };
        let mut src = TrafficSource::new(topo(), cfg);
        let mut seen = std::collections::HashSet::new();
        for now in 0..300 {
            for m in src.poll(now) {
                assert!(seen.insert(m.id), "duplicate id {:?}", m.id);
                assert_eq!(m.created_at, now);
            }
        }
        assert_eq!(seen.len() as u64, src.generated());
    }
}
