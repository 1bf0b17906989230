//! Open-loop traffic injection.
//!
//! Every node runs an independent Bernoulli message process tuned so the
//! *offered load* — flits per node per cycle — matches the configured
//! value, the standard methodology of the evaluation sections this
//! reproduction regenerates. Sources stop at a configurable horizon so
//! runs can drain and the delivered/offered accounting closes.

use wavesim_network::Message;
use wavesim_sim::{Cycle, SimRng};
use wavesim_topology::{NodeId, Topology};

use crate::patterns::TrafficPattern;

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
pub struct TrafficSource {
    topo: Topology,
    cfg: TrafficConfig,
    per_node: Vec<NodeSource>,
    next_id: u64,
    generated: u64,
}

struct NodeSource {
    rng: SimRng,
    next_fire: Cycle,
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
        let per_node = (0..topo.num_nodes())
            .map(|n| {
                let mut rng = root.split(u64::from(n));
                let first = rng.geometric(p).saturating_sub(1);
                NodeSource {
                    rng,
                    next_fire: first,
                }
            })
            .collect();
        Self {
            topo,
            cfg,
            per_node,
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
        if now >= self.cfg.stop_at {
            return out;
        }
        let p = self.msg_probability();
        for n in 0..self.per_node.len() {
            while self.per_node[n].next_fire <= now {
                let src = NodeId(n as u32);
                let ns = &mut self.per_node[n];
                ns.next_fire += ns.rng.geometric(p).max(1);
                if let Some(dest) =
                    self.cfg
                        .pattern
                        .dest(&self.topo, src, &mut ns.rng, self.cfg.seed)
                {
                    let len = self.cfg.len.sample(&mut ns.rng);
                    let id = self.next_id;
                    self.next_id += 1;
                    self.generated += 1;
                    out.push(Message::new(id, src, dest, len.max(1), now));
                }
            }
        }
        out
    }

    /// Silences all sources from `cycle` on.
    pub fn stop_at(&mut self, cycle: Cycle) {
        self.cfg.stop_at = cycle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::mesh(&[4, 4])
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
