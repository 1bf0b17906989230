//! E6 — the replacement algorithm (Fig. 5's `Replace` field).
//!
//! "When a circuit is being established and all the requested channels
//! have been previously reserved by other circuits, a replacement
//! algorithm selects a circuit" (§3.1) — and the same algorithm chooses
//! source-side evictions when the Circuit Cache register file fills.
//! This experiment puts the cache under pressure (more partners than
//! registers) and compares LRU, LFU, FIFO, and Random.

use wavesim_core::{ProtocolKind, ReplacementPolicy, WaveConfig};
use wavesim_workloads::{LengthDist, TrafficPattern};

use crate::experiments::Ctx;
use crate::table::{f2, pct};
use crate::Table;

/// Runs E6.
#[must_use]
pub fn run(ctx: &Ctx) -> Table {
    let scale = ctx.scale;
    let mut t = Table::new(
        "E6",
        "circuit-cache replacement algorithms under register pressure",
        &[
            "policy",
            "cache size",
            "hit rate",
            "evictions",
            "avg lat",
            "circuit%",
        ],
    );
    let policies = [
        ("LRU", ReplacementPolicy::Lru),
        ("LFU", ReplacementPolicy::Lfu),
        ("FIFO", ReplacementPolicy::Fifo),
        ("Random", ReplacementPolicy::Random),
    ];
    // Keep the sweep inside the lane-feasible region: total steady-state
    // demand is nodes · cache_size · avg_hops lanes, which must stay below
    // links · k or lane contention (not the register file) becomes the
    // binding constraint and all policies tie. For an 8×8 mesh with k = 4
    // that bound is ~2.6 entries/node.
    let sizes = scale.sweep(&[1usize, 2, 3]);

    for &(name, policy) in &policies {
        for &size in &sizes {
            let cfg = WaveConfig {
                protocol: ProtocolKind::Clrp,
                replacement: policy,
                cache_capacity: size,
                // Plenty of wave switches: lane contention stays low, so
                // the register-file pressure (6 partners vs `size` entries)
                // is what the policies compete on.
                k: 4,
                ..WaveConfig::default()
            };
            let mut net = crate::experiments::net_with(scale.side, cfg);
            let r = ctx.open_loop(
                &mut net,
                0.10,
                TrafficPattern::HotPairs {
                    partners: 6,
                    locality: 0.9,
                },
                LengthDist::Fixed(48),
                66,
            );
            t.push(vec![
                name.into(),
                size.to_string(),
                pct(r.wave.hit_rate()),
                r.wave.cache_evictions.to_string(),
                f2(r.avg_latency),
                pct(r.circuit_fraction),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn bigger_caches_hit_more() {
        let t = run(&Ctx::unobserved(Scale::small(), 1));
        let parse_pct = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        // Within the LRU rows, hit rate must not decrease with size.
        let lru: Vec<&Vec<String>> = t.rows.iter().filter(|r| r[0] == "LRU").collect();
        assert!(lru.len() >= 2);
        let first = parse_pct(&lru.first().unwrap()[2]);
        let last = parse_pct(&lru.last().unwrap()[2]);
        assert!(
            last + 5.0 >= first,
            "hit rate should grow (or hold) with cache size: {first}% -> {last}%"
        );
        // Every policy row ran and evicted something at the smallest size.
        for row in t.rows.iter().filter(|r| r[1] == "1") {
            let ev: u64 = row[3].parse().unwrap();
            assert!(ev > 0, "size-1 cache must evict under 6 partners: {row:?}");
        }
    }
}
