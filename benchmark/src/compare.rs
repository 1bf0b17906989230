//! `wavebench compare A.json B.json`: is B worse than A anywhere?
//!
//! For every (workload, end-to-end metric) pair both files hold, the rule
//! of the choosing-metrics guide: B's median may be worse than A's by at
//! most the metric's bound; where A's own repeats spread wider than the
//! bound the pair is unresolved, unless every run of B beats every run of
//! A.

use crate::metrics::{self, Better, EndToEnd};
use crate::report::RunFile;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than either set's quartile
    /// distance, or every run of B beats every run of A.
    Better,
    /// No worse than the bound allows, no better than noise.
    Within,
    /// Worse by more than the bound (and the floor).
    Worse,
    /// A's repeats spread wider than the bound: this pair cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric's repeats in B against those in A.
pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> Option<Verdict> {
    let (sa, sb) = (Summary::of(a)?, Summary::of(b)?);
    // How much worse B's median is, in the metric's own unit (negative:
    // better).
    let worse_by = match m.better {
        Better::Lower => sb.median - sa.median,
        Better::Higher => sa.median - sb.median,
    };
    let b_always_wins = match m.better {
        Better::Lower => sb.max < sa.min,
        Better::Higher => sb.min > sa.max,
    };
    // Noise: the wider of the two sets' quartile distances.
    let iqr = (sa.q3 - sa.q1).max(sb.q3 - sb.q1);
    Some(if worse_by.abs() <= m.floor {
        Verdict::Within
    } else if b_always_wins {
        Verdict::Better
    } else if sa.spread() > m.bound && m.bound > 0.0 {
        Verdict::Unresolved
    } else if worse_by > m.bound * sa.median.abs() {
        Verdict::Worse
    } else if -worse_by > iqr {
        Verdict::Better
    } else {
        Verdict::Within
    })
}

/// One judged pair.
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: Summary,
    pub b: Summary,
    pub verdict: Verdict,
}

/// Every (workload, end-to-end metric) pair both files hold, and the
/// workloads whose simulated results differ.
pub fn compare(a: &RunFile, b: &RunFile) -> (Vec<Row>, Vec<String>) {
    let mut rows = Vec::new();
    let mut changed = Vec::new();
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            continue;
        };
        if wa.fingerprint != wb.fingerprint {
            changed.push(wa.name.clone());
        }
        for sa in &wa.end_to_end {
            let (Some(m), Some(sb)) = (
                metrics::end_to_end(&sa.name),
                wb.end_to_end.iter().find(|s| s.name == sa.name),
            ) else {
                continue;
            };
            if let (Some(verdict), Some(a), Some(b)) =
                (judge(m, &sa.values, &sb.values), sa.summary(), sb.summary())
            {
                rows.push(Row {
                    workload: wa.name.clone(),
                    metric: m.name,
                    a,
                    b,
                    verdict,
                });
            }
        }
    }
    (rows, changed)
}

/// Prints the table; true when no pair is worse.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (RunFile::load(path_a)?, RunFile::load(path_b)?);
    for (label, f, path) in [("A", &a, path_a), ("B", &b, path_b)] {
        println!(
            "{label}: {path}  seed {}  {} repeats  {}",
            f.seed,
            f.repeats,
            f.stamp.compact()
        );
    }
    if a.stamp["cpu_model"] != b.stamp["cpu_model"] || a.stamp["cpus"] != b.stamp["cpus"] {
        println!("note: A and B were measured on different machines; host times do not compare");
    }
    let (rows, changed) = compare(&a, &b);
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "A iqr", "bound"
    );
    for r in &rows {
        let bound = metrics::end_to_end(r.metric).map_or(0.0, |m| m.bound);
        let change = if r.a.median == 0.0 {
            0.0
        } else {
            (r.b.median - r.a.median) / r.a.median.abs()
        };
        println!(
            "{:<14} {:<20} {:>14.6} {:>14.6} {:>+7.2}% {:>6.2}% {:>6.2}%  {}",
            r.workload,
            r.metric,
            r.a.median,
            r.b.median,
            change * 100.0,
            r.a.spread() * 100.0,
            bound * 100.0,
            r.verdict.as_str()
        );
    }
    for w in &changed {
        println!("note: {w}: sim_fingerprint differs — the simulated results changed");
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} pairs: {} better, {} within, {} worse, {} unresolved",
        rows.len(),
        count(Verdict::Better),
        count(Verdict::Within),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    Ok(count(Verdict::Worse) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        metrics::end_to_end(name).unwrap()
    }

    /// Five repeats around `centre`, quartiles `spread` apart (as a share).
    fn around(centre: f64, spread: f64) -> Vec<f64> {
        [-1.0, -0.5, 0.0, 0.5, 1.0]
            .iter()
            .map(|k| centre * (1.0 + k * spread * 2.0 / 3.0))
            .collect()
    }

    #[test]
    fn verdict_table() {
        let wall = metric("wall_s"); // lower is better, bound 25 %
        let tight = around(1.0, 0.02);
        assert!((Summary::of(&tight).unwrap().spread() - 0.02).abs() < 1e-9);
        let cases = [
            (around(1.0, 0.02), Verdict::Within),
            (around(1.20, 0.02), Verdict::Within), // worse, inside the bound
            (around(1.30, 0.02), Verdict::Worse),
            (around(0.985, 0.02), Verdict::Within), // better, inside A's noise
            (around(0.95, 0.02), Verdict::Better),  // beyond the quartile distances
            (around(0.5, 0.02), Verdict::Better),
        ];
        for (b, want) in cases {
            assert_eq!(judge(wall, &tight, &b), Some(want), "B = {b:?}");
        }

        // Higher is better: the same table mirrored.
        let rate = metric("sim_cycles_per_s");
        let a = around(1000.0, 0.02);
        assert_eq!(judge(rate, &a, &around(700.0, 0.02)), Some(Verdict::Worse));
        assert_eq!(judge(rate, &a, &around(900.0, 0.02)), Some(Verdict::Within));
        assert_eq!(
            judge(rate, &a, &around(1100.0, 0.02)),
            Some(Verdict::Better)
        );

        // An improvement inside B's own noise is no improvement.
        assert_eq!(
            judge(wall, &tight, &around(0.95, 0.08)),
            Some(Verdict::Within)
        );
        assert_eq!(judge(wall, &[], &tight), None);
    }

    #[test]
    fn noisy_baseline_is_unresolved_unless_b_always_wins() {
        let wall = metric("wall_s");
        let noisy = around(1.0, 0.30); // spread beyond the 15 % bound
        assert_eq!(
            judge(wall, &noisy, &around(1.25, 0.02)),
            Some(Verdict::Unresolved)
        );
        assert_eq!(
            judge(wall, &noisy, &around(0.95, 0.02)),
            Some(Verdict::Unresolved)
        );
        // Every run of B below every run of A: resolved after all.
        assert_eq!(
            judge(wall, &noisy, &around(0.5, 0.02)),
            Some(Verdict::Better)
        );
    }

    #[test]
    fn floors_and_exact_counts() {
        // setup_s: 25 % bound but a 5 ms floor — 1 ms against 3 ms is
        // timer noise, 100 ms against 150 ms is not.
        let setup = metric("setup_s");
        assert_eq!(
            judge(setup, &[0.001; 5], &[0.003; 5]),
            Some(Verdict::Within)
        );
        assert_eq!(judge(setup, &[0.100; 5], &[0.150; 5]), Some(Verdict::Worse));
        // peak_rss_mb: 1 MB floor.
        let rss = metric("peak_rss_mb");
        assert_eq!(judge(rss, &[4.0; 5], &[4.9; 5]), Some(Verdict::Within));
        assert_eq!(judge(rss, &[40.0; 5], &[52.0; 5]), Some(Verdict::Worse));
        // A count that repeats exactly has no spread: any drop is better,
        // a rise inside the bound is within, beyond it worse.
        let allocs = metric("alloc_count");
        assert_eq!(
            judge(allocs, &[1000.0; 5], &[999.0; 5]),
            Some(Verdict::Better)
        );
        assert_eq!(
            judge(allocs, &[1000.0; 5], &[1000.0; 5]),
            Some(Verdict::Within)
        );
        assert_eq!(
            judge(allocs, &[1000.0; 5], &[1050.0; 5]),
            Some(Verdict::Within)
        );
        assert_eq!(
            judge(allocs, &[1000.0; 5], &[1200.0; 5]),
            Some(Verdict::Worse)
        );
        // failed_ratio: bound 0 — any failure at all is worse.
        let failed = metric("failed_ratio");
        assert_eq!(judge(failed, &[0.0; 5], &[0.0; 5]), Some(Verdict::Within));
        assert_eq!(judge(failed, &[0.0; 5], &[0.001; 5]), Some(Verdict::Worse));
        // Simulated latency: 1 % bound.
        let lat = metric("sim_latency_cycles");
        assert_eq!(judge(lat, &[143.4; 5], &[143.4; 5]), Some(Verdict::Within));
        assert_eq!(judge(lat, &[143.4; 5], &[146.0; 5]), Some(Verdict::Worse));
    }
}
