//! Order statistics over a handful of repeats.

/// Five-number summary of one metric's repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (&min, &max) = (v.first()?, v.last()?);
        let [q1, median, q3] = quartiles_sorted(&v);
        Some(Summary {
            n: v.len(),
            min,
            q1,
            median,
            q3,
            max,
        })
    }

    /// Distance between the quartiles as a share of the median: the
    /// run-to-run spread the acceptance rule compares with a bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

/// The three quartiles, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so that a
/// spread computed here is the one the driver computes. One value is its
/// own three quartiles.
fn quartiles_sorted(v: &[f64]) -> [f64; 3] {
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[1.0, 2.0, 4.0, 8.0, 16.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]: the
        // exclusive method extrapolates past two points.
        let s = Summary::of(&[5.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.5, 4.0, 5.5));
    }

    #[test]
    fn degenerate_inputs() {
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (7.0, 7.0, 7.0, 0.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // An exactly repeating count has no spread, whatever its size.
        assert_eq!(Summary::of(&[9.0; 5]).unwrap().spread(), 0.0);
    }
}
