//! Generic stall detection.
//!
//! A deadlocked network is *busy but unchanging*: messages in flight, no
//! counter moving. [`ProgressMonitor`] watches a caller-supplied
//! fingerprint (a hash of every monotone counter in the system) and
//! reports how long it has been frozen. Deadlock-freedom experiments run
//! with a monitor armed and assert it never crosses the threshold.

use wavesim_core::WaveNetwork;
use wavesim_sim::Cycle;

/// Chains values into a single order-sensitive fingerprint.
#[must_use]
pub fn fingerprint(values: &[u64]) -> u64 {
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in values {
        acc ^= v;
        acc = acc.wrapping_mul(0x100_0000_01b3);
    }
    acc
}

/// Fingerprint of everything that moves in a [`WaveNetwork`]. The
/// protocol-level components come from the one shared
/// [`crate::ProgressMeasure`] (the same definition the model checker
/// ranks states with); only the fabric- and occupancy-level extras are
/// enumerated here.
///
/// A hash of *counters*, which move whenever anything happens — what a
/// stall detector watches. [`WaveNetwork::state_fingerprint`] leaves them
/// out so that one state hashes equal however it was reached, and a live
/// network can revisit a state: no use for stall detection.
#[must_use]
pub fn wave_fingerprint(net: &WaveNetwork) -> u64 {
    let m = crate::livelock::wave_measure(net);
    let s = net.stats();
    let f = net.fabric().stats();
    fingerprint(&[
        m.injected,
        m.delivered,
        m.escaped,
        s.probe_hops,
        s.probe_backtracks,
        s.setups_ok,
        s.setups_failed,
        f.flit_hops,
        f.delivered_flits,
        net.outstanding(),
        net.control_backlog() as u64,
        net.probes().len() as u64,
    ])
}

/// Watches a fingerprint stream for stalls.
#[derive(Debug, Clone)]
pub struct ProgressMonitor {
    threshold: u64,
    last_fp: Option<u64>,
    last_change: Cycle,
}

impl ProgressMonitor {
    /// Flags stalls longer than `threshold` cycles.
    #[must_use]
    pub fn new(threshold: u64) -> Self {
        Self {
            threshold,
            last_fp: None,
            last_change: 0,
        }
    }

    /// Feeds one observation. Returns `Some(stall_age)` when the system
    /// was busy yet unchanged for longer than the threshold.
    pub fn observe(&mut self, now: Cycle, fp: u64, busy: bool) -> Option<u64> {
        if self.last_fp != Some(fp) {
            self.last_fp = Some(fp);
            self.last_change = now;
            return None;
        }
        if !busy {
            self.last_change = now;
            return None;
        }
        let age = now.saturating_sub(self.last_change);
        (age > self.threshold).then_some(age)
    }

    /// Cycles since the fingerprint last changed.
    #[must_use]
    pub fn age(&self, now: Cycle) -> u64 {
        now.saturating_sub(self.last_change)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_order_sensitive() {
        assert_ne!(fingerprint(&[1, 2]), fingerprint(&[2, 1]));
        assert_eq!(fingerprint(&[1, 2]), fingerprint(&[1, 2]));
        assert_ne!(fingerprint(&[]), fingerprint(&[0]));
    }

    #[test]
    fn monitor_flags_frozen_busy_system() {
        let mut m = ProgressMonitor::new(10);
        assert!(m.observe(0, 42, true).is_none());
        for now in 1..=10 {
            assert!(m.observe(now, 42, true).is_none(), "within threshold");
        }
        let stall = m.observe(11, 42, true);
        assert_eq!(stall, Some(11));
    }

    #[test]
    fn monitor_resets_on_change() {
        let mut m = ProgressMonitor::new(5);
        for now in 0..100 {
            // Fingerprint changes every 3 cycles: never stalls.
            assert!(m.observe(now, now / 3, true).is_none());
        }
    }

    #[test]
    fn idle_system_never_stalls() {
        let mut m = ProgressMonitor::new(5);
        for now in 0..100 {
            assert!(m.observe(now, 7, false).is_none());
        }
    }
}
