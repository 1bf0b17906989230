//! Fault impact windows.
//!
//! For every [`TraceEvent::LaneFault`] the analyzer measures delivery
//! throughput and latency in three windows: *before* the fault, *during*
//! it (until the matching [`TraceEvent::LaneRepair`], or the end of the
//! trace for permanent faults), and *after* the repair. The before/after
//! windows mirror the outage's own length *where the trace allows it*:
//! the before window is clamped at cycle 0 (a fault early in the run has
//! less history than the outage is long) and the after window is clamped
//! at both the trace end and the lane's **next** fault (so it never
//! counts a later outage's degraded cycles as recovery). Because the
//! windows can therefore be shorter than the outage, comparisons must go
//! through [`PhaseStats::rate`] — deliveries per cycle over the window's
//! *actual* length — not raw delivery counts.
//!
//! [`TraceEvent::LaneFault`]: wavesim_trace::TraceEvent::LaneFault
//! [`TraceEvent::LaneRepair`]: wavesim_trace::TraceEvent::LaneRepair

use wavesim_sim::Cycle;

use crate::spans::MessageSpan;

/// Delivery statistics over one half-open window `[from, to)`.
#[derive(Debug, Clone, Copy)]
pub struct PhaseStats {
    /// Window start (inclusive).
    pub from: Cycle,
    /// Window end (exclusive).
    pub to: Cycle,
    /// Messages delivered inside the window.
    pub delivered: u64,
    /// Mean end-to-end latency of those deliveries.
    pub mean_latency: f64,
}

impl PhaseStats {
    /// The window's actual length in cycles. Clamping (at cycle 0, the
    /// trace end, or the lane's next fault) can make this shorter than
    /// the outage it mirrors.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.to.saturating_sub(self.from)
    }

    /// True for a window clamped down to nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deliveries per cycle over the window's actual length — the
    /// comparable throughput figure. Zero for an empty window.
    #[must_use]
    pub fn rate(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.delivered as f64 / self.len() as f64
        }
    }
}

/// One lane fault's before/during/after comparison.
#[derive(Debug, Clone, Copy)]
pub struct FaultImpact {
    /// Faulted lane's physical link.
    pub link: u32,
    /// Faulted lane's wave switch (1-based).
    pub switch: u8,
    /// Cycle the lane failed.
    pub fault_at: Cycle,
    /// Cycle the lane was repaired; `None` for permanent faults.
    pub repair_at: Option<Cycle>,
    /// The outage-length window ending at the fault.
    pub before: PhaseStats,
    /// The outage itself.
    pub during: PhaseStats,
    /// The outage-length window starting at the repair (absent for
    /// permanent faults).
    pub after: Option<PhaseStats>,
}

fn phase(deliveries: &[(Cycle, u64)], from: Cycle, to: Cycle) -> PhaseStats {
    let lo = deliveries.partition_point(|&(at, _)| at < from);
    // A repair stamped before its fault (a reordered trace) is an empty
    // window, not a reversed range.
    let hi = deliveries.partition_point(|&(at, _)| at < to).max(lo);
    let window = &deliveries[lo..hi];
    let delivered = window.len() as u64;
    let mean_latency = if window.is_empty() {
        0.0
    } else {
        window.iter().map(|&(_, l)| l as f64).sum::<f64>() / delivered as f64
    };
    PhaseStats {
        from,
        to,
        delivered,
        mean_latency,
    }
}

/// One fault-timeline entry: `(cycle, link, switch, is_fault)`.
type LaneEvent = (Cycle, u32, u8, bool);

/// Fault-impact accounting. The fold only retains the (rare) lane fault /
/// repair timeline; the window math runs at [`FaultFold::finish`] against
/// the reconstructed deliveries.
#[derive(Default)]
pub(crate) struct FaultFold {
    timeline: Vec<LaneEvent>,
}

impl FaultFold {
    /// A `lane_fault` (`is_fault`) or `lane_repair` record.
    pub fn lane_event(&mut self, at: Cycle, link: u32, switch: u8, is_fault: bool) {
        self.timeline.push((at, link, switch, is_fault));
    }

    /// Builds one [`FaultImpact`] per lane fault. `spans` are the
    /// reconstructed deliveries (already in delivery order) and `horizon`
    /// the highest cycle folded.
    pub fn finish(self, spans: &[MessageSpan], horizon: Cycle) -> Vec<FaultImpact> {
        if self.timeline.is_empty() {
            return Vec::new();
        }
        let deliveries: Vec<(Cycle, u64)> =
            spans.iter().map(|s| (s.delivered, s.latency())).collect();

        let mut out = Vec::new();
        for (i, &(fault_at, link, switch, is_fault)) in self.timeline.iter().enumerate() {
            if !is_fault {
                continue;
            }
            let later = &self.timeline[i + 1..];
            let repair_at = later
                .iter()
                .find(|&&(_, l, s, f)| !f && l == link && s == switch)
                .map(|&(at, ..)| at);
            // Exclusive bound that still covers deliveries at the last
            // cycle.
            let end = horizon.saturating_add(1);
            let during_end = repair_at.unwrap_or(end);
            let dur = during_end.saturating_sub(fault_at).max(1);
            // The recovery window must stop where the same lane fails
            // again: counting a later outage's cycles as "after"
            // understates the recovery rate.
            let next_fault_at = later
                .iter()
                .find(|&&(_, l, s, f)| f && l == link && s == switch)
                .map(|&(at, ..)| at);
            out.push(FaultImpact {
                link,
                switch,
                fault_at,
                repair_at,
                before: phase(&deliveries, fault_at.saturating_sub(dur), fault_at),
                during: phase(&deliveries, fault_at, during_end),
                after: repair_at.map(|r| {
                    let to = r
                        .saturating_add(dur)
                        .min(end)
                        .min(next_fault_at.unwrap_or(u64::MAX));
                    phase(&deliveries, r, to.max(r))
                }),
            });
        }
        out
    }

    /// Rows in the timeline.
    #[cfg(test)]
    pub fn largest_table(&self) -> usize {
        self.timeline.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, AnalyzeOptions};
    use wavesim_trace::{TraceEvent, TraceRecord};

    fn rec(at: Cycle, seq: u64, ev: TraceEvent) -> TraceRecord {
        TraceRecord { at, seq, ev }
    }

    fn impact(records: &[TraceRecord]) -> Vec<FaultImpact> {
        analyze(records, AnalyzeOptions::default()).faults
    }

    fn deliver(at: Cycle, seq: u64, msg: u64, latency: u64) -> TraceRecord {
        rec(
            at,
            seq,
            TraceEvent::WormholeDeliver {
                msg,
                src: 0,
                dest: 1,
                latency,
            },
        )
    }

    #[test]
    fn windows_mirror_the_outage_length() {
        let recs = vec![
            deliver(5, 0, 1, 5),
            deliver(8, 1, 2, 6),
            rec(10, 2, TraceEvent::LaneFault { link: 3, switch: 1 }),
            deliver(15, 3, 3, 12),
            rec(20, 4, TraceEvent::LaneRepair { link: 3, switch: 1 }),
            deliver(25, 5, 4, 7),
            deliver(40, 6, 5, 7),
        ];
        let faults = impact(&recs);
        assert_eq!(faults.len(), 1);
        let f = &faults[0];
        assert_eq!((f.link, f.switch), (3, 1));
        assert_eq!(f.fault_at, 10);
        assert_eq!(f.repair_at, Some(20));
        // Outage is 10 cycles, so before = [0, 10), after = [20, 30).
        assert_eq!((f.before.from, f.before.to), (0, 10));
        assert_eq!(f.before.delivered, 2);
        assert!((f.before.mean_latency - 5.5).abs() < 1e-12);
        assert_eq!(f.during.delivered, 1);
        assert!((f.during.mean_latency - 12.0).abs() < 1e-12);
        let after = f.after.unwrap();
        assert_eq!((after.from, after.to), (20, 30));
        assert_eq!(after.delivered, 1);
    }

    #[test]
    fn permanent_fault_has_no_after_window() {
        let recs = vec![
            deliver(5, 0, 1, 5),
            rec(10, 1, TraceEvent::LaneFault { link: 0, switch: 2 }),
            deliver(30, 2, 2, 25),
        ];
        let faults = impact(&recs);
        let f = &faults[0];
        assert!(f.repair_at.is_none());
        assert!(f.after.is_none());
        // During runs to the trace horizon (inclusive of the last cycle).
        assert_eq!((f.during.from, f.during.to), (10, 31));
        assert_eq!(f.during.delivered, 1);
    }

    #[test]
    fn early_fault_before_window_clamps_at_zero_and_reports_its_real_length() {
        // Outage is 17 cycles but only 3 cycles of history exist: the
        // before window must be [0, 3) and say so, not pretend to be
        // 17 cycles long.
        let recs = vec![
            deliver(1, 0, 1, 1),
            deliver(2, 1, 2, 1),
            rec(3, 2, TraceEvent::LaneFault { link: 0, switch: 1 }),
            rec(20, 3, TraceEvent::LaneRepair { link: 0, switch: 1 }),
            deliver(30, 4, 3, 4),
        ];
        let f = &impact(&recs)[0];
        assert_eq!((f.before.from, f.before.to), (0, 3));
        assert_eq!(f.before.len(), 3);
        assert_eq!(f.before.delivered, 2);
        assert!((f.before.rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(f.during.len(), 17);
        // The after window is clamped by the trace end (horizon 30, so
        // exclusive bound 31): [20, 31), 11 cycles, not 17.
        assert_eq!(f.after.unwrap().len(), 11);
    }

    #[test]
    fn after_window_stops_at_the_lanes_next_fault() {
        // First outage [10, 20) has length 10, but the same lane fails
        // again at 25: the recovery window is [20, 25), not [20, 30) —
        // the delivery at 27 happens *during the second outage* and must
        // not be credited to the first one's recovery.
        let recs = vec![
            rec(10, 0, TraceEvent::LaneFault { link: 2, switch: 1 }),
            rec(20, 1, TraceEvent::LaneRepair { link: 2, switch: 1 }),
            deliver(22, 2, 1, 3),
            rec(25, 3, TraceEvent::LaneFault { link: 2, switch: 1 }),
            deliver(27, 4, 2, 9),
            rec(40, 5, TraceEvent::LaneRepair { link: 2, switch: 1 }),
            deliver(45, 6, 3, 2),
        ];
        let faults = impact(&recs);
        assert_eq!(faults.len(), 2);
        let first = &faults[0];
        let after = first.after.unwrap();
        assert_eq!((after.from, after.to), (20, 25));
        assert_eq!(after.len(), 5);
        assert_eq!(after.delivered, 1, "delivery at 27 belongs to outage 2");
        assert!((after.rate() - 0.2).abs() < 1e-12);
        // The second outage's recovery window is clamped only by the
        // trace end (horizon 45, so exclusive bound 46), not 40+15.
        let second = &faults[1];
        assert_eq!(second.after.unwrap().to, 46);
    }

    #[test]
    fn other_lane_faults_do_not_clamp_the_after_window() {
        let recs = vec![
            rec(10, 0, TraceEvent::LaneFault { link: 1, switch: 1 }),
            rec(20, 1, TraceEvent::LaneRepair { link: 1, switch: 1 }),
            rec(22, 2, TraceEvent::LaneFault { link: 7, switch: 2 }),
            rec(60, 3, TraceEvent::LaneRepair { link: 7, switch: 2 }),
        ];
        let faults = impact(&recs);
        let after = faults[0].after.unwrap();
        assert_eq!((after.from, after.to), (20, 30));
    }

    #[test]
    fn repeated_faults_each_get_a_window() {
        let recs = vec![
            rec(10, 0, TraceEvent::LaneFault { link: 1, switch: 1 }),
            rec(20, 1, TraceEvent::LaneRepair { link: 1, switch: 1 }),
            rec(50, 2, TraceEvent::LaneFault { link: 1, switch: 1 }),
            rec(55, 3, TraceEvent::LaneRepair { link: 1, switch: 1 }),
        ];
        let faults = impact(&recs);
        assert_eq!(faults.len(), 2);
        assert_eq!(faults[0].repair_at, Some(20));
        assert_eq!(faults[1].repair_at, Some(55));
    }
}
