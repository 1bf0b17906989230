//! Fault models for the wave plane: one timed schedule of fail and
//! repair events, applied with `WaveNetwork::schedule_fault`.
//!
//! The paper highlights that the MB-m probe protocol "is very resilient to
//! static faults in the network" (§2, citing ref \[12\]). A *static* fault
//! set (E7, E8) is a [`FaultSchedule`] whose failures all happen at cycle
//! 0 ([`FaultSchedule::random_lanes`]), before any probe can reserve a
//! lane; *dynamic* faults (E14) are timed fail **and** repair events
//! mid-run, where failing a reserved lane tears the victim circuit down
//! and (CLRP) triggers a bounded re-establishment. Events name
//! `(link, switch)` lanes or whole links; nothing here depends on
//! `wavesim-core`.
//!
//! Only the wave plane faults: the wormhole fallback uses deterministic
//! routing that cannot route around faults, so (as in the paper, where
//! fault tolerance is a property of PCS, not of the wormhole plane) the
//! `S0` network is assumed fault-free. DESIGN.md records this scoping
//! (§7 covers the fault model).

use wavesim_sim::{Cycle, SimRng};
use wavesim_topology::{LinkId, Topology};

/// One timed fault event. Lane variants hit a single
/// `(link, switch)` wave lane; link variants hit every lane of the link
/// (broken cable / cable replaced).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultScheduleEvent {
    /// One wave lane of `link` fails.
    FailLane(LinkId, u8),
    /// A failed wave lane returns to service.
    RepairLane(LinkId, u8),
    /// Every wave lane of `link` fails.
    FailLink(LinkId),
    /// Every wave lane of `link` returns to service.
    RepairLink(LinkId),
}

/// A deterministic timed schedule of fail/repair events, applied with
/// `WaveNetwork::schedule_fault`. Events are kept sorted by
/// `(cycle, event)` so application order — and therefore the simulation —
/// is a pure function of the schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// `(cycle, event)` pairs, sorted by cycle (ties by event order).
    pub events: Vec<(Cycle, FaultScheduleEvent)>,
}

impl FaultSchedule {
    /// No faults.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Static lane faults: each lane of each valid link fails at cycle 0
    /// independently with probability `rate`, drawn deterministically from
    /// `seed` (links in topology order, switches `1..=k` within a link).
    ///
    /// # Panics
    /// Panics unless `rate` is a probability.
    #[must_use]
    pub fn random_lanes(topo: &Topology, k: u8, rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate is a probability");
        let mut rng = SimRng::new(seed ^ 0xFA17_FA17);
        let mut events = Vec::new();
        for link in topo.links() {
            for s in 1..=k {
                if rng.chance(rate) {
                    events.push((0, FaultScheduleEvent::FailLane(link, s)));
                }
            }
        }
        Self { events }
    }

    /// Number of scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Draws a whole-link fail/repair process: each link independently
    /// alternates up → down → up, with up-times geometric around `mtbf`
    /// (mean cycles between failures) and down-times geometric around
    /// `mttr` (mean cycles to repair), truncated at `horizon`. Each link
    /// uses its own split RNG stream, so the schedule is deterministic in
    /// `seed` and independent of link iteration order.
    ///
    /// # Panics
    /// Panics unless `mtbf` and `mttr` are both `>= 1`.
    #[must_use]
    pub fn random_mtbf(topo: &Topology, mtbf: u64, mttr: u64, horizon: Cycle, seed: u64) -> Self {
        assert!(mtbf >= 1, "mean time between failures must be >= 1 cycle");
        assert!(mttr >= 1, "mean time to repair must be >= 1 cycle");
        let root = SimRng::new(seed ^ 0xFA17_D41A);
        let mut events = Vec::new();
        for link in topo.links() {
            let mut rng = root.split(u64::from(link.0));
            let mut t: Cycle = 0;
            loop {
                t = t.saturating_add(rng.geometric(1.0 / mtbf as f64));
                if t >= horizon {
                    break;
                }
                events.push((t, FaultScheduleEvent::FailLink(link)));
                t = t.saturating_add(rng.geometric(1.0 / mttr as f64));
                if t >= horizon {
                    break;
                }
                events.push((t, FaultScheduleEvent::RepairLink(link)));
            }
        }
        events.sort_unstable();
        Self { events }
    }

    /// Checks every event against `topo` and the wave-switch count `k`:
    /// links must exist, lane switches must be in `1..=k`, and events must
    /// be time-sorted.
    ///
    /// # Errors
    /// Describes the first invalid event.
    pub fn validate(&self, topo: &Topology, k: u8) -> Result<(), String> {
        for (i, &(at, ev)) in self.events.iter().enumerate() {
            let (link, switch) = match ev {
                FaultScheduleEvent::FailLane(l, s) | FaultScheduleEvent::RepairLane(l, s) => {
                    (l, Some(s))
                }
                FaultScheduleEvent::FailLink(l) | FaultScheduleEvent::RepairLink(l) => (l, None),
            };
            if !topo.has_link(link) {
                return Err(format!(
                    "fault event {i} (cycle {at}): link {} is not in the topology",
                    link.0
                ));
            }
            if let Some(s) = switch {
                if s < 1 || s > k {
                    return Err(format!(
                        "fault event {i} (cycle {at}): switch {s} out of range 1..={k}"
                    ));
                }
            }
        }
        if !self.events.windows(2).all(|w| w[0].0 <= w[1].0) {
            return Err("fault schedule is not time-sorted".into());
        }
        Ok(())
    }

    /// Expands the schedule to per-lane actions: `(cycle, fail?, link,
    /// switch)` with link events fanned out over switches `1..=k`, in
    /// schedule order. The composition root maps these onto
    /// `WaveNetwork::schedule_fault` events.
    #[must_use]
    pub fn lane_actions(&self, k: u8) -> Vec<(Cycle, bool, LinkId, u8)> {
        let mut out = Vec::new();
        for &(at, ev) in &self.events {
            match ev {
                FaultScheduleEvent::FailLane(l, s) => out.push((at, true, l, s)),
                FaultScheduleEvent::RepairLane(l, s) => out.push((at, false, l, s)),
                FaultScheduleEvent::FailLink(l) => {
                    out.extend((1..=k).map(|s| (at, true, l, s)));
                }
                FaultScheduleEvent::RepairLink(l) => {
                    out.extend((1..=k).map(|s| (at, false, l, s)));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::mesh(&[8, 8])
    }

    #[test]
    fn zero_rate_is_empty() {
        let p = FaultSchedule::random_lanes(&topo(), 2, 0.0, 1);
        assert!(p.is_empty());
    }

    #[test]
    fn full_rate_faults_everything() {
        let t = topo();
        let p = FaultSchedule::random_lanes(&t, 2, 1.0, 1);
        assert_eq!(p.len(), t.links().count() * 2);
        assert!(p.events.iter().all(|&(at, _)| at == 0), "static: cycle 0");
        assert!(p.events.windows(2).all(|w| w[0] < w[1]), "kept sorted");
    }

    #[test]
    fn rate_is_approximated() {
        let t = topo();
        let total = t.links().count() * 2;
        let p = FaultSchedule::random_lanes(&t, 2, 0.1, 7);
        let frac = p.len() as f64 / total as f64;
        assert!(frac > 0.05 && frac < 0.16, "fault fraction {frac}");
    }

    #[test]
    fn deterministic_in_seed() {
        let t = topo();
        let a = FaultSchedule::random_lanes(&t, 2, 0.2, 3);
        let b = FaultSchedule::random_lanes(&t, 2, 0.2, 3);
        let c = FaultSchedule::random_lanes(&t, 2, 0.2, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn only_valid_links_are_faulted() {
        let t = Topology::mesh(&[4, 4]); // mesh has boundary slots
        let p = FaultSchedule::random_lanes(&t, 1, 1.0, 1);
        p.validate(&t, 1).expect("drawn from the topology");
    }

    #[test]
    fn mtbf_schedule_is_deterministic_and_sorted() {
        let t = topo();
        let a = FaultSchedule::random_mtbf(&t, 5_000, 500, 20_000, 11);
        let b = FaultSchedule::random_mtbf(&t, 5_000, 500, 20_000, 11);
        let c = FaultSchedule::random_mtbf(&t, 5_000, 500, 20_000, 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_empty());
        assert!(a.events.windows(2).all(|w| w[0].0 <= w[1].0));
        a.validate(&t, 2).expect("drawn from the topology");
    }

    #[test]
    fn mtbf_schedule_alternates_fail_repair_per_link() {
        let t = topo();
        let sched = FaultSchedule::random_mtbf(&t, 2_000, 300, 50_000, 4);
        let mut down = std::collections::HashSet::new();
        for &(_, ev) in &sched.events {
            match ev {
                FaultScheduleEvent::FailLink(l) => {
                    assert!(down.insert(l), "link {} failed while down", l.0);
                }
                FaultScheduleEvent::RepairLink(l) => {
                    assert!(down.remove(&l), "link {} repaired while up", l.0);
                }
                other => panic!("mtbf schedules are whole-link: {other:?}"),
            }
        }
    }

    #[test]
    fn validate_rejects_bad_events() {
        let t = Topology::mesh(&[4, 4]);
        let bogus_link = LinkId(u32::MAX);
        let sched = FaultSchedule {
            events: vec![(5, FaultScheduleEvent::FailLink(bogus_link))],
        };
        assert!(sched.validate(&t, 2).unwrap_err().contains("topology"));
        let good_link = t.links().next().unwrap();
        let sched = FaultSchedule {
            events: vec![(5, FaultScheduleEvent::FailLane(good_link, 3))],
        };
        assert!(sched.validate(&t, 2).unwrap_err().contains("switch"));
        let sched = FaultSchedule {
            events: vec![
                (9, FaultScheduleEvent::FailLink(good_link)),
                (5, FaultScheduleEvent::RepairLink(good_link)),
            ],
        };
        assert!(sched.validate(&t, 2).unwrap_err().contains("sorted"));
    }

    #[test]
    fn lane_actions_fan_links_out_over_switches() {
        let t = Topology::mesh(&[4, 4]);
        let link = t.links().next().unwrap();
        let sched = FaultSchedule {
            events: vec![
                (2, FaultScheduleEvent::FailLink(link)),
                (7, FaultScheduleEvent::RepairLane(link, 2)),
            ],
        };
        assert_eq!(
            sched.lane_actions(3),
            vec![
                (2, true, link, 1),
                (2, true, link, 2),
                (2, true, link, 3),
                (7, false, link, 2),
            ]
        );
    }
}
