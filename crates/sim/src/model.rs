//! The hybrid cycle/event model contract.
//!
//! Flit-level wormhole models need to do work *every* cycle while traffic is
//! in flight, but pure circuit traffic and idle phases are naturally
//! event-driven. [`Model`] covers both: each step a driver (1) delivers all
//! events due at the current cycle to `handle`, (2) calls `tick`, then
//! (3) advances time by one cycle if the model reports itself busy, or
//! fast-forwards straight to the next scheduled event otherwise.
//!
//! A driver never invents time: if the model is idle and no events are
//! pending, the simulation is quiescent.

use crate::event::EventQueue;
use crate::time::Cycle;

/// A simulated system stepped by a cycle/event driver.
pub trait Model {
    /// The event payload type this model schedules for itself.
    type Event;

    /// Called once per simulated cycle after due events were delivered.
    fn tick(&mut self, now: Cycle, queue: &mut EventQueue<Self::Event>);

    /// Called for each event due at the current cycle, in FIFO order.
    fn handle(&mut self, now: Cycle, event: Self::Event, queue: &mut EventQueue<Self::Event>);

    /// True while the model has cycle-by-cycle work (flits in flight,
    /// probes walking, arbitration pending). When false, the driver may
    /// fast-forward over idle cycles to the next scheduled event.
    fn busy(&self) -> bool;

    /// The earliest cycle ≥ `now` at which the model itself (independent
    /// of the event calendar) next needs a `tick`, or `None` when the
    /// calendar alone drives it. The default preserves the classic
    /// busy-bit contract: tick every cycle while busy, never otherwise.
    /// Purely event-driven models override this to return `None`
    /// unconditionally; models that can predict their next interesting
    /// cycle may return a later time to let the driver skip dead ticks.
    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if self.busy() {
            Some(now)
        } else {
            None
        }
    }
}
