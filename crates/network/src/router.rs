//! Per-router state: virtual-channel buffers, allocations, arbitration.
//!
//! This mirrors the "typical architecture of a wormhole router" of the
//! paper's Fig. 1: input queues per virtual channel, a crossbar, a routing
//! control unit, and output multiplexers. State is kept **struct-of-arrays**:
//! parallel flat vectors indexed by the dense VC index `port * w + vc`, so
//! the fabric's per-cycle sweep walks contiguous memory instead of chasing
//! per-VC objects.
//!
//! Scheduling is **event-driven**: an input VC is looked at only while the
//! resource it needs can be had, and is otherwise parked on that resource
//! until the event that frees it. Three sets hold the VCs worth a look:
//!
//! * `va_pending` — VCs with no route whose buffered head flit (see below)
//!   is in its routing delay or may find a free output VC: the VA stage's
//!   worklist. A head that finds every candidate output VC owned leaves the
//!   set and is *parked*: counted in `parked` and registered in the waiter
//!   mask of each candidate. Releasing an output VC (its packet's tail was
//!   forwarded) returns that VC's waiters to `va_pending`.
//! * one *request mask* per output port — bit `i` is set iff input VC `i`
//!   is routed to that port, has a buffered flit, and the downstream buffer
//!   has a free slot (`out_credits > 0`; ejection always has): exactly the
//!   VCs the port's switch arbiter may grant. A VC that spends its last
//!   credit drops out; the credit return that takes `out_credits` 0 → 1
//!   puts the output VC's owner back.
//! * the waiter masks — per output VC, the parked heads to re-arm on its
//!   release. A bit may be stale (its head was re-armed through another
//!   candidate and moved on); waking checks the VC is still parked.
//!
//! Parking changes no decision: a parked head would fail VA and a
//! creditless VC would fail SA every cycle until exactly those events, and
//! both stages visit the re-armed sets in the same rotated order as before.
//!
//! The `va_pending` definition leans on a structural invariant of wormhole
//! flow control: an output VC is granted to one packet at a time, so flits
//! arrive into an input VC packet-by-packet — whenever the route is clear
//! (packet tail gone) and the buffer is non-empty, the front flit is the
//! next packet's head. The fabric debug-asserts this on every VA visit.

use std::collections::VecDeque;

use wavesim_sim::{BitSet, Cycle};

use crate::message::{Flit, Message};

/// Sentinel in [`Router::route`]: no output allocated to this input VC.
pub const ROUTE_NONE: u16 = u16::MAX;

/// Sentinel in [`Router::out_owner`]: output VC owned by no packet.
pub const OWNER_NONE: u16 = u16::MAX;

/// Sentinel in [`Router::head_since`]: no unrouted head is waiting.
pub const NO_HEAD: Cycle = Cycle::MAX;

/// Packs an output allocation into a [`Router::route`] word.
#[inline]
#[must_use]
pub fn route_pack(out_port: u8, out_vc: u8) -> u16 {
    (u16::from(out_port) << 8) | u16::from(out_vc)
}

/// Output port of a packed route word.
#[inline]
#[must_use]
pub fn route_port(r: u16) -> usize {
    (r >> 8) as usize
}

/// Output VC of a packed route word.
#[inline]
#[must_use]
pub fn route_vc(r: u16) -> usize {
    (r & 0xff) as usize
}

/// Message-emission state of one injection virtual channel.
#[derive(Debug, Clone, Copy)]
pub struct Emitting {
    /// The message being converted to flits.
    pub msg: Message,
    /// Flits already pushed into the injection buffer.
    pub sent: u32,
    /// Fabric arena slot of the message record, stamped into every flit.
    pub slot: u32,
}

/// A message waiting at its source for a free injection VC, paired with
/// the fabric arena slot its metadata lives in.
#[derive(Debug, Clone, Copy)]
pub struct Queued {
    /// The message to emit.
    pub msg: Message,
    /// Fabric arena slot of the message record.
    pub slot: u32,
}

/// Full per-node router state, struct-of-arrays over the dense input-VC
/// index `port * w + vc` (inputs) and the same layout for outputs.
#[derive(Debug, Clone)]
pub struct Router {
    /// Per-input-VC FIFO flit buffers (capacity enforced by the fabric).
    pub bufs: Vec<VecDeque<Flit>>,
    /// Per-input-VC output allocation, packed `out_port << 8 | out_vc`;
    /// [`ROUTE_NONE`] when unallocated.
    pub route: Vec<u16>,
    /// Cycle at which the head flit currently at the front was first seen
    /// by the routing control unit; [`NO_HEAD`] when none is waiting.
    pub head_since: Vec<Cycle>,
    /// Per-output-VC owner (dense input-VC index); [`OWNER_NONE`] if free.
    pub out_owner: Vec<u16>,
    /// Per-output-VC free buffer slots at the downstream input VC.
    pub out_credits: Vec<u32>,
    /// Input VCs whose unrouted head flit the VA stage must visit: every
    /// VC with no route and a buffered flit, except the parked ones.
    pub va_pending: BitSet,
    /// Unrouted heads parked off `va_pending` because every candidate
    /// output VC was owned; each waits in the waiter masks of its
    /// candidates. (Which VCs: no route, non-empty, not in `va_pending`.)
    pub(crate) parked: u16,
    /// The request masks (one per output port) then the waiter masks (one
    /// per output VC), `mask_words` words each, in one allocation.
    masks: Vec<u64>,
    /// Words per mask: `ceil(nports * w / 64)`.
    mask_words: usize,
    /// Virtual channels per port.
    w: usize,
    /// Number of input VCs whose route is allocated (`route != ROUTE_NONE`).
    pub routed: u16,
    /// Messages waiting for a free injection VC.
    pub inj_queue: VecDeque<Queued>,
    /// Per-injection-VC flit emission in progress.
    pub emitting: Vec<Option<Emitting>>,
    /// Number of `Some` entries in `emitting`.
    pub emitting_live: u16,
    /// Round-robin pointers for switch allocation, one per output port.
    /// (The VA round-robin pointer needs no storage: the seed kernel
    /// advanced it by exactly one every cycle regardless of activity, so
    /// it is derived as `now % n_ivc` — which also lets idle routers skip
    /// ticks entirely without desynchronizing arbitration.)
    pub sa_rr: Vec<u16>,
}

impl Router {
    /// Builds a router with `nports` ports (local port included) and `w`
    /// VCs per port, each with `buffer_depth` downstream credits.
    #[must_use]
    pub fn new(nports: usize, w: usize, buffer_depth: u32) -> Self {
        let n = nports * w;
        let mask_words = n.div_ceil(64);
        Self {
            bufs: (0..n).map(|_| VecDeque::new()).collect(),
            route: vec![ROUTE_NONE; n],
            head_since: vec![NO_HEAD; n],
            out_owner: vec![OWNER_NONE; n],
            out_credits: vec![buffer_depth; n],
            va_pending: BitSet::new(n),
            parked: 0,
            masks: vec![0; (nports + n) * mask_words],
            mask_words,
            w,
            routed: 0,
            inj_queue: VecDeque::new(),
            emitting: vec![None; w],
            emitting_live: 0,
            sa_rr: vec![0; nports],
        }
    }

    /// Dense output-VC index a packed route word points at. Ejection
    /// routes map to the local port's (never spent) credit slot, so
    /// "has a credit" needs no local-port case.
    #[inline]
    fn route_ovc(&self, r: u16) -> usize {
        route_port(r) * self.w + route_vc(r)
    }

    /// Output port `port`'s request mask: the input VCs its switch arbiter
    /// may grant this cycle.
    #[inline]
    pub(crate) fn sa_req(&self, port: usize) -> &[u64] {
        &self.masks[port * self.mask_words..(port + 1) * self.mask_words]
    }

    /// Where output VC `ovc`'s waiter mask sits in `masks`.
    #[inline]
    fn va_wait(&self, ovc: usize) -> std::ops::Range<usize> {
        let at = (self.sa_rr.len() + ovc) * self.mask_words;
        at..at + self.mask_words
    }

    /// The word of input VC `i`'s request line on the port of route `r`.
    #[inline]
    fn req_word(&mut self, i: usize, r: u16) -> &mut u64 {
        &mut self.masks[route_port(r) * self.mask_words + i / 64]
    }

    /// Raises routed input VC `i`'s request line if it has a flit to send
    /// and a downstream slot to send it into.
    #[inline]
    fn request(&mut self, i: usize) {
        let r = self.route[i];
        if !self.bufs[i].is_empty() && self.out_credits[self.route_ovc(r)] > 0 {
            *self.req_word(i, r) |= 1 << (i % 64);
        }
    }

    /// Drops input VC `i`'s request line on the port of route `r`.
    #[inline]
    fn unrequest(&mut self, i: usize, r: u16) {
        *self.req_word(i, r) &= !(1 << (i % 64));
    }

    /// Appends a flit to input VC `i` (arrival or injection). A flit
    /// landing in an empty unrouted VC is a new head for the VA stage; one
    /// landing behind a waiting head changes nothing that head waits on.
    #[inline]
    pub fn push_flit(&mut self, i: usize, flit: Flit) {
        let was_empty = self.bufs[i].is_empty();
        self.bufs[i].push_back(flit);
        if self.route[i] != ROUTE_NONE {
            self.request(i);
        } else if was_empty {
            self.va_pending.set(i);
        }
    }

    /// Allocates the packed route `r` to input VC `i` (VA grant or
    /// ejection mark), moving it from the VA set to its port's requests.
    #[inline]
    pub fn set_route(&mut self, i: usize, r: u16) {
        debug_assert_eq!(self.route[i], ROUTE_NONE);
        debug_assert_ne!(r, ROUTE_NONE);
        self.route[i] = r;
        self.routed += 1;
        self.head_since[i] = NO_HEAD;
        self.va_pending.clear(i);
        self.request(i);
    }

    /// Releases input VC `i`'s route (its packet's tail left), returning
    /// the VC to the VA set if the next packet is already buffered.
    #[inline]
    pub fn clear_route(&mut self, i: usize) {
        debug_assert_ne!(self.route[i], ROUTE_NONE);
        self.unrequest(i, self.route[i]);
        self.route[i] = ROUTE_NONE;
        self.routed -= 1;
        if !self.bufs[i].is_empty() {
            self.va_pending.set(i);
        }
    }

    /// Re-syncs input VC `i`'s request line after a non-tail flit was
    /// popped from it (and, for a forward, a credit spent): it drops out
    /// when the buffer ran empty or the pop took the last credit.
    #[inline]
    pub fn sync_after_pop(&mut self, i: usize) {
        let r = self.route[i];
        if self.bufs[i].is_empty() || self.out_credits[self.route_ovc(r)] == 0 {
            self.unrequest(i, r);
        }
    }

    /// Takes back one credit for output VC `ovc`. The return that makes
    /// the first slot available re-raises the owner's request line.
    #[inline]
    pub(crate) fn return_credit(&mut self, ovc: usize) {
        self.out_credits[ovc] += 1;
        let owner = self.out_owner[ovc];
        if self.out_credits[ovc] == 1 && owner != OWNER_NONE {
            self.request(owner as usize);
        }
    }

    /// Parks unrouted head `i`, every one of whose candidate output VCs
    /// `ovcs` is owned, until one of them is released.
    #[inline]
    pub(crate) fn park(&mut self, i: usize, ovcs: impl Iterator<Item = usize>) {
        self.va_pending.clear(i);
        self.parked += 1;
        for ovc in ovcs {
            let at = self.va_wait(ovc).start + i / 64;
            self.masks[at] |= 1 << (i % 64);
        }
    }

    /// Frees output VC `ovc` (its packet's tail was forwarded) and returns
    /// the heads parked on it to the VA set.
    #[inline]
    pub(crate) fn release_output(&mut self, ovc: usize) {
        self.out_owner[ovc] = OWNER_NONE;
        for (k, at) in self.va_wait(ovc).enumerate() {
            let mut bits = std::mem::take(&mut self.masks[at]);
            while bits != 0 {
                let i = k * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // Stale waiter bits outlive their head; only a VC that is
                // parked right now goes back.
                if self.route[i] == ROUTE_NONE
                    && !self.bufs[i].is_empty()
                    && !self.va_pending.get(i)
                {
                    self.va_pending.set(i);
                    self.parked -= 1;
                }
            }
        }
    }

    /// Total flits buffered in this router's input VCs.
    #[must_use]
    pub fn buffered_flits(&self) -> usize {
        self.bufs.iter().map(VecDeque::len).sum()
    }

    /// True when nothing is queued, buffered, or mid-emission here.
    /// `routed == 0` covers every allocated VC (buffered or in transit);
    /// an empty `va_pending` and no parked head then certify every
    /// unallocated VC is drained too.
    #[must_use]
    pub fn idle(&self) -> bool {
        self.inj_queue.is_empty()
            && self.emitting_live == 0
            && self.routed == 0
            && self.parked == 0
            && self.va_pending.is_empty()
    }
}

/// The mask oracle: what every scheduling set must hold, recomputed from
/// the buffers, routes, owners and credits alone.
#[cfg(test)]
impl Router {
    /// Panics unless, for this router at `node` after the tick of cycle
    /// `now`: every request bit ⇔ routed ∧ buffered ∧ credit available;
    /// every unrouted buffered head is in `va_pending` xor parked, and
    /// `parked` counts the latter; a parked head is past its routing
    /// delay, bound elsewhere, owns nothing, finds every candidate output
    /// VC owned and is in each one's waiter mask. Waiter bits may be
    /// stale; missing ones strand a head for good.
    pub(crate) fn check_masks(
        &self,
        routing: &dyn wavesim_topology::WormholeRouting,
        topo: &wavesim_topology::Topology,
        node: wavesim_topology::NodeId,
        routing_delay: u32,
        now: Cycle,
    ) {
        let (n, w) = (self.bufs.len(), self.w);
        let bit = |words: &[u64], i: usize| words[i / 64] >> (i % 64) & 1 == 1;
        let mut parked = 0;
        let mut cand = Vec::new();
        for i in 0..n {
            let (r, buffered) = (self.route[i], !self.bufs[i].is_empty());
            for port in 0..self.sa_rr.len() {
                let want = r != ROUTE_NONE
                    && route_port(r) == port
                    && buffered
                    && self.out_credits[self.route_ovc(r)] > 0;
                assert_eq!(
                    bit(self.sa_req(port), i),
                    want,
                    "request {node:?} vc {i} port {port}"
                );
            }
            if r != ROUTE_NONE || !buffered {
                assert!(
                    !self.va_pending.get(i),
                    "{node:?} vc {i}: pending without a head"
                );
                continue;
            }
            if self.va_pending.get(i) {
                continue;
            }
            parked += 1;
            let front = self.bufs[i].front().expect("buffered");
            assert!(
                front.is_head && front.dest != node,
                "{node:?} vc {i}: parked non-head"
            );
            assert!(
                self.head_since[i] != NO_HEAD
                    && self.head_since[i] + u64::from(routing_delay) <= now,
                "{node:?} vc {i}: parked inside its routing delay"
            );
            cand.clear();
            routing.route(topo, node, front.dest, &mut cand);
            for c in &cand {
                let ovc = c.port.index() * w + c.vc as usize;
                assert_ne!(
                    self.out_owner[ovc], OWNER_NONE,
                    "{node:?} vc {i}: parked on free {ovc}"
                );
                assert!(
                    bit(&self.masks[self.va_wait(ovc)], i),
                    "{node:?} vc {i}: no waiter bit on candidate {ovc}"
                );
            }
        }
        assert_eq!(self.parked, parked, "{node:?}: parked count");
        for (ovc, &owner) in self.out_owner.iter().enumerate() {
            if owner != OWNER_NONE {
                assert_eq!(
                    self.route_ovc(self.route[owner as usize]),
                    ovc,
                    "{node:?}: owner"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesim_topology::NodeId;

    #[test]
    fn fresh_router_is_idle() {
        let r = Router::new(5, 2, 4);
        assert!(r.idle());
        assert_eq!(r.bufs.len(), 10);
        assert_eq!(r.out_owner.len(), 10);
        assert_eq!(r.buffered_flits(), 0);
        assert!(r.out_credits.iter().all(|&c| c == 4));
        assert!(r.out_owner.iter().all(|&o| o == OWNER_NONE));
    }

    #[test]
    fn queued_message_makes_router_busy() {
        let mut r = Router::new(5, 2, 4);
        r.inj_queue.push_back(Queued {
            msg: Message::new(1, NodeId(0), NodeId(1), 3, 0),
            slot: 0,
        });
        assert!(!r.idle());
    }

    #[test]
    fn route_pack_round_trips() {
        let r = route_pack(7, 3);
        assert_eq!(route_port(r), 7);
        assert_eq!(route_vc(r), 3);
        assert_ne!(r, ROUTE_NONE);
    }

    /// True when input VC `i` requests output port `port`.
    fn requests(r: &Router, port: usize, i: usize) -> bool {
        r.sa_req(port)[i / 64] >> (i % 64) & 1 == 1
    }

    #[test]
    fn masks_track_push_route_pop_lifecycle() {
        let mut r = Router::new(5, 2, 4);
        let m = Message::new(1, NodeId(0), NodeId(1), 2, 0);
        let head = Flit::of(&m, 0, 0);
        let tail = Flit::of(&m, 1, 0);

        r.push_flit(3, head);
        assert!(r.va_pending.get(3) && !requests(&r, 1, 3));
        assert!(!r.idle(), "pending VC is not idle");

        r.set_route(3, route_pack(1, 0));
        assert!(!r.va_pending.get(3) && requests(&r, 1, 3));
        assert!((0..5).all(|p| p == 1 || !requests(&r, p, 3)));
        assert_eq!(r.routed, 1);

        r.push_flit(3, tail);
        let _ = r.bufs[3].pop_front().unwrap();
        r.sync_after_pop(3);
        assert!(requests(&r, 1, 3), "tail still buffered");

        let popped = r.bufs[3].pop_front().unwrap();
        assert!(popped.is_tail);
        r.clear_route(3);
        assert_eq!(r.routed, 0);
        assert!(!requests(&r, 1, 3) && !r.va_pending.get(3));
        assert!(r.idle());
    }

    #[test]
    fn last_credit_drops_the_request_and_its_return_restores_it() {
        let mut r = Router::new(5, 2, 1);
        let m = Message::new(1, NodeId(0), NodeId(1), 3, 0);
        r.push_flit(3, Flit::of(&m, 0, 0));
        r.out_owner[2] = 3;
        r.set_route(3, route_pack(1, 0));
        r.push_flit(3, Flit::of(&m, 1, 0));
        // Forward the head: the only credit of output VC 2 is spent.
        let _ = r.bufs[3].pop_front().unwrap();
        r.out_credits[2] -= 1;
        r.sync_after_pop(3);
        assert!(!requests(&r, 1, 3), "no credit, no request");
        r.push_flit(3, Flit::of(&m, 2, 0));
        assert!(!requests(&r, 1, 3), "an arrival does not conjure a credit");
        r.return_credit(2);
        assert!(requests(&r, 1, 3), "0 -> 1 credit re-raises the owner");
    }

    #[test]
    fn parked_head_is_busy_and_wakes_on_release_only_if_still_parked() {
        let mut r = Router::new(5, 2, 4);
        let m = Message::new(1, NodeId(0), NodeId(1), 2, 0);
        r.push_flit(3, Flit::of(&m, 0, 0));
        r.park(3, [2usize, 4].into_iter());
        assert!(!r.va_pending.get(3) && r.parked == 1);
        assert!(!r.idle(), "a parked head is not idle");
        r.push_flit(3, Flit::of(&m, 1, 0));
        assert!(!r.va_pending.get(3), "a body flit does not re-arm its head");

        r.release_output(2);
        assert!(r.va_pending.get(3) && r.parked == 0);
        // The bit left on output VC 4 is stale now: once the head is
        // routed, releasing 4 must not touch the VC.
        r.set_route(3, route_pack(1, 0));
        r.release_output(4);
        assert!(!r.va_pending.get(3) && r.parked == 0);
    }

    #[test]
    fn allocated_vc_is_not_idle_even_when_drained() {
        let mut r = Router::new(5, 2, 4);
        let m = Message::new(1, NodeId(0), NodeId(1), 3, 0);
        r.push_flit(0, Flit::of(&m, 0, 0));
        r.set_route(0, route_pack(2, 1));
        let _ = r.bufs[0].pop_front().unwrap();
        r.sync_after_pop(0);
        assert!(!r.idle(), "allocated VC is not idle even when drained");
    }
}
