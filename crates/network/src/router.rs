//! The router table: every router's state, one struct-of-arrays for the
//! whole fabric.
//!
//! This mirrors the "typical architecture of a wormhole router" of the
//! paper's Fig. 1: input queues per virtual channel, a crossbar, a routing
//! control unit, and output multiplexers. Nothing is kept per router
//! object. Every per-VC field is one fabric-wide array indexed by the
//! global VC id `router · n_ivc + port · w + vc` (`n_ivc = nports · w`,
//! the local port last); every per-router field is one array indexed by
//! router id. So a router owns no allocation, the fabric's tick walks a
//! handful of flat arrays, and a 2-D router at `w = 2`, depth 4, is about
//! 1 KB of table. The layout is this module's alone: every method takes a
//! router id and a router-local index (a dense VC `port · w + vc`, a
//! port, an injection VC), and only `RouterTable::vc` writes the global
//! id.
//!
//! * **Fixed rings.** Input VC `g`'s buffer is the `buffer_depth` slots
//!   `flits[g · depth ..]` plus a `(head, len)` pair: a push writes slot
//!   `head + len` wrapped by one compare, a pop reads `head` and steps it.
//!   A push into a full ring panics ("credit protocol violated") before it
//!   writes, so a broken credit count can never overwrite a buffered
//!   flit; a credit returned to an output VC that holds them all panics
//!   the same way before it is counted. A [`Flit`] is the 12 bytes the
//!   fabric reads.
//! * **Links, precomputed.** Per (router, network port), the neighbour and
//!   the dense id of its first VC on the opposite port: a flit forwarded
//!   on VC `v` lands in that VC plus `v`, and a credit for input VC `v` of
//!   that port returns to the same VC plus `v` (the upstream output VC).
//!   Per dense VC, its `(port, vc)`; per port, the mask of its VCs.
//! * **Injection queues** are FIFOs of message slab slots linked through
//!   the slab, so they allocate nothing either.
//!
//! Scheduling is **event-driven**: an input VC is looked at only while the
//! resource it needs can be had, and is otherwise parked on that resource
//! until the event that frees it. Three kinds of set hold the VCs worth a
//! look, each one `u64` (bit `i` is dense VC `i`, so a router has at most
//! 64 input VCs), all of a router's side by side in one flat word array:
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

use wavesim_sim::Cycle;
use wavesim_topology::{PortDir, Topology, MAX_DIMS};

use crate::message::{Flit, Message};

/// Sentinel of a packed route word: no output allocated to this input VC.
pub(crate) const ROUTE_NONE: u16 = u16::MAX;

/// Sentinel of an output VC's owner: owned by no packet.
pub(crate) const OWNER_NONE: u16 = u16::MAX;

/// Sentinel in `RouterTable::head_since`: no unrouted head is waiting.
const NO_HEAD: Cycle = Cycle::MAX;

/// Sentinel of a `u32` router, VC or slab-slot field: none (a mesh
/// boundary in [`RouterTable::link`], the end of a [`SlotQueue`]).
pub(crate) const NONE: u32 = u32::MAX;

/// The deepest buffer a ring's `u16` index can hold.
pub(crate) const MAX_DEPTH: u32 = u16::MAX as u32;

/// Packs an output allocation into a route word.
#[inline]
#[must_use]
pub(crate) fn route_pack(out_port: u8, out_vc: u8) -> u16 {
    (u16::from(out_port) << 8) | u16::from(out_vc)
}

/// Output port of a packed route word.
#[inline]
#[must_use]
pub(crate) fn route_port(r: u16) -> usize {
    (r >> 8) as usize
}

/// Output VC of a packed route word.
#[inline]
#[must_use]
pub(crate) fn route_vc(r: u16) -> usize {
    (r & 0xff) as usize
}

/// Message-emission state of one injection virtual channel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Emitting {
    /// The message being converted to flits.
    pub(crate) msg: Message,
    /// Flits already pushed into the injection buffer.
    pub(crate) sent: u32,
    /// Fabric arena slot of the message record, stamped into every flit.
    pub(crate) slot: u32,
}

/// A FIFO of message slab slots, linked through the slab: `head` is the
/// next to leave, `tail` the last in, both [`NONE`] when empty.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotQueue {
    /// Oldest queued slot.
    pub(crate) head: u32,
    /// Newest queued slot.
    pub(crate) tail: u32,
}

// One ready-port bit per port: 2·MAX_DIMS network ports and the local one.
const _: () = assert!(2 * MAX_DIMS < u32::BITS as usize);

/// One router's scalars.
#[derive(Debug, Clone, Copy)]
struct RouterState {
    /// The ready-port word: bit `p` is set iff output port `p`'s request
    /// mask is non-empty, so the switch allocator arbitrates only the
    /// ports with a raised request line.
    ready: u32,
    /// Input VCs whose route is allocated (`route != ROUTE_NONE`).
    routed: u16,
    /// Unrouted heads parked off `va_pending` because every candidate
    /// output VC was owned; each waits in the waiter masks of its
    /// candidates. (Which VCs: no route, non-empty, not in `va_pending`.)
    parked: u16,
    /// Injection VCs with a message mid-emission.
    emitting: u16,
    /// Messages waiting for a free injection VC.
    queue: SlotQueue,
}

/// Input VC `g`'s ring: `len` flits from slot `head` on, in
/// `flits[g · depth ..][..depth]`.
#[derive(Debug, Clone, Copy, Default)]
struct Ring {
    head: u16,
    len: u16,
}

/// Every router's state, struct-of-arrays over the global VC id
/// `router · n_ivc + port · w + vc` (inputs; outputs use the same layout)
/// and the router id. The layout stays inside this module: every method
/// takes a router id and a router-local index (a dense VC `port · w + vc`,
/// a port, an injection VC).
#[derive(Clone)]
pub(crate) struct RouterTable {
    /// Virtual channels per port.
    pub(crate) w: usize,
    /// Ports per router, the local (injection / ejection) port last.
    pub(crate) nports: usize,
    /// Input VCs per router: `nports · w`.
    pub(crate) n_ivc: usize,
    /// Flit slots per input VC.
    pub(crate) depth: usize,
    /// Words of one router in `masks`: `va_pending`, then one request mask
    /// per output port, then one waiter mask per output VC.
    mask_stride: usize,
    /// The rings' slots, `depth` per input VC.
    flits: Vec<Flit>,
    /// Per input VC, its ring's `(head, len)`.
    rings: Vec<Ring>,
    /// Per input VC, the output allocation, packed `out_port << 8 |
    /// out_vc`; [`ROUTE_NONE`] when unallocated.
    route: Vec<u16>,
    /// Per input VC, the cycle at which the head flit at its front was
    /// first seen by the routing control unit; [`NO_HEAD`] when none is
    /// waiting.
    head_since: Vec<Cycle>,
    /// Per output VC, the owner (dense input-VC index of the same router);
    /// [`OWNER_NONE`] if free.
    out_owner: Vec<u16>,
    /// Per output VC, the free buffer slots at the downstream input VC.
    out_credits: Vec<u32>,
    /// `mask_stride` words per router (see there).
    masks: Vec<u64>,
    /// Per router, its scalars.
    state: Vec<RouterState>,
    /// Per (router, output port), the switch allocator's round-robin
    /// pointer. (The VA round-robin pointer needs no storage: the seed
    /// kernel advanced it by exactly one every cycle regardless of
    /// activity, so it is derived as `now % n_ivc` — which also lets idle
    /// routers skip ticks entirely without desynchronizing arbitration.)
    sa_rr: Vec<u16>,
    /// Per (router, injection VC), the flit emission in progress.
    emitting: Vec<Option<Emitting>>,
    /// Per (router, port): the neighbour and the dense id, at the
    /// neighbour, of the first VC of the opposite port; `(NONE, NONE)` on
    /// a mesh boundary and at the local port.
    links: Vec<(u32, u32)>,
    /// Per dense VC, its `(port, vc)`.
    vc_ports: Vec<(u8, u8)>,
    /// Per port, the mask with its `w` input VCs' bits set.
    port_bits: Vec<u64>,
}

impl RouterTable {
    /// The table of every router of `topo`, with `w` VCs per port and
    /// `depth`-flit buffers (each output VC starting with `depth`
    /// credits).
    ///
    /// # Panics
    /// Panics if a router has more than 64 input VCs (`nports · w`: each
    /// scheduling set is one `u64`) or the fabric has 2^32 or more VCs.
    /// `depth` must be in `1..=MAX_DEPTH`; the fabric's constructor checks
    /// it.
    #[must_use]
    pub(crate) fn new(topo: &Topology, w: usize, depth: u32) -> Self {
        debug_assert!((1..=MAX_DEPTH).contains(&depth));
        let routers = topo.num_nodes() as usize;
        let nports = 2 * topo.ndims() + 1;
        let n_ivc = nports * w;
        assert!(
            n_ivc <= 64,
            "{nports} ports x {w} VCs is {n_ivc} input VCs: a router has at most 64 (one u64 per scheduling set)"
        );
        let vcs = routers * n_ivc;
        assert!(
            u32::try_from(vcs).is_ok(),
            "fewer than 2^32 virtual channels"
        );
        let mask_stride = 1 + nports + n_ivc;
        let mut links = vec![(NONE, NONE); routers * nports];
        for node in topo.nodes() {
            for port in 0..nports - 1 {
                let p = PortDir::from_index(port);
                if let Some(nb) = topo.neighbor(node, p) {
                    let first = (p.opposite().index() * w) as u32;
                    links[node.0 as usize * nports + port] = (nb.0, first);
                }
            }
        }
        let mut port_bits = vec![0; nports];
        for i in 0..n_ivc {
            port_bits[i / w] |= 1 << i;
        }
        let depth = depth as usize;
        Self {
            w,
            nports,
            n_ivc,
            depth,
            mask_stride,
            flits: vec![Flit::VACANT; vcs * depth],
            rings: vec![Ring::default(); vcs],
            route: vec![ROUTE_NONE; vcs],
            head_since: vec![NO_HEAD; vcs],
            out_owner: vec![OWNER_NONE; vcs],
            out_credits: vec![depth as u32; vcs],
            masks: vec![0; routers * mask_stride],
            state: vec![
                RouterState {
                    ready: 0,
                    routed: 0,
                    parked: 0,
                    emitting: 0,
                    queue: SlotQueue {
                        head: NONE,
                        tail: NONE,
                    },
                };
                routers
            ],
            sa_rr: vec![0; routers * nports],
            emitting: vec![None; routers * w],
            links,
            vc_ports: (0..n_ivc).map(|i| ((i / w) as u8, (i % w) as u8)).collect(),
            port_bits,
        }
    }

    /// Global id of router `r`'s dense VC `i`: the one place the layout is
    /// written.
    #[inline]
    fn vc(&self, r: usize, i: usize) -> usize {
        r * self.n_ivc + i
    }

    /// Router `r`'s `va_pending` set: the unrouted heads VA must visit.
    #[inline]
    pub(crate) fn va_pending(&self, r: usize) -> u64 {
        self.masks[r * self.mask_stride]
    }

    /// Router `r`'s output port `port` request mask: the input VCs its
    /// switch arbiter may grant this cycle.
    #[inline]
    pub(crate) fn sa_req(&self, r: usize, port: usize) -> u64 {
        self.masks[self.sa_req_at(r, port)]
    }

    /// Where router `r`'s output port `port` request mask sits in `masks`.
    #[inline]
    fn sa_req_at(&self, r: usize, port: usize) -> usize {
        r * self.mask_stride + 1 + port
    }

    /// Router `r`'s ready-port word: bit `p` set iff [`Self::sa_req`] of
    /// port `p` is non-empty.
    #[inline]
    pub(crate) fn ready_ports(&self, r: usize) -> u32 {
        self.state[r].ready
    }

    /// Where router `r`'s output VC `ovc` waiter mask sits in `masks`.
    #[inline]
    fn va_wait(&self, r: usize, ovc: usize) -> usize {
        r * self.mask_stride + 1 + self.nports + ovc
    }

    /// The mask of port `port`'s input VCs.
    #[inline]
    pub(crate) fn port_bits(&self, port: usize) -> u64 {
        self.port_bits[port]
    }

    /// Dense VC `i`'s `(port, vc)`.
    #[inline]
    pub(crate) fn vc_port(&self, i: usize) -> (usize, u32) {
        let (port, vc) = self.vc_ports[i];
        (usize::from(port), u32::from(vc))
    }

    /// Router `r`'s link on network port `port`: the neighbour and the
    /// dense id, at the neighbour, of the first VC of the opposite port —
    /// a flit forwarded on VC `v` lands in that id plus `v`, and a credit
    /// for input VC `v` returns to the same id plus `v`. `(NONE, NONE)` on
    /// a mesh boundary and at the local port.
    #[inline]
    pub(crate) fn link(&self, r: usize, port: usize) -> (u32, u32) {
        self.links[r * self.nports + port]
    }

    /// Router `r`'s output port `port` switch-arbitration pointer: the
    /// input VC its round robin starts from.
    #[inline]
    pub(crate) fn sa_ptr(&self, r: usize, port: usize) -> usize {
        usize::from(self.sa_rr[r * self.nports + port])
    }

    /// Moves that pointer just past input VC `winner`, the one granted.
    #[inline]
    pub(crate) fn advance_sa_ptr(&mut self, r: usize, port: usize, winner: usize) {
        let next = if winner + 1 == self.n_ivc {
            0
        } else {
            winner + 1
        };
        self.sa_rr[r * self.nports + port] = next as u16;
    }

    /// Sets or clears bit `i` of the mask at `masks[at]`.
    #[inline]
    fn put_bit(&mut self, at: usize, i: usize, on: bool) {
        let word = &mut self.masks[at];
        if on {
            *word |= 1 << i;
        } else {
            *word &= !(1 << i);
        }
    }

    /// True when router `r`'s VC `i` is in its `va_pending` set.
    #[inline]
    pub(crate) fn is_pending(&self, r: usize, i: usize) -> bool {
        self.va_pending(r) >> i & 1 == 1
    }

    /// Sets or clears router `r`'s VC `i` in its `va_pending` set.
    #[inline]
    fn set_pending(&mut self, r: usize, i: usize, on: bool) {
        self.put_bit(r * self.mask_stride, i, on);
    }

    /// Flits buffered in router `r`'s input VC `i`.
    #[inline]
    pub(crate) fn ring_len(&self, r: usize, i: usize) -> usize {
        usize::from(self.rings[self.vc(r, i)].len)
    }

    /// The flit at the front of router `r`'s input VC `i`.
    #[inline]
    pub(crate) fn front(&self, r: usize, i: usize) -> Option<&Flit> {
        let g = self.vc(r, i);
        let ring = self.rings[g];
        (ring.len > 0).then(|| &self.flits[g * self.depth + usize::from(ring.head)])
    }

    /// Takes the flit at the front of router `r`'s input VC `i`.
    #[inline]
    pub(crate) fn pop_flit(&mut self, r: usize, i: usize) -> Option<Flit> {
        let g = self.vc(r, i);
        let ring = &mut self.rings[g];
        if ring.len == 0 {
            return None;
        }
        let head = usize::from(ring.head);
        ring.head = if head + 1 == self.depth {
            0
        } else {
            ring.head + 1
        };
        ring.len -= 1;
        Some(self.flits[g * self.depth + head])
    }

    /// Router `r`'s input VC `i`'s packed route word; [`ROUTE_NONE`] when
    /// unallocated.
    #[inline]
    pub(crate) fn route(&self, r: usize, i: usize) -> u16 {
        self.route[self.vc(r, i)]
    }

    /// The cycle the routing control unit first saw the head at the front
    /// of router `r`'s input VC `i`, stamped `now` on the first look.
    #[inline]
    pub(crate) fn head_seen(&mut self, r: usize, i: usize, now: Cycle) -> Cycle {
        let g = self.vc(r, i);
        let since = &mut self.head_since[g];
        if *since == NO_HEAD {
            *since = now;
        }
        *since
    }

    /// The input VC owning router `r`'s output VC `ovc`; [`OWNER_NONE`] if
    /// free.
    #[inline]
    pub(crate) fn owner(&self, r: usize, ovc: usize) -> u16 {
        self.out_owner[self.vc(r, ovc)]
    }

    /// Dense output-VC index a packed route word points at. Ejection
    /// routes map to the local port's (never spent) credit slot, so
    /// "has a credit" needs no local-port case.
    #[inline]
    fn route_ovc(&self, rt: u16) -> usize {
        route_port(rt) * self.w + route_vc(rt)
    }

    /// Raises routed input VC `i` of router `r`'s request line if it has a
    /// flit to send and a downstream slot to send it into, marking its
    /// port ready.
    #[inline(always)]
    fn request(&mut self, r: usize, i: usize) {
        let g = self.vc(r, i);
        let rt = self.route[g];
        if self.rings[g].len > 0 && self.out_credits[self.vc(r, self.route_ovc(rt))] > 0 {
            let port = route_port(rt);
            self.put_bit(self.sa_req_at(r, port), i, true);
            self.state[r].ready |= 1 << port;
        }
    }

    /// Drops input VC `i` of router `r`'s request line on the port of
    /// route `rt`; the port leaves the ready word with its last request.
    #[inline]
    fn unrequest(&mut self, r: usize, i: usize, rt: u16) {
        let port = route_port(rt);
        let at = self.sa_req_at(r, port);
        self.put_bit(at, i, false);
        if self.masks[at] == 0 {
            self.state[r].ready &= !(1 << port);
        }
    }

    /// Appends a flit to input VC `i` of router `r` (arrival or
    /// injection). A flit landing in an empty unrouted VC is a new head for
    /// the VA stage; one landing behind a waiting head changes nothing that
    /// head waits on.
    ///
    /// # Panics
    /// Panics, before anything is written, if the ring is full: the
    /// sender spent a credit it did not have.
    #[inline(always)]
    pub(crate) fn push_flit(&mut self, r: usize, i: usize, flit: Flit) {
        let g = self.vc(r, i);
        let ring = &mut self.rings[g];
        let len = usize::from(ring.len);
        assert!(
            len < self.depth,
            "credit protocol violated: buffer overflow at router {r} vc {i}"
        );
        let mut at = usize::from(ring.head) + len;
        if at >= self.depth {
            at -= self.depth;
        }
        ring.len += 1;
        self.flits[g * self.depth + at] = flit;
        if self.route[g] != ROUTE_NONE {
            self.request(r, i);
        } else if len == 0 {
            self.set_pending(r, i, true);
        }
    }

    /// Allocates the packed route `rt` to input VC `i` of router `r` (VA
    /// grant or ejection mark), moving it from the VA set to its port's
    /// requests.
    #[inline]
    pub(crate) fn set_route(&mut self, r: usize, i: usize, rt: u16) {
        let g = self.vc(r, i);
        debug_assert_eq!(self.route[g], ROUTE_NONE);
        debug_assert_ne!(rt, ROUTE_NONE);
        self.route[g] = rt;
        self.state[r].routed += 1;
        self.head_since[g] = NO_HEAD;
        self.set_pending(r, i, false);
        self.request(r, i);
    }

    /// VA grant: router `r`'s input VC `i` takes the free output VC `vc`
    /// of port `port` and is routed through it.
    #[inline]
    pub(crate) fn grant(&mut self, r: usize, i: usize, port: usize, vc: u8) {
        let g = self.vc(r, port * self.w + usize::from(vc));
        debug_assert_eq!(self.out_owner[g], OWNER_NONE);
        self.out_owner[g] = i as u16;
        self.set_route(r, i, route_pack(port as u8, vc));
    }

    /// Releases input VC `i` of router `r`'s route (its packet's tail
    /// left), returning the VC to the VA set if the next packet is already
    /// buffered.
    #[inline]
    pub(crate) fn clear_route(&mut self, r: usize, i: usize) {
        let g = self.vc(r, i);
        let rt = self.route[g];
        debug_assert_ne!(rt, ROUTE_NONE);
        self.unrequest(r, i, rt);
        self.route[g] = ROUTE_NONE;
        self.state[r].routed -= 1;
        if self.rings[g].len > 0 {
            self.set_pending(r, i, true);
        }
    }

    /// Re-syncs input VC `i` of router `r`'s request line after a non-tail
    /// flit was popped from it (and, for a forward, a credit spent): it
    /// drops out when the buffer ran empty or the pop took the last credit.
    #[inline(always)]
    pub(crate) fn sync_after_pop(&mut self, r: usize, i: usize) {
        let g = self.vc(r, i);
        let rt = self.route[g];
        if self.rings[g].len == 0 || self.out_credits[self.vc(r, self.route_ovc(rt))] == 0 {
            self.unrequest(r, i, rt);
        }
    }

    /// Spends one credit of router `r`'s output VC `ovc`: a flit was
    /// forwarded through it.
    #[inline]
    pub(crate) fn spend_credit(&mut self, r: usize, ovc: usize) {
        let g = self.vc(r, ovc);
        debug_assert!(self.out_credits[g] > 0, "request bit set without a credit");
        self.out_credits[g] -= 1;
    }

    /// Takes back one credit for router `r`'s output VC `ovc`. The return
    /// that makes the first slot available re-raises the owner's request
    /// line.
    ///
    /// # Panics
    /// Panics, before anything is written, if the output VC already holds
    /// a credit for every downstream slot: nobody spent the one returned.
    #[inline]
    pub(crate) fn return_credit(&mut self, r: usize, ovc: usize) {
        let g = self.vc(r, ovc);
        assert!(
            (self.out_credits[g] as usize) < self.depth,
            "credit protocol violated: credit overflow at router {r} ovc {ovc}"
        );
        self.out_credits[g] += 1;
        let owner = self.out_owner[g];
        if self.out_credits[g] == 1 && owner != OWNER_NONE {
            self.request(r, owner as usize);
        }
    }

    /// Parks router `r`'s unrouted head `i`, every one of whose candidate
    /// output VCs `ovcs` is owned, until one of them is released.
    #[inline]
    pub(crate) fn park(&mut self, r: usize, i: usize, ovcs: impl Iterator<Item = usize>) {
        self.set_pending(r, i, false);
        self.state[r].parked += 1;
        for ovc in ovcs {
            self.put_bit(self.va_wait(r, ovc), i, true);
        }
    }

    /// Frees router `r`'s output VC `ovc` (its packet's tail was
    /// forwarded) and returns the heads parked on it to the VA set.
    #[inline]
    pub(crate) fn release_output(&mut self, r: usize, ovc: usize) {
        let g = self.vc(r, ovc);
        self.out_owner[g] = OWNER_NONE;
        let at = self.va_wait(r, ovc);
        let mut bits = std::mem::take(&mut self.masks[at]);
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            // Stale waiter bits outlive their head; only a VC that is
            // parked right now goes back.
            let gi = self.vc(r, i);
            if self.route[gi] == ROUTE_NONE && self.rings[gi].len > 0 && !self.is_pending(r, i) {
                self.set_pending(r, i, true);
                self.state[r].parked -= 1;
            }
        }
    }

    /// Router `r`'s injection VC `v`'s emission in progress.
    #[inline]
    pub(crate) fn emitter(&self, r: usize, v: usize) -> Option<Emitting> {
        self.emitting[r * self.w + v]
    }

    /// Sets router `r`'s injection VC `v`'s emission, keeping the router's
    /// count of emitting VCs.
    #[inline]
    pub(crate) fn set_emitter(&mut self, r: usize, v: usize, em: Option<Emitting>) {
        let slot = &mut self.emitting[r * self.w + v];
        let count = &mut self.state[r].emitting;
        match (slot.is_some(), em.is_some()) {
            (false, true) => *count += 1,
            (true, false) => *count -= 1,
            _ => {}
        }
        *slot = em;
    }

    /// Router `r`'s queue of messages waiting for an injection VC.
    #[inline]
    pub(crate) fn queue(&self, r: usize) -> SlotQueue {
        self.state[r].queue
    }

    /// The same queue, to push onto or take from.
    #[inline]
    pub(crate) fn queue_mut(&mut self, r: usize) -> &mut SlotQueue {
        &mut self.state[r].queue
    }

    /// True when router `r` has a message queued or mid-emission: the
    /// injection stage's work.
    #[inline]
    pub(crate) fn injecting(&self, r: usize) -> bool {
        let s = &self.state[r];
        s.emitting > 0 || s.queue.head != NONE
    }

    /// True when nothing is queued, buffered, or mid-emission at router
    /// `r`. `routed == 0` covers every allocated VC (buffered or in
    /// transit); an empty `va_pending` and no parked head then certify
    /// every unallocated VC is drained too.
    #[inline]
    #[must_use]
    pub(crate) fn idle(&self, r: usize) -> bool {
        let s = &self.state[r];
        s.queue.head == NONE
            && s.emitting == 0
            && s.routed == 0
            && s.parked == 0
            && self.va_pending(r) == 0
    }
}

/// Test-only recounts: the flits a router buffers, and the mask oracle —
/// what every scheduling set must hold, recomputed from the rings, routes,
/// owners and credits alone.
#[cfg(test)]
impl RouterTable {
    /// Total flits buffered in router `r`'s input VCs.
    pub(crate) fn buffered_flits(&self, r: usize) -> usize {
        let at = self.vc(r, 0);
        (self.rings[at..at + self.n_ivc].iter())
            .map(|ring| usize::from(ring.len))
            .sum()
    }

    /// Router `r`'s parked heads.
    pub(crate) fn parked(&self, r: usize) -> u16 {
        self.state[r].parked
    }

    /// Router `r`'s emitting injection VCs, checked against a recount.
    pub(crate) fn emitting(&self, r: usize) -> usize {
        let live = (0..self.w).filter(|&v| self.emitter(r, v).is_some());
        let count = usize::from(self.state[r].emitting);
        assert_eq!(live.count(), count, "router {r}: emitters");
        count
    }

    /// Panics unless, for router `node` after the tick of cycle `now`:
    /// every request bit ⇔ routed ∧ buffered ∧ credit available; every
    /// ready-port bit ⇔ that port's request mask is non-empty; every
    /// unrouted buffered head is in `va_pending` xor parked, and `parked`
    /// counts the latter; a parked head is past its routing delay, bound
    /// elsewhere, owns nothing, finds every candidate output VC owned and
    /// is in each one's waiter mask. Waiter bits may be stale; missing ones
    /// strand a head for good.
    pub(crate) fn check_masks(
        &self,
        routing: &dyn wavesim_topology::WormholeRouting,
        topo: &Topology,
        node: wavesim_topology::NodeId,
        routing_delay: u32,
        now: Cycle,
    ) {
        let r = node.0 as usize;
        let (n, w) = (self.n_ivc, self.w);
        let bit = |word: u64, i: usize| word >> i & 1 == 1;
        let mut parked = 0;
        let mut cand = Vec::new();
        for i in 0..n {
            let g = self.vc(r, i);
            let (rt, buffered) = (self.route[g], self.ring_len(r, i) > 0);
            for port in 0..self.nports {
                let want = rt != ROUTE_NONE
                    && route_port(rt) == port
                    && buffered
                    && self.out_credits[self.vc(r, self.route_ovc(rt))] > 0;
                assert_eq!(
                    bit(self.sa_req(r, port), i),
                    want,
                    "request {node:?} vc {i} port {port}"
                );
            }
            if rt != ROUTE_NONE || !buffered {
                assert!(
                    !self.is_pending(r, i),
                    "{node:?} vc {i}: pending without a head"
                );
                continue;
            }
            if self.is_pending(r, i) {
                continue;
            }
            parked += 1;
            let front = self.front(r, i).expect("buffered");
            assert!(
                front.is_head && front.dest != node,
                "{node:?} vc {i}: parked non-head"
            );
            assert!(
                self.head_since[g] != NO_HEAD
                    && self.head_since[g] + u64::from(routing_delay) <= now,
                "{node:?} vc {i}: parked inside its routing delay"
            );
            cand.clear();
            routing.route(topo, node, front.dest, &mut cand);
            for c in &cand {
                let ovc = c.port.index() * w + c.vc as usize;
                assert_ne!(
                    self.out_owner[self.vc(r, ovc)],
                    OWNER_NONE,
                    "{node:?} vc {i}: parked on free {ovc}"
                );
                assert!(
                    bit(self.masks[self.va_wait(r, ovc)], i),
                    "{node:?} vc {i}: no waiter bit on candidate {ovc}"
                );
            }
        }
        assert_eq!(self.state[r].parked, parked, "{node:?}: parked count");
        for port in 0..self.nports {
            let raised = self.sa_req(r, port) != 0;
            assert_eq!(
                self.ready_ports(r) >> port & 1 == 1,
                raised,
                "{node:?}: ready bit of port {port}"
            );
        }
        assert_eq!(
            self.ready_ports(r) >> self.nports,
            0,
            "{node:?}: ready bit past the ports"
        );
        for ovc in 0..n {
            let owner = self.out_owner[self.vc(r, ovc)];
            if owner != OWNER_NONE {
                let rt = self.route[self.vc(r, owner as usize)];
                assert_eq!(self.route_ovc(rt), ovc, "{node:?}: owner");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesim_topology::NodeId;

    /// A 2x2 mesh's table: five ports a router (local last), `w = 2`, so
    /// router 0's input VCs are 0..10 and its local port's are 8 and 9.
    fn table(depth: u32) -> RouterTable {
        RouterTable::new(&Topology::mesh(&[2, 2]), 2, depth)
    }

    #[test]
    fn fresh_router_is_idle() {
        let t = table(4);
        assert!(t.idle(0));
        assert_eq!(t.n_ivc, 10);
        assert_eq!(t.out_owner.len(), 4 * 10);
        assert_eq!(t.buffered_flits(0), 0);
        assert!(t.out_credits.iter().all(|&c| c == 4));
        assert!(t.out_owner.iter().all(|&o| o == OWNER_NONE));
    }

    #[test]
    fn queued_message_makes_router_busy() {
        let mut t = table(4);
        t.state[0].queue = SlotQueue { head: 0, tail: 0 };
        assert!(!t.idle(0));
        assert!(t.idle(1));
    }

    #[test]
    fn route_pack_round_trips() {
        let r = route_pack(7, 3);
        assert_eq!(route_port(r), 7);
        assert_eq!(route_vc(r), 3);
        assert_ne!(r, ROUTE_NONE);
    }

    #[test]
    fn links_name_the_neighbour_and_its_opposite_port() {
        // Router 0 of the 2x2 mesh is (0,0): +x (port 0) reaches router 1,
        // whose -x input port (port 1) starts at its VC 1 * 2; +y (port 2)
        // reaches router 2 at its -y port (3), VC 6. The minus ports and
        // the local port lead nowhere.
        let t = table(4);
        assert_eq!(t.link(0, 0), (1, 2));
        assert_eq!(t.link(0, 2), (2, 6));
        for port in [1, 3, 4] {
            assert_eq!(t.link(0, port), (NONE, NONE), "port {port}");
        }
        assert_eq!(
            t.link(3, 1),
            (2, 0),
            "(1,1) -x reaches (0,1) at its +x port"
        );
        assert_eq!(t.vc_port(7), (3, 1));
        assert_eq!(t.port_bits(4), 0b11 << 8);
    }

    /// True when input VC `i` of router 0 requests output port `port`.
    fn requests(t: &RouterTable, port: usize, i: usize) -> bool {
        t.sa_req(0, port) >> i & 1 == 1
    }

    #[test]
    fn masks_track_push_route_pop_lifecycle() {
        let mut t = table(4);
        let m = Message::new(1, NodeId(0), NodeId(1), 2, 0);
        let head = Flit::of(&m, 0, 0);
        let tail = Flit::of(&m, 1, 0);

        t.push_flit(0, 3, head);
        assert!(t.is_pending(0, 3) && !requests(&t, 1, 3));
        assert!(!t.idle(0), "pending VC is not idle");

        t.set_route(0, 3, route_pack(1, 0));
        assert!(!t.is_pending(0, 3) && requests(&t, 1, 3));
        assert!((0..5).all(|p| p == 1 || !requests(&t, p, 3)));
        assert_eq!(t.state[0].routed, 1);

        t.push_flit(0, 3, tail);
        let _ = t.pop_flit(0, 3).unwrap();
        t.sync_after_pop(0, 3);
        assert!(requests(&t, 1, 3), "tail still buffered");

        let popped = t.pop_flit(0, 3).unwrap();
        assert!(popped.is_tail);
        t.clear_route(0, 3);
        assert_eq!(t.state[0].routed, 0);
        assert!(!requests(&t, 1, 3) && !t.is_pending(0, 3));
        assert!(t.idle(0));
    }

    #[test]
    fn last_credit_drops_the_request_and_its_return_restores_it() {
        // Two-slot input rings, but output VC 2 has a single credit: after
        // the head is forwarded the body flit is still buffered, so only
        // the spent credit can drop the request.
        let mut t = table(2);
        t.out_credits[2] = 1;
        let m = Message::new(1, NodeId(0), NodeId(1), 3, 0);
        t.push_flit(0, 3, Flit::of(&m, 0, 0));
        t.out_owner[2] = 3;
        t.set_route(0, 3, route_pack(1, 0));
        t.push_flit(0, 3, Flit::of(&m, 1, 0));
        // Forward the head: the only credit of output VC 2 is spent.
        let _ = t.pop_flit(0, 3).unwrap();
        t.out_credits[2] -= 1;
        t.sync_after_pop(0, 3);
        assert_eq!(t.ring_len(0, 3), 1, "the body flit is still buffered");
        assert!(!requests(&t, 1, 3), "no credit, no request");
        t.push_flit(0, 3, Flit::of(&m, 2, 0));
        assert!(!requests(&t, 1, 3), "an arrival does not conjure a credit");
        t.return_credit(0, 2);
        assert!(requests(&t, 1, 3), "0 -> 1 credit re-raises the owner");
    }

    #[test]
    fn ready_word_follows_the_last_request_of_each_port() {
        // VC 3 is routed through output VC 2 (port 1), which has a single
        // credit; VC 5 is routed through output VC 7 (port 3).
        let mut t = table(2);
        t.out_credits[2] = 1;
        let m = Message::new(1, NodeId(0), NodeId(1), 2, 0);
        let n = Message::new(2, NodeId(0), NodeId(2), 3, 0);
        t.push_flit(0, 3, Flit::of(&m, 0, 0));
        t.push_flit(0, 5, Flit::of(&n, 0, 1));
        assert_eq!(t.ready_ports(0), 0, "unrouted heads raise no port");
        t.grant(0, 3, 1, 0);
        t.grant(0, 5, 3, 1);
        t.push_flit(0, 3, Flit::of(&m, 1, 0));
        assert_eq!(t.ready_ports(0), 1 << 1 | 1 << 3);

        // Forward VC 3's head: the port's only requester spends its last
        // credit with the tail still buffered, and port 1 leaves the word.
        let _ = t.pop_flit(0, 3).unwrap();
        t.spend_credit(0, 2);
        t.sync_after_pop(0, 3);
        assert_eq!(t.ring_len(0, 3), 1);
        assert_eq!(t.ready_ports(0), 1 << 3, "no credit, port not ready");

        t.return_credit(0, 2);
        assert_eq!(
            t.ready_ports(0),
            1 << 1 | 1 << 3,
            "credit 0 -> 1 puts it back"
        );

        // Forward the tail: clearing the route drops the port's last request.
        let tail = t.pop_flit(0, 3).unwrap();
        assert!(tail.is_tail);
        t.spend_credit(0, 2);
        t.clear_route(0, 3);
        t.release_output(0, 2);
        assert_eq!(t.ready_ports(0), 1 << 3, "the tail takes port 1 out");
    }

    #[test]
    fn parked_head_is_busy_and_wakes_on_release_only_if_still_parked() {
        let mut t = table(4);
        let m = Message::new(1, NodeId(0), NodeId(1), 2, 0);
        t.push_flit(0, 3, Flit::of(&m, 0, 0));
        t.park(0, 3, [2usize, 4].into_iter());
        assert!(!t.is_pending(0, 3) && t.state[0].parked == 1);
        assert!(!t.idle(0), "a parked head is not idle");
        t.push_flit(0, 3, Flit::of(&m, 1, 0));
        assert!(!t.is_pending(0, 3), "a body flit does not re-arm its head");

        t.release_output(0, 2);
        assert!(t.is_pending(0, 3) && t.state[0].parked == 0);
        // The bit left on output VC 4 is stale now: once the head is
        // routed, releasing 4 must not touch the VC.
        t.set_route(0, 3, route_pack(1, 0));
        t.release_output(0, 4);
        assert!(!t.is_pending(0, 3) && t.state[0].parked == 0);
    }

    #[test]
    fn allocated_vc_is_not_idle_even_when_drained() {
        let mut t = table(4);
        let m = Message::new(1, NodeId(0), NodeId(1), 3, 0);
        t.push_flit(0, 0, Flit::of(&m, 0, 0));
        t.set_route(0, 0, route_pack(2, 1));
        let _ = t.pop_flit(0, 0).unwrap();
        t.sync_after_pop(0, 0);
        assert!(!t.idle(0), "allocated VC is not idle even when drained");
    }

    #[test]
    fn rings_are_fifo_across_the_wrap() {
        // At each depth, two neighbouring VCs are pushed and popped in an
        // uneven rhythm for many more flits than they have slots, so both
        // heads wrap many times: every pop must return the oldest flit of
        // its own VC (the slot field carries the flit's number, the
        // destination its VC).
        for depth in [1u32, 3, 4] {
            let mut t = table(depth);
            let msgs = [1, 2].map(|d| Message::new(d, NodeId(0), NodeId(d as u32), 1000, 0));
            let (mut pushed, mut popped) = ([0u32; 2], [0u32; 2]);
            for step in 0..300u32 {
                for (k, vc) in [4usize, 5].into_iter().enumerate() {
                    let len = pushed[k] - popped[k];
                    assert_eq!(t.ring_len(0, vc), len as usize);
                    let push = len == 0 || (len < depth && (step + k as u32) % 3 != 2);
                    if push {
                        t.push_flit(0, vc, Flit::of(&msgs[k], pushed[k], pushed[k]));
                        pushed[k] += 1;
                    } else {
                        assert_eq!(t.front(0, vc).map(|f| f.slot), Some(popped[k]));
                        let f = t.pop_flit(0, vc).expect("a non-empty ring pops");
                        assert_eq!(f.dest, msgs[k].dest, "depth {depth}: flit of another VC");
                        assert_eq!(f.slot, popped[k], "depth {depth}: out of order");
                        popped[k] += 1;
                    }
                }
            }
            assert!(
                popped.iter().all(|&p| p > 10 * depth),
                "depth {depth}: never wrapped"
            );
            for (k, vc) in [4usize, 5].into_iter().enumerate() {
                while let Some(f) = t.pop_flit(0, vc) {
                    assert_eq!(f.slot, popped[k], "depth {depth}: out of order");
                    popped[k] += 1;
                }
                assert_eq!(popped[k], pushed[k], "depth {depth}: flits lost");
                assert!(t.front(0, vc).is_none());
            }
        }
    }

    #[test]
    fn an_overflowing_push_panics_before_it_writes() {
        let mut t = table(2);
        let m = Message::new(1, NodeId(0), NodeId(1), 3, 0);
        t.push_flit(0, 3, Flit::of(&m, 0, 30));
        t.push_flit(0, 3, Flit::of(&m, 1, 31));
        let overflow = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.push_flit(0, 3, Flit::of(&m, 2, 32));
        }));
        let err = overflow.expect_err("a third flit in a 2-slot ring");
        assert_eq!(
            err.downcast_ref::<String>().map(String::as_str),
            Some("credit protocol violated: buffer overflow at router 0 vc 3")
        );
        assert_eq!(t.ring_len(0, 3), 2);
        assert_eq!(t.pop_flit(0, 3).map(|f| f.slot), Some(30));
        assert_eq!(t.pop_flit(0, 3).map(|f| f.slot), Some(31));
    }
}
