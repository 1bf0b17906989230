//! Messages, flits, and delivery records.

use wavesim_sim::Cycle;
use wavesim_topology::NodeId;

/// Globally unique message identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MessageId(pub u64);

impl std::fmt::Display for MessageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A message as submitted by a traffic source.
///
/// Lengths are in flits and include the head flit; a `len_flits == 1`
/// message is a single head+tail flit, as in the paper's short-message
/// discussion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Unique id (assigned by the traffic layer).
    pub id: MessageId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// Total length in flits, head included (≥ 1).
    pub len_flits: u32,
    /// Cycle at which the source generated the message (queueing delay at
    /// the source counts toward reported latency, as in the literature).
    pub created_at: Cycle,
}

impl Message {
    /// Convenience constructor.
    ///
    /// # Panics
    /// Panics if `len_flits == 0` or `src == dest` (self-sends never enter
    /// the network in this model).
    #[must_use]
    pub fn new(id: u64, src: NodeId, dest: NodeId, len_flits: u32, created_at: Cycle) -> Self {
        assert!(len_flits >= 1, "a message has at least the head flit");
        assert_ne!(src, dest, "self-sends do not enter the network");
        Self {
            id: MessageId(id),
            src,
            dest,
            len_flits,
            created_at,
        }
    }
}

/// One flit of a wormhole message: the 12 bytes the fabric reads (in a
/// debug build, 8 more carry the owning message's id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Destination (replicated from the header for routing convenience;
    /// hardware keeps it in per-VC state after the head passes).
    pub dest: NodeId,
    /// Fabric-assigned arena slot of the in-flight message record. Carried
    /// in every flit so tail processing reaches the metadata without a
    /// map lookup; meaningless outside the fabric that assigned it.
    pub slot: u32,
    /// True for the first flit — carries routing information.
    pub is_head: bool,
    /// True for the last flit — releases resources behind it.
    pub is_tail: bool,
    /// Owning message, kept in debug builds only: the fabric checks it
    /// against the slot's record at delivery.
    #[cfg(debug_assertions)]
    pub msg: MessageId,
}

const _: () = assert!(cfg!(debug_assertions) || std::mem::size_of::<Flit>() == 12);

impl Flit {
    /// An empty ring slot's contents; never read as a flit.
    pub(crate) const VACANT: Self = Self {
        dest: NodeId(u32::MAX),
        slot: u32::MAX,
        is_head: false,
        is_tail: false,
        #[cfg(debug_assertions)]
        msg: MessageId(u64::MAX),
    };

    /// Builds flit `seq` (0 = head) of `msg`, tagged with the fabric arena
    /// `slot`.
    #[must_use]
    pub fn of(msg: &Message, seq: u32, slot: u32) -> Self {
        Self {
            dest: msg.dest,
            slot,
            is_head: seq == 0,
            is_tail: seq + 1 == msg.len_flits,
            #[cfg(debug_assertions)]
            msg: msg.id,
        }
    }
}

/// How a delivered message travelled — recorded for per-mode statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryMode {
    /// Flit-by-flit through the wormhole fabric (switch `S0`).
    Wormhole,
    /// Over a pre-established physical circuit (switches `S1..Sk`).
    Circuit,
}

/// Record of a completed message delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The message.
    pub msg: Message,
    /// Cycle the last flit reached the destination's delivery buffer.
    pub delivered_at: Cycle,
    /// Transport used.
    pub mode: DeliveryMode,
}

impl Delivery {
    /// End-to-end latency in cycles (creation to last-flit delivery).
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.delivered_at.saturating_sub(self.msg.created_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_framing() {
        let m = Message::new(1, NodeId(0), NodeId(5), 4, 100);
        let f0 = Flit::of(&m, 0, 7);
        assert!(f0.is_head && !f0.is_tail);
        let f3 = Flit::of(&m, 3, 7);
        assert!(!f3.is_head && f3.is_tail);
        let f1 = Flit::of(&m, 1, 7);
        assert!(!f1.is_head && !f1.is_tail);
    }

    #[test]
    fn single_flit_message_is_head_and_tail() {
        let m = Message::new(2, NodeId(0), NodeId(1), 1, 0);
        let f = Flit::of(&m, 0, 0);
        assert!(f.is_head && f.is_tail);
    }

    #[test]
    fn delivery_latency() {
        let m = Message::new(3, NodeId(0), NodeId(1), 8, 50);
        let d = Delivery {
            msg: m,
            delivered_at: 130,
            mode: DeliveryMode::Wormhole,
        };
        assert_eq!(d.latency(), 80);
    }

    #[test]
    #[should_panic(expected = "self-sends")]
    fn self_send_rejected() {
        let _ = Message::new(4, NodeId(3), NodeId(3), 1, 0);
    }

    #[test]
    #[should_panic(expected = "at least the head flit")]
    fn zero_length_rejected() {
        let _ = Message::new(5, NodeId(0), NodeId(1), 0, 0);
    }
}
