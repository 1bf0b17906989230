//! Wave-router and protocol configuration.
//!
//! The paper stresses that the architecture "is very flexible … several
//! parameters can be adjusted, including the number of fast switches, the
//! number of virtual channels for wormhole switching, and the routing
//! protocols" (§2). [`WaveConfig`] exposes every one of those knobs; the
//! E9/E10 experiments sweep them.

use wavesim_network::WormholeConfig;

/// Circuit-cache replacement algorithm — the interpretation of the
/// `Replace` field of the Fig. 5 registers ("the meaning of this field
/// depends on the replacement algorithm").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used circuit (`Replace` = last-use cycle).
    Lru,
    /// Evict the least-frequently-used circuit (`Replace` = use count).
    Lfu,
    /// Evict the oldest circuit (`Replace` = establishment sequence).
    Fifo,
    /// Evict a deterministic pseudo-random victim (`Replace` = hash seed).
    Random,
}

/// Which §3 protocol drives circuit management.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProtocolKind {
    /// Cache-Like Routing Protocol (§3.1): circuits managed automatically,
    /// network treated as a cache of circuits.
    #[default]
    Clrp,
    /// Compiler-Aided Routing Protocol (§3.2): circuits established and
    /// torn down by explicit instructions; other messages use wormhole.
    Carp,
    /// Baseline: wave plane disabled, every message uses wormhole
    /// switching through `S0`. (The comparison system of the evaluation.)
    WormholeOnly,
}

/// CLRP simplification switches (§3.1: "The CLRP protocol can be
/// simplified in several ways…").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClrpVariant {
    /// Skip phase one entirely: the first probe is sent with the Force bit
    /// already set ("the Force bit can be set when the probe is first
    /// sent…, therefore skipping phase one").
    pub skip_phase1: bool,
    /// In the Force phase, try only the initial switch instead of cycling
    /// through all `k` switches ("the second phase may try a single
    /// switch").
    pub single_switch_force: bool,
    /// Disable phase two entirely (no Force probes): failures fall through
    /// to wormhole directly. Not a paper variant per se, but the natural
    /// ablation point for E10.
    pub enable_force: bool,
}

impl Default for ClrpVariant {
    fn default() -> Self {
        Self {
            skip_phase1: false,
            single_switch_force: false,
            enable_force: true,
        }
    }
}

/// Full configuration of a wave-switched network.
#[derive(Debug, Clone, Copy)]
pub struct WaveConfig {
    /// The `S0` wormhole plane configuration (`w` virtual channels etc.).
    pub wormhole: WormholeConfig,
    /// Number of wave-pipelined switches per router — the paper's `k`.
    /// `k = 0` is only meaningful with [`ProtocolKind::WormholeOnly`].
    pub k: u8,
    /// Wave-pipelining clock advantage over the base clock — the paper's
    /// companion study measured "up to four times higher" (§2).
    pub clock_multiplier: u32,
    /// How many narrower physical channels each link is split into for the
    /// wave switches (§2: splitting "shares bandwidth in a very inflexible
    /// way", so keep it small). Lane bandwidth is
    /// `clock_multiplier / channel_split` flits per base cycle.
    pub channel_split: u32,
    /// End-to-end windowing protocol window, in flits (§2: "a windowing
    /// protocol is implemented … requires deep delivery buffers").
    pub window: u32,
    /// Cycles per control-channel hop (probe/ack/teardown/release flits).
    pub ctrl_hop_delay: u32,
    /// Extra cycles the PCS routing control unit spends deciding a probe's
    /// next hop (forward moves only — acks and teardowns follow the
    /// recorded mappings without a routing decision). Comparable to the
    /// wormhole `routing_delay`: the PCS performs the same class of
    /// routing computation, plus History-Store bookkeeping.
    pub pcs_delay: u32,
    /// MB-m misroute budget — the `m` of the probe's Misroute field.
    pub misroutes: u8,
    /// End-point message-buffer size (flits) CLRP allocates when a circuit
    /// is established automatically: "the size of the longest message
    /// using that circuit is not known at that time; a reasonably large
    /// buffer can be allocated" (§2).
    pub initial_buffer_flits: u32,
    /// Software cost (cycles) of re-allocating the end-point buffers when
    /// a longer message arrives ("buffers may have to be re-allocated for
    /// longer messages", §2). CARP circuits never pay it: "buffer size is
    /// determined by the longest message of the set".
    pub realloc_penalty: u32,
    /// Circuit Cache entries per node (Fig. 5 register file size).
    pub cache_capacity: usize,
    /// Replacement algorithm for the circuit cache.
    pub replacement: ReplacementPolicy,
    /// Protocol selection.
    pub protocol: ProtocolKind,
    /// CLRP phase simplifications.
    pub clrp: ClrpVariant,
    /// Stagger initial-switch selection by coordinate sum ("it is
    /// convenient that neighboring nodes try to use different initial
    /// switches", §3.1). Disabled, every node starts at switch 1 — the
    /// E12 ablation.
    pub stagger_initial_switch: bool,
    /// How many times CLRP re-attempts establishment after a dynamic fault
    /// breaks a circuit, before the entry degrades to wormhole delivery.
    /// Each attempt is a full (all switches, then Force) search, so the
    /// total establishment work per circuit stays finite — the Theorem 3/4
    /// argument is unchanged. `0` disables retries entirely.
    pub fault_retries: u8,
    /// Base backoff (cycles) before a post-fault re-establishment; attempt
    /// `n` (1-based) waits `fault_backoff << (n - 1)` cycles, so repeated
    /// breakage of the same circuit backs off exponentially.
    pub fault_backoff: u32,
    /// Seed for the (rare) randomized decisions: Random replacement.
    pub seed: u64,
}

impl Default for WaveConfig {
    fn default() -> Self {
        Self {
            wormhole: WormholeConfig::default(),
            k: 2,
            clock_multiplier: 4,
            channel_split: 2,
            window: 64,
            ctrl_hop_delay: 1,
            pcs_delay: 1,
            misroutes: 2,
            initial_buffer_flits: 64,
            realloc_penalty: 32,
            cache_capacity: 16,
            replacement: ReplacementPolicy::Lru,
            protocol: ProtocolKind::Clrp,
            clrp: ClrpVariant::default(),
            stagger_initial_switch: true,
            fault_retries: 3,
            fault_backoff: 8,
            seed: 0x5_7A5E_5EED,
        }
    }
}

impl WaveConfig {
    /// Lane bandwidth as a `(numerator, denominator)` fraction of flits
    /// per base cycle.
    #[must_use]
    pub fn lane_rate(&self) -> (u64, u64) {
        (
            u64::from(self.clock_multiplier),
            u64::from(self.channel_split),
        )
    }

    /// Sanity-checks parameter combinations.
    ///
    /// # Panics
    /// Panics on nonsensical combinations (zero multiplier/split/window,
    /// wave protocol with `k == 0`).
    pub fn validate(&self) {
        assert!(self.clock_multiplier >= 1, "clock multiplier must be >= 1");
        assert!(self.channel_split >= 1, "channel split must be >= 1");
        assert!(self.window >= 1, "window must hold at least one flit");
        assert!(self.ctrl_hop_delay >= 1, "control hops take time");
        if self.protocol != ProtocolKind::WormholeOnly {
            assert!(self.k >= 1, "wave protocols need at least one wave switch");
            assert!(self.cache_capacity >= 1, "circuit cache cannot be empty");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        WaveConfig::default().validate();
    }

    #[test]
    fn lane_rate_fraction() {
        let cfg = WaveConfig {
            clock_multiplier: 4,
            channel_split: 2,
            ..WaveConfig::default()
        };
        assert_eq!(cfg.lane_rate(), (4, 2));
    }

    #[test]
    #[should_panic(expected = "at least one wave switch")]
    fn zero_switches_with_clrp_rejected() {
        let cfg = WaveConfig {
            k: 0,
            ..WaveConfig::default()
        };
        cfg.validate();
    }

    #[test]
    fn wormhole_only_allows_zero_k() {
        let cfg = WaveConfig {
            k: 0,
            protocol: ProtocolKind::WormholeOnly,
            ..WaveConfig::default()
        };
        cfg.validate();
    }
}
