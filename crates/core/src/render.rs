//! Human-readable snapshots of protocol state, for debugging and teaching.
//!
//! Two views:
//! * [`render_circuits`] — one line per live circuit: id, endpoints,
//!   switch, status, and the path in coordinates;
//! * [`render_lane_map`] — for 2-D topologies, an ASCII grid of the wave
//!   plane of one switch, marking each inter-node link free (`.`),
//!   reserved (`#`), or faulty (`x`).
//!
//! Both are pure functions of a [`WaveNetwork`] snapshot; nothing here
//! mutates state.

use std::fmt::Write as _;

use wavesim_topology::{Coords, Dir, PortDir};

use crate::ids::LaneId;
use crate::lanes::LaneState;
use crate::network::WaveNetwork;

/// Lists every live circuit with its path, sorted by id.
#[must_use]
pub fn render_circuits(net: &WaveNetwork) -> String {
    let topo = net.topology();
    let mut ids: Vec<_> = net.circuits().keys().collect();
    ids.sort();
    let mut out = String::new();
    let _ = writeln!(out, "{} live circuit(s):", ids.len());
    for id in ids {
        let c = net.circuits().get(id).expect("listed id is live");
        let mut path = String::new();
        path.push_str(&topo.coords(c.src).to_string());
        for lane in &c.path {
            let next = topo.link_dest(lane.link);
            path.push_str(" -> ");
            path.push_str(&topo.coords(next).to_string());
        }
        let _ = writeln!(
            out,
            "  {id} S{} {:?} {} => {}: {path}",
            c.switch,
            c.status,
            topo.coords(c.src),
            topo.coords(c.dest),
        );
    }
    out
}

fn lane_char(net: &WaveNetwork, lane: LaneId) -> char {
    match net.lanes().state(lane) {
        LaneState::Free => '.',
        LaneState::Reserved(_) => '#',
        LaneState::Faulty => 'x',
    }
}

/// ASCII map of wave switch `switch`'s lanes on a 2-D topology. Nodes are
/// `o`; the two characters after each node show its +X lane (east) and
/// the row below shows +Y lanes (south in the rendering). Reverse-
/// direction lanes are drawn in a second character of each pair.
///
/// # Panics
/// Panics unless the topology is 2-D and `switch` is in `1..=k`.
#[must_use]
pub fn render_lane_map(net: &WaveNetwork, switch: u8) -> String {
    let topo = net.topology();
    assert_eq!(topo.ndims(), 2, "lane map rendering is 2-D only");
    assert!(
        switch >= 1 && switch <= net.lanes().k(),
        "switch out of range"
    );
    let (rx, ry) = (topo.radix(0), topo.radix(1));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "wave plane S{switch} ({rx}x{ry}): . free, # reserved, x faulty"
    );
    for y in 0..ry {
        // Node row: o<+X lane><-X lane of neighbour> ...
        for x in 0..rx {
            let node = topo.node(Coords::new(&[x, y]));
            out.push('o');
            if topo.neighbor(node, PortDir::new(0, Dir::Plus)).is_some() {
                let fwd = LaneId::new(topo.link_id(node, PortDir::new(0, Dir::Plus)), switch);
                let nb = topo.neighbor(node, PortDir::new(0, Dir::Plus)).unwrap();
                let rev = LaneId::new(topo.link_id(nb, PortDir::new(0, Dir::Minus)), switch);
                out.push(lane_char(net, fwd));
                out.push(lane_char(net, rev));
            } else {
                out.push_str("  ");
            }
        }
        out.push('\n');
        // Vertical lane row (+Y downward in the rendering).
        if y + 1 < ry || topo.kind() == wavesim_topology::TopologyKind::Torus {
            for x in 0..rx {
                let node = topo.node(Coords::new(&[x, y]));
                if let Some(nb) = topo.neighbor(node, PortDir::new(1, Dir::Plus)) {
                    let fwd = LaneId::new(topo.link_id(node, PortDir::new(1, Dir::Plus)), switch);
                    let rev = LaneId::new(topo.link_id(nb, PortDir::new(1, Dir::Minus)), switch);
                    out.push(lane_char(net, fwd));
                    out.push(lane_char(net, rev));
                    out.push(' ');
                } else {
                    out.push_str("   ");
                }
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WaveConfig;
    use crate::network::FaultEvent;
    use wavesim_network::Message;
    use wavesim_topology::{NodeId, Topology};

    fn settled_net() -> WaveNetwork {
        let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), WaveConfig::default());
        net.send(0, Message::new(1, NodeId(0), NodeId(15), 32, 0));
        let mut now = 0;
        while net.busy() && now < 50_000 {
            net.tick(now);
            now += 1;
        }
        net
    }

    #[test]
    fn circuit_listing_shows_path() {
        let net = settled_net();
        let s = render_circuits(&net);
        assert!(s.contains("1 live circuit(s)"), "{s}");
        assert!(s.contains("(0,0)"), "{s}");
        assert!(s.contains("(3,3)"), "{s}");
        assert!(s.contains("->"), "{s}");
    }

    /// Strips the legend header so marker counts reflect lanes only.
    fn body(map: &str) -> String {
        map.lines().skip(1).collect::<Vec<_>>().join("\n")
    }

    #[test]
    fn lane_map_marks_reserved_lanes() {
        let net = settled_net();
        let k = net.config().k;
        let maps: Vec<String> = (1..=k).map(|s| body(&render_lane_map(&net, s))).collect();
        // The circuit reserved lanes on exactly one switch.
        let reserved_maps = maps.iter().filter(|m| m.contains('#')).count();
        assert_eq!(reserved_maps, 1, "{maps:?}");
        // Reserved lane count in the map equals the census.
        let hashes: usize = maps.iter().map(|m| m.matches('#').count()).sum();
        assert_eq!(hashes, net.lanes().census().1);
    }

    #[test]
    fn lane_map_marks_faults() {
        let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), WaveConfig::default());
        let link = net.topology().links().next().unwrap();
        net.schedule_fault(0, FaultEvent::Fail(LaneId::new(link, 1)))
            .expect("fault a known-good lane");
        net.tick(0);
        let s = body(&render_lane_map(&net, 1));
        assert_eq!(s.matches('x').count(), 1, "{s}");
        let s2 = body(&render_lane_map(&net, 2));
        assert_eq!(s2.matches('x').count(), 0);
    }

    #[test]
    fn empty_network_renders_cleanly() {
        let net = WaveNetwork::new(Topology::mesh(&[3, 3]), WaveConfig::default());
        assert!(render_circuits(&net).contains("0 live circuit(s)"));
        let s = body(&render_lane_map(&net, 1));
        assert!(!s.contains('#'));
        assert_eq!(s.matches('o').count(), 9);
    }
}
