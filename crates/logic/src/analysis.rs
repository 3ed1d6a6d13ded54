//! Structural netlist analysis: levelization, logic depth and fanout.
//!
//! Beyond area (see [`crate::area`]), synthesis reports quote *depth*
//! (the longest combinational path, a proxy for the cell's impact on
//! test-clock frequency) and fanout statistics. These analyses walk the
//! netlist graph treating flip-flops and latches as path endpoints.

use crate::netlist::{CompId, Component, NetId, Netlist};
use std::collections::VecDeque;
use std::fmt;

/// Structural statistics of a netlist.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetlistStats {
    /// Longest combinational path, in gate levels (storage elements and
    /// primary inputs are level 0 sources).
    pub depth: usize,
    /// Per-net fanout (consumer count), indexed by [`NetId::index`].
    pub fanout: Vec<usize>,
    /// Gates on some longest path, source to sink.
    pub critical_path: Vec<CompId>,
    /// Nets with no consumers (excluding primary outputs).
    pub dangling_nets: Vec<NetId>,
}

impl NetlistStats {
    /// Highest fanout across all nets (0 for an empty netlist).
    #[must_use]
    fn max_fanout(&self) -> usize {
        self.fanout.iter().copied().max().unwrap_or(0)
    }
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "depth {} levels, max fanout {}, {} dangling nets",
            self.depth,
            self.max_fanout(),
            self.dangling_nets.len()
        )
    }
}

/// Computes structural statistics for a netlist.
///
/// Combinational loops are tolerated (gates on a loop simply keep the
/// deepest level discovered before the iteration bound); storage
/// elements break paths as in static timing analysis.
#[must_use]
pub fn analyze(netlist: &Netlist) -> NetlistStats {
    let nets = netlist.net_count();
    let comps = netlist.components();

    // Fanout: count consumers per net.
    let mut fanout = vec![0usize; nets];
    for comp in comps {
        let inputs: Vec<NetId> = match comp {
            Component::Gate { inputs, .. } => inputs.clone(),
            Component::Dff { d, clk, .. } => vec![*d, *clk],
            Component::Latch { d, en, .. } => vec![*d, *en],
        };
        for n in inputs {
            fanout[n.index()] += 1;
        }
    }

    // Levelize combinational gates with a worklist (BFS-ish relaxation;
    // bounded so loops terminate).
    // Level of a net: 0 for primary inputs and storage outputs; for a
    // gate output, 1 + max(input levels).
    let mut net_level = vec![0usize; nets];
    let mut from_gate: Vec<Option<usize>> = vec![None; nets]; // driving gate index
    let gate_indices: Vec<usize> = comps
        .iter()
        .enumerate()
        .filter(|(_, c)| matches!(c, Component::Gate { .. }))
        .map(|(i, _)| i)
        .collect();
    let mut queue: VecDeque<usize> = gate_indices.iter().copied().collect();
    let bound = gate_indices.len().saturating_mul(gate_indices.len().max(1)).max(16);
    let mut iterations = 0usize;
    while let Some(gi) = queue.pop_front() {
        iterations += 1;
        if iterations > bound {
            break; // combinational loop: stop relaxing
        }
        if let Component::Gate { inputs, output, .. } = &comps[gi] {
            let lvl = 1 + inputs.iter().map(|n| net_level[n.index()]).max().unwrap_or(0);
            if lvl > net_level[output.index()] {
                net_level[output.index()] = lvl;
                from_gate[output.index()] = Some(gi);
                // Re-relax consumers of this net.
                for (gj, c) in comps.iter().enumerate() {
                    if let Component::Gate { inputs, .. } = c {
                        if inputs.iter().any(|n| n == output) {
                            queue.push_back(gj);
                        }
                    }
                }
            }
        }
    }

    // Depth and one critical path.
    let (depth, mut sink) = net_level
        .iter()
        .enumerate()
        .map(|(i, l)| (*l, i))
        .max()
        .map(|(l, i)| (l, Some(i)))
        .unwrap_or((0, None));
    let mut critical_path = Vec::new();
    let mut visited = vec![false; nets];
    while let Some(net) = sink {
        // A combinational loop makes `from_gate` cyclic; stop at the
        // first revisited net so the walk terminates.
        if std::mem::replace(&mut visited[net], true) {
            break;
        }
        match from_gate[net] {
            Some(gi) => {
                critical_path.push(CompId(gi as u32));
                if let Component::Gate { inputs, .. } = &comps[gi] {
                    sink = inputs
                        .iter()
                        .max_by_key(|n| net_level[n.index()])
                        .map(|n| n.index());
                } else {
                    sink = None;
                }
            }
            None => sink = None,
        }
    }
    critical_path.reverse();

    // Dangling nets: no consumers and not primary outputs.
    let dangling_nets = (0..nets)
        .map(|i| NetId(i as u32))
        .filter(|n| fanout[n.index()] == 0 && !netlist.outputs().contains(n))
        .collect();

    NetlistStats { depth, fanout, critical_path, dangling_nets }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Primitive;

    fn inv_chain(n: usize) -> Netlist {
        let mut nl = Netlist::new("chain");
        let mut prev = nl.add_input("a");
        for i in 0..n {
            let next = nl.add_net(format!("n{i}"));
            nl.add_gate(format!("i{i}"), Primitive::Not, &[prev], next).unwrap();
            prev = next;
        }
        nl.mark_output(prev).unwrap();
        nl
    }

    #[test]
    fn inverter_chain_depth_equals_length() {
        for n in [1usize, 3, 7] {
            let stats = analyze(&inv_chain(n));
            assert_eq!(stats.depth, n);
            assert_eq!(stats.critical_path.len(), n);
        }
    }

    #[test]
    fn storage_breaks_paths() {
        // inv → DFF → inv: two separate single-level paths.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let clk = nl.add_input("clk");
        let x = nl.add_net("x");
        nl.add_gate("i1", Primitive::Not, &[a], x).unwrap();
        let q = nl.add_net("q");
        nl.add_dff("ff", x, clk, q).unwrap();
        let y = nl.add_output("y");
        nl.add_gate("i2", Primitive::Not, &[q], y).unwrap();
        let stats = analyze(&nl);
        assert_eq!(stats.depth, 1, "FF output restarts at level 0");
    }

    #[test]
    fn fanout_counts_every_consumer() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let mut outs = Vec::new();
        for i in 0..3 {
            let y = nl.add_net(format!("y{i}"));
            nl.add_gate(format!("g{i}"), Primitive::Not, &[a], y).unwrap();
            outs.push(y);
        }
        for y in &outs {
            nl.mark_output(*y).unwrap();
        }
        let stats = analyze(&nl);
        assert_eq!(stats.fanout[a.index()], 3);
        assert_eq!(stats.max_fanout(), 3);
        assert!(stats.dangling_nets.is_empty());
    }

    #[test]
    fn dangling_nets_reported() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_net("unused");
        nl.add_gate("g", Primitive::Not, &[a], y).unwrap();
        let stats = analyze(&nl);
        assert_eq!(stats.dangling_nets, vec![y]);
    }

    #[test]
    fn combinational_loop_terminates() {
        let mut nl = Netlist::new("osc");
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        let c = nl.add_net("c");
        nl.add_gate("i1", Primitive::Not, &[a], b).unwrap();
        nl.add_gate("i2", Primitive::Not, &[b], c).unwrap();
        nl.add_gate("i3", Primitive::Not, &[c], a).unwrap();
        let stats = analyze(&nl); // must not hang
        assert!(stats.depth >= 1);
    }

    #[test]
    fn paper_cells_have_reasonable_depth() {
        // The boundary-scan cells are shallow: a couple of mux levels.
        // (Cross-crate structural check lives in sint-core; here we just
        // sanity-check the analysis on a mux tree.)
        let mut nl = Netlist::new("mux_tree");
        let s0 = nl.add_input("s0");
        let s1 = nl.add_input("s1");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_input("d");
        let m0 = nl.mux2("m0", s0, a, b).unwrap();
        let m1 = nl.mux2("m1", s0, c, d).unwrap();
        let y = nl.mux2("m2", s1, m0, m1).unwrap();
        nl.mark_output(y).unwrap();
        let stats = analyze(&nl);
        assert_eq!(stats.depth, 2);
        assert_eq!(stats.to_string(), "depth 2 levels, max fanout 2, 0 dangling nets");
    }

    #[test]
    fn empty_netlist() {
        let stats = analyze(&Netlist::new("empty"));
        assert_eq!(stats.depth, 0);
        assert_eq!(stats.max_fanout(), 0);
        assert!(stats.critical_path.is_empty());
    }
}
