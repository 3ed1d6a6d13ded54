//! Event-driven simulation of [`Netlist`]s.
//!
//! The simulator is cycle-oriented: combinational logic settles through
//! delta cycles after every stimulus change, and [`Simulator::clock_edge`]
//! gives edge-triggered flip-flops their simultaneous-capture semantics
//! (all D inputs are sampled *before* any Q updates — essential for shift
//! registers such as a boundary-scan chain).

use crate::error::LogicError;
use crate::logic::Logic;
use crate::netlist::{Component, NetId, Netlist};

/// Maximum delta cycles before a combinational loop is reported.
const DELTA_LIMIT: usize = 10_000;

/// A simulation instance bound to (a compiled copy of) one netlist.
///
/// ```
/// use sint_logic::{Netlist, Primitive, Simulator, Logic};
/// # fn main() -> Result<(), sint_logic::LogicError> {
/// let mut nl = Netlist::new("xor2");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let y = nl.add_output("y");
/// nl.add_gate("g", Primitive::Xor, &[a, b], y)?;
/// let mut sim = Simulator::new(&nl)?;
/// sim.set(a, Logic::One)?;
/// sim.set(b, Logic::Zero)?;
/// assert_eq!(sim.value(y), Logic::One);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    nl: Netlist,
    values: Vec<Logic>,
    /// Simulation time in ticks; each full clock cycle advances it by 1.
    now: u64,
}

impl Simulator {
    /// Compiles a netlist for simulation. All nets start at `X`.
    ///
    /// # Errors
    ///
    /// Currently infallible, but reserved for future elaboration checks
    /// (the signature keeps call sites stable).
    pub fn new(netlist: &Netlist) -> Result<Self, LogicError> {
        let mut sim = Simulator {
            values: vec![Logic::X; netlist.net_count()],
            nl: netlist.clone(),
            now: 0,
        };
        sim.settle()?;
        Ok(sim)
    }

    /// Current simulation time in ticks.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The value currently on `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` does not belong to the simulated netlist.
    #[must_use]
    pub fn value(&self, net: NetId) -> Logic {
        self.values[net.index()]
    }

    /// A snapshot of every net value, indexed by [`NetId::index`].
    #[must_use]
    pub fn values(&self) -> &[Logic] {
        &self.values
    }

    /// The netlist being simulated.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.nl
    }

    /// Drives a primary input and lets combinational logic settle.
    ///
    /// # Errors
    ///
    /// [`LogicError::NotAnInput`] if `net` is not a primary input;
    /// [`LogicError::Unstable`] on a combinational loop.
    pub fn set(&mut self, net: NetId, value: Logic) -> Result<(), LogicError> {
        if !self.nl.is_input(net) {
            return Err(LogicError::NotAnInput { net: net.index() });
        }
        self.values[net.index()] = value;
        self.settle()
    }

    /// Drives several primary inputs at once, then settles once.
    ///
    /// # Errors
    ///
    /// As for [`Simulator::set`].
    pub fn set_many(&mut self, assignments: &[(NetId, Logic)]) -> Result<(), LogicError> {
        for &(net, _) in assignments {
            if !self.nl.is_input(net) {
                return Err(LogicError::NotAnInput { net: net.index() });
            }
        }
        for &(net, value) in assignments {
            self.values[net.index()] = value;
        }
        self.settle()
    }

    /// Applies one full clock cycle on `clk`: rising edge (simultaneous
    /// DFF capture), settle, falling edge, settle. Advances time by one
    /// tick.
    ///
    /// # Errors
    ///
    /// As for [`Simulator::set`].
    pub fn clock_edge(&mut self, clk: NetId) -> Result<(), LogicError> {
        if !self.nl.is_input(clk) {
            return Err(LogicError::NotAnInput { net: clk.index() });
        }
        self.rising_edge(clk)?;
        // Falling edge: latches with en = clk go opaque; FFs ignore it.
        self.values[clk.index()] = Logic::Zero;
        self.settle()?;
        self.now += 1;
        Ok(())
    }

    /// Applies only the rising edge of `clk` (clock left high).
    ///
    /// # Errors
    ///
    /// As for [`Simulator::set`].
    fn rising_edge(&mut self, clk: NetId) -> Result<(), LogicError> {
        if !self.nl.is_input(clk) {
            return Err(LogicError::NotAnInput { net: clk.index() });
        }
        let was = self.values[clk.index()];
        self.values[clk.index()] = Logic::One;
        // Edge-triggered capture only on an actual 0→1 transition.
        if was != Logic::One {
            // Sample every D first…
            let mut captures: Vec<(NetId, Logic)> = Vec::new();
            for comp in self.nl.components() {
                if let Component::Dff { d, clk: c, q, .. } = comp {
                    if *c == clk {
                        captures.push((*q, self.values[d.index()].as_input()));
                    }
                }
            }
            // …then update every Q.
            for (q, v) in captures {
                self.values[q.index()] = v;
            }
        }
        self.settle()
    }

    /// Propagates combinational logic (and transparent latches) until the
    /// network reaches a fixed point.
    fn settle(&mut self) -> Result<(), LogicError> {
        for _ in 0..DELTA_LIMIT {
            let mut changed = false;
            for comp in self.nl.components() {
                match comp {
                    Component::Gate { prim, inputs, output, .. } => {
                        let in_vals: Vec<Logic> =
                            inputs.iter().map(|n| self.values[n.index()]).collect();
                        let new = prim.eval(&in_vals);
                        if self.values[output.index()] != new {
                            self.values[output.index()] = new;
                            changed = true;
                        }
                    }
                    Component::Latch { d, en, q, .. } => {
                        if self.values[en.index()] == Logic::One {
                            let new = self.values[d.index()].as_input();
                            if self.values[q.index()] != new {
                                self.values[q.index()] = new;
                                changed = true;
                            }
                        }
                    }
                    Component::Dff { .. } => {}
                }
            }
            if !changed {
                return Ok(());
            }
        }
        Err(LogicError::Unstable { limit: DELTA_LIMIT })
    }

    /// Forces an internal (non-input) net value — test-bench backdoor for
    /// initialising flip-flop outputs without a reset network.
    ///
    /// # Errors
    ///
    /// [`LogicError::UnknownNet`] for an id outside the netlist;
    /// [`LogicError::Unstable`] on a combinational loop while settling.
    pub fn deposit(&mut self, net: NetId, value: Logic) -> Result<(), LogicError> {
        if net.index() >= self.values.len() {
            return Err(LogicError::UnknownNet { net: net.index() });
        }
        self.values[net.index()] = value;
        self.settle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Primitive;

    fn dff_chain(n: usize) -> (Netlist, NetId, NetId, Vec<NetId>) {
        let mut nl = Netlist::new("chain");
        let d = nl.add_input("d");
        let clk = nl.add_input("clk");
        let mut qs = Vec::new();
        let mut prev = d;
        for i in 0..n {
            let q = nl.add_net(format!("q{i}"));
            nl.add_dff(format!("ff{i}"), prev, clk, q).unwrap();
            qs.push(q);
            prev = q;
        }
        (nl, d, clk, qs)
    }

    #[test]
    fn combinational_settles_immediately() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_output("y");
        nl.add_gate("g", Primitive::Nand, &[a, b], y).unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_many(&[(a, Logic::One), (b, Logic::One)]).unwrap();
        assert_eq!(sim.value(y), Logic::Zero);
        sim.set(b, Logic::Zero).unwrap();
        assert_eq!(sim.value(y), Logic::One);
    }

    #[test]
    fn dff_shift_register_moves_one_bit_per_clock() {
        // The critical property for boundary-scan: a chain of FFs must
        // shift exactly one position per clock (simultaneous capture).
        let (nl, d, clk, qs) = dff_chain(4);
        let mut sim = Simulator::new(&nl).unwrap();
        // Flush X out with zeros.
        sim.set(d, Logic::Zero).unwrap();
        for _ in 0..4 {
            sim.clock_edge(clk).unwrap();
        }
        // Inject a single 1.
        sim.set(d, Logic::One).unwrap();
        sim.clock_edge(clk).unwrap();
        sim.set(d, Logic::Zero).unwrap();
        assert_eq!(sim.value(qs[0]), Logic::One);
        assert_eq!(sim.value(qs[1]), Logic::Zero);
        sim.clock_edge(clk).unwrap();
        assert_eq!(sim.value(qs[0]), Logic::Zero);
        assert_eq!(sim.value(qs[1]), Logic::One);
        sim.clock_edge(clk).unwrap();
        sim.clock_edge(clk).unwrap();
        assert_eq!(sim.value(qs[3]), Logic::One);
        assert_eq!(sim.value(qs[2]), Logic::Zero);
    }

    #[test]
    fn ff_starts_x_until_clocked() {
        let (nl, d, clk, qs) = dff_chain(1);
        let mut sim = Simulator::new(&nl).unwrap();
        assert_eq!(sim.value(qs[0]), Logic::X);
        sim.set(d, Logic::One).unwrap();
        assert_eq!(sim.value(qs[0]), Logic::X, "no clock yet");
        sim.clock_edge(clk).unwrap();
        assert_eq!(sim.value(qs[0]), Logic::One);
    }

    #[test]
    fn rising_edge_only_captures_on_transition() {
        let (nl, d, clk, qs) = dff_chain(1);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set(d, Logic::One).unwrap();
        sim.rising_edge(clk).unwrap();
        assert_eq!(sim.value(qs[0]), Logic::One);
        // Clock is still high; changing D must not propagate.
        sim.set(d, Logic::Zero).unwrap();
        sim.rising_edge(clk).unwrap(); // no 0→1 transition
        assert_eq!(sim.value(qs[0]), Logic::One);
    }

    #[test]
    fn latch_transparent_when_enabled() {
        let mut nl = Netlist::new("t");
        let d = nl.add_input("d");
        let en = nl.add_input("en");
        let q = nl.add_output("q");
        nl.add_latch("l", d, en, q).unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_many(&[(d, Logic::One), (en, Logic::One)]).unwrap();
        assert_eq!(sim.value(q), Logic::One);
        sim.set(en, Logic::Zero).unwrap();
        sim.set(d, Logic::Zero).unwrap();
        assert_eq!(sim.value(q), Logic::One, "latch holds when opaque");
        sim.set(en, Logic::One).unwrap();
        assert_eq!(sim.value(q), Logic::Zero, "latch follows when transparent");
    }

    #[test]
    fn combinational_loop_detected() {
        // A ring of three inverters (odd ring) oscillates forever.
        let mut nl = Netlist::new("osc");
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        let c = nl.add_net("c");
        nl.add_gate("i1", Primitive::Not, &[a], b).unwrap();
        nl.add_gate("i2", Primitive::Not, &[b], c).unwrap();
        nl.add_gate("i3", Primitive::Not, &[c], a).unwrap();
        // Settles from X (X → X is stable), so force a binary value in.
        let mut sim = Simulator::new(&nl).unwrap();
        let err = sim.deposit(a, Logic::One).unwrap_err();
        assert!(matches!(err, LogicError::Unstable { .. }));
    }

    #[test]
    fn set_rejects_non_inputs() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_net("y");
        nl.add_gate("g", Primitive::Buf, &[a], y).unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        assert!(matches!(sim.set(y, Logic::One), Err(LogicError::NotAnInput { .. })));
    }

    #[test]
    fn time_advances_per_cycle() {
        let (nl, d, clk, _) = dff_chain(1);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set(d, Logic::Zero).unwrap();
        assert_eq!(sim.now(), 0);
        sim.clock_edge(clk).unwrap();
        sim.clock_edge(clk).unwrap();
        assert_eq!(sim.now(), 2);
    }

    #[test]
    fn mux_feedback_ff_toggles() {
        // FF with Q fed back through an inverter = divide-by-two toggle,
        // the heart of the PGBSC victim mode (Fig 6).
        let mut nl = Netlist::new("tff");
        let clk = nl.add_input("clk");
        let q = nl.add_net("q");
        let qn = nl.add_net("qn");
        nl.add_gate("inv", Primitive::Not, &[q], qn).unwrap();
        nl.add_dff("ff", qn, clk, q).unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.deposit(q, Logic::Zero).unwrap();
        let mut seen = Vec::new();
        for _ in 0..4 {
            sim.clock_edge(clk).unwrap();
            seen.push(sim.value(q));
        }
        assert_eq!(seen, vec![Logic::One, Logic::Zero, Logic::One, Logic::Zero]);
    }
}
