//! Structural gate-level netlists.
//!
//! The paper evaluates its enhanced boundary-scan cells by synthesising
//! them (Synopsys) and counting NAND-equivalent area (Table 7). We
//! reproduce that flow by building each cell — the standard BSC of Fig 4,
//! the PGBSC of Fig 6 and the OBSC of Fig 9 — as an explicit [`Netlist`]
//! of primitives, then simulating it with [`crate::Simulator`] and costing
//! it with [`crate::area`].

use crate::error::LogicError;
use crate::logic::Logic;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a net (wire) inside one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// The raw index of this net inside its netlist.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a component inside one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CompId(pub(crate) u32);

impl CompId {
    /// The raw index of this component inside its netlist.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CompId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// Combinational primitive gate kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Primitive {
    /// 1-input buffer.
    Buf,
    /// 1-input inverter.
    Not,
    /// N-input AND (N ≥ 2).
    And,
    /// N-input OR (N ≥ 2).
    Or,
    /// N-input NAND (N ≥ 2).
    Nand,
    /// N-input NOR (N ≥ 2).
    Nor,
    /// 2-input XOR.
    Xor,
    /// 2-input XNOR.
    Xnor,
    /// 2:1 multiplexer; inputs are ordered `[sel, a, b]` (out = a when
    /// sel=0, b when sel=1).
    Mux2,
}

impl Primitive {
    /// The number of inputs the primitive requires, or `None` when it is
    /// variadic (N-input gates accept 2 or more).
    #[must_use]
    fn fixed_arity(self) -> Option<usize> {
        match self {
            Primitive::Buf | Primitive::Not => Some(1),
            Primitive::Xor | Primitive::Xnor => Some(2),
            Primitive::Mux2 => Some(3),
            Primitive::And | Primitive::Or | Primitive::Nand | Primitive::Nor => None,
        }
    }

    /// Validates an input count for this primitive.
    #[must_use]
    fn arity_ok(self, n: usize) -> bool {
        match self.fixed_arity() {
            Some(k) => n == k,
            None => n >= 2,
        }
    }

    /// Evaluates the primitive over four-valued inputs.
    ///
    /// # Panics
    ///
    /// Panics if the input count is invalid for the primitive; the
    /// [`Netlist`] builder guarantees this never happens for stored gates.
    #[must_use]
    pub fn eval(self, inputs: &[Logic]) -> Logic {
        assert!(self.arity_ok(inputs.len()), "bad arity for {self:?}");
        match self {
            Primitive::Buf => inputs[0].as_input(),
            Primitive::Not => !inputs[0],
            Primitive::And => inputs.iter().copied().fold(Logic::One, Logic::and),
            Primitive::Or => inputs.iter().copied().fold(Logic::Zero, Logic::or),
            Primitive::Nand => !inputs.iter().copied().fold(Logic::One, Logic::and),
            Primitive::Nor => !inputs.iter().copied().fold(Logic::Zero, Logic::or),
            Primitive::Xor => inputs[0] ^ inputs[1],
            Primitive::Xnor => !(inputs[0] ^ inputs[1]),
            Primitive::Mux2 => Logic::mux2(inputs[0], inputs[1], inputs[2]),
        }
    }
}

impl fmt::Display for Primitive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Primitive::Buf => "buf",
            Primitive::Not => "not",
            Primitive::And => "and",
            Primitive::Or => "or",
            Primitive::Nand => "nand",
            Primitive::Nor => "nor",
            Primitive::Xor => "xor",
            Primitive::Xnor => "xnor",
            Primitive::Mux2 => "mux2",
        };
        f.write_str(s)
    }
}

/// A netlist component: a combinational gate or a storage element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Component {
    /// Combinational primitive gate.
    Gate {
        /// Instance name.
        name: String,
        /// Gate kind.
        prim: Primitive,
        /// Input nets (ordering matters for `Mux2`).
        inputs: Vec<NetId>,
        /// Output net.
        output: NetId,
    },
    /// Positive-edge-triggered D flip-flop.
    Dff {
        /// Instance name.
        name: String,
        /// Data input.
        d: NetId,
        /// Clock input (captures on 0→1 of this net).
        clk: NetId,
        /// Output.
        q: NetId,
    },
    /// Level-sensitive latch, transparent while `en` is high.
    Latch {
        /// Instance name.
        name: String,
        /// Data input.
        d: NetId,
        /// Enable (transparent when 1).
        en: NetId,
        /// Output.
        q: NetId,
    },
}

impl Component {
    /// Instance name of the component.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            Component::Gate { name, .. }
            | Component::Dff { name, .. }
            | Component::Latch { name, .. } => name,
        }
    }

    /// The net this component drives.
    #[must_use]
    pub fn output(&self) -> NetId {
        match self {
            Component::Gate { output, .. } => *output,
            Component::Dff { q, .. } | Component::Latch { q, .. } => *q,
        }
    }
}

/// A gate-level netlist: nets, primary ports and components.
///
/// Nets are single-driver (enforced at construction); primary inputs are
/// driven by the testbench via [`crate::Simulator::set`].
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    name: String,
    net_names: Vec<String>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    comps: Vec<Component>,
    /// net index → driving component, for single-driver enforcement.
    driver: HashMap<u32, CompId>,
    /// set of input net indices for O(1) membership tests.
    input_set: Vec<bool>,
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Netlist { name: name.into(), ..Netlist::default() }
    }

    /// The design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds an internal net and returns its id.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let id = NetId(self.net_names.len() as u32);
        self.net_names.push(name.into());
        self.input_set.push(false);
        id
    }

    /// Adds a primary-input net.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.add_net(name);
        self.inputs.push(id);
        self.input_set[id.index()] = true;
        id
    }

    /// Adds a primary-output net (it still needs a driver).
    pub fn add_output(&mut self, name: impl Into<String>) -> NetId {
        let id = self.add_net(name);
        self.outputs.push(id);
        id
    }

    /// Marks an existing net as a primary output as well.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::UnknownNet`] if the net does not exist.
    pub fn mark_output(&mut self, net: NetId) -> Result<(), LogicError> {
        self.check_net(net)?;
        if !self.outputs.contains(&net) {
            self.outputs.push(net);
        }
        Ok(())
    }

    fn check_net(&self, net: NetId) -> Result<(), LogicError> {
        if net.index() < self.net_names.len() {
            Ok(())
        } else {
            Err(LogicError::UnknownNet { net: net.index() })
        }
    }

    fn claim_driver(&mut self, net: NetId, comp: CompId) -> Result<(), LogicError> {
        self.check_net(net)?;
        if self.input_set[net.index()] {
            // Primary inputs are driven by the testbench.
            return Err(LogicError::MultipleDrivers { net: net.index() });
        }
        if self.driver.insert(net.0, comp).is_some() {
            return Err(LogicError::MultipleDrivers { net: net.index() });
        }
        Ok(())
    }

    /// Adds a combinational gate.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::BadArity`] for a wrong input count,
    /// [`LogicError::UnknownNet`] for a stale id, or
    /// [`LogicError::MultipleDrivers`] if `output` already has a driver.
    pub fn add_gate(
        &mut self,
        name: impl Into<String>,
        prim: Primitive,
        inputs: &[NetId],
        output: NetId,
    ) -> Result<CompId, LogicError> {
        let name = name.into();
        if !prim.arity_ok(inputs.len()) {
            return Err(LogicError::BadArity {
                component: name,
                expected: prim.fixed_arity().unwrap_or(2),
                got: inputs.len(),
            });
        }
        for &n in inputs {
            self.check_net(n)?;
        }
        let id = CompId(self.comps.len() as u32);
        self.claim_driver(output, id)?;
        self.comps.push(Component::Gate { name, prim, inputs: inputs.to_vec(), output });
        Ok(id)
    }

    /// Adds a positive-edge D flip-flop.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Netlist::add_gate`].
    pub fn add_dff(
        &mut self,
        name: impl Into<String>,
        d: NetId,
        clk: NetId,
        q: NetId,
    ) -> Result<CompId, LogicError> {
        self.check_net(d)?;
        self.check_net(clk)?;
        let id = CompId(self.comps.len() as u32);
        self.claim_driver(q, id)?;
        self.comps.push(Component::Dff { name: name.into(), d, clk, q });
        Ok(id)
    }

    /// Adds a level-sensitive latch (transparent when `en` is high).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Netlist::add_gate`].
    pub fn add_latch(
        &mut self,
        name: impl Into<String>,
        d: NetId,
        en: NetId,
        q: NetId,
    ) -> Result<CompId, LogicError> {
        self.check_net(d)?;
        self.check_net(en)?;
        let id = CompId(self.comps.len() as u32);
        self.claim_driver(q, id)?;
        self.comps.push(Component::Latch { name: name.into(), d, en, q });
        Ok(id)
    }

    /// Convenience: inverter `y = !a` with an autogenerated net.
    pub fn inv(&mut self, name: &str, a: NetId) -> Result<NetId, LogicError> {
        let y = self.add_net(format!("{name}_y"));
        self.add_gate(name, Primitive::Not, &[a], y)?;
        Ok(y)
    }

    /// Convenience: 2:1 mux `y = sel ? b : a` with an autogenerated net.
    pub fn mux2(&mut self, name: &str, sel: NetId, a: NetId, b: NetId) -> Result<NetId, LogicError> {
        let y = self.add_net(format!("{name}_y"));
        self.add_gate(name, Primitive::Mux2, &[sel, a, b], y)?;
        Ok(y)
    }

    /// Number of nets.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// Name of a net.
    #[must_use]
    pub fn net_name(&self, net: NetId) -> &str {
        &self.net_names[net.index()]
    }

    /// Primary inputs in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// All components in declaration order.
    #[must_use]
    pub fn components(&self) -> &[Component] {
        &self.comps
    }

    /// Whether a net is a primary input.
    #[must_use]
    pub fn is_input(&self, net: NetId) -> bool {
        self.input_set.get(net.index()).copied().unwrap_or(false)
    }

    /// The component driving `net`, if any.
    #[must_use]
    pub fn driver_of(&self, net: NetId) -> Option<CompId> {
        self.driver.get(&net.0).copied()
    }

    /// Looks a net up by name (first match).
    #[must_use]
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_names.iter().position(|n| n == name).map(|i| NetId(i as u32))
    }

    /// Counts of (gates, flip-flops, latches).
    #[must_use]
    pub fn component_counts(&self) -> (usize, usize, usize) {
        let mut g = 0;
        let mut f = 0;
        let mut l = 0;
        for c in &self.comps {
            match c {
                Component::Gate { .. } => g += 1,
                Component::Dff { .. } => f += 1,
                Component::Latch { .. } => l += 1,
            }
        }
        (g, f, l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_eval_matches_logic_ops() {
        let z = Logic::Zero;
        let o = Logic::One;
        assert_eq!(Primitive::And.eval(&[o, o, o]), o);
        assert_eq!(Primitive::And.eval(&[o, z, o]), z);
        assert_eq!(Primitive::Nand.eval(&[o, o]), z);
        assert_eq!(Primitive::Nor.eval(&[z, z]), o);
        assert_eq!(Primitive::Or.eval(&[z, z, o]), o);
        assert_eq!(Primitive::Xor.eval(&[o, z]), o);
        assert_eq!(Primitive::Xnor.eval(&[o, z]), z);
        assert_eq!(Primitive::Not.eval(&[z]), o);
        assert_eq!(Primitive::Buf.eval(&[Logic::Z]), Logic::X);
        assert_eq!(Primitive::Mux2.eval(&[z, o, z]), o);
        assert_eq!(Primitive::Mux2.eval(&[o, o, z]), z);
    }

    #[test]
    fn arity_validation() {
        assert!(Primitive::And.arity_ok(2));
        assert!(Primitive::And.arity_ok(5));
        assert!(!Primitive::And.arity_ok(1));
        assert!(Primitive::Not.arity_ok(1));
        assert!(!Primitive::Not.arity_ok(2));
        assert!(Primitive::Mux2.arity_ok(3));
    }

    #[test]
    fn build_small_netlist() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_output("y");
        let id = nl.add_gate("g1", Primitive::Nand, &[a, b], y).unwrap();
        assert_eq!(nl.driver_of(y), Some(id));
        assert_eq!(nl.components().len(), 1);
        assert_eq!(nl.find_net("a"), Some(a));
        assert!(nl.is_input(a));
        assert!(!nl.is_input(y));
        assert_eq!(nl.component_counts(), (1, 0, 0));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_net("y");
        nl.add_gate("g1", Primitive::Buf, &[a], y).unwrap();
        let err = nl.add_gate("g2", Primitive::Not, &[a], y).unwrap_err();
        assert_eq!(err, LogicError::MultipleDrivers { net: y.index() });
    }

    #[test]
    fn driving_primary_input_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let err = nl.add_gate("g1", Primitive::Buf, &[b], a).unwrap_err();
        assert_eq!(err, LogicError::MultipleDrivers { net: a.index() });
    }

    #[test]
    fn bad_arity_rejected_with_name() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_net("y");
        let err = nl.add_gate("bad", Primitive::Xor, &[a], y).unwrap_err();
        match err {
            LogicError::BadArity { component, expected, got } => {
                assert_eq!(component, "bad");
                assert_eq!(expected, 2);
                assert_eq!(got, 1);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unknown_net_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let ghost = NetId(99);
        let y = nl.add_net("y");
        assert!(nl.add_gate("g", Primitive::And, &[a, ghost], y).is_err());
    }

    #[test]
    fn convenience_builders() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let s = nl.add_input("s");
        let inv = nl.inv("i0", a).unwrap();
        let y = nl.mux2("m0", s, a, inv).unwrap();
        nl.mark_output(y).unwrap();
        assert_eq!(nl.outputs(), &[y]);
        assert_eq!(nl.component_counts(), (2, 0, 0));
    }

    #[test]
    fn display_ids() {
        assert_eq!(NetId(3).to_string(), "n3");
        assert_eq!(CompId(5).to_string(), "u5");
    }
}
