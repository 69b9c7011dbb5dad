//! Circuit construction: nodes and element registration.

use std::collections::HashMap;

use oisa_units::{Farad, Ohm};

use crate::elements::{Element, MosParams, SwitchParams};
use crate::waveform::Waveform;
use crate::{Result, SpiceError};

/// Handle to a circuit node.
///
/// `NodeId` values are only meaningful for the [`Circuit`] that created
/// them. The ground node is [`Circuit::GND`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

/// A flat netlist under construction.
///
/// Nodes are declared by name with [`Circuit::node`]; elements connect
/// nodes. All elements take physical-unit parameters from [`oisa_units`] at
/// the API boundary.
///
/// # Examples
///
/// ```
/// use oisa_spice::{Circuit, Waveform};
/// use oisa_units::Ohm;
///
/// # fn main() -> Result<(), oisa_spice::SpiceError> {
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.vsource("V1", a, Circuit::GND, Waveform::dc(1.0))?;
/// ckt.resistor("R1", a, Circuit::GND, Ohm::from_kilo(1.0))?;
/// assert_eq!(ckt.node_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    names: Vec<String>,
    by_name: HashMap<String, NodeId>,
    element_names: HashMap<String, usize>,
    pub(crate) elements: Vec<Element>,
    pub(crate) vsource_count: usize,
}

impl Circuit {
    /// The ground (reference) node.
    pub const GND: NodeId = NodeId(usize::MAX);

    /// Creates an empty circuit.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares (or looks up) a named node and returns its handle.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = NodeId(self.names.len());
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Number of non-ground nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Node names in declaration order.
    #[must_use]
    pub(crate) fn node_names(&self) -> &[String] {
        &self.names
    }

    fn register(&mut self, name: &str) -> Result<()> {
        let next_index = self.elements.len();
        if self
            .element_names
            .insert(name.to_owned(), next_index)
            .is_some()
        {
            return Err(SpiceError::DuplicateElement(name.to_owned()));
        }
        Ok(())
    }

    /// Replaces the drive waveform of the named independent source (for
    /// DC sweeps and re-parameterised reruns).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownNode`] when no element has that name
    /// and [`SpiceError::InvalidParameter`] when the element is not a
    /// source.
    pub fn set_source(&mut self, name: &str, wave: Waveform) -> Result<()> {
        let &index = self
            .element_names
            .get(name)
            .ok_or_else(|| SpiceError::UnknownNode(name.to_owned()))?;
        match &mut self.elements[index] {
            Element::VSource { wave: w, .. } | Element::ISource { wave: w, .. } => {
                *w = wave;
                Ok(())
            }
            _ => Err(SpiceError::InvalidParameter(format!(
                "element `{name}` is not an independent source"
            ))),
        }
    }

    /// Adds a resistor between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidParameter`] for a non-positive
    /// resistance and [`SpiceError::DuplicateElement`] for a reused name.
    pub fn resistor(&mut self, name: &str, a: NodeId, b: NodeId, r: Ohm) -> Result<()> {
        if r.get() <= 0.0 || !r.is_finite() {
            return Err(SpiceError::InvalidParameter(format!(
                "resistor {name}: resistance must be positive and finite, got {r}"
            )));
        }
        self.register(name)?;
        self.elements.push(Element::Resistor {
            a,
            b,
            conductance: 1.0 / r.get(),
        });
        Ok(())
    }

    /// Adds a capacitor between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidParameter`] for a non-positive
    /// capacitance and [`SpiceError::DuplicateElement`] for a reused name.
    pub fn capacitor(&mut self, name: &str, a: NodeId, b: NodeId, c: Farad) -> Result<()> {
        if c.get() <= 0.0 || !c.is_finite() {
            return Err(SpiceError::InvalidParameter(format!(
                "capacitor {name}: capacitance must be positive and finite, got {c}"
            )));
        }
        self.register(name)?;
        self.elements.push(Element::Capacitor {
            a,
            b,
            capacitance: c.get(),
        });
        Ok(())
    }

    /// Adds an independent voltage source from `pos` to `neg`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::DuplicateElement`] for a reused name.
    pub fn vsource(&mut self, name: &str, pos: NodeId, neg: NodeId, wave: Waveform) -> Result<()> {
        self.register(name)?;
        let branch = self.vsource_count;
        self.vsource_count += 1;
        self.elements.push(Element::VSource {
            pos,
            neg,
            wave,
            branch,
        });
        Ok(())
    }

    /// Adds an independent current source pushing current out of `from`
    /// into `to` (conventional current from `from` through the source to
    /// `to`).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::DuplicateElement`] for a reused name.
    pub fn isource(&mut self, name: &str, from: NodeId, to: NodeId, wave: Waveform) -> Result<()> {
        self.register(name)?;
        self.elements.push(Element::ISource { from, to, wave });
        Ok(())
    }

    /// Adds a voltage-controlled switch between `a` and `b`, closed when
    /// the voltage at `control` exceeds `params.threshold`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidParameter`] for non-positive on/off
    /// resistances and [`SpiceError::DuplicateElement`] for a reused name.
    pub fn switch(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        control: NodeId,
        params: SwitchParams,
    ) -> Result<()> {
        if params.r_on <= 0.0 || params.r_off <= 0.0 {
            return Err(SpiceError::InvalidParameter(format!(
                "switch {name}: r_on and r_off must be positive"
            )));
        }
        self.register(name)?;
        self.elements.push(Element::Switch {
            a,
            b,
            control,
            params,
        });
        Ok(())
    }

    /// Adds a level-1 MOSFET.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidParameter`] for non-positive `kp` or
    /// `w_over_l` and [`SpiceError::DuplicateElement`] for a reused name.
    pub fn mosfet(
        &mut self,
        name: &str,
        drain: NodeId,
        gate: NodeId,
        source: NodeId,
        params: MosParams,
    ) -> Result<()> {
        if params.kp <= 0.0 || params.w_over_l <= 0.0 {
            return Err(SpiceError::InvalidParameter(format!(
                "mosfet {name}: kp and w_over_l must be positive"
            )));
        }
        self.register(name)?;
        self.elements.push(Element::Mosfet {
            drain,
            gate,
            source,
            params,
        });
        Ok(())
    }

    /// Total number of MNA unknowns: node voltages plus voltage-source
    /// branch currents.
    #[must_use]
    pub(crate) fn unknown_count(&self) -> usize {
        self.node_count() + self.vsource_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_reuse_returns_same_id() {
        let mut ckt = Circuit::new();
        let a = ckt.node("x");
        let b = ckt.node("x");
        assert_eq!(a, b);
        assert_eq!(ckt.node_count(), 1);
    }

    #[test]
    fn duplicate_element_name_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.resistor("R1", a, Circuit::GND, Ohm::new(100.0))
            .unwrap();
        let err = ckt
            .resistor("R1", a, Circuit::GND, Ohm::new(200.0))
            .unwrap_err();
        assert!(matches!(err, SpiceError::DuplicateElement(_)));
    }

    #[test]
    fn invalid_resistance_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        assert!(ckt.resistor("R1", a, Circuit::GND, Ohm::new(0.0)).is_err());
        assert!(ckt.resistor("R2", a, Circuit::GND, Ohm::new(-5.0)).is_err());
    }

    #[test]
    fn unknown_count_includes_vsource_branches() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("V1", a, Circuit::GND, Waveform::dc(1.0))
            .unwrap();
        ckt.vsource("V2", b, Circuit::GND, Waveform::dc(2.0))
            .unwrap();
        assert_eq!(ckt.unknown_count(), 4);
    }
}
