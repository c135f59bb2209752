//! Circuit description: nodes and elements.

use rlckit_tech::device::MosParams;

use crate::waveform::Waveform;

/// A circuit node handle. [`Circuit::GROUND`] is node 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Node(pub(crate) usize);

impl Node {
    /// The raw node index (0 = ground).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// A handle to an element, used for current probing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ElementId(pub(crate) usize);

/// MOSFET polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosPolarity {
    /// N-channel device (source towards ground).
    Nmos,
    /// P-channel device (source towards the supply).
    Pmos,
}

/// A circuit element.
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// Linear resistor between two nodes.
    Resistor {
        /// First terminal.
        a: Node,
        /// Second terminal.
        b: Node,
        /// Resistance in Ω (must be positive).
        ohms: f64,
    },
    /// Linear capacitor between two nodes.
    Capacitor {
        /// First terminal.
        a: Node,
        /// Second terminal.
        b: Node,
        /// Capacitance in F (must be positive).
        farads: f64,
    },
    /// Linear inductor between two nodes. Carries an MNA branch current.
    Inductor {
        /// First terminal (current flows a → b when positive).
        a: Node,
        /// Second terminal.
        b: Node,
        /// Inductance in H (non-negative; 0 degenerates to a probe-able
        /// short, used by the RLC ladder in the RC limit).
        henries: f64,
    },
    /// Independent voltage source. Carries an MNA branch current.
    VoltageSource {
        /// Positive terminal.
        plus: Node,
        /// Negative terminal.
        minus: Node,
        /// Source waveform.
        waveform: Waveform,
    },
    /// Junction diode (exponential law with high-voltage linearization).
    Diode {
        /// Anode (current flows anode → cathode when forward biased).
        anode: Node,
        /// Cathode.
        cathode: Node,
        /// Saturation current in A.
        saturation_current: f64,
        /// Emission coefficient `n` (thermal voltage multiplier).
        emission: f64,
    },
    /// Level-1 MOSFET (bulk tied to source).
    Mosfet {
        /// Drain terminal.
        drain: Node,
        /// Gate terminal.
        gate: Node,
        /// Source terminal.
        source: Node,
        /// Device parameters (minimum-size reference).
        params: MosParams,
        /// Multiplier over the minimum size.
        size: f64,
        /// N- or P-channel.
        polarity: MosPolarity,
    },
}

/// A circuit under construction.
///
/// # Examples
///
/// ```
/// use rlckit_spice::netlist::Circuit;
/// use rlckit_spice::waveform::Waveform;
///
/// let mut ckt = Circuit::new();
/// let n1 = ckt.add_node("in");
/// ckt.voltage_source(n1, Circuit::GROUND, Waveform::Dc(1.0));
/// ckt.resistor(n1, Circuit::GROUND, 50.0);
/// assert_eq!(ckt.node_count(), 2); // ground + "in"
/// assert_eq!(ckt.elements().len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Circuit {
    node_names: Vec<String>,
    elements: Vec<Element>,
}

impl Circuit {
    /// The ground (reference) node.
    pub const GROUND: Node = Node(0);

    /// Creates an empty circuit containing only the ground node.
    #[must_use]
    pub fn new() -> Self {
        Self {
            node_names: vec!["gnd".to_string()],
            elements: Vec::new(),
        }
    }

    /// Adds a named node and returns its handle.
    pub fn add_node(&mut self, name: impl Into<String>) -> Node {
        self.node_names.push(name.into());
        Node(self.node_names.len() - 1)
    }

    /// Total number of nodes including ground.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// The name a node was created with (`"gnd"` for ground).
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to this circuit.
    #[must_use]
    pub fn node_name(&self, node: Node) -> &str {
        &self.node_names[node.0]
    }

    /// The elements in insertion order.
    #[must_use]
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    fn check_node(&self, node: Node) {
        assert!(
            node.0 < self.node_names.len(),
            "node {} does not belong to this circuit",
            node.0
        );
    }

    fn push(&mut self, element: Element) -> ElementId {
        self.elements.push(element);
        ElementId(self.elements.len() - 1)
    }

    /// Adds a resistor.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is not strictly positive or a node is foreign.
    pub fn resistor(&mut self, a: Node, b: Node, ohms: f64) -> ElementId {
        self.check_node(a);
        self.check_node(b);
        assert!(ohms > 0.0, "resistance must be positive");
        self.push(Element::Resistor { a, b, ohms })
    }

    /// Adds a capacitor.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is not strictly positive or a node is foreign.
    pub fn capacitor(&mut self, a: Node, b: Node, farads: f64) -> ElementId {
        self.check_node(a);
        self.check_node(b);
        assert!(farads > 0.0, "capacitance must be positive");
        self.push(Element::Capacitor { a, b, farads })
    }

    /// Adds an inductor (`henries = 0` is allowed and acts as a
    /// current-probeable short).
    ///
    /// # Panics
    ///
    /// Panics if `henries` is negative or a node is foreign.
    pub fn inductor(&mut self, a: Node, b: Node, henries: f64) -> ElementId {
        self.check_node(a);
        self.check_node(b);
        assert!(henries >= 0.0, "inductance must be non-negative");
        self.push(Element::Inductor { a, b, henries })
    }

    /// Adds an independent voltage source.
    ///
    /// # Panics
    ///
    /// Panics if a node is foreign.
    pub fn voltage_source(&mut self, plus: Node, minus: Node, waveform: Waveform) -> ElementId {
        self.check_node(plus);
        self.check_node(minus);
        self.push(Element::VoltageSource {
            plus,
            minus,
            waveform,
        })
    }

    /// Adds a junction diode (anode → cathode).
    ///
    /// # Panics
    ///
    /// Panics if the saturation current or emission coefficient is not
    /// strictly positive, or a node is foreign.
    pub fn diode(
        &mut self,
        anode: Node,
        cathode: Node,
        saturation_current: f64,
        emission: f64,
    ) -> ElementId {
        self.check_node(anode);
        self.check_node(cathode);
        assert!(
            saturation_current > 0.0,
            "saturation current must be positive"
        );
        assert!(emission > 0.0, "emission coefficient must be positive");
        self.push(Element::Diode {
            anode,
            cathode,
            saturation_current,
            emission,
        })
    }

    /// Adds a MOSFET.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not strictly positive or a node is foreign.
    pub fn mosfet(
        &mut self,
        drain: Node,
        gate: Node,
        source: Node,
        params: MosParams,
        size: f64,
        polarity: MosPolarity,
    ) -> ElementId {
        self.check_node(drain);
        self.check_node(gate);
        self.check_node(source);
        assert!(size > 0.0, "device size must be positive");
        self.push(Element::Mosfet {
            drain,
            gate,
            source,
            params,
            size,
            polarity,
        })
    }

    /// Returns the element behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if the handle came from a different circuit and is out of
    /// range.
    #[must_use]
    pub fn element(&self, id: ElementId) -> &Element {
        &self.elements[id.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circuit_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Circuit>();
        assert_send_sync::<Element>();
    }

    #[test]
    fn node_bookkeeping() {
        let mut ckt = Circuit::new();
        assert_eq!(ckt.node_count(), 1);
        let a = ckt.add_node("a");
        let b = ckt.add_node("b");
        assert_eq!(ckt.node_count(), 3);
        assert_eq!(ckt.node_name(Circuit::GROUND), "gnd");
        assert_eq!(ckt.node_name(a), "a");
        assert_eq!(ckt.node_name(b), "b");
    }

    #[test]
    fn element_handles_resolve() {
        let mut ckt = Circuit::new();
        let a = ckt.add_node("a");
        let id = ckt.resistor(a, Circuit::GROUND, 100.0);
        match ckt.element(id) {
            Element::Resistor { ohms, .. } => assert_eq!(*ohms, 100.0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn foreign_node_rejected() {
        let mut ckt = Circuit::new();
        let _ = ckt.resistor(Node(7), Circuit::GROUND, 1.0);
    }

    #[test]
    #[should_panic(expected = "resistance must be positive")]
    fn zero_resistance_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.add_node("a");
        let _ = ckt.resistor(a, Circuit::GROUND, 0.0);
    }

    #[test]
    fn zero_inductance_is_allowed() {
        let mut ckt = Circuit::new();
        let a = ckt.add_node("a");
        let _ = ckt.inductor(a, Circuit::GROUND, 0.0);
    }
}
