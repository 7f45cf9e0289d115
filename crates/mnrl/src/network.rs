//! The MNRL-style automata network: the compiler's output and the hardware
//! mapper's input.
//!
//! MNRL (Angstadt et al., "MNRL and MNCaRT") is the open JSON interchange
//! format for automata processors. Plain MNRL offers `state` (STE) and
//! `upCounter` nodes; following §4.2 of the paper we extend it with a
//! distinguished `counter` node for counter-unambiguous repetitions (ports
//! `pre`/`fst`/`lst` → `en_fst`/`en_out`, Fig. 6) and a new `bitVector`
//! node for counter-ambiguous repetitions (ports `pre`/`body` →
//! `en_body`/`en_out`, Fig. 7).

use recama_syntax::ByteClass;
use std::collections::HashMap;
use std::fmt;

/// When a node becomes enabled without an incoming activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Enable {
    /// Enabled only by incoming activations (ordinary state).
    OnActivateIn,
    /// Additionally enabled before the first symbol (start state — the
    /// targets of the Glushkov q0 edges).
    OnStartAndActivateIn,
}

/// A connection endpoint port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    /// STE activation input/output.
    Main,
    /// Counter/bit-vector: activation from the STE *before* the repetition.
    Pre,
    /// Counter: activation from the first STE of the repetition body.
    Fst,
    /// Counter: activation from the last STE of the repetition body.
    Lst,
    /// Bit vector: activation from the (single) body STE.
    Body,
    /// Counter output: (re-)enable the first STE of the body.
    EnFst,
    /// Counter/bit-vector output: enable the STE after the repetition.
    EnOut,
    /// Bit vector output: (re-)enable the body STE.
    EnBody,
}

impl Port {
    /// The canonical lowercase name used in the JSON encoding.
    pub fn name(self) -> &'static str {
        match self {
            Port::Main => "main",
            Port::Pre => "pre",
            Port::Fst => "fst",
            Port::Lst => "lst",
            Port::Body => "body",
            Port::EnFst => "en_fst",
            Port::EnOut => "en_out",
            Port::EnBody => "en_body",
        }
    }

    /// Parses a port name.
    pub(crate) fn from_name(s: &str) -> Option<Port> {
        Some(match s {
            "main" => Port::Main,
            "pre" => Port::Pre,
            "fst" => Port::Fst,
            "lst" => Port::Lst,
            "body" => Port::Body,
            "en_fst" => Port::EnFst,
            "en_out" => Port::EnOut,
            "en_body" => Port::EnBody,
            _ => return None,
        })
    }

    /// Whether this is an output port for the given node kind.
    pub(crate) fn is_output_of(self, kind: &NodeKind) -> bool {
        match kind {
            NodeKind::State { .. } => self == Port::Main,
            NodeKind::Counter { .. } => matches!(self, Port::EnFst | Port::EnOut),
            NodeKind::BitVector { .. } => matches!(self, Port::EnBody | Port::EnOut),
        }
    }

    /// Whether this is an input port for the given node kind.
    pub(crate) fn is_input_of(self, kind: &NodeKind) -> bool {
        match kind {
            NodeKind::State { .. } => self == Port::Main,
            NodeKind::Counter { .. } => matches!(self, Port::Pre | Port::Fst | Port::Lst),
            NodeKind::BitVector { .. } => matches!(self, Port::Pre | Port::Body),
        }
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Node payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// A state transition element matching `symbol_set`.
    State {
        /// The character class this STE matches.
        symbol_set: ByteClass,
    },
    /// A counter module (Fig. 6) for a counter-unambiguous `{min,max}`.
    Counter {
        /// Lower repetition bound m.
        min: u32,
        /// Upper bound n; `None` = unbounded `{m,}` (compare `cnt ≥ m`).
        max: Option<u32>,
    },
    /// A bit-vector module (Fig. 7) for a counter-ambiguous `σ{min,max}`.
    BitVector {
        /// Physical vector length (number of value bits provisioned).
        size: u32,
        /// Disjunction window low index (= m).
        lo: u32,
        /// Disjunction window high index (= n).
        hi: u32,
    },
}

impl NodeKind {
    /// Short type tag used in JSON (`state` / `counter` / `bitVector`).
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            NodeKind::State { .. } => "state",
            NodeKind::Counter { .. } => "counter",
            NodeKind::BitVector { .. } => "bitVector",
        }
    }
}

/// One outgoing connection.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Connection {
    /// Output port on the source node.
    pub from_port: Port,
    /// Destination node id.
    pub to: String,
    /// Input port on the destination node.
    pub to_port: Port,
}

/// A network node.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Unique id within the network.
    pub id: String,
    /// Payload.
    pub kind: NodeKind,
    /// Enable semantics.
    pub enable: Enable,
    /// Whether activation of this node (for states) or of its `en_out`
    /// (for modules) raises a report.
    pub report: bool,
    /// MNRL report code. Multi-pattern networks stamp every reporting node
    /// with the index of the source pattern so the accelerator's report
    /// vector attributes each event to its rule; single-pattern networks
    /// leave it `None`.
    pub report_id: Option<u32>,
    /// Outgoing connections.
    pub connections: Vec<Connection>,
}

/// An MNRL-style automata network.
///
/// # Examples
///
/// ```
/// use recama_mnrl::{MnrlNetwork, Node, NodeKind, Enable, Connection, Port};
/// use recama_syntax::ByteClass;
///
/// let mut net = MnrlNetwork::new("demo");
/// net.add_node(Node {
///     id: "s0".into(),
///     kind: NodeKind::State { symbol_set: ByteClass::singleton(b'a') },
///     enable: Enable::OnStartAndActivateIn,
///     report: false,
///     report_id: None,
///     connections: vec![Connection { from_port: Port::Main, to: "s1".into(), to_port: Port::Main }],
/// });
/// net.add_node(Node {
///     id: "s1".into(),
///     kind: NodeKind::State { symbol_set: ByteClass::singleton(b'b') },
///     enable: Enable::OnActivateIn,
///     report: true,
///     report_id: None,
///     connections: vec![],
/// });
/// assert!(net.validate().is_empty());
/// assert_eq!(net.node_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MnrlNetwork {
    /// Network id.
    pub id: String,
    nodes: Vec<Node>,
    index: HashMap<String, usize>,
}

impl MnrlNetwork {
    /// Creates an empty network.
    pub fn new(id: impl Into<String>) -> MnrlNetwork {
        MnrlNetwork {
            id: id.into(),
            nodes: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Adds a node.
    ///
    /// # Panics
    ///
    /// Panics on duplicate node id.
    pub fn add_node(&mut self, node: Node) {
        let prev = self.index.insert(node.id.clone(), self.nodes.len());
        assert!(prev.is_none(), "duplicate MNRL node id {:?}", node.id);
        self.nodes.push(node);
    }

    /// The nodes in insertion order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Looks up a node by id.
    pub fn node(&self, id: &str) -> Option<&Node> {
        self.index.get(id).map(|&i| &self.nodes[i])
    }

    /// Total node count — the "number of MNRL nodes" metric of Fig. 9
    /// (linear in the number of STEs).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of nodes of each type: (states, counters, bit vectors).
    pub fn counts_by_type(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for n in &self.nodes {
            match n.kind {
                NodeKind::State { .. } => c.0 += 1,
                NodeKind::Counter { .. } => c.1 += 1,
                NodeKind::BitVector { .. } => c.2 += 1,
            }
        }
        c
    }

    /// Merges another network as rule `rule_id`: node ids are prefixed
    /// with `prefix` and every *reporting* node is stamped with
    /// `report_id = rule_id`, so downstream consumers (hardware report
    /// vectors, the multi-pattern engine) can attribute reports to the
    /// source pattern without parsing node-id prefixes.
    pub fn merge_as_rule(&mut self, other: &MnrlNetwork, prefix: &str, rule_id: u32) {
        for node in &other.nodes {
            let mut n = node.clone();
            n.id = format!("{prefix}{}", n.id);
            for c in &mut n.connections {
                c.to = format!("{prefix}{}", c.to);
            }
            if n.report {
                n.report_id = Some(rule_id);
            }
            self.add_node(n);
        }
    }

    /// All report ids present on reporting nodes, deduplicated, ascending.
    pub fn report_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .nodes
            .iter()
            .filter(|n| n.report)
            .filter_map(|n| n.report_id)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Structural validation; returns a list of problems (empty = valid):
    ///
    /// * connections point to existing nodes;
    /// * output/input port compatibility with node kinds;
    /// * counters have at least `fst` and `lst` inputs connected, bit
    ///   vectors a `body` input;
    /// * bit-vector windows satisfy `lo ≤ hi ≤ size`;
    /// * counter bounds satisfy `min ≤ max`.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        // Which module input ports receive at least one connection.
        let mut fed: HashMap<(usize, Port), u32> = HashMap::new();
        for node in &self.nodes {
            for conn in &node.connections {
                if !conn.from_port.is_output_of(&node.kind) {
                    problems.push(format!(
                        "{}: port {} is not an output of a {}",
                        node.id,
                        conn.from_port,
                        node.kind.type_name()
                    ));
                }
                match self.index.get(&conn.to) {
                    None => problems.push(format!(
                        "{}: connection to unknown node {:?}",
                        node.id, conn.to
                    )),
                    Some(&ti) => {
                        let target = &self.nodes[ti];
                        if !conn.to_port.is_input_of(&target.kind) {
                            problems.push(format!(
                                "{}: port {} is not an input of {} ({})",
                                node.id,
                                conn.to_port,
                                target.id,
                                target.kind.type_name()
                            ));
                        } else {
                            *fed.entry((ti, conn.to_port)).or_insert(0) += 1;
                        }
                    }
                }
            }
            match &node.kind {
                NodeKind::State { symbol_set } => {
                    if symbol_set.is_empty() {
                        problems.push(format!("{}: empty symbol set", node.id));
                    }
                }
                NodeKind::Counter { min, max } => {
                    if let Some(n) = max {
                        if n < min {
                            problems.push(format!("{}: counter bounds inverted", node.id));
                        }
                    }
                }
                NodeKind::BitVector { size, lo, hi } => {
                    if lo > hi || hi > size {
                        problems.push(format!(
                            "{}: bit-vector window {lo}..={hi} outside size {size}",
                            node.id
                        ));
                    }
                }
            }
        }
        for (i, node) in self.nodes.iter().enumerate() {
            match &node.kind {
                NodeKind::Counter { .. } => {
                    for port in [Port::Fst, Port::Lst] {
                        if !fed.contains_key(&(i, port)) {
                            problems.push(format!("{}: counter input {port} unconnected", node.id));
                        }
                    }
                }
                NodeKind::BitVector { .. } => {
                    if !fed.contains_key(&(i, Port::Body)) {
                        problems.push(format!("{}: bit-vector input body unconnected", node.id));
                    }
                }
                NodeKind::State { .. } => {}
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ste(id: &str, class: ByteClass) -> Node {
        Node {
            id: id.into(),
            kind: NodeKind::State { symbol_set: class },
            enable: Enable::OnActivateIn,
            report: false,
            report_id: None,
            connections: vec![],
        }
    }

    #[test]
    fn add_and_lookup() {
        let mut net = MnrlNetwork::new("t");
        net.add_node(ste("a", ByteClass::singleton(b'a')));
        assert!(net.node("a").is_some());
        assert!(net.node("b").is_none());
        assert_eq!(net.node_count(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_ids_rejected() {
        let mut net = MnrlNetwork::new("t");
        net.add_node(ste("a", ByteClass::ANY));
        net.add_node(ste("a", ByteClass::ANY));
    }

    #[test]
    fn validate_catches_dangling_connection() {
        let mut net = MnrlNetwork::new("t");
        let mut n = ste("a", ByteClass::ANY);
        n.connections.push(Connection {
            from_port: Port::Main,
            to: "ghost".into(),
            to_port: Port::Main,
        });
        net.add_node(n);
        let problems = net.validate();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("unknown node"));
    }

    #[test]
    fn validate_catches_port_misuse() {
        let mut net = MnrlNetwork::new("t");
        let mut n = ste("a", ByteClass::ANY);
        // STEs have no en_out output.
        n.connections.push(Connection {
            from_port: Port::EnOut,
            to: "a".into(),
            to_port: Port::Main,
        });
        net.add_node(n);
        assert!(!net.validate().is_empty());
    }

    #[test]
    fn validate_counter_needs_inputs() {
        let mut net = MnrlNetwork::new("t");
        net.add_node(Node {
            id: "c0".into(),
            kind: NodeKind::Counter {
                min: 2,
                max: Some(5),
            },
            enable: Enable::OnActivateIn,
            report: false,
            report_id: None,
            connections: vec![],
        });
        let problems = net.validate();
        assert!(problems.iter().any(|p| p.contains("fst unconnected")));
        assert!(problems.iter().any(|p| p.contains("lst unconnected")));
    }

    #[test]
    fn validate_bitvector_window() {
        let mut net = MnrlNetwork::new("t");
        let mut s = ste("s", ByteClass::ANY);
        s.connections.push(Connection {
            from_port: Port::Main,
            to: "bv".into(),
            to_port: Port::Body,
        });
        net.add_node(s);
        net.add_node(Node {
            id: "bv".into(),
            kind: NodeKind::BitVector {
                size: 10,
                lo: 4,
                hi: 12,
            },
            enable: Enable::OnActivateIn,
            report: false,
            report_id: None,
            connections: vec![],
        });
        assert!(net.validate().iter().any(|p| p.contains("outside size")));
    }

    #[test]
    fn counts_by_type_and_merge() {
        let mut a = MnrlNetwork::new("a");
        a.add_node(ste("s0", ByteClass::ANY));
        let mut b = MnrlNetwork::new("b");
        b.add_node(ste("s0", ByteClass::ANY));
        b.add_node(Node {
            id: "c0".into(),
            kind: NodeKind::Counter {
                min: 1,
                max: Some(3),
            },
            enable: Enable::OnActivateIn,
            report: false,
            report_id: None,
            connections: vec![],
        });
        a.merge_as_rule(&b, "r1_", 1);
        assert_eq!(a.node_count(), 3);
        assert!(a.node("r1_s0").is_some());
        assert!(a.node("r1_c0").is_some());
        assert_eq!(a.counts_by_type(), (2, 1, 0));
    }

    #[test]
    fn port_name_roundtrip() {
        for p in [
            Port::Main,
            Port::Pre,
            Port::Fst,
            Port::Lst,
            Port::Body,
            Port::EnFst,
            Port::EnOut,
            Port::EnBody,
        ] {
            assert_eq!(Port::from_name(p.name()), Some(p));
        }
        assert_eq!(Port::from_name("bogus"), None);
    }
}
