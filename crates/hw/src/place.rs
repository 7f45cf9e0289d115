//! Mapping MNRL networks onto the bank/array/PE hierarchy (Fig. 5).
//!
//! The mapper honors the fixed port-group constraint of the augmented
//! design: a counter/bit-vector module and the STEs wired to its input
//! ports must live in the same PE (ports are hardwired to STE groups of
//! the PE). Modules therefore form *atomic clusters* with their port STEs;
//! clusters and free STEs are packed first-fit in network order — which
//! keeps each rule's chain mostly contiguous, mirroring the efficient
//! mapping algorithm the paper describes — and switch usage is classified
//! by the hierarchy level every connection has to cross.

use crate::cam::column_cost;
use crate::params::{
    ARRAYS_PER_BANK, BITS_PER_BITVECTOR, COUNTERS_PER_PE, PES_PER_ARRAY, STES_PER_PE,
};
use recama_mnrl::{MnrlNetwork, NodeKind, Port};
use std::collections::HashMap;

/// Physical location of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Loc {
    /// Bank index.
    pub bank: u32,
    /// Array within the bank.
    pub array: u32,
    /// PE within the array.
    pub pe: u32,
}

impl Loc {
    fn from_pe_index(i: usize) -> Loc {
        let pes_per_bank = PES_PER_ARRAY * ARRAYS_PER_BANK;
        Loc {
            bank: (i / pes_per_bank) as u32,
            array: ((i % pes_per_bank) / PES_PER_ARRAY) as u32,
            pe: (i % PES_PER_ARRAY) as u32,
        }
    }
}

/// Switch-network usage, by the lowest hierarchy level that carries each
/// connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeStats {
    /// Connections routed inside one PE (local switch).
    pub intra_pe: usize,
    /// Connections between PEs of one array (global switch).
    pub intra_array: usize,
    /// Connections between arrays of one bank.
    pub intra_bank: usize,
    /// Connections crossing banks.
    pub inter_bank: usize,
}

/// Result of placing a network.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Location per node id.
    pub per_node: HashMap<String, Loc>,
    /// CAM columns per STE node id (encoding-dependent, ≥ 1).
    pub columns_per_ste: HashMap<String, usize>,
    /// Total CAM columns consumed.
    pub total_columns: usize,
    /// Number of PEs provisioned.
    pub pe_count: usize,
    /// Number of arrays provisioned.
    pub array_count: usize,
    /// Number of banks provisioned.
    pub bank_count: usize,
    /// Counter modules placed.
    pub counter_count: usize,
    /// Bit-vector segments placed.
    pub bitvector_segments: usize,
    /// Total bit-vector bits used by segments.
    pub bitvector_bits_used: u64,
    /// PEs whose physical 2000-bit module is provisioned.
    pub bitvector_modules: usize,
    /// Switch usage.
    pub edges: EdgeStats,
}

impl Placement {
    /// Unused bits across provisioned physical bit-vector modules — the
    /// "waste" bars of Fig. 10.
    pub fn bitvector_bits_wasted(&self) -> u64 {
        (self.bitvector_modules as u64) * (BITS_PER_BITVECTOR as u64) - self.bitvector_bits_used
    }
}

#[derive(Default, Clone)]
struct PeLoad {
    columns: usize,
    counters: usize,
    bv_bits: u64,
}

impl PeLoad {
    fn fits(&self, add: &PeLoad) -> bool {
        self.columns + add.columns <= STES_PER_PE
            && self.counters + add.counters <= COUNTERS_PER_PE
            && self.bv_bits + add.bv_bits <= BITS_PER_BITVECTOR as u64
    }
    fn add(&mut self, other: &PeLoad) {
        self.columns += other.columns;
        self.counters += other.counters;
        self.bv_bits += other.bv_bits;
    }
}

/// Places `network` onto the hierarchy.
///
/// # Panics
///
/// Panics if a single module cluster exceeds one PE's capacity (more port
/// STEs than a PE can hold — the compiler never emits such clusters).
pub fn place(network: &MnrlNetwork) -> Placement {
    let nodes = network.nodes();
    let n = nodes.len();
    let index: HashMap<&str, usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, node)| (node.id.as_str(), i))
        .collect();

    // Union-find over module port edges: module + its port STEs cluster.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let root = find(parent, parent[i]);
            parent[i] = root;
        }
        parent[i]
    }
    let union = |parent: &mut Vec<usize>, a: usize, b: usize| {
        let ra = find(parent, a);
        let rb = find(parent, b);
        if ra != rb {
            parent[rb] = ra;
        }
    };
    for (i, node) in nodes.iter().enumerate() {
        for conn in &node.connections {
            let j = index[conn.to.as_str()];
            let is_port_edge =
                matches!(conn.to_port, Port::Pre | Port::Fst | Port::Lst | Port::Body)
                    || matches!(conn.from_port, Port::EnFst | Port::EnOut | Port::EnBody);
            if is_port_edge {
                union(&mut parent, i, j);
            }
        }
    }

    // Cluster loads.
    let node_load = |i: usize| -> PeLoad {
        match &nodes[i].kind {
            NodeKind::State { symbol_set } => PeLoad {
                columns: column_cost(symbol_set),
                counters: 0,
                bv_bits: 0,
            },
            NodeKind::Counter { .. } => PeLoad {
                columns: 0,
                counters: 1,
                bv_bits: 0,
            },
            NodeKind::BitVector { size, .. } => PeLoad {
                columns: 0,
                counters: 0,
                bv_bits: u64::from(*size),
            },
        }
    };
    let mut cluster_members: HashMap<usize, Vec<usize>> = HashMap::new();
    for i in 0..n {
        let root = find(&mut parent, i);
        cluster_members.entry(root).or_default().push(i);
    }

    // Pack clusters first-fit in order of their first member.
    let mut cluster_order: Vec<(usize, Vec<usize>)> = cluster_members.into_iter().collect();
    cluster_order.sort_by_key(|(_, members)| members[0]);

    let mut pe_loads: Vec<PeLoad> = vec![PeLoad::default()];
    let mut node_pe: Vec<usize> = vec![0; n];
    for (_, members) in &cluster_order {
        let mut load = PeLoad::default();
        for &m in members {
            load.add(&node_load(m));
        }
        let is_atomic = members.len() > 1
            || matches!(
                nodes[members[0]].kind,
                NodeKind::Counter { .. } | NodeKind::BitVector { .. }
            );
        if is_atomic {
            assert!(
                load.fits(&PeLoad::default()),
                "module cluster exceeds PE capacity: {} columns / {} counters / {} bv bits",
                load.columns,
                load.counters,
                load.bv_bits
            );
            let cur = pe_loads.len() - 1;
            let target = if pe_loads[cur].fits(&load) {
                cur
            } else {
                pe_loads.push(PeLoad::default());
                pe_loads.len() - 1
            };
            pe_loads[target].add(&load);
            for &m in members {
                node_pe[m] = target;
            }
        } else {
            // A lone STE (or an STE with a huge class): place column-wise,
            // spilling to a new PE when full.
            let m = members[0];
            let nload = node_load(m);
            let cur = pe_loads.len() - 1;
            let target = if pe_loads[cur].fits(&nload) {
                cur
            } else {
                pe_loads.push(PeLoad::default());
                pe_loads.len() - 1
            };
            pe_loads[target].add(&nload);
            node_pe[m] = target;
        }
    }

    // Materialize locations and stats.
    let mut per_node = HashMap::new();
    let mut columns_per_ste = HashMap::new();
    let mut total_columns = 0usize;
    let mut counter_count = 0usize;
    let mut bitvector_segments = 0usize;
    let mut bitvector_bits_used = 0u64;
    let mut pes_with_bv: Vec<bool> = vec![false; pe_loads.len()];
    for (i, node) in nodes.iter().enumerate() {
        per_node.insert(node.id.clone(), Loc::from_pe_index(node_pe[i]));
        match &node.kind {
            NodeKind::State { symbol_set } => {
                let cols = column_cost(symbol_set);
                columns_per_ste.insert(node.id.clone(), cols);
                total_columns += cols;
            }
            NodeKind::Counter { .. } => counter_count += 1,
            NodeKind::BitVector { size, .. } => {
                bitvector_segments += 1;
                bitvector_bits_used += u64::from(*size);
                pes_with_bv[node_pe[i]] = true;
            }
        }
    }
    let mut edges = EdgeStats::default();
    for (i, node) in nodes.iter().enumerate() {
        let a = Loc::from_pe_index(node_pe[i]);
        for conn in &node.connections {
            let b = Loc::from_pe_index(node_pe[index[conn.to.as_str()]]);
            if a == b {
                edges.intra_pe += 1;
            } else if (a.bank, a.array) == (b.bank, b.array) {
                edges.intra_array += 1;
            } else if a.bank == b.bank {
                edges.intra_bank += 1;
            } else {
                edges.inter_bank += 1;
            }
        }
    }
    let pe_count = pe_loads.len();
    Placement {
        per_node,
        columns_per_ste,
        total_columns,
        pe_count,
        array_count: pe_count.div_ceil(PES_PER_ARRAY),
        bank_count: pe_count.div_ceil(PES_PER_ARRAY * ARRAYS_PER_BANK),
        counter_count,
        bitvector_segments,
        bitvector_bits_used,
        bitvector_modules: pes_with_bv.iter().filter(|&&b| b).count(),
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recama_compiler::{compile, merge_rule_networks, CompileOptions};
    use recama_syntax::parse;

    fn network_for(pattern: &str) -> MnrlNetwork {
        let parsed = parse(pattern).unwrap();
        compile(&parsed.for_stream(), &CompileOptions::default()).network
    }

    #[test]
    fn small_rule_fits_one_pe() {
        let net = network_for("^a(bc){3,7}d");
        let p = place(&net);
        assert_eq!(p.pe_count, 1);
        assert_eq!(p.counter_count, 1);
        assert_eq!(
            p.edges.intra_array + p.edges.intra_bank + p.edges.inter_bank,
            0
        );
        assert!(p.edges.intra_pe > 0);
    }

    #[test]
    fn module_stays_with_port_stes() {
        let net = network_for("^x[ab]{3,5}y");
        let p = place(&net);
        let module_loc = net
            .nodes()
            .iter()
            .find(|n| !matches!(n.kind, NodeKind::State { .. }))
            .map(|n| p.per_node[&n.id])
            .expect("module");
        // All port-connected STEs share the module's PE.
        for node in net.nodes() {
            for conn in &node.connections {
                if matches!(conn.to_port, Port::Pre | Port::Fst | Port::Lst | Port::Body) {
                    assert_eq!(p.per_node[&node.id], module_loc);
                }
            }
        }
    }

    #[test]
    fn large_unfolded_rule_spills_pes() {
        use recama_nca::UnfoldPolicy;
        let parsed = parse("^a{1500}").unwrap();
        let out = compile(
            &parsed.for_stream(),
            &CompileOptions {
                unfold: UnfoldPolicy::All,
                ..Default::default()
            },
        );
        let p = place(&out.network);
        assert!(p.total_columns >= 1500);
        assert_eq!(p.pe_count, 1500usize.div_ceil(STES_PER_PE));
        assert!(p.edges.intra_array > 0, "chain must cross PEs");
    }

    #[test]
    fn bitvector_waste_accounting() {
        let net = network_for("a{64}"); // Σ*a{64} → bit vector of 64 bits
        let p = place(&net);
        assert_eq!(p.bitvector_segments, 1);
        assert_eq!(p.bitvector_bits_used, 64);
        assert_eq!(p.bitvector_modules, 1);
        assert_eq!(p.bitvector_bits_wasted(), 2000 - 64);
    }

    #[test]
    fn segments_share_physical_module() {
        // Two small bit vectors in one PE share the 2000-bit module.
        let networks = [network_for("a{40}"), network_for("b{60}")];
        let merged = merge_rule_networks(
            "ruleset",
            (networks.iter().enumerate()).map(|(i, net)| (i, i as u32, net)),
        );
        let p = place(&merged);
        assert_eq!(p.bitvector_segments, 2);
        assert_eq!(p.bitvector_bits_used, 100);
        assert_eq!(p.bitvector_modules, 1, "segments should share one module");
        assert_eq!(p.bitvector_bits_wasted(), 1900);
    }

    #[test]
    fn column_costs_respect_encoding() {
        let net = network_for("^[a-z]x");
        let p = place(&net);
        // [a-z] costs 2 columns under the nibble encoding; 'x' costs 1.
        assert_eq!(p.total_columns, 3);
    }

    #[test]
    fn hierarchy_rollup() {
        let loc = Loc::from_pe_index(0);
        assert_eq!(
            loc,
            Loc {
                bank: 0,
                array: 0,
                pe: 0
            }
        );
        let loc = Loc::from_pe_index(PES_PER_ARRAY);
        assert_eq!(
            loc,
            Loc {
                bank: 0,
                array: 1,
                pe: 0
            }
        );
        let loc = Loc::from_pe_index(PES_PER_ARRAY * ARRAYS_PER_BANK);
        assert_eq!(
            loc,
            Loc {
                bank: 1,
                array: 0,
                pe: 0
            }
        );
    }
}
