//! Bank-aware sharding of compiled rulesets.
//!
//! At full ruleset scale (Table 1: 5839 Snort rules) one merged machine
//! image exceeds the STE/counter/bit-vector capacity of a single CAMA
//! bank (Fig. 5), so a deployment partitions the set into *shards* whose
//! sub-networks each fit one bank. A bank is free parallelism in the
//! machine — one input decoder shows every symbol to all banks at once —
//! so the bank plan says nothing about how software should scan, which
//! groups the rules by whether its lazy-DFA rows fit.
//!
//! * [`RuleCost`] measures a rule's footprint with the same estimates the
//!   mapper ([`crate::place()`]) uses: CAM columns under the two-nibble
//!   encoding, counter modules, bit-vector bits;
//! * [`ShardBudget`] is the capacity of one bank (or any coarser unit) in
//!   those terms, derived from the [`crate::params`] hierarchy constants;
//! * [`ShardPlan::plan`] partitions rules under a [`ShardPolicy`]. Plans
//!   are *order-preserving* (every part is a contiguous, ascending index
//!   range), so reports merged per part can be recombined with a k-way
//!   ordered merge and stay byte-identical to the unpartitioned scan.

use crate::params::{
    ARRAYS_PER_BANK, BITS_PER_BITVECTOR, BITVECTORS_PER_PE, COUNTERS_PER_PE, PES_PER_ARRAY,
    STES_PER_BANK,
};
use crate::place::place;
use recama_mnrl::MnrlNetwork;

/// Resource footprint of one rule (or the running total of one shard),
/// in the units the bank hierarchy is provisioned in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleCost {
    /// CAM columns consumed by the STEs (encoding-dependent, ≥ 1 each).
    pub columns: usize,
    /// Counter modules.
    pub counters: usize,
    /// Bit-vector bits across all segments.
    pub bitvector_bits: u64,
}

impl RuleCost {
    /// The footprint of `network`, measured by the mapper itself.
    pub fn of_network(network: &MnrlNetwork) -> RuleCost {
        let p = place(network);
        RuleCost {
            columns: p.total_columns,
            counters: p.counter_count,
            bitvector_bits: p.bitvector_bits_used,
        }
    }

    /// Component-wise sum.
    pub fn plus(&self, other: &RuleCost) -> RuleCost {
        RuleCost {
            columns: self.columns + other.columns,
            counters: self.counters + other.counters,
            bitvector_bits: self.bitvector_bits + other.bitvector_bits,
        }
    }

    /// Whether the footprint fits within `budget`.
    pub fn fits(&self, budget: &ShardBudget) -> bool {
        self.columns <= budget.columns
            && self.counters <= budget.counters
            && self.bitvector_bits <= budget.bitvector_bits
    }

    /// Scalar balance weight used when splitting into equal-cost shards:
    /// CAM columns dominate both image size and software frontier work,
    /// so a rule weighs at least one column.
    fn weight(&self) -> u64 {
        (self.columns.max(1)) as u64
    }
}

/// Capacity of one shard. [`ShardBudget::bank`] is the headline
/// configuration: one CAMA bank of the Fig. 5 hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardBudget {
    /// CAM columns available (STE capacity).
    pub columns: usize,
    /// Counter modules available.
    pub counters: usize,
    /// Bit-vector bits available across physical modules.
    pub bitvector_bits: u64,
}

impl ShardBudget {
    /// One full CAMA bank: 16 arrays × 8 PEs of 512 STE columns,
    /// 8 counters and one 2000-bit vector module per PE.
    pub fn bank() -> ShardBudget {
        let pes = PES_PER_ARRAY * ARRAYS_PER_BANK;
        ShardBudget {
            columns: STES_PER_BANK,
            counters: COUNTERS_PER_PE * pes,
            bitvector_bits: (BITS_PER_BITVECTOR * BITVECTORS_PER_PE * pes) as u64,
        }
    }

    /// `n` banks treated as one shard unit (n ≥ 1).
    pub fn banks(n: usize) -> ShardBudget {
        let one = ShardBudget::bank();
        let n = n.max(1);
        ShardBudget {
            columns: one.columns * n,
            counters: one.counters * n,
            bitvector_bits: one.bitvector_bits * n as u64,
        }
    }
}

/// How to partition a ruleset into shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Everything in one shard — the single-image behavior.
    Single,
    /// Greedy order-preserving packing under a per-shard capacity: a new
    /// shard opens whenever the next rule would overflow the budget. A
    /// rule that alone exceeds the budget gets a shard of its own (it
    /// spills across banks, which the placement then reports).
    Banked(ShardBudget),
    /// Exactly `n` contiguous shards of roughly equal cost, ignoring bank
    /// capacity: `n` machine images to place, simulate and cost. It does
    /// not decide how many engines a software flow runs. Produces
    /// `min(n, rules)` shards, at least one.
    Fixed(usize),
}

impl Default for ShardPolicy {
    /// One CAMA bank per shard.
    fn default() -> ShardPolicy {
        ShardPolicy::Banked(ShardBudget::bank())
    }
}

/// A partition of rule indices into contiguous shards. Always holds at
/// least one shard (possibly empty, for the empty ruleset), and every
/// shard's members are strictly ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    shards: Vec<Vec<usize>>,
}

impl ShardPlan {
    /// Partitions `costs` (one entry per rule, in rule order) under
    /// `policy`.
    pub fn plan(costs: &[RuleCost], policy: ShardPolicy) -> ShardPlan {
        match policy {
            ShardPolicy::Single => ShardPlan::single(costs.len()),
            ShardPolicy::Banked(budget) => ShardPlan::next_fit(costs, &budget),
            ShardPolicy::Fixed(n) => ShardPlan::contiguous(costs, n),
        }
    }

    /// The trivial plan: one shard holding rules `0..rules`.
    pub fn single(rules: usize) -> ShardPlan {
        ShardPlan {
            shards: vec![(0..rules).collect()],
        }
    }

    /// Greedy order-preserving packing ([`ShardPolicy::Banked`]): a
    /// shard closes when the next rule would overflow `budget`, and a
    /// rule that alone exceeds it gets a shard of its own.
    fn next_fit(costs: &[RuleCost], budget: &ShardBudget) -> ShardPlan {
        let mut shards = Vec::new();
        let mut current = Vec::new();
        let mut load = RuleCost::default();
        for (i, cost) in costs.iter().enumerate() {
            if !current.is_empty() && !load.plus(cost).fits(budget) {
                shards.push(std::mem::take(&mut current));
                load = RuleCost::default();
            }
            current.push(i);
            load = load.plus(cost);
        }
        shards.push(current); // ≥ 1 shard even for the empty set
        ShardPlan { shards }
    }

    fn contiguous(costs: &[RuleCost], n: usize) -> ShardPlan {
        let n = n.max(1);
        if costs.is_empty() {
            return ShardPlan::single(0);
        }
        let total: u128 = costs.iter().map(|c| u128::from(c.weight())).sum();
        let mut shards = Vec::with_capacity(n.min(costs.len()));
        let mut current = Vec::new();
        let mut cum: u128 = 0;
        for (i, cost) in costs.iter().enumerate() {
            current.push(i);
            cum += u128::from(cost.weight());
            let closed = shards.len() as u128;
            let remaining_rules = costs.len() - (i + 1);
            // Close at the ideal cost boundary — or early, when the rules
            // left are exactly enough to make every remaining shard
            // nonempty (guarantees min(n, rules) shards even if all the
            // weight sits at the end).
            let balanced = cum * n as u128 >= total * (closed + 1);
            let forced = remaining_rules < n - shards.len();
            if (balanced || forced) && shards.len() + 1 < n && remaining_rules > 0 {
                shards.push(std::mem::take(&mut current));
            }
        }
        shards.push(current);
        ShardPlan { shards }
    }

    /// Number of shards (≥ 1).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, each a strictly ascending list of rule indices.
    pub fn shards(&self) -> &[Vec<usize>] {
        &self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recama_compiler::{compile, CompileOptions};
    use recama_syntax::parse;

    fn cost_of(pattern: &str) -> RuleCost {
        let parsed = parse(pattern).unwrap();
        let out = compile(&parsed.for_stream(), &CompileOptions::default());
        RuleCost::of_network(&out.network)
    }

    #[test]
    fn bank_budget_matches_hierarchy() {
        let b = ShardBudget::bank();
        assert_eq!(b.columns, 65536);
        assert_eq!(b.counters, 1024);
        assert_eq!(b.bitvector_bits, 256_000);
        let two = ShardBudget::banks(2);
        assert_eq!(two.columns, 2 * b.columns);
    }

    #[test]
    fn rule_costs_follow_the_mapper() {
        // ^[a-z]x: [a-z] costs 2 columns under the nibble encoding, x costs 1.
        let c = cost_of("^[a-z]x");
        assert_eq!(c.columns, 3);
        assert_eq!((c.counters, c.bitvector_bits), (0, 0));
        // ^a(bc){3,7}d: one counter module.
        let c = cost_of("^a(bc){3,7}d");
        assert_eq!(c.counters, 1);
        // a{64} in streaming form: one 64-bit bit-vector segment.
        let c = cost_of("a{64}");
        assert_eq!(c.bitvector_bits, 64);
    }

    #[test]
    fn small_set_fits_one_bank_shard() {
        let costs: Vec<RuleCost> = ["^abc", "^a{9}b", "k[xy]{3}z"]
            .iter()
            .map(|p| cost_of(p))
            .collect();
        let plan = ShardPlan::plan(&costs, ShardPolicy::default());
        assert_eq!(plan.shard_count(), 1);
        assert_eq!(plan.shards(), &[vec![0, 1, 2]]);
    }

    #[test]
    fn tight_budget_splits_contiguously_within_budget() {
        let costs = vec![
            RuleCost {
                columns: 6,
                ..Default::default()
            };
            10
        ];
        let budget = ShardBudget {
            columns: 16,
            counters: 8,
            bitvector_bits: 2000,
        };
        let plan = ShardPlan::plan(&costs, ShardPolicy::Banked(budget));
        assert_eq!(plan.shard_count(), 5); // 2 rules of 6 columns per shard
        assert_eq!(plan.shards().concat(), (0..10).collect::<Vec<_>>());
        let mut next = 0usize;
        for (si, members) in plan.shards().iter().enumerate() {
            assert!(!members.is_empty());
            for &m in members {
                assert_eq!(m, next, "shards must be contiguous and ordered");
                next += 1;
            }
            let load = members
                .iter()
                .fold(RuleCost::default(), |acc, &i| acc.plus(&costs[i]));
            assert!(load.fits(&budget), "shard {si} overflows: {load:?}");
        }
    }

    #[test]
    fn oversize_rule_gets_its_own_shard() {
        let small = RuleCost {
            columns: 4,
            ..Default::default()
        };
        let huge = RuleCost {
            columns: 1000,
            ..Default::default()
        };
        let budget = ShardBudget {
            columns: 10,
            counters: 8,
            bitvector_bits: 2000,
        };
        let plan = ShardPlan::plan(&[small, huge, small], ShardPolicy::Banked(budget));
        assert_eq!(plan.shards(), &[vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn counter_and_bitvector_capacity_also_bind() {
        let counting = RuleCost {
            columns: 1,
            counters: 3,
            bitvector_bits: 0,
        };
        let budget = ShardBudget {
            columns: 1000,
            counters: 4,
            bitvector_bits: 2000,
        };
        let plan = ShardPlan::plan(&[counting; 4], ShardPolicy::Banked(budget));
        assert_eq!(plan.shard_count(), 4, "counter capacity must bind");
    }

    #[test]
    fn fixed_split_is_balanced_and_bounded() {
        let costs = vec![
            RuleCost {
                columns: 5,
                ..Default::default()
            };
            12
        ];
        let plan = ShardPlan::plan(&costs, ShardPolicy::Fixed(4));
        assert_eq!(plan.shard_count(), 4);
        for members in plan.shards() {
            assert_eq!(members.len(), 3, "equal costs split evenly");
        }
        // More shards than rules: one rule each.
        let plan = ShardPlan::plan(&costs[..2], ShardPolicy::Fixed(8));
        assert_eq!(plan.shard_count(), 2);
    }

    #[test]
    fn fixed_split_honors_count_under_skewed_weights() {
        // All the weight at the end: the balance boundary is never hit
        // before the last rule, so closing must be forced.
        let light = RuleCost {
            columns: 1,
            ..Default::default()
        };
        let heavy = RuleCost {
            columns: 100,
            ..Default::default()
        };
        let plan = ShardPlan::plan(&[light, light, heavy], ShardPolicy::Fixed(3));
        assert_eq!(plan.shards(), &[vec![0], vec![1], vec![2]]);
        // Weight at the front: balance closes early, the tail still
        // spreads over the remaining shards.
        let plan = ShardPlan::plan(&[heavy, light, light], ShardPolicy::Fixed(3));
        assert_eq!(plan.shards(), &[vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn empty_set_has_one_empty_shard() {
        for policy in [
            ShardPolicy::Single,
            ShardPolicy::default(),
            ShardPolicy::Fixed(4),
        ] {
            let plan = ShardPlan::plan(&[], policy);
            assert_eq!(plan.shard_count(), 1);
            assert!(plan.shards()[0].is_empty());
        }
    }
}
