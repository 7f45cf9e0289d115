//! Instrumentation shared by all analysis variants.
//!
//! The paper evaluates the checker on two axes (Fig. 2): running time and
//! the number of token pairs *created* during the exploration of the
//! product transition system (the memory-footprint proxy of §3.3).

use std::ops::AddAssign;
use std::time::Duration;

/// Counters collected by one analysis run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Token pairs created (inserted into the visited set) — the quantity
    /// plotted in Fig. 2(b).
    pub pairs_created: u64,
    /// Product edges traversed (successor pairs examined, including ones
    /// already visited).
    pub edges_traversed: u64,
    /// Number of separate product explorations run (1 for exact; one per
    /// occurrence for the approximate variant).
    pub explorations: u64,
    /// True when some exploration hit its pair budget and stopped early.
    pub budget_exhausted: bool,
    /// Wall-clock time spent analyzing.
    pub duration: Duration,
}

impl AddAssign for AnalysisStats {
    fn add_assign(&mut self, rhs: AnalysisStats) {
        self.pairs_created += rhs.pairs_created;
        self.edges_traversed += rhs.edges_traversed;
        self.explorations += rhs.explorations;
        self.budget_exhausted |= rhs.budget_exhausted;
        self.duration += rhs.duration;
    }
}

/// Three-valued verdict for a counting occurrence or a whole regex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Proven counter-unambiguous: `degree(q) ≤ 1` for the relevant states.
    Unambiguous,
    /// Proven counter-ambiguous (two distinct tokens reach one state).
    Ambiguous,
    /// Not determined (approximation inconclusive or budget exhausted).
    Unknown,
}

impl Verdict {
    /// Whether the verdict is a definitive proof of unambiguity.
    pub(crate) fn is_unambiguous(self) -> bool {
        self == Verdict::Unambiguous
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate() {
        let mut a = AnalysisStats {
            pairs_created: 10,
            edges_traversed: 20,
            explorations: 1,
            budget_exhausted: false,
            duration: Duration::from_millis(5),
        };
        a += AnalysisStats {
            pairs_created: 1,
            edges_traversed: 2,
            explorations: 1,
            budget_exhausted: true,
            duration: Duration::from_millis(1),
        };
        assert_eq!(a.pairs_created, 11);
        assert_eq!(a.edges_traversed, 22);
        assert_eq!(a.explorations, 2);
        assert!(a.budget_exhausted);
        assert_eq!(a.duration, Duration::from_millis(6));
    }

    #[test]
    fn verdict_predicates() {
        assert!(Verdict::Unambiguous.is_unambiguous());
        assert!(!Verdict::Unknown.is_unambiguous());
        assert!(!Verdict::Ambiguous.is_unambiguous());
    }
}
