//! Storage plans as the counter bank compiles them, against the
//! reference: the plan's modes, the cells they become, and a one-rule
//! [`MultiNca`]'s engine without rows beside [`TokenSetEngine`] (Def. 2.1),
//! which shares no plan and no counter cell with it. The rules here are
//! `σ{m,n}`-shaped or provably unambiguous; nested and ambiguous
//! multi-state counting reaches the bank compiled, which the
//! equivalence suite of the `recama` package drives.

use crate::engine::TokenSetEngine;
use crate::multi::MultiNca;
use crate::nca::{Nca, StateId};
use crate::plan::{queues, single, CompilePlan, StorageMode};
use recama_syntax::parse;

fn nca(p: &str) -> Nca {
    Nca::from_regex(&parse(p).unwrap().regex)
}

fn exhaustive_inputs(alpha: &[u8], maxlen: usize) -> Vec<Vec<u8>> {
    let mut all: Vec<Vec<u8>> = vec![vec![]];
    let mut frontier: Vec<Vec<u8>> = vec![vec![]];
    for _ in 0..maxlen {
        let mut next = Vec::new();
        for w in &frontier {
            for &c in alpha {
                let mut w2 = w.clone();
                w2.push(c);
                next.push(w2);
            }
        }
        all.extend(next.iter().cloned());
        frontier = next;
    }
    all
}

/// `nca` merged alone under `plan`.
fn bank(nca: &Nca, plan: CompilePlan) -> MultiNca {
    MultiNca::merge(&[(nca, plan)])
}

/// The ends > 0 at which `multi`'s engine without rows reports on
/// `input`, and the conflicts it counted on the way.
fn bank_ends(multi: &MultiNca, input: &[u8]) -> (Vec<usize>, u64) {
    let mut engine = multi.engine();
    let reports = engine.match_reports(input);
    let ends = reports.iter().map(|r| r.end as usize).collect();
    (ends, engine.conflicts())
}

/// The reference's ends > 0 on `input` (a merge never reports at 0).
fn reference_ends(reference: &mut TokenSetEngine<'_>, input: &[u8]) -> Vec<usize> {
    let mut ends = reference.match_ends(input);
    ends.retain(|&e| e > 0);
    ends
}

/// The one counted state of `multi`'s cell, as `MultiNca::scan_cell`
/// describes it.
fn only_cell(multi: &MultiNca) -> String {
    let mut cells =
        (0..multi.nca().state_count() as u32).filter_map(|q| multi.scan_cell(StateId(q)));
    let cell = cells.next().expect("a counted state");
    assert!(cells.next().is_none(), "one counted state");
    cell
}

/// `patterns` under `plan`, on the bank and on the reference, agree on
/// every end of every input, and the bank counts no conflict.
fn agree_with_reference(patterns: &[&str], plan: fn(&Nca) -> CompilePlan, inputs: &[Vec<u8>]) {
    for p in patterns {
        let a = nca(p);
        let multi = bank(&a, plan(&a));
        let mut reference = TokenSetEngine::new(&a);
        for w in inputs {
            let (ends, conflicts) = bank_ends(&multi, w);
            assert_eq!(ends, reference_ends(&mut reference, w), "{p} on {w:?}");
            assert_eq!(conflicts, 0, "{p} on {w:?}");
        }
    }
}

mod tests {
    use super::*;

    #[test]
    fn single_value_plan_on_unambiguous_regex() {
        // a{4} anchored: counter-unambiguous, so SingleValue everywhere.
        let a = nca("a{4}b");
        let multi = bank(&a, single(&a));
        assert_eq!(only_cell(&multi), "a register (flat)");
        let mut reference = TokenSetEngine::new(&a);
        for w in exhaustive_inputs(b"ab", 7) {
            let (ends, conflicts) = bank_ends(&multi, &w);
            assert_eq!(ends, reference_ends(&mut reference, &w), "on {w:?}");
            assert_eq!(conflicts, 0, "a{{4}}b is counter-unambiguous");
        }
        // Registers also take what no counting set can: hand-offs
        // between the states of a body, and a saturating `{m,}`.
        agree_with_reference(
            &["(ab){2,3}c", "a{2,}b", "(a|b){2,4}"],
            single,
            &exhaustive_inputs(b"ab", 6),
        );
    }

    /// A counted state the plan has no cell for — two counters, or
    /// ambiguous outside the `σ{m,n}` shape — is refused, naming the
    /// state.
    #[test]
    fn the_plan_refuses_what_only_unfolding_handles() {
        for (pattern, unambiguous) in [("(a{2,3}b){2,3}", true), (".*(ab){2,3}", false)] {
            let a = nca(pattern);
            let refused = std::panic::catch_unwind(|| CompilePlan::optimized(&a, |_| unambiguous));
            let message = *refused.unwrap_err().downcast::<String>().unwrap();
            assert!(message.starts_with("state q"), "{pattern}: {message}");
            assert!(message.ends_with("compile the rule first"), "{pattern}");
        }
    }

    #[test]
    fn single_value_plan_detects_bad_claims() {
        // .*a{2} is counter-ambiguous (Example 3.2): on aaa two tokens
        // sit on the counted state, so claiming SingleValue everywhere
        // must produce conflicts there, and the sound plan none.
        let a = nca(".*a{2}");
        let mut reference = TokenSetEngine::new(&a);
        reference.matches(b"aaa");
        assert!(reference.observed_degree() >= 2);
        let claimed = bank(&a, single(&a));
        assert!(bank_ends(&claimed, b"aaa").1 > 0);
        let sound = bank(&a, queues(&a));
        assert_eq!(bank_ends(&sound, b"aaa").1, 0);
    }

    #[test]
    fn bitvector_mirrors_paper_ops() {
        // Σ*σ1σ2{n} from Example 2.2 — the bit-vector case: a word with
        // bit `v − 1` set for each live value `v`, set-first/shift/
        // disjunct as §3.2.1 describes.
        let a = nca(".*[ab][^a]{3}");
        assert_eq!(only_cell(&bank(&a, queues(&a))), "a 3-bit word (flat)");
        agree_with_reference(&[".*[ab][^a]{3}"], queues, &exhaustive_inputs(b"abx", 5));
    }

    #[test]
    fn match_ends_agree() {
        let p = parse("ab{2,3}").unwrap();
        let a = Nca::from_regex(&p.for_stream());
        let multi = bank(&a, queues(&a));
        let input = b"zabbbabbx";
        let ends = reference_ends(&mut TokenSetEngine::new(&a), input);
        assert_eq!(ends, [4, 5, 8]);
        assert_eq!(bank_ends(&multi, input).0, ends);
    }
}

mod counting_set_tests {
    use super::*;
    use crate::bank::CountingQueue;

    #[test]
    fn queue_plan_assigns_counting_sets_to_sigma_bodies() {
        let modes = |plan: CompilePlan| plan.iter().map(|(_, m)| m).collect::<Vec<_>>();
        let a = nca(".*a{5}");
        let sets = modes(queues(&a))
            .into_iter()
            .filter(|&m| m == StorageMode::CountingSet);
        assert_eq!(sets.count(), 1);
        // Multi-state bodies are not eligible: (ab) body states loop to
        // each other, not to themselves. Nor is unbounded {m,}
        // (saturation breaks the queue). Both are registers or nothing.
        for pattern in [".*(ab){3,5}", ".*a{3,}b"] {
            let b = nca(pattern);
            assert!(!modes(single(&b)).contains(&StorageMode::CountingSet));
            let refused = std::panic::catch_unwind(|| queues(&b));
            assert!(refused.is_err(), "{pattern}");
        }
    }

    #[test]
    fn counting_set_engine_matches_reference() {
        agree_with_reference(
            &[
                ".*a{3}",
                ".*a{2,4}b",
                "x[ab]{2,5}y",
                ".*[ab][^a]{3}",
                "a{2,3}c{2,3}", // chained: entry of the second is guarded
                "(x|y)a{2,4}z",
                // A star around the repeat: the set re-enters itself.
                "(a{2,3})*b",
                "x(a{1,3})+y",
                "(a{2,3}|b)*z",
            ],
            queues,
            &exhaustive_inputs(b"abxyz", 5),
        );
    }

    #[test]
    fn counting_queue_semantics() {
        let mut q = CountingQueue::default();
        q.set_first();
        assert_eq!(q.values().collect::<Vec<_>>(), vec![1]);
        q.shift(5);
        q.set_first();
        assert_eq!(q.values().collect::<Vec<_>>(), vec![2, 1]);
        q.shift(5);
        q.shift(5);
        assert_eq!(q.values().collect::<Vec<_>>(), vec![4, 3]);
        // Expiry past the bound pops the oldest.
        q.shift(4);
        assert_eq!(q.values().collect::<Vec<_>>(), vec![4]);
        q.shift(4);
        assert!(q.values().next().is_none());
        // Dedup of same-cycle inserts.
        q.set_first();
        q.set_first();
        assert_eq!(q.values().count(), 1);
    }

    /// A counting set — a word up to bound 64, a queue above — reports
    /// what the reference does.
    #[test]
    fn counting_set_match_ends_agree_with_reference() {
        let mut long = b"ak".to_vec();
        long.extend([b'z'; 62]);
        long.extend(b"k_");
        long.extend([b'z'; 80]);
        for (pattern, input, cell) in [
            (
                "k.{3,9}",
                &b"akzzzzk_zzzzzzzzzzk"[..],
                "a 9-bit word (flat)",
            ),
            ("k.{60,70}", &long[..], "a counting-set queue"),
            ("k(.{3,9})+", &b"akzzzzk_zzzzzzzzzzk"[..], "a 9-bit word"),
            ("k(.{60,70})+", &long[..], "a counting-set queue"),
        ] {
            let a = Nca::from_regex(&parse(pattern).unwrap().for_stream());
            let multi = bank(&a, queues(&a));
            assert_eq!(only_cell(&multi), cell);
            let ends = reference_ends(&mut TokenSetEngine::new(&a), input);
            assert!(!ends.is_empty(), "{pattern}");
            assert_eq!(bank_ends(&multi, input).0, ends, "{pattern}");
        }
    }
}
