//! Unfolding of counting — the baseline the paper compares against.
//!
//! Existing in-memory NFA architectures (AP, CA, Impala, CAMA) support
//! counting only by rewriting `r{m,n}` into `r·r·…·r·(r?)^(n−m)`, which
//! costs Θ(n·|r|) STEs. [`unfold`] performs that rewrite, either fully or
//! only for occurrences with bounds up to a threshold — the *unfolding
//! threshold* knob swept in Fig. 9 and Fig. 10 of the paper.

use recama_syntax::Regex;

/// Which counting occurrences to unfold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnfoldPolicy {
    /// Unfold every counting occurrence (the pure-NFA baseline).
    All,
    /// Unfold only occurrences whose relevant bound (n for `{m,n}`, m for
    /// `{m,}`) is ≤ the threshold; keep the rest for counters/bit vectors.
    UpTo(u32),
    /// Unfold nothing.
    None,
}

impl UnfoldPolicy {
    fn applies(self, min: u32, max: Option<u32>) -> bool {
        match self {
            UnfoldPolicy::All => true,
            UnfoldPolicy::UpTo(k) => max.unwrap_or(min) <= k,
            UnfoldPolicy::None => false,
        }
    }
}

/// Rewrites counting occurrences selected by `policy` into concatenations:
/// `r{m,n} → r^m·(r?)^(n−m)`, `r{m,} → r^(m−1)·r+`. Plain `*`/`+` iteration
/// is left alone. The result's language is unchanged.
///
/// # Examples
///
/// ```
/// use recama_nca::{unfold, UnfoldPolicy};
/// use recama_syntax::parse;
///
/// let r = parse("a{3}b{2,4}").unwrap().regex;
/// let u = unfold(&r, UnfoldPolicy::All);
/// assert_eq!(u.to_string(), "aaabbb?b?");
/// let partial = unfold(&r, UnfoldPolicy::UpTo(3));
/// assert_eq!(partial.to_string(), "aaab{2,4}");
/// ```
pub fn unfold(regex: &Regex, policy: UnfoldPolicy) -> Regex {
    regex.rewrite_repeats(&mut |_, body, min, max| {
        if policy.applies(min, max) {
            unfold_one(body, min, max)
        } else {
            Regex::repeat(body, min, max)
        }
    })
}

/// Unfolds a single occurrence: `body{min,max}` into a counting-free
/// concatenation (`body` must already be free of occurrences you want
/// unfolded). Exposed for callers that unfold selected occurrences by
/// identity rather than by bound, from a closure over
/// [`Regex::rewrite_repeats`] (the per-occurrence exact analysis, the
/// compiler's fallback).
pub fn unfold_one(body: Regex, min: u32, max: Option<u32>) -> Regex {
    let mut parts: Vec<Regex> = Vec::new();
    match max {
        Some(n) => {
            for _ in 0..min {
                parts.push(body.clone());
            }
            for _ in min..n {
                parts.push(Regex::opt(body.clone()));
            }
        }
        None => {
            for _ in 1..min {
                parts.push(body.clone());
            }
            parts.push(Regex::plus(body));
        }
    }
    Regex::concat(parts)
}

/// Number of STEs (Glushkov positions) the unfolded form of `regex` needs —
/// without materializing the unfolded AST. This is what the micro-benchmarks
/// of Fig. 8 count for the "Unfold" series.
pub fn unfolded_leaves(regex: &Regex) -> u64 {
    match regex {
        Regex::Empty | Regex::Void => 0,
        Regex::Class(_) => 1,
        Regex::Concat(parts) | Regex::Alt(parts) => parts.iter().map(unfolded_leaves).sum(),
        Regex::Star(inner) => unfolded_leaves(inner),
        Regex::Repeat { inner, min, max } => {
            let per = unfolded_leaves(inner);
            if Regex::is_plain_iteration(*min, *max) {
                per
            } else {
                per * u64::from(max.unwrap_or(*min).max(1))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TokenSetEngine;
    use crate::nca::Nca;
    use recama_syntax::{naive, parse};

    fn ast(p: &str) -> Regex {
        parse(p).unwrap().regex
    }

    #[test]
    fn full_unfold_shapes() {
        assert_eq!(unfold(&ast("a{3}"), UnfoldPolicy::All).to_string(), "aaa");
        assert_eq!(
            unfold(&ast("a{1,3}"), UnfoldPolicy::All).to_string(),
            "aa?a?"
        );
        assert_eq!(
            unfold(&ast("a{0,2}"), UnfoldPolicy::All).to_string(),
            "a?a?"
        );
        assert_eq!(unfold(&ast("a{3,}"), UnfoldPolicy::All).to_string(), "aaa+");
        assert_eq!(
            unfold(&ast("(ab){2}"), UnfoldPolicy::All).to_string(),
            "abab"
        );
    }

    #[test]
    fn nested_unfold() {
        // (a{2}){3} unfolds inside-out to a^6.
        assert_eq!(
            unfold(&ast("(a{2}){3}"), UnfoldPolicy::All).to_string(),
            "aaaaaa"
        );
    }

    #[test]
    fn threshold_is_selective() {
        let r = ast("a{2}b{100}c{5,}");
        let u = unfold(&r, UnfoldPolicy::UpTo(10));
        // a{2} unfolds (bound 2), c{5,} unfolds (bound 5), b{100} stays.
        assert!(u.to_string().starts_with("aab{100}"));
        assert!(!u.has_counting() || u.repeats().iter().all(|i| i.max == Some(100)));
        assert_eq!(unfold(&r, UnfoldPolicy::None), r);
    }

    #[test]
    fn star_and_plus_untouched() {
        let r = ast("a*b+");
        assert_eq!(unfold(&r, UnfoldPolicy::All), r);
    }

    #[test]
    fn unfolding_preserves_language() {
        for p in [
            "a{2,4}",
            "(ab){2,3}c",
            "a{3,}",
            "(a|b){2}",
            "(a{2}b){1,2}",
            ".*a{3}",
        ] {
            let r = ast(p);
            let u = unfold(&r, UnfoldPolicy::All);
            assert!(!u.has_counting(), "unfold-all left counting in {u}");
            for w in [
                "", "a", "aa", "aaa", "aaaa", "ab", "abab", "ababc", "abc", "aab", "xaaa", "baaa",
                "aaab",
            ] {
                assert_eq!(
                    naive::matches(&r, w.as_bytes()),
                    naive::matches(&u, w.as_bytes()),
                    "{p} vs unfolded {u} differ on {w}"
                );
            }
        }
    }

    #[test]
    fn unfolded_nca_is_counter_free_and_equivalent() {
        for p in ["a{2,4}b", "(ab){3}", ".*[ab]{2,3}"] {
            let r = ast(p);
            let u = unfold(&r, UnfoldPolicy::All);
            let nca_c = Nca::from_regex(&r);
            let nca_u = Nca::from_regex(&u);
            assert!(nca_u.counters().is_empty());
            let mut e1 = TokenSetEngine::new(&nca_c);
            let mut e2 = TokenSetEngine::new(&nca_u);
            for w in [
                &b"ab"[..],
                b"abab",
                b"ababab",
                b"aa",
                b"aaa",
                b"aabbb",
                b"xabb",
            ] {
                assert_eq!(e1.matches(w), e2.matches(w), "{p} on {w:?}");
            }
            let _ = e2.matches(b"");
        }
    }

    #[test]
    fn unfolded_leaves_counts() {
        assert_eq!(unfolded_leaves(&ast("a{1000}")), 1000);
        assert_eq!(unfolded_leaves(&ast("(ab){10,50}")), 100);
        assert_eq!(unfolded_leaves(&ast("a{3,}")), 3);
        assert_eq!(unfolded_leaves(&ast("abc")), 3);
        assert_eq!(unfolded_leaves(&ast("(a{10}){20}")), 200);
        assert_eq!(unfolded_leaves(&ast("a*")), 1);
    }
}
