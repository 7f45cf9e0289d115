//! A naive membership oracle, used throughout the workspace as the ground
//! truth in tests: `matches(r, w)` decides `w ∈ ⟦r⟧` by memoized recursion
//! over substrings. Exponential state in the worst case — intended for short
//! inputs in tests only, never on the hot path.

use crate::ast::Regex;
use std::collections::HashMap;

/// Decides whether `input ∈ ⟦regex⟧` (whole-string membership, the ⟦·⟧
/// semantics of §2 of the paper).
///
/// Complexity is polynomial in `input.len()` for fixed regex size but can be
/// exponential in nesting of counting; use only as a test oracle.
///
/// # Examples
///
/// ```
/// use recama_syntax::{naive, parse};
/// let r = parse("a(bc){1,3}d").unwrap().regex;
/// assert!(naive::matches(&r, b"abcbcd"));
/// assert!(!naive::matches(&r, b"ad"));
/// ```
pub fn matches(regex: &Regex, input: &[u8]) -> bool {
    let mut memo = Memo::default();
    matches_range(regex, input, 0, input.len(), &mut memo)
}

type Key = (usize, usize, usize); // (node address, lo, hi)
#[derive(Default)]
struct Memo(HashMap<Key, bool>);

fn key(r: &Regex, lo: usize, hi: usize) -> Key {
    (r as *const Regex as usize, lo, hi)
}

fn matches_range(r: &Regex, s: &[u8], lo: usize, hi: usize, memo: &mut Memo) -> bool {
    let k = key(r, lo, hi);
    if let Some(&v) = memo.0.get(&k) {
        return v;
    }
    // Seed with `false` to cut (harmless) cycles through identical ranges.
    memo.0.insert(k, false);
    let v = compute(r, s, lo, hi, memo);
    memo.0.insert(k, v);
    v
}

fn compute(r: &Regex, s: &[u8], lo: usize, hi: usize, memo: &mut Memo) -> bool {
    match r {
        Regex::Empty => lo == hi,
        Regex::Void => false,
        Regex::Class(c) => hi == lo + 1 && c.contains(s[lo]),
        Regex::Alt(parts) => parts.iter().any(|p| matches_range(p, s, lo, hi, memo)),
        Regex::Concat(parts) => concat_matches(parts, s, lo, hi, memo),
        Regex::Star(inner) => {
            if lo == hi {
                return true;
            }
            // First nonempty factor at some split, rest matches star again.
            (lo + 1..=hi).any(|mid| {
                matches_range(inner, s, lo, mid, memo) && matches_range(r, s, mid, hi, memo)
            })
        }
        Regex::Repeat { inner, min, max } => repeat_matches(inner, *min, *max, s, lo, hi, memo),
    }
}

fn concat_matches(parts: &[Regex], s: &[u8], lo: usize, hi: usize, memo: &mut Memo) -> bool {
    match parts {
        [] => lo == hi,
        [single] => matches_range(single, s, lo, hi, memo),
        [head, rest @ ..] => (lo..=hi).any(|mid| {
            matches_range(head, s, lo, mid, memo) && concat_matches(rest, s, mid, hi, memo)
        }),
    }
}

#[allow(clippy::needless_range_loop)] // i/j index two parallel reachability arrays
fn repeat_matches(
    inner: &Regex,
    min: u32,
    max: Option<u32>,
    s: &[u8],
    lo: usize,
    hi: usize,
    memo: &mut Memo,
) -> bool {
    // count(k) table over positions: reachable[i] = set of positions after
    // exactly k iterations. Positions ≤ input length, iterations capped by
    // max (or by input length + min for the unbounded case: more nonempty
    // iterations than bytes are impossible, and empty iterations keep the
    // position, so saturating the count at `min` is sound).
    let len = hi - lo;
    let cap = match max {
        Some(n) => n as usize,
        None => min as usize + len,
    };
    let mut reachable = vec![false; len + 1];
    reachable[0] = true; // 0 iterations: position lo
    if min == 0 && lo == hi {
        return true;
    }
    let acceptable_now = |reach: &[bool], iters: usize| -> bool {
        iters >= min as usize && max.is_none_or(|n| iters <= n as usize) && reach[len]
    };
    if acceptable_now(&reachable, 0) {
        return true;
    }
    let nullable = inner.nullable();
    for iters in 1..=cap {
        let mut next = vec![false; len + 1];
        let mut any = false;
        for i in 0..=len {
            if !reachable[i] {
                continue;
            }
            for j in i..=len {
                if j == i && !nullable {
                    continue;
                }
                if matches_range(inner, s, lo + i, lo + j, memo) {
                    next[j] = true;
                    any = true;
                }
            }
        }
        reachable = next;
        if acceptable_now(&reachable, iters) {
            return true;
        }
        if !any {
            return false;
        }
        // Unbounded case: once past `min`, any further iterations only need
        // nonempty progress, and reaching the end suffices.
        if max.is_none() && iters >= min as usize && reachable[len] {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn m(p: &str, s: &str) -> bool {
        matches(&parse(p).unwrap().regex, s.as_bytes())
    }

    #[test]
    fn basics() {
        assert!(m("abc", "abc"));
        assert!(!m("abc", "ab"));
        assert!(m("a|b", "b"));
        assert!(m("a*", ""));
        assert!(m("a*", "aaaa"));
        assert!(!m("a*", "ab"));
        assert!(m("(ab)*", "abab"));
        assert!(!m("(ab)*", "aba"));
    }

    #[test]
    fn counting() {
        assert!(m("a{3}", "aaa"));
        assert!(!m("a{3}", "aa"));
        assert!(!m("a{3}", "aaaa"));
        assert!(m("a{2,4}", "aa"));
        assert!(m("a{2,4}", "aaaa"));
        assert!(!m("a{2,4}", "a"));
        assert!(!m("a{2,4}", "aaaaa"));
        assert!(m("a{2,}", "aaaaaaa"));
        assert!(!m("a{2,}", "a"));
        assert!(m("(ab){2,3}", "ababab"));
        assert!(!m("(ab){2,3}", "ab"));
    }

    #[test]
    fn nullable_bodies() {
        assert!(m("(a?){3}", ""));
        assert!(m("(a?){3}", "aa"));
        assert!(m("(a?){3}", "aaa"));
        assert!(!m("(a?){3}", "aaaa"));
        assert!(m("(a*){2}", "aaaaa"));
    }

    #[test]
    fn nested_counting() {
        // (a{2}){3} = a{6}
        assert!(m("(a{2}){3}", "aaaaaa"));
        assert!(!m("(a{2}){3}", "aaaaa"));
        // ((ab){1,2}c){2}
        assert!(m("((ab){1,2}c){2}", "abcababc"));
        assert!(!m("((ab){1,2}c){2}", "abc"));
    }

    #[test]
    fn search_forms() {
        let p = parse("needle").unwrap();
        let stream = p.for_stream();
        assert!(matches(&stream, b"hay needle"));
        assert!(!matches(&stream, b"needle hay"));
    }
}
