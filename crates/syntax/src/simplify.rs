//! Language-preserving rewriting of counting regexes.
//!
//! Two layers:
//!
//! 1. [`simplify`] — the compiler front-end rewrites of §4.2 step (1):
//!    unfolding of repetitions with upper bound < 2, merging of character
//!    classes inside simple alternations (`[a]|[b]` → `[ab]`), flattening,
//!    and elimination of the ∅/ε degenerate forms.
//! 2. [`normalize_for_nca`] — establishes the Glushkov-with-counters
//!    precondition that every remaining `Repeat` node has a **non-nullable
//!    body** and bounds `1 ≤ m (≤ n, n ≥ 2)`. Nullable bodies are rewritten
//!    with the ε-stripping transformation [`nonnull`]
//!    (`r{m,n} ≡ (nonnull(r)){0,n}` when ε ∈ ⟦r⟧), the regex-with-counting
//!    analogue of star normal form.
//!
//! All rewrites preserve ⟦r⟧ exactly; this is checked against the naive
//! oracle in the tests and against the NCA engines in integration tests.

use crate::ast::Regex;
use crate::class::ByteClass;

/// Applies the compiler's front-end rewrite rules bottom-up until fixpoint.
///
/// # Examples
///
/// ```
/// use recama_syntax::{parse, simplify};
/// let r = parse("x(a|b|c)y{1}z{0,1}").unwrap().regex;
/// assert_eq!(simplify(&r).to_string(), "x[a-c]yz?");
/// ```
pub fn simplify(r: &Regex) -> Regex {
    let mut cur = simplify_once(r);
    loop {
        let next = simplify_once(&cur);
        if next == cur {
            return cur;
        }
        cur = next;
    }
}

fn simplify_once(r: &Regex) -> Regex {
    match r {
        Regex::Empty | Regex::Void | Regex::Class(_) => r.clone(),
        Regex::Concat(parts) => simplify_concat(parts.iter().map(simplify_once).collect()),
        Regex::Alt(parts) => {
            let parts: Vec<Regex> = parts.iter().map(simplify_once).collect();
            simplify_alt(parts)
        }
        Regex::Star(inner) => Regex::star(simplify_once(inner)),
        Regex::Repeat { inner, min, max } => {
            let inner = simplify_once(inner);
            simplify_repeat(inner, *min, *max)
        }
    }
}

/// Concatenation cleanup: flatten (via the constructor) and fuse the
/// `r·r*` / `r*·r` adjacency into `r+`.
fn simplify_concat(parts: Vec<Regex>) -> Regex {
    let flat = match Regex::concat(parts) {
        Regex::Concat(parts) => parts,
        other => return other,
    };
    let mut out: Vec<Regex> = Vec::with_capacity(flat.len());
    for p in flat {
        let fused = match (out.last(), &p) {
            (Some(prev), Regex::Star(inner)) if *prev == **inner => true,
            (Some(Regex::Star(inner)), cur) if **inner == *cur => true,
            _ => false,
        };
        if fused {
            let prev = out.pop().expect("fused implies a previous part");
            let base = match prev {
                Regex::Star(inner) => *inner,
                other => other,
            };
            out.push(Regex::plus(base));
        } else {
            out.push(p);
        }
    }
    Regex::concat(out)
}

/// Alternation cleanup: flatten, drop ∅, deduplicate syntactically equal
/// arms, merge all single-class arms into one class (`[a]|[b]` → `[ab]`),
/// and keep at most one ε arm.
fn simplify_alt(parts: Vec<Regex>) -> Regex {
    let flat = match Regex::alt(parts) {
        Regex::Alt(parts) => parts,
        other => return other,
    };
    let mut merged_class: Option<ByteClass> = None;
    let mut class_slot: Option<usize> = None;
    let mut out: Vec<Regex> = Vec::with_capacity(flat.len());
    let mut saw_empty = false;
    for p in flat {
        match p {
            Regex::Class(c) => {
                merged_class = Some(match merged_class {
                    Some(acc) => acc.union(&c),
                    None => c,
                });
                if class_slot.is_none() {
                    class_slot = Some(out.len());
                    out.push(Regex::Void); // placeholder, patched below
                }
            }
            Regex::Empty => {
                if !saw_empty {
                    saw_empty = true;
                    out.push(Regex::Empty);
                }
            }
            other => {
                if !out.contains(&other) {
                    out.push(other);
                }
            }
        }
    }
    if let (Some(slot), Some(c)) = (class_slot, merged_class) {
        out[slot] = Regex::Class(c);
    }
    // ε is absorbed by any nullable sibling.
    if saw_empty && out.iter().any(|p| *p != Regex::Empty && p.nullable()) {
        out.retain(|p| *p != Regex::Empty);
    }
    Regex::alt(out)
}

/// Repetition cleanup, including the "unfold upper bound < 2" compiler rule.
fn simplify_repeat(inner: Regex, min: u32, max: Option<u32>) -> Regex {
    if inner.is_void() {
        return if min == 0 { Regex::Empty } else { Regex::Void };
    }
    if inner == Regex::Empty {
        return Regex::Empty;
    }
    match (min, max) {
        (_, Some(0)) => Regex::Empty,
        (0, Some(1)) => Regex::opt(inner),
        (1, Some(1)) => inner,
        (0, None) => Regex::star(inner),
        (1, None) => Regex::plus(inner),
        _ => Regex::repeat(inner, min, max),
    }
}

/// Computes a regex denoting ⟦r⟧ ∖ {ε} (possibly [`Regex::Void`]).
///
/// This is the ε-stripping transformation used to normalize nullable
/// repetition bodies before the Glushkov construction.
pub(crate) fn nonnull(r: &Regex) -> Regex {
    if !r.nullable() {
        return r.clone();
    }
    match r {
        Regex::Empty | Regex::Void => Regex::Void,
        Regex::Class(_) => unreachable!("classes are not nullable"),
        Regex::Alt(parts) => Regex::alt(parts.iter().map(nonnull).collect()),
        Regex::Concat(parts) => nonnull_concat(parts),
        Regex::Star(inner) => {
            let head = nonnull(inner);
            Regex::concat(vec![head, Regex::star(inner.as_ref().clone())])
        }
        Regex::Repeat { inner, min: _, max } => {
            // r nullable here, so ⟦r{m,n}⟧ = ⟦inner{0,n}⟧ and the nonempty
            // words use ≥ 1 nonempty iteration of the body.
            let head = nonnull(inner);
            let tail = match max {
                None => Regex::star(inner.as_ref().clone()),
                Some(0) | Some(1) => Regex::Empty,
                Some(n) => Regex::repeat(inner.as_ref().clone(), 0, Some(n - 1)),
            };
            Regex::concat(vec![head, tail])
        }
    }
}

/// nonnull over a concatenation: a nonempty word picks the first factor that
/// contributes a nonempty piece.
fn nonnull_concat(parts: &[Regex]) -> Regex {
    match parts {
        [] => Regex::Void,
        [single] => nonnull(single),
        [head, rest @ ..] => {
            let mut arms = vec![Regex::concat(
                std::iter::once(nonnull(head))
                    .chain(rest.iter().cloned())
                    .collect(),
            )];
            if head.nullable() {
                arms.push(nonnull_concat(rest));
            }
            Regex::alt(arms)
        }
    }
}

/// Rewrites `r` so that every remaining `Repeat` node satisfies the
/// Glushkov-with-counters precondition:
///
/// * the body is **non-nullable**, and
/// * bounds are `{m,n}` with `1 ≤ m ≤ n`, `n ≥ 2`, or `{m,}` with `m ≥ 2`.
///
/// Everything else is expressed with `ε`, `?`, `*`, `·`, `+` around the
/// repetition, preserving the language. Runs [`simplify`] first and keeps the
/// result simplified.
///
/// # Examples
///
/// ```
/// use recama_syntax::{parse, normalize_for_nca};
/// let r = parse("(a?){3,5}").unwrap().regex;
/// // nullable body: stripped to a{1,5}, made optional
/// assert_eq!(normalize_for_nca(&r).to_string(), "(a{1,5})?");
/// ```
pub fn normalize_for_nca(r: &Regex) -> Regex {
    let s = simplify(r);
    let n = normalize_rec(&s);
    simplify(&n)
}

fn normalize_rec(r: &Regex) -> Regex {
    match r {
        Regex::Empty | Regex::Void | Regex::Class(_) => r.clone(),
        Regex::Concat(parts) => Regex::concat(parts.iter().map(normalize_rec).collect()),
        Regex::Alt(parts) => Regex::alt(parts.iter().map(normalize_rec).collect()),
        Regex::Star(inner) => Regex::star(normalize_rec(inner)),
        Regex::Repeat { inner, min, max } => {
            let body = normalize_rec(inner);
            normalize_repeat(body, *min, *max)
        }
    }
}

fn normalize_repeat(body: Regex, min: u32, max: Option<u32>) -> Regex {
    if body.is_void() {
        return if min == 0 { Regex::Empty } else { Regex::Void };
    }
    if body.nullable() {
        // ⟦body{m,n}⟧ = ⟦nonnull(body){0,n}⟧.
        let stripped = simplify(&nonnull(&body));
        return normalize_repeat_nonnullable(stripped, 0, max);
    }
    normalize_repeat_nonnullable(body, min, max)
}

/// `body` non-nullable here.
fn normalize_repeat_nonnullable(body: Regex, min: u32, max: Option<u32>) -> Regex {
    if body.is_void() {
        return if min == 0 { Regex::Empty } else { Regex::Void };
    }
    match (min, max) {
        (_, Some(0)) => Regex::Empty,
        (0, Some(1)) => Regex::opt(body),
        (1, Some(1)) => body,
        (0, None) => Regex::star(body),
        (1, None) => Regex::plus(body),
        (0, Some(n)) => Regex::opt(Regex::repeat(body, 1, Some(n))),
        _ => Regex::repeat(body, min, max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use crate::parse;

    fn ast(p: &str) -> Regex {
        parse(p).expect("parse").regex
    }

    /// Checks ⟦a⟧ = ⟦b⟧ on all strings over `alpha` up to length `maxlen`.
    fn assert_equiv(a: &Regex, b: &Regex, alpha: &[u8], maxlen: usize) {
        let mut inputs: Vec<Vec<u8>> = vec![vec![]];
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
            inputs.extend(next.iter().cloned());
            frontier = next;
        }
        for w in &inputs {
            assert_eq!(
                naive::matches(a, w),
                naive::matches(b, w),
                "languages differ on {:?}\n  a = {a}\n  b = {b}",
                String::from_utf8_lossy(w),
            );
        }
    }

    #[test]
    fn unfolds_small_upper_bounds() {
        assert_eq!(simplify(&ast("a{0,1}")).to_string(), "a?");
        assert_eq!(simplify(&ast("a{1}")).to_string(), "a");
        assert_eq!(simplify(&ast("a{0,0}")), Regex::Empty);
        assert_eq!(simplify(&ast("a{0,}")).to_string(), "a*");
        assert_eq!(simplify(&ast("a{1,}")).to_string(), "a+");
        // Larger bounds are kept for the counter machinery.
        assert_eq!(simplify(&ast("a{2,5}")).to_string(), "a{2,5}");
    }

    #[test]
    fn merges_classes_in_alternations() {
        assert_eq!(simplify(&ast("a|b")).to_string(), "[ab]");
        assert_eq!(simplify(&ast("[a-c]|[x-z]")).to_string(), "[a-cx-z]");
        assert_eq!(simplify(&ast("a|bc|d")).to_string(), "[ad]|bc");
        // ε arms are absorbed by nullable siblings but otherwise kept.
        assert_eq!(simplify(&ast("a*|b|")).to_string(), "a*|b");
        assert_eq!(simplify(&ast("ab|")).to_string(), "(ab)?");
    }

    #[test]
    fn dedups_alt_arms() {
        assert_eq!(simplify(&ast("ab|ab|ab")).to_string(), "ab");
    }

    #[test]
    fn simplify_preserves_language() {
        for p in [
            "a{0,1}b{1}c{0,0}",
            "a|b|c|",
            "(a|b)*|c{1,}",
            "x(|y)z{0,}",
            "(a{0,2}){0,1}",
        ] {
            let r = ast(p);
            assert_equiv(&r, &simplify(&r), b"abcxyz", 4);
        }
    }

    #[test]
    fn nonnull_strips_epsilon() {
        let r = ast("a*");
        let nn = simplify(&nonnull(&r));
        assert!(!nn.nullable());
        assert_equiv(&nn, &ast("aa*"), b"ab", 4);

        let r = ast("(a|)(b|)");
        let nn = simplify(&nonnull(&r));
        assert!(!nn.nullable());
        // ⟦(a?)(b?)⟧ ∖ ε = {a, b, ab}
        assert!(naive::matches(&nn, b"a"));
        assert!(naive::matches(&nn, b"b"));
        assert!(naive::matches(&nn, b"ab"));
        assert!(!naive::matches(&nn, b""));
        assert!(!naive::matches(&nn, b"ba"));
    }

    #[test]
    fn nonnull_of_nullable_repeat() {
        let r = ast("(a?){2,3}");
        let nn = simplify(&nonnull(&r));
        assert!(!nn.nullable());
        for w in ["a", "aa", "aaa"] {
            assert!(naive::matches(&nn, w.as_bytes()), "{nn} should match {w}");
        }
        assert!(!naive::matches(&nn, b""));
        assert!(!naive::matches(&nn, b"aaaa"));
    }

    #[test]
    fn normalize_gives_nonnullable_bodies() {
        for p in [
            "(a?){3,5}",
            "(a|b?){2,4}",
            "((a?)(b?)){2,2}",
            "(a*){3}",
            "(a?){2,}",
            "(ab?){0,3}",
        ] {
            let r = ast(p);
            let n = normalize_for_nca(&r);
            for info in n.repeats() {
                assert!(
                    info.min >= 1 || info.max.is_none(),
                    "bad bounds in {n} for {p}"
                );
            }
            fn check_bodies(r: &Regex) {
                match r {
                    Regex::Repeat { inner, min, max } => {
                        assert!(!inner.nullable(), "nullable body survived: {r}");
                        assert!(*min >= 1, "min 0 survived: {r}");
                        if let Some(n) = max {
                            assert!(*n >= 2, "tiny bound survived: {r}");
                        }
                        // max = None with min == 1 is plain `+`: fine.
                        check_bodies(inner);
                    }
                    Regex::Concat(ps) | Regex::Alt(ps) => ps.iter().for_each(check_bodies),
                    Regex::Star(i) => check_bodies(i),
                    _ => {}
                }
            }
            check_bodies(&n);
            assert_equiv(&r, &n, b"ab", 5);
        }
    }

    #[test]
    fn normalize_preserves_plain_counting() {
        let r = ast("a(bc){2,7}d");
        assert_eq!(normalize_for_nca(&r), simplify(&r));
    }

    #[test]
    fn normalize_handles_void_bodies() {
        let void_rep = Regex::repeat(Regex::Void, 2, Some(5));
        assert_eq!(normalize_for_nca(&void_rep), Regex::Void);
        let void_rep0 = Regex::repeat(Regex::Void, 0, Some(5));
        assert_eq!(normalize_for_nca(&void_rep0), Regex::Empty);
        // A body that only matches ε.
        let eps_rep = Regex::repeat(Regex::opt(Regex::Void), 2, Some(5));
        assert_eq!(normalize_for_nca(&eps_rep), Regex::Empty);
    }
}
