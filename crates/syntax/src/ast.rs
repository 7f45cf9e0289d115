//! The abstract syntax of regular expressions with counting.
//!
//! The grammar follows §2 of the paper:
//! `r ::= ε | σ | r·r | r + r | r* | r{m,n}` with `σ ⊆ Σ` a byte predicate.
//! We additionally carry `∅` (the empty language, [`Regex::Void`]) because
//! the ε-stripping normalization of repetition bodies can produce it as an
//! intermediate, and the unbounded form `r{m,}` because it occurs throughout
//! the practical rulesets (it is *not* counted as bounded repetition by the
//! analysis; its NCA uses a saturating counter).

use crate::class::ByteClass;
use std::fmt;

/// A regular expression with counting over the byte alphabet.
///
/// # Examples
///
/// ```
/// use recama_syntax::{Regex, ByteClass};
///
/// // Σ* a{3,5}
/// let r = Regex::concat(vec![
///     Regex::star(Regex::any()),
///     Regex::repeat(Regex::byte(b'a'), 3, Some(5)),
/// ]);
/// assert!(r.has_counting());
/// assert_eq!(r.mu(), 5);
/// assert_eq!(r.to_string(), ".*a{3,5}");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Regex {
    /// ε — the language {""}.
    Empty,
    /// ∅ — the empty language. Never produced by the parser; arises only
    /// from rewriting and is eliminated by [`crate::simplify`](fn@crate::simplify).
    Void,
    /// A predicate σ ⊆ Σ (character class). Parser invariant: nonempty.
    Class(ByteClass),
    /// Concatenation r₁·r₂·…·rₖ.
    Concat(Vec<Regex>),
    /// Nondeterministic choice r₁ + r₂ + … + rₖ.
    Alt(Vec<Regex>),
    /// Kleene iteration r*.
    Star(Box<Regex>),
    /// Bounded repetition r{m,n} (`max = Some(n)`) or r{m,} (`max = None`).
    Repeat {
        /// The repeated subexpression.
        inner: Box<Regex>,
        /// Lower bound m.
        min: u32,
        /// Upper bound n; `None` encodes the unbounded `{m,}`.
        max: Option<u32>,
    },
}

/// Identifier of one occurrence of bounded repetition inside a regex:
/// the preorder index among `Repeat` nodes. Stable under cloning; the static
/// analysis and the compiler use it to refer to "the i-th `{m,n}`".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RepeatId(pub usize);

impl fmt::Display for RepeatId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Summary of one repetition occurrence, as enumerated by [`Regex::repeats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepeatInfo {
    /// Preorder identifier.
    pub id: RepeatId,
    /// Lower bound m.
    pub min: u32,
    /// Upper bound n (`None` for `{m,}`).
    pub max: Option<u32>,
    /// If the body is a single character class σ (the `σ{m,n}` shape that the
    /// hardware bit-vector module supports directly, §4.1), that class.
    pub single_class_body: Option<ByteClass>,
    /// Number of AST leaves (predicate occurrences) in the body.
    pub body_leaves: usize,
    /// Nesting depth: number of enclosing `Repeat` nodes.
    pub depth: usize,
}

impl Regex {
    /// The Σ predicate (`.` with `dot_matches_newline`).
    pub fn any() -> Regex {
        Regex::Class(ByteClass::ANY)
    }

    /// A single-byte literal.
    pub fn byte(b: u8) -> Regex {
        Regex::Class(ByteClass::singleton(b))
    }

    /// A character class atom.
    ///
    /// # Panics
    ///
    /// Panics if the class is empty; use [`Regex::Void`] for ∅.
    pub fn class(c: ByteClass) -> Regex {
        assert!(!c.is_empty(), "empty class atom; use Regex::Void");
        Regex::Class(c)
    }

    /// The literal string `s` (concatenation of its bytes).
    pub fn literal(s: &[u8]) -> Regex {
        match s.len() {
            0 => Regex::Empty,
            1 => Regex::byte(s[0]),
            _ => Regex::Concat(s.iter().map(|&b| Regex::byte(b)).collect()),
        }
    }

    /// Concatenation; flattens nested concatenations and drops ε factors.
    pub fn concat(parts: Vec<Regex>) -> Regex {
        let mut out = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Regex::Empty => {}
                Regex::Concat(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        if out.iter().any(|p| matches!(p, Regex::Void)) {
            return Regex::Void;
        }
        match out.len() {
            0 => Regex::Empty,
            1 => out.pop().expect("len checked"),
            _ => Regex::Concat(out),
        }
    }

    /// Alternation; flattens nested alternations and drops ∅ arms.
    pub fn alt(parts: Vec<Regex>) -> Regex {
        let mut out = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Regex::Void => {}
                Regex::Alt(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Regex::Void,
            1 => out.pop().expect("len checked"),
            _ => Regex::Alt(out),
        }
    }

    /// Kleene star r*.
    pub fn star(inner: Regex) -> Regex {
        match inner {
            Regex::Empty | Regex::Void => Regex::Empty,
            Regex::Star(i) => Regex::Star(i),
            other => Regex::Star(Box::new(other)),
        }
    }

    /// r? ≡ r + ε.
    pub fn opt(inner: Regex) -> Regex {
        match inner {
            Regex::Empty => Regex::Empty,
            Regex::Void => Regex::Empty,
            other if other.nullable() => other,
            other => Regex::Alt(vec![other, Regex::Empty]),
        }
    }

    /// r+, represented natively as `r{1,}` — plain iteration, *not* a
    /// counting occurrence (no counter is allocated for it; see
    /// [`Regex::repeats`]).
    pub fn plus(inner: Regex) -> Regex {
        match inner {
            Regex::Empty | Regex::Void => inner,
            other => Regex::Repeat {
                inner: Box::new(other),
                min: 1,
                max: None,
            },
        }
    }

    /// Whether a `{min,max}` pair is *plain iteration* (`{0,}` ≡ `*`,
    /// `{1,}` ≡ `+`) rather than a counting occurrence. Plain iteration
    /// needs no counter and is excluded from [`Regex::repeats`] and μ.
    pub fn is_plain_iteration(min: u32, max: Option<u32>) -> bool {
        max.is_none() && min <= 1
    }

    /// Bounded repetition r{min,max} (`max = None` for `{min,}`).
    ///
    /// # Panics
    ///
    /// Panics if `max < min`.
    pub fn repeat(inner: Regex, min: u32, max: Option<u32>) -> Regex {
        if let Some(n) = max {
            assert!(
                min <= n,
                "repetition bounds must satisfy m <= n, got {{{min},{n}}}"
            );
        }
        Regex::Repeat {
            inner: Box::new(inner),
            min,
            max,
        }
    }

    /// Whether ε ∈ ⟦r⟧.
    pub fn nullable(&self) -> bool {
        match self {
            Regex::Empty => true,
            Regex::Void => false,
            Regex::Class(_) => false,
            Regex::Concat(parts) => parts.iter().all(Regex::nullable),
            Regex::Alt(parts) => parts.iter().any(Regex::nullable),
            Regex::Star(_) => true,
            Regex::Repeat { inner, min, .. } => *min == 0 || inner.nullable(),
        }
    }

    /// Whether ⟦r⟧ = ∅.
    pub fn is_void(&self) -> bool {
        match self {
            Regex::Void => true,
            Regex::Empty | Regex::Class(_) | Regex::Star(_) => false,
            Regex::Concat(parts) => parts.iter().any(Regex::is_void),
            Regex::Alt(parts) => parts.iter().all(Regex::is_void),
            Regex::Repeat { inner, min, .. } => *min > 0 && inner.is_void(),
        }
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            Regex::Empty | Regex::Void | Regex::Class(_) => 1,
            Regex::Concat(parts) | Regex::Alt(parts) => {
                1 + parts.iter().map(Regex::size).sum::<usize>()
            }
            Regex::Star(inner) => 1 + inner.size(),
            Regex::Repeat { inner, .. } => 1 + inner.size(),
        }
    }

    /// Number of predicate leaves (Glushkov positions before unfolding).
    pub fn leaves(&self) -> usize {
        match self {
            Regex::Empty | Regex::Void => 0,
            Regex::Class(_) => 1,
            Regex::Concat(parts) | Regex::Alt(parts) => {
                parts.iter().map(Regex::leaves).sum::<usize>()
            }
            Regex::Star(inner) => inner.leaves(),
            Regex::Repeat { inner, .. } => inner.leaves(),
        }
    }

    /// Whether the regex contains at least one occurrence of *counting*
    /// (`{m,n}` or `{m,}` with m ≥ 2); plain `*`/`+` iteration is excluded.
    pub fn has_counting(&self) -> bool {
        match self {
            Regex::Empty | Regex::Void | Regex::Class(_) => false,
            Regex::Concat(parts) | Regex::Alt(parts) => parts.iter().any(Regex::has_counting),
            Regex::Star(inner) => inner.has_counting(),
            Regex::Repeat { inner, min, max } => {
                !Self::is_plain_iteration(*min, *max) || inner.has_counting()
            }
        }
    }

    /// μ(r): the maximum repetition upper bound over all occurrences of
    /// `{m,n}` (§3.3, "measure of complexity"). Unbounded occurrences
    /// contribute their lower bound. 0 when there is no counting.
    pub fn mu(&self) -> u32 {
        match self {
            Regex::Empty | Regex::Void | Regex::Class(_) => 0,
            Regex::Concat(parts) | Regex::Alt(parts) => {
                parts.iter().map(Regex::mu).max().unwrap_or(0)
            }
            Regex::Star(inner) => inner.mu(),
            Regex::Repeat { inner, min, max } => {
                if Self::is_plain_iteration(*min, *max) {
                    inner.mu()
                } else {
                    max.unwrap_or(*min).max(inner.mu())
                }
            }
        }
    }

    /// Enumerates all *counting* occurrences in preorder (plain `*`/`+`
    /// iteration excluded).
    pub fn repeats(&self) -> Vec<RepeatInfo> {
        let mut out = Vec::new();
        fn walk(r: &Regex, depth: usize, out: &mut Vec<RepeatInfo>) {
            match r {
                Regex::Empty | Regex::Void | Regex::Class(_) => {}
                Regex::Concat(parts) | Regex::Alt(parts) => {
                    for p in parts {
                        walk(p, depth, out);
                    }
                }
                Regex::Star(inner) => walk(inner, depth, out),
                Regex::Repeat { inner, min, max } => {
                    if Regex::is_plain_iteration(*min, *max) {
                        walk(inner, depth, out);
                    } else {
                        out.push(RepeatInfo {
                            id: RepeatId(out.len()),
                            min: *min,
                            max: *max,
                            single_class_body: match inner.as_ref() {
                                Regex::Class(c) => Some(*c),
                                _ => None,
                            },
                            body_leaves: inner.leaves(),
                            depth,
                        });
                        walk(inner, depth + 1, out);
                    }
                }
            }
        }
        walk(self, 0, &mut out);
        out
    }

    /// Rebuilds the regex with every counting occurrence replaced by what
    /// `f(id, body, min, max)` returns — the one walk behind each per-
    /// occurrence rewrite: the §3.2 relaxation to `body*`, the unfolding
    /// of the exact per-occurrence check, the Fig. 9 threshold and the
    /// compiler's fallback. Occurrences are numbered in preorder, as by
    /// [`Regex::repeats`] — the numbering the Glushkov construction gives
    /// its counters, so counter `k` of the automaton is occurrence `k`.
    /// `body` is already rewritten, so `f` sees a nested occurrence before
    /// the one around it, and each keeps its preorder number whatever `f`
    /// made of the other. Plain `*`/`+` iteration is not an occurrence and
    /// is kept as written.
    pub fn rewrite_repeats(
        &self,
        f: &mut impl FnMut(RepeatId, Regex, u32, Option<u32>) -> Regex,
    ) -> Regex {
        fn walk(
            r: &Regex,
            next: &mut usize,
            f: &mut impl FnMut(RepeatId, Regex, u32, Option<u32>) -> Regex,
        ) -> Regex {
            match r {
                Regex::Empty | Regex::Void | Regex::Class(_) => r.clone(),
                Regex::Concat(parts) => {
                    Regex::concat(parts.iter().map(|p| walk(p, next, f)).collect())
                }
                Regex::Alt(parts) => Regex::alt(parts.iter().map(|p| walk(p, next, f)).collect()),
                Regex::Star(inner) => Regex::star(walk(inner, next, f)),
                Regex::Repeat { inner, min, max } if Regex::is_plain_iteration(*min, *max) => {
                    Regex::repeat(walk(inner, next, f), *min, *max)
                }
                Regex::Repeat { inner, min, max } => {
                    let id = RepeatId(*next);
                    *next += 1;
                    let body = walk(inner, next, f);
                    f(id, body, *min, *max)
                }
            }
        }
        let mut next = 0;
        walk(self, &mut next, f)
    }

    fn precedence(&self) -> u8 {
        match self {
            // Alt[r, ε] prints as `r?`, which binds like a postfix operator.
            Regex::Alt(parts) if parts.len() == 2 && parts[1] == Regex::Empty => 2,
            Regex::Alt(_) => 0,
            Regex::Concat(_) => 1,
            Regex::Star(_) | Regex::Repeat { .. } => 2,
            Regex::Empty | Regex::Void | Regex::Class(_) => 3,
        }
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, min_prec: u8) -> fmt::Result {
        let paren = self.precedence() < min_prec;
        if paren {
            write!(f, "(")?;
        }
        match self {
            Regex::Empty => write!(f, "()")?,
            Regex::Void => write!(f, "[]")?,
            Regex::Class(c) => write!(f, "{c}")?,
            Regex::Concat(parts) => {
                for p in parts {
                    p.fmt_prec(f, 2)?;
                }
            }
            Regex::Alt(parts) => {
                // r? prints as `r?` when it is literally Alt[r, ε].
                if parts.len() == 2 && parts[1] == Regex::Empty {
                    parts[0].fmt_prec(f, 3)?;
                    write!(f, "?")?;
                } else {
                    for (i, p) in parts.iter().enumerate() {
                        if i > 0 {
                            write!(f, "|")?;
                        }
                        p.fmt_prec(f, 1)?;
                    }
                }
            }
            Regex::Star(inner) => {
                inner.fmt_prec(f, 3)?;
                write!(f, "*")?;
            }
            Regex::Repeat { inner, min, max } => {
                inner.fmt_prec(f, 3)?;
                match (min, max) {
                    (0, None) => write!(f, "*")?,
                    (1, None) => write!(f, "+")?,
                    (_, None) => write!(f, "{{{min},}}")?,
                    (_, Some(n)) if n == min => write!(f, "{{{min}}}")?,
                    (_, Some(n)) => write!(f, "{{{min},{n}}}")?,
                }
            }
        }
        if paren {
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// Prints in POSIX-style concrete syntax, reparseable by [`crate::parse`].
impl fmt::Display for Regex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

impl fmt::Debug for Regex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Regex({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> Regex {
        Regex::byte(b'a')
    }
    fn b() -> Regex {
        Regex::byte(b'b')
    }

    #[test]
    fn constructors_flatten() {
        let c = Regex::concat(vec![a(), Regex::concat(vec![b(), a()]), Regex::Empty]);
        assert_eq!(c.to_string(), "aba");
        let al = Regex::alt(vec![a(), Regex::alt(vec![b()]), Regex::Void]);
        assert_eq!(al.to_string(), "a|b");
        assert_eq!(Regex::concat(vec![]), Regex::Empty);
        assert_eq!(Regex::alt(vec![]), Regex::Void);
        assert_eq!(Regex::concat(vec![a(), Regex::Void]), Regex::Void);
    }

    #[test]
    fn star_normalizes() {
        assert_eq!(Regex::star(Regex::Empty), Regex::Empty);
        assert_eq!(Regex::star(Regex::Void), Regex::Empty);
        assert_eq!(Regex::star(Regex::star(a())).to_string(), "a*");
    }

    #[test]
    fn nullable() {
        assert!(Regex::Empty.nullable());
        assert!(!Regex::Void.nullable());
        assert!(!a().nullable());
        assert!(Regex::star(a()).nullable());
        assert!(Regex::opt(a()).nullable());
        assert!(!Regex::plus(a()).nullable());
        assert!(Regex::repeat(a(), 0, Some(3)).nullable());
        assert!(!Regex::repeat(a(), 1, Some(3)).nullable());
        assert!(Regex::repeat(Regex::opt(a()), 5, Some(5)).nullable());
    }

    #[test]
    fn is_void() {
        assert!(Regex::Void.is_void());
        assert!(Regex::concat(vec![a(), Regex::Void]).is_void());
        assert!(!Regex::alt(vec![a(), Regex::Void]).is_void());
        assert!(Regex::Repeat {
            inner: Box::new(Regex::Void),
            min: 2,
            max: Some(3)
        }
        .is_void());
        assert!(!Regex::Repeat {
            inner: Box::new(Regex::Void),
            min: 0,
            max: Some(3)
        }
        .is_void());
    }

    #[test]
    fn mu_and_counting() {
        let r = Regex::concat(vec![
            Regex::repeat(a(), 1, Some(5)),
            b(),
            Regex::repeat(b(), 4, Some(4)),
        ]);
        assert_eq!(r.mu(), 5);
        assert!(r.has_counting());
        assert!(!Regex::star(a()).has_counting());
        assert_eq!(Regex::star(a()).mu(), 0);
        // Nested: mu is the max across nesting levels.
        let nested = Regex::repeat(Regex::repeat(a(), 2, Some(9)), 1, Some(3));
        assert_eq!(nested.mu(), 9);
    }

    #[test]
    fn repeats_enumeration() {
        // (a{2,3} b){4} with a nested occurrence; preorder: outer {4} first.
        let r = Regex::repeat(
            Regex::concat(vec![Regex::repeat(a(), 2, Some(3)), b()]),
            4,
            Some(4),
        );
        let reps = r.repeats();
        assert_eq!(reps.len(), 2);
        assert_eq!(reps[0].id, RepeatId(0));
        assert_eq!((reps[0].min, reps[0].max), (4, Some(4)));
        assert_eq!(reps[0].depth, 0);
        assert_eq!((reps[1].min, reps[1].max), (2, Some(3)));
        assert_eq!(reps[1].depth, 1);
        assert_eq!(reps[1].single_class_body, Some(ByteClass::singleton(b'a')));
        assert_eq!(reps[0].single_class_body, None);
        assert_eq!(reps[0].body_leaves, 2);
    }

    /// Keeps occurrence `keep` and relaxes every other one to `body*`.
    fn relax_all_but(r: &Regex, keep: RepeatId) -> Regex {
        r.rewrite_repeats(&mut |id, body, min, max| {
            if id == keep {
                Regex::repeat(body, min, max)
            } else {
                Regex::star(body)
            }
        })
    }

    #[test]
    fn rewrite_repeats_relaxes_by_id() {
        let r = Regex::concat(vec![
            Regex::repeat(a(), 2, Some(3)),
            Regex::repeat(b(), 1, Some(9)),
        ]);
        // Relax occurrence #1 (the b{1,9}) to b*.
        assert_eq!(relax_all_but(&r, RepeatId(0)).to_string(), "a{2,3}b*");
    }

    #[test]
    fn rewrite_repeats_keeps_nested_numbering() {
        // ((a{2,3}){4,5}): outer is #0, inner is #1.
        let r = Regex::repeat(Regex::repeat(a(), 2, Some(3)), 4, Some(5));
        // Relax only the outer; the inner keeps counting.
        assert_eq!(relax_all_but(&r, RepeatId(1)).to_string(), "(a{2,3})*");
        // Relax only the inner.
        assert_eq!(relax_all_but(&r, RepeatId(0)).to_string(), "(a*){4,5}");
        // The inner body is rewritten before its parent is asked.
        let mut seen = Vec::new();
        r.rewrite_repeats(&mut |id, body, min, max| {
            seen.push((id, body.to_string()));
            Regex::repeat(body, min, max)
        });
        assert_eq!(
            seen,
            [(RepeatId(1), "a".into()), (RepeatId(0), "a{2,3}".into())]
        );
    }

    #[test]
    fn plus_is_not_counting() {
        let p = Regex::plus(a());
        assert!(!p.has_counting());
        assert_eq!(p.mu(), 0);
        assert!(p.repeats().is_empty());
        // {2,} is counting though.
        let r = Regex::repeat(a(), 2, None);
        assert!(r.has_counting());
        assert_eq!(r.mu(), 2);
        assert_eq!(r.repeats().len(), 1);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Regex::repeat(a(), 3, Some(3)).to_string(), "a{3}");
        assert_eq!(Regex::repeat(a(), 3, None).to_string(), "a{3,}");
        assert_eq!(Regex::opt(a()).to_string(), "a?");
        assert_eq!(Regex::plus(a()).to_string(), "a+");
        let alt_in_concat = Regex::concat(vec![Regex::alt(vec![a(), b()]), a()]);
        assert_eq!(alt_in_concat.to_string(), "(a|b)a");
        let star_of_alt = Regex::star(Regex::alt(vec![a(), b()]));
        assert_eq!(star_of_alt.to_string(), "(a|b)*");
        let rep_of_concat = Regex::repeat(Regex::literal(b"ab"), 2, Some(4));
        assert_eq!(rep_of_concat.to_string(), "(ab){2,4}");
    }

    #[test]
    fn sizes() {
        let r = Regex::concat(vec![a(), b(), Regex::star(a())]);
        assert_eq!(r.leaves(), 3);
        assert_eq!(r.size(), 5);
        assert_eq!(Regex::Empty.leaves(), 0);
    }
}

impl Regex {
    /// The reversal rᴿ: ⟦rᴿ⟧ = { reverse(w) | w ∈ ⟦r⟧ }. Counting bounds
    /// are preserved (reversal distributes through repetition). Used to
    /// locate match *starts* by running the reversed automaton backward
    /// from a match end.
    pub fn reverse(&self) -> Regex {
        match self {
            Regex::Empty | Regex::Void | Regex::Class(_) => self.clone(),
            Regex::Concat(parts) => Regex::Concat(parts.iter().rev().map(Regex::reverse).collect()),
            Regex::Alt(parts) => Regex::Alt(parts.iter().map(Regex::reverse).collect()),
            Regex::Star(inner) => Regex::Star(Box::new(inner.reverse())),
            Regex::Repeat { inner, min, max } => Regex::Repeat {
                inner: Box::new(inner.reverse()),
                min: *min,
                max: *max,
            },
        }
    }
}

#[cfg(test)]
mod reverse_tests {
    use super::*;

    #[test]
    fn reversal_shapes() {
        let r = Regex::concat(vec![
            Regex::byte(b'a'),
            Regex::repeat(Regex::literal(b"bc"), 2, Some(4)),
            Regex::byte(b'd'),
        ]);
        assert_eq!(r.reverse().to_string(), "d(cb){2,4}a");
        assert_eq!(r.reverse().reverse(), r);
    }

    #[test]
    fn reversal_preserves_language_reversed() {
        let r = crate::parse("a(b|cd){1,2}e").unwrap().regex;
        let rev = r.reverse();
        for w in ["abe", "acde", "abcde", "acdbe"] {
            let mut back: Vec<u8> = w.bytes().collect();
            back.reverse();
            assert_eq!(
                crate::naive::matches(&r, w.as_bytes()),
                crate::naive::matches(&rev, &back),
                "{w}"
            );
        }
    }
}
