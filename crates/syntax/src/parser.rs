//! POSIX/PCRE-style concrete syntax for regexes with counting.
//!
//! The parser accepts the subset of PCRE used by the paper's rulesets
//! (Snort, Suricata, Protomata, SpamAssassin, ClamAV): literals, escapes,
//! character classes (including POSIX named classes), `.`, grouping,
//! alternation, `* + ?`, bounded repetition `{m}`, `{m,}`, `{m,n}`, edge
//! anchors `^`/`$`, and the inline flags `(?i)`/`(?s)`.
//!
//! Constructs that fall outside regular languages or outside the paper's
//! supported fragment (backreferences, lookaround, word boundaries, …)
//! produce [`ErrorKind::Unsupported`]; Table 1's "# supported" column counts
//! exactly the patterns that parse without this error.

use crate::ast::Regex;
use crate::class::ByteClass;
use std::fmt;

/// Maximum accepted repetition bound; larger bounds are rejected to keep the
/// analyses' token spaces within memory (the AP hardware similarly treats
/// huge bounds as unbounded [paper §5]).
pub(crate) const MAX_REPEAT_BOUND: u32 = 1 << 20;

/// What made a pattern unsupported (non-regular or out of fragment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unsupported {
    /// `\1`…`\9` — can describe non-regular languages.
    Backreference,
    /// `(?=…)`, `(?!…)`, `(?<=…)`, `(?<!…)`.
    Lookaround,
    /// `\b`, `\B` word boundaries.
    WordBoundary,
    /// `^`/`$` in a position other than the pattern edges, or `(?m)`.
    InnerAnchor,
    /// `(?>…)` atomic groups, `\K`, and other PCRE control escapes.
    OtherPcre,
}

impl fmt::Display for Unsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Unsupported::Backreference => "backreference",
            Unsupported::Lookaround => "lookaround assertion",
            Unsupported::WordBoundary => "word-boundary assertion",
            Unsupported::InnerAnchor => "non-edge anchor",
            Unsupported::OtherPcre => "unsupported PCRE construct",
        };
        f.write_str(s)
    }
}

/// The reason a pattern failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorKind {
    /// Syntactically malformed pattern.
    Syntax(String),
    /// Well-formed PCRE that is outside the supported regular fragment.
    Unsupported(Unsupported),
    /// `{m,n}` with n < m.
    InvertedRepeatBounds {
        /// Lower bound m.
        min: u32,
        /// Upper bound n (< m).
        max: u32,
    },
    /// Repetition bound larger than 2^20, the largest bound the analyses'
    /// token spaces are sized for.
    RepeatBoundTooLarge(u64),
}

/// Parse error with byte offset into the pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset at which the error was detected.
    pub offset: usize,
    /// Classification of the failure.
    pub kind: ErrorKind,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ErrorKind::Syntax(msg) => write!(f, "syntax error at byte {}: {}", self.offset, msg),
            ErrorKind::Unsupported(u) => {
                write!(f, "unsupported construct at byte {}: {}", self.offset, u)
            }
            ErrorKind::InvertedRepeatBounds { min, max } => {
                write!(
                    f,
                    "inverted repetition bounds {{{min},{max}}} at byte {}",
                    self.offset
                )
            }
            ErrorKind::RepeatBoundTooLarge(n) => {
                write!(
                    f,
                    "repetition bound {n} at byte {} exceeds {}",
                    self.offset, MAX_REPEAT_BOUND
                )
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Result of parsing: the counting-regex AST plus edge-anchor information.
///
/// The AST itself never contains anchors; `^`/`$` at the pattern edges are
/// reported here so callers choose the match discipline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parsed {
    /// The parsed expression.
    pub regex: Regex,
    /// Pattern began with `^`.
    pub anchored_start: bool,
    /// Pattern ended with `$`.
    pub anchored_end: bool,
}

impl Parsed {
    /// The streaming form `Σ*·r` used by automata processors: a report fires
    /// whenever a *prefix* of the input ends with a match. A leading `^`
    /// suppresses the implicit `Σ*`.
    pub fn for_stream(&self) -> Regex {
        if self.anchored_start {
            self.regex.clone()
        } else {
            Regex::concat(vec![Regex::star(Regex::any()), self.regex.clone()])
        }
    }
}

/// Parses a pattern. `.` matches every byte, `\n` included (the paper
/// equates `.*` with `Σ*`); `(?i)` turns on case folding.
///
/// # Errors
///
/// Returns [`ParseError`] for malformed patterns and for well-formed PCRE
/// outside the supported regular fragment (see [`ErrorKind`]).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), recama_syntax::ParseError> {
/// let p = recama_syntax::parse(r"a[bc]{3,5}d")?;
/// assert_eq!(p.regex.to_string(), "a[bc]{3,5}d");
/// assert!(!p.anchored_start);
/// # Ok(())
/// # }
/// ```
pub fn parse(pattern: &str) -> Result<Parsed, ParseError> {
    let mut p = Parser {
        input: pattern.as_bytes(),
        pos: 0,
        ci: false,
        saw_end_anchor: false,
    };
    let anchored_start = p.eat(b'^');
    let regex = p.parse_alt(true)?;
    // `$` is consumed by parse_alt at top level; anything left is an error.
    if p.pos < p.input.len() {
        return Err(p.err_here(ErrorKind::Syntax(format!(
            "unexpected `{}`",
            p.input[p.pos] as char
        ))));
    }
    Ok(Parsed {
        regex,
        anchored_start,
        anchored_end: p.saw_end_anchor,
    })
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    ci: bool,
    /// Set when the top level consumed a final `$`.
    saw_end_anchor: bool,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn err_here(&self, kind: ErrorKind) -> ParseError {
        ParseError {
            offset: self.pos.min(self.input.len()),
            kind,
        }
    }

    fn err_at(&self, offset: usize, kind: ErrorKind) -> ParseError {
        ParseError { offset, kind }
    }
}

impl<'a> Parser<'a> {
    fn parse_alt(&mut self, top: bool) -> Result<Regex, ParseError> {
        let mut arms = vec![self.parse_seq(top)?];
        while self.eat(b'|') {
            arms.push(self.parse_seq(top)?);
        }
        Ok(Regex::alt(arms))
    }

    fn parse_seq(&mut self, top: bool) -> Result<Regex, ParseError> {
        let mut parts: Vec<Regex> = Vec::new();
        loop {
            match self.peek() {
                None | Some(b'|') => break,
                Some(b')') if !top => break,
                Some(b')') => return Err(self.err_here(ErrorKind::Syntax("unmatched `)`".into()))),
                Some(b'$') => {
                    // Only valid as the last token of the whole pattern or of
                    // a top-level alternative ending the pattern.
                    let at = self.pos;
                    self.pos += 1;
                    let end_of_pattern = self.pos == self.input.len();
                    if top && end_of_pattern {
                        self.saw_end_anchor = true;
                        break;
                    }
                    return Err(self.err_at(at, ErrorKind::Unsupported(Unsupported::InnerAnchor)));
                }
                Some(b'^') => {
                    return Err(self.err_here(ErrorKind::Unsupported(Unsupported::InnerAnchor)))
                }
                _ => {
                    let atom = self.parse_atom()?;
                    let atom = self.parse_postfix(atom)?;
                    parts.push(atom);
                }
            }
        }
        Ok(Regex::concat(parts))
    }

    fn parse_postfix(&mut self, mut atom: Regex) -> Result<Regex, ParseError> {
        loop {
            match self.peek() {
                Some(b'*') => {
                    self.pos += 1;
                    self.skip_quantifier_mode();
                    atom = Regex::star(atom);
                }
                Some(b'+') => {
                    self.pos += 1;
                    self.skip_quantifier_mode();
                    atom = Regex::plus(atom);
                }
                Some(b'?') => {
                    self.pos += 1;
                    self.skip_quantifier_mode();
                    atom = Regex::opt(atom);
                }
                Some(b'{') => {
                    let start = self.pos;
                    match self.try_parse_bounds()? {
                        Some((min, max)) => {
                            self.skip_quantifier_mode();
                            if let Some(n) = max {
                                if n < min {
                                    return Err(self.err_at(
                                        start,
                                        ErrorKind::InvertedRepeatBounds { min, max: n },
                                    ));
                                }
                            }
                            atom = Regex::repeat(atom, min, max);
                        }
                        None => break, // literal `{`, handled by caller as atom
                    }
                }
                _ => break,
            }
        }
        Ok(atom)
    }

    /// After `* + ? {..}`, PCRE allows a lazy `?` or possessive `+` mode
    /// suffix. Laziness/possessiveness changes which match is preferred, not
    /// the language, so we accept and ignore it.
    fn skip_quantifier_mode(&mut self) {
        if let Some(b'?' | b'+') = self.peek() {
            self.pos += 1;
        }
    }

    /// Parses `{m}`, `{m,}`, `{m,n}` starting at `{`; returns `None` (and
    /// rewinds) when the braces do not form a quantifier, in which case `{`
    /// is a literal, matching PCRE.
    fn try_parse_bounds(&mut self) -> Result<Option<(u32, Option<u32>)>, ParseError> {
        let save = self.pos;
        debug_assert_eq!(self.peek(), Some(b'{'));
        self.pos += 1;
        let min = match self.parse_number()? {
            Some(n) => n,
            None => {
                self.pos = save;
                return Ok(None);
            }
        };
        if self.eat(b'}') {
            return Ok(Some((min, Some(min))));
        }
        if !self.eat(b',') {
            self.pos = save;
            return Ok(None);
        }
        if self.eat(b'}') {
            return Ok(Some((min, None)));
        }
        let max = match self.parse_number()? {
            Some(n) => n,
            None => {
                self.pos = save;
                return Ok(None);
            }
        };
        if !self.eat(b'}') {
            self.pos = save;
            return Ok(None);
        }
        Ok(Some((min, Some(max))))
    }

    fn parse_number(&mut self) -> Result<Option<u32>, ParseError> {
        let start = self.pos;
        let mut val: u64 = 0;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            val = val * 10 + u64::from(b - b'0');
            if val > u64::from(MAX_REPEAT_BOUND) {
                // Consume remaining digits for a clean offset, then error.
                while let Some(b'0'..=b'9') = self.peek() {
                    self.pos += 1;
                }
                return Err(self.err_at(start, ErrorKind::RepeatBoundTooLarge(val)));
            }
            self.pos += 1;
        }
        if self.pos == start {
            Ok(None)
        } else {
            Ok(Some(val as u32))
        }
    }

    fn parse_atom(&mut self) -> Result<Regex, ParseError> {
        let at = self.pos;
        let b = self.bump().expect("caller checked non-empty");
        match b {
            b'.' => Ok(Regex::Class(ByteClass::ANY)),
            b'(' => self.parse_group(at),
            b'[' => {
                let c = self.parse_class(at)?;
                if c.is_empty() {
                    return Err(self.err_at(at, ErrorKind::Syntax("empty character class".into())));
                }
                Ok(Regex::Class(self.fold(c)))
            }
            b'\\' => self.parse_escape(at).map(|c| Regex::Class(self.fold(c))),
            b'*' | b'+' | b'?' => Err(self.err_at(
                at,
                ErrorKind::Syntax(format!("quantifier `{}` with nothing to repeat", b as char)),
            )),
            b'{' => {
                // A `{` that begins a valid quantifier here has nothing to
                // repeat; otherwise it is a literal.
                self.pos = at;
                if self.try_parse_bounds()?.is_some() {
                    return Err(self.err_at(
                        at,
                        ErrorKind::Syntax("quantifier `{` with nothing to repeat".into()),
                    ));
                }
                self.pos = at + 1;
                Ok(Regex::Class(self.fold(ByteClass::singleton(b'{'))))
            }
            other => Ok(Regex::Class(self.fold(ByteClass::singleton(other)))),
        }
    }

    fn fold(&self, c: ByteClass) -> ByteClass {
        if self.ci {
            c.case_fold()
        } else {
            c
        }
    }

    fn parse_group(&mut self, at: usize) -> Result<Regex, ParseError> {
        let saved_ci = self.ci;
        if self.eat(b'?') {
            match self.peek() {
                Some(b':') => {
                    self.pos += 1;
                }
                Some(b'=') | Some(b'!') => {
                    return Err(self.err_at(at, ErrorKind::Unsupported(Unsupported::Lookaround)))
                }
                Some(b'<') => {
                    // (?<=, (?<! lookbehind; (?<name> named group.
                    match self.input.get(self.pos + 1) {
                        Some(b'=') | Some(b'!') => {
                            return Err(
                                self.err_at(at, ErrorKind::Unsupported(Unsupported::Lookaround))
                            )
                        }
                        _ => {
                            // Named group: skip to `>`.
                            while let Some(b) = self.bump() {
                                if b == b'>' {
                                    break;
                                }
                            }
                        }
                    }
                }
                Some(b'P') => {
                    // (?P<name>…) — python-style named group.
                    self.pos += 1;
                    if self.eat(b'<') {
                        while let Some(b) = self.bump() {
                            if b == b'>' {
                                break;
                            }
                        }
                    } else {
                        return Err(self.err_at(at, ErrorKind::Unsupported(Unsupported::OtherPcre)));
                    }
                }
                Some(b'>') => {
                    return Err(self.err_at(at, ErrorKind::Unsupported(Unsupported::OtherPcre)))
                }
                _ => {
                    // Inline flags: (?i), (?s), (?is), (?i:…).
                    let mut closed = false;
                    while let Some(f) = self.peek() {
                        match f {
                            b'i' => {
                                self.ci = true;
                                self.pos += 1;
                            }
                            b's' => {
                                self.pos += 1; // `.` already Σ by default
                            }
                            b'x' => {
                                self.pos += 1; // extended mode: no-op for our inputs
                            }
                            b'm' => {
                                return Err(self
                                    .err_at(at, ErrorKind::Unsupported(Unsupported::InnerAnchor)))
                            }
                            b')' => {
                                self.pos += 1;
                                closed = true;
                                break;
                            }
                            b':' => {
                                self.pos += 1;
                                break;
                            }
                            _ => {
                                return Err(
                                    self.err_at(at, ErrorKind::Unsupported(Unsupported::OtherPcre))
                                )
                            }
                        }
                    }
                    if closed {
                        // Flag-setting group `(?i)`: applies to the rest of
                        // the enclosing expression; return ε.
                        return Ok(Regex::Empty);
                    }
                }
            }
        }
        let inner = self.parse_alt(false)?;
        if !self.eat(b')') {
            return Err(self.err_at(at, ErrorKind::Syntax("unclosed group".into())));
        }
        self.ci = saved_ci;
        Ok(inner)
    }

    fn parse_escape(&mut self, at: usize) -> Result<ByteClass, ParseError> {
        let b = self
            .bump()
            .ok_or_else(|| self.err_at(at, ErrorKind::Syntax("dangling `\\`".into())))?;
        match b {
            b'd' => Ok(ByteClass::digit()),
            b'D' => Ok(ByteClass::digit().complement()),
            b'w' => Ok(ByteClass::word()),
            b'W' => Ok(ByteClass::word().complement()),
            b's' => Ok(ByteClass::space()),
            b'S' => Ok(ByteClass::space().complement()),
            b'n' => Ok(ByteClass::singleton(b'\n')),
            b'r' => Ok(ByteClass::singleton(b'\r')),
            b't' => Ok(ByteClass::singleton(b'\t')),
            b'f' => Ok(ByteClass::singleton(0x0c)),
            b'v' => Ok(ByteClass::singleton(0x0b)),
            b'a' => Ok(ByteClass::singleton(0x07)),
            b'e' => Ok(ByteClass::singleton(0x1b)),
            b'0' => Ok(ByteClass::singleton(0)),
            b'x' => {
                let mut hex = String::new();
                if self.eat(b'{') {
                    while let Some(h) = self.peek() {
                        if h == b'}' {
                            break;
                        }
                        hex.push(h as char);
                        self.pos += 1;
                    }
                    if !self.eat(b'}') {
                        return Err(self.err_at(at, ErrorKind::Syntax("unclosed \\x{..}".into())));
                    }
                } else {
                    for _ in 0..2 {
                        if let Some(h) = self.peek() {
                            if h.is_ascii_hexdigit() {
                                hex.push(h as char);
                                self.pos += 1;
                            }
                        }
                    }
                }
                let v = u32::from_str_radix(&hex, 16)
                    .map_err(|_| self.err_at(at, ErrorKind::Syntax("bad hex escape".into())))?;
                if v > 0xff {
                    return Err(self.err_at(
                        at,
                        ErrorKind::Syntax("non-byte codepoint in \\x{..}".into()),
                    ));
                }
                Ok(ByteClass::singleton(v as u8))
            }
            b'1'..=b'9' => Err(self.err_at(at, ErrorKind::Unsupported(Unsupported::Backreference))),
            b'b' | b'B' => Err(self.err_at(at, ErrorKind::Unsupported(Unsupported::WordBoundary))),
            b'A' | b'z' | b'Z' | b'G' | b'K' => {
                Err(self.err_at(at, ErrorKind::Unsupported(Unsupported::OtherPcre)))
            }
            other => Ok(ByteClass::singleton(other)),
        }
    }

    fn parse_class(&mut self, at: usize) -> Result<ByteClass, ParseError> {
        let negated = self.eat(b'^');
        let mut class = ByteClass::new();
        let mut first = true;
        loop {
            let b = self
                .bump()
                .ok_or_else(|| self.err_at(at, ErrorKind::Syntax("unclosed `[`".into())))?;
            if b == b']' && !first {
                break;
            }
            first = false;
            // POSIX named class [:name:].
            if b == b'[' && self.peek() == Some(b':') {
                let start = self.pos;
                self.pos += 1;
                let mut name = String::new();
                while let Some(c) = self.peek() {
                    if c == b':' {
                        break;
                    }
                    name.push(c as char);
                    self.pos += 1;
                }
                if self.eat(b':') && self.eat(b']') {
                    class = class.union(&named_class(&name).ok_or_else(|| {
                        self.err_at(
                            start,
                            ErrorKind::Syntax(format!("unknown class [:{name}:]")),
                        )
                    })?);
                    continue;
                }
                self.pos = start;
            }
            let lo_class = if b == b'\\' {
                self.parse_escape(self.pos - 1)?
            } else {
                ByteClass::singleton(b)
            };
            // Range `x-y` only when the left side was a single byte.
            if lo_class.len() == 1 && self.peek() == Some(b'-') {
                match self.input.get(self.pos + 1) {
                    Some(b']') | None => {
                        class = class.union(&lo_class);
                        // `-` literal before `]`.
                        continue;
                    }
                    Some(&hi_b) => {
                        self.pos += 1; // consume '-'
                        let hi_at = self.pos;
                        let hi_byte = self.bump().expect("peeked");
                        let hi_class = if hi_byte == b'\\' {
                            self.parse_escape(hi_at)?
                        } else {
                            ByteClass::singleton(hi_byte)
                        };
                        if hi_class.len() != 1 {
                            return Err(self.err_at(
                                hi_at,
                                ErrorKind::Syntax("class range with multi-byte endpoint".into()),
                            ));
                        }
                        let lo = lo_class.min_byte().expect("len 1");
                        let hi = hi_class.min_byte().expect("len 1");
                        if hi < lo {
                            return Err(self.err_at(
                                hi_at,
                                ErrorKind::Syntax(format!(
                                    "inverted class range {}-{}",
                                    lo as char, hi as char
                                )),
                            ));
                        }
                        class = class.union(&ByteClass::range(lo, hi));
                        let _ = hi_b;
                        continue;
                    }
                }
            }
            class = class.union(&lo_class);
        }
        Ok(if negated { class.complement() } else { class })
    }
}

fn named_class(name: &str) -> Option<ByteClass> {
    Some(match name {
        "alpha" => ByteClass::range(b'a', b'z').union(&ByteClass::range(b'A', b'Z')),
        "digit" => ByteClass::digit(),
        "alnum" => ByteClass::range(b'a', b'z')
            .union(&ByteClass::range(b'A', b'Z'))
            .union(&ByteClass::digit()),
        "upper" => ByteClass::range(b'A', b'Z'),
        "lower" => ByteClass::range(b'a', b'z'),
        "space" => ByteClass::space(),
        "punct" => {
            let mut c = ByteClass::new();
            for b in 0x21..=0x7eu8 {
                if !b.is_ascii_alphanumeric() {
                    c.insert(b);
                }
            }
            c
        }
        "xdigit" => ByteClass::digit()
            .union(&ByteClass::range(b'a', b'f'))
            .union(&ByteClass::range(b'A', b'F')),
        "print" => ByteClass::range(0x20, 0x7e),
        "graph" => ByteClass::range(0x21, 0x7e),
        "cntrl" => ByteClass::range(0, 0x1f).union(&ByteClass::singleton(0x7f)),
        "blank" => ByteClass::from_bytes(b" \t"),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ast(p: &str) -> Regex {
        parse(p).expect("parse").regex
    }

    #[test]
    fn literals_and_concat() {
        assert_eq!(ast("abc").to_string(), "abc");
        assert_eq!(ast(""), Regex::Empty);
        assert_eq!(ast("a"), Regex::byte(b'a'));
    }

    #[test]
    fn alternation_and_groups() {
        assert_eq!(ast("a|b|c").to_string(), "a|b|c");
        assert_eq!(ast("(ab)|c").to_string(), "ab|c");
        assert_eq!(ast("(?:ab)c").to_string(), "abc");
        assert_eq!(ast("a(b|)c").to_string(), "ab?c");
        assert_eq!(ast("(?<name>ab)").to_string(), "ab");
        assert_eq!(ast("(?P<name>ab)").to_string(), "ab");
    }

    #[test]
    fn quantifiers() {
        assert_eq!(ast("a*").to_string(), "a*");
        assert_eq!(ast("a+").to_string(), "a+");
        assert_eq!(ast("a?").to_string(), "a?");
        assert_eq!(ast("a{3}"), Regex::repeat(Regex::byte(b'a'), 3, Some(3)));
        assert_eq!(ast("a{3,}"), Regex::repeat(Regex::byte(b'a'), 3, None));
        assert_eq!(ast("a{3,7}"), Regex::repeat(Regex::byte(b'a'), 3, Some(7)));
        assert_eq!(ast("(ab){2,4}").to_string(), "(ab){2,4}");
        // Lazy and possessive modes are language-neutral.
        assert_eq!(ast("a*?"), ast("a*"));
        assert_eq!(ast("a{2,3}?"), ast("a{2,3}"));
        assert_eq!(ast("a++"), ast("a+"));
    }

    #[test]
    fn literal_brace() {
        assert_eq!(ast("a{b").to_string(), "a\\{b");
        assert_eq!(ast("a{,3}").to_string(), "a\\{,3\\}");
        assert_eq!(ast("{2").to_string(), "\\{2");
    }

    #[test]
    fn classes() {
        assert_eq!(ast("[abc]"), Regex::Class(ByteClass::from_bytes(b"abc")));
        assert_eq!(ast("[a-f]"), Regex::Class(ByteClass::range(b'a', b'f')));
        assert_eq!(
            ast("[^a]"),
            Regex::Class(ByteClass::singleton(b'a').complement())
        );
        // `]` literal in first position; `-` literal at the end.
        assert_eq!(ast("[]a]"), Regex::Class(ByteClass::from_bytes(b"]a")));
        assert_eq!(ast("[a-]"), Regex::Class(ByteClass::from_bytes(b"a-")));
        assert_eq!(ast(r"[\d]"), Regex::Class(ByteClass::digit()));
        assert_eq!(ast("[[:digit:]]"), Regex::Class(ByteClass::digit()));
        assert_eq!(
            ast(r"[\x41-\x43]"),
            Regex::Class(ByteClass::range(b'A', b'C'))
        );
    }

    #[test]
    fn escapes() {
        assert_eq!(ast(r"\d"), Regex::Class(ByteClass::digit()));
        assert_eq!(ast(r"\x2f"), Regex::byte(b'/'));
        assert_eq!(ast(r"\x{2f}"), Regex::byte(b'/'));
        assert_eq!(ast(r"\."), Regex::byte(b'.'));
        assert_eq!(ast(r"\\"), Regex::byte(b'\\'));
        assert_eq!(ast(r"\n"), Regex::byte(b'\n'));
        assert_eq!(ast(r"\W"), Regex::Class(ByteClass::word().complement()));
    }

    #[test]
    fn anchors() {
        let p = parse("^abc$").unwrap();
        assert!(p.anchored_start && p.anchored_end);
        assert_eq!(p.regex.to_string(), "abc");
        let p = parse("abc").unwrap();
        assert!(!p.anchored_start && !p.anchored_end);
        assert_eq!(p.for_stream().to_string(), ".*abc");
        let p = parse("^abc").unwrap();
        assert_eq!(p.for_stream().to_string(), "abc");
        // Inner anchors are unsupported.
        assert!(matches!(
            parse("a^b").unwrap_err().kind,
            ErrorKind::Unsupported(Unsupported::InnerAnchor)
        ));
        assert!(matches!(
            parse("a$b").unwrap_err().kind,
            ErrorKind::Unsupported(Unsupported::InnerAnchor)
        ));
    }

    #[test]
    fn unsupported_constructs() {
        assert!(matches!(
            parse(r"(a)\1").unwrap_err().kind,
            ErrorKind::Unsupported(Unsupported::Backreference)
        ));
        assert!(matches!(
            parse(r"(?=a)b").unwrap_err().kind,
            ErrorKind::Unsupported(Unsupported::Lookaround)
        ));
        assert!(matches!(
            parse(r"(?<!a)b").unwrap_err().kind,
            ErrorKind::Unsupported(Unsupported::Lookaround)
        ));
        assert!(matches!(
            parse(r"\bword\b").unwrap_err().kind,
            ErrorKind::Unsupported(Unsupported::WordBoundary)
        ));
        assert!(matches!(
            parse(r"(a)\1").unwrap_err().kind,
            ErrorKind::Unsupported(_)
        ));
        assert!(!matches!(
            parse("a(").unwrap_err().kind,
            ErrorKind::Unsupported(_)
        ));
    }

    #[test]
    fn syntax_errors() {
        assert!(matches!(
            parse("a(b").unwrap_err().kind,
            ErrorKind::Syntax(_)
        ));
        assert!(matches!(
            parse("a)b").unwrap_err().kind,
            ErrorKind::Syntax(_)
        ));
        assert!(matches!(
            parse("*a").unwrap_err().kind,
            ErrorKind::Syntax(_)
        ));
        assert!(matches!(
            parse("[a").unwrap_err().kind,
            ErrorKind::Syntax(_)
        ));
        assert!(matches!(
            parse("[z-a]").unwrap_err().kind,
            ErrorKind::Syntax(_)
        ));
        assert!(matches!(
            parse("a{5,2}").unwrap_err().kind,
            ErrorKind::InvertedRepeatBounds { min: 5, max: 2 }
        ));
        assert!(matches!(
            parse("a{9999999}").unwrap_err().kind,
            ErrorKind::RepeatBoundTooLarge(_)
        ));
    }

    #[test]
    fn case_insensitive() {
        let p = parse("(?i)abc").unwrap();
        assert_eq!(p.regex.to_string(), "[Aa][Bb][Cc]");
        // Scoped flag group restores outer mode.
        let p = parse("(?i:a)b").unwrap();
        assert_eq!(p.regex.to_string(), "[Aa]b");
    }

    #[test]
    fn dot_modes() {
        assert_eq!(ast("."), Regex::any());
        assert!(ByteClass::ANY.contains(b'\n'));
        assert_eq!(ast("(?s)."), Regex::any());
    }

    #[test]
    fn paper_running_examples_parse() {
        // r1 = .*[ab][^a]{n} (Example 2.2 with σ1=[ab], σ2=[^a], n=4)
        let r1 = ast(".*[ab][^a]{4}");
        assert_eq!(r1.mu(), 4);
        // Fig. 4 regex a(bc){1,3}d.
        let fig4 = ast("a(bc){1,3}d");
        assert_eq!(fig4.repeats().len(), 1);
        // Fig. 7 regex [ab]*a[ab]{m,n}b.
        let fig7 = ast("[ab]*a[ab]{3,5}b");
        assert_eq!(
            fig7.repeats()[0].single_class_body,
            Some(ByteClass::from_bytes(b"ab"))
        );
        // Fig. 1 regex with two nested counters.
        let fig1 = ast(".*a(b(cd){2,3}e){4}f");
        assert_eq!(fig1.repeats().len(), 2);
    }

    #[test]
    fn display_reparse_fixpoint() {
        for p in [
            "abc",
            "a|b",
            "(ab|c)*d",
            "a{2,5}",
            "[a-f]{3}",
            "a?b+c*",
            ".*[ab][^a]{7}",
            r"\d{4}-\d{2}",
            "(?:xy){2,}z",
        ] {
            let once = ast(p);
            let twice = ast(&once.to_string());
            assert_eq!(once, twice, "display/reparse not a fixpoint for {p}");
        }
    }
}
