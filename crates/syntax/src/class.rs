//! Predicates over the byte alphabet Σ = {0, …, 255}.
//!
//! The paper's automata are *symbolic*: transitions carry predicates σ ⊆ Σ
//! (character classes) rather than single symbols. Both the static analysis
//! (which intersects predicates when building product transition systems,
//! §3.1 of the paper) and the hardware mapper (which stores one 256-bit
//! membership column per STE) need a cheap set algebra over Σ, so a class is
//! represented as a 256-bit set packed into four `u64` words.

use std::fmt;

/// A set of bytes: a predicate σ ⊆ Σ over the 8-bit alphabet.
///
/// `ByteClass` is the "character class" of POSIX regex syntax and the
/// predicate labeling NCA transitions. It is a value type (4 × `u64`) with
/// O(1) boolean-algebra operations.
///
/// # Examples
///
/// ```
/// use recama_syntax::ByteClass;
///
/// let digits = ByteClass::range(b'0', b'9');
/// assert!(digits.contains(b'7'));
/// assert_eq!(digits.len(), 10);
///
/// let not_digits = digits.complement();
/// assert!(!not_digits.contains(b'7'));
/// assert!(digits.intersect(&not_digits).is_empty());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ByteClass {
    bits: [u64; 4],
}

impl ByteClass {
    /// The empty predicate ∅ (matches no byte).
    pub const EMPTY: ByteClass = ByteClass { bits: [0; 4] };

    /// The full alphabet Σ (matches every byte).
    pub const ANY: ByteClass = ByteClass {
        bits: [u64::MAX; 4],
    };

    /// Creates the empty class.
    ///
    /// ```
    /// # use recama_syntax::ByteClass;
    /// assert!(ByteClass::new().is_empty());
    /// ```
    pub fn new() -> Self {
        Self::EMPTY
    }

    /// The singleton class {b}.
    pub fn singleton(b: u8) -> Self {
        let mut c = Self::EMPTY;
        c.insert(b);
        c
    }

    /// The inclusive range `[lo-hi]`. An inverted range yields the empty class.
    pub fn range(lo: u8, hi: u8) -> Self {
        let mut c = Self::EMPTY;
        if lo <= hi {
            for b in lo..=hi {
                c.insert(b);
            }
        }
        c
    }

    /// Builds a class containing exactly the given bytes.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut c = Self::EMPTY;
        for &b in bytes {
            c.insert(b);
        }
        c
    }

    /// POSIX `\d`.
    pub fn digit() -> Self {
        Self::range(b'0', b'9')
    }

    /// POSIX `\w` (ASCII word characters).
    pub fn word() -> Self {
        Self::range(b'a', b'z')
            .union(&Self::range(b'A', b'Z'))
            .union(&Self::digit())
            .union(&Self::singleton(b'_'))
    }

    /// POSIX `\s` (ASCII whitespace).
    pub fn space() -> Self {
        Self::from_bytes(&[b' ', b'\t', b'\n', b'\r', 0x0b, 0x0c])
    }

    /// Adds a byte to the class.
    pub fn insert(&mut self, b: u8) {
        self.bits[(b >> 6) as usize] |= 1u64 << (b & 63);
    }

    /// Removes a byte from the class.
    pub fn remove(&mut self, b: u8) {
        self.bits[(b >> 6) as usize] &= !(1u64 << (b & 63));
    }

    /// Tests membership of a byte.
    pub fn contains(&self, b: u8) -> bool {
        self.bits[(b >> 6) as usize] & (1u64 << (b & 63)) != 0
    }

    /// σ ∪ τ.
    pub fn union(&self, other: &ByteClass) -> ByteClass {
        let mut bits = self.bits;
        for (w, o) in bits.iter_mut().zip(other.bits.iter()) {
            *w |= o;
        }
        ByteClass { bits }
    }

    /// σ ∩ τ — the operation the product-system construction of the static
    /// analysis performs on every edge pair (§3.1).
    pub fn intersect(&self, other: &ByteClass) -> ByteClass {
        let mut bits = self.bits;
        for (w, o) in bits.iter_mut().zip(other.bits.iter()) {
            *w &= o;
        }
        ByteClass { bits }
    }

    /// σ̄ = Σ ∖ σ.
    pub fn complement(&self) -> ByteClass {
        let mut bits = self.bits;
        for w in bits.iter_mut() {
            *w = !*w;
        }
        ByteClass { bits }
    }

    /// σ ∖ τ.
    pub fn minus(&self, other: &ByteClass) -> ByteClass {
        self.intersect(&other.complement())
    }

    /// Whether the class matches no byte.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Whether the class matches every byte.
    pub fn is_full(&self) -> bool {
        self.bits.iter().all(|&w| w == u64::MAX)
    }

    /// Number of bytes in the class.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &ByteClass) -> bool {
        self.intersect(other) == *self
    }

    /// The smallest byte in the class, if any. Used by the witness
    /// reconstruction of the static analysis to pick a concrete symbol from
    /// a predicate intersection.
    pub fn min_byte(&self) -> Option<u8> {
        for (i, &w) in self.bits.iter().enumerate() {
            if w != 0 {
                return Some((i as u32 * 64 + w.trailing_zeros()) as u8);
            }
        }
        None
    }

    /// Iterates over the member bytes in ascending order.
    ///
    /// ```
    /// # use recama_syntax::ByteClass;
    /// let c = ByteClass::from_bytes(b"cab");
    /// let v: Vec<u8> = c.iter().collect();
    /// assert_eq!(v, b"abc");
    /// ```
    pub fn iter(&self) -> Iter {
        Iter {
            class: *self,
            next: 0,
            done: false,
        }
    }

    /// Adds the case-folded counterparts of all ASCII letters in the class
    /// (used for `(?i)` patterns).
    pub(crate) fn case_fold(&self) -> ByteClass {
        let mut out = *self;
        for b in self.iter() {
            if b.is_ascii_lowercase() {
                out.insert(b.to_ascii_uppercase());
            } else if b.is_ascii_uppercase() {
                out.insert(b.to_ascii_lowercase());
            }
        }
        out
    }

    /// Raw 256-bit membership words (low byte first).
    pub fn words(&self) -> [u64; 4] {
        self.bits
    }
}

impl FromIterator<u8> for ByteClass {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        let mut c = ByteClass::new();
        for b in iter {
            c.insert(b);
        }
        c
    }
}

impl Extend<u8> for ByteClass {
    fn extend<T: IntoIterator<Item = u8>>(&mut self, iter: T) {
        for b in iter {
            self.insert(b);
        }
    }
}

impl From<u8> for ByteClass {
    fn from(b: u8) -> Self {
        ByteClass::singleton(b)
    }
}

/// Iterator over the bytes of a [`ByteClass`] in ascending order.
#[derive(Debug, Clone)]
pub struct Iter {
    class: ByteClass,
    next: u8,
    done: bool,
}

impl Iterator for Iter {
    type Item = u8;

    fn next(&mut self) -> Option<u8> {
        if self.done {
            return None;
        }
        let mut b = self.next;
        loop {
            if self.class.contains(b) {
                if b == u8::MAX {
                    self.done = true;
                } else {
                    self.next = b + 1;
                }
                return Some(b);
            }
            if b == u8::MAX {
                self.done = true;
                return None;
            }
            b += 1;
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, b: u8) -> fmt::Result {
    match b {
        b'\n' => write!(f, "\\n"),
        b'\r' => write!(f, "\\r"),
        b'\t' => write!(f, "\\t"),
        b'-' | b']' | b'[' | b'^' | b'\\' => write!(f, "\\{}", b as char),
        0x20..=0x7e => write!(f, "{}", b as char),
        _ => write!(f, "\\x{b:02x}"),
    }
}

/// Renders the class in POSIX bracket notation, preferring the shorter of
/// the positive and the negated form, e.g. `[^a]` instead of a 255-byte set.
impl fmt::Display for ByteClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_full() {
            return write!(f, ".");
        }
        if self.is_empty() {
            return write!(f, "[]");
        }
        if *self == ByteClass::digit() {
            return write!(f, "\\d");
        }
        if *self == ByteClass::word() {
            return write!(f, "\\w");
        }
        if *self == ByteClass::space() {
            return write!(f, "\\s");
        }
        if self.len() == 1 {
            let b = self.min_byte().expect("nonempty");
            return match b {
                b'\n' => write!(f, "\\n"),
                b'\r' => write!(f, "\\r"),
                b'\t' => write!(f, "\\t"),
                b'.' | b'*' | b'+' | b'?' | b'(' | b')' | b'[' | b']' | b'{' | b'}' | b'|'
                | b'^' | b'$' | b'\\' => write!(f, "\\{}", b as char),
                0x20..=0x7e => write!(f, "{}", b as char),
                _ => write!(f, "\\x{b:02x}"),
            };
        }
        let (body, negated) = if self.len() > 128 {
            (self.complement(), true)
        } else {
            (*self, false)
        };
        write!(f, "[")?;
        if negated {
            write!(f, "^")?;
        }
        // Emit maximal runs as ranges.
        let bytes: Vec<u8> = body.iter().collect();
        let mut i = 0;
        while i < bytes.len() {
            let start = bytes[i];
            let mut j = i;
            while j + 1 < bytes.len() && bytes[j + 1] == bytes[j] + 1 {
                j += 1;
            }
            let end = bytes[j];
            if end - start >= 2 {
                write_escaped(f, start)?;
                write!(f, "-")?;
                write_escaped(f, end)?;
            } else {
                for &b in &bytes[i..=j] {
                    write_escaped(f, b)?;
                }
            }
            i = j + 1;
        }
        write!(f, "]")
    }
}

impl fmt::Debug for ByteClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ByteClass({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        assert!(ByteClass::EMPTY.is_empty());
        assert!(ByteClass::ANY.is_full());
        assert_eq!(ByteClass::ANY.len(), 256);
        assert_eq!(ByteClass::EMPTY.len(), 0);
        assert_eq!(ByteClass::new(), ByteClass::default());
    }

    #[test]
    fn insert_remove_contains() {
        let mut c = ByteClass::new();
        c.insert(0);
        c.insert(63);
        c.insert(64);
        c.insert(255);
        assert!(c.contains(0) && c.contains(63) && c.contains(64) && c.contains(255));
        assert!(!c.contains(1));
        c.remove(63);
        assert!(!c.contains(63));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn range_semantics() {
        let c = ByteClass::range(b'a', b'f');
        assert_eq!(c.len(), 6);
        assert!(c.contains(b'c'));
        assert!(!c.contains(b'g'));
        assert!(ByteClass::range(b'z', b'a').is_empty());
        assert_eq!(ByteClass::range(b'q', b'q'), ByteClass::singleton(b'q'));
    }

    #[test]
    fn boolean_algebra() {
        let a = ByteClass::range(0, 100);
        let b = ByteClass::range(50, 150);
        assert_eq!(a.intersect(&b), ByteClass::range(50, 100));
        assert_eq!(a.union(&b), ByteClass::range(0, 150));
        assert_eq!(a.minus(&b), ByteClass::range(0, 49));
        assert_eq!(a.complement().complement(), a);
        assert_eq!(a.union(&a.complement()), ByteClass::ANY);
        assert!(a.intersect(&a.complement()).is_empty());
    }

    #[test]
    fn subset() {
        let small = ByteClass::range(b'a', b'c');
        let big = ByteClass::range(b'a', b'z');
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        assert!(small.is_subset(&small));
        assert!(ByteClass::EMPTY.is_subset(&small));
    }

    #[test]
    fn min_byte_and_iter() {
        assert_eq!(ByteClass::EMPTY.min_byte(), None);
        assert_eq!(ByteClass::singleton(200).min_byte(), Some(200));
        let c = ByteClass::from_bytes(&[5, 3, 200]);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![3, 5, 200]);
        assert_eq!(ByteClass::ANY.iter().count(), 256);
        assert_eq!(
            ByteClass::singleton(255).iter().collect::<Vec<_>>(),
            vec![255]
        );
    }

    #[test]
    fn predefined_classes() {
        assert_eq!(ByteClass::digit().len(), 10);
        assert_eq!(ByteClass::word().len(), 63);
        assert_eq!(ByteClass::space().len(), 6);
        assert!(ByteClass::word().contains(b'_'));
    }

    #[test]
    fn case_fold() {
        let c = ByteClass::from_bytes(b"aZ0");
        let f = c.case_fold();
        assert!(f.contains(b'A') && f.contains(b'a'));
        assert!(f.contains(b'z') && f.contains(b'Z'));
        assert!(f.contains(b'0'));
        assert_eq!(f.len(), 5);
    }

    #[test]
    fn display_roundtrip_feel() {
        assert_eq!(ByteClass::ANY.to_string(), ".");
        assert_eq!(ByteClass::singleton(b'a').to_string(), "a");
        assert_eq!(ByteClass::singleton(b'+').to_string(), "\\+");
        assert_eq!(ByteClass::digit().to_string(), "\\d");
        assert_eq!(ByteClass::range(b'a', b'c').to_string(), "[a-c]");
        let almost_all = ByteClass::singleton(b'a').complement();
        assert_eq!(almost_all.to_string(), "[^a]");
    }

    #[test]
    fn from_iterator_and_extend() {
        let c: ByteClass = (b'a'..=b'e').collect();
        assert_eq!(c, ByteClass::range(b'a', b'e'));
        let mut d = ByteClass::new();
        d.extend(b"xyz".iter().copied());
        assert_eq!(d, ByteClass::from_bytes(b"xyz"));
    }
}
