//! The CAMA-style two-nibble CAM encoding of character classes.
//!
//! CAMA reduces state-matching memory from the 256×256 SRAM of AP/CA to a
//! 16×256 8-transistor CAM by splitting the 8-bit symbol into two 4-bit
//! nibbles: a column stores a 16-bit membership mask for the high nibble
//! and one for the low nibble and matches when **both** masks hit. A single
//! column can therefore represent exactly the classes that are *products*
//! `H × L` of nibble sets; other classes are decomposed into several
//! columns (the encoding-dependent STE inflation that Impala/CAMA report).

use recama_syntax::ByteClass;

/// One physical CAM column: high-nibble mask × low-nibble mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CamColumn {
    /// Bit `h` set ⇔ symbols with high nibble `h` may match.
    pub(crate) hi_mask: u16,
    /// Bit `l` set ⇔ symbols with low nibble `l` may match.
    pub(crate) lo_mask: u16,
}

impl CamColumn {
    /// Whether the column matches byte `b`.
    #[cfg(test)]
    pub(crate) fn matches(&self, b: u8) -> bool {
        self.hi_mask & (1 << (b >> 4)) != 0 && self.lo_mask & (1 << (b & 0xf)) != 0
    }
}

/// Decomposes a class into CAM columns whose union is exactly the class.
///
/// Strategy: group high nibbles by their low-nibble membership pattern; all
/// high nibbles sharing a pattern form one product column. This yields one
/// column for genuine product classes (`.`/ranges aligned to nibbles /
/// singletons) and at most 16 columns in the worst case.
pub(crate) fn columns_for_class(class: &ByteClass) -> Vec<CamColumn> {
    // Group identical nonzero low-nibble patterns.
    let mut columns: Vec<CamColumn> = Vec::new();
    for (h, &lo) in lo_patterns(class).iter().enumerate() {
        if lo == 0 {
            continue;
        }
        match columns.iter_mut().find(|c| c.lo_mask == lo) {
            Some(col) => col.hi_mask |= 1 << h,
            None => columns.push(CamColumn {
                hi_mask: 1 << h,
                lo_mask: lo,
            }),
        }
    }
    columns
}

/// The low-nibble pattern of each high nibble `h`: bit `l` set ⇔ byte
/// `h << 4 | l` is in the class. The bytes of high nibble `h` are 16
/// consecutive bits of the class's membership words, so each pattern is one
/// shift of a word.
fn lo_patterns(class: &ByteClass) -> [u16; 16] {
    let words = class.words();
    std::array::from_fn(|h| (words[h / 4] >> (16 * (h % 4))) as u16)
}

/// The number of CAM columns a class costs (the mapper's cost function).
pub(crate) fn column_cost(class: &ByteClass) -> usize {
    columns_for_class(class).len().max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_cover(class: &ByteClass) {
        let cols = columns_for_class(class);
        let mut union = ByteClass::new();
        for col in &cols {
            let cc: ByteClass = (0..=255u8).filter(|&b| col.matches(b)).collect();
            // Columns never over-match.
            assert_eq!(cc.intersect(class), cc, "column over-matches");
            union = union.union(&cc);
        }
        assert_eq!(union, *class, "columns must cover the class exactly");
    }

    #[test]
    fn product_classes_cost_one_column() {
        for c in [
            ByteClass::ANY,
            ByteClass::singleton(0),
            ByteClass::singleton(255),
            ByteClass::range(0x20, 0x2f), // one high nibble, all lows
            ByteClass::range(0x00, 0x7f), // high nibbles 0-7 × all lows
        ] {
            assert_eq!(columns_for_class(&c).len(), 1, "{c}");
            exact_cover(&c);
        }
    }

    #[test]
    fn non_product_classes_split() {
        // {0x12, 0x21}: two distinct low patterns.
        let c = ByteClass::from_bytes(&[0x12, 0x21]);
        assert_eq!(columns_for_class(&c).len(), 2);
        exact_cover(&c);
        // [a-z]: 'a'..'o' (hi 6) and 'p'..'z' (hi 7) have different lows.
        let c = ByteClass::range(b'a', b'z');
        assert_eq!(columns_for_class(&c).len(), 2);
        exact_cover(&c);
    }

    #[test]
    fn digits_are_one_column() {
        // '0'..'9' = 0x30..0x39: single high nibble.
        assert_eq!(columns_for_class(&ByteClass::digit()).len(), 1);
        exact_cover(&ByteClass::digit());
    }

    #[test]
    fn complement_classes_cover_exactly() {
        for c in [
            ByteClass::singleton(b'a').complement(),
            ByteClass::digit().complement(),
            ByteClass::word().complement(),
        ] {
            exact_cover(&c);
            assert!(columns_for_class(&c).len() <= 16);
        }
    }

    #[test]
    fn empty_class_costs_one_slot() {
        assert_eq!(columns_for_class(&ByteClass::EMPTY).len(), 0);
        assert_eq!(column_cost(&ByteClass::EMPTY), 1);
    }

    #[test]
    fn worst_case_bounded_by_16() {
        // The "identity diagonal" {0x00, 0x11, …, 0xff} needs 16 columns.
        let diag: ByteClass = (0..16u8).map(|i| i << 4 | i).collect();
        assert_eq!(columns_for_class(&diag).len(), 16);
        exact_cover(&diag);
    }

    #[test]
    fn lo_patterns_equal_a_byte_by_byte_reference() {
        let reference = |class: &ByteClass| {
            let mut rows = [0u16; 16];
            for b in class.iter() {
                rows[(b >> 4) as usize] |= 1 << (b & 0xf);
            }
            rows
        };
        // splitmix64: 256 random classes from four words each.
        let mut seed = 0x5EED_u64;
        let mut next = || {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut classes = vec![ByteClass::ANY, ByteClass::EMPTY];
        classes.extend((0..=255u8).map(ByteClass::singleton));
        for _ in 0..256 {
            let words = [next(), next(), next(), next()];
            classes.push(
                (0..=255u8)
                    .filter(|&b| words[usize::from(b / 64)] >> (b % 64) & 1 == 1)
                    .collect(),
            );
        }
        for class in &classes {
            assert_eq!(lo_patterns(class), reference(class), "{class}");
        }
    }

    #[test]
    fn column_match_agrees_with_class() {
        let c = ByteClass::word();
        let cols = columns_for_class(&c);
        for b in 0..=255u8 {
            let col_match = cols.iter().any(|col| col.matches(b));
            assert_eq!(col_match, c.contains(b), "byte {b:#x}");
        }
    }
}
