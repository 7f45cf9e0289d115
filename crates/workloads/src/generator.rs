//! Seeded synthetic ruleset generators.
//!
//! The paper's rulesets (Snort, Suricata, Protomata, SpamAssassin, ClamAV)
//! are proprietary or too large to ship; every experiment in the paper
//! consumes only their distributional properties — how many patterns,
//! which fraction uses counting, which fraction is counter-ambiguous, and
//! how large the bounds are. The generators below produce pattern sets
//! with those properties **by construction**, using shape families whose
//! ambiguity classification is known:
//!
//! * *ambiguous counting*: an unanchored prefix whose last symbols can
//!   recur inside the counted class (`lit.{m,n}`, `w[a-z ]{m,n}w'`,
//!   PROSITE-style `.{m,n}` gaps, hex signatures with wildcard gaps);
//! * *unambiguous counting*: anchored prefixes (`^lit σ{n}…`) or counted
//!   classes disjoint from their trigger (`lit[^X]X{n}`, `lit\d{n}`,
//!   zero-padding signatures), plus the `Σ*(σ̄₁σ₁{m}+σ̄₂σ₂{n})`
//!   exact-analysis stress family of §3.3;
//! * *unsupported*: backreferences/lookarounds (Table 1's rejected rows);
//! * *plain*: literals, classes and `*`/`+` with no counting.

use crate::profiles::{profile, BenchmarkId, Table1Row};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The intended classification of a generated pattern (ground truth used
/// by tests and reported next to measured verdicts in Table 1 runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternClass {
    /// Uses a non-regular operator; the parser must reject it.
    Unsupported,
    /// No counting occurrence.
    Plain,
    /// Counting, intended counter-unambiguous.
    CountingUnambiguous,
    /// Counting, intended counter-ambiguous.
    CountingAmbiguous,
}

/// A generated ruleset.
#[derive(Debug, Clone)]
pub struct Ruleset {
    /// Which benchmark profile generated it.
    pub id: BenchmarkId,
    /// The scale factor applied to the Table 1 sizes.
    pub scale: f64,
    /// Patterns with their intended classification.
    pub patterns: Vec<(String, PatternClass)>,
}

impl Ruleset {
    /// Pattern strings only.
    pub fn pattern_strings(&self) -> Vec<String> {
        self.patterns.iter().map(|(p, _)| p.clone()).collect()
    }

    /// The intended Table 1 row of this (scaled) set.
    pub fn intended_table1(&self) -> Table1Row {
        let mut row = Table1Row {
            total: 0,
            supported: 0,
            counting: 0,
            ambiguous: 0,
        };
        for (_, class) in &self.patterns {
            row.total += 1;
            match class {
                PatternClass::Unsupported => {}
                PatternClass::Plain => row.supported += 1,
                PatternClass::CountingUnambiguous => {
                    row.supported += 1;
                    row.counting += 1;
                }
                PatternClass::CountingAmbiguous => {
                    row.supported += 1;
                    row.counting += 1;
                    row.ambiguous += 1;
                }
            }
        }
        row
    }
}

/// Generates the ruleset for `id` at `scale` (1.0 reproduces the Table 1
/// sizes) with a deterministic `seed`.
pub fn generate(id: BenchmarkId, scale: f64, seed: u64) -> Ruleset {
    let prof = profile(id);
    let t = prof.table1;
    let scaled = |n: usize| ((n as f64 * scale).round() as usize).max(if n > 0 { 1 } else { 0 });
    let total = scaled(t.total);
    let unsupported = scaled(t.total - t.supported);
    let counting = scaled(t.counting).min(total - unsupported);
    let ambiguous = scaled(t.ambiguous).min(counting);
    let expensive = prof.expensive_instances.min(counting - ambiguous);
    let plain = total - unsupported - counting;

    let mut rng = StdRng::seed_from_u64(seed ^ fnv(id.name()));
    let mut gen = ShapeGen {
        id,
        rng: &mut rng,
        bound_range: prof.bound_range,
        range_fraction: prof.range_fraction,
    };

    let mut patterns = Vec::with_capacity(total);
    for _ in 0..unsupported {
        patterns.push((gen.unsupported(), PatternClass::Unsupported));
    }
    for _ in 0..plain {
        patterns.push((gen.plain(), PatternClass::Plain));
    }
    for _ in 0..ambiguous {
        patterns.push((gen.counting_ambiguous(), PatternClass::CountingAmbiguous));
    }
    for _ in 0..expensive {
        patterns.push((
            gen.expensive_unambiguous(),
            PatternClass::CountingUnambiguous,
        ));
    }
    for _ in 0..counting - ambiguous - expensive {
        patterns.push((
            gen.counting_unambiguous(),
            PatternClass::CountingUnambiguous,
        ));
    }
    // Deterministic shuffle so categories are interleaved like real sets.
    for i in (1..patterns.len()).rev() {
        let j = rng.gen_range(0..=i);
        patterns.swap(i, j);
    }
    Ruleset {
        id,
        scale,
        patterns,
    }
}

fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

struct ShapeGen<'a> {
    id: BenchmarkId,
    rng: &'a mut StdRng,
    bound_range: (u32, u32),
    range_fraction: f64,
}

const PROTEIN: &[u8] = b"ACDEFGHIKLMNPQRSTVWY";

impl ShapeGen<'_> {
    fn word(&mut self, lo: usize, hi: usize) -> String {
        let len = self.rng.gen_range(lo..=hi);
        (0..len)
            .map(|_| (b'a' + self.rng.gen_range(0..26)) as char)
            .collect()
    }

    fn upper_word(&mut self, lo: usize, hi: usize) -> String {
        let len = self.rng.gen_range(lo..=hi);
        (0..len)
            .map(|_| PROTEIN[self.rng.gen_range(0..PROTEIN.len())] as char)
            .collect()
    }

    fn hex_literal(&mut self, lo: usize, hi: usize) -> String {
        let len = self.rng.gen_range(lo..=hi);
        (0..len)
            .map(|_| format!("\\x{:02x}", self.rng.gen_range(1..=255u8)))
            .collect()
    }

    /// Log-uniform bound in the profile range.
    fn bound(&mut self) -> u32 {
        let (lo, hi) = self.bound_range;
        let (lo_f, hi_f) = (f64::from(lo).ln(), f64::from(hi).ln());
        let x = self.rng.gen_range(lo_f..=hi_f);
        (x.exp().round() as u32).clamp(lo, hi).max(2)
    }

    /// `{n}` or `{m,n}` with n from the profile distribution; returns the
    /// rendered suffix and the upper bound n.
    fn counting_suffix(&mut self) -> (String, u32) {
        let n = self.bound();
        let s = if self.rng.gen_bool(self.range_fraction) && n > 2 {
            let m = self.rng.gen_range(1..n);
            format!("{{{m},{n}}}")
        } else {
            format!("{{{n}}}")
        };
        (s, n)
    }

    /// Length for a trigger literal placed before an ambiguous counting
    /// occurrence with upper bound `n`: a fresh occurrence of the trigger
    /// must be able to complete inside the counting window (length ≤ n−1),
    /// otherwise tokens cannot coexist and the occurrence degenerates to
    /// counter-unambiguous.
    fn trigger_len(&mut self, n: u32, cap: usize) -> usize {
        let max_len = cap.min((n.saturating_sub(1)).max(1) as usize).max(1);
        self.rng.gen_range(1..=max_len)
    }

    fn unsupported(&mut self) -> String {
        let w = self.word(3, 8);
        match self.rng.gen_range(0..3) {
            0 => format!("({w})x*\\1"),
            1 => format!("{w}(?=[0-9]+)[a-z]{{2,}}"),
            _ => format!("\\b{w}\\b"),
        }
    }

    fn plain(&mut self) -> String {
        match self.id {
            BenchmarkId::Protomata => {
                // Motif without a counting gap.
                let a = self.upper_word(3, 6);
                let b = self.upper_word(2, 5);
                format!("{a}[{}]{b}", &self.upper_word(3, 5))
            }
            BenchmarkId::ClamAv => self.hex_literal(8, 24),
            _ => {
                let a = self.word(4, 10);
                match self.rng.gen_range(0..3) {
                    0 => a,
                    1 => format!("{a}[0-9a-f]+{}", self.word(2, 5)),
                    _ => format!("{a}\\s*{}", self.word(3, 7)),
                }
            }
        }
    }

    fn counting_ambiguous(&mut self) -> String {
        let (suffix, n) = self.counting_suffix();
        match self.id {
            BenchmarkId::Protomata => {
                // PROSITE-style: MOTIF x(m,n) MOTIF — the `.` gap restarts
                // (trigger short enough to recur inside the window).
                let len = self.trigger_len(n, 4);
                let a = self.upper_word(len, len);
                let b = self.upper_word(2, 4);
                format!("{a}.{suffix}{b}")
            }
            BenchmarkId::ClamAv => {
                // Signature with a wildcard gap.
                let len = self.trigger_len(n, 8);
                let a = self.hex_literal(len, len);
                let b = self.hex_literal(4, 10);
                format!("{a}.{suffix}{b}")
            }
            BenchmarkId::SpamAssassin => {
                // Body class overlaps the trigger word.
                let len = self.trigger_len(n, 6);
                let a = self.word(len, len);
                let b = self.word(3, 6);
                format!("{a}[a-z ]{suffix}{b}")
            }
            _ => {
                // Snort/Suricata: `.`/[^\n] bodies after a literal.
                let len = self.trigger_len(n, 7);
                let a = self.word(len, len);
                if self.rng.gen_bool(0.5) {
                    format!("{a}.{suffix}")
                } else {
                    format!("{a}[^\\n]{suffix}{}", self.word(2, 5))
                }
            }
        }
    }

    fn counting_unambiguous(&mut self) -> String {
        let (suffix, _) = self.counting_suffix();
        match self.id {
            BenchmarkId::Protomata => {
                // Anchored motif (PROSITE `<` anchor): single entry point.
                let a = self.upper_word(2, 5);
                let b = self.upper_word(2, 4);
                format!("^{a}[{}]{suffix}{b}", &self.upper_word(3, 5))
            }
            BenchmarkId::ClamAv => {
                // Zero-padding run delimited by nonzero literals.
                let a = self.hex_literal(4, 10);
                let b = self.hex_literal(4, 10);
                format!("{a}\\x00{suffix}{b}")
            }
            _ => {
                if self.rng.gen_bool(0.5) {
                    // Anchored.
                    let a = self.word(4, 9);
                    format!("^{a}[0-9a-f]{suffix}")
                } else {
                    // Guarded: counted digits cannot restart the letter
                    // trigger.
                    let a = self.word(4, 9);
                    let b = self.word(2, 5);
                    format!("{a}\\d{suffix}{b}")
                }
            }
        }
    }

    /// The `Σ*(σ̄₁σ₁{m}+σ̄₂σ₂{n}+···)` family with overlapping classes:
    /// counter-unambiguous but Θ(n²)-expensive for the exact analysis.
    fn expensive_unambiguous(&mut self) -> String {
        let n1 = self.bound().max(64);
        let n2 = self.bound().max(64);
        format!("([^ac][ac]{{{n1}}}|[^bc][bc]{{{n2}}})")
    }
}

/// Background byte distribution per benchmark.
fn background_byte(id: BenchmarkId, rng: &mut StdRng) -> u8 {
    match id {
        BenchmarkId::Protomata => PROTEIN[rng.gen_range(0..PROTEIN.len())],
        BenchmarkId::ClamAv => rng.gen(),
        _ => {
            // Printable-ish network/text payload.
            if rng.gen_bool(0.9) {
                rng.gen_range(0x20..0x7f)
            } else {
                rng.gen()
            }
        }
    }
}

/// Generates a synthetic input stream of `len` bytes for `ruleset`, with
/// matches of randomly chosen patterns planted at roughly `plant_rate`
/// occurrences per byte (e.g. 0.001 = one planted match per KiB).
pub fn traffic(ruleset: &Ruleset, len: usize, plant_rate: f64, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7261666669637421);
    let mut out = Vec::with_capacity(len + 64);
    let supported: Vec<&String> = ruleset
        .patterns
        .iter()
        .filter(|(_, c)| *c != PatternClass::Unsupported)
        .map(|(p, _)| p)
        .collect();
    while out.len() < len {
        if !supported.is_empty() && rng.gen_bool(plant_rate.clamp(0.0, 1.0)) {
            let p = supported[rng.gen_range(0..supported.len())];
            if let Ok(parsed) = recama_syntax::parse(p) {
                if let Some(m) = crate::sample::sample_match(&parsed.regex, &mut rng) {
                    out.extend_from_slice(&m);
                    continue;
                }
            }
        }
        let id = ruleset.id;
        out.push(background_byte(id, &mut rng));
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use recama_analysis::{check, CheckConfig, Method};

    #[test]
    fn scaled_counts_match_profile() {
        for id in BenchmarkId::ALL {
            let rs = generate(id, 0.01, 7);
            let intended = rs.intended_table1();
            let paper = crate::profiles::paper_table1(id);
            let expect = |n: usize| ((n as f64 * 0.01).round() as usize).max(1);
            assert_eq!(intended.total, rs.patterns.len());
            // Within rounding of the scaled targets.
            assert!(
                intended.total.abs_diff(expect(paper.total)) <= 1,
                "{id:?} total"
            );
            assert!(
                intended.counting.abs_diff(expect(paper.counting)) <= 2,
                "{id:?} counting {} vs {}",
                intended.counting,
                expect(paper.counting)
            );
        }
    }

    #[test]
    fn determinism() {
        let a = generate(BenchmarkId::Snort, 0.005, 99);
        let b = generate(BenchmarkId::Snort, 0.005, 99);
        assert_eq!(a.patterns, b.patterns);
        let c = generate(BenchmarkId::Snort, 0.005, 100);
        assert_ne!(a.patterns, c.patterns);
    }

    #[test]
    fn unsupported_patterns_fail_parsing_as_intended() {
        for id in BenchmarkId::ALL {
            let rs = generate(id, 0.02, 3);
            for (p, class) in &rs.patterns {
                let parsed = recama_syntax::parse(p);
                match class {
                    PatternClass::Unsupported => {
                        let err = parsed.expect_err("intended-unsupported must not parse");
                        assert!(
                            matches!(err.kind, recama_syntax::ErrorKind::Unsupported(_)),
                            "{p}: wrong rejection {err}"
                        );
                    }
                    _ => {
                        let parsed = parsed.unwrap_or_else(|e| panic!("{p}: {e}"));
                        let has_counting = parsed.regex.has_counting();
                        let expect_counting = matches!(
                            class,
                            PatternClass::CountingAmbiguous | PatternClass::CountingUnambiguous
                        );
                        assert_eq!(has_counting, expect_counting, "{p}");
                    }
                }
            }
        }
    }

    #[test]
    fn intended_ambiguity_agrees_with_checker_on_sample() {
        // The generator's ground-truth labels must agree with the actual
        // hybrid analysis (sampled for time).
        let cfg = CheckConfig::default();
        for id in BenchmarkId::ALL {
            let rs = generate(id, 0.01, 11);
            let mut checked = 0;
            for (p, class) in &rs.patterns {
                let expect = match class {
                    PatternClass::CountingAmbiguous => Some(true),
                    PatternClass::CountingUnambiguous => Some(false),
                    _ => continue,
                };
                // Skip the largest bounds to keep the test fast.
                let parsed = recama_syntax::parse(p).unwrap();
                if parsed.regex.mu() > 300 {
                    continue;
                }
                let res = check(&parsed.for_stream(), Method::Hybrid, &cfg);
                assert_eq!(res.ambiguous, expect, "{id:?} pattern {p}");
                checked += 1;
                if checked >= 12 {
                    break;
                }
            }
            assert!(checked >= 2, "{id:?}: too few counting patterns sampled");
        }
    }

    #[test]
    fn traffic_is_seeded_and_sized() {
        let rs = generate(BenchmarkId::Snort, 0.002, 5);
        let a = traffic(&rs, 4096, 0.001, 1);
        let b = traffic(&rs, 4096, 0.001, 1);
        assert_eq!(a.len(), 4096);
        assert_eq!(a, b);
        let c = traffic(&rs, 4096, 0.001, 2);
        assert_ne!(a, c);
    }

    #[test]
    fn protein_traffic_uses_protein_alphabet() {
        let rs = generate(BenchmarkId::Protomata, 0.002, 5);
        let t = traffic(&rs, 2048, 0.0, 9);
        assert!(t.iter().all(|b| PROTEIN.contains(b)));
    }
}
