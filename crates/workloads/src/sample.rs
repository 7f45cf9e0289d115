//! Sampling matching strings from a regex — used to plant true matches in
//! synthetic traffic streams.

use rand::Rng;
use recama_syntax::Regex;

/// Draws a random member of ⟦r⟧ (None when ⟦r⟧ = ∅).
///
/// Iteration counts for `*`/`+`/`{m,}` are kept small (geometric); bounded
/// repetitions sample a count in `[m, min(n, m+4)]` to keep planted matches
/// short.
pub(crate) fn sample_match(regex: &Regex, rng: &mut impl Rng) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    if walk(regex, rng, &mut out) {
        Some(out)
    } else {
        None
    }
}

fn walk(r: &Regex, rng: &mut impl Rng, out: &mut Vec<u8>) -> bool {
    match r {
        Regex::Empty => true,
        Regex::Void => false,
        Regex::Class(c) => {
            let k = rng.gen_range(0..c.len());
            let b = c.iter().nth(k).expect("class nonempty");
            out.push(b);
            true
        }
        Regex::Concat(parts) => parts.iter().all(|p| walk(p, rng, out)),
        Regex::Alt(parts) => {
            // Try arms in a random rotation until one samples.
            let n = parts.len();
            let start = rng.gen_range(0..n);
            for k in 0..n {
                let mark = out.len();
                if walk(&parts[(start + k) % n], rng, out) {
                    return true;
                }
                out.truncate(mark);
            }
            false
        }
        Regex::Star(inner) => {
            let reps = geometric(rng);
            for _ in 0..reps {
                let mark = out.len();
                if !walk(inner, rng, out) {
                    out.truncate(mark);
                    break;
                }
            }
            true
        }
        Regex::Repeat { inner, min, max } => {
            let hi = match max {
                Some(n) => (*n).min(min + 4),
                None => min + geometric(rng),
            };
            let reps = rng.gen_range(*min..=hi.max(*min));
            for k in 0..reps {
                if !walk(inner, rng, out) {
                    // Body unexpectedly void: succeed only if min reached.
                    return k >= *min;
                }
            }
            true
        }
    }
}

fn geometric(rng: &mut impl Rng) -> u32 {
    let mut n = 0;
    while n < 8 && rng.gen_bool(0.5) {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use recama_syntax::{naive, parse};

    #[test]
    fn samples_are_members() {
        let mut rng = StdRng::seed_from_u64(7);
        for p in [
            "a{2,5}b",
            "(ab|cd){3}",
            "x[0-9]{2,4}y",
            "a*b+c?",
            "(a|b)*abb",
        ] {
            let r = parse(p).unwrap().regex;
            for _ in 0..50 {
                let w = sample_match(&r, &mut rng).expect("nonempty language");
                assert!(
                    naive::matches(&r, &w),
                    "sample {:?} does not match {p}",
                    String::from_utf8_lossy(&w)
                );
            }
        }
    }

    #[test]
    fn void_samples_none() {
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(sample_match(&Regex::Void, &mut rng), None);
        assert_eq!(sample_match(&Regex::Empty, &mut rng), Some(vec![]));
    }

    #[test]
    fn deterministic_under_seed() {
        let r = parse("[a-z]{4,8}").unwrap().regex;
        let a = sample_match(&r, &mut StdRng::seed_from_u64(42));
        let b = sample_match(&r, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }
}
