//! Cycle-accurate functional models of the counter and bit-vector modules
//! (§4.2, Figs. 6–7).
//!
//! Both modules observe, each cycle, whether their input-port STE groups
//! activated, and produce enable outputs consumed in the *next* cycle —
//! matching the two-phase (match, transition) pipeline of the accelerator.
//!
//! Counter rules (Fig. 6, adjusted to the `x := 1`-on-entry convention of
//! the paper's NCA examples):
//!
//! 1. `fst` fires with `pre` active in the previous cycle ⇒ `cnt := 1`
//!    (repetition (re-)initialization);
//! 2. `fst` fires without previous `pre` ⇒ `cnt := cnt + 1` (one complete
//!    body iteration via the `en_fst` loop);
//! 3. `en_out` ⇔ `lst` active ∧ `m ≤ cnt ≤ n` (`cnt ≥ m` when unbounded);
//! 4. `en_fst` ⇔ `lst` active ∧ `cnt < n` (always, when unbounded).
//!
//! Bit-vector rules (Fig. 7 / §3.2.1): on a `body` activation the vector
//! shifts (every token increments); with previous `pre` the first bit is
//! set (a fresh token); without `body` activation the vector resets (all
//! counting tokens died). `en_out` is the disjunction of the `[lo, hi]`
//! window; `en_body` the disjunction of bits that can still shift.

/// Functional model of the 17-bit counter module.
#[derive(Debug, Clone)]
pub struct CounterModule {
    min: u32,
    max: Option<u32>,
    cnt: u32,
    pre_prev: bool,
    /// Energy accounting: cycles in which the module did switching work.
    active_cycles: u64,
}

/// Enable outputs of a module after one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModuleOutputs {
    /// Re-enable the first body STE (`en_fst`) / body STE (`en_body`).
    pub en_loop: bool,
    /// Enable the successor STE / report (`en_out`).
    pub en_out: bool,
}

impl CounterModule {
    /// Creates the module for a `{min,max}` repetition (`max = None` for
    /// the unbounded `{min,}`).
    pub fn new(min: u32, max: Option<u32>, start_enabled: bool) -> CounterModule {
        CounterModule {
            min,
            max,
            cnt: 0,
            pre_prev: start_enabled,
            active_cycles: 0,
        }
    }

    /// Resets to the power-on state (`start_enabled` as at construction is
    /// captured in `pre_prev` by the caller via [`CounterModule::reset`]).
    pub fn reset(&mut self, start_enabled: bool) {
        self.cnt = 0;
        self.pre_prev = start_enabled;
        self.active_cycles = 0;
    }

    /// Advances one cycle. `pre_now`, `fst_now`, `lst_now`: whether the
    /// respective port groups activated in this cycle's match phase.
    pub fn cycle(&mut self, pre_now: bool, fst_now: bool, lst_now: bool) -> ModuleOutputs {
        if fst_now {
            if self.pre_prev {
                self.cnt = 1;
            } else {
                // 17-bit saturating datapath.
                self.cnt = (self.cnt + 1).min((1 << 17) - 1);
            }
        }
        let in_range = match self.max {
            Some(n) => self.min <= self.cnt && self.cnt <= n,
            None => self.cnt >= self.min,
        };
        let can_loop = match self.max {
            Some(n) => self.cnt < n,
            None => true,
        };
        let out = ModuleOutputs {
            en_loop: lst_now && can_loop,
            en_out: lst_now && in_range,
        };
        if pre_now || fst_now || lst_now {
            self.active_cycles += 1;
        }
        self.pre_prev = pre_now;
        out
    }

    /// Current register value.
    #[cfg(test)]
    fn count(&self) -> u32 {
        self.cnt
    }

    /// Cycles with switching activity since the last reset.
    pub fn active_cycles(&self) -> u64 {
        self.active_cycles
    }
}

/// Functional model of a bit-vector segment (`size` value bits, window
/// `[lo, hi]`), possibly one of several segments sharing a physical
/// 2000-bit module.
#[derive(Debug, Clone)]
pub struct BitVectorModule {
    size: u32,
    lo: u32,
    hi: u32,
    /// Bit `v` (1-based) set ⇔ a token with counter value `v` is live.
    bits: Vec<u64>,
    pre_prev: bool,
    active_cycles: u64,
}

impl BitVectorModule {
    /// Creates a segment of `size` bits with disjunction window `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ lo ≤ hi ≤ size`.
    pub fn new(size: u32, lo: u32, hi: u32, start_enabled: bool) -> BitVectorModule {
        assert!(
            1 <= lo && lo <= hi && hi <= size,
            "bad window {lo}..={hi} of {size}"
        );
        BitVectorModule {
            size,
            lo,
            hi,
            bits: vec![0; (size as usize + 2).div_ceil(64)],
            pre_prev: start_enabled,
            active_cycles: 0,
        }
    }

    /// Power-on reset.
    pub fn reset(&mut self, start_enabled: bool) {
        self.bits.iter_mut().for_each(|w| *w = 0);
        self.pre_prev = start_enabled;
        self.active_cycles = 0;
    }

    fn any_in(&self, lo: u32, hi: u32) -> bool {
        (lo..=hi).any(|v| self.bits[(v / 64) as usize] & (1 << (v % 64)) != 0)
    }

    /// Advances one cycle. `pre_now`: the pre STE group activated;
    /// `body_now`: the body STE activated (input matched σ while enabled).
    pub fn cycle(&mut self, pre_now: bool, body_now: bool) -> ModuleOutputs {
        if body_now {
            // shift: every live token's counter increments; a token at
            // `size` falls off (the `x < n` loop guard fails).
            let mut carry = 0u64;
            for w in self.bits.iter_mut() {
                let new_carry = *w >> 63;
                *w = (*w << 1) | carry;
                carry = new_carry;
            }
            // Clear bits above `size`.
            for v in (self.size + 1)..(self.bits.len() as u32 * 64) {
                self.bits[(v / 64) as usize] &= !(1 << (v % 64));
            }
            if self.pre_prev {
                // setFirst: a fresh token with counter value 1.
                self.bits[0] |= 1 << 1;
            }
            self.active_cycles += 1;
        } else {
            // All counting tokens died (the body predicate failed).
            let had_any = self.bits.iter().any(|&w| w != 0);
            self.bits.iter_mut().for_each(|w| *w = 0);
            if had_any || pre_now {
                self.active_cycles += 1;
            }
        }
        let out = ModuleOutputs {
            en_loop: self.size > 1 && self.any_in(1, self.size - 1),
            en_out: self.any_in(self.lo, self.hi),
        };
        self.pre_prev = pre_now;
        out
    }

    /// Live token values.
    #[cfg(test)]
    fn values(&self) -> Vec<u32> {
        (1..=self.size).filter(|&v| self.any_in(v, v)).collect()
    }

    /// Cycles with switching activity since the last reset.
    pub fn active_cycles(&self) -> u64 {
        self.active_cycles
    }

    /// Number of value bits this segment occupies in a physical module.
    pub fn bits_used(&self) -> u32 {
        self.size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 4 regex a(bc){1,3}d: trace "abcbcd".
    #[test]
    fn counter_traces_fig4() {
        let mut m = CounterModule::new(1, Some(3), false);
        // cycle 1: 'a' → pre active.
        let o = m.cycle(true, false, false);
        assert_eq!(o, ModuleOutputs::default());
        // cycle 2: 'b' → fst active (entry): cnt = 1.
        let o = m.cycle(false, true, false);
        assert_eq!(m.count(), 1);
        assert!(!o.en_out);
        // cycle 3: 'c' → lst active: in range (1 ≤ 1 ≤ 3) → en_out; 1 < 3 → en_fst.
        let o = m.cycle(false, false, true);
        assert!(o.en_out && o.en_loop);
        // cycle 4: 'b' via en_fst: increment → 2.
        m.cycle(false, true, false);
        assert_eq!(m.count(), 2);
        // cycle 5: 'c': still in range.
        let o = m.cycle(false, false, true);
        assert!(o.en_out && o.en_loop);
    }

    #[test]
    fn counter_exhausts_at_upper_bound() {
        let mut m = CounterModule::new(2, Some(2), false);
        m.cycle(true, false, false); // pre
        m.cycle(false, true, false); // entry: cnt=1
        let o = m.cycle(false, false, true); // lst: 1 < 2 → loop, not in range
        assert!(o.en_loop && !o.en_out);
        m.cycle(false, true, false); // loop: cnt=2
        let o = m.cycle(false, false, true); // lst: in range, no more loop
        assert!(!o.en_loop && o.en_out);
    }

    #[test]
    fn counter_reset_on_reentry() {
        let mut m = CounterModule::new(1, Some(9), false);
        m.cycle(true, false, false);
        m.cycle(false, true, false);
        m.cycle(false, true, false); // (hypothetical immediate loop)
        assert_eq!(m.count(), 2);
        // New entry: pre then fst resets to 1.
        m.cycle(true, false, false);
        m.cycle(false, true, false);
        assert_eq!(m.count(), 1);
    }

    #[test]
    fn counter_unbounded_mode() {
        let mut m = CounterModule::new(3, None, false);
        m.cycle(true, false, false);
        m.cycle(false, true, false); // 1
        for _ in 0..5 {
            let o = m.cycle(false, true, true);
            // en_loop always true for {m,} when lst fires.
            assert!(o.en_loop);
        }
        assert_eq!(m.count(), 6);
        let o = m.cycle(false, false, true);
        assert!(o.en_out); // 6 ≥ 3
    }

    #[test]
    fn counter_start_enabled_initializes_on_first_fst() {
        // ^a{3}…: the module's virtual pre is active at time 0.
        let mut m = CounterModule::new(3, Some(3), true);
        m.cycle(false, true, true); // first 'a': cnt := 1
        assert_eq!(m.count(), 1);
    }

    #[test]
    fn bitvector_shift_and_set_first() {
        let mut bv = BitVectorModule::new(5, 3, 5, false);
        bv.cycle(true, false); // pre active
        bv.cycle(true, true); // body: shift (empty) + setFirst → {1}; pre again
        assert_eq!(bv.values(), vec![1]);
        bv.cycle(false, true); // shift {1}→{2}, setFirst (pre_prev) → {1,2}
        assert_eq!(bv.values(), vec![1, 2]);
        let o = bv.cycle(false, true); // {2,3}
        assert_eq!(bv.values(), vec![2, 3]);
        assert!(o.en_out); // 3 in window [3,5]
        assert!(o.en_loop);
    }

    #[test]
    fn bitvector_token_falls_off_at_size() {
        let mut bv = BitVectorModule::new(3, 1, 3, false);
        bv.cycle(true, false);
        bv.cycle(false, true); // {1}
        bv.cycle(false, true); // {2}
        bv.cycle(false, true); // {3}
        assert_eq!(bv.values(), vec![3]);
        let o = bv.cycle(false, true); // shifts out → {}
        assert!(bv.values().is_empty());
        assert!(!o.en_out && !o.en_loop);
    }

    #[test]
    fn bitvector_resets_when_body_fails() {
        let mut bv = BitVectorModule::new(10, 2, 10, false);
        bv.cycle(true, false);
        bv.cycle(false, true);
        bv.cycle(false, true);
        assert!(!bv.values().is_empty());
        bv.cycle(false, false); // body predicate failed: all tokens die
        assert!(bv.values().is_empty());
    }

    #[test]
    fn bitvector_window_out_only_in_range() {
        let mut bv = BitVectorModule::new(4, 2, 3, false);
        bv.cycle(true, false);
        let o = bv.cycle(false, true); // {1}
        assert!(!o.en_out);
        let o = bv.cycle(false, true); // {2}
        assert!(o.en_out);
        let o = bv.cycle(false, true); // {3}
        assert!(o.en_out);
        let o = bv.cycle(false, true); // {4}: outside window, still loops? 4 = size → no loop
        assert!(!o.en_out);
        assert!(!o.en_loop);
    }

    #[test]
    #[should_panic(expected = "bad window")]
    fn bitvector_rejects_bad_window() {
        let _ = BitVectorModule::new(5, 3, 7, false);
    }

    #[test]
    fn activity_counting() {
        let mut m = CounterModule::new(1, Some(3), false);
        m.cycle(false, false, false);
        assert_eq!(m.active_cycles(), 0);
        m.cycle(true, false, false);
        m.cycle(false, true, false);
        assert_eq!(m.active_cycles(), 2);
        let mut bv = BitVectorModule::new(5, 1, 5, false);
        bv.cycle(false, false);
        assert_eq!(bv.active_cycles(), 0);
        bv.cycle(true, false);
        bv.cycle(false, true);
        assert_eq!(bv.active_cycles(), 2);
    }
}
