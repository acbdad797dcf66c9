//! Lasso (ultimately periodic) behaviors.

use crate::SemanticsError;
use opentla_kernel::{State, Vars};
use std::fmt;

/// An ultimately periodic behavior
/// `s₀ … s_{l-1} (s_l … s_{k-1})^ω`.
///
/// A lasso consists of `k` stored states and a `loop_start` index
/// `l < k`; positions `≥ k` fold back into the cycle. Lassos are the
/// behaviors that finite-state counterexamples take, and the class over
/// which this crate evaluates formulas.
///
/// The behavior with a single state repeated forever (stuttering) is
/// `Lasso::new(vec![s], 0)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Lasso {
    states: Vec<State>,
    loop_start: usize,
}

impl Lasso {
    /// Builds a lasso from its distinct positions and the loop start.
    ///
    /// # Errors
    ///
    /// Fails if `states` is empty or `loop_start >= states.len()`.
    pub fn new(states: Vec<State>, loop_start: usize) -> Result<Self, SemanticsError> {
        if states.is_empty() {
            return Err(SemanticsError::EmptyBehavior);
        }
        if loop_start >= states.len() {
            return Err(SemanticsError::BadLoopStart {
                loop_start,
                len: states.len(),
            });
        }
        Ok(Lasso { states, loop_start })
    }

    /// The behavior that stutters forever on `s`.
    pub fn stutter(s: State) -> Self {
        Lasso {
            states: vec![s],
            loop_start: 0,
        }
    }

    /// A finite behavior extended by stuttering on its last state
    /// forever — the canonical extension used to decide prefix
    /// satisfaction of safety properties.
    ///
    /// # Errors
    ///
    /// Fails if `prefix` is empty.
    pub fn stutter_extend(prefix: Vec<State>) -> Result<Self, SemanticsError> {
        let loop_start = prefix.len().saturating_sub(1);
        Lasso::new(prefix, loop_start)
    }

    /// Number of stored (distinct-position) states, `k`.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Always `false`; lassos are nonempty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The loop start index `l`.
    pub fn loop_start(&self) -> usize {
        self.loop_start
    }

    /// The cycle length `k - l`.
    pub fn period(&self) -> usize {
        self.states.len() - self.loop_start
    }

    /// The stored states `s₀ … s_{k-1}`.
    pub fn states(&self) -> &[State] {
        &self.states
    }

    /// The state at an arbitrary position `i ≥ 0`, folding positions
    /// beyond the stored states into the cycle.
    pub fn state(&self, i: usize) -> &State {
        if i < self.states.len() {
            &self.states[i]
        } else {
            let p = self.period();
            &self.states[self.loop_start + (i - self.loop_start) % p]
        }
    }

    /// Folds a position into the canonical range `0..k`.
    pub fn normalize(&self, i: usize) -> usize {
        if i < self.states.len() {
            i
        } else {
            self.loop_start + (i - self.loop_start) % self.period()
        }
    }

    /// The suffix behavior `σ_{+i} = σ(i), σ(i+1), …` as a lasso.
    ///
    /// Distinct suffixes exist only for `i < k`; larger `i` are folded
    /// into the cycle first.
    pub fn suffix(&self, i: usize) -> Lasso {
        let i = self.normalize(i);
        if i <= self.loop_start {
            Lasso {
                states: self.states[i..].to_vec(),
                loop_start: self.loop_start - i,
            }
        } else {
            // Rotate the cycle so it starts at position i.
            let mut states = self.states[i..].to_vec();
            states.extend(self.states[self.loop_start..i].iter().cloned());
            Lasso {
                states,
                loop_start: 0,
            }
        }
    }

    /// The first `n` states as an owned prefix.
    pub fn prefix(&self, n: usize) -> Vec<State> {
        (0..n).map(|i| self.state(i).clone()).collect()
    }

    /// Iterates over the distinct steps of the behavior as index pairs
    /// `(i, j)` meaning the step from `σ(i)` to `σ(j)`. These are
    /// `(0,1), …, (k-2, k-1)` and the wrap step `(k-1, l)`; every step
    /// at a later position repeats one of these.
    pub fn steps(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let k = self.states.len();
        (0..k).map(move |i| {
            if i + 1 < k {
                (i, i + 1)
            } else {
                (i, self.loop_start)
            }
        })
    }

    /// Renders the lasso with variable names.
    pub fn display<'a>(&'a self, vars: &'a Vars) -> LassoDisplay<'a> {
        LassoDisplay { lasso: self, vars }
    }
}

/// Helper returned by [`Lasso::display`].
#[derive(Clone, Copy)]
pub struct LassoDisplay<'a> {
    lasso: &'a Lasso,
    vars: &'a Vars,
}

impl fmt::Display for LassoDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.lasso.states.iter().enumerate() {
            if i == self.lasso.loop_start {
                writeln!(f, "  ┌─ loop")?;
            }
            writeln!(f, "  {} {}", i, s.display(self.vars))?;
        }
        writeln!(f, "  └─ back to {}", self.lasso.loop_start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opentla_kernel::Value;

    fn s(i: i64) -> State {
        State::new(vec![Value::Int(i)])
    }

    #[test]
    fn construction_errors() {
        assert!(matches!(
            Lasso::new(vec![], 0),
            Err(SemanticsError::EmptyBehavior)
        ));
        assert!(matches!(
            Lasso::new(vec![s(0)], 1),
            Err(SemanticsError::BadLoopStart { .. })
        ));
    }

    #[test]
    fn position_folding() {
        // 0 1 (2 3)^ω
        let l = Lasso::new(vec![s(0), s(1), s(2), s(3)], 2).unwrap();
        assert_eq!(l.period(), 2);
        assert_eq!(l.state(0), &s(0));
        assert_eq!(l.state(3), &s(3));
        assert_eq!(l.state(4), &s(2));
        assert_eq!(l.state(5), &s(3));
        assert_eq!(l.state(100), &s(2));
        assert_eq!(l.normalize(100), 2);
    }

    #[test]
    fn suffix_before_loop() {
        let l = Lasso::new(vec![s(0), s(1), s(2), s(3)], 2).unwrap();
        let suf = l.suffix(1);
        assert_eq!(suf.states(), &[s(1), s(2), s(3)]);
        assert_eq!(suf.loop_start(), 1);
        // Suffix semantics: positions agree.
        for i in 0..10 {
            assert_eq!(suf.state(i), l.state(i + 1));
        }
    }

    #[test]
    fn suffix_inside_loop_rotates() {
        let l = Lasso::new(vec![s(0), s(1), s(2), s(3)], 1).unwrap();
        let suf = l.suffix(2);
        assert_eq!(suf.loop_start(), 0);
        for i in 0..10 {
            assert_eq!(suf.state(i), l.state(i + 2), "position {i}");
        }
        // A suffix beyond the stored states folds into the cycle first.
        let far = l.suffix(5); // normalize(5) = 1 + (5-1) % 3 = 2
        assert_eq!(far, suf);
    }

    #[test]
    fn steps_cover_wrap() {
        let l = Lasso::new(vec![s(0), s(1), s(2)], 1).unwrap();
        let steps: Vec<_> = l.steps().collect();
        assert_eq!(steps, vec![(0, 1), (1, 2), (2, 1)]);
    }

    #[test]
    fn display_marks_the_loop() {
        let mut vars = opentla_kernel::Vars::new();
        vars.declare("v", opentla_kernel::Domain::int_range(0, 9));
        let l = Lasso::new(vec![s(0), s(1), s(2)], 1).unwrap();
        let text = l.display(&vars).to_string();
        assert!(text.contains("┌─ loop"), "{text}");
        assert!(text.contains("v=1"), "{text}");
        assert!(text.contains("back to 1"), "{text}");
    }

    #[test]
    fn stutter_and_prefix() {
        let l = Lasso::stutter(s(7));
        assert_eq!(l.state(42), &s(7));
        assert_eq!(l.prefix(3), vec![s(7), s(7), s(7)]);
        let ext = Lasso::stutter_extend(vec![s(1), s(2)]).unwrap();
        assert_eq!(ext.state(0), &s(1));
        assert_eq!(ext.state(5), &s(2));
    }
}
