//! Finite universes of states.

use crate::SemanticsError;
use opentla_kernel::{Expr, State, StatePair, Value, VarId, Vars};

/// A finite universe: every declared variable ranges over its finite
/// domain, and a state is any element of the domain product.
///
/// Universes make the non-local constructs of the logic decidable:
/// `Enabled A` (needed by `WF`/`SF`), witness search for `∃`, and
/// extension search for prefix satisfaction.
#[derive(Clone, Debug)]
pub struct Universe {
    vars: Vars,
}

impl Universe {
    /// Builds a universe over a variable registry.
    pub fn new(vars: Vars) -> Self {
        Universe { vars }
    }

    /// The underlying registry.
    pub fn vars(&self) -> &Vars {
        &self.vars
    }

    /// Total number of states, if it fits a `u128`.
    pub fn state_count(&self) -> Option<u128> {
        self.vars.state_space_size()
    }

    /// Whether every variable of the state is within its domain.
    pub fn contains(&self, s: &State) -> bool {
        self.vars.iter().all(|v| {
            s.try_get(v)
                .is_some_and(|val| self.vars.domain(v).contains(val))
        })
    }

    /// Enumerates all states of the universe, in lexicographic domain
    /// order.
    pub fn states(&self) -> StatesIter<'_> {
        StatesIter {
            universe: self,
            indices: vec![0; self.vars.len()],
            done: false,
        }
    }

    /// Enumerates the states that agree with `base` outside of `vary`,
    /// while the listed variables range over their domains.
    pub fn variants<'a>(
        &'a self,
        base: &State,
        vary: &'a [VarId],
    ) -> impl Iterator<Item = State> + 'a {
        VariantsIter {
            universe: self,
            base: base.clone(),
            vary,
            indices: vec![0; vary.len()],
            done: vary.iter().any(|v| v.index() >= base.len()),
        }
    }

    /// Decides `Enabled A` in state `s`: whether some universe state
    /// `t` makes `⟨s, t⟩` an `A` step.
    ///
    /// The witness search varies only the variables primed in `A` —
    /// sound because `A` cannot observe the others in the next state —
    /// and within those, skips variables a top-level `v' = v` conjunct
    /// pins to their current value (see
    /// [`opentla_kernel::determined_primes`]). Actions with frame
    /// conditions prime every variable, so the search would otherwise
    /// enumerate (nearly) the whole universe per query. `Enabled` also
    /// distributes over disjunction, which keeps the pruning effective
    /// for joint actions `A₁ ∨ … ∨ Aₖ` whose frame conditions differ
    /// per disjunct.
    ///
    /// # Errors
    ///
    /// Propagates expression evaluation errors.
    pub fn enabled(&self, action: &Expr, s: &State) -> Result<bool, SemanticsError> {
        // Enabled (A ∨ B) ≡ Enabled A ∨ Enabled B.
        if let Expr::Or(disjuncts) = action {
            for d in disjuncts {
                if self.enabled(d, s)? {
                    return Ok(true);
                }
            }
            return Ok(false);
        }
        // Enabled ((A ∨ B) ∧ R) ≡ Enabled (A ∧ R) ∨ Enabled (B ∧ R):
        // pull a disjunctive conjunct out so each branch exposes its own
        // frame conditions at the top level.
        if let Expr::And(conjuncts) = action {
            if let Some(pos) = conjuncts.iter().position(|c| matches!(c, Expr::Or(_))) {
                let Expr::Or(disjuncts) = &conjuncts[pos] else {
                    unreachable!("position matched an Or");
                };
                for d in disjuncts {
                    let mut branch = conjuncts.clone();
                    branch[pos] = d.clone();
                    if self.enabled(&Expr::all(branch), s)? {
                        return Ok(true);
                    }
                }
                return Ok(false);
            }
        }
        let determined = opentla_kernel::determined_primes(action);
        let vary: Vec<VarId> = action
            .primed_vars()
            .iter()
            .filter(|v| !determined.contains(*v))
            .collect();
        for t in self.variants(s, &vary) {
            if action.holds_action(StatePair::new(s, &t))? {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// Iterator over all states of a universe.
pub struct StatesIter<'a> {
    universe: &'a Universe,
    indices: Vec<usize>,
    done: bool,
}

impl Iterator for StatesIter<'_> {
    type Item = State;

    fn next(&mut self) -> Option<State> {
        if self.done {
            return None;
        }
        let vars = &self.universe.vars;
        let values: Vec<Value> = vars
            .iter()
            .zip(&self.indices)
            .map(|(v, i)| vars.domain(v).values()[*i].clone())
            .collect();
        // Advance odometer.
        let mut carried = true;
        for (v, i) in vars.iter().zip(self.indices.iter_mut()) {
            if !carried {
                break;
            }
            *i += 1;
            if *i < vars.domain(v).len() {
                carried = false;
            } else {
                *i = 0;
            }
        }
        if carried {
            self.done = true;
        }
        Some(State::new(values))
    }
}

struct VariantsIter<'a> {
    universe: &'a Universe,
    base: State,
    vary: &'a [VarId],
    indices: Vec<usize>,
    done: bool,
}

impl Iterator for VariantsIter<'_> {
    type Item = State;

    fn next(&mut self) -> Option<State> {
        if self.done {
            return None;
        }
        let vars = &self.universe.vars;
        let updates: Vec<(VarId, Value)> = self
            .vary
            .iter()
            .zip(&self.indices)
            .map(|(v, i)| (*v, vars.domain(*v).values()[*i].clone()))
            .collect();
        let state = self.base.with(&updates);
        let mut carried = true;
        for (v, i) in self.vary.iter().zip(self.indices.iter_mut()) {
            if !carried {
                break;
            }
            *i += 1;
            if *i < vars.domain(*v).len() {
                carried = false;
            } else {
                *i = 0;
            }
        }
        if carried {
            self.done = true;
        }
        Some(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opentla_kernel::Domain;

    fn setup() -> (Universe, VarId, VarId) {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::bits());
        let y = vars.declare("y", Domain::int_range(0, 2));
        (Universe::new(vars), x, y)
    }

    #[test]
    fn enumerates_full_product() {
        let (u, _, _) = setup();
        let states: Vec<State> = u.states().collect();
        assert_eq!(states.len(), 6);
        assert_eq!(u.state_count(), Some(6));
        // All distinct.
        for (i, s) in states.iter().enumerate() {
            assert!(!states[..i].contains(s));
            assert!(u.contains(s));
        }
    }

    #[test]
    fn variants_fix_the_rest() {
        let (u, x, y) = setup();
        let base = State::new(vec![Value::Int(0), Value::Int(2)]);
        let vs: Vec<State> = u.variants(&base, &[x]).collect();
        assert_eq!(vs.len(), 2);
        for s in &vs {
            assert_eq!(s.get(y), &Value::Int(2));
        }
        // Varying nothing yields just the base.
        let vs: Vec<State> = u.variants(&base, &[]).collect();
        assert_eq!(vs, vec![base]);
    }

    #[test]
    fn enabledness() {
        let (u, x, y) = setup();
        // A = x' = 1 ∧ x = 0: enabled iff x = 0.
        let a = Expr::all([
            Expr::prime(x).eq(Expr::int(1)),
            Expr::var(x).eq(Expr::int(0)),
        ]);
        let s0 = State::new(vec![Value::Int(0), Value::Int(0)]);
        let s1 = State::new(vec![Value::Int(1), Value::Int(0)]);
        assert!(u.enabled(&a, &s0).unwrap());
        assert!(!u.enabled(&a, &s1).unwrap());
        // An action with an unsatisfiable prime constraint is disabled:
        // y' = 5 but 5 is outside y's domain.
        let b = Expr::prime(y).eq(Expr::int(5));
        assert!(!u.enabled(&b, &s0).unwrap());
    }

    #[test]
    fn enabledness_with_frame_conditions_and_disjunction() {
        let (u, x, y) = setup();
        let s0 = State::new(vec![Value::Int(0), Value::Int(0)]);
        let s1 = State::new(vec![Value::Int(1), Value::Int(2)]);
        // A = x = 0 ∧ x' = 1 ∧ UNCHANGED y: the y' = y conjunct is
        // determined, so the witness search varies only x — and the
        // verdict matches the unpruned semantics.
        let a = Expr::all([
            Expr::var(x).eq(Expr::int(0)),
            Expr::prime(x).eq(Expr::int(1)),
            Expr::prime(y).eq(Expr::var(y)),
        ]);
        assert!(u.enabled(&a, &s0).unwrap());
        assert!(!u.enabled(&a, &s1).unwrap());
        // B = y = 2 ∧ y' = 0 ∧ UNCHANGED x. The joint action A ∨ B is
        // enabled wherever either disjunct is, each pruned by its own
        // frame conditions.
        let b = Expr::all([
            Expr::var(y).eq(Expr::int(2)),
            Expr::prime(y).eq(Expr::int(0)),
            Expr::prime(x).eq(Expr::var(x)),
        ]);
        let joint = a.clone().or(b.clone());
        assert!(u.enabled(&joint, &s0).unwrap());
        assert!(u.enabled(&joint, &s1).unwrap());
        let neither = State::new(vec![Value::Int(1), Value::Int(0)]);
        assert!(!u.enabled(&joint, &neither).unwrap());
        // ⟨A ∨ B⟩_{x,y} nests the disjunction under a conjunction — the
        // distribution rule must still find each branch's witnesses.
        let angle = Expr::all([joint, opentla_kernel::unchanged(&[x, y]).not()]);
        assert!(u.enabled(&angle, &s0).unwrap());
        assert!(u.enabled(&angle, &s1).unwrap());
        assert!(!u.enabled(&angle, &neither).unwrap());
    }

    #[test]
    fn contains_rejects_out_of_domain() {
        let (u, _, _) = setup();
        let bad = State::new(vec![Value::Int(7), Value::Int(0)]);
        assert!(!u.contains(&bad));
        let short = State::new(vec![Value::Int(0)]);
        assert!(!u.contains(&short));
    }
}
