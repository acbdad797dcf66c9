//! Random behavior generation.
//!
//! Used by the property-based test suites (and benchmark workload
//! generators) to sample behaviors from a finite universe uniformly
//! enough to exercise the semantic operators.

use crate::{Lasso, Universe};
use opentla_kernel::{State, Value};
use rand::Rng;

/// Samples a uniformly random state of the universe.
pub fn random_state<R: Rng + ?Sized>(universe: &Universe, rng: &mut R) -> State {
    let vars = universe.vars();
    let values: Vec<Value> = vars
        .iter()
        .map(|v| {
            let d = vars.domain(v);
            d.values()[rng.gen_range(0..d.len())].clone()
        })
        .collect();
    State::new(values)
}

/// Samples a random lasso with up to `max_len` stored states and a
/// random loop start.
///
/// # Panics
///
/// Panics if `max_len` is zero.
pub fn random_lasso<R: Rng + ?Sized>(universe: &Universe, max_len: usize, rng: &mut R) -> Lasso {
    assert!(max_len > 0, "max_len must be positive");
    let len = rng.gen_range(1..=max_len);
    let states: Vec<State> = (0..len).map(|_| random_state(universe, rng)).collect();
    let loop_start = rng.gen_range(0..len);
    Lasso::new(states, loop_start).expect("nonempty by construction")
}

/// Enumerates **every** lasso over the universe with at most `max_len`
/// stored states (all state sequences × all loop starts).
///
/// The count is `Σ_{k=1..max_len} |U|^k · k`, so this is only for small
/// universes — it is the exhaustive oracle used to check *validity*
/// (`⊨ F`) claims in tests: for finite-state behaviors, a formula of
/// the mechanized fragment is valid iff it holds on every lasso.
pub fn all_lassos(universe: &Universe, max_len: usize) -> Vec<Lasso> {
    let states: Vec<State> = universe.states().collect();
    let mut out = Vec::new();
    let mut seqs: Vec<Vec<State>> = vec![vec![]];
    for _ in 0..max_len {
        let mut next = Vec::new();
        for seq in &seqs {
            for s in &states {
                let mut longer = seq.clone();
                longer.push(s.clone());
                for loop_start in 0..longer.len() {
                    out.push(Lasso::new(longer.clone(), loop_start).expect("nonempty"));
                }
                next.push(longer);
            }
        }
        seqs = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use opentla_kernel::{Domain, Vars};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn universe() -> Universe {
        let mut vars = Vars::new();
        vars.declare("x", Domain::bits());
        vars.declare("y", Domain::int_range(0, 2));
        Universe::new(vars)
    }

    #[test]
    fn random_states_are_in_domain() {
        let u = universe();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            let s = random_state(&u, &mut rng);
            assert!(u.contains(&s));
        }
    }

    #[test]
    fn random_lassos_are_well_formed() {
        let u = universe();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let l = random_lasso(&u, 5, &mut rng);
            assert!(l.len() <= 5);
            assert!(l.loop_start() < l.len());
            for s in l.states() {
                assert!(u.contains(s));
            }
        }
    }

    #[test]
    fn all_lassos_counts() {
        let mut vars = Vars::new();
        vars.declare("b", Domain::bits());
        let u = Universe::new(vars);
        // |U| = 2: k=1 → 2·1, k=2 → 4·2: total 10.
        let ls = all_lassos(&u, 2);
        assert_eq!(ls.len(), 10);
        // All distinct and well-formed.
        for (i, l) in ls.iter().enumerate() {
            assert!(l.loop_start() < l.len());
            assert!(!ls[..i].contains(l));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let u = universe();
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        assert_eq!(random_lasso(&u, 4, &mut a), random_lasso(&u, 4, &mut b));
    }
}
