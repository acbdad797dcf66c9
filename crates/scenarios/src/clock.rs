//! Timestamping under a "law of nature" — the paper's Section 2.3.
//!
//! Section 2.3 lists the uses of conditional implementation
//! `⊨ G ∧ … ⇒ …`; the first is a *law of nature*, e.g. "time increases
//! monotonically". Section 5 then notes the Composition Theorem covers
//! this for free: "we just let `M₁` equal `G` and `E₁` equal `true`,
//! since `true ⊳ G` equals `G`".
//!
//! This scenario exercises exactly that move. A clock component `G`
//! owns `now` and only ever advances it. Two stampers each own a
//! timestamp wire `tᵢ` and guarantee, *assuming the clock behaves*,
//! that their timestamp only ever moves forward and never runs ahead
//! of `now`. The target — "all timestamps are monotone and bounded by
//! `now`" — is certified by composing the stampers with the clock
//! supplied as a `TRUE ⊳ G` component.

use opentla::{
    AgSpec, Certificate, ComponentSpec, CompositionOptions, CompositionProblem, SpecError,
};
use opentla_check::{GuardedAction, Init, System};
use opentla_kernel::{Domain, Expr, Substitution, Value, VarId, Vars};

/// The clock world: a bounded monotonic clock and two timestampers.
#[derive(Clone, Debug)]
pub struct ClockWorld {
    vars: Vars,
    now: VarId,
    stamps: Vec<VarId>,
    horizon: i64,
}

impl ClockWorld {
    /// Builds the world with `stampers` timestamp wires and time
    /// bounded by `horizon` (the domain is `0..=horizon`).
    ///
    /// # Panics
    ///
    /// Panics if `stampers` is zero or `horizon` is not positive.
    pub fn new(stampers: usize, horizon: i64) -> ClockWorld {
        assert!(stampers > 0, "need at least one stamper");
        assert!(horizon > 0, "time must be able to advance");
        let mut vars = Vars::new();
        let now = vars.declare("now", Domain::int_range(0, horizon));
        let stamps = (1..=stampers)
            .map(|i| vars.declare(format!("t{i}"), Domain::int_range(0, horizon)))
            .collect();
        ClockWorld {
            vars,
            now,
            stamps,
            horizon,
        }
    }

    /// The registry.
    pub fn vars(&self) -> &Vars {
        &self.vars
    }

    /// The clock variable `now`.
    pub fn now(&self) -> VarId {
        self.now
    }

    /// The timestamp wire of stamper `i` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn stamp(&self, i: usize) -> VarId {
        self.stamps[i - 1]
    }

    /// The law of nature `G`: `now` starts at 0 and only ever advances
    /// (bounded by the horizon, since the checker is explicit-state).
    pub fn clock(&self) -> ComponentSpec {
        ComponentSpec::builder("clock")
            .outputs([self.now])
            .init(Init::new([(self.now, Value::Int(0))]))
            .action(GuardedAction::new(
                "tick",
                Expr::var(self.now).lt(Expr::int(self.horizon)),
                vec![(self.now, Expr::var(self.now).add(Expr::int(1)))],
            ))
            .build()
            .expect("clock is well-formed")
    }

    /// Stamper `i`: owns `tᵢ`; its only action copies `now` into `tᵢ`.
    pub fn stamper(&self, i: usize) -> ComponentSpec {
        let t = self.stamp(i);
        ComponentSpec::builder(format!("stamper{i}"))
            .outputs([t])
            .inputs([self.now])
            .init(Init::new([(t, Value::Int(0))]))
            .action(GuardedAction::new(
                "stamp",
                Expr::bool(true),
                vec![(t, Expr::var(self.now))],
            ))
            .build()
            .expect("stamper is well-formed")
    }

    /// Stamper `i`'s assumption: the clock only advances (the same
    /// component spec as [`ClockWorld::clock`], since assumptions are
    /// just component specifications of the environment).
    pub fn stamper_env(&self) -> ComponentSpec {
        self.clock()
    }

    /// The target guarantee: every timestamp only moves forward and
    /// never beyond `now` — expressed canonically as a component owning
    /// all stamps whose actions may set `tᵢ` to any value in
    /// `(tᵢ, now]`... rendered as one action per target value.
    pub fn target_guarantee(&self) -> ComponentSpec {
        let mut builder = ComponentSpec::builder("monotone-stamps")
            .outputs(self.stamps.iter().copied())
            .inputs([self.now])
            .init(Init::new(self.stamps.iter().map(|t| (*t, Value::Int(0)))));
        for (idx, t) in self.stamps.iter().enumerate() {
            for v in 0..=self.horizon {
                builder = builder.action(GuardedAction::new(
                    format!("advance{}to{v}", idx + 1),
                    Expr::all([
                        Expr::int(v).ge(Expr::var(*t)),
                        Expr::int(v).le(Expr::var(self.now)),
                    ]),
                    vec![(*t, Expr::int(v))],
                ));
            }
        }
        builder.build().expect("target is well-formed")
    }

    /// Certifies, via the Composition Theorem with the clock supplied
    /// as `TRUE ⊳ G`, that the stampers under the law of nature
    /// implement the monotone-timestamps target:
    /// `G ∧ ∧ᵢ (clock ⊳ stamperᵢ) ⇒ (TRUE ⊳ monotone-stamps)`.
    ///
    /// # Errors
    ///
    /// Structural errors only.
    pub fn prove(&self, options: &CompositionOptions) -> Result<Certificate, SpecError> {
        let true_env = ComponentSpec::builder("TRUE").build()?;
        // The paper's move: M₁ = G, E₁ = TRUE.
        let mut ags = vec![AgSpec::new(true_env.clone(), self.clock())?];
        for i in 1..=self.stamps.len() {
            ags.push(AgSpec::new(self.stamper_env(), self.stamper(i))?);
        }
        let target = AgSpec::new(true_env, self.target_guarantee())?;
        let problem = CompositionProblem {
            vars: &self.vars,
            components: ags.iter().collect(),
            target: &target,
            mapping: Substitution::default(),
        };
        opentla::compose(&problem, options)
    }

    /// The closed product (clock plus stampers).
    ///
    /// # Errors
    ///
    /// Never fails for the components built here.
    pub fn product(&self) -> Result<System, SpecError> {
        let clock = self.clock();
        let stampers: Vec<ComponentSpec> =
            (1..=self.stamps.len()).map(|i| self.stamper(i)).collect();
        let mut members: Vec<&ComponentSpec> = vec![&clock];
        members.extend(stampers.iter());
        opentla::closed_product(&self.vars, &members)
    }

    /// The invariant "no timestamp runs ahead of the clock".
    pub fn bounded_by_now(&self) -> Expr {
        Expr::all(
            self.stamps
                .iter()
                .map(|t| Expr::var(*t).le(Expr::var(self.now))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opentla_check::{check_invariant, check_step_invariant, explore, ExploreOptions};

    #[test]
    fn law_of_nature_composition_certifies() {
        let w = ClockWorld::new(2, 3);
        let cert = w.prove(&CompositionOptions::default()).unwrap();
        assert!(cert.holds(), "{}", cert.display(w.vars()));
        // The clock enters as a component: an H1 per stamper assumption
        // plus the trivial one for the clock's own TRUE assumption.
        let h1s = cert
            .obligations
            .iter()
            .filter(|o| o.id.starts_with("H1"))
            .count();
        assert_eq!(h1s, 3);
    }

    #[test]
    fn product_invariants() {
        let w = ClockWorld::new(2, 3);
        let sys = w.product().unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        assert!(check_invariant(&sys, &graph, &w.bounded_by_now())
            .unwrap()
            .holds());
        // Monotonicity as a step invariant: t₁ never decreases.
        let t1 = w.stamp(1);
        let mono = Expr::prime(t1).ge(Expr::var(t1));
        let all_vars: Vec<_> = w.vars().iter().collect();
        assert!(check_step_invariant(&sys, &graph, &mono, &all_vars)
            .unwrap()
            .holds());
    }

    #[test]
    fn without_the_law_the_guarantee_fails() {
        // Replace the clock with a free-running "time machine" that may
        // also rewind: the stampers' assumption is then violated and
        // the target fails (stamps can go backwards). Check at the
        // complete-system level.
        let w = ClockWorld::new(1, 3);
        let mut vars = w.vars().clone();
        let now = w.now();
        let rewind = ComponentSpec::builder("time-machine")
            .outputs([now])
            .init(Init::new([(now, Value::Int(0))]))
            .action(GuardedAction::new(
                "tick",
                Expr::var(now).lt(Expr::int(3)),
                vec![(now, Expr::var(now).add(Expr::int(1)))],
            ))
            .action(GuardedAction::new(
                "rewind",
                Expr::var(now).gt(Expr::int(0)),
                vec![(now, Expr::int(0))],
            ))
            .build()
            .unwrap();
        let stamper = w.stamper(1);
        let sys = opentla::closed_product(&vars, &[&rewind, &stamper]).unwrap();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let t1 = w.stamp(1);
        let mono = Expr::prime(t1).ge(Expr::var(t1));
        let all_vars: Vec<_> = vars.iter().collect();
        let verdict = check_step_invariant(&sys, &graph, &mono, &all_vars).unwrap();
        assert!(
            !verdict.holds(),
            "with a rewinding clock the stamps go backwards"
        );
        let _ = &mut vars;
    }
}
