//! # opentla
//!
//! A mechanization of **Abadi & Lamport, *Open Systems in TLA* (PODC
//! 1994)**: assumption/guarantee specifications `E ⊳ M`, the auxiliary
//! operators `C(F)`, `F +v`, and `E ⊥ M`, Propositions 1–4, and the
//! **Composition Theorem** — as *checked proof rules* whose hypotheses
//! are discharged by the explicit-state model checker of
//! `opentla-check` and recorded in auditable [`Certificate`]s.
//!
//! ## The shape of the theory
//!
//! * A [`ComponentSpec`] is a canonical-form specification
//!   `∃x : Init ∧ □[N]_{⟨m,x⟩} ∧ L` (Section 2.2 of the paper): output
//!   variables `m`, internal variables `x`, input variables `e`, a
//!   next-state action given as guarded commands, and fairness
//!   conditions over sub-actions of `N`. The builder enforces the
//!   side conditions the paper needs: actions touch only owned
//!   variables (so `N ⇒ (e' = e)`, the interleaving condition) and
//!   fairness refers to sub-actions of `N` (the side condition of
//!   Proposition 1, so closures are computed syntactically).
//! * An [`AgSpec`] pairs an environment assumption (a safety-only
//!   component) with a system guarantee; its meaning is the formula
//!   `E ⊳ M`.
//! * [`compose`] applies the **Composition Theorem**: given
//!   `E_j ⊳ M_j` components and a target `E ⊳ M`, it generates the
//!   theorem's hypotheses —
//!   1. `C(E) ∧ ∧ C(M_j) ⇒ E_i` for each `i`,
//!   2. (a) `C(E)+v ∧ ∧ C(M_j) ⇒ C(M)` and (b) `E ∧ ∧ M_j ⇒ M`
//!
//!   — eliminates `C` via Propositions 1–2 and `+v` via Propositions
//!   3–4, discharges each resulting complete-system obligation by
//!   model checking, and returns a [`Certificate`].
//! * [`refine`] is the paper's Corollary: refinement under a fixed
//!   environment assumption, `(E ⊳ M') ⇒ (E ⊳ M)`.
//! * [`check_ag_safety`] decides whether an implementation *realizes*
//!   an assumption/guarantee specification (safety part), by running
//!   the implementation against a chaos environment with an `⊳` monitor;
//!   [`check_ag_safety_diagnosed`] additionally pinpoints *where* the
//!   environment first broke the assumption ("M held k+1 steps, E
//!   broken at step k").
//! * The [`faults`] combinators (re-exported from `opentla-check`)
//!   manufacture adversarial environments — lossy channels, duplicating
//!   channels, crash–restart components, and assumption-breaking
//!   hostile environments — and every engine runs under a [`Budget`],
//!   degrading to partial, [`Outcome`]-tagged results (and
//!   [`ObligationStatus::Undecided`] certificates) when resources run
//!   out.
//!
//! Interleaving composition requires the conditional-implementation
//! guarantee `G = Disjoint(…)` (Section 2.3 and the appendix); the
//! closed product built here enforces `G` *structurally* — one
//! component steps at a time — and the certificate records `G`
//! explicitly so the conclusion reads `G ∧ ∧(E_j ⊳ M_j) ⇒ (E ⊳ M)`.
//!
//! ## Example
//!
//! The paper's first example: two processes, each guaranteeing its
//! output stays 0 assuming the other's does. See
//! [`compose`] for the worked version; the `opentla-queue` crate builds
//! the appendix's double-queue proof in full.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ag;
mod assembly;
mod certificate;
mod component;
mod compose;
mod error;
mod export;
mod props;
mod refinement;
mod suite;

pub use ag::{
    chaos_environment, check_ag_safety, check_ag_safety_diagnosed, AgReport, AgSpec,
    AssumptionBreak,
};
pub use assembly::closed_product;
pub use certificate::{Certificate, Method, Obligation, ObligationStatus};
pub use component::{ComponentBuilder, ComponentSpec};
pub use compose::{compose, refine, CompositionOptions, CompositionProblem};
pub use error::SpecError;
pub use export::{tla_expr, to_tla_module, trace_to_tla_module};
pub use props::{
    disjoint, proposition_1, proposition_2_sides, proposition_3_reduction,
    proposition_4_initial_condition, Prop3Reduction,
};
pub use refinement::{check_component_refinement, RefinementReport};
pub use suite::{CheckKind, Suite, SuiteEntry};

// Robustness layer, re-exported from `opentla-check` so open-system
// studies can inject faults and govern resources without a direct
// dependency on the checker crate.
pub use opentla_check::faults;
pub use opentla_check::{escalate, Budget, ExhaustReason, Governed, Outcome};

// Observability layer: structured run events, live progress metrics,
// and exportable run reports, routed by `OPENTLA_OBS=/path.jsonl` or
// an explicit recorder on the [`Budget`].
pub use opentla_check::obs;
pub use opentla_check::{CountingRecorder, JsonlRecorder, Recorder, RecorderHandle, RunReport};
