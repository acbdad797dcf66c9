//! # opentla-kernel
//!
//! The logical kernel for the `opentla` workspace: a mechanization of the
//! TLA fragment used by Abadi & Lamport in *Open Systems in TLA* (PODC
//! 1994).
//!
//! This crate defines the *syntax* of the logic and its building blocks:
//!
//! * [`Value`] — the data values states assign to variables (booleans,
//!   integers, strings, tuples, and finite sequences);
//! * [`VarId`] / [`Vars`] — interned flexible variables with optional
//!   finite [`Domain`]s;
//! * [`State`] — an assignment of values to variables;
//! * [`codec`] — the canonical binary encoding of values and states
//!   (what the checker's checkpoint snapshots persist);
//! * [`Expr`] — state functions and actions (expressions over primed and
//!   unprimed variables);
//! * [`Formula`] — the temporal formula AST, including the paper's
//!   operators: `□[A]_v`, `WF`/`SF`, `∃` (hiding), the
//!   assumption/guarantee operator `E ⊳ M` ([`Formula::WhilePlus`]), the
//!   `+v` operator ([`Formula::Plus`]), orthogonality `E ⊥ M`
//!   ([`Formula::Ortho`]), and the closure `C(F)`
//!   ([`Formula::Closure`]);
//! * substitution and renaming utilities used for the paper's
//!   `F[1]`, `F[2]`, `F[dbl]` constructions and for refinement mappings.
//!
//! Evaluation of formulas over behaviors lives in `opentla-semantics`;
//! model checking lives in `opentla-check`; the assumption/guarantee
//! calculus itself lives in the `opentla` crate.
//!
//! # Example
//!
//! ```
//! use opentla_kernel::{Vars, Domain, Value, Expr, Formula};
//!
//! let mut vars = Vars::new();
//! let c = vars.declare("c", Domain::bits());
//! // The state predicate `c = 0` and the formula `□[false]_c ∧ (c = 0)`,
//! // i.e. "c is always 0" in canonical form.
//! let init = Expr::var(c).eq(Expr::int(0));
//! let spec = Formula::pred(init).and(Formula::act_box(Expr::bool(false), vec![c]));
//! assert_eq!(spec.display(&vars).to_string(), "((c = 0) ∧ □[FALSE]_⟨c⟩)");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
pub mod codec;
mod error;
mod expr;
mod formula;
mod packed;
pub mod scc;
mod state;
pub mod store;
mod subst;
mod value;
mod var;

pub use action::{box_action, determined_primes, enabled_vars, unchanged};
pub use error::{EvalError, KernelError};
pub use expr::{expect_bool, BinOp, Expr, ExprDisplay, UnOp};
pub use packed::PackedLayout;
pub use scc::{tarjan_sccs_with, SccScratch};
pub use formula::FormulaDisplay;
pub use state::StateDisplay;
pub use formula::{Fairness, FairnessKind, Formula};
pub use state::{State, StatePair};
pub use subst::{prime_expr, Renaming, Substitution};
pub use value::Value;
pub use var::{Domain, VarId, VarSet, Vars};
