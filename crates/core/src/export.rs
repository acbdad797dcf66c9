//! Export to TLA⁺ source.
//!
//! Components built with this library can be emitted as a TLA⁺ module
//! so they can be cross-checked with the standard TLA⁺ tooling (TLC,
//! TLAPS) — the natural interoperability target for a mechanization of
//! a TLA paper.
//!
//! The emitted module declares every variable, defines each
//! component's `Init`, per-action operators, `Next`, and fairness, and
//! assembles the closed-system `Spec`. Variable names are sanitized
//! (`i.sig` becomes `i_sig`).

use crate::ComponentSpec;
use opentla_check::GuardedAction;
use opentla_kernel::{BinOp, Domain, Expr, FairnessKind, UnOp, Value, VarId, Vars};
use std::fmt::Write as _;

/// Renders a [`Value`] as a TLA⁺ literal.
fn tla_value(v: &Value) -> String {
    match v {
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Str(s) => format!("{s:?}"),
        Value::Tuple(items) | Value::Seq(items) => {
            let inner: Vec<String> = items.iter().map(tla_value).collect();
            format!("<<{}>>", inner.join(", "))
        }
    }
}

/// A TLA⁺-safe identifier for a variable.
fn tla_name(vars: &Vars, v: VarId) -> String {
    vars.name(v).replace(['.', '-', ' '], "_")
}

/// Renders an expression as TLA⁺ source.
pub fn tla_expr(vars: &Vars, e: &Expr) -> String {
    match e {
        Expr::Const(v) => tla_value(v),
        Expr::Var(v) => tla_name(vars, *v),
        Expr::Prime(v) => format!("{}'", tla_name(vars, *v)),
        Expr::Unary(UnOp::Not, x) => format!("~({})", tla_expr(vars, x)),
        Expr::Unary(UnOp::Neg, x) => format!("-({})", tla_expr(vars, x)),
        Expr::Unary(UnOp::Len, x) => format!("Len({})", tla_expr(vars, x)),
        Expr::Unary(UnOp::Head, x) => format!("Head({})", tla_expr(vars, x)),
        Expr::Unary(UnOp::Tail, x) => format!("Tail({})", tla_expr(vars, x)),
        Expr::Binary(op, a, b) => {
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "\\div",
                BinOp::Mod => "%",
                BinOp::Eq => "=",
                BinOp::Ne => "#",
                BinOp::Lt => "<",
                BinOp::Le => "<=",
                BinOp::Gt => ">",
                BinOp::Ge => ">=",
                BinOp::Implies => "=>",
                BinOp::Equiv => "<=>",
                BinOp::Concat => "\\o",
            };
            format!("({} {} {})", tla_expr(vars, a), sym, tla_expr(vars, b))
        }
        Expr::And(es) => {
            if es.is_empty() {
                "TRUE".to_string()
            } else {
                let inner: Vec<String> = es.iter().map(|x| tla_expr(vars, x)).collect();
                format!("({})", inner.join(" /\\ "))
            }
        }
        Expr::Or(es) => {
            if es.is_empty() {
                "FALSE".to_string()
            } else {
                let inner: Vec<String> = es.iter().map(|x| tla_expr(vars, x)).collect();
                format!("({})", inner.join(" \\/ "))
            }
        }
        Expr::Ite(c, a, b) => format!(
            "(IF {} THEN {} ELSE {})",
            tla_expr(vars, c),
            tla_expr(vars, a),
            tla_expr(vars, b)
        ),
        Expr::Tuple(es) | Expr::MkSeq(es) => {
            let inner: Vec<String> = es.iter().map(|x| tla_expr(vars, x)).collect();
            format!("<<{}>>", inner.join(", "))
        }
        Expr::InSet(x, set) => {
            let items: Vec<String> = set.iter().map(tla_value).collect();
            format!("({} \\in {{{}}})", tla_expr(vars, x), items.join(", "))
        }
    }
}

/// Renders a domain as a TLA⁺ set.
fn tla_domain(d: &Domain) -> String {
    // Contiguous integer ranges render as a..b.
    let ints: Option<Vec<i64>> = d.values().iter().map(Value::as_int).collect();
    if let Some(ints) = ints {
        if ints.len() > 1 && ints.windows(2).all(|w| w[1] == w[0] + 1) {
            return format!("{}..{}", ints[0], ints[ints.len() - 1]);
        }
    }
    let items: Vec<String> = d.values().iter().map(tla_value).collect();
    format!("{{{}}}", items.join(", "))
}

fn sanitize_op(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect();
    if cleaned.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        format!("A{cleaned}")
    } else {
        cleaned
    }
}

fn action_def(vars: &Vars, component: &ComponentSpec, a: &GuardedAction) -> String {
    let mut conjuncts = vec![tla_expr(vars, a.guard())];
    for (v, e) in a.updates() {
        conjuncts.push(format!("{}' = {}", tla_name(vars, *v), tla_expr(vars, e)));
    }
    let untouched: Vec<String> = component
        .owned()
        .into_iter()
        .chain(component.inputs().iter().copied())
        .filter(|v| !a.updates().iter().any(|(w, _)| w == v))
        .map(|v| tla_name(vars, v))
        .collect();
    if !untouched.is_empty() {
        conjuncts.push(format!("UNCHANGED <<{}>>", untouched.join(", ")));
    }
    conjuncts
        .iter()
        .map(|c| format!("  /\\ {c}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Emits a closed system of components as a complete TLA⁺ module.
///
/// The module contains a `TypeOK` predicate from the declared domains,
/// per-component `Init`/`Next`/action operators, the conjoined `Spec`,
/// and each component's fairness conditions.
///
/// # Example
///
/// ```
/// use opentla::{to_tla_module, ComponentSpec};
/// use opentla_check::{GuardedAction, Init};
/// use opentla_kernel::{Domain, Expr, Value, Vars};
///
/// # fn main() -> Result<(), opentla::SpecError> {
/// let mut vars = Vars::new();
/// let x = vars.declare("x", Domain::bits());
/// let toggler = ComponentSpec::builder("toggler")
///     .outputs([x])
///     .init(Init::new([(x, Value::Int(0))]))
///     .action(GuardedAction::new(
///         "toggle",
///         Expr::bool(true),
///         vec![(x, Expr::int(1).sub(Expr::var(x)))],
///     ))
///     .build()?;
/// let module = to_tla_module("Toggler", &vars, &[&toggler]);
/// assert!(module.contains("---- MODULE Toggler ----"));
/// assert!(module.contains("x' = (1 - x)"));
/// assert!(module.contains("Spec == Init /\\ [][Next]_vars"));
/// # Ok(())
/// # }
/// ```
pub fn to_tla_module(module_name: &str, vars: &Vars, components: &[&ComponentSpec]) -> String {
    let mut out = String::new();
    let title = format!("---- MODULE {module_name} ----");
    out.push_str(&title);
    out.push('\n');
    out.push_str("EXTENDS Integers, Sequences\n\n");

    let names: Vec<String> = vars.iter().map(|v| tla_name(vars, v)).collect();
    let _ = writeln!(out, "VARIABLES {}", names.join(", "));
    let _ = writeln!(out, "vars == <<{}>>\n", names.join(", "));

    let _ = writeln!(out, "TypeOK ==");
    for v in vars.iter() {
        let _ = writeln!(
            out,
            "  /\\ {} \\in {}",
            tla_name(vars, v),
            tla_domain(vars.domain(v))
        );
    }
    out.push('\n');

    for c in components {
        let prefix = sanitize_op(c.name());
        let _ = writeln!(out, "\\* component {}", c.name());
        let _ = writeln!(out, "{prefix}Init ==");
        for (v, val) in c.init().fixed() {
            let _ = writeln!(out, "  /\\ {} = {}", tla_name(vars, *v), tla_value(val));
        }
        if let Some(constraint) = c.init().constraint() {
            let _ = writeln!(out, "  /\\ {}", tla_expr(vars, constraint));
        }
        if c.init().fixed().is_empty() && c.init().constraint().is_none() {
            let _ = writeln!(out, "  TRUE");
        }
        let mut action_ops = Vec::new();
        for a in c.actions() {
            let op = format!("{prefix}_{}", sanitize_op(a.name()));
            let _ = writeln!(out, "{op} ==\n{}", action_def(vars, c, a));
            action_ops.push(op);
        }
        if action_ops.is_empty() {
            let _ = writeln!(out, "{prefix}Next == FALSE");
        } else {
            let _ = writeln!(out, "{prefix}Next == {}", action_ops.join(" \\/ "));
        }
        out.push('\n');
    }

    let init = components
        .iter()
        .map(|c| format!("{}Init", sanitize_op(c.name())))
        .collect::<Vec<_>>()
        .join(" /\\ ");
    let next = components
        .iter()
        .map(|c| format!("{}Next", sanitize_op(c.name())))
        .collect::<Vec<_>>()
        .join(" \\/ ");
    let _ = writeln!(out, "Init == {init}");
    let _ = writeln!(out, "Next == {next}\n");

    let mut fairness = Vec::new();
    for c in components {
        let prefix = sanitize_op(c.name());
        for (k, (kind, ids)) in c.fairness().iter().enumerate() {
            let action = ids
                .iter()
                .map(|i| format!("{prefix}_{}", sanitize_op(c.actions()[*i].name())))
                .collect::<Vec<_>>()
                .join(" \\/ ");
            let sub = c
                .owned()
                .into_iter()
                .map(|v| tla_name(vars, v))
                .collect::<Vec<_>>()
                .join(", ");
            let wf = match kind {
                FairnessKind::Weak => "WF",
                FairnessKind::Strong => "SF",
            };
            let op = format!("{prefix}Fair{k}");
            let _ = writeln!(out, "{op} == {wf}_<<{sub}>>({action})");
            fairness.push(op);
        }
    }
    out.push('\n');
    let fair_conj = if fairness.is_empty() {
        String::new()
    } else {
        format!(" /\\ {}", fairness.join(" /\\ "))
    };
    let _ = writeln!(out, "Spec == Init /\\ [][Next]_vars{fair_conj}");
    out.push_str(&"=".repeat(title.chars().count()));
    out.push('\n');
    out
}

/// Emits a counterexample trace as a TLA⁺ module defining
/// `Trace == <<state₁, state₂, …>>` (each state a record) plus a
/// `LoopStart` constant for lasso counterexamples — replayable next to
/// the exported specification.
pub fn trace_to_tla_module(
    module_name: &str,
    vars: &Vars,
    cx: &opentla_check::Counterexample,
) -> String {
    let mut out = String::new();
    let title = format!("---- MODULE {module_name} ----");
    out.push_str(&title);
    out.push('\n');
    let _ = writeln!(out, "\\* {}", cx.reason());
    let _ = writeln!(out, "Trace == <<");
    for (i, (state, action)) in cx.states().iter().zip(cx.actions()).enumerate() {
        let fields: Vec<String> = vars
            .iter()
            .map(|v| {
                format!(
                    "{} |-> {}",
                    tla_name(vars, v),
                    state.try_get(v).map_or("?".to_string(), tla_value)
                )
            })
            .collect();
        let label = action.as_deref().unwrap_or("init");
        let comma = if i + 1 < cx.states().len() { "," } else { "" };
        let _ = writeln!(out, "  [{}]{comma} \\* {label}", fields.join(", "));
    }
    let _ = writeln!(out, ">>");
    match cx.loop_start() {
        Some(l) => {
            // TLA⁺ sequences are 1-indexed.
            let _ = writeln!(out, "LoopStart == {}", l + 1);
        }
        None => {
            let _ = writeln!(out, "\\* finite trace: extend by stuttering");
        }
    }
    out.push_str(&"=".repeat(title.chars().count()));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use opentla_check::Init;
    use opentla_kernel::Domain;

    fn sample() -> (Vars, ComponentSpec, ComponentSpec) {
        let mut vars = Vars::new();
        let c = vars.declare("c.sig", Domain::bits());
        let d = vars.declare("d", Domain::bits());
        let one = ComponentSpec::builder("one")
            .outputs([c])
            .inputs([d])
            .init(Init::new([(c, Value::Int(0))]))
            .action(GuardedAction::new(
                "copy d",
                Expr::var(d).eq(Expr::int(1)),
                vec![(c, Expr::var(d))],
            ))
            .weak_fairness([0])
            .build()
            .unwrap();
        let two = ComponentSpec::builder("two")
            .outputs([d])
            .inputs([c])
            .init(Init::new([(d, Value::Int(0))]))
            .build()
            .unwrap();
        (vars, one, two)
    }

    #[test]
    fn module_structure() {
        let (vars, one, two) = sample();
        let src = to_tla_module("Sample", &vars, &[&one, &two]);
        assert!(src.starts_with("---- MODULE Sample ----"));
        assert!(src.contains("VARIABLES c_sig, d"));
        assert!(src.contains("TypeOK =="));
        assert!(src.contains("c_sig \\in 0..1"));
        assert!(src.contains("oneInit =="));
        assert!(src.contains("one_copy_d =="));
        assert!(src.contains("UNCHANGED <<d>>"));
        assert!(src.contains("oneFair0 == WF_<<c_sig>>(one_copy_d)"));
        assert!(src.contains("twoNext == FALSE"));
        assert!(src.contains("Spec == Init /\\ [][Next]_vars /\\ oneFair0"));
        assert!(src.trim_end().ends_with('='));
    }

    #[test]
    fn expr_rendering() {
        let (vars, _, _) = sample();
        let c = vars.find("c.sig").unwrap();
        let d = vars.find("d").unwrap();
        let e = Expr::prime(c).eq(Expr::int(1).sub(Expr::var(d)));
        assert_eq!(tla_expr(&vars, &e), "(c_sig' = (1 - d))");
        let e = Expr::var(c).in_set([Value::Int(0), Value::Int(1)]);
        assert_eq!(tla_expr(&vars, &e), "(c_sig \\in {0, 1})");
        let e = Expr::MkSeq(vec![Expr::var(d)]).concat(Expr::empty_seq());
        assert_eq!(tla_expr(&vars, &e), "(<<d>> \\o <<>>)");
        let e = Expr::var(d)
            .eq(Expr::int(0))
            .ite(Expr::int(1), Expr::int(2));
        assert_eq!(tla_expr(&vars, &e), "(IF (d = 0) THEN 1 ELSE 2)");
    }

    #[test]
    fn value_rendering() {
        assert_eq!(tla_value(&Value::Bool(true)), "TRUE");
        assert_eq!(
            tla_value(&Value::seq(vec![Value::Int(1), Value::Int(2)])),
            "<<1, 2>>"
        );
        assert_eq!(tla_value(&Value::str("hi")), "\"hi\"");
    }

    #[test]
    fn trace_export() {
        use opentla_check::Counterexample;
        use opentla_kernel::State;
        let (vars, _, _) = sample();
        let cx = Counterexample::new(
            "liveness violated",
            vec![
                State::new(vec![Value::Int(0), Value::Int(0)]),
                State::new(vec![Value::Int(1), Value::Int(0)]),
            ],
            vec![None, Some("copy d".into())],
            Some(1),
        );
        let src = trace_to_tla_module("Cx", &vars, &cx);
        assert!(src.contains("---- MODULE Cx ----"));
        assert!(src.contains("liveness violated"));
        assert!(src.contains("[c_sig |-> 0, d |-> 0], \\* init"));
        assert!(src.contains("[c_sig |-> 1, d |-> 0] \\* copy d"));
        assert!(src.contains("LoopStart == 2"));

        // Finite traces note the stuttering extension instead.
        let finite = Counterexample::new(
            "invariant violated",
            vec![State::new(vec![Value::Int(0), Value::Int(0)])],
            vec![None],
            None,
        );
        let src = trace_to_tla_module("Cx2", &vars, &finite);
        assert!(src.contains("stuttering"));
    }

    #[test]
    fn non_contiguous_domain_renders_as_set() {
        let d = Domain::new(vec![Value::Int(0), Value::Int(2)]);
        assert_eq!(tla_domain(&d), "{0, 2}");
        assert_eq!(tla_domain(&Domain::int_range(0, 3)), "0..3");
        assert_eq!(tla_domain(&Domain::booleans()), "{FALSE, TRUE}");
    }
}
