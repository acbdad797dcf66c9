//! Fairness tables and per-component fairness satisfiability.
//!
//! The table builders precompute, per fairness requirement, which graph
//! edges are `⟨A⟩_v` steps and where the action is enabled, one state
//! row at a time in id order. A per-edge table is flat: one
//! [`EdgeTable`] bit per graph edge, addressed through the graph's own
//! row index ([`StateGraph::edge_base`]), and a per-state one a
//! [`Bits`] bit per state, so a table costs a bit per edge or state and
//! one allocation — no heap row per state, no index of its own.
//!
//! The system's own tables depend only on the system and the graph.
//! [`fill_system_fair_infos`] builds every requirement's in one fused
//! pass over the edges, reading each edge's two rows once for
//! all requirements, so a certificate builds them once and shares them
//! among its liveness checks. What a check is charged for them does not
//! depend on who built them: [`charge_system_tables`] replays, in one
//! bulk charge, the transition per requirement and edge that a
//! requirement-by-requirement scan charges, and cuts where that scan
//! would have.
//!
//! [`fair_subcomponent`] is the per-component satisfiability check,
//! including the Streett-style `SF` removal recursion. It is a pure
//! function of the component (plus the tables and the meter), and a
//! recursion step costs the component, not the graph: the survivors
//! are marked in one graph-sized mask kept in [`SccWork`], set before
//! their decomposition and cleared after it. A component of one state
//! is decided without a scan: it has no internal `⟨A⟩_v` edge, since a
//! self-loop leaves `v` unchanged, so its `enabled` bits and
//! `must_contain` decide it, and the edges a scan would have probed
//! are charged in bulk.

use super::scc::{tarjan_sccs, Components};
use super::{charge_edge, charge_edges, Stop};
use crate::budget::Meter;
use crate::compiled::{CompiledExpr, EvalScratch};
use crate::image::{Classes, Memo};
use crate::{CheckError, Session, StateGraph, System};
use opentla_kernel::{
    Expr, Fairness, FairnessKind, Formula, SccScratch, StatePair, Substitution, VarId,
};

/// A sequence of flags, a bit each, 64 to a word.
#[derive(Debug)]
pub(super) struct Bits {
    words: Vec<u64>,
    len: usize,
}

impl Bits {
    /// An empty row with room for `n` flags.
    fn with_capacity(n: usize) -> Self {
        Bits {
            words: Vec::with_capacity(n.div_ceil(64)),
            len: 0,
        }
    }

    /// Appends the next flag.
    fn push(&mut self, flag: bool) {
        let bit = self.len % 64;
        if bit == 0 {
            self.words.push(0);
        }
        if flag {
            *self.words.last_mut().expect("pushed above") |= 1 << bit;
        }
        self.len += 1;
    }

    /// The `at`-th flag.
    pub(super) fn get(&self, at: usize) -> bool {
        debug_assert!(at < self.len);
        self.words[at / 64] >> (at % 64) & 1 == 1
    }
}

/// One flag per graph edge, in graph order, a bit each.
pub(super) struct EdgeTable(Bits);

impl EdgeTable {
    /// An empty table with room for `edges` flags.
    fn with_capacity(edges: usize) -> Self {
        EdgeTable(Bits::with_capacity(edges))
    }

    /// Appends the flag of the next edge.
    fn push(&mut self, flag: bool) {
        self.0.push(flag);
    }

    /// The flag of the `i`-th edge of `s` in `graph`, the graph the
    /// table was built over.
    pub(super) fn get(&self, graph: &StateGraph, s: usize, i: usize) -> bool {
        self.0.get(graph.edge_base(s) + i)
    }
}

/// Runs `row(id, flags)` for every state `id` of `graph`, in id order.
/// A row pushes one flag per edge of its state onto `flags` and returns
/// the state's own flag; the result is the flat per-edge table and the
/// per-state flags.
///
/// On failure the reported `pending` is exact in state units: the
/// states whose rows were not finished, `n - id` at the failing row.
fn table_rows(
    graph: &StateGraph,
    mut row: impl FnMut(usize, &mut EdgeTable) -> Result<bool, Stop>,
) -> Result<(EdgeTable, Vec<bool>), Stop> {
    let n = graph.len();
    let mut edges = EdgeTable::with_capacity(graph.edge_count());
    let mut states = Vec::with_capacity(n);
    for id in 0..n {
        states.push(row(id, &mut edges).map_err(|stop| stop.with_pending(n - id))?);
    }
    assert_eq!(edges.0.len, graph.edge_count(), "a flag per graph edge");
    Ok((edges, states))
}

/// Per-fairness-requirement facts about the graph.
pub(super) struct FairInfo {
    pub(super) kind: FairnessKind,
    /// Is the i-th edge of `s` an `⟨A⟩_v` step?
    pub(super) angle: EdgeTable,
    /// Is `⟨A⟩_v` enabled in state `s`? A bit per state.
    pub(super) enabled: Bits,
}

/// Charges, in bulk, what a scan of the system's tables charges: a
/// transition per requirement and graph edge, requirement by
/// requirement, each in id order. On a cut the reported `pending` is
/// the one that scan reports, in state units: `n - id`, with `id` the
/// row of the edge whose charge was refused.
pub(super) fn charge_system_tables(
    system: &System,
    graph: &StateGraph,
    meter: &mut Meter,
) -> Result<(), Stop> {
    let edges = graph.edge_count();
    let charges = system.fairness().len() * edges;
    meter
        .charge_transitions(charges)
        .map_err(|(admitted, reason)| {
            // A cut means `charges > admitted`, so there is an edge; its
            // row is the first whose edges end past it.
            let edge = admitted % edges;
            let (mut id, mut hi) = (0, graph.len());
            while id < hi {
                let mid = id + (hi - id) / 2;
                if graph.edge_base(mid + 1) <= edge {
                    id = mid + 1;
                } else {
                    hi = mid;
                }
            }
            Stop::Exhausted {
                reason,
                pending: graph.len() - id,
            }
        })
}

/// The tables of the system's own fairness requirements, empty, with
/// room for every flag of `graph`: for [`fill_system_fair_infos`].
pub(super) fn reserve_system_fair_infos(system: &System, graph: &StateGraph) -> Vec<FairInfo> {
    (system.fairness().iter())
        .map(|f| FairInfo {
            kind: f.kind,
            angle: EdgeTable::with_capacity(graph.edge_count()),
            enabled: Bits::with_capacity(graph.len()),
        })
        .collect()
}

/// Fills the tables of the system's own fairness requirements,
/// reserved by [`reserve_system_fair_infos`], every requirement's in
/// one pass over the edges, uncharged. An edge is an `⟨A⟩_v` step when
/// one of the actions fired it and the codes of the subscript's slots
/// differ between the two rows — a code is a value's position in its
/// slot's domain, so that is `v' ≠ v`. Each edge's two rows are read
/// once for all requirements.
pub(super) fn fill_system_fair_infos(system: &System, graph: &StateGraph, infos: &mut [FairInfo]) {
    let layout = graph.layout();
    let fairness = system.fairness();
    // Whether action `a` is one of requirement `r`'s own, at
    // `r * actions + a`.
    let actions = system.actions().len();
    let own: Vec<bool> = (fairness.iter())
        .flat_map(|f| (0..actions).map(|a| f.action_ids.contains(&a)))
        .collect();
    let unchanged = |sub: &[VarId], s: &[u8], t: &[u8]| {
        (sub.iter()).all(|v| layout.read_code(s, v.index()) == layout.read_code(t, v.index()))
    };
    let mut fires = vec![false; fairness.len()];
    for id in 0..graph.len() {
        let s = graph.row(id);
        fires.fill(false);
        for e in graph.edges(id) {
            let t = graph.row(e.target);
            let requirements = fairness.iter().zip(infos.iter_mut()).zip(&mut fires);
            for (r, ((f, info), fires)) in requirements.enumerate() {
                let angle = own[r * actions + e.action] && !unchanged(&f.sub, s, t);
                info.angle.push(angle);
                *fires |= angle;
            }
        }
        for (info, &fires) in infos.iter_mut().zip(&fires) {
            info.enabled.push(fires);
        }
    }
}

/// Facts about the target fairness condition (semantic, since the
/// action may be an abstract action under a refinement mapping):
/// `(angle, enabled)`, shaped like the fields of [`FairInfo`].
///
/// `fair` and `enabled_with` are over the target's own variables and
/// `mapping` eliminates the abstract ones; its images are the
/// session's if it is the session's mapping. Each entry is decided once per image class (pair) of the
/// unsubstituted expressions: on ids where they can be read so
/// ([`IdsProgram`](crate::image::IdsProgram)), else by running them
/// compiled on the views of the abstract state or step; the
/// substituted expression is interpreted on the concrete one only where
/// [`Memo`] says it must (no class, or the abstract evaluation erred).
/// Charges and polls stay per concrete edge and row.
pub(super) fn target_fair_info(
    session: &Session<'_>,
    fair: &Fairness,
    enabled_with: Option<&Expr>,
    mapping: &Substitution,
    meter: &mut Meter,
) -> Result<(EdgeTable, Vec<bool>), Stop> {
    let (system, graph) = (session.system(), session.graph());
    let abstract_angle = fair.angle_action();
    let (angle_expr, enabled_pred) = if mapping.is_empty() {
        (abstract_angle.clone(), enabled_with.cloned())
    } else {
        let Some(enabled) = enabled_with else {
            return Err(Stop::Error(CheckError::Precondition {
                message: "a fairness target under a refinement mapping needs an \
                          explicit enabledness predicate: Enabled does not \
                          commute with substitution (LiveTarget::fair_mapped)"
                    .to_string(),
            }));
        };
        let mapped = mapping
            .formula(&Formula::Fair(fair.clone()))
            .map_err(CheckError::from)?;
        let Formula::Fair(mapped) = mapped else {
            unreachable!("substitution preserves the Fair constructor");
        };
        let enabled = mapping.expr(enabled).map_err(CheckError::from)?;
        (mapped.angle_action(), Some(enabled))
    };
    let mut footprint = abstract_angle.all_vars();
    if let Some(pred) = enabled_with {
        footprint.union_with(&pred.all_vars());
    }
    let mut own = None;
    let images = session.images_under(mapping, &mut own);
    let classes = Classes::of_graph(graph, &footprint, images);
    let angle_program = CompiledExpr::compile(&abstract_angle);
    let enabled_program = enabled_with.map(CompiledExpr::compile);
    let scratch = &mut EvalScratch::new();
    let mut is_angle = Memo::with_ids(&classes, std::slice::from_ref(&abstract_angle));
    let mut is_enabled = match enabled_with {
        Some(pred) => Memo::with_ids(&classes, std::slice::from_ref(pred)),
        None => Memo::new(&classes),
    };
    let table = table_rows(graph, |id, flags| {
        if let Some(reason) = meter.checkpoint() {
            return Err(Stop::exhausted(reason));
        }
        let mut fires = false;
        for e in graph.edges(id) {
            charge_edge(meter)?;
            let angle = is_angle
                .step(
                    id,
                    e.target,
                    |s_bar, t_bar| angle_program.holds_step(&s_bar, &t_bar, scratch),
                    || {
                        let (s, t) = (graph.materialize(id), graph.materialize(e.target));
                        angle_expr.holds_action(StatePair::new(&s, &t))
                    },
                )
                .map_err(CheckError::from)?;
            flags.push(angle);
            fires |= angle;
        }
        let enabled = match (&enabled_program, &enabled_pred) {
            (Some(abstract_pred), Some(pred)) => is_enabled
                .state(
                    id,
                    |s_bar| abstract_pred.holds(&s_bar, scratch),
                    || pred.holds_state(&graph.materialize(id)),
                )
                .map_err(CheckError::from)?,
            // An ⟨A⟩_v graph edge is itself an in-universe witness, so
            // the per-state `Enabled` search only runs where no edge
            // fires (e.g. an abstract action enabled toward a successor
            // no concrete step reaches). The mapping is empty here, so
            // `s̄ = s`: the search runs on the concrete state and is a
            // function of the state's class too.
            _ if fires => true,
            _ => {
                let search = || {
                    system
                        .universe()
                        .enabled(&angle_expr, &graph.materialize(id))
                };
                is_enabled
                    .state(id, |_| search(), search)
                    .map_err(CheckError::from)?
            }
        };
        Ok(enabled)
    });
    drop((is_angle, is_enabled));
    classes.report(meter.recorder(), "liveness");
    table
}

/// A witness that a fairness requirement is satisfied by the cycle.
#[derive(Clone, Copy, Debug)]
pub(super) enum Waypoint {
    /// Traverse this edge (source node, index into its edge list).
    Edge(usize, usize),
    /// Visit this node.
    Node(usize),
}

/// A fair node set (ascending) plus one waypoint per fairness
/// requirement that needs an explicit witness.
pub(super) type FairWitness = (Vec<u32>, Vec<Waypoint>);

/// What the component search reuses from one component to the next:
/// the Tarjan buffers, and a mask over the graph's states that is all
/// `false` between recursion steps.
#[derive(Default)]
pub(super) struct SccWork {
    pub(super) scratch: SccScratch,
    mask: Vec<bool>,
}

impl SccWork {
    /// The components of the subgraph on `survivors` (ascending): the
    /// mask is set over them for the decomposition and cleared after
    /// it, so the step costs the survivors, not the graph.
    fn decompose(
        &mut self,
        graph: &StateGraph,
        survivors: &[u32],
        edge_ok: &dyn Fn(usize, usize) -> bool,
        meter: &mut Meter,
    ) -> Result<Components, Stop> {
        if self.mask.len() < graph.len() {
            self.mask.resize(graph.len(), false);
        }
        for &n in survivors {
            self.mask[n as usize] = true;
        }
        let components = tarjan_sccs(
            graph,
            &self.mask,
            Some(survivors),
            edge_ok,
            meter,
            &mut self.scratch,
        );
        for &n in survivors {
            self.mask[n as usize] = false;
        }
        components
    }
}

/// Depth-first search for a strongly connected node set (within `scc`,
/// ascending) in which every fairness requirement is satisfiable and
/// the `must_contain` requirement holds. Returns the node set plus one
/// waypoint per fairness requirement that needs an explicit witness.
pub(super) fn fair_subcomponent(
    graph: &StateGraph,
    fair_infos: &[FairInfo],
    edge_ok: &dyn Fn(usize, usize) -> bool,
    scc: &[u32],
    must_contain: Option<&[bool]>,
    meter: &mut Meter,
    work: &mut SccWork,
) -> Result<Option<FairWitness>, Stop> {
    if let Some(reason) = meter.checkpoint() {
        return Err(Stop::exhausted(reason));
    }
    if let Some(req) = must_contain {
        if !scc.iter().any(|&n| req[n as usize]) {
            return Ok(None);
        }
    }
    match *scc {
        [s] => single_state(graph, fair_infos, s as usize, must_contain.is_some(), meter),
        _ => scan(graph, fair_infos, edge_ok, scc, must_contain, meter, work),
    }
}

/// [`fair_subcomponent`] on a component that meets its `must_contain`
/// requirement, if any, by a scan of its edges per requirement.
fn scan(
    graph: &StateGraph,
    fair_infos: &[FairInfo],
    edge_ok: &dyn Fn(usize, usize) -> bool,
    scc: &[u32],
    must_contain: Option<&[bool]>,
    meter: &mut Meter,
    work: &mut SccWork,
) -> Result<Option<FairWitness>, Stop> {
    // Tarjan components are sorted ascending (also in the recursion
    // below), so membership is a binary search, not a scan.
    let in_scc = |n: usize| scc.binary_search(&(n as u32)).is_ok();
    let mut waypoints = Vec::new();
    if let Some(req) = must_contain {
        let node = scc.iter().find(|&&n| req[n as usize]).expect("checked");
        waypoints.push(Waypoint::Node(*node as usize));
    }
    for info in fair_infos {
        // An internal ⟨A⟩_v edge satisfies both WF and SF.
        let mut edge_witness = None;
        'search: for s in scc.iter().map(|&s| s as usize) {
            for (i, e) in graph.edges(s).iter().enumerate() {
                charge_edge(meter)?;
                if info.angle.get(graph, s, i) && edge_ok(s, i) && in_scc(e.target) {
                    edge_witness = Some(Waypoint::Edge(s, i));
                    break 'search;
                }
            }
        }
        if let Some(w) = edge_witness {
            waypoints.push(w);
            continue;
        }
        match info.kind {
            FairnessKind::Weak => {
                // A state where the action is disabled, visited
                // infinitely often, also satisfies WF.
                match scc.iter().find(|&&n| !info.enabled.get(n as usize)) {
                    Some(&n) => waypoints.push(Waypoint::Node(n as usize)),
                    None => return Ok(None), // WF unsatisfiable here and in any subset.
                }
            }
            FairnessKind::Strong => {
                // SF needs *no* enabled state in the cycle. If some are
                // enabled, remove them and recurse on the
                // sub-components (Streett decomposition).
                if scc.iter().all(|&n| !info.enabled.get(n as usize)) {
                    continue; // Satisfied without a waypoint.
                }
                let survivors: Vec<u32> = (scc.iter().copied())
                    .filter(|&n| !info.enabled.get(n as usize))
                    .collect();
                if survivors.is_empty() {
                    return Ok(None);
                }
                let subs = work.decompose(graph, &survivors, edge_ok, meter)?;
                for sub in subs.iter() {
                    if let Some(found) = fair_subcomponent(
                        graph,
                        fair_infos,
                        edge_ok,
                        sub,
                        must_contain,
                        meter,
                        work,
                    )? {
                        return Ok(Some(found));
                    }
                }
                return Ok(None);
            }
        }
    }
    Ok(Some((scc.to_vec(), waypoints)))
}

/// [`fair_subcomponent`] on the component `{s}`, whose `must_contain`
/// requirement, if any, `s` meets. It has no internal `⟨A⟩_v` edge —
/// its only possible one is a self-loop, which leaves `v` unchanged —
/// so no edge scan can find a witness, and each requirement is decided
/// by whether it is enabled at `s`: a `WF` is met by visiting `s` where
/// it is disabled, an `SF` by `s` alone, and an enabled one by nothing.
/// The `deg(s)` probes a scan makes per requirement, up to the first
/// that fails, are charged in bulk, so the charges are the scan's.
fn single_state(
    graph: &StateGraph,
    fair_infos: &[FairInfo],
    s: usize,
    must_contain: bool,
    meter: &mut Meter,
) -> Result<Option<FairWitness>, Stop> {
    let degree = graph.edges(s).len();
    let mut waypoints = Vec::new();
    if must_contain {
        waypoints.push(Waypoint::Node(s));
    }
    for info in fair_infos {
        charge_edges(meter, degree)?;
        if info.enabled.get(s) {
            return Ok(None);
        }
        if info.kind == FairnessKind::Weak {
            waypoints.push(Waypoint::Node(s));
        }
    }
    Ok(Some((vec![s as u32], waypoints)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore, Budget, ExhaustReason, ExploreOptions, GuardedAction, Init};
    use crate::{SystemFairness, Verdict};
    use opentla_kernel::{tarjan_sccs_with, Domain, Value, Vars};

    impl Bits {
        /// The flags in order.
        pub(super) fn iter(&self) -> impl Iterator<Item = bool> + '_ {
            (0..self.len).map(|at| self.get(at))
        }
    }

    impl PartialEq<Vec<bool>> for Bits {
        fn eq(&self, other: &Vec<bool>) -> bool {
            self.iter().eq(other.iter().copied())
        }
    }

    /// The tables of the system's own fairness requirements, charged as
    /// [`charge_system_tables`] charges them and then built: what a check
    /// that builds its own tables runs, as one call.
    fn system_fair_infos(
        system: &System,
        graph: &StateGraph,
        meter: &mut Meter,
    ) -> Result<Vec<FairInfo>, Stop> {
        charge_system_tables(system, graph, meter)?;
        let mut infos = reserve_system_fair_infos(system, graph);
        fill_system_fair_infos(system, graph, &mut infos);
        Ok(infos)
    }

    /// Counters `a` and `b` up to `top` that `halt` freezes for good:
    /// every halted state — half the graph — has no edge. `WF(inc_a)`
    /// and `SF(inc_b)` give two tables.
    fn halting_counters(top: i64) -> System {
        let mut vars = Vars::new();
        let a = vars.declare("a", Domain::int_range(0, top));
        let b = vars.declare("b", Domain::int_range(0, top));
        let h = vars.declare("h", Domain::bits());
        let running = Expr::var(h).eq(Expr::int(0));
        let inc = |name: &str, v| {
            GuardedAction::new(
                name,
                Expr::all([running.clone(), Expr::var(v).lt(Expr::int(top))]),
                vec![(v, Expr::var(v).add(Expr::int(1)))],
            )
        };
        let halt = GuardedAction::new("halt", running.clone(), vec![(h, Expr::int(1))]);
        System::new(
            vars,
            Init::new([(a, Value::Int(0)), (b, Value::Int(0)), (h, Value::Int(0))]),
            vec![inc("inc_a", a), inc("inc_b", b), halt],
        )
        .with_fairness(SystemFairness::weak(vec![0], vec![a]))
        .with_fairness(SystemFairness::strong(vec![1], vec![b]))
    }

    /// The tables as one heap row per state, built by the plain loop:
    /// per requirement `(angle rows, enabled)`, or where the budget
    /// stopped it — the reason and the states not yet done.
    type RowTables = Vec<(Vec<Vec<bool>>, Vec<bool>)>;
    fn row_tables(
        system: &System,
        graph: &StateGraph,
        budget: &Budget,
    ) -> Result<RowTables, (ExhaustReason, usize)> {
        let mut meter = Meter::start(budget);
        let mut tables = Vec::new();
        for f in system.fairness() {
            let mut rows = Vec::new();
            for (id, s) in graph.states().iter().enumerate() {
                let mut row = Vec::new();
                for e in graph.edges(id) {
                    if let Some(reason) = meter.charge_transition_mut() {
                        return Err((reason, graph.len() - id));
                    }
                    row.push(
                        f.action_ids.contains(&e.action)
                            && !s.agrees_with(graph.state(e.target), &f.sub),
                    );
                }
                rows.push(row);
            }
            let enabled = rows.iter().map(|row| row.contains(&true)).collect();
            tables.push((rows, enabled));
        }
        Ok(tables)
    }

    /// `system_fair_infos` on `graph` is `row_tables`, flag for flag;
    /// the flags that are set, per requirement.
    fn assert_flat_tables_are_the_row_tables(system: &System, graph: &StateGraph) -> Vec<usize> {
        let rows = row_tables(system, graph, &Budget::default()).expect("unbudgeted");
        let mut meter = Meter::start(&Budget::default());
        let infos =
            system_fair_infos(system, graph, &mut meter).unwrap_or_else(|_| panic!("unbudgeted"));
        let requirements = system.fairness().len();
        assert_eq!(meter.transitions_used(), requirements * graph.edge_count());
        let mut set = vec![0; requirements];
        for ((info, (angle, enabled)), set) in infos.iter().zip(&rows).zip(&mut set) {
            assert_eq!(&info.enabled, enabled);
            for (s, row) in angle.iter().enumerate() {
                for (i, flag) in row.iter().enumerate() {
                    assert_eq!(info.angle.get(graph, s, i), *flag, "{s}/{i}");
                    *set += usize::from(*flag);
                }
            }
        }
        set
    }

    #[test]
    fn flat_tables_are_the_row_tables() {
        for top in [9, 19] {
            let system = halting_counters(top);
            let graph = explore(&system, &ExploreOptions::default()).unwrap();
            let n = graph.len();
            assert_eq!(n as i64, 2 * (top + 1) * (top + 1));
            assert_eq!(graph.deadlocks().len(), n / 2, "the halted states");
            assert_eq!(graph.edge_base(n), graph.edge_count());
            assert_flat_tables_are_the_row_tables(&system, &graph);
        }
        // A table is a bit per edge, 64 to a word: at top 7, 176 edges
        // end in a partial word, and the first requirement's flag on
        // edge 63 and the second's on edge 64 sit either side of a word
        // boundary.
        let system = halting_counters(7);
        let graph = explore(&system, &ExploreOptions::default()).unwrap();
        assert_eq!(graph.edge_count(), 176);
        let rows = row_tables(&system, &graph, &Budget::default()).expect("unbudgeted");
        let flat = |r: usize| rows[r].0.iter().flatten().copied().collect::<Vec<bool>>();
        assert_eq!((flat(0)[63], flat(0)[64]), (true, false));
        assert_eq!((flat(1)[63], flat(1)[64]), (false, true));
        assert_flat_tables_are_the_row_tables(&system, &graph);
    }

    /// `y` spins through `0..=top` while `mark`, enabled only at
    /// `y = top` with `x = 0`, sets `x` under `SF(mark)`: two cycles of
    /// `top + 1` states, joined by the `mark` edge.
    fn spinning(top: i64) -> System {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::bits());
        let y = vars.declare("y", Domain::int_range(0, top));
        let spin = GuardedAction::new(
            "spin",
            Expr::bool(true),
            vec![(y, Expr::var(y).add(Expr::int(1)).rem(Expr::int(top + 1)))],
        );
        let mark = GuardedAction::new(
            "mark",
            Expr::all([
                Expr::var(y).eq(Expr::int(top)),
                Expr::var(x).eq(Expr::int(0)),
            ]),
            vec![(x, Expr::int(1))],
        );
        let init = Init::new([(x, Value::Int(0)), (y, Value::Int(0))]);
        System::new(vars, init, vec![spin, mark])
            .with_fairness(SystemFairness::strong(vec![1], vec![x]))
    }

    /// The flat components of the subgraph on `node_ok` — given as the
    /// mask and as the listed nodes, on one reused scratch — are the
    /// kernel driver's components, one `Vec` each, in the same order. Returns
    /// how many there are.
    fn assert_flat_components_are_the_drivers(graph: &StateGraph, node_ok: &[bool]) -> usize {
        let mut reference = Vec::new();
        tarjan_sccs_with::<()>(
            graph.len(),
            &mut SccScratch::new(),
            &|v| node_ok[v],
            &|v| graph.edges(v).len(),
            &mut |v, i| {
                let t = graph.edges(v)[i].target;
                Ok(node_ok[t].then_some(t))
            },
            &mut |_, _| Ok(()),
            &mut |component| reference.push(component),
        )
        .unwrap();
        let mut meter = Meter::start(&Budget::default());
        let mut scratch = SccScratch::new();
        let listed: Vec<u32> = (0..graph.len() as u32)
            .filter(|&v| node_ok[v as usize])
            .collect();
        for listed in [None, Some(&listed[..]), None] {
            let flat = tarjan_sccs(
                graph,
                node_ok,
                listed,
                &|_, _| true,
                &mut meter,
                &mut scratch,
            )
            .unwrap_or_else(|_| panic!("unbudgeted"));
            let flat: Vec<Vec<_>> = (flat.iter())
                .map(|c| c.iter().map(|&v| v as usize).collect())
                .collect();
            assert_eq!(flat, reference, "listed: {}", listed.is_some());
        }
        reference.len()
    }

    #[test]
    fn flat_components_are_the_drivers() {
        // Halting counters: every component a single state.
        let system = halting_counters(9);
        let graph = explore(&system, &ExploreOptions::default()).unwrap();
        let n = graph.len();
        assert_eq!(
            assert_flat_components_are_the_drivers(&graph, &vec![true; n]),
            n
        );
        let running: Vec<bool> = (0..n).map(|id| !graph.edges(id).is_empty()).collect();
        assert_eq!(
            assert_flat_components_are_the_drivers(&graph, &running),
            n / 2
        );
        // The SF graph, whole (two cycles) and as the Streett step keeps
        // it, without the state where `mark` is enabled: the first cycle
        // falls apart into its four other states, one component each.
        let system = spinning(4);
        let graph = explore(&system, &ExploreOptions::default()).unwrap();
        assert_eq!(graph.len(), 10);
        assert_eq!(
            assert_flat_components_are_the_drivers(&graph, &[true; 10]),
            2
        );
        let mut meter = Meter::start(&Budget::default());
        let infos = system_fair_infos(&system, &graph, &mut meter).unwrap_or_else(|_| panic!());
        let survivors: Vec<bool> = infos[0].enabled.iter().map(|e| !e).collect();
        assert_eq!(survivors.iter().filter(|s| !**s).count(), 1);
        assert_eq!(
            assert_flat_components_are_the_drivers(&graph, &survivors),
            4 + 1
        );
    }

    /// "Subscript unchanged" compares codes in two rows: here `b`'s
    /// four bits sit at bits 5..=8 of the row, across its first byte
    /// boundary, behind `p` (2 bits) and `a` (3). `bump` rewrites `c`
    /// and leaves `b`, so its edges are `⟨A⟩_b` steps for one
    /// requirement and not for another; `spin` rewrites `p` alone.
    #[test]
    fn flat_tables_compare_codes_across_a_byte_boundary() {
        let mut vars = Vars::new();
        let p = vars.declare("p", Domain::int_range(0, 2));
        let a = vars.declare("a", Domain::int_range(0, 4));
        let b = vars.declare("b", Domain::int_range(0, 9));
        let c = vars.declare("c", Domain::int_range(0, 20));
        let step = |v, top: i64| Expr::var(v).add(Expr::int(1)).rem(Expr::int(top + 1));
        let actions = vec![
            GuardedAction::new(
                "inc_b",
                Expr::var(b).lt(Expr::int(9)),
                vec![(b, Expr::var(b).add(Expr::int(1)))],
            ),
            GuardedAction::new("bump", Expr::bool(true), vec![(c, step(c, 20))]),
            GuardedAction::new(
                "dec_b",
                Expr::var(b).gt(Expr::int(0)),
                vec![(b, Expr::var(b).sub(Expr::int(1))), (a, step(a, 4))],
            ),
            GuardedAction::new("spin", Expr::bool(true), vec![(p, step(p, 2))]),
        ];
        let init = Init::new([p, a, b, c].map(|v| (v, Value::Int(0))));
        let system = System::new(vars, init, actions)
            .with_fairness(SystemFairness::weak(vec![0, 1], vec![b]))
            .with_fairness(SystemFairness::strong(vec![1, 2], vec![b, c]))
            .with_fairness(SystemFairness::weak(vec![1, 3], vec![a, b]));
        let graph = explore(&system, &ExploreOptions::default()).unwrap();
        assert_eq!(graph.len(), 3 * 5 * 10 * 21);
        let layout = graph.layout();
        let first: usize = (0..b.index()).map(|s| layout.width(s) as usize).sum();
        let last = first + layout.width(b.index()) as usize - 1;
        assert_eq!((first / 8, last / 8), (0, 1), "b straddles a byte boundary");
        // Per requirement: inc_b's edges (b < 9: 3·5·9·21); bump's and
        // dec_b's (every state, and b > 0); none — neither bump nor
        // spin changes a or b.
        let inc_b = 3 * 5 * 9 * 21;
        let expected = [inc_b, 3150 + inc_b, 0];
        assert_eq!(
            assert_flat_tables_are_the_row_tables(&system, &graph),
            expected
        );
    }

    #[test]
    fn a_tight_budget_stops_the_flat_tables_where_it_stopped_the_rows() {
        let system = halting_counters(9);
        let graph = explore(&system, &ExploreOptions::default()).unwrap();
        // Mid first table, on its last edge, and mid second table.
        for limit in [37, graph.edge_count() - 1, graph.edge_count() + 37] {
            let budget = Budget::default().transitions(limit);
            let (reason, pending) =
                row_tables(&system, &graph, &budget).expect_err("the budget is tight");
            assert_eq!(reason, ExhaustReason::TransitionLimit { limit });
            let mut meter = Meter::start(&budget);
            match system_fair_infos(&system, &graph, &mut meter) {
                Err(Stop::Exhausted {
                    reason: r,
                    pending: p,
                }) => {
                    assert_eq!((r, p), (reason.clone(), pending));
                }
                _ => panic!("a budget of {limit} must run out"),
            }
            // And through the whole check: the frontier is the table's.
            let run = crate::check_liveness_governed(
                &system,
                &graph,
                &crate::LiveTarget::Eventually(Expr::bool(false)),
                &budget,
            )
            .unwrap();
            assert!(run.verdict.is_none());
            match run.outcome {
                crate::Outcome::Exhausted {
                    reason: r,
                    frontier_size,
                    ..
                } => {
                    assert_eq!((r, frontier_size), (reason, pending));
                }
                other => panic!("{other:?}"),
            }
        }
        // Unbudgeted, the halted states (no edge) satisfy both
        // requirements by staying put: ◇FALSE fails there.
        let verdict = crate::check_liveness(
            &system,
            &graph,
            &crate::LiveTarget::Eventually(Expr::bool(false)),
        )
        .unwrap();
        assert!(matches!(verdict, Verdict::Violated(_)));
    }

    /// Guarded updates over `a, b ∈ 0..=3` and a bit `c`, drawn from
    /// `seed`, plus `idle`, whose every step is a self-loop; three
    /// fairness requirements, weak and strong, on drawn actions and
    /// subscripts — `idle`'s among them.
    fn random_system(seed: u64) -> System {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut draw = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n) as i64
        };
        let mut vars = Vars::new();
        let a = vars.declare("a", Domain::int_range(0, 3));
        let b = vars.declare("b", Domain::int_range(0, 3));
        let c = vars.declare("c", Domain::bits());
        let abc = [a, b, a, b, c];
        let mut actions: Vec<GuardedAction> = (0..5)
            .map(|i| {
                let (guard, v, w) = (abc[draw(4) as usize], abc[i], abc[draw(5) as usize]);
                let top = if i == 4 { 2 } else { 4 };
                GuardedAction::new(
                    format!("act{i}"),
                    Expr::var(guard).lt(Expr::int(1 + draw(3))),
                    vec![(
                        v,
                        (Expr::var(w).add(Expr::int(draw(3)))).rem(Expr::int(top)),
                    )],
                )
            })
            .collect();
        actions.push(GuardedAction::new(
            "idle",
            Expr::bool(true),
            vec![(c, Expr::var(c))],
        ));
        let init = Init::new([a, b, c].map(|v| (v, Value::Int(0))));
        let mut system = System::new(vars, init, actions);
        for r in 0..3 {
            let own: Vec<usize> = if r == 0 {
                vec![5, draw(5) as usize]
            } else {
                (0..6).filter(|_| draw(2) == 0).collect()
            };
            let sub: Vec<_> = [a, b, c].into_iter().filter(|_| draw(3) != 0).collect();
            system = system.with_fairness(if draw(2) == 0 {
                SystemFairness::weak(own, sub)
            } else {
                SystemFairness::strong(own, sub)
            });
        }
        system
    }

    /// What a check's component loop sees of one result: the witness,
    /// or where the budget stopped it, and the meter's count after.
    fn outcome(result: Result<Option<FairWitness>, Stop>, meter: &Meter) -> String {
        let result = match result {
            Ok(witness) => format!("{witness:?}"),
            Err(Stop::Exhausted { reason, pending }) => format!("cut {reason} / {pending}"),
            Err(Stop::Error(e)) => format!("error {e}"),
        };
        format!("{result} after {}", meter.transitions_used())
    }

    /// On every state of `graph` as a component of its own, the
    /// single-state rule gives the scan's witness and charges the
    /// scan's transitions, with and without a `must_contain` set, with
    /// every edge allowed or some banned, and under limits that cut
    /// before, inside and after the probes. Returns how many states
    /// the rule found fair (unlimited, no `must_contain`).
    fn assert_the_rule_is_the_scan(system: &System, graph: &StateGraph) -> usize {
        let infos = system_fair_infos(system, graph, &mut Meter::start(&Budget::default()))
            .unwrap_or_else(|_| panic!("unbudgeted"));
        let every: Vec<bool> = vec![true; graph.len()];
        let some: Vec<bool> = (0..graph.len()).map(|s| s % 3 != 1).collect();
        let all_edges = |_: usize, _: usize| true;
        let odd_edges = |s: usize, i: usize| (s + i) % 2 == 1;
        let edge_oks: [&dyn Fn(usize, usize) -> bool; 2] = [&all_edges, &odd_edges];
        let mut work = SccWork::default();
        let mut fair = 0;
        for s in 0..graph.len() {
            let scc = [s as u32];
            let probes = graph.edges(s).len() * infos.len();
            for limit in [
                0,
                1,
                probes / 2,
                probes.saturating_sub(1),
                probes,
                usize::MAX,
            ] {
                let budget = Budget::default().transitions(limit);
                for must_contain in [None, Some(&every[..]), Some(&some[..])] {
                    for edge_ok in edge_oks {
                        let mut meter = Meter::start(&budget);
                        let rule = fair_subcomponent(
                            graph,
                            &infos,
                            edge_ok,
                            &scc,
                            must_contain,
                            &mut meter,
                            &mut work,
                        );
                        let rule = outcome(rule, &meter);
                        let mut meter = Meter::start(&budget);
                        let scanned = match must_contain {
                            Some(req) if !req[s] => Ok(None),
                            _ => scan(
                                graph,
                                &infos,
                                edge_ok,
                                &scc,
                                must_contain,
                                &mut meter,
                                &mut work,
                            ),
                        };
                        assert_eq!(rule, outcome(scanned, &meter), "state {s}, limit {limit}");
                        if limit == usize::MAX && must_contain.is_none() {
                            fair += usize::from(rule.starts_with("Some"));
                        }
                    }
                }
            }
        }
        fair / 2
    }

    #[test]
    fn a_single_state_is_decided_as_the_scan_decides_it() {
        // Halting counters: WF(inc_a) and SF(inc_b). A state is fair
        // alone where both are disabled: every halted state, and the
        // running one with both counters at the top.
        let system = halting_counters(5);
        let graph = explore(&system, &ExploreOptions::default()).unwrap();
        assert_eq!(
            assert_the_rule_is_the_scan(&system, &graph),
            graph.len() / 2 + 1
        );
        // The SF graph with a WF beside it: `spin` under WF is enabled
        // everywhere, so no single state is fair.
        let y = spinning(4).vars().find("y").unwrap();
        let system = spinning(4).with_fairness(SystemFairness::weak(vec![0], vec![y]));
        let graph = explore(&system, &ExploreOptions::default()).unwrap();
        assert_eq!(assert_the_rule_is_the_scan(&system, &graph), 0);
        // Random systems, self-loops included: some state is fair
        // alone, and some is not.
        let (mut loops, mut fair, mut states) = (0, 0, 0);
        for seed in 0..16 {
            let system = random_system(seed);
            let graph = explore(&system, &ExploreOptions::default()).unwrap();
            loops += (0..graph.len())
                .filter(|&s| graph.edges(s).iter().any(|e| e.target == s))
                .count();
            fair += assert_the_rule_is_the_scan(&system, &graph);
            states += graph.len();
        }
        assert!(loops > 0, "some state has a self-loop");
        assert!(0 < fair && fair < states, "{fair} of {states}");
    }
}
