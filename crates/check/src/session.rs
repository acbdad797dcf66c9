//! One check session: the checks over one explored graph, and what
//! they share ([`Session`]).

use crate::image::Images;
use crate::liveness::{FairnessTables, LiveTarget, LivenessRun};
use crate::simulate::SimulationRun;
use crate::{Budget, CheckError, StateGraph, System};
use opentla_kernel::{Formula, Substitution};
use std::sync::{Mutex, OnceLock, PoisonError};

/// The checks over one explored graph of one system, under one
/// refinement mapping and one budget, and the artefacts they share.
/// The Composition Theorem's semantic hypotheses are such checks.
/// What a session owns is of its own system and graph by
/// construction, so no check has to ask.
///
/// A check whose mapping is the session's reads the session's images;
/// a check under another mapping images the graph itself and drops
/// those images when it ends. Every liveness check reads the one build
/// of the system's fairness tables, and is charged for them as if it
/// had built them, so a budget cuts the same checks whoever built
/// them. A session may be shared between threads: its checks run side
/// by side, each on its own meter.
pub struct Session<'g> {
    system: &'g System,
    graph: &'g StateGraph,
    mapping: &'g Substitution,
    budget: &'g Budget,
    /// The images of `graph` under `mapping`.
    images: OnceLock<Images>,
    /// The system's fairness tables over `graph`, built uncharged.
    tables: OnceLock<FairnessTables>,
    /// Room for the tables, reserved ahead of their build
    /// ([`Session::reserve_tables`]).
    room: Mutex<Option<FairnessTables>>,
}

impl<'g> Session<'g> {
    /// A session over `graph`, explored from `system`, whose checks
    /// share `mapping` (pass the empty substitution when they have
    /// none) and are metered by `budget`. Nothing is evaluated yet.
    pub fn new(
        system: &'g System,
        graph: &'g StateGraph,
        mapping: &'g Substitution,
        budget: &'g Budget,
    ) -> Session<'g> {
        Session {
            system,
            graph,
            mapping,
            budget,
            images: OnceLock::new(),
            tables: OnceLock::new(),
            room: Mutex::new(None),
        }
    }

    /// The system the graph was explored from.
    pub fn system(&self) -> &'g System {
        self.system
    }

    /// The graph every check reads.
    pub fn graph(&self) -> &'g StateGraph {
        self.graph
    }

    /// The budget every check meters.
    pub fn budget(&self) -> &'g Budget {
        self.budget
    }

    /// The refinement mapping the session's checks share.
    pub(crate) fn mapping(&self) -> &'g Substitution {
        self.mapping
    }

    /// [`check_simulation_governed`](crate::check_simulation_governed)
    /// of `target` under the session's mapping, reading the session's
    /// images.
    ///
    /// # Errors
    ///
    /// As [`check_simulation`](crate::check_simulation).
    pub fn simulation(&self, target: &Formula) -> Result<SimulationRun, CheckError> {
        crate::simulate::simulate(self, target)
    }

    /// [`check_liveness_governed`](crate::check_liveness_governed) of
    /// `target`, reading the session's images if the target's mapping
    /// is the session's, and the session's fairness tables.
    ///
    /// # Errors
    ///
    /// As [`check_liveness`](crate::check_liveness).
    pub fn liveness(&self, target: &LiveTarget) -> Result<LivenessRun, CheckError> {
        crate::liveness::liveness_driver(self, target)
    }

    /// The images of the graph under the session's mapping, evaluated
    /// by the first call (one [`Event::ImagePass`](crate::Event::ImagePass)); a
    /// call while another thread evaluates them waits for them.
    pub fn images(&self) -> &Images {
        (self.images)
            .get_or_init(|| Images::of_graph(self.graph, self.mapping, &self.budget.recorder))
    }

    /// The images of the graph under `mapping`: the session's if it is
    /// the session's mapping, else evaluated here into `own`.
    pub(crate) fn images_under<'s>(
        &'s self,
        mapping: &Substitution,
        own: &'s mut Option<Images>,
    ) -> &'s Images {
        if mapping == self.mapping {
            self.images()
        } else {
            own.insert(Images::of_graph(self.graph, mapping, &self.budget.recorder))
        }
    }

    /// Allocates room for the system's fairness tables, for
    /// [`Session::build_tables`] to fill. A thread's allocator arena
    /// keeps every page it touches, so a short-lived thread that builds
    /// the tables should fill room its long-lived caller reserved.
    pub fn reserve_tables(&self) {
        let room = FairnessTables::reserve(self.system, self.graph);
        *self.room.lock().unwrap_or_else(PoisonError::into_inner) = Some(room);
    }

    /// The system's fairness tables over the graph, built uncharged by
    /// the first call — into the reserved room if there is some — and
    /// shared by every later one; a call while another thread builds
    /// them waits for them.
    pub fn build_tables(&self) -> &FairnessTables {
        self.tables.get_or_init(|| {
            let room = self
                .room
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            match room {
                Some(room) => room.filled(self.system, self.graph),
                None => FairnessTables::of_graph(self.system, self.graph),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore, CountingRecorder, ExploreOptions, GuardedAction, Init, RecorderHandle};
    use crate::{SystemFairness, Verdict};
    use opentla_kernel::{Domain, Expr, Fairness, Value, VarId, Vars};
    use std::sync::Arc;

    /// A two-bit counter that ticks modulo 4 under weak fairness, and
    /// an abstract counter `n` that only the targets read.
    fn counter() -> (System, VarId, VarId, VarId) {
        let mut vars = Vars::new();
        let lo = vars.declare("lo", Domain::bits());
        let hi = vars.declare("hi", Domain::bits());
        let n = vars.declare("n", Domain::int_range(0, 3));
        let carry = Expr::var(lo).eq(Expr::int(1));
        let tick = GuardedAction::new(
            "tick",
            Expr::bool(true),
            vec![
                (lo, Expr::int(1).sub(Expr::var(lo))),
                (
                    hi,
                    carry.ite(Expr::int(1).sub(Expr::var(hi)), Expr::var(hi)),
                ),
            ],
        );
        let init = Init::new([(lo, Value::Int(0)), (hi, Value::Int(0)), (n, Value::Int(0))]);
        let sys = System::new(vars, init, vec![tick])
            .with_fairness(SystemFairness::weak(vec![0], vec![lo, hi]));
        (sys, lo, hi, n)
    }

    /// `WF_n(n′ ≠ n)` under `mapping`: the abstract counter keeps moving.
    fn moves(n: VarId, mapping: Substitution) -> LiveTarget {
        let fair = Fairness::weak(Expr::prime(n).ne(Expr::var(n)), vec![n]);
        LiveTarget::fair_mapped(fair, Expr::bool(true), mapping)
    }

    fn holds(run: LivenessRun) -> bool {
        matches!(run.verdict, Some(Verdict::Holds))
    }

    #[test]
    fn the_checks_of_a_session_share_its_images_and_tables() {
        let (sys, lo, hi, n) = counter();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let counting = Arc::new(CountingRecorder::new());
        let budget = Budget::default().with_recorder(RecorderHandle::new(counting.clone()));
        let mapping = Substitution::new([(n, Expr::int(2).mul(Expr::var(hi)).add(Expr::var(lo)))]);
        let next = Expr::var(n)
            .eq(Expr::int(3))
            .ite(Expr::int(0), Expr::var(n).add(Expr::int(1)));
        let spec = Formula::pred(Expr::var(n).eq(Expr::int(0)))
            .and(Formula::act_box(Expr::prime(n).eq(next), vec![n]));
        let session = Session::new(&sys, &graph, &mapping, &budget);
        // Checks under the session's mapping make one image pass
        // between them.
        assert!(session.simulation(&spec).unwrap().report.unwrap().holds());
        assert!(holds(session.liveness(&moves(n, mapping.clone())).unwrap()));
        assert_eq!(counting.count("image_pass"), 1);
        // A second liveness check builds no second set of tables.
        let tables = session.build_tables().address();
        assert!(holds(session.liveness(&moves(n, mapping.clone())).unwrap()));
        assert_eq!(session.build_tables().address(), tables);
        assert_eq!(counting.count("image_pass"), 1);
        // A check under another mapping makes its own pass, and leaves
        // the session's images as they were.
        let other = Substitution::new([(n, Expr::int(3).sub(Expr::var(lo)))]);
        session.liveness(&moves(n, other)).unwrap();
        assert_eq!(counting.count("image_pass"), 2);
        assert_eq!(session.images().mapping(), &mapping);
        assert!(holds(session.liveness(&moves(n, mapping.clone())).unwrap()));
        assert_eq!(counting.count("image_pass"), 2);
        // Reserved room is filled, not allocated anew, whether a
        // liveness check or the tables step gets there first.
        for liveness_first in [false, true] {
            let session = Session::new(&sys, &graph, &mapping, &budget);
            session.reserve_tables();
            let room = session.room.lock().unwrap().as_ref().unwrap().address();
            if liveness_first {
                assert!(holds(session.liveness(&moves(n, mapping.clone())).unwrap()));
            }
            assert_eq!(session.build_tables().address(), room, "{liveness_first}");
            assert!(session.room.lock().unwrap().is_none());
            assert!(holds(session.liveness(&moves(n, mapping.clone())).unwrap()));
            assert_eq!(session.build_tables().address(), room, "{liveness_first}");
        }
    }
}
