//! The parallel fair-cycle engine.
//!
//! Parallelism enters the liveness check at three points, all pinned to
//! the sequential engine's outputs by the differential test suite:
//!
//! 1. **Fairness tables** — per-state rows are independent, so
//!    [`table_rows`] deals them to workers in fixed-size chunks claimed
//!    from an atomic cursor (work-stealing-style: fast workers take
//!    more chunks). Each chunk is flat, and the chunks are concatenated
//!    in chunk order, so the table is by state id regardless of which
//!    worker computed what.
//! 2. **Path-region reachability** — [`reachable_from_par`] runs a
//!    level-synchronous BFS over visited flags striped across the same
//!    64-shard layout the parallel explorer uses. Reachability is a
//!    fixed point, so the resulting *set* is order-independent.
//! 3. **Component analysis** — [`find_violation_par`] hands whole SCCs
//!    (in the deterministic Tarjan completion order the shared,
//!    sequential decomposition produced) to workers via an atomic
//!    cursor. Every worker that finds a fairness-satisfiable component
//!    with a reachable entry publishes its index into an atomic
//!    `fetch_min` slot; the engine's verdict is the *minimum* such
//!    index — exactly the component the sequential engine would have
//!    reported first — and the lasso is rebuilt sequentially from that
//!    component's witness, making it byte-identical to the sequential
//!    engine's.
//!
//! A worker that exhausts the budget mid-component records the
//! component's index; the run's outcome is decided by comparing that
//! index against the winning component's (a violation found at a
//! smaller index than any unresolved component is authoritative; an
//! unresolved component at a smaller index forces `Exhausted`, with a
//! final checkpoint of the cleared-component set so the run can
//! resume).

use super::fair::{fair_subcomponent, EdgeOffsets, EdgeTable, FairInfo, FairWitness};
use super::{scc, Charge, LiveCheckpointer, Stop, Violation};
use crate::budget::Meter;
use crate::checkpoint::LiveSnapshot;
use crate::obs::{Event, RecorderHandle};
use crate::sync::{lock, Striped, NUM_SHARDS};
use crate::{Counterexample, StateGraph, System};
use opentla_kernel::SccScratch;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// States per table chunk / frontier slice a worker claims at once.
const CHUNK: usize = 256;

/// One row of a fairness table, see [`table_rows`].
pub(super) type TableRow<'a, S> =
    dyn Fn(&mut S, usize, &mut Vec<bool>) -> Result<bool, Stop> + Sync + 'a;

/// Runs `row(scratch, id, flags)` for every state `id` of the graph
/// `offsets` are of, in parallel on more than one thread. A row pushes
/// one flag per edge of its state onto `flags` and returns the state's
/// own flag; the result is the flat per-edge table and the per-state
/// flags, both in id order. Every worker makes its own `scratch()` (the
/// image-class memos of a target table: unshared, so no lock) and
/// drops it on its own thread.
///
/// On failure the reported `pending` is exact in state units: the
/// number of states whose rows were not fully committed (sequentially
/// that is `n - id` at the failing row; in parallel, partially
/// completed chunks count as pending because their rows are
/// discarded). When several workers fail, the failure at the smallest
/// chunk start wins, keeping the surfaced error independent of timing.
pub(super) fn table_rows<'o, S>(
    offsets: &'o EdgeOffsets,
    threads: usize,
    scratch: &(dyn Fn() -> S + Sync),
    row: &TableRow<'_, S>,
) -> Result<(EdgeTable<'o>, Vec<bool>), Stop> {
    let n = offsets.states();
    // The rows of states `lo..hi`, flat.
    let rows = |scratch: &mut S, lo: usize, hi: usize| {
        let mut edges = Vec::with_capacity(offsets.edges(lo, hi));
        let mut states = Vec::with_capacity(hi - lo);
        for id in lo..hi {
            match row(scratch, id, &mut edges) {
                Ok(flag) => states.push(flag),
                Err(stop) => return Err((id, stop)),
            }
        }
        Ok((edges, states))
    };
    if threads <= 1 || n == 0 {
        return match rows(&mut scratch(), 0, n) {
            Ok((edges, states)) => Ok((EdgeTable::new(offsets, edges), states)),
            Err((id, stop)) => Err(stop.with_pending(n - id)),
        };
    }
    let chunks = n.div_ceil(CHUNK);
    type Rows = (Vec<bool>, Vec<bool>);
    let slots: Vec<Mutex<Option<Rows>>> = (0..chunks).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let committed = AtomicUsize::new(0);
    let failed: Mutex<Option<(usize, Stop)>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(chunks) {
            scope.spawn(|| {
                let mut scratch = scratch();
                loop {
                    if lock(&failed).is_some() {
                        break;
                    }
                    let c = cursor.fetch_add(1, Ordering::SeqCst);
                    if c >= chunks {
                        break;
                    }
                    let lo = c * CHUNK;
                    let hi = (lo + CHUNK).min(n);
                    match rows(&mut scratch, lo, hi) {
                        Err((_, stop)) => {
                            let mut slot = lock(&failed);
                            if slot.as_ref().is_none_or(|(start, _)| lo < *start) {
                                *slot = Some((lo, stop));
                            }
                            break;
                        }
                        Ok(chunk) => {
                            committed.fetch_add(hi - lo, Ordering::SeqCst);
                            *lock(&slots[c]) = Some(chunk);
                        }
                    }
                }
            });
        }
    });
    let failed = failed.into_inner().unwrap_or_else(|e| e.into_inner());
    if let Some((_, stop)) = failed {
        return Err(stop.with_pending(n - committed.load(Ordering::SeqCst)));
    }
    let mut edges = Vec::with_capacity(offsets.edges(0, n));
    let mut states = Vec::with_capacity(n);
    for slot in slots {
        let (chunk_edges, chunk_states) = slot
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .expect("every chunk committed");
        edges.extend(chunk_edges);
        states.extend(chunk_states);
    }
    Ok((EdgeTable::new(offsets, edges), states))
}

/// Parallel [`reachable_from`](super::reachable_from): the same
/// fixed-point set, computed by a level-synchronous BFS with visited
/// flags lock-striped across [`NUM_SHARDS`] shards (node `v` lives in
/// shard `v % NUM_SHARDS`).
pub(super) fn reachable_from_par(
    graph: &StateGraph,
    starts: &[usize],
    node_ok: Option<&[bool]>,
    threads: usize,
) -> Vec<bool> {
    let n = graph.len();
    let ok = |v: usize| node_ok.is_none_or(|f| f[v]);
    let shard_len = n.div_ceil(NUM_SHARDS).max(1);
    let shards: Striped<Vec<bool>> = Striped::new(|| vec![false; shard_len]);
    // First claim wins; later claims of the same node are no-ops, so
    // the fixed point is independent of worker interleaving.
    let claim = |v: usize| -> bool {
        let mut flags = shards.lock_shard(v % NUM_SHARDS);
        !std::mem::replace(&mut flags[v / NUM_SHARDS], true)
    };
    let mut frontier: Vec<usize> = starts
        .iter()
        .copied()
        .filter(|v| ok(*v) && claim(*v))
        .collect();
    while !frontier.is_empty() {
        let cursor = AtomicUsize::new(0);
        let next: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let frontier = &frontier;
                let cursor = &cursor;
                let next = &next;
                let claim = &claim;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let base = cursor.fetch_add(CHUNK, Ordering::SeqCst);
                        if base >= frontier.len() {
                            break;
                        }
                        let hi = (base + CHUNK).min(frontier.len());
                        for &s in &frontier[base..hi] {
                            for e in graph.edges(s) {
                                if ok(e.target) && claim(e.target) {
                                    local.push(e.target);
                                }
                            }
                        }
                    }
                    if !local.is_empty() {
                        lock(next).extend(local);
                    }
                });
            }
        });
        frontier = next.into_inner().unwrap_or_else(|e| e.into_inner());
    }
    let mut out = vec![false; n];
    for (i, flags) in shards.into_shards().into_iter().enumerate() {
        for (j, f) in flags.into_iter().enumerate() {
            let v = j * NUM_SHARDS + i;
            if f && v < n {
                out[v] = true;
            }
        }
    }
    out
}

/// The parallel component loop; see the module docs for the
/// determinism and soundness argument.
#[allow(clippy::too_many_arguments)]
pub(super) fn find_violation_par(
    system: &System,
    graph: &StateGraph,
    fair_infos: &[FairInfo<'_>],
    v: &Violation<'_>,
    meter: &Meter,
    threads: usize,
    charge: Charge,
    resume: Option<&LiveSnapshot>,
    ck: &mut LiveCheckpointer<'_>,
    recorder: &RecorderHandle,
) -> Result<Option<Counterexample>, Stop> {
    if v.starts.is_empty() {
        return Ok(None);
    }
    let edge_ok = |s: usize, i: usize| v.edge_ok(graph, s, i);
    // The SCC decomposition stays sequential and shared: its completion
    // order is the deterministic tie-break, so it must not depend on
    // thread count (and it is a single O(V + E) pass — the expensive
    // part is the per-component analysis below).
    let mut scratch = SccScratch::new();
    let sccs = scc::tarjan_sccs(graph, &v.cycle_node_ok, &edge_ok, meter, charge, &mut scratch)?;
    if let Some(snap) = resume {
        snap.validate_components(sccs.len() as u64)
            .map_err(|e| Stop::Error(e.into()))?;
    }
    let path_region = reachable_from_par(graph, &v.starts, v.path_node_ok.as_deref(), threads);
    let total = sccs.len();
    let cleared: Vec<AtomicBool> = (0..total).map(|_| AtomicBool::new(false)).collect();
    let mut resumed_done = 0usize;
    if let Some(snap) = resume {
        for &i in snap.cleared() {
            let i = i as usize;
            if i < total && !cleared[i].swap(true, Ordering::SeqCst) {
                resumed_done += 1;
            }
        }
    }
    let done = AtomicUsize::new(resumed_done);
    let best = AtomicUsize::new(usize::MAX);
    let cursor = AtomicUsize::new(0);
    type Candidate = (FairWitness, usize);
    let candidates_by_idx: Vec<Mutex<Option<Candidate>>> =
        (0..total).map(|_| Mutex::new(None)).collect();
    let halted: Mutex<Option<(usize, Stop)>> = Mutex::new(None);
    let ck_shared = Mutex::new(ck);
    std::thread::scope(|scope| {
        for w in 0..threads {
            let edge_ok = &edge_ok;
            let sccs = &sccs;
            let path_region = &path_region;
            let cleared = &cleared;
            let done = &done;
            let best = &best;
            let cursor = &cursor;
            let candidates_by_idx = &candidates_by_idx;
            let halted = &halted;
            let ck_shared = &ck_shared;
            scope.spawn(move || {
                let mut scratch = SccScratch::new();
                let mut claimed = 0u64;
                let mut found = 0u64;
                let clear = |idx: usize| {
                    if !cleared[idx].swap(true, Ordering::SeqCst) {
                        done.fetch_add(1, Ordering::SeqCst);
                    }
                    let mut ck = lock(ck_shared);
                    if ck.due(1) {
                        let snapshot: Vec<bool> =
                            cleared.iter().map(|b| b.load(Ordering::SeqCst)).collect();
                        ck.write(&snapshot, meter);
                    }
                };
                loop {
                    let idx = cursor.fetch_add(1, Ordering::SeqCst);
                    if idx >= total {
                        break;
                    }
                    if cleared[idx].load(Ordering::SeqCst) {
                        continue;
                    }
                    // The cursor is monotonic: once some smaller index
                    // holds a candidate, nothing this worker can claim
                    // will beat it.
                    if best.load(Ordering::SeqCst) < idx {
                        break;
                    }
                    claimed += 1;
                    match fair_subcomponent(
                        graph,
                        fair_infos,
                        edge_ok,
                        &sccs[idx],
                        v.must_contain.as_deref(),
                        meter,
                        &mut scratch,
                    ) {
                        Err(stop) => {
                            let mut h = lock(halted);
                            if h.as_ref().is_none_or(|(hidx, _)| idx < *hidx) {
                                *h = Some((idx, stop));
                            }
                            break;
                        }
                        Ok(Some((nodes, waypoints))) => {
                            match nodes.iter().find(|n| path_region[**n]) {
                                Some(&entry) => {
                                    found += 1;
                                    *lock(&candidates_by_idx[idx]) =
                                        Some(((nodes, waypoints), entry));
                                    best.fetch_min(idx, Ordering::SeqCst);
                                }
                                // Fair but unreachable under the path
                                // constraint: same as no violation.
                                None => clear(idx),
                            }
                        }
                        Ok(None) => clear(idx),
                    }
                }
                if recorder.enabled() {
                    recorder.record(&Event::LivenessWorker {
                        worker: w,
                        components: claimed,
                        candidates: found,
                    });
                }
            });
        }
    });
    let ck = ck_shared.into_inner().unwrap_or_else(|e| e.into_inner());
    let halted = halted.into_inner().unwrap_or_else(|e| e.into_inner());
    let winner = best.load(Ordering::SeqCst);
    if let Some((hidx, stop)) = halted {
        // A component smaller than every candidate is unresolved: the
        // sequential engine would have analyzed it first, so no verdict
        // may be claimed. Checkpoint the cleared set for resume.
        if hidx < winner {
            if matches!(stop, Stop::Exhausted { .. }) {
                let snapshot: Vec<bool> =
                    cleared.iter().map(|b| b.load(Ordering::SeqCst)).collect();
                ck.write(&snapshot, meter);
            }
            return Err(stop.with_pending(total - done.load(Ordering::SeqCst)));
        }
    }
    if winner == usize::MAX {
        return Ok(None);
    }
    let ((nodes, waypoints), entry) = lock(&candidates_by_idx[winner])
        .take()
        .expect("winning component recorded its witness");
    Ok(Some(super::build_counterexample(
        system, graph, v, &nodes, &waypoints, entry, &edge_ok,
    )))
}
