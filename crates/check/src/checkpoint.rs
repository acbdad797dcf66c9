//! Crash-tolerant checkpointing: resumable on-disk snapshots of a run.
//!
//! Long explicit-state runs — exactly what the Composition Theorem's
//! complete-system obligations produce — must survive interruption:
//! a crash at hour three is otherwise a total loss. Following TLC's
//! `-checkpoint`/`-recover` discipline, exploration engines running
//! under a [`Budget`](crate::Budget) with
//! [`Budget::with_checkpoint`](crate::Budget::with_checkpoint)
//! periodically serialize their resumable core — the state arena, the
//! recorded edges and BFS tree, and the unexpanded frontier — to a
//! [`Snapshot`], and
//! [`explore_resumable`](crate::explore_resumable) continues from the
//! preserved frontier instead of restarting.
//!
//! # Format and integrity
//!
//! There is one on-disk format, a zero-dependency binary file:
//!
//! ```text
//! magic    8 bytes  b"OTLASNAP"
//! body     version (u32 LE) + header + layout + manifest + frontier
//! checksum 8 bytes  FNV-1a over the body
//! ```
//!
//! The manifest is the record stream the disk-backed stores write
//! anyway — one arena record per state, of one tag: its packed row —
//! and one edge record per fully expanded state — with sealed segments
//! *referenced* (name, record count, checksum) and everything else
//! inline. The sequential store, once on disk, references its sealed
//! segments, so its periodic checkpoint costs O(hot tier), not O(state
//! space); an engine whose graph is in RAM writes a manifest with no
//! sealed segment. A row means a state only under its layout, which
//! goes in ahead of the manifest as each slot's domain ([`codec`]
//! values): a resume under other domains re-packs every row or refuses
//! the snapshot. Either way [`Snapshot::load`] → [`Snapshot::validate`]
//! → `materialize` → engine is the only way a file becomes a run.
//!
//! The header pins everything that decides *whether the snapshot may
//! be trusted for a resume*: the system's structural hash, the
//! fingerprint width (`fp_bits` — a snapshot taken under forced
//! collisions must not silently resume a full-width run) and the
//! [`VisitedMode`]. [`Snapshot::load`] verifies magic, version, and
//! checksum; [`Snapshot::validate`] refuses any mismatch with a typed
//! [`CheckpointError`], and reading the records back refuses a state
//! outside the system's domains — never a panic, and never a silent
//! wrong-configuration resume.
//!
//! Writes are atomic (temp file in the same directory, then rename),
//! so a crash mid-write leaves the previous snapshot intact.
//!
//! # What restarts instead
//!
//! Only exploration checkpoints. A liveness check over a finished
//! graph spends its time in the fairness tables and the SCC pass, which
//! a resume would have to re-derive anyway (measured: the component
//! loop a snapshot could skip is at most 13 % of the phase on the
//! certificate graphs), so an interrupted one is simply run again —
//! [`escalate`](crate::escalate) under a larger budget.
//!
//! # Why resuming preserves soundness
//!
//! A snapshot stores no visited set: on load the dedup structures are
//! rebuilt by re-fingerprinting the arena ([`PackedLayout::fingerprint`] is
//! deterministic across processes), under the *same* `fp_bits` the
//! original run used — so the resumed run conflates exactly the states
//! the original would have, keeping the under-approximation argument
//! of [`VisitedMode::Fingerprint`] intact. Frontier states' partial
//! edge lists are cleared at capture and those states fully re-expand
//! on resume, in the BFS discovery order the uninterrupted run would
//! have followed, which is why a resumed run's graph is
//! byte-identical to an uninterrupted one.

use crate::explore::{Edge, StateGraph};
use crate::obs::{Event, RecorderHandle};
use crate::{CheckError, ExploreOptions, System, VisitedMode};
use opentla_kernel::codec::{self, Reader};
use opentla_kernel::store::{self, fnv1a, SegmentMeta, StoreError};
use opentla_kernel::{Domain, PackedLayout, Vars};
use std::borrow::Cow;
use std::hash::Hasher;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Default checkpoint cadence, in state expansions between snapshot
/// writes. At typical sequential throughput this is a snapshot every
/// few hundred milliseconds of exploration — frequent enough that an
/// interrupted run loses little, rare enough that the writes stay a
/// small share of the run.
pub const DEFAULT_CHECKPOINT_CADENCE: u64 = 65_536;

/// Snapshot wire-format version written and accepted by this build.
/// Version 1 carried the graph as a tree-state body of its own,
/// version 2 a reduced flag and a trailing symmetry-reduction block,
/// and version 3 no layout, its in-RAM captures' states as trees; all
/// three are refused, not read.
pub const SNAPSHOT_VERSION: u32 = 4;

const MAGIC: &[u8; 8] = b"OTLASNAP";

/// Where and how often a budgeted run checkpoints; see
/// [`Budget::with_checkpoint`](crate::Budget::with_checkpoint).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Snapshot file path (overwritten atomically on each write).
    pub path: PathBuf,
    /// State expansions between periodic snapshots (≥ 1).
    pub cadence: u64,
}

/// Proof that an exhausted run left a resumable snapshot behind;
/// carried by [`Outcome::Exhausted`](crate::Outcome::Exhausted).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResumeToken {
    /// The snapshot file the run wrote last.
    pub path: PathBuf,
    /// Sequence number of that snapshot (strictly increasing within a
    /// run, so observers can tell periodic writes apart).
    pub seq: u64,
}

/// Why a snapshot could not be written, read, or trusted.
///
/// `Clone` because [`CheckError`](crate::CheckError) is `Clone`; I/O
/// errors are therefore carried as rendered strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The underlying file operation failed.
    Io {
        /// The path being read or written.
        path: PathBuf,
        /// The rendered `std::io::Error`.
        message: String,
    },
    /// The file does not start with the snapshot magic — not a
    /// snapshot at all.
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    UnsupportedVersion {
        /// The version found in the file.
        found: u32,
    },
    /// The body's checksum does not match: the file was truncated or
    /// corrupted after writing.
    ChecksumMismatch,
    /// The body failed structural decoding despite a valid checksum
    /// (or a length/bounds invariant failed).
    Corrupt {
        /// What failed.
        detail: String,
    },
    /// The snapshot is valid but was taken under a different system or
    /// configuration than the resume requests — resuming would be
    /// unsound, so it is refused.
    Mismatch {
        /// Which header field disagreed.
        field: &'static str,
        /// The value recorded in the snapshot.
        snapshot: String,
        /// The value the resume requested.
        requested: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, message } => {
                write!(f, "snapshot I/O failed at {}: {message}", path.display())
            }
            CheckpointError::BadMagic => {
                write!(f, "not a snapshot file (bad magic)")
            }
            CheckpointError::UnsupportedVersion { found } => write!(
                f,
                "snapshot format version {found} is not supported \
                 (this build reads version {SNAPSHOT_VERSION})"
            ),
            CheckpointError::ChecksumMismatch => {
                write!(f, "snapshot checksum mismatch (truncated or corrupted)")
            }
            CheckpointError::Corrupt { detail } => {
                write!(f, "snapshot is corrupt: {detail}")
            }
            CheckpointError::Mismatch {
                field,
                snapshot,
                requested,
            } => write!(
                f,
                "snapshot was taken under a different {field} \
                 (snapshot: {snapshot}, requested: {requested}); \
                 refusing to resume"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Segment-store failures surface through the same typed vocabulary:
/// a corrupt or truncated segment file referenced by a snapshot is a
/// checkpoint problem to its caller.
impl From<StoreError> for CheckpointError {
    fn from(e: StoreError) -> CheckpointError {
        match e {
            StoreError::Io { path, message } => CheckpointError::Io { path, message },
            StoreError::BadMagic { .. } => CheckpointError::BadMagic,
            StoreError::UnsupportedVersion { found } => {
                CheckpointError::UnsupportedVersion { found }
            }
            StoreError::ChecksumMismatch { .. } => CheckpointError::ChecksumMismatch,
            StoreError::Corrupt { detail } => CheckpointError::Corrupt { detail },
            StoreError::MetaMismatch {
                field,
                expected,
                found,
            } => CheckpointError::Corrupt {
                detail: format!(
                    "segment {field} disagrees with the manifest \
                     (recorded {expected}, found {found})"
                ),
            },
        }
    }
}

fn io_err(path: &Path, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

#[cold]
pub(crate) fn corrupt(detail: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt {
        detail: detail.into(),
    }
}

/// Refuses bytes left over once `what` has been decoded.
fn expect_end(r: &Reader<'_>, what: &str) -> Result<(), CheckpointError> {
    if r.is_empty() {
        return Ok(());
    }
    Err(corrupt(format!(
        "{} trailing byte(s) after {what}",
        r.remaining()
    )))
}

/// The refusal to resume under a different `field`.
fn mismatch(
    field: &'static str,
    snapshot: String,
    requested: String,
) -> Result<(), CheckpointError> {
    Err(CheckpointError::Mismatch {
        field,
        snapshot,
        requested,
    })
}

/// A decode failure under a valid checksum (or in a record read back
/// from a verified segment) is structural corruption.
impl From<codec::DecodeError> for CheckpointError {
    fn from(e: codec::DecodeError) -> CheckpointError {
        corrupt(e.to_string())
    }
}

/// Writes the magic, `body` and the FNV-1a checksum of `body` (a
/// zero-dependency integrity check: it guards against truncation and
/// bit rot, not adversaries) to `path` atomically: the bytes go to a
/// temporary file in the same directory, which is then renamed over
/// `path` — a crash mid-write leaves any previous file intact.
fn write_framed(path: &Path, body: &[u8]) -> Result<(), CheckpointError> {
    let mut file = Vec::with_capacity(body.len() + 16);
    file.extend_from_slice(MAGIC);
    file.extend_from_slice(body);
    file.extend_from_slice(&fnv1a(body).to_le_bytes());
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, &file).map_err(|e| io_err(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}

/// A structural hash of a [`System`] — variable names and action
/// names, in order — pinned into every snapshot so a resume against a
/// *different* system is refused instead of silently producing
/// garbage. Deliberately coarse: it fingerprints the system's shape,
/// not its semantics.
pub(crate) fn system_hash(system: &System) -> u64 {
    let mut h = fxhash::FxHasher::default();
    let vars = system.vars();
    h.write_usize(vars.len());
    for v in vars.iter() {
        h.write(vars.name(v).as_bytes());
        h.write_u8(0xff);
    }
    h.write_usize(system.actions().len());
    for a in system.actions() {
        h.write(a.name().as_bytes());
        h.write_u8(0xfe);
    }
    h.finish()
}

/// A run's resumable core, as captured at a consistent cut of the
/// exploration: every non-frontier state is fully expanded (its edge
/// list is complete and in action order), every frontier state is
/// entirely unexpanded (its edge list is empty), and every arena
/// state is reachable from the initial states via recorded edges or
/// sits on the frontier. Resuming therefore only ever *re-does* the
/// expansion of frontier states — O(new work), not O(total).
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Fingerprint width the run used (see
    /// [`ExploreOptions::fp_bits`]).
    pub fp_bits: u32,
    /// Visited-set representation the run used.
    pub mode: VisitedMode,
    /// Structural hash of the explored system.
    pub system_hash: u64,
    /// Sequence number of this snapshot within its run.
    pub seq: u64,
    pub(crate) body: Body,
    /// The unexpanded states: the arena's last ids, ascending.
    pub(crate) frontier: Vec<usize>,
}

/// The arena, recorded edges and BFS tree of a [`Snapshot`], in
/// canonical order.
#[derive(Clone, Debug)]
pub(crate) enum Body {
    /// In RAM: what an engine captures and what it resumes from.
    Graph(StateGraph),
    /// As records: what a file holds, and what the sequential
    /// disk-backed engine captures over its own segment files.
    Manifest(Manifest),
}

/// What pins a snapshot to the run that takes it: the header fields
/// [`Snapshot::validate`] compares on resume.
pub(crate) struct RunHeader {
    pub(crate) mode: VisitedMode,
    pub(crate) fp_bits: u32,
    pub(crate) system_hash: u64,
}

impl RunHeader {
    /// The header of a run of the system with `system_hash`.
    pub(crate) fn of(options: &ExploreOptions, system_hash: u64) -> RunHeader {
        RunHeader {
            mode: options.mode,
            fp_bits: options.fp_bits.clamp(1, 64),
            system_hash,
        }
    }

    /// A snapshot of this run, first in its sequence, whose arena's
    /// tail `frontier` is unexpanded.
    pub(crate) fn snapshot(self, body: Body, frontier: Range<usize>) -> Snapshot {
        let frontier = frontier.collect();
        Snapshot {
            fp_bits: self.fp_bits,
            mode: self.mode,
            system_hash: self.system_hash,
            seq: 0,
            body,
            frontier,
        }
    }
}

/// Records held inline, the way a segment store holds its unsealed
/// tail: one flat buffer and where each record ends.
#[derive(Clone, Debug, Default)]
pub(crate) struct Records {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Records {
    fn push(&mut self, record: &[u8]) {
        self.bytes.extend_from_slice(record);
        self.ends.push(self.bytes.len());
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    fn iter(&self) -> impl Iterator<Item = &[u8]> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let record = &self.bytes[start..end];
            start = end;
            record
        })
    }
}

impl<'a> FromIterator<&'a [u8]> for Records {
    fn from_iter<I: IntoIterator<Item = &'a [u8]>>(records: I) -> Records {
        let mut held = Records::default();
        records.into_iter().for_each(|r| held.push(r));
        held
    }
}

/// A graph as the record stream of the disk-backed stores: where the
/// sealed segment files live and how to verify them, and every record
/// no sealed segment holds, inline.
#[derive(Clone, Debug)]
pub(crate) struct Manifest {
    /// The layout the arena records' rows are under.
    pub(crate) layout: Arc<PackedLayout>,
    /// Directory holding the sealed segment files.
    pub(crate) dir: PathBuf,
    /// Total arena states (sealed + inline).
    pub(crate) states: u64,
    /// Total committed transitions across all edge records.
    pub(crate) transitions: u64,
    /// Ids of the initial states.
    pub(crate) init: Vec<usize>,
    /// Sealed arena segments, in id order.
    pub(crate) arena_segments: Vec<SegmentMeta>,
    /// The arena records after them (ids follow the last sealed one).
    pub(crate) arena_hot: Records,
    /// Sealed edge-record segments.
    pub(crate) edge_segments: Vec<SegmentMeta>,
    /// The edge records after them.
    pub(crate) edge_hot: Records,
}

impl Manifest {
    /// A materialized snapshot with no sealed segment: every arena
    /// record inline, and the edge record of every expanded state.
    fn inline(snap: &Snapshot) -> Manifest {
        let (mut record, mut transitions) = (Vec::new(), 0);
        let (mut arena_hot, mut edge_hot) = (Records::default(), Records::default());
        let layout = snap.graph().layout();
        for (id, row, parent, edges) in snap.records() {
            let payload = |out: &mut Vec<u8>| out.extend_from_slice(row);
            encode_packed_record(parent, layout.fingerprint(row), payload, &mut record);
            arena_hot.push(&record);
            if let Some(edges) = edges {
                encode_edge_record(id, edges, &mut record);
                edge_hot.push(&record);
                transitions += edges.len() as u64;
            }
        }
        Manifest {
            layout: Arc::clone(layout),
            dir: PathBuf::new(),
            states: arena_hot.len() as u64,
            transitions,
            init: snap.graph().init().to_vec(),
            arena_segments: Vec::new(),
            arena_hot,
            edge_segments: Vec::new(),
            edge_hot,
        }
    }

    /// Reads every record back — sealed segments through the store's
    /// verified reader — into the graph they describe, under the
    /// manifest's layout.
    fn materialize(&self) -> Result<StateGraph, CheckpointError> {
        let n = self.states as usize;
        let arena = (&*self.dir, &*self.arena_segments, self.arena_hot.iter());
        let mut graph = graph_of_arena(arena, n.min(1 << 20), &self.layout)?;
        if graph.len() != n {
            return Err(corrupt(format!(
                "manifest claims {n} states, its records held {}",
                graph.len()
            )));
        }
        if graph.init() != self.init {
            return Err(corrupt(
                "manifest and arena records disagree on the initial states",
            ));
        }
        fill_edges(
            &mut graph,
            (&self.dir, &self.edge_segments, self.edge_hot.iter()),
        )?;
        if graph.edge_count() as u64 != self.transitions {
            return Err(corrupt(format!(
                "manifest claims {} transitions, edge records held {}",
                self.transitions,
                graph.edge_count()
            )));
        }
        Ok(graph)
    }
}

/// Refuses a snapshot graph that `system` cannot resume from, whether
/// it was read back from records or captured in RAM: counterexamples
/// index the system's actions by its action words.
fn check_actions(graph: &StateGraph, system: &System) -> Result<(), CheckpointError> {
    let actions = system.actions().len();
    for id in 0..graph.len() {
        let led_in = graph.parent(id).map(|(_, action)| action);
        let fired = graph.edges(id).iter().map(|e| e.action);
        if let Some(action) = led_in.into_iter().chain(fired).find(|&a| a >= actions) {
            return Err(corrupt(format!(
                "state {id} records action {action} of a system with {actions}"
            )));
        }
    }
    Ok(())
}

/// The graph of a materialized `snap` with every row re-packed under
/// `layout`, compiled from `vars`: how a snapshot is resumed under
/// other domains than its own. Every engine indexes a state's slots by
/// the system's variables, stepping it on its packed row, so a value
/// outside its domain is refused.
fn repacked(
    snap: &Snapshot,
    layout: &Arc<PackedLayout>,
    vars: &Vars,
) -> Result<StateGraph, CheckpointError> {
    let (graph, width) = (snap.graph(), vars.len());
    let (from, slots) = (graph.layout(), graph.layout().slots());
    if slots != width && !graph.is_empty() {
        return Err(corrupt(format!(
            "state 0 holds {slots} value(s) for a system of {width} variable(s)"
        )));
    }
    let mut repacked = StateGraph::with_capacity(Arc::clone(layout), graph.len());
    let mut row = vec![0; layout.stride()];
    for (id, old, parent, edges) in snap.records() {
        for (slot, v) in vars.iter().enumerate() {
            let value = from.value_of(slot, from.read_code(old, slot));
            let code = layout.code_of(slot, value).ok_or_else(|| {
                let var = vars.name(v);
                corrupt(format!(
                    "state {id} holds {value} for {var}, outside its domain"
                ))
            })?;
            layout.write_code(&mut row, slot, code);
        }
        repacked.push_state(&row, parent)?;
        if let Some(edges) = edges {
            repacked.set_edges(id, edges)?;
        }
    }
    Ok(repacked)
}

impl Snapshot {
    /// States banked in the snapshot (what the resumed meter is
    /// pre-charged with).
    pub fn states_used(&self) -> usize {
        match &self.body {
            Body::Graph(graph) => graph.len(),
            Body::Manifest(m) => m.states as usize,
        }
    }

    /// Fully-committed transitions banked in the snapshot.
    pub fn transitions_used(&self) -> usize {
        match &self.body {
            Body::Graph(graph) => graph.edge_count(),
            Body::Manifest(m) => m.transitions as usize,
        }
    }

    /// Number of discovered-but-unexpanded states awaiting resume.
    pub fn frontier_len(&self) -> usize {
        self.frontier.len()
    }

    /// The first frontier id of a materialized snapshot: the frontier
    /// is the arena's tail from there, in ascending order.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] for a frontier that is not the
    /// arena's tail.
    pub(crate) fn frontier_start(&self) -> Result<usize, CheckpointError> {
        tail_start(&self.frontier, self.graph().len())
    }

    /// The graph of a materialized snapshot.
    ///
    /// # Panics
    ///
    /// On a manifest: `explore_observed` materializes before any
    /// engine sees the snapshot.
    pub(crate) fn graph(&self) -> &StateGraph {
        match &self.body {
            Body::Graph(graph) => graph,
            Body::Manifest(_) => panic!("engines resume materialized snapshots"),
        }
    }

    /// The one walk of a materialized snapshot, in id order: `(id, row,
    /// BFS parent, successors — `None` on the frontier, which re-expands)`.
    #[allow(clippy::type_complexity)]
    pub(crate) fn records(
        &self,
    ) -> impl Iterator<Item = (usize, &[u8], Option<(usize, usize)>, Option<&[Edge]>)> {
        let graph = self.graph();
        let mut unexpanded = self.frontier.iter().peekable();
        (0..graph.len()).map(move |id| {
            let expanded = unexpanded.next_if_eq(&&id).is_none();
            (
                id,
                graph.row(id),
                graph.parent(id),
                expanded.then(|| graph.edges(id)),
            )
        })
    }

    /// Refuses to resume under a different system or configuration:
    /// the structural hash, fingerprint width and visited mode must all
    /// match what the snapshot was taken under.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Mismatch`] naming the first disagreeing
    /// field.
    pub fn validate(
        &self,
        system: &System,
        options: &ExploreOptions,
    ) -> Result<(), CheckpointError> {
        let requested_hash = system_hash(system);
        if self.system_hash != requested_hash {
            return mismatch(
                "system",
                format!("{:#018x}", self.system_hash),
                format!("{requested_hash:#018x}"),
            );
        }
        if self.fp_bits != options.fp_bits.clamp(1, 64) {
            return mismatch(
                "fingerprint width (fp_bits)",
                self.fp_bits.to_string(),
                options.fp_bits.clamp(1, 64).to_string(),
            );
        }
        if self.mode != options.mode {
            return mismatch(
                "visited mode",
                format!("{:?}", self.mode),
                format!("{:?}", options.mode),
            );
        }
        Ok(())
    }

    /// Serializes the snapshot body (everything between magic and
    /// checksum).
    fn encode_body(&self) -> Vec<u8> {
        let inline;
        let m = match &self.body {
            Body::Manifest(m) => m,
            Body::Graph(_) => {
                inline = Manifest::inline(self);
                &inline
            }
        };
        let mut out = Vec::new();
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.fp_bits.to_le_bytes());
        out.push(match self.mode {
            VisitedMode::Fingerprint => 0,
            VisitedMode::Exact => 1,
        });
        out.extend_from_slice(&self.system_hash.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&(m.layout.slots() as u32).to_le_bytes());
        for domain in m.layout.domains() {
            out.extend_from_slice(&(domain.len() as u32).to_le_bytes());
            domain.iter().for_each(|v| codec::encode_value(v, &mut out));
        }
        let push_ids = |out: &mut Vec<u8>, ids: &[usize]| {
            out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
            for &i in ids {
                out.extend_from_slice(&(i as u32).to_le_bytes());
            }
        };
        let push_bytes = |out: &mut Vec<u8>, bytes: &[u8]| {
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
        };
        push_bytes(&mut out, m.dir.to_string_lossy().as_bytes());
        out.extend_from_slice(&m.states.to_le_bytes());
        out.extend_from_slice(&m.transitions.to_le_bytes());
        for segments in [&m.arena_segments, &m.edge_segments] {
            out.extend_from_slice(&(segments.len() as u32).to_le_bytes());
            for seg in segments.iter() {
                push_bytes(&mut out, seg.name.as_bytes());
                for word in [
                    seg.first,
                    seg.records,
                    seg.payload_len,
                    seg.payload_checksum,
                ] {
                    out.extend_from_slice(&word.to_le_bytes());
                }
            }
        }
        for hot in [&m.arena_hot, &m.edge_hot] {
            out.extend_from_slice(&(hot.len() as u32).to_le_bytes());
            for rec in hot.iter() {
                push_bytes(&mut out, rec);
            }
        }
        push_ids(&mut out, &m.init);
        push_ids(&mut out, &self.frontier);
        out
    }

    /// Writes the snapshot to `path` atomically: the encoding goes to
    /// a temporary file in the same directory, which is then renamed
    /// over `path` — a crash mid-write leaves any previous snapshot
    /// intact.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the filesystem refuses.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        write_framed(path, &self.encode_body())
    }

    /// Loads and verifies a snapshot: magic, checksum, format version,
    /// and structural bounds (every id in range, the frontier the
    /// arena's tail). Corrupt or truncated files yield a typed error,
    /// never a panic.
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`] except `Mismatch` (configuration
    /// validation is [`Snapshot::validate`]'s job).
    pub fn load(path: &Path) -> Result<Snapshot, CheckpointError> {
        let file = std::fs::read(path).map_err(|e| io_err(path, e))?;
        if file.len() < MAGIC.len() + 8 || &file[..MAGIC.len()] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let (body, tail) = file[MAGIC.len()..].split_at(file.len() - MAGIC.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte checksum tail"));
        if fnv1a(body) != stored {
            return Err(CheckpointError::ChecksumMismatch);
        }
        let mut r = Reader::new(body);
        let version = r.u32("version")?;
        if version != SNAPSHOT_VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }
        // From here every decode error is structural corruption.
        SnapshotReader { r }.finish()
    }

    /// The snapshot with its graph in RAM, its rows under `system`'s
    /// layout, which is what the engines resume from: a manifest's
    /// records are read back, sealed segments through the store's
    /// verified reader, and a graph, read back or captured in RAM, is
    /// checked against `system` and re-packed under its domains if
    /// they are not the graph's.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when a referenced segment file is gone,
    /// or any corruption-class error when one fails verification or
    /// disagrees with the manifest or with `system`'s variables,
    /// actions and domains.
    pub(crate) fn materialize(
        &self,
        system: &System,
    ) -> Result<Cow<'_, Snapshot>, CheckpointError> {
        let snap = match &self.body {
            Body::Graph(_) => Cow::Borrowed(self),
            Body::Manifest(m) => Cow::Owned(self.with_graph(m.materialize()?)),
        };
        check_actions(snap.graph(), system)?;
        let layout = PackedLayout::compile(system.vars())
            .map(Arc::new)
            .ok_or_else(|| corrupt("a snapshot of a system no packed layout compiles for"))?;
        if snap.graph().layout().domains() == layout.domains() {
            return Ok(snap);
        }
        let graph = repacked(&snap, &layout, system.vars())?;
        Ok(Cow::Owned(snap.with_graph(graph)))
    }

    /// This snapshot over `graph`.
    fn with_graph(&self, graph: StateGraph) -> Snapshot {
        Snapshot {
            body: Body::Graph(graph),
            frontier: self.frontier.clone(),
            ..*self
        }
    }
}

/// Decoding state for the snapshot body past the version word.
struct SnapshotReader<'a> {
    r: Reader<'a>,
}

impl SnapshotReader<'_> {
    fn ids(&mut self, ctx: &'static str, bound: usize) -> Result<Vec<usize>, CheckpointError> {
        let n = self.r.u32(ctx)? as usize;
        if n > bound {
            return Err(corrupt(format!(
                "{ctx} count {n} exceeds state count {bound}"
            )));
        }
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            let id = self.r.u32(ctx)? as usize;
            if id >= bound {
                return Err(corrupt(format!("{ctx} {id} out of range (< {bound})")));
            }
            ids.push(id);
        }
        Ok(ids)
    }

    fn string(&mut self, ctx: &'static str) -> Result<String, CheckpointError> {
        String::from_utf8(self.r.bytes(ctx)?.to_vec())
            .map_err(|_| corrupt(format!("{ctx} is not valid UTF-8")))
    }

    fn segments(&mut self) -> Result<Vec<SegmentMeta>, CheckpointError> {
        let count = self.r.u32("segment count")? as usize;
        let mut list = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            let name = self.string("segment name")?;
            if name.contains('/') || name.contains('\\') || name.contains("..") {
                return Err(corrupt(format!(
                    "segment name {name:?} escapes the spill dir"
                )));
            }
            list.push(SegmentMeta {
                name,
                first: self.r.u64("segment first id")?,
                records: self.r.u64("segment record count")?,
                payload_len: self.r.u64("segment payload length")?,
                payload_checksum: self.r.u64("segment payload checksum")?,
            });
        }
        Ok(list)
    }

    /// The layout block: each slot's domain, its values in order. A
    /// domain is a nonempty list of distinct values.
    fn layout(&mut self) -> Result<Arc<PackedLayout>, CheckpointError> {
        let slots = self.r.u32("layout slot count")?;
        let mut domains = Vec::with_capacity((slots as usize).min(self.r.remaining()));
        for slot in 0..slots {
            let count = self.r.u32("domain size")?;
            let mut values = Vec::with_capacity((count as usize).min(self.r.remaining()));
            for _ in 0..count {
                values.push(codec::decode_value(&mut self.r)?);
            }
            let mut seen = std::collections::HashSet::new();
            if values.is_empty() || !values.iter().all(|v| seen.insert(v)) {
                return Err(corrupt(format!(
                    "the domain of slot {slot} is empty or repeats a value"
                )));
            }
            domains.push(Domain::new(values));
        }
        PackedLayout::of_domains(domains)
            .map(Arc::new)
            .ok_or_else(|| corrupt("a layout whose codes do not fit a u32"))
    }

    fn records(&mut self) -> Result<Records, CheckpointError> {
        let count = self.r.u32("inline record count")?;
        (0..count)
            .map(|_| Ok(self.r.bytes("inline record")?))
            .collect()
    }

    fn finish(&mut self) -> Result<Snapshot, CheckpointError> {
        let fp_bits = self.r.u32("fp_bits")?;
        if fp_bits == 0 || fp_bits > 64 {
            return Err(corrupt(format!("fp_bits {fp_bits} outside 1..=64")));
        }
        let mode = match self.r.u8("visited mode")? {
            0 => VisitedMode::Fingerprint,
            1 => VisitedMode::Exact,
            m => return Err(corrupt(format!("unknown visited mode tag {m}"))),
        };
        let system_hash = self.r.u64("system hash")?;
        let seq = self.r.u64("sequence number")?;
        let layout = self.layout()?;
        let dir = PathBuf::from(self.string("segment directory")?);
        let states = self.r.u64("state count")?;
        let transitions = self.r.u64("transition count")?;
        let arena_segments = self.segments()?;
        let edge_segments = self.segments()?;
        let arena_hot = self.records()?;
        let edge_hot = self.records()?;
        let n = usize::try_from(states)
            .map_err(|_| corrupt(format!("state count {states} exceeds the address space")))?;
        // Checked: the record counts are the file's own words.
        let referenced = arena_segments
            .iter()
            .try_fold(arena_hot.len() as u64, |sum, s| sum.checked_add(s.records));
        if referenced != Some(states) {
            return Err(corrupt(format!(
                "manifest claims {states} states but its arena segments and {} inline records \
                 hold {}",
                arena_hot.len(),
                referenced.map_or("more than u64::MAX".to_string(), |r| r.to_string()),
            )));
        }
        let init = self.ids("initial state id", n)?;
        let frontier = self.ids("frontier id", n)?;
        tail_start(&frontier, n)?;
        expect_end(&self.r, "the snapshot body")?;
        let manifest = Manifest {
            layout,
            dir,
            states,
            transitions,
            init,
            arena_segments,
            arena_hot,
            edge_segments,
            edge_hot,
        };
        Ok(Snapshot {
            fp_bits,
            mode,
            system_hash,
            seq,
            body: Body::Manifest(manifest),
            frontier,
        })
    }
}

/// Where `frontier` starts in an arena of `n` states. Every writer
/// lists the unexpanded states once each, and they are the arena's tail
/// in ascending order (what the resume argument of `explore_seq` rests
/// on): a repeated id would expand, and be charged, twice.
fn tail_start(frontier: &[usize], n: usize) -> Result<usize, CheckpointError> {
    let expanded = n.saturating_sub(frontier.len());
    match (expanded..)
        .zip(frontier)
        .position(|(want, &id)| id != want)
    {
        None => Ok(expanded),
        Some(at) => Err(corrupt(format!(
            "frontier id {} at position {at} is not the arena's tail in ascending order \
             (expected {})",
            frontier[at],
            expanded + at
        ))),
    }
}

/// Captures a snapshot from a (possibly partial) exploration whose
/// only incomplete states are the frontier `first..`, the arena's
/// tail: their (possibly partial) edge lists are cleared so they fully
/// re-expand on resume.
pub(crate) fn capture(graph: &StateGraph, first: usize, header: RunHeader) -> Snapshot {
    let mut graph = graph.clone();
    graph.clear_edges(first);
    let frontier = first..graph.len();
    header.snapshot(Body::Graph(graph), frontier)
}

/// Hands `take` every record of a segmented store `(dir, sealed,
/// hot)`, in id order: the sealed segments under `dir`, each verified
/// against its `sealed` entry as it is read and its records handed out
/// as slices of its payload, then the unsealed `hot` tail.
pub(crate) fn for_each_record<'a>(
    (dir, sealed, hot): (&Path, &[SegmentMeta], impl Iterator<Item = &'a [u8]>),
    mut take: impl FnMut(&[u8]) -> Result<(), CheckpointError>,
) -> Result<(), CheckpointError> {
    for meta in sealed {
        store::for_each_segment_record(&dir.join(&meta.name), Some(meta), &mut take)?;
    }
    hot.into_iter().try_for_each(take)
}

/// The one records → graph reader, in two steps so a store can drop
/// its arena between them. First every arena record, in id order, as a
/// state of a graph of rows under `layout` with room for `capacity` and
/// no edges yet, each record checked as [`arena_record`] does.
pub(crate) fn graph_of_arena<'a>(
    records: (&Path, &[SegmentMeta], impl Iterator<Item = &'a [u8]>),
    capacity: usize,
    layout: &Arc<PackedLayout>,
) -> Result<StateGraph, CheckpointError> {
    let mut graph = StateGraph::with_capacity(Arc::clone(layout), capacity);
    for_each_record(records, |bytes| {
        let rec = arena_record(bytes, layout)?;
        graph.push_state(rec.row, rec.parent).map(drop)
    })?;
    Ok(graph)
}

/// Then every edge record as a row of `graph`, which refuses one out
/// of ascending id order — as every writer emits them.
pub(crate) fn fill_edges<'a>(
    graph: &mut StateGraph,
    records: (&Path, &[SegmentMeta], impl Iterator<Item = &'a [u8]>),
) -> Result<(), CheckpointError> {
    let (bound, mut list) = (graph.len(), Vec::new());
    for_each_record(records, |bytes| {
        let id = decode_edge_record(bytes, bound, &mut list)?;
        graph.set_edges(id, &list)
    })
}

/// One arena record: `[tag u8][parent u32, with `u32::MAX` for
/// "initial"][action u32][fingerprint u64][row]`, the row the state's
/// under the system's [`PackedLayout`]. The tag is 1: version 3's tag 0,
/// a state in a value encoding, is no longer written or read. The
/// fingerprint is stored rather than recomputed so spilled parents can
/// be re-expanded without rehashing. This file alone knows the offsets.
pub(crate) struct ArenaRecord<'b> {
    pub(crate) parent: Option<(usize, usize)>,
    /// One stride of in-domain codes.
    pub(crate) row: &'b [u8],
    pub(crate) fp: u64,
}

/// Bytes of an arena record ahead of its payload.
const ARENA_RECORD_HEADER: usize = 17;

/// The word state `id` is named by in arena and edge records. The
/// sequential store admits no state past it: `u32::MAX` is the "no
/// parent" word and the dedup index's empty slot, and an id that does
/// not fit a word would alias another state's.
///
/// # Errors
///
/// [`CheckError::TooManyStates`] for an id at or past `u32::MAX`.
pub(crate) fn id_word(id: usize) -> Result<u32, CheckError> {
    u32::try_from(id)
        .ok()
        .filter(|&word| word != u32::MAX)
        .ok_or(CheckError::TooManyStates {
            limit: u32::MAX as usize,
        })
}

/// Starts an arena record in `out`: everything but the payload. Ids
/// are below [`id_word`]'s limit: the stores admit no other.
fn begin_arena_record(tag: u8, parent: Option<(usize, usize)>, fp: u64, out: &mut Vec<u8>) {
    let (parent_word, action_word) = match parent {
        Some((p, a)) => (p as u32, a as u32),
        None => (u32::MAX, 0),
    };
    out.clear();
    out.push(tag);
    out.extend_from_slice(&parent_word.to_le_bytes());
    out.extend_from_slice(&action_word.to_le_bytes());
    out.extend_from_slice(&fp.to_le_bytes());
}

/// An arena record, `payload` appending its packed row.
pub(crate) fn encode_packed_record(
    parent: Option<(usize, usize)>,
    fp: u64,
    payload: impl FnOnce(&mut Vec<u8>),
    out: &mut Vec<u8>,
) {
    begin_arena_record(1, parent, fp, out);
    payload(out);
}

/// What a segment store counts for a packed arena record whose row is
/// `stride` bytes: 4-byte length prefix, header, row.
pub(crate) fn arena_record_bytes(stride: usize) -> usize {
    4 + ARENA_RECORD_HEADER + stride
}

/// An arena record read back from a segment or a file, its row checked
/// to be one stride of in-domain codes: what stepping keys tables on,
/// and the graph keeps, trusting every code.
///
/// # Errors
///
/// [`CheckpointError::Corrupt`] for a short record, another tag or
/// another width, and — rendering
/// [`BadCode`](codec::DecodeError::BadCode) — for a code outside its
/// domain.
pub(crate) fn arena_record<'b>(
    bytes: &'b [u8],
    layout: &PackedLayout,
) -> Result<ArenaRecord<'b>, CheckpointError> {
    let mut r = Reader::new(bytes);
    let tag = r.u8("arena record tag")?;
    let parent_word = r.u32("arena record parent")?;
    let action = r.u32("arena record action")?;
    let fp = r.u64("arena record fingerprint")?;
    if tag != 1 {
        return Err(corrupt(format!("unknown arena record tag {tag}")));
    }
    let row = &bytes[ARENA_RECORD_HEADER..];
    if row.len() != layout.stride() {
        return Err(corrupt(format!(
            "packed arena record payload is {} byte(s), layout stride is {}",
            row.len(),
            layout.stride()
        )));
    }
    layout.check(row)?;
    let parent = (parent_word != u32::MAX).then_some((parent_word as usize, action as usize));
    Ok(ArenaRecord { parent, row, fp })
}

/// One edge record: `[id u32][k u32][(action u32,
/// target u32) × k]`. A record is appended exactly once per state,
/// when its expansion completes — frontier states have no record,
/// which is the same invariant [`capture`] enforces by clearing
/// frontier edge lists.
/// Ids and targets are below [`id_word`]'s limit, as in arena records.
pub(crate) fn encode_edge_record(id: usize, edges: &[Edge], out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&(id as u32).to_le_bytes());
    out.extend_from_slice(&(edges.len() as u32).to_le_bytes());
    for e in edges {
        out.extend_from_slice(&(e.action as u32).to_le_bytes());
        out.extend_from_slice(&(e.target as u32).to_le_bytes());
    }
}

/// What a segment store counts for the edge record of `k`
/// successors: its 4-byte length prefix, id and count, the pairs.
pub(crate) fn edge_record_bytes(k: usize) -> usize {
    4 + 8 + 8 * k
}

/// Decodes one edge record into `edges` (cleared first); returns the
/// state it belongs to.
fn decode_edge_record(
    bytes: &[u8],
    bound: usize,
    edges: &mut Vec<Edge>,
) -> Result<usize, CheckpointError> {
    let mut r = Reader::new(bytes);
    let id = r.u32("edge record id")? as usize;
    if id >= bound {
        return Err(corrupt(format!(
            "edge record id {id} out of range (< {bound})"
        )));
    }
    edges.clear();
    for _ in 0..r.u32("edge record count")? {
        let action = r.u32("edge action")? as usize;
        let target = r.u32("edge target")? as usize;
        if target >= bound {
            return Err(corrupt(format!(
                "edge target {target} out of range (< {bound})"
            )));
        }
        edges.push(Edge { action, target });
    }
    expect_end(&r, "an edge record")?;
    Ok(id)
}

/// The checkpoint driver: counts state expansions against the
/// cadence, stamps sequence numbers, and runs the writes. A write
/// failure is reported once on stderr and disables further writes —
/// checkpointing is a best-effort safety net, never a reason to abort
/// a healthy run.
pub(crate) struct Checkpointer {
    spec: Option<CheckpointSpec>,
    seq: u64,
    since: u64,
    failed: bool,
}

impl Checkpointer {
    pub(crate) fn new(spec: Option<CheckpointSpec>) -> Checkpointer {
        Checkpointer {
            spec,
            seq: 0,
            since: 0,
            failed: false,
        }
    }

    /// Whether checkpointing is configured and still healthy.
    pub(crate) fn active(&self) -> bool {
        self.spec.is_some() && !self.failed
    }

    /// Records `n` more state expansions; true when a periodic
    /// snapshot is due (the counter resets on the next write).
    pub(crate) fn due(&mut self, n: u64) -> bool {
        match &self.spec {
            Some(spec) if !self.failed => {
                self.since += n;
                self.since >= spec.cadence
            }
            _ => false,
        }
    }

    /// Stamps `snap` with the next sequence number, writes it to the
    /// configured path and emits [`Event::Checkpoint`]. Returns the
    /// resume token, or `None` if checkpointing is off or had failed
    /// (`snap` is left as it was), or fails now — which is reported and
    /// ends checkpointing.
    pub(crate) fn write(
        &mut self,
        snap: &mut Snapshot,
        recorder: &RecorderHandle,
    ) -> Option<ResumeToken> {
        let spec = self.spec.as_ref()?;
        if self.failed {
            return None;
        }
        self.seq += 1;
        self.since = 0;
        snap.seq = self.seq;
        if let Err(e) = snap.save(&spec.path) {
            eprintln!("opentla-check: checkpointing disabled: {e}");
            self.failed = true;
            return None;
        }
        if recorder.enabled() {
            recorder.record(&Event::Checkpoint {
                seq: self.seq,
                states: snap.states_used() as u64,
                transitions: snap.transitions_used() as u64,
                frontier: snap.frontier_len() as u64,
            });
        }
        Some(ResumeToken {
            path: spec.path.clone(),
            seq: self.seq,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opentla_kernel::{State, Value};

    /// Three states: 0 initial and expanded, 1 and 2 reached from it.
    fn sample_graph() -> StateGraph {
        let layout = PackedLayout::compile(sample_system().vars()).expect("two small slots");
        let mut graph = StateGraph::with_capacity(Arc::new(layout), 3);
        let states = [
            (0, false, None),
            (1, false, Some((0, 0))),
            (1, true, Some((0, 1))),
        ];
        for (x, y, parent) in states {
            let state = State::new(vec![Value::Int(x), Value::Bool(y)]);
            let row = graph.layout().pack(&state).expect("in-domain");
            graph.push_state(&row, parent).unwrap();
        }
        let successors = [
            Edge {
                action: 0,
                target: 1,
            },
            Edge {
                action: 1,
                target: 2,
            },
        ];
        graph.set_edges(0, &successors).unwrap();
        graph
    }

    /// A system over the variables of [`sample_graph`] with the two
    /// actions its edges name, to materialize under. `x` has a third
    /// value: its two bits have room for a code outside the domain.
    fn sample_system() -> System {
        let mut vars = Vars::new();
        vars.declare("x", Domain::int_range(0, 2));
        vars.declare("y", Domain::booleans());
        let action =
            |name| crate::GuardedAction::new(name, opentla_kernel::Expr::bool(true), vec![]);
        System::new(vars, crate::Init::new([]), vec![action("a0"), action("a1")])
    }

    /// In RAM, as an engine captures it.
    fn sample() -> Snapshot {
        Snapshot {
            fp_bits: 64,
            mode: VisitedMode::Fingerprint,
            system_hash: 0xdead_beef_cafe_f00d,
            seq: 7,
            body: Body::Graph(sample_graph()),
            frontier: vec![1, 2],
        }
    }

    /// The arena record of `sample_graph`'s state `id`, reached as
    /// `parent` says.
    fn arena_record(id: usize, parent: Option<(usize, usize)>) -> Vec<u8> {
        let graph = sample_graph();
        let (row, mut rec) = (graph.row(id), Vec::new());
        let fp = graph.layout().fingerprint(row);
        encode_packed_record(parent, fp, |out| out.extend_from_slice(row), &mut rec);
        rec
    }

    /// [`sample`] over inline `arena` records, no edge recorded.
    fn over_arena_records(arena: &[Vec<u8>], frontier: Vec<usize>) -> Snapshot {
        Snapshot {
            body: Body::Manifest(Manifest {
                layout: Arc::clone(sample_graph().layout()),
                dir: PathBuf::new(),
                states: arena.len() as u64,
                transitions: 0,
                init: vec![0],
                arena_segments: Vec::new(),
                arena_hot: arena.iter().map(Vec::as_slice).collect(),
                edge_segments: Vec::new(),
                edge_hot: Records::default(),
            }),
            frontier,
            ..sample()
        }
    }

    /// The same run as the sequential disk-backed store captures it
    /// once state 0 has been sealed into `arena-00000.seg`: that
    /// segment by reference, the rest inline.
    fn manifest_sample() -> Snapshot {
        let graph = sample_graph();
        let arena: Vec<Vec<u8>> = (0..3)
            .map(|id| arena_record(id, graph.parent(id)))
            .collect();
        let mut sealed = (arena[0].len() as u32).to_le_bytes().to_vec();
        sealed.extend_from_slice(&arena[0]);
        let mut edges = Vec::new();
        encode_edge_record(0, graph.edges(0), &mut edges);
        Snapshot {
            body: Body::Manifest(Manifest {
                layout: Arc::clone(graph.layout()),
                dir: PathBuf::from("pinned.snap.segs"),
                states: 3,
                transitions: 2,
                init: vec![0],
                arena_segments: vec![SegmentMeta {
                    name: "arena-00000.seg".into(),
                    first: 0,
                    records: 1,
                    payload_len: sealed.len() as u64,
                    payload_checksum: fnv1a(&sealed),
                }],
                arena_hot: arena[1..].iter().map(Vec::as_slice).collect(),
                edge_segments: Vec::new(),
                edge_hot: [&edges[..]].into_iter().collect(),
            }),
            ..sample()
        }
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join("opentla_ckpt_rt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round_trip.snap");
        let snap = sample();
        snap.save(&path).unwrap();
        let back = Snapshot::load(&path).unwrap();
        assert_eq!(
            (back.fp_bits, back.mode, back.system_hash, back.seq),
            (snap.fp_bits, snap.mode, snap.system_hash, snap.seq)
        );
        assert_eq!(back.frontier, snap.frontier);
        assert_eq!(back.states_used(), 3);
        assert_eq!(back.transitions_used(), 2);
        assert_eq!(back.frontier_len(), 2);
        // A file holds records; the graph they describe is the saved one.
        assert!(matches!(back.body, Body::Manifest(_)));
        let back = back.materialize(&sample_system()).unwrap();
        assert_eq!(back.graph().first_difference(snap.graph()), None);
        // No temp file left behind.
        assert!(!dir.join("round_trip.snap.tmp").exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_is_detected_not_panicked() {
        let dir = std::env::temp_dir().join("opentla_ckpt_corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("victim.snap");
        sample().save(&path).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        // Truncation at every prefix length: typed error, no panic.
        for cut in [0, 4, 8, 15, pristine.len() / 2, pristine.len() - 1] {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            let err = Snapshot::load(&path).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::BadMagic | CheckpointError::ChecksumMismatch
                ),
                "cut at {cut}: {err}"
            );
        }
        // A flipped bit anywhere in the body trips the checksum.
        let mut flipped = pristine.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        assert_eq!(
            Snapshot::load(&path).unwrap_err(),
            CheckpointError::ChecksumMismatch
        );
        // Wrong magic.
        let mut bad = pristine.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert_eq!(
            Snapshot::load(&path).unwrap_err(),
            CheckpointError::BadMagic
        );
        // Unsupported version (re-checksummed, so it parses that far).
        let mut body = pristine[MAGIC.len()..pristine.len() - 8].to_vec();
        body[..4].copy_from_slice(&99u32.to_le_bytes());
        write_framed(&path, &body).unwrap();
        assert_eq!(
            Snapshot::load(&path).unwrap_err(),
            CheckpointError::UnsupportedVersion { found: 99 }
        );
        // Missing file is an Io error.
        assert!(matches!(
            Snapshot::load(&dir.join("no_such.snap")).unwrap_err(),
            CheckpointError::Io { .. }
        ));
        std::fs::remove_file(&path).unwrap();
    }

    fn corrupt_detail<T: std::fmt::Debug>(result: Result<T, CheckpointError>) -> String {
        match result {
            Err(CheckpointError::Corrupt { detail }) => detail,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// Saves `snap`, loads it back and materializes it: what a resume
    /// does with a file.
    fn through_a_file(tag: &str, snap: &Snapshot) -> Result<Snapshot, CheckpointError> {
        let dir = std::env::temp_dir().join(format!("opentla_ckpt_{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("through.snap");
        snap.save(&path).unwrap();
        let loaded = Snapshot::load(&path);
        std::fs::remove_file(&path).unwrap();
        Ok(loaded?.materialize(&sample_system())?.into_owned())
    }

    /// `trace_to` follows parents until it meets an initial state, so
    /// a state that names itself would hang it. A valid checksum does
    /// not vouch for the tree: FNV-1a guards against rot, not against
    /// whatever wrote the file. (Version 1 had a reader of its own for
    /// the tree; the one reader refuses the same file.)
    #[test]
    fn v1_state_zero_naming_a_parent_is_corrupt() {
        let arena = [arena_record(0, Some((0, 0))), arena_record(1, Some((0, 0)))];
        let snap = over_arena_records(&arena, vec![0, 1]);
        let detail = corrupt_detail(through_a_file("parent_v1", &snap));
        assert!(detail.contains("state 0 names state 0"), "{detail}");
    }

    /// Arena records carry their parents as raw words; one past the
    /// arena would index `trace_to` out of bounds.
    #[test]
    fn v2_arena_record_naming_a_later_parent_is_corrupt() {
        let arena = [None, Some((0, 0)), Some((999, 1))];
        let arena: Vec<_> = (0..3).map(|id| arena_record(id, arena[id])).collect();
        let snap = over_arena_records(&arena, vec![0, 1, 2]);
        let detail = corrupt_detail(through_a_file("parent_v2", &snap));
        assert!(detail.contains("state 2 names state 999"), "{detail}");
    }

    /// Every writer sorts and dedups the frontier, and it is the
    /// arena's tail. A file listing an id twice would expand that state
    /// twice — its transitions charged twice, a second edge record
    /// banked by the disk-backed store — and one listing an expanded
    /// state would re-expand it on top of its recorded edges.
    #[test]
    fn frontier_that_repeats_or_reorders_an_id_is_corrupt() {
        let graph = sample_graph();
        let arena: Vec<Vec<u8>> = (0..3)
            .map(|id| arena_record(id, graph.parent(id)))
            .collect();
        for frontier in [vec![2, 2], vec![2, 1], vec![0, 2], vec![1]] {
            let snap = over_arena_records(&arena, frontier.clone());
            let detail = corrupt_detail(through_a_file("frontier", &snap));
            assert!(detail.contains("frontier id"), "{frontier:?}: {detail}");
        }
        for frontier in [vec![], vec![2], vec![1, 2], vec![0, 1, 2]] {
            let snap = over_arena_records(&arena, frontier.clone());
            assert_eq!(
                through_a_file("frontier", &snap).unwrap().frontier,
                frontier
            );
        }
    }

    /// [`over_arena_records`] of every state of [`sample_graph`], all
    /// expanded, with these inline edge records.
    fn over_edge_records(edges: &[(usize, &[Edge])]) -> Snapshot {
        let graph = sample_graph();
        let arena: Vec<Vec<u8>> = (0..3)
            .map(|id| arena_record(id, graph.parent(id)))
            .collect();
        let mut snap = over_arena_records(&arena, vec![]);
        let Body::Manifest(m) = &mut snap.body else {
            unreachable!()
        };
        let mut record = Vec::new();
        for &(id, successors) in edges {
            encode_edge_record(id, successors, &mut record);
            m.edge_hot.push(&record);
            m.transitions += successors.len() as u64;
        }
        snap
    }

    /// Every writer emits edge records in ascending id order, once per
    /// state, and the graph's rows are filled that way: a file that
    /// reorders or repeats one is refused, not read into a wrong graph.
    #[test]
    fn edge_records_out_of_id_order_are_corrupt() {
        let graph = sample_graph();
        let (fan, none): (&[Edge], &[Edge]) = (graph.edges(0), &[]);
        for edges in [
            vec![(1, none), (0, fan)],
            vec![(0, fan), (0, none)],
            vec![(0, fan), (2, none), (1, none)],
        ] {
            let detail = corrupt_detail(through_a_file("edge_order", &over_edge_records(&edges)));
            assert!(detail.contains("ascending id order"), "{edges:?}: {detail}");
        }
        // In order, rows skipped over stay empty.
        for edges in [
            vec![(0, fan), (1, none), (2, none)],
            vec![(0, fan), (2, none)],
        ] {
            let back = through_a_file("edge_order", &over_edge_records(&edges)).unwrap();
            assert_eq!(back.graph().first_difference(&graph), None, "{edges:?}");
        }
    }

    /// A packed record is checked for its length only before it is
    /// unpacked, and `x`'s two bits can hold a code its three-value
    /// domain does not: the table lookup behind it must not index.
    #[test]
    fn packed_record_holding_a_code_outside_its_domain_is_corrupt() {
        let mut record = Vec::new();
        begin_arena_record(1, None, 0, &mut record);
        record.push(0b011);
        let snap = over_arena_records(&[record.clone()], vec![0]);
        let detail = corrupt_detail(through_a_file("bad_code", &snap));
        assert!(detail.contains("slot 0 holds code 3"), "{detail}");
        // The code below it is the domain's last value.
        *record.last_mut().unwrap() = 0b010;
        let back = through_a_file("bad_code", &over_arena_records(&[record], vec![0])).unwrap();
        assert_eq!(
            back.graph().state(0).values(),
            [Value::Int(2), Value::Bool(false)]
        );
    }

    /// Every id a record names is a `u32` word short of the "no parent"
    /// word; one past is refused as too many states, never truncated
    /// onto another state's word.
    #[test]
    fn ids_past_a_record_word_are_too_many_states() {
        assert_eq!(id_word(0).ok(), Some(0));
        assert_eq!(id_word(u32::MAX as usize - 1).ok(), Some(u32::MAX - 1));
        for id in [u32::MAX as usize, u32::MAX as usize + 1, 1 << 33] {
            assert!(
                matches!(
                    id_word(id),
                    Err(CheckError::TooManyStates { limit }) if limit == u32::MAX as usize
                ),
                "{id}"
            );
        }
    }

    /// Version 3 held a graph captured in RAM as arena records of tag
    /// 0, each state in the value encoding. Nothing writes one any
    /// more, and the one reader refuses the tag as it refuses any other
    /// it does not know, before looking at the payload.
    #[test]
    fn an_arena_record_of_tag_0_is_corrupt() {
        let mut record = arena_record(0, None);
        record[0] = 0;
        let snap = over_arena_records(&[record], vec![0]);
        let detail = corrupt_detail(through_a_file("tag_0", &snap));
        assert!(detail.contains("unknown arena record tag 0"), "{detail}");
    }

    /// A snapshot names its layout's domains. Resumed under a system
    /// with other domains, every row is re-packed under the system's —
    /// here `x ∈ -1..=2`, where each of the sample's codes numbers
    /// another value — and a value the system's domain lacks is refused
    /// as it is met, whether the graph was read from a file or is held
    /// in RAM.
    #[test]
    fn a_snapshot_under_other_domains_is_repacked_or_refused() {
        let over = |lo: i64, hi: i64| {
            let mut vars = Vars::new();
            vars.declare("x", Domain::int_range(lo, hi));
            vars.declare("y", Domain::booleans());
            let action =
                |name| crate::GuardedAction::new(name, opentla_kernel::Expr::bool(true), vec![]);
            System::new(vars, crate::Init::new([]), vec![action("a0"), action("a1")])
        };
        let dir = std::env::temp_dir().join("opentla_ckpt_domains");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("domains.snap");
        sample().save(&path).unwrap();
        let file = Snapshot::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        for snap in [sample(), file] {
            let wider = snap.materialize(&over(-1, 2)).unwrap();
            let graph = wider.graph();
            assert_eq!(graph.first_difference(&sample_graph()), None);
            assert_ne!(graph.row(0), sample_graph().row(0), "x = 0 is code 1");
            let detail = corrupt_detail(snap.materialize(&over(0, 0)));
            assert!(
                detail.contains("state 1 holds 1 for x, outside its domain"),
                "{detail}"
            );
        }
    }

    /// Counterexample rendering indexes the system's actions by the
    /// action words of the BFS tree and of the edges: a file naming an
    /// action the system does not have is refused when it is read.
    #[test]
    fn record_naming_an_action_the_system_lacks_is_corrupt() {
        let arena = [None, Some((0, 0)), Some((0, 7))];
        let arena: Vec<_> = (0..3).map(|id| arena_record(id, arena[id])).collect();
        let detail = corrupt_detail(through_a_file(
            "action",
            &over_arena_records(&arena, vec![0, 1, 2]),
        ));
        assert!(
            detail.contains("state 2 records action 7 of a system with 2"),
            "{detail}"
        );
        let edges: &[Edge] = &[
            Edge {
                action: 0,
                target: 1,
            },
            Edge {
                action: 2,
                target: 2,
            },
        ];
        let detail = corrupt_detail(through_a_file("action", &over_edge_records(&[(0, edges)])));
        assert!(
            detail.contains("state 0 records action 2 of a system with 2"),
            "{detail}"
        );
    }

    /// The manifest's segment record counts are words of the file: two
    /// that sum past `u64::MAX` wrap around to the claimed state count
    /// in a release build and overflow in a debug one.
    #[test]
    fn v2_segment_counts_that_overflow_are_corrupt() {
        let segment = |records| SegmentMeta {
            name: "arena-0.seg".into(),
            first: 0,
            records,
            payload_len: 0,
            payload_checksum: 0,
        };
        let mut snap = over_arena_records(&[], vec![0]);
        let Body::Manifest(m) = &mut snap.body else {
            unreachable!()
        };
        m.states = 1;
        m.arena_segments = vec![segment(u64::MAX), segment(2)];
        let detail = corrupt_detail(through_a_file("overflow_v2", &snap));
        assert!(detail.contains("claims 1 states"), "{detail}");
    }

    #[test]
    fn errors_render_usefully() {
        let e = CheckpointError::Mismatch {
            field: "system",
            snapshot: "0xaaaa".into(),
            requested: "0xbbbb".into(),
        };
        let text = e.to_string();
        assert!(
            text.contains("system") && text.contains("refusing"),
            "{text}"
        );
        assert!(CheckpointError::ChecksumMismatch
            .to_string()
            .contains("checksum"));
        assert!(CheckpointError::UnsupportedVersion { found: 3 }
            .to_string()
            .contains('3'));
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// The file `manifest_sample()` saves, and the one `sample()` — the
    /// same run captured in RAM — saves, as this build first wrote them
    /// in the version-4 format.
    #[test]
    fn snapshot_files_are_byte_identical_to_the_recorded_ones() {
        let dir = std::env::temp_dir().join("opentla_ckpt_pinned");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pinned.snap");
        manifest_sample().save(&path).unwrap();
        assert_eq!(
            hex(&std::fs::read(&path).unwrap()),
            "4f544c41534e41500400000040000000000df0fecaefbeadde07000000000000\
             0002000000030000000100000000000000000101000000000000000102000000\
             0000000002000000000000011000000070696e6e65642e736e61702e73656773\
             03000000000000000200000000000000010000000f0000006172656e612d3030\
             3030302e73656700000000000000000100000000000000160000000000000025\
             241509ba759b3100000000020000001200000001000000000000000052ee4f0a\
             6c2a83c90112000000010000000001000000c7d06d53b76b061b050100000018\
             0000000000000002000000000000000100000001000000020000000100000000\
             00000002000000010000000200000057fd1e883a45eaca"
        );
        sample().save(&path).unwrap();
        assert_eq!(
            hex(&std::fs::read(&path).unwrap()),
            "4f544c41534e41500400000040000000000df0fecaefbeadde07000000000000\
             0002000000030000000100000000000000000101000000000000000102000000\
             0000000002000000000000010000000003000000000000000200000000000000\
             0000000000000000030000001200000001ffffffff0000000027e56923276804\
             9a001200000001000000000000000052ee4f0a6c2a83c9011200000001000000\
             0001000000c7d06d53b76b061b05010000001800000000000000020000000000\
             0000010000000100000002000000010000000000000002000000010000000200\
             0000f80548a7f5fcb59c"
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// What the builds with a tree record for states held in RAM saved
    /// for `manifest_sample()` in the version-3 format: no layout, so
    /// no way to tell what its rows mean. No build reads it any more:
    /// the version word is all that is looked at.
    #[test]
    fn a_version_3_file_is_refused_not_misread() {
        let dir = std::env::temp_dir().join("opentla_ckpt_v3");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v3.snap");
        let recorded = unhex(
            "4f544c41534e41500300000040000000000df0fecaefbeadde07000000000000\
             001000000070696e6e65642e736e61702e736567730300000000000000020000\
             0000000000010000000f0000006172656e612d30303030302e73656700000000\
             000000000100000000000000240000000000000033054bd9e369584400000000\
             020000002000000000000000000000000052ee4f0a6c2a83c902000000010100\
             000000000000000020000000000000000001000000c7d06d53b76b061b020000\
             0001010000000000000000010100000018000000000000000200000000000000\
             0100000001000000020000000100000000000000020000000100000002000000\
             87457229bb977313",
        );
        std::fs::write(&path, recorded).unwrap();
        assert_eq!(
            Snapshot::load(&path).unwrap_err(),
            CheckpointError::UnsupportedVersion { found: 3 }
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// What the builds with symmetry reduction saved for
    /// `manifest_sample()` in the version-2 format — a reduced flag in
    /// the header, a trailing reduction block naming a canonicalizer.
    /// No build reads it any more: the version word is all that is
    /// looked at.
    #[test]
    fn a_version_2_file_is_refused_not_misread() {
        let dir = std::env::temp_dir().join("opentla_ckpt_v2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v2.snap");
        let recorded = unhex(
            "4f544c41534e4150020000004000000000010df0fecaefbeadde070000000000\
             00001000000070696e6e65642e736e61702e7365677303000000000000000200\
             000000000000010000000f0000006172656e612d30303030302e736567000000\
             00000000000100000000000000240000000000000033054bd9e3695844000000\
             00020000002000000000000000000000000052ee4f0a6c2a83c9020000000101\
             00000000000000000020000000000000000001000000c7d06d53b76b061b0200\
             0000010100000000000000000101000000180000000000000002000000000000\
             0001000000010000000200000001000000000000000200000001000000020000\
             000204000000000000000c00000073616d706c652d67726f75709df98ecf12e0\
             9e64",
        );
        std::fs::write(&path, recorded).unwrap();
        assert_eq!(
            Snapshot::load(&path).unwrap_err(),
            CheckpointError::UnsupportedVersion { found: 2 }
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// What commit 667e7d3 saved for `sample()` in the version-1 format
    /// (tree states, edge lists and parents as sections of their own).
    /// It has no reader any more: the version word is all that is
    /// looked at.
    #[test]
    fn a_version_1_file_is_refused_not_misread() {
        let dir = std::env::temp_dir().join("opentla_ckpt_v1");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v1.snap");
        let recorded = unhex(
            "4f544c41534e4150010000004000000000010df0fecaefbeadde070000000000\
             0000030000000200000001000000000000000000000200000001010000000000\
             0000000002000000010100000000000000000101000000000000000200000000\
             0000000100000001000000020000000000000000000000000100000000000000\
             000100000000010000000200000001000000020000000204000000000000000c\
             00000073616d706c652d67726f75709718fe4416ba0640",
        );
        std::fs::write(&path, recorded).unwrap();
        assert_eq!(
            Snapshot::load(&path).unwrap_err(),
            CheckpointError::UnsupportedVersion { found: 1 }
        );
        std::fs::remove_file(&path).unwrap();
    }
}
