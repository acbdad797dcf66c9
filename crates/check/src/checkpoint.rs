//! Crash-tolerant checkpointing: resumable on-disk snapshots of a run.
//!
//! Long explicit-state runs — exactly what the Composition Theorem's
//! complete-system obligations produce — must survive interruption:
//! a crash at hour three is otherwise a total loss. Following TLC's
//! `-checkpoint`/`-recover` discipline, exploration engines running
//! under a [`Budget`](crate::Budget) with
//! [`Budget::with_checkpoint`](crate::Budget::with_checkpoint)
//! periodically serialize their resumable core — the state arena, the
//! recorded edges and BFS tree, the unexpanded frontier, and what a
//! symmetry reduction has banked — to a [`Snapshot`], and
//! [`explore_resumable`](crate::explore_resumable) continues from the
//! preserved frontier instead of restarting.
//!
//! # Format and integrity
//!
//! The snapshot is a zero-dependency binary file:
//!
//! ```text
//! magic    8 bytes  b"OTLASNAP"
//! body     version (u32 LE) + header + payload
//! checksum 8 bytes  FNV-1a over the body
//! ```
//!
//! The header pins everything that decides *whether the snapshot may
//! be trusted for a resume*: the system's structural hash, the
//! fingerprint width (`fp_bits` — a snapshot taken under forced
//! collisions must not silently resume a full-width run), the
//! [`VisitedMode`], whether a reduction was active, and — in the
//! trailing reduction block — the name of the symmetry canonicalizer
//! the arena is canonical under. [`Snapshot::load`]
//! verifies magic, version, and checksum; [`Snapshot::validate`]
//! refuses any mismatch with a typed [`CheckpointError`] — never a
//! panic, and never a silent wrong-configuration resume.
//!
//! Writes are atomic (temp file in the same directory, then rename),
//! so a crash mid-write leaves the previous snapshot intact.
//!
//! # Why resuming preserves soundness
//!
//! A snapshot stores no visited set: on load the dedup structures are
//! rebuilt by re-fingerprinting the arena ([`State::fingerprint`] is
//! deterministic across processes), under the *same* `fp_bits` the
//! original run used — so the resumed run conflates exactly the states
//! the original would have, keeping the under-approximation argument
//! of [`VisitedMode::Fingerprint`] intact. Frontier states' partial
//! edge lists are cleared at capture and those states fully re-expand
//! on resume; a final renumbering pass then replays canonical BFS
//! discovery order, which is why a resumed run's graph is
//! byte-identical to an uninterrupted one.

use crate::explore::{Edge, StateGraph};
use crate::obs::{Event, RecorderHandle};
use crate::reduction::Canonicalize;
use crate::{ExploreOptions, System, VisitedMode};
use opentla_kernel::codec::{self, Reader};
use opentla_kernel::store::{self, fnv1a, SegmentMeta, StoreError};
use opentla_kernel::{PackedLayout, State};
use std::hash::Hasher;
use std::path::{Path, PathBuf};

/// Default checkpoint cadence, in state expansions between snapshot
/// writes. At typical sequential throughput this is a snapshot every
/// few hundred milliseconds of exploration — frequent enough that an
/// interrupted run loses little, rare enough that the write cost
/// stays well under the 5 % overhead gate.
pub const DEFAULT_CHECKPOINT_CADENCE: u64 = 65_536;

/// Snapshot wire-format version accepted by this build.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Wire-format version of *spill* snapshots — taken by the
/// bounded-memory engine, which snapshots by **referencing** its
/// sealed segment files (name + record count + checksum) and embedding
/// only the unsealed in-RAM tail, so a periodic checkpoint costs
/// O(hot tier), not O(state space). [`Snapshot::load`] reads both
/// versions; a spill snapshot is expanded back to the in-RAM form by
/// `materialize` before any engine resumes from it.
pub const SNAPSHOT_VERSION_SPILL: u32 = 2;

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
/// a corrupt or truncated segment file referenced by a spill snapshot
/// is a checkpoint problem to its caller.
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

fn corrupt(detail: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt {
        detail: detail.into(),
    }
}

/// Refuses bytes left over once `what` has been decoded.
fn expect_end(r: &Reader<'_>, what: &str) -> Result<(), CheckpointError> {
    if r.is_empty() {
        return Ok(());
    }
    Err(corrupt(format!("{} trailing byte(s) after {what}", r.remaining())))
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

/// Writes `magic`, `body` and the FNV-1a checksum of `body` (a
/// zero-dependency integrity check: it guards against truncation and
/// bit rot, not adversaries) to `path` atomically: the bytes go to a
/// temporary file in the same directory, which is then renamed over
/// `path` — a crash mid-write leaves any previous file intact.
fn write_framed(path: &Path, magic: &[u8; 8], body: &[u8]) -> Result<(), CheckpointError> {
    let mut file = Vec::with_capacity(body.len() + 16);
    file.extend_from_slice(magic);
    file.extend_from_slice(body);
    file.extend_from_slice(&fnv1a(body).to_le_bytes());
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, &file).map_err(|e| io_err(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}

/// Reads a file [`write_framed`] wrote and, having verified length,
/// magic and checksum, hands its body to `decode`.
fn read_framed<T>(
    path: &Path,
    magic: &[u8; 8],
    decode: fn(&[u8]) -> Result<T, CheckpointError>,
) -> Result<T, CheckpointError> {
    let file = std::fs::read(path).map_err(|e| io_err(path, e))?;
    if file.len() < magic.len() + 8 || &file[..magic.len()] != magic {
        return Err(CheckpointError::BadMagic);
    }
    let (body, tail) = file[magic.len()..].split_at(file.len() - magic.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8-byte checksum tail"));
    if fnv1a(body) != stored {
        return Err(CheckpointError::ChecksumMismatch);
    }
    decode(body)
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
    /// Whether a reduction was active.
    pub reduced: bool,
    /// Structural hash of the explored system.
    pub system_hash: u64,
    /// Sequence number of this snapshot within its run.
    pub seq: u64,
    /// The arena, recorded edges and BFS tree, in canonical order.
    pub(crate) graph: StateGraph,
    pub(crate) frontier: Vec<usize>,
    /// `Some` exactly when `reduced`.
    pub(crate) reduction: Option<ReducedRun>,
    /// `Some` for a bounded-memory (spill) snapshot: the arena and
    /// edge lists live in sealed segment files referenced by name and
    /// checksum, plus the embedded unsealed tails. `graph` is empty
    /// until [`Snapshot::materialize`] builds it from the segments.
    pub(crate) spill: Option<SpillManifest>,
}

/// What pins a snapshot to the run that takes it: the header fields
/// [`Snapshot::validate`] compares on resume.
pub(crate) struct RunHeader {
    pub(crate) mode: VisitedMode,
    pub(crate) fp_bits: u32,
    pub(crate) system_hash: u64,
    /// `Some` for a symmetry-reduced run.
    pub(crate) reduction: Option<ReducedRun>,
}

impl RunHeader {
    /// The header of an unreduced run of the system with `system_hash`.
    pub(crate) fn of(options: &ExploreOptions, system_hash: u64) -> RunHeader {
        RunHeader {
            mode: options.mode,
            fp_bits: options.fp_bits.clamp(1, 64),
            system_hash,
            reduction: None,
        }
    }

    /// A snapshot of this run, first in its sequence.
    pub(crate) fn snapshot(
        self,
        graph: StateGraph,
        frontier: Vec<usize>,
        spill: Option<SpillManifest>,
    ) -> Snapshot {
        Snapshot {
            fp_bits: self.fp_bits,
            mode: self.mode,
            reduced: self.reduction.is_some(),
            system_hash: self.system_hash,
            seq: 0,
            graph,
            frontier,
            reduction: self.reduction,
            spill,
        }
    }
}

/// What a symmetry-reduced run banks in its snapshots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ReducedRun {
    /// [`Canonicalize::name`] of the canonicalizer the arena is
    /// canonical under: continuing it under another group would build
    /// a graph that is canonical under neither.
    pub(crate) canonicalizer: String,
    /// [`ReductionStats::canon_hits`](crate::ReductionStats) of the
    /// fully expanded states.
    pub(crate) canon_hits: usize,
}

/// Tag of a present reduction block. Tag 1 was the four-counter block
/// of the builds that also had ample-set reduction: a snapshot carrying
/// it may hold a partial-order-reduced arena, which nothing here can
/// continue, so it is refused rather than read.
const REDUCTION_BLOCK_TAG: u8 = 2;

/// What a spill snapshot records instead of the in-RAM arena: where
/// the sealed segment files live and how to verify them, plus the
/// unsealed hot tails copied inline (cheap — O(one segment), by
/// construction smaller than the seal threshold).
#[derive(Clone, Debug)]
pub(crate) struct SpillManifest {
    /// Directory holding the run's segment files.
    pub(crate) dir: PathBuf,
    /// Total arena states (sealed + hot).
    pub(crate) states: u64,
    /// Total committed transitions across all edge records.
    pub(crate) transitions: u64,
    /// Ids of the initial states.
    pub(crate) init: Vec<usize>,
    /// Sealed arena segments, in id order.
    pub(crate) arena_segments: Vec<SegmentMeta>,
    /// Unsealed arena records (ids follow the last sealed segment).
    pub(crate) arena_hot: Vec<Vec<u8>>,
    /// Sealed edge-record segments.
    pub(crate) edge_segments: Vec<SegmentMeta>,
    /// Unsealed edge records.
    pub(crate) edge_hot: Vec<Vec<u8>>,
}

impl Snapshot {
    /// States banked in the snapshot (what the resumed meter is
    /// pre-charged with).
    pub fn states_used(&self) -> usize {
        match &self.spill {
            Some(m) => m.states as usize,
            None => self.graph.len(),
        }
    }

    /// Fully-committed transitions banked in the snapshot.
    pub fn transitions_used(&self) -> usize {
        match &self.spill {
            Some(m) => m.transitions as usize,
            None => self.graph.edge_count(),
        }
    }

    /// Number of discovered-but-unexpanded states awaiting resume.
    pub fn frontier_len(&self) -> usize {
        self.frontier.len()
    }

    /// Refuses to resume under a different system or configuration:
    /// the structural hash, fingerprint width, visited mode, reduction
    /// activity, and symmetry canonicalizer (by name) must all match
    /// what the snapshot was taken under.
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
        if self.reduced != options.reduction.is_active() {
            return mismatch(
                "reduction activity",
                self.reduced.to_string(),
                options.reduction.is_active().to_string(),
            );
        }
        if let (Some(run), Some(canon)) = (&self.reduction, &options.reduction.symmetry) {
            if run.canonicalizer != canon.name() {
                return mismatch(
                    "symmetry canonicalizer",
                    run.canonicalizer.clone(),
                    canon.name().to_string(),
                );
            }
        }
        Ok(())
    }

    /// Refuses a (materialized) arena that is not canonical under
    /// `canon`: the name matched, the group behind it did not.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Mismatch`] naming the first such state.
    pub(crate) fn validate_canonical(
        &self,
        canon: &dyn Canonicalize,
    ) -> Result<(), CheckpointError> {
        match self.graph.states().iter().position(|s| &canon.canonicalize(s) != s) {
            None => Ok(()),
            Some(id) => mismatch(
                "symmetry canonicalizer",
                format!("state {id} is not an orbit representative"),
                canon.name().to_string(),
            ),
        }
    }

    /// Serializes the snapshot body (everything between magic and
    /// checksum).
    fn encode_body(&self) -> Vec<u8> {
        let version = if self.spill.is_some() {
            SNAPSHOT_VERSION_SPILL
        } else {
            SNAPSHOT_VERSION
        };
        let mut out = Vec::new();
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&self.fp_bits.to_le_bytes());
        out.push(match self.mode {
            VisitedMode::Fingerprint => 0,
            VisitedMode::Exact => 1,
        });
        out.push(u8::from(self.reduced));
        out.extend_from_slice(&self.system_hash.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
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
        // The trailing reduction block: a tag byte, then (when present)
        // the banked hits and the canonicalizer's name.
        let push_reduction = |out: &mut Vec<u8>, reduction: &Option<ReducedRun>| match reduction {
            None => out.push(0),
            Some(r) => {
                out.push(REDUCTION_BLOCK_TAG);
                out.extend_from_slice(&(r.canon_hits as u64).to_le_bytes());
                push_bytes(out, r.canonicalizer.as_bytes());
            }
        };
        if let Some(m) = &self.spill {
            push_bytes(&mut out, m.dir.to_string_lossy().as_bytes());
            out.extend_from_slice(&m.states.to_le_bytes());
            out.extend_from_slice(&m.transitions.to_le_bytes());
            for segments in [&m.arena_segments, &m.edge_segments] {
                out.extend_from_slice(&(segments.len() as u32).to_le_bytes());
                for seg in segments.iter() {
                    push_bytes(&mut out, seg.name.as_bytes());
                    for word in [seg.first, seg.records, seg.payload_len, seg.payload_checksum] {
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
            push_reduction(&mut out, &self.reduction);
            return out;
        }
        let graph = &self.graph;
        out.extend_from_slice(&(graph.len() as u32).to_le_bytes());
        for s in graph.states() {
            codec::encode_state(s, &mut out);
        }
        push_ids(&mut out, graph.init());
        for id in 0..graph.len() {
            let es = graph.edges(id);
            out.extend_from_slice(&(es.len() as u32).to_le_bytes());
            for e in es {
                out.extend_from_slice(&(e.action as u32).to_le_bytes());
                out.extend_from_slice(&(e.target as u32).to_le_bytes());
            }
        }
        for id in 0..graph.len() {
            match graph.parent(id) {
                None => out.push(0),
                Some((parent, action)) => {
                    out.push(1);
                    out.extend_from_slice(&(parent as u32).to_le_bytes());
                    out.extend_from_slice(&(action as u32).to_le_bytes());
                }
            }
        }
        push_ids(&mut out, &self.frontier);
        push_reduction(&mut out, &self.reduction);
        out
    }

    fn decode_body(body: &[u8]) -> Result<Snapshot, CheckpointError> {
        let mut r = Reader::new(body);
        let version = r.u32("version")?;
        if version != SNAPSHOT_VERSION && version != SNAPSHOT_VERSION_SPILL {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }
        // From here every decode error is structural corruption.
        let mut read = SnapshotReader { r };
        if version == SNAPSHOT_VERSION_SPILL {
            read.finish_spill()
        } else {
            read.finish()
        }
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
        write_framed(path, MAGIC, &self.encode_body())
    }

    /// Loads and verifies a snapshot: magic, format version, checksum,
    /// and structural bounds (every id in range). Corrupt or truncated
    /// files yield a typed error, never a panic.
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`] except `Mismatch` (configuration
    /// validation is [`Snapshot::validate`]'s job).
    pub fn load(path: &Path) -> Result<Snapshot, CheckpointError> {
        read_framed(path, MAGIC, Snapshot::decode_body)
    }

    /// Expands a spill snapshot into the in-RAM (version-1) form by
    /// reading every referenced segment file back through the store's
    /// verified reader, so the engines only ever resume from a fully
    /// materialized arena. Already-materialized snapshots are returned
    /// unchanged.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when a referenced segment file is gone,
    /// or any corruption-class error when one fails verification or
    /// disagrees with the manifest.
    pub(crate) fn materialize(self, system: &System) -> Result<Snapshot, CheckpointError> {
        let Some(m) = &self.spill else {
            return Ok(self);
        };
        let layout = PackedLayout::compile(system.vars());
        let n = m.states as usize;
        let mut graph = StateGraph::with_capacity(n.min(1 << 20));
        fn hot(tail: &[Vec<u8>]) -> impl Iterator<Item = &[u8]> {
            tail.iter().map(Vec::as_slice)
        }
        for_each_record((&m.dir, &m.arena_segments, hot(&m.arena_hot)), |bytes| {
            let rec = decode_arena_record(bytes, layout.as_ref())?;
            graph.push_state(rec.state, rec.parent).map(drop)
        })?;
        if graph.len() != n {
            return Err(corrupt(format!(
                "spill manifest claims {n} states, segments held {}",
                graph.len()
            )));
        }
        if graph.init() != m.init {
            return Err(corrupt("spill manifest and arena records disagree on the initial states"));
        }
        let mut expanded = vec![false; n];
        for_each_edge_record((&m.dir, &m.edge_segments, hot(&m.edge_hot)), n, |id, es| {
            if std::mem::replace(&mut expanded[id], true) {
                return Err(corrupt(format!("duplicate edge record for state {id}")));
            }
            graph.set_edges(id, es);
            Ok(())
        })?;
        if graph.edge_count() as u64 != m.transitions {
            return Err(corrupt(format!(
                "spill manifest claims {} transitions, edge records held {}",
                m.transitions,
                graph.edge_count()
            )));
        }
        Ok(Snapshot {
            graph,
            spill: None,
            ..self
        })
    }
}

/// Decoding state for the snapshot body past the version word.
struct SnapshotReader<'a> {
    r: Reader<'a>,
}

impl SnapshotReader<'_> {
    fn id(&mut self, ctx: &'static str, bound: usize) -> Result<usize, CheckpointError> {
        let id = self.r.u32(ctx)? as usize;
        if id >= bound {
            return Err(corrupt(format!("{ctx} {id} out of range (< {bound})")));
        }
        Ok(id)
    }

    fn ids(&mut self, ctx: &'static str, bound: usize) -> Result<Vec<usize>, CheckpointError> {
        let n = self.r.u32(ctx)? as usize;
        if n > bound {
            return Err(corrupt(format!("{ctx} count {n} exceeds state count {bound}")));
        }
        (0..n).map(|_| self.id(ctx, bound)).collect()
    }

    /// Reads the header fields shared by both snapshot versions:
    /// `(fp_bits, mode, reduced, system_hash, seq)`.
    #[allow(clippy::type_complexity)]
    fn header(&mut self) -> Result<(u32, VisitedMode, bool, u64, u64), CheckpointError> {
        let fp_bits = self.r.u32("fp_bits")?;
        if fp_bits == 0 || fp_bits > 64 {
            return Err(corrupt(format!("fp_bits {fp_bits} outside 1..=64")));
        }
        let mode = match self.r.u8("visited mode")? {
            0 => VisitedMode::Fingerprint,
            1 => VisitedMode::Exact,
            m => return Err(corrupt(format!("unknown visited mode tag {m}"))),
        };
        let reduced = match self.r.u8("reduced flag")? {
            0 => false,
            1 => true,
            b => return Err(corrupt(format!("bad reduced flag {b}"))),
        };
        let system_hash = self.r.u64("system hash")?;
        let seq = self.r.u64("sequence number")?;
        Ok((fp_bits, mode, reduced, system_hash, seq))
    }

    /// Reads the trailing reduction block, which must be present
    /// exactly when the header says the run was `reduced`.
    fn reduction(&mut self, reduced: bool) -> Result<Option<ReducedRun>, CheckpointError> {
        let block = match self.r.u8("reduction tag")? {
            0 => None,
            REDUCTION_BLOCK_TAG => {
                let canon_hits = self.r.u64("canon hits")? as usize;
                Some(ReducedRun {
                    canonicalizer: self.string("canonicalizer name")?,
                    canon_hits,
                })
            }
            1 => {
                return Err(corrupt(
                    "reduction block tag 1: written by a build with ample-set \
                     partial-order reduction, whose snapshots this build cannot resume",
                ))
            }
            t => return Err(corrupt(format!("bad reduction tag {t}"))),
        };
        if block.is_some() != reduced {
            return Err(corrupt(format!(
                "reduced flag is {reduced} but the reduction block is {}",
                if block.is_some() { "present" } else { "absent" }
            )));
        }
        Ok(block)
    }

    fn bytes(&mut self, ctx: &'static str) -> Result<Vec<u8>, CheckpointError> {
        Ok(self.r.bytes(ctx)?.to_vec())
    }

    fn string(&mut self, ctx: &'static str) -> Result<String, CheckpointError> {
        String::from_utf8(self.bytes(ctx)?).map_err(|_| corrupt(format!("{ctx} is not valid UTF-8")))
    }

    fn finish(&mut self) -> Result<Snapshot, CheckpointError> {
        let (fp_bits, mode, reduced, system_hash, seq) = self.header()?;
        let n = self.r.u32("state count")? as usize;
        let mut states = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            states.push(codec::decode_state(&mut self.r)?);
        }
        let init = self.ids("initial state id", n)?;
        // The edge lists sit between the arena and the BFS tree its
        // states are pushed with: skipped here, read once those are in.
        let mut edges = SnapshotReader { r: self.r };
        for _ in 0..n {
            for _ in 0..self.r.u32("edge count")? {
                self.r.u64("edge")?;
            }
        }
        let mut graph = StateGraph::with_capacity(states.len());
        for state in states {
            let parent = match self.r.u8("parent tag")? {
                0 => None,
                1 => {
                    let parent = self.r.u32("parent id")? as usize;
                    Some((parent, self.r.u32("parent action")? as usize))
                }
                t => return Err(corrupt(format!("bad parent tag {t}"))),
            };
            graph.push_state(state, parent)?;
        }
        if graph.init() != init {
            return Err(corrupt("initial state ids disagree with the parentless states"));
        }
        let mut list = Vec::new();
        for id in 0..n {
            list.clear();
            for _ in 0..edges.r.u32("edge count")? {
                let action = edges.r.u32("edge action")? as usize;
                let target = edges.id("edge target", n)?;
                list.push(Edge { action, target });
            }
            graph.set_edges(id, &list);
        }
        let frontier = self.ids("frontier id", n)?;
        let reduction = self.reduction(reduced)?;
        expect_end(&self.r, "the snapshot body")?;
        Ok(Snapshot {
            fp_bits,
            mode,
            reduced,
            system_hash,
            seq,
            graph,
            frontier,
            reduction,
            spill: None,
        })
    }

    fn finish_spill(&mut self) -> Result<Snapshot, CheckpointError> {
        let (fp_bits, mode, reduced, system_hash, seq) = self.header()?;
        let dir = PathBuf::from(self.string("spill directory")?);
        let states = self.r.u64("spill state count")?;
        let transitions = self.r.u64("spill transition count")?;
        let mut segments = || -> Result<Vec<SegmentMeta>, CheckpointError> {
            let count = self.r.u32("segment count")? as usize;
            let mut list = Vec::with_capacity(count.min(1 << 20));
            for _ in 0..count {
                let name = self.string("segment name")?;
                if name.contains('/') || name.contains('\\') || name.contains("..") {
                    return Err(corrupt(format!("segment name {name:?} escapes the spill dir")));
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
        };
        let arena_segments = segments()?;
        let edge_segments = segments()?;
        let mut hot = || -> Result<Vec<Vec<u8>>, CheckpointError> {
            let count = self.r.u32("hot record count")? as usize;
            (0..count).map(|_| self.bytes("hot record")).collect()
        };
        let arena_hot = hot()?;
        let edge_hot = hot()?;
        let n = usize::try_from(states).map_err(|_| {
            corrupt(format!("spill state count {states} exceeds the address space"))
        })?;
        // Checked: the record counts are the file's own words.
        let referenced = arena_segments
            .iter()
            .try_fold(arena_hot.len() as u64, |sum, s| sum.checked_add(s.records));
        if referenced != Some(states) {
            return Err(corrupt(format!(
                "spill manifest claims {states} states but its arena segments and {} hot records \
                 hold {}",
                arena_hot.len(),
                referenced.map_or("more than u64::MAX".to_string(), |r| r.to_string()),
            )));
        }
        let init = self.ids("initial state id", n)?;
        let frontier = self.ids("frontier id", n)?;
        let reduction = self.reduction(reduced)?;
        expect_end(&self.r, "the snapshot body")?;
        Ok(Snapshot {
            fp_bits,
            mode,
            reduced,
            system_hash,
            seq,
            graph: StateGraph::with_capacity(0),
            frontier,
            reduction,
            spill: Some(SpillManifest {
                dir,
                states,
                transitions,
                init,
                arena_segments,
                arena_hot,
                edge_segments,
                edge_hot,
            }),
        })
    }
}

/// Captures a snapshot from a (possibly partial) exploration whose
/// only incomplete states are the `frontier` ones: their (possibly
/// partial) edge lists are cleared so they fully re-expand on resume.
/// `keep` truncates the arena to a prefix — the work-stealing engines
/// roll back to the last complete BFS level boundary (every kept edge
/// then points inside the prefix); sequential captures pass the full
/// length.
pub(crate) fn capture(
    graph: &StateGraph,
    keep: usize,
    frontier: &[usize],
    header: RunHeader,
) -> Snapshot {
    let mut frontier = frontier.to_vec();
    frontier.sort_unstable();
    frontier.dedup();
    let mut graph = graph.prefix(keep);
    graph.clear_edges(&frontier);
    header.snapshot(graph, frontier, None)
}

/// Hands `take` every record of a segmented store `(dir, sealed,
/// hot)`, in id order: the sealed segments under `dir`, each verified
/// against its `sealed` entry as it is read, then the unsealed `hot`
/// tail.
pub(crate) fn for_each_record<'a>(
    (dir, sealed, hot): (&Path, &[SegmentMeta], impl Iterator<Item = &'a [u8]>),
    mut take: impl FnMut(&[u8]) -> Result<(), CheckpointError>,
) -> Result<(), CheckpointError> {
    for meta in sealed {
        for rec in store::read_segment(&dir.join(&meta.name), Some(meta))? {
            take(&rec)?;
        }
    }
    hot.into_iter().try_for_each(take)
}

/// [`for_each_record`] over edge records: `take(id, successors)`, ids
/// and targets below `bound`.
pub(crate) fn for_each_edge_record<'a>(
    records: (&Path, &[SegmentMeta], impl Iterator<Item = &'a [u8]>),
    bound: usize,
    mut take: impl FnMut(usize, &[Edge]) -> Result<(), CheckpointError>,
) -> Result<(), CheckpointError> {
    let mut list = Vec::new();
    for_each_record(records, |bytes| {
        let id = decode_edge_record(bytes, bound, &mut list)?;
        take(id, &list)
    })
}

/// One arena record in the spill store: `[tag u8][parent u32, with
/// `u32::MAX` for "initial"][action u32][fingerprint u64][state
/// payload]`. Tag 0 carries the state in the general [`codec`]
/// encoding; tag 1 carries the fixed-width packed form (only written
/// when a [`PackedLayout`] compiled and the state packs). The
/// fingerprint is stored rather than recomputed so spilled parents
/// can be re-expanded without rehashing, and so the visited set can
/// be rebuilt from the arena alone.
pub(crate) struct ArenaRecord {
    pub(crate) parent: Option<(usize, usize)>,
    pub(crate) fp: u64,
    pub(crate) state: State,
}

pub(crate) fn encode_arena_record(
    state: &State,
    fp: u64,
    parent: Option<(usize, usize)>,
    layout: Option<&PackedLayout>,
    scratch: &mut Vec<u8>,
    out: &mut Vec<u8>,
) {
    let (parent_word, action_word) = match parent {
        Some((p, a)) => (p as u32, a as u32),
        None => (u32::MAX, 0),
    };
    let packed = layout.is_some_and(|l| l.pack_into(state.values(), scratch));
    out.clear();
    out.push(u8::from(packed));
    out.extend_from_slice(&parent_word.to_le_bytes());
    out.extend_from_slice(&action_word.to_le_bytes());
    out.extend_from_slice(&fp.to_le_bytes());
    if packed {
        out.extend_from_slice(scratch);
    } else {
        codec::encode_state(state, out);
    }
}

pub(crate) fn decode_arena_record(
    bytes: &[u8],
    layout: Option<&PackedLayout>,
) -> Result<ArenaRecord, CheckpointError> {
    let mut r = Reader::new(bytes);
    let tag = r.u8("arena record tag")?;
    let parent_word = r.u32("arena record parent")?;
    let action = r.u32("arena record action")?;
    let fp = r.u64("arena record fingerprint")?;
    let state = match tag {
        0 => {
            let state = codec::decode_state(&mut r)?;
            expect_end(&r, "an arena record")?;
            state
        }
        1 => {
            let layout = layout.ok_or_else(|| {
                corrupt("packed arena record but no layout compiles for this system")
            })?;
            let payload = &bytes[17..];
            if payload.len() != layout.stride() {
                return Err(corrupt(format!(
                    "packed arena record payload is {} byte(s), layout stride is {}",
                    payload.len(),
                    layout.stride()
                )));
            }
            layout.unpack(payload)
        }
        t => return Err(corrupt(format!("unknown arena record tag {t}"))),
    };
    let parent = if parent_word == u32::MAX {
        None
    } else {
        Some((parent_word as usize, action as usize))
    };
    Ok(ArenaRecord { parent, fp, state })
}

/// One edge record in the spill store: `[id u32][k u32][(action u32,
/// target u32) × k]`. A record is appended exactly once per state,
/// when its expansion completes — frontier states have no record,
/// which is the same invariant [`capture`] enforces by clearing
/// frontier edge lists.
pub(crate) fn encode_edge_record(id: usize, edges: &[Edge], out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&(id as u32).to_le_bytes());
    out.extend_from_slice(&(edges.len() as u32).to_le_bytes());
    for e in edges {
        out.extend_from_slice(&(e.action as u32).to_le_bytes());
        out.extend_from_slice(&(e.target as u32).to_le_bytes());
    }
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
        return Err(corrupt(format!("edge record id {id} out of range (< {bound})")));
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

/// The checkpoint driver: counts work against the cadence, stamps
/// sequence numbers, and runs the writes. A write failure is reported
/// once on stderr and disables further writes — checkpointing is a
/// best-effort safety net, never a reason to abort a healthy run. The
/// exploration engines write [`Snapshot`]s through
/// [`Checkpointer::write`]; the liveness check owns one as its cadence
/// and saves [`LiveSnapshot`]s through [`Checkpointer::write_with`].
pub(crate) struct Checkpointer {
    spec: Option<CheckpointSpec>,
    seq: u64,
    since: u64,
    failed: bool,
}

impl Checkpointer {
    /// A driver whose first write is stamped `base_seq + 1`.
    pub(crate) fn new(spec: Option<CheckpointSpec>, base_seq: u64) -> Checkpointer {
        Checkpointer {
            spec,
            seq: base_seq,
            since: 0,
            failed: false,
        }
    }

    /// Whether checkpointing is configured and still healthy.
    pub(crate) fn active(&self) -> bool {
        self.spec.is_some() && !self.failed
    }

    /// Records `n` more units of work (state expansions, cleared
    /// components); true when a periodic snapshot is due (the counter
    /// resets on the next write).
    pub(crate) fn due(&mut self, n: u64) -> bool {
        match &self.spec {
            Some(spec) if !self.failed => {
                self.since += n;
                self.since >= spec.cadence
            }
            _ => false,
        }
    }

    /// Stamps the next sequence number and has `save` write a snapshot
    /// carrying it to the configured path. Returns the resume token, or
    /// `None` if checkpointing is off, had failed, or `save` fails —
    /// which is reported as "`what` disabled" and ends checkpointing.
    pub(crate) fn write_with(
        &mut self,
        what: &str,
        save: impl FnOnce(&Path, u64) -> Result<(), CheckpointError>,
    ) -> Option<ResumeToken> {
        let spec = self.spec.as_ref()?;
        if self.failed {
            return None;
        }
        self.seq += 1;
        self.since = 0;
        if let Err(e) = save(&spec.path, self.seq) {
            eprintln!("opentla-check: {what} disabled: {e}");
            self.failed = true;
            return None;
        }
        Some(ResumeToken {
            path: spec.path.clone(),
            seq: self.seq,
        })
    }

    /// Writes `snap` to the configured path (stamping the next
    /// sequence number) and emits [`Event::Checkpoint`]. Returns the
    /// resume token, or `None` if checkpointing is off or has failed.
    pub(crate) fn write(
        &mut self,
        mut snap: Snapshot,
        recorder: &RecorderHandle,
    ) -> Option<ResumeToken> {
        let token = self.write_with("checkpointing", |path, seq| {
            snap.seq = seq;
            snap.save(path)
        })?;
        if recorder.enabled() {
            recorder.record(&Event::Checkpoint {
                seq: token.seq,
                states: snap.states_used() as u64,
                transitions: snap.transitions_used() as u64,
                frontier: snap.frontier_len() as u64,
            });
        }
        Some(token)
    }
}

const LIVE_MAGIC: &[u8; 8] = b"OTLALIVE";

/// Liveness snapshot wire-format version accepted by this build.
pub const LIVE_SNAPSHOT_VERSION: u32 = 1;

/// The resumable core of an interrupted liveness check: which
/// components of the property-restricted graph have already been
/// analyzed and *cleared* (no fairness-satisfiable violation entered
/// through them).
///
/// Unlike an exploration [`Snapshot`], a liveness snapshot stores no
/// states — the state graph is the caller's input, and the fairness
/// tables plus the SCC decomposition are deterministic functions of it,
/// so a resume re-derives them (without re-charging the meter; the
/// snapshot banks the transitions the original run paid) and skips the
/// cleared components. The header therefore pins the graph's
/// dimensions and a hash of the *target's* restriction tables: a
/// snapshot taken while checking `◇P` must not skip components of a
/// `□◇P` run.
///
/// Same file discipline as [`Snapshot`]: magic (`b"OTLALIVE"`), body,
/// FNV-1a checksum; atomic temp-file-and-rename writes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LiveSnapshot {
    /// Structural hash of the checked system.
    pub(crate) system_hash: u64,
    /// State count of the graph the check ran over.
    pub(crate) graph_states: u64,
    /// Transition count of that graph.
    pub(crate) graph_transitions: u64,
    /// Hash of the target's violation-restriction tables.
    pub(crate) target_hash: u64,
    /// Sequence number of this snapshot within its run.
    pub(crate) seq: u64,
    /// Transitions banked in the snapshot (what the resumed meter is
    /// pre-charged with).
    pub(crate) transitions_used: u64,
    /// Total component count of the restricted graph's decomposition.
    pub(crate) components: u64,
    /// Indices (in Tarjan completion order) of cleared components,
    /// ascending.
    pub(crate) cleared: Vec<u64>,
}

impl LiveSnapshot {
    /// Sequence number of this snapshot within its run.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Transitions banked in the snapshot.
    pub fn transitions_used(&self) -> u64 {
        self.transitions_used
    }

    /// Total component count of the restricted graph's decomposition.
    pub fn components(&self) -> u64 {
        self.components
    }

    /// Indices of already-cleared components, ascending.
    pub fn cleared(&self) -> &[u64] {
        &self.cleared
    }

    /// Refuses to resume against a different system or graph.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Mismatch`] naming the first disagreeing
    /// field.
    pub(crate) fn validate(
        &self,
        system: &System,
        graph: &crate::StateGraph,
    ) -> Result<(), CheckpointError> {
        let requested_hash = system_hash(system);
        if self.system_hash != requested_hash {
            return mismatch(
                "system",
                format!("{:#018x}", self.system_hash),
                format!("{requested_hash:#018x}"),
            );
        }
        if self.graph_states != graph.len() as u64 {
            return mismatch(
                "graph state count",
                self.graph_states.to_string(),
                graph.len().to_string(),
            );
        }
        let transitions = graph.edge_count() as u64;
        if self.graph_transitions != transitions {
            return mismatch(
                "graph transition count",
                self.graph_transitions.to_string(),
                transitions.to_string(),
            );
        }
        Ok(())
    }

    /// Refuses to resume a run over a different liveness target.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Mismatch`] on disagreement.
    pub(crate) fn validate_target(&self, requested: u64) -> Result<(), CheckpointError> {
        if self.target_hash != requested {
            return mismatch(
                "liveness target",
                format!("{:#018x}", self.target_hash),
                format!("{requested:#018x}"),
            );
        }
        Ok(())
    }

    /// Refuses to resume when the freshly-derived decomposition has a
    /// different component count than the snapshot was taken under
    /// (which would mean the graph or target changed despite matching
    /// headers — defense in depth).
    ///
    /// A snapshot with zero components and no cleared entries was taken
    /// before the decomposition existed (the run exhausted mid table
    /// construction); it constrains nothing, so any derived count is
    /// compatible.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Mismatch`] on disagreement.
    pub(crate) fn validate_components(&self, derived: u64) -> Result<(), CheckpointError> {
        if self.components == 0 && self.cleared.is_empty() {
            return Ok(());
        }
        if self.components != derived {
            return mismatch(
                "component count",
                self.components.to_string(),
                derived.to_string(),
            );
        }
        Ok(())
    }

    fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&LIVE_SNAPSHOT_VERSION.to_le_bytes());
        for word in [
            self.system_hash,
            self.graph_states,
            self.graph_transitions,
            self.target_hash,
            self.seq,
            self.transitions_used,
            self.components,
        ] {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out.extend_from_slice(&(self.cleared.len() as u32).to_le_bytes());
        for &c in &self.cleared {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out
    }

    fn decode_body(body: &[u8]) -> Result<LiveSnapshot, CheckpointError> {
        let mut r = Reader::new(body);
        let version = r.u32("version")?;
        if version != LIVE_SNAPSHOT_VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }
        let system_hash = r.u64("system hash")?;
        let graph_states = r.u64("graph state count")?;
        let graph_transitions = r.u64("graph transition count")?;
        let target_hash = r.u64("target hash")?;
        let seq = r.u64("sequence number")?;
        let transitions_used = r.u64("banked transitions")?;
        let components = r.u64("component count")?;
        let n = r.u32("cleared count")? as usize;
        if n as u64 > components {
            return Err(corrupt(format!(
                "cleared count {n} exceeds component count {components}"
            )));
        }
        let mut cleared = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let c = r.u64("cleared component")?;
            if c >= components {
                return Err(corrupt(format!(
                    "cleared component {c} out of range (< {components})"
                )));
            }
            if cleared.last().is_some_and(|&last| last >= c) {
                return Err(corrupt(format!(
                    "cleared components not strictly ascending at {c}"
                )));
            }
            cleared.push(c);
        }
        expect_end(&r, "the liveness snapshot body")?;
        Ok(LiveSnapshot {
            system_hash,
            graph_states,
            graph_transitions,
            target_hash,
            seq,
            transitions_used,
            components,
            cleared,
        })
    }

    /// Writes the snapshot to `path` atomically (same temp-and-rename
    /// discipline as [`Snapshot::save`]).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the filesystem refuses.
    pub(crate) fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        write_framed(path, LIVE_MAGIC, &self.encode_body())
    }

    /// Loads and verifies a liveness snapshot: magic, format version,
    /// checksum, and structural bounds. Corrupt or truncated files
    /// yield a typed error, never a panic.
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`] except `Mismatch` (configuration
    /// validation is [`LiveSnapshot::validate`]'s job).
    pub fn load(path: &Path) -> Result<LiveSnapshot, CheckpointError> {
        read_framed(path, LIVE_MAGIC, LiveSnapshot::decode_body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opentla_kernel::Value;

    /// Three states: 0 initial and expanded, 1 and 2 reached from it.
    fn sample_graph() -> StateGraph {
        let mut graph = StateGraph::with_capacity(3);
        let states = [(0, false, None), (1, false, Some((0, 0))), (1, true, Some((0, 1)))];
        for (x, y, parent) in states {
            let state = State::new(vec![Value::Int(x), Value::Bool(y)]);
            graph.push_state(state, parent).unwrap();
        }
        let successors = [Edge { action: 0, target: 1 }, Edge { action: 1, target: 2 }];
        graph.set_edges(0, &successors);
        graph
    }

    fn sample() -> Snapshot {
        Snapshot {
            fp_bits: 64,
            mode: VisitedMode::Fingerprint,
            reduced: true,
            system_hash: 0xdead_beef_cafe_f00d,
            seq: 7,
            graph: sample_graph(),
            frontier: vec![1, 2],
            reduction: Some(ReducedRun {
                canonicalizer: "sample-group".into(),
                canon_hits: 4,
            }),
            spill: None,
        }
    }

    fn assert_snapshots_equal(a: &Snapshot, b: &Snapshot) {
        assert_eq!(a.fp_bits, b.fp_bits);
        assert_eq!(a.mode, b.mode);
        assert_eq!(a.reduced, b.reduced);
        assert_eq!(a.system_hash, b.system_hash);
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.graph.first_difference(&b.graph), None);
        assert_eq!(a.frontier, b.frontier);
        assert_eq!(a.reduction, b.reduction);
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join("opentla_ckpt_rt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round_trip.snap");
        let snap = sample();
        snap.save(&path).unwrap();
        let back = Snapshot::load(&path).unwrap();
        assert_snapshots_equal(&snap, &back);
        assert_eq!(back.states_used(), 3);
        assert_eq!(back.transitions_used(), 2);
        assert_eq!(back.frontier_len(), 2);
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
        assert_eq!(Snapshot::load(&path).unwrap_err(), CheckpointError::BadMagic);
        // Unsupported version (re-checksummed, so it parses that far).
        let mut versioned = pristine.clone();
        versioned[8..12].copy_from_slice(&99u32.to_le_bytes());
        let body_end = versioned.len() - 8;
        let sum = fnv1a(&versioned[8..body_end]);
        versioned[body_end..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &versioned).unwrap();
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

    /// Rewrites the sample's trailing reduction block and re-checksums
    /// the file, so the decoder gets past the integrity check.
    fn with_reduction_block(path: &Path, block: &[u8]) {
        let snap = sample();
        snap.save(path).unwrap();
        let file = std::fs::read(path).unwrap();
        let name = &snap.reduction.as_ref().unwrap().canonicalizer;
        let old_block = 1 + 8 + 4 + name.len();
        let mut body = file[MAGIC.len()..file.len() - 8 - old_block].to_vec();
        body.extend_from_slice(block);
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&body);
        out.extend_from_slice(&fnv1a(&body).to_le_bytes());
        std::fs::write(path, out).unwrap();
    }

    #[test]
    fn reduction_block_of_a_por_build_is_refused_not_misread() {
        let dir = std::env::temp_dir().join("opentla_ckpt_redblock");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old_block.snap");
        // Tag 1: the four counters ample-set builds wrote.
        let mut old = vec![1u8];
        for n in [1u64, 2, 3, 4] {
            old.extend_from_slice(&n.to_le_bytes());
        }
        with_reduction_block(&path, &old);
        match Snapshot::load(&path).unwrap_err() {
            CheckpointError::Corrupt { detail } => {
                assert!(detail.contains("partial-order reduction"), "{detail}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // A `reduced` header without its block.
        with_reduction_block(&path, &[0]);
        match Snapshot::load(&path).unwrap_err() {
            CheckpointError::Corrupt { detail } => assert!(detail.contains("reduced flag"), "{detail}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    fn corrupt_detail(result: Result<Snapshot, CheckpointError>) -> String {
        match result {
            Err(CheckpointError::Corrupt { detail }) => detail,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// `trace_to` follows parents until it meets an initial state, so
    /// a state that names itself would hang it. A valid checksum does
    /// not vouch for the tree: FNV-1a guards against rot, not against
    /// whatever wrote the file.
    #[test]
    fn v1_state_zero_naming_a_parent_is_corrupt() {
        let dir = std::env::temp_dir().join("opentla_ckpt_parent_v1");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("self_parent.snap");
        let mut body = sample().encode_body();
        // The sample's BFS tree: state 0 initial, 1 and 2 reached from
        // it by actions 0 and 1.
        let tree = [0u8, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0];
        let at = body.windows(tree.len()).rposition(|w| w == tree).unwrap();
        body.splice(at..at + 1, [1, 0, 0, 0, 0, 0, 0, 0, 0]);
        write_framed(&path, MAGIC, &body).unwrap();
        let detail = corrupt_detail(Snapshot::load(&path));
        assert!(detail.contains("state 0 names state 0"), "{detail}");
        std::fs::remove_file(&path).unwrap();
    }

    /// A spill manifest's arena records carry their parents as raw
    /// words; one past the arena would index `trace_to` out of bounds.
    #[test]
    fn v2_arena_record_naming_a_later_parent_is_corrupt() {
        use opentla_kernel::{Domain, Vars};
        let dir = std::env::temp_dir().join("opentla_ckpt_parent_v2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("far_parent.snap");
        let graph = sample_graph();
        let (mut scratch, mut rec) = (Vec::new(), Vec::new());
        let arena_hot = [None, Some((0, 0)), Some((999, 1))]
            .into_iter()
            .enumerate()
            .map(|(id, parent)| {
                let (state, fp) = (graph.state(id), graph.state(id).fingerprint());
                encode_arena_record(state, fp, parent, None, &mut scratch, &mut rec);
                rec.clone()
            })
            .collect();
        let snap = Snapshot {
            graph: StateGraph::with_capacity(0),
            frontier: vec![0],
            spill: Some(SpillManifest {
                dir: dir.clone(),
                states: 3,
                transitions: 0,
                init: vec![0],
                arena_segments: Vec::new(),
                arena_hot,
                edge_segments: Vec::new(),
                edge_hot: Vec::new(),
            }),
            ..sample()
        };
        snap.save(&path).unwrap();
        let mut vars = Vars::new();
        vars.declare("x", Domain::int_range(0, 1));
        vars.declare("y", Domain::booleans());
        let system = System::new(vars, crate::Init::new([]), vec![]);
        let loaded = Snapshot::load(&path).unwrap();
        let detail = corrupt_detail(loaded.materialize(&system));
        assert!(detail.contains("state 2 names state 999"), "{detail}");
        std::fs::remove_file(&path).unwrap();
    }

    /// The manifest's segment record counts are words of the file: two
    /// that sum past `u64::MAX` wrap around to the claimed state count
    /// in a release build and overflow in a debug one.
    #[test]
    fn v2_segment_counts_that_overflow_are_corrupt() {
        let dir = std::env::temp_dir().join("opentla_ckpt_overflow_v2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("overflow.snap");
        let segment = |records| SegmentMeta {
            name: "arena-0.seg".into(),
            first: 0,
            records,
            payload_len: 0,
            payload_checksum: 0,
        };
        let snap = Snapshot {
            graph: StateGraph::with_capacity(0),
            frontier: vec![0],
            spill: Some(SpillManifest {
                dir: dir.clone(),
                states: 1,
                transitions: 0,
                init: vec![0],
                arena_segments: vec![segment(u64::MAX), segment(2)],
                arena_hot: Vec::new(),
                edge_segments: Vec::new(),
                edge_hot: Vec::new(),
            }),
            ..sample()
        };
        snap.save(&path).unwrap();
        let detail = corrupt_detail(Snapshot::load(&path));
        assert!(detail.contains("claims 1 states"), "{detail}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn errors_render_usefully() {
        let e = CheckpointError::Mismatch {
            field: "system",
            snapshot: "0xaaaa".into(),
            requested: "0xbbbb".into(),
        };
        let text = e.to_string();
        assert!(text.contains("system") && text.contains("refusing"), "{text}");
        assert!(CheckpointError::ChecksumMismatch.to_string().contains("checksum"));
        assert!(CheckpointError::UnsupportedVersion { found: 3 }
            .to_string()
            .contains('3'));
    }

    fn live_sample() -> LiveSnapshot {
        LiveSnapshot {
            system_hash: 0x1234_5678_9abc_def0,
            graph_states: 1000,
            graph_transitions: 2500,
            target_hash: 0x0f0f_f0f0_1234_4321,
            seq: 3,
            transitions_used: 777,
            components: 42,
            cleared: vec![0, 2, 5, 41],
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The files `sample()` and `live_sample()` save are, byte for
    /// byte, the ones commit 667e7d3 (which framed and checksummed each
    /// format in its own copy of the code) wrote for them.
    #[test]
    fn snapshot_files_are_byte_identical_to_the_recorded_ones() {
        let dir = std::env::temp_dir().join("opentla_ckpt_pinned");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pinned.snap");
        sample().save(&path).unwrap();
        assert_eq!(
            hex(&std::fs::read(&path).unwrap()),
            "4f544c41534e4150010000004000000000010df0fecaefbeadde070000000000\
             0000030000000200000001000000000000000000000200000001010000000000\
             0000000002000000010100000000000000000101000000000000000200000000\
             0000000100000001000000020000000000000000000000000100000000000000\
             000100000000010000000200000001000000020000000204000000000000000c\
             00000073616d706c652d67726f75709718fe4416ba0640"
        );
        live_sample().save(&path).unwrap();
        assert_eq!(
            hex(&std::fs::read(&path).unwrap()),
            "4f544c414c49564501000000f0debc9a78563412e803000000000000c4090000\
             0000000021433412f0f00f0f030000000000000009030000000000002a000000\
             0000000004000000000000000000000002000000000000000500000000000000\
             2900000000000000edf771de13318143"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn live_snapshot_round_trip() {
        let dir = std::env::temp_dir().join("opentla_live_ckpt_rt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live_rt.snap");
        let snap = live_sample();
        snap.save(&path).unwrap();
        let back = LiveSnapshot::load(&path).unwrap();
        assert_eq!(snap, back);
        assert_eq!(back.seq(), 3);
        assert_eq!(back.transitions_used(), 777);
        assert_eq!(back.components(), 42);
        assert_eq!(back.cleared(), &[0, 2, 5, 41]);
        assert!(!dir.join("live_rt.snap.tmp").exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn live_snapshot_rejects_corruption_and_mismatch() {
        let dir = std::env::temp_dir().join("opentla_live_ckpt_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live_bad.snap");
        live_sample().save(&path).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        // An exploration snapshot is not a liveness snapshot: the magic
        // differs, so cross-loading is refused outright.
        assert_eq!(
            Snapshot::load(&path).unwrap_err(),
            CheckpointError::BadMagic
        );

        for cut in [0, 4, 8, pristine.len() / 2, pristine.len() - 1] {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            let err = LiveSnapshot::load(&path).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::BadMagic | CheckpointError::ChecksumMismatch
                ),
                "cut at {cut}: {err}"
            );
        }
        let mut flipped = pristine.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        assert_eq!(
            LiveSnapshot::load(&path).unwrap_err(),
            CheckpointError::ChecksumMismatch
        );

        // Unsorted cleared list: checksum fine, structure refused.
        let mut bad = live_sample();
        bad.cleared = vec![5, 2];
        bad.save(&path).unwrap();
        assert!(matches!(
            LiveSnapshot::load(&path).unwrap_err(),
            CheckpointError::Corrupt { .. }
        ));
        // Cleared index out of component range.
        let mut bad = live_sample();
        bad.cleared = vec![42];
        bad.save(&path).unwrap();
        assert!(matches!(
            LiveSnapshot::load(&path).unwrap_err(),
            CheckpointError::Corrupt { .. }
        ));

        // Target/component validation is typed, never a panic.
        let snap = live_sample();
        assert!(snap.validate_target(snap.target_hash).is_ok());
        assert!(matches!(
            snap.validate_target(snap.target_hash ^ 1).unwrap_err(),
            CheckpointError::Mismatch { field: "liveness target", .. }
        ));
        assert!(snap.validate_components(42).is_ok());
        assert!(matches!(
            snap.validate_components(41).unwrap_err(),
            CheckpointError::Mismatch { field: "component count", .. }
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
