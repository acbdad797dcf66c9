//! Crash-tolerant checkpointing: resumable on-disk snapshots of a run.
//!
//! Long explicit-state runs — exactly what the Composition Theorem's
//! complete-system obligations produce — must survive interruption:
//! a crash at hour three is otherwise a total loss. Following TLC's
//! `-checkpoint`/`-recover` discipline, a checkpoint is the run's
//! store, sealed: an exploration under a [`Budget`](crate::Budget)
//! with [`Budget::with_checkpoint`](crate::Budget::with_checkpoint)
//! periodically records its segment store — the state arena with the
//! BFS tree, the edge records — and its unexpanded frontier as a
//! [`Snapshot`], and [`explore_resumable`](crate::explore_resumable)
//! re-opens that store and continues from the frontier.
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
//! The manifest is the store: one arena record per state (its packed
//! row) and one edge record per fully expanded state, the sealed
//! segments *referenced* (name, first id, record count, length,
//! checksum) and the unsealed tails inline. A store under a checkpoint
//! spec always has disk tiers, and one still in RAM moves to disk at its
//! first checkpoint, so a checkpoint costs O(unsealed tail), not
//! O(state space). The manifest is the snapshot's only form, in RAM as
//! in a file. A row means a state only under its layout, which goes in
//! ahead of the manifest as each slot's domain ([`codec`] values).
//!
//! The header pins everything that decides *whether the snapshot may
//! be trusted for a resume*: the system's structural hash, the
//! fingerprint width (`fp_bits` — a snapshot taken under forced
//! collisions must not silently resume a full-width run) and the
//! [`VisitedMode`]. [`Snapshot::load`] verifies magic, version, and
//! checksum; [`Snapshot::validate`] refuses any mismatch, of the header
//! or the domains, with a typed [`CheckpointError`]; re-opening the
//! store refuses a record that does not check — never a panic, and
//! never a silent wrong-configuration resume.
//!
//! Writes are durable and atomic: the segments sealed since the last
//! checkpoint are synced, then the snapshot goes to a synced temporary
//! file renamed over the path — a crash mid-write leaves the previous
//! snapshot, and the segments it references, intact.
//!
//! # Re-opening
//!
//! A resume builds no graph: it re-opens the sealed segments where they
//! lie, appends the inline tails, rebuilds the dedup index in one
//! checked pass ([`replay`]) and seals its own segments after them.
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
//! A snapshot stores no visited set: the re-open rebuilds the dedup
//! index from the arena records' fingerprints, each checked against its
//! row ([`PackedLayout::fingerprint`] is deterministic across
//! processes), under the *same* `fp_bits` the original run used — so
//! the resumed run conflates exactly the states the original would
//! have, keeping the under-approximation argument of
//! [`VisitedMode::Fingerprint`] intact. The store writes a state's edge
//! record only once its expansion completes, so a frontier state's
//! partial edge list is never in a snapshot: those states fully
//! re-expand on resume, in the BFS discovery order the uninterrupted
//! run would have followed, which is why a resumed run's graph is
//! byte-identical to an uninterrupted one.

use crate::explore::{Edge, StateGraph};
use crate::obs::{Event, RecorderHandle};
use crate::{CheckError, ExploreOptions, System, VisitedMode};
use opentla_kernel::codec::{self, Reader};
use opentla_kernel::store::{self, fnv1a, SegmentMeta, SegmentStore, StoreError};
use opentla_kernel::{Domain, PackedLayout};
use std::hash::Hasher;
use std::io::Write;
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

/// A run's resumable core: its store, sealed at a consistent cut of
/// the exploration, where every non-frontier state is fully expanded
/// (its edge record complete and in action order), every frontier
/// state is entirely unexpanded (it has no edge record), and every
/// arena state is reachable from the initial states via recorded edges
/// or sits on the frontier. Resuming re-opens the store — its sealed
/// segments where they lie — and only ever *re-does* the expansion of
/// frontier states: O(new work), not O(total).
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
    /// The store: arena, recorded edges and BFS tree, in canonical order.
    pub(crate) manifest: Manifest,
    /// The unexpanded states: the arena's last ids, ascending.
    pub(crate) frontier: Vec<usize>,
}

impl Snapshot {
    /// The first snapshot of a run under `options` of the system with
    /// `system_hash`, its store `manifest`, whose arena's tail
    /// `frontier` is unexpanded: the header [`Snapshot::validate`]
    /// compares on resume.
    pub(crate) fn of(
        options: &ExploreOptions,
        system_hash: u64,
        manifest: Manifest,
        frontier: Range<usize>,
    ) -> Snapshot {
        Snapshot {
            fp_bits: options.fp_bits.clamp(1, 64),
            mode: options.mode,
            system_hash,
            seq: 0,
            manifest,
            frontier: frontier.collect(),
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

    pub(crate) fn iter(&self) -> impl Iterator<Item = &[u8]> {
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

/// A sealed segment store, the record stream of a run: where the
/// sealed segment files live and how to verify them, and every record
/// no sealed segment holds — the unsealed tails — inline.
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

impl Snapshot {
    /// States banked in the snapshot (what the resumed meter is
    /// pre-charged with).
    pub fn states_used(&self) -> usize {
        self.manifest.states as usize
    }

    /// Fully-committed transitions banked in the snapshot.
    pub fn transitions_used(&self) -> usize {
        self.manifest.transitions as usize
    }

    /// Number of discovered-but-unexpanded states awaiting resume.
    pub fn frontier_len(&self) -> usize {
        self.frontier.len()
    }

    /// Refuses to resume under a different system or configuration:
    /// the structural hash, fingerprint width, visited mode and every
    /// variable's domain must all match what the snapshot was taken
    /// under.
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
        // The records are re-opened as they are: a row means its state
        // only under the snapshot's domains (the hash pins the variables).
        let (vars, ours) = (system.vars(), self.manifest.layout.domains());
        match vars
            .iter()
            .zip(ours)
            .find(|&(v, ours)| ours != vars.domain(v))
        {
            Some((v, ours)) => {
                let (name, theirs) = (vars.name(v), vars.domain(v));
                mismatch(
                    "variable domains",
                    format!("{name} ∈ {ours}"),
                    format!("{name} ∈ {theirs}"),
                )
            }
            None => Ok(()),
        }
    }

    /// Appends the snapshot body (everything between magic and
    /// checksum) to `out`.
    fn encode_body(&self, out: &mut Vec<u8>) {
        let m = &self.manifest;
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
            domain.iter().for_each(|v| codec::encode_value(v, out));
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
        push_bytes(out, m.dir.to_string_lossy().as_bytes());
        out.extend_from_slice(&m.states.to_le_bytes());
        out.extend_from_slice(&m.transitions.to_le_bytes());
        for segments in [&m.arena_segments, &m.edge_segments] {
            out.extend_from_slice(&(segments.len() as u32).to_le_bytes());
            for seg in segments.iter() {
                push_bytes(out, seg.name.as_bytes());
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
                push_bytes(out, rec);
            }
        }
        push_ids(out, &m.init);
        push_ids(out, &self.frontier);
    }

    /// Writes the snapshot to `path` atomically: the magic, the body
    /// and the FNV-1a checksum of the body (a zero-dependency integrity
    /// check: it guards against truncation and bit rot, not
    /// adversaries) go to a temporary file in the same directory, which
    /// is synced to disk and then renamed over `path`, its directory
    /// synced — a crash mid-write leaves any previous snapshot intact.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the filesystem refuses.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let m = &self.manifest;
        // The inline records and the id lists, each word of them
        // counted: most of the file.
        let words = m.arena_hot.len() + m.edge_hot.len() + m.init.len() + self.frontier.len();
        let inline = m.arena_hot.bytes.len() + m.edge_hot.bytes.len() + 4 * words;
        let mut file = Vec::with_capacity(inline + 1024);
        file.extend_from_slice(MAGIC);
        self.encode_body(&mut file);
        let checksum = fnv1a(&file[MAGIC.len()..]);
        file.extend_from_slice(&checksum.to_le_bytes());
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let mut out = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        (out.write_all(&file).and_then(|()| out.sync_all())).map_err(|e| io_err(&tmp, e))?;
        std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
        let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
        sync(dir.unwrap_or(Path::new(".")))
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
            list.push(SegmentMeta {
                name: self.string("segment name")?,
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
            manifest,
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

/// The pass a resume re-opens a snapshot's store with: every arena
/// record in id order, then every edge record, each sealed segment
/// verified as it is read. An arena record decodes under `layout`
/// ([`arena_record`]), holds its row's fingerprint (the loop derives its
/// children's from it) and names an earlier state as its BFS parent by
/// one of the system's `actions`, or none as an initial state. There is
/// one edge record for each expanded state, in id order, naming the
/// system's actions; the first edge into a state is the parent its
/// arena record names ([`first_edge`]), and a state no edge reaches
/// names the frontier's first as its parent ([`unreached`]) — what the
/// finished run's graph is checked against ([`check_parents`]), so a
/// snapshot it would refuse is refused before the run resumes. The
/// check keeps each state's recorded parent, 8 bytes a state, while the
/// pass runs. `seed(fp, id)` gets each state's fingerprint; the
/// frontier's first id is returned.
///
/// # Errors
///
/// [`CheckpointError::Io`] when a referenced segment file is gone, else
/// any corruption-class error.
pub(crate) fn replay(
    snap: &Snapshot,
    layout: &PackedLayout,
    actions: usize,
    mut seed: impl FnMut(u64, usize) -> Result<(), CheckpointError>,
) -> Result<usize, CheckpointError> {
    let m = &snap.manifest;
    let n = m.states as usize;
    let first = tail_start(&snap.frontier, n)?;
    let known = |id: usize, action: usize| match action < actions {
        true => Ok(()),
        false => Err(corrupt(format!(
            "state {id} records action {action} of a system with {actions}"
        ))),
    };
    let (mut id, mut init, mut parents) = (0, Vec::new(), Vec::with_capacity(n));
    for_each_record((&m.dir, &m.arena_segments, m.arena_hot.iter()), |bytes| {
        let rec = arena_record(bytes, layout)?;
        parents.push(match earlier_parent(id, rec.parent)? {
            None => {
                init.push(id);
                (INITIAL, 0)
            }
            Some((parent, action)) => {
                known(id, action)?;
                (parent as u32, action as u32)
            }
        });
        let fp = layout.fingerprint(rec.row);
        if rec.fp != fp {
            return Err(corrupt(format!(
                "state {id}'s record holds fingerprint {:#018x}, its row's is {fp:#018x}",
                rec.fp
            )));
        }
        seed(fp, id)?;
        id += 1;
        Ok(())
    })?;
    if id != n {
        return Err(corrupt(format!(
            "manifest claims {n} states, its records held {id}"
        )));
    }
    if init != m.init {
        return Err(corrupt(
            "manifest and arena records disagree on the initial states",
        ));
    }
    let (mut rows, mut transitions, mut edges) = (0, 0, Vec::new());
    for_each_record((&m.dir, &m.edge_segments, m.edge_hot.iter()), |bytes| {
        let id = decode_edge_record(bytes, n, &mut edges)?;
        next_row(id, rows, n)?;
        if id >= first {
            return Err(corrupt(format!(
                "edges of state {id}, on the frontier from {first}: a frontier state is expanded \
                 on resume"
            )));
        }
        for &e in &edges {
            known(id, e.action as usize)?;
            first_edge(&mut parents, id, e)?;
        }
        (rows, transitions) = (id + 1, transitions + edges.len() as u64);
        Ok(())
    })?;
    if rows != first {
        return Err(corrupt(format!(
            "edge records end at state {rows}, but states up to the frontier's first, {first}, \
             are expanded: each has an edge record"
        )));
    }
    if transitions != m.transitions {
        return Err(corrupt(format!(
            "manifest claims {} transitions, edge records held {transitions}",
            m.transitions
        )));
    }
    unreached(&parents, first, |_, _| ())?;
    Ok(first)
}

/// Whether the edge record of `id` is the next after `rows` filled rows
/// of `n`: one for each expanded state, in ascending id order, as every
/// writer emits them.
fn next_row(id: usize, rows: usize, n: usize) -> Result<(), CheckpointError> {
    match id.cmp(&rows) {
        std::cmp::Ordering::Equal => Ok(()),
        std::cmp::Ordering::Less => Err(corrupt(format!(
            "edges of state {id} after {rows} row(s) of {n}: rows are filled once each, in \
             ascending id order"
        ))),
        std::cmp::Ordering::Greater => Err(corrupt(format!(
            "edges of state {id} after {rows} row(s) of {n}: state {rows} is expanded but has no \
             edge record"
        ))),
    }
}

/// The parent word of an initial state in a column of recorded
/// `(parent, action)` pairs, and of a state whose first edge was
/// checked: both are skipped alike.
const INITIAL: u32 = u32::MAX;

/// Checks `e`, an edge out of `parent` met in the order rows are
/// filled, against the parent its target's record names in `parents`
/// (`(parent, action)` words as [`graph_of_arena`] reads them), if it
/// is the first edge into that state: the edge the explorer discovered
/// it by. A state once checked is marked as an initial one is.
fn first_edge(parents: &mut [(u32, u32)], parent: usize, e: Edge) -> Result<(), CheckpointError> {
    let state = &mut parents[e.target as usize];
    if state.0 == INITIAL {
        return Ok(());
    }
    if *state != (parent as u32, e.action) {
        return Err(corrupt(format!(
            "state {} names state {} by action {} as its BFS parent, but is first reached from \
             state {parent} by action {}",
            e.target, state.0, state.1, e.action
        )));
    }
    state.0 = INITIAL;
    Ok(())
}

/// Once every row's edges went through [`first_edge`]: each state no
/// edge reached must name `next`, the first unexpanded state, as its
/// parent — a state only a resumed run cut before re-expanding `next`
/// as far as the run it resumed from had can be one. `stray(id,
/// action)` gets each.
fn unreached(
    parents: &[(u32, u32)],
    next: usize,
    mut stray: impl FnMut(u32, u32),
) -> Result<(), CheckpointError> {
    for (id, &(parent, action)) in parents.iter().enumerate() {
        if parent == INITIAL {
            continue;
        }
        if parent as usize != next {
            return Err(corrupt(format!(
                "state {id} names state {parent} as its BFS parent, but no edge reaches it"
            )));
        }
        stray(id as u32, action);
    }
    Ok(())
}

/// A segment store's records as [`for_each_record`] reads them.
fn records(store: &SegmentStore) -> (&Path, &[SegmentMeta], impl Iterator<Item = &[u8]>) {
    (store.dir(), store.sealed(), store.hot_records())
}

/// `parent`, the BFS parent the record of state `id` names, if it is
/// an earlier state (or none: an initial state).
fn earlier_parent(
    id: usize,
    parent: Option<(usize, usize)>,
) -> Result<Option<(usize, usize)>, CheckpointError> {
    match parent {
        Some((p, _)) if p >= id => Err(corrupt(format!(
            "state {id} names state {p} as its BFS parent, not an earlier state"
        ))),
        parent => Ok(parent),
    }
}

/// The one store → graph reader, in three steps so a run can drop its
/// arena after the first. First every record of `arena`, in id order,
/// as a state of a graph of rows under `layout` with no edges yet, each
/// record checked as [`arena_record`] does and its parent an earlier
/// state; with the parents the records name, as `(parent, action)`
/// words, `u32::MAX` the parent word of an initial state — a column
/// the caller keeps until [`check_parents`].
pub(crate) fn graph_of_arena(
    arena: &SegmentStore,
    layout: &Arc<PackedLayout>,
) -> Result<(StateGraph, Vec<(u32, u32)>), CheckpointError> {
    let n = arena.len() as usize;
    let (mut graph, mut parents) = (
        StateGraph::with_capacity(Arc::clone(layout), n),
        Vec::with_capacity(n),
    );
    for_each_record(records(arena), |bytes| {
        let rec = arena_record(bytes, layout)?;
        let id = graph.push_state(rec.row, rec.parent.is_none());
        parents.push(match earlier_parent(id, rec.parent)? {
            Some((p, a)) => (p as u32, a as u32),
            None => (INITIAL, 0),
        });
        Ok(())
    })?;
    Ok((graph, parents))
}

/// Then every record of `edges` as a row of `graph`: one for each
/// expanded state, in ascending id order, as every writer emits them.
pub(crate) fn fill_edges(
    graph: &mut StateGraph,
    edges: &SegmentStore,
) -> Result<(), CheckpointError> {
    let (bound, mut list, mut rows) = (graph.len(), Vec::new(), 0);
    for_each_record(records(edges), |bytes| {
        let id = decode_edge_record(bytes, bound, &mut list)?;
        next_row(id, rows, bound)?;
        rows = id + 1;
        graph.set_edges(id, &list)
    })
}

/// Last, once every row is filled — the cut parent's partial one too —
/// checks that each state's recorded parent, in `parents` as
/// [`graph_of_arena`] read them, is the edge the explorer discovered it
/// by: the first edge into it, rows in id order. The graph keeps no
/// parents, so its traces rest on this. A state no edge reaches is one
/// only `next`, the first unexpanded state, can have discovered: in a
/// resumed run cut before it re-expanded that state as far as the run
/// it resumed from had. Its recorded edge becomes one of the graph's
/// strays.
///
/// # Errors
///
/// [`CheckpointError::Corrupt`] naming the state whose record names
/// another parent than its first edge, or a parent other than `next`
/// for a state no edge reaches.
pub(crate) fn check_parents(
    graph: &mut StateGraph,
    mut parents: Vec<(u32, u32)>,
    next: usize,
) -> Result<(), CheckpointError> {
    for parent in 0..graph.len() {
        for &e in graph.edges(parent) {
            first_edge(&mut parents, parent, e)?;
        }
    }
    unreached(&parents, next, |target, action| {
        graph.push_stray(next, Edge { action, target })
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
/// which [`replay`] holds a snapshot to.
/// Ids and targets are below [`id_word`]'s limit, as in arena records.
pub(crate) fn encode_edge_record(id: usize, edges: &[Edge], out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&(id as u32).to_le_bytes());
    out.extend_from_slice(&(edges.len() as u32).to_le_bytes());
    for e in edges {
        out.extend_from_slice(&e.action.to_le_bytes());
        out.extend_from_slice(&e.target.to_le_bytes());
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
        return Err(corrupt(format!(
            "edge record id {id} out of range (< {bound})"
        )));
    }
    edges.clear();
    for _ in 0..r.u32("edge record count")? {
        let action = r.u32("edge action")?;
        let target = r.u32("edge target")?;
        if target as usize >= bound {
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
/// cadence, stamps sequence numbers, and runs the writes, each made
/// durable. A write failure is reported once on stderr and drops the
/// spec — checkpointing is a best-effort safety net, never a reason to
/// abort a healthy run.
pub(crate) struct Checkpointer {
    spec: Option<CheckpointSpec>,
    seq: u64,
    since: u64,
    /// The sealed arena and edge segments already synced, the resumed
    /// snapshot's included.
    synced: [usize; 2],
}

impl Checkpointer {
    /// The driver of a run under `spec`, resumed from `resumed`.
    pub(crate) fn new(spec: Option<CheckpointSpec>, resumed: Option<&Snapshot>) -> Checkpointer {
        let synced = resumed.map_or([0, 0], |snap| {
            let m = &snap.manifest;
            [m.arena_segments.len(), m.edge_segments.len()]
        });
        Checkpointer {
            spec,
            seq: 0,
            since: 0,
            synced,
        }
    }

    /// Whether the run has a checkpoint spec, and no write failed.
    pub(crate) fn armed(&self) -> bool {
        self.spec.is_some()
    }

    /// Records `n` more state expansions; true when a periodic
    /// snapshot is due (the counter resets on the next write).
    pub(crate) fn due(&mut self, n: u64) -> bool {
        match &self.spec {
            Some(spec) => {
                self.since += n;
                self.since >= spec.cadence
            }
            None => false,
        }
    }

    /// Stamps `snap` with the next sequence number, syncs the segments
    /// it references that were sealed since the last write, writes it
    /// to the configured path and emits [`Event::Checkpoint`]. Returns
    /// the resume token, or `None` if checkpointing is off (`snap` is
    /// left as it was) or fails now — which is reported and ends it.
    pub(crate) fn write(
        &mut self,
        snap: &mut Snapshot,
        recorder: &RecorderHandle,
    ) -> Option<ResumeToken> {
        let path = self.spec.as_ref()?.path.clone();
        self.seq += 1;
        self.since = 0;
        snap.seq = self.seq;
        let m = &snap.manifest;
        let sealed = [&m.arena_segments, &m.edge_segments];
        let fresh = sealed.iter().zip(self.synced);
        let fresh =
            fresh.flat_map(|(s, done)| s.iter().skip(done).map(|seg| m.dir.join(&seg.name)));
        // The new segments, then the directory their names are in.
        let mut fresh = fresh.peekable();
        let dir = fresh.peek().is_some().then(|| m.dir.clone());
        let synced = fresh.chain(dir).try_for_each(|path| sync(&path));
        if let Err(e) = synced.and_then(|()| snap.save(&path)) {
            eprintln!("opentla-check: checkpointing disabled: {e}");
            self.spec = None;
            return None;
        }
        self.synced = sealed.map(Vec::len);
        if recorder.enabled() {
            recorder.record(&Event::Checkpoint {
                seq: self.seq,
                states: snap.states_used() as u64,
                transitions: snap.transitions_used() as u64,
                frontier: snap.frontier_len() as u64,
            });
        }
        Some(ResumeToken {
            path,
            seq: self.seq,
        })
    }
}

/// Flushes the file at `path` to disk, or the directory, so a rename in
/// it lasts, where the platform syncs one.
fn sync(path: &Path) -> Result<(), CheckpointError> {
    let file = match path.is_dir() {
        true if cfg!(unix) => std::fs::File::open(path),
        true => return Ok(()),
        false => std::fs::OpenOptions::new().write(true).open(path),
    };
    file.and_then(|f| f.sync_all()).map_err(|e| io_err(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use opentla_kernel::{State, Value, Vars};

    /// Three states: 0 initial and expanded, 1 and 2 reached from it.
    fn sample_graph() -> StateGraph {
        let layout = PackedLayout::compile(sample_system().vars()).expect("two small slots");
        let mut graph = StateGraph::with_capacity(Arc::new(layout), 3);
        for (x, y, initial) in [(0, false, true), (1, false, false), (1, true, false)] {
            let state = State::new(vec![Value::Int(x), Value::Bool(y)]);
            let row = graph.layout().pack(&state).expect("in-domain");
            graph.push_state(&row, initial);
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
    /// actions its edges name, to resume under. `x` has a third
    /// value: its two bits have room for a code outside the domain.
    fn sample_system() -> System {
        let mut vars = Vars::new();
        vars.declare("x", Domain::int_range(0, 2));
        vars.declare("y", Domain::booleans());
        let action =
            |name| crate::GuardedAction::new(name, opentla_kernel::Expr::bool(true), vec![]);
        System::new(vars, crate::Init::new([]), vec![action("a0"), action("a1")])
    }

    /// [`sample_graph`] as its run's store records it with the frontier
    /// `1..`, nothing sealed: every state's arena record and the edge
    /// record of state 0, inline.
    fn sample() -> Snapshot {
        let graph = sample_graph();
        let arena: Vec<Vec<u8>> = (0..3).map(|id| arena_record(id, parent(id))).collect();
        let mut edges = Vec::new();
        encode_edge_record(0, graph.edges(0), &mut edges);
        let manifest = Manifest {
            layout: Arc::clone(graph.layout()),
            dir: PathBuf::new(),
            states: 3,
            transitions: 2,
            init: vec![0],
            arena_segments: Vec::new(),
            arena_hot: arena.iter().map(Vec::as_slice).collect(),
            edge_segments: Vec::new(),
            edge_hot: [&edges[..]].into_iter().collect(),
        };
        Snapshot {
            seq: 7,
            ..Snapshot::of(
                &ExploreOptions::default(),
                0xdead_beef_cafe_f00d,
                manifest,
                1..3,
            )
        }
    }

    /// The BFS parent of `sample_graph`'s state `id`.
    fn parent(id: usize) -> Option<(usize, usize)> {
        sample_graph().discoveries(3, None).parent(id)
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
            manifest: Manifest {
                layout: Arc::clone(sample_graph().layout()),
                dir: PathBuf::new(),
                states: arena.len() as u64,
                transitions: 0,
                init: vec![0],
                arena_segments: Vec::new(),
                arena_hot: arena.iter().map(Vec::as_slice).collect(),
                edge_segments: Vec::new(),
                edge_hot: Records::default(),
            },
            frontier,
            ..sample()
        }
    }

    /// The same run as the sequential disk-backed store captures it
    /// once state 0 has been sealed into `arena-00000.seg`: that
    /// segment by reference, the rest inline.
    fn manifest_sample() -> Snapshot {
        let graph = sample_graph();
        let arena: Vec<Vec<u8>> = (0..3).map(|id| arena_record(id, parent(id))).collect();
        let mut sealed = (arena[0].len() as u32).to_le_bytes().to_vec();
        sealed.extend_from_slice(&arena[0]);
        let mut edges = Vec::new();
        encode_edge_record(0, graph.edges(0), &mut edges);
        Snapshot {
            manifest: Manifest {
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
            },
            ..sample()
        }
    }

    /// A snapshot saved and loaded back re-opens as the graph it
    /// describes. A frontier state has no edge record — the store
    /// writes one only once a state's expansion completes — so state 1
    /// re-expands on resume.
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
        assert_eq!(back.manifest.edge_hot.len(), 1, "state 0's record only");
        let back = reopened(&back, &sample_system()).unwrap();
        assert!(back.edges(1).is_empty());
        assert_eq!(back.first_difference(&sample_graph()), None);
        // No temp file left behind.
        assert!(!dir.join("round_trip.snap.tmp").exists());
        std::fs::remove_file(&path).unwrap();
    }

    /// A write syncs each segment the snapshot references that was
    /// sealed since the last one — here a file that is not there, so the
    /// sync fails and checkpointing stops — and no segment synced
    /// before: the same snapshot, written by a driver resumed from it,
    /// goes through.
    #[test]
    fn a_checkpoint_syncs_the_segments_sealed_since_the_last() {
        let dir = std::env::temp_dir().join("opentla_ckpt_sync");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sync.snap");
        let mut snap = manifest_sample();
        snap.manifest.dir = dir.join("no_such.segs");
        let spec = CheckpointSpec {
            path: path.clone(),
            cadence: 1,
        };
        let recorder = RecorderHandle::default();
        let mut fresh = Checkpointer::new(Some(spec.clone()), None);
        assert_eq!(fresh.write(&mut snap.clone(), &recorder), None);
        assert!(!path.exists(), "the snapshot waits for its segments");
        let mut resumed = Checkpointer::new(Some(spec), Some(&snap));
        let token = resumed
            .write(&mut snap, &recorder)
            .expect("nothing new to sync");
        assert_eq!((token.path, token.seq), (path.clone(), 1));
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
        let mut version = pristine.clone();
        let end = version.len() - 8;
        version[MAGIC.len()..][..4].copy_from_slice(&99u32.to_le_bytes());
        let checksum = fnv1a(&version[MAGIC.len()..end]);
        version[end..].copy_from_slice(&checksum.to_le_bytes());
        std::fs::write(&path, &version).unwrap();
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

    /// What resuming `snap` under `system` re-opens: the run's graph,
    /// its budget cancelled so it stops before expanding anything, or
    /// the checkpoint error the re-open refused it with. The snapshot
    /// is stamped with `system`'s hash, which the samples do not carry.
    fn reopened(snap: &Snapshot, system: &System) -> Result<StateGraph, CheckpointError> {
        let snap = Snapshot {
            system_hash: system_hash(system),
            ..snap.clone()
        };
        let budget = crate::Budget::default();
        budget.request_cancel();
        match crate::resume_exploration(system, &budget, &ExploreOptions::default(), &snap) {
            Ok(run) => Ok(run.graph),
            Err(CheckError::Checkpoint(e)) => Err(e),
            Err(e) => panic!("a resume fails with a checkpoint error, not {e}"),
        }
    }

    /// Saves `snap`, loads it back and re-opens it: what a resume does
    /// with a file.
    fn through_a_file(
        tag: &str,
        snap: &Snapshot,
    ) -> Result<(Snapshot, StateGraph), CheckpointError> {
        let dir = std::env::temp_dir().join(format!("opentla_ckpt_{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("through.snap");
        snap.save(&path).unwrap();
        let loaded = Snapshot::load(&path);
        std::fs::remove_file(&path).unwrap();
        let loaded = loaded?;
        let graph = reopened(&loaded, &sample_system())?;
        Ok((loaded, graph))
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
        let arena: Vec<Vec<u8>> = (0..3).map(|id| arena_record(id, parent(id))).collect();
        for frontier in [vec![2, 2], vec![2, 1], vec![0, 2], vec![1]] {
            let snap = over_arena_records(&arena, frontier.clone());
            let detail = corrupt_detail(through_a_file("frontier", &snap));
            assert!(detail.contains("frontier id"), "{frontier:?}: {detail}");
        }
        // Accepted, over the edge records of the states below the
        // frontier: states 1 and 2 name state 0 as the parent whose edges
        // reached them.
        let fan = sample_graph().edges(0).to_vec();
        let rows: [(usize, &[Edge]); 3] = [(0, &fan), (1, &[]), (2, &[])];
        for frontier in [vec![], vec![2], vec![1, 2], vec![0, 1, 2]] {
            let expanded = frontier.first().map_or(3, |&first| first);
            let snap = Snapshot {
                frontier: frontier.clone(),
                ..over_edge_records(&rows[..expanded])
            };
            assert_eq!(
                through_a_file("frontier", &snap).unwrap().0.frontier,
                frontier
            );
        }
    }

    /// [`over_arena_records`] of every state of [`sample_graph`], all
    /// expanded, with these inline edge records.
    fn over_edge_records(edges: &[(usize, &[Edge])]) -> Snapshot {
        let arena: Vec<Vec<u8>> = (0..3).map(|id| arena_record(id, parent(id))).collect();
        let mut snap = over_arena_records(&arena, vec![]);
        let m = &mut snap.manifest;
        let mut record = Vec::new();
        for &(id, successors) in edges {
            encode_edge_record(id, successors, &mut record);
            m.edge_hot.push(&record);
            m.transitions += successors.len() as u64;
        }
        snap
    }

    /// What [`replay`] alone makes of `snap` under [`sample_system`]'s
    /// two actions: the pass a resume re-opens a store with, before it
    /// expands anything.
    fn replayed(snap: &Snapshot) -> Result<usize, CheckpointError> {
        replay(snap, &snap.manifest.layout, 2, |_, _| Ok(()))
    }

    /// The graph keeps no parents: a trace is read off the edges, the
    /// first edge into a state being its parent. So a record naming an
    /// earlier state as its parent, but not the edge that first reaches
    /// it, is refused once the edges are read, as is one no edge reaches
    /// whose parent was expanded — by the resume's pass over the
    /// records, before the run explores a state, and not only by the
    /// finished run's check (deleting `first_edge` or `unreached` from
    /// `replay` leaves the first or the last case replayed).
    #[test]
    fn an_arena_record_naming_a_parent_other_than_its_first_edge_is_corrupt() {
        let fan = sample_graph().edges(0).to_vec();
        for (named, says) in [
            (Some((0, 0)), "state 2 names state 0 by action 0"),
            (Some((1, 1)), "state 2 names state 1 by action 1"),
        ] {
            let mut snap = over_edge_records(&[(0, &fan), (1, &[]), (2, &[])]);
            let arena = [
                arena_record(0, None),
                arena_record(1, parent(1)),
                arena_record(2, named),
            ];
            snap.manifest.arena_hot = arena.iter().map(Vec::as_slice).collect();
            for detail in [
                corrupt_detail(replayed(&snap)),
                corrupt_detail(through_a_file("first_edge", &snap)),
            ] {
                assert!(
                    detail.contains(says)
                        && detail.contains("first reached from state 0 by action 1"),
                    "{detail}"
                );
            }
        }
        // State 1 reached by no edge, though its parent 0 is expanded.
        let snap = over_edge_records(&[(0, &fan[1..]), (1, &[]), (2, &[])]);
        for detail in [
            corrupt_detail(replayed(&snap)),
            corrupt_detail(through_a_file("first_edge", &snap)),
        ] {
            assert!(
                detail.contains("state 1 names state 0 as its BFS parent, but no edge reaches it"),
                "{detail}"
            );
        }
    }

    /// States the first unexpanded state discovered before a cut, which
    /// no edge reaches until it is expanded again, keep their recorded
    /// edges as strays: their traces read as the complete graph's.
    #[test]
    fn states_only_the_frontier_head_reached_keep_their_traces() {
        let arena: Vec<Vec<u8>> = (0..3).map(|id| arena_record(id, parent(id))).collect();
        let (_, back) =
            through_a_file("strays", &over_arena_records(&arena, vec![0, 1, 2])).unwrap();
        assert!(back.edges(0).is_empty());
        let graph = sample_graph();
        for id in 0..3 {
            assert_eq!(back.trace_to(id), graph.trace_to(id), "trace to {id}");
        }
        assert_eq!(graph.trace_to(2), [(None, 0), (Some(1), 2)]);
    }

    /// Every writer emits edge records in ascending id order, once per
    /// expanded state (an empty one for a state with no successor), and
    /// the graph's rows are filled that way: a file that reorders or
    /// repeats one is refused, not read into a wrong graph, and so is
    /// one that skips an expanded state, whose edges the graph would
    /// silently lose — by the resume's pass over the records, before
    /// the run explores a state (the gap cases are replayed if
    /// `next_row` accepts an id past the next row, or `replay` drops its
    /// check that the records reach the frontier).
    #[test]
    fn edge_records_out_of_id_order_are_corrupt() {
        let graph = sample_graph();
        let (fan, none): (&[Edge], &[Edge]) = (graph.edges(0), &[]);
        for edges in [
            vec![(0, fan), (0, none)],
            vec![(0, fan), (1, none), (1, none)],
        ] {
            let detail = corrupt_detail(through_a_file("edge_order", &over_edge_records(&edges)));
            assert!(detail.contains("ascending id order"), "{edges:?}: {detail}");
        }
        for (edges, says) in [
            (
                vec![(0, fan), (2, none)],
                "state 1 is expanded but has no edge record",
            ),
            (
                vec![(1, none), (0, fan)],
                "state 0 is expanded but has no edge record",
            ),
            (
                vec![(0, fan), (2, none), (1, none)],
                "state 1 is expanded but has no edge record",
            ),
            (vec![(0, fan), (1, none)], "edge records end at state 2"),
        ] {
            let snap = over_edge_records(&edges);
            for detail in [
                corrupt_detail(replayed(&snap)),
                corrupt_detail(through_a_file("edge_order", &snap)),
            ] {
                assert!(detail.contains(says), "{edges:?}: {detail}");
            }
        }
        let (_, back) = through_a_file(
            "edge_order",
            &over_edge_records(&[(0, fan), (1, none), (2, none)]),
        )
        .unwrap();
        assert_eq!(back.first_difference(&graph), None);
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
        // The code below it is the domain's last value, under its
        // row's fingerprint.
        let fp = sample_graph().layout().fingerprint(&[0b010]);
        begin_arena_record(1, None, fp, &mut record);
        record.push(0b010);
        let (_, back) =
            through_a_file("bad_code", &over_arena_records(&[record], vec![0])).unwrap();
        assert_eq!(
            back.materialize(0).values(),
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

    /// An edge at the top of the id range — action and target one short
    /// of `u32::MAX`, the largest word `id_word` admits — comes back from
    /// its record exactly: the record's words are the edge's, and
    /// neither field is narrowed on the way.
    #[test]
    fn an_edge_at_the_id_limit_round_trips_exactly() {
        let top = u32::MAX - 1;
        let edges = [
            Edge {
                action: top,
                target: top,
            },
            Edge {
                action: 0,
                target: top,
            },
            Edge {
                action: top,
                target: 0,
            },
        ];
        let mut record = Vec::new();
        encode_edge_record(top as usize, &edges, &mut record);
        let mut back = Vec::new();
        let id = decode_edge_record(&record, u32::MAX as usize, &mut back).unwrap();
        assert_eq!((id, &back[..]), (top as usize, &edges[..]));
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

    /// A snapshot names its layout's domains, and its records are
    /// re-opened as they are: resumed under a system with other domains
    /// — here `x ∈ -1..=2`, where each of the sample's codes numbers
    /// another value, and `x ∈ 0..=0`, which lacks a value the sample
    /// holds — it is refused before a record is read, whether it was
    /// read from a file or is held in RAM.
    #[test]
    fn a_snapshot_under_other_domains_is_refused() {
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
            for system in [over(-1, 2), over(0, 0)] {
                match reopened(&snap, &system) {
                    Err(CheckpointError::Mismatch {
                        field,
                        snapshot,
                        requested,
                    }) => {
                        assert_eq!(field, "variable domains");
                        assert!(snapshot.starts_with("x ∈ "), "{snapshot}");
                        assert!(requested.starts_with("x ∈ "), "{requested}");
                        assert_ne!(snapshot, requested);
                    }
                    other => panic!("other domains must be a Mismatch, got {other:?}"),
                }
            }
            assert_eq!(
                reopened(&snap, &sample_system())
                    .unwrap()
                    .first_difference(&sample_graph()),
                None
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
        let m = &mut snap.manifest;
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
    /// same run with nothing sealed — saves, as this build first wrote
    /// them in the version-4 format.
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
