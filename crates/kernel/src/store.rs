//! Disk-backed storage for out-of-core exploration: append-only
//! segment files plus sorted fingerprint runs.
//!
//! The in-RAM engines cap the largest checkable system at available
//! memory; TLC-lineage checkers break that cap with disk-based state
//! and fingerprint storage. This module provides the two on-disk
//! primitives the bounded-memory engine builds on:
//!
//! * [`SegmentStore`] — an append-only record log split into sealed
//!   **segment files** (length-prefixed records, FNV-1a-checksummed
//!   headers, written atomically via tmp+rename like the checkpoint
//!   snapshots) fronted by an in-RAM LRU `SegmentCache` with a
//!   configurable byte budget;
//! * [`FingerprintRun`] — an immutable sorted `(fingerprint, id)` run
//!   with a sparse in-RAM index, answering point lookups with one
//!   positional read of a small block.
//!
//! Both follow the [`codec`](crate::codec) conventions: little-endian,
//! length-prefixed, and decoding arbitrary bytes never panics — every
//! failure surfaces as a typed [`StoreError`].

use std::collections::{HashMap, VecDeque};
use std::fs;
use std::path::{Path, PathBuf};

/// Magic bytes opening every segment file.
const SEGMENT_MAGIC: [u8; 8] = *b"OTLASEG\0";
/// Magic bytes opening every fingerprint-run file.
const RUN_MAGIC: [u8; 8] = *b"OTLARUN\0";
/// Current segment/run format version.
const STORE_VERSION: u32 = 1;
/// Byte length of a segment-file header (magic + version + first +
/// records + payload_len + payload checksum + header checksum).
const SEGMENT_HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8 + 8 + 8;
/// Byte length of a run-file header (magic + version + count +
/// checksum).
const RUN_HEADER_LEN: usize = 8 + 4 + 8 + 8;
/// Entries per sparse-index block in a fingerprint run.
const RUN_BLOCK: usize = 256;
/// Bytes per fingerprint-run entry (fp u64 + id u64).
const RUN_ENTRY: usize = 16;

/// FNV-1a over a byte slice — the same convention the checkpoint
/// snapshots use, so every on-disk artifact shares one checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Why a store operation failed. Mirrors the checkpoint error shape:
/// corrupt or truncated on-disk data yields a typed error, never a
/// panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The OS error message.
        message: String,
    },
    /// The file does not start with the expected magic bytes.
    BadMagic {
        /// The offending file.
        path: PathBuf,
    },
    /// The file claims a format version this build cannot read.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// A header or payload checksum did not match its contents.
    ChecksumMismatch {
        /// The offending file.
        path: PathBuf,
    },
    /// The file is structurally invalid (truncated payload, record
    /// overrun, miscounted records, …).
    Corrupt {
        /// Human-readable detail.
        detail: String,
    },
    /// A reopened segment disagrees with the metadata recorded when it
    /// was sealed (wrong first record, record count, or checksum).
    MetaMismatch {
        /// Which recorded field disagreed.
        field: &'static str,
        /// The value recorded at seal time.
        expected: u64,
        /// The value found on reopen.
        found: u64,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, message } => {
                write!(f, "store I/O error on {}: {message}", path.display())
            }
            StoreError::BadMagic { path } => {
                write!(f, "{} is not a store file (bad magic)", path.display())
            }
            StoreError::UnsupportedVersion { found } => {
                write!(f, "unsupported store format version {found}")
            }
            StoreError::ChecksumMismatch { path } => {
                write!(f, "checksum mismatch in {} (corrupt file)", path.display())
            }
            StoreError::Corrupt { detail } => write!(f, "corrupt store file: {detail}"),
            StoreError::MetaMismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "segment metadata mismatch: {field} recorded as {expected}, found {found}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

/// Description of one sealed segment file, recorded at seal time and
/// re-verified on every reopen. This is what a checkpoint snapshot
/// persists *instead of* the segment's records — referencing sealed
/// files keeps snapshot cost proportional to the hot tier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentMeta {
    /// File name within the store directory.
    pub name: String,
    /// Global index of the segment's first record.
    pub first: u64,
    /// Number of records in the segment.
    pub records: u64,
    /// Payload length in bytes (length prefixes included).
    pub payload_len: u64,
    /// FNV-1a checksum of the payload bytes.
    pub payload_checksum: u64,
}

impl SegmentMeta {
    /// Total on-disk size of the sealed segment file (header included).
    pub fn file_len(&self) -> u64 {
        SEGMENT_HEADER_LEN as u64 + self.payload_len
    }
}

/// One sealed segment resident in the cache: its payload plus the
/// precomputed (offset, len) of every record.
struct LoadedSegment {
    payload: Vec<u8>,
    offsets: Vec<(usize, usize)>,
}

impl LoadedSegment {
    fn record(&self, i: usize) -> &[u8] {
        let (off, len) = self.offsets[i];
        &self.payload[off..off + len]
    }

    fn resident_bytes(&self) -> usize {
        self.payload.len() + self.offsets.len() * std::mem::size_of::<(usize, usize)>()
    }
}

/// Hit/miss/eviction counters for the segment cache, surfaced through
/// the `cache_stats` observability event.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads answered by a resident segment.
    pub hits: u64,
    /// Reads that had to load a segment from disk.
    pub misses: u64,
    /// Segments evicted to stay under the byte budget.
    pub evictions: u64,
    /// Bytes currently resident in the cache.
    pub resident_bytes: u64,
}

/// An append-only record log that spills to disk in sealed segment
/// files once the in-RAM tail exceeds `target_bytes`, reading sealed
/// records back through an LRU cache bounded by `cache_budget` bytes.
///
/// Records are opaque byte strings addressed by their global append
/// index. Sealed files are immutable; the unsealed tail lives in RAM
/// and is what a checkpoint embeds verbatim.
pub struct SegmentStore {
    dir: PathBuf,
    prefix: String,
    target_bytes: usize,
    cache_budget: usize,
    hot_payload: Vec<u8>,
    hot_offsets: Vec<(usize, usize)>,
    hot_first: u64,
    sealed: Vec<SegmentMeta>,
    cache: HashMap<usize, LoadedSegment>,
    lru: VecDeque<usize>,
    stats: CacheStats,
    spilled_bytes: u64,
}

impl SegmentStore {
    /// Opens a fresh store in `dir`, creating the directory and
    /// removing any stale `{prefix}-*.seg` files from an earlier run.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the directory cannot be created or
    /// scanned.
    pub fn create(
        dir: &Path,
        prefix: &str,
        target_bytes: usize,
        cache_budget: usize,
    ) -> Result<SegmentStore, StoreError> {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let stale_prefix = format!("{prefix}-");
        for entry in fs::read_dir(dir).map_err(|e| io_err(dir, e))? {
            let entry = entry.map_err(|e| io_err(dir, e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with(&stale_prefix) && name.ends_with(".seg") {
                let path = entry.path();
                fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
            }
        }
        Ok(SegmentStore {
            dir: dir.to_path_buf(),
            prefix: prefix.to_string(),
            // A zero target would seal one segment per record; clamp
            // to something that still exercises spilling in tests.
            target_bytes: target_bytes.max(64),
            cache_budget,
            hot_payload: Vec::new(),
            hot_offsets: Vec::new(),
            hot_first: 0,
            sealed: Vec::new(),
            cache: HashMap::new(),
            lru: VecDeque::new(),
            stats: CacheStats::default(),
            spilled_bytes: 0,
        })
    }

    /// Total records appended so far (sealed + hot).
    pub fn len(&self) -> u64 {
        self.hot_first + self.hot_offsets.len() as u64
    }

    /// Whether no record has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Metadata of every sealed segment, in order.
    pub fn sealed(&self) -> &[SegmentMeta] {
        &self.sealed
    }

    /// Global index of the first record still in the in-RAM tail.
    pub fn hot_first(&self) -> u64 {
        self.hot_first
    }

    /// The raw records of the unsealed in-RAM tail, in append order.
    pub fn hot_records(&self) -> impl Iterator<Item = &[u8]> {
        self.hot_offsets
            .iter()
            .map(|&(off, len)| &self.hot_payload[off..off + len])
    }

    /// Total bytes written to sealed segment files so far.
    pub fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes
    }

    /// Current cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        let mut stats = self.stats;
        stats.resident_bytes = self.cache.values().map(|s| s.resident_bytes() as u64).sum();
        stats
    }

    /// Appends one record, sealing the in-RAM tail into a segment file
    /// if it has reached the target size. Returns the metadata of the
    /// newly sealed segment when a seal happened.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if sealing fails to write the segment file.
    pub fn append(&mut self, record: &[u8]) -> Result<Option<SegmentMeta>, StoreError> {
        let off = self.hot_payload.len();
        self.hot_payload
            .extend_from_slice(&(record.len() as u32).to_le_bytes());
        self.hot_payload.extend_from_slice(record);
        self.hot_offsets.push((off + 4, record.len()));
        if self.hot_payload.len() >= self.target_bytes {
            self.seal()
        } else {
            Ok(None)
        }
    }

    /// Seals the in-RAM tail into an immutable segment file (no-op on
    /// an empty tail). The file is written to a temporary name and
    /// atomically renamed, so a crash never leaves a half-written
    /// segment behind.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on any filesystem failure.
    pub fn seal(&mut self) -> Result<Option<SegmentMeta>, StoreError> {
        if self.hot_offsets.is_empty() {
            return Ok(None);
        }
        let name = format!("{}-{:05}.seg", self.prefix, self.sealed.len());
        let meta = SegmentMeta {
            name: name.clone(),
            first: self.hot_first,
            records: self.hot_offsets.len() as u64,
            payload_len: self.hot_payload.len() as u64,
            payload_checksum: fnv1a(&self.hot_payload),
        };
        let mut bytes = Vec::with_capacity(SEGMENT_HEADER_LEN + self.hot_payload.len());
        bytes.extend_from_slice(&SEGMENT_MAGIC);
        bytes.extend_from_slice(&STORE_VERSION.to_le_bytes());
        bytes.extend_from_slice(&meta.first.to_le_bytes());
        bytes.extend_from_slice(&meta.records.to_le_bytes());
        bytes.extend_from_slice(&meta.payload_len.to_le_bytes());
        bytes.extend_from_slice(&meta.payload_checksum.to_le_bytes());
        let header_checksum = fnv1a(&bytes);
        bytes.extend_from_slice(&header_checksum.to_le_bytes());
        bytes.extend_from_slice(&self.hot_payload);
        let path = self.dir.join(&name);
        let tmp = self.dir.join(format!("{name}.tmp"));
        fs::write(&tmp, &bytes).map_err(|e| io_err(&tmp, e))?;
        fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
        self.spilled_bytes += bytes.len() as u64;
        self.hot_first += meta.records;
        self.hot_payload.clear();
        self.hot_offsets.clear();
        self.sealed.push(meta.clone());
        Ok(Some(meta))
    }

    /// Reads record `idx` into `out` (cleared first), pulling its
    /// segment through the cache if it is not resident.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] for an out-of-range index; any
    /// [`StoreError`] from reopening a sealed segment.
    pub fn read(&mut self, idx: u64, out: &mut Vec<u8>) -> Result<(), StoreError> {
        out.clear();
        if idx >= self.len() {
            return Err(StoreError::Corrupt {
                detail: format!("record {idx} out of range (store holds {})", self.len()),
            });
        }
        if idx >= self.hot_first {
            let (off, len) = self.hot_offsets[(idx - self.hot_first) as usize];
            out.extend_from_slice(&self.hot_payload[off..off + len]);
            return Ok(());
        }
        // Sealed segments partition [0, hot_first) by `first`; find
        // the one containing idx.
        let seg = match self.sealed.binary_search_by(|m| m.first.cmp(&idx)) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let within = (idx - self.sealed[seg].first) as usize;
        let loaded = self.load(seg)?;
        out.extend_from_slice(loaded.record(within));
        self.touch(seg);
        Ok(())
    }

    /// Ensures segment `seg` is resident, loading and verifying it
    /// from disk on a miss.
    fn load(&mut self, seg: usize) -> Result<&LoadedSegment, StoreError> {
        if self.cache.contains_key(&seg) {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            let meta = &self.sealed[seg];
            let path = self.dir.join(&meta.name);
            let loaded = open_segment_file(&path, Some(meta))?;
            self.cache.insert(seg, loaded);
            self.lru.push_back(seg);
            self.evict();
        }
        Ok(&self.cache[&seg])
    }

    /// Moves `seg` to the most-recently-used position.
    fn touch(&mut self, seg: usize) {
        if self.lru.back() != Some(&seg) {
            if let Some(pos) = self.lru.iter().position(|&s| s == seg) {
                self.lru.remove(pos);
                self.lru.push_back(seg);
            }
        }
    }

    /// Evicts least-recently-used segments until the cache fits its
    /// byte budget, always keeping at least one resident so a read
    /// loop over a single segment cannot thrash.
    fn evict(&mut self) {
        let mut resident: usize = self.cache.values().map(LoadedSegment::resident_bytes).sum();
        while resident > self.cache_budget && self.cache.len() > 1 {
            let Some(victim) = self.lru.pop_front() else {
                break;
            };
            if let Some(gone) = self.cache.remove(&victim) {
                resident -= gone.resident_bytes();
                self.stats.evictions += 1;
            }
        }
    }
}

/// Reads and fully verifies one segment file: magic, version, header
/// checksum, payload length, payload checksum, and record framing.
/// When `meta` is given (reopening a segment this process sealed, or
/// one referenced by a checkpoint manifest), the header must agree
/// with it field-for-field.
fn open_segment_file(path: &Path, meta: Option<&SegmentMeta>) -> Result<LoadedSegment, StoreError> {
    let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
    if bytes.len() < SEGMENT_HEADER_LEN {
        return Err(StoreError::Corrupt {
            detail: format!("{} shorter than a segment header", path.display()),
        });
    }
    if bytes[..8] != SEGMENT_MAGIC {
        return Err(StoreError::BadMagic {
            path: path.to_path_buf(),
        });
    }
    let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4 bytes"));
    let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("8 bytes"));
    let version = u32_at(8);
    if version != STORE_VERSION {
        return Err(StoreError::UnsupportedVersion { found: version });
    }
    let first = u64_at(12);
    let records = u64_at(20);
    let payload_len = u64_at(28);
    let payload_checksum = u64_at(36);
    let header_checksum = u64_at(44);
    if fnv1a(&bytes[..44]) != header_checksum {
        return Err(StoreError::ChecksumMismatch {
            path: path.to_path_buf(),
        });
    }
    let payload = &bytes[SEGMENT_HEADER_LEN..];
    if payload.len() as u64 != payload_len {
        return Err(StoreError::Corrupt {
            detail: format!(
                "{}: payload is {} byte(s), header claims {payload_len}",
                path.display(),
                payload.len()
            ),
        });
    }
    if fnv1a(payload) != payload_checksum {
        return Err(StoreError::ChecksumMismatch {
            path: path.to_path_buf(),
        });
    }
    if let Some(meta) = meta {
        if meta.first != first {
            return Err(StoreError::MetaMismatch {
                field: "first record",
                expected: meta.first,
                found: first,
            });
        }
        if meta.records != records {
            return Err(StoreError::MetaMismatch {
                field: "record count",
                expected: meta.records,
                found: records,
            });
        }
        if meta.payload_checksum != payload_checksum {
            return Err(StoreError::MetaMismatch {
                field: "payload checksum",
                expected: meta.payload_checksum,
                found: payload_checksum,
            });
        }
    }
    // Walk the length-prefixed records, bounds-checking every frame.
    let mut offsets = Vec::new();
    let mut pos = 0usize;
    while pos < payload.len() {
        if pos + 4 > payload.len() {
            return Err(StoreError::Corrupt {
                detail: format!("{}: truncated record length prefix", path.display()),
            });
        }
        let len = u32::from_le_bytes(payload[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        if pos + 4 + len > payload.len() {
            return Err(StoreError::Corrupt {
                detail: format!(
                    "{}: record of {len} byte(s) overruns the payload",
                    path.display()
                ),
            });
        }
        offsets.push((pos + 4, len));
        pos += 4 + len;
    }
    if offsets.len() as u64 != records {
        return Err(StoreError::Corrupt {
            detail: format!(
                "{}: header claims {records} record(s), payload holds {}",
                path.display(),
                offsets.len()
            ),
        });
    }
    Ok(LoadedSegment {
        payload: payload.to_vec(),
        offsets,
    })
}

/// Opens and fully verifies a segment file, returning its records.
/// This is the external (test and checkpoint-materialization) entry
/// point; the store itself reads through its cache.
///
/// # Errors
///
/// Any [`StoreError`] describing why the file is unreadable or does
/// not match `meta`.
pub fn read_segment(path: &Path, meta: Option<&SegmentMeta>) -> Result<Vec<Vec<u8>>, StoreError> {
    let mut records = Vec::new();
    for_each_segment_record(path, meta, |rec| {
        records.push(rec.to_vec());
        Ok::<_, StoreError>(())
    })?;
    Ok(records)
}

/// Opens and fully verifies a segment file as [`read_segment`] does,
/// then hands `take` each record in order as a slice of the verified
/// payload, stopping at its first error: no record is copied.
///
/// # Errors
///
/// Any [`StoreError`] describing why the file is unreadable or does
/// not match `meta` — before any record is handed out — and the first
/// error of `take`.
pub fn for_each_segment_record<E: From<StoreError>>(
    path: &Path,
    meta: Option<&SegmentMeta>,
    mut take: impl FnMut(&[u8]) -> Result<(), E>,
) -> Result<(), E> {
    let loaded = open_segment_file(path, meta)?;
    (0..loaded.offsets.len()).try_for_each(|i| take(loaded.record(i)))
}

/// Fills `buf` from `file` at `offset`: one positional read where the
/// platform has it, which leaves the file's cursor alone.
fn read_exact_at(file: &mut fs::File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Read, Seek, SeekFrom};
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(buf)
    }
}

/// An immutable sorted `(fingerprint, id)` run on disk, with a sparse
/// in-RAM index (one entry per block of 256 pairs). The bounded
/// visited set spills its hot table into runs and answers membership
/// probes with one block read per run.
pub struct FingerprintRun {
    path: PathBuf,
    file: fs::File,
    count: u64,
    /// `(first fingerprint of block, entry index of block start)`.
    index: Vec<(u64, u64)>,
    min: u64,
    max: u64,
    /// One block, read by every lookup.
    block: Vec<u8>,
}

impl FingerprintRun {
    /// Writes `entries` (must be sorted by fingerprint) as a run file
    /// and reopens it for lookups. Written atomically via tmp+rename.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on any filesystem failure;
    /// [`StoreError::Corrupt`] if `entries` is empty or unsorted.
    pub fn write(path: &Path, entries: &[(u64, u64)]) -> Result<FingerprintRun, StoreError> {
        if entries.is_empty() {
            return Err(StoreError::Corrupt {
                detail: "refusing to write an empty fingerprint run".to_string(),
            });
        }
        if entries.windows(2).any(|w| w[0].0 > w[1].0) {
            return Err(StoreError::Corrupt {
                detail: "fingerprint run entries are not sorted".to_string(),
            });
        }
        let mut body = Vec::with_capacity(entries.len() * RUN_ENTRY);
        for &(fp, id) in entries {
            body.extend_from_slice(&fp.to_le_bytes());
            body.extend_from_slice(&id.to_le_bytes());
        }
        let mut bytes = Vec::with_capacity(RUN_HEADER_LEN + body.len());
        bytes.extend_from_slice(&RUN_MAGIC);
        bytes.extend_from_slice(&STORE_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fnv1a(&body).to_le_bytes());
        bytes.extend_from_slice(&body);
        let tmp = path.with_extension("run.tmp");
        fs::write(&tmp, &bytes).map_err(|e| io_err(&tmp, e))?;
        fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
        let file = fs::File::open(path).map_err(|e| io_err(path, e))?;
        let index = entries
            .iter()
            .step_by(RUN_BLOCK)
            .enumerate()
            .map(|(i, &(fp, _))| (fp, (i * RUN_BLOCK) as u64))
            .collect();
        Ok(FingerprintRun {
            path: path.to_path_buf(),
            file,
            count: entries.len() as u64,
            index,
            min: entries[0].0,
            max: entries[entries.len() - 1].0,
            block: vec![0; RUN_BLOCK * RUN_ENTRY],
        })
    }

    /// Reopens and fully verifies a run file (magic, version, count,
    /// checksum), rebuilding the sparse index.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] describing why the file is unreadable.
    pub fn open(path: &Path) -> Result<FingerprintRun, StoreError> {
        let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
        if bytes.len() < RUN_HEADER_LEN {
            return Err(StoreError::Corrupt {
                detail: format!("{} shorter than a run header", path.display()),
            });
        }
        if bytes[..8] != RUN_MAGIC {
            return Err(StoreError::BadMagic {
                path: path.to_path_buf(),
            });
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != STORE_VERSION {
            return Err(StoreError::UnsupportedVersion { found: version });
        }
        let count = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        let checksum = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
        let body = &bytes[RUN_HEADER_LEN..];
        // The count is outside the checksum: a wrapped product could
        // match a short body and send the scan below past its end.
        if count.checked_mul(RUN_ENTRY as u64) != Some(body.len() as u64) {
            return Err(StoreError::Corrupt {
                detail: format!(
                    "{}: header claims {count} entries, body holds {} byte(s)",
                    path.display(),
                    body.len()
                ),
            });
        }
        if count == 0 {
            return Err(StoreError::Corrupt {
                detail: format!("{}: empty fingerprint run", path.display()),
            });
        }
        if fnv1a(body) != checksum {
            return Err(StoreError::ChecksumMismatch {
                path: path.to_path_buf(),
            });
        }
        let fp_at = |i: usize| {
            u64::from_le_bytes(
                body[i * RUN_ENTRY..i * RUN_ENTRY + 8]
                    .try_into()
                    .expect("8 bytes"),
            )
        };
        let mut index = Vec::new();
        let mut prev = 0u64;
        for i in 0..count as usize {
            let fp = fp_at(i);
            if i > 0 && fp < prev {
                return Err(StoreError::Corrupt {
                    detail: format!("{}: run entries are not sorted", path.display()),
                });
            }
            prev = fp;
            if i % RUN_BLOCK == 0 {
                index.push((fp, i as u64));
            }
        }
        let file = fs::File::open(path).map_err(|e| io_err(path, e))?;
        Ok(FingerprintRun {
            path: path.to_path_buf(),
            file,
            count,
            index,
            min: fp_at(0),
            max: fp_at(count as usize - 1),
            block: vec![0; RUN_BLOCK * RUN_ENTRY],
        })
    }

    /// Entries in this run.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Always false — empty runs are never written.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total file bytes, for spill accounting.
    pub fn bytes(&self) -> u64 {
        RUN_HEADER_LEN as u64 + self.count * RUN_ENTRY as u64
    }

    /// Appends to `out` the id of every entry whose fingerprint equals
    /// `fp`. One positional read of a block into the run's buffer in
    /// the common case; equal fingerprints spanning a block boundary
    /// read the next block too.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the underlying file read fails (the file
    /// was verified at write/open time, so content errors cannot occur
    /// here).
    pub fn lookup(&mut self, fp: u64, out: &mut Vec<u64>) -> Result<(), StoreError> {
        if fp < self.min || fp > self.max {
            return Ok(());
        }
        // Start at the last block whose first fingerprint is strictly
        // below fp (a run of equal fingerprints can begin mid-block
        // and continue into blocks whose first entry equals fp), then
        // scan forward until the sorted entries pass fp.
        let start = self.index.partition_point(|&(first, _)| first < fp);
        let mut entry = self.index[start.saturating_sub(1)].1;
        let buf = &mut self.block;
        while entry < self.count {
            let take = ((self.count - entry) as usize).min(RUN_BLOCK);
            let offset = RUN_HEADER_LEN as u64 + entry * RUN_ENTRY as u64;
            read_exact_at(&mut self.file, &mut buf[..take * RUN_ENTRY], offset)
                .map_err(|e| io_err(&self.path, e))?;
            for i in 0..take {
                let e_fp =
                    u64::from_le_bytes(buf[i * RUN_ENTRY..i * RUN_ENTRY + 8].try_into().unwrap());
                if e_fp == fp {
                    out.push(u64::from_le_bytes(
                        buf[i * RUN_ENTRY + 8..(i + 1) * RUN_ENTRY]
                            .try_into()
                            .unwrap(),
                    ));
                } else if e_fp > fp {
                    return Ok(());
                }
            }
            entry += take as u64;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("opentla-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn records_round_trip_across_seals() {
        let dir = tmp_dir("roundtrip");
        let mut store = SegmentStore::create(&dir, "arena", 64, 1 << 20).expect("create");
        let records: Vec<Vec<u8>> = (0..200u32)
            .map(|i| {
                i.to_le_bytes()
                    .iter()
                    .cycle()
                    .take(3 + (i as usize % 13))
                    .copied()
                    .collect()
            })
            .collect();
        for r in &records {
            store.append(r).expect("append");
        }
        assert!(
            store.sealed().len() >= 2,
            "tiny target must seal >1 segment"
        );
        assert_eq!(store.len(), records.len() as u64);
        let mut buf = Vec::new();
        // Read in a scattered order to exercise cache loads/evictions.
        for step in [7usize, 1, 13] {
            for i in (0..records.len()).step_by(step) {
                store.read(i as u64, &mut buf).expect("read");
                assert_eq!(buf, records[i], "record {i}");
            }
        }
        let stats = store.cache_stats();
        assert!(stats.hits + stats.misses > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sealed_files_reopen_and_verify() {
        let dir = tmp_dir("reopen");
        let mut store = SegmentStore::create(&dir, "arena", 64, 1 << 20).expect("create");
        for i in 0..100u64 {
            store.append(&i.to_le_bytes()).expect("append");
        }
        store.seal().expect("final seal");
        let mut all = Vec::new();
        for meta in store.sealed() {
            let recs = read_segment(&dir.join(&meta.name), Some(meta)).expect("reopen");
            assert_eq!(recs.len() as u64, meta.records);
            all.extend(recs);
        }
        assert_eq!(all.len(), 100);
        for (i, r) in all.iter().enumerate() {
            assert_eq!(r.as_slice(), (i as u64).to_le_bytes());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_segments_yield_typed_errors_not_panics() {
        let dir = tmp_dir("corrupt");
        let mut store = SegmentStore::create(&dir, "arena", 64, 1 << 20).expect("create");
        for i in 0..50u64 {
            store.append(&i.to_le_bytes()).expect("append");
        }
        store.seal().expect("seal");
        let meta = store.sealed()[0].clone();
        let path = dir.join(&meta.name);
        let good = fs::read(&path).expect("read sealed file");

        // Truncated file.
        fs::write(&path, &good[..good.len() / 2]).expect("truncate");
        assert!(matches!(
            read_segment(&path, Some(&meta)),
            Err(StoreError::Corrupt { .. }) | Err(StoreError::ChecksumMismatch { .. })
        ));

        // Flipped payload byte.
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xff;
        fs::write(&path, &flipped).expect("flip");
        assert!(matches!(
            read_segment(&path, Some(&meta)),
            Err(StoreError::ChecksumMismatch { .. })
        ));

        // Wrong magic.
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        fs::write(&path, &bad_magic).expect("magic");
        assert!(matches!(
            read_segment(&path, Some(&meta)),
            Err(StoreError::BadMagic { .. })
        ));

        // Header lying about the record count (checksummed header —
        // flip the count *and* recompute nothing: checksum catches it).
        let mut bad_count = good.clone();
        bad_count[20] ^= 1;
        fs::write(&path, &bad_count).expect("count");
        assert!(matches!(
            read_segment(&path, Some(&meta)),
            Err(StoreError::ChecksumMismatch { .. })
        ));

        // Meta disagreement: valid file, wrong expectation.
        fs::write(&path, &good).expect("restore");
        let mut wrong = meta.clone();
        wrong.first += 1;
        assert!(matches!(
            read_segment(&path, Some(&wrong)),
            Err(StoreError::MetaMismatch { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_runs_answer_membership() {
        let dir = tmp_dir("runs");
        // Sorted entries with duplicate fingerprints straddling a
        // block boundary.
        let mut entries: Vec<(u64, u64)> = (0..1000u64).map(|i| (i * 3, i)).collect();
        for dup in 0..4 {
            entries.push(((RUN_BLOCK as u64 - 1) * 3, 5000 + dup));
        }
        entries.sort();
        let path = dir.join("visited-0.run");
        let mut run = FingerprintRun::write(&path, &entries).expect("write");
        let mut out = Vec::new();
        run.lookup(3 * 17, &mut out).expect("lookup");
        assert_eq!(out, vec![17]);
        out.clear();
        run.lookup(1, &mut out).expect("lookup miss");
        assert!(out.is_empty());
        out.clear();
        run.lookup((RUN_BLOCK as u64 - 1) * 3, &mut out)
            .expect("dup lookup");
        assert_eq!(out.len(), 5, "one original + four duplicates");
        // Reopen path verifies checksum and answers identically.
        let mut reopened = FingerprintRun::open(&path).expect("reopen");
        out.clear();
        reopened.lookup(3 * 999, &mut out).expect("lookup");
        assert_eq!(out, vec![999]);
        // Corruption is typed.
        let mut bytes = fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).expect("corrupt");
        assert!(matches!(
            FingerprintRun::open(&path),
            Err(StoreError::ChecksumMismatch { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_count_overflowing_the_body_length_is_corrupt() {
        let dir = tmp_dir("run-count");
        let path = dir.join("visited-0.run");
        FingerprintRun::write(&path, &[(7, 0)]).expect("write");
        // 2⁶⁰ + 1 entries of 16 bytes wrap to the one-entry body's 16.
        let mut bytes = fs::read(&path).expect("read");
        bytes[12..20].copy_from_slice(&((1u64 << 60) + 1).to_le_bytes());
        fs::write(&path, &bytes).expect("re-stamp count");
        assert!(matches!(
            FingerprintRun::open(&path),
            Err(StoreError::Corrupt { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary record streams survive the write/seal/reopen/read
        /// cycle byte-for-byte at arbitrary (tiny) segment targets.
        #[test]
        fn prop_segment_round_trip(
            records in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..40), 1..120),
            target in 64usize..512,
            seed in 0u64..u64::MAX,
        ) {
            let dir = std::env::temp_dir().join(format!(
                "opentla-store-prop-{}-{seed}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            let mut store = SegmentStore::create(&dir, "p", target, 2048).unwrap();
            for r in &records {
                store.append(r).unwrap();
            }
            let mut buf = Vec::new();
            for (i, r) in records.iter().enumerate() {
                store.read(i as u64, &mut buf).unwrap();
                prop_assert_eq!(&buf, r);
            }
            // Sealed portion also reopens from disk identically.
            let mut reopened = Vec::new();
            for meta in store.sealed() {
                reopened.extend(read_segment(&store.dir().join(&meta.name), Some(meta)).unwrap());
            }
            for h in store.hot_records() {
                reopened.push(h.to_vec());
            }
            prop_assert_eq!(reopened, records);
            let _ = fs::remove_dir_all(&dir);
        }

        /// Model-based check of the LRU segment cache: replay every
        /// read against a reference model tracking the resident set,
        /// its LRU order, and the byte accounting. After each read the
        /// real counters must equal the model's exactly — any
        /// divergence in eviction order or victim choice shows up as a
        /// hit/miss/eviction mismatch on a later read — and the
        /// resident bytes must respect the budget except for the
        /// deliberate keep-one-segment floor.
        #[test]
        fn prop_lru_cache_matches_model(
            records in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..24), 30..120),
            target in 64usize..256,
            budget in 256usize..4096,
            reads in proptest::collection::vec(any::<u64>(), 1..300),
            seed in 0u64..u64::MAX,
        ) {
            let dir = std::env::temp_dir().join(format!(
                "opentla-store-lru-{}-{seed}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            let mut store = SegmentStore::create(&dir, "lru", target, budget).unwrap();
            for r in &records {
                store.append(r).unwrap();
            }
            // The model's segment table, from the sealed metadata the
            // store itself reports: resident cost mirrors
            // `LoadedSegment::resident_bytes` (payload incl. length
            // prefixes + one (usize, usize) offset pair per record).
            let segs: Vec<(u64, u64, usize)> = store.sealed().iter()
                .map(|m| (m.first, m.records,
                    m.payload_len as usize
                        + m.records as usize * std::mem::size_of::<(usize, usize)>()))
                .collect();
            let hot_first = store.hot_first();
            let mut lru: Vec<usize> = Vec::new(); // front = coldest
            let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
            let mut buf = Vec::new();
            for ix in &reads {
                let idx = ix % records.len() as u64;
                store.read(idx, &mut buf).unwrap();
                prop_assert_eq!(&buf, &records[idx as usize]);
                if idx < hot_first {
                    let seg = match segs.binary_search_by(|s| s.0.cmp(&idx)) {
                        Ok(i) => i,
                        Err(i) => i - 1,
                    };
                    if let Some(pos) = lru.iter().position(|&s| s == seg) {
                        hits += 1;
                        lru.remove(pos);
                        lru.push(seg);
                    } else {
                        misses += 1;
                        lru.push(seg);
                        let mut resident: usize =
                            lru.iter().map(|&s| segs[s].2).sum();
                        while resident > budget && lru.len() > 1 {
                            let victim = lru.remove(0);
                            resident -= segs[victim].2;
                            evictions += 1;
                        }
                    }
                }
                let stats = store.cache_stats();
                let resident: usize = lru.iter().map(|&s| segs[s].2).sum();
                prop_assert_eq!(stats.hits, hits);
                prop_assert_eq!(stats.misses, misses);
                prop_assert_eq!(stats.evictions, evictions);
                prop_assert_eq!(stats.resident_bytes, resident as u64);
                prop_assert!(
                    resident <= budget || lru.len() == 1,
                    "over budget ({resident} > {budget}) with {} resident segments",
                    lru.len()
                );
            }
            let _ = fs::remove_dir_all(&dir);
        }

        /// Sorted runs answer exactly the multiset of ids per
        /// fingerprint, and corrupting any byte yields a typed error.
        #[test]
        fn prop_run_lookup_and_corruption(
            mut entries in proptest::collection::vec((0u64..5000, any::<u64>()), 1..400),
            probe in 0u64..5000,
            flip in any::<u64>(),
        ) {
            entries.sort();
            let dir = std::env::temp_dir().join(format!(
                "opentla-run-prop-{}", std::process::id()));
            let _ = fs::create_dir_all(&dir);
            let path = dir.join("r.run");
            let mut run = FingerprintRun::write(&path, &entries).unwrap();
            let mut got = Vec::new();
            run.lookup(probe, &mut got).unwrap();
            got.sort_unstable();
            let mut want: Vec<u64> = entries.iter()
                .filter(|&&(fp, _)| fp == probe)
                .map(|&(_, id)| id)
                .collect();
            want.sort_unstable();
            prop_assert_eq!(got, want);
            let mut bytes = fs::read(&path).unwrap();
            let i = (flip % bytes.len() as u64) as usize;
            bytes[i] ^= 0xff;
            fs::write(&path, &bytes).unwrap();
            prop_assert!(FingerprintRun::open(&path).is_err());
            let _ = fs::remove_file(&path);
        }
    }
}
