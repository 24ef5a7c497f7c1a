//! The snapshot container: a versioned, self-validating binary file
//! holding the complete deterministic state of a simulation run.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic        [u8; 8]   = b"LUNSNAP\0"
//! version      u32       = FORMAT_VERSION
//! tick         u64         simulated tick the state was captured at
//! seed         u64         the run's master seed
//! digest       u64         FNV-1a over the canonical config string
//! n_sections   u64
//! per section:
//!   name       str         length-prefixed UTF-8
//!   crc32      u32         checksum of the payload bytes
//!   payload    bytes       length-prefixed opaque section body
//! ```
//!
//! The container knows nothing about what is *inside* a section — each
//! owning crate encodes its private state with `lunule_util::codec` and
//! hands the bytes over. Validation is layered: magic and version first,
//! then the header, then every section's CRC as it is read. Any mismatch
//! is a typed [`SnapshotError`], never a panic, so recovery code can fall
//! back to the newest valid snapshot in a directory
//! ([`find_latest_valid`]).
//!
//! Writing is crash-safe: the file is assembled in a `.tmp` sibling,
//! fsynced, atomically renamed over the destination, and the directory is
//! fsynced too — a snapshot either exists completely or not at all.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lunule_util::codec::{crc32, CodecError, Decoder, Encoder};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// File magic: identifies a Lunule snapshot regardless of extension.
pub const MAGIC: [u8; 8] = *b"LUNSNAP\0";

/// Current snapshot format version. Bump on any wire-format change; old
/// files are rejected with [`SnapshotError::UnsupportedVersion`] rather
/// than misread.
pub const FORMAT_VERSION: u32 = 2;

/// Why a snapshot could not be read or validated.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying filesystem failure (open, read, write, rename, sync).
    Io(io::Error),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file's format version is not one this build can read.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
    },
    /// The file ended before the declared structure was complete.
    Truncated {
        /// What was being decoded when the input ran dry.
        what: &'static str,
    },
    /// A section's payload does not match its recorded checksum.
    SectionChecksum {
        /// Name of the corrupted section.
        section: String,
    },
    /// The snapshot was taken under a different seed/configuration than
    /// the one it is being restored into.
    DigestMismatch {
        /// Digest recorded in the file.
        found: u64,
        /// Digest of the configuration attempting the restore.
        expected: u64,
    },
    /// A section body decoded to nonsense (bad tag, impossible length…).
    Decode {
        /// Section the error surfaced in.
        section: &'static str,
        /// The underlying codec error.
        source: CodecError,
    },
    /// A section the restore logic requires is absent.
    MissingSection {
        /// Name of the absent section.
        section: &'static str,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a lunule snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot format version {found} (this build reads {FORMAT_VERSION})"
                )
            }
            SnapshotError::Truncated { what } => {
                write!(f, "truncated snapshot while reading {what}")
            }
            SnapshotError::SectionChecksum { section } => {
                write!(f, "checksum mismatch in section '{section}'")
            }
            SnapshotError::DigestMismatch { found, expected } => write!(
                f,
                "snapshot was taken under a different seed/config \
                 (digest {found:#018x}, expected {expected:#018x})"
            ),
            SnapshotError::Decode { section, source } => {
                write!(f, "corrupt section '{section}': {source}")
            }
            SnapshotError::MissingSection { section } => {
                write!(f, "snapshot is missing required section '{section}'")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Decode { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// One named, opaque, checksummed payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Section {
    /// Section name (e.g. `"namespace"`, `"migrator"`).
    pub name: String,
    /// The encoded payload bytes.
    pub payload: Vec<u8>,
}

/// A decoded snapshot: header plus validated sections.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Simulated tick the state was captured at (the restore target
    /// resumes stepping from exactly this tick).
    pub tick: u64,
    /// Master seed of the run.
    pub seed: u64,
    /// FNV-1a digest of the canonical configuration string.
    pub digest: u64,
    /// Sections in write order.
    pub sections: Vec<Section>,
}

impl Snapshot {
    /// An empty snapshot at `tick` for the given identity.
    pub fn new(tick: u64, seed: u64, digest: u64) -> Self {
        Snapshot {
            tick,
            seed,
            digest,
            sections: Vec::new(),
        }
    }

    /// Appends a section.
    pub fn push_section(&mut self, name: &str, payload: Vec<u8>) {
        self.sections.push(Section {
            name: name.to_string(),
            payload,
        });
    }

    /// Looks a section up by name.
    pub fn section(&self, name: &str) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.payload.as_slice())
    }

    /// Looks a section up by name, failing with a typed error when absent.
    pub fn require_section(&self, name: &'static str) -> Result<&[u8], SnapshotError> {
        self.section(name)
            .ok_or(SnapshotError::MissingSection { section: name })
    }

    /// Serializes the snapshot to its on-disk byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        for b in MAGIC {
            e.put_u8(b);
        }
        e.put_u32(FORMAT_VERSION);
        e.put_u64(self.tick);
        e.put_u64(self.seed);
        e.put_u64(self.digest);
        e.put_usize(self.sections.len());
        for s in &self.sections {
            e.put_str(&s.name);
            e.put_u32(crc32(&s.payload));
            e.put_bytes(&s.payload);
        }
        e.into_bytes()
    }

    /// Parses and validates a snapshot from its byte layout. Every
    /// section's checksum is verified; the config digest is *not* checked
    /// here (the caller compares it against the restoring configuration
    /// via [`Snapshot::check_digest`], since only the caller knows it).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut d = Decoder::new(bytes);
        let mut magic = [0u8; 8];
        for b in &mut magic {
            *b = d
                .get_u8("magic")
                .map_err(|_| SnapshotError::Truncated { what: "magic" })?;
        }
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = d
            .get_u32("version")
            .map_err(|_| SnapshotError::Truncated { what: "version" })?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        let header = |what| SnapshotError::Truncated { what };
        let tick = d.get_u64("tick").map_err(|_| header("tick"))?;
        let seed = d.get_u64("seed").map_err(|_| header("seed"))?;
        let digest = d.get_u64("digest").map_err(|_| header("digest"))?;
        let n_sections = d
            .get_usize("section count")
            .map_err(|_| header("section count"))?;
        let mut sections = Vec::new();
        for _ in 0..n_sections {
            let name = d
                .get_str("section name")
                .map_err(|_| header("section name"))?;
            let crc = d
                .get_u32("section checksum")
                .map_err(|_| header("section checksum"))?;
            let payload = d
                .get_bytes("section payload")
                .map_err(|_| header("section payload"))?;
            if crc32(&payload) != crc {
                return Err(SnapshotError::SectionChecksum { section: name });
            }
            sections.push(Section { name, payload });
        }
        d.finish()
            .map_err(|_| SnapshotError::Truncated { what: "trailer" })?;
        Ok(Snapshot {
            tick,
            seed,
            digest,
            sections,
        })
    }

    /// Verifies the snapshot was taken under the given config digest.
    pub fn check_digest(&self, expected: u64) -> Result<(), SnapshotError> {
        if self.digest == expected {
            Ok(())
        } else {
            Err(SnapshotError::DigestMismatch {
                found: self.digest,
                expected,
            })
        }
    }
}

/// Writes `snapshot` to `path` crash-safely: assemble in `<path>.tmp`,
/// fsync the file, rename over the destination, fsync the directory. A
/// reader never observes a half-written snapshot.
pub fn write_atomic(path: &Path, snapshot: &Snapshot) -> Result<(), SnapshotError> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir)?;
        }
    }
    let tmp = tmp_path(path);
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&snapshot.to_bytes())?;
        file.sync_all()?;
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(SnapshotError::Io(e));
    }
    // Make the rename itself durable. Directory fsync is best-effort on
    // platforms where directories cannot be opened for sync.
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
    Ok(())
}

/// Reads and validates the snapshot at `path`.
pub fn read(path: &Path) -> Result<Snapshot, SnapshotError> {
    let bytes = fs::read(path)?;
    Snapshot::from_bytes(&bytes)
}

/// The sibling temp path used by [`write_atomic`].
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// The canonical snapshot filename for a tick: `snap-<tick>.lsnap` with
/// the tick zero-padded so lexicographic order equals numeric order.
pub fn snapshot_filename(tick: u64) -> String {
    format!("snap-{tick:020}.lsnap")
}

/// Scans `dir` for snapshot files and returns the newest (highest-tick)
/// one that parses and validates, together with its path. Corrupted,
/// truncated, or version-mismatched files are skipped — this is the
/// recovery fallback: a torn write or a flipped bit in the latest
/// snapshot silently falls back to the previous valid one. When
/// `expected_digest` is given, snapshots from other configurations are
/// skipped too. Returns `Ok(None)` when no valid snapshot exists.
pub fn find_latest_valid(
    dir: &Path,
    expected_digest: Option<u64>,
) -> Result<Option<(PathBuf, Snapshot)>, SnapshotError> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(SnapshotError::Io(e)),
    };
    let mut candidates: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("snap-") && name.ends_with(".lsnap") {
            candidates.push(path);
        }
    }
    // Highest tick first (zero-padded names sort lexicographically).
    candidates.sort();
    candidates.reverse();
    for path in candidates {
        let Ok(snap) = read(&path) else { continue };
        if let Some(expected) = expected_digest {
            if snap.digest != expected {
                continue;
            }
        }
        return Ok(Some((path, snap)));
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::new(120, 42, 0xDEAD_BEEF);
        s.push_section("namespace", vec![1, 2, 3, 4, 5]);
        s.push_section("migrator", vec![]);
        s.push_section("clients", vec![255; 64]);
        s
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lunule-snap-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn byte_round_trip_is_exact() {
        let snap = sample();
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_bytes(), bytes, "re-encode is byte-stable");
        assert_eq!(back.section("migrator"), Some(&[][..]));
        assert!(back.section("absent").is_none());
        assert!(matches!(
            back.require_section("absent"),
            Err(SnapshotError::MissingSection { section: "absent" })
        ));
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::BadMagic)
        ));
        // An unknown future version, and version 1, whose simulations
        // could carry a per-client "clients" roster instead of "cohorts".
        for found in [99, 1] {
            let mut bytes = sample().to_bytes();
            bytes[8] = found; // version field
            assert!(matches!(
                Snapshot::from_bytes(&bytes),
                Err(SnapshotError::UnsupportedVersion { found: f }) if u32::from(found) == f
            ));
        }
    }

    #[test]
    fn truncation_at_every_length_is_a_typed_error() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let err = Snapshot::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. }
                        | SnapshotError::BadMagic
                        | SnapshotError::SectionChecksum { .. }
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn flipped_payload_byte_fails_the_section_checksum() {
        let snap = sample();
        let clean = snap.to_bytes();
        // Locate the first payload byte of section "namespace" and flip it.
        let needle = [1u8, 2, 3, 4, 5];
        let pos = clean
            .windows(needle.len())
            .position(|w| w == needle)
            .unwrap();
        let mut bytes = clean.clone();
        bytes[pos] ^= 0x40;
        match Snapshot::from_bytes(&bytes) {
            Err(SnapshotError::SectionChecksum { section }) => {
                assert_eq!(section, "namespace");
            }
            other => unreachable!("expected checksum error, got {other:?}"),
        }
    }

    #[test]
    fn digest_check() {
        let snap = sample();
        assert!(snap.check_digest(0xDEAD_BEEF).is_ok());
        assert!(matches!(
            snap.check_digest(1),
            Err(SnapshotError::DigestMismatch {
                found: 0xDEAD_BEEF,
                expected: 1
            })
        ));
    }

    #[test]
    fn atomic_write_then_read() {
        let dir = tmpdir("rw");
        let path = dir.join(snapshot_filename(120));
        let snap = sample();
        write_atomic(&path, &snap).unwrap();
        assert_eq!(read(&path).unwrap(), snap);
        // No temp file is left behind.
        assert!(!tmp_path(&path).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_valid_skips_corrupt_and_foreign_snapshots() {
        let dir = tmpdir("scan");
        let old = Snapshot::new(10, 42, 7);
        let mid = Snapshot::new(20, 42, 7);
        let newest = Snapshot::new(30, 42, 7);
        write_atomic(&dir.join(snapshot_filename(10)), &old).unwrap();
        write_atomic(&dir.join(snapshot_filename(20)), &mid).unwrap();
        write_atomic(&dir.join(snapshot_filename(30)), &newest).unwrap();
        // Corrupt the newest file: recovery must fall back to tick 20.
        let newest_path = dir.join(snapshot_filename(30));
        let mut bytes = fs::read(&newest_path).unwrap();
        let last = bytes.len() - 1;
        bytes.truncate(last);
        fs::write(&newest_path, &bytes).unwrap();
        let (path, snap) = find_latest_valid(&dir, Some(7)).unwrap().unwrap();
        assert_eq!(snap.tick, 20);
        assert_eq!(path, dir.join(snapshot_filename(20)));
        // A digest filter skips everything from another configuration.
        assert!(find_latest_valid(&dir, Some(8)).unwrap().is_none());
        // Without a digest filter, the newest *valid* file still wins.
        let (_, snap) = find_latest_valid(&dir, None).unwrap().unwrap();
        assert_eq!(snap.tick, 20);
        // A missing directory is "no snapshot", not an error.
        assert!(find_latest_valid(&dir.join("nope"), None)
            .unwrap()
            .is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn filenames_sort_numerically() {
        let mut names = vec![
            snapshot_filename(9),
            snapshot_filename(100),
            snapshot_filename(25),
        ];
        names.sort();
        assert_eq!(
            names,
            vec![
                snapshot_filename(9),
                snapshot_filename(25),
                snapshot_filename(100)
            ]
        );
    }
}
