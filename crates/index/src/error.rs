//! Error type for the persistent index.
//!
//! Everything that can go wrong with on-disk state is a **typed** error —
//! a flipped byte, a truncated file, or a stale-generation WAL must never
//! panic, because the daemon built on top of this crate has to keep
//! serving from its last good in-memory snapshot.

use std::fmt;
use std::path::PathBuf;

/// Errors from reading, writing, or replaying index state.
#[derive(Debug)]
pub enum IndexError {
    /// An underlying filesystem operation failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// The file exists but is not an index artifact (bad magic), or the
    /// directory holds no snapshot at all.
    NotAnIndex(String),
    /// The artifact declares a format version this build cannot read.
    Version {
        /// Version found in the file.
        found: u16,
        /// Highest version this build understands.
        supported: u16,
    },
    /// A section failed validation: checksum mismatch, truncation,
    /// impossible field values, trailing garbage. The section name pins
    /// down where ("header", "taxa", "splits", "wal-header", "wal-record").
    Corrupt {
        /// Which section of which artifact failed.
        section: &'static str,
        /// What exactly was wrong.
        detail: String,
    },
    /// A replayed or loaded table violated a core invariant, or a load
    /// exceeded its budget.
    Core(bfhrf::CoreError),
    /// A WAL payload failed to parse as Newick against the index taxa.
    Phylo(phylo::PhyloError),
    /// A catalog operation was semantically invalid: unknown collection,
    /// name already taken, reserved or malformed name, or a collection
    /// busy with in-flight work. Disk state is fine; the request is not.
    Catalog {
        /// What was wrong with the request.
        detail: String,
    },
    /// The WAL could not be reset after a committed compaction, so
    /// mutations are refused until a reopen or a successful compaction
    /// heals the log. Reads stay available; nothing durable is lost.
    WalUnavailable {
        /// Why the log is out of service.
        detail: String,
    },
    /// The zero-copy frozen open path cannot serve this index right now —
    /// the sidecar is missing, stale, or the WAL holds unreplayed records.
    /// Not a corruption verdict: a full [`crate::Index::open`] works, and
    /// its next compaction rewrites the sidecar.
    FrozenUnavailable {
        /// Why the fast path declined.
        detail: String,
    },
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Io { path, source } => {
                write!(f, "io error on {}: {source}", path.display())
            }
            IndexError::NotAnIndex(what) => write!(f, "not a BFH index: {what}"),
            IndexError::Version { found, supported } => write!(
                f,
                "unsupported format version {found} (this build reads up to {supported})"
            ),
            IndexError::Corrupt { section, detail } => {
                write!(f, "corrupt {section} section: {detail}")
            }
            IndexError::Catalog { detail } => write!(f, "catalog error: {detail}"),
            IndexError::Core(e) => write!(f, "core error: {e}"),
            IndexError::Phylo(e) => write!(f, "newick error: {e}"),
            IndexError::WalUnavailable { detail } => write!(
                f,
                "WAL unavailable: {detail} (reads still work; compact or reopen to recover)"
            ),
            IndexError::FrozenUnavailable { detail } => write!(
                f,
                "frozen fast-open unavailable: {detail} (fall back to a full open)"
            ),
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Io { source, .. } => Some(source),
            IndexError::Core(e) => Some(e),
            IndexError::Phylo(e) => Some(e),
            _ => None,
        }
    }
}

impl From<bfhrf::CoreError> for IndexError {
    fn from(e: bfhrf::CoreError) -> Self {
        IndexError::Core(e)
    }
}

impl From<phylo::PhyloError> for IndexError {
    fn from(e: phylo::PhyloError) -> Self {
        IndexError::Phylo(e)
    }
}

impl IndexError {
    /// Attach a path to a raw IO error.
    pub fn io(path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        IndexError::Io {
            path: path.into(),
            source,
        }
    }

    /// Whether this error means "on-disk bytes are bad" (as opposed to IO
    /// or semantic failures) — what the corruption tests assert.
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            IndexError::Corrupt { .. } | IndexError::NotAnIndex(_) | IndexError::Version { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = IndexError::Corrupt {
            section: "splits",
            detail: "checksum mismatch".into(),
        };
        assert!(e.to_string().contains("splits"));
        assert!(e.is_corruption());
        let v = IndexError::Version {
            found: 9,
            supported: 1,
        };
        assert!(v.to_string().contains('9'));
        assert!(v.is_corruption());
        let io = IndexError::io(
            "/tmp/x",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        assert!(io.to_string().contains("/tmp/x"));
        assert!(!io.is_corruption());
    }
}
