//! Typed failures of the durable store.

use mq_metric::ObjectId;
use std::fmt;

/// Errors from creating, opening, loading, or mutating a [`FilePageStore`].
///
/// [`FilePageStore`]: crate::FilePageStore
#[derive(Debug)]
pub enum StoreError {
    /// Underlying file-system failure.
    Io(std::io::Error),
    /// The directory does not hold a valid store (bad magic, bad version,
    /// impossible geometry).
    Format(String),
    /// A segment frame failed its checksum and no WAL record covers it —
    /// the page is unrecoverable.
    Corrupt {
        /// The damaged page.
        page: u32,
        /// What exactly disagreed.
        detail: String,
    },
    /// An object's encoded payload exceeds the store's fixed record slot.
    Oversized {
        /// Encoded payload size.
        bytes: usize,
        /// The store's per-record maximum.
        max: usize,
    },
    /// A mutation referenced an object id that is deleted or out of range.
    UnknownObject(ObjectId),
    /// The store directory is already owned by a live process — the store
    /// is single-writer, and opening it twice could destroy
    /// un-checkpointed mutations.
    Locked {
        /// The contested store directory.
        dir: std::path::PathBuf,
        /// Pid recorded in the lock file.
        holder: u32,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Format(m) => write!(f, "store format error: {m}"),
            StoreError::Corrupt { page, detail } => {
                write!(f, "page {page} is unrecoverable: {detail}")
            }
            StoreError::Oversized { bytes, max } => {
                write!(
                    f,
                    "object payload of {bytes} B exceeds record slot of {max} B"
                )
            }
            StoreError::UnknownObject(id) => {
                write!(f, "object {id} is deleted or out of range")
            }
            StoreError::Locked { dir, holder } => {
                write!(
                    f,
                    "store {} is locked by live process {holder} (the store is \
                     single-writer; stop that process first)",
                    dir.display()
                )
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// A fixed-width field that runs past the end of its buffer. The decoders
/// check every variable length up front with their own message, so this
/// only names a header shorter than its declared layout.
impl From<mq_storage::Truncated> for StoreError {
    fn from(e: mq_storage::Truncated) -> Self {
        StoreError::Format(format!("truncated field: {e}"))
    }
}

/// A database with deleted ids where a dense one is needed (a simulated
/// disk rebuilding its layout) is a directory this reader cannot serve.
impl From<mq_storage::DeletedIds> for StoreError {
    fn from(e: mq_storage::DeletedIds) -> Self {
        StoreError::Format(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_every_variant() {
        let io: StoreError = std::io::Error::other("boom").into();
        assert!(io.to_string().contains("boom"));
        assert!(StoreError::Format("bad magic".into())
            .to_string()
            .contains("bad magic"));
        let c = StoreError::Corrupt {
            page: 7,
            detail: "checksum".into(),
        };
        assert!(c.to_string().contains("page 7"));
        let o = StoreError::Oversized { bytes: 99, max: 64 };
        assert!(o.to_string().contains("99") && o.to_string().contains("64"));
        assert!(StoreError::UnknownObject(ObjectId(3))
            .to_string()
            .contains("O3"));
        let l = StoreError::Locked {
            dir: "/tmp/s".into(),
            holder: 1234,
        };
        assert!(l.to_string().contains("/tmp/s") && l.to_string().contains("1234"));
    }
}
