//! Error types for the storage substrate.

use std::fmt;

/// Result alias used throughout the substrate.
pub type Result<T, E = StorageError> = std::result::Result<T, E>;

/// Errors produced by schema resolution, relation construction, and I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A column name did not resolve against a schema.
    UnknownColumn { name: String, schema: String },
    /// A column base name resolved to more than one qualified column.
    AmbiguousColumn { name: String, schema: String },
    /// A row's arity did not match the schema.
    ArityMismatch { expected: usize, got: usize },
    /// A value violated the column type.
    TypeMismatch {
        column: String,
        expected: String,
        got: String,
    },
    /// A named relation was not found in the catalog.
    UnknownRelation(String),
    /// CSV parse failure.
    Csv { line: usize, message: String },
    /// Generic I/O failure (message-only so the error stays `Clone + Eq`).
    Io(String),
    /// A paged table file (page data, manifest, or a spill partition's
    /// temporary table) could not be written or read (disk full, short
    /// write, permission failure). Path and detail are strings so the error
    /// stays `Clone + Eq`.
    PagerIo { path: String, detail: String },
    /// A page or manifest failed validation on read: bad magic, unsupported
    /// version, checksum mismatch, or a truncated/garbled payload. Torn
    /// writes from a crashed checkpoint surface here.
    PageCorrupt { path: String, detail: String },
    /// The buffer pool could not admit a page: every resident frame is
    /// pinned (or the shared memory pool is out of budget), so eviction
    /// cannot make room. Mirrors the governor's admission failure so callers
    /// can shed load instead of panicking.
    PoolExhausted {
        needed: u64,
        available: u64,
        capacity: u64,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownColumn { name, schema } => {
                write!(f, "unknown column `{name}` in schema {schema}")
            }
            StorageError::AmbiguousColumn { name, schema } => {
                write!(f, "ambiguous column `{name}` in schema {schema}")
            }
            StorageError::ArityMismatch { expected, got } => {
                write!(f, "row arity {got} does not match schema arity {expected}")
            }
            StorageError::TypeMismatch {
                column,
                expected,
                got,
            } => write!(
                f,
                "type mismatch in column `{column}`: expected {expected}, got {got}"
            ),
            StorageError::UnknownRelation(name) => write!(f, "unknown relation `{name}`"),
            StorageError::Csv { line, message } => write!(f, "CSV error at line {line}: {message}"),
            StorageError::Io(m) => write!(f, "I/O error: {m}"),
            StorageError::PagerIo { path, detail } => {
                write!(f, "pager I/O error on `{path}`: {detail}")
            }
            StorageError::PageCorrupt { path, detail } => {
                write!(f, "corrupt page store file `{path}`: {detail}")
            }
            StorageError::PoolExhausted {
                needed,
                available,
                capacity,
            } => write!(
                f,
                "buffer pool exhausted: needed {needed} bytes, {available} available of {capacity}"
            ),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = StorageError::UnknownColumn {
            name: "sale".into(),
            schema: "(cust:int)".into(),
        };
        assert!(e.to_string().contains("sale"));
        assert!(e.to_string().contains("(cust:int)"));
        let e = StorageError::ArityMismatch {
            expected: 3,
            got: 2,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('2'));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: StorageError = io.into();
        assert!(matches!(e, StorageError::Io(_)));
    }
}
