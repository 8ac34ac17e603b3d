//! Spill run files: the disk backend for Theorem 4.1 partitioned evaluation.
//!
//! A *run file* holds one partition of a relation in a compact, self-describing
//! binary format so a budget-breaching MD-join can hash-partition `R` to disk
//! once and then evaluate each `(Bᵢ, Rᵢ)` pair from its run file instead of
//! re-scanning the in-memory `R` m times.
//!
//! ## Format (version 1)
//!
//! ```text
//! magic   b"MDJS"
//! version u32 LE (= 1)
//! schema  field_count u32; per field: name_len u32, UTF-8 name, dtype tag u8
//! rows    per row, per value: tag u8 + payload
//!           0 Null | 1 All | 2 Int i64 LE | 3 Float f64-bits u64 LE
//!           4 Str u32 len + UTF-8 | 5 Bool u8
//! trailer row_count u64 LE, checksum u64 LE (FNV-1a over all prior bytes)
//! ```
//!
//! Floats are stored as raw bit patterns, so a round trip is bit-identical
//! (NaN payloads and `-0.0` survive — [`crate::Value`] equality is defined on
//! bits, and the differential tests demand exact equality with the in-memory
//! path). The checksum is verified before any parsing happens; truncation,
//! bit rot, and short writes all surface as [`StorageError::SpillCorrupt`].
//!
//! ## Lifecycle
//!
//! [`RunWriter`] streams rows to a uniquely named temp file and deletes it on
//! drop unless [`RunWriter::finish`] handed ownership to a [`RunFile`], which
//! in turn deletes the file when *it* drops. Every failure path therefore
//! leaves no file behind: cleanup is RAII, not convention.

use crate::codec::{self, CorruptKind, Cursor};
use crate::error::{Result, StorageError};
use crate::relation::Relation;
use crate::row::Row;
use crate::schema::Schema;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// File magic: "MD-Join Spill".
const MAGIC: [u8; 4] = *b"MDJS";
/// Current run-file format version.
pub const FORMAT_VERSION: u32 = 1;

/// Monotone suffix so concurrent writers in one process never collide.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique run-file path under `dir` (the file is not created).
fn run_path(dir: &Path, hint: &str) -> PathBuf {
    let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
    dir.join(format!(
        "mdj-spill-{}-{}-{}.run",
        std::process::id(),
        seq,
        hint
    ))
}

fn io_err(path: &Path, e: &std::io::Error) -> StorageError {
    StorageError::SpillIo {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

fn corrupt(path: &Path, detail: impl Into<String>) -> StorageError {
    StorageError::SpillCorrupt {
        path: path.display().to_string(),
        detail: detail.into(),
    }
}

/// A finished run file on disk. Deleting is RAII: the file is removed when
/// the handle drops, so a run can never outlive the query that spilled it.
#[derive(Debug)]
pub struct RunFile {
    path: PathBuf,
    bytes: u64,
    rows: u64,
}

impl RunFile {
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total file size in bytes (header + payload + trailer).
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Delete the run file now instead of waiting for drop. Idempotent: a
    /// file that is already gone (deleted by an earlier `cleanup`, or swept
    /// by a recovering process) is not an error — only a real I/O failure
    /// (e.g. permissions) is reported.
    pub fn cleanup(&self) -> Result<()> {
        match fs::remove_file(&self.path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err(&self.path, &e)),
        }
    }
}

impl Drop for RunFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Streams rows of one partition into a run file. The file is deleted on
/// drop unless [`finish`](RunWriter::finish) completed and transferred
/// ownership to the returned [`RunFile`].
#[derive(Debug)]
pub struct RunWriter {
    file: BufWriter<fs::File>,
    /// `Some` until `finish` takes ownership; `Drop` removes the file while
    /// it is still here (i.e. on every abandoned/error path).
    path: Option<PathBuf>,
    arity: usize,
    rows: u64,
    bytes: u64,
    hash: u64,
}

impl RunWriter {
    /// Create a uniquely named run file under `dir` (created if missing) and
    /// write the header + schema.
    pub fn create(dir: &Path, hint: &str, schema: &Schema) -> Result<RunWriter> {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
        let path = run_path(dir, hint);
        let file = fs::File::create(&path).map_err(|e| io_err(&path, &e))?;
        let mut w = RunWriter {
            file: BufWriter::new(file),
            path: Some(path),
            arity: schema.len(),
            rows: 0,
            bytes: 0,
            hash: codec::FNV_OFFSET,
        };
        w.emit(&MAGIC)?;
        w.emit(&FORMAT_VERSION.to_le_bytes())?;
        let mut buf = Vec::new();
        codec::encode_schema(&mut buf, schema);
        w.emit(&buf)?;
        Ok(w)
    }

    fn emit(&mut self, bytes: &[u8]) -> Result<()> {
        self.hash = codec::fnv1a(self.hash, bytes);
        self.bytes += bytes.len() as u64;
        let path = self.path.clone().unwrap_or_default();
        self.file.write_all(bytes).map_err(|e| io_err(&path, &e))
    }

    /// Append one row (arity-checked against the schema written at create).
    pub fn push(&mut self, row: &Row) -> Result<()> {
        if row.values().len() != self.arity {
            return Err(StorageError::ArityMismatch {
                expected: self.arity,
                got: row.values().len(),
            });
        }
        let mut buf: Vec<u8> = Vec::with_capacity(16 * self.arity);
        for v in row.values() {
            codec::encode_value(&mut buf, v);
        }
        self.emit(&buf)?;
        self.rows += 1;
        Ok(())
    }

    /// Rows appended so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Bytes emitted so far (before the trailer).
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Path of the run file being written.
    pub fn path(&self) -> &Path {
        self.path.as_deref().unwrap_or(Path::new(""))
    }

    /// Write the trailer (row count + checksum), flush, and hand the file to
    /// an owning [`RunFile`].
    pub fn finish(mut self) -> Result<RunFile> {
        let rows = self.rows;
        self.emit(&rows.to_le_bytes())?;
        let checksum = self.hash;
        // The checksum itself is not hashed.
        let path = self.path.clone().unwrap_or_default();
        self.file
            .write_all(&checksum.to_le_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| io_err(&path, &e))?;
        self.bytes += 8;
        let rf = RunFile {
            // Taking the path disarms this writer's Drop cleanup.
            path: self.path.take().expect("finish called twice"),
            bytes: self.bytes,
            rows,
        };
        Ok(rf)
    }
}

impl Drop for RunWriter {
    fn drop(&mut self) {
        if let Some(p) = &self.path {
            let _ = fs::remove_file(p);
        }
    }
}

/// What a crash-recovery sweep of a spill directory found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepReport {
    /// Orphaned run files removed (their owning process is dead).
    pub removed: u64,
    /// Total size in bytes of the removed files.
    pub bytes_removed: u64,
    /// Run files kept because their owning process is (or may be) alive.
    pub kept: u64,
}

/// The pid encoded in a run-file name (`mdj-spill-{pid}-{seq}-{hint}.run`),
/// or `None` for files that are not run files of this format.
fn run_file_pid(name: &str) -> Option<u32> {
    let rest = name.strip_prefix("mdj-spill-")?;
    if !name.ends_with(".run") {
        return None;
    }
    rest.split('-').next()?.parse().ok()
}

/// Whether `pid` names a live process. Only a definitive "no such process"
/// counts as dead; permission errors mean the process exists under another
/// user, and non-unix targets conservatively report everything alive (a
/// foreign orphan is never worth deleting a live process's spill by
/// mistake).
#[cfg(unix)]
#[allow(unsafe_code)]
fn pid_is_live(pid: u32) -> bool {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    let Ok(pid) = i32::try_from(pid) else {
        return true;
    };
    if unsafe { kill(pid, 0) } == 0 {
        return true;
    }
    const ESRCH: i32 = 3;
    std::io::Error::last_os_error().raw_os_error() != Some(ESRCH)
}

#[cfg(not(unix))]
fn pid_is_live(_pid: u32) -> bool {
    true
}

/// Crash-recovery sweep: scan `dir` for `MDJS` run files orphaned by a
/// crashed process and remove them.
///
/// RAII cleanup ([`RunFile`]/[`RunWriter`] drop) handles every in-process
/// failure path, but a SIGKILL or power loss skips destructors; this sweep
/// is the restart-time complement. Files belonging to the *current* process
/// or to any live pid are kept. A missing directory is an empty sweep, and
/// a file that vanishes mid-sweep (another recovering process got there
/// first) is simply not counted.
pub fn sweep_orphans(dir: &Path) -> Result<SweepReport> {
    let mut report = SweepReport::default();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(report),
        Err(e) => return Err(io_err(dir, &e)),
    };
    let me = std::process::id();
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, &e))?;
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(run_file_pid) else {
            continue;
        };
        if pid == me || pid_is_live(pid) {
            report.kept += 1;
            continue;
        }
        let path = entry.path();
        let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
        match fs::remove_file(&path) {
            Ok(()) => {
                report.removed += 1;
                report.bytes_removed += bytes;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err(&path, &e)),
        }
    }
    Ok(report)
}

/// Spill a whole relation into one run file under `dir`.
pub fn write_run(dir: &Path, hint: &str, rel: &Relation) -> Result<RunFile> {
    let mut w = RunWriter::create(dir, hint, rel.schema())?;
    for row in rel.iter() {
        w.push(row)?;
    }
    w.finish()
}

/// Read a run file back into a relation, verifying the checksum first.
/// Returns the relation and the number of bytes read from disk.
pub fn read_run(path: &Path) -> Result<(Relation, u64)> {
    let data = fs::read(path).map_err(|e| io_err(path, &e))?;
    if data.len() < MAGIC.len() + 4 + 4 + 8 + 8 {
        return Err(corrupt(
            path,
            format!("file too short ({} bytes)", data.len()),
        ));
    }
    // Verify before parsing: a flipped bit anywhere (including the trailer's
    // row count) fails here, so the parser below only ever sees good bytes.
    let (payload, trailer) = data.split_at(data.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().unwrap());
    let actual = codec::fnv1a(codec::FNV_OFFSET, payload);
    if stored != actual {
        return Err(corrupt(
            path,
            format!("checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"),
        ));
    }

    let mut c = Cursor::new(payload, path, CorruptKind::Spill);
    if c.take(4)? != MAGIC {
        return Err(corrupt(path, "bad magic"));
    }
    let version = c.u32()?;
    if version != FORMAT_VERSION {
        return Err(corrupt(path, format!("unsupported version {version}")));
    }
    let schema = c.schema()?;
    let n_fields = schema.len();

    // Rows occupy everything up to the 8-byte row count at the payload's end.
    let rows_end = payload.len() - 8;
    let mut rows: Vec<Row> = Vec::new();
    while c.pos < rows_end {
        let mut vals = Vec::with_capacity(n_fields);
        for _ in 0..n_fields {
            vals.push(c.value()?);
        }
        rows.push(Row::new(vals));
    }
    if c.pos != rows_end {
        return Err(corrupt(path, "row data overruns the trailer"));
    }
    c.pos = rows_end;
    let row_count = c.u64()?;
    if row_count != rows.len() as u64 {
        return Err(corrupt(
            path,
            format!(
                "row count {row_count} does not match {} decoded rows",
                rows.len()
            ),
        ));
    }
    Ok((Relation::from_rows(schema, rows), data.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;
    use crate::value::Value;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mdj-spill-unit-{}-{}", std::process::id(), tag));
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn gnarly() -> Relation {
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("x", DataType::Float),
            ("s", DataType::Str),
            ("f", DataType::Bool),
            ("a", DataType::Any),
        ]);
        Relation::from_rows(
            schema,
            vec![
                Row::new(vec![
                    Value::Int(i64::MIN),
                    Value::Float(f64::NAN),
                    Value::str("naïve — ünïcödé"),
                    Value::Bool(true),
                    Value::All,
                ]),
                Row::new(vec![
                    Value::Int(i64::MAX),
                    Value::Float(-0.0),
                    Value::str(""),
                    Value::Bool(false),
                    Value::Null,
                ]),
                Row::new(vec![
                    Value::Int(0),
                    Value::Float(f64::INFINITY),
                    Value::str("line\nbreak\t\"quote\""),
                    Value::Bool(true),
                    Value::Int(42),
                ]),
            ],
        )
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let dir = tmp_dir("roundtrip");
        let rel = gnarly();
        let run = write_run(&dir, "t", &rel).unwrap();
        assert_eq!(run.rows(), 3);
        let (back, bytes_read) = read_run(run.path()).unwrap();
        assert_eq!(bytes_read, run.bytes_written());
        assert_eq!(back.schema(), rel.schema());
        // Value equality is bit-equality for floats, so NaN and -0.0 must
        // survive exactly.
        assert_eq!(back.rows(), rel.rows());
        assert!(back.rows()[1][1] == Value::Float(-0.0));
        assert_eq!(
            match &back.rows()[1][1] {
                Value::Float(x) => x.to_bits(),
                _ => panic!(),
            },
            (-0.0f64).to_bits()
        );
        drop(run);
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn empty_relation_round_trips() {
        let dir = tmp_dir("empty");
        let rel = Relation::empty(gnarly().schema().clone());
        let run = write_run(&dir, "e", &rel).unwrap();
        let (back, _) = read_run(run.path()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.schema(), rel.schema());
        drop(run);
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn checksum_detects_a_flipped_byte() {
        let dir = tmp_dir("flip");
        let run = write_run(&dir, "c", &gnarly()).unwrap();
        let mut data = fs::read(run.path()).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x40;
        fs::write(run.path(), &data).unwrap();
        let err = read_run(run.path()).unwrap_err();
        assert!(
            matches!(err, StorageError::SpillCorrupt { .. }),
            "want SpillCorrupt, got {err:?}"
        );
        drop(run);
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn truncation_is_detected() {
        let dir = tmp_dir("trunc");
        let run = write_run(&dir, "t", &gnarly()).unwrap();
        let data = fs::read(run.path()).unwrap();
        for cut in [data.len() / 2, data.len() - 1, 4] {
            fs::write(run.path(), &data[..cut]).unwrap();
            let err = read_run(run.path()).unwrap_err();
            assert!(
                matches!(err, StorageError::SpillCorrupt { .. }),
                "cut at {cut}: want SpillCorrupt, got {err:?}"
            );
        }
        drop(run);
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn run_file_drop_removes_the_file() {
        let dir = tmp_dir("raii");
        let run = write_run(&dir, "d", &gnarly()).unwrap();
        let path = run.path().to_path_buf();
        assert!(path.exists());
        drop(run);
        assert!(!path.exists(), "RunFile drop leaked {}", path.display());
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn abandoned_writer_removes_the_file() {
        let dir = tmp_dir("abandon");
        let rel = gnarly();
        let mut w = RunWriter::create(&dir, "a", rel.schema()).unwrap();
        w.push(&rel.rows()[0]).unwrap();
        let path = w.path.clone().unwrap();
        assert!(path.exists());
        drop(w); // error path: finish never called
        assert!(!path.exists(), "RunWriter drop leaked {}", path.display());
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let dir = tmp_dir("arity");
        let rel = gnarly();
        let mut w = RunWriter::create(&dir, "x", rel.schema()).unwrap();
        let err = w.push(&Row::new(vec![Value::Int(1)])).unwrap_err();
        assert!(matches!(err, StorageError::ArityMismatch { .. }));
        drop(w);
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn cleanup_is_idempotent() {
        let dir = tmp_dir("cleanup");
        let run = write_run(&dir, "i", &gnarly()).unwrap();
        let path = run.path().to_path_buf();
        run.cleanup().unwrap();
        assert!(!path.exists());
        // Second explicit cleanup and the eventual Drop must both tolerate
        // the already-deleted file.
        run.cleanup().unwrap();
        drop(run);
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn sweep_of_missing_dir_is_empty() {
        let report = sweep_orphans(Path::new("/nonexistent/mdj-sweep-test")).unwrap();
        assert_eq!(report, SweepReport::default());
    }

    #[cfg(unix)]
    #[test]
    fn sweep_removes_dead_pid_files_and_keeps_live_ones() {
        let dir = tmp_dir("sweep");
        // A live run file owned by this process.
        let live = write_run(&dir, "live", &gnarly()).unwrap();
        // A planted orphan from a "crashed" process: pid far beyond any
        // plausible live pid (kernel pid_max is well below this).
        let orphan = dir.join("mdj-spill-999999999-0-crashed.run");
        fs::write(&orphan, b"MDJS leftover bytes").unwrap();
        // A foreign file that is not a run file must be untouched.
        let foreign = dir.join("notes.txt");
        fs::write(&foreign, b"keep me").unwrap();

        let report = sweep_orphans(&dir).unwrap();
        assert_eq!(report.removed, 1, "{report:?}");
        assert_eq!(report.bytes_removed, 19);
        assert_eq!(report.kept, 1);
        assert!(!orphan.exists());
        assert!(live.path().exists());
        assert!(foreign.exists());

        // Sweeping again finds nothing new to remove.
        let again = sweep_orphans(&dir).unwrap();
        assert_eq!(again.removed, 0);
        assert_eq!(again.kept, 1);

        fs::remove_file(&foreign).unwrap();
        drop(live);
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn run_file_names_parse_back_to_pids() {
        assert_eq!(run_file_pid("mdj-spill-1234-7-part.run"), Some(1234));
        assert_eq!(run_file_pid("mdj-spill-1234-7-part.tmp"), None);
        assert_eq!(run_file_pid("other-1234-7.run"), None);
        assert_eq!(run_file_pid("mdj-spill-x-7.run"), None);
    }

    #[test]
    fn unique_names_do_not_collide() {
        let dir = tmp_dir("uniq");
        let rel = gnarly();
        let a = write_run(&dir, "same", &rel).unwrap();
        let b = write_run(&dir, "same", &rel).unwrap();
        assert_ne!(a.path(), b.path());
        drop((a, b));
        let _ = fs::remove_dir(&dir);
    }
}
