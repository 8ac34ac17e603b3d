//! Spill file naming and the crash-recovery sweep.
//!
//! A budget-breaching MD-join (Theorem 4.1) hash-partitions `R` to disk once
//! and evaluates each `(Bᵢ, Rᵢ)` pair from its partition. Each partition is a
//! temporary paged table ([`TempTableWriter`](crate::pager::TempTableWriter)):
//! `MDJP` pages in one data file named `mdj-spill-{pid}-{seq}-{hint}.run`,
//! unlinked by RAII when the query is done with it. A SIGKILL or power loss
//! skips destructors, so [`sweep_orphans`] removes, at restart, the files
//! whose owning pid is dead — which is why the name carries the pid.

use crate::error::Result;
use crate::pager::io_err;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotone suffix so concurrent writers in one process never collide.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique spill-file path under `dir` (the file is not created).
pub(crate) fn spill_path(dir: &Path, hint: &str) -> PathBuf {
    let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
    dir.join(format!(
        "mdj-spill-{}-{}-{}.run",
        std::process::id(),
        seq,
        hint
    ))
}

/// What a crash-recovery sweep of a spill directory found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepReport {
    /// Orphaned spill files removed (their owning process is dead).
    pub removed: u64,
    /// Total size in bytes of the removed files.
    pub bytes_removed: u64,
    /// Spill files kept because their owning process is (or may be) alive.
    pub kept: u64,
}

/// The pid encoded in a spill-file name (`mdj-spill-{pid}-{seq}-{hint}.run`),
/// or `None` for files that are not spill files.
fn spill_file_pid(name: &str) -> Option<u32> {
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

/// Crash-recovery sweep: scan `dir` for spill files orphaned by a crashed
/// process and remove them.
///
/// RAII cleanup handles every in-process failure path; this sweep is the
/// restart-time complement. Files belonging to the *current* process or to
/// any live pid are kept. A missing directory is an empty sweep, and a file
/// that vanishes mid-sweep (another recovering process got there first) is
/// simply not counted.
pub fn sweep_orphans(dir: &Path) -> Result<SweepReport> {
    let mut report = SweepReport::default();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(report),
        Err(e) => return Err(io_err(dir, e)),
    };
    let me = std::process::id();
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(spill_file_pid) else {
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
            Err(e) => return Err(io_err(&path, e)),
        }
    }
    Ok(report)
}

/// The spill-file lifecycle end to end: files named here, written by the
/// pager's temporary-table writer, read back, and unlinked by RAII.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StorageError;
    use crate::pager::{NoFaults, TempTable, TempTableWriter};
    use crate::relation::Relation;
    use crate::row::Row;
    use crate::schema::{DataType, Schema};
    use crate::value::Value;
    use std::sync::Arc;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mdj-spill-unit-{}-{}", std::process::id(), tag));
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn files(dir: &Path) -> Vec<PathBuf> {
        fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect()
    }

    fn writer(dir: &Path, hint: &str, schema: &Schema) -> TempTableWriter {
        TempTableWriter::create(dir, hint, schema.clone(), Arc::new(NoFaults)).unwrap()
    }

    fn write(dir: &Path, hint: &str, rel: &Relation) -> TempTable {
        let mut w = writer(dir, hint, rel.schema());
        for row in rel.iter() {
            w.push(row.clone()).unwrap();
        }
        w.finish().unwrap()
    }

    fn gnarly() -> Relation {
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("x", DataType::Float),
            ("s", DataType::Str),
            ("f", DataType::Bool),
            ("a", DataType::Any),
        ]);
        let row = |k, x, s: &str, f, a| {
            Row::new(vec![
                Value::Int(k),
                Value::Float(x),
                Value::str(s),
                Value::Bool(f),
                a,
            ])
        };
        Relation::from_rows(
            schema,
            vec![
                row(i64::MAX, f64::NAN, "naïve — ünïcödé", true, Value::All),
                row(i64::MIN, -0.0, "", false, Value::Null),
                row(
                    0,
                    f64::INFINITY,
                    "line\nbreak\t\"quote\"",
                    true,
                    Value::Int(42),
                ),
            ],
        )
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let dir = tmp_dir("roundtrip");
        let g = gnarly();
        let rows = g.rows().iter().cycle().take(3000).cloned().collect();
        let rel = Relation::from_rows(g.schema().clone(), rows);
        let run = write(&dir, "t", &rel);
        let t = run.table();
        assert!(t.page_count() > 1, "3000 rows must seal several pages");
        assert_eq!(fs::metadata(&files(&dir)[0]).unwrap().len(), t.data_len());
        let back = t.read_all(None).unwrap();
        assert_eq!(back.schema(), rel.schema());
        // Arrival order, and Value equality is bit-equality for floats, so
        // NaN and -0.0 must survive exactly.
        assert_eq!(back.rows(), rel.rows());
        drop(run);
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn empty_relation_round_trips() {
        let dir = tmp_dir("empty");
        let rel = Relation::empty(gnarly().schema().clone());
        let run = write(&dir, "e", &rel);
        assert_eq!(run.table().page_count(), 0);
        let back = run.table().read_all(None).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.schema(), rel.schema());
        drop(run);
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn run_file_drop_removes_the_file() {
        let dir = tmp_dir("raii");
        let run = write(&dir, "d", &gnarly());
        assert_eq!(files(&dir).len(), 1);
        drop(run);
        assert_eq!(files(&dir), Vec::<PathBuf>::new(), "TempTable drop leaked");
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn abandoned_writer_removes_the_file() {
        let dir = tmp_dir("abandon");
        let rel = gnarly();
        let mut w = writer(&dir, "a", rel.schema());
        w.push(rel.rows()[0].clone()).unwrap();
        drop(w); // error path: finish never called
        assert_eq!(files(&dir), Vec::<PathBuf>::new(), "writer drop leaked");
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let dir = tmp_dir("arity");
        let mut w = writer(&dir, "x", gnarly().schema());
        let err = w.push(Row::new(vec![Value::Int(1)])).unwrap_err();
        assert!(matches!(err, StorageError::ArityMismatch { .. }));
        drop(w);
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
        // A live spill file owned by this process.
        let live = write(&dir, "live", &gnarly());
        // A planted orphan from a "crashed" process: pid far beyond any
        // plausible live pid (kernel pid_max is well below this).
        let orphan = dir.join("mdj-spill-999999999-0-crashed.run");
        fs::write(&orphan, b"MDJP leftover bytes").unwrap();
        // A foreign file that is not a spill file must be untouched.
        let foreign = dir.join("notes.txt");
        fs::write(&foreign, b"keep me").unwrap();

        let report = sweep_orphans(&dir).unwrap();
        assert_eq!(report.removed, 1, "{report:?}");
        assert_eq!(report.bytes_removed, 19);
        assert_eq!(report.kept, 1);
        assert!(!orphan.exists());
        assert_eq!(files(&dir).len(), 2, "the live spill file and notes.txt");
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
        assert_eq!(spill_file_pid("mdj-spill-1234-7-part.run"), Some(1234));
        assert_eq!(spill_file_pid("mdj-spill-1234-7-part.tmp"), None);
        assert_eq!(spill_file_pid("other-1234-7.run"), None);
        assert_eq!(spill_file_pid("mdj-spill-x-7.run"), None);
        let dir = Path::new("d");
        let name = spill_path(dir, "p").file_name().unwrap().to_owned();
        assert_eq!(
            spill_file_pid(name.to_str().unwrap()),
            Some(std::process::id())
        );
    }

    #[test]
    fn unique_names_do_not_collide() {
        let dir = Path::new("d");
        assert_ne!(spill_path(dir, "same"), spill_path(dir, "same"));
    }
}
