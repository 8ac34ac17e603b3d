//! Fault-injection property tests (the robustness harness).
//!
//! Compiled only with `--features fault-injection`. A deterministic
//! [`FaultInjector`] arms bounded panics, memory-charge failures, and slow
//! morsels at seeded execution sites; the properties assert the execution
//! layer's contract under fire:
//!
//! * **result-or-clean-error** — a faulted run either produces the *exact*
//!   serial answer or a typed governor error; never a hang, a poisoned lock,
//!   a partial result, or a propagated panic;
//! * **retries mask bounded faults** — with enough retries, a bounded panic
//!   budget must be absorbed and the answer must equal serial exactly
//!   (injection sites are outside the apply phase, so retries cannot
//!   double-count);
//! * **charge failures degrade, not abort** — injected budget breaches send
//!   the serial path through Theorem 4.1 re-partitioning and the answer
//!   still equals serial.
#![cfg(feature = "fault-injection")]

use mdj_core::prelude::*;
use proptest::prelude::*;
use std::sync::{Arc, Once};
use std::time::Duration;

/// Suppress the default panic hook's backtrace spam for *injected* panics
/// only; real panics still report. Installed once per test binary.
fn quiet_injected_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("injected fault"));
            if !injected {
                prev(info);
            }
        }));
    });
}

fn sales(rows: usize) -> Relation {
    let schema = Schema::from_pairs(&[
        ("cust", DataType::Int),
        ("month", DataType::Int),
        ("sale", DataType::Float),
    ]);
    let data = (0..rows)
        .map(|i| {
            Row::from_values(vec![
                Value::Int((i % 17) as i64),
                Value::Int((i % 12) as i64),
                Value::Float((i % 89) as f64),
            ])
        })
        .collect();
    Relation::from_rows(schema, data)
}

fn specs() -> Vec<AggSpec> {
    vec![
        AggSpec::count_star(),
        AggSpec::on_column("sum", "sale"),
        AggSpec::on_column("avg", "sale"),
    ]
}

fn serial_answer(b: &Relation, r: &Relation) -> Relation {
    MdJoin::new(b, r)
        .aggs(&specs())
        .theta(eq(col_b("cust"), col_r("cust")))
        .strategy(ExecStrategy::Serial)
        .run(&ExecContext::new())
        .unwrap()
}

fn faulted_run(
    b: &Relation,
    r: &Relation,
    strategy: ExecStrategy,
    ctx: &ExecContext,
) -> Result<Relation> {
    MdJoin::new(b, r)
        .aggs(&specs())
        .theta(eq(col_b("cust"), col_r("cust")))
        .strategy(strategy)
        .threads(2)
        .run(ctx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Injected panics at morsel sites: every run ends in the exact serial
    /// answer or a clean governor error — across seeds, sides, morsel sizes,
    /// and retry budgets (including zero retries, where the first injected
    /// panic must surface as `MorselPanicked`).
    #[test]
    fn injected_panics_yield_result_or_clean_error(
        seed in 0u64..1_000,
        detail_side in any::<bool>(),
        small_morsels in any::<bool>(),
        retries in 0u32..3,
    ) {
        quiet_injected_panics();
        let r = sales(600);
        let b = basevalues::group_by(&r, &["cust"]).unwrap();
        let expected = serial_answer(&b, &r);

        let fault = Arc::new(FaultInjector::new(seed).period(2).panics(2));
        let ctx = ExecContext::new()
            .with_morsel_size(if small_morsels { 8 } else { 4096 })
            .with_morsel_retries(retries)
            .with_fault_injector(fault.clone());
        let strategy = if detail_side {
            ExecStrategy::MorselDetail
        } else {
            ExecStrategy::MorselBase
        };
        // The faulted query, then the same query again over the same
        // relation, then twice on the batch evaluator: a cold scan that
        // fills `r`'s column cache and a warm one that reads it.
        for strategy in [strategy, strategy, ExecStrategy::Vectorized, ExecStrategy::Vectorized] {
            match faulted_run(&b, &r, strategy, &ctx) {
                Ok(out) => prop_assert_eq!(
                    expected.rows(), out.rows(),
                    "{:?} run completed but differs from serial", strategy
                ),
                Err(e @ CoreError::MorselPanicked { .. }) => {
                    prop_assert!(e.is_governor());
                    prop_assert!(
                        fault.panics_injected() > 0,
                        "MorselPanicked without an injected panic"
                    );
                }
                Err(other) => prop_assert!(false, "unclean failure: {other:?}"),
            }
        }
    }

    /// With a retry budget larger than the armed panic budget, the bounded
    /// faults are fully absorbed: the run *must* succeed and equal serial
    /// exactly (retries re-run the pure compute phase, never the apply
    /// phase, so absorption cannot double-count updates).
    #[test]
    fn ample_retries_absorb_bounded_panics_exactly(
        seed in 0u64..1_000,
        detail_side in any::<bool>(),
    ) {
        quiet_injected_panics();
        let r = sales(600);
        let b = basevalues::group_by(&r, &["cust"]).unwrap();
        let expected = serial_answer(&b, &r);

        let fault = Arc::new(FaultInjector::new(seed).period(2).panics(3));
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new()
            .with_morsel_size(16)
            .with_morsel_retries(8) // > panic budget: every morsel eventually runs clean
            .with_stats(stats.clone())
            .with_fault_injector(fault.clone());
        let strategy = if detail_side {
            ExecStrategy::MorselDetail
        } else {
            ExecStrategy::MorselBase
        };
        // The faulted query, then the same query again over the same
        // relation, then twice on the batch evaluator: a cold scan that
        // fills `r`'s column cache and a warm one that reads it. Every run
        // answers, bit for bit.
        for strategy in [strategy, strategy, ExecStrategy::Vectorized, ExecStrategy::Vectorized] {
            let out = faulted_run(&b, &r, strategy, &ctx);
            prop_assert!(out.is_ok(), "bounded faults must be absorbed: {:?}", out.err());
            let out = out.unwrap();
            prop_assert_eq!(expected.rows(), out.rows(), "{:?}", strategy);
        }
        prop_assert_eq!(
            stats.morsel_retries(), fault.panics_injected(),
            "every injected panic is one recorded retry"
        );
    }

    /// Injected memory-charge failures behave exactly like real budget
    /// breaches: the serial path degrades into Theorem 4.1 partitioned
    /// evaluation and still produces the exact serial answer.
    #[test]
    fn injected_charge_failures_degrade_and_still_answer(
        seed in 0u64..1_000,
    ) {
        let r = sales(600);
        let b = basevalues::group_by(&r, &["cust"]).unwrap();
        let expected = serial_answer(&b, &r);

        let fault = Arc::new(FaultInjector::new(seed).period(1).charge_failures(2));
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new()
            .with_budget_bytes(1 << 30) // budget is ample: only injection can breach
            .with_stats(stats.clone())
            .with_fault_injector(fault);
        let out = faulted_run(&b, &r, ExecStrategy::Serial, &ctx);
        prop_assert!(out.is_ok(), "charge-failure degradation failed: {:?}", out.err());
        let out = out.unwrap();
        prop_assert_eq!(expected.rows(), out.rows());
        prop_assert!(
            stats.degradations() >= 1,
            "injected breach never triggered Theorem 4.1 degradation"
        );
    }

    /// Slow morsels racing a short deadline: the run either finishes in time
    /// with the exact answer or stops with `DeadlineExceeded` — never
    /// anything messier.
    #[test]
    fn slow_morsels_race_deadlines_cleanly(
        seed in 0u64..1_000,
        detail_side in any::<bool>(),
    ) {
        quiet_injected_panics();
        let r = sales(600);
        let b = basevalues::group_by(&r, &["cust"]).unwrap();
        let expected = serial_answer(&b, &r);

        let fault = Arc::new(
            FaultInjector::new(seed)
                .period(1)
                .slow_morsels(4, Duration::from_millis(2)),
        );
        let ctx = ExecContext::new()
            .with_morsel_size(8)
            .with_deadline(Duration::from_millis(4))
            .with_fault_injector(fault);
        let strategy = if detail_side {
            ExecStrategy::MorselDetail
        } else {
            ExecStrategy::MorselBase
        };
        match faulted_run(&b, &r, strategy, &ctx) {
            Ok(out) => prop_assert_eq!(expected.rows(), out.rows()),
            Err(CoreError::DeadlineExceeded) => {}
            Err(other) => prop_assert!(false, "unclean failure: {other:?}"),
        }
    }
}

/// Deterministic single-thread reproduction: the same seed injects at the
/// same sites, so two identical runs agree error-for-error.
#[test]
fn single_threaded_faulted_runs_are_reproducible() {
    quiet_injected_panics();
    let r = sales(400);
    let b = basevalues::group_by(&r, &["cust"]).unwrap();
    let run = |seed: u64| {
        let fault = Arc::new(FaultInjector::new(seed).period(2).panics(1));
        let ctx = ExecContext::new()
            .with_morsel_size(16)
            .with_morsel_retries(0)
            .with_fault_injector(fault);
        MdJoin::new(&b, &r)
            .aggs(&specs())
            .theta(eq(col_b("cust"), col_r("cust")))
            .strategy(ExecStrategy::MorselDetail)
            .threads(1)
            .run(&ctx)
            .map(|rel| rel.rows().to_vec())
            .map_err(|e| e.to_string())
    };
    assert_eq!(run(12345), run(12345));
    assert_eq!(run(999), run(999));
}

/// The isolation boundary and fault site cover the paged source like any
/// other: an injected morsel panic over a page run is retried — the retry
/// absorbs a bounded fault exactly — and past the retry budget it surfaces as
/// `MorselPanicked`, never a propagated panic. Either way the unwinding
/// worker's page is unpinned: the pool's pin count is back to zero.
#[test]
fn paged_morsel_panic_is_retried_then_reported_and_unpins() {
    use mdj_storage::{BufferPool, PagedStore};
    quiet_injected_panics();
    let dir = std::env::temp_dir().join(format!("mdj-pager-fault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (store, _) = PagedStore::open(&dir).unwrap();
    let table = store.create_table("t", &sales(600), "month", 256).unwrap();
    let scan = PagedScan::new(table, BufferPool::new(16 * 256));
    let clustered = scan.materialize(&ExecContext::new()).unwrap();
    let b = basevalues::group_by(&clustered, &["cust"]).unwrap();
    let expected = serial_answer(&b, &clustered);
    let run = |panics: u64, threads: usize, stats: Arc<ScanStats>| {
        let fault = Arc::new(FaultInjector::new(7).period(1).panics(panics));
        let ctx = ExecContext::new()
            .with_morsel_size(32)
            .with_morsel_retries(1)
            .with_stats(stats)
            .with_fault_injector(fault);
        let out = MdJoin::paged(&b, &scan)
            .aggs(&specs())
            .theta(eq(col_b("cust"), col_r("cust")))
            .strategy(ExecStrategy::MorselDetail)
            .threads(threads)
            .run(&ctx);
        assert_eq!(scan.pool().pinned_total(), 0, "a page stayed pinned");
        out
    };
    // One panic, one retry: absorbed, exact answer, one recorded retry.
    let stats = Arc::new(ScanStats::new());
    let out = run(1, 2, stats.clone()).unwrap();
    assert_eq!(expected.rows(), out.rows());
    assert_eq!(stats.morsel_retries(), 1);
    // The first morsel's attempt and its one retry both panic: reported.
    let stats = Arc::new(ScanStats::new());
    match run(2, 1, stats.clone()) {
        Err(e @ CoreError::MorselPanicked { attempts: 2, .. }) => assert!(e.is_governor()),
        other => panic!("want MorselPanicked after the retry, got {other:?}"),
    }
    assert_eq!(stats.morsel_retries(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash-recovery drills for the paged table store, driven through the
/// engine's [`FaultInjector`] pager sites (`PagerFaults` is implemented for
/// the injector, so the store consumes the same seeded budgets as every
/// other subsystem). Each test kills the writer at a different point in the
/// append/checkpoint protocol, reopens the directory, and asserts that boot
/// recovery discards exactly the untrusted bytes — never a sealed row — and
/// says so in its report.
mod pager_crash_recovery {
    use super::*;
    use mdj_storage::pager::MANIFEST_FILE;
    use mdj_storage::{PagedStore, PagerFaults, StorageError};
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    /// Gate around the injector so the boot-time checkpoint of
    /// `open_with_faults` runs clean and the armed budget hits the *append*
    /// path under test. `skip_writes` lets a test step past the data-file
    /// write to kill the manifest checkpoint specifically.
    #[derive(Debug)]
    struct ArmedFaults {
        armed: AtomicBool,
        skip_writes: AtomicU64,
        inner: FaultInjector,
    }

    impl ArmedFaults {
        fn new(inner: FaultInjector) -> Arc<ArmedFaults> {
            Arc::new(ArmedFaults {
                armed: AtomicBool::new(false),
                skip_writes: AtomicU64::new(0),
                inner,
            })
        }
    }

    impl PagerFaults for ArmedFaults {
        fn fail_page_write(&self) -> bool {
            if !self.armed.load(Ordering::Relaxed) {
                return false;
            }
            let skip = self.skip_writes.load(Ordering::Relaxed);
            if skip > 0 {
                self.skip_writes.store(skip - 1, Ordering::Relaxed);
                return false;
            }
            self.inner.should_fail_pager_write()
        }

        fn fail_fsync(&self) -> bool {
            self.armed.load(Ordering::Relaxed) && self.inner.should_fail_pager_fsync()
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mdj-pager-crash-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Seed a directory with a 40-row clustered table and close the store.
    fn seeded(dir: &Path) {
        let (store, boot) = PagedStore::open(dir).unwrap();
        assert!(!boot.recovered_anything());
        store.create_table("t", &sales(40), "month", 256).unwrap();
    }

    /// The recovered store must answer the standard query identically to an
    /// in-memory run over its own (sealed) rows.
    fn assert_answers(store: &PagedStore, expected_rows: u64) {
        let t = store.table("t").unwrap();
        assert_eq!(t.row_count(), expected_rows);
        let r = t.read_all(None).unwrap();
        assert_eq!(r.len() as u64, expected_rows);
        let b = basevalues::group_by(&r, &["cust"]).unwrap();
        let out = serial_answer(&b, &r);
        assert_eq!(out.len(), b.len());
    }

    /// A torn data-file write (half the batch's bytes reach disk) surfaces
    /// as a typed error, leaves the in-memory state at the sealed
    /// generation, and the garbage tail is truncated — and reported — on
    /// the next boot.
    #[test]
    fn torn_append_is_discarded_and_reported_on_reboot() {
        let dir = scratch("torn-append");
        seeded(&dir);
        let sealed = std::fs::metadata(dir.join("t.pages")).unwrap().len();
        {
            let faults = ArmedFaults::new(FaultInjector::new(7).period(1).pager_write_failures(1));
            let (store, boot) =
                PagedStore::open_with_faults(&dir, Arc::clone(&faults) as _).unwrap();
            assert!(!boot.recovered_anything(), "clean dir, clean boot");
            faults.armed.store(true, Ordering::Relaxed);
            let err = store.append("t", sales(30).rows()).unwrap_err();
            assert!(matches!(err, StorageError::PagerIo { .. }), "{err:?}");
            assert_eq!(faults.inner.pager_faults_injected(), 1);
            assert_eq!(store.table("t").unwrap().row_count(), 40);
        }
        assert!(
            std::fs::metadata(dir.join("t.pages")).unwrap().len() > sealed,
            "the torn prefix must be on disk for recovery to have work"
        );
        let (store, report) = PagedStore::open(&dir).unwrap();
        assert_eq!(report.torn_tables, 1);
        assert!(report.orphan_bytes > 0);
        assert!(report.recovered_anything());
        assert_eq!(
            std::fs::metadata(dir.join("t.pages")).unwrap().len(),
            sealed
        );
        assert_answers(&store, 40);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Killing the writer *between* sealing the batch's pages and
    /// committing the manifest: the durable data tail is unsealed, the torn
    /// `MANIFEST.tmp` is never trusted, and reboot serves exactly the
    /// pre-append generation.
    #[test]
    fn death_mid_checkpoint_falls_back_to_the_sealed_generation() {
        let dir = scratch("mid-checkpoint");
        seeded(&dir);
        let sealed = std::fs::metadata(dir.join("t.pages")).unwrap().len();
        {
            let faults = ArmedFaults::new(FaultInjector::new(11).period(1).pager_write_failures(1));
            let (store, _) = PagedStore::open_with_faults(&dir, Arc::clone(&faults) as _).unwrap();
            faults.armed.store(true, Ordering::Relaxed);
            // Let the data-file write through; kill the manifest tmp write.
            faults.skip_writes.store(1, Ordering::Relaxed);
            let err = store.append("t", sales(30).rows()).unwrap_err();
            assert!(matches!(err, StorageError::PagerIo { .. }), "{err:?}");
            // Rollback: the unsealed pages are not served even pre-reboot.
            assert_eq!(store.table("t").unwrap().row_count(), 40);
        }
        assert!(
            dir.join("MANIFEST.tmp").exists(),
            "the torn checkpoint must leave its tmp behind"
        );
        let (store, report) = PagedStore::open(&dir).unwrap();
        assert_eq!(report.tmp_removed, 1, "tmp is discarded unread");
        assert_eq!(report.torn_tables, 1, "unsealed data tail is truncated");
        assert!(report.orphan_bytes > 0);
        assert_eq!(
            std::fs::metadata(dir.join("t.pages")).unwrap().len(),
            sealed
        );
        assert!(!dir.join("MANIFEST.tmp").exists());
        assert_answers(&store, 40);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A failed fsync means durability was never promised: the append
    /// errors out, and after reboot the batch has simply never happened.
    #[test]
    fn failed_fsync_means_the_batch_never_happened() {
        let dir = scratch("fsync");
        seeded(&dir);
        {
            let faults = ArmedFaults::new(FaultInjector::new(23).period(1).pager_fsync_failures(1));
            let (store, _) = PagedStore::open_with_faults(&dir, Arc::clone(&faults) as _).unwrap();
            faults.armed.store(true, Ordering::Relaxed);
            let err = store.append("t", sales(30).rows()).unwrap_err();
            assert!(matches!(err, StorageError::PagerIo { .. }), "{err:?}");
            assert_eq!(faults.inner.pager_faults_injected(), 1);
        }
        let (store, report) = PagedStore::open(&dir).unwrap();
        // The write itself completed, so recovery truncates the unsealed
        // (never-fsynced) tail.
        assert_eq!(report.torn_tables, 1);
        assert_answers(&store, 40);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A corrupted `MANIFEST` (torn rename, bad sector) falls back to
    /// `MANIFEST.prev`: the previous generation is served, the boot report
    /// says so, and the next checkpoint re-seals a healthy manifest.
    #[test]
    fn corrupt_manifest_falls_back_to_prev_generation() {
        let dir = scratch("manifest-fallback");
        seeded(&dir);
        {
            // A second checkpoint so MANIFEST.prev exists.
            let (store, _) = PagedStore::open(&dir).unwrap();
            store.append("t", sales(10).rows()).unwrap();
        }
        let manifest = dir.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&manifest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&manifest, &bytes).unwrap();
        let (store, report) = PagedStore::open(&dir).unwrap();
        assert!(report.manifest_fallback, "must report the fallback");
        assert!(report.recovered_anything());
        // prev sealed some earlier generation; whichever it is, the store
        // must be consistent and queryable, with at least the seeded rows.
        let rows = store.table("t").unwrap().row_count();
        assert!(rows >= 40, "sealed rows lost: {rows}");
        assert_answers(&store, rows);
        // Recovery re-checkpointed: a fresh open is clean.
        drop(store);
        let (_store, clean) = PagedStore::open(&dir).unwrap();
        assert!(!clean.manifest_fallback, "repair must stick");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
