//! Spill-path fault injection (compiled only with `--features
//! fault-injection`).
//!
//! Spill partitions are temporary page tables, so their one I/O fault site
//! is the pager's page write, armed through [`FaultInjector`]'s
//! `pager_write_failures`: a page write tears mid-way, exactly where a full
//! disk would surface. (Corruption on read is the page checksum's job,
//! pinned by the pager's own tests.)
//!
//! The properties pin the failure model from DESIGN §8: a faulted spilling
//! run either completes with the *exact* serial answer (the injector never
//! fired) or fails with a typed `PagerIo` error — never a partial result,
//! never a panic — and every failure path removes all of its spill files
//! via RAII before the error reaches the caller.
#![cfg(feature = "fault-injection")]

use mdj_core::prelude::*;
use mdj_storage::StorageError;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

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

/// A per-test spill directory so cleanup assertions cannot race other
/// tests in the same binary.
fn spill_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mdj-spill-faults-{}-{tag}", std::process::id()))
}

/// No spill file may survive a query, successful or not.
fn assert_no_leaked_runs(dir: &Path) -> std::result::Result<(), String> {
    if let Ok(entries) = std::fs::read_dir(dir) {
        let leaked: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        if !leaked.is_empty() {
            return Err(format!("leaked spill files: {leaked:?}"));
        }
    }
    Ok(())
}

/// A tight budget plus `SpillPolicy::Always` forces the degradation loop
/// onto the spill path (the θ below offers a `cust` partition key).
fn spilling_ctx(dir: &Path, fault: Arc<FaultInjector>, stats: Arc<ScanStats>) -> ExecContext {
    ExecContext::new()
        .with_budget_bytes(2048)
        .with_spill_policy(SpillPolicy::Always)
        .with_spill_dir(dir)
        .with_stats(stats)
        .with_fault_injector(fault)
}

fn faulted_run(b: &Relation, r: &Relation, ctx: &ExecContext) -> Result<Relation> {
    MdJoin::new(b, r)
        .aggs(&specs())
        .theta(eq(col_b("cust"), col_r("cust")))
        .strategy(ExecStrategy::Serial)
        .run(ctx)
}

/// Control: with the injector armed but zero fault budget, the same
/// configuration really does spill and really does succeed — so the
/// properties below genuinely exercise the spill page writes.
#[test]
fn control_run_spills_and_succeeds() {
    let r = sales(600);
    let b = basevalues::group_by(&r, &["cust"]).unwrap();
    let dir = spill_dir("control");
    let fault = Arc::new(FaultInjector::new(7).period(1));
    let stats = Arc::new(ScanStats::new());
    let out = faulted_run(&b, &r, &spilling_ctx(&dir, fault, stats.clone())).unwrap();
    assert_eq!(serial_answer(&b, &r).rows(), out.rows());
    assert!(stats.spill_partitions() > 0, "control run must spill");
    assert!(stats.spill_read_bytes() > 0);
    assert_no_leaked_runs(&dir).unwrap();
    let _ = std::fs::remove_dir(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Injected torn page writes while spilling: the run either never hits
    /// the fault and answers exactly, or fails with the pager's typed
    /// `PagerIo` error; both ways the spill directory is left empty and no
    /// bytes remain charged.
    #[test]
    fn injected_write_failures_are_typed_and_leak_free(
        seed in 0u64..1_000,
        period in 1u64..4,
    ) {
        let r = sales(600);
        let b = basevalues::group_by(&r, &["cust"]).unwrap();
        let expected = serial_answer(&b, &r);
        let dir = spill_dir(&format!("w{seed}-{period}"));
        let fault = Arc::new(
            FaultInjector::new(seed).period(period).pager_write_failures(1),
        );
        let stats = Arc::new(ScanStats::new());
        let ctx = spilling_ctx(&dir, fault.clone(), stats.clone());
        match faulted_run(&b, &r, &ctx) {
            Ok(out) => {
                prop_assert_eq!(expected.rows(), out.rows());
                prop_assert_eq!(fault.pager_faults_injected(), 0,
                    "an injected write failure must fail the query, not pass silently");
            }
            Err(e) => {
                prop_assert!(matches!(
                    &e,
                    CoreError::Storage(StorageError::PagerIo { .. })
                ), "write faults must surface as PagerIo: {e:?}");
                prop_assert!(fault.pager_faults_injected() > 0,
                    "PagerIo error without an injected fault");
            }
        }
        // Failure or success: RAII removed every spill file and released
        // every charged byte.
        if let Err(msg) = assert_no_leaked_runs(&dir) {
            prop_assert!(false, "{}", msg);
        }
        prop_assert_eq!(ctx.memory().unwrap().charged(), 0);
        let _ = std::fs::remove_dir(&dir);
    }
}

/// Determinism: the same seed injects at the same spill sites, so two
/// identical runs agree error-for-error (the reproduction contract that
/// makes fault reports actionable).
#[test]
fn faulted_spill_runs_are_reproducible() {
    let r = sales(600);
    let b = basevalues::group_by(&r, &["cust"]).unwrap();
    let run = |seed: u64, tag: &str| {
        let dir = spill_dir(tag);
        let fault = Arc::new(FaultInjector::new(seed).period(2).pager_write_failures(1));
        let ctx = spilling_ctx(&dir, fault, Arc::new(ScanStats::new()));
        let out = faulted_run(&b, &r, &ctx)
            .map(|rel| rel.rows().to_vec())
            // Canonicalize: the message embeds the (unique) spill-file path;
            // everything after it — error kind and injected detail — must
            // reproduce exactly.
            .map_err(|e| {
                let msg = e.to_string();
                match msg.split_once(".run`: ") {
                    Some((_, detail)) => format!("spill fault: {detail}"),
                    None => msg,
                }
            });
        assert_no_leaked_runs(&dir).unwrap();
        let _ = std::fs::remove_dir(&dir);
        out
    };
    assert_eq!(run(12345, "d1a"), run(12345, "d1b"));
    assert_eq!(run(999, "d2a"), run(999, "d2b"));
    // At least one seed in a small scan must actually trip a fault, so the
    // reproduction check is not vacuous.
    let tripped = (0..40u64).any(|s| run(s, &format!("scan{s}")).is_err());
    assert!(tripped, "no seed in 0..40 tripped a spill fault");
}
