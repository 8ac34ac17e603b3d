//! Integration tests for the query governor: cooperative cancellation,
//! wall-clock deadlines, and memory budgets with Theorem 4.1 degradation —
//! exercised through the public [`MdJoin`] builder across *every*
//! [`ExecStrategy`]: the poll sites and charges live once in the executor
//! core, and every (driver, evaluator) pair must reach them.

use mdj_core::governor::{index_bytes, state_bytes};
use mdj_core::prelude::*;
use mdj_storage::Group;
use std::sync::Arc;
use std::time::Duration;

fn sales(rows: usize) -> Relation {
    let schema = Schema::from_pairs(&[
        ("cust", DataType::Int),
        ("month", DataType::Int),
        ("sale", DataType::Float),
    ]);
    let data = (0..rows)
        .map(|i| {
            Row::from_values(vec![
                Value::Int((i % 23) as i64),
                Value::Int((i % 12) as i64),
                Value::Float((i % 97) as f64),
            ])
        })
        .collect();
    Relation::from_rows(schema, data)
}

fn base_of(r: &Relation) -> Relation {
    basevalues::group_by(r, &["cust"]).unwrap()
}

fn specs() -> Vec<AggSpec> {
    vec![
        AggSpec::count_star(),
        AggSpec::on_column("sum", "sale"),
        AggSpec::on_column("avg", "sale"),
    ]
}

fn theta() -> Expr {
    eq(col_b("cust"), col_r("cust"))
}

/// Every strategy the builder can plan: all three drivers (serial,
/// base-partitioned sequential and parallel, detail-parallel) under both
/// evaluators.
fn all_strategies() -> Vec<ExecStrategy> {
    vec![
        ExecStrategy::Auto,
        ExecStrategy::Serial,
        ExecStrategy::Partitioned { partitions: 3 },
        ExecStrategy::Morsel,
        ExecStrategy::MorselBase,
        ExecStrategy::MorselDetail,
        ExecStrategy::Vectorized,
    ]
}

fn join<'a>(b: &'a Relation, r: &'a Relation, strategy: ExecStrategy) -> MdJoin<'a> {
    MdJoin::new(b, r)
        .aggs(&specs())
        .theta(theta())
        .strategy(strategy)
        .threads(2)
}

// ---------------------------------------------------------------- cancellation

#[test]
fn pre_cancelled_token_stops_every_strategy() {
    let r = sales(2_000);
    let b = base_of(&r);
    for strategy in all_strategies() {
        let token = CancelToken::new();
        token.cancel();
        let err = join(&b, &r, strategy)
            .cancel_token(token)
            .run(&ExecContext::new())
            .unwrap_err();
        assert!(
            matches!(err, CoreError::Cancelled),
            "{strategy:?} returned {err:?}, want Cancelled"
        );
    }
}

#[test]
fn cancellation_errors_are_typed_and_classified() {
    let err = CoreError::Cancelled;
    assert!(err.is_governor());
    assert_eq!(err.to_string(), "query cancelled");
}

/// Cancelling from another thread mid-run stops the query: either the cancel
/// lands while the scan is still going (typed error) or the query finishes
/// first (small inputs are legitimately fast) — it must never hang or panic.
#[test]
fn mid_run_cancel_is_either_clean_result_or_typed_error() {
    let r = sales(50_000);
    let b = base_of(&r);
    for strategy in [ExecStrategy::Serial, ExecStrategy::Morsel] {
        let token = CancelToken::new();
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_micros(200));
                token.cancel();
            })
        };
        let result = join(&b, &r, strategy)
            .cancel_token(token)
            .run(&ExecContext::new());
        canceller.join().unwrap();
        match result {
            Ok(rel) => assert_eq!(rel.len(), b.len()),
            Err(CoreError::Cancelled) => {}
            Err(other) => panic!("{strategy:?}: unexpected error {other:?}"),
        }
    }
}

// ------------------------------------------------------------------- deadlines

#[test]
fn expired_deadline_stops_every_strategy() {
    let r = sales(2_000);
    let b = base_of(&r);
    for strategy in all_strategies() {
        let err = join(&b, &r, strategy)
            .deadline(Duration::ZERO)
            .run(&ExecContext::new())
            .unwrap_err();
        assert!(
            matches!(err, CoreError::DeadlineExceeded),
            "{strategy:?} returned {err:?}, want DeadlineExceeded"
        );
    }
}

#[test]
fn generous_deadline_changes_nothing() {
    let r = sales(3_000);
    let b = base_of(&r);
    let expected = join(&b, &r, ExecStrategy::Serial)
        .run(&ExecContext::new())
        .unwrap();
    for strategy in all_strategies() {
        let got = join(&b, &r, strategy)
            .deadline(Duration::from_secs(3600))
            .run(&ExecContext::new())
            .unwrap();
        assert!(
            expected.same_multiset(&got),
            "{strategy:?} output differs under a generous deadline"
        );
    }
}

#[test]
fn governor_polls_are_counted_in_stats_and_explain_surface() {
    let r = sales(5_000);
    let b = base_of(&r);
    let stats = Arc::new(ScanStats::new());
    let ctx = ExecContext::new()
        .with_stats(stats.clone())
        .with_deadline(Duration::from_secs(3600));
    join(&b, &r, ExecStrategy::Serial).run(&ctx).unwrap();
    assert!(stats.cancel_polls() > 0, "serial scan never polled");
    let snap = stats.snapshot();
    assert!(snap.active(Group::Governor));
    assert!(snap.to_string().contains("governor:"));
}

// -------------------------------------------------- budgets + Theorem 4.1

/// Estimated per-base-row footprint of this query (state + hash index).
fn per_row() -> usize {
    state_bytes(1, specs().len()) + index_bytes(1)
}

#[test]
fn budget_breach_degrades_into_partitioned_evaluation() {
    let r = sales(4_000);
    let b = base_of(&r); // 23 base rows
    let expected = join(&b, &r, ExecStrategy::Serial)
        .run(&ExecContext::new())
        .unwrap();

    // Room for ~5 of 23 base rows: serial must breach, then re-plan with
    // Theorem 4.1 partitions until each piece fits.
    let stats = Arc::new(ScanStats::new());
    let ctx = ExecContext::new().with_stats(stats.clone());
    let got = join(&b, &r, ExecStrategy::Serial)
        .budget_bytes(5 * per_row())
        .run(&ctx)
        .unwrap();

    assert_eq!(
        expected.rows(),
        got.rows(),
        "degraded run must be row-identical to the unbudgeted serial run"
    );
    assert!(
        stats.degradations() >= 1,
        "no degradation event recorded: {}",
        stats.snapshot()
    );
    assert!(
        stats.scans() > 1,
        "Theorem 4.1 trades memory for extra scans of R; got {}",
        stats.scans()
    );
}

#[test]
fn budget_degradation_works_from_auto_and_partitioned_plans() {
    let r = sales(4_000);
    let b = base_of(&r);
    let expected = join(&b, &r, ExecStrategy::Serial)
        .run(&ExecContext::new())
        .unwrap();
    for strategy in [
        ExecStrategy::Auto,
        ExecStrategy::Partitioned { partitions: 2 },
    ] {
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new().with_stats(stats.clone());
        let got = join(&b, &r, strategy)
            .budget_bytes(5 * per_row())
            .run(&ctx)
            .unwrap();
        assert!(
            expected.same_multiset(&got),
            "{strategy:?} under budget differs from serial"
        );
        assert!(
            stats.degradations() >= 1,
            "{strategy:?} never degraded under a 5-row budget"
        );
    }
}

#[test]
fn impossible_budget_is_a_typed_error() {
    let r = sales(500);
    let b = base_of(&r);
    // One byte cannot hold even a single-row partition: degradation runs out
    // of partitions to add and surfaces the breach.
    let err = join(&b, &r, ExecStrategy::Serial)
        .budget_bytes(1)
        .run(&ExecContext::new())
        .unwrap_err();
    match err {
        CoreError::BudgetExceeded { needed, budget } => {
            assert_eq!(budget, 1);
            assert!(needed > 1);
            assert!(err.is_governor());
        }
        other => panic!("want BudgetExceeded, got {other:?}"),
    }
}

#[test]
fn ample_budget_changes_nothing_for_any_strategy() {
    let r = sales(3_000);
    let b = base_of(&r);
    let expected = join(&b, &r, ExecStrategy::Serial)
        .run(&ExecContext::new())
        .unwrap();
    for strategy in all_strategies() {
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new().with_stats(stats.clone());
        let got = join(&b, &r, strategy)
            .budget_bytes(1 << 30)
            .run(&ctx)
            .unwrap();
        assert!(
            expected.same_multiset(&got),
            "{strategy:?} output differs under an ample budget"
        );
        assert_eq!(
            stats.degradations(),
            0,
            "{strategy:?} degraded under an ample budget"
        );
        assert!(
            stats.bytes_charged() > 0,
            "{strategy:?} charged nothing against the tracker"
        );
    }
}

// ------------------------------------------------- spill accounting invariants

/// Spilling degradation (`SpillPolicy::Always`) under a tight budget: the
/// answer is row-identical to serial, the accounting invariants hold —
/// nothing stays charged, nothing reads more than was written — and the
/// spill counters reach the `EXPLAIN ANALYZE` surface.
#[test]
fn spill_degradation_conserves_accounting_and_surfaces_counters() {
    let r = sales(4_000);
    let b = base_of(&r); // 23 base rows
    let expected = join(&b, &r, ExecStrategy::Serial)
        .run(&ExecContext::new())
        .unwrap();
    let dir = std::env::temp_dir().join(format!("mdj-governor-spill-{}", std::process::id()));
    let stats = Arc::new(ScanStats::new());
    let ctx = ExecContext::new()
        .with_budget_bytes(5 * per_row())
        .with_spill_policy(SpillPolicy::Always)
        .with_spill_dir(&dir)
        .with_stats(stats.clone());
    let got = join(&b, &r, ExecStrategy::Serial).run(&ctx).unwrap();
    assert_eq!(
        expected.rows(),
        got.rows(),
        "spilling run must be row-identical to the unbudgeted serial run"
    );
    assert!(stats.spill_partitions() > 0, "Always policy never spilled");
    assert!(stats.spill_read_bytes() > 0);
    // Conservation: no attempt reads more than it wrote (an attempt aborted
    // by a skewed-bucket breach drops its remaining run files unread, so
    // spilled can strictly exceed read across retries)...
    assert!(stats.bytes_spilled() >= stats.spill_read_bytes());
    // ...and every charged byte is released by the end of the query.
    assert_eq!(ctx.memory().unwrap().charged(), 0);
    assert!(stats.bytes_charged() > 0);
    // Counters reach the EXPLAIN ANALYZE surface.
    let snap = stats.snapshot();
    assert!(snap.active(Group::Spill));
    let rendered = snap.to_string();
    assert!(
        rendered.contains("spill:"),
        "missing spill line: {rendered}"
    );
    // RAII: the spill directory holds no run files after the query.
    if let Ok(entries) = std::fs::read_dir(&dir) {
        assert_eq!(entries.count(), 0, "leaked run files");
    }
    let _ = std::fs::remove_dir(&dir);
}

/// Exact `bytes_spilled == spill_read_bytes` conservation holds whenever
/// the first spill attempt succeeds (one degradation, no skew retry). Scan
/// budgets from generous to tight and pin the invariant on every such run.
#[test]
fn single_attempt_spill_reads_back_every_byte_written() {
    let r = sales(4_000);
    let b = base_of(&r);
    let expected = join(&b, &r, ExecStrategy::Serial)
        .run(&ExecContext::new())
        .unwrap();
    let dir = std::env::temp_dir().join(format!("mdj-governor-spill1-{}", std::process::id()));
    let mut pinned = 0;
    for mult in [20, 14, 10, 7, 5, 3] {
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new()
            .with_spill_policy(SpillPolicy::Always)
            .with_spill_dir(&dir)
            .with_stats(stats.clone());
        let got = join(&b, &r, ExecStrategy::Serial)
            .budget_bytes(mult * per_row())
            .run(&ctx)
            .unwrap();
        assert_eq!(expected.rows(), got.rows(), "budget {mult}×per_row");
        if stats.spill_partitions() > 0 && stats.degradations() == 1 {
            assert_eq!(
                stats.bytes_spilled(),
                stats.spill_read_bytes(),
                "single-attempt spill at {mult}×per_row must read back every byte"
            );
            pinned += 1;
        }
    }
    assert!(
        pinned > 0,
        "no budget in the grid produced a single-attempt spilling run"
    );
    let _ = std::fs::remove_dir(&dir);
}

/// `SpillPolicy::Never` forces rescan degradation: same answer, more scans,
/// and the spill counters stay at zero.
#[test]
fn never_policy_degrades_by_rescan_only() {
    let r = sales(4_000);
    let b = base_of(&r);
    let expected = join(&b, &r, ExecStrategy::Serial)
        .run(&ExecContext::new())
        .unwrap();
    let stats = Arc::new(ScanStats::new());
    let ctx = ExecContext::new()
        .with_spill_policy(SpillPolicy::Never)
        .with_stats(stats.clone());
    let got = join(&b, &r, ExecStrategy::Serial)
        .budget_bytes(5 * per_row())
        .run(&ctx)
        .unwrap();
    assert_eq!(expected.rows(), got.rows());
    assert!(stats.degradations() >= 1);
    assert!(stats.scans() > 1, "rescan degradation re-scans R");
    assert_eq!(stats.spill_partitions(), 0);
    assert_eq!(stats.bytes_spilled(), 0);
    assert_eq!(stats.spill_read_bytes(), 0);
    assert!(!stats.snapshot().active(Group::Spill));
}

// --------------------------------------------------------- builder overrides

#[test]
fn builder_overrides_leave_the_callers_context_untouched() {
    let r = sales(1_000);
    let b = base_of(&r);
    let ctx = ExecContext::new();
    join(&b, &r, ExecStrategy::Serial)
        .budget_bytes(1 << 30)
        .deadline(Duration::from_secs(3600))
        .cancel_token(CancelToken::new())
        .run(&ctx)
        .unwrap();
    assert!(ctx.memory().is_none());
    assert!(ctx.deadline().is_none());
    assert!(ctx.cancel().is_none());
}

#[test]
fn generalized_blocks_respect_the_governor() {
    let r = sales(2_000);
    let b = base_of(&r);
    let blocks = vec![
        Block::new(theta(), vec![AggSpec::on_column("sum", "sale")]),
        Block::new(
            and(theta(), le(col_r("month"), lit(5i64))),
            vec![AggSpec::count_star()],
        ),
    ];
    let token = CancelToken::new();
    token.cancel();
    let err = MdJoin::new(&b, &r)
        .blocks(blocks.clone())
        .cancel_token(token)
        .run(&ExecContext::new())
        .unwrap_err();
    assert!(matches!(err, CoreError::Cancelled));

    let err = MdJoin::new(&b, &r)
        .blocks(blocks)
        .deadline(Duration::ZERO)
        .run(&ExecContext::new())
        .unwrap_err();
    assert!(matches!(err, CoreError::DeadlineExceeded));
}
