//! Concurrent multi-session stress tests for the query service.
//!
//! The acceptance bar from the server issue: ≥ 8 concurrent sessions over
//! ONE shared `Arc<EngineConfig>`, running a mix of light and heavy (E1/E8-
//! shaped and cube) prepared statements with random mid-flight cancels,
//! where
//!
//! * every successful result is **bit-identical** to the same statement
//!   executed serially, single-user (floats compared by `to_bits`);
//! * every failure is one of the typed governor outcomes — `cancelled`,
//!   `deadline_exceeded`, `pool_exhausted`, `queue_full` — never a panic
//!   or a stringly error;
//! * the global memory pool drains back to exactly zero bytes;
//! * no spill files are left behind;
//! * per-query `ScanStats` never bleed between sessions (the PR-1→PR-5
//!   context carried one shared stats object; this is the regression test
//!   that keeps counters strictly per-query).

use mdj_core::EngineConfig;
use mdj_server::{ExecOptions, QueryService, ServiceConfig};
use mdj_storage::{Row, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const SESSIONS: usize = 8;
const ITERS_PER_SESSION: usize = 6;

/// The mixed workload: a cheap selective probe, an E1/E8-shaped grouping-
/// variable query (the heavy MD-join path), and a cube. All prepared once
/// per session and re-bound per execution.
const STATEMENTS: [&str; 3] = [
    "select cust, sum(sale) from Sales where month = ? group by cust",
    "select cust, count(Z.*) as big, avg(Z.sale) as a from Sales \
     group by cust ; Z such that Z.cust = cust and Z.sale > ?",
    "select prod, month, sum(sale) from Sales analyze by cube(prod, month)",
];

/// Parameter pools per statement (empty = no placeholders).
fn param_choices(stmt: usize) -> Vec<Vec<Value>> {
    match stmt {
        0 => (1..=6).map(|m| vec![Value::Int(m)]).collect(),
        1 => [100.0, 400.0, 700.0, 900.0]
            .iter()
            .map(|t| vec![Value::Float(*t)])
            .collect(),
        _ => vec![vec![]],
    }
}

/// Identical budget in the serial baseline and the concurrent run, so both
/// degrade alike and results stay bit-identical.
const QUERY_BUDGET: usize = 4 << 20;

fn shared_engine(spill_dir: &Path) -> Arc<EngineConfig> {
    let sales = mdj_datagen::sales(&mdj_datagen::SalesConfig::default().with_rows(6_000));
    EngineConfig::new()
        .register_table("Sales", sales)
        .with_spill_dir(spill_dir)
        .build()
}

/// Canonical, bitwise-faithful key for a result set: rows rendered with
/// `f64::to_bits` for floats, then sorted (executors do not promise a row
/// order, only a multiset).
fn canonical(rows: &[Row]) -> Vec<String> {
    let mut keys: Vec<String> = rows
        .iter()
        .map(|row| {
            row.values()
                .iter()
                .map(|v| match v {
                    Value::Null => "N".to_string(),
                    Value::All => "A".to_string(),
                    Value::Int(i) => format!("i{i}"),
                    Value::Float(f) => format!("f{:016x}", f.to_bits()),
                    Value::Str(s) => format!("s{s}"),
                    Value::Bool(b) => format!("b{b}"),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    keys.sort();
    keys
}

struct Baseline {
    /// (statement index, param index) → canonical rows + per-query counters.
    results: BTreeMap<(usize, usize), (Vec<String>, u64, u64)>,
}

/// Run every (statement, params) combination serially, single-user, over
/// the same engine config the stress threads will share.
fn serial_baseline(engine: &Arc<EngineConfig>) -> Baseline {
    let svc = QueryService::new(
        engine.clone(),
        ServiceConfig {
            pool_bytes: 1 << 30,
            default_deadline: None,
            ..ServiceConfig::default()
        },
    );
    let sid = svc.open_session();
    let mut results = BTreeMap::new();
    for (si, sql) in STATEMENTS.iter().enumerate() {
        let (stmt, _) = svc.prepare(sid, sql).unwrap();
        for (pi, params) in param_choices(si).iter().enumerate() {
            let out = svc
                .execute(
                    sid,
                    stmt,
                    params,
                    ExecOptions {
                        budget: Some(QUERY_BUDGET),
                        ..ExecOptions::default()
                    },
                )
                .unwrap();
            results.insert(
                (si, pi),
                (
                    canonical(out.relation.rows()),
                    out.stats.tuples_scanned,
                    out.stats.updates,
                ),
            );
        }
    }
    assert_eq!(svc.pool().reserved(), 0);
    Baseline { results }
}

fn temp_spill_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mdj_conc_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn eight_sessions_mixed_workload_with_random_cancels() {
    let spill_dir = temp_spill_dir("stress");
    let engine = shared_engine(&spill_dir);
    let baseline = serial_baseline(&engine);

    // A pool deliberately smaller than SESSIONS × QUERY_BUDGET so admission
    // control actually has to queue and shed under full concurrency.
    let svc = QueryService::new(
        engine.clone(),
        ServiceConfig {
            pool_bytes: 5 * QUERY_BUDGET,
            default_budget: QUERY_BUDGET,
            max_waiters: 2,
            admission_wait: Duration::from_millis(40),
            default_deadline: Some(Duration::from_secs(30)),
        },
    );

    let mut ok = 0usize;
    let mut cancelled = 0usize;
    let mut deadline = 0usize;
    let mut shed = 0usize;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|t| {
                let svc = &svc;
                let baseline = &baseline;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xC0FFEE + t as u64);
                    let sid = svc.open_session();
                    let stmts: Vec<u64> = STATEMENTS
                        .iter()
                        .map(|sql| svc.prepare(sid, sql).unwrap().0)
                        .collect();
                    let mut tally = (0usize, 0usize, 0usize, 0usize);
                    for iter in 0..ITERS_PER_SESSION {
                        let si = rng.gen_range(0..STATEMENTS.len());
                        let choices = param_choices(si);
                        let pi = rng.gen_range(0..choices.len());
                        // A third of the iterations race a cancel against
                        // the query from a sibling thread.
                        let tag = format!("s{t}i{iter}");
                        let with_cancel = rng.gen_bool(1.0 / 3.0);
                        let cancel_handle = with_cancel.then(|| {
                            let delay = Duration::from_micros(rng.gen_range(50..8_000));
                            let tag = tag.clone();
                            scope.spawn(move || {
                                std::thread::sleep(delay);
                                let _ = svc.cancel(sid, &tag);
                            })
                        });
                        let result = svc.execute(
                            sid,
                            stmts[si],
                            &choices[pi],
                            ExecOptions {
                                budget: Some(QUERY_BUDGET),
                                tag: Some(tag),
                                ..ExecOptions::default()
                            },
                        );
                        if let Some(h) = cancel_handle {
                            h.join().unwrap();
                        }
                        match result {
                            Ok(out) => {
                                let (want_rows, _, _) = &baseline.results[&(si, pi)];
                                assert_eq!(
                                    &canonical(out.relation.rows()),
                                    want_rows,
                                    "session {t} stmt {si} param {pi}: result diverged from serial"
                                );
                                tally.0 += 1;
                            }
                            Err(e) => match e.code() {
                                "cancelled" => tally.1 += 1,
                                "deadline_exceeded" => tally.2 += 1,
                                "pool_exhausted" | "queue_full" => tally.3 += 1,
                                other => panic!("untyped outcome `{other}`: {e}"),
                            },
                        }
                    }
                    svc.close_session(sid).unwrap();
                    tally
                })
            })
            .collect();
        for h in handles {
            let (o, c, d, s) = h.join().expect("stress thread panicked");
            ok += o;
            cancelled += c;
            deadline += d;
            shed += s;
        }
    });

    let total = SESSIONS * ITERS_PER_SESSION;
    assert_eq!(ok + cancelled + deadline + shed, total);
    // Under a pool of 5 budgets across 8 sessions the workload cannot be
    // all-shed, and verification needs real completions.
    assert!(
        ok > 0,
        "no query completed ({cancelled} cancelled, {shed} shed)"
    );

    // Pool balance: every reservation returned, nobody still waiting.
    assert_eq!(svc.pool().reserved(), 0, "pool leaked bytes");
    assert_eq!(svc.pool().waiters(), 0, "pool leaked waiters");
    assert_eq!(svc.session_count(), 0);

    // No leaked spill files.
    let leftover: Vec<_> = std::fs::read_dir(&spill_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert!(leftover.is_empty(), "leaked spill files: {leftover:?}");
    let _ = std::fs::remove_dir_all(&spill_dir);
}

/// Satellite regression test: `ScanStats` are strictly per-query. Eight
/// sessions run the *same* statement concurrently; each must observe
/// exactly the serial counter values — a shared stats object would show
/// (roughly) summed counters instead.
#[test]
fn scan_stats_never_bleed_across_concurrent_sessions() {
    let spill_dir = temp_spill_dir("stats");
    let engine = shared_engine(&spill_dir);
    let baseline = serial_baseline(&engine);
    let (_, want_scanned, want_updates) = baseline.results[&(1, 2)].clone();

    let svc = QueryService::new(
        engine,
        ServiceConfig {
            pool_bytes: 1 << 30,
            default_deadline: None,
            ..ServiceConfig::default()
        },
    );
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|_| {
                let svc = &svc;
                scope.spawn(move || {
                    let sid = svc.open_session();
                    let (stmt, _) = svc.prepare(sid, STATEMENTS[1]).unwrap();
                    let out = svc
                        .execute(
                            sid,
                            stmt,
                            &param_choices(1)[2],
                            ExecOptions {
                                budget: Some(QUERY_BUDGET),
                                ..ExecOptions::default()
                            },
                        )
                        .unwrap();
                    svc.close_session(sid).unwrap();
                    (out.stats.tuples_scanned, out.stats.updates)
                })
            })
            .collect();
        for h in handles {
            let (scanned, updates) = h.join().unwrap();
            assert_eq!(scanned, want_scanned, "tuples_scanned bled across queries");
            assert_eq!(updates, want_updates, "updates bled across queries");
        }
    });
    assert_eq!(svc.pool().reserved(), 0);
    let _ = std::fs::remove_dir_all(&spill_dir);
}

/// A long cube query is cancelled mid-flight from another thread; the
/// outcome must be the typed `cancelled` error, the pool must drain, and
/// the session must stay usable afterwards.
#[test]
fn mid_flight_cancel_yields_typed_outcome_and_drains_pool() {
    let spill_dir = temp_spill_dir("cancel");
    let sales = mdj_datagen::sales(&mdj_datagen::SalesConfig::default().with_rows(30_000));
    let engine = EngineConfig::new()
        .register_table("Sales", sales)
        .with_spill_dir(spill_dir.clone())
        .build();
    let svc = QueryService::new(
        engine,
        ServiceConfig {
            default_deadline: None,
            ..ServiceConfig::default()
        },
    );
    let sid = svc.open_session();
    std::thread::scope(|scope| {
        let svc = &svc;
        // Retry until the cancel finds the query running (bounded), however
        // quickly it starts or runs.
        let canceller = scope.spawn(move || {
            (0..2_000).any(|_| {
                std::thread::sleep(Duration::from_millis(1));
                svc.cancel(sid, "slow").unwrap()
            })
        });
        let err = svc
            .query(
                sid,
                "select cust, prod, month, sum(sale) from Sales analyze by cube(cust, prod, month)",
                ExecOptions {
                    tag: Some("slow".into()),
                    ..ExecOptions::default()
                },
            )
            .unwrap_err();
        assert_eq!(err.code(), "cancelled", "{err}");
        assert!(
            canceller.join().unwrap(),
            "cancel should find the running query"
        );
    });
    assert_eq!(svc.pool().reserved(), 0);

    // The session survives a cancelled query.
    let out = svc
        .query(sid, "select count(*) from Sales", ExecOptions::default())
        .unwrap();
    assert_eq!(out.relation.len(), 1);

    // An immediate deadline is the other typed latency outcome.
    let err = svc
        .query(
            sid,
            "select cust, sum(sale) from Sales group by cust",
            ExecOptions {
                deadline: Some(Duration::ZERO),
                ..ExecOptions::default()
            },
        )
        .unwrap_err();
    assert_eq!(err.code(), "deadline_exceeded", "{err}");
    assert_eq!(svc.pool().reserved(), 0);
    let _ = std::fs::remove_dir_all(&spill_dir);
}
