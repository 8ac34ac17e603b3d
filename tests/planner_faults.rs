//! Fault injection in the query *front half* (compiled only with
//! `--features fault-injection`).
//!
//! PR-2 wired the [`FaultInjector`] into morsel execution, memory charging,
//! and the spill layer; this suite covers the sites added for the
//! robustness issue: parse, compile, optimize, and plan-execution failures
//! injected through `ExecContext::fault_should_fail_planner`.
//!
//! The failure model mirrors DESIGN §8: a faulted query either returns the
//! exact unfaulted answer (the injector did not fire on its path) or fails
//! with a *typed* error that maps to a stable wire code — `parse_error`,
//! `compile_error`, or `execution_error` — never a panic, never a partial
//! result. Injections are deterministic (seeded) and bounded (budgeted),
//! and the pool drains to zero whatever mix of outcomes occurred.
#![cfg(feature = "fault-injection")]

use mdj_core::{EngineConfig, FaultInjector};
use mdj_server::{ExecOptions, QueryService, ServiceConfig};
use mdj_storage::{Row, Value};
use std::sync::Arc;

const QUERIES: [&str; 3] = [
    "select cust, sum(sale) from Sales where month = 3 group by cust",
    "select cust, count(Z.*) as n, avg(Z.sale) as a from Sales \
     group by cust ; Z such that Z.cust = cust and Z.sale > 500.0",
    "select prod, month, sum(sale) from Sales analyze by cube(prod, month)",
];

const FAULT_CODES: [&str; 3] = ["parse_error", "compile_error", "execution_error"];

fn engine() -> Arc<EngineConfig> {
    let sales = mdj_datagen::sales(&mdj_datagen::SalesConfig::default().with_rows(2_000));
    EngineConfig::new().register_table("Sales", sales).build()
}

fn service(engine: &Arc<EngineConfig>) -> QueryService {
    QueryService::new(
        engine.clone(),
        ServiceConfig {
            default_deadline: None,
            ..ServiceConfig::default()
        },
    )
}

/// Canonical multiset key for a result set, floats by bit pattern.
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

/// Run the query mix once and record, per query, either the canonical rows
/// or the stable error code.
fn run_mix(svc: &QueryService, iters: usize) -> Vec<(usize, Result<Vec<String>, &'static str>)> {
    let sid = svc.open_session();
    let mut out = Vec::with_capacity(iters);
    for i in 0..iters {
        let qi = i % QUERIES.len();
        let result = match svc.query(sid, QUERIES[qi], ExecOptions::default()) {
            Ok(r) => Ok(canonical(r.relation.rows())),
            Err(e) => Err(e.code()),
        };
        out.push((qi, result));
    }
    svc.close_session(sid).unwrap();
    out
}

#[test]
fn planner_faults_are_typed_bounded_and_leak_free() {
    let engine = engine();

    // Unfaulted single-user baseline per template.
    let base_svc = service(&engine);
    let baseline: Vec<_> = run_mix(&base_svc, QUERIES.len())
        .into_iter()
        .map(|(_, r)| r.expect("baseline must not fail"))
        .collect();

    let svc = service(&engine);
    let fault = Arc::new(FaultInjector::new(0xBAD_5EED).period(3).planner_failures(5));
    svc.set_fault_injector(Some(fault.clone()));

    let mut failures = 0usize;
    for (qi, result) in run_mix(&svc, 42) {
        match result {
            Ok(rows) => assert_eq!(rows, baseline[qi], "faulted success diverged on {qi}"),
            Err(code) => {
                assert!(FAULT_CODES.contains(&code), "unexpected code `{code}`");
                failures += 1;
            }
        }
    }
    // Every failure is one consumed injection, the budget bounds them, and
    // with 42 queries at period 3 the budget is fully spent.
    assert_eq!(failures as u64, fault.planner_failures_injected());
    assert_eq!(fault.planner_failures_injected(), 5);
    assert_eq!(svc.pool().reserved(), 0);
}

#[test]
fn planner_fault_schedule_is_deterministic() {
    let engine = engine();
    let run = |seed: u64| {
        let svc = service(&engine);
        svc.set_fault_injector(Some(Arc::new(
            FaultInjector::new(seed).period(2).planner_failures(8),
        )));
        run_mix(&svc, 30)
    };
    assert_eq!(run(7), run(7), "same seed must give the same schedule");
    // A different seed lands the injections elsewhere (sanity that the
    // schedule actually depends on the seed, not just the call order).
    assert_ne!(run(7), run(8));
}

#[test]
fn zero_budget_injector_is_transparent() {
    let engine = engine();
    let base_svc = service(&engine);
    let baseline = run_mix(&base_svc, 9);

    let svc = service(&engine);
    let fault = Arc::new(FaultInjector::new(0xD15A5).period(1));
    svc.set_fault_injector(Some(fault.clone()));
    assert_eq!(run_mix(&svc, 9), baseline);
    assert_eq!(fault.planner_failures_injected(), 0);
}
