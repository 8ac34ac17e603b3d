//! The counter table (`mdj_storage::COUNTERS`, DESIGN §3.2) is the only
//! place a work counter is declared. This suite sets every counter to a
//! distinct value and follows each row to every surface that reports it:
//! `snapshot()`, `EXPLAIN ANALYZE`, the JSON fields behind the `stats` op's
//! `totals` and `repro --json`, and — for `wire` rows only — a query
//! response's `stats` object. (`repro`'s own tests follow the same rows
//! through its writer and `--check` reader.)

use mdj_algebra::explain::explain_with_stats;
use mdj_algebra::Plan;
use mdj_core::EngineConfig;
use mdj_server::json::{parse, Json};
use mdj_server::wire::{counter_fields, handle_line};
use mdj_server::{QueryService, ServiceConfig};
use mdj_storage::{
    Counter, DataType, Relation, Row, ScanStats, Schema, StatsSnapshot, Value, WorkerStats,
    COUNTERS,
};
use std::collections::BTreeSet;

/// A value no two rows share (and never 0 or 1, so a flag cannot pass by
/// accident).
fn distinct(c: Counter) -> u64 {
    c as u64 + 101
}

fn every_counter_set() -> ScanStats {
    let stats = ScanStats::new();
    for def in &COUNTERS {
        stats.count(def.counter, distinct(def.counter));
    }
    stats
}

fn names(keep: impl Fn(&mdj_storage::CounterDef) -> bool) -> BTreeSet<String> {
    COUNTERS
        .iter()
        .filter(|def| keep(def))
        .map(|def| def.name.to_string())
        .collect()
}

fn keys(obj: &Json) -> BTreeSet<String> {
    match obj {
        Json::Obj(fields) => fields.keys().cloned().collect(),
        other => panic!("not an object: {other:?}"),
    }
}

#[test]
fn table_rows_are_well_formed() {
    for (i, def) in COUNTERS.iter().enumerate() {
        assert_eq!(def.counter as usize, i, "{}: row order", def.name);
        assert_eq!(def.counter.def().name, def.name);
        assert!(!def.label.is_empty(), "{}: label", def.name);
    }
    assert_eq!(names(|_| true).len(), COUNTERS.len(), "duplicate name");
    // Rows of one group are contiguous (each group is one EXPLAIN line).
    let mut seen = Vec::new();
    for def in &COUNTERS {
        if seen.last() != Some(&def.group) {
            assert!(!seen.contains(&def.group), "{:?} is split", def.group);
            seen.push(def.group);
        }
    }
}

#[test]
fn every_counter_reaches_snapshot_and_explain_under_its_table_name() {
    let stats = every_counter_set();
    let snap = stats.snapshot();
    let debug = format!("{snap:?}");
    let explained = explain_with_stats(&Plan::table("T"), &snap);
    for (def, v) in snap.iter() {
        let name = def.name;
        assert_eq!(v, distinct(def.counter), "{name}: iter");
        assert_eq!(snap.get(def.counter), v, "{name}: get");
        assert_eq!(stats.get(def.counter), v, "{name}: ScanStats::get");
        // The named `pub` field carries it.
        assert!(debug.contains(&format!(" {name}: {v},")), "{name}: {debug}");
        // Its group's EXPLAIN line carries it under its label.
        let head = format!("-- {}:", def.group.label());
        let line = explained
            .lines()
            .find(|l| l.starts_with(&head))
            .unwrap_or_else(|| panic!("{name}: no `{head}` line in\n{explained}"));
        let shown = format!(" {}={v}", def.label);
        assert!(
            format!("{line} ").contains(&format!("{shown} ")),
            "{name}: `{shown}` not in `{line}`"
        );
    }
    // `Display` is the same renderer without the EXPLAIN prefix.
    let displayed = snap.to_string();
    let unprefixed: Vec<&str> = explained
        .lines()
        .filter_map(|l| l.strip_prefix("-- "))
        .collect();
    assert_eq!(displayed, unprefixed.join("\n"));
}

#[test]
fn sum_adds_latest_overwrites_reset_zeroes() {
    let stats = every_counter_set();
    stats.record_worker(WorkerStats::new(0));
    let once = stats.snapshot();
    for def in &COUNTERS {
        stats.count(def.counter, 7);
        let want = distinct(def.counter) + 7;
        assert_eq!(stats.get(def.counter), want, "{}", def.name);
    }
    // `absorb` adds every row too, and carries no workers.
    let totals = ScanStats::new();
    totals.absorb(&once);
    totals.absorb(&once);
    for def in &COUNTERS {
        let want = 2 * distinct(def.counter);
        assert_eq!(totals.get(def.counter), want, "{}", def.name);
    }
    assert!(totals.workers().is_empty());
    stats.reset();
    assert_eq!(stats.snapshot(), StatsSnapshot::default());
}

#[test]
fn json_surfaces_are_keyed_by_table_name() {
    let snap = every_counter_set().snapshot();
    // The fields behind the `stats` op's `totals` and `repro --json`.
    let all = Json::obj(counter_fields(&snap, |_| true));
    assert_eq!(keys(&all), names(|_| true));
    for def in &COUNTERS {
        let want = Json::Int(distinct(def.counter) as i64);
        assert_eq!(all.get(def.name), Some(&want), "{}", def.name);
    }

    // A live service: one query, then the `stats` op.
    let schema = Schema::from_pairs(&[("cust", DataType::Int), ("sale", DataType::Int)]);
    let rel = Relation::from_rows(
        schema,
        (0..10)
            .map(|i| Row::from_values(vec![Value::Int(i % 3), Value::Int(i)]))
            .collect(),
    );
    let engine = EngineConfig::new().register_table("Sales", rel).build();
    let svc = QueryService::new(engine, ServiceConfig::default());
    let field = |resp: &str, key: &str| -> Json {
        let json = parse(resp).unwrap();
        assert_eq!(json.get("ok"), Some(&Json::Bool(true)), "{resp}");
        json.get(key).cloned().unwrap()
    };
    let sid = field(&handle_line(&svc, r#"{"op":"open"}"#), "session")
        .as_int()
        .unwrap();
    let resp = handle_line(
        &svc,
        &format!(
            r#"{{"op":"query","session":{sid},"sql":"select cust, sum(sale) from Sales group by cust"}}"#
        ),
    );
    // A query response carries exactly the `wire` rows...
    let per_query = field(&resp, "stats");
    assert_eq!(keys(&per_query), names(|def| def.wire));
    assert_eq!(per_query.get("tuples_scanned"), Some(&Json::Int(10)));
    // ...and the `stats` op's `totals` every row, summed over that query.
    let totals = field(&handle_line(&svc, r#"{"op":"stats"}"#), "totals");
    assert_eq!(keys(&totals), names(|_| true));
    assert_eq!(totals.get("tuples_scanned"), Some(&Json::Int(10)));
    assert_eq!(totals.get("updates"), per_query.get("updates"));
}
