//! Smoke run of the whole benchmark at 1/20 size: every metric named in
//! `BENCHMARK.json` is printed once, with its unit and a finite value, no
//! operation fails, and single-client counts repeat for a fixed seed.

use mdj_server::json::{parse, Json};
use std::collections::BTreeMap;
use std::process::Command;

const SEED: &str = "11";

/// Units of timing-derived metrics; everything else is a count and must
/// repeat exactly.
const TIMING_UNITS: [&str; 6] = ["ms", "us", "ns", "MB/s", "1/s", "x"];

/// Counts that legitimately differ between same-seed runs on this engine:
/// parallel float aggregation is not bit-deterministic (ROADMAP open item
/// 0), which also changes how many digits the floats print with.
const SCHEDULING_DEPENDENT: [&str; 2] = ["core.float_bit_mismatch_ops", "server.resp_bytes_per_op"];

/// Buffer-pool traffic when the pool is smaller than the table: the two
/// morsel workers of one query race for frames, so LRU order — and with it
/// the miss count — wobbles by a fraction of a percent.
const POOL_RACE: [&str; 4] = [
    "storage.pages_read_per_op",
    "storage.bytes_read_per_op",
    "storage.evictions_per_op",
    "storage.pool_hit_ratio",
];

fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let json = parse(&text).expect("BENCHMARK.json parses");
    json.get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run all four workloads at smoke size; returns workload → result line.
fn smoke(trace: &str) -> BTreeMap<String, String> {
    let out = Command::new(env!("CARGO_BIN_EXE_mdjbench"))
        .args(["run", "--smoke", "--seed", SEED, "--trace", trace])
        .output()
        .expect("run mdjbench");
    assert!(
        out.status.success(),
        "mdjbench failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines.len(),
        8,
        "a run record and a result line per workload"
    );
    lines
        .chunks(2)
        .map(|pair| {
            assert!(pair[0].ends_with("\"claim\":null}"), "{}", pair[0]);
            let record = parse(pair[0]).expect("run record parses");
            let workload = record
                .get("workload")
                .and_then(Json::as_str)
                .expect("workload");
            (workload.to_string(), pair[1].to_string())
        })
        .collect()
}

fn check_line(workload: &str, line: &str, expected: &[(String, String)]) -> BTreeMap<String, f64> {
    let json = parse(line).expect("result line parses");
    assert_eq!(
        json.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: {line}"
    );
    assert_eq!(
        json.get("failed"),
        Some(&Json::Int(0)),
        "{workload}: {line}"
    );
    assert!(
        json.get("attempted")
            .and_then(Json::as_int)
            .expect("attempted")
            >= 1
    );
    let Some(Json::Obj(metrics)) = json.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    assert_eq!(metrics.len(), expected.len(), "{workload}: metric count");
    let mut values = BTreeMap::new();
    for (name, unit) in expected {
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {name}"
        );
        assert_eq!(
            line.matches(&format!("\"{name}\":{{")).count(),
            1,
            "{workload}: {name} printed once"
        );
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let value = match m.get("value") {
            Some(Json::Float(f)) => *f,
            Some(Json::Int(i)) => *i as f64,
            other => panic!("{workload}: {name} has no numeric value: {other:?}"),
        };
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        values.insert(name.clone(), value);
    }
    values
}

#[test]
fn smoke_run_prints_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let lines = smoke("0");
    assert_eq!(lines.len(), 4);
    for (workload, line) in &lines {
        let values = check_line(workload, line, &end_to_end);
        for (name, value) in values {
            assert!(
                value > 0.0,
                "{workload}: end-to-end metric {name} is {value}"
            );
        }
    }
}

#[test]
fn traced_counts_repeat_for_a_fixed_seed() {
    let per_layer = declared("per_layer");
    let (first, second) = (smoke("1"), smoke("1"));
    for (workload, line) in &first {
        let a = check_line(workload, line, &per_layer);
        let b = check_line(workload, &second[workload], &per_layer);
        for (name, unit) in &per_layer {
            if TIMING_UNITS.contains(&unit.as_str())
                || SCHEDULING_DEPENDENT.contains(&name.as_str())
            {
                continue;
            }
            let (x, y) = (a[name], b[name]);
            if workload == "paged-scan" && POOL_RACE.contains(&name.as_str()) {
                assert!(
                    (x - y).abs() <= 0.02 * x.abs().max(y.abs()),
                    "{workload}: {name} {x} vs {y}"
                );
            } else {
                assert_eq!(
                    x, y,
                    "{workload}: count {name} differs between same-seed runs"
                );
            }
        }
    }
}
