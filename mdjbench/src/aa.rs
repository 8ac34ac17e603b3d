//! `mdjbench aa`: run every workload twice on the same build and hold the
//! pair to the regression bounds in `BENCHMARK.json` — the benchmark's own
//! check that its numbers are steady enough to be gated on.

use crate::workload::NAMES;
use mdj_server::json::{parse, Json};
use std::process::Command;

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds() -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let json = parse(&text)?;
    let list = json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no `end_to_end` array")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(number);
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => Ok(Bound {
                    name: name.to_string(),
                    lower_is_better: better == "lower",
                    bound,
                }),
                _ => Err(format!("malformed end_to_end entry: {}", m.encode())),
            }
        })
        .collect()
}

/// Run one workload in a child process (so `peak_rss_mb` is its own) and
/// return its end-to-end metrics.
fn measure(workload: &str, seed: u64, seconds: f64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{workload}: child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let json = parse(last)?;
    if json.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{workload}: run was not correct: {last}"));
    }
    json.get("metrics")
        .cloned()
        .ok_or_else(|| "result line has no metrics".to_string())
}

fn number(json: &Json) -> Option<f64> {
    match json {
        Json::Float(f) => Some(*f),
        Json::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn value(metrics: &Json, name: &str) -> Option<f64> {
    metrics.get(name)?.get("value").and_then(number)
}

/// Returns the process exit code.
pub fn run(seed: u64, seconds: f64) -> i32 {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("mdjbench aa: {e}");
            return 2;
        }
    };
    let mut exceeded = 0;
    println!("workload     metric          first       second      worse_by  bound");
    for workload in NAMES {
        let pair = measure(workload, seed, seconds)
            .and_then(|a| measure(workload, seed, seconds).map(|b| (a, b)));
        let (first, second) = match pair {
            Ok(p) => p,
            Err(e) => {
                eprintln!("mdjbench aa: {e}");
                return 1;
            }
        };
        for b in &bounds {
            let (Some(x), Some(y)) = (value(&first, &b.name), value(&second, &b.name)) else {
                eprintln!("mdjbench aa: {workload} did not report `{}`", b.name);
                return 1;
            };
            // How much worse the second run is than the first, as a share
            // of the first (negative = better).
            let worse_by = if b.lower_is_better { y - x } else { x - y } / x;
            let flag = if worse_by > b.bound {
                exceeded += 1;
                "  EXCEEDED"
            } else {
                ""
            };
            println!(
                "{workload:<12} {:<15} {x:<11.4} {y:<11.4} {:>+8.2}%  {:.0}%{flag}",
                b.name,
                worse_by * 100.0,
                b.bound * 100.0
            );
        }
    }
    if exceeded > 0 {
        eprintln!("mdjbench aa: {exceeded} bound(s) exceeded");
        return 1;
    }
    0
}
