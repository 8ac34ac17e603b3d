//! `mdjbench` — a client-observed, layer-attributed benchmark for `mdjd`.
//!
//! ```text
//! mdjbench [run] --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! mdjbench aa [--seed <n>] [--seconds <s>]
//! ```
//!
//! `run` boots the server in-process on `127.0.0.1:0`, drives it over real
//! TCP connections and prints one result line (see README.md). Without
//! `--workload` it runs all four workloads in turn. `aa` runs every workload
//! twice on the same build and checks the pairs against the bounds in
//! `BENCHMARK.json`.

mod aa;
mod harness;
mod load;
mod micro;
mod oracle;
mod prepare;
mod sys;
mod trace;
mod workload;

use mdj_server::json::Json;

/// Seconds of unmeasured load before the window opens.
const WARMUP_S: f64 = 2.0;
const SMOKE_WARMUP_S: f64 = 0.3;
const SMOKE_SECONDS: f64 = 2.0;
/// `--seconds` when the flag is absent (matches `run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 12.0;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

struct Args {
    aa: bool,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn die(msg: &str) -> ! {
    eprintln!("mdjbench: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        aa: false,
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    match it.peek().map(String::as_str) {
        Some("run") => {
            it.next();
        }
        Some("aa") => {
            args.aa = true;
            it.next();
        }
        _ => {}
    }
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")),
            "--seed" => {
                args.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| die("--seed must be an unsigned integer"))
            }
            "--seconds" => {
                let s: f64 = value("--seconds")
                    .parse()
                    .unwrap_or_else(|_| die("--seconds must be a number"));
                if !(s > 0.0 && s.is_finite()) {
                    die("--seconds must be positive");
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => die("--trace must be 0 or 1"),
                }
            }
            "--traced" => args.trace = true,
            "--smoke" => args.smoke = true,
            "--help" | "-h" => {
                println!(
                    "usage: mdjbench [run] [--workload <{}>] [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke]\n       mdjbench aa [--seed N] [--seconds S]",
                    workload::NAMES.join("|")
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown argument `{other}` (try --help)")),
        }
    }
    args
}

/// The contract's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, on one line.
fn result_line(metrics: &[Metric], attempted: u64, failed: u64) -> String {
    let metrics = Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj(vec![
                        ("value", Json::Float(m.value)),
                        ("unit", Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    );
    Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(attempted.max(1) as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", metrics),
    ])
    .encode()
}

fn main() {
    let args = parse_args();
    if args.aa {
        std::process::exit(aa::run(args.seed, args.seconds.unwrap_or(DEFAULT_SECONDS)));
    }
    let names: Vec<String> = match &args.workload {
        Some(name) => vec![name.clone()],
        None => workload::NAMES.iter().map(|s| s.to_string()).collect(),
    };
    let default_seconds = if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    };
    let seconds = args.seconds.unwrap_or(default_seconds);
    let warmup = if args.smoke { SMOKE_WARMUP_S } else { WARMUP_S };
    for name in names {
        let w = workload::by_name(&name, args.smoke).unwrap_or_else(|| {
            die(&format!(
                "unknown workload `{name}` (one of {})",
                workload::NAMES.join(", ")
            ))
        });
        let out = if args.trace {
            trace::run(&w, args.seed, seconds)
        } else {
            load::run(&w, args.seed, seconds, warmup)
        };
        // The run record precedes the result line, which must come last.
        println!("{}", out.record);
        println!("{}", result_line(&out.metrics, out.attempted, out.failed));
    }
}
