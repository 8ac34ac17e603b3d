//! The measured run: closed-loop load over real TCP connections with
//! tracing off, reporting what a client of `mdjd` sees.

use crate::harness::Client;
use crate::oracle::{head, raw_rows, Verdict};
use crate::prepare::{prepare, Checks, Entry, CONNECTIONS};
use crate::sys::{cpu_seconds, median, peak_rss_mib, percentile, run_record};
use crate::workload::{SplitMix, Workload, INGEST_ROWS};
use crate::Metric;
use mdj_server::json::Json;
use mdj_storage::PagedStore;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Each connection pauses a seeded, uniform 0..20 ms after every reply. The
/// pause is think time, outside the measured latency. Without it the two
/// closed loops lock onto the kernel's 4 ms timer tick (every reply of this
/// server waits out a delayed-ACK timer — README, "the 40 ms floor") and a
/// run settles into one of several phase relations between the connections
/// that differ by ~10 % in latency and ~30 % in CPU per op; with it every run
/// averages over all of them.
const THINK_MAX_US: u64 = 20_000;

static INGEST_GATE: Mutex<()> = Mutex::new(());

/// What a whole-batch ingest acknowledgement contains.
const INGEST_ACK: &str = "\"rows\":64,";
const _: () = assert!(INGEST_ROWS == 64);

/// Half-widths of the order-statistic bands behind `lat_p50_ms` and
/// `lat_p95_ms` (see [`percentile`]).
const P50_BAND: f64 = 0.10;
const P95_BAND: f64 = 0.025;

/// What one connection saw of one operation.
struct Sample {
    start: Instant,
    end: Instant,
    /// Statement index; `None` for an ingest.
    stmt: Option<usize>,
    correct: bool,
    float_bits: bool,
    /// A read whose bytes differ from the verified response. It is judged
    /// by the oracle after the window, so that the CPU spent checking does
    /// not depend on how many floats happened to differ in their last bit.
    unjudged: Option<(usize, String)>,
}

/// One closed-loop connection and what it replays.
struct Connection {
    client: Client,
    /// One request line per schedule position.
    lines: Vec<String>,
    entry_of: Arc<Vec<Option<usize>>>,
    entries: Arc<Vec<Entry>>,
    read_only: bool,
    /// Schedule positions advanced per op (see [`steps`]).
    stride: usize,
    think: SplitMix,
}

impl Connection {
    /// Replay the schedule until `until`; returns the client and one sample
    /// per op.
    fn run(self, until: Instant) -> (Client, Vec<Sample>) {
        let Connection {
            mut client,
            lines,
            entry_of,
            entries,
            read_only,
            stride,
            mut think,
        } = self;
        let mut samples = Vec::new();
        let mut resp = String::new();
        let mut i = 0;
        loop {
            if Instant::now() >= until {
                break;
            }
            // One ingest at a time: concurrent `ingest` ops on a durable store
            // race in `PagedStore::append` (see README, findings), and a
            // workload must not contain operations that fail. The wait for the
            // gate is outside the measured latency.
            let gate = entry_of[i].is_none().then(|| {
                INGEST_GATE
                    .lock()
                    .expect("no holder of the ingest gate panics")
            });
            let start = Instant::now();
            client.call(&lines[i], &mut resp);
            let end = Instant::now();
            drop(gate);
            let front = head(&resp);
            let mut unjudged = None;
            let correct = match entry_of[i] {
                // Ingest acknowledgement: the whole batch was appended.
                None => front.contains("\"ok\":true") && front.contains(INGEST_ACK),
                // The table grows under the reads, so no fixed answer exists;
                // every statement is re-verified after the window instead.
                Some(_) if !read_only => front.contains("\"ok\":true"),
                Some(e) => {
                    if raw_rows(&resp) != Some(entries[e].raw_rows.as_str()) {
                        unjudged = Some((e, std::mem::take(&mut resp)));
                    }
                    true
                }
            };
            if !correct {
                eprintln!("mdjbench: op {i} failed: {}", head(&resp));
            }
            samples.push(Sample {
                start,
                end,
                stmt: entry_of[i].map(|e| entries[e].stmt),
                correct,
                float_bits: false,
                unjudged,
            });
            i = (i + stride) % lines.len();
            std::thread::sleep(Duration::from_micros(think.below(THINK_MAX_US)));
        }
        // Off the clock: settle the responses that were not byte-identical.
        for s in &mut samples {
            if let Some((e, resp)) = s.unjudged.take() {
                let verdict = entries[e].expected.check(&resp);
                if let Verdict::Wrong(why) = &verdict {
                    eprintln!("mdjbench: WRONG RESULT for `{}`: {why}", entries[e].sql);
                }
                s.correct = verdict.is_correct();
                s.float_bits = verdict == Verdict::FloatBits;
            }
        }
        (client, samples)
    }
}

/// Step through the cycle per connection. Both connections run ops of about
/// the same length, so with equal steps they would stay a fixed distance
/// apart and the same few statement pairs would meet on the two cores for a
/// whole run — a different few in each run. A second step that is coprime to
/// the cycle length still visits every op once per cycle, and shifts the
/// distance between the connections after every op, so one run brings many
/// pairs together.
fn steps(cycle: usize) -> [usize; CONNECTIONS] {
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let second = (7..)
        .find(|&s| gcd(s, cycle) == 1)
        .expect("some step is coprime to the cycle length");
    [1, second]
}

pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub record: String,
}

pub fn run(w: &Workload, seed: u64, seconds: f64, warmup: f64) -> Outcome {
    let mut p = prepare(w, seed, SETUP_REPS);
    let read_only = w.ingest_every.is_none();

    let steps = steps(p.ops.len());
    let begin = Instant::now();
    let warm_end = begin + Duration::from_secs_f64(warmup);
    let win_end = warm_end + Duration::from_secs_f64(seconds);
    let handles: Vec<_> = std::mem::take(&mut p.clients)
        .into_iter()
        .enumerate()
        .map(|(c, client)| {
            let lines: Vec<String> = p.ops.iter().map(|op| client.request(w, op)).collect();
            let connection = Connection {
                client,
                lines,
                entry_of: p.entry_of.clone(),
                entries: p.entries.clone(),
                read_only,
                stride: steps[c],
                think: SplitMix::new(seed.wrapping_mul(CONNECTIONS as u64) + c as u64),
            };
            std::thread::spawn(move || connection.run(win_end))
        })
        .collect();
    std::thread::sleep(warm_end.saturating_duration_since(Instant::now()));
    let cpu_before = cpu_seconds();
    std::thread::sleep(win_end.saturating_duration_since(Instant::now()));
    let cpu_after = cpu_seconds();
    let mut window: Vec<Sample> = Vec::new();
    let mut acked_ingests = 0u64;
    // Closed-loop throughput: each connection's correct window ops over the
    // time it spent on its window ops, summed over connections.
    let mut qps = 0.0;
    for h in handles {
        let (client, samples) = h.join().expect("connection thread");
        p.clients.push(client);
        acked_ingests += samples
            .iter()
            .filter(|s| s.stmt.is_none() && s.correct)
            .count() as u64;
        let mine: Vec<Sample> = samples
            .into_iter()
            .filter(|s| s.start >= warm_end && s.end <= win_end)
            .collect();
        if let (Some(first), Some(last)) = (mine.first(), mine.last()) {
            let busy = last.end.duration_since(first.start).as_secs_f64();
            qps += mine.iter().filter(|s| s.correct).count() as f64 / busy;
        }
        window.extend(mine);
    }

    // The server is quiescent from here on.
    if !read_only {
        p.reverify(w);
    }
    let mut checks: Checks = p.checks;
    let expected_rows = p.inst.initial_rows + acked_ingests * INGEST_ROWS as u64;
    let live_rows = p
        .inst
        .service
        .engine()
        .catalog()
        .get("Sales")
        .map_or(0, |r| r.len() as u64);
    checks.attempted += 1;
    if live_rows != expected_rows {
        checks.failed += 1;
        eprintln!("mdjbench: Sales holds {live_rows} rows, expected {expected_rows}");
    }
    drop(p.clients);
    let durable = p.inst.store.is_some();
    let (scratch, clean) = p.inst.shutdown();
    checks.attempted += 1;
    if !clean {
        checks.failed += 1;
        eprintln!("mdjbench: server drain was not clean");
    }
    if durable {
        // Restart check: the directory alone must yield the initial rows
        // plus every acknowledged batch.
        checks.attempted += 1;
        let reopened = PagedStore::open(&scratch.path().join("store"))
            .ok()
            .and_then(|(s, _)| s.table("Sales"))
            .map_or(0, |t| t.row_count());
        if reopened != expected_rows {
            checks.failed += 1;
            eprintln!(
                "mdjbench: reopened store holds {reopened} Sales rows, expected {expected_rows}"
            );
        }
    }
    drop(scratch);
    let (mut setup_s, verify_s) = (p.setup_s, p.verify_s);

    let ok = window.iter().filter(|s| s.correct).count() as f64;
    let ms = |s: &Sample| s.end.duration_since(s.start).as_secs_f64() * 1e3;
    let mut reads: Vec<f64> = window
        .iter()
        .filter(|s| s.correct && s.stmt.is_some())
        .map(ms)
        .collect();
    let mut ingests: Vec<f64> = window
        .iter()
        .filter(|s| s.correct && s.stmt.is_none())
        .map(ms)
        .collect();
    let by_statement = Json::Obj(
        w.statements
            .iter()
            .enumerate()
            .map(|(i, st)| {
                let mut lat: Vec<f64> = window
                    .iter()
                    .filter(|s| s.correct && s.stmt == Some(i))
                    .map(ms)
                    .collect();
                (
                    st.id.to_string(),
                    Json::Float(percentile(&mut lat, 0.50, P50_BAND)),
                )
            })
            .collect(),
    );
    let window_failed = window.iter().filter(|s| !s.correct).count() as u64;
    let window_bits = window.iter().filter(|s| s.float_bits).count() as u64;
    let metrics = vec![
        Metric::new("setup_s", median(&mut setup_s), "s"),
        Metric::new("qps", qps, "1/s"),
        Metric::new("lat_p50_ms", percentile(&mut reads, 0.50, P50_BAND), "ms"),
        Metric::new("lat_p95_ms", percentile(&mut reads, 0.95, P95_BAND), "ms"),
        Metric::new(
            "cpu_ms_per_op",
            (cpu_after - cpu_before) * 1e3 / ok.max(1.0),
            "ms",
        ),
        Metric::new("peak_rss_mb", peak_rss_mib(), "MiB"),
    ];
    let record = run_record(
        w,
        seed,
        CONNECTIONS,
        seconds,
        vec![
            ("warmup_s", Json::Float(warmup)),
            ("verify_s", Json::Float(verify_s)),
            ("read_samples", Json::Int(reads.len() as i64)),
            ("statement_p50_ms", by_statement),
            ("ingest_samples", Json::Int(ingests.len() as i64)),
            (
                "ingest_lat_p50_ms",
                Json::Float(percentile(&mut ingests, 0.50, P50_BAND)),
            ),
            (
                "float_bit_mismatch_ops",
                Json::Int((checks.float_bits + window_bits) as i64),
            ),
        ],
    );
    Outcome {
        metrics,
        attempted: window.len() as u64 + checks.attempted,
        failed: window_failed + checks.failed,
        record,
    }
}
