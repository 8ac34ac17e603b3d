//! Chaos soak for the hardened `mdjd` TCP front end.
//!
//! N concurrent hostile clients are thrown at a live server: oversized
//! frames, random byte garbage, half-open sockets that never send, clients
//! that disconnect mid-query, and (under `--features fault-injection`)
//! injected accept/read/write faults and planner failures inside the
//! server itself. The invariants, checked throughout:
//!
//! * every response that arrives is well-formed JSON with `ok`, and every
//!   failure carries a code from the stable set — never a panic, never a
//!   truncated or stringly error;
//! * every *successful* result is bit-identical (floats by `to_bits`) to
//!   the same query executed serially against an undisturbed server;
//! * hostile connections are shed without harming concurrent well-behaved
//!   sessions;
//! * after the storm the memory pool is back to exactly zero;
//! * shutdown under load drains cleanly: in-flight queries finish or are
//!   cancelled, and the drain report shows no leaked reservations.
//!
//! All client behaviour is seeded (SplitMix64), so a failure replays.

use mdj_core::EngineConfig;
use mdj_server::json::{parse, Json};
use mdj_server::{ConnLimits, QueryService, Server, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 16;
const ACTIONS_PER_CLIENT: usize = 8;
const QUERY_BUDGET: usize = 4 << 20;

const QUERIES: [&str; 3] = [
    "select cust, sum(sale) from Sales where month = 3 group by cust",
    "select cust, count(Z.*) as n, avg(Z.sale) as a from Sales \
     group by cust ; Z such that Z.cust = cust and Z.sale > 500.0",
    "select prod, month, sum(sale) from Sales analyze by cube(prod, month)",
];

const KNOWN_CODES: &[&str] = &[
    "bad_request",
    "unknown_session",
    "unknown_statement",
    "lex_error",
    "parse_error",
    "compile_error",
    "bind_error",
    "execution_error",
    "cancelled",
    "deadline_exceeded",
    "budget_exceeded",
    "pool_exhausted",
    "queue_full",
    "frame_too_large",
    "idle_timeout",
    "server_busy",
    "shutting_down",
    "io_error",
];

fn engine() -> Arc<EngineConfig> {
    let sales = mdj_datagen::sales(&mdj_datagen::SalesConfig::default().with_rows(3_000));
    EngineConfig::new().register_table("Sales", sales).build()
}

fn service(engine: &Arc<EngineConfig>) -> Arc<QueryService> {
    Arc::new(QueryService::new(
        engine.clone(),
        ServiceConfig {
            pool_bytes: 64 << 20,
            default_budget: QUERY_BUDGET,
            max_waiters: 8,
            admission_wait: Duration::from_millis(100),
            default_deadline: Some(Duration::from_secs(30)),
        },
    ))
}

fn chaos_limits() -> ConnLimits {
    ConnLimits {
        max_conns: 12,
        max_frame_bytes: 32 << 10,
        read_timeout: Some(Duration::from_millis(1_500)),
    }
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// What one client action observed. `PeerLoss` is a connection the server
/// closed (or reset) without a response — the expected fate of several
/// hostile behaviours and of injected accept/read/write faults.
#[derive(Debug)]
enum Observed {
    Ok(Vec<String>),
    Code(String),
    PeerLoss,
}

/// A client connection that sends each frame as it is written, with a
/// read timeout as a safety net so a server bug cannot hang the suite.
fn connect(addr: std::net::SocketAddr) -> Option<TcpStream> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .ok()?;
    Some(stream)
}

/// One line-delimited JSON exchange — the request is one frame, one write;
/// `None` when the peer closed first.
fn exchange(stream: &mut TcpStream, line: &str) -> Option<String> {
    stream.write_all(format!("{line}\n").as_bytes()).ok()?;
    read_response(stream)
}

fn read_response(stream: &mut TcpStream) -> Option<String> {
    let mut reader = BufReader::new(stream.try_clone().ok()?);
    let mut resp = String::new();
    match reader.read_line(&mut resp) {
        Ok(0) | Err(_) => None,
        Ok(_) => Some(resp),
    }
}

/// Canonical multiset key for wire-decoded rows, floats by bit pattern.
/// Both the baseline and the chaos runs decode through the same JSON path,
/// so equality here is bit-identity of what clients actually receive.
fn canonical_wire_rows(resp: &Json) -> Vec<String> {
    let rows = resp.get("rows").and_then(Json::as_arr).unwrap_or(&[]);
    let mut keys: Vec<String> = rows
        .iter()
        .map(|row| {
            row.as_arr()
                .unwrap_or(&[])
                .iter()
                .map(|v| match v {
                    Json::Null => "N".to_string(),
                    Json::Bool(b) => format!("b{b}"),
                    Json::Int(i) => format!("i{i}"),
                    Json::Float(f) => format!("f{:016x}", f.to_bits()),
                    Json::Str(s) => format!("s{s}"),
                    Json::Obj(_) => "A".to_string(), // {"all":true}
                    Json::Arr(_) => "?".to_string(),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    keys.sort();
    keys
}

/// Classify one raw response line under the global invariant: parseable,
/// `ok` present, failures carry a known code.
fn classify(resp: Option<String>) -> Observed {
    let Some(resp) = resp else {
        return Observed::PeerLoss;
    };
    let json = parse(&resp).unwrap_or_else(|e| panic!("unparseable response `{resp}`: {e}"));
    match json.get("ok") {
        Some(Json::Bool(true)) => Observed::Ok(canonical_wire_rows(&json)),
        Some(Json::Bool(false)) => {
            let code = json
                .get("code")
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("failure without code: {resp}"))
                .to_string();
            assert!(
                KNOWN_CODES.contains(&code.as_str()),
                "unknown code `{code}`"
            );
            Observed::Code(code)
        }
        other => panic!("response without boolean ok ({other:?}): {resp}"),
    }
}

fn query_line(sid: i64, qi: usize) -> String {
    let sql = QUERIES[qi];
    format!(r#"{{"op":"query","session":{sid},"sql":"{sql}","budget":{QUERY_BUDGET}}}"#)
}

/// Serial baseline: each query template once, against its own quiet server.
fn wire_baseline(engine: &Arc<EngineConfig>) -> Vec<Vec<String>> {
    let svc = service(engine);
    let server = Server::bind_with("127.0.0.1:0", svc, ConnLimits::default()).unwrap();
    let mut stream = connect(server.local_addr()).expect("connect");
    let resp = exchange(&mut stream, r#"{"op":"open"}"#).expect("open");
    let sid = parse(&resp)
        .unwrap()
        .get("session")
        .and_then(Json::as_int)
        .expect("session id");
    let mut base = Vec::new();
    for qi in 0..QUERIES.len() {
        match classify(exchange(&mut stream, &query_line(sid, qi))) {
            Observed::Ok(rows) => {
                assert!(!rows.is_empty(), "baseline {qi} returned no rows");
                base.push(rows);
            }
            other => panic!("baseline query {qi} failed: {other:?}"),
        }
    }
    let report = server.shutdown(Duration::from_millis(500));
    assert!(report.is_clean(), "{report:?}");
    base
}

fn hostile_client(addr: SocketAddr, seed: u64, baseline: &[Vec<String>]) -> (usize, usize, usize) {
    let mut rng = SplitMix64(seed);
    let (mut ok, mut shed, mut lost) = (0usize, 0usize, 0usize);
    for _ in 0..ACTIONS_PER_CLIENT {
        let Some(mut stream) = connect(addr) else {
            lost += 1;
            continue;
        };
        match rng.below(6) {
            // Well-behaved session: open, query, verify, close.
            0..=2 => {
                let Some(resp) = exchange(&mut stream, r#"{"op":"open"}"#) else {
                    lost += 1;
                    continue;
                };
                let json = parse(&resp).unwrap();
                let Some(sid) = json.get("session").and_then(Json::as_int) else {
                    // Shed at admission (server_busy / shutting_down) or an
                    // injected fault; must still be a typed outcome.
                    match classify(Some(resp)) {
                        Observed::Code(_) => shed += 1,
                        _ => lost += 1,
                    }
                    continue;
                };
                let qi = rng.below(QUERIES.len());
                match classify(exchange(&mut stream, &query_line(sid, qi))) {
                    Observed::Ok(rows) => {
                        assert_eq!(
                            rows, baseline[qi],
                            "concurrent result diverged from serial baseline on {qi}"
                        );
                        ok += 1;
                    }
                    Observed::Code(_) => shed += 1,
                    Observed::PeerLoss => lost += 1,
                }
                let _ = exchange(&mut stream, &format!(r#"{{"op":"close","session":{sid}}}"#));
            }
            // Oversized frame: must come back typed, on this connection
            // only.
            3 => {
                let big = "x".repeat((32 << 10) + 1 + rng.below(4096));
                match classify(exchange(&mut stream, &big)) {
                    Observed::Code(code) => {
                        assert!(
                            code == "frame_too_large" || code == "server_busy",
                            "oversized frame got `{code}`"
                        );
                        shed += 1;
                    }
                    Observed::PeerLoss => lost += 1,
                    Observed::Ok(_) => panic!("oversized frame was accepted"),
                }
            }
            // Random byte garbage (newline-terminated so it is one frame).
            4 => {
                let len = 1 + rng.below(200);
                let junk: String = (0..len)
                    .map(|_| (0x20 + (rng.next() % 0x5f) as u8) as char)
                    .filter(|c| *c != '\n')
                    .collect();
                match classify(exchange(&mut stream, &junk)) {
                    Observed::Ok(_) => ok += 1, // junk can parse as a valid op by chance
                    Observed::Code(_) => shed += 1,
                    Observed::PeerLoss => lost += 1,
                }
            }
            // Mid-query disconnect: fire a query and vanish without
            // reading; the server must reap the session and its query.
            _ => {
                let mut frame = format!(
                    r#"{{"op":"query","session":1,"sql":"{}"}}"#,
                    QUERIES[rng.below(QUERIES.len())]
                );
                frame.push('\n');
                let _ = stream.write_all(frame.as_bytes());
                drop(stream);
                lost += 1;
            }
        }
    }
    (ok, shed, lost)
}

#[test]
fn hostile_clients_cannot_corrupt_results_or_leak_resources() {
    let engine = engine();
    let baseline = wire_baseline(&engine);

    let svc = service(&engine);
    #[cfg(feature = "fault-injection")]
    svc.set_fault_injector(Some(Arc::new(
        mdj_core::FaultInjector::new(0xC4A05_C4A05)
            .period(5)
            .planner_failures(8)
            .server_accept_failures(4)
            .server_read_failures(4)
            .server_write_failures(4),
    )));
    let server = Server::bind_with("127.0.0.1:0", svc.clone(), chaos_limits()).unwrap();
    let addr = server.local_addr();

    let totals: Vec<(usize, usize, usize)> = std::thread::scope(|scope| {
        (0..CLIENTS)
            .map(|c| {
                let baseline = &baseline;
                scope.spawn(move || hostile_client(addr, 0x5eed_0000 + c as u64, baseline))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let (ok, shed, lost) = totals
        .iter()
        .fold((0, 0, 0), |(a, b, c), (x, y, z)| (a + x, b + y, c + z));
    println!("chaos soak: {ok} verified results, {shed} typed sheds, {lost} peer losses");
    // The storm must not have starved out every well-behaved client.
    assert!(ok > 0, "no well-behaved query got through the storm");

    // After the storm: in-flight queries from vanished clients unwind and
    // the pool returns every byte.
    for _ in 0..600 {
        if svc.running_query_count() == 0 && svc.pool().reserved() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        svc.running_query_count(),
        0,
        "queries leaked past their clients"
    );
    assert_eq!(svc.pool().reserved(), 0, "pool bytes leaked");
    assert_eq!(svc.pool().waiters(), 0);

    // The server is still healthy for a fresh client (injected faults may
    // shed individual attempts, so allow retries — typed outcomes only).
    let mut served = false;
    for _ in 0..20 {
        let Some(mut check) = connect(addr) else {
            continue;
        };
        if let Some(resp) = exchange(&mut check, r#"{"op":"ping"}"#) {
            if resp.contains("\"ok\":true") {
                served = true;
                break;
            }
            classify(Some(resp)); // typed shed is acceptable, retry
        }
    }
    assert!(served, "server unhealthy after the storm");

    let report = server.shutdown(Duration::from_secs(2));
    assert!(report.is_clean(), "{report:?}");
}

#[test]
fn shutdown_under_load_drains_cleanly() {
    let engine = engine();
    let svc = service(&engine);
    let server = Server::bind_with("127.0.0.1:0", svc.clone(), ConnLimits::default()).unwrap();
    let addr = server.local_addr();

    // A few clients hammer cube queries for the whole test; their
    // outcomes must all be typed: ok, a governor code, or peer loss when
    // the drain closes the transport under them.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut outcomes = Vec::new();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let Some(mut stream) = connect(addr) else {
                        break;
                    };
                    let Some(resp) = exchange(&mut stream, r#"{"op":"open"}"#) else {
                        break;
                    };
                    let Some(sid) = parse(&resp).unwrap().get("session").and_then(Json::as_int)
                    else {
                        outcomes.push(classify(Some(resp)));
                        break;
                    };
                    outcomes.push(classify(exchange(&mut stream, &query_line(sid, 2))));
                }
                outcomes
            })
        })
        .collect();

    // Let the load build, then pull the plug with a short drain so some
    // queries are still in flight.
    std::thread::sleep(Duration::from_millis(150));
    let report = server.shutdown(Duration::from_millis(100));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    assert!(report.is_clean(), "unclean drain under load: {report:?}");
    assert_eq!(svc.pool().reserved(), 0);
    assert_eq!(svc.running_query_count(), 0);

    for w in workers {
        for outcome in w.join().expect("worker") {
            match outcome {
                Observed::Ok(_) | Observed::PeerLoss => {}
                Observed::Code(code) => {
                    assert!(KNOWN_CODES.contains(&code.as_str()), "unknown `{code}`");
                }
            }
        }
    }
}
