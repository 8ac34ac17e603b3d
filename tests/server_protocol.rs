//! End-to-end tests of the `mdjd` TCP wire protocol: line-delimited JSON
//! over real sockets, multiple concurrent connections, out-of-band
//! cancellation, and session cleanup on disconnect.
//!
//! These drive [`mdj_server::Server`] the way a client library would; the
//! in-process behaviour of the same service object is covered by
//! `tests/concurrent_sessions.rs`.

use mdj_core::EngineConfig;
use mdj_server::{QueryService, Server, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn boot(rows: usize) -> (Server, Arc<QueryService>) {
    let sales = mdj_datagen::sales(&mdj_datagen::SalesConfig::default().with_rows(rows));
    let engine = EngineConfig::new().register_table("Sales", sales).build();
    let service = Arc::new(QueryService::new(
        engine,
        ServiceConfig {
            default_deadline: None,
            ..ServiceConfig::default()
        },
    ));
    let server = Server::bind("127.0.0.1:0", service.clone()).unwrap();
    (server, service)
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).unwrap();
        writer.set_nodelay(true).unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        Client { writer, reader }
    }

    /// One request frame, one write, one response line.
    fn send(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
        let mut resp = String::new();
        self.reader.read_line(&mut resp).unwrap();
        resp
    }
}

fn int_field(resp: &str, key: &str) -> i64 {
    let marker = format!("\"{key}\":");
    let start = resp.find(&marker).expect(resp) + marker.len();
    resp[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '-')
        .collect::<String>()
        .parse()
        .expect(resp)
}

#[test]
fn prepared_statement_lifecycle_over_tcp() {
    let (server, _svc) = boot(500);
    let mut c = Client::connect(server.local_addr());

    assert!(c.send(r#"{"op":"ping"}"#).contains("\"ok\":true"));
    let resp = c.send(r#"{"op":"open"}"#);
    let sid = int_field(&resp, "session");

    let resp = c.send(&format!(
        r#"{{"op":"prepare","session":{sid},"sql":"select cust, sum(sale) from Sales where month = ? group by cust"}}"#
    ));
    assert!(resp.contains("\"params\":1"), "{resp}");
    let stmt = int_field(&resp, "stmt");

    // Two different bindings of the same statement must both run and may
    // produce different result sets.
    let r1 = c.send(&format!(
        r#"{{"op":"execute","session":{sid},"stmt":{stmt},"args":[1]}}"#
    ));
    let r2 = c.send(&format!(
        r#"{{"op":"execute","session":{sid},"stmt":{stmt},"args":[2]}}"#
    ));
    assert!(r1.contains("\"ok\":true"), "{r1}");
    assert!(r2.contains("\"ok\":true"), "{r2}");
    assert!(r1.contains("\"columns\":[\"cust\",\"sum_sale\"]"), "{r1}");
    assert!(int_field(&r1, "tuples_scanned") > 0);

    // Wrong arity is a typed bind error, not a crash.
    let resp = c.send(&format!(
        r#"{{"op":"execute","session":{sid},"stmt":{stmt},"args":[]}}"#
    ));
    assert!(resp.contains("\"code\":\"bind_error\""), "{resp}");

    let resp = c.send(&format!(
        r#"{{"op":"deallocate","session":{sid},"stmt":{stmt}}}"#
    ));
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let resp = c.send(&format!(
        r#"{{"op":"execute","session":{sid},"stmt":{stmt},"args":[1]}}"#
    ));
    assert!(resp.contains("\"code\":\"unknown_statement\""), "{resp}");

    assert!(c
        .send(&format!(r#"{{"op":"close","session":{sid}}}"#))
        .contains("\"ok\":true"));
}

#[test]
fn protocol_errors_are_stable_codes_not_disconnects() {
    let (server, _svc) = boot(100);
    let mut c = Client::connect(server.local_addr());

    for (req, code) in [
        ("this is not json", "bad_request"),
        (r#"{"no":"op"}"#, "bad_request"),
        (r#"{"op":"warp"}"#, "bad_request"),
        (
            r#"{"op":"query","session":424242,"sql":"select count(*) from Sales"}"#,
            "unknown_session",
        ),
        (r#"{"op":"prepare","session":424242}"#, "bad_request"),
    ] {
        let resp = c.send(req);
        assert!(
            resp.contains(&format!("\"code\":\"{code}\"")),
            "request {req} → {resp}"
        );
    }

    // After all those errors the connection is still serviceable.
    let resp = c.send(r#"{"op":"open"}"#);
    let sid = int_field(&resp, "session");
    let resp = c.send(&format!(
        r#"{{"op":"query","session":{sid},"sql":"selec oops"}}"#
    ));
    assert!(resp.contains("\"code\":\"parse_error\""), "{resp}");
    let resp = c.send(&format!(
        r#"{{"op":"query","session":{sid},"sql":"select count(*) from Sales"}}"#
    ));
    assert!(resp.contains("\"ok\":true"), "{resp}");
}

#[test]
fn cube_all_marker_and_scalars_round_trip_as_json() {
    let (server, _svc) = boot(300);
    let mut c = Client::connect(server.local_addr());
    let resp = c.send(r#"{"op":"open"}"#);
    let sid = int_field(&resp, "session");
    let resp = c.send(&format!(
        r#"{{"op":"query","session":{sid},"sql":"select state, sum(sale) from Sales analyze by rollup(state)"}}"#
    ));
    // The grand-total row carries the cube ALL pseudo-value, which the wire
    // encodes as an object marker rather than overloading null.
    assert!(resp.contains("{\"all\":true}"), "{resp}");
    assert!(resp.contains("\"ok\":true"), "{resp}");
}

#[test]
fn cancel_arrives_on_a_different_connection() {
    let (server, _svc) = boot(30_000);
    let addr = server.local_addr();
    let mut a = Client::connect(addr);
    let resp = a.send(r#"{"op":"open"}"#);
    let sid = int_field(&resp, "session");

    let heavy = format!(
        r#"{{"op":"query","session":{sid},"sql":"select cust, prod, month, sum(sale) from Sales analyze by cube(cust, prod, month)","tag":"slow"}}"#
    );
    let runner = std::thread::spawn(move || {
        let resp = a.send(&heavy);
        (a, resp)
    });

    // Sessions are service-global: connection B cancels A's query.
    let mut b = Client::connect(addr);
    let mut saw_running = false;
    for _ in 0..2_000 {
        let resp = b.send(&format!(
            r#"{{"op":"cancel","session":{sid},"tag":"slow"}}"#
        ));
        assert!(resp.contains("\"ok\":true"), "{resp}");
        if resp.contains("\"cancelled\":true") {
            saw_running = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let (_a, resp) = runner.join().unwrap();
    assert!(saw_running, "cancel never found the running query");
    assert!(resp.contains("\"code\":\"cancelled\""), "{resp}");
}

#[test]
fn disconnect_closes_sessions_and_drains_the_pool() {
    let (server, svc) = boot(500);
    let addr = server.local_addr();

    let mut a = Client::connect(addr);
    let resp = a.send(r#"{"op":"open"}"#);
    let sid = int_field(&resp, "session");
    let resp = a.send(r#"{"op":"open"}"#);
    let sid2 = int_field(&resp, "session");
    assert_ne!(sid, sid2);
    assert_eq!(svc.session_count(), 2);

    // A session the client closes itself must not be double-closed later.
    assert!(a
        .send(&format!(r#"{{"op":"close","session":{sid2}}}"#))
        .contains("\"ok\":true"));
    let resp = a.send(&format!(
        r#"{{"op":"query","session":{sid},"sql":"select count(*) from Sales"}}"#
    ));
    assert!(resp.contains("\"ok\":true"), "{resp}");
    drop(a);

    // The connection thread notices EOF and closes the remaining session.
    for _ in 0..1_000 {
        if svc.session_count() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(svc.session_count(), 0, "disconnect leaked the session");
    assert_eq!(svc.pool().reserved(), 0, "disconnect leaked pool bytes");
}

/// The regression test for the 40 ms floor: a reply sent as two segments on
/// a Nagle-enabled socket waits out the client's delayed ACK (44 ms per
/// `ping` before the fix); one frame per write on a `TCP_NODELAY` socket
/// does not.
#[test]
fn a_ping_round_trip_is_not_a_kernel_timer() {
    let (server, _svc) = boot(10);
    let mut c = Client::connect(server.local_addr());
    let mut trips: Vec<Duration> = (0..50)
        .map(|_| {
            let start = Instant::now();
            assert!(c.send(r#"{"op":"ping"}"#).contains("\"ok\":true"));
            start.elapsed()
        })
        .collect();
    trips.sort();
    let median = trips[trips.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median ping round trip {median:?}; all: {trips:?}"
    );
}

const WIDE: &str = "select cust, prod, day, month, year, state, sum(sale), count(*) from Sales \
                    group by cust, prod, day, month, year, state";

#[test]
fn a_large_result_arrives_as_one_intact_line() {
    let (server, svc) = boot(40_000);
    let mut c = Client::connect(server.local_addr());
    let sid = int_field(&c.send(r#"{"op":"open"}"#), "session");
    let req = format!(r#"{{"op":"query","session":{sid},"sql":"{WIDE}"}}"#);
    let over_the_socket = c.send(&req);
    assert!(
        over_the_socket.len() >= 1 << 20,
        "{}",
        over_the_socket.len()
    );
    assert!(over_the_socket.ends_with("}\n"));
    let in_process = mdj_server::wire::handle_line(&svc, &req);
    assert_eq!(
        over_the_socket.strip_suffix('\n'),
        Some(in_process.as_str())
    );
    // The connection is still in frame: the next reply is its own line.
    assert_eq!(c.send(r#"{"op":"ping"}"#), "{\"ok\":true}\n");
}

#[test]
fn pipelined_requests_get_their_replies_in_order_and_nothing_else() {
    let (server, svc) = boot(2_000);
    let mut c = Client::connect(server.local_addr());
    let sid = int_field(&c.send(r#"{"op":"open"}"#), "session");
    // A long reply, then a short error line, then a ping — one segment. The
    // connection's reply buffer is reused: each line must be exactly what
    // the dispatcher produces for its request, not a byte more.
    let big = format!(r#"{{"op":"query","session":{sid},"sql":"{WIDE}"}}"#);
    let bad = r#"{"op":"warp"}"#;
    let ping = r#"{"op":"ping"}"#;
    c.writer
        .write_all(format!("{big}\n{bad}\n{ping}\n").as_bytes())
        .unwrap();
    for req in [big.as_str(), bad, ping] {
        let mut resp = String::new();
        c.reader.read_line(&mut resp).unwrap();
        let expected = mdj_server::wire::handle_line(&svc, req);
        assert_eq!(resp.strip_suffix('\n'), Some(expected.as_str()));
    }
    assert!(mdj_server::wire::handle_line(&svc, &big).len() > 50_000);
}

/// A reply that cannot be written tears the connection down through the
/// same path a broken pipe takes, and the sessions it opened are closed.
#[cfg(feature = "fault-injection")]
#[test]
fn a_failed_reply_write_closes_the_connection_and_its_sessions() {
    let (server, svc) = boot(100);
    let mut c = Client::connect(server.local_addr());
    let sid = int_field(&c.send(r#"{"op":"open"}"#), "session");
    assert_eq!(svc.session_count(), 1);
    svc.set_fault_injector(Some(Arc::new(
        mdj_core::FaultInjector::new(7)
            .period(1)
            .server_write_failures(1),
    )));
    // The query runs, its reply is lost, the peer sees EOF and no bytes.
    let req = format!(r#"{{"op":"query","session":{sid},"sql":"select count(*) from Sales"}}"#);
    c.writer.write_all(format!("{req}\n").as_bytes()).unwrap();
    let mut resp = String::new();
    assert_eq!(c.reader.read_line(&mut resp).unwrap_or(0), 0, "{resp}");
    for _ in 0..1_000 {
        if svc.session_count() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(svc.session_count(), 0, "lost reply leaked the session");
    assert_eq!(svc.pool().reserved(), 0, "lost reply leaked pool bytes");
    // The server itself is fine: the fault budget is spent.
    let mut d = Client::connect(server.local_addr());
    assert!(d.send(r#"{"op":"ping"}"#).contains("\"ok\":true"));
}
