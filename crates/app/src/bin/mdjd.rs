//! `mdjd` — the multi-tenant MD-join query server daemon.
//!
//! Boots a [`mdj_server::Server`] over generated `Sales` and `Payments`
//! tables and serves the line-delimited JSON protocol (see
//! `crates/server/src/wire.rs`) on a TCP port. All sessions share one
//! immutable engine configuration; per-query memory budgets are drawn from
//! a global pool with bounded-queue admission control.
//!
//! ```text
//! cargo run -p mdj-app --bin mdjd --release -- [flags]
//!
//!   --port N        listen port (default 7450; 0 = ephemeral)
//!   --rows N        generated rows per table (default 20000)
//!   --pool BYTES    global memory pool capacity (default 268435456)
//!   --budget BYTES  default per-query budget (default 16777216)
//!   --queue N       max queries waiting for admission (default 32)
//!   --wait MS       max admission wait before PoolExhausted (default 500)
//!   --deadline MS   default per-query deadline (default 30000; 0 = none)
//!   --max-conns N   max concurrent connections; excess shed with
//!                   `server_busy` (default 64)
//!   --read-timeout MS  idle/read timeout per connection; stalled peers
//!                   shed with `idle_timeout` (default 60000; 0 = none)
//!   --drain MS      graceful-shutdown drain deadline: in-flight queries
//!                   get this long before being cancelled (default 5000)
//!   --data DIR      durable page store directory. First boot clusters the
//!                   generated tables into checksummed pages under DIR;
//!                   later boots serve the persisted tables (including every
//!                   acknowledged ingest batch) instead of regenerating.
//!                   Queries stream pages through a buffer pool and report
//!                   `bytes_read`/`pages_read` in their stats.
//!   --page BYTES    page size for tables created under --data
//!                   (default 4096)
//!   --buffer BYTES  buffer-pool budget for paged reads; resident pages
//!                   are charged against the global memory pool, so cached
//!                   pages and query state compete for one limit
//!                   (default 8388608)
//!   --cache MIB     cuboid result cache budget in MiB; repeated canonical
//!                   group-by MD-joins are answered from memory, coarser
//!                   ones roll up from finer cached cuboids, and `ingest`
//!                   batches maintain distributive entries incrementally
//!                   (default 64; 0 = disabled)
//!   --self-test     boot on an ephemeral port, run a scripted smoke
//!                   session (ping/open/prepare/execute/cancel/shed/
//!                   oversized-frame/crash-recovery/ingest/cache/shutdown)
//!                   against the real socket, and exit nonzero on failure
//! ```
//!
//! On startup the engine sweeps its spill directory for orphaned spill files
//! left by a crashed predecessor (crash-only recovery). On SIGTERM/SIGINT —
//! or a client `shutdown` op — the server stops accepting, drains in-flight
//! queries up to `--drain`, cancels stragglers, verifies the memory pool is
//! back to zero, and exits 0 only on a clean drain.
//!
//! The `--self-test` mode is what CI runs: it exercises the full TCP path —
//! prepared statements, parameter binding, mid-flight cancellation, typed
//! load shedding (`deadline_exceeded`, `pool_exhausted`), hostile frames,
//! and graceful shutdown — and asserts the pool drains back to zero bytes.

#![deny(unsafe_code)]

use mdj_core::EngineConfig;
use mdj_server::{ConnLimits, QueryService, Server, ServiceConfig};
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone)]
struct Args {
    port: u16,
    rows: usize,
    pool: usize,
    budget: usize,
    queue: usize,
    wait_ms: u64,
    deadline_ms: u64,
    max_conns: usize,
    read_timeout_ms: u64,
    drain_ms: u64,
    cache_mib: usize,
    data: Option<std::path::PathBuf>,
    page_bytes: u64,
    buffer_bytes: u64,
    self_test: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            port: 7450,
            rows: 20_000,
            pool: 256 << 20,
            budget: 16 << 20,
            queue: 32,
            wait_ms: 500,
            deadline_ms: 30_000,
            max_conns: 64,
            read_timeout_ms: 60_000,
            drain_ms: 5_000,
            cache_mib: 64,
            data: None,
            page_bytes: 4096,
            buffer_bytes: 8 << 20,
            self_test: false,
        }
    }
}

impl Args {
    fn conn_limits(&self) -> ConnLimits {
        ConnLimits {
            max_conns: self.max_conns,
            read_timeout: match self.read_timeout_ms {
                0 => None,
                ms => Some(Duration::from_millis(ms)),
            },
            ..ConnLimits::default()
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut numeric = |name: &str| -> u64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| die(&format!("{name} needs a numeric argument")))
        };
        match flag.as_str() {
            "--port" => args.port = numeric("--port") as u16,
            "--rows" => args.rows = numeric("--rows") as usize,
            "--pool" => args.pool = numeric("--pool") as usize,
            "--budget" => args.budget = numeric("--budget") as usize,
            "--queue" => args.queue = numeric("--queue") as usize,
            "--wait" => args.wait_ms = numeric("--wait"),
            "--deadline" => args.deadline_ms = numeric("--deadline"),
            "--max-conns" => args.max_conns = numeric("--max-conns") as usize,
            "--read-timeout" => args.read_timeout_ms = numeric("--read-timeout"),
            "--drain" => args.drain_ms = numeric("--drain"),
            "--cache" => args.cache_mib = numeric("--cache") as usize,
            "--data" => {
                args.data = Some(
                    it.next()
                        .unwrap_or_else(|| die("--data needs a directory argument"))
                        .into(),
                )
            }
            "--page" => args.page_bytes = numeric("--page"),
            "--buffer" => args.buffer_bytes = numeric("--buffer"),
            "--self-test" => args.self_test = true,
            "--help" | "-h" => {
                println!("usage: mdjd [--port N] [--rows N] [--pool BYTES] [--budget BYTES] [--queue N] [--wait MS] [--deadline MS] [--max-conns N] [--read-timeout MS] [--drain MS] [--cache MIB] [--data DIR] [--page BYTES] [--buffer BYTES] [--self-test]");
                std::process::exit(0);
            }
            other => die(&format!("unknown flag `{other}` (try --help)")),
        }
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("mdjd: {msg}");
    std::process::exit(2);
}

fn build_service(args: &Args) -> Arc<QueryService> {
    let mut engine = EngineConfig::new();
    let mut paged: Option<Arc<mdj_storage::PagedStore>> = None;
    if let Some(dir) = &args.data {
        // Durable catalog: open (or initialize) the page store and serve
        // its tables. Re-reading just-created tables keeps first boot and
        // every restart on the identical clustered row order.
        let (store, boot) = mdj_storage::PagedStore::open(dir)
            .unwrap_or_else(|e| die(&format!("--data {}: {e}", dir.display())));
        if boot.recovered_anything() {
            println!(
                "mdjd: page-store boot recovery at {}: {} torn table(s) ({} orphan bytes \
                 truncated), {} lost page(s), {} tmp manifest(s) removed{}",
                dir.display(),
                boot.torn_tables,
                boot.orphan_bytes,
                boot.lost_pages,
                boot.tmp_removed,
                if boot.manifest_fallback {
                    ", manifest fell back to .prev"
                } else {
                    ""
                },
            );
        }
        if store.table_names().is_empty() {
            let sales =
                mdj_datagen::sales(&mdj_datagen::SalesConfig::default().with_rows(args.rows));
            let payments =
                mdj_datagen::payments(&mdj_datagen::PaymentsConfig::default().with_rows(args.rows));
            // Cluster on `month`: the demo workloads range-filter by month,
            // so Theorem 4.2 pruning maps to contiguous page runs.
            for (name, rel) in [("Sales", &sales), ("Payments", &payments)] {
                store
                    .create_table(name, rel, "month", args.page_bytes)
                    .unwrap_or_else(|e| die(&format!("--data init {name}: {e}")));
            }
            println!(
                "mdjd: initialized page store at {} ({} rows/table, {} B pages)",
                dir.display(),
                args.rows,
                args.page_bytes,
            );
        }
        for name in store.table_names() {
            let table = store
                .table(&name)
                .unwrap_or_else(|| die(&format!("--data: table `{name}` vanished")));
            let rel = table
                .read_all(None)
                .unwrap_or_else(|e| die(&format!("--data load {name}: {e}")));
            println!(
                "mdjd: serving `{name}` from disk: {} rows in {} pages (generation {})",
                table.row_count(),
                table.page_count(),
                store.generation(),
            );
            engine = engine.register_table(name, rel);
        }
        paged = Some(store);
    } else {
        let sales = mdj_datagen::sales(&mdj_datagen::SalesConfig::default().with_rows(args.rows));
        let payments =
            mdj_datagen::payments(&mdj_datagen::PaymentsConfig::default().with_rows(args.rows));
        engine = engine
            .register_table("Sales", sales)
            .register_table("Payments", payments);
    }
    // `--cache 0` disables the cuboid cache entirely.
    if args.cache_mib > 0 {
        engine = engine.with_cuboid_cache(args.cache_mib << 20);
    }
    let engine = engine.build();
    if let Some(store) = &paged {
        for name in store.table_names() {
            if let Some(t) = store.table(&name) {
                let _ = engine.catalog().attach_paged(&name, t);
            }
        }
    }
    let config = ServiceConfig {
        pool_bytes: args.pool,
        default_budget: args.budget,
        max_waiters: args.queue,
        admission_wait: Duration::from_millis(args.wait_ms),
        default_deadline: match args.deadline_ms {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        },
    };
    let service = Arc::new(QueryService::new(engine, config));
    if let Some(store) = paged {
        // Paged reads go through a buffer pool whose resident bytes are
        // charged to the same MemoryPool queries draw budgets from.
        let pool =
            mdj_core::PoolChargeAdapter::hooked_pool(service.pool().clone(), args.buffer_bytes);
        service.engine().attach_buffer_pool(pool);
        service.attach_paged_store(store);
    }
    service
}

/// SIGTERM/SIGINT flip the shared [`ShutdownController`] — a single atomic
/// compare-exchange, so the handler is async-signal-safe. The main loop
/// observes the flag and performs the actual drain outside signal context.
#[cfg(unix)]
mod signals {
    use mdj_server::ShutdownController;
    use std::sync::OnceLock;

    static CONTROLLER: OnceLock<ShutdownController> = OnceLock::new();
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_sig: i32) {
        if let Some(c) = CONTROLLER.get() {
            c.request();
        }
    }

    #[allow(unsafe_code)]
    pub fn install(controller: ShutdownController) -> bool {
        const SIG_ERR: usize = usize::MAX;
        if CONTROLLER.set(controller).is_err() {
            return false;
        }
        let a = unsafe { signal(SIGINT, on_signal) } != SIG_ERR;
        let b = unsafe { signal(SIGTERM, on_signal) } != SIG_ERR;
        a && b
    }
}

#[cfg(not(unix))]
mod signals {
    use mdj_server::ShutdownController;
    pub fn install(_controller: ShutdownController) -> bool {
        false
    }
}

fn main() {
    let args = parse_args();
    if args.self_test {
        self_test::run(&args);
        return;
    }
    let service = build_service(&args);
    let recovery = service.recovery_report();
    if recovery.removed > 0 {
        println!(
            "mdjd: recovered {} orphaned spill file(s) ({} bytes) left by a crashed process",
            recovery.removed, recovery.bytes_removed,
        );
    }
    let server = Server::bind_with(("0.0.0.0", args.port), service.clone(), args.conn_limits())
        .unwrap_or_else(|e| die(&format!("bind failed: {e}")));
    println!(
        "mdjd listening on {} ({} rows/table, pool {} MiB, queue {}, wait {} ms, max conns {}, read timeout {} ms)",
        server.local_addr(),
        args.rows,
        args.pool >> 20,
        args.queue,
        args.wait_ms,
        args.max_conns,
        args.read_timeout_ms,
    );
    if !signals::install(service.shutdown().clone()) {
        eprintln!("mdjd: warning: signal handlers not installed; drain via the `shutdown` op");
    }
    // Wait for SIGTERM/SIGINT or a client `shutdown` op, then drain.
    while !service.shutdown().is_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    println!(
        "mdjd: shutdown requested; draining up to {} ms",
        args.drain_ms
    );
    let report = server.shutdown(Duration::from_millis(args.drain_ms));
    println!(
        "mdjd: drain complete: {} in flight at request, {} cancelled, pool_reserved={}, pool_waiters={}, sessions={}",
        report.in_flight_at_request,
        report.cancelled,
        report.pool_reserved,
        report.pool_waiters,
        report.sessions,
    );
    if !report.is_clean() {
        eprintln!("mdjd: drain left resources behind; exiting 1");
        std::process::exit(1);
    }
}

/// The CI smoke session: a scripted client driving the real TCP socket.
mod self_test {
    use super::{build_service, Args};
    use mdj_server::Server;
    use std::io::{BufRead, BufReader, Write};
    use std::net::{SocketAddr, TcpStream};

    /// One line-delimited JSON client connection.
    struct Client {
        writer: TcpStream,
        reader: BufReader<TcpStream>,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let writer = TcpStream::connect(addr).expect("connect");
            writer.set_nodelay(true).expect("nodelay");
            let reader = BufReader::new(writer.try_clone().expect("clone"));
            Client { writer, reader }
        }

        /// One request frame, one write, one response line.
        fn send(&mut self, line: &str) -> String {
            self.writer
                .write_all(format!("{line}\n").as_bytes())
                .expect("write");
            let mut resp = String::new();
            self.reader.read_line(&mut resp).expect("read");
            resp
        }
    }

    fn check(step: &str, resp: &str, needle: &str) {
        if !resp.contains(needle) {
            eprintln!("mdjd self-test FAILED at `{step}`:\n  expected substring: {needle}\n  response: {resp}");
            std::process::exit(1);
        }
        println!("ok: {step}");
    }

    fn int_field(resp: &str, key: &str) -> i64 {
        // The wire format is single-line JSON with sorted keys; a substring
        // scan is enough for the smoke test's integer fields.
        let marker = format!("\"{key}\":");
        let start = resp.find(&marker).map(|i| i + marker.len());
        let Some(start) = start else {
            eprintln!("mdjd self-test FAILED: no `{key}` in {resp}");
            std::process::exit(1);
        };
        resp[start..]
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '-')
            .collect::<String>()
            .parse()
            .unwrap_or_else(|_| {
                eprintln!("mdjd self-test FAILED: bad `{key}` in {resp}");
                std::process::exit(1);
            })
    }

    /// Durable catalog smoke: boot with `--data`, ingest one acknowledged
    /// batch, "restart" (rebuild the service from the same directory), and
    /// verify the restarted service serves the same tables *including* the
    /// batch — plus a paged query that actually reads pages.
    fn durable_restart_smoke(args: &Args) {
        use mdj_storage::{Row, Value};
        let dir = std::env::temp_dir().join(format!("mdjd-selftest-data-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut dargs = args.clone();
        dargs.data = Some(dir.clone());
        dargs.rows = 2_000;
        // Disable the cuboid cache so the canonical group-by below cannot
        // be answered from memory — this smoke must hit the page store.
        dargs.cache_mib = 0;
        let svc = super::build_service(&dargs);
        let before = svc
            .engine()
            .catalog()
            .get("Sales")
            .expect("Sales from page store")
            .len();
        let sid = svc.open_session();
        svc.ingest(
            sid,
            "Sales",
            vec![Row::new(vec![
                Value::Int(1),
                Value::Int(1),
                Value::Int(1),
                Value::Int(1),
                Value::Int(2024),
                Value::str("NY"),
                Value::Float(5.0),
            ])],
        )
        .expect("durable ingest");
        // A paged MD-join must stream pages through the buffer pool, and a
        // clustered-key range predicate (Theorem 4.2) must prune pages.
        let full = svc
            .query(
                sid,
                "select cust, sum(sale) from Sales group by cust",
                Default::default(),
            )
            .expect("paged query");
        if full.stats.pages_read == 0 || full.stats.bytes_read == 0 {
            eprintln!(
                "mdjd self-test FAILED: --data query read no pages (stats: {:?})",
                full.stats
            );
            std::process::exit(1);
        }
        svc.engine().buffer_pool().expect("buffer pool").clear();
        let pruned = svc
            .query(
                sid,
                "select cust, sum(sale) from Sales where month = 3 group by cust",
                Default::default(),
            )
            .expect("pruned paged query");
        if pruned.stats.pages_read == 0 || pruned.stats.pages_read >= full.stats.pages_read {
            eprintln!(
                "mdjd self-test FAILED: key-range pruning did not cut pages \
                 ({} vs {} unpruned)",
                pruned.stats.pages_read, full.stats.pages_read
            );
            std::process::exit(1);
        }
        println!(
            "ok: --data paged scan ({} pages full, {} pages with month = 3)",
            full.stats.pages_read, pruned.stats.pages_read
        );
        drop(svc);
        // "Restart": rebuild from the same directory.
        let svc2 = super::build_service(&dargs);
        let after = svc2
            .engine()
            .catalog()
            .get("Sales")
            .expect("Sales after restart")
            .len();
        if after != before + 1 {
            eprintln!(
                "mdjd self-test FAILED: restart lost the ingested batch \
                 ({before} rows before, {after} after; wanted {})",
                before + 1
            );
            std::process::exit(1);
        }
        if svc2.engine().catalog().paged("Sales").is_none() {
            eprintln!("mdjd self-test FAILED: restarted Sales not paged-backed");
            std::process::exit(1);
        }
        let _ = std::fs::remove_dir_all(&dir);
        println!("ok: --data restart served {after} rows (ingested batch survived)");
    }

    pub fn run(args: &Args) {
        durable_restart_smoke(args);
        // Crash recovery: plant an orphaned spill file under a dead pid
        // *before* the engine boots; startup must sweep it away.
        let orphan = std::env::temp_dir().join("mdj-spill-999999999-0-selftest.run");
        std::fs::write(&orphan, b"MDJP orphaned by a crash").expect("plant orphan");
        let service = build_service(args);
        let recovery = service.recovery_report();
        if orphan.exists() || recovery.removed < 1 {
            eprintln!("mdjd self-test FAILED: planted orphan not swept (report: {recovery:?})");
            std::process::exit(1);
        }
        println!(
            "ok: crash recovery swept {} orphan(s), {} bytes",
            recovery.removed, recovery.bytes_removed
        );
        let server =
            Server::bind_with("127.0.0.1:0", service.clone(), args.conn_limits()).expect("bind");
        let addr = server.local_addr();
        println!("mdjd self-test against {addr} ({} rows/table)", args.rows);

        // Hostile client: a frame past the limit is shed with a typed code
        // on its own connection, before the scripted session even starts.
        let mut evil = Client::connect(addr);
        let resp = evil.send(&"x".repeat(args.conn_limits().max_frame_bytes + 1));
        check(
            "oversized frame shed",
            &resp,
            "\"code\":\"frame_too_large\"",
        );
        drop(evil);

        let mut c = Client::connect(addr);
        check("ping", &c.send(r#"{"op":"ping"}"#), "\"ok\":true");

        let resp = c.send(r#"{"op":"open"}"#);
        check("open", &resp, "\"ok\":true");
        let sid = int_field(&resp, "session");

        // Prepared statement with a `?` placeholder, bound per execute.
        let resp = c.send(&format!(
            r#"{{"op":"prepare","session":{sid},"sql":"select cust, sum(sale) from Sales where month = ? group by cust"}}"#
        ));
        check("prepare", &resp, "\"params\":1");
        let stmt = int_field(&resp, "stmt");

        let resp = c.send(&format!(
            r#"{{"op":"execute","session":{sid},"stmt":{stmt},"args":[3],"tag":"q1"}}"#
        ));
        check("execute", &resp, "\"rows\":[[");

        // Re-binding the same statement with a different value.
        let resp = c.send(&format!(
            r#"{{"op":"execute","session":{sid},"stmt":{stmt},"args":[7]}}"#
        ));
        check("rebind", &resp, "\"ok\":true");

        // Mid-flight cancellation: a heavy cube query runs on this
        // connection in a spawned thread while a *second* connection sends
        // the cancel — sessions are service-global, so out-of-band
        // cancellation must work across connections.
        let heavy = format!(
            r#"{{"op":"query","session":{sid},"sql":"select cust, prod, month, sum(sale) from Sales analyze by cube(cust, prod, month)","tag":"slow","deadline_ms":60000}}"#
        );
        // The thread returns the client so the connection stays open —
        // dropping it would trigger the server's disconnect cleanup and
        // close the session out from under the rest of the script.
        let runner = std::thread::spawn(move || {
            let resp = c.send(&heavy);
            (c, resp)
        });
        let mut side = Client::connect(addr);
        let mut cancelled = false;
        for _ in 0..500 {
            let resp = side.send(&format!(
                r#"{{"op":"cancel","session":{sid},"tag":"slow"}}"#
            ));
            check("cancel rpc", &resp, "\"ok\":true");
            if resp.contains("\"cancelled\":true") {
                cancelled = true;
                break;
            }
            if runner.is_finished() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let (mut c, resp) = runner.join().expect("runner thread");
        if cancelled {
            check("cancelled outcome", &resp, "\"code\":\"cancelled\"");
        } else {
            // The cube finished before the cancel landed — still a pass,
            // but say so in the log.
            check("heavy finished before cancel", &resp, "\"ok\":true");
        }
        drop(side);

        // Typed shedding: an immediate deadline trips `deadline_exceeded`
        // at the first governor poll ...
        let resp = c.send(&format!(
            r#"{{"op":"query","session":{sid},"sql":"select cust, sum(sale) from Sales group by cust","deadline_ms":0}}"#
        ));
        check("deadline shed", &resp, "\"code\":\"deadline_exceeded\"");

        // ... and a budget larger than the whole pool sheds with
        // `pool_exhausted` without executing anything.
        let resp = c.send(&format!(
            r#"{{"op":"query","session":{sid},"sql":"select count(*) from Sales","budget":{}}}"#,
            args.pool + 1
        ));
        check("pool shed", &resp, "\"code\":\"pool_exhausted\"");

        // The pool must be fully drained now that nothing is running, and
        // stats must remember the startup recovery sweep.
        let resp = c.send(r#"{"op":"stats"}"#);
        check("pool drained", &resp, "\"pool_reserved\":0");
        if int_field(&resp, "recovered_spill_files") < 1 {
            eprintln!("mdjd self-test FAILED: stats lost the recovery sweep: {resp}");
            std::process::exit(1);
        }
        println!("ok: stats report recovery sweep");

        check(
            "close",
            &c.send(&format!(r#"{{"op":"close","session":{sid}}}"#)),
            "\"ok\":true",
        );
        check(
            "double close rejected",
            &c.send(&format!(r#"{{"op":"close","session":{sid}}}"#)),
            "\"code\":\"unknown_session\"",
        );

        if service.pool().reserved() != 0 {
            eprintln!("mdjd self-test FAILED: pool not drained");
            std::process::exit(1);
        }

        // Cuboid cache smoke: a canonical group-by MD-join repeated on a
        // fresh session — the repeat must be a cache hit, and an ingested
        // batch must be folded into the resident entry (Algorithm 3.1)
        // rather than invalidating it.
        let resp = c.send(r#"{"op":"open"}"#);
        let sid3 = int_field(&resp, "session");
        let cube_q = format!(
            r#"{{"op":"query","session":{sid3},"sql":"select cust, sum(sale), count(*) from Sales group by cust"}}"#
        );
        check("cache cold query", &c.send(&cube_q), "\"ok\":true");
        check("cache warm query", &c.send(&cube_q), "\"ok\":true");
        let resp = c.send(r#"{"op":"stats"}"#);
        if int_field(&resp, "cache_hits") < 1 || int_field(&resp, "cache_entries") < 1 {
            eprintln!("mdjd self-test FAILED: warm repeat did not hit the cuboid cache: {resp}");
            std::process::exit(1);
        }
        println!("ok: cuboid cache hit on warm repeat");
        let resp = c.send(&format!(
            r#"{{"op":"ingest","session":{sid3},"table":"Sales","rows":[[1,1,1,1,2024,"NY",5.0],[1,2,2,1,2024,"NY",7.0]]}}"#
        ));
        check("ingest maintains cache", &resp, "\"cache_maintained\":1");
        check("ingest rows", &resp, "\"rows\":2");
        check("warm after ingest", &c.send(&cube_q), "\"ok\":true");
        let resp = c.send(r#"{"op":"stats"}"#);
        if int_field(&resp, "ingest_batches") < 1 || int_field(&resp, "cache_hits") < 2 {
            eprintln!("mdjd self-test FAILED: maintained entry did not serve post-ingest: {resp}");
            std::process::exit(1);
        }
        println!("ok: ingest maintained the cached cuboid");
        check(
            "close cache session",
            &c.send(&format!(r#"{{"op":"close","session":{sid3}}}"#)),
            "\"ok\":true",
        );

        // Graceful shutdown: the wire op flips the drain flag, new queries
        // are shed with `shutting_down`, and the drain verifies the pool.
        let resp = c.send(r#"{"op":"shutdown"}"#);
        check("shutdown op", &resp, "\"draining\":true");
        let resp = c.send(r#"{"op":"open"}"#);
        let sid2 = int_field(&resp, "session");
        let resp = c.send(&format!(
            r#"{{"op":"query","session":{sid2},"sql":"select count(*) from Sales"}}"#
        ));
        check("draining shed", &resp, "\"code\":\"shutting_down\"");
        let report = server.shutdown(std::time::Duration::from_millis(args.drain_ms));
        if !report.is_clean() {
            eprintln!("mdjd self-test FAILED: drain not clean: {report:?}");
            std::process::exit(1);
        }
        println!("ok: graceful drain clean ({report:?})");
        println!("mdjd self-test passed");
    }
}
