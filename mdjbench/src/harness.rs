//! One booted `mdjd`: generated tables, optional page store, the query
//! service and its TCP front end, assembled the way `mdjd`'s `build_service`
//! does, plus the line-protocol client that drives it.

use crate::workload::{Op, Workload};
use mdj_core::EngineConfig;
use mdj_server::json::Json;
use mdj_server::{ConnLimits, QueryService, Server, ServiceConfig};
use mdj_storage::{PagedStore, Relation, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `mdjd`'s default `--read-timeout` and `--drain`.
const READ_TIMEOUT: Duration = Duration::from_millis(60_000);
const DRAIN: Duration = Duration::from_millis(5_000);

/// Where run artefacts go: next to the executable, which is inside the
/// (git-ignored) cargo target directory of the checkout.
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running executable");
    exe.parent()
        .expect("executable has a parent directory")
        .join("mdjbench-out")
}

/// A directory under [`out_dir`] that is removed when dropped. Page stores
/// and spill files of one instance live here, so nothing survives a run.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(label: &str) -> Scratch {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = out_dir().join(format!(
            "tmp-{}-{}-{label}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Scratch(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The generated tables of one seed.
pub fn generate(w: &Workload, seed: u64) -> (Relation, Relation) {
    let sales = mdj_datagen::sales(
        &mdj_datagen::SalesConfig::default()
            .with_rows(w.sales_rows)
            .with_seed(seed),
    );
    let payments = mdj_datagen::payments(
        &mdj_datagen::PaymentsConfig::default()
            .with_rows(w.sales_rows / 2)
            .with_seed(seed.wrapping_add(1)),
    );
    (sales, payments)
}

pub struct Instance {
    pub service: Arc<QueryService>,
    pub server: Server,
    pub store: Option<Arc<PagedStore>>,
    /// `Sales` rows at boot (before any ingest).
    pub initial_rows: u64,
    scratch: Scratch,
}

impl Instance {
    /// Datagen, page-store creation, service assembly and bind — `mdjd`'s
    /// defaults for every flag the workload does not name.
    pub fn boot(w: &Workload, seed: u64) -> Instance {
        let scratch = Scratch::new(w.name);
        let (sales, payments) = generate(w, seed);
        let initial_rows = sales.len() as u64;
        let mut engine = EngineConfig::new().with_spill_dir(scratch.path().join("spill"));
        std::fs::create_dir_all(scratch.path().join("spill")).expect("create spill directory");
        let mut store = None;
        if let Some(p) = w.paged {
            let dir = scratch.path().join("store");
            let (s, _boot) = PagedStore::open(&dir).expect("open page store");
            for (name, rel) in [("Sales", &sales), ("Payments", &payments)] {
                s.create_table(name, rel, "month", p.page_bytes)
                    .expect("create paged table");
            }
            // Serve the re-read tables, as mdjd does, so memory and disk
            // agree on the clustered row order.
            for name in s.table_names() {
                let rel = s
                    .table(&name)
                    .expect("table just created")
                    .read_all(None)
                    .expect("read table back");
                engine = engine.register_table(name, rel);
            }
            store = Some(s);
        } else {
            engine = engine
                .register_table("Sales", sales)
                .register_table("Payments", payments);
        }
        if w.cache_mib > 0 {
            engine = engine.with_cuboid_cache(w.cache_mib << 20);
        }
        let engine = engine.build();
        if let Some(s) = &store {
            for name in s.table_names() {
                let table = s.table(&name).expect("table just created");
                engine
                    .catalog()
                    .attach_paged(&name, table)
                    .expect("attach paged table");
            }
        }
        let service = Arc::new(QueryService::new(engine, ServiceConfig::default()));
        if let (Some(s), Some(p)) = (&store, w.paged) {
            let pool =
                mdj_core::PoolChargeAdapter::hooked_pool(service.pool().clone(), p.buffer_bytes);
            service.engine().attach_buffer_pool(pool);
            service.attach_paged_store(s.clone());
        }
        let limits = ConnLimits {
            read_timeout: Some(READ_TIMEOUT),
            ..ConnLimits::default()
        };
        let server =
            Server::bind_with("127.0.0.1:0", service.clone(), limits).expect("bind 127.0.0.1:0");
        Instance {
            service,
            server,
            store,
            initial_rows,
            scratch,
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Drain and stop the server. Returns the scratch directory (still
    /// holding the page store) and whether the drain was clean.
    pub fn shutdown(self) -> (Scratch, bool) {
        // Resident buffer-pool frames hold memory-pool grants; release them
        // or the drain waits its full grace period for the pool to empty.
        if let Some(pool) = self.service.engine().buffer_pool() {
            pool.clear();
        }
        let report = self.server.shutdown(DRAIN);
        (self.scratch, report.is_clean())
    }
}

pub fn value_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::All => Json::obj(vec![("all", Json::Bool(true))]),
        Value::Int(i) => Json::Int(*i),
        Value::Float(f) => Json::Float(*f),
        Value::Str(s) => Json::Str(s.to_string()),
        Value::Bool(b) => Json::Bool(*b),
    }
}

/// One line-delimited JSON connection with an open session and, on prepared
/// workloads, one prepared statement per workload statement.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    pub session: i64,
    /// Server-side statement ids, parallel to `Workload::statements`.
    pub stmts: Vec<i64>,
}

impl Client {
    pub fn connect(addr: SocketAddr, w: &Workload) -> Client {
        let writer = TcpStream::connect(addr).expect("connect to the server");
        let reader = BufReader::new(writer.try_clone().expect("clone the socket"));
        let mut c = Client {
            writer,
            reader,
            session: 0,
            stmts: Vec::new(),
        };
        let mut buf = String::new();
        c.call(r#"{"op":"open"}"#, &mut buf);
        c.session = int_field(&buf, "session");
        if w.prepared {
            for s in &w.statements {
                let req = Json::obj(vec![
                    ("op", Json::Str("prepare".into())),
                    ("session", Json::Int(c.session)),
                    ("sql", Json::Str(s.sql.into())),
                ]);
                c.call(&req.encode(), &mut buf);
                c.stmts.push(int_field(&buf, "stmt"));
            }
        }
        c
    }

    /// Send one request line and read the response line into `resp`
    /// (newline stripped). Returns the client-observed latency.
    pub fn call(&mut self, line: &str, resp: &mut String) -> Duration {
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        resp.clear();
        let start = Instant::now();
        self.writer.write_all(&frame).expect("write request");
        self.reader.read_line(resp).expect("read response");
        let elapsed = start.elapsed();
        if resp.ends_with('\n') {
            resp.pop();
        }
        elapsed
    }

    /// The request line for a scheduled op on this connection.
    pub fn request(&self, w: &Workload, op: &Op) -> String {
        let session = ("session", Json::Int(self.session));
        match op {
            Op::Read { stmt, params } if w.prepared => Json::obj(vec![
                ("op", Json::Str("execute".into())),
                session,
                ("stmt", Json::Int(self.stmts[*stmt])),
                ("args", Json::Arr(params.iter().map(value_json).collect())),
            ]),
            Op::Read { stmt, params } => Json::obj(vec![
                ("op", Json::Str("query".into())),
                session,
                ("sql", Json::Str(w.literal_sql(*stmt, params))),
            ]),
            Op::Ingest { rows } => Json::obj(vec![
                ("op", Json::Str("ingest".into())),
                session,
                ("table", Json::Str("Sales".into())),
                (
                    "rows",
                    Json::Arr(
                        rows.iter()
                            .map(|r| Json::Arr(r.values().iter().map(value_json).collect()))
                            .collect(),
                    ),
                ),
            ]),
        }
        .encode()
    }
}

fn int_field(resp: &str, key: &str) -> i64 {
    mdj_server::json::parse(resp)
        .ok()
        .and_then(|j| j.get(key).and_then(Json::as_int))
        .unwrap_or_else(|| panic!("no integer `{key}` in server response: {resp}"))
}
