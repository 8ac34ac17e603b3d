//! The line-delimited JSON wire protocol.
//!
//! One request per line, one response per line, UTF-8. Requests are JSON
//! objects with an `op` field:
//!
//! ```text
//! {"op":"open"}
//! {"op":"prepare","session":1,"sql":"select cust, sum(sale) from Sales where month = ? group by cust"}
//! {"op":"execute","session":1,"stmt":1,"args":[2],"tag":"q1","budget":1048576,"deadline_ms":5000}
//! {"op":"query","session":1,"sql":"select count(*) from Sales"}
//! {"op":"ingest","session":1,"table":"Sales","rows":[[1,2,"NY",9.5]]}
//! {"op":"cancel","session":1,"tag":"q1"}
//! {"op":"deallocate","session":1,"stmt":1}
//! {"op":"close","session":1}
//! {"op":"ping"}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! Responses always carry `ok`. Success: `{"ok":true,...}` with op-specific
//! fields (`session`, `stmt`/`params`, or `columns`/`rows`/`stats`).
//! Failure: `{"ok":false,"code":"pool_exhausted","error":"..."}` — `code`
//! is stable ([`ServerError::code`]), `error` is human-readable.
//!
//! Values map as: `Null`↔`null`, `Int`↔integer, `Float`↔float,
//! `Str`↔string, `Bool`↔bool, and the cube `ALL` pseudo-value encodes as
//! `{"all":true}` (it never appears in requests).

use crate::error::ServerError;
use crate::json::{self, parse, Json};
use crate::service::{ExecOptions, QueryOutcome, QueryService};
use mdj_storage::{CounterDef, StatsSnapshot, Value};
use std::time::Duration;

/// Decode one request line, dispatch it to the service, encode the response
/// line (without trailing newline).
pub fn handle_line(service: &QueryService, line: &str) -> String {
    let mut out = String::new();
    respond(service, line, &mut out);
    out
}

/// What a request did to the service's session table — how a connection
/// keeps the list of sessions it must close when it drops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SessionChange {
    None,
    Opened(u64),
    Closed(u64),
}

/// [`handle_line`] into a caller-owned buffer: the response line (success or
/// failure, without trailing newline) is appended to `out`.
pub(crate) fn respond(service: &QueryService, line: &str, out: &mut String) -> SessionChange {
    let start = out.len();
    dispatch(service, line, out).unwrap_or_else(|e| {
        out.truncate(start);
        write_error(&e, out);
        SessionChange::None
    })
}

/// Append one failure response line (without trailing newline). Also used
/// by the connection governor for errors raised outside `dispatch` —
/// shedding, frame, and timeout failures.
pub(crate) fn write_error(e: &ServerError, out: &mut String) {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("code", Json::Str(e.code().into())),
        ("error", Json::Str(e.to_string())),
    ])
    .write(out);
}

fn dispatch(
    service: &QueryService,
    line: &str,
    out: &mut String,
) -> Result<SessionChange, ServerError> {
    let mut sessions = SessionChange::None;
    let req = parse(line).map_err(ServerError::BadRequest)?;
    let op = req
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ServerError::BadRequest("missing `op`".into()))?;
    let reply = match op {
        "ping" => Json::obj(vec![("ok", Json::Bool(true))]),
        "stats" => {
            let pool = service.pool();
            let recovery = service.recovery_report();
            let totals = service.totals();
            let mut fields = vec![
                ("ok", Json::Bool(true)),
                ("sessions", Json::Int(service.session_count() as i64)),
                ("pool_capacity", Json::Int(pool.capacity() as i64)),
                ("pool_reserved", Json::Int(pool.reserved() as i64)),
                ("pool_waiters", Json::Int(pool.waiters() as i64)),
                (
                    "running_queries",
                    Json::Int(service.running_query_count() as i64),
                ),
                ("draining", Json::Bool(service.shutdown().is_requested())),
                ("recovered_spill_files", Json::Int(recovery.removed as i64)),
                (
                    "recovered_spill_bytes",
                    Json::Int(recovery.bytes_removed as i64),
                ),
                ("ingest_batches", Json::Int(totals.ingest_batches as i64)),
                ("ingest_rows", Json::Int(service.ingest_rows() as i64)),
                ("totals", Json::obj(counter_fields(&totals, |_| true))),
            ];
            if let Some(cache) = service.engine().cuboid_cache() {
                let m = cache.metrics();
                fields.push(("cache_hits", Json::Int(m.hits as i64)));
                fields.push(("cache_rollup_hits", Json::Int(m.rollup_hits as i64)));
                fields.push(("cache_misses", Json::Int(m.misses as i64)));
                fields.push(("cache_invalidations", Json::Int(m.invalidations as i64)));
                fields.push(("cache_entries", Json::Int(m.entries as i64)));
                fields.push(("cache_bytes", Json::Int(m.bytes as i64)));
                fields.push(("cache_budget_bytes", Json::Int(m.budget_bytes as i64)));
            }
            Json::obj(fields)
        }
        "ingest" => {
            let table = str_field(&req, "table")?;
            let rows_json = req
                .get("rows")
                .and_then(Json::as_arr)
                .ok_or_else(|| ServerError::BadRequest("missing array `rows`".into()))?;
            let mut rows = Vec::with_capacity(rows_json.len());
            for row in rows_json {
                let vals = row
                    .as_arr()
                    .ok_or_else(|| ServerError::BadRequest("each row must be an array".into()))?
                    .iter()
                    .map(json_to_value)
                    .collect::<Result<Vec<Value>, _>>()?;
                rows.push(mdj_storage::Row::new(vals));
            }
            let report = service.ingest(session_of(&req)?, table, rows)?;
            Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("rows", Json::Int(report.rows as i64)),
                ("version", Json::Int(report.version as i64)),
                (
                    "cache_maintained",
                    Json::Int(report.cache_maintained as i64),
                ),
                (
                    "cache_invalidated",
                    Json::Int(report.cache_invalidated as i64),
                ),
            ])
        }
        "shutdown" => {
            // Flip the drain flag and acknowledge; the owner of the
            // `Server` handle (mdjd's signal loop) observes the flag and
            // performs the actual drain + exit. The wire op cannot block on
            // the drain itself: this connection's thread is part of what is
            // being drained.
            service.shutdown().request();
            Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("draining", Json::Bool(true)),
            ])
        }
        "open" => {
            let id = service.open_session();
            sessions = SessionChange::Opened(id);
            Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("session", Json::Int(id as i64)),
            ])
        }
        "close" => {
            let id = session_of(&req)?;
            service.close_session(id)?;
            sessions = SessionChange::Closed(id);
            Json::obj(vec![("ok", Json::Bool(true))])
        }
        "prepare" => {
            let sql = str_field(&req, "sql")?;
            let (stmt, params) = service.prepare(session_of(&req)?, sql)?;
            Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("stmt", Json::Int(stmt as i64)),
                ("params", Json::Int(params as i64)),
            ])
        }
        "deallocate" => {
            let stmt = int_field(&req, "stmt")? as u64;
            service.deallocate(session_of(&req)?, stmt)?;
            Json::obj(vec![("ok", Json::Bool(true))])
        }
        "execute" => {
            let stmt = int_field(&req, "stmt")? as u64;
            let args = args_of(&req)?;
            let outcome = service.execute(session_of(&req)?, stmt, &args, opts_of(&req)?)?;
            outcome_json(&outcome, out);
            return Ok(sessions);
        }
        "query" => {
            let sql = str_field(&req, "sql")?;
            let outcome = service.query(session_of(&req)?, sql, opts_of(&req)?)?;
            outcome_json(&outcome, out);
            return Ok(sessions);
        }
        "cancel" => {
            let tag = str_field(&req, "tag")?;
            let found = service.cancel(session_of(&req)?, tag)?;
            Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("cancelled", Json::Bool(found)),
            ])
        }
        other => return Err(ServerError::BadRequest(format!("unknown op `{other}`"))),
    };
    reply.write(out);
    Ok(sessions)
}

fn session_of(req: &Json) -> Result<u64, ServerError> {
    Ok(int_field(req, "session")? as u64)
}

fn int_field(req: &Json, key: &str) -> Result<i64, ServerError> {
    req.get(key)
        .and_then(Json::as_int)
        .ok_or_else(|| ServerError::BadRequest(format!("missing integer `{key}`")))
}

fn str_field<'a>(req: &'a Json, key: &str) -> Result<&'a str, ServerError> {
    req.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ServerError::BadRequest(format!("missing string `{key}`")))
}

fn args_of(req: &Json) -> Result<Vec<Value>, ServerError> {
    match req.get("args") {
        None => Ok(Vec::new()),
        Some(json) => json
            .as_arr()
            .ok_or_else(|| ServerError::BadRequest("`args` must be an array".into()))?
            .iter()
            .map(json_to_value)
            .collect(),
    }
}

fn opts_of(req: &Json) -> Result<ExecOptions, ServerError> {
    let budget = match req.get("budget") {
        None => None,
        Some(j) => Some(j.as_int().filter(|v| *v >= 0).ok_or_else(|| {
            ServerError::BadRequest("`budget` must be a non-negative integer".into())
        })? as usize),
    };
    let deadline = match req.get("deadline_ms") {
        None => None,
        Some(j) => Some(Duration::from_millis(
            j.as_int().filter(|v| *v >= 0).ok_or_else(|| {
                ServerError::BadRequest("`deadline_ms` must be a non-negative integer".into())
            })? as u64,
        )),
    };
    let tag = match req.get("tag") {
        None => None,
        Some(j) => Some(
            j.as_str()
                .ok_or_else(|| ServerError::BadRequest("`tag` must be a string".into()))?
                .to_string(),
        ),
    };
    Ok(ExecOptions {
        budget,
        deadline,
        tag,
    })
}

fn json_to_value(j: &Json) -> Result<Value, ServerError> {
    Ok(match j {
        Json::Null => Value::Null,
        Json::Bool(b) => Value::Bool(*b),
        Json::Int(v) => Value::Int(*v),
        Json::Float(v) => Value::Float(*v),
        Json::Str(s) => Value::str(s),
        Json::Arr(_) | Json::Obj(_) => {
            return Err(ServerError::BadRequest(
                "parameter values must be scalars".into(),
            ))
        }
    })
}

/// One cell, through the leaf writers `Json::write` itself uses.
fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::All => out.push_str(r#"{"all":true}"#),
        Value::Int(i) => json::write_int(*i, out),
        Value::Float(f) => json::write_float(*f, out),
        Value::Str(s) => json::write_escaped(s, out),
        Value::Bool(b) => json::write_bool(*b, out),
    }
}

/// The success line of `query`/`execute`, appended to `line`: the
/// relation's cells go straight into the connection's reply buffer — the one
/// serialisation of a result — in the key order a `Json::Obj` would give
/// them (`columns`, `ok`, `rows`, `stats`).
fn outcome_json(out: &QueryOutcome, line: &mut String) {
    let rel = &out.relation;
    line.push_str(r#"{"columns":"#);
    json::write_array(rel.schema().fields(), line, |f, line| {
        json::write_escaped(&f.name, line)
    });
    line.push_str(r#","ok":true,"rows":"#);
    json::write_array(rel.iter(), line, |row, line| {
        json::write_array(row.values(), line, write_value)
    });
    line.push_str(r#","stats":"#);
    Json::obj(counter_fields(&out.stats, |def| def.wire)).write(line);
    line.push('}');
}

/// The counter-table rows `keep` admits, as object fields keyed by table
/// name.
pub fn counter_fields(
    stats: &StatsSnapshot,
    keep: impl Fn(&CounterDef) -> bool,
) -> Vec<(&'static str, Json)> {
    stats
        .iter()
        .filter(|(def, _)| keep(def))
        .map(|(def, v)| (def.name, Json::Int(v as i64)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdj_core::EngineConfig;
    use mdj_storage::{DataType, Relation, Row, Schema};

    fn service() -> QueryService {
        let schema = Schema::from_pairs(&[("cust", DataType::Int), ("sale", DataType::Float)]);
        let rel = Relation::from_rows(
            schema,
            vec![
                Row::from_values(vec![Value::Int(1), Value::Float(10.0)]),
                Row::from_values(vec![Value::Int(2), Value::Float(30.0)]),
            ],
        );
        let engine = EngineConfig::new().register_table("Sales", rel).build();
        QueryService::new(engine, crate::ServiceConfig::default())
    }

    /// The per-cell `Json` tree the row writer replaced, kept as its
    /// reference.
    fn value_to_json(v: &Value) -> Json {
        match v {
            Value::Null => Json::Null,
            Value::All => Json::obj(vec![("all", Json::Bool(true))]),
            Value::Int(i) => Json::Int(*i),
            Value::Float(f) => Json::Float(*f),
            Value::Str(s) => Json::Str(s.to_string()),
            Value::Bool(b) => Json::Bool(*b),
        }
    }

    #[test]
    fn row_writer_is_byte_identical_to_the_json_tree() {
        let schema = Schema::from_pairs(&[
            ("k", DataType::Any),
            ("quote\"and\\slash", DataType::Any),
            ("naïve✓", DataType::Any),
        ]);
        let cells = vec![
            Value::Null,
            Value::All,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(0.1 + 0.2),
            Value::Float(1e300),
            Value::Float(5e-324),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::str(""),
            Value::str("he said \"hi\" \\ back/slash"),
            Value::str("line\nfeed\rreturn\ttab\u{0}\u{1}\u{1f}\u{7f}"),
            Value::str("žluťoučký 東京 🦀"),
        ];
        let rows: Vec<Row> = cells.chunks(3).map(|c| Row::new(c.to_vec())).collect();
        let stats = mdj_storage::ScanStats::new().snapshot();
        for relation in [
            Relation::from_rows(schema.clone(), rows),
            Relation::empty(schema),
        ] {
            let tree = Json::obj(vec![
                ("ok", Json::Bool(true)),
                (
                    "columns",
                    Json::Arr(
                        relation
                            .schema()
                            .names()
                            .into_iter()
                            .map(|c| Json::Str(c.into()))
                            .collect(),
                    ),
                ),
                (
                    "rows",
                    Json::Arr(
                        relation
                            .iter()
                            .map(|r| Json::Arr(r.values().iter().map(value_to_json).collect()))
                            .collect(),
                    ),
                ),
                ("stats", Json::obj(counter_fields(&stats, |def| def.wire))),
            ]);
            let out = QueryOutcome {
                relation: std::sync::Arc::new(relation),
                stats: stats.clone(),
            };
            let mut line = String::new();
            outcome_json(&out, &mut line);
            assert_eq!(line, tree.encode());
        }
    }

    fn ok_field(resp: &str, key: &str) -> Json {
        let json = parse(resp).unwrap();
        assert_eq!(json.get("ok"), Some(&Json::Bool(true)), "{resp}");
        json.get(key).cloned().unwrap_or(Json::Null)
    }

    #[test]
    fn full_session_round_trip() {
        let svc = service();
        let resp = handle_line(&svc, r#"{"op":"open"}"#);
        let sid = ok_field(&resp, "session").as_int().unwrap();
        let resp = handle_line(
            &svc,
            &format!(
                r#"{{"op":"prepare","session":{sid},"sql":"select cust, sum(sale) from Sales where cust = ? group by cust"}}"#
            ),
        );
        let stmt = ok_field(&resp, "stmt").as_int().unwrap();
        let resp = handle_line(
            &svc,
            &format!(r#"{{"op":"execute","session":{sid},"stmt":{stmt},"args":[1]}}"#),
        );
        let rows = ok_field(&resp, "rows");
        assert_eq!(
            rows,
            Json::Arr(vec![Json::Arr(vec![Json::Int(1), Json::Float(10.0)])])
        );
        let resp = handle_line(&svc, &format!(r#"{{"op":"close","session":{sid}}}"#));
        assert!(parse(&resp).unwrap().get("ok") == Some(&Json::Bool(true)));
    }

    #[test]
    fn respond_appends_the_line_and_reports_session_changes() {
        let svc = service();
        let mut out = String::from("kept:");
        let SessionChange::Opened(sid) = respond(&svc, r#"{"op":"open"}"#, &mut out) else {
            panic!("open must report the session it opened: {out}");
        };
        assert_eq!(out, format!(r#"kept:{{"ok":true,"session":{sid}}}"#));
        // Neither a failed close nor any other op touches the list.
        for req in [r#"{"op":"close","session":999}"#, r#"{"op":"ping"}"#] {
            assert_eq!(respond(&svc, req, &mut out), SessionChange::None);
        }
        let close = format!(r#"{{"op":"close","session":{sid}}}"#);
        out.clear();
        assert_eq!(respond(&svc, &close, &mut out), SessionChange::Closed(sid));
        assert_eq!(out, r#"{"ok":true}"#);
        // The buffered and the by-value entry points are one dispatcher.
        out.clear();
        respond(&svc, &close, &mut out);
        assert_eq!(out, handle_line(&svc, &close));
        assert!(out.contains(r#""code":"unknown_session""#), "{out}");
    }

    #[test]
    fn errors_carry_stable_codes() {
        let svc = service();
        let resp = handle_line(&svc, "not json");
        let json = parse(&resp).unwrap();
        assert_eq!(json.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(json.get("code").and_then(Json::as_str), Some("bad_request"));

        let resp = handle_line(
            &svc,
            r#"{"op":"query","session":999,"sql":"select 1 from T"}"#,
        );
        assert_eq!(
            parse(&resp).unwrap().get("code").and_then(Json::as_str),
            Some("unknown_session")
        );

        let resp = handle_line(&svc, r#"{"op":"open"}"#);
        let sid = ok_field(&resp, "session").as_int().unwrap();
        let resp = handle_line(
            &svc,
            &format!(r#"{{"op":"query","session":{sid},"sql":"selec nonsense"}}"#),
        );
        assert_eq!(
            parse(&resp).unwrap().get("code").and_then(Json::as_str),
            Some("parse_error")
        );
    }

    #[test]
    fn ping_and_stats() {
        let svc = service();
        let resp = handle_line(&svc, r#"{"op":"ping"}"#);
        assert_eq!(parse(&resp).unwrap().get("ok"), Some(&Json::Bool(true)));
        let resp = handle_line(&svc, r#"{"op":"stats"}"#);
        assert_eq!(ok_field(&resp, "pool_reserved"), Json::Int(0));
        assert_eq!(ok_field(&resp, "running_queries"), Json::Int(0));
        assert_eq!(ok_field(&resp, "draining"), Json::Bool(false));
        assert_eq!(ok_field(&resp, "recovered_spill_files"), Json::Int(0));
        // Lifetime totals are always present; a service that ran nothing
        // reports zero work.
        let totals = ok_field(&resp, "totals");
        assert_eq!(totals.get("bytes_read"), Some(&Json::Int(0)));
        assert_eq!(totals.get("tuples_scanned"), Some(&Json::Int(0)));
    }

    #[test]
    fn query_stats_carry_paged_counters() {
        let svc = service();
        let resp = handle_line(&svc, r#"{"op":"open"}"#);
        let sid = ok_field(&resp, "session").as_int().unwrap();
        let resp = handle_line(
            &svc,
            &format!(r#"{{"op":"query","session":{sid},"sql":"select count(*) from Sales"}}"#),
        );
        let stats = ok_field(&resp, "stats");
        // In-memory tables read no pages, but the fields are on the wire so
        // clients can observe paged execution without schema changes.
        assert_eq!(stats.get("bytes_read"), Some(&Json::Int(0)));
        assert_eq!(stats.get("pages_read"), Some(&Json::Int(0)));
        assert_eq!(stats.get("pool_evictions"), Some(&Json::Int(0)));
    }

    #[test]
    fn ingest_op_appends_rows_and_reports_cache_effects() {
        let schema = Schema::from_pairs(&[("cust", DataType::Int), ("sale", DataType::Int)]);
        let rel = Relation::from_rows(
            schema,
            vec![
                Row::from_values(vec![Value::Int(1), Value::Int(10)]),
                Row::from_values(vec![Value::Int(2), Value::Int(30)]),
            ],
        );
        let engine = EngineConfig::new()
            .register_table("Sales", rel)
            .with_cuboid_cache(1 << 20)
            .build();
        let svc = QueryService::new(engine, crate::ServiceConfig::default());
        let resp = handle_line(&svc, r#"{"op":"open"}"#);
        let sid = ok_field(&resp, "session").as_int().unwrap();
        // Warm the cache with a canonical group-by cuboid.
        let q = format!(
            r#"{{"op":"query","session":{sid},"sql":"select cust, sum(sale) from Sales group by cust"}}"#
        );
        handle_line(&svc, &q);
        // Ingest: the sum/group-by entry is distributive → maintained.
        let resp = handle_line(
            &svc,
            &format!(r#"{{"op":"ingest","session":{sid},"table":"Sales","rows":[[1,5],[3,7]]}}"#),
        );
        assert_eq!(ok_field(&resp, "rows"), Json::Int(2));
        assert_eq!(ok_field(&resp, "version"), Json::Int(2));
        assert_eq!(ok_field(&resp, "cache_maintained"), Json::Int(1));
        assert_eq!(ok_field(&resp, "cache_invalidated"), Json::Int(0));
        // The maintained entry answers for the grown table.
        let resp = handle_line(&svc, &q);
        let rows = ok_field(&resp, "rows");
        let arr = rows.as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert!(arr.contains(&Json::Arr(vec![Json::Int(1), Json::Int(15)])));
        assert!(arr.contains(&Json::Arr(vec![Json::Int(3), Json::Int(7)])));
        // Stats surface the cache and ingest figures.
        let resp = handle_line(&svc, r#"{"op":"stats"}"#);
        assert_eq!(ok_field(&resp, "ingest_batches"), Json::Int(1));
        assert_eq!(ok_field(&resp, "ingest_rows"), Json::Int(2));
        assert_eq!(ok_field(&resp, "cache_hits"), Json::Int(1));
        assert_eq!(ok_field(&resp, "cache_entries"), Json::Int(1));
        // A bad batch is rejected atomically with a typed code.
        let resp = handle_line(
            &svc,
            &format!(r#"{{"op":"ingest","session":{sid},"table":"Sales","rows":[["oops"]]}}"#),
        );
        let json = parse(&resp).unwrap();
        assert_eq!(json.get("ok"), Some(&Json::Bool(false)));
    }

    #[test]
    fn shutdown_op_flips_the_drain_flag_and_sheds_new_queries() {
        let svc = service();
        let resp = handle_line(&svc, r#"{"op":"open"}"#);
        let sid = ok_field(&resp, "session").as_int().unwrap();
        let resp = handle_line(&svc, r#"{"op":"shutdown"}"#);
        assert_eq!(ok_field(&resp, "draining"), Json::Bool(true));
        let resp = handle_line(&svc, r#"{"op":"stats"}"#);
        assert_eq!(ok_field(&resp, "draining"), Json::Bool(true));
        // New queries are shed with a stable code while draining.
        let resp = handle_line(
            &svc,
            &format!(r#"{{"op":"query","session":{sid},"sql":"select count(*) from Sales"}}"#),
        );
        assert_eq!(
            parse(&resp).unwrap().get("code").and_then(Json::as_str),
            Some("shutting_down")
        );
    }
}
