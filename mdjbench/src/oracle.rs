//! The correctness oracle: a single-thread reference answer for every
//! distinct (statement, params) pair, and the comparison of server responses
//! against it.
//!
//! The reference is `SqlEngine::query_unoptimized` — the literal Algorithm
//! 3.1 plan, no optimizer, no parallelism, no cache, no pager — on a
//! snapshot of the server's catalog. `ANALYZE BY CUBE` statements are the
//! exception: their unoptimized plan is the wildcard-θ nested loop (minutes
//! at these sizes), so they are checked against the serial per-cuboid
//! expansion of Theorem 4.1 instead, which shares nothing with the roll-up
//! chain the server runs.

use crate::harness::value_json;
use mdj_core::ExecContext;
use mdj_server::json::{parse, Json};
use mdj_sql::SqlEngine;
use mdj_storage::{Catalog, Relation};
use std::cmp::Ordering;

/// Largest relative float difference accepted as "the same answer".
const FLOAT_TOLERANCE: f64 = 1e-9;

/// A reference answer in canonical row order.
#[derive(Debug, Clone)]
pub struct Expected {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Json>>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Equal, floats bit for bit.
    Exact,
    /// Equal within tolerance, but some float differs in its bits.
    FloatBits,
    Wrong(String),
}

impl Verdict {
    pub fn is_correct(&self) -> bool {
        !matches!(self, Verdict::Wrong(_))
    }
}

/// Compute the reference answer for a parameter-free statement.
pub fn reference(catalog: &Catalog, sql: &str) -> Result<Expected, String> {
    let engine = SqlEngine::with_context(catalog.clone(), ExecContext::new());
    let compiled = engine.compile(sql).map_err(|e| e.to_string())?;
    let rel = match &compiled.fast_cube {
        Some(fast) if fast.shape == mdj_cube::sets::SetShape::Cube => {
            let source = mdj_algebra::execute(&fast.source, &engine.catalog, &engine.ctx)
                .map_err(|e| e.to_string())?;
            let dims: Vec<&str> = fast.dims.iter().map(String::as_str).collect();
            let spec = mdj_cube::CubeSpec::new(&dims, fast.aggs.clone());
            let cube = mdj_cube::naive::cube_per_cuboid(&source, &spec, &engine.ctx)
                .map_err(|e| e.to_string())?;
            let cols: Vec<&str> = compiled.output_cols.iter().map(String::as_str).collect();
            cube.project(&cols).map_err(|e| e.to_string())?
        }
        _ => engine.query_unoptimized(sql).map_err(|e| e.to_string())?,
    };
    Ok(Expected::from_relation(&rel))
}

impl Expected {
    pub fn from_relation(rel: &Relation) -> Expected {
        let mut rows: Vec<Vec<Json>> = rel
            .iter()
            .map(|r| r.values().iter().map(value_json).collect())
            .collect();
        rows.sort_by(|a, b| row_cmp(a, b));
        Expected {
            columns: rel.schema().names().iter().map(|s| s.to_string()).collect(),
            rows,
        }
    }

    /// Judge one response line against this reference.
    pub fn check(&self, response: &str) -> Verdict {
        let json = match parse(response) {
            Ok(j) => j,
            Err(e) => return Verdict::Wrong(format!("response is not JSON: {e}")),
        };
        if json.get("ok") != Some(&Json::Bool(true)) {
            return Verdict::Wrong(format!("server error: {response}"));
        }
        let columns: Vec<&str> = json
            .get("columns")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_str).collect())
            .unwrap_or_default();
        if columns != self.columns {
            return Verdict::Wrong(format!("columns {columns:?}, expected {:?}", self.columns));
        }
        let mut rows: Vec<Vec<Json>> = json
            .get("rows")
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .map(|r| r.as_arr().map(<[Json]>::to_vec).unwrap_or_default())
                    .collect()
            })
            .unwrap_or_default();
        if rows.len() != self.rows.len() {
            return Verdict::Wrong(format!("{} rows, expected {}", rows.len(), self.rows.len()));
        }
        rows.sort_by(|a, b| row_cmp(a, b));
        let mut bits_differ = false;
        for (got, want) in rows.iter().zip(&self.rows) {
            if got.len() != want.len() {
                return Verdict::Wrong(format!("row {got:?}, expected {want:?}"));
            }
            for (g, w) in got.iter().zip(want) {
                match (g, w) {
                    (Json::Float(a), Json::Float(b)) => {
                        if a.to_bits() != b.to_bits() {
                            let scale = a.abs().max(b.abs());
                            if (a - b).abs() > FLOAT_TOLERANCE * scale {
                                return Verdict::Wrong(format!("row {got:?}, expected {want:?}"));
                            }
                            bits_differ = true;
                        }
                    }
                    _ if g == w => {}
                    _ => return Verdict::Wrong(format!("row {got:?}, expected {want:?}")),
                }
            }
        }
        if bits_differ {
            Verdict::FloatBits
        } else {
            Verdict::Exact
        }
    }
}

/// The start of a response: enough to hold `ok`, an error code, or an
/// ingest acknowledgement, without scanning a large `rows` array.
pub fn head(response: &str) -> &str {
    response.get(..512).unwrap_or(response)
}

/// The `rows` array of a successful query response, as sent. Object keys are
/// encoded in sorted order, so `rows` sits between `ok` and `stats`.
pub fn raw_rows(response: &str) -> Option<&str> {
    let start = response.find(",\"rows\":")?;
    let end = response.rfind(",\"stats\":")?;
    response.get(start..end)
}

fn rank(j: &Json) -> u8 {
    match j {
        Json::Null => 0,
        Json::Obj(_) => 1,
        Json::Bool(_) => 2,
        Json::Int(_) => 3,
        Json::Str(_) => 4,
        Json::Float(_) | Json::Arr(_) => 5,
    }
}

/// Canonical row order: by the exact (non-float) cells first, so float noise
/// cannot reorder rows, then by the floats to make ties deterministic.
fn row_cmp(a: &[Json], b: &[Json]) -> Ordering {
    for (x, y) in a.iter().zip(b) {
        let ord = match (x, y) {
            (Json::Float(_), Json::Float(_)) => Ordering::Equal,
            (Json::Int(p), Json::Int(q)) => p.cmp(q),
            (Json::Str(p), Json::Str(q)) => p.cmp(q),
            (Json::Bool(p), Json::Bool(q)) => p.cmp(q),
            _ => rank(x).cmp(&rank(y)),
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    for (x, y) in a.iter().zip(b) {
        if let (Json::Float(p), Json::Float(q)) = (x, y) {
            let ord = p.total_cmp(q);
            if ord != Ordering::Equal {
                return ord;
            }
        }
    }
    a.len().cmp(&b.len())
}
