//! # mdj-sql
//!
//! The query-language surface the paper proposes in Section 5, compiled to
//! MD-join algebra plans.
//!
//! Two extensions over plain `SELECT … FROM … [WHERE …] GROUP BY …`:
//!
//! * **`ANALYZE BY`** — replaces `GROUP BY`/`CUBE BY` with a clause whose
//!   first argument is *any* base-table-producing operation:
//!   `analyze by cube(prod, month, state)`, `analyze by rollup(…)`,
//!   `analyze by unpivot(…)`, `analyze by grouping sets((a),(b,c))`,
//!   `analyze by group(…)`, or `analyze by T(prod, month, state)` for an
//!   externally supplied base table `T` (Example 2.4).
//!
//! * **Grouping variables** (EMF-SQL \[Cha99\], the paper's Section 5 example):
//!   `GROUP BY attrs ; X, Y, Z SUCH THAT <cond>, <cond>, <cond>` declares
//!   per-group subsets of the detail table; the select list and later
//!   conditions may aggregate them (`count(Z.*)`, `avg(X.sale)`). Each
//!   grouping variable compiles to one MD-join; independent variables are
//!   coalesced into a single scan by the optimizer.
//!
//! ```
//! use mdj_sql::SqlEngine;
//! use mdj_storage::{Catalog, Relation, Row, Schema, DataType, Value};
//!
//! let schema = Schema::from_pairs(&[("cust", DataType::Int), ("sale", DataType::Float)]);
//! let sales = Relation::from_rows(schema, vec![
//!     Row::new(vec![Value::Int(1), Value::Float(10.0)]),
//!     Row::new(vec![Value::Int(1), Value::Float(20.0)]),
//! ]);
//! let mut catalog = Catalog::new();
//! catalog.register("Sales", sales);
//! let engine = SqlEngine::new(catalog);
//! let out = engine.query("select cust, avg(sale) from Sales group by cust").unwrap();
//! assert_eq!(out.rows()[0][1], Value::Float(15.0));
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod compile;
pub mod engine;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod prepare;

pub use engine::SqlEngine;
pub use error::{Result, SqlError};
pub use prepare::PreparedStatement;
