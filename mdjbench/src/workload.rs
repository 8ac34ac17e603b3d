//! The four traffic mixes and their seeded, fixed statement schedules.
//!
//! A workload is a server configuration (tables, cuboid cache, page store)
//! plus a *cycle*: a fixed sequence of statements whose parameters and
//! ingest rows come from the seed. Both connections replay the cycle for the
//! whole run, so every seed drives the same mix and only the inputs differ.

use mdj_storage::{Row, Value};

/// Rows per `ingest` op.
pub const INGEST_ROWS: usize = 64;

/// How a statement's `?` placeholders are drawn from the seed. Domains are
/// small on purpose: every distinct (statement, params) pair is verified
/// against the oracle before the window opens.
#[derive(Debug, Clone, Copy)]
pub enum Params {
    None,
    /// `month = ?`
    Month,
    /// `month between ? and ?`, always two months wide so the cost is even.
    MonthRange,
    /// `state = ?`, one of the generator's ten states.
    State,
    /// `Z.sale > ?`
    SaleThreshold,
}

#[derive(Debug, Clone, Copy)]
pub struct Statement {
    pub id: &'static str,
    /// SQL with `?` placeholders (none for one-shot workloads).
    pub sql: &'static str,
    /// Occurrences per cycle; light statements make ≈ 80 % of a cycle so the
    /// median sits in the light class and p95 in the heavy class.
    pub per_cycle: usize,
    pub params: Params,
}

/// Durable page store settings (`mdjd --data/--page/--buffer`).
#[derive(Debug, Clone, Copy)]
pub struct Paged {
    pub page_bytes: u64,
    pub buffer_bytes: u64,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub sales_rows: usize,
    /// `mdjd --cache` in MiB; 0 disables the cuboid cache.
    pub cache_mib: usize,
    pub paged: Option<Paged>,
    /// Prepared `execute` ops, or one-shot `query` ops that parse, compile
    /// and optimize on every request.
    pub prepared: bool,
    pub statements: Vec<Statement>,
    /// One op in `n` is an `ingest` of [`INGEST_ROWS`] rows into `Sales`.
    pub ingest_every: Option<usize>,
    /// The workload's dominant `(B, R, l, θ)`: grouping dimensions of the
    /// canonical group-by the executor micro-benchmarks force strategies on.
    pub dominant_dims: &'static [&'static str],
    /// Dimensions of the workload's cube statement (cube micro-benchmarks).
    pub cube_dims: &'static [&'static str],
}

const fn stmt(id: &'static str, sql: &'static str, per_cycle: usize, params: Params) -> Statement {
    Statement {
        id,
        sql,
        per_cycle,
        params,
    }
}

pub const NAMES: [&str; 4] = ["olap-mem", "dash-hot", "paged-scan", "paged-fit"];

/// The nine canonical cuboid statements of `dash-hot`, hottest first; the
/// per-cycle counts follow Zipf(1.0) over that rank order.
pub const CUBOIDS: [Statement; 9] = [
    stmt(
        "c-cm",
        "select cust, month, sum(sale), count(*) from Sales group by cust, month",
        10,
        Params::None,
    ),
    stmt(
        "c-c",
        "select cust, sum(sale), count(*) from Sales group by cust",
        5,
        Params::None,
    ),
    stmt(
        "c-pm",
        "select prod, month, sum(sale), count(*) from Sales group by prod, month",
        3,
        Params::None,
    ),
    stmt(
        "c-m",
        "select month, sum(sale), count(*) from Sales group by month",
        3,
        Params::None,
    ),
    stmt(
        "c-cp",
        "select cust, prod, sum(sale), count(*) from Sales group by cust, prod",
        2,
        Params::None,
    ),
    stmt(
        "c-p",
        "select prod, sum(sale), count(*) from Sales group by prod",
        2,
        Params::None,
    ),
    stmt(
        "c-sm",
        "select state, month, sum(sale), count(*) from Sales group by state, month",
        1,
        Params::None,
    ),
    stmt(
        "c-s",
        "select state, sum(sale), count(*) from Sales group by state",
        1,
        Params::None,
    ),
    stmt(
        "c-avg",
        "select cust, month, avg(sale) from Sales group by cust, month",
        1,
        Params::None,
    ),
];

fn paged_statements(nonkey_per_cycle: usize) -> Vec<Statement> {
    vec![
        stmt(
            "point",
            "select cust, sum(sale), count(*) from Sales where month = ? group by cust",
            8,
            Params::Month,
        ),
        stmt(
            "range",
            "select cust, sum(sale), count(*) from Sales where month between ? and ? group by cust",
            8,
            Params::MonthRange,
        ),
        stmt(
            "full",
            "select cust, sum(sale), count(*) from Sales group by cust",
            2,
            Params::None,
        ),
        stmt(
            "nonkey",
            "select cust, sum(sale), count(*) from Sales where state = ? group by cust",
            nonkey_per_cycle,
            Params::State,
        ),
        stmt(
            "cube2",
            "select prod, month, sum(sale) from Sales analyze by cube(prod, month)",
            1,
            Params::None,
        ),
    ]
}

/// Look a workload up by name. `smoke` divides the row counts by 20.
pub fn by_name(name: &str, smoke: bool) -> Option<Workload> {
    let rows = |n: usize| if smoke { n / 20 } else { n };
    let w = match name {
        "olap-mem" => Workload {
            name: "olap-mem",
            why: "executor and planner do all the work; pager and cuboid cache do none",
            sales_rows: rows(50_000),
            cache_mib: 0,
            paged: None,
            prepared: true,
            statements: vec![
                stmt("gb1", "select cust, sum(sale), count(*) from Sales where month = ? group by cust", 6, Params::Month),
                stmt("gb2", "select prod, state, sum(sale), avg(sale) from Sales group by prod, state", 5, Params::None),
                stmt("gv1", "select cust, count(Z.*) from Sales group by cust ; Z such that Z.cust = cust and Z.sale > ?", 5, Params::SaleThreshold),
                stmt("pivot3", "select cust, avg(X.sale) as avg_ny, avg(Y.sale) as avg_nj, avg(Z.sale) as avg_ct from Sales group by cust ; X, Y, Z such that X.cust = cust and X.state = 'NY', Y.cust = cust and Y.state = 'NJ', Z.cust = cust and Z.state = 'CT'", 1, Params::None),
                stmt("above-avg", "select cust, count(Z.*) from Sales group by cust ; Z such that Z.cust = cust and Z.sale > avg(sale)", 1, Params::None),
                stmt("ex25", "select prod, month, count(Z.*) as cnt from Sales where year = 1997 group by prod, month ; X, Y, Z such that X.prod = prod and X.month = month - 1, Y.prod = prod and Y.month = month + 1, Z.prod = prod and Z.month = month and Z.sale > avg(X.sale) and Z.sale < avg(Y.sale)", 1, Params::None),
                stmt("cube3", "select prod, month, state, sum(sale) from Sales analyze by cube(prod, month, state)", 1, Params::None),
            ],
            ingest_every: None,
            dominant_dims: &["prod", "state"],
            cube_dims: &["prod", "month", "state"],
        },
        "dash-hot" => Workload {
            name: "dash-hot",
            why: "one-shot canonical cuboids over a 64 MiB cuboid cache plus an ingest stream: sql, server and core::cache own the latency",
            sales_rows: rows(50_000),
            cache_mib: 64,
            paged: None,
            prepared: false,
            statements: CUBOIDS.to_vec(),
            ingest_every: Some(8),
            dominant_dims: &["cust", "month"],
            cube_dims: &["prod", "month", "state"],
        },
        "paged-scan" => Workload {
            name: "paged-scan",
            why: "working set 8x the buffer pool: page fetch, checksum, decode and eviction dominate",
            sales_rows: rows(100_000),
            cache_mib: 0,
            paged: Some(Paged {
                page_bytes: 4096,
                // One eighth of the table's on-disk bytes (≈ 60 B/row).
                buffer_bytes: rows(100_000) as u64 * 60 / 8,
            }),
            prepared: true,
            statements: paged_statements(1),
            ingest_every: None,
            dominant_dims: &["cust"],
            cube_dims: &["prod", "month"],
        },
        "paged-fit" => Workload {
            name: "paged-fit",
            why: "same store, pool larger than the table, plus durable ingest: the pool hit path and append+fsync show here",
            sales_rows: rows(100_000),
            cache_mib: 0,
            paged: Some(Paged {
                page_bytes: 4096,
                buffer_bytes: 32 << 20,
            }),
            prepared: true,
            statements: paged_statements(2),
            ingest_every: Some(8),
            dominant_dims: &["cust"],
            cube_dims: &["prod", "month"],
        },
        _ => return None,
    };
    Some(w)
}

/// One scheduled operation.
#[derive(Debug, Clone)]
pub enum Op {
    Read { stmt: usize, params: Vec<Value> },
    Ingest { rows: Vec<Row> },
}

/// SplitMix64: the benchmark's own generator, so schedules do not shift when
/// the vendored `rand` stand-in changes.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

fn draw(params: Params, rng: &mut SplitMix) -> Vec<Value> {
    match params {
        Params::None => Vec::new(),
        Params::Month => vec![Value::Int(1 + rng.below(12) as i64)],
        Params::MonthRange => {
            let lo = 1 + rng.below(11) as i64;
            vec![Value::Int(lo), Value::Int(lo + 1)]
        }
        Params::State => vec![Value::str(mdj_datagen::STATES[rng.below(10) as usize])],
        Params::SaleThreshold => vec![Value::Float([500.0, 700.0, 900.0][rng.below(3) as usize])],
    }
}

/// One `ingest` op's rows, in `Sales`' schema and the generator's domains.
pub fn ingest_batch(rng: &mut SplitMix) -> Vec<Row> {
    (0..INGEST_ROWS)
        .map(|_| {
            Row::new(vec![
                Value::Int(1 + rng.below(100) as i64),
                Value::Int(1 + rng.below(50) as i64),
                Value::Int(1 + rng.below(28) as i64),
                Value::Int(1 + rng.below(12) as i64),
                Value::Int(1994 + rng.below(6) as i64),
                Value::str(mdj_datagen::STATES[rng.below(10) as usize]),
                Value::Float((100 + rng.below(99_900)) as f64 / 100.0),
            ])
        })
        .collect()
}

impl Workload {
    /// The cycle for `seed`. Statement order is the same for every seed —
    /// smooth weighted round-robin over `per_cycle`, so each statement's
    /// occurrences are spread evenly — because which statements meet on the
    /// two connections decides their latency; the seed draws the tables, the
    /// parameters and the ingest rows. An ingest follows every
    /// `ingest_every - 1` reads.
    pub fn schedule(&self, seed: u64) -> Vec<Op> {
        let mut rng = SplitMix::new(seed ^ 0x6d64_6a62_656e_6368);
        let total: i64 = self.statements.iter().map(|s| s.per_cycle as i64).sum();
        let mut credit = vec![0i64; self.statements.len()];
        let mut ops = Vec::new();
        for i in 0..total as usize {
            for (c, s) in credit.iter_mut().zip(&self.statements) {
                *c += s.per_cycle as i64;
            }
            let stmt = (0..credit.len())
                .max_by_key(|&j| (credit[j], std::cmp::Reverse(j)))
                .expect("a workload has statements");
            credit[stmt] -= total;
            ops.push(Op::Read {
                stmt,
                params: draw(self.statements[stmt].params, &mut rng),
            });
            if self
                .ingest_every
                .is_some_and(|every| (i + 1) % (every - 1) == 0)
            {
                ops.push(Op::Ingest {
                    rows: ingest_batch(&mut rng),
                });
            }
        }
        ops
    }

    /// The statement's SQL with `params` written in as literals.
    pub fn literal_sql(&self, stmt: usize, params: &[Value]) -> String {
        let mut out = String::new();
        let mut next = params.iter();
        for c in self.statements[stmt].sql.chars() {
            if c == '?' {
                match next.next().expect("one value per placeholder") {
                    Value::Str(s) => out.push_str(&format!("'{s}'")),
                    Value::Float(f) => out.push_str(&format!("{f:?}")),
                    v => out.push_str(&v.to_string()),
                }
            } else {
                out.push(c);
            }
        }
        out
    }
}
