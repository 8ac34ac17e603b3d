//! `mdjsh` — an interactive shell for the MD-join SQL surface.
//!
//! Starts with generated `Sales` and `Payments` tables; additional tables
//! load from CSV at startup or via the `\load` meta-command. Queries use the
//! full Section 5 surface: `GROUP BY` (with grouping variables),
//! `ANALYZE BY cube/rollup/unpivot/grouping sets/<table>`, `HAVING`,
//! `ORDER BY`, `LIMIT`.
//!
//! ```text
//! cargo run -p mdj-app --bin mdjsh --release [-- rows [csv ...]]
//!
//! mdj> \tables
//! mdj> select prod, month, sum(sale) from Sales analyze by cube(prod, month) limit 5
//! mdj> \explain select cust, avg(sale) from Sales group by cust
//! mdj> \load T path/to/table.csv prod:int,month:int
//! mdj> \timeout 5
//! mdj> \quit
//! ```
//!
//! Ctrl-C during a query cancels it cooperatively (the query stops at its
//! next governor poll with a `query cancelled` error) instead of killing the
//! shell; `\timeout <secs>` gives every subsequent query a wall-clock
//! deadline.

#![deny(unsafe_code)]

use mdj_core::prelude::*;
use mdj_core::CancelToken;
use mdj_sql::SqlEngine;
use mdj_storage::{csv, Catalog};
use std::io::{BufRead, Write};
use std::time::Duration;

/// Route SIGINT to a [`CancelToken`] so Ctrl-C cancels the running query
/// cooperatively instead of killing the shell. Uses the C `signal` binding
/// directly (no crate dependency); the handler only flips the token's atomic
/// flag, which is async-signal-safe.
#[cfg(unix)]
mod sigint {
    use mdj_core::CancelToken;
    use std::sync::OnceLock;

    static TOKEN: OnceLock<CancelToken> = OnceLock::new();
    const SIGINT: i32 = 2;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_sigint(_sig: i32) {
        if let Some(token) = TOKEN.get() {
            token.cancel();
        }
    }

    #[allow(unsafe_code)]
    pub fn install(token: CancelToken) -> bool {
        const SIG_ERR: usize = usize::MAX;
        if TOKEN.set(token).is_err() {
            return false;
        }
        unsafe { signal(SIGINT, on_sigint) != SIG_ERR }
    }
}

#[cfg(not(unix))]
mod sigint {
    use mdj_core::CancelToken;
    pub fn install(_token: CancelToken) -> bool {
        false
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rows: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(20_000);
    let sales = mdj_datagen::sales(&mdj_datagen::SalesConfig::default().with_rows(rows));
    let payments = mdj_datagen::payments(&mdj_datagen::PaymentsConfig::default().with_rows(rows));
    let mut catalog = Catalog::new();
    catalog.register("Sales", sales);
    catalog.register("Payments", payments);
    let mut engine = SqlEngine::new(catalog);

    let cancel = CancelToken::new();
    engine.ctx.set_cancel_token(Some(cancel.clone()));
    let ctrl_c = sigint::install(cancel.clone());
    let mut timeout: Option<Duration> = None;

    println!("mdjsh — MD-join SQL shell ({rows}-row Sales/Payments loaded)");
    println!(
        "Meta: \\tables  \\schema <t>  \\explain <query>  \\load <name> <csv> <schema>  \\timeout <secs>|off  \\quit"
    );
    if ctrl_c {
        println!("Ctrl-C cancels the running query.");
    }

    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        print!("mdj> ");
        let _ = std::io::stdout().flush();
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let input = line.trim();
        if input.is_empty() {
            continue;
        }
        if let Some(meta) = input.strip_prefix('\\') {
            if !meta_command(meta, &mut engine, &mut timeout) {
                break;
            }
            continue;
        }
        // Re-arm the governor for this statement: clear any Ctrl-C left over
        // from a previous query and start the deadline clock now.
        cancel.reset();
        engine
            .ctx
            .set_deadline_at(timeout.map(|d| std::time::Instant::now() + d));
        run_query(&engine, input);
    }
}

/// Handle a meta command; returns false to exit the shell.
fn meta_command(meta: &str, engine: &mut SqlEngine, timeout: &mut Option<Duration>) -> bool {
    let mut parts = meta.split_whitespace();
    match parts.next() {
        Some("quit") | Some("q") | Some("exit") => return false,
        Some("timeout") => match parts.next() {
            Some("off") => {
                *timeout = None;
                println!("query timeout off");
            }
            Some(secs) => match secs.parse::<f64>() {
                Ok(s) if s > 0.0 => {
                    *timeout = Some(Duration::from_secs_f64(s));
                    println!("query timeout set to {s}s");
                }
                _ => println!("usage: \\timeout <seconds>|off"),
            },
            None => match timeout {
                Some(d) => println!("query timeout is {:?}", d),
                None => println!("query timeout off"),
            },
        },
        Some("tables") => {
            for name in engine.catalog.names() {
                let rel = engine.catalog.get(&name).expect("listed name resolves");
                println!("  {name}  ({} rows) {}", rel.len(), rel.schema());
            }
        }
        Some("schema") => match parts.next() {
            Some(name) => match engine.catalog.get(name) {
                Ok(rel) => println!("  {}", rel.schema()),
                Err(e) => println!("error: {e}"),
            },
            None => println!("usage: \\schema <table>"),
        },
        Some("explain") => {
            let rest: Vec<&str> = parts.collect();
            match engine.explain(&rest.join(" ")) {
                Ok(plan) => print!("{plan}"),
                Err(e) => println!("error: {e}"),
            }
        }
        Some("load") => {
            let (name, path, schema_spec) = (parts.next(), parts.next(), parts.next());
            match (name, path, schema_spec) {
                (Some(name), Some(path), Some(spec)) => match load_csv(path, spec) {
                    Ok(rel) => {
                        println!("loaded {name}: {} rows", rel.len());
                        engine.register(name.to_string(), rel);
                    }
                    Err(e) => println!("error: {e}"),
                },
                _ => println!("usage: \\load <name> <file.csv> col:type,col:type  (types: int,float,str,bool)"),
            }
        }
        other => println!("unknown meta command {other:?}"),
    }
    true
}

fn load_csv(path: &str, schema_spec: &str) -> Result<Relation, Box<dyn std::error::Error>> {
    let fields: Vec<Field> = schema_spec
        .split(',')
        .map(|part| {
            let (name, ty) = part
                .split_once(':')
                .ok_or_else(|| format!("bad column spec `{part}` (want name:type)"))?;
            let dtype = match ty {
                "int" => DataType::Int,
                "float" => DataType::Float,
                "str" => DataType::Str,
                "bool" => DataType::Bool,
                other => return Err(format!("unknown type `{other}`").into()),
            };
            Ok::<Field, Box<dyn std::error::Error>>(Field::new(name, dtype))
        })
        .collect::<Result<_, _>>()?;
    let text = std::fs::read_to_string(path)?;
    Ok(csv::read_str(&text, &Schema::new(fields))?)
}

fn run_query(engine: &SqlEngine, query: &str) {
    let t0 = std::time::Instant::now();
    match engine.query(query) {
        Ok(rel) => {
            let n = rel.len();
            let shown = 40.min(n);
            let head = Relation::from_rows(
                rel.schema().clone(),
                rel.rows().iter().take(shown).cloned().collect(),
            );
            print!("{head}");
            if shown < n {
                println!("… {} more rows", n - shown);
            }
            println!("({n} rows, {:?})", t0.elapsed());
        }
        Err(e) => println!("error: {e}"),
    }
}
