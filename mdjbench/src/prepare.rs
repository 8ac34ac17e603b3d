//! Set-up shared by the measured and the traced run: boot, connect,
//! prepare, one cold pass over every distinct statement, and the oracle
//! check of that pass.

use crate::harness::{Client, Instance};
use crate::oracle::{raw_rows, reference, Expected, Verdict};
use crate::workload::{Op, Workload};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Closed-loop client connections: one per core of the 2-core target host.
pub const CONNECTIONS: usize = 2;

/// One distinct (statement, params) pair of the schedule.
pub struct Entry {
    /// Index into `Workload::statements`.
    pub stmt: usize,
    /// The statement with its parameters written in as literals.
    pub sql: String,
    /// First schedule position that runs it.
    pub first_op: usize,
    pub expected: Expected,
    /// The verified response's `rows` bytes; an identical later response
    /// needs no parsing to be known correct.
    pub raw_rows: String,
}

/// Tally of oracle checks.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// Correct answers whose floats differ in bits from the serial reference.
    pub float_bits: u64,
}

impl Checks {
    pub fn record(&mut self, sql: &str, verdict: &Verdict) {
        self.attempted += 1;
        match verdict {
            Verdict::Exact => {}
            Verdict::FloatBits => self.float_bits += 1,
            Verdict::Wrong(why) => {
                self.failed += 1;
                eprintln!("mdjbench: WRONG RESULT for `{sql}`: {why}");
            }
        }
    }
}

pub struct Prepared {
    pub inst: Instance,
    pub clients: Vec<Client>,
    pub ops: Vec<Op>,
    /// For each op, the entry it reads (`None` for ingests).
    pub entry_of: Arc<Vec<Option<usize>>>,
    pub entries: Arc<Vec<Entry>>,
    /// Wall time of each set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    pub verify_s: f64,
    pub checks: Checks,
}

/// Boot `reps` times (keeping the last), timing each boot through its cold
/// pass, then verify the last cold pass against the oracle.
pub fn prepare(w: &Workload, seed: u64, reps: usize) -> Prepared {
    let ops = w.schedule(seed);
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut distinct: Vec<(usize, String, usize)> = Vec::new();
    let entry_of: Vec<Option<usize>> = ops
        .iter()
        .enumerate()
        .map(|(i, op)| match op {
            Op::Read { stmt, params } => {
                let sql = w.literal_sql(*stmt, params);
                Some(*index.entry(sql.clone()).or_insert_with(|| {
                    distinct.push((*stmt, sql, i));
                    distinct.len() - 1
                }))
            }
            Op::Ingest { .. } => None,
        })
        .collect();

    let mut setup_s = Vec::new();
    let mut last = None;
    for rep in 0..reps {
        let start = Instant::now();
        let inst = Instance::boot(w, seed);
        let mut clients: Vec<Client> = (0..CONNECTIONS)
            .map(|_| Client::connect(inst.addr(), w))
            .collect();
        let mut cold = Vec::with_capacity(distinct.len());
        let mut resp = String::new();
        for (_, _, first_op) in &distinct {
            let line = clients[0].request(w, &ops[*first_op]);
            clients[0].call(&line, &mut resp);
            cold.push(resp.clone());
        }
        setup_s.push(start.elapsed().as_secs_f64());
        if rep + 1 < reps {
            drop(clients);
            inst.shutdown();
        } else {
            last = Some((inst, clients, cold));
        }
    }
    let (inst, clients, cold) = last.expect("at least one set-up repetition");

    let verify_start = Instant::now();
    let catalog = inst.service.engine().catalog().clone();
    let mut checks = Checks::default();
    let mut entries = Vec::with_capacity(distinct.len());
    for ((stmt, sql, first_op), response) in distinct.into_iter().zip(cold) {
        let expected =
            reference(&catalog, &sql).unwrap_or_else(|e| panic!("oracle failed on `{sql}`: {e}"));
        checks.record(&sql, &expected.check(&response));
        entries.push(Entry {
            stmt,
            sql,
            first_op,
            expected,
            raw_rows: raw_rows(&response).unwrap_or_default().to_string(),
        });
    }
    Prepared {
        inst,
        clients,
        ops,
        entry_of: Arc::new(entry_of),
        entries: Arc::new(entries),
        setup_s,
        verify_s: verify_start.elapsed().as_secs_f64(),
        checks,
    }
}

impl Prepared {
    /// Re-run every distinct statement on a quiesced server and check it
    /// against a fresh reference on the current snapshot (the tables have
    /// grown on ingesting workloads).
    pub fn reverify(&mut self, w: &Workload) {
        let catalog = self.inst.service.engine().catalog().clone();
        let mut resp = String::new();
        for e in self.entries.iter() {
            let line = self.clients[0].request(w, &self.ops[e.first_op]);
            self.clients[0].call(&line, &mut resp);
            let verdict = match reference(&catalog, &e.sql) {
                Ok(expected) => expected.check(&resp),
                Err(why) => Verdict::Wrong(format!("oracle failed: {why}")),
            };
            self.checks.record(&e.sql, &verdict);
        }
    }
}
