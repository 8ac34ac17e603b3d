//! Buffer-pool torture: property-generated interleavings of pin / unpin /
//! ingest / drain against a deliberately starved byte budget, checked step
//! by step against an exact shadow model of the pool's contract — strict
//! LRU eviction of unpinned frames, pinned frames never evicted, residency
//! never above budget, hit/miss/eviction counters exact, and
//! `PoolExhausted` as the *only* admissible failure. Page payloads are
//! verified against a shadow of the table on every pin and once more at the
//! end through `read_all`, so a checksum or pagination bug cannot hide
//! behind the pool.

use mdj_core::EngineConfig;
use mdj_datagen::SalesConfig;
use mdj_server::{ExecOptions, QueryService, ServiceConfig};
use mdj_storage::{
    BufferPool, Column, ColumnarChunk, DataType, PagedStore, PagedTable, PinnedPage, Relation, Row,
    ScanStats, Schema, StorageError, Value,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

const PAGE_BYTES: u64 = 128;
const POOL_BUDGET: u64 = 512;
/// Cap on simultaneously held pins: high enough that pinned bytes alone can
/// exceed the budget (forcing `PoolExhausted`), low enough to keep most
/// steps admissible.
const MAX_HELD: usize = 6;
/// Threads in the concurrent tests.
const THREADS: usize = 4;

struct CaseDir(PathBuf);

impl CaseDir {
    fn new(tag: &str) -> CaseDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "mdj-pager-torture-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).unwrap();
        CaseDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for CaseDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One generated step of the torture schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Fetch page `seed % page_count`, holding the pin (up to `MAX_HELD`).
    Pin(u16),
    /// Drop held pin `seed % held.len()`.
    Unpin(u16),
    /// Append `1 + seed % 17` fresh rows through the store.
    Ingest(u16),
    /// `BufferPool::clear()` — every unpinned frame must vanish.
    Drain,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => any::<u16>().prop_map(Op::Pin),
        2 => any::<u16>().prop_map(Op::Unpin),
        1 => any::<u16>().prop_map(Op::Ingest),
        1 => Just(Op::Drain),
    ]
}

/// Exact replica of the pool's documented admission algorithm, advanced in
/// lockstep with the real pool. Ticks are unique per fetch, so strict-LRU
/// victim choice is deterministic and the comparison is sound.
#[derive(Default)]
struct ModelFrame {
    page: usize,
    bytes: u64,
    tick: u64,
    pins: u32,
}

#[derive(Default)]
struct ModelPool {
    frames: Vec<ModelFrame>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ModelPool {
    fn resident(&self) -> u64 {
        self.frames.iter().map(|f| f.bytes).sum()
    }

    /// `Ok(())` when the real fetch must succeed; `Err(())` when it must
    /// fail with `PoolExhausted`. Mirrors the real pool exactly, including
    /// the evictions performed *before* a failed admission.
    fn fetch(&mut self, page: usize, bytes: u64) -> Result<(), ()> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(f) = self.frames.iter_mut().find(|f| f.page == page) {
            f.pins += 1;
            f.tick = tick;
            self.hits += 1;
            return Ok(());
        }
        while self.resident() + bytes > POOL_BUDGET {
            let victim = self
                .frames
                .iter()
                .enumerate()
                .filter(|(_, f)| f.pins == 0)
                .min_by_key(|(_, f)| f.tick)
                .map(|(i, _)| i);
            let Some(i) = victim else { break };
            self.frames.remove(i);
            self.evictions += 1;
        }
        if self.resident() + bytes > POOL_BUDGET {
            return Err(());
        }
        self.misses += 1;
        self.frames.push(ModelFrame {
            page,
            bytes,
            tick,
            pins: 1,
        });
        Ok(())
    }

    fn unpin(&mut self, page: usize) {
        let f = self
            .frames
            .iter_mut()
            .find(|f| f.page == page)
            .expect("unpinning a page the model does not hold");
        f.pins = f.pins.saturating_sub(1);
    }

    fn clear(&mut self) {
        self.frames.retain(|f| f.pins > 0);
    }
}

/// Expected rows of page `page_no`: pages partition the shadow row list in
/// page order, so the slice is found by summing earlier pages' row counts.
fn expected_page_rows<'a>(table: &PagedTable, shadow: &'a [Row], page_no: usize) -> &'a [Row] {
    let metas = table.page_metas();
    let start: usize = metas[..page_no].iter().map(|m| m.rows as usize).sum();
    let len = metas[page_no].rows as usize;
    &shadow[start..start + len]
}

fn fresh_store() -> (CaseDir, Arc<PagedStore>, Arc<PagedTable>, Vec<Row>) {
    let dir = CaseDir::new("model");
    let (store, boot) = PagedStore::open(dir.path()).unwrap();
    assert!(!boot.recovered_anything());
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
    // Keys deliberately out of order: create_table must cluster them.
    let rel = Relation::from_rows(
        schema,
        (0..120i64)
            .map(|i| Row::new(vec![Value::Int((i * 7) % 40), Value::Int(i)]))
            .collect(),
    );
    let table = store.create_table("T", &rel, "k", PAGE_BYTES).unwrap();
    // Shadow of the on-disk row order: stable sort by the clustered key,
    // then every ingested batch in arrival order.
    let mut shadow: Vec<Row> = rel.rows().to_vec();
    shadow.sort_by_key(|r| match r[0] {
        Value::Int(k) => k,
        _ => unreachable!("key column is Int"),
    });
    (dir, store, table, shadow)
}

/// Cross-check every externally observable pool fact against the model.
fn check_pool(
    pool: &Arc<BufferPool>,
    table: &PagedTable,
    model: &ModelPool,
    step: usize,
) -> Result<(), TestCaseError> {
    prop_assert!(
        pool.resident_bytes() <= POOL_BUDGET,
        "step {step}: residency above budget"
    );
    prop_assert_eq!(pool.resident_bytes(), model.resident(), "step {}", step);
    prop_assert_eq!(pool.resident_frames(), model.frames.len(), "step {}", step);
    prop_assert_eq!(pool.hits(), model.hits, "step {}", step);
    prop_assert_eq!(pool.misses(), model.misses, "step {}", step);
    prop_assert_eq!(pool.evictions(), model.evictions, "step {}", step);
    for f in &model.frames {
        prop_assert!(
            pool.is_resident(table, f.page),
            "step {step}: page {} should be resident",
            f.page
        );
        prop_assert_eq!(
            pool.pin_count(table, f.page),
            Some(f.pins),
            "step {} page {}",
            step,
            f.page
        );
        if f.pins > 0 {
            // The headline invariant: a pinned frame survives any amount of
            // eviction pressure and any drain.
            prop_assert!(pool.is_resident(table, f.page), "pinned page evicted");
        }
    }
    prop_assert_eq!(
        pool.pinned_total(),
        model.frames.iter().map(|f| f.pins as u64).sum::<u64>(),
        "step {}",
        step
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random pin/unpin/ingest/drain schedules under a starved budget: the
    /// real pool agrees with the shadow model at every step, every pinned
    /// payload matches the shadow table bytes, and the only error the pool
    /// ever surfaces is `PoolExhausted`.
    #[test]
    fn pool_matches_the_shadow_model_under_torture(
        ops in proptest::collection::vec(op_strategy(), 1..160),
    ) {
        let (_dir, store, table, mut shadow) = fresh_store();
        let pool = BufferPool::new(POOL_BUDGET);
        let mut model = ModelPool::default();
        let mut held: Vec<(usize, PinnedPage)> = Vec::new();
        let mut next_val = 1_000i64;
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Pin(seed) => {
                    if held.len() >= MAX_HELD {
                        continue;
                    }
                    let page_no = seed as usize % table.page_count();
                    let bytes = table.page_meta(page_no).unwrap().len as u64;
                    let want = model.fetch(page_no, bytes);
                    match pool.fetch(&table, page_no, None) {
                        Ok(pin) => {
                            prop_assert!(want.is_ok(), "step {}: model predicted exhaustion", step);
                            // Checksums were verified on the miss path; the
                            // decoded payload must be the shadow slice.
                            prop_assert_eq!(
                                &*pin,
                                expected_page_rows(&table, &shadow, page_no),
                                "step {} page {}", step, page_no
                            );
                            held.push((page_no, pin));
                        }
                        Err(StorageError::PoolExhausted { needed, available, capacity }) => {
                            prop_assert!(want.is_err(), "step {}: model predicted admission", step);
                            prop_assert_eq!(needed, bytes);
                            prop_assert_eq!(capacity, POOL_BUDGET);
                            prop_assert!(available < needed);
                        }
                        Err(other) => {
                            return Err(TestCaseError::Fail(format!(
                                "step {step}: only PoolExhausted is admissible, got {other}"
                            )));
                        }
                    }
                }
                Op::Unpin(seed) => {
                    if held.is_empty() {
                        continue;
                    }
                    let idx = seed as usize % held.len();
                    let (page_no, pin) = held.swap_remove(idx);
                    drop(pin);
                    model.unpin(page_no);
                }
                Op::Ingest(seed) => {
                    let n = 1 + seed as usize % 17;
                    let rows: Vec<Row> = (0..n)
                        .map(|_| {
                            next_val += 1;
                            Row::new(vec![Value::Int(next_val % 40), Value::Int(next_val)])
                        })
                        .collect();
                    // `append` reports sealed *pages*; at least one per batch.
                    let pages_appended = store.append("T", &rows).unwrap();
                    prop_assert!(pages_appended >= 1, "step {}", step);
                    shadow.extend(rows);
                }
                Op::Drain => {
                    pool.clear();
                    model.clear();
                }
            }
            check_pool(&pool, &table, &model, step)?;
        }
        // Nothing was lost or reordered on disk across the whole schedule.
        let all = table.read_all(None).unwrap();
        prop_assert_eq!(all.rows(), &shadow[..]);
        prop_assert_eq!(table.row_count() as usize, shadow.len());
        // Full drain: releasing every pin and clearing empties the pool.
        held.clear();
        pool.clear();
        prop_assert_eq!(pool.resident_bytes(), 0);
        prop_assert_eq!(pool.resident_frames(), 0);
        prop_assert_eq!(pool.pinned_total(), 0);
    }
}

/// A flipped byte anywhere in a page makes its checksum fail: the pool must
/// surface `PageCorrupt` (never wrong rows) and must not admit the frame —
/// to every one of several threads that fetch the page at once, and again
/// to a later fetch.
#[test]
fn corrupted_page_is_rejected_not_served() {
    let (dir, _store, table, _shadow) = fresh_store();
    let meta = table.page_meta(1).unwrap();
    let path = dir.path().join("T.pages");
    let mut bytes = std::fs::read(&path).unwrap();
    let victim = meta.offset as usize + meta.len as usize / 2;
    bytes[victim] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    let pool = BufferPool::new(POOL_BUDGET);
    let start = Barrier::new(THREADS);
    let errs: Vec<_> = std::thread::scope(|s| {
        let fetches: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    pool.fetch(&table, 1, None).map(|_| ())
                })
            })
            .collect();
        fetches.into_iter().map(|f| f.join().unwrap()).collect()
    });
    for err in errs
        .iter()
        .chain([&pool.fetch(&table, 1, None).map(|_| ())])
    {
        assert!(
            matches!(err, Err(StorageError::PageCorrupt { .. })),
            "expected PageCorrupt, got {err:?}"
        );
    }
    assert!(!pool.is_resident(&table, 1), "corrupt frame admitted");
    assert_eq!(pool.resident_bytes(), 0);
    assert_eq!(pool.pinned_total(), 0);
    // Undamaged pages on the same table still verify and serve.
    let ok = pool.fetch(&table, 0, None).unwrap();
    assert!(!ok.is_empty());
}

/// Threads that fetch one cold page at once share one read of it: one
/// miss, one page read, one decoded page behind every pin.
#[test]
fn threads_fetching_one_cold_page_read_it_once() {
    let (_dir, _store, table, shadow) = fresh_store();
    let pool = BufferPool::new(POOL_BUDGET);
    let stats = ScanStats::new();
    let start = Barrier::new(THREADS);
    let pins: Vec<PinnedPage> = std::thread::scope(|s| {
        let fetches: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    pool.fetch(&table, 2, Some(&stats)).unwrap()
                })
            })
            .collect();
        fetches.into_iter().map(|f| f.join().unwrap()).collect()
    });
    assert_eq!(pool.misses(), 1);
    assert_eq!(pool.hits(), THREADS as u64 - 1);
    assert_eq!(stats.pages_read(), 1);
    for pin in &pins {
        assert!(std::ptr::eq(pin.page(), pins[0].page()));
        assert_eq!(&**pin, expected_page_rows(&table, &shadow, 2));
    }
    drop(pins);
    assert_eq!(pool.pinned_total(), 0);
}

/// Threads pin and unpin at random over a pool of four frames: residency
/// never exceeds the budget, every pinned page's chunk and rows equal
/// `read_page`'s, `PoolExhausted` is the only error, and at quiescence
/// every miss is either evicted or still resident.
#[test]
fn threads_pin_and_unpin_at_random_over_four_frames() {
    let (_dir, _store, table, _shadow) = fresh_store();
    let max_page = table
        .page_metas()
        .iter()
        .map(|m| m.len as u64)
        .max()
        .unwrap();
    let budget = 4 * max_page;
    let pool = BufferPool::new(budget);
    let all = vec![true; table.schema().len()];
    let expected: Vec<(Vec<Row>, ColumnarChunk)> = (0..table.page_count())
        .map(|p| {
            let rows = table.read_page(p).unwrap().0;
            let chunk = ColumnarChunk::from_rows(&rows, 0, rows.len(), &all);
            (rows, chunk)
        })
        .collect();
    let start = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for seed in 0..THREADS as u64 {
            let (pool, table, expected, start) = (&pool, &table, &expected, &start);
            s.spawn(move || {
                // xorshift64: a fixed schedule per thread.
                let mut state = 0x9E37_79B9_7F4A_7C15 ^ (seed + 1);
                let mut next = move |n: usize| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state % n as u64) as usize
                };
                let mut held: Vec<(usize, PinnedPage)> = Vec::new();
                start.wait();
                for _ in 0..400 {
                    if held.is_empty() || (held.len() < 2 && next(3) > 0) {
                        let page_no = next(table.page_count());
                        match pool.fetch(table, page_no, None) {
                            Ok(pin) => held.push((page_no, pin)),
                            Err(StorageError::PoolExhausted { .. }) => {}
                            Err(e) => panic!("only PoolExhausted is admissible, got {e}"),
                        }
                    } else {
                        let (page_no, pin) = held.swap_remove(next(held.len()));
                        let (rows, chunk) = &expected[page_no];
                        assert_eq!(&*pin, &rows[..], "page {page_no}");
                        for c in 0..chunk.width() {
                            assert!(
                                same_column(pin.page().chunk().column(c), chunk.column(c)),
                                "page {page_no} column {c}"
                            );
                        }
                    }
                    assert!(pool.resident_bytes() <= budget, "residency above budget");
                }
            });
        }
    });
    assert_eq!(pool.pinned_total(), 0);
    assert!(pool.evictions() > 0, "four frames must thrash");
    assert_eq!(
        pool.misses(),
        pool.evictions() + pool.resident_frames() as u64
    );
}

/// Floats compare by bits, dictionaries by their strings in code order.
fn same_column(a: &Column, b: &Column) -> bool {
    match (a, b) {
        (
            Column::Int { vals, nulls },
            Column::Int {
                vals: v2,
                nulls: n2,
            },
        ) => vals == v2 && nulls == n2,
        (
            Column::Float { vals, nulls },
            Column::Float {
                vals: v2,
                nulls: n2,
            },
        ) => {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            bits(vals) == bits(v2) && nulls == n2
        }
        (
            Column::Str { codes, dict, nulls },
            Column::Str {
                codes: c2,
                dict: d2,
                nulls: n2,
            },
        ) => codes == c2 && dict == d2 && nulls == n2,
        (Column::Fallback, Column::Fallback) => true,
        _ => false,
    }
}

/// Every shape the typing rule distinguishes: NULLs, leading NULLs, an
/// all-NULL column, mixed `Int`/`Float`, `Bool` and `ALL`, special floats,
/// and empty and non-ASCII strings.
fn mixed_relation(n: i64) -> Relation {
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("i", DataType::Int),
        ("f", DataType::Float),
        ("mix", DataType::Any),
        ("b", DataType::Any),
        ("s", DataType::Str),
        ("late", DataType::Str),
        ("none", DataType::Any),
    ]);
    let floats = [0.5, -0.0, f64::NAN, f64::INFINITY, 1e-300, -7.25];
    let strs = ["", "naïve", "東京", "NY", "a\u{0}b", "ü"];
    let rows = (0..n)
        .map(|r| {
            let null_every = |m: i64, v: Value| if r % m == 0 { Value::Null } else { v };
            Row::new(vec![
                null_every(11, Value::Int(r % 23)),
                null_every(3, Value::Int(r * 7 - 50)),
                null_every(5, Value::Float(floats[r as usize % floats.len()])),
                match r % 4 {
                    0 => Value::Float(r as f64 + 0.5),
                    _ => Value::Int(r),
                },
                match r % 5 {
                    0 => Value::All,
                    1 => Value::Null,
                    _ => Value::Bool(r % 2 == 0),
                },
                null_every(7, Value::str(strs[r as usize % strs.len()])),
                match r % 40 < 30 {
                    true => Value::Null,
                    false => Value::str(format!("late{}", r % 3)),
                },
                Value::Null,
            ])
        })
        .collect();
    Relation::from_rows(schema, rows)
}

/// A pool frame's chunk is the transposition of the page's rows —
/// first-seen dictionary codes, null bitmaps, float bits — and its rows,
/// built on demand, are the row decoder's.
#[test]
fn every_page_chunk_equals_the_transposition_of_its_rows() {
    let rel = mixed_relation(300);
    for page_bytes in [256u64, 512, 1024, 4096] {
        let dir = CaseDir::new("chunks");
        let (store, _) = PagedStore::open(dir.path()).unwrap();
        let table = store.create_table("T", &rel, "k", page_bytes).unwrap();
        let all = vec![true; table.schema().len()];
        let pool = BufferPool::new(u64::MAX);
        let mut kinds = std::collections::BTreeSet::new();
        for page_no in 0..table.page_count() {
            let (rows, bytes) = table.read_page(page_no).unwrap();
            let want = ColumnarChunk::from_rows(&rows, 0, rows.len(), &all);
            let pin = pool.fetch(&table, page_no, None).unwrap();
            let (direct, direct_bytes) = table.read_columns(page_no).unwrap();
            assert_eq!(direct_bytes, bytes);
            for chunk in [pin.page().chunk(), direct.chunk()] {
                assert_eq!(chunk.len(), rows.len());
                assert_eq!(chunk.width(), all.len());
                for c in 0..all.len() {
                    assert!(
                        same_column(chunk.column(c), want.column(c)),
                        "{page_bytes} B page {page_no} column {c}: {:?} vs {:?}",
                        chunk.column(c),
                        want.column(c)
                    );
                    kinds.insert(format!("{c}:{:?}", std::mem::discriminant(chunk.column(c))));
                }
            }
            let stats = ScanStats::new();
            assert_eq!(pin.page().rows_recorded(Some(&stats)), &rows[..]);
            assert_eq!(pin.page().rows_recorded(Some(&stats)), &rows[..]);
            assert_eq!(&*pin, &rows[..]);
            assert_eq!(stats.page_rows_built(), 1, "rows built once per residency");
        }
        // The data reached every typed form and the fallback.
        let variants: std::collections::BTreeSet<_> =
            kinds.iter().map(|k| k.split(':').nth(1).unwrap()).collect();
        assert!(variants.len() >= 4, "{page_bytes} B: {kinds:?}");
    }
}

/// A service over a page store of `rows` datagen sales rows read through a
/// `pool_bytes` buffer pool, and one over the same rows resident.
fn paged_and_resident(dir: &Path, rows: usize, pool_bytes: u64) -> [QueryService; 2] {
    let sales = mdj_datagen::sales(&SalesConfig::default().with_rows(rows).with_seed(7));
    let (store, _) = PagedStore::open(dir).unwrap();
    let table = store.create_table("Sales", &sales, "month", 4096).unwrap();
    let clustered = table.read_all(None).unwrap();
    let engine = EngineConfig::new()
        .register_table("Sales", clustered.clone())
        .build();
    engine.catalog().attach_paged("Sales", table).unwrap();
    let paged = QueryService::new(engine, ServiceConfig::default());
    paged
        .engine()
        .attach_buffer_pool(BufferPool::new(pool_bytes));
    paged.attach_paged_store(store);
    let resident = EngineConfig::new()
        .register_table("Sales", clustered)
        .build();
    [paged, QueryService::new(resident, ServiceConfig::default())]
}

/// The statements a page-store workload serves — point, range and full
/// group-bys, one on a non-key column, and a cube — read every page through
/// its columns: no page builds rows, with the pool cold or warm, and every
/// answer equals the resident one bit for bit.
#[test]
fn served_paged_statements_build_no_rows() {
    let dir = CaseDir::new("served");
    // The pool holds about an eighth of the table: most fetches miss.
    let [paged, resident] = paged_and_resident(dir.path(), 6_000, 48 * 1024);
    let statements: [(&str, Vec<Value>); 5] = [
        (
            "select cust, sum(sale), count(*) from Sales where month = ? group by cust",
            vec![Value::Int(3)],
        ),
        (
            "select cust, sum(sale), count(*) from Sales where month between ? and ? group by cust",
            vec![Value::Int(2), Value::Int(5)],
        ),
        (
            "select cust, sum(sale), count(*) from Sales group by cust",
            vec![],
        ),
        (
            "select cust, sum(sale), count(*) from Sales where state = ? group by cust",
            vec![Value::str("NY")],
        ),
        (
            "select prod, month, sum(sale) from Sales analyze by cube(prod, month)",
            vec![],
        ),
    ];
    let run = |svc: &QueryService, sql: &str, params: &[Value]| {
        let sid = svc.open_session();
        let (stmt, _) = svc.prepare(sid, sql).unwrap();
        svc.execute(sid, stmt, params, ExecOptions::default())
            .unwrap()
            .relation
    };
    for round in 0..2 {
        for (sql, params) in &statements {
            let got = run(&paged, sql, params);
            assert_eq!(got.rows(), run(&resident, sql, params).rows(), "{sql}");
        }
        let totals = paged.totals();
        assert!(totals.pages_read > 0, "round {round}: {totals}");
        assert_eq!(totals.page_rows_built, 0, "round {round}: {totals}");
    }
    paged.engine().buffer_pool().unwrap().clear();
}
