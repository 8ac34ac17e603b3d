//! Persistent paged table store: the disk-resident backend for §4's
//! clustered-index analysis.
//!
//! The paper's cost model (Theorem 4.2 pushdown, Observation 4.1 range
//! scans) assumes the detail relation lives on disk behind a clustered
//! index. This module supplies that setting: tables are stored as runs of
//! checksummed pages in clustered-key order, a durable manifest makes the
//! set of sealed pages crash-consistent, and a byte-budgeted buffer pool
//! with pin counts mediates every read.
//!
//! ## Page format (version 2)
//!
//! ```text
//! magic    b"MDJP"
//! version  u32 LE (= 2)
//! page_no  u64 LE
//! rows     u32 LE
//! payload  per row, per value: tag u8 + payload (`codec::encode_value`)
//! trailer  checksum u64 LE (`codec::checksum` over all prior bytes)
//! ```
//!
//! Version 2 changed only the checksum: version 1 summed byte by byte with
//! FNV-1a, version 2 word by word.
//!
//! Pages target a fixed byte size but are sealed on row boundaries, so a
//! single row larger than the target makes one oversized page rather than
//! splitting a row. The per-page min/max of the clustered key lives in the
//! *manifest*, so Theorem 4.2 pruning decides which pages to read without
//! touching the data file at all.
//!
//! ## Manifest and crash consistency
//!
//! `MANIFEST` (magic `MDJM`) records, per table, the schema, clustered key,
//! sealed byte length of the data file, and every page's `{offset, len,
//! rows, min, max}`, plus a monotone generation number and a trailing
//! checksum. Checkpoints are atomic: write `MANIFEST.tmp` + fsync, rename
//! the current manifest to `MANIFEST.prev`, rename the tmp into place, and
//! fsync the directory. Data pages are written and fsynced *before* the
//! manifest commits, so on reopen:
//!
//! * a leftover `MANIFEST.tmp` is never trusted and is removed;
//! * a corrupt or missing `MANIFEST` falls back to `MANIFEST.prev` (the
//!   last sealed generation);
//! * any data-file bytes beyond the manifest's sealed length are a torn
//!   append from a crashed writer and are truncated away;
//! * a data file *shorter* than its sealed length loses the pages that no
//!   longer fit (salvage keeps the prefix that does).
//!
//! Everything discarded is tallied in [`PagerBootReport`], mirroring the
//! spill layer's `sweep_orphans` contract. Checksums are verified on every
//! page fetch, so bit rot inside the sealed region still surfaces as
//! [`StorageError::PageCorrupt`] rather than wrong rows. One commit lock
//! serializes `create_table` and `append`, each with its checkpoint, so
//! concurrent writers never share a data-file offset or `MANIFEST.tmp`.
//!
//! ## Temporary tables
//!
//! A spill partition is a [`TempTableWriter`]'s table: the same pages in
//! arrival order, no manifest and no fsync (nothing in it must survive a
//! crash), its file unlinked when the [`TempTable`] handle drops. It is read
//! through a [`BufferPool`] like any other table.
//!
//! ## Buffer pool invariants
//!
//! * a frame holds its page decoded once, straight into columns
//!   ([`Page`]), and builds its rows only when a scalar path asks; it is
//!   charged the page's on-disk bytes;
//! * a pinned frame is never evicted;
//! * eviction is strict LRU over unpinned frames (last-use tick order);
//! * residency never exceeds the byte budget, and each resident frame may
//!   additionally be charged to a shared [`PoolChargeHook`] (the engine's
//!   `MemoryPool`) whose grant is released on eviction or pool drop;
//! * when neither eviction nor the hook can make room the fetch fails with
//!   [`StorageError::PoolExhausted`] — never a panic, never silent
//!   truncation;
//! * the pool lock covers bookkeeping only. Under it a miss evicts, takes
//!   the hook's grant and inserts a pinned *loading* frame, charged its
//!   on-disk bytes like any other; it then reads, validates and decodes
//!   the page with the lock released and publishes the page into the frame,
//!   so concurrent misses on different pages overlap;
//! * single flight: a fetch that finds a page loading pins the frame and
//!   waits on its one-shot slot instead of reading the page again, so a
//!   page is read and decoded once per residency and counted as one miss;
//! * frames are freed outside the lock: evicted and cleared frames — their
//!   columns and their grants, whose release takes the hook's own lock —
//!   drop after the pool lock is released;
//! * a failed load (read or validation error, or a decode that unwinds)
//!   removes its loading frame, with every waiter's pin in it, returns its
//!   bytes and grant, and wakes every waiter with the same typed error;
//!   an unpin only ever touches its own residency of a page.

use crate::codec::{self, Cursor};
use crate::columnar::{ColumnBuilder, ColumnarChunk};
use crate::error::{Result, StorageError};
use crate::relation::Relation;
use crate::row::Row;
use crate::schema::Schema;
use crate::spill::spill_path;
use crate::stats::{Counter, ScanStats};
use crate::value::{cmp_int_float, Value};
use std::any::Any;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs;
use std::io::{Seek, SeekFrom, Write as _};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrder};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};

/// Page magic: "MD-Join Page".
const PAGE_MAGIC: [u8; 4] = *b"MDJP";
/// Manifest magic: "MD-Join Manifest".
const MANIFEST_MAGIC: [u8; 4] = *b"MDJM";
/// Current page/manifest format version.
pub const PAGER_FORMAT_VERSION: u32 = 2;

/// Manifest file names inside a data directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
const MANIFEST_TMP: &str = "MANIFEST.tmp";
const MANIFEST_PREV: &str = "MANIFEST.prev";

/// Fixed page framing: magic + version + page_no + row count.
const PAGE_HEADER_BYTES: usize = 4 + 4 + 8 + 4;
const PAGE_TRAILER_BYTES: usize = 8;
const PAGE_FRAME_BYTES: usize = PAGE_HEADER_BYTES + PAGE_TRAILER_BYTES;
/// Smallest encoded page entry in a manifest: offset, len, rows, and two
/// one-byte keys.
const MANIFEST_PAGE_MIN_BYTES: usize = 8 + 4 + 4 + 1 + 1;

/// Smallest accepted page-size target. Below this the framing overhead
/// dominates and page counts explode; the differential fuzz sweep uses
/// 256 B as its smallest size.
pub const MIN_PAGE_BYTES: u64 = 64;

/// Page-size target of a temporary (spill) table. Its framing costs 28
/// bytes a page, and a pass over the table holds one page resident.
pub const TEMP_PAGE_BYTES: u64 = 64 * 1024;

pub(crate) fn io_err(path: &Path, detail: impl fmt::Display) -> StorageError {
    StorageError::PagerIo {
        path: path.display().to_string(),
        detail: detail.to_string(),
    }
}

fn corrupt(path: &Path, detail: impl Into<String>) -> StorageError {
    StorageError::PageCorrupt {
        path: path.display().to_string(),
        detail: detail.into(),
    }
}

/// Crash-simulation hooks for the write path. The engine's `FaultInjector`
/// implements this; an unarmed store uses the inert default. A triggered
/// site behaves like a process death at that instant: the write stops
/// mid-page (torn bytes stay on disk) and no in-memory state is updated.
pub trait PagerFaults: Send + Sync + fmt::Debug {
    /// Fail (and tear) the next page or manifest write.
    fn fail_page_write(&self) -> bool {
        false
    }
    /// Fail the next fsync, before durability is established.
    fn fail_fsync(&self) -> bool {
        false
    }
}

/// Inert default faults.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoFaults;

impl PagerFaults for NoFaults {}

/// Admission hook charging buffer-pool residency to a shared budget (the
/// engine's `MemoryPool`). The returned opaque grant releases the charge
/// when dropped, i.e. on eviction or pool teardown.
pub trait PoolChargeHook: Send + Sync + fmt::Debug {
    fn reserve(&self, bytes: u64) -> std::result::Result<Box<dyn Any + Send>, PoolChargeFailed>;
}

/// Why a [`PoolChargeHook`] refused a reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolChargeFailed {
    pub needed: u64,
    pub available: u64,
    pub capacity: u64,
}

/// Total order on clustered-key values used for initial sort order and
/// per-page min/max tracking. Ranks: Null < All < numeric < Str < Bool;
/// numerics compare exactly (`i64`↔`f64` via [`cmp_int_float`]), floats by
/// `total_cmp` so NaN has a stable position.
pub fn key_cmp(a: &Value, b: &Value) -> Ordering {
    fn rank(v: &Value) -> u8 {
        match v {
            Value::Null => 0,
            Value::All => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
            Value::Bool(_) => 4,
        }
    }
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Float(x), Value::Float(y)) => x.total_cmp(y),
        (Value::Int(x), Value::Float(y)) => {
            if y.is_nan() {
                Ordering::Less
            } else {
                cmp_int_float(*x, *y)
            }
        }
        (Value::Float(x), Value::Int(y)) => {
            if x.is_nan() {
                Ordering::Greater
            } else {
                cmp_int_float(*y, *x).reverse()
            }
        }
        (Value::Str(x), Value::Str(y)) => (**x).cmp(&**y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        _ => rank(a).cmp(&rank(b)),
    }
}

/// Sealed-page metadata, persisted in the manifest so pruning never reads
/// the data file.
#[derive(Debug, Clone, PartialEq)]
pub struct PageMeta {
    /// Byte offset of the page inside the table's data file.
    pub offset: u64,
    /// Total page length in bytes (header + payload + checksum).
    pub len: u32,
    /// Rows in the page.
    pub rows: u32,
    /// Min/max clustered key among rows with non-NULL keys; `Value::Null`
    /// when the page has none (such a page can never satisfy a key
    /// comparison, so any bound prunes it).
    pub min_key: Value,
    pub max_key: Value,
}

/// A half-open/closed interval over the clustered key, extracted by the
/// executor from θ's detail-only conjuncts (Theorem 4.2). `None` on a side
/// means unbounded. Pruning is *sound, not complete*: a kept page may still
/// contain no matching rows (θ is re-evaluated per row), but a pruned page
/// provably cannot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KeyBounds {
    /// Lower bound `(value, inclusive)`.
    pub lo: Option<(Value, bool)>,
    /// Upper bound `(value, inclusive)`.
    pub hi: Option<(Value, bool)>,
}

impl KeyBounds {
    pub fn is_unbounded(&self) -> bool {
        self.lo.is_none() && self.hi.is_none()
    }

    /// Tighten with another lower bound (keep the stricter one).
    pub fn and_lo(&mut self, v: Value, inclusive: bool) {
        let stricter = match &self.lo {
            None => true,
            Some((cur, cur_incl)) => match v.sql_cmp(cur) {
                Some(Ordering::Greater) => true,
                Some(Ordering::Equal) => *cur_incl && !inclusive,
                _ => false,
            },
        };
        if stricter {
            self.lo = Some((v, inclusive));
        }
    }

    /// Tighten with another upper bound (keep the stricter one).
    pub fn and_hi(&mut self, v: Value, inclusive: bool) {
        let stricter = match &self.hi {
            None => true,
            Some((cur, cur_incl)) => match v.sql_cmp(cur) {
                Some(Ordering::Less) => true,
                Some(Ordering::Equal) => *cur_incl && !inclusive,
                _ => false,
            },
        };
        if stricter {
            self.hi = Some((v, inclusive));
        }
    }

    /// `v` is not past the upper bound. Incomparable (None) passes.
    fn under_hi(&self, v: &Value) -> bool {
        self.hi.as_ref().is_none_or(|(b, incl)| match v.sql_cmp(b) {
            Some(Ordering::Greater) => false,
            Some(Ordering::Equal) => *incl,
            _ => true,
        })
    }

    /// `v` is not short of the lower bound. Incomparable (None) passes.
    fn over_lo(&self, v: &Value) -> bool {
        self.lo.as_ref().is_none_or(|(b, incl)| match v.sql_cmp(b) {
            Some(Ordering::Less) => false,
            Some(Ordering::Equal) => *incl,
            _ => true,
        })
    }

    /// Whether a page with this metadata may contain a matching row.
    pub fn admits_page(&self, meta: &PageMeta) -> bool {
        if self.is_unbounded() {
            return true;
        }
        // No non-NULL keys: a comparison predicate is never true on NULL,
        // so any bound rules the whole page out. Otherwise all keys lie in
        // [min_key, max_key]: if even min_key is past the upper bound, or
        // max_key short of the lower one, no row qualifies.
        meta.min_key != Value::Null
            && meta.rows != 0
            && self.under_hi(&meta.min_key)
            && self.over_lo(&meta.max_key)
    }
}

/// What boot recovery found and discarded when opening a data directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PagerBootReport {
    /// Tables loaded from the manifest.
    pub tables: u64,
    /// Torn-append bytes truncated from data-file tails.
    pub orphan_bytes: u64,
    /// Data files that had a torn tail.
    pub torn_tables: u64,
    /// Sealed pages dropped because their data file was short or missing.
    pub lost_pages: u64,
    /// `MANIFEST` was unreadable; state came from `MANIFEST.prev`.
    pub manifest_fallback: bool,
    /// Leftover `MANIFEST.tmp` files removed (never trusted).
    pub tmp_removed: u64,
}

impl PagerBootReport {
    /// Whether recovery had to discard or repair anything.
    pub fn recovered_anything(&self) -> bool {
        self.orphan_bytes != 0
            || self.torn_tables != 0
            || self.lost_pages != 0
            || self.manifest_fallback
            || self.tmp_removed != 0
    }
}

/// Encode one sealed page.
fn encode_page(page_no: u64, rows: &[Row]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(PAGE_HEADER_BYTES + 16 * rows.len());
    buf.extend_from_slice(&PAGE_MAGIC);
    buf.extend_from_slice(&PAGER_FORMAT_VERSION.to_le_bytes());
    buf.extend_from_slice(&page_no.to_le_bytes());
    buf.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for row in rows {
        for v in row.values() {
            codec::encode_value(&mut buf, v);
        }
    }
    let sum = codec::checksum(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// Validate one page read back from `path` — length, checksum, magic,
/// version, page number and row count — and return a cursor at its first
/// row with the row count.
fn open_page<'a>(
    data: &'a [u8],
    path: &'a Path,
    meta: &PageMeta,
    page_no: u64,
) -> Result<(Cursor<'a>, u32)> {
    if data.len() < PAGE_HEADER_BYTES + PAGE_TRAILER_BYTES {
        return Err(corrupt(
            path,
            format!("page {page_no} too short ({} bytes)", data.len()),
        ));
    }
    let (payload, trailer) = data.split_at(data.len() - PAGE_TRAILER_BYTES);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    let actual = codec::checksum(payload);
    if stored != actual {
        return Err(corrupt(
            path,
            format!(
                "page {page_no} checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
            ),
        ));
    }
    let mut c = Cursor::new(payload, path);
    if c.take(4)? != PAGE_MAGIC {
        return Err(corrupt(path, format!("page {page_no}: bad magic")));
    }
    let version = c.u32()?;
    if version != PAGER_FORMAT_VERSION {
        return Err(corrupt(
            path,
            format!("page {page_no}: unsupported version {version}"),
        ));
    }
    let stored_no = c.u64()?;
    if stored_no != page_no {
        return Err(corrupt(
            path,
            format!("page {page_no}: header says page {stored_no} (misdirected read)"),
        ));
    }
    let n_rows = c.u32()?;
    if n_rows != meta.rows {
        return Err(corrupt(
            path,
            format!("page {page_no}: {n_rows} rows, manifest says {}", meta.rows),
        ));
    }
    Ok((c, n_rows))
}

/// The rows of a page end exactly where its payload does.
fn close_page(c: &Cursor, path: &Path, page_no: u64) -> Result<()> {
    if c.remaining() != 0 {
        return Err(corrupt(
            path,
            format!("page {page_no}: trailing garbage inside sealed payload"),
        ));
    }
    Ok(())
}

/// Decode and fully validate one page read back from `path` into rows.
fn decode_page(
    data: &[u8],
    path: &Path,
    meta: &PageMeta,
    page_no: u64,
    arity: usize,
) -> Result<Vec<Row>> {
    let (mut c, n_rows) = open_page(data, path, meta, page_no)?;
    // Every row encodes at least one byte a value, so the payload bounds
    // what the row count may reserve.
    let mut rows = Vec::with_capacity((n_rows as usize).min(c.remaining()));
    for _ in 0..n_rows {
        let mut vals = Vec::with_capacity(arity);
        for _ in 0..arity {
            vals.push(c.value()?);
        }
        rows.push(Row::new(vals));
    }
    close_page(&c, path, page_no)?;
    Ok(rows)
}

/// Decode and fully validate one page straight into its columns: one
/// [`ColumnBuilder`] per schema column, fed from the validated bytes with no
/// row in between, strings coded by a page-local dictionary.
fn decode_page_columns(
    data: &[u8],
    path: &Path,
    meta: &PageMeta,
    page_no: u64,
    arity: usize,
) -> Result<Page> {
    let (mut c, n_rows) = open_page(data, path, meta, page_no)?;
    let n = (n_rows as usize).min(c.remaining());
    let mut cols: Vec<ColumnBuilder> = (0..arity).map(|_| ColumnBuilder::new(n, true)).collect();
    for _ in 0..n_rows {
        for col in cols.iter_mut() {
            match c.u8()? {
                0 => col.push_null(),
                1 => col.push_untyped(Value::All),
                2 => col.push_int(c.i64()?),
                3 => col.push_float(f64::from_bits(c.u64()?)),
                4 => col.push_str(c.str()?, None),
                5 => col.push_untyped(Value::Bool(c.u8()? != 0)),
                t => return Err(c.corrupt(format!("bad value tag {t}"))),
            }
        }
    }
    close_page(&c, path, page_no)?;
    let (columns, untyped) = cols.into_iter().map(ColumnBuilder::finish).unzip();
    Ok(Page {
        chunk: ColumnarChunk::from_columns(n_rows as usize, columns),
        untyped,
        rows: OnceLock::new(),
    })
}

/// A page as a buffer-pool frame holds it: its columns, decoded once from
/// the validated bytes, and its rows, built from them only when a scalar
/// path first asks — at most once per residency.
#[derive(Debug)]
pub struct Page {
    chunk: ColumnarChunk,
    /// Per column, the values of a [`Column::Fallback`](crate::Column)
    /// column (which has no typed form); `None` for a typed one.
    untyped: Vec<Option<Vec<Value>>>,
    rows: OnceLock<Vec<Row>>,
}

impl Page {
    /// Every column of the page, typed as [`ColumnarChunk::from_rows`] types
    /// them.
    pub fn chunk(&self) -> &ColumnarChunk {
        &self.chunk
    }

    pub fn len(&self) -> usize {
        self.chunk.len()
    }

    pub fn is_empty(&self) -> bool {
        self.chunk.is_empty()
    }

    /// The page's rows, built on the first call; `stats` counts the build as
    /// `page_rows_built`.
    pub fn rows_recorded(&self, stats: Option<&ScanStats>) -> &[Row] {
        let mut built = false;
        let rows = self.rows.get_or_init(|| {
            built = true;
            self.build_rows()
        });
        if let (true, Some(s)) = (built, stats) {
            s.count(Counter::page_rows_built, 1);
        }
        rows
    }

    fn build_rows(&self) -> Vec<Row> {
        (0..self.len())
            .map(|i| {
                (0..self.chunk.width())
                    .map(|c| match &self.untyped[c] {
                        Some(values) => values[i].clone(),
                        None => self
                            .chunk
                            .column(c)
                            .value(i)
                            .expect("a page materializes every column"),
                    })
                    .collect()
            })
            .collect()
    }
}

/// Encoded bytes of `row`'s values (its share of a page payload).
fn row_len(row: &Row) -> usize {
    row.values().iter().map(codec::encoded_len).sum()
}

/// Pack rows into sealed pages. Pages close on row boundaries when adding
/// the next row would exceed `page_bytes`; a single oversized row still
/// becomes one (oversized) page.
fn build_pages(
    rows: &[Row],
    key_col: usize,
    page_bytes: u64,
    first_page_no: u64,
    base_offset: u64,
) -> (Vec<PageMeta>, Vec<u8>) {
    let mut metas = Vec::new();
    let mut bytes = Vec::new();
    let mut seal = |page: &[Row], metas: &mut Vec<PageMeta>| {
        let mut min_key = Value::Null;
        let mut max_key = Value::Null;
        for k in page.iter().map(|r| &r.values()[key_col]) {
            if matches!(k, Value::Null) {
                continue;
            }
            if min_key == Value::Null || key_cmp(k, &min_key) == Ordering::Less {
                min_key = k.clone();
            }
            if max_key == Value::Null || key_cmp(k, &max_key) == Ordering::Greater {
                max_key = k.clone();
            }
        }
        let encoded = encode_page(first_page_no + metas.len() as u64, page);
        metas.push(PageMeta {
            offset: base_offset + bytes.len() as u64,
            len: encoded.len() as u32,
            rows: page.len() as u32,
            min_key,
            max_key,
        });
        bytes.extend_from_slice(&encoded);
    };
    let (mut start, mut size) = (0, PAGE_FRAME_BYTES);
    for (i, row) in rows.iter().enumerate() {
        let len = row_len(row);
        if i > start && (size + len) as u64 > page_bytes {
            seal(&rows[start..i], &mut metas);
            (start, size) = (i, PAGE_FRAME_BYTES);
        }
        size += len;
    }
    if start < rows.len() {
        seal(&rows[start..], &mut metas);
    }
    (metas, bytes)
}

/// Per-table durable metadata as stored in the manifest.
#[derive(Debug, Clone)]
struct TableMeta {
    name: String,
    schema: Schema,
    key_col: usize,
    page_bytes: u64,
    /// Sealed length of the data file; bytes beyond this are torn garbage.
    data_len: u64,
    pages: Vec<PageMeta>,
}

fn encode_manifest(generation: u64, tables: &[TableMeta]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&MANIFEST_MAGIC);
    buf.extend_from_slice(&PAGER_FORMAT_VERSION.to_le_bytes());
    buf.extend_from_slice(&generation.to_le_bytes());
    buf.extend_from_slice(&(tables.len() as u32).to_le_bytes());
    for t in tables {
        buf.extend_from_slice(&(t.name.len() as u32).to_le_bytes());
        buf.extend_from_slice(t.name.as_bytes());
        codec::encode_schema(&mut buf, &t.schema);
        buf.extend_from_slice(&(t.key_col as u32).to_le_bytes());
        buf.extend_from_slice(&t.page_bytes.to_le_bytes());
        buf.extend_from_slice(&t.data_len.to_le_bytes());
        buf.extend_from_slice(&(t.pages.len() as u64).to_le_bytes());
        for p in &t.pages {
            buf.extend_from_slice(&p.offset.to_le_bytes());
            buf.extend_from_slice(&p.len.to_le_bytes());
            buf.extend_from_slice(&p.rows.to_le_bytes());
            codec::encode_value(&mut buf, &p.min_key);
            codec::encode_value(&mut buf, &p.max_key);
        }
    }
    let sum = codec::checksum(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

fn decode_manifest(data: &[u8], path: &Path) -> Result<(u64, Vec<TableMeta>)> {
    if data.len() < 4 + 4 + 8 + 4 + 8 {
        return Err(corrupt(
            path,
            format!("manifest too short ({} bytes)", data.len()),
        ));
    }
    let (payload, trailer) = data.split_at(data.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().unwrap());
    let actual = codec::checksum(payload);
    if stored != actual {
        return Err(corrupt(
            path,
            format!("manifest checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"),
        ));
    }
    let mut c = Cursor::new(payload, path);
    if c.take(4)? != MANIFEST_MAGIC {
        return Err(corrupt(path, "bad manifest magic"));
    }
    let version = c.u32()?;
    if version != PAGER_FORMAT_VERSION {
        return Err(corrupt(
            path,
            format!("unsupported manifest version {version}"),
        ));
    }
    let generation = c.u64()?;
    let n_tables = c.u32()? as usize;
    let mut tables = Vec::with_capacity(n_tables.min(1024));
    for _ in 0..n_tables {
        let name_len = c.u32()? as usize;
        let name = std::str::from_utf8(c.take(name_len)?)
            .map_err(|_| corrupt(path, "table name is not UTF-8"))?
            .to_string();
        let schema = c.schema()?;
        let key_col = c.u32()? as usize;
        if key_col >= schema.len() {
            return Err(corrupt(
                path,
                format!("table `{name}`: key column {key_col} out of range"),
            ));
        }
        let page_bytes = c.u64()?;
        let data_len = c.u64()?;
        let n_pages = c.u64()? as usize;
        let mut pages = Vec::with_capacity(n_pages.min(c.remaining() / MANIFEST_PAGE_MIN_BYTES));
        let mut expect_offset = 0u64;
        for _ in 0..n_pages {
            let offset = c.u64()?;
            let len = c.u32()?;
            let rows = c.u32()?;
            let min_key = c.value()?;
            let max_key = c.value()?;
            if offset != expect_offset {
                return Err(corrupt(
                    path,
                    format!("table `{name}`: page offsets are not contiguous"),
                ));
            }
            // Every row encodes at least one byte, so a page cannot hold
            // more rows than bytes; a larger count would size the reader's
            // allocation from the manifest instead of from the data.
            if rows > len {
                return Err(corrupt(
                    path,
                    format!("table `{name}`: page claims {rows} rows in {len} bytes"),
                ));
            }
            expect_offset = offset + len as u64;
            pages.push(PageMeta {
                offset,
                len,
                rows,
                min_key,
                max_key,
            });
        }
        if expect_offset != data_len {
            return Err(corrupt(
                path,
                format!(
                    "table `{name}`: pages cover {expect_offset} bytes but data_len is {data_len}"
                ),
            ));
        }
        tables.push(TableMeta {
            name,
            schema,
            key_col,
            page_bytes,
            data_len,
            pages,
        });
    }
    if c.remaining() != 0 {
        return Err(corrupt(path, "trailing garbage after manifest tables"));
    }
    Ok((generation, tables))
}

/// Process-wide unique table ids (buffer-pool frame keys).
static TABLE_ID: AtomicU64 = AtomicU64::new(1);

#[derive(Debug)]
struct TableState {
    pages: Vec<PageMeta>,
    row_count: u64,
    data_len: u64,
}

/// One disk-resident table: a data file of sealed pages plus its metadata.
/// Reads validate magic, version, page number, row count, and checksum on
/// every fetch.
#[derive(Debug)]
pub struct PagedTable {
    table_id: u64,
    name: String,
    schema: Schema,
    key_col: usize,
    page_bytes: u64,
    path: PathBuf,
    /// Read handle, opened on the first read and kept: every page read is
    /// one positioned read (`pread`) on it.
    file: OnceLock<fs::File>,
    state: RwLock<TableState>,
}

impl PagedTable {
    fn new(path: PathBuf, meta: TableMeta) -> PagedTable {
        let row_count = meta.pages.iter().map(|p| p.rows as u64).sum();
        PagedTable {
            table_id: TABLE_ID.fetch_add(1, AtomicOrder::Relaxed),
            path,
            file: OnceLock::new(),
            name: meta.name,
            schema: meta.schema,
            key_col: meta.key_col,
            page_bytes: meta.page_bytes,
            state: RwLock::new(TableState {
                pages: meta.pages,
                row_count,
                data_len: meta.data_len,
            }),
        }
    }

    fn meta(&self) -> TableMeta {
        let st = self.state.read().unwrap();
        TableMeta {
            name: self.name.clone(),
            schema: self.schema.clone(),
            key_col: self.key_col,
            page_bytes: self.page_bytes,
            data_len: st.data_len,
            pages: st.pages.clone(),
        }
    }

    /// Stable process-wide id used as the buffer-pool frame key.
    pub fn table_id(&self) -> u64 {
        self.table_id
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Index of the clustered-key column.
    pub fn key_col(&self) -> usize {
        self.key_col
    }

    /// Name of the clustered-key column.
    pub fn key_name(&self) -> &str {
        &self.schema.fields()[self.key_col].name
    }

    /// Target page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    pub fn page_count(&self) -> usize {
        self.state.read().unwrap().pages.len()
    }

    pub fn row_count(&self) -> u64 {
        self.state.read().unwrap().row_count
    }

    /// Sealed data-file length in bytes.
    pub fn data_len(&self) -> u64 {
        self.state.read().unwrap().data_len
    }

    /// Snapshot of all sealed-page metadata.
    pub fn page_metas(&self) -> Vec<PageMeta> {
        self.state.read().unwrap().pages.clone()
    }

    /// Metadata of one page.
    pub fn page_meta(&self, page_no: usize) -> Result<PageMeta> {
        self.state
            .read()
            .unwrap()
            .pages
            .get(page_no)
            .cloned()
            .ok_or_else(|| io_err(&self.path, format!("page {page_no} out of range")))
    }

    /// Page numbers whose key range intersects `bounds` (Theorem 4.2
    /// pruning on manifest metadata only — no I/O).
    pub fn pruned_pages(&self, bounds: &KeyBounds) -> Vec<usize> {
        let st = self.state.read().unwrap();
        st.pages
            .iter()
            .enumerate()
            .filter(|(_, m)| bounds.admits_page(m))
            .map(|(i, _)| i)
            .collect()
    }

    /// The held read handle, opened on first use.
    fn file(&self) -> Result<&fs::File> {
        if let Some(file) = self.file.get() {
            return Ok(file);
        }
        let file = fs::File::open(&self.path).map_err(|e| io_err(&self.path, e))?;
        // A racing first read may have set it already; either handle works.
        Ok(self.file.get_or_init(|| file))
    }

    /// One page's metadata and on-disk bytes, read with one positioned read.
    fn read_bytes(&self, page_no: usize) -> Result<(PageMeta, Vec<u8>)> {
        let meta = self.page_meta(page_no)?;
        let mut data = vec![0u8; meta.len as usize];
        self.file()?
            .read_exact_at(&mut data, meta.offset)
            .map_err(|e| {
                corrupt(
                    &self.path,
                    format!("page {page_no}: short read ({e}) — torn or truncated file"),
                )
            })?;
        Ok((meta, data))
    }

    /// Read and fully validate one page from disk, bypassing any pool.
    /// Returns the decoded rows and the page's on-disk byte length.
    pub fn read_page(&self, page_no: usize) -> Result<(Vec<Row>, u64)> {
        let (meta, data) = self.read_bytes(page_no)?;
        let rows = decode_page(&data, &self.path, &meta, page_no as u64, self.schema.len())?;
        Ok((rows, meta.len as u64))
    }

    /// Read and fully validate one page from disk straight into its columns
    /// (a buffer-pool frame), bypassing any pool. Returns the page and its
    /// on-disk byte length.
    pub fn read_columns(&self, page_no: usize) -> Result<(Page, u64)> {
        let (meta, data) = self.read_bytes(page_no)?;
        let page =
            decode_page_columns(&data, &self.path, &meta, page_no as u64, self.schema.len())?;
        Ok((page, meta.len as u64))
    }

    /// Sequentially read the whole table back into a validated in-memory
    /// relation (string values are interned by `push`). Used to materialize
    /// catalog tables at boot; pass `stats` to account the I/O.
    pub fn read_all(&self, stats: Option<&ScanStats>) -> Result<Relation> {
        let mut rel = Relation::empty(self.schema.clone());
        for page_no in 0..self.page_count() {
            let (rows, bytes) = self.read_page(page_no)?;
            if let Some(s) = stats {
                s.count(Counter::pages_read, 1);
                s.count(Counter::bytes_read, bytes);
            }
            for row in rows {
                rel.push(row).map_err(|e| {
                    corrupt(
                        &self.path,
                        format!("page {page_no}: decoded row violates schema: {e}"),
                    )
                })?;
            }
        }
        Ok(rel)
    }
}

#[derive(Debug)]
struct StoreState {
    generation: u64,
    tables: BTreeMap<String, Arc<PagedTable>>,
}

/// A data directory holding paged tables plus the durable manifest.
#[derive(Debug)]
pub struct PagedStore {
    dir: PathBuf,
    faults: Arc<dyn PagerFaults>,
    state: Mutex<StoreState>,
    /// Held across a whole `create_table` or `append`, checkpoint included:
    /// an append reads the sealed length it writes at, and every checkpoint
    /// writes the one `MANIFEST.tmp`.
    commit: Mutex<()>,
}

fn valid_table_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// Write `bytes` honoring the fault hooks: a triggered write fault tears
/// the write mid-way (half the bytes land) and errors, like a crash.
fn faulty_write(
    file: &mut fs::File,
    path: &Path,
    bytes: &[u8],
    faults: &dyn PagerFaults,
) -> Result<()> {
    if faults.fail_page_write() {
        let half = bytes.len() / 2;
        let _ = file.write_all(&bytes[..half]);
        let _ = file.flush();
        return Err(io_err(path, "injected page write failure (torn write)"));
    }
    file.write_all(bytes).map_err(|e| io_err(path, e))
}

fn faulty_sync(file: &fs::File, path: &Path, faults: &dyn PagerFaults) -> Result<()> {
    if faults.fail_fsync() {
        return Err(io_err(path, "injected fsync failure"));
    }
    file.sync_all().map_err(|e| io_err(path, e))
}

fn fsync_dir(dir: &Path) -> Result<()> {
    let d = fs::File::open(dir).map_err(|e| io_err(dir, e))?;
    d.sync_all().map_err(|e| io_err(dir, e))
}

impl PagedStore {
    /// Open (or initialize) a data directory with inert fault hooks.
    pub fn open(dir: &Path) -> Result<(Arc<PagedStore>, PagerBootReport)> {
        Self::open_with_faults(dir, Arc::new(NoFaults))
    }

    /// Open (or initialize) a data directory, running boot recovery:
    /// remove untrusted `MANIFEST.tmp`, fall back to `MANIFEST.prev` if the
    /// manifest is corrupt, truncate torn data-file tails, salvage short
    /// files, and re-checkpoint the repaired state.
    pub fn open_with_faults(
        dir: &Path,
        faults: Arc<dyn PagerFaults>,
    ) -> Result<(Arc<PagedStore>, PagerBootReport)> {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let mut report = PagerBootReport::default();

        // A leftover tmp means a checkpoint died before its rename: the
        // current MANIFEST (or prev) is still the authoritative sealed
        // generation, so the tmp is discarded unread.
        let tmp = dir.join(MANIFEST_TMP);
        if tmp.exists() {
            fs::remove_file(&tmp).map_err(|e| io_err(&tmp, e))?;
            report.tmp_removed += 1;
        }

        let manifest_path = dir.join(MANIFEST_FILE);
        let prev_path = dir.join(MANIFEST_PREV);
        let primary = match fs::read(&manifest_path) {
            Ok(data) => decode_manifest(&data, &manifest_path)
                .map(Some)
                .or(Ok(None)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err(&manifest_path, e)),
        }?;
        let (generation, metas) = match primary {
            Some(ok) => ok,
            None => match fs::read(&prev_path) {
                Ok(data) => {
                    let fallback = decode_manifest(&data, &prev_path)?;
                    report.manifest_fallback = true;
                    fallback
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    // Fresh directory (or both manifests lost): empty store.
                    if manifest_path.exists() {
                        report.manifest_fallback = true;
                    }
                    (0, Vec::new())
                }
                Err(e) => return Err(io_err(&prev_path, e)),
            },
        };

        let mut tables = BTreeMap::new();
        for mut meta in metas {
            let path = dir.join(format!("{}.pages", meta.name));
            let file_len = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            match file_len.cmp(&meta.data_len) {
                Ordering::Greater => {
                    // Torn append from a crashed writer: everything beyond
                    // the sealed length is garbage.
                    report.orphan_bytes += file_len - meta.data_len;
                    report.torn_tables += 1;
                    let f = fs::OpenOptions::new()
                        .write(true)
                        .open(&path)
                        .map_err(|e| io_err(&path, e))?;
                    f.set_len(meta.data_len).map_err(|e| io_err(&path, e))?;
                    f.sync_all().map_err(|e| io_err(&path, e))?;
                }
                Ordering::Less => {
                    // Sealed data lost (short or missing file): salvage the
                    // page prefix that still fits.
                    let keep = meta
                        .pages
                        .iter()
                        .take_while(|p| p.offset + p.len as u64 <= file_len)
                        .count();
                    report.lost_pages += (meta.pages.len() - keep) as u64;
                    meta.pages.truncate(keep);
                    meta.data_len = meta
                        .pages
                        .last()
                        .map(|p| p.offset + p.len as u64)
                        .unwrap_or(0);
                    if path.exists() {
                        let f = fs::OpenOptions::new()
                            .write(true)
                            .open(&path)
                            .map_err(|e| io_err(&path, e))?;
                        f.set_len(meta.data_len).map_err(|e| io_err(&path, e))?;
                        f.sync_all().map_err(|e| io_err(&path, e))?;
                    }
                }
                Ordering::Equal => {}
            }
            tables.insert(meta.name.clone(), Arc::new(PagedTable::new(path, meta)));
        }
        report.tables = tables.len() as u64;

        let store = Arc::new(PagedStore {
            dir: dir.to_path_buf(),
            faults,
            state: Mutex::new(StoreState { generation, tables }),
            commit: Mutex::new(()),
        });
        // Seal the repaired state (also writes the initial manifest for a
        // fresh directory) so a second crash-free open is a no-op.
        store.checkpoint()?;
        Ok((store, report))
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current sealed manifest generation.
    pub fn generation(&self) -> u64 {
        self.state.lock().unwrap().generation
    }

    pub fn table_names(&self) -> Vec<String> {
        self.state.lock().unwrap().tables.keys().cloned().collect()
    }

    pub fn table(&self, name: &str) -> Option<Arc<PagedTable>> {
        self.state.lock().unwrap().tables.get(name).cloned()
    }

    /// Atomically commit the current state as a new manifest generation.
    fn checkpoint(&self) -> Result<()> {
        let (generation, metas) = {
            let st = self.state.lock().unwrap();
            (
                st.generation + 1,
                st.tables.values().map(|t| t.meta()).collect::<Vec<_>>(),
            )
        };
        let bytes = encode_manifest(generation, &metas);
        let tmp = self.dir.join(MANIFEST_TMP);
        let manifest = self.dir.join(MANIFEST_FILE);
        let prev = self.dir.join(MANIFEST_PREV);
        {
            let mut f = fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
            faulty_write(&mut f, &tmp, &bytes, &*self.faults)?;
            faulty_sync(&f, &tmp, &*self.faults)?;
        }
        if manifest.exists() {
            fs::rename(&manifest, &prev).map_err(|e| io_err(&manifest, e))?;
        }
        fs::rename(&tmp, &manifest).map_err(|e| io_err(&tmp, e))?;
        fsync_dir(&self.dir)?;
        self.state.lock().unwrap().generation = generation;
        Ok(())
    }

    /// Create a table from an in-memory relation, clustering its rows by
    /// `key_col` (stable sort under [`key_cmp`]) and sealing them into
    /// pages of ~`page_bytes` each. Durable once this returns.
    pub fn create_table(
        &self,
        name: &str,
        rel: &Relation,
        key_col: &str,
        page_bytes: u64,
    ) -> Result<Arc<PagedTable>> {
        if !valid_table_name(name) {
            return Err(io_err(&self.dir, format!("invalid table name `{name}`")));
        }
        if page_bytes < MIN_PAGE_BYTES {
            return Err(io_err(
                &self.dir,
                format!("page size {page_bytes} below minimum {MIN_PAGE_BYTES}"),
            ));
        }
        let key = rel.schema().index_of(key_col)?;
        let _commit = self.commit.lock().unwrap_or_else(PoisonError::into_inner);
        if self.table(name).is_some() {
            return Err(io_err(&self.dir, format!("table `{name}` already exists")));
        }
        let mut rows: Vec<Row> = rel.rows().to_vec();
        rows.sort_by(|a, b| key_cmp(&a.values()[key], &b.values()[key]));
        let (pages, bytes) = build_pages(&rows, key, page_bytes, 0, 0);

        let path = self.dir.join(format!("{name}.pages"));
        {
            let mut file = fs::File::create(&path).map_err(|e| io_err(&path, e))?;
            faulty_write(&mut file, &path, &bytes, &*self.faults)?;
            faulty_sync(&file, &path, &*self.faults)?;
        }
        let data_len = bytes.len() as u64;
        let table = Arc::new(PagedTable::new(
            path,
            TableMeta {
                name: name.to_string(),
                schema: rel.schema().clone(),
                key_col: key,
                page_bytes,
                data_len,
                pages,
            },
        ));
        self.state
            .lock()
            .unwrap()
            .tables
            .insert(name.to_string(), Arc::clone(&table));
        if let Err(e) = self.checkpoint() {
            // Manifest never sealed the table: undo the in-memory insert so
            // state matches what a reopen would see.
            self.state.lock().unwrap().tables.remove(name);
            return Err(e);
        }
        Ok(table)
    }

    /// Append a batch as newly sealed pages in arrival order (matching the
    /// in-memory catalog's append semantics — per-page min/max keeps
    /// pruning sound without a global re-sort). Pages are written and
    /// fsynced before the manifest commits; a crash in between leaves a
    /// torn tail that boot recovery truncates.
    pub fn append(&self, name: &str, rows: &[Row]) -> Result<u64> {
        let table = self
            .table(name)
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))?;
        if rows.is_empty() {
            return Ok(0);
        }
        for row in rows {
            if row.values().len() != table.schema.len() {
                return Err(StorageError::ArityMismatch {
                    expected: table.schema.len(),
                    got: row.values().len(),
                });
            }
        }
        let _commit = self.commit.lock().unwrap_or_else(PoisonError::into_inner);
        let (data_len, first_page_no) = {
            let st = table.state.read().unwrap();
            (st.data_len, st.pages.len() as u64)
        };
        let (new_pages, bytes) = build_pages(
            rows,
            table.key_col,
            table.page_bytes,
            first_page_no,
            data_len,
        );
        {
            let mut file = fs::OpenOptions::new()
                .write(true)
                .open(&table.path)
                .map_err(|e| io_err(&table.path, e))?;
            file.seek(SeekFrom::Start(data_len))
                .map_err(|e| io_err(&table.path, e))?;
            faulty_write(&mut file, &table.path, &bytes, &*self.faults)?;
            // Trim any garbage tail left by an earlier failed append that
            // wrote further than this one.
            file.set_len(data_len + bytes.len() as u64)
                .map_err(|e| io_err(&table.path, e))?;
            faulty_sync(&file, &table.path, &*self.faults)?;
        }
        let appended = new_pages.len() as u64;
        {
            let mut st = table.state.write().unwrap();
            st.row_count += rows.len() as u64;
            st.data_len += bytes.len() as u64;
            st.pages.extend(new_pages);
        }
        if let Err(e) = self.checkpoint() {
            // Roll the in-memory state back to the sealed generation.
            let mut st = table.state.write().unwrap();
            st.row_count -= rows.len() as u64;
            st.data_len -= bytes.len() as u64;
            let keep = st.pages.len() - appended as usize;
            st.pages.truncate(keep);
            return Err(e);
        }
        Ok(appended)
    }
}

/// Streams rows into a temporary paged table: the on-disk form of one spill
/// partition. Rows keep arrival order — no clustering sort, so float sums
/// over the table keep their bits — and a page seals each time the buffered
/// rows reach [`TEMP_PAGE_BYTES`]. There is no manifest and no fsync:
/// nothing here must survive a crash. The file is unlinked when its
/// [`TempTable`] drops, whether [`finish`](Self::finish) handed it out or
/// the writer was abandoned; a crashed process's files are left to
/// [`sweep_orphans`](crate::spill::sweep_orphans).
#[derive(Debug)]
pub struct TempTableWriter {
    table: TempTable,
    file: fs::File,
    faults: Arc<dyn PagerFaults>,
    buffered: Vec<Row>,
    /// Encoded size of `buffered` as one page, framing included.
    buffered_bytes: usize,
}

impl TempTableWriter {
    /// Create a spill file (`mdj-spill-{pid}-{seq}-{hint}.run`) under `dir`,
    /// creating `dir` if missing. Its clustered key is column 0, which no
    /// page is sorted on. Page writes consult `faults`.
    pub fn create(
        dir: &Path,
        hint: &str,
        schema: Schema,
        faults: Arc<dyn PagerFaults>,
    ) -> Result<TempTableWriter> {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let path = spill_path(dir, hint);
        let file = fs::File::create(&path).map_err(|e| io_err(&path, e))?;
        let meta = TableMeta {
            name: hint.to_string(),
            schema,
            key_col: 0,
            page_bytes: TEMP_PAGE_BYTES,
            data_len: 0,
            pages: Vec::new(),
        };
        Ok(TempTableWriter {
            table: TempTable(Arc::new(PagedTable::new(path, meta))),
            file,
            faults,
            buffered: Vec::new(),
            buffered_bytes: PAGE_FRAME_BYTES,
        })
    }

    /// Append one row (arity-checked), first sealing the buffered page if
    /// the row would overflow it.
    pub fn push(&mut self, row: Row) -> Result<()> {
        let arity = self.table.0.schema.len();
        if row.values().len() != arity {
            return Err(StorageError::ArityMismatch {
                expected: arity,
                got: row.values().len(),
            });
        }
        let len = row_len(&row);
        if !self.buffered.is_empty() && (self.buffered_bytes + len) as u64 > TEMP_PAGE_BYTES {
            self.seal()?;
        }
        self.buffered_bytes += len;
        self.buffered.push(row);
        Ok(())
    }

    /// Write the buffered rows as one sealed page.
    fn seal(&mut self) -> Result<()> {
        let table = &self.table.0;
        let mut st = table
            .state
            .write()
            .expect("only this writer updates a temp table");
        let first_page_no = st.pages.len() as u64;
        let (metas, bytes) = build_pages(
            &self.buffered,
            0,
            TEMP_PAGE_BYTES,
            first_page_no,
            st.data_len,
        );
        faulty_write(&mut self.file, &table.path, &bytes, &*self.faults)?;
        st.row_count += self.buffered.len() as u64;
        st.data_len += bytes.len() as u64;
        st.pages.extend(metas);
        self.buffered.clear();
        self.buffered_bytes = PAGE_FRAME_BYTES;
        Ok(())
    }

    /// Seal the last page and hand the table over.
    pub fn finish(mut self) -> Result<TempTable> {
        if !self.buffered.is_empty() {
            self.seal()?;
        }
        Ok(self.table)
    }
}

/// A sealed temporary table (see [`TempTableWriter`]): its data file is
/// unlinked when this handle drops.
#[derive(Debug)]
pub struct TempTable(Arc<PagedTable>);

impl TempTable {
    pub fn table(&self) -> &Arc<PagedTable> {
        &self.0
    }
}

impl Drop for TempTable {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0.path);
    }
}

type FrameKey = (u64, usize);

/// What a frame holds: the page, or the promise of it.
#[derive(Debug)]
enum FrameState {
    /// Reserved by a miss that reads and decodes the page outside the pool
    /// lock. A fetch that finds the frame here pins it and waits on the
    /// slot, creating it if it is the first to wait, so a load nobody
    /// waits for publishes nothing but the frame.
    Loading(Option<Arc<LoadSlot>>),
    Ready(Arc<Page>),
}

/// A loading frame's one-shot slot: its loader publishes the page, or the
/// error that stopped the read, exactly once.
#[derive(Debug, Default)]
struct LoadSlot {
    result: Mutex<Option<Result<Arc<Page>>>>,
    published: Condvar,
}

impl LoadSlot {
    fn publish(&self, result: Result<Arc<Page>>) {
        // One whole write: a poisoned lock still guards a valid value.
        *self.result.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
        self.published.notify_all();
    }

    fn wait(&self) -> Result<Arc<Page>> {
        let result = self.result.lock().unwrap_or_else(PoisonError::into_inner);
        let result = self
            .published
            .wait_while(result, |r| r.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        result
            .clone()
            .expect("the wait ends once a result is published")
    }
}

#[derive(Debug)]
struct Frame {
    state: FrameState,
    /// On-disk bytes of the page: what residency is charged.
    bytes: u64,
    pins: u32,
    /// Last-use tick; smallest unpinned tick is the LRU eviction victim.
    tick: u64,
    /// Opaque grant charging this frame to the shared memory pool;
    /// dropping it releases the charge.
    #[allow(dead_code)]
    grant: Option<Box<dyn Any + Send>>,
}

#[derive(Debug)]
struct PoolInner {
    frames: HashMap<FrameKey, Frame>,
    /// The unpinned frames by last-use tick (ticks are unique): the first
    /// entry is the strict-LRU victim.
    lru: BTreeMap<u64, FrameKey>,
    resident: u64,
    tick: u64,
}

/// Byte-budgeted buffer pool over [`PagedTable`] pages with pin counts and
/// strict-LRU eviction. See the module docs for the invariants.
#[derive(Debug)]
pub struct BufferPool {
    budget: u64,
    charge: Option<Arc<dyn PoolChargeHook>>,
    inner: Mutex<PoolInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes_read: AtomicU64,
    evictions: AtomicU64,
}

/// What a fetch decided under the pool lock.
enum Admission<'a> {
    /// The page is resident, and now pinned.
    Ready(Arc<Page>),
    /// Another fetch is loading the page; its frame is now pinned, and the
    /// page arrives through the slot.
    Loading(Arc<LoadSlot>),
    /// A pinned loading frame was reserved for this fetch to read into.
    Reserved(Load<'a>),
}

/// A reserved loading frame, owned by the fetch that must read its page.
/// Dropped unpublished (the read unwound), it abandons the frame, so no
/// waiter hangs and no bytes or pins leak.
struct Load<'a> {
    pool: &'a Arc<BufferPool>,
    table: &'a PagedTable,
    key: FrameKey,
    published: bool,
}

impl Load<'_> {
    /// Read, validate and decode the page with the pool unlocked, then
    /// publish it to the frame and to every waiter.
    fn read(mut self, stats: Option<&ScanStats>) -> Result<PinnedPage> {
        let (page, bytes) = match self.table.read_columns(self.key.1) {
            Ok(read) => read,
            Err(e) => {
                self.abandon(e.clone());
                return Err(e);
            }
        };
        self.pool.misses.fetch_add(1, AtomicOrder::Relaxed);
        self.pool.bytes_read.fetch_add(bytes, AtomicOrder::Relaxed);
        if let Some(s) = stats {
            s.count(Counter::pages_read, 1);
            s.count(Counter::bytes_read, bytes);
        }
        let page = Arc::new(page);
        let loading = std::mem::replace(
            &mut self
                .pool
                .lock()
                .frames
                .get_mut(&self.key)
                .expect("only its loader removes a loading frame")
                .state,
            FrameState::Ready(Arc::clone(&page)),
        );
        self.published = true;
        if let FrameState::Loading(Some(slot)) = loading {
            slot.publish(Ok(Arc::clone(&page)));
        }
        Ok(PinnedPage {
            pool: Arc::clone(self.pool),
            key: self.key,
            page,
        })
    }

    /// Remove the loading frame with every waiter's pin in it, return its
    /// bytes and charge grant, then wake the waiters with `err`.
    fn abandon(&mut self, err: StorageError) {
        self.published = true;
        let frame = {
            // Also runs while unwinding, where a panic would abort.
            let mut inner = self
                .pool
                .inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let frame = inner.frames.remove(&self.key);
            if let Some(f) = &frame {
                inner.resident -= f.bytes;
            }
            frame
        };
        if let Some(Frame {
            state: FrameState::Loading(Some(slot)),
            grant,
            ..
        }) = frame
        {
            // Waiters wake to a pool that has its bytes back.
            drop(grant);
            slot.publish(Err(err));
        }
    }
}

impl Drop for Load<'_> {
    fn drop(&mut self) {
        if !self.published {
            let err = io_err(
                &self.table.path,
                format!("page {}: the read unwound before it finished", self.key.1),
            );
            self.abandon(err);
        }
    }
}

impl BufferPool {
    pub fn new(budget: u64) -> Arc<BufferPool> {
        Self::with_charge_hook(budget, None)
    }

    /// A pool that additionally charges every resident frame to `charge`
    /// (the engine's shared `MemoryPool`).
    pub fn with_charge_hook(
        budget: u64,
        charge: Option<Arc<dyn PoolChargeHook>>,
    ) -> Arc<BufferPool> {
        Arc::new(BufferPool {
            budget,
            charge,
            inner: Mutex::new(PoolInner {
                frames: HashMap::new(),
                lru: BTreeMap::new(),
                resident: 0,
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    fn lock(&self) -> MutexGuard<'_, PoolInner> {
        self.inner
            .lock()
            .expect("a buffer-pool lock holder panicked")
    }

    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes currently resident (pinned + cached + loading).
    pub fn resident_bytes(&self) -> u64 {
        self.lock().resident
    }

    pub fn resident_frames(&self) -> usize {
        self.lock().frames.len()
    }

    /// Total pin count across all frames; zero means fully drained.
    pub fn pinned_total(&self) -> u64 {
        self.lock().frames.values().map(|f| f.pins as u64).sum()
    }

    pub fn is_resident(&self, table: &PagedTable, page_no: usize) -> bool {
        self.lock().frames.contains_key(&(table.table_id, page_no))
    }

    /// Pin count of one page, if resident.
    pub fn pin_count(&self, table: &PagedTable, page_no: usize) -> Option<u32> {
        self.lock()
            .frames
            .get(&(table.table_id, page_no))
            .map(|f| f.pins)
    }

    /// Fetches served without a read of their own: resident pages, and
    /// pages another fetch was loading.
    pub fn hits(&self) -> u64 {
        self.hits.load(AtomicOrder::Relaxed)
    }

    /// Pages read and decoded, each once per residency.
    pub fn misses(&self) -> u64 {
        self.misses.load(AtomicOrder::Relaxed)
    }

    /// Bytes read from disk on misses.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(AtomicOrder::Relaxed)
    }

    pub fn evictions(&self) -> u64 {
        self.evictions.load(AtomicOrder::Relaxed)
    }

    /// Drop every unpinned frame (releasing their charge grants).
    pub fn clear(&self) {
        // Declared before the guard, so the frames are freed after the
        // lock is released.
        let mut freed = Vec::new();
        let mut guard = self.lock();
        let inner = &mut *guard;
        for key in std::mem::take(&mut inner.lru).into_values() {
            if let Some(f) = inner.frames.remove(&key) {
                inner.resident -= f.bytes;
                freed.push(f);
            }
        }
    }

    /// Fetch a page through the pool, pinning it for the lifetime of the
    /// returned guard. A hit bumps recency; a miss reads from disk
    /// (checksum-verified) and decodes the page into its columns, evicting
    /// LRU unpinned frames as needed, and a fetch of a page another fetch
    /// is loading waits for that load. Records `pages_read`/`bytes_read` on
    /// misses and `pool_evictions` on evictions into `stats`.
    pub fn fetch(
        self: &Arc<Self>,
        table: &PagedTable,
        page_no: usize,
        stats: Option<&ScanStats>,
    ) -> Result<PinnedPage> {
        let page = match self.admit(table, page_no, stats)? {
            Admission::Ready(page) => page,
            Admission::Loading(slot) => slot.wait()?,
            Admission::Reserved(load) => return load.read(stats),
        };
        self.hits.fetch_add(1, AtomicOrder::Relaxed);
        Ok(PinnedPage {
            pool: Arc::clone(self),
            key: (table.table_id, page_no),
            page,
        })
    }

    /// The part of a fetch done under the pool lock: pin the page's frame,
    /// resident or loading, or evict to fit and reserve a loading frame for
    /// the miss.
    fn admit<'a>(
        self: &'a Arc<Self>,
        table: &'a PagedTable,
        page_no: usize,
        stats: Option<&ScanStats>,
    ) -> Result<Admission<'a>> {
        let key: FrameKey = (table.table_id, page_no);
        // Declared before the guard, so evicted frames (their columns and
        // charge grants) are freed after the lock is released.
        let mut evicted = Vec::new();
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(frame) = inner.frames.get_mut(&key) {
            if frame.pins == 0 {
                inner.lru.remove(&frame.tick);
            }
            frame.pins += 1;
            frame.tick = tick;
            return Ok(match &mut frame.state {
                FrameState::Ready(page) => Admission::Ready(Arc::clone(page)),
                FrameState::Loading(slot) => {
                    Admission::Loading(Arc::clone(slot.get_or_insert_with(Default::default)))
                }
            });
        }

        let need = table.page_meta(page_no)?.len as u64;
        // Evict strict-LRU unpinned frames until the page fits the budget.
        while inner.resident + need > self.budget {
            let Some((_, vkey)) = inner.lru.pop_first() else {
                break;
            };
            let frame = inner.frames.remove(&vkey).expect("LRU frame is resident");
            inner.resident -= frame.bytes;
            self.evictions.fetch_add(1, AtomicOrder::Relaxed);
            if let Some(s) = stats {
                s.count(Counter::pool_evictions, 1);
            }
            evicted.push(frame);
        }
        if inner.resident + need > self.budget {
            return Err(StorageError::PoolExhausted {
                needed: need,
                available: self.budget.saturating_sub(inner.resident),
                capacity: self.budget,
            });
        }
        let grant = match &self.charge {
            Some(hook) => Some(
                hook.reserve(need)
                    .map_err(|f| StorageError::PoolExhausted {
                        needed: f.needed,
                        available: f.available,
                        capacity: f.capacity,
                    })?,
            ),
            None => None,
        };
        inner.frames.insert(
            key,
            Frame {
                state: FrameState::Loading(None),
                bytes: need,
                pins: 1,
                tick,
                grant,
            },
        );
        inner.resident += need;
        Ok(Admission::Reserved(Load {
            pool: self,
            table,
            key,
            published: false,
        }))
    }
}

/// RAII pin on a resident page: hands out its columns, dereferences to its
/// rows (built on first use), and unpins on drop. While any pin is held the
/// frame cannot be evicted.
#[derive(Debug)]
pub struct PinnedPage {
    pool: Arc<BufferPool>,
    key: FrameKey,
    page: Arc<Page>,
}

impl PinnedPage {
    /// The resident page: its columns, and its rows on demand.
    pub fn page(&self) -> &Page {
        &self.page
    }

    /// The page's rows, built from its columns on first use.
    pub fn rows(&self) -> &[Row] {
        self.page.rows_recorded(None)
    }

    /// `(table_id, page_no)` of the pinned frame.
    pub fn key(&self) -> (u64, usize) {
        self.key
    }
}

impl std::ops::Deref for PinnedPage {
    type Target = [Row];

    fn deref(&self) -> &[Row] {
        self.rows()
    }
}

impl Drop for PinnedPage {
    fn drop(&mut self) {
        // Unpinning leaves the pool consistent whatever a panicking holder
        // was doing, and a drop must not panic.
        let mut guard = self
            .pool
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let inner = &mut *guard;
        if let Some(frame) = inner.frames.get_mut(&self.key) {
            // This pin's residency only: a later load of the key holds
            // another page.
            if !matches!(&frame.state, FrameState::Ready(page) if Arc::ptr_eq(page, &self.page)) {
                return;
            }
            frame.pins = frame.pins.saturating_sub(1);
            if frame.pins == 0 {
                inner.lru.insert(frame.tick, self.key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;
    use std::sync::atomic::AtomicBool;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mdj-pager-unit-{}-{}", std::process::id(), tag));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sales(n: i64) -> Relation {
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("s", DataType::Str),
            ("x", DataType::Float),
        ]);
        let rows = (0..n)
            .map(|i| {
                Row::new(vec![
                    // Deliberately unsorted input: create_table must cluster.
                    Value::Int((n - 1 - i) % 17),
                    Value::str(format!("g{}", i % 5)),
                    Value::Float(i as f64 * 0.5),
                ])
            })
            .collect();
        Relation::from_rows(schema, rows)
    }

    fn open(dir: &Path) -> (Arc<PagedStore>, PagerBootReport) {
        PagedStore::open(dir).unwrap()
    }

    #[test]
    fn create_read_all_round_trips_in_clustered_order() {
        let dir = tmp_dir("roundtrip");
        let (store, report) = open(&dir);
        assert!(!report.recovered_anything());
        let rel = sales(100);
        let t = store.create_table("sales", &rel, "k", 256).unwrap();
        assert_eq!(t.row_count(), 100);
        assert!(
            t.page_count() > 1,
            "100 rows should span several 256 B pages"
        );
        let back = t.read_all(None).unwrap();
        assert_eq!(back.len(), 100);
        // Clustered order: keys must be non-decreasing.
        let k = |r: &Row| r.values()[0].clone();
        for w in back.rows().windows(2) {
            assert_ne!(key_cmp(&k(&w[0]), &k(&w[1])), Ordering::Greater);
        }
        // Same multiset as the input.
        assert!(back.same_multiset(&rel));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_serves_the_same_rows_without_reload() {
        let dir = tmp_dir("reopen");
        let expected = {
            let (store, _) = open(&dir);
            let t = store.create_table("sales", &sales(60), "k", 512).unwrap();
            t.read_all(None).unwrap()
        };
        let (store, report) = open(&dir);
        assert_eq!(report.tables, 1);
        assert!(!report.recovered_anything());
        let t = store.table("sales").unwrap();
        let back = t.read_all(None).unwrap();
        assert_eq!(back.rows(), expected.rows());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_persists_and_preserves_arrival_order() {
        let dir = tmp_dir("append");
        {
            let (store, _) = open(&dir);
            store.create_table("t", &sales(20), "k", 256).unwrap();
            let batch: Vec<Row> = vec![
                Row::new(vec![Value::Int(100), Value::str("new"), Value::Float(1.5)]),
                Row::new(vec![Value::Int(-5), Value::str("new"), Value::Float(2.5)]),
            ];
            let pages = store.append("t", &batch).unwrap();
            assert!(pages >= 1);
        }
        let (store, _) = open(&dir);
        let t = store.table("t").unwrap();
        assert_eq!(t.row_count(), 22);
        let back = t.read_all(None).unwrap();
        // Appends keep arrival order at the tail, matching the in-memory
        // catalog's append semantics.
        let tail = &back.rows()[20..];
        assert_eq!(tail[0].values()[0], Value::Int(100));
        assert_eq!(tail[1].values()[0], Value::Int(-5));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn generation_advances_and_survives() {
        let dir = tmp_dir("gen");
        let g1 = {
            let (store, _) = open(&dir);
            store.create_table("t", &sales(5), "k", 256).unwrap();
            store.generation()
        };
        let (store, _) = open(&dir);
        assert!(store.generation() > g1, "reopen checkpoint must advance");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let dir = tmp_dir("torn");
        {
            let (store, _) = open(&dir);
            store.create_table("t", &sales(30), "k", 512).unwrap();
        }
        // Simulate a writer crash after some page bytes but before the
        // manifest checkpoint: garbage beyond the sealed length.
        let data = dir.join("t.pages");
        let sealed = fs::metadata(&data).unwrap().len();
        let mut f = fs::OpenOptions::new().append(true).open(&data).unwrap();
        f.write_all(&[0xAB; 137]).unwrap();
        drop(f);

        let (store, report) = open(&dir);
        assert_eq!(report.torn_tables, 1);
        assert_eq!(report.orphan_bytes, 137);
        assert!(report.recovered_anything());
        assert_eq!(fs::metadata(&data).unwrap().len(), sealed);
        let t = store.table("t").unwrap();
        assert_eq!(t.read_all(None).unwrap().len(), 30);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_falls_back_to_prev_generation() {
        let dir = tmp_dir("fallback");
        {
            let (store, _) = open(&dir);
            store.create_table("t", &sales(10), "k", 256).unwrap();
            // A second checkpoint guarantees MANIFEST.prev exists.
            store.append("t", sales(3).rows()).unwrap();
        }
        // Garble the primary manifest.
        let manifest = dir.join(MANIFEST_FILE);
        let mut bytes = fs::read(&manifest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5A;
        fs::write(&manifest, &bytes).unwrap();

        let (store, report) = open(&dir);
        assert!(report.manifest_fallback);
        let t = store.table("t").unwrap();
        // prev was sealed before the append: 10 rows, not 13.
        assert_eq!(t.row_count(), 10);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_manifest_tmp_is_removed() {
        let dir = tmp_dir("tmp");
        {
            let (store, _) = open(&dir);
            store.create_table("t", &sales(5), "k", 256).unwrap();
        }
        fs::write(dir.join(MANIFEST_TMP), b"half-written checkpoint").unwrap();
        let (_store, report) = open(&dir);
        assert_eq!(report.tmp_removed, 1);
        assert!(!dir.join(MANIFEST_TMP).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_byte_in_sealed_page_is_rejected_on_read() {
        let dir = tmp_dir("bitrot");
        let (store, _) = open(&dir);
        let t = store.create_table("t", &sales(40), "k", 256).unwrap();
        let meta = t.page_meta(1).unwrap();
        let data = dir.join("t.pages");
        let mut bytes = fs::read(&data).unwrap();
        bytes[meta.offset as usize + meta.len as usize / 2] ^= 0x01;
        fs::write(&data, &bytes).unwrap();
        let err = t.read_page(1).unwrap_err();
        assert!(matches!(err, StorageError::PageCorrupt { .. }), "{err:?}");
        // Neighbouring pages still verify.
        t.read_page(0).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_bounds_prune_pages_soundly() {
        let dir = tmp_dir("prune");
        let (store, _) = open(&dir);
        let t = store.create_table("t", &sales(200), "k", 256).unwrap();
        let all = t.pruned_pages(&KeyBounds::default());
        assert_eq!(all.len(), t.page_count());

        let mut bounds = KeyBounds::default();
        bounds.and_lo(Value::Int(5), true);
        bounds.and_hi(Value::Int(7), true);
        let kept = t.pruned_pages(&bounds);
        assert!(kept.len() < t.page_count(), "clustered range must prune");
        // Soundness: every row with 5 ≤ k ≤ 7 lives in a kept page.
        let mut want = 0;
        for r in t.read_all(None).unwrap().rows() {
            if let Value::Int(k) = r.values()[0] {
                if (5..=7).contains(&k) {
                    want += 1;
                }
            }
        }
        let mut got = 0;
        for p in &kept {
            for r in t.read_page(*p).unwrap().0 {
                if let Value::Int(k) = r.values()[0] {
                    if (5..=7).contains(&k) {
                        got += 1;
                    }
                }
            }
        }
        assert_eq!(got, want);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounds_tighten_correctly() {
        let mut b = KeyBounds::default();
        b.and_lo(Value::Int(1), true);
        b.and_lo(Value::Int(3), false);
        assert_eq!(b.lo, Some((Value::Int(3), false)));
        b.and_lo(Value::Int(3), true);
        assert_eq!(b.lo, Some((Value::Int(3), false)), "exclusive is stricter");
        b.and_hi(Value::Int(10), false);
        b.and_hi(Value::Int(12), true);
        assert_eq!(b.hi, Some((Value::Int(10), false)));
    }

    #[test]
    fn pool_hits_misses_and_strict_lru_eviction() {
        let dir = tmp_dir("pool");
        let (store, _) = open(&dir);
        let t = store.create_table("t", &sales(120), "k", 256).unwrap();
        assert!(t.page_count() >= 4);
        let max_page = t.page_metas().iter().map(|m| m.len as u64).max().unwrap();
        // Budget fits roughly three pages.
        let pool = BufferPool::new(3 * max_page);

        let p0 = pool.fetch(&t, 0, None).unwrap();
        let _p1 = pool.fetch(&t, 1, None).unwrap();
        let _p2 = pool.fetch(&t, 2, None).unwrap();
        assert_eq!(pool.misses(), 3);
        drop(p0); // page 0 is now the LRU unpinned frame
        let again = pool.fetch(&t, 1, None).unwrap(); // bump page 1 recency
        drop(again);
        assert_eq!(pool.hits(), 1);

        let _p3 = pool.fetch(&t, 3, None).unwrap();
        assert!(pool.evictions() >= 1);
        assert!(!pool.is_resident(&t, 0), "page 0 was LRU and unpinned");
        assert!(pool.is_resident(&t, 1), "page 1 was recently used");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pinned_pages_are_never_evicted_and_starvation_is_typed() {
        let dir = tmp_dir("pin");
        let (store, _) = open(&dir);
        let t = store.create_table("t", &sales(120), "k", 256).unwrap();
        let max_page = t.page_metas().iter().map(|m| m.len as u64).max().unwrap();
        let pool = BufferPool::new(2 * max_page);

        let _a = pool.fetch(&t, 0, None).unwrap();
        let _b = pool.fetch(&t, 1, None).unwrap();
        // Both frames pinned: the next distinct page cannot be admitted.
        let err = pool.fetch(&t, 2, None).unwrap_err();
        assert!(matches!(err, StorageError::PoolExhausted { .. }), "{err:?}");
        assert!(pool.is_resident(&t, 0) && pool.is_resident(&t, 1));
        // Re-fetching a pinned page is still a hit.
        let c = pool.fetch(&t, 0, None).unwrap();
        assert_eq!(pool.pin_count(&t, 0), Some(2));
        drop(c);
        assert_eq!(pool.pin_count(&t, 0), Some(1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[derive(Debug, Default)]
    struct CountingHook {
        reserved: AtomicU64,
        released: AtomicU64,
        refuse: AtomicBool,
    }

    struct HookGrant(Arc<CountingHook>, u64);

    impl Drop for HookGrant {
        fn drop(&mut self) {
            self.0.released.fetch_add(self.1, AtomicOrder::Relaxed);
        }
    }

    #[derive(Debug)]
    struct ArcHook(Arc<CountingHook>);
    impl PoolChargeHook for ArcHook {
        fn reserve(
            &self,
            bytes: u64,
        ) -> std::result::Result<Box<dyn Any + Send>, PoolChargeFailed> {
            if self.0.refuse.load(AtomicOrder::Relaxed) {
                return Err(PoolChargeFailed {
                    needed: bytes,
                    available: 0,
                    capacity: 0,
                });
            }
            self.0.reserved.fetch_add(bytes, AtomicOrder::Relaxed);
            Ok(Box::new(HookGrant(Arc::clone(&self.0), bytes)))
        }
    }

    #[test]
    fn charge_hook_grants_are_released_on_eviction_and_drop() {
        let dir = tmp_dir("charge");
        let (store, _) = open(&dir);
        let t = store.create_table("t", &sales(120), "k", 256).unwrap();
        let counting = Arc::new(CountingHook::default());
        let pool =
            BufferPool::with_charge_hook(1 << 20, Some(Arc::new(ArcHook(Arc::clone(&counting)))));
        {
            let _a = pool.fetch(&t, 0, None).unwrap();
            let _b = pool.fetch(&t, 1, None).unwrap();
        }
        let reserved = counting.reserved.load(AtomicOrder::Relaxed);
        assert!(reserved > 0);
        assert_eq!(counting.released.load(AtomicOrder::Relaxed), 0);
        pool.clear();
        assert_eq!(counting.released.load(AtomicOrder::Relaxed), reserved);

        // A refusing hook surfaces as PoolExhausted, not a panic.
        counting.refuse.store(true, AtomicOrder::Relaxed);
        let err = pool.fetch(&t, 2, None).unwrap_err();
        assert!(matches!(err, StorageError::PoolExhausted { .. }), "{err:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    impl CountingHook {
        /// Bytes charged and not yet released.
        fn outstanding(&self) -> u64 {
            self.reserved.load(AtomicOrder::Relaxed) - self.released.load(AtomicOrder::Relaxed)
        }
    }

    /// Reserve `page_no`'s loading frame as a cold miss would, then let
    /// `waiters` threads fetch the page and return once every one of them
    /// has pinned the loading frame, so each must wait on the load.
    fn reserve_with_waiters<'s, 'a: 's>(
        scope: &'s std::thread::Scope<'s, '_>,
        pool: &'a Arc<BufferPool>,
        table: &'a PagedTable,
        page_no: usize,
        waiters: u32,
        stats: &'a ScanStats,
    ) -> (
        Load<'a>,
        Vec<std::thread::ScopedJoinHandle<'s, Result<PinnedPage>>>,
    ) {
        let Admission::Reserved(load) = pool.admit(table, page_no, Some(stats)).unwrap() else {
            panic!("page {page_no} must be a cold miss");
        };
        let handles = (0..waiters)
            .map(|_| scope.spawn(move || pool.fetch(table, page_no, Some(stats))))
            .collect();
        while pool.pin_count(table, page_no) != Some(waiters + 1) {
            std::thread::yield_now();
        }
        (load, handles)
    }

    #[test]
    fn threads_share_one_read_of_a_loading_page() {
        let dir = tmp_dir("single-flight");
        let (store, _) = open(&dir);
        let t = store.create_table("t", &sales(120), "k", 256).unwrap();
        let pool = BufferPool::new(1 << 20);
        let stats = ScanStats::new();
        let pins = std::thread::scope(|s| {
            let (load, waiters) = reserve_with_waiters(s, &pool, &t, 0, 4, &stats);
            let mut pins = vec![load.read(Some(&stats)).unwrap()];
            pins.extend(waiters.into_iter().map(|w| w.join().unwrap().unwrap()));
            pins
        });
        assert_eq!((pool.misses(), pool.hits()), (1, 4));
        assert_eq!(stats.pages_read(), 1);
        assert_eq!(pool.bytes_read(), t.page_meta(0).unwrap().len as u64);
        assert!(pins.iter().all(|p| Arc::ptr_eq(&p.page, &pins[0].page)));
        assert_eq!(&*pins[0], &t.read_page(0).unwrap().0[..]);
        assert_eq!(pool.pinned_total(), 5);
        drop(pins);
        assert_eq!(pool.pinned_total(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn threads_waiting_on_a_failed_load_all_get_its_error() {
        let dir = tmp_dir("fan-out");
        let (store, _) = open(&dir);
        let t = store.create_table("t", &sales(120), "k", 256).unwrap();
        let meta = t.page_meta(1).unwrap();
        let data = dir.join("t.pages");
        let mut bytes = fs::read(&data).unwrap();
        bytes[meta.offset as usize + meta.len as usize / 2] ^= 0x01;
        fs::write(&data, &bytes).unwrap();
        let counting = Arc::new(CountingHook::default());
        let pool =
            BufferPool::with_charge_hook(1 << 20, Some(Arc::new(ArcHook(Arc::clone(&counting)))));
        drop(pool.fetch(&t, 0, None).unwrap());
        let (resident, charged) = (pool.resident_bytes(), counting.outstanding());
        let stats = ScanStats::new();
        let (err, errs) = std::thread::scope(|s| {
            let (load, waiters) = reserve_with_waiters(s, &pool, &t, 1, 3, &stats);
            assert_eq!(pool.resident_bytes(), resident + meta.len as u64);
            assert_eq!(counting.outstanding(), charged + meta.len as u64);
            let err = load.read(Some(&stats)).unwrap_err();
            let errs: Vec<_> = waiters
                .into_iter()
                .map(|w| w.join().unwrap().unwrap_err())
                .collect();
            (err, errs)
        });
        assert!(matches!(err, StorageError::PageCorrupt { .. }), "{err:?}");
        assert!(errs.iter().all(|e| *e == err), "{errs:?}");
        assert!(!pool.is_resident(&t, 1));
        assert_eq!(pool.resident_bytes(), resident);
        assert_eq!(counting.outstanding(), charged);
        assert_eq!(pool.pinned_total(), 0);
        assert_eq!((pool.misses(), stats.pages_read()), (1, 0));
        // Nothing of the failed load is cached: the next fetch reads the
        // page again and fails the same way.
        assert_eq!(pool.fetch(&t, 1, None).unwrap_err(), err);
        assert_eq!(pool.resident_bytes(), resident);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn threads_waiting_on_an_unwinding_load_get_a_typed_error() {
        let dir = tmp_dir("unwind");
        let (store, _) = open(&dir);
        let t = store.create_table("t", &sales(120), "k", 256).unwrap();
        let pool = BufferPool::new(1 << 20);
        let stats = ScanStats::new();
        let errs = std::thread::scope(|s| {
            let (load, waiters) = reserve_with_waiters(s, &pool, &t, 0, 3, &stats);
            // A decode that panics drops its load while unwinding.
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                let _load = load;
                std::panic::resume_unwind(Box::new("decode bug"));
            }));
            assert!(unwound.is_err());
            waiters
                .into_iter()
                .map(|w| w.join().unwrap().unwrap_err())
                .collect::<Vec<_>>()
        });
        assert!(
            errs.iter()
                .all(|e| matches!(e, StorageError::PagerIo { .. })),
            "{errs:?}"
        );
        assert!(!pool.is_resident(&t, 0));
        assert_eq!((pool.resident_bytes(), pool.pinned_total()), (0, 0));
        assert_eq!(
            &*pool.fetch(&t, 0, None).unwrap(),
            &t.read_page(0).unwrap().0[..]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unpin_never_touches_a_later_residency() {
        let dir = tmp_dir("residency");
        let (store, _) = open(&dir);
        let t = store.create_table("t", &sales(120), "k", 256).unwrap();
        let pool = BufferPool::new(1 << 20);
        let old = pool.fetch(&t, 0, None).unwrap();
        // Retire the pinned frame behind its pin's back, then load the page
        // again: the old pin's drop must leave the new residency alone.
        {
            let mut inner = pool.lock();
            let frame = inner.frames.remove(&old.key()).unwrap();
            inner.resident -= frame.bytes;
        }
        let new = pool.fetch(&t, 0, None).unwrap();
        drop(old);
        assert_eq!(pool.pin_count(&t, 0), Some(1));
        drop(new);
        assert_eq!(pool.pin_count(&t, 0), Some(0));
        pool.clear();
        assert_eq!(pool.resident_frames(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_write_fault_tears_the_file_and_recovery_heals_it() {
        #[derive(Debug)]
        struct OneShot(AtomicBool);
        impl PagerFaults for OneShot {
            fn fail_page_write(&self) -> bool {
                self.0.swap(false, AtomicOrder::Relaxed)
            }
        }

        let dir = tmp_dir("fault");
        {
            let (store, _) = open(&dir);
            store.create_table("t", &sales(30), "k", 512).unwrap();
        }
        let sealed = fs::metadata(dir.join("t.pages")).unwrap().len();
        {
            // Open disarmed (boot runs its own checkpoint), then arm so the
            // append's data write tears mid-way.
            let faults = Arc::new(OneShot(AtomicBool::new(false)));
            let (store, _) = PagedStore::open_with_faults(&dir, Arc::clone(&faults) as _).unwrap();
            faults.0.store(true, AtomicOrder::Relaxed);
            let err = store.append("t", sales(30).rows()).unwrap_err();
            assert!(matches!(err, StorageError::PagerIo { .. }), "{err:?}");
            // In-memory state did not advance past the sealed generation.
            assert_eq!(store.table("t").unwrap().row_count(), 30);
        }
        assert!(
            fs::metadata(dir.join("t.pages")).unwrap().len() > sealed,
            "torn bytes must be on disk to exercise recovery"
        );
        let (store, report) = open(&dir);
        assert_eq!(report.torn_tables, 1);
        assert!(report.orphan_bytes > 0);
        assert_eq!(store.table("t").unwrap().row_count(), 30);
        store.table("t").unwrap().read_all(None).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_names_and_page_sizes_are_rejected() {
        let dir = tmp_dir("names");
        let (store, _) = open(&dir);
        for bad in ["", "../evil", "a/b", ".hidden", "nul\0"] {
            assert!(
                store.create_table(bad, &sales(1), "k", 256).is_err(),
                "{bad:?}"
            );
        }
        assert!(store.create_table("ok", &sales(1), "k", 8).is_err());
        assert!(store.create_table("ok", &sales(1), "nope", 256).is_err());
        store.create_table("ok", &sales(1), "k", 256).unwrap();
        assert!(
            store.create_table("ok", &sales(1), "k", 256).is_err(),
            "duplicate names rejected"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_null_key_pages_are_pruned_by_any_bound() {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
        let rows = (0..10)
            .map(|i| Row::new(vec![Value::Null, Value::Int(i)]))
            .collect();
        let rel = Relation::from_rows(schema, rows);
        let dir = tmp_dir("nullkey");
        let (store, _) = open(&dir);
        let t = store.create_table("t", &rel, "k", 256).unwrap();
        let mut bounds = KeyBounds::default();
        bounds.and_lo(Value::Int(0), true);
        assert!(t.pruned_pages(&bounds).is_empty());
        assert_eq!(t.pruned_pages(&KeyBounds::default()).len(), t.page_count());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_appends_and_a_create_all_commit() {
        let dir = tmp_dir("concurrent");
        let (store, _) = open(&dir);
        store.create_table("t", &sales(10), "k", 256).unwrap();
        let row = |w: i64, i: i64| {
            Row::new(vec![
                Value::Int(w),
                Value::str("new"),
                Value::Float(i as f64),
            ])
        };
        let start = std::sync::Barrier::new(5);
        std::thread::scope(|s| {
            for w in 0..4 {
                let (store, start) = (&store, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..50 {
                        store.append("t", &[row(w, i)]).unwrap();
                    }
                });
            }
            s.spawn(|| {
                start.wait();
                store.create_table("u", &sales(30), "k", 256).unwrap()
            });
        });
        assert!(!dir.join(MANIFEST_TMP).exists());
        drop(store);

        let (store, report) = open(&dir);
        assert!(!report.recovered_anything(), "{report:?}");
        let t = store.table("t").unwrap();
        assert_eq!(t.row_count(), 10 + 4 * 50);
        let mut acked = sales(10);
        for w in 0..4 {
            for i in 0..50 {
                acked.push(row(w, i)).unwrap();
            }
        }
        assert!(t.read_all(None).unwrap().same_multiset(&acked));
        assert_eq!(store.table("u").unwrap().row_count(), 30);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Decode `bytes` as page 0 with both decoders: they must fail alike or
    /// agree, the column decoder's rows equal to the row decoder's.
    fn same_decoding(bytes: &[u8], meta: &PageMeta, arity: usize) -> Result<Vec<Row>> {
        let path = Path::new("decoders");
        let rows = decode_page(bytes, path, meta, 0, arity);
        let page = decode_page_columns(bytes, path, meta, 0, arity);
        match (rows, page) {
            (Ok(rows), Ok(page)) => {
                assert_eq!(page.len(), rows.len());
                assert_eq!(page.rows_recorded(None), &rows[..]);
                Ok(rows)
            }
            (Err(a), Err(b)) => {
                assert!(
                    matches!(
                        (&a, &b),
                        (
                            StorageError::PageCorrupt { .. },
                            StorageError::PageCorrupt { .. }
                        )
                    ),
                    "{a:?} / {b:?}"
                );
                Err(a)
            }
            (a, b) => panic!("decoders disagree: {a:?} / {:?}", b.map(|p| p.len())),
        }
    }

    #[test]
    fn every_flipped_byte_of_a_sealed_page_or_manifest_is_page_corrupt() {
        let dir = tmp_dir("flips");
        let (store, _) = open(&dir);
        let t = store.create_table("t", &sales(12), "k", 1 << 20).unwrap();
        let meta = t.page_meta(0).unwrap();
        let page = fs::read(dir.join("t.pages")).unwrap();
        let manifest = fs::read(dir.join(MANIFEST_FILE)).unwrap();
        assert_eq!(same_decoding(&page, &meta, 3).unwrap().len(), 12);
        for i in 0..page.len() {
            for mask in [0x01, 0x80, 0xFF] {
                let mut bad = page.clone();
                bad[i] ^= mask;
                let err = same_decoding(&bad, &meta, 3).unwrap_err();
                assert!(matches!(err, StorageError::PageCorrupt { .. }), "{err:?}");
            }
        }
        for i in 0..manifest.len() {
            for mask in [0x01, 0x80, 0xFF] {
                let mut bad = manifest.clone();
                bad[i] ^= mask;
                let err = decode_manifest(&bad, Path::new("flips")).unwrap_err();
                assert!(matches!(err, StorageError::PageCorrupt { .. }), "{err:?}");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    fn arb_value() -> impl proptest::strategy::Strategy<Value = Value> {
        use proptest::prelude::*;
        prop_oneof![
            2 => Just(Value::Null),
            1 => Just(Value::All),
            3 => any::<i64>().prop_map(Value::Int),
            3 => any::<u64>().prop_map(|b| Value::Float(f64::from_bits(b))),
            3 => "[a-c é東]{0,4}".prop_map(Value::str),
            1 => any::<bool>().prop_map(Value::Bool),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// Arbitrary bytes behind a valid header and a recomputed checksum
        /// reach the value decoding of both decoders.
        #[test]
        fn column_decoder_survives_arbitrary_payloads(
            body in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..160),
            rows in 0u32..6,
            arity in 0usize..4,
        ) {
            let mut page = encode_page(0, &[]);
            page.truncate(PAGE_HEADER_BYTES);
            page[PAGE_HEADER_BYTES - 4..].copy_from_slice(&rows.to_le_bytes());
            page.extend_from_slice(&body);
            page.extend_from_slice(&[0; PAGE_TRAILER_BYTES]);
            let page = resealed(&page);
            let meta = PageMeta {
                offset: 0,
                len: page.len() as u32,
                rows,
                min_key: Value::Null,
                max_key: Value::Null,
            };
            let _ = same_decoding(&page, &meta, arity);
        }

        /// Valid pages of mixed values, then a few bytes overwritten and the
        /// checksum recomputed: the decoders fail alike or agree.
        #[test]
        fn column_decoder_survives_edited_pages(
            values in proptest::collection::vec(arb_value(), 0..24),
            arity in 1usize..4,
            edits in proptest::collection::vec(
                (proptest::prelude::any::<u16>(), proptest::prelude::any::<u8>()), 0..4),
        ) {
            let rows: Vec<Row> = values.chunks_exact(arity).map(|r| Row::new(r.to_vec())).collect();
            let mut page = encode_page(0, &rows);
            let meta = PageMeta {
                offset: 0,
                len: page.len() as u32,
                rows: rows.len() as u32,
                min_key: Value::Null,
                max_key: Value::Null,
            };
            if edits.is_empty() {
                proptest::prop_assert_eq!(same_decoding(&page, &meta, arity).unwrap(), rows);
            }
            let payload = page.len() - PAGE_TRAILER_BYTES;
            for (at, byte) in edits {
                page[at as usize % payload] = byte;
            }
            let _ = same_decoding(&resealed(&page), &meta, arity);
        }
    }

    /// `bytes` with its trailing checksum recomputed over the rest, so a
    /// mutation reaches the parser instead of stopping at the checksum.
    fn resealed(bytes: &[u8]) -> Vec<u8> {
        let payload = &bytes[..bytes.len().saturating_sub(PAGE_TRAILER_BYTES)];
        let mut out = payload.to_vec();
        out.extend_from_slice(&codec::checksum(payload).to_le_bytes());
        out
    }

    #[test]
    fn decoders_survive_every_flipped_byte_and_truncation() {
        let dir = tmp_dir("decoders");
        let (store, _) = open(&dir);
        let t = store.create_table("t", &sales(12), "k", 1 << 20).unwrap();
        let meta = t.page_meta(0).unwrap();
        let page = fs::read(dir.join("t.pages")).unwrap();
        let manifest = fs::read(dir.join(MANIFEST_FILE)).unwrap();
        let path = Path::new("sweep");
        let decode = |is_page: bool, bytes: &[u8]| {
            let r = if is_page {
                same_decoding(bytes, &meta, t.schema().len()).map(drop)
            } else {
                decode_manifest(bytes, path).map(drop)
            };
            assert!(
                matches!(r, Ok(()) | Err(StorageError::PageCorrupt { .. })),
                "{r:?}"
            );
        };
        for (is_page, good) in [(true, &page), (false, &manifest)] {
            for i in 0..good.len() {
                for mask in [0x01, 0xFF] {
                    let mut bad = good.clone();
                    bad[i] ^= mask;
                    decode(is_page, &bad);
                    decode(is_page, &resealed(&bad));
                }
            }
            for len in 0..good.len() {
                decode(is_page, &good[..len]);
                decode(is_page, &resealed(&good[..len]));
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_page_claiming_u32_max_rows_is_corrupt() {
        // Both checksums are valid; only the row counts lie.
        let mut page = encode_page(0, &[]);
        page[PAGE_HEADER_BYTES - 4..PAGE_HEADER_BYTES].copy_from_slice(&u32::MAX.to_le_bytes());
        let page = resealed(&page);
        let meta = PageMeta {
            offset: 0,
            len: page.len() as u32,
            rows: u32::MAX,
            min_key: Value::Null,
            max_key: Value::Null,
        };
        let manifest = encode_manifest(
            1,
            &[TableMeta {
                name: "t".into(),
                schema: Schema::from_pairs(&[("k", DataType::Int)]),
                key_col: 0,
                page_bytes: 4096,
                data_len: page.len() as u64,
                pages: vec![meta.clone()],
            }],
        );
        let path = Path::new("crafted");
        let err = decode_manifest(&manifest, path).unwrap_err();
        assert!(matches!(err, StorageError::PageCorrupt { .. }), "{err:?}");
        let err = decode_page(&page, path, &meta, 0, 1).unwrap_err();
        assert!(matches!(err, StorageError::PageCorrupt { .. }), "{err:?}");
        let err = decode_page_columns(&page, path, &meta, 0, 1).unwrap_err();
        assert!(matches!(err, StorageError::PageCorrupt { .. }), "{err:?}");
    }
}
