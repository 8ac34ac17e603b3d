//! Scan and probe accounting.
//!
//! The paper's optimizations are about work avoided: fewer scans of `R`
//! (Theorems 4.1/4.3), fewer tuples scanned (Theorem 4.2 / Observation 4.1),
//! fewer base-table rows probed per detail tuple (Section 4.5). The benchmark
//! harness reports these counters next to wall-clock time so the *shape* of
//! each optimization is visible independent of machine speed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Per-worker accounting for the morsel-driven parallel executor: how many
/// morsels a worker processed, how many tuples those covered, and how many of
/// its tasks were stolen from other workers' queues. Imbalances between
/// workers make scheduling skew visible; a non-zero steal count is the
/// signature of work stealing rebalancing a skewed load.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkerStats {
    /// Worker index within its pool.
    pub worker: usize,
    /// Morsels this worker executed (own + stolen).
    pub morsels: u64,
    /// Tuples covered by those morsels.
    pub tuples: u64,
    /// Aggregate-state updates this worker applied. Tuples measure how much
    /// input a worker consumed; updates measure how much *work* it did — under
    /// a skewed fan-out the two diverge, and the largest per-worker update
    /// count is the schedule's makespan in machine-independent units.
    pub updates: u64,
    /// Morsels obtained by stealing from another worker's queue.
    pub steals: u64,
}

impl WorkerStats {
    pub fn new(worker: usize) -> Self {
        WorkerStats {
            worker,
            ..Default::default()
        }
    }
}

impl std::fmt::Display for WorkerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker {}: morsels={} tuples={} updates={} steals={}",
            self.worker, self.morsels, self.tuples, self.updates, self.steals
        )
    }
}

/// One row of the counter table.
#[derive(Debug)]
pub struct CounterDef {
    pub counter: Counter,
    /// Field name: the counter's key in every JSON surface (the per-query
    /// wire `stats` object, the `stats` op's `totals`, `repro --json`).
    pub name: &'static str,
    /// The `EXPLAIN ANALYZE` line the counter is printed on...
    pub group: Group,
    /// ...and its short label there.
    pub label: &'static str,
    /// Gated by `repro --check`: exact and machine-independent, and growth
    /// means the engine did more work on a shape it used to cover.
    pub gated: bool,
    /// Carried in every query response's `stats` object.
    pub wire: bool,
}

/// Expands the counter table into [`Counter`], [`Group`], [`COUNTERS`],
/// [`StatsSnapshot`] and the named [`ScanStats`] getters. Row syntax:
/// `name "label" check|- wire|-;` inside `Group "line label" { .. }`.
/// Rows print in table order, so a group's rows read as its `EXPLAIN` line.
macro_rules! counter_table {
    (@flag -) => {
        false
    };
    (@flag $on:ident) => {
        true
    };
    ($(
        $group:ident $glabel:literal {
            $( $(#[$doc:meta])* $name:ident $label:literal $gate:tt $wire:tt; )+
        }
    )+) => {
        /// A work counter: one row of the table, and the index of its cell
        /// in [`ScanStats`]. Variants are spelled as the field name so one
        /// `grep` finds the row, every `count` site and every reader.
        #[allow(non_camel_case_types)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Counter {
            $($( $(#[$doc])* $name, )+)+
        }

        /// An `EXPLAIN ANALYZE` line. Every group but `Stats` is printed
        /// only when one of its counters is non-zero.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Group {
            $($group,)+
        }

        impl Group {
            pub fn label(self) -> &'static str {
                match self {
                    $(Group::$group => $glabel,)+
                }
            }
        }

        /// The counter table, in declaration order (`COUNTERS[c as usize]`
        /// is `c`'s row).
        pub static COUNTERS: [CounterDef; [$($(stringify!($name),)+)+].len()] = [
            $($(CounterDef {
                counter: Counter::$name,
                name: stringify!($name),
                group: Group::$group,
                label: $label,
                gated: counter_table!(@flag $gate),
                wire: counter_table!(@flag $wire),
            },)+)+
        ];

        /// A point-in-time copy of [`ScanStats`].
        #[derive(Debug, Clone, PartialEq, Eq, Default)]
        pub struct StatsSnapshot {
            $($( $(#[$doc])* pub $name: u64, )+)+
            /// Per-worker morsel/steal counters from parallel runs (empty
            /// for serial evaluation).
            pub workers: Vec<WorkerStats>,
        }

        impl StatsSnapshot {
            pub fn get(&self, c: Counter) -> u64 {
                match c {
                    $($(Counter::$name => self.$name,)+)+
                }
            }
        }

        impl ScanStats {
            $($(
                pub fn $name(&self) -> u64 {
                    self.get(Counter::$name)
                }
            )+)+

            /// Snapshot as a plain struct for reporting.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($($name: self.$name(),)+)+
                    workers: self.workers(),
                }
            }
        }
    };
}

counter_table! {
    Stats "stats" {
        /// Full or partial passes over a detail relation.
        scans "scans" check -;
        /// Detail tuples read.
        tuples_scanned "tuples" check wire;
        /// Base-table rows examined by θ (inner-loop work of Algorithm 3.1).
        probes "probes" check -;
        /// Aggregate-state updates applied.
        updates "updates" check wire;
    }
    Base "base" {
        /// Passes over a relation that build a base-values table `B` apart
        /// from the Algorithm 3.1 scan that answers, a scan that built its
        /// own `B` and then stopped answering included.
        base_passes "passes" - -;
        /// Algorithm 3.1 scans that answered over the group-by `B` they
        /// built themselves.
        base_fused "fused" - -;
    }
    Vectorized "vectorized" {
        /// Columnar batches processed by the vectorized evaluator.
        batches "batches" check -;
        /// Batches (or batch sub-steps) that fell back to the scalar
        /// interpreter: expression shape or column data had no typed kernel.
        batch_fallbacks "fallbacks" check -;
        /// Columns of resident chunks transposed into a relation's column
        /// cache (each at most once per chunk, column and relation; a scan
        /// of cached columns counts none).
        columns_transposed "transposed" - -;
    }
    FallbackReasons "fallback reasons" {
        /// Fallbacks because θ (or its bound-per-base-row form) has no
        /// batch evaluation. One batch can hit several causes, each counted
        /// once, independently of `batch_fallbacks`.
        fallback_theta "theta" check -;
        /// Fallbacks because the Theorem 4.2 prefilter has no batch form.
        fallback_prefilter "prefilter" check -;
        /// Fallbacks because a probe-key expression could not evaluate over
        /// the chunk's columns (untyped column, non-batchable shape).
        fallback_key "key" check -;
        /// Fallbacks because an aggregate input column had no typed kernel
        /// representation (mixed types, booleans, `ALL`).
        fallback_agg "agg" check -;
    }
    Generalized "generalized" {
        /// Condition/aggregate sets executed by the fused generalized
        /// (Theorem 4.3) batch executor.
        gen_sets "sets" check -;
        /// Of those, sets delegated wholly to the scalar tuple-at-a-time
        /// path (the other sets in the same scan stay batched).
        gen_set_fallbacks "scalar_sets" check -;
    }
    Governor "governor" {
        /// Cooperative cancellation/deadline polls performed.
        cancel_polls "cancel_polls" - -;
        /// Morsels re-executed after a caught worker panic.
        morsel_retries "retries" - -;
        /// Bytes charged against the memory budget (cumulative, never
        /// released).
        bytes_charged "bytes_charged" - wire;
        /// Budget breaches answered by re-planning into Theorem 4.1
        /// partitioned evaluation instead of aborting.
        degradations "degradations" - wire;
    }
    Spill "spill" {
        /// Spill partitions (temporary page tables) written.
        spill_partitions "partitions" check -;
        /// Bytes written to spill partitions' pages by spill-degradation.
        bytes_spilled "bytes_spilled" check -;
        /// Bytes of spill pages read back (also counted in `bytes_read`).
        spill_read_bytes "read_bytes" check -;
    }
    Cache "cache" {
        /// Queries answered verbatim from a materialized cuboid-cache entry.
        cache_hits "hits" check -;
        /// Queries answered by Theorem 4.5 roll-up from a *finer* cached
        /// cuboid.
        cache_rollup_hits "rollup_hits" check -;
        /// Cacheable queries that found no usable entry and executed from
        /// scratch.
        cache_misses "misses" check -;
        /// Cache entries dropped because an ingest batch could not maintain
        /// them incrementally (non-distributive aggregates, stale source).
        cache_invalidations "invalidations" check -;
        /// Ingest batches folded into a table (and into live cache entries).
        ingest_batches "ingest_batches" check -;
    }
    Paged "paged" {
        /// Pages read from paged-table data files (one per buffer-pool
        /// miss; hits are free).
        pages_read "pages_read" check wire;
        /// Bytes read from paged-table data files: the disk-resident
        /// complement of `bytes_spilled`.
        bytes_read "bytes_read" check wire;
        /// Frames evicted from the buffer pool to admit new pages.
        pool_evictions "pool_evictions" check wire;
        /// Resident pages whose rows a scalar path had built from their
        /// columns (at most once per residency; the batch paths read the
        /// columns).
        page_rows_built "rows_built" - -;
    }
}

impl Counter {
    pub fn def(self) -> &'static CounterDef {
        &COUNTERS[self as usize]
    }
}

/// Thread-safe operation counters, one relaxed atomic per table row;
/// shareable across the parallel evaluators.
#[derive(Debug)]
pub struct ScanStats {
    cells: [AtomicU64; COUNTERS.len()],
    /// Per-worker morsel accounting, appended once per worker per parallel
    /// run (guarded by a mutex: workers report once at exit, not per tuple).
    workers: Mutex<Vec<WorkerStats>>,
}

impl Default for ScanStats {
    fn default() -> Self {
        ScanStats {
            cells: std::array::from_fn(|_| AtomicU64::new(0)),
            workers: Mutex::default(),
        }
    }
}

impl ScanStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to `c`.
    #[inline]
    pub fn count(&self, c: Counter, n: u64) {
        self.cells[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self, c: Counter) -> u64 {
        self.cells[c as usize].load(Ordering::Relaxed)
    }

    /// Fold a finished run's counters in.
    /// Worker lists are per run and are not carried over.
    pub fn absorb(&self, snap: &StatsSnapshot) {
        for (def, v) in snap.iter() {
            self.count(def.counter, v);
        }
    }

    /// Append one worker's morsel accounting (called once per worker at the
    /// end of a parallel run). A poisoned mutex is recovered: stats recording
    /// must never add a second failure to an already-failing run.
    pub fn record_worker(&self, worker: WorkerStats) {
        self.lock_workers().push(worker);
    }

    /// Per-worker morsel accounting recorded so far.
    pub fn workers(&self) -> Vec<WorkerStats> {
        self.lock_workers().clone()
    }

    /// Zero all counters.
    pub fn reset(&self) {
        for cell in &self.cells {
            cell.store(0, Ordering::Relaxed);
        }
        self.lock_workers().clear();
    }

    fn lock_workers(&self) -> std::sync::MutexGuard<'_, Vec<WorkerStats>> {
        self.workers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl StatsSnapshot {
    /// Every table row with this snapshot's value, in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static CounterDef, u64)> + '_ {
        COUNTERS.iter().map(|def| (def, self.get(def.counter)))
    }

    /// True if any counter of `group` is non-zero.
    pub fn active(&self, group: Group) -> bool {
        self.iter().any(|(def, v)| def.group == group && v > 0)
    }

    /// The one renderer behind `Display` and `EXPLAIN ANALYZE`: one
    /// `{prefix}{group}: label=value ..` line per active group, then one
    /// line per worker.
    pub fn render(&self, prefix: &str, out: &mut impl std::fmt::Write) -> std::fmt::Result {
        let mut open = None;
        for (def, v) in self.iter() {
            if def.group != Group::Stats && !self.active(def.group) {
                continue;
            }
            if open != Some(def.group) {
                if open.is_some() {
                    out.write_char('\n')?;
                }
                write!(out, "{prefix}{}:", def.group.label())?;
                open = Some(def.group);
            }
            write!(out, " {}={v}", def.label)?;
        }
        out.write_char('\n')?;
        for w in &self.workers {
            writeln!(out, "{prefix}  {w}")?;
        }
        Ok(())
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut text = String::new();
        self.render("", &mut text)?;
        f.write_str(text.trim_end())
    }
}

// ---------------------------------------------------------------------------
// Table statistics (catalog-resident min/max/NDV)
// ---------------------------------------------------------------------------

/// Bits in a [`NdvSketch`] bitmap: 4096 bits = 512 bytes per column. Linear
/// counting stays within a few percent up to ~NDV ≈ m·ln m ≈ 34k distinct
/// values per column, plenty for the cost model's selectivity guesses.
const NDV_SKETCH_BITS: usize = 4096;

/// A linear-counting NDV sketch (Whang et al.): hash each value into a fixed
/// bitmap and estimate distinct count from the fraction of bits still zero.
/// Unlike a `HashSet`, folding an ingest batch in never reallocates, and two
/// sketches over disjoint row sets merge by OR — exactly the shape the
/// incremental ingest path needs.
#[derive(Clone, PartialEq, Eq)]
pub struct NdvSketch {
    bits: [u64; NDV_SKETCH_BITS / 64],
}

impl Default for NdvSketch {
    fn default() -> Self {
        NdvSketch {
            bits: [0u64; NDV_SKETCH_BITS / 64],
        }
    }
}

impl std::fmt::Debug for NdvSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NdvSketch(~{})", self.estimate())
    }
}

impl NdvSketch {
    /// FNV-1a over a type tag plus the value's canonical bytes, so `Int(1)`
    /// and `Float(1.0)` count as distinct values (they compare unequal as
    /// group keys too).
    fn hash_value(v: &crate::value::Value) -> u64 {
        use crate::value::Value;
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        };
        match v {
            Value::Null => eat(0),
            Value::All => eat(1),
            Value::Int(i) => {
                eat(2);
                i.to_le_bytes().into_iter().for_each(&mut eat);
            }
            Value::Float(x) => {
                eat(3);
                x.to_bits().to_le_bytes().into_iter().for_each(&mut eat);
            }
            Value::Str(s) => {
                eat(4);
                s.as_bytes().iter().copied().for_each(&mut eat);
            }
            Value::Bool(b) => {
                eat(5);
                eat(*b as u8);
            }
        }
        h
    }

    /// Record one value.
    pub fn insert(&mut self, v: &crate::value::Value) {
        let bit = (Self::hash_value(v) % NDV_SKETCH_BITS as u64) as usize;
        self.bits[bit / 64] |= 1u64 << (bit % 64);
    }

    /// Linear-counting estimate of the number of distinct values recorded.
    pub fn estimate(&self) -> u64 {
        let m = NDV_SKETCH_BITS as f64;
        let zeros = self
            .bits
            .iter()
            .map(|w| w.count_zeros() as u64)
            .sum::<u64>() as f64;
        if zeros == 0.0 {
            // Saturated: every bit set. Report the sketch's credible ceiling.
            return (m * m.ln()).round() as u64;
        }
        (m * (m / zeros).ln()).round() as u64
    }
}

/// Per-column statistics: value bounds, null count, and an NDV estimate.
/// String columns additionally carry the table's string dictionary, which
/// doubles as an exact NDV count and as the intern pool the ingest path grows
/// so appended rows share `Arc<str>` allocations with resident rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Column name (unqualified, as in the table schema).
    pub name: String,
    /// Smallest non-NULL, non-ALL value seen (`Value`'s total order).
    pub min: Option<crate::value::Value>,
    /// Largest non-NULL, non-ALL value seen.
    pub max: Option<crate::value::Value>,
    /// Number of SQL NULLs in the column.
    pub null_count: u64,
    /// Distinct strings, for `Str` columns (exact NDV + intern pool).
    dict: Option<std::collections::HashSet<std::sync::Arc<str>>>,
    sketch: NdvSketch,
}

impl ColumnStats {
    fn new(name: &str, dtype: crate::schema::DataType) -> Self {
        ColumnStats {
            name: name.to_string(),
            min: None,
            max: None,
            null_count: 0,
            dict: matches!(dtype, crate::schema::DataType::Str)
                .then(std::collections::HashSet::new),
            sketch: NdvSketch::default(),
        }
    }

    /// Fold one value into the column's bounds, null count, and NDV state.
    /// For dictionary columns the value is first interned: if an equal string
    /// is already resident its `Arc` replaces the incoming one, otherwise the
    /// dictionary grows.
    fn fold(&mut self, v: &mut crate::value::Value) {
        use crate::value::Value;
        if let (Some(dict), Value::Str(s)) = (self.dict.as_mut(), &mut *v) {
            match dict.get(s.as_ref()) {
                Some(resident) => *s = resident.clone(),
                None => {
                    dict.insert(s.clone());
                }
            }
        }
        if v.is_null() {
            self.null_count += 1;
            return;
        }
        if v.is_all() {
            return;
        }
        let v = &*v;
        self.sketch.insert(v);
        match &self.min {
            Some(m) if v >= m => {}
            _ => self.min = Some(v.clone()),
        }
        match &self.max {
            Some(m) if v <= m => {}
            _ => self.max = Some(v.clone()),
        }
    }

    /// Number of distinct strings resident in the dictionary (`Str` columns).
    pub fn dict_len(&self) -> Option<usize> {
        self.dict.as_ref().map(|d| d.len())
    }
}

/// Catalog-resident statistics for one table: row count plus per-column
/// [`ColumnStats`]. Computed in one pass at `register` time and *folded
/// forward* on every ingest batch — never recomputed from scratch — so the
/// cost model reads bounds/NDV that are exactly as fresh as the data.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TableStats {
    rows: u64,
    columns: Vec<ColumnStats>,
}

impl TableStats {
    /// One-pass statistics over a relation (used at catalog registration).
    pub fn compute(rel: &crate::relation::Relation) -> Self {
        let mut s = TableStats {
            rows: 0,
            columns: rel
                .schema()
                .fields()
                .iter()
                .map(|f| ColumnStats::new(&f.name, f.dtype))
                .collect(),
        };
        // Folding borrows values mutably only to intern strings; stats
        // computation never changes what a value *is*.
        let mut rows: Vec<crate::row::Row> = rel.rows().to_vec();
        s.fold_rows(&mut rows);
        s
    }

    /// Fold an ingest batch into the statistics, interning string values
    /// against the dictionary in place (the caller appends the same rows to
    /// the relation afterwards, so resident and incoming strings share
    /// allocations).
    pub fn fold_rows(&mut self, rows: &mut [crate::row::Row]) {
        for row in rows.iter_mut() {
            self.rows += 1;
            for (i, col) in self.columns.iter_mut().enumerate() {
                if let Some(v) = row.values_mut().get_mut(i) {
                    col.fold(v);
                }
            }
        }
    }

    /// Total rows folded into these statistics.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Per-column statistics, in schema order.
    pub fn columns(&self) -> &[ColumnStats] {
        &self.columns
    }

    /// Statistics for the named column.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.iter().find(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counted(events: &[(Counter, u64)]) -> ScanStats {
        let s = ScanStats::new();
        for &(c, n) in events {
            s.count(c, n);
        }
        s
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let s = counted(&[
            (Counter::scans, 1),
            (Counter::scans, 1),
            (Counter::tuples_scanned, 100),
            (Counter::probes, 300),
            (Counter::updates, 50),
        ]);
        assert_eq!(s.scans(), 2);
        assert_eq!(s.tuples_scanned(), 100);
        assert_eq!(s.probes(), 300);
        assert_eq!(s.updates(), 50);
        s.record_worker(WorkerStats::new(0));
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn concurrent_updates_are_summed() {
        let s = ScanStats::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        s.count(Counter::probes, 1);
                    }
                });
            }
        });
        assert_eq!(s.probes(), 8000);
    }

    #[test]
    fn snapshot_displays() {
        let s = counted(&[(Counter::tuples_scanned, 7)]);
        s.record_worker(WorkerStats::new(3));
        // The always-present line, then workers; no trailing newline.
        assert_eq!(
            s.snapshot().to_string(),
            "stats: scans=0 tuples=7 probes=0 updates=0\n  \
             worker 3: morsels=0 tuples=0 updates=0 steals=0"
        );
    }

    #[test]
    fn batch_counters_accumulate_and_display() {
        assert!(!ScanStats::new()
            .snapshot()
            .to_string()
            .contains("vectorized:"));
        let snap = counted(&[
            (Counter::batches, 1),
            (Counter::batches, 1),
            (Counter::batch_fallbacks, 1),
        ])
        .snapshot();
        assert_eq!(snap.batches, 2);
        assert_eq!(snap.batch_fallbacks, 1);
        // Batch activity alone is not governor activity.
        assert!(!snap.active(Group::Governor));
        assert!(snap
            .to_string()
            .contains("vectorized: batches=2 fallbacks=1"));
        // No attributed cause: the breakdown line stays hidden.
        assert!(!snap.to_string().contains("fallback reasons:"));
    }

    #[test]
    fn fallback_reasons_accumulate_and_display() {
        let snap = counted(&[
            (Counter::fallback_theta, 1),
            (Counter::fallback_theta, 1),
            (Counter::fallback_prefilter, 1),
            (Counter::fallback_key, 1),
            (Counter::fallback_agg, 1),
        ])
        .snapshot();
        assert!(snap.active(Group::FallbackReasons));
        assert!(snap
            .to_string()
            .contains("fallback reasons: theta=2 prefilter=1 key=1 agg=1"));
    }

    #[test]
    fn generalized_set_counters_accumulate_and_display() {
        assert!(!ScanStats::new()
            .snapshot()
            .to_string()
            .contains("generalized:"));
        let snap = counted(&[(Counter::gen_sets, 3), (Counter::gen_set_fallbacks, 1)]).snapshot();
        assert!(snap
            .to_string()
            .contains("generalized: sets=3 scalar_sets=1"));
    }

    #[test]
    fn spill_counters_accumulate_and_display() {
        assert!(!ScanStats::new().snapshot().active(Group::Spill));
        let snap = counted(&[
            (Counter::spill_partitions, 2),
            (Counter::bytes_spilled, 700),
            (Counter::bytes_spilled, 324),
            (Counter::spill_read_bytes, 1024),
        ])
        .snapshot();
        assert!(snap.active(Group::Spill));
        // Spilling alone is not governor activity (and vice versa).
        assert!(!snap.active(Group::Governor));
        assert!(snap
            .to_string()
            .contains("spill: partitions=2 bytes_spilled=1024 read_bytes=1024"));
    }

    #[test]
    fn cache_counters_accumulate_and_display() {
        let snap = counted(&[
            (Counter::cache_hits, 2),
            (Counter::cache_rollup_hits, 1),
            (Counter::cache_misses, 1),
            (Counter::cache_invalidations, 3),
            (Counter::ingest_batches, 1),
        ])
        .snapshot();
        // Cache activity alone is neither governor nor spill activity.
        assert!(snap.active(Group::Cache));
        assert!(!snap.active(Group::Governor));
        assert!(!snap.active(Group::Spill));
        assert!(snap
            .to_string()
            .contains("cache: hits=2 rollup_hits=1 misses=1 invalidations=3 ingest_batches=1"));
    }

    #[test]
    fn governor_counters_accumulate_and_display() {
        assert!(!ScanStats::new().snapshot().active(Group::Governor));
        let snap = counted(&[
            (Counter::cancel_polls, 1),
            (Counter::morsel_retries, 1),
            (Counter::bytes_charged, 1024),
            (Counter::degradations, 1),
        ])
        .snapshot();
        assert!(snap.active(Group::Governor));
        assert!(snap
            .to_string()
            .contains("governor: cancel_polls=1 retries=1 bytes_charged=1024 degradations=1"));
    }
}
