//! Plan pretty-printing (`EXPLAIN`-style).

use crate::plan::{BaseShape, Plan};
use mdj_storage::StatsSnapshot;
use std::fmt::Write;

/// Render a plan as an indented tree.
pub fn explain(plan: &Plan) -> String {
    let mut out = String::new();
    walk(plan, 0, &mut out);
    out
}

/// Render a plan together with the operation counters collected while
/// executing it (`EXPLAIN ANALYZE`-style): the counter table's group lines,
/// then one line per parallel worker.
pub fn explain_with_stats(plan: &Plan, stats: &StatsSnapshot) -> String {
    let mut out = explain(plan);
    let _ = stats.render("-- ", &mut out);
    out
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn walk(plan: &Plan, depth: usize, out: &mut String) {
    indent(depth, out);
    match plan {
        Plan::Table(name) => {
            let _ = writeln!(out, "Table {name}");
        }
        Plan::Inline(rel) => {
            let _ = writeln!(out, "Inline [{} rows] {}", rel.len(), rel.schema());
        }
        Plan::Select { input, pred } => {
            let _ = writeln!(out, "Select {pred}");
            walk(input, depth + 1, out);
        }
        Plan::Project { input, cols } => {
            let _ = writeln!(out, "Project [{}]", cols.join(", "));
            walk(input, depth + 1, out);
        }
        Plan::Base { input, shape } => {
            let desc = match shape {
                BaseShape::GroupBy(d) => format!("GroupBy({})", d.join(", ")),
                BaseShape::Cube(d) => format!("Cube({})", d.join(", ")),
                BaseShape::Rollup(d) => format!("Rollup({})", d.join(", ")),
                BaseShape::GroupingSets(d, s) => {
                    format!("GroupingSets({}; {} sets)", d.join(", "), s.len())
                }
                BaseShape::Unpivot(d) => format!("Unpivot({})", d.join(", ")),
            };
            let _ = writeln!(out, "BaseValues {desc}");
            walk(input, depth + 1, out);
        }
        Plan::Union(parts) => {
            let _ = writeln!(out, "Union [{} inputs]", parts.len());
            for p in parts {
                walk(p, depth + 1, out);
            }
        }
        Plan::MdJoin {
            base,
            detail,
            aggs,
            theta,
        } => {
            let l: Vec<String> = aggs.iter().map(|a| a.to_string()).collect();
            let _ = writeln!(out, "MDJoin l=[{}] θ={theta}", l.join(", "));
            walk(base, depth + 1, out);
            walk(detail, depth + 1, out);
        }
        Plan::GenMdJoin {
            base,
            detail,
            blocks,
        } => {
            let _ = writeln!(out, "GenMDJoin [{} blocks]", blocks.len());
            for blk in blocks {
                indent(depth + 1, out);
                let l: Vec<String> = blk.aggs.iter().map(|a| a.to_string()).collect();
                let _ = writeln!(out, "block l=[{}] θ={}", l.join(", "), blk.theta);
            }
            walk(base, depth + 1, out);
            walk(detail, depth + 1, out);
        }
        Plan::Parallel { input } => {
            let _ = writeln!(out, "Parallel [batch evaluator, one scan]");
            walk(input, depth + 1, out);
        }
        Plan::Join {
            left,
            right,
            left_keys,
            right_keys,
            keep_right,
        } => {
            let _ = writeln!(
                out,
                "Join on [{}]=[{}] keep_right=[{}]",
                left_keys.join(", "),
                right_keys.join(", "),
                keep_right.join(", ")
            );
            walk(left, depth + 1, out);
            walk(right, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdj_agg::AggSpec;
    use mdj_expr::builder::*;

    #[test]
    fn explain_renders_tree() {
        let plan = Plan::table("Sales").group_by_base(&["cust"]).md_join(
            Plan::table("Sales").select(eq(col_r("state"), lit("NY"))),
            vec![AggSpec::on_column("avg", "sale")],
            eq(col_b("cust"), col_r("cust")),
        );
        let s = explain(&plan);
        assert!(s.contains("MDJoin"));
        assert!(s.contains("BaseValues GroupBy(cust)"));
        assert!(s.contains("Select (R.state = 'NY')"));
        // Indentation present.
        assert!(s.lines().any(|l| l.starts_with("    ")));
    }

    #[test]
    fn explain_renders_parallel_node() {
        let plan = Plan::table("Sales")
            .group_by_base(&["cust"])
            .md_join(
                Plan::table("Sales"),
                vec![AggSpec::on_column("sum", "sale")],
                eq(col_b("cust"), col_r("cust")),
            )
            .parallel();
        // The node names what runs: the batch evaluator, in one scan.
        let s = explain(&plan);
        assert!(s.contains("Parallel [batch evaluator, one scan]"));
        assert!(!s.contains("morsel"));
    }

    #[test]
    fn explain_with_stats_shows_worker_counters() {
        use mdj_storage::{StatsSnapshot, WorkerStats};
        let plan = Plan::table("Sales");
        let snap = StatsSnapshot {
            scans: 1,
            tuples_scanned: 500,
            probes: 500,
            updates: 42,
            workers: vec![
                WorkerStats {
                    worker: 0,
                    morsels: 3,
                    tuples: 300,
                    updates: 30,
                    steals: 1,
                },
                WorkerStats {
                    worker: 1,
                    morsels: 2,
                    tuples: 200,
                    updates: 12,
                    steals: 0,
                },
            ],
            ..Default::default()
        };
        let s = explain_with_stats(&plan, &snap);
        assert!(s.contains("-- stats: scans=1 tuples=500 probes=500 updates=42\n"));
        assert!(s.contains("--   worker 0: morsels=3 tuples=300 updates=30 steals=1\n"));
        assert!(s.contains("worker 1:"));
        // Governor counters are omitted when the governor never engaged...
        assert!(!s.contains("governor:"));
        // ...as is the vectorized line when no batches ran.
        assert!(!s.contains("vectorized:"));
        let batched = StatsSnapshot {
            batches: 7,
            batch_fallbacks: 2,
            ..snap.clone()
        };
        let s2 = explain_with_stats(&plan, &batched);
        assert!(s2.contains("-- vectorized: batches=7 fallbacks=2"));
        // Reasons and generalized sets are silent until attributed...
        assert!(!s2.contains("fallback reasons:"));
        assert!(!s2.contains("generalized:"));
        // ...and rendered once counted.
        let attributed = StatsSnapshot {
            batches: 7,
            batch_fallbacks: 2,
            fallback_prefilter: 2,
            fallback_agg: 5,
            gen_sets: 3,
            gen_set_fallbacks: 1,
            ..snap.clone()
        };
        let sr = explain_with_stats(&plan, &attributed);
        assert!(sr.contains("-- fallback reasons: theta=0 prefilter=2 key=0 agg=5"));
        assert!(sr.contains("-- generalized: sets=3 scalar_sets=1"));
        // Governor counters are rendered when any of them is non-zero.
        let governed = StatsSnapshot {
            cancel_polls: 12,
            bytes_charged: 4096,
            degradations: 2,
            ..snap
        };
        let s = explain_with_stats(&plan, &governed);
        assert!(
            s.contains("-- governor: cancel_polls=12 retries=0 bytes_charged=4096 degradations=2")
        );
        // Spill counters are silent until a run actually spilled...
        assert!(!s.contains("spill:"));
        // ...and rendered once one did.
        let spilled = StatsSnapshot {
            bytes_spilled: 8192,
            spill_partitions: 4,
            spill_read_bytes: 8192,
            ..governed
        };
        let s = explain_with_stats(&plan, &spilled);
        assert!(s.contains("-- spill: partitions=4 bytes_spilled=8192 read_bytes=8192"));
        // Cache counters are silent while the cache never engaged...
        assert!(!s.contains("cache:"));
        // ...and rendered once any cache or ingest activity is counted.
        let cached = StatsSnapshot {
            cache_hits: 3,
            cache_rollup_hits: 1,
            cache_misses: 2,
            cache_invalidations: 4,
            ingest_batches: 5,
            ..spilled
        };
        let s = explain_with_stats(&plan, &cached);
        assert!(
            s.contains("-- cache: hits=3 rollup_hits=1 misses=2 invalidations=4 ingest_batches=5")
        );
        // Paged-store counters are silent for in-memory runs...
        assert!(!s.contains("paged:"));
        // ...and rendered once a disk-resident scan happened.
        let paged = StatsSnapshot {
            pages_read: 9,
            bytes_read: 2304,
            pool_evictions: 3,
            ..cached
        };
        let s = explain_with_stats(&plan, &paged);
        assert!(s.contains("-- paged: pages_read=9 bytes_read=2304 pool_evictions=3"));
    }
}
