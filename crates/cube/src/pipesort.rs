//! PIPESORT-style pipelined cube computation (Figure 2, \[AAD+96\]).
//!
//! The lattice is covered by *pipelines*: each pipeline fixes a sort order of
//! the dimensions and computes every cuboid that is a prefix of that order in
//! **one pass** over the sorted data (prefix group boundaries nest). Moving
//! between pipelines costs a sort — the dashed "resort" edges of Figure 2.
//! In the paper's algebra each pipeline is the Theorem 4.5 chain
//! `MD(π_X, MD(π_{XY}, R, l, θ), l', θ)` annotated with "the detail relation
//! is provided in sorted order", and pipeline construction is plan selection
//! over those annotated expressions.
//!
//! The pipeline set is built greedily: repeatedly take the widest uncovered
//! cuboid, extend its dimension list to a full sort order, and claim every
//! uncovered prefix. For 2 dimensions this reproduces Figure 2 exactly:
//! pipeline `AB → A → ∅` plus a resort pipeline for `B`.

use crate::common::{pad_cuboid, serial_md_join, sorted_group_agg, CubeSpec};
use crate::lattice::Mask;
use mdj_agg::rollup::rollup_specs;
use mdj_core::basevalues::{cuboid_theta, group_by};
use mdj_core::{ExecContext, Result};
use mdj_storage::Relation;

/// One pipelined path: a dimension order plus the prefix lengths (cuboids)
/// this pipeline emits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pipeline {
    /// Dimension indices (into `spec.dims`) in sort order.
    pub order: Vec<usize>,
    /// Prefix lengths emitted, descending. Length `k` means the cuboid over
    /// `order[..k]`.
    pub prefixes: Vec<usize>,
}

impl Pipeline {
    /// The mask of the prefix of length `k`.
    pub fn prefix_mask(&self, k: usize) -> Mask {
        self.order[..k].iter().fold(0, |m, &d| m | (1 << d))
    }
}

/// Greedily cover the lattice with pipelines.
pub fn build_pipelines(spec: &CubeSpec) -> Vec<Pipeline> {
    let lattice = spec.lattice();
    let n = lattice.dims();
    let mut uncovered: Vec<Mask> = lattice.masks_fine_to_coarse();
    let mut pipelines = Vec::new();
    while let Some(&seed) = uncovered.first() {
        // Order: the seed's dims (ascending), then the rest.
        let mut order: Vec<usize> = lattice.kept_dims(seed);
        for d in 0..n {
            if !order.contains(&d) {
                order.push(d);
            }
        }
        let pipeline_masks: Vec<(usize, Mask)> = (0..=n)
            .map(|k| (k, order[..k].iter().fold(0, |m, &d| m | (1 << d))))
            .collect();
        let mut prefixes: Vec<usize> = pipeline_masks
            .iter()
            .filter(|(_, m)| uncovered.contains(m))
            .map(|(k, _)| *k)
            .collect();
        prefixes.sort_by(|a, b| b.cmp(a));
        uncovered.retain(|m| {
            !pipeline_masks
                .iter()
                .any(|(k, pm)| pm == m && prefixes.contains(k))
        });
        pipelines.push(Pipeline { order, prefixes });
    }
    pipelines
}

/// Number of sorts the pipeline set implies (one per pipeline; Figure 2's
/// dashed edges plus the initial sort).
pub fn sort_count(pipelines: &[Pipeline]) -> usize {
    pipelines.len()
}

/// Compute the cube via pipelined sorts. Requires distributive aggregates
/// (each pipeline below the finest cuboid rolls up via Theorem 4.5's `l'`).
pub fn cube_pipesort(r: &Relation, spec: &CubeSpec, ctx: &ExecContext) -> Result<Relation> {
    let lattice = spec.lattice();
    let schema = spec.output_schema(r, ctx.registry())?;
    let rolled = rollup_specs(&spec.aggs, ctx.registry())?;
    let pipelines = build_pipelines(spec);

    // Finest cuboid once, from the detail table (hash-probed MD-join).
    let full_kept = spec.kept(lattice.full());
    let base_b = group_by(r, &full_kept)?;
    let base = serial_md_join(&base_b, r, &spec.aggs, &cuboid_theta(&full_kept), ctx)?;

    let mut out = Relation::empty(schema);
    for pipeline in &pipelines {
        // One (re)sort per pipeline.
        let mut sorted = base.clone();
        let order_names: Vec<&str> = pipeline
            .order
            .iter()
            .map(|&d| spec.dims[d].as_str())
            .collect();
        sorted.sort_by(&order_names)?;
        // One pass per emitted prefix (each pass is sequential over the
        // already-sorted data; no re-sort).
        for &k in &pipeline.prefixes {
            let mask = pipeline.prefix_mask(k);
            let cuboid = if mask == lattice.full() {
                base.clone()
            } else {
                let key_cols: Vec<usize> = order_names[..k]
                    .iter()
                    .map(|n| sorted.schema().index_of(n))
                    .collect::<std::result::Result<_, _>>()?;
                let in_pipeline_order =
                    sorted_group_agg(&sorted, &key_cols, &rolled, ctx.registry())?;
                // Reorder key columns to the canonical ascending-dim order.
                let mut names: Vec<String> =
                    spec.kept(mask).iter().map(|s| s.to_string()).collect();
                names.extend(rolled.iter().map(|s| s.output_name()));
                let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
                in_pipeline_order.project(&name_refs)?
            };
            pad_cuboid(&cuboid, spec, mask, &mut out);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::cube_per_cuboid;
    use mdj_agg::AggSpec;
    use mdj_storage::{DataType, Row, Schema};

    fn rel() -> Relation {
        let schema = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Int),
            ("m", DataType::Int),
        ]);
        Relation::from_rows(
            schema,
            (0..30)
                .map(|i| Row::from_values([i % 3, i % 4, i % 5, i]))
                .collect(),
        )
    }

    fn spec3() -> CubeSpec {
        CubeSpec::new(
            &["a", "b", "c"],
            vec![AggSpec::on_column("sum", "m"), AggSpec::count_star()],
        )
    }

    #[test]
    fn figure_2_two_dim_pipelines() {
        let sp = CubeSpec::new(&["a", "b"], vec![AggSpec::on_column("sum", "m")]);
        let pipelines = build_pipelines(&sp);
        // Pipeline 1: AB → A → ∅ (order [a, b], prefixes [2, 1, 0]).
        // Pipeline 2: resort for B (order [b, a], prefixes [1]).
        assert_eq!(pipelines.len(), 2);
        assert_eq!(pipelines[0].order, vec![0, 1]);
        assert_eq!(pipelines[0].prefixes, vec![2, 1, 0]);
        assert_eq!(pipelines[1].order, vec![1, 0]);
        assert_eq!(pipelines[1].prefixes, vec![1]);
        assert_eq!(sort_count(&pipelines), 2);
    }

    #[test]
    fn pipelines_cover_the_lattice_exactly_once() {
        for dims in 1..=4usize {
            let names: Vec<String> = (0..dims).map(|i| format!("d{i}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let sp = CubeSpec::new(&refs, vec![AggSpec::count_star()]);
            let pipelines = build_pipelines(&sp);
            let mut seen = std::collections::HashSet::new();
            for p in &pipelines {
                for &k in &p.prefixes {
                    assert!(seen.insert(p.prefix_mask(k)), "mask emitted twice");
                }
            }
            assert_eq!(seen.len(), 1 << dims, "dims={dims}");
        }
    }

    #[test]
    fn pipesort_matches_baseline() {
        let r = rel();
        let ctx = ExecContext::new();
        let a = cube_pipesort(&r, &spec3(), &ctx).unwrap();
        let b = cube_per_cuboid(&r, &spec3(), &ctx).unwrap();
        assert!(a.same_multiset(&b));
    }

    #[test]
    fn fewer_sorts_than_cuboids() {
        // The whole point: 2^n cuboids, far fewer sorts.
        let sp = spec3();
        let pipelines = build_pipelines(&sp);
        assert!(sort_count(&pipelines) < sp.lattice().cuboid_count());
        // For n=3 the greedy cover needs 3 pipelines ((abc,ab,a,∅), (b,bc),
        // (c,ac)) or similar ≤ C(3,1)+1 shapes.
        assert!(sort_count(&pipelines) <= 4);
    }

    #[test]
    fn non_distributive_rejected() {
        let r = rel();
        let ctx = ExecContext::new();
        let sp = CubeSpec::new(&["a", "b"], vec![AggSpec::on_column("median", "m")]);
        assert!(cube_pipesort(&r, &sp, &ctx).is_err());
    }
}
