//! Batched query execution with shared tile fetches.
//!
//! Workloads rarely ask one question: a dashboard refresh issues hundreds
//! of point and range queries at once. Because every query plan is a
//! contribution list over coefficients, a batch can be executed
//! *tile-major*: resolve all lists up front, group the coefficient reads by
//! tile, and stream each needed tile through memory exactly once. With a
//! cold cache this turns `Q · ceil(n/b)^d` block reads into
//! `|distinct tiles|` — the batching analogue of the paper's tiling
//! argument.

use ss_core::{reconstruct, TilingMap};
use ss_storage::CoeffRead;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Executes a batch of point queries, reading every needed tile once.
pub fn batch_points<C: CoeffRead>(cs: &mut C, n: &[u32], positions: &[Vec<usize>]) -> Vec<f64> {
    let _span = ss_obs::global().span("query.batch_points");
    let plans: Vec<Vec<(Vec<usize>, f64)>> = positions
        .iter()
        .map(|pos| reconstruct::standard_point_contributions(n, pos))
        .collect();
    execute_plans(cs, &plans)
}

/// Executes a batch of inclusive range-sum queries, reading every needed
/// tile once.
pub fn batch_range_sums<C: CoeffRead>(
    cs: &mut C,
    n: &[u32],
    ranges: &[(Vec<usize>, Vec<usize>)],
) -> Vec<f64> {
    let _span = ss_obs::global().span("query.batch_range_sums");
    let plans: Vec<Vec<(Vec<usize>, f64)>> = ranges
        .iter()
        .map(|(lo, hi)| reconstruct::standard_range_sum_contributions(n, lo, hi))
        .collect();
    execute_plans(cs, &plans)
}

/// One plan's answer plus its per-tile partial sums, in ascending tile
/// order — the decomposition a scatter-gather router merges exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanTiles {
    /// The plan's answer: the fold of `tiles` partials in order,
    /// starting from `0.0`.
    pub value: f64,
    /// `(tile, partial)` pairs for every tile the plan touched,
    /// ascending by tile ordinal.
    pub tiles: Vec<(usize, f64)>,
}

/// Tile-major evaluation of contribution-list plans: answer `i` is the
/// weighted sum of plan `i`'s coefficients, with every `(tile, slot)` read
/// exactly once across the whole batch, in ascending tile order.
///
/// Increments the `query.batch_distinct_tiles` counter by the number of
/// distinct tiles the batch touched — the quantity the tile-major claim is
/// about. The evaluation order (and hence the floating-point answer) is
/// deterministic: it depends only on the plans and the tiling map, never on
/// the store behind `cs`, so serial and concurrent executions agree bit for
/// bit.
pub fn execute_plans<C: CoeffRead>(cs: &mut C, plans: &[Vec<(Vec<usize>, f64)>]) -> Vec<f64> {
    execute_plans_tiled(cs, plans)
        .into_iter()
        .map(|r| r.value)
        .collect()
}

/// [`execute_plans`] with each answer's per-tile partial sums exposed.
///
/// The canonical accumulation order is **per-tile decomposed**: within a
/// tile, contributions fold left in ascending `(tile, slot)` key order
/// (and, per key, in plan insertion order); the answer is then the fold
/// of the per-tile partials in ascending tile order, starting from
/// `0.0`. Because f64 addition is not associative, this grouping is what
/// makes horizontal sharding *exact*: any partition of the tile space
/// into whole-tile ranges computes the same per-tile partials locally,
/// and a router that re-folds the partials in ascending tile order
/// replays the identical addition sequence — the merged answer equals
/// the single-store answer bit for bit (see `ss-serve`'s router and
/// DESIGN.md §16).
pub fn execute_plans_tiled<C: CoeffRead>(
    cs: &mut C,
    plans: &[Vec<(Vec<usize>, f64)>],
) -> Vec<PlanTiles> {
    // Inert unless the calling thread is inside a traced request; the
    // batch's tile-fetch events then nest under this span.
    let _trace_span = ss_obs::trace::scoped("query.execute");
    // (tile, slot) -> [(query, weight)], so each coefficient is read once
    // even when several queries share it.
    let mut wanted: HashMap<(usize, usize), Vec<(usize, f64)>> = HashMap::new();
    for (q, plan) in plans.iter().enumerate() {
        for (idx, w) in plan {
            let loc = cs.map().locate(idx);
            wanted
                .entry((loc.tile, loc.slot))
                .or_default()
                .push((q, *w));
        }
    }
    let mut keys: Vec<(usize, usize)> = wanted.keys().copied().collect();
    keys.sort_unstable();
    let mut distinct_tiles = 0u64;
    let mut results: Vec<PlanTiles> = plans
        .iter()
        .map(|_| PlanTiles {
            value: 0.0,
            tiles: Vec::new(),
        })
        .collect();
    // Keys are sorted, so each tile is one contiguous run.
    let mut i = 0;
    let mut acc: HashMap<usize, f64> = HashMap::new();
    let mut touched: Vec<usize> = Vec::new();
    while i < keys.len() {
        let tile = keys[i].0;
        distinct_tiles += 1;
        acc.clear();
        touched.clear();
        while i < keys.len() && keys[i].0 == tile {
            let v = cs.read_at(tile, keys[i].1);
            for &(q, w) in &wanted[&keys[i]] {
                match acc.entry(q) {
                    std::collections::hash_map::Entry::Occupied(mut e) => *e.get_mut() += w * v,
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(w * v);
                        touched.push(q);
                    }
                }
            }
            i += 1;
        }
        for &q in &touched {
            let partial = acc[&q];
            results[q].tiles.push((tile, partial));
            results[q].value += partial;
        }
    }
    static DISTINCT_TILES: OnceLock<ss_obs::Counter> = OnceLock::new();
    DISTINCT_TILES
        .get_or_init(|| ss_obs::global().counter("query.batch_distinct_tiles"))
        .add(distinct_tiles);
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_array::{MultiIndexIter, NdArray, Shape};
    use ss_core::tiling::StandardTiling;
    use ss_storage::{mem_shared_store, IoStats, SharedCoeffStore};

    fn setup(
        side: usize,
        n: u32,
    ) -> (
        NdArray<f64>,
        SharedCoeffStore<StandardTiling, ss_storage::MemBlockStore>,
        IoStats,
    ) {
        let data = NdArray::from_fn(Shape::cube(2, side), |idx| {
            ((idx[0] * 31 + idx[1] * 7) % 23) as f64
        });
        let t = ss_core::standard::forward_to(&data);
        let stats = IoStats::new();
        let cs = mem_shared_store(
            StandardTiling::new(&[n; 2], &[2; 2]),
            1 << 12,
            1,
            stats.clone(),
        );
        for idx in MultiIndexIter::new(&[side, side]) {
            cs.write(&idx, t.get(&idx));
        }
        cs.flush();
        (data, cs, stats)
    }

    #[test]
    fn batch_points_match_singles() {
        let (data, mut cs, _) = setup(64, 6);
        let positions: Vec<Vec<usize>> = (0..50)
            .map(|i| vec![(i * 13) % 64, (i * 29) % 64])
            .collect();
        let got = batch_points(&mut cs, &[6, 6], &positions);
        for (pos, g) in positions.iter().zip(&got) {
            assert!((g - data.get(pos)).abs() < 1e-9, "{pos:?}");
        }
    }

    #[test]
    fn batch_range_sums_match_naive() {
        let (data, mut cs, _) = setup(64, 6);
        let ranges: Vec<(Vec<usize>, Vec<usize>)> = (0..20)
            .map(|i| {
                let lo = vec![(i * 3) % 32, (i * 5) % 32];
                let hi = vec![lo[0] + 15, lo[1] + 20];
                (lo, hi)
            })
            .collect();
        let got = batch_range_sums(&mut cs, &[6, 6], &ranges);
        for ((lo, hi), g) in ranges.iter().zip(&got) {
            assert!(
                (g - data.region_sum(lo, hi)).abs() < 1e-6,
                "[{lo:?},{hi:?}]"
            );
        }
    }

    #[test]
    fn batching_reads_fewer_blocks_than_sequential_cold_queries() {
        let (_, mut cs, stats) = setup(64, 6);
        let positions: Vec<Vec<usize>> = (0..100)
            .map(|i| vec![(i * 7) % 64, (i * 11) % 64])
            .collect();
        // Sequential with a cold cache per query.
        let mut sequential_blocks = 0u64;
        for pos in &positions {
            cs.clear_cache();
            stats.reset();
            let _ = crate::point_standard(&mut cs, &[6, 6], pos);
            sequential_blocks += stats.snapshot().block_reads;
        }
        // Batched, cold cache once.
        cs.clear_cache();
        stats.reset();
        let _ = batch_points(&mut cs, &[6, 6], &positions);
        let batched_blocks = stats.snapshot().block_reads;
        assert!(
            batched_blocks * 3 < sequential_blocks,
            "batched {batched_blocks} vs sequential {sequential_blocks}"
        );
    }

    #[test]
    fn shared_coefficients_read_once() {
        let (_, mut cs, stats) = setup(16, 4);
        // All queries share the root path; coefficient reads must reflect
        // dedup across queries.
        let positions: Vec<Vec<usize>> = (0..16).map(|i| vec![i, i]).collect();
        cs.clear_cache();
        stats.reset();
        let _ = batch_points(&mut cs, &[4, 4], &positions);
        let reads = stats.snapshot().coeff_reads;
        // Naive: 16 queries x 25 contributions = 400 reads; shared paths
        // collapse well below that.
        assert!(reads < 300, "expected dedup, got {reads} reads");
    }

    #[test]
    fn empty_batch() {
        let (_, mut cs, _) = setup(16, 4);
        assert!(batch_points(&mut cs, &[4, 4], &[]).is_empty());
    }

    #[test]
    fn value_is_the_fold_of_tile_partials() {
        let (_, mut cs, _) = setup(64, 6);
        let plans = vec![
            reconstruct::standard_point_contributions(&[6, 6], &[13, 41]),
            reconstruct::standard_range_sum_contributions(&[6, 6], &[3, 5], &[40, 60]),
        ];
        for r in execute_plans_tiled(&mut cs, &plans) {
            let mut acc = 0.0f64;
            let mut last = None;
            for &(tile, partial) in &r.tiles {
                assert!(last.is_none_or(|t| t < tile), "tiles not ascending");
                last = Some(tile);
                acc += partial;
            }
            assert_eq!(acc.to_bits(), r.value.to_bits());
        }
    }

    /// The router invariant, stated without a router: splitting every
    /// plan's terms by a contiguous tile-range partition, executing each
    /// part independently, and re-folding the per-tile partials in
    /// ascending tile order reproduces the unsplit answer bit for bit.
    #[test]
    fn tiled_partials_merge_exactly_under_contiguous_splits() {
        let (_, mut cs, _) = setup(64, 6);
        let mut plans = Vec::new();
        for i in 0..12usize {
            plans.push(reconstruct::standard_point_contributions(
                &[6, 6],
                &[(i * 17) % 64, (i * 23) % 64],
            ));
            let lo = vec![(i * 5) % 30, (i * 7) % 30];
            plans.push(reconstruct::standard_range_sum_contributions(
                &[6, 6],
                &lo,
                &[lo[0] + 20, lo[1] + 33],
            ));
        }
        let whole = execute_plans_tiled(&mut cs, &plans);
        let num_tiles = cs.map().num_tiles();
        for shards in [1usize, 2, 4, 8] {
            let sm = ss_storage::ShardMap::even(num_tiles, shards, 1).unwrap();
            // Split each plan's terms by owning shard, preserving order.
            type SubPlan = Vec<(Vec<usize>, f64)>;
            let mut parts: Vec<Vec<SubPlan>> = vec![vec![Vec::new(); plans.len()]; shards];
            for (q, plan) in plans.iter().enumerate() {
                for (idx, w) in plan {
                    let tile = cs.map().locate(idx).tile;
                    parts[sm.owner(tile)][q].push((idx.clone(), *w));
                }
            }
            // Execute each shard's sub-plans independently, then merge:
            // per-shard tile lists concatenate in shard order, which is
            // ascending tile order because ranges are contiguous.
            let mut merged = vec![0.0f64; plans.len()];
            for shard_plans in &parts {
                for (q, r) in execute_plans_tiled(&mut cs, shard_plans).iter().enumerate() {
                    for &(_, partial) in &r.tiles {
                        merged[q] += partial;
                    }
                }
            }
            for (q, (m, w)) in merged.iter().zip(&whole).enumerate() {
                assert_eq!(
                    m.to_bits(),
                    w.value.to_bits(),
                    "plan {q} diverges at {shards} shards"
                );
            }
        }
    }
}
