//! Range-sum queries (Lemma 2) over coefficient stores.

use ss_core::reconstruct;
use ss_core::TilingMap;
use ss_storage::CoeffRead;

/// Range-sum `Σ a[idx]` over the inclusive box `[lo, hi]` against a
/// **standard-form** store: evaluates at most `Π(2·n_t + 1)` coefficients
/// (Lemma 2 per axis, multiplied across axes).
pub fn range_sum_standard<C: CoeffRead>(cs: &mut C, n: &[u32], lo: &[usize], hi: &[usize]) -> f64 {
    let _span = ss_obs::global().span("query.range_sum_std");
    reconstruct::standard_range_sum_contributions(n, lo, hi)
        .iter()
        .map(|(idx, w)| w * cs.read(idx))
        .sum()
}

/// Range-sum over a **non-standard-form** store, computed by summing the
/// per-cell quad-tree contributions of the box's dyadic decomposition.
///
/// Each cubic dyadic piece contributes `cells × block-average`; the block
/// average costs `(2^d − 1)(n − m) + 1` coefficient reads (inverse SPLIT),
/// so the whole query costs `O(pieces · 2^d · log N)`.
pub fn range_sum_nonstandard<C: CoeffRead>(cs: &mut C, n: u32, lo: &[usize], hi: &[usize]) -> f64 {
    let _span = ss_obs::global().span("query.range_sum_ns");
    let mut total = 0.0;
    for piece in ss_array::decompose_range(lo, hi) {
        // Non-standard inverse SPLIT needs cubic pieces; split rectangular
        // pieces into cubes of the smallest participating level.
        let min_level = piece.axes.iter().map(|a| a.level).min().unwrap();
        let sub_counts: Vec<usize> = piece
            .axes
            .iter()
            .map(|a| 1usize << (a.level - min_level))
            .collect();
        for sub in ss_array::MultiIndexIter::new(&sub_counts) {
            let block: Vec<usize> = piece
                .axes
                .iter()
                .zip(&sub)
                .map(|(a, &s)| (a.translation << (a.level - min_level)) + s)
                .collect();
            let cells = (1usize << min_level).pow(block.len() as u32) as f64;
            let avg: f64 =
                reconstruct::nonstandard_block_average_contributions(n, min_level, &block)
                    .iter()
                    .map(|(idx, w)| w * cs.read(idx))
                    .sum();
            total += cells * avg;
        }
    }
    total
}

/// Scaling-slot fast path for standard-form range sums.
///
/// Decomposes the box into dyadic ranges; each range's sum is
/// `cells × average`, and with materialised scaling slots
/// ([`crate::scalings::materialize_standard_scalings`]) every per-axis
/// block average is available *inside one tile*: the in-tile root scaling
/// plus the in-tile path details down to the block level. Each dyadic
/// piece therefore reads exactly **one block** (adjacent pieces often share
/// it), versus the `≈ Π ceil(n_t/b_t)` path tiles of the Lemma 2 plan.
pub fn range_sum_standard_fast<C: CoeffRead<Map = ss_core::tiling::StandardTiling>>(
    cs: &mut C,
    lo: &[usize],
    hi: &[usize],
) -> f64 {
    let _span = ss_obs::global().span("query.range_sum_std_fast");
    let d = cs.map().ndim();
    assert_eq!(lo.len(), d);
    assert_eq!(hi.len(), d);
    let axes = cs.map().axes().to_vec();
    let tile_grid = ss_array::Shape::new(&axes.iter().map(|a| a.num_tiles()).collect::<Vec<_>>());
    let slot_grid = ss_array::Shape::new(&axes.iter().map(|a| a.block_side()).collect::<Vec<_>>());
    let mut total = 0.0;
    for piece in ss_array::decompose_range(lo, hi) {
        // Per-axis: the (tile, [(slot, weight)]) one-tile average plan.
        let mut tile_tuple = vec![0usize; d];
        let per_axis: Vec<Vec<(usize, f64)>> = (0..d)
            .map(|t| {
                let axis = &axes[t];
                let n = axis.levels();
                let m = piece.axes[t].level;
                let k = piece.axes[t].translation;
                if m == n {
                    // Full axis: the true average at per-axis index 0.
                    let loc = axis.locate(0);
                    tile_tuple[t] = loc.tile;
                    return vec![(loc.slot, 1.0)];
                }
                // Tile holding the level-(m+1) detail covering the block.
                let probe = ss_core::Layout1d::new(n).index_of(ss_core::Coeff1d::Detail {
                    level: m + 1,
                    k: k >> 1,
                });
                let loc = axis.locate(probe);
                tile_tuple[t] = loc.tile;
                let (j_top, _) = axis.tile_root(loc.tile);
                let mut list = vec![(0usize, 1.0)]; // in-tile scaling slot
                for j in (m + 1)..=j_top {
                    let shift = j - m;
                    let kk = k >> shift;
                    let local_depth = j_top - j;
                    let slot =
                        (1usize << local_depth) + (kk - ((kk >> local_depth) << local_depth));
                    let sign = if (k >> (shift - 1)) & 1 == 1 {
                        -1.0
                    } else {
                        1.0
                    };
                    list.push((slot, sign));
                }
                list
            })
            .collect();
        let tile = tile_grid.offset(&tile_tuple);
        let counts: Vec<usize> = per_axis.iter().map(|v| v.len()).collect();
        let mut avg = 0.0;
        let mut slot_idx = vec![0usize; d];
        for choice in ss_array::MultiIndexIter::new(&counts) {
            let mut w = 1.0;
            for (t, &c) in choice.iter().enumerate() {
                let (slot, f) = per_axis[t][c];
                slot_idx[t] = slot;
                w *= f;
            }
            avg += w * cs.read_at(tile, slot_grid.offset(&slot_idx));
        }
        total += avg * piece.len() as f64;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_array::{MultiIndexIter, NdArray, Shape};
    use ss_core::tiling::{NonStandardTiling, StandardTiling};
    use ss_storage::{mem_shared_store, IoStats};

    #[test]
    fn standard_range_sum_matches_naive() {
        let a = NdArray::from_fn(Shape::new(&[16, 8]), |idx| {
            ((idx[0] * 3 + idx[1] * 5) % 11) as f64 - 4.0
        });
        let t = ss_core::standard::forward_to(&a);
        let mut cs = mem_shared_store(
            StandardTiling::new(&[4, 3], &[2, 1]),
            1024,
            1,
            IoStats::new(),
        );
        for idx in MultiIndexIter::new(&[16, 8]) {
            cs.write(&idx, t.get(&idx));
        }
        for (lo, hi) in [
            ([0usize, 0usize], [15usize, 7usize]),
            ([3, 2], [12, 6]),
            ([5, 5], [5, 5]),
            ([0, 7], [15, 7]),
        ] {
            let want = a.region_sum(&lo, &hi);
            let got = range_sum_standard(&mut cs, &[4, 3], &lo, &hi);
            assert!(
                (got - want).abs() < 1e-9,
                "[{lo:?},{hi:?}]: {got} vs {want}"
            );
        }
    }

    #[test]
    fn nonstandard_range_sum_matches_naive() {
        let a = NdArray::from_fn(Shape::cube(2, 16), |idx| {
            ((idx[0] * 7 + idx[1]) % 9) as f64 + 0.25
        });
        let t = ss_core::nonstandard::forward_to(&a);
        let mut cs = mem_shared_store(NonStandardTiling::new(2, 4, 2), 1024, 1, IoStats::new());
        for idx in MultiIndexIter::new(&[16, 16]) {
            cs.write(&idx, t.get(&idx));
        }
        for (lo, hi) in [
            ([0usize, 0usize], [15usize, 15usize]),
            ([1, 2], [13, 9]),
            ([8, 8], [11, 11]),
            ([0, 0], [0, 0]),
        ] {
            let want = a.region_sum(&lo, &hi);
            let got = range_sum_nonstandard(&mut cs, 4, &lo, &hi);
            assert!(
                (got - want).abs() < 1e-9,
                "[{lo:?},{hi:?}]: {got} vs {want}"
            );
        }
    }

    #[test]
    fn fast_range_sum_matches_naive_and_reads_one_tile_per_piece() {
        let a = NdArray::from_fn(Shape::cube(2, 64), |idx| {
            ((idx[0] * 5 + idx[1] * 3) % 13) as f64 - 4.0
        });
        let t = ss_core::standard::forward_to(&a);
        let stats = IoStats::new();
        let mut cs = mem_shared_store(
            StandardTiling::new(&[6, 6], &[2, 2]),
            4096,
            1,
            stats.clone(),
        );
        for idx in MultiIndexIter::new(&[64, 64]) {
            cs.write(&idx, t.get(&idx));
        }
        crate::scalings::materialize_standard_scalings(&cs, &[6, 6]);
        for (lo, hi) in [
            ([0usize, 0usize], [63usize, 63usize]),
            ([3, 5], [42, 60]),
            ([16, 32], [31, 47]),
            ([7, 7], [7, 7]),
        ] {
            let want = a.region_sum(&lo, &hi);
            let got = range_sum_standard_fast(&mut cs, &lo, &hi);
            assert!(
                (got - want).abs() < 1e-6,
                "[{lo:?},{hi:?}]: {got} vs {want}"
            );
        }
        // An aligned dyadic box is one piece: exactly one block read cold.
        cs.clear_cache();
        stats.reset();
        let got = range_sum_standard_fast(&mut cs, &[16, 32], &[31, 47]);
        assert!((got - a.region_sum(&[16, 32], &[31, 47])).abs() < 1e-6);
        assert_eq!(stats.snapshot().block_reads, 1);
    }

    #[test]
    fn range_sum_block_io_is_logarithmic_with_tiling() {
        // A full-domain sum touches only the top tiles.
        let a = NdArray::from_fn(Shape::new(&[64]), |idx| idx[0] as f64);
        let t = ss_core::standard::forward_to(&a);
        let stats = IoStats::new();
        let mut cs = mem_shared_store(StandardTiling::new(&[6], &[2]), 1024, 1, stats.clone());
        for i in 0..64usize {
            cs.write(&[i], t.get(&[i]));
        }
        cs.clear_cache();
        stats.reset();
        let got = range_sum_standard(&mut cs, &[6], &[0], &[63]);
        assert!((got - a.total()).abs() < 1e-9);
        assert_eq!(stats.snapshot().block_reads, 1, "full sum = average only");
    }
}
