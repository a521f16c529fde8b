//! The Vitter-et-al.-style baseline transform (the comparator of
//! Figure 11 and Table 2).
//!
//! Vitter and Wang compute the standard multidimensional decomposition by
//! running complete 1-d transforms along one dimension at a time over
//! row-major disk-resident data, without the SHIFT-SPLIT reorganisation or
//! the subtree tiling. We reproduce that strategy faithfully as an
//! *external* algorithm: the dataset lives in a row-major
//! ([`NaiveMap`]) block store behind an LRU pool sized
//! to the memory budget, and each axis pass streams every 1-d line through
//! memory. Along the innermost axis lines are block-contiguous and the pass
//! costs ~2 scans; along outer axes the strided access pattern re-reads
//! blocks whenever the pool cannot hold a full slab — exactly the
//! memory-sensitive log-factor behaviour the paper's Table 2 attributes to
//! this baseline. (The original paper's cost expression is OCR-garbled in
//! our source; we therefore *measure* this implementation rather than
//! assert its closed form — see DESIGN.md, Corrections.)

use crate::source::ChunkSource;
use ss_array::MultiIndexIter;
use ss_core::{NaiveMap, TilingMap};
use ss_storage::{IoStats, MemBlockStore, SharedCoeffStore};

/// Runs the baseline external standard transform.
///
/// * `src` — chunked input (scanned once to materialise the working store);
/// * `mem_coeffs` — memory budget in coefficients (the paper's `M^d`);
/// * `block_capacity` — coefficients per disk block.
///
/// Returns the transformed store (row-major layout, canonical standard-form
/// coefficients) whose shared [`IoStats`] carry the measured cost.
pub fn vitter_transform_standard(
    src: &impl ChunkSource,
    mem_coeffs: usize,
    block_capacity: usize,
    stats: IoStats,
) -> SharedCoeffStore<NaiveMap, MemBlockStore> {
    let shape = src.domain_shape();
    let d = shape.ndim();
    let map = NaiveMap::new(shape.clone(), block_capacity);
    let store = MemBlockStore::new(block_capacity, map.num_tiles(), stats.clone());
    let pool_budget = (mem_coeffs / block_capacity).max(1);
    let cs = SharedCoeffStore::new(map, store, pool_budget, 1, stats.clone());

    // Phase 1: materialise the input in row-major block storage.
    let mut global = vec![0usize; d];
    for block in MultiIndexIter::new(&src.grid()) {
        let chunk = src.read_chunk(&block);
        stats.add_coeff_reads(chunk.len() as u64);
        stats.add_block_reads(chunk.len().div_ceil(block_capacity) as u64);
        for local in MultiIndexIter::new(chunk.shape().dims()) {
            for (t, (&b, &l)) in block.iter().zip(&local).enumerate() {
                global[t] = (b << src.chunk_levels()[t]) + l;
            }
            cs.write(&global, chunk.get(&local));
        }
    }
    cs.flush();

    // Phase 2: one full 1-d transform pass per axis, streaming each line
    // through memory.
    let dims = shape.dims().to_vec();
    for axis in 0..d {
        let len = dims[axis];
        if len == 1 {
            continue;
        }
        let mut outer_dims = dims.clone();
        outer_dims[axis] = 1;
        let mut line = vec![0.0f64; len];
        let mut idx = vec![0usize; d];
        for outer in MultiIndexIter::new(&outer_dims) {
            idx.copy_from_slice(&outer);
            for (i, v) in line.iter_mut().enumerate() {
                idx[axis] = i;
                *v = cs.read(&idx);
            }
            ss_core::haar1d::forward(&mut line);
            for (i, &v) in line.iter().enumerate() {
                idx[axis] = i;
                cs.write(&idx, v);
            }
        }
        cs.flush();
    }
    cs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ArraySource;
    use ss_array::{NdArray, Shape};

    fn sample(dims: &[usize]) -> NdArray<f64> {
        NdArray::from_fn(Shape::new(dims), |idx| {
            ((idx.iter().sum::<usize>() * 7) % 11) as f64 - 3.0
        })
    }

    #[test]
    fn produces_canonical_standard_transform() {
        let a = sample(&[8, 16]);
        let src = ArraySource::new(&a, &[1, 2]);
        let cs = vitter_transform_standard(&src, 64, 8, IoStats::new());
        let want = ss_core::standard::forward_to(&a);
        for idx in MultiIndexIter::new(&[8, 16]) {
            assert!((cs.read(&idx) - want.get(&idx)).abs() < 1e-9, "{idx:?}");
        }
    }

    #[test]
    fn more_memory_means_less_io() {
        let a = sample(&[32, 32]);
        let src = ArraySource::new(&a, &[2, 2]);
        let small_stats = IoStats::new();
        let _ = vitter_transform_standard(&src, 64, 16, small_stats.clone());
        let big_stats = IoStats::new();
        let _ = vitter_transform_standard(&src, 1024, 16, big_stats.clone());
        assert!(
            big_stats.snapshot().blocks() < small_stats.snapshot().blocks(),
            "big-mem {} vs small-mem {}",
            big_stats.snapshot().blocks(),
            small_stats.snapshot().blocks()
        );
    }

    #[test]
    fn three_dimensional_correctness() {
        let a = sample(&[4, 4, 8]);
        let src = ArraySource::new(&a, &[1, 1, 2]);
        let cs = vitter_transform_standard(&src, 128, 8, IoStats::new());
        let want = ss_core::standard::forward_to(&a);
        for idx in MultiIndexIter::new(&[4, 4, 8]) {
            assert!((cs.read(&idx) - want.get(&idx)).abs() < 1e-9, "{idx:?}");
        }
    }
}
