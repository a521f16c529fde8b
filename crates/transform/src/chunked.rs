//! Out-of-core transformation by chunks with SHIFT-SPLIT
//! (Section 5.1, Results 1 and 2).
//!
//! Each chunk is small enough to transform in memory; its detail
//! coefficients SHIFT to final positions and its average SPLITs into
//! updates of coarser coefficients. Every driver runs through one of the
//! two chunk-loop bodies in [`par`](crate::par), which take a worker
//! count: [`transform_standard_parallel`](crate::transform_standard_parallel)
//! (Result 1) and
//! [`transform_nonstandard_parallel`](crate::transform_nonstandard_parallel)
//! (Result 2: the z-order schedule with the *crest cache* — split
//! contributions accumulate in a small in-memory map and are written
//! exactly once, when the z-order walk completes the quad-tree node they
//! belong to, bounding both extra memory (`(2^d − 1)·log(N/M) + 1`
//! entries) and I/O (`O(N^d/B^d)` blocks total)). With one worker and a
//! one-shard store they run the serial algorithm whose block counts the
//! experiments report.
//!
//! The single-threaded variants the ablation measures keep their own
//! names here and run through the same bodies: [`transform_standard`]
//! (optionally with a cold cache per chunk), [`transform_standard_sparse`]
//! (all-zero chunks skipped) and [`transform_nonstandard`] (row-major
//! schedule, no crest cache). [`transform_nonstandard_zorder_scalings`]
//! additionally fills the tiles' redundant scaling slots during the pass.

use crate::par::{drive_nonstandard, drive_standard, node_details, Variant};
use crate::source::ChunkSource;
use ss_array::{MortonIter, MultiIndexIter};
use ss_core::TilingMap;
use ss_obs::{Histogram, Stopwatch};
use ss_storage::{BlockStore, IoStats, SharedCoeffStore};
use std::collections::HashMap;

/// Global-registry histograms attributing per-chunk ingest time to its
/// three phases: reading the chunk from the source, the in-memory
/// transform plus SHIFT-SPLIT delta generation, and folding the deltas
/// into tiled storage. One sample per chunk per phase.
pub(crate) struct PhaseHists {
    pub read: Histogram,
    pub compute: Histogram,
    pub writeback: Histogram,
}

impl PhaseHists {
    pub(crate) fn resolve() -> Self {
        let g = ss_obs::global();
        PhaseHists {
            read: g.histogram("transform.read_ns"),
            compute: g.histogram("transform.compute_ns"),
            writeback: g.histogram("transform.writeback_ns"),
        }
    }
}

/// Statistics of one out-of-core transform run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransformReport {
    /// Chunks processed.
    pub chunks: usize,
    /// Input cells scanned (each charged as a coefficient read).
    pub input_coeffs: u64,
    /// Peak size of the crest cache (z-order non-standard driver only).
    pub peak_crest_cache: usize,
}

/// Charges the input scan of one chunk to `stats`: every cell is a
/// coefficient read, and the chunk arrives in block-sized units.
pub(crate) fn charge_input(stats: &IoStats, cells: usize, block_capacity: usize) {
    stats.add_coeff_reads(cells as u64);
    stats.add_block_reads(cells.div_ceil(block_capacity) as u64);
}

impl TransformReport {
    /// Combines per-worker reports: chunk and input counts add, the crest
    /// peak is the maximum over workers.
    pub(crate) fn combine(reports: Vec<TransformReport>) -> TransformReport {
        reports
            .into_iter()
            .fold(TransformReport::default(), |acc, r| TransformReport {
                chunks: acc.chunks + r.chunks,
                input_coeffs: acc.input_coeffs + r.input_coeffs,
                peak_crest_cache: acc.peak_crest_cache.max(r.peak_crest_cache),
            })
    }
}

/// **Result 1** — standard-form out-of-core transform on one thread:
/// [`transform_standard_parallel`](crate::transform_standard_parallel)
/// with one worker.
///
/// Iterates the chunk grid in row-major order; per chunk: in-memory
/// standard transform, then the full SHIFT-SPLIT delta stream folded into
/// `cs`. With tiled storage this costs
/// `O(N^d/B · (1 + log_B(N/M)/M)^d)` blocks.
///
/// `cold_cache_per_chunk` clears the store's buffer pool between chunks so
/// the measured I/O matches the paper's per-chunk analysis exactly (no
/// cross-chunk tile reuse).
pub fn transform_standard<M: TilingMap, S: BlockStore + Send + Sync>(
    src: &(impl ChunkSource + Sync),
    cs: &SharedCoeffStore<M, S>,
    cold_cache_per_chunk: bool,
) -> TransformReport {
    let variant = Variant {
        cold_cache_per_chunk,
        ..Variant::default()
    };
    drive_standard(src, cs, 1, variant)
}

/// Sparse variant of [`transform_standard`] (Section 5.1 discusses data
/// with `z` non-zero values): all-zero chunks are skipped entirely — in a
/// chunk-organised sparse store they are simply absent, so neither their
/// input scan nor any output work is charged. I/O becomes proportional to
/// the number of *occupied* chunks rather than the domain volume.
pub fn transform_standard_sparse<M: TilingMap, S: BlockStore + Send + Sync>(
    src: &(impl ChunkSource + Sync),
    cs: &SharedCoeffStore<M, S>,
) -> TransformReport {
    let variant = Variant {
        skip_zero_chunks: true,
        ..Variant::default()
    };
    drive_standard(src, cs, 1, variant)
}

/// Non-standard out-of-core transform with a **row-major** chunk schedule
/// on one thread: every split contribution is folded into storage
/// immediately (no crest cache), costing
/// `O(N^d/B^d + chunks · (2^d − 1) · log_B(N/M))` blocks. The ablation
/// baseline for the z-order schedule of
/// [`transform_nonstandard_parallel`](crate::transform_nonstandard_parallel).
pub fn transform_nonstandard<M: TilingMap, S: BlockStore + Send + Sync>(
    src: &(impl ChunkSource + Sync),
    cs: &SharedCoeffStore<M, S>,
    cold_cache_per_chunk: bool,
) -> TransformReport {
    let variant = Variant {
        cold_cache_per_chunk,
        row_major: true,
        ..Variant::default()
    };
    drive_nonstandard(src, cs, 1, variant)
}

/// Like [`transform_nonstandard_parallel`](crate::transform_nonstandard_parallel)
/// on one worker, but additionally fills every tile's redundant scaling
/// slot **during the pass**, leaving the store immediately ready for the
/// single-block fast-path queries of `ss-query` — no
/// `materialize_nonstandard_scalings` post-pass (and none of its
/// `O(tiles · 2^d · log N)` coefficient reads).
///
/// In-chunk tile roots get their scaling from the chunk's own averaging
/// pyramid; roots above the chunk level are computed by the same
/// base-`2^d` carry accumulator that drives the crest flush.
pub fn transform_nonstandard_zorder_scalings<S: BlockStore>(
    src: &impl ChunkSource,
    cs: &SharedCoeffStore<ss_core::tiling::NonStandardTiling, S>,
) -> TransformReport {
    let (n, m) = cubic_levels(src);
    let d = src.domain_levels().len();
    let grid_bits = n - m;
    let mut report = TransformReport::default();
    let stats = cs.stats().clone();
    let block_capacity = cs.map().block_capacity();
    let mut crest: HashMap<Vec<usize>, f64> = HashMap::new();
    let mut batch: Vec<(usize, usize, f64)> = Vec::new();
    // acc[s-1] accumulates the child averages of the open node at level
    // m+s on the current z-order path.
    let phases = PhaseHists::resolve();
    let mut acc = vec![0.0f64; grid_bits as usize];
    for (rank, block) in MortonIter::new(d, grid_bits).enumerate() {
        let mut sw = Stopwatch::start();
        let chunk = src.read_chunk(&block);
        charge_input(&stats, chunk.len(), block_capacity);
        phases.read.record(sw.lap_ns());
        // In-chunk averaging pyramid: level 0 = raw cells, level j = means
        // of 2^{dj} cells. Fills scaling slots of tiles rooted inside the
        // chunk's subtree.
        let mut level_avgs = chunk.clone();
        for j in 1..=m {
            let side = 1usize << (m - j);
            let prev = level_avgs;
            level_avgs = NdArrayMean::halve(&prev, d);
            for node_local in MultiIndexIter::new(&vec![side; d]) {
                let node: Vec<usize> = node_local
                    .iter()
                    .zip(&block)
                    .map(|(&q, &bq)| (bq << (m - j)) + q)
                    .collect();
                if let Some(tile) = cs.map().tile_of_root(j, &node) {
                    let v = level_avgs.get(&node_local);
                    batch.push((tile, 0, v));
                }
            }
        }
        let chunk_avg = level_avgs.get(&vec![0usize; d]);
        let mut t = chunk;
        ss_core::nonstandard::forward(&mut t);
        {
            let map = cs.map();
            ss_core::split::nonstandard_deltas(&t, n, &block, |idx, delta| {
                if is_split_target(n, m, idx) {
                    *crest.entry(idx.to_vec()).or_insert(0.0) += delta;
                } else {
                    let loc = map.locate(idx);
                    batch.push((loc.tile, loc.slot, delta));
                }
            });
        }
        // Base-2^d carry: completed ancestor nodes get their average (and
        // scaling slot, when they root a tile) as the walk leaves them.
        let mut carry = chunk_avg;
        for s in 1..=grid_bits {
            acc[(s - 1) as usize] += carry;
            if (rank + 1) % (1usize << (d as u32 * s)) != 0 {
                break;
            }
            let node_avg = acc[(s - 1) as usize] / (1usize << d) as f64;
            acc[(s - 1) as usize] = 0.0;
            let node: Vec<usize> = block.iter().map(|&bq| bq >> s).collect();
            if m + s < n {
                if let Some(tile) = cs.map().tile_of_root(m + s, &node) {
                    batch.push((tile, 0, node_avg));
                }
            }
            // Flush the node's completed detail coefficients from the crest.
            for idx in node_details(n, m + s, &node) {
                if let Some(v) = crest.remove(&idx) {
                    let loc = cs.map().locate(&idx);
                    batch.push((loc.tile, loc.slot, v));
                }
            }
            carry = node_avg;
        }
        phases.compute.record(sw.lap_ns());
        cs.apply_batch(&mut batch);
        phases.writeback.record(sw.lap_ns());
        report.peak_crest_cache = report.peak_crest_cache.max(crest.len());
        report.chunks += 1;
        report.input_coeffs += t.len() as u64;
    }
    let mut leftovers: Vec<(Vec<usize>, f64)> = crest.drain().collect();
    leftovers.sort_by(|a, b| a.0.cmp(&b.0));
    for (idx, v) in leftovers {
        cs.add(&idx, v);
    }
    cs.flush();
    report
}

/// Pairwise mean-pooling helper for the in-chunk averaging pyramid.
struct NdArrayMean;

impl NdArrayMean {
    fn halve(a: &ss_array::NdArray<f64>, d: usize) -> ss_array::NdArray<f64> {
        let side = a.shape().dim(0) / 2;
        let out_shape = ss_array::Shape::cube(d, side.max(1));
        ss_array::NdArray::from_fn(out_shape, |idx| {
            let mut sum = 0.0;
            let mut child = vec![0usize; d];
            for corner in 0..(1usize << d) {
                for t in 0..d {
                    child[t] = 2 * idx[t] + ((corner >> (d - 1 - t)) & 1);
                }
                sum += a.get(&child);
            }
            sum / (1usize << d) as f64
        })
    }
}

/// `true` when `idx` addresses a coefficient produced by SPLIT (level above
/// the chunk level `m`, or the overall average) rather than by SHIFT.
pub(crate) fn is_split_target(n: u32, m: u32, idx: &[usize]) -> bool {
    match ss_core::nonstandard::coeff_at(n, idx) {
        ss_core::nonstandard::NsCoeff::Scaling => true,
        ss_core::nonstandard::NsCoeff::Detail { level, .. } => level > m,
    }
}

/// Validates that the source is a hypercube with cubic chunks; returns
/// `(n, m)`.
pub(crate) fn cubic_levels(src: &impl ChunkSource) -> (u32, u32) {
    let n = src.domain_levels();
    let m = src.chunk_levels();
    assert!(
        n.windows(2).all(|w| w[0] == w[1]) && m.windows(2).all(|w| w[0] == w[1]),
        "non-standard form requires cubic domain and chunks"
    );
    (n[0], m[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::transform_nonstandard_parallel;
    use crate::source::ArraySource;
    use ss_array::{NdArray, Shape};
    use ss_core::tiling::{NonStandardTiling, StandardTiling};
    use ss_storage::mem_shared_store;

    fn sample(dims: &[usize]) -> NdArray<f64> {
        NdArray::from_fn(Shape::new(dims), |idx| {
            idx.iter()
                .enumerate()
                .map(|(t, &i)| ((i * (2 * t + 3)) % 13) as f64)
                .sum::<f64>()
                - 4.5
        })
    }

    fn read_all<M: TilingMap, S: BlockStore>(
        cs: &mut SharedCoeffStore<M, S>,
        dims: &[usize],
    ) -> NdArray<f64> {
        NdArray::from_fn(Shape::new(dims), |idx| cs.read(idx))
    }

    #[test]
    fn standard_chunked_matches_direct() {
        let a = sample(&[16, 16]);
        let src = ArraySource::new(&a, &[2, 2]);
        let mut cs = mem_shared_store(StandardTiling::cube(2, 4, 2), 256, 1, IoStats::new());
        let report = transform_standard(&src, &cs, false);
        assert_eq!(report.chunks, 16);
        let got = read_all(&mut cs, &[16, 16]);
        let want = ss_core::standard::forward_to(&a);
        assert!(got.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn standard_chunked_rectangular() {
        let a = sample(&[8, 32]);
        let src = ArraySource::new(&a, &[2, 3]);
        let mut cs = mem_shared_store(
            StandardTiling::new(&[3, 5], &[1, 2]),
            256,
            1,
            IoStats::new(),
        );
        transform_standard(&src, &cs, true);
        let got = read_all(&mut cs, &[8, 32]);
        let want = ss_core::standard::forward_to(&a);
        assert!(got.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn nonstandard_chunked_matches_direct() {
        let a = sample(&[16, 16]);
        let src = ArraySource::new(&a, &[2, 2]);
        let mut cs = mem_shared_store(NonStandardTiling::new(2, 4, 2), 256, 1, IoStats::new());
        transform_nonstandard(&src, &cs, false);
        let got = read_all(&mut cs, &[16, 16]);
        let want = ss_core::nonstandard::forward_to(&a);
        assert!(got.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn zorder_matches_direct_and_bounds_crest() {
        let a = sample(&[16, 16]);
        let src = ArraySource::new(&a, &[1, 1]);
        let mut cs = mem_shared_store(NonStandardTiling::new(2, 4, 2), 256, 1, IoStats::new());
        let report = transform_nonstandard_parallel(&src, &cs, 1);
        let got = read_all(&mut cs, &[16, 16]);
        let want = ss_core::nonstandard::forward_to(&a);
        assert!(got.max_abs_diff(&want) < 1e-9);
        // Crest bound: (2^d − 1) · (n − m) + 1 = 3·3 + 1.
        assert!(
            report.peak_crest_cache <= 3 * 3 + 1,
            "peak {}",
            report.peak_crest_cache
        );
    }

    #[test]
    fn zorder_3d_matches_direct() {
        let a = sample(&[8, 8, 8]);
        let src = ArraySource::new(&a, &[1, 1, 1]);
        let mut cs = mem_shared_store(NonStandardTiling::new(3, 3, 1), 512, 1, IoStats::new());
        let report = transform_nonstandard_parallel(&src, &cs, 1);
        let got = read_all(&mut cs, &[8, 8, 8]);
        let want = ss_core::nonstandard::forward_to(&a);
        assert!(got.max_abs_diff(&want) < 1e-9);
        assert!(report.peak_crest_cache <= 7 * 2 + 1);
    }

    #[test]
    fn zorder_writes_each_split_target_once() {
        // Compare coefficient writes between row-major (per-chunk split
        // folds) and z-order (write-once crest): z-order must write fewer.
        let a = sample(&[16, 16]);
        let src = ArraySource::new(&a, &[1, 1]);

        let stats_rm = IoStats::new();
        let cs = mem_shared_store(NonStandardTiling::new(2, 4, 2), 256, 1, stats_rm.clone());
        transform_nonstandard(&src, &cs, false);

        let stats_z = IoStats::new();
        let cs2 = mem_shared_store(NonStandardTiling::new(2, 4, 2), 256, 1, stats_z.clone());
        transform_nonstandard_parallel(&src, &cs2, 1);

        assert!(
            stats_z.snapshot().coeff_writes < stats_rm.snapshot().coeff_writes,
            "z-order {} vs row-major {}",
            stats_z.snapshot().coeff_writes,
            stats_rm.snapshot().coeff_writes
        );
    }

    #[test]
    fn input_scan_is_charged() {
        let a = sample(&[8, 8]);
        let src = ArraySource::new(&a, &[1, 1]);
        let stats = IoStats::new();
        let cs = mem_shared_store(StandardTiling::cube(2, 3, 1), 64, 1, stats.clone());
        let report = transform_standard(&src, &cs, false);
        assert_eq!(report.input_coeffs, 64);
        assert!(stats.snapshot().coeff_reads >= 64);
    }

    #[test]
    fn zorder_with_scalings_matches_direct_and_fills_slots() {
        let a = sample(&[16, 16]);
        for chunk_levels in [1u32, 2] {
            let src = ArraySource::new(&a, &[chunk_levels; 2]);
            let cs = mem_shared_store(NonStandardTiling::new(2, 4, 2), 256, 1, IoStats::new());
            transform_nonstandard_zorder_scalings(&src, &cs);
            // Coefficients match the direct transform.
            let want = ss_core::nonstandard::forward_to(&a);
            for idx in ss_array::MultiIndexIter::new(&[16, 16]) {
                assert!(
                    (cs.read(&idx) - want.get(&idx)).abs() < 1e-9,
                    "m={chunk_levels} {idx:?}"
                );
            }
            // Every tile's scaling slot holds its root-node average.
            for tile in 0..cs.map().num_tiles() {
                let (j, node) = cs.map().tile_root(tile);
                if j == 4 {
                    continue; // top tile: slot 0 is the true overall average
                }
                let side = 1usize << j;
                let lo = [node[0] * side, node[1] * side];
                let hi = [lo[0] + side - 1, lo[1] + side - 1];
                let want_avg = a.region_sum(&lo, &hi) / (side * side) as f64;
                let got = cs.read_at(tile, 0);
                assert!(
                    (got - want_avg).abs() < 1e-9,
                    "m={chunk_levels} tile {tile} root ({j},{node:?}): {got} vs {want_avg}"
                );
            }
        }
    }

    #[test]
    fn sparse_transform_matches_dense_and_costs_less() {
        // A 32x32 domain with a single occupied 4x4 corner.
        let mut a = NdArray::<f64>::zeros(Shape::cube(2, 32));
        for idx in ss_array::MultiIndexIter::new(&[4, 4]) {
            a.set(
                &[idx[0] + 8, idx[1] + 16],
                (idx[0] * 4 + idx[1]) as f64 + 1.0,
            );
        }
        let src = ArraySource::new(&a, &[2, 2]);
        let stats_d = IoStats::new();
        let dense = mem_shared_store(StandardTiling::cube(2, 5, 2), 256, 1, stats_d.clone());
        transform_standard(&src, &dense, false);
        let d = stats_d.snapshot();
        let stats_s = IoStats::new();
        let sparse = mem_shared_store(StandardTiling::cube(2, 5, 2), 256, 1, stats_s.clone());
        let report = transform_standard_sparse(&src, &sparse);
        let s = stats_s.snapshot();
        assert_eq!(report.chunks, 1, "only the occupied chunk processed");
        for idx in ss_array::MultiIndexIter::new(&[32, 32]) {
            assert!((dense.read(&idx) - sparse.read(&idx)).abs() < 1e-12);
        }
        // The dense driver already skips zero coefficients on the write
        // side; the sparse win is the skipped input scan (z vs N^d reads).
        assert_eq!(s.coeff_reads, 16, "read exactly one chunk");
        assert!(
            s.coeff_reads * 10 < d.coeff_reads && s.block_reads * 4 < d.block_reads,
            "sparse {s} vs dense {d}"
        );
    }

    #[test]
    fn whole_domain_single_chunk_degenerates_to_direct() {
        let a = sample(&[8, 8]);
        let src = ArraySource::new(&a, &[3, 3]);
        let mut cs = mem_shared_store(StandardTiling::cube(2, 3, 1), 64, 1, IoStats::new());
        transform_standard(&src, &cs, false);
        let got = read_all(&mut cs, &[8, 8]);
        let want = ss_core::standard::forward_to(&a);
        assert!(got.max_abs_diff(&want) < 1e-9);
    }
}
