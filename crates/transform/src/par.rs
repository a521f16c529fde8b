//! The two chunk-loop bodies every out-of-core transform runs through.
//!
//! The SHIFT-SPLIT decomposition is embarrassingly parallel on the CPU
//! side: chunks transform independently and their delta streams commute
//! (addition). Both drivers here shard the chunk schedule across worker
//! threads that fold deltas *concurrently* into one
//! [`SharedCoeffStore`] rather than accumulating per-worker maps for a
//! single-threaded merge. Each chunk's deltas are grouped by tile and
//! applied under one shard lock per tile, so each tile is loaded at most
//! once per chunk — the per-chunk access discipline of the paper's
//! analyses — at any worker count.
//!
//! [`transform_standard_parallel`] shards the row-major chunk grid by
//! ordinal ranges. [`transform_nonstandard_parallel`] shards the
//! *z-order* schedule of Result 2 by contiguous rank ranges; every worker
//! keeps its own crest cache and flushes a quad-tree node the moment its
//! subtree completes inside the worker's range, so each worker's cache
//! still obeys the `(2^d − 1)·log(N/M) + 1` bound. A node whose subtree
//! straddles a range boundary is written as partial sums by the workers
//! that saw it — the folds commute, so the store converges to the
//! one-worker result.
//!
//! I/O accounting note: one worker runs the schedule in order on the
//! calling thread, and over a one-shard store its block and coefficient
//! counts are exactly the paper's per-chunk costs — the configuration
//! every count-only experiment and `tests/io_complexity.rs` use. With
//! more workers, straddling z-order nodes cost one extra coefficient
//! write per extra worker, so the measured write I/O can exceed the
//! one-worker count by `O(workers · (2^d − 1) · log(N/M))`, and
//! interleaved workers share the pool's LRU order; those runs exist to
//! make wall-clock ingestion fast.

use crate::chunked::{charge_input, cubic_levels, is_split_target, PhaseHists, TransformReport};
use crate::source::ChunkSource;
use ss_array::{morton_decode, Shape};
use ss_core::TilingMap;
use ss_obs::Stopwatch;
use ss_storage::{BlockStore, SharedCoeffStore};
use std::collections::HashMap;

/// Resolves a worker-count argument: `0` means "use the machine's
/// available parallelism".
pub fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        workers
    }
}

/// Runs `job(w)` for every worker `w` in `0..workers` and returns the
/// results in worker order. One worker runs inline on the calling
/// thread; more run on scoped threads. A worker's panic is re-raised with
/// its payload intact: storage failures unwind carrying a typed
/// `StorageError` that `try_*` fronts recover.
pub fn run_workers<R: Send>(workers: usize, job: impl Fn(usize) -> R + Sync) -> Vec<R> {
    if workers <= 1 {
        return vec![job(0)];
    }
    let job = &job;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|w| scope.spawn(move || job(w))).collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    })
}

/// Per-chunk options of the single-threaded variants the ablation
/// measures (see [`chunked`](crate::chunked)); all off in the
/// `_parallel` drivers.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Variant {
    /// Flush and empty the pool after every chunk (no cross-chunk reuse).
    pub cold_cache_per_chunk: bool,
    /// Skip all-zero chunks, charging them nothing (standard form).
    pub skip_zero_chunks: bool,
    /// Row-major schedule without the crest cache (non-standard form).
    pub row_major: bool,
}

/// Indices of the `2^d − 1` detail coefficients of quad-tree `node` at
/// `level` (subbands in [`ss_core::nonstandard::index_of`] order) — what
/// the crest cache flushes when the node's subtree completes.
pub(crate) fn node_details(
    n: u32,
    level: u32,
    node: &[usize],
) -> impl Iterator<Item = Vec<usize>> + '_ {
    let (d, base) = (node.len(), 1usize << (n - level));
    (1usize..1 << d).map(move |eps| {
        (0..d)
            .map(|t| node[t] + base * ((eps >> (d - 1 - t)) & 1))
            .collect()
    })
}

/// Records the worker-count gauge and returns the per-worker busy-time
/// histogram.
fn worker_metrics(workers: usize) -> ss_obs::Histogram {
    ss_obs::global()
        .gauge("transform.workers")
        .set(workers as u64);
    ss_obs::global().histogram("transform.worker_busy_ns")
}

/// **Result 1** — standard-form out-of-core transform with `workers`
/// threads (`0` = available parallelism).
///
/// Iterates the chunk grid in row-major order, split into contiguous
/// ordinal ranges, one per worker; per chunk: in-memory standard
/// transform, then the full SHIFT-SPLIT delta stream folded into `cs`.
/// The result is the same for every worker count — deltas commute.
pub fn transform_standard_parallel<M: TilingMap, S: BlockStore + Send + Sync>(
    src: &(impl ChunkSource + Sync),
    cs: &SharedCoeffStore<M, S>,
    workers: usize,
) -> TransformReport {
    drive_standard(src, cs, workers, Variant::default())
}

/// The standard-form chunk loop behind [`transform_standard_parallel`]
/// and the single-threaded variants.
pub(crate) fn drive_standard<M: TilingMap, S: BlockStore + Send + Sync>(
    src: &(impl ChunkSource + Sync),
    cs: &SharedCoeffStore<M, S>,
    workers: usize,
    variant: Variant,
) -> TransformReport {
    let workers = resolve_workers(workers);
    let busy_ns = worker_metrics(workers);
    let n = src.domain_levels().to_vec();
    let grid = Shape::new(&src.grid());
    let total_chunks = grid.len();
    let block_capacity = cs.map().block_capacity();

    let per_worker = run_workers(workers, |w| {
        let worker_sw = Stopwatch::start();
        let phases = PhaseHists::resolve();
        let map = cs.map();
        let mut report = TransformReport::default();
        let mut batch: Vec<(usize, usize, f64)> = Vec::new();
        for ordinal in total_chunks * w / workers..total_chunks * (w + 1) / workers {
            let mut sw = Stopwatch::start();
            let block = grid.unoffset(ordinal);
            let mut chunk = src.read_chunk(&block);
            if variant.skip_zero_chunks && chunk.as_slice().iter().all(|&v| v == 0.0) {
                continue; // absent in a sparse chunk directory: zero I/O
            }
            charge_input(cs.stats(), chunk.len(), block_capacity);
            phases.read.record(sw.lap_ns());
            ss_core::standard::forward(&mut chunk);
            ss_core::split::standard_deltas(&chunk, &n, &block, |idx, delta| {
                let loc = map.locate(idx);
                batch.push((loc.tile, loc.slot, delta));
            });
            phases.compute.record(sw.lap_ns());
            cs.apply_batch(&mut batch);
            phases.writeback.record(sw.lap_ns());
            if variant.cold_cache_per_chunk {
                cs.clear_cache();
            }
            report.chunks += 1;
            report.input_coeffs += chunk.len() as u64;
        }
        // One sample per worker: divide by the driver's wall time for
        // per-worker utilization.
        busy_ns.record(worker_sw.elapsed_ns());
        report
    });
    cs.flush();
    TransformReport::combine(per_worker)
}

/// **Result 2** — non-standard out-of-core transform on the **z-order**
/// schedule with the crest cache, with `workers` threads (`0` = available
/// parallelism): optimal `O(N^d/B^d)` block I/O using
/// `(2^d − 1)·log(N/M) + 1` extra memory per worker.
///
/// Split contributions never touch the store while "hot": they accumulate
/// in the worker's in-memory cache keyed by coefficient index, and a
/// quad-tree node's `2^d − 1` detail coefficients are written once, the
/// moment the z-order walk completes the node's subtree. The rank space
/// is split into contiguous per-worker ranges. A subtree that began
/// *before* a worker's range still flushes at the same rank — the cache
/// then holds a partial sum, and the worker(s) that processed the rest of
/// the subtree contribute their own partials; the adds commute. Whatever
/// remains at the end of a range (subtrees extending past it, the
/// overall average) drains as sorted adds.
///
/// The returned [`TransformReport::peak_crest_cache`] is the *maximum
/// over workers*.
pub fn transform_nonstandard_parallel<M: TilingMap, S: BlockStore + Send + Sync>(
    src: &(impl ChunkSource + Sync),
    cs: &SharedCoeffStore<M, S>,
    workers: usize,
) -> TransformReport {
    drive_nonstandard(src, cs, workers, Variant::default())
}

/// The non-standard chunk loop behind [`transform_nonstandard_parallel`]
/// and the row-major variant.
pub(crate) fn drive_nonstandard<M: TilingMap, S: BlockStore + Send + Sync>(
    src: &(impl ChunkSource + Sync),
    cs: &SharedCoeffStore<M, S>,
    workers: usize,
    variant: Variant,
) -> TransformReport {
    let workers = resolve_workers(workers);
    let busy_ns = worker_metrics(workers);
    let (n, m) = cubic_levels(src);
    let d = src.domain_levels().len();
    let grid_bits = n - m;
    let code_bits = (grid_bits as usize)
        .checked_mul(d)
        .filter(|&b| b < usize::BITS as usize)
        .expect("chunk grid too large for z-order codes") as u32;
    let total_chunks = 1usize << code_bits;
    let grid = Shape::new(&src.grid());
    let zorder = !variant.row_major;
    let block_capacity = cs.map().block_capacity();

    let per_worker = run_workers(workers, |w| {
        let worker_sw = Stopwatch::start();
        let phases = PhaseHists::resolve();
        let map = cs.map();
        let mut report = TransformReport::default();
        let mut crest: HashMap<Vec<usize>, f64> = HashMap::new();
        let mut batch: Vec<(usize, usize, f64)> = Vec::new();
        let mut block = vec![0usize; d];
        for rank in total_chunks * w / workers..total_chunks * (w + 1) / workers {
            let mut sw = Stopwatch::start();
            if zorder {
                morton_decode(rank, grid_bits, &mut block);
            } else {
                grid.unoffset_into(rank, &mut block);
            }
            let mut chunk = src.read_chunk(&block);
            charge_input(cs.stats(), chunk.len(), block_capacity);
            phases.read.record(sw.lap_ns());
            ss_core::nonstandard::forward(&mut chunk);
            ss_core::split::nonstandard_deltas(&chunk, n, &block, |idx, delta| {
                // Shifted details land at levels ≤ m; on the z-order
                // schedule split contributions at levels > m (or the
                // overall average) go to the crest cache.
                if zorder && is_split_target(n, m, idx) {
                    *crest.entry(idx.to_vec()).or_insert(0.0) += delta;
                } else {
                    let loc = map.locate(idx);
                    batch.push((loc.tile, loc.slot, delta));
                }
            });
            phases.compute.record(sw.lap_ns());
            cs.apply_batch(&mut batch);
            report.peak_crest_cache = report.peak_crest_cache.max(crest.len());
            // Flush every quad-tree node whose subtree the walk just
            // left: after chunk `rank`, level m+s is complete when
            // (rank+1) is a multiple of 2^{d·s}. When the subtree started
            // before this worker's range the cached value is a partial
            // sum; writing it is still correct (folds commute) and keeps
            // the cache within its bound.
            for s in 1..=grid_bits {
                if !zorder || (rank + 1) % (1usize << (d as u32 * s)) != 0 {
                    break;
                }
                let node: Vec<usize> = block.iter().map(|&bq| bq >> s).collect();
                for idx in node_details(n, m + s, &node) {
                    if let Some(v) = crest.remove(&idx) {
                        cs.add(&idx, v);
                    }
                }
            }
            phases.writeback.record(sw.lap_ns());
            if variant.cold_cache_per_chunk {
                cs.clear_cache();
            }
            report.chunks += 1;
            report.input_coeffs += chunk.len() as u64;
        }
        // Subtrees extending past the range (and, for the last worker,
        // the overall average) drain as commuting adds.
        let mut leftovers: Vec<(Vec<usize>, f64)> = crest.drain().collect();
        leftovers.sort_by(|a, b| a.0.cmp(&b.0));
        for (idx, v) in leftovers {
            cs.add(&idx, v);
        }
        busy_ns.record(worker_sw.elapsed_ns());
        report
    });
    cs.flush();
    TransformReport::combine(per_worker)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ArraySource;
    use ss_array::{MultiIndexIter, NdArray};
    use ss_core::tiling::{NonStandardTiling, StandardTiling};
    use ss_storage::{mem_shared_store, IoStats};

    fn sample(side: usize) -> NdArray<f64> {
        NdArray::from_fn(Shape::cube(2, side), |idx| {
            ((idx[0] * 37 + idx[1] * 11) % 29) as f64 - 9.0
        })
    }

    #[test]
    fn parallel_matches_direct_transform() {
        let a = sample(64);
        let src = ArraySource::new(&a, &[3, 3]);
        for workers in [1usize, 2, 4, 7] {
            let cs = mem_shared_store(
                StandardTiling::new(&[6; 2], &[2; 2]),
                512,
                4,
                IoStats::new(),
            );
            let report = transform_standard_parallel(&src, &cs, workers);
            assert_eq!(report.chunks, 64);
            let want = ss_core::standard::forward_to(&a);
            for idx in MultiIndexIter::new(&[64, 64]) {
                assert!(
                    (cs.read(&idx) - want.get(&idx)).abs() < 1e-9,
                    "workers={workers} {idx:?}"
                );
            }
        }
    }

    #[test]
    fn parallel_matches_one_worker_run() {
        let a = sample(32);
        let src = ArraySource::new(&a, &[2, 2]);
        let one = mem_shared_store(
            StandardTiling::new(&[5; 2], &[2; 2]),
            512,
            1,
            IoStats::new(),
        );
        transform_standard_parallel(&src, &one, 1);
        let parallel = mem_shared_store(
            StandardTiling::new(&[5; 2], &[2; 2]),
            512,
            8,
            IoStats::new(),
        );
        transform_standard_parallel(&src, &parallel, 3);
        for idx in MultiIndexIter::new(&[32, 32]) {
            assert!((one.read(&idx) - parallel.read(&idx)).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_workers_means_auto() {
        let a = sample(16);
        let src = ArraySource::new(&a, &[2, 2]);
        let cs = mem_shared_store(
            StandardTiling::new(&[4; 2], &[2; 2]),
            256,
            4,
            IoStats::new(),
        );
        transform_standard_parallel(&src, &cs, 0);
        let want = ss_core::standard::forward_to(&a);
        for idx in MultiIndexIter::new(&[16, 16]) {
            assert!((cs.read(&idx) - want.get(&idx)).abs() < 1e-9);
        }
    }

    #[test]
    fn more_workers_than_chunks_is_fine() {
        let a = sample(8);
        let src = ArraySource::new(&a, &[2, 2]); // 4 chunks
        let cs = mem_shared_store(StandardTiling::new(&[3; 2], &[1; 2]), 64, 2, IoStats::new());
        transform_standard_parallel(&src, &cs, 16);
        let want = ss_core::standard::forward_to(&a);
        for idx in MultiIndexIter::new(&[8, 8]) {
            assert!((cs.read(&idx) - want.get(&idx)).abs() < 1e-9);
        }
    }

    #[test]
    fn nonstandard_parallel_matches_direct() {
        let a = sample(16);
        let src = ArraySource::new(&a, &[1, 1]); // 8x8 z-order grid
        for workers in [1usize, 2, 3, 8] {
            let cs = mem_shared_store(NonStandardTiling::new(2, 4, 2), 256, 4, IoStats::new());
            let report = transform_nonstandard_parallel(&src, &cs, workers);
            assert_eq!(report.chunks, 64);
            let want = ss_core::nonstandard::forward_to(&a);
            for idx in MultiIndexIter::new(&[16, 16]) {
                assert!(
                    (cs.read(&idx) - want.get(&idx)).abs() < 1e-9,
                    "workers={workers} {idx:?}"
                );
            }
        }
    }

    #[test]
    fn nonstandard_parallel_keeps_crest_bound_per_worker() {
        let a = sample(32);
        let src = ArraySource::new(&a, &[1, 1]); // 16x16 grid, grid_bits = 4
        for workers in [1usize, 2, 4] {
            let cs = mem_shared_store(NonStandardTiling::new(2, 5, 2), 512, 4, IoStats::new());
            let report = transform_nonstandard_parallel(&src, &cs, workers);
            // Serial bound: (2^d − 1)·(n − m) + 1 = 3·4 + 1.
            assert!(
                report.peak_crest_cache <= 3 * 4 + 1,
                "workers={workers} peak {}",
                report.peak_crest_cache
            );
        }
    }
}
