//! Batch drivers over a [`DeltaBuffer`]: group-committed box updates (both
//! forms, flushed by any number of workers) and a coalesced ingest driver.

use crate::buffer::{DeltaBuffer, FlushMode, FlushReport};
use ss_array::{MultiIndexIter, NdArray};
use ss_core::TilingMap;
use ss_storage::{BlockStore, SharedCoeffStore};
use ss_transform::{ChunkSource, UpdateReport};

/// Outcome of a group-committed batch of box updates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Enumeration totals (dyadic pieces, coefficients touched).
    pub update: UpdateReport,
    /// Flush totals (tiles written, coalescing).
    pub flush: FlushReport,
}

/// Buffers every box's delta stream through `deltas` (one operation per
/// box), then group-commits the batch across `workers` threads.
fn update_boxes<M: TilingMap, S: BlockStore + Send + Sync>(
    cs: &SharedCoeffStore<M, S>,
    boxes: &[(Vec<usize>, NdArray<f64>)],
    mode: FlushMode,
    workers: usize,
    deltas: impl Fn(&[usize], &NdArray<f64>, &mut dyn FnMut(&[usize], f64)) -> UpdateReport,
) -> BatchReport {
    let mut buf = DeltaBuffer::for_map(cs.map(), mode);
    let mut update = UpdateReport::default();
    for (origin, delta) in boxes {
        buf.begin_box();
        update.merge(deltas(origin, delta, &mut |idx, v| {
            buf.add_at(cs.map(), idx, v)
        }));
    }
    let flush = buf.flush_into(cs, workers);
    BatchReport { update, flush }
}

/// Applies a batch of standard-form box updates with one group-commit
/// flush: every dirty tile is read and written exactly once, however many
/// boxes touched it. Buffering is serial (it defines the replay order);
/// the flush is sharded across `workers` threads, each dirty tile owned
/// by exactly one of them. In [`FlushMode::Exact`] the stored
/// coefficients are bit-identical, for any worker count, to applying
/// [`ss_transform::update_box_standard`] box by box in the same order.
pub fn update_boxes_standard<M: TilingMap, S: BlockStore + Send + Sync>(
    cs: &SharedCoeffStore<M, S>,
    n: &[u32],
    boxes: &[(Vec<usize>, NdArray<f64>)],
    mode: FlushMode,
    workers: usize,
) -> BatchReport {
    update_boxes(cs, boxes, mode, workers, |origin, delta, add| {
        ss_transform::for_each_box_delta_standard(n, origin, delta, add)
    })
}

/// Non-standard-form twin of [`update_boxes_standard`]: the domain is a
/// `(2^n)^d` hypercube and every dyadic piece is subdivided into aligned
/// cubes before SHIFT-SPLIT.
pub fn update_boxes_nonstandard<M: TilingMap, S: BlockStore + Send + Sync>(
    cs: &SharedCoeffStore<M, S>,
    n: u32,
    boxes: &[(Vec<usize>, NdArray<f64>)],
    mode: FlushMode,
    workers: usize,
) -> BatchReport {
    update_boxes(cs, boxes, mode, workers, |origin, delta, add| {
        ss_transform::for_each_box_delta_nonstandard(n, origin, delta, add)
    })
}

/// Outcome of a coalesced ingest run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Chunks processed.
    pub chunks: usize,
    /// Input cells scanned.
    pub input_coeffs: u64,
    /// Group-commit flushes performed.
    pub flushes: usize,
    /// Merged flush totals across the run.
    pub flush: FlushReport,
}

/// Standard-form out-of-core transform with group-committed writeback:
/// like [`ss_transform::transform_standard`], but the SHIFT-SPLIT delta
/// streams of `group` consecutive chunks are buffered tile-major and
/// flushed together, so split-path tiles shared by a group are written
/// once per *group* rather than once per chunk. `group == 0` buffers the
/// whole ingest and flushes once at the end.
///
/// With [`FlushMode::Exact`] the stored transform is bit-identical to the
/// per-chunk driver: each chunk contributes at most one delta per
/// coefficient, so arrival-ordered replay preserves the per-coefficient
/// addition sequence.
pub fn transform_standard_coalesced<M: TilingMap, S: BlockStore + Send + Sync>(
    src: &impl ChunkSource,
    cs: &SharedCoeffStore<M, S>,
    group: usize,
    mode: FlushMode,
) -> IngestReport {
    let n = src.domain_levels().to_vec();
    let stats = cs.stats().clone();
    let block_capacity = cs.map().block_capacity();
    let mut buf = DeltaBuffer::for_map(cs.map(), mode);
    let mut report = IngestReport::default();
    for block in MultiIndexIter::new(&src.grid()) {
        let mut chunk = src.read_chunk(&block);
        // Input scan accounting, mirroring the per-chunk drivers: every
        // cell is a coefficient read arriving in block-sized units.
        stats.add_coeff_reads(chunk.len() as u64);
        stats.add_block_reads(chunk.len().div_ceil(block_capacity) as u64);
        ss_core::standard::forward(&mut chunk);
        buf.begin_box();
        {
            let map = cs.map();
            ss_core::split::standard_deltas(&chunk, &n, &block, |idx, delta| {
                buf.add_at(map, idx, delta);
            });
        }
        report.chunks += 1;
        report.input_coeffs += chunk.len() as u64;
        if group > 0 && report.chunks % group == 0 {
            report.flush.merge(buf.flush_into(cs, 1));
            report.flushes += 1;
        }
    }
    if !buf.is_empty() {
        report.flush.merge(buf.flush_into(cs, 1));
        report.flushes += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_array::Shape;
    use ss_core::{NonStandardTiling, StandardTiling};
    use ss_datagen::SplitMix64;
    use ss_storage::{mem_shared_store, IoStats};
    use ss_transform::ArraySource;

    fn random_boxes(
        rng: &mut SplitMix64,
        dims: &[usize],
        count: usize,
    ) -> Vec<(Vec<usize>, NdArray<f64>)> {
        (0..count)
            .map(|_| {
                let origin: Vec<usize> = dims.iter().map(|&d| rng.below(d - 1)).collect();
                let extents: Vec<usize> = dims
                    .iter()
                    .zip(&origin)
                    .map(|(&d, &o)| 1 + rng.below((d - o).min(5)))
                    .collect();
                let delta = NdArray::from_fn(Shape::new(&extents), |_| rng.range(-1.0, 1.0));
                (origin, delta)
            })
            .collect()
    }

    fn assert_stores_identical<M: TilingMap>(
        a: &SharedCoeffStore<M, ss_storage::MemBlockStore>,
        b: &SharedCoeffStore<M, ss_storage::MemBlockStore>,
        label: &str,
    ) {
        let tiles = a.map().num_tiles();
        let cap = a.map().block_capacity();
        for tile in 0..tiles {
            for slot in 0..cap {
                assert_eq!(
                    a.read_at(tile, slot).to_bits(),
                    b.read_at(tile, slot).to_bits(),
                    "{label}: tile {tile} slot {slot}"
                );
            }
        }
    }

    #[test]
    fn batched_standard_matches_serial_bit_for_bit() {
        let _quiet = crate::flush_counter_guard();
        let n = [4u32, 4];
        let map = StandardTiling::new(&n, &[2, 2]);
        let mut rng = SplitMix64::new(7);
        let boxes = random_boxes(&mut rng, &[16, 16], 12);

        let serial = mem_shared_store(map.clone(), 4, 1, IoStats::default());
        for (origin, delta) in &boxes {
            ss_transform::update_box_standard(&serial, &n, origin, delta);
        }
        let batched = mem_shared_store(map.clone(), 4, 1, IoStats::default());
        let report = update_boxes_standard(&batched, &n, &boxes, FlushMode::Exact, 1);
        assert_eq!(report.flush.boxes, 12);
        assert!(report.flush.coalescing_ratio() > 1.0);
        assert_stores_identical(&serial, &batched, "standard exact");
    }

    #[test]
    fn batched_standard_merged_matches_within_tolerance() {
        let _quiet = crate::flush_counter_guard();
        let n = [4u32, 3];
        let map = StandardTiling::new(&n, &[2, 1]);
        let mut rng = SplitMix64::new(11);
        let boxes = random_boxes(&mut rng, &[16, 8], 10);

        let serial = mem_shared_store(map.clone(), 4, 1, IoStats::default());
        for (origin, delta) in &boxes {
            ss_transform::update_box_standard(&serial, &n, origin, delta);
        }
        let batched = mem_shared_store(map.clone(), 4, 1, IoStats::default());
        update_boxes_standard(&batched, &n, &boxes, FlushMode::Merged, 1);
        for tile in 0..map.num_tiles() {
            for slot in 0..map.block_capacity() {
                let a = serial.read_at(tile, slot);
                let b = batched.read_at(tile, slot);
                assert!((a - b).abs() < 1e-9, "tile {tile} slot {slot}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn batched_nonstandard_matches_serial_bit_for_bit() {
        let _quiet = crate::flush_counter_guard();
        let n = 4u32;
        let map = NonStandardTiling::new(2, n, 2);
        let mut rng = SplitMix64::new(23);
        let boxes = random_boxes(&mut rng, &[16, 16], 8);

        let serial = mem_shared_store(map.clone(), 4, 1, IoStats::default());
        for (origin, delta) in &boxes {
            ss_transform::update_box_nonstandard(&serial, n, origin, delta);
        }
        let batched = mem_shared_store(map.clone(), 4, 1, IoStats::default());
        let report = update_boxes_nonstandard(&batched, n, &boxes, FlushMode::Exact, 1);
        assert_eq!(report.flush.boxes, 8);
        assert_stores_identical(&serial, &batched, "nonstandard exact");
    }

    #[test]
    fn parallel_batch_matches_serial_batch() {
        let _quiet = crate::flush_counter_guard();
        let n = [5u32, 4];
        let map = StandardTiling::new(&n, &[2, 2]);
        let mut rng = SplitMix64::new(41);
        let boxes = random_boxes(&mut rng, &[32, 16], 16);

        let serial = mem_shared_store(map.clone(), 4, 1, IoStats::default());
        update_boxes_standard(&serial, &n, &boxes, FlushMode::Exact, 1);
        for workers in [1usize, 2, 5] {
            let shared = mem_shared_store(map.clone(), 8, 4, IoStats::default());
            update_boxes_standard(&shared, &n, &boxes, FlushMode::Exact, workers);
            let (m, store) = shared.into_parts();
            let check = SharedCoeffStore::new(m, store, 4, 1, IoStats::default());
            assert_stores_identical(&serial, &check, "parallel");
        }
    }

    #[test]
    fn batched_writes_fewer_blocks_than_serial() {
        let _quiet = crate::flush_counter_guard();
        let n = [5u32, 5];
        let map = StandardTiling::new(&n, &[2, 2]);
        let mut rng = SplitMix64::new(3);
        let boxes = random_boxes(&mut rng, &[32, 32], 24);

        // Tiny pool (1 block) so every tile touch after an eviction is a
        // real block write; this is where coalescing pays.
        let serial_stats = IoStats::default();
        let serial = mem_shared_store(map.clone(), 1, 1, serial_stats.clone());
        for (origin, delta) in &boxes {
            ss_transform::update_box_standard(&serial, &n, origin, delta);
        }
        let batched_stats = IoStats::default();
        let batched = mem_shared_store(map.clone(), 1, 1, batched_stats.clone());
        let report = update_boxes_standard(&batched, &n, &boxes, FlushMode::Exact, 1);
        let sw = serial_stats.snapshot().block_writes;
        let bw = batched_stats.snapshot().block_writes;
        assert_eq!(bw, report.flush.tiles_written);
        assert!(
            bw < sw,
            "batched flush should write fewer blocks ({bw} vs {sw})"
        );
    }

    #[test]
    fn coalesced_ingest_matches_per_chunk_driver() {
        let _quiet = crate::flush_counter_guard();
        let mut rng = SplitMix64::new(99);
        let data = NdArray::from_fn(Shape::new(&[16, 16]), |_| rng.range(-10.0, 10.0));
        let src = ArraySource::new(&data, &[2, 2]);
        let map = StandardTiling::new(&[4, 4], &[2, 2]);

        let per_chunk = mem_shared_store(map.clone(), 4, 1, IoStats::default());
        ss_transform::transform_standard(&src, &per_chunk, false);
        for group in [0usize, 1, 4, 7] {
            let stats = IoStats::default();
            let coalesced = mem_shared_store(map.clone(), 4, 1, stats.clone());
            let report = transform_standard_coalesced(&src, &coalesced, group, FlushMode::Exact);
            assert_eq!(report.chunks, 16);
            let expect_flushes = if group == 0 {
                1
            } else {
                16usize.div_ceil(group)
            };
            assert_eq!(report.flushes, expect_flushes, "group={group}");
            assert_stores_identical(&per_chunk, &coalesced, "ingest");
        }
    }

    #[test]
    fn coalescing_ratio_grows_with_group_size() {
        let _quiet = crate::flush_counter_guard();
        let mut rng = SplitMix64::new(5);
        let data = NdArray::from_fn(Shape::new(&[32, 32]), |_| rng.range(-1.0, 1.0));
        let src = ArraySource::new(&data, &[2, 2]);
        let map = StandardTiling::new(&[5, 5], &[2, 2]);
        let mut prev = 0.0f64;
        for group in [1usize, 4, 16, 64] {
            let cs = mem_shared_store(map.clone(), 4, 1, IoStats::default());
            let report = transform_standard_coalesced(&src, &cs, group, FlushMode::Exact);
            let ratio = report.flush.coalescing_ratio();
            assert!(
                ratio >= prev,
                "group {group}: ratio {ratio} should not shrink (prev {prev})"
            );
            prev = ratio;
        }
        assert!(prev > 1.0, "large groups must coalesce ({prev})");
    }
}
