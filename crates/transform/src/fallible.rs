//! Fallible fronts over the transform drivers.
//!
//! The block-store traffic inside the drivers goes through the infallible
//! [`BlockStore`] face, which reports failures by
//! panicking with a [`StorageError`] payload (see
//! `ss_storage::downcast_storage_error`). These wrappers catch that
//! unwind — including out of worker threads — and
//! hand the typed error back as an `Err`, so callers like the CLI can
//! print a proper diagnostic and pick an exit code instead of aborting
//! with a panic trace.
//!
//! On `Err` the store must be considered poisoned: an unwind mid-transform
//! leaves an unknown subset of deltas applied. Callers should discard it
//! (or re-create and re-ingest); these wrappers make the failure *visible
//! and typed*, not resumable.

use crate::chunked::TransformReport;
use crate::source::ChunkSource;
use ss_core::TilingMap;
use ss_storage::{downcast_storage_error, BlockStore, SharedCoeffStore, StorageError};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// [`transform_standard_parallel`](crate::transform_standard_parallel)
/// with storage panics — from any worker — surfaced as typed errors.
pub fn try_transform_standard_parallel<M, S>(
    src: &(impl ChunkSource + Sync),
    cs: &SharedCoeffStore<M, S>,
    workers: usize,
) -> Result<TransformReport, StorageError>
where
    M: TilingMap,
    S: BlockStore + Send + Sync,
{
    catch_unwind(AssertUnwindSafe(|| {
        crate::par::transform_standard_parallel(src, cs, workers)
    }))
    .map_err(downcast_storage_error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ArraySource;
    use ss_array::{NdArray, Shape};
    use ss_core::tiling::StandardTiling;
    use ss_storage::{
        FaultConfig, FaultInjectingBlockStore, IoStats, MemBlockStore, RetryPolicy,
        RetryingBlockStore, SharedCoeffStore,
    };

    fn sample(side: usize) -> NdArray<f64> {
        NdArray::from_fn(Shape::cube(2, side), |idx| (idx[0] * 7 + idx[1]) as f64)
    }

    fn wrapped_store(
        read_rate: f64,
        retries: u32,
        stats: IoStats,
    ) -> RetryingBlockStore<FaultInjectingBlockStore<MemBlockStore>> {
        let map = StandardTiling::new(&[4; 2], &[2; 2]);
        let inner = MemBlockStore::new(map.block_capacity(), map.num_tiles(), stats);
        RetryingBlockStore::new(
            FaultInjectingBlockStore::new(inner, FaultConfig::read_errors(read_rate, 21)),
            RetryPolicy::with_retries(retries),
        )
    }

    #[test]
    fn faulty_ingest_succeeds_through_retries() {
        let a = sample(16);
        let src = ArraySource::new(&a, &[2, 2]);
        let stats = IoStats::new();
        let map = StandardTiling::new(&[4; 2], &[2; 2]);
        let cs = SharedCoeffStore::new(map, wrapped_store(0.1, 8, stats.clone()), 4, 1, stats);
        let report = try_transform_standard_parallel(&src, &cs, 1).unwrap();
        assert_eq!(report.chunks, 16);
        let want = ss_core::standard::forward_to(&a);
        for idx in ss_array::MultiIndexIter::new(&[16, 16]) {
            assert!((cs.read(&idx) - want.get(&idx)).abs() < 1e-9);
        }
    }

    #[test]
    fn exhausted_retries_surface_as_typed_error_one_worker() {
        let a = sample(16);
        let src = ArraySource::new(&a, &[2, 2]);
        let stats = IoStats::new();
        let map = StandardTiling::new(&[4; 2], &[2; 2]);
        // 100% read faults, tiny budget: the first pool miss must fail.
        let cs = SharedCoeffStore::new(map, wrapped_store(1.0, 1, stats.clone()), 4, 1, stats);
        match try_transform_standard_parallel(&src, &cs, 1) {
            Err(StorageError::RetriesExhausted { op: "read", .. }) => {}
            other => panic!("expected typed exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_retries_surface_as_typed_error_parallel() {
        let a = sample(16);
        let src = ArraySource::new(&a, &[2, 2]);
        let stats = IoStats::new();
        let map = StandardTiling::new(&[4; 2], &[2; 2]);
        let cs = SharedCoeffStore::new(map, wrapped_store(1.0, 1, stats.clone()), 4, 2, stats);
        match try_transform_standard_parallel(&src, &cs, 2) {
            Err(StorageError::RetriesExhausted { op: "read", .. }) => {}
            other => panic!("expected typed exhaustion, got {other:?}"),
        }
    }
}
