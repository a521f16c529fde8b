//! The read-only coefficient source abstraction queries run against.
//!
//! Every query in `ss-query` (Lemma 1 point lookups, Lemma 2 range sums,
//! reconstruction, tile-major batches, progressive refinement) only ever
//! *reads* coefficients. [`CoeffRead`] captures exactly that capability.
//! It is implemented by [`SharedCoeffStore`] itself and by
//! `&SharedCoeffStore`, so each worker thread of a server holds its own
//! `&` reference and passes `&mut (&shared)` into the query functions —
//! the same pattern as `io::Read for &TcpStream` — while single-threaded
//! callers pass `&mut store`. The snapshot layer in `ss-maintain`
//! implements it for pinned epochs. No query code changes between them.

use crate::block::BlockStore;
use crate::shard::SharedCoeffStore;
use ss_core::TilingMap;

/// A read-only source of wavelet coefficients laid out by a [`TilingMap`].
///
/// Implemented by [`SharedCoeffStore`] (owned) and `&SharedCoeffStore`
/// (per-thread handle for concurrent query serving).
pub trait CoeffRead {
    /// The tiling map describing the coefficient layout.
    type Map: TilingMap;

    /// The tiling map.
    fn map(&self) -> &Self::Map;

    /// Reads the coefficient at tuple index `idx`.
    fn read(&mut self, idx: &[usize]) -> f64;

    /// Reads a raw `(tile, slot)` location — used by query plans that
    /// resolve locations up front to reason about block access patterns.
    fn read_at(&mut self, tile: usize, slot: usize) -> f64;
}

impl<M: TilingMap, S: BlockStore> CoeffRead for SharedCoeffStore<M, S> {
    type Map = M;

    fn map(&self) -> &M {
        SharedCoeffStore::map(self)
    }

    fn read(&mut self, idx: &[usize]) -> f64 {
        SharedCoeffStore::read(self, idx)
    }

    fn read_at(&mut self, tile: usize, slot: usize) -> f64 {
        SharedCoeffStore::read_at(self, tile, slot)
    }
}

impl<M: TilingMap, S: BlockStore> CoeffRead for &SharedCoeffStore<M, S> {
    type Map = M;

    fn map(&self) -> &M {
        SharedCoeffStore::map(self)
    }

    fn read(&mut self, idx: &[usize]) -> f64 {
        SharedCoeffStore::read(self, idx)
    }

    fn read_at(&mut self, tile: usize, slot: usize) -> f64 {
        SharedCoeffStore::read_at(self, tile, slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::mem_shared_store;
    use crate::stats::IoStats;
    use ss_core::Tiling1d;

    fn sum_first<C: CoeffRead>(cs: &mut C, n: usize) -> f64 {
        (0..n).map(|i| cs.read(&[i])).sum()
    }

    #[test]
    fn owned_and_borrowed_stores_agree_through_the_trait() {
        let mut shared = mem_shared_store(Tiling1d::new(4, 2), 8, 4, IoStats::new());
        for i in 0..16usize {
            shared.write(&[i], (i * 7) as f64);
        }
        let b = sum_first(&mut { &shared }, 16);
        let a = sum_first(&mut shared, 16);
        assert_eq!(a, b);
    }

    #[test]
    fn borrowed_shared_store_reads_concurrently() {
        let shared = mem_shared_store(Tiling1d::new(4, 2), 8, 4, IoStats::new());
        for i in 0..16usize {
            shared.write(&[i], i as f64);
        }
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let shared = &shared;
                scope.spawn(move || {
                    let mut handle = shared;
                    for i in 0..16usize {
                        assert_eq!(CoeffRead::read(&mut handle, &[i]), i as f64);
                    }
                });
            }
        });
    }

    #[test]
    fn read_at_counts_coefficient_reads() {
        let stats = IoStats::new();
        let shared = mem_shared_store(Tiling1d::new(4, 2), 8, 4, stats.clone());
        shared.write(&[0], 2.5);
        stats.reset();
        let loc = TilingMap::locate(shared.map(), &[0]);
        let mut handle = &shared;
        assert_eq!(CoeffRead::read_at(&mut handle, loc.tile, loc.slot), 2.5);
        assert_eq!(stats.snapshot().coeff_reads, 1);
    }
}
