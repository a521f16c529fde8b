//! The buffer pool and the coefficient store built on it: the one
//! coefficient-store stack every driver, query and server in the
//! workspace runs against.
//!
//! The paper costs every algorithm against one bounded buffer of `M^d`
//! coefficients held in blocks; [`ShardedBufferPool`] models that budget
//! in blocks. Repeated touches of a cached block cost nothing; a miss
//! reads one block, and evicting a dirty block writes one. Flushing at
//! the end of an operation writes the remaining dirty blocks, exactly
//! the accounting the paper's per-chunk analyses use. Built with one
//! shard and driven by one thread, the pool is a plain global-LRU cache
//! and its block counts are the experiments' measurements.
//!
//! With more shards, many workers apply coefficient deltas
//! *concurrently* against one bounded cache: the block-id space is
//! partitioned across `num_shards` independently locked LRU shards, so
//! two workers touching different shards never contend.
//! The backing [`BlockStore`] sits behind its own reader-writer lock and
//! is only locked on a miss, an eviction of a dirty frame, or a flush.
//! Stores that support [`BlockStore::try_read_block_shared`] serve misses
//! under the *read* half of that lock, so misses on different shards wait
//! on the device concurrently — the mechanism that lets a pool of query
//! workers overlap per-block device latency instead of serialising every
//! cold read behind one mutex. Writes (write-backs, flushes) and reads on
//! stores without shared-read support take the write half.
//!
//! **Store I/O never runs under a shard lock.** A miss (or an eviction of
//! a dirty frame, or a flush) marks the affected block ids *busy* in the
//! shard, releases the shard mutex, performs the device transfer, then
//! re-acquires the mutex to install the frame and wake waiters on the
//! shard's condvar. Threads that need a busy block wait on the condvar
//! instead of duplicating the load. This matters most when the backing
//! store is a [`RetryingBlockStore`](crate::RetryingBlockStore): its
//! capped exponential backoff can sleep for many milliseconds, and under
//! a held-lock discipline that sleep would stall every reader hashed to
//! the same shard. Lock ordering remains *shard → store* in the sense
//! that no operation acquires a shard lock while holding the store lock,
//! and no operation holds two shard locks at once, so the pool is
//! deadlock-free by construction.
//!
//! **A storage fault never poisons the pool.** Device transfers go
//! through the fallible `try_*` face of the store while the store lock is
//! held; the guard is dropped *before* a failure is raised as a typed
//! [`StorageError`] panic (see [`downcast_storage_error`](crate::downcast_storage_error)).
//! One corrupt block therefore fails only the accesses that touch it:
//! the next access to a healthy block proceeds normally. A failed write
//! loses nothing either: an eviction victim whose write-back fails goes
//! back into its shard dirty, and a flush marks every frame it did not
//! write dirty again, so the data stays readable and a later flush
//! retries it.
//!
//! Every shard keeps local hit/miss/eviction/write-back counters (read
//! them with [`ShardedBufferPool::shard_counters`]) and mirrors each event
//! into the shared [`IoStats`], where the totals appear in
//! [`IoSnapshot`](crate::IoSnapshot) next to the block/coefficient
//! counters the experiments report. A *pool hit* is one tile access
//! served from a cached frame: a single-coefficient read or write is one
//! access, and so is a whole tile-batched apply
//! ([`SharedCoeffStore::apply_batch`]) however many coefficients of the
//! tile it touches.

use crate::block::BlockStore;
use crate::error::StorageError;
use crate::stats::IoStats;
use ss_core::TilingMap;
use ss_obs::Histogram;
use std::collections::HashMap;
use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockWriteGuard};
use std::time::Instant;

/// Per-shard cache event counters (a copy; see
/// [`ShardedBufferPool::shard_counters`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Accesses served from a cached frame.
    pub hits: u64,
    /// Accesses that read the backing store.
    pub misses: u64,
    /// Frames evicted to respect the shard budget.
    pub evictions: u64,
    /// Dirty frames written back (eviction or flush).
    pub writebacks: u64,
}

struct Frame {
    data: Vec<f64>,
    dirty: bool,
    /// A flush is writing a copy of this frame to the store. Such a frame
    /// is never chosen as an eviction victim, so its eviction write-back
    /// cannot race the flush's write, and a failed flush write can mark
    /// it dirty again.
    flushing: bool,
    last_used: u64,
}

struct Shard {
    frames: HashMap<usize, Frame>,
    /// Block ids with store I/O in flight (miss load or eviction
    /// write-back). A block in `busy` is never in `frames`; threads that
    /// need it wait on the slot's condvar instead of loading it twice.
    /// Only a few ids are ever in flight per shard, so a scanned vector
    /// beats hashing here.
    busy: Vec<usize>,
    /// Threads asleep on the slot's condvar, so a load that nobody waits
    /// for skips the wake-up (a system call) entirely.
    waiters: usize,
    /// Uncontended acquisitions of this shard's lock not yet recorded in
    /// the wait histogram (see [`ShardedBufferPool::lock_slot`]).
    zero_waits: u64,
    clock: u64,
    counters: ShardCounters,
}

impl Shard {
    /// The least recently used frame that no flush has pinned.
    fn lru_victim(&self) -> Option<usize> {
        // A plain loop: `filter(..).min_by_key(..)` over the map compiled
        // to a scan several times slower, and this runs on every miss.
        let mut victim: Option<(u64, usize)> = None;
        for (&id, fr) in &self.frames {
            if !fr.flushing && victim.is_none_or(|(used, _)| fr.last_used < used) {
                victim = Some((fr.last_used, id));
            }
        }
        victim.map(|(_, id)| id)
    }

    /// Clears the busy mark of `id`.
    fn unmark(&mut self, id: usize) {
        if let Some(k) = self.busy.iter().position(|&b| b == id) {
            self.busy.swap_remove(k);
        }
    }
}

/// One independently locked shard plus the condvar busy-block waiters
/// sleep on while another thread performs that block's store I/O.
struct ShardSlot {
    state: Mutex<Shard>,
    ready: Condvar,
}

impl ShardSlot {
    /// Wakes the busy-block waiters, if any. Call with `shard` (this
    /// slot's state) locked: `waiters` only changes under that lock.
    fn wake(&self, shard: &Shard) {
        if shard.waiters > 0 {
            self.ready.notify_all();
        }
    }
}

/// One miss's in-flight I/O: the block being loaded and the frames
/// evicted for it. The loaded id and the dirty victims' ids are marked
/// busy in the shard until [`clear`](Self::clear) — or, if the loading
/// thread panics mid-I/O, until `Drop` — so waiters never hang.
struct BusyGuard<'a> {
    slot: &'a ShardSlot,
    id: usize,
    victims: Vec<(usize, Frame)>,
}

impl BusyGuard<'_> {
    /// The busy-marked ids: the loaded block and every dirty victim.
    fn busy_ids(&self) -> impl Iterator<Item = usize> + '_ {
        let dirty = self.victims.iter().filter(|(_, fr)| fr.dirty);
        std::iter::once(self.id).chain(dirty.map(|&(vid, _)| vid))
    }

    /// Clears the marks and wakes waiters under an already-held shard
    /// lock, so the caller keeps the lock continuously from frame install
    /// to frame use (dropping it in between would let a concurrent miss
    /// evict the just-installed frame). Returns the victims. `Drop` stays
    /// as the panic path.
    fn clear(mut self, shard: &mut Shard) -> Vec<(usize, Frame)> {
        for id in self.busy_ids() {
            shard.unmark(id);
        }
        self.slot.wake(shard);
        let victims = std::mem::take(&mut self.victims);
        std::mem::forget(self); // victims already taken: nothing to leak
        victims
    }
}

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        let mut shard = self
            .slot
            .state
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        for id in self.busy_ids() {
            shard.unmark(id);
        }
        self.slot.wake(&shard);
    }
}

/// Uncontended shard-lock acquisitions tallied per shard before they are
/// recorded in the `pool.shard_lock_wait_ns` histogram as one batch.
const ZERO_WAIT_BATCH: u64 = 64;

/// A write-back LRU block cache usable from many threads at once.
pub struct ShardedBufferPool<S: BlockStore> {
    shards: Vec<ShardSlot>,
    store: RwLock<S>,
    /// Serialises whole-pool flushes (see [`flush`](Self::flush)).
    flush_lock: Mutex<()>,
    /// The total budget requested at construction (kept for
    /// [`SharedCoeffStore::rehouse`]).
    budget: usize,
    shard_budget: usize,
    block_capacity: usize,
    stats: IoStats,
    // Global-registry handles resolved once: per-acquisition wait time on
    // the shard locks and on the backing-store lock. Under the parallel
    // drivers these are the contention signal the workers report.
    shard_wait_ns: Histogram,
    store_wait_ns: Histogram,
}

impl<S: BlockStore> ShardedBufferPool<S> {
    /// Wraps `store` with `num_shards` LRU shards sharing a total cache
    /// budget of `budget` blocks (each shard gets `max(1, budget /
    /// num_shards)` frames). Cache events are recorded in `stats`.
    pub fn new(store: S, budget: usize, num_shards: usize, stats: IoStats) -> Self {
        assert!(num_shards >= 1, "sharded pool needs at least one shard");
        assert!(budget >= 1, "buffer pool needs at least one frame");
        let shard_budget = (budget / num_shards).max(1);
        let shards = (0..num_shards)
            .map(|_| ShardSlot {
                state: Mutex::new(Shard {
                    frames: HashMap::new(),
                    busy: Vec::new(),
                    waiters: 0,
                    zero_waits: 0,
                    clock: 0,
                    counters: ShardCounters::default(),
                }),
                ready: Condvar::new(),
            })
            .collect();
        ShardedBufferPool {
            shards,
            flush_lock: Mutex::new(()),
            budget,
            shard_budget,
            block_capacity: store.block_capacity(),
            store: RwLock::new(store),
            stats,
            shard_wait_ns: ss_obs::global().histogram("pool.shard_lock_wait_ns"),
            store_wait_ns: ss_obs::global().histogram("pool.store_lock_wait_ns"),
        }
    }

    /// Locks a shard slot, recording how long the acquisition waited.
    ///
    /// A free lock waited 0 ns without reading the clock. Those samples
    /// are tallied in the shard and recorded [`ZERO_WAIT_BATCH`] at a time
    /// (the rest at the next flush), keeping the histogram's shared
    /// atomics off the single-threaded hot path.
    fn lock_slot<'a>(&self, slot: &'a ShardSlot) -> MutexGuard<'a, Shard> {
        if let Ok(mut shard) = slot.state.try_lock() {
            shard.zero_waits += 1;
            if shard.zero_waits == ZERO_WAIT_BATCH {
                self.record_zero_waits(&mut shard);
            }
            return shard;
        }
        let t0 = Instant::now();
        let shard = slot.state.lock().unwrap();
        self.shard_wait_ns.record(t0.elapsed().as_nanos() as u64);
        shard
    }

    /// Moves a shard's tally of uncontended acquisitions into the wait
    /// histogram.
    fn record_zero_waits(&self, shard: &mut Shard) {
        self.shard_wait_ns.record_n(0, shard.zero_waits);
        shard.zero_waits = 0;
    }

    /// Locks the backing store exclusively, recording how long the
    /// acquisition waited.
    fn lock_store(&self) -> RwLockWriteGuard<'_, S> {
        acquire_timed(
            &self.store_wait_ns,
            || self.store.try_write().ok(),
            || self.store.write().unwrap(),
        )
    }

    /// Number of independently locked shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total cache budget, in blocks.
    pub fn budget(&self) -> usize {
        self.shard_budget * self.shards.len()
    }

    /// Coefficients per block.
    pub fn block_capacity(&self) -> usize {
        self.block_capacity
    }

    /// A copy of each shard's local counters, indexed by shard.
    pub fn shard_counters(&self) -> Vec<ShardCounters> {
        self.shards
            .iter()
            .map(|s| s.state.lock().unwrap().counters)
            .collect()
    }

    fn shard_of(&self, id: usize) -> usize {
        // Adjacent tile ids round-robin across shards, so the contiguous
        // tile ranges a chunk touches spread over many locks. One shard
        // skips the division: it sits on every access.
        match self.shards.len() {
            1 => 0,
            n => id % n,
        }
    }

    /// Reads one coefficient of block `id`.
    pub fn read(&self, id: usize, slot: usize) -> f64 {
        self.with_block(id, false, |blk| blk[slot])
    }

    /// Overwrites one coefficient of block `id`.
    pub fn write(&self, id: usize, slot: usize, value: f64) {
        self.with_block(id, true, |blk| blk[slot] = value)
    }

    /// Adds `delta` to one coefficient of block `id`.
    pub fn add(&self, id: usize, slot: usize, delta: f64) {
        self.with_block(id, true, |blk| blk[slot] += delta)
    }

    /// Runs `f` over the whole cached block `id` under a single shard
    /// lock (marking it dirty when `mutate` is true). This is how the
    /// parallel drivers apply a chunk's per-tile delta batches: one lock
    /// acquisition per tile, not per coefficient. Store I/O for a miss or
    /// an eviction write-back happens *outside* the shard lock (see the
    /// module docs); only the in-memory closure runs under it.
    pub fn with_block<R>(&self, id: usize, mutate: bool, f: impl FnOnce(&mut [f64]) -> R) -> R {
        let slot_ref = &self.shards[self.shard_of(id)];
        let mut shard = self.lock_slot(slot_ref);
        loop {
            let state = &mut *shard;
            if let Some(frame) = state.frames.get_mut(&id) {
                state.counters.hits += 1;
                self.stats.add_pool_hits(1);
                ss_obs::trace::event(ss_obs::TraceEventKind::TileFetch {
                    tile: id as u64,
                    hit: true,
                });
                state.clock += 1;
                frame.last_used = state.clock;
                frame.dirty |= mutate;
                return f(&mut frame.data);
            }
            if shard.busy.contains(&id) {
                // Another thread is loading or writing back this block;
                // wait for its I/O to finish instead of duplicating it.
                shard.waiters += 1;
                shard = slot_ref.ready.wait(shard).unwrap();
                shard.waiters -= 1;
                continue;
            }
            // Miss: this thread owns the load. Pick eviction victims and
            // mark every id with in-flight I/O busy, then drop the lock.
            shard.counters.misses += 1;
            self.stats.add_pool_misses(1);
            ss_obs::trace::event(ss_obs::TraceEventKind::TileFetch {
                tile: id as u64,
                hit: false,
            });
            let mut victims: Vec<(usize, Frame)> = Vec::new();
            while shard.frames.len() + 1 > self.shard_budget {
                // Frames a flush is writing are pinned; with every frame
                // pinned the shard runs over budget until the flush ends.
                let Some(vid) = shard.lru_victim() else {
                    break;
                };
                let frame = shard.frames.remove(&vid).expect("victim exists");
                shard.counters.evictions += 1;
                self.stats.add_pool_evictions(1);
                victims.push((vid, frame));
            }
            let mut busy = BusyGuard {
                slot: slot_ref,
                id,
                victims,
            };
            shard.busy.extend(busy.busy_ids());
            drop(shard);
            // Write back the dirty victims, stopping at the first failure.
            let mut wrote_back = 0;
            let mut outcome = Ok(());
            for (vid, frame) in busy.victims.iter().filter(|(_, fr)| fr.dirty) {
                // The store guard is a temporary of this statement.
                outcome = self.lock_store().try_write_block(*vid, &frame.data);
                if outcome.is_err() {
                    break;
                }
                wrote_back += 1;
            }
            // An evicted frame's buffer is reused for the block loaded.
            let mut data = match busy.victims.last_mut() {
                Some((_, frame)) if outcome.is_ok() => std::mem::take(&mut frame.data),
                _ => vec![0.0; self.block_capacity],
            };
            if outcome.is_ok() {
                // Miss read: under the read half of the store lock when
                // the store can read through a shared reference (misses
                // on other shards then overlap their device wait), under
                // the write half otherwise.
                let shared = acquire_timed(
                    &self.store_wait_ns,
                    || self.store.try_read().ok(),
                    || self.store.read().unwrap(),
                )
                .try_read_block_shared(id, &mut data);
                outcome = match shared {
                    Some(read) => read,
                    None => self.lock_store().try_read_block(id, &mut data),
                };
            }
            shard = self.lock_slot(slot_ref);
            shard.counters.writebacks += wrote_back as u64;
            self.stats.add_pool_writebacks(wrote_back as u64);
            if let Err(e) = outcome {
                // A dirty victim whose write-back failed (or was never
                // attempted) is still the only copy of its data: put it
                // back, dirty, before raising. Every lock is released
                // first, so the unwind poisons nothing.
                let victims = busy.clear(&mut shard);
                let dirty = victims.into_iter().filter(|(_, fr)| fr.dirty);
                shard.frames.extend(dirty.skip(wrote_back));
                drop(shard);
                std::panic::panic_any(e);
            }
            // Clear the busy marks under this same lock and keep holding
            // it: releasing between install and use would let a
            // concurrent miss evict the frame (or a clear() drop it) and
            // force a second, double-counted load for this one access.
            busy.clear(&mut shard);
            shard.clock += 1;
            let frame = Frame {
                data,
                dirty: mutate,
                flushing: false,
                last_used: shard.clock,
            };
            let frame = shard.frames.entry(id).or_insert(frame);
            return f(&mut frame.data);
        }
    }

    /// Writes every dirty block back to the store, keeping the cache warm.
    ///
    /// Dirty frames are *copied* under the shard lock and written to the
    /// store after it is released, so slow store writes (throttled
    /// devices, retry backoff) never stall readers of the shard. A frame
    /// mutated between the copy and the store write is simply dirty again
    /// and caught by the next flush.
    pub fn flush(&self) {
        // Serialise whole-pool flushes so two concurrent flushes cannot
        // write the same block in opposite orders (copy-then-write makes
        // that reordering possible without this).
        let written = {
            let _flush = self.flush_lock.lock().unwrap();
            self.shards
                .iter()
                .try_for_each(|slot| self.flush_shard(slot))
        };
        if let Err(e) = written {
            // Raised after the flush lock is released: nothing is poisoned.
            std::panic::panic_any(e);
        }
    }

    /// Copies one shard's dirty frames out under its lock, marks them
    /// clean and pins them against eviction, and writes the copies to the
    /// store after releasing it. Writing stops at the first failure; every
    /// frame not written is marked dirty again, so a later flush retries
    /// it and no data is lost.
    fn flush_shard(&self, slot: &ShardSlot) -> Result<(), StorageError> {
        let mut dirty: Vec<(usize, Vec<f64>)> = Vec::new();
        {
            let mut shard = slot.state.lock().unwrap();
            self.record_zero_waits(&mut shard);
            let mut ids: Vec<usize> = shard
                .frames
                .iter()
                .filter(|(_, fr)| fr.dirty)
                .map(|(&id, _)| id)
                .collect();
            ids.sort_unstable();
            for id in ids {
                let frame = shard.frames.get_mut(&id).expect("dirty frame");
                dirty.push((id, frame.data.clone()));
                frame.dirty = false;
                frame.flushing = true;
            }
        }
        if dirty.is_empty() {
            return Ok(());
        }
        let mut written = 0;
        let outcome = {
            let mut store = self.lock_store();
            dirty.iter().try_for_each(|(id, data)| {
                store.try_write_block(*id, data)?;
                written += 1;
                Ok(())
            })
        };
        let mut shard = slot.state.lock().unwrap();
        for (k, (id, _)) in dirty.iter().enumerate() {
            // Only a concurrent `clear` removes a pinned frame.
            if let Some(frame) = shard.frames.get_mut(id) {
                frame.flushing = false;
                if k >= written {
                    frame.dirty = true;
                }
            }
        }
        shard.counters.writebacks += written as u64;
        self.stats.add_pool_writebacks(written as u64);
        outcome
    }

    /// Durability barrier on the backing store (fsync for file-backed
    /// stores, a no-op for memory). Call after [`flush`](Self::flush) to
    /// make previously written blocks survive a crash.
    pub fn sync(&self) -> Result<(), StorageError> {
        self.lock_store().try_sync()
    }

    /// Flushes and drops every cached block (a "cold cache" reset between
    /// experiment phases).
    pub fn clear(&self) {
        self.flush();
        for slot in &self.shards {
            slot.state.lock().unwrap().frames.clear();
        }
    }

    /// Flushes and returns the wrapped store.
    pub fn into_store(self) -> S {
        self.flush();
        self.store.into_inner().unwrap()
    }
}

/// Acquires a lock, recording the wait in `wait_ns`. A free lock is taken
/// through `try_acquire` and recorded as a zero wait without reading the
/// clock; otherwise `acquire` blocks and the wait is timed.
fn acquire_timed<G>(
    wait_ns: &Histogram,
    try_acquire: impl FnOnce() -> Option<G>,
    acquire: impl FnOnce() -> G,
) -> G {
    if let Some(guard) = try_acquire() {
        wait_ns.record(0);
        return guard;
    }
    let t0 = Instant::now();
    let guard = acquire();
    wait_ns.record(t0.elapsed().as_nanos() as u64);
    guard
}

/// Wavelet coefficients mapped onto a [`ShardedBufferPool`] through a
/// [`TilingMap`] (subtree tiles or the naive row-major baseline): the
/// object every out-of-core algorithm in `ss-transform` and every query
/// in `ss-query` runs against, so its counters are the experiments'
/// measurements. Every method takes `&self`; worker threads share one
/// store by reference.
pub struct SharedCoeffStore<M: TilingMap, S: BlockStore> {
    map: M,
    pool: ShardedBufferPool<S>,
    stats: IoStats,
}

impl<M: TilingMap, S: BlockStore> SharedCoeffStore<M, S> {
    /// Builds a shared store over `store` with layout `map`, a total cache
    /// budget of `pool_budget` blocks split over `num_shards` shards.
    ///
    /// # Panics
    ///
    /// Panics when the block store's capacity differs from the map's, or
    /// when the store has fewer blocks than the map needs.
    pub fn new(map: M, store: S, pool_budget: usize, num_shards: usize, stats: IoStats) -> Self {
        assert_eq!(
            store.block_capacity(),
            map.block_capacity(),
            "block capacity mismatch between store and tiling map"
        );
        assert!(
            store.num_blocks() >= map.num_tiles(),
            "store has {} blocks, map needs {}",
            store.num_blocks(),
            map.num_tiles()
        );
        SharedCoeffStore {
            map,
            pool: ShardedBufferPool::new(store, pool_budget, num_shards, stats.clone()),
            stats,
        }
    }

    /// The tiling map.
    pub fn map(&self) -> &M {
        &self.map
    }

    /// The shared counters.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Reads the coefficient at tuple index `idx`.
    pub fn read(&self, idx: &[usize]) -> f64 {
        let loc = self.map.locate(idx);
        self.stats.add_coeff_reads(1);
        self.pool.read(loc.tile, loc.slot)
    }

    /// Overwrites the coefficient at `idx`.
    pub fn write(&self, idx: &[usize], value: f64) {
        let loc = self.map.locate(idx);
        self.stats.add_coeff_writes(1);
        self.pool.write(loc.tile, loc.slot, value);
    }

    /// Adds `delta` to the coefficient at `idx`.
    pub fn add(&self, idx: &[usize], delta: f64) {
        let loc = self.map.locate(idx);
        self.stats.add_coeff_writes(1);
        self.pool.add(loc.tile, loc.slot, delta);
    }

    /// Reads a raw `(tile, slot)` location — used by query plans that
    /// resolve locations up front to reason about block access patterns.
    pub fn read_at(&self, tile: usize, slot: usize) -> f64 {
        self.stats.add_coeff_reads(1);
        self.pool.read(tile, slot)
    }

    /// Adds a batch of `(slot, delta)` updates to one tile under a single
    /// shard lock. The parallel drivers group each chunk's deltas by tile
    /// and apply them through this.
    pub fn apply_tile(&self, tile: usize, updates: &[(usize, f64)]) {
        if updates.is_empty() {
            return;
        }
        self.stats.add_coeff_writes(updates.len() as u64);
        self.pool.with_block(tile, true, |blk| {
            for &(slot, delta) in updates {
                blk[slot] += delta;
            }
        });
    }

    /// Adds a dense per-slot delta vector to one tile under a single
    /// shard lock, skipping zero-delta slots (the [`ss_core::kernel`]
    /// masked add, vectorised in SIMD builds). `touched` is the caller's
    /// count of non-zero slots, charged as coefficient writes — the same
    /// accounting a sparse [`apply_tile`](Self::apply_tile) of those
    /// slots would record.
    pub fn apply_tile_dense(&self, tile: usize, deltas: &[f64], touched: u64) {
        if touched == 0 {
            return;
        }
        self.stats.add_coeff_writes(touched);
        self.pool.with_block(tile, true, |blk| {
            ss_core::kernel::masked_add(blk, deltas);
        });
    }

    /// Applies a `(tile, slot, delta)` batch: sorted by tile so each
    /// affected tile is locked (and, on a miss, loaded) at most once per
    /// batch — the per-chunk access discipline of the paper's analyses,
    /// at any worker count. Clears `deltas`.
    pub fn apply_batch(&self, deltas: &mut Vec<(usize, usize, f64)>) {
        deltas.sort_unstable_by_key(|&(tile, slot, _)| (tile, slot));
        let mut i = 0;
        while i < deltas.len() {
            let tile = deltas[i].0;
            let mut j = i;
            while j < deltas.len() && deltas[j].0 == tile {
                j += 1;
            }
            self.stats.add_coeff_writes((j - i) as u64);
            self.pool.with_block(tile, true, |blk| {
                for &(_, slot, delta) in &deltas[i..j] {
                    blk[slot] += delta;
                }
            });
            i = j;
        }
        deltas.clear();
    }

    /// Reads a whole tile as an owned vector — the snapshot layer's
    /// copy-on-write hook: it copies a tile out of the base store before
    /// applying an epoch's deltas to the copy.
    pub fn read_tile(&self, tile: usize) -> Vec<f64> {
        self.pool.with_block(tile, false, |blk| blk.to_vec())
    }

    /// Overwrites a whole tile — the snapshot layer's fold-back hook: a
    /// retired epoch's published tile images are written into the base
    /// store verbatim (and WAL replay restores post-images the same way).
    ///
    /// # Panics
    ///
    /// Panics when `data.len()` differs from the block capacity.
    pub fn overwrite_tile(&self, tile: usize, data: &[f64]) {
        assert_eq!(data.len(), self.pool.block_capacity());
        self.stats.add_coeff_writes(data.len() as u64);
        self.pool
            .with_block(tile, true, |blk| blk.copy_from_slice(data));
    }

    /// Writes every dirty cached block back.
    pub fn flush(&self) {
        self.pool.flush();
    }

    /// Durability barrier on the backing store (fsync for file-backed
    /// stores). Call after [`flush`](Self::flush).
    pub fn sync(&self) -> Result<(), crate::StorageError> {
        self.pool.sync()
    }

    /// Flushes and empties the cache (cold-cache reset between phases).
    pub fn clear_cache(&self) {
        self.pool.clear();
    }

    /// Direct access to the underlying sharded pool.
    pub fn pool(&self) -> &ShardedBufferPool<S> {
        &self.pool
    }

    /// Mutable access to the backing block store, for maintenance
    /// operations (scrub, fsync) that bypass the cache. Flush first if
    /// dirty frames must be visible to the store.
    pub fn store_mut(&mut self) -> &mut S {
        let store = self.pool.store.get_mut();
        store.expect("store lock is never poisoned: faults are raised after release")
    }

    /// Flushes, then rebuilds the store over `wrap(store)` with the same
    /// map, total budget and counters, split over `num_shards` shards.
    /// This is how a caller moves a one-shard store into a parallel phase,
    /// or puts a wrapper (fault injection, retries) between the pool and
    /// the device for one operation; rehousing a clean store costs no I/O.
    pub fn rehouse<T: BlockStore>(
        self,
        num_shards: usize,
        wrap: impl FnOnce(S) -> T,
    ) -> SharedCoeffStore<M, T> {
        let budget = self.pool.budget;
        let stats = self.stats.clone();
        let (map, store) = self.into_parts();
        SharedCoeffStore::new(map, wrap(store), budget, num_shards, stats)
    }

    /// Decomposes into map and (flushed) store.
    pub fn into_parts(self) -> (M, S) {
        let SharedCoeffStore { map, pool, .. } = self;
        (map, pool.into_store())
    }
}

/// Convenience: an in-memory shared tiled store sized for `map`.
pub fn mem_shared_store<M: TilingMap>(
    map: M,
    pool_budget: usize,
    num_shards: usize,
    stats: IoStats,
) -> SharedCoeffStore<M, crate::mem::MemBlockStore> {
    let store =
        crate::mem::MemBlockStore::new(map.block_capacity(), map.num_tiles(), stats.clone());
    SharedCoeffStore::new(map, store, pool_budget, num_shards, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemBlockStore;
    use ss_core::Tiling1d;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn pool(
        blocks: usize,
        budget: usize,
        shards: usize,
    ) -> (ShardedBufferPool<MemBlockStore>, IoStats) {
        let stats = IoStats::new();
        let store = MemBlockStore::new(4, blocks, stats.clone());
        (
            ShardedBufferPool::new(store, budget, shards, stats.clone()),
            stats,
        )
    }

    #[test]
    fn read_write_roundtrip_through_shards() {
        let (p, _) = pool(16, 8, 4);
        for id in 0..16 {
            p.write(id, id % 4, id as f64 + 0.5);
        }
        for id in 0..16 {
            assert_eq!(p.read(id, id % 4), id as f64 + 0.5);
        }
    }

    #[test]
    fn values_survive_eviction_pressure() {
        // Budget of 1 frame per shard forces constant eviction traffic.
        let (p, _) = pool(16, 4, 4);
        for id in 0..16 {
            p.add(id, 0, id as f64);
            p.add(id, 0, 1.0);
        }
        let mut store = p.into_store();
        let mut buf = vec![0.0; 4];
        for id in 0..16 {
            store.read_block(id, &mut buf);
            assert_eq!(buf[0], id as f64 + 1.0);
        }
    }

    #[test]
    fn shard_counters_reconcile_with_global_stats() {
        let (p, stats) = pool(16, 4, 4);
        for id in 0..16 {
            p.write(id, 0, 1.0); // 16 misses, evictions past each shard's 1-frame budget
        }
        for id in 0..4 {
            p.read(id + 12, 0); // 4 hits (last resident per shard)
        }
        p.flush();
        let per_shard = p.shard_counters();
        let snap = stats.snapshot();
        assert_eq!(
            per_shard.iter().map(|c| c.hits).sum::<u64>(),
            snap.pool_hits
        );
        assert_eq!(
            per_shard.iter().map(|c| c.misses).sum::<u64>(),
            snap.pool_misses
        );
        assert_eq!(
            per_shard.iter().map(|c| c.evictions).sum::<u64>(),
            snap.pool_evictions
        );
        assert_eq!(
            per_shard.iter().map(|c| c.writebacks).sum::<u64>(),
            snap.pool_writebacks
        );
        // All 16 dirty frames reached the store exactly once each.
        assert_eq!(snap.block_writes, 16);
        assert_eq!(snap.pool_writebacks, 16);
    }

    #[test]
    fn concurrent_adds_accumulate_exactly() {
        let (p, _) = pool(8, 4, 4);
        let p = Arc::new(p);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let p = Arc::clone(&p);
                scope.spawn(move || {
                    for round in 0..100 {
                        for id in 0..8 {
                            p.add(id, round % 4, 1.0);
                        }
                    }
                });
            }
        });
        let p = Arc::try_unwrap(p).ok().expect("threads joined");
        let mut store = p.into_store();
        let mut buf = vec![0.0; 4];
        for id in 0..8 {
            store.read_block(id, &mut buf);
            assert_eq!(buf.iter().sum::<f64>(), 400.0, "block {id}");
        }
    }

    #[test]
    fn retry_backoff_does_not_stall_same_shard_readers() {
        use crate::retry::{RetryPolicy, RetryingBlockStore};
        use std::time::Duration;

        // Block 0 always fails with a transient error (after signalling
        // that the faulty load has started); every other block succeeds.
        struct OneBadBlock {
            inner: MemBlockStore,
            started: Arc<AtomicBool>,
        }
        impl BlockStore for OneBadBlock {
            fn block_capacity(&self) -> usize {
                self.inner.block_capacity()
            }
            fn num_blocks(&self) -> usize {
                self.inner.num_blocks()
            }
            fn try_read_block(&mut self, id: usize, buf: &mut [f64]) -> Result<(), StorageError> {
                if id == 0 {
                    self.started.store(true, Ordering::Release);
                    return Err(StorageError::Injected {
                        op: "read",
                        block: 0,
                    });
                }
                self.inner.try_read_block(id, buf)
            }
            fn try_write_block(&mut self, id: usize, buf: &[f64]) -> Result<(), StorageError> {
                self.inner.try_write_block(id, buf)
            }
            fn grow(&mut self, blocks: usize) {
                self.inner.grow(blocks);
            }
        }

        let started = Arc::new(AtomicBool::new(false));
        let policy = RetryPolicy {
            max_retries: 4,
            base_backoff: Duration::from_millis(40),
            max_backoff: Duration::from_millis(400),
        };
        // Backoff budget: 40+80+160+320 = 600 ms before exhaustion.
        let stats = IoStats::new();
        let store = RetryingBlockStore::new(
            OneBadBlock {
                inner: MemBlockStore::new(4, 8, stats.clone()),
                started: Arc::clone(&started),
            },
            policy,
        );
        // One shard: the faulty load and the probe reads share its lock.
        let p = ShardedBufferPool::new(store, 4, 1, stats);
        p.write(1, 0, 42.0); // warm block 1 into the cache
        std::thread::scope(|scope| {
            let faulty = scope
                .spawn(|| std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.read(0, 0))));
            while !started.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            // The faulty load is now sleeping its backoff. A cached read
            // on the same shard must complete far inside the 600 ms
            // retry budget — under the old held-lock discipline it
            // waited the whole budget out.
            let t0 = Instant::now();
            assert_eq!(p.read(1, 0), 42.0);
            let waited = t0.elapsed();
            assert!(
                waited < Duration::from_millis(200),
                "same-shard cached read stalled {waited:?} behind retry backoff"
            );
            let err = crate::block::downcast_storage_error(
                faulty
                    .join()
                    .expect("thread itself must not die")
                    .unwrap_err(),
            );
            assert!(matches!(
                err,
                StorageError::RetriesExhausted { block: 0, .. }
            ));
        });
    }

    #[test]
    fn waiters_share_one_in_flight_load() {
        use std::time::Duration;

        // A slow store: every miss costs 30 ms.
        let stats = IoStats::new();
        let slow = crate::throttle::ThrottledBlockStore::new(
            MemBlockStore::new(4, 8, stats.clone()),
            Duration::from_millis(30),
            Duration::ZERO,
        );
        let p = Arc::new(ShardedBufferPool::new(slow, 4, 1, stats.clone()));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let p = Arc::clone(&p);
                scope.spawn(move || assert_eq!(p.read(3, 0), 0.0));
            }
        });
        // All four threads raced for the same cold block: exactly one
        // loaded it from the store, the rest waited on the busy mark.
        assert_eq!(stats.snapshot().block_reads, 1);
    }

    #[test]
    fn sharded_store_matches_one_shard_store() {
        let sharded = mem_shared_store(Tiling1d::new(4, 2), 8, 4, IoStats::new());
        let single = mem_shared_store(Tiling1d::new(4, 2), 8, 1, IoStats::new());
        for i in 0..16usize {
            sharded.write(&[i], (i * 3) as f64);
            single.write(&[i], (i * 3) as f64);
        }
        sharded.apply_tile(0, &[(0, 1.25), (1, -0.5)]);
        single.pool().with_block(0, true, |blk| {
            blk[0] += 1.25;
            blk[1] += -0.5;
        });
        for i in 0..16usize {
            assert_eq!(sharded.read(&[i]), single.read(&[i]), "index {i}");
        }
    }

    #[test]
    fn lru_keeps_recently_used() {
        let (p, stats) = pool(8, 2, 1);
        p.read(0, 0);
        p.read(1, 0);
        p.read(0, 0); // 0 is now more recent than 1
        p.read(2, 0); // must evict 1
        stats.reset();
        p.read(0, 0); // still cached
        assert_eq!(stats.snapshot().block_reads, 0);
        p.read(1, 0); // was evicted
        assert_eq!(stats.snapshot().block_reads, 1);
    }

    #[test]
    fn write_back_only_on_flush_or_evict() {
        let (p, stats) = pool(8, 2, 1);
        p.write(0, 0, 9.0);
        p.write(0, 1, 8.0);
        assert_eq!(stats.snapshot().block_writes, 0, "write-back, not through");
        p.flush();
        assert_eq!(stats.snapshot().block_writes, 1);
        // Flushing twice does not rewrite clean blocks.
        p.flush();
        assert_eq!(stats.snapshot().block_writes, 1);
        // Evicting a clean block writes nothing; evicting a dirty one
        // writes it back exactly once.
        p.read(1, 0);
        p.read(2, 0); // evicts clean block 0
        assert_eq!(stats.snapshot().block_writes, 1);
        p.write(3, 0, 1.0); // evicts clean block 1
        p.read(4, 0); // evicts block 2 (clean)
        p.read(5, 0); // evicts dirty block 3
        assert_eq!(stats.snapshot().block_writes, 2);
        assert_eq!(p.read(3, 0), 1.0);
    }

    #[test]
    fn into_parts_flushes() {
        let stats = IoStats::new();
        let cs = mem_shared_store(Tiling1d::new(4, 2), 2, 1, stats.clone());
        cs.write(&[5], 7.0);
        assert_eq!(stats.snapshot().block_writes, 0);
        let (map, mut store) = cs.into_parts();
        assert_eq!(stats.snapshot().block_writes, 1);
        let loc = map.locate(&[5]);
        let mut buf = vec![0.0; map.block_capacity()];
        store.read_block(loc.tile, &mut buf);
        assert_eq!(buf[loc.slot], 7.0);
    }

    #[test]
    #[should_panic(expected = "block capacity mismatch")]
    fn rejects_capacity_mismatch() {
        let stats = IoStats::new();
        let store = MemBlockStore::new(2, 100, stats.clone());
        let _ = SharedCoeffStore::new(Tiling1d::new(4, 2), store, 2, 1, stats);
    }

    #[test]
    fn rehouse_keeps_contents_budget_and_counters() {
        let stats = IoStats::new();
        let cs = mem_shared_store(Tiling1d::new(4, 2), 6, 1, stats.clone());
        cs.write(&[3], 2.5);
        let cs = cs.rehouse(3, |s| s);
        assert_eq!((cs.pool().num_shards(), cs.pool().budget()), (3, 6));
        let cs = cs.rehouse(1, |s| s);
        assert_eq!(cs.pool().budget(), 6);
        assert_eq!(cs.read(&[3]), 2.5);
        let snap = stats.snapshot();
        assert_eq!((snap.block_writes, snap.block_reads), (1, 2));
    }

    #[test]
    fn pool_counters_track_hits_misses_evictions() {
        let (p, stats) = pool(8, 2, 1);
        p.read(0, 0); // miss
        p.read(0, 1); // hit
        p.write(1, 0, 2.0); // miss
        p.read(2, 0); // miss, evicts clean block 0
        p.read(3, 0); // miss, evicts dirty block 1 (write-back)
        let s = stats.snapshot();
        assert_eq!(s.pool_hits, 1);
        assert_eq!(s.pool_misses, 4);
        assert_eq!(s.pool_accesses(), 5);
        assert_eq!(s.pool_evictions, 2);
        assert_eq!(s.pool_writebacks, 1);
        // Every block write the store saw was a pool write-back.
        assert_eq!(s.block_writes, s.pool_writebacks);
    }

    #[test]
    fn a_tile_batch_is_one_pool_access() {
        let stats = IoStats::new();
        let cs = mem_shared_store(Tiling1d::new(4, 2), 2, 1, stats.clone());
        let cap = cs.map().block_capacity();
        // A cold tile: one miss however many of its slots the batch adds.
        cs.apply_batch(&mut (0..cap).map(|slot| (1, slot, 1.0)).collect());
        let s = stats.snapshot();
        assert_eq!((s.pool_hits, s.pool_misses), (0, 1));
        // The same tile again, now cached: exactly one hit.
        stats.reset();
        cs.apply_batch(&mut (0..cap).map(|slot| (1, slot, 1.0)).collect());
        let s = stats.snapshot();
        assert_eq!((s.pool_hits, s.pool_misses), (1, 0));
        assert_eq!(s.coeff_writes, cap as u64);
    }

    /// A store whose block 0 always fails on reads, and on writes while
    /// the shared `writes` flag is set.
    struct FailingBlockZero {
        inner: MemBlockStore,
        reads: bool,
        writes: Arc<AtomicBool>,
    }

    impl BlockStore for FailingBlockZero {
        fn block_capacity(&self) -> usize {
            self.inner.block_capacity()
        }
        fn num_blocks(&self) -> usize {
            self.inner.num_blocks()
        }
        fn try_read_block(&mut self, id: usize, buf: &mut [f64]) -> Result<(), StorageError> {
            if id == 0 && self.reads {
                return Err(StorageError::Checksum {
                    block: 0,
                    stored: 1,
                    computed: 2,
                });
            }
            self.inner.try_read_block(id, buf)
        }
        fn try_write_block(&mut self, id: usize, buf: &[f64]) -> Result<(), StorageError> {
            if id == 0 && self.writes.load(Ordering::Relaxed) {
                return Err(StorageError::Injected {
                    op: "write",
                    block: 0,
                });
            }
            self.inner.try_write_block(id, buf)
        }
        fn grow(&mut self, blocks: usize) {
            self.inner.grow(blocks);
        }
    }

    fn typed_failure<R>(f: impl FnOnce() -> R) -> StorageError {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .err()
            .expect("access must fail");
        crate::block::downcast_storage_error(payload)
    }

    #[test]
    fn failed_miss_read_does_not_poison_the_pool() {
        let stats = IoStats::new();
        let mut inner = MemBlockStore::new(4, 4, stats.clone());
        inner.write_block(1, &[1.0, 2.0, 3.0, 4.0]);
        let store = FailingBlockZero {
            inner,
            reads: true,
            writes: Arc::new(AtomicBool::new(false)),
        };
        let p = ShardedBufferPool::new(store, 2, 1, stats);
        let err = typed_failure(|| p.read(0, 0));
        assert!(matches!(err, StorageError::Checksum { block: 0, .. }));
        assert_eq!(p.read(1, 2), 3.0, "a healthy block still reads");
        let err = typed_failure(|| p.read(0, 0));
        assert!(matches!(err, StorageError::Checksum { block: 0, .. }));
        p.flush();
    }

    #[test]
    fn failed_write_back_does_not_poison_the_pool() {
        let stats = IoStats::new();
        let failing = Arc::new(AtomicBool::new(true));
        let store = FailingBlockZero {
            inner: MemBlockStore::new(4, 8, stats.clone()),
            reads: false,
            writes: Arc::clone(&failing),
        };
        // One shard of two frames: blocks 0 and 4 share it.
        let p = ShardedBufferPool::new(store, 2, 1, stats.clone());
        p.write(0, 0, 5.0);
        p.write(4, 0, 8.0);
        // Loading block 1 evicts dirty block 0, whose write-back fails.
        let err = typed_failure(|| p.read(1, 0));
        assert!(matches!(err, StorageError::Injected { block: 0, .. }));
        // The failed victim went back into the cache, dirty.
        let reads = stats.snapshot().block_reads;
        assert_eq!(p.read(0, 0), 5.0, "the failed victim keeps its data");
        assert_eq!(stats.snapshot().block_reads, reads, "served from cache");
        // A flush fails on block 0 and must not drop dirty block 4.
        let err = typed_failure(|| p.flush());
        assert!(matches!(err, StorageError::Injected { block: 0, .. }));
        assert_eq!((p.read(0, 0), p.read(4, 0)), (5.0, 8.0));
        // Once the device heals, the next flush writes both blocks.
        failing.store(false, Ordering::Relaxed);
        p.flush();
        assert_eq!(p.read(1, 0), 0.0, "a healthy block still loads");
        let mut store = p.into_store();
        let mut buf = vec![0.0; 4];
        store.read_block(0, &mut buf);
        assert_eq!(buf[0], 5.0);
        store.read_block(4, &mut buf);
        assert_eq!(buf[0], 8.0);
    }

    #[test]
    fn a_frame_being_flushed_is_not_evicted() {
        use std::sync::mpsc;

        // Writing block 0 announces itself, waits for a go-ahead, then
        // fails: the flush is held mid-write while another thread misses.
        struct GatedFailingWrite {
            inner: MemBlockStore,
            entered: mpsc::Sender<()>,
            release: Mutex<mpsc::Receiver<()>>,
        }
        impl BlockStore for GatedFailingWrite {
            fn block_capacity(&self) -> usize {
                self.inner.block_capacity()
            }
            fn num_blocks(&self) -> usize {
                self.inner.num_blocks()
            }
            fn try_read_block(&mut self, id: usize, buf: &mut [f64]) -> Result<(), StorageError> {
                self.inner.try_read_block(id, buf)
            }
            fn try_write_block(&mut self, id: usize, buf: &[f64]) -> Result<(), StorageError> {
                if id != 0 {
                    return self.inner.try_write_block(id, buf);
                }
                self.entered.send(()).unwrap();
                self.release.lock().unwrap().recv().unwrap();
                Err(StorageError::Injected {
                    op: "write",
                    block: 0,
                })
            }
            fn grow(&mut self, blocks: usize) {
                self.inner.grow(blocks);
            }
        }

        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let stats = IoStats::new();
        let store = GatedFailingWrite {
            inner: MemBlockStore::new(4, 4, stats.clone()),
            entered: entered_tx,
            release: Mutex::new(release_rx),
        };
        // One frame: the miss on block 1 must evict, and block 0 is the
        // only candidate while the flush is writing it.
        let p = ShardedBufferPool::new(store, 1, 1, stats);
        p.write(0, 0, 5.0);
        std::thread::scope(|scope| {
            let flush = scope.spawn(|| typed_failure(|| p.flush()));
            entered.recv().unwrap();
            let miss = scope.spawn(|| p.read(1, 0));
            // The miss has picked its victims once its count is visible.
            while p.shard_counters()[0].misses < 2 {
                std::thread::yield_now();
            }
            release.send(()).unwrap();
            let err = flush.join().unwrap();
            assert!(matches!(err, StorageError::Injected { block: 0, .. }));
            assert_eq!(miss.join().unwrap(), 0.0);
        });
        // The failed flush left block 0 cached and dirty, not dropped.
        assert_eq!(p.read(0, 0), 5.0);
    }
}
