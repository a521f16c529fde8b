//! Model test for the buffer pool's eviction order.
//!
//! The paper's I/O counts are those of an exact global LRU over a bounded
//! buffer of blocks. This suite drives seeded random sequences of `read`,
//! `write`, `add`, `apply_batch`, `flush` and `clear` against a
//! [`SharedCoeffStore`] and, in lockstep, against a reference LRU kept as
//! a `VecDeque` of cached blocks (one per shard, fed the sub-stream of
//! block ids `id % shards`). After every operation the two must agree on
//! every shard's hit, miss, eviction and write-back counters, on the exact
//! sequence of block ids written to the store, and on every value read.
//!
//! `SS_LRU_CASES` overrides the number of sampled cases per test.

use proptest::prelude::*;
use ss_core::{Tiling1d, TilingMap};
use ss_datagen::SplitMix64;
use ss_storage::{
    BlockStore, IoStats, MemBlockStore, ShardCounters, SharedCoeffStore, StorageError,
};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Operations per sampled sequence.
const OPS: usize = 300;

fn cases() -> ProptestConfig {
    let cases = std::env::var("SS_LRU_CASES").ok();
    ProptestConfig::with_cases(cases.map_or(48, |c| c.parse().expect("SS_LRU_CASES")))
}

/// A memory store that logs the id of every block written to it.
struct Recording {
    inner: MemBlockStore,
    written: Arc<Mutex<Vec<usize>>>,
}

impl BlockStore for Recording {
    fn block_capacity(&self) -> usize {
        self.inner.block_capacity()
    }
    fn num_blocks(&self) -> usize {
        self.inner.num_blocks()
    }
    fn try_read_block(&mut self, id: usize, buf: &mut [f64]) -> Result<(), StorageError> {
        self.inner.try_read_block(id, buf)
    }
    fn try_read_block_shared(
        &self,
        id: usize,
        buf: &mut [f64],
    ) -> Option<Result<(), StorageError>> {
        self.inner.try_read_block_shared(id, buf)
    }
    fn try_write_block(&mut self, id: usize, buf: &[f64]) -> Result<(), StorageError> {
        self.written.lock().unwrap().push(id);
        self.inner.try_write_block(id, buf)
    }
    fn grow(&mut self, blocks: usize) {
        self.inner.grow(blocks);
    }
}

struct ModelFrame {
    id: usize,
    dirty: bool,
    data: Vec<f64>,
}

/// The reference: one shard's LRU, least recent at the front.
struct ModelShard {
    budget: usize,
    lru: VecDeque<ModelFrame>,
    counters: ShardCounters,
}

impl ModelShard {
    /// The cached block `id` after one access, loading (and evicting) on
    /// a miss; eviction write-backs go to `store` and `written`.
    fn access(
        &mut self,
        id: usize,
        mutate: bool,
        store: &mut [Vec<f64>],
        written: &mut Vec<usize>,
    ) -> &mut Vec<f64> {
        if let Some(k) = self.lru.iter().position(|f| f.id == id) {
            self.counters.hits += 1;
            let frame = self.lru.remove(k).unwrap();
            self.lru.push_back(frame);
        } else {
            self.counters.misses += 1;
            while self.lru.len() + 1 > self.budget {
                let victim = self.lru.pop_front().unwrap();
                self.counters.evictions += 1;
                if victim.dirty {
                    self.counters.writebacks += 1;
                    written.push(victim.id);
                    store[victim.id] = victim.data;
                }
            }
            let data = store[id].clone();
            self.lru.push_back(ModelFrame {
                id,
                dirty: false,
                data,
            });
        }
        let frame = self.lru.back_mut().unwrap();
        frame.dirty |= mutate;
        &mut frame.data
    }

    /// Writes the dirty frames back in block-id order.
    fn flush(&mut self, store: &mut [Vec<f64>], written: &mut Vec<usize>) {
        let mut dirty: Vec<&mut ModelFrame> = self.lru.iter_mut().filter(|f| f.dirty).collect();
        dirty.sort_by_key(|f| f.id);
        for frame in dirty {
            frame.dirty = false;
            self.counters.writebacks += 1;
            written.push(frame.id);
            store[frame.id] = frame.data.clone();
        }
    }
}

/// The reference for a whole pool: shard `s` serves ids with `id % n == s`.
struct Model {
    shards: Vec<ModelShard>,
    store: Vec<Vec<f64>>,
    written: Vec<usize>,
}

impl Model {
    fn access(&mut self, id: usize, mutate: bool) -> &mut Vec<f64> {
        let n = self.shards.len();
        self.shards[id % n].access(id, mutate, &mut self.store, &mut self.written)
    }

    fn flush(&mut self) {
        for shard in &mut self.shards {
            shard.flush(&mut self.store, &mut self.written);
        }
    }

    fn clear(&mut self) {
        self.flush();
        for shard in &mut self.shards {
            shard.lru.clear();
        }
    }
}

/// Runs one seeded operation sequence on a pool of `shards` shards of
/// `budget` frames each, checking it against the model after every step.
fn check_against_model(shards: usize, budget: usize, seed: u64) {
    let map = Tiling1d::new(6, 2);
    let (tiles, cap) = (map.num_tiles(), map.block_capacity());
    let stats = IoStats::new();
    let written = Arc::new(Mutex::new(Vec::new()));
    let store = Recording {
        inner: MemBlockStore::new(cap, tiles, stats.clone()),
        written: Arc::clone(&written),
    };
    let cs = SharedCoeffStore::new(map, store, budget * shards, shards, stats.clone());
    let pool = cs.pool();
    let mut model = Model {
        shards: (0..shards)
            .map(|_| ModelShard {
                budget,
                lru: VecDeque::new(),
                counters: ShardCounters::default(),
            })
            .collect(),
        store: vec![vec![0.0; cap]; tiles],
        written: Vec::new(),
    };
    let mut rng = SplitMix64::new(seed);
    for step in 0..OPS {
        // Small integer values keep every sum exact in any order.
        let (id, slot) = (rng.below(tiles), rng.below(cap));
        let value = rng.below(17) as f64 - 8.0;
        match rng.below(20) {
            0..=6 => {
                let got = pool.read(id, slot);
                assert_eq!(got, model.access(id, false)[slot], "step {step}: read");
            }
            7..=10 => {
                pool.write(id, slot, value);
                model.access(id, true)[slot] = value;
            }
            11..=14 => {
                pool.add(id, slot, value);
                model.access(id, true)[slot] += value;
            }
            15..=17 => {
                let len = 1 + rng.below(6);
                let mut batch: Vec<(usize, usize, f64)> = (0..len)
                    .map(|_| (rng.below(tiles), rng.below(cap), rng.below(5) as f64))
                    .collect();
                let mut sorted = batch.clone();
                sorted.sort_by_key(|&(tile, slot, _)| (tile, slot));
                cs.apply_batch(&mut batch);
                let mut last = None;
                for (tile, slot, delta) in sorted {
                    // One pool access per distinct tile of the batch.
                    let mutate = last != Some(tile);
                    let blk = if mutate {
                        model.access(tile, true)
                    } else {
                        let n = model.shards.len();
                        &mut model.shards[tile % n].lru.back_mut().unwrap().data
                    };
                    blk[slot] += delta;
                    last = Some(tile);
                }
            }
            18 => {
                cs.flush();
                model.flush();
            }
            _ => {
                cs.clear_cache();
                model.clear();
            }
        }
        let counters = pool.shard_counters();
        for (s, (got, want)) in counters.iter().zip(&model.shards).enumerate() {
            assert_eq!(*got, want.counters, "step {step}: shard {s} counters");
        }
        assert_eq!(
            *written.lock().unwrap(),
            model.written,
            "step {step}: blocks written"
        );
        let snap = stats.snapshot();
        let sum = |f: fn(&ShardCounters) -> u64| counters.iter().map(f).sum::<u64>();
        assert_eq!(snap.pool_hits, sum(|c| c.hits));
        assert_eq!(snap.pool_misses, sum(|c| c.misses));
        assert_eq!(snap.block_reads, snap.pool_misses, "one read per miss");
        assert_eq!(snap.pool_evictions, sum(|c| c.evictions));
        assert_eq!(snap.block_writes, sum(|c| c.writebacks));
    }
    // Flushed, the store holds exactly the model's values.
    let (_, mut store) = cs.into_parts();
    model.flush();
    let mut buf = vec![0.0; cap];
    for (id, want) in model.store.iter().enumerate() {
        store.read_block(id, &mut buf);
        assert_eq!(&buf, want, "block {id}");
    }
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn one_shard_pool_is_an_exact_lru(budget in 1usize..9, seed in any::<u64>()) {
        check_against_model(1, budget, seed);
    }

    #[test]
    fn every_shard_is_an_exact_lru_of_its_sub_stream(
        shards in 2usize..5,
        budget in 1usize..5,
        seed in any::<u64>(),
    ) {
        check_against_model(shards, budget, seed);
    }
}
