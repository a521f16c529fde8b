//! **E-SERVE** — workers × clients sweep of the concurrent query server.
//!
//! Not a paper experiment: the paper maintains the transformed data, this
//! harness measures *serving* it. A 64×64 standard-form store sits behind
//! a [`ThrottledBlockStore`] emulating a device with 200 µs per-block read
//! latency and internal parallelism (shared positional reads), cached by a
//! sharded pool far smaller than the tile count so misses dominate. For
//! every (execution slots × closed-loop clients × `batch_max`)
//! combination the sweep runs a fixed per-client mix of point and
//! range-sum queries through the real TCP server and reports wall time,
//! throughput, mean batch size and the pool hit rate.
//!
//! The server runs each connection to completion: a batch holds the
//! requests one connection has pipelined, and `workers` execution slots
//! bound how many batches run at once. Two effects are on display:
//!
//! * **slot overlap** — with several clients in flight, batches on
//!   different slots overlap their miss sleeps under the pool's read
//!   lock, so throughput scales with slots even on a single CPU (the
//!   sleeps, not the CPU, are the bottleneck);
//! * **no cross-client batching** — a closed-loop client keeps one
//!   request in flight, so every batch holds one request (mean batch
//!   1.0) and clients beyond the slot count wait for a slot instead of
//!   sharing a tile-major sweep. That is the price of dropping the shared
//!   queue, and the table shows it.
//!
//! With one client there is exactly one request in flight and extra
//! slots cannot help; the table says so instead of pretending.

use ss_array::{MultiIndexIter, NdArray, Shape};
use ss_bench::{emit_json_row, fmt_f, timed_ms, Table};
use ss_core::tiling::StandardTiling;
use ss_core::TilingMap;
use ss_datagen::SplitMix64;
use ss_obs::json::Value;
use ss_serve::{Client, QueryServer, ServeConfig};
use ss_storage::{IoStats, MemBlockStore, SharedCoeffStore, ThrottledBlockStore};
use std::time::Duration;

const N: u32 = 6; // 64 x 64 domain
const B: u32 = 2; // 4x4-coefficient tiles -> 16x16 = 256 tiles
const POOL: usize = 48; // blocks cached (~19% of tiles): misses dominate
const SHARDS: usize = 8;
const READ_LAT_US: u64 = 200;
const REQS_PER_CLIENT: usize = 150;
const BATCHES: [usize; 3] = [1, 4, 16];
const WORKERS: [usize; 3] = [1, 2, 4];
const CLIENTS: [usize; 3] = [1, 4, 8];

type ServedStore = SharedCoeffStore<StandardTiling, ThrottledBlockStore<MemBlockStore>>;

/// Builds the served store: populate through an unthrottled serial store,
/// then wrap the block file in the read throttle for serving.
fn build_store(stats: IoStats) -> ServedStore {
    let side = 1usize << N;
    let data = NdArray::from_fn(Shape::cube(2, side), |idx| {
        ((idx[0].wrapping_mul(2654435761) ^ idx[1].wrapping_mul(40503)) % 1000) as f64 - 500.0
    });
    let t = ss_core::standard::forward_to(&data);
    let map = StandardTiling::new(&[N; 2], &[B; 2]);
    let mem = MemBlockStore::new(map.block_capacity(), map.num_tiles(), stats.clone());
    let cs = SharedCoeffStore::new(map, mem, 1 << 10, 1, stats.clone());
    for idx in MultiIndexIter::new(&[side, side]) {
        cs.write(&idx, t.get(&idx));
    }
    cs.flush();
    let (map, mem) = cs.into_parts();
    let throttled =
        ThrottledBlockStore::new(mem, Duration::from_micros(READ_LAT_US), Duration::ZERO);
    SharedCoeffStore::new(map, throttled, POOL, SHARDS, stats)
}

/// One closed-loop client: connect, then issue the seeded query mix one
/// request at a time (the next request leaves only after the answer).
fn run_client(addr: std::net::SocketAddr, seed: u64) {
    let side = 1usize << N;
    let mut client = Client::connect(addr).expect("connect");
    let mut rng = SplitMix64::new(seed);
    for _ in 0..REQS_PER_CLIENT {
        if rng.below(10) < 7 {
            let pos = [rng.below(side), rng.below(side)];
            client.point(&pos).expect("point");
        } else {
            let (a, b) = (rng.below(side), rng.below(side));
            let (c, d) = (rng.below(side), rng.below(side));
            client
                .range_sum(&[a.min(b), c.min(d)], &[a.max(b), c.max(d)])
                .expect("range_sum");
        }
    }
}

fn main() {
    let side = 1usize << N;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("# E-SERVE — query server worker × client × batch sweep\n");
    println!(
        "domain {side}x{side}, tiles {t}x{t}, pool {POOL} of {total} blocks, \
         {READ_LAT_US} µs emulated read latency, {REQS_PER_CLIENT} requests \
         per client (70% point / 30% range-sum), batch_max swept over \
         {BATCHES:?}; host has {cores} core(s)\n",
        t = 1usize << (N - B),
        total = 1usize << (2 * (N - B)),
    );
    let mut table = Table::new(&[
        "workers",
        "clients",
        "batch_max",
        "requests",
        "wall ms",
        "qps",
        "mean batch",
        "hit %",
    ]);
    let registry = ss_obs::global();
    let (ok_ctr, batch_ctr) = (
        registry.counter("serve.requests_ok"),
        registry.counter("serve.batches"),
    );
    let mut qps_at = Vec::new();
    for &workers in &WORKERS {
        for &clients in &CLIENTS {
            for &batch_max in &BATCHES {
                let before = (ok_ctr.get(), batch_ctr.get());
                let stats = IoStats::new();
                let store = build_store(stats.clone());
                stats.reset(); // count only the serving phase
                let server = QueryServer::bind(
                    "127.0.0.1:0",
                    store,
                    vec![N; 2],
                    ServeConfig {
                        workers,
                        batch_max,
                        max_requests: None,
                        slow_ns: None,
                    },
                )
                .expect("bind");
                let addr = server.local_addr();
                let (_, wall_ms) = timed_ms(|| {
                    std::thread::scope(|scope| {
                        for c in 0..clients {
                            scope.spawn(move || run_client(addr, 0x5E44E + c as u64));
                        }
                    });
                });
                server.shutdown();
                let requests = (clients * REQS_PER_CLIENT) as u64;
                let answered = ok_ctr.get() - before.0;
                assert_eq!(answered, requests, "every request answered exactly once");
                let batches = batch_ctr.get() - before.1;
                let qps = requests as f64 / (wall_ms / 1000.0);
                let mean_batch = requests as f64 / batches.max(1) as f64;
                let snap = stats.snapshot();
                let hit_pct = 100.0 * snap.pool_hits as f64 / snap.pool_accesses().max(1) as f64;
                qps_at.push(((workers, clients, batch_max), qps));
                table.row(&[
                    &workers,
                    &clients,
                    &batch_max,
                    &requests,
                    &fmt_f(wall_ms, 1),
                    &fmt_f(qps, 0),
                    &fmt_f(mean_batch, 2),
                    &fmt_f(hit_pct, 1),
                ]);
                emit_json_row(
                    "serve",
                    &[
                        ("workers", Value::from(workers as u64)),
                        ("clients", Value::from(clients as u64)),
                        ("requests", Value::from(requests)),
                        ("wall_ms", Value::from(wall_ms)),
                        ("qps", Value::from(qps)),
                        ("mean_batch", Value::from(mean_batch)),
                        ("pool_hit_pct", Value::from(hit_pct)),
                        ("read_latency_us", Value::from(READ_LAT_US)),
                        ("batch_max", Value::from(batch_max as u64)),
                    ],
                );
            }
        }
    }
    table.print();
    let at = |w: usize, c: usize, b: usize| {
        qps_at
            .iter()
            .find(|(cfg, _)| *cfg == (w, c, b))
            .map(|(_, q)| *q)
            .expect("swept configuration")
    };
    let speedup = at(4, 8, 4) / at(1, 8, 4);
    println!(
        "4-slot vs 1-slot speedup at 8 clients (batch_max 4): {}x",
        fmt_f(speedup, 2)
    );
    let batch_gain = at(4, 8, 16) / at(4, 8, 1);
    println!(
        "batch_max 16 vs 1 at 4 workers / 8 clients: {}x",
        fmt_f(batch_gain, 2)
    );
}
