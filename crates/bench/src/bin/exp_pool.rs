//! **E-POOL** — what one buffer-pool access costs, as a function of the
//! pool's size in frames.
//!
//! Not a paper experiment: the paper counts block transfers, and the
//! pool keeps those counts exact. This harness prices the bookkeeping
//! around them. A 1-shard [`ShardedBufferPool`] over an in-memory store
//! (no device cost at all) serves two streams per budget:
//!
//! * **miss** — a cyclic scan over `frames + 1` blocks: under LRU every
//!   access misses, evicts the least recent frame and loads a block;
//! * **hit** — a cyclic scan over `frames` warm blocks: every access is
//!   served from a cached frame.
//!
//! Each row reports nanoseconds per access over `repeats` timed passes
//! (`median`, `p10`, `p90`), as ss-exp-v1 JSONL rows (`SS_EXP_JSON`).
//! A full run exits non-zero unless the miss cost is flat in the budget:
//! the largest budget's median within 2× of the smallest's. `--quick`
//! runs fewer, shorter passes and only reports the ratio (a CI smoke
//! run on a shared machine).

use ss_bench::{emit_json_row, fmt_f, Table};
use ss_obs::json::Value;
use ss_storage::{IoStats, MemBlockStore, ShardedBufferPool};
use std::hint::black_box;
use std::time::Instant;

/// Pool budgets swept, in frames.
const FRAMES: [usize; 4] = [64, 1 << 10, 1 << 14, 1 << 16];
/// Coefficients per block: the 4×4 tiles of the benchmark's 2-d stores.
const CAPACITY: usize = 16;
/// The flatness gate on the miss stream's medians.
const MAX_MISS_RATIO: f64 = 2.0;

/// The nearest-rank `q`-quantile of ascending `sorted`.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Nanoseconds per access of `passes` timed passes of `accesses` reads
/// cycling over `blocks` blocks, after one untimed warm-up pass.
fn time_stream(frames: usize, blocks: usize, accesses: usize, passes: usize) -> Vec<f64> {
    let stats = IoStats::new();
    let store = MemBlockStore::new(CAPACITY, blocks, stats.clone());
    let pool = ShardedBufferPool::new(store, frames, 1, stats.clone());
    let pass = |start: usize| {
        for k in 0..accesses {
            black_box(pool.read((start + k) % blocks, k % CAPACITY));
        }
    };
    pass(0);
    let mut samples: Vec<f64> = (0..passes)
        .map(|p| {
            let t0 = Instant::now();
            pass((p + 1) * accesses);
            t0.elapsed().as_nanos() as f64 / accesses as f64
        })
        .collect();
    let snap = stats.snapshot();
    let all_miss = blocks > frames;
    assert_eq!(
        snap.pool_hits == 0,
        all_miss,
        "{frames} frames over {blocks} blocks: {snap:?}"
    );
    samples.sort_by(f64::total_cmp);
    samples
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (passes, min_accesses) = if quick { (3, 20_000) } else { (9, 400_000) };
    let mut table = Table::new(&["stream", "frames", "median ns", "p10 ns", "p90 ns"]);
    let mut miss_medians = Vec::new();
    for &frames in &FRAMES {
        // Every pass covers the cycle at least twice.
        let accesses = min_accesses.max(2 * (frames + 1));
        for (stream, blocks) in [("miss", frames + 1), ("hit", frames)] {
            let samples = time_stream(frames, blocks, accesses, passes);
            let (median, p10, p90) = (
                quantile(&samples, 0.5),
                quantile(&samples, 0.1),
                quantile(&samples, 0.9),
            );
            if stream == "miss" {
                miss_medians.push(median);
            }
            table.row(&[
                &stream,
                &frames,
                &fmt_f(median, 1),
                &fmt_f(p10, 1),
                &fmt_f(p90, 1),
            ]);
            emit_json_row(
                "pool",
                &[
                    ("stream", Value::from(stream)),
                    ("frames", Value::from(frames as u64)),
                    ("block_capacity", Value::from(CAPACITY as u64)),
                    ("accesses", Value::from(accesses as u64)),
                    ("repeats", Value::from(passes as u64)),
                    ("unit", Value::from("ns_per_access")),
                    ("median", Value::from(median)),
                    ("p10", Value::from(p10)),
                    ("p90", Value::from(p90)),
                ],
            );
        }
    }
    table.print();
    let ratio = miss_medians[miss_medians.len() - 1] / miss_medians[0];
    println!(
        "miss cost at {} frames / at {} frames: {ratio:.2}x (gate: <= {MAX_MISS_RATIO}x)",
        FRAMES[FRAMES.len() - 1],
        FRAMES[0]
    );
    if ratio > MAX_MISS_RATIO && !quick {
        eprintln!("miss cost grows with the pool budget");
        std::process::exit(1);
    }
}
