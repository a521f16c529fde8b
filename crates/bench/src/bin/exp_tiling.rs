//! **E8 / Section 3 ablation** — the value of the tiled block allocation.
//!
//! Compares per-query *block reads* on the same transformed data under
//! three layouts/plans:
//!
//! 1. row-major (naive) allocation, Lemma 1/2 plans,
//! 2. subtree tiling, Lemma 1/2 plans (root paths cluster into
//!    `≈ ceil(n/b)` tiles),
//! 3. subtree tiling + materialised scaling slots, single-tile fast path.
//!
//! This isolates the claim that tiling "minimises the number of disk I/Os
//! needed to perform any operation in the wavelet domain", and quantifies
//! the extra win from the redundant per-tile scaling coefficient.

use ss_array::{MultiIndexIter, NdArray, Shape};
use ss_bench::{fmt_f, Table};
use ss_core::tiling::{NaiveMap, StandardTiling};
use ss_core::TilingMap;
use ss_datagen::SplitMix64;
use ss_query::{point_standard, point_standard_fast, range_sum_standard};
use ss_storage::{mem_shared_store, IoStats, MemBlockStore, SharedCoeffStore};

const N_LEVELS: u32 = 8; // 256 x 256
const B_LEVELS: u32 = 2; // 16-coefficient tiles (4x4)
const QUERIES: usize = 500;

fn fill<M: TilingMap>(
    map: M,
    t: &NdArray<f64>,
    stats: IoStats,
) -> SharedCoeffStore<M, MemBlockStore> {
    let cs = mem_shared_store(map, 1 << 14, 1, stats);
    for idx in MultiIndexIter::new(t.shape().dims()) {
        cs.write(&idx, t.get(&idx));
    }
    cs.flush();
    cs
}

fn main() {
    let side = 1usize << N_LEVELS;
    println!("# E8 — block reads per query: naive vs tiled vs tiled+fast-path\n");
    println!("dataset {side} x {side}, 4 x 4 tiles, {QUERIES} random queries each\n");
    let data = NdArray::from_fn(Shape::cube(2, side), |idx| {
        ((idx[0] * 13 + idx[1] * 7) % 29) as f64
    });
    let t = ss_core::standard::forward_to(&data);

    let stats_n = IoStats::new();
    let mut naive = fill(
        NaiveMap::new(Shape::cube(2, side), 1 << (2 * B_LEVELS as usize)),
        &t,
        stats_n.clone(),
    );
    let stats_t = IoStats::new();
    let mut tiled = fill(
        StandardTiling::new(&[N_LEVELS; 2], &[B_LEVELS; 2]),
        &t,
        stats_t.clone(),
    );
    ss_query::materialize_standard_scalings(&tiled, &[N_LEVELS; 2]);

    let mut rng = SplitMix64::new(99);
    let points: Vec<[usize; 2]> = (0..QUERIES)
        .map(|_| [rng.below(side), rng.below(side)])
        .collect();
    let ranges: Vec<([usize; 2], [usize; 2])> = (0..QUERIES)
        .map(|_| {
            let lo = [rng.below(side - 16), rng.below(side - 16)];
            let hi = [lo[0] + 1 + rng.below(15), lo[1] + 1 + rng.below(15)];
            (lo, hi)
        })
        .collect();

    let mut table = Table::new(&["query", "layout/plan", "avg block reads", "avg coeff reads"]);

    // Point queries.
    let run_points =
        |label: &str, stats: &IoStats, f: &mut dyn FnMut(&[usize; 2]) -> f64| -> (f64, f64) {
            let mut blocks = 0u64;
            let mut coeffs = 0u64;
            for p in &points {
                stats.reset();
                let got = f(p);
                let want = data.get(p);
                assert!((got - want).abs() < 1e-9, "{label}: wrong answer at {p:?}");
                let used = stats.take();
                blocks += used.block_reads;
                coeffs += used.coeff_reads;
            }
            (
                blocks as f64 / QUERIES as f64,
                coeffs as f64 / QUERIES as f64,
            )
        };

    naive.clear_cache();
    let (b, c) = run_points("naive", &stats_n, &mut |p| {
        naive.clear_cache();
        point_standard(&mut naive, &[N_LEVELS; 2], p)
    });
    table.row(&[&"point", &"naive row-major", &fmt_f(b, 2), &fmt_f(c, 1)]);

    let (b, c) = run_points("tiled", &stats_t, &mut |p| {
        tiled.clear_cache();
        point_standard(&mut tiled, &[N_LEVELS; 2], p)
    });
    table.row(&[&"point", &"subtree tiles", &fmt_f(b, 2), &fmt_f(c, 1)]);

    let (b, c) = run_points("fast", &stats_t, &mut |p| {
        tiled.clear_cache();
        point_standard_fast(&mut tiled, p)
    });
    table.row(&[&"point", &"tiles + fast path", &fmt_f(b, 2), &fmt_f(c, 1)]);

    // Range sums.
    let run_ranges =
        |stats: &IoStats, f: &mut dyn FnMut(&[usize; 2], &[usize; 2]) -> f64| -> (f64, f64) {
            let mut blocks = 0u64;
            let mut coeffs = 0u64;
            for (lo, hi) in &ranges {
                stats.reset();
                let got = f(lo, hi);
                let want = data.region_sum(lo, hi);
                assert!((got - want).abs() < 1e-6, "wrong range sum");
                let used = stats.take();
                blocks += used.block_reads;
                coeffs += used.coeff_reads;
            }
            (
                blocks as f64 / QUERIES as f64,
                coeffs as f64 / QUERIES as f64,
            )
        };

    let (b, c) = run_ranges(&stats_n, &mut |lo, hi| {
        naive.clear_cache();
        range_sum_standard(&mut naive, &[N_LEVELS; 2], lo, hi)
    });
    table.row(&[&"range-sum", &"naive row-major", &fmt_f(b, 2), &fmt_f(c, 1)]);

    let (b, c) = run_ranges(&stats_t, &mut |lo, hi| {
        tiled.clear_cache();
        range_sum_standard(&mut tiled, &[N_LEVELS; 2], lo, hi)
    });
    table.row(&[&"range-sum", &"subtree tiles", &fmt_f(b, 2), &fmt_f(c, 1)]);

    let (b, c) = run_ranges(&stats_t, &mut |lo, hi| {
        tiled.clear_cache();
        ss_query::range_sum_standard_fast(&mut tiled, lo, hi)
    });
    table.row(&[
        &"range-sum",
        &"tiles + fast path (1 block/piece)",
        &fmt_f(b, 2),
        &fmt_f(c, 1),
    ]);

    table.print();
    println!("Expected shape: tiling cuts point-query block reads from ≈ (n+1)^2-ish to");
    println!("≈ ceil(n/b)^2, and the in-tile scaling slots cut them to exactly 1.");
}
