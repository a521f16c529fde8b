//! **Ablations** — the design choices DESIGN.md §5 calls out, isolated:
//!
//! 1. z-order vs row-major chunk schedule for the non-standard transform
//!    (the hinge of Result 2's optimality);
//! 2. warm vs cold buffer pool across chunks for the standard transform
//!    (how much cross-chunk tile reuse buys);
//! 3. sparse-aware vs dense chunk scanning on mostly-empty data
//!    (the paper's `z` non-zero values discussion).

use ss_array::{NdArray, Shape};
use ss_bench::{fmt_count, Table};
use ss_core::tiling::{NonStandardTiling, StandardTiling};
use ss_datagen::sparse_cube;
use ss_storage::{mem_shared_store, IoStats};
use ss_transform::{
    transform_nonstandard, transform_nonstandard_parallel, transform_standard,
    transform_standard_sparse, ArraySource,
};

fn main() {
    println!("# Ablations — schedule, cache policy, sparsity\n");
    zorder_vs_rowmajor();
    warm_vs_cold();
    sparse_vs_dense();
}

fn zorder_vs_rowmajor() {
    println!("## 1. Non-standard chunk schedule: z-order + crest cache vs row-major\n");
    let mut table = Table::new(&[
        "N^2",
        "row-major blocks",
        "z-order blocks",
        "saving",
        "crest peak (coeffs)",
    ]);
    for n in [7u32, 8, 9] {
        let side = 1usize << n;
        let data = NdArray::from_fn(Shape::cube(2, side), |idx| {
            ((idx[0] * 31 + idx[1] * 7) % 19) as f64
        });
        let src = ArraySource::new(&data, &[2, 2]);
        let stats_r = IoStats::new();
        let cr = mem_shared_store(NonStandardTiling::new(2, n, 2), 4, 1, stats_r.clone());
        transform_nonstandard(&src, &cr, false);
        let stats_z = IoStats::new();
        let cz = mem_shared_store(NonStandardTiling::new(2, n, 2), 4, 1, stats_z.clone());
        let report = transform_nonstandard_parallel(&src, &cz, 1);
        let r = stats_r.snapshot().blocks();
        let z = stats_z.snapshot().blocks();
        table.row(&[
            &fmt_count((side * side) as u64),
            &fmt_count(r),
            &fmt_count(z),
            &format!("{:.1}x", r as f64 / z as f64),
            &report.peak_crest_cache,
        ]);
    }
    table.print();
    println!("Result 2 hinges on the schedule: with a tiny (4-block) pool the z-order");
    println!("walk with its O(log) crest cache avoids re-reading ancestor tiles.\n");
}

fn warm_vs_cold() {
    println!("## 2. Standard transform: warm vs cold buffer pool across chunks\n");
    let mut table = Table::new(&["N^2", "cold-cache blocks", "warm-cache blocks", "saving"]);
    for n in [7u32, 8, 9] {
        let side = 1usize << n;
        let data = NdArray::from_fn(Shape::cube(2, side), |idx| {
            ((idx[0] * 13 + idx[1] * 3) % 23) as f64
        });
        let src = ArraySource::new(&data, &[3, 3]);
        let map = StandardTiling::new(&[n; 2], &[2; 2]);
        let stats_c = IoStats::new();
        let cc = mem_shared_store(map.clone(), 32, 1, stats_c.clone());
        transform_standard(&src, &cc, true);
        let stats_w = IoStats::new();
        let cw = mem_shared_store(map, 32, 1, stats_w.clone());
        transform_standard(&src, &cw, false);
        let c = stats_c.snapshot().blocks();
        let w = stats_w.snapshot().blocks();
        table.row(&[
            &fmt_count((side * side) as u64),
            &fmt_count(c),
            &fmt_count(w),
            &format!("{:.1}x", c as f64 / w as f64),
        ]);
    }
    table.print();
    println!("The paper's per-chunk analysis assumes cold tiles; a modest warm pool");
    println!("recovers the shared coarse-path tiles between neighbouring chunks.\n");
}

fn sparse_vs_dense() {
    println!("## 3. Sparse-aware chunk scan on mostly-empty data\n");
    let mut table = Table::new(&[
        "non-zeros z",
        "dense-scan blocks",
        "sparse-scan blocks",
        "occupied chunks",
    ]);
    let side = 256usize;
    for z in [64usize, 512, 4096] {
        let data = sparse_cube(&[side, side], z, 11);
        let src = ArraySource::new(&data, &[3, 3]);
        let map = StandardTiling::new(&[8; 2], &[2; 2]);
        let stats_d = IoStats::new();
        let cd = mem_shared_store(map.clone(), 64, 1, stats_d.clone());
        transform_standard(&src, &cd, false);
        let stats_s = IoStats::new();
        let cs = mem_shared_store(map, 64, 1, stats_s.clone());
        let report = transform_standard_sparse(&src, &cs);
        table.row(&[
            &z,
            &fmt_count(stats_d.snapshot().blocks()),
            &fmt_count(stats_s.snapshot().blocks()),
            &report.chunks,
        ]);
    }
    table.print();
    println!("Sparse I/O tracks the number of occupied chunks (≈ min(z, (N/M)^d)), not");
    println!("the domain volume — the paper's O(z + z·log(N/M)/M) regime.");
}
