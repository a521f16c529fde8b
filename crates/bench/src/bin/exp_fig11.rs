//! **E3 / Figure 11** — effect of larger memory on transformation cost.
//!
//! Paper setup: the 16 GB 4-d TEMPERATURE cube, transformed with growing
//! memory; I/O reported in *coefficients*. Series: Vitter et al.,
//! SHIFT-SPLIT standard, SHIFT-SPLIT non-standard.
//!
//! Our setup: a synthetic TEMPERATURE-like cube (`ss-datagen`), default
//! `32^4` (≈ 1M cells, 8 MB — same dimensionality, laptop scale), memory
//! swept as cubic chunks `M^4`. The claims to reproduce (paper Figure 11):
//!
//! 1. larger memory sharply reduces the standard form's cost (its SPLIT
//!    cost falls as `(1 + log(N/M)/M)^d`),
//! 2. the non-standard form is nearly flat in memory (its SPLIT is
//!    negligible),
//! 3. SHIFT-SPLIT beats Vitter at every memory size.

use ss_bench::{fmt_count, Table};
use ss_core::tiling::{NonStandardTiling, StandardTiling};
use ss_datagen::temperature_cube;
use ss_storage::{mem_shared_store, IoStats};
use ss_transform::{
    transform_nonstandard_parallel, transform_standard, vitter_transform_standard, ArraySource,
};

const D: usize = 4;
const N_LEVELS: u32 = 5; // 32 per axis -> 32^4 = 1,048,576 cells
const B_LEVELS: u32 = 2; // 4^4 = 256 coefficients (2 KB) per block

fn main() {
    println!("# E3 / Figure 11 — I/O (coefficients) vs memory size, d=4\n");
    let side = 1usize << N_LEVELS;
    println!(
        "dataset: TEMPERATURE-like {side}^4 cube ({} cells); block {} coeffs\n",
        fmt_count((side * side * side * side) as u64),
        1usize << (B_LEVELS as usize * D),
    );
    let data = temperature_cube(&[side; 4], 20050614);
    let mut table = Table::new(&[
        "memory M^4 (coeffs)",
        "Vitter",
        "Shift-Split (Standard)",
        "Shift-Split (Non-Standard)",
    ]);
    // Chunk side 2 (m = 1) is a degenerate configuration where per-chunk
    // SPLIT dominates everything; the paper's sweep starts at a realistic
    // memory, and so does ours.
    for m in 2..=N_LEVELS {
        let src = ArraySource::new(&data, &[m; 4]);
        let mem_coeffs = 1usize << (4 * m as usize);
        let block_cap = 1usize << (B_LEVELS as usize * D);

        let stats_v = IoStats::new();
        let _ = vitter_transform_standard(&src, mem_coeffs, block_cap, stats_v.clone());

        let stats_s = IoStats::new();
        let cs = mem_shared_store(
            StandardTiling::new(&[N_LEVELS; 4], &[B_LEVELS; 4]),
            (mem_coeffs / block_cap).max(1),
            1,
            stats_s.clone(),
        );
        transform_standard(&src, &cs, false);

        let stats_z = IoStats::new();
        let cz = mem_shared_store(
            NonStandardTiling::new(D, N_LEVELS, B_LEVELS),
            (mem_coeffs / block_cap).max(1),
            1,
            stats_z.clone(),
        );
        transform_nonstandard_parallel(&src, &cz, 1);

        table.row(&[
            &fmt_count(mem_coeffs as u64),
            &fmt_count(stats_v.snapshot().coeffs()),
            &fmt_count(stats_s.snapshot().coeffs()),
            &fmt_count(stats_z.snapshot().coeffs()),
        ]);
    }
    table.print();
    println!("Expected shape (paper Fig. 11): Standard falls steeply with memory;");
    println!("Non-Standard is flat and lowest; Vitter is highest at every size.");
}
