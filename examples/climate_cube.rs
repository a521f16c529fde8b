//! Out-of-core transformation of a 4-d climate cube — the paper's
//! Section 6.1 scenario end to end.
//!
//! A TEMPERATURE-like `lat × lon × alt × time` cube is transformed into
//! the wavelet domain three ways (Vitter baseline, SHIFT-SPLIT standard,
//! SHIFT-SPLIT non-standard with z-order), then OLAP-style queries run
//! against the tiled store.
//!
//! ```sh
//! cargo run --release --example climate_cube
//! ```

use shiftsplit::core::tiling::{NonStandardTiling, StandardTiling};
use shiftsplit::datagen::temperature_cube;
use shiftsplit::query;
use shiftsplit::storage::{mem_shared_store, IoStats};
use shiftsplit::transform::{
    transform_nonstandard_parallel, transform_standard, vitter_transform_standard, ArraySource,
};

const N: u32 = 4; // 16 per axis -> 16^4 = 65,536 cells
const M: u32 = 2; // 4^4 = 256-coefficient memory chunks
const B: u32 = 2; // 4^4 = 256-coefficient (2 KB) blocks

fn main() {
    let side = 1usize << N;
    println!("generating {side}^4 TEMPERATURE-like cube…");
    let cube = temperature_cube(&[side; 4], 42);
    let src = ArraySource::new(&cube, &[M; 4]);
    let mem = 1usize << (4 * M);
    let block = 1usize << (4 * B);

    // Vitter-style baseline.
    let stats = IoStats::new();
    let _ = vitter_transform_standard(&src, mem, block, stats.clone());
    println!("Vitter baseline:           {}", stats.snapshot());

    // SHIFT-SPLIT standard form.
    let stats_s = IoStats::new();
    let mut std_store = mem_shared_store(
        StandardTiling::new(&[N; 4], &[B; 4]),
        (mem / block).max(1),
        1,
        stats_s.clone(),
    );
    transform_standard(&src, &std_store, false);
    println!("SHIFT-SPLIT standard:      {}", stats_s.snapshot());

    // SHIFT-SPLIT non-standard form, z-order schedule.
    let stats_z = IoStats::new();
    let ns_store = mem_shared_store(
        NonStandardTiling::new(4, N, B),
        (mem / block).max(1),
        1,
        stats_z.clone(),
    );
    let report = transform_nonstandard_parallel(&src, &ns_store, 1);
    println!(
        "SHIFT-SPLIT non-standard:  {} (crest cache peak: {} coeffs)",
        stats_z.snapshot(),
        report.peak_crest_cache
    );

    // OLAP queries on the standard store.
    println!("\nqueries on the tiled standard-form store:");
    stats_s.reset();
    let point = query::point_standard(&mut std_store, &[N; 4], &[3, 7, 1, 12]);
    println!(
        "  temperature at (lat 3, lon 7, alt 1, t 12) = {point:.2}  [{}]",
        stats_s.snapshot()
    );
    assert!((point - cube.get(&[3, 7, 1, 12])).abs() < 1e-9);

    stats_s.reset();
    let lo = [0usize, 0, 0, 0];
    let hi = [7usize, 15, 0, 15];
    let sum = query::range_sum_standard(&mut std_store, &[N; 4], &lo, &hi);
    let cells = 8 * 16 * 16;
    println!(
        "  mean surface temperature, southern hemisphere = {:.2}  [{}]",
        sum / cells as f64,
        stats_s.snapshot()
    );
    assert!((sum - cube.region_sum(&lo, &hi)).abs() < 1e-6);

    // Extract a small spatio-temporal region via inverse SHIFT-SPLIT.
    stats_s.reset();
    let region =
        query::reconstruct_box_standard(&mut std_store, &[N; 4], &[4, 4, 0, 8], &[7, 7, 3, 11]);
    println!(
        "  extracted a 4x4x4x4 region [{}]; its mean = {:.2}",
        stats_s.snapshot(),
        region.total() / region.len() as f64
    );
    println!("done.");
}
