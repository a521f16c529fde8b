//! Extracting regions from a wavelet-transformed image — the Section 5.4
//! dilemma, measured.
//!
//! Given the transform of a 512 × 512 dataset, extract regions of growing
//! size with the three strategies the paper weighs (full inverse,
//! point-by-point, inverse SHIFT-SPLIT) and watch the crossovers.
//!
//! ```sh
//! cargo run --release --example partial_extract
//! ```

use shiftsplit::array::{MultiIndexIter, NdArray, Shape};
use shiftsplit::core::standard;
use shiftsplit::core::tiling::StandardTiling;
use shiftsplit::query::recon;
use shiftsplit::storage::{mem_shared_store, IoStats};

const N: u32 = 9; // 512 x 512

fn main() {
    let side = 1usize << N;
    // A synthetic "image": smooth gradients plus a few sharp features.
    let data = NdArray::from_fn(Shape::cube(2, side), |idx| {
        let (x, y) = (idx[0] as f64, idx[1] as f64);
        (x / 64.0).sin() * 40.0
            + (y / 48.0).cos() * 30.0
            + if (128..160).contains(&idx[0]) && (300..360).contains(&idx[1]) {
                80.0
            } else {
                0.0
            }
    });
    let t = standard::forward_to(&data);
    let stats = IoStats::new();
    let mut cs = mem_shared_store(
        StandardTiling::new(&[N; 2], &[3; 2]),
        1 << 14,
        1,
        stats.clone(),
    );
    for idx in MultiIndexIter::new(&[side, side]) {
        cs.write(&idx, t.get(&idx));
    }
    cs.flush();

    println!("extracting M x M regions from a {side} x {side} transform:\n");
    println!(
        "{:>4} | {:>16} | {:>16} | {:>14}",
        "M", "shift-split", "point-by-point", "full inverse"
    );
    println!("{:->4}-+-{:->16}-+-{:->16}-+-{:->14}", "", "", "", "");
    for m in [4usize, 16, 64, 256] {
        let lo = [128usize, 320usize.min(side - m)];
        let hi = [lo[0] + m - 1, lo[1] + m - 1];

        cs.clear_cache();
        stats.reset();
        let a = recon::reconstruct_box_standard(&mut cs, &[N; 2], &lo, &hi);
        let ss = stats.snapshot().coeff_reads;

        cs.clear_cache();
        stats.reset();
        let b = recon::reconstruct_pointwise_standard(&mut cs, &[N; 2], &lo, &hi);
        let pw = stats.snapshot().coeff_reads;

        cs.clear_cache();
        stats.reset();
        let c = recon::reconstruct_full_standard(&mut cs, &[N; 2], &lo, &hi);
        let full = stats.snapshot().coeff_reads;

        assert!(a.max_abs_diff(&b) < 1e-9 && a.max_abs_diff(&c) < 1e-9);
        println!("{m:>4} | {ss:>10} reads | {pw:>10} reads | {full:>8} reads");
    }
    println!("\nshift-split wins at every size; point-by-point is never preferable to it,");
    println!("and the full inverse only breaks even as M approaches N (Result 6).");
}
