//! OLAP-style analysis **entirely in the wavelet domain**: marginals,
//! slices, cube algebra and approximate/progressive aggregates.
//!
//! A 3-d climate cube (lat × alt × time) is transformed once; every
//! analysis step below manipulates coefficients only — no reconstruction
//! until the final numbers are printed.
//!
//! ```sh
//! cargo run --release --example olap_algebra
//! ```

use shiftsplit::array::{MultiIndexIter, NdArray, Shape};
use shiftsplit::core::tiling::StandardTiling;
use shiftsplit::core::{algebra, standard};
use shiftsplit::datagen::temperature_cube;
use shiftsplit::query::{progressive_range_sum, StoredSynopsis};
use shiftsplit::storage::{mem_shared_store, IoStats};

fn main() {
    // lat x lon x alt x time, then project out longitude to keep it 3-d.
    let cube4 = temperature_cube(&[16, 16, 8, 64], 2026);
    let t4 = standard::forward_to(&cube4);
    println!("transformed a 16x16x8x64 climate cube once; all analysis below is");
    println!("coefficient-space only.\n");

    // --- 1. Marginalise: average over longitude (axis 1). ---
    let t3 = algebra::project_avg(&t4, 1);
    println!("1. project_avg(lon): 4-d -> 3-d transform, zero reconstruction");

    // --- 2. Zonal-mean time series: also average over altitude & latitude. ---
    let t_lat_time = algebra::project_avg(&t3, 1); // drop altitude
    let t_time = algebra::project_avg(&t_lat_time, 0); // drop latitude
    let series = shiftsplit::core::haar1d::inverse_to_vec(t_time.as_slice());
    println!(
        "2. global-mean temperature: first/mid/last epoch = {:.2} / {:.2} / {:.2}",
        series[0], series[32], series[63]
    );

    // --- 3. Difference of two epochs, still in coefficients. ---
    let early = algebra::slice_at(&t_time_as_2d(&t_time), 1, 0);
    let late = algebra::slice_at(&t_time_as_2d(&t_time), 1, 63);
    let warming = algebra::add_scaled(&late, &early, -1.0);
    println!(
        "3. warming (epoch 63 − epoch 0) computed by cube algebra: {:.2}",
        warming.get(&[0])
    );

    // --- 4. Coarsen time 2x (multiresolution zoom-out): free in wavelets. ---
    let coarser = algebra::coarsen_axis(&t3, 2);
    println!(
        "4. coarsen(time): {} -> {} coefficients, a pure re-slice",
        t3.len(),
        coarser.len()
    );

    // --- 5. Approximate aggregates from a tiny synopsis. ---
    let lat_alt_time = inverse3(&t3);
    let mut cs = mem_shared_store(
        StandardTiling::new(&[4, 3, 6], &[2, 1, 2]),
        1 << 12,
        1,
        IoStats::new(),
    );
    for idx in MultiIndexIter::new(&[16, 8, 64]) {
        cs.write(&idx, t3.get(&idx));
    }
    let syn = StoredSynopsis::build(&mut cs, &[4, 3, 6], 128);
    let exact = lat_alt_time.region_sum(&[4, 0, 16], &[11, 3, 47]);
    let approx = syn.range_sum(&[4, 0, 16], &[11, 3, 47]);
    println!(
        "5. 128-term synopsis ({}% of coefficients): range sum {:.1} vs exact {:.1} ({:.2}% error)",
        100.0 * 128.0 / (16.0 * 8.0 * 64.0),
        approx,
        exact,
        100.0 * (approx - exact).abs() / exact.abs().max(1.0)
    );

    // --- 6. Progressive refinement on the exact store. ---
    let estimates = progressive_range_sum(&mut cs, &[4, 3, 6], &[4, 0, 16], &[11, 3, 47]);
    print!("6. progressive estimates: ");
    for e in &estimates {
        print!("{e:.0} ");
    }
    println!("(exact: {exact:.0})");
    println!("\ndone.");
}

/// Views a 1-d time transform as `1 × 64` so the 2-d algebra ops apply.
fn t_time_as_2d(t: &NdArray<f64>) -> NdArray<f64> {
    NdArray::from_vec(Shape::new(&[1, t.len()]), t.as_slice().to_vec())
}

fn inverse3(t: &NdArray<f64>) -> NdArray<f64> {
    let mut out = t.clone();
    standard::inverse(&mut out);
    out
}
