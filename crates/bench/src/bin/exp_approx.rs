//! **Approximate-query ablation** — the OLAP synopsis use-case that
//! motivates wavelets in the paper's introduction ("approximate,
//! progressive or even fast exact answers to OLAP range-aggregate
//! queries").
//!
//! On a TEMPERATURE-like 2-d slice we sweep the synopsis size K and report
//! the captured energy plus the relative error of random range sums; then
//! we show progressive (coarse-to-fine) evaluation converging on an exact
//! store.

use ss_array::{MultiIndexIter, NdArray, Shape};
use ss_bench::{fmt_f, Table};
use ss_core::tiling::StandardTiling;
use ss_datagen::SplitMix64;
use ss_query::{progressive_range_sum, StoredSynopsis};
use ss_storage::{mem_shared_store, IoStats};

const N: u32 = 8; // 256 x 256
const QUERIES: usize = 200;

fn main() {
    let side = 1usize << N;
    println!("# Approximate & progressive range aggregates ({side} x {side})\n");
    // A smooth climate-like field: latitude gradient + two pressure systems.
    let data = NdArray::from_fn(Shape::cube(2, side), |idx| {
        let (x, y) = (idx[0] as f64 / side as f64, idx[1] as f64 / side as f64);
        30.0 * (std::f64::consts::PI * x).sin()
            + 10.0 * (-((x - 0.3).powi(2) + (y - 0.7).powi(2)) * 20.0).exp()
            - 8.0 * (-((x - 0.8).powi(2) + (y - 0.2).powi(2)) * 30.0).exp()
    });
    let t = ss_core::standard::forward_to(&data);
    let mut cs = mem_shared_store(
        StandardTiling::new(&[N; 2], &[2; 2]),
        1 << 14,
        1,
        IoStats::new(),
    );
    for idx in MultiIndexIter::new(&[side, side]) {
        cs.write(&idx, t.get(&idx));
    }

    let mut rng = SplitMix64::new(7);
    let queries: Vec<([usize; 2], [usize; 2])> = (0..QUERIES)
        .map(|_| {
            let lo = [rng.below(side - 32), rng.below(side - 32)];
            let hi = [lo[0] + 8 + rng.below(24), lo[1] + 8 + rng.below(24)];
            (lo, hi)
        })
        .collect();

    println!("## Synopsis size vs accuracy\n");
    let mut table = Table::new(&[
        "K",
        "K / N^2",
        "energy captured",
        "median rel. error of range sums",
    ]);
    for k in [16usize, 64, 256, 1024, 4096] {
        let syn = StoredSynopsis::build(&mut cs, &[N; 2], k);
        let energy = syn.energy_ratio(&mut cs);
        let mut errors: Vec<f64> = queries
            .iter()
            .map(|(lo, hi)| {
                let exact = data.region_sum(lo, hi);
                let approx = syn.range_sum(lo, hi);
                (approx - exact).abs() / exact.abs().max(1.0)
            })
            .collect();
        errors.sort_by(|a, b| a.total_cmp(b));
        table.row(&[
            &k,
            &fmt_f(k as f64 / (side * side) as f64, 4),
            &fmt_f(energy, 4),
            &fmt_f(errors[QUERIES / 2], 4),
        ]);
    }
    table.print();

    println!("## Progressive evaluation (one query, coarse to fine)\n");
    let (lo, hi) = ([37usize, 80usize], [180usize, 201usize]);
    let exact = data.region_sum(&lo, &hi);
    let estimates = progressive_range_sum(&mut cs, &[N; 2], &lo, &hi);
    let mut table = Table::new(&["refinement step", "estimate", "relative error"]);
    for (i, est) in estimates.iter().enumerate() {
        table.row(&[
            &i,
            &fmt_f(*est, 1),
            &fmt_f((est - exact).abs() / exact.abs().max(1.0), 5),
        ]);
    }
    table.print();
    println!("exact: {exact:.1}");
    println!("\nSmooth data compresses hard: a fraction of a percent of the coefficients");
    println!("answers range sums to ~1% error, and progressive evaluation reaches the");
    println!("exact answer after the last refinement step.");
}
