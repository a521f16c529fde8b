//! Criterion micro-benchmarks: queries over tiled stores.

use criterion::{criterion_group, criterion_main, Criterion};
use ss_array::{MultiIndexIter, NdArray, Shape};
use ss_core::tiling::StandardTiling;
use ss_storage::{mem_shared_store, IoStats, MemBlockStore, SharedCoeffStore};

const N: u32 = 8; // 256 x 256

fn build() -> SharedCoeffStore<StandardTiling, MemBlockStore> {
    let side = 1usize << N;
    let data = NdArray::from_fn(Shape::cube(2, side), |idx| {
        ((idx[0] * 13 + idx[1] * 7) % 29) as f64
    });
    let t = ss_core::standard::forward_to(&data);
    let cs = mem_shared_store(
        StandardTiling::new(&[N; 2], &[2; 2]),
        1 << 14,
        1,
        IoStats::new(),
    );
    for idx in MultiIndexIter::new(&[side, side]) {
        cs.write(&idx, t.get(&idx));
    }
    ss_query::materialize_standard_scalings(&cs, &[N; 2]);
    cs
}

fn bench_queries(c: &mut Criterion) {
    let mut cs = build();
    let mut group = c.benchmark_group("queries_256x256");
    group.bench_function("point_plain", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i * 97 + 31) % (256 * 256);
            ss_query::point_standard(&mut cs, &[N; 2], &[i / 256, i % 256])
        })
    });
    group.bench_function("point_fast_path", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i * 97 + 31) % (256 * 256);
            ss_query::point_standard_fast(&mut cs, &[i / 256, i % 256])
        })
    });
    group.bench_function("range_sum_32x32", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i * 53 + 17) % 224;
            ss_query::range_sum_standard(&mut cs, &[N; 2], &[i, i], &[i + 31, i + 31])
        })
    });
    group.bench_function("reconstruct_16x16", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i * 53 + 17) % 224;
            ss_query::reconstruct_box_standard(&mut cs, &[N; 2], &[i, i], &[i + 15, i + 15])
        })
    });
    group.finish();
}

criterion_group!(benches, bench_queries);
criterion_main!(benches);
