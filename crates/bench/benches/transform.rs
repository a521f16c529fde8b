//! Criterion micro-benchmarks: out-of-core transform drivers.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ss_array::{NdArray, Shape};
use ss_core::tiling::{NonStandardTiling, StandardTiling};
use ss_storage::{mem_shared_store, IoStats};
use ss_transform::{
    transform_nonstandard_parallel, transform_standard, vitter_transform_standard, ArraySource,
};

const N: u32 = 7; // 128 x 128
const M: u32 = 4; // 16 x 16 chunks
const B: u32 = 2; // 4 x 4 tiles

fn bench_transforms(c: &mut Criterion) {
    let side = 1usize << N;
    let data = NdArray::from_fn(Shape::cube(2, side), |idx| {
        ((idx[0] * 31 + idx[1] * 17) % 23) as f64
    });
    let mut group = c.benchmark_group("out_of_core_transform_128x128");
    group.throughput(Throughput::Elements((side * side) as u64));
    group.sample_size(20);
    group.bench_function("shift_split_standard", |b| {
        b.iter(|| {
            let src = ArraySource::new(&data, &[M; 2]);
            let cs = mem_shared_store(StandardTiling::new(&[N; 2], &[B; 2]), 64, 1, IoStats::new());
            transform_standard(&src, &cs, false)
        })
    });
    group.bench_function("shift_split_nonstandard_zorder", |b| {
        b.iter(|| {
            let src = ArraySource::new(&data, &[M; 2]);
            let cs = mem_shared_store(NonStandardTiling::new(2, N, B), 64, 1, IoStats::new());
            transform_nonstandard_parallel(&src, &cs, 1)
        })
    });
    group.bench_function("vitter_baseline", |b| {
        b.iter(|| {
            let src = ArraySource::new(&data, &[M; 2]);
            vitter_transform_standard(&src, 1 << (2 * M), 1 << (2 * B), IoStats::new())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_transforms);
criterion_main!(benches);
