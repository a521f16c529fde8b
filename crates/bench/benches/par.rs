//! Criterion micro-benchmarks: parallel vs serial out-of-core drivers.
//!
//! Wall-clock speedups require real cores; on a single-CPU host the
//! parallel entries measure the sharding/locking overhead instead (see
//! `exp_par` for the worker sweep with I/O counters).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ss_array::{NdArray, Shape};
use ss_core::tiling::{NonStandardTiling, StandardTiling};
use ss_storage::{mem_shared_store, IoStats};
use ss_transform::{
    transform_nonstandard_parallel, transform_standard, transform_standard_parallel, ArraySource,
};

const N: u32 = 7; // 128 x 128
const M: u32 = 4; // 16 x 16 chunks
const B: u32 = 2; // 4 x 4 tiles
const POOL: usize = 64;

fn bench_parallel(c: &mut Criterion) {
    let side = 1usize << N;
    let data = NdArray::from_fn(Shape::cube(2, side), |idx| {
        ((idx[0] * 31 + idx[1] * 17) % 23) as f64
    });
    let mut group = c.benchmark_group("parallel_transform_128x128");
    group.throughput(Throughput::Elements((side * side) as u64));
    group.sample_size(20);
    group.bench_function("standard_serial", |b| {
        b.iter(|| {
            let src = ArraySource::new(&data, &[M; 2]);
            let cs = mem_shared_store(
                StandardTiling::new(&[N; 2], &[B; 2]),
                POOL,
                1,
                IoStats::new(),
            );
            transform_standard(&src, &cs, false)
        })
    });
    for workers in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("standard_parallel", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let src = ArraySource::new(&data, &[M; 2]);
                    let cs = mem_shared_store(
                        StandardTiling::new(&[N; 2], &[B; 2]),
                        POOL,
                        workers.max(2),
                        IoStats::new(),
                    );
                    transform_standard_parallel(&src, &cs, workers)
                })
            },
        );
    }
    group.bench_function("nonstandard_zorder_serial", |b| {
        b.iter(|| {
            let src = ArraySource::new(&data, &[M; 2]);
            let cs = mem_shared_store(NonStandardTiling::new(2, N, B), POOL, 1, IoStats::new());
            transform_nonstandard_parallel(&src, &cs, 1)
        })
    });
    for workers in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("nonstandard_parallel", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let src = ArraySource::new(&data, &[M; 2]);
                    let cs = mem_shared_store(
                        NonStandardTiling::new(2, N, B),
                        POOL,
                        workers.max(2),
                        IoStats::new(),
                    );
                    transform_nonstandard_parallel(&src, &cs, workers)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
