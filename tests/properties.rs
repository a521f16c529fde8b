//! Property-based tests of the core invariants, with `proptest`.
//!
//! Every identity SHIFT-SPLIT relies on is exercised under randomised
//! inputs: transform bijectivity, chunked-equals-direct, the SHIFT-SPLIT
//! embedding, expansion, range sums, partial reconstruction, tiling
//! injectivity and streaming/offline synopsis equivalence.

use proptest::prelude::*;
use shiftsplit::array::{decompose_interval, MultiIndexIter, NdArray, Shape};
use shiftsplit::core::tiling::{NonStandardTiling, StandardTiling, Tiling1d, TilingMap};
use shiftsplit::core::{append, haar1d, nonstandard, split, standard, Layout1d};

fn vec_strategy(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dwt_roundtrip(levels in 0u32..10, seed in any::<u64>()) {
        let len = 1usize << levels;
        let data: Vec<f64> = (0..len)
            .map(|i| {
                let x = seed.wrapping_mul(i as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
                (x >> 11) as f64 / (1u64 << 53) as f64 * 200.0 - 100.0
            })
            .collect();
        let rt = haar1d::inverse_to_vec(&haar1d::forward_to_vec(&data));
        for (a, b) in data.iter().zip(&rt) {
            prop_assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn embedded_chunk_transform_matches_direct(
        data in vec_strategy(16),
        n in 5u32..9,
        block_seed in any::<usize>(),
    ) {
        // SHIFT-SPLIT of a 16-value chunk into a zero 2^n vector equals the
        // direct transform of the zero-padded vector.
        let m = 4u32;
        let block = block_seed % (1usize << (n - m));
        let mut via_ss = vec![0.0f64; 1 << n];
        split::apply_chunk_1d(&mut via_ss, &haar1d::forward_to_vec(&data), block);
        let mut padded = vec![0.0f64; 1 << n];
        padded[block << m..(block + 1) << m].copy_from_slice(&data);
        let direct = haar1d::forward_to_vec(&padded);
        for i in 0..(1usize << n) {
            prop_assert!((via_ss[i] - direct[i]).abs() < 1e-8, "coeff {}", i);
        }
    }

    #[test]
    fn chunked_equals_direct_1d(data in vec_strategy(64), m in 0u32..7) {
        let mut acc = vec![0.0f64; 64];
        let chunk = 1usize << m;
        for block in 0..(64 / chunk) {
            let t = haar1d::forward_to_vec(&data[block * chunk..(block + 1) * chunk]);
            split::apply_chunk_1d(&mut acc, &t, block);
        }
        let direct = haar1d::forward_to_vec(&data);
        for i in 0..64 {
            prop_assert!((acc[i] - direct[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn standard_2d_chunked_equals_direct(data in vec_strategy(256), m0 in 0u32..5, m1 in 0u32..5) {
        let a = NdArray::from_vec(Shape::new(&[16, 16]), data);
        let n = [4u32, 4];
        let mut acc = NdArray::<f64>::zeros(Shape::new(&[16, 16]));
        let (c0, c1) = (1usize << m0, 1usize << m1);
        for b0 in 0..(16 / c0) {
            for b1 in 0..(16 / c1) {
                let chunk = a.extract(&[b0 * c0, b1 * c1], &[c0, c1]);
                let t = standard::forward_to(&chunk);
                split::standard_deltas(&t, &n, &[b0, b1], |idx, d| {
                    let v = acc.get(idx);
                    acc.set(idx, v + d);
                });
            }
        }
        let direct = standard::forward_to(&a);
        prop_assert!(acc.max_abs_diff(&direct) < 1e-8);
    }

    #[test]
    fn nonstandard_2d_chunked_equals_direct(data in vec_strategy(256), m in 0u32..5) {
        let a = NdArray::from_vec(Shape::new(&[16, 16]), data);
        let mut acc = NdArray::<f64>::zeros(Shape::new(&[16, 16]));
        let c = 1usize << m;
        for b0 in 0..(16 / c) {
            for b1 in 0..(16 / c) {
                let chunk = a.extract(&[b0 * c, b1 * c], &[c, c]);
                let t = nonstandard::forward_to(&chunk);
                split::nonstandard_deltas(&t, 4, &[b0, b1], |idx, d| {
                    let v = acc.get(idx);
                    acc.set(idx, v + d);
                });
            }
        }
        let direct = nonstandard::forward_to(&a);
        prop_assert!(acc.max_abs_diff(&direct) < 1e-8);
    }

    #[test]
    fn expansion_matches_padded_transform(data in vec_strategy(32)) {
        let expanded = append::expand_1d(&haar1d::forward_to_vec(&data));
        let mut padded = data.clone();
        padded.resize(64, 0.0);
        let want = haar1d::forward_to_vec(&padded);
        for i in 0..64 {
            prop_assert!((expanded[i] - want[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn range_sum_matches_naive(data in vec_strategy(128), lo in 0usize..128, len in 1usize..128) {
        let hi = (lo + len - 1).min(127);
        let coeffs = haar1d::forward_to_vec(&data);
        let layout = Layout1d::for_len(128);
        let contribs = layout.range_sum_contributions(lo, hi);
        prop_assert!(contribs.len() <= 2 * 7 + 1);
        let got: f64 = contribs.iter().map(|&(i, w)| w * coeffs[i]).sum();
        let want: f64 = data[lo..=hi].iter().sum();
        prop_assert!((got - want).abs() < 1e-7, "{} vs {}", got, want);
    }

    #[test]
    fn point_reconstruction_matches(data in vec_strategy(64), pos in 0usize..64) {
        let coeffs = haar1d::forward_to_vec(&data);
        let layout = Layout1d::for_len(64);
        let got: f64 = layout
            .point_contributions(pos)
            .iter()
            .map(|&(i, w)| w * coeffs[i])
            .sum();
        prop_assert!((got - data[pos]).abs() < 1e-8);
    }

    #[test]
    fn dyadic_decomposition_covers(lo in 0usize..1000, len in 1usize..1000) {
        let hi = lo + len - 1;
        let parts = decompose_interval(lo, hi);
        let mut pos = lo;
        for p in &parts {
            prop_assert_eq!(p.start(), pos);
            pos = p.end() + 1;
        }
        prop_assert_eq!(pos, hi + 1);
        // Logarithmic piece count.
        prop_assert!(parts.len() <= 2 * (usize::BITS - len.leading_zeros()) as usize + 2);
    }

    #[test]
    fn tiling_1d_injective(n in 1u32..10, b in 1u32..4) {
        let map = Tiling1d::new(n, b);
        let mut seen = std::collections::HashSet::new();
        for i in 0..(1usize << n) {
            let loc = map.locate(&[i]);
            prop_assert!(loc.tile < map.num_tiles());
            prop_assert!(loc.slot < map.block_capacity());
            prop_assert!(seen.insert((loc.tile, loc.slot)));
        }
    }

    #[test]
    fn nonstandard_tiling_injective(n in 1u32..6, b in 1u32..3) {
        let map = NonStandardTiling::new(2, n, b);
        let mut seen = std::collections::HashSet::new();
        for idx in MultiIndexIter::new(&[1usize << n, 1usize << n]) {
            let loc = map.locate(&idx);
            prop_assert!(loc.tile < map.num_tiles());
            prop_assert!(loc.slot < map.block_capacity());
            prop_assert!(seen.insert((loc.tile, loc.slot)));
        }
    }

    #[test]
    fn standard_tiling_injective_rectangular(n0 in 1u32..6, n1 in 1u32..6, b0 in 1u32..3, b1 in 1u32..3) {
        let map = StandardTiling::new(&[n0, n1], &[b0, b1]);
        let mut seen = std::collections::HashSet::new();
        for idx in MultiIndexIter::new(&[1usize << n0, 1usize << n1]) {
            let loc = map.locate(&idx);
            prop_assert!(loc.tile < map.num_tiles());
            prop_assert!(loc.slot < map.block_capacity());
            prop_assert!(seen.insert((loc.tile, loc.slot)));
        }
    }

    #[test]
    fn streaming_synopses_agree_with_offline(seed in any::<u64>(), k in 1usize..32, buf in 1u32..6) {
        let n_levels = 8u32;
        let n = 1usize << n_levels;
        let data = shiftsplit::datagen::sensor_stream(n, seed);
        let mut per_item = shiftsplit::stream::PerItemStream::new(k, n_levels);
        let mut buffered = shiftsplit::stream::BufferedStream::new(k, buf, n_levels);
        for &x in &data {
            per_item.push(x);
            buffered.push(x);
        }
        // Equivalent quality: SSE equals the offline best-K floor.
        let floor = shiftsplit::stream::offline_best_k_sse(&data, k);
        let a = shiftsplit::stream::stream1d::reconstruct_from_entries(
            per_item.average(), &per_item.entries(), n);
        let b = shiftsplit::stream::stream1d::reconstruct_from_entries(
            buffered.average(), &buffered.entries(), n);
        prop_assert!((shiftsplit::stream::sse(&data, &a) - floor).abs() < 1e-6);
        prop_assert!((shiftsplit::stream::sse(&data, &b) - floor).abs() < 1e-6);
    }

    #[test]
    fn any_single_bit_flip_is_detected_by_verify(
        seed in any::<u64>(),
        byte_pick in any::<u64>(),
        bit in 0u32..8,
        in_sidecar in any::<bool>(),
    ) {
        // CRC-32 detects every single-bit error, so `WsFile::verify` must
        // flag a v2 store after one flipped bit — in the blocks file or in
        // the checksum sidecar itself (a rotted checksum is corruption
        // too: the pair no longer vouches for the data).
        use shiftsplit::storage::{Meta, WsFile};
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ss_prop_bitflip_{}_{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.ws");
        {
            let mut ws = WsFile::create(&path, Meta::new(vec![3, 3], vec![1, 1], 8, 1)).unwrap();
            for idx in MultiIndexIter::new(&[8, 8]) {
                let x = seed
                    .wrapping_mul((idx[0] * 8 + idx[1]) as u64 + 3)
                    .wrapping_mul(0x9E3779B97F4A7C15);
                ws.store.write(&idx, (x >> 40) as f64 * 0.01);
            }
            ws.sync().unwrap();
            prop_assert!(ws.verify().unwrap().is_clean());
        }
        let target = if in_sidecar {
            shiftsplit::storage::file::sidecar_path(&path)
        } else {
            path.clone()
        };
        let mut bytes = std::fs::read(&target).unwrap();
        // Skip the sidecar's 8-byte magic: damaging it is a different
        // (also detected) failure — open() refuses the file outright.
        let lo = if in_sidecar { 8 } else { 0 };
        let pos = lo + (byte_pick as usize) % (bytes.len() - lo);
        bytes[pos] ^= 1u8 << bit;
        std::fs::write(&target, &bytes).unwrap();
        let mut ws = WsFile::open(&path).unwrap();
        let report = ws.verify().unwrap();
        prop_assert!(!report.is_clean(), "flip at {target:?}:{pos} bit {bit} went undetected");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partial_reconstruction_random_boxes(
        seed in any::<u64>(),
        lo0 in 0usize..32, lo1 in 0usize..32,
        len0 in 1usize..32, len1 in 1usize..32,
    ) {
        let hi0 = (lo0 + len0 - 1).min(31);
        let hi1 = (lo1 + len1 - 1).min(31);
        let data = NdArray::from_fn(Shape::cube(2, 32), |idx| {
            let x = seed
                .wrapping_mul((idx[0] * 32 + idx[1]) as u64 + 7)
                .wrapping_mul(0x9E3779B97F4A7C15);
            (x >> 40) as f64 * 0.001
        });
        let t = standard::forward_to(&data);
        let mut cs = shiftsplit::storage::mem_shared_store(
            StandardTiling::new(&[5, 5], &[2, 2]),
            512,
            1,
            shiftsplit::storage::IoStats::new(),
        );
        for idx in MultiIndexIter::new(&[32, 32]) {
            cs.write(&idx, t.get(&idx));
        }
        let got = shiftsplit::query::reconstruct_box_standard(
            &mut cs, &[5, 5], &[lo0, lo1], &[hi0, hi1]);
        let want = data.extract(&[lo0, lo1], &[hi0 - lo0 + 1, hi1 - lo1 + 1]);
        prop_assert!(got.max_abs_diff(&want) < 1e-8);
    }
}
