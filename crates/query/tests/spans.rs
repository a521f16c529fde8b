//! Every query entry point must record its latency under its own span
//! label — the standard-form variants were once copy-pasted with the
//! non-standard `*_ns` names, which made the read path impossible to
//! profile per variant. This test exercises each path once and asserts
//! that each distinct label saw at least one recording, and that the
//! labels are pairwise distinct in a metrics snapshot.

use ss_array::{MultiIndexIter, NdArray, Shape};
use ss_core::tiling::{NonStandardTiling, StandardTiling};
use ss_storage::{mem_shared_store, IoStats};
use std::collections::HashSet;

#[test]
fn every_query_variant_records_a_distinct_span_label() {
    // Standard-form store with materialised scaling slots.
    let a = NdArray::from_fn(Shape::cube(2, 16), |idx| {
        ((idx[0] * 5 + idx[1] * 3) % 11) as f64 - 4.0
    });
    let t = ss_core::standard::forward_to(&a);
    let mut std_cs = mem_shared_store(
        StandardTiling::new(&[4, 4], &[2, 2]),
        1024,
        1,
        IoStats::new(),
    );
    for idx in MultiIndexIter::new(&[16, 16]) {
        std_cs.write(&idx, t.get(&idx));
    }
    ss_query::materialize_standard_scalings(&std_cs, &[4, 4]);

    // Non-standard-form store, also with scaling slots.
    let tn = ss_core::nonstandard::forward_to(&a);
    let mut ns_cs = mem_shared_store(NonStandardTiling::new(2, 4, 2), 1024, 1, IoStats::new());
    for idx in MultiIndexIter::new(&[16, 16]) {
        ns_cs.write(&idx, tn.get(&idx));
    }
    ss_query::materialize_nonstandard_scalings(&ns_cs, 4);

    // Exercise every variant once.
    let _ = ss_query::point_standard(&mut std_cs, &[4, 4], &[3, 9]);
    let _ = ss_query::point_standard_fast(&mut std_cs, &[3, 9]);
    let _ = ss_query::point_nonstandard(&mut ns_cs, 4, &[3, 9]);
    let _ = ss_query::point_nonstandard_fast(&mut ns_cs, 4, &[3, 9]);
    let _ = ss_query::range_sum_standard(&mut std_cs, &[4, 4], &[1, 2], &[10, 13]);
    let _ = ss_query::range_sum_standard_fast(&mut std_cs, &[1, 2], &[10, 13]);
    let _ = ss_query::range_sum_nonstandard(&mut ns_cs, 4, &[1, 2], &[10, 13]);
    let _ = ss_query::reconstruct_box_standard(&mut std_cs, &[4, 4], &[2, 2], &[5, 5]);
    let _ = ss_query::reconstruct_range_nonstandard(
        &mut ns_cs,
        4,
        &ss_array::DyadicRange::cube(2, &[1, 1]),
    );
    let _ = ss_query::batch_points(&mut std_cs, &[4, 4], &[vec![1, 1], vec![14, 2]]);
    let _ = ss_query::batch_range_sums(
        &mut std_cs,
        &[4, 4],
        &[(vec![0, 0], vec![7, 7]), (vec![4, 4], vec![11, 11])],
    );

    let labels = [
        "query.point_std",
        "query.point_std_fast",
        "query.point_ns",
        "query.point_ns_fast",
        "query.range_sum_std",
        "query.range_sum_std_fast",
        "query.range_sum_ns",
        "query.reconstruct_std",
        "query.reconstruct_ns",
        "query.batch_points",
        "query.batch_range_sums",
    ];
    let distinct: HashSet<&str> = labels.iter().copied().collect();
    assert_eq!(
        distinct.len(),
        labels.len(),
        "labels must be pairwise distinct"
    );
    let registry = ss_obs::global();
    for label in labels {
        let count = registry.histogram(label).snapshot().count;
        assert!(count >= 1, "span {label} was never recorded");
    }
    // The distinct-tiles counter of the two batch calls moved.
    assert!(
        registry.counter("query.batch_distinct_tiles").get() >= 2,
        "batch execution must count distinct tiles"
    );
}
