//! Pipelined requests on one connection run as shared tile-major
//! batches and come back in arrival order.
//!
//! This file holds a single test: it reads the process-wide
//! `serve.batches` counter, which a concurrently running server would
//! also advance.

use ss_array::{MultiIndexIter, NdArray, Shape};
use ss_core::tiling::StandardTiling;
use ss_serve::{proto, Query, QueryServer, ServeConfig};
use ss_storage::{mem_shared_store, IoStats, MemBlockStore, SharedCoeffStore};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn store(a: &NdArray<f64>) -> SharedCoeffStore<StandardTiling, MemBlockStore> {
    let t = ss_core::standard::forward_to(a);
    let shared = mem_shared_store(
        StandardTiling::new(&[5; 2], &[2; 2]),
        1 << 10,
        4,
        IoStats::new(),
    );
    for idx in MultiIndexIter::new(a.shape().dims()) {
        shared.write(&idx, t.get(&idx));
    }
    shared
}

#[test]
fn pipelined_requests_are_batched_and_answered_in_order() {
    let a = NdArray::from_fn(Shape::cube(2, 32), |idx| {
        ((idx[0] * 31 + idx[1] * 7) % 23) as f64 / 3.0 - 2.5
    });
    let reference = store(&a);
    let server = QueryServer::bind(
        "127.0.0.1:0",
        store(&a),
        vec![5, 5],
        ServeConfig {
            workers: 2,
            batch_max: 64,
            max_requests: None,
            slow_ns: None,
        },
    )
    .unwrap();
    let queries: Vec<Query> = (0..32usize)
        .map(|k| {
            let (x, y) = ((k * 13) % 32, (k * 7 + 5) % 32);
            if k % 4 == 3 {
                Query::RangeSum {
                    lo: vec![x / 2, y / 2],
                    hi: vec![x.max(16), y.max(20)],
                }
            } else {
                Query::Point { pos: vec![x, y] }
            }
        })
        .collect();
    let plans: Vec<_> = queries.iter().map(|q| q.plan(&[5, 5])).collect();
    let mut handle = &reference;
    let want = ss_query::execute_plans_tiled(&mut handle, &plans);

    let batches = ss_obs::global().counter("serve.batches");
    let before = batches.get();
    // All 32 request lines in one write, as `Client::send_ops` sends them.
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut lines = String::new();
    for (k, q) in queries.iter().enumerate() {
        lines.push_str(&proto::request_line(k as i128, q));
        lines.push('\n');
    }
    (&stream).write_all(lines.as_bytes()).unwrap();
    let mut reader = BufReader::new(&stream);
    for (k, w) in want.iter().enumerate() {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = proto::parse_response(line.trim_end()).unwrap();
        assert_eq!(
            resp.id,
            Some(k as i128),
            "replies come back in arrival order"
        );
        assert_eq!(
            resp.result.unwrap().to_bits(),
            w.value.to_bits(),
            "query {k}"
        );
    }
    let ran = batches.get() - before;
    assert!(ran < 32, "32 pipelined requests ran as {ran} batches");
    server.shutdown();
}
