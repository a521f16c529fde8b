//! The benchmark's own checks: the traced run reconciles, its exact
//! counts repeat on one seed, and a wrong answer cannot pass the oracle
//! (see also the oracle's unit tests).

use ss_perfbench::gen;
use ss_perfbench::load::{self, ReadLog};
use ss_perfbench::oracle::Oracle;
use ss_perfbench::replay::{self, Sizes};
use ss_perfbench::span::Recorder;
use ss_perfbench::stack::Spec;
use ss_perfbench::workload::{self, Config, Reconciliation, Workload, RECONCILE_PCT};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn metrics(out: &ss_perfbench::report::Outcome) -> HashMap<&'static str, f64> {
    out.metrics.iter().map(|m| (m.name, m.value)).collect()
}

/// Stage self times of the replayed serve-hot requests add up to the
/// replayed request time, the part outside every stage stays under the
/// bound, and the replayed service time is below the client-observed
/// latency of the same requests over TCP.
#[test]
fn traced_serve_hot_reconciles() {
    let dir = scratch("reconcile");
    let cfg = Config {
        workload: Workload::ServeHot,
        seed: 3,
        seconds: 2.0,
        dir: dir.clone(),
    };
    let out = workload::run(&cfg, true).expect("traced run");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.correct(),
        "traced run failed its checks: {:?}",
        out.broken
    );
    assert_eq!(out.failed, 0);
    let m = metrics(&out);
    // Serve-hot requests never reach the device, so the stage means plus
    // the unattributed share make up the mean replayed request.
    let stages =
        m["serve.parse_us"] + m["serve.encode_us"] + m["query.plan_us"] + m["query.exec_self_us"];
    let outside = m["bench.replay_service_us"] * m["bench.replay_unattributed_pct"] / 100.0;
    let total = m["bench.replay_service_us"];
    assert!(
        ((stages + outside) - total).abs() <= 1e-6 * total,
        "stages {stages} + outside {outside} != {total}"
    );
    assert!(
        m["bench.replay_unattributed_pct"] <= RECONCILE_PCT,
        "unattributed {}%",
        m["bench.replay_unattributed_pct"]
    );
    assert!(
        m["serve.transport_us"] >= 0.0,
        "replay slower than the client: {m:?}"
    );
}

/// The replay's span arithmetic is exact: self times of every span in
/// the request trees sum to the requests' total.
#[test]
fn replay_self_times_sum_to_the_request_total() {
    let spec = Spec::cube(2, 6, 2);
    let cells = gen::cube(5, &spec.dims());
    let oracle = Oracle::new(&spec.dims(), &cells);
    let dir = scratch("selftime");
    let rec = Arc::new(Recorder::default());
    let sizes = Sizes {
        warm_reads: 10,
        reads: 300,
        groups: 0,
    };
    let r = replay::run(&rec, &spec, 5, &cells, &oracle, &dir.join("s.ws"), sizes).expect("replay");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(r.reads.mismatches, 0);
    let rec = Reconciliation::of(&r.ops);
    assert_eq!(rec.requests, 300);
    assert_eq!(rec.self_sum_ns, rec.total_ns);
    assert!(rec.unattributed_ns < rec.total_ns);
}

/// Two replays on one seed count the same plan terms, tiles and
/// committed tiles, and the same pool traffic.
#[test]
fn replayed_counts_repeat_on_one_seed() {
    let spec = Spec::cube(2, 7, 2);
    let cells = gen::cube(11, &spec.dims());
    let oracle = Oracle::new(&spec.dims(), &cells);
    let sizes = Sizes {
        warm_reads: 50,
        reads: 200,
        groups: 8,
    };
    let run = |name: &str| {
        let dir = scratch(name);
        let rec = Arc::new(Recorder::default());
        let r = replay::run(&rec, &spec, 11, &cells, &oracle, &dir.join("s.ws"), sizes)
            .expect("replay");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(r.reads.mismatches, 0);
        assert_eq!((r.reads.count, r.boxes, r.commits), (200, 64, 8));
        (r.reads, r.tiles_written, r.wal_bytes, r.io)
    };
    let (a, b) = (run("repeat-a"), run("repeat-b"));
    assert_eq!(a, b);
    assert!(a.0.coeffs > 0 && a.0.tiles > 0 && a.1 > 0);
}

/// A served answer perturbed after the fact fails the post-run check.
#[test]
fn answer_check_catches_a_perturbed_answer() {
    let dims = [64, 64];
    let cells = gen::cube(2, &dims);
    let oracle = Oracle::new(&dims, &cells);
    let mut r = gen::rng(2, gen::TAG_READS);
    let answers: Vec<f64> = (0..500)
        .map(|_| oracle.answer(&gen::next_query(&mut r, &dims), &[]) as f64)
        .collect();
    let mut log = ReadLog {
        tag: gen::TAG_READS,
        epochs: vec![(0, 0); answers.len()],
        answers,
        ..ReadLog::default()
    };
    assert_eq!(load::check_reads(&log, 2, &oracle, &[]), (500, 0));
    log.answers[123] += 1.0;
    assert_eq!(load::check_reads(&log, 2, &oracle, &[]), (500, 1));
}
