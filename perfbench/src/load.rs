//! Closed-loop TCP load: reader and writer connections through the
//! repository's own [`Client`], each sending its next request only after
//! the previous reply. Every answer is checked against the oracle: on a
//! read-only store as it arrives, outside the timed request; beside a
//! writer, from a log of answers and epoch bounds after the run.

use crate::gen::{self, UpdateBox};
use crate::oracle::{self, Oracle};
use ss_serve::{Client, Query};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Boxes per commit on the writer connection.
pub const COMMIT_EVERY: usize = 8;
/// Side of an update box.
pub const BOX_SIDE: usize = 8;
/// Most reads of a reader's log whose answers are checked (evenly
/// spaced): each check sums over every box committed before it.
pub const RW_CHECKS: usize = 2000;

/// The measured window: operations sent at or after `start` and answered
/// by `end` count toward the metrics; the load runs from the warm-up
/// until `end`.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// When measurement starts.
    pub start: Instant,
    /// When measurement ends.
    pub end: Instant,
}

impl Window {
    /// A window of `seconds` after a `warmup` that starts now.
    pub fn after(warmup: Duration, seconds: f64) -> Window {
        let start = Instant::now() + warmup;
        Window {
            start,
            end: start + Duration::from_secs_f64(seconds),
        }
    }

    /// Length of the measured part, in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    fn counts(&self, sent: Instant, done: Instant) -> bool {
        sent >= self.start && done <= self.end
    }
}

/// Nanoseconds from `sent` to `done`, saturating at `u32::MAX` (4.3 s):
/// half the memory per logged operation keeps the logs' share of
/// `peak_rss_mb` small.
fn nanos(sent: Instant, done: Instant) -> u32 {
    u32::try_from((done - sent).as_nanos()).unwrap_or(u32::MAX)
}

/// Epoch counters the writer publishes for concurrent readers: a read
/// sent after `committed` reached `e` sees at least epoch `e`, and a read
/// answered before `committing` passed `e` sees at most epoch `e`.
#[derive(Default)]
pub struct Epochs {
    committed: AtomicU64,
    committing: AtomicU64,
}

/// How a reader's answers are checked.
#[derive(Clone, Copy)]
pub enum Check<'a> {
    /// Read-only store: each answer is checked against the oracle as it
    /// arrives (a few prefix-sum lookups, outside the timed request), so
    /// nothing is logged.
    Now(&'a Oracle),
    /// A writer commits concurrently: answers and their epoch bounds are
    /// logged and checked after the run by [`check_reads`].
    Later(&'a Epochs),
}

/// What one reader connection did.
#[derive(Default)]
pub struct ReadLog {
    /// Stream tag the queries came from.
    pub tag: u64,
    /// Requests sent.
    pub sent: u64,
    /// Client errors.
    pub errors: u64,
    /// Answers the oracle rejected on arrival ([`Check::Now`]).
    pub mismatched: u64,
    /// Logged answers in stream order ([`Check::Later`]).
    pub answers: Vec<f64>,
    /// Epoch bounds of each logged answer.
    pub epochs: Vec<(u32, u32)>,
    /// Latency of every counted read, in nanoseconds.
    pub lat: Vec<u32>,
}

/// Runs one closed-loop reader over stream `tag` until the window ends.
pub fn reader(
    addr: SocketAddr,
    seed: u64,
    tag: u64,
    dims: &[usize],
    w: Window,
    check: Check,
) -> ReadLog {
    let mut log = ReadLog {
        tag,
        ..ReadLog::default()
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            log.errors += 1;
            return log;
        }
    };
    let mut r = gen::rng(seed, tag);
    while Instant::now() < w.end {
        let q = gen::next_query(&mut r, dims);
        let lo = match check {
            Check::Later(e) => e.committed.load(Ordering::Acquire),
            Check::Now(_) => 0,
        };
        let sent = Instant::now();
        log.sent += 1;
        let res = match &q {
            Query::Point { pos } => client.point(pos),
            Query::RangeSum { lo, hi } => client.range_sum(lo, hi),
            Query::Partial { .. } => unreachable!("generator makes points and range sums"),
        };
        let done = Instant::now();
        let Ok(v) = res else {
            log.errors += 1;
            break;
        };
        match check {
            Check::Now(oracle) => {
                if !oracle::matches(v, oracle.answer(&q, &[])) {
                    log.mismatched += 1;
                }
            }
            Check::Later(e) => {
                let hi = e.committing.load(Ordering::Acquire);
                log.answers.push(v);
                log.epochs.push((lo as u32, hi as u32));
            }
        }
        if w.counts(sent, done) {
            log.lat.push(nanos(sent, done));
        }
    }
    log
}

/// Checks a reader's logged answers against the oracle; `committed`
/// lists the writer's boxes in commit order. At most [`RW_CHECKS`] evenly
/// spaced answers are checked: each must match the oracle at some epoch
/// within its bounds. Returns `(checked, mismatched)`.
pub fn check_reads(
    log: &ReadLog,
    seed: u64,
    oracle: &Oracle,
    committed: &[UpdateBox],
) -> (u64, u64) {
    let mut r = gen::rng(seed, log.tag);
    let stride = log.answers.len().div_ceil(RW_CHECKS).max(1);
    let (mut checked, mut failed) = (0u64, 0u64);
    for (i, &got) in log.answers.iter().enumerate() {
        let q = gen::next_query(&mut r, oracle.dims());
        if i % stride != 0 {
            continue;
        }
        checked += 1;
        let (lo, hi) = log.epochs[i];
        let ok = (lo..=hi).any(|e| {
            let boxes = (e as usize * COMMIT_EVERY).min(committed.len());
            oracle::matches(got, oracle.answer(&q, &committed[..boxes]))
        });
        if !ok {
            failed += 1;
        }
    }
    (checked, failed)
}

/// What the writer connection did.
#[derive(Default)]
pub struct WriteLog {
    /// Every committed box, in commit order.
    pub boxes: Vec<UpdateBox>,
    /// Send-to-durable latency of each counted box: from sending its
    /// `update` until the `commit` that covers it is acknowledged.
    pub durable: Vec<u32>,
    /// Latency of each counted `update` acknowledgement.
    pub update_ns: Vec<u32>,
    /// Latency of each counted `commit` (acknowledged after the WAL fsync).
    pub commit_ns: Vec<u32>,
    /// Requests sent (updates and commits).
    pub ops: u64,
    /// Client errors and out-of-order epochs.
    pub errors: u64,
}

/// Runs the writer: `update` boxes from the seeded stream with a
/// `commit` every [`COMMIT_EVERY`], until the window ends (the group in
/// flight completes).
pub fn writer(addr: SocketAddr, seed: u64, dims: &[usize], w: Window, epochs: &Epochs) -> WriteLog {
    let mut log = WriteLog::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            log.errors += 1;
            return log;
        }
    };
    let mut r = gen::rng(seed, gen::TAG_BOXES);
    let mut epoch = 0u64;
    'groups: while Instant::now() < w.end {
        let mut group = Vec::with_capacity(COMMIT_EVERY);
        let mut sends = Vec::with_capacity(COMMIT_EVERY);
        for _ in 0..COMMIT_EVERY {
            let b = gen::next_box(&mut r, dims, BOX_SIDE);
            let sent = Instant::now();
            log.ops += 1;
            if client.update(&b.at, &b.dims, &b.data).is_err() {
                log.errors += 1;
                break 'groups;
            }
            let done = Instant::now();
            if w.counts(sent, done) {
                log.update_ns.push(nanos(sent, done));
            }
            sends.push(sent);
            group.push(b);
        }
        epochs.committing.store(epoch + 1, Ordering::Release);
        let sent = Instant::now();
        log.ops += 1;
        match client.commit() {
            Ok(e) if e == (epoch + 1) as f64 => {}
            _ => {
                log.errors += 1;
                break;
            }
        }
        let done = Instant::now();
        epoch += 1;
        log.boxes.extend(group);
        epochs.committed.store(epoch, Ordering::Release);
        if w.counts(sends[0], done) {
            log.commit_ns.push(nanos(sent, done));
            log.durable.extend(sends.iter().map(|&s| nanos(s, done)));
        }
    }
    log
}
