//! The traced run's single-threaded in-process replay: the same generated
//! chunks, requests and boxes as the TCP load, pushed one at a time
//! through the program's public stage functions with a span around each
//! call. Spans nest: a device call made inside `query.exec` is its child,
//! so `query.exec`'s self time excludes device time.

use crate::gen::{self, UpdateBox};
use crate::load::{BOX_SIDE, COMMIT_EVERY};
use crate::oracle::{self, Oracle};
use crate::span::{Recorder, Span};
use crate::stack::{self, Spec};
use crate::timed::{TimedBlockStore, TimedSource};
use ss_array::{NdArray, Shape};
use ss_core::TilingMap;
use ss_maintain::{DeltaBuffer, FlushMode, SnapshotCoeffStore, Wal};
use ss_serve::proto::{self, Op};
use ss_serve::Query;
use ss_storage::CoeffRead;
use ss_storage::{IoSnapshot, SharedCoeffStore, WsFile};
use ss_transform::{ArraySource, ChunkSource};
use std::path::Path;
use std::sync::{mpsc, Arc};

/// Root span names: one per replayed operation.
pub const ROOT_INGEST: &str = "ingest";
/// See [`ROOT_INGEST`].
pub const ROOT_READ: &str = "request";
/// See [`ROOT_INGEST`].
pub const ROOT_UPDATE: &str = "update";
/// See [`ROOT_INGEST`].
pub const ROOT_COMMIT: &str = "commit";

/// How much to replay.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Untimed requests that bring the pool to its steady state first.
    pub warm_reads: usize,
    /// Replayed read requests.
    pub reads: usize,
    /// Replayed commit groups of [`COMMIT_EVERY`] boxes each (0 on read-only workloads).
    pub groups: usize,
}

/// Everything the replay measured.
pub struct Replay {
    /// Spans of the ingest.
    pub ingest: Vec<Span>,
    /// Spans of the replayed requests, boxes and commits.
    pub ops: Vec<Span>,
    /// I/O counters over the replayed requests, boxes and commits.
    pub io: IoSnapshot,
    /// The replayed reads.
    pub reads: Reads,
    /// Replayed boxes.
    pub boxes: u64,
    /// Replayed commits.
    pub commits: u64,
    /// Tiles written over all commits.
    pub tiles_written: u64,
    /// WAL growth over all commits.
    pub wal_bytes: u64,
}

/// Counts over replayed reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Reads {
    /// Replayed reads.
    pub count: u64,
    /// Plan terms over all reads.
    pub coeffs: u64,
    /// Distinct tiles over all reads.
    pub tiles: u64,
    /// Answers the oracle rejected.
    pub mismatches: u64,
}

/// Read request ids start here, above every box and commit id.
const READ_IDS: u64 = 1 << 40;

/// Replays the ingest of `cells` into a fresh store at `path`, then the
/// first reads of the stream of client 0 (and, with `sizes.groups > 0`,
/// the writer's boxes with a commit every [`COMMIT_EVERY`] and reads
/// between the commits) against the reopened store.
pub fn run(
    rec: &Arc<Recorder>,
    spec: &Spec,
    seed: u64,
    cells: &[i64],
    oracle: &Oracle,
    path: &Path,
    sizes: Sizes,
) -> Result<Replay, String> {
    let ingest = ingest(rec, spec, cells, path)?;
    let (shared, levels) = stack::open(path, |b| TimedBlockStore::new(b, Arc::clone(rec)))?;
    stack::warm(&shared);
    let dims = spec.dims();
    let mut reads = gen::rng(seed, gen::TAG_READS);
    let mut out = Replay {
        ingest,
        ops: Vec::new(),
        io: IoSnapshot::default(),
        reads: Reads::default(),
        boxes: 0,
        commits: 0,
        tiles_written: 0,
        wal_bytes: 0,
    };
    let stats = shared.stats().clone();
    if sizes.groups == 0 {
        let mut handle = &shared;
        let mut warm = gen::rng(seed, gen::TAG_SAMPLES);
        for _ in 0..sizes.warm_reads {
            let q = gen::next_query(&mut warm, &dims);
            ss_query::execute_plans_tiled(&mut handle, &[q.plan(&levels)]);
        }
        rec.take();
        let before = stats.snapshot();
        for _ in 0..sizes.reads {
            let q = gen::next_query(&mut reads, &dims);
            read(rec, &mut out.reads, &mut handle, &q, &levels, oracle, &[]);
        }
        out.io = stats.snapshot().since(&before);
    } else {
        let mut wal_path = path.as_os_str().to_owned();
        wal_path.push(".wal");
        let wal_path = std::path::PathBuf::from(wal_path);
        let _ = std::fs::remove_file(&wal_path);
        let (wal, _, _) = Wal::open(&wal_path).map_err(|e| e.to_string())?;
        let snap = SnapshotCoeffStore::new(shared, Some(wal), 0);
        let mut warm = gen::rng(seed, gen::TAG_SAMPLES);
        for _ in 0..sizes.warm_reads {
            let q = gen::next_query(&mut warm, &dims);
            let pin = snap.pin();
            ss_query::execute_plans_tiled(&mut &pin, &[q.plan(&levels)]);
        }
        rec.take();
        let before = stats.snapshot();
        let mut boxes = gen::rng(seed, gen::TAG_BOXES);
        let mut buf = DeltaBuffer::for_map(snap.map(), FlushMode::Exact);
        let reads_per_group = sizes.reads.div_ceil(sizes.groups);
        let (mut flat, mut vals) = (Vec::new(), Vec::new());
        let (go, go_rx) = mpsc::channel::<Vec<UpdateBox>>();
        let (done_tx, done) = mpsc::channel::<()>();
        out.reads = std::thread::scope(|s| -> Result<Reads, String> {
            // Reads run on a thread of their own, as on the server's
            // executors, taking strict turns with the writer below: one
            // operation at a time, but each side keeps its own allocator
            // arena and caches.
            let (snap, levels, dims) = (&snap, &levels, &dims);
            let reader = s.spawn(move || {
                let mut tally = Reads::default();
                let mut committed: Vec<UpdateBox> = Vec::new();
                for group in go_rx {
                    committed.extend(group);
                    let left = sizes.reads - tally.count as usize;
                    for _ in 0..reads_per_group.min(left) {
                        let q = gen::next_query(&mut reads, dims);
                        let pin = snap.pin();
                        read(rec, &mut tally, &mut &pin, &q, levels, oracle, &committed);
                    }
                    if done_tx.send(()).is_err() {
                        break;
                    }
                }
                tally
            });
            for _ in 0..sizes.groups {
                let mut group = Vec::with_capacity(COMMIT_EVERY);
                for _ in 0..COMMIT_EVERY {
                    let b = gen::next_box(&mut boxes, dims, BOX_SIDE);
                    let id = out.boxes + out.commits + 1;
                    rec.request(id, ROOT_UPDATE, || {
                        rec.span("transform.box_delta", || {
                            let delta = NdArray::from_vec(Shape::new(&b.dims), b.data.clone());
                            flat.clear();
                            vals.clear();
                            ss_transform::for_each_box_delta_standard(
                                levels,
                                &b.at,
                                &delta,
                                |idx, d| {
                                    flat.extend_from_slice(idx);
                                    vals.push(d);
                                },
                            )
                        });
                        rec.span("maintain.buffer_add", || {
                            buf.begin_box();
                            for (idx, &d) in flat.chunks_exact(dims.len()).zip(&vals) {
                                buf.add_at(snap.map(), idx, d);
                            }
                        });
                    });
                    out.boxes += 1;
                    group.push(b);
                }
                let wal_before = file_len(&wal_path)?;
                let id = out.boxes + out.commits + 1;
                let (_, report) = rec
                    .request(id, ROOT_COMMIT, || {
                        rec.span("maintain.commit", || snap.commit(&mut buf))
                    })
                    .map_err(|e| format!("replayed commit failed: {e}"))?;
                out.commits += 1;
                out.tiles_written += report.tiles_written;
                out.wal_bytes += file_len(&wal_path)? - wal_before;
                go.send(group).map_err(|_| "replay reader stopped early")?;
                done.recv().map_err(|_| "replay reader stopped early")?;
            }
            drop(go);
            Ok(reader.join().expect("replay reader panicked"))
        })?;
        out.io = stats.snapshot().since(&before);
    }
    out.ops = rec.take();
    Ok(out)
}

fn file_len(p: &Path) -> Result<u64, String> {
    std::fs::metadata(p)
        .map(|m| m.len())
        .map_err(|e| format!("stat {}: {e}", p.display()))
}

/// One read request through the serve, query and storage stage functions.
fn read<C: CoeffRead>(
    rec: &Recorder,
    out: &mut Reads,
    handle: &mut C,
    q: &Query,
    levels: &[u32],
    oracle: &Oracle,
    committed: &[UpdateBox],
) {
    let id = READ_IDS + out.count;
    let (value, coeffs, tiles) = rec.request(id, ROOT_READ, || {
        let line = rec.span("serve.encode", || proto::request_line(id as i128, q));
        let req = rec.span("serve.parse", || {
            let req = proto::parse_request(&line).expect("benchmark request parses");
            if let Op::Query(q) = &req.op {
                q.validate(oracle.dims())
                    .expect("benchmark request is in range");
            }
            req
        });
        let Op::Query(q) = req.op else {
            unreachable!("the replay sends queries only")
        };
        let plan = rec.span("query.plan", || q.plan(levels));
        let res = rec.span("query.exec", || {
            ss_query::execute_plans_tiled(handle, std::slice::from_ref(&plan))
        });
        let res = &res[0];
        let resp = rec.span("serve.encode", || {
            proto::ok_response_tiled(req.id, None, res.value, None)
        });
        let value = rec.span("serve.encode", || {
            proto::parse_response(&resp).expect("server response parses")
        });
        let value = value.result.expect("ok response");
        (value, plan.len(), res.tiles.len())
    });
    out.count += 1;
    out.coeffs += coeffs as u64;
    out.tiles += tiles as u64;
    if !oracle::matches(value, oracle.answer(q, committed)) {
        out.mismatches += 1;
    }
}

/// The chunk loop of `transform_standard_parallel` run on one thread:
/// read, forward transform, SHIFT-SPLIT deltas, tile-batched apply; then
/// flush and sync.
fn ingest(
    rec: &Arc<Recorder>,
    spec: &Spec,
    cells: &[i64],
    path: &Path,
) -> Result<Vec<Span>, String> {
    let data = stack::cube_array(spec, cells);
    let array = ArraySource::new(&data, &spec.chunk_levels());
    let src = TimedSource::new(&array, rec);
    let mut ws = WsFile::create(path, spec.meta()).map_err(|e| e.to_string())?;
    ws.meta.filled = spec.dims()[ws.meta.axis];
    let (meta, stats) = (ws.meta.clone(), ws.stats.clone());
    let (map, blocks) = ws.store.into_parts();
    let timed = TimedBlockStore::new(blocks, Arc::clone(rec));
    let cs = SharedCoeffStore::new(
        map,
        timed,
        stack::POOL_BLOCKS,
        stack::WORKERS,
        stats.clone(),
    );
    let n = src.domain_levels().to_vec();
    let grid = Shape::new(&src.grid());
    rec.request(0, ROOT_INGEST, || -> Result<(), String> {
        let mut batch: Vec<(usize, usize, f64)> = Vec::new();
        for ordinal in 0..grid.len() {
            let block = grid.unoffset(ordinal);
            let mut chunk = src.read_chunk(&block);
            rec.span("core.forward", || ss_core::standard::forward(&mut chunk));
            rec.span("core.split", || {
                ss_core::split::standard_deltas(&chunk, &n, &block, |idx, delta| {
                    let loc = cs.map().locate(idx);
                    batch.push((loc.tile, loc.slot, delta));
                })
            });
            rec.span("storage.apply", || cs.apply_batch(&mut batch));
        }
        rec.span("storage.flush", || cs.flush());
        cs.sync().map_err(|e| e.to_string())
    })?;
    let (map, timed) = cs.into_parts();
    let ws = WsFile::from_parts(meta, map, timed.into_inner(), stats, path);
    ws.save_meta().map_err(|e| e.to_string())?;
    Ok(rec.take())
}
