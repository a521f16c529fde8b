//! The workloads and their runs: set-up, the measured closed-loop load or
//! ingest loop, the answer checks, and the metrics.

use crate::gen::{self, UpdateBox};
use crate::load::{self, Check, Epochs, ReadLog, Window, WriteLog};
use crate::oracle::{self, Oracle};
use crate::replay::{self, Replay, Sizes};
use crate::report::{median_f64, peak_rss_mb, Outcome, Rates};
use crate::span::{self, Span};
use crate::stack::{self, Shared, Spec};
use crate::timed::{self, TimedBlockStore};
use ss_core::tiling::StandardTiling;
use ss_maintain::SnapshotCoeffStore;
use ss_serve::{Client, QueryServer};
use ss_storage::{BlockStore, FileBlockStore, IoSnapshot, WsFile};
use ss_transform::ArraySource;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load before the measured window starts (pool and connections settle).
pub const WARMUP: Duration = Duration::from_millis(500);
/// Sampled queries checked against a reopened store after a run.
pub const SAMPLES: usize = 256;
/// Largest share of a replayed request's time outside every stage span.
pub const RECONCILE_PCT: f64 = 10.0;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 64x64 store, pool-resident; two reader connections.
    ServeHot,
    /// 1024x1024 store, 64x the pool; two reader connections.
    ServeCold,
    /// 1024x1024 writable store with a WAL; one writer and one reader
    /// connection; the writer's boxes are the measured operations.
    RwMixed,
    /// Bulk transform of a 128^3 cube into a fresh store.
    Ingest,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeHot,
        Workload::ServeCold,
        Workload::RwMixed,
        Workload::Ingest,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve-hot",
            Workload::ServeCold => "serve-cold",
            Workload::RwMixed => "rw-mixed",
            Workload::Ingest => "ingest",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The store geometry.
    pub fn spec(self) -> Spec {
        match self {
            Workload::ServeHot => Spec::cube(2, 6, 2),
            Workload::ServeCold | Workload::RwMixed => Spec::cube(2, 10, 2),
            Workload::Ingest => Spec::cube(3, 7, 2),
        }
    }

    fn writable(self) -> bool {
        self == Workload::RwMixed
    }

    /// Set-ups per end-to-end run; `setup_s` is their median.
    fn setup_reps(self) -> usize {
        match self {
            Workload::ServeHot | Workload::Ingest => 15,
            _ => 3,
        }
    }

    /// What the traced run replays.
    pub fn replay_sizes(self) -> Sizes {
        match self {
            Workload::ServeHot => Sizes {
                warm_reads: 1000,
                reads: 20_000,
                groups: 0,
            },
            Workload::ServeCold => Sizes {
                warm_reads: 1000,
                reads: 3000,
                groups: 0,
            },
            // Enough commits that the snapshot overlay grows toward the
            // size it reaches in the TCP phases, where reads of
            // overlay-resident tiles skip the pool.
            Workload::RwMixed => Sizes {
                warm_reads: 1000,
                reads: 2048,
                groups: 512,
            },
            Workload::Ingest => Sizes {
                warm_reads: 0,
                reads: 0,
                groups: 0,
            },
        }
    }
}

/// One invocation.
#[derive(Clone, Debug)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Scratch directory for the stores (created and removed by the caller).
    pub dir: PathBuf,
}

/// The generated inputs of a run.
struct Inputs {
    spec: Spec,
    cells: Vec<i64>,
    oracle: Oracle,
}

impl Inputs {
    fn generate(cfg: &Config) -> Inputs {
        let spec = cfg.workload.spec();
        let cells = gen::cube(cfg.seed, &spec.dims());
        let oracle = Oracle::new(&spec.dims(), &cells);
        Inputs {
            spec,
            cells,
            oracle,
        }
    }

    /// Ingests the cube into a fresh store at `path` with `wrap` between
    /// the pool and the file.
    fn ingest<S: BlockStore + Send + Sync>(
        &self,
        path: &Path,
        wrap: impl FnOnce(FileBlockStore) -> S,
        unwrap: impl FnOnce(S) -> FileBlockStore,
    ) -> Result<IoSnapshot, String> {
        let data = stack::cube_array(&self.spec, &self.cells);
        let src = ArraySource::new(&data, &self.spec.chunk_levels());
        stack::ingest(path, &self.spec, &src, wrap, unwrap)
    }
}

/// A running server and, when writable, its snapshot store.
struct Running<S: BlockStore> {
    server: QueryServer,
    snap: Option<Arc<SnapshotCoeffStore<StandardTiling, S>>>,
}

impl<S: BlockStore + Send + Sync + 'static> Running<S> {
    fn start(
        shared: Shared<S>,
        levels: Vec<u32>,
        writable: bool,
        wal: &Path,
    ) -> Result<Self, String> {
        stack::warm(&shared);
        if writable {
            let (server, snap) = stack::serve_writable(shared, levels, wal)?;
            Ok(Running {
                server,
                snap: Some(snap),
            })
        } else {
            Ok(Running {
                server: stack::serve(shared, levels)?,
                snap: None,
            })
        }
    }

    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stops the server; a writable store is checkpointed (folded into
    /// the file, synced, WAL truncated) as `serve --writable` does on a
    /// clean shutdown.
    fn stop(self) -> Result<(), String> {
        self.server.shutdown();
        if let Some(snap) = self.snap {
            let deadline = Instant::now() + Duration::from_secs(30);
            while !snap.checkpoint().map_err(|e| e.to_string())? {
                if Instant::now() > deadline {
                    return Err("checkpoint still blocked by pinned readers after 30 s".into());
                }
                std::thread::yield_now();
            }
        }
        Ok(())
    }
}

/// What the connections of one load phase did.
struct Load {
    window: Window,
    reads: Vec<ReadLog>,
    write: Option<WriteLog>,
}

impl Load {
    fn drive(addr: SocketAddr, cfg: &Config, oracle: &Oracle, seconds: f64) -> Load {
        let window = Window::after(WARMUP, seconds);
        let seed = cfg.seed;
        let dims = oracle.dims();
        let epochs = Epochs::default();
        let ep = &epochs;
        let (reads, write) = std::thread::scope(|s| {
            if cfg.workload.writable() {
                let w = s.spawn(move || load::writer(addr, seed, dims, window, ep));
                let r = s.spawn(move || {
                    load::reader(addr, seed, gen::TAG_READS, dims, window, Check::Later(ep))
                });
                let r = r.join().expect("reader thread panicked");
                (vec![r], Some(w.join().expect("writer thread panicked")))
            } else {
                let handles: Vec<_> = (0..2)
                    .map(|c| {
                        s.spawn(move || {
                            let check = Check::Now(oracle);
                            load::reader(addr, seed, gen::TAG_READS + c, dims, window, check)
                        })
                    })
                    .collect();
                let reads = handles
                    .into_iter()
                    .map(|h| h.join().expect("reader thread panicked"))
                    .collect();
                (reads, None)
            }
        });
        Load {
            window,
            reads,
            write,
        }
    }

    fn committed(&self) -> &[UpdateBox] {
        self.write.as_ref().map_or(&[], |w| w.boxes.as_slice())
    }

    /// Checks the readers' logged answers and counts every request.
    fn check(&self, cfg: &Config, oracle: &Oracle, out: &mut Outcome) {
        for log in &self.reads {
            let (checked, mismatched) = if log.answers.is_empty() {
                (log.sent - log.errors, log.mismatched)
            } else {
                load::check_reads(log, cfg.seed, oracle, self.committed())
            };
            out.count(log.sent, log.errors + mismatched);
            eprintln!(
                "  reader {}: {} requests, {} checked, {} mismatched, {} client errors",
                log.tag - gen::TAG_READS,
                log.sent,
                checked,
                mismatched,
                log.errors
            );
        }
        if let Some(w) = &self.write {
            out.count(w.ops, w.errors);
        }
    }

    /// The reads of every reader connection.
    fn read_rates(&self) -> Rates {
        let lat: Vec<u32> = self
            .reads
            .iter()
            .flat_map(|r| r.lat.iter().copied())
            .collect();
        Rates::of(&lat, self.window.seconds())
    }

    fn reads_answered(&self) -> u64 {
        self.reads.iter().map(|r| r.sent - r.errors).sum()
    }

    /// The workload's measured operations: the writer's boxes on
    /// `rw-mixed`, the reads everywhere else.
    fn measured(&self) -> Rates {
        match &self.write {
            Some(w) => Rates::of(&w.durable, self.window.seconds()),
            None => self.read_rates(),
        }
    }

    fn summarize(&self) {
        let r = self.read_rates();
        eprintln!(
            "  reads: {} ({:.0}/s), p50 {:.1} us, p90 {:.1} us, p99 {:.1} us",
            r.samples, r.ops_per_s, r.p50_us, r.p90_us, r.p99_us
        );
        if let Some(w) = &self.write {
            let d = self.measured();
            let u = Rates::of(&w.update_ns, self.window.seconds());
            let c = Rates::of(&w.commit_ns, self.window.seconds());
            eprintln!(
                "  boxes: {} durable ({:.0}/s), p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms; \
                 update p50 {:.1} us ({} samples); commit p50 {:.2} ms, p99 {:.2} ms ({} samples)",
                d.samples,
                d.ops_per_s,
                d.p50_us / 1e3,
                d.p90_us / 1e3,
                d.p99_us / 1e3,
                u.p50_us,
                u.samples,
                c.p50_us / 1e3,
                c.p99_us / 1e3,
                c.samples
            );
        }
    }
}

/// Runs one end-to-end (`trace == false`) or traced invocation.
pub fn run(cfg: &Config, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    match (cfg.workload, trace) {
        (Workload::Ingest, false) => ingest_e2e(cfg, &mut out)?,
        (Workload::Ingest, true) => ingest_traced(cfg, &mut out)?,
        (_, false) => serve_e2e(cfg, &mut out)?,
        (_, true) => serve_traced(cfg, &mut out)?,
    }
    Ok(out)
}

fn store_path(cfg: &Config, name: &str) -> PathBuf {
    cfg.dir.join(format!("{name}.ws"))
}

fn wal_path(store: &Path) -> PathBuf {
    let mut p = store.as_os_str().to_owned();
    p.push(".wal");
    PathBuf::from(p)
}

/// Times `reps` set-ups and keeps the last one's result.
fn timed_setups<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        // Tear the previous set-up down before timing the next one.
        drop(last.take());
        let t0 = Instant::now();
        let v = setup()?;
        secs.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    eprintln!("  set-up: {secs:.3?} s");
    Ok((last.expect("at least one set-up"), median_f64(&secs)))
}

/// The end-to-end metrics; `rss_mb` is the peak RSS read as the measured
/// window ends, before the answer checks and summaries allocate.
fn push_common(out: &mut Outcome, setup_s: f64, ops: Rates, rss_mb: f64, disk: u64, cells: usize) {
    out.push("setup_s", setup_s, "s");
    out.push("ops_per_s", ops.ops_per_s, "1/s");
    out.push("op_p50_us", ops.p50_us, "us");
    out.push("op_p90_us", ops.p90_us, "us");
    out.push("peak_rss_mb", rss_mb, "MB");
    out.push("disk_bytes_per_cell", disk as f64 / cells as f64, "B");
}

/// Set-up for a serving workload: generate, ingest, open, warm, bind.
fn serve_setup(cfg: &Config, path: &Path) -> Result<(Inputs, Running<FileBlockStore>), String> {
    let inputs = Inputs::generate(cfg);
    inputs.ingest(path, |b| b, |b| b)?;
    let (shared, levels) = stack::open(path, |b| b)?;
    let running = Running::start(shared, levels, cfg.workload.writable(), &wal_path(path))?;
    Ok((inputs, running))
}

fn serve_e2e(cfg: &Config, out: &mut Outcome) -> Result<(), String> {
    let path = store_path(cfg, "store");
    let reps = cfg.workload.setup_reps();
    let ((inputs, running), setup_s) = timed_setups(reps, || serve_setup(cfg, &path))?;
    let disk = stack::disk_bytes(&path)?;
    let load = Load::drive(running.addr(), cfg, &inputs.oracle, cfg.seconds);
    let rss_mb = peak_rss_mb()?;
    load.summarize();
    load.check(cfg, &inputs.oracle, out);
    if cfg.workload.writable() {
        reopen_check(cfg, running, &path, &inputs.oracle, load.committed(), out)?;
    } else {
        running.stop()?;
    }
    let cells = inputs.spec.cells();
    push_common(out, setup_s, load.measured(), rss_mb, disk, cells);
    Ok(())
}

/// The sampled queries checked after a run.
fn samples(cfg: &Config, dims: &[usize]) -> Vec<ss_serve::Query> {
    let mut r = gen::rng(cfg.seed, gen::TAG_SAMPLES);
    (0..SAMPLES)
        .map(|_| gen::next_query(&mut r, dims))
        .collect()
}

/// Answers `queries` on the store at `path`, opened afresh.
fn reopened_answers(path: &Path, queries: &[ss_serve::Query]) -> Result<Vec<f64>, String> {
    let (shared, levels) = stack::open(path, |b| b)?;
    let mut handle = &shared;
    Ok(queries
        .iter()
        .map(|q| ss_query::execute_plans_tiled(&mut handle, &[q.plan(&levels)])[0].value)
        .collect())
}

/// After a read-write run: the live server answers the sampled queries,
/// the store is checkpointed and reopened, and the reopened store must
/// give the same answers, bit for bit, and agree with the oracle.
fn reopen_check<S: BlockStore + Send + Sync + 'static>(
    cfg: &Config,
    running: Running<S>,
    path: &Path,
    oracle: &Oracle,
    committed: &[UpdateBox],
    out: &mut Outcome,
) -> Result<(), String> {
    let queries = samples(cfg, oracle.dims());
    let live = Client::connect(running.addr())
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.run(&queries).map_err(|e| e.to_string()));
    running.stop()?;
    let reopened = reopened_answers(path, &queries)?;
    let mut failed = 0;
    match live {
        Ok(live) => {
            for ((q, l), r) in queries.iter().zip(live).zip(&reopened) {
                let want = oracle.answer(q, committed);
                let same = matches!(l, Ok(v) if v.to_bits() == r.to_bits());
                if !same || !oracle::matches(*r, want) {
                    failed += 1;
                }
            }
        }
        Err(e) => {
            out.broken.push(format!("live sample queries failed: {e}"));
            failed = queries.len() as u64;
        }
    }
    eprintln!("  reopen check: {} samples, {failed} failed", queries.len());
    out.count(2 * queries.len() as u64, failed);
    Ok(())
}

fn ingest_e2e(cfg: &Config, out: &mut Outcome) -> Result<(), String> {
    let path = store_path(cfg, "store");
    let (inputs, setup_s) = timed_setups(cfg.workload.setup_reps(), || Ok(Inputs::generate(cfg)))?;
    let data = stack::cube_array(&inputs.spec, &inputs.cells);
    let src = ArraySource::new(&data, &inputs.spec.chunk_levels());
    // Back-to-back ingests while the next one is expected to end inside
    // the window (always at least one).
    let t_start = Instant::now();
    let mut lat = Vec::new();
    loop {
        let t0 = Instant::now();
        stack::ingest(&path, &inputs.spec, &src, |b| b, |b| b)?;
        let took = t0.elapsed();
        lat.push(took.as_nanos() as u64);
        if (t_start.elapsed() + took).as_secs_f64() > cfg.seconds {
            break;
        }
    }
    let secs = t_start.elapsed().as_secs_f64();
    let rss_mb = peak_rss_mb()?;
    eprintln!(
        "  ingests: {} in {secs:.2} s, {:.3} Mcells/s",
        lat.len(),
        (lat.len() * inputs.spec.cells()) as f64 / secs / 1e6
    );
    out.count(lat.len() as u64, 0);
    scrub_and_check(cfg, &path, &inputs.oracle, out)?;
    let disk = stack::disk_bytes(&path)?;
    let cells = inputs.spec.cells();
    push_common(out, setup_s, Rates::of(&lat, secs), rss_mb, disk, cells);
    Ok(())
}

/// After an ingest: CRC scrub of the whole store, then the sampled
/// queries on the reopened store against the oracle.
fn scrub_and_check(
    cfg: &Config,
    path: &Path,
    oracle: &Oracle,
    out: &mut Outcome,
) -> Result<(), String> {
    let scrub = WsFile::open(path)
        .and_then(|mut ws| ws.verify())
        .map_err(|e| e.to_string())?;
    if !scrub.is_clean() {
        out.broken
            .push(format!("scrub found corrupt blocks: {:?}", scrub.corrupt));
    }
    let queries = samples(cfg, oracle.dims());
    let answers = reopened_answers(path, &queries)?;
    let failed = queries
        .iter()
        .zip(&answers)
        .filter(|(q, &a)| !oracle::matches(a, oracle.answer(q, &[])))
        .count() as u64;
    eprintln!(
        "  scrub: {} blocks clean={}; reopen check: {} samples, {failed} failed",
        scrub.blocks,
        scrub.is_clean(),
        queries.len()
    );
    out.count(
        1 + queries.len() as u64,
        failed + u64::from(!scrub.is_clean()),
    );
    Ok(())
}

/// Client-side figures of the traced run's untraced phase.
#[derive(Default)]
struct Observed {
    read_p50_us: f64,
    update_p50_us: f64,
    batch_mean: f64,
    ops_per_s: f64,
}

fn copy_store(from: &Path, to: &Path) -> Result<(), String> {
    let with = |p: &Path, ext: &str| {
        let mut s = p.as_os_str().to_owned();
        s.push(ext);
        PathBuf::from(s)
    };
    for ext in ["", ".crc", ".meta"] {
        std::fs::copy(with(from, ext), with(to, ext)).map_err(|e| format!("copying store: {e}"))?;
    }
    Ok(())
}

/// One TCP phase of the traced run over `shared`.
fn tcp_phase<S: BlockStore + Send + Sync + 'static>(
    cfg: &Config,
    inputs: &Inputs,
    shared: Shared<S>,
    levels: Vec<u32>,
    path: &Path,
    out: &mut Outcome,
) -> Result<(Load, f64), String> {
    let batches = ss_obs::global().counter("serve.batches");
    let batches_before = batches.get();
    let running = Running::start(shared, levels, cfg.workload.writable(), &wal_path(path))?;
    let load = Load::drive(running.addr(), cfg, &inputs.oracle, cfg.seconds / 2.0);
    running.stop()?;
    let batch_mean = load.reads_answered() as f64 / (batches.get() - batches_before).max(1) as f64;
    load.summarize();
    load.check(cfg, &inputs.oracle, out);
    Ok((load, batch_mean))
}

fn serve_traced(cfg: &Config, out: &mut Outcome) -> Result<(), String> {
    let path = store_path(cfg, "store");
    let traced_path = store_path(cfg, "traced");
    let inputs = Inputs::generate(cfg);
    let ingest_io = inputs.ingest(&path, |b| b, |b| b)?;
    copy_store(&path, &traced_path)?;

    eprintln!("  untraced phase");
    let (shared, levels) = stack::open(&path, |b| b)?;
    let (plain, batch_mean) = tcp_phase(cfg, &inputs, shared, levels, &path, out)?;
    let observed = Observed {
        read_p50_us: plain.read_rates().p50_us,
        update_p50_us: plain
            .write
            .as_ref()
            .map_or(0.0, |w| Rates::of(&w.update_ns, 1.0).p50_us),
        batch_mean,
        ops_per_s: plain.measured().ops_per_s,
    };

    eprintln!("  traced phase (timed block store)");
    let rec_tcp = Arc::new(span::Recorder::default());
    let (shared, levels) = stack::open(&traced_path, |b| {
        TimedBlockStore::new(b, Arc::clone(&rec_tcp))
    })?;
    let (traced, _) = tcp_phase(cfg, &inputs, shared, levels, &traced_path, out)?;
    let traced_ops_per_s = traced.measured().ops_per_s;
    let tcp_spans = rec_tcp.take();
    eprintln!(
        "  traced phase device reads: {} calls, mean {:.2} us",
        count_of(&tcp_spans, timed::DEVICE_READ),
        mean_us(&tcp_spans, timed::DEVICE_READ)
    );

    eprintln!("  replay");
    let rec = Arc::new(span::Recorder::default());
    let sizes = cfg.workload.replay_sizes();
    let r = replay::run(
        &rec,
        &inputs.spec,
        cfg.seed,
        &inputs.cells,
        &inputs.oracle,
        &store_path(cfg, "replay"),
        sizes,
    )?;
    out.count(r.reads.count, r.reads.mismatches);
    let overhead = 100.0 * (observed.ops_per_s / traced_ops_per_s - 1.0);
    per_layer(out, &r, &observed, ingest_io, inputs.spec.cells(), overhead);
    registry_cross_checks();
    Ok(())
}

fn ingest_traced(cfg: &Config, out: &mut Outcome) -> Result<(), String> {
    let path = store_path(cfg, "store");
    let inputs = Inputs::generate(cfg);
    let t0 = Instant::now();
    inputs.ingest(&path, |b| b, |b| b)?;
    let plain_s = t0.elapsed().as_secs_f64();
    scrub_and_check(cfg, &path, &inputs.oracle, out)?;

    let rec_tcp = Arc::new(span::Recorder::default());
    let t0 = Instant::now();
    let io = inputs.ingest(
        &path,
        |b| TimedBlockStore::new(b, Arc::clone(&rec_tcp)),
        TimedBlockStore::into_inner,
    )?;
    let traced_s = t0.elapsed().as_secs_f64();
    out.count(2, 0);
    eprintln!("  ingest: untraced {plain_s:.3} s, traced {traced_s:.3} s");

    let rec = Arc::new(span::Recorder::default());
    let sizes = cfg.workload.replay_sizes();
    let r = replay::run(
        &rec,
        &inputs.spec,
        cfg.seed,
        &inputs.cells,
        &inputs.oracle,
        &store_path(cfg, "replay"),
        sizes,
    )?;
    let overhead = 100.0 * (traced_s / plain_s - 1.0);
    per_layer(
        out,
        &r,
        &Observed::default(),
        io,
        inputs.spec.cells(),
        overhead,
    );
    registry_cross_checks();
    Ok(())
}

fn count_of(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).count() as u64
}

/// Mean duration of the spans named `name`, 0 when there are none.
fn mean_us(spans: &[Span], name: &str) -> f64 {
    let (n, ns) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(n, ns), s| (n + 1, ns + s.dur_ns()));
    if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64 / 1e3
    }
}

/// Replayed read requests: their root spans, every span of their trees,
/// and the sum of those spans' self times.
pub struct Reconciliation {
    /// Replayed reads.
    pub requests: u64,
    /// Sum of the roots' durations, ns.
    pub total_ns: u64,
    /// Sum of every request-tree span's self time, ns.
    pub self_sum_ns: u64,
    /// Self time of the roots (outside every stage span), ns.
    pub unattributed_ns: u64,
    /// Median root duration, ns.
    pub median_ns: f64,
}

impl Reconciliation {
    /// Reconciles the read requests among `spans`.
    pub fn of(spans: &[Span]) -> Reconciliation {
        let reads: std::collections::HashSet<u64> = spans
            .iter()
            .filter(|s| s.parent == 0 && s.name == replay::ROOT_READ)
            .map(|s| s.req)
            .collect();
        let tree: Vec<Span> = spans
            .iter()
            .filter(|s| reads.contains(&s.req))
            .cloned()
            .collect();
        let own = span::self_times(&tree);
        let roots: Vec<&Span> = tree.iter().filter(|s| s.parent == 0).collect();
        let durs: Vec<f64> = roots.iter().map(|s| s.dur_ns() as f64).collect();
        Reconciliation {
            requests: roots.len() as u64,
            total_ns: roots.iter().map(|s| s.dur_ns()).sum(),
            self_sum_ns: tree.iter().map(|s| own[&s.id]).sum(),
            unattributed_ns: roots.iter().map(|s| own[&s.id]).sum(),
            median_ns: median_f64(&durs),
        }
    }

    /// Share of the replayed time outside every stage span, percent.
    pub fn unattributed_pct(&self) -> f64 {
        100.0 * self.unattributed_ns as f64 / self.total_ns.max(1) as f64
    }
}

fn per_layer(
    out: &mut Outcome,
    r: &Replay,
    obs: &Observed,
    ingest_io: IoSnapshot,
    cells: usize,
    overhead_pct: f64,
) {
    let ops = span::stages(&r.ops);
    let ing = span::stages(&r.ingest);
    let all: Vec<Span> = r.ingest.iter().chain(&r.ops).cloned().collect();
    let per = |n: u64, v: f64| if n == 0 { 0.0 } else { v / n as f64 };
    let self_ns = |m: &std::collections::BTreeMap<&str, span::Stage>, name: &str| {
        m.get(name).map_or(0.0, |s| s.self_ns as f64)
    };
    let reads = r.reads.count;
    let rec = Reconciliation::of(&r.ops);
    if rec.self_sum_ns != rec.total_ns {
        out.broken.push(format!(
            "replay self times sum to {} ns, request total is {} ns",
            rec.self_sum_ns, rec.total_ns
        ));
    }
    let transport = if reads == 0 {
        0.0
    } else {
        obs.read_p50_us - rec.median_ns / 1e3
    };
    if reads > 0 {
        eprintln!(
            "  reconciliation: {} requests, replay median {:.2} us vs client p50 {:.2} us, \
             unattributed {:.2}% (bound {RECONCILE_PCT}%)",
            rec.requests,
            rec.median_ns / 1e3,
            obs.read_p50_us,
            rec.unattributed_pct()
        );
        if rec.unattributed_pct() > RECONCILE_PCT || transport < 0.0 {
            eprintln!("  warning: replay does not reconcile within its bound");
        }
    }
    let io = r.io;
    let mcells = cells as f64 / 1e6;
    out.push(
        "serve.parse_us",
        per(reads, self_ns(&ops, "serve.parse") / 1e3),
        "us",
    );
    out.push(
        "serve.encode_us",
        per(reads, self_ns(&ops, "serve.encode") / 1e3),
        "us",
    );
    out.push("serve.transport_us", transport, "us");
    out.push("serve.batch_mean", obs.batch_mean, "count");
    out.push("serve.update_ack_us", obs.update_p50_us, "us");
    out.push(
        "query.plan_us",
        per(reads, self_ns(&ops, "query.plan") / 1e3),
        "us",
    );
    out.push(
        "query.exec_self_us",
        per(reads, self_ns(&ops, "query.exec") / 1e3),
        "us",
    );
    out.push(
        "query.coeffs_per_req",
        per(reads, r.reads.coeffs as f64),
        "count",
    );
    out.push(
        "query.tiles_per_req",
        per(reads, r.reads.tiles as f64),
        "count",
    );
    // Over the replayed requests; over the ingest where there are none.
    let pool = if reads == 0 { ingest_io } else { io };
    out.push(
        "storage.pool_hit_ratio",
        per(pool.pool_hits + pool.pool_misses, pool.pool_hits as f64),
        "ratio",
    );
    out.push(
        "storage.block_reads_per_req",
        per(reads, io.block_reads as f64),
        "count",
    );
    out.push(
        "storage.evictions_per_req",
        per(reads, io.pool_evictions as f64),
        "count",
    );
    out.push(
        "storage.device_read_us",
        mean_us(&all, timed::DEVICE_READ),
        "us",
    );
    out.push(
        "storage.block_reads_per_mcell",
        ingest_io.block_reads as f64 / mcells,
        "count",
    );
    out.push(
        "storage.block_writes_per_mcell",
        ingest_io.block_writes as f64 / mcells,
        "count",
    );
    out.push(
        "storage.apply_ms",
        self_ns(&ing, "storage.apply") / 1e6,
        "ms",
    );
    out.push(
        "storage.device_write_us",
        mean_us(&all, timed::DEVICE_WRITE),
        "us",
    );
    out.push(
        "storage.sync_ms",
        mean_us(&r.ingest, timed::DEVICE_SYNC) / 1e3,
        "ms",
    );
    out.push("core.forward_ms", self_ns(&ing, "core.forward") / 1e6, "ms");
    out.push("core.split_ms", self_ns(&ing, "core.split") / 1e6, "ms");
    out.push(
        "transform.read_ms",
        self_ns(&ing, timed::CHUNK_READ) / 1e6,
        "ms",
    );
    out.push(
        "transform.box_delta_us",
        per(r.boxes, self_ns(&ops, "transform.box_delta") / 1e3),
        "us",
    );
    out.push(
        "maintain.buffer_add_us",
        per(r.boxes, self_ns(&ops, "maintain.buffer_add") / 1e3),
        "us",
    );
    out.push(
        "maintain.commit_ms",
        per(
            r.commits,
            ops.get("maintain.commit")
                .map_or(0.0, |s| s.total_ns as f64)
                / 1e6,
        ),
        "ms",
    );
    out.push(
        "maintain.tiles_per_commit",
        per(r.commits, r.tiles_written as f64),
        "count",
    );
    out.push(
        "maintain.wal_bytes_per_commit",
        per(r.commits, r.wal_bytes as f64),
        "B",
    );
    out.push("bench.trace_overhead_pct", overhead_pct, "%");
    let (service_us, unattributed_pct) = if reads == 0 {
        (0.0, 0.0)
    } else {
        (
            rec.total_ns as f64 / rec.requests as f64 / 1e3,
            rec.unattributed_pct(),
        )
    };
    out.push("bench.replay_service_us", service_us, "us");
    out.push("bench.replay_unattributed_pct", unattributed_pct, "%");
}

/// The program's always-on registry histograms, printed as cross-checks.
fn registry_cross_checks() {
    let g = ss_obs::global();
    for name in [
        "storage.block_read_ns",
        "snapshot.commit_ns",
        "wal.append_ns",
        "serve.request_ns",
    ] {
        let h = g.histogram(name).snapshot();
        if h.count > 0 {
            eprintln!(
                "  registry {name}: {} samples, p50 {:.1} us",
                h.count,
                h.p50() as f64 / 1e3
            );
        }
    }
}
