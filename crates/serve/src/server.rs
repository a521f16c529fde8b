//! The concurrent query server.
//!
//! Thread layout — **run to completion**:
//!
//! * one **acceptor** thread owns the listener and spawns one thread per
//!   connection,
//! * each **connection** thread does all of its requests' work itself: it
//!   reads a line, parses, validates and plans it, then takes every
//!   further complete line already sitting in its read buffer (up to
//!   [`ServeConfig::batch_max`]) and executes the planned queries as one
//!   tile-major batch through the server's `Backend`. A pipelining
//!   client — or a router's `partial` sub-batch — therefore shares one
//!   fetch of every hot tile. Replies go out in arrival order, all of a
//!   run's replies in one buffered `write`.
//!
//! [`ServeConfig::workers`] is the number of **execution slots**: a
//! connection checks one out for each batch and waits only when every
//! slot is busy, so at most `workers` batches touch the store (or, on a
//! router, the shard fleet — each router slot owns its own shard
//! connections) at once. Invalid lines are answered with a typed error
//! without touching a slot.
//!
//! A reply is **on the wire before it is counted** against the request
//! budget, so a budgeted server never stops — and its process never
//! exits — with a final answer still unsent.
//!
//! A batch runs under `catch_unwind`: a failed tile read (the typed
//! [`StorageError`] panic of a block store) answers every request of the
//! batch with the `io` error kind, any other panic with `internal`; the
//! connection and its execution slot stay in service.
//!
//! Shutdown mirrors [`ss_obs`]'s metrics server: a stop flag plus a
//! throwaway self-connection to unblock `accept`. Every connection's
//! socket is then shut down, so blocked reads return, and every
//! connection thread is joined before [`QueryServer::shutdown`] or
//! [`QueryServer::join`] returns. A request budget
//! ([`ServeConfig::max_requests`]) triggers the same path once enough
//! responses have been written, which is how tests and CI smoke runs get
//! a bounded, clean exit.
//!
//! # Writable serving
//!
//! [`QueryServer::bind_writable`] serves the same protocol over a
//! [`SnapshotCoeffStore`] and additionally accepts `update` / `commit`
//! mutations. A mutation ends its connection's run: the queries read
//! before it execute first, then `update` runs the SHIFT-SPLIT
//! decomposition into a shared [`DeltaBuffer`] or `commit` group-commits
//! the buffer as the next epoch through the snapshot store's WAL-backed
//! commit path, and the replies are written before the next line is
//! read. Query batches pin one snapshot for the whole batch, so a batch
//! never observes a half-published epoch, and any query read after a
//! commit's response pins an epoch at least as new (read-your-writes).

use crate::proto::{self, Mutation, Op, Request, RequestError};
use crate::router::{RouterBackend, RouterTopology};
use ss_core::TilingMap;
use ss_maintain::{DeltaBuffer, FlushMode, SnapshotCoeffStore};
use ss_obs::trace::{self, SpanCtx, TraceEventKind};
use ss_obs::{Counter, Histogram};
use ss_query::PlanTiles;
use ss_storage::{BlockStore, CoeffRead, SharedCoeffStore, StorageError};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Server sizing and lifetime knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Execution slots: how many query batches run at once.
    pub workers: usize,
    /// Most requests one connection batches together.
    pub batch_max: usize,
    /// Stop after this many responses (`None` = serve forever).
    pub max_requests: Option<u64>,
    /// Requests at or above this duration hit the slow-request log (a
    /// structured stderr line plus, when tracing is on, a
    /// `slow_request` trace event). `None` disables the log.
    pub slow_ns: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            batch_max: 64,
            max_requests: None,
            slow_ns: None,
        }
    }
}

/// A query's contribution list: `(coefficient index, weight)` terms.
pub(crate) type Plan = Vec<(Vec<usize>, f64)>;

/// One executed plan: its answer with the per-tile partials, or a typed
/// protocol error `(kind, message)`.
pub(crate) type Outcome = Result<PlanTiles, (String, String)>;

/// What a server executes its query batches against: a batch of plans
/// in, one answer with per-tile partials (or a typed error) per plan out.
pub(crate) trait Backend: Send + Sync + 'static {
    /// State owned by one execution slot (a router's shard connections).
    type Slot: Send;
    /// The span covering one batch's execution.
    const SPAN: &'static str = "serve.exec";

    /// A fresh slot.
    fn slot(&self) -> Self::Slot;

    /// Appends one outcome per plan to `out`, in plan order. `traces[i]`
    /// is plan `i`'s trace id, forwarded by backends that call further
    /// servers. Answers are bit-identical to serial execution because
    /// the evaluation order is fixed by the plans alone (see
    /// [`ss_query::execute_plans_tiled`]).
    fn execute(
        &self,
        slot: &mut Self::Slot,
        plans: &[Plan],
        traces: &[Option<u64>],
        out: &mut Vec<Outcome>,
    );
}

impl<M, S> Backend for SharedCoeffStore<M, S>
where
    M: TilingMap + 'static,
    S: BlockStore + Send + Sync + 'static,
{
    type Slot = ();

    fn slot(&self) {}

    fn execute(&self, _: &mut (), plans: &[Plan], _: &[Option<u64>], out: &mut Vec<Outcome>) {
        execute_local(self, plans, out);
    }
}

impl<M, S> Backend for SnapshotCoeffStore<M, S>
where
    M: TilingMap + 'static,
    S: BlockStore + Send + Sync + 'static,
{
    type Slot = ();

    fn slot(&self) {}

    /// Pins one epoch for the whole batch: no batch sees a half-published
    /// commit, and a batch read after a commit's reply sees that commit.
    fn execute(&self, _: &mut (), plans: &[Plan], _: &[Option<u64>], out: &mut Vec<Outcome>) {
        execute_local(&self.pin(), plans, out);
    }
}

fn execute_local<C: CoeffRead>(mut store: C, plans: &[Plan], out: &mut Vec<Outcome>) {
    out.extend(
        ss_query::execute_plans_tiled(&mut store, plans)
            .into_iter()
            .map(Ok),
    );
}

/// Type-erased mutation sink, so [`State`] stays non-generic. `Ok`
/// carries the response value (deltas buffered for an update, the
/// published epoch for a commit); `Err` carries a protocol error kind
/// plus message.
pub(crate) trait Mutator: Send + Sync {
    fn update(&self, at: &[usize], dims: &[usize], data: Vec<f64>) -> Result<f64, MutErr>;
    fn apply(&self, ops: &[(usize, usize, f64)]) -> Result<f64, MutErr>;
    fn commit(&self) -> Result<f64, MutErr>;
}

pub(crate) type MutErr = (&'static str, String);

/// The writable backend: one shared delta buffer feeding a snapshot
/// store. The buffer mutex also serialises commits relative to updates,
/// so a commit drains exactly the updates answered before it.
struct WritableBackend<M: TilingMap, S: BlockStore> {
    store: Arc<SnapshotCoeffStore<M, S>>,
    buffer: Mutex<DeltaBuffer>,
    levels: Vec<u32>,
}

impl<M, S> Mutator for WritableBackend<M, S>
where
    M: TilingMap,
    S: BlockStore + Send + Sync,
{
    fn update(&self, at: &[usize], dims: &[usize], data: Vec<f64>) -> Result<f64, MutErr> {
        let delta = ss_array::NdArray::from_vec(ss_array::Shape::new(dims), data);
        let map = self.store.map();
        let mut buf = self.buffer.lock().unwrap();
        buf.begin_box();
        let report =
            ss_transform::for_each_box_delta_standard(&self.levels, at, &delta, |idx, d| {
                buf.add_at(map, idx, d);
            });
        Ok(report.coeffs_touched as f64)
    }

    fn apply(&self, ops: &[(usize, usize, f64)]) -> Result<f64, MutErr> {
        let map = self.store.map();
        let (tiles, capacity) = (map.num_tiles(), map.block_capacity());
        for &(tile, slot, _) in ops {
            if tile >= tiles || slot >= capacity {
                return Err((
                    "bad_request",
                    format!(
                        "op ({tile}, {slot}) outside store geometry \
                         ({tiles} tiles x {capacity} slots)"
                    ),
                ));
            }
        }
        let mut buf = self.buffer.lock().unwrap();
        buf.begin_box();
        for &(tile, slot, delta) in ops {
            buf.add(tile, slot, delta);
        }
        Ok(ops.len() as f64)
    }

    fn commit(&self) -> Result<f64, MutErr> {
        let mut buf = self.buffer.lock().unwrap();
        match self.store.commit(&mut buf) {
            // Epochs stay far below 2^53 in practice, so the f64 is exact.
            Ok((epoch, _)) => Ok(epoch as f64),
            Err(e) => Err(("io", format!("commit failed: {e}"))),
        }
    }
}

struct Metrics {
    requests_ok: Counter,
    requests_err: Counter,
    requests_slow: Counter,
    batches: Counter,
    request_ns: Histogram,
    batch_size: Histogram,
}

impl Metrics {
    fn resolve() -> Metrics {
        let r = ss_obs::global();
        Metrics {
            requests_ok: r.counter("serve.requests_ok"),
            requests_err: r.counter("serve.requests_err"),
            requests_slow: r.counter("serve.requests_slow"),
            batches: r.counter("serve.batches"),
            request_ns: r.histogram("serve.request_ns"),
            batch_size: r.histogram("serve.batch_size"),
        }
    }
}

/// State shared by the acceptor and the connection threads.
struct State {
    stop: AtomicBool,
    answered: AtomicU64,
    max_requests: Option<u64>,
    addr: SocketAddr,
    levels: Vec<u32>,
    dims: Vec<usize>,
    batch_max: usize,
    metrics: Metrics,
    slow_ns: Option<u64>,
    /// `Some` on writable servers; `None` rejects mutations as `read_only`.
    mutator: Option<Arc<dyn Mutator>>,
    /// Every live connection: a handle on its socket (shut down on stop,
    /// so a blocked read returns) and its thread.
    conns: Mutex<Vec<(TcpStream, JoinHandle<()>)>>,
}

impl State {
    /// The slow-request log: fires only at/above the configured
    /// threshold — a structured stderr line, a counter, and (when
    /// tracing is on) a `slow_request` event tied to the request's span.
    fn observe_slow(&self, id: Option<i128>, root: &SpanCtx, dur_ns: u64) {
        let Some(threshold_ns) = self.slow_ns else {
            return;
        };
        if dur_ns < threshold_ns {
            return;
        }
        self.metrics.requests_slow.inc();
        trace::tracer().event_for(
            root.trace,
            root.span,
            TraceEventKind::SlowRequest {
                dur_ns,
                threshold_ns,
            },
        );
        eprintln!(
            "slow_request id={} trace={} dur_ms={:.3} threshold_ms={:.3}",
            id.map_or_else(|| "-".to_string(), |i| i.to_string()),
            root.trace,
            dur_ns as f64 / 1e6,
            threshold_ns as f64 / 1e6,
        );
    }

    /// Counts `n` written responses; reaching the budget triggers stop.
    fn count_replies(&self, n: u64) {
        let total = self.answered.fetch_add(n, Ordering::AcqRel) + n;
        if let Some(max) = self.max_requests {
            if total >= max {
                self.trigger_stop();
            }
        }
    }

    fn trigger_stop(&self) {
        self.stop.store(true, Ordering::Release);
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// The slot and connection lists are locked only to push, pop or swap,
/// which cannot panic, so their mutexes are never poisoned.
const UNPOISONED: &str = "lock held only across non-panicking list updates";

/// A backend plus its pool of execution slots.
struct Exec<B: Backend> {
    backend: Arc<B>,
    free: Mutex<Vec<B::Slot>>,
    returned: Condvar,
}

impl<B: Backend> Exec<B> {
    fn new(backend: Arc<B>, slots: usize) -> Exec<B> {
        let free = (0..slots).map(|_| backend.slot()).collect();
        Exec {
            backend,
            free: Mutex::new(free),
            returned: Condvar::new(),
        }
    }

    /// Takes a free slot, waiting while every slot is busy.
    fn checkout(&self) -> B::Slot {
        let mut free = self.free.lock().expect(UNPOISONED);
        loop {
            if let Some(slot) = free.pop() {
                return slot;
            }
            free = self.returned.wait(free).expect(UNPOISONED);
        }
    }

    fn checkin(&self, slot: B::Slot) {
        self.free.lock().expect(UNPOISONED).push(slot);
        self.returned.notify_one();
    }
}

/// A query server running on background threads.
///
/// The handle is deliberately non-generic: the store type is captured by
/// the connection threads, so callers can hold `QueryServer` values of
/// different store types uniformly.
pub struct QueryServer {
    state: Arc<State>,
    acceptor: Option<JoinHandle<()>>,
}

impl QueryServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// serves standard-form queries against `store`, whose per-axis domain
    /// levels are `levels`.
    pub fn bind<M, S>(
        addr: &str,
        store: SharedCoeffStore<M, S>,
        levels: Vec<u32>,
        config: ServeConfig,
    ) -> std::io::Result<QueryServer>
    where
        M: TilingMap + 'static,
        S: BlockStore + Send + Sync + 'static,
    {
        QueryServer::start(addr, Arc::new(store), levels, &config, None)
    }

    /// Binds `addr` and serves standard-form queries **and mutations**
    /// against an epoch-versioned snapshot store: `update` buffers box
    /// deltas under `flush_mode`, `commit` publishes them as the next
    /// epoch, and each query batch executes against one pinned snapshot.
    /// The caller keeps a clone of the `Arc` to checkpoint / recover the
    /// store around the server's lifetime.
    pub fn bind_writable<M, S>(
        addr: &str,
        store: Arc<SnapshotCoeffStore<M, S>>,
        levels: Vec<u32>,
        flush_mode: FlushMode,
        config: ServeConfig,
    ) -> std::io::Result<QueryServer>
    where
        M: TilingMap + 'static,
        S: BlockStore + Send + Sync + 'static,
    {
        let mutator = Arc::new(WritableBackend {
            buffer: Mutex::new(DeltaBuffer::for_map(store.map(), flush_mode)),
            levels: levels.clone(),
            store: Arc::clone(&store),
        });
        QueryServer::start(addr, store, levels, &config, Some(mutator))
    }

    /// Binds `addr` and serves the same protocol as a **scatter-gather
    /// router** over tile-range shards: the server owns no coefficients
    /// itself. Query plans are split by the owning shard of each
    /// contributing tile (per `topology`'s [`ss_storage::ShardMap`]),
    /// fanned out as `partial` sub-requests to the least-loaded replica
    /// of each shard, and the per-tile partial sums are merged back in
    /// ascending tile order — bit-identical to executing the plan
    /// against one store holding every tile. Mutations are accepted
    /// too: `update` decomposes boxes once at the router under
    /// `flush_mode`, and `commit` scatters the dirty-tile op lists to
    /// the owning shards and fans a commit to every replica (see
    /// [`crate::router`] for the failure semantics).
    ///
    /// `tiling` must describe the same tile space the shards serve;
    /// the call fails if `topology` partitions a different number of
    /// tiles.
    pub fn bind_router<M>(
        addr: &str,
        tiling: M,
        levels: Vec<u32>,
        topology: RouterTopology,
        flush_mode: FlushMode,
        config: ServeConfig,
    ) -> std::io::Result<QueryServer>
    where
        M: TilingMap + Send + Sync + 'static,
    {
        if topology.shard_map().num_tiles() != tiling.num_tiles() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "topology partitions {} tiles but the tiling has {}",
                    topology.shard_map().num_tiles(),
                    tiling.num_tiles()
                ),
            ));
        }
        let router = Arc::new(RouterBackend::new(
            topology,
            tiling,
            levels.clone(),
            flush_mode,
        ));
        let mutator: Arc<dyn Mutator> = router.clone();
        QueryServer::start(addr, router, levels, &config, Some(mutator))
    }

    fn start<B: Backend>(
        addr: &str,
        backend: Arc<B>,
        levels: Vec<u32>,
        config: &ServeConfig,
        mutator: Option<Arc<dyn Mutator>>,
    ) -> std::io::Result<QueryServer> {
        assert!(config.workers >= 1, "server needs at least one worker");
        assert!(config.batch_max >= 1, "batch_max must be at least one");
        let listener = TcpListener::bind(addr)?;
        let dims = levels.iter().map(|&n| 1usize << n).collect();
        let state = Arc::new(State {
            stop: AtomicBool::new(false),
            answered: AtomicU64::new(0),
            max_requests: config.max_requests,
            addr: listener.local_addr()?,
            levels,
            dims,
            batch_max: config.batch_max,
            metrics: Metrics::resolve(),
            slow_ns: config.slow_ns,
            mutator,
            conns: Mutex::new(Vec::new()),
        });
        let exec = Arc::new(Exec::new(backend, config.workers));
        let acceptor_state = Arc::clone(&state);
        let acceptor = std::thread::Builder::new()
            .name("ss-serve-accept".into())
            .spawn(move || acceptor_loop(&listener, &acceptor_state, &exec))?;
        Ok(QueryServer {
            state,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Responses written so far.
    pub fn answered(&self) -> u64 {
        self.state.answered.load(Ordering::Acquire)
    }

    /// Blocks until the server stops on its own (request budget reached),
    /// then joins every server thread and returns the number of responses
    /// written. Blocks forever when no budget was configured.
    pub fn join(mut self) -> u64 {
        self.join_threads();
        self.state.answered.load(Ordering::Acquire)
    }

    /// Stops the server and joins its threads, connection threads
    /// included: when this returns, the server holds no reference to
    /// its store. Returns the number of responses written.
    pub fn shutdown(mut self) -> u64 {
        self.state.trigger_stop();
        self.join_threads();
        self.state.answered.load(Ordering::Acquire)
    }

    fn join_threads(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // The acceptor has exited, so the list is complete.
        let conns = std::mem::take(&mut *self.state.conns.lock().expect(UNPOISONED));
        for (stream, thread) in conns {
            let _ = stream.shutdown(Shutdown::Both);
            let _ = thread.join();
        }
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.state.trigger_stop();
            self.join_threads();
        }
    }
}

fn acceptor_loop<B: Backend>(listener: &TcpListener, state: &Arc<State>, exec: &Arc<Exec<B>>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        if state.stopped() {
            return;
        }
        // Responses are short lines; waiting for an ACK to coalesce them
        // would stall closed-loop clients ~40 ms.
        let _ = stream.set_nodelay(true);
        let Ok(handle) = stream.try_clone() else {
            continue;
        };
        let (conn_state, conn_exec) = (Arc::clone(state), Arc::clone(exec));
        let spawned = std::thread::Builder::new()
            .name("ss-serve-conn".into())
            .spawn(move || connection_loop(stream, &conn_state, &conn_exec));
        if let Ok(thread) = spawned {
            let mut conns = state.conns.lock().expect(UNPOISONED);
            while let Some(k) = conns.iter().position(|(_, t)| t.is_finished()) {
                let _ = conns.swap_remove(k).1.join();
            }
            conns.push((handle, thread));
        }
    }
}

/// One connection, run to completion: block for a line, take every
/// further complete line already buffered (up to `batch_max`), execute,
/// write all replies at once, repeat until EOF or stop.
fn connection_loop<B: Backend>(stream: TcpStream, state: &State, exec: &Exec<B>) {
    let mut reader = BufReader::new(&stream);
    let mut run = Run::default();
    let mut line = String::new();
    let mut open = true;
    while open {
        line.clear();
        if !matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
            break;
        }
        let mut taken = 0;
        loop {
            let read_at = Instant::now();
            let text = line.strip_suffix('\n').unwrap_or(&line);
            let text = text.strip_suffix('\r').unwrap_or(text);
            if !text.trim().is_empty() {
                if state.stopped() {
                    open = false;
                    break;
                }
                taken += 1;
                if run.take(text, read_at, state, exec) {
                    break; // a mutation ends the run
                }
            }
            if taken >= state.batch_max || !reader.buffer().contains(&b'\n') {
                break;
            }
            line.clear();
            // A complete line is buffered, so this read does not block.
            if !matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                open = false;
                break;
            }
        }
        run.execute(state, exec);
        run.replies.write(&stream, state);
    }
    // Send FIN now: the server's handle on the socket outlives the thread.
    let _ = stream.shutdown(Shutdown::Both);
}

/// A request read in the current run.
struct Pending {
    id: Option<i128>,
    /// The request's root trace span (inert when untraced), closed once
    /// the reply is written.
    root: SpanCtx,
    /// When its line was read; `None` for lines that never parsed,
    /// which are neither timed nor slow-logged.
    read_at: Option<Instant>,
    /// Whether the reply carries the per-tile partial decomposition
    /// (`partial` sub-plans from an upstream router).
    wants_tiles: bool,
}

/// One connection's run state. Every buffer is reused across runs.
#[derive(Default)]
struct Run {
    /// Queries read but not yet executed, in arrival order.
    queries: Vec<Pending>,
    plans: Vec<Plan>,
    traces: Vec<Option<u64>>,
    outcomes: Vec<Outcome>,
    replies: Replies,
}

/// Encoded replies waiting for the run's single write.
#[derive(Default)]
struct Replies {
    /// The reply lines, in arrival order.
    buf: Vec<u8>,
    /// The requests they answer and whether each succeeded.
    answered: Vec<(Pending, bool)>,
}

impl Run {
    /// Takes one request line; returns whether it ends the run (a
    /// mutation).
    fn take<B: Backend>(
        &mut self,
        line: &str,
        read_at: Instant,
        state: &State,
        exec: &Exec<B>,
    ) -> bool {
        let req = match parse_and_validate(line, &state.dims) {
            Ok(req) => req,
            Err(e) => {
                // Replies keep arrival order: answer the queries before it.
                self.execute(state, exec);
                let pending = Pending {
                    id: e.id,
                    root: SpanCtx::none(),
                    read_at: None,
                    wants_tiles: false,
                };
                let error = Err((e.kind.to_string(), e.message));
                self.replies.push(state, pending, error);
                return false;
            }
        };
        let root = trace::begin_span(request_trace_id(req.trace), 0, "serve.request");
        let pending = |wants_tiles| Pending {
            id: req.id,
            root,
            read_at: Some(read_at),
            wants_tiles,
        };
        match req.op {
            Op::Query(query) => {
                let plan_span = trace::begin_span(root.trace, root.span, "serve.plan");
                self.plans.push(query.plan(&state.levels));
                trace::end_span(plan_span);
                self.traces.push(root.active().then_some(root.trace));
                self.queries.push(pending(query.wants_tiles()));
                false
            }
            Op::Mutation(m) => {
                self.execute(state, exec);
                let outcome = {
                    // The thread-local context makes the WAL / commit /
                    // tile-fetch events of this mutation attach to it.
                    let _in_span = trace::enter(root);
                    mutate(state.mutator.as_deref(), m)
                };
                let outcome = outcome
                    .map(|value| PlanTiles {
                        value,
                        tiles: Vec::new(),
                    })
                    .map_err(|(kind, message)| (kind.to_string(), message));
                self.replies.push(state, pending(false), outcome);
                true
            }
        }
    }

    /// Executes the pending queries as one batch on a checked-out slot
    /// and encodes their replies.
    fn execute<B: Backend>(&mut self, state: &State, exec: &Exec<B>) {
        if self.queries.is_empty() {
            return;
        }
        // Tile fetches are shared across the batch, so its span is
        // parented under the batch's first traced request (a documented
        // approximation — see DESIGN.md §13).
        let span = self
            .queries
            .iter()
            .map(|q| q.root)
            .find(SpanCtx::active)
            .map_or_else(SpanCtx::none, |p| {
                trace::begin_span(p.trace, p.span, B::SPAN)
            });
        let mut slot = exec.checkout();
        let ran = {
            let _in_span = trace::enter(span);
            catch_unwind(AssertUnwindSafe(|| {
                exec.backend
                    .execute(&mut slot, &self.plans, &self.traces, &mut self.outcomes)
            }))
        };
        trace::end_span(span);
        match ran {
            Ok(()) => exec.checkin(slot),
            Err(payload) => {
                // A slot may hold half-finished exchanges; start afresh.
                drop(slot);
                exec.checkin(exec.backend.slot());
                let error = panic_error(payload);
                self.outcomes.clear();
                self.outcomes
                    .extend(self.queries.iter().map(|_| Err(error.clone())));
            }
        }
        state.metrics.batches.inc();
        state.metrics.batch_size.record(self.queries.len() as u64);
        for (query, outcome) in self.queries.drain(..).zip(self.outcomes.drain(..)) {
            self.replies.push(state, query, outcome);
        }
        self.plans.clear();
        self.traces.clear();
    }
}

impl Replies {
    /// Encodes one reply after those already in the buffer.
    fn push(&mut self, state: &State, req: Pending, outcome: Outcome) {
        let line = match &outcome {
            Ok(result) => {
                state.metrics.requests_ok.inc();
                let echo = req.root.active().then_some(req.root.trace);
                let tiles = req.wants_tiles.then_some(result.tiles.as_slice());
                proto::ok_response_tiled(req.id, echo, result.value, tiles)
            }
            Err((kind, message)) => {
                state.metrics.requests_err.inc();
                proto::err_response(req.id, kind, message)
            }
        };
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.answered.push((req, outcome.is_ok()));
    }

    /// Writes every encoded reply in one call, then closes the requests'
    /// spans and counts them. Write errors are ignored: the client hung
    /// up, and the next read ends the connection.
    fn write(&mut self, mut out: &TcpStream, state: &State) {
        if self.answered.is_empty() {
            return;
        }
        let _ = out.write_all(&self.buf);
        self.buf.clear();
        let n = self.answered.len() as u64;
        for (req, ok) in self.answered.drain(..) {
            if let Some(read_at) = req.read_at {
                let dur_ns = read_at.elapsed().as_nanos() as u64;
                if ok {
                    state.metrics.request_ns.record(dur_ns);
                }
                state.observe_slow(req.id, &req.root, dur_ns);
            }
            trace::end_span(req.root);
        }
        state.count_replies(n);
    }
}

/// Runs one mutation against the server's mutator, if it has one.
fn mutate(mutator: Option<&dyn Mutator>, m: Mutation) -> Result<f64, MutErr> {
    let Some(mutator) = mutator else {
        return Err((
            "read_only",
            "this server is read-only (start it writable to accept mutations)".to_string(),
        ));
    };
    match m {
        Mutation::Update { at, dims, data } => {
            let _s = trace::scoped("serve.update");
            mutator.update(&at, &dims, data)
        }
        Mutation::Apply { ops } => {
            let _s = trace::scoped("serve.apply");
            mutator.apply(&ops)
        }
        Mutation::Commit => {
            let _s = trace::scoped("serve.commit");
            mutator.commit()
        }
    }
}

/// The typed error a panicked batch answers with: `io` for the
/// [`StorageError`] payload of a failed block transfer, `internal` for
/// anything else.
fn panic_error(payload: Box<dyn std::any::Any + Send>) -> (String, String) {
    match payload.downcast::<StorageError>() {
        Ok(e) => ("io".to_string(), format!("storage error: {e}")),
        Err(other) => {
            let message = other
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| other.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "query execution panicked".to_string());
            ("internal".to_string(), message)
        }
    }
}

/// The trace id a request runs under: the client's, else a fresh one
/// when tracing is on, else 0 (untraced — every recording call becomes
/// one relaxed load).
fn request_trace_id(client: Option<u64>) -> u64 {
    if !trace::enabled() {
        return 0;
    }
    client.unwrap_or_else(trace::new_trace_id)
}

fn parse_and_validate(line: &str, dims: &[usize]) -> Result<Request, RequestError> {
    let req = proto::parse_request(line)?;
    match &req.op {
        Op::Query(q) => q.validate(dims),
        Op::Mutation(m) => m.validate(dims),
    }
    .map_err(|message| RequestError {
        id: req.id,
        kind: "bad_request",
        message,
    })?;
    Ok(req)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A backend with a bug: every batch panics with a plain message.
    struct Panicking;

    impl Backend for Panicking {
        type Slot = ();

        fn slot(&self) {}

        fn execute(&self, _: &mut (), _: &[Plan], _: &[Option<u64>], _: &mut Vec<Outcome>) {
            panic!("backend bug");
        }
    }

    #[test]
    fn panics_map_to_typed_error_kinds() {
        let (kind, _) = panic_error(Box::new(StorageError::Meta("bad header".into())));
        assert_eq!(kind, "io");
        let internal = panic_error(Box::new("boom"));
        assert_eq!(internal, ("internal".to_string(), "boom".to_string()));
        assert_eq!(panic_error(Box::new(format!("at {}", 3))).1, "at 3");
    }

    #[test]
    fn a_panicking_batch_answers_internal_and_frees_its_slot() {
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let server = QueryServer::start(
            "127.0.0.1:0",
            Arc::new(Panicking),
            vec![3, 3],
            &config,
            None,
        )
        .unwrap();
        let mut client = crate::Client::connect(server.local_addr()).unwrap();
        // Twice on one slot: the first panic must not leave it checked out.
        for _ in 0..2 {
            let err = client.point(&[1, 2]).unwrap_err().to_string();
            assert!(
                err.contains("internal") && err.contains("backend bug"),
                "{err}"
            );
        }
        server.shutdown();
    }
}
