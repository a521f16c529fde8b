//! The file-backed stack under test, put together with the same public
//! calls `shiftsplit ingest --workers 2` and `shiftsplit serve` make:
//! `WsFile` -> `SharedCoeffStore` (1024-block pool) -> `QueryServer`.

use ss_array::{NdArray, Shape};
use ss_core::tiling::StandardTiling;
use ss_core::TilingMap;
use ss_maintain::{FlushMode, SnapshotCoeffStore, Wal};
use ss_serve::{QueryServer, ServeConfig};
use ss_storage::{BlockStore, FileBlockStore, IoSnapshot, Meta, SharedCoeffStore, WsFile};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Buffer-pool budget in blocks (the CLI's `1 << 10`).
pub const POOL_BLOCKS: usize = 1 << 10;
/// Ingest workers, pool shards and server executors.
pub const WORKERS: usize = 2;
/// Most requests one executor sweep batches (the CLI's default).
pub const BATCH_MAX: usize = 64;

/// Geometry of one workload's store.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Per-axis `log2` domain sizes.
    pub levels: Vec<u32>,
    /// Per-axis `log2` tile sides.
    pub tiles: Vec<u32>,
}

impl Spec {
    /// A `d`-dimensional cube of side `2^n` in tiles of side `2^b`.
    pub fn cube(d: usize, n: u32, b: u32) -> Spec {
        Spec {
            levels: vec![n; d],
            tiles: vec![b; d],
        }
    }

    /// Per-axis domain sizes.
    pub fn dims(&self) -> Vec<usize> {
        self.levels.iter().map(|&n| 1usize << n).collect()
    }

    /// Number of cells.
    pub fn cells(&self) -> usize {
        self.dims().iter().product()
    }

    /// Ingest chunk levels (the CLI's default: `min(level, 3)` per axis).
    pub fn chunk_levels(&self) -> Vec<u32> {
        self.levels.iter().map(|&n| n.min(3)).collect()
    }

    /// The store header `shiftsplit create` writes for this geometry.
    pub fn meta(&self) -> Meta {
        Meta::new(
            self.levels.clone(),
            self.tiles.clone(),
            0,
            self.levels.len() - 1,
        )
    }
}

/// The generated cube as the array the transform reads.
pub fn cube_array(spec: &Spec, cells: &[i64]) -> NdArray<f64> {
    NdArray::from_vec(
        Shape::new(&spec.dims()),
        cells.iter().map(|&v| v as f64).collect(),
    )
}

/// The served store type.
pub type Shared<S> = SharedCoeffStore<StandardTiling, S>;

/// Ingests `data` into a fresh store at `path` the way
/// `shiftsplit ingest --workers 2` does, then syncs it. `wrap` and
/// `unwrap` put an optional wrapper between the pool and the file.
/// Returns the I/O counters of the transform.
pub fn ingest<S, C>(
    path: &Path,
    spec: &Spec,
    src: &C,
    wrap: impl FnOnce(FileBlockStore) -> S,
    unwrap: impl FnOnce(S) -> FileBlockStore,
) -> Result<IoSnapshot, String>
where
    S: BlockStore + Send + Sync,
    C: ss_transform::ChunkSource + Sync,
{
    let ws = WsFile::create(path, spec.meta()).map_err(|e| e.to_string())?;
    let meta = ws.meta.clone();
    let stats = ws.stats.clone();
    let (map, blocks) = ws.store.into_parts();
    let shared = SharedCoeffStore::new(map, wrap(blocks), POOL_BLOCKS, WORKERS, stats.clone());
    let before = stats.snapshot();
    ss_transform::transform_standard_parallel(src, &shared, WORKERS);
    let io = stats.snapshot().since(&before);
    let (map, blocks) = shared.into_parts();
    let mut ws = WsFile::from_parts(meta, map, unwrap(blocks), stats, path);
    ws.meta.filled = spec.dims()[ws.meta.axis];
    ws.save_meta().map_err(|e| e.to_string())?;
    ws.sync().map_err(|e| e.to_string())?;
    Ok(io)
}

/// Opens the store at `path` into the served shared store, with `wrap`
/// between the pool and the file.
pub fn open<S: BlockStore>(
    path: &Path,
    wrap: impl FnOnce(FileBlockStore) -> S,
) -> Result<(Shared<S>, Vec<u32>), String> {
    let ws = WsFile::open(path).map_err(|e| e.to_string())?;
    let levels = ws.meta.levels.clone();
    let stats = ws.stats.clone();
    let (map, blocks) = ws.store.into_parts();
    Ok((
        SharedCoeffStore::new(map, wrap(blocks), POOL_BLOCKS, WORKERS, stats),
        levels,
    ))
}

/// Loads the first `POOL_BLOCKS` tiles (all of them on a small store) so
/// timing starts on a full pool.
pub fn warm<S: BlockStore>(store: &Shared<S>) {
    for tile in 0..store.map().num_tiles().min(POOL_BLOCKS) {
        std::hint::black_box(store.read_tile(tile));
    }
}

/// The server configuration `shiftsplit serve --workers 2` uses.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        batch_max: BATCH_MAX,
        max_requests: None,
        slow_ns: None,
    }
}

/// A read-only server over `store`.
pub fn serve<S>(store: Shared<S>, levels: Vec<u32>) -> Result<QueryServer, String>
where
    S: BlockStore + Send + Sync + 'static,
{
    QueryServer::bind("127.0.0.1:0", store, levels, serve_config()).map_err(|e| e.to_string())
}

/// A writable server over `store` with its WAL at `wal`, as
/// `shiftsplit serve --writable --mode exact` starts it on a fresh log.
/// Returns the server and the snapshot store to checkpoint afterwards.
#[allow(clippy::type_complexity)]
pub fn serve_writable<S>(
    store: Shared<S>,
    levels: Vec<u32>,
    wal: &Path,
) -> Result<(QueryServer, Arc<SnapshotCoeffStore<StandardTiling, S>>), String>
where
    S: BlockStore + Send + Sync + 'static,
{
    let _ = std::fs::remove_file(wal);
    let (wal, records, _) = Wal::open(wal).map_err(|e| e.to_string())?;
    if !records.is_empty() {
        return Err("fresh write-ahead log is not empty".into());
    }
    let snap = Arc::new(SnapshotCoeffStore::new(store, Some(wal), 0));
    let server = QueryServer::bind_writable(
        "127.0.0.1:0",
        Arc::clone(&snap),
        levels,
        FlushMode::Exact,
        serve_config(),
    )
    .map_err(|e| e.to_string())?;
    Ok((server, snap))
}

/// Bytes of the store's blocks file, checksum sidecar and meta header.
pub fn disk_bytes(path: &Path) -> Result<u64, String> {
    let mut meta = path.as_os_str().to_owned();
    meta.push(".meta");
    let files = [
        path.to_path_buf(),
        ss_storage::file::sidecar_path(path),
        PathBuf::from(meta),
    ];
    let mut total = 0;
    for f in &files {
        total += std::fs::metadata(f)
            .map_err(|e| format!("stat {}: {e}", f.display()))?
            .len();
    }
    Ok(total)
}
