//! Coalesced SHIFT-SPLIT maintenance (the I/O argument of Sections 4–5,
//! applied to *batches* of updates).
//!
//! A single box update already coalesces its own deltas per tile, but a
//! workload of many boxes (or a chunked ingest) repeatedly re-reads and
//! re-writes the tiles near the top of the wavelet tree: every box SPLITs
//! into the same `O(log N)` coarse coefficients, so a per-box
//! read-modify-write cycle pays one block write *per box* for tiles that a
//! batched scheme would write once. This crate buffers the SHIFT-SPLIT
//! delta streams of many operations **tile-major** in memory and applies
//! them with one group-commit flush:
//!
//! * [`DeltaBuffer`] — accumulates `(tile, slot, delta)` contributions
//!   keyed by tile ordinal, merging work destined for the same block,
//! * [`DeltaBuffer::flush_into`] — exactly one read-modify-write per dirty
//!   tile followed by a single pool flush (one meta/CRC writeback per
//!   *flush*, not per box). One worker visits tiles in ascending block
//!   order (sequential I/O for `FileBlockStore`); more workers partition
//!   them into contiguous ranges, each tile owned by exactly one worker,
//!   so results are bit-identical for any worker count,
//! * [`engine`] — box-batch drivers ([`update_boxes_standard`],
//!   [`update_boxes_nonstandard`], both taking a worker count) and a
//!   coalesced ingest driver ([`transform_standard_coalesced`]) that
//!   group-commits every `group` chunks.
//!
//! # Exactness
//!
//! Floating-point addition is not associative, so summing several deltas
//! to one coefficient in memory and applying the sum is *not* bit-identical
//! to applying them one at a time. [`FlushMode`] makes the trade explicit:
//!
//! * [`FlushMode::Exact`] (default) keeps each tile's deltas as an
//!   arrival-ordered op list and replays it during the single per-tile
//!   read-modify-write. The per-coefficient addition sequence is exactly
//!   the serial per-box sequence, so the result is **bit-identical** to
//!   [`ss_transform::update_box_standard`] applied box by box — while
//!   still writing each dirty tile once.
//! * [`FlushMode::Merged`] pre-sums deltas into a dense per-tile
//!   accumulator and applies one add per touched coefficient — the
//!   smallest possible flush, equal to the serial path only up to
//!   floating-point rounding.
//!
//! Observability: flushes publish `maintain.*` counters, gauges, and
//! histograms to the global [`ss_obs`] registry (boxes and deltas
//! buffered, dirty/written tiles, coalescing ratio, flush latency);
//! live serving adds `snapshot.*` (epoch, pins, commits, folds, live
//! versions) and `wal.*` (appends, bytes, resets, torn tails, replays).
//!
//! # Live read/write serving
//!
//! Batch maintenance assumes exclusive ownership of the store. For
//! serving queries *while* absorbing updates, [`snapshot`] layers MVCC on
//! top of the same buffer: [`SnapshotCoeffStore`] publishes immutable
//! epoch versions (readers pin one, writers group-commit the next), and
//! [`wal`] makes each commit durable ahead of the tile writeback with a
//! CRC-framed write-ahead log whose records replay to a bit-identical
//! state after a crash (format: `docs/FORMAT.md` §7).

//!
//! # Example
//!
//! Buffer two box updates and group-commit them with one write per
//! dirty tile — bit-identical to applying the boxes one at a time:
//!
//! ```
//! use ss_core::tiling::StandardTiling;
//! use ss_core::TilingMap;
//! use ss_maintain::{DeltaBuffer, FlushMode};
//! use ss_storage::{mem_shared_store, IoStats};
//!
//! let map = StandardTiling::new(&[4, 4], &[2, 2]); // 16x16, 4x4 tiles
//! let cs = mem_shared_store(map.clone(), 1 << 10, 1, IoStats::new());
//!
//! let mut buf = DeltaBuffer::new(map.block_capacity(), FlushMode::Exact);
//! // Two overlapping single-coefficient updates destined for one tile:
//! buf.begin_box();
//! buf.add(3, 1, 0.5);
//! buf.begin_box();
//! buf.add(3, 1, 0.25);
//! let report = buf.flush_into(&cs, 1);
//!
//! assert_eq!(report.boxes, 2);
//! assert_eq!(report.tiles_written, 1); // coalesced: one RMW, not two
//! assert_eq!(cs.read_at(3, 1), 0.75);
//! ```

#![warn(missing_docs)]

pub mod buffer;
pub mod engine;
pub mod snapshot;
pub mod wal;

/// Serialises this crate's unit tests that flush: `maintain.flushes` is a
/// process-global counter, and one test asserts that it does not move.
#[cfg(test)]
pub(crate) fn flush_counter_guard() -> std::sync::MutexGuard<'static, ()> {
    static FLUSHES: std::sync::Mutex<()> = std::sync::Mutex::new(());
    FLUSHES.lock().unwrap_or_else(|poison| poison.into_inner())
}

pub use buffer::{DeltaBuffer, DrainedTileOps, FlushMode, FlushReport};
pub use engine::{
    transform_standard_coalesced, update_boxes_nonstandard, update_boxes_standard, BatchReport,
    IngestReport,
};
pub use snapshot::{PinnedSnapshot, SnapshotCoeffStore};
pub use wal::{replay_records, Wal, WalRecord, WalScan, WalTile};
