//! Timing wrappers for the traced run: a [`BlockStore`] that records a
//! span around every device call of the store it wraps, and a
//! [`ChunkSource`] that records a span around every chunk read.

use crate::span::Recorder;
use ss_array::NdArray;
use ss_storage::{BlockStore, StorageError};
use ss_transform::ChunkSource;
use std::sync::Arc;

/// Span names the wrappers record.
pub const DEVICE_READ: &str = "storage.device_read";
/// See [`DEVICE_READ`].
pub const DEVICE_WRITE: &str = "storage.device_write";
/// See [`DEVICE_READ`].
pub const DEVICE_SYNC: &str = "storage.sync";
/// See [`DEVICE_READ`].
pub const CHUNK_READ: &str = "transform.read";

/// Times `read_block`, `write_block` and `sync` of the wrapped store.
///
/// Shared (lock-free) reads are not forwarded, exactly like the file
/// store it wraps, so the buffer pool takes the same miss path as without
/// the wrapper.
pub struct TimedBlockStore<S> {
    inner: S,
    rec: Arc<Recorder>,
}

impl<S> TimedBlockStore<S> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: S, rec: Arc<Recorder>) -> Self {
        TimedBlockStore { inner, rec }
    }

    /// Unwraps the store.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: BlockStore> BlockStore for TimedBlockStore<S> {
    fn block_capacity(&self) -> usize {
        self.inner.block_capacity()
    }

    fn num_blocks(&self) -> usize {
        self.inner.num_blocks()
    }

    fn try_read_block(&mut self, id: usize, buf: &mut [f64]) -> Result<(), StorageError> {
        let inner = &mut self.inner;
        self.rec.span(DEVICE_READ, || inner.try_read_block(id, buf))
    }

    fn try_write_block(&mut self, id: usize, buf: &[f64]) -> Result<(), StorageError> {
        let inner = &mut self.inner;
        self.rec
            .span(DEVICE_WRITE, || inner.try_write_block(id, buf))
    }

    fn grow(&mut self, blocks: usize) {
        self.inner.grow(blocks)
    }

    fn try_sync(&mut self) -> Result<(), StorageError> {
        let inner = &mut self.inner;
        self.rec.span(DEVICE_SYNC, || inner.try_sync())
    }
}

/// Times `read_chunk` of the wrapped source.
pub struct TimedSource<'a, C> {
    inner: &'a C,
    rec: &'a Recorder,
}

impl<'a, C> TimedSource<'a, C> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: &'a C, rec: &'a Recorder) -> Self {
        TimedSource { inner, rec }
    }
}

impl<C: ChunkSource> ChunkSource for TimedSource<'_, C> {
    fn domain_levels(&self) -> &[u32] {
        self.inner.domain_levels()
    }

    fn chunk_levels(&self) -> &[u32] {
        self.inner.chunk_levels()
    }

    fn read_chunk(&self, block: &[usize]) -> NdArray<f64> {
        self.rec.span(CHUNK_READ, || self.inner.read_chunk(block))
    }
}
