//! File-backed block store issuing real positioned disk I/O.
//!
//! Each block occupies `capacity × 8` contiguous bytes; coefficients are
//! little-endian `f64`s. The paper's experiments are "accurate
//! implementations of the operations on real disks with real disk blocks" —
//! this store is what makes the repository's experiments comparable.
//!
//! # Durability (format v2)
//!
//! A v2 store carries a *checksum sidecar* (`<name>.crc`, see
//! `docs/FORMAT.md`): one CRC-32 per block, verified on every read and
//! refreshed on every write. Bit rot, torn writes and crash windows all
//! surface as a typed [`StorageError::Checksum`] instead of silently
//! corrupting every later query. Legacy v1 stores (no sidecar) still open
//! through [`FileBlockStore::open_v1`], but only read-only. Writeback
//! ordering is *block first, CRC second*: a crash between the two leaves a
//! detectable mismatch, never a silently wrong block.
//!
//! # Sparse layout (format v3)
//!
//! A v3 store ([`FileBlockStore::create_v3`] / [`FileBlockStore::open_v3`])
//! keeps the same [`BlockStore`] surface — dense `f64` images in, dense
//! images out — but stores each block as a bucket-bitmap-compressed
//! payload in a heap behind a per-block directory (`docs/FORMAT.md` §8).
//! All-zero blocks occupy no heap bytes at all. The sidecar CRC covers
//! the *encoded payload*, with the normative write ordering *payload,
//! then directory, then CRC*. `grow` is unsupported on v3 (§8.6).

use crate::block::BlockStore;
use crate::crc::crc32;
use crate::error::{ScrubReport, StorageError};
use crate::sparse::{
    self as sp, V3_ALLOC_QUANTUM, V3_DIR_ENTRY_LEN, V3_HEADER_LEN, V3_MAGIC, V3_VERSION,
};
use crate::stats::IoStats;
use ss_core::SparseTile;
use ss_obs::{Counter, Histogram};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Magic bytes opening a checksum sidecar file.
const SIDECAR_MAGIC: &[u8; 8] = b"SSWSCRC\x01";
/// Sidecar header size in bytes (the magic).
const SIDECAR_HEADER: u64 = 8;

/// Path of the checksum sidecar belonging to the blocks file at `path`
/// (`<path>.crc`). Exposed so callers that move or rewrite a blocks file
/// (e.g. domain expansion) can move its sidecar alongside it.
pub fn sidecar_path(path: &Path) -> PathBuf {
    Sidecar::path_for(path)
}

/// The checksum sidecar: `SIDECAR_MAGIC` followed by one little-endian
/// CRC-32 per block, in block order.
struct Sidecar {
    file: File,
}

impl Sidecar {
    /// Path of the sidecar belonging to the blocks file at `path`.
    fn path_for(path: &Path) -> PathBuf {
        let mut p = path.as_os_str().to_owned();
        p.push(".crc");
        PathBuf::from(p)
    }

    /// Creates (truncating) a sidecar covering `blocks` zero-filled blocks.
    fn create(path: &Path, blocks: usize, zero_crc: u32) -> Result<Sidecar, StorageError> {
        let sc_path = Sidecar::path_for(path);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&sc_path)
            .map_err(|e| StorageError::io(format!("create {}", sc_path.display()), e))?;
        let mut bytes = Vec::with_capacity(SIDECAR_HEADER as usize + blocks * 4);
        bytes.extend_from_slice(SIDECAR_MAGIC);
        for _ in 0..blocks {
            bytes.extend_from_slice(&zero_crc.to_le_bytes());
        }
        file.write_all(&bytes)
            .map_err(|e| StorageError::io("write checksum sidecar", e))?;
        Ok(Sidecar { file })
    }

    /// Opens an existing sidecar, validating magic and length for
    /// `blocks` blocks.
    fn open(path: &Path, blocks: usize) -> Result<Sidecar, StorageError> {
        let sc_path = Sidecar::path_for(path);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&sc_path)
            .map_err(|e| StorageError::io(format!("open {}", sc_path.display()), e))?;
        let mut magic = [0u8; SIDECAR_HEADER as usize];
        file.read_exact(&mut magic)
            .map_err(|e| StorageError::io("read sidecar magic", e))?;
        if &magic != SIDECAR_MAGIC {
            return Err(StorageError::Meta("bad checksum-sidecar magic".into()));
        }
        let expected = SIDECAR_HEADER + blocks as u64 * 4;
        let actual = file
            .metadata()
            .map_err(|e| StorageError::io("stat checksum sidecar", e))?
            .len();
        if actual < expected {
            return Err(StorageError::Geometry { expected, actual });
        }
        Ok(Sidecar { file })
    }

    /// The recorded CRC of block `id` (one positioned read).
    fn read(&self, id: usize) -> Result<u32, StorageError> {
        let mut le = [0u8; 4];
        self.file
            .read_exact_at(&mut le, SIDECAR_HEADER + id as u64 * 4)
            .map_err(|e| StorageError::io(format!("read crc of block {id}"), e))?;
        Ok(u32::from_le_bytes(le))
    }

    /// Records `crc` as block `id`'s checksum.
    fn write(&self, id: usize, crc: u32) -> Result<(), StorageError> {
        self.file
            .write_all_at(&crc.to_le_bytes(), SIDECAR_HEADER + id as u64 * 4)
            .map_err(|e| StorageError::io(format!("write crc of block {id}"), e))
    }

    /// Appends zero-block CRCs for blocks `from..to`.
    fn grow(&self, from: usize, to: usize, zero_crc: u32) -> Result<(), StorageError> {
        let mut bytes = Vec::with_capacity((to - from) * 4);
        for _ in from..to {
            bytes.extend_from_slice(&zero_crc.to_le_bytes());
        }
        self.file
            .write_all_at(&bytes, SIDECAR_HEADER + from as u64 * 4)
            .map_err(|e| StorageError::io("grow checksum sidecar", e))
    }
}

/// One v3 directory entry: where a block's payload lives in the heap
/// (`docs/FORMAT.md` §8.2). The all-zero default denotes an all-zero
/// block.
#[derive(Clone, Copy, Default, PartialEq)]
struct DirEntry {
    offset: u64,
    len: u32,
    alloc: u32,
}

/// How blocks are laid out on disk: the headerless dense array of
/// formats v1/v2, or the v3 sparse heap with its in-memory directory
/// mirror.
enum Layout {
    Dense,
    Sparse { dir: Vec<DirEntry>, heap_end: u64 },
}

/// A [`BlockStore`] over a file on disk, with optional per-block CRC-32
/// verification (format v2) and an optional sparse bucketed layout
/// (format v3).
pub struct FileBlockStore {
    file: File,
    capacity: usize,
    blocks: usize,
    byte_buf: Vec<u8>,
    stats: IoStats,
    /// `Some` for v2/v3 stores; `None` for legacy v1 stores (which are
    /// then read-only).
    sidecar: Option<Sidecar>,
    read_only: bool,
    /// CRC of an all-zero block of this capacity (v3: of the empty
    /// payload, i.e. 0), memoised for `grow`.
    zero_crc: u32,
    layout: Layout,
    // Handles into the global metrics registry, resolved once here so the
    // per-op record is a lock-free fetch_add, not a name lookup.
    read_ns: Histogram,
    write_ns: Histogram,
    checksum_failures: Counter,
    sparse_blocks_written: Counter,
    sparse_bytes_written: Counter,
    sparse_bytes_saved: Counter,
    sparse_relocations: Counter,
}

impl FileBlockStore {
    /// Creates (truncating) a zero-filled v2 store at `path` with `blocks`
    /// blocks of `capacity` coefficients, plus its `.crc` checksum sidecar.
    pub fn create(
        path: &Path,
        capacity: usize,
        blocks: usize,
        stats: IoStats,
    ) -> Result<Self, StorageError> {
        assert!(capacity >= 1);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| StorageError::io(format!("create {}", path.display()), e))?;
        file.set_len((capacity * blocks * 8) as u64)
            .map_err(|e| StorageError::io("size blocks file", e))?;
        let zero_crc = crc32(&vec![0u8; capacity * 8]);
        let sidecar = Sidecar::create(path, blocks, zero_crc)?;
        Ok(Self::assemble(
            file,
            capacity,
            blocks,
            stats,
            Some(sidecar),
            false,
            zero_crc,
            Layout::Dense,
        ))
    }

    /// Creates (truncating) a sparse v3 store at `path` — header plus a
    /// zeroed directory, no heap (`docs/FORMAT.md` §8.2) — and its `.crc`
    /// sidecar with the zero-payload CRC (`0`) for every block.
    pub fn create_v3(
        path: &Path,
        capacity: usize,
        blocks: usize,
        stats: IoStats,
    ) -> Result<Self, StorageError> {
        assert!(capacity >= 1);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| StorageError::io(format!("create {}", path.display()), e))?;
        let dir_bytes = blocks * V3_DIR_ENTRY_LEN as usize;
        let mut bytes = Vec::with_capacity(V3_HEADER_LEN as usize + dir_bytes);
        bytes.extend_from_slice(V3_MAGIC);
        bytes.extend_from_slice(&V3_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(sp::bucket_for(capacity) as u32).to_le_bytes());
        bytes.extend_from_slice(&(capacity as u64).to_le_bytes());
        bytes.extend_from_slice(&(blocks as u64).to_le_bytes());
        bytes.resize(V3_HEADER_LEN as usize + dir_bytes, 0);
        file.write_all(&bytes)
            .map_err(|e| StorageError::io("write v3 header and directory", e))?;
        let sidecar = Sidecar::create(path, blocks, 0)?;
        let heap_end = V3_HEADER_LEN + blocks as u64 * V3_DIR_ENTRY_LEN;
        Ok(Self::assemble(
            file,
            capacity,
            blocks,
            stats,
            Some(sidecar),
            false,
            0,
            Layout::Sparse {
                dir: vec![DirEntry::default(); blocks],
                heap_end,
            },
        ))
    }

    /// Opens an existing sparse v3 store created with
    /// [`FileBlockStore::create_v3`], validating the header against the
    /// declared geometry and every directory entry against the file
    /// length (`docs/FORMAT.md` §8.2).
    pub fn open_v3(
        path: &Path,
        capacity: usize,
        blocks: usize,
        stats: IoStats,
    ) -> Result<Self, StorageError> {
        assert!(capacity >= 1);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| StorageError::io(format!("open {}", path.display()), e))?;
        let file_len = file
            .metadata()
            .map_err(|e| StorageError::io("stat blocks file", e))?
            .len();
        let dir_end = V3_HEADER_LEN + blocks as u64 * V3_DIR_ENTRY_LEN;
        if file_len < dir_end {
            return Err(StorageError::Geometry {
                expected: dir_end,
                actual: file_len,
            });
        }
        let mut header = [0u8; V3_HEADER_LEN as usize];
        file.read_exact(&mut header)
            .map_err(|e| StorageError::io("read v3 header", e))?;
        if &header[0..8] != V3_MAGIC {
            return Err(StorageError::Meta("bad v3 blocks-file magic".into()));
        }
        let h_version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if h_version != V3_VERSION {
            return Err(StorageError::UnsupportedVersion(h_version));
        }
        let h_bucket = u32::from_le_bytes(header[12..16].try_into().unwrap()) as usize;
        let h_capacity = u64::from_le_bytes(header[16..24].try_into().unwrap());
        let h_blocks = u64::from_le_bytes(header[24..32].try_into().unwrap());
        if h_bucket != sp::bucket_for(capacity)
            || h_capacity != capacity as u64
            || h_blocks != blocks as u64
        {
            return Err(StorageError::Meta(format!(
                "v3 header (bucket {h_bucket}, capacity {h_capacity}, blocks {h_blocks}) \
                 disagrees with meta geometry (bucket {}, capacity {capacity}, blocks {blocks})",
                sp::bucket_for(capacity)
            )));
        }
        let mut dir_bytes = vec![0u8; blocks * V3_DIR_ENTRY_LEN as usize];
        file.read_exact(&mut dir_bytes)
            .map_err(|e| StorageError::io("read v3 directory", e))?;
        let mut dir = Vec::with_capacity(blocks);
        let mut heap_end = dir_end;
        for (id, e) in dir_bytes
            .chunks_exact(V3_DIR_ENTRY_LEN as usize)
            .enumerate()
        {
            let entry = DirEntry {
                offset: u64::from_le_bytes(e[0..8].try_into().unwrap()),
                len: u32::from_le_bytes(e[8..12].try_into().unwrap()),
                alloc: u32::from_le_bytes(e[12..16].try_into().unwrap()),
            };
            if entry.offset == 0 {
                if entry.len != 0 || entry.alloc != 0 {
                    return Err(StorageError::Meta(format!(
                        "v3 directory entry {id}: all-zero block with len {} / alloc {}",
                        entry.len, entry.alloc
                    )));
                }
            } else {
                if entry.offset < dir_end {
                    return Err(StorageError::Meta(format!(
                        "v3 directory entry {id}: payload offset {} inside header/directory",
                        entry.offset
                    )));
                }
                if entry.len > entry.alloc {
                    return Err(StorageError::Geometry {
                        expected: entry.alloc as u64,
                        actual: entry.len as u64,
                    });
                }
                if entry.offset + entry.alloc as u64 > file_len {
                    return Err(StorageError::Geometry {
                        expected: entry.offset + entry.alloc as u64,
                        actual: file_len,
                    });
                }
            }
            heap_end = heap_end.max(entry.offset + entry.alloc as u64);
            dir.push(entry);
        }
        let sidecar = Sidecar::open(path, blocks)?;
        Ok(Self::assemble(
            file,
            capacity,
            blocks,
            stats,
            Some(sidecar),
            false,
            0,
            Layout::Sparse { dir, heap_end },
        ))
    }

    /// Opens an existing v2 store created earlier with
    /// [`FileBlockStore::create`]; the `.crc` sidecar must be present.
    ///
    /// # Errors
    ///
    /// Fails when the blocks file or sidecar is missing, the sidecar magic
    /// is wrong, or either file is smaller than the declared geometry.
    pub fn open(
        path: &Path,
        capacity: usize,
        blocks: usize,
        stats: IoStats,
    ) -> Result<Self, StorageError> {
        let file = Self::open_blocks_file(path, capacity, blocks)?;
        let sidecar = Sidecar::open(path, blocks)?;
        let zero_crc = crc32(&vec![0u8; capacity * 8]);
        Ok(Self::assemble(
            file,
            capacity,
            blocks,
            stats,
            Some(sidecar),
            false,
            zero_crc,
            Layout::Dense,
        ))
    }

    /// Opens a legacy v1 store (no checksum sidecar), **read-only**: every
    /// write returns [`StorageError::ReadOnly`]. Queries still work;
    /// maintenance requires re-ingesting into a v2 store.
    pub fn open_v1(
        path: &Path,
        capacity: usize,
        blocks: usize,
        stats: IoStats,
    ) -> Result<Self, StorageError> {
        let file = Self::open_blocks_file(path, capacity, blocks)?;
        let zero_crc = crc32(&vec![0u8; capacity * 8]);
        Ok(Self::assemble(
            file,
            capacity,
            blocks,
            stats,
            None,
            true,
            zero_crc,
            Layout::Dense,
        ))
    }

    fn open_blocks_file(path: &Path, capacity: usize, blocks: usize) -> Result<File, StorageError> {
        assert!(capacity >= 1);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| StorageError::io(format!("open {}", path.display()), e))?;
        let expected = (capacity * blocks * 8) as u64;
        let actual = file
            .metadata()
            .map_err(|e| StorageError::io("stat blocks file", e))?
            .len();
        if actual < expected {
            return Err(StorageError::Geometry { expected, actual });
        }
        Ok(file)
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        file: File,
        capacity: usize,
        blocks: usize,
        stats: IoStats,
        sidecar: Option<Sidecar>,
        read_only: bool,
        zero_crc: u32,
        layout: Layout,
    ) -> Self {
        FileBlockStore {
            file,
            capacity,
            blocks,
            byte_buf: vec![0u8; capacity * 8],
            stats,
            sidecar,
            read_only,
            zero_crc,
            layout,
            read_ns: ss_obs::global().histogram("storage.block_read_ns"),
            write_ns: ss_obs::global().histogram("storage.block_write_ns"),
            checksum_failures: ss_obs::global().counter("storage.checksum_failures"),
            sparse_blocks_written: ss_obs::global().counter("storage.sparse_blocks_written"),
            sparse_bytes_written: ss_obs::global().counter("storage.sparse_bytes_written"),
            sparse_bytes_saved: ss_obs::global().counter("storage.sparse_bytes_saved"),
            sparse_relocations: ss_obs::global().counter("storage.sparse_relocations"),
        }
    }

    /// The shared counters.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Whether reads are CRC-verified (false only for legacy v1 stores).
    pub fn checksummed(&self) -> bool {
        self.sidecar.is_some()
    }

    /// Whether writes are rejected (legacy v1 stores open read-only).
    pub fn read_only(&self) -> bool {
        self.read_only
    }

    /// Whether the store uses the v3 sparse bucketed layout.
    pub fn sparse(&self) -> bool {
        matches!(self.layout, Layout::Sparse { .. })
    }

    /// Current size of the blocks file in bytes (v3: header + directory
    /// + heap including relocation garbage; v1/v2: `capacity × blocks ×
    /// 8`).
    pub fn disk_bytes(&self) -> Result<u64, StorageError> {
        Ok(self
            .file
            .metadata()
            .map_err(|e| StorageError::io("stat blocks file", e))?
            .len())
    }

    /// Total bytes of *live* encoded payloads in a v3 store (the sum of
    /// directory `len`s); `None` for dense stores. The gap between this
    /// and [`FileBlockStore::disk_bytes`] is relocation garbage
    /// (`docs/FORMAT.md` §8.5).
    pub fn sparse_live_bytes(&self) -> Option<u64> {
        match &self.layout {
            Layout::Sparse { dir, .. } => Some(dir.iter().map(|e| e.len as u64).sum()),
            Layout::Dense => None,
        }
    }

    /// The v3 directory entry of block `id`, if this is a sparse store.
    fn sparse_entry(&self, id: usize) -> Option<DirEntry> {
        match &self.layout {
            Layout::Sparse { dir, .. } => Some(dir[id]),
            Layout::Dense => None,
        }
    }

    /// Persists `entry` as block `id`'s directory slot (16 bytes at its
    /// fixed offset) and mirrors it in memory — step 3 of the §8.5 write
    /// protocol.
    fn write_dir_entry(&mut self, id: usize, entry: DirEntry) -> Result<(), StorageError> {
        let mut bytes = [0u8; V3_DIR_ENTRY_LEN as usize];
        bytes[0..8].copy_from_slice(&entry.offset.to_le_bytes());
        bytes[8..12].copy_from_slice(&entry.len.to_le_bytes());
        bytes[12..16].copy_from_slice(&entry.alloc.to_le_bytes());
        self.file
            .write_all_at(&bytes, V3_HEADER_LEN + id as u64 * V3_DIR_ENTRY_LEN)
            .map_err(|e| StorageError::io(format!("write v3 directory entry {id}"), e))?;
        if let Layout::Sparse { dir, .. } = &mut self.layout {
            dir[id] = entry;
        }
        Ok(())
    }

    /// Checks block `id`'s recorded CRC against `computed` (a no-op on
    /// legacy v1 stores), counting a mismatch in `checksum_failures`.
    fn verify_crc(&self, id: usize, computed: u32) -> Result<(), StorageError> {
        let Some(sc) = &self.sidecar else {
            return Ok(());
        };
        let stored = sc.read(id)?;
        if stored != computed {
            self.checksum_failures.inc();
            return Err(StorageError::Checksum {
                block: id,
                stored,
                computed,
            });
        }
        Ok(())
    }

    /// Reads and CRC-verifies the encoded payload of sparse block `id`.
    /// An all-zero entry returns an empty payload after checking its
    /// sidecar slot holds the empty-string CRC (`0`).
    fn read_sparse_payload(&self, id: usize, entry: DirEntry) -> Result<Vec<u8>, StorageError> {
        let mut payload = vec![0u8; entry.len as usize];
        if entry.offset == 0 {
            self.verify_crc(id, 0)?;
        } else {
            self.file
                .read_exact_at(&mut payload, entry.offset)
                .map_err(|e| StorageError::io(format!("read sparse block {id}"), e))?;
            self.verify_crc(id, crc32(&payload))?;
        }
        Ok(payload)
    }

    /// The one block-read body behind both [`BlockStore`] read methods:
    /// positioned reads of the block (dense, or its v3 payload through
    /// the in-memory directory) and of its sidecar CRC, verified before
    /// `buf` is filled. Touches no `&mut` state, so the sharded pool runs
    /// it under the shared half of its store lock.
    fn read_block_at(&self, id: usize, buf: &mut [f64]) -> Result<(), StorageError> {
        assert!(id < self.blocks, "block {id} out of range");
        assert_eq!(buf.len(), self.capacity);
        let t0 = Instant::now();
        if let Some(entry) = self.sparse_entry(id) {
            let payload = self.read_sparse_payload(id, entry)?;
            if entry.offset == 0 {
                buf.fill(0.0);
            } else {
                sp::decode(&payload, self.capacity)?.to_dense(buf);
            }
        } else {
            let nbytes = self.block_bytes();
            let mut bytes = vec![0u8; nbytes];
            self.file
                .read_exact_at(&mut bytes, (id * nbytes) as u64)
                .map_err(|e| StorageError::io(format!("read block {id}"), e))?;
            self.verify_crc(id, crc32(&bytes))?;
            for (v, le) in buf.iter_mut().zip(bytes.chunks_exact(8)) {
                *v = f64::from_le_bytes(le.try_into().expect("chunks of 8 bytes"));
            }
        }
        self.read_ns.record(t0.elapsed().as_nanos() as u64);
        self.stats.add_block_reads(1);
        Ok(())
    }

    /// The §8.5 write protocol for one sparse block: encode, place
    /// (in-place or relocate to end of heap), then directory, then CRC.
    fn write_sparse_block(&mut self, id: usize, buf: &[f64]) -> Result<(), StorageError> {
        let payload = sp::encode(&SparseTile::from_dense(buf));
        let dense_bytes = self.block_bytes() as u64;
        let old = self.sparse_entry(id).expect("sparse layout");
        if payload.is_empty() {
            // All-zero image: zero directory entry, empty-string CRC.
            if old != DirEntry::default() {
                self.write_dir_entry(id, DirEntry::default())?;
            }
            if let Some(sc) = &self.sidecar {
                sc.write(id, 0)?;
            }
            self.sparse_blocks_written.inc();
            self.sparse_bytes_saved.add(dense_bytes);
            return Ok(());
        }
        let len = payload.len() as u32;
        let entry = if old.offset != 0 && len <= old.alloc {
            DirEntry { len, ..old }
        } else {
            // Relocate: append at end of heap with quantised headroom.
            let alloc = len.div_ceil(V3_ALLOC_QUANTUM) * V3_ALLOC_QUANTUM;
            let offset = match &self.layout {
                Layout::Sparse { heap_end, .. } => *heap_end,
                Layout::Dense => unreachable!(),
            };
            if old.offset != 0 {
                self.sparse_relocations.inc();
            }
            DirEntry { offset, len, alloc }
        };
        // Step 2: payload first. On relocation also extend the file to
        // the full allocation so `offset + alloc <= file length` holds
        // for the next open.
        self.file
            .write_all_at(&payload, entry.offset)
            .map_err(|e| StorageError::io(format!("write sparse block {id}"), e))?;
        if entry.offset != old.offset {
            let new_heap_end = entry.offset + entry.alloc as u64;
            self.file
                .set_len(new_heap_end)
                .map_err(|e| StorageError::io("extend sparse heap", e))?;
            if let Layout::Sparse { heap_end, .. } = &mut self.layout {
                *heap_end = new_heap_end;
            }
        }
        // Step 3: directory. Step 4: CRC over the encoded payload.
        self.write_dir_entry(id, entry)?;
        if let Some(sc) = &self.sidecar {
            sc.write(id, crc32(&payload))?;
        }
        self.sparse_blocks_written.inc();
        self.sparse_bytes_written.add(payload.len() as u64);
        self.sparse_bytes_saved
            .add(dense_bytes.saturating_sub(payload.len() as u64));
        Ok(())
    }

    /// Flushes OS buffers of the blocks file and sidecar to stable
    /// storage (`fsync`).
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.file
            .sync_data()
            .map_err(|e| StorageError::io("fsync blocks file", e))?;
        if let Some(sc) = &self.sidecar {
            sc.file
                .sync_data()
                .map_err(|e| StorageError::io("fsync checksum sidecar", e))?;
        }
        Ok(())
    }

    /// Scans every block, recomputing its CRC-32 and comparing it to the
    /// sidecar — the full-file scrub behind `shiftsplit scrub` and
    /// [`WsFile::verify`](crate::WsFile::verify).
    ///
    /// Scrub traffic is maintenance, not experiment workload, so it does
    /// **not** count into [`IoStats`]; progress appears in the global
    /// metrics registry as `scrub.blocks_scanned` / `scrub.corruptions`.
    /// Corruption is reported in the [`ScrubReport`]; only environmental
    /// failures (unreadable file, bad geometry) are `Err`.
    pub fn scrub(&mut self) -> Result<ScrubReport, StorageError> {
        if self.sparse() {
            return self.scrub_sparse();
        }
        let expected = (self.capacity * self.blocks * 8) as u64;
        let actual = self
            .file
            .metadata()
            .map_err(|e| StorageError::io("stat blocks file", e))?
            .len();
        if actual < expected {
            return Err(StorageError::Geometry { expected, actual });
        }
        let scanned = ss_obs::global().counter("scrub.blocks_scanned");
        let corruptions = ss_obs::global().counter("scrub.corruptions");
        let mut report = ScrubReport {
            blocks: self.blocks,
            corrupt: Vec::new(),
            checksummed: self.sidecar.is_some(),
        };
        let nbytes = self.capacity * 8;
        for id in 0..self.blocks {
            self.file
                .read_exact_at(&mut self.byte_buf, (id * nbytes) as u64)
                .map_err(|e| StorageError::io(format!("scrub read of block {id}"), e))?;
            match self.verify_crc(id, crc32(&self.byte_buf)) {
                Ok(()) => {}
                Err(StorageError::Checksum { .. }) => {
                    report.corrupt.push(id);
                    corruptions.inc();
                }
                Err(e) => return Err(e),
            }
            scanned.inc();
        }
        Ok(report)
    }

    /// The v3 scrub: walks the directory, checking every entry's
    /// geometry against the file length, every payload's CRC against the
    /// sidecar, and every payload's length against its own bitmap
    /// (`docs/FORMAT.md` §8.4). Per-block inconsistencies are reported
    /// as corrupt blocks; only environmental failures are `Err`.
    fn scrub_sparse(&mut self) -> Result<ScrubReport, StorageError> {
        let file_len = self.disk_bytes()?;
        let dir_end = V3_HEADER_LEN + self.blocks as u64 * V3_DIR_ENTRY_LEN;
        if file_len < dir_end {
            return Err(StorageError::Geometry {
                expected: dir_end,
                actual: file_len,
            });
        }
        let scanned = ss_obs::global().counter("scrub.blocks_scanned");
        let corruptions = ss_obs::global().counter("scrub.corruptions");
        let mut report = ScrubReport {
            blocks: self.blocks,
            corrupt: Vec::new(),
            checksummed: true,
        };
        for id in 0..self.blocks {
            let entry = self.sparse_entry(id).expect("sparse layout");
            let geometry_ok = if entry.offset == 0 {
                entry.len == 0 && entry.alloc == 0
            } else {
                entry.offset >= dir_end
                    && entry.len <= entry.alloc
                    && entry.offset + entry.alloc as u64 <= file_len
            };
            let clean = geometry_ok
                && match self.read_sparse_payload(id, entry) {
                    Ok(payload) => entry.offset == 0 || sp::decode(&payload, self.capacity).is_ok(),
                    Err(StorageError::Checksum { .. }) => false,
                    Err(e) => return Err(e),
                };
            if !clean {
                report.corrupt.push(id);
                corruptions.inc();
            }
            scanned.inc();
        }
        Ok(report)
    }

    fn block_bytes(&self) -> usize {
        self.capacity * 8
    }
}

impl BlockStore for FileBlockStore {
    fn block_capacity(&self) -> usize {
        self.capacity
    }

    fn num_blocks(&self) -> usize {
        self.blocks
    }

    fn try_read_block(&mut self, id: usize, buf: &mut [f64]) -> Result<(), StorageError> {
        self.read_block_at(id, buf)
    }

    fn try_read_block_shared(
        &self,
        id: usize,
        buf: &mut [f64],
    ) -> Option<Result<(), StorageError>> {
        Some(self.read_block_at(id, buf))
    }

    fn try_write_block(&mut self, id: usize, buf: &[f64]) -> Result<(), StorageError> {
        assert!(id < self.blocks, "block {id} out of range");
        assert_eq!(buf.len(), self.capacity);
        if self.read_only {
            return Err(StorageError::ReadOnly);
        }
        let t0 = Instant::now();
        if self.sparse() {
            self.write_sparse_block(id, buf)?;
            self.write_ns.record(t0.elapsed().as_nanos() as u64);
            self.stats.add_block_writes(1);
            return Ok(());
        }
        for (i, &v) in buf.iter().enumerate() {
            self.byte_buf[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
        let nbytes = self.block_bytes();
        // Ordering: block contents first, CRC second. A crash in between
        // leaves a mismatch the next read (or scrub) detects — never a
        // silently wrong block (see DESIGN.md §9).
        self.file
            .write_all_at(&self.byte_buf, (id * nbytes) as u64)
            .map_err(|e| StorageError::io(format!("write block {id}"), e))?;
        if let Some(sc) = &self.sidecar {
            sc.write(id, crc32(&self.byte_buf))?;
        }
        self.write_ns.record(t0.elapsed().as_nanos() as u64);
        self.stats.add_block_writes(1);
        Ok(())
    }

    fn try_sync(&mut self) -> Result<(), StorageError> {
        FileBlockStore::sync(self)
    }

    fn grow(&mut self, blocks: usize) {
        if blocks > self.blocks {
            assert!(
                !self.sparse(),
                "grow is unsupported on format v3 stores (docs/FORMAT.md §8.6); \
                 re-ingest into a fresh store to expand the domain"
            );
            self.file
                .set_len((self.capacity * blocks * 8) as u64)
                .expect("grow failed");
            if let Some(sc) = &self.sidecar {
                sc.grow(self.blocks, blocks, self.zero_crc)
                    .expect("grow sidecar failed");
            }
            self.blocks = blocks;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::testsuite;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ss_fileblock_{name}_{}", std::process::id()));
        p
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(Sidecar::path_for(path));
    }

    #[test]
    fn roundtrip() {
        let path = tmp("roundtrip");
        let mut store = FileBlockStore::create(&path, 8, 4, IoStats::new()).unwrap();
        testsuite::roundtrip(&mut store);
        cleanup(&path);
    }

    #[test]
    fn grow_preserves() {
        let path = tmp("grow");
        let mut store = FileBlockStore::create(&path, 8, 4, IoStats::new()).unwrap();
        testsuite::grow_preserves(&mut store);
        cleanup(&path);
    }

    #[test]
    fn counts_io() {
        let path = tmp("counts");
        let stats = IoStats::new();
        let mut store = FileBlockStore::create(&path, 8, 4, stats.clone()).unwrap();
        testsuite::counts_io(&mut store, &stats);
        cleanup(&path);
    }

    #[test]
    fn records_block_io_latency_in_global_registry() {
        // The global registry is process-wide, so assert growth, not
        // absolute counts.
        let reads = ss_obs::global().histogram("storage.block_read_ns");
        let writes = ss_obs::global().histogram("storage.block_write_ns");
        let (r0, w0) = (reads.count(), writes.count());
        let path = tmp("latency");
        let mut store = FileBlockStore::create(&path, 8, 2, IoStats::new()).unwrap();
        let mut buf = [0.0; 8];
        store.write_block(0, &[1.0; 8]);
        store.read_block(0, &mut buf);
        assert_eq!(reads.count(), r0 + 1);
        assert_eq!(writes.count(), w0 + 1);
        cleanup(&path);
    }

    #[test]
    fn persists_across_reopen_of_same_handle() {
        let path = tmp("persist");
        let stats = IoStats::new();
        {
            let mut store = FileBlockStore::create(&path, 4, 2, stats.clone()).unwrap();
            store.write_block(1, &[1.0, 2.0, 3.0, 4.0]);
        }
        // Bytes are on disk: read them back raw.
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), 4 * 2 * 8);
        let mut le = [0u8; 8];
        le.copy_from_slice(&bytes[4 * 8..4 * 8 + 8]);
        assert_eq!(f64::from_le_bytes(le), 1.0);
        cleanup(&path);
    }

    #[test]
    fn checksums_catch_on_disk_bit_rot() {
        let path = tmp("bitrot");
        let mut store = FileBlockStore::create(&path, 4, 3, IoStats::new()).unwrap();
        store.write_block(1, &[1.0, 2.0, 3.0, 4.0]);
        drop(store);
        // Flip one bit of block 1 behind the store's back.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4 * 8 + 2] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let mut store = FileBlockStore::open(&path, 4, 3, IoStats::new()).unwrap();
        let mut buf = [0.0; 4];
        // Untouched blocks still read fine.
        store.try_read_block(0, &mut buf).unwrap();
        match store.try_read_block(1, &mut buf) {
            Err(StorageError::Checksum { block: 1, .. }) => {}
            other => panic!("expected checksum error, got {other:?}"),
        }
        // The scrub sees exactly the one corrupt block.
        let report = store.scrub().unwrap();
        assert_eq!(report.corrupt, vec![1]);
        assert!(report.checksummed);
        cleanup(&path);
    }

    #[test]
    fn stale_crc_after_out_of_band_rewrite_is_detected() {
        // Models the crash window between "block written" and "CRC
        // updated": the sidecar entry is stale, so the read must fail.
        let path = tmp("stalecrc");
        let mut store = FileBlockStore::create(&path, 4, 2, IoStats::new()).unwrap();
        store.write_block(0, &[5.0; 4]);
        drop(store);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0..8].copy_from_slice(&7.0f64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let mut store = FileBlockStore::open(&path, 4, 2, IoStats::new()).unwrap();
        let mut buf = [0.0; 4];
        assert!(matches!(
            store.try_read_block(0, &mut buf),
            Err(StorageError::Checksum { block: 0, .. })
        ));
        cleanup(&path);
    }

    #[test]
    fn open_requires_sidecar_but_open_v1_does_not() {
        let path = tmp("v1compat");
        // A bare v1 blocks file: raw f64s, no sidecar.
        std::fs::write(&path, vec![0u8; 4 * 2 * 8]).unwrap();
        assert!(FileBlockStore::open(&path, 4, 2, IoStats::new()).is_err());
        let mut store = FileBlockStore::open_v1(&path, 4, 2, IoStats::new()).unwrap();
        assert!(!store.checksummed());
        assert!(store.read_only());
        let mut buf = [0.0; 4];
        store.try_read_block(0, &mut buf).unwrap();
        assert!(matches!(
            store.try_write_block(0, &buf),
            Err(StorageError::ReadOnly)
        ));
        // Scrubbing a v1 store checks geometry/readability only.
        let report = store.scrub().unwrap();
        assert!(!report.checksummed && report.is_clean());
        cleanup(&path);
    }

    #[test]
    fn grow_extends_sidecar_consistently() {
        let path = tmp("growcrc");
        let mut store = FileBlockStore::create(&path, 4, 2, IoStats::new()).unwrap();
        store.write_block(1, &[9.0; 4]);
        store.grow(6);
        let mut buf = [0.0; 4];
        // New blocks read back as zeros with valid CRCs.
        for id in 2..6 {
            store.try_read_block(id, &mut buf).unwrap();
            assert!(buf.iter().all(|&v| v == 0.0));
        }
        assert!(store.scrub().unwrap().is_clean());
        cleanup(&path);
    }

    #[test]
    fn corrupt_sidecar_magic_is_rejected() {
        let path = tmp("badmagic");
        let store = FileBlockStore::create(&path, 4, 2, IoStats::new()).unwrap();
        drop(store);
        let sc = Sidecar::path_for(&path);
        let mut bytes = std::fs::read(&sc).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&sc, &bytes).unwrap();
        assert!(FileBlockStore::open(&path, 4, 2, IoStats::new()).is_err());
        cleanup(&path);
    }

    #[test]
    fn v3_roundtrip() {
        let path = tmp("v3roundtrip");
        let mut store = FileBlockStore::create_v3(&path, 8, 4, IoStats::new()).unwrap();
        assert!(store.sparse());
        testsuite::roundtrip(&mut store);
        cleanup(&path);
    }

    #[test]
    fn v3_zero_blocks_use_no_heap() {
        let path = tmp("v3zero");
        let store = FileBlockStore::create_v3(&path, 64, 8, IoStats::new()).unwrap();
        // Freshly created: header + directory only, no heap.
        let expected = V3_HEADER_LEN + 8 * V3_DIR_ENTRY_LEN;
        assert_eq!(store.disk_bytes().unwrap(), expected);
        assert_eq!(store.sparse_live_bytes(), Some(0));
        drop(store);
        let mut store = FileBlockStore::open_v3(&path, 64, 8, IoStats::new()).unwrap();
        let mut buf = [7.0; 64];
        store.try_read_block(3, &mut buf).unwrap();
        assert!(buf.iter().all(|&v| v == 0.0));
        cleanup(&path);
    }

    #[test]
    fn v3_persists_and_is_much_smaller_than_dense() {
        let path = tmp("v3persist");
        let mut image = [0.0; 256];
        image[0] = 1.5;
        image[100] = -2.0;
        {
            let mut store = FileBlockStore::create_v3(&path, 256, 16, IoStats::new()).unwrap();
            store.write_block(5, &image);
            store.sync().unwrap();
        }
        let mut store = FileBlockStore::open_v3(&path, 256, 16, IoStats::new()).unwrap();
        let mut buf = [9.0; 256];
        store.try_read_block(5, &mut buf).unwrap();
        assert_eq!(buf, image);
        // Two present buckets of one block vs 16 dense blocks of 2 KiB.
        let dense_bytes: u64 = 256 * 16 * 8;
        assert!(store.disk_bytes().unwrap() < dense_bytes / 4);
        assert!(store.scrub().unwrap().is_clean());
        cleanup(&path);
    }

    #[test]
    fn v3_rewrite_in_place_and_relocate() {
        let path = tmp("v3reloc");
        let mut store = FileBlockStore::create_v3(&path, 64, 2, IoStats::new()).unwrap();
        let mut image = [0.0; 64];
        image[0] = 1.0;
        store.write_block(0, &image);
        let len_after_first = store.disk_bytes().unwrap();
        // Growing within the same bucket stays within the 128-byte
        // allocation quantum: no relocation, file length unchanged.
        image[1] = 2.0;
        store.write_block(0, &image);
        assert_eq!(store.disk_bytes().unwrap(), len_after_first);
        // Touching all four buckets outgrows the allocation: relocate.
        for slot in [16, 32, 48] {
            image[slot] = 3.0;
        }
        store.write_block(0, &image);
        assert!(store.disk_bytes().unwrap() > len_after_first);
        let live = store.sparse_live_bytes().unwrap();
        assert!(live < store.disk_bytes().unwrap()); // old region is garbage
        let mut buf = [0.0; 64];
        store.try_read_block(0, &mut buf).unwrap();
        assert_eq!(buf, image);
        // Writing the block back to all-zero frees its directory entry.
        store.write_block(0, &[0.0; 64]);
        assert_eq!(store.sparse_live_bytes(), Some(0));
        store.try_read_block(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&v| v == 0.0));
        assert!(store.scrub().unwrap().is_clean());
        cleanup(&path);
    }

    #[test]
    fn v3_scrub_catches_bit_flipped_payload() {
        let path = tmp("v3bitrot");
        let mut image = [0.0; 64];
        image[20] = 4.25;
        {
            let mut store = FileBlockStore::create_v3(&path, 64, 4, IoStats::new()).unwrap();
            store.write_block(2, &image);
            store.sync().unwrap();
        }
        // Flip one bit inside the heap (past header + directory).
        let heap_start = (V3_HEADER_LEN + 4 * V3_DIR_ENTRY_LEN) as usize;
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[heap_start + 5] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let mut store = FileBlockStore::open_v3(&path, 64, 4, IoStats::new()).unwrap();
        let mut buf = [0.0; 64];
        assert!(matches!(
            store.try_read_block(2, &mut buf),
            Err(StorageError::Checksum { block: 2, .. })
        ));
        store.try_read_block(0, &mut buf).unwrap(); // others unaffected
        let report = store.scrub().unwrap();
        assert_eq!(report.corrupt, vec![2]);
        assert!(report.checksummed);
        cleanup(&path);
    }

    #[test]
    fn v3_rejects_bad_magic_and_geometry() {
        let path = tmp("v3badmagic");
        drop(FileBlockStore::create_v3(&path, 8, 2, IoStats::new()).unwrap());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FileBlockStore::open_v3(&path, 8, 2, IoStats::new()),
            Err(StorageError::Meta(_))
        ));
        bytes[0] ^= 0xFF; // restore magic, corrupt a directory entry instead
        let dir0 = V3_HEADER_LEN as usize;
        bytes[dir0..dir0 + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FileBlockStore::open_v3(&path, 8, 2, IoStats::new()),
            Err(StorageError::Meta(_)) | Err(StorageError::Geometry { .. })
        ));
        cleanup(&path);
    }

    #[test]
    fn v3_grow_panics() {
        let path = tmp("v3grow");
        let mut store = FileBlockStore::create_v3(&path, 8, 2, IoStats::new()).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.grow(4)))
            .expect_err("grow on v3 must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("unsupported on format v3"), "got: {msg}");
        cleanup(&path);
    }

    /// Bit patterns of block `id` read through both read paths.
    fn both_reads(store: &mut FileBlockStore, id: usize) -> (Vec<u64>, Vec<u64>) {
        let cap = store.block_capacity();
        let (mut shared, mut exclusive) = (vec![f64::NAN; cap], vec![f64::NAN; cap]);
        store
            .try_read_block_shared(id, &mut shared)
            .expect("file stores read through a shared reference")
            .unwrap();
        store.try_read_block(id, &mut exclusive).unwrap();
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect();
        (bits(shared), bits(exclusive))
    }

    #[test]
    fn shared_reads_are_bit_identical_on_every_format() {
        let image: Vec<f64> = (0..32)
            .map(|i| [0.0, -0.0, 1.5, -2.25e-300][i % 4])
            .collect();
        let (dense, sparse) = (tmp("shared_v2"), tmp("shared_v3"));
        let mut stores = vec![
            FileBlockStore::create(&dense, 32, 4, IoStats::new()).unwrap(),
            FileBlockStore::create_v3(&sparse, 32, 4, IoStats::new()).unwrap(),
        ];
        for store in &mut stores {
            store.write_block(1, &image);
        }
        // A v1 store is the dense bytes without a sidecar.
        let v1 = tmp("shared_v1");
        std::fs::copy(&dense, &v1).unwrap();
        stores.push(FileBlockStore::open_v1(&v1, 32, 4, IoStats::new()).unwrap());
        for store in &mut stores {
            for id in 0..4 {
                let (shared, exclusive) = both_reads(store, id);
                assert_eq!(shared, exclusive, "block {id}");
            }
            let (shared, _) = both_reads(store, 1);
            assert_eq!(
                shared,
                image.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
        for path in [&dense, &sparse, &v1] {
            cleanup(path);
        }
    }

    #[test]
    fn shared_read_of_a_corrupt_block_fails_with_a_typed_checksum_error() {
        let failures = ss_obs::global().counter("storage.checksum_failures");
        let (dense, sparse) = (tmp("shared_bitrot_v2"), tmp("shared_bitrot_v3"));
        let mut image = [0.0; 64];
        image[20] = 4.25;
        for (path, v3) in [(&dense, false), (&sparse, true)] {
            let create = if v3 {
                FileBlockStore::create_v3
            } else {
                FileBlockStore::create
            };
            create(path, 64, 4, IoStats::new())
                .unwrap()
                .write_block(2, &image);
            // Flip one bit of block 2's bytes (the v3 heap starts after
            // header and directory, with block 2 its only payload).
            let at = if v3 {
                (V3_HEADER_LEN + 4 * V3_DIR_ENTRY_LEN) as usize + 5
            } else {
                2 * 64 * 8 + 20 * 8 + 1
            };
            let mut bytes = std::fs::read(path).unwrap();
            bytes[at] ^= 0x40;
            std::fs::write(path, &bytes).unwrap();
            let open = if v3 {
                FileBlockStore::open_v3
            } else {
                FileBlockStore::open
            };
            let store = open(path, 64, 4, IoStats::new()).unwrap();
            let before = failures.get();
            let mut buf = [0.0; 64];
            assert!(
                matches!(
                    store.try_read_block_shared(2, &mut buf),
                    Some(Err(StorageError::Checksum { block: 2, .. }))
                ),
                "v3: {v3}"
            );
            assert!(failures.get() > before, "v3: {v3}");
            assert!(matches!(
                store.try_read_block_shared(0, &mut buf),
                Some(Ok(()))
            ));
            cleanup(path);
        }
    }

    #[test]
    fn file_backed_misses_on_different_shards_overlap() {
        use crate::shard::ShardedBufferPool;
        use crate::throttle::ThrottledBlockStore;
        use std::sync::Barrier;
        use std::time::Duration;

        let path = tmp("shared_pool");
        let stats = IoStats::new();
        let file = FileBlockStore::create(&path, 4, 4, stats.clone()).unwrap();
        let latency = Duration::from_millis(30);
        let slow = ThrottledBlockStore::new(file, latency, Duration::ZERO);
        let pool = ShardedBufferPool::new(slow, 2, 2, stats.clone());
        let start = Barrier::new(3);
        let t0 = std::thread::scope(|scope| {
            // Blocks 0 and 1 live on shards 0 and 1.
            for id in 0..2 {
                let (pool, start) = (&pool, &start);
                scope.spawn(move || {
                    start.wait();
                    assert_eq!(pool.read(id, 0), 0.0);
                });
            }
            start.wait();
            Instant::now()
        });
        let both = t0.elapsed();
        assert_eq!(stats.snapshot().block_reads, 2);
        // Under the exclusive store lock the two misses serialise (2 × 30
        // ms); as shared reads they wait on the device together.
        assert!(
            both < latency * 3 / 2,
            "two misses on different shards took {both:?}"
        );
        drop(pool);
        cleanup(&path);
    }

    #[test]
    fn infallible_read_panics_with_typed_payload() {
        let path = tmp("panicpayload");
        let mut store = FileBlockStore::create(&path, 4, 2, IoStats::new()).unwrap();
        store.write_block(0, &[3.0; 4]);
        drop(store);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[3] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let mut store = FileBlockStore::open(&path, 4, 2, IoStats::new()).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut buf = [0.0; 4];
            store.read_block(0, &mut buf);
        }))
        .expect_err("read of a corrupt block must panic");
        let typed = crate::block::downcast_storage_error(err);
        assert!(matches!(typed, StorageError::Checksum { block: 0, .. }));
        cleanup(&path);
    }
}
