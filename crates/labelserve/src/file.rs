//! Store persistence: build once, write to disk, serve from a fresh
//! process.
//!
//! ## File format (`LWLSTOR1`, version 1, little-endian throughout)
//!
//! ```text
//! 0   magic         8 bytes   "LWLSTOR1"
//! 8   version       u32       1
//! 12  layout        u32       0 = flat, 1 = packed
//! 16  n             u64       global vertex count
//! 24  shard_size    u64       nodes per shard
//! 32  shard_count   u64
//! 40  components    u64       distinct component ids
//! 48  entries_total u64
//! 56  comp_of       n × u32   component id per vertex
//! ..  shard index   shard_count × { seg_off u64, seg_len u64 }
//! ..  segments      one per shard, at the indexed offsets
//! ```
//!
//! A **packed** segment is byte-identical to the in-memory `PackedShard`
//! segment (`packed.rs`), so `open_mmap` serves packed shards zero-copy
//! straight off the mapping — the file *is* the store. A
//! **flat** segment stores the CSR lanes
//! (`nodes u32, entries u32, offsets, hubs, dto, dfrom`) and is copied
//! into typed `Vec`s on open: the flat hot loop indexes `u64` lanes,
//! which want alignment the file cannot promise, and flat is the layout
//! you pick when RAM is plentiful anyway — packed is the at-scale,
//! serve-from-disk path.
//!
//! ## Opening is where validation lives
//!
//! `open_mmap` re-checks everything the query path assumes — magic,
//! version, section bounds, CSR monotonicity, per-row stream decode, hub
//! sortedness, component-count consistency — so a truncated or corrupted
//! file is a typed [`StoreFileError`] at open and the serving hot path
//! stays panic-free plain indexing.
//!
//! ## The mapping itself
//!
//! The workspace is offline (no `libc`/`memmap2` crates), so the mapping
//! calls `mmap(2)`/`munmap(2)` directly through `extern "C"` — `std`
//! already links the platform C library on unix targets. On non-unix
//! targets, or if the kernel refuses the mapping, the file is read onto
//! the heap instead; everything above the `Storage` enum is identical
//! either way.

use crate::error::ServeError;
use crate::packed::{u32_at, PackedShard};
use crate::store::{distinct_components, FlatShard, LabelStore, ShardData, StoreLayout};
use std::fmt;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use twgraph::Dist;

const MAGIC: &[u8; 8] = b"LWLSTOR1";
const VERSION: u32 = 1;
const HEADER: usize = 56;

/// Opening or writing a persisted store failed.
#[derive(Debug)]
pub enum StoreFileError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The bytes are not a well-formed store file.
    Format {
        /// Which part of the container was malformed.
        what: &'static str,
    },
    /// The container parsed but a segment violated a store invariant.
    Store(ServeError),
}

impl fmt::Display for StoreFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreFileError::Io(e) => write!(f, "store file i/o: {e}"),
            StoreFileError::Format { what } => write!(f, "malformed store file: {what}"),
            StoreFileError::Store(e) => write!(f, "store file segment: {e}"),
        }
    }
}

impl std::error::Error for StoreFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreFileError::Io(e) => Some(e),
            StoreFileError::Store(e) => Some(e),
            StoreFileError::Format { .. } => None,
        }
    }
}

impl From<std::io::Error> for StoreFileError {
    fn from(e: std::io::Error) -> Self {
        StoreFileError::Io(e)
    }
}

impl From<ServeError> for StoreFileError {
    fn from(e: ServeError) -> Self {
        StoreFileError::Store(e)
    }
}

/// The bytes behind a shard segment: an owned buffer (in-memory build or
/// mmap fallback) or a shared read-only file mapping.
#[derive(Debug)]
pub(crate) enum Storage {
    /// Heap-owned bytes.
    Heap(Vec<u8>),
    /// A read-only `mmap(2)` of a store file.
    Mmap(MmapFile),
}

impl Storage {
    /// The backing bytes.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[u8] {
        match self {
            Storage::Heap(v) => v,
            Storage::Mmap(m) => m.as_slice(),
        }
    }
}

/// A whole-file read-only private mapping, unmapped on drop.
#[derive(Debug)]
pub(crate) struct MmapFile {
    ptr: *mut u8,
    len: usize,
}

// The mapping is read-only and owned uniquely by this handle until drop;
// sharing &MmapFile across threads only ever reads the bytes.
unsafe impl Send for MmapFile {}
unsafe impl Sync for MmapFile {}

impl MmapFile {
    #[inline]
    fn as_slice(&self) -> &[u8] {
        // Length and pointer come from a successful mmap of exactly `len`
        // bytes; the mapping lives until Drop.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for MmapFile {
    fn drop(&mut self) {
        extern "C" {
            fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
        }
        // A failed munmap leaks the mapping — nothing useful to do in Drop.
        unsafe {
            munmap(self.ptr.cast(), self.len);
        }
    }
}

/// Map `file` (of size `len`) read-only; `None` falls back to a heap read.
#[cfg(unix)]
fn map_file(file: &std::fs::File, len: usize) -> Option<MmapFile> {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
    }
    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;
    if len == 0 {
        return None; // zero-length mappings are an EINVAL; heap handles it
    }
    let ptr = unsafe {
        mmap(
            std::ptr::null_mut(),
            len,
            PROT_READ,
            MAP_PRIVATE,
            file.as_raw_fd(),
            0,
        )
    };
    if ptr.is_null() || ptr as isize == -1 {
        return None;
    }
    Some(MmapFile {
        ptr: ptr.cast(),
        len,
    })
}

#[cfg(not(unix))]
fn map_file(_file: &std::fs::File, _len: usize) -> Option<MmapFile> {
    None
}

#[inline]
fn u64_at(buf: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(b)
}

/// Serialized length of one shard's segment.
fn seg_len_of(shard: &ShardData) -> usize {
    match shard {
        ShardData::Flat(s) => 8 + 4 * s.offsets.len() + 4 * s.hubs.len() + 16 * s.hubs.len(),
        ShardData::Packed(p) => p.seg_len(),
    }
}

impl LabelStore {
    /// Persist the store to `path` in the `LWLSTOR1` container. The file
    /// is written whole-then-flushed; partial writes surface as
    /// [`StoreFileError::Io`] and leave no readable store behind
    /// (`open_mmap` rejects a truncated container).
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<(), StoreFileError> {
        let shards = self.folded_shards()?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        let layout_tag: u32 = match self.layout() {
            StoreLayout::Flat => 0,
            StoreLayout::Packed => 1,
        };
        out.write_all(&layout_tag.to_le_bytes())?;
        for v in [
            self.n() as u64,
            self.shard_size() as u64,
            shards.len() as u64,
            self.components() as u64,
            self.entries() as u64,
        ] {
            out.write_all(&v.to_le_bytes())?;
        }
        for &c in self.comp_of_slice() {
            out.write_all(&c.to_le_bytes())?;
        }
        // Shard index: segment offsets are computable up front from the
        // per-shard lengths, so the index streams out before any segment.
        let index_at = HEADER + 4 * self.n();
        let mut seg_off = (index_at + 16 * shards.len()) as u64;
        for shard in &shards {
            let len = seg_len_of(shard) as u64;
            out.write_all(&seg_off.to_le_bytes())?;
            out.write_all(&len.to_le_bytes())?;
            seg_off += len;
        }
        for shard in &shards {
            match shard {
                ShardData::Flat(s) => {
                    out.write_all(&((s.offsets.len() - 1) as u32).to_le_bytes())?;
                    out.write_all(&(s.hubs.len() as u32).to_le_bytes())?;
                    for &v in &s.offsets {
                        out.write_all(&v.to_le_bytes())?;
                    }
                    for &v in &s.hubs {
                        out.write_all(&v.to_le_bytes())?;
                    }
                    for &v in s.dto.iter().chain(&s.dfrom) {
                        out.write_all(&v.to_le_bytes())?;
                    }
                }
                ShardData::Packed(p) => out.write_all(p.seg_bytes())?,
            }
        }
        out.flush()?;
        Ok(())
    }

    /// Open a store persisted by [`write_to`](Self::write_to): map the
    /// file read-only (heap read where mapping is unavailable), validate
    /// every segment, and serve. Packed shards decode straight off the
    /// mapping — opening a packed store costs the header, the component
    /// map, and the validation sweep, not a copy of the label data.
    pub fn open_mmap(path: impl AsRef<Path>) -> Result<LabelStore, StoreFileError> {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len() as usize;
        let storage = match map_file(&file, len) {
            Some(m) => Storage::Mmap(m),
            None => {
                let mut buf = Vec::new();
                use std::io::Read;
                (&file).read_to_end(&mut buf)?;
                Storage::Heap(buf)
            }
        };
        drop(file); // the mapping (or heap copy) outlives the descriptor
        let storage = Arc::new(storage);
        let bytes = storage.as_slice();
        if bytes.len() != len {
            return Err(StoreFileError::Format {
                what: "file changed size while opening",
            });
        }
        let fmt = |what| StoreFileError::Format { what };
        if len < HEADER || &bytes[..8] != MAGIC {
            return Err(fmt("missing LWLSTOR1 magic"));
        }
        if u32_at(bytes, 8) != VERSION {
            return Err(fmt("unsupported container version"));
        }
        let layout = match u32_at(bytes, 12) {
            0 => StoreLayout::Flat,
            1 => StoreLayout::Packed,
            _ => return Err(fmt("unknown layout tag")),
        };
        let n = u64_at(bytes, 16) as usize;
        let shard_size = u64_at(bytes, 24) as usize;
        let shard_count = u64_at(bytes, 32) as usize;
        let components = u64_at(bytes, 40) as usize;
        let entries_total = u64_at(bytes, 48) as usize;
        if shard_size == 0 || shard_count != n.div_ceil(shard_size).max(1) {
            return Err(fmt("shard count inconsistent with n and shard size"));
        }
        let index_at = HEADER + 4 * n;
        let segs_at = index_at + 16 * shard_count;
        if segs_at > len {
            return Err(fmt("component map or shard index past end of file"));
        }
        let comp_of: Vec<u32> = (0..n).map(|v| u32_at(bytes, HEADER + 4 * v)).collect();
        if distinct_components(&comp_of) != components {
            return Err(fmt("component count does not match the component map"));
        }
        let mut shards = Vec::with_capacity(shard_count);
        let mut entries_seen = 0usize;
        for s in 0..shard_count {
            let seg_off = u64_at(bytes, index_at + 16 * s) as usize;
            let seg_len = u64_at(bytes, index_at + 16 * s + 8) as usize;
            if seg_off < segs_at || seg_off.checked_add(seg_len).map_or(true, |end| end > len) {
                return Err(fmt("shard segment outside the file"));
            }
            let nodes_expect = shard_size.min(n - (s * shard_size).min(n));
            let shard = match layout {
                StoreLayout::Packed => {
                    let p = PackedShard::from_segment(Arc::clone(&storage), seg_off)?;
                    p.validate()?;
                    if p.seg_len() != seg_len || p.nodes() != nodes_expect {
                        return Err(fmt("packed segment shape disagrees with the index"));
                    }
                    entries_seen += p.entries();
                    ShardData::Packed(Arc::new(p))
                }
                StoreLayout::Flat => {
                    let f = parse_flat(&bytes[seg_off..seg_off + seg_len])?;
                    if f.offsets.len() != nodes_expect + 1 {
                        return Err(fmt("flat segment shape disagrees with the index"));
                    }
                    entries_seen += f.hubs.len();
                    ShardData::Flat(Arc::new(f))
                }
            };
            shards.push(shard);
        }
        if entries_seen != entries_total {
            return Err(fmt("segment entries do not sum to the header total"));
        }
        Ok(LabelStore::from_parts(
            n,
            shard_size,
            comp_of,
            shards,
            entries_total,
            components,
            layout,
        ))
    }
}

/// Parse one flat segment, copying the lanes into typed `Vec`s (see the
/// module docs for why flat does not serve off the mapping).
fn parse_flat(seg: &[u8]) -> Result<FlatShard, StoreFileError> {
    let fmt = |what| StoreFileError::Format { what };
    if seg.len() < 8 {
        return Err(fmt("flat segment shorter than its header"));
    }
    let nodes = u32_at(seg, 0) as usize;
    let entries = u32_at(seg, 4) as usize;
    let want = 8 + 4 * (nodes + 1) + 4 * entries + 16 * entries;
    if seg.len() != want {
        return Err(fmt("flat segment length disagrees with its header"));
    }
    let offsets: Vec<u32> = (0..=nodes).map(|i| u32_at(seg, 8 + 4 * i)).collect();
    if offsets[0] != 0
        || offsets[nodes] as usize != entries
        || offsets.windows(2).any(|w| w[0] > w[1])
    {
        return Err(fmt("flat segment offsets not a monotone CSR"));
    }
    let hubs_at = 8 + 4 * (nodes + 1);
    let hubs: Vec<u32> = (0..entries).map(|i| u32_at(seg, hubs_at + 4 * i)).collect();
    for local in 0..nodes {
        let row = &hubs[offsets[local] as usize..offsets[local + 1] as usize];
        if row.windows(2).any(|w| w[0] >= w[1]) {
            return Err(fmt("flat segment row hubs not strictly ascending"));
        }
    }
    let dto_at = hubs_at + 4 * entries;
    let dfrom_at = dto_at + 8 * entries;
    let dist_lane = |at: usize| -> Vec<Dist> {
        (0..entries)
            .map(|i| {
                let mut b = [0u8; 8];
                b.copy_from_slice(&seg[at + 8 * i..at + 8 * i + 8]);
                Dist::from_le_bytes(b)
            })
            .collect()
    };
    Ok(FlatShard {
        offsets,
        hubs,
        dto: dist_lane(dto_at),
        dfrom: dist_lane(dfrom_at),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreBuilder;
    use distlabel::Label;
    use twgraph::INF;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("lwl-{}-{name}", std::process::id()))
    }

    /// Two components (a 5-path and a singleton) through both layouts.
    fn sample(layout: StoreLayout) -> LabelStore {
        let mut labels = Vec::new();
        for v in 0..5i64 {
            let mut l = Label::new(v as u32);
            for h in 0..5i64 {
                l.merge(
                    h as u32,
                    2 * (v - h).unsigned_abs(),
                    2 * (h - v).unsigned_abs(),
                );
            }
            labels.push(l);
        }
        let mut b = StoreBuilder::new(6);
        b.add_component(&labels, &[0, 1, 2, 3, 4]).unwrap();
        b.add_singleton(5).unwrap();
        b.build_layout(2, layout).unwrap()
    }

    #[test]
    fn roundtrip_both_layouts() {
        for layout in [StoreLayout::Flat, StoreLayout::Packed] {
            let store = sample(layout);
            let path = tmp(&format!("roundtrip-{layout:?}"));
            store.write_to(&path).unwrap();
            let opened = LabelStore::open_mmap(&path).unwrap();
            assert_eq!(opened.layout(), layout);
            assert_eq!(opened.n(), store.n());
            assert_eq!(opened.entries(), store.entries());
            assert_eq!(opened.components(), store.components());
            assert_eq!(opened.shard_count(), store.shard_count());
            for s in 0..6u32 {
                for t in 0..6u32 {
                    assert_eq!(
                        opened.distance(s, t).unwrap(),
                        store.distance(s, t).unwrap(),
                        "({s},{t}) under {layout:?}"
                    );
                }
            }
            assert_eq!(opened.distance(0, 5).unwrap(), INF);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn corrupt_files_are_typed_errors() {
        let store = sample(StoreLayout::Packed);
        let path = tmp("corrupt");
        store.write_to(&path).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            LabelStore::open_mmap(&path),
            Err(StoreFileError::Format { .. })
        ));

        // Truncated mid-segment.
        std::fs::write(&path, &good[..good.len() - 3]).unwrap();
        assert!(LabelStore::open_mmap(&path).is_err());

        // Header component count out of step with the map.
        let mut bad = good.clone();
        bad[40] = bad[40].wrapping_add(1);
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            LabelStore::open_mmap(&path),
            Err(StoreFileError::Format { .. })
        ));

        // Flipping a byte inside the packed body trips segment validation
        // (or parses to a benign stream — either way, never a panic).
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        let _ = LabelStore::open_mmap(&path);

        std::fs::remove_file(&path).ok();
        assert!(matches!(
            LabelStore::open_mmap(&path),
            Err(StoreFileError::Io(_))
        ));
    }
}
