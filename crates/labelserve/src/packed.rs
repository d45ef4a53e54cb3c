//! The succinct shard layout: delta-coded, bit-packed label entries in
//! fixed-size blocks with per-block skip headers.
//!
//! ## Why
//!
//! The flat CSR layout spends 20 bytes per entry (`u32` hub + two `u64`
//! distances) — ~890 bytes/node on the n = 100k reference instance, which
//! puts a 10M-node store near 9 GB and makes **memory** the scaling wall
//! (ROADMAP item 3). Label entries are extremely compressible: hubs are
//! sorted (small deltas), consecutive hubs have correlated distances
//! (small signed deltas), and on symmetric instances `d(v → h)` equals
//! `d(h → v)` (a zero delta). This module packs all three observations
//! into a byte stream the decoder can still merge-join without
//! materializing.
//!
//! ## Block format
//!
//! A node's entries (sorted strictly ascending by hub) are grouped into
//! blocks of [`BLOCK`] = 64 entries. Each block owns two skip-header words
//! in shard-level arrays — the hub id of its first entry and the byte
//! offset of its body — so the decoder can binary-search block headers
//! (the packed twin of `distlabel::decode_entries`' gallop) and only
//! linearly decode *inside* one block:
//!
//! ```text
//! block body  (entry 0's hub lives in the skip header, not the body)
//!   bh, bd, bf  3 × u8         per-lane bit widths (0..=57 or 64)
//!   dto_0       varint         entry 0's forward distance (LEB128)
//!   H lane  ⌈(len−1)·bh / 8⌉ B  hub_i − hub_{i−1} − 1
//!   D lane  ⌈(len−1)·bd / 8⌉ B  zigzag(dto_i − dto_{i−1})
//!   F lane  ⌈len·bf / 8⌉ B      zigzag(dfrom_i − dto_i)
//! ```
//!
//! Each lane is a **bit-packed** little-endian array (frame-of-reference
//! style): the bit width is the smallest that holds the block's largest
//! value (`zigzag` folds the *wrapping* `u64` difference cast to `i64`,
//! so the coding round-trips every possible distance value, including
//! [`INF`], with no range assumption). Fixed per-block widths are the
//! decode win over varints: a varint's length is only known after reading
//! it, so any varint stream is one long loop-carried dependency chain,
//! while packed lanes make every value's bit address computable upfront —
//! the decoder runs straight-line shift/mask loads the CPU can overlap.
//! Width 0 elides a constant-zero lane outright: on symmetric instances
//! `dfrom = dto` everywhere, so whole F lanes vanish (and a forward,
//! source-side row never reads its F lane regardless). Widths 58..=63
//! never occur (they round up to 64, which keeps every extraction inside
//! one unaligned 8-byte load).
//!
//! ## Shard segment
//!
//! A packed shard is one contiguous little-endian byte segment — the same
//! bytes in memory and on disk, which is what makes [`crate::file`]'s
//! `open_mmap` zero-copy:
//!
//! ```text
//! 0   nodes        u32                    rows in this shard
//! 4   entries      u32                    total entries (≤ u32::MAX, checked)
//! 8   blocks       u32                    total blocks
//! 12  data_len     u32                    body-stream bytes (≤ u32::MAX, checked)
//! 16  row_entries  (nodes+1) × u32        CSR over entries
//! ..  row_blocks   (nodes+1) × u32        CSR over blocks
//! ..  blk_first    blocks × u32           skip header: first hub per block
//! ..  blk_start    blocks × u32           skip header: body byte offset per block
//! ..  data         data_len bytes         the packed entry stream (per
//!                                         block: 3 width bytes + dto_0
//!                                         varint + bit-packed H/D/F lanes)
//! ```
//!
//! Every multi-byte integer is read with `from_le_bytes`, so segments may
//! sit at any alignment inside a mapped file.

use crate::error::ServeError;
use crate::file::Storage;
use std::sync::Arc;
use twgraph::{dist_add, Dist, INF};

/// Entries per block. 64 keeps a block's skip headers at 8 bytes per
/// ~64–400 body bytes and bounds the linear scan a seek can cost.
pub(crate) const BLOCK: usize = 64;

/// Fixed per-segment header bytes ahead of the section table.
const SEG_HEADER: usize = 16;

/// Append `x` as LEB128.
#[inline]
fn push_varint(out: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        out.push((x as u8) | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

/// Zigzag-fold a signed delta into an unsigned varint payload.
#[inline]
fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Wrapping difference `a − b` folded for svarint encoding: round-trips
/// every `(a, b)` pair via [`apply_delta`], small when `a ≈ b`.
#[inline]
fn fold_delta(a: u64, b: u64) -> u64 {
    zigzag(a.wrapping_sub(b) as i64)
}

/// Inverse of [`fold_delta`]: recover `a` from `b` and the folded delta.
#[inline]
fn apply_delta(b: u64, z: u64) -> u64 {
    b.wrapping_add(unzigzag(z) as u64)
}

/// Read one LEB128 varint at `pos`, advancing it. The segment validator
/// ([`PackedShard::validate`]) proves every stream terminates in bounds
/// before a shard serves, so the hot path never sees a truncated varint.
///
/// Decodes through one unaligned 8-byte little-endian load: hub gaps and
/// distance deltas are overwhelmingly 1–3 bytes, so the continuation bits
/// of the loaded word settle the length without a per-byte loop. Reads
/// within 8 bytes of the stream tail fall back to a zero-padded copy (the
/// pad bytes read as varint terminators, so the value is unaffected).
#[inline]
fn read_varint(data: &[u8], pos: &mut usize) -> u64 {
    let p = *pos;
    let w = if p + 8 <= data.len() {
        // SAFETY: bounds just checked; unaligned u64 loads are valid for
        // any byte pointer. (The branchless slice form costs a visible
        // fraction of the decode hot path at 1M-node store scale.)
        u64::from_le(unsafe { data.as_ptr().add(p).cast::<u64>().read_unaligned() })
    } else {
        let mut tail = [0u8; 8];
        tail[..data.len() - p].copy_from_slice(&data[p..]);
        u64::from_le_bytes(tail)
    };
    if w & 0x80 == 0 {
        *pos = p + 1;
        return w & 0x7f;
    }
    if w & 0x8000 == 0 {
        *pos = p + 2;
        return (w & 0x7f) | (w >> 8 & 0x7f) << 7;
    }
    if w & 0x80_0000 == 0 {
        *pos = p + 3;
        return (w & 0x7f) | (w >> 8 & 0x7f) << 7 | (w >> 16 & 0x7f) << 14;
    }
    if w & 0x8000_0000 == 0 {
        *pos = p + 4;
        return (w & 0x7f) | (w >> 8 & 0x7f) << 7 | (w >> 16 & 0x7f) << 14 | (w >> 24 & 0x7f) << 21;
    }
    varint_tail(data, pos)
}

/// ≥ 5-byte varints (distances near [`INF`]): the byte-loop continuation
/// of [`read_varint`], out of line to keep the common path small.
#[cold]
fn varint_tail(data: &[u8], pos: &mut usize) -> u64 {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let b = data[*pos];
        *pos += 1;
        x |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return x;
        }
        shift += 7;
    }
}

/// Read a `u32` at byte offset `off` (unaligned-safe).
#[inline]
pub(crate) fn u32_at(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

/// Lane bit width for a block whose largest value is `max`: the minimal
/// bit count, except 58..=63 round up to 64 so that any value extraction
/// stays within one unaligned 8-byte load (`shift ≤ 7` requires
/// `width ≤ 57`; width 64 is byte-aligned, so its shift is always 0).
#[inline]
fn lane_width(max: u64) -> usize {
    let b = 64 - max.leading_zeros() as usize;
    if b > 57 {
        64
    } else {
        b
    }
}

/// Serialized byte length of a lane of `count` values at `w` bits each.
#[inline]
fn lane_bytes(count: usize, w: usize) -> usize {
    (count * w).div_ceil(8)
}

/// A lane bit width read back from a block header is valid iff the
/// encoder could have produced it (see [`lane_width`]).
#[inline]
fn valid_width(w: usize) -> bool {
    w <= 57 || w == 64
}

/// Append `vals` as a `w`-bit packed little-endian lane.
fn push_bits(out: &mut Vec<u8>, vals: &[u64], w: usize) {
    if w == 0 {
        return;
    }
    if w == 64 {
        for &v in vals {
            out.extend_from_slice(&v.to_le_bytes());
        }
        return;
    }
    let (mut acc, mut n) = (0u64, 0usize);
    for &v in vals {
        debug_assert!(w == 64 || v < 1u64 << w);
        acc |= v << n;
        n += w;
        while n >= 8 {
            out.push(acc as u8);
            acc >>= 8;
            n -= 8;
        }
    }
    if n > 0 {
        out.push(acc as u8);
    }
}

/// Load 8 little-endian bytes at `pos` (zero-padded past the stream
/// tail). One unaligned load in the common case.
#[inline]
fn load_word(data: &[u8], pos: usize) -> u64 {
    if pos + 8 <= data.len() {
        // SAFETY: bounds just checked; unaligned u64 loads are valid for
        // any byte pointer. (The branchless slice form costs a visible
        // fraction of the decode hot path at 1M-node store scale.)
        u64::from_le(unsafe { data.as_ptr().add(pos).cast::<u64>().read_unaligned() })
    } else {
        let mut tail = [0u8; 8];
        tail[..data.len() - pos].copy_from_slice(&data[pos..]);
        u64::from_le_bytes(tail)
    }
}

/// Value `j` of a `w`-bit lane starting at byte `base` (1 ≤ `w` ≤ 57 or
/// `w` = 64). The bit address is pure arithmetic, so consecutive
/// extractions are independent loads the CPU can overlap.
#[inline]
fn extract(data: &[u8], base: usize, j: usize, w: usize) -> u64 {
    if w == 64 {
        return load_word(data, base + 8 * j);
    }
    let bit = j * w;
    let word = load_word(data, base + (bit >> 3));
    (word >> (bit & 7)) & ((1u64 << w) - 1)
}

/// One node-range shard in the packed layout: a view over one contiguous
/// segment, either heap-built or a window of a mapped store file.
#[derive(Debug)]
pub(crate) struct PackedShard {
    nodes: usize,
    entries: usize,
    blocks: usize,
    data_len: usize,
    /// The backing bytes (owned buffer or shared file map).
    buf: Arc<Storage>,
    /// Segment start within `buf`.
    seg: usize,
}

impl PackedShard {
    /// Encode `rows` (the per-node sorted entry lists of nodes
    /// `base..base + rows.len()`) into a fresh heap-backed segment.
    ///
    /// Typed failures instead of silent corruption (the store-invariant
    /// sweep this layout rides in on):
    /// * more than `u32::MAX` entries or body bytes in one shard —
    ///   [`ServeError::ShardTooLarge`] (the flat builder's CSR offsets
    ///   have the same checked bound);
    /// * a row whose hubs are not strictly ascending —
    ///   [`ServeError::UnsortedNodeEntries`] (the delta coding would
    ///   otherwise wrap and decode wrong distances).
    pub(crate) fn pack(
        shard_index: usize,
        base: u32,
        rows: &[Vec<(u32, Dist, Dist)>],
    ) -> Result<PackedShard, ServeError> {
        let mut row_entries: Vec<u32> = vec![0];
        let mut row_blocks: Vec<u32> = vec![0];
        let mut blk_first: Vec<u32> = Vec::new();
        let mut blk_start: Vec<u32> = Vec::new();
        let mut data: Vec<u8> = Vec::new();
        // Per-block lane scratch (pre-width values), reused across blocks.
        let (mut lane_h, mut lane_d, mut lane_f) =
            (Vec::<u64>::new(), Vec::<u64>::new(), Vec::<u64>::new());
        let mut entries_total = 0usize;
        for (local, row) in rows.iter().enumerate() {
            for (bi, block) in row.chunks(BLOCK).enumerate() {
                lane_h.clear();
                lane_d.clear();
                lane_f.clear();
                let mut prev_hub = 0u32;
                for (i, &(hub, to, from)) in block.iter().enumerate() {
                    if i == 0 {
                        blk_first.push(hub);
                    } else {
                        if hub <= prev_hub {
                            return Err(ServeError::UnsortedNodeEntries {
                                node: base + local as u32,
                            });
                        }
                        lane_h.push(u64::from(hub - prev_hub - 1));
                        lane_d.push(fold_delta(to, prev_dto(&block[i - 1])));
                    }
                    lane_f.push(fold_delta(from, to));
                    prev_hub = hub;
                }
                // Cross-block sortedness: the previous block's last hub
                // must sit below this block's first.
                if bi > 0 && block[0].0 <= row[bi * BLOCK - 1].0 {
                    return Err(ServeError::UnsortedNodeEntries {
                        node: base + local as u32,
                    });
                }
                let start = u32::try_from(data.len()).map_err(|_| ServeError::ShardTooLarge {
                    shard: shard_index,
                    entries: entries_total,
                    bytes: data.len(),
                })?;
                blk_start.push(start);
                let max = |v: &[u64]| v.iter().copied().max().unwrap_or(0);
                let bh = lane_width(max(&lane_h));
                let bd = lane_width(max(&lane_d));
                let bf = lane_width(max(&lane_f));
                data.push(bh as u8);
                data.push(bd as u8);
                data.push(bf as u8);
                push_varint(&mut data, block[0].1);
                push_bits(&mut data, &lane_h, bh);
                push_bits(&mut data, &lane_d, bd);
                push_bits(&mut data, &lane_f, bf);
            }
            entries_total += row.len();
            let e = u32::try_from(entries_total).map_err(|_| ServeError::ShardTooLarge {
                shard: shard_index,
                entries: entries_total,
                bytes: data.len(),
            })?;
            row_entries.push(e);
            row_blocks.push(blk_first.len() as u32);
        }
        let data_len = u32::try_from(data.len()).map_err(|_| ServeError::ShardTooLarge {
            shard: shard_index,
            entries: entries_total,
            bytes: data.len(),
        })?;

        let nodes = row_entries.len() - 1;
        let blocks = blk_first.len();
        let mut buf =
            Vec::with_capacity(SEG_HEADER + 4 * (2 * (nodes + 1) + 2 * blocks) + data.len());
        buf.extend_from_slice(&(nodes as u32).to_le_bytes());
        buf.extend_from_slice(&(entries_total as u32).to_le_bytes());
        buf.extend_from_slice(&(blocks as u32).to_le_bytes());
        buf.extend_from_slice(&data_len.to_le_bytes());
        for v in row_entries
            .iter()
            .chain(&row_blocks)
            .chain(&blk_first)
            .chain(&blk_start)
        {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf.extend_from_slice(&data);
        Ok(PackedShard {
            nodes,
            entries: entries_total,
            blocks,
            data_len: data.len(),
            buf: Arc::new(Storage::Heap(buf)),
            seg: 0,
        })
    }

    /// View a serialized segment at `buf[seg..]` (e.g. inside a mapped
    /// store file) without copying. [`validate`](Self::validate) must pass
    /// before the shard serves queries.
    pub(crate) fn from_segment(buf: Arc<Storage>, seg: usize) -> Result<PackedShard, ServeError> {
        let bytes = buf.as_slice();
        if seg + SEG_HEADER > bytes.len() {
            return Err(ServeError::CorruptSegment {
                what: "segment header past end of buffer",
            });
        }
        let nodes = u32_at(bytes, seg) as usize;
        let entries = u32_at(bytes, seg + 4) as usize;
        let blocks = u32_at(bytes, seg + 8) as usize;
        let data_len = u32_at(bytes, seg + 12) as usize;
        let shard = PackedShard {
            nodes,
            entries,
            blocks,
            data_len,
            buf: Arc::clone(&buf),
            seg,
        };
        if shard.seg_len() > bytes.len() - seg {
            return Err(ServeError::CorruptSegment {
                what: "segment sections past end of buffer",
            });
        }
        Ok(shard)
    }

    /// Total serialized length of this segment in bytes.
    pub(crate) fn seg_len(&self) -> usize {
        SEG_HEADER + 4 * (2 * (self.nodes + 1) + 2 * self.blocks) + self.data_len
    }

    /// The segment's raw bytes (exactly what [`crate::file`] writes).
    pub(crate) fn seg_bytes(&self) -> &[u8] {
        &self.buf.as_slice()[self.seg..self.seg + self.seg_len()]
    }

    /// Rows in this shard.
    pub(crate) fn nodes(&self) -> usize {
        self.nodes
    }

    /// Total entries in this shard.
    pub(crate) fn entries(&self) -> usize {
        self.entries
    }

    #[inline]
    fn row_entries_off(&self) -> usize {
        self.seg + SEG_HEADER
    }

    #[inline]
    fn row_blocks_off(&self) -> usize {
        self.row_entries_off() + 4 * (self.nodes + 1)
    }

    #[inline]
    fn blk_first_off(&self) -> usize {
        self.row_blocks_off() + 4 * (self.nodes + 1)
    }

    #[inline]
    fn blk_start_off(&self) -> usize {
        self.blk_first_off() + 4 * self.blocks
    }

    #[inline]
    fn data_off(&self) -> usize {
        self.blk_start_off() + 4 * self.blocks
    }

    /// The decode view of one local row.
    #[inline]
    pub(crate) fn row(&self, local: usize) -> PackedRow<'_> {
        let bytes = self.buf.as_slice();
        let e0 = u32_at(bytes, self.row_entries_off() + 4 * local) as usize;
        let e1 = u32_at(bytes, self.row_entries_off() + 4 * (local + 1)) as usize;
        let b0 = u32_at(bytes, self.row_blocks_off() + 4 * local) as usize;
        let b1 = u32_at(bytes, self.row_blocks_off() + 4 * (local + 1)) as usize;
        PackedRow {
            blk_first: &bytes[self.blk_first_off() + 4 * b0..self.blk_first_off() + 4 * b1],
            blk_start: &bytes[self.blk_start_off() + 4 * b0..self.blk_start_off() + 4 * b1],
            data: &bytes[self.data_off()..self.data_off() + self.data_len],
            entries: e1 - e0,
        }
    }

    /// Entries of local row `local`.
    pub(crate) fn row_len(&self, local: usize) -> usize {
        self.row(local).entries
    }

    /// Decode one row back into materialized entries (tests, layout
    /// conversion, and the mixed-layout fallback; not the query hot path).
    pub(crate) fn row_entries(&self, local: usize) -> Vec<(u32, Dist, Dist)> {
        let row = self.row(local);
        let mut out = Vec::with_capacity(row.entries);
        if let Some(mut c) = Cursor::start(&row) {
            loop {
                out.push((c.hub, c.dto, c.dfrom));
                if !c.advance(&row) {
                    break;
                }
            }
        }
        out
    }

    /// Full structural validation of the segment: section bounds, CSR
    /// monotonicity, block arithmetic, body-stream termination, and hub
    /// sortedness — everything the panic-free hot path assumes. Run once
    /// at `open_mmap` time so a corrupt or truncated file is a typed error
    /// at open, never a wrong answer (or index panic) at query time.
    ///
    /// Unlike [`Cursor`] (which serves *validated* data with plain
    /// indexing), this sweep decodes with bounds- and overflow-checked
    /// reads so arbitrary bytes cannot panic it.
    pub(crate) fn validate(&self) -> Result<(), ServeError> {
        let corrupt = |what| ServeError::CorruptSegment { what };
        let bytes = self.buf.as_slice();
        if self.seg + self.seg_len() > bytes.len() {
            return Err(corrupt("segment sections past end of buffer"));
        }
        let re = |i| u32_at(bytes, self.row_entries_off() + 4 * i) as usize;
        let rb = |i| u32_at(bytes, self.row_blocks_off() + 4 * i) as usize;
        if re(self.nodes) != self.entries || re(0) != 0 {
            return Err(corrupt("row_entries CSR does not sum to entry count"));
        }
        if rb(self.nodes) != self.blocks || rb(0) != 0 {
            return Err(corrupt("row_blocks CSR does not sum to block count"));
        }
        let data = &bytes[self.data_off()..self.data_off() + self.data_len];
        for local in 0..self.nodes {
            let (e0, e1) = (re(local), re(local + 1));
            let (b0, b1) = (rb(local), rb(local + 1));
            if e1 < e0 || e1 > self.entries || b1 < b0 || b1 > self.blocks {
                return Err(corrupt("row CSR not monotone"));
            }
            if b1 - b0 != (e1 - e0).div_ceil(BLOCK) {
                return Err(corrupt("row block count inconsistent with entry count"));
            }
            let mut prev_hub: Option<u32> = None;
            for (bi, b) in (b0..b1).enumerate() {
                let blen = ((e1 - e0) - bi * BLOCK).min(BLOCK);
                let first = u32_at(bytes, self.blk_first_off() + 4 * b);
                if prev_hub.is_some_and(|p| p >= first) {
                    return Err(corrupt("row hubs not strictly ascending across blocks"));
                }
                let start = u32_at(bytes, self.blk_start_off() + 4 * b) as usize;
                if start + 3 > data.len() {
                    return Err(corrupt("block width bytes past end of body"));
                }
                let (bh, bd, bf) = (
                    data[start] as usize,
                    data[start + 1] as usize,
                    data[start + 2] as usize,
                );
                if !valid_width(bh) || !valid_width(bd) || !valid_width(bf) {
                    return Err(corrupt("invalid lane bit width"));
                }
                let mut p = start + 3;
                // dto_0 varint (every u64 is a valid distance bit pattern,
                // so only termination matters for the distance lanes).
                checked_varint(data, &mut p).ok_or(corrupt("block stream truncated"))?;
                // Bit-packed lanes: one bound check covers every load.
                let lanes =
                    lane_bytes(blen - 1, bh) + lane_bytes(blen - 1, bd) + lane_bytes(blen, bf);
                if p + lanes > data.len() {
                    return Err(corrupt("block lanes past end of body"));
                }
                let mut hub = u64::from(first);
                for j in 0..blen - 1 {
                    let gap = if bh == 0 { 0 } else { extract(data, p, j, bh) };
                    hub = hub
                        .checked_add(gap)
                        .and_then(|h| h.checked_add(1))
                        .filter(|&h| h <= u64::from(u32::MAX))
                        .ok_or(corrupt("hub gap overflows u32"))?;
                    // In-block ascent is structural (gap + 1 ≥ 1).
                }
                prev_hub = Some(hub as u32);
            }
        }
        Ok(())
    }
}

/// Bounds- and shift-checked LEB128 read for [`PackedShard::validate`]:
/// `None` on a stream that runs out of bytes or a varint longer than a
/// `u64` can hold.
fn checked_varint(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *data.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        x |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return Some(x);
        }
        shift += 7;
    }
}

/// Borrowed decode view of one packed row.
pub(crate) struct PackedRow<'a> {
    /// Skip header: first hub of each of the row's blocks.
    blk_first: &'a [u8],
    /// Skip header: body byte offset of each of the row's blocks.
    blk_start: &'a [u8],
    /// The shard's whole body stream (`blk_start` values index into it).
    data: &'a [u8],
    /// Entry count of the row.
    entries: usize,
}

impl PackedRow<'_> {
    #[inline]
    fn block_count(&self) -> usize {
        self.blk_first.len() / 4
    }

    #[inline]
    fn first_hub(&self, b: usize) -> u32 {
        u32_at(self.blk_first, 4 * b)
    }

    #[inline]
    fn start(&self, b: usize) -> usize {
        u32_at(self.blk_start, 4 * b) as usize
    }

    /// Entries in block `b` (all blocks hold [`BLOCK`] except the last).
    #[inline]
    fn block_len(&self, b: usize) -> usize {
        (self.entries - b * BLOCK).min(BLOCK)
    }
}

/// A streaming decoder positioned on one entry of a packed row.
struct Cursor {
    /// Current block index within the row.
    blk: usize,
    /// Lane bit widths of the current block.
    bh: usize,
    bd: usize,
    bf: usize,
    /// Byte offsets of the current block's H / D / F lanes.
    hbase: usize,
    dbase: usize,
    fbase: usize,
    /// Index of the current entry within its block.
    idx: usize,
    /// Entries still undecoded in the current block.
    rem_in_blk: usize,
    /// Current entry.
    hub: u32,
    dto: Dist,
    dfrom: Dist,
}

impl Cursor {
    /// Position on the row's first entry (`None` for an empty row).
    #[inline]
    fn start(row: &PackedRow<'_>) -> Option<Cursor> {
        (row.entries > 0).then(|| {
            let mut c = Cursor {
                blk: 0,
                bh: 0,
                bd: 0,
                bf: 0,
                hbase: 0,
                dbase: 0,
                fbase: 0,
                idx: 0,
                rem_in_blk: 0,
                hub: 0,
                dto: 0,
                dfrom: 0,
            };
            c.enter_block(row, 0);
            c
        })
    }

    /// Jump to block `b` and decode its first entry.
    #[inline]
    fn enter_block(&mut self, row: &PackedRow<'_>, b: usize) {
        self.blk = b;
        let start = row.start(b);
        let blen = row.block_len(b);
        let data = row.data;
        let (bh, bd, bf) = (
            data[start] as usize,
            data[start + 1] as usize,
            data[start + 2] as usize,
        );
        let mut p = start + 3;
        self.hub = row.first_hub(b);
        self.dto = read_varint(data, &mut p);
        (self.bh, self.bd, self.bf) = (bh, bd, bf);
        self.hbase = p;
        self.dbase = p + lane_bytes(blen - 1, bh);
        self.fbase = self.dbase + lane_bytes(blen - 1, bd);
        self.dfrom = if bf == 0 {
            self.dto
        } else {
            apply_delta(self.dto, extract(data, self.fbase, 0, bf))
        };
        self.idx = 0;
        self.rem_in_blk = blen - 1;
    }

    /// Step to the next entry; `false` once the row is exhausted.
    #[inline]
    fn advance(&mut self, row: &PackedRow<'_>) -> bool {
        if self.rem_in_blk == 0 {
            if self.blk + 1 >= row.block_count() {
                return false;
            }
            self.enter_block(row, self.blk + 1);
            return true;
        }
        let i = self.idx;
        self.idx = i + 1;
        let gap = if self.bh == 0 {
            0
        } else {
            extract(row.data, self.hbase, i, self.bh)
        };
        self.hub = self.hub + gap as u32 + 1;
        if self.bd != 0 {
            self.dto = apply_delta(self.dto, extract(row.data, self.dbase, i, self.bd));
        }
        self.dfrom = if self.bf == 0 {
            self.dto
        } else {
            apply_delta(self.dto, extract(row.data, self.fbase, i + 1, self.bf))
        };
        self.rem_in_blk -= 1;
        true
    }

    /// Position on the first entry with `hub >= key`: skip whole blocks
    /// through the skip headers (binary search — the packed counterpart of
    /// the flat decoder's gallop), then linear-decode inside the landing
    /// block. `false` once the row is exhausted below `key`.
    #[inline]
    fn seek(&mut self, row: &PackedRow<'_>, key: u32) -> bool {
        if self.hub >= key {
            return true;
        }
        // Last block (after the current one) whose first hub is <= key:
        // everything before it is provably < key, so jump straight there.
        if self.blk + 1 < row.block_count() && row.first_hub(self.blk + 1) <= key {
            let (mut lo, mut hi) = (self.blk + 1, row.block_count());
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if row.first_hub(mid) <= key {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            self.enter_block(row, lo);
            if self.hub >= key {
                return true;
            }
        }
        // In-block linear scan over packed bytes.
        loop {
            if !self.advance(row) {
                return false;
            }
            if self.hub >= key {
                return true;
            }
            // A block boundary crossed by `advance` may land below `key`
            // again only within the final candidate block, so the scan
            // stays bounded by one block plus the headers skipped above.
        }
    }
}

/// `dto` of an already-encoded entry (tiny helper to keep [`pack`]'s
/// delta chain readable).
#[inline]
fn prev_dto(e: &(u32, Dist, Dist)) -> Dist {
    e.1
}

/// Merge-join two packed rows: `a`'s forward lane meets `b`'s backward
/// lane — `min over common hubs of dto_a + dfrom_b`, bit-identical to
/// [`distlabel::decode_entries`] on the materialized rows. Early exits
/// mirror the flat decoder: empty rows answer [`INF`] immediately and a
/// running minimum of 0 cannot improve.
/// Rows at or below this many entries take the sequential fast path in
/// [`decode_packed`]: full-row decode into stack lanes + linear join.
/// Typical hub sets on corpus/bench instances sit well under it, and a
/// straight-line varint scan beats the cursor's skip machinery until rows
/// are long enough for whole-block skips to pay for themselves.
const SMALL_ROW: usize = 256;

/// Reused decoded lanes of one short packed row: hubs plus the one
/// distance lane the merge-join direction needs (`FWD` keeps `dto`, the
/// forward lane; `!FWD` keeps `dfrom`, the backward lane). Lives in a
/// thread-local scratch pair — zero-filling ~6 KB of fresh stack arrays
/// per query costs more than the decode itself.
struct SmallRow {
    hubs: [u32; SMALL_ROW],
    dist: [Dist; SMALL_ROW],
}

thread_local! {
    /// Per-thread decode scratch for [`decode_packed`]'s short-row path
    /// (one row per join side).
    static SCRATCH: std::cell::RefCell<Box<(SmallRow, SmallRow)>> =
        std::cell::RefCell::new(Box::new((SmallRow::new(), SmallRow::new())));
}

impl SmallRow {
    fn new() -> SmallRow {
        SmallRow {
            hubs: [0; SMALL_ROW],
            dist: [0; SMALL_ROW],
        }
    }

    /// Overwrite the first `row.entries` lanes slots from the packed
    /// bytes (earlier contents beyond that are stale and never read —
    /// [`join_small`] is bounded by the entry counts).
    #[inline]
    fn decode<const FWD: bool>(&mut self, row: &PackedRow<'_>) {
        let out = self;
        let data = row.data;
        let mut i0 = 0;
        for b in 0..row.block_count() {
            let blen = row.block_len(b);
            let start = row.start(b);
            let (bh, bd, bf) = (
                data[start] as usize,
                data[start + 1] as usize,
                data[start + 2] as usize,
            );
            let mut p = start + 3;
            let dto0 = read_varint(data, &mut p);
            let hbase = p;
            let dbase = hbase + lane_bytes(blen - 1, bh);
            let fbase = dbase + lane_bytes(blen - 1, bd);
            // One lane at a time: every value's bit address is known
            // upfront, so the loops below are pure independent loads plus
            // cheap running sums — no decode-length dependency chain.
            let mut hub = row.first_hub(b);
            out.hubs[i0] = hub;
            if bh == 0 {
                for j in 1..blen {
                    hub += 1;
                    out.hubs[i0 + j] = hub;
                }
            } else {
                for j in 1..blen {
                    hub += extract(data, hbase, j - 1, bh) as u32 + 1;
                    out.hubs[i0 + j] = hub;
                }
            }
            let mut dto = dto0;
            out.dist[i0] = dto;
            if bd == 0 {
                for j in 1..blen {
                    out.dist[i0 + j] = dto;
                }
            } else {
                for j in 1..blen {
                    dto = apply_delta(dto, extract(data, dbase, j - 1, bd));
                    out.dist[i0 + j] = dto;
                }
            }
            // The backward lane rewrites dist in place from the F deltas;
            // a forward row is done already (bf = 0 means dfrom = dto).
            if !FWD && bf != 0 {
                for j in 0..blen {
                    let d = out.dist[i0 + j];
                    out.dist[i0 + j] = apply_delta(d, extract(data, fbase, j, bf));
                }
            }
            i0 += blen;
        }
    }
}

/// Linear merge-join over two stack-decoded rows (`a` forward lane, `b`
/// backward lane).
#[inline]
fn join_small(a: &SmallRow, na: usize, b: &SmallRow, nb: usize) -> Dist {
    let (mut i, mut j) = (0, 0);
    let mut best = INF;
    while i < na && j < nb {
        let (ha, hb) = (a.hubs[i], b.hubs[j]);
        if ha < hb {
            i += 1;
        } else if ha > hb {
            j += 1;
        } else {
            best = best.min(dist_add(a.dist[i], b.dist[j]));
            if best == 0 {
                return 0;
            }
            i += 1;
            j += 1;
        }
    }
    best
}

#[inline]
pub(crate) fn decode_packed(a: &PackedRow<'_>, b: &PackedRow<'_>) -> Dist {
    if a.entries == 0 || b.entries == 0 {
        return INF;
    }
    if a.entries <= SMALL_ROW && b.entries <= SMALL_ROW {
        return SCRATCH.with(|s| {
            let mut s = s.borrow_mut();
            let (sa, sb) = &mut **s;
            sa.decode::<true>(a);
            sb.decode::<false>(b);
            join_small(sa, a.entries, sb, b.entries)
        });
    }
    let (Some(mut ca), Some(mut cb)) = (Cursor::start(a), Cursor::start(b)) else {
        return INF;
    };
    let mut best = INF;
    loop {
        match ca.hub.cmp(&cb.hub) {
            std::cmp::Ordering::Less => {
                if !ca.seek(a, cb.hub) {
                    break;
                }
            }
            std::cmp::Ordering::Greater => {
                if !cb.seek(b, ca.hub) {
                    break;
                }
            }
            std::cmp::Ordering::Equal => {
                best = best.min(dist_add(ca.dto, cb.dfrom));
                if best == 0 {
                    return 0;
                }
                if !ca.advance(a) || !cb.advance(b) {
                    break;
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pack_one(rows: Vec<Vec<(u32, Dist, Dist)>>) -> PackedShard {
        PackedShard::pack(0, 0, &rows).unwrap()
    }

    #[test]
    fn varint_and_zigzag_roundtrip() {
        for x in [0u64, 1, 127, 128, 300, u32::MAX as u64, INF, u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, x);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), x);
            assert_eq!(pos, buf.len());
        }
        for (a, b) in [
            (0u64, 0u64),
            (5, 9),
            (9, 5),
            (INF, 0),
            (0, INF),
            (u64::MAX, 1),
            (1, u64::MAX),
        ] {
            assert_eq!(apply_delta(b, fold_delta(a, b)), a, "({a}, {b})");
        }
    }

    /// Row shapes straddling every block boundary: 0, 1, BLOCK−1, BLOCK,
    /// BLOCK+1, and several blocks — each must decode back bit-identically.
    #[test]
    fn rows_roundtrip_across_block_boundaries() {
        let lens = [0usize, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7];
        let rows: Vec<Vec<(u32, Dist, Dist)>> = lens
            .iter()
            .map(|&len| {
                (0..len)
                    .map(|i| {
                        let i = i as u64;
                        (
                            (i * i + 3 * i) as u32, // superlinear gaps
                            i * 977 % 5000,
                            if i % 3 == 0 { i * 977 % 5000 } else { i + 1 },
                        )
                    })
                    .collect()
            })
            .collect();
        let shard = pack_one(rows.clone());
        assert_eq!(shard.nodes(), lens.len());
        assert_eq!(shard.entries(), lens.iter().sum::<usize>());
        for (local, want) in rows.iter().enumerate() {
            assert_eq!(&shard.row_entries(local), want, "row {local}");
        }
        shard.validate().unwrap();
    }

    #[test]
    fn extreme_distance_values_survive_packing() {
        // INF next to 0 produces the largest possible wrapping deltas.
        let rows = vec![vec![
            (0u32, INF, 0),
            (1, 0, INF),
            (2, u64::MAX, 0),
            (100, 0, u64::MAX),
        ]];
        let shard = pack_one(rows.clone());
        assert_eq!(shard.row_entries(0), rows[0]);
    }

    #[test]
    fn decode_matches_reference_merge_join() {
        // Seeded random rows of skewed lengths, decoded against
        // distlabel's reference decoder on the materialized entries.
        let mut state = 0x1234_5678_u64;
        let mut next = |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(13);
            (state >> 33) % m
        };
        for (la, lb) in [(0usize, 5usize), (5, 0), (1, 200), (200, 1), (90, 90)] {
            let mk = |len: usize, next: &mut dyn FnMut(u64) -> u64| {
                let mut hub = 0u32;
                (0..len)
                    .map(|_| {
                        hub += next(9) as u32 + 1;
                        (hub, next(1000), next(1000))
                    })
                    .collect::<Vec<_>>()
            };
            let (ra, rb) = (mk(la, &mut next), mk(lb, &mut next));
            let shard = pack_one(vec![ra.clone(), rb.clone()]);
            let want = distlabel::decode_entries(&ra, &rb);
            assert_eq!(decode_packed(&shard.row(0), &shard.row(1)), want);
            let want_rev = distlabel::decode_entries(&rb, &ra);
            assert_eq!(decode_packed(&shard.row(1), &shard.row(0)), want_rev);
        }
    }

    #[test]
    fn seek_skips_blocks_without_missing_hubs() {
        // A long row with hub gaps vs. singletons targeting block
        // interiors, boundaries, and gaps.
        let long: Vec<(u32, Dist, Dist)> = (0..5 * BLOCK as u32).map(|i| (3 * i, 7, 9)).collect();
        for probe in [
            0u32,
            1,
            3 * (BLOCK as u32) - 3,
            3 * (BLOCK as u32),
            3 * (BLOCK as u32) + 3,
            7 * (BLOCK as u32) + 2, // in a gap: no match
            3 * (5 * BLOCK as u32 - 1),
            3 * (5 * BLOCK as u32),
        ] {
            let single = vec![(probe, 100, 200)];
            let shard = pack_one(vec![long.clone(), single.clone()]);
            let want = distlabel::decode_entries(&long, &single);
            assert_eq!(
                decode_packed(&shard.row(0), &shard.row(1)),
                want,
                "probe {probe}"
            );
        }
    }

    #[test]
    fn unsorted_rows_are_typed_errors() {
        let rows = vec![Vec::new(), vec![(5u32, 1, 1), (5, 2, 2)]];
        assert_eq!(
            PackedShard::pack(3, 10, &rows).map(|_| ()).unwrap_err(),
            ServeError::UnsortedNodeEntries { node: 11 }
        );
        let rows = vec![vec![(9u32, 1, 1), (2, 2, 2)]];
        assert!(matches!(
            PackedShard::pack(0, 0, &rows),
            Err(ServeError::UnsortedNodeEntries { node: 0 })
        ));
    }

    #[test]
    fn validation_rejects_corrupt_segments() {
        let shard = pack_one(vec![vec![(1, 2, 3), (5, 8, 8)]]);
        let mut bytes = shard.seg_bytes().to_vec();
        // Truncate: sections run past the buffer.
        let truncated = Arc::new(Storage::Heap(bytes[..bytes.len() - 1].to_vec()));
        match PackedShard::from_segment(truncated, 0) {
            Err(ServeError::CorruptSegment { .. }) => {}
            Ok(s) => assert!(matches!(
                s.validate(),
                Err(ServeError::CorruptSegment { .. })
            )),
            Err(e) => panic!("unexpected error {e:?}"),
        }
        // Corrupt the entry count: CSR no longer sums.
        bytes[4] = 0xEE;
        let corrupt = Arc::new(Storage::Heap(bytes));
        match PackedShard::from_segment(corrupt, 0) {
            Err(ServeError::CorruptSegment { .. }) => {}
            Ok(s) => assert!(matches!(
                s.validate(),
                Err(ServeError::CorruptSegment { .. })
            )),
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }
}
