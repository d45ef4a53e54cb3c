//! The compacted label store: per-node distance-label entries sharded by
//! node-id range, in one of two physical layouts.
//!
//! ## Layouts
//!
//! [`distlabel::Label`] keeps one heap `Vec` per node — fine for
//! construction, hostile to query serving (pointer chase per lookup,
//! allocator-scattered entries). [`StoreBuilder`] compacts the per-node
//! entry lists into per-shard arenas; [`StoreLayout`] picks the physical
//! form:
//!
//! * [`StoreLayout::Flat`] — structure-of-arrays CSR, 20 bytes/entry:
//!
//!   ```text
//!   shard s  (nodes [base, base + shard_size))
//!     offsets : u32  × (nodes + 1)     CSR row starts
//!     hubs    : u32  × entries         global hub ids, sorted per node
//!     dto     : Dist × entries         d(node → hub)
//!     dfrom   : Dist × entries         d(hub → node)
//!   ```
//!
//!   The decoder scans only `hubs` until it finds an intersection, so the
//!   hot loop touches 4-byte lanes (16 hubs per cache line); distance
//!   lanes load on matches only. Fastest per query, heaviest per node.
//!
//! * [`StoreLayout::Packed`] — delta-coded bit-packed streams in 64-entry
//!   blocks with per-block skip headers (see `packed.rs` for the exact
//!   format), typically 4–5x smaller. The merge-join becomes
//!   block-skip over the headers + in-block linear decode. Slightly
//!   slower per cold decode; the layout of choice once store bytes —
//!   not decode cycles — bound scale, and the only layout served
//!   zero-copy from an mmapped store file ([`crate::file`]).
//!
//! Either way, hub ids are **global** vertex ids (mapped through each
//! component's `old_of`), which makes cross-component intersections empty
//! by construction — a cross pair decodes to [`INF`], matching the
//! oracle's semantics for unreachable pairs — and lets the store
//! additionally keep a component map for an O(1) early exit.
//!
//! ## Row patches
//!
//! An update changes a handful of labels, so [`LabelStore::rebuilt`] does
//! not recompact the shards that hold them. Each shard is an `Arc`-shared
//! base arena plus an optional *row patch*: the replaced rows, each a
//! one-row segment in the store's layout, sorted by local row id. A lookup
//! binary-searches the patch only when the shard has one, then decodes
//! with the same kernels. Once a shard's patched entries would pass 1/8 of
//! its base entries it is recompacted whole, which bounds the stale base
//! rows kept alive and the patch search. The store file folds patches
//! back in, so `LWLSTOR1` keeps one segment per shard.

use crate::error::ServeError;
use crate::packed::{decode_packed, PackedShard};
use distlabel::Label;
use std::sync::Arc;
use twgraph::{dist_add, Dist, INF};

const UNASSIGNED: u32 = u32::MAX;

/// Bytes per entry in the flat layout (one `u32` hub + two `u64` lanes).
const FLAT_ENTRY_BYTES: usize = 20;

/// The physical shard format a store compacts into.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum StoreLayout {
    /// Flat CSR structure-of-arrays: fastest decode, 20 bytes/entry.
    #[default]
    Flat,
    /// Delta/varint block-packed streams: ~4–5x smaller, mmap-servable.
    Packed,
}

/// Guarded CSR offset: a shard whose entry count no longer fits the `u32`
/// offset lane is a typed error, never an `as u32` truncation that would
/// silently corrupt every subsequent row.
pub(crate) fn checked_offset(shard: usize, entries: usize) -> Result<u32, ServeError> {
    u32::try_from(entries).map_err(|_| ServeError::ShardTooLarge {
        shard,
        entries,
        bytes: entries.saturating_mul(FLAT_ENTRY_BYTES),
    })
}

/// Distinct component ids in a component map. [`LabelStore::rebuilt`] used
/// to report `max + 1`, overcounting once update-driven splits and merges
/// leave the id space non-dense (a merge that retires id 1 of {0, 1, 2}
/// leaves 2 components, not 3).
pub(crate) fn distinct_components(comp_of: &[u32]) -> usize {
    let Some(&max) = comp_of.iter().max() else {
        return 0;
    };
    // Dense-ish id spaces (the common case: ids were once 0..k) count via
    // a bitset; a pathologically sparse space falls back to sort-dedup.
    if (max as usize) < comp_of.len().saturating_mul(4).max(1024) {
        let mut seen = vec![false; max as usize + 1];
        let mut count = 0usize;
        for &c in comp_of {
            if !seen[c as usize] {
                seen[c as usize] = true;
                count += 1;
            }
        }
        count
    } else {
        let mut ids = comp_of.to_vec();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }
}

/// Accumulates per-component label sets, then compacts them into a
/// [`LabelStore`]. Components must partition the global vertex space
/// `0..n`; every violation is a typed [`ServeError`].
pub struct StoreBuilder {
    n: usize,
    comp_of: Vec<u32>,
    entries: Vec<Vec<(u32, Dist, Dist)>>,
    comps: u32,
}

impl StoreBuilder {
    /// Builder over the global vertex space `0..n`.
    pub fn new(n: usize) -> Self {
        StoreBuilder {
            n,
            comp_of: vec![UNASSIGNED; n],
            entries: vec![Vec::new(); n],
            comps: 0,
        }
    }

    /// Register one connected component: `labels[i]` is the label of the
    /// component-local vertex `i`, and `old_of[i]` its global id (sorted
    /// strictly ascending, as produced by component splitting — the
    /// monotone map is what keeps per-node hub lists sorted, and an
    /// unsorted map is rejected as
    /// [`ServeError::UnsortedComponentMap`] in every build profile).
    pub fn add_component(&mut self, labels: &[Label], old_of: &[u32]) -> Result<(), ServeError> {
        if labels.len() != old_of.len() {
            return Err(ServeError::ComponentShapeMismatch {
                labels: labels.len(),
                nodes: old_of.len(),
            });
        }
        if let Some(i) = old_of.windows(2).position(|w| w[0] >= w[1]) {
            return Err(ServeError::UnsortedComponentMap {
                index: i,
                prev: old_of[i],
                next: old_of[i + 1],
            });
        }
        let comp = self.comps;
        for (label, &global) in labels.iter().zip(old_of) {
            let slot = self
                .comp_of
                .get_mut(global as usize)
                .ok_or(ServeError::UnknownNode {
                    node: global,
                    n: self.n,
                })?;
            if *slot != UNASSIGNED {
                return Err(ServeError::DuplicateNode { node: global });
            }
            *slot = comp;
            let mapped: Result<Vec<(u32, Dist, Dist)>, ServeError> = label
                .entries
                .iter()
                .map(|&(hub, to, from)| {
                    old_of.get(hub as usize).map(|&gh| (gh, to, from)).ok_or(
                        ServeError::HubOutOfRange {
                            hub,
                            comp_n: old_of.len(),
                        },
                    )
                })
                .collect();
            self.entries[global as usize] = mapped?;
        }
        self.comps += 1;
        Ok(())
    }

    /// Register an isolated vertex as its own component: the synthesized
    /// label holds only the self-hub at distance 0, so `v → v` decodes to
    /// 0 and every other pair through `v` to [`INF`].
    pub fn add_singleton(&mut self, v: u32) -> Result<(), ServeError> {
        let slot = self
            .comp_of
            .get_mut(v as usize)
            .ok_or(ServeError::UnknownNode { node: v, n: self.n })?;
        if *slot != UNASSIGNED {
            return Err(ServeError::DuplicateNode { node: v });
        }
        *slot = self.comps;
        self.comps += 1;
        self.entries[v as usize] = vec![(v, 0, 0)];
        Ok(())
    }

    /// Compact into a flat-layout store (the historical default).
    pub fn build(self, shard_size: usize) -> Result<LabelStore, ServeError> {
        self.build_layout(shard_size, StoreLayout::Flat)
    }

    /// Compact into the sharded arena in the requested layout. Every
    /// vertex of `0..n` must have been covered by exactly one `add_*`
    /// call. Borrows the builder, so one accumulation can compact into
    /// both layouts (the differential suites do exactly that).
    pub fn build_layout(
        &self,
        shard_size: usize,
        layout: StoreLayout,
    ) -> Result<LabelStore, ServeError> {
        if let Some(v) = self.comp_of.iter().position(|&c| c == UNASSIGNED) {
            return Err(ServeError::UncoveredNode { node: v as u32 });
        }
        let shard_size = shard_size.max(1);
        let shard_count = self.n.div_ceil(shard_size).max(1);
        let mut shards = Vec::with_capacity(shard_count);
        let mut entries_total = 0usize;
        for s in 0..shard_count {
            let base = s * shard_size;
            let hi = ((s + 1) * shard_size).min(self.n);
            let shard = compact_shard(s, base as u32, &self.entries[base..hi], layout)?;
            entries_total += shard.entries();
            shards.push(Shard::unpatched(shard));
        }
        Ok(LabelStore {
            n: self.n,
            shard_size,
            comp_of: self.comp_of.clone(),
            shards,
            entries_total,
            components: self.comps as usize,
            layout,
        })
    }
}

/// Compact one shard's rows into the requested physical form.
fn compact_shard(
    index: usize,
    base: u32,
    rows: &[Vec<(u32, Dist, Dist)>],
    layout: StoreLayout,
) -> Result<ShardData, ServeError> {
    match layout {
        StoreLayout::Packed => Ok(ShardData::Packed(Arc::new(PackedShard::pack(
            index, base, rows,
        )?))),
        StoreLayout::Flat => {
            let total: usize = rows.iter().map(|r| r.len()).sum();
            let mut offsets = Vec::with_capacity(rows.len() + 1);
            let mut hubs = Vec::with_capacity(total);
            let mut dto = Vec::with_capacity(total);
            let mut dfrom = Vec::with_capacity(total);
            offsets.push(0u32);
            for row in rows {
                for &(hub, to, from) in row {
                    hubs.push(hub);
                    dto.push(to);
                    dfrom.push(from);
                }
                offsets.push(checked_offset(index, hubs.len())?);
            }
            Ok(ShardData::Flat(Arc::new(FlatShard {
                offsets,
                hubs,
                dto,
                dfrom,
            })))
        }
    }
}

/// One node-range shard's flat CSR arena.
#[derive(Debug)]
pub(crate) struct FlatShard {
    pub(crate) offsets: Vec<u32>,
    pub(crate) hubs: Vec<u32>,
    pub(crate) dto: Vec<Dist>,
    pub(crate) dfrom: Vec<Dist>,
}

/// One compacted arena in whichever layout the store uses: a shard's
/// base, or one patched row. `Arc`ed so an epoch-to-epoch rebuild
/// ([`LabelStore::rebuilt`]) shares it with its predecessor instead of
/// copying it.
#[derive(Clone, Debug)]
pub(crate) enum ShardData {
    /// Flat CSR lanes.
    Flat(Arc<FlatShard>),
    /// Delta/varint packed segment.
    Packed(Arc<PackedShard>),
}

impl ShardData {
    /// Label entries held by this shard.
    fn entries(&self) -> usize {
        match self {
            ShardData::Flat(s) => s.hubs.len(),
            ShardData::Packed(p) => p.entries(),
        }
    }

    /// Arena bytes of this shard (lanes + offsets for flat, the whole
    /// segment — headers included — for packed).
    fn bytes(&self) -> usize {
        match self {
            ShardData::Flat(s) => s.hubs.len() * FLAT_ENTRY_BYTES + s.offsets.len() * 4,
            ShardData::Packed(p) => p.seg_len(),
        }
    }

    /// Rows held by this arena.
    fn nodes(&self) -> usize {
        match self {
            ShardData::Flat(s) => s.offsets.len() - 1,
            ShardData::Packed(p) => p.nodes(),
        }
    }

    /// Entries of local row `local`.
    fn row_len(&self, local: usize) -> usize {
        match self {
            ShardData::Flat(s) => (s.offsets[local + 1] - s.offsets[local]) as usize,
            ShardData::Packed(p) => p.row_len(local),
        }
    }

    /// Same physical arena as `other`?
    fn ptr_eq(&self, other: &ShardData) -> bool {
        match (self, other) {
            (ShardData::Flat(a), ShardData::Flat(b)) => Arc::ptr_eq(a, b),
            (ShardData::Packed(a), ShardData::Packed(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Materialize one local row (mixed-layout fallback and tests only —
    /// the hot paths decode in place).
    fn row_vec(&self, local: usize) -> Vec<(u32, Dist, Dist)> {
        match self {
            ShardData::Flat(s) => {
                let (lo, hi) = (s.offsets[local] as usize, s.offsets[local + 1] as usize);
                (lo..hi)
                    .map(|i| (s.hubs[i], s.dto[i], s.dfrom[i]))
                    .collect()
            }
            ShardData::Packed(p) => p.row_entries(local),
        }
    }
}

/// Patched entries above `1 / FOLD_DENOMINATOR` of a shard's base entries
/// make [`LabelStore::rebuilt`] recompact the shard whole instead. This
/// bounds the stale base rows a patch keeps alive and the patch lookup.
const FOLD_DENOMINATOR: usize = 8;

/// Rows of one shard replaced since its base arena was compacted: each a
/// one-row segment in the store's layout, sorted by local row id.
#[derive(Debug)]
pub(crate) struct RowPatch {
    rows: Vec<u32>,
    segs: Vec<ShardData>,
    /// Label entries held by `segs`.
    entries: usize,
    /// Entries of the base rows that `rows` shadow.
    shadowed: usize,
}

/// One node-range shard: a base arena plus, once updates have replaced
/// some of its rows, a [`RowPatch`]. Both halves are `Arc`ed, so an epoch
/// shares with its predecessor whatever a publish did not touch.
#[derive(Clone, Debug)]
pub(crate) struct Shard {
    base: ShardData,
    patch: Option<Arc<RowPatch>>,
}

impl Shard {
    fn unpatched(base: ShardData) -> Shard {
        Shard { base, patch: None }
    }

    /// The segment and local row serving local row `local`: its patch
    /// version if it has one (a binary search, taken only by patched
    /// shards), else the base row.
    #[inline]
    fn row(&self, local: usize) -> (&ShardData, usize) {
        if let Some(p) = &self.patch {
            if let Ok(i) = p.rows.binary_search(&(local as u32)) {
                return (&p.segs[i], 0);
            }
        }
        (&self.base, local)
    }

    /// Label entries served by this shard (patched rows count their new
    /// version only).
    fn entries(&self) -> usize {
        let patch = self.patch.as_deref();
        self.base.entries() + patch.map_or(0, |p| p.entries) - patch.map_or(0, |p| p.shadowed)
    }

    /// Base arena bytes plus patch segments and row ids.
    fn bytes(&self) -> usize {
        self.base.bytes()
            + self.patch.as_deref().map_or(0, |p| {
                p.segs.iter().map(ShardData::bytes).sum::<usize>() + 4 * p.rows.len()
            })
    }

    /// Same base arena and same patch as `other`?
    fn ptr_eq(&self, other: &Shard) -> bool {
        self.base.ptr_eq(&other.base)
            && match (&self.patch, &other.patch) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
    }

    /// The shard as one arena with its patch folded in (what a store file
    /// persists).
    fn folded(
        &self,
        index: usize,
        base: u32,
        layout: StoreLayout,
    ) -> Result<ShardData, ServeError> {
        if self.patch.is_none() {
            return Ok(self.base.clone());
        }
        let rows: Vec<Vec<(u32, Dist, Dist)>> = (0..self.base.nodes())
            .map(|local| {
                let (seg, l) = self.row(local);
                seg.row_vec(l)
            })
            .collect();
        compact_shard(index, base, &rows, layout)
    }

    /// This shard (index `index`, global rows `lo..lo + nodes`) with the
    /// rows of `dirty` (sorted global ids inside it) replaced by
    /// `entries_of`. The new rows join the patch, superseding older
    /// versions, and only the patch's row pointers are copied; a patch
    /// that would pass the fold bound is dropped for a full recompaction.
    fn patched(
        &self,
        index: usize,
        lo: u32,
        dirty: &[u32],
        entries_of: &impl Fn(u32) -> Vec<(u32, Dist, Dist)>,
        layout: StoreLayout,
    ) -> Result<Shard, ServeError> {
        let fresh: Vec<Vec<(u32, Dist, Dist)>> = dirty.iter().map(|&v| entries_of(v)).collect();
        let mut rows: Vec<(u32, ShardData)> = Vec::new();
        if let Some(p) = &self.patch {
            rows.extend(
                p.rows
                    .iter()
                    .zip(&p.segs)
                    .filter(|(&r, _)| dirty.binary_search(&(lo + r)).is_err())
                    .map(|(&r, seg)| (r, seg.clone())),
            );
        }
        for (&v, row) in dirty.iter().zip(&fresh) {
            let seg = compact_shard(index, v, std::slice::from_ref(row), layout)?;
            rows.push((v - lo, seg));
        }
        rows.sort_unstable_by_key(|r| r.0);
        let entries: usize = rows.iter().map(|r| r.1.entries()).sum();
        if entries * FOLD_DENOMINATOR > self.base.entries() {
            let mut fresh = dirty.iter().zip(fresh).peekable();
            let all: Vec<Vec<(u32, Dist, Dist)>> = (lo..lo + self.base.nodes() as u32)
                .map(|v| match fresh.next_if(|&(&d, _)| d == v) {
                    Some((_, row)) => row,
                    None => entries_of(v),
                })
                .collect();
            return Ok(Shard::unpatched(compact_shard(index, lo, &all, layout)?));
        }
        let shadowed = rows.iter().map(|r| self.base.row_len(r.0 as usize)).sum();
        let (rows, segs) = rows.into_iter().unzip();
        Ok(Shard {
            base: self.base.clone(),
            patch: Some(Arc::new(RowPatch {
                rows,
                segs,
                entries,
                shadowed,
            })),
        })
    }
}

/// The compacted, sharded distance-label store. Immutable after build;
/// shared freely across query threads. Built in memory by
/// [`StoreBuilder`], or opened from a persisted store file by
/// [`LabelStore::open_mmap`].
#[derive(Debug)]
pub struct LabelStore {
    n: usize,
    shard_size: usize,
    comp_of: Vec<u32>,
    shards: Vec<Shard>,
    entries_total: usize,
    components: usize,
    layout: StoreLayout,
}

/// First index of `hubs` with value `>= key` (exponential search; mirrors
/// `distlabel`'s galloping decoder on the SoA hub lane).
fn gallop(hubs: &[u32], key: u32) -> usize {
    if hubs.is_empty() || hubs[0] >= key {
        return 0;
    }
    let mut hi = 1usize;
    while hi < hubs.len() && hubs[hi] < key {
        hi *= 2;
    }
    let lo = hi / 2;
    lo + hubs[lo..hubs.len().min(hi + 1)].partition_point(|&h| h < key)
}

impl LabelStore {
    /// Assemble a store from already-validated parts (the file-open path).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        n: usize,
        shard_size: usize,
        comp_of: Vec<u32>,
        shards: Vec<ShardData>,
        entries_total: usize,
        components: usize,
        layout: StoreLayout,
    ) -> LabelStore {
        LabelStore {
            n,
            shard_size,
            comp_of,
            shards: shards.into_iter().map(Shard::unpatched).collect(),
            entries_total,
            components,
            layout,
        }
    }

    /// Global vertex count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The physical layout the shards were compacted into.
    pub fn layout(&self) -> StoreLayout {
        self.layout
    }

    /// Number of node-range shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Nodes per shard (last shard may be partial).
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// Total label entries across all shards.
    pub fn entries(&self) -> usize {
        self.entries_total
    }

    /// Connected components registered at build time.
    pub fn components(&self) -> usize {
        self.components
    }

    /// Arena footprint in bytes: per-shard arenas (lanes + offsets for
    /// flat, whole segments for packed), row patches, and the component
    /// map.
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(Shard::bytes).sum::<usize>() + self.comp_of.len() * 4
    }

    /// Rows of shard `s` served from its row patch, i.e. replaced by
    /// [`rebuilt`](Self::rebuilt) since the shard was last compacted
    /// (0 for an out-of-range shard).
    pub fn patched_rows(&self, s: usize) -> usize {
        self.shards
            .get(s)
            .and_then(|sh| sh.patch.as_deref())
            .map_or(0, |p| p.rows.len())
    }

    /// Component id of `v`.
    pub fn comp_of(&self, v: u32) -> Result<u32, ServeError> {
        self.comp_of
            .get(v as usize)
            .copied()
            .ok_or(ServeError::UnknownNode { node: v, n: self.n })
    }

    /// The full component map (for persistence).
    pub(crate) fn comp_of_slice(&self) -> &[u32] {
        &self.comp_of
    }

    /// Each shard as one arena with its row patch folded in (for
    /// persistence, which keeps one segment per shard).
    pub(crate) fn folded_shards(&self) -> Result<Vec<ShardData>, ServeError> {
        self.shards
            .iter()
            .enumerate()
            .map(|(s, sh)| sh.folded(s, (s * self.shard_size) as u32, self.layout))
            .collect()
    }

    /// The shard index owning node `v` (valid ids only).
    pub fn shard_of(&self, v: u32) -> usize {
        v as usize / self.shard_size
    }

    /// `(hubs, d(v → hub), d(hub → v))` lanes of local row `local` in a
    /// flat arena.
    fn flat_lanes(shard: &FlatShard, local: usize) -> (&[u32], &[Dist], &[Dist]) {
        let (lo, hi) = (
            shard.offsets[local] as usize,
            shard.offsets[local + 1] as usize,
        );
        (
            &shard.hubs[lo..hi],
            &shard.dto[lo..hi],
            &shard.dfrom[lo..hi],
        )
    }

    /// Exact `d(s → t)` straight off the arena (no cache): the hub-
    /// intersection minimum — galloping merge-join on flat lanes,
    /// block-skip + in-block decode on packed segments — bit-identical to
    /// [`distlabel::decode`] on the uncompacted labels either way.
    pub fn distance(&self, s: u32, t: u32) -> Result<Dist, ServeError> {
        if s as usize >= self.n {
            return Err(ServeError::UnknownNode { node: s, n: self.n });
        }
        if t as usize >= self.n {
            return Err(ServeError::UnknownNode { node: t, n: self.n });
        }
        if self.comp_of[s as usize] != self.comp_of[t as usize] {
            return Ok(INF);
        }
        let ((sa, ls), (sb, lt)) = (self.row_of(s), self.row_of(t));
        match (sa, sb) {
            (ShardData::Flat(a), ShardData::Flat(b)) => {
                let (sh, sto, _) = Self::flat_lanes(a, ls);
                let (th, _, tfrom) = Self::flat_lanes(b, lt);
                Ok(decode_lanes(sh, sto, th, tfrom))
            }
            (ShardData::Packed(a), ShardData::Packed(b)) => {
                Ok(decode_packed(&a.row(ls), &b.row(lt)))
            }
            // A store never mixes layouts today; decode via materialized
            // rows so the answer stays exact if one ever does.
            (a, b) => Ok(distlabel::decode_entries(&a.row_vec(ls), &b.row_vec(lt))),
        }
    }

    /// The arena and local row serving valid vertex `v`.
    #[inline]
    fn row_of(&self, v: u32) -> (&ShardData, usize) {
        let s = self.shard_of(v);
        self.shards[s].row(v as usize - s * self.shard_size)
    }

    /// Both directions at once: `(d(s → t), d(t → s))`.
    pub fn distance_pair(&self, s: u32, t: u32) -> Result<(Dist, Dist), ServeError> {
        Ok((self.distance(s, t)?, self.distance(t, s)?))
    }

    /// How many shards `self` physically shares with `other` — the same
    /// base arena and the same row patch (`Arc` identity). The
    /// epoch-versioning tests pin that a partial rebuild copies only dirty
    /// shards.
    pub fn shards_shared_with(&self, other: &LabelStore) -> usize {
        self.shards
            .iter()
            .zip(&other.shards)
            .filter(|(a, b)| a.ptr_eq(b))
            .count()
    }

    /// The next epoch's store: the rows of `dirty` (strictly ascending
    /// global ids) take new entries from `entries_of` (global-hub entry
    /// list per vertex, sorted by hub) **in the store's own layout**, and
    /// every other row is shared with `self`. `entries_of` runs once per
    /// dirty vertex: its row joins the shard's row patch, and only the
    /// patch's row pointers are copied. A shard whose patched entries
    /// would pass 1/8 of its base entries is recompacted whole instead,
    /// which also runs `entries_of` for its clean rows. Shards with no
    /// dirty vertex share their arena and patch via `Arc`.
    ///
    /// `comp_of` is the updated component map — always replaced, since
    /// the INF early-exit must track the post-update component structure.
    /// The component count is the number of **distinct** ids in the new
    /// map (ids are non-dense after update-driven splits and merges).
    ///
    /// Typed errors, checked before anything is built: a `comp_of` of the
    /// wrong length, a `dirty` list that is not strictly ascending, and a
    /// dirty id outside `0..n`.
    pub fn rebuilt(
        &self,
        dirty: &[u32],
        comp_of: Vec<u32>,
        entries_of: impl Fn(u32) -> Vec<(u32, Dist, Dist)>,
    ) -> Result<LabelStore, ServeError> {
        if comp_of.len() != self.n {
            return Err(ServeError::ComponentMapLength {
                len: comp_of.len(),
                n: self.n,
            });
        }
        if let Some(i) = dirty.windows(2).position(|w| w[0] >= w[1]) {
            return Err(ServeError::UnsortedDirtyList { position: i + 1 });
        }
        if let Some(&v) = dirty.last().filter(|&&v| v as usize >= self.n) {
            return Err(ServeError::UnknownNode { node: v, n: self.n });
        }
        let mut shards = self.shards.clone();
        let mut rest = dirty;
        while let Some(&v) = rest.first() {
            let s = self.shard_of(v);
            let lo = s * self.shard_size;
            let (here, tail) =
                rest.split_at(rest.partition_point(|&u| (u as usize) < lo + self.shard_size));
            shards[s] = self.shards[s].patched(s, lo as u32, here, &entries_of, self.layout)?;
            rest = tail;
        }
        Ok(LabelStore {
            n: self.n,
            shard_size: self.shard_size,
            entries_total: shards.iter().map(Shard::entries).sum(),
            components: distinct_components(&comp_of),
            comp_of,
            shards,
            layout: self.layout,
        })
    }
}

/// Merge-join over two sorted hub lanes; `a`'s forward lane meets `b`'s
/// backward lane. Same early exits as `distlabel::decode_entries`.
fn decode_lanes(ah: &[u32], ato: &[Dist], bh: &[u32], bfrom: &[Dist]) -> Dist {
    if ah.is_empty() || bh.is_empty() || ah[ah.len() - 1] < bh[0] || bh[bh.len() - 1] < ah[0] {
        return INF;
    }
    let mut best = INF;
    let (mut i, mut j) = (0usize, 0usize);
    while i < ah.len() && j < bh.len() {
        match ah[i].cmp(&bh[j]) {
            std::cmp::Ordering::Less => i += gallop(&ah[i..], bh[j]),
            std::cmp::Ordering::Greater => j += gallop(&bh[j..], ah[i]),
            std::cmp::Ordering::Equal => {
                best = best.min(dist_add(ato[i], bfrom[j]));
                if best == 0 {
                    return 0;
                }
                i += 1;
                j += 1;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built two-component store: a 3-path {0,1,2} (unit weights,
    /// hubs = all three vertices for simplicity) and a singleton {3}.
    fn tiny_store_layout(shard_size: usize, layout: StoreLayout) -> LabelStore {
        let mut labels = Vec::new();
        let d = |a: i64, b: i64| (a - b).unsigned_abs();
        for v in 0..3i64 {
            let mut l = Label::new(v as u32);
            for h in 0..3i64 {
                l.merge(h as u32, d(v, h), d(h, v));
            }
            labels.push(l);
        }
        let mut b = StoreBuilder::new(4);
        b.add_component(&labels, &[0, 1, 2]).unwrap();
        b.add_singleton(3).unwrap();
        b.build_layout(shard_size, layout).unwrap()
    }

    fn tiny_store(shard_size: usize) -> LabelStore {
        tiny_store_layout(shard_size, StoreLayout::Flat)
    }

    #[test]
    fn distances_and_cross_component_inf() {
        for layout in [StoreLayout::Flat, StoreLayout::Packed] {
            for shard_size in [1, 2, 64] {
                let s = tiny_store_layout(shard_size, layout);
                assert_eq!(s.n(), 4);
                assert_eq!(s.layout(), layout);
                assert_eq!(s.components(), 2);
                assert_eq!(s.distance(0, 2).unwrap(), 2);
                assert_eq!(s.distance(2, 0).unwrap(), 2);
                assert_eq!(s.distance(1, 1).unwrap(), 0);
                assert_eq!(s.distance(3, 3).unwrap(), 0);
                assert_eq!(s.distance(0, 3).unwrap(), INF, "cross-component pair");
                assert_eq!(s.distance_pair(1, 2).unwrap(), (1, 1));
            }
        }
    }

    #[test]
    fn packed_store_is_smaller_and_answers_identically() {
        let flat = tiny_store_layout(2, StoreLayout::Flat);
        let packed = tiny_store_layout(2, StoreLayout::Packed);
        assert_eq!(flat.entries(), packed.entries());
        assert!(
            packed.bytes() < flat.bytes(),
            "packed {} vs flat {}",
            packed.bytes(),
            flat.bytes()
        );
        for s in 0..4 {
            for t in 0..4 {
                assert_eq!(flat.distance(s, t).unwrap(), packed.distance(s, t).unwrap());
            }
        }
    }

    #[test]
    fn unknown_node_is_typed() {
        let s = tiny_store(2);
        assert_eq!(
            s.distance(4, 0),
            Err(ServeError::UnknownNode { node: 4, n: 4 })
        );
        assert_eq!(
            s.distance(0, 9),
            Err(ServeError::UnknownNode { node: 9, n: 4 })
        );
        assert_eq!(s.comp_of(7), Err(ServeError::UnknownNode { node: 7, n: 4 }));
    }

    #[test]
    fn builder_rejects_partitioning_violations() {
        let mut b = StoreBuilder::new(2);
        b.add_singleton(0).unwrap();
        assert_eq!(
            b.add_singleton(0),
            Err(ServeError::DuplicateNode { node: 0 })
        );
        assert_eq!(
            b.build(4).map(|_| ()).unwrap_err(),
            ServeError::UncoveredNode { node: 1 }
        );

        let mut b = StoreBuilder::new(2);
        let mut bad = Label::new(0);
        bad.merge(5, 1, 1); // hub 5 outside a 1-vertex component
        assert_eq!(
            b.add_component(&[bad], &[0]),
            Err(ServeError::HubOutOfRange { hub: 5, comp_n: 1 })
        );
        assert_eq!(
            b.add_component(&[], &[1]),
            Err(ServeError::ComponentShapeMismatch {
                labels: 0,
                nodes: 1
            })
        );
    }

    /// Regression (issue 8): an unsorted `old_of` used to slip through
    /// release builds (`debug_assert!` only) and silently violate the
    /// sorted-hubs invariant the decoders rely on. It must be a typed
    /// error in *every* build profile — this test runs in the release CI
    /// suites too.
    #[test]
    fn unsorted_component_map_is_a_release_mode_error() {
        let labels: Vec<Label> = (0..3).map(Label::new).collect();
        let mut b = StoreBuilder::new(3);
        assert_eq!(
            b.add_component(&labels, &[0, 2, 1]),
            Err(ServeError::UnsortedComponentMap {
                index: 1,
                prev: 2,
                next: 1
            })
        );
        // Equal neighbours violate *strict* ascent too.
        let mut b = StoreBuilder::new(3);
        assert_eq!(
            b.add_component(&labels[..2], &[1, 1]),
            Err(ServeError::UnsortedComponentMap {
                index: 0,
                prev: 1,
                next: 1
            })
        );
        // The builder is still usable after the rejection.
        let mut b = StoreBuilder::new(1);
        b.add_singleton(0).unwrap();
        assert!(b.build(1).is_ok());
    }

    /// Regression (issue 8): CSR offsets were pushed with `as u32`; a
    /// shard past 2³² entries silently truncated. The checked conversion
    /// (which both layouts run through) must refuse with the coordinates.
    #[test]
    fn oversized_shard_is_a_typed_error_not_a_truncation() {
        assert_eq!(checked_offset(7, 1 << 20).unwrap(), 1 << 20);
        assert_eq!(checked_offset(0, u32::MAX as usize).unwrap(), u32::MAX);
        let too_big = u32::MAX as usize + 1;
        assert_eq!(
            checked_offset(3, too_big).unwrap_err(),
            ServeError::ShardTooLarge {
                shard: 3,
                entries: too_big,
                bytes: too_big * FLAT_ENTRY_BYTES,
            }
        );
    }

    #[test]
    fn sharding_covers_the_space_and_counts_bytes() {
        let s = tiny_store(3);
        assert_eq!(s.shard_count(), 2);
        assert_eq!(s.shard_of(2), 0);
        assert_eq!(s.shard_of(3), 1);
        assert_eq!(s.entries(), 3 * 3 + 1);
        assert!(s.bytes() >= s.entries() * 20);
    }

    #[test]
    fn rebuilt_shares_clean_shards_and_swaps_dirty_rows() {
        for layout in [StoreLayout::Flat, StoreLayout::Packed] {
            let s = tiny_store_layout(2, layout); // shards: {0,1}, {2,3}
                                                  // Dirty only vertex 3: shard 0 shared, shard 1 rebuilt.
            let comp_of: Vec<u32> = (0..4).map(|v| s.comp_of(v).unwrap()).collect();
            let r = s
                .rebuilt(&[3], comp_of, |v| {
                    assert!(v >= 2, "entries_of called for a clean-shard vertex");
                    if v == 3 {
                        vec![(3, 0, 0), (9, 7, 7)]
                    } else {
                        vec![(0, 2, 2), (1, 1, 1), (2, 0, 0)]
                    }
                })
                .unwrap();
            assert_eq!(r.layout(), layout, "rebuild must preserve the layout");
            assert_eq!(r.shards_shared_with(&s), 1);
            assert_eq!(r.distance(0, 2).unwrap(), s.distance(0, 2).unwrap());
            assert_eq!(r.entries(), s.entries() + 1);
            assert_eq!(r.components(), s.components());
            // The dirty row now carries the new entries.
            assert_eq!(r.distance(3, 3).unwrap(), 0);

            // Empty dirty list shares everything.
            let comp_of: Vec<u32> = (0..4).map(|v| s.comp_of(v).unwrap()).collect();
            let same = s.rebuilt(&[], comp_of, |_| unreachable!()).unwrap();
            assert_eq!(same.shards_shared_with(&s), 2);

            // Out-of-range dirty vertex is a typed error.
            assert_eq!(
                s.rebuilt(&[7], vec![0; 4], |_| Vec::new())
                    .map(|_| ())
                    .unwrap_err(),
                ServeError::UnknownNode { node: 7, n: 4 }
            );
        }
    }

    /// Regression: `rebuilt` located dirty shards by binary search over a
    /// list it never checked, so `[3, 0]` left shard 0 "clean" and vertex
    /// 0's old row serving. A list that is not strictly ascending is now
    /// a typed error in every build profile.
    #[test]
    fn rebuilt_rejects_unsorted_dirty_lists() {
        let s = tiny_store(2);
        let comp_of = || (0..4).map(|v| s.comp_of(v).unwrap()).collect::<Vec<u32>>();
        for (dirty, position) in [(vec![3, 0], 1), (vec![0, 2, 2], 2), (vec![1, 1], 1)] {
            assert_eq!(
                s.rebuilt(&dirty, comp_of(), |_| unreachable!()).map(|_| ()),
                Err(ServeError::UnsortedDirtyList { position })
            );
        }
    }

    /// Regression: the component-map length was only a `debug_assert!`, so
    /// release builds stored a short map (index panics in `distance`) or a
    /// long one. Both are typed errors now, in every build profile.
    #[test]
    fn rebuilt_rejects_a_wrong_length_component_map() {
        let s = tiny_store(2);
        for len in [3, 5] {
            assert_eq!(
                s.rebuilt(&[0], vec![0; len], |_| unreachable!())
                    .map(|_| ()),
                Err(ServeError::ComponentMapLength { len, n: 4 })
            );
        }
    }

    /// A dirty row lands in its shard's patch; the base arena stays shared
    /// with the previous store, a second update supersedes the patched row,
    /// and a patch past 1/8 of the base entries folds into a fresh arena.
    #[test]
    fn rebuilt_patches_rows_then_folds() {
        for layout in [StoreLayout::Flat, StoreLayout::Packed] {
            // 64 rows of 16 entries: a patch holds up to 128 entries.
            let n = 64u32;
            let row = |v: u32, bump: u64| -> Vec<(u32, Dist, Dist)> {
                (0..16)
                    .map(|h| (h * 4, u64::from(v + h) + bump, 7))
                    .collect()
            };
            let labels: Vec<Label> = (0..n)
                .map(|v| {
                    let mut l = Label::new(v);
                    for (h, to, from) in row(v, 0) {
                        l.merge(h, to, from);
                    }
                    l
                })
                .collect();
            let mut b = StoreBuilder::new(n as usize);
            b.add_component(&labels, &(0..n).collect::<Vec<_>>())
                .unwrap();
            let s0 = b.build_layout(n as usize, layout).unwrap();
            let comp_of = || vec![0u32; n as usize];
            let s1 = s0.rebuilt(&[3, 9], comp_of(), |v| row(v, 100)).unwrap();
            assert_eq!(s1.patched_rows(0), 2);
            assert_eq!(s1.entries(), s0.entries());
            assert_eq!(s1.shards_shared_with(&s0), 0, "the patch is new");
            assert_eq!(s1.distance(3, 0).unwrap(), 100 + 3 + 7);
            assert_eq!(s1.distance(0, 9).unwrap(), 7);
            let s2 = s1.rebuilt(&[9], comp_of(), |v| row(v, 200)).unwrap();
            assert_eq!(s2.patched_rows(0), 2, "row 9 is superseded, not added");
            assert_eq!(s2.distance(9, 1).unwrap(), 200 + 9 + 7);
            let same = s2.rebuilt(&[], comp_of(), |_| unreachable!()).unwrap();
            assert_eq!(same.shards_shared_with(&s2), 1, "base and patch shared");
            // Eight more rows pass 128 patched entries: the shard folds.
            let s3 = s2
                .rebuilt(&(20..30).collect::<Vec<_>>(), comp_of(), |v| row(v, 300))
                .unwrap();
            assert_eq!(s3.patched_rows(0), 0);
            assert_eq!(s3.distance(25, 1).unwrap(), 300 + 25 + 7);
            assert_eq!(
                s3.distance(9, 1).unwrap(),
                300 + 9 + 7,
                "fold rereads every row"
            );
            assert!(s3.bytes() < s2.bytes() + 16 * 20 * 8);
        }
    }

    /// Regression (issue 8): `rebuilt` used to report `max(comp_of) + 1`
    /// components. After a merge leaves a non-dense id space (here ids
    /// {0, 2} — id 1 retired), the count must be the number of *distinct*
    /// ids, and queries must keep matching the map.
    #[test]
    fn rebuilt_counts_distinct_components_after_merges() {
        assert_eq!(distinct_components(&[]), 0);
        assert_eq!(distinct_components(&[0, 0, 0]), 1);
        assert_eq!(distinct_components(&[0, 2, 0, 2]), 2);
        assert_eq!(distinct_components(&[5, 1_000_000, 5]), 2);

        let s = tiny_store(2);
        assert_eq!(s.components(), 2);
        // Post-"merge" map: vertices {0,1} keep id 0, {2,3} now share the
        // non-dense id 2 (ids 1 and the old component of 3 are retired).
        let r = s
            .rebuilt(&[0, 1, 2, 3], vec![0, 0, 2, 2], |v| match v {
                2 => vec![(2, 0, 0), (3, 4, 4)],
                3 => vec![(2, 4, 4), (3, 0, 0)],
                v => vec![
                    (0, u64::from(v), u64::from(v)),
                    (1, u64::from(1 - v), u64::from(1 - v)),
                ],
            })
            .unwrap();
        assert_eq!(r.components(), 2, "distinct ids, not max + 1 = 3");
        // Merge-then-query: the rewritten rows serve, and the component
        // early-exit follows the *new* map.
        assert_eq!(r.distance(2, 3).unwrap(), 4);
        assert_eq!(r.distance(0, 2).unwrap(), INF, "different components");
        assert_eq!(r.distance(0, 1).unwrap(), 1);
    }
}
