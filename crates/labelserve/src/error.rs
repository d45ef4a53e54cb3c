//! Typed failures of the serving layer.
//!
//! Consistent with the workspace-wide Result sweep (PR 4): every
//! operational failure is a value, never a panic. Note what is *not* an
//! error: a query between two vertices of different connected components
//! decodes to [`twgraph::INF`] — exactly what the centralized oracles
//! report for unreachable pairs — so disconnected inputs serve cleanly.

use std::fmt;

/// A store build or query failed for a structural reason.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// A query named a vertex id outside the store's `0..n` space.
    UnknownNode {
        /// The offending vertex id.
        node: u32,
        /// The store's vertex-space size.
        n: usize,
    },
    /// A component registered a vertex already owned by an earlier
    /// component (the component map must partition `0..n`).
    DuplicateNode {
        /// The doubly-claimed global vertex id.
        node: u32,
    },
    /// After all components were registered, a vertex was left without a
    /// label (the component map must cover `0..n`).
    UncoveredNode {
        /// The unclaimed global vertex id.
        node: u32,
    },
    /// A label entry named a hub outside its component's vertex list —
    /// the `old_of` mapping cannot translate it to a global id.
    HubOutOfRange {
        /// The component-local hub id.
        hub: u32,
        /// The component's vertex count.
        comp_n: usize,
    },
    /// A component handed the builder label and vertex lists of different
    /// lengths — there is no well-defined local-to-global mapping.
    ComponentShapeMismatch {
        /// Labels supplied.
        labels: usize,
        /// Vertices supplied (`old_of` length).
        nodes: usize,
    },
    /// A component's `old_of` vertex map is not strictly ascending. The
    /// monotone map is what keeps globalized hub lists sorted — the
    /// invariant both the galloping merge-join and the packed layout's
    /// delta coding decode against — so an unsorted map must be a typed
    /// error in release builds too, never a silently wrong distance
    /// (previously only a `debug_assert!`).
    UnsortedComponentMap {
        /// Position `i` in `old_of` where `old_of[i] >= old_of[i + 1]`.
        index: usize,
        /// `old_of[index]`.
        prev: u32,
        /// `old_of[index + 1]`.
        next: u32,
    },
    /// A single shard exceeded the `u32` bound its CSR offsets (flat) or
    /// segment headers (packed) are stored in. Previously the flat builder
    /// truncated with `as u32`, silently corrupting every row after the
    /// 2³²nd entry; now both layouts refuse with the coordinates.
    ShardTooLarge {
        /// The shard index that overflowed.
        shard: usize,
        /// Entries accumulated when the bound broke.
        entries: usize,
        /// Packed body bytes accumulated (entry count × 20 for flat).
        bytes: usize,
    },
    /// A node's entry list was not strictly ascending by hub at packing
    /// time — the delta coder would wrap and decode wrong distances.
    UnsortedNodeEntries {
        /// The offending global vertex id.
        node: u32,
    },
    /// A publish's dirty list is not strictly ascending:
    /// `dirty[position]` does not exceed `dirty[position - 1]`. Rows and
    /// shards are located by binary search over the list, so an unsorted
    /// one would leave stale rows serving.
    UnsortedDirtyList {
        /// First offending index into the dirty list.
        position: usize,
    },
    /// A rebuild was handed a component map whose length is not the
    /// store's vertex count.
    ComponentMapLength {
        /// Length of the supplied map.
        len: usize,
        /// The store's vertex-space size.
        n: usize,
    },
    /// A packed segment failed structural validation (truncated sections,
    /// inconsistent CSR counts, or a body stream that decodes wrong) —
    /// raised when opening a persisted store file, never at query time.
    CorruptSegment {
        /// Which invariant broke.
        what: &'static str,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ServeError::UnknownNode { node, n } => {
                write!(f, "query names unknown node {node} (store holds 0..{n})")
            }
            ServeError::DuplicateNode { node } => {
                write!(f, "node {node} registered by two components")
            }
            ServeError::UncoveredNode { node } => {
                write!(f, "node {node} left without a label by every component")
            }
            ServeError::HubOutOfRange { hub, comp_n } => {
                write!(
                    f,
                    "label entry hub {hub} outside its component (size {comp_n})"
                )
            }
            ServeError::ComponentShapeMismatch { labels, nodes } => {
                write!(
                    f,
                    "component registered {labels} labels for {nodes} vertices"
                )
            }
            ServeError::UnsortedComponentMap { index, prev, next } => {
                write!(
                    f,
                    "component vertex map not strictly ascending at index {index}: \
                     {prev} then {next}"
                )
            }
            ServeError::ShardTooLarge {
                shard,
                entries,
                bytes,
            } => {
                write!(
                    f,
                    "shard {shard} exceeds the u32 segment bound \
                     ({entries} entries, {bytes} data bytes)"
                )
            }
            ServeError::UnsortedNodeEntries { node } => {
                write!(f, "node {node} entry list not strictly ascending by hub")
            }
            ServeError::CorruptSegment { what } => {
                write!(f, "corrupt packed segment: {what}")
            }
            ServeError::UnsortedDirtyList { position } => {
                write!(
                    f,
                    "dirty list not strictly ascending at position {position}"
                )
            }
            ServeError::ComponentMapLength { len, n } => {
                write!(f, "component map holds {len} entries for {n} nodes")
            }
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_coordinates() {
        let e = ServeError::UnknownNode { node: 9, n: 4 };
        assert!(e.to_string().contains('9') && e.to_string().contains('4'));
        assert!(ServeError::DuplicateNode { node: 3 }
            .to_string()
            .contains('3'));
        assert!(ServeError::UncoveredNode { node: 2 }
            .to_string()
            .contains('2'));
        assert!(ServeError::HubOutOfRange { hub: 8, comp_n: 5 }
            .to_string()
            .contains('8'));
        let e = ServeError::UnsortedComponentMap {
            index: 4,
            prev: 9,
            next: 7,
        };
        for needle in ['4', '9', '7'] {
            assert!(e.to_string().contains(needle));
        }
        let e = ServeError::ShardTooLarge {
            shard: 2,
            entries: 5_000_000_000,
            bytes: 1,
        };
        assert!(e.to_string().contains("5000000000"));
        assert!(ServeError::UnsortedNodeEntries { node: 6 }
            .to_string()
            .contains('6'));
        assert!(ServeError::CorruptSegment { what: "boom" }
            .to_string()
            .contains("boom"));
        assert!(ServeError::UnsortedDirtyList { position: 5 }
            .to_string()
            .contains('5'));
        let e = ServeError::ComponentMapLength { len: 3, n: 8 };
        assert!(e.to_string().contains('3') && e.to_string().contains('8'));
    }
}
