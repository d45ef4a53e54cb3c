//! PA / BCT / SLE — part-wise aggregation, multi-source broadcast and
//! leader election over Steiner-restricted shortcut trees.
//!
//! [`steiner_roles`] assigns each part the minimal subtree of the global
//! BFS tree spanning its members ("tree-restricted shortcuts", the
//! substitution documented in DESIGN.md §4.1); the flow engines then move
//! the data with measured cost. The setup itself is charged one control
//! pulse — the real \[HIZ16\] construction costs Õ(τD) rounds once, which the
//! experiments account separately (the tree is built once and reused).

use crate::flow::{downflow, upflow, UpflowResult};
use crate::global::GlobalTree;
use crate::parts::Parts;
use crate::roles::{ParentMap, TreeRoles};
use congest_sim::{CongestError, Network, WireMsg};
use std::collections::HashMap;

/// Compute per-part Steiner-subtree roles on the global BFS tree.
///
/// For each part: the union of the members' root paths, trimmed above the
/// topmost branching/member node. Nodes on the subtree that are not members
/// are relays.
pub fn steiner_roles(tree: &GlobalTree, parts: &Parts) -> TreeRoles {
    let n = tree.parent.len();
    let nodes_of = parts.nodes_of_parts();
    let mut maps: Vec<ParentMap> = Vec::with_capacity(nodes_of.len());
    for (p, members) in nodes_of.iter().enumerate() {
        if members.is_empty() {
            continue;
        }
        // Union of root paths.
        let mut marked: HashMap<u32, bool> = HashMap::new(); // node -> is member
        for &m in members {
            marked.insert(m, true);
        }
        for &m in members {
            let mut cur = m;
            while tree.parent[cur as usize] != cur {
                let par = tree.parent[cur as usize];
                if marked.contains_key(&par) {
                    break;
                }
                marked.insert(par, false);
                cur = par;
            }
        }
        // Count marked children to locate the Steiner top.
        let mut marked_children: HashMap<u32, Vec<u32>> = HashMap::new();
        for &v in marked.keys() {
            let par = tree.parent[v as usize];
            if par != v && marked.contains_key(&par) {
                marked_children.entry(par).or_default().push(v);
            }
        }
        // Trim the chain of non-member single-child nodes from the top.
        // The top of the marked set is the shallowest marked node.
        let mut top = *marked
            .keys()
            .min_by_key(|&&v| (tree.depth[v as usize], v))
            .unwrap();
        loop {
            let is_member = marked[&top];
            let ch = marked_children.get(&top).map_or(&[][..], |c| c.as_slice());
            if !is_member && ch.len() == 1 {
                let next = ch[0];
                marked.remove(&top);
                top = next;
            } else {
                break;
            }
        }
        let mut entries: Vec<(u32, u32, bool)> = marked
            .iter()
            .map(|(&v, &is_member)| {
                let par = if v == top { v } else { tree.parent[v as usize] };
                (v, par, !is_member)
            })
            .collect();
        // `marked` iterates in hash order; pin the entry order (unique per
        // vertex) so role construction never depends on hasher state.
        entries.sort_unstable();
        maps.push((p as u32, entries));
    }
    TreeRoles::from_parent_maps(n, maps)
}

/// PA: aggregate `value(v, part)` over every part with the associative,
/// commutative `combine`; every member (and relay) learns the part total.
/// Returns per node the `(part, total)` pairs, plus the raw root results.
pub fn aggregate_and_share<V>(
    net: &mut Network,
    roles: &TreeRoles,
    value: impl Fn(u32, u32) -> Option<V>,
    combine: impl Fn(V, V) -> V + Copy,
) -> Result<Vec<Vec<(u32, V)>>, CongestError>
where
    V: WireMsg + std::fmt::Debug,
{
    let up = upflow(net, roles, value, combine)?;
    let totals: HashMap<u32, V> = up.roots.iter().cloned().collect();
    downflow(net, roles, |part, _root| {
        totals.get(&part).into_iter().cloned().collect()
    })
}

/// PA, root results only (when no share-back is needed).
pub fn aggregate<V>(
    net: &mut Network,
    roles: &TreeRoles,
    value: impl Fn(u32, u32) -> Option<V>,
    combine: impl Fn(V, V) -> V,
) -> Result<UpflowResult<V>, CongestError>
where
    V: WireMsg + std::fmt::Debug,
{
    upflow(net, roles, value, combine)
}

/// SLE: per-part leader election among candidate nodes. Every member learns
/// the elected leader (the candidate with maximum `(uid)`); parts without
/// candidates elect nobody. Returns per node the `(part, leader)` pairs.
pub fn elect_leaders(
    net: &mut Network,
    roles: &TreeRoles,
    candidate: impl Fn(u32, u32) -> bool,
) -> Result<Vec<Vec<(u32, u32)>>, CongestError> {
    let uids: Vec<u64> = (0..net.n() as u32).map(|v| net.uid(v)).collect();
    let shared = aggregate_and_share(
        net,
        roles,
        |v, p| {
            if candidate(v, p) {
                Some((uids[v as usize], v))
            } else {
                None
            }
        },
        |a: (u64, u32), b: (u64, u32)| if a.0 >= b.0 { a } else { b },
    )?;
    Ok(shared
        .into_iter()
        .map(|list| list.into_iter().map(|(p, (_uid, v))| (p, v)).collect())
        .collect())
}

/// BCT(h): every part's designated sources contribute items; all members
/// receive all of the part's items (paper Corollary 3). Implemented as a
/// concatenating upflow followed by a downflow — at most twice the optimal
/// schedule, with measured congestion.
pub fn broadcast<V>(
    net: &mut Network,
    roles: &TreeRoles,
    items: impl Fn(u32, u32) -> Vec<V>,
) -> Result<Vec<Vec<(u32, V)>>, CongestError>
where
    V: WireMsg + std::fmt::Debug,
{
    let up = upflow(
        net,
        roles,
        |v, p| {
            let mine = items(v, p);
            if mine.is_empty() {
                None
            } else {
                Some(mine)
            }
        },
        |mut a: Vec<V>, mut b: Vec<V>| {
            a.append(&mut b);
            a
        },
    )?;
    let all: HashMap<u32, Vec<V>> = up.roots.into_iter().collect();
    downflow(net, roles, |part, _root| {
        all.get(&part).cloned().unwrap_or_default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::build_bfs_tree;
    use congest_sim::{Network, NetworkConfig};
    use twgraph::gen::{banded_path, grid, path};

    fn two_parts_on_path() -> (Network, TreeRoles, Parts) {
        // Path of 8; parts = {0..3}, {4..7} — vertex disjoint.
        let g = path(8);
        let mut net = Network::new(g, NetworkConfig::default());
        let tree = build_bfs_tree(&mut net, 0).unwrap();
        let labels: Vec<Option<u32>> = (0..8).map(|v| Some((v >= 4) as u32)).collect();
        let parts = Parts::from_labels(&labels);
        let roles = steiner_roles(&tree, &parts);
        roles.validate().unwrap();
        (net, roles, parts)
    }

    #[test]
    fn steiner_tree_spans_members_only_plus_relays() {
        let (_net, roles, _parts) = two_parts_on_path();
        // Part 0 = {0..3} is contiguous: no relays needed.
        for v in 0..4u32 {
            let r = roles.role_of(v, 0).unwrap();
            assert!(!r.relay);
        }
        for v in 4..8u32 {
            assert!(roles.role_of(v, 0).is_none());
        }
        // Part 1 = {4..7}: also contiguous in the BFS tree of a path.
        for v in 4..8u32 {
            assert!(!roles.role_of(v, 1).unwrap().relay);
        }
    }

    #[test]
    fn aggregate_sums_per_part() {
        let (mut net, roles, _parts) = two_parts_on_path();
        let shared =
            aggregate_and_share(&mut net, &roles, |v, _p| Some(v as u64), |a, b| a + b).unwrap();
        // Part 0: 0+1+2+3 = 6; part 1: 4+5+6+7 = 22.
        for sv in shared.iter().take(4) {
            assert_eq!(*sv, vec![(0, 6)]);
        }
        for sv in shared.iter().take(8).skip(4) {
            assert_eq!(*sv, vec![(1, 22)]);
        }
    }

    #[test]
    fn steiner_relays_bridge_disconnected_members() {
        // Grid 3x3; part = the four corners (not adjacent): Steiner tree
        // must include relay nodes, and aggregation must still work.
        let g = grid(3, 3);
        let mut net = Network::new(g, NetworkConfig::default());
        let tree = build_bfs_tree(&mut net, 4).unwrap();
        let corners = [0u32, 2, 6, 8];
        let labels: Vec<Option<u32>> = (0..9).map(|v| corners.contains(&v).then_some(0)).collect();
        let parts = Parts::from_labels(&labels);
        let roles = steiner_roles(&tree, &parts);
        roles.validate().unwrap();
        let up = aggregate(&mut net, &roles, |_v, _p| Some(1u64), |a, b| a + b).unwrap();
        assert_eq!(up.roots, vec![(0, 4)]);
        // Relays exist and carry no value.
        let relay_count: usize = roles
            .roles
            .iter()
            .flat_map(|l| l.iter())
            .filter(|r| r.relay)
            .count();
        assert!(relay_count > 0);
    }

    #[test]
    fn leaders_are_members() {
        let (mut net, roles, parts) = two_parts_on_path();
        let leaders = elect_leaders(&mut net, &roles, |_v, _p| true).unwrap();
        for v in 0..8u32 {
            for &(p, leader) in &leaders[v as usize] {
                assert!(parts.contains(leader, p), "leader {leader} not in part {p}");
            }
        }
        // Every member of a part agrees on its leader.
        let l0: Vec<u32> = (0..4).map(|v| leaders[v][0].1).collect();
        assert!(l0.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn broadcast_collects_all_sources() {
        let (mut net, roles, _parts) = two_parts_on_path();
        let got = broadcast(&mut net, &roles, |v, _p| {
            if v % 2 == 0 {
                vec![v as u64]
            } else {
                Vec::new()
            }
        })
        .unwrap();
        // Part 0 sources: 0, 2. Every member of part 0 receives both.
        for gv in got.iter().take(4) {
            let mut items: Vec<u64> = gv.iter().map(|&(_, x)| x).collect();
            items.sort_unstable();
            assert_eq!(items, vec![0, 2]);
        }
    }

    #[test]
    fn measured_congestion_reported() {
        // Many interleaved parts on a banded path: congestion should stay
        // well below the part count (the Steiner trees are local).
        let g = banded_path(64, 2);
        let mut net = Network::new(g, NetworkConfig::default());
        let tree = build_bfs_tree(&mut net, 0).unwrap();
        let labels: Vec<Option<u32>> = (0..64).map(|v| Some(v / 8)).collect();
        let parts = Parts::from_labels(&labels);
        let roles = steiner_roles(&tree, &parts);
        let before = net.metrics().rounds;
        let _ = aggregate_and_share(&mut net, &roles, |_v, _p| Some(1u64), |a, b| a + b).unwrap();
        assert!(net.metrics().rounds > before);
        // 8 parts of 8 contiguous nodes: peak congestion stays small.
        assert!(
            net.metrics().max_edge_words_in_superstep <= 8,
            "congestion {}",
            net.metrics().max_edge_words_in_superstep
        );
    }
}
