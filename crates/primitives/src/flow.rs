//! Rate-limited tree flows: convergecast (upflow) and broadcast (downflow)
//! over [`TreeRoles`].
//!
//! Both flows are executable schedules: per superstep every node forwards at
//! most `W` (the bandwidth) queued items, so each superstep costs one round
//! and the total round count is the schedule length — dilation plus
//! (smoothed) congestion, the envelope of the paper's scheduling theorem
//! (Theorem 6). Items are FIFO, so no reordering starvation.
//!
//! Flows run on the engine's frontier quiescence loop, scoped to the
//! role-holding nodes ([`TreeRoles::nodes`]): states are allocated per
//! participating node, `send` runs only on nodes with a non-empty queue and
//! `recv` only on nodes that received, so a superstep costs O(senders +
//! receivers + messages) — the charged metrics are identical to a
//! full-network execution because nodes without queued items never send
//! anything.

use crate::roles::TreeRoles;
use congest_sim::{CongestError, Network, Outbox, WireMsg};
use std::collections::VecDeque;

/// Wire format of a flow item: part id + optional payload (None = a relay
/// leaf's empty contribution).
#[derive(Clone, Debug)]
pub struct FlowMsg<V> {
    part: u32,
    value: Option<V>,
}

impl<V: WireMsg> WireMsg for FlowMsg<V> {
    fn words(&self) -> u64 {
        1 + self.value.as_ref().map_or(0, WireMsg::words)
    }
}

/// Result of an [`upflow`].
#[derive(Clone, Debug)]
pub struct UpflowResult<V> {
    /// Aggregated value per part, sorted by part id (parts whose tree
    /// carried no value at all yield no entry).
    pub roots: Vec<(u32, V)>,
    /// For every node, the finalized "subtree" accumulations per part —
    /// exactly the output of the paper's STA task when the roles are a
    /// part's own tree.
    pub per_node: Vec<Vec<(u32, V)>>,
}

struct UpState<V> {
    /// Aligned with the node's role list.
    acc: Vec<Option<V>>,
    remaining: Vec<u32>,
    queue: VecDeque<(u32, FlowMsg<V>)>,
    finalized: Vec<(u32, V)>,
    root_results: Vec<(u32, V)>,
}

/// Forward up to `rate` queued items, FIFO; the node stays armed while
/// items remain.
fn send_queued<V>(
    queue: &mut VecDeque<(u32, FlowMsg<V>)>,
    rate: usize,
    out: &mut Outbox<'_, FlowMsg<V>>,
) -> bool {
    let k = queue.len().min(rate);
    out.extend(queue.drain(..k));
    !queue.is_empty()
}

/// Convergecast: combine per-(node, part) initial values toward each part
/// tree's root. `init` supplies a node's own contribution (`None` for pure
/// relays); `combine` must be associative and commutative.
pub fn upflow<V>(
    net: &mut Network,
    roles: &TreeRoles,
    init: impl Fn(u32, u32) -> Option<V>,
    combine: impl Fn(V, V) -> V,
) -> Result<UpflowResult<V>, CongestError>
where
    V: WireMsg + std::fmt::Debug,
{
    let n = net.n();
    assert_eq!(roles.roles.len(), n);
    let rate = net.config().bandwidth_words.max(1) as usize;
    let active = &roles.nodes;

    let mut states: Vec<UpState<V>> = active
        .iter()
        .map(|&v| {
            let rs = &roles.roles[v as usize];
            UpState {
                acc: rs
                    .iter()
                    .map(|r| if r.relay { None } else { init(v, r.part) })
                    .collect(),
                remaining: rs.iter().map(|r| r.children.len() as u32).collect(),
                queue: VecDeque::new(),
                finalized: Vec::new(),
                root_results: Vec::new(),
            }
        })
        .collect();

    // Seed: leaves finalize immediately.
    for (i, &v) in active.iter().enumerate() {
        finalize_ready(v, &mut states[i], roles);
    }

    net.run_until_quiet_on(
        active,
        &mut states,
        |_u, s, out| send_queued(&mut s.queue, rate, out),
        |v, s, inbox| {
            let rs = &roles.roles[v as usize];
            for (_src, msg) in inbox {
                let idx = rs
                    .binary_search_by_key(&msg.part, |r| r.part)
                    .expect("flow message for part without role");
                if let Some(val) = msg.value {
                    s.acc[idx] = Some(match s.acc[idx].take() {
                        Some(cur) => combine(cur, val),
                        None => val,
                    });
                }
                s.remaining[idx] -= 1;
            }
            // Local post-processing (free): finalize newly complete roles.
            finalize_ready(v, s, roles);
            !s.queue.is_empty()
        },
        flow_step_guard(roles, n),
    )?;

    let mut roots = Vec::new();
    let mut per_node = vec![Vec::new(); n];
    for (i, s) in states.into_iter().enumerate() {
        roots.extend(s.root_results);
        per_node[active[i] as usize] = s.finalized;
    }
    roots.sort_by_key(|&(p, _)| p);
    Ok(UpflowResult { roots, per_node })
}

fn finalize_ready<V: Clone>(v: u32, s: &mut UpState<V>, roles: &TreeRoles) {
    let rs = &roles.roles[v as usize];
    for (i, r) in rs.iter().enumerate() {
        if s.remaining[i] == 0 {
            s.remaining[i] = u32::MAX; // mark as finalized
            if let Some(val) = s.acc[i].clone() {
                s.finalized.push((r.part, val));
            }
            if r.parent == v {
                if let Some(val) = s.acc[i].take() {
                    s.root_results.push((r.part, val));
                }
            } else {
                s.queue.push_back((
                    r.parent,
                    FlowMsg {
                        part: r.part,
                        value: s.acc[i].take(),
                    },
                ));
            }
        }
    }
}

struct DownState<V> {
    queue: VecDeque<(u32, FlowMsg<V>)>,
    got: Vec<(u32, V)>,
}

/// Broadcast: deliver each part root's item list to every node in the part
/// tree. Returns, per node, the `(part, item)` pairs it received (relays
/// receive them too — callers filter by membership if needed). Root items
/// are included in the root's own output.
pub fn downflow<V>(
    net: &mut Network,
    roles: &TreeRoles,
    root_items: impl Fn(u32, u32) -> Vec<V>,
) -> Result<Vec<Vec<(u32, V)>>, CongestError>
where
    V: WireMsg + std::fmt::Debug,
{
    let n = net.n();
    assert_eq!(roles.roles.len(), n);
    let rate = net.config().bandwidth_words.max(1) as usize;
    let active = &roles.nodes;

    let mut states: Vec<DownState<V>> = active
        .iter()
        .map(|&v| {
            let mut st = DownState {
                queue: VecDeque::new(),
                got: Vec::new(),
            };
            for r in &roles.roles[v as usize] {
                if r.parent == v {
                    for item in root_items(r.part, v) {
                        st.got.push((r.part, item.clone()));
                        for &c in &r.children {
                            st.queue.push_back((
                                c,
                                FlowMsg {
                                    part: r.part,
                                    value: Some(item.clone()),
                                },
                            ));
                        }
                    }
                }
            }
            st
        })
        .collect();

    let total_items: usize = states.iter().map(|s| s.got.len()).sum();
    // Every productive superstep moves ≥ 1 queued item and total queue pushes
    // are bounded by items × tree size.
    let max_steps = flow_step_guard(roles, n) + (total_items as u64 + 1) * (n as u64 + 1);
    net.run_until_quiet_on(
        active,
        &mut states,
        |_u, s, out| send_queued(&mut s.queue, rate, out),
        |v, s, inbox| {
            let rs = &roles.roles[v as usize];
            for (_src, msg) in inbox {
                let item = msg.value.expect("downflow items are never empty");
                let idx = rs
                    .binary_search_by_key(&msg.part, |r| r.part)
                    .expect("flow message for part without role");
                for &c in &rs[idx].children {
                    s.queue.push_back((
                        c,
                        FlowMsg {
                            part: msg.part,
                            value: Some(item.clone()),
                        },
                    ));
                }
                s.got.push((msg.part, item));
            }
            !s.queue.is_empty()
        },
        max_steps,
    )?;

    let mut out = vec![Vec::new(); n];
    for (i, s) in states.into_iter().enumerate() {
        out[active[i] as usize] = s.got;
    }
    Ok(out)
}

/// Generous superstep guard: total roles + node count (a flow moves each
/// (node, part) item a bounded number of times under rate ≥ 1).
fn flow_step_guard(roles: &TreeRoles, n: usize) -> u64 {
    let total_roles: usize = roles
        .nodes
        .iter()
        .map(|&v| roles.roles[v as usize].len())
        .sum();
    (4 * total_roles + 8 * n + 64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roles::TreeRoles;
    use congest_sim::{Network, NetworkConfig};
    use twgraph::gen::path;

    /// Path 0-1-2-3-4 with one part spanning all nodes, rooted at 2.
    fn path_roles() -> (Network, TreeRoles) {
        let g = path(5);
        let net = Network::new(g, NetworkConfig::default());
        let roles = TreeRoles::from_parent_maps(
            5,
            [(
                0u32,
                vec![
                    (0, 1, false),
                    (1, 2, false),
                    (2, 2, false),
                    (3, 2, false),
                    (4, 3, false),
                ],
            )],
        );
        roles.validate().unwrap();
        (net, roles)
    }

    #[test]
    fn upflow_sums_whole_part() {
        let (mut net, roles) = path_roles();
        let res = upflow(
            &mut net,
            &roles,
            |v, _part| Some(v as u64 + 1),
            |a, b| a + b,
        )
        .unwrap();
        assert_eq!(res.roots, vec![(0, 15)]);
        // Subtree values: node 0 = 1, node 1 = 1+2, node 4 = 5, node 3 = 9.
        let find = |v: usize| res.per_node[v].iter().find(|&&(p, _)| p == 0).unwrap().1;
        assert_eq!(find(0), 1);
        assert_eq!(find(1), 3);
        assert_eq!(find(4), 5);
        assert_eq!(find(3), 9);
        assert_eq!(find(2), 15);
    }

    #[test]
    fn upflow_cost_tracks_depth() {
        let (mut net, roles) = path_roles();
        let before = net.metrics().rounds;
        let _ = upflow(&mut net, &roles, |_, _| Some(1u64), |a, b| a + b).unwrap();
        let rounds = net.metrics().rounds - before;
        // Depth 2 each side; item+part = 2 words per hop, W=1 → 2 rounds/hop.
        assert!(rounds <= 12, "rounds = {rounds}");
    }

    #[test]
    fn upflow_with_relays() {
        // Node 1 is a relay: contributes nothing, still forwards.
        let g = path(3);
        let mut net = Network::new(g, NetworkConfig::default());
        let roles = TreeRoles::from_parent_maps(
            3,
            [(5u32, vec![(0, 1, false), (1, 2, true), (2, 2, false)])],
        );
        let res = upflow(&mut net, &roles, |v, _| Some(v as u64 + 10), |a, b| a + b).unwrap();
        assert_eq!(res.roots, vec![(5, 22)]); // 10 + 12, relay's 11 excluded
    }

    #[test]
    fn downflow_reaches_all_members() {
        let (mut net, roles) = path_roles();
        let got = downflow(&mut net, &roles, |part, _root| vec![part * 100 + 7]).unwrap();
        for gv in got.iter().take(5) {
            assert_eq!(*gv, vec![(0, 7)]);
        }
    }

    #[test]
    fn downflow_multiple_items_pipelined() {
        let (mut net, roles) = path_roles();
        let before = net.metrics().rounds;
        let got = downflow(&mut net, &roles, |_, _| vec![1u64, 2, 3, 4]).unwrap();
        for gv in got.iter().take(5) {
            let items: Vec<u64> = gv.iter().map(|&(_, x)| x).collect();
            assert_eq!(items, vec![1, 2, 3, 4]);
        }
        let rounds = net.metrics().rounds - before;
        // 4 items over depth 2: pipelining keeps this ~ depth + items·2 words.
        assert!(rounds <= 24, "rounds = {rounds}");
    }

    #[test]
    fn two_overlapping_parts() {
        // Parts 0 and 1 both span the path; congestion doubles, results don't mix.
        let g = path(3);
        let mut net = Network::new(g, NetworkConfig::default());
        let roles = TreeRoles::from_parent_maps(
            3,
            [
                (0u32, vec![(0, 0, false), (1, 0, false), (2, 1, false)]),
                (1u32, vec![(0, 1, false), (1, 1, false), (2, 1, false)]),
            ],
        );
        roles.validate().unwrap();
        let res = upflow(
            &mut net,
            &roles,
            |v, p| Some((v as u64 + 1) * (p as u64 + 1)),
            |a, b| a + b,
        )
        .unwrap();
        assert_eq!(res.roots, vec![(0, 6), (1, 12)]);
    }

    #[test]
    fn empty_roles_no_cost() {
        let g = path(4);
        let mut net = Network::new(g, NetworkConfig::default());
        let roles = TreeRoles::new(4);
        let res = upflow(&mut net, &roles, |_, _| Some(1u64), |a, b| a + b).unwrap();
        assert!(res.roots.is_empty());
        assert_eq!(net.metrics().rounds, 0);
    }

    #[test]
    fn flows_only_touch_role_nodes() {
        // A part confined to {0, 1} on a long path: per-superstep cost is
        // scoped, and the untouched tail never appears in the outputs.
        let g = path(64);
        let mut net = Network::new(g, NetworkConfig::default());
        let roles = TreeRoles::from_parent_maps(64, [(0u32, vec![(0, 1, false), (1, 1, false)])]);
        assert_eq!(roles.nodes, vec![0, 1]);
        let res = upflow(&mut net, &roles, |v, _| Some(v as u64 + 1), |a, b| a + b).unwrap();
        assert_eq!(res.roots, vec![(0, 3)]);
        assert!(res.per_node[2..].iter().all(Vec::is_empty));
        let got = downflow(&mut net, &roles, |_, _| vec![9u64]).unwrap();
        assert_eq!(got[0], vec![(0, 9)]);
        assert!(got[2..].iter().all(Vec::is_empty));
    }
}
