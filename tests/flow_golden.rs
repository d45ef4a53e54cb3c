//! Bit-identity lock on the rate-limited tree flows and the part-wise
//! operations built on them.
//!
//! Every case builds the global BFS tree of a fixed graph, assigns Steiner
//! roles to a near-disjoint part collection (boundary vertices shared by
//! two parts, some vertices in no part, so relays appear), and runs
//! `upflow`, `downflow`, `pa::aggregate_and_share`, `pa::broadcast` and
//! `pa::elect_leaders` back to back on one network, at `bandwidth_words`
//! 1 and 3. Each operation is reduced to one JSON line: its phase-local
//! charged metrics plus a 64-bit FNV-1a fingerprint of its full output, in
//! output order — so a change to the flows' queue discipline, item order
//! per superstep, or the engine's charging fails with the case name.
//!
//! Regenerate the golden (only when the flows are *meant* to change, with
//! review) via:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test flow_golden
//! ```

use lowtw::congest_sim::PhaseSnapshot;
use lowtw::prelude::*;
use lowtw::subgraph_ops::{flow, global, pa, Parts};
use lowtw::twgraph::{self, gen};

/// FNV-1a over the bytes of a string.
fn fnv(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One golden line: the operation's phase snapshot and the fingerprint of
/// its `Debug`-formatted output (deterministic: every output is a `Vec`
/// in node or part order).
fn op_line(case: &str, snap: &PhaseSnapshot, output: &impl std::fmt::Debug) -> String {
    format!(
        "{{\"case\":\"{case}\",\"op\":\"{}\",\"rounds\":{},\"supersteps\":{},\"messages\":{},\"words\":{},\"congestion\":{},\"charged_rounds\":{},\"fingerprint\":\"{:016x}\"}}",
        snap.phase,
        snap.rounds,
        snap.supersteps,
        snap.messages,
        snap.words,
        snap.max_edge_words_in_superstep,
        snap.charged_rounds,
        fnv(&format!("{output:?}"))
    )
}

/// Near-disjoint parts over `n` vertices: consecutive id blocks of
/// `block`, the first vertex of each block shared with the previous
/// block's part, and every vertex with `v % 7 == 3` left out (those become
/// relays or stay idle).
fn near_disjoint_parts(n: usize, block: u32) -> Parts {
    let n_parts = (n as u32).div_ceil(block);
    let members = (0..n as u32)
        .map(|v| {
            if v % 7 == 3 {
                return Vec::new();
            }
            let p = v / block;
            if v % block == 0 && p > 0 {
                vec![p - 1, p]
            } else {
                vec![p]
            }
        })
        .collect();
    Parts::from_lists(n_parts, members).expect("part ids below n_parts")
}

fn flow_case(name: &str, g: &UGraph, block: u32, bandwidth_words: u64) -> Vec<String> {
    let case = format!("{name}/w{bandwidth_words}");
    let cfg = NetworkConfig {
        bandwidth_words,
        ..NetworkConfig::default()
    };
    let mut net = Network::new(g.clone(), cfg);
    let tree = global::build_global_tree(&mut net).unwrap();
    let parts = near_disjoint_parts(g.n(), block);
    let roles = pa::steiner_roles(&tree, &parts);
    roles.validate().unwrap();
    let uids: Vec<u64> = (0..g.n() as u32).map(|v| net.uid(v)).collect();

    let mut lines = vec![op_line(
        &case,
        &net.phase_log()[0],
        &(tree.root, &tree.parent),
    )];

    let up = flow::upflow(
        &mut net,
        &roles,
        |v, p| (v % 5 != 1).then(|| u64::from(v) * 31 + u64::from(p)),
        |a, b| a.wrapping_mul(3) ^ b,
    )
    .unwrap();
    lines.push(op_line(
        &case,
        &net.snapshot("upflow"),
        &(&up.roots, &up.per_node),
    ));

    let down = flow::downflow(&mut net, &roles, |p, root| {
        (0..p % 4 + 1)
            .map(|i| (root, u64::from(p * 10 + i)))
            .collect()
    })
    .unwrap();
    lines.push(op_line(&case, &net.snapshot("downflow"), &down));

    let shared = pa::aggregate_and_share(
        &mut net,
        &roles,
        |v, p| (v % 3 != 0).then_some(uids[v as usize] ^ u64::from(p)),
        |a: u64, b: u64| a.min(b),
    )
    .unwrap();
    lines.push(op_line(
        &case,
        &net.snapshot("aggregate_and_share"),
        &shared,
    ));

    let bcast = pa::broadcast(&mut net, &roles, |v, p| match v % 6 {
        0 => vec![v],
        4 => vec![v, p, v + 1000],
        _ => Vec::new(),
    })
    .unwrap();
    lines.push(op_line(&case, &net.snapshot("broadcast"), &bcast));

    let leaders = pa::elect_leaders(&mut net, &roles, |v, p| (v + p) % 4 != 0).unwrap();
    lines.push(op_line(&case, &net.snapshot("elect_leaders"), &leaders));
    lines
}

fn collect() -> Vec<String> {
    let gnp = gen::gnp(90, 0.08, 5);
    assert_eq!(
        twgraph::alg::components(&gnp).1,
        1,
        "the gnp case must be connected (the global tree spans it)"
    );
    let graphs = [
        ("banded_path", gen::banded_path(120, 3), 12),
        ("grid", gen::grid(9, 11), 10),
        ("gnp", gnp, 9),
    ];
    let mut lines = Vec::new();
    for (name, g, block) in &graphs {
        for w in [1, 3] {
            lines.extend(flow_case(name, g, *block, w));
        }
    }
    lines
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/flows.jsonl")
}

#[test]
fn flows_match_golden() {
    let got = collect();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, got.join("\n") + "\n").expect("write golden");
        eprintln!("wrote {} golden lines to {}", got.len(), path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run `UPDATE_GOLDEN=1 cargo test --test flow_golden`",
            path.display()
        )
    });
    let want: Vec<&str> = text.lines().collect();
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "golden line {} diverged", i + 1);
    }
    assert_eq!(got.len(), want.len(), "golden line count changed");
}
