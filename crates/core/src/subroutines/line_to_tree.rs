//! `LineToCompleteBinaryTree` (Proposition 2.2) generalised to complete
//! `k`-ary trees, with the asynchronous wake-up discipline of Appendix B.
//!
//! **The jump rule.** Every node repeatedly activates an edge with its
//! grandparent and deactivates the edge with its former parent, *unless*
//! its grandparent already has `k` children (in which case it stops,
//! keeping its current parent) or its parent is the root (in which case
//! it has reached its final position). With `k = 2` this is exactly the
//! paper's `LineToCompleteBinaryTree`; with `k = ⌈log n⌉` it is the
//! `LineToCompletePolylogarithmicTree` of Section 5. The paper notes that
//! "there are some special cases where the above process needs to be
//! tweaked"; our single tweak is a deterministic admission rule when
//! several grandchildren could hop onto the same grandparent in one round
//! and exceed its capacity: the lowest-position candidates are admitted
//! first and the rest simply retry in the next round. On a line with
//! `k = 2` the rule never triggers. The rule lives in one place,
//! `plan_sync_schedule`, which replays the synchronous execution on
//! positions alone; the round-based executor below and the actors of
//! [`crate::subroutines::runtime_line_to_tree`] both follow that plan.
//!
//! **Wake-up schedules.** Nodes may wake up at different rounds (in the
//! wreath algorithms the wake-up round is the time at which the
//! activation message propagated from an ex-committee leader reaches the
//! node). The paper sequences the pointer jumps with `EA`/`DEA`
//! activation and deactivation counters so that, despite the staggered
//! wake-ups, the asynchronous execution performs **exactly the same edge
//! activations and deactivations** as the synchronous one (Lemma B.4) and
//! finishes within `O(log n + k)` rounds where `k` is the last wake-up
//! time (Corollary B.5). We implement the same discipline in its
//! extensional form: every node follows its planned jump schedule, and a
//! jump is performed in a round only when (i) the node, its current
//! parent and the jump target are awake, (ii) the supporting edge between
//! the current parent and the target is active at the beginning of the
//! round (the distance-2 witness), and (iii) no child of the node still
//! needs the edge about to be deactivated — unless that child performs
//! its own jump in the very same round, mirroring the simultaneity of the
//! synchronous execution. With every node awake from round 1
//! ([`run_line_to_tree`]) this *is* the synchronous execution.

use crate::CoreError;
use adn_graph::edgeset::SortedEdgeSet;
use adn_graph::{Edge, NodeId, RootedTree};
use adn_sim::Network;
use std::collections::BTreeMap;

/// Configuration for [`run_line_to_tree`] and its wake-up variants.
#[derive(Debug, Clone)]
pub struct LineToTreeConfig {
    /// Maximum number of children per node in the constructed tree
    /// (2 for the complete binary tree).
    pub arity: usize,
    /// Edges that must never be deactivated (the wreath algorithms protect
    /// the ring edges so the ring survives the tree construction). A flat
    /// sorted set: built once per committee merge, probed per jump.
    pub protected_edges: SortedEdgeSet,
}

impl LineToTreeConfig {
    /// The paper's `LineToCompleteBinaryTree` configuration.
    pub fn binary() -> Self {
        LineToTreeConfig {
            arity: 2,
            protected_edges: SortedEdgeSet::new(),
        }
    }

    /// The `LineToCompletePolylogarithmicTree` configuration for a network
    /// of `n` nodes: arity `max(2, ⌈log2 n⌉)`.
    pub fn polylog(n: usize) -> Self {
        LineToTreeConfig {
            arity: adn_graph::properties::ceil_log2(n.max(2)).max(2),
            protected_edges: SortedEdgeSet::new(),
        }
    }

    /// Adds protected edges (builder style).
    pub fn with_protected_edges<I: IntoIterator<Item = Edge>>(mut self, edges: I) -> Self {
        self.protected_edges = edges.into_iter().collect();
        self
    }
}

/// Reusable scratch state for repeated line-to-tree runs.
///
/// The wreath engine rebuilds a tree over every merged ring, once per
/// selection-tree root per phase. One `LineScratch` threaded through a
/// whole execution memoises the jump schedules — they are pure functions
/// of `(line length, arity)`, and early phases merge many same-sized
/// rings — and recycles the positional vectors across merges.
///
/// Purely an allocation/memoisation cache: runs with and without a shared
/// scratch are behaviourally identical.
#[derive(Debug, Default)]
pub struct LineScratch {
    /// Memoised jump schedules, keyed by (line length, arity).
    schedules: BTreeMap<(usize, usize), Vec<Vec<usize>>>,
    /// Current parent of every position.
    parent_pos: Vec<usize>,
    /// Children of every position (order-insensitive membership lists).
    children: Vec<Vec<usize>>,
    /// Number of schedule jumps each position has performed.
    jumps_done: Vec<usize>,
    /// Per-round jump marks (fixpoint pass).
    will_jump: Vec<bool>,
    /// Per-round mover list (commit pass).
    movers: Vec<usize>,
    /// Line-validation scratch (duplicate detection by sort).
    seen: Vec<NodeId>,
    /// Per-round wave column: witnessed activations for `stage_jump_wave`.
    wave_acts: Vec<adn_sim::WaveActivation>,
    /// Per-round wave column: deactivations for `stage_jump_wave`.
    wave_drops: Vec<Edge>,
}

impl LineScratch {
    /// A fresh, empty scratch.
    pub fn new() -> Self {
        LineScratch::default()
    }
}

/// The synchronous jump schedule: for every position, the ordered list of
/// grandparent positions it hops to. Computed by replaying the
/// synchronous subroutine purely on positions (no network) — the only
/// place the jump rule is written down.
pub(crate) fn plan_sync_schedule(n: usize, arity: usize) -> Vec<Vec<usize>> {
    let mut schedule: Vec<Vec<usize>> = vec![Vec::new(); n];
    if n <= 1 {
        return schedule;
    }
    let mut parent_pos: Vec<usize> = (0..n).map(|i| i.saturating_sub(1)).collect();
    let mut child_count: Vec<usize> = (0..n).map(|i| usize::from(i + 1 < n)).collect();
    let mut terminated: Vec<bool> = vec![false; n];
    terminated[0] = true; // the root never moves
    loop {
        let begin_child_count = child_count.clone();
        let mut planned_new: Vec<usize> = vec![0; n];
        // (position, old parent position, grandparent position)
        let mut jumps: Vec<(usize, usize, usize)> = Vec::new();
        for pos in 1..n {
            if terminated[pos] {
                continue;
            }
            let p = parent_pos[pos];
            if p == 0 {
                terminated[pos] = true;
                continue;
            }
            let gp = parent_pos[p];
            if begin_child_count[gp] >= arity {
                // The paper's stop rule: grandparent already has k children.
                terminated[pos] = true;
                continue;
            }
            if begin_child_count[gp] + planned_new[gp] >= arity {
                // Admission rule: too many simultaneous candidates; retry
                // next round.
                continue;
            }
            planned_new[gp] += 1;
            jumps.push((pos, p, gp));
        }
        if jumps.is_empty() {
            // An admission deferral needs a jump planned onto the same
            // grandparent, so a round without jumps terminated everyone.
            debug_assert!(terminated.iter().all(|&t| t), "unterminated position");
            break;
        }
        for (pos, p, gp) in jumps {
            schedule[pos].push(gp);
            parent_pos[pos] = gp;
            child_count[p] -= 1;
            child_count[gp] += 1;
        }
    }
    schedule
}

/// Checks that `line` is a usable input: non-empty, a positive arity, no
/// repeated node, every node inside the network, consecutive entries
/// adjacent. `seen` is caller-owned sort scratch.
pub(crate) fn validate_line(
    network: &Network,
    line: &[NodeId],
    arity: usize,
    seen: &mut Vec<NodeId>,
) -> Result<(), CoreError> {
    if line.is_empty() {
        return Err(CoreError::InvalidInput {
            reason: "line must contain at least one node".into(),
        });
    }
    if arity == 0 {
        return Err(CoreError::InvalidInput {
            reason: "arity must be at least 1".into(),
        });
    }
    seen.clear();
    seen.extend_from_slice(line);
    seen.sort_unstable();
    for w in seen.windows(2) {
        if w[0] == w[1] {
            return Err(CoreError::InvalidInput {
                reason: format!("node {} appears twice in the line", w[0]),
            });
        }
    }
    if line.iter().any(|u| u.index() >= network.node_count()) {
        return Err(CoreError::InvalidInput {
            reason: "line refers to nodes outside the network".into(),
        });
    }
    for w in line.windows(2) {
        if !network.graph().has_edge(w[0], w[1]) {
            return Err(CoreError::InvalidInput {
                reason: format!(
                    "consecutive line nodes {} and {} are not adjacent",
                    w[0], w[1]
                ),
            });
        }
    }
    Ok(())
}

/// Runs the line-to-tree subroutine on `network` with every node awake
/// from round 1 — the synchronous execution of Proposition 2.2.
///
/// `line` lists the nodes in order; `line[0]` is the root and consecutive
/// entries must be adjacent in the network's current graph.
///
/// Returns the constructed rooted tree **in position space** (vertex `i`
/// of the returned tree is `line[i]`, the root is position 0) together
/// with the number of rounds consumed; when `line` is simply `0..n` in
/// order, positions and node ids coincide.
///
/// # Errors
///
/// * [`CoreError::InvalidInput`] if `line` is empty, repeats nodes, leaves
///   the network, has non-adjacent consecutive entries, or
///   `config.arity < 1`.
/// * [`CoreError::Sim`] on model violations (implementation bugs).
/// * [`CoreError::DidNotConverge`] if the internal round budget is
///   exhausted (implementation bugs).
pub fn run_line_to_tree(
    network: &mut Network,
    line: &[NodeId],
    config: &LineToTreeConfig,
) -> Result<(RootedTree, usize), CoreError> {
    run_async_line_to_tree(network, line, config, &vec![1; line.len()])
}

/// Runs the line-to-tree subroutine with per-position wake-up rounds
/// (Appendix B): `wake_round[i]` (1-based, relative to the start of the
/// subroutine) is when `line[i]` wakes up. Otherwise as
/// [`run_line_to_tree`]; the returned tree is the same for every wake-up
/// schedule (Lemma B.4).
///
/// # Errors
///
/// As [`run_line_to_tree`], plus [`CoreError::InvalidInput`] for a
/// `wake_round` slice of the wrong length.
pub fn run_async_line_to_tree(
    network: &mut Network,
    line: &[NodeId],
    config: &LineToTreeConfig,
    wake_round: &[usize],
) -> Result<(RootedTree, usize), CoreError> {
    let mut scratch = LineScratch::new();
    run_async_line_to_tree_with_scratch(network, line, config, wake_round, &mut scratch)
}

/// [`run_async_line_to_tree`] with caller-owned scratch state: the jump
/// schedule is memoised per (length, arity) and the positional vectors
/// are recycled, so a caller performing many merges (the wreath engine:
/// one tree rebuild per root per phase) pays the planning and allocation
/// cost once per distinct ring size instead of once per merge.
/// Behaviourally identical to the plain entry point.
///
/// # Errors
///
/// As [`run_async_line_to_tree`].
pub fn run_async_line_to_tree_with_scratch(
    network: &mut Network,
    line: &[NodeId],
    config: &LineToTreeConfig,
    wake_round: &[usize],
    scratch: &mut LineScratch,
) -> Result<(RootedTree, usize), CoreError> {
    let n = line.len();
    validate_line(network, line, config.arity, &mut scratch.seen)?;
    if wake_round.len() != n {
        return Err(CoreError::InvalidInput {
            reason: format!(
                "wake_round has {} entries for a line of {} nodes",
                wake_round.len(),
                n
            ),
        });
    }
    if n == 1 {
        let tree = RootedTree::from_parents(NodeId(0), vec![None]).expect("trivial tree");
        return Ok((tree, 0));
    }

    let LineScratch {
        schedules,
        parent_pos,
        children,
        jumps_done,
        will_jump,
        movers,
        wave_acts,
        wave_drops,
        ..
    } = scratch;
    let schedule: &[Vec<usize>] = schedules
        .entry((n, config.arity))
        .or_insert_with(|| plan_sync_schedule(n, config.arity));
    parent_pos.clear();
    parent_pos.extend((0..n).map(|i| i.saturating_sub(1)));
    if children.len() < n {
        children.resize_with(n, Vec::new);
    }
    for list in children[..n].iter_mut() {
        list.clear();
    }
    for (i, list) in children[..n.saturating_sub(1)].iter_mut().enumerate() {
        list.push(i + 1);
    }
    jumps_done.clear();
    jumps_done.resize(n, 0);

    let is_done = |jumps_done: &[usize], pos: usize| jumps_done[pos] >= schedule[pos].len();

    let max_wake = wake_round.iter().copied().max().unwrap_or(1);
    let round_limit = max_wake + 8 * adn_graph::properties::ceil_log2(n.max(2)) + 32;
    let mut rounds = 0usize;

    while !(1..n).all(|pos| is_done(jumps_done, pos)) {
        rounds += 1;
        if rounds > round_limit {
            return Err(CoreError::DidNotConverge {
                algorithm: "AsyncLineToTree",
                phase_limit: round_limit,
            });
        }
        let awake = |pos: usize| rounds >= wake_round[pos];

        // Fixpoint marking of the jumps performed this round: a node may
        // jump if its children either finished, are already ahead, or jump
        // simultaneously (the synchronous-simultaneity case).
        will_jump.clear();
        will_jump.resize(n, false);
        loop {
            let mut changed = false;
            for pos in (1..n).rev() {
                if will_jump[pos] || is_done(jumps_done, pos) || !awake(pos) {
                    continue;
                }
                let cp = parent_pos[pos];
                let gp = schedule[pos][jumps_done[pos]];
                if !awake(cp) || !awake(gp) {
                    continue;
                }
                // Distance-2 witness: the supporting edge (cp, gp) must be
                // active at the beginning of this round.
                if !network.graph().has_edge(line[cp], line[gp]) {
                    continue;
                }
                // Children that still need the (pos, cp) edge must move in
                // the same round.
                let children_ok = children[pos].iter().all(|&c| {
                    is_done(jumps_done, c) || jumps_done[c] > jumps_done[pos] || will_jump[c]
                });
                if !children_ok {
                    continue;
                }
                will_jump[pos] = true;
                changed = true;
            }
            if !changed {
                break;
            }
        }

        movers.clear();
        movers.extend((1..n).filter(|&p| will_jump[p]));
        if movers.is_empty() {
            network.advance_idle_rounds(1);
            continue;
        }
        // Batched wave commit: the supporting edge (cp, gp) was verified
        // active above, so the current parent doubles as the distance-2
        // witness and staging is probe-only.
        wave_acts.clear();
        wave_drops.clear();
        for &pos in movers.iter() {
            let cp = parent_pos[pos];
            let gp = schedule[pos][jumps_done[pos]];
            wave_acts.push(adn_sim::WaveActivation {
                initiator: line[pos],
                target: line[gp],
                witness: line[cp],
            });
            let old_edge = Edge::new(line[pos], line[cp]);
            if !config.protected_edges.contains(&old_edge) {
                wave_drops.push(old_edge);
            }
        }
        network.stage_jump_wave(wave_acts, wave_drops)?;
        network.commit_round();
        for &pos in movers.iter() {
            let cp = parent_pos[pos];
            let gp = schedule[pos][jumps_done[pos]];
            parent_pos[pos] = gp;
            if let Some(at) = children[cp].iter().position(|&c| c == pos) {
                children[cp].swap_remove(at);
            }
            children[gp].push(pos);
            jumps_done[pos] += 1;
        }
    }

    let parents: Vec<Option<NodeId>> = (0..n)
        .map(|pos| {
            if pos == 0 {
                None
            } else {
                Some(NodeId(parent_pos[pos]))
            }
        })
        .collect();
    let tree = RootedTree::from_parents(NodeId(0), parents).expect("valid tree by construction");
    Ok((tree, rounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_graph::properties::ceil_log2;
    use adn_graph::rng::DetRng;
    use adn_graph::{generators, NodeId};

    fn identity_line(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn config(arity: usize) -> LineToTreeConfig {
        LineToTreeConfig {
            arity,
            protected_edges: SortedEdgeSet::new(),
        }
    }

    /// The synchronous execution's tree, read straight off the plan: every
    /// position ends at its last scheduled target (or its initial parent).
    fn planned_tree(n: usize, arity: usize) -> RootedTree {
        let schedule = plan_sync_schedule(n, arity);
        let parents = (0..n)
            .map(|pos| (pos > 0).then(|| NodeId(schedule[pos].last().copied().unwrap_or(pos - 1))))
            .collect();
        RootedTree::from_parents(NodeId(0), parents).unwrap()
    }

    #[test]
    fn all_awake_builds_the_planned_binary_tree_within_proposition_2_2() {
        for &n in &[2usize, 3, 4, 5, 7, 8, 16, 31, 32, 33, 64, 100, 128] {
            let mut net = Network::new(generators::line(n));
            let (tree, rounds) =
                run_line_to_tree(&mut net, &identity_line(n), &LineToTreeConfig::binary()).unwrap();
            assert_eq!(tree, planned_tree(n, 2), "n={n}");
            assert_eq!(tree.root(), NodeId(0));
            // Depth is logarithmic (⌈log n⌉, plus 1 of slack for odd sizes).
            assert!(tree.depth() <= ceil_log2(n) + 1, "n={n}: depth");
            for u in (0..n).map(NodeId) {
                assert!(tree.child_count(u) <= 2, "n={n}: node {u}");
            }
            // Proposition 2.2: ⌈log d⌉ rounds (+1 slack for the final
            // termination-detection sweep).
            assert!(rounds <= ceil_log2(n) + 2, "n={n}: rounds {rounds}");
            let m = net.metrics();
            // Degree during execution stays at most 4.
            assert!(m.max_total_degree <= 4, "n={n}");
            // Active edges per round at most 2n - 3.
            assert!(m.max_active_edges_total <= 2 * n, "n={n}");
            // Each node activates at most 1 edge per round.
            assert!(m.max_node_activations_in_round <= 1, "n={n}");
        }
    }

    #[test]
    fn singleton_and_pair_lines_take_zero_rounds() {
        for n in [1usize, 2] {
            let mut net = Network::new(generators::line(n));
            let (tree, rounds) =
                run_line_to_tree(&mut net, &identity_line(n), &LineToTreeConfig::binary()).unwrap();
            assert_eq!(rounds, 0, "n={n}");
            assert_eq!(tree.node_count(), n);
            assert_eq!(tree.depth(), n - 1);
        }
    }

    #[test]
    fn final_network_edges_match_tree_edges() {
        let n = 64;
        let mut net = Network::new(generators::line(n));
        let (tree, _) =
            run_line_to_tree(&mut net, &identity_line(n), &LineToTreeConfig::binary()).unwrap();
        // The final active edge set is exactly the tree's edge set (no
        // protected edges here, so all former parent edges are gone).
        let final_graph = net.graph();
        assert_eq!(final_graph.edge_count(), n - 1);
        for u in (1..n).map(NodeId) {
            assert!(final_graph.has_edge(u, tree.parent(u).unwrap()));
        }
    }

    #[test]
    fn works_on_reversed_lines() {
        // The line need not be in index order: feed the subroutine the
        // reversed order (root at the other end).
        let n = 33;
        let mut net = Network::new(generators::line(n));
        let line: Vec<NodeId> = (0..n).rev().map(NodeId).collect();
        let (tree, _) = run_line_to_tree(&mut net, &line, &LineToTreeConfig::binary()).unwrap();
        assert_eq!(tree.parent(NodeId(0)), None);
        assert!(tree.depth() <= ceil_log2(n) + 1);
        // Node-id-space parents must be adjacent in the final network.
        for pos in 1..n {
            let parent = line[tree.parent(NodeId(pos)).unwrap().index()];
            assert!(net.graph().has_edge(line[pos], parent), "position {pos}");
        }
    }

    #[test]
    fn polylog_arity_gives_shallower_trees() {
        let n = 256;
        let mut net_bin = Network::new(generators::line(n));
        let (bin, _) =
            run_line_to_tree(&mut net_bin, &identity_line(n), &LineToTreeConfig::binary()).unwrap();
        let mut net_poly = Network::new(generators::line(n));
        let polylog = LineToTreeConfig::polylog(n);
        let (poly, _) = run_line_to_tree(&mut net_poly, &identity_line(n), &polylog).unwrap();
        assert!(
            poly.depth() < bin.depth(),
            "poly {} vs bin {}",
            poly.depth(),
            bin.depth()
        );
        for u in (0..n).map(NodeId) {
            assert!(poly.child_count(u) <= polylog.arity);
        }
    }

    #[test]
    fn uniform_delay_matches_synchronous_output_shifted_in_time() {
        for &delay in &[3usize, 7] {
            let n = 48;
            let mut net = Network::new(generators::line(n));
            let (tree, rounds) =
                run_async_line_to_tree(&mut net, &identity_line(n), &config(2), &vec![delay; n])
                    .unwrap();
            assert_eq!(tree, planned_tree(n, 2));
            assert!(rounds >= delay);
            assert!(rounds <= delay + ceil_log2(n) + 2);
        }
    }

    #[test]
    fn propagation_wake_schedules_match_synchronous_output() {
        // Wake-up times as produced by the wreath merge: the activation
        // message reaches a node after at most O(log n) rounds.
        for &n in &[8usize, 16, 32, 64] {
            let wake: Vec<usize> = (0..n).map(|i| 1 + (i % (ceil_log2(n).max(1)))).collect();
            let mut net = Network::new(generators::line(n));
            let (tree, rounds) =
                run_async_line_to_tree(&mut net, &identity_line(n), &config(2), &wake).unwrap();
            // Lemma B.4: identical final tree.
            assert_eq!(tree, planned_tree(n, 2), "n={n}");
            // Corollary B.5: O(log n + k) rounds.
            assert!(rounds <= 4 * ceil_log2(n) + 8, "n={n}: rounds {rounds}");
            assert!(net.metrics().max_total_degree <= 4);
        }
    }

    #[test]
    fn random_wake_schedules_match_synchronous_output() {
        let mut rng = DetRng::seed_from_u64(7);
        for &n in &[16usize, 40, 64] {
            for _ in 0..4 {
                let max_delay = ceil_log2(n) + 3;
                let wake: Vec<usize> = (0..n).map(|_| 1 + rng.gen_range(0, max_delay)).collect();
                let mut net = Network::new(generators::line(n));
                let (tree, rounds) =
                    run_async_line_to_tree(&mut net, &identity_line(n), &config(2), &wake).unwrap();
                // Lemma B.4: identical to the synchronous execution.
                assert_eq!(tree, planned_tree(n, 2), "n={n}, wake={wake:?}");
                // Corollary B.5: O(log n + k).
                assert!(rounds <= 4 * ceil_log2(n) + 2 * max_delay + 8);
                assert!(net.metrics().max_total_degree <= 4, "n={n}, wake={wake:?}");
            }
        }
    }

    #[test]
    fn polylog_arity_async_matches_sync() {
        let n = 128;
        let arity = ceil_log2(n);
        let wake: Vec<usize> = (0..n).map(|i| 1 + i % 5).collect();
        let mut net = Network::new(generators::line(n));
        let (tree, _) =
            run_async_line_to_tree(&mut net, &identity_line(n), &config(arity), &wake).unwrap();
        assert_eq!(tree, planned_tree(n, arity));
        for u in (0..n).map(NodeId) {
            assert!(tree.child_count(u) <= arity);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut net = Network::new(generators::line(4));
        let binary = LineToTreeConfig::binary();
        for (line, cfg) in [
            // Empty line.
            (vec![], &binary),
            // Repeated node.
            (vec![NodeId(0), NodeId(1), NodeId(0)], &binary),
            // Node outside the network.
            (vec![NodeId(3), NodeId(4)], &binary),
            // Non-adjacent consecutive nodes.
            (vec![NodeId(0), NodeId(2)], &binary),
            // Zero arity.
            (vec![NodeId(0), NodeId(1)], &config(0)),
        ] {
            assert!(
                matches!(
                    run_line_to_tree(&mut net, &line, cfg),
                    Err(CoreError::InvalidInput { .. })
                ),
                "{line:?}"
            );
        }
        // Wake-up schedule of the wrong length.
        assert!(matches!(
            run_async_line_to_tree(&mut net, &identity_line(4), &binary, &[1; 3]),
            Err(CoreError::InvalidInput { .. })
        ));
    }

    #[test]
    fn protected_edges_survive() {
        let n = 32;
        let g = generators::line(n);
        let config = LineToTreeConfig::binary().with_protected_edges(g.edges());
        let wake: Vec<usize> = (0..n).map(|i| 1 + i % 3).collect();
        let mut net = Network::new(g.clone());
        let (tree, _) =
            run_async_line_to_tree(&mut net, &identity_line(n), &config, &wake).unwrap();
        // All original line edges are still active, and so are the tree's.
        for e in g.edges() {
            assert!(net.graph().has_edge(e.a, e.b), "protected edge {e:?}");
        }
        for u in (1..n).map(NodeId) {
            assert!(net.graph().has_edge(u, tree.parent(u).unwrap()));
        }
        // Degree: 2 line edges + at most (1 parent + 2 children) tree edges.
        assert!(net.metrics().max_total_degree <= 6);
    }
}
