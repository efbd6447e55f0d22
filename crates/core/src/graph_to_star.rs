//! **GraphToStar** (Section 3): the edge-optimal algorithm for general
//! graphs.
//!
//! The nodes are partitioned into *committees*, each internally organised
//! as a star whose centre is the committee's leader (the maximum-UID node
//! of the committee). Committees repeatedly select the largest-UID
//! neighbouring committee and merge into it; chains of selections form
//! trees of committees which are collapsed with the `TreeToStar` idea
//! applied at committee granularity (the *pulling* mode). When a single
//! committee remains, its leader is the network-wide maximum-UID node
//! `u_max`, and one final phase deactivates every remaining edge except the
//! star edges, solving Depth-1 Tree.
//!
//! Complexity (Theorem 3.8), all verified by the tests and the benchmark
//! harness: `O(log n)` rounds, at most `2n` active edges per round, an
//! optimal `O(n log n)` total edge activations, and (necessarily) a linear
//! maximum degree at the star centre.

use crate::algorithm::RunConfig;
use crate::committee::{
    validate_input, Choice, CommitteeForest, CommitteeId, IncrementalAdjacency, PhaseLedger,
};
use crate::{CoreError, TransformationOutcome};
use adn_graph::{Edge, Graph, NodeId, UidMap};
use adn_sim::{Network, WaveActivation};

/// The mode a committee executes in during a phase (Section 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Looking for a larger neighbouring committee to join.
    Selection,
    /// Merging into the committee led by the given node in this phase.
    Merging { into: NodeId },
    /// Climbing the tree of selections towards its root. `attach` is the
    /// node (in the committee above us) that our leader currently holds an
    /// activated edge to; it is the parent committee's leader when we first
    /// enter pulling mode, and is advanced one hop towards the tree's root
    /// every phase (TreeToStar applied at committee granularity).
    Pulling { attach: NodeId },
    /// Selected by others; waiting for them to merge into us.
    Waiting,
}

impl Mode {
    /// Committed to a merge or a climb: not a selectable target.
    pub(crate) fn is_committed(self) -> bool {
        matches!(self, Mode::Merging { .. } | Mode::Pulling { .. })
    }
}

/// A structural committee invariant did not hold (a merge target or
/// attach node fell outside the tracked vertex set). Unreachable in the
/// fault-free model; surfaced as a clean error (instead of the `expect`
/// panics this engine used to carry) so adversarial stress runs record a
/// `Failed` outcome rather than a `Panicked` one.
fn invariant_error(detail: String) -> CoreError {
    CoreError::BrokenInvariant {
        algorithm: "GraphToStar",
        detail,
    }
}

/// Executes GraphToStar on `network` (trait entry point; see
/// [`crate::algorithm::GraphToStar`]).
///
/// # Errors
///
/// * [`CoreError::InvalidInput`] for empty or disconnected initial
///   networks.
/// * [`CoreError::DidNotConverge`] / [`CoreError::Sim`] on implementation
///   bugs (the algorithm is deterministic and proven to terminate).
pub(crate) fn execute(
    network: &mut Network,
    uids: &UidMap,
    config: &RunConfig,
) -> Result<TransformationOutcome, CoreError> {
    validate_input(network, uids, "GraphToStar")?;
    if !config.engine.is_synchronous() {
        return crate::subroutines::runtime_committee::run_runtime_star(network, uids, config);
    }
    let initial = network.graph().clone();
    let n = initial.node_count();

    network.set_trace_enabled(config.trace.is_per_round());
    // The incremental adjacency consumes the committee tap of the
    // network's round-event bus (and the forest's merges) instead of
    // rebuilding from the edge set every phase. The tap is armed before
    // the first operation so no delta is missed, and disarmed on *every*
    // exit path — error returns included — so a caller's network is
    // never left accumulating deltas.
    network.set_edge_delta_tracking(true);
    let result = run_phases(network, uids, config, &initial, n);
    network.set_edge_delta_tracking(false);
    result
}

/// The phase loop of [`execute`], split out so the edge-delta hook is
/// disarmed on every exit path (the engine's `run_rounds` discipline).
fn run_phases(
    network: &mut Network,
    uids: &UidMap,
    config: &RunConfig,
    initial: &Graph,
    n: usize,
) -> Result<TransformationOutcome, CoreError> {
    let mut state = State::new(initial);
    let mut ledger = phase_ledger(n);

    while state.forest.live_count() > 1 {
        ledger.open(config, network, state.forest.live_count())?;
        network.note_groups_alive(state.forest.live_count());
        state.run_phase(network, uids, initial)?;
    }

    // Termination phase: keep only the star edges.
    let leader = state.forest.leader(state.forest.live_ids()[0]);
    if n > 1 {
        config.check_round_budget(network)?;
        network.note_groups_alive(1);
        let graph = network.graph().clone();
        for e in graph.edges() {
            if e.a != leader && e.b != leader {
                network.stage_deactivation(e.a, e.b)?;
            }
        }
        network.commit_round();
        // The paper charges 2 rounds for the termination phase (detection +
        // clean-up); charge the detection round explicitly.
        network.advance_idle_rounds(1);
        ledger.terminate();
    }

    config.check_round_budget(network)?;
    debug_assert_eq!(Some(leader), uids.max_uid_node());
    let mut outcome = TransformationOutcome::from_network(leader, network);
    ledger.record(&mut outcome);
    Ok(outcome)
}

/// The phase accounting of GraphToStar on `n` nodes, for both engines.
pub(crate) fn phase_ledger(n: usize) -> PhaseLedger {
    PhaseLedger::new(
        "GraphToStar",
        40 * adn_graph::properties::ceil_log2(n.max(2)) + 80,
    )
}

struct State {
    /// The arena-backed committee partition. Leaders never migrate between
    /// slots in this algorithm (an absorbing committee keeps its leader),
    /// so ascending slot order is ascending leader order — the iteration
    /// order the old `BTreeMap<NodeId, Committee>` provided.
    forest: CommitteeForest,
    /// Delta-driven committee adjacency, synced at every phase start from
    /// the network's edge deltas and the forest's merges.
    adjacency: IncrementalAdjacency,
    /// Per-slot mode column, parallel to the forest arena.
    mode: Vec<Mode>,
}

impl State {
    fn new(initial: &Graph) -> Self {
        let n = initial.node_count();
        let forest = CommitteeForest::singletons(n);
        let adjacency = IncrementalAdjacency::new(&forest, initial);
        State {
            forest,
            adjacency,
            mode: vec![Mode::Selection; n],
        }
    }

    /// Plans the phase with [`plan_phase`] and runs it as lock-step
    /// rounds: round A, then round B.
    fn run_phase(
        &mut self,
        network: &mut Network,
        uids: &UidMap,
        initial: &Graph,
    ) -> Result<(), CoreError> {
        let deltas = network.take_edge_deltas();
        let adjacency = self
            .adjacency
            .refresh(&self.forest, network.graph(), &deltas);
        let (forest, mode) = (&self.forest, &self.mode);
        let eligible = |o: CommitteeId| !mode[o.index()].is_committed();
        let phase = plan_phase(forest, mode, network.graph(), initial, |cid| {
            Ok(adjacency.select_largest_uid_neighbor(cid, forest, uids, eligible))
        })?;

        network.stage_jump_wave(&phase.round_a, &edges(&phase.round_a_drops))?;
        let summary_a = network.commit_round();
        network.stage_jump_wave(&phase.round_b, &edges(&phase.round_b_drops))?;
        if !phase.round_b.is_empty() || !phase.selections.is_empty() {
            // A selection phase always costs 2 rounds (Lemma 3.7), even if
            // the second hop happened to be unnecessary for some selectors.
            network.commit_round();
        } else if summary_a.activations == 0 && summary_a.deactivations == 0 {
            // A phase with no edge operations at all (pure mode
            // transitions) still costs a round of communication.
            network.advance_idle_rounds(1);
        }

        end_phase(&mut self.forest, &mut self.mode, &phase)
    }
}

/// `(initiator, peer)` drops as edges.
fn edges(drops: &[(NodeId, NodeId)]) -> Vec<Edge> {
    drops.iter().map(|&(a, b)| Edge::new(a, b)).collect()
}

/// One GraphToStar phase as planned by [`plan_phase`]: the committee
/// transitions that feed [`end_phase`], and the edge operations of its
/// two rounds. Activations carry their distance-2 witness; drops are
/// `(initiator, peer)` pairs and never touch an initial edge.
#[derive(Debug, Default)]
pub(crate) struct StarPhase {
    /// `(selector, target)` pairs of the committees in selection mode.
    pub(crate) selections: Vec<(CommitteeId, CommitteeId)>,
    /// `(dying, absorbing)` pairs of the committees in merging mode.
    pub(crate) merges: Vec<(CommitteeId, CommitteeId)>,
    /// The new attach node of every committee in pulling mode.
    pub(crate) climbs: Vec<(CommitteeId, NodeId)>,
    /// Round A: selection first hops, merge-member hops, climbs.
    pub(crate) round_a: Vec<WaveActivation>,
    /// Round A's drops: the merged members' old star edges, then the
    /// climbers' old attach edges.
    pub(crate) round_a_drops: Vec<(NodeId, NodeId)>,
    /// Round B: the selection second hops through a helper edge.
    pub(crate) round_b: Vec<WaveActivation>,
    /// Round B's drops: those helper edges.
    pub(crate) round_b_drops: Vec<(NodeId, NodeId)>,
}

/// Plans one GraphToStar phase for both engines — the synchronous
/// [`State::run_phase`] and the actor engine
/// ([`crate::subroutines::runtime_committee`]) — from the committee
/// partition, the mode column and the current and initial graphs.
/// `choose` returns the selection of a committee in selection mode.
///
/// * A **selecting** leader `u` reaches the target leader `v` directly
///   when the bridge `(x, y)` puts them at distance 2, and otherwise
///   through the helper edge `(u, y)` in round A and `(u, v)` via `y` in
///   round B (Lemma 3.7); already adjacent leaders need no edge.
/// * Every member of a **merging** committee hops onto the target leader
///   via its own leader.
/// * A **pulling** committee climbs one level of the selection tree as
///   it stood at the phase start (TreeToStar at committee granularity).
pub(crate) fn plan_phase<F>(
    forest: &CommitteeForest,
    mode: &[Mode],
    graph: &Graph,
    initial: &Graph,
    mut choose: F,
) -> Result<StarPhase, CoreError>
where
    F: FnMut(CommitteeId) -> Result<Option<Choice>, CoreError>,
{
    let mut phase = StarPhase::default();
    for &cid in forest.live_ids() {
        if mode[cid.index()] != Mode::Selection {
            continue;
        }
        let Some((target, x, y)) = choose(cid)? else {
            continue;
        };
        phase.selections.push((cid, target));
        let u = forest.leader(cid);
        let v = forest.leader(target);
        if graph.has_edge(u, v) {
            // Already adjacent (for example both singletons joined by an
            // initial edge): nothing to activate.
            continue;
        }
        if u == x || y == v {
            // The leader-leader edge is one hop away: witness y (if the
            // selector's leader is the bridge) or witness x (if the
            // bridge lands on the target leader).
            phase.round_a.push(WaveActivation {
                initiator: u,
                target: v,
                witness: if u == x { y } else { x },
            });
            continue;
        }
        // General case: helper edge (u, y) via witness x now, then the
        // leader-leader edge via witness y (adjacent to u through the
        // helper and to v inside the target committee).
        phase.round_a.push(WaveActivation {
            initiator: u,
            target: y,
            witness: x,
        });
        phase.round_b.push(WaveActivation {
            initiator: u,
            target: v,
            witness: y,
        });
        if !initial.has_edge(u, y) {
            phase.round_b_drops.push((u, y));
        }
    }

    for &cid in forest.live_ids() {
        let Mode::Merging { into } = mode[cid.index()] else {
            continue;
        };
        let leader = forest.leader(cid);
        let into_cid = forest
            .committee_of(into)
            .ok_or_else(|| invariant_error(format!("merge target {into} is untracked")))?;
        phase.merges.push((cid, into_cid));
        for &x in forest.members(cid) {
            if x == leader {
                continue;
            }
            // The dying committee's leader sits on both the star edge
            // (x, leader) and the leader-leader edge (leader, into) from
            // the selection phase.
            phase.round_a.push(WaveActivation {
                initiator: x,
                target: into,
                witness: leader,
            });
            if !initial.has_edge(x, leader) {
                phase.round_a_drops.push((x, leader));
            }
        }
    }

    // The climb target is the next node up the selection tree: the attach
    // node's committee leader if we are attached to an ordinary member,
    // otherwise whatever our attach leader itself points upwards to (its
    // merge target or its own attach node).
    for &cid in forest.live_ids() {
        let Mode::Pulling { attach } = mode[cid.index()] else {
            continue;
        };
        let leader = forest.leader(cid);
        let attach_cid = forest
            .committee_of(attach)
            .ok_or_else(|| invariant_error(format!("attach node {attach} is untracked")))?;
        let attach_leader = forest.leader(attach_cid);
        let target = if attach != attach_leader {
            // Hop from an ex-leader member to its current leader.
            attach_leader
        } else {
            match mode[attach_cid.index()] {
                Mode::Merging { into } => into,
                Mode::Pulling { attach: up } => up,
                // The attach committee is a root (waiting or back in
                // selection): stay put, we merge into it next phase.
                _ => attach,
            }
        };
        if target != attach {
            // The attach node supports both the old (leader, attach) edge
            // and the upward (attach, target) edge.
            phase.round_a.push(WaveActivation {
                initiator: leader,
                target,
                witness: attach,
            });
            if !initial.has_edge(leader, attach) {
                phase.round_a_drops.push((leader, attach));
            }
        }
        phase.climbs.push((cid, target));
    }
    Ok(phase)
}

/// The end of a GraphToStar phase planned by [`plan_phase`], shared by
/// both engines: absorb the merging committees, then move every committee
/// to its next mode.
pub(crate) fn end_phase(
    forest: &mut CommitteeForest,
    mode: &mut [Mode],
    phase: &StarPhase,
) -> Result<(), CoreError> {
    let StarPhase {
        selections,
        merges,
        climbs,
        ..
    } = phase;
    let slots = forest.slot_count();
    let mut did_select = vec![false; slots];
    let mut selected_by = vec![false; slots];
    for &(selector, target) in selections {
        did_select[selector.index()] = true;
        selected_by[target.index()] = true;
    }

    forest.absorb_all(merges);

    // Pulling committees first. If the new attach node is the leader of a
    // root committee (waiting / back in selection), we merge into it next
    // phase; otherwise we keep pulling.
    for &(cid, new_attach) in climbs {
        let attach_cid = forest
            .committee_of(new_attach)
            .ok_or_else(|| invariant_error(format!("attach node {new_attach} is untracked")))?;
        let attach_is_root_leader = new_attach == forest.leader(attach_cid)
            && matches!(mode[attach_cid.index()], Mode::Waiting | Mode::Selection);
        mode[cid.index()] = if attach_is_root_leader {
            Mode::Merging { into: new_attach }
        } else {
            Mode::Pulling { attach: new_attach }
        };
    }

    // Selector committees: pull when the target selected too, else merge.
    for &(selector, target) in selections {
        let target_leader = forest.leader(target);
        mode[selector.index()] = if did_select[target.index()] {
            Mode::Pulling {
                attach: target_leader,
            }
        } else {
            Mode::Merging {
                into: target_leader,
            }
        };
    }

    // Committees that did not select: Waiting / Selection transitions.
    let mut has_children = vec![false; slots];
    for &cid in forest.live_ids() {
        let parent = match mode[cid.index()] {
            Mode::Merging { into } => Some(into),
            Mode::Pulling { attach } => Some(attach),
            _ => None,
        };
        if let Some(p) = parent {
            let pc = forest
                .committee_of(p)
                .ok_or_else(|| invariant_error(format!("parent node {p} is untracked")))?;
            has_children[pc.index()] = true;
        }
    }
    for &cid in forest.live_ids() {
        if matches!(mode[cid.index()], Mode::Selection | Mode::Waiting) {
            mode[cid.index()] = if selected_by[cid.index()] || has_children[cid.index()] {
                Mode::Waiting
            } else {
                Mode::Selection
            };
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_graph::properties::{ceil_log2, is_star, star_center};
    use adn_graph::{generators, GraphFamily, UidAssignment};

    fn check_outcome(initial: &Graph, uids: &UidMap, outcome: &TransformationOutcome) {
        let n = initial.node_count();
        // Depth-1 Tree: the final network is a spanning star...
        assert!(
            is_star(&outcome.final_graph),
            "final graph is not a star (n={n})"
        );
        // ...centred at the elected leader, which is the max-UID node.
        assert_eq!(star_center(&outcome.final_graph), Some(outcome.leader));
        assert_eq!(Some(outcome.leader), uids.max_uid_node());
        // Final diameter 2 (for n >= 3).
        if n >= 3 {
            assert_eq!(outcome.final_diameter(), Some(2));
        }
    }

    fn run_on(initial: &Graph, uids: &UidMap) -> Result<TransformationOutcome, CoreError> {
        let mut network = Network::new(initial.clone());
        execute(&mut network, uids, &RunConfig::traced())
    }

    fn run(initial: &Graph, assignment: UidAssignment) -> (UidMap, TransformationOutcome) {
        let uids = UidMap::new(initial.node_count(), assignment);
        let outcome = run_on(initial, &uids).expect("GraphToStar must succeed");
        (uids, outcome)
    }

    #[test]
    fn solves_depth_1_tree_on_lines() {
        for &n in &[2usize, 3, 4, 7, 8, 16, 31, 64, 100, 128] {
            let g = generators::line(n);
            let (uids, outcome) = run(&g, UidAssignment::Sequential);
            check_outcome(&g, &uids, &outcome);
        }
    }

    #[test]
    fn solves_depth_1_tree_on_rings_and_stars_and_grids() {
        for g in [
            generators::ring(30),
            generators::star(30),
            generators::grid(5, 6),
            generators::complete_binary_tree(31),
        ] {
            let (uids, outcome) = run(&g, UidAssignment::Sequential);
            check_outcome(&g, &uids, &outcome);
            let (uids, outcome) = run(&g, UidAssignment::Reversed);
            check_outcome(&g, &uids, &outcome);
        }
    }

    #[test]
    fn solves_depth_1_tree_on_random_graphs_with_random_uids() {
        for seed in 0..6u64 {
            let g = generators::random_connected(50, 0.08, seed);
            let (uids, outcome) = run(&g, UidAssignment::RandomPermutation { seed });
            check_outcome(&g, &uids, &outcome);
        }
    }

    #[test]
    fn solves_depth_1_tree_on_all_families() {
        for family in GraphFamily::ALL {
            let g = family.generate(40, 11);
            let (uids, outcome) = run(&g, UidAssignment::RandomPermutation { seed: 5 });
            check_outcome(&g, &uids, &outcome);
        }
    }

    #[test]
    fn time_is_logarithmic() {
        // Theorem 3.8 up to n in the thousands, where a hidden linear term
        // would break the envelope, under both UID assignments.
        for &n in &[16usize, 64, 256, 1024, 4096] {
            let g = generators::line(n);
            for assignment in [
                UidAssignment::Sequential,
                UidAssignment::RandomPermutation { seed: 2 },
            ] {
                let (uids, outcome) = run(&g, assignment);
                assert!(is_star(&outcome.final_graph), "n={n}: not a star");
                assert_eq!(Some(outcome.leader), uids.max_uid_node());
                // O(log n) rounds. Generous constant: 12.
                assert!(
                    outcome.rounds <= 12 * ceil_log2(n) + 12,
                    "n={n} {assignment:?}: rounds {} not O(log n)",
                    outcome.rounds
                );
                // Phases are O(log n) too.
                assert!(
                    outcome.phases <= 8 * ceil_log2(n) + 8,
                    "n={n} {assignment:?}: phases {} not O(log n)",
                    outcome.phases
                );
            }
        }
    }

    #[test]
    fn edge_complexity_matches_theorem_3_8() {
        for &n in &[32usize, 64, 128, 256] {
            let g = generators::line(n);
            let (_, outcome) = run(&g, UidAssignment::RandomPermutation { seed: 3 });
            let m = &outcome.metrics;
            // O(n log n) total activations, generous constant 4.
            assert!(
                m.total_activations <= 4 * n * ceil_log2(n).max(1),
                "n={n}: {} activations",
                m.total_activations
            );
            // At most 2n activated (non-initial) edges alive at any time.
            assert!(
                m.max_activated_edges <= 2 * n,
                "n={n}: {} active activated edges",
                m.max_activated_edges
            );
            // Each node activates at most one edge per round.
            assert!(m.max_node_activations_in_round <= 1);
        }
    }

    #[test]
    fn committee_count_decays_to_one() {
        let g = generators::random_connected(80, 0.05, 4);
        let (_, outcome) = run(&g, UidAssignment::RandomPermutation { seed: 4 });
        let counts = &outcome.committees_per_phase;
        assert_eq!(counts.first(), Some(&80));
        assert_eq!(counts.last(), Some(&1));
        // Monotonically non-increasing.
        for w in counts.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn network_stays_connected_throughout() {
        // Connectivity preservation: the final graph must span all nodes; a
        // disconnection could never be repaired by distance-2 activations,
        // so a connected final star certifies connectivity was preserved.
        let g = generators::barbell(8, 6);
        let (uids, outcome) = run(&g, UidAssignment::Sequential);
        check_outcome(&g, &uids, &outcome);
        assert!(adn_graph::traversal::is_connected(&outcome.final_graph));
    }

    #[test]
    fn rejects_invalid_inputs() {
        let uids = UidMap::new(0, UidAssignment::Sequential);
        assert!(matches!(
            run_on(&Graph::new(0), &uids),
            Err(CoreError::InvalidInput { .. })
        ));
        let mut g = generators::line(6);
        g.remove_edge(NodeId(2), NodeId(3)).unwrap();
        let uids = UidMap::new(6, UidAssignment::Sequential);
        assert!(matches!(
            run_on(&g, &uids),
            Err(CoreError::InvalidInput { .. })
        ));
        let uids = UidMap::new(5, UidAssignment::Sequential);
        assert!(matches!(
            run_on(&generators::line(6), &uids),
            Err(CoreError::InvalidInput { .. })
        ));
    }

    #[test]
    fn single_node_and_pair() {
        let (uids, outcome) = run(&Graph::new(1), UidAssignment::Sequential);
        assert_eq!(outcome.leader, uids.max_uid_node().unwrap());
        assert_eq!(outcome.final_graph.edge_count(), 0);

        let (uids, outcome) = run(&generators::line(2), UidAssignment::Sequential);
        check_outcome(&generators::line(2), &uids, &outcome);
    }
}
