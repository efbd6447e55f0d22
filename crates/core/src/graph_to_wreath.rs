//! **GraphToWreath** (Section 4): bounded-degree transformation into a
//! spanning complete binary tree.
//!
//! Committees are *wreaths*: the union of a ring (used for merging) and a
//! complete binary tree spanning the ring (used for intra-committee
//! communication), Definition 4.1. Each phase, every committee selects the
//! largest-UID neighbouring committee; the selection edges form a forest
//! of committee trees, and each tree merges into its root in a single
//! phase by (i) splicing all rings into one spanning ring with the chained
//! construction of Appendix B ("Merging the Spanning Ring Subgraph"),
//! (ii) discarding the old tree edges and (iii) rebuilding a complete
//! binary tree over the merged ring with the (asynchronous)
//! `LineToCompleteBinaryTree` subroutine, keeping the ring edges protected
//! so the result is again a wreath. When a single committee remains, the
//! termination phase deletes everything except the tree, solving
//! Depth-`log n` Tree with the elected leader `u_max` at the root.
//!
//! Complexity (Theorem 4.2): `O(log² n)` rounds, `O(n log² n)` total edge
//! activations, `O(n)` active edges per round and `O(1)` maximum activated
//! degree (the total degree is bounded by a constant plus the initial
//! degree). All of these are verified by the tests and regenerated by the
//! benchmark harness (experiment T2).
//!
//! A phase is planned once, by the `WreathPlanner` below, and executed
//! by two engines: the lock-step rounds of this module and the actor
//! mini-phases of [`crate::subroutines::runtime_committee`]. The same
//! engines, instantiated with a polylogarithmic tree arity, yield
//! [`crate::graph_to_thin_wreath`] (Section 5).

use crate::algorithm::RunConfig;
use crate::committee::{
    validate_input, Choice, CommitteeForest, CommitteeId, IncrementalAdjacency, PhaseLedger,
    SelectionForest,
};
use crate::subroutines::line_to_tree::{
    run_async_line_to_tree_with_scratch, LineScratch, LineToTreeConfig,
};
use crate::{CoreError, TransformationOutcome};
use adn_graph::edgeset::SortedEdgeSet;
use adn_graph::properties::ceil_log2;
use adn_graph::{Edge, Graph, NodeId, RootedTree, UidMap};
use adn_sim::{Network, WaveActivation};

/// Parameters distinguishing the wreath-family algorithms.
#[derive(Debug, Clone)]
pub struct WreathConfig {
    /// Human-readable algorithm name (used in error reports).
    pub name: &'static str,
    /// Arity of the spanning tree rebuilt inside each committee: 2 for
    /// GraphToWreath (complete binary tree), `⌈log n⌉` for
    /// GraphToThinWreath (complete polylogarithmic tree).
    pub tree_arity: usize,
    /// Whether to charge explicit idle rounds for intra-committee
    /// communication (selection, coordination), proportional to the
    /// diameter of the committees involved, as the paper's accounting
    /// prescribes. Disabling it is useful for ablation experiments.
    pub charge_communication: bool,
}

impl WreathConfig {
    /// The GraphToWreath configuration (binary trees, Section 4).
    pub fn binary() -> Self {
        WreathConfig {
            name: "GraphToWreath",
            tree_arity: 2,
            charge_communication: true,
        }
    }

    /// The GraphToThinWreath configuration for a network of `n` nodes
    /// (polylogarithmic-arity trees, Section 5).
    pub fn polylog(n: usize) -> Self {
        WreathConfig {
            name: "GraphToThinWreath",
            tree_arity: ceil_log2(n.max(4)).max(2),
            charge_communication: true,
        }
    }

    /// The phase accounting of this algorithm on `n` nodes, for both
    /// engines.
    pub(crate) fn phase_ledger(&self, n: usize) -> PhaseLedger {
        PhaseLedger::new(self.name, 20 * ceil_log2(n.max(2)) + 40)
    }
}

/// The predecessor (counter-clockwise neighbour) of position `i` on a
/// committee ring.
fn ccw(ring: &[NodeId], i: usize) -> NodeId {
    let n = ring.len();
    ring[(i + n - 1) % n]
}

/// Position of `u` on a committee ring, if present.
fn position_of(ring: &[NodeId], u: NodeId) -> Option<usize> {
    ring.iter().position(|&x| x == u)
}

/// A structural committee/ring invariant did not hold. Unreachable in the
/// fault-free model; surfaced as a clean error (instead of the `expect`
/// panics this engine used to carry) so adversarial stress runs record a
/// `Failed` outcome rather than a `Panicked` one.
fn invariant_error(algorithm: &'static str, detail: String) -> CoreError {
    CoreError::BrokenInvariant { algorithm, detail }
}

/// The edge operations of one splice level, planned by
/// [`WreathPlanner::next_level`] and executed as two rounds: round A
/// (helpers and singleton-root closing edges), round B (the remaining new
/// ring edges plus the clean-up). Activations carry their distance-2
/// witness as `(initiator, target, witness)`.
#[derive(Debug, Default)]
pub(crate) struct SpliceLevel {
    round_a: Vec<(NodeId, NodeId, NodeId)>,
    round_b: Vec<(NodeId, NodeId, NodeId)>,
    helpers: Vec<(NodeId, NodeId, NodeId)>,
    deactivate: Vec<(NodeId, NodeId)>,
}

impl SpliceLevel {
    /// Round A's activations that are not already active in `graph` (the
    /// snapshot before the level).
    pub(crate) fn round_a<'a>(
        &'a self,
        graph: &'a Graph,
    ) -> impl Iterator<Item = WaveActivation> + 'a {
        missing(self.round_a.iter().chain(&self.helpers), graph)
    }

    /// Round B's activations that are not already active in `graph` (the
    /// snapshot after round A).
    pub(crate) fn round_b<'a>(
        &'a self,
        graph: &'a Graph,
    ) -> impl Iterator<Item = WaveActivation> + 'a {
        missing(self.round_b.iter(), graph)
    }

    /// Round B's deactivations as `(initiator, peer)` pairs: helper edges
    /// that are not initial edges and are still active in `graph` (those
    /// that coincided with an existing bridge stay), then the replaced
    /// ring edges that are not initial edges.
    pub(crate) fn round_b_drops<'a>(
        &'a self,
        graph: &'a Graph,
        initial: &'a Graph,
    ) -> impl Iterator<Item = (NodeId, NodeId)> + 'a {
        let helpers = self
            .helpers
            .iter()
            .map(|&(a, b, _)| (a, b))
            .filter(move |&(a, b)| !initial.has_edge(a, b) && graph.has_edge(a, b));
        let replaced = self
            .deactivate
            .iter()
            .copied()
            .filter(move |&(a, b)| !initial.has_edge(a, b));
        helpers.chain(replaced)
    }
}

/// The planned activations that are real edge changes in `graph`.
fn missing<'a>(
    planned: impl Iterator<Item = &'a (NodeId, NodeId, NodeId)> + 'a,
    graph: &'a Graph,
) -> impl Iterator<Item = WaveActivation> + 'a {
    planned
        .filter(move |&&(a, b, _)| a != b && !graph.has_edge(a, b))
        .map(|&(initiator, target, witness)| WaveActivation {
            initiator,
            target,
            witness,
        })
}

/// The wreath phase planner shared by the synchronous engine
/// ([`run_phases`]) and the actor engine
/// ([`crate::subroutines::runtime_committee`]): the committee partition,
/// every committee's wreath (its ring as the forest's member order, its
/// spanning tree), and the per-phase merge plan. The engines only differ
/// in how they execute the planned operations — lock-step rounds or
/// message-driven actors between barriers.
///
/// A phase is planned in this order: [`select`](Self::select) records the
/// selections and seeds the rings to merge; [`next_level`](Self::next_level)
/// plans one BFS level of ring splices per call until it returns `None`;
/// [`close_rings`](Self::close_rings) materialises the merged rings and
/// lists the stale tree edges to drop; [`rebuild_trees`](Self::rebuild_trees)
/// installs a tree over every merged ring and retires the committees that
/// merged away.
pub(crate) struct WreathPlanner {
    name: &'static str,
    arity: usize,
    /// The arena-backed committee partition. Member lists hold the
    /// committee ring order, starting at the leader; leaders never migrate
    /// between slots, so ascending slot order is ascending leader order.
    forest: CommitteeForest,
    /// Per-slot spanning-tree edges and depth, parallel to the arena.
    tree_edges: Vec<Vec<Edge>>,
    tree_depth: Vec<usize>,
    /// Rings under construction as successor pointers (rings are
    /// node-disjoint, so one column serves every root simultaneously),
    /// with per-node `(epoch, root)` marks for clean membership checks, a
    /// per-slot ring length and per-slot buffers for the materialised
    /// rings. Allocated once and reused across phases.
    ring_succ: Vec<NodeId>,
    ring_mark: Vec<(u64, CommitteeId)>,
    ring_len: Vec<usize>,
    merged_line: Vec<Vec<NodeId>>,
    epoch: u64,
    /// This phase's selections, per slot.
    selected: Vec<Option<Choice>>,
    sel: SelectionForest,
    /// The committees whose children form the next splice level.
    frontier: Vec<CommitteeId>,
    /// Old tree edges of every committee taking part in a merge.
    stale_tree_edges: Vec<Edge>,
    merged_any: bool,
}

impl WreathPlanner {
    /// A planner over `n` singleton committees.
    pub(crate) fn new(config: &WreathConfig, n: usize) -> Self {
        let forest = CommitteeForest::singletons(n);
        let sel = SelectionForest::new(&forest, &[]);
        WreathPlanner {
            name: config.name,
            arity: config.tree_arity,
            forest,
            tree_edges: vec![Vec::new(); n],
            tree_depth: vec![0; n],
            ring_succ: (0..n).map(NodeId).collect(),
            ring_mark: vec![(0, CommitteeId(0)); n],
            ring_len: vec![0; n],
            merged_line: vec![Vec::new(); n],
            epoch: 0,
            selected: Vec::new(),
            sel,
            frontier: Vec::new(),
            stale_tree_edges: Vec::new(),
            merged_any: false,
        }
    }

    /// The current committee partition.
    pub(crate) fn forest(&self) -> &CommitteeForest {
        &self.forest
    }

    /// The deepest spanning tree among the live committees.
    pub(crate) fn max_tree_depth(&self) -> usize {
        self.forest
            .live_ids()
            .iter()
            .map(|c| self.tree_depth[c.index()])
            .max()
            .unwrap_or(0)
    }

    /// Records every live committee's selection, as returned by `choose`.
    /// Returns `false` when no committee selected. Otherwise builds the
    /// selection forest and seeds the ring of every root that others
    /// merge into.
    pub(crate) fn select<F>(&mut self, mut choose: F) -> Result<bool, CoreError>
    where
        F: FnMut(&CommitteeForest, CommitteeId) -> Result<Option<Choice>, CoreError>,
    {
        self.selected.clear();
        self.selected.resize(self.forest.slot_count(), None);
        let mut sel_edges: Vec<(CommitteeId, CommitteeId)> = Vec::new();
        for &cid in self.forest.live_ids() {
            if let Some(choice) = choose(&self.forest, cid)? {
                self.selected[cid.index()] = Some(choice);
                sel_edges.push((cid, choice.0));
            }
        }
        if sel_edges.is_empty() {
            return Ok(false);
        }
        self.sel = SelectionForest::new(&self.forest, &sel_edges);
        self.epoch += 1;
        for &r in self.sel.roots() {
            if !self.sel.has_children(r) {
                // Untouched committee: never spliced, never rebuilt.
                continue;
            }
            let members = self.forest.members(r);
            for w in members.windows(2) {
                self.ring_succ[w[0].index()] = w[1];
            }
            self.ring_succ[members[members.len() - 1].index()] = members[0];
            for &u in members {
                self.ring_mark[u.index()] = (self.epoch, r);
            }
            self.ring_len[r.index()] = members.len();
        }
        self.stale_tree_edges.clear();
        self.merged_any = false;
        self.frontier.clear();
        self.frontier.extend_from_slice(self.sel.roots());
        Ok(true)
    }

    /// Plans the next BFS level of ring splices, or returns `None` when
    /// every selection tree is spliced. Splices of one level execute in
    /// the same pair of rounds, exactly as in the appendix's chained
    /// construction: the children of a level are grouped by `(root,
    /// attach node y)` and chained one after the other between `y` and
    /// its ring successor. A group splice links the child segments in
    /// O(segment) pointer writes; the merged rings are materialised once,
    /// by [`close_rings`](Self::close_rings).
    pub(crate) fn next_level(&mut self) -> Result<Option<SpliceLevel>, CoreError> {
        // (root, child, bridge x, attach y)
        let mut level: Vec<(CommitteeId, CommitteeId, NodeId, NodeId)> = Vec::new();
        for &p in &self.frontier {
            for &c in self.sel.children(p) {
                let (_, x, y) = self.selected[c.index()].ok_or_else(|| {
                    invariant_error(
                        self.name,
                        format!("committee {c} has a parent but no recorded selection"),
                    )
                })?;
                level.push((self.sel.root_of(p), c, x, y));
            }
        }
        if level.is_empty() {
            return Ok(None);
        }
        self.merged_any = true;
        self.frontier.clear();
        self.frontier.extend(level.iter().map(|&(_, c, _, _)| c));
        // The stable sort preserves the in-level order within every group,
        // and groups come out ascending by (root, y).
        level.sort_by_key(|&(root, _, _, y)| (root, y));

        let mut ops = SpliceLevel::default();
        let mut g = 0usize;
        while g < level.len() {
            let (root, _, _, y) = level[g];
            let mut g_end = g + 1;
            while g_end < level.len() && level[g_end].0 == root && level[g_end].3 == y {
                g_end += 1;
            }
            let group = &level[g..g_end];
            g = g_end;
            // The attach node was spliced into this root's ring at an
            // earlier level (or belongs to the root itself).
            if self.ring_mark[y.index()] != (self.epoch, root) {
                return Err(invariant_error(
                    self.name,
                    format!("attach node {y} is not on the merged ring of {root}"),
                ));
            }
            let succ_after_y = self.ring_succ[y.index()];
            let len_before = self.ring_len[root.index()];
            let mut prev_end: NodeId = y;
            // Bridge node of the previously spliced child: `prev_end` is
            // the last node of that child's rotated ring, so its bridge is
            // adjacent to both `prev_end` (ring edge, not yet cut) and `y`
            // (initial bridge edge) — the witness for every chained helper.
            let mut prev_x: NodeId = y;
            let mut segment_len = 0usize;
            for &(_, child, x, _) in group {
                let child_ring = self.forest.members(child);
                let x_pos = position_of(child_ring, x).ok_or_else(|| {
                    invariant_error(
                        self.name,
                        format!("bridge node {x} is not on the ring of committee {child}"),
                    )
                })?;
                let m = child_ring.len();
                // New ring edge (prev_end, x); the bridge edge (y, x) of
                // the first child is already active (an initial edge).
                if prev_end != y {
                    // Edge between consecutive children: 2-hop pattern via
                    // the shared attach node y. The helper is witnessed by
                    // the previous child's bridge, the final edge by y.
                    ops.helpers.push((prev_end, y, prev_x));
                    ops.round_b.push((prev_end, x, y));
                }
                // Cut the child's closing ring edge (x, ccw(x)) for rings
                // of size >= 3.
                if m >= 3 {
                    ops.deactivate.push((x, ccw(child_ring, x_pos)));
                }
                self.stale_tree_edges
                    .extend(self.tree_edges[child.index()].iter().copied());
                // Link the child's rotated ring into the segment.
                let mut cursor = prev_end;
                for k in 0..m {
                    let node = child_ring[(x_pos + k) % m];
                    self.ring_succ[cursor.index()] = node;
                    self.ring_mark[node.index()] = (self.epoch, root);
                    cursor = node;
                }
                prev_end = cursor;
                prev_x = x;
                segment_len += m;
            }
            if len_before >= 2 {
                // Closing edge back into the root ring; the insertion edge
                // (y, succ_after_y) is replaced.
                ops.helpers.push((prev_end, y, prev_x));
                ops.round_b.push((prev_end, succ_after_y, y));
                ops.deactivate.push((y, succ_after_y));
            } else {
                // Singleton root: close the cycle straight back to y.
                ops.round_a.push((prev_end, y, prev_x));
            }
            self.ring_succ[prev_end.index()] = succ_after_y;
            self.ring_len[root.index()] = len_before + segment_len;
        }
        Ok(Some(ops))
    }

    /// True when this phase planned at least one splice level.
    pub(crate) fn merged_any(&self) -> bool {
        self.merged_any
    }

    /// Materialises every merged ring — walking the successor map from the
    /// root's leader, the rotation the tree rebuild starts from — and
    /// returns the stale tree edges to drop before the rebuild, as
    /// `(initiator, peer)` pairs: old tree edges of every merging
    /// committee (roots included) that are not initial edges, not on a
    /// surviving ring, and still active in `graph`.
    pub(crate) fn close_rings(
        &mut self,
        graph: &Graph,
        initial: &Graph,
    ) -> Result<Vec<(NodeId, NodeId)>, CoreError> {
        for &root in self.sel.roots() {
            if !self.sel.has_children(root) {
                continue;
            }
            let leader = self.forest.leader(root);
            if self.ring_mark[leader.index()] != (self.epoch, root) {
                return Err(invariant_error(
                    self.name,
                    format!("leader {leader} is not on the merged ring of {root}"),
                ));
            }
            let m = self.ring_len[root.index()];
            let line = &mut self.merged_line[root.index()];
            line.clear();
            let mut cur = leader;
            for _ in 0..m {
                line.push(cur);
                cur = self.ring_succ[cur.index()];
            }
            if cur != leader {
                return Err(invariant_error(
                    self.name,
                    format!("merged ring of {root} did not close at its leader"),
                ));
            }
            self.stale_tree_edges
                .extend(self.tree_edges[root.index()].iter().copied());
        }
        let mut ring_edge_vec: Vec<Edge> = Vec::new();
        for &root in self.sel.roots() {
            let ring: &[NodeId] = if self.sel.has_children(root) {
                &self.merged_line[root.index()]
            } else {
                self.forest.members(root)
            };
            for w in ring.windows(2) {
                ring_edge_vec.push(Edge::new(w[0], w[1]));
            }
            if ring.len() >= 3 {
                ring_edge_vec.push(Edge::new(ring[ring.len() - 1], ring[0]));
            }
        }
        let ring_edges = SortedEdgeSet::from_vec(ring_edge_vec);
        Ok(self
            .stale_tree_edges
            .iter()
            .filter(|e| {
                !initial.has_edge(e.a, e.b) && !ring_edges.contains(e) && graph.has_edge(e.a, e.b)
            })
            .map(|e| (e.a, e.b))
            .collect())
    }

    /// Appendix B's wake-up schedule for rebuilding the tree over a merged
    /// ring: each node wakes after the depth of its former committee's
    /// tree, read from the pre-merge partition.
    pub(crate) fn wake_rounds(&self, line: &[NodeId]) -> Vec<usize> {
        line.iter()
            .map(|u| {
                1 + self
                    .forest
                    .committee_of(*u)
                    .map(|c| self.tree_depth[c.index()])
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Rebuilds a tree over every merged ring — `build` runs the
    /// line-to-tree subroutine on the ring (with the ring edges protected
    /// by the given configuration) and returns its positional tree —
    /// installs it as the root's wreath, and retires every committee that
    /// merged away. `build` sees the planner before the root is re-homed,
    /// so [`wake_rounds`](Self::wake_rounds) reads the pre-merge
    /// partition.
    pub(crate) fn rebuild_trees<F>(&mut self, mut build: F) -> Result<(), CoreError>
    where
        F: FnMut(&Self, CommitteeId, &[NodeId], &LineToTreeConfig) -> Result<RootedTree, CoreError>,
    {
        for i in 0..self.sel.roots().len() {
            let root = self.sel.roots()[i];
            if !self.sel.has_children(root) {
                // Untouched committee: carried over unchanged.
                continue;
            }
            // Taken out of the per-slot buffer so `replace_members` can own
            // it without a copy.
            let line = std::mem::take(&mut self.merged_line[root.index()]);
            let config = LineToTreeConfig {
                arity: self.arity,
                protected_edges: SortedEdgeSet::ring_edges(&line),
            };
            let tree = build(self, root, &line, &config)?;
            let mut edges: Vec<Edge> = Vec::with_capacity(line.len().saturating_sub(1));
            for pos in 1..line.len() {
                let parent_pos = tree.parent(NodeId(pos)).ok_or_else(|| {
                    invariant_error(
                        self.name,
                        format!("position {pos} has no parent in the rebuilt tree"),
                    )
                })?;
                edges.push(Edge::new(line[pos], line[parent_pos.index()]));
            }
            self.tree_edges[root.index()] = edges;
            self.tree_depth[root.index()] = tree.depth();
            self.forest.replace_members(root, line);
        }
        // Every committee that selected merged away (its members were
        // re-homed by its root's `replace_members` above).
        let dead: Vec<CommitteeId> = self
            .forest
            .live_ids()
            .iter()
            .copied()
            .filter(|c| self.selected[c.index()].is_some())
            .collect();
        self.forest.retire_all(&dead);
        for c in dead {
            self.tree_edges[c.index()].clear();
            self.tree_depth[c.index()] = 0;
        }
        Ok(())
    }

    /// The edges the termination phase keeps: the spanning tree of the
    /// final committee.
    pub(crate) fn termination_keep(&self) -> SortedEdgeSet {
        let final_committee = self.forest.live_ids()[0];
        SortedEdgeSet::from_vec(self.tree_edges[final_committee.index()].clone())
    }
}

/// Executes the shared wreath engine on `network` (trait entry point used
/// by both [`crate::algorithm::GraphToWreath`] and
/// [`crate::algorithm::GraphToThinWreath`]).
///
/// # Errors
///
/// * [`CoreError::InvalidInput`] for empty/disconnected inputs.
/// * [`CoreError::DidNotConverge`] / [`CoreError::Sim`] /
///   [`CoreError::BrokenInvariant`] on bugs.
pub(crate) fn execute(
    network: &mut Network,
    uids: &UidMap,
    config: &WreathConfig,
    run: &RunConfig,
) -> Result<TransformationOutcome, CoreError> {
    validate_input(network, uids, config.name)?;
    if !run.engine.is_synchronous() {
        return crate::subroutines::runtime_committee::run_runtime_wreath(
            network, uids, config, run,
        );
    }
    let initial = network.graph().clone();
    let n = initial.node_count();

    network.set_trace_enabled(run.trace.is_per_round());
    // The delta-driven committee adjacency consumes the committee tap
    // of the network's round-event bus. The tap is armed before the
    // first operation so no delta is missed, and disarmed on *every*
    // exit path — error returns included — so a caller's network is
    // never left accumulating deltas.
    network.set_edge_delta_tracking(true);
    let result = run_phases(network, uids, config, run, &initial, n);
    network.set_edge_delta_tracking(false);
    result
}

/// The synchronous executor of the [`WreathPlanner`]: every planned step
/// runs as lock-step rounds. Split out of [`execute`] so the edge-delta
/// hook is disarmed on every exit path (the engine's `run_rounds`
/// discipline).
fn run_phases(
    network: &mut Network,
    uids: &UidMap,
    config: &WreathConfig,
    run: &RunConfig,
    initial: &Graph,
    n: usize,
) -> Result<TransformationOutcome, CoreError> {
    let mut plan = WreathPlanner::new(config, n);
    let mut adjacency_tracker = IncrementalAdjacency::new(plan.forest(), initial);
    let mut ledger = config.phase_ledger(n);
    // Memoises jump schedules and recycles the line-to-tree subroutine's
    // positional state across merges.
    let mut line_scratch = LineScratch::new();

    while plan.forest().live_count() > 1 {
        ledger.open(run, network, plan.forest().live_count())?;
        network.note_groups_alive(plan.forest().live_count());

        // Selection: every committee picks its largest-UID strictly-larger
        // neighbour over the shared committee adjacency.
        let deltas = network.take_edge_deltas();
        let adjacency = adjacency_tracker.refresh(plan.forest(), network.graph(), &deltas);
        let any_selected = plan.select(|forest, cid| {
            Ok(adjacency.select_largest_uid_neighbor(cid, forest, uids, |_| true))
        })?;

        // Communication charge: the selection requires each committee to
        // gather neighbour information and coordinate, which costs a
        // constant number of sweeps of its own tree (Appendix B bounds it
        // by 4·log n). We charge 2·(max tree depth involved) + 2 idle
        // rounds for the whole phase.
        if config.charge_communication {
            network.advance_idle_rounds(2 * plan.max_tree_depth() + 2);
        }

        if !any_selected {
            // No committee found a larger neighbour other than through
            // committees currently unavailable; with a connected network
            // this cannot persist, but charge a round and retry.
            network.advance_idle_rounds(1);
            continue;
        }

        // Ring merging, one splice level per pair of rounds. The
        // pre-filters keep a round committing if and only if it has a
        // real edge change; otherwise the round idles.
        while let Some(level) = plan.next_level()? {
            let wave_acts: Vec<WaveActivation> = level.round_a(network.graph()).collect();
            if !wave_acts.is_empty() {
                network.stage_jump_wave(&wave_acts, &[])?;
                network.commit_round();
            } else {
                network.advance_idle_rounds(1);
            }
            let wave_acts: Vec<WaveActivation> = level.round_b(network.graph()).collect();
            let wave_drops: Vec<Edge> = level
                .round_b_drops(network.graph(), initial)
                .map(|(a, b)| Edge::new(a, b))
                .collect();
            if !wave_acts.is_empty() || !wave_drops.is_empty() {
                network.stage_jump_wave(&wave_acts, &wave_drops)?;
                network.commit_round();
            } else {
                network.advance_idle_rounds(1);
            }
        }

        if !plan.merged_any() {
            network.advance_idle_rounds(1);
            continue;
        }

        let stale = plan.close_rings(network.graph(), initial)?;
        for &(a, b) in &stale {
            network.stage_deactivation(a, b)?;
        }
        if !stale.is_empty() {
            network.commit_round();
        }

        // Tree merging with the asynchronous LineToCompleteBinaryTree; the
        // wake-up schedule models the activation message propagating from
        // the ex-leaders (Appendix B).
        plan.rebuild_trees(|plan, _root, line, line_config| {
            let wake = plan.wake_rounds(line);
            let (tree, _rounds) = run_async_line_to_tree_with_scratch(
                network,
                line,
                line_config,
                &wake,
                &mut line_scratch,
            )?;
            Ok(tree)
        })?;
    }

    // Termination: keep only the spanning tree of the final committee.
    let leader = plan.forest().leader(plan.forest().live_ids()[0]);
    if n > 1 {
        run.check_round_budget(network)?;
        network.note_groups_alive(1);
        let keep = plan.termination_keep();
        let graph = network.graph().clone();
        let mut staged = false;
        for e in graph.edges() {
            if !keep.contains(&e) {
                network.stage_deactivation(e.a, e.b)?;
                staged = true;
            }
        }
        if staged {
            network.commit_round();
        }
        network.advance_idle_rounds(1);
        ledger.terminate();
    }

    run.check_round_budget(network)?;
    debug_assert_eq!(Some(leader), uids.max_uid_node());
    let mut outcome = TransformationOutcome::from_network(leader, network);
    ledger.record(&mut outcome);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_graph::properties::{ceil_log2, is_tree};
    use adn_graph::{generators, GraphFamily, RootedTree, UidAssignment};

    fn check_outcome(
        initial: &Graph,
        uids: &UidMap,
        outcome: &TransformationOutcome,
        arity: usize,
    ) {
        let n = initial.node_count();
        // The final network is a spanning tree ...
        assert!(
            is_tree(&outcome.final_graph),
            "n={n}: final graph is not a tree"
        );
        // ... rooted at the elected leader, which is the max-UID node ...
        assert_eq!(Some(outcome.leader), uids.max_uid_node());
        let tree = RootedTree::from_tree_graph(&outcome.final_graph, outcome.leader)
            .expect("final graph is a tree");
        // ... of logarithmic depth (Depth-log n Tree) ...
        assert!(
            tree.depth() <= 2 * ceil_log2(n.max(2)) + 2,
            "n={n}: depth {} too large",
            tree.depth()
        );
        // ... with the gadget's arity bound.
        for u in initial.nodes() {
            assert!(
                tree.child_count(u) <= arity,
                "n={n}: node {u} has {} children (> {arity})",
                tree.child_count(u)
            );
        }
    }

    fn run_on(initial: &Graph, uids: &UidMap) -> Result<TransformationOutcome, CoreError> {
        let mut network = Network::new(initial.clone());
        execute(
            &mut network,
            uids,
            &WreathConfig::binary(),
            &RunConfig::default(),
        )
    }

    fn run(initial: &Graph, assignment: UidAssignment) -> (UidMap, TransformationOutcome) {
        let uids = UidMap::new(initial.node_count(), assignment);
        let outcome = run_on(initial, &uids).expect("GraphToWreath must succeed");
        (uids, outcome)
    }

    #[test]
    fn solves_depth_log_n_tree_on_lines_and_rings() {
        for &n in &[2usize, 3, 5, 8, 16, 33, 64, 100] {
            let g = generators::line(n);
            let (uids, outcome) = run(&g, UidAssignment::Sequential);
            check_outcome(&g, &uids, &outcome, 2);
            let g = generators::ring(n.max(3));
            let (uids, outcome) = run(&g, UidAssignment::Reversed);
            check_outcome(&g, &uids, &outcome, 2);
        }
    }

    #[test]
    fn solves_depth_log_n_tree_on_bounded_degree_families() {
        for family in GraphFamily::BOUNDED_DEGREE {
            for seed in 0..3u64 {
                let g = family.generate(48, seed);
                let uids = UidMap::new(g.node_count(), UidAssignment::RandomPermutation { seed });
                let outcome = run_on(&g, &uids).expect("must succeed");
                check_outcome(&g, &uids, &outcome, 2);
            }
        }
    }

    #[test]
    fn degree_stays_bounded_on_bounded_degree_inputs() {
        for &n in &[32usize, 64, 128] {
            let g = generators::ring(n);
            let (_, outcome) = run(&g, UidAssignment::RandomPermutation { seed: 9 });
            // Theorem 4.2: constant activated degree; total degree at most
            // a constant plus the initial degree (2 for a ring). We allow
            // the generous constant 10 + 2.
            assert!(
                outcome.metrics.max_total_degree <= 12,
                "n={n}: max degree {}",
                outcome.metrics.max_total_degree
            );
            assert!(outcome.metrics.max_activated_degree <= 10);
        }
    }

    #[test]
    fn time_is_polylogarithmic() {
        for &n in &[32usize, 128, 256] {
            let g = generators::line(n);
            let (_, outcome) = run(&g, UidAssignment::RandomPermutation { seed: 2 });
            let log = ceil_log2(n).max(1);
            // Theorem 4.2: O(log² n) rounds (generous constant 20).
            assert!(
                outcome.rounds <= 20 * log * log + 40,
                "n={n}: rounds {} not O(log² n)",
                outcome.rounds
            );
            assert!(
                outcome.phases <= 6 * log + 6,
                "n={n}: {} phases",
                outcome.phases
            );
        }
    }

    #[test]
    fn edge_complexity_matches_theorem_4_2() {
        for &n in &[64usize, 128, 256] {
            let g = generators::ring(n);
            let (_, outcome) = run(&g, UidAssignment::RandomPermutation { seed: 5 });
            let log = ceil_log2(n).max(1);
            // O(n log² n) total activations (generous constant 6).
            assert!(
                outcome.metrics.total_activations <= 6 * n * log * log,
                "n={n}: {} activations",
                outcome.metrics.total_activations
            );
            // O(n) active edges per round: at most ~3n (ring + tree + helpers).
            assert!(
                outcome.metrics.max_activated_edges <= 4 * n,
                "n={n}: {} concurrent activated edges",
                outcome.metrics.max_activated_edges
            );
        }
    }

    #[test]
    fn committee_count_is_non_increasing_and_reaches_one() {
        let g = generators::grid(6, 8);
        let (_, outcome) = run(&g, UidAssignment::RandomPermutation { seed: 3 });
        let counts = &outcome.committees_per_phase;
        assert_eq!(counts.first(), Some(&48));
        assert_eq!(counts.last(), Some(&1));
        for w in counts.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn works_on_unbounded_degree_inputs_too() {
        // Theorem 4.2 is stated for constant-degree inputs, but the
        // algorithm itself runs on any connected graph; the *activated*
        // degree stays constant even if the input degree is large.
        let g = generators::star(40);
        let (uids, outcome) = run(&g, UidAssignment::RandomPermutation { seed: 8 });
        check_outcome(&g, &uids, &outcome, 2);
        assert!(outcome.metrics.max_activated_degree <= 10);
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
    }

    #[test]
    fn single_node_is_trivial() {
        let uids = UidMap::new(1, UidAssignment::Sequential);
        let outcome = run_on(&Graph::new(1), &uids).unwrap();
        assert_eq!(outcome.leader, NodeId(0));
        assert_eq!(outcome.metrics.total_activations, 0);
    }
}
