//! The shared committee-forest layer.
//!
//! All three committee-based algorithms of the paper (GraphToStar,
//! GraphToWreath, GraphToThinWreath) run the same structural loop: nodes
//! are partitioned into committees led by their maximum-UID member,
//! committees select larger neighbouring committees over the *committee
//! adjacency* of the current network, the selection edges form a forest,
//! and every tree of the forest merges into its root. Before this module,
//! each algorithm rebuilt that scaffolding per phase out of
//! `BTreeMap<NodeId, Committee>` / nested-`BTreeMap` adjacency maps; now
//! the partition lives in one arena — the [`CommitteeForest`] — with dense
//! [`CommitteeId`] slots, flat membership columns, and a sort-based
//! [`CommitteeAdjacency`] builder shared by every algorithm.
//!
//! Determinism contract: every accessor iterates in ascending slot order,
//! and committee leaders never migrate between slots (an absorbing
//! committee keeps its leader; a merged-away slot dies), so ascending
//! *slot* order is ascending *leader* order — exactly the `BTreeMap`
//! iteration order the algorithms relied on. The seeded DST sweep renders
//! byte-identically across the representations, which the stress replay
//! gate (`report -- --replay <seed>`) checks end to end.

use crate::algorithm::RunConfig;
use crate::{CoreError, TransformationOutcome};
use adn_graph::{Graph, NodeId, Uid, UidMap};
use adn_sim::{EdgeDelta, Network};

/// Dense index of a committee slot in a [`CommitteeForest`] arena.
///
/// Slots are allocated once (one per initial node) and marked dead when
/// their committee merges away; ids are never reused, so a `CommitteeId`
/// observed in one phase stays valid (alive or dead) for the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CommitteeId(pub usize);

impl CommitteeId {
    /// The slot index as a plain `usize` (for indexing parallel columns).
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for CommitteeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// The arena-backed committee partition of the tracked vertex set.
///
/// Structure-of-arrays: `committee_of` maps every tracked node to its
/// slot, `leader`/`members` are per-slot columns, and `live` is the
/// sorted list of alive slots, maintained incrementally across merges so
/// a phase never rescans the arena to find the survivors. A phase's
/// merges go through [`CommitteeForest::absorb_all`] or
/// [`CommitteeForest::retire_all`], which prune `live` once per batch.
///
/// The *member order* discipline is the caller's: GraphToStar appends in
/// merge order (see [`CommitteeForest::absorb`] for why that order is
/// load-bearing), the wreath engine stores ring order (see
/// [`CommitteeForest::replace_members`]).
#[derive(Debug, Clone)]
pub struct CommitteeForest {
    /// Slot of the committee each tracked node belongs to. Nodes beyond
    /// this column (joined mid-run by a DST churn fault) belong to no
    /// committee and are invisible to the reconfiguration.
    committee_of: Vec<CommitteeId>,
    /// Leader of each slot.
    leader: Vec<NodeId>,
    /// Ordered member list of each slot (empty once the slot is dead).
    members: Vec<Vec<NodeId>>,
    /// Liveness of each slot.
    alive: Vec<bool>,
    /// Alive slots, ascending — the iteration spine of every phase.
    live: Vec<CommitteeId>,
}

impl CommitteeForest {
    /// The initial partition: node `i` alone in committee slot `i`, led by
    /// itself.
    pub fn singletons(n: usize) -> Self {
        CommitteeForest {
            committee_of: (0..n).map(CommitteeId).collect(),
            leader: (0..n).map(NodeId).collect(),
            members: (0..n).map(|i| vec![NodeId(i)]).collect(),
            alive: vec![true; n],
            live: (0..n).map(CommitteeId).collect(),
        }
    }

    /// Number of nodes tracked by the partition (the initial vertex set;
    /// churned-in nodes are beyond it).
    pub fn tracked_nodes(&self) -> usize {
        self.committee_of.len()
    }

    /// Number of slots in the arena (alive or dead).
    pub fn slot_count(&self) -> usize {
        self.alive.len()
    }

    /// Number of alive committees.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// The alive committee slots, ascending.
    pub fn live_ids(&self) -> &[CommitteeId] {
        &self.live
    }

    /// True while the slot's committee has not merged away.
    pub fn is_alive(&self, c: CommitteeId) -> bool {
        self.alive[c.index()]
    }

    /// The leader of committee `c`.
    pub fn leader(&self, c: CommitteeId) -> NodeId {
        self.leader[c.index()]
    }

    /// The ordered member list of committee `c`.
    pub fn members(&self, c: CommitteeId) -> &[NodeId] {
        &self.members[c.index()]
    }

    /// The committee of node `u`, or `None` when `u` is beyond the tracked
    /// vertex set (a churned-in node).
    pub fn committee_of(&self, u: NodeId) -> Option<CommitteeId> {
        self.committee_of.get(u.index()).copied()
    }

    /// The leader of the committee `u` belongs to.
    ///
    /// # Panics
    ///
    /// Panics when `u` is beyond the tracked vertex set.
    pub fn leader_of(&self, u: NodeId) -> NodeId {
        self.leader[self.committee_of[u.index()].index()]
    }

    /// Drops `killed` slots that have just died from `live` in one pass:
    /// entries from the first dead one (`first_dead`, the smallest killed
    /// slot) up to the last dead one are compacted in place, and the
    /// rest of the list moves down in one shift. A batch therefore costs
    /// O(live) however many slots it kills, and a batch of one costs what
    /// a single `Vec::remove` does.
    fn drop_dead(&mut self, first_dead: CommitteeId, mut killed: usize) {
        let start = self.live.partition_point(|&c| c < first_dead);
        let (mut read, mut write) = (start, start);
        while killed > 0 {
            let c = self.live[read];
            read += 1;
            if self.alive[c.index()] {
                self.live[write] = c;
                write += 1;
            } else {
                killed -= 1;
            }
        }
        let len = self.live.len();
        self.live.copy_within(read.., write);
        self.live.truncate(len - (read - write));
    }

    /// Merges committee `dying` into `absorbing`: the dying members are
    /// appended to the absorbing member list **in merge order** and
    /// re-homed; the absorbing committee keeps its leader and the dying
    /// slot dies. GraphToStar's merge discipline; a batch of one
    /// [`CommitteeForest::absorb_all`].
    ///
    /// Member lists deliberately keep this concatenation order rather than
    /// being re-sorted: the order in which a committee's members stage
    /// their edge operations is observable when a stage call errors
    /// mid-phase (under adversarial faults the *first* failing operation
    /// aborts the phase), and the old `BTreeMap` + `extend` representation
    /// staged in exactly this order. Re-sorting would change which
    /// operation fails first and break byte-identical stress replays.
    ///
    /// # Panics
    ///
    /// Panics if either slot is dead or the two are the same.
    pub fn absorb(&mut self, dying: CommitteeId, absorbing: CommitteeId) {
        self.absorb_all(&[(dying, absorbing)]);
    }

    /// Applies a phase's `(dying, absorbing)` merges in the given order —
    /// exactly as that sequence of [`CommitteeForest::absorb`] calls
    /// would, member order included — but removes the dead slots from the
    /// live list in one pass at the end, so the phase costs O(live +
    /// moved members) instead of O(merges · live).
    ///
    /// # Panics
    ///
    /// Panics, like `absorb`, on a merge whose slots are the same or dead
    /// by then — an absorbing slot that died earlier in the batch
    /// included. The forest is left mid-batch.
    pub fn absorb_all(&mut self, merges: &[(CommitteeId, CommitteeId)]) {
        let Some(first_dead) = merges.iter().map(|&(dying, _)| dying).min() else {
            return;
        };
        for &(dying, absorbing) in merges {
            assert_ne!(dying, absorbing, "a committee cannot absorb itself");
            assert!(self.alive[dying.index()], "dying committee must be alive");
            assert!(
                self.alive[absorbing.index()],
                "absorbing committee must be alive"
            );
            let incoming = std::mem::take(&mut self.members[dying.index()]);
            for &u in &incoming {
                self.committee_of[u.index()] = absorbing;
            }
            self.members[absorbing.index()].extend(incoming);
            self.alive[dying.index()] = false;
        }
        self.drop_dead(first_dead, merges.len());
    }

    /// Replaces the member list of committee `c` wholesale (the wreath
    /// engine installs the freshly merged ring this way) and re-homes every
    /// listed node to `c`. Slots whose members were taken over must be
    /// retired separately with [`CommitteeForest::retire_all`].
    ///
    /// # Panics
    ///
    /// Panics if `c` is dead or `members` is empty.
    pub fn replace_members(&mut self, c: CommitteeId, members: Vec<NodeId>) {
        assert!(self.alive[c.index()], "cannot repopulate a dead committee");
        assert!(!members.is_empty(), "a committee keeps at least one member");
        for &u in &members {
            self.committee_of[u.index()] = c;
        }
        self.members[c.index()] = members;
    }

    /// Marks committee `c` dead without touching `committee_of` — its
    /// members must already have been re-homed (by
    /// [`CommitteeForest::replace_members`] on the absorbing slot). A
    /// batch of one [`CommitteeForest::retire_all`].
    ///
    /// # Panics
    ///
    /// Panics if `c` is already dead.
    pub fn retire(&mut self, c: CommitteeId) {
        self.retire_all(&[c]);
    }

    /// Retires every committee in `dead` (in any order), removing them
    /// from the live list in one pass: O(live) per batch rather than
    /// O(live) per retired committee.
    ///
    /// # Panics
    ///
    /// Panics if a listed slot is already dead (or listed twice). The
    /// forest is left mid-batch.
    pub fn retire_all(&mut self, dead: &[CommitteeId]) {
        let Some(&first_dead) = dead.iter().min() else {
            return;
        };
        for &c in dead {
            assert!(self.alive[c.index()], "committee retired twice");
            self.alive[c.index()] = false;
            self.members[c.index()].clear();
        }
        self.drop_dead(first_dead, dead.len());
    }

    /// Builds the committee adjacency of the current `graph`: for each
    /// ordered pair of distinct neighbouring committees `(a, b)`, the
    /// lexicographically smallest bridge `(x, y)` with `x ∈ a`, `y ∈ b`.
    ///
    /// This is the builder previously copy-pasted between `graph_to_star`
    /// and `graph_to_wreath` as a nested
    /// `BTreeMap<NodeId, BTreeMap<NodeId, (NodeId, NodeId)>>`; here it is
    /// one flat row collection + sort + dedup, with per-committee row
    /// ranges resolved by a counting pass. Edges with an endpoint beyond
    /// the tracked vertex set (churned-in nodes) are skipped, exactly as
    /// before.
    pub fn committee_adjacency(&self, graph: &Graph) -> CommitteeAdjacency {
        let tracked = self.committee_of.len();
        let mut raw: Vec<(usize, usize, NodeId, NodeId)> = Vec::new();
        for e in graph.edges() {
            // `e.b` is the larger endpoint, so checking it covers both.
            if e.b.index() >= tracked {
                continue;
            }
            let ca = self.committee_of[e.a.index()].index();
            let cb = self.committee_of[e.b.index()].index();
            if ca == cb {
                continue;
            }
            raw.push((ca, cb, e.a, e.b));
            raw.push((cb, ca, e.b, e.a));
        }
        // Sorting by (committee, other, x, y) puts the smallest bridge of
        // every ordered pair first; dedup keeps exactly that row.
        raw.sort_unstable();
        raw.dedup_by(|next, prev| next.0 == prev.0 && next.1 == prev.1);
        let slots = self.slot_count();
        let mut offsets = vec![0usize; slots + 1];
        for r in &raw {
            offsets[r.0 + 1] += 1;
        }
        for i in 0..slots {
            offsets[i + 1] += offsets[i];
        }
        let rows = raw
            .into_iter()
            .map(|(_, other, x, y)| CommitteeNeighbor {
                other: CommitteeId(other),
                bridge_local: x,
                bridge_remote: y,
            })
            .collect();
        CommitteeAdjacency { rows, offsets }
    }
}

/// One neighbouring committee in a [`CommitteeAdjacency`] row range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitteeNeighbor {
    /// The neighbouring committee.
    pub other: CommitteeId,
    /// Bridge endpoint inside the committee the row belongs to.
    pub bridge_local: NodeId,
    /// Bridge endpoint inside `other` (adjacent to `bridge_local`).
    pub bridge_remote: NodeId,
}

/// The committee-level adjacency of one network snapshot: a flat,
/// row-sorted columnar structure (rows ordered by committee, then by
/// neighbouring committee) with per-slot offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitteeAdjacency {
    rows: Vec<CommitteeNeighbor>,
    /// `rows[offsets[c]..offsets[c + 1]]` are the neighbours of slot `c`,
    /// ascending by `other`.
    offsets: Vec<usize>,
}

impl CommitteeAdjacency {
    /// The neighbours of committee `c`, ascending by neighbour slot, each
    /// with its lexicographically smallest bridge.
    pub fn neighbors(&self, c: CommitteeId) -> &[CommitteeNeighbor] {
        &self.rows[self.offsets[c.index()]..self.offsets[c.index() + 1]]
    }

    /// Total number of (ordered) committee adjacency rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The selection rule every committee algorithm shares: among the
    /// neighbouring committees whose leader UID is **strictly larger**
    /// than `c`'s and that satisfy `eligible`, pick the one with the
    /// largest leader UID and return it with its bridge. UIDs are unique,
    /// so the maximum is unambiguous; with no strictly-larger eligible
    /// neighbour, `c` is a root this phase and `None` is returned.
    pub fn select_largest_uid_neighbor<F>(
        &self,
        c: CommitteeId,
        forest: &CommitteeForest,
        uids: &UidMap,
        mut eligible: F,
    ) -> Option<(CommitteeId, NodeId, NodeId)>
    where
        F: FnMut(CommitteeId) -> bool,
    {
        let my_uid = uids.uid(forest.leader(c));
        let mut best: Option<(Uid, CommitteeId, NodeId, NodeId)> = None;
        for row in self.neighbors(c) {
            let other_uid = uids.uid(forest.leader(row.other));
            if other_uid > my_uid
                && eligible(row.other)
                && best.as_ref().is_none_or(|&(b, _, _, _)| other_uid > b)
            {
                best = Some((other_uid, row.other, row.bridge_local, row.bridge_remote));
            }
        }
        best.map(|(_, target, x, y)| (target, x, y))
    }
}

/// A committee's selection in one phase: the target committee, the bridge
/// node `x` in the selecting committee and its neighbour `y` in the
/// target.
pub(crate) type Choice = (CommitteeId, NodeId, NodeId);

/// One directed cross-committee bridge: `(committee, other committee,
/// local endpoint, remote endpoint)`. Sorted order puts the smallest
/// bridge of every ordered committee pair first — the same invariant the
/// from-scratch builder sorts into existence per phase.
type BridgeRow = (usize, usize, NodeId, NodeId);

/// The incrementally maintained committee adjacency.
///
/// The from-scratch builder ([`CommitteeForest::committee_adjacency`])
/// rescans every edge of the graph once per phase. This tracker instead
/// consumes the edge deltas drained from the committee tap of the
/// network's round-event bus
/// ([`adn_sim::Network::set_edge_delta_tracking`]) plus the forest's merge
/// events — discovered by diffing a committee snapshot against the forest
/// — so a phase pays for what *changed* rather than for the whole edge
/// set.
///
/// The state is one flat sorted row vector holding **every**
/// cross-committee bridge (not just the smallest per pair), so deleting a
/// recorded bridge reveals the runner-up without a rescan; deltas are
/// applied as a sort-plus-one-merge-pass batch, the `adn_graph::Graph`
/// adjacency discipline. Materialized rows are identical to the
/// from-scratch builder's; the algorithms debug-assert that differential
/// every phase ([`IncrementalAdjacency::refresh`]) and
/// `tests/committee_model.rs` pins it under adversarial fault sequences.
#[derive(Debug, Clone)]
pub struct IncrementalAdjacency {
    /// The tracker's snapshot of every tracked node's committee; diffed
    /// against the forest at sync time to discover re-homed nodes.
    committee_of: Vec<CommitteeId>,
    /// Every cross-committee bridge, both directions, sorted.
    rows: Vec<BridgeRow>,
    /// Batch staging and merge scratch, reused across syncs.
    adds: Vec<BridgeRow>,
    dels: Vec<BridgeRow>,
    merge_scratch: Vec<BridgeRow>,
    rehomed_mask: Vec<bool>,
}

impl IncrementalAdjacency {
    /// Builds the tracker from scratch over the current graph (the one
    /// full edge scan of the run; every later phase syncs deltas).
    pub fn new(forest: &CommitteeForest, graph: &Graph) -> Self {
        let committee_of = forest.committee_of.clone();
        let tracked = committee_of.len();
        let mut tracker = IncrementalAdjacency {
            rehomed_mask: vec![false; tracked],
            committee_of,
            rows: Vec::new(),
            adds: Vec::new(),
            dels: Vec::new(),
            merge_scratch: Vec::new(),
        };
        tracker.rebuild(forest, graph);
        tracker
    }

    /// Stages both directed rows of `{u, v}` under the given committee
    /// snapshot into `out`, unless the edge is invisible to the adjacency
    /// (an untracked churned-in endpoint, or an intra-committee edge).
    fn stage(committee_of: &[CommitteeId], out: &mut Vec<BridgeRow>, u: NodeId, v: NodeId) {
        let tracked = committee_of.len();
        if u.index() >= tracked || v.index() >= tracked {
            return;
        }
        let cu = committee_of[u.index()].index();
        let cv = committee_of[v.index()].index();
        if cu == cv {
            return;
        }
        out.push((cu, cv, u, v));
        out.push((cv, cu, v, u));
    }

    /// Applies everything that changed since the last sync: the edge
    /// deltas, classified under the *old* committee snapshot (the
    /// partition the stored rows were classified under — forest updates
    /// and edge operations may interleave arbitrarily between syncs), and
    /// the merge events, discovered by diffing the snapshot against the
    /// forest and re-classifying every current edge incident to a
    /// re-homed node. The staged additions and removals are then spliced
    /// into the sorted row vector with one counting merge that touches
    /// only the staged keys (untouched runs are bulk-copied).
    ///
    /// When the pending change volume rivals the edge count — a
    /// mass-merge phase on a sparse graph re-homes most nodes — patching
    /// costs more than scanning, so the tracker falls back to a from-
    /// scratch row rebuild for that sync. Both paths produce identical
    /// rows; the cutover only picks the cheaper one.
    pub fn sync(&mut self, forest: &CommitteeForest, graph: &Graph, deltas: &[EdgeDelta]) {
        let tracked = self.committee_of.len();
        let mut any_rehomed = false;
        let mut rehomed_degree = 0usize;
        for i in 0..tracked {
            let moved = forest.committee_of[i] != self.committee_of[i];
            self.rehomed_mask[i] = moved;
            if moved {
                any_rehomed = true;
                rehomed_degree += graph.degree(NodeId(i));
            }
        }
        if deltas.len() + rehomed_degree >= graph.edge_count() / 2 {
            self.rebuild(forest, graph);
            return;
        }
        for d in deltas {
            let out = if d.added {
                &mut self.adds
            } else {
                &mut self.dels
            };
            Self::stage(&self.committee_of, out, d.edge.a, d.edge.b);
        }
        // Re-homed nodes: remove their incident rows under the old
        // snapshot, re-add them under the new one. An edge with both
        // endpoints re-homed is processed only at its lower-index
        // endpoint; the snapshot advances only after staging, so every
        // staged row sees a consistent classification for both endpoints.
        if any_rehomed {
            for i in 0..tracked {
                if !self.rehomed_mask[i] {
                    continue;
                }
                let u = NodeId(i);
                for &v in graph.neighbors_slice(u) {
                    if v.index() < tracked && self.rehomed_mask[v.index()] && v.index() < i {
                        continue; // staged when v was processed
                    }
                    Self::stage(&self.committee_of, &mut self.dels, u, v);
                    Self::stage(&forest.committee_of, &mut self.adds, u, v);
                }
            }
            for i in 0..tracked {
                if self.rehomed_mask[i] {
                    self.committee_of[i] = forest.committee_of[i];
                }
            }
        }
        if self.adds.is_empty() && self.dels.is_empty() {
            return;
        }
        self.adds.sort_unstable();
        self.dels.sort_unstable();
        // Counting splice merge: per distinct *staged* row, presence is
        // `current + additions - removals` (an edge toggled within the
        // window stages matching rows in both columns and cancels out).
        // Only the staged keys are resolved element-by-element; the
        // untouched runs between them — the overwhelming majority on a
        // steady-state sync of a handful of deltas — are located with a
        // binary search and bulk-copied, so a sync costs
        // O(changes · log rows) plus one memcpy of the row vector instead
        // of an element-wise walk of every row.
        self.merge_scratch.clear();
        self.merge_scratch
            .reserve(self.rows.len() + self.adds.len());
        let (rows, adds, dels) = (&self.rows, &self.adds, &self.dels);
        let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
        while j < adds.len() || k < dels.len() {
            let key = match (adds.get(j), dels.get(k)) {
                (Some(&a), Some(&d)) => a.min(d),
                (Some(&a), None) => a,
                (None, Some(&d)) => d,
                (None, None) => unreachable!("loop condition"),
            };
            let run = rows[i..].partition_point(|r| *r < key);
            self.merge_scratch.extend_from_slice(&rows[i..i + run]);
            i += run;
            let mut count = 0isize;
            while rows.get(i) == Some(&key) {
                count += 1;
                i += 1;
            }
            while adds.get(j) == Some(&key) {
                count += 1;
                j += 1;
            }
            while dels.get(k) == Some(&key) {
                count -= 1;
                k += 1;
            }
            debug_assert!(
                (0..=1).contains(&count),
                "bridge row {key:?} has net multiplicity {count}"
            );
            if count > 0 {
                self.merge_scratch.push(key);
            }
        }
        self.merge_scratch.extend_from_slice(&rows[i..]);
        self.adds.clear();
        self.dels.clear();
        std::mem::swap(&mut self.rows, &mut self.merge_scratch);
    }

    /// From-scratch row rebuild under the forest's current partition (the
    /// cutover path of [`IncrementalAdjacency::sync`] for phases where
    /// most of the edge set changed classification).
    fn rebuild(&mut self, forest: &CommitteeForest, graph: &Graph) {
        let tracked = self.committee_of.len();
        self.committee_of.copy_from_slice(&forest.committee_of);
        self.rows.clear();
        for e in graph.edges() {
            // `e.b` is the larger endpoint, so checking it covers both.
            if e.b.index() >= tracked {
                continue;
            }
            let cu = self.committee_of[e.a.index()].index();
            let cv = self.committee_of[e.b.index()].index();
            if cu == cv {
                continue;
            }
            self.rows.push((cu, cv, e.a, e.b));
            self.rows.push((cv, cu, e.b, e.a));
        }
        self.rows.sort_unstable();
    }

    /// Materializes the current committee adjacency — one pass over the
    /// bridge rows (the first row of every ordered pair group is its
    /// smallest bridge), with rows and offsets identical to
    /// [`CommitteeForest::committee_adjacency`].
    pub fn rows(&self, forest: &CommitteeForest) -> CommitteeAdjacency {
        let slots = forest.slot_count();
        let mut offsets = vec![0usize; slots + 1];
        let mut out: Vec<CommitteeNeighbor> = Vec::new();
        let mut idx = 0usize;
        while idx < self.rows.len() {
            let (c, other, x, y) = self.rows[idx];
            offsets[c + 1] += 1;
            out.push(CommitteeNeighbor {
                other: CommitteeId(other),
                bridge_local: x,
                bridge_remote: y,
            });
            idx += 1;
            while idx < self.rows.len() && self.rows[idx].0 == c && self.rows[idx].1 == other {
                idx += 1;
            }
        }
        for i in 0..slots {
            offsets[i + 1] += offsets[i];
        }
        CommitteeAdjacency { rows: out, offsets }
    }

    /// Syncs and materializes in one step, debug-asserting the
    /// differential against the from-scratch builder (debug builds pay
    /// the rebuild, release builds trust the tracker).
    pub fn refresh(
        &mut self,
        forest: &CommitteeForest,
        graph: &Graph,
        deltas: &[EdgeDelta],
    ) -> CommitteeAdjacency {
        self.sync(forest, graph, deltas);
        let adjacency = self.rows(forest);
        debug_assert_eq!(
            adjacency,
            forest.committee_adjacency(graph),
            "incremental committee adjacency diverged from the from-scratch builder"
        );
        adjacency
    }
}

/// The per-phase selection forest: every committee optionally selects a
/// parent (a strictly larger-UID neighbour), the edges form a forest, and
/// each tree merges into its root. Children lists, the root list and the
/// root of every slot are resolved once at construction (one pass + path
/// memoisation) instead of the per-query pointer chasing the wreath engine
/// used to do.
#[derive(Debug, Clone)]
pub struct SelectionForest {
    parent: Vec<Option<CommitteeId>>,
    children: Vec<Vec<CommitteeId>>,
    roots: Vec<CommitteeId>,
    root: Vec<CommitteeId>,
}

impl SelectionForest {
    /// Builds the forest from `(child, parent)` selection pairs (at most
    /// one per child). Roots are the alive committees that selected no
    /// parent, ascending; children lists are ascending by child.
    ///
    /// Selection chains are acyclic by construction (UIDs strictly
    /// increase along them); a malformed cyclic input is tolerated by
    /// bounding the root chase at the arena size, mirroring the guard of
    /// the old per-query chaser.
    pub fn new(forest: &CommitteeForest, edges: &[(CommitteeId, CommitteeId)]) -> Self {
        let slots = forest.slot_count();
        let mut parent: Vec<Option<CommitteeId>> = vec![None; slots];
        let mut children: Vec<Vec<CommitteeId>> = vec![Vec::new(); slots];
        for &(child, p) in edges {
            debug_assert!(parent[child.index()].is_none(), "one selection per child");
            parent[child.index()] = Some(p);
        }
        // Ascending child order within every children list.
        for &cid in forest.live_ids() {
            if let Some(p) = parent[cid.index()] {
                children[p.index()].push(cid);
            }
        }
        let roots: Vec<CommitteeId> = forest
            .live_ids()
            .iter()
            .copied()
            .filter(|c| parent[c.index()].is_none())
            .collect();
        // Resolve the root of every alive slot, memoising along the chase.
        let mut root: Vec<CommitteeId> = (0..slots).map(CommitteeId).collect();
        let mut resolved = vec![false; slots];
        for &r in &roots {
            resolved[r.index()] = true;
        }
        let mut path: Vec<CommitteeId> = Vec::new();
        for &cid in forest.live_ids() {
            if resolved[cid.index()] {
                continue;
            }
            path.clear();
            let mut c = cid;
            let mut guard = 0usize;
            while !resolved[c.index()] {
                path.push(c);
                match parent[c.index()] {
                    Some(p) => c = p,
                    None => break,
                }
                guard += 1;
                if guard > slots {
                    break; // malformed cycle: stop where the old guard did
                }
            }
            let r = if resolved[c.index()] {
                root[c.index()]
            } else {
                c
            };
            for &on_path in &path {
                root[on_path.index()] = r;
                resolved[on_path.index()] = true;
            }
        }
        SelectionForest {
            parent,
            children,
            roots,
            root,
        }
    }

    /// The roots of the forest (alive committees that selected no parent),
    /// ascending.
    pub fn roots(&self) -> &[CommitteeId] {
        &self.roots
    }

    /// The committees that selected `c` as their parent, ascending.
    pub fn children(&self, c: CommitteeId) -> &[CommitteeId] {
        &self.children[c.index()]
    }

    /// True when at least one committee selected `c`.
    pub fn has_children(&self, c: CommitteeId) -> bool {
        !self.children[c.index()].is_empty()
    }

    /// The parent `c` selected, if any.
    pub fn parent(&self, c: CommitteeId) -> Option<CommitteeId> {
        self.parent[c.index()]
    }

    /// The root of the selection tree containing `c`.
    pub fn root_of(&self, c: CommitteeId) -> CommitteeId {
        self.root[c.index()]
    }
}

/// The input check shared by the committee engines: a non-empty,
/// connected network with one UID per node.
pub(crate) fn validate_input(
    network: &Network,
    uids: &UidMap,
    algorithm: &str,
) -> Result<(), CoreError> {
    let n = network.node_count();
    if n == 0 {
        return Err(CoreError::InvalidInput {
            reason: "the initial network must contain at least one node".into(),
        });
    }
    if uids.len() != n {
        return Err(CoreError::InvalidInput {
            reason: "one UID per node is required".into(),
        });
    }
    if !adn_graph::traversal::is_connected(network.graph()) {
        return Err(CoreError::InvalidInput {
            reason: format!("{algorithm} requires a connected initial network"),
        });
    }
    Ok(())
}

/// Phase accounting shared by the committee engines, synchronous and
/// actor-based alike: the phase counter, the per-phase committee census
/// and the phase limit that turns a livelock into
/// [`CoreError::DidNotConverge`].
#[derive(Debug)]
pub(crate) struct PhaseLedger {
    algorithm: &'static str,
    limit: usize,
    phases: usize,
    committees_per_phase: Vec<usize>,
}

impl PhaseLedger {
    /// A ledger for `algorithm` allowing `limit` phases.
    pub(crate) fn new(algorithm: &'static str, limit: usize) -> Self {
        PhaseLedger {
            algorithm,
            limit,
            phases: 0,
            committees_per_phase: Vec::new(),
        }
    }

    /// The phases counted so far.
    pub(crate) fn phases(&self) -> usize {
        self.phases
    }

    /// Opens a phase over `live` committees. Fails when the run's round
    /// budget is spent or the phase limit is passed.
    pub(crate) fn open(
        &mut self,
        run: &RunConfig,
        network: &Network,
        live: usize,
    ) -> Result<(), CoreError> {
        self.phases += 1;
        run.check_round_budget(network)?;
        if self.phases > self.limit {
            return Err(CoreError::DidNotConverge {
                algorithm: self.algorithm,
                phase_limit: self.limit,
            });
        }
        self.committees_per_phase.push(live);
        Ok(())
    }

    /// Counts the termination phase, run by the last committee.
    pub(crate) fn terminate(&mut self) {
        self.phases += 1;
        self.committees_per_phase.push(1);
    }

    /// Writes the phase count and the census into `outcome`.
    pub(crate) fn record(self, outcome: &mut TransformationOutcome) {
        outcome.phases = self.phases;
        outcome.committees_per_phase = self.committees_per_phase;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_graph::generators;

    fn cid(i: usize) -> CommitteeId {
        CommitteeId(i)
    }

    #[test]
    fn singletons_partition_every_node() {
        let f = CommitteeForest::singletons(5);
        assert_eq!(f.live_count(), 5);
        assert_eq!(f.tracked_nodes(), 5);
        for i in 0..5 {
            assert_eq!(f.committee_of(NodeId(i)), Some(cid(i)));
            assert_eq!(f.leader(cid(i)), NodeId(i));
            assert_eq!(f.members(cid(i)), &[NodeId(i)]);
            assert!(f.is_alive(cid(i)));
        }
        assert_eq!(f.committee_of(NodeId(5)), None, "untracked node");
    }

    #[test]
    fn absorb_merges_membership_and_kills_the_dying_slot() {
        let mut f = CommitteeForest::singletons(6);
        f.absorb(cid(0), cid(3));
        f.absorb(cid(5), cid(3));
        f.absorb(cid(3), cid(1));
        assert_eq!(f.live_ids(), &[cid(1), cid(2), cid(4)]);
        assert_eq!(
            f.members(cid(1)),
            &[NodeId(1), NodeId(3), NodeId(0), NodeId(5)],
            "member lists keep the historical merge order"
        );
        for u in [0usize, 1, 3, 5] {
            assert_eq!(f.committee_of(NodeId(u)), Some(cid(1)));
            assert_eq!(f.leader_of(NodeId(u)), NodeId(1));
        }
        assert!(!f.is_alive(cid(3)));
        assert_eq!(f.live_count(), 3);
    }

    #[test]
    fn replace_members_and_retire_model_a_ring_merge() {
        let mut f = CommitteeForest::singletons(4);
        // Slot 2 absorbs everyone in splice order 2, 0, 3, 1 (ring order,
        // deliberately unsorted).
        let ring = vec![NodeId(2), NodeId(0), NodeId(3), NodeId(1)];
        f.replace_members(cid(2), ring.clone());
        for c in [cid(0), cid(1), cid(3)] {
            f.retire(c);
        }
        assert_eq!(f.live_ids(), &[cid(2)]);
        assert_eq!(f.members(cid(2)), &ring[..], "ring order preserved");
        for u in 0..4 {
            assert_eq!(f.committee_of(NodeId(u)), Some(cid(2)));
        }
    }

    #[test]
    fn adjacency_matches_the_nested_btreemap_builder_shape() {
        // Line 0-1-2-3 with committees {0,1} and {2,3}: one committee pair,
        // bridged by (1, 2).
        let g = generators::line(4);
        let mut f = CommitteeForest::singletons(4);
        f.absorb(cid(0), cid(1));
        f.absorb(cid(3), cid(2));
        let adj = f.committee_adjacency(&g);
        assert_eq!(adj.row_count(), 2);
        let rows = adj.neighbors(cid(1));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].other, cid(2));
        assert_eq!(
            (rows[0].bridge_local, rows[0].bridge_remote),
            (NodeId(1), NodeId(2))
        );
        let back = adj.neighbors(cid(2));
        assert_eq!(
            (back[0].bridge_local, back[0].bridge_remote),
            (NodeId(2), NodeId(1))
        );
        // Dead slots have no rows.
        assert!(adj.neighbors(cid(0)).is_empty());
    }

    #[test]
    fn adjacency_picks_the_lexicographically_smallest_bridge() {
        // Two parallel bridges between {0,1} and {2,3}: (1,2) and (0,3).
        // The smallest (x, y) per direction wins: (0, 3) for c0 -> c1
        // (0 < 1), and (2, 1) for c1 -> c0 (both bridges start at their
        // smaller local endpoint; (2, 1) < (3, 0)).
        let g = Graph::from_edges(
            4,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(2), NodeId(3)),
                (NodeId(1), NodeId(2)),
                (NodeId(0), NodeId(3)),
            ],
        )
        .unwrap();
        let mut f = CommitteeForest::singletons(4);
        f.absorb(cid(1), cid(0));
        f.absorb(cid(3), cid(2));
        let adj = f.committee_adjacency(&g);
        let row = &adj.neighbors(cid(0))[0];
        assert_eq!(
            (row.bridge_local, row.bridge_remote),
            (NodeId(0), NodeId(3))
        );
        let row = &adj.neighbors(cid(2))[0];
        assert_eq!(
            (row.bridge_local, row.bridge_remote),
            (NodeId(2), NodeId(1))
        );
    }

    #[test]
    fn adjacency_skips_untracked_churned_nodes() {
        let mut g = generators::line(3);
        let joined = g.add_node();
        g.add_edge(NodeId(0), joined).unwrap();
        let f = CommitteeForest::singletons(3);
        let adj = f.committee_adjacency(&g);
        // Rows only among the 3 tracked singletons: (0,1) and (1,2).
        assert_eq!(adj.row_count(), 4);
        assert!(adj.neighbors(cid(0)).iter().all(|r| r.other.index() < 3));
    }

    #[test]
    fn selection_forest_resolves_roots_children_and_levels() {
        let f = CommitteeForest::singletons(7);
        // 1 -> 0, 2 -> 0, 4 -> 2, 5 -> 4; 3 and 6 are isolated roots.
        let edges = vec![
            (cid(1), cid(0)),
            (cid(2), cid(0)),
            (cid(4), cid(2)),
            (cid(5), cid(4)),
        ];
        let sel = SelectionForest::new(&f, &edges);
        assert_eq!(sel.roots(), &[cid(0), cid(3), cid(6)]);
        assert_eq!(sel.children(cid(0)), &[cid(1), cid(2)]);
        assert_eq!(sel.children(cid(2)), &[cid(4)]);
        assert!(sel.has_children(cid(4)));
        assert!(!sel.has_children(cid(1)));
        for c in [cid(0), cid(1), cid(2), cid(4), cid(5)] {
            assert_eq!(sel.root_of(c), cid(0), "{c}");
        }
        assert_eq!(sel.root_of(cid(3)), cid(3));
        assert_eq!(sel.parent(cid(5)), Some(cid(4)));
        assert_eq!(sel.parent(cid(0)), None);
    }

    #[test]
    fn display_and_index_roundtrip() {
        assert_eq!(cid(7).to_string(), "c7");
        assert_eq!(cid(7).index(), 7);
    }
}
