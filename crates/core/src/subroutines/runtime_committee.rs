//! Committee algorithms (`GraphToStar`, the wreath family) as
//! message-driven actors on the `adn-runtime` schedulers.
//!
//! The synchronous engines run a phase as a handful of lock-step rounds:
//! gossip the committee neighbourhood, let every leader decide, execute
//! the edge operations, transition modes. This module re-expresses each
//! phase as a sequence of **asynchronous mini-phases** separated by
//! Dijkstra–Scholten quiescence barriers (the schedulers' `run_phased`
//! entry points):
//!
//! 1. **Gossip** — every node sends its committee's `(leader, mode)` to
//!    each graph neighbour, so leaders later see exactly the committee
//!    adjacency the synchronous engines compute centrally.
//! 2. **Report** — members forward their gossip observations to their
//!    leader.
//! 3. **Decide** — leaders reproduce the synchronous selection rule
//!    (largest-UID strictly-larger neighbouring committee not committed
//!    to a merge or a climb, with the lexicographically smallest bridge)
//!    from the reports alone and record it; nothing else happens here.
//! 4. **Execution mini-phases** — the driver plans the phase from the
//!    recorded selections with the synchronous engine's planner and hands
//!    each planned edge operation to the actor that initiates it. The
//!    star runs three: round-A activations, round-B activations, then
//!    every drop. The wreath runs three per splice level (activations,
//!    activations, deactivations) and one ring clean-up.
//!
//! A barrier starts only the driver's **start set** — the actors with
//! work in it — so it costs O(started + messages + acks) deliveries, not
//! O(n): gossip and report start every live member, decide starts the
//! leaders, and an execution barrier starts the distinct initiators of
//! its planned operations. A wreath phase with a long selection chain
//! runs Θ(n) splice barriers, so starting every actor at each barrier
//! would cost Θ(n²) deliveries.
//!
//! The driver is plain in-process orchestration state: it runs *between*
//! barriers, never inside the asynchronous execution, and executes the
//! shared planner of the synchronous engine — GraphToStar's `plan_phase`
//! and `end_phase`, the wreath's `WreathPlanner` (committee forest, ring
//! splicing, tree rebuilds) — so each phase rule has one implementation
//! and two executors. Because every decision is made either on a complete
//! message set (after a barrier) or by a commutative rule, the resulting
//! committee structures — final graph, phase count, committees per phase,
//! total activations and deactivations — **equal the synchronous
//! engines' on delay-free and adversarial schedules alike**, which the
//! differential tests in `tests/runtime_model.rs` pin for both schedulers.
//!
//! Inside a wreath phase the merged rings are rebuilt into trees with the
//! actor-based [`runtime_line_to_tree`](super::runtime_line_to_tree)
//! subroutine, nested under the same scheduler family (seeded sub-seeds
//! are split deterministically from the master seed, so seeded replay
//! stays byte-identical); a nested run starts only the line's actors.
//!
//! **Armed faults:** the seeded entry points accept a
//! [`FaultPlan`]; crashes sever a node mid-run and the protocols then
//! either complete or fail with a clean [`CoreError`] (no panic, no
//! hang — the phase limit and the scheduler's step budget bound every
//! execution). A crash plan makes the run diverge from the synchronous
//! baseline by design; the fault plan is consulted only by the *outer*
//! scheduler, between deliveries of the committee protocol itself.

use crate::algorithm::{EngineMode, RunConfig};
use crate::committee::{validate_input, Choice, CommitteeForest, CommitteeId, PhaseLedger};
use crate::graph_to_star::{end_phase, phase_ledger, plan_phase, Mode, StarPhase};
use crate::graph_to_wreath::{SpliceLevel, WreathConfig, WreathPlanner};
use crate::subroutines::{run_runtime_line_to_tree_free, run_runtime_line_to_tree_seeded};
use crate::{CoreError, TransformationOutcome};
use adn_graph::{Edge, Graph, NodeId, Uid, UidMap};
use adn_runtime::{
    AsyncKnobs, AsyncProgram, Context, FaultPlan, FreeScheduler, RuntimeReport, SeededScheduler,
};
use adn_sim::{Network, WaveActivation};
use std::mem;
use std::sync::Arc;

/// One gossip observation: node `x` saw neighbour `y`, which reported
/// belonging to the committee led by `y_leader` currently in `y_mode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BridgeInfo {
    x: NodeId,
    y: NodeId,
    y_leader: NodeId,
    y_mode: Mode,
}

/// Messages of the committee protocols.
#[derive(Debug, Clone)]
enum CommitteeMsg {
    /// Gossip: "I belong to the committee led by `leader`, in `mode`."
    Bridge { leader: NodeId, mode: Mode },
    /// A member forwards its gossip observations to its leader.
    Report { bridges: Vec<BridgeInfo> },
}

/// Which mini-phase the actor runs when the scheduler starts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mini {
    Idle,
    Gossip,
    Report,
    Decide,
    Exec,
}

/// One node of a committee protocol. The driver feeds the per-phase
/// inputs (leader, mode, neighbour snapshot, planned operations) between
/// barriers; within a mini-phase the actor acts on messages alone.
struct CommitteeActor {
    uids: Arc<UidMap>,
    // Driver-fed inputs.
    mini: Mini,
    leader: NodeId,
    mode: Mode,
    neighbors: Vec<NodeId>,
    assigned_acts: Vec<NodeId>,
    assigned_deacts: Vec<NodeId>,
    // Protocol state accumulated within a phase.
    bridges: Vec<BridgeInfo>,
    reports: Vec<BridgeInfo>,
    /// The leader's decision, `(target leader, x, y)`, read by the driver
    /// after the decide barrier.
    selection: Option<(NodeId, NodeId, NodeId)>,
}

impl CommitteeActor {
    fn new(id: usize, uids: &Arc<UidMap>) -> Self {
        CommitteeActor {
            uids: Arc::clone(uids),
            mini: Mini::Idle,
            leader: NodeId(id),
            mode: Mode::Selection,
            neighbors: Vec::new(),
            assigned_acts: Vec::new(),
            assigned_deacts: Vec::new(),
            bridges: Vec::new(),
            reports: Vec::new(),
            selection: None,
        }
    }

    fn clear_phase_state(&mut self) {
        self.assigned_acts.clear();
        self.assigned_deacts.clear();
        self.bridges.clear();
        self.reports.clear();
        self.selection = None;
    }

    /// The synchronous selection rule, recomputed from reports: the
    /// largest-UID committee strictly above our own among the gossiped
    /// neighbours that are not committed to a merge or a climb (the
    /// wreath gossips `Mode::Selection` only, so the filter never fires
    /// there), bridged by the lexicographically smallest `(x, y)` pair —
    /// exactly `CommitteeAdjacency::select_largest_uid_neighbor`. Every
    /// clause is order-independent, so the free scheduler's
    /// nondeterministic report arrival order cannot change the outcome.
    fn decide_selection(&self, me: NodeId) -> Option<(NodeId, NodeId, NodeId)> {
        let my_uid = self.uids.uid(me);
        let mut best: Option<(Uid, NodeId)> = None;
        for e in &self.reports {
            if e.y_leader == self.leader {
                continue; // intra-committee edge
            }
            if e.y_mode.is_committed() {
                continue;
            }
            let uid = self.uids.uid(e.y_leader);
            if uid <= my_uid {
                continue;
            }
            if best.is_none_or(|(b, _)| uid > b) {
                best = Some((uid, e.y_leader));
            }
        }
        let (_, v) = best?;
        let (x, y) = self
            .reports
            .iter()
            .filter(|e| e.y_leader == v)
            .map(|e| (e.x, e.y))
            .min()?;
        Some((v, x, y))
    }
}

impl AsyncProgram for CommitteeActor {
    type Message = CommitteeMsg;

    fn on_start(&mut self, ctx: &mut Context<Self::Message>) {
        match self.mini {
            Mini::Idle => {}
            Mini::Gossip => {
                for i in 0..self.neighbors.len() {
                    let nb = self.neighbors[i];
                    ctx.send(
                        nb,
                        CommitteeMsg::Bridge {
                            leader: self.leader,
                            mode: self.mode,
                        },
                    );
                }
            }
            Mini::Report => {
                if ctx.id() == self.leader {
                    let mut own = mem::take(&mut self.bridges);
                    self.reports.append(&mut own);
                } else if !self.bridges.is_empty() {
                    let bridges = mem::take(&mut self.bridges);
                    ctx.send(self.leader, CommitteeMsg::Report { bridges });
                }
            }
            // The decide step starts only the leaders.
            Mini::Decide => self.selection = self.decide_selection(ctx.id()),
            Mini::Exec => {
                for p in mem::take(&mut self.assigned_acts) {
                    ctx.activate(p);
                }
                for p in mem::take(&mut self.assigned_deacts) {
                    ctx.deactivate(p);
                }
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Message, ctx: &mut Context<Self::Message>) {
        match msg {
            CommitteeMsg::Bridge { leader, mode } => {
                self.bridges.push(BridgeInfo {
                    x: ctx.id(),
                    y: from,
                    y_leader: leader,
                    y_mode: mode,
                });
            }
            CommitteeMsg::Report { bridges } => {
                self.reports.extend(bridges);
            }
        }
    }
}

fn invariant(algorithm: &'static str, detail: String) -> CoreError {
    CoreError::BrokenInvariant { algorithm, detail }
}

fn build_actors(n: usize, uids: &UidMap) -> Vec<CommitteeActor> {
    let uids = Arc::new(uids.clone());
    (0..n).map(|i| CommitteeActor::new(i, &uids)).collect()
}

/// The selection committee `cid`'s leader recorded in the decide step,
/// with its target leader resolved to the target committee.
fn recorded_choice(
    actors: &[CommitteeActor],
    forest: &CommitteeForest,
    cid: CommitteeId,
    algorithm: &'static str,
) -> Result<Option<Choice>, CoreError> {
    let Some((v, x, y)) = actors[forest.leader(cid).index()].selection else {
        return Ok(None);
    };
    let target = forest
        .committee_of(v)
        .ok_or_else(|| invariant(algorithm, format!("selection target {v} is untracked")))?;
    Ok(Some((target, x, y)))
}

/// Who each barrier starts: the driver arms a mini-phase only on the
/// actors that have work in it and lists exactly those in the scheduler's
/// start set, so a barrier costs O(started + messages + acks), not O(n).
#[derive(Debug, Default)]
struct Roster {
    /// This phase's live committee members (the gossip and report set).
    members: Vec<NodeId>,
    /// This phase's committee leaders (the decide set).
    leaders: Vec<NodeId>,
    /// The actors the last [`assign_ops`](Self::assign_ops) armed — the
    /// only ones that can still hold assigned operations.
    armed: Vec<NodeId>,
}

impl Roster {
    /// Feeds every live committee member its phase inputs, records the
    /// phase's members and leaders, and starts the gossip mini-phase on
    /// all members.
    fn prep_gossip<F: Fn(CommitteeId) -> Mode>(
        &mut self,
        forest: &CommitteeForest,
        network: &Network,
        actors: &mut [CommitteeActor],
        start: &mut Vec<NodeId>,
        mode_of: F,
    ) {
        let graph = network.graph();
        self.members.clear();
        self.leaders.clear();
        for &cid in forest.live_ids() {
            let leader = forest.leader(cid);
            let mode = mode_of(cid);
            for &m in forest.members(cid) {
                if m.index() >= actors.len() {
                    continue;
                }
                let a = &mut actors[m.index()];
                a.clear_phase_state();
                a.leader = leader;
                a.mode = mode;
                a.neighbors.clear();
                a.neighbors.extend_from_slice(graph.neighbors_slice(m));
                self.members.push(m);
            }
            if leader.index() < actors.len() {
                self.leaders.push(leader);
            }
        }
        arm(actors, start, &self.members, Mini::Gossip);
    }

    /// Hands a pre-planned operation list to its owning actors — each
    /// activation to its initiator, each `(initiator, peer)` deactivation
    /// to its initiator — and starts one execution barrier on the
    /// distinct initiators (all guards were evaluated by the planner
    /// against the snapshot the synchronous engine would have used).
    fn assign_ops(
        &mut self,
        actors: &mut [CommitteeActor],
        start: &mut Vec<NodeId>,
        acts: &[WaveActivation],
        deacts: &[(NodeId, NodeId)],
    ) {
        for &v in &self.armed {
            let a = &mut actors[v.index()];
            a.assigned_acts.clear();
            a.assigned_deacts.clear();
        }
        self.armed.clear();
        let ops = acts
            .iter()
            .map(|w| (w.initiator, w.target, true))
            .chain(deacts.iter().map(|&(v, peer)| (v, peer, false)));
        for (v, peer, is_act) in ops {
            let Some(a) = actors.get_mut(v.index()) else {
                continue;
            };
            if a.assigned_acts.is_empty() && a.assigned_deacts.is_empty() {
                self.armed.push(v);
            }
            if is_act {
                a.assigned_acts.push(peer);
            } else {
                a.assigned_deacts.push(peer);
            }
        }
        arm(actors, start, &self.armed, Mini::Exec);
    }

    /// The termination phase: one barrier dropping every edge `keep`
    /// rejects, each assigned to its first endpoint.
    fn terminate<K: Fn(&Edge) -> bool>(
        &mut self,
        network: &Network,
        actors: &mut [CommitteeActor],
        start: &mut Vec<NodeId>,
        keep: K,
    ) {
        let deacts: Vec<(NodeId, NodeId)> = network
            .graph()
            .edges()
            .filter(|e| !keep(e))
            .map(|e| (e.a, e.b))
            .collect();
        self.assign_ops(actors, start, &[], &deacts);
    }
}

/// Arms `mini` on `nodes` and lists them in the barrier's start set.
fn arm(actors: &mut [CommitteeActor], start: &mut Vec<NodeId>, nodes: &[NodeId], mini: Mini) {
    for &v in nodes {
        actors[v.index()].mini = mini;
    }
    start.extend_from_slice(nodes);
}

/// The scheduler family of a run: its committee barriers and the wreath's
/// nested line-to-tree rebuilds.
#[derive(Debug, Clone, Copy)]
enum Scheduler {
    Seeded { seed: u64, knobs: AsyncKnobs },
    Free { threads: usize },
}

impl Scheduler {
    /// The asynchronous scheduler `config` selects; a synchronous config
    /// is rejected with an error naming the public entry point `entry`.
    fn of(config: &RunConfig, entry: &str) -> Result<Self, CoreError> {
        match config.engine {
            EngineMode::Seeded { seed } => Ok(Scheduler::Seeded {
                seed,
                knobs: config.async_knobs(),
            }),
            EngineMode::Free { threads } => Ok(Scheduler::Free { threads }),
            EngineMode::Synchronous => Err(CoreError::InvalidInput {
                reason: format!("{entry} requires an asynchronous engine mode"),
            }),
        }
    }

    /// Runs `actors` phase by phase under `driver`, called before every
    /// barrier; `faults` arm the seeded scheduler only.
    fn run<D>(
        self,
        network: &mut Network,
        actors: &mut [CommitteeActor],
        faults: &FaultPlan,
        driver: D,
    ) -> Result<RuntimeReport, CoreError>
    where
        D: FnMut(
            &mut Network,
            &mut [CommitteeActor],
            &mut Vec<NodeId>,
            usize,
        ) -> Result<bool, CoreError>,
    {
        match self {
            Scheduler::Seeded { seed, knobs } => SeededScheduler::new(seed)
                .with_knobs(knobs)
                .run_phased_with_faults(network, actors, faults, driver),
            Scheduler::Free { threads } => {
                FreeScheduler::new(threads).run_phased(network, actors, driver)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// GraphToStar driver
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StarStage {
    Begin,
    Gossip,
    Report,
    Decide,
    RoundA,
    RoundB,
    Drops,
    Done,
}

/// The between-barriers executor of GraphToStar's shared [`plan_phase`]:
/// the leaders select by message, and the planned phase becomes three
/// barriers (round-A activations, round-B activations, every drop)
/// followed by the shared transition ([`end_phase`]).
struct StarDriver<'a> {
    run: &'a RunConfig,
    initial: &'a Graph,
    n: usize,
    forest: CommitteeForest,
    mode: Vec<Mode>,
    ledger: PhaseLedger,
    stage: StarStage,
    /// The phase under execution.
    phase: StarPhase,
    roster: Roster,
}

impl<'a> StarDriver<'a> {
    fn new(run: &'a RunConfig, initial: &'a Graph, n: usize) -> Self {
        StarDriver {
            run,
            initial,
            n,
            forest: CommitteeForest::singletons(n),
            mode: vec![Mode::Selection; n],
            ledger: phase_ledger(n),
            stage: StarStage::Begin,
            phase: StarPhase::default(),
            roster: Roster::default(),
        }
    }

    /// Called by the scheduler before every mini-phase; lists the actors
    /// the mini-phase starts in `start`. Returns `false` when the protocol
    /// has quiesced.
    fn step(
        &mut self,
        network: &mut Network,
        actors: &mut [CommitteeActor],
        start: &mut Vec<NodeId>,
    ) -> Result<bool, CoreError> {
        loop {
            match self.stage {
                StarStage::Begin => {
                    if self.forest.live_count() <= 1 {
                        if self.n > 1 {
                            self.run.check_round_budget(network)?;
                            let leader = self.forest.leader(self.forest.live_ids()[0]);
                            self.roster.terminate(network, actors, start, |e| {
                                e.a == leader || e.b == leader
                            });
                            self.ledger.terminate();
                            self.stage = StarStage::Done;
                            return Ok(true);
                        }
                        self.stage = StarStage::Done;
                        return Ok(false);
                    }
                    self.ledger
                        .open(self.run, network, self.forest.live_count())?;
                    let mode = &self.mode;
                    self.roster
                        .prep_gossip(&self.forest, network, actors, start, |cid| {
                            mode[cid.index()]
                        });
                    self.stage = StarStage::Gossip;
                    return Ok(true);
                }
                StarStage::Gossip => {
                    arm(actors, start, &self.roster.members, Mini::Report);
                    self.stage = StarStage::Report;
                    return Ok(true);
                }
                StarStage::Report => {
                    arm(actors, start, &self.roster.leaders, Mini::Decide);
                    self.stage = StarStage::Decide;
                    return Ok(true);
                }
                StarStage::Decide => {
                    let (forest, decided) = (&self.forest, &*actors);
                    self.phase =
                        plan_phase(forest, &self.mode, network.graph(), self.initial, |cid| {
                            recorded_choice(decided, forest, cid, "GraphToStar")
                        })?;
                    self.roster
                        .assign_ops(actors, start, &self.phase.round_a, &[]);
                    self.stage = StarStage::RoundA;
                    return Ok(true);
                }
                StarStage::RoundA => {
                    self.roster
                        .assign_ops(actors, start, &self.phase.round_b, &[]);
                    self.stage = StarStage::RoundB;
                    return Ok(true);
                }
                StarStage::RoundB => {
                    // Every drop waits for both activation rounds, so no
                    // activation witness disappears early.
                    let drops: Vec<(NodeId, NodeId)> = self
                        .phase
                        .round_a_drops
                        .iter()
                        .chain(&self.phase.round_b_drops)
                        .copied()
                        .collect();
                    self.roster.assign_ops(actors, start, &[], &drops);
                    self.stage = StarStage::Drops;
                    return Ok(true);
                }
                StarStage::Drops => {
                    end_phase(&mut self.forest, &mut self.mode, &self.phase)?;
                    self.stage = StarStage::Begin;
                }
                StarStage::Done => return Ok(false),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Wreath driver
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WreathStage {
    Begin,
    Gossip,
    Report,
    Decide,
    PlanLevel,
    LevelA,
    LevelB,
    LevelC,
    Cleanup,
    Done,
}

/// The between-barriers executor of the shared [`WreathPlanner`]: the
/// leaders select by message, each planned splice level's round A /
/// round B + clean-up pair becomes three barriers (activations,
/// activations, deactivations), and the merged rings are rebuilt with the
/// nested runtime line-to-tree.
struct WreathDriver<'a> {
    run: &'a RunConfig,
    wreath: &'a WreathConfig,
    initial: &'a Graph,
    n: usize,
    scheduler: Scheduler,
    plan: WreathPlanner,
    ledger: PhaseLedger,
    stage: WreathStage,
    /// The splice level under execution.
    level: SpliceLevel,
    /// Its round-B deactivations, planned on the post-round-A snapshot.
    deacts_c: Vec<(NodeId, NodeId)>,
    roster: Roster,
}

impl<'a> WreathDriver<'a> {
    fn new(
        run: &'a RunConfig,
        wreath: &'a WreathConfig,
        initial: &'a Graph,
        n: usize,
        scheduler: Scheduler,
    ) -> Self {
        WreathDriver {
            run,
            wreath,
            initial,
            n,
            scheduler,
            plan: WreathPlanner::new(wreath, n),
            ledger: wreath.phase_ledger(n),
            stage: WreathStage::Begin,
            level: SpliceLevel::default(),
            deacts_c: Vec::new(),
            roster: Roster::default(),
        }
    }

    fn step(
        &mut self,
        network: &mut Network,
        actors: &mut [CommitteeActor],
        start: &mut Vec<NodeId>,
    ) -> Result<bool, CoreError> {
        loop {
            match self.stage {
                WreathStage::Begin => {
                    if self.plan.forest().live_count() <= 1 {
                        if self.n > 1 {
                            self.run.check_round_budget(network)?;
                            let keep = self.plan.termination_keep();
                            self.roster
                                .terminate(network, actors, start, |e| keep.contains(e));
                            self.ledger.terminate();
                            self.stage = WreathStage::Done;
                            return Ok(true);
                        }
                        self.stage = WreathStage::Done;
                        return Ok(false);
                    }
                    self.ledger
                        .open(self.run, network, self.plan.forest().live_count())?;
                    self.roster
                        .prep_gossip(self.plan.forest(), network, actors, start, |_| {
                            Mode::Selection
                        });
                    self.stage = WreathStage::Gossip;
                    return Ok(true);
                }
                WreathStage::Gossip => {
                    arm(actors, start, &self.roster.members, Mini::Report);
                    self.stage = WreathStage::Report;
                    return Ok(true);
                }
                WreathStage::Report => {
                    arm(actors, start, &self.roster.leaders, Mini::Decide);
                    self.stage = WreathStage::Decide;
                    return Ok(true);
                }
                WreathStage::Decide => {
                    let name = self.wreath.name;
                    let decided = &*actors;
                    let any_selected = self
                        .plan
                        .select(|forest, cid| recorded_choice(decided, forest, cid, name))?;
                    // With no selection the phase was already counted:
                    // retry, as the synchronous engine idles and continues.
                    self.stage = if any_selected {
                        WreathStage::PlanLevel
                    } else {
                        WreathStage::Begin
                    };
                }
                WreathStage::PlanLevel => {
                    let Some(level) = self.plan.next_level()? else {
                        if !self.plan.merged_any() {
                            self.stage = WreathStage::Begin;
                            continue;
                        }
                        let cleanup = self.plan.close_rings(network.graph(), self.initial)?;
                        if cleanup.is_empty() {
                            self.rebuild_trees(network)?;
                            self.stage = WreathStage::Begin;
                            continue;
                        }
                        self.roster.assign_ops(actors, start, &[], &cleanup);
                        self.stage = WreathStage::Cleanup;
                        return Ok(true);
                    };
                    let acts_a: Vec<WaveActivation> = level.round_a(network.graph()).collect();
                    self.roster.assign_ops(actors, start, &acts_a, &[]);
                    self.level = level;
                    self.stage = WreathStage::LevelA;
                    return Ok(true);
                }
                WreathStage::LevelA => {
                    // Post-round-A snapshot: round B's activations now, its
                    // deactivations after one more barrier.
                    let graph = network.graph();
                    let acts_b: Vec<WaveActivation> = self.level.round_b(graph).collect();
                    self.deacts_c.clear();
                    self.deacts_c
                        .extend(self.level.round_b_drops(graph, self.initial));
                    self.roster.assign_ops(actors, start, &acts_b, &[]);
                    self.stage = WreathStage::LevelB;
                    return Ok(true);
                }
                WreathStage::LevelB => {
                    self.roster.assign_ops(actors, start, &[], &self.deacts_c);
                    self.stage = WreathStage::LevelC;
                    return Ok(true);
                }
                WreathStage::LevelC => {
                    self.stage = WreathStage::PlanLevel;
                }
                WreathStage::Cleanup => {
                    self.rebuild_trees(network)?;
                    self.stage = WreathStage::Begin;
                }
                WreathStage::Done => return Ok(false),
            }
        }
    }

    /// Rebuilds every merged ring's tree with the nested runtime
    /// line-to-tree under the run's scheduler family.
    fn rebuild_trees(&mut self, network: &mut Network) -> Result<(), CoreError> {
        let (scheduler, phase) = (self.scheduler, self.ledger.phases() as u64);
        self.plan.rebuild_trees(|_, root, line, config| {
            let (tree, _report) = match scheduler {
                Scheduler::Seeded { seed, knobs } => run_runtime_line_to_tree_seeded(
                    network,
                    line,
                    config,
                    split_seed(seed, phase, root.index() as u64),
                    knobs,
                )?,
                Scheduler::Free { threads } => {
                    run_runtime_line_to_tree_free(network, line, config, threads)?
                }
            };
            Ok(tree)
        })
    }
}

/// Deterministic sub-seed derivation (SplitMix64 over the master seed,
/// the phase counter and the root slot), so every nested line-to-tree
/// rebuild replays byte-identically under the same master seed.
fn split_seed(base: u64, phase: u64, root: u64) -> u64 {
    let mut z =
        base ^ phase.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ root.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

fn finish(
    network: &mut Network,
    leader: NodeId,
    ledger: PhaseLedger,
    report: RuntimeReport,
) -> Result<TransformationOutcome, CoreError> {
    let mut outcome = TransformationOutcome::from_network(leader, network);
    ledger.record(&mut outcome);
    outcome.runtime = Some(report);
    Ok(outcome)
}

/// GraphToStar on the actor runtime under `scheduler`.
fn run_star(
    network: &mut Network,
    uids: &UidMap,
    config: &RunConfig,
    scheduler: Scheduler,
    faults: &FaultPlan,
) -> Result<TransformationOutcome, CoreError> {
    validate_input(network, uids, "GraphToStar")?;
    let initial = network.graph().clone();
    let n = initial.node_count();
    let mut actors = build_actors(n, uids);
    let mut driver = StarDriver::new(config, &initial, n);
    let report = scheduler.run(network, &mut actors, faults, |net, acts, start, _| {
        driver.step(net, acts, start)
    })?;
    let leader = driver.forest.leader(driver.forest.live_ids()[0]);
    finish(network, leader, driver.ledger, report)
}

/// The wreath family on the actor runtime under `scheduler`.
fn run_wreath(
    network: &mut Network,
    uids: &UidMap,
    wreath: &WreathConfig,
    config: &RunConfig,
    scheduler: Scheduler,
    faults: &FaultPlan,
) -> Result<TransformationOutcome, CoreError> {
    validate_input(network, uids, wreath.name)?;
    let initial = network.graph().clone();
    let n = initial.node_count();
    let mut actors = build_actors(n, uids);
    let mut driver = WreathDriver::new(config, wreath, &initial, n, scheduler);
    let report = scheduler.run(network, &mut actors, faults, |net, acts, start, _| {
        driver.step(net, acts, start)
    })?;
    let forest = driver.plan.forest();
    let leader = forest.leader(forest.live_ids()[0]);
    finish(network, leader, driver.ledger, report)
}

/// Runs GraphToStar on the asynchronous runtime, dispatching on
/// [`RunConfig::engine`] (`Seeded` or `Free`; `Synchronous` is an error —
/// the synchronous engine lives in `graph_to_star`).
///
/// # Errors
///
/// As the synchronous engine ([`CoreError::InvalidInput`] for bad inputs,
/// [`CoreError::DidNotConverge`] / [`CoreError::Sim`] /
/// [`CoreError::BrokenInvariant`] on bugs or armed faults).
pub fn run_runtime_star(
    network: &mut Network,
    uids: &UidMap,
    config: &RunConfig,
) -> Result<TransformationOutcome, CoreError> {
    let scheduler = Scheduler::of(config, "run_runtime_star")?;
    run_star(network, uids, config, scheduler, &FaultPlan::default())
}

/// Runs GraphToStar under the seeded scheduler with an explicit knob set
/// and an armed [`FaultPlan`]. The `(seed, knobs, plan)` triple replays
/// byte-identically.
///
/// # Errors
///
/// As [`run_runtime_star`]; with a non-empty plan, faults may surface as
/// clean [`CoreError`]s.
pub fn run_runtime_star_faulted(
    network: &mut Network,
    uids: &UidMap,
    config: &RunConfig,
    seed: u64,
    knobs: AsyncKnobs,
    faults: &FaultPlan,
) -> Result<TransformationOutcome, CoreError> {
    run_star(
        network,
        uids,
        config,
        Scheduler::Seeded { seed, knobs },
        faults,
    )
}

/// Runs the wreath family (GraphToWreath / GraphToThinWreath, by
/// `wreath.tree_arity`) on the asynchronous runtime, dispatching on
/// [`RunConfig::engine`].
///
/// # Errors
///
/// As [`run_runtime_star`].
pub fn run_runtime_wreath(
    network: &mut Network,
    uids: &UidMap,
    wreath: &WreathConfig,
    config: &RunConfig,
) -> Result<TransformationOutcome, CoreError> {
    let scheduler = Scheduler::of(config, "run_runtime_wreath")?;
    run_wreath(
        network,
        uids,
        wreath,
        config,
        scheduler,
        &FaultPlan::default(),
    )
}

/// Runs the wreath family under the seeded scheduler with an explicit
/// knob set and an armed [`FaultPlan`]. The `(seed, knobs, plan)` triple
/// replays byte-identically (nested rebuild sub-seeds are split
/// deterministically from `seed`).
///
/// # Errors
///
/// As [`run_runtime_star_faulted`].
pub fn run_runtime_wreath_faulted(
    network: &mut Network,
    uids: &UidMap,
    wreath: &WreathConfig,
    config: &RunConfig,
    seed: u64,
    knobs: AsyncKnobs,
    faults: &FaultPlan,
) -> Result<TransformationOutcome, CoreError> {
    run_wreath(
        network,
        uids,
        wreath,
        config,
        Scheduler::Seeded { seed, knobs },
        faults,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::RunConfig;
    use adn_graph::properties::{is_star, is_tree, star_center};
    use adn_graph::{generators, UidAssignment};

    fn sync_star(g: &Graph, uids: &UidMap) -> TransformationOutcome {
        let mut network = Network::new(g.clone());
        crate::graph_to_star::execute(&mut network, uids, &RunConfig::default())
            .expect("sync star must succeed")
    }

    fn sync_wreath(g: &Graph, uids: &UidMap) -> TransformationOutcome {
        let mut network = Network::new(g.clone());
        crate::graph_to_wreath::execute(
            &mut network,
            uids,
            &WreathConfig::binary(),
            &RunConfig::default(),
        )
        .expect("sync wreath must succeed")
    }

    #[test]
    fn seeded_star_matches_sync_on_small_graphs() {
        for (g, seed) in [
            (generators::line(9), 7u64),
            (generators::ring(12), 11),
            (generators::grid(3, 4), 13),
            (generators::random_connected(16, 0.2, 3), 17),
        ] {
            let uids = UidMap::new(g.node_count(), UidAssignment::RandomPermutation { seed });
            let sync = sync_star(&g, &uids);
            let mut network = Network::new(g.clone());
            let outcome = run_runtime_star(
                &mut network,
                &uids,
                &RunConfig::default().with_engine(EngineMode::Seeded { seed }),
            )
            .expect("runtime star must succeed");
            assert!(is_star(&outcome.final_graph));
            assert_eq!(star_center(&outcome.final_graph), Some(outcome.leader));
            assert_eq!(outcome.leader, sync.leader);
            assert_eq!(outcome.final_graph, sync.final_graph);
            assert_eq!(outcome.phases, sync.phases);
            assert_eq!(outcome.committees_per_phase, sync.committees_per_phase);
            assert!(outcome.runtime.is_some());
        }
    }

    #[test]
    fn free_star_matches_sync() {
        let g = generators::random_connected(24, 0.15, 5);
        let uids = UidMap::new(24, UidAssignment::RandomPermutation { seed: 5 });
        let sync = sync_star(&g, &uids);
        let mut network = Network::new(g.clone());
        let outcome = run_runtime_star(
            &mut network,
            &uids,
            &RunConfig::default().with_engine(EngineMode::Free { threads: 4 }),
        )
        .expect("free star must succeed");
        assert_eq!(outcome.final_graph, sync.final_graph);
        assert_eq!(outcome.committees_per_phase, sync.committees_per_phase);
        assert_eq!(
            outcome.metrics.total_activations,
            sync.metrics.total_activations
        );
        assert_eq!(
            outcome.metrics.total_deactivations,
            sync.metrics.total_deactivations
        );
    }

    #[test]
    fn seeded_wreath_matches_sync_on_small_graphs() {
        for (g, seed) in [
            (generators::line(10), 19u64),
            (generators::ring(14), 23),
            (generators::grid(4, 4), 29),
        ] {
            let uids = UidMap::new(g.node_count(), UidAssignment::RandomPermutation { seed });
            let sync = sync_wreath(&g, &uids);
            let mut network = Network::new(g.clone());
            let outcome = run_runtime_wreath(
                &mut network,
                &uids,
                &WreathConfig::binary(),
                &RunConfig::default().with_engine(EngineMode::Seeded { seed }),
            )
            .expect("runtime wreath must succeed");
            assert!(is_tree(&outcome.final_graph));
            assert_eq!(outcome.leader, sync.leader);
            assert_eq!(outcome.final_graph, sync.final_graph);
            assert_eq!(outcome.phases, sync.phases);
            assert_eq!(outcome.committees_per_phase, sync.committees_per_phase);
        }
    }

    #[test]
    fn free_wreath_matches_sync() {
        let g = generators::ring(18);
        let uids = UidMap::new(18, UidAssignment::RandomPermutation { seed: 31 });
        let sync = sync_wreath(&g, &uids);
        let mut network = Network::new(g.clone());
        let outcome = run_runtime_wreath(
            &mut network,
            &uids,
            &WreathConfig::binary(),
            &RunConfig::default().with_engine(EngineMode::Free { threads: 3 }),
        )
        .expect("free wreath must succeed");
        assert_eq!(outcome.final_graph, sync.final_graph);
        assert_eq!(outcome.committees_per_phase, sync.committees_per_phase);
        assert_eq!(
            outcome.metrics.total_activations,
            sync.metrics.total_activations
        );
        assert_eq!(
            outcome.metrics.total_deactivations,
            sync.metrics.total_deactivations
        );
    }

    #[test]
    fn adversarial_knobs_do_not_change_star_outcomes() {
        let g = generators::random_connected(20, 0.2, 9);
        let uids = UidMap::new(20, UidAssignment::RandomPermutation { seed: 9 });
        let sync = sync_star(&g, &uids);
        let knobs = AsyncKnobs {
            reorder_window: 6,
            max_link_delay: 3,
            asymmetric_delay: true,
        };
        for seed in [1u64, 2, 3] {
            let mut network = Network::new(g.clone());
            let outcome = run_runtime_star_faulted(
                &mut network,
                &uids,
                &RunConfig::default().with_engine(EngineMode::Seeded { seed }),
                seed,
                knobs,
                &FaultPlan::default(),
            )
            .expect("adversarial star must succeed");
            assert_eq!(outcome.final_graph, sync.final_graph);
            assert_eq!(outcome.committees_per_phase, sync.committees_per_phase);
        }
    }

    #[test]
    fn seeded_star_replays_byte_identically() {
        let g = generators::grid(4, 5);
        let uids = UidMap::new(20, UidAssignment::RandomPermutation { seed: 2 });
        let run = |seed: u64| {
            let mut network = Network::new(g.clone());
            run_runtime_star(
                &mut network,
                &uids,
                &RunConfig::default().with_engine(EngineMode::Seeded { seed }),
            )
            .expect("must succeed")
            .runtime
            .expect("runtime report present")
            .render()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn armed_crash_is_survived_or_fails_cleanly() {
        let g = generators::random_connected(14, 0.25, 4);
        let uids = UidMap::new(14, UidAssignment::RandomPermutation { seed: 4 });
        for seed in 0..8u64 {
            let crash = NodeId((seed as usize * 5) % 14);
            let plan = FaultPlan::new().crash_at(20 + seed as usize * 7, crash);
            let mut network = Network::new(g.clone());
            let result = run_runtime_star_faulted(
                &mut network,
                &uids,
                &RunConfig::default().with_engine(EngineMode::Seeded { seed }),
                seed,
                AsyncKnobs::default(),
                &plan,
            );
            // Either the run completes (crash landed after the protocol
            // stopped needing the node) or it fails with a clean error —
            // never a panic, never a hang.
            if let Ok(outcome) = &result {
                assert!(outcome.runtime.is_some());
            }
        }
    }

    #[test]
    fn synchronous_mode_is_rejected() {
        let g = generators::line(4);
        let uids = UidMap::new(4, UidAssignment::Sequential);
        let mut network = Network::new(g.clone());
        assert!(matches!(
            run_runtime_star(&mut network, &uids, &RunConfig::default()),
            Err(CoreError::InvalidInput { .. })
        ));
        let mut network = Network::new(g);
        assert!(matches!(
            run_runtime_wreath(
                &mut network,
                &uids,
                &WreathConfig::binary(),
                &RunConfig::default()
            ),
            Err(CoreError::InvalidInput { .. })
        ));
    }

    #[test]
    fn single_node_is_trivial() {
        let uids = UidMap::new(1, UidAssignment::Sequential);
        let mut network = Network::new(Graph::new(1));
        let outcome = run_runtime_star(
            &mut network,
            &uids,
            &RunConfig::default().with_engine(EngineMode::Seeded { seed: 1 }),
        )
        .expect("single node must succeed");
        assert_eq!(outcome.leader, NodeId(0));
        assert_eq!(outcome.final_graph.edge_count(), 0);
        assert_eq!(outcome.phases, 0);
    }
}
