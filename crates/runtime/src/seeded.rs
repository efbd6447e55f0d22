//! The deterministic single-threaded scheduler.
//!
//! Delivery is a discrete-event loop over a priority queue keyed by
//! `(ready_at, sequence)`. Every source of nondeterminism — reordering
//! within the window, per-message delay jitter, per-link base latency —
//! is drawn from one [`DetRng`] seeded with a single `u64`, so a run is
//! a pure function of `(network, programs, seed, knobs)` and replays
//! byte-identically.

use crate::actor::{AsyncProgram, Context, Envelope};
use crate::fault::{FaultKind, FaultPlan};
use crate::termination::{DsParent, DsState, StartMarks};
use crate::{AsyncKnobs, RuntimeError, RuntimeReport};
use adn_graph::rng::DetRng;
use adn_graph::NodeId;
use adn_sim::network::Network;
use std::collections::BinaryHeap;

/// Delivery-step budget before a seeded run is declared non-quiescent.
pub const DEFAULT_MAX_STEPS: usize = 50_000_000;

/// An in-flight envelope. Ordered by `(ready_at, seq)` **inverted**, so
/// the std max-heap pops the earliest-ready, lowest-sequence entry first.
struct InFlight<M> {
    ready_at: usize,
    seq: usize,
    to: NodeId,
    env: Envelope<M>,
}

impl<M> PartialEq for InFlight<M> {
    fn eq(&self, other: &Self) -> bool {
        self.ready_at == other.ready_at && self.seq == other.seq
    }
}
impl<M> Eq for InFlight<M> {}
impl<M> PartialOrd for InFlight<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for InFlight<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.ready_at, other.seq).cmp(&(self.ready_at, self.seq))
    }
}

/// Single-threaded deterministic scheduler: the whole delivery order
/// derives from one `u64`.
#[derive(Debug, Clone)]
pub struct SeededScheduler {
    seed: u64,
    knobs: AsyncKnobs,
    max_steps: usize,
}

impl SeededScheduler {
    /// Scheduler with default knobs (no reordering, no delays) and the
    /// default step budget.
    pub fn new(seed: u64) -> Self {
        SeededScheduler {
            seed,
            knobs: AsyncKnobs::default(),
            max_steps: DEFAULT_MAX_STEPS,
        }
    }

    /// Sets the delivery-perturbation knobs.
    pub fn with_knobs(mut self, knobs: AsyncKnobs) -> Self {
        self.knobs = knobs;
        self
    }

    /// Sets the delivery-step budget.
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// The seed this scheduler replays from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Fixed per-direction base latency for the link `from -> to`
    /// (asymmetric-delay mode): a SplitMix64-style mix of the seed and
    /// both endpoints, reduced to `0..=2*max_link_delay`.
    fn link_base(&self, from: NodeId, to: NodeId) -> usize {
        if !self.knobs.asymmetric_delay {
            return 0;
        }
        let mut z = self
            .seed
            .wrapping_add((from.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((to.index() as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let span = 2 * self.knobs.max_link_delay + 1;
        (z ^ (z >> 31)) as usize % span
    }

    /// Runs `programs` (actor `i` is node `i`) to Dijkstra–Scholten
    /// quiescence on `network`, starting every actor.
    pub fn run<P: AsyncProgram>(
        &self,
        network: &mut Network,
        programs: &mut [P],
    ) -> Result<RuntimeReport, RuntimeError> {
        let n = programs.len();
        self.run_phased(network, programs, |_, _, start, phase| {
            if phase == 0 {
                start.extend((0..n).map(NodeId));
            }
            Ok::<bool, RuntimeError>(phase == 0)
        })
    }

    /// Runs `programs` in driver-delimited phases: before each phase the
    /// `driver` closure is called with the network, the actors, the
    /// phase's start list (empty on entry) and the phase index; it may
    /// rewrite actor state (common-knowledge orchestration between
    /// barriers), lists the actors the phase starts, and returns whether
    /// another phase should run. The phase sends `Start` only to the
    /// listed actors that have not crashed (each once, however often it
    /// is listed) and runs to Dijkstra–Scholten quiescence, so it costs
    /// O(listed + messages + acks) deliveries; an empty list makes it a
    /// no-op. One RNG stream spans all phases, so a phased run replays
    /// byte-identically from the seed.
    ///
    /// # Errors
    ///
    /// Whatever the driver raises, plus every [`RuntimeError`] a
    /// single-phase run can raise (converted via `E: From<RuntimeError>`).
    pub fn run_phased<P, E, F>(
        &self,
        network: &mut Network,
        programs: &mut [P],
        driver: F,
    ) -> Result<RuntimeReport, E>
    where
        P: AsyncProgram,
        E: From<RuntimeError>,
        F: FnMut(&mut Network, &mut [P], &mut Vec<NodeId>, usize) -> Result<bool, E>,
    {
        self.run_phased_with_faults(network, programs, &FaultPlan::default(), driver)
    }

    /// [`run_phased`](Self::run_phased) with an armed [`FaultPlan`]:
    /// events fire deterministically when the cumulative delivery-step
    /// counter reaches their step, *between* deliveries. A crash severs
    /// the node in the network, forgives its Dijkstra–Scholten deficit and
    /// signs off its engagement on its behalf; subsequent application
    /// messages to it are acknowledged by the scheduler (senders' deficits
    /// still drain) and acks to it are dropped. Termination detection
    /// stays exact for the live part of the system —
    /// [`RuntimeReport::in_flight_at_detection`] counts only messages
    /// destined to live nodes.
    #[allow(clippy::too_many_lines)]
    pub fn run_phased_with_faults<P, E, F>(
        &self,
        network: &mut Network,
        programs: &mut [P],
        faults: &FaultPlan,
        mut driver: F,
    ) -> Result<RuntimeReport, E>
    where
        P: AsyncProgram,
        E: From<RuntimeError>,
        F: FnMut(&mut Network, &mut [P], &mut Vec<NodeId>, usize) -> Result<bool, E>,
    {
        let n = programs.len();
        if network.node_count() != n {
            return Err(E::from(RuntimeError::InvalidInput {
                reason: format!("{n} programs for {} nodes", network.node_count()),
            }));
        }
        let mut rng = DetRng::seed_from_u64(self.seed);
        let window = self.knobs.reorder_window.max(1);
        let mut heap: BinaryHeap<InFlight<P::Message>> = BinaryHeap::new();
        let mut seq = 0usize;
        let mut now = 0usize;
        let mut ds: Vec<DsState> = vec![DsState::default(); n];
        let mut crashed = vec![false; n];
        let mut fault_idx = 0usize;
        let mut report = RuntimeReport {
            scheduler: "seeded",
            seed: Some(self.seed),
            threads: None,
            n,
            steps: 0,
            app_messages: 0,
            acks: 0,
            commits: 0,
            activations: 0,
            deactivations: 0,
            in_flight_at_detection: 0,
        };
        let mut ctx: Context<P::Message> = Context::new(NodeId(0));

        let enqueue = |heap: &mut BinaryHeap<InFlight<P::Message>>,
                       rng: &mut DetRng,
                       seq: &mut usize,
                       now: usize,
                       from: Option<NodeId>,
                       to: NodeId,
                       env: Envelope<P::Message>| {
            let jitter = if self.knobs.max_link_delay > 0 {
                rng.gen_range(0, self.knobs.max_link_delay + 1)
            } else {
                0
            };
            let base = from.map_or(0, |f| self.link_base(f, to));
            heap.push(InFlight {
                ready_at: now + 1 + base + jitter,
                seq: *seq,
                to,
                env,
            });
            *seq += 1;
        };

        let mut window_buf: Vec<InFlight<P::Message>> = Vec::with_capacity(window);
        let mut start: Vec<NodeId> = Vec::new();
        let mut marks = StartMarks::new(n);
        let mut phase = 0usize;
        loop {
            start.clear();
            if !driver(network, programs, &mut start, phase)? {
                break;
            }
            marks
                .open_phase(&mut start, |v| crashed[v.index()])
                .map_err(E::from)?;
            let mut root_deficit = start.len();
            for &node in &start {
                enqueue(
                    &mut heap,
                    &mut rng,
                    &mut seq,
                    now,
                    None,
                    node,
                    Envelope::Start,
                );
            }
            while root_deficit > 0 {
                if report.steps >= self.max_steps {
                    return Err(E::from(RuntimeError::DidNotQuiesce {
                        steps: report.steps,
                    }));
                }
                // Fire every armed fault whose step has been reached.
                while let Some(event) = faults.events().get(fault_idx) {
                    if event.at_step > report.steps {
                        break;
                    }
                    fault_idx += 1;
                    match event.kind {
                        FaultKind::Crash(c) => {
                            if c.index() >= n || crashed[c.index()] {
                                continue;
                            }
                            network
                                .inject_crash(c)
                                .map_err(|e| E::from(RuntimeError::Sim(e)))?;
                            crashed[c.index()] = true;
                            match ds[c.index()].crash() {
                                Some(DsParent::Root) => root_deficit -= 1,
                                Some(DsParent::Node(p)) => enqueue(
                                    &mut heap,
                                    &mut rng,
                                    &mut seq,
                                    now,
                                    Some(c),
                                    p,
                                    Envelope::Ack,
                                ),
                                None => {}
                            }
                        }
                        FaultKind::Join => {
                            network.inject_join();
                        }
                    }
                }
                // Pull up to `window` candidates in readiness order and pick
                // one uniformly; with window 1 no RNG is consumed, so the
                // default knobs add zero draws to the stream.
                window_buf.clear();
                for _ in 0..window {
                    match heap.pop() {
                        Some(item) => window_buf.push(item),
                        None => break,
                    }
                }
                if window_buf.is_empty() {
                    // Unreachable by the Dijkstra–Scholten invariant (an
                    // engaged node with zero deficit disengages at its last
                    // delivery), kept as a loud failure rather than a hang.
                    return Err(E::from(RuntimeError::DidNotQuiesce {
                        steps: report.steps,
                    }));
                }
                let pick = if window_buf.len() > 1 {
                    rng.gen_range(0, window_buf.len())
                } else {
                    0
                };
                let delivery = window_buf.swap_remove(pick);
                for leftover in window_buf.drain(..) {
                    heap.push(leftover);
                }
                now = now.max(delivery.ready_at);
                report.steps += 1;
                let node = delivery.to;

                if crashed[node.index()] {
                    // The scheduler answers a crashed node's mail: starts
                    // release their root obligation, application messages
                    // are acked so the sender's deficit drains, acks are
                    // dropped (the deficit they would pay was forgiven).
                    match delivery.env {
                        Envelope::Start => root_deficit -= 1,
                        Envelope::App { from, .. } => enqueue(
                            &mut heap,
                            &mut rng,
                            &mut seq,
                            now,
                            Some(node),
                            from,
                            Envelope::Ack,
                        ),
                        Envelope::Ack => {}
                    }
                    continue;
                }

                ctx.reset(node);
                let mut immediate_root_ack = false;
                let mut ack_sender: Option<NodeId> = None;
                match delivery.env {
                    Envelope::Start => {
                        let engaged_now = ds[node.index()].on_receive(DsParent::Root);
                        if !engaged_now {
                            // An application message overtook the start signal
                            // and engaged this node first; the root's copy is
                            // acknowledged on the spot.
                            immediate_root_ack = true;
                        }
                        programs[node.index()].on_start(&mut ctx);
                    }
                    Envelope::App { from, msg } => {
                        report.app_messages += 1;
                        let engaged_now = ds[node.index()].on_receive(DsParent::Node(from));
                        if !engaged_now {
                            ack_sender = Some(from);
                        }
                        programs[node.index()].on_message(from, msg, &mut ctx);
                    }
                    Envelope::Ack => {
                        report.acks += 1;
                        ds[node.index()].on_ack();
                    }
                }

                // Edge operations first (one atomic commit), then the outbox.
                if !ctx.activations.is_empty() || !ctx.deactivations.is_empty() {
                    for peer in ctx.activations.drain(..) {
                        network
                            .stage_activation(node, peer)
                            .map_err(|e| E::from(RuntimeError::Sim(e)))?;
                        report.activations += 1;
                    }
                    for peer in ctx.deactivations.drain(..) {
                        network
                            .stage_deactivation(node, peer)
                            .map_err(|e| E::from(RuntimeError::Sim(e)))?;
                        report.deactivations += 1;
                    }
                    network.commit_round();
                    report.commits += 1;
                }
                if !ctx.outbox.is_empty() {
                    ds[node.index()].on_sent(ctx.outbox.len());
                    let outbox: Vec<(NodeId, P::Message)> = ctx.outbox.drain(..).collect();
                    for (to, msg) in outbox {
                        enqueue(
                            &mut heap,
                            &mut rng,
                            &mut seq,
                            now,
                            Some(node),
                            to,
                            Envelope::App { from: node, msg },
                        );
                    }
                }
                if let Some(sender) = ack_sender {
                    enqueue(
                        &mut heap,
                        &mut rng,
                        &mut seq,
                        now,
                        Some(node),
                        sender,
                        Envelope::Ack,
                    );
                }
                if immediate_root_ack {
                    root_deficit -= 1;
                }
                match ds[node.index()].try_disengage() {
                    Some(DsParent::Root) => root_deficit -= 1,
                    Some(DsParent::Node(parent)) => enqueue(
                        &mut heap,
                        &mut rng,
                        &mut seq,
                        now,
                        Some(node),
                        parent,
                        Envelope::Ack,
                    ),
                    None => {}
                }
            }
            phase += 1;
        }
        // Leftovers can only be acks destined to crashed nodes; everything
        // aimed at a live node holds up a deficit somewhere.
        report.in_flight_at_detection = heap
            .iter()
            .filter(|d| !crashed.get(d.to.index()).copied().unwrap_or(true))
            .count();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_graph::{generators, Graph};

    /// Ping-pong over one edge: node 0 sends `k` to its neighbours and
    /// every receiver forwards `k - 1` back until it hits zero.
    struct Countdown {
        neighbors: Vec<NodeId>,
        start: u32,
        received: u32,
    }

    impl AsyncProgram for Countdown {
        type Message = u32;
        fn on_start(&mut self, ctx: &mut Context<u32>) {
            if self.start > 0 {
                for &nb in &self.neighbors {
                    ctx.send(nb, self.start);
                }
            }
        }
        fn on_message(&mut self, from: NodeId, msg: u32, ctx: &mut Context<u32>) {
            self.received += msg;
            if msg > 1 {
                ctx.send(from, msg - 1);
            }
        }
    }

    fn countdown_programs(graph: &Graph, start_node: usize, k: u32) -> Vec<Countdown> {
        (0..graph.node_count())
            .map(|i| Countdown {
                neighbors: graph.neighbors_slice(NodeId(i)).to_vec(),
                start: if i == start_node { k } else { 0 },
                received: 0,
            })
            .collect()
    }

    #[test]
    fn quiesces_and_counts_messages() {
        let graph = generators::line(2);
        let mut network = Network::new(graph.clone());
        let mut programs = countdown_programs(&graph, 0, 4);
        let report = SeededScheduler::new(11)
            .run(&mut network, &mut programs)
            .expect("run");
        // Messages 4, 3, 2, 1 bounce across the single edge.
        assert_eq!(report.app_messages, 4);
        assert_eq!(report.in_flight_at_detection, 0);
        assert_eq!(programs[1].received, 4 + 2);
        assert_eq!(programs[0].received, 3 + 1);
    }

    #[test]
    fn replays_byte_identically() {
        let graph = generators::line(9);
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            let knobs = AsyncKnobs {
                reorder_window: 3,
                max_link_delay: 2,
                asymmetric_delay: true,
            };
            let render: Vec<String> = (0..2)
                .map(|_| {
                    let mut network = Network::new(graph.clone());
                    let mut programs = countdown_programs(&graph, 4, 6);
                    SeededScheduler::new(seed)
                        .with_knobs(knobs)
                        .run(&mut network, &mut programs)
                        .expect("run")
                        .render()
                })
                .collect();
            assert_eq!(render[0], render[1], "seed {seed} diverged");
        }
    }

    #[test]
    fn a_phase_starts_only_its_listed_actors() {
        let graph = generators::line(5);
        let phased = |lists: &[&[usize]]| {
            let mut network = Network::new(graph.clone());
            let mut programs = countdown_programs(&graph, 0, 3);
            SeededScheduler::new(3).run_phased(&mut network, &mut programs, |_, _, start, phase| {
                let Some(list) = lists.get(phase) else {
                    return Ok(false);
                };
                start.extend(list.iter().map(|&i| NodeId(i)));
                Ok::<bool, RuntimeError>(true)
            })
        };
        // One start, three messages, three acks: node 0 listed twice is
        // started once, and a phase with an empty list delivers nothing.
        let report = phased(&[&[0, 0], &[]]).expect("run");
        assert_eq!((report.steps, report.app_messages), (7, 3));
        assert_eq!(phased(&[&[], &[0], &[0]]).expect("run").steps, 14);
        assert!(matches!(
            phased(&[&[5]]),
            Err(RuntimeError::InvalidInput { .. })
        ));
        // `run` starts every actor.
        let mut network = Network::new(graph.clone());
        let mut programs = countdown_programs(&graph, 0, 3);
        let report = SeededScheduler::new(3)
            .run(&mut network, &mut programs)
            .expect("run");
        assert_eq!(report.steps, 5 + 3 + 3);
    }

    #[test]
    fn program_count_mismatch_is_invalid_input() {
        let graph = generators::line(3);
        let mut network = Network::new(graph.clone());
        let mut programs = countdown_programs(&graph, 0, 1);
        programs.pop();
        let err = SeededScheduler::new(0)
            .run(&mut network, &mut programs)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidInput { .. }));
    }

    #[test]
    fn step_budget_is_enforced() {
        let graph = generators::line(2);
        let mut network = Network::new(graph.clone());
        let mut programs = countdown_programs(&graph, 0, 1_000_000);
        let err = SeededScheduler::new(0)
            .with_max_steps(50)
            .run(&mut network, &mut programs)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::DidNotQuiesce { steps: 50 }));
    }
}
