//! Differential model tests for the asynchronous runtime.
//!
//! Five obligations of the `adn-runtime` subsystem, checked from the
//! facade so the whole public path (builder → engine dispatch → scheduler
//! → outcome) is exercised:
//!
//! 1. the seeded scheduler replays **byte-identically** from one `u64`;
//! 2. on delay-free schedules the asynchronous engine reaches the same
//!    outcome as the synchronous engine (and the tree actors the same
//!    tree as the synchronous subroutine under *any* knobs);
//! 3. Dijkstra–Scholten never declares termination with a message still
//!    in flight, across a seed sweep of adversarial delivery schedules —
//!    including schedules where actors **crash mid-phase** with unacked
//!    sends outstanding;
//! 4. the committee algorithms (`GraphToStar`, `GraphToWreath`,
//!    `GraphToThinWreath`) reach the synchronous engine's committee
//!    structures under both asynchronous engines, on delay-free and
//!    adversarial schedules, across sizes and UID assignments;
//! 5. a barrier starts only the actors with work in it, so a committee
//!    run's delivery count follows its work, not n per barrier.

use actively_dynamic_networks::core::subroutines::{
    run_line_to_tree, run_runtime_line_to_tree_seeded, run_runtime_star_faulted,
    run_runtime_wreath_faulted, LineToTreeConfig,
};
use actively_dynamic_networks::prelude::*;
use actively_dynamic_networks::runtime::flood::flood_actors;
use actively_dynamic_networks::runtime::{FaultPlan, RuntimeError};

/// The nastiest delivery schedule the seeded scheduler offers: wide
/// reorder window, per-message delays and persistently asymmetric links.
const ADVERSARIAL: AsyncKnobs = AsyncKnobs {
    reorder_window: 6,
    max_link_delay: 3,
    asymmetric_delay: true,
};

fn flood_outcome(
    family: GraphFamily,
    n: usize,
    seed: u64,
    engine: EngineMode,
) -> TransformationOutcome {
    Experiment::family(family, n, seed)
        .algorithm("flooding")
        .engine(engine)
        .run()
        .expect("flooding run")
}

#[test]
fn seeded_scheduler_replays_byte_identically() {
    for (family, n) in [
        (GraphFamily::Ring, 24),
        (GraphFamily::Grid, 25),
        (GraphFamily::RandomTree, 40),
    ] {
        for sched_seed in [0u64, 7, 0xDEAD_BEEF] {
            let a = flood_outcome(family, n, 3, EngineMode::Seeded { seed: sched_seed });
            let b = flood_outcome(family, n, 3, EngineMode::Seeded { seed: sched_seed });
            let ra = a.runtime.expect("async run carries a report");
            let rb = b.runtime.expect("async run carries a report");
            assert_eq!(
                ra.render(),
                rb.render(),
                "replay diverged: {family:?} n={n} sched_seed={sched_seed}"
            );
            assert_eq!(a.tokens_per_node, b.tokens_per_node);
            assert_eq!(a.leader, b.leader);
        }
    }
}

#[test]
fn delay_free_async_flooding_matches_the_sync_engine() {
    // With all knobs zero the seeded scheduler delivers earliest-first,
    // and flooding's token-merge is order-independent anyway — so the
    // asynchronous engine must land on exactly the synchronous outcome
    // (modulo round/step accounting, which async runs do not have).
    for (family, n) in [
        (GraphFamily::Line, 32),
        (GraphFamily::Ring, 24),
        (GraphFamily::Star, 17),
        (GraphFamily::SparseRandom, 30),
    ] {
        for graph_seed in [1u64, 12] {
            let sync = flood_outcome(family, n, graph_seed, EngineMode::Synchronous);
            let seeded = flood_outcome(family, n, graph_seed, EngineMode::Seeded { seed: 0 });
            assert_eq!(sync.leader, seeded.leader, "{family:?} n={n}");
            assert_eq!(
                sync.tokens_per_node, seeded.tokens_per_node,
                "{family:?} n={n}"
            );
            assert!(seeded.tokens_per_node.iter().all(|&t| t == n));
            assert_eq!(
                sync.final_graph.edge_count(),
                seeded.final_graph.edge_count(),
                "flooding must not reconfigure under either engine"
            );
        }
    }
}

#[test]
fn tree_actors_match_the_synchronous_subroutine_under_any_knobs() {
    // Unlike flooding, line-to-tree *does* reconfigure, and its handshake
    // is delivery-order sensitive — equality with the synchronous
    // subroutine under adversarial knobs is the real differential test.
    for (n, arity) in [(16usize, 2usize), (33, 2), (48, 3)] {
        let line: Vec<NodeId> = (0..n).map(NodeId).collect();
        let config = LineToTreeConfig {
            arity,
            protected_edges: SortedEdgeSet::new(),
        };
        let mut sync_net = Network::new(generators::line(n));
        let (sync_tree, _) = run_line_to_tree(&mut sync_net, &line, &config).unwrap();
        for sched_seed in [2u64, 41, 9999] {
            let mut net = Network::new(generators::line(n));
            let (tree, report) =
                run_runtime_line_to_tree_seeded(&mut net, &line, &config, sched_seed, ADVERSARIAL)
                    .unwrap();
            assert_eq!(
                tree, sync_tree,
                "n={n} arity={arity} sched_seed={sched_seed}"
            );
            assert_eq!(report.in_flight_at_detection, 0);
        }
    }
}

/// The committee sizes the differential gate runs at, with a cheap
/// family per size so the adversarial sweeps stay fast.
const COMMITTEE_CASES: [(GraphFamily, usize); 3] = [
    (GraphFamily::SparseRandom, 8),
    (GraphFamily::SparseRandom, 64),
    (GraphFamily::Ring, 256),
];

fn committee_outcome(
    algorithm: &str,
    family: GraphFamily,
    n: usize,
    seed: u64,
    engine: EngineMode,
) -> TransformationOutcome {
    committee_outcome_with_uids(
        algorithm,
        family,
        n,
        seed,
        UidAssignment::Sequential,
        engine,
    )
}

fn committee_outcome_with_uids(
    algorithm: &str,
    family: GraphFamily,
    n: usize,
    seed: u64,
    uids: UidAssignment,
    engine: EngineMode,
) -> TransformationOutcome {
    Experiment::family(family, n, seed)
        .uids(uids)
        .algorithm(algorithm)
        .engine(engine)
        .run()
        .unwrap_or_else(|e| {
            panic!("{algorithm} on {family:?} n={n} uids {uids:?} under {engine:?}: {e}")
        })
}

/// Sync and seeded committee runs must agree on everything the committee
/// structures determine.
fn assert_same_committees(
    sync: &TransformationOutcome,
    seeded: &TransformationOutcome,
    label: &str,
) {
    assert_eq!(seeded.leader, sync.leader, "{label}");
    assert_eq!(seeded.final_graph, sync.final_graph, "{label}");
    assert_eq!(seeded.phases, sync.phases, "{label}");
    assert_eq!(
        seeded.committees_per_phase, sync.committees_per_phase,
        "{label}"
    );
    // Both engines run the same planned edge operations.
    assert_eq!(
        seeded.metrics.total_activations, sync.metrics.total_activations,
        "{label}"
    );
    assert_eq!(
        seeded.metrics.total_deactivations, sync.metrics.total_deactivations,
        "{label}"
    );
    assert_eq!(
        seeded
            .runtime
            .as_ref()
            .expect("async runs carry a report")
            .in_flight_at_detection,
        0,
        "{label}"
    );
}

#[test]
fn delay_free_async_committees_match_the_sync_engine() {
    // The real tentpole gate: the committee algorithms reconfigure
    // heavily, and both engines run the same phase planners (selection,
    // merging, ring splicing) — the asynchronous one between message
    // barriers. On delay-free schedules the asynchronous engines must
    // land on exactly the synchronous committee structures — final
    // graph, leader, phase count and the per-phase committee census.
    for algorithm in ["graph_to_star", "graph_to_wreath", "graph_to_thin_wreath"] {
        for (family, n) in COMMITTEE_CASES {
            let sync = committee_outcome(algorithm, family, n, 5, EngineMode::Synchronous);
            let seeded = committee_outcome(algorithm, family, n, 5, EngineMode::Seeded { seed: 0 });
            let label = format!("{algorithm} on {family:?} n={n}");
            assert_same_committees(&sync, &seeded, &label);
            // The free engine is timing-nondeterministic but must still
            // produce the same committee structures (the decision rules
            // are order-independent). One size per algorithm keeps the
            // thread churn modest.
            if n == 64 {
                let free =
                    committee_outcome(algorithm, family, n, 5, EngineMode::Free { threads: 4 });
                assert_eq!(free.final_graph, sync.final_graph, "{label} (free)");
                assert_eq!(
                    free.committees_per_phase, sync.committees_per_phase,
                    "{label} (free)"
                );
            }
        }
        // Sequential UIDs make every wreath phase 1 a single selection
        // chain; random permutations give branching selection forests
        // and multi-child group splices.
        for (family, n) in [
            (GraphFamily::Ring, 256),
            (GraphFamily::Line, 512),
            (GraphFamily::SparseRandom, 64),
            (GraphFamily::BoundedDegreeConnected, 256),
        ] {
            for uid_seed in [1u64, 2, 3] {
                let uids = UidAssignment::RandomPermutation { seed: uid_seed };
                let run =
                    |engine| committee_outcome_with_uids(algorithm, family, n, 5, uids, engine);
                let label = format!("{algorithm} on {family:?} n={n} uid seed {uid_seed}");
                assert_same_committees(
                    &run(EngineMode::Synchronous),
                    &run(EngineMode::Seeded { seed: 0 }),
                    &label,
                );
            }
        }
    }
}

#[test]
fn adversarial_schedules_do_not_change_committee_outcomes() {
    // Reordered, delayed and asymmetric delivery must not change what the
    // committee algorithms build: every mini-phase decision is made on a
    // complete (quiesced) message set or by an order-independent rule.
    for (family, n) in COMMITTEE_CASES {
        let graph = family.generate(n, 9);
        let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed: 9 });
        let star_sync = GraphToStar
            .run(&graph, &uids, &RunConfig::default())
            .expect("sync star");
        let wreath_sync = GraphToWreath
            .run(&graph, &uids, &RunConfig::default())
            .expect("sync wreath");
        for sched_seed in [1u64, 58] {
            let label = format!("{family:?} n={n} sched_seed={sched_seed}");
            let mut network = Network::new(graph.clone());
            let star = run_runtime_star_faulted(
                &mut network,
                &uids,
                &RunConfig::default().with_engine(EngineMode::Seeded { seed: sched_seed }),
                sched_seed,
                ADVERSARIAL,
                &FaultPlan::default(),
            )
            .unwrap_or_else(|e| panic!("star {label}: {e}"));
            assert_eq!(star.final_graph, star_sync.final_graph, "star {label}");
            assert_eq!(
                star.committees_per_phase, star_sync.committees_per_phase,
                "star {label}"
            );
            let mut network = Network::new(graph.clone());
            let wreath = run_runtime_wreath_faulted(
                &mut network,
                &uids,
                &WreathConfig::binary(),
                &RunConfig::default().with_engine(EngineMode::Seeded { seed: sched_seed }),
                sched_seed,
                ADVERSARIAL,
                &FaultPlan::default(),
            )
            .unwrap_or_else(|e| panic!("wreath {label}: {e}"));
            assert_eq!(
                wreath.final_graph, wreath_sync.final_graph,
                "wreath {label}"
            );
            assert_eq!(
                wreath.committees_per_phase, wreath_sync.committees_per_phase,
                "wreath {label}"
            );
        }
    }
}

#[test]
fn committee_runs_replay_byte_identically() {
    // The committee algorithms' seeded runs — including the wreath's
    // nested line-to-tree rebuilds, whose sub-seeds are split from the
    // master seed — must render byte-identical reports on replay.
    for algorithm in ["graph_to_star", "graph_to_wreath"] {
        for sched_seed in [0u64, 7, 0xDEAD_BEEF] {
            let engine = EngineMode::Seeded { seed: sched_seed };
            let a = committee_outcome(algorithm, GraphFamily::Grid, 25, 3, engine);
            let b = committee_outcome(algorithm, GraphFamily::Grid, 25, 3, engine);
            assert_eq!(
                a.runtime.expect("report").render(),
                b.runtime.expect("report").render(),
                "{algorithm} replay diverged at sched_seed={sched_seed}"
            );
            assert_eq!(a.final_graph, b.final_graph);
        }
    }
}

#[test]
fn ds_accounting_stays_sound_when_actors_crash_mid_phase() {
    // 64-seed sweep with a crash armed mid-run: the crashed actor holds
    // unacked sends (its deficit is forgiven and its mail acked by the
    // scheduler on its behalf), so the detector must neither hang waiting
    // for a dead node's acks nor fire while live-destined messages are in
    // flight. The tight step budget turns any hang into a fast, clean
    // `DidNotQuiesce` failure instead of a test timeout.
    let n = 20;
    let graph = generators::ring(n);
    let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed: 13 });
    for sched_seed in 0..64u64 {
        let crash_node = NodeId((sched_seed as usize * 7) % n);
        let crash_step = 5 + (sched_seed as usize * 11) % 60;
        let plan = FaultPlan::new().crash_at(crash_step, crash_node);
        let mut network = Network::new(graph.clone());
        let mut actors = flood_actors(&graph, &uids);
        let report = SeededScheduler::new(sched_seed)
            .with_knobs(ADVERSARIAL)
            .with_max_steps(500_000)
            .run_phased_with_faults(&mut network, &mut actors, &plan, |_, _, start, phase| {
                if phase == 0 {
                    start.extend((0..n).map(NodeId));
                }
                Ok::<bool, RuntimeError>(phase == 0)
            })
            .unwrap_or_else(|e| {
                panic!("crashed run must still quiesce (sched_seed={sched_seed}): {e}")
            });
        assert_eq!(
            report.in_flight_at_detection, 0,
            "detector fired with live messages in flight (sched_seed={sched_seed})"
        );
        assert!(
            network.is_crashed(crash_node),
            "crash did not land (sched_seed={sched_seed})"
        );
    }
}

#[test]
fn armed_crash_during_committee_run_is_deterministic_and_clean() {
    // Seeded regression for the fault-armed committee path: a crash
    // delivered through the scheduler mid-execution either lets the
    // protocol complete (the node was no longer needed) or surfaces as a
    // clean CoreError — never a panic, never a hang — and the whole
    // faulted execution replays deterministically.
    let n = 16;
    let graph = GraphFamily::SparseRandom.generate(n, 21);
    let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed: 21 });
    let run_with = |sched_seed: u64, plan: &FaultPlan| {
        let mut network = Network::new(graph.clone());
        let outcome = run_runtime_star_faulted(
            &mut network,
            &uids,
            &RunConfig::default().with_engine(EngineMode::Seeded { seed: sched_seed }),
            sched_seed,
            ADVERSARIAL,
            plan,
        );
        (outcome, network)
    };
    // A clean run's delivery count does not depend on the schedule (it is
    // order-invariant), so one unarmed run measures the step clock;
    // spreading the crash over the back half of the run makes some
    // schedules survive it and others degrade, so both result paths stay
    // exercised.
    let clean_steps = run_with(0, &FaultPlan::default())
        .0
        .expect("unarmed run")
        .runtime
        .expect("seeded runs carry a report")
        .steps;
    let half = clean_steps / 2;
    let run = |sched_seed: u64| {
        let crash_step = half + (sched_seed as usize * 97) % half;
        let plan = FaultPlan::new().crash_at(crash_step, NodeId(3));
        let (outcome, network) = run_with(sched_seed, &plan);
        let crashed = outcome
            .map(|o| {
                (
                    o.leader,
                    o.phases,
                    o.runtime
                        .expect("faulted seeded runs carry a report")
                        .render(),
                )
            })
            .map_err(|e| e.to_string());
        (crashed, network.is_crashed(NodeId(3)))
    };
    let (mut survived_crash, mut failed_clean) = (0, 0);
    for sched_seed in 0..16u64 {
        let first = run(sched_seed);
        let second = run(sched_seed);
        assert_eq!(
            first, second,
            "faulted committee run diverged on replay (sched_seed={sched_seed})"
        );
        match first {
            (Ok(_), true) => survived_crash += 1,
            (Ok(_), false) => {} // crash step fell past the run's end
            (Err(_), _) => failed_clean += 1,
        }
    }
    // The sweep must actually exercise both halves of the armed-crash
    // path: schedules that absorb a landed crash and complete, and
    // schedules where the crash degrades the protocol into a clean error.
    assert!(survived_crash > 0, "no schedule survived a landed crash");
    assert!(failed_clean > 0, "no schedule degraded into a clean error");
}

#[test]
fn barrier_cost_is_linear_on_a_sequential_uid_line() {
    // Sequential UIDs on a line make GraphToWreath's phase 1 a selection
    // chain of depth n - 1, executed as about 3n splice barriers with one
    // or two edge operations each. A barrier starts only the actors with
    // work in it, so the whole run costs O(n) deliveries; starting all n
    // actors at every barrier would cost Θ(n²) (over 1500·n at n = 512).
    for n in [512usize, 1024] {
        let run = |engine| committee_outcome("graph_to_wreath", GraphFamily::Line, n, 5, engine);
        let sync = run(EngineMode::Synchronous);
        for engine in [
            EngineMode::Seeded { seed: 0 },
            EngineMode::Free { threads: 2 },
        ] {
            let outcome = run(engine);
            let label = format!("graph_to_wreath on a sequential-UID line n={n} under {engine:?}");
            assert_same_committees(&sync, &outcome, &label);
            let steps = outcome.runtime.as_ref().expect("async report").steps;
            assert!(steps < 20 * n, "{label}: {steps} delivery steps");
        }
    }
}

#[test]
fn termination_detection_never_fires_with_messages_in_flight() {
    // Property sweep: across many scheduler seeds and adversarial knobs,
    // Dijkstra–Scholten must only declare global quiescence when the
    // in-flight message count is exactly zero — and the computation must
    // actually be finished (every node knows every token), i.e. the
    // detector is neither unsound nor trivially late.
    let n = 20;
    let graph = generators::ring(n);
    let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed: 13 });
    for sched_seed in 0..64u64 {
        let mut network = Network::new(graph.clone());
        let mut actors = flood_actors(&graph, &uids);
        let report = SeededScheduler::new(sched_seed)
            .with_knobs(ADVERSARIAL)
            .run(&mut network, &mut actors)
            .expect("seeded flood run");
        assert_eq!(
            report.in_flight_at_detection, 0,
            "detector fired with messages in flight (sched_seed={sched_seed})"
        );
        assert!(
            actors.iter().all(|a| a.known().len() == n),
            "detector fired before dissemination finished (sched_seed={sched_seed})"
        );
    }
}
