//! Deterministic seed sweep for the asynchronous actor runtime.
//!
//! The synchronous stress suite ([`crate::stress`]) derives a whole
//! adversarial execution from one `u64`; this module applies the same
//! recipe to the `adn-runtime` schedulers. A [`RuntimeCase`] names a
//! program (flooding actors, the line-to-tree actors, or one of the
//! committee algorithms — GraphToStar / GraphToWreath), a workload, an
//! *asynchronous* scenario (delivery reorder window, per-link delay,
//! asymmetric latency), a scheduler seed, and — for committee programs
//! under a fault-budgeted scenario — an armed [`FaultPlan`] of
//! crash/churn events, all drawn from a single case seed, so any
//! divergence found by a sweep is one replayable number.
//!
//! Every case runs on the [`SeededScheduler`]: its delivery order is a
//! pure function of the scheduler seed, so [`RuntimeCaseReport::render`]
//! is byte-identical across reruns and thread counts — exactly the
//! replay contract the synchronous suite gives, extended to executions
//! with no round structure at all.
//!
//! [`SeededScheduler`]: adn_runtime::SeededScheduler

use adn_core::algorithm::{self, DstConfig, EngineMode, RunConfig};
use adn_core::graph_to_wreath::WreathConfig;
use adn_core::subroutines::{
    run_runtime_line_to_tree_seeded, run_runtime_star_faulted, run_runtime_wreath_faulted,
    LineToTreeConfig,
};
use adn_graph::rng::DetRng;
use adn_graph::{GraphFamily, NodeId, UidAssignment, UidMap};
use adn_runtime::{AsyncKnobs, FaultKind, FaultPlan};
use adn_sim::dst::{self, Scenario};
use adn_sim::Network;

/// The actor program a runtime case exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeProgram {
    /// Delta-forwarding token flooding (through the `flooding` registry
    /// entry, i.e. the full `EngineMode` dispatch path).
    Flooding,
    /// The message-driven line-to-tree actors
    /// ([`adn_core::subroutines::runtime_line_to_tree`]).
    LineToTree,
    /// The committee actors running GraphToStar
    /// ([`adn_core::subroutines::runtime_committee`]).
    Star,
    /// The committee actors running the wreath family (tree arity from
    /// [`RuntimeCase::arity`]).
    Wreath,
}

impl RuntimeProgram {
    /// Stable program identifier used in renders and sweep summaries.
    pub fn name(&self) -> &'static str {
        match self {
            RuntimeProgram::Flooding => "flooding",
            RuntimeProgram::LineToTree => "line_to_tree",
            RuntimeProgram::Star => "graph_to_star",
            RuntimeProgram::Wreath => "graph_to_wreath",
        }
    }

    /// Whether this program runs the committee actors (and therefore
    /// accepts an armed fault plan).
    pub fn is_committee(&self) -> bool {
        matches!(self, RuntimeProgram::Star | RuntimeProgram::Wreath)
    }
}

/// Workload families used for flooding cases — the connected subset, so
/// a clean run is always possible (flooding rejects disconnected
/// inputs).
const FLOOD_FAMILIES: [GraphFamily; 8] = [
    GraphFamily::Line,
    GraphFamily::Ring,
    GraphFamily::Star,
    GraphFamily::CompleteBinaryTree,
    GraphFamily::Grid,
    GraphFamily::RandomTree,
    GraphFamily::Caterpillar,
    GraphFamily::Hypercube,
];

/// Workload families for committee cases — the subset that honours the
/// requested node count exactly, so a crash target drawn from `0..n` is
/// always a valid node (Grid and Hypercube round `n`).
const COMMITTEE_FAMILIES: [GraphFamily; 4] = [
    GraphFamily::Line,
    GraphFamily::Ring,
    GraphFamily::RandomTree,
    GraphFamily::Caterpillar,
];

/// One fully specified asynchronous execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeCase {
    /// The single seed this case was derived from (0 for explicit cases).
    pub seed: u64,
    /// The actor program under test.
    pub program: RuntimeProgram,
    /// Workload family of the initial network (always `Line` for
    /// [`RuntimeProgram::LineToTree`]).
    pub family: GraphFamily,
    /// Requested node count (families may round it).
    pub n: usize,
    /// Seed for instance generation and the UID permutation.
    pub uid_seed: u64,
    /// The asynchronous scenario supplying the delivery knobs.
    pub scenario: Scenario,
    /// The scheduler seed (delivery order, delay jitter).
    pub sched_seed: u64,
    /// Tree arity for line-to-tree and wreath cases (ignored by
    /// flooding and GraphToStar).
    pub arity: usize,
    /// Armed fault events delivered by the scheduler mid-execution.
    /// Derived from the scenario's fault budget for committee programs;
    /// always empty for flooding and line-to-tree cases.
    pub faults: FaultPlan,
}

impl RuntimeCase {
    /// Derives a complete case from one `u64` — the unit of replay.
    ///
    /// # Panics
    ///
    /// Panics if the scenario registry contains no asynchronous
    /// scenarios (a registry regression).
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = DetRng::seed_from_u64(seed);
        let program = match rng.gen_range(0, 4) {
            0 => RuntimeProgram::Flooding,
            1 => RuntimeProgram::LineToTree,
            2 => RuntimeProgram::Star,
            _ => RuntimeProgram::Wreath,
        };
        let family = match program {
            RuntimeProgram::Flooding => FLOOD_FAMILIES[rng.gen_range(0, FLOOD_FAMILIES.len())],
            RuntimeProgram::LineToTree => GraphFamily::Line,
            RuntimeProgram::Star | RuntimeProgram::Wreath => {
                COMMITTEE_FAMILIES[rng.gen_range(0, COMMITTEE_FAMILIES.len())]
            }
        };
        let n = rng.gen_range(8, 65);
        let uid_seed = (rng.next_u64() % 100_000) + 1;
        let pool: Vec<Scenario> = dst::scenarios()
            .into_iter()
            .filter(|s| s.is_async())
            .collect();
        assert!(!pool.is_empty(), "no asynchronous scenarios registered");
        let scenario = pool[rng.gen_range(0, pool.len())].clone();
        let sched_seed = rng.next_u64();
        let arity = 2 + rng.gen_range(0, 3);
        // Committee programs arm the scenario's fault budget as scheduler
        // step events; the other programs have no fault handling yet, so
        // their plans stay empty.
        let mut faults = FaultPlan::new();
        if program.is_committee() && scenario.fault_budget > 0 {
            let weight_total = (scenario.crash_weight + scenario.churn_weight) as usize;
            if weight_total > 0 {
                let events = 1 + rng.gen_range(0, scenario.fault_budget);
                for _ in 0..events {
                    // Committee phases take O(n) delivery steps each, so a
                    // window of 40·n steps lands faults across the whole
                    // run, from the first gossip through late merge phases.
                    let at_step = 1 + rng.gen_range(0, n * 40);
                    if rng.gen_range(0, weight_total) < scenario.crash_weight as usize {
                        faults = faults.crash_at(at_step, NodeId(rng.gen_range(0, n)));
                    } else {
                        faults = faults.join_at(at_step);
                    }
                }
            }
        }
        RuntimeCase {
            seed,
            program,
            family,
            n,
            uid_seed,
            scenario,
            sched_seed,
            arity,
            faults,
        }
    }
}

/// The result of running one [`RuntimeCase`].
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeCaseReport {
    /// The case that was run.
    pub case: RuntimeCase,
    /// Actual node count of the generated instance.
    pub n_actual: usize,
    /// A stable one-line digest of the program outcome (`completed …` or
    /// `failed: …`).
    pub outcome: String,
    /// Render of the scheduler's [`adn_runtime::RuntimeReport`] (empty
    /// when the run failed before the scheduler finished).
    pub runtime: String,
    /// Whether the run completed.
    pub completed: bool,
}

impl RuntimeCaseReport {
    /// Renders the full report to a stable string; replay equality is
    /// checked byte-for-byte on exactly this.
    pub fn render(&self) -> String {
        let knobs = AsyncKnobs::from_scenario(&self.case.scenario);
        let mut s = String::new();
        s.push_str(&format!(
            "runtime case seed={} program={} family={} n={} (actual {}) uid_seed={} \
             scenario={} sched_seed={} arity={}\n",
            self.case.seed,
            self.case.program.name(),
            self.case.family,
            self.case.n,
            self.n_actual,
            self.case.uid_seed,
            self.case.scenario.name,
            self.case.sched_seed,
            self.case.arity,
        ));
        s.push_str(&format!(
            "knobs: reorder_window={} max_link_delay={} asymmetric={}\n",
            knobs.reorder_window, knobs.max_link_delay, knobs.asymmetric_delay,
        ));
        if self.case.faults.is_empty() {
            s.push_str("faults: none\n");
        } else {
            s.push_str("faults:");
            for event in self.case.faults.events() {
                match event.kind {
                    FaultKind::Crash(node) => {
                        s.push_str(&format!(" crash({node})@{}", event.at_step))
                    }
                    FaultKind::Join => s.push_str(&format!(" join@{}", event.at_step)),
                }
            }
            s.push('\n');
        }
        s.push_str(&format!("outcome: {}\n", self.outcome));
        s.push_str(&self.runtime);
        s
    }
}

/// Runs one case on the seeded scheduler.
pub fn run_case(case: &RuntimeCase) -> RuntimeCaseReport {
    let graph = case.family.generate(case.n, case.uid_seed);
    let n_actual = graph.node_count();
    let uids = UidMap::new(
        n_actual,
        UidAssignment::RandomPermutation {
            seed: case.uid_seed,
        },
    );
    let mut network = Network::new(graph);
    let (outcome, runtime, completed) = match case.program {
        RuntimeProgram::Flooding => {
            let a = algorithm::find("flooding").expect("flooding is registered");
            let mut config = RunConfig::default().with_engine(EngineMode::Seeded {
                seed: case.sched_seed,
            });
            // The scenario is knob transport only: the network is *not*
            // armed, so no synchronous adversary competes with the
            // scheduler — `async_knobs` lifts the delivery knobs.
            config.dst = Some(DstConfig {
                scenario: case.scenario.clone(),
                seed: case.sched_seed,
            });
            match a.execute(&mut network, &uids, &config) {
                Ok(o) => {
                    let full = o.tokens_per_node.iter().filter(|&&t| t == n_actual).count();
                    let report = o.runtime.expect("async flooding reports its runtime");
                    (
                        format!(
                            "completed (leader {}, {}/{} nodes hold all tokens)",
                            o.leader, full, n_actual
                        ),
                        report.render(),
                        true,
                    )
                }
                Err(e) => (format!("failed: {e}"), String::new(), false),
            }
        }
        RuntimeProgram::LineToTree => {
            let line: Vec<NodeId> = (0..n_actual).map(NodeId).collect();
            let config = LineToTreeConfig {
                arity: case.arity,
                protected_edges: Default::default(),
            };
            let knobs = AsyncKnobs::from_scenario(&case.scenario);
            match run_runtime_line_to_tree_seeded(
                &mut network,
                &line,
                &config,
                case.sched_seed,
                knobs,
            ) {
                Ok((tree, report)) => (
                    format!(
                        "completed (tree depth {}, root {})",
                        tree.depth(),
                        tree.root()
                    ),
                    report.render(),
                    true,
                ),
                Err(e) => (format!("failed: {e}"), String::new(), false),
            }
        }
        RuntimeProgram::Star | RuntimeProgram::Wreath => {
            let config = RunConfig::default().with_engine(EngineMode::Seeded {
                seed: case.sched_seed,
            });
            let knobs = AsyncKnobs::from_scenario(&case.scenario);
            let result = match case.program {
                RuntimeProgram::Star => run_runtime_star_faulted(
                    &mut network,
                    &uids,
                    &config,
                    case.sched_seed,
                    knobs,
                    &case.faults,
                ),
                _ => {
                    let wreath = WreathConfig {
                        tree_arity: case.arity,
                        ..WreathConfig::binary()
                    };
                    run_runtime_wreath_faulted(
                        &mut network,
                        &uids,
                        &wreath,
                        &config,
                        case.sched_seed,
                        knobs,
                        &case.faults,
                    )
                }
            };
            match result {
                Ok(o) => {
                    let report = o
                        .runtime
                        .expect("async committee runs report their runtime");
                    (
                        format!(
                            "completed (leader {}, {} phases, committees per phase {:?})",
                            o.leader, o.phases, o.committees_per_phase
                        ),
                        report.render(),
                        true,
                    )
                }
                Err(e) => (format!("failed: {e}"), String::new(), false),
            }
        }
    };
    RuntimeCaseReport {
        case: case.clone(),
        n_actual,
        outcome,
        runtime,
        completed,
    }
}

/// Replays a seed-derived case; two calls with the same seed render
/// byte-identically.
pub fn replay(seed: u64) -> RuntimeCaseReport {
    run_case(&RuntimeCase::from_seed(seed))
}

/// Runs a seed twice and checks the two renders for byte equality.
pub fn verify_replay(seed: u64) -> (RuntimeCaseReport, bool) {
    let first = replay(seed);
    let second = replay(seed);
    let identical = first.render() == second.render();
    (first, identical)
}

/// Summary of a runtime seed sweep.
#[derive(Debug, Clone)]
pub struct RuntimeSweepSummary {
    /// The master seed the case seeds were derived from.
    pub master_seed: u64,
    /// All reports, in case order.
    pub reports: Vec<RuntimeCaseReport>,
}

impl RuntimeSweepSummary {
    /// Number of completed runs.
    pub fn completed(&self) -> usize {
        self.reports.iter().filter(|r| r.completed).count()
    }

    /// The failed reports.
    pub fn failures(&self) -> Vec<&RuntimeCaseReport> {
        self.reports.iter().filter(|r| !r.completed).collect()
    }

    /// A short human-readable summary.
    pub fn summary_text(&self) -> String {
        let mut s = format!(
            "runtime sweep: master_seed={} cases={} completed={} failed={}\n",
            self.master_seed,
            self.reports.len(),
            self.completed(),
            self.failures().len(),
        );
        for r in self.failures() {
            s.push_str(&format!(
                "  FAILURE seed={} ({} on {} under {} sched_seed={}): {}\n",
                r.case.seed,
                r.case.program.name(),
                r.case.family,
                r.case.scenario.name,
                r.case.sched_seed,
                r.outcome,
            ));
        }
        s
    }
}

/// Runs `cases` seed-derived runtime cases with seeds drawn from
/// `master_seed`. Equivalent to [`sweep_with_threads`] with one thread.
pub fn sweep(master_seed: u64, cases: usize) -> RuntimeSweepSummary {
    sweep_with_threads(master_seed, cases, 1)
}

/// Runs a runtime seed sweep on `threads` worker threads, on the worker
/// pool of [`crate::stress::sweep_with_threads`]: case seeds are derived
/// up-front and reports come back in case order, so the summary and every
/// per-case render are byte-identical for every thread count.
pub fn sweep_with_threads(master_seed: u64, cases: usize, threads: usize) -> RuntimeSweepSummary {
    let seeds = crate::stress::case_seeds(master_seed, cases);
    let reports =
        crate::stress::parallel_map(&seeds, threads, |&s| run_case(&RuntimeCase::from_seed(s)));
    RuntimeSweepSummary {
        master_seed,
        reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_derivation_is_deterministic_and_async_only() {
        for seed in 0..32u64 {
            let a = RuntimeCase::from_seed(seed);
            let b = RuntimeCase::from_seed(seed);
            assert_eq!(a, b);
            assert!(a.scenario.is_async(), "seed {seed} drew a sync scenario");
            if a.program.is_committee() {
                assert!(
                    COMMITTEE_FAMILIES.contains(&a.family),
                    "seed {seed} drew a family that rounds n for a committee program"
                );
                for event in a.faults.events() {
                    if let FaultKind::Crash(node) = event.kind {
                        assert!(node.0 < a.n, "seed {seed} drew an out-of-range crash");
                    }
                }
            } else {
                assert!(
                    a.faults.is_empty(),
                    "seed {seed} armed faults on a non-committee program"
                );
            }
        }
    }

    #[test]
    fn replay_is_byte_identical() {
        // Seeds chosen to cover every program, including fault-armed
        // committee cases (30 = star + joins, 49 = wreath + joins).
        for seed in [26u64, 27, 28, 30, 34, 49] {
            let (report, identical) = verify_replay(seed);
            assert!(identical, "seed {seed} diverged:\n{}", report.render());
        }
    }

    #[test]
    fn sweep_completes_and_is_thread_count_invariant() {
        let serial = sweep_with_threads(0xCAFE, 8, 1);
        assert_eq!(serial.completed(), 8, "{}", serial.summary_text());
        for threads in [2usize, 4] {
            let parallel = sweep_with_threads(0xCAFE, 8, threads);
            assert_eq!(parallel.summary_text(), serial.summary_text());
            for (a, b) in serial.reports.iter().zip(&parallel.reports) {
                assert_eq!(
                    a.render(),
                    b.render(),
                    "case seed {} diverged at {threads} threads",
                    a.case.seed
                );
            }
        }
    }

    #[test]
    fn completed_reports_embed_a_quiesced_runtime_report() {
        let summary = sweep(0x51EE7, 6);
        for r in &summary.reports {
            assert!(r.completed, "{}", r.render());
            assert!(
                r.runtime.contains("termination: detected"),
                "{}",
                r.render()
            );
            assert!(r.runtime.contains("in flight 0"), "{}", r.render());
        }
    }

    #[test]
    fn crash_armed_committee_case_replays_and_degrades_cleanly() {
        // Seed-derived plans only ever join (the async pool's sole
        // fault-budgeted scenario is churn-weighted), so the crash half
        // of the armed fault path is pinned with an explicit case. The
        // crash lands mid-run; whichever way the schedule falls —
        // surviving to a star or degrading — the outcome must replay
        // byte-identically and any failure must be the clean error, not
        // a panic or a hang.
        let scenario = dst::find_scenario("async_churn").expect("async_churn is registered");
        let case = RuntimeCase {
            seed: 0,
            program: RuntimeProgram::Star,
            family: GraphFamily::Ring,
            n: 16,
            uid_seed: 21,
            scenario,
            sched_seed: 5,
            arity: 2,
            faults: FaultPlan::new().crash_at(900, NodeId(3)),
        };
        let first = run_case(&case);
        let second = run_case(&case);
        assert_eq!(first.render(), second.render(), "crash case diverged");
        assert!(
            first.render().contains("faults: crash(v3)@900"),
            "render must pin the fault plan:\n{}",
            first.render()
        );
        if !first.completed {
            assert!(
                first.outcome.starts_with("failed: "),
                "degraded run must fail cleanly: {}",
                first.outcome
            );
        }
    }
}
