//! The deterministic stress suite: algorithms × scenarios × seeds.
//!
//! A [`StressCase`] names everything one adversarial execution needs —
//! algorithm, workload family, size, UID seed, [`Scenario`] and adversary
//! seed. Crucially, a whole case can be derived from a *single* `u64`
//! ([`StressCase::from_seed`]), so any failure found by a seed sweep is
//! reported as one number and reproduced bit-for-bit by
//! [`replay`] — the FoundationDB recipe, applied to actively dynamic
//! networks.
//!
//! The harness tolerates every way a run can end under faults: clean
//! completion, a clean error (model violation, exhausted round budget) or
//! a panic inside the algorithm (caught, recorded, still deterministic).
//! The DST report (fault schedule + invariant violations) is harvested in
//! all three cases.
//!
//! [`minimize`] shrinks a failing case by bisecting the fault budget: the
//! adversary's RNG is only consumed while budget remains, so the schedule
//! under budget `b` is a prefix of the schedule under `B > b`, making the
//! failing-fault prefix well-defined.

use adn_core::algorithm::{self, arm_network_for_dst, DstConfig, RunConfig, TraceLevel};
use adn_graph::rng::DetRng;
use adn_graph::{GraphFamily, UidAssignment, UidMap};
use adn_sim::dst::{self, DstReport, Scenario};
use adn_sim::Network;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One fully specified adversarial execution.
#[derive(Debug, Clone, PartialEq)]
pub struct StressCase {
    /// The single seed this case was derived from (0 when the case was
    /// constructed explicitly rather than via [`StressCase::from_seed`]).
    pub seed: u64,
    /// Registry id of the algorithm under test.
    pub algorithm: String,
    /// Workload family of the initial network.
    pub family: GraphFamily,
    /// Requested node count (families may round it).
    pub n: usize,
    /// Seed for instance generation and the UID permutation.
    pub uid_seed: u64,
    /// The adversarial environment.
    pub scenario: Scenario,
    /// Adversary seed.
    pub adversary_seed: u64,
    /// Hard round budget so every run terminates even when faults stall
    /// the algorithm.
    pub round_budget: usize,
}

impl StressCase {
    /// Derives a complete case from one `u64`: algorithm, family, size,
    /// UID seed, scenario and adversary seed are all drawn from the
    /// [`DetRng`] stream of `seed`. The same seed always produces the
    /// same case — this is the unit of replay.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = DetRng::seed_from_u64(seed);
        let algorithms = algorithm::registry();
        let a = algorithms[rng.gen_range(0, algorithms.len())];
        // CutInHalf only supports spanning lines; every other algorithm
        // takes the full family roulette.
        let family = if a.spec().id == "centralized_cut_in_half" {
            GraphFamily::Line
        } else {
            GraphFamily::ALL[rng.gen_range(0, GraphFamily::ALL.len())]
        };
        let n = rng.gen_range(8, 41);
        let uid_seed = (rng.next_u64() % 100_000) + 1;
        let pool = dst::scenarios();
        let scenario = pool[rng.gen_range(0, pool.len())].clone();
        let adversary_seed = rng.next_u64();
        StressCase {
            seed,
            algorithm: a.spec().id.to_string(),
            family,
            n,
            uid_seed,
            scenario,
            adversary_seed,
            round_budget: 8 * n + 64,
        }
    }

    /// Constructs an explicit case (for matrix-style sweeps where the
    /// algorithm and scenario are pinned rather than seed-derived).
    pub fn explicit(
        algorithm: &str,
        family: GraphFamily,
        n: usize,
        uid_seed: u64,
        scenario: Scenario,
        adversary_seed: u64,
    ) -> Self {
        StressCase {
            seed: 0,
            algorithm: algorithm.to_string(),
            family,
            n,
            uid_seed,
            scenario,
            adversary_seed,
            round_budget: 8 * n + 64,
        }
    }
}

/// How an adversarial execution ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StressOutcome {
    /// The algorithm ran to completion.
    Completed {
        /// Rounds consumed.
        rounds: usize,
        /// Total edge activations.
        activations: usize,
    },
    /// The algorithm returned an error (model violation, exhausted round
    /// budget, rejected input — all legitimate under faults).
    Failed(String),
    /// The algorithm panicked; the panic was caught and recorded.
    Panicked(String),
}

impl StressOutcome {
    fn label(&self) -> String {
        match self {
            StressOutcome::Completed {
                rounds,
                activations,
            } => format!("completed (rounds {rounds}, activations {activations})"),
            StressOutcome::Failed(e) => format!("failed: {e}"),
            StressOutcome::Panicked(m) => format!("panicked: {m}"),
        }
    }
}

/// The result of running one [`StressCase`].
#[derive(Debug, Clone, PartialEq)]
pub struct StressReport {
    /// The case that was run.
    pub case: StressCase,
    /// Actual node count of the generated instance.
    pub n_actual: usize,
    /// How the execution ended.
    pub outcome: StressOutcome,
    /// The harvested DST report (fault schedule + violations).
    pub dst: DstReport,
}

impl StressReport {
    /// A run is *clean* when the algorithm completed and no invariant was
    /// violated. Fault-free scenarios must always be clean; under faults,
    /// `Failed` outcomes are expected and only invariant violations or
    /// panics count as suite failures (see [`StressReport::is_suite_failure`]).
    pub fn is_clean(&self) -> bool {
        matches!(self.outcome, StressOutcome::Completed { .. }) && self.dst.violations.is_empty()
    }

    /// True when this run should fail the stress suite: the algorithm
    /// panicked, or an invariant was violated in a failure-free world, or
    /// the run failed without a single injected fault to blame.
    pub fn is_suite_failure(&self) -> bool {
        match &self.outcome {
            StressOutcome::Panicked(_) => true,
            StressOutcome::Failed(_) => self.dst.faults.is_empty(),
            StressOutcome::Completed { .. } => {
                self.dst.faults.is_empty() && !self.dst.violations.is_empty()
            }
        }
    }

    /// Renders the full report to a stable string; replay equality is
    /// checked byte-for-byte on exactly this.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "case seed={} algorithm={} family={} n={} (actual {}) uid_seed={} \
             adversary_seed={} budget={}\n",
            self.case.seed,
            self.case.algorithm,
            self.case.family,
            self.case.n,
            self.n_actual,
            self.case.uid_seed,
            self.case.adversary_seed,
            self.case.round_budget,
        ));
        s.push_str(&format!("outcome: {}\n", self.outcome.label()));
        s.push_str(&self.dst.render());
        s
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one case: generates the instance, arms the network with the
/// scenario's adversary and the spec-derived invariant checker, executes
/// the algorithm (catching panics) and harvests the DST report.
///
/// # Panics
///
/// Panics if the case names an unregistered algorithm.
pub fn run_case(case: &StressCase) -> StressReport {
    run_case_with_trace(case, false)
}

/// Runs one case like [`run_case`], but with per-round tracing enabled
/// (`TraceLevel::PerRound`), so the traced `max_degree` path — the
/// incremental degree histogram plus its debug-build from-scratch oracle
/// — is exercised under the full adversarial schedule. Tracing is an
/// observer: the rendered report carries no trace data, so the render is
/// byte-identical to the untraced run of the same case (CI diffs a
/// traced slice against the untraced expectation on exactly this
/// property).
pub fn run_case_traced(case: &StressCase) -> StressReport {
    run_case_with_trace(case, true)
}

fn run_case_with_trace(case: &StressCase, traced: bool) -> StressReport {
    let a = algorithm::find(&case.algorithm)
        .unwrap_or_else(|| panic!("unregistered algorithm `{}`", case.algorithm));
    let graph = case.family.generate(case.n, case.uid_seed);
    let n_actual = graph.node_count();
    let uids = UidMap::new(
        n_actual,
        UidAssignment::RandomPermutation {
            seed: case.uid_seed,
        },
    );
    let mut network = Network::new(graph);
    let dcfg = DstConfig {
        scenario: case.scenario.clone(),
        seed: case.adversary_seed,
    };
    arm_network_for_dst(&mut network, &a.spec(), &uids, &dcfg);
    let mut config = RunConfig::default().with_round_budget(case.round_budget);
    if traced {
        config = config.with_trace(TraceLevel::PerRound);
    }

    let result = catch_unwind(AssertUnwindSafe(|| a.execute(&mut network, &uids, &config)));
    let (outcome, dst) = match result {
        Ok(Ok(o)) => {
            let report = o.dst.clone();
            (
                StressOutcome::Completed {
                    rounds: o.rounds,
                    activations: o.metrics.total_activations,
                },
                report,
            )
        }
        Ok(Err(e)) => (
            StressOutcome::Failed(e.to_string()),
            network.take_dst_report(),
        ),
        Err(payload) => (
            StressOutcome::Panicked(panic_message(payload)),
            network.take_dst_report(),
        ),
    };
    let dst = dst.unwrap_or_else(|| DstReport {
        scenario: case.scenario.name.clone(),
        seed: case.adversary_seed,
        rounds_checked: 0,
        crashed: Vec::new(),
        faults: Vec::new(),
        violations: Vec::new(),
    });
    StressReport {
        case: case.clone(),
        n_actual,
        outcome,
        dst,
    }
}

/// Replays a seed-derived case: `replay(seed)` re-runs exactly the
/// execution [`StressCase::from_seed`] describes. Two calls with the same
/// seed render byte-identically.
pub fn replay(seed: u64) -> StressReport {
    run_case(&StressCase::from_seed(seed))
}

/// Runs a seed twice and checks the two renders for byte equality.
/// Returns the first report plus the verdict.
pub fn verify_replay(seed: u64) -> (StressReport, bool) {
    let first = replay(seed);
    let second = replay(seed);
    let identical = first.render() == second.render();
    (first, identical)
}

/// Result of [`minimize`].
#[derive(Debug, Clone)]
pub struct Minimized {
    /// The seed of the minimized case — paste it into [`replay`] (for
    /// seed-derived cases) or re-derive the case and shrink its budget to
    /// [`Minimized::minimal_budget`] to reproduce.
    pub seed: u64,
    /// Smallest fault budget that still reproduces a non-clean run.
    pub minimal_budget: usize,
    /// The fault budget the case originally carried.
    pub original_budget: usize,
    /// The report of the minimized run.
    pub report: StressReport,
}

/// Counts the minimized run's injected faults by kind, in a stable
/// order. Empty entries are omitted.
fn fault_histogram(faults: &[dst::FaultRecord]) -> Vec<(&'static str, usize)> {
    use adn_sim::dst::FaultEvent;
    let kinds = [
        "crash",
        "delete_edge",
        "insert_edge",
        "join",
        "skew",
        "partition",
        "heal",
    ];
    let mut counts = [0usize; 7];
    for f in faults {
        let k = match f.event {
            FaultEvent::CrashNode { .. } => 0,
            FaultEvent::DeleteEdge { .. } => 1,
            FaultEvent::InsertEdge { .. } => 2,
            FaultEvent::Join { .. } => 3,
            FaultEvent::Skew { .. } => 4,
            FaultEvent::Partition { .. } => 5,
            FaultEvent::Heal { .. } => 6,
        };
        counts[k] += 1;
    }
    kinds
        .into_iter()
        .zip(counts)
        .filter(|&(_, c)| c > 0)
        .collect()
}

impl Minimized {
    /// Renders the minimization result to a stable string: the minimized
    /// seed and budget, a histogram of the faults the minimal schedule
    /// actually injected, and the full minimized-run report. Suitable for
    /// pasting into a bug report — the first line alone reproduces the
    /// run.
    pub fn render(&self) -> String {
        let mut s = format!(
            "minimized: seed={} budget {} of {} ({} on {} under {})\n",
            self.seed,
            self.minimal_budget,
            self.original_budget,
            self.report.case.algorithm,
            self.report.case.family,
            self.report.case.scenario.name,
        );
        let histogram = fault_histogram(&self.report.dst.faults);
        if histogram.is_empty() {
            s.push_str("faults injected: none\n");
        } else {
            s.push_str("faults injected:");
            for (kind, count) in histogram {
                s.push_str(&format!(" {kind}={count}"));
            }
            s.push('\n');
        }
        s.push_str(&self.report.render());
        s
    }
}

/// Shrinks a failing case to the smallest fault budget whose run is
/// non-clean. Returns `None` when the case is clean at its original
/// budget (nothing to minimize).
///
/// The RNG-driven fault schedule under budget `b` is a prefix of the
/// schedule under any larger budget, but the runs *diverge after the
/// `b`-th fault* — a later fault can mask an earlier failure (e.g.
/// re-insert a deleted edge), so non-cleanliness is not necessarily
/// monotone in the budget. Partition scenarios bend the prefix property
/// further: the `Heal` half of a partition is budget-free (it consumes
/// neither budget nor RNG), so truncating the budget between a partition
/// and its heal still replays the heal — a smaller-budget run is not a
/// literal schedule prefix. The search therefore never *assumes*
/// prefix-closure: it scans upward from 0 (budgets are small) and returns
/// the report of the first budget it actually observed failing, so the
/// result is failing by construction — for partition/heal scenarios and
/// any future budget-bending fault alike — and exactly minimal: every
/// smaller budget was probed and ran clean.
pub fn minimize(case: &StressCase) -> Option<Minimized> {
    let run_with = |budget: usize| {
        let mut c = case.clone();
        c.scenario.fault_budget = budget;
        run_case(&c)
    };
    let full = run_with(case.scenario.fault_budget);
    if full.is_clean() {
        return None;
    }
    for budget in 0..case.scenario.fault_budget {
        let report = run_with(budget);
        if !report.is_clean() {
            return Some(Minimized {
                seed: case.seed,
                minimal_budget: budget,
                original_budget: case.scenario.fault_budget,
                report,
            });
        }
    }
    Some(Minimized {
        seed: case.seed,
        minimal_budget: case.scenario.fault_budget,
        original_budget: case.scenario.fault_budget,
        report: full,
    })
}

/// Summary of a seed sweep.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// The master seed the case seeds were derived from.
    pub master_seed: u64,
    /// All reports, in case order.
    pub reports: Vec<StressReport>,
}

impl SweepSummary {
    /// Number of cleanly completed runs.
    pub fn completed(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| matches!(r.outcome, StressOutcome::Completed { .. }))
            .count()
    }

    /// Number of runs that ended in a clean error.
    pub fn failed(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| matches!(r.outcome, StressOutcome::Failed(_)))
            .count()
    }

    /// Number of caught panics.
    pub fn panicked(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| matches!(r.outcome, StressOutcome::Panicked(_)))
            .count()
    }

    /// Number of runs with at least one invariant violation.
    pub fn with_violations(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| !r.dst.violations.is_empty())
            .count()
    }

    /// The suite failures (see [`StressReport::is_suite_failure`]).
    pub fn suite_failures(&self) -> Vec<&StressReport> {
        self.reports
            .iter()
            .filter(|r| r.is_suite_failure())
            .collect()
    }

    /// A short human-readable summary table.
    pub fn summary_text(&self) -> String {
        let mut s = format!(
            "DST sweep: master_seed={} cases={} completed={} failed={} panicked={} \
             with_violations={} suite_failures={}\n",
            self.master_seed,
            self.reports.len(),
            self.completed(),
            self.failed(),
            self.panicked(),
            self.with_violations(),
            self.suite_failures().len(),
        );
        for r in self.suite_failures() {
            s.push_str(&format!(
                "  FAILURE seed={} ({} on {} under {}): {}\n",
                r.case.seed,
                r.case.algorithm,
                r.case.family,
                r.case.scenario.name,
                r.outcome.label()
            ));
        }
        s
    }

    /// Serializes the sweep to a small JSON document (hand-rolled — the
    /// workspace is dependency-free), suitable for the `BENCH_dst.json`
    /// artifact.
    pub fn to_json(&self) -> String {
        use json_escape as esc;
        let failures: Vec<String> = self
            .suite_failures()
            .iter()
            .map(|r| {
                format!(
                    "{{\"seed\":{},\"algorithm\":\"{}\",\"family\":\"{}\",\"scenario\":\"{}\",\"outcome\":\"{}\"}}",
                    r.case.seed,
                    esc(&r.case.algorithm),
                    esc(r.case.family.name()),
                    esc(&r.case.scenario.name),
                    esc(&r.outcome.label()),
                )
            })
            .collect();
        format!(
            "{{\"master_seed\":{},\"cases\":{},\"completed\":{},\"failed\":{},\"panicked\":{},\
             \"with_violations\":{},\"total_faults_injected\":{},\"suite_failures\":[{}]}}",
            self.master_seed,
            self.reports.len(),
            self.completed(),
            self.failed(),
            self.panicked(),
            self.with_violations(),
            self.reports
                .iter()
                .map(|r| r.dst.faults.len())
                .sum::<usize>(),
            failures.join(","),
        )
    }
}

/// Escapes a string for embedding in the workspace's hand-rolled JSON
/// artifacts (`BENCH_dst.json`, `BENCH_core.json`) — the workspace is
/// dependency-free, so this is the one shared escaper.
pub fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Runs `cases` seed-derived cases, with case seeds drawn from
/// `master_seed`'s [`DetRng`] stream. Every failure is reported with its
/// own `u64` case seed, replayable via [`replay`].
///
/// Equivalent to [`sweep_with_threads`] with one thread.
pub fn sweep(master_seed: u64, cases: usize) -> SweepSummary {
    sweep_with_threads(master_seed, cases, 1)
}

/// Runs the first `cases` cases of a sweep with per-round tracing
/// enabled (see [`run_case_traced`]) — the CI traced stress-sweep slice.
/// Tracing never reaches the rendered reports, so the summary renders
/// byte-identically to the untraced sweep's prefix of the same length;
/// what the slice adds is coverage of the traced `max_degree` path (and
/// its debug-build oracle) under real adversarial schedules.
pub fn sweep_traced(master_seed: u64, cases: usize) -> SweepSummary {
    let reports = case_seeds(master_seed, cases)
        .iter()
        .map(|&s| run_case_traced(&StressCase::from_seed(s)))
        .collect();
    SweepSummary {
        master_seed,
        reports,
    }
}

/// Derives the per-case seeds of a sweep (the only part that consumes the
/// master RNG; cases are then fully independent, which is what makes the
/// sweep embarrassingly parallel).
pub(crate) fn case_seeds(master_seed: u64, cases: usize) -> Vec<u64> {
    let mut rng = DetRng::seed_from_u64(master_seed);
    (0..cases).map(|_| rng.next_u64()).collect()
}

/// The number of blocks each sweep worker should expect to claim: small
/// enough that the atomic counter is touched a handful of times per
/// worker instead of once per case, large enough that a straggler block
/// cannot serialize the tail of the sweep.
const SWEEP_BLOCKS_PER_WORKER: usize = 8;

/// Picks the effective worker count and stealing block size for a sweep
/// of `cases` cases on `threads` requested workers. Workers are capped at
/// the machine's available parallelism — oversubscribing a CPU-bound
/// sweep only adds scheduling overhead (the old `threads=2` regression on
/// small machines) — and cases are claimed in contiguous blocks rather
/// than one at a time.
fn sweep_partition(cases: usize, threads: usize) -> (usize, usize) {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workers = threads.clamp(1, cases.max(1)).min(hw);
    let block = cases
        .div_ceil(workers.max(1) * SWEEP_BLOCKS_PER_WORKER)
        .max(1);
    (workers, block)
}

/// Maps `f` over `items` on a pool of `threads` worker threads
/// (`std::thread`, no external dependencies) and returns the results in
/// item order, so the output does not depend on the thread count. Workers
/// steal contiguous *blocks* of indices from a shared atomic counter (one
/// counter bump per block, not per item); `threads` is clamped as in
/// [`sweep_partition`], and a single worker runs on the calling thread.
pub(crate) fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let (threads, block) = sweep_partition(items.len(), threads);
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    let next = AtomicUsize::new(0);
    let (next, f) = (&next, &f);
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let start = next.fetch_add(block, Ordering::Relaxed);
                        if start >= items.len() {
                            break;
                        }
                        let end = (start + block).min(items.len());
                        out.extend((start..end).map(|i| (i, f(&items[i]))));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    indexed.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(indexed.len(), items.len());
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Runs a seed sweep on a pool of `threads` worker threads
/// (`parallel_map`). Case seeds are derived up-front from the master
/// RNG and reports come back in case order — so the returned
/// [`SweepSummary`] (and therefore `summary_text`/`to_json` and every
/// per-case [`StressReport::render`]) is byte-identical for every thread
/// count, including 1.
///
/// `threads` is clamped to `[1, cases]` and to the machine's available
/// parallelism (oversubscription only slows a CPU-bound sweep down);
/// `0` means one thread.
pub fn sweep_with_threads(master_seed: u64, cases: usize, threads: usize) -> SweepSummary {
    let reports = parallel_map(&case_seeds(master_seed, cases), threads, |&s| {
        run_case(&StressCase::from_seed(s))
    });
    SweepSummary {
        master_seed,
        reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_derivation_is_deterministic() {
        let a = StressCase::from_seed(17);
        let b = StressCase::from_seed(17);
        assert_eq!(a, b);
        let c = StressCase::from_seed(18);
        assert_ne!(a, c);
    }

    #[test]
    fn failure_free_runs_are_clean() {
        for algorithm in adn_core::algorithm::registry() {
            let family = if algorithm.spec().id == "centralized_cut_in_half" {
                GraphFamily::Line
            } else {
                GraphFamily::Ring
            };
            let case = StressCase::explicit(
                algorithm.spec().id,
                family,
                20,
                3,
                Scenario::failure_free(),
                99,
            );
            let report = run_case(&case);
            assert!(
                report.is_clean(),
                "{} under failure_free: {}",
                algorithm.spec().id,
                report.render()
            );
            assert!(!report.is_suite_failure());
        }
    }

    #[test]
    fn replay_is_byte_identical() {
        for seed in [1u64, 2, 3, 40, 41] {
            let (report, identical) = verify_replay(seed);
            assert!(identical, "seed {seed} diverged:\n{}", report.render());
        }
    }

    #[test]
    fn minimizer_finds_a_minimal_failing_budget() {
        // Crashing an interior node of a line disconnects it: flooding
        // then cannot complete, and the connectivity invariant records a
        // violation — a guaranteed non-clean case.
        let scenario = Scenario {
            per_round_probability: 1.0,
            ..Scenario::crash_stop().with_fault_budget(6)
        };
        let case = StressCase::explicit("flooding", GraphFamily::Line, 16, 1, scenario, 12345);
        let full = run_case(&case);
        assert!(!full.is_clean(), "{}", full.render());
        let minimized = minimize(&case).expect("a failing case must minimize");
        assert!(minimized.minimal_budget >= 1, "budget 0 is failure-free");
        assert!(minimized.minimal_budget <= 6);
        assert!(!minimized.report.is_clean());
        // The render leads with the reproduction line and histograms the
        // injected faults (a pure-crash scenario injects only crashes).
        let rendered = minimized.render();
        assert!(
            rendered.starts_with(&format!(
                "minimized: seed=0 budget {} of 6",
                minimized.minimal_budget
            )),
            "{rendered}"
        );
        assert!(rendered.contains("faults injected: crash="), "{rendered}");
        assert!(!rendered.contains("delete_edge="), "{rendered}");
        assert!(rendered.contains("outcome:"), "{rendered}");
        // The minimal budget really is minimal: one less fault is clean.
        let mut below = case.clone();
        below.scenario.fault_budget = minimized.minimal_budget - 1;
        assert!(run_case(&below).is_clean(), "{}", run_case(&below).render());
    }

    #[test]
    fn minimizer_returns_a_failing_budget_for_partition_scenarios() {
        // Regression guard for the budget-free heal: `partition_heal`
        // schedules its `Heal` without consuming budget or RNG, so a
        // smaller-budget run is *not* a literal prefix of the original
        // schedule. The minimizer must still return a budget whose run it
        // observed failing — never a "minimal" budget that runs clean.
        let scenario = Scenario {
            per_round_probability: 1.0,
            ..dst::find_scenario("partition_heal")
                .expect("registered scenario")
                .with_fault_budget(4)
        };
        let mut minimized_some = 0usize;
        for adversary_seed in 0..40u64 {
            let case = StressCase::explicit(
                "graph_to_star",
                GraphFamily::SparseRandom,
                18,
                3,
                scenario.clone(),
                adversary_seed,
            );
            let full = run_case(&case);
            if full.is_clean() {
                continue;
            }
            let minimized = minimize(&case).expect("non-clean case must minimize");
            minimized_some += 1;
            assert!(
                !minimized.report.is_clean(),
                "seed {adversary_seed}: minimize returned a clean \"minimal\" budget {}:\n{}",
                minimized.minimal_budget,
                minimized.report.render()
            );
            assert!(minimized.minimal_budget <= case.scenario.fault_budget);
            // Exact minimality: every smaller budget runs clean.
            for below in 0..minimized.minimal_budget {
                let mut c = case.clone();
                c.scenario.fault_budget = below;
                assert!(
                    run_case(&c).is_clean(),
                    "seed {adversary_seed}: budget {below} already fails, {} is not minimal",
                    minimized.minimal_budget
                );
            }
        }
        assert!(
            minimized_some >= 3,
            "only {minimized_some} of 40 partition cases were non-clean — \
             the regression guard never exercised the minimizer"
        );
    }

    #[test]
    fn sweep_output_is_identical_across_thread_counts() {
        let serial = sweep_with_threads(0xAB1E, 10, 1);
        for threads in [2usize, 4, 16] {
            let parallel = sweep_with_threads(0xAB1E, 10, threads);
            assert_eq!(parallel.master_seed, serial.master_seed);
            assert_eq!(parallel.reports.len(), serial.reports.len());
            assert_eq!(
                parallel.summary_text(),
                serial.summary_text(),
                "aggregate diverged at {threads} threads"
            );
            assert_eq!(parallel.to_json(), serial.to_json());
            for (a, b) in serial.reports.iter().zip(&parallel.reports) {
                assert_eq!(
                    a.render(),
                    b.render(),
                    "case seed {} diverged at {threads} threads",
                    a.case.seed
                );
            }
        }
        // `sweep` is the one-thread path.
        let plain = sweep(0xAB1E, 10);
        assert_eq!(plain.to_json(), serial.to_json());
    }

    #[test]
    fn sweep_reports_are_individually_replayable() {
        let summary = sweep(0xD57, 12);
        assert_eq!(summary.reports.len(), 12);
        for report in &summary.reports {
            let again = replay(report.case.seed);
            assert_eq!(
                report.render(),
                again.render(),
                "case seed {} is not reproducible",
                report.case.seed
            );
        }
        let json = summary.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"cases\":12"));
    }
}
