//! `dst_sweep`: seed-derived stress cases with the DST adversary and the
//! invariant checks armed, run on the `adn_analysis::stress` worker pool.

use crate::checks::{check_transform, TREE_OUTPUTS};
use crate::metrics::{ratio, Values};
use crate::replay::replay_unit;
use crate::report::{per_unit_medians, quantile, Report};
use crate::spans::Tracer;
use crate::units::{committee_probe, model_ratios};
use crate::{derive, Sizes};
use adn_analysis::stress::{self, StressCase, StressOutcome, StressReport};
use adn_core::algorithm::{arm_network_for_dst, find, DstConfig};
use adn_core::{RunConfig, TransformationOutcome};
use adn_graph::rng::DetRng;
use adn_graph::{Graph, UidAssignment, UidMap};
use adn_sim::dst::DstReport;
use adn_sim::{Network, RoundEvent};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The generated inputs: one pool master seed per batch, the cases the
/// pool derives from each (batch-major), and each case's graph and UID map.
pub struct Inputs {
    pub masters: Vec<u64>,
    pub batch: usize,
    pub threads: usize,
    pub cases: Vec<StressCase>,
    pub graphs: Vec<Graph>,
    pub uids: Vec<UidMap>,
}

/// Pool threads: `min(2, nproc)`.
pub fn pool_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Derives the case seeds exactly as the stress pool does from its master
/// seed (checked against the pool's reports after every run).
fn case_seeds(master: u64, cases: usize) -> Vec<u64> {
    let mut rng = DetRng::seed_from_u64(master);
    (0..cases).map(|_| rng.next_u64()).collect()
}

pub fn setup(seed: u64, sizes: &Sizes, tr: &mut Tracer) -> Inputs {
    let masters: Vec<u64> = (0..sizes.dst_batches)
        .map(|b| derive(seed, 50 + b as u64))
        .collect();
    let cases: Vec<StressCase> = tr.span("stress.derive", usize::MAX, || {
        masters
            .iter()
            .flat_map(|&m| case_seeds(m, sizes.dst_batch))
            .map(StressCase::from_seed)
            .collect()
    });
    let mut graphs = Vec::with_capacity(cases.len());
    let mut uids = Vec::with_capacity(cases.len());
    for (i, c) in cases.iter().enumerate() {
        let g = tr.span("graph.generate", i, || c.family.generate(c.n, c.uid_seed));
        let n = g.node_count();
        uids.push(tr.span("graph.generate", i, || {
            UidMap::new(n, UidAssignment::RandomPermutation { seed: c.uid_seed })
        }));
        graphs.push(g);
    }
    Inputs {
        masters,
        batch: sizes.dst_batch,
        threads: pool_threads(),
        cases,
        graphs,
        uids,
    }
}

/// Result of the measured phase.
pub struct Measured {
    pub case_ms: Vec<f64>,
    pub cycles: usize,
    pub serial: Vec<StressReport>,
}

/// A cycle runs every case once with `stress::run_case`, timing each on
/// its own. Whole cycles repeat until `seconds` have elapsed; every later
/// cycle must reproduce the first one's reports exactly. The worker pool
/// is not timed here: on a small shared machine its two-thread wall time
/// swings with the load on the other core far more than the serial times
/// do. It runs in the checks (same renders) and in the traced run
/// (`stress.pool_s`, `stress.pool_efficiency`).
pub fn measure(inputs: &Inputs, seconds: f64, report: &mut Report) -> Measured {
    let mut m = Measured {
        case_ms: Vec::new(),
        cycles: 0,
        serial: Vec::new(),
    };
    let start = Instant::now();
    loop {
        for (i, c) in inputs.cases.iter().enumerate() {
            let t = Instant::now();
            let r = stress::run_case(c);
            m.case_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if m.cycles == 0 {
                m.serial.push(r);
            } else if r != m.serial[i] {
                report.fail(&label(c), "a repeated run differs from the first");
            }
        }
        m.cycles += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    m
}

/// Runs every batch on the stress worker pool.
fn run_pool(inputs: &Inputs, tr: &mut Tracer) -> Vec<StressReport> {
    let mut reports = Vec::with_capacity(inputs.cases.len());
    for (b, &master) in inputs.masters.iter().enumerate() {
        let summary = tr.span("stress.sweep_with_threads", b, || {
            stress::sweep_with_threads(master, inputs.batch, inputs.threads)
        });
        reports.extend(summary.reports);
    }
    reports
}

/// One case run through the layers' public functions directly — the same
/// calls `stress::run_case` makes — so the traced run can put spans
/// around each layer and record the event stream. Its render must equal
/// the library's.
pub struct Decomposed {
    pub report: StressReport,
    pub outcome: Option<TransformationOutcome>,
    pub events: Vec<RoundEvent>,
}

pub fn run_decomposed(
    c: &StressCase,
    graph: &Graph,
    uids: &UidMap,
    tr: &mut Tracer,
    unit: usize,
    record: bool,
) -> Decomposed {
    let a =
        find(&c.algorithm).unwrap_or_else(|| panic!("unregistered algorithm `{}`", c.algorithm));
    let mut net = tr.span("sim.network_new", unit, || Network::new(graph.clone()));
    let dcfg = DstConfig {
        scenario: c.scenario.clone(),
        seed: c.adversary_seed,
    };
    tr.span("dst.arm", unit, || {
        arm_network_for_dst(&mut net, &a.spec(), uids, &dcfg)
    });
    net.set_event_recording(record);
    let config = RunConfig::default().with_round_budget(c.round_budget);
    let result = tr.span("core.execute", unit, || {
        catch_unwind(AssertUnwindSafe(|| a.execute(&mut net, uids, &config)))
    });
    let events = net.take_events();
    let (outcome, dst, kept) = match result {
        Ok(Ok(o)) => (
            StressOutcome::Completed {
                rounds: o.rounds,
                activations: o.metrics.total_activations,
            },
            o.dst.clone(),
            Some(o),
        ),
        Ok(Err(e)) => (
            StressOutcome::Failed(e.to_string()),
            net.take_dst_report(),
            None,
        ),
        Err(p) => {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            (StressOutcome::Panicked(msg), net.take_dst_report(), None)
        }
    };
    let dst = dst.unwrap_or_else(|| DstReport {
        scenario: c.scenario.name.clone(),
        seed: c.adversary_seed,
        rounds_checked: 0,
        crashed: Vec::new(),
        faults: Vec::new(),
        violations: Vec::new(),
    });
    Decomposed {
        report: StressReport {
            case: c.clone(),
            n_actual: graph.node_count(),
            outcome,
            dst,
        },
        outcome: kept,
        events,
    }
}

fn label(c: &StressCase) -> String {
    format!("case {} ({})", c.seed, c.algorithm)
}

/// Checks (outside the timed region): the pool derived the same case
/// seeds, no suite failures, pool and serial reports render identically,
/// the layer-by-layer run renders identically, a sample of seeds replays
/// byte-identically, and fault-free completed cases pass the transform
/// checks. Returns the decomposed runs (counts and outcomes).
pub fn check(inputs: &Inputs, m: &Measured, report: &mut Report) -> Vec<Decomposed> {
    report.attempted += inputs.cases.len();
    let mut tr = Tracer::off();
    let pool_reports = run_pool(inputs, &mut tr);
    let mut runs = Vec::with_capacity(inputs.cases.len());
    for (i, c) in inputs.cases.iter().enumerate() {
        let l = label(c);
        let (pool, serial) = (&pool_reports[i], &m.serial[i]);
        if pool.case.seed != c.seed {
            report.fail(&l, "the pool derived a different case seed");
        }
        if pool.is_suite_failure() {
            report.fail(
                &l,
                format!(
                    "suite failure: {}",
                    pool.render().lines().nth(1).unwrap_or("")
                ),
            );
        }
        let render = pool.render();
        if serial.render() != render {
            report.fail(&l, "pool and serial runs render differently");
        }
        let d = run_decomposed(c, &inputs.graphs[i], &inputs.uids[i], &mut tr, i, false);
        if d.report.render() != render {
            report.fail(&l, "the layer-by-layer run renders differently");
        }
        if d.report.dst.faults.is_empty() {
            if let Some(o) = &d.outcome {
                let spec = find(&c.algorithm).expect("registered").spec();
                for bad in check_transform(&spec, &inputs.uids[i], o) {
                    report.fail(&l, bad);
                }
            }
        }
        runs.push(d);
    }
    for c in inputs.cases.iter().take(8) {
        let (_, identical) = stress::verify_replay(c.seed);
        if !identical {
            report.fail(&label(c), "replay diverged");
        }
    }
    runs
}

pub fn end_to_end(
    inputs: &Inputs,
    m: &Measured,
    runs: &[Decomposed],
    v: &mut Values,
    report: &mut Report,
) {
    // One pass over the whole case set: the sum of the per-case medians.
    let case_ms = per_unit_medians(&m.case_ms, inputs.cases.len());
    let wall = case_ms.iter().sum::<f64>() * 1e-3;
    let done: Vec<&TransformationOutcome> =
        runs.iter().filter_map(|d| d.outcome.as_ref()).collect();
    let activations: usize = done.iter().map(|o| o.metrics.total_activations).sum();
    v.set("wall_s", wall);
    v.set("units_per_s", ratio(inputs.cases.len() as f64, wall));
    v.set("unit_ms.p50", quantile(&case_ms, 0.5));
    v.set("unit_ms.p99", quantile(&case_ms, 0.99));
    v.set("activations_per_s", ratio(activations as f64, wall));
    v.set(
        "rounds",
        done.iter().map(|o| o.rounds).sum::<usize>() as f64,
    );
    v.set("activations", activations as f64);
    v.set(
        "max_activated_degree",
        done.iter()
            .map(|o| o.metrics.max_activated_degree)
            .max()
            .unwrap_or(0) as f64,
    );
    report.notes.push(format!(
        "cycles {} ({} cases in {} pool batches), unit_ms samples {}, completed {}",
        m.cycles,
        inputs.cases.len(),
        inputs.masters.len(),
        m.case_ms.len(),
        done.len()
    ));
}

/// The traced run: serial `run_case` per case (per-algorithm time),
/// renders, the pool (efficiency), the layer-by-layer run with spans, and
/// replays of every fault-free completed case's stream.
pub fn traced(inputs: &Inputs, tr: &mut Tracer, v: &mut Values, report: &mut Report) {
    let untraced = measure(inputs, 0.0, report);
    let runs = check(inputs, &untraced, report);
    let untraced_serial: f64 = untraced.case_ms.iter().sum::<f64>() * 1e-3;

    let t = Instant::now();
    let mut serial = Vec::with_capacity(inputs.cases.len());
    for (i, c) in inputs.cases.iter().enumerate() {
        serial.push(tr.span("stress.run_case", i, || stress::run_case(c)));
    }
    let serial_s = t.elapsed().as_secs_f64();
    v.set("trace.overhead", ratio(serial_s, untraced_serial));
    for (i, r) in serial.iter().enumerate() {
        let s = tr.span("stress.render", i, || r.render());
        std::hint::black_box(s);
    }
    for s in tr.spans().iter().filter(|s| s.name == "stress.run_case") {
        let id = find(&inputs.cases[s.unit].algorithm)
            .expect("registered")
            .spec()
            .id;
        v.add(&format!("stress.run_s.{id}"), s.duration_ns() as f64 * 1e-9);
    }
    std::hint::black_box(run_pool(inputs, tr));
    let pool_s = tr.total_s("stress.sweep_with_threads");
    v.set("stress.pool_s", pool_s);
    v.set("stress.pool_threads", inputs.threads as f64);
    v.set(
        "stress.pool_efficiency",
        ratio(
            tr.total_s("stress.run_case"),
            inputs.threads as f64 * pool_s,
        ),
    );

    for (i, c) in inputs.cases.iter().enumerate() {
        tr.open("unit", i);
        let d = run_decomposed(c, &inputs.graphs[i], &inputs.uids[i], tr, i, false);
        tr.close();
        std::hint::black_box(d.report.outcome);
    }

    for (i, (c, d)) in inputs.cases.iter().zip(&runs).enumerate() {
        let r = &d.report;
        match r.outcome {
            StressOutcome::Completed { .. } => v.add("stress.completed", 1.0),
            StressOutcome::Failed(_) => v.add("stress.failed_under_faults", 1.0),
            StressOutcome::Panicked(_) => v.add("stress.panicked", 1.0),
        }
        v.add("dst.rounds_checked", r.dst.rounds_checked as f64);
        v.add("dst.faults", r.dst.faults.len() as f64);
        v.add("dst.violations", r.dst.violations.len() as f64);
        let Some(o) = &d.outcome else { continue };
        let spec = find(&c.algorithm).expect("registered").spec();
        let n = inputs.graphs[i].node_count();
        v.add("core.phases", o.phases as f64);
        v.max(
            "sim.peak_round_activations",
            o.metrics.peak_round_activations as f64,
        );
        if spec.id != "flooding" {
            model_ratios(v, spec.id, n, o);
        }
        if TREE_OUTPUTS.contains(&spec.id) {
            let wreath = spec.id != "graph_to_star";
            let left = committee_probe(tr, i, &inputs.graphs[i], &inputs.uids[i], wreath);
            if wreath {
                v.add("core.committees_after_phase1", left as f64);
            }
        }
        if !r.dst.faults.is_empty() || spec.id == "flooding" {
            continue;
        }
        // Fault-free completed case: record its stream and replay it.
        let mut quiet = Tracer::off();
        let rec = run_decomposed(c, &inputs.graphs[i], &inputs.uids[i], &mut quiet, i, true);
        if rec.report.render() != r.render() {
            report.fail(&label(c), "recording changed the run");
        }
        match replay_unit(
            tr,
            i,
            &inputs.graphs[i],
            &rec.events,
            o,
            &spec,
            &inputs.uids[i],
        ) {
            Ok(rep) => {
                v.add("graph.edits", rep.edits as f64);
                v.add("sim.events", rep.events as f64);
                v.add("sim.rounds_committed", rep.rounds_committed as f64);
                v.add("sim.rounds_idle", rep.rounds_idle as f64);
                v.add("sim.activations", rep.activations as f64);
                v.add("dst.replay_rounds", rep.rounds_checked as f64);
            }
            Err(e) => report.fail(&label(c), format!("replay: {e}")),
        }
    }
    // stress.derive_s comes from the setup spans (see `setup`).
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tampered_pool_report_fails_its_case() {
        let inputs = setup(3, &Sizes::SMALL, &mut Tracer::off());
        let mut report = Report::default();
        let mut m = measure(&inputs, 0.0, &mut report);
        m.serial[0].outcome = StressOutcome::Panicked("injected".into());
        check(&inputs, &m, &mut report);
        assert_eq!(report.attempted, inputs.cases.len());
        assert_eq!(report.failed_units(), 1, "{:?}", report.failures);
    }
}
