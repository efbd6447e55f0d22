//! The algorithm-run workloads: `wreath_line` and `star_bulk` (the
//! synchronous round engine) and `async_seeded` (the actor runtime under
//! the seeded scheduler). A unit is one algorithm run on one generated
//! input; a pass runs every unit once.

use crate::checks::{check_transform, TREE_OUTPUTS};
use crate::metrics::{ratio, Values};
use crate::replay::replay_unit;
use crate::report::{per_unit_medians, quantile, Report};
use crate::spans::Tracer;
use crate::{derive, Sizes};
use adn_core::algorithm::{find, EngineMode, ReconfigurationAlgorithm};
use adn_core::committee::{CommitteeForest, IncrementalAdjacency, SelectionForest};
use adn_core::{RunConfig, TransformationOutcome};
use adn_graph::{generators, Graph, GraphFamily, UidAssignment, UidMap};
use adn_runtime::flood::flood_actors;
use adn_runtime::SeededScheduler;
use adn_sim::Network;
use std::time::Instant;

/// One algorithm run: algorithm, input graph (index into
/// [`Inputs::graphs`]), UID map and run configuration.
pub struct Unit {
    pub label: String,
    pub algo: &'static dyn ReconfigurationAlgorithm,
    pub graph: usize,
    pub uids: UidMap,
    pub config: RunConfig,
}

/// Generated inputs of one workload.
#[derive(Default)]
pub struct Inputs {
    pub graphs: Vec<Graph>,
    pub units: Vec<Unit>,
}

fn algo(id: &str) -> &'static dyn ReconfigurationAlgorithm {
    find(id).unwrap_or_else(|| panic!("algorithm `{id}` is not registered"))
}

impl Inputs {
    fn graph(&mut self, tr: &mut Tracer, make: impl FnOnce() -> Graph) -> usize {
        self.graphs
            .push(tr.span("graph.generate", usize::MAX, make));
        self.graphs.len() - 1
    }

    fn unit(&mut self, label: String, id: &str, graph: usize, uids: UidMap, config: RunConfig) {
        self.units.push(Unit {
            label,
            algo: algo(id),
            graph,
            uids,
            config,
        });
    }
}

fn uid_map(tr: &mut Tracer, n: usize, assignment: UidAssignment) -> UidMap {
    tr.span("graph.generate", usize::MAX, || UidMap::new(n, assignment))
}

/// `wreath_line`: GraphToWreath and GraphToThinWreath on one spanning
/// line, each with sequential UIDs (the Theorem 4.2 worst case) and with
/// a seeded random UID permutation.
pub fn setup_wreath_line(seed: u64, sizes: &Sizes, tr: &mut Tracer) -> Inputs {
    let n = sizes.wreath_n;
    let mut inputs = Inputs::default();
    let g = inputs.graph(tr, || generators::line(n));
    for (i, id) in ["graph_to_wreath", "graph_to_thin_wreath"]
        .iter()
        .enumerate()
    {
        // One permutation per algorithm: independent draws keep the
        // seed-to-seed spread of the summed counts down.
        let random = UidAssignment::RandomPermutation {
            seed: derive(seed, 1 + i as u64),
        };
        for (tag, assignment) in [("seq", UidAssignment::Sequential), ("rand", random)] {
            let uids = uid_map(tr, n, assignment);
            inputs.unit(
                format!("{id}/line/{tag}"),
                id,
                g,
                uids,
                RunConfig::default(),
            );
        }
    }
    inputs
}

/// The `star_bulk` families (sparse_random is excluded: generating it at
/// this size dominates the whole run).
pub const STAR_FAMILIES: [GraphFamily; 5] = [
    GraphFamily::Line,
    GraphFamily::BoundedDegreeConnected,
    GraphFamily::RandomTree,
    GraphFamily::Grid,
    GraphFamily::Caterpillar,
];

/// `star_bulk`: GraphToStar on five families with seeded random UIDs.
pub fn setup_star_bulk(seed: u64, sizes: &Sizes, tr: &mut Tracer) -> Inputs {
    let mut inputs = Inputs::default();
    for (i, family) in STAR_FAMILIES.iter().enumerate() {
        let graph_seed = derive(seed, 10 + i as u64);
        let g = inputs.graph(tr, || family.generate(sizes.star_n, graph_seed));
        let n = inputs.graphs[g].node_count();
        let uids = uid_map(
            tr,
            n,
            UidAssignment::RandomPermutation {
                seed: derive(seed, 20 + i as u64),
            },
        );
        inputs.unit(
            format!("graph_to_star/{}", family.name()),
            "graph_to_star",
            g,
            uids,
            RunConfig::default(),
        );
    }
    inputs
}

/// `async_seeded`: GraphToStar and GraphToWreath on a line with
/// sequential UIDs, and flooding on a shorter line with seeded random
/// UIDs, all under the seeded scheduler whose seed comes from the workload
/// seed. Sequential UIDs keep the committee runs' counts independent of
/// the seed (random UIDs move their rounds by about 16% from seed to seed
/// at this size).
pub fn setup_async_seeded(seed: u64, sizes: &Sizes, tr: &mut Tracer) -> Inputs {
    let mut inputs = Inputs::default();
    let config = RunConfig::default().with_engine(EngineMode::Seeded {
        seed: derive(seed, 30),
    });
    let line = inputs.graph(tr, || generators::line(sizes.async_n));
    for id in ["graph_to_star", "graph_to_wreath"] {
        let uids = uid_map(tr, sizes.async_n, UidAssignment::Sequential);
        inputs.unit(format!("{id}/line/seeded"), id, line, uids, config.clone());
    }
    let flood_line = inputs.graph(tr, || generators::line(sizes.flood_n));
    let uids = uid_map(
        tr,
        sizes.flood_n,
        UidAssignment::RandomPermutation {
            seed: derive(seed, 33),
        },
    );
    inputs.unit(
        "flooding/line/seeded".into(),
        "flooding",
        flood_line,
        uids,
        config,
    );
    inputs
}

/// What must repeat exactly when a unit is run again with the same inputs.
fn fingerprint(o: &TransformationOutcome) -> String {
    format!(
        "{} {} {:?} {:?} {}",
        o.rounds,
        o.final_graph.edge_count(),
        o.metrics,
        o.leader,
        o.runtime.as_ref().map(|r| r.render()).unwrap_or_default()
    )
}

/// Result of the measured phase.
pub struct Measured {
    pub pass_s: Vec<f64>,
    pub unit_ms: Vec<f64>,
    pub outcomes: Vec<Result<TransformationOutcome, String>>,
}

/// Runs passes over every unit until `seconds` have elapsed (at least
/// one). Only the `run` calls are timed. Every later pass must reproduce
/// the first pass's outcomes exactly; a difference is recorded as a
/// failed check.
pub fn measure(inputs: &Inputs, seconds: f64, report: &mut Report) -> Measured {
    let mut m = Measured {
        pass_s: Vec::new(),
        unit_ms: Vec::new(),
        outcomes: Vec::new(),
    };
    let mut prints: Vec<Option<String>> = Vec::new();
    let start = Instant::now();
    loop {
        let mut pass = 0.0;
        for (i, u) in inputs.units.iter().enumerate() {
            let t = Instant::now();
            let r = u.algo.run(&inputs.graphs[u.graph], &u.uids, &u.config);
            let dt = t.elapsed().as_secs_f64();
            pass += dt;
            m.unit_ms.push(dt * 1e3);
            let print = r.as_ref().ok().map(fingerprint);
            if m.pass_s.is_empty() {
                prints.push(print);
                m.outcomes.push(r.map_err(|e| e.to_string()));
            } else if print != prints[i] {
                report.fail(&u.label, "a repeated run differs from the first");
            }
        }
        m.pass_s.push(pass);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    m
}

/// Checks every unit's first-pass outcome (outside the timed region).
pub fn check(
    inputs: &Inputs,
    outcomes: &[Result<TransformationOutcome, String>],
    report: &mut Report,
) {
    report.attempted += inputs.units.len();
    for (u, r) in inputs.units.iter().zip(outcomes) {
        let o = match r {
            Ok(o) => o,
            Err(e) => {
                report.fail(&u.label, format!("run failed: {e}"));
                continue;
            }
        };
        for bad in check_transform(&u.algo.spec(), &u.uids, o) {
            report.fail(&u.label, bad);
        }
        if u.config.engine.is_synchronous() {
            continue;
        }
        match &o.runtime {
            None => report.fail(&u.label, "asynchronous run carries no runtime report"),
            Some(rt) if rt.in_flight_at_detection != 0 => report.fail(
                &u.label,
                format!(
                    "{} messages in flight at detection",
                    rt.in_flight_at_detection
                ),
            ),
            Some(_) => {}
        }
        if u.algo.spec().id == "flooding" {
            let n = inputs.graphs[u.graph].node_count();
            if o.tokens_per_node.len() != n || o.tokens_per_node.iter().any(|&k| k != n) {
                report.fail(&u.label, "a node ended without all n tokens");
            }
        }
    }
    // Seeded replay: the first asynchronous unit, run once more with the
    // same seed, renders byte-identically.
    if let Some((i, u)) = inputs
        .units
        .iter()
        .enumerate()
        .find(|(_, u)| !u.config.engine.is_synchronous())
    {
        let again = u.algo.run(&inputs.graphs[u.graph], &u.uids, &u.config);
        let first = outcomes[i].as_ref().ok().and_then(|o| o.runtime.as_ref());
        let second = again.as_ref().ok().and_then(|o| o.runtime.as_ref());
        if first.map(|r| r.render()) != second.map(|r| r.render()) {
            report.fail(&u.label, "seeded replay did not render byte-identically");
        }
    }
}

/// End-to-end metrics of the measured phase.
pub fn end_to_end(inputs: &Inputs, m: &Measured, v: &mut Values, report: &mut Report) {
    // One pass over every unit: the sum of the per-unit medians.
    let unit_ms = per_unit_medians(&m.unit_ms, inputs.units.len());
    let wall = unit_ms.iter().sum::<f64>() * 1e-3;
    let ok: Vec<&TransformationOutcome> =
        m.outcomes.iter().filter_map(|r| r.as_ref().ok()).collect();
    let activations: usize = ok.iter().map(|o| o.metrics.total_activations).sum();
    v.set("wall_s", wall);
    v.set("units_per_s", ratio(unit_ms.len() as f64, wall));
    v.set("unit_ms.p50", quantile(&unit_ms, 0.5));
    v.set("unit_ms.p99", quantile(&unit_ms, 0.99));
    v.set("activations_per_s", ratio(activations as f64, wall));
    v.set("rounds", ok.iter().map(|o| o.rounds).sum::<usize>() as f64);
    v.set("activations", activations as f64);
    v.set(
        "max_activated_degree",
        ok.iter()
            .map(|o| o.metrics.max_activated_degree)
            .max()
            .unwrap_or(0) as f64,
    );
    report.notes.push(format!(
        "passes {} ({} units each), unit_ms samples {}",
        m.pass_s.len(),
        inputs.units.len(),
        m.unit_ms.len()
    ));
    for (u, r) in inputs.units.iter().zip(&m.outcomes) {
        if let Ok(o) = r {
            report.notes.push(format!(
                "unit {}: n {} rounds {} activations {} max_activated_degree {} phases {}",
                u.label,
                inputs.graphs[u.graph].node_count(),
                o.rounds,
                o.metrics.total_activations,
                o.metrics.max_activated_degree,
                o.phases
            ));
        }
    }
}

/// Phase-1 committee selection through the committee layer's public API,
/// as both phase loops drive it: every singleton committee selects its
/// largest-UID larger neighbour and the selection forest is resolved.
/// With `retire` (the wreath family's phase loop) every committee that
/// selected is then retired in `live_ids` order; the committees left are
/// returned.
pub fn committee_probe(
    tr: &mut Tracer,
    unit: usize,
    graph: &Graph,
    uids: &UidMap,
    retire: bool,
) -> usize {
    let n = graph.node_count();
    tr.open("committee.select", unit);
    let mut forest = CommitteeForest::singletons(n);
    let mut tracker = IncrementalAdjacency::new(&forest, graph);
    let rows = tracker.refresh(&forest, graph, &[]);
    let mut selected = vec![false; forest.slot_count()];
    let mut edges = Vec::new();
    for &c in forest.live_ids() {
        if let Some((target, _, _)) = rows.select_largest_uid_neighbor(c, &forest, uids, |_| true) {
            selected[c.index()] = true;
            edges.push((c, target));
        }
    }
    let sel = SelectionForest::new(&forest, &edges);
    tr.close();
    std::hint::black_box(sel.roots().len());
    if !retire {
        return forest.live_count();
    }
    tr.open("committee.retire", unit);
    let dead: Vec<_> = forest
        .live_ids()
        .iter()
        .copied()
        .filter(|c| selected[c.index()])
        .collect();
    for c in dead {
        forest.retire(c);
    }
    tr.close();
    forest.live_count()
}

/// Bound ratios of one completed run, folded into `v` as maxima.
pub fn model_ratios(v: &mut Values, id: &str, n: usize, o: &TransformationOutcome) {
    let log = (n.max(2) as f64).log2();
    let nf = n.max(1) as f64;
    if id == "graph_to_wreath" || id == "graph_to_thin_wreath" {
        v.max("model.rounds_over_log2n_sq", o.rounds as f64 / (log * log));
        v.max(
            "model.activations_over_nlog2n_sq",
            o.metrics.total_activations as f64 / (nf * log * log),
        );
    }
    if id == "graph_to_star" {
        v.max("model.rounds_over_log2n", o.rounds as f64 / log);
    }
    v.max(
        "model.max_activated_edges_over_n",
        o.metrics.max_activated_edges as f64 / nf,
    );
}

/// The traced run: one untraced pass (the overhead baseline), one traced
/// pass with spans around `Network::new` and `execute`, one recording
/// pass that captures each unit's round-event stream, then the layer
/// replays and the committee and runtime probes.
pub fn traced(inputs: &Inputs, tr: &mut Tracer, v: &mut Values, report: &mut Report) {
    let untraced = measure(inputs, 0.0, report);
    check(inputs, &untraced.outcomes, report);

    let mut traced_s = 0.0;
    let mut outcomes = Vec::new();
    for (i, u) in inputs.units.iter().enumerate() {
        let t = Instant::now();
        tr.open("unit", i);
        let mut net = tr.span("sim.network_new", i, || {
            Network::new(inputs.graphs[u.graph].clone())
        });
        let r = tr.span("core.execute", i, || {
            u.algo.execute(&mut net, &u.uids, &u.config)
        });
        tr.close();
        traced_s += t.elapsed().as_secs_f64();
        outcomes.push(r);
    }
    v.set("trace.overhead", ratio(traced_s, untraced.pass_s[0]));

    let mut committee_steps = 0usize;
    let mut committee_s = 0.0;
    for (i, (u, r)) in inputs.units.iter().zip(&outcomes).enumerate() {
        let o = match r {
            Ok(o) => o,
            Err(e) => {
                report.fail(&u.label, format!("traced run failed: {e}"));
                continue;
            }
        };
        let spec = u.algo.spec();
        let graph = &inputs.graphs[u.graph];
        let n = graph.node_count();
        v.add("core.phases", o.phases as f64);
        v.max(
            "sim.peak_round_activations",
            o.metrics.peak_round_activations as f64,
        );
        if spec.id != "flooding" {
            model_ratios(v, spec.id, n, o);
        }

        // Recording pass (its own network, outside the traced spans).
        let mut net = Network::new(graph.clone());
        net.set_event_recording(true);
        let recorded = u.algo.execute(&mut net, &u.uids, &u.config);
        let events = net.take_events();
        drop(net);
        match &recorded {
            Ok(rec) if fingerprint(rec) == fingerprint(o) => {}
            _ => report.fail(&u.label, "recording changed the run"),
        }
        if spec.id != "flooding" {
            match replay_unit(tr, i, graph, &events, o, &spec, &u.uids) {
                Ok(rep) => {
                    v.add("graph.edits", rep.edits as f64);
                    v.add("sim.events", rep.events as f64);
                    v.add("sim.rounds_committed", rep.rounds_committed as f64);
                    v.add("sim.rounds_idle", rep.rounds_idle as f64);
                    v.add("sim.activations", rep.activations as f64);
                    v.add("dst.rounds_checked", rep.rounds_checked as f64);
                    v.add("dst.replay_rounds", rep.rounds_checked as f64);
                    v.add("dst.violations", rep.violations as f64);
                    if rep.violations > 0 {
                        report.fail(&u.label, "failure-free armed replay found violations");
                    }
                }
                Err(e) => report.fail(&u.label, format!("replay: {e}")),
            }
        }
        if TREE_OUTPUTS.contains(&spec.id) {
            let wreath = spec.id != "graph_to_star";
            let left = committee_probe(tr, i, graph, &u.uids, wreath);
            if wreath {
                v.add("core.committees_after_phase1", left as f64);
                if o.committees_per_phase.get(1).is_some_and(|&c| c != left) {
                    report.fail(
                        &u.label,
                        "committee probe disagrees with the phase-2 committee count",
                    );
                }
            }
        }
        if let Some(rt) = &o.runtime {
            v.add("runtime.steps", rt.steps as f64);
            v.add("runtime.app_messages", rt.app_messages as f64);
            v.add("runtime.acks", rt.acks as f64);
            v.add("runtime.commits", rt.commits as f64);
            if spec.id != "flooding" {
                committee_steps += rt.steps;
                committee_s += tr
                    .spans()
                    .iter()
                    .filter(|s| s.unit == i && s.name == "core.execute")
                    .map(|s| s.duration_ns() as f64 * 1e-9)
                    .sum::<f64>();
            }
        }
    }
    v.set(
        "runtime.committee_ns_per_step",
        ratio(committee_s * 1e9, committee_steps as f64),
    );

    // The scheduler alone: flooding actors on the seeded scheduler, with
    // the same inputs and seed and no adn_core involved.
    for (i, u) in inputs.units.iter().enumerate() {
        let EngineMode::Seeded { seed } = u.config.engine else {
            continue;
        };
        if u.algo.spec().id != "flooding" {
            continue;
        }
        let graph = &inputs.graphs[u.graph];
        let mut net = Network::new(graph.clone());
        let mut actors = flood_actors(graph, &u.uids);
        let r = tr.span("runtime.seeded_run", i, || {
            SeededScheduler::new(seed).run(&mut net, &mut actors)
        });
        match r {
            Ok(rt) => {
                let s = tr.total_s("runtime.seeded_run");
                v.set("runtime.flood_ns_per_step", ratio(s * 1e9, rt.steps as f64));
                let n = graph.node_count();
                if actors.iter().any(|a| a.known().len() != n) {
                    report.fail(&u.label, "direct flooding left a node without all n tokens");
                }
            }
            Err(e) => report.fail(&u.label, format!("direct flooding failed: {e}")),
        }
    }
    let steps = v.get("runtime.steps");
    let runtime_s = tr
        .spans()
        .iter()
        .filter(|s| {
            s.name == "core.execute" && !inputs.units[s.unit].config.engine.is_synchronous()
        })
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .sum::<f64>();
    v.set("runtime.steps_per_s", ratio(steps, runtime_s));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tampered_outcome_raises_the_failed_count() {
        let inputs = setup_star_bulk(1, &Sizes::SMALL, &mut Tracer::off());
        let mut report = Report::default();
        let mut m = measure(&inputs, 0.0, &mut report);
        let o = m.outcomes[0].as_mut().expect("the star run completes");
        let e = o.final_graph.edges().next().expect("the star has edges");
        o.final_graph.remove_edge(e.a, e.b).expect("edge exists");
        check(&inputs, &m.outcomes, &mut report);
        assert_eq!(report.attempted, inputs.units.len());
        assert_eq!(report.failed_units(), 1, "{:?}", report.failures);
        assert!(report.to_json().contains("\"correct\": false"));
        assert!(report.to_json().contains("\"failed\": 1,"));
    }

    #[test]
    fn untampered_outcomes_pass() {
        let inputs = setup_async_seeded(2, &Sizes::SMALL, &mut Tracer::off());
        let mut report = Report::default();
        let m = measure(&inputs, 0.0, &mut report);
        check(&inputs, &m.outcomes, &mut report);
        assert_eq!(report.failed_units(), 0, "{:?}", report.failures);
    }
}
