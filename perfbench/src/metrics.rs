//! The benchmark's metric catalogue. Every workload emits the same names,
//! so a run's result always carries the full set: end-to-end metrics with
//! tracing off, per-layer metrics from the traced run. A per-layer metric
//! of a layer the workload never reaches reads 0.

use crate::report::Report;
use std::collections::BTreeMap;

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("units_per_s", "1/s"),
    ("unit_ms.p50", "ms"),
    ("unit_ms.p99", "ms"),
    ("activations_per_s", "1/s"),
    ("rounds", "count"),
    ("activations", "count"),
    ("max_activated_degree", "count"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics with fixed names: name and unit. The per-algorithm
/// stress rows (`stress.run_s.<id>`) are appended by [`per_layer`].
const PER_LAYER_FIXED: [(&str, &str); 43] = [
    ("graph.generate_s", "s"),
    ("graph.edit_ns", "ns"),
    ("graph.edits", "count"),
    ("sim.stage_s", "s"),
    ("sim.commit_s", "s"),
    ("sim.commit_ns_per_round", "ns"),
    ("sim.ns_per_activation", "ns"),
    ("sim.share", "ratio"),
    ("sim.rounds_committed", "count"),
    ("sim.rounds_idle", "count"),
    ("sim.events", "count"),
    ("sim.peak_round_activations", "count"),
    ("dst.check_s", "s"),
    ("dst.check_us_per_round", "us"),
    ("dst.rounds_checked", "count"),
    ("dst.faults", "count"),
    ("dst.violations", "count"),
    ("core.transform_s", "s"),
    ("core.self_s", "s"),
    ("core.phases", "count"),
    ("core.committees_after_phase1", "count"),
    ("committee.select_s", "s"),
    ("committee.retire_s", "s"),
    ("model.rounds_over_log2n_sq", "ratio"),
    ("model.rounds_over_log2n", "ratio"),
    ("model.activations_over_nlog2n_sq", "ratio"),
    ("model.max_activated_edges_over_n", "ratio"),
    ("runtime.flood_ns_per_step", "ns"),
    ("runtime.committee_ns_per_step", "ns"),
    ("runtime.steps", "count"),
    ("runtime.app_messages", "count"),
    ("runtime.acks", "count"),
    ("runtime.commits", "count"),
    ("runtime.steps_per_s", "1/s"),
    ("stress.derive_s", "s"),
    ("stress.render_s", "s"),
    ("stress.pool_s", "s"),
    ("stress.pool_efficiency", "ratio"),
    ("stress.pool_threads", "count"),
    ("stress.completed", "count"),
    ("stress.failed_under_faults", "count"),
    ("stress.panicked", "count"),
    ("trace.overhead", "ratio"),
];

/// The full per-layer catalogue, in emission order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for a in adn_core::algorithm::registry() {
        v.push((format!("stress.run_s.{}", a.spec().id), "s"));
    }
    v
}

/// Accumulated values of one run, keyed by metric name.
#[derive(Debug, Clone, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: &str, v: f64) {
        self.0.insert(name.to_string(), v);
    }

    pub fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += v;
    }

    pub fn max(&mut self, name: &str, v: f64) {
        let e = self.0.entry(name.to_string()).or_insert(v);
        *e = e.max(v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Pushes every catalogue entry of `catalogue` onto `report`, in order,
    /// reading 0 for a name this run never set.
    pub fn emit(&self, catalogue: &[(String, &'static str)], report: &mut Report) {
        for (name, unit) in catalogue {
            report.push(name.clone(), self.get(name), unit);
        }
    }
}

/// The end-to-end catalogue in the owned form [`Values::emit`] takes.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

/// `x / y`, or 0 when `y` is 0.
pub fn ratio(x: f64, y: f64) -> f64 {
    if y == 0.0 {
        0.0
    } else {
        x / y
    }
}
