//! Replays of a unit's recorded round-event stream through single layers:
//! a bare `adn_graph::Graph` (arena edits), a fresh `adn_sim::Network`
//! (round staging and commit) and a DST-armed network (invariant checks).

use crate::checks::metrics_match;
use crate::spans::Tracer;
use adn_core::algorithm::{arm_network_for_dst, DstConfig};
use adn_core::{AlgorithmSpec, TransformationOutcome};
use adn_graph::{Edge, Graph, UidMap};
use adn_sim::dst::Scenario;
use adn_sim::{Network, RoundEvent, WaveActivation};

/// One committed round of a stream, ready to stage: activations carry a
/// witness (a common neighbour in the pre-round snapshot) computed before
/// any timer starts.
#[derive(Debug, Clone, Default)]
pub struct Round {
    pub idle_before: usize,
    pub acts: Vec<WaveActivation>,
    pub deacts: Vec<Edge>,
}

/// A stream prepared for network replay.
#[derive(Debug, Clone, Default)]
pub struct Prepared {
    pub rounds: Vec<Round>,
    pub idle_tail: usize,
    pub activations: usize,
}

/// Splits `events` into rounds and computes every activation's witness on
/// a mirror of the network. Fails on streams the public staging API
/// cannot reproduce (adversarial faults: crashes and joins) and on an
/// activation with no witness.
pub fn prepare(initial: &Graph, events: &[RoundEvent]) -> Result<Prepared, String> {
    let mut mirror = initial.clone();
    let mut out = Prepared::default();
    let mut idle = 0usize;
    let mut acts: Vec<Edge> = Vec::new();
    let mut deacts: Vec<Edge> = Vec::new();
    for ev in events {
        match *ev {
            RoundEvent::Edge { edge, added, .. } => {
                if added {
                    acts.push(edge);
                } else {
                    deacts.push(edge);
                }
            }
            RoundEvent::IdleRound => idle += 1,
            RoundEvent::RoundCommitted { .. } => {
                let mut wave = Vec::with_capacity(acts.len());
                for e in &acts {
                    let witness = mirror
                        .common_neighbor(e.a, e.b)
                        .ok_or_else(|| format!("activation {e:?} has no witness"))?;
                    wave.push(WaveActivation {
                        initiator: e.a,
                        target: e.b,
                        witness,
                    });
                }
                for e in &acts {
                    mirror.add_edge(e.a, e.b).map_err(|err| err.to_string())?;
                }
                for e in &deacts {
                    mirror
                        .remove_edge(e.a, e.b)
                        .map_err(|err| err.to_string())?;
                }
                out.activations += acts.len();
                out.rounds.push(Round {
                    idle_before: idle,
                    acts: wave,
                    deacts: std::mem::take(&mut deacts),
                });
                acts.clear();
                idle = 0;
            }
            RoundEvent::NodeJoined(_) | RoundEvent::NodeCrashed(_) => {
                return Err("stream carries adversarial faults".to_string());
            }
        }
    }
    if !acts.is_empty() || !deacts.is_empty() {
        return Err("stream ends inside an uncommitted round".to_string());
    }
    out.idle_tail = idle;
    Ok(out)
}

/// Applies every edge event of `events` to a copy of `initial` with
/// `add_edge`/`remove_edge` (joins append a node). Returns the final graph
/// and the number of edits.
pub fn replay_graph(initial: &Graph, events: &[RoundEvent]) -> Result<(Graph, usize), String> {
    let mut g = initial.clone();
    let mut edits = 0usize;
    for ev in events {
        match *ev {
            RoundEvent::Edge { edge, added, .. } => {
                edits += 1;
                let r = if added {
                    g.add_edge(edge.a, edge.b)
                } else {
                    g.remove_edge(edge.a, edge.b)
                };
                r.map_err(|e| e.to_string())?;
            }
            RoundEvent::NodeJoined(_) => {
                g.add_node();
            }
            _ => {}
        }
    }
    Ok((g, edits))
}

/// Span names of one network replay.
pub struct Names {
    pub stage: &'static str,
    pub commit: &'static str,
    pub idle: &'static str,
}

pub const PLAIN: Names = Names {
    stage: "sim.stage_jump_wave",
    commit: "sim.commit_round",
    idle: "sim.advance_idle_rounds",
};

pub const ARMED: Names = Names {
    stage: "dst.stage_jump_wave",
    commit: "dst.commit_round",
    idle: "dst.advance_idle_rounds",
};

/// Replays a prepared stream on `net`: per round one `stage_jump_wave`
/// and one `commit_round`, idle stretches through `advance_idle_rounds`,
/// each inside its own span.
pub fn replay_network(
    net: &mut Network,
    stream: &Prepared,
    tr: &mut Tracer,
    unit: usize,
    names: &Names,
) -> Result<(), String> {
    for r in &stream.rounds {
        if r.idle_before > 0 {
            tr.span(names.idle, unit, || net.advance_idle_rounds(r.idle_before));
        }
        tr.span(names.stage, unit, || {
            net.stage_jump_wave(&r.acts, &r.deacts)
        })
        .map_err(|e| e.to_string())?;
        tr.span(names.commit, unit, || net.commit_round());
    }
    if stream.idle_tail > 0 {
        tr.span(names.idle, unit, || {
            net.advance_idle_rounds(stream.idle_tail)
        });
    }
    Ok(())
}

/// What the layer replays of one unit found.
#[derive(Debug, Clone, Default)]
pub struct Replayed {
    pub edits: usize,
    pub events: usize,
    pub rounds_committed: usize,
    pub rounds_idle: usize,
    pub activations: usize,
    pub rounds_checked: usize,
    pub violations: usize,
}

/// Runs the three layer replays of one unit's stream and checks each
/// against the original outcome: the bare-graph replay must end on the
/// final graph, and both network replays must reproduce the final graph
/// and the `EdgeMetrics` (but for per-node attribution).
pub fn replay_unit(
    tr: &mut Tracer,
    unit: usize,
    initial: &Graph,
    events: &[RoundEvent],
    outcome: &TransformationOutcome,
    spec: &AlgorithmSpec,
    uids: &UidMap,
) -> Result<Replayed, String> {
    let mut rep = Replayed {
        events: events.len(),
        ..Replayed::default()
    };
    tr.open("graph.edit_replay", unit);
    let bare = replay_graph(initial, events);
    tr.close();
    let (g, edits) = bare?;
    if g != outcome.final_graph {
        return Err("bare-graph replay does not end on the final graph".to_string());
    }
    rep.edits = edits;

    let stream = prepare(initial, events)?;
    rep.rounds_committed = stream.rounds.len();
    rep.rounds_idle = stream.rounds.iter().map(|r| r.idle_before).sum::<usize>() + stream.idle_tail;
    rep.activations = stream.activations;

    let mut net = Network::new(initial.clone());
    tr.open("sim.replay", unit);
    let plain = replay_network(&mut net, &stream, tr, unit, &PLAIN);
    tr.close();
    plain?;
    if *net.graph() != outcome.final_graph {
        return Err("network replay does not end on the final graph".to_string());
    }
    metrics_match(&outcome.metrics, net.metrics())?;
    drop(net);

    let mut armed = Network::new(initial.clone());
    let dst = DstConfig {
        scenario: Scenario::failure_free(),
        // The failure-free scenario never draws from its adversary.
        seed: 0,
    };
    tr.open("dst.replay", unit);
    tr.span("dst.arm", unit, || {
        arm_network_for_dst(&mut armed, spec, uids, &dst)
    });
    let replayed = replay_network(&mut armed, &stream, tr, unit, &ARMED);
    tr.close();
    replayed?;
    if *armed.graph() != outcome.final_graph {
        return Err("armed replay does not end on the final graph".to_string());
    }
    metrics_match(&outcome.metrics, armed.metrics())?;
    let report = armed
        .take_dst_report()
        .ok_or_else(|| "armed replay lost its DST report".to_string())?;
    rep.rounds_checked = report.rounds_checked;
    rep.violations = report.violations.len();
    if !report.faults.is_empty() {
        return Err("the failure-free replay injected faults".to_string());
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_core::algorithm::{GraphToStar, ReconfigurationAlgorithm};
    use adn_core::RunConfig;
    use adn_graph::{generators, UidAssignment};

    fn recorded_star(n: usize) -> (Graph, UidMap, TransformationOutcome, Vec<RoundEvent>) {
        let g = generators::line(n);
        let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed: 5 });
        let mut net = Network::new(g.clone());
        net.set_event_recording(true);
        let out = GraphToStar
            .execute(&mut net, &uids, &RunConfig::default())
            .unwrap();
        let events = net.take_events();
        (g, uids, out, events)
    }

    #[test]
    fn replays_reproduce_the_star_run() {
        let (g, uids, out, events) = recorded_star(64);
        let mut tr = Tracer::on();
        let rep = replay_unit(&mut tr, 0, &g, &events, &out, &GraphToStar.spec(), &uids).unwrap();
        assert_eq!(rep.activations, out.metrics.total_activations);
        assert_eq!(rep.violations, 0);
        assert!(rep.rounds_checked > 0);
        assert!(tr.total_s("sim.commit_round") > 0.0);
    }

    #[test]
    fn a_replay_missing_a_round_is_caught() {
        let (g, uids, out, mut events) = recorded_star(64);
        // Drop the last committed round: its edits and its boundary.
        let last = events
            .iter()
            .rposition(|e| matches!(e, RoundEvent::RoundCommitted { .. }))
            .unwrap();
        let start = events[..last]
            .iter()
            .rposition(|e| matches!(e, RoundEvent::RoundCommitted { .. }))
            .map_or(0, |i| i + 1);
        events.drain(start..=last);
        let mut tr = Tracer::off();
        let err =
            replay_unit(&mut tr, 0, &g, &events, &out, &GraphToStar.spec(), &uids).unwrap_err();
        assert!(
            err.contains("final graph") || err.contains("metrics"),
            "{err}"
        );
    }
}
