//! The clique-formation baseline (Section 1.2).
//!
//! In every round, every node activates an edge with each of its potential
//! neighbours (nodes at distance 2). Since the neighbourhood at least
//! doubles every round, a spanning clique `K_n` is formed in `O(log n)`
//! rounds; from the clique, any global computation or any target network
//! is one round away. The point of the paper is that this straw-man is
//! *edge-inefficient*: `Θ(n²)` total activations, `Θ(n²)` concurrently
//! active edges and degree `Θ(n)` — which is exactly what the experiments
//! driven by this module demonstrate.

use crate::algorithm::RunConfig;
use crate::{CoreError, TransformationOutcome};
use adn_graph::{Graph, NodeId, UidMap};
use adn_sim::engine::{run_programs, EngineConfig, NodeDecision, NodeProgram, NodeView};
use adn_sim::Network;

/// Node program: activate edges to all potential neighbours each round;
/// terminate when no potential neighbours remain (the clique is complete
/// from this node's perspective).
struct CliqueNode {
    done: bool,
}

impl NodeProgram for CliqueNode {
    type Message = ();

    fn send(&mut self, _view: &NodeView) -> Vec<(NodeId, ())> {
        Vec::new()
    }

    fn step(&mut self, view: &NodeView, _inbox: &[(NodeId, ())]) -> NodeDecision {
        if view.potential_neighbors.is_empty() {
            self.done = true;
            return NodeDecision::none();
        }
        NodeDecision {
            activate: view.potential_neighbors.clone(),
            deactivate: Vec::new(),
        }
    }

    fn has_terminated(&self) -> bool {
        self.done
    }
}

/// Executes clique formation on `network` (trait entry point; see
/// [`crate::algorithm::CliqueFormation`]).
pub(crate) fn execute(
    network: &mut Network,
    uids: &UidMap,
    config: &RunConfig,
) -> Result<TransformationOutcome, CoreError> {
    config.require_sync_engine("CliqueFormation")?;
    if !adn_graph::traversal::is_connected(network.graph()) {
        return Err(CoreError::InvalidInput {
            reason: "clique formation requires a connected initial network".into(),
        });
    }
    let n = network.node_count();
    if uids.len() != n {
        return Err(CoreError::InvalidInput {
            reason: "one UID per node is required".into(),
        });
    }
    network.set_trace_enabled(config.trace.is_per_round());
    let mut programs: Vec<CliqueNode> = (0..n).map(|_| CliqueNode { done: false }).collect();
    let engine = EngineConfig {
        max_rounds: config
            .engine_round_cap(network, 4 * adn_graph::properties::ceil_log2(n.max(2)) + 16),
        record_trace: config.trace.is_per_round(),
    };
    run_programs(network, &mut programs, uids, &engine)?;
    config.check_round_budget(network)?;
    let leader = uids.max_uid_node().ok_or_else(|| CoreError::InvalidInput {
        reason: "empty network".into(),
    })?;
    Ok(TransformationOutcome::from_network(leader, network))
}

/// Runs clique formation and then, in one additional round, prunes the
/// clique down to `target` (any graph over the same vertex set), exactly
/// as Section 1.2 describes ("transforming into any desired target network
/// `G_f` through eliminating the edges in `E(K_n) \ E(G_f)`").
///
/// # Errors
///
/// Returns an error if the initial graph is disconnected (the clique can
/// then never span the network), if `target` has a different node count,
/// or on simulator round-limit violations.
pub fn run_clique_then_prune(
    initial: &Graph,
    uids: &UidMap,
    target: &Graph,
) -> Result<TransformationOutcome, CoreError> {
    if target.node_count() != initial.node_count() {
        return Err(CoreError::InvalidInput {
            reason: "target must have the same vertex set as the initial network".into(),
        });
    }
    let mut network = Network::new(initial.clone());
    let mut outcome = execute(&mut network, uids, &RunConfig::traced())?;
    // One more round: drop every edge not in the target.
    let mut network = Network::new(outcome.final_graph.clone());
    for e in outcome.final_graph.edges() {
        if !target.has_edge(e.a, e.b) {
            network.stage_deactivation(e.a, e.b)?;
        }
    }
    // Edges of the target missing from the clique cannot exist (the clique
    // has them all), so activation is never needed here.
    network.commit_round();
    let prune_metrics = network.metrics().clone();
    outcome.metrics.absorb_sequential(&prune_metrics);
    outcome.rounds += prune_metrics.rounds;
    outcome.final_graph = network.graph().clone();
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_graph::properties::ceil_log2;
    use adn_graph::{generators, UidAssignment};

    fn run_clique(initial: &Graph, uids: &UidMap) -> Result<TransformationOutcome, CoreError> {
        let mut network = Network::new(initial.clone());
        execute(&mut network, uids, &RunConfig::traced())
    }

    #[test]
    fn forms_a_clique_in_log_rounds() {
        for &n in &[4usize, 8, 16, 32, 50] {
            let g = generators::line(n);
            let uids = UidMap::new(n, UidAssignment::Sequential);
            let outcome = run_clique(&g, &uids).unwrap();
            // Final graph is the complete graph.
            assert_eq!(outcome.final_graph.edge_count(), n * (n - 1) / 2, "n={n}");
            // Rounds are logarithmic: the neighbourhood at least doubles.
            assert!(
                outcome.rounds <= ceil_log2(n) + 2,
                "n={n}: rounds {}",
                outcome.rounds
            );
            // Edge complexity is quadratic — the whole point of the paper.
            assert!(outcome.metrics.total_activations >= n * (n - 1) / 2 - g.edge_count());
            assert_eq!(outcome.metrics.max_total_degree, n - 1);
            assert_eq!(outcome.leader, NodeId(n - 1));
        }
    }

    #[test]
    fn works_from_various_families() {
        for family in [
            generators::ring(20),
            generators::random_tree(20, 3),
            generators::grid(4, 5),
        ] {
            let n = family.node_count();
            let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed: 1 });
            let outcome = run_clique(&family, &uids).unwrap();
            assert_eq!(outcome.final_graph.edge_count(), n * (n - 1) / 2);
            assert_eq!(Some(outcome.leader), uids.max_uid_node());
        }
    }

    #[test]
    fn prune_reaches_any_target() {
        let n = 24;
        let g = generators::ring(n);
        let uids = UidMap::new(n, UidAssignment::Sequential);
        let target = generators::star(n);
        let outcome = run_clique_then_prune(&g, &uids, &target).unwrap();
        assert_eq!(outcome.final_graph, target);
        // The pruning round deactivated Θ(n²) edges.
        assert!(outcome.metrics.total_deactivations >= n * (n - 1) / 2 - (n - 1) - n);
    }

    #[test]
    fn rejects_disconnected_inputs_and_mismatched_targets() {
        let mut g = generators::line(6);
        g.remove_edge(NodeId(2), NodeId(3)).unwrap();
        let uids = UidMap::new(6, UidAssignment::Sequential);
        assert!(matches!(
            run_clique(&g, &uids),
            Err(CoreError::InvalidInput { .. })
        ));
        let ok = generators::line(6);
        assert!(matches!(
            run_clique_then_prune(&ok, &uids, &generators::star(5)),
            Err(CoreError::InvalidInput { .. })
        ));
    }

    #[test]
    fn single_node_terminates_immediately() {
        let g = Graph::new(1);
        let uids = UidMap::new(1, UidAssignment::Sequential);
        let outcome = run_clique(&g, &uids).unwrap();
        assert_eq!(outcome.rounds, 1);
        assert_eq!(outcome.metrics.total_activations, 0);
    }
}
