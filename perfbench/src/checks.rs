//! Output checks, run outside every timed region. Each failed check is
//! recorded against its unit and feeds the `failed` tally.

use adn_core::{AlgorithmSpec, TransformationOutcome};
use adn_graph::{traversal, Graph, NodeId, UidMap};
use adn_sim::EdgeMetrics;

/// Registry ids of the algorithms whose target network is a spanning tree.
pub const TREE_OUTPUTS: [&str; 3] = ["graph_to_star", "graph_to_wreath", "graph_to_thin_wreath"];

/// Exact diameter of a tree by double BFS: the farthest node from any
/// start is an endpoint of a longest path. O(n) instead of the all-pairs
/// O(n·m) scan. `None` when the graph is disconnected.
pub fn tree_diameter(tree: &Graph) -> Option<usize> {
    if tree.node_count() == 0 {
        return Some(0);
    }
    let (far, _) = farthest(tree, NodeId(0))?;
    farthest(tree, far).map(|(_, d)| d)
}

fn farthest(graph: &Graph, source: NodeId) -> Option<(NodeId, usize)> {
    let dist = traversal::bfs_distances(graph, source);
    let mut best = (source, 0usize);
    for (i, d) in dist.iter().enumerate() {
        let d = (*d)?;
        if d > best.1 {
            best = (NodeId(i), d);
        }
    }
    Some(best)
}

/// Checks one transformation outcome against its algorithm's spec: the
/// final network is connected and within the degree bound, the leader is
/// the maximum-UID node (distributed algorithms), and tree outputs are
/// trees within the diameter bound. Returns every violated check.
pub fn check_transform(
    spec: &AlgorithmSpec,
    uids: &UidMap,
    outcome: &TransformationOutcome,
) -> Vec<String> {
    let mut bad = Vec::new();
    let g = &outcome.final_graph;
    let n = g.node_count();
    if !traversal::is_connected(g) {
        bad.push("final network is disconnected".to_string());
    }
    let bound = (spec.max_degree_bound)(n);
    if g.max_degree() > bound {
        bad.push(format!(
            "max degree {} exceeds bound {bound}",
            g.max_degree()
        ));
    }
    if spec.elects_max_uid_leader && Some(outcome.leader) != uids.max_uid_node() {
        bad.push(format!(
            "leader {:?} is not the max-UID node",
            outcome.leader
        ));
    }
    if TREE_OUTPUTS.contains(&spec.id) {
        if g.edge_count() + 1 != n {
            bad.push(format!(
                "tree output has {} edges for {n} nodes",
                g.edge_count()
            ));
        } else {
            let bound = (spec.diameter_bound)(n);
            match tree_diameter(g) {
                Some(d) if d <= bound => {}
                Some(d) => bad.push(format!("diameter {d} exceeds bound {bound}")),
                None => {}
            }
        }
    }
    if outcome.rounds != outcome.metrics.rounds {
        bad.push(format!(
            "outcome rounds {} differ from metered rounds {}",
            outcome.rounds, outcome.metrics.rounds
        ));
    }
    bad
}

/// Compares replayed metrics with the original run's. The one field the
/// recorded edge stream cannot reproduce is
/// `max_node_activations_in_round` (the stream carries no initiators), so
/// it is excluded; any other difference is a failure.
pub fn metrics_match(original: &EdgeMetrics, replayed: &EdgeMetrics) -> Result<(), String> {
    let mut a = original.clone();
    let mut b = replayed.clone();
    a.max_node_activations_in_round = 0;
    b.max_node_activations_in_round = 0;
    if a == b {
        return Ok(());
    }
    Err(format!(
        "replayed metrics differ: rounds {}/{} activations {}/{} deactivations {}/{} \
         max_activated_edges {}/{} max_activated_degree {}/{} max_total_degree {}/{} \
         per-round records {}/{}",
        a.rounds,
        b.rounds,
        a.total_activations,
        b.total_activations,
        a.total_deactivations,
        b.total_deactivations,
        a.max_activated_edges,
        b.max_activated_edges,
        a.max_activated_degree,
        b.max_activated_degree,
        a.max_total_degree,
        b.max_total_degree,
        a.activations_per_round.len(),
        b.activations_per_round.len(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_core::algorithm::{GraphToStar, ReconfigurationAlgorithm};
    use adn_core::RunConfig;
    use adn_graph::{generators, Edge, UidAssignment};

    #[test]
    fn double_bfs_matches_all_pairs_on_trees() {
        for seed in 0..20 {
            let t = generators::random_tree(60, seed);
            assert_eq!(tree_diameter(&t), traversal::diameter(&t));
        }
        assert_eq!(tree_diameter(&generators::line(9)), Some(8));
    }

    #[test]
    fn a_correct_star_passes_and_a_tampered_one_fails() {
        let g = generators::line(40);
        let uids = UidMap::new(40, UidAssignment::RandomPermutation { seed: 3 });
        let mut out = GraphToStar.run(&g, &uids, &RunConfig::default()).unwrap();
        let spec = GraphToStar.spec();
        assert!(check_transform(&spec, &uids, &out).is_empty());
        // Drop one edge of the final star: the network disconnects and is
        // no longer a spanning tree.
        let e: Edge = out.final_graph.edges().next().unwrap();
        out.final_graph.remove_edge(e.a, e.b).unwrap();
        let bad = check_transform(&spec, &uids, &out);
        assert!(bad.iter().any(|b| b.contains("disconnected")), "{bad:?}");
        // A wrong leader trips the leader check.
        let mut out2 = GraphToStar.run(&g, &uids, &RunConfig::default()).unwrap();
        out2.leader = uids.min_uid_node().unwrap();
        assert!(check_transform(&spec, &uids, &out2)
            .iter()
            .any(|b| b.contains("leader")));
    }

    #[test]
    fn metrics_match_ignores_only_node_attribution() {
        let mut a = EdgeMetrics::new();
        a.rounds = 3;
        let mut b = a.clone();
        b.max_node_activations_in_round = 9;
        assert!(metrics_match(&a, &b).is_ok());
        b.rounds = 4;
        assert!(metrics_match(&a, &b).is_err());
    }
}
