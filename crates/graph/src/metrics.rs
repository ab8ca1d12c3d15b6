//! Whole-graph metrics as reported in §VI-A of the paper.

use crate::digraph::Digraph;
use crate::undirected::Undirected;

/// Distance-based metrics of an undirected graph.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphMetrics {
    /// Average shortest path length over all unordered reachable pairs:
    /// `Σ_{i≥j} l(i,j) / (n(n−1)/2)`.
    pub average_shortest_path: f64,
    /// Diameter: the maximum shortest path length between any two nodes.
    pub diameter: usize,
    /// Radius: the minimum eccentricity over all nodes.
    pub radius: usize,
    /// Eccentricity of each node (max distance to any other node).
    pub eccentricity: Vec<usize>,
    /// Nodes whose eccentricity equals the radius ("center nodes").
    pub center: Vec<usize>,
    /// True if every node can reach every other node.
    pub connected: bool,
}

impl GraphMetrics {
    /// Computes distance metrics with all-pairs BFS.
    ///
    /// Unreachable pairs are skipped in the average; `connected` reports
    /// whether any were skipped. For an empty or single-node graph all
    /// metrics are zero.
    pub fn compute(g: &Undirected) -> GraphMetrics {
        let n = g.node_count();
        if n < 2 {
            return GraphMetrics {
                average_shortest_path: 0.0,
                diameter: 0,
                radius: 0,
                eccentricity: vec![0; n],
                center: (0..n).collect(),
                connected: true,
            };
        }
        let mut total = 0usize;
        let mut pairs = 0usize;
        let mut ecc = vec![0usize; n];
        let mut connected = true;
        #[allow(clippy::needless_range_loop)] // i names the BFS source node
        for i in 0..n {
            let dist = g.bfs_distances(i);
            for j in 0..n {
                if i == j {
                    continue;
                }
                match dist[j] {
                    Some(d) => {
                        ecc[i] = ecc[i].max(d);
                        if i < j {
                            total += d;
                            pairs += 1;
                        }
                    }
                    None => connected = false,
                }
            }
        }
        let diameter = ecc.iter().copied().max().unwrap_or(0);
        let radius = ecc.iter().copied().min().unwrap_or(0);
        let center = (0..n).filter(|&v| ecc[v] == radius).collect();
        GraphMetrics {
            average_shortest_path: if pairs == 0 {
                0.0
            } else {
                total as f64 / pairs as f64
            },
            diameter,
            radius,
            eccentricity: ecc,
            center,
            connected,
        }
    }
}

/// The complete set of social-graph statistics the paper publishes for
/// Fig. 4a, computed from a follow digraph.
#[derive(Clone, Debug, PartialEq)]
pub struct SocialGraphReport {
    /// Number of participating users (n = 10 in the field study).
    pub nodes: usize,
    /// Directed follow edges ("total subscriptions", 46 in the study).
    pub subscriptions: usize,
    /// Mutually-following pairs.
    pub reciprocal_pairs: usize,
    /// Density of the undirected social-relationship graph (0.64).
    pub density: f64,
    /// Average shortest path length of the undirected projection (1.3).
    pub average_shortest_path: f64,
    /// Diameter of the undirected projection (2).
    pub diameter: usize,
    /// Radius (1) — eccentricity of the center nodes.
    pub radius: usize,
    /// Center node indices (6 and 7 in the paper's numbering).
    pub center: Vec<usize>,
    /// Transitivity of the undirected projection (0.80).
    pub transitivity: f64,
}

impl SocialGraphReport {
    /// Computes every Fig. 4a statistic from a follow digraph.
    pub fn compute(g: &Digraph) -> SocialGraphReport {
        let und = g.to_undirected();
        let m = GraphMetrics::compute(&und);
        SocialGraphReport {
            nodes: g.node_count(),
            subscriptions: g.edge_count(),
            reciprocal_pairs: g.reciprocal_pairs(),
            density: und.density(),
            average_shortest_path: m.average_shortest_path,
            diameter: m.diameter,
            radius: m.radius,
            center: m.center,
            transitivity: und.transitivity(),
        }
    }
}

impl std::fmt::Display for SocialGraphReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "nodes                    n = {}", self.nodes)?;
        writeln!(f, "subscriptions (directed)   = {}", self.subscriptions)?;
        writeln!(f, "reciprocal pairs           = {}", self.reciprocal_pairs)?;
        writeln!(f, "density (undirected)       = {:.3}", self.density)?;
        writeln!(
            f,
            "avg shortest path          = {:.2}",
            self.average_shortest_path
        )?;
        writeln!(f, "diameter                   = {}", self.diameter)?;
        writeln!(f, "radius                     = {}", self.radius)?;
        writeln!(f, "center nodes               = {:?}", self.center)?;
        write!(f, "transitivity               = {:.3}", self.transitivity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 5-node "hub" graph: node 0 adjacent to everyone.
    fn hub() -> Undirected {
        let mut g = Undirected::new(5);
        for leaf in 1..5 {
            g.add_edge(0, leaf);
        }
        g
    }

    #[test]
    fn hub_metrics() {
        let m = GraphMetrics::compute(&hub());
        assert_eq!(m.diameter, 2);
        assert_eq!(m.radius, 1);
        assert_eq!(m.center, vec![0]);
        assert!(m.connected);
        // 4 pairs at distance 1, 6 pairs at distance 2 → 16/10 = 1.6
        assert!((m.average_shortest_path - 1.6).abs() < 1e-12);
    }

    #[test]
    fn disconnected_flagged() {
        let mut g = Undirected::new(3);
        g.add_edge(0, 1);
        let m = GraphMetrics::compute(&g);
        assert!(!m.connected);
    }

    #[test]
    fn trivial_graphs() {
        let m = GraphMetrics::compute(&Undirected::new(0));
        assert_eq!(m.diameter, 0);
        let m = GraphMetrics::compute(&Undirected::new(1));
        assert_eq!(m.center, vec![0]);
    }

    #[test]
    fn social_report_on_reciprocal_triangle() {
        let mut g = Digraph::new(3);
        for (a, b) in [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)] {
            g.add_edge(a, b);
        }
        let r = SocialGraphReport::compute(&g);
        assert_eq!(r.subscriptions, 6);
        assert_eq!(r.reciprocal_pairs, 3);
        assert!((r.density - 1.0).abs() < 1e-12);
        assert_eq!(r.diameter, 1);
        assert!((r.transitivity - 1.0).abs() < 1e-12);
    }
}
