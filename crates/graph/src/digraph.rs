//! A compact directed graph over dense node indices.

use crate::undirected::Undirected;

/// A directed graph on nodes `0..n`, stored as adjacency lists.
///
/// In the social-network interpretation, an edge `i → j` means
/// "user *i* follows user *j*" (paper §VI-A), i.e. *i* subscribes to *j*'s
/// messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Digraph {
    n: usize,
    out: Vec<Vec<usize>>,
    into: Vec<Vec<usize>>,
}

impl Digraph {
    /// Creates an empty digraph with `n` nodes and no edges.
    pub fn new(n: usize) -> Digraph {
        Digraph {
            n,
            out: vec![Vec::new(); n],
            into: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.out.iter().map(|v| v.len()).sum()
    }

    /// Adds the edge `from → to` if not already present.
    ///
    /// Returns whether the edge was inserted. Self-loops are rejected
    /// (a user cannot follow themselves in AlleyOop Social).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, from: usize, to: usize) -> bool {
        assert!(from < self.n && to < self.n, "node index out of range");
        if from == to || self.out[from].contains(&to) {
            return false;
        }
        self.out[from].push(to);
        self.into[to].push(from);
        true
    }

    /// True if the edge `from → to` exists.
    pub fn has_edge(&self, from: usize, to: usize) -> bool {
        from < self.n && self.out[from].contains(&to)
    }

    /// Out-neighbours of `node` (whom `node` follows).
    pub fn successors(&self, node: usize) -> &[usize] {
        &self.out[node]
    }

    /// In-neighbours of `node` (who follows `node`).
    pub fn predecessors(&self, node: usize) -> &[usize] {
        &self.into[node]
    }

    /// Out-degree of `node`.
    pub fn out_degree(&self, node: usize) -> usize {
        self.out[node].len()
    }

    /// In-degree of `node`.
    pub fn in_degree(&self, node: usize) -> usize {
        self.into[node].len()
    }

    /// All edges as `(from, to)` pairs.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut e = Vec::with_capacity(self.edge_count());
        for (from, outs) in self.out.iter().enumerate() {
            for &to in outs {
                e.push((from, to));
            }
        }
        e
    }

    /// Directed density `|E| / (n (n-1))`.
    pub fn density(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        self.edge_count() as f64 / (self.n * (self.n - 1)) as f64
    }

    /// Number of mutually-following pairs (i→j and j→i both present).
    pub fn reciprocal_pairs(&self) -> usize {
        let mut count = 0;
        for (from, outs) in self.out.iter().enumerate() {
            for &to in outs {
                if from < to && self.has_edge(to, from) {
                    count += 1;
                }
            }
        }
        count
    }

    /// Projects to an undirected graph: `i — j` exists if either
    /// direction exists (paper §VI-A: "if a two-way relationship did not
    /// already exist, it will exist in the undirectional graph").
    pub fn to_undirected(&self) -> Undirected {
        let mut und = Undirected::new(self.n);
        for (from, outs) in self.out.iter().enumerate() {
            for &to in outs {
                und.add_edge(from, to);
            }
        }
        und
    }

    /// BFS shortest-path lengths from `source` over directed edges;
    /// `None` for unreachable nodes.
    pub fn bfs_distances(&self, source: usize) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.n];
        let mut queue = std::collections::VecDeque::new();
        dist[source] = Some(0);
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            let du = dist[u].expect("queued nodes have distances");
            for &v in &self.out[u] {
                if dist[v].is_none() {
                    dist[v] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query() {
        let mut g = Digraph::new(4);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(0, 1), "duplicate rejected");
        assert!(!g.add_edge(2, 2), "self-loop rejected");
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.out_degree(0), 1);
        assert_eq!(g.in_degree(1), 1);
    }

    #[test]
    fn density_of_complete_digraph() {
        let mut g = Digraph::new(5);
        for i in 0..5 {
            for j in 0..5 {
                if i != j {
                    g.add_edge(i, j);
                }
            }
        }
        assert!((g.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reciprocity() {
        let mut g = Digraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(1, 2);
        assert_eq!(g.reciprocal_pairs(), 1);
    }

    #[test]
    fn bfs_paths() {
        let mut g = Digraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        // 3 unreachable
        let d = g.bfs_distances(0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), None]);
    }

    #[test]
    fn undirected_projection_merges_directions() {
        let mut g = Digraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(1, 2);
        let und = g.to_undirected();
        assert_eq!(und.edge_count(), 2);
        assert!(und.has_edge(2, 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut g = Digraph::new(2);
        g.add_edge(0, 5);
    }
}
