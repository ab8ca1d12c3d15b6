//! An undirected simple graph with triangle/triad counting.

/// An undirected graph on nodes `0..n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Undirected {
    n: usize,
    adj: Vec<Vec<usize>>,
}

impl Undirected {
    /// Creates an empty graph with `n` nodes.
    pub fn new(n: usize) -> Undirected {
        Undirected {
            n,
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(|v| v.len()).sum::<usize>() / 2
    }

    /// Adds edge `a — b` if absent; self-loops rejected.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, a: usize, b: usize) -> bool {
        assert!(a < self.n && b < self.n, "node index out of range");
        if a == b || self.adj[a].contains(&b) {
            return false;
        }
        self.adj[a].push(b);
        self.adj[b].push(a);
        true
    }

    /// True if `a — b` exists.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        a < self.n && self.adj[a].contains(&b)
    }

    /// Degree of `node`.
    pub fn degree(&self, node: usize) -> usize {
        self.adj[node].len()
    }

    /// Undirected density `|E| / (n(n-1)/2)`.
    pub fn density(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        self.edge_count() as f64 / (self.n * (self.n - 1) / 2) as f64
    }

    /// BFS distances from `source`; `None` when unreachable.
    pub fn bfs_distances(&self, source: usize) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.n];
        let mut queue = std::collections::VecDeque::new();
        dist[source] = Some(0);
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            let du = dist[u].expect("queued nodes have distances");
            for &v in &self.adj[u] {
                if dist[v].is_none() {
                    dist[v] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Number of triangles (3-cliques), each counted once as
    /// `a < b < c`.
    ///
    /// `a`'s neighbours are stamped into a mark array, so "is `a — c`
    /// an edge" is one load instead of a scan of `a`'s row:
    /// O(Σ deg²) where probing with [`has_edge`](Self::has_edge) was
    /// O(Σ deg² · deg) — the aggregate graph of a long contact trace
    /// is near-complete, which made that 10⁸ compares at 200 nodes.
    pub fn triangle_count(&self) -> usize {
        let mut count = 0;
        // `marked[c] == a + 1` while `a`'s row is the stamped one (0 is
        // "never"), so the array is cleared by moving on.
        let mut marked = vec![0usize; self.n];
        for a in 0..self.n {
            for &c in &self.adj[a] {
                marked[c] = a + 1;
            }
            for &b in &self.adj[a] {
                if b <= a {
                    continue;
                }
                count += self.adj[b]
                    .iter()
                    .filter(|&&c| c > b && marked[c] == a + 1)
                    .count();
            }
        }
        count
    }

    /// Number of connected triads (paths of length 2), i.e.
    /// `Σ_v C(deg(v), 2)`.
    pub fn triad_count(&self) -> usize {
        self.adj
            .iter()
            .map(|nbrs| {
                let d = nbrs.len();
                d * d.saturating_sub(1) / 2
            })
            .sum()
    }

    /// Network transitivity `3 · triangles / triads` (paper §VI-A), the
    /// extent to which a friend of a friend is also a friend.
    ///
    /// Returns 0 when the graph has no connected triads.
    pub fn transitivity(&self) -> f64 {
        let triads = self.triad_count();
        if triads == 0 {
            return 0.0;
        }
        3.0 * self.triangle_count() as f64 / triads as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Undirected {
        let mut g = Undirected::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        g
    }

    #[test]
    fn triangle_metrics() {
        let g = triangle();
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.triangle_count(), 1);
        assert_eq!(g.triad_count(), 3);
        assert!((g.transitivity() - 1.0).abs() < 1e-12);
        assert!((g.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn path_has_zero_transitivity() {
        let mut g = Undirected::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert_eq!(g.triangle_count(), 0);
        assert_eq!(g.triad_count(), 1);
        assert_eq!(g.transitivity(), 0.0);
    }

    #[test]
    fn star_graph_triads() {
        // K_{1,4}: center has degree 4 → C(4,2) = 6 triads, no triangles.
        let mut g = Undirected::new(5);
        for leaf in 1..5 {
            g.add_edge(0, leaf);
        }
        assert_eq!(g.triad_count(), 6);
        assert_eq!(g.transitivity(), 0.0);
    }

    #[test]
    fn complete_graph_k5() {
        let mut g = Undirected::new(5);
        for i in 0..5 {
            for j in i + 1..5 {
                g.add_edge(i, j);
            }
        }
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.triangle_count(), 10); // C(5,3)
        assert!((g.transitivity() - 1.0).abs() < 1e-12);
    }

    /// The definition, with no adjacency lists involved.
    fn brute_force_triangles(n: usize, edge: &[Vec<bool>]) -> usize {
        let mut count = 0;
        for a in 0..n {
            for b in a + 1..n {
                for c in b + 1..n {
                    if edge[a][b] && edge[b][c] && edge[a][c] {
                        count += 1;
                    }
                }
            }
        }
        count
    }

    #[test]
    fn triangle_count_matches_a_brute_force_triple_loop_on_random_graphs() {
        // xorshift64*: seeded, and this crate has no `rand` dependency.
        let mut state = 0x2017_0605_u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11
        };
        for density in [0.05, 0.5, 1.0] {
            for n in [1usize, 2, 3, 17, 60] {
                let mut g = Undirected::new(n);
                let mut edge = vec![vec![false; n]; n];
                // Rows filled from the far end, so adjacency lists are
                // not in ascending order.
                for a in (0..n).rev() {
                    for b in (0..a).rev() {
                        if (next() as f64) < density * (1u64 << 53) as f64 {
                            g.add_edge(a, b);
                            edge[a][b] = true;
                            edge[b][a] = true;
                        }
                    }
                }
                assert_eq!(
                    g.triangle_count(),
                    brute_force_triangles(n, &edge),
                    "n = {n}, density {density}"
                );
            }
        }
    }

    #[test]
    fn triangle_count_of_k200_and_of_a_star() {
        let n = 200;
        let mut complete = Undirected::new(n);
        let mut star = Undirected::new(n);
        for i in 0..n {
            for j in i + 1..n {
                complete.add_edge(i, j);
            }
            star.add_edge(0, i);
        }
        assert_eq!(complete.triangle_count(), n * (n - 1) * (n - 2) / 6); // C(200, 3)
        assert!((complete.transitivity() - 1.0).abs() < 1e-12);
        assert_eq!(star.edge_count(), n - 1);
        assert_eq!(star.triangle_count(), 0);
        assert_eq!(Undirected::new(0).triangle_count(), 0);
    }

    #[test]
    fn bfs_on_disconnected() {
        let mut g = Undirected::new(4);
        g.add_edge(0, 1);
        let d = g.bfs_distances(0);
        assert_eq!(d, vec![Some(0), Some(1), None, None]);
    }
}
