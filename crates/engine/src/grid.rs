//! A uniform-grid spatial hash over node positions.
//!
//! The plane is divided into square cells whose side is the radio
//! range. Any pair of nodes within range therefore lies in the same
//! cell or in horizontally/vertically/diagonally adjacent cells, so a
//! candidate query inspects at most the 3×3 block around a position —
//! O(local density) instead of O(n).
//!
//! Cells are found through a small open-addressing table with a
//! multiplicative hash (coordinates may be negative, sparse and far
//! apart, so no dense array over a bounding box), and every node
//! remembers its slot inside its cell's bucket, so leaving a cell is one
//! `swap_remove` and no scan. A cell keeps its bucket once it has been
//! seen: [`UniformGrid::reset`] empties a grid for the next epoch
//! without giving its allocations back.
//!
//! Bucket order depends on the order of updates and table order on the
//! hash. Neither may reach the contact stream: the tick loop
//! (`crate::tick`) sorts each tick's transitions before it emits them.

use sos_sim::Point;

/// A cell coordinate (floor-divided position).
pub type Cell = (i64, i64);

/// "No bucket" / "not inserted".
const NONE: u32 = u32::MAX;

/// The spatial hash: node indices bucketed by grid cell.
#[derive(Clone, Debug)]
pub struct UniformGrid {
    cell_m: f64,
    /// Open-addressing table (power-of-two length, at most half full):
    /// an index into `cells` / `buckets`, or `NONE`.
    table: Vec<u32>,
    /// The cell each bucket stands for.
    cells: Vec<Cell>,
    /// The nodes in each cell, in no particular order.
    buckets: Vec<Vec<u32>>,
    /// Per node: its bucket and its slot in it (`NONE` until inserted).
    node_at: Vec<(u32, u32)>,
}

impl UniformGrid {
    /// Creates an empty grid for `node_count` nodes with `cell_m`-metre
    /// cells.
    ///
    /// # Panics
    ///
    /// Panics if `cell_m` is not positive and finite.
    pub fn new(node_count: usize, cell_m: f64) -> UniformGrid {
        assert!(
            cell_m > 0.0 && cell_m.is_finite(),
            "cell size must be positive and finite"
        );
        UniformGrid {
            cell_m,
            table: vec![NONE; 64],
            cells: Vec::new(),
            buckets: Vec::new(),
            node_at: vec![(NONE, NONE); node_count],
        }
    }

    /// Removes every node and resizes the grid to `node_count` nodes,
    /// keeping the cells seen so far and every allocation.
    pub fn reset(&mut self, node_count: usize) {
        self.buckets.iter_mut().for_each(Vec::clear);
        self.node_at.clear();
        self.node_at.resize(node_count, (NONE, NONE));
    }

    /// The cell containing `p`.
    pub fn cell_of(&self, p: Point) -> Cell {
        (
            (p.x / self.cell_m).floor() as i64,
            (p.y / self.cell_m).floor() as i64,
        )
    }

    /// Where `cell` is, or would go, in a table of `mask + 1` entries.
    fn probe(&self, cell: Cell, mask: usize) -> usize {
        let h = (cell.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (cell.1 as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        let mut at = (h >> 32) as usize & mask;
        while self.table[at] != NONE && self.cells[self.table[at] as usize] != cell {
            at = (at + 1) & mask;
        }
        at
    }

    /// The bucket of `cell`, created (and the table doubled when half
    /// full) on first sight.
    fn bucket_of(&mut self, cell: Cell) -> u32 {
        let at = self.probe(cell, self.table.len() - 1);
        if self.table[at] != NONE {
            return self.table[at];
        }
        let bucket = self.cells.len() as u32;
        self.cells.push(cell);
        self.buckets.push(Vec::new());
        self.table[at] = bucket;
        if self.cells.len() * 2 > self.table.len() {
            let mask = self.table.len() * 2 - 1;
            self.table.clear();
            self.table.resize(mask + 1, NONE);
            for b in 0..self.cells.len() {
                let at = self.probe(self.cells[b], mask);
                self.table[at] = b as u32;
            }
        }
        bucket
    }

    /// Inserts or moves `node` to the cell containing `p`. Returns
    /// `true` if the node changed cell (or was newly inserted).
    pub fn update(&mut self, node: u32, p: Point) -> bool {
        let cell = self.cell_of(p);
        let (old, slot) = self.node_at[node as usize];
        if old != NONE {
            if self.cells[old as usize] == cell {
                return false;
            }
            let bucket = &mut self.buckets[old as usize];
            bucket.swap_remove(slot as usize);
            if let Some(&shifted) = bucket.get(slot as usize) {
                self.node_at[shifted as usize].1 = slot;
            }
        }
        let new = self.bucket_of(cell);
        let bucket = &mut self.buckets[new as usize];
        self.node_at[node as usize] = (new, bucket.len() as u32);
        bucket.push(node);
        true
    }

    /// Appends every node in the 3×3 cell block around `p` to `out`
    /// (including, possibly, nodes exactly at range boundary in
    /// diagonal cells; callers filter by true distance).
    pub fn neighbors_into(&self, p: Point, out: &mut Vec<u32>) {
        let (cx, cy) = self.cell_of(p);
        let mask = self.table.len() - 1;
        for dx in -1..=1 {
            for dy in -1..=1 {
                let bucket = self.table[self.probe((cx + dx, cy + dy), mask)];
                if bucket != NONE {
                    out.extend_from_slice(&self.buckets[bucket as usize]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 3×3 block around `p`, ascending.
    fn near(grid: &UniformGrid, p: Point) -> Vec<u32> {
        let mut out = Vec::new();
        grid.neighbors_into(p, &mut out);
        out.sort_unstable();
        out
    }

    #[test]
    fn update_tracks_cell_changes() {
        let mut grid = UniformGrid::new(2, 10.0);
        assert!(grid.update(0, Point::new(5.0, 5.0)));
        // Same cell: no structural change.
        assert!(!grid.update(0, Point::new(9.0, 1.0)));
        // Crosses a cell boundary.
        assert!(grid.update(0, Point::new(11.0, 1.0)));
        // The block around the new cell covers the old one too: the
        // node is in exactly one bucket, and nowhere else.
        assert_eq!(near(&grid, Point::new(11.0, 1.0)), vec![0]);
        assert!(near(&grid, Point::new(31.0, 1.0)).is_empty());
    }

    #[test]
    fn neighbors_cover_adjacent_cells_only() {
        let mut grid = UniformGrid::new(4, 10.0);
        grid.update(0, Point::new(5.0, 5.0)); // cell (0,0)
        grid.update(1, Point::new(15.0, 5.0)); // cell (1,0) — adjacent
        grid.update(2, Point::new(25.0, 5.0)); // cell (2,0) — not adjacent
        grid.update(3, Point::new(-5.0, -5.0)); // cell (-1,-1) — adjacent
        assert_eq!(near(&grid, Point::new(5.0, 5.0)), vec![0, 1, 3]);
    }

    #[test]
    fn negative_coordinates_floor_correctly() {
        let grid = UniformGrid::new(0, 10.0);
        assert_eq!(grid.cell_of(Point::new(-0.5, -10.5)), (-1, -2));
        assert_eq!(grid.cell_of(Point::new(0.0, 0.0)), (0, 0));
    }

    #[test]
    fn in_range_pairs_always_in_adjacent_cells() {
        // The geometric guarantee the kernel relies on: if two points
        // are within `cell_m` of each other, their cells differ by at
        // most 1 in each axis.
        let grid = UniformGrid::new(0, 60.0);
        for i in 0..100 {
            let x = i as f64 * 37.3 - 1800.0;
            let p = Point::new(x, x * 0.7);
            let q = Point::new(x + 59.9, x * 0.7 + 0.1);
            let (ax, ay) = grid.cell_of(p);
            let (bx, by) = grid.cell_of(q);
            assert!((ax - bx).abs() <= 1 && (ay - by).abs() <= 1);
        }
    }

    /// A brute-force model of the grid: every node's cell, by hand.
    fn model_neighbors(cells: &[Option<Cell>], around: Cell) -> Vec<u32> {
        let near = |c: &Cell| (c.0 - around.0).abs() <= 1 && (c.1 - around.1).abs() <= 1;
        (0..cells.len() as u32)
            .filter(|&n| cells[n as usize].as_ref().is_some_and(near))
            .collect()
    }

    #[test]
    fn matches_a_brute_force_model_through_growth_churn_and_reset() {
        // Far-apart, negative and sparse cells (the table grows several
        // times), nodes hopping between crowded cells (slot fix-ups
        // after swap_remove), then a reset and a second population.
        let nodes = 600usize;
        let mut grid = UniformGrid::new(nodes, 10.0);
        let mut model: Vec<Option<Cell>> = vec![None; nodes];
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut draw = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for round in 0..2 {
            for step in 0..6_000 {
                let node = draw(nodes as u64) as usize;
                // Mostly a crowded 6×6 block; sometimes far away.
                let (cx, cy) = if draw(8) == 0 {
                    (draw(2_000_000) as i64 - 1_000_000, -(draw(1 << 40) as i64))
                } else {
                    (draw(6) as i64 - 3, draw(6) as i64 - 3)
                };
                let p = Point::new(cx as f64 * 10.0 + 2.5, cy as f64 * 10.0 + 7.5);
                assert_eq!(grid.cell_of(p), (cx, cy));
                let changed = grid.update(node as u32, p);
                assert_eq!(changed, model[node] != Some((cx, cy)), "step {step}");
                model[node] = Some((cx, cy));
                if step % 97 == 0 {
                    assert_eq!(
                        near(&grid, p),
                        model_neighbors(&model, (cx, cy)),
                        "step {step}"
                    );
                }
            }
            // Every node is in exactly one bucket: the blocks around
            // every third cell of the crowd tile it.
            let crowd: usize = [-2i64, 1]
                .iter()
                .flat_map(|&x| [-2i64, 1].map(|y| Point::new(x as f64 * 10.0, y as f64 * 10.0)))
                .map(|p| near(&grid, p).len())
                .sum();
            let in_crowd = |c: &&Cell| (-3..3).contains(&c.0) && (-3..3).contains(&c.1);
            assert_eq!(crowd, model.iter().flatten().filter(in_crowd).count());
            if round == 0 {
                grid.reset(nodes);
                model.fill(None);
                assert!(near(&grid, Point::new(0.0, 0.0)).is_empty());
            }
        }
    }
}
