//! The cell grid: an N-dimensional parameter sweep flattened into one
//! global trial index space.
//!
//! Cells are laid out consecutively: cell 0 owns global trials
//! `[0, trials_0)`, cell 1 owns `[trials_0, trials_0 + trials_1)`, and so
//! on. The flattening is what removes the per-cell barrier — the executor
//! sees one long stream of `total()` trials and never waits for a cell to
//! drain before starting the next — while [`CellGrid::locate`] maps any
//! global index back to `(cell, trial-within-cell)` so per-trial seeds stay
//! a pure function of the cell's master seed and the trial's index *within
//! its cell*, independent of how the grid is chunked or scheduled.

/// Immutable geometry of a flattened sweep: per-cell trial counts plus
/// cumulative offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellGrid {
    /// `offsets[c]` is the global index of cell `c`'s first trial;
    /// `offsets[cells]` is the total trial count.
    offsets: Vec<u64>,
}

impl CellGrid {
    /// Builds the grid from per-cell trial counts. Zero-trial cells are
    /// legal (they simply occupy no stream space).
    pub fn new(trials_per_cell: &[u64]) -> Self {
        let mut offsets = Vec::with_capacity(trials_per_cell.len() + 1);
        let mut acc = 0u64;
        offsets.push(0);
        for &t in trials_per_cell {
            acc = acc.checked_add(t).expect("campaign grid overflows u64 trials");
            offsets.push(acc);
        }
        Self { offsets }
    }

    /// Number of cells.
    pub fn cells(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total trials across all cells — the length of the global stream.
    pub fn total(&self) -> u64 {
        *self.offsets.last().expect("grid offsets non-empty")
    }

    /// Trials owned by cell `cell`.
    pub fn cell_trials(&self, cell: usize) -> u64 {
        self.offsets[cell + 1] - self.offsets[cell]
    }

    /// Maps a global trial index to `(cell, trial_within_cell)`.
    ///
    /// # Panics
    ///
    /// Panics if `global >= total()`.
    pub fn locate(&self, global: u64) -> (usize, u64) {
        assert!(global < self.total(), "global trial {global} out of range");
        // partition_point returns the first offset > global; its predecessor
        // is the owning cell. Zero-trial cells have equal adjacent offsets
        // and are correctly skipped.
        let cell = self.offsets.partition_point(|&o| o <= global) - 1;
        (cell, global - self.offsets[cell])
    }

    /// Number of fixed-size chunks of `chunk` trials covering the stream
    /// (the last chunk may be short).
    pub fn chunk_count(&self, chunk: u64) -> u64 {
        assert!(chunk > 0, "chunk size must be positive");
        self.total().div_ceil(chunk)
    }

    /// The global `[start, end)` range of chunk `index`.
    pub fn chunk_range(&self, chunk: u64, index: u64) -> (u64, u64) {
        assert!(index < self.chunk_count(chunk), "chunk {index} out of range");
        let start = index * chunk;
        (start, (start + chunk).min(self.total()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_round_trips_every_global_index() {
        let grid = CellGrid::new(&[3, 0, 5, 1]);
        assert_eq!(grid.total(), 9);
        assert_eq!(grid.cells(), 4);
        let mut expect = vec![];
        for (cell, &n) in [3u64, 0, 5, 1].iter().enumerate() {
            for t in 0..n {
                expect.push((cell, t));
            }
        }
        let got: Vec<_> = (0..grid.total()).map(|g| grid.locate(g)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn chunks_tile_the_stream_exactly() {
        let grid = CellGrid::new(&[4, 4, 3]);
        let chunk = 4;
        assert_eq!(grid.chunk_count(chunk), 3);
        let ranges: Vec<_> =
            (0..grid.chunk_count(chunk)).map(|k| grid.chunk_range(chunk, k)).collect();
        assert_eq!(ranges, vec![(0, 4), (4, 8), (8, 11)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn locate_rejects_out_of_range() {
        CellGrid::new(&[2]).locate(2);
    }
}
