//! Mode-major panel storage for batched mesh execution.
//!
//! A [`Panel`] holds a batch of amplitude vectors as the columns of a
//! `dim × width` matrix stored **mode-major**: all `width` lanes of mode
//! `m` are contiguous (`data[m·width + lane]`). A beam-splitter gate on
//! modes `(k, k+1)` then touches exactly two contiguous rows, so one
//! trigonometric evaluation sweeps the whole batch with a unit-stride,
//! vectorizable inner loop — the storage layout behind `qn-backend`'s
//! `SimdBackend`, whose rotations run through [`rotate_lanes_blocked`].
//!
//! Panels are also the codec's tile carrier from pixels to bitstream:
//! `qn-codec` gathers each occupied tile straight into a lane of a
//! [`DEFAULT_PANEL_WIDTH`]-lane panel, the mesh backends rotate the
//! panels in place, and quantization and stitching read the lanes
//! back out, so no stage allocates per tile. [`pack`] and [`unpack`]
//! convert vector batches at the boundary of callers that hold a few
//! samples as `Vec`s (the trainer, tests).
//!
//! Panels are a pure data-layout change: extracting lane `l` after any
//! sequence of row operations yields bit-identical values to running the
//! same operations on lane `l`'s vector alone, provided the per-row
//! arithmetic is expressed identically (no reassociation, no FMA
//! contraction). The blocked rotations below and the conformance suite
//! in `tests/codec_properties.rs` hold that line.

/// Lanes per panel wherever tiles are packed: the codec's tile panels
/// and [`pack`]'s default callers. At the paper's N = 16 state
/// dimension one panel is 16 × 64 × 8 B = 8 KiB — two rows (1 KiB)
/// live comfortably in L1 while a gate sweeps them — and a 256×256
/// image (4096 tiles) still splits into 64 panels for thread-level
/// parallelism.
pub const DEFAULT_PANEL_WIDTH: usize = 64;

/// A `dim × width` batch of real amplitude vectors, mode-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Panel {
    dim: usize,
    width: usize,
    /// `data[m * width + lane]` is mode `m` of lane `lane`.
    data: Vec<f64>,
}

impl Panel {
    /// All-zero panel of `width` lanes on `dim` modes.
    ///
    /// # Panics
    /// Panics when `dim` or `width` is zero.
    pub fn zeros(dim: usize, width: usize) -> Self {
        assert!(dim > 0, "panel needs at least one mode");
        assert!(width > 0, "panel needs at least one lane");
        Panel {
            dim,
            width,
            data: vec![0.0; dim * width],
        }
    }

    /// Panel over storage that is already mode-major:
    /// `data[m·width + lane]` is mode `m` of lane `lane`. Lets a caller
    /// fill a panel row by row without zeroing it first.
    ///
    /// # Panics
    /// Panics when `dim` or `width` is zero or `data` is not
    /// `dim · width` long.
    pub fn from_mode_major(dim: usize, width: usize, data: Vec<f64>) -> Self {
        assert!(dim > 0, "panel needs at least one mode");
        assert!(width > 0, "panel needs at least one lane");
        assert_eq!(data.len(), dim * width, "panel storage length mismatch");
        Panel { dim, width, data }
    }

    /// Pack a batch of equal-length vectors into the panel's lanes
    /// (vector `i` becomes lane `i`).
    ///
    /// # Panics
    /// Panics when `columns` is empty or the lengths disagree.
    pub fn from_columns(columns: &[Vec<f64>]) -> Self {
        assert!(!columns.is_empty(), "panel needs at least one lane");
        let dim = columns[0].len();
        let mut panel = Panel::zeros(dim, columns.len());
        for (lane, col) in columns.iter().enumerate() {
            panel.set_column(lane, col);
        }
        panel
    }

    /// Number of modes (rows).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of lanes (columns).
    pub fn width(&self) -> usize {
        self.width
    }

    /// The mode-major storage: `as_slice()[m·width + lane]` is mode `m`
    /// of lane `lane`.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// One amplitude.
    ///
    /// # Panics
    /// Panics out of range.
    pub fn get(&self, mode: usize, lane: usize) -> f64 {
        assert!(mode < self.dim && lane < self.width, "panel index");
        self.data[mode * self.width + lane]
    }

    /// Borrow the `width` lanes of one mode.
    ///
    /// # Panics
    /// Panics out of range.
    pub fn row(&self, mode: usize) -> &[f64] {
        assert!(mode < self.dim, "panel row index");
        &self.data[mode * self.width..(mode + 1) * self.width]
    }

    /// Mutably borrow the `width` lanes of one mode.
    ///
    /// # Panics
    /// Panics out of range.
    pub fn row_mut(&mut self, mode: usize) -> &mut [f64] {
        assert!(mode < self.dim, "panel row index");
        &mut self.data[mode * self.width..(mode + 1) * self.width]
    }

    /// Mutably borrow the adjacent rows `mode` and `mode + 1` — the two
    /// rows a beam-splitter on modes `(k, k+1)` rotates.
    ///
    /// # Panics
    /// Panics when `mode + 1 ≥ dim`.
    pub fn row_pair_mut(&mut self, mode: usize) -> (&mut [f64], &mut [f64]) {
        assert!(mode + 1 < self.dim, "panel row pair index");
        let (head, tail) = self.data.split_at_mut((mode + 1) * self.width);
        (&mut head[mode * self.width..], &mut tail[..self.width])
    }

    /// Copy vector `col` into lane `lane`.
    ///
    /// # Panics
    /// Panics on lane or length mismatch.
    pub fn set_column(&mut self, lane: usize, col: &[f64]) {
        assert!(lane < self.width, "panel lane index");
        assert_eq!(col.len(), self.dim, "panel column length mismatch");
        for (m, &v) in col.iter().enumerate() {
            self.data[m * self.width + lane] = v;
        }
    }

    /// Extract lane `lane` as a fresh vector.
    ///
    /// # Panics
    /// Panics when `lane ≥ width`.
    pub fn column(&self, lane: usize) -> Vec<f64> {
        assert!(lane < self.width, "panel lane index");
        (0..self.dim)
            .map(|m| self.data[m * self.width + lane])
            .collect()
    }
}

/// Pack equal-length vectors into panels of at most `width` lanes:
/// vector `i` becomes lane `i % width` of panel `i / width`, and only
/// the last panel may be narrower. An empty batch packs into no panels.
///
/// # Panics
/// Panics when `width` is zero or the vector lengths disagree.
pub fn pack(columns: &[Vec<f64>], width: usize) -> Vec<Panel> {
    assert!(width > 0, "panel needs at least one lane");
    columns.chunks(width).map(Panel::from_columns).collect()
}

/// Unpack every lane of every panel into vectors, in panel then lane
/// order — the inverse of [`pack`].
pub fn unpack(panels: &[Panel]) -> Vec<Vec<f64>> {
    panels
        .iter()
        .flat_map(|p| (0..p.width).map(move |lane| p.column(lane)))
        .collect()
}

/// Width of the explicit lane blocks used by the blocked rotation
/// kernels — eight `f64`s, one 512-bit vector register (or a pair of
/// 256-bit ones; narrower ISAs split the block for free).
pub const LANE_BLOCK: usize = 8;

/// Forward beam-splitter rotation over two mode rows in explicit
/// [`LANE_BLOCK`]-wide blocks: `a' = c·a − s·b`, `b' = s·a + c·b` per
/// lane, written as four independent mul/add pairs per block so the
/// compiler can keep whole blocks in vector registers. The remainder
/// lanes use the identical expressions, so every lane is bit-identical
/// to the scalar rotation.
///
/// # Panics
/// Panics when the rows disagree on length.
#[inline]
pub fn rotate_lanes_blocked(row_a: &mut [f64], row_b: &mut [f64], s: f64, c: f64) {
    assert_eq!(row_a.len(), row_b.len(), "row length mismatch");
    let mut chunks_a = row_a.chunks_exact_mut(LANE_BLOCK);
    let mut chunks_b = row_b.chunks_exact_mut(LANE_BLOCK);
    for (blk_a, blk_b) in chunks_a.by_ref().zip(chunks_b.by_ref()) {
        let mut xs = [0.0f64; LANE_BLOCK];
        let mut ys = [0.0f64; LANE_BLOCK];
        xs.copy_from_slice(blk_a);
        ys.copy_from_slice(blk_b);
        for l in 0..LANE_BLOCK {
            blk_a[l] = c * xs[l] - s * ys[l];
            blk_b[l] = s * xs[l] + c * ys[l];
        }
    }
    for (a, b) in chunks_a
        .into_remainder()
        .iter_mut()
        .zip(chunks_b.into_remainder().iter_mut())
    {
        let x = *a;
        let y = *b;
        *a = c * x - s * y;
        *b = s * x + c * y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrips() {
        let cols = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let panel = Panel::from_columns(&cols);
        assert_eq!(panel.dim(), 3);
        assert_eq!(panel.width(), 2);
        assert_eq!(panel.column(0), cols[0]);
        assert_eq!(panel.column(1), cols[1]);
        assert_eq!(unpack(&[panel]), cols);
    }

    #[test]
    fn storage_is_mode_major() {
        let panel = Panel::from_columns(&[vec![1.0, 3.0], vec![2.0, 4.0]]);
        assert_eq!(panel.row(0), &[1.0, 2.0]);
        assert_eq!(panel.row(1), &[3.0, 4.0]);
        assert_eq!(panel.get(1, 0), 3.0);
    }

    #[test]
    fn row_pair_mut_spans_adjacent_modes() {
        let mut panel = Panel::from_columns(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        {
            let (a, b) = panel.row_pair_mut(1);
            assert_eq!(a, &[2.0, 5.0]);
            assert_eq!(b, &[3.0, 6.0]);
            a[0] = -2.0;
            b[1] = -6.0;
        }
        assert_eq!(panel.column(0), vec![1.0, -2.0, 3.0]);
        assert_eq!(panel.column(1), vec![4.0, 5.0, -6.0]);
    }

    #[test]
    fn single_lane_panel_is_a_vector() {
        let v = vec![0.1, -0.2, 0.3, 0.4];
        let panel = Panel::from_columns(std::slice::from_ref(&v));
        assert_eq!(panel.width(), 1);
        assert_eq!(panel.column(0), v);
    }

    #[test]
    fn pack_splits_into_full_panels_and_a_ragged_last_one() {
        let cols: Vec<Vec<f64>> = (0..7).map(|i| vec![i as f64, -(i as f64)]).collect();
        let panels = pack(&cols, 3);
        let widths: Vec<usize> = panels.iter().map(Panel::width).collect();
        assert_eq!(widths, vec![3, 3, 1]);
        assert_eq!(panels[1].column(2), cols[5]);
        assert_eq!(unpack(&panels), cols);
        assert!(pack(&[], 4).is_empty());
        assert!(unpack(&[]).is_empty());
    }

    #[test]
    fn mode_major_storage_roundtrips() {
        let panel = Panel::from_mode_major(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(panel.column(1), vec![2.0, 5.0]);
        assert_eq!(panel.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(panel.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let result = std::panic::catch_unwind(|| Panel::from_mode_major(2, 3, vec![0.0; 5]));
        assert!(result.is_err(), "storage of the wrong length is rejected");
    }

    #[test]
    fn row_mut_writes_one_mode_across_lanes() {
        let mut panel = Panel::zeros(3, 2);
        panel.row_mut(2).copy_from_slice(&[7.0, 8.0]);
        assert_eq!(panel.column(0), vec![0.0, 0.0, 7.0]);
        assert_eq!(panel.column(1), vec![0.0, 0.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "panel column length mismatch")]
    fn mismatched_columns_are_rejected() {
        Panel::from_columns(&[vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn empty_panel_is_rejected() {
        Panel::from_columns(&[]);
    }
}
