//! The explicit-SIMD backend: pruned gate tables + lane-blocked
//! rotations.
//!
//! Tiles are packed into mode-major [`qn_linalg::Panel`]s of up to
//! [`DEFAULT_PANEL_WIDTH`] lanes, and the mesh pass runs
//! [`qn_photonic::MeshTables`]' blocked kernels: identity gates
//! (`θ = ±0.0`, roughly half the gate slots of an ASAP-packed spectral
//! model) are skipped outright, and the surviving rotations sweep the
//! panel lanes in explicit [`qn_linalg::panel::LANE_BLOCK`]-wide blocks
//! (`qn_linalg::panel::rotate_lanes_blocked`) — independent mul/add
//! pairs per block that the compiler keeps in vector registers, no
//! nightly features. Panels are chunked across threads.
//!
//! Outputs meet the `ZeroSignOnly` contract stated on
//! [`crate::MeshBackend`]: skipping an identity gate preserves an
//! amplitude's stored bits where the scalar reference computes
//! `1·a − 0·b` / `0·a + 1·b`, which can rewrite the *sign of an IEEE
//! zero*, so values compare equal but zero signs may differ.

use crate::tables::cached_tables;
use crate::MeshBackend;
use qn_linalg::parallel::par_map_chunked_into;
use qn_linalg::Panel;
use qn_photonic::Mesh;

/// Default lanes per panel. At the paper's N = 16 state dimension one
/// panel is 16 × 64 × 8 B = 8 KiB — two rows (1 KiB) live comfortably
/// in L1 while a gate sweeps them — and a 256×256 image (4096 tiles)
/// still splits into 64 chunks for thread-level parallelism.
pub const DEFAULT_PANEL_WIDTH: usize = 64;

/// Split `batch` into `width`-lane panels, apply a mesh pass to each,
/// and write the results straight into a preallocated output batch —
/// one allocation per output column, no per-chunk collection vectors.
/// Chunk boundaries depend only on the batch length and `width`, so
/// results are thread-count invariant whenever `apply` is.
fn run_chunked<F>(width: usize, batch: &[Vec<f64>], apply: F) -> Vec<Vec<f64>>
where
    F: Fn(&mut Panel) + Sync,
{
    let mut out: Vec<Vec<f64>> = batch.iter().map(|v| vec![0.0; v.len()]).collect();
    par_map_chunked_into(&mut out, width, |start, block| {
        let mut panel = Panel::from_columns(&batch[start..start + block.len()]);
        apply(&mut panel);
        panel.write_columns_into(block);
    });
    out
}

/// Lane-blocked, identity-pruned panel execution over cached gate
/// tables — see the module docs for the kernel and its contract.
#[derive(Debug, Clone, Copy)]
pub struct SimdBackend {
    width: usize,
}

impl SimdBackend {
    /// SIMD backend with an explicit panel width (lanes per panel).
    /// [`DEFAULT_PANEL_WIDTH`] suits the codec's tile sizes.
    ///
    /// # Panics
    /// Panics when `width` is zero — rejected here, at construction,
    /// not on the first batch.
    pub const fn with_width(width: usize) -> Self {
        assert!(width > 0, "panel width must be positive");
        SimdBackend { width }
    }

    /// Lanes per panel.
    pub fn width(&self) -> usize {
        self.width
    }
}

impl Default for SimdBackend {
    fn default() -> Self {
        SimdBackend::with_width(DEFAULT_PANEL_WIDTH)
    }
}

impl MeshBackend for SimdBackend {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn forward_batch(&self, mesh: &Mesh, batch: &[Vec<f64>]) -> Vec<Vec<f64>> {
        if batch.is_empty() {
            return Vec::new();
        }
        let tables = cached_tables(mesh);
        run_chunked(self.width, batch, |panel| {
            tables.forward_panel_blocked(panel)
        })
    }

    fn inverse_batch(&self, mesh: &Mesh, batch: &[Vec<f64>]) -> Vec<Vec<f64>> {
        if batch.is_empty() {
            return Vec::new();
        }
        let tables = cached_tables(mesh);
        run_chunked(self.width, batch, |panel| {
            tables.inverse_panel_blocked(panel)
        })
    }
}
