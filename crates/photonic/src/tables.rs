//! Precomputed per-layer gate tables — the mesh with its trigonometry
//! hoisted out.
//!
//! A [`crate::Mesh`] is static at inference time: the paper's `T_C`/`T_R`
//! interferometer structure is fixed per model, yet the per-gate
//! `sin_cos` used to be re-evaluated for every panel of every batch of
//! every request. [`MeshTables`] evaluates each gate's `(sin θ, cos θ)`
//! exactly once at build time and replays the cached values through
//! table-driven apply kernels, so the hot loops contain only
//! multiply/add work.
//!
//! # Contracts
//!
//! Two kernels live here, with two contracts. Both run the mesh
//! forward: the paper decodes by running the trained `U_R` forward,
//! never by inverting `U_C`, so the tables carry no inverse pass
//! (`Mesh::inverse_real` is the model's own math, not a table kernel).
//!
//! - **The exact kernel** ([`MeshTables::forward_amps`]) replays
//!   *every* gate with the identical `c·a − s·b` / `s·a + c·b`
//!   expressions the scalar reference uses. `f64::sin_cos` is
//!   deterministic, so a cached value is the same bit pattern as a
//!   recomputed one and this kernel is **bit-identical** to
//!   `Mesh::forward_real`.
//! - **The pruned, lane-blocked kernel**
//!   ([`MeshTables::forward_panel_blocked`]) sweeps every lane of a
//!   mode-major [`Panel`], skips identity gates — gates whose table
//!   entry is exactly `(sin, cos) = (0, 1)`, i.e. `θ = ±0.0` — and
//!   rotates the lanes in explicit
//!   [`LANE_BLOCK`](qn_linalg::panel::LANE_BLOCK)-wide blocks
//!   (`qn_linalg::panel::rotate_lanes_blocked`). Skipping an identity
//!   rotation leaves an amplitude's stored bits untouched, whereas the
//!   reference computes `1·a − 0·b` / `0·a + 1·b`, which can flip the
//!   *sign of an IEEE zero* (e.g. `-0.0 − (-0.0) = +0.0`). Every output
//!   therefore compares **equal under `f64 ==`** to the reference
//!   (absolute difference exactly `0.0`), but is not guaranteed
//!   bit-identical on zero amplitudes. Identity gates are common in
//!   practice: ASAP-packed spectral meshes (the codec's default model
//!   source) leave roughly half their gate slots at `θ = 0`.
//!
//! `qn-backend` keys a content-addressed cache of these tables by model
//! identity, so the build cost is paid once per mesh, not per batch.

use crate::mesh::Mesh;
use qn_linalg::panel::rotate_lanes_blocked;
use qn_linalg::Panel;

/// One gate's precomputed rotation: target mode pair `(mode, mode+1)`
/// and the cached `sin θ` / `cos θ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateTable {
    /// Lower mode index of the gate's `(k, k+1)` pair.
    pub mode: usize,
    /// Cached `sin θ` — bit-identical to `θ.sin_cos().0`.
    pub sin: f64,
    /// Cached `cos θ` — bit-identical to `θ.sin_cos().1`.
    pub cos: f64,
}

impl GateTable {
    /// True when the cached rotation is exactly the identity
    /// (`sin = ±0.0`, `cos = 1.0`), i.e. the gate came from `θ = ±0.0`.
    #[inline]
    pub fn is_identity(&self) -> bool {
        self.sin == 0.0 && self.cos == 1.0
    }
}

/// One layer's gates in application order (the layer's cascade
/// direction is baked in at build time).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTable {
    /// Every gate, in the order `MeshLayer::apply_real` visits them.
    gates: Vec<GateTable>,
    /// The non-identity subset, same relative order.
    active: Vec<GateTable>,
}

impl LayerTable {
    /// All gates in application order.
    pub fn gates(&self) -> &[GateTable] {
        &self.gates
    }
}

/// Precomputed `(sin, cos)` tables for every `(layer, gate)` of a real
/// mesh, in application order. Build once per mesh (see
/// [`Mesh::tables`]); apply to amplitude vectors or panels with zero
/// trigonometry in the hot loop.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshTables {
    dim: usize,
    layers: Vec<LayerTable>,
}

impl MeshTables {
    /// Evaluate `sin_cos` for every gate of `mesh`, in application
    /// order.
    pub fn build(mesh: &Mesh) -> MeshTables {
        let layers = mesh
            .layers()
            .iter()
            .map(|layer| {
                let gates: Vec<GateTable> = layer
                    .positions()
                    .map(|k| {
                        let (sin, cos) = layer.thetas()[k].sin_cos();
                        GateTable { mode: k, sin, cos }
                    })
                    .collect();
                let active = gates.iter().copied().filter(|g| !g.is_identity()).collect();
                LayerTable { gates, active }
            })
            .collect();
        MeshTables {
            dim: mesh.dim(),
            layers,
        }
    }

    /// Number of modes `N`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Per-layer tables, forward layer order.
    pub fn layers(&self) -> &[LayerTable] {
        &self.layers
    }

    /// Total gates across all layers.
    pub fn gate_count(&self) -> usize {
        self.layers.iter().map(|l| l.gates.len()).sum()
    }

    /// Gates that survive identity pruning.
    pub fn active_gate_count(&self) -> usize {
        self.layers.iter().map(|l| l.active.len()).sum()
    }

    /// Apply the mesh forward to one amplitude vector — bit-identical
    /// to [`Mesh::forward_real`].
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn forward_amps(&self, amps: &mut [f64]) {
        assert_eq!(amps.len(), self.dim, "table dimension mismatch");
        for layer in &self.layers {
            for g in &layer.gates {
                let a = amps[g.mode];
                let b = amps[g.mode + 1];
                amps[g.mode] = g.cos * a - g.sin * b;
                amps[g.mode + 1] = g.sin * a + g.cos * b;
            }
        }
    }

    /// Forward panel sweep with identity-gate pruning and explicit
    /// lane blocks — the `simd` backend's kernel. Outputs compare equal
    /// (`f64 ==`) to [`Mesh::forward_real`] on every lane; see the
    /// module docs for the exact (zero-sign) contract.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn forward_panel_blocked(&self, panel: &mut Panel) {
        assert_eq!(panel.dim(), self.dim, "table dimension mismatch");
        for layer in &self.layers {
            for g in &layer.active {
                let (row_a, row_b) = panel.row_pair_mut(g.mode);
                rotate_lanes_blocked(row_a, row_b, g.sin, g.cos);
            }
        }
    }
}

impl Mesh {
    /// Build the precomputed gate tables for this mesh — one `sin_cos`
    /// per gate, ever. See [`MeshTables`].
    pub fn tables(&self) -> MeshTables {
        MeshTables::build(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(4242)
    }

    fn columns(dim: usize, n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|l| {
                (0..dim)
                    .map(|i| ((l * dim + i) as f64 * 0.31).sin())
                    .collect()
            })
            .collect()
    }

    /// A mesh with a mix of identity and active gates, like an
    /// ASAP-packed spectral decomposition produces.
    fn sparse_mesh(dim: usize, layers: usize) -> Mesh {
        let mut mesh = Mesh::random(dim, layers, &mut rng());
        let thetas: Vec<f64> = mesh
            .thetas()
            .iter()
            .enumerate()
            .map(|(i, &t)| if i % 3 == 0 { 0.0 } else { t })
            .collect();
        mesh.set_thetas(&thetas);
        mesh
    }

    #[test]
    fn exact_kernels_are_bit_identical_to_the_mesh() {
        for mesh in [
            Mesh::random(9, 4, &mut rng()),
            Mesh::random(9, 4, &mut rng()).reversed(),
            sparse_mesh(9, 3),
        ] {
            let tables = mesh.tables();
            assert_eq!(tables.dim(), 9);
            for col in columns(9, 5) {
                let reference = mesh.forward_real_copy(&col);
                let mut tabled = col.clone();
                tables.forward_amps(&mut tabled);
                assert!(
                    tabled
                        .iter()
                        .zip(&reference)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "forward_amps drifted"
                );
            }
        }
    }

    #[test]
    fn blocked_kernels_equal_the_reference_on_every_lane() {
        // Widths below, at and above the 8-lane block: remainder lanes
        // included.
        for width in [1usize, 3, 4, 5, 8, 11] {
            for mesh in [sparse_mesh(10, 4), sparse_mesh(10, 4).reversed()] {
                let tables = mesh.tables();
                let cols = columns(10, width);
                let mut fwd = Panel::from_columns(&cols);
                tables.forward_panel_blocked(&mut fwd);
                for (lane, col) in cols.iter().enumerate() {
                    assert_eq!(
                        fwd.column(lane),
                        mesh.forward_real_copy(col),
                        "forward width {width} lane {lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn pruning_skips_exactly_the_identity_gates() {
        let mesh = sparse_mesh(7, 3);
        let tables = mesh.tables();
        let zero_thetas = mesh.thetas().iter().filter(|&&t| t == 0.0).count();
        assert!(zero_thetas > 0, "sparse mesh must have identity gates");
        assert_eq!(tables.gate_count(), 3 * 6);
        assert_eq!(
            tables.active_gate_count(),
            tables.gate_count() - zero_thetas
        );
        // A fully random mesh prunes nothing.
        let dense = Mesh::random(7, 2, &mut rng());
        let dt = dense.tables();
        assert_eq!(dt.active_gate_count(), dt.gate_count());
    }

    #[test]
    fn blocked_kernels_may_differ_from_the_reference_only_on_zero_signs() {
        // A vector that becomes -0.0 under the reference arithmetic:
        // with θ = 0 gates, the reference computes 0·a + 1·b, which
        // rewrites -0.0 to +0.0, while the pruned kernel preserves the
        // stored bits. The values must still compare equal.
        let mesh = Mesh::zeros(4, 1); // all-identity mesh
        let tables = mesh.tables();
        assert_eq!(tables.active_gate_count(), 0);
        let cols = vec![vec![-0.0, 1.0, -0.0, 2.0]];
        let mut panel = Panel::from_columns(&cols);
        tables.forward_panel_blocked(&mut panel);
        let reference = mesh.forward_real_copy(&cols[0]);
        let pruned = panel.column(0);
        assert_eq!(pruned, reference, "values must compare equal");
        // ...and the divergence, if any, is confined to zero signs.
        for (a, b) in pruned.iter().zip(&reference) {
            if a.to_bits() != b.to_bits() {
                assert_eq!(*a, 0.0, "non-zero bit divergence");
                assert_eq!(*b, 0.0, "non-zero bit divergence");
            }
        }
    }
}
