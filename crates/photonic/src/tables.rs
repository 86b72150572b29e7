//! Precomputed gate tables — the mesh with its trigonometry hoisted
//! out.
//!
//! A [`Mesh`] is static at inference time: the paper's `T_C`/`T_R`
//! interferometer is fixed per trained model (Sec. III-A), so each
//! gate's `(sin θ, cos θ)` is a property of the mesh. [`MeshTables`]
//! evaluates every gate's `sin_cos` once, and the mesh keeps the
//! result ([`Mesh::tables`]) until one of its angles changes, so every
//! [`Mesh::forward_panels`] pass after a mesh's first runs trig-free.
//!
//! # Contract
//!
//! The tables carry one kernel, the forward panel sweep behind
//! [`Mesh::forward_panels`]. The exact reference is the mesh's own
//! `Mesh::forward_real`, which evaluates `sin_cos` per gate;
//! `f64::sin_cos` is deterministic, so a tabled value is the same bit
//! pattern as a recomputed one.
//!
//! The kernel sweeps every lane of a mode-major [`Panel`], skips
//! identity gates — gates whose table entry is exactly
//! `(sin, cos) = (0, 1)`, i.e. `θ = ±0.0` — and rotates the lanes in
//! explicit [`LANE_BLOCK`](qn_linalg::panel::LANE_BLOCK)-wide blocks
//! (`qn_linalg::panel::rotate_lanes_blocked`). Skipping an identity
//! rotation leaves an amplitude's stored bits untouched, whereas the
//! reference computes `1·a − 0·b` / `0·a + 1·b`, which can flip the
//! *sign of an IEEE zero* (e.g. `-0.0 − (-0.0) = +0.0`). Every output
//! therefore compares **equal under `f64 ==`** to the reference
//! (absolute difference exactly `0.0`), but is not guaranteed
//! bit-identical on zero amplitudes (the `ZeroSignOnly` contract on
//! [`Mesh::forward_panels`]). Identity gates are common in practice:
//! ASAP-packed spectral meshes (the codec's default model source)
//! leave roughly half their gate slots at `θ = 0`.
//!
//! [`table_cache_stats`] counts, process-wide, the [`Mesh::tables`]
//! calls that found their mesh's tables built and the ones that built
//! them; every non-empty [`Mesh::forward_panels`] call makes one.

use crate::mesh::Mesh;
use qn_linalg::panel::rotate_lanes_blocked;
use qn_linalg::Panel;
use std::sync::atomic::{AtomicU64, Ordering};

/// One active gate's precomputed rotation: target mode pair
/// `(mode, mode+1)` and the cached `sin θ` / `cos θ`.
#[derive(Debug, Clone, Copy)]
struct GateTable {
    mode: usize,
    sin: f64,
    cos: f64,
}

/// Precomputed `(sin, cos)` of every non-identity gate of a real mesh,
/// layer by layer in application order (each layer's cascade direction
/// is baked in at build time). Built once per mesh by [`Mesh::tables`];
/// applied to panels with zero trigonometry in the hot loop.
#[derive(Debug, Clone)]
pub struct MeshTables {
    dim: usize,
    /// Per layer, the gates that survive identity pruning.
    layers: Vec<Vec<GateTable>>,
}

impl MeshTables {
    /// Evaluate `sin_cos` for every gate of `mesh`, in application
    /// order, and keep the non-identity ones.
    pub(crate) fn build(mesh: &Mesh) -> MeshTables {
        let layers = mesh
            .layers()
            .iter()
            .map(|layer| {
                layer
                    .positions()
                    .map(|k| {
                        let (sin, cos) = layer.thetas()[k].sin_cos();
                        GateTable { mode: k, sin, cos }
                    })
                    .filter(|g| !(g.sin == 0.0 && g.cos == 1.0))
                    .collect()
            })
            .collect();
        MeshTables {
            dim: mesh.dim(),
            layers,
        }
    }

    /// Total gates across all layers: `N − 1` per layer.
    pub fn gate_count(&self) -> usize {
        self.layers.len() * (self.dim - 1)
    }

    /// Gates that survive identity pruning.
    pub fn active_gate_count(&self) -> usize {
        self.layers.iter().map(Vec::len).sum()
    }

    /// Forward panel sweep with identity-gate pruning and explicit
    /// lane blocks — the kernel of [`Mesh::forward_panels`]. Outputs
    /// compare equal (`f64 ==`) to [`Mesh::forward_real`] on every
    /// lane; see the module docs for the exact (zero-sign) contract.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub(crate) fn forward_panel_blocked(&self, panel: &mut Panel) {
        assert_eq!(panel.dim(), self.dim, "table dimension mismatch");
        for layer in &self.layers {
            for g in layer {
                let (row_a, row_b) = panel.row_pair_mut(g.mode);
                rotate_lanes_blocked(row_a, row_b, g.sin, g.cos);
            }
        }
    }
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// Count one [`Mesh::tables`] call: a miss when it built the tables, a
/// hit when it found them built.
pub(crate) fn count_lookup(built: bool) {
    let counter = if built { &MISSES } else { &HITS };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Process-wide counts of [`Mesh::tables`] calls, which each non-empty
/// [`Mesh::forward_panels`] call makes once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableCacheStats {
    /// Calls that found their mesh's tables already built.
    pub hits: u64,
    /// Calls that built them (a mesh's first pass, or its first after
    /// a θ setter).
    pub misses: u64,
}

/// Snapshot the process-wide hit and miss counts of [`Mesh::tables`]
/// (surfaced by `qn-serve`'s STATS).
pub fn table_cache_stats() -> TableCacheStats {
    TableCacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
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
    fn tables_are_built_once_per_mesh() {
        let mesh = sparse_mesh(6, 2);
        assert!(std::ptr::eq(mesh.tables(), mesh.tables()));
    }

    #[test]
    fn theta_setters_drop_the_tables() {
        // The first pass builds tables for the old angles; after every
        // setter the next pass must run the new ones, lane for lane.
        let cols = columns(8, 5);
        let check = |mesh: &Mesh, what: &str| {
            let mut panel = Panel::from_columns(&cols);
            mesh.tables().forward_panel_blocked(&mut panel);
            for (lane, col) in cols.iter().enumerate() {
                assert_eq!(
                    panel.column(lane),
                    mesh.forward_real_copy(col),
                    "{what} lane {lane}"
                );
            }
        };
        let mut mesh = sparse_mesh(8, 3);
        check(&mesh, "built");
        let halved: Vec<f64> = mesh.thetas().iter().map(|t| t * 0.5 + 0.25).collect();
        mesh.set_thetas(&halved);
        check(&mesh, "set_thetas");
        mesh.set_theta_at(1, 4, 1.0);
        check(&mesh, "set_theta_at");
        mesh.set_theta_at(2, 0, 0.0);
        check(&mesh, "set_theta_at to identity");
    }

    #[test]
    fn equality_ignores_built_tables() {
        let built = sparse_mesh(5, 2);
        let fresh = sparse_mesh(5, 2);
        built.tables();
        assert_eq!(built, fresh);
        assert_eq!(fresh, built);
        assert_ne!(built, fresh.reversed());
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
