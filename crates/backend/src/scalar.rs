//! The scalar reference backend: one vector at a time.

use crate::tables::cached_tables;
use crate::MeshBackend;
use qn_photonic::Mesh;

/// Per-vector dispatch on the calling thread with the exact semantics
/// of `Mesh::forward_real` — the reference every other backend is
/// checked against. The per-gate pass runs through the shared
/// gate-table cache (cached `sin_cos` values are bit-identical to
/// recomputation, so outputs are unchanged down to the last bit).
#[derive(Debug, Clone, Copy)]
pub struct ScalarBackend;

impl MeshBackend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn forward_batch(&self, mesh: &Mesh, batch: &[Vec<f64>]) -> Vec<Vec<f64>> {
        if batch.is_empty() {
            return Vec::new();
        }
        let tables = cached_tables(mesh);
        batch
            .iter()
            .map(|x| {
                let mut v = x.clone();
                tables.forward_amps(&mut v);
                v
            })
            .collect()
    }

    fn inverse_batch(&self, mesh: &Mesh, batch: &[Vec<f64>]) -> Vec<Vec<f64>> {
        if batch.is_empty() {
            return Vec::new();
        }
        let tables = cached_tables(mesh);
        batch
            .iter()
            .map(|x| {
                let mut v = x.clone();
                tables.inverse_amps(&mut v);
                v
            })
            .collect()
    }
}
