//! The scalar reference backend: one lane at a time.

use crate::tables::cached_tables;
use crate::MeshBackend;
use qn_linalg::Panel;
use qn_photonic::Mesh;

/// Per-lane dispatch on the calling thread with the exact semantics
/// of `Mesh::forward_real` — the reference every other backend is
/// checked against. Each lane is copied out, run through the shared
/// gate-table cache's exact kernel (cached `sin_cos` values are
/// bit-identical to recomputation) and written back, so outputs match
/// the per-vector mesh pass down to the last bit.
#[derive(Debug, Clone, Copy)]
pub struct ScalarBackend;

/// Run `apply` over every lane of every panel through one reused
/// vector.
fn per_lane(panels: &mut [Panel], apply: impl Fn(&mut [f64])) {
    let mut v = Vec::new();
    for panel in panels {
        for lane in 0..panel.width() {
            v.clear();
            v.extend((0..panel.dim()).map(|m| panel.get(m, lane)));
            apply(&mut v);
            panel.set_column(lane, &v);
        }
    }
}

impl MeshBackend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn forward_panels(&self, mesh: &Mesh, panels: &mut [Panel]) {
        if panels.is_empty() {
            return;
        }
        let tables = cached_tables(mesh);
        per_lane(panels, |v| tables.forward_amps(v));
    }

    fn inverse_panels(&self, mesh: &Mesh, panels: &mut [Panel]) {
        if panels.is_empty() {
            return;
        }
        let tables = cached_tables(mesh);
        per_lane(panels, |v| tables.inverse_amps(v));
    }
}
