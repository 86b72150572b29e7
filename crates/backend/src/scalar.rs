//! The scalar reference backend: one lane at a time.

use crate::MeshBackend;
use qn_linalg::Panel;
use qn_photonic::Mesh;

/// Per-lane dispatch on the calling thread through the mesh's own
/// `Mesh::forward_real` — the reference every other backend is checked
/// against. Each lane is copied out, run through the mesh and written
/// back, so outputs are the per-vector mesh pass down to the last bit.
#[derive(Debug, Clone, Copy)]
pub struct ScalarBackend;

impl MeshBackend for ScalarBackend {
    fn forward_panels(&self, mesh: &Mesh, panels: &mut [Panel]) {
        // One reused vector for every lane of every panel.
        let mut v = Vec::new();
        for panel in panels {
            for lane in 0..panel.width() {
                v.clear();
                v.extend((0..panel.dim()).map(|m| panel.get(m, lane)));
                mesh.forward_real(&mut v);
                panel.set_column(lane, &v);
            }
        }
    }
}
