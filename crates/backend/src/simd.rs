//! The explicit-SIMD backend: pruned gate tables + lane-blocked
//! rotations.
//!
//! The mesh pass runs the blocked kernel of the mesh's own gate tables
//! ([`qn_photonic::Mesh::tables`], built on the mesh's first pass) over
//! the caller's mode-major [`qn_linalg::Panel`]s, in place: identity
//! gates (`θ = ±0.0`, roughly half the gate slots of an ASAP-packed
//! spectral model) are skipped outright, and the surviving rotations
//! sweep the panel lanes in explicit
//! [`qn_linalg::panel::LANE_BLOCK`]-wide blocks
//! (`qn_linalg::panel::rotate_lanes_blocked`) — independent mul/add
//! pairs per block that the compiler keeps in vector registers, no
//! nightly features. Panels are spread across the thread pool one
//! panel per chunk; a single panel runs on the calling thread.
//!
//! Outputs meet the `ZeroSignOnly` contract stated on
//! [`crate::MeshBackend`]: skipping an identity gate preserves an
//! amplitude's stored bits where the scalar reference computes
//! `1·a − 0·b` / `0·a + 1·b`, which can rewrite the *sign of an IEEE
//! zero*, so values compare equal but zero signs may differ.

use crate::MeshBackend;
use qn_linalg::parallel::par_map_chunked_into;
use qn_linalg::Panel;
use qn_photonic::Mesh;

/// Lane-blocked, identity-pruned panel execution over the mesh's gate
/// tables — see the module docs for the kernel and its contract.
#[derive(Debug, Clone, Copy)]
pub struct SimdBackend;

impl MeshBackend for SimdBackend {
    fn forward_panels(&self, mesh: &Mesh, panels: &mut [Panel]) {
        if panels.is_empty() {
            return;
        }
        let tables = mesh.tables();
        par_map_chunked_into(panels, 1, |_, block| {
            block
                .iter_mut()
                .for_each(|p| tables.forward_panel_blocked(p));
        });
    }
}
