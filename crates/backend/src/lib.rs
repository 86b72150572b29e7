//! The mesh-pass selector the codec and its tests share.
//!
//! Every mesh workload reduces to one primitive: apply a [`Mesh`]
//! forward, in place, to the lanes of mode-major [`Panel`]s. (The paper
//! decodes by running the trained `U_R` forward, never by inverting
//! `U_C`, so there is no inverse pass.) The mesh runs that pass itself,
//! [`Mesh::forward_panels`], over its own gate tables; its rustdoc
//! states the `ZeroSignOnly` contract the pass meets against the
//! per-lane reference, [`Mesh::forward_real`].
//!
//! [`BackendKind`] names the two: `Simd`, the production pass and the
//! default, and `Scalar`, the reference and test oracle. It is a
//! library-level choice only: `CodecOptions::backend` and
//! `Codec::decode_bytes_with` take it, so tests and benchmarks can run
//! the oracle. Every user surface (the `qnc` commands, the server, the
//! evaluation sweep) runs [`BackendKind::default`], `simd`.
//!
//! [`table_cache_stats`] counts the passes that found their mesh's gate
//! tables built and the passes that built them.
//!
//! # Why numeric compatibility is part of the contract
//!
//! `.qnc` containers record quantized mesh outputs; a decoder that
//! produced even 1-ulp-different amplitudes could round a quantizer
//! level differently and emit different pixels — a silent format
//! incompatibility. The two kinds may differ only in the sign of IEEE
//! zeros, which the quantizer and the pixel decode erase; the
//! conformance properties plus the golden bitstream vectors pin the
//! resulting byte-compatibility in CI.

pub use qn_photonic::table_cache_stats;

use qn_linalg::Panel;
use qn_photonic::Mesh;
use std::fmt;

/// Which mesh pass to run: the scalar oracle for tests and benchmarks,
/// simd everywhere else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Lane-by-lane [`Mesh::forward_real`] on the calling thread: the
    /// reference.
    Scalar,
    /// [`Mesh::forward_panels`]: pruned gate tables + explicit
    /// lane-blocked rotations, panels spread across threads (default).
    #[default]
    Simd,
}

impl BackendKind {
    /// Every kind, in documentation order.
    pub const ALL: [BackendKind; 2] = [BackendKind::Scalar, BackendKind::Simd];

    /// Apply `mesh` forward to every lane of every panel, in place.
    /// The two kinds agree up to the sign of IEEE zeros (the
    /// `ZeroSignOnly` contract on [`Mesh::forward_panels`]); `Scalar`
    /// is bit-identical to [`Mesh::forward_real`].
    ///
    /// # Panics
    /// Panics when a panel's dimension differs from `mesh.dim()`.
    pub fn forward_panels(self, mesh: &Mesh, panels: &mut [Panel]) {
        match self {
            BackendKind::Scalar => {
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
            BackendKind::Simd => mesh.forward_panels(panels),
        }
    }

    /// The kind itself. Only perfbench's layer split calls it; it goes,
    /// with `CodecOptions::backend`, once the benchmark moves off both
    /// (the ROADMAP's benchmark item).
    pub fn backend(self) -> Self {
        self
    }

    /// Stable name, used in test and benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Simd => "simd",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_linalg::panel::{pack, unpack};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A mesh with identity gates among its active ones, so simd prunes
    /// some and the zero-sign latitude is in play.
    fn mesh(dim: usize, layers: usize) -> Mesh {
        let mut m = Mesh::random(dim, layers, &mut StdRng::seed_from_u64(314));
        let thetas: Vec<f64> = m
            .thetas()
            .iter()
            .enumerate()
            .map(|(i, &t)| if i % 2 == 0 { 0.0 } else { t })
            .collect();
        m.set_thetas(&thetas);
        m
    }

    fn batch(dim: usize, n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|j| ((i * dim + j) as f64 * 0.29).sin())
                    .collect()
            })
            .collect()
    }

    /// `xs` packed into `width`-lane panels, passed forward through
    /// `kind`, and unpacked again.
    fn run(kind: BackendKind, m: &Mesh, xs: &[Vec<f64>], width: usize) -> Vec<Vec<f64>> {
        let mut panels = pack(xs, width);
        kind.forward_panels(m, &mut panels);
        unpack(&panels)
    }

    fn bits(vs: &[Vec<f64>]) -> Vec<Vec<u64>> {
        vs.iter()
            .map(|v| v.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    #[test]
    fn every_kind_has_a_stable_name_and_simd_is_the_default() {
        let names: Vec<String> = BackendKind::ALL.iter().map(|k| k.to_string()).collect();
        assert_eq!(names, ["scalar", "simd"]);
        for kind in BackendKind::ALL {
            assert_eq!(kind.to_string(), kind.name());
            assert_eq!(kind.backend(), kind);
        }
        assert_eq!(BackendKind::default(), BackendKind::Simd);
    }

    #[test]
    fn scalar_is_bit_identical_to_forward_real() {
        // Signed-zero inputs included: the reference may rewrite their
        // signs, and scalar must do exactly what it does.
        let mut xs = batch(10, 23);
        xs[0] = vec![0.0; 10];
        xs[1] = vec![-0.0; 10];
        for m in [mesh(10, 4), mesh(10, 4).reversed()] {
            let reference: Vec<Vec<f64>> = xs.iter().map(|x| m.forward_real_copy(x)).collect();
            for width in [1usize, 5, 64] {
                let got = run(BackendKind::Scalar, &m, &xs, width);
                assert_eq!(bits(&got), bits(&reference), "width {width}");
            }
        }
    }

    #[test]
    fn both_kinds_agree_at_every_panel_width() {
        let m = mesh(6, 2);
        let xs = batch(6, 7);
        let scalar = run(BackendKind::Scalar, &m, &xs, 64);
        for width in [1usize, 2, 3, 4, 5, 7, 8, 64] {
            for kind in BackendKind::ALL {
                assert_eq!(run(kind, &m, &xs, width), scalar, "{kind} width {width}");
            }
        }
    }
}
