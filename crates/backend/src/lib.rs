//! Execution backends for interferometer-mesh passes.
//!
//! The codec, the trainer and every related mesh workload ultimately
//! reduce to the same primitive: apply a [`Mesh`] forward to a batch of
//! real amplitude vectors. (The paper decodes by running the trained
//! `U_R` forward, never by inverting `U_C`, so there is no inverse
//! pass.) Batches travel as mode-major [`qn_linalg::Panel`]s — the
//! layout the codec gathers tiles into — and this crate abstracts the
//! in-place pass over them behind the [`MeshBackend`] trait, with one
//! reference and one fast path:
//!
//! - [`ScalarBackend`] — the reference and test oracle: lane-by-lane
//!   dispatch with the exact semantics of `Mesh::forward_real`;
//! - [`SimdBackend`] — the production path (the default): identity
//!   gates pruned and rotations swept across the panel lanes in
//!   explicit blocks, with panels spread across threads.
//!
//! Both share the content-addressed gate-table cache
//! ([`tables::cached_tables`]): per-gate `sin_cos` is evaluated once
//! per model, ever, instead of once per gate per panel per batch.
//!
//! [`BackendKind`] is the value-level selector that maps onto shared
//! backend instances. It is a library-level choice only:
//! `CodecOptions::backend` and `Codec::decode_bytes_with` take it, so
//! tests and benchmarks can run the scalar oracle. Every user surface
//! (the `qnc` commands, the server, the evaluation sweep) runs
//! [`BackendKind::default`], `simd`.
//!
//! # Why numeric compatibility is part of the trait contract
//!
//! `.qnc` containers record quantized mesh outputs; a decoder that
//! produced even 1-ulp-different amplitudes could round a quantizer
//! level differently and emit different pixels — a silent format
//! incompatibility. The [`MeshBackend`] rustdoc therefore states the
//! contract every backend meets against the scalar reference, and the
//! conformance properties plus the golden bitstream vectors pin the
//! resulting byte-compatibility in CI.

mod scalar;
mod simd;
pub mod tables;

pub use qn_linalg::panel::DEFAULT_PANEL_WIDTH;
pub use qn_linalg::Panel;
pub use scalar::ScalarBackend;
pub use simd::SimdBackend;
pub use tables::{cached_tables, table_cache_stats, TableCacheStats};

use qn_photonic::Mesh;
use std::fmt;

/// Executes mesh forward passes in place over batches of amplitude
/// vectors held as the lanes of mode-major [`Panel`]s.
///
/// A backend implements one method: rotate every lane of every panel
/// by `U` ([`MeshBackend::forward_panels`]). One call carries one
/// request's panels — a whole image's occupied tiles, offline or
/// served — and panels may differ in width (the last one is usually
/// narrower), so a lane's result must depend on nothing but that lane
/// and the mesh.
///
/// # Contract: `ZeroSignOnly` against the scalar reference
///
/// For every implementation, every mesh `U`, and every panel slice,
/// lane `l` of panel `p` after `forward_panels(U, panels)` must match
/// `U.forward_real_copy(column)` for that lane's input column,
/// regardless of thread count, panel widths, panel count or internal
/// blocking, as follows:
///
/// - every output compares equal under `f64 ==` — the absolute
///   difference is exactly `0.0`, a zero tolerance budget;
/// - bits may differ only where both values are IEEE zeros.
///
/// [`ScalarBackend`] meets this trivially: it is bit-identical to the
/// reference (same `c·a − s·b` / `s·a + c·b` per-gate expressions, same
/// `sin_cos` values, no reassociation, no FMA contraction).
/// [`SimdBackend`] uses the zero-sign latitude: pruning an identity
/// gate (`θ = ±0.0`) keeps an amplitude's stored bits where the
/// reference computes `1·a − 0·b` / `0·a + 1·b`, which can rewrite
/// `-0.0` to `+0.0`. On meshes without identity gates it is
/// bit-identical too.
///
/// `.qnc` containers encode and decode byte-identically under either
/// backend: quantization and pixel reconstruction cannot distinguish
/// `-0.0` from `+0.0`. The conformance suite
/// (`tests/codec_properties.rs`), the golden vectors
/// (`tests/golden_vectors.rs`) and the epsilon-budget test below
/// enforce all of this.
///
/// # Panics
///
/// Implementations panic (like the scalar reference) when a panel's
/// dimension differs from `mesh.dim()`; malformed *file* input must be
/// rejected by the codec layer before reaching a backend.
pub trait MeshBackend: fmt::Debug + Sync {
    /// Apply `mesh` forward to every lane of every panel, in place.
    fn forward_panels(&self, mesh: &Mesh, panels: &mut [Panel]);
}

/// Value-level backend selector for codec options: the scalar oracle
/// for tests and benchmarks, simd everywhere else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Lane-by-lane dispatch on the calling thread: the reference.
    Scalar,
    /// Pruned gate tables + explicit lane-blocked rotations, panels
    /// spread across threads (default).
    #[default]
    Simd,
}

/// Shared instances behind [`BackendKind::backend`].
static SCALAR: ScalarBackend = ScalarBackend;
static SIMD: SimdBackend = SimdBackend;

impl BackendKind {
    /// Every selectable backend, in documentation order.
    pub const ALL: [BackendKind; 2] = [BackendKind::Scalar, BackendKind::Simd];

    /// The backend instance this selector names.
    pub fn backend(self) -> &'static dyn MeshBackend {
        match self {
            BackendKind::Scalar => &SCALAR,
            BackendKind::Simd => &SIMD,
        }
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

    fn mesh(dim: usize, layers: usize) -> Mesh {
        Mesh::random(dim, layers, &mut StdRng::seed_from_u64(314))
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
    /// `backend`, and unpacked again.
    fn run(backend: &dyn MeshBackend, m: &Mesh, xs: &[Vec<f64>], width: usize) -> Vec<Vec<f64>> {
        let mut panels = pack(xs, width);
        backend.forward_panels(m, &mut panels);
        unpack(&panels)
    }

    fn forward(backend: &dyn MeshBackend, m: &Mesh, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        run(backend, m, xs, DEFAULT_PANEL_WIDTH)
    }

    #[test]
    fn every_kind_has_a_stable_name_and_simd_is_the_default() {
        let names: Vec<String> = BackendKind::ALL.iter().map(|k| k.to_string()).collect();
        assert_eq!(names, ["scalar", "simd"]);
        for kind in BackendKind::ALL {
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(BackendKind::default(), BackendKind::Simd);
    }

    #[test]
    fn panel_widths_including_one_agree_with_scalar() {
        let m = mesh(6, 2);
        let xs = batch(6, 7);
        let reference = forward(BackendKind::Scalar.backend(), &m, &xs);
        for width in [1usize, 2, 3, 4, 5, 7, 8, 64] {
            for kind in BackendKind::ALL {
                let got = run(kind.backend(), &m, &xs, width);
                assert_eq!(got, reference, "{kind} width {width}");
            }
        }
    }

    #[test]
    fn simd_epsilon_budget_is_exactly_zero_and_divergence_is_zero_signs_only() {
        // The ZeroSignOnly contract, pinned bit-by-bit: on a mesh that
        // mixes identity (θ = 0) and active gates — the shape
        // ASAP-packed spectral models have — every simd output must
        // (a) compare equal to the scalar reference under `==`
        //     (absolute difference exactly 0.0: a zero epsilon budget),
        // (b) differ in bits only where both values are IEEE zeros.
        let mut m = mesh(10, 4);
        let thetas: Vec<f64> = m
            .thetas()
            .iter()
            .enumerate()
            .map(|(i, &t)| if i % 2 == 0 { 0.0 } else { t })
            .collect();
        m.set_thetas(&thetas);
        // Zero amplitudes included so zero-sign handling is exercised.
        let mut xs = batch(10, 23);
        xs[0] = vec![0.0; 10];
        xs[1] = vec![-0.0; 10];
        for m in [m.clone(), m.reversed()] {
            let reference = forward(BackendKind::Scalar.backend(), &m, &xs);
            let got = forward(BackendKind::Simd.backend(), &m, &xs);
            for (g, w) in got.iter().zip(&reference) {
                for (a, b) in g.iter().zip(w) {
                    assert!((a - b).abs() == 0.0, "epsilon budget exceeded: {a} vs {b}");
                    if a.to_bits() != b.to_bits() {
                        assert_eq!(*a, 0.0, "non-zero bit divergence: {a} vs {b}");
                        assert_eq!(*b, 0.0, "non-zero bit divergence: {a} vs {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn all_backends_match_the_scalar_reference_bitwise() {
        // A random mesh has no identity gates, so simd prunes nothing
        // and must reproduce the reference bit for bit.
        let m = mesh(10, 3);
        let xs = batch(10, 23);
        let bits = |vs: Vec<Vec<f64>>| -> Vec<Vec<u64>> {
            vs.iter()
                .map(|v| v.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        let reference = bits(xs.iter().map(|x| m.forward_real_copy(x)).collect());
        for kind in BackendKind::ALL {
            // Widths ragged against the 23-vector batch.
            for width in [5usize, DEFAULT_PANEL_WIDTH] {
                assert_eq!(
                    bits(run(kind.backend(), &m, &xs, width)),
                    reference,
                    "{kind} width {width}"
                );
            }
        }
    }

    #[test]
    fn empty_panel_slices_are_a_no_op() {
        let m = mesh(4, 1);
        for kind in BackendKind::ALL {
            let mut none: Vec<Panel> = Vec::new();
            kind.backend().forward_panels(&m, &mut none);
            assert!(none.is_empty());
        }
    }

    #[test]
    fn mismatched_panel_dimensions_panic_like_the_scalar_path() {
        let m = mesh(6, 1);
        for kind in BackendKind::ALL {
            let result = std::panic::catch_unwind(|| {
                let mut bad = vec![Panel::zeros(5, 3)];
                kind.backend().forward_panels(&m, &mut bad);
            });
            assert!(result.is_err(), "{kind} must reject a 5-mode panel");
        }
    }

    #[test]
    fn descending_order_meshes_are_supported() {
        // Reversed meshes flip each layer's cascade direction — the
        // panel sweep must follow the same gate order.
        let m = mesh(9, 2).reversed();
        let xs = batch(9, 13);
        let reference = forward(BackendKind::Scalar.backend(), &m, &xs);
        assert_eq!(forward(BackendKind::Simd.backend(), &m, &xs), reference);
    }
}
