//! Execution backends for interferometer-mesh passes.
//!
//! The codec, the trainer and every related mesh workload ultimately
//! reduce to the same primitive: apply a [`Mesh`] (or its inverse) to a
//! batch of real amplitude vectors. This crate abstracts that primitive
//! behind the [`MeshBackend`] trait with one reference and one fast
//! path:
//!
//! - [`ScalarBackend`] — the reference and test oracle: per-vector
//!   dispatch with the exact semantics of `Mesh::forward_real`;
//! - [`SimdBackend`] — the production path (the default): tiles packed
//!   into mode-major [`qn_linalg::Panel`]s, identity gates pruned, and
//!   rotations swept across the lanes in explicit blocks, with panels
//!   chunked across threads.
//!
//! Both share the content-addressed gate-table cache
//! ([`tables::cached_tables`]): per-gate `sin_cos` is evaluated once
//! per model, ever, instead of once per gate per panel per batch.
//!
//! [`BackendKind`] is the value-level selector (CLI flags, codec
//! options) that maps onto shared backend instances. On top of the
//! trait, [`MeshBatcher`] coalesces passes submitted by independent
//! callers (e.g. concurrent server requests) into single backend
//! batches — sound precisely because a backend's per-vector output
//! never depends on batch composition.
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

mod batch;
mod scalar;
mod simd;
pub mod tables;

pub use batch::{
    BatchHandle, BatchInfo, BatchKey, BatcherMetrics, FlushCause, MeshBatcher, MeshSource,
};
pub use scalar::ScalarBackend;
pub use simd::{SimdBackend, DEFAULT_PANEL_WIDTH};
pub use tables::{cached_tables, table_cache_stats, TableCacheStats};

use qn_photonic::Mesh;
use std::fmt;
use std::str::FromStr;

/// Executes mesh forward/inverse passes over batches of amplitude
/// vectors.
///
/// # Contract: `ZeroSignOnly` against the scalar reference
///
/// For every implementation, every mesh `U`, and every batch,
/// `forward_batch(U, batch)[i]` must match `U.forward_real_copy(&batch[i])`
/// (and `inverse_batch` likewise against `U.inverse_real`) for all `i`,
/// in input order, regardless of thread count, batch size or internal
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
/// Implementations panic (like the scalar reference) when a batch
/// vector's length differs from `mesh.dim()` or the mesh has complex
/// gates; malformed *file* input must be rejected by the codec layer
/// before reaching a backend.
pub trait MeshBackend: fmt::Debug + Sync {
    /// Stable human-readable name (used in logs and benchmarks).
    fn name(&self) -> &'static str;

    /// Apply `mesh` forward to every vector, returning outputs in input
    /// order.
    fn forward_batch(&self, mesh: &Mesh, batch: &[Vec<f64>]) -> Vec<Vec<f64>>;

    /// Apply the exact inverse `U⁻¹` to every vector, returning outputs
    /// in input order.
    fn inverse_batch(&self, mesh: &Mesh, batch: &[Vec<f64>]) -> Vec<Vec<f64>>;
}

/// Value-level backend selector for CLI flags and codec options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Per-vector dispatch on the calling thread: the reference.
    Scalar,
    /// Pruned gate tables + explicit lane-blocked rotations over
    /// thread-chunked panels (default).
    #[default]
    Simd,
}

/// Shared instances behind [`BackendKind::backend`].
static SCALAR: ScalarBackend = ScalarBackend;
static SIMD: SimdBackend = SimdBackend::with_width(DEFAULT_PANEL_WIDTH);

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

    /// Stable name, accepted back by [`BackendKind::from_str`].
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

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scalar" => Ok(BackendKind::Scalar),
            "simd" => Ok(BackendKind::Simd),
            other => Err(format!(
                "unknown backend {other:?} (expected scalar or simd)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn every_kind_resolves_and_names_roundtrip() {
        for kind in BackendKind::ALL {
            let backend = kind.backend();
            assert_eq!(backend.name(), kind.name());
            assert_eq!(kind.name().parse::<BackendKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        for unknown in ["serial", "parallel", "scalar-parallel", "panel", "vector"] {
            let err = unknown.parse::<BackendKind>().unwrap_err();
            assert!(err.contains("unknown backend"), "{unknown}: {err}");
            assert!(err.contains("scalar") && err.contains("simd"), "{err}");
        }
        assert_eq!(BackendKind::default(), BackendKind::Simd);
    }

    #[test]
    fn zero_width_backends_are_rejected_at_construction() {
        assert!(std::panic::catch_unwind(|| SimdBackend::with_width(0)).is_err());
    }

    #[test]
    fn simd_widths_including_one_agree_with_scalar() {
        let m = mesh(6, 2);
        let xs = batch(6, 7);
        let reference = BackendKind::Scalar.backend().forward_batch(&m, &xs);
        for width in [1usize, 2, 3, 4, 5, 7, 8, 64] {
            let backend = SimdBackend::with_width(width);
            assert_eq!(backend.forward_batch(&m, &xs), reference, "width {width}");
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
            let reference = BackendKind::Scalar.backend().forward_batch(&m, &xs);
            let inv_reference = BackendKind::Scalar.backend().inverse_batch(&m, &xs);
            let simd = BackendKind::Simd.backend();
            for (got, want) in [
                (simd.forward_batch(&m, &xs), reference),
                (simd.inverse_batch(&m, &xs), inv_reference),
            ] {
                for (g, w) in got.iter().zip(&want) {
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
    }

    #[test]
    fn all_backends_match_the_scalar_reference_bitwise() {
        // A random mesh has no identity gates, so simd prunes nothing
        // and must reproduce the reference bit for bit.
        let m = mesh(10, 3);
        let xs = batch(10, 23); // ragged against every panel width
        let bits = |vs: Vec<Vec<f64>>| -> Vec<Vec<u64>> {
            vs.iter()
                .map(|v| v.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        let reference = bits(xs.iter().map(|x| m.forward_real_copy(x)).collect());
        let inverse_reference = bits(
            xs.iter()
                .map(|x| {
                    let mut v = x.clone();
                    m.inverse_real(&mut v);
                    v
                })
                .collect(),
        );
        for kind in BackendKind::ALL {
            let b = kind.backend();
            assert_eq!(bits(b.forward_batch(&m, &xs)), reference, "{kind} forward");
            assert_eq!(
                bits(b.inverse_batch(&m, &xs)),
                inverse_reference,
                "{kind} inverse"
            );
        }
    }

    #[test]
    fn empty_batches_yield_empty_outputs() {
        let m = mesh(4, 1);
        for kind in BackendKind::ALL {
            assert!(kind.backend().forward_batch(&m, &[]).is_empty());
            assert!(kind.backend().inverse_batch(&m, &[]).is_empty());
        }
    }

    #[test]
    fn inverse_of_forward_restores_batch() {
        let m = mesh(8, 3);
        let xs = batch(8, 5);
        for kind in BackendKind::ALL {
            let b = kind.backend();
            let back = b.inverse_batch(&m, &b.forward_batch(&m, &xs));
            for (got, want) in back.iter().zip(&xs) {
                for (a, b) in got.iter().zip(want) {
                    assert!((a - b).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn default_simd_backend_uses_the_documented_width() {
        assert_eq!(SimdBackend::default().width(), DEFAULT_PANEL_WIDTH);
        assert_eq!(SimdBackend::with_width(7).width(), 7);
    }

    #[test]
    fn mismatched_vector_lengths_panic_like_the_scalar_path() {
        let m = mesh(6, 1);
        let bad = vec![vec![0.0; 5]];
        for kind in BackendKind::ALL {
            let result = std::panic::catch_unwind(|| kind.backend().forward_batch(&m, &bad));
            assert!(result.is_err(), "{kind} must reject a length-5 vector");
        }
    }

    #[test]
    fn descending_order_meshes_are_supported() {
        // Reversed meshes flip each layer's cascade direction — the
        // panel sweep must follow the same gate order.
        let m = mesh(9, 2).reversed();
        let xs = batch(9, 13);
        let reference = BackendKind::Scalar.backend().forward_batch(&m, &xs);
        assert_eq!(
            BackendKind::Simd.backend().forward_batch(&m, &xs),
            reference
        );
    }
}
