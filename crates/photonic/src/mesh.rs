//! The paper's layered beam-splitter mesh (Fig. 3).
//!
//! One **layer** is a cascade of `N−1` gates `U(k,k+1)` covering every
//! adjacent mode pair once ("the number of single-layer quantum gates U is
//! N−1"); a **mesh** is `l` such layers. The compression network in the
//! paper uses `l_C = 12` layers on `N = 16` modes (12 × 15 parameters) and
//! the reconstruction network `l_R = 14` (14 × 15 parameters).
//!
//! Within a layer, gates are applied to the amplitude vector in ascending
//! mode order (`k = 0, 1, …, N−2`), the diagonal cascade drawn in the
//! paper's Fig. 3. The reconstruction network connects gates "in reverse
//! order of U" (Sec. II-C), so layers also support descending application
//! order; [`Mesh::reversed`] produces exactly that reversed structure.

use crate::beamsplitter::BeamSplitter;
use crate::sequence::GateSequence;
use crate::tables::{self, MeshTables};
use qn_linalg::parallel::par_map_chunked_into;
use qn_linalg::{Matrix, Panel};
use rand::Rng;
use std::sync::OnceLock;

/// Gate application order within a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateOrder {
    /// `k = 0, 1, …, N−2` (the forward cascade of Fig. 3).
    Ascending,
    /// `k = N−2, …, 1, 0` (the reversed cascade used by `U_R`).
    Descending,
}

/// One layer: `N−1` adjacent-mode rotations with per-gate parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshLayer {
    dim: usize,
    /// Reflectivity angles, `thetas[k]` for the gate on modes `(k, k+1)`.
    thetas: Vec<f64>,
    order: GateOrder,
}

impl MeshLayer {
    /// Zero-initialised (identity) layer on `dim` modes.
    pub fn zeros(dim: usize) -> Self {
        assert!(dim >= 2, "a layer needs at least two modes");
        MeshLayer {
            dim,
            thetas: vec![0.0; dim - 1],
            order: GateOrder::Ascending,
        }
    }

    /// Layer from a complete parameter set — the exact inverse of reading
    /// [`MeshLayer::thetas`] and [`MeshLayer::order`] back. This is the
    /// reconstruction path model persistence (`qn-codec`) uses, so it
    /// must round-trip every layer a trainer or decomposition can
    /// produce, including descending-cascade layers from
    /// [`Mesh::reversed`].
    ///
    /// # Panics
    /// Panics when `thetas` is not `dim − 1` long.
    pub fn from_parts(dim: usize, thetas: Vec<f64>, order: GateOrder) -> Self {
        assert!(dim >= 2, "a layer needs at least two modes");
        assert_eq!(thetas.len(), dim - 1, "layer needs dim−1 angles");
        MeshLayer { dim, thetas, order }
    }

    /// Number of modes.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of gates (`dim − 1`).
    pub fn gate_count(&self) -> usize {
        self.thetas.len()
    }

    /// Gate application order.
    pub fn order(&self) -> GateOrder {
        self.order
    }

    /// Borrow the angles.
    pub fn thetas(&self) -> &[f64] {
        &self.thetas
    }

    /// Mode indices in application order. Allocation-free: the scalar
    /// reference walks it once per layer per lane.
    pub(crate) fn positions(&self) -> impl Iterator<Item = usize> {
        let last = self.dim - 2;
        let descending = self.order == GateOrder::Descending;
        (0..=last).map(move |k| if descending { last - k } else { k })
    }

    /// Apply the layer to real amplitudes in place.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn apply_real(&self, amps: &mut [f64]) {
        assert_eq!(amps.len(), self.dim, "layer dimension mismatch");
        for k in self.positions() {
            let (s, c) = self.thetas[k].sin_cos();
            let a = amps[k];
            let b = amps[k + 1];
            amps[k] = c * a - s * b;
            amps[k + 1] = s * a + c * b;
        }
    }
}

/// A multi-layer beam-splitter mesh — the paper's quantum network `U`.
///
/// The mesh owns its gate tables ([`Mesh::tables`]): the interferometer
/// is fixed per trained model, so each gate's `sin_cos` is a property
/// of the mesh, evaluated on first use and dropped whenever an angle
/// changes.
#[derive(Debug, Clone)]
pub struct Mesh {
    dim: usize,
    layers: Vec<MeshLayer>,
    /// Built by the first [`Mesh::tables`] call, taken by every θ
    /// setter.
    tables: OnceLock<MeshTables>,
}

/// Meshes are equal when their structure and angles are. Whether either
/// has built its gate tables is not part of the model: the codec
/// compares meshes to decide whether `U_R` is stored or derived, so
/// built tables must never change a model's bytes or id.
impl PartialEq for Mesh {
    fn eq(&self, other: &Mesh) -> bool {
        self.dim == other.dim && self.layers == other.layers
    }
}

impl Mesh {
    fn new(dim: usize, layers: Vec<MeshLayer>) -> Self {
        Mesh {
            dim,
            layers,
            tables: OnceLock::new(),
        }
    }

    /// Identity mesh: `n_layers` zero-angle layers on `dim` modes.
    pub fn zeros(dim: usize, n_layers: usize) -> Self {
        Mesh::new(dim, (0..n_layers).map(|_| MeshLayer::zeros(dim)).collect())
    }

    /// Mesh with θ drawn uniformly from `[0, 2π)` (the paper initialises θ
    /// "randomly or uniformly"; trained values stabilise in `[0, 2π]`).
    pub fn random(dim: usize, n_layers: usize, rng: &mut impl Rng) -> Self {
        let mut mesh = Mesh::zeros(dim, n_layers);
        for layer in &mut mesh.layers {
            for t in &mut layer.thetas {
                *t = rng.random::<f64>() * std::f64::consts::TAU;
            }
        }
        mesh
    }

    /// Mesh with θ drawn uniformly from `[-scale, scale]` — a small-angle
    /// initialisation that starts near the identity.
    pub fn random_small(dim: usize, n_layers: usize, scale: f64, rng: &mut impl Rng) -> Self {
        let mut mesh = Mesh::zeros(dim, n_layers);
        for layer in &mut mesh.layers {
            for t in &mut layer.thetas {
                *t = (rng.random::<f64>() * 2.0 - 1.0) * scale;
            }
        }
        mesh
    }

    /// Build from explicit layers.
    ///
    /// # Panics
    /// Panics when layers disagree on dimension.
    pub fn from_layers(layers: Vec<MeshLayer>) -> Self {
        assert!(!layers.is_empty(), "mesh needs at least one layer");
        let dim = layers[0].dim();
        assert!(
            layers.iter().all(|l| l.dim() == dim),
            "all layers must share a dimension"
        );
        Mesh::new(dim, layers)
    }

    /// Number of modes `N`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of layers `l`.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Borrow the layers.
    pub fn layers(&self) -> &[MeshLayer] {
        &self.layers
    }

    /// Total trainable θ count: `l × (N−1)` (the paper's "12×15
    /// parameters" accounting).
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.gate_count()).sum()
    }

    /// Flattened θ vector, layer-major.
    pub fn thetas(&self) -> Vec<f64> {
        self.layers
            .iter()
            .flat_map(|l| l.thetas.iter().copied())
            .collect()
    }

    /// Overwrite all θ from a flattened layer-major vector.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn set_thetas(&mut self, thetas: &[f64]) {
        assert_eq!(thetas.len(), self.param_count(), "theta length mismatch");
        self.tables.take();
        let mut it = thetas.iter();
        for layer in &mut self.layers {
            for t in &mut layer.thetas {
                *t = *it.next().expect("length checked");
            }
        }
    }

    /// θ of one gate.
    pub fn theta_at(&self, layer: usize, gate: usize) -> f64 {
        self.layers[layer].thetas[gate]
    }

    /// Set θ of one gate.
    pub fn set_theta_at(&mut self, layer: usize, gate: usize, theta: f64) {
        self.tables.take();
        self.layers[layer].thetas[gate] = theta;
    }

    /// The mesh's gate tables ([`MeshTables`]): one `sin_cos` per gate,
    /// evaluated by the first call after construction or after a θ
    /// setter, then shared by every later call until an angle changes.
    pub fn tables(&self) -> &MeshTables {
        let mut built = false;
        let tables = self.tables.get_or_init(|| {
            built = true;
            MeshTables::build(self)
        });
        tables::count_lookup(built);
        tables
    }

    /// Apply the full mesh to real amplitudes in place.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn forward_real(&self, amps: &mut [f64]) {
        for layer in &self.layers {
            layer.apply_real(amps);
        }
    }

    /// Forward pass into a fresh vector.
    pub fn forward_real_copy(&self, amps: &[f64]) -> Vec<f64> {
        let mut v = amps.to_vec();
        self.forward_real(&mut v);
        v
    }

    /// Apply the mesh forward to every lane of every panel, in place —
    /// the production pass the codec runs on encode (`U_C`) and on
    /// decode (`U_R`; the paper decodes by running the trained `U_R`
    /// forward, so there is no inverse pass).
    ///
    /// A non-empty call looks up the gate tables once ([`Mesh::tables`])
    /// and runs their blocked kernel over the panels on the thread pool,
    /// one panel per chunk; a single panel runs on the calling thread,
    /// and an empty slice does nothing. Identity gates (`θ = ±0.0`,
    /// roughly half the gate slots of an ASAP-packed spectral model)
    /// are skipped, and the surviving rotations sweep the lanes in
    /// explicit [`LANE_BLOCK`](qn_linalg::panel::LANE_BLOCK)-wide
    /// blocks. One call carries one request's panels, and panels may
    /// differ in width (the last one is usually narrower), so a lane's
    /// result depends on nothing but that lane and the mesh.
    ///
    /// # Contract: `ZeroSignOnly` against [`Mesh::forward_real`]
    ///
    /// For every mesh and every panel slice, lane `l` of panel `p` after
    /// the pass matches [`Mesh::forward_real_copy`] of that lane's input
    /// column, whatever the thread count, panel widths or panel count:
    ///
    /// - every output compares equal under `f64 ==` — the absolute
    ///   difference is exactly `0.0`, a zero tolerance budget;
    /// - bits may differ only where both values are IEEE zeros.
    ///
    /// Skipping an identity gate keeps an amplitude's stored bits where
    /// the reference computes `1·a − 0·b` / `0·a + 1·b`, which can
    /// rewrite `-0.0` to `+0.0`. On meshes without identity gates the
    /// pass is bit-identical to the reference. Quantization and the
    /// pixel decode cannot tell `-0.0` from `+0.0`, so `.qnc` containers
    /// encode and decode byte-identically under this pass and under the
    /// per-lane reference; this crate's tests, the codec conformance
    /// properties and the golden vectors enforce all of it.
    ///
    /// # Panics
    /// Panics when a panel's dimension differs from [`Mesh::dim`], like
    /// the reference; malformed file input must be rejected before it
    /// reaches a mesh.
    pub fn forward_panels(&self, panels: &mut [Panel]) {
        if panels.is_empty() {
            return;
        }
        let tables = self.tables();
        par_map_chunked_into(panels, 1, |_, block| {
            block
                .iter_mut()
                .for_each(|p| tables.forward_panel_blocked(p));
        });
    }

    /// The mesh with gates connected in reverse order (paper Sec. II-C:
    /// "the reconstruction network U_R can be the combination of the
    /// quantum gates in the compression network, connected in reverse
    /// order"): layers reversed, each layer's cascade direction flipped.
    pub fn reversed(&self) -> Mesh {
        let layers = self
            .layers
            .iter()
            .rev()
            .map(|l| MeshLayer {
                dim: l.dim,
                thetas: l.thetas.clone(),
                order: match l.order {
                    GateOrder::Ascending => GateOrder::Descending,
                    GateOrder::Descending => GateOrder::Ascending,
                },
            })
            .collect();
        Mesh::new(self.dim, layers)
    }

    /// The flat `(layer, mode)` gate order of the whole mesh, as applied
    /// to an amplitude vector. The flattened parameter index of gate
    /// `(layer, mode)` is `layer · (N−1) + mode`, matching
    /// [`Mesh::thetas`]. Used by reverse-mode (backprop) gradients in
    /// `qn-core`.
    pub fn flat_gates(&self) -> Vec<(usize, usize)> {
        let mut order = Vec::with_capacity(self.param_count());
        for (li, l) in self.layers.iter().enumerate() {
            for k in l.positions() {
                order.push((li, k));
            }
        }
        order
    }

    /// Pack an arbitrary [`GateSequence`] into mesh layers by ASAP list
    /// scheduling: each gate is placed in the earliest layer after the
    /// last use of either of its modes. Gates sharing a mode (the only
    /// non-commuting pairs) keep their relative order across layers, and
    /// gates within one layer act on disjoint mode pairs, so the layer's
    /// fixed ascending application order reproduces the sequence exactly.
    /// Unused positions stay θ = 0 (identity). The resulting depth is the
    /// sequence's critical path — ≈ N layers for a Clements-pattern
    /// sequence.
    ///
    /// Returns the mesh together with the sequence's trailing sign
    /// diagonal, which the rigid layer structure cannot absorb; callers
    /// that only care about probability patterns (e.g. the trash-penalty
    /// compression loss) may ignore it, since `|±x|² = |x|²`.
    pub fn from_sequence_packed(seq: &GateSequence) -> (Mesh, Option<Vec<f64>>) {
        let dim = seq.dim();
        let mut layers: Vec<MeshLayer> = Vec::new();
        // Index of the first layer still available for each mode.
        let mut ready: Vec<usize> = vec![0; dim];
        for g in seq.gates() {
            let slot = ready[g.mode].max(ready[g.mode + 1]);
            if slot == layers.len() {
                layers.push(MeshLayer::zeros(dim));
            }
            layers[slot].thetas[g.mode] = g.theta;
            ready[g.mode] = slot + 1;
            ready[g.mode + 1] = slot + 1;
        }
        if layers.is_empty() {
            layers.push(MeshLayer::zeros(dim));
        }
        (Mesh::new(dim, layers), seq.signs().map(|s| s.to_vec()))
    }

    /// Flatten to a [`GateSequence`] (loses nothing; [`Mesh::as_matrix`]
    /// builds the mesh's matrix from it).
    pub fn to_sequence(&self) -> GateSequence {
        let mut seq = GateSequence::new(self.dim);
        for l in &self.layers {
            for k in l.positions() {
                seq.push(BeamSplitter::real(k, l.thetas[k]));
            }
        }
        seq
    }

    /// Dense orthogonal matrix of the whole mesh.
    pub fn as_matrix(&self) -> Matrix {
        self.to_sequence().as_matrix()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_linalg::panel::{pack, unpack, DEFAULT_PANEL_WIDTH};
    use qn_linalg::vector::norm2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TOL: f64 = 1e-12;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn paper_parameter_counts() {
        // l_C = 12 layers on N = 16 modes → 12 × 15 parameters.
        let uc = Mesh::zeros(16, 12);
        assert_eq!(uc.param_count(), 12 * 15);
        // l_R = 14 layers → 14 × 15 parameters.
        let ur = Mesh::zeros(16, 14);
        assert_eq!(ur.param_count(), 14 * 15);
    }

    #[test]
    fn zero_mesh_is_identity() {
        let m = Mesh::zeros(8, 3);
        let v0 = vec![0.5, -0.1, 0.3, 0.2, 0.0, 0.7, -0.2, 0.1];
        let mut v = v0.clone();
        m.forward_real(&mut v);
        assert_eq!(v, v0);
        assert!(m.as_matrix().max_abs_diff(&Matrix::identity(8)).unwrap() < TOL);
    }

    #[test]
    fn forward_preserves_norm() {
        let m = Mesh::random(16, 4, &mut rng());
        let mut v = vec![0.25; 16];
        let n0 = norm2(&v);
        m.forward_real(&mut v);
        assert!((norm2(&v) - n0).abs() < TOL);
    }

    #[test]
    fn mesh_matrix_is_orthogonal() {
        let m = Mesh::random(8, 3, &mut rng());
        assert!(m.as_matrix().is_orthogonal(1e-11));
    }

    #[test]
    fn theta_get_set_roundtrip() {
        let mut m = Mesh::random(6, 2, &mut rng());
        let t = m.thetas();
        assert_eq!(t.len(), 10);
        let mut m2 = Mesh::zeros(6, 2);
        m2.set_thetas(&t);
        assert_eq!(m2.thetas(), t);
        assert_eq!(m2, m);
        m.set_theta_at(1, 3, 9.0);
        assert_eq!(m.theta_at(1, 3), 9.0);
    }

    #[test]
    #[should_panic(expected = "theta length mismatch")]
    fn set_thetas_validates_length() {
        Mesh::zeros(4, 1).set_thetas(&[0.0; 5]);
    }

    #[test]
    fn reversed_mesh_reverses_application_order() {
        // For a single layer, reversed() applies the same gates in the
        // opposite cascade direction — different operator in general.
        let m = Mesh::random(5, 1, &mut rng());
        let r = m.reversed();
        assert_eq!(r.layers()[0].order(), GateOrder::Descending);
        let a = m.as_matrix();
        let b = r.as_matrix();
        assert!(a.max_abs_diff(&b).unwrap() > 1e-3);
        // Reversing twice restores the original.
        assert_eq!(r.reversed(), m);
    }

    #[test]
    fn reversed_of_inverse_angles_is_inverse() {
        // U⁻¹ = reversed structure with negated angles.
        let m = Mesh::random(6, 3, &mut rng());
        let mut rinv = m.reversed();
        let negated: Vec<f64> = rinv.thetas().iter().map(|t| -t).collect();
        rinv.set_thetas(&negated);
        let prod = m.as_matrix().matmul(&rinv.as_matrix()).unwrap();
        assert!(prod.max_abs_diff(&Matrix::identity(6)).unwrap() < 1e-11);
    }

    #[test]
    fn to_sequence_matches_mesh() {
        let m = Mesh::random(6, 2, &mut rng());
        let seq = m.to_sequence();
        assert_eq!(seq.len(), 2 * 5);
        let x: Vec<f64> = (0..6).map(|i| (i as f64) * 0.1 - 0.2).collect();
        let mut v1 = x.clone();
        m.forward_real(&mut v1);
        let mut v2 = x;
        seq.apply_real(&mut v2);
        for (a, b) in v1.iter().zip(&v2) {
            assert!((a - b).abs() < TOL);
        }
    }

    #[test]
    fn packed_mesh_reproduces_sequence() {
        use crate::beamsplitter::BeamSplitter;
        use crate::sequence::GateSequence;
        // A deliberately awkward order with overlapping and disjoint gates.
        let mut seq = GateSequence::new(6);
        for (k, t) in [
            (2usize, 0.3),
            (4, -0.7), // disjoint from (2,3): same layer
            (3, 1.1),  // overlaps both: new layer
            (0, 0.5),  // disjoint: joins second layer
            (0, 0.2),  // overlaps itself: third layer
        ] {
            seq.push(BeamSplitter::real(k, t));
        }
        let (mesh, signs) = Mesh::from_sequence_packed(&seq);
        assert!(signs.is_none());
        // ASAP scheduling: (2,·) and (4,·) share layer 0 with (0, 0.5);
        // (3,·) and the second (0,·) land in layer 1.
        assert_eq!(mesh.n_layers(), 2);
        let x: Vec<f64> = (0..6).map(|i| ((i * i) as f64 * 0.1).sin()).collect();
        let mut via_seq = x.clone();
        seq.apply_real(&mut via_seq);
        let via_mesh = mesh.forward_real_copy(&x);
        for (a, b) in via_seq.iter().zip(&via_mesh) {
            assert!((a - b).abs() < TOL);
        }
    }

    #[test]
    fn packed_mesh_from_decomposition_matches_up_to_signs() {
        let u = qn_linalg::random::random_orthogonal(8, 21);
        let seq = crate::clements::clements_decompose(&u, 1e-10).unwrap();
        let (mesh, signs) = Mesh::from_sequence_packed(&seq);
        // mesh followed by the sign diagonal reproduces U exactly.
        let mut m = mesh.as_matrix();
        if let Some(s) = signs {
            for (i, &si) in s.iter().enumerate() {
                for j in 0..8 {
                    let v = m.get(i, j) * si;
                    m.set(i, j, v);
                }
            }
        }
        assert!(m.max_abs_diff(&u).unwrap() < 1e-10);
        // Rectangular packing stays shallow: about N layers.
        assert!(mesh.n_layers() <= 10, "layers = {}", mesh.n_layers());
    }

    #[test]
    fn small_random_init_is_near_identity() {
        let m = Mesh::random_small(8, 2, 0.01, &mut rng());
        let d = m.as_matrix().max_abs_diff(&Matrix::identity(8)).unwrap();
        assert!(d < 0.1);
        assert!(d > 0.0);
    }

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

    /// `xs` packed into `width`-lane panels, passed through
    /// [`Mesh::forward_panels`], and unpacked again.
    fn run(m: &Mesh, xs: &[Vec<f64>], width: usize) -> Vec<Vec<f64>> {
        let mut panels = pack(xs, width);
        m.forward_panels(&mut panels);
        unpack(&panels)
    }

    /// The per-lane reference, [`Mesh::forward_real`].
    fn reference(m: &Mesh, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        xs.iter().map(|x| m.forward_real_copy(x)).collect()
    }

    #[test]
    fn panel_widths_including_one_agree_with_scalar() {
        let m = mesh(6, 2);
        let xs = batch(6, 7);
        let want = reference(&m, &xs);
        for width in [1usize, 2, 3, 4, 5, 7, 8, 64] {
            assert_eq!(run(&m, &xs, width), want, "width {width}");
        }
    }

    #[test]
    fn simd_epsilon_budget_is_exactly_zero_and_divergence_is_zero_signs_only() {
        // The ZeroSignOnly contract, pinned bit-by-bit: on a mesh that
        // mixes identity (θ = 0) and active gates — the shape
        // ASAP-packed spectral models have — every panel output must
        // (a) compare equal to the per-lane reference under `==`
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
            let want = reference(&m, &xs);
            let got = run(&m, &xs, DEFAULT_PANEL_WIDTH);
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

    #[test]
    fn all_backends_match_the_scalar_reference_bitwise() {
        // A random mesh has no identity gates, so the pass prunes
        // nothing and must reproduce the reference bit for bit.
        let m = mesh(10, 3);
        let xs = batch(10, 23);
        let bits = |vs: Vec<Vec<f64>>| -> Vec<Vec<u64>> {
            vs.iter()
                .map(|v| v.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        let want = bits(reference(&m, &xs));
        // Widths ragged against the 23-vector batch.
        for width in [5usize, DEFAULT_PANEL_WIDTH] {
            assert_eq!(bits(run(&m, &xs, width)), want, "width {width}");
        }
    }

    #[test]
    fn empty_panel_slices_are_a_no_op() {
        let mut none: Vec<Panel> = Vec::new();
        mesh(4, 1).forward_panels(&mut none);
        assert!(none.is_empty());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_panel_dimensions_panic_like_the_scalar_path() {
        mesh(6, 1).forward_panels(&mut [Panel::zeros(5, 3)]);
    }

    #[test]
    fn descending_order_meshes_are_supported() {
        // Reversed meshes flip each layer's cascade direction — the
        // panel sweep must follow the same gate order.
        let m = mesh(9, 2).reversed();
        let xs = batch(9, 13);
        assert_eq!(run(&m, &xs, DEFAULT_PANEL_WIDTH), reference(&m, &xs));
    }
}
