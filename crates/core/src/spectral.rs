//! Spectral (PCA-optimal) initialisation — extension A3.
//!
//! The trash-penalty compression loss is minimised exactly when `U_C`
//! rotates the dataset's top-d principal subspace onto the kept basis
//! states: the residual is then the energy outside the top-d eigenspace of
//! the second-moment matrix `Σ_i ψ_i ψ_iᵀ` (the PCA bound, Eckart–Young).
//! That optimal rotation is an explicit orthogonal matrix, and the
//! Clements decomposition (`qn-photonic::clements`) converts it *exactly*
//! into beam-splitter angles — so the network can start at the optimum
//! instead of descending to it.
//!
//! The trailing ±1 sign diagonal that the rigid mesh cannot express is
//! dropped; sign flips do not change any `|amplitude|²`, so the
//! compression loss (and the subsequent retraining of `U_R`) is
//! unaffected.

use crate::Result;
use qn_linalg::{sym_eig, Matrix, Panel};
use qn_photonic::clements::clements_decompose;
use qn_photonic::{Mesh, MeshLayer};

/// Entries of one row that [`SecondMoment::add_panel`] keeps in local
/// accumulators while it sweeps a panel's samples: sixteen `f64`s, two
/// 512-bit vector registers (or four 256-bit ones).
const ENTRY_BLOCK: usize = 16;

/// Accumulates the second-moment matrix `S = Σ_i ψ_i ψ_iᵀ` of encoded
/// samples, one sample at a time in the order given.
///
/// Only the upper triangle of a flat buffer is summed, then mirrored.
/// For finite samples that is bit-identical to summing every entry:
/// each product `ψ_i[r]·ψ_i[c]` commutes exactly, and an accumulator
/// that starts at `+0.0` never becomes `−0.0`, so the `±0` terms that
/// the zero-skip adds to one triangle and not the other change nothing.
///
/// [`SecondMoment::add_panel`] adds a panel's lanes in lane order and
/// leaves the sum bit-identical to [`SecondMoment::add`] on each lane:
/// every entry still adds its samples one at a time, in sample order,
/// skipping the samples whose row coordinate is zero. What it
/// vectorises is the independent entries of one row, never the samples
/// of one entry, since reassociating a sum would change its rounding.
#[derive(Debug, Clone)]
pub struct SecondMoment {
    /// Row-major `dim × dim`; only entries with `col ≥ row` are summed
    /// until [`SecondMoment::matrix`] mirrors them.
    acc: Matrix,
    /// Samples added so far.
    samples: usize,
    /// Sample-major copy of the panel being added: `lanes[s·stride + m]`
    /// is mode `m` of lane `s`, and the modes past `dim` up to the
    /// `stride` (the next multiple of [`ENTRY_BLOCK`]) stay zero, so
    /// every entry block reads a whole block. Reused across panels.
    lanes: Vec<f64>,
}

impl SecondMoment {
    /// An empty sum over `dim`-dimensional samples.
    pub fn new(dim: usize) -> Self {
        SecondMoment {
            acc: Matrix::zeros(dim, dim),
            samples: 0,
            lanes: Vec::new(),
        }
    }

    /// Add `x xᵀ`.
    ///
    /// # Panics
    /// Panics when `x.len()` differs from the dimension.
    pub fn add(&mut self, x: &[f64]) {
        let dim = self.acc.rows();
        assert_eq!(x.len(), dim, "second moment: sample length mismatch");
        self.samples += 1;
        let acc = self.acc.data_mut();
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let row = &mut acc[i * dim + i..(i + 1) * dim];
            for (s, &xj) in row.iter_mut().zip(&x[i..]) {
                *s += xi * xj;
            }
        }
    }

    /// Add `x xᵀ` for every lane `x` of a mode-major panel, in lane
    /// order: bit-identical to [`SecondMoment::add`] on each lane.
    ///
    /// The panel is transposed into the reused sample-major buffer, and
    /// each row's entries are then summed sixteen at a time in local
    /// accumulators over all the panel's samples. Allocates only when
    /// the panel is wider than every panel added before it.
    ///
    /// # Panics
    /// Panics when the panel's dimension differs from the moment's.
    pub fn add_panel(&mut self, panel: &Panel) {
        let dim = self.acc.rows();
        assert_eq!(panel.dim(), dim, "second moment: panel dimension mismatch");
        self.samples += panel.width();
        let stride = dim.next_multiple_of(ENTRY_BLOCK);
        self.lanes.clear();
        self.lanes.resize(stride * panel.width(), 0.0);
        for m in 0..dim {
            for (x, &v) in self.lanes.chunks_exact_mut(stride).zip(panel.row(m)) {
                x[m] = v;
            }
        }
        let acc = self.acc.data_mut();
        for i in 0..dim {
            // The blocks of row `i` start at the one holding the
            // diagonal; entries left of it are summed in the locals but
            // never stored, so the lower triangle stays as `add` leaves
            // it.
            for j0 in (i / ENTRY_BLOCK * ENTRY_BLOCK..dim).step_by(ENTRY_BLOCK) {
                let (lo, hi) = (i.max(j0), dim.min(j0 + ENTRY_BLOCK));
                let row = &mut acc[i * dim + lo..i * dim + hi];
                let mut sums = [0.0f64; ENTRY_BLOCK];
                sums[lo - j0..hi - j0].copy_from_slice(row);
                for x in self.lanes.chunks_exact(stride) {
                    let xi = x[i];
                    if xi == 0.0 {
                        continue;
                    }
                    let xj: &[f64; ENTRY_BLOCK] = x[j0..j0 + ENTRY_BLOCK]
                        .try_into()
                        .expect("the stride pads every sample to whole blocks");
                    for (s, &v) in sums.iter_mut().zip(xj) {
                        *s += xi * v;
                    }
                }
                row.copy_from_slice(&sums[lo - j0..hi - j0]);
            }
        }
    }

    /// How many samples the sum holds.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// The symmetric matrix `S`.
    pub fn matrix(&self) -> Matrix {
        let dim = self.acc.rows();
        let mut s = self.acc.clone();
        for i in 0..dim {
            for j in 0..i {
                let upper = s.get(j, i);
                s.set(i, j, upper);
            }
        }
        s
    }
}

/// Second-moment matrix `S = Σ_i ψ_i ψ_iᵀ` of encoded samples.
fn second_moment(inputs: &[Vec<f64>], dim: usize) -> Matrix {
    let mut s = SecondMoment::new(dim);
    for x in inputs {
        s.add(x);
    }
    s.matrix()
}

/// The PCA-optimal compression rotation of the second-moment matrix `s`:
/// an orthogonal `U` whose rows map the top-d principal directions onto
/// the kept basis states (the last `d`, as `P1` keeps them) and the
/// remaining directions onto the trash states.
fn pca_rotation(s: &Matrix, compressed_dim: usize) -> Result<Matrix> {
    let dim = s.rows();
    let eig = sym_eig::sym_eig(s)?;
    // Row r of U = eigenvector assigned to output dimension r. The trash
    // rows `..N − d` take eigenvectors d.. in order; the kept rows take
    // the top d (largest eigenvalues).
    let trash = dim - compressed_dim;
    let mut u = Matrix::zeros(dim, dim);
    for r in 0..dim {
        let eig_idx = if r < trash {
            compressed_dim + r
        } else {
            r - trash
        };
        for c in 0..dim {
            u.set(r, c, eig.eigenvectors.get(c, eig_idx));
        }
    }
    Ok(u)
}

/// Build a mesh initialised at the PCA-optimal rotation via the Clements
/// decomposition, padded with identity layers to at least `min_layers`.
///
/// # Errors
/// Propagates decomposition failures.
pub fn spectral_mesh(
    inputs: &[Vec<f64>],
    dim: usize,
    compressed_dim: usize,
    min_layers: usize,
) -> Result<Mesh> {
    spectral_mesh_of_moment(&second_moment(inputs, dim), compressed_dim, min_layers)
}

/// [`spectral_mesh`] from a precomputed second-moment matrix — for
/// callers that stream their samples into a [`SecondMoment`] instead of
/// collecting them.
///
/// # Errors
/// Propagates decomposition failures.
pub fn spectral_mesh_of_moment(
    s: &Matrix,
    compressed_dim: usize,
    min_layers: usize,
) -> Result<Mesh> {
    let dim = s.rows();
    let u = pca_rotation(s, compressed_dim)?;
    let seq = clements_decompose(&u, 1e-8)?;
    let (mesh, _signs) = Mesh::from_sequence_packed(&seq);
    if mesh.n_layers() >= min_layers {
        return Ok(mesh);
    }
    let mut layers: Vec<MeshLayer> = mesh.layers().to_vec();
    for _ in mesh.n_layers()..min_layers {
        layers.push(MeshLayer::zeros(dim));
    }
    Ok(Mesh::from_layers(layers))
}

/// The PCA lower bound on the summed compression loss: the total energy
/// outside the top-d eigenspace, `Σ_{k>d} λ_k` of the second-moment
/// matrix. No unitary compression can do better on this dataset.
///
/// # Errors
/// Propagates eigensolver failures.
pub fn compression_loss_lower_bound(
    inputs: &[Vec<f64>],
    dim: usize,
    compressed_dim: usize,
) -> Result<f64> {
    let s = second_moment(inputs, dim);
    let eig = sym_eig::sym_eig(&s)?;
    Ok(eig
        .eigenvalues
        .iter()
        .skip(compressed_dim)
        .map(|&l| l.max(0.0))
        .sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compression::CompressionNetwork;
    use crate::config::CompressionTargetKind;
    use crate::encoding;
    use qn_image::datasets;

    fn encoded_inputs(data: &[qn_image::GrayImage]) -> Vec<Vec<f64>> {
        encoding::encode_images(data, 16)
            .unwrap()
            .into_iter()
            .map(|e| e.amplitudes)
            .collect()
    }

    /// The full-matrix `get`/`set` accumulation the upper-triangle
    /// [`SecondMoment`] replaced — kept as its oracle.
    fn second_moment_reference(inputs: &[Vec<f64>], dim: usize) -> Matrix {
        let mut s = Matrix::zeros(dim, dim);
        for x in inputs {
            for (i, &xi) in x.iter().enumerate() {
                if xi == 0.0 {
                    continue;
                }
                for (j, &xj) in x.iter().enumerate() {
                    let v = s.get(i, j) + xi * xj;
                    s.set(i, j, v);
                }
            }
        }
        s
    }

    #[test]
    fn upper_triangle_second_moment_is_bit_identical_to_the_full_sum() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(2026);
        for case in 0..200 {
            let dim = 1 + case % 17;
            let n = rng.random_range(0..40usize);
            // Signed values with about a third exact zeros, both signs,
            // and some samples that are all zero.
            let inputs: Vec<Vec<f64>> = (0..n)
                .map(|_| {
                    (0..dim)
                        .map(|_| match rng.random_range(0..6u32) {
                            0 => 0.0,
                            1 => -0.0,
                            _ => rng.random::<f64>() * 2.0 - 1.0,
                        })
                        .collect()
                })
                .collect();
            let want = second_moment_reference(&inputs, dim);
            let got = second_moment(&inputs, dim);
            let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&got),
                bits(&want),
                "case {case}: dim {dim}, {n} samples"
            );
        }
    }

    #[test]
    fn add_panel_is_bit_identical_to_adding_each_lane() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(2028);
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for dim in [4usize, 9, 16, 25, 64, 256] {
            let mut by_lane = SecondMoment::new(dim);
            let mut by_panel = SecondMoment::new(dim);
            // Several panels into one sum, the narrowest and widest
            // among them; about a third of the coordinates are exact
            // zeros of either sign.
            let widths = [1, 64, rng.random_range(2..64), rng.random_range(2..64), 1];
            for (p, width) in widths.into_iter().enumerate() {
                let lanes: Vec<Vec<f64>> = (0..width)
                    .map(|_| {
                        (0..dim)
                            .map(|_| match rng.random_range(0..6u32) {
                                0 => 0.0,
                                1 => -0.0,
                                _ => rng.random::<f64>() * 2.0 - 1.0,
                            })
                            .collect()
                    })
                    .collect();
                for x in &lanes {
                    by_lane.add(x);
                }
                by_panel.add_panel(&Panel::from_columns(&lanes));
                assert_eq!(
                    bits(&by_panel.matrix()),
                    bits(&by_lane.matrix()),
                    "dim {dim}: panel {p} of {width} lanes"
                );
            }
        }
    }

    #[test]
    fn pca_rotation_is_orthogonal() {
        let inputs = encoded_inputs(&datasets::paper_binary_16(25));
        let u = pca_rotation(&second_moment(&inputs, 16), 4).unwrap();
        assert!(u.is_orthogonal(1e-9));
    }

    #[test]
    fn spectral_init_achieves_pca_bound_on_rank4_data() {
        // Exactly rank-4 data: the bound is ~0 and spectral init hits it.
        let data = datasets::low_rank_binary(25, 4, 4, 4, 21);
        let inputs = encoded_inputs(&data);
        let bound = compression_loss_lower_bound(&inputs, 16, 4).unwrap();
        assert!(bound < 1e-12, "bound {bound}");
        let mesh = spectral_mesh(&inputs, 16, 4, 12).unwrap();
        let net = CompressionNetwork::new(mesh, 4, CompressionTargetKind::TrashPenalty).unwrap();
        let loss = net.loss(&inputs);
        assert!(loss.sum < 1e-12, "spectral loss {}", loss.sum);
    }

    #[test]
    fn spectral_init_matches_bound_on_full_rank_data() {
        let data = datasets::paper_binary_16(25);
        let inputs = encoded_inputs(&data);
        let bound = compression_loss_lower_bound(&inputs, 16, 4).unwrap();
        assert!(bound > 0.0); // structured glyphs add off-subspace energy
        let mesh = spectral_mesh(&inputs, 16, 4, 12).unwrap();
        let net = CompressionNetwork::new(mesh, 4, CompressionTargetKind::TrashPenalty).unwrap();
        let loss = net.loss(&inputs);
        assert!(
            (loss.sum - bound).abs() < 1e-8,
            "spectral loss {} vs bound {bound}",
            loss.sum
        );
    }

    #[test]
    fn spectral_mesh_pads_to_min_layers() {
        let inputs = encoded_inputs(&datasets::paper_binary_16(25));
        let mesh = spectral_mesh(&inputs, 16, 4, 40).unwrap();
        assert_eq!(mesh.n_layers(), 40);
    }

    #[test]
    fn bound_is_monotone_in_d() {
        let inputs = encoded_inputs(&datasets::paper_binary_16(25));
        let b2 = compression_loss_lower_bound(&inputs, 16, 2).unwrap();
        let b4 = compression_loss_lower_bound(&inputs, 16, 4).unwrap();
        let b8 = compression_loss_lower_bound(&inputs, 16, 8).unwrap();
        assert!(b2 >= b4 && b4 >= b8);
        let b16 = compression_loss_lower_bound(&inputs, 16, 16).unwrap();
        assert!(b16.abs() < 1e-12);
    }
}
