//! Dictionaries for sparse coding.

use qn_linalg::{vector, Matrix};
use rand::Rng;

/// A dictionary of unit-norm atoms, stored as the columns of an `N × K`
/// matrix (`N` = signal dimension, `K` = atom count; the paper uses a
/// square 16×16 dictionary).
#[derive(Debug, Clone, PartialEq)]
pub struct Dictionary {
    atoms: Matrix,
}

impl Dictionary {
    /// Wrap a matrix as a dictionary, normalising every column to unit
    /// norm (zero columns are replaced by a unit basis vector).
    pub fn from_matrix(mut atoms: Matrix) -> Self {
        let (n, k) = atoms.shape();
        for j in 0..k {
            let mut col = atoms.col(j);
            let norm = vector::normalize(&mut col);
            if norm == 0.0 {
                col = vec![0.0; n];
                col[j % n] = 1.0;
            }
            atoms.set_col(j, &col);
        }
        Dictionary { atoms }
    }

    /// Random Gaussian dictionary with unit-norm atoms.
    pub fn random(n: usize, k: usize, rng: &mut impl Rng) -> Self {
        let m = qn_linalg::random::gaussian_matrix(n, k, rng);
        Dictionary::from_matrix(m)
    }

    /// Initialise from data samples (columns = first `k` samples), the
    /// standard K-SVD warm start. Falls back to random atoms when there
    /// are fewer samples than atoms.
    pub fn from_samples(samples: &[Vec<f64>], k: usize, rng: &mut impl Rng) -> Self {
        let n = samples.first().map_or(0, Vec::len);
        let mut m = qn_linalg::random::gaussian_matrix(n, k, rng);
        for (j, sample) in samples.iter().take(k).enumerate() {
            m.set_col(j, sample);
        }
        Dictionary::from_matrix(m)
    }

    /// Signal dimension `N`.
    pub fn signal_dim(&self) -> usize {
        self.atoms.rows()
    }

    /// Atom count `K`.
    pub fn atom_count(&self) -> usize {
        self.atoms.cols()
    }

    /// Borrow the atom matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.atoms
    }

    /// Atom `j` as a vector.
    pub fn atom(&self, j: usize) -> Vec<f64> {
        self.atoms.col(j)
    }

    /// Overwrite atom `j` (normalised).
    pub fn set_atom(&mut self, j: usize, atom: &[f64]) {
        let mut a = atom.to_vec();
        let norm = vector::normalize(&mut a);
        if norm == 0.0 {
            a = vec![0.0; self.signal_dim()];
            a[j % self.signal_dim()] = 1.0;
        }
        self.atoms.set_col(j, &a);
    }

    /// Synthesis: `y = D s`.
    ///
    /// # Panics
    /// Panics when `code.len() != K`.
    pub fn synthesize(&self, code: &[f64]) -> Vec<f64> {
        self.atoms.matvec(code).expect("code length = atom count")
    }

    /// Correlations `Dᵀ r` of a residual with every atom.
    ///
    /// # Panics
    /// Panics when `r.len() != N`.
    pub fn correlations(&self, r: &[f64]) -> Vec<f64> {
        self.atoms
            .matvec_t(r)
            .expect("residual length = signal dim")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn atoms_are_unit_norm() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = Dictionary::random(8, 12, &mut rng);
        assert_eq!(d.signal_dim(), 8);
        assert_eq!(d.atom_count(), 12);
        for j in 0..12 {
            assert!((vector::norm2(&d.atom(j)) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_columns_are_replaced() {
        let m = Matrix::zeros(4, 4);
        let d = Dictionary::from_matrix(m);
        for j in 0..4 {
            assert!((vector::norm2(&d.atom(j)) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn synthesis_combines_atoms() {
        let d = Dictionary::from_matrix(Matrix::identity(3));
        let y = d.synthesize(&[2.0, 0.0, -1.0]);
        assert_eq!(y, vec![2.0, 0.0, -1.0]);
    }

    #[test]
    fn correlations_are_transposed_product() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = Dictionary::random(4, 6, &mut rng);
        let r = vec![1.0, -0.5, 0.25, 0.0];
        let c = d.correlations(&r);
        for (j, cj) in c.iter().enumerate() {
            let expect = vector::dot(&d.atom(j), &r);
            assert!((cj - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn sample_initialisation_uses_data() {
        let mut rng = StdRng::seed_from_u64(3);
        let samples = vec![vec![2.0, 0.0, 0.0], vec![0.0, 3.0, 0.0]];
        let d = Dictionary::from_samples(&samples, 4, &mut rng);
        // First atoms are the normalised samples.
        assert!((d.atom(0)[0] - 1.0).abs() < 1e-12);
        assert!((d.atom(1)[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn set_atom_normalises() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut d = Dictionary::random(3, 3, &mut rng);
        d.set_atom(1, &[0.0, 2.0, 0.0]);
        assert_eq!(d.atom(1), vec![0.0, 1.0, 0.0]);
        d.set_atom(2, &[0.0, 0.0, 0.0]); // degenerate → basis vector
        assert!((vector::norm2(&d.atom(2)) - 1.0).abs() < 1e-12);
    }
}
