//! Parameter-update rules.
//!
//! The paper uses plain gradient descent (Eq. 9:
//! `θ(t+1) = θ(t) − η · ∂L/∂θ`), which is what `qnc train` runs from its
//! spectral start; Adam is the `paper_default` optimiser.

use crate::config::OptimizerKind;

/// Adam's denominator guard ε.
const ADAM_EPS: f64 = 1e-8;

/// A stateful first-order optimiser over a flat parameter vector.
#[derive(Debug, Clone)]
pub enum Optimizer {
    /// Plain gradient descent (paper Eq. 9).
    Gd {
        /// Learning rate η.
        learning_rate: f64,
    },
    /// Adam (Kingma & Ba) with bias correction.
    Adam {
        /// Learning rate η.
        learning_rate: f64,
        /// First-moment decay β₁.
        beta1: f64,
        /// Second-moment decay β₂.
        beta2: f64,
        /// First-moment estimate, one entry per parameter.
        m: Vec<f64>,
        /// Second-moment estimate, one entry per parameter.
        v: Vec<f64>,
        /// Steps taken.
        t: u64,
    },
}

impl Optimizer {
    /// The optimiser `kind` names over `dim` parameters, Adam's moments
    /// zeroed.
    pub fn new(kind: OptimizerKind, learning_rate: f64, dim: usize) -> Self {
        match kind {
            OptimizerKind::Gd => Optimizer::Gd { learning_rate },
            OptimizerKind::Adam { beta1, beta2 } => Optimizer::Adam {
                learning_rate,
                beta1,
                beta2,
                m: vec![0.0; dim],
                v: vec![0.0; dim],
                t: 0,
            },
        }
    }

    /// Apply one update step in place.
    ///
    /// # Panics
    /// Panics when `params` and `grad` differ in length, or (Adam) when
    /// they differ from the optimiser's dimension.
    pub fn step(&mut self, params: &mut [f64], grad: &[f64]) {
        match self {
            Optimizer::Gd { learning_rate } => {
                assert_eq!(params.len(), grad.len(), "gd: length mismatch");
                for (p, g) in params.iter_mut().zip(grad) {
                    *p -= *learning_rate * g;
                }
            }
            Optimizer::Adam {
                learning_rate,
                beta1,
                beta2,
                m,
                v,
                t,
            } => {
                assert_eq!(params.len(), grad.len(), "adam: length mismatch");
                assert_eq!(params.len(), m.len(), "adam: wrong dim");
                *t += 1;
                let bc1 = 1.0 - beta1.powi(*t as i32);
                let bc2 = 1.0 - beta2.powi(*t as i32);
                for (i, (p, g)) in params.iter_mut().zip(grad).enumerate() {
                    m[i] = *beta1 * m[i] + (1.0 - *beta1) * g;
                    v[i] = *beta2 * v[i] + (1.0 - *beta2) * g * g;
                    let mhat = m[i] / bc1;
                    let vhat = v[i] / bc2;
                    *p -= *learning_rate * mhat / (vhat.sqrt() + ADAM_EPS);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ADAM: OptimizerKind = OptimizerKind::Adam {
        beta1: 0.9,
        beta2: 0.999,
    };

    /// Quadratic bowl: L = ½‖p‖², ∇ = p. Everything should converge to 0.
    fn converges_on_quadratic(mut opt: Optimizer, iters: usize) -> f64 {
        let mut p = vec![1.0, -2.0, 0.5];
        for _ in 0..iters {
            let g = p.clone();
            opt.step(&mut p, &g);
        }
        p.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    #[test]
    fn gd_step_matches_eq9() {
        let mut gd = Optimizer::new(OptimizerKind::Gd, 0.1, 2);
        let mut p = vec![1.0, 2.0];
        gd.step(&mut p, &[10.0, -10.0]);
        assert_eq!(p, vec![0.0, 3.0]);
    }

    #[test]
    fn all_optimizers_converge_on_quadratic() {
        let gd = Optimizer::new(OptimizerKind::Gd, 0.1, 3);
        assert!(converges_on_quadratic(gd, 200) < 1e-6);
        assert!(converges_on_quadratic(Optimizer::new(ADAM, 0.1, 3), 500) < 1e-3);
    }

    #[test]
    fn adam_normalises_gradient_scale() {
        // First Adam step size is ≈ lr regardless of gradient magnitude.
        let mut a = Optimizer::new(ADAM, 0.1, 1);
        let mut p = vec![0.0];
        a.step(&mut p, &[1000.0]);
        assert!((p[0] + 0.1).abs() < 1e-3);
    }

    #[test]
    fn new_dispatches_on_the_kind() {
        assert!(matches!(
            Optimizer::new(OptimizerKind::Gd, 0.1, 4),
            Optimizer::Gd { learning_rate } if learning_rate == 0.1
        ));
        assert!(matches!(
            Optimizer::new(ADAM, 0.1, 4),
            Optimizer::Adam { beta1, beta2, ref m, t: 0, .. }
                if beta1 == 0.9 && beta2 == 0.999 && m.len() == 4
        ));
    }
}
