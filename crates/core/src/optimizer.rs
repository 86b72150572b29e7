//! Parameter-update rules.
//!
//! The paper uses plain gradient descent (Eq. 9:
//! `θ(t+1) = θ(t) − η · ∂L/∂θ`), which is what `qnc train` runs from its
//! spectral start; Adam is the `paper_default` optimiser.

use crate::config::OptimizerKind;

/// A stateful first-order optimiser over a flat parameter vector.
pub trait Optimizer {
    /// Apply one update step in place.
    fn step(&mut self, params: &mut [f64], grad: &[f64]);
    /// The optimiser's display name (for experiment tables).
    fn name(&self) -> &'static str;
}

/// Plain gradient descent (paper Eq. 9).
#[derive(Debug, Clone)]
pub struct Gd {
    /// Learning rate η.
    pub learning_rate: f64,
}

impl Optimizer for Gd {
    fn step(&mut self, params: &mut [f64], grad: &[f64]) {
        assert_eq!(params.len(), grad.len(), "gd: length mismatch");
        for (p, g) in params.iter_mut().zip(grad) {
            *p -= self.learning_rate * g;
        }
    }

    fn name(&self) -> &'static str {
        "gd"
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate η.
    pub learning_rate: f64,
    /// First-moment decay β₁.
    pub beta1: f64,
    /// Second-moment decay β₂.
    pub beta2: f64,
    eps: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Create with zeroed moments.
    pub fn new(learning_rate: f64, beta1: f64, beta2: f64, dim: usize) -> Self {
        Adam {
            learning_rate,
            beta1,
            beta2,
            eps: 1e-8,
            m: vec![0.0; dim],
            v: vec![0.0; dim],
            t: 0,
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [f64], grad: &[f64]) {
        assert_eq!(params.len(), grad.len(), "adam: length mismatch");
        assert_eq!(params.len(), self.m.len(), "adam: wrong dim");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, (p, g)) in params.iter_mut().zip(grad).enumerate() {
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let mhat = self.m[i] / bc1;
            let vhat = self.v[i] / bc2;
            *p -= self.learning_rate * mhat / (vhat.sqrt() + self.eps);
        }
    }

    fn name(&self) -> &'static str {
        "adam"
    }
}

/// Instantiate an optimiser from its config description.
pub fn build(kind: OptimizerKind, learning_rate: f64, dim: usize) -> Box<dyn Optimizer + Send> {
    match kind {
        OptimizerKind::Gd => Box::new(Gd { learning_rate }),
        OptimizerKind::Adam { beta1, beta2 } => {
            Box::new(Adam::new(learning_rate, beta1, beta2, dim))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Quadratic bowl: L = ½‖p‖², ∇ = p. Everything should converge to 0.
    fn converges_on_quadratic(opt: &mut dyn Optimizer, iters: usize) -> f64 {
        let mut p = vec![1.0, -2.0, 0.5];
        for _ in 0..iters {
            let g = p.clone();
            opt.step(&mut p, &g);
        }
        p.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    #[test]
    fn gd_step_matches_eq9() {
        let mut gd = Gd { learning_rate: 0.1 };
        let mut p = vec![1.0, 2.0];
        gd.step(&mut p, &[10.0, -10.0]);
        assert_eq!(p, vec![0.0, 3.0]);
        assert_eq!(gd.name(), "gd");
    }

    #[test]
    fn all_optimizers_converge_on_quadratic() {
        assert!(converges_on_quadratic(&mut Gd { learning_rate: 0.1 }, 200) < 1e-6);
        assert!(converges_on_quadratic(&mut Adam::new(0.1, 0.9, 0.999, 3), 500) < 1e-3);
    }

    #[test]
    fn adam_normalises_gradient_scale() {
        // First Adam step size is ≈ lr regardless of gradient magnitude.
        let mut a = Adam::new(0.1, 0.9, 0.999, 1);
        let mut p = vec![0.0];
        a.step(&mut p, &[1000.0]);
        assert!((p[0] + 0.1).abs() < 1e-3);
    }

    #[test]
    fn build_dispatches() {
        assert_eq!(build(OptimizerKind::Gd, 0.1, 4).name(), "gd");
        assert_eq!(
            build(
                OptimizerKind::Adam {
                    beta1: 0.9,
                    beta2: 0.999
                },
                0.1,
                4
            )
            .name(),
            "adam"
        );
    }
}
