//! Multi-layer perceptron with ReLU hidden layers and a linear output layer,
//! plus the gradient plumbing needed for data-parallel training (flattening
//! gradients into a single vector for the all-reduce and applying the
//! averaged result).

use dlrm_tensor::{init, ops, Initializer, Matrix, SeededRng};
use serde::{Deserialize, Serialize};

/// One fully-connected layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Linear {
    /// `in x out` weight matrix.
    w: Matrix,
    /// Per-output bias.
    b: Vec<f32>,
}

/// An MLP: `dims[0] -> dims[1] -> … -> dims.last()`, ReLU after every layer
/// except the last.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    dims: Vec<usize>,
}

/// Intermediate activations saved by [`Mlp::forward`] for the backward pass.
#[derive(Debug, Clone)]
pub struct MlpCache {
    /// `inputs[l]` is the input to layer `l` (post-activation of layer `l−1`);
    /// where it is zero, ReLU blocked layer `l−1`'s gradient.
    inputs: Vec<Matrix>,
}

/// Gradients of every layer, in layer order.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpGrads {
    /// Per-layer weight gradients.
    pub weights: Vec<Matrix>,
    /// Per-layer bias gradients.
    pub biases: Vec<Vec<f32>>,
}

impl Mlp {
    /// Create an MLP with the given layer widths (at least two entries).
    pub fn new(dims: &[usize], rng: &mut SeededRng) -> Self {
        assert!(dims.len() >= 2, "an MLP needs an input and an output width");
        assert!(dims.iter().all(|&d| d > 0), "zero-width layer");
        let layers = dims
            .windows(2)
            .map(|w| Linear {
                w: init::init_matrix(w[0], w[1], Initializer::XavierUniform, rng),
                b: vec![0.0; w[1]],
            })
            .collect();
        Self {
            layers,
            dims: dims.to_vec(),
        }
    }

    /// Layer widths this MLP was built with.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.dims[0]
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        *self.dims.last().expect("at least two dims")
    }

    /// Total parameter count (weights + biases).
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).sum()
    }

    /// Parameter count per layer (weights + bias), in the order
    /// [`Mlp::flatten_grads`] lays the layers out.
    pub fn layer_param_counts(&self) -> Vec<usize> {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).collect()
    }

    /// Forward pass. Returns the output (`batch x output_dim`) and the cache
    /// needed by [`Mlp::backward`]. Takes its input by value: it becomes the
    /// cache's first entry, as every layer's output becomes the next one.
    pub fn forward(&self, x: Matrix) -> (Matrix, MlpCache) {
        assert_eq!(x.cols(), self.input_dim(), "MLP input width mismatch");
        let mut inputs = Vec::with_capacity(self.layers.len());
        let mut current = x;
        for (li, layer) in self.layers.iter().enumerate() {
            let mut z = current.matmul(&layer.w);
            z.add_row_vector(&layer.b);
            if li + 1 < self.layers.len() {
                z.map_inplace(ops::relu);
            }
            inputs.push(std::mem::replace(&mut current, z));
        }
        (current, MlpCache { inputs })
    }

    /// Backward pass given the gradient of the loss w.r.t. the MLP output.
    /// Returns the gradient w.r.t. the MLP input and the per-layer parameter
    /// gradients.
    pub fn backward(&self, cache: &MlpCache, grad_output: &Matrix) -> (Matrix, MlpGrads) {
        let (grad, grads) = self.backward_to_first_layer(cache, grad_output);
        (grad.matmul_bt(&self.layers[0].w), grads)
    }

    /// [`Mlp::backward`] for a caller with no use for the input gradient (the
    /// bottom MLP's input is data): the same parameter gradients, without
    /// layer 0's `dY·Wᵀ`.
    pub fn backward_params(&self, cache: &MlpCache, grad_output: &Matrix) -> MlpGrads {
        self.backward_to_first_layer(cache, grad_output).1
    }

    /// Every layer's parameter gradients, and the gradient w.r.t. layer 0's
    /// output that produced the last of them.
    fn backward_to_first_layer(
        &self,
        cache: &MlpCache,
        grad_output: &Matrix,
    ) -> (Matrix, MlpGrads) {
        let mut weights = vec![Matrix::zeros(0, 0); self.layers.len()];
        let mut biases = vec![Vec::new(); self.layers.len()];
        let mut grad = grad_output.clone();
        for li in (0..self.layers.len()).rev() {
            // Output layer is linear; hidden layers pass through ReLU.
            if let Some(activated) = cache.inputs.get(li + 1) {
                for (g, &y) in grad.as_mut_slice().iter_mut().zip(activated.as_slice()) {
                    if y <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
            weights[li] = cache.inputs[li].matmul_at(&grad);
            biases[li] = grad.column_sums();
            if li > 0 {
                grad = grad.matmul_bt(&self.layers[li].w);
            }
        }
        (grad, MlpGrads { weights, biases })
    }

    /// SGD update: `param -= lr * grad`.
    pub fn apply_grads(&mut self, grads: &MlpGrads, lr: f32) {
        assert_eq!(grads.weights.len(), self.layers.len());
        for (layer, (gw, gb)) in self
            .layers
            .iter_mut()
            .zip(grads.weights.iter().zip(grads.biases.iter()))
        {
            layer.w.axpy(-lr, gw);
            for (b, g) in layer.b.iter_mut().zip(gb.iter()) {
                *b -= lr * g;
            }
        }
    }

    /// Flatten parameter gradients into one vector (weights then bias, layer
    /// by layer) — the payload of the data-parallel all-reduce.
    pub fn flatten_grads(grads: &MlpGrads) -> Vec<f32> {
        let mut out = Vec::new();
        Self::flatten_grads_into(grads, &mut out);
        out
    }

    /// Allocation-free [`Mlp::flatten_grads`]: *appends* to `out`, reusing
    /// its capacity.
    pub fn flatten_grads_into(grads: &MlpGrads, out: &mut Vec<f32>) {
        for (w, b) in grads.weights.iter().zip(grads.biases.iter()) {
            out.extend_from_slice(w.as_slice());
            out.extend_from_slice(b);
        }
    }

    /// Flatten the *parameters* into one vector, in the same layout as
    /// [`Mlp::flatten_grads`] (weights then bias, layer by layer) — the
    /// payload of a checkpoint. *Appends* to `out`, reusing its capacity.
    pub fn flatten_params_into(&self, out: &mut Vec<f32>) {
        for layer in &self.layers {
            out.extend_from_slice(layer.w.as_slice());
            out.extend_from_slice(&layer.b);
        }
    }

    /// Overwrite the parameters from a flat vector laid out as
    /// [`Mlp::flatten_params_into`] produces — checkpoint restore.
    ///
    /// # Panics
    /// Panics unless `flat.len() == self.num_params()`.
    pub fn load_flat_params(&mut self, flat: &[f32]) {
        let mut pos = 0usize;
        for layer in &mut self.layers {
            let wlen = layer.w.len();
            layer
                .w
                .as_mut_slice()
                .copy_from_slice(&flat[pos..pos + wlen]);
            pos += wlen;
            let blen = layer.b.len();
            layer.b.copy_from_slice(&flat[pos..pos + blen]);
            pos += blen;
        }
        assert_eq!(pos, flat.len(), "flat parameter length mismatch");
    }

    /// Rebuild structured gradients from a flat vector produced by
    /// [`Mlp::flatten_grads`] (shapes come from this MLP).
    pub fn unflatten_grads(&self, flat: &[f32]) -> MlpGrads {
        let mut weights = Vec::with_capacity(self.layers.len());
        let mut biases = Vec::with_capacity(self.layers.len());
        let mut pos = 0usize;
        for layer in &self.layers {
            let wlen = layer.w.len();
            weights.push(Matrix::from_vec(
                layer.w.rows(),
                layer.w.cols(),
                flat[pos..pos + wlen].to_vec(),
            ));
            pos += wlen;
            biases.push(flat[pos..pos + layer.b.len()].to_vec());
            pos += layer.b.len();
        }
        assert_eq!(pos, flat.len(), "flat gradient length mismatch");
        MlpGrads { weights, biases }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_mlp() -> Mlp {
        let mut rng = SeededRng::new(3);
        Mlp::new(&[4, 8, 2], &mut rng)
    }

    #[test]
    fn forward_shapes() {
        let mlp = tiny_mlp();
        let x = Matrix::from_fn(5, 4, |r, c| (r + c) as f32 * 0.1);
        let (y, _) = mlp.forward(x);
        assert_eq!(y.rows(), 5);
        assert_eq!(y.cols(), 2);
        assert_eq!(mlp.num_params(), 4 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        // Numerically verify dLoss/dInput where Loss = sum(output).
        let mlp = tiny_mlp();
        let x = Matrix::from_fn(3, 4, |r, c| ((r * 4 + c) as f32 * 0.3).sin());
        let (_, cache) = mlp.forward(x.clone());
        let grad_out = Matrix::filled(3, 2, 1.0);
        let (grad_in, _) = mlp.backward(&cache, &grad_out);

        let eps = 1e-3f32;
        for r in 0..3 {
            for c in 0..4 {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let fp: f32 = mlp.forward(xp).0.as_slice().iter().sum();
                let fm: f32 = mlp.forward(xm).0.as_slice().iter().sum();
                let numeric = (fp - fm) / (2.0 * eps);
                let analytic = grad_in.get(r, c);
                assert!(
                    (numeric - analytic).abs() < 2e-2,
                    "({r},{c}): numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn weight_gradient_check() {
        let mlp = tiny_mlp();
        let x = Matrix::from_fn(2, 4, |r, c| ((r + c) as f32 * 0.7).cos());
        let (_, cache) = mlp.forward(x.clone());
        let grad_out = Matrix::filled(2, 2, 1.0);
        let (_, grads) = mlp.backward(&cache, &grad_out);

        // Perturb one weight of layer 0 and compare.
        let eps = 1e-3f32;
        let mut plus = mlp.clone();
        plus.layers[0].w.set(1, 2, mlp.layers[0].w.get(1, 2) + eps);
        let mut minus = mlp.clone();
        minus.layers[0].w.set(1, 2, mlp.layers[0].w.get(1, 2) - eps);
        let fp: f32 = plus.forward(x.clone()).0.as_slice().iter().sum();
        let fm: f32 = minus.forward(x.clone()).0.as_slice().iter().sum();
        let numeric = (fp - fm) / (2.0 * eps);
        let analytic = grads.weights[0].get(1, 2);
        assert!(
            (numeric - analytic).abs() < 2e-2,
            "numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn sgd_step_reduces_simple_loss() {
        // Minimise sum(output^2) for a fixed input: a few steps must reduce it.
        let mut mlp = tiny_mlp();
        let x = Matrix::from_fn(4, 4, |r, c| (r as f32 - c as f32) * 0.2);
        let loss = |m: &Mlp| -> f32 {
            m.forward(x.clone())
                .0
                .as_slice()
                .iter()
                .map(|v| v * v)
                .sum::<f32>()
        };
        let initial = loss(&mlp);
        for _ in 0..50 {
            let (y, cache) = mlp.forward(x.clone());
            let grad_out = y.map(|v| 2.0 * v);
            let (_, grads) = mlp.backward(&cache, &grad_out);
            mlp.apply_grads(&grads, 0.01);
        }
        assert!(loss(&mlp) < initial * 0.5, "{} -> {}", initial, loss(&mlp));
    }

    #[test]
    fn flatten_unflatten_roundtrip() {
        let mlp = tiny_mlp();
        let x = Matrix::from_fn(3, 4, |r, c| (r * c) as f32 * 0.05);
        let (y, cache) = mlp.forward(x);
        let (_, grads) = mlp.backward(&cache, &y);
        let flat = Mlp::flatten_grads(&grads);
        assert_eq!(flat.len(), mlp.num_params());
        let rebuilt = mlp.unflatten_grads(&flat);
        assert_eq!(rebuilt, grads);
    }

    #[test]
    fn param_flatten_load_roundtrip() {
        let mlp = tiny_mlp();
        let mut flat = Vec::new();
        mlp.flatten_params_into(&mut flat);
        assert_eq!(flat.len(), mlp.num_params());
        let mut rng = SeededRng::new(99);
        let mut other = Mlp::new(&[4, 8, 2], &mut rng);
        assert_ne!(other, mlp);
        other.load_flat_params(&flat);
        assert_eq!(other, mlp);
    }

    #[test]
    #[should_panic]
    fn wrong_input_width_panics() {
        let mlp = tiny_mlp();
        let x = Matrix::zeros(2, 5);
        let _ = mlp.forward(x);
    }
}
