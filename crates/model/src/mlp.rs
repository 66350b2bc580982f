//! Multi-layer perceptron with ReLU hidden layers and a linear output layer,
//! plus the gradient plumbing needed for data-parallel training (flattening
//! gradients into a single vector for the all-reduce and applying the
//! averaged result).

use dlrm_tensor::{init, ops, Initializer, Matrix, SeededRng};

/// One fully-connected layer.
#[derive(Debug, Clone, PartialEq)]
struct Linear {
    /// `in x out` weight matrix.
    w: Matrix,
    /// Per-output bias.
    b: Vec<f32>,
}

/// An MLP: `dims[0] -> dims[1] -> … -> dims.last()`, ReLU after every layer
/// except the last.
#[derive(Debug, Clone, PartialEq)]
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

/// Every layer's output gradient (masked by its ReLU), in layer order:
/// what [`Mlp::backward_chain`] hands to [`Mlp::param_grads`].
#[derive(Debug, Clone)]
pub(crate) struct MlpChain {
    grads: Vec<Matrix>,
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
    /// gradients. Runs as two halves, the input-gradient chain and then the
    /// parameter gradients over the output gradients it kept, which the
    /// model also runs apart.
    pub fn backward(&self, cache: &MlpCache, grad_output: &Matrix) -> (Matrix, MlpGrads) {
        let (grad, chain) = self.backward_chain(cache, grad_output);
        (grad, self.param_grads(cache, &chain))
    }

    /// [`Mlp::backward`] for a caller with no use for the input gradient (the
    /// bottom MLP's input is data): the same parameter gradients, without
    /// layer 0's `dY·Wᵀ`.
    pub fn backward_params(&self, cache: &MlpCache, grad_output: &Matrix) -> MlpGrads {
        self.param_grads(cache, &self.chain_to_first_layer(cache, grad_output))
    }

    /// The sequential half of [`Mlp::backward`]: the gradient w.r.t. the MLP
    /// input, and every layer's masked output gradient, kept for
    /// [`Mlp::param_grads`]. Runs the same float operations as the fused
    /// pass, so the two halves together equal it bit for bit.
    pub(crate) fn backward_chain(
        &self,
        cache: &MlpCache,
        grad_output: &Matrix,
    ) -> (Matrix, MlpChain) {
        let chain = self.chain_to_first_layer(cache, grad_output);
        (chain.grads[0].matmul_bt(&self.layers[0].w), chain)
    }

    /// The parameter half of [`Mlp::backward`]: each layer's weight gradient
    /// (`Xᵀ·dY`) and bias gradient (column sums of `dY`) over the output
    /// gradients `chain` kept. Nothing downstream of the MLP input waits on
    /// it, so a caller can run it while the input gradient is on the wire.
    pub(crate) fn param_grads(&self, cache: &MlpCache, chain: &MlpChain) -> MlpGrads {
        assert_eq!(chain.grads.len(), self.layers.len(), "chain of another MLP");
        let pairs = cache.inputs.iter().zip(&chain.grads);
        let (weights, biases) = pairs
            .map(|(input, grad)| (input.matmul_at(grad), grad.column_sums()))
            .unzip();
        MlpGrads { weights, biases }
    }

    /// Every layer's masked output gradient, from the last layer down to
    /// layer 0 (stored in layer order).
    fn chain_to_first_layer(&self, cache: &MlpCache, grad_output: &Matrix) -> MlpChain {
        let mut grads = Vec::with_capacity(self.layers.len());
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
            let below = if li > 0 {
                grad.matmul_bt(&self.layers[li].w)
            } else {
                Matrix::default()
            };
            grads.push(std::mem::replace(&mut grad, below));
        }
        grads.reverse();
        MlpChain { grads }
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
pub(crate) mod tests {
    use super::*;

    /// The fused backward pass the split replaced: each layer's parameter
    /// gradients computed as soon as its output gradient is masked,
    /// interleaved with the chain.
    pub(crate) fn fused_backward(
        mlp: &Mlp,
        cache: &MlpCache,
        grad_output: &Matrix,
    ) -> (Matrix, MlpGrads) {
        let n = mlp.layers.len();
        let mut weights = vec![Matrix::zeros(0, 0); n];
        let mut biases = vec![Vec::new(); n];
        let mut grad = grad_output.clone();
        for li in (0..n).rev() {
            if let Some(activated) = cache.inputs.get(li + 1) {
                for (g, &y) in grad.as_mut_slice().iter_mut().zip(activated.as_slice()) {
                    if y <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
            weights[li] = cache.inputs[li].matmul_at(&grad);
            biases[li] = grad.column_sums();
            grad = grad.matmul_bt(&mlp.layers[li].w);
        }
        (grad, MlpGrads { weights, biases })
    }

    pub(crate) fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    pub(crate) fn grad_bits(grads: &MlpGrads) -> Vec<u32> {
        bits(&Mlp::flatten_grads(grads))
    }

    /// Upstream gradients drawn from `±0`, `±inf`, NaN and finite values of
    /// both signs — every special case the masking and the kernels' zero
    /// skips see.
    fn special_grads(rows: usize, cols: usize, rng: &mut SeededRng) -> Matrix {
        const PALETTE: [f32; 5] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        Matrix::from_fn(rows, cols, |_, _| match rng.index(8) {
            i @ 0..=4 => PALETTE[i],
            _ => rng.normal(0.0, 1.0),
        })
    }

    #[test]
    fn split_backward_is_the_fused_backward_bit_for_bit() {
        // Tiny shapes and the benchmark's bottom and top MLPs at batch 128.
        let shapes: [(&[usize], usize); 5] = [
            (&[4, 8, 2], 3),
            (&[3, 5, 7, 1], 1),
            (&[6, 1], 4),
            (&[13, 128, 64, 32], 128),
            (&[383, 128, 64, 1], 128),
        ];
        let mut rng = SeededRng::new(41);
        for (dims, batch) in shapes {
            let mlp = Mlp::new(dims, &mut rng);
            // Zero-mean inputs: about half of every post-ReLU activation is
            // exactly zero, so the masks block about half the gradient.
            let x = Matrix::from_fn(batch, dims[0], |_, _| rng.normal(0.0, 1.0));
            let (y, cache) = mlp.forward(x);
            for hidden in &cache.inputs[1..] {
                let zeros = hidden.as_slice().iter().filter(|&&v| v == 0.0).count();
                let frac = zeros as f64 / hidden.len() as f64;
                assert!((0.2..=0.8).contains(&frac), "{dims:?}: {frac} zeros");
            }
            let finite = y.map(|v| v - 0.5);
            let special = special_grads(y.rows(), y.cols(), &mut rng);
            for upstream in [&finite, &special] {
                let (fused_in, fused) = fused_backward(&mlp, &cache, upstream);
                let (split_in, chain) = mlp.backward_chain(&cache, upstream);
                let split = mlp.param_grads(&cache, &chain);
                assert_eq!(
                    bits(split_in.as_slice()),
                    bits(fused_in.as_slice()),
                    "{dims:?}"
                );
                assert_eq!(grad_bits(&split), grad_bits(&fused), "{dims:?}");
                let params = mlp.backward_params(&cache, upstream);
                assert_eq!(grad_bits(&params), grad_bits(&fused), "{dims:?}");
                let (whole_in, whole) = mlp.backward(&cache, upstream);
                assert_eq!(bits(whole_in.as_slice()), bits(fused_in.as_slice()));
                assert_eq!(grad_bits(&whole), grad_bits(&fused), "{dims:?}");
            }
        }
    }

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
