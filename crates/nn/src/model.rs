//! [`Sequential`]: a layer stack with training, prediction, and the flat
//! parameter/gradient views the distributed trainer needs.
//!
//! The model owns a [`Workspace`] that every forward/backward/train call
//! borrows scratch from, plus reusable flat parameter/gradient buffers
//! for the optimiser hand-off — so the steady-state training loop
//! performs zero per-op heap allocations once the working set is warm
//! (see [`Sequential::workspace`] for the counters tests assert on).

use crate::layers::Layer;
use crate::loss::Loss;
use crate::optim::Optimizer;
use crate::tensor::Matrix;
use crate::workspace::Workspace;

/// Rows per inference chunk in [`Sequential::predict`]: bounds the
/// intermediate activation footprint on full-track inputs (tens of
/// thousands of rows) to a cache-friendly working set (~0.4 MiB for the
/// widest paper-LSTM layer) while each layer call still covers enough
/// rows that per-call overhead (workspace `take`, loop set-up) is noise.
/// Kernels run on the calling thread; chunking adds no dispatch cost.
const PREDICT_CHUNK: usize = 1024;

/// A feed-forward stack of layers.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    ws: Workspace,
    flat_buf: Vec<f32>,
    grad_buf: Vec<f32>,
}

impl Sequential {
    /// Empty model; push layers with [`Sequential::add`].
    pub fn new() -> Self {
        Sequential {
            layers: Vec::new(),
            ws: Workspace::new(),
            flat_buf: Vec::new(),
            grad_buf: Vec::new(),
        }
    }

    /// Appends a layer (builder style).
    #[allow(clippy::should_implement_trait)]
    pub fn add(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total scalar parameter count.
    pub fn n_params(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.params().iter().map(|p| p.data().len()).sum::<usize>())
            .sum()
    }

    /// The model's scratch arena (diagnostics: allocation counters).
    pub fn workspace(&self) -> &Workspace {
        &self.ws
    }

    /// Runs the stack forward, recycling every intermediate activation
    /// through `ws`. The returned matrix is borrowed from `ws`.
    fn forward_layers(
        layers: &mut [Box<dyn Layer>],
        input: &Matrix,
        training: bool,
        ws: &mut Workspace,
    ) -> Matrix {
        let mut cur: Option<Matrix> = None;
        for layer in layers {
            let next = match &cur {
                None => layer.forward_ws(input, training, ws),
                Some(x) => layer.forward_ws(x, training, ws),
            };
            if let Some(prev) = cur.take() {
                ws.give(prev);
            }
            cur = Some(next);
        }
        cur.unwrap_or_else(|| input.clone())
    }

    /// Runs the stack backward, recycling intermediate gradients. The
    /// returned ∂L/∂input is borrowed from `ws`.
    fn backward_layers(
        layers: &mut [Box<dyn Layer>],
        grad_output: &Matrix,
        ws: &mut Workspace,
    ) -> Matrix {
        let mut cur: Option<Matrix> = None;
        for layer in layers.iter_mut().rev() {
            let next = match &cur {
                None => layer.backward_ws(grad_output, ws),
                Some(g) => layer.backward_ws(g, ws),
            };
            if let Some(prev) = cur.take() {
                ws.give(prev);
            }
            cur = Some(next);
        }
        cur.unwrap_or_else(|| grad_output.clone())
    }

    /// Forward pass through all layers.
    pub fn forward(&mut self, input: &Matrix, training: bool) -> Matrix {
        let mut ws = std::mem::take(&mut self.ws);
        let out = Self::forward_layers(&mut self.layers, input, training, &mut ws);
        self.ws = ws;
        out
    }

    /// Backward pass from ∂L/∂output; accumulates gradients in layers.
    pub fn backward(&mut self, grad_output: &Matrix) {
        let mut ws = std::mem::take(&mut self.ws);
        let gin = Self::backward_layers(&mut self.layers, grad_output, &mut ws);
        ws.give(gin);
        self.ws = ws;
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// One optimisation step on a batch. Returns the batch loss.
    pub fn train_step(
        &mut self,
        x: &Matrix,
        y: &[usize],
        loss: &dyn Loss,
        opt: &mut dyn Optimizer,
    ) -> f32 {
        let l = self.grad_step(x, y, loss);
        self.apply_grads(opt);
        l
    }

    /// Computes loss and gradients for a batch *without* applying an
    /// update — the distributed trainer's per-worker half-step (gradients
    /// are all-reduced before the optimiser runs).
    pub fn grad_step(&mut self, x: &Matrix, y: &[usize], loss: &dyn Loss) -> f32 {
        self.zero_grads();
        let mut ws = std::mem::take(&mut self.ws);
        let logits = Self::forward_layers(&mut self.layers, x, true, &mut ws);
        let (l, grad) = loss.loss_and_grad_ws(&logits, y, &mut ws);
        ws.give(logits);
        let gin = Self::backward_layers(&mut self.layers, &grad, &mut ws);
        ws.give(grad);
        ws.give(gin);
        self.ws = ws;
        l
    }

    /// Class predictions (argmax of logits) in inference mode, streamed
    /// in row chunks: activations for at most `PREDICT_CHUNK` rows are
    /// live at any time and every buffer is recycled through the model's
    /// workspace, instead of materialising the full logits matrix for the
    /// whole input.
    pub fn predict(&mut self, x: &Matrix) -> Vec<usize> {
        let mut preds = Vec::with_capacity(x.rows());
        let cols = x.cols();
        let mut ws = std::mem::take(&mut self.ws);
        let mut r0 = 0;
        while r0 < x.rows() {
            let r1 = (r0 + PREDICT_CHUNK).min(x.rows());
            let mut chunk = ws.take(r1 - r0, cols);
            chunk
                .data_mut()
                .copy_from_slice(&x.data()[r0 * cols..r1 * cols]);
            let logits = Self::forward_layers(&mut self.layers, &chunk, false, &mut ws);
            ws.give(chunk);
            for r in 0..logits.rows() {
                let row = logits.row(r);
                let arg = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap();
                preds.push(arg);
            }
            ws.give(logits);
            r0 = r1;
        }
        self.ws = ws;
        preds
    }

    /// Softmax class probabilities in inference mode.
    pub fn predict_proba(&mut self, x: &Matrix) -> Matrix {
        let logits = self.forward(x, false);
        crate::activation::softmax_rows(&logits)
    }

    /// All parameters flattened into one vector (layer order, then the
    /// layer's own parameter order).
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.n_params());
        for layer in &self.layers {
            for p in layer.params() {
                out.extend_from_slice(p.data());
            }
        }
        out
    }

    /// Writes a flat parameter vector back (inverse of
    /// [`Sequential::flat_params`]).
    pub fn set_flat_params(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.n_params(),
            "flat parameter length mismatch"
        );
        let mut offset = 0;
        for layer in &mut self.layers {
            for p in layer.params_mut() {
                let n = p.data().len();
                p.data_mut().copy_from_slice(&flat[offset..offset + n]);
                offset += n;
            }
        }
        assert_eq!(offset, flat.len(), "flat parameter length mismatch");
    }

    /// All accumulated gradients, flattened in parameter order.
    pub fn flat_grads(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.n_params());
        for layer in &self.layers {
            for g in layer.grads() {
                out.extend_from_slice(g.data());
            }
        }
        out
    }

    /// Overwrites the accumulated gradients from a flat vector (used after
    /// the distributed all-reduce).
    pub fn set_flat_grads(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.n_params(), "flat gradient length mismatch");
        let mut offset = 0;
        for layer in &mut self.layers {
            for g in layer.grads_mut() {
                let n = g.data().len();
                g.data_mut().copy_from_slice(&flat[offset..offset + n]);
                offset += n;
            }
        }
        assert_eq!(offset, flat.len(), "flat gradient length mismatch");
    }

    /// Applies an optimiser step using the currently-accumulated
    /// gradients (the distributed trainer's post-all-reduce half-step).
    /// Optimisers with segmented support update the per-layer parameter
    /// storage directly (bit-identical to the flat path, zero copies);
    /// otherwise parameters and gradients flow through the model's
    /// persistent flat buffers — no allocation once warm either way.
    pub fn apply_grads(&mut self, opt: &mut dyn Optimizer) {
        if opt.begin_step(self.n_params()) {
            let mut offset = 0;
            for layer in &mut self.layers {
                for (p, g) in layer.params_and_grads_mut() {
                    let n = g.data().len();
                    opt.step_segment(offset, p.data_mut(), g.data());
                    offset += n;
                }
            }
            return;
        }
        {
            let Sequential {
                layers,
                flat_buf,
                grad_buf,
                ..
            } = self;
            flat_buf.clear();
            grad_buf.clear();
            for layer in layers.iter() {
                for p in layer.params() {
                    flat_buf.extend_from_slice(p.data());
                }
                for g in layer.grads() {
                    grad_buf.extend_from_slice(g.data());
                }
            }
        }
        let mut params = std::mem::take(&mut self.flat_buf);
        opt.step(&mut params, &self.grad_buf);
        self.set_flat_params(&params);
        self.flat_buf = params;
    }

    /// Layer summaries (architecture printout).
    pub fn summary(&self) -> String {
        let mut s = String::new();
        for (i, l) in self.layers.iter().enumerate() {
            s.push_str(&format!("{i}: {}\n", l.describe()));
        }
        s.push_str(&format!("total params: {}", self.n_params()));
        s
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::layers::{Dense, Dropout, Lstm};
    use crate::loss::{CrossEntropy, FocalLoss};
    use crate::optim::Adam;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// A linearly separable 2-class toy problem.
    fn toy_data(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        use rand::Rng;
        let mut r = rng(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let cls = r.random_range(0..2usize);
            let cx: f32 = if cls == 0 { -1.0 } else { 1.0 };
            rows.push(vec![
                cx + r.random_range(-0.4..0.4f32),
                -cx + r.random_range(-0.4..0.4f32),
            ]);
            labels.push(cls);
        }
        (Matrix::from_rows(&rows), labels)
    }

    fn mlp(seed: u64) -> Sequential {
        let mut r = rng(seed);
        Sequential::new()
            .add(Dense::new(2, 16, Activation::Relu, &mut r))
            .add(Dense::new(16, 2, Activation::Linear, &mut r))
    }

    #[test]
    fn mlp_learns_linear_separation() {
        let (x, y) = toy_data(256, 1);
        let mut model = mlp(2);
        let mut opt = Adam::new(0.01);
        let mut first_loss = None;
        for _ in 0..60 {
            let l = model.train_step(&x, &y, &CrossEntropy, &mut opt);
            first_loss.get_or_insert(l);
        }
        let preds = model.predict(&x);
        let acc = preds.iter().zip(&y).filter(|(a, b)| a == b).count() as f64 / y.len() as f64;
        assert!(acc > 0.97, "accuracy {acc}");
        let final_loss = model.train_step(&x, &y, &CrossEntropy, &mut opt);
        assert!(final_loss < first_loss.unwrap() * 0.2, "loss did not drop");
    }

    #[test]
    fn lstm_model_trains_on_sequence_task() {
        use rand::Rng;
        // Classify whether a length-4 sequence is increasing or not —
        // impossible without order sensitivity.
        let mut r = rng(3);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..200 {
            let inc = r.random_range(0..2usize);
            let start: f32 = r.random_range(-1.0..1.0);
            let step: f32 = r.random_range(0.1..0.5);
            let seq: Vec<f32> = (0..4)
                .map(|t| {
                    if inc == 1 {
                        start + t as f32 * step
                    } else {
                        start - t as f32 * step
                    }
                })
                .collect();
            rows.push(seq);
            labels.push(inc);
        }
        let x = Matrix::from_rows(&rows);
        let mut model = Sequential::new()
            .add(Lstm::new(1, 8, 4, Activation::Tanh, &mut rng(4)))
            .add(Dense::new(8, 2, Activation::Linear, &mut rng(5)));
        let mut opt = Adam::new(0.02);
        for _ in 0..80 {
            model.train_step(&x, &labels, &FocalLoss::new(2.0), &mut opt);
        }
        let preds = model.predict(&x);
        let acc =
            preds.iter().zip(&labels).filter(|(a, b)| a == b).count() as f64 / labels.len() as f64;
        assert!(acc > 0.95, "LSTM accuracy {acc}");
    }

    #[test]
    fn flat_params_roundtrip() {
        let mut model = mlp(7);
        let params = model.flat_params();
        assert_eq!(params.len(), model.n_params());
        let doubled: Vec<f32> = params.iter().map(|v| v * 2.0).collect();
        model.set_flat_params(&doubled);
        let back = model.flat_params();
        for (a, b) in back.iter().zip(&params) {
            assert!((a - 2.0 * b).abs() < 1e-6);
        }
    }

    #[test]
    fn grad_step_then_apply_equals_train_step() {
        // The two-phase API (grad_step + apply_grads) must match
        // train_step exactly — this is what makes 1-GPU Horovod identical
        // to local training.
        let (x, y) = toy_data(64, 9);
        let mut a = mlp(11);
        let mut b = mlp(11);
        assert_eq!(a.flat_params(), b.flat_params());
        let mut opt_a = Adam::new(0.01);
        let mut opt_b = Adam::new(0.01);
        for _ in 0..5 {
            let la = a.train_step(&x, &y, &CrossEntropy, &mut opt_a);
            let lb = b.grad_step(&x, &y, &CrossEntropy);
            b.apply_grads(&mut opt_b);
            assert!((la - lb).abs() < 1e-6);
        }
        for (pa, pb) in a.flat_params().iter().zip(b.flat_params()) {
            assert!((pa - pb).abs() < 1e-6);
        }
    }

    #[test]
    fn predict_proba_rows_sum_to_one() {
        let (x, _) = toy_data(16, 13);
        let mut model = mlp(15);
        let p = model.predict_proba(&x);
        for r in 0..p.rows() {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn predict_chunking_matches_full_forward() {
        // Streamed prediction must agree with one whole-matrix forward
        // pass, including on inputs larger than one chunk.
        let (x, _) = toy_data(2500, 21);
        let mut model = mlp(22);
        let streamed = model.predict(&x);
        assert_eq!(streamed.len(), x.rows());
        let logits = model.forward(&x, false);
        let full: Vec<usize> = (0..logits.rows())
            .map(|r| {
                let row = logits.row(r);
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap()
            })
            .collect();
        assert_eq!(streamed, full);
    }

    #[test]
    fn training_loop_allocations_stabilise_after_warmup() {
        // The acceptance test for the allocation-free execution model:
        // after a warmup epoch, N more epochs of train_step + predict
        // must not grow the model's workspace at all.
        let (x, y) = toy_data(96, 17);
        let mut model = Sequential::new()
            .add(Lstm::new(1, 6, 2, Activation::Elu, &mut rng(23)))
            .add(Dropout::new(0.2, 7))
            .add(Dense::new(6, 8, Activation::Elu, &mut rng(24)))
            .add(Dense::new(8, 2, Activation::Linear, &mut rng(25)));
        let mut opt = Adam::new(0.01);
        let loss = FocalLoss::new(2.0);
        // Warmup: builds the pooled working set (including the optimiser
        // state and flat buffers).
        for _ in 0..2 {
            model.train_step(&x, &y, &loss, &mut opt);
        }
        let _ = model.predict(&x);
        let warm_allocs = model.workspace().allocations();
        let warm_pool = model.workspace().pooled_floats();
        for _ in 0..20 {
            model.train_step(&x, &y, &loss, &mut opt);
            let _ = model.predict(&x);
        }
        assert_eq!(
            model.workspace().allocations(),
            warm_allocs,
            "steady-state training loop allocated"
        );
        assert_eq!(
            model.workspace().pooled_floats(),
            warm_pool,
            "workspace capacity kept growing"
        );
    }

    #[test]
    fn predict_loop_allocations_stabilise_after_warmup() {
        // Inference twin of the training test above: once one predict
        // call has built the working set, 20 more over a multi-chunk
        // input (2500 rows: two full chunks and a short one) take every
        // buffer from the pool.
        let (x, _) = toy_data(2500, 27);
        let mut model = Sequential::new()
            .add(Lstm::new(1, 6, 2, Activation::Elu, &mut rng(28)))
            .add(Dropout::new(0.2, 7))
            .add(Dense::new(6, 8, Activation::Elu, &mut rng(29)))
            .add(Dense::new(8, 2, Activation::Linear, &mut rng(30)));
        let warm_preds = model.predict(&x);
        let warm_allocs = model.workspace().allocations();
        let warm_pool = model.workspace().pooled_floats();
        for _ in 0..20 {
            assert_eq!(model.predict(&x), warm_preds);
        }
        assert_eq!(
            model.workspace().allocations(),
            warm_allocs,
            "steady-state predict loop allocated"
        );
        assert_eq!(
            model.workspace().pooled_floats(),
            warm_pool,
            "workspace capacity kept growing"
        );
    }

    #[test]
    fn dropout_in_stack_does_not_break_inference_determinism() {
        let (x, _) = toy_data(8, 17);
        let mut model = Sequential::new()
            .add(Dense::new(2, 8, Activation::Elu, &mut rng(18)))
            .add(Dropout::new(0.2, 99))
            .add(Dense::new(8, 2, Activation::Linear, &mut rng(19)));
        let a = model.forward(&x, false);
        let b = model.forward(&x, false);
        assert_eq!(a, b);
    }

    #[test]
    fn summary_mentions_all_layers() {
        let model = mlp(21);
        let s = model.summary();
        assert!(s.matches("Dense").count() == 2);
        assert!(s.contains("total params"));
    }

    #[test]
    #[should_panic(expected = "flat parameter length mismatch")]
    fn set_flat_params_length_checked() {
        let mut model = mlp(23);
        model.set_flat_params(&[0.0; 3]);
    }
}
