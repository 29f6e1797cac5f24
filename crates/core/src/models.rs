//! The paper's classifier architectures and training wrappers.
//!
//! - **LSTM** (Section III-B-1): an LSTM layer with 16 units and ELU
//!   activation over sequence windows of 5 × 6 features, dropout 0.2,
//!   seven dense layers of 32, 96, 32, 16, 112, 48 and 64 ELU units, and
//!   a 3-way softmax head.
//! - **MLP** (Section III-B-2): a 32-unit ReLU dense layer and the same
//!   3-way softmax head, over pointwise 6-feature inputs.
//!
//! Both compile with Adam (lr 0.003) and focal loss against the thick-ice
//! class imbalance; metrics are accuracy / precision / recall / F1
//! (Table III) plus the per-class confusion matrix (Figure 4).

use icesat_scene::SurfaceClass;
use neurite::{
    confusion_matrix, Activation, Adam, Batcher, ClassificationReport, ConfusionMatrix, Dataset,
    Dense, Dropout, FocalLoss, Lstm, Matrix, Optimizer, Sequential, Standardizer,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::features::{N_FEATURES, SEQ_LEN};

/// Which of the paper's two architectures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelKind {
    /// Sequence LSTM (the paper's winner, 96.56%).
    PaperLstm,
    /// Pointwise MLP (91.80%).
    PaperMlp,
}

impl ModelKind {
    /// Input width the architecture expects.
    pub fn input_dim(self) -> usize {
        match self {
            ModelKind::PaperLstm => SEQ_LEN * N_FEATURES,
            ModelKind::PaperMlp => N_FEATURES,
        }
    }

    /// `true` when the model consumes sequence windows.
    pub fn is_sequence(self) -> bool {
        matches!(self, ModelKind::PaperLstm)
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::PaperLstm => "LSTM",
            ModelKind::PaperMlp => "MLP",
        }
    }
}

/// The paper's LSTM architecture.
pub fn paper_lstm(seed: u64) -> Sequential {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Sequential::new()
        .add(Lstm::new(
            N_FEATURES,
            16,
            SEQ_LEN,
            Activation::Elu,
            &mut rng,
        ))
        .add(Dropout::new(0.2, seed ^ 0xD0D0))
        .add(Dense::new(16, 32, Activation::Elu, &mut rng))
        .add(Dense::new(32, 96, Activation::Elu, &mut rng))
        .add(Dense::new(96, 32, Activation::Elu, &mut rng))
        .add(Dense::new(32, 16, Activation::Elu, &mut rng))
        .add(Dense::new(16, 112, Activation::Elu, &mut rng))
        .add(Dense::new(112, 48, Activation::Elu, &mut rng))
        .add(Dense::new(48, 64, Activation::Elu, &mut rng))
        .add(Dense::new(
            64,
            SurfaceClass::COUNT,
            Activation::Linear,
            &mut rng,
        ))
}

/// The paper's MLP architecture.
pub fn paper_mlp(seed: u64) -> Sequential {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Sequential::new()
        .add(Dense::new(N_FEATURES, 32, Activation::Relu, &mut rng))
        .add(Dropout::new(0.2, seed ^ 0xD1D1))
        .add(Dense::new(
            32,
            SurfaceClass::COUNT,
            Activation::Linear,
            &mut rng,
        ))
}

/// Builds the architecture for `kind`.
pub fn build_model(kind: ModelKind, seed: u64) -> Sequential {
    match kind {
        ModelKind::PaperLstm => paper_lstm(seed),
        ModelKind::PaperMlp => paper_mlp(seed),
    }
}

/// Training hyper-parameters (paper defaults).
#[derive(Debug, Clone, PartialEq, Copy, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Epochs (paper: 20).
    pub epochs: usize,
    /// Batch size (paper: 32).
    pub batch_size: usize,
    /// Adam learning rate (paper: 0.003).
    pub learning_rate: f32,
    /// Focal-loss γ.
    pub focal_gamma: f32,
    /// Seed for init and shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 20,
            batch_size: 32,
            learning_rate: 0.003,
            focal_gamma: 2.0,
            seed: 0,
        }
    }
}

/// A trained classifier bundling the model with its input standardiser.
pub struct TrainedClassifier {
    /// Which architecture.
    pub kind: ModelKind,
    /// The trained network.
    pub model: Sequential,
    /// Feature standardiser fitted on the training split.
    pub standardizer: Standardizer,
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
}

impl TrainedClassifier {
    /// Predicts classes for raw (unstandardised) features.
    pub fn predict(&mut self, x: &Matrix) -> Vec<usize> {
        let z = self.standardizer.transform(x);
        self.model.predict(&z)
    }

    /// Evaluates on a raw test set, returning the weighted report and the
    /// confusion matrix.
    pub fn evaluate(&mut self, test: &Dataset) -> (ClassificationReport, ConfusionMatrix) {
        let preds = self.predict(&test.x);
        let m = confusion_matrix(&test.y, &preds, SurfaceClass::COUNT);
        (ClassificationReport::from_confusion(&m), m)
    }
}

/// Trains one of the paper's architectures on `train` (raw features;
/// standardisation is fitted inside). Uses focal loss with
/// inverse-frequency α.
pub fn train_classifier(kind: ModelKind, train: &Dataset, cfg: &TrainConfig) -> TrainedClassifier {
    assert_eq!(
        train.dim(),
        kind.input_dim(),
        "dataset layout does not match architecture"
    );
    let (standardizer, x) = Standardizer::fit_transform(&train.x);
    let std_train = Dataset::new(x, train.y.clone());
    let alpha = std_train.inverse_frequency_weights(SurfaceClass::COUNT);
    let loss = FocalLoss::with_alpha(
        cfg.focal_gamma,
        alpha.iter().map(|&a| a.max(1e-3)).collect(),
    );
    let mut model = build_model(kind, cfg.seed);
    let mut opt = Adam::new(cfg.learning_rate);
    opt.reserve(model.n_params());
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    // One batcher and one pair of batch buffers serve every epoch — the
    // epoch loop allocates nothing once the model workspace is warm.
    let mut batcher = Batcher::new(std_train.len(), cfg.batch_size);
    let mut bx = Matrix::zeros(0, 0);
    let mut by = Vec::with_capacity(cfg.batch_size);
    for epoch in 0..cfg.epochs {
        let mut sum = 0.0f32;
        let mut count = 0usize;
        batcher.shuffle(cfg.seed ^ epoch as u64);
        while batcher.next_into(&std_train, &mut bx, &mut by) {
            sum += model.train_step(&bx, &by, &loss, &mut opt);
            count += 1;
        }
        epoch_losses.push(if count > 0 { sum / count as f32 } else { 0.0 });
    }
    TrainedClassifier {
        kind,
        model,
        standardizer,
        epoch_losses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Synthetic feature generator mimicking the class-conditional
    /// structure of real segments (thick ice high/rough, water at sea
    /// level/smooth), with label imbalance like the Ross Sea.
    fn synthetic_dataset(n: usize, seed: u64, sequence: bool) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let dim = if sequence {
            SEQ_LEN * N_FEATURES
        } else {
            N_FEATURES
        };
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let u: f64 = rng.random();
            let class = if u < 0.7 {
                SurfaceClass::ThickIce
            } else if u < 0.85 {
                SurfaceClass::ThinIce
            } else {
                SurfaceClass::OpenWater
            };
            let (h, std, nh, bg) = match class {
                SurfaceClass::ThickIce => (0.35, 0.14, 8.0, 1.0),
                SurfaceClass::ThinIce => (0.06, 0.06, 4.0, 1.5),
                SurfaceClass::OpenWater => (0.0, 0.04, 1.5, 2.0),
            };
            let mut features = Vec::with_capacity(dim);
            let steps = if sequence { SEQ_LEN } else { 1 };
            for _ in 0..steps {
                features.push((h + rng.random_range(-0.05..0.05)) as f32);
                features.push((std + rng.random_range(-0.02..0.02f64)).max(0.0) as f32);
                features.push((nh + rng.random_range(-1.5..1.5f64)).max(0.0) as f32);
                features.push(rng.random_range(-0.3..0.3));
                features.push((bg + rng.random_range(-0.5..0.5f64)).max(0.0) as f32);
                features.push(rng.random_range(-0.2..0.2));
            }
            rows.push(features);
            labels.push(class.index());
        }
        Dataset::new(Matrix::from_rows(&rows), labels)
    }

    fn quick_cfg(seed: u64) -> TrainConfig {
        TrainConfig {
            epochs: 8,
            seed,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn architectures_have_paper_shapes() {
        let lstm = paper_lstm(0);
        // LSTM + dropout + 7 hidden dense + output = 10 layers.
        assert_eq!(lstm.n_layers(), 10);
        let mlp = paper_mlp(0);
        assert_eq!(mlp.n_layers(), 3);
        // Forward shape check.
        let mut lstm = lstm;
        let out = lstm.forward(&Matrix::zeros(4, SEQ_LEN * N_FEATURES), false);
        assert_eq!((out.rows(), out.cols()), (4, 3));
        let mut mlp = mlp;
        let out = mlp.forward(&Matrix::zeros(4, N_FEATURES), false);
        assert_eq!((out.rows(), out.cols()), (4, 3));
    }

    #[test]
    fn mlp_trains_to_high_accuracy() {
        let train = synthetic_dataset(1500, 1, false);
        let test = synthetic_dataset(400, 2, false);
        let mut clf = train_classifier(ModelKind::PaperMlp, &train, &quick_cfg(3));
        let (report, _) = clf.evaluate(&test);
        assert!(report.accuracy > 0.85, "MLP accuracy {}", report.accuracy);
        // Loss decreased.
        assert!(clf.epoch_losses.last().unwrap() < &clf.epoch_losses[0]);
    }

    #[test]
    fn lstm_trains_to_high_accuracy() {
        let train = synthetic_dataset(1200, 5, true);
        let test = synthetic_dataset(300, 6, true);
        let mut clf = train_classifier(ModelKind::PaperLstm, &train, &quick_cfg(7));
        let (report, m) = clf.evaluate(&test);
        assert!(report.accuracy > 0.85, "LSTM accuracy {}", report.accuracy);
        // Majority class (thick ice) recall should be the highest —
        // the Fig. 4 ordering.
        assert!(
            m.recall(0) >= m.recall(2),
            "thick {} open {}",
            m.recall(0),
            m.recall(2)
        );
    }

    #[test]
    fn evaluation_report_is_weighted() {
        let train = synthetic_dataset(800, 9, false);
        let mut clf = train_classifier(ModelKind::PaperMlp, &train, &quick_cfg(11));
        let (report, m) = clf.evaluate(&train);
        assert!((report.accuracy - m.accuracy()).abs() < 1e-12);
        assert!(report.f1 > 0.0 && report.f1 <= 1.0);
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let train = synthetic_dataset(400, 13, false);
        let a = train_classifier(ModelKind::PaperMlp, &train, &quick_cfg(15));
        let b = train_classifier(ModelKind::PaperMlp, &train, &quick_cfg(15));
        assert_eq!(a.epoch_losses, b.epoch_losses);
        assert_eq!(a.model.flat_params(), b.model.flat_params());
    }

    /// FNV-1a over the little-endian bit patterns of `values`.
    fn fnv_bits(values: impl IntoIterator<Item = u32>) -> String {
        let h = values
            .into_iter()
            .flat_map(u32::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        format!("{h:016x}")
    }

    #[test]
    fn paper_lstm_inference_matches_golden_fingerprint() {
        // Pins the inference bits of the paper LSTM on 3000 rows (three
        // predict chunks): logits from one whole-matrix forward, softmax
        // probabilities, and the chunked argmax. The hex was generated by
        // the forward that still kept backward caches and dispatched
        // matmuls to threads; the cache-free forward must reproduce it.
        let x = synthetic_dataset(3000, 41, true).x;
        let mut model = paper_lstm(43);
        let logits = model.forward(&x, false);
        let proba = model.predict_proba(&x);
        let classes = model.predict(&x);
        assert_eq!(
            fnv_bits(logits.data().iter().map(|v| v.to_bits())),
            "d09746aec9aa5ca7"
        );
        assert_eq!(
            fnv_bits(proba.data().iter().map(|v| v.to_bits())),
            "93334ab612e5bf88"
        );
        assert_eq!(
            fnv_bits(classes.iter().map(|&c| c as u32)),
            "7b43dca3d6999b55"
        );
    }

    #[test]
    #[should_panic(expected = "does not match architecture")]
    fn dataset_layout_checked() {
        let train = synthetic_dataset(100, 17, false); // pointwise layout
        let _ = train_classifier(ModelKind::PaperLstm, &train, &quick_cfg(19));
    }
}
