//! A small multi-layer perceptron with backpropagation.
//!
//! ReLU hidden layers, sigmoid output, binary cross-entropy loss.
//! Supports layer freezing and output re-initialization — the mechanics
//! of transfer learning (paper §III-A/C) — plus flat parameter
//! export/import for federated averaging.

use crate::linalg::sigmoid;
use medchain_data::Dataset;
use medchain_runtime::DetRng;

/// MLP architecture and training hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    /// Hidden layer widths, e.g. `[16, 8]`.
    pub hidden: Vec<usize>,
    /// Learning rate.
    pub learning_rate: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// L2 regularization.
    pub l2: f64,
    /// Initialization / shuffle seed.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            hidden: vec![16],
            learning_rate: 0.05,
            epochs: 40,
            batch_size: 32,
            l2: 1e-4,
            seed: 11,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Layer {
    /// Row-major `[out][in]` weights.
    w: Vec<Vec<f64>>,
    b: Vec<f64>,
}

impl Layer {
    fn new(inputs: usize, outputs: usize, rng: &mut DetRng) -> Layer {
        // He-style initialization.
        let scale = (2.0 / inputs as f64).sqrt();
        Layer {
            w: (0..outputs)
                .map(|_| (0..inputs).map(|_| rng.gen_range(-scale..scale)).collect())
                .collect(),
            b: vec![0.0; outputs],
        }
    }

    fn forward(&self, x: &[f64]) -> Vec<f64> {
        self.w
            .iter()
            .zip(&self.b)
            .map(|(row, b)| row.iter().zip(x).map(|(w, xi)| w * xi).sum::<f64>() + b)
            .collect()
    }

    fn param_count(&self) -> usize {
        self.w.len() * self.w.first().map_or(0, Vec::len) + self.b.len()
    }
}

/// A feed-forward binary classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Layer>,
    /// Layers with index `< frozen_below` receive no gradient updates.
    frozen_below: usize,
}

impl Mlp {
    /// Builds a network for `input_dim` features using `config`'s
    /// architecture and seed.
    pub fn new(input_dim: usize, config: &MlpConfig) -> Mlp {
        let mut rng = DetRng::from_seed(config.seed);
        let mut dims = vec![input_dim];
        dims.extend(&config.hidden);
        dims.push(1);
        let layers = dims.windows(2).map(|w| Layer::new(w[0], w[1], &mut rng)).collect();
        Mlp { layers, frozen_below: 0 }
    }

    /// Total trainable + frozen parameter count.
    fn param_count(&self) -> usize {
        self.layers.iter().map(Layer::param_count).sum()
    }

    /// Freezes every layer except the output head (transfer learning).
    pub fn freeze_feature_layers(&mut self) {
        self.frozen_below = self.layers.len().saturating_sub(1);
    }

    /// Re-initializes the output head (start of fine-tuning on a new
    /// target task).
    pub fn reinit_output(&mut self, seed: u64) {
        let mut rng = DetRng::from_seed(seed);
        let last = self.layers.last_mut().expect("at least one layer");
        let inputs = last.w.first().map_or(0, Vec::len);
        *last = Layer::new(inputs, last.w.len(), &mut rng);
    }

    /// Forward pass: per-layer post-activation outputs (ReLU hidden,
    /// sigmoid final).
    fn forward_all(&self, x: &[f64]) -> Vec<Vec<f64>> {
        let mut activations: Vec<Vec<f64>> = Vec::with_capacity(self.layers.len());
        let mut current = x.to_vec();
        for (i, layer) in self.layers.iter().enumerate() {
            let mut z = layer.forward(&current);
            if i + 1 == self.layers.len() {
                for v in &mut z {
                    *v = sigmoid(*v);
                }
            } else {
                for v in &mut z {
                    *v = v.max(0.0);
                }
            }
            activations.push(z.clone());
            current = z;
        }
        activations
    }

    /// Predicted probability for one row.
    pub fn predict_one(&self, x: &[f64]) -> f64 {
        self.forward_all(x).last().expect("output layer")[0]
    }

    /// Predicted probabilities for a dataset.
    pub fn predict(&self, data: &Dataset) -> Vec<f64> {
        data.features.iter().map(|x| self.predict_one(x)).collect()
    }

    /// Trains with mini-batch SGD and backpropagation.
    ///
    /// # Panics
    ///
    /// Panics if the dataset dimension does not match the input layer.
    pub fn train(&mut self, data: &Dataset, config: &MlpConfig) {
        if data.is_empty() {
            return;
        }
        let input_dim = self.layers[0].w.first().map_or(0, Vec::len);
        assert_eq!(data.dim(), input_dim, "dataset dimension mismatch");
        let mut rng = DetRng::from_seed(config.seed ^ 0x5eed);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let batch = config.batch_size.max(1);
        for _ in 0..config.epochs {
            rng.shuffle(&mut order);
            for chunk in order.chunks(batch) {
                self.train_batch(data, chunk, config);
            }
        }
    }

    fn train_batch(&mut self, data: &Dataset, batch: &[usize], config: &MlpConfig) {
        // Accumulate gradients over the batch.
        let mut grad_w: Vec<Vec<Vec<f64>>> = self
            .layers
            .iter()
            .map(|l| l.w.iter().map(|row| vec![0.0; row.len()]).collect())
            .collect();
        let mut grad_b: Vec<Vec<f64>> =
            self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();

        for &i in batch {
            let x = &data.features[i];
            let y = data.labels[i];
            let activations = self.forward_all(x);
            // Output delta for sigmoid + BCE: (p - y).
            let mut delta = vec![activations.last().expect("output")[0] - y];
            for layer_idx in (0..self.layers.len()).rev() {
                let input: &[f64] =
                    if layer_idx == 0 { x } else { &activations[layer_idx - 1] };
                for (j, d) in delta.iter().enumerate() {
                    for (k, xi) in input.iter().enumerate() {
                        grad_w[layer_idx][j][k] += d * xi;
                    }
                    grad_b[layer_idx][j] += d;
                }
                if layer_idx > 0 {
                    // Propagate: delta_prev = W^T delta ⊙ relu'(a_prev).
                    let prev_act = &activations[layer_idx - 1];
                    let mut prev_delta = vec![0.0; prev_act.len()];
                    for (j, d) in delta.iter().enumerate() {
                        for (k, pd) in prev_delta.iter_mut().enumerate() {
                            *pd += self.layers[layer_idx].w[j][k] * d;
                        }
                    }
                    for (pd, act) in prev_delta.iter_mut().zip(prev_act) {
                        if *act <= 0.0 {
                            *pd = 0.0;
                        }
                    }
                    delta = prev_delta;
                }
            }
        }

        let scale = config.learning_rate / batch.len() as f64;
        for layer_idx in self.frozen_below..self.layers.len() {
            let layer = &mut self.layers[layer_idx];
            for (row, grow) in layer.w.iter_mut().zip(&grad_w[layer_idx]) {
                for (w, g) in row.iter_mut().zip(grow) {
                    *w -= scale * g + config.learning_rate * config.l2 * *w;
                }
            }
            for (b, g) in layer.b.iter_mut().zip(&grad_b[layer_idx]) {
                *b -= scale * g;
            }
        }
    }

    /// Flat parameter export (FedAvg payload).
    pub fn params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            for row in &layer.w {
                out.extend_from_slice(row);
            }
            out.extend_from_slice(&layer.b);
        }
        out
    }

    /// Installs a flat parameter vector from [`Mlp::params`].
    ///
    /// # Panics
    ///
    /// Panics if the length does not match the network's parameter count.
    pub fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.param_count(), "parameter length mismatch");
        let mut at = 0;
        for layer in &mut self.layers {
            for row in &mut layer.w {
                let len = row.len();
                row.copy_from_slice(&params[at..at + len]);
                at += len;
            }
            let len = layer.b.len();
            layer.b.copy_from_slice(&params[at..at + len]);
            at += len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::auc;
    use medchain_data::synth::{CohortGenerator, DiseaseModel, SiteProfile, STROKE_CODE};

    fn xor_data() -> Dataset {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..50 {
            for (a, b) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
                features.push(vec![a, b]);
                labels.push(if (a > 0.5) != (b > 0.5) { 1.0 } else { 0.0 });
            }
        }
        Dataset { features, labels, feature_names: vec!["a".into(), "b".into()] }
    }

    #[test]
    fn learns_xor() {
        let data = xor_data();
        let config = MlpConfig {
            hidden: vec![8],
            learning_rate: 0.5,
            epochs: 300,
            batch_size: 16,
            l2: 0.0,
            // Seed 1 avoids the dead-ReLU local minimum XOR is prone to.
            seed: 1,
        };
        let mut net = Mlp::new(2, &config);
        net.train(&data, &config);
        assert!(net.predict_one(&[0.0, 0.0]) < 0.4);
        assert!(net.predict_one(&[1.0, 1.0]) < 0.4);
        assert!(net.predict_one(&[0.0, 1.0]) > 0.6);
        assert!(net.predict_one(&[1.0, 0.0]) > 0.6);
    }

    #[test]
    fn beats_chance_on_stroke_cohort() {
        let records = CohortGenerator::new("s", SiteProfile::default(), 21).cohort(
            0,
            3_000,
            &DiseaseModel::stroke(),
        );
        let data = Dataset::from_records(&records, STROKE_CODE);
        let (train, test) = data.train_test_split(0.8, 4);
        let config = MlpConfig::default();
        let mut net = Mlp::new(train.dim(), &config);
        net.train(&train, &config);
        let score = auc(&net.predict(&test), &test.labels);
        assert!(score > 0.72, "AUC {score}");
    }

    #[test]
    fn params_round_trip_exactly() {
        let config = MlpConfig::default();
        let net = Mlp::new(10, &config);
        let mut other = Mlp::new(10, &MlpConfig { seed: 99, ..config });
        assert_ne!(net, other);
        other.set_params(&net.params());
        assert_eq!(net, other);
    }

    #[test]
    fn frozen_layers_do_not_move() {
        let data = xor_data();
        let config = MlpConfig { epochs: 5, ..MlpConfig::default() };
        let mut net = Mlp::new(2, &config);
        let before = net.params();
        let hidden_params = net.param_count() - (net.layers.last().unwrap().param_count());
        net.freeze_feature_layers();
        net.train(&data, &config);
        let after = net.params();
        assert_eq!(&before[..hidden_params], &after[..hidden_params], "hidden layers moved");
        assert_ne!(&before[hidden_params..], &after[hidden_params..], "head did not train");
    }

    #[test]
    fn reinit_output_changes_only_head() {
        let config = MlpConfig::default();
        let mut net = Mlp::new(4, &config);
        let before = net.params();
        let head = net.layers.last().unwrap().param_count();
        net.reinit_output(123);
        let after = net.params();
        let split = before.len() - head;
        assert_eq!(&before[..split], &after[..split]);
        assert_ne!(&before[split..], &after[split..]);
    }

    #[test]
    fn construction_is_seed_deterministic() {
        let config = MlpConfig::default();
        assert_eq!(Mlp::new(5, &config), Mlp::new(5, &config));
    }
}
