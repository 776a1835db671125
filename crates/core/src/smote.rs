//! SMOTE-style nearest-neighbour interpolation sampler.
//!
//! The paper's only non-learning baseline: a synthetic row is formed by
//! picking a random training row, finding its `k` nearest neighbours in the
//! encoded space, and interpolating towards one of them with a uniform random
//! mixing factor. Numerical coordinates interpolate linearly; one-hot blocks
//! interpolate too and are resolved back to a single category by arg-max at
//! decode time (which amounts to "keep the base row's category unless the
//! interpolation passes the midpoint").
//!
//! Because every synthetic row lies on a segment between two real rows,
//! SMOTE achieves excellent distributional fidelity but almost no privacy —
//! the behaviour the paper's DCR column exposes.

use nn::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tabular::Table;

use crate::codec::TableCodec;
use crate::traits::{SampleSpec, SurrogateError, TabularGenerator};

/// SMOTE hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SmoteConfig {
    /// Number of nearest neighbours considered for interpolation (paper: 5).
    pub k_neighbors: usize,
    /// Cap on the number of training rows kept as interpolation anchors;
    /// larger tables are evenly subsampled. Bounds the O(n²) neighbour search.
    pub max_anchor_rows: usize,
}

impl Default for SmoteConfig {
    fn default() -> Self {
        Self {
            k_neighbors: 5,
            max_anchor_rows: 20_000,
        }
    }
}

/// The fitted SMOTE sampler.
///
/// Serializable in full (config, fitted codec, anchor matrix and
/// neighbour lists) so a fitted sampler checkpoints and reloads with
/// byte-identical sampling.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SmoteSampler {
    config: SmoteConfig,
    codec: Option<TableCodec>,
    anchors: Option<Matrix>,
    /// Pre-computed k-nearest-neighbour indices per anchor row.
    neighbors: Vec<Vec<usize>>,
}

impl SmoteSampler {
    /// New, unfitted sampler.
    pub fn new(config: SmoteConfig) -> Self {
        Self {
            config,
            codec: None,
            anchors: None,
            neighbors: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> SmoteConfig {
        self.config
    }

    /// The encoded anchor rows, once fitted.
    pub fn anchors(&self) -> Option<&Matrix> {
        self.anchors.as_ref()
    }

    /// The nearest-neighbour list of every anchor row, nearest first
    /// (empty before `fit`).
    pub fn neighbors(&self) -> &[Vec<usize>] {
        &self.neighbors
    }

    fn subsample_rows(n: usize, cap: usize) -> Vec<usize> {
        if n <= cap {
            (0..n).collect()
        } else {
            (0..cap).map(|i| i * n / cap).collect()
        }
    }
}

impl TabularGenerator for SmoteSampler {
    fn name(&self) -> &'static str {
        "SMOTE"
    }

    fn fit(&mut self, train: &Table) -> Result<(), SurrogateError> {
        if train.n_rows() < 2 {
            return Err(SurrogateError::InvalidTrainingData(
                "SMOTE needs at least two training rows".to_string(),
            ));
        }
        let codec = TableCodec::fit(train)?;
        let encoded = codec.encode(train)?;
        let keep = Self::subsample_rows(encoded.rows(), self.config.max_anchor_rows);
        let anchors = encoded.take_rows(&keep);

        // A non-finite value (a NaN passes the quantile transform as NaN)
        // would poison every distance to its row.
        if let Some(at) = anchors.data().iter().position(|v| !v.is_finite()) {
            let col = at % anchors.cols();
            let name = codec
                .spans()
                .iter()
                .find(|span| (span.start..span.start + span.width).contains(&col))
                .map(|span| span.name.as_str())
                .expect("the spans cover every encoded column");
            return Err(SurrogateError::InvalidTrainingData(format!(
                "column `{name}` has a non-finite value in training row {}; \
                 SMOTE needs finite distances",
                keep[at / anchors.cols()]
            )));
        }

        let k = self.config.k_neighbors.min(anchors.rows() - 1).max(1);
        // Exact kNN under `TableCodec::encoded_distance`, bit-identical to
        // a brute force on every SIMD tier.
        let neighbors = nn::knn::k_nearest(&anchors, k);

        self.codec = Some(codec);
        self.anchors = Some(anchors);
        self.neighbors = neighbors;
        Ok(())
    }

    fn sample_batch(&self, specs: &[SampleSpec]) -> Result<Vec<Table>, SurrogateError> {
        let codec = self
            .codec
            .as_ref()
            .ok_or(SurrogateError::NotFitted("SMOTE"))?;
        let anchors = self.anchors.as_ref().expect("anchors set when codec is");
        let width = codec.encoded_width();
        specs
            .iter()
            .map(|&SampleSpec { rows: n, seed }| {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut out = Matrix::zeros(n, width);
                for r in 0..n {
                    let base = rng.gen_range(0..anchors.rows());
                    let neighbor_list = &self.neighbors[base];
                    let neighbor = neighbor_list[rng.gen_range(0..neighbor_list.len())];
                    let lambda: f64 = rng.gen_range(0.0..1.0);
                    let base_row = anchors.row(base);
                    let nb_row = anchors.row(neighbor);
                    for c in 0..width {
                        out.set(r, c, base_row[c] + lambda * (nb_row[c] - base_row[c]));
                    }
                }
                codec.decode(&out)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::Column;

    fn toy(n: usize) -> Table {
        let mut t = Table::new();
        let values: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 1.37).sin() * 10.0 + i as f64)
            .collect();
        let labels: Vec<&str> = (0..n)
            .map(|i| match i % 3 {
                0 => "BNL",
                1 => "CERN",
                _ => "SLAC",
            })
            .collect();
        t.push_column("workload", Column::Numerical(values))
            .unwrap();
        t.push_column("site", Column::from_labels(&labels)).unwrap();
        t
    }

    #[test]
    fn fit_and_sample_shape() {
        let train = toy(60);
        let mut smote = SmoteSampler::new(SmoteConfig::default());
        smote.fit(&train).unwrap();
        let synthetic = smote.sample(25, 7).unwrap();
        assert_eq!(synthetic.n_rows(), 25);
        assert_eq!(synthetic.names(), train.names());
        // All synthetic categories come from the training vocabulary.
        for r in 0..25 {
            let label = synthetic.label("site", r).unwrap();
            assert!(["BNL", "CERN", "SLAC"].contains(&label));
        }
    }

    #[test]
    fn samples_stay_within_training_range() {
        let train = toy(80);
        let mut smote = SmoteSampler::new(SmoteConfig::default());
        smote.fit(&train).unwrap();
        let synthetic = smote.sample(200, 3).unwrap();
        let train_vals = train.numerical("workload").unwrap();
        let min = train_vals.iter().copied().fold(f64::INFINITY, f64::min);
        let max = train_vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for &v in synthetic.numerical("workload").unwrap() {
            assert!(
                v >= min - 1.0 && v <= max + 1.0,
                "{v} outside [{min}, {max}]"
            );
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let train = toy(40);
        let mut smote = SmoteSampler::new(SmoteConfig::default());
        smote.fit(&train).unwrap();
        assert_eq!(smote.sample(10, 1).unwrap(), smote.sample(10, 1).unwrap());
        assert_ne!(smote.sample(10, 1).unwrap(), smote.sample(10, 2).unwrap());
    }

    #[test]
    fn sample_before_fit_errors() {
        let smote = SmoteSampler::new(SmoteConfig::default());
        assert!(matches!(
            smote.sample(5, 0),
            Err(SurrogateError::NotFitted(_))
        ));
    }

    #[test]
    fn tiny_training_set_rejected() {
        let mut t = Table::new();
        t.push_column("x", Column::Numerical(vec![1.0])).unwrap();
        let mut smote = SmoteSampler::new(SmoteConfig::default());
        assert!(smote.fit(&t).is_err());
    }

    #[test]
    fn nan_training_value_is_a_typed_error_naming_the_column() {
        let values: Vec<f64> = (0..30)
            .map(|i| if i == 11 { f64::NAN } else { i as f64 })
            .collect();
        let mut train = Table::new();
        train
            .push_column("workload", Column::Numerical(values))
            .unwrap();
        let mut smote = SmoteSampler::new(SmoteConfig::default());
        match smote.fit(&train) {
            Err(SurrogateError::InvalidTrainingData(msg)) => {
                assert!(msg.contains("`workload`"), "{msg}");
                assert!(msg.contains("row 11"), "{msg}");
            }
            other => panic!("expected InvalidTrainingData, got {other:?}"),
        }
        assert!(matches!(
            smote.sample(1, 0),
            Err(SurrogateError::NotFitted(_))
        ));
    }

    #[test]
    fn anchor_subsampling_bounds_memory() {
        let train = toy(300);
        let mut smote = SmoteSampler::new(SmoteConfig {
            k_neighbors: 3,
            max_anchor_rows: 50,
        });
        smote.fit(&train).unwrap();
        assert_eq!(smote.anchors.as_ref().unwrap().rows(), 50);
        assert!(smote.sample(20, 0).is_ok());
    }
}
