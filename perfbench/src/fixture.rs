//! The fixed inputs every workload starts from. The dataset is the
//! `default` generator preset at 20,000 gross records with seed 2024 (9,667
//! training rows), filtered and split exactly as
//! `surrogate::experiment::prepare_data_from_config` does; models are fitted
//! on it at the Smoke budget with the same seed. Both are pinned so that
//! every workload seed costs the same work; the workload seed drives what
//! varies per operation (sampling seeds, the request mix).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use pandasim::{records_to_table, FilterFunnel, GeneratorConfig, WorkloadGenerator};
use surrogate::artifact_io::fnv1a_hex;
use surrogate::checkpoint::{Checkpoint, CheckpointPayload};
use surrogate::{build_payload, ModelKind, NamedGeneratorConfig, PreparedData, TrainingBudget};
use tabular::{train_test_split, SplitOptions, Table};

use crate::probe::timed;

/// Gross records generated per dataset.
pub const GROSS_RECORDS: usize = 20_000;

/// Seed of the dataset and of every model fit.
pub const DATA_SEED: u64 = 2024;

/// Generator preset the dataset uses; also the checkpoints' preset tag.
pub const PRESET: &str = "default";

/// The generator configuration of the dataset.
pub fn config() -> NamedGeneratorConfig {
    let mut named = NamedGeneratorConfig::preset(PRESET).expect("the default preset exists");
    named.config.gross_records = GROSS_RECORDS;
    named.config.seed = DATA_SEED;
    named
}

/// Prepare the dataset one public call at a time, timing each call into
/// the `pandasim` and `tabular` layers. Fails if the result differs from
/// `prepare_data_from_config`'s.
pub fn prepare_traced(
    config: &GeneratorConfig,
    reference: &PreparedData,
    layers: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let generator = WorkloadGenerator::new(config.clone());
    let (gross, generate_s) = timed(|| generator.generate());
    let (funnel, funnel_s) = timed(|| FilterFunnel::apply(&gross));
    let (table, to_table_s) = timed(|| records_to_table(&funnel.records));
    let (split, split_s) = timed(|| {
        train_test_split(
            &table,
            SplitOptions {
                train_fraction: 0.8,
                shuffle: true,
                seed: config.seed,
            },
        )
    });
    let (train, test) = split.map_err(|e| format!("train/test split failed: {e}"))?;
    if train != reference.train || test != reference.test {
        return Err(
            "the call-by-call data preparation differs from prepare_data_from_config".into(),
        );
    }
    layers.insert("pandasim.generate_s", generate_s);
    layers.insert("pandasim.funnel_s", funnel_s);
    layers.insert("pandasim.to_table_s", to_table_s);
    layers.insert("tabular.split_s", split_s);
    Ok(())
}

/// Training epochs a payload is configured for (0 for SMOTE, which has no
/// epoch loop).
pub fn epochs_of(payload: &CheckpointPayload) -> usize {
    match payload {
        CheckpointPayload::Smote(_) => 0,
        CheckpointPayload::Tvae(model) => model.config().epochs,
        CheckpointPayload::CtabGan(model) => model.config().epochs,
        CheckpointPayload::TabDdpm(model) => model.config().epochs,
    }
}

/// A model fitted on the training split (Smoke budget, seed [`DATA_SEED`])
/// and saved as a checkpoint, with the time each step took.
pub struct Saved {
    pub checkpoint: Checkpoint,
    pub path: PathBuf,
    pub epochs: usize,
    pub fit_s: f64,
    pub save_s: f64,
}

/// Fit `kind` on `train` and save it into `dir` with
/// `Checkpoint::save_to_dir`.
pub fn fit_and_save(kind: ModelKind, train: &Table, dir: &Path) -> Result<Saved, String> {
    let mut payload = build_payload(kind, TrainingBudget::Smoke, DATA_SEED);
    let epochs = epochs_of(&payload);
    let (fit, fit_s) = timed(|| payload.generator_mut().fit(train));
    fit.map_err(|e| format!("{} fit: {e}", kind.name()))?;
    let checkpoint = Checkpoint::new(PRESET, DATA_SEED, TrainingBudget::Smoke, payload);
    let (path, save_s) = timed(|| checkpoint.save_to_dir(dir));
    let path = path.map_err(|e| format!("{} checkpoint save: {e}", kind.name()))?;
    Ok(Saved {
        checkpoint,
        path,
        epochs,
        fit_s,
        save_s,
    })
}

/// Read a checkpoint back with `Checkpoint::load`, returning it with the
/// load time and the file size.
pub fn load(path: &Path) -> Result<(Checkpoint, f64, u64), String> {
    let (loaded, load_s) = timed(|| Checkpoint::load(path));
    let loaded = loaded.map_err(|e| format!("checkpoint load: {e}"))?;
    let bytes = std::fs::metadata(path)
        .map_err(|e| format!("checkpoint stat: {e}"))?
        .len();
    Ok((loaded, load_s, bytes))
}

/// FNV-1a digest of a table's canonical JSON rendering — the digest the
/// `serve` protocol answers `sample` requests with.
pub fn table_digest(table: &Table) -> String {
    fnv1a_hex(
        serde_json::to_string(table)
            .expect("tables serialize")
            .as_bytes(),
    )
}
