//! The common interface of all surrogate models.

use std::fmt;

use tabular::{Table, TabularError};

use crate::fault::FitControl;

/// Errors raised while fitting or sampling a surrogate model.
#[derive(Debug, Clone, PartialEq)]
pub enum SurrogateError {
    /// The model was asked to sample before being fitted.
    NotFitted(&'static str),
    /// The training table was unusable (empty, wrong schema, …).
    InvalidTrainingData(String),
    /// An underlying tabular operation failed.
    Tabular(TabularError),
    /// The fit was cancelled by its [`crate::fault::CellBudget`] after
    /// completing this many epochs.
    BudgetExceeded {
        /// Epochs that finished before the budget tripped.
        completed_epochs: usize,
    },
    /// Training diverged: the mean loss of this epoch was NaN or infinite.
    NonFiniteLoss {
        /// 0-based epoch whose mean loss was non-finite.
        epoch: usize,
    },
    /// The fit panicked; the panic was captured and lowered to this error so
    /// one poisoned model never takes down a parallel run.
    Panicked {
        /// The panic payload, rendered as a string.
        message: String,
    },
}

impl fmt::Display for SurrogateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SurrogateError::NotFitted(model) => write!(f, "{model} sampled before fit"),
            SurrogateError::InvalidTrainingData(msg) => {
                write!(f, "invalid training data: {msg}")
            }
            SurrogateError::Tabular(e) => write!(f, "tabular error: {e}"),
            SurrogateError::BudgetExceeded { completed_epochs } => {
                write!(f, "budget exceeded after {completed_epochs} epochs")
            }
            SurrogateError::NonFiniteLoss { epoch } => {
                write!(f, "non-finite training loss at epoch {epoch}")
            }
            SurrogateError::Panicked { message } => {
                write!(f, "fit panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SurrogateError {}

impl From<TabularError> for SurrogateError {
    fn from(value: TabularError) -> Self {
        SurrogateError::Tabular(value)
    }
}

/// One sampling request inside a [`TabularGenerator::sample_batch`] call:
/// how many rows to draw and under which seed.
///
/// Each spec is its own deterministic RNG stream, so a spec's output never
/// depends on the other specs it is batched with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSpec {
    /// Synthetic rows to draw for this request.
    pub rows: usize,
    /// Seed of this request's RNG stream.
    pub seed: u64,
}

impl SampleSpec {
    /// Bundle a row count with its sampling seed.
    pub fn new(rows: usize, seed: u64) -> Self {
        Self { rows, seed }
    }

    /// Total rows across a batch of specs: the height of the stacked matrix
    /// the MLP-backed generators run their coalesced forward passes over.
    pub fn total_rows(specs: &[SampleSpec]) -> usize {
        specs.iter().map(|s| s.rows).sum()
    }
}

/// A generative model over mixed-type tabular data.
///
/// Implementations are deterministic given the seeds in their configuration,
/// so experiments are reproducible end to end.
pub trait TabularGenerator {
    /// Human-readable model name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Fit the model to a training table.
    fn fit(&mut self, train: &Table) -> Result<(), SurrogateError>;

    /// Fit under a cooperative cancellation token.
    ///
    /// Models with epoch loops override this to call
    /// [`FitControl::check_epoch`] once per epoch, so a
    /// [`crate::fault::CellBudget`] can stop a runaway fit with a typed
    /// [`SurrogateError::BudgetExceeded`]. The default ignores the token —
    /// correct for near-instant fits like SMOTE, where a budget is a
    /// documented no-op.
    fn fit_with_control(
        &mut self,
        train: &Table,
        control: &FitControl,
    ) -> Result<(), SurrogateError> {
        let _ = control;
        self.fit(train)
    }

    /// Sample several independent requests in one call, one output table per
    /// spec, in spec order, each with the same schema as the training table.
    /// This is the one sampling method a generator implements.
    ///
    /// The contract is **batch-composition independence**:
    /// `sample_batch(specs)[i]` is byte-identical for every batch that
    /// contains `specs[i]`, whatever the other specs and their order, and so
    /// equals [`TabularGenerator::sample`]`(specs[i].rows, specs[i].seed)`.
    /// MLP-backed generators draw each spec's noise from its own RNG stream,
    /// stack the per-spec blocks into one matrix of exactly
    /// [`SampleSpec::total_rows`] rows, and run a *single* packed-kernel
    /// forward pass per network step before splitting the rows back out —
    /// the serving loop's micro-batching rides on this. Independence holds
    /// because every kernel on the path computes each output row from its
    /// input row alone, with a row-count-independent reduction order. That
    /// is exact on the bit-exact SIMD tiers (the default); the opt-in fused
    /// tiers round the edge rows of a packed product without the fused
    /// multiply-add, so there a row's last bits can depend on its position
    /// in the batch.
    fn sample_batch(&self, specs: &[SampleSpec]) -> Result<Vec<Table>, SurrogateError>;

    /// Sample `n` synthetic rows: a batch of one spec.
    fn sample(&self, n: usize, seed: u64) -> Result<Table, SurrogateError> {
        let mut tables = self.sample_batch(&[SampleSpec::new(n, seed)])?;
        Ok(tables.pop().expect("sample_batch answers every spec"))
    }
}
