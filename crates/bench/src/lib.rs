//! Shared plumbing for the experiment binaries and Criterion benches.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation section (see DESIGN.md §3 for the index). They all share the
//! same dataset-preparation path so that Table I, Fig. 4 and Fig. 5 are
//! computed over exactly the same train/test split and the same fitted
//! models.
//!
//! The orchestration itself lives in [`surrogate::experiment`] — the single
//! fit→sample→evaluate runtime for the whole workspace (parallel model fits,
//! per-model error isolation). This crate only re-exports it so the binaries
//! keep their `bench::` imports, and adds [`report_failures`], the shared
//! way binaries surface partially failed runs, and [`cli`], the flag-value
//! parser `sweep`, `simloop` and `serve` share.

pub use surrogate::experiment::{
    fit_all, fit_all_with_mode, fit_models_with, maybe_write_json, prepare_data, sample_all_models,
    ExecutionMode, ExperimentError, ExperimentOptions, FitReport, ModelRun, PreparedData,
};

/// Print every failed model run to stderr and return how many failed.
///
/// The binaries keep going with the surviving models — the point of the
/// `Result`-based runtime is that one diverging GAN no longer kills a whole
/// Table-I run — but they still exit non-zero when nothing succeeded.
pub fn report_failures(report: &FitReport) -> usize {
    let mut failed = 0;
    for (kind, error) in report.failures() {
        eprintln!("warning: {} failed to fit/sample: {error}", kind.name());
        failed += 1;
    }
    failed
}

/// Command-line plumbing shared by the binaries.
pub mod cli {
    /// The value following flag `name` in `args`, or `Ok(None)` when the
    /// flag is absent. Another flag is never taken as the value:
    /// `--out --no-mlef` is an error naming both flags, not an artifact
    /// written to a file called `--no-mlef`. A value that merely starts
    /// with one dash (`-3`) is returned for the typed parsers to judge.
    pub fn value(args: &[String], name: &str) -> Result<Option<String>, String> {
        let Some(i) = args.iter().position(|a| a == name) else {
            return Ok(None);
        };
        match args.get(i + 1) {
            Some(v) if v.starts_with("--") => {
                Err(format!("{name} needs a value, but found the flag '{v}'"))
            }
            Some(v) => Ok(Some(v.clone())),
            None => Err(format!("{name} needs a value")),
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn args(list: &[&str]) -> Vec<String> {
            list.iter().map(|s| s.to_string()).collect()
        }

        #[test]
        fn flag_shaped_values_are_refused_naming_both_flags() {
            let err = value(&args(&["--quick", "--out", "--no-mlef"]), "--out").unwrap_err();
            assert!(err.contains("--out"), "{err}");
            assert!(err.contains("--no-mlef"), "{err}");
            let err = value(&args(&["--out"]), "--out").unwrap_err();
            assert!(err.contains("--out needs a value"), "{err}");
            assert_eq!(
                value(&args(&["--out", "a.json"]), "--out").unwrap(),
                Some("a.json".to_string())
            );
            assert_eq!(value(&args(&["--quick"]), "--out").unwrap(), None);
        }
    }
}
