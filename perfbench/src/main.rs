//! End-to-end benchmark of the panda-surrogate pipeline.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds N --trace 0|1
//!           [--serve-bin PATH] [--work-dir DIR]
//! ```
//!
//! Every timing is taken from outside, around calls into the public API of
//! `pandasim`, `tabular`, `surrogate`, `metrics` and `htcsim`, and around the
//! `serve` binary's JSON-line protocol. Workloads:
//!
//! * `table1-paper` — one `run_sweep` of the paper's Table I per operation;
//! * `simloop-tabddpm` — TabDDPM samples a workload that drives `htcsim`;
//! * `serve-mixed` — an open loop of 64-row `sample` requests against a
//!   `serve` child at a fixed rate.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics,
//! measured with no per-call timers. With `--trace 1` the same timed pass
//! runs first, then a traced pass over the same inputs times each public
//! call; the line carries the per-layer metrics and the tracing overhead.
//! Per-layer metrics of a layer a workload does not exercise read 0.

mod fixture;
mod probe;
mod serve;
mod simloop;
mod table1;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics `(name, unit)`; every workload reports each one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pandasim.generate_s", "s"),
    ("pandasim.funnel_s", "s"),
    ("pandasim.to_table_s", "s"),
    ("tabular.split_s", "s"),
    ("codec.encode_s", "s"),
    ("codec.decode_s", "s"),
    ("smote.fit_s", "s"),
    ("smote.sample_s", "s"),
    ("smote.distance_evals", "count"),
    ("tvae.fit_s", "s"),
    ("tvae.fit_s_per_epoch", "s"),
    ("tvae.sample_s", "s"),
    ("ctabgan.fit_s", "s"),
    ("ctabgan.fit_s_per_epoch", "s"),
    ("ctabgan.sample_s", "s"),
    ("tabddpm.fit_s", "s"),
    ("tabddpm.fit_s_per_epoch", "s"),
    ("tabddpm.sample_s", "s"),
    ("metrics.wd_s", "s"),
    ("metrics.jsd_s", "s"),
    ("metrics.diff_corr_s", "s"),
    ("metrics.dcr_s", "s"),
    ("metrics.dcr_pairs", "count"),
    ("metrics.mlef_s", "s"),
    ("metrics.mlef_calls", "count"),
    ("metrics.mlef_distinct_frac", "ratio"),
    ("sweep.cell_s_sum", "s"),
    ("sweep.critical_cell_s", "s"),
    ("sweep.parallel_efficiency", "ratio"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.load_s", "s"),
    ("checkpoint.bytes", "bytes"),
    ("htcsim.arena_s", "s"),
    ("htcsim.run_s.round-robin", "s"),
    ("htcsim.run_s.least-loaded", "s"),
    ("htcsim.run_s.data-locality", "s"),
    ("htcsim.run_s.truth", "s"),
    ("htcsim.jobs", "count"),
    ("htcsim.mean_backlog", "jobs"),
    ("htcsim.sample_to_sim_ratio", "ratio"),
    ("serve.forward_ms.tabddpm", "ms"),
    ("serve.forward_ms.tvae", "ms"),
    ("serve.overhead_ms.tabddpm", "ms"),
    ("serve.overhead_ms.tvae", "ms"),
    ("serve.shed", "count"),
    ("serve.deadline", "count"),
    ("serve.sender_lag_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_cpu_ms", "ms"),
];

/// Per-layer values computed from the inputs rather than measured; they
/// repeat exactly from run to run on one seed.
pub const COMPUTED: &[&str] = &[
    "smote.distance_evals",
    "metrics.dcr_pairs",
    "metrics.mlef_calls",
    "metrics.mlef_distinct_frac",
    "htcsim.jobs",
    "htcsim.mean_backlog",
];

/// What one benchmark invocation was asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// The `serve` executable (serve workloads only).
    pub serve_bin: Option<PathBuf>,
    /// Scratch directory for checkpoints; created and removed by the run.
    pub work_dir: PathBuf,
}

/// End-to-end numbers of one timed (or traced) pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    /// Median set-up time over the repeated set-ups.
    pub setup_s: f64,
    /// Median latency of one operation (a sweep, an episode, a request).
    pub op_p50_ms: f64,
    /// CPU time (user + system, all threads) spent per operation by the
    /// process doing the work: this one, or the `serve` child.
    pub cpu_ms_per_op: f64,
    /// Share of operations that passed every check (for serve: answered
    /// `ok` within the latency limit).
    pub ok_frac: f64,
    /// Peak resident set size of the process doing the work.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    fn values(&self) -> [f64; 5] {
        [
            self.setup_s,
            self.op_p50_ms,
            self.cpu_ms_per_op,
            self.ok_frac,
            self.peak_rss_mb,
        ]
    }
}

/// The result of one invocation.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted (cells, episodes, requests) in the timed pass.
    pub attempted: u64,
    /// Operations that failed or failed a check.
    pub failed: u64,
    pub e2e: EndToEnd,
    /// Per-layer values by name; names missing here read 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record the traced pass's overhead against the timed pass.
    pub fn set_overhead(&mut self, traced: &EndToEnd) {
        self.layers
            .insert("trace.overhead_ms", traced.op_p50_ms - self.e2e.op_p50_ms);
        self.layers.insert(
            "trace.overhead_cpu_ms",
            traced.cpu_ms_per_op - self.e2e.cpu_ms_per_op,
        );
    }
}

const WORKLOADS: &[&str] = &["table1-paper", "simloop-tabddpm", "serve-mixed"];

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds N --trace 0|1 \
                     [--serve-bin PATH] [--work-dir DIR]";

fn parse_args(args: &[String]) -> Result<(String, RunConfig), String> {
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let name = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--serve-bin" | "--work-dir" => {
                flag.as_str()
            }
            other => return Err(format!("unknown argument '{other}'")),
        };
        let value = rest.next().ok_or_else(|| format!("{name} needs a value"))?;
        if values.insert(name, value).is_some() {
            return Err(format!("{name} given twice"));
        }
    }
    let required = |name: &str| {
        values
            .get(name)
            .copied()
            .ok_or_else(|| format!("{name} is required"))
    };
    let workload = required("--workload")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    // Seeds travel through JSON, whose numbers are doubles: keep 53 bits.
    let seed = required("--seed")?
        .parse::<u64>()
        .map_err(|_| "--seed wants an unsigned integer".to_string())?
        & ((1 << 53) - 1);
    let seconds: u64 = match required("--seconds")?.parse() {
        Ok(n) if (1..=600).contains(&n) => n,
        _ => return Err("--seconds wants an integer in 1..=600".to_string()),
    };
    let trace = match required("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace wants 0 or 1".to_string()),
    };
    let work_dir = PathBuf::from(
        values
            .get("--work-dir")
            .copied()
            .unwrap_or(".bench_build/perfbench-work"),
    )
    .join(format!("run-{}", std::process::id()));
    Ok((
        workload.to_string(),
        RunConfig {
            seed,
            seconds,
            trace,
            serve_bin: values.get("--serve-bin").map(PathBuf::from),
            work_dir,
        },
    ))
}

/// Render the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, with every end-to-end (untraced) or per-layer (traced) metric.
fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics: Vec<(&str, &str, f64)> = if trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, outcome.layers.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(outcome.e2e.values())
            .map(|(&(name, unit), value)| (name, unit, value))
            .collect()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, config) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&config.work_dir) {
        eprintln!(
            "perfbench: cannot create {}: {e}",
            config.work_dir.display()
        );
        return ExitCode::from(1);
    }
    let result = match workload.as_str() {
        "table1-paper" => table1::run(&config),
        "simloop-tabddpm" => simloop::run(&config),
        "serve-mixed" => serve::run(&config),
        _ => unreachable!("workload names are checked by parse_args"),
    };
    let _ = std::fs::remove_dir_all(&config.work_dir);
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {workload}: {message}");
            return ExitCode::from(1);
        }
    };
    let e2e_finite = outcome.e2e.values().iter().all(|v| v.is_finite());
    let layers_finite = outcome.layers.values().all(|v| v.is_finite());
    if !(e2e_finite && layers_finite) {
        outcome.correct = false;
        outcome
            .notes
            .push("a metric came out non-finite".to_string());
        for value in outcome.layers.values_mut().filter(|v| !v.is_finite()) {
            *value = 0.0;
        }
    }
    println!(
        "perfbench: workload={workload} seed={} seconds={} trace={} threads={}",
        config.seed,
        config.seconds,
        u8::from(config.trace),
        rayon::current_num_threads()
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    if config.trace {
        for &(name, unit) in PER_LAYER {
            let value = outcome.layers.get(name).copied().unwrap_or(0.0);
            let tag = if COMPUTED.contains(&name) {
                " (computed)"
            } else {
                ""
            };
            println!("  layer {name} = {value} {unit}{tag}");
        }
    } else {
        for (&(name, unit), value) in END_TO_END.iter().zip(outcome.e2e.values()) {
            println!("  e2e {name} = {value} {unit}");
        }
    }
    println!(
        "  correct={} attempted={} failed={}",
        outcome.correct, outcome.attempted, outcome.failed
    );
    if !e2e_finite {
        eprintln!("perfbench: {workload}: non-finite end-to-end metric");
        return ExitCode::from(1);
    }
    println!("{}", result_line(&outcome, config.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_run_arguments() {
        let (workload, config) = parse_args(&args(&[
            "--workload",
            "serve-mixed",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(workload, "serve-mixed");
        assert_eq!((config.seed, config.seconds, config.trace), (7, 12, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            &[
                "--workload",
                "nope",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ][..],
            &[
                "--workload",
                "serve-mixed",
                "--seed",
                "x",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "serve-mixed",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &["--workload", "serve-mixed", "--seed", "1", "--seconds", "1"],
            &["--bogus"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_lists_exactly_the_declared_metrics() {
        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Outcome::default()
        };
        let line = result_line(&outcome, false);
        let parsed: serde_json::Value = serde_json::from_str(&line).unwrap();
        use serde_json::ValueExt;
        let metrics = parsed.get("metrics").unwrap();
        for (name, _) in END_TO_END {
            assert!(metrics.get(name).is_some(), "{name}");
        }
        let traced = result_line(&outcome, true);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
    }
}
