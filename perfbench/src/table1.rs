//! `table1-paper`: the paper's Table I as users run it — one `run_sweep`
//! over {seed} × {Smoke} × {default preset, 20k gross records} × {all four
//! models}, with `EvaluationConfig::paper()` (MLEF on, DCR at its 2k × 20k
//! caps), in parallel mode. One operation is one whole sweep.
//!
//! The traced pass re-runs the four cells through the public model and
//! metric calls, in parallel like the sweep, times every call, and checks
//! that it reproduces the sweep's Table-I rows exactly.

use std::time::Instant;

use metrics::{
    diff_corr, distance_to_closest_record, mean_jsd, mean_wasserstein, mlef_mse, EvaluationConfig,
    SurrogateReport,
};
use rayon::prelude::*;
use surrogate::artifact_io::fnv1a_hex;
use surrogate::{
    build_payload, run_sweep, FitControl, ModelKind, PreparedData, SmoteConfig, SweepGrid,
    SweepOptions, SweepOutcome, TableCodec, TrainingBudget,
};

use crate::probe::{cpu_seconds, median, peak_rss_mb, repeat_setup, timed};
use crate::{fixture, EndToEnd, Outcome, RunConfig};

/// Set-ups per run; `setup_s` is their median. Data preparation alone
/// takes about 0.1 s, so it is repeated more often than the other
/// workloads' set-ups.
const SETUPS: usize = 9;

const BUDGET: TrainingBudget = TrainingBudget::Smoke;

/// One timed sweep.
struct Sweep {
    wall_s: f64,
    cpu_s: f64,
    outcome: SweepOutcome,
}

/// Per-call timings of one traced cell.
struct CellTrace {
    kind: ModelKind,
    epochs: usize,
    fit_s: f64,
    sample_s: f64,
    wd_s: f64,
    jsd_s: f64,
    diff_corr_s: f64,
    dcr_s: f64,
    mlef_s: f64,
    synthetic_rows: usize,
    report: SurrogateReport,
}

/// The fit → sample → evaluate pipeline of one sweep cell, one public call
/// at a time, in the order `run_sweep` and `evaluate_surrogate` make them.
fn trace_cell(
    kind: ModelKind,
    data: &PreparedData,
    evaluation: &EvaluationConfig,
) -> Result<CellTrace, String> {
    let seed = fixture::DATA_SEED;
    let fail = |stage: &str, e: &dyn std::fmt::Display| format!("{} {stage}: {e}", kind.name());
    let payload = build_payload(kind, BUDGET, seed);
    let epochs = fixture::epochs_of(&payload);
    let mut model = payload.into_generator();
    let (fitted, fit_s) = timed(|| model.fit_with_control(&data.train, &FitControl::unlimited()));
    fitted.map_err(|e| fail("fit", &e))?;
    let (synthetic, sample_s) = timed(|| model.sample(data.train.n_rows(), seed.wrapping_add(1)));
    let synthetic = synthetic.map_err(|e| fail("sample", &e))?;
    let (wd, wd_s) = timed(|| mean_wasserstein(&data.train, &synthetic));
    let wd = wd.map_err(|e| fail("wd", &e))?;
    let (jsd, jsd_s) = timed(|| mean_jsd(&data.train, &synthetic));
    let jsd = jsd.map_err(|e| fail("jsd", &e))?;
    let (corr, diff_corr_s) = timed(|| diff_corr(&data.train, &synthetic));
    let (dcr, dcr_s) =
        timed(|| distance_to_closest_record(&data.train, &synthetic, evaluation.dcr));
    let mlef = evaluation
        .mlef
        .as_ref()
        .expect("the paper configuration runs MLEF");
    let ((base, synth), mlef_s) = timed(|| {
        (
            mlef_mse(&data.train, &data.test, mlef),
            mlef_mse(&synthetic, &data.test, mlef),
        )
    });
    Ok(CellTrace {
        kind,
        epochs,
        fit_s,
        sample_s,
        wd_s,
        jsd_s,
        diff_corr_s,
        dcr_s,
        mlef_s,
        synthetic_rows: synthetic.n_rows(),
        report: SurrogateReport {
            model: kind.name().to_string(),
            wd,
            jsd,
            diff_corr: corr,
            dcr,
            diff_mlef: Some(synth - base),
        },
    })
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let named = fixture::config();
    let (data, setup_s) = repeat_setup(SETUPS, || {
        Ok(surrogate::prepare_data_from_config(&named.config))
    })?;
    let train_rows = data.train.n_rows();
    let grid = SweepGrid {
        seeds: vec![fixture::DATA_SEED],
        budgets: vec![BUDGET],
        generators: vec![named.clone()],
        models: ModelKind::ALL.to_vec(),
    };
    let options = SweepOptions {
        evaluation: EvaluationConfig::paper(),
        ..SweepOptions::default()
    };

    // Timed pass: whole sweeps until the next one would overrun the run.
    let mut sweeps: Vec<Sweep> = Vec::new();
    let start = Instant::now();
    loop {
        let cpu_before = cpu_seconds(None)?;
        let (outcome, wall_s) = timed(|| run_sweep(&grid, &options));
        let cpu_s = cpu_seconds(None)? - cpu_before;
        sweeps.push(Sweep {
            wall_s,
            cpu_s,
            outcome,
        });
        if start.elapsed().as_secs_f64() + wall_s > cfg.seconds as f64 {
            break;
        }
    }
    let peak_rss = peak_rss_mb(None)?;

    let mut out = Outcome::default();
    let mut digests: Vec<String> = Vec::new();
    let mut ok_cells = 0u64;
    for sweep in &sweeps {
        for run in &sweep.outcome.runs {
            out.attempted += 1;
            let ok = match &run.outcome {
                Ok(success) => {
                    let r = &success.report;
                    let finite = [r.wd, r.jsd, r.diff_corr, r.dcr]
                        .iter()
                        .all(|v| v.is_finite())
                        && r.diff_mlef.is_some_and(f64::is_finite);
                    if !finite {
                        out.notes
                            .push(format!("cell {} has a non-finite metric", run.cell.id()));
                    }
                    finite && success.train_rows == train_rows
                }
                Err(e) => {
                    out.notes
                        .push(format!("cell {} failed: {e}", run.cell.id()));
                    false
                }
            };
            if ok {
                ok_cells += 1;
            } else {
                out.failed += 1;
            }
        }
        let cells: Vec<String> = sweep
            .outcome
            .runs
            .iter()
            .map(|run| format!("{}={:.2}s", run.cell.model.name(), run.wall_ms / 1e3))
            .collect();
        out.notes.push(format!("sweep cells: {}", cells.join(" ")));
        let canonical = serde_json::to_string(&sweep.outcome.report().canonical())
            .expect("sweep reports serialize");
        digests.push(fnv1a_hex(canonical.as_bytes()));
    }
    digests.dedup();
    let consistent = digests.len() == 1;
    if !consistent {
        out.notes
            .push("repeated sweeps produced different reports".to_string());
    }
    out.notes.push(format!(
        "train_rows={train_rows} sweeps={} report_digest={}",
        sweeps.len(),
        digests.join(",")
    ));

    let walls: Vec<f64> = sweeps.iter().map(|s| s.wall_s * 1e3).collect();
    let cpus: Vec<f64> = sweeps.iter().map(|s| s.cpu_s * 1e3).collect();
    out.e2e = EndToEnd {
        setup_s,
        op_p50_ms: median(&walls),
        cpu_ms_per_op: median(&cpus),
        ok_frac: ok_cells as f64 / out.attempted as f64,
        peak_rss_mb: peak_rss,
    };
    let cell_sums: Vec<f64> = sweeps
        .iter()
        .map(|s| s.outcome.runs.iter().map(|r| r.wall_ms).sum::<f64>() / 1e3)
        .collect();
    let critical: Vec<f64> = sweeps
        .iter()
        .map(|s| {
            s.outcome
                .runs
                .iter()
                .map(|r| r.wall_ms / 1e3)
                .fold(0.0, f64::max)
        })
        .collect();
    let cell_s_sum = median(&cell_sums);
    let table1_s = out.e2e.op_p50_ms / 1e3;
    out.notes
        .push(format!("table1_s={table1_s} cell_s_sum={cell_s_sum}"));
    let threads = rayon::current_num_threads() as f64;
    out.layers.insert("sweep.cell_s_sum", cell_s_sum);
    out.layers
        .insert("sweep.critical_cell_s", median(&critical));
    out.layers.insert(
        "sweep.parallel_efficiency",
        cell_s_sum / (threads * table1_s),
    );

    let mut traced_ok = true;
    if cfg.trace {
        traced_ok = trace(&named.config, &data, &options, &sweeps[0], &mut out)?;
    }
    out.correct = out.failed == 0 && consistent && traced_ok;
    Ok(out)
}

/// The traced pass. Returns whether it reproduced the sweep's rows.
fn trace(
    config: &pandasim::GeneratorConfig,
    data: &PreparedData,
    options: &SweepOptions,
    reference: &Sweep,
    out: &mut Outcome,
) -> Result<bool, String> {
    let layers = &mut out.layers;
    let codec = TableCodec::fit(&data.train).map_err(|e| format!("codec fit: {e}"))?;
    let (encoded, encode_s) = timed(|| codec.encode(&data.train));
    let encoded = encoded.map_err(|e| format!("codec encode: {e}"))?;
    let (decoded, decode_s) = timed(|| codec.decode(&encoded));
    decoded.map_err(|e| format!("codec decode: {e}"))?;
    layers.insert("codec.encode_s", encode_s);
    layers.insert("codec.decode_s", decode_s);

    // The traced operation mirrors one sweep: data preparation, then the
    // four cells over the shared pool.
    let cpu_before = cpu_seconds(None)?;
    let start = Instant::now();
    fixture::prepare_traced(config, data, layers)?;
    let cells: Vec<Result<CellTrace, String>> = ModelKind::ALL
        .to_vec()
        .into_par_iter()
        .map(|kind| trace_cell(kind, data, &options.evaluation))
        .collect();
    let traced_wall_s = start.elapsed().as_secs_f64();
    let traced_cpu_s = cpu_seconds(None)? - cpu_before;
    let cells = cells.into_iter().collect::<Result<Vec<_>, _>>()?;

    let mut reproduced = true;
    let train_rows = data.train.n_rows() as f64;
    let dcr = options.evaluation.dcr;
    let mut dcr_pairs = 0.0;
    for cell in &cells {
        let (fit, per_epoch, sample) = match cell.kind {
            ModelKind::Tvae => ("tvae.fit_s", "tvae.fit_s_per_epoch", "tvae.sample_s"),
            ModelKind::CtabGan => (
                "ctabgan.fit_s",
                "ctabgan.fit_s_per_epoch",
                "ctabgan.sample_s",
            ),
            ModelKind::Smote => ("smote.fit_s", "", "smote.sample_s"),
            ModelKind::TabDdpm => (
                "tabddpm.fit_s",
                "tabddpm.fit_s_per_epoch",
                "tabddpm.sample_s",
            ),
        };
        layers.insert(fit, cell.fit_s);
        layers.insert(sample, cell.sample_s);
        if cell.epochs > 0 {
            layers.insert(per_epoch, cell.fit_s / cell.epochs as f64);
        }
        for (name, value) in [
            ("metrics.wd_s", cell.wd_s),
            ("metrics.jsd_s", cell.jsd_s),
            ("metrics.diff_corr_s", cell.diff_corr_s),
            ("metrics.dcr_s", cell.dcr_s),
            ("metrics.mlef_s", cell.mlef_s),
        ] {
            *layers.entry(name).or_insert(0.0) += value;
        }
        dcr_pairs += (cell.synthetic_rows.min(dcr.max_synthetic_rows) as f64)
            * train_rows.min(dcr.max_train_rows as f64);
        let row = reference
            .outcome
            .runs
            .iter()
            .find(|run| run.cell.model == cell.kind)
            .and_then(|run| run.outcome.as_ref().ok());
        if row.is_none_or(|success| success.report != cell.report) {
            out.notes.push(format!(
                "traced {} row differs from the sweep's",
                cell.kind.name()
            ));
            reproduced = false;
        }
    }
    let anchors = train_rows.min(SmoteConfig::default().max_anchor_rows as f64);
    let cells_n = cells.len() as f64;
    layers.insert("smote.distance_evals", anchors * (anchors - 1.0));
    layers.insert("metrics.dcr_pairs", dcr_pairs);
    // `evaluate_surrogate` probes train-vs-test again in every cell: one
    // distinct base input plus one synthetic input per cell.
    layers.insert("metrics.mlef_calls", 2.0 * cells_n);
    layers.insert(
        "metrics.mlef_distinct_frac",
        (cells_n + 1.0) / (2.0 * cells_n),
    );

    let traced = EndToEnd {
        op_p50_ms: traced_wall_s * 1e3,
        cpu_ms_per_op: traced_cpu_s * 1e3,
        ..out.e2e
    };
    out.set_overhead(&traced);
    Ok(reproduced)
}
