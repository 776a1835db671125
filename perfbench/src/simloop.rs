//! `simloop-tabddpm`: the surrogate in the simulation loop. Set-up fits
//! TabDDPM (Smoke) on the workload dataset and round-trips it through
//! `Checkpoint::save_to_dir` / `Checkpoint::load`. One operation is one
//! episode: sample a training-split-sized workload from the checkpoint
//! with a fresh seed, build its `JobArena`, and simulate it under all three
//! brokerage policies — then do the same for the ground-truth training
//! table, as the `simloop` binary does.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use htcsim::{BrokerPolicy, GridSimulator, JobArena, SimConfig, SimReport};
use surrogate::checkpoint::Checkpoint;
use surrogate::{ModelKind, PreparedData};

use crate::probe::{cpu_seconds, median, mix_seed, peak_rss_mb, repeat_setup, timed};
use crate::{fixture, EndToEnd, Outcome, RunConfig};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Episodes draw their sampling seeds from a fixed pool of this size and a
/// run cycles through it; the workload seed picks where in the pool a run
/// starts. The simulator's cost grows faster than linearly with the backlog
/// a sample builds, so free per-run seeds would move the work itself from
/// run to run.
const EPISODE_POOL: u64 = 4;

/// Per-call timings of the set-up's checkpoint work.
#[derive(Debug, Default, Clone, Copy)]
struct SetupTimes {
    fit_s: f64,
    epochs: usize,
    save_s: f64,
    load_s: f64,
    bytes: u64,
}

struct Fitted {
    data: PreparedData,
    /// The model as fitted, before its checkpoint round trip.
    fitted: Checkpoint,
    /// The model as read back from disk; episodes sample from this one.
    loaded: Checkpoint,
    times: SetupTimes,
}

fn setup(config: &pandasim::GeneratorConfig, dir: &Path) -> Result<Fitted, String> {
    let data = surrogate::prepare_data_from_config(config);
    let saved = fixture::fit_and_save(ModelKind::TabDdpm, &data.train, dir)?;
    let (loaded, load_s, bytes) = fixture::load(&saved.path)?;
    Ok(Fitted {
        data,
        fitted: saved.checkpoint,
        loaded,
        times: SetupTimes {
            fit_s: saved.fit_s,
            epochs: saved.epochs,
            save_s: saved.save_s,
            load_s,
            bytes,
        },
    })
}

/// Per-call timings of one traced episode.
#[derive(Debug, Default, Clone, Copy)]
struct EpisodeTrace {
    sample_s: f64,
    arena_s: f64,
    /// Surrogate-arena simulation per policy, in `BrokerPolicy::ALL` order.
    run_s: [f64; 3],
    /// Ground-truth simulation summed over the three policies.
    truth_s: f64,
    jobs: usize,
    /// Mean jobs waiting for a slot (Little's law: completions × mean wait
    /// / makespan), averaged over the policies on the surrogate arena.
    mean_backlog: f64,
}

/// Time `f` into `slot` when tracing, or just run it.
fn span<T>(slot: Option<&mut f64>, f: impl FnOnce() -> T) -> T {
    match slot {
        None => f(),
        Some(slot) => {
            let (value, seconds) = timed(f);
            *slot += seconds;
            value
        }
    }
}

/// One episode. Returns whether every simulation completed every job.
fn episode(
    fitted: &Fitted,
    sample_seed: u64,
    mut trace: Option<&mut EpisodeTrace>,
) -> Result<bool, String> {
    let train = &fitted.data.train;
    let sites = fitted.data.generator.sites();
    let synthetic = span(trace.as_deref_mut().map(|t| &mut t.sample_s), || {
        fitted.loaded.sample(train.n_rows(), sample_seed)
    })
    .map_err(|e| format!("TabDDPM sample: {e}"))?;
    let (surrogate, truth) = span(trace.as_deref_mut().map(|t| &mut t.arena_s), || {
        (
            JobArena::from_table(&synthetic),
            JobArena::from_table(train),
        )
    });
    let surrogate = surrogate.map_err(|e| format!("surrogate arena: {e}"))?;
    let truth = truth.map_err(|e| format!("ground-truth arena: {e}"))?;
    let simulate = |arena: &JobArena, policy: BrokerPolicy| -> SimReport {
        let config = SimConfig {
            policy,
            ..SimConfig::default()
        };
        GridSimulator::new(sites, config).run_arena(arena)
    };
    let mut complete = synthetic.n_rows() == train.n_rows();
    let mut backlog = 0.0;
    for (i, policy) in BrokerPolicy::ALL.into_iter().enumerate() {
        let report = span(trace.as_deref_mut().map(|t| &mut t.run_s[i]), || {
            simulate(&surrogate, policy)
        });
        complete &= report.completed == surrogate.len();
        backlog += report.completed as f64 * report.mean_wait_hours / report.makespan_hours;
    }
    for policy in BrokerPolicy::ALL {
        let report = span(trace.as_deref_mut().map(|t| &mut t.truth_s), || {
            simulate(&truth, policy)
        });
        complete &= report.completed == truth.len();
    }
    if let Some(trace) = trace {
        trace.jobs = surrogate.len();
        trace.mean_backlog = backlog / BrokerPolicy::ALL.len() as f64;
    }
    Ok(complete)
}

/// Wall and CPU time of each episode, with its trace when tracing.
#[derive(Default)]
struct Pass {
    walls_ms: Vec<f64>,
    cpus_ms: Vec<f64>,
    failed: u64,
    traces: Vec<EpisodeTrace>,
}

impl Pass {
    /// Run and record one episode.
    fn episode(&mut self, fitted: &Fitted, seed: u64, trace: bool) -> Result<(), String> {
        let mut record = EpisodeTrace::default();
        let cpu_before = cpu_seconds(None)?;
        let (complete, wall_s) = timed(|| episode(fitted, seed, trace.then_some(&mut record)));
        self.cpus_ms.push((cpu_seconds(None)? - cpu_before) * 1e3);
        self.walls_ms.push(wall_s * 1e3);
        if !complete? {
            self.failed += 1;
        }
        self.traces.push(record);
        Ok(())
    }
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let named = fixture::config();
    let dir = cfg.work_dir.join("checkpoints");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let (fitted, setup_s) = repeat_setup(SETUPS, || setup(&named.config, &dir))?;
    let round_trip = fitted.loaded.render() == fitted.fitted.render();

    // Timed pass: episodes until the next one would overrun the run.
    let mut seeds = Vec::new();
    let mut timed_pass = Pass::default();
    let start = Instant::now();
    loop {
        let slot = (cfg.seed + seeds.len() as u64) % EPISODE_POOL;
        let seed = mix_seed(fixture::DATA_SEED, slot);
        seeds.push(seed);
        timed_pass.episode(&fitted, seed, false)?;
        let last_s = timed_pass.walls_ms.last().copied().unwrap_or(0.0) / 1e3;
        if start.elapsed().as_secs_f64() + last_s > cfg.seconds as f64 {
            break;
        }
    }
    let peak_rss = peak_rss_mb(None)?;

    let mut out = Outcome {
        attempted: seeds.len() as u64,
        failed: timed_pass.failed,
        ..Outcome::default()
    };
    out.e2e = EndToEnd {
        setup_s,
        op_p50_ms: median(&timed_pass.walls_ms),
        cpu_ms_per_op: median(&timed_pass.cpus_ms),
        ok_frac: (out.attempted - out.failed) as f64 / out.attempted as f64,
        peak_rss_mb: peak_rss,
    };
    out.notes.push(format!(
        "jobs={} episodes={} episode_s={} checkpoint_round_trip={round_trip}",
        fitted.data.train.n_rows(),
        seeds.len(),
        out.e2e.op_p50_ms / 1e3
    ));
    if !round_trip {
        out.notes
            .push("the loaded checkpoint renders differently from the fitted one".into());
    }

    if cfg.trace {
        fixture::prepare_traced(&named.config, &fitted.data, &mut out.layers)?;
        let mut traced = Pass::default();
        for &seed in &seeds {
            traced.episode(&fitted, seed, true)?;
        }
        out.failed += traced.failed;
        record_layers(&mut out.layers, &fitted.times, &traced.traces);
        let traced_e2e = EndToEnd {
            op_p50_ms: median(&traced.walls_ms),
            cpu_ms_per_op: median(&traced.cpus_ms),
            ..out.e2e
        };
        out.set_overhead(&traced_e2e);
    }
    out.correct = out.failed == 0 && round_trip;
    Ok(out)
}

fn record_layers(
    layers: &mut BTreeMap<&'static str, f64>,
    setup: &SetupTimes,
    traces: &[EpisodeTrace],
) {
    let med = |f: &dyn Fn(&EpisodeTrace) -> f64| -> f64 {
        median(&traces.iter().map(f).collect::<Vec<_>>())
    };
    layers.insert("tabddpm.fit_s", setup.fit_s);
    layers.insert("tabddpm.fit_s_per_epoch", setup.fit_s / setup.epochs as f64);
    layers.insert("checkpoint.save_s", setup.save_s);
    layers.insert("checkpoint.load_s", setup.load_s);
    layers.insert("checkpoint.bytes", setup.bytes as f64);
    layers.insert("tabddpm.sample_s", med(&|t| t.sample_s));
    layers.insert("htcsim.arena_s", med(&|t| t.arena_s));
    for (i, name) in [
        "htcsim.run_s.round-robin",
        "htcsim.run_s.least-loaded",
        "htcsim.run_s.data-locality",
    ]
    .into_iter()
    .enumerate()
    {
        debug_assert_eq!(name.rsplit('.').next(), Some(BrokerPolicy::ALL[i].name()));
        layers.insert(name, med(&|t| t.run_s[i]));
    }
    layers.insert("htcsim.run_s.truth", med(&|t| t.truth_s));
    layers.insert("htcsim.jobs", med(&|t| t.jobs as f64));
    layers.insert("htcsim.mean_backlog", med(&|t| t.mean_backlog));
    layers.insert(
        "htcsim.sample_to_sim_ratio",
        med(&|t| t.sample_s / t.run_s.iter().sum::<f64>()),
    );
}
