//! `serve-mixed`: the `serve` worker under an open loop.
//!
//! Set-up fits TVAE and TabDDPM (Smoke) on the workload dataset, saves both
//! checkpoints into a fresh directory, spawns `serve --checkpoints DIR`
//! and waits for its `health` answer. The open loop then sends 64-row
//! `sample` requests evenly spaced at 50 req/s, one request in four to
//! TabDDPM and the rest to TVAE.
//! One writer thread sleeps until each due time, while one reader thread
//! collects the response lines. Latency runs from a request's scheduled send time to its
//! response line, so a stalled sender or server is charged to every request
//! it delays.
//!
//! Checks: every request is answered, every `ok` answer carries 64 rows,
//! and on every 16th request the answer's digest equals the digest of the
//! in-process `Checkpoint::sample` for the same `(model, sample_seed)`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use serde_json::{Value, ValueExt};
use surrogate::checkpoint::Checkpoint;
use surrogate::{ModelKind, PreparedData, TableCodec};

use crate::probe::{cpu_seconds, median, mix_seed, peak_rss_mb, percentile, repeat_setup, timed};
use crate::{fixture, EndToEnd, Outcome, RunConfig};

/// Requests per second. At about 100 req/s and above, roughly half of the
/// requests wait behind a TabDDPM pass and the p50 of the mix flips between
/// its two modes from run to run.
const RATE: f64 = 50.0;

/// Rows per `sample` request.
const ROWS: usize = 64;
/// An `ok` answer later than this after its due time misses.
const LATENCY_LIMIT_MS: f64 = 50.0;
/// `--deadline-ms` handed to `serve`.
const DEADLINE_MS: u64 = 1_000;
/// Requests per run, at least: enough for ten samples beyond the p99.
const MIN_REQUESTS: usize = 1_000;
/// The run is invalid when the sender's p99 lag behind schedule exceeds
/// this: the latencies would then measure the sender, not `serve`.
const SENDER_LAG_BOUND_MS: f64 = 20.0;
/// Every this-many-th request is checked against an in-process sample.
const VERIFY_EVERY: usize = 16;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// How long a `serve` child may take to exit after its stdin closes.
const EXIT_GRACE: Duration = Duration::from_secs(10);

/// The served models; index 0 is TabDDPM, 1 is TVAE.
const MODELS: [ModelKind; 2] = [ModelKind::TabDdpm, ModelKind::Tvae];
const MODEL_NAMES: [&str; 2] = ["tabddpm", "tvae"];

/// A running `serve` child. Dropping it closes its stdin and waits for it
/// to exit (killing it after [`EXIT_GRACE`]).
struct ServeChild {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl ServeChild {
    fn spawn(bin: &Path, dir: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .arg("--checkpoints")
            .arg(dir)
            .arg("--deadline-ms")
            .arg(DEADLINE_MS.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Self {
            child,
            stdin: Some(stdin),
            stdout,
        })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.stdin
            .as_mut()
            .expect("stdin stays open until drop")
            .write_all(line.as_bytes())
            .map_err(|e| format!("serve stdin: {e}"))
    }

    fn receive(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("serve closed its stdout".to_string()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("serve stdout: {e}")),
        }
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        drop(self.stdin.take());
        let give_up = Instant::now() + EXIT_GRACE;
        while let Ok(None) = self.child.try_wait() {
            if Instant::now() >= give_up {
                let _ = self.child.kill();
                let _ = self.child.wait();
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Per-call timings of the set-up.
#[derive(Debug, Default, Clone, Copy)]
struct SetupTimes {
    /// Fit wall time and epochs per model, in [`MODELS`] order.
    fit_s: [f64; 2],
    epochs: [usize; 2],
    save_s: f64,
    load_s: f64,
    bytes: u64,
}

struct Served {
    data: PreparedData,
    /// The checkpoints as read back from disk, in [`MODELS`] order.
    checkpoints: Vec<Checkpoint>,
    child: ServeChild,
    times: SetupTimes,
}

fn setup(bin: &Path, dir: &Path) -> Result<Served, String> {
    let data = surrogate::prepare_data_from_config(&fixture::config().config);
    let mut times = SetupTimes::default();
    let mut paths: Vec<PathBuf> = Vec::new();
    for (i, kind) in MODELS.into_iter().enumerate() {
        let saved = fixture::fit_and_save(kind, &data.train, dir)?;
        times.fit_s[i] = saved.fit_s;
        times.epochs[i] = saved.epochs;
        times.save_s += saved.save_s;
        paths.push(saved.path);
    }
    let mut child = ServeChild::spawn(bin, dir)?;
    child.send("{\"id\":0,\"op\":\"health\"}\n")?;
    let health: Value = serde_json::from_str(child.receive()?.trim())
        .map_err(|e| format!("unparseable health answer: {e}"))?;
    let models = health
        .get("models")
        .and_then(Value::as_array)
        .map_or(0, <[Value]>::len);
    if health.get("status").and_then(Value::as_str) != Some("ok") || models != MODELS.len() {
        return Err(format!("serve is not healthy: {health:?}"));
    }
    let mut checkpoints = Vec::new();
    for path in &paths {
        let (loaded, load_s, bytes) = fixture::load(path)?;
        checkpoints.push(loaded);
        times.load_s += load_s;
        times.bytes += bytes;
    }
    Ok(Served {
        data,
        checkpoints,
        child,
        times,
    })
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
struct Planned {
    /// Due time, in seconds after the loop starts.
    at_s: f64,
    /// Index into [`MODELS`].
    model: usize,
    sample_seed: u64,
}

/// The request schedule: evenly spaced at `rate`, and in every block of
/// four requests one, at a seeded position, goes to TabDDPM.
///
/// Even spacing keeps the latency a measure of `serve`: the 20 ms gap after
/// a TabDDPM request exceeds its forward pass (about 8.5 ms), so requests do
/// not pile up behind one another. Poisson arrivals made the tail depend on
/// how arrivals happened to cluster: on one fixed trace at 75 req/s the p99
/// ranged over 11.7–24.3 ms from run to run.
fn plan(seed: u64, n: usize, rate: f64) -> Vec<Planned> {
    (0..n)
        .map(|i| {
            let heavy_slot = mix_seed(seed, (i / 4) as u64) % 4;
            Planned {
                at_s: i as f64 / rate,
                model: usize::from((i % 4) as u64 != heavy_slot),
                // 53 bits: the seed travels as a JSON number.
                sample_seed: mix_seed(seed ^ 0x5EED, i as u64) >> 11,
            }
        })
        .collect()
}

fn request_line(id: usize, planned: &Planned) -> String {
    format!(
        "{{\"id\":{id},\"op\":\"sample\",\"model\":\"{}\",\"preset\":\"{}\",\"seed\":{},\
         \"budget\":\"smoke\",\"rows\":{ROWS},\"sample_seed\":{}}}\n",
        MODEL_NAMES[planned.model],
        fixture::PRESET,
        fixture::DATA_SEED,
        planned.sample_seed
    )
}

/// One answered request.
#[derive(Debug, Clone)]
struct Answer {
    latency_ms: f64,
    ok: bool,
    status: String,
    rows: Option<usize>,
    digest: Option<String>,
}

/// What one open-loop pass observed.
struct LoopResult {
    /// Per request, in id order; `None` when no answer arrived.
    answers: Vec<Option<Answer>>,
    lags_ms: Vec<f64>,
    cpu_s: f64,
    peak_rss_mb: f64,
}

/// Send the whole schedule and collect every answer.
fn open_loop(child: &mut ServeChild, schedule: &[Planned]) -> Result<LoopResult, String> {
    let lines: Vec<String> = schedule
        .iter()
        .enumerate()
        .map(|(id, planned)| request_line(id + 1, planned))
        .collect();
    let pid = child.pid();
    let cpu_before = cpu_seconds(Some(pid))?;
    let ServeChild { stdin, stdout, .. } = child;
    let stdin = stdin.as_mut().expect("stdin stays open until drop");
    let n = lines.len();
    // Start a little ahead so the first due time is not already past.
    let start = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| start + Duration::from_secs_f64(schedule[i].at_s);
    let (received, lags) = std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut received: Vec<(Instant, String)> = Vec::with_capacity(n);
            while received.len() < n {
                let mut line = String::new();
                match stdout.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => received.push((Instant::now(), line)),
                }
            }
            received
        });
        let mut lags = Vec::with_capacity(n);
        for (i, line) in lines.iter().enumerate() {
            let due = due(i);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            lags.push(due.elapsed().as_secs_f64() * 1e3);
            if stdin.write_all(line.as_bytes()).is_err() {
                break;
            }
        }
        (
            reader.join().expect("the reader thread does not panic"),
            lags,
        )
    });
    let cpu_s = cpu_seconds(Some(pid))? - cpu_before;
    let peak_rss_mb = peak_rss_mb(Some(pid))?;

    let mut answers: Vec<Option<Answer>> = vec![None; n];
    for (at, line) in received {
        let value: Value = serde_json::from_str(line.trim())
            .map_err(|e| format!("unparseable answer '{}': {e}", line.trim()))?;
        let id = value
            .get("id")
            .and_then(Value::as_f64)
            .map(|id| id as usize)
            .filter(|id| (1..=n).contains(id))
            .ok_or_else(|| format!("answer without a known id: {}", line.trim()))?;
        answers[id - 1] = Some(Answer {
            latency_ms: at.saturating_duration_since(due(id - 1)).as_secs_f64() * 1e3,
            ok: matches!(value.get("ok"), Some(Value::Bool(true))),
            status: value
                .get("status")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            rows: value
                .get("rows")
                .and_then(Value::as_f64)
                .map(|r| r as usize),
            digest: value
                .get("digest")
                .and_then(Value::as_str)
                .map(str::to_string),
        });
    }
    Ok(LoopResult {
        answers,
        lags_ms: lags,
        cpu_s,
        peak_rss_mb,
    })
}

/// The checks and statistics of one pass.
struct Scored {
    e2e: EndToEnd,
    failed: u64,
    /// p50 latency per model, in [`MODELS`] order.
    class_p50_ms: [f64; 2],
    p99_ms: f64,
    shed: usize,
    deadline: usize,
    lag_p99_ms: f64,
}

fn score(result: &LoopResult, schedule: &[Planned]) -> Scored {
    let n = schedule.len();
    let mut latencies = Vec::with_capacity(n);
    let mut by_class: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let (mut failed, mut in_limit, mut shed, mut deadline) = (0u64, 0usize, 0usize, 0usize);
    for (answer, planned) in result.answers.iter().zip(schedule) {
        let Some(answer) = answer else {
            failed += 1;
            continue;
        };
        latencies.push(answer.latency_ms);
        by_class[planned.model].push(answer.latency_ms);
        shed += usize::from(answer.status == "overload");
        deadline += usize::from(answer.status == "deadline");
        let good = answer.ok && answer.status == "ok" && answer.rows == Some(ROWS);
        if !good {
            failed += 1;
        } else if answer.latency_ms <= LATENCY_LIMIT_MS {
            in_limit += 1;
        }
    }
    Scored {
        e2e: EndToEnd {
            op_p50_ms: median(&latencies),
            cpu_ms_per_op: result.cpu_s * 1e3 / n as f64,
            ok_frac: in_limit as f64 / n as f64,
            peak_rss_mb: result.peak_rss_mb,
            setup_s: 0.0,
        },
        failed,
        class_p50_ms: [median(&by_class[0]), median(&by_class[1])],
        p99_ms: percentile(&latencies, 0.99),
        shed,
        deadline,
        lag_p99_ms: percentile(&result.lags_ms, 0.99),
    }
}

/// Check every [`VERIFY_EVERY`]-th answer against an in-process sample of
/// the same spec. Returns the mismatches and the in-process sampling times
/// (ms) per model.
fn verify(
    served: &Served,
    schedule: &[Planned],
    result: &LoopResult,
) -> Result<(usize, [Vec<f64>; 2]), String> {
    let mut mismatches = 0;
    let mut forward_ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for (i, planned) in schedule.iter().enumerate().step_by(VERIFY_EVERY) {
        let checkpoint = &served.checkpoints[planned.model];
        let (table, seconds) = timed(|| checkpoint.sample(ROWS, planned.sample_seed));
        let table = table.map_err(|e| format!("in-process sample: {e}"))?;
        forward_ms[planned.model].push(seconds * 1e3);
        let expected = fixture::table_digest(&table);
        match &result.answers[i] {
            Some(answer) if answer.ok => {
                mismatches += usize::from(answer.digest.as_deref() != Some(expected.as_str()));
            }
            _ => {}
        }
    }
    Ok((mismatches, forward_ms))
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let bin = cfg
        .serve_bin
        .clone()
        .ok_or("serve workloads need --serve-bin")?;
    let dir = cfg.work_dir.join("checkpoints");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let (mut served, setup_s) = repeat_setup(SETUPS, || setup(&bin, &dir))?;

    let n = ((RATE * cfg.seconds as f64).ceil() as usize).max(MIN_REQUESTS);
    let schedule = plan(cfg.seed, n, RATE);
    let timed_loop = open_loop(&mut served.child, &schedule)?;
    let scored = score(&timed_loop, &schedule);
    let (mismatches, forward_ms) = verify(&served, &schedule, &timed_loop)?;

    let lag_ok = scored.lag_p99_ms <= SENDER_LAG_BOUND_MS;
    let mut out = Outcome {
        attempted: n as u64,
        failed: scored.failed + mismatches as u64,
        e2e: EndToEnd {
            setup_s,
            ..scored.e2e
        },
        ..Outcome::default()
    };
    out.notes.push(format!(
        "latency_ms p50={} p99={}",
        scored.e2e.op_p50_ms, scored.p99_ms
    ));
    out.notes.push(format!(
        "rate={RATE}/s requests={n} latency_limit_ms={LATENCY_LIMIT_MS} \
         digest_checks={} mismatches={mismatches} sender_lag_p99_ms={}",
        n.div_ceil(VERIFY_EVERY),
        scored.lag_p99_ms
    ));
    if !lag_ok {
        out.notes.push(format!(
            "invalid run: the sender fell {} ms behind schedule (bound {SENDER_LAG_BOUND_MS} ms)",
            scored.lag_p99_ms
        ));
    }

    if cfg.trace {
        let layers = &mut out.layers;
        fixture::prepare_traced(&fixture::config().config, &served.data, layers)?;
        codec_probe(&served.data, layers)?;
        let traced_loop = open_loop(&mut served.child, &schedule)?;
        let traced = score(&traced_loop, &schedule);
        // Same requests, same answers: a digest that moved between the two
        // passes is a failure too.
        let drifted = traced_loop
            .answers
            .iter()
            .zip(&timed_loop.answers)
            .filter(|(a, b)| match (a, b) {
                (Some(a), Some(b)) if a.ok && b.ok => a.digest != b.digest,
                _ => false,
            })
            .count();
        out.failed += traced.failed + drifted as u64;
        record_layers(layers, &served.times, &forward_ms, &traced);
        out.set_overhead(&traced.e2e);
    }
    out.correct = out.failed == 0 && lag_ok;
    Ok(out)
}

/// Time the codec on one request's worth of rows: `encode` of a 64-row
/// slice of the training table and `decode` of its encoding (medians).
fn codec_probe(
    data: &PreparedData,
    layers: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    const REPEATS: usize = 25;
    let codec = TableCodec::fit(&data.train).map_err(|e| format!("codec fit: {e}"))?;
    let rows: Vec<usize> = (0..ROWS.min(data.train.n_rows())).collect();
    let slice = data.train.take(&rows);
    let (mut encode_s, mut decode_s) = (Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let (encoded, seconds) = timed(|| codec.encode(&slice));
        encode_s.push(seconds);
        let encoded = encoded.map_err(|e| format!("codec encode: {e}"))?;
        let (decoded, seconds) = timed(|| codec.decode(&encoded));
        decode_s.push(seconds);
        decoded.map_err(|e| format!("codec decode: {e}"))?;
    }
    layers.insert("codec.encode_s", median(&encode_s));
    layers.insert("codec.decode_s", median(&decode_s));
    Ok(())
}

fn record_layers(
    layers: &mut BTreeMap<&'static str, f64>,
    setup: &SetupTimes,
    forward_ms: &[Vec<f64>; 2],
    traced: &Scored,
) {
    for (i, name) in MODEL_NAMES.iter().enumerate() {
        let forward = median(&forward_ms[i]);
        let (fit, per_epoch, sample, forward_name, overhead) = match *name {
            "tabddpm" => (
                "tabddpm.fit_s",
                "tabddpm.fit_s_per_epoch",
                "tabddpm.sample_s",
                "serve.forward_ms.tabddpm",
                "serve.overhead_ms.tabddpm",
            ),
            _ => (
                "tvae.fit_s",
                "tvae.fit_s_per_epoch",
                "tvae.sample_s",
                "serve.forward_ms.tvae",
                "serve.overhead_ms.tvae",
            ),
        };
        layers.insert(fit, setup.fit_s[i]);
        layers.insert(per_epoch, setup.fit_s[i] / setup.epochs[i] as f64);
        layers.insert(sample, forward / 1e3);
        layers.insert(forward_name, forward);
        layers.insert(overhead, traced.class_p50_ms[i] - forward);
    }
    layers.insert("checkpoint.save_s", setup.save_s);
    layers.insert("checkpoint.load_s", setup.load_s);
    layers.insert("checkpoint.bytes", setup.bytes as f64);
    layers.insert("serve.shed", traced.shed as f64);
    layers.insert("serve.deadline", traced.deadline as f64);
    layers.insert("serve.sender_lag_ms", traced.lag_p99_ms);
    layers.insert("serve.latency_p99_ms", traced.p99_ms);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_request_in_four_goes_to_tabddpm() {
        let schedule = plan(7, 400, 50.0);
        let heavy = schedule.iter().filter(|p| p.model == 0).count();
        assert_eq!(heavy, 100);
        for block in schedule.chunks(4) {
            assert_eq!(block.iter().filter(|p| p.model == 0).count(), 1);
        }
        assert_eq!(plan(7, 400, 50.0)[5].sample_seed, schedule[5].sample_seed);
        assert_ne!(plan(8, 400, 50.0)[5].sample_seed, schedule[5].sample_seed);
        assert_eq!(schedule[100].at_s, 2.0);
    }

    #[test]
    fn request_lines_parse_as_json() {
        let line = request_line(3, &plan(1, 4, 50.0)[0]);
        let value: Value = serde_json::from_str(line.trim()).unwrap();
        assert_eq!(value.get("rows").and_then(Value::as_f64), Some(64.0));
        assert_eq!(
            value.get("seed").and_then(Value::as_f64),
            Some(fixture::DATA_SEED as f64)
        );
    }
}
