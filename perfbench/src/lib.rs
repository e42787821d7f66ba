//! The repository benchmark: four seeded, closed-loop workloads over the
//! `mflb` public API, an end-to-end run and a separate traced run that
//! attributes wall time to layers. See `README.md` for the metric map.
//!
//! An untraced run (`--trace 0`) repeats the named workload at full size
//! for the measured seconds and reports each timing's fastest sample (see
//! [`END_TO_END`]). Between those repetitions it runs the other three
//! workloads at their small size, so every run reports every end-to-end
//! metric, and it times the named workload's set-up in batches. A traced
//! run (`--trace 1`) alternates untraced and traced repetitions of the
//! named workload and reports the per-layer metrics, the tracing overhead
//! and the span coverage.

pub mod layers;
pub mod provenance;
pub mod stats;
pub mod trace;
pub mod workloads;

use layers::{layer_metrics, PER_LAYER, REP_SPAN};
use serde_json::Value;
use stats::median;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;
use workloads::{Rep, Scale, Workload, NAMES};

/// Which of a run's samples of a metric it reports: the fastest for
/// throughputs and times, the median otherwise (where all are equal).
const HIGH: f64 = 1.0;
const LOW: f64 = 0.0;
const MID: f64 = 0.5;

/// Name, unit and reported quantile (of the run's samples) of every
/// end-to-end metric, in output order. A timing reports the run's fastest
/// sample: on a machine shared with other tenants, samples fall into a
/// fast mode and a slowed one whose share changes from run to run, so the
/// median jumps between the modes while the fastest sample stays put.
/// `setup_s` is the fastest of the run's timed batches of set-ups (see
/// [`measure`]); the quality metrics are the same in every repetition.
pub const END_TO_END: [(&str, &str, f64); 12] = [
    ("setup_s", "s", LOW),
    ("peak_rss_mb", "MB", MID),
    ("train.steps_per_s", "1/s", HIGH),
    ("train.final_return", "drops", MID),
    ("eval.runs_per_s", "1/s", HIGH),
    ("eval.drops_per_queue", "drops", MID),
    ("graph.qepochs_per_s", "1/s", HIGH),
    ("graph.drops_per_queue", "drops", MID),
    ("serve.jobs_per_s", "1/s", HIGH),
    ("serve.interval_p50_us", "us", LOW),
    ("serve.interval_p99_us", "us", LOW),
    ("serve.loss_fraction", "ratio", MID),
];

/// Time each small companion workload gets in a round, as a share of the
/// named workload's repetition in that round.
const COMPANION_SHARE: f64 = 0.3;
/// Rounds an untraced run makes at least.
const MIN_ROUNDS: usize = 2;
/// Untraced/traced repetition pairs a traced run makes at least.
const MIN_PAIRS: usize = 2;
/// Set-up batches an untraced run times per pass over the companions (see
/// [`measure`]). Each batch repeats the named workload's set-up for at
/// least [`SETUP_BATCH_S`] and yields the mean; `setup_s` is the fastest
/// batch of the run.
const SETUP_BATCHES_PER_PASS: usize = 4;
const SETUP_BATCH_S: f64 = 0.02;

/// The result of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Repetitions and checks attempted.
    pub attempted: u64,
    /// One line per repetition or check that failed or whose outputs were
    /// wrong.
    pub problems: Vec<String>,
    /// `(name, unit, value)` in output order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.metrics.iter().all(|m| m.2.is_finite())
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.2)
    }

    /// The result line.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let value = if value.is_finite() { Value::Float(*value) } else { Value::Null };
                (
                    name.to_string(),
                    obj(vec![("value", value), ("unit", Value::Str(unit.to_string()))]),
                )
            })
            .collect();
        obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Int(self.attempted.into())),
            ("failed", Value::Int(self.problems.len() as i128)),
            ("metrics", Value::Obj(metrics)),
        ])
    }

    fn check(&mut self, label: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.problems.push(format!("{label}: {e}"));
        }
    }
}

/// A JSON object with the given entries, in order.
pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Obj(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One workload's repetitions within a run.
struct Series {
    label: String,
    workload: Workload,
    /// Fingerprint of the warm-up repetition.
    reference: Option<Vec<u64>>,
    plain: Vec<Rep>,
    traced: Vec<Rep>,
    /// Mean set-up time of each timed batch of set-ups.
    setups: Vec<f64>,
}

impl Series {
    fn new(label: String, workload: Workload) -> Self {
        let (plain, traced, setups) = (Vec::new(), Vec::new(), Vec::new());
        Self { label, workload, reference: None, plain, traced, setups }
    }

    /// Runs the first repetition, whose outputs every later one must
    /// match, and keeps none of its timings: it pays for first touches
    /// of memory and caches.
    fn warm_up(&mut self, out: &mut Outcome) {
        out.attempted += 1;
        match self.workload.rep(None) {
            Ok(rep) => self.reference = Some(rep.fingerprint),
            Err(e) => out.problems.push(format!("{} (warm-up): {e}", self.label)),
        }
    }

    /// Runs one repetition, traced when `tracer` is given, and checks its
    /// outputs against the warm-up's. Returns the seconds it took.
    fn rep(&mut self, out: &mut Outcome, tracer: Option<&Arc<Tracer>>) -> f64 {
        let t = Instant::now();
        out.attempted += 1;
        let label = &self.label;
        let rep = match self.workload.rep(tracer) {
            Ok(rep) => rep,
            Err(e) => {
                out.problems.push(format!("{label}: {e}"));
                return t.elapsed().as_secs_f64();
            }
        };
        eprintln!(
            "{label}{}: set-up {:.4} s, work {:.4} s",
            if tracer.is_some() { " (traced)" } else { "" },
            rep.setup_s,
            rep.wall_s
        );
        if let Some(t) = tracer {
            // The window counts even if the check below fails: its spans
            // are already recorded.
            let start = t.ns_of(rep.work_start);
            t.record_between(REP_SPAN, 0, start, start + (rep.wall_s * 1e9) as u64, 0);
        }
        if self.reference.as_ref() != Some(&rep.fingerprint) {
            let kind = if tracer.is_some() { "traced" } else { "repeated" };
            out.problems.push(format!("{label}: {kind} run's outputs differ from the first run's"));
        } else if tracer.is_some() {
            self.traced.push(rep);
        } else {
            self.plain.push(rep);
        }
        t.elapsed().as_secs_f64()
    }

    /// Times `batches` batches of set-ups (see [`SETUP_BATCHES_PER_PASS`]).
    fn time_setups(&mut self, out: &mut Outcome, batches: usize) {
        let single = self.plain.last().map_or(SETUP_BATCH_S, |r| r.setup_s);
        let per_batch = (SETUP_BATCH_S / single.max(1e-6)).ceil().clamp(1.0, 1000.0) as usize;
        for _ in 0..batches {
            let t = Instant::now();
            for _ in 0..per_batch {
                if let Err(e) = self.workload.setup_once() {
                    out.attempted += 1;
                    return out.problems.push(format!("{} (set-up): {e}", self.label));
                }
            }
            self.setups.push(t.elapsed().as_secs_f64() / per_batch as f64);
        }
    }
}

/// Runs rounds until the run has used about `seconds` since `start` (at
/// least `min_rounds`). A round runs the first series once, followed by a
/// traced repetition when `tracer` is given, then passes over the other
/// series, one repetition each, until each has had [`COMPANION_SHARE`] of
/// the first one's time. In an untraced run, every pass also times a few
/// batches of the first series' set-up. Interleaving in short pieces lets
/// slow phases of a shared machine hit every measurement alike.
fn measure(
    out: &mut Outcome,
    series: &mut [Series],
    start: Instant,
    seconds: f64,
    min_rounds: usize,
    tracer: Option<&Arc<Tracer>>,
) {
    let mut costs = Vec::new();
    let Some((main, companions)) = series.split_first_mut() else { return };
    loop {
        let t = Instant::now();
        let budget = COMPANION_SHARE * main.rep(out, None);
        if tracer.is_some() {
            main.rep(out, tracer);
        }
        let mut used = vec![0.0; companions.len()];
        for pass in 0..32 {
            let mut ran = false;
            for (c, u) in companions.iter_mut().zip(&mut used) {
                if pass == 0 || *u < budget {
                    *u += c.rep(out, None);
                    ran = true;
                }
            }
            if tracer.is_none() {
                main.time_setups(out, SETUP_BATCHES_PER_PASS);
            }
            if !ran {
                break;
            }
        }
        costs.push(t.elapsed().as_secs_f64());
        let failing = !out.problems.is_empty();
        let used = start.elapsed().as_secs_f64() + median(costs.iter().copied());
        if costs.len() >= min_rounds && (failing || used > seconds) {
            return;
        }
    }
}

/// Every sample of each end-to-end metric over the repetitions, pooling
/// a metric's per-unit entries (see [`Rep::metrics`]).
fn samples(reps: &[Rep], into: &mut BTreeMap<&'static str, Vec<f64>>) {
    for (name, v) in reps.iter().flat_map(|r| &r.metrics) {
        into.entry(name).or_default().push(*v);
    }
}

/// The end-to-end run: every [`END_TO_END`] metric. The named workload
/// runs at full size; every round also runs each other workload at its
/// small size (see [`measure`]).
pub fn run_untraced(name: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut out = Outcome::default();
    let mut main = Series::new(name.to_string(), Workload::prepare(name, seed, Scale::Full)?);
    // The warm-up runs alone, so the peak resident memory is the named
    // workload's own.
    main.warm_up(&mut out);
    let peak_rss = peak_rss_mb();
    let mut series = vec![main];
    for other in NAMES.into_iter().filter(|n| *n != name) {
        let mut s =
            Series::new(format!("{other} (small)"), Workload::prepare(other, seed, Scale::Small)?);
        s.warm_up(&mut out);
        series.push(s);
    }
    if out.problems.is_empty() {
        measure(&mut out, &mut series, start, seconds, MIN_ROUNDS, None);
    }

    let main = &series[0];
    if let Some(first) = main.plain.first() {
        out.check(name, main.workload.extra_check(first));
    }
    let mut values = BTreeMap::new();
    values.insert("setup_s", main.setups.clone());
    values.insert("peak_rss_mb", vec![peak_rss]);
    for s in &series {
        samples(&s.plain, &mut values);
    }
    out.metrics = END_TO_END
        .iter()
        .map(|&(n, unit, q)| {
            let value = values.get_mut(n).map_or(f64::NAN, |v| stats::quantile(v, q));
            (n, unit, value)
        })
        .collect();
    Ok(out)
}

/// Alternates untraced and traced repetitions of one workload (see
/// [`measure`]), runs its extra checks, and computes every [`PER_LAYER`]
/// metric from the spans.
fn traced_run(
    name: &str,
    seed: u64,
    scale: Scale,
    seconds: f64,
    min_pairs: usize,
) -> Result<(Outcome, Series, Arc<Tracer>), String> {
    let start = Instant::now();
    let mut series = [Series::new(name.to_string(), Workload::prepare(name, seed, scale)?)];
    let tracer = Tracer::new();
    let mut out = Outcome::default();
    series[0].warm_up(&mut out);
    if out.problems.is_empty() {
        measure(&mut out, &mut series, start, seconds, min_pairs, Some(&tracer));
    }
    let [s] = series;
    if let Some(first) = s.plain.first() {
        out.check(name, s.workload.extra_check(first));
    }
    let overhead =
        median(s.traced.iter().map(|r| r.wall_s)) / median(s.plain.iter().map(|r| r.wall_s));
    let values = layer_metrics(&tracer.spans(), overhead, s.workload.trace_bytes());
    out.metrics = PER_LAYER.iter().zip(values).map(|(&(n, unit), v)| (n, unit, v)).collect();
    Ok((out, s, tracer))
}

/// The traced run: every [`PER_LAYER`] metric, plus the tracer holding
/// its spans.
pub fn run_traced(name: &str, seed: u64, seconds: f64) -> Result<(Outcome, Arc<Tracer>), String> {
    let (out, _, tracer) = traced_run(name, seed, Scale::Full, seconds, MIN_PAIRS)?;
    Ok((out, tracer))
}

/// Layer metrics that must be non-zero on each workload: proof that its
/// wrappers are wired in.
fn expected_layers(name: &str) -> &'static [&'static str] {
    match name {
        "train-ppo-quick" => &["rl.update.calls", "rl.collect.wall_s", "rl.env.step.calls"],
        "eval-mc-m1000" => {
            &["sim.engine.step.calls", "sim.engine.empirical.busy_s", "policy.decide.calls"]
        }
        "graph-torus-100k" => {
            &["sim.graph.step.busy_s", "core.topology.build_s", "policy.decide.calls"]
        }
        _ => &[
            "sim.trace.parse.lines",
            "sim.serve.intervals",
            "rl.checkpoint.load_s",
            "policy.decide.calls",
        ],
    }
}

/// Runs every workload at its small size, once untraced and once traced,
/// with every output check. Returns one summary line per workload.
pub fn self_check(seed: u64) -> Result<Vec<String>, String> {
    let mut summary = Vec::new();
    for name in NAMES {
        let (out, s, _) = traced_run(name, seed, Scale::Small, 0.0, 1)?;
        let (Some(plain), Some(traced), true) = (s.plain.first(), s.traced.first(), out.correct())
        else {
            return Err(out.problems.join("; "));
        };
        if let Some((metric, v)) = plain.metrics.iter().find(|(_, v)| !(v.is_finite() && *v > 0.0))
        {
            return Err(format!("{name}: end-to-end metric {metric} = {v}"));
        }
        for metric in expected_layers(name) {
            if out.value(metric).filter(|v| *v > 0.0).is_none() {
                return Err(format!("{name}: traced run recorded no {metric}"));
            }
        }
        summary.push(format!(
            "{name}: {:.3} s untraced, {:.3} s traced, coverage {:.3}",
            plain.wall_s,
            traced.wall_s,
            out.value("trace.coverage").unwrap_or(f64::NAN)
        ));
    }
    Ok(summary)
}
