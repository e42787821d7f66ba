//! Per-layer metrics, computed from the spans of a traced run.
//!
//! Busy times and call counts are per traced repetition, so they compare
//! across runs of different lengths. Layers a workload never calls read 0.

use crate::stats::{median, quantile};
use crate::trace::Span;
use crate::workloads::WORKERS;
use std::collections::HashSet;

/// Name and unit of every per-layer metric, in output order.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("rl.update.wall_s", "s"),
    ("rl.update.calls", "count"),
    ("rl.update.minibatches", "count"),
    ("rl.collect.wall_s", "s"),
    ("rl.env.step.busy_s", "s"),
    ("rl.env.step.calls", "count"),
    ("rl.collect.env_share", "ratio"),
    ("sim.engine.step.busy_s", "s"),
    ("sim.engine.step.calls", "count"),
    ("sim.engine.empirical.busy_s", "s"),
    ("sim.mc.worker_busy_share", "ratio"),
    ("policy.decide.busy_s", "s"),
    ("policy.decide.calls", "count"),
    ("policy.decide.rows_per_call", "rows"),
    ("sim.graph.step.busy_s", "s"),
    ("sim.graph.step.p50_ms", "ms"),
    ("sim.graph.step.p90_ms", "ms"),
    ("core.topology.build_s", "s"),
    ("sim.trace.parse.busy_s", "s"),
    ("sim.trace.parse.lines", "count"),
    ("sim.trace.parse.mb_per_s", "MB/s"),
    ("sim.serve.dispatch.self_s", "s"),
    ("sim.serve.intervals", "count"),
    ("sim.serve.jobs_per_interval", "jobs"),
    ("rl.checkpoint.load_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.low_coverage", "count"),
];

/// Coverage below this share of wall time flags a workload: its layers
/// do not explain where the time went.
pub const MIN_COVERAGE: f64 = 0.9;

/// Name of the span the benchmark records around each traced repetition's
/// timed work.
pub const REP_SPAN: &str = "bench.rep";

/// Sum that is `0.0`, not `-0.0`, when empty.
fn total(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, |a, b| a + b)
}

struct Layer<'a> {
    spans: Vec<&'a Span>,
}

impl Layer<'_> {
    fn busy(&self) -> f64 {
        total(self.spans.iter().map(|s| s.secs()))
    }
    fn calls(&self) -> f64 {
        self.spans.len() as f64
    }
    fn items(&self) -> f64 {
        total(self.spans.iter().map(|s| s.items as f64))
    }
    fn durations(&self) -> Vec<f64> {
        self.spans.iter().map(|s| s.secs()).collect()
    }
}

fn layer<'a>(spans: &'a [Span], name: &str) -> Layer<'a> {
    Layer { spans: spans.iter().filter(|s| s.name == name).collect() }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Share of the timed wall time that top-level layer spans cover. Each
/// repetition window counts once per thread that ran top-level spans in
/// it (one for the calling thread, [`WORKERS`] for Monte-Carlo workers).
pub fn coverage(spans: &[Span]) -> f64 {
    let (mut covered, mut capacity) = (0.0, 0.0);
    for w in spans.iter().filter(|s| s.name == REP_SPAN) {
        let mut threads = HashSet::new();
        for s in spans.iter().filter(|s| s.parent == 0 && !s.name.starts_with("bench.")) {
            let (lo, hi) = (s.start_ns.max(w.start_ns), s.end_ns.min(w.end_ns));
            if hi > lo {
                covered += (hi - lo) as f64;
                threads.insert(s.thread);
            }
        }
        capacity += threads.len().max(1) as f64 * (w.end_ns - w.start_ns) as f64;
    }
    ratio(covered, capacity)
}

/// Every [`PER_LAYER`] metric. `overhead` is traced over untraced wall
/// time; `trace_bytes` the trace text size one parse reads.
pub fn layer_metrics(spans: &[Span], overhead: f64, trace_bytes: u64) -> Vec<f64> {
    let reps = layer(spans, REP_SPAN);
    let n = reps.calls().max(1.0);
    let rep_wall = reps.busy();

    let update = layer(spans, "rl.update");
    let collect = layer(spans, "rl.collect");
    let env_step = layer(spans, "rl.env.step");
    let eng_init = layer(spans, "sim.engine.init");
    let eng_emp = layer(spans, "sim.engine.empirical");
    let eng_step = layer(spans, "sim.engine.step");
    let decide = layer(spans, "policy.decide");
    let mut graph_step = layer(spans, "sim.graph.step").durations();
    let topo = layer(spans, "core.topology.build").durations();
    let parse = layer(spans, "sim.trace.parse");
    let serve = layer(spans, "sim.serve");
    let intervals = layer(spans, "sim.serve.interval");
    let load = layer(spans, "rl.checkpoint.load").durations();

    let serve_ids: HashSet<u64> = serve.spans.iter().map(|s| s.id).collect();
    let serve_decide =
        total(decide.spans.iter().filter(|s| serve_ids.contains(&s.parent)).map(|s| s.secs()));
    let mc_busy = if eng_step.spans.is_empty() {
        0.0
    } else {
        eng_init.busy() + eng_emp.busy() + eng_step.busy() + decide.busy()
    };
    let cov = coverage(spans);
    let zero_if_nan = |v: f64| if v.is_nan() { 0.0 } else { v };
    let graph_busy = total(graph_step.iter().copied());

    vec![
        update.busy() / n,
        update.calls() / n,
        update.items() / n,
        collect.busy() / n,
        env_step.busy() / n,
        env_step.calls() / n,
        ratio(env_step.busy(), WORKERS as f64 * collect.busy()),
        eng_step.busy() / n,
        eng_step.calls() / n,
        eng_emp.busy() / n,
        ratio(mc_busy, WORKERS as f64 * rep_wall),
        decide.busy() / n,
        decide.calls() / n,
        ratio(decide.items(), decide.calls()),
        graph_busy / n,
        zero_if_nan(quantile(&mut graph_step, 0.5) * 1e3),
        zero_if_nan(quantile(&mut graph_step, 0.9) * 1e3),
        zero_if_nan(median(topo)),
        parse.busy() / n,
        parse.items() / n,
        ratio(parse.calls() * trace_bytes as f64 / 1e6, parse.busy()),
        (serve.busy() - serve_decide) / n,
        intervals.calls() / n,
        ratio(serve.items(), intervals.calls()),
        zero_if_nan(median(load)),
        overhead,
        cov,
        if cov < MIN_COVERAGE { 1.0 } else { 0.0 },
    ]
}
