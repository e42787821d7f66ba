//! In-memory span tracing from outside the library.
//!
//! Nothing inside `mflb` is instrumented. Instead, thin wrappers implement
//! the library's own extension traits ([`Env`], [`Engine`],
//! [`UpperPolicy`]) around the real implementations, and the benchmark
//! wraps its direct calls (`PpoTrainer::{collect_batch, update}`,
//! `parse_trace`, `serve_with`, checkpoint load, engine construction) in
//! [`Tracer::span`]. The wrappers only read the clock: they draw no
//! randomness and change no argument, so a traced run produces the same
//! outputs as an untraced one (the benchmark checks this).
//!
//! Spans stay in memory until the run ends, then [`Tracer::write_jsonl`]
//! writes them out, one JSON object per line.

use mflb_core::mdp::{ObservationBatch, UpperPolicy};
use mflb_core::{DecisionRule, StateDist, SystemConfig};
use mflb_rl::{Env, StepResult};
use mflb_sim::{Engine, EpochStats};
use rand::rngs::StdRng;
use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// Id of the span that caused this one (`0`: a top-level span).
    pub parent: u64,
    /// Small per-thread id (assigned on a thread's first span).
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work items the call handled (rows decided, lines parsed, …).
    pub items: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

fn thread_tag() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local!(static TAG: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    TAG.with(|t| *t)
}

/// The span store shared by every wrapper of one run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    /// The open span that calls made on any thread are children of
    /// (`0`: none). The benchmark opens at most one such span at a time.
    current_parent: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            current_parent: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the tracer's creation to `t`.
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span that started at `start_ns` and ends now.
    pub fn record(&self, name: &'static str, parent: u64, start_ns: u64, items: u64) {
        self.record_between(name, parent, start_ns, self.now_ns(), items);
    }

    /// Records a span with explicit bounds.
    pub fn record_between(
        &self,
        name: &'static str,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
        items: u64,
    ) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let span = Span { name, id, parent, thread: thread_tag(), start_ns, end_ns, items };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Runs `f` as a span that is a child of the currently open parent.
    pub fn span<R>(&self, name: &'static str, items: u64, f: impl FnOnce() -> R) -> R {
        let parent = self.current_parent.load(Ordering::Relaxed);
        let start = self.now_ns();
        let out = f();
        self.record(name, parent, start, items);
        out
    }

    /// Runs `f` as a top-level span whose id every span recorded meanwhile
    /// (on any thread) takes as its parent. `f` receives the span's id and
    /// returns its result with the span's item count.
    pub fn parent_span<R>(&self, name: &'static str, f: impl FnOnce(u64) -> (R, u64)) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        self.current_parent.store(id, Ordering::Relaxed);
        let (out, items) = f(id);
        self.current_parent.store(0, Ordering::Relaxed);
        let end_ns = self.now_ns();
        let span = Span { name, id, parent: 0, thread: thread_tag(), start_ns, end_ns, items };
        self.spans.lock().expect("span store poisoned").push(span);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes `header` and then one JSON line per span.
    pub fn write_jsonl(
        &self,
        path: &std::path::Path,
        header: &serde_json::Value,
    ) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{}", header.to_json())?;
        for s in self.spans() {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"items\":{}}}",
                s.name, s.id, s.parent, s.thread, s.start_ns, s.end_ns, s.items
            )?;
        }
        out.flush()
    }
}

/// Runs `f`, as a span when a tracer is present.
pub fn maybe_span<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    items: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, items, f),
        None => f(),
    }
}

/// [`Env`] wrapper: spans every `reset` and `step`.
pub struct TracedEnv {
    inner: Box<dyn Env>,
    tracer: Arc<Tracer>,
}

impl TracedEnv {
    pub fn new(inner: Box<dyn Env>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl Env for TracedEnv {
    fn obs_dim(&self) -> usize {
        self.inner.obs_dim()
    }

    fn act_dim(&self) -> usize {
        self.inner.act_dim()
    }

    fn reset(&mut self, rng: &mut StdRng) -> Vec<f64> {
        let inner = &mut self.inner;
        self.tracer.span("rl.env.reset", 1, || inner.reset(rng))
    }

    fn step(&mut self, action: &[f64], rng: &mut StdRng) -> StepResult {
        let inner = &mut self.inner;
        self.tracer.span("rl.env.step", 1, || inner.step(action, rng))
    }

    fn boxed_clone(&self) -> Box<dyn Env> {
        Box::new(Self { inner: self.inner.boxed_clone(), tracer: Arc::clone(&self.tracer) })
    }

    fn horizon_hint(&self) -> Option<usize> {
        self.inner.horizon_hint()
    }
}

/// Span names of the aggregate and per-client engines' layer.
pub const ENGINE_SPANS: [&str; 3] = ["sim.engine.init", "sim.engine.empirical", "sim.engine.step"];
/// Span names of the sparse-graph engine's layer.
pub const GRAPH_SPANS: [&str; 3] = ["sim.graph.init", "sim.graph.empirical", "sim.graph.step"];

/// [`Engine`] wrapper: spans `init_state`, `empirical` and `step` under
/// the three given names ([`ENGINE_SPANS`] or [`GRAPH_SPANS`]).
pub struct TracedEngine<'a, E: Engine> {
    inner: &'a E,
    tracer: Arc<Tracer>,
    names: [&'static str; 3],
}

impl<'a, E: Engine> TracedEngine<'a, E> {
    pub fn new(inner: &'a E, tracer: Arc<Tracer>, names: [&'static str; 3]) -> Self {
        Self { inner, tracer, names }
    }
}

impl<E: Engine> Engine for TracedEngine<'_, E> {
    type State = E::State;

    fn config(&self) -> &SystemConfig {
        self.inner.config()
    }

    fn init_state(&self, rng: &mut StdRng) -> Self::State {
        self.tracer.span(self.names[0], 1, || self.inner.init_state(rng))
    }

    fn empirical(&self, state: &Self::State) -> StateDist {
        self.tracer.span(self.names[1], 1, || self.inner.empirical(state))
    }

    fn step(
        &self,
        state: &mut Self::State,
        rule: &DecisionRule,
        lambda: f64,
        rng: &mut StdRng,
    ) -> EpochStats {
        self.tracer.span(self.names[2], 1, || self.inner.step(state, rule, lambda, rng))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// [`Engine`] wrapper for untraced runs too: notes when each `step`
/// returns, so a workload can time its epochs one by one. It only reads
/// the clock.
pub struct StepClock<'a, E: Engine> {
    inner: &'a E,
    ends: Mutex<Vec<Instant>>,
}

impl<'a, E: Engine> StepClock<'a, E> {
    pub fn new(inner: &'a E) -> Self {
        Self { inner, ends: Mutex::new(Vec::new()) }
    }

    /// When each step returned, in order.
    pub fn into_ends(self) -> Vec<Instant> {
        self.ends.into_inner().expect("step clock poisoned")
    }
}

impl<E: Engine> Engine for StepClock<'_, E> {
    type State = E::State;

    fn config(&self) -> &SystemConfig {
        self.inner.config()
    }

    fn init_state(&self, rng: &mut StdRng) -> Self::State {
        self.inner.init_state(rng)
    }

    fn empirical(&self, state: &Self::State) -> StateDist {
        self.inner.empirical(state)
    }

    fn step(
        &self,
        state: &mut Self::State,
        rule: &DecisionRule,
        lambda: f64,
        rng: &mut StdRng,
    ) -> EpochStats {
        let stats = self.inner.step(state, rule, lambda, rng);
        self.ends.lock().expect("step clock poisoned").push(Instant::now());
        stats
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// [`UpperPolicy`] wrapper: spans every `decide_batch` call as
/// `policy.decide` with the batch's row count.
pub struct TracedPolicy<'a> {
    inner: &'a (dyn UpperPolicy + Sync),
    tracer: Arc<Tracer>,
}

impl<'a> TracedPolicy<'a> {
    pub fn new(inner: &'a (dyn UpperPolicy + Sync), tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl UpperPolicy for TracedPolicy<'_> {
    fn decide(&self, dist: &StateDist, lambda_idx: usize, lambda: f64) -> DecisionRule {
        self.inner.decide(dist, lambda_idx, lambda)
    }

    fn decide_batch(&self, batch: &ObservationBatch, out: &mut [DecisionRule]) {
        self.tracer
            .span("policy.decide", batch.len() as u64, || self.inner.decide_batch(batch, out))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
