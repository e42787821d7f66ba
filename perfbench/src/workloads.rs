//! The four workloads. Each is a closed loop: one repetition runs a fixed
//! amount of work as fast as the library allows, and the run repeats it
//! for the measured seconds.
//!
//! A repetition first sets up (reads the scenario, builds engines,
//! trainers, policies, loads checkpoints) and then runs the timed work;
//! both times are reported separately. Every input derives from the
//! workload seed, so all repetitions of one seed do identical work and
//! must produce bit-identical outputs ([`Rep::fingerprint`]).

use crate::trace::{
    maybe_span, StepClock, TracedEngine, TracedEnv, TracedPolicy, Tracer, ENGINE_SPANS, GRAPH_SPANS,
};
use mflb_core::mdp::FixedRulePolicy;
use mflb_core::{SystemConfig, Topology};
use mflb_nn::{Activation, Mlp};
use mflb_policy::{jsq_rule, NeuralUpperPolicy};
use mflb_rl::{
    build_env, Env, PolicyShape, PpoConfig, PpoTrainer, TrainingCheckpoint,
    CHECKPOINT_FORMAT_VERSION,
};
use mflb_sim::{
    monte_carlo, parse_trace, run_episode_conditioned, run_rng, serve_with, AggregateEngine,
    Engine, EngineSpec, EventEngine, GraphEngine, JobSource, Scenario, ServeOptions, StepMode,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Worker threads of every parallel layer (rollouts, Monte-Carlo chunks,
/// graph shards). One: on a small machine shared with other tenants, two
/// busy threads mostly measure whether its second core happens to be free.
pub const WORKERS: usize = 1;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] =
    ["train-ppo-quick", "eval-mc-m1000", "graph-torus-100k", "serve-replay-dt1"];

/// `Full` is the workload as named; `Small` is the same pipeline at a
/// size that runs in well under a second (companion passes and the
/// self-check).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

/// One repetition's measurements.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Set-up wall time (before the first timed call).
    pub setup_s: f64,
    /// When the timed work started.
    pub work_start: Instant,
    /// Timed-work wall time.
    pub wall_s: f64,
    /// The workload's end-to-end metrics for this repetition. A metric
    /// measured per unit of work (a PPO iteration, a graph epoch) appears
    /// once per unit; a run pools the entries of all its repetitions.
    pub metrics: Vec<(&'static str, f64)>,
    /// Bit patterns of the outputs; equal across repetitions of a seed.
    pub fingerprint: Vec<u64>,
}

/// The repository root (the benchmark's parent directory).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Scratch directory for generated inputs and trace output.
pub fn work_dir() -> Result<PathBuf, String> {
    let dir = repo_root().join(".perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn load_scenario(name: &str) -> Result<Scenario, String> {
    let path = repo_root().join("examples/scenarios").join(name);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let scenario = Scenario::from_json(&text).map_err(|e| format!("{name}: {e}"))?;
    scenario.validate().map_err(|e| format!("{name}: {e}"))?;
    Ok(scenario)
}

fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
    values.into_iter().map(f64::to_bits).collect()
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A prepared workload: its generated inputs plus its size.
pub enum Workload {
    Train(Train),
    Eval(Eval),
    Graph(Graph),
    Serve(Serve),
}

impl Workload {
    /// Makes the workload's inputs from the seed (untimed).
    pub fn prepare(name: &str, seed: u64, scale: Scale) -> Result<Self, String> {
        let small = scale == Scale::Small;
        Ok(match name {
            "train-ppo-quick" => {
                Self::Train(Train { seed, iterations: if small { 2 } else { 10 } })
            }
            "eval-mc-m1000" => Self::Eval(Eval {
                seed,
                episodes: if small { 32 } else { 64 },
                horizon: if small { 25 } else { 100 },
            }),
            "graph-torus-100k" => {
                Self::Graph(Graph { seed, side: if small { 71 } else { 316 }, epochs: 50 })
            }
            "serve-replay-dt1" => {
                Self::Serve(Serve::prepare(seed, if small { 250_000 } else { 2_000_000 })?)
            }
            other => {
                return Err(format!("unknown workload `{other}` (one of {})", NAMES.join(", ")))
            }
        })
    }

    /// Runs one repetition, traced when `tracer` is given.
    pub fn rep(&self, tracer: Option<&Arc<Tracer>>) -> Result<Rep, String> {
        match self {
            Self::Train(w) => w.rep(tracer),
            Self::Eval(w) => w.rep(tracer),
            Self::Graph(w) => w.rep(tracer),
            Self::Serve(w) => w.rep(tracer),
        }
    }

    /// Runs the repetition's set-up alone (untraced) and drops what it
    /// built.
    pub fn setup_once(&self) -> Result<(), String> {
        match self {
            Self::Train(w) => w.build(None).map(drop),
            Self::Eval(w) => w.setup().map(drop),
            Self::Graph(w) => w.build(None).map(drop),
            Self::Serve(w) => w.build(None).map(drop),
        }
    }

    /// Checks that need more than repetitions of one configuration.
    pub fn extra_check(&self, first: &Rep) -> Result<(), String> {
        match self {
            Self::Eval(w) => w.worker_count_check(first),
            _ => Ok(()),
        }
    }

    /// Bytes of generated trace text one repetition parses (0 if none).
    pub fn trace_bytes(&self) -> u64 {
        match self {
            Self::Serve(w) => w.text.len() as u64,
            _ => 0,
        }
    }
}

/// `train-ppo-quick`: PPO on the aggregate scenario with the CLI's quick
/// preset, rollouts over [`WORKERS`] threads.
pub struct Train {
    seed: u64,
    iterations: usize,
}

/// The `mflb train --scale quick` preset.
fn quick_ppo() -> PpoConfig {
    PpoConfig {
        gamma: 0.9,
        gae_lambda: 0.9,
        lr: 1e-3,
        train_batch_size: 2000,
        minibatch_size: 250,
        num_epochs: 10,
        kl_target: 0.02,
        hidden: vec![32, 32],
        initial_log_std: -0.5,
        rollout_threads: WORKERS,
        ..PpoConfig::paper()
    }
}

impl Train {
    fn build(&self, tracer: Option<&Arc<Tracer>>) -> Result<PpoTrainer, String> {
        let scenario = load_scenario("aggregate.json")?;
        let env = build_env(&scenario)?;
        let env: Box<dyn Env> = match tracer {
            Some(t) => Box::new(TracedEnv::new(env, Arc::clone(t))),
            None => env,
        };
        Ok(PpoTrainer::new(env.as_ref(), quick_ppo(), self.seed))
    }

    fn rep(&self, tracer: Option<&Arc<Tracer>>) -> Result<Rep, String> {
        let t0 = Instant::now();
        let mut trainer = self.build(tracer)?;
        let setup_s = secs(t0);

        let cfg = quick_ppo();
        let mut metrics = Vec::with_capacity(self.iterations + 1);
        let t1 = Instant::now();
        // The update RNG stream `train_scenario` uses.
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5EED);
        let mut last_return = f64::NAN;
        for _ in 0..self.iterations {
            let (it, steps_before) = (Instant::now(), trainer.total_steps());
            let (buffer, stats) = match tracer {
                Some(t) => t.parent_span("rl.collect", |_| {
                    let out = trainer.collect_batch();
                    let steps = out.0.len() as u64;
                    (out, steps)
                }),
                None => trainer.collect_batch(),
            };
            if !stats.mean_episode_return.is_nan() {
                last_return = stats.mean_episode_return;
            }
            let minibatches = cfg.num_epochs * buffer.len().div_ceil(cfg.minibatch_size);
            match tracer {
                Some(t) => t.parent_span("rl.update", |_| {
                    (trainer.update(&buffer, &mut rng), minibatches as u64)
                }),
                None => trainer.update(&buffer, &mut rng),
            };
            let steps = trainer.total_steps() - steps_before;
            metrics.push(("train.steps_per_s", steps as f64 / secs(it)));
        }
        let wall_s = secs(t1);
        if last_return.is_nan() {
            return Err("no training episode completed".into());
        }
        // Reward is minus the drops of an epoch, so the return is negative;
        // reported as its magnitude.
        metrics.push(("train.final_return", -last_return));
        let mut fingerprint = bits(trainer.policy_net().params_vec());
        fingerprint.extend(bits(trainer.value_net().params_vec()));
        fingerprint.extend(bits(trainer.log_std().iter().copied()));
        Ok(Rep { setup_s, work_start: t1, wall_s, metrics, fingerprint })
    }
}

/// A 2×256 tanh policy network (the paper's Table-2 shape) with weights
/// drawn from `seed`. The library's initializer scales the output layer
/// down so the rule starts near uniform, as at the start of training;
/// that keeps decision quality alike across seeds while inference costs
/// exactly what a trained network's does.
fn seeded_policy_net(scenario: &Scenario, seed: u64) -> Mlp {
    let shape = PolicyShape::for_scenario(scenario);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA11C_E5ED);
    Mlp::policy_default(shape.obs_dim(), shape.act_dim(), &mut rng)
}

/// `eval-mc-m1000`: lockstep Monte-Carlo on the aggregate engine at
/// M = 1000, N = 10⁶, Δt = 5 under a seeded 2×256 network.
pub struct Eval {
    seed: u64,
    episodes: usize,
    horizon: usize,
}

/// Episodes and workers of the worker-count comparison: two lockstep
/// chunks, one per worker.
const WORKER_CHECK_EPISODES: usize = 32;
const CHECK_WORKERS: usize = 2;

impl Eval {
    fn setup(&self) -> Result<(AggregateEngine, NeuralUpperPolicy), String> {
        let mut scenario = load_scenario("aggregate.json")?;
        scenario.config = scenario.config.clone().with_size(1_000_000, 1000).with_dt(5.0);
        let config = &scenario.config;
        let net = seeded_policy_net(&scenario, self.seed);
        let policy = NeuralUpperPolicy::new(
            net,
            config.num_states(),
            config.d,
            config.arrivals.num_levels(),
        );
        Ok((AggregateEngine::new(config.clone()), policy))
    }

    fn rep(&self, tracer: Option<&Arc<Tracer>>) -> Result<Rep, String> {
        let t0 = Instant::now();
        let (engine, policy) = self.setup()?;
        let setup_s = secs(t0);

        let t1 = Instant::now();
        let (h, n, seed) = (self.horizon, self.episodes, self.seed);
        let mc = match tracer {
            Some(t) => monte_carlo(
                &TracedEngine::new(&engine, Arc::clone(t), ENGINE_SPANS),
                &TracedPolicy::new(&policy, Arc::clone(t)),
                h,
                n,
                seed,
                WORKERS,
            ),
            None => monte_carlo(&engine, &policy, h, n, seed, WORKERS),
        };
        let wall_s = secs(t1);
        Ok(Rep {
            setup_s,
            work_start: t1,
            wall_s,
            metrics: vec![
                ("eval.runs_per_s", n as f64 / wall_s),
                ("eval.drops_per_queue", mc.mean()),
            ],
            fingerprint: bits(mc.per_run.iter().copied()),
        })
    }

    /// The library promises identical Monte-Carlo results for any worker
    /// count: rerun the first two lockstep chunks on [`CHECK_WORKERS`]
    /// workers and compare.
    fn worker_count_check(&self, first: &Rep) -> Result<(), String> {
        let (engine, policy) = self.setup()?;
        let k = WORKER_CHECK_EPISODES.min(self.episodes);
        let res = monte_carlo(&engine, &policy, self.horizon, k, self.seed, CHECK_WORKERS);
        if bits(res.per_run.iter().copied()) != first.fingerprint[..k] {
            return Err(format!("{CHECK_WORKERS}-worker drops differ from {WORKERS}-worker drops"));
        }
        Ok(())
    }
}

/// `graph-torus-100k`: one sharded episode on a radius-1 torus of
/// `side²` queues with four clients per queue, under JSQ(2).
///
/// The episode's arrival-level path is an input made from the seed: each
/// level holds its stationary share of the epochs, in seeded order. A
/// free-running 100-epoch Markov path would swing the drop count by ±10%
/// from seed to seed through the share of high-load epochs alone.
pub struct Graph {
    seed: u64,
    side: usize,
    epochs: usize,
}

/// `epochs` arrival levels, each level `i` appearing
/// `round(stationary[i] · epochs)` times, shuffled with `rng`.
fn balanced_levels(config: &SystemConfig, epochs: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut path: Vec<usize> = Vec::with_capacity(epochs);
    for (level, share) in config.arrivals.stationary().iter().enumerate() {
        path.extend(std::iter::repeat_n(level, (share * epochs as f64).round() as usize));
    }
    path.resize(epochs, 0);
    for i in (1..path.len()).rev() {
        path.swap(i, rng.gen_range(0..=i));
    }
    path
}

impl Graph {
    fn build(&self, tracer: Option<&Arc<Tracer>>) -> Result<GraphEngine, String> {
        let m = self.side * self.side;
        let config = SystemConfig::paper().with_dt(5.0).with_size(4 * m as u64, m);
        Ok(maybe_span(tracer.map(|t| t.as_ref()), "core.topology.build", m as u64, || {
            GraphEngine::new(config, Topology::Torus { radius: 1 })
                .with_mode(StepMode::Sharded)
                .with_workers(WORKERS)
        }))
    }

    fn rep(&self, tracer: Option<&Arc<Tracer>>) -> Result<Rep, String> {
        let t0 = Instant::now();
        let engine = self.build(tracer)?;
        let config = engine.config();
        let policy = FixedRulePolicy::new(jsq_rule(config.num_states(), config.d), "JSQ(2)");
        let setup_s = secs(t0);

        let mut rng = run_rng(self.seed, 0);
        let levels = balanced_levels(config, self.epochs, &mut rng);

        let t1 = Instant::now();
        let (out, step_ends) = match tracer {
            Some(t) => {
                let traced = TracedEngine::new(&engine, Arc::clone(t), GRAPH_SPANS);
                let clock = StepClock::new(&traced);
                let policy = TracedPolicy::new(&policy, Arc::clone(t));
                (run_episode_conditioned(&clock, &policy, &levels, &mut rng), clock.into_ends())
            }
            None => {
                let clock = StepClock::new(&engine);
                (run_episode_conditioned(&clock, &policy, &levels, &mut rng), clock.into_ends())
            }
        };
        let wall_s = secs(t1);
        if step_ends.len() != self.epochs {
            return Err(format!("{} engine steps for {} epochs", step_ends.len(), self.epochs));
        }
        // One throughput sample per epoch, from step end to step end; the
        // first epoch also builds the episode state, so it has none.
        let m = (self.side * self.side) as f64;
        let mut metrics: Vec<_> = step_ends
            .windows(2)
            .map(|w| ("graph.qepochs_per_s", m / w[1].duration_since(w[0]).as_secs_f64()))
            .collect();
        metrics.push(("graph.drops_per_queue", out.total_drops));
        Ok(Rep {
            setup_s,
            work_start: t1,
            wall_s,
            metrics,
            fingerprint: bits(out.drops_per_epoch.iter().copied()),
        })
    }
}

/// `serve-replay-dt1`: the event engine of `event_pareto.json` at Δt = 1
/// replaying a generated JSONL trace under a 2×256 checkpoint policy.
pub struct Serve {
    seed: u64,
    checkpoint: PathBuf,
    /// The generated trace, one job per line.
    text: String,
    lines: u64,
    /// Sync intervals a replay takes at most (room for one tick each).
    max_intervals: usize,
}

fn serve_scenario() -> Result<Scenario, String> {
    let mut scenario = load_scenario("event_pareto.json")?;
    scenario.config = scenario.config.clone().with_dt(1.0);
    scenario.validate().map_err(|e| e.to_string())?;
    Ok(scenario)
}

/// A Markov-modulated Poisson job stream with bounded-Pareto sizes: the
/// per-queue arrival rate switches between 0.9 and 0.6 at unit time
/// steps (stay probabilities 0.8 and 0.5), sizes follow
/// `BoundedPareto(1.5, 0.2, 20)`. Times and sizes print in shortest
/// round-trip form, so parsing restores them exactly. Returns the text and
/// the last arrival time.
fn generate_trace(seed: u64, jobs: usize, queues: usize) -> (String, f64) {
    const LEVELS: [f64; 2] = [0.9, 0.6];
    const STAY: [f64; 2] = [0.8, 0.5];
    const SHAPE: f64 = 1.5;
    const LO: f64 = 0.2;
    const HI: f64 = 20.0;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7ACE_0F10);
    let mut text = String::with_capacity(jobs * 44);
    let (mut level, mut t, mut next_switch) = (0usize, 0.0f64, 1.0f64);
    let mut written = 0;
    while written < jobs {
        let rate = LEVELS[level] * queues as f64;
        let gap = -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t + gap >= next_switch {
            // Memoryless arrivals: restart the gap at the level switch.
            t = next_switch;
            next_switch += 1.0;
            if rng.gen::<f64>() >= STAY[level] {
                level = 1 - level;
            }
            continue;
        }
        t += gap;
        let u: f64 = rng.gen();
        let size = LO / (1.0 - u * (1.0 - (LO / HI).powf(SHAPE))).powf(1.0 / SHAPE);
        writeln!(text, "{{\"t\":{t},\"size\":{size}}}").expect("writing to a String cannot fail");
        written += 1;
    }
    (text, t)
}

impl Drop for Serve {
    fn drop(&mut self) {
        // Best effort: the file is this process's own scratch input.
        let _ = std::fs::remove_file(&self.checkpoint);
    }
}

impl Serve {
    fn prepare(seed: u64, jobs: usize) -> Result<Self, String> {
        let scenario = serve_scenario()?;
        let shape = PolicyShape::for_scenario(&scenario);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0B5E_55ED);
        let ckpt = TrainingCheckpoint {
            format_version: CHECKPOINT_FORMAT_VERSION,
            scenario: scenario.clone(),
            ppo: PpoConfig::paper(),
            seed,
            total_steps: 0,
            curve: Vec::new(),
            policy_net: seeded_policy_net(&scenario, seed),
            value_net: Mlp::new(&[shape.obs_dim(), 256, 256, 1], Activation::Tanh, &mut rng),
            log_std: vec![0.0; shape.act_dim()],
        };
        let name = format!("serve-checkpoint-seed{seed}-{}.json", std::process::id());
        let checkpoint = work_dir()?.join(name);
        ckpt.save(&checkpoint)?;
        let (text, last_t) = generate_trace(seed, jobs, scenario.config.num_queues);
        // The queues drain within a few hundred time units of the last
        // arrival (at most B jobs of at most 20 work units each).
        let max_intervals = (last_t / scenario.config.dt).ceil() as usize + 4096;
        Ok(Self { seed, checkpoint, text, lines: jobs as u64, max_intervals })
    }

    fn build(
        &self,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<(EventEngine, NeuralUpperPolicy), String> {
        let scenario = serve_scenario()?;
        let policy = maybe_span(tracer.map(|t| t.as_ref()), "rl.checkpoint.load", 1, || {
            let ckpt = TrainingCheckpoint::load(&self.checkpoint)?;
            ckpt.validate_for(&scenario)?;
            ckpt.into_policy()
        })?;
        let EngineSpec::Event { job_size } = &scenario.engine else {
            return Err("event_pareto.json is not an event-engine scenario".into());
        };
        Ok((EventEngine::new(scenario.config.clone(), job_size.clone()), policy))
    }

    fn rep(&self, tracer: Option<&Arc<Tracer>>) -> Result<Rep, String> {
        // The tick log is written once per interval inside the timed loop;
        // touch its pages up front so page faults stay out of the
        // interval times.
        let mut ticks: Vec<Instant> = vec![Instant::now(); self.max_intervals];
        ticks.clear();

        let t0 = Instant::now();
        let (engine, policy) = self.build(tracer)?;
        let opts = ServeOptions { report_every: 1, seed: self.seed, ..ServeOptions::default() };
        let setup_s = secs(t0);

        let t1 = Instant::now();
        let jobs = maybe_span(tracer.map(|t| t.as_ref()), "sim.trace.parse", self.lines, || {
            parse_trace(&self.text)
        })
        .map_err(|e| e.to_string())?;
        let source = JobSource::Trace(jobs);
        let serve_start = Instant::now();
        let report = match tracer {
            Some(t) => t.parent_span("sim.serve", |id| {
                let traced = TracedPolicy::new(&policy, Arc::clone(t));
                let mut last_ns = t.now_ns();
                let report =
                    serve_with(&engine, &traced, "neural", None, &source, &opts, None, |_| {
                        ticks.push(Instant::now());
                        t.record("sim.serve.interval", id, last_ns, 1);
                        last_ns = t.now_ns();
                    });
                let jobs = report.as_ref().map_or(0, |r| r.jobs_arrived);
                (report, jobs)
            }),
            None => serve_with(&engine, &policy, "neural", None, &source, &opts, None, |_| {
                ticks.push(Instant::now())
            }),
        }
        .map_err(|e| e.to_string())?;
        let wall_s = secs(t1);

        let r = &report;
        if r.jobs_arrived != self.lines {
            return Err(format!(
                "{} jobs arrived from a {}-line trace",
                r.jobs_arrived, self.lines
            ));
        }
        if r.jobs_arrived != r.jobs_completed + r.jobs_dropped + r.jobs_shed + r.jobs_in_system {
            return Err(format!(
                "job conservation broken: arrived {} != completed {} + dropped {} + shed {} + in system {}",
                r.jobs_arrived, r.jobs_completed, r.jobs_dropped, r.jobs_shed, r.jobs_in_system
            ));
        }
        if ticks.len() as u64 != r.intervals {
            return Err(format!("{} ticks for {} intervals", ticks.len(), r.intervals));
        }
        let mut interval_us: Vec<f64> = std::iter::once(serve_start)
            .chain(ticks.iter().copied())
            .zip(&ticks)
            .map(|(a, b)| b.duration_since(a).as_secs_f64() * 1e6)
            .collect();
        Ok(Rep {
            setup_s,
            work_start: t1,
            wall_s,
            metrics: vec![
                ("serve.jobs_per_s", r.jobs_arrived as f64 / wall_s),
                ("serve.interval_p50_us", crate::stats::quantile(&mut interval_us, 0.5)),
                ("serve.interval_p99_us", crate::stats::quantile(&mut interval_us, 0.99)),
                ("serve.loss_fraction", r.loss_fraction),
            ],
            fingerprint: vec![
                r.jobs_arrived,
                r.jobs_completed,
                r.jobs_dropped,
                r.jobs_shed,
                r.jobs_in_system,
                r.intervals,
                r.sim_time.to_bits(),
                r.mean_sojourn.to_bits(),
                r.max_sojourn.to_bits(),
            ],
        })
    }
}
