//! End-to-end and per-layer benchmark of the paper pipelines.
//!
//! Two pinned workloads run whole pipelines through their public
//! `pga-core` entry points (see `README.md` in this directory for why
//! each was chosen and which layer metric moves which end-to-end
//! metric). This library holds what the `pipebench` binary and its
//! tests share: instance generation, the pipeline call, the
//! correctness gate, and the split of a `PGA_TRACE` stream into the
//! runtime layers. Nothing here instruments the program itself; every
//! layer figure comes from timing public calls or from the kernel's
//! existing trace stream.

use std::time::{Duration, Instant};

use pga_bench::trace::TraceRun;
use pga_congest::{Metrics, ProbeMode, ReliabilitySpec, RunConfig, SimError};
use pga_core::mvc::clique_det::g2_mvc_clique_det_cfg;
use pga_core::mvc::congest::{g2_mvc_congest_cfg, G2MvcResult, LocalSolver};
use pga_graph::cover::is_vertex_cover_on_square;
use pga_graph::{generators, power, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The seed the benchmark uses when none is given.
pub const DEFAULT_SEED: u64 = 45803;

/// ε of the MVC pipelines.
pub const EPS: f64 = 0.25;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Theorem-1 MVC, sequential engine, raw delivery.
    Thm1Mvc,
    /// Deterministic clique MVC with BMM `G²` preparation.
    CliqueBmm,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::Thm1Mvc, Workload::CliqueBmm];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Thm1Mvc => "thm1_mvc",
            Workload::CliqueBmm => "clique_bmm",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How a workload's input graph is generated from the seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Shape {
    /// `generators::connected_gnm(n, m)`.
    Gnm {
        /// Vertices.
        n: usize,
        /// Edges.
        m: usize,
    },
    /// `generators::planted_partition(n, k, p_in, p_out)`.
    Sbm {
        /// Vertices.
        n: usize,
        /// Clusters.
        k: usize,
        /// Edge probability inside a cluster.
        p_in: f64,
        /// Edge probability across clusters.
        p_out: f64,
    },
}

impl Shape {
    /// Generates the graph for `seed`.
    pub fn generate(self, seed: u64) -> Graph {
        match self {
            Shape::Gnm { n, m } => {
                generators::connected_gnm(n, m, &mut StdRng::seed_from_u64(seed))
            }
            Shape::Sbm { n, k, p_in, p_out } => {
                generators::planted_partition(n, k, p_in, p_out, seed)
            }
        }
    }
}

/// A workload at a given instance size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spec {
    /// Which pipeline runs.
    pub workload: Workload,
    /// Its input graphs.
    pub shape: Shape,
    /// Instances drawn from one seed; a pass calls the pipeline once on
    /// each.
    pub batch: usize,
    /// A typical pass's wall on a 2-core x86-64 container, s. A run of `seconds`
    /// makes `seconds / pass_s` passes, so two commits draw the same
    /// number of samples whatever their speed.
    pub pass_s: f64,
}

impl Spec {
    /// The benchmark's pinned size: a pass takes 0.5–1.5 s.
    ///
    /// The work of one instance varies with its seed by far more than a
    /// bound allows (Theorem 1's rounds by up to 40%), so each workload
    /// draws a batch of smaller instances per seed and reports means over
    /// them.
    pub fn pinned(workload: Workload) -> Spec {
        let (shape, batch, pass_s) = match workload {
            Workload::Thm1Mvc => (Shape::Gnm { n: 1400, m: 5600 }, 16, 0.9),
            Workload::CliqueBmm => (
                Shape::Sbm {
                    n: 512,
                    k: 8,
                    p_in: 0.25,
                    p_out: 0.0045,
                },
                8,
                1.05,
            ),
        };
        Spec {
            workload,
            shape,
            batch,
            pass_s,
        }
    }

    /// A small instance of the same pipeline, for tests.
    pub fn small(workload: Workload) -> Spec {
        let shape = match workload {
            Workload::CliqueBmm => Shape::Sbm {
                n: 96,
                k: 4,
                p_in: 0.3,
                p_out: 0.02,
            },
            _ => Shape::Gnm { n: 120, m: 360 },
        };
        Spec {
            workload,
            shape,
            batch: 2,
            pass_s: 0.01,
        }
    }

    /// The timed configuration with the given trace policy.
    pub fn config(&self, probe: ProbeMode) -> RunConfig {
        let base = RunConfig::new().probe(probe);
        match self.workload {
            Workload::Thm1Mvc => base,
            Workload::CliqueBmm => base.bmm_prep(),
        }
    }
}

/// What one pipeline call produced.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// The cover (membership vector).
    pub solution: Vec<bool>,
    /// Metrics of Phase I and Phase II.
    pub phases: Vec<Metrics>,
    /// Phase-I set `S`.
    pub s_size: usize,
    /// Leader-solved set `R*`.
    pub r_star_size: usize,
}

impl From<G2MvcResult> for Outcome {
    fn from(r: G2MvcResult) -> Self {
        Outcome {
            solution: r.cover,
            phases: vec![r.phase1_metrics, r.phase2_metrics],
            s_size: r.s_size,
            r_star_size: r.r_star_size,
        }
    }
}

/// The simulated counts of a call: they must repeat exactly for a seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Rounds summed over the phases.
    pub rounds: u64,
    /// Messages summed over the phases.
    pub messages: u64,
    /// Bits summed over the phases.
    pub bits: u64,
    /// Largest single message over the phases, in bits.
    pub peak_edge_bits: u64,
    /// Size of the cover.
    pub solution_size: u64,
}

impl Outcome {
    /// The call's simulated counts.
    pub fn counts(&self) -> Counts {
        Counts {
            rounds: self.phases.iter().map(|m| m.rounds as u64).sum(),
            messages: self.phases.iter().map(|m| m.messages).sum(),
            bits: self.phases.iter().map(|m| m.bits).sum(),
            peak_edge_bits: self
                .phases
                .iter()
                .map(|m| m.max_message_bits as u64)
                .max()
                .unwrap_or(0),
            solution_size: self.solution.iter().filter(|&&b| b).count() as u64,
        }
    }

    /// `(acks, retransmitted, dead_links)` summed over the phases.
    pub fn arq_totals(&self) -> (u64, u64, u64) {
        self.phases.iter().fold((0, 0, 0), |(a, r, d), m| {
            (
                a + m.fault.acks,
                r + m.fault.retransmitted,
                d + m.fault.dead_links,
            )
        })
    }
}

/// Runs the workload's pipeline once on `g` under `cfg`.
///
/// # Errors
///
/// Propagates the pipeline's [`SimError`].
fn run_pipeline(workload: Workload, g: &Graph, cfg: &RunConfig) -> Result<Outcome, SimError> {
    match workload {
        Workload::Thm1Mvc => {
            g2_mvc_congest_cfg(g, EPS, LocalSolver::FiveThirds, cfg).map(Outcome::from)
        }
        Workload::CliqueBmm => {
            g2_mvc_clique_det_cfg(g, EPS, LocalSolver::FiveThirds, cfg).map(Outcome::from)
        }
    }
}

/// Wall times of the set-up steps, summed over a batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Instance generation.
    pub gen: Duration,
    /// `power::square`.
    pub square: Duration,
    /// The exact lower bound.
    pub lower_bound: Duration,
}

/// One instance with everything the correctness gate compares against.
#[derive(Clone, Debug)]
pub struct Instance {
    /// The pipeline this instance is for.
    pub workload: Workload,
    /// The input graph.
    pub g: Graph,
    /// Edges of `G²`.
    pub g2_edges: usize,
    /// `square_vc_bound`.
    pub lower_bound: usize,
    /// The raw, relay-prep outcome every call must reproduce: the
    /// warm-up call itself on `thm1_mvc`, whose timed configuration is
    /// that one, and a separate relay-prep call on `clique_bmm`.
    pub reference: Outcome,
    /// Counts of the untimed warm-up call.
    pub counts: Counts,
}

/// The raw-delivery, relay-prep configuration: the reference outcome of
/// `clique_bmm`, and the baseline of the clean-ARQ comparison.
pub fn reference_config() -> RunConfig {
    RunConfig::new().probe(ProbeMode::Off)
}

/// The clean ARQ plane: `ReliabilitySpec::arq()` with no adversary.
pub fn arq_config(probe: ProbeMode) -> RunConfig {
    RunConfig::new()
        .probe(probe)
        .reliability(ReliabilitySpec::arq())
}

/// The seed of instance `i` of the batch drawn from `seed`.
fn instance_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64
}

impl Instance {
    /// One call of the pipeline on this instance under `cfg`.
    ///
    /// # Errors
    ///
    /// Propagates the pipeline's [`SimError`].
    pub fn call(&self, cfg: &RunConfig) -> Result<Outcome, SimError> {
        run_pipeline(self.workload, &self.g, cfg)
    }

    /// The correctness gate of every timed call: the output is valid on
    /// `G²`, its counts equal the warm-up call's, and its cover, |S| and
    /// |R*| equal the reference outcome's.
    ///
    /// # Errors
    ///
    /// Describes the first check that failed.
    pub fn check(&self, out: &Outcome) -> Result<(), String> {
        if !is_vertex_cover_on_square(&self.g, &out.solution) {
            return Err("output is not valid on G²".into());
        }
        let counts = out.counts();
        if counts != self.counts {
            return Err(format!(
                "counts {counts:?} differ from the warm-up's {:?}",
                self.counts
            ));
        }
        let reference = &self.reference;
        if out.solution != reference.solution {
            return Err("output differs from the reference run's".into());
        }
        if (out.s_size, out.r_star_size) != (reference.s_size, reference.r_star_size) {
            return Err("|S| or |R*| differs from the reference run's".into());
        }
        Ok(())
    }

    /// The gate of a call under [`arq_config`]: a valid cover equal to
    /// the raw reference run's, with its |S|, |R*| and messages delivered
    /// in each phase, nothing retransmitted and no dead link.
    ///
    /// # Errors
    ///
    /// Describes the first check that failed.
    pub fn check_clean_arq(&self, out: &Outcome) -> Result<(), String> {
        if !is_vertex_cover_on_square(&self.g, &out.solution) {
            return Err("output is not valid on G²".into());
        }
        let raw = &self.reference;
        if (&out.solution, out.s_size, out.r_star_size)
            != (&raw.solution, raw.s_size, raw.r_star_size)
        {
            return Err("cover, |S| or |R*| differs from the raw run's".into());
        }
        // Acks double the charged messages; what the application
        // exchanged must still be the raw run's traffic.
        let delivered = out.phases.iter().map(|m| m.fault.delivered);
        if !delivered.eq(raw.phases.iter().map(|m| m.messages)) {
            return Err("delivered application messages differ from the raw run's".into());
        }
        let (_, retransmitted, dead_links) = out.arq_totals();
        if retransmitted != 0 || dead_links != 0 {
            return Err(format!(
                "clean ARQ run retransmitted {retransmitted} frames, {dead_links} dead links"
            ));
        }
        Ok(())
    }
}

/// A workload's batch of instances for one seed.
#[derive(Clone, Debug)]
pub struct Prepared {
    /// The workload, its size and batch.
    pub spec: Spec,
    /// The instances, in seed order.
    pub instances: Vec<Instance>,
    /// Set-up step walls over the batch.
    pub times: SetupTimes,
}

/// Builds the batch for `seed`: each instance's graph, `G²` edge count,
/// lower bound, one gated warm-up call and the reference outcome.
///
/// # Errors
///
/// Returns a description when a reference or warm-up call fails or
/// fails the gate.
pub fn prepare(spec: Spec, seed: u64) -> Result<Prepared, String> {
    let mut times = SetupTimes::default();
    let mut instances = Vec::with_capacity(spec.batch);
    for i in 0..spec.batch {
        let t = Instant::now();
        let g = spec.shape.generate(instance_seed(seed, i));
        times.gen += t.elapsed();
        let t = Instant::now();
        let g2_edges = power::square(&g).num_edges();
        times.square += t.elapsed();
        let t = Instant::now();
        let lower_bound = pga_exact::bounds::square_vc_bound(&g);
        times.lower_bound += t.elapsed();
        let warm = run_pipeline(spec.workload, &g, &spec.config(ProbeMode::Off))
            .map_err(|e| format!("warm-up call failed: {e}"))?;
        let reference = match spec.workload {
            Workload::Thm1Mvc => warm.clone(),
            Workload::CliqueBmm => run_pipeline(spec.workload, &g, &reference_config())
                .map_err(|e| format!("reference run failed: {e}"))?,
        };
        let inst = Instance {
            workload: spec.workload,
            g,
            g2_edges,
            lower_bound,
            reference,
            counts: warm.counts(),
        };
        inst.check(&warm)
            .map_err(|e| format!("warm-up call failed the gate: {e}"))?;
        instances.push(inst);
    }
    Ok(Prepared {
        spec,
        instances,
        times,
    })
}

/// One pass under `cfg`: the pipeline once on every instance. Returns
/// each call's wall (the call alone, not the `check` that follows it)
/// in instance order, and the outcomes of the calls that passed the
/// check. Every call is counted in `tally`.
pub fn pass(
    instances: &[Instance],
    cfg: &RunConfig,
    tally: &mut Tally,
    check: impl Fn(&Instance, &Outcome) -> Result<(), String>,
) -> (Vec<f64>, Vec<Outcome>) {
    let mut walls = Vec::with_capacity(instances.len());
    let mut passed = Vec::with_capacity(instances.len());
    for inst in instances {
        let t = Instant::now();
        let r = std::hint::black_box(inst.call(cfg));
        walls.push(t.elapsed().as_secs_f64());
        let verdict = r
            .map_err(|e| e.to_string())
            .and_then(|o| check(inst, &o).map(|()| o));
        if let Some(o) = tally.gate(verdict) {
            passed.push(o);
        }
    }
    (walls, passed)
}

impl Prepared {
    /// Mean counts per call over the batch.
    pub fn mean_counts(&self) -> MeanCounts {
        let b = self.instances.len() as f64;
        let sum = |f: fn(&Instance) -> u64| self.instances.iter().map(f).sum::<u64>() as f64 / b;
        MeanCounts {
            rounds: sum(|i| i.counts.rounds),
            messages: sum(|i| i.counts.messages),
            bits: sum(|i| i.counts.bits),
            peak_edge_bits: sum(|i| i.counts.peak_edge_bits),
            solution_size: sum(|i| i.counts.solution_size),
            lower_bound: sum(|i| i.lower_bound as u64),
            g2_edges: sum(|i| i.g2_edges as u64),
        }
    }
}

/// [`Counts`] averaged over a batch, with the instances' own sizes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MeanCounts {
    /// Mean rounds per call.
    pub rounds: f64,
    /// Mean messages per call.
    pub messages: f64,
    /// Mean bits per call.
    pub bits: f64,
    /// Mean largest message per call, in bits.
    pub peak_edge_bits: f64,
    /// Mean output size.
    pub solution_size: f64,
    /// Mean lower bound.
    pub lower_bound: f64,
    /// Mean `G²` edge count.
    pub g2_edges: f64,
}

/// Attempted and failed calls. Every call is gated and counted; a
/// failed one is never dropped from `attempted`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Calls made.
    pub attempted: u64,
    /// Calls that returned an error or failed the gate.
    pub failed: u64,
}

impl Tally {
    /// Records one call's verdict, returning its value when it passed.
    pub fn gate<T>(&mut self, verdict: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match verdict {
            Ok(out) => Some(out),
            Err(e) => {
                self.failed += 1;
                eprintln!("pipebench: call failed: {e}");
                None
            }
        }
    }
}

/// The median of `xs` (the mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The trace of one or more pipeline calls, split into the runtime
/// layers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerSplit {
    /// Sub-runs (`run_start` events) in the trace.
    pub runs: usize,
    /// Rounds (kernel ticks under ARQ) over all sub-runs.
    pub rounds: u64,
    /// Messages over all rounds.
    pub messages: u64,
    /// Σ `run_end` walls, s.
    pub run_s: f64,
    /// Σ round walls, s.
    pub round_s: f64,
    /// Σ over rounds of the slowest shard's step, s. A round without
    /// shard records stepped inline on the driving thread, so its wall
    /// minus its exchange counts as step.
    pub step_s: f64,
    /// Σ exchange walls, s.
    pub exchange_s: f64,
    /// `run_s − step_s − exchange_s`: the scheduler sweep (timed outside
    /// the round wall), thread spawn and join, and barrier wait.
    pub driver_s: f64,
    /// Σ over rounds of every shard's step, s.
    pub step_cpu_s: f64,
    /// `Σ max shard step / Σ mean shard step − 1` over rounds with at
    /// least two shard records (0 when there are none).
    pub shard_imbalance: f64,
    /// Σ active actors / Σ (actors × rounds).
    pub active_ratio: f64,
    /// Σ run walls of each phase, s, in phase order.
    pub phase_s: Vec<f64>,
    /// `(acks, retransmitted, dead_links)` over all sub-runs.
    pub arq: (u64, u64, u64),
}

/// Splits the trace of one or more pipeline calls into layers and
/// assigns its sub-runs to `phases` (the calls' phases in execution
/// order), checking the trace against the phases' own metrics: each
/// phase's sub-runs must sum to its rounds and messages.
///
/// # Errors
///
/// Describes a trace that disagrees with the metrics or an aborted run.
pub fn split_layers(runs: &[TraceRun], phases: &[Metrics]) -> Result<LayerSplit, String> {
    let ns = |x: u64| x as f64 * 1e-9;
    let mut s = LayerSplit {
        runs: runs.len(),
        ..LayerSplit::default()
    };
    let (mut max_sum, mut mean_sum) = (0.0, 0.0);
    let mut actor_rounds = 0u64;
    let mut active = 0u64;
    for run in runs {
        let (_, wall_ns) = run.end.ok_or("trace holds an aborted run")?;
        s.run_s += ns(wall_ns);
        s.rounds += run.rounds.len() as u64;
        actor_rounds += run.actors * run.rounds.len() as u64;
        for r in &run.rounds {
            s.messages += r.messages;
            active += r.active;
            s.round_s += ns(r.wall_ns);
            s.exchange_s += ns(r.exchange_ns);
            match r.shards.iter().map(|sh| sh.wall_ns).max() {
                Some(max) => {
                    let total: u64 = r.shards.iter().map(|sh| sh.wall_ns).sum();
                    s.step_s += ns(max);
                    s.step_cpu_s += ns(total);
                    if r.shards.len() >= 2 {
                        max_sum += ns(max);
                        mean_sum += ns(total) / r.shards.len() as f64;
                    }
                }
                None => {
                    let inline = ns(r.wall_ns.saturating_sub(r.exchange_ns));
                    s.step_s += inline;
                    s.step_cpu_s += inline;
                }
            }
        }
        let (retransmitted, acks, dead_links) = run.arq_totals();
        s.arq = (
            s.arq.0 + acks,
            s.arq.1 + retransmitted,
            s.arq.2 + dead_links,
        );
    }
    s.driver_s = s.run_s - s.step_s - s.exchange_s;
    s.shard_imbalance = if mean_sum > 0.0 {
        max_sum / mean_sum - 1.0
    } else {
        0.0
    };
    s.active_ratio = if actor_rounds > 0 {
        active as f64 / actor_rounds as f64
    } else {
        0.0
    };

    let mut next = runs.iter().peekable();
    for (i, phase) in phases.iter().enumerate() {
        let (mut rounds, mut messages, mut wall) = (0u64, 0u64, 0.0);
        let last = i + 1 == phases.len();
        while let Some(run) = next.next_if(|_| last || rounds < phase.rounds as u64) {
            rounds += run.rounds.len() as u64;
            messages += run.rounds.iter().map(|r| r.messages).sum::<u64>();
            wall += run.total_wall_ns() as f64 * 1e-9;
        }
        if (rounds, messages) != (phase.rounds as u64, phase.messages) {
            return Err(format!(
                "phase {} traced {rounds} rounds / {messages} messages, metrics say {} / {}",
                i + 1,
                phase.rounds,
                phase.messages
            ));
        }
        s.phase_s.push(wall);
    }
    Ok(s)
}
