//! `pipebench`: runs one workload of the paper-pipeline benchmark and
//! prints its metrics, as one JSON object, on the last line of
//! standard output.
//!
//! ```text
//! cargo run --release --manifest-path pipebench/Cargo.toml -- \
//!     --workload thm1_mvc --seed 45803 --seconds 35 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics: set-up time, then a fixed
//! number of gated passes over the workload's batch with tracing off,
//! `--seconds` worth on the reference host. `--trace 1` reports the
//! per-layer metrics: it points `PGA_TRACE` at a scratch file, pairs
//! untraced and traced passes for `--seconds`, splits each trace into
//! layers, traces the sharded executor at two threads, and then times
//! the workload's extra public calls. The line before the result
//! records the host and the configuration. The exit code is nonzero
//! when any call failed.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pga_bench::trace::parse_trace;
use pga_congest::{clique_bmm, default_cap_words, Metrics, ProbeMode, RunConfig};
use pipebench::{
    arq_config, median, pass, prepare, reference_config, split_layers, Instance, LayerSplit,
    Outcome, Spec, Tally, Workload,
};

/// Set-ups per end-to-end run; `setup_s` is the fastest.
const SETUP_REPS: usize = 8;

/// Passes per side of each extra comparison of the traced run.
const EXTRA_REPS: usize = 3;

/// Threads of the sharded executor in the traced run's runtime split and
/// codec-plane comparison; every timed configuration is sequential.
const SHARDED_THREADS: usize = 2;

/// Instances of the `thm1_mvc` batch that the traced run also calls
/// under clean ARQ, which costs about twenty raw calls each.
const ARQ_INSTANCES: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = pipebench::DEFAULT_SEED;
    let mut seconds = 35;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A metric value, printed with all the digits of an `f64`.
type Metric = (&'static str, &'static str, f64);

struct Report {
    metrics: Vec<Metric>,
    tally: Tally,
    passes: usize,
    /// Median pass wall per call, for the record line.
    median_wall_s: f64,
}

fn median_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".into(),
    }
}

fn same_as_reference(inst: &Instance, out: &Outcome) -> Result<(), String> {
    if inst.reference == *out {
        Ok(())
    } else {
        Err("outcome differs from the reference run".into())
    }
}

/// Wall per call of one gated pass, or `None` when a call failed.
fn pass_wall(
    instances: &[Instance],
    cfg: &RunConfig,
    tally: &mut Tally,
    check: impl Fn(&Instance, &Outcome) -> Result<(), String>,
) -> Option<f64> {
    let (walls, passed) = pass(instances, cfg, tally, check);
    (passed.len() == walls.len()).then(|| walls.iter().sum::<f64>() / walls.len() as f64)
}

/// The end-to-end run: `seconds / pass_s` gated untraced passes, with
/// `SETUP_REPS` set-ups spread among them.
fn end_to_end(
    spec: Spec,
    seed: u64,
    seconds: u64,
    process_start: Instant,
) -> Result<Report, String> {
    let p = prepare(spec, seed)?;
    let mut setups = vec![process_start.elapsed().as_secs_f64()];

    // Noise on a shared host only ever slows a call, and it comes in
    // spells of seconds to minutes: each instance's fastest call is its
    // steadiest wall, and the fastest set-up the steadiest set-up time,
    // so set-ups are spread over the run like the passes. The number of
    // passes is fixed by `seconds` alone, so a faster commit does not
    // draw more samples and a lower expected minimum.
    let cfg = spec.config(ProbeMode::Off);
    let mut tally = Tally::default();
    let mut best = vec![f64::INFINITY; p.instances.len()];
    let mut walls = Vec::new();
    let passes = ((seconds as f64 / spec.pass_s).round() as usize).max(1);
    let setup_every = (passes / SETUP_REPS).max(1);
    for i in 1..=passes {
        if i % setup_every == 0 && setups.len() < SETUP_REPS {
            let start = Instant::now();
            prepare(spec, seed)?;
            setups.push(start.elapsed().as_secs_f64());
        }
        let (calls, passed) = pass(&p.instances, &cfg, &mut tally, Instance::check);
        if passed.len() == calls.len() {
            let wall = calls.iter().sum::<f64>() / calls.len() as f64;
            eprintln!(
                "pipebench: pass {} wall per call {wall:.6} s",
                walls.len() + 1
            );
            walls.push(wall);
            best.iter_mut()
                .zip(&calls)
                .for_each(|(b, &c)| *b = b.min(c));
        }
    }

    let wall_s = if walls.is_empty() {
        0.0
    } else {
        best.iter().sum::<f64>() / best.len() as f64
    };
    let c = p.mean_counts();
    let metrics = vec![
        (
            "setup_s",
            "s",
            setups.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        ("wall_s", "s", wall_s),
        (
            "sim_msgs_per_s",
            "1/s",
            if wall_s > 0.0 {
                c.messages / wall_s
            } else {
                0.0
            },
        ),
        (
            "peak_rss_mb",
            "MB",
            peak_rss_mb().ok_or("no /proc/self/status")?,
        ),
        ("rounds", "count", c.rounds),
        ("messages", "count", c.messages),
        ("bits", "count", c.bits),
        ("peak_edge_bits", "bits", c.peak_edge_bits),
        ("solution_size", "count", c.solution_size),
        ("approx_ratio_ub", "ratio", c.solution_size / c.lower_bound),
    ];
    Ok(Report {
        metrics,
        tally,
        passes: walls.len(),
        median_wall_s: median_or_zero(&walls),
    })
}

/// Where the traced run points `PGA_TRACE`: inside the build directory.
fn trace_file(workload: Workload) -> Result<PathBuf, String> {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir.join(format!(
        "pipebench-trace-{}-{}.jsonl",
        workload.name(),
        std::process::id()
    )))
}

/// One traced pass: the trace file is emptied, every instance is called
/// under `cfg` with the probe on, and the pass's trace is parsed and
/// split into layers against the calls' phases. Returns the wall per
/// call and the split (summed over the pass), or `None` when a call or
/// the split failed.
fn traced_pass(
    instances: &[Instance],
    cfg: RunConfig,
    path: &Path,
    tally: &mut Tally,
    check: impl Fn(&Instance, &Outcome) -> Result<(), String>,
) -> Option<(f64, LayerSplit, Vec<Outcome>)> {
    if let Err(e) = std::fs::write(path, "") {
        tally.gate::<()>(Err(format!("cannot reset {}: {e}", path.display())));
        return None;
    }
    let (walls, passed) = pass(instances, &cfg.probe(ProbeMode::Env), tally, check);
    if passed.len() != walls.len() {
        return None;
    }
    let split = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read trace: {e}"))
        .and_then(|text| parse_trace(&text).map_err(|(line, e)| format!("trace line {line}: {e}")))
        .and_then(|runs| {
            let phases: Vec<_> = passed
                .iter()
                .flat_map(|o| o.phases.iter().cloned())
                .collect();
            split_layers(&runs, &phases)
        });
    let split = tally.gate(split)?;
    Some((
        walls.iter().sum::<f64>() / walls.len() as f64,
        split,
        passed,
    ))
}

/// The per-layer run: paired untraced and traced passes for `seconds`,
/// traced passes on the sharded executor, then the workload's extra
/// public calls, all gated.
fn per_layer(spec: Spec, seed: u64, seconds: u64, path: &Path) -> Result<Report, String> {
    let p = prepare(spec, seed)?;
    let b = p.instances.len() as f64;
    let base = spec.config(ProbeMode::Off);
    let mut tally = Tally::default();
    let (mut off, mut on, mut splits, mut outcomes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    while on.len() < 2 || start.elapsed() < budget {
        off.extend(pass_wall(&p.instances, &base, &mut tally, Instance::check));
        if let Some((wall, split, passed)) =
            traced_pass(&p.instances, base, path, &mut tally, Instance::check)
        {
            on.push(wall);
            splits.push(split);
            outcomes = passed;
        }
        if tally.failed > 0 {
            break;
        }
    }
    // The sequential engine steps every round inline and exchanges
    // nothing; the step / exchange / driver split is read off traced
    // passes of the same batch on the sharded executor.
    let sharded = base.parallel(SHARDED_THREADS);
    let sharded_splits: Vec<LayerSplit> = (0..EXTRA_REPS)
        .filter_map(|_| traced_pass(&p.instances, sharded, path, &mut tally, Instance::check))
        .map(|(_, split, _)| split)
        .collect();
    if outcomes.is_empty() || sharded_splits.is_empty() {
        return Err("no traced pass passed the gate".into());
    }
    // Per-call means over the batch of the medians over traced passes.
    let layer =
        |f: &dyn Fn(&LayerSplit) -> f64| median_or_zero(&splits.iter().map(f).collect::<Vec<_>>());
    let per_call = |f: &dyn Fn(&LayerSplit) -> f64| layer(f) / b;
    let sharded_layer =
        |f: &dyn Fn(&LayerSplit) -> f64| median(&sharded_splits.iter().map(f).collect::<Vec<_>>());
    let sharded_per_call = |f: &dyn Fn(&LayerSplit) -> f64| sharded_layer(f) / b;
    let mean = |f: &dyn Fn(&Outcome) -> f64| outcomes.iter().map(f).sum::<f64>() / b;

    let phase = |i: usize| -> [f64; 4] {
        [
            mean(&|o| o.phases[i].rounds as f64),
            mean(&|o| o.phases[i].messages as f64),
            mean(&|o| o.phases[i].bits as f64),
            // Phases of consecutive calls alternate in the split.
            per_call(&|s| s.phase_s.iter().skip(i).step_by(2).sum()),
        ]
    };
    let (p1, p2) = (phase(0), phase(1));

    let ratio = |a: &[f64], b: &[f64]| {
        if a.is_empty() || b.is_empty() {
            0.0
        } else {
            median(a) / median(b)
        }
    };
    let compare = |tally: &mut Tally, a: &RunConfig, b: &RunConfig| {
        let (mut wa, mut wb) = (Vec::new(), Vec::new());
        for _ in 0..EXTRA_REPS {
            wa.extend(pass_wall(&p.instances, a, tally, Instance::check));
            wb.extend(pass_wall(&p.instances, b, tally, Instance::check));
        }
        ratio(&wa, &wb)
    };

    let (mut sharded1_vs_seq, mut codec_vs_enum, mut arq_overhead) = (0.0, 0.0, 0.0);
    let mut arq_split = None;
    let (mut bmm_s, mut bmm_rounds, mut bmm_messages, mut relay_wall_s) = (0.0, 0.0, 0.0, 0.0);
    match spec.workload {
        Workload::Thm1Mvc => {
            sharded1_vs_seq = compare(&mut tally, &base.parallel(1), &base);
            codec_vs_enum = compare(&mut tally, &sharded.codec(true), &sharded);

            let few = &p.instances[..ARQ_INSTANCES.min(p.instances.len())];
            let (mut arq, mut raw) = (Vec::new(), Vec::new());
            for _ in 0..EXTRA_REPS {
                let clean = arq_config(ProbeMode::Off);
                arq.extend(pass_wall(
                    few,
                    &clean,
                    &mut tally,
                    Instance::check_clean_arq,
                ));
                raw.extend(pass_wall(few, &base, &mut tally, Instance::check));
            }
            arq_overhead = ratio(&arq, &raw);
            let traced = traced_pass(
                few,
                arq_config(ProbeMode::Off),
                path,
                &mut tally,
                Instance::check_clean_arq,
            );
            arq_split = traced.map(|(_, split, _)| (split, few.len() as f64));
        }
        Workload::CliqueBmm => {
            let mut walls = Vec::new();
            let mut first: Vec<Metrics> = Vec::new();
            for rep in 0..EXTRA_REPS {
                let mut wall = 0.0;
                for (i, inst) in p.instances.iter().enumerate() {
                    let t = Instant::now();
                    let r = clique_bmm(&inst.g, default_cap_words(inst.g.num_nodes()), &base);
                    wall += t.elapsed().as_secs_f64();
                    let verdict = r
                        .map_err(|e| e.to_string())
                        .and_then(|rep| match first.get(i) {
                            Some(f) if *f != rep.metrics => {
                                Err("clique_bmm metrics differ between calls".into())
                            }
                            _ => Ok(rep.metrics),
                        });
                    if let Some(m) = tally.gate(verdict) {
                        if rep == 0 {
                            first.push(m);
                        }
                    }
                }
                walls.push(wall / b);
            }
            bmm_s = median(&walls);
            bmm_rounds = first.iter().map(|m| m.rounds as f64).sum::<f64>() / b;
            bmm_messages = first.iter().map(|m| m.messages as f64).sum::<f64>() / b;
            let relay: Vec<f64> = (0..EXTRA_REPS)
                .filter_map(|_| {
                    pass_wall(
                        &p.instances,
                        &reference_config(),
                        &mut tally,
                        same_as_reference,
                    )
                })
                .collect();
            relay_wall_s = median_or_zero(&relay);
        }
    }
    // ARQ counters per clean-ARQ call, from that pass's trace.
    let arq_count = |f: fn(&LayerSplit) -> u64| {
        arq_split
            .as_ref()
            .map_or(0.0, |(s, calls)| f(s) as f64 / calls)
    };

    let c = p.mean_counts();
    let run_s = layer(&|s| s.run_s);
    let metrics = vec![
        ("graph.gen_s", "s", p.times.gen.as_secs_f64() / b),
        ("graph.square_s", "s", p.times.square.as_secs_f64() / b),
        ("graph.g2_edges", "count", c.g2_edges),
        (
            "exact.lower_bound_s",
            "s",
            p.times.lower_bound.as_secs_f64() / b,
        ),
        ("exact.lower_bound", "count", c.lower_bound),
        ("core.phase1_rounds", "count", p1[0]),
        ("core.phase1_messages", "count", p1[1]),
        ("core.phase1_bits", "count", p1[2]),
        ("core.phase1_wall_s", "s", p1[3]),
        ("core.phase2_rounds", "count", p2[0]),
        ("core.phase2_messages", "count", p2[1]),
        ("core.phase2_bits", "count", p2[2]),
        ("core.phase2_wall_s", "s", p2[3]),
        ("core.s_size", "count", mean(&|o| o.s_size as f64)),
        ("core.r_star_size", "count", mean(&|o| o.r_star_size as f64)),
        ("congest.clique_bmm_s", "s", bmm_s),
        ("congest.clique_bmm_rounds", "count", bmm_rounds),
        ("congest.clique_bmm_messages", "count", bmm_messages),
        ("congest.relay_wall_s", "s", relay_wall_s),
        ("runtime.round_s", "s", sharded_per_call(&|s| s.round_s)),
        ("runtime.step_s", "s", sharded_per_call(&|s| s.step_s)),
        (
            "runtime.exchange_s",
            "s",
            sharded_per_call(&|s| s.exchange_s),
        ),
        ("runtime.driver_s", "s", sharded_per_call(&|s| s.driver_s)),
        (
            "runtime.step_cpu_s",
            "s",
            sharded_per_call(&|s| s.step_cpu_s),
        ),
        (
            "runtime.shard_imbalance",
            "ratio",
            sharded_layer(&|s| s.shard_imbalance),
        ),
        ("runtime.active_ratio", "ratio", layer(&|s| s.active_ratio)),
        (
            "runtime.rounds_per_s",
            "1/s",
            layer(&|s| s.rounds as f64) / run_s,
        ),
        ("runtime.sharded1_vs_seq", "ratio", sharded1_vs_seq),
        ("runtime.codec_vs_enum", "ratio", codec_vs_enum),
        ("arq.acks", "count", arq_count(|s| s.arq.0)),
        ("arq.retransmitted", "count", arq_count(|s| s.arq.1)),
        ("arq.dead_links", "count", arq_count(|s| s.arq.2)),
        ("arq.overhead_ratio", "ratio", arq_overhead),
        ("trace.overhead_ratio", "ratio", ratio(&on, &off)),
    ];
    Ok(Report {
        metrics,
        tally,
        passes: on.len(),
        median_wall_s: median_or_zero(&off),
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}");
            eprintln!(
                "usage: pipebench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let spec = Spec::pinned(args.workload);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = if args.trace { SHARDED_THREADS } else { 1 };
    let oversubscribed = threads > cores;
    if oversubscribed {
        eprintln!(
            "pipebench: warning: {} runs {threads} threads on {cores} cores; \
             its walls show oversubscription, not scaling",
            args.workload.name()
        );
    }
    let result = if args.trace {
        trace_file(args.workload).and_then(|path| {
            // Set before any thread exists; the kernel reads it at each run.
            std::env::set_var("PGA_TRACE", &path);
            let report = per_layer(spec, args.seed, args.seconds, &path);
            let _ = std::fs::remove_file(&path);
            report
        })
    } else {
        end_to_end(spec, args.seed, args.seconds, process_start)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pipebench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };

    let Report {
        metrics,
        tally,
        passes,
        median_wall_s,
    } = report;
    println!(
        "{{\"config\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"engine\": \"sequential\", \
         \"max_threads\": {threads}, \"available_parallelism\": {cores}, \"oversubscribed\": {oversubscribed}, \
         \"batch\": {}, \"passes\": {passes}, \"median_wall_s\": {median_wall_s:?}, \"failed_frac\": {:?}, \
         \"commit\": \"{}\"}}}}",
        args.workload.name(),
        args.seed,
        args.trace as u8,
        spec.batch,
        tally.failed as f64 / tally.attempted as f64,
        commit(),
    );
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    );
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
