//! The traced run's layer split agrees with the pipelines' own metrics.
//!
//! Alone in its test binary because it sets `PGA_TRACE` for the whole
//! process.

use pga_bench::trace::parse_trace;
use pga_congest::{Engine, ProbeMode, RunConfig};
use pipebench::Workload::{CliqueBmm, Thm1Mvc};
use pipebench::{arq_config, pass, prepare, split_layers, Counts, Instance, Outcome, Spec, Tally};

type Check = fn(&Instance, &Outcome) -> Result<(), String>;

#[test]
fn trace_totals_equal_the_pipeline_metrics() {
    let path =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("pipebench-trace-totals.jsonl");
    std::env::set_var("PGA_TRACE", &path);
    let timed = |w| Spec::small(w).config(ProbeMode::Env);
    let cases: [(_, RunConfig, Check, usize); 4] = [
        (Thm1Mvc, timed(Thm1Mvc), Instance::check, 2),
        // The sharded executor, whose trace carries the runtime split.
        (Thm1Mvc, timed(Thm1Mvc).parallel(2), Instance::check, 2),
        // clique_bmm materialization, direct Phase I, clique Phase II.
        (CliqueBmm, timed(CliqueBmm), Instance::check, 3),
        (
            Thm1Mvc,
            arq_config(ProbeMode::Env),
            Instance::check_clean_arq,
            2,
        ),
    ];
    for (w, cfg, check, sub_runs_per_call) in cases {
        // Set-up calls run with the probe off and leave no trace.
        let spec = Spec::small(w);
        let p = prepare(spec, 3).unwrap();
        std::fs::write(&path, "").unwrap();
        let mut tally = Tally::default();
        let (_, outs) = pass(&p.instances, &cfg, &mut tally, check);
        assert_eq!(tally.failed, 0, "{}", w.name());
        let runs = parse_trace(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let phases: Vec<_> = outs.iter().flat_map(|o| o.phases.iter().cloned()).collect();
        let split = split_layers(&runs, &phases).unwrap();
        let total = |f: fn(&Counts) -> u64| outs.iter().map(|o| f(&o.counts())).sum::<u64>();
        assert_eq!(split.runs, sub_runs_per_call * spec.batch, "{}", w.name());
        assert_eq!(split.rounds, total(|c| c.rounds), "{}", w.name());
        assert_eq!(split.messages, total(|c| c.messages), "{}", w.name());
        assert_eq!(split.phase_s.len(), phases.len(), "{}", w.name());
        let arq = outs
            .iter()
            .map(|o| o.arq_totals())
            .fold((0, 0, 0), |a, t| (a.0 + t.0, a.1 + t.1, a.2 + t.2));
        assert_eq!(split.arq, arq, "{}", w.name());
        assert!(split.phase_s.iter().sum::<f64>() <= split.run_s + 1e-9);
        // Two shards step in every sharded round, so their summed step
        // exceeds the slowest one; the sequential engine steps inline.
        if cfg.engine == Engine::Sequential {
            assert_eq!(split.step_cpu_s, split.step_s, "{}", w.name());
        } else {
            assert!(split.step_cpu_s > split.step_s, "{}", w.name());
        }
    }
    std::fs::remove_file(&path).unwrap();
}
