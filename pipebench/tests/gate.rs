//! The correctness gate and the count determinism it relies on, on
//! small instances of every workload.

use pga_congest::ProbeMode;
use pipebench::{arq_config, pass, prepare, Spec, Tally, Workload};

const SEED: u64 = 7;

#[test]
fn counts_repeat_for_a_seed_at_one_and_two_threads() {
    for w in Workload::ALL {
        let spec = Spec::small(w);
        let p = prepare(spec, SEED).unwrap();
        let again = prepare(spec, SEED).unwrap();
        let counts =
            |p: &pipebench::Prepared| p.instances.iter().map(|i| i.counts).collect::<Vec<_>>();
        assert_eq!(counts(&again), counts(&p), "{}", w.name());
        for threads in [1, 2] {
            let mut tally = Tally::default();
            let cfg = spec.config(ProbeMode::Off).parallel(threads);
            let (_, passed) = pass(&p.instances, &cfg, &mut tally, |i, o| i.check(o));
            assert_eq!(
                passed.len(),
                spec.batch,
                "{} at {threads} threads",
                w.name()
            );
            assert_eq!((tally.attempted, tally.failed), (spec.batch as u64, 0));
        }
    }
}

#[test]
fn validity_gate_fires_when_one_vertex_is_removed() {
    for w in Workload::ALL {
        let p = prepare(Spec::small(w), SEED).unwrap();
        for inst in &p.instances {
            let out = inst.call(&p.spec.config(ProbeMode::Off)).unwrap();
            assert_eq!(inst.check(&out), Ok(()), "{}", w.name());
            // Some member of the output is needed for validity; dropping
            // it must trip the validity check, which runs first.
            let tripped = (0..out.solution.len())
                .filter(|&v| out.solution[v])
                .any(|v| {
                    let mut broken = out.clone();
                    broken.solution[v] = false;
                    inst.check(&broken).is_err_and(|e| e.contains("not valid"))
                });
            assert!(tripped, "{}: no single removal tripped the gate", w.name());
        }
    }
}

#[test]
fn a_failed_call_is_counted_not_dropped() {
    let p = prepare(Spec::small(Workload::Thm1Mvc), SEED).unwrap();
    let mut tally = Tally::default();
    let cfg = p.spec.config(ProbeMode::Off);
    let (_, passed) = pass(&p.instances, &cfg, &mut tally, |i, o| {
        let mut out = o.clone();
        out.phases[1].messages += 1;
        i.check(&out)
    });
    assert!(passed.is_empty());
    assert_eq!((tally.attempted, tally.failed), (2, 2));
}

#[test]
fn clean_arq_gate_holds_and_fires() {
    let p = prepare(Spec::small(Workload::Thm1Mvc), SEED).unwrap();
    for inst in &p.instances {
        let out = inst.call(&arq_config(ProbeMode::Off)).unwrap();
        assert_eq!(inst.check_clean_arq(&out), Ok(()));
        let mut lost = out.clone();
        lost.phases[1].fault.delivered -= 1;
        assert!(inst
            .check_clean_arq(&lost)
            .is_err_and(|e| e.contains("delivered")));
        let mut resent = out.clone();
        resent.phases[0].fault.retransmitted = 1;
        assert!(inst
            .check_clean_arq(&resent)
            .is_err_and(|e| e.contains("retransmitted")));
    }
}
