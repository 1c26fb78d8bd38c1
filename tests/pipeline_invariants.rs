//! End-to-end invariants of the H2H pipeline over the full zoo: step
//! monotonicity, mapping validity, DRAM budgets, fusion consistency,
//! schedule well-formedness and determinism.

use h2h::core::{H2hMapper, Step};
use h2h::model::layer::LayerOp;
use h2h::model::units::Seconds;
use h2h::model::zoo;
use h2h::system::{BandwidthClass, SystemSpec};

const BANDWIDTHS: [BandwidthClass; 3] = [
    BandwidthClass::LowMinus,
    BandwidthClass::Mid,
    BandwidthClass::High,
];

#[test]
fn steps_never_increase_latency_anywhere() {
    for model in zoo::all_models() {
        for bw in BANDWIDTHS {
            let system = SystemSpec::standard(bw);
            let out = H2hMapper::new(&model, &system).run().unwrap();
            let l: Vec<f64> = out.snapshots.iter().map(|s| s.latency.as_f64()).collect();
            for w in l.windows(2) {
                assert!(
                    w[1] <= w[0] + 1e-12,
                    "{} @ {}: step increased latency {:?}",
                    model.name(),
                    bw.label(),
                    l
                );
            }
        }
    }
}

#[test]
fn final_mappings_are_valid_and_capable() {
    for model in zoo::all_models() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let out = H2hMapper::new(&model, &system).run().unwrap();
        out.mapping.validate(&model, &system).unwrap();
    }
}

#[test]
fn dram_budgets_respected() {
    for model in zoo::all_models() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let out = H2hMapper::new(&model, &system).run().unwrap();
        for acc in system.acc_ids() {
            let used = out.locality.dram_used(acc);
            let cap = system.acc(acc).dram_capacity();
            assert!(
                used <= cap,
                "{}: {} uses {} of {}",
                model.name(),
                system.acc(acc).meta().id,
                used,
                cap
            );
        }
    }
}

#[test]
fn fused_edges_are_colocated_and_not_inputs() {
    for model in zoo::all_models() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let out = H2hMapper::new(&model, &system).run().unwrap();
        for (from, to, _) in model.edges() {
            if out.locality.is_fused(from, to) {
                assert_eq!(
                    out.mapping.acc_of(from),
                    out.mapping.acc_of(to),
                    "{}: fused edge crosses accelerators",
                    model.name()
                );
                assert!(
                    !matches!(model.layer(from).op(), LayerOp::Input { .. }),
                    "{}: fused edge out of an input",
                    model.name()
                );
            }
        }
    }
}

#[test]
fn schedules_are_well_formed() {
    for model in zoo::all_models() {
        let system = SystemSpec::standard(BandwidthClass::Mid);
        let out = H2hMapper::new(&model, &system).run().unwrap();
        let sched = &out.schedule;

        // Dependencies respected; makespan is the max finish.
        let mut max_finish = Seconds::ZERO;
        for id in model.layer_ids() {
            let t = sched.timing(id).expect("every layer scheduled");
            assert!(t.finish >= t.start);
            max_finish = max_finish.max(t.finish);
            for pred in model.predecessors(id) {
                let tp = sched.timing(pred).unwrap();
                assert!(
                    t.start >= tp.finish - Seconds::new(1e-12),
                    "{}: {} starts before {} finishes",
                    model.name(),
                    model.layer(id).name(),
                    model.layer(pred).name()
                );
            }
        }
        assert!((sched.makespan().as_f64() - max_finish.as_f64()).abs() < 1e-12);

        // No overlap on any accelerator.
        for acc in system.acc_ids() {
            let mut intervals: Vec<(f64, f64)> = model
                .layer_ids()
                .filter(|id| out.mapping.acc_of(*id) == acc)
                .map(|id| {
                    let t = sched.timing(id).unwrap();
                    (t.start.as_f64(), t.finish.as_f64())
                })
                .collect();
            intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in intervals.windows(2) {
                assert!(
                    w[1].0 >= w[0].1 - 1e-12,
                    "{}: overlapping execution on {}",
                    model.name(),
                    system.acc(acc).meta().id
                );
            }
        }
    }
}

#[test]
fn pipeline_is_deterministic() {
    let model = zoo::casia_surf();
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    let a = H2hMapper::new(&model, &system).run().unwrap();
    let b = H2hMapper::new(&model, &system).run().unwrap();
    assert_eq!(a.final_latency(), b.final_latency());
    assert_eq!(a.mapping, b.mapping);
}

#[test]
fn higher_bandwidth_never_slower_for_a_fixed_mapping() {
    // For a FIXED mapping and locality state, every Ethernet term
    // shrinks as bandwidth grows, so latency must fall monotonically.
    // (End-to-end H2H results are *not* strictly monotone: the greedy
    // search may take different paths at different bandwidths.)
    use h2h::system::Evaluator;
    for model in zoo::all_models() {
        let low = SystemSpec::standard(BandwidthClass::LowMinus);
        let out = H2hMapper::new(&model, &low).run().unwrap();
        let mut last = f64::INFINITY;
        for bw in BandwidthClass::ALL {
            let system = SystemSpec::standard(bw);
            let ev = Evaluator::new(&model, &system);
            let lat = ev.evaluate(&out.mapping, &out.locality).makespan().as_f64();
            assert!(
                lat <= last + 1e-12,
                "{}: fixed-mapping latency rose from {last} to {lat} at {}",
                model.name(),
                bw.label()
            );
            last = lat;
        }
    }
}

#[test]
fn reductions_shrink_with_bandwidth() {
    // The paper's central trend: communication awareness pays most when
    // bandwidth is scarce.
    for model in zoo::all_models() {
        let at = |bw| {
            let system = SystemSpec::standard(bw);
            H2hMapper::new(&model, &system)
                .run()
                .unwrap()
                .latency_reduction()
        };
        let low = at(BandwidthClass::LowMinus);
        let high = at(BandwidthClass::High);
        assert!(
            low >= high - 0.02,
            "{}: Low- reduction {:.3} should exceed High {:.3}",
            model.name(),
            low,
            high
        );
    }
}

#[test]
fn headline_bands_hold() {
    // The claims the paper leads with, at the band level.
    let mut low_reductions = Vec::new();
    for model in zoo::all_models() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let out = H2hMapper::new(&model, &system).run().unwrap();
        low_reductions.push(out.latency_reduction());
        let _ = out.after(Step::ActivationFusion);
    }
    let min = low_reductions.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = low_reductions.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        min > 0.15,
        "every model should gain >15% at Low- (paper: 15-74%), min {min:.3}"
    );
    assert!(
        max > 0.55,
        "the best model should gain >55% at Low- (paper: up to 74%), max {max:.3}"
    );
    let over60 = low_reductions.iter().filter(|r| **r > 0.60).count();
    assert!(
        (2..=4).contains(&over60),
        "paper: half the cases exceed 60%; measured {over60} of 6"
    );
}
