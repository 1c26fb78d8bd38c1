//! H2H against the comparison mappers on every zoo model: it must
//! dominate the paper's computation-prioritized baseline everywhere and
//! never lose to clustering or random assignment.

use h2h::core::baseline::{cluster_mapping, computation_prioritized_baseline, random_mapping};
use h2h::core::config::H2hConfig;
use h2h::core::H2hMapper;
use h2h::model::zoo;
use h2h::system::{BandwidthClass, Evaluator, SystemSpec};

#[test]
fn h2h_dominates_computation_prioritized_everywhere() {
    for model in zoo::all_models() {
        for bw in [BandwidthClass::LowMinus, BandwidthClass::High] {
            let system = SystemSpec::standard(bw);
            let ev = Evaluator::new(&model, &system);
            let base = computation_prioritized_baseline(&ev, &H2hConfig::default()).unwrap();
            let h2h = H2hMapper::new(&model, &system).run().unwrap();
            assert!(
                h2h.final_latency() <= base.schedule.makespan(),
                "{} @ {}: H2H {} vs baseline {}",
                model.name(),
                bw.label(),
                h2h.final_latency(),
                base.schedule.makespan()
            );
        }
    }
}

#[test]
fn h2h_beats_clustering_and_random() {
    let bw = BandwidthClass::LowMinus;
    for model in zoo::all_models() {
        let system = SystemSpec::standard(bw);
        let ev = Evaluator::new(&model, &system);
        let h2h = H2hMapper::new(&model, &system)
            .run()
            .unwrap()
            .final_latency();
        let cluster = cluster_mapping(&ev, &H2hConfig::default())
            .unwrap()
            .schedule
            .makespan();
        assert!(
            h2h <= cluster,
            "{}: H2H {h2h} vs cluster {cluster}",
            model.name()
        );
        for seed in [1u64, 7, 1234] {
            let rand = random_mapping(&ev, seed).unwrap().schedule.makespan();
            assert!(
                h2h <= rand,
                "{} seed {seed}: H2H {h2h} vs random {rand}",
                model.name()
            );
        }
    }
}

#[test]
fn baseline_mappings_are_valid() {
    let system = SystemSpec::standard(BandwidthClass::Mid);
    for model in zoo::all_models() {
        let ev = Evaluator::new(&model, &system);
        let cfg = H2hConfig::default();
        computation_prioritized_baseline(&ev, &cfg)
            .unwrap()
            .mapping
            .validate(&model, &system)
            .unwrap();
        cluster_mapping(&ev, &cfg)
            .unwrap()
            .mapping
            .validate(&model, &system)
            .unwrap();
        random_mapping(&ev, 99)
            .unwrap()
            .mapping
            .validate(&model, &system)
            .unwrap();
    }
}
