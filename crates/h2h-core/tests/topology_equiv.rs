//! The bit-identity contract of the interconnect refactor: a uniform
//! [`Topology`] — however it is spelled (implicit scalar constructor,
//! explicit equal-link `star`, equal-link `switched` with no peers) —
//! must reproduce the historical scalar-Ethernet path **bitwise**,
//! zoo-wide: mappings, per-step latencies, energies, `SearchStats` and
//! multi-tenant serve ledgers. Every guarantee of the scalar model
//! therefore carries over to the topology-aware stack unchanged.

use h2h_core::serve::{TenantRegistry, TenantSpec};
use h2h_core::{H2hConfig, H2hMapper};
use h2h_model::units::Seconds;
use h2h_system::system::{BandwidthClass, SystemSpec};
use h2h_system::topology::{Endpoint, Topology};

/// The uniform spellings that must collapse to the scalar model.
fn uniform_variants(bw: BandwidthClass, n: usize) -> Vec<(&'static str, Topology)> {
    let rate = bw.bandwidth();
    vec![
        ("uniform_star", Topology::uniform_star(rate, n)),
        ("equal_links_star", Topology::star(rate, vec![rate; n])),
        ("peerless_switched", Topology::switched(rate, vec![rate; n], Vec::new())),
    ]
}

#[test]
fn uniform_topology_routes_collapse_to_the_scalar_rate_bitwise() {
    for bw in BandwidthClass::ALL {
        let scalar = bw.bandwidth().as_f64();
        for (name, topo) in uniform_variants(bw, 12) {
            assert!(topo.is_uniform(), "{name} @ {bw}");
            assert_eq!(topo.uniform_bw().unwrap().as_f64(), scalar, "{name} @ {bw}");
            for i in 0..12 {
                for j in 0..12 {
                    let p = topo.path_bw(
                        Endpoint::Acc(h2h_system::system::AccId::new(i)),
                        Endpoint::Acc(h2h_system::system::AccId::new(j)),
                    );
                    assert_eq!(p.as_f64(), scalar, "{name} @ {bw}: A{i}->A{j}");
                }
            }
        }
    }
}

#[test]
fn uniform_topology_pipeline_is_bit_identical_to_the_scalar_path_zoo_wide() {
    for bw in [BandwidthClass::LowMinus, BandwidthClass::Mid] {
        let scalar_system = SystemSpec::standard(bw);
        for model in h2h_model::zoo::all_models() {
            let reference = H2hMapper::new(&model, &scalar_system)
                .run()
                .expect("scalar path maps every zoo model");
            for (name, topo) in uniform_variants(bw, scalar_system.num_accs()) {
                let system = SystemSpec::standard(bw).with_topology(topo);
                let out = H2hMapper::new(&model, &system)
                    .run()
                    .expect("uniform topology maps every zoo model");
                let tag = format!("{} @ {bw} ({name})", model.name());
                assert_eq!(out.mapping, reference.mapping, "{tag}: mapping diverged");
                assert_eq!(
                    out.final_latency(),
                    reference.final_latency(),
                    "{tag}: latency diverged"
                );
                assert_eq!(
                    out.schedule.energy().total(),
                    reference.schedule.energy().total(),
                    "{tag}: energy diverged"
                );
                assert_eq!(out.remap_stats, reference.remap_stats, "{tag}: SearchStats diverged");
                for (a, b) in out.snapshots.iter().zip(reference.snapshots.iter()) {
                    assert_eq!(a.latency, b.latency, "{tag}: step {:?} latency diverged", a.step);
                }
            }
        }
    }
}

#[test]
fn uniform_topology_serve_ledgers_are_bit_identical_to_the_scalar_path() {
    // The serving loop charges eviction reloads per board link; on a
    // uniform fabric the grouped charge must equal the scalar one
    // bitwise, for both the full-budget and the trimming/evicting
    // regime (10% budget, three tenants alternating residency).
    let bw = BandwidthClass::LowMinus;
    for budget_frac in [1.0f64, 0.1] {
        let cfg = H2hConfig {
            serve_dram_budget_frac: budget_frac,
            serve_verify: true,
            ..H2hConfig::default()
        };
        let run = |system: &SystemSpec| {
            let mut reg = TenantRegistry::new(system, cfg);
            for model in [
                h2h_model::zoo::casia_surf(),
                h2h_model::zoo::facebag(),
                h2h_model::zoo::vfs(),
            ] {
                let name = model.name().to_owned();
                let id = reg
                    .admit(TenantSpec::new(name, model, 1.0, Seconds::new(1.0), 12))
                    .expect("admission");
                let ideal = reg.tenant(id).ideal_latency().as_f64();
                reg.set_contract(id, 8.0 / ideal, Seconds::new(24.0 * ideal), 12)
                    .expect("contract");
            }
            let batched = reg.serve();
            batched.check_coherence().expect("coherent ledger");
            let naive = reg.serve_naive();
            (batched, naive)
        };
        let scalar_system = SystemSpec::standard(bw);
        let (ref_batched, ref_naive) = run(&scalar_system);
        for (name, topo) in uniform_variants(bw, scalar_system.num_accs()) {
            let system = SystemSpec::standard(bw).with_topology(topo);
            let (batched, naive) = run(&system);
            assert_eq!(
                batched, ref_batched,
                "budget {budget_frac} ({name}): batched serve ledger diverged"
            );
            assert_eq!(
                naive, ref_naive,
                "budget {budget_frac} ({name}): naive serve ledger diverged"
            );
        }
    }
}

#[test]
fn skewed_links_actually_change_mapping_decisions() {
    // The refactor must be observable: on a skewed star (odd boards 4x
    // slower) the topology-aware pipeline should place at least one
    // layer differently than the topology-blind mapping, and its true
    // (skewed-fabric) latency must not be worse.
    let bw = BandwidthClass::LowMinus;
    let blind_system = SystemSpec::standard(bw);
    let skewed = Topology::parse("skewed", bw.bandwidth(), blind_system.num_accs()).unwrap();
    let aware_system = SystemSpec::standard(bw).with_topology(skewed);

    let mut any_moved = false;
    for model in [h2h_model::zoo::casia_surf(), h2h_model::zoo::vlocnet()] {
        let blind = H2hMapper::new(&model, &blind_system).run().unwrap();
        let aware = H2hMapper::new(&model, &aware_system).run().unwrap();
        // Evaluate the blind mapping under the *true* skewed fabric.
        let ev = h2h_system::schedule::Evaluator::new(&model, &aware_system);
        let blind_true = ev.evaluate(&blind.mapping, &blind.locality).makespan();
        assert!(
            aware.final_latency().as_f64() <= blind_true.as_f64() * (1.0 + 1e-9),
            "{}: topology-aware mapping must not lose on its own fabric \
             (aware {} vs blind-evaluated {})",
            model.name(),
            aware.final_latency(),
            blind_true
        );
        if aware.mapping != blind.mapping {
            any_moved = true;
        }
    }
    assert!(
        any_moved,
        "a 4x link skew should move at least one layer on some ResNet-like model"
    );
}
