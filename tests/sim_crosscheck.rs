//! Cross-validation of the analytical scheduler against the
//! discrete-event simulator on the real zoo mappings, plus contention
//! sanity: the shared-NIC fluid model may only add latency.
//!
//! Seed-debt audit (PR 4): this suite shipped with the seed, which did
//! not build (ROADMAP "seed tests failing"); PR 1's workspace repair
//! made it runnable and it has passed unmodified since. Nothing here is
//! `#[ignore]`d or quarantined — if a case ever needs quarantining,
//! mark it `#[ignore = "tracking: <issue>"]` so this header stays true.

use h2h::core::H2hMapper;
use h2h::model::zoo;
use h2h::system::{simulate, BandwidthClass, SimConfig, SystemSpec};

#[test]
fn event_sim_matches_analytic_on_all_final_mappings() {
    for model in zoo::all_models() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let out = H2hMapper::new(&model, &system).run().unwrap();
        let sim = simulate(
            &model,
            &system,
            &out.mapping,
            &out.locality,
            SimConfig::dedicated(),
        );
        let a = out.schedule.makespan().as_f64();
        let s = sim.makespan().as_f64();
        assert!(
            (a - s).abs() / a < 1e-6,
            "{}: analytic {a} vs simulated {s}",
            model.name()
        );
    }
}

#[test]
fn event_sim_matches_analytic_on_baseline_mappings() {
    use h2h::core::baseline::computation_prioritized_baseline;
    use h2h::core::config::H2hConfig;
    use h2h::system::Evaluator;
    for model in zoo::all_models() {
        let system = SystemSpec::standard(BandwidthClass::Mid);
        let ev = Evaluator::new(&model, &system);
        let base = computation_prioritized_baseline(&ev, &H2hConfig::default()).unwrap();
        let sim = simulate(
            &model,
            &system,
            &base.mapping,
            &base.locality,
            SimConfig::dedicated(),
        );
        let a = base.schedule.makespan().as_f64();
        let s = sim.makespan().as_f64();
        assert!(
            (a - s).abs() / a < 1e-6,
            "{}: analytic {a} vs simulated {s}",
            model.name()
        );
    }
}

#[test]
fn event_sim_matches_analytic_on_non_uniform_topologies() {
    // The simulator rates every transfer phase by the same (src, dst)
    // route query the analytical evaluator charges, so dedicated-link
    // simulation must agree with the analytical schedule on skewed and
    // switched fabrics too — sim.rs is a cross-check of the Topology,
    // not a second owner of the routing rules.
    use h2h::system::topology::Topology;
    let bw = BandwidthClass::LowMinus;
    for spec in ["skewed", "switched"] {
        let base = SystemSpec::standard(bw);
        let topo = Topology::parse(spec, bw.bandwidth(), base.num_accs()).unwrap();
        let system = base.with_topology(topo);
        for model in [zoo::mocap(), zoo::casia_surf()] {
            let out = H2hMapper::new(&model, &system).run().unwrap();
            let sim = simulate(
                &model,
                &system,
                &out.mapping,
                &out.locality,
                SimConfig::dedicated(),
            );
            let a = out.schedule.makespan().as_f64();
            let s = sim.makespan().as_f64();
            assert!(
                (a - s).abs() / a < 1e-6,
                "{} on `{spec}`: analytic {a} vs simulated {s}",
                model.name()
            );
        }
    }
}

#[test]
fn finite_nic_sim_respects_the_analytical_contention_bound() {
    // The Topology's analytical bound — host-relayed bytes serialized
    // through the NIC, maxed with the contention-free makespan — must
    // lower-bound the fluid simulation at every NIC capacity, and the
    // simulation must *meet* the contention-free term with dedicated
    // links (the "equal when dedicated" half of the contract).
    use h2h::model::units::BytesPerSec;
    use h2h::system::topology::{host_contention_bound, Topology};
    let bw = BandwidthClass::LowMinus;
    let link = bw.bandwidth().as_f64();
    for spec in ["uniform", "skewed", "switched"] {
        let base = SystemSpec::standard(bw);
        let topo = Topology::parse(spec, bw.bandwidth(), base.num_accs()).unwrap();
        let system = base.with_topology(topo);
        for model in [zoo::mocap(), zoo::casia_surf()] {
            let out = H2hMapper::new(&model, &system).run().unwrap();
            let analytic = out.schedule.makespan().as_f64();
            for mult in [0.5, 1.0, 3.0] {
                let nic = BytesPerSec::new(link * mult);
                let serial = host_contention_bound(
                    &model,
                    system.topology(),
                    &out.mapping,
                    &out.locality,
                    nic,
                    1,
                )
                .as_f64();
                let bound = serial.max(analytic);
                let sim = simulate(
                    &model,
                    &system,
                    &out.mapping,
                    &out.locality,
                    SimConfig::shared_nic(nic),
                );
                let s = sim.makespan().as_f64();
                assert!(
                    s >= bound * (1.0 - 1e-6),
                    "{} on `{spec}` @ {mult}x NIC: simulated {s} beat the bound {bound}",
                    model.name()
                );
            }
            // Dedicated links: the bound's contention-free term is met
            // exactly (the serialization term does not apply).
            let ded = simulate(
                &model,
                &system,
                &out.mapping,
                &out.locality,
                SimConfig::dedicated(),
            );
            assert!(
                (ded.makespan().as_f64() - analytic).abs() / analytic < 1e-6,
                "{} on `{spec}`: dedicated sim must equal the analytic makespan",
                model.name()
            );
        }
    }
}

#[test]
fn shared_nic_contention_is_monotone_in_capacity() {
    let model = zoo::casia_surf();
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    let out = H2hMapper::new(&model, &system).run().unwrap();
    let link = BandwidthClass::LowMinus.bandwidth().as_f64();
    let mut last = f64::INFINITY;
    for mult in [1.0, 2.0, 4.0, 12.0] {
        let rep = simulate(
            &model,
            &system,
            &out.mapping,
            &out.locality,
            SimConfig::shared_nic(h2h::model::units::BytesPerSec::new(link * mult)),
        );
        let mk = rep.makespan().as_f64();
        assert!(
            mk <= last + 1e-9,
            "more NIC capacity must not slow things down ({mult}x: {mk} vs {last})"
        );
        last = mk;
    }
    // A 12x NIC equals fully dedicated links (12 accelerators).
    let ded = simulate(
        &model,
        &system,
        &out.mapping,
        &out.locality,
        SimConfig::dedicated(),
    );
    assert!((last - ded.makespan().as_f64()).abs() / last < 1e-9);
}

#[test]
fn event_sim_matches_analytic_on_admitted_serve_tenants() {
    // The serving registry pins each tenant to the offline pipeline's
    // (mapping, locality); the event simulator must agree with the
    // tenant's zero-queueing ideal latency exactly like it does with
    // the standalone pipeline — the serve path introduces no state the
    // simulator cannot reproduce.
    use h2h::core::serve::{TenantRegistry, TenantSpec};
    use h2h::core::H2hConfig;
    use h2h::model::units::Seconds;
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    let mut reg = TenantRegistry::new(&system, H2hConfig::default());
    let ids = [
        reg.admit(TenantSpec::new(
            "mocap",
            zoo::mocap(),
            4.0,
            Seconds::new(4.0),
            4,
        ))
        .unwrap(),
        reg.admit(TenantSpec::new(
            "cnn",
            zoo::cnn_lstm(),
            4.0,
            Seconds::new(4.0),
            4,
        ))
        .unwrap(),
    ];
    for id in ids {
        let t = reg.tenant(id);
        let sim = simulate(
            &t.spec().model,
            &system,
            t.mapping(),
            t.locality(),
            SimConfig::dedicated(),
        );
        let a = t.ideal_latency().as_f64();
        let s = sim.makespan().as_f64();
        assert!(
            (a - s).abs() / a < 1e-6,
            "{}: serve ideal {a} vs simulated {s}",
            t.spec().name
        );
    }
}
