//! Equivalence contract of the multi-tenant serving subsystem:
//!
//! * a single-tenant serve run is **bit-identical** to the standalone
//!   single-model pipeline — same mapping, same locality, same latency;
//! * every slice makespan the incremental rebatch path produces equals
//!   a full `Evaluator::with_batch(k)` evaluation bitwise;
//! * batched serving beats the naive per-request reference on total
//!   drain makespan whenever weights matter, without ever exceeding
//!   the shared DRAM budget.

use h2h_core::serve::{TenantRegistry, TenantSpec};
use h2h_core::{H2hConfig, H2hMapper};
use h2h_model::units::Seconds;
use h2h_system::schedule::Evaluator;
use h2h_system::system::{BandwidthClass, SystemSpec};

fn spec(name: &str, model: h2h_model::ModelGraph, rate: f64, slo_s: f64, n: usize) -> TenantSpec {
    TenantSpec::new(name, model, rate, Seconds::new(slo_s), n)
}

#[test]
fn single_tenant_admission_is_bit_identical_to_the_pipeline() {
    // The acceptance contract: admitting one tenant under the default
    // (full) budget must reproduce the standalone H2hMapper run bit for
    // bit — mapping, locality, and final latency.
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    for model in [
        h2h_model::zoo::mocap(),
        h2h_model::zoo::cnn_lstm(),
        h2h_model::zoo::casia_surf(),
    ] {
        let offline = H2hMapper::new(&model, &system).run().unwrap();
        let mut reg = TenantRegistry::new(&system, H2hConfig::default());
        let id = reg
            .admit(spec(model.name(), model.clone(), 4.0, 10.0, 4))
            .unwrap();
        let t = reg.tenant(id);
        assert_eq!(
            t.mapping(),
            &offline.mapping,
            "{}: mapping diverged",
            model.name()
        );
        assert_eq!(
            t.locality(),
            &offline.locality,
            "{}: locality diverged",
            model.name()
        );
        assert_eq!(
            t.ideal_latency(),
            offline.final_latency(),
            "{}: latency diverged",
            model.name()
        );
        assert_eq!(
            t.trimmed_pins(),
            0,
            "{}: the full budget must trim nothing",
            model.name()
        );
    }
}

#[test]
fn slice_makespans_match_the_batched_full_evaluator_bitwise() {
    // Serve with verification on: every fresh slice evaluation is
    // cross-checked against Evaluator::with_batch(k).evaluate of the
    // same (mapping, locality). Zero mismatches allowed.
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    let cfg = H2hConfig {
        serve_verify: true,
        ..H2hConfig::default()
    };
    let mut reg = TenantRegistry::new(&system, cfg);
    let ids = [
        reg.admit(spec("cnn", h2h_model::zoo::cnn_lstm(), 300.0, 8.0, 20))
            .unwrap(),
        reg.admit(spec("mocap", h2h_model::zoo::mocap(), 300.0, 8.0, 20))
            .unwrap(),
    ];
    let out = reg.serve();
    out.check_coherence().unwrap();
    assert!(
        out.counters.crosschecks > 0,
        "verification must actually run"
    );
    assert_eq!(out.counters.crosscheck_mismatches, 0);

    // And explicitly, outside the serve loop: the registry's slice
    // semantics equal a hand-built batched evaluation of the admitted
    // placement for a spread of batch sizes.
    for id in ids {
        let t = reg.tenant(id);
        for k in [1u32, 2, 8] {
            let full = Evaluator::new(&t.spec().model, &system)
                .with_batch(k)
                .evaluate(t.mapping(), t.locality())
                .makespan();
            if k == 1 {
                assert_eq!(t.ideal_latency(), full);
            }
            assert!(full >= t.ideal_latency());
        }
    }
}

#[test]
fn three_tenant_batched_serving_beats_naive_within_budget() {
    // The headline acceptance: three co-resident tenants, batched
    // serving strictly faster than per-request serving, DRAM budget
    // respected throughout.
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    let cfg = H2hConfig {
        serve_verify: true,
        ..H2hConfig::default()
    };
    let mut reg = TenantRegistry::new(&system, cfg);
    reg.admit(spec("mocap", h2h_model::zoo::mocap(), 40.0, 30.0, 16))
        .unwrap();
    reg.admit(spec("cnn", h2h_model::zoo::cnn_lstm(), 40.0, 30.0, 16))
        .unwrap();
    reg.admit(spec("casia", h2h_model::zoo::casia_surf(), 40.0, 30.0, 16))
        .unwrap();
    let batched = reg.serve();
    batched.check_coherence().unwrap();
    let naive = reg.serve_naive();
    naive.check_coherence().unwrap();
    assert!(
        batched.makespan < naive.makespan,
        "batched drain {} must beat naive {}",
        batched.makespan,
        naive.makespan
    );
    // Amortization is the mechanism: every tenant must have saved
    // weight-fetch time through batching.
    for t in &batched.tenants {
        assert!(t.max_batch > 1, "{}: backlog must batch", t.name);
        assert!(
            t.amortized_weight_time > Seconds::ZERO,
            "{}: no amortization",
            t.name
        );
    }
    for t in &naive.tenants {
        assert_eq!(t.max_batch, 1);
        assert_eq!(t.amortized_weight_time, Seconds::ZERO);
    }
}

#[test]
fn serving_stays_coherent_and_verified_on_non_uniform_topologies() {
    // Skewed links: every slice evaluation still cross-checks against
    // the full (topology-aware) evaluator bitwise, budgets hold, and
    // SLO ledgers stay coherent in the eviction regime (10% budget,
    // per-board reload rates). No cross-fabric reload comparison is
    // asserted — the aware mapper may legitimately pin fewer or
    // different bytes on the skewed fabric; the uniform run below only
    // anchors that the regime actually evicts.
    use h2h_system::topology::Topology;
    let bw = BandwidthClass::LowMinus;
    let run = |system: &SystemSpec| {
        let cfg = H2hConfig {
            serve_verify: true,
            serve_dram_budget_frac: 0.1,
            ..H2hConfig::default()
        };
        let mut reg = TenantRegistry::new(system, cfg);
        for model in [
            h2h_model::zoo::casia_surf(),
            h2h_model::zoo::facebag(),
            h2h_model::zoo::vfs(),
        ] {
            let name = model.name().to_owned();
            let id = reg
                .admit(TenantSpec::new(name, model, 1.0, Seconds::new(1.0), 12))
                .unwrap();
            let ideal = reg.tenant(id).ideal_latency().as_f64();
            reg.set_contract(id, 8.0 / ideal, Seconds::new(24.0 * ideal), 12)
                .unwrap();
        }
        let out = reg.serve();
        out.check_coherence().unwrap();
        assert!(
            out.counters.crosschecks > 0,
            "verification must actually run"
        );
        assert_eq!(
            out.counters.crosscheck_mismatches, 0,
            "incremental slices must match the topology-aware evaluator"
        );
        for (peak, budget) in out.peak_resident.iter().zip(out.budgets.iter()) {
            assert!(peak <= budget, "budget exceeded");
        }
        out
    };
    let uniform = run(&SystemSpec::standard(bw));
    assert!(
        uniform.counters.weight_reloads > 0,
        "the 10% budget must force evictions on the uniform fabric (PR 4 behavior)"
    );
    let base = SystemSpec::standard(bw);
    let topo = Topology::parse("skewed", bw.bandwidth(), base.num_accs()).unwrap();
    let skewed = run(&base.with_topology(topo));
    // Reload ledgers stay internally consistent on the skewed fabric:
    // time is charged iff a swap-in happened.
    for t in &skewed.tenants {
        assert_eq!(
            t.reload_time > Seconds::ZERO,
            t.weight_reloads > 0,
            "{}: reload time and swap-in count must agree",
            t.name
        );
    }
}

#[test]
fn explicit_fixed_arrivals_are_bitwise_identical_to_the_default() {
    // `set_arrivals(Fixed)` re-materializes the schedule through the
    // streaming machinery; the untouched default never leaves the
    // closed form. Both must serve bitwise-identically zoo-wide —
    // FixedArrivals computes the exact floating-point expression the
    // serve loop historically inlined, so the open-loop refactor is
    // invisible to every deterministic workload.
    use h2h_core::ArrivalProcess;
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    let cfg = H2hConfig {
        serve_verify: true,
        serve_dram_budget_frac: 0.1,
        ..H2hConfig::default()
    };
    let models = [
        h2h_model::zoo::mocap(),
        h2h_model::zoo::cnn_lstm(),
        h2h_model::zoo::casia_surf(),
        h2h_model::zoo::facebag(),
        h2h_model::zoo::vfs(),
    ];
    let mut default_reg = TenantRegistry::new(&system, cfg);
    let mut explicit_reg = TenantRegistry::new(&system, cfg);
    for model in &models {
        let s = spec(model.name(), model.clone(), 60.0, 6.0, 10);
        default_reg.admit(s.clone()).unwrap();
        let id = explicit_reg.admit(s).unwrap();
        explicit_reg
            .set_arrivals(id, ArrivalProcess::Fixed)
            .unwrap();
    }
    assert_eq!(default_reg.serve(), explicit_reg.serve());
}

#[test]
fn serve_runs_are_deterministic() {
    // Two registries built the same way must produce bitwise-equal
    // outcomes (the scheduling loop has no RNG and no wall-clock).
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    let build = || {
        let mut reg = TenantRegistry::new(&system, H2hConfig::default());
        reg.admit(spec("a", h2h_model::zoo::mocap(), 25.0, 5.0, 12))
            .unwrap();
        reg.admit(spec("b", h2h_model::zoo::cnn_lstm(), 25.0, 5.0, 12))
            .unwrap();
        reg.serve()
    };
    let first = build();
    let second = build();
    assert_eq!(first, second);
}
