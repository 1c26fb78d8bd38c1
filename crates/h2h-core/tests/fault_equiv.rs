//! Contracts of the fault-injected serving path:
//!
//! * an **empty** fault plan is bitwise invisible — `serve_with_faults`
//!   with no events reproduces `serve()` exactly, zoo-wide;
//! * a faulted serve run leaves no trace on the registry — the
//!   snapshot/restore wrapper makes later no-fault serves bit-identical
//!   to a registry that never saw the fault;
//! * the budgeted repair recovers most of what a from-scratch remap
//!   would, at a small fraction of its search bill (the paper-style
//!   acceptance gate for degraded-fabric operation).

use h2h_core::repair::{repair_mapping, resolve_repair_budget, scratch_remap};
use h2h_core::serve::{TenantRegistry, TenantSpec};
use h2h_core::{H2hConfig, H2hMapper, PinPreset};
use h2h_model::units::Seconds;
use h2h_system::fault::{FaultPlan, FaultState};
use h2h_system::schedule::Evaluator;
use h2h_system::system::{AccId, BandwidthClass, SystemSpec};

fn spec(name: &str, model: h2h_model::ModelGraph, rate: f64, slo_s: f64, n: usize) -> TenantSpec {
    TenantSpec::new(name, model, rate, Seconds::new(slo_s), n)
}

/// The board hosting the most layers of a mapped model — the
/// worst-case single-board outage for that mapping.
fn most_loaded_board(
    model: &h2h_model::ModelGraph,
    mapping: &h2h_system::mapping::Mapping,
    n_accs: usize,
) -> usize {
    let mut load = vec![0usize; n_accs];
    for id in model.layer_ids() {
        load[mapping.acc_of(id).index()] += 1;
    }
    load.iter().enumerate().max_by_key(|(_, l)| **l).unwrap().0
}

#[test]
fn empty_fault_plan_serving_is_bitwise_identical_zoo_wide() {
    // Two registries admitted identically; one drains through serve(),
    // the other through the fault path with no events. Every field of
    // the outcome — ledgers, drain makespan, counters — must match.
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    for model in h2h_model::zoo::all_models() {
        let mut plain = TenantRegistry::new(&system, H2hConfig::default());
        let mut faulted = TenantRegistry::new(&system, H2hConfig::default());
        plain
            .admit(spec(model.name(), model.clone(), 6.0, 10.0, 5))
            .unwrap();
        faulted
            .admit(spec(model.name(), model.clone(), 6.0, 10.0, 5))
            .unwrap();
        let a = plain.serve();
        let b = faulted.serve_with_faults(&FaultPlan::empty()).unwrap();
        assert_eq!(
            a,
            b,
            "{}: empty fault plan must be bitwise invisible",
            model.name()
        );
    }
}

#[test]
fn faulted_serve_leaves_no_trace_on_the_registry() {
    // Registry B serves through a mid-drain board outage between two
    // plain serves; registry A runs the same plain serves back to
    // back. The snapshot/restore wrapper must make B's post-fault
    // serve indistinguishable from A's.
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    let admit = |reg: &mut TenantRegistry| {
        reg.admit(spec("cnn", h2h_model::zoo::cnn_lstm(), 40.0, 8.0, 8))
            .unwrap();
        reg.admit(spec("mocap", h2h_model::zoo::mocap(), 40.0, 8.0, 8))
            .unwrap();
    };
    let mut a = TenantRegistry::new(&system, H2hConfig::default());
    let mut b = TenantRegistry::new(&system, H2hConfig::default());
    admit(&mut a);
    admit(&mut b);

    let first = a.serve();
    assert_eq!(
        first,
        b.serve(),
        "identical registries must serve identically"
    );

    // Down a board carrying real work just after the drain starts
    // (fault boundaries are sampled at round starts, so an onset inside
    // the first round is crossed at the second round's top); the
    // faulted outcome must actually take the degraded path.
    let dead = {
        let t = b.tenants().next().unwrap();
        most_loaded_board(&t.spec().model, t.mapping(), system.num_accs())
    };
    let plan = FaultPlan::board_down(AccId::new(dead), Seconds::new(1e-6));
    let out = b.serve_with_faults(&plan).unwrap();
    out.check_coherence().unwrap();
    assert!(
        out.counters.fault_transitions > 0,
        "the outage must be crossed"
    );

    assert_eq!(
        a.serve(),
        b.serve(),
        "the faulted serve must leave no trace"
    );
}

#[test]
fn pr6_fault_kinds_leave_the_new_ledgers_untouched() {
    // Board outages and link degradations predate the host/compute
    // fault kinds and the costed-repair model; under the default
    // instantaneous-repair config they must keep taking exactly the
    // old path — every ledger this PR added stays at its zero.
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    let mut reg = TenantRegistry::new(&system, H2hConfig::default());
    reg.admit(spec("cnn", h2h_model::zoo::cnn_lstm(), 40.0, 8.0, 8))
        .unwrap();
    reg.admit(spec("mocap", h2h_model::zoo::mocap(), 40.0, 8.0, 8))
        .unwrap();
    let dead = {
        let t = reg.tenants().next().unwrap();
        most_loaded_board(&t.spec().model, t.mapping(), system.num_accs())
    };
    let live = (dead + 1) % system.num_accs();
    let plan = FaultPlan::parse(
        &format!("board:{dead}@0.000001-0.4;link:{live}/4@0.000001"),
        system.num_accs(),
    )
    .unwrap();
    let out = reg.serve_with_faults(&plan).unwrap();
    out.check_coherence().unwrap();
    assert!(
        out.counters.fault_transitions > 0,
        "the window must be crossed"
    );
    assert_eq!(
        out.counters.staged_repairs, 0,
        "nothing stages under zero repair cost"
    );
    assert_eq!(
        out.counters.sheds, 0,
        "nothing sheds on a survivable outage"
    );
    for t in &out.tenants {
        assert_eq!(
            t.repair_time_charged,
            Seconds::ZERO,
            "{}: no wall time charged",
            t.name
        );
        assert_eq!(t.parks, 0, "{}: never parked", t.name);
    }
}

#[test]
fn host_and_compute_degradation_charges_repair_wall_time() {
    // The PR's acceptance scenario: the host NIC degrades and a busy
    // board slows mid-drain, under a realistic nonzero per-move repair
    // cost. The budgeted repair must be staged behind its modeled wall
    // time, that time must land on a tenant ledger, the accounting
    // must stay coherent — and the whole episode must leave no trace
    // on the registry.
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    let cfg = H2hConfig {
        repair_secs_per_move: 25e-6,
        ..H2hConfig::default()
    };
    let mut reg = TenantRegistry::new(&system, cfg);
    let mut plain = TenantRegistry::new(&system, cfg);
    for r in [&mut reg, &mut plain] {
        r.admit(spec("cnn", h2h_model::zoo::cnn_lstm(), 40.0, 8.0, 8))
            .unwrap();
        r.admit(spec("mocap", h2h_model::zoo::mocap(), 40.0, 8.0, 8))
            .unwrap();
    }
    let slowed = {
        let t = reg.tenants().next().unwrap();
        most_loaded_board(&t.spec().model, t.mapping(), system.num_accs())
    };
    let plan = FaultPlan::parse(
        &format!("host:2@0.000001;slow:{slowed}/8@0.000001"),
        system.num_accs(),
    )
    .unwrap();
    let out = reg.serve_with_faults(&plan).unwrap();
    out.check_coherence().unwrap();
    assert!(
        out.counters.fault_transitions > 0,
        "the degradation must be crossed"
    );
    assert!(
        out.counters.staged_repairs > 0,
        "a changed placement must stage behind its wall time"
    );
    assert!(
        out.tenants
            .iter()
            .any(|t| t.repair_time_charged > Seconds::ZERO),
        "the repair search's wall time must be charged to a ledger"
    );
    assert_eq!(
        plain.serve(),
        reg.serve(),
        "the costed-repair fault serve must leave no trace on the registry"
    );
}

#[test]
fn bounded_host_outage_is_served_through_by_resident_tenants() {
    // A host:down window in the middle of the drain: admission-time
    // residents keep serving on peer links (no new tenant can swap in
    // and nothing can restream), and once the host returns the drain
    // finishes normally — no stall, every request served.
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    let mut reg = TenantRegistry::new(&system, H2hConfig::default());
    reg.admit(spec("cnn", h2h_model::zoo::cnn_lstm(), 40.0, 8.0, 24))
        .unwrap();
    reg.admit(spec("mocap", h2h_model::zoo::mocap(), 40.0, 8.0, 24))
        .unwrap();
    // Size the outage window from the no-fault drain so recovery is
    // guaranteed to fall among the serving rounds, whatever the
    // models' latencies are.
    let mid = reg.serve().makespan.as_f64() * 0.25;
    let plan = FaultPlan::parse(&format!("host:down@0.000001-{mid}"), system.num_accs()).unwrap();
    let out = reg.serve_with_faults(&plan).unwrap();
    out.check_coherence().unwrap();
    assert!(
        out.counters.fault_transitions >= 2,
        "onset and recovery must both be crossed"
    );
    for t in &out.tenants {
        assert_eq!(
            t.served, t.requests,
            "{}: every request drains through the outage",
            t.name
        );
    }
}

#[test]
fn budgeted_repair_recovers_most_of_scratch_at_a_fraction_of_the_bill() {
    // The acceptance gate: on the larger zoo models, downing the most
    // loaded board and repairing under the automatic budget recovers
    // >= 80% of the latency improvement a from-scratch remap finds,
    // while attempting at most half the scratch pipeline's step-4
    // search moves (measured: ~1/3 on VLocNet, ~1/5 on CASIA-SURF —
    // and the scratch bill additionally pays steps 1-3, which the
    // move-count comparison doesn't even charge it for).
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    let cfg = H2hConfig::default();
    let preset = PinPreset::new();
    for model in [h2h_model::zoo::vlocnet(), h2h_model::zoo::casia_surf()] {
        let outcome = H2hMapper::new(&model, &system)
            .with_config(cfg)
            .run()
            .unwrap();
        let dead = most_loaded_board(&model, &outcome.mapping, system.num_accs());
        let mut state = FaultState::healthy(system.num_accs());
        state.set_down(AccId::new(dead));
        let degraded = system.degrade(&state);
        let ev = Evaluator::new(&model, &degraded);

        let budget = resolve_repair_budget(&cfg, &model);
        let rep = repair_mapping(&ev, &cfg, &preset, &outcome.mapping, &state, budget).unwrap();
        let scr = scratch_remap(&model, &system, &state, &cfg, &preset).unwrap();

        assert!(
            rep.stats.attempted_moves <= budget,
            "{}: budget overrun",
            model.name()
        );
        let (inc, fixed, fresh) = (
            rep.incumbent_degraded.as_f64(),
            rep.repaired().as_f64(),
            scr.makespan.as_f64(),
        );
        assert!(
            fixed <= inc + 1e-12,
            "{}: repair must never lose to the incumbent",
            model.name()
        );
        if fresh < inc {
            let recovery = (inc - fixed) / (inc - fresh);
            assert!(
                recovery >= 0.8,
                "{}: repair recovered only {:.0}% of scratch ({inc} -> {fixed} vs {fresh})",
                model.name(),
                recovery * 100.0
            );
        }
        let (spent, bill) = (rep.stats.attempted_moves, scr.stats.attempted_moves);
        assert!(
            spent * 2 <= bill,
            "{}: repair spent {spent} moves vs scratch {bill} — over half the search bill",
            model.name()
        );
        assert!(
            scr.pipeline_evals > 0,
            "{}: the pipeline bill must be instrumented",
            model.name()
        );
    }
}
