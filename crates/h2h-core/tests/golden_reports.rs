//! Golden-snapshot tests of the human-readable reports: render
//! `report::search_stats_report` on two fixed zoo models and on one
//! seeded simulated-annealing walk, `report::serve_report` on a fixed
//! two-tenant registry, and the paper's Fig. 2 Gantt charts and mapping
//! reports of a toy model, and diff the output against checked-in
//! expected text. Every quantity rendered is
//! *modeled* (no wall-clock), so the reports are deterministic and a
//! textual diff is a real regression signal — a changed counter, a
//! changed latency, or a reformatted column all fail loudly here
//! instead of silently drifting.
//!
//! To regenerate after an intentional change:
//! `UPDATE_GOLDEN=1 cargo test -p h2h-core --test golden_reports`.

use std::path::PathBuf;

use h2h_core::anneal::{simulated_annealing, AnnealConfig};
use h2h_core::baseline::computation_prioritized_baseline;
use h2h_core::report::{mapping_report, search_stats_report, serve_report};
use h2h_core::serve::{TenantRegistry, TenantSpec};
use h2h_core::{H2hConfig, H2hMapper, PinPreset};
use h2h_model::builder::ModelBuilder;
use h2h_model::tensor::TensorShape;
use h2h_model::units::Seconds;
use h2h_system::fault::FaultPlan;
use h2h_system::gantt::render_gantt;
use h2h_system::locality::LocalityState;
use h2h_system::mapping::Mapping;
use h2h_system::schedule::{Evaluator, Schedule};
use h2h_system::system::{AccId, BandwidthClass, SystemSpec};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "report drifted from tests/golden/{name}.txt — if intentional, regenerate with \
         UPDATE_GOLDEN=1\n--- expected ---\n{expected}\n--- actual ---\n{actual}"
    );
}

#[test]
fn search_stats_report_snapshot_mocap() {
    // A chain model: zero risky guards, so each staged candidate's
    // replay is one flush and one propagation.
    let model = h2h_model::zoo::mocap();
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    let out = H2hMapper::new(&model, &system).run().unwrap();
    check_golden(
        "search_stats_mocap_lowminus",
        &search_stats_report(&out.remap_stats),
    );
}

#[test]
fn search_stats_report_snapshot_casia_surf() {
    // A ResNet-like model: risky guards reached, most proven by the
    // delay walk — the full counter surface.
    let model = h2h_model::zoo::casia_surf();
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    let out = H2hMapper::new(&model, &system).run().unwrap();
    check_golden(
        "search_stats_casia_surf_lowminus",
        &search_stats_report(&out.remap_stats),
    );
}

#[test]
fn simulated_annealing_snapshot_cnn_lstm() {
    // The annealer's walk: three RNG draws and one cooling step per
    // iteration, skipped or not, with every proposal scored on the
    // delta engine's fusion replay, risky guards included. Any change
    // to the draw order, the acceptance rule or a candidate's score
    // moves the placement, makespan or counters.
    let model = h2h_model::zoo::cnn_lstm();
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    let ev = Evaluator::new(&model, &system);
    let anneal = AnnealConfig {
        iterations: 300,
        seed: 1,
        ..AnnealConfig::default()
    };
    let sa = simulated_annealing(&ev, &H2hConfig::default(), &anneal, &PinPreset::new()).unwrap();
    let placement: Vec<String> = model
        .topo_order()
        .iter()
        .map(|id| sa.mapping.acc_of(*id).index().to_string())
        .collect();
    let makespan = sa.schedule.makespan();
    let report = format!(
        "simulated annealing — {} @ Low-, seed {}, {} iterations\n  \
         makespan {makespan} (bits {:#018x})\n  placement {}\n{}",
        model.name(),
        anneal.seed,
        anneal.iterations,
        makespan.as_f64().to_bits(),
        placement.join(" "),
        search_stats_report(&sa.stats)
    );
    check_golden("anneal_cnn_lstm_lowminus", &report);
}

#[test]
fn fig2_motivation_snapshot() {
    // The paper's Fig. 2 on a toy model: two parallel branches of
    // 1x1 / 3x3 / 1x1 bottlenecks, whose layers prefer different
    // dataflows. Computation-prioritized mapping scatters adjacent
    // layers across boards and pays host round-trips for every edge;
    // H2H trades a little per-layer compute efficiency for far less
    // data movement.
    let mut b = ModelBuilder::new("fig2-toy");
    let shape = TensorShape::Feature {
        c: 256,
        h: 28,
        w: 28,
    };
    for branch in 1..=2 {
        b.modality(Some(&format!("net{branch}")));
        let mut x = b.input(&format!("{branch}.in"), shape);
        for i in 1..=2 {
            let r = b
                .conv(&format!("{branch}.{i}.reduce"), x, 128, 1, 1)
                .unwrap();
            let s = b
                .conv(&format!("{branch}.{i}.spatial"), r, 128, 3, 1)
                .unwrap();
            let e = b
                .conv(&format!("{branch}.{i}.expand"), s, 256, 1, 1)
                .unwrap();
            x = b.add(&format!("{branch}.{i}.add"), &[e, x]).unwrap();
        }
        b.global_pool(&format!("{branch}.gap"), x).unwrap();
    }
    let model = b.finish().unwrap();
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    let ev = Evaluator::new(&model, &system);
    let base = computation_prioritized_baseline(&ev, &H2hConfig::default()).unwrap();
    let h2h = H2hMapper::new(&model, &system).run().unwrap();
    assert!(
        h2h.final_latency() < base.schedule.makespan(),
        "H2H must beat the computation-prioritized mapping on Fig. 2's toy model"
    );
    let section = |title: &str, map: &Mapping, loc: &LocalityState, sched: &Schedule| {
        format!(
            "== {title} ==\n{}\n{}",
            render_gantt(&model, &system, map, sched, 86),
            mapping_report(&ev, map, loc, sched)
        )
    };
    let report = format!(
        "{}\n{}",
        section(
            "computation-prioritized mapping (existing approaches [10])",
            &base.mapping,
            &base.locality,
            &base.schedule
        ),
        section(
            "H2H: computation AND communication aware",
            &h2h.mapping,
            &h2h.locality,
            &h2h.schedule
        )
    );
    check_golden("fig2_motivation_lowminus", &report);
}

#[test]
fn serve_report_snapshot_two_tenants() {
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    let cfg = H2hConfig {
        serve_verify: true,
        ..H2hConfig::default()
    };
    let mut reg = TenantRegistry::new(&system, cfg);
    reg.admit(TenantSpec::new(
        "mocap",
        h2h_model::zoo::mocap(),
        30.0,
        Seconds::new(8.0),
        16,
    ))
    .unwrap();
    reg.admit(TenantSpec::new(
        "cnn-lstm",
        h2h_model::zoo::cnn_lstm(),
        30.0,
        Seconds::new(8.0),
        16,
    ))
    .unwrap();
    let out = reg.serve();
    out.check_coherence().unwrap();
    check_golden("serve_report_two_tenants_lowminus", &serve_report(&out));
}

#[test]
fn serve_report_snapshot_fault_window() {
    // Same two-tenant registry as above, but a board goes down just
    // after the drain starts (an onset inside the first round is
    // crossed at the second round's top) and never recovers: the
    // report grows the fault section — transitions, repairs, and the
    // per-tenant degraded-mode SLO ledger.
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    let cfg = H2hConfig {
        serve_verify: true,
        ..H2hConfig::default()
    };
    let mut reg = TenantRegistry::new(&system, cfg);
    reg.admit(TenantSpec::new(
        "mocap",
        h2h_model::zoo::mocap(),
        30.0,
        Seconds::new(8.0),
        16,
    ))
    .unwrap();
    reg.admit(TenantSpec::new(
        "cnn-lstm",
        h2h_model::zoo::cnn_lstm(),
        30.0,
        Seconds::new(8.0),
        16,
    ))
    .unwrap();
    // Down the board carrying the most layers of the first tenant's
    // mapping — chosen from the mapping itself so the snapshot stays
    // meaningful if admission placement ever changes.
    let dead = {
        let t = reg.tenants().next().unwrap();
        let mut load = vec![0usize; system.num_accs()];
        for id in t.spec().model.layer_ids() {
            load[t.mapping().acc_of(id).index()] += 1;
        }
        load.iter().enumerate().max_by_key(|(_, l)| **l).unwrap().0
    };
    let plan = FaultPlan::board_down(AccId::new(dead), Seconds::new(1e-6));
    let out = reg.serve_with_faults(&plan).unwrap();
    out.check_coherence().unwrap();
    assert!(
        out.counters.fault_transitions > 0,
        "the outage must be crossed"
    );
    check_golden("serve_report_fault_window_lowminus", &serve_report(&out));
}

#[test]
fn serve_report_snapshot_repair_charged_window() {
    // Host-NIC degradation plus a compute slowdown, with a nonzero
    // per-move repair cost: each transition's searched repair is
    // staged behind its modeled wall time and the fault section grows
    // the repair-time / parks columns — the PR's repair-charged
    // serving scenario, snapshotted.
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    let cfg = H2hConfig {
        serve_verify: true,
        repair_secs_per_move: 25e-6,
        ..H2hConfig::default()
    };
    let mut reg = TenantRegistry::new(&system, cfg);
    reg.admit(TenantSpec::new(
        "mocap",
        h2h_model::zoo::mocap(),
        30.0,
        Seconds::new(8.0),
        16,
    ))
    .unwrap();
    reg.admit(TenantSpec::new(
        "cnn-lstm",
        h2h_model::zoo::cnn_lstm(),
        30.0,
        Seconds::new(8.0),
        16,
    ))
    .unwrap();
    // Throttle the board carrying the most layers of the first
    // tenant's mapping 8x, and halve the host NIC, for the whole
    // drain — the repair search has something real to move away from.
    let slowed = {
        let t = reg.tenants().next().unwrap();
        let mut load = vec![0usize; system.num_accs()];
        for id in t.spec().model.layer_ids() {
            load[t.mapping().acc_of(id).index()] += 1;
        }
        load.iter().enumerate().max_by_key(|(_, l)| **l).unwrap().0
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
        out.tenants
            .iter()
            .any(|t| t.repair_time_charged > Seconds::ZERO),
        "a budgeted repair under a nonzero per-move cost must charge wall time"
    );
    check_golden("serve_report_repair_charged_lowminus", &serve_report(&out));
}
