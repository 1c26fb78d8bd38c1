//! Property suite of the multi-tenant serving subsystem: over random
//! tenant mixes, rates, SLOs, batch caps and DRAM budget fractions,
//! batch formation never exceeds the shared budget and the SLO
//! accounting stays coherent (all requests served, violations within
//! the population, attained latency at or above the zero-queueing
//! ideal, zero incremental-vs-full slice mismatches).

#![recursion_limit = "1024"]

use proptest::prelude::*;

use h2h_core::serve::{ServeError, TenantRegistry, TenantSpec};
use h2h_core::H2hConfig;
use h2h_model::units::Seconds;
use h2h_system::fault::FaultPlan;
use h2h_system::system::{BandwidthClass, SystemSpec};

/// The fast zoo entries (the suite runs whole pipelines per case).
fn model_pool() -> Vec<h2h_model::ModelGraph> {
    vec![h2h_model::zoo::mocap(), h2h_model::zoo::cnn_lstm()]
}

/// Zero-headroom eviction: a DRAM budget fraction chosen so one
/// tenant's pinned footprint *exactly* fills the binding board leaves
/// no headroom for a second identical tenant to co-reside. The batch
/// former must then serve by swapping — evicting and re-streaming
/// pinned weights — while never exceeding the (tight) budget and
/// never trimming either tenant's pins (each fits alone).
#[test]
fn zero_headroom_budget_serves_by_eviction_not_trimming() {
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    let model = h2h_model::zoo::mocap();
    let mk_spec = |name: &str| TenantSpec::new(name, model.clone(), 200.0, Seconds::new(5.0), 6);

    // Probe at the full budget to learn the admitted footprint, then
    // compute the fraction that makes the most-subscribed board exact:
    // frac = (resident + 0.5) / capacity floors back to `resident`
    // when multiplied out, so the budget equals the footprint bitwise.
    let probe_cfg = H2hConfig {
        serve_verify: true,
        ..H2hConfig::default()
    };
    let mut probe = TenantRegistry::new(&system, probe_cfg);
    probe.admit(mk_spec("probe")).unwrap();
    let (binding, res, cap, frac) = {
        let t = probe.tenants().next().unwrap();
        system
            .acc_ids()
            .map(|acc| {
                let res = t.resident_bytes(acc).as_u64();
                let cap = probe.budget_bytes(acc).as_u64();
                (acc, res, cap, (res as f64 + 0.5) / cap as f64)
            })
            .max_by(|a, b| a.3.partial_cmp(&b.3).unwrap())
            .unwrap()
    };
    assert!(res > 0, "mocap must pin something for the test to bite");
    assert_eq!(
        (cap as f64 * frac) as u64,
        res,
        "the zero-headroom fraction must reproduce the footprint exactly"
    );

    let cfg = H2hConfig {
        serve_dram_budget_frac: frac,
        serve_verify: true,
        ..H2hConfig::default()
    };
    let mut reg = TenantRegistry::new(&system, cfg);
    reg.admit(mk_spec("a")).unwrap();
    reg.admit(mk_spec("b")).unwrap();
    for t in reg.tenants() {
        assert_eq!(
            t.trimmed_pins(),
            0,
            "{}: each tenant fits alone, nothing may trim",
            t.spec().name
        );
        assert_eq!(
            t.resident_bytes(binding).as_u64(),
            res,
            "{}: same model, same footprint",
            t.spec().name
        );
    }

    let out = reg.serve();
    out.check_coherence().unwrap();
    assert!(
        out.counters.rounds >= 2,
        "two tenants cannot drain in one round"
    );
    assert!(
        out.counters.weight_reloads > 0,
        "zero headroom forces at least one eviction/re-stream cycle"
    );
    assert_eq!(out.counters.crosscheck_mismatches, 0);
    let b = binding.index();
    assert_eq!(
        out.peak_resident[b], out.budgets[b],
        "the binding board must run exactly full, not over"
    );
    for (peak, budget) in out.peak_resident.iter().zip(&out.budgets) {
        assert!(
            peak <= budget,
            "round footprint exceeds the zero-headroom budget"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    #[test]
    fn serving_respects_budget_and_slo_coherence(
        picks in proptest::collection::vec(
            (0usize..2, 1.0f64..400.0, 0.2f64..20.0, 4usize..=20),
            2,
        ),
        max_batch in 1u32..=12,
        budget_frac in 0.02f64..1.0,
        bw_pick in 0usize..2,
    ) {
        let bw = [BandwidthClass::LowMinus, BandwidthClass::Mid][bw_pick];
        let system = SystemSpec::standard(bw);
        let cfg = H2hConfig {
            serve_max_batch: max_batch,
            serve_dram_budget_frac: budget_frac,
            serve_verify: true,
            ..H2hConfig::default()
        };
        let pool = model_pool();
        let mut reg = TenantRegistry::new(&system, cfg);
        let mut admitted = 0usize;
        for (i, (model_pick, rate, slo, requests)) in picks.iter().enumerate() {
            let model = pool[*model_pick].clone();
            let spec = TenantSpec::new(
                format!("t{i}-{}", model.name()),
                model,
                *rate,
                Seconds::new(*slo),
                *requests,
            );
            match reg.admit(spec) {
                Ok(_) => admitted += 1,
                // A tiny budget fraction may be unservable for this
                // model (fusion buffers alone exceed it) — that is a
                // legal refusal, not a failure.
                Err(ServeError::DramBudget { .. }) => {}
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        }
        // `admitted == 0` (every tenant refused under a tiny budget)
        // legally leaves nothing to serve; the body below is guarded
        // rather than early-returned so it also compiles under the
        // real proptest crate, whose macro wraps the case in a closure.
        if admitted > 0 {
            // Admission alone must already respect the per-board budget.
            for t in reg.tenants() {
                for acc in system.acc_ids() {
                    prop_assert!(
                        t.resident_bytes(acc) <= reg.budget_bytes(acc),
                        "{}: admitted tenant oversubscribes {}",
                        t.spec().name,
                        system.acc(acc).meta().id
                    );
                }
            }

            let out = reg.serve();
            if let Err(e) = out.check_coherence() {
                panic!("incoherent serve outcome: {e}");
            }

            // Re-assert the key invariants directly (check_coherence is
            // itself under test here).
            let mut total = 0usize;
            for t in &out.tenants {
                prop_assert_eq!(t.served, t.requests);
                prop_assert!(t.violations <= t.served);
                prop_assert!(t.attained_mean() >= t.ideal * (1.0 - 1e-12));
                prop_assert!(t.attained_max >= t.attained_mean());
                prop_assert!(t.max_batch <= max_batch);
                total += t.served;
            }
            prop_assert_eq!(total, out.total_served());
            for (i, peak) in out.peak_resident.iter().enumerate() {
                prop_assert!(
                    *peak <= out.budgets[i],
                    "round footprint {} exceeds budget {} on {}",
                    peak,
                    out.budgets[i],
                    out.acc_names[i]
                );
            }
            prop_assert_eq!(out.counters.crosscheck_mismatches, 0);
            // The naive reference shares every coherence invariant. (Drain
            // *dominance* is deliberately not asserted here: with open-loop
            // arrivals a long batched slice can delay another tenant's tail
            // request past what per-request slices would — the strict-win
            // claim belongs to the backlog-heavy bench workloads, where
            // serve_equiv.rs and bench_serve gate it.)
            let naive = reg.serve_naive();
            if let Err(e) = naive.check_coherence() {
                panic!("incoherent naive outcome: {e}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    // Every arrival process materializes to a monotone non-decreasing,
    // finite, non-negative schedule, and a trace built from any such
    // schedule replays it bitwise.
    #[test]
    fn arrival_schedules_are_monotone_and_traces_replay_bitwise(
        seed in any::<u64>(),
        rate in 0.5f64..500.0,
        requests in 1usize..200,
    ) {
        use h2h_core::{ArrivalProcess, Arrivals};
        use h2h_system::trace::ArrivalTrace;
        let sched = ArrivalProcess::Poisson { seed }.materialize(rate, requests).unwrap();
        let mut prev = 0.0f64;
        for j in 0..requests {
            let t = sched.arrival(j);
            prop_assert!(t.is_finite() && t >= 0.0, "arrival {j} = {t}");
            prop_assert!(t >= prev, "arrival {j} = {t} < predecessor {prev}");
            prev = t;
        }
        let times: Vec<f64> = (0..requests).map(|j| sched.arrival(j)).collect();
        let trace = ArrivalTrace::new(times.clone())
            .unwrap_or_else(|e| panic!("monotone samples must trace: {e}"));
        let replay = ArrivalProcess::Trace(trace).materialize(rate, requests).unwrap();
        for (j, t) in times.iter().enumerate() {
            prop_assert_eq!(replay.arrival(j).to_bits(), t.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    // Random round policies, queue caps and arrival processes: the
    // drain stays coherent (check_coherence now also audits the
    // percentile ledgers), the window conserves (served + shed ==
    // requests), unbounded queues never shed, and the latency ledger's
    // quantiles are monotone and bounded by the observed max.
    #[test]
    fn random_policies_caps_and_processes_serve_coherently(
        policy_pick in 0usize..3,
        queue_cap in 0usize..6,
        seed in any::<u64>(),
        poisson in any::<bool>(),
        rate in 20.0f64..300.0,
        requests in 2usize..24,
    ) {
        use h2h_core::{ArrivalProcess, RoundPolicy};
        let policy = [RoundPolicy::Knapsack, RoundPolicy::Edf, RoundPolicy::WeightedFair]
            [policy_pick];
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let cfg = H2hConfig {
            serve_verify: true,
            serve_policy: policy,
            serve_queue_cap: queue_cap,
            ..H2hConfig::default()
        };
        let mut reg = TenantRegistry::new(&system, cfg);
        for model in model_pool() {
            let name = model.name().to_owned();
            let id = reg
                .admit(TenantSpec::new(name, model, rate, Seconds::new(4.0), requests))
                .unwrap();
            if poisson {
                reg.set_arrivals(id, ArrivalProcess::Poisson { seed }).unwrap();
            }
        }
        let out = reg.serve();
        if let Err(e) = out.check_coherence() {
            panic!("incoherent outcome under {policy:?}/cap {queue_cap}: {e}");
        }
        prop_assert_eq!(out.policy, policy);
        for t in &out.tenants {
            prop_assert_eq!(t.served + t.shed, t.requests, "{}: window must conserve", t.name);
            if queue_cap == 0 {
                prop_assert_eq!(t.shed, 0usize, "{}: unbounded queues never shed", t.name);
            }
            if t.served > 0 {
                let (p50, p95, p99) =
                    (t.latencies.p50(), t.latencies.p95(), t.latencies.p99());
                prop_assert!(p50 <= p95 && p95 <= p99 && p99 <= t.latencies.max());
                prop_assert_eq!(t.latencies.max(), t.attained_max);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    // Random fault plans mixing all four kinds — board outages, link
    // and compute degradations, and one host event (degrade or full
    // outage) — over random windows and repair costs: the faulted
    // serve either drains coherently or reports a structured stall
    // (an unrecovered outage can legitimately block everything), and
    // either way leaves no trace on the registry.
    #[test]
    fn faulted_serving_is_coherent_or_stalls_structurally(
        events in proptest::collection::vec(
            (0usize..4, 0usize..16, 1.5f64..6.0, 1e-4f64..0.05, 0.01f64..0.3, any::<bool>()),
            1..5,
        ),
        repair_cost_pick in 0usize..3,
        host_down in any::<bool>(),
    ) {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let n_accs = system.num_accs();
        let cfg = H2hConfig {
            serve_verify: true,
            repair_secs_per_move: [0.0, 25e-6, 5e-3][repair_cost_pick],
            ..H2hConfig::default()
        };
        let mut reg = TenantRegistry::new(&system, cfg);
        let mut control = TenantRegistry::new(&system, cfg);
        for r in [&mut reg, &mut control] {
            r.admit(TenantSpec::new("cnn", h2h_model::zoo::cnn_lstm(), 40.0, Seconds::new(8.0), 8))
                .unwrap();
            r.admit(TenantSpec::new("mocap", h2h_model::zoo::mocap(), 40.0, Seconds::new(8.0), 8))
                .unwrap();
        }

        // Render the random events into the grammar. Host windows must
        // not overlap, so only the first host event is kept; factors on
        // one board may stack freely.
        let mut parts = Vec::new();
        let mut host_used = false;
        for (kind, board, factor, onset, dur, bounded) in &events {
            let b = board % n_accs;
            let window = if *bounded {
                format!("{onset}-{}", onset + dur)
            } else {
                format!("{onset}")
            };
            match kind {
                0 => parts.push(format!("board:{b}@{window}")),
                1 => parts.push(format!("link:{b}/{factor}@{window}")),
                2 => parts.push(format!("slow:{b}/{factor}@{window}")),
                _ if host_used => {}
                _ => {
                    host_used = true;
                    if host_down {
                        parts.push(format!("host:down@{window}"));
                    } else {
                        parts.push(format!("host:{factor}@{window}"));
                    }
                }
            }
        }
        // At least one event always renders: the first host-kind event
        // is kept and every other kind is unconditional.
        prop_assert!(!parts.is_empty());
        let plan = FaultPlan::parse(&parts.join(";"), n_accs)
            .unwrap_or_else(|e| panic!("generated plan must parse: {e}"));

        match reg.serve_with_faults(&plan) {
            Ok(out) => {
                if let Err(e) = out.check_coherence() {
                    panic!("incoherent faulted outcome: {e}");
                }
                prop_assert!(out.counters.fault_transitions > 0, "a nonempty plan must be crossed");
                for t in &out.tenants {
                    prop_assert_eq!(t.served, t.requests);
                }
            }
            // An unrecovered outage that blocks every remaining tenant
            // is a legal, structured end state — not a panic.
            Err(ServeError::Stalled { unserved, .. }) => prop_assert!(unserved > 0),
            Err(e) => panic!("unexpected fault-serve error: {e}"),
        }

        // Whatever happened in the degraded window, the registry must
        // come back bit-identical.
        prop_assert_eq!(control.serve(), reg.serve(), "faulted serve left a trace");
    }
}
