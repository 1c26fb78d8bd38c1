//! Tunables of the H2H mapping pipeline.
//!
//! # Topology knobs
//!
//! The interconnect fabric is *system* state, not pipeline
//! configuration: build a [`h2h_system::topology::Topology`] (uniform
//! star, per-link skewed star, or switched fabric with direct peer
//! links — CLI spec strings parse via
//! [`h2h_system::topology::Topology::parse`]) and attach it with
//! [`h2h_system::system::SystemSpec::with_topology`]. Every stage this
//! module configures — step-1 wave mapping, the weight knapsack's
//! value densities, fusion guards, delta scoring, serving reloads —
//! then charges transfers at the fabric's per-route effective
//! bandwidths automatically; no `H2hConfig` field selects a topology,
//! so one config struct serves every fabric and the uniform default
//! stays bit-identical to the paper's scalar `BW_acc` model.

use serde::{Deserialize, Serialize};

/// Which knapsack solver the weight-locality step uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KnapsackKind {
    /// Scaled dynamic programming (exact up to the scaling granularity).
    Dp,
    /// Density-greedy (value/weight order).
    Greedy,
    /// DP when the instance is small enough, greedy otherwise (default).
    Auto,
}

/// The quantity the remapping loop (step 4) minimizes.
///
/// The paper optimizes end-to-end latency and reports energy as a
/// by-product (Fig. 4); the other objectives are extensions for
/// deployments that pay for joules (the paper's §6 flexibility claim).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MapObjective {
    /// Minimize `Sys_latency` (the paper's objective; default).
    Latency,
    /// Minimize total modeled energy.
    Energy,
    /// Minimize the energy-delay product.
    EnergyDelayProduct,
    /// Maximize steady-state pipelined-serving throughput (minimize the
    /// bottleneck accelerator's busy time). Ties on the bottleneck are
    /// broken by latency so moves that only shuffle idle devices do not
    /// thrash.
    Throughput,
}

impl MapObjective {
    /// Scalar score of a schedule under this objective (lower is
    /// better).
    pub fn score(&self, schedule: &h2h_system::schedule::Schedule) -> f64 {
        self.score_parts(
            schedule.makespan().as_f64(),
            schedule.energy().total().as_f64(),
            schedule.bottleneck_busy().as_f64(),
        )
    }

    /// Scalar score from raw schedule quantities; lets the incremental
    /// delta engine score candidates from its per-layer state without
    /// materializing a full `Schedule`.
    pub fn score_parts(&self, makespan: f64, energy_total: f64, bottleneck_busy: f64) -> f64 {
        match self {
            MapObjective::Latency => makespan,
            MapObjective::Energy => energy_total,
            MapObjective::EnergyDelayProduct => makespan * energy_total,
            MapObjective::Throughput => bottleneck_busy + 1e-6 * makespan,
        }
    }

    /// Score of an incremental [`h2h_system::incremental::ScheduleProxy`].
    pub fn score_proxy(&self, proxy: &h2h_system::incremental::ScheduleProxy) -> f64 {
        self.score_parts(
            proxy.makespan.as_f64(),
            proxy.energy_total,
            proxy.bottleneck_busy.as_f64(),
        )
    }
}

/// How a serving round picks and orders its co-resident tenant set
/// (see [`crate::serve`]). All policies respect the same per-board
/// DRAM budget; they differ in *whom* they favor when tenants cannot
/// all co-reside, and in what order selected slices execute.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoundPolicy {
    /// Urgency knapsack (default, the PR 4 batch former): value =
    /// backlog + requests already doomed to violate, packed by a
    /// knapsack over per-tenant footprints with a per-board repair;
    /// slices execute in admission order. Bit-identical to the
    /// pre-policy serve loop.
    #[default]
    Knapsack,
    /// Earliest deadline first: tenants ranked by their
    /// head-of-queue deadline (`arrival + slo`), greedily packed under
    /// the budget in rank order; slices execute in deadline order.
    Edf,
    /// Weighted fair queueing: tenants ranked by virtual finish time
    /// (`(served + 1) / rate_hz` — each tenant's share proportional to
    /// its contract rate), greedily packed and served in rank order.
    WeightedFair,
}

impl RoundPolicy {
    /// Stable lowercase label (bench/report/CLI).
    pub fn label(&self) -> &'static str {
        match self {
            RoundPolicy::Knapsack => "knapsack",
            RoundPolicy::Edf => "edf",
            RoundPolicy::WeightedFair => "wfair",
        }
    }

    /// Parses a CLI label (`knapsack | edf | wfair`).
    ///
    /// # Errors
    ///
    /// Names the unknown label and the accepted grammar.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "knapsack" => Ok(RoundPolicy::Knapsack),
            "edf" => Ok(RoundPolicy::Edf),
            "wfair" => Ok(RoundPolicy::WeightedFair),
            other => Err(format!(
                "unknown round policy `{other}` (expected knapsack | edf | wfair)"
            )),
        }
    }
}

/// Minimum improvement of the step-4 objective score for a remapping
/// move to be accepted, guarding against floating-point churn. The
/// delta engine's accept rule and latency screen and the
/// full-re-evaluation reference all compare `score + ACCEPT_EPSILON <
/// best`.
pub const ACCEPT_EPSILON: f64 = 1e-9;

/// Configuration of the four-step H2H mapper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct H2hConfig {
    /// Maximum number of frontier-group assignments enumerated
    /// exhaustively in step 1; larger groups fall back to per-node
    /// greedy with the same Δ-latency objective (paper Algorithm 1
    /// enumerates "all possible mappings", which is `|accs|^|group|`
    /// and intractable verbatim for wide fusion waves).
    pub enumeration_cap: usize,
    /// Knapsack solver for weight locality (step 2).
    pub knapsack: KnapsackKind,
    /// Maximum full passes of the greedy remapping loop (step 4); the
    /// loop also stops at the paper's fixpoint criterion (no accepted
    /// move in a pass).
    pub remap_max_passes: usize,
    /// What step 4 minimizes (the paper: latency).
    pub objective: MapObjective,
    /// Collect a per-phase wall-clock breakdown (candidate scoring vs
    /// schedule propagation vs guard resolution vs commit) on the delta
    /// engine ([`crate::delta::PhaseProfile`]). Off by default: the
    /// timers sit on the scoring hot path, and the profile is
    /// wall-clock — never part of [`crate::delta::SearchStats`] or any
    /// equivalence contract. `bench_search --profile` turns it on.
    pub profile_phases: bool,
    /// Largest number of queued requests one tenant may serve in a
    /// single slice of a multi-tenant serving round (see
    /// [`crate::serve`]). Weights are fetched once per slice
    /// ([`h2h_system::schedule::Evaluator::with_batch`] semantics), so a
    /// larger cap amortizes weight traffic further but holds the system
    /// longer per slice, raising the queueing delay of the *other*
    /// tenants — 8 balances the two on the zoo workloads. Must be ≥ 1.
    pub serve_max_batch: u32,
    /// Fraction of each accelerator's DRAM capacity that the serving
    /// layer may commit to resident tenant state (pinned weights +
    /// fusion buffers), in `(0, 1]` — values outside that range are
    /// rejected when the tenant registry is constructed. Admission
    /// trims a tenant's pin set
    /// (knapsack on saved transfer time) to fit this budget
    /// individually; the online batch former additionally keeps every
    /// *round's co-resident* footprint under it. `1.0` (default) hands
    /// serving the full board — single-tenant serving is then
    /// bit-identical to the offline pipeline because nothing is ever
    /// trimmed.
    pub serve_dram_budget_frac: f64,
    /// Evaluator-call budget for the fault-repair search
    /// ([`crate::repair::repair_mapping`]), in *attempted delta moves*
    /// — a deterministic unit, so repairs reproduce bit-identically
    /// across machines. `0` (default) picks an automatic budget of
    /// `max(16, 3 * num_layers / 2)` moves, a small fraction of a
    /// from-scratch remap's search bill while recovering most of its
    /// latency (asserted by the fault acceptance suite).
    pub repair_eval_budget: usize,
    /// Cross-check every freshly evaluated serving slice against a full
    /// [`h2h_system::schedule::Evaluator::evaluate`] of the same state
    /// (the incremental rebatch path must match it bitwise) and count
    /// mismatches in the serve counters. Off by default — it doubles
    /// slice-evaluation cost; benches and CI smoke turn it on.
    pub serve_verify: bool,
    /// Modeled wall-clock cost of one attempted repair move, in
    /// seconds — the repair wall-time model's single knob. A serve-time
    /// repair ([`crate::repair::repair_mapping`]) reports
    /// `attempted_moves × this` as its wall time
    /// ([`crate::repair::RepairOutcome::wall_time`]), and
    /// `serve_with_faults` charges that window against the serving
    /// clock: tenants keep serving on the evacuated-but-unrepaired
    /// mapping until the repair *lands*, and the window is recorded in
    /// each tenant's `repair_time_charged` ledger. `0.0` (default)
    /// is the historical instantaneous-repair model — repairs land at
    /// the fault boundary and nothing is charged, keeping PR 6 fault
    /// plans bit-identical. A realistic setting is a few tens of
    /// microseconds per move: the repository benchmark's
    /// `step4_us_per_move` (`perfbench --workload paper-grid --trace 1`)
    /// and `repair_us_per_move` (`--workload serve-faults --trace 1`)
    /// put one attempted move at roughly 25–31 µs on one core of a
    /// 2-core Xeon VM (most moves end at the step-4 latency screen), so
    /// `25e-6` to `35e-6` models repair running on one host core
    /// concurrently with serving.
    pub repair_secs_per_move: f64,
    /// How serving rounds select and order their tenant set (see
    /// [`RoundPolicy`]). The default urgency knapsack is bit-identical
    /// to the pre-policy serve loop; EDF and weighted-fair are the
    /// open-loop alternatives `bench_serve --policy` sweeps.
    pub serve_policy: RoundPolicy,
    /// Bound on each tenant's request queue during open-loop serving.
    /// `0` (default) is the historical unbounded queue — every request
    /// is eventually served and an unrecovered outage stalls the drain
    /// ([`crate::serve::ServeError::Stalled`]). A positive cap `c`
    /// turns on overload shedding: whenever a tenant's backlog exceeds
    /// `c` at a round boundary, the *oldest* queued requests (those
    /// closest to — or past — their deadlines, i.e. the lowest-value
    /// work under a latency SLO) are shed until the backlog fits, and
    /// an unrecovered outage sheds the blocked tenants' remaining
    /// windows instead of stalling. Shed requests are ledgered
    /// per-tenant ([`crate::serve::TenantServeStats::shed`]), never
    /// silently dropped.
    pub serve_queue_cap: usize,
}

impl Default for H2hConfig {
    fn default() -> Self {
        H2hConfig {
            enumeration_cap: 4096,
            knapsack: KnapsackKind::Auto,
            remap_max_passes: 8,
            objective: MapObjective::Latency,
            profile_phases: false,
            serve_max_batch: 8,
            serve_dram_budget_frac: 1.0,
            repair_eval_budget: 0,
            serve_verify: false,
            repair_secs_per_move: 0.0,
            serve_policy: RoundPolicy::Knapsack,
            serve_queue_cap: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_the_paper_pipeline() {
        let c = H2hConfig::default();
        assert!(c.enumeration_cap >= 1);
        assert!(c.remap_max_passes >= 1);
        assert_eq!(c.knapsack, KnapsackKind::Auto);
        assert_eq!(c.objective, MapObjective::Latency);
        assert!(c.serve_max_batch >= 1);
        assert!(c.serve_dram_budget_frac > 0.0 && c.serve_dram_budget_frac <= 1.0);
        assert!(!c.serve_verify, "slice cross-checking is a bench/CI knob");
        assert_eq!(
            c.repair_secs_per_move, 0.0,
            "instantaneous repair is the default (PR 6 bit-identity)"
        );
        assert_eq!(
            c.serve_policy,
            RoundPolicy::Knapsack,
            "the urgency knapsack is the bit-identity default"
        );
        assert_eq!(c.serve_queue_cap, 0, "unbounded queues are the default");
        assert!(!c.profile_phases, "phase timers are a bench/CI knob");
    }

    #[test]
    fn round_policy_labels_round_trip() {
        for p in [
            RoundPolicy::Knapsack,
            RoundPolicy::Edf,
            RoundPolicy::WeightedFair,
        ] {
            assert_eq!(RoundPolicy::parse(p.label()).unwrap(), p);
        }
        assert!(RoundPolicy::parse("fifo").is_err());
    }

    #[test]
    fn objective_scores_order_schedules() {
        // Scores must be consumable as "lower is better" for all
        // variants; checked on a real schedule pair in remap tests —
        // here just the arithmetic identity for EDP.
        use h2h_system::locality::LocalityState;
        use h2h_system::mapping::Mapping;
        use h2h_system::schedule::Evaluator;
        use h2h_system::system::{BandwidthClass, SystemSpec};
        let model = h2h_model::zoo::mocap();
        let system = SystemSpec::standard(BandwidthClass::Mid);
        let ev = Evaluator::new(&model, &system);
        let mut mapping = Mapping::new(&model);
        for (id, layer) in model.layers() {
            let acc = system
                .acc_ids()
                .find(|a| system.acc(*a).supports(layer))
                .unwrap();
            mapping.set(id, acc);
        }
        let s = ev.evaluate(&mapping, &LocalityState::new(&system));
        let lat = MapObjective::Latency.score(&s);
        let en = MapObjective::Energy.score(&s);
        let edp = MapObjective::EnergyDelayProduct.score(&s);
        assert!((edp - lat * en).abs() < 1e-9 * edp.max(1.0));
    }
}
