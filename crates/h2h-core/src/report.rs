//! Mapping inspection reports: per-accelerator utilization and the
//! cross-accelerator transfer matrix — the quantities a deployment
//! engineer checks before trusting a mapping.

use std::collections::BTreeMap;
use std::fmt;

use h2h_model::layer::LayerOp;
use h2h_model::tensor::DataType;
use h2h_model::units::{Bytes, Seconds};
use h2h_system::locality::LocalityState;
use h2h_system::mapping::Mapping;
use h2h_system::schedule::{Evaluator, Schedule};

use crate::delta::SearchStats;

/// Per-accelerator summary row.
#[derive(Debug, Clone, PartialEq)]
pub struct AccRow {
    /// Catalog id (e.g. `"XW"`).
    pub acc: String,
    /// Layers mapped here.
    pub layers: usize,
    /// Weight bytes resident (pinned) here.
    pub pinned: Bytes,
    /// Total weight bytes of layers mapped here.
    pub weights: Bytes,
    /// Busy time.
    pub busy: Seconds,
}

/// A full mapping report.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingReport {
    /// One row per *used* accelerator, in id order.
    pub rows: Vec<AccRow>,
    /// Ethernet bytes exchanged between accelerator pairs
    /// (`(producer, consumer) → bytes`), host-mediated.
    pub transfers: BTreeMap<(String, String), Bytes>,
    /// Bytes arriving from the host (model inputs + unfused weights).
    pub host_ingress: Bytes,
    /// End-to-end latency.
    pub makespan: Seconds,
}

/// Builds the report for a mapped, scheduled model.
pub fn mapping_report(
    ev: &Evaluator<'_>,
    mapping: &Mapping,
    locality: &LocalityState,
    schedule: &Schedule,
) -> MappingReport {
    let model = ev.model();
    let system = ev.system();

    let mut rows = Vec::new();
    for acc in system.acc_ids() {
        let ids: Vec<_> = model
            .layer_ids()
            .filter(|id| mapping.get(*id) == Some(acc))
            .collect();
        if ids.is_empty() {
            continue;
        }
        let weights: Bytes = ids
            .iter()
            .map(|id| model.layer(*id).weight_bytes(DataType::F32))
            .sum();
        let pinned: Bytes = ids
            .iter()
            .filter(|id| locality.is_pinned(**id))
            .map(|id| model.layer(*id).weight_bytes(DataType::F32))
            .sum();
        rows.push(AccRow {
            acc: system.acc(acc).meta().id.clone(),
            layers: ids.len(),
            pinned,
            weights,
            busy: schedule.per_acc_busy()[acc.index()],
        });
    }

    let mut transfers: BTreeMap<(String, String), Bytes> = BTreeMap::new();
    let mut host_ingress = Bytes::ZERO;
    for (from, to, e) in model.edges() {
        let pa = mapping.acc_of(from);
        let ca = mapping.acc_of(to);
        let from_input = matches!(model.layer(from).op(), LayerOp::Input { .. });
        if from_input {
            host_ingress += e.bytes();
            continue;
        }
        let fused = locality.is_fused(from, to) && pa == ca;
        if !fused && pa != ca {
            let key = (
                system.acc(pa).meta().id.clone(),
                system.acc(ca).meta().id.clone(),
            );
            *transfers.entry(key).or_insert(Bytes::ZERO) += e.bytes();
        }
    }
    for (id, layer) in model.layers() {
        if layer.has_weights() && !locality.is_pinned(id) {
            host_ingress += layer.weight_bytes(DataType::F32);
        }
    }

    MappingReport { rows, transfers, host_ingress, makespan: schedule.makespan() }
}

/// Human-readable summary of one search run's [`SearchStats`]: the
/// moves the latency screen rejected unstaged (and how many of them
/// only its split on fusion outcomes rejected), the evaluation mix
/// (delta / prefix / full), the propagation locality, and the
/// risky-guard columns (how many guards the fusion replay reached, how
/// many the delay walk proved without a toggle, how many rejected toggles
/// used the `O(cone)` fast revert).
pub fn search_stats_report(stats: &SearchStats) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "search stats — {} attempted / {} accepted moves over {} passes",
        stats.attempted_moves, stats.accepted_moves, stats.passes
    );
    let _ = write!(
        out,
        "  screened: {} moves rejected on the latency floor",
        stats.screened
    );
    if stats.screened > 0 {
        let _ = write!(
            out,
            ", {} after splitting on fusion outcomes",
            stats.split_screened
        );
    }
    out.push('\n');
    let _ = writeln!(
        out,
        "  evals: {} delta + {} full ({:.1}x saved)",
        stats.delta_evals,
        stats.full_evals,
        stats.full_evals_saved_ratio()
    );
    let _ = writeln!(
        out,
        "  rebuilds: {} scoped / {} full",
        stats.scoped_rebuilds, stats.full_rebuilds
    );
    let _ = writeln!(
        out,
        "  propagation: {} rounds, mean cone {:.1}, max cone {}",
        stats.propagations,
        stats.mean_propagated(),
        stats.max_propagated
    );
    let _ = writeln!(
        out,
        "  risky guards: {} reached, {} skipped by dominance ({:.0}%), {} fast reverts",
        stats.guards_total,
        stats.guards_skipped,
        if stats.guards_total > 0 {
            100.0 * stats.guards_skipped as f64 / stats.guards_total as f64
        } else {
            0.0
        },
        stats.guard_reverts_fast
    );
    out
}

/// Human-readable summary of one multi-tenant serving window
/// ([`crate::serve::TenantRegistry::serve`]): the per-tenant SLO ledger
/// (attained vs target latency, violations, batching), the shared DRAM
/// budget headroom, and the slice-evaluator counters. Everything
/// rendered is *modeled* time, so the report is deterministic — the
/// golden-snapshot suite diffs it verbatim.
pub fn serve_report(outcome: &crate::serve::ServeOutcome) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve report — {} tenants, {} rounds, policy {}, drain {}",
        outcome.tenants.len(),
        outcome.counters.rounds,
        outcome.policy.label(),
        outcome.makespan
    );
    let _ = writeln!(
        out,
        "  {:<12} {:>5} {:>7} {:>5} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>5} \
         {:>5} {:>12} {:>5} {:>12}",
        "tenant", "req", "batches", "maxb", "ideal", "mean", "p50", "p95", "p99", "max", "slo",
        "viol", "shed", "amortized", "swaps", "reload"
    );
    for t in &outcome.tenants {
        let _ = writeln!(
            out,
            "  {:<12} {:>5} {:>7} {:>5} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>5} \
             {:>5} {:>12} {:>5} {:>12}",
            t.name,
            t.served,
            t.batches,
            t.max_batch,
            format!("{}", t.ideal),
            format!("{}", t.attained_mean()),
            format!("{}", t.latencies.p50()),
            format!("{}", t.latencies.p95()),
            format!("{}", t.latencies.p99()),
            format!("{}", t.attained_max),
            format!("{}", t.slo),
            t.violations,
            t.shed,
            format!("{}", t.amortized_weight_time),
            t.weight_reloads,
            format!("{}", t.reload_time),
        );
    }
    let _ = writeln!(out, "  shared DRAM budget (peak co-resident / budget):");
    for (i, name) in outcome.acc_names.iter().enumerate() {
        let peak = outcome.peak_resident[i];
        let budget = outcome.budgets[i];
        if peak == h2h_model::units::Bytes::ZERO {
            continue;
        }
        let _ = writeln!(out, "    {:<5} {:>12} / {:>12}", name, format!("{peak}"), format!("{budget}"));
    }
    let c = &outcome.counters;
    let _ = writeln!(
        out,
        "  slices: {} evaluated + {} memoized; crosschecks {} ({} mismatched)",
        c.slice_evals, c.slice_cache_hits, c.crosschecks, c.crosscheck_mismatches
    );
    // The fault-window section renders only for faulted runs — no-fault
    // reports (and their golden snapshots) stay byte-identical.
    if c.fault_transitions > 0 {
        let _ = writeln!(
            out,
            "  faults: {} transitions, {} repairs ({} attempted moves, {} staged, {} sheds)",
            c.fault_transitions, c.repairs, c.repair_evals, c.staged_repairs, c.sheds
        );
        let _ = writeln!(
            out,
            "  {:<12} {:>7} {:>9} {:>9} {:>14} {:>12} {:>5}",
            "tenant", "repairs", "degraded", "viol-deg", "slo-attained", "repair-time", "parks"
        );
        for t in &outcome.tenants {
            let attained = if t.degraded_served > 0 {
                100.0 * (t.degraded_served - t.violations_degraded) as f64
                    / t.degraded_served as f64
            } else {
                100.0
            };
            let _ = writeln!(
                out,
                "  {:<12} {:>7} {:>9} {:>9} {:>13.1}% {:>12} {:>5}",
                t.name,
                t.repairs,
                t.degraded_served,
                t.violations_degraded,
                attained,
                format!("{}", t.repair_time_charged),
                t.parks
            );
        }
    }
    out
}

impl fmt::Display for MappingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "mapping report — makespan {}", self.makespan)?;
        writeln!(
            f,
            "  {:<5} {:>7} {:>12} {:>12} {:>12}",
            "acc", "layers", "weights", "pinned", "busy"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<5} {:>7} {:>12} {:>12} {:>12}",
                r.acc,
                r.layers,
                format!("{}", r.weights),
                format!("{}", r.pinned),
                format!("{}", r.busy),
            )?;
        }
        writeln!(f, "  host ingress (inputs + streamed weights): {}", self.host_ingress)?;
        if self.transfers.is_empty() {
            writeln!(f, "  no cross-accelerator activation traffic")?;
        } else {
            writeln!(f, "  cross-accelerator activation traffic (via host):")?;
            for ((a, b), bytes) in &self.transfers {
                writeln!(f, "    {a:<5} -> {b:<5} {bytes}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::H2hMapper;
    use h2h_system::system::{BandwidthClass, SystemSpec};

    #[test]
    fn report_covers_all_mapped_layers() {
        let model = h2h_model::zoo::mocap();
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let out = H2hMapper::new(&model, &system).run().unwrap();
        let ev = Evaluator::new(&model, &system);
        let rep = mapping_report(&ev, &out.mapping, &out.locality, &out.schedule);
        let total_layers: usize = rep.rows.iter().map(|r| r.layers).sum();
        assert_eq!(total_layers, model.num_layers());
        assert_eq!(rep.makespan, out.final_latency());
        assert!(rep.host_ingress > Bytes::ZERO, "inputs always stream in");
    }

    #[test]
    fn h2h_shrinks_the_transfer_matrix() {
        use crate::baseline::computation_prioritized_baseline;
        let model = h2h_model::zoo::mocap();
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let ev = Evaluator::new(&model, &system);
        let base = computation_prioritized_baseline(&ev, &crate::H2hConfig::default()).unwrap();
        let h2h = H2hMapper::new(&model, &system).run().unwrap();
        let base_rep = mapping_report(&ev, &base.mapping, &base.locality, &base.schedule);
        let h2h_rep = mapping_report(&ev, &h2h.mapping, &h2h.locality, &h2h.schedule);
        let sum = |r: &MappingReport| -> u64 {
            r.transfers.values().map(|b| b.as_u64()).sum()
        };
        assert!(
            sum(&h2h_rep) < sum(&base_rep),
            "H2H should cut cross-accelerator traffic: {} vs {}",
            sum(&h2h_rep),
            sum(&base_rep)
        );
    }

    #[test]
    fn search_stats_report_names_the_guard_counters() {
        use h2h_system::system::{BandwidthClass, SystemSpec};
        // A large ResNet-like model under the default (adaptive +
        // dominance) configuration must report reached guards, a
        // non-zero skip count, and the fast-revert column.
        let model = h2h_model::zoo::casia_surf();
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let out = H2hMapper::new(&model, &system).run().unwrap();
        let rep = search_stats_report(&out.remap_stats);
        assert!(rep.contains("screened:"), "{rep}");
        assert!(rep.contains("risky guards"), "{rep}");
        assert!(rep.contains("skipped by dominance"), "{rep}");
        assert!(rep.contains("fast reverts"), "{rep}");
        assert!(
            out.remap_stats.guards_total > 0 && out.remap_stats.guards_skipped > 0,
            "CASIA-SURF should reach and skip guards: {rep}"
        );
        // Zero-guard runs must render without dividing by zero.
        let empty = search_stats_report(&crate::delta::SearchStats::default());
        assert!(empty.contains("0 reached"), "{empty}");
    }

    #[test]
    fn display_renders_rows() {
        let model = h2h_model::zoo::cnn_lstm();
        let system = SystemSpec::standard(BandwidthClass::Mid);
        let out = H2hMapper::new(&model, &system).run().unwrap();
        let ev = Evaluator::new(&model, &system);
        let rep = mapping_report(&ev, &out.mapping, &out.locality, &out.schedule);
        let shown = format!("{rep}");
        assert!(shown.contains("mapping report"));
        assert!(shown.contains("host ingress"));
    }
}
