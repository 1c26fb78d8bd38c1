//! Text renderers that regenerate the paper's tables and figures from
//! a sweep of [`ModelRun`]s.

use std::fmt::Write as _;

use h2h_system::system::BandwidthClass;

use crate::experiments::{at_bandwidth, of_model, ModelRun};

/// The six model names in Table 2 / Fig. 4 order.
pub const MODEL_ORDER: [&str; 6] = [
    "VLocNet",
    "CASIA-SURF",
    "VFS",
    "FaceBag",
    "CNN-LSTM",
    "MoCap",
];

/// Figure 4 (top): modeled latency per step, one block per model, one
/// row per bandwidth class.
pub fn fig4_latency(runs: &[ModelRun]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 4 — system latency (seconds) after each H2H step"
    )
    .unwrap();
    for model in MODEL_ORDER {
        writeln!(out, "\n{model}").unwrap();
        writeln!(
            out,
            "  {:<6} {:>10} {:>10} {:>10} {:>10}  reduction",
            "BW", "step1", "step2", "step3", "step4"
        )
        .unwrap();
        for r in of_model(runs, model) {
            writeln!(
                out,
                "  {:<6} {:>10.4} {:>10.4} {:>10.4} {:>10.4}  {:>5.1}%",
                r.bandwidth,
                r.latency[0],
                r.latency[1],
                r.latency[2],
                r.latency[3],
                r.latency_reduction() * 100.0
            )
            .unwrap();
        }
    }
    out
}

/// Figure 4 (bottom): modeled energy per step.
pub fn fig4_energy(runs: &[ModelRun]) -> String {
    let mut out = String::new();
    writeln!(out, "Figure 4 — system energy (joules) after each H2H step").unwrap();
    for model in MODEL_ORDER {
        writeln!(out, "\n{model}").unwrap();
        writeln!(
            out,
            "  {:<6} {:>10} {:>10} {:>10} {:>10}  reduction",
            "BW", "step1", "step2", "step3", "step4"
        )
        .unwrap();
        for r in of_model(runs, model) {
            writeln!(
                out,
                "  {:<6} {:>10.3} {:>10.3} {:>10.3} {:>10.3}  {:>5.1}%",
                r.bandwidth,
                r.energy[0],
                r.energy[1],
                r.energy[2],
                r.energy[3],
                r.energy_reduction() * 100.0
            )
            .unwrap();
        }
    }
    out
}

/// Table 4: absolute latency for steps 1–2 (seconds) and steps 3–4 as a
/// percentage of the step-2 baseline — the paper's exact layout.
pub fn table4(runs: &[ModelRun]) -> String {
    let mut out = String::new();
    writeln!(out, "Table 4 — latency breakdown vs the step-2 baseline").unwrap();
    writeln!(
        out,
        "{:<6} | {:<52}",
        "BW",
        MODEL_ORDER
            .iter()
            .map(|m| format!("{m:>24}"))
            .collect::<String>()
    )
    .unwrap();
    writeln!(
        out,
        "{:<6} | {}",
        "",
        "     1      2      3%     4% ".repeat(6)
    )
    .unwrap();
    for bw in BandwidthClass::ALL {
        let mut row = format!("{:<6} |", bw.label());
        for model in MODEL_ORDER {
            let Some(r) = of_model(runs, model)
                .into_iter()
                .find(|r| r.bandwidth == bw.label())
            else {
                row.push_str("      -      -      -      -");
                continue;
            };
            write!(
                row,
                " {:>6.3} {:>6.3} {:>5.1}% {:>5.1}%",
                r.latency[0],
                r.latency[1],
                r.step3_fraction() * 100.0,
                r.step4_fraction() * 100.0
            )
            .unwrap();
        }
        writeln!(out, "{row}").unwrap();
    }
    out
}

/// Figure 5a: communication/computation split before (baseline) and
/// after H2H, at Bandwidth Low-.
pub fn fig5a(runs: &[ModelRun]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 5a — computation share of busy time (Bandwidth Low-)"
    )
    .unwrap();
    writeln!(out, "  {:<12} {:>14} {:>10}", "model", "baseline", "H2H").unwrap();
    for r in at_bandwidth(runs, BandwidthClass::LowMinus) {
        writeln!(
            out,
            "  {:<12} {:>13.1}% {:>9.1}%",
            r.model,
            r.baseline_compute_ratio * 100.0,
            r.h2h_compute_ratio * 100.0
        )
        .unwrap();
    }
    out
}

/// Figure 5b: mapper search time per model and bandwidth class.
pub fn fig5b(runs: &[ModelRun]) -> String {
    let mut out = String::new();
    writeln!(out, "Figure 5b — H2H search time (seconds)").unwrap();
    write!(out, "  {:<12}", "model").unwrap();
    for bw in BandwidthClass::ALL {
        write!(out, " {:>8}", bw.label()).unwrap();
    }
    writeln!(out).unwrap();
    for model in MODEL_ORDER {
        write!(out, "  {:<12}", model).unwrap();
        for r in of_model(runs, model) {
            write!(out, " {:>8.3}", r.search_seconds).unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

/// The paper's headline claims (§1/§5.2) evaluated against a sweep.
pub fn headline(runs: &[ModelRun]) -> String {
    let low = at_bandwidth(runs, BandwidthClass::LowMinus);
    let high = at_bandwidth(runs, BandwidthClass::High);
    let lat_low: Vec<f64> = low.iter().map(|r| r.latency_reduction() * 100.0).collect();
    let en_low: Vec<f64> = low.iter().map(|r| r.energy_reduction() * 100.0).collect();
    let lat_high: Vec<f64> = high.iter().map(|r| r.latency_reduction() * 100.0).collect();
    let over60 = lat_low.iter().filter(|x| **x > 60.0).count();

    let min = |v: &[f64]| v.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);

    let mut out = String::new();
    writeln!(
        out,
        "Headline claims (paper §1 / §5.2) vs this reproduction"
    )
    .unwrap();
    writeln!(
        out,
        "  latency reduction @ Low- : paper 15%..74%   | measured {:.0}%..{:.0}%",
        min(&lat_low),
        max(&lat_low)
    )
    .unwrap();
    writeln!(
        out,
        "  energy reduction @ Low-  : paper 23%..64%   | measured {:.0}%..{:.0}%",
        min(&en_low),
        max(&en_low)
    )
    .unwrap();
    writeln!(
        out,
        "  latency reduction @ High : paper 10%..50%   | measured {:.0}%..{:.0}%",
        min(&lat_high),
        max(&lat_high)
    )
    .unwrap();
    writeln!(
        out,
        "  cases over 60% @ Low-    : paper 3 of 6     | measured {over60} of 6"
    )
    .unwrap();
    writeln!(
        out,
        "  search time              : paper < 1 s      | measured max {:.3} s",
        runs.iter().map(|r| r.search_seconds).fold(0.0, f64::max)
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_run(model: &str, bw: BandwidthClass) -> ModelRun {
        ModelRun {
            model: model.to_owned(),
            bandwidth: bw.label().to_owned(),
            bandwidth_gbps: bw.bandwidth().as_f64() / 1e9,
            latency: [4.0, 2.0, 1.5, 1.0],
            energy: [40.0, 20.0, 15.0, 10.0],
            baseline_compute_ratio: 0.2,
            h2h_compute_ratio: 0.8,
            search_seconds: 0.1,
        }
    }

    fn fake_sweep() -> Vec<ModelRun> {
        MODEL_ORDER
            .iter()
            .flat_map(|m| BandwidthClass::ALL.iter().map(|bw| fake_run(m, *bw)))
            .collect()
    }

    #[test]
    fn table4_has_one_row_per_bandwidth() {
        let t = table4(&fake_sweep());
        for bw in BandwidthClass::ALL {
            assert!(t.contains(bw.label()), "missing {}", bw.label());
        }
        // 50% step-4 fraction everywhere.
        assert!(t.contains("50.0%"));
    }

    #[test]
    fn fig4_mentions_every_model() {
        let t = fig4_latency(&fake_sweep());
        let e = fig4_energy(&fake_sweep());
        for m in MODEL_ORDER {
            assert!(t.contains(m));
            assert!(e.contains(m));
        }
    }

    #[test]
    fn headline_reports_reduction_band() {
        let h = headline(&fake_sweep());
        // All fake runs reduce 50%: band is 50%..50%, zero cases > 60%.
        assert!(h.contains("50%..50%"));
        assert!(h.contains("0 of 6"));
    }

    #[test]
    fn fig5a_and_fig5b_render() {
        let runs = fake_sweep();
        assert!(fig5a(&runs).contains("80.0%"));
        assert!(fig5b(&runs).contains("0.100"));
    }
}
