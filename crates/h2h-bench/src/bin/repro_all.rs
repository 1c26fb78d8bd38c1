//! Runs the paper's evaluation (§5) over the 6 zoo models × 5 bandwidth
//! classes and prints its tables and figures.
//!
//! ```text
//! cargo run --release -p h2h-bench --bin repro_all -- [ARTIFACT | OUT.json]
//! ```
//!
//! `ARTIFACT` prints one of them: `fig4` (latency and energy after each
//! step), `table4` (the latency breakdown against the step-2 baseline),
//! `fig5a` (computation share of busy time at Low-), `fig5b` (mapper
//! search time) or `headline` (the §1/§5.2 claims). Without one, every
//! table is printed and the modeled results are written to
//! `REPRO.json` (or `OUT.json`): per-step latency and energy and both
//! compute ratios of every (model, bandwidth) run. The record holds no
//! wall-clock field, so it reproduces byte for byte and CI diffs it
//! against the committed copy.

use std::process::ExitCode;

use serde::Serialize;

use h2h_bench::{run_sweep, tables, ModelRun};

const ARTIFACTS: [&str; 5] = ["fig4", "table4", "fig5a", "fig5b", "headline"];

fn render(artifact: &str, runs: &[ModelRun]) -> String {
    match artifact {
        "fig4" => format!(
            "{}\n{}",
            tables::fig4_latency(runs),
            tables::fig4_energy(runs)
        ),
        "table4" => tables::table4(runs),
        "fig5a" => tables::fig5a(runs),
        "fig5b" => tables::fig5b(runs),
        "headline" => tables::headline(runs),
        other => unreachable!("unknown artifact `{other}`"),
    }
}

/// The modeled part of one [`ModelRun`]: everything but the search time.
#[derive(Serialize)]
struct ReproRow {
    model: String,
    bandwidth: String,
    bandwidth_gbps: f64,
    latency: [f64; 4],
    energy: [f64; 4],
    baseline_compute_ratio: f64,
    h2h_compute_ratio: f64,
}

impl From<&ModelRun> for ReproRow {
    fn from(r: &ModelRun) -> Self {
        ReproRow {
            model: r.model.clone(),
            bandwidth: r.bandwidth.clone(),
            bandwidth_gbps: r.bandwidth_gbps,
            latency: r.latency,
            energy: r.energy,
            baseline_compute_ratio: r.baseline_compute_ratio,
            h2h_compute_ratio: r.h2h_compute_ratio,
        }
    }
}

fn main() -> ExitCode {
    let arg = std::env::args().nth(1);
    let artifact = arg.as_deref().filter(|a| ARTIFACTS.contains(a));
    if artifact.is_none() && arg.as_deref().is_some_and(|a| !a.ends_with(".json")) {
        eprintln!("usage: repro_all [{} | OUT.json]", ARTIFACTS.join(" | "));
        return ExitCode::from(2);
    }
    let runs = run_sweep();
    if let Some(artifact) = artifact {
        print!("{}", render(artifact, &runs));
        return ExitCode::SUCCESS;
    }
    let tables: Vec<String> = ARTIFACTS.iter().map(|a| render(a, &runs)).collect();
    print!("{}", tables.join("\n"));

    let path = arg.unwrap_or_else(|| "REPRO.json".to_owned());
    let rows: Vec<ReproRow> = runs.iter().map(ReproRow::from).collect();
    let json = serde_json::to_string_pretty(&rows).expect("rows serialize");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("could not write {path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("\nwrote {path} ({} runs)", rows.len());
    ExitCode::SUCCESS
}
