//! Search-efficiency record: runs the step-4 remapping loop on the
//! incremental delta engine and on the per-candidate full-re-evaluation
//! reference for every zoo model, bandwidth class and interconnect
//! fabric, checks that both reproduce the same mapping bit-exactly, and
//! writes `BENCH_search.json`.
//!
//! ```text
//! cargo run --release -p h2h-bench --bin bench_search -- [out.json]
//!     [--models VFS,MoCap] [--bandwidths Low-,Mid] [--reps 3]
//!     [--min-large-speedup 1.5] [--profile]
//!     [--topology uniform,skewed,switched] [--min-topology-gain 1.1]
//! ```
//!
//! The record holds only counted and modeled quantities — the
//! `SearchStats` counters, final latencies, the topology gain and the
//! reference match — so it reproduces byte for byte on any machine and
//! CI diffs it against the committed copy. Wall-clock numbers go to
//! stdout only: every row prints its speedup over the reference (best
//! of `--reps` timed runs from the same seed mapping), and `--profile`
//! arms the engine's per-phase timers (`H2hConfig::profile_phases`) and
//! prints each row's seconds in candidate scoring, deferred cost
//! propagation, risky-guard resolution and commit.
//!
//! `--topology` sweeps interconnect fabrics (specs as accepted by
//! `h2h_system::topology::Topology::parse`). Non-uniform rows also
//! record the **topology-blind** latency — the mapping a scalar-model
//! mapper would pick, its locality rebuilt and evaluated on the true
//! fabric — so `topology_gain = blind / aware` measures what seeing the
//! links is worth.
//!
//! Exits non-zero if any row diverges from the reference or fails a
//! gate:
//! * a large risky model (more than [`LARGE_MODEL_LAYERS`] layers and
//!   at least one multi-consumer producer: the ResNet-like zoo
//!   entries) resolves fewer than [`MIN_LARGE_GUARD_SKIP`] of its risky
//!   guards without a toggle (`guards_skipped / guards_total`) — the
//!   delay walk must prove most of them there;
//! * a large model (more than [`LARGE_MODEL_LAYERS`] layers) reports
//!   `screened == 0` — the latency screen must reject some hopeless
//!   moves there;
//! * a large model whose search reaches risky guards reports
//!   `split_screened == 0` — the screen's split on fusion outcomes
//!   must reject some moves the plain floor lets through there;
//! * with `--min-large-speedup S`, such a row is less than `S`× faster
//!   than the reference on wall clock;
//! * with `--profile`, a row's phase breakdown is malformed (a
//!   non-finite or negative bucket, or no scoring time despite
//!   attempted moves);
//! * with `--min-topology-gain G`, no large model on a non-uniform
//!   fabric gains at least `G`.

use std::time::Instant;

use serde::Serialize;

use h2h_core::activation_fusion::rebuild_locality;
use h2h_core::compute_map::computation_prioritized;
use h2h_core::remap::{data_locality_remapping, data_locality_remapping_reference, RemapOutcome};
use h2h_core::{H2hConfig, PhaseProfile, PinPreset};
use h2h_system::mapping::Mapping;
use h2h_system::schedule::Evaluator;
use h2h_system::system::{BandwidthClass, SystemSpec};

/// Models with more layers than this are "large": the ResNet-like
/// CASIA-SURF and FaceBag and the 148-layer VLocNet, where the gates
/// below expect the screen and the guard pruning to fire.
const LARGE_MODEL_LAYERS: usize = 80;

/// Share of a large risky row's risky guards the delay walk must prove
/// without a toggle: every such row measured 0.90–1.00 when the walk
/// replaced the two-condition dominance proof (0.59–0.94 before).
const MIN_LARGE_GUARD_SKIP: f64 = 0.8;

/// One (model, bandwidth, topology) delta-vs-reference search record.
#[derive(Debug, Serialize)]
struct SearchRecord {
    model: String,
    bandwidth: String,
    /// Interconnect fabric spec (`uniform` = the scalar star).
    topology: String,
    layers: usize,
    attempted_moves: usize,
    accepted_moves: usize,
    passes: usize,
    /// Attempted moves the latency screen rejected without staging.
    screened: usize,
    /// The screened moves only the split on fusion outcomes rejected.
    split_screened: usize,
    delta_evals: usize,
    full_evals_delta: usize,
    full_evals_reference: usize,
    full_eval_reduction: f64,
    /// Propagation rounds and their mean/max cone sizes.
    propagations: usize,
    mean_propagated_layers: f64,
    max_propagated_layers: usize,
    /// Risky fusion guards reached by the delta replay, how many the
    /// delay walk proved (no toggle/revert replay), and how
    /// many rejected toggles restored via the O(cone) savepoint.
    guards_total: usize,
    guards_skipped: usize,
    guard_reverts_fast: usize,
    final_latency_s: f64,
    /// Non-uniform fabrics only: the true-fabric latency of the
    /// topology-blind mapping (scalar-model search, locality rebuilt on
    /// the real links), and the aware/blind improvement factor.
    topology_blind_latency_s: Option<f64>,
    topology_gain: Option<f64>,
    matches_reference: bool,
}

/// Why a `--profile` phase breakdown is malformed, if it is: every
/// bucket must be finite and non-negative, and a run that attempted
/// moves must have spent time scoring them.
fn malformed_profile(p: &PhaseProfile, attempted_moves: usize) -> Option<String> {
    let buckets = [
        ("scoring_s", p.scoring_s),
        ("propagate_s", p.propagate_s),
        ("guard_s", p.guard_s),
        ("commit_s", p.commit_s),
    ];
    for (name, v) in buckets {
        if !v.is_finite() || v < 0.0 {
            return Some(format!("{name} = {v}"));
        }
    }
    (attempted_moves > 0 && p.scoring_s <= 0.0)
        .then(|| format!("scoring_s = {} with {attempted_moves} attempted moves", p.scoring_s))
}

fn parse_list(arg: &str) -> Vec<String> {
    arg.split(',').map(|s| s.trim().to_owned()).filter(|s| !s.is_empty()).collect()
}

fn main() {
    let mut out_path = "BENCH_search.json".to_owned();
    let mut models_filter: Option<Vec<String>> = None;
    let mut bandwidths = vec!["Low-".to_owned(), "Mid".to_owned()];
    let mut reps = 3usize;
    let mut min_large_speedup: Option<f64> = None;
    let mut topologies = vec!["uniform".to_owned(), "skewed".to_owned(), "switched".to_owned()];
    let mut min_topology_gain: Option<f64> = None;
    let mut profile_phases = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--models" => models_filter = Some(parse_list(&value("--models"))),
            "--bandwidths" => bandwidths = parse_list(&value("--bandwidths")),
            "--reps" => reps = value("--reps").parse().expect("--reps takes an integer"),
            "--profile" => profile_phases = true,
            "--topology" => topologies = parse_list(&value("--topology")),
            "--min-topology-gain" => {
                min_topology_gain = Some(
                    value("--min-topology-gain")
                        .parse()
                        .expect("--min-topology-gain takes a float"),
                );
            }
            "--min-large-speedup" => {
                min_large_speedup = Some(
                    value("--min-large-speedup")
                        .parse()
                        .expect("--min-large-speedup takes a float"),
                );
            }
            flag if flag.starts_with("--") => panic!("unknown flag `{flag}`"),
            path => out_path = path.to_owned(),
        }
    }
    let reps = reps.max(1);

    // A typo'd filter must not let the divergence check pass vacuously
    // (CI smoke-tests rely on this binary's exit code).
    if let Some(filter) = &models_filter {
        for name in filter {
            assert!(
                h2h_model::zoo::by_name(name).is_some(),
                "--models entry `{name}` matches no zoo model (have: {})",
                h2h_model::zoo::all_models()
                    .iter()
                    .map(|m| m.name().to_owned())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
    }

    let bandwidths: Vec<BandwidthClass> = bandwidths
        .iter()
        .map(|label| {
            BandwidthClass::by_label(label)
                .unwrap_or_else(|| panic!("unknown bandwidth class `{label}`"))
        })
        .collect();

    let cfg = H2hConfig { profile_phases, ..H2hConfig::default() };
    let mut records = Vec::new();
    let mut gate_failures = 0usize;
    println!(
        "{:<10} {:>5} {:>9} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "model", "bw", "topology", "layers", "attempts", "screened", "split", "reduction",
        "g-skip", "speedup", "match"
    );
    for bw in &bandwidths {
        let uniform_system = SystemSpec::standard(*bw);
        // Topology-blind mappings depend only on (model, bandwidth);
        // memoized across the topology sweep so the skewed and switched
        // fabrics of one bandwidth do not each repeat the full
        // scalar-model search.
        let mut blind_maps: std::collections::HashMap<String, Mapping> =
            std::collections::HashMap::new();
        for topo_spec in &topologies {
        let system = SystemSpec::standard_with_topology(*bw, Some(topo_spec))
            .unwrap_or_else(|e| panic!("--topology `{topo_spec}`: {e}"));
        let fabric_uniform = system.topology().is_uniform();
        let mut best_large_gain = f64::NEG_INFINITY;
        let mut any_large = false;
        for model in h2h_model::zoo::all_models() {
            if let Some(filter) = &models_filter {
                if !filter.iter().any(|m| m.eq_ignore_ascii_case(model.name())) {
                    continue;
                }
            }
            let ev = Evaluator::new(&model, &system);
            let (seed, _) = computation_prioritized(&ev, &cfg, &PinPreset::new())
                .expect("standard system maps every zoo model");
            // The topology-blind yardstick: map with the scalar model,
            // rebuild the locality (a deployment still pins/fuses
            // against real capacities), evaluate on the true fabric.
            let blind_latency: Option<f64> = if fabric_uniform {
                None
            } else {
                let blind_map =
                    blind_maps.entry(model.name().to_owned()).or_insert_with(|| {
                        let blind_ev = Evaluator::new(&model, &uniform_system);
                        let (mut blind_map, _) =
                            computation_prioritized(&blind_ev, &cfg, &PinPreset::new())
                                .expect("uniform system maps every zoo model");
                        let _ = data_locality_remapping(
                            &blind_ev,
                            &cfg,
                            &PinPreset::new(),
                            &mut blind_map,
                        );
                        blind_map
                    });
                let loc = rebuild_locality(&ev, blind_map, &cfg, &PinPreset::new());
                Some(ev.evaluate(blind_map, &loc).makespan().as_f64())
            };
            // "Large risky" = more than LARGE_MODEL_LAYERS layers AND
            // at least one multi-consumer producer (a risky fusion
            // candidate can actually arise) — the ResNet-like zoo
            // entries. Only these rows are held to the
            // delay-walk and speedup gates.
            let large = model.num_layers() > LARGE_MODEL_LAYERS;
            let large_risky = large
                && model.layer_ids().any(|id| {
                    !matches!(
                        model.layer(id).op(),
                        h2h_model::layer::LayerOp::Input { .. }
                    ) && model.successors(id).count() >= 2
                });

            // Untimed warm-up of both code paths (first-touch cache and
            // allocator effects otherwise land on whichever
            // configuration happens to run first — visible on the
            // sub-millisecond models).
            {
                let mut m = seed.clone();
                let _ = data_locality_remapping_reference(&ev, &cfg, &PinPreset::new(), &mut m);
                let mut m = seed.clone();
                let _ = data_locality_remapping(&ev, &cfg, &PinPreset::new(), &mut m);
            }

            // Best-of-N timing; sub-millisecond runs sample until ~50 ms
            // of total run time so a single scheduler hiccup cannot skew
            // a row.
            let time_best = |run: &mut dyn FnMut(&mut Mapping) -> RemapOutcome| {
                let mut best_seconds = f64::INFINITY;
                let mut result = None;
                let mut spent = 0.0;
                let mut samples = 0;
                while samples < reps || (spent < 0.05 && samples < 200) {
                    let mut m = seed.clone();
                    let t = Instant::now();
                    let out = run(&mut m);
                    let elapsed = t.elapsed().as_secs_f64();
                    spent += elapsed;
                    samples += 1;
                    best_seconds = best_seconds.min(elapsed);
                    result = Some((m, out));
                }
                let (mapping, outcome) = result.expect("at least one sample");
                (best_seconds, mapping, outcome)
            };
            let (reference_seconds, map_ref, reference) = time_best(&mut |m| {
                data_locality_remapping_reference(&ev, &cfg, &PinPreset::new(), m)
            });
            let (delta_seconds, map_delta, delta) = time_best(&mut |m| {
                data_locality_remapping(&ev, &cfg, &PinPreset::new(), m)
            });

            let aware_latency = delta.schedule.makespan().as_f64();
            let topology_gain = blind_latency.map(|b| b / aware_latency.max(1e-15));
            if let Some(g) = topology_gain {
                if large {
                    any_large = true;
                    best_large_gain = best_large_gain.max(g);
                }
            }
            let matches_reference = map_delta == map_ref
                && (aware_latency - reference.schedule.makespan().as_f64()).abs()
                    <= reference.schedule.makespan().as_f64() * 1e-12;
            let reduction = if delta.stats.full_evals > 0 {
                reference.stats.full_evals as f64 / delta.stats.full_evals as f64
            } else {
                f64::INFINITY
            };
            let speedup = reference_seconds / delta_seconds.max(1e-12);
            println!(
                "{:<10} {:>5} {:>9} {:>7} {:>9} {:>9} {:>9} {:>8.1}x {:>9} {:>8.1}x {:>8}{}",
                model.name(),
                bw.label(),
                topo_spec,
                model.num_layers(),
                delta.stats.attempted_moves,
                delta.stats.screened,
                delta.stats.split_screened,
                reduction,
                delta.stats.guards_skipped,
                speedup,
                matches_reference,
                topology_gain.map(|g| format!(" gain {g:.2}x")).unwrap_or_default(),
            );
            let row = format!("{} @ {} ({topo_spec})", model.name(), bw.label());
            let mut failures = Vec::new();
            // The delay walk must prove most guards where it is the
            // point: large risky models reach many risky guards in the
            // replay, so a low proven share there means the walk
            // regressed. (Small models reach at most a handful of risky
            // guards, too few to hold them to it.)
            let skip_ratio =
                delta.stats.guards_skipped as f64 / delta.stats.guards_total.max(1) as f64;
            if large_risky && skip_ratio < MIN_LARGE_GUARD_SKIP {
                failures.push(format!(
                    "{} of {} risky guards ({:.0}%) resolved without a toggle on a large \
                     risky model, below the {:.0}% gate",
                    delta.stats.guards_skipped,
                    delta.stats.guards_total,
                    skip_ratio * 100.0,
                    MIN_LARGE_GUARD_SKIP * 100.0
                ));
            }
            // Likewise the latency screen: on a large model most moves
            // are hopeless, so a screen that rejects none has regressed.
            if large && delta.stats.screened == 0 {
                failures.push("screened == 0 on a large model".to_owned());
            }
            // And its split: where the search reaches risky guards, the
            // producers it branches on exist, so a split that rejects
            // nothing has regressed.
            if large && delta.stats.guards_total > 0 && delta.stats.split_screened == 0 {
                failures.push(
                    "split_screened == 0 on a large model with risky guards".to_owned(),
                );
            }
            if let Some(min) = min_large_speedup.filter(|min| large_risky && speedup < *min) {
                failures.push(format!("speedup {speedup:.2}x below the {min:.2}x gate"));
            }
            if profile_phases {
                let p = &delta.profile;
                println!(
                    "{:>16} scoring {:.6} s, propagate {:.6} s, guard {:.6} s, commit {:.6} s \
                     (total {:.6} s)",
                    "profile:",
                    p.scoring_s,
                    p.propagate_s,
                    p.guard_s,
                    p.commit_s,
                    p.total()
                );
                if let Some(err) = malformed_profile(p, delta.stats.attempted_moves) {
                    failures.push(format!("malformed profile: {err}"));
                }
            }
            for failure in &failures {
                eprintln!("FAIL: {row}: {failure}");
            }
            if !failures.is_empty() {
                gate_failures += 1;
            }
            records.push(SearchRecord {
                model: model.name().to_owned(),
                bandwidth: bw.label().to_owned(),
                topology: topo_spec.clone(),
                layers: model.num_layers(),
                attempted_moves: delta.stats.attempted_moves,
                accepted_moves: delta.stats.accepted_moves,
                passes: delta.stats.passes,
                screened: delta.stats.screened,
                split_screened: delta.stats.split_screened,
                delta_evals: delta.stats.delta_evals,
                full_evals_delta: delta.stats.full_evals,
                full_evals_reference: reference.stats.full_evals,
                full_eval_reduction: reduction,
                propagations: delta.stats.propagations,
                mean_propagated_layers: delta.stats.mean_propagated(),
                max_propagated_layers: delta.stats.max_propagated,
                guards_total: delta.stats.guards_total,
                guards_skipped: delta.stats.guards_skipped,
                guard_reverts_fast: delta.stats.guard_reverts_fast,
                final_latency_s: aware_latency,
                topology_blind_latency_s: blind_latency,
                topology_gain,
                matches_reference,
            });
        }
        if let Some(min) = min_topology_gain {
            if !fabric_uniform && !any_large {
                // A filter with no large model must not read as "gate
                // passed" — the gain only means anything where the
                // search has room to move layers.
                eprintln!(
                    "FAIL: topology `{topo_spec}` @ {}: --min-topology-gain set but the \
                     model filter contains no large model — gate not evaluated",
                    bw.label()
                );
                gate_failures += 1;
            } else if !fabric_uniform && best_large_gain < min {
                eprintln!(
                    "FAIL: topology `{topo_spec}` @ {}: best large-model gain {:.2}x below \
                     the {:.2}x gate — the topology-aware search is not beating the \
                     topology-blind mapping",
                    bw.label(),
                    best_large_gain,
                    min
                );
                gate_failures += 1;
            }
        }
        }
    }

    let json = serde_json::to_string_pretty(&records).expect("records serialize");
    std::fs::write(&out_path, json).expect("write BENCH_search.json");
    println!("\nwrote {out_path} ({} records)", records.len());
    assert!(!records.is_empty(), "benchmark produced no records — nothing was verified");
    if records.iter().any(|r| !r.matches_reference) {
        eprintln!("WARNING: delta search diverged from the reference on some configuration");
        std::process::exit(1);
    }
    if gate_failures > 0 {
        eprintln!(
            "WARNING: {gate_failures} row(s) failed the guard-pruning/screen/split/speedup gates"
        );
        std::process::exit(1);
    }
}
