//! `h2h` — command-line front end to the reproduction.
//!
//! ```text
//! h2h zoo                         # the Table-2 model census
//! h2h accels                      # the Table-3 accelerator datasheet
//! h2h map <model> [bw]            # run the 4-step pipeline, show placement
//! h2h sweep <model>               # Fig.4-style bandwidth sweep for one model
//! h2h serve <m1,m2,..> [bw]       # multi-tenant batched serving window
//! h2h parse <file.h2h> [bw]       # ingest a text-format model and map it
//! h2h trace <model> [bw] <out>    # export a chrome://tracing JSON
//! h2h inspect <model> [bw]        # placement + topology table + search stats + link lanes
//! ```
//!
//! Models: vlocnet | casia | vfs | facebag | cnnlstm | mocap.
//! Bandwidths: low- | low | mid- | mid | high (default low-).
//! An argument past a command's positionals (a misspelt flag among
//! them) or a value flag given twice prints the usage line and exits 2.
//!
//! `map`, `serve`, `sweep` and `inspect` additionally take
//! `--topology <spec>` — `uniform` (default) | `skewed[:factor]` |
//! `switched[:mult]` | `star:host=G;links=g0,g1,…` |
//! `switched:host=G;links=…;peers=i-j@G,…` — to run against a
//! non-uniform interconnect fabric; `inspect` prints the per-link
//! rates and the effective-bandwidth route table, and the step-4
//! search counters (attempted and accepted moves, delta vs full
//! evaluations, propagation cones, risky guards).
//!
//! `inspect` and `serve` also take `--faults <spec>` — `;`-separated
//! events over the full grammar: `board:IDX@T[-T2]` (outage),
//! `link:IDX/F@T[-T2]` (board-link slowdown), `slow:IDX/F@T[-T2]`
//! (compute throttle — the board stays placeable), `host:F@T[-T2]`
//! (host-NIC slowdown: every via-host route and weight re-stream
//! re-prices) and `host:down@T[-T2]` (host outage: swap-ins freeze,
//! only resident tenants keep serving). `inspect` prices the
//! incumbent, the time-budgeted repair and a from-scratch remap on
//! the degraded fabric; `serve` replays the serving window through the
//! fault timeline with per-tenant mid-serve repair, and additionally
//! takes `--repair-cost <secs-per-move>` to charge each repair's
//! modeled wall time against the serving clock (searched placements
//! then *land* only after their window; default 0 = instantaneous).
//! A drain an unrecovered outage blocks forever exits with a
//! structured `serving stalled` error.

use std::process::ExitCode;

use h2h::core::report::{mapping_report, search_stats_report};
use h2h::core::{ArrivalProcess, H2hMapper, RoundPolicy};
use h2h::model::parse::parse_model;
use h2h::model::{ModelGraph, ModelStats};
use h2h::system::gantt::{render_gantt, render_link_gantt};
use h2h::system::trace::to_chrome_trace;
use h2h::system::{BandwidthClass, Evaluator, SystemSpec};

fn usage() -> ExitCode {
    eprintln!(
        "usage: h2h <zoo | accels | map <model> [bw] | sweep <model> | serve <m1,m2,..> [bw] | parse <file> [bw] | trace <model> [bw] <out.json> | inspect <model> [bw]>\n\
         models: vlocnet|casia|vfs|facebag|cnnlstm|mocap; bw: low-|low|mid-|mid|high\n\
         map/serve/sweep/inspect also take --topology <uniform|skewed[:f]|switched[:m]|star:host=G;links=...|switched:...;peers=i-j@G>\n\
         inspect/serve also take --faults <board:IDX@T[-T2];link:IDX/F@T[-T2];slow:IDX/F@T[-T2];host:F@T[-T2];host:down@T[-T2];...>\n\
         serve also takes --repair-cost <secs-per-attempted-move> (repair wall time charged to the serving clock; default 0),\n\
         \x20 --arrivals <fixed|poisson:SEED|trace:PATH> (open-loop arrival process; default fixed),\n\
         \x20 --policy <knapsack|edf|wfair> (batch-forming policy; default knapsack), and --queue-cap <N> (bounded per-tenant queue, 0 = unbounded)"
    );
    ExitCode::from(2)
}

fn model_by_name(name: &str) -> Option<ModelGraph> {
    Some(match name {
        "vlocnet" => h2h::model::zoo::vlocnet(),
        "casia" => h2h::model::zoo::casia_surf(),
        "vfs" => h2h::model::zoo::vfs(),
        "facebag" => h2h::model::zoo::facebag(),
        "cnnlstm" => h2h::model::zoo::cnn_lstm(),
        "mocap" => h2h::model::zoo::mocap(),
        _ => return None,
    })
}

fn bw_by_name(name: Option<&str>) -> Option<BandwidthClass> {
    Some(match name.unwrap_or("low-").to_lowercase().as_str() {
        "low-" => BandwidthClass::LowMinus,
        "low" => BandwidthClass::Low,
        "mid-" => BandwidthClass::MidMinus,
        "mid" => BandwidthClass::Mid,
        "high" => BandwidthClass::High,
        _ => return None,
    })
}

/// Builds the evaluation system for one bandwidth class and an optional
/// `--topology` spec (uniform star when absent).
fn system_for(
    bw: BandwidthClass,
    topology: Option<&str>,
) -> Result<SystemSpec, Box<dyn std::error::Error>> {
    SystemSpec::standard_with_topology(bw, topology)
        .map_err(|e| std::io::Error::other(format!("--topology: {e}")).into())
}

/// The command [`map_and_report`] reports for.
#[derive(PartialEq)]
enum Report {
    /// `map`, `parse`: print the topology table when the fabric is
    /// non-uniform.
    Map,
    /// `inspect`: the caller already printed the topology table; add
    /// the step-4 search stats.
    Inspect,
}

fn map_and_report(
    model: &ModelGraph,
    bw: BandwidthClass,
    system: &SystemSpec,
    report: Report,
) -> Result<(), h2h::core::H2hError> {
    let out = H2hMapper::new(model, system).run()?;
    println!("{}\n", ModelStats::of(model));
    println!(
        "H2H @ {}: baseline {} -> {} ({:.1}% latency, {:.1}% energy reduction); search {:?}\n",
        bw.label(),
        out.baseline_latency(),
        out.final_latency(),
        out.latency_reduction() * 100.0,
        out.energy_reduction() * 100.0,
        out.search_time,
    );
    if report == Report::Map && !system.topology().is_uniform() {
        print!("{}", system.topology().describe());
        println!();
    }
    let ev = Evaluator::new(model, system);
    print!(
        "{}",
        mapping_report(&ev, &out.mapping, &out.locality, &out.schedule)
    );
    println!();
    if report == Report::Inspect {
        print!("{}", search_stats_report(&out.remap_stats));
        println!();
    }
    println!(
        "{}",
        render_gantt(model, system, &out.mapping, &out.schedule, 100)
    );
    println!(
        "{}",
        render_link_gantt(
            model,
            system,
            &out.mapping,
            &out.locality,
            &out.schedule,
            100
        )
    );
    Ok(())
}

/// `inspect --faults`: price the incumbent mapping, the time-budgeted
/// repair and a from-scratch remap on the fabric degraded by the fault
/// spec's first onset, and show what each costs in attempted moves.
fn fault_repair_report(
    model: &ModelGraph,
    system: &SystemSpec,
    spec: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    use h2h::core::repair::{repair_mapping, resolve_repair_budget, scratch_remap};
    use h2h::system::fault::FaultPlan;

    let plan = FaultPlan::parse(spec, system.num_accs())
        .map_err(|e| std::io::Error::other(format!("--faults: {e}")))?;
    let t0 = plan.boundaries()[0];
    let state = plan.state_at(h2h::model::units::Seconds::new(t0), system.num_accs());
    if state.is_healthy() {
        println!("fault condition at t={t0}s is healthy — nothing to repair");
        return Ok(());
    }
    let cfg = h2h::core::H2hConfig::default();
    let preset = h2h::core::PinPreset::new();
    let incumbent = H2hMapper::new(model, system).with_config(cfg).run()?;
    let degraded_sys = system.degrade(&state);
    println!("degraded fabric at t={t0}s (downed boards evacuated, links re-priced):");
    print!("{}", degraded_sys.topology().describe());
    println!();
    let ev = Evaluator::new(model, &degraded_sys);
    let budget = resolve_repair_budget(&cfg, model);
    let rep = repair_mapping(&ev, &cfg, &preset, &incumbent.mapping, &state, budget)?;
    let scratch = scratch_remap(model, system, &state, &cfg, &preset)?;
    println!(
        "repair report — healthy incumbent {}",
        incumbent.final_latency()
    );
    println!(
        "  incumbent-on-degraded {} ({} layers evacuated)",
        rep.incumbent_degraded,
        rep.evacuated.len()
    );
    println!(
        "  repaired-on-degraded  {} ({} of {} budgeted moves, {} accepted)",
        rep.repaired(),
        rep.stats.attempted_moves,
        budget,
        rep.stats.accepted_moves
    );
    println!(
        "  from-scratch remap    {} ({} attempted moves)",
        scratch.makespan, scratch.stats.attempted_moves
    );
    Ok(())
}

/// Extracts a `--flag <value>` pair wherever it appears and parses the
/// value. `Err` is the message to print before the usage line: the flag
/// is dangling, given twice, or its value does not parse.
fn take_flag<T>(
    args: &mut Vec<String>,
    flag: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let raw = args.remove(pos + 1);
    args.remove(pos);
    if args.iter().any(|a| a == flag) {
        return Err(format!("{flag} is given more than once"));
    }
    parse(&raw).map(Some).map_err(|e| format!("{flag}: {e}"))
}

/// The most arguments `cmd` takes once the value flags are extracted,
/// the command itself included.
fn max_args(cmd: &str) -> usize {
    match cmd {
        "zoo" | "accels" => 1,
        "sweep" => 2,
        "trace" => 4,
        _ => 3,
    }
}

/// The value flags, each `None` when absent; `zoo` and `accels` read
/// none of them.
struct ValueFlags {
    topology: Option<String>,
    faults: Option<String>,
    /// The modeled wall-time cost of one attempted repair move
    /// (`H2hConfig::repair_secs_per_move`); only `serve` reads it, as it
    /// does the arrival process, batch-forming policy and queue depth.
    repair_cost: Option<f64>,
    arrivals: Option<ArrivalProcess>,
    policy: Option<RoundPolicy>,
    queue_cap: Option<usize>,
}

impl ValueFlags {
    fn take(args: &mut Vec<String>) -> Result<Self, String> {
        let text = |s: &str| Ok(s.to_owned());
        Ok(ValueFlags {
            topology: take_flag(args, "--topology", text)?,
            faults: take_flag(args, "--faults", text)?,
            repair_cost: take_flag(args, "--repair-cost", |raw| match raw.parse::<f64>() {
                Ok(v) if v.is_finite() && v >= 0.0 => Ok(v),
                _ => Err(format!(
                    "seconds per move must be finite and >= 0, got `{raw}`"
                )),
            })?,
            arrivals: take_flag(args, "--arrivals", ArrivalProcess::parse)?,
            policy: take_flag(args, "--policy", RoundPolicy::parse)?,
            queue_cap: take_flag(args, "--queue-cap", |s| {
                s.parse::<usize>()
                    .map_err(|_| format!("`{s}` is not a queue depth"))
            })?,
        })
    }
}

fn run() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let flags = match ValueFlags::take(&mut args) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("{e}");
            return Ok(usage());
        }
    };
    let topology = flags.topology.as_deref();
    let faults = flags.faults.as_deref();
    let cmd = match args.first() {
        Some(c) => c.as_str(),
        None => return Ok(usage()),
    };
    if let Some(extra) = args.get(max_args(cmd)) {
        eprintln!("unexpected argument `{extra}`");
        return Ok(usage());
    }
    match cmd {
        "zoo" => {
            for model in h2h::model::zoo::all_models() {
                println!("{}\n", ModelStats::of(&model));
            }
        }
        "accels" => {
            print!("{}", h2h::accel::catalog::datasheet());
        }
        "map" => {
            let Some(model) = args.get(1).and_then(|n| model_by_name(n)) else {
                return Ok(usage());
            };
            let Some(bw) = bw_by_name(args.get(2).map(String::as_str)) else {
                return Ok(usage());
            };
            let system = system_for(bw, topology)?;
            map_and_report(&model, bw, &system, Report::Map)?;
        }
        "inspect" => {
            let Some(model) = args.get(1).and_then(|n| model_by_name(n)) else {
                return Ok(usage());
            };
            let Some(bw) = bw_by_name(args.get(2).map(String::as_str)) else {
                return Ok(usage());
            };
            let system = system_for(bw, topology)?;
            // The topology table renders unconditionally here (that is
            // what `inspect` is for); uniform fabrics print the
            // scalar-equivalent one-liner.
            print!("{}", system.topology().describe());
            println!();
            map_and_report(&model, bw, &system, Report::Inspect)?;
            if let Some(spec) = faults {
                fault_repair_report(&model, &system, spec)?;
            }
        }
        "sweep" => {
            let Some(model) = args.get(1).and_then(|n| model_by_name(n)) else {
                return Ok(usage());
            };
            println!(
                "{:<6} {:>12} {:>12} {:>11} {:>11}",
                "BW", "baseline", "H2H", "lat. red.", "energy red."
            );
            for bw in BandwidthClass::ALL {
                let system = system_for(bw, topology)?;
                let out = H2hMapper::new(&model, &system).run()?;
                println!(
                    "{:<6} {:>12} {:>12} {:>10.1}% {:>10.1}%",
                    bw.label(),
                    format!("{}", out.baseline_latency()),
                    format!("{}", out.final_latency()),
                    out.latency_reduction() * 100.0,
                    out.energy_reduction() * 100.0,
                );
            }
        }
        "parse" => {
            let Some(path) = args.get(1) else {
                return Ok(usage());
            };
            let Some(bw) = bw_by_name(args.get(2).map(String::as_str)) else {
                return Ok(usage());
            };
            let text = std::fs::read_to_string(path)?;
            let model = parse_model(&text)?;
            let system = system_for(bw, topology)?;
            map_and_report(&model, bw, &system, Report::Map)?;
        }
        "serve" => {
            let Some(names) = args.get(1) else {
                return Ok(usage());
            };
            let models: Option<Vec<ModelGraph>> = names.split(',').map(model_by_name).collect();
            let Some(models) = models else {
                return Ok(usage());
            };
            if models.is_empty() {
                return Ok(usage());
            }
            let Some(bw) = bw_by_name(args.get(2).map(String::as_str)) else {
                return Ok(usage());
            };
            let system = system_for(bw, topology)?;
            if !system.topology().is_uniform() {
                print!("{}", system.topology().describe());
                println!();
            }
            let cfg = h2h::core::H2hConfig {
                serve_verify: true,
                repair_secs_per_move: flags.repair_cost.unwrap_or(0.0),
                serve_policy: flags.policy.unwrap_or_default(),
                serve_queue_cap: flags.queue_cap.unwrap_or(0),
                ..Default::default()
            };
            let mut reg = h2h::core::serve::TenantRegistry::new(&system, cfg);
            for model in models {
                // Admit (one pipeline run), then scale the contract to
                // the tenant's own pace: a backlog-forming arrival
                // rate (4 requests per ideal latency) and a generous
                // 16x SLO over 32 requests. The arrival process
                // re-materializes against the scaled contract.
                let name = model.name().to_owned();
                let id = reg.admit(h2h::core::serve::TenantSpec::new(
                    name,
                    model,
                    1.0,
                    h2h::model::units::Seconds::new(1.0),
                    32,
                ))?;
                let ideal = reg.tenant(id).ideal_latency().as_f64();
                reg.set_contract(
                    id,
                    4.0 / ideal,
                    h2h::model::units::Seconds::new(16.0 * ideal),
                    32,
                )?;
                if let Some(process) = &flags.arrivals {
                    reg.set_arrivals(id, process.clone())?;
                }
            }
            if let Some(spec) = faults {
                let plan = h2h::system::fault::FaultPlan::parse(spec, system.num_accs())
                    .map_err(|e| std::io::Error::other(format!("--faults: {e}")))?;
                let faulted = reg.serve_with_faults(&plan)?;
                faulted.check_coherence().map_err(std::io::Error::other)?;
                let unrepaired = reg.serve_with_faults_unrepaired(&plan)?;
                print!("{}", h2h::core::report::serve_report(&faulted));
                println!(
                    "  unrepaired (evacuate-only) drain {} -> repaired {} ({:.2}x)",
                    unrepaired.makespan,
                    faulted.makespan,
                    unrepaired.makespan.as_f64() / faulted.makespan.as_f64().max(1e-12),
                );
            } else {
                let batched = reg.serve();
                batched.check_coherence().map_err(std::io::Error::other)?;
                let naive = reg.serve_naive();
                print!("{}", h2h::core::report::serve_report(&batched));
                println!(
                    "  naive per-request drain {} -> batched {} ({:.2}x)",
                    naive.makespan,
                    batched.makespan,
                    naive.makespan.as_f64() / batched.makespan.as_f64().max(1e-12),
                );
            }
        }
        "trace" => {
            let Some(model) = args.get(1).and_then(|n| model_by_name(n)) else {
                return Ok(usage());
            };
            let Some(bw) = bw_by_name(args.get(2).map(String::as_str)) else {
                return Ok(usage());
            };
            let Some(out_path) = args.get(3) else {
                return Ok(usage());
            };
            let system = system_for(bw, topology)?;
            let out = H2hMapper::new(&model, &system).run()?;
            let json = to_chrome_trace(&model, &system, &out.mapping, &out.schedule);
            std::fs::write(out_path, json)?;
            println!(
                "wrote {out_path} — open in chrome://tracing or ui.perfetto.dev ({} layers)",
                model.num_layers()
            );
        }
        _ => return Ok(usage()),
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
