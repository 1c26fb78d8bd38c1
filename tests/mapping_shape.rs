//! Shape-locking tests: the *mapping behaviours* that produce the
//! paper's per-model contrasts. If a catalog or zoo recalibration breaks
//! one of these, the reproduced Table 4 / Fig. 5a shapes break with it —
//! so they are pinned here, not just observed in EXPERIMENTS.md.

use std::collections::HashSet;

use h2h::core::baseline::computation_prioritized_baseline;
use h2h::core::config::H2hConfig;
use h2h::core::H2hMapper;
use h2h::model::layer::{LayerClass, LayerOp};
use h2h::model::zoo;
use h2h::system::{BandwidthClass, Evaluator, SystemSpec};

/// Fraction of conv→conv edges whose endpoints share an accelerator.
fn conv_adjacency(model: &h2h::model::ModelGraph, mapping: &h2h::system::Mapping) -> f64 {
    let mut total = 0usize;
    let mut same = 0usize;
    for (a, b, _) in model.edges() {
        if model.layer(a).class() == LayerClass::Conv && model.layer(b).class() == LayerClass::Conv
        {
            total += 1;
            if mapping.acc_of(a) == mapping.acc_of(b) {
                same += 1;
            }
        }
    }
    if total == 0 {
        1.0
    } else {
        same as f64 / total as f64
    }
}

#[test]
fn vlocnet_bottlenecks_scatter_under_computation_priority() {
    // The 1x1 layers prefer the systolic array while 3x3 layers prefer
    // the loop-optimized spatial designs, so computation-prioritized
    // mapping separates adjacent layers — the reason the paper's step 3
    // barely helps VLocNet while step 4 transforms it.
    let model = zoo::vlocnet();
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    let ev = Evaluator::new(&model, &system);
    let base = computation_prioritized_baseline(&ev, &H2hConfig::default()).unwrap();
    let adj = conv_adjacency(&model, &base.mapping);
    assert!(
        adj < 0.6,
        "step-1 conv adjacency should be scattered, got {adj:.2}"
    );

    // …and remapping re-gathers them.
    let h2h = H2hMapper::new(&model, &system).run().unwrap();
    let adj_after = conv_adjacency(&model, &h2h.mapping);
    assert!(
        adj_after > adj + 0.15,
        "remapping should co-locate conv chains: {adj:.2} -> {adj_after:.2}"
    );
}

#[test]
fn mocap_lstms_map_to_deep_pipeline_engines() {
    // MoCap's long-sequence LSTMs belong on the deep-pipeline engines.
    // Note the parallel streams may *spread* across BL and SH — step 1
    // minimizes ΔSys_latency, and overlapping two engines beats queueing
    // on the single fastest one. What must hold: no LSTM lands on a
    // generality device, and the best engine (BL) is used.
    let model = zoo::mocap();
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    let ev = Evaluator::new(&model, &system);
    let base = computation_prioritized_baseline(&ev, &H2hConfig::default()).unwrap();
    let homes: HashSet<String> = model
        .layers()
        .filter(|(_, l)| l.class() == LayerClass::Lstm)
        .map(|(id, _)| system.acc(base.mapping.acc_of(id)).meta().id.clone())
        .collect();
    assert!(
        homes.iter().all(|h| h == "BL" || h == "SH"),
        "LSTMs should sit on pipeline engines, got {homes:?}"
    );
    assert!(
        homes.contains("BL"),
        "the long-sequence specialist must be used"
    );

    // After the full pipeline, each stream's conv chain is co-located
    // (step 1 may spread parallel streams for overlap; remapping pulls
    // each chain back together so its big edges fuse).
    let h2h = H2hMapper::new(&model, &system).run().unwrap();
    for stream in ["mocap", "speech"] {
        let accs: HashSet<usize> = model
            .layers()
            .filter(|(_, l)| l.name().starts_with(&format!("{stream}.conv")))
            .map(|(id, _)| h2h.mapping.acc_of(id).index())
            .collect();
        assert_eq!(
            accs.len(),
            1,
            "{stream} conv chain should co-locate after H2H, got {accs:?}"
        );
    }
}

#[test]
fn cnn_lstm_video_chain_colocates_at_step_one() {
    // The video convolutions share shapes and therefore a preferred
    // accelerator — which is why CNN-LSTM gets a large step-3 (fusion)
    // gain in the paper's Table 4.
    let model = zoo::cnn_lstm();
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    let ev = Evaluator::new(&model, &system);
    let base = computation_prioritized_baseline(&ev, &H2hConfig::default()).unwrap();
    let video_accs: HashSet<usize> = model
        .layers()
        .filter(|(_, l)| l.name().starts_with("video.conv"))
        .map(|(id, _)| base.mapping.acc_of(id).index())
        .collect();
    assert!(
        video_accs.len() <= 2,
        "video conv chain should mostly co-locate, got {} accelerators",
        video_accs.len()
    );
}

#[test]
fn wide_fc_layers_map_to_fc_capable_engines() {
    // VFS's giant FC heads must land on FC-capable devices (BL/SH/JQ/YG)
    // — and at step 1 the wide ones prefer the high-throughput pipeline.
    let model = zoo::vfs();
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    let ev = Evaluator::new(&model, &system);
    let base = computation_prioritized_baseline(&ev, &H2hConfig::default()).unwrap();
    for (id, layer) in model.layers() {
        if layer.class() == LayerClass::Fc {
            let home = system.acc(base.mapping.acc_of(id)).meta().id.clone();
            assert!(
                ["BL", "SH", "JQ", "YG"].contains(&home.as_str()),
                "{} landed on {home}",
                layer.name()
            );
        }
    }
}

#[test]
fn stems_prefer_the_on_chip_memory_design() {
    // 3-channel stems starve channel-parallel designs; the balanced
    // row-stationary JZ is the pure-compute argmin for every zoo stem.
    // (The queued step-1 mapping may spread parallel stems across
    // second-best devices for overlap, so this pins the *cost model*
    // preference, which is what the paper's §2 argues.)
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    for model in [zoo::casia_surf(), zoo::vlocnet(), zoo::facebag()] {
        for (_, layer) in model.layers() {
            if let LayerOp::Conv(p) = layer.op() {
                if p.in_channels == 3 {
                    let best = system
                        .acc_ids()
                        .filter_map(|a| system.acc(a).compute_time(layer).map(|t| (t, a)))
                        .min_by(|x, y| x.0.partial_cmp(&y.0).unwrap())
                        .map(|(_, a)| system.acc(a).meta().id.clone())
                        .unwrap();
                    assert_eq!(
                        best,
                        "JZ",
                        "{}: stem {} argmin is {best}",
                        model.name(),
                        layer.name()
                    );
                }
            }
        }
    }
}

#[test]
fn h2h_reduces_cross_accelerator_traffic_on_every_model() {
    // The mechanism behind every reduction: the final mapping must move
    // fewer activation bytes across accelerators than the baseline.
    use h2h::core::report::mapping_report;
    for model in zoo::all_models() {
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let ev = Evaluator::new(&model, &system);
        let base = computation_prioritized_baseline(&ev, &H2hConfig::default()).unwrap();
        let h2h = H2hMapper::new(&model, &system).run().unwrap();
        let traffic = |rep: &h2h::core::report::MappingReport| -> u64 {
            rep.transfers.values().map(|b| b.as_u64()).sum()
        };
        let t_base = traffic(&mapping_report(
            &ev,
            &base.mapping,
            &base.locality,
            &base.schedule,
        ));
        let t_h2h = traffic(&mapping_report(
            &ev,
            &h2h.mapping,
            &h2h.locality,
            &h2h.schedule,
        ));
        assert!(
            t_h2h <= t_base,
            "{}: cross-acc traffic grew {t_base} -> {t_h2h}",
            model.name()
        );
    }
}
