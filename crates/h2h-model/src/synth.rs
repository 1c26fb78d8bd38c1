//! Synthetic MMMT model generator — the scaling substrate behind the
//! paper's closing remark that H2H "can be easily configured to catch up
//! with … the growing size of DNN models" (§6).
//!
//! Generates parameterized families of multi-modality multi-task graphs
//! in the shape of Fig. 1: per-modality backbones (vision ConvNets or
//! sequence Conv1d+LSTM stacks), optional cross-talk summaries exchanged
//! between branches, and a shared fusion trunk with multiple task heads.
//! Deterministic per seed, so scaling experiments are reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::builder::ModelBuilder;
use crate::graph::{LayerId, ModelError, ModelGraph};
use crate::tensor::TensorShape;

/// Parameters of a synthetic MMMT family.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyntheticConfig {
    /// Number of modality branches (≥ 1).
    pub modalities: usize,
    /// Weighted layers per branch (≥ 2).
    pub depth: usize,
    /// Fraction of branches that are vision (2-D conv) rather than
    /// sequence (conv1d + LSTM), in `[0, 1]`.
    pub vision_fraction: f64,
    /// Probability that an ordered branch pair exchanges a cross-talk
    /// summary (the MMMT "cross-talk" of Fig. 1), in `[0, 1]`.
    pub cross_talk: f64,
    /// Task heads on the fusion trunk (≥ 1).
    pub tasks: usize,
    /// RNG seed; equal seeds give identical graphs.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            modalities: 3,
            depth: 8,
            vision_fraction: 0.6,
            cross_talk: 0.35,
            tasks: 2,
            seed: 7,
        }
    }
}

/// Generates a synthetic MMMT model.
///
/// # Panics
///
/// Panics if `modalities == 0`, `depth < 2` or `tasks == 0`; generated
/// graphs are otherwise valid by construction (asserted by tests).
pub fn synthetic_mmmt(cfg: &SyntheticConfig) -> ModelGraph {
    assert!(cfg.modalities >= 1, "need at least one modality");
    assert!(cfg.depth >= 2, "need at least two layers per branch");
    assert!(cfg.tasks >= 1, "need at least one task head");
    try_build(cfg).expect("synthetic models are valid by construction")
}

fn try_build(cfg: &SyntheticConfig) -> Result<ModelGraph, ModelError> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut b = ModelBuilder::new(format!(
        "synth-m{}-d{}-s{}",
        cfg.modalities, cfg.depth, cfg.seed
    ));

    // Per-branch outputs: (mid-level summary vector, final vector).
    let mut summaries: Vec<LayerId> = Vec::new();
    let mut finals: Vec<LayerId> = Vec::new();

    for m in 0..cfg.modalities {
        let tag = format!("mod{m}");
        b.modality(Some(&tag));
        let vision = (m as f64 + 0.5) / cfg.modalities as f64 <= cfg.vision_fraction;
        let (summary, fin) = if vision {
            vision_branch(&mut b, &tag, cfg.depth, &mut rng)?
        } else {
            sequence_branch(&mut b, &tag, cfg.depth, &mut rng)?
        };
        summaries.push(summary);
        finals.push(fin);
    }

    // Cross-talk: branch j consumes branch i's mid-level summary through
    // a private adapter FC (keeps shapes trivially compatible).
    b.modality(None);
    let mut head_inputs = finals.clone();
    let mut summary_used = vec![false; cfg.modalities];
    for i in 0..cfg.modalities {
        for j in 0..cfg.modalities {
            if i == j || cfg.modalities < 2 {
                continue;
            }
            if rng.random_bool(cfg.cross_talk.clamp(0.0, 1.0)) {
                let adapter = b.fc(
                    &format!("xt.{i}to{j}"),
                    summaries[i],
                    rng.random_range(32..=128),
                )?;
                head_inputs.push(adapter);
                summary_used[i] = true;
            }
        }
    }
    // Summaries that fed no adapter still reach the fusion trunk, so no
    // branch output dangles (sinks are exactly the task heads).
    for (i, summary) in summaries.iter().enumerate() {
        if !summary_used[i] && !head_inputs.contains(summary) {
            head_inputs.push(*summary);
        }
    }

    // Fusion trunk + task heads.
    let cat = if head_inputs.len() >= 2 {
        b.concat("fuse.cat", &head_inputs)?
    } else {
        head_inputs[0]
    };
    let f1 = b.fc("fuse.fc1", cat, rng.random_range(512..=2048))?;
    let f2 = b.fc("fuse.fc2", f1, rng.random_range(256..=1024))?;
    for t in 0..cfg.tasks {
        b.fc(&format!("head.task{t}"), f2, rng.random_range(2..=64))?;
    }
    b.finish()
}

fn vision_branch(
    b: &mut ModelBuilder,
    tag: &str,
    depth: usize,
    rng: &mut StdRng,
) -> Result<(LayerId, LayerId), ModelError> {
    let side = *[96u32, 112, 128, 160]
        .get(rng.random_range(0..4usize))
        .expect("static");
    let input = b.input(
        &format!("{tag}.in"),
        TensorShape::Feature {
            c: 3,
            h: side,
            w: side,
        },
    );
    let mut channels = 8 * rng.random_range(4u32..=8);
    let mut x = b.conv(
        &format!("{tag}.stem"),
        input,
        channels,
        rng.random_range(3..=7),
        2,
    )?;
    let mut summary = None;
    for d in 0..depth.saturating_sub(1) {
        let stride = if rng.random_bool(0.4) { 2 } else { 1 };
        if stride == 2 {
            channels = (channels * 2).min(512);
        }
        let k = if rng.random_bool(0.25) { 1 } else { 3 };
        let conv = b.conv(&format!("{tag}.conv{d}"), x, channels, k, stride)?;
        // Residual add when shapes survived.
        x = if k == 3 && stride == 1 && b.shape(conv).same_as(&b.shape(x)) {
            b.add(&format!("{tag}.res{d}"), &[conv, x])?
        } else {
            conv
        };
        if d + 1 == depth / 2 {
            summary = Some(b.global_pool(&format!("{tag}.mid_gap"), x)?);
        }
    }
    let gap = b.global_pool(&format!("{tag}.gap"), x)?;
    Ok((summary.unwrap_or(gap), gap))
}

fn sequence_branch(
    b: &mut ModelBuilder,
    tag: &str,
    depth: usize,
    rng: &mut StdRng,
) -> Result<(LayerId, LayerId), ModelError> {
    let steps = rng.random_range(500..=4000);
    let features = 8 * rng.random_range(2u32..=16);
    let input = b.input(
        &format!("{tag}.in"),
        TensorShape::Sequence { steps, features },
    );
    let mut x = input;
    let conv_layers = depth / 2;
    let mut channels = 8 * rng.random_range(8u32..=32);
    for d in 0..conv_layers {
        let stride = if rng.random_bool(0.5) { 2 } else { 1 };
        x = b.conv1d(
            &format!("{tag}.c1d{d}"),
            x,
            channels,
            rng.random_range(3..=5),
            stride,
        )?;
        channels = (channels + 64).min(512);
    }
    let hidden = 8 * rng.random_range(16u32..=64);
    let mut summary = None;
    for d in 0..(depth - conv_layers).max(1) {
        let last = d + 1 == (depth - conv_layers).max(1);
        x = b.lstm(&format!("{tag}.lstm{d}"), x, hidden, 1, !last)?;
        if !last && summary.is_none() {
            // Mid-level summary: adapter over the running sequence.
            summary = Some(b.fc(&format!("{tag}.mid_fc"), x, 64)?);
        }
    }
    let fin = b.fc(&format!("{tag}.out_fc"), x, hidden)?;
    Ok((summary.unwrap_or(fin), fin))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ModelStats;

    #[test]
    fn default_config_generates_valid_mmmt() {
        let m = synthetic_mmmt(&SyntheticConfig::default());
        m.validate().unwrap();
        let s = ModelStats::of(&m);
        assert_eq!(s.modalities.len(), 3);
        assert!(s.conv_layers > 0);
        assert!(s.lstm_layers > 0, "default has a sequence branch");
        assert!(s.fc_layers >= 4, "fusion trunk + heads");
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = SyntheticConfig::default();
        let a = synthetic_mmmt(&cfg);
        let c = synthetic_mmmt(&cfg);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&c).unwrap(),
            "same seed must generate identical graphs"
        );
        let d = synthetic_mmmt(&SyntheticConfig { seed: 8, ..cfg });
        assert_ne!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&d).unwrap(),
            "different seeds should differ"
        );
    }

    #[test]
    fn scales_with_modalities_and_depth() {
        let small = ModelStats::of(&synthetic_mmmt(&SyntheticConfig {
            modalities: 2,
            depth: 4,
            ..Default::default()
        }));
        let big = ModelStats::of(&synthetic_mmmt(&SyntheticConfig {
            modalities: 6,
            depth: 12,
            ..Default::default()
        }));
        assert!(big.layers > small.layers * 2);
        assert_eq!(big.modalities.len(), 6);
    }

    #[test]
    fn cross_talk_dial_adds_edges() {
        let none = synthetic_mmmt(&SyntheticConfig {
            cross_talk: 0.0,
            ..Default::default()
        });
        let full = synthetic_mmmt(&SyntheticConfig {
            cross_talk: 1.0,
            ..Default::default()
        });
        let n0 = ModelStats::of(&none);
        let n1 = ModelStats::of(&full);
        assert!(
            n1.layers > n0.layers,
            "cross-talk adapters should add layers ({} vs {})",
            n1.layers,
            n0.layers
        );
        // 3 modalities, all ordered pairs -> 6 adapters.
        let adapters = n1.layers - n0.layers;
        assert_eq!(adapters, 6);
    }

    #[test]
    fn pure_vision_family_has_no_lstm() {
        let m = synthetic_mmmt(&SyntheticConfig {
            vision_fraction: 1.0,
            ..Default::default()
        });
        assert_eq!(ModelStats::of(&m).lstm_layers, 0);
    }

    #[test]
    fn task_count_controls_sinks() {
        let m = synthetic_mmmt(&SyntheticConfig {
            tasks: 4,
            ..Default::default()
        });
        assert_eq!(m.sinks().len(), 4);
    }

    #[test]
    #[should_panic(expected = "at least two layers")]
    fn rejects_degenerate_depth() {
        let _ = synthetic_mmmt(&SyntheticConfig {
            depth: 1,
            ..Default::default()
        });
    }
}
