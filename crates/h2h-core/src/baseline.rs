//! Comparison mappers (paper §2 / §5.2).
//!
//! * [`computation_prioritized_baseline`] — the paper's evaluation
//!   baseline: dataflow-preference mapping \[10\] plus weight locality
//!   (steps 1–2 of the pipeline), no activation awareness.
//! * [`cluster_mapping`] — a communication-prioritized mapper in the
//!   spirit of Taura et al. \[17\]: one cluster per modality, each cluster
//!   pinned to a single accelerator. Good locality, poor compute fit —
//!   the failure mode §2 describes.
//! * [`random_mapping`] — a validity-respecting random assignment, the
//!   sanity floor.
//! * [`exhaustive_best`] — brute force over all assignments (tiny graphs
//!   only), the optimality reference for tests.

use std::collections::BTreeMap;

use h2h_model::units::Seconds;
use h2h_system::locality::LocalityState;
use h2h_system::mapping::Mapping;
use h2h_system::schedule::{Evaluator, Schedule};
use h2h_system::system::AccId;

use crate::activation_fusion::rebuild_locality;
use crate::compute_map::computation_prioritized;
use crate::config::H2hConfig;
use crate::delta::SearchStats;
use crate::pipeline::H2hError;
use crate::preset::PinPreset;
use crate::weight_locality::weight_locality_opt;

/// A mapper result: mapping + locality + evaluated schedule.
#[derive(Debug)]
pub struct BaselineOutcome {
    /// The produced mapping.
    pub mapping: Mapping,
    /// The locality state the mapper is allowed to use.
    pub locality: LocalityState,
    /// The evaluated schedule.
    pub schedule: Schedule,
    /// Evaluation counters (zero for single-shot mappers; populated by
    /// iterative searches like simulated annealing).
    pub stats: SearchStats,
}

/// The paper's baseline: computation-prioritized mapping with weight
/// locality but no activation awareness (steps 1–2).
///
/// # Errors
///
/// Returns [`H2hError::NoCapableAccelerator`] if some layer cannot run
/// anywhere.
pub fn computation_prioritized_baseline(
    ev: &Evaluator<'_>,
    cfg: &H2hConfig,
) -> Result<BaselineOutcome, H2hError> {
    let (mapping, _) = computation_prioritized(ev, cfg, &PinPreset::new())?;
    let locality = weight_locality_opt(
        ev,
        &mapping,
        LocalityState::new(ev.system()),
        cfg.knapsack,
        &PinPreset::new(),
    );
    let schedule = ev.evaluate(&mapping, &locality);
    Ok(BaselineOutcome {
        mapping,
        locality,
        schedule,
        stats: SearchStats::default(),
    })
}

/// Communication-prioritized cluster mapping: all layers of one modality
/// (and one shared cluster for untagged layers) land on a single
/// accelerator chosen to minimize the cluster's total compute time;
/// layers the chosen accelerator cannot run spill to their individually
/// best-supported device. Weight locality and fusion are then applied —
/// clustering gets the full benefit of locality, its weakness is compute
/// misfit, as in the paper's §2 discussion.
///
/// # Errors
///
/// Returns [`H2hError::NoCapableAccelerator`] if some layer cannot run
/// anywhere.
pub fn cluster_mapping(ev: &Evaluator<'_>, cfg: &H2hConfig) -> Result<BaselineOutcome, H2hError> {
    let model = ev.model();
    let system = ev.system();

    // Group layers by modality tag (None -> shared cluster "").
    let mut clusters: BTreeMap<String, Vec<h2h_model::graph::LayerId>> = BTreeMap::new();
    for (id, layer) in model.layers() {
        clusters
            .entry(layer.modality().unwrap_or("").to_owned())
            .or_default()
            .push(id);
    }

    let mut mapping = Mapping::new(model);
    for members in clusters.values() {
        // Pick the accelerator with the lowest total compute time over
        // the cluster; unsupported layers count a large penalty.
        let mut best: Option<(f64, AccId)> = None;
        for acc in system.acc_ids() {
            let mut cost = 0.0;
            for &id in members {
                match ev.cache().time(id, acc) {
                    Some(t) => cost += t.as_f64(),
                    None => cost += 1e6,
                }
            }
            if best.is_none_or(|(c, _)| cost < c) {
                best = Some((cost, acc));
            }
        }
        let (_, home) = best.expect("non-empty system");
        for &id in members {
            if ev.cache().time(id, home).is_some() {
                mapping.set(id, home);
            } else {
                // Spill to the individually fastest capable device.
                let spill = system
                    .acc_ids()
                    .filter_map(|a| ev.cache().time(id, a).map(|t| (t, a)))
                    .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"))
                    .map(|(_, a)| a)
                    .ok_or_else(|| H2hError::NoCapableAccelerator {
                        layer: model.layer(id).name().to_owned(),
                    })?;
                mapping.set(id, spill);
            }
        }
    }

    let locality = rebuild_locality(ev, &mapping, cfg, &PinPreset::new());
    let schedule = ev.evaluate(&mapping, &locality);
    Ok(BaselineOutcome {
        mapping,
        locality,
        schedule,
        stats: SearchStats::default(),
    })
}

/// Deterministic xorshift64* stream of the seeded mappers
/// ([`random_mapping`], [`crate::anneal::simulated_annealing`]); the
/// crate stays dependency-free.
pub(crate) struct XorShift(u64);

impl XorShift {
    /// Every seed but 0 is its own state, so distinct non-zero seeds
    /// give distinct streams; 0, xorshift's fixed point, maps to a fixed
    /// non-zero constant.
    pub(crate) fn new(seed: u64) -> Self {
        XorShift(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A validity-respecting pseudo-random mapping (xorshift64*, so the
/// crate stays dependency-free); layers land on uniformly drawn capable
/// accelerators. Zero locality.
///
/// # Errors
///
/// Returns [`H2hError::NoCapableAccelerator`] if some layer cannot run
/// anywhere.
pub fn random_mapping(ev: &Evaluator<'_>, seed: u64) -> Result<BaselineOutcome, H2hError> {
    let model = ev.model();
    let system = ev.system();
    let mut rng = XorShift::new(seed);
    let mut mapping = Mapping::new(model);
    for (id, layer) in model.layers() {
        let capable: Vec<AccId> = system
            .acc_ids()
            .filter(|a| ev.cache().time(id, *a).is_some())
            .collect();
        if capable.is_empty() {
            return Err(H2hError::NoCapableAccelerator {
                layer: layer.name().to_owned(),
            });
        }
        let pick = (rng.next_u64() % capable.len() as u64) as usize;
        mapping.set(id, capable[pick]);
    }
    let locality = LocalityState::new(system);
    let schedule = ev.evaluate(&mapping, &locality);
    Ok(BaselineOutcome {
        mapping,
        locality,
        schedule,
        stats: SearchStats::default(),
    })
}

/// Brute-force optimum over all capable assignments, with steps 2–3
/// applied to each candidate — the reference H2H is measured against in
/// tests. Returns `None` when the search space exceeds `max_combos`.
pub fn exhaustive_best(
    ev: &Evaluator<'_>,
    cfg: &H2hConfig,
    max_combos: usize,
) -> Option<(Mapping, Schedule)> {
    let model = ev.model();
    let system = ev.system();
    let layers: Vec<_> = model.topo_order();
    let candidates: Vec<Vec<AccId>> = layers
        .iter()
        .map(|id| {
            system
                .acc_ids()
                .filter(|a| ev.cache().time(*id, *a).is_some())
                .collect::<Vec<_>>()
        })
        .collect();
    let combos = candidates
        .iter()
        .map(|c| c.len())
        .try_fold(1usize, |acc, n| acc.checked_mul(n))?;
    if combos == 0 || combos > max_combos {
        return None;
    }

    let mut idx = vec![0usize; layers.len()];
    let mut best: Option<(Seconds, Mapping, Schedule)> = None;
    loop {
        let mut mapping = Mapping::new(model);
        for (i, layer) in layers.iter().enumerate() {
            mapping.set(*layer, candidates[i][idx[i]]);
        }
        let loc = rebuild_locality(ev, &mapping, cfg, &PinPreset::new());
        let sched = ev.evaluate(&mapping, &loc);
        if best.as_ref().is_none_or(|(b, _, _)| sched.makespan() < *b) {
            best = Some((sched.makespan(), mapping, sched));
        }
        let mut pos = 0;
        loop {
            if pos == idx.len() {
                break;
            }
            idx[pos] += 1;
            if idx[pos] < candidates[pos].len() {
                break;
            }
            idx[pos] = 0;
            pos += 1;
        }
        if pos == idx.len() {
            break;
        }
    }
    best.map(|(_, m, s)| (m, s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::H2hMapper;
    use h2h_model::builder::ModelBuilder;
    use h2h_model::graph::ModelGraph;
    use h2h_model::tensor::TensorShape;
    use h2h_system::system::{BandwidthClass, SystemSpec};
    use h2h_system::testutil::{const_system, ConstAccel};

    fn tiny_mmmt() -> ModelGraph {
        let mut b = ModelBuilder::new("tiny");
        b.modality(Some("a"));
        let ia = b.input("ia", TensorShape::Vector { features: 4096 });
        let fa = b.fc("fa", ia, 4096).unwrap();
        b.modality(Some("v"));
        let iv = b.input("iv", TensorShape::Vector { features: 4096 });
        let fv = b.fc("fv", iv, 4096).unwrap();
        b.modality(None);
        let cat = b.concat("cat", &[fa, fv]).unwrap();
        b.fc("head", cat, 16).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn h2h_dominates_all_baselines_on_mocap() {
        let model = h2h_model::zoo::mocap();
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let ev = Evaluator::new(&model, &system);
        let cfg = H2hConfig::default();

        let h2h = H2hMapper::new(&model, &system).run().unwrap();
        let comp = computation_prioritized_baseline(&ev, &cfg).unwrap();
        let rand = random_mapping(&ev, 42).unwrap();

        assert!(h2h.final_latency() <= comp.schedule.makespan());
        assert!(h2h.final_latency() <= rand.schedule.makespan());
    }

    #[test]
    fn cluster_mapping_uses_few_accelerators() {
        let model = h2h_model::zoo::cnn_lstm();
        let system = SystemSpec::standard(BandwidthClass::LowMinus);
        let ev = Evaluator::new(&model, &system);
        let out = cluster_mapping(&ev, &H2hConfig::default()).unwrap();
        out.mapping.validate(&model, &system).unwrap();
        let used: std::collections::HashSet<usize> = model
            .layer_ids()
            .map(|id| out.mapping.acc_of(id).index())
            .collect();
        // ≤ one home per modality + shared + a couple of spill targets.
        assert!(used.len() <= 7, "cluster mapping used {} accs", used.len());
    }

    #[test]
    fn random_mapping_is_deterministic_per_seed() {
        let model = h2h_model::zoo::cnn_lstm();
        let system = SystemSpec::standard(BandwidthClass::Mid);
        let ev = Evaluator::new(&model, &system);
        let a = random_mapping(&ev, 7).unwrap();
        let b = random_mapping(&ev, 7).unwrap();
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.schedule.makespan(), b.schedule.makespan());
        // Neighbouring seeds must not alias (seeding with `seed | 1`
        // once gave 6 and 7 the same stream).
        let c = random_mapping(&ev, 6).unwrap();
        assert_ne!(a.mapping, c.mapping, "seeds 6 and 7 gave the same mapping");
    }

    #[test]
    fn xorshift_seeds_do_not_alias() {
        let first = |seed| XorShift::new(seed).next_u64();
        assert_ne!(first(0), 0, "seed 0 must leave the all-zero fixed point");
        assert_ne!(first(0), first(1));
        assert_ne!(first(6), first(7));
    }

    #[test]
    fn h2h_matches_exhaustive_on_tiny_graphs() {
        // 6 layers × 3 universal accelerators = 729 assignments.
        let model = tiny_mmmt();
        let system = const_system(
            vec![
                ConstAccel::universal("u0", 0.02),
                ConstAccel::universal("u1", 0.03),
                ConstAccel::universal("u2", 0.05),
            ],
            1e7,
        );
        let ev = Evaluator::new(&model, &system);
        let cfg = H2hConfig::default();
        let (_, best) = exhaustive_best(&ev, &cfg, 100_000).expect("in budget");
        let h2h = H2hMapper::new(&model, &system).run().unwrap();
        let opt = best.makespan().as_f64();
        let got = h2h.final_latency().as_f64();
        assert!(got >= opt - 1e-12, "H2H cannot beat the exhaustive optimum");
        assert!(
            got <= opt * 1.3,
            "H2H ({got:.6}) should be within 30% of optimal ({opt:.6})"
        );
    }

    #[test]
    fn exhaustive_declines_oversized_spaces() {
        let model = h2h_model::zoo::cnn_lstm();
        let system = SystemSpec::standard(BandwidthClass::Mid);
        let ev = Evaluator::new(&model, &system);
        assert!(exhaustive_best(&ev, &H2hConfig::default(), 10_000).is_none());
    }
}
