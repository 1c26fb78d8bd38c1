//! The system-level list scheduler (`update_System_Scheduling` in the
//! paper's Algorithm 1).
//!
//! Given a mapping and a locality state, computes every layer's timing
//! decomposition and the end-to-end system latency and energy. Per-layer
//! latency follows the paper's §4.1 semantics: *weight transfer + IFM
//! transfer + computation + OFM transfer*, serialized on the owning
//! accelerator. With zero locality every term crosses Ethernet through
//! the host; pinned weights and fused activations replace Ethernet
//! round-trips with local-DRAM traffic.
//!
//! Transfer rules (routed over [`crate::topology::Topology`]; the
//! uniform-star default reproduces DESIGN.md §6's scalar `BW_acc`
//! bitwise):
//! * weights: host→acc at the host route's effective bandwidth, or
//!   local DRAM read if pinned;
//! * IFM: one download per unfused incoming edge at the
//!   producer→consumer route's rate; fused edges read from local DRAM;
//!   edges from `Input` layers charge the host→consumer route (the raw
//!   modality data lives at the host);
//! * OFM: one upload if any outgoing edge is unfused **or** the layer
//!   is a model output, at the slowest route among the remote
//!   consumers (host for outputs); one local-DRAM write if any
//!   outgoing edge is fused.
//!
//! # Data-oriented hot path
//!
//! [`Evaluator::layer_cost`] is the unit cost of the entire search
//! stack — the delta engine scores millions of candidates through it —
//! so everything the kernel reads is flattened into structure-of-arrays
//! tables, in two halves:
//!
//! * [`ModelTables`], derived from the model (and the accelerator
//!   catalog's compute costs): per-layer weight/OFM byte volumes and
//!   Input bits, CSR predecessor/successor adjacency with per-edge byte
//!   volumes, the dense per-(layer, accelerator) compute table, and the
//!   global topological order with its ranks. It is built once per model
//!   and shared behind an [`Arc`] by every evaluator view of that model
//!   and by every [`crate::incremental::IncrementalSchedule`] seeded
//!   from one, which reads its order, ranks and adjacency from it.
//! * [`FabricRates`], derived from one [`SystemSpec`] view: the dense
//!   `(src, dst)` route-rate matrix copied from the
//!   [`crate::topology::Topology`], per-accelerator DRAM rates and
//!   compute-slowdown factors — O(accelerators²).
//!
//! [`Evaluator::from_tables`] binds the two without deriving anything,
//! so a batch change is an O(1) view of the same tables and a fabric
//! switch (a degraded view of the same boards) costs only a new
//! [`FabricRates`]. The hot kernel is straight-line arithmetic over
//! indexed arrays — no `model.layer`, `edge_bytes` (a per-edge linear
//! scan in the graph backend) or `path_bw` calls.
//!
//! Bit-identity is preserved by construction, not by accident: the flat
//! tables store the *same* unit-typed values (`Bytes`, `BytesPerSec`,
//! `Seconds`) the pointer-chasing path reads, the CSR rows are built by
//! iterating `predecessors`/`successors` in graph order (float
//! accumulation order is unchanged), and every arithmetic expression is
//! the same sequence of IEEE operations. The original implementation is
//! retained as [`Evaluator::layer_cost_reference`] — the executable
//! spec — and a property test asserts bitwise equality across the model
//! zoo, fabrics and random mapping/locality states.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use h2h_model::graph::{LayerId, ModelGraph};
use h2h_model::layer::LayerOp;
use h2h_model::tensor::DataType;
use h2h_model::units::{Bytes, BytesPerSec, Joules, Seconds};

use crate::locality::LocalityState;
use crate::mapping::Mapping;
use crate::system::{AccId, SystemSpec};
use crate::topology::Endpoint;

/// Memoized per-(layer, accelerator) compute costs, flat at `layer *
/// n_accs + acc`. Building one of these once per model/system pair
/// makes repeated schedule evaluations (the inner loop of remapping)
/// pure arithmetic. Times are stored at healthy speed and no entry
/// depends on the fabric, so a cache built on a system stays valid on
/// every degraded view of it ([`SystemSpec::degrade`]).
#[derive(Debug, Clone)]
pub struct CostCache {
    n_accs: usize,
    time: Vec<Option<Seconds>>,
    energy: Vec<Option<Joules>>,
}

impl CostCache {
    /// Precomputes compute time/energy for every layer on every
    /// accelerator (`None` where unsupported).
    pub fn new(model: &ModelGraph, system: &SystemSpec) -> Self {
        let n_accs = system.num_accs();
        let mut time = vec![None; model.id_bound() * n_accs];
        let mut energy = vec![None; model.id_bound() * n_accs];
        for (id, layer) in model.layers() {
            for acc in system.acc_ids() {
                let at = id.index() * n_accs + acc.index();
                time[at] = system.acc(acc).compute_time(layer);
                energy[at] = system.acc(acc).compute_energy(layer);
            }
        }
        CostCache {
            n_accs,
            time,
            energy,
        }
    }

    /// Cached compute time of `layer` on `acc` (`None` if unsupported).
    ///
    /// # Panics
    ///
    /// Panics if `layer` or `acc` is out of range.
    pub fn time(&self, layer: LayerId, acc: AccId) -> Option<Seconds> {
        self.time[self.at(layer, acc)]
    }

    /// Cached compute energy of `layer` on `acc`.
    ///
    /// # Panics
    ///
    /// Panics if `layer` or `acc` is out of range.
    pub fn energy(&self, layer: LayerId, acc: AccId) -> Option<Joules> {
        self.energy[self.at(layer, acc)]
    }

    /// Flat index of `(layer, acc)`. An accelerator past the row would
    /// read the next layer's entry, so it is rejected.
    fn at(&self, layer: LayerId, acc: AccId) -> usize {
        assert!(acc.index() < self.n_accs, "{acc:?} out of range");
        layer.index() * self.n_accs + acc.index()
    }
}

/// The model-derived tables every evaluator view of one model shares
/// (see the module docs). Indices follow the repo-wide conventions:
/// layers by `LayerId::index()` up to `ModelGraph::id_bound()` (holes
/// hold zeros/empty rows), accelerators by `AccId::index()`.
#[derive(Debug)]
pub struct ModelTables {
    /// Compute time and energy per (layer, accelerator).
    pub(crate) cache: CostCache,
    /// Weight bytes per layer (F32).
    pub(crate) wbytes: Vec<Bytes>,
    /// OFM bytes per layer (F32).
    pub(crate) obytes: Vec<Bytes>,
    /// Whether the layer is a model input.
    pub(crate) is_input: Vec<bool>,
    /// Layers with weights paired with their F32 weight bytes, in graph
    /// iteration order (the step-2 knapsack's item order, part of the
    /// bit-identity contract: knapsack ties break by this order).
    pub(crate) weighted: Vec<(LayerId, Bytes)>,
    /// CSR offsets into `pred_src`/`pred_bytes`, one row per layer
    /// index, in graph iteration order (IFM float-sum order).
    pub(crate) pred_off: Vec<u32>,
    pub(crate) pred_src: Vec<LayerId>,
    pub(crate) pred_bytes: Vec<Bytes>,
    /// CSR offsets into `succ_dst` and `succ_rank`.
    pub(crate) succ_off: Vec<u32>,
    pub(crate) succ_dst: Vec<LayerId>,
    /// Each `succ_dst` entry's topological rank: the incremental
    /// wavefront stamps pending layers by rank, and storing the ranks
    /// pre-translated saves a `rank` gather per edge in the hottest loop
    /// of the search core.
    pub(crate) succ_rank: Vec<u32>,
    /// The global topological priority (`ModelGraph::topo_order`): the
    /// evaluator's iteration order and every accelerator's queue order.
    pub(crate) order: Vec<LayerId>,
    /// Rank of each layer in `order` (`usize::MAX` for holes).
    pub(crate) rank: Vec<usize>,
}

impl ModelTables {
    fn build(model: &ModelGraph, cache: CostCache) -> Self {
        let bound = model.id_bound();
        let mut wbytes = vec![Bytes::ZERO; bound];
        let mut obytes = vec![Bytes::ZERO; bound];
        let mut is_input = vec![false; bound];
        let mut weighted = Vec::new();
        for (id, layer) in model.layers() {
            let wb = layer.weight_bytes(DataType::F32);
            wbytes[id.index()] = wb;
            if wb > Bytes::ZERO {
                weighted.push((id, wb));
            }
            obytes[id.index()] = layer.ofm_bytes(DataType::F32);
            is_input[id.index()] = matches!(layer.op(), LayerOp::Input { .. });
        }

        // CSR rows are filled in ascending layer-index order so the
        // offset table and the flat arrays stay in lockstep; within a
        // row, edges keep the graph's `predecessors`/`successors`
        // iteration order (the IFM term is a float sum, so its order is
        // part of the bit-identity contract).
        let mut ids: Vec<LayerId> = model.layer_ids().collect();
        ids.sort_unstable_by_key(|id| id.index());
        let mut pred_off = vec![0u32; bound + 1];
        let mut succ_off = vec![0u32; bound + 1];
        for &id in &ids {
            pred_off[id.index() + 1] = model.predecessors(id).count() as u32;
            succ_off[id.index() + 1] = model.successors(id).count() as u32;
        }
        for i in 0..bound {
            pred_off[i + 1] += pred_off[i];
            succ_off[i + 1] += succ_off[i];
        }
        let mut pred_src = Vec::with_capacity(pred_off[bound] as usize);
        let mut pred_bytes = Vec::with_capacity(pred_off[bound] as usize);
        let mut succ_dst = Vec::with_capacity(succ_off[bound] as usize);
        for &id in &ids {
            debug_assert_eq!(pred_src.len(), pred_off[id.index()] as usize);
            for p in model.predecessors(id) {
                pred_src.push(p);
                pred_bytes.push(model.edge_bytes(p, id).expect("predecessor edge exists"));
            }
            debug_assert_eq!(succ_dst.len(), succ_off[id.index()] as usize);
            for s in model.successors(id) {
                succ_dst.push(s);
            }
        }

        let order = model.topo_order();
        let mut rank = vec![usize::MAX; bound];
        for (r, id) in order.iter().enumerate() {
            rank[id.index()] = r;
        }
        let succ_rank = succ_dst.iter().map(|s| rank[s.index()] as u32).collect();

        ModelTables {
            cache,
            wbytes,
            obytes,
            is_input,
            weighted,
            pred_off,
            pred_src,
            pred_bytes,
            succ_off,
            succ_dst,
            succ_rank,
            order,
            rank,
        }
    }

    /// Row bound of the per-layer tables (`ModelGraph::id_bound()`).
    fn bound(&self) -> usize {
        self.wbytes.len()
    }
}

/// The fabric rates of one [`SystemSpec`] view (see the module docs):
/// O(accelerators²), so a fabric switch derives only these. Route nodes
/// follow the [`Endpoint`] numbering (host 0, accelerator `i` at
/// `i + 1`).
#[derive(Debug)]
pub struct FabricRates {
    /// Route-matrix side length (`n_accs + 1`).
    nodes: usize,
    n_accs: usize,
    /// Effective `src → dst` rate at `src * nodes + dst`.
    route: Vec<BytesPerSec>,
    /// Local DRAM rate per accelerator.
    dram_bw: Vec<BytesPerSec>,
    /// Compute-slowdown factor per accelerator (1.0 when healthy).
    compute_factor: Vec<f64>,
}

impl FabricRates {
    /// Copies `system`'s route-rate matrix, DRAM rates and compute
    /// factors.
    pub fn new(system: &SystemSpec) -> Self {
        let n_accs = system.num_accs();
        let nodes = n_accs + 1;
        let route = system.topology().route_rate_matrix();
        debug_assert_eq!(route.len(), nodes * nodes);
        FabricRates {
            nodes,
            n_accs,
            route,
            dram_bw: system
                .acc_ids()
                .map(|a| system.acc(a).dram_bandwidth())
                .collect(),
            compute_factor: system.acc_ids().map(|a| system.compute_factor(a)).collect(),
        }
    }
}

/// Full cost decomposition of one layer under a `(mapping, locality)`
/// pair — everything a schedule needs to know about the layer except
/// *when* it runs. [`Evaluator::layer_cost`] is the single source of
/// truth for these terms: the full evaluator and the incremental delta
/// engine both consume it, so the two can never drift apart.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LayerCost {
    /// Weight-transfer share (Ethernet or local DRAM).
    pub weight_xfer: Seconds,
    /// IFM-download share (all incoming edges).
    pub ifm_xfer: Seconds,
    /// Pure compute share.
    pub compute: Seconds,
    /// OFM-upload share.
    pub ofm_xfer: Seconds,
    /// Portion of the above spent on Ethernet.
    pub eth_time: Seconds,
    /// Portion of the above spent on local DRAM.
    pub dram_time: Seconds,
    /// Bytes touching local DRAM (the Ethernet-side energy model is
    /// time-based, so Ethernet bytes are not tracked).
    pub dram_bytes: Bytes,
    /// PE-array dynamic energy.
    pub compute_energy: Joules,
}

impl LayerCost {
    /// Serialized occupancy of the owning accelerator — the exact sum
    /// (in the exact order) the list scheduler adds to a layer's start
    /// time, so incremental and full schedules agree bitwise.
    pub fn duration(&self) -> Seconds {
        self.weight_xfer + self.ifm_xfer + self.compute + self.ofm_xfer
    }
}

/// What [`Evaluator::layer_cost_floor`] assumes about one producer's
/// step-3 fusions. Every fusion set step 3 can choose puts each
/// producer in exactly one of two classes: some co-located consumer
/// fused, or none. [`FusionOutcome::Free`] covers both classes; the
/// other two variants each cover one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FusionOutcome {
    /// Either class: each term takes the cheaper of the two.
    #[default]
    Free,
    /// At least one co-located consumer is fused.
    Fused,
    /// No co-located consumer is fused.
    Unfused,
}

/// Timing decomposition of one scheduled layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerTiming {
    /// Owning accelerator.
    pub acc: AccId,
    /// Start time (after dependencies and accelerator availability).
    pub start: Seconds,
    /// Finish time.
    pub finish: Seconds,
    /// Weight-transfer share (Ethernet or local DRAM).
    pub weight_xfer: Seconds,
    /// IFM-download share.
    pub ifm_xfer: Seconds,
    /// Pure compute share.
    pub compute: Seconds,
    /// OFM-upload share.
    pub ofm_xfer: Seconds,
}

/// Energy decomposition of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// PE-array dynamic energy.
    pub compute: Joules,
    /// Ethernet transfer energy (transfer time × link power).
    pub ethernet: Joules,
    /// Local DRAM access energy.
    pub dram: Joules,
}

impl EnergyBreakdown {
    /// Total system energy.
    pub fn total(&self) -> Joules {
        self.compute + self.ethernet + self.dram
    }
}

/// A fully evaluated schedule: `Sys_latency`, `Sys_energy` and the
/// busy-time decomposition behind the paper's Fig. 5a.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    makespan: Seconds,
    energy: EnergyBreakdown,
    eth_busy: Seconds,
    comp_busy: Seconds,
    dram_busy: Seconds,
    timings: Vec<Option<LayerTiming>>,
    per_acc_busy: Vec<Seconds>,
}

impl Schedule {
    /// End-to-end system latency (`Sys_latency`).
    pub fn makespan(&self) -> Seconds {
        self.makespan
    }

    /// System energy (`Sys_energy`).
    pub fn energy(&self) -> &EnergyBreakdown {
        &self.energy
    }

    /// Total Ethernet transfer time summed over layers ("communication"
    /// in Fig. 5a).
    pub fn eth_busy(&self) -> Seconds {
        self.eth_busy
    }

    /// Total compute time summed over layers.
    pub fn comp_busy(&self) -> Seconds {
        self.comp_busy
    }

    /// Total local-DRAM transfer time summed over layers.
    pub fn dram_busy(&self) -> Seconds {
        self.dram_busy
    }

    /// Computation share of total busy time (paper Fig. 5a): local work
    /// (compute + local DRAM) over all busy time including Ethernet.
    pub fn compute_ratio(&self) -> f64 {
        let local = self.comp_busy + self.dram_busy;
        let total = local + self.eth_busy;
        if total <= Seconds::ZERO {
            return 1.0;
        }
        local.as_f64() / total.as_f64()
    }

    /// Timing of one layer, if it was scheduled.
    pub fn timing(&self, layer: LayerId) -> Option<&LayerTiming> {
        self.timings.get(layer.index()).and_then(|t| t.as_ref())
    }

    /// Busy time per accelerator, indexed by `AccId::index()`.
    pub fn per_acc_busy(&self) -> &[Seconds] {
        &self.per_acc_busy
    }

    /// Busy time of the bottleneck accelerator — the reciprocal of the
    /// steady-state pipelined-serving throughput: when back-to-back
    /// inference requests stream through the mapped system, every
    /// request must pass through the busiest device.
    pub fn bottleneck_busy(&self) -> Seconds {
        self.per_acc_busy
            .iter()
            .copied()
            .fold(Seconds::ZERO, Seconds::max)
    }

    /// Steady-state pipelined throughput in inferences/second
    /// (`1 / bottleneck_busy`); infinite for an empty schedule.
    pub fn steady_state_throughput(&self) -> f64 {
        let b = self.bottleneck_busy().as_f64();
        if b <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / b
        }
    }
}

/// Schedule evaluator bound to one (model, system) pair: a view of the
/// model's shared [`ModelTables`] priced on one system's
/// [`FabricRates`], at one batch size.
///
/// The optional *batch* models weight-amortized serving: `batch`
/// inference requests stream through back-to-back, weights (Ethernet or
/// local DRAM) are fetched once per batch, while activations and compute
/// repeat per request. `batch = 1` (default) is the paper's
/// single-inference semantics.
#[derive(Debug)]
pub struct Evaluator<'a> {
    model: &'a ModelGraph,
    system: &'a SystemSpec,
    tables: Arc<ModelTables>,
    fabric: Arc<FabricRates>,
    batch: u32,
    evals: AtomicUsize,
}

impl<'a> Evaluator<'a> {
    /// Builds the evaluator (validates nothing: the model must already
    /// be [`ModelGraph::validate`]d).
    pub fn new(model: &'a ModelGraph, system: &'a SystemSpec) -> Self {
        Self::from_cache(model, system, CostCache::new(model, system))
    }

    /// Builds an evaluator from scratch around an already-memoized cost
    /// cache: [`CostCache::new`] runs the analytic accelerator models
    /// for every (layer, accelerator) pair, while this derives the rest
    /// of the [`ModelTables`] and the [`FabricRates`] anew. It shares
    /// nothing with the evaluator the cache came from, which makes it
    /// an independent cross-check of views built with
    /// [`Evaluator::from_tables`]; callers that only change the batch
    /// size or the fabric should take such a view instead. `cache` must
    /// come from `model` and `system`'s boards (any degraded view of a
    /// system shares its cache); a mismatched cache produces wrong (or
    /// panicking) schedules.
    pub fn from_cache(model: &'a ModelGraph, system: &'a SystemSpec, cache: CostCache) -> Self {
        let tables = Arc::new(ModelTables::build(model, cache));
        Self::from_tables(model, system, tables, Arc::new(FabricRates::new(system)))
    }

    /// A view over already-derived tables, in O(1): `tables` from
    /// another evaluator of `model` on the same boards
    /// ([`Evaluator::model_tables`]) and `fabric` from `system`
    /// ([`FabricRates::new`], or [`Evaluator::fabric_rates`] of an
    /// evaluator on `system`). With the `fabric` of the evaluator the
    /// tables came from, this is a batch change (pair with
    /// [`Evaluator::with_batch`]); with a new [`FabricRates`] it is a
    /// fabric switch, which derives only the O(accelerators²) rates.
    /// The view starts at batch 1 with its own evaluation counter.
    ///
    /// # Panics
    ///
    /// Panics if the tables' layer or accelerator counts do not match
    /// `model` and `system`. A `fabric` derived from another system of
    /// the same size is not detected; it prices on that system's rates.
    pub fn from_tables(
        model: &'a ModelGraph,
        system: &'a SystemSpec,
        tables: Arc<ModelTables>,
        fabric: Arc<FabricRates>,
    ) -> Self {
        assert_eq!(tables.bound(), model.id_bound(), "tables of another model");
        assert!(
            tables.cache.n_accs == system.num_accs() && fabric.n_accs == system.num_accs(),
            "tables of another system"
        );
        Evaluator {
            model,
            system,
            tables,
            fabric,
            batch: 1,
            evals: AtomicUsize::new(0),
        }
    }

    /// Sets the serving batch size (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn with_batch(mut self, batch: u32) -> Self {
        assert!(batch >= 1, "batch must be at least 1");
        self.batch = batch;
        self
    }

    /// The serving batch size.
    pub fn batch(&self) -> u32 {
        self.batch
    }

    /// The memoized cost table.
    pub fn cache(&self) -> &CostCache {
        &self.tables.cache
    }

    /// The model-derived tables this evaluator shares with every view
    /// of it (see [`Evaluator::from_tables`]).
    pub fn model_tables(&self) -> &Arc<ModelTables> {
        &self.tables
    }

    /// The fabric rates this evaluator prices transfers with.
    pub fn fabric_rates(&self) -> &Arc<FabricRates> {
        &self.fabric
    }

    /// The model being scheduled (with the evaluator's full lifetime, so
    /// callers can rebuild evaluators from it).
    pub fn model(&self) -> &'a ModelGraph {
        self.model
    }

    /// The system being scheduled onto.
    pub fn system(&self) -> &'a SystemSpec {
        self.system
    }

    /// The global topological priority the schedule is evaluated in —
    /// `ModelGraph::topo_order`, derived once with the tables.
    pub fn order(&self) -> &[LayerId] {
        &self.tables.order
    }

    /// Layers with weights, paired with their F32 weight bytes, in
    /// graph iteration order. This is the exact candidate-item order
    /// the step-2 weight-locality knapsack sees, so consumers that
    /// filter it by mapping reproduce the pass's decisions bitwise.
    pub fn weighted_layers(&self) -> &[(LayerId, Bytes)] {
        &self.tables.weighted
    }

    /// `id`'s graph successors from the flat CSR row — the same
    /// elements, in the same order, as `ModelGraph::successors`, without
    /// the graph walk. For search-core hot paths.
    pub fn successors_flat(&self, id: LayerId) -> &[LayerId] {
        let t = &*self.tables;
        let li = id.index();
        &t.succ_dst[t.succ_off[li] as usize..t.succ_off[li + 1] as usize]
    }

    /// `id`'s graph predecessors from the flat CSR row (see
    /// [`Evaluator::successors_flat`]).
    pub fn predecessors_flat(&self, id: LayerId) -> &[LayerId] {
        let t = &*self.tables;
        let li = id.index();
        &t.pred_src[t.pred_off[li] as usize..t.pred_off[li + 1] as usize]
    }

    /// Evaluates a complete mapping.
    ///
    /// # Panics
    ///
    /// Panics if any layer is unmapped or mapped to an accelerator that
    /// cannot execute it (callers validate with [`Mapping::validate`]).
    pub fn evaluate(&self, mapping: &Mapping, locality: &LocalityState) -> Schedule {
        self.evals.fetch_add(1, Ordering::Relaxed);
        let emodel = self.system.energy_model();
        let bound = self.model.id_bound();
        let mut timings: Vec<Option<LayerTiming>> = vec![None; bound];
        let mut finish: Vec<Seconds> = vec![Seconds::ZERO; bound];
        let mut acc_ready = vec![Seconds::ZERO; self.system.num_accs()];
        let mut per_acc_busy = vec![Seconds::ZERO; self.system.num_accs()];

        let mut makespan = Seconds::ZERO;
        let mut eth_busy = Seconds::ZERO;
        let mut comp_busy = Seconds::ZERO;
        let mut dram_busy = Seconds::ZERO;
        let mut energy = EnergyBreakdown::default();
        let mut dram_bytes = Bytes::ZERO;

        let t = &*self.tables;
        for &id in &t.order {
            let acc = mapping.acc_of(id);
            let cost = self.layer_cost(mapping, locality, id);
            eth_busy += cost.eth_time;
            comp_busy += cost.compute;
            dram_busy += cost.dram_time;
            dram_bytes += cost.dram_bytes;
            energy.compute += cost.compute_energy;

            // Dependencies + accelerator availability. The max fold is
            // order-insensitive (non-negative finish times, no NaN), so
            // reading the CSR row instead of the graph iterator cannot
            // change the result bitwise.
            let (ps, pe) = (
                t.pred_off[id.index()] as usize,
                t.pred_off[id.index() + 1] as usize,
            );
            let ready = t.pred_src[ps..pe]
                .iter()
                .map(|p| finish[p.index()])
                .fold(Seconds::ZERO, Seconds::max);
            let start = ready.max(acc_ready[acc.index()]);
            let dur = cost.duration();
            let end = start + dur;
            finish[id.index()] = end;
            acc_ready[acc.index()] = end;
            per_acc_busy[acc.index()] += dur;
            makespan = makespan.max(end);

            timings[id.index()] = Some(LayerTiming {
                acc,
                start,
                finish: end,
                weight_xfer: cost.weight_xfer,
                ifm_xfer: cost.ifm_xfer,
                compute: cost.compute,
                ofm_xfer: cost.ofm_xfer,
            });
        }

        energy.ethernet = Joules::new(eth_busy.as_f64() * emodel.eth_link_power_w);
        energy.dram = Joules::new(dram_bytes.as_f64() * emodel.dram_pj_per_byte * 1e-12);

        Schedule {
            makespan,
            energy,
            eth_busy,
            comp_busy,
            dram_busy,
            timings,
            per_acc_busy,
        }
    }

    /// [`Evaluator::evaluate`] calls made through this evaluator since
    /// construction — the currency search budgets are billed in.
    pub fn evals_performed(&self) -> usize {
        self.evals.load(Ordering::Relaxed)
    }

    /// See [`LocalityState::edge_is_local`] — the one owner of the
    /// "does this edge move through local DRAM" predicate.
    fn edge_is_local(
        &self,
        locality: &LocalityState,
        mapping: &Mapping,
        from: LayerId,
        to: LayerId,
    ) -> bool {
        locality.edge_is_local(self.model, mapping, from, to)
    }

    /// Computes one layer's full cost decomposition under `(mapping,
    /// locality)` — weight/IFM/compute/OFM terms, the interconnect vs
    /// DRAM split, byte volumes and compute energy. This is the shared
    /// primitive behind [`Evaluator::evaluate`] and the incremental
    /// delta engine; term order matches the historical evaluator so
    /// schedules agree bitwise.
    ///
    /// This is the data-oriented kernel: straight-line arithmetic over
    /// the `FlatCost` arrays (see the module docs). It is asserted
    /// bitwise-equal to [`Evaluator::layer_cost_reference`], the
    /// retained pointer-chasing implementation that serves as the
    /// executable spec of the cost semantics.
    ///
    /// Transfer rates come from the system's
    /// [`crate::topology::Topology`] route matrix, indexed per `(src
    /// placement, dst placement)` pair: weights stream
    /// host→accelerator, each IFM edge is charged at the
    /// producer→consumer route's effective bandwidth (host→consumer for
    /// model inputs), and the single OFM upload runs at the slowest
    /// route among its remote consumers (host for model outputs). On a
    /// uniform star every route resolves to the same rate bitwise,
    /// reproducing the paper's scalar model exactly.
    ///
    /// # Panics
    ///
    /// Panics if the layer is unmapped or mapped to an accelerator that
    /// cannot execute it.
    pub fn layer_cost(
        &self,
        mapping: &Mapping,
        locality: &LocalityState,
        id: LayerId,
    ) -> LayerCost {
        let ai = mapping.acc_of(id).index();
        // Route-matrix node of the owning accelerator (host is node 0).
        let here = ai + 1;
        let dram_bw = self.fabric.dram_bw[ai];
        let mut cost = LayerCost::default();
        self.accum_weight(locality, id, here, dram_bw, &mut cost);
        self.accum_ifm(mapping, locality, id, here, dram_bw, None, &mut cost);
        self.accum_compute(id, ai, &mut cost);
        self.accum_ofm(mapping, locality, id, here, dram_bw, None, &mut cost);
        cost
    }

    /// A lower bound on the duration [`Evaluator::layer_cost`] reports
    /// for `id` under *any* fusion set step 3 can choose for the current
    /// mapping and pins in which every producer falls in the class its
    /// entry of `outcomes` (indexed by `LayerId::index()`) names. It is
    /// the per-layer kernel of the step-4 latency screen, and reads only
    /// the pins of `locality`, never its fused edges:
    ///
    /// * the weight and compute terms are exact (pins are fixed);
    /// * an IFM edge that step 3 could fuse (co-located, non-input
    ///   producer) costs the lesser of its DRAM read and its route
    ///   transfer, or its route alone when its producer is
    ///   [`FusionOutcome::Unfused`]; every other edge pays its route
    ///   exactly;
    /// * the OFM is one of the two branches of
    ///   [`Evaluator::ofm_floor_branches`]: "none fused" for an
    ///   [`FusionOutcome::Unfused`] producer, "all fused" for a
    ///   [`FusionOutcome::Fused`] one, and the lesser of the two for a
    ///   [`FusionOutcome::Free`] one.
    ///
    /// Every term is the minimum over values the exact kernel can
    /// produce in the named classes, computed with the same IEEE
    /// operations, and [`LayerCost::duration`] sums the terms in the
    /// same order. IEEE round-to-nearest `+`, `*` and `/` are monotone,
    /// so the bound holds bitwise, not just up to rounding. With every
    /// entry [`FusionOutcome::Unfused`] the floor is the exact cost
    /// under the empty fusion set. Only the four duration terms carry
    /// meaning: the split fields (`eth_time`, `dram_time`,
    /// `dram_bytes`) hold the weight term's share alone.
    ///
    /// # Panics
    ///
    /// Panics if the layer is unmapped or mapped to an accelerator that
    /// cannot execute it, or if `outcomes` is shorter than the model's
    /// id bound.
    pub fn layer_cost_floor(
        &self,
        mapping: &Mapping,
        locality: &LocalityState,
        outcomes: &[FusionOutcome],
        id: LayerId,
    ) -> LayerCost {
        let (t, r) = (&*self.tables, &*self.fabric);
        let li = id.index();
        let b = self.batch as f64;
        let ai = mapping.acc_of(id).index();
        let here = ai + 1;
        let dram_bw = r.dram_bw[ai];
        let mut cost = LayerCost::default();
        self.accum_weight(locality, id, here, dram_bw, &mut cost);

        for k in t.pred_off[li] as usize..t.pred_off[li + 1] as usize {
            let pred = t.pred_src[k];
            let bytes = t.pred_bytes[k];
            let pred_is_input = t.is_input[pred.index()];
            let src = match mapping.get(pred) {
                Some(pa) if !pred_is_input => pa.index() + 1,
                _ => 0,
            };
            let route = r.route[src * r.nodes + here].transfer_time(bytes) * b;
            cost.ifm_xfer += if src == here && outcomes[pred.index()] != FusionOutcome::Unfused {
                route.min(dram_bw.transfer_time(bytes) * b)
            } else {
                route
            };
        }

        self.accum_compute(id, ai, &mut cost);

        if let Some((none_fused, all_fused)) = self.ofm_floor_branches(mapping, id) {
            cost.ofm_xfer = match outcomes[li] {
                FusionOutcome::Free => none_fused.min(all_fused),
                FusionOutcome::Fused => all_fused,
                FusionOutcome::Unfused => none_fused,
            };
        }
        cost
    }

    /// The two OFM branches of [`Evaluator::layer_cost_floor`] for `id`,
    /// `(none_fused, all_fused)`; `None` for a model input, which emits
    /// nothing.
    ///
    /// * "No co-located consumer fused" is one upload at the slowest
    ///   route among all consumers (the host route for a model output).
    ///   It is the exact OFM of every fusion set in that class.
    /// * "Every co-located consumer fused" is an upload at the slowest
    ///   remote route (if any consumer is remote) plus one DRAM write.
    ///   Fusing a nonempty proper subset pays the same DRAM write and an
    ///   upload no faster than the all-fused one, so it never undercuts
    ///   this branch, which therefore bounds every fusion set with some
    ///   co-located consumer fused.
    ///
    /// Without a co-located consumer the two branches are equal. With
    /// one, neither bounds the other in general: with a remote consumer
    /// left, "none fused" skips the DRAM write that "all fused" pays.
    pub fn ofm_floor_branches(&self, mapping: &Mapping, id: LayerId) -> Option<(Seconds, Seconds)> {
        let (t, r) = (&*self.tables, &*self.fabric);
        let li = id.index();
        if t.is_input[li] {
            return None;
        }
        let b = self.batch as f64;
        let acc = mapping.acc_of(id);
        let here = acc.index() + 1;
        let obytes = t.obytes[li];
        let (ss, se) = (t.succ_off[li] as usize, t.succ_off[li + 1] as usize);
        let upload = |bw: BytesPerSec| bw.transfer_time(obytes) * b;
        if ss == se {
            let to_host = Seconds::ZERO + upload(r.route[here * r.nodes]);
            return Some((to_host, to_host));
        }
        let slower = |cur: Option<BytesPerSec>, r: BytesPerSec| {
            Some(cur.map_or(r, |c| if c < r { c } else { r }))
        };
        let mut slowest = None;
        let mut slowest_remote = None;
        let mut any_colocated = false;
        for &succ in &t.succ_dst[ss..se] {
            let sa = mapping.get(succ);
            let r = r.route[here * r.nodes + sa.map_or(0, |a| a.index() + 1)];
            slowest = slower(slowest, r);
            if sa == Some(acc) {
                any_colocated = true;
            } else {
                slowest_remote = slower(slowest_remote, r);
            }
        }
        let none_fused = Seconds::ZERO + upload(slowest.expect("consumer row is non-empty"));
        let mut all_fused = Seconds::ZERO;
        if let Some(bw) = slowest_remote {
            all_fused += upload(bw);
        }
        if any_colocated {
            all_fused += r.dram_bw[acc.index()].transfer_time(obytes) * b;
        }
        Some((none_fused, all_fused))
    }

    /// The weight section of [`Evaluator::layer_cost`]: fetched once per
    /// batch, from local DRAM if pinned, else streamed host → `here`.
    #[inline(always)]
    fn accum_weight(
        &self,
        locality: &LocalityState,
        id: LayerId,
        here: usize,
        dram_bw: BytesPerSec,
        cost: &mut LayerCost,
    ) {
        let wbytes = self.tables.wbytes[id.index()];
        if wbytes > Bytes::ZERO {
            if locality.is_pinned(id) {
                cost.weight_xfer = dram_bw.transfer_time(wbytes);
                cost.dram_time += cost.weight_xfer;
                cost.dram_bytes += wbytes;
            } else {
                // route[host * nodes + here] with host = 0.
                cost.weight_xfer = self.fabric.route[here].transfer_time(wbytes);
                cost.eth_time += cost.weight_xfer;
            }
        }
    }

    /// The compute section of [`Evaluator::layer_cost`], per batch item.
    /// The table stores healthy-speed times; a compute-throttled board
    /// on a degraded system view stretches them at read time. The branch
    /// (rather than an unconditional `* 1.0`) keeps the healthy path
    /// bitwise-identical to the historical arithmetic.
    #[inline(always)]
    fn accum_compute(&self, id: LayerId, ai: usize, cost: &mut LayerCost) {
        let (t, r) = (&*self.tables, &*self.fabric);
        let b = self.batch as f64;
        let at = id.index() * t.cache.n_accs + ai;
        cost.compute = t.cache.time[at].expect("mapping validated: accelerator supports layer") * b;
        let slow = r.compute_factor[ai];
        if slow != 1.0 {
            cost.compute = cost.compute * slow;
        }
        cost.compute_energy =
            t.cache.energy[at].expect("mapping validated: accelerator supports layer") * b;
    }

    /// The IFM section of [`Evaluator::layer_cost`]: one transfer per
    /// incoming edge (CSR row, graph order — this is a float sum, so
    /// order is part of the contract), repeated per batch item, each at
    /// its route's effective bandwidth. An unmapped producer (a partial
    /// mapping of a frontier prefix) charges the host route — data
    /// not yet placed lives at the host. Factored out so
    /// [`Evaluator::duration_new_ifm`] reruns the exact arithmetic.
    ///
    /// `extra_fused` prices one hypothetical fusion on top of
    /// `locality`: the `extra_fused → id` edge is treated as fused (with
    /// the same colocation/non-input conditions the real predicate
    /// applies), exactly as if `locality` contained it. `layer_cost`
    /// passes `None`, which folds away under `inline(always)` — the
    /// production kernel is unchanged.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn accum_ifm(
        &self,
        mapping: &Mapping,
        locality: &LocalityState,
        id: LayerId,
        here: usize,
        dram_bw: BytesPerSec,
        extra_fused: Option<LayerId>,
        cost: &mut LayerCost,
    ) {
        let (t, r) = (&*self.tables, &*self.fabric);
        let li = id.index();
        let b = self.batch as f64;
        let (ps, pe) = (t.pred_off[li] as usize, t.pred_off[li + 1] as usize);
        for k in ps..pe {
            let pred = t.pred_src[k];
            let bytes = t.pred_bytes[k];
            let pred_is_input = t.is_input[pred.index()];
            if locality.edge_is_local_flat(mapping, pred, id, pred_is_input)
                || (extra_fused == Some(pred)
                    && !pred_is_input
                    && mapping.get(pred) == mapping.get(id)
                    && mapping.get(pred).is_some())
            {
                let t = dram_bw.transfer_time(bytes) * b;
                cost.ifm_xfer += t;
                cost.dram_time += t;
                cost.dram_bytes += bytes * self.batch as u64;
            } else {
                // `edge_src` flattened: inputs and unmapped producers
                // send from the host (node 0).
                let src = if pred_is_input {
                    0
                } else {
                    match mapping.get(pred) {
                        Some(pa) => pa.index() + 1,
                        None => 0,
                    }
                };
                let t = r.route[src * r.nodes + here].transfer_time(bytes) * b;
                cost.ifm_xfer += t;
                cost.eth_time += t;
            }
        }
    }

    /// The OFM section of [`Evaluator::layer_cost`]: model inputs emit
    /// nothing (data already at host); otherwise one interconnect
    /// upload serves all unfused consumers (and the final output) at
    /// the slowest route among them, one DRAM write serves all fused
    /// consumers. A single pass over the successor CSR row replays
    /// `Topology::ofm_route` (min-rate fold, host fallback for model
    /// outputs, `None` when every consumer is fused) and the any-local
    /// scan together. Factored out so
    /// [`Evaluator::duration_new_ofm`] reruns the exact arithmetic.
    ///
    /// `extra_fused` prices one hypothetical fusion on top of
    /// `locality`: the `id → extra_fused` edge is treated as fused, with
    /// the same caveats as on [`Evaluator::accum_ifm`].
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn accum_ofm(
        &self,
        mapping: &Mapping,
        locality: &LocalityState,
        id: LayerId,
        here: usize,
        dram_bw: BytesPerSec,
        extra_fused: Option<LayerId>,
        cost: &mut LayerCost,
    ) {
        let (t, r) = (&*self.tables, &*self.fabric);
        let li = id.index();
        let b = self.batch as f64;
        if !t.is_input[li] {
            let obytes = t.obytes[li];
            let (ss, se) = (t.succ_off[li] as usize, t.succ_off[li + 1] as usize);
            let mut upload: Option<BytesPerSec> = None;
            let mut any_local = false;
            if ss == se {
                // Model output: the result always lands at the host.
                upload = Some(r.route[here * r.nodes]);
            } else {
                for k in ss..se {
                    let succ = t.succ_dst[k];
                    if locality.edge_is_local_flat(mapping, id, succ, false)
                        || (extra_fused == Some(succ)
                            && !t.is_input[li]
                            && mapping.get(id) == mapping.get(succ)
                            && mapping.get(id).is_some())
                    {
                        any_local = true;
                        continue;
                    }
                    let dst = match mapping.get(succ) {
                        Some(sa) => sa.index() + 1,
                        None => 0,
                    };
                    let r = r.route[here * r.nodes + dst];
                    upload = Some(match upload {
                        Some(cur) => {
                            if cur < r {
                                cur
                            } else {
                                r
                            }
                        }
                        None => r,
                    });
                }
            }
            if let Some(bw) = upload {
                let t = bw.transfer_time(obytes) * b;
                cost.ofm_xfer += t;
                cost.eth_time += t;
            }
            if any_local {
                let t = dram_bw.transfer_time(obytes) * b;
                cost.ofm_xfer += t;
                cost.dram_time += t;
                cost.dram_bytes += obytes * self.batch as u64;
            }
        }
    }

    /// `LayerCost::duration()` of `id` with a freshly computed IFM term
    /// and every other term taken from `stored`, a cost for `id` that
    /// is current except (at most) its IFM term. Bitwise equal to
    /// `self.layer_cost(mapping, locality, id).duration()` because the
    /// IFM sum reruns `Evaluator::accum_ifm` verbatim (same values,
    /// same float-op order) and `duration()`'s left-to-right sum is
    /// reproduced term for term. The delta engine's risky-guard proof
    /// uses this to price a fuse toggle's consumer — whose weight, compute
    /// and OFM terms the toggle provably cannot change — without paying
    /// the full kernel. `extra_fused` prices the toggle itself: the
    /// hypothetical `extra_fused → id` fusion is layered over
    /// `locality`, so the proof never has to mutate (and restore) the
    /// shared locality state.
    pub fn duration_new_ifm(
        &self,
        mapping: &Mapping,
        locality: &LocalityState,
        id: LayerId,
        stored: &LayerCost,
        extra_fused: Option<LayerId>,
    ) -> Seconds {
        let acc = mapping.acc_of(id);
        let ai = acc.index();
        let mut cost = LayerCost::default();
        self.accum_ifm(
            mapping,
            locality,
            id,
            ai + 1,
            self.fabric.dram_bw[ai],
            extra_fused,
            &mut cost,
        );
        stored.weight_xfer + cost.ifm_xfer + stored.compute + stored.ofm_xfer
    }

    /// `LayerCost::duration()` of `id` with a freshly computed OFM term
    /// and every other term taken from `stored` — the producer-side
    /// twin of [`Evaluator::duration_new_ifm`], with the same bitwise
    /// argument (the OFM fold reruns `Evaluator::accum_ofm`
    /// verbatim) and the same `extra_fused` overlay (here the
    /// hypothetical `id → extra_fused` fusion).
    pub fn duration_new_ofm(
        &self,
        mapping: &Mapping,
        locality: &LocalityState,
        id: LayerId,
        stored: &LayerCost,
        extra_fused: Option<LayerId>,
    ) -> Seconds {
        let acc = mapping.acc_of(id);
        let ai = acc.index();
        let mut cost = LayerCost::default();
        self.accum_ofm(
            mapping,
            locality,
            id,
            ai + 1,
            self.fabric.dram_bw[ai],
            extra_fused,
            &mut cost,
        );
        stored.weight_xfer + stored.ifm_xfer + stored.compute + cost.ofm_xfer
    }

    /// The original pointer-chasing implementation of
    /// [`Evaluator::layer_cost`], retained verbatim as the executable
    /// spec: it walks the graph (`model.layer`, `edge_bytes`,
    /// `predecessors`/`successors`) and queries the topology
    /// (`path_bw`, `ofm_route`) per edge. The `prop_schedule` suite
    /// asserts the flat kernel reproduces it bitwise across the zoo,
    /// fabrics and random mapping/locality states; production code
    /// should call `layer_cost`.
    pub fn layer_cost_reference(
        &self,
        mapping: &Mapping,
        locality: &LocalityState,
        id: LayerId,
    ) -> LayerCost {
        let topo = self.system.topology();
        let b = self.batch as f64;
        let layer = self.model.layer(id);
        let acc = mapping.acc_of(id);
        let here = Endpoint::Acc(acc);
        let dram_bw = self.system.acc(acc).dram_bandwidth();
        let is_input = matches!(layer.op(), LayerOp::Input { .. });
        let mut cost = LayerCost::default();

        // Weight transfer (once per batch), streamed from the host.
        let wbytes = layer.weight_bytes(DataType::F32);
        if wbytes > Bytes::ZERO {
            if locality.is_pinned(id) {
                cost.weight_xfer = dram_bw.transfer_time(wbytes);
                cost.dram_time += cost.weight_xfer;
                cost.dram_bytes += wbytes;
            } else {
                cost.weight_xfer = topo.path_bw(Endpoint::Host, here).transfer_time(wbytes);
                cost.eth_time += cost.weight_xfer;
            }
        }

        // IFM transfers: one per incoming edge, repeated per batch
        // item, each at its route's effective bandwidth. An unmapped
        // producer (a partial mapping of a frontier prefix) charges
        // the host route — data not yet placed lives at the host.
        for pred in self.model.predecessors(id) {
            let bytes = self
                .model
                .edge_bytes(pred, id)
                .expect("predecessor edge exists");
            if self.edge_is_local(locality, mapping, pred, id) {
                let t = dram_bw.transfer_time(bytes) * b;
                cost.ifm_xfer += t;
                cost.dram_time += t;
                cost.dram_bytes += bytes * self.batch as u64;
            } else {
                let src = crate::topology::edge_src(self.model, mapping, pred);
                let t = topo.path_bw(src, here).transfer_time(bytes) * b;
                cost.ifm_xfer += t;
                cost.eth_time += t;
            }
        }

        // Compute, per batch item. The cache stores healthy-speed
        // times; a compute-throttled board on a degraded system view
        // stretches them at read time ([`SystemSpec::compute_factor`]).
        // The branch (rather than an unconditional `* 1.0`) keeps the
        // healthy path bitwise-identical to the historical arithmetic.
        cost.compute = self
            .cache()
            .time(id, acc)
            .expect("mapping validated: accelerator supports layer")
            * b;
        let slow = self.system.compute_factor(acc);
        if slow != 1.0 {
            cost.compute = cost.compute * slow;
        }
        cost.compute_energy = self
            .cache()
            .energy(id, acc)
            .expect("mapping validated: accelerator supports layer")
            * b;

        // OFM transfer: model inputs emit nothing (data already at
        // host); otherwise one interconnect upload serves all unfused
        // consumers (and the final output) at the slowest route among
        // them, one DRAM write serves all fused consumers.
        if !is_input {
            let obytes = layer.ofm_bytes(DataType::F32);
            // The upload rate comes from the shared routing rule
            // (slowest remote-consumer route, host for outputs); the
            // DRAM write needs its own cheap any-local scan — consumer
            // lists are tiny.
            if let Some((bw, _)) = topo.ofm_route(self.model, mapping, locality, id) {
                let t = bw.transfer_time(obytes) * b;
                cost.ofm_xfer += t;
                cost.eth_time += t;
            }
            let any_local = self
                .model
                .successors(id)
                .any(|s| self.edge_is_local(locality, mapping, id, s));
            if any_local {
                let t = dram_bw.transfer_time(obytes) * b;
                cost.ofm_xfer += t;
                cost.dram_time += t;
                cost.dram_bytes += obytes * self.batch as u64;
            }
        }

        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::BandwidthClass;
    use crate::testutil::{const_system, ConstAccel};
    use h2h_model::builder::ModelBuilder;
    use h2h_model::tensor::TensorShape;

    /// in(64 f32 = 256 B) -> fc1(256x256) -> fc2(256x16)
    fn chain() -> ModelGraph {
        let mut b = ModelBuilder::new("chain");
        let i = b.input("i", TensorShape::Vector { features: 64 });
        let f1 = b.fc("f1", i, 256).unwrap();
        b.fc("f2", f1, 16).unwrap();
        b.finish().unwrap()
    }

    fn map_all(m: &ModelGraph, acc: AccId) -> Mapping {
        let mut map = Mapping::new(m);
        for id in m.layer_ids() {
            map.set(id, acc);
        }
        map
    }

    #[test]
    fn zero_locality_chain_is_fully_additive() {
        let m = chain();
        // One accelerator, compute = 1 ms/layer, eth 1e6 B/s, dram 1e9 B/s.
        let sys = const_system(vec![ConstAccel::universal("U", 1e-3)], 1e6);
        let a0 = AccId::new(0);
        let map = map_all(&m, a0);
        let loc = LocalityState::new(&sys);
        let ev = Evaluator::new(&m, &sys);
        let s = ev.evaluate(&map, &loc);

        let ids = m.topo_order();
        // input: compute only (inputs move no data themselves).
        let t_in = s.timing(ids[0]).unwrap();
        assert!((t_in.finish.as_f64() - 1e-3).abs() < 1e-12);
        // f1: weights (64*256+256)*4 B, ifm 256 B, ofm 1024 B over 1e6 B/s.
        let t1 = s.timing(ids[1]).unwrap();
        let w1 = ((64 * 256 + 256) * 4) as f64 / 1e6;
        assert!((t1.weight_xfer.as_f64() - w1).abs() < 1e-12);
        assert!((t1.ifm_xfer.as_f64() - 256.0 / 1e6).abs() < 1e-12);
        assert!((t1.ofm_xfer.as_f64() - 1024.0 / 1e6).abs() < 1e-12);
        // f2 is a sink: OFM still uploads to host (16*4 B).
        let t2 = s.timing(ids[2]).unwrap();
        assert!((t2.ofm_xfer.as_f64() - 64.0 / 1e6).abs() < 1e-12);
        // Makespan = sum of all three durations (same acc, chain).
        let expect = t_in.finish.as_f64()
            + (t1.finish.as_f64() - t1.start.as_f64())
            + (t2.finish.as_f64() - t2.start.as_f64());
        assert!((s.makespan().as_f64() - expect).abs() < 1e-12);
    }

    #[test]
    fn pinning_switches_weight_term_to_dram() {
        let m = chain();
        let sys = const_system(vec![ConstAccel::universal("U", 1e-3)], 1e6);
        let a0 = AccId::new(0);
        let map = map_all(&m, a0);
        let ev = Evaluator::new(&m, &sys);
        let ids = m.topo_order();

        let loc0 = LocalityState::new(&sys);
        let base = ev.evaluate(&map, &loc0);

        let mut loc = LocalityState::new(&sys);
        assert!(loc.try_pin(&m, &sys, ids[1], a0));
        let pinned = ev.evaluate(&map, &loc);

        let wbytes = ((64 * 256 + 256) * 4) as f64;
        let saved = wbytes / 1e6 - wbytes / 1e9;
        assert!(
            (base.makespan().as_f64() - pinned.makespan().as_f64() - saved).abs() < 1e-9,
            "pinning should save exactly the eth-vs-dram delta"
        );
        assert!(pinned.dram_busy() > Seconds::ZERO);
    }

    #[test]
    fn fusion_removes_ethernet_round_trip() {
        let m = chain();
        let sys = const_system(vec![ConstAccel::universal("U", 1e-3)], 1e6);
        let a0 = AccId::new(0);
        let map = map_all(&m, a0);
        let ev = Evaluator::new(&m, &sys);
        let ids = m.topo_order();

        let base = ev.evaluate(&map, &LocalityState::new(&sys));
        let mut loc = LocalityState::new(&sys);
        assert!(loc.try_fuse(&m, &sys, ids[1], ids[2], a0));
        let fused = ev.evaluate(&map, &loc);

        // f1->f2 edge: 1024 B. Upload + download drop from eth, two DRAM
        // touches appear.
        let saved = 2.0 * 1024.0 / 1e6 - 2.0 * 1024.0 / 1e9;
        assert!((base.makespan().as_f64() - fused.makespan().as_f64() - saved).abs() < 1e-9);
    }

    #[test]
    fn input_edges_never_fuse() {
        let m = chain();
        let sys = const_system(vec![ConstAccel::universal("U", 1e-3)], 1e6);
        let a0 = AccId::new(0);
        let map = map_all(&m, a0);
        let ev = Evaluator::new(&m, &sys);
        let ids = m.topo_order();

        let base = ev.evaluate(&map, &LocalityState::new(&sys));
        let mut loc = LocalityState::new(&sys);
        // Force-mark the input edge fused; the evaluator must ignore it.
        assert!(loc.try_fuse(&m, &sys, ids[0], ids[1], a0));
        let after = ev.evaluate(&map, &loc);
        assert_eq!(base.makespan(), after.makespan());
    }

    #[test]
    fn fusion_requires_colocation() {
        let m = chain();
        let sys = const_system(
            vec![
                ConstAccel::universal("U0", 1e-3),
                ConstAccel::universal("U1", 1e-3),
            ],
            1e6,
        );
        let ids = m.topo_order();
        let mut map = Mapping::new(&m);
        map.set(ids[0], AccId::new(0));
        map.set(ids[1], AccId::new(0));
        map.set(ids[2], AccId::new(1));
        let ev = Evaluator::new(&m, &sys);
        let base = ev.evaluate(&map, &LocalityState::new(&sys));
        let mut loc = LocalityState::new(&sys);
        // Stale fusion mark across accelerators must be ignored.
        assert!(loc.try_fuse(&m, &sys, ids[1], ids[2], AccId::new(0)));
        let after = ev.evaluate(&map, &loc);
        assert_eq!(base.makespan(), after.makespan());
    }

    #[test]
    fn parallel_branches_overlap_across_accelerators() {
        // in -> (fc_a, fc_b) -> add; fc_a/fc_b on different accs overlap.
        let mut b = ModelBuilder::new("par");
        let i = b.input("i", TensorShape::Vector { features: 1024 });
        let fa = b.fc("fa", i, 1024).unwrap();
        let fb = b.fc("fb", i, 1024).unwrap();
        b.add("join", &[fa, fb]).unwrap();
        let m = b.finish().unwrap();

        let sys2 = const_system(
            vec![
                ConstAccel::universal("U0", 0.5),
                ConstAccel::universal("U1", 0.5),
            ],
            1e9,
        );
        let sys1 = const_system(vec![ConstAccel::universal("U0", 0.5)], 1e9);

        let ids = m.topo_order();
        let mut spread = Mapping::new(&m);
        spread.set(ids[0], AccId::new(0));
        spread.set(ids[1], AccId::new(0));
        spread.set(ids[2], AccId::new(1));
        spread.set(ids[3], AccId::new(0));

        let serial = {
            let mut map = Mapping::new(&m);
            for id in m.layer_ids() {
                map.set(id, AccId::new(0));
            }
            let ev = Evaluator::new(&m, &sys1);
            ev.evaluate(&map, &LocalityState::new(&sys1)).makespan()
        };
        let overlapped = {
            let ev = Evaluator::new(&m, &sys2);
            ev.evaluate(&spread, &LocalityState::new(&sys2)).makespan()
        };
        // Compute dominates (0.5 s/layer): overlapping the two 0.5 s FCs
        // must save ~0.5 s.
        assert!(
            serial.as_f64() - overlapped.as_f64() > 0.4,
            "serial {serial} vs overlapped {overlapped}"
        );
    }

    #[test]
    fn energy_tracks_transfer_and_compute() {
        let m = chain();
        let sys = const_system(vec![ConstAccel::universal("U", 1e-3)], 1e6);
        let map = map_all(&m, AccId::new(0));
        let ev = Evaluator::new(&m, &sys);
        let s = ev.evaluate(&map, &LocalityState::new(&sys));
        // 3 layers × 1 mJ compute (ConstAccel energy = 1 mJ per layer).
        assert!((s.energy().compute.as_f64() - 3e-3).abs() < 1e-9);
        // Ethernet energy = eth time × 5 W (default model).
        assert!((s.energy().ethernet.as_f64() - s.eth_busy().as_f64() * 5.0).abs() < 1e-12);
        assert!(s.energy().total() > s.energy().compute);
    }

    #[test]
    fn batch_one_is_the_default_semantics() {
        let m = chain();
        let sys = const_system(vec![ConstAccel::universal("U", 1e-3)], 1e6);
        let map = map_all(&m, AccId::new(0));
        let loc = LocalityState::new(&sys);
        let a = Evaluator::new(&m, &sys).evaluate(&map, &loc);
        let b = Evaluator::new(&m, &sys).with_batch(1).evaluate(&map, &loc);
        assert_eq!(a.makespan(), b.makespan());
        assert_eq!(a.energy(), b.energy());
    }

    #[test]
    fn batching_amortizes_weights_only() {
        let m = chain();
        let sys = const_system(vec![ConstAccel::universal("U", 1e-3)], 1e6);
        let map = map_all(&m, AccId::new(0));
        let loc = LocalityState::new(&sys);
        let one = Evaluator::new(&m, &sys).evaluate(&map, &loc);
        let eight = Evaluator::new(&m, &sys).with_batch(8).evaluate(&map, &loc);
        // Weight transfer happens once per batch: total is strictly less
        // than 8x the single-inference makespan…
        assert!(eight.makespan().as_f64() < 8.0 * one.makespan().as_f64());
        // …but more than 8x the weight-free share.
        let weight_time: f64 = m
            .topo_order()
            .iter()
            .map(|id| one.timing(*id).unwrap().weight_xfer.as_f64())
            .sum();
        let act_share = one.makespan().as_f64() - weight_time;
        assert!(eight.makespan().as_f64() >= 8.0 * act_share - 1e-12);
        // Exact decomposition for a single-acc chain:
        let expect = weight_time + 8.0 * act_share;
        assert!((eight.makespan().as_f64() - expect).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "batch must be at least 1")]
    fn zero_batch_rejected() {
        let m = chain();
        let sys = const_system(vec![ConstAccel::universal("U", 1e-3)], 1e6);
        let _ = Evaluator::new(&m, &sys).with_batch(0);
    }

    #[test]
    fn standard_system_schedules_zoo_model() {
        // Smoke test with the real catalog: every CASIA layer placed on
        // a capable accelerator; schedule is finite and positive.
        let m = h2h_model::zoo::casia_surf();
        let sys = SystemSpec::standard(BandwidthClass::LowMinus);
        let ev = Evaluator::new(&m, &sys);
        let mut map = Mapping::new(&m);
        for (id, layer) in m.layers() {
            let acc = sys
                .acc_ids()
                .find(|a| sys.acc(*a).supports(layer))
                .expect("some accelerator supports every layer");
            map.set(id, acc);
        }
        map.validate(&m, &sys).unwrap();
        let s = ev.evaluate(&map, &LocalityState::new(&sys));
        assert!(s.makespan() > Seconds::ZERO);
        assert!(s.compute_ratio() > 0.0 && s.compute_ratio() < 1.0);
    }

    #[test]
    fn views_share_the_model_tables_and_price_like_fresh_evaluators() {
        use crate::fault::FaultPlan;
        let m = h2h_model::zoo::vfs();
        let sys = SystemSpec::standard(BandwidthClass::LowMinus);
        let base = Evaluator::new(&m, &sys);
        let mut map = Mapping::new(&m);
        for (id, layer) in m.layers() {
            let acc = sys
                .acc_ids()
                .find(|a| sys.acc(*a).supports(layer))
                .expect("some accelerator supports every layer");
            map.set(id, acc);
        }
        let mut loc = LocalityState::new(&sys);
        for id in m.topo_order().into_iter().step_by(3) {
            let _ = loc.try_pin(&m, &sys, id, map.acc_of(id));
        }
        // A degraded fabric: one slow link, one throttled board, the
        // host NIC at half rate.
        let (a, b) = (map.acc_of(m.topo_order()[1]), map.acc_of(m.topo_order()[2]));
        let spec = format!("link:{}/4@0;slow:{}/2@0;host:2@0", a.index(), b.index());
        let state = FaultPlan::parse(&spec, sys.num_accs())
            .unwrap()
            .state_at(Seconds::ZERO, sys.num_accs());
        let degraded = sys.degrade(&state);
        let switched = Arc::new(FabricRates::new(&degraded));
        for (system, fabric) in [(&sys, base.fabric_rates()), (&degraded, &switched)] {
            for batch in [1u32, 3, 8] {
                let view =
                    Evaluator::from_tables(&m, system, base.model_tables().clone(), fabric.clone())
                        .with_batch(batch);
                assert!(Arc::ptr_eq(view.model_tables(), base.model_tables()));
                let fresh =
                    Evaluator::from_cache(&m, system, base.cache().clone()).with_batch(batch);
                assert!(!Arc::ptr_eq(fresh.model_tables(), base.model_tables()));
                let (a, b) = (view.evaluate(&map, &loc), fresh.evaluate(&map, &loc));
                assert_eq!(a, b, "batch {batch}");
                assert_eq!(view.order(), m.topo_order().as_slice());
            }
        }
        assert_ne!(
            Evaluator::from_tables(&m, &degraded, base.model_tables().clone(), switched.clone())
                .evaluate(&map, &loc)
                .makespan(),
            base.evaluate(&map, &loc).makespan(),
            "the switched fabric must price differently"
        );
    }

    #[test]
    fn from_cache_reproduces_a_fresh_evaluator_bitwise() {
        let m = h2h_model::zoo::cnn_lstm();
        let sys = SystemSpec::standard(BandwidthClass::LowMinus);
        let fresh = Evaluator::new(&m, &sys);
        let mut map = Mapping::new(&m);
        for (id, layer) in m.layers() {
            let acc = sys
                .acc_ids()
                .find(|a| sys.acc(*a).supports(layer))
                .expect("some accelerator supports every layer");
            map.set(id, acc);
        }
        let loc = LocalityState::new(&sys);
        for batch in [1u32, 4, 16] {
            let a = Evaluator::new(&m, &sys)
                .with_batch(batch)
                .evaluate(&map, &loc);
            let b = Evaluator::from_cache(&m, &sys, fresh.cache().clone())
                .with_batch(batch)
                .evaluate(&map, &loc);
            assert_eq!(a.makespan(), b.makespan(), "batch {batch}");
            assert_eq!(a.energy().total(), b.energy().total(), "batch {batch}");
        }
    }
}
