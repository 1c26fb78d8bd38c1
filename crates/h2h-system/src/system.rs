//! The heterogeneous multi-FPGA system (`G_sys` scaffolding, paper §3).
//!
//! A system is a host node plus a set of plugged-in accelerators,
//! connected by an explicit interconnect fabric
//! ([`crate::topology::Topology`]). The default fabric is the paper's
//! uniform star — every board behind Ethernet at one `BW_acc` (the
//! paper sweeps five classes from 1 GbE to 10 GbE), with
//! accelerator↔accelerator data relayed through the host as in the
//! Brainwave-style deployment the paper targets \[2\]. Non-uniform
//! fabrics (per-link rates, direct accelerator↔accelerator peer links)
//! plug in via [`SystemSpec::with_topology`]; transfers are then
//! charged at each route's effective bandwidth rather than one global
//! scalar.

use std::fmt;

use serde::{Deserialize, Serialize};

use h2h_accel::catalog::standard_accelerators;
use h2h_accel::model::AccelRef;
use h2h_model::units::BytesPerSec;

use crate::fault::FaultState;
use crate::topology::Topology;

/// Index of an accelerator within a [`SystemSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AccId(usize);

impl AccId {
    /// Low-level constructor; prefer [`SystemSpec::acc_ids`].
    pub const fn new(index: usize) -> Self {
        AccId(index)
    }

    /// Dense index, valid as a `Vec` slot.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for AccId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0)
    }
}

/// The paper's five Ethernet bandwidth classes (§5.2 / Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BandwidthClass {
    /// 0.125 GB/s (1 GbE) — "Low-".
    LowMinus,
    /// 0.15 GB/s — "Low".
    Low,
    /// 0.25 GB/s (2 GbE) — "Mid-".
    MidMinus,
    /// 0.5 GB/s — "Mid".
    Mid,
    /// 1.25 GB/s (10 GbE) — "High".
    High,
}

impl BandwidthClass {
    /// All five classes, in the paper's order.
    pub const ALL: [BandwidthClass; 5] = [
        BandwidthClass::LowMinus,
        BandwidthClass::Low,
        BandwidthClass::MidMinus,
        BandwidthClass::Mid,
        BandwidthClass::High,
    ];

    /// The accelerator-to-host bandwidth of this class.
    pub fn bandwidth(self) -> BytesPerSec {
        BytesPerSec::from_gbps(match self {
            BandwidthClass::LowMinus => 0.125,
            BandwidthClass::Low => 0.15,
            BandwidthClass::MidMinus => 0.25,
            BandwidthClass::Mid => 0.5,
            BandwidthClass::High => 1.25,
        })
    }

    /// The paper's label for this class.
    pub fn label(self) -> &'static str {
        match self {
            BandwidthClass::LowMinus => "Low-",
            BandwidthClass::Low => "Low",
            BandwidthClass::MidMinus => "Mid-",
            BandwidthClass::Mid => "Mid",
            BandwidthClass::High => "High",
        }
    }

    /// Resolves a class from its paper label, case-insensitively
    /// (`"Low-"`, `"mid"`, …) — the one parser every bench/CLI front
    /// end shares.
    pub fn by_label(label: &str) -> Option<BandwidthClass> {
        BandwidthClass::ALL
            .into_iter()
            .find(|b| b.label().eq_ignore_ascii_case(label))
    }
}

impl fmt::Display for BandwidthClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Energy constants of the interconnect and memory system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemEnergyModel {
    /// Power drawn by an active Ethernet link + switch path, watts.
    /// Transfer energy = transfer time × this power.
    pub eth_link_power_w: f64,
    /// Local DRAM access energy, picojoules per byte.
    pub dram_pj_per_byte: f64,
}

impl Default for SystemEnergyModel {
    fn default() -> Self {
        // ~5 W for a NIC/switch path; ~20 pJ/B for DDR3/DDR4 access.
        SystemEnergyModel {
            eth_link_power_w: 5.0,
            dram_pj_per_byte: 20.0,
        }
    }
}

/// A heterogeneous multi-FPGA system: plugged-in accelerators + the
/// host-side Ethernet fabric.
///
/// # Examples
///
/// ```
/// use h2h_system::system::{BandwidthClass, SystemSpec};
///
/// let sys = SystemSpec::standard(BandwidthClass::LowMinus);
/// assert_eq!(sys.num_accs(), 12);
/// assert_eq!(sys.ethernet().as_f64(), 0.125e9);
/// ```
#[derive(Debug, Clone)]
pub struct SystemSpec {
    accs: Vec<AccelRef>,
    topology: Topology,
    energy: SystemEnergyModel,
    /// Per-board compute slowdown divisors (`None` = all boards at full
    /// speed — the healthy fast path). Set only by [`SystemSpec::degrade`]
    /// when a [`FaultState`] carries compute throttles; applied at
    /// cost-*read* time ([`crate::schedule::Evaluator::layer_cost`], the
    /// event sim's compute phases) so a healthy-system
    /// [`crate::schedule::CostCache`] stays valid on the degraded view.
    compute_slow: Option<Vec<f64>>,
}

impl SystemSpec {
    /// Builds a system from accelerator plug-ins and an Ethernet rate —
    /// a **uniform star** fabric, bit-identical to the paper's scalar
    /// `BW_acc` model. Use [`SystemSpec::with_topology`] for per-link
    /// rates or switched fabrics.
    ///
    /// # Panics
    ///
    /// Panics if `accs` is empty — a system needs at least one device.
    pub fn new(accs: Vec<AccelRef>, ethernet: BytesPerSec) -> Self {
        assert!(!accs.is_empty(), "a system needs at least one accelerator");
        let topology = Topology::uniform_star(ethernet, accs.len());
        SystemSpec {
            accs,
            topology,
            energy: SystemEnergyModel::default(),
            compute_slow: None,
        }
    }

    /// The paper's evaluation system: the 12-accelerator catalog at the
    /// given bandwidth class.
    pub fn standard(bw: BandwidthClass) -> Self {
        SystemSpec::new(standard_accelerators(), bw.bandwidth())
    }

    /// [`SystemSpec::standard`] with an optional topology spec string
    /// (see [`Topology::parse`]; the class rate is the spec's base
    /// rate). `None` — and the explicit `"uniform"` — keep the scalar
    /// uniform star. The one front door every CLI/bench front end
    /// shares, so spec parsing and error text stay in one place.
    ///
    /// # Errors
    ///
    /// Returns [`Topology::parse`]'s message for malformed specs.
    pub fn standard_with_topology(bw: BandwidthClass, spec: Option<&str>) -> Result<Self, String> {
        let system = SystemSpec::standard(bw);
        match spec {
            None => Ok(system),
            Some(spec) => {
                let n = system.num_accs();
                let topo = Topology::parse(spec, bw.bandwidth(), n)?;
                Ok(system.with_topology(topo))
            }
        }
    }

    /// Replaces the interconnect fabric (per-link rates, peer links).
    ///
    /// # Panics
    ///
    /// Panics if the topology's link count does not match the number of
    /// accelerators.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        assert_eq!(
            topology.num_accs(),
            self.accs.len(),
            "topology link count must match the accelerator count"
        );
        self.topology = topology;
        self
    }

    /// Number of accelerators.
    pub fn num_accs(&self) -> usize {
        self.accs.len()
    }

    /// Iterate over accelerator ids.
    pub fn acc_ids(&self) -> impl Iterator<Item = AccId> {
        (0..self.accs.len()).map(AccId)
    }

    /// Borrow an accelerator by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this system.
    pub fn acc(&self, id: AccId) -> &AccelRef {
        &self.accs[id.0]
    }

    /// All accelerators, in id order.
    pub fn accs(&self) -> &[AccelRef] {
        &self.accs
    }

    /// The interconnect fabric: per-link rates and the `(src, dst)`
    /// route table every transfer is charged against.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The scalar `BW_acc` of a uniform-star fabric; on a non-uniform
    /// topology this degrades to the host NIC rate — cost-model code
    /// must query [`SystemSpec::topology`] per route instead (display
    /// and back-compat call sites only).
    pub fn ethernet(&self) -> BytesPerSec {
        self.topology
            .uniform_bw()
            .unwrap_or_else(|| self.topology.host_nic())
    }

    /// Interconnect/memory energy constants.
    pub fn energy_model(&self) -> &SystemEnergyModel {
        &self.energy
    }

    /// The degraded view of this system under a [`FaultState`]: the
    /// same boards behind [`Topology::degrade`]'s re-routed fabric,
    /// carrying the state's per-board compute slowdown divisors
    /// ([`SystemSpec::compute_factor`]). Board liveness stays in the
    /// state (placement code queries [`FaultState::acc_is_up`]); cached
    /// per-layer costs are bandwidth-independent *and* stored at
    /// healthy speed (compute throttles are applied at cost-read time),
    /// so a [`crate::schedule::CostCache`] built on the healthy system
    /// remains valid here ([`crate::schedule::Evaluator::from_cache`])
    /// — that is what makes serve-time repair cheap. A healthy state
    /// returns a bitwise-identical system.
    pub fn degrade(&self, state: &FaultState) -> SystemSpec {
        let compute_slow = state
            .any_compute_degraded()
            .then(|| self.acc_ids().map(|a| state.compute_factor(a)).collect());
        SystemSpec {
            accs: self.accs.clone(),
            topology: self.topology.degrade(state),
            energy: self.energy,
            compute_slow,
        }
    }

    /// The compute slowdown divisor of one board on this (possibly
    /// degraded) view — `1.0` everywhere except on a
    /// [`SystemSpec::degrade`] result whose state throttled the board.
    /// Cost readers ([`crate::schedule::Evaluator::layer_cost`], the
    /// event sim) multiply cached compute times by this at read time.
    pub fn compute_factor(&self, id: AccId) -> f64 {
        self.compute_slow.as_ref().map_or(1.0, |s| s[id.0])
    }

    /// True when any board on this view is compute-throttled.
    pub fn any_compute_degraded(&self) -> bool {
        self.compute_slow.is_some()
    }

    /// The sub-system of boards still alive under a [`FaultState`],
    /// with the degraded fabric restricted to them — what a
    /// from-scratch remap on the degraded cluster searches over.
    /// Returns the sub-system plus the live boards' original ids,
    /// index-aligned with the sub-system's accelerators (translate a
    /// sub-mapping back with `live_ids[sub_acc.index()]`).
    ///
    /// # Panics
    ///
    /// Panics if every board is down — there is nothing left to map on.
    pub fn live_subsystem(&self, state: &FaultState) -> (SystemSpec, Vec<AccId>) {
        let degraded = self.topology.degrade(state);
        let live_ids: Vec<AccId> = self.acc_ids().filter(|a| state.acc_is_up(*a)).collect();
        assert!(
            !live_ids.is_empty(),
            "a live subsystem needs at least one surviving board"
        );
        let sub_index: Vec<Option<usize>> = {
            let mut map = vec![None; self.num_accs()];
            for (sub, id) in live_ids.iter().enumerate() {
                map[id.index()] = Some(sub);
            }
            map
        };
        let links = live_ids.iter().map(|a| degraded.link(*a)).collect();
        let peers = degraded
            .peers()
            .iter()
            .filter_map(|(a, b, r)| Some((sub_index[*a]?, sub_index[*b]?, *r)))
            .collect();
        let topology = Topology::switched(degraded.host_nic(), links, peers);
        let accs = live_ids
            .iter()
            .map(|a| self.accs[a.index()].clone())
            .collect();
        let compute_slow = state
            .any_compute_degraded()
            .then(|| live_ids.iter().map(|a| state.compute_factor(*a)).collect());
        let sub = SystemSpec {
            accs,
            topology,
            energy: self.energy,
            compute_slow,
        };
        (sub, live_ids)
    }

    /// Finds an accelerator id by catalog short-id (e.g. `"XW"`).
    pub fn find_by_meta_id(&self, meta_id: &str) -> Option<AccId> {
        self.accs
            .iter()
            .position(|a| a.meta().id == meta_id)
            .map(AccId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_classes_match_paper() {
        let gbps: Vec<f64> = BandwidthClass::ALL
            .iter()
            .map(|c| c.bandwidth().as_f64() / 1e9)
            .collect();
        assert_eq!(gbps, vec![0.125, 0.15, 0.25, 0.5, 1.25]);
        assert_eq!(BandwidthClass::LowMinus.label(), "Low-");
    }

    #[test]
    fn standard_system_has_twelve_accs() {
        let sys = SystemSpec::standard(BandwidthClass::Mid);
        assert_eq!(sys.num_accs(), 12);
        assert_eq!(sys.acc_ids().count(), 12);
        assert_eq!(sys.acc(AccId::new(0)).meta().id, "JZ");
    }

    #[test]
    fn find_by_meta_id_roundtrips() {
        let sys = SystemSpec::standard(BandwidthClass::Mid);
        let xw = sys.find_by_meta_id("XW").unwrap();
        assert_eq!(sys.acc(xw).meta().id, "XW");
        assert!(sys.find_by_meta_id("??").is_none());
    }

    #[test]
    #[should_panic(expected = "at least one accelerator")]
    fn empty_system_rejected() {
        let _ = SystemSpec::new(Vec::new(), BytesPerSec::from_gbps(1.0));
    }

    #[test]
    fn default_energy_model_is_sane() {
        let e = SystemEnergyModel::default();
        assert!(e.eth_link_power_w > 0.0);
        assert!(e.dram_pj_per_byte > 0.0);
    }
}
