//! Deterministic constant-cost accelerators for tests and examples.
//!
//! The catalog's analytical models have launch overheads and
//! shape-dependent utilization that make hand-computed expectations
//! awkward; [`ConstAccel`] costs every supported layer a fixed time and
//! energy so scheduler tests can assert exact arithmetic. Exposed
//! (hidden from docs) because downstream crates' tests reuse it.

use h2h_accel::dataflow::Dataflow;
use h2h_accel::model::{AccelMeta, AccelModel, AccelRef};
use h2h_model::layer::{Layer, LayerClass};
use h2h_model::units::{Bytes, BytesPerSec, Joules, Seconds};

use crate::system::SystemSpec;

/// An accelerator that runs every supported layer in constant time.
#[derive(Debug, Clone)]
pub struct ConstAccel {
    meta: AccelMeta,
    classes: Vec<LayerClass>,
    time: Seconds,
    energy: Joules,
    dram_capacity: Bytes,
    dram_bandwidth: f64,
    power: f64,
}

impl ConstAccel {
    /// Supports every layer class; `secs` per layer, 1 mJ per layer,
    /// 1 GiB local DRAM at 1 GB/s, 10 W.
    pub fn universal(id: &str, secs: f64) -> Self {
        ConstAccel {
            meta: AccelMeta {
                id: id.to_owned(),
                name: format!("const accel {id}"),
                fpga: "virtual".to_owned(),
                dataflow: Dataflow::Generality { eff: 1.0 },
            },
            classes: vec![
                LayerClass::Conv,
                LayerClass::Fc,
                LayerClass::Lstm,
                LayerClass::Aux,
            ],
            time: Seconds::new(secs),
            energy: Joules::new(1e-3),
            dram_capacity: Bytes::from_gib(1),
            dram_bandwidth: 1e9,
            power: 10.0,
        }
    }

    /// Restricts supported classes.
    pub fn with_classes(mut self, classes: &[LayerClass]) -> Self {
        self.classes = classes.to_vec();
        self
    }

    /// Overrides the DRAM capacity.
    pub fn with_dram(mut self, capacity: Bytes) -> Self {
        self.dram_capacity = capacity;
        self
    }
}

impl AccelModel for ConstAccel {
    fn meta(&self) -> &AccelMeta {
        &self.meta
    }

    fn supported_classes(&self) -> &[LayerClass] {
        &self.classes
    }

    fn compute_time(&self, layer: &Layer) -> Option<Seconds> {
        self.supports(layer).then_some(self.time)
    }

    fn compute_energy(&self, layer: &Layer) -> Option<Joules> {
        self.supports(layer).then_some(self.energy)
    }

    fn dram_capacity(&self) -> Bytes {
        self.dram_capacity
    }

    fn dram_bandwidth(&self) -> BytesPerSec {
        BytesPerSec::new(self.dram_bandwidth)
    }

    fn active_power_w(&self) -> f64 {
        self.power
    }
}

/// Builds a system from constant-cost accelerators and a raw Ethernet
/// rate in bytes/second.
pub fn const_system(accels: Vec<ConstAccel>, eth_bytes_per_sec: f64) -> SystemSpec {
    let refs: Vec<AccelRef> = accels
        .into_iter()
        .map(|a| std::sync::Arc::new(a) as AccelRef)
        .collect();
    SystemSpec::new(refs, BytesPerSec::new(eth_bytes_per_sec))
}
