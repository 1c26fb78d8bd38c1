//! The analytical accelerator model backing the whole catalog.
//!
//! `latency = MACs / (peak · utilization) + launch_overhead`, with
//! utilization supplied by the design's [`Dataflow`] — the MAESTRO-lite
//! roofline. Energy charges every MAC at the design's pJ/MAC, inflated
//! when the array runs under-occupied (idle PEs still burn clock power).

use h2h_model::layer::{Layer, LayerClass};
use h2h_model::units::{Bytes, BytesPerSec, Joules, Seconds};

use crate::dataflow::Dataflow;
use crate::model::{AccelMeta, AccelModel};

/// Fraction of peak throughput available to auxiliary (memory-engine)
/// ops such as pooling and elementwise adds.
const AUX_THROUGHPUT_FACTOR: f64 = 0.25;

/// Full parameter set of an analytical accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct AccelSpec {
    /// Short identifier (Table 3 first-author initials).
    pub id: &'static str,
    /// Human-readable description.
    pub name: &'static str,
    /// FPGA board name.
    pub fpga: &'static str,
    /// Dataflow style with tiling parameters.
    pub dataflow: Dataflow,
    /// Peak throughput in GMAC/s (10⁹ multiply-accumulates per second).
    pub peak_gmacs: f64,
    /// Layer classes the design executes (aux ops implicit).
    pub supports: &'static [LayerClass],
    /// Local DRAM capacity in MiB (`M_acc`; paper range 512 MB – 8 GB).
    pub dram_mib: u64,
    /// Local DRAM bandwidth in GB/s (paper range 6.4 – 460 GB/s).
    pub dram_gbps: f64,
    /// Board power while busy, watts.
    pub active_power_w: f64,
    /// Dynamic energy per MAC at full occupancy, picojoules.
    pub pj_per_mac: f64,
    /// Fixed per-layer launch/configuration overhead, microseconds.
    pub launch_overhead_us: f64,
}

/// An accelerator whose behaviour is derived analytically from an
/// [`AccelSpec`]. This is the concrete type behind all twelve catalog
/// entries.
#[derive(Debug, Clone)]
pub struct AnalyticAccel {
    spec: AccelSpec,
    meta: AccelMeta,
}

impl AnalyticAccel {
    /// Builds the model from its spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (non-positive peak, bandwidth or
    /// power) — catalog constants are validated at construction.
    pub fn new(spec: AccelSpec) -> Self {
        assert!(spec.peak_gmacs > 0.0, "{}: peak must be positive", spec.id);
        assert!(
            spec.dram_gbps > 0.0,
            "{}: dram bandwidth must be positive",
            spec.id
        );
        assert!(
            spec.active_power_w > 0.0,
            "{}: power must be positive",
            spec.id
        );
        assert!(
            spec.pj_per_mac > 0.0,
            "{}: pj/mac must be positive",
            spec.id
        );
        let meta = AccelMeta {
            id: spec.id.to_owned(),
            name: spec.name.to_owned(),
            fpga: spec.fpga.to_owned(),
            dataflow: spec.dataflow,
        };
        AnalyticAccel { spec, meta }
    }

    /// The underlying spec (exposed for reporting and ablations).
    pub fn spec(&self) -> &AccelSpec {
        &self.spec
    }

    fn peak_macs_per_s(&self) -> f64 {
        self.spec.peak_gmacs * 1e9
    }

    fn overhead(&self) -> Seconds {
        Seconds::new(self.spec.launch_overhead_us * 1e-6)
    }
}

impl AccelModel for AnalyticAccel {
    fn meta(&self) -> &AccelMeta {
        &self.meta
    }

    fn supported_classes(&self) -> &[LayerClass] {
        self.spec.supports
    }

    fn compute_time(&self, layer: &Layer) -> Option<Seconds> {
        if !self.supports(layer) {
            return None;
        }
        let macs = layer.macs().as_f64();
        if layer.class() == LayerClass::Aux {
            let t = macs / (self.peak_macs_per_s() * AUX_THROUGHPUT_FACTOR);
            return Some(Seconds::new(t) + self.overhead());
        }
        let util = self.spec.dataflow.utilization(layer.op());
        let t = macs / (self.peak_macs_per_s() * util);
        Some(Seconds::new(t) + self.overhead())
    }

    fn compute_energy(&self, layer: &Layer) -> Option<Joules> {
        if !self.supports(layer) {
            return None;
        }
        let macs = layer.macs().as_f64();
        if layer.class() == LayerClass::Aux {
            return Some(Joules::new(macs * self.spec.pj_per_mac * 1e-12));
        }
        let util = self.spec.dataflow.utilization(layer.op()).min(1.0);
        // Idle-PE overhead: energy/MAC grows as occupancy drops, bounded
        // at 2.5× so a starved array does not produce absurd figures.
        let inflation = (1.0 / (0.4 + 0.6 * util)).min(2.5);
        Some(Joules::new(macs * self.spec.pj_per_mac * inflation * 1e-12))
    }

    fn dram_capacity(&self) -> Bytes {
        Bytes::from_mib(self.spec.dram_mib)
    }

    fn dram_bandwidth(&self) -> BytesPerSec {
        BytesPerSec::from_gbps(self.spec.dram_gbps)
    }

    fn active_power_w(&self) -> f64 {
        self.spec.active_power_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2h_model::layer::{ConvParams, FcParams, LayerOp, LstmParams};
    use h2h_model::tensor::TensorShape;

    fn spec() -> AccelSpec {
        AccelSpec {
            id: "T",
            name: "test accel",
            fpga: "test board",
            dataflow: Dataflow::ChannelParallel { tn: 32, tm: 64 },
            peak_gmacs: 100.0,
            supports: &[LayerClass::Conv, LayerClass::Fc],
            dram_mib: 1024,
            dram_gbps: 12.8,
            active_power_w: 20.0,
            pj_per_mac: 100.0,
            launch_overhead_us: 10.0,
        }
    }

    fn conv_layer() -> Layer {
        // 512x512 1x1 at 14x14: perfectly tiled -> util 1.0.
        Layer::new(
            "c",
            LayerOp::Conv(ConvParams::square(512, 512, 14, 14, 1, 1)),
        )
    }

    #[test]
    fn latency_matches_roofline() {
        let acc = AnalyticAccel::new(spec());
        let l = conv_layer();
        let macs = l.macs().as_f64(); // 512*512*196
        let expect = macs / (100e9) + 10e-6;
        let got = acc.compute_time(&l).unwrap().as_f64();
        assert!((got - expect).abs() / expect < 1e-9, "{got} vs {expect}");
    }

    #[test]
    fn unsupported_class_returns_none() {
        let acc = AnalyticAccel::new(spec());
        let lstm = Layer::new(
            "l",
            LayerOp::Lstm(LstmParams {
                in_size: 64,
                hidden: 64,
                layers: 1,
                seq_len: 10,
                return_sequences: false,
            }),
        );
        assert!(acc.compute_time(&lstm).is_none());
        assert!(acc.compute_energy(&lstm).is_none());
        assert!(!acc.supports(&lstm));
    }

    #[test]
    fn aux_ops_run_anywhere_at_reduced_rate() {
        let acc = AnalyticAccel::new(spec());
        let add = Layer::new(
            "a",
            LayerOp::Add {
                shape: TensorShape::Feature {
                    c: 64,
                    h: 56,
                    w: 56,
                },
            },
        );
        let t = acc.compute_time(&add).unwrap();
        let expect = (64.0 * 56.0 * 56.0) / (100e9 * 0.25) + 10e-6;
        assert!((t.as_f64() - expect).abs() < 1e-12);
    }

    #[test]
    fn energy_inflates_when_starved() {
        let acc = AnalyticAccel::new(spec());
        let good = conv_layer();
        // Stem conv: util = 3/32 -> heavy inflation (capped at 2.5x).
        let starved = Layer::new(
            "s",
            LayerOp::Conv(ConvParams::square(64, 3, 112, 112, 7, 2)),
        );
        let e_good = acc.compute_energy(&good).unwrap().as_f64() / good.macs().as_f64();
        let e_starved = acc.compute_energy(&starved).unwrap().as_f64() / starved.macs().as_f64();
        assert!(e_starved > e_good * 2.0);
        assert!(e_starved <= e_good * 2.5 + 1e-12);
    }

    #[test]
    fn fc_supported_when_listed() {
        let acc = AnalyticAccel::new(spec());
        let fc = Layer::new(
            "f",
            LayerOp::Fc(FcParams {
                in_features: 64,
                out_features: 64,
            }),
        );
        assert!(acc.compute_time(&fc).is_some());
    }

    #[test]
    #[should_panic(expected = "peak must be positive")]
    fn degenerate_spec_rejected() {
        let mut s = spec();
        s.peak_gmacs = 0.0;
        let _ = AnalyticAccel::new(s);
    }

    #[test]
    fn board_parameters_exposed() {
        let acc = AnalyticAccel::new(spec());
        assert_eq!(acc.dram_capacity(), Bytes::from_mib(1024));
        assert!((acc.dram_bandwidth().as_f64() - 12.8e9).abs() < 1.0);
        assert_eq!(acc.active_power_w(), 20.0);
    }
}
