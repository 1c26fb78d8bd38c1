//! Plugging a user-defined accelerator into the system — the paper's
//! "plug-in manner" (§1). Two routes are shown:
//!
//! 1. parameterizing the built-in analytical model (`AccelSpec`) for a
//!    hypothetical next-generation systolic FPGA, and
//! 2. implementing `AccelModel` from scratch for an exotic design the
//!    analytical template cannot express (here: a layer-type-agnostic
//!    "elastic CGRA" whose latency follows a square-root scaling law).
//!
//! ```sh
//! cargo run --release --example custom_accelerator
//! ```

use std::sync::Arc;

use h2h::accel::catalog;
use h2h::accel::{AccelMeta, AccelModel, AccelSpec, AnalyticAccel, Dataflow};
use h2h::core::H2hMapper;
use h2h::model::layer::{Layer, LayerClass};
use h2h::model::units::{Bytes, BytesPerSec, Joules, Seconds};
use h2h::system::{BandwidthClass, SystemSpec};

/// Route 2: a from-scratch accelerator model. Latency grows with the
/// square root of the MAC volume (an elastic spatial fabric that
/// allocates more tiles to bigger layers).
#[derive(Debug)]
struct ElasticCgra {
    meta: AccelMeta,
}

impl ElasticCgra {
    fn new() -> Self {
        ElasticCgra {
            meta: AccelMeta {
                id: "CGRA".into(),
                name: "elastic CGRA (user plug-in)".into(),
                fpga: "hypothetical".into(),
                dataflow: Dataflow::Generality { eff: 1.0 },
            },
        }
    }
}

impl AccelModel for ElasticCgra {
    fn meta(&self) -> &AccelMeta {
        &self.meta
    }
    fn supported_classes(&self) -> &[LayerClass] {
        &[LayerClass::Conv, LayerClass::Fc, LayerClass::Lstm]
    }
    fn compute_time(&self, layer: &Layer) -> Option<Seconds> {
        // sqrt scaling: 1 GMAC -> 1 ms, 100 GMAC -> 10 ms.
        Some(Seconds::new((layer.macs().as_f64()).sqrt() * 3.2e-8 + 5e-6))
    }
    fn compute_energy(&self, layer: &Layer) -> Option<Joules> {
        Some(Joules::new(layer.macs().as_f64() * 90e-12))
    }
    fn dram_capacity(&self) -> Bytes {
        Bytes::from_gib(16)
    }
    fn dram_bandwidth(&self) -> BytesPerSec {
        BytesPerSec::from_gbps(38.4)
    }
    fn active_power_w(&self) -> f64 {
        35.0
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = h2h::model::zoo::casia_surf();
    let bw = BandwidthClass::LowMinus;

    // Baseline: the stock 12-accelerator system.
    let stock = SystemSpec::standard(bw);
    let stock_out = H2hMapper::new(&model, &stock).run()?;

    // Route 1: a 256x256 systolic array on an HBM board, via AccelSpec.
    let hbm_systolic = AnalyticAccel::new(AccelSpec {
        id: "HBM",
        name: "user-defined HBM systolic array",
        fpga: "hypothetical-HBM",
        dataflow: Dataflow::Systolic {
            rows: 256,
            cols: 256,
            im2col_penalty: 0.04,
        },
        peak_gmacs: 160.0,
        supports: &[LayerClass::Conv, LayerClass::Fc],
        dram_mib: 16 * 1024,
        dram_gbps: 460.0, // paper §3 upper bound (HBM)
        active_power_w: 60.0,
        pj_per_mac: 260.0,
        launch_overhead_us: 8.0,
    });

    let mut accs = catalog::standard_accelerators();
    accs.push(Arc::new(hbm_systolic));
    accs.push(Arc::new(ElasticCgra::new()));
    let extended = SystemSpec::new(accs, bw.bandwidth());
    let ext_out = H2hMapper::new(&model, &extended).run()?;

    println!("CASIA-SURF @ {}:", bw.label());
    println!(
        "  stock system (12 accs): H2H latency {}",
        stock_out.final_latency()
    );
    println!(
        "  + HBM systolic + CGRA : H2H latency {}",
        ext_out.final_latency()
    );

    let histogram = ext_out.mapping.load_histogram(extended.num_accs());
    println!("\nlayers per accelerator in the extended system:");
    for (i, n) in histogram.iter().enumerate() {
        if *n > 0 {
            let meta = extended.acc(h2h::system::AccId::new(i)).meta();
            println!("  {:<5} {:<38} {n} layers", meta.id, meta.name);
        }
    }
    Ok(())
}
