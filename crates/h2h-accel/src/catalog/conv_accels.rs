//! The nine convolution-oriented FPGA accelerators of Table 3.
//!
//! Constants are derived from each cited design's publication where
//! public (board, dataflow family, power class) and calibrated in
//! *sustained* GMAC/s so the zoo's computation/communication balance
//! lands in the regime the H2H paper reports (Fig. 5a). Peak datasheet
//! GOPS are rarely sustained on real layer sequences; DESIGN.md §3
//! records this substitution.

use h2h_model::layer::LayerClass;

use crate::analytic::{AccelSpec, AnalyticAccel};
use crate::dataflow::Dataflow;

const CONV_ONLY: &[LayerClass] = &[LayerClass::Conv];
const CONV_FC_LSTM: &[LayerClass] = &[LayerClass::Conv, LayerClass::Fc, LayerClass::Lstm];

/// J.Z \[26\] — OpenCL conv accelerator on Arria-10 GX1150 (FPGA'17),
/// optimized around on-chip memory: a balanced row-stationary-like
/// mapping with large buffers. Niche: stems and large-spatial layers.
pub fn jz_gx1150() -> AnalyticAccel {
    AnalyticAccel::new(AccelSpec {
        id: "JZ",
        name: "J.Z [26] OpenCL conv (on-chip memory opt.)",
        fpga: "GX1150",
        dataflow: Dataflow::RowStationary {
            spatial_cap: 1024,
            channel_cap: 64,
        },
        peak_gmacs: 42.0,
        supports: CONV_ONLY,
        dram_mib: 4096,
        dram_gbps: 17.0,
        active_power_w: 30.0,
        pj_per_mac: 520.0,
        launch_overhead_us: 15.0,
    })
}

/// C.Z \[19\] — the classic Zhang et al. FPGA'15 design on VC707 with
/// `Tn=7 × Tm=64` channel tiling. Slowest of the catalog (fp32, 2015)
/// but its tiny input-channel tile gives it a niche on shallow-input
/// convolutions (sensor frontends).
pub fn cz_vc707() -> AnalyticAccel {
    AnalyticAccel::new(AccelSpec {
        id: "CZ",
        name: "C.Z [19] conv (channel parallelism)",
        fpga: "VC707",
        dataflow: Dataflow::ChannelParallel { tn: 7, tm: 64 },
        peak_gmacs: 12.0,
        supports: CONV_ONLY,
        dram_mib: 1024,
        dram_gbps: 12.8,
        active_power_w: 18.6,
        pj_per_mac: 1100.0,
        launch_overhead_us: 20.0,
    })
}

/// W.J \[27\] — super-linear multi-FPGA inference design on ZCU102
/// (TECS'19), memory- and channel-optimized int8 datapath.
pub fn wj_zcu102() -> AnalyticAccel {
    AnalyticAccel::new(AccelSpec {
        id: "WJ",
        name: "W.J [27] conv (memory + channel opt.)",
        fpga: "ZCU102",
        dataflow: Dataflow::ChannelParallel { tn: 16, tm: 64 },
        peak_gmacs: 26.0,
        supports: CONV_ONLY,
        dram_mib: 4096,
        dram_gbps: 19.2,
        active_power_w: 23.6,
        pj_per_mac: 640.0,
        launch_overhead_us: 8.0,
    })
}

/// J.Q \[28\] — Going Deeper (FPGA'16) on ZC706: the generality-first
/// embedded design, runs Conv, FC and (with reduced efficiency) LSTM.
pub fn jq_zc706() -> AnalyticAccel {
    AnalyticAccel::new(AccelSpec {
        id: "JQ",
        name: "J.Q [28] conv/FC/(LSTM) (computing generality)",
        fpga: "ZC706",
        dataflow: Dataflow::Generality { eff: 0.65 },
        peak_gmacs: 11.0,
        supports: CONV_FC_LSTM,
        dram_mib: 1024,
        dram_gbps: 12.8,
        active_power_w: 9.6,
        pj_per_mac: 620.0,
        launch_overhead_us: 12.0,
    })
}

/// A.C \[29\] — compiler-generated accelerator on XC7Z045 (arXiv'17),
/// loop-optimized output-pixel parallelism.
pub fn ac_xc7z045() -> AnalyticAccel {
    AnalyticAccel::new(AccelSpec {
        id: "AC",
        name: "A.C [29] conv (loop optimization)",
        fpga: "XC7Z045",
        dataflow: Dataflow::OutputStationary {
            spatial_pes: 256,
            channel_tile: 32,
        },
        peak_gmacs: 8.0,
        supports: CONV_ONLY,
        dram_mib: 1024,
        dram_gbps: 12.8,
        active_power_w: 9.9,
        pj_per_mac: 830.0,
        launch_overhead_us: 12.0,
    })
}

/// Y.G \[30\] — FP-DNN (FCCM'17) on Stratix-V: RTL-HLS hybrid mapping
/// framework, Conv + FC + LSTM generality. Niche: small FC heads.
pub fn yg_stratixv() -> AnalyticAccel {
    AnalyticAccel::new(AccelSpec {
        id: "YG",
        name: "Y.G [30] conv/FC/LSTM (computing generality)",
        fpga: "Stratix-V",
        dataflow: Dataflow::Generality { eff: 0.6 },
        peak_gmacs: 13.0,
        supports: CONV_FC_LSTM,
        dram_mib: 4096,
        dram_gbps: 14.9,
        active_power_w: 25.0,
        pj_per_mac: 1300.0,
        launch_overhead_us: 15.0,
    })
}

/// T.M \[31\] — loop-operation/dataflow-optimized design on GX1150
/// (FPGA'17): deep output-pixel + output-channel parallelism. Niche:
/// full-channel mid-network 3×3 convolutions with healthy spatial size.
pub fn tm_gx1150() -> AnalyticAccel {
    AnalyticAccel::new(AccelSpec {
        id: "TM",
        name: "T.M [31] conv (loop optimization)",
        fpga: "GX1150",
        dataflow: Dataflow::OutputStationary {
            spatial_pes: 196,
            channel_tile: 64,
        },
        peak_gmacs: 34.0,
        supports: CONV_ONLY,
        dram_mib: 4096,
        dram_gbps: 17.0,
        active_power_w: 21.2,
        pj_per_mac: 450.0,
        launch_overhead_us: 10.0,
    })
}

/// A.P \[32\] — Winograd F(2,3) engine on Stratix-V (ASAP'17). A 2.25×
/// arithmetic-strength gain on 3×3 stride-1 kernels, steep fallback
/// elsewhere. Niche: thin-channel 3×3 backbones (half-width ResNets).
pub fn ap_stratixv() -> AnalyticAccel {
    AnalyticAccel::new(AccelSpec {
        id: "AP",
        name: "A.P [32] conv (Winograd)",
        fpga: "Stratix-V",
        dataflow: Dataflow::Winograd {
            tn: 32,
            tm: 32,
            speedup: 2.25,
            fallback: 0.2,
        },
        peak_gmacs: 14.0,
        supports: CONV_ONLY,
        dram_mib: 4096,
        dram_gbps: 14.9,
        active_power_w: 19.1,
        pj_per_mac: 720.0,
        launch_overhead_us: 12.0,
    })
}

/// X.W \[33\] — automated systolic-array synthesis on GT1150 (DAC'17):
/// a 128×128 GEMM array with im2col streaming. Niche: pointwise (1×1)
/// and deep late-network convolutions.
pub fn xw_gt1150() -> AnalyticAccel {
    AnalyticAccel::new(AccelSpec {
        id: "XW",
        name: "X.W [33] conv (systolic array)",
        fpga: "GT1150",
        dataflow: Dataflow::Systolic {
            rows: 128,
            cols: 128,
            im2col_penalty: 0.06,
        },
        peak_gmacs: 48.0,
        supports: CONV_ONLY,
        dram_mib: 8192,
        dram_gbps: 17.0,
        active_power_w: 41.3,
        pj_per_mac: 560.0,
        launch_overhead_us: 10.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AccelModel;
    use h2h_model::layer::{ConvParams, Layer, LayerOp};

    fn conv(m: u32, n: u32, hw: u32, k: u32, s: u32) -> Layer {
        Layer::new("c", LayerOp::Conv(ConvParams::square(n, m, hw, hw, k, s)))
    }

    #[test]
    fn all_conv_accels_reject_lstm() {
        use h2h_model::layer::LstmParams;
        let lstm = Layer::new(
            "l",
            LayerOp::Lstm(LstmParams {
                in_size: 64,
                hidden: 64,
                layers: 1,
                seq_len: 8,
                return_sequences: false,
            }),
        );
        for acc in [
            jz_gx1150(),
            cz_vc707(),
            wj_zcu102(),
            ac_xc7z045(),
            tm_gx1150(),
            ap_stratixv(),
            xw_gt1150(),
        ] {
            assert!(!acc.supports(&lstm), "{} must not run LSTM", acc.meta().id);
        }
        // The generality designs do run LSTM.
        assert!(jq_zc706().supports(&lstm));
        assert!(yg_stratixv().supports(&lstm));
    }

    #[test]
    fn cz_keeps_its_thin_input_niche() {
        // Sensor frontend: 6 input channels. CZ's Tn=7 barely wastes
        // lanes; wider designs starve.
        let thin = conv(6, 64, 200, 5, 1);
        let cz = cz_vc707().compute_time(&thin).unwrap();
        let wj = wj_zcu102().compute_time(&thin).unwrap();
        let xw = xw_gt1150().compute_time(&thin).unwrap();
        assert!(cz < wj, "CZ {cz} should beat WJ {wj} on thin inputs");
        assert!(cz < xw, "CZ {cz} should beat XW {xw} on thin inputs");
    }

    #[test]
    fn xw_wins_pointwise_convolutions() {
        let pw = conv(512, 2048, 7, 1, 1);
        let xw = xw_gt1150().compute_time(&pw).unwrap();
        for acc in [
            jz_gx1150(),
            cz_vc707(),
            wj_zcu102(),
            ac_xc7z045(),
            tm_gx1150(),
            ap_stratixv(),
        ] {
            let t = acc.compute_time(&pw).unwrap();
            assert!(
                xw < t,
                "XW should beat {} on 1x1 ({xw} vs {t})",
                acc.meta().id
            );
        }
    }

    #[test]
    fn tm_wins_full_channel_mid_3x3() {
        let mid = conv(128, 128, 28, 3, 1);
        let tm = tm_gx1150().compute_time(&mid).unwrap();
        for acc in [
            cz_vc707(),
            wj_zcu102(),
            ac_xc7z045(),
            ap_stratixv(),
            xw_gt1150(),
        ] {
            let t = acc.compute_time(&mid).unwrap();
            assert!(
                tm < t,
                "TM should beat {} on mid 3x3 ({tm} vs {t})",
                acc.meta().id
            );
        }
    }

    #[test]
    fn ap_wins_thin_channel_3x3() {
        // Half-width ResNet block shapes (CASIA-SURF): 32 channels.
        let thin3 = conv(32, 32, 28, 3, 1);
        let ap = ap_stratixv().compute_time(&thin3).unwrap();
        for acc in [
            jz_gx1150(),
            cz_vc707(),
            wj_zcu102(),
            ac_xc7z045(),
            tm_gx1150(),
            xw_gt1150(),
        ] {
            let t = acc.compute_time(&thin3).unwrap();
            assert!(
                ap < t,
                "AP should beat {} on thin 3x3 ({ap} vs {t})",
                acc.meta().id
            );
        }
    }

    #[test]
    fn jz_wins_stem_layers() {
        let stem = conv(3, 64, 112, 7, 2);
        let jz = jz_gx1150().compute_time(&stem).unwrap();
        for acc in [
            cz_vc707(),
            wj_zcu102(),
            jq_zc706(),
            ac_xc7z045(),
            yg_stratixv(),
            tm_gx1150(),
            ap_stratixv(),
            xw_gt1150(),
        ] {
            let t = acc.compute_time(&stem).unwrap();
            assert!(
                jz < t,
                "JZ should beat {} on the stem ({jz} vs {t})",
                acc.meta().id
            );
        }
    }

    #[test]
    fn bottleneck_alternates_between_accelerators() {
        // The heart of the VLocNet shape: inside a ResNet-50 bottleneck
        // the 1x1 layers and the 3x3 layer prefer different designs, so
        // computation-prioritized mapping scatters adjacent layers.
        let reduce = conv(1024, 256, 14, 1, 1);
        let spatial = conv(256, 256, 14, 3, 1);
        let best = |l: &Layer| {
            [
                jz_gx1150(),
                cz_vc707(),
                wj_zcu102(),
                jq_zc706(),
                ac_xc7z045(),
                yg_stratixv(),
                tm_gx1150(),
                ap_stratixv(),
                xw_gt1150(),
            ]
            .into_iter()
            .min_by(|a, b| {
                a.compute_time(l)
                    .unwrap()
                    .partial_cmp(&b.compute_time(l).unwrap())
                    .unwrap()
            })
            .unwrap()
            .meta()
            .id
            .clone()
        };
        let b1 = best(&reduce);
        let b2 = best(&spatial);
        assert_ne!(
            b1, b2,
            "1x1 ({b1}) and 3x3 ({b2}) should prefer different accelerators"
        );
    }
}
