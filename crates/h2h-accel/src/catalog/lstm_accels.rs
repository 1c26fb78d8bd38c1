//! The three LSTM/FC-oriented FPGA accelerators of Table 3.

use h2h_model::layer::LayerClass;

use crate::analytic::{AccelSpec, AnalyticAccel};
use crate::dataflow::Dataflow;

const LSTM_FC: &[LayerClass] = &[LayerClass::Lstm, LayerClass::Fc];
const LSTM_ONLY: &[LayerClass] = &[LayerClass::Lstm];

/// S.H \[34\] — ESE (FPGA'17 best paper) on XCKU060: sparse LSTM engine
/// with a deep pipeline; also runs FC. Niche: large hidden states at
/// short-to-medium sequence lengths.
pub fn sh_xcku060() -> AnalyticAccel {
    AnalyticAccel::new(AccelSpec {
        id: "SH",
        name: "S.H [34] LSTM/FC (deep pipeline, sparse)",
        fpga: "XCKU060",
        dataflow: Dataflow::LstmPipeline { lanes: 2048, depth: 32 },
        peak_gmacs: 50.0,
        supports: LSTM_FC,
        dram_mib: 8192,
        dram_gbps: 19.2,
        active_power_w: 41.0,
        pj_per_mac: 700.0,
        launch_overhead_us: 15.0,
    })
}

/// X.Z \[35\] — the authors' own gate-parallel LSTM design (ICCD'20) on
/// PYNQ-Z1/VC707: all four gates computed concurrently, sized for
/// small-to-medium hidden states; tiny 512 MB board (the paper's lower
/// `M_acc` bound) and very low power.
pub fn xz_pynqz1() -> AnalyticAccel {
    AnalyticAccel::new(AccelSpec {
        id: "XZ",
        name: "X.Z [35] LSTM (gate parallelism)",
        fpga: "PYNQ-Z1/VC707",
        dataflow: Dataflow::LstmGateParallel { gate_pes: 384 },
        peak_gmacs: 3.5,
        supports: LSTM_ONLY,
        dram_mib: 512,
        dram_gbps: 4.2,
        active_power_w: 2.5,
        pj_per_mac: 420.0,
        launch_overhead_us: 5.0,
    })
}

/// B.L \[36\] — FTrans (ISLPED'20) on VCU118: a wide deeply-pipelined
/// recurrent/transformer engine. Niche: very long sequences (the
/// pipeline amortizes its fill depth) and wide FC layers.
pub fn bl_vcu118() -> AnalyticAccel {
    AnalyticAccel::new(AccelSpec {
        id: "BL",
        name: "B.L [36] LSTM (deep pipeline)",
        fpga: "VCU118",
        dataflow: Dataflow::LstmPipeline { lanes: 4096, depth: 128 },
        peak_gmacs: 120.0,
        supports: LSTM_FC,
        dram_mib: 4096,
        dram_gbps: 25.6,
        active_power_w: 25.0,
        pj_per_mac: 180.0,
        launch_overhead_us: 10.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AccelModel;
    use h2h_model::layer::{Layer, LayerOp, LstmParams};

    fn lstm(hidden: u32, seq_len: u32) -> Layer {
        Layer::new(
            "l",
            LayerOp::Lstm(LstmParams {
                in_size: hidden,
                hidden,
                layers: 1,
                seq_len,
                return_sequences: false,
            }),
        )
    }

    #[test]
    fn sh_wins_short_sequence_large_hidden() {
        // CNN-LSTM video head: H=512, T=90.
        let l = lstm(512, 90);
        let sh = sh_xcku060().compute_time(&l).unwrap();
        let bl = bl_vcu118().compute_time(&l).unwrap();
        let xz = xz_pynqz1().compute_time(&l).unwrap();
        assert!(sh < bl, "SH {sh} vs BL {bl}");
        assert!(sh < xz, "SH {sh} vs XZ {xz}");
    }

    #[test]
    fn bl_wins_very_long_sequences() {
        // MoCap streams: H=384, T=6000.
        let l = lstm(384, 6000);
        let bl = bl_vcu118().compute_time(&l).unwrap();
        let sh = sh_xcku060().compute_time(&l).unwrap();
        assert!(bl < sh, "BL {bl} vs SH {sh}");
    }

    #[test]
    fn xz_is_the_low_power_option() {
        assert!(xz_pynqz1().active_power_w() < 5.0);
        assert!(xz_pynqz1().dram_capacity() == h2h_model::units::Bytes::from_mib(512));
    }

    #[test]
    fn lstm_only_design_rejects_fc() {
        use h2h_model::layer::FcParams;
        let fc = Layer::new("f", LayerOp::Fc(FcParams { in_features: 64, out_features: 64 }));
        assert!(!xz_pynqz1().supports(&fc));
        assert!(sh_xcku060().supports(&fc));
        assert!(bl_vcu118().supports(&fc));
    }

    #[test]
    fn bl_wins_wide_fc_layers() {
        use h2h_model::layer::FcParams;
        let wide = Layer::new(
            "f",
            LayerOp::Fc(FcParams { in_features: 25088, out_features: 4096 }),
        );
        let bl = bl_vcu118().compute_time(&wide).unwrap();
        let sh = sh_xcku060().compute_time(&wide).unwrap();
        assert!(bl < sh, "BL {bl} vs SH {sh}");
    }
}
