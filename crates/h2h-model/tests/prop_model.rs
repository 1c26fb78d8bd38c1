//! Property tests on the model formalism: cost formulas, shape
//! propagation, frontier walks and modality filtering.

use proptest::prelude::*;

use h2h_model::builder::ModelBuilder;
use h2h_model::layer::{ConvParams, FcParams, LstmParams};
use h2h_model::tensor::{DataType, TensorShape};

proptest! {
    #[test]
    fn conv_cost_formulas_are_consistent(
        n in 1u32..512, m in 1u32..512, r in 1u32..64, c in 1u32..64,
        kh in 1u32..8, kw in 1u32..8, s in 1u32..3,
    ) {
        let p = ConvParams {
            out_channels: n, in_channels: m, out_h: r, out_w: c,
            kernel_h: kh, kernel_w: kw, stride: s,
        };
        prop_assert_eq!(
            p.macs().as_u64(),
            n as u64 * m as u64 * r as u64 * c as u64 * kh as u64 * kw as u64
        );
        prop_assert_eq!(p.weight_elems(), n as u64 * m as u64 * kh as u64 * kw as u64 + n as u64);
        prop_assert_eq!(p.ofm_shape().elements(), n as u64 * r as u64 * c as u64);
    }

    #[test]
    fn fc_weights_exceed_macs_by_bias(inf in 1u32..4096, outf in 1u32..4096) {
        let p = FcParams { in_features: inf, out_features: outf };
        prop_assert_eq!(p.weight_elems(), p.macs().as_u64() + outf as u64);
    }

    #[test]
    fn lstm_macs_scale_linearly_in_seq_len(
        n in 1u32..256, h in 1u32..256, layers in 1u32..4, t in 1u32..64,
    ) {
        let base = LstmParams { in_size: n, hidden: h, layers, seq_len: 1, return_sequences: false };
        let long = LstmParams { seq_len: t, ..base };
        prop_assert_eq!(long.macs().as_u64(), base.macs().as_u64() * t as u64);
        // Weights are independent of sequence length.
        prop_assert_eq!(long.weight_elems(), base.weight_elems());
    }

    #[test]
    fn bytes_scale_with_dtype(cc in 1u32..64, h in 1u32..64, w in 1u32..64) {
        let shape = TensorShape::Feature { c: cc, h, w };
        let f32b = shape.bytes(DataType::F32).as_u64();
        prop_assert_eq!(shape.bytes(DataType::F16).as_u64() * 2, f32b);
        prop_assert_eq!(shape.bytes(DataType::I8).as_u64() * 4, f32b);
    }

    #[test]
    fn fc_chain_frontier_walk_visits_every_layer_once(widths in proptest::collection::vec(1u32..512, 1..20)) {
        let mut b = ModelBuilder::new("chain");
        let mut prev = b.input("in", TensorShape::Vector { features: 7 });
        for (i, w) in widths.iter().enumerate() {
            prev = b.fc(&format!("fc{i}"), prev, *w).unwrap();
        }
        let m = b.finish().unwrap();
        let waves = m.asap_waves();
        // A chain's frontier is always exactly one layer, in chain order.
        prop_assert_eq!(waves.len(), m.num_layers());
        for (wave, id) in waves.iter().zip(m.topo_order()) {
            prop_assert_eq!(wave, &vec![id]);
        }
    }

    #[test]
    fn conv_tower_shapes_never_vanish(
        side in 16u32..256,
        channels in proptest::collection::vec(8u32..128, 1..8),
    ) {
        let mut b = ModelBuilder::new("tower");
        let mut x = b.input("in", TensorShape::Feature { c: 3, h: side, w: side });
        for (i, c) in channels.iter().enumerate() {
            x = b.conv(&format!("c{i}"), x, *c, 3, 2).unwrap();
            match b.shape(x) {
                TensorShape::Feature { c: oc, h, w } => {
                    prop_assert_eq!(oc, *c);
                    prop_assert!(h >= 1 && w >= 1, "same-padding never reaches zero");
                }
                other => prop_assert!(false, "unexpected shape {:?}", other),
            }
        }
        b.finish().unwrap().validate().unwrap();
    }

    #[test]
    fn retain_modalities_always_validates(keep_a in any::<bool>(), keep_b in any::<bool>()) {
        let mut b = ModelBuilder::new("mm");
        b.modality(Some("a"));
        let ia = b.input("ia", TensorShape::Vector { features: 8 });
        let fa = b.fc("fa", ia, 8).unwrap();
        b.modality(Some("b"));
        let ib = b.input("ib", TensorShape::Vector { features: 8 });
        let fb = b.fc("fb", ib, 8).unwrap();
        b.modality(None);
        let cat = b.concat("cat", &[fa, fb]).unwrap();
        b.fc("head", cat, 2).unwrap();
        let m = b.finish().unwrap();

        let mut keep: Vec<&str> = Vec::new();
        if keep_a { keep.push("a"); }
        if keep_b { keep.push("b"); }
        let sub = m.retain_modalities(&keep);
        if sub.num_layers() > 0 {
            sub.validate().unwrap();
        }
        if !keep.is_empty() {
            // One model input per retained modality; with no modalities
            // retained only the (now input-less) shared trunk remains.
            prop_assert_eq!(sub.sources().len(), keep.len());
        }
    }
}
