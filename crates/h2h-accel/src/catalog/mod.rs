//! The twelve-accelerator catalog (paper Table 3) and its registry.
//!
//! | Id | Design | Type | Optimization | FPGA |
//! |----|--------|------|--------------|------|
//! | JZ | \[26\] | Conv | on-chip memory | GX1150 |
//! | CZ | \[19\] | Conv | channel parallelism | VC707 |
//! | WJ | \[27\] | Conv | memory + channel | ZCU102 |
//! | JQ | \[28\] | Conv/FC/(LSTM) | computing generality | ZC706 |
//! | AC | \[29\] | Conv | loop optimization | XC7Z045 |
//! | YG | \[30\] | Conv/FC/LSTM | computing generality | Stratix-V |
//! | TM | \[31\] | Conv | loop optimization | GX1150 |
//! | AP | \[32\] | Conv | Winograd | Stratix-V |
//! | XW | \[33\] | Conv | systolic array | GT1150 |
//! | SH | \[34\] | LSTM/FC | deep pipeline | XCKU060 |
//! | XZ | \[35\] | LSTM | gate parallelism | PYNQ-Z1/VC707 |
//! | BL | \[36\] | LSTM | deep pipeline | VCU118 |

mod conv_accels;
mod lstm_accels;

use std::sync::Arc;

pub use conv_accels::{
    ac_xc7z045, ap_stratixv, cz_vc707, jq_zc706, jz_gx1150, tm_gx1150, wj_zcu102, xw_gt1150,
    yg_stratixv,
};
pub use lstm_accels::{bl_vcu118, sh_xcku060, xz_pynqz1};

use crate::model::AccelRef;

/// The full 12-accelerator heterogeneous system of the paper's
/// evaluation (§5.1), in Table 3 order.
pub fn standard_accelerators() -> Vec<AccelRef> {
    vec![
        Arc::new(jz_gx1150()),
        Arc::new(cz_vc707()),
        Arc::new(wj_zcu102()),
        Arc::new(jq_zc706()),
        Arc::new(ac_xc7z045()),
        Arc::new(yg_stratixv()),
        Arc::new(tm_gx1150()),
        Arc::new(ap_stratixv()),
        Arc::new(xw_gt1150()),
        Arc::new(sh_xcku060()),
        Arc::new(xz_pynqz1()),
        Arc::new(bl_vcu118()),
    ]
}

/// Looks an accelerator up by its short id (`"CZ"`, `"SH"`, …).
pub fn by_id(id: &str) -> Option<AccelRef> {
    standard_accelerators()
        .into_iter()
        .find(|a| a.meta().id == id)
}

/// Markdown datasheet of the catalog (id, design, board, supported
/// classes, local DRAM, power) — the Table-3 summary as the CLI and
/// README render it.
pub fn datasheet() -> String {
    let mut out = String::from(
        "| id | design | FPGA | classes | M_acc | DRAM BW | power |\n|---|---|---|---|---|---|---|\n",
    );
    for acc in standard_accelerators() {
        let classes: Vec<String> = acc
            .supported_classes()
            .iter()
            .map(|c| format!("{c:?}"))
            .collect();
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {:.1} W |\n",
            acc.meta().id,
            acc.meta().name,
            acc.meta().fpga,
            classes.join("/"),
            acc.dram_capacity(),
            acc.dram_bandwidth(),
            acc.active_power_w(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2h_model::layer::LayerClass;
    use h2h_model::units::Bytes;

    #[test]
    fn twelve_accelerators_with_unique_ids() {
        let accs = standard_accelerators();
        assert_eq!(accs.len(), 12);
        let mut ids: Vec<String> = accs.iter().map(|a| a.meta().id.clone()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 12, "duplicate accelerator ids");
    }

    #[test]
    fn dram_capacities_span_paper_range() {
        // Paper §5.1: local DRAM capacities range 512 MB – 8 GB.
        let accs = standard_accelerators();
        let min = accs.iter().map(|a| a.dram_capacity()).min().unwrap();
        let max = accs.iter().map(|a| a.dram_capacity()).max().unwrap();
        assert_eq!(min, Bytes::from_mib(512));
        assert_eq!(max, Bytes::from_gib(8));
    }

    #[test]
    fn dram_bandwidths_within_paper_range() {
        // Paper §3: FPGA local DRAM speed 6.4 – 460 GB/s... ours sit in
        // the DDR3/DDR4 band, well inside.
        for a in standard_accelerators() {
            let gbps = a.dram_bandwidth().as_f64() / 1e9;
            assert!(
                (4.0..=460.0).contains(&gbps),
                "{}: {gbps} GB/s",
                a.meta().id
            );
        }
    }

    #[test]
    fn every_layer_class_has_a_home() {
        let accs = standard_accelerators();
        for class in [LayerClass::Conv, LayerClass::Fc, LayerClass::Lstm] {
            let n = accs
                .iter()
                .filter(|a| a.supported_classes().contains(&class))
                .count();
            assert!(n >= 2, "{class:?} supported by only {n} accelerators");
        }
    }

    #[test]
    fn datasheet_lists_every_design() {
        let sheet = datasheet();
        for id in [
            "JZ", "CZ", "WJ", "JQ", "AC", "YG", "TM", "AP", "XW", "SH", "XZ", "BL",
        ] {
            assert!(sheet.contains(&format!("| {id} |")), "missing {id}");
        }
        assert!(sheet.contains("PYNQ-Z1"));
        assert_eq!(sheet.lines().count(), 14, "header + rule + 12 rows");
    }

    #[test]
    fn by_id_finds_each_entry() {
        for id in [
            "JZ", "CZ", "WJ", "JQ", "AC", "YG", "TM", "AP", "XW", "SH", "XZ", "BL",
        ] {
            assert!(by_id(id).is_some(), "missing {id}");
        }
        assert!(by_id("nope").is_none());
    }

    #[test]
    fn local_dram_much_faster_than_any_ethernet_class() {
        // The whole premise of data locality: local DRAM must beat even
        // the fastest Ethernet class (1.25 GB/s) by a wide margin.
        for a in standard_accelerators() {
            assert!(
                a.dram_bandwidth().as_f64() > 3.0 * 1.25e9,
                "{}: local DRAM too slow to motivate locality",
                a.meta().id
            );
        }
    }
}
