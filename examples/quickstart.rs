//! Quickstart: build a small two-modality model, map it onto the
//! standard 12-accelerator system, and inspect what each H2H step buys.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use h2h::core::{H2hMapper, Step};
use h2h::model::builder::ModelBuilder;
use h2h::model::tensor::TensorShape;
use h2h::system::{BandwidthClass, SystemSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A toy AR workload: a vision backbone plus an audio command
    // stream, fused into a shared head (the MMMT shape of Fig. 1).
    let mut b = ModelBuilder::new("ar-assistant");
    b.modality(Some("vision"));
    let img = b.input(
        "camera",
        TensorShape::Feature {
            c: 3,
            h: 128,
            w: 128,
        },
    );
    let c1 = b.conv("v.conv1", img, 32, 3, 2)?;
    let c2 = b.conv("v.conv2", c1, 64, 3, 2)?;
    let c3 = b.conv("v.conv3", c2, 128, 3, 2)?;
    let vfeat = b.global_pool("v.gap", c3)?;

    b.modality(Some("audio"));
    let wav = b.input(
        "microphone",
        TensorShape::Sequence {
            steps: 256,
            features: 40,
        },
    );
    let a1 = b.conv1d("a.conv1", wav, 64, 5, 2)?;
    let afeat = b.lstm("a.lstm", a1, 128, 1, false)?;

    b.modality(None);
    let fused = b.concat("fuse", &[vfeat, afeat])?;
    let h1 = b.fc("head.fc1", fused, 256)?;
    b.fc("head.gesture", h1, 12)?;
    b.fc("head.intent", h1, 5)?;
    let model = b.finish()?;

    println!(
        "model `{}`:\n{}\n",
        model.name(),
        h2h::model::ModelStats::of(&model)
    );

    // Map at the paper's most bandwidth-starved setting (1 GbE).
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    let outcome = H2hMapper::new(&model, &system).run()?;

    println!(
        "H2H pipeline on {} accelerators @ {}:",
        system.num_accs(),
        system.ethernet()
    );
    for snap in &outcome.snapshots {
        println!(
            "  {:<32} latency {:>12}   energy {:>10}   compute-share {:>5.1}%",
            format!("{}", snap.step),
            format!("{}", snap.latency),
            format!("{}", snap.total_energy()),
            snap.compute_ratio * 100.0
        );
    }
    println!(
        "\nH2H vs baseline (step 2): {:.1}% latency, {:.1}% energy reduction; search {:?}",
        outcome.latency_reduction() * 100.0,
        outcome.energy_reduction() * 100.0,
        outcome.search_time
    );

    // Where did every layer land?
    println!("\nfinal placement:");
    for id in model.topo_order() {
        let acc = system.acc(outcome.mapping.acc_of(id));
        let pinned = if outcome.locality.is_pinned(id) {
            " [weights pinned]"
        } else {
            ""
        };
        println!(
            "  {:<14} -> {:<3} ({}){}",
            model.layer(id).name(),
            acc.meta().id,
            acc.meta().fpga,
            pinned
        );
    }
    let _ = outcome.after(Step::Remapping);
    Ok(())
}
