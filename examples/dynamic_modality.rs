//! The §4.5 extension in action: a health-monitoring system (the
//! paper's own motivating example [20]) that switches sensors on and off
//! several times, reusing weights already buffered in accelerator DRAM
//! instead of reloading them over slow Ethernet.
//!
//! ```sh
//! cargo run --release --example dynamic_modality
//! ```

use h2h::core::{DynamicSession, H2hConfig};
use h2h::system::{BandwidthClass, SystemSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let full = h2h::model::zoo::cnn_lstm();
    let system = SystemSpec::standard(BandwidthClass::LowMinus);
    let mut session = DynamicSession::new(&system, H2hConfig::default());

    // The person is resting -> walking -> sprinting -> resting: sensors
    // toggle with activity level (video always on).
    let timeline = [
        ("rest: video only", vec!["video"]),
        ("walk: + wrist IMU", vec!["video", "imu_wrist"]),
        (
            "run: all sensors",
            vec!["video", "imu_wrist", "imu_ankle", "emg"],
        ),
        (
            "cooldown: IMUs only",
            vec!["video", "imu_wrist", "imu_ankle"],
        ),
        ("rest: video only", vec!["video"]),
        (
            "run: all sensors",
            vec!["video", "imu_wrist", "imu_ankle", "emg"],
        ),
    ];

    println!(
        "dynamic modality change on CNN-LSTM @ {}:",
        system.ethernet()
    );
    println!(
        "{:<26} {:>10} {:>12} {:>12} {:>14}",
        "configuration", "latency", "reused", "reloaded", "reload saved"
    );
    let mut total_saved = h2h::model::units::Seconds::ZERO;
    for (label, mods) in &timeline {
        let sub = full.retain_modalities(mods);
        let out = session.remap(&sub)?;
        let saved = out.reload_time_saved(&system);
        total_saved += saved;
        println!(
            "{:<26} {:>10} {:>12} {:>12} {:>14}",
            label,
            format!("{}", out.outcome.final_latency()),
            format!("{}", out.reused),
            format!("{}", out.reloaded),
            format!("{}", saved),
        );
    }
    println!("\ntotal reconfiguration traffic avoided across the timeline: {total_saved}");
    println!(
        "({} layers currently buffered, {} total)",
        session.buffered_layers(),
        session.buffered_bytes()
    );
    Ok(())
}
