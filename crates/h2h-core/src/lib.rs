//! # h2h-core — the H2H mapping algorithm
//!
//! The primary contribution of *H2H: Heterogeneous Model to
//! Heterogeneous System Mapping with Computation and Communication
//! Awareness* (DAC'22): a four-step mapper that places the layers of a
//! heterogeneous MMMT model onto a heterogeneous multi-accelerator
//! system, trading a little computation efficiency for large
//! communication savings.
//!
//! ```
//! use h2h_core::H2hMapper;
//! use h2h_system::system::{BandwidthClass, SystemSpec};
//!
//! let model = h2h_model::zoo::cnn_lstm();
//! let system = SystemSpec::standard(BandwidthClass::LowMinus);
//!
//! let outcome = H2hMapper::new(&model, &system).run()?;
//! println!(
//!     "baseline {} -> H2H {} ({:.0}% latency reduction)",
//!     outcome.baseline_latency(),
//!     outcome.final_latency(),
//!     outcome.latency_reduction() * 100.0
//! );
//! # Ok::<(), h2h_core::pipeline::H2hError>(())
//! ```
//!
//! The per-step passes are public — [`compute_map`], [`weight_locality`]
//! (with its [`knapsack`] solvers), [`activation_fusion`] and [`remap`] —
//! as are the comparison mappers in [`baseline`], the dynamic-modality
//! extension in [`dynamic`] (paper §4.5), and the multi-tenant batched
//! serving subsystem in [`serve`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod activation_fusion;
pub mod anneal;
pub mod arrivals;
pub mod baseline;
pub mod compute_map;
pub mod config;
pub mod delta;
pub mod dynamic;
pub mod knapsack;
pub mod pipeline;
pub mod preset;
pub mod remap;
pub mod repair;
pub mod report;
pub mod serve;
pub mod weight_locality;

pub use arrivals::{ArrivalProcess, ArrivalSchedule, Arrivals};
pub use config::{H2hConfig, KnapsackKind, MapObjective, RoundPolicy, ACCEPT_EPSILON};
pub use delta::{DeltaEngine, PhaseProfile, SearchStats};
pub use dynamic::{DynamicOutcome, DynamicSession};
pub use pipeline::{H2hError, H2hMapper, H2hOutcome, Step, StepSnapshot};
pub use preset::PinPreset;
pub use repair::{repair_mapping, scratch_remap, RepairOutcome, ScratchOutcome};
pub use serve::{
    ServeCounters, ServeError, ServeOutcome, TenantId, TenantRegistry, TenantServeStats, TenantSpec,
};
