//! # h2h — heterogeneous model to heterogeneous system mapping
//!
//! A Rust reproduction of *"H2H: Heterogeneous Model to Heterogeneous
//! System Mapping with Computation and Communication Awareness"*
//! (Zhang, Hao, Zhou, Jones, Hu — DAC 2022, arXiv:2204.13852).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`model`] — MMMT DNN graphs (`G_model`), the Table-1 layer
//!   formalism, and the six-model evaluation zoo of Table 2;
//! * [`accel`] — MAESTRO-style analytical accelerator models and the
//!   twelve-FPGA catalog of Table 3 (plug-in: implement
//!   [`accel::AccelModel`] to add your own);
//! * [`system`] — the multi-FPGA system (`G_sys`), mapping/locality
//!   state, the analytical list scheduler and a discrete-event
//!   simulator;
//! * [`core`] — the four-step H2H mapping algorithm, baselines and the
//!   dynamic-modality extension.
//!
//! ## Quickstart
//!
//! ```
//! use h2h::core::H2hMapper;
//! use h2h::system::{BandwidthClass, SystemSpec};
//!
//! let model = h2h::model::zoo::mocap();
//! let system = SystemSpec::standard(BandwidthClass::LowMinus);
//! let outcome = H2hMapper::new(&model, &system).run()?;
//! assert!(outcome.latency_reduction() > 0.0);
//! # Ok::<(), h2h::core::H2hError>(())
//! ```
//!
//! Run `cargo run --release -p h2h-bench --bin repro_all` to regenerate
//! every table and figure of the paper's evaluation and its modeled
//! record, `REPRO.json`.

#![warn(missing_docs)]

pub use h2h_accel as accel;
pub use h2h_core as core;
pub use h2h_model as model;
pub use h2h_system as system;
