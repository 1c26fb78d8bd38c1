//! # h2h-system — the heterogeneous multi-FPGA system model
//!
//! `G_sys` of the H2H (DAC'22) formulation: a host node plus plugged-in
//! accelerators behind an explicit interconnect fabric
//! ([`topology::Topology`] — the paper's scalar `BW_acc` uniform star
//! by default, per-link rates and direct peer links beyond it), the
//! mapping and data-locality state the H2H algorithm manipulates, the
//! analytical list scheduler that computes `Sys_latency` /
//! `Sys_energy`, and a discrete-event simulator that cross-validates
//! the scheduler and models host-NIC contention the analytical
//! abstraction ignores.
//!
//! ```
//! use h2h_system::locality::LocalityState;
//! use h2h_system::mapping::Mapping;
//! use h2h_system::schedule::Evaluator;
//! use h2h_system::system::{BandwidthClass, SystemSpec};
//!
//! let model = h2h_model::zoo::mocap();
//! let sys = SystemSpec::standard(BandwidthClass::LowMinus);
//!
//! // Map everything onto the first capable accelerator (a terrible
//! // mapping — the h2h-core crate does much better).
//! let mut mapping = Mapping::new(&model);
//! for (id, layer) in model.layers() {
//!     let acc = sys.acc_ids().find(|a| sys.acc(*a).supports(layer)).unwrap();
//!     mapping.set(id, acc);
//! }
//! mapping.validate(&model, &sys)?;
//!
//! let schedule = Evaluator::new(&model, &sys).evaluate(&mapping, &LocalityState::new(&sys));
//! assert!(schedule.makespan().as_f64() > 0.0);
//! # Ok::<(), h2h_system::mapping::MappingError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fault;
pub mod gantt;
pub mod incremental;
pub mod locality;
pub mod mapping;
pub mod schedule;
pub mod sim;
pub mod system;
pub mod topology;
pub mod trace;

#[doc(hidden)]
pub mod testutil;

pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultState};
pub use gantt::{render_gantt, render_link_gantt};
pub use incremental::IncrementalSchedule;
pub use locality::LocalityState;
pub use mapping::{Mapping, MappingError};
pub use schedule::{CostCache, EnergyBreakdown, Evaluator, FusionOutcome, LayerTiming, Schedule};
pub use sim::{simulate, simulate_with_faults, SimConfig, SimError, SimReport};
pub use system::{AccId, BandwidthClass, SystemSpec};
pub use topology::{Endpoint, Topology};
