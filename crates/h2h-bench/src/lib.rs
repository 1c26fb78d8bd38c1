//! # h2h-bench — experiment harness for the H2H reproduction
//!
//! Regenerates every table and figure of the paper's evaluation (§5):
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `repro_all` | Fig. 4 latency + energy per step × bandwidth, Table 4 latency breakdown, Fig. 5a communication/computation ratio, Fig. 5b search time, §1/§5.2 headline claims → `REPRO.json`; `repro_all <fig4 \| table4 \| fig5a \| fig5b \| headline>` prints one |
//! | `bench_search` | delta-vs-reference search-core record → `BENCH_search.json` (ours) |
//! | `bench_serve` | multi-tenant serving record → `BENCH_serve.json` (ours) |
//!
//! The Fig. 2 motivation (Gantt charts of a toy model before and after
//! communication-aware mapping) is pinned as the golden snapshot
//! `h2h-core/tests/golden/fig2_motivation_lowminus.txt`. The §4.5
//! dynamic-modality experiment is the `dynamic_modality` example of the
//! root crate. Host-time measurements of the whole mapper and serving
//! layer live in the repository benchmark (`perfbench/`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod tables;

pub use experiments::{run_model, run_sweep, ModelRun};
