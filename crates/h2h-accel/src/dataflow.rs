//! Dataflow-style-dependent PE-array utilization — the MAESTRO-lite core.
//!
//! MAESTRO (Kwon et al., IEEE Micro'20) estimates a layer's latency on an
//! accelerator from how well the layer's loop dimensions fill the PE
//! array under the accelerator's dataflow. This module reproduces that
//! mechanism analytically: each dataflow style maps a subset of layer
//! dimensions onto hardware tiles, and utilization is the product of the
//! per-dimension occupancy factors. The absolute constants are per-
//! accelerator (see the catalog); what matters for H2H is the *relative
//! preference structure* the paper's §2 relies on:
//!
//! * channel-parallel (NVDLA-like) designs starve on shallow inputs
//!   (`M = 3` stems) and shine on deep 1×1 convolutions;
//! * output-stationary (Shi-diannao-like) designs shine on large spatial
//!   maps and starve on late 7×7 layers;
//! * Winograd engines only pay off on 3×3 stride-1 kernels;
//! * systolic GEMM arrays love matrix-shaped work but pay an im2col
//!   streaming penalty that grows with kernel area;
//! * LSTM engines split into deep-pipeline (long-sequence friendly) and
//!   gate-parallel (small-hidden friendly) families.

use serde::{Deserialize, Serialize};

use h2h_model::layer::{ConvParams, FcParams, LayerOp, LstmParams};

/// Occupancy of dimension `x` tiled by `tile`: `x / (ceil(x/tile)·tile)`.
///
/// Equals 1.0 when `x` is a multiple of the tile and degrades toward
/// `x/tile` when the dimension under-fills a single tile.
pub fn occupancy(x: u64, tile: u64) -> f64 {
    if tile == 0 {
        return 1.0;
    }
    let x = x.max(1);
    x as f64 / (x.div_ceil(tile) * tile) as f64
}

/// An accelerator's dataflow style, with its tiling parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Dataflow {
    /// Input/output-channel parallelism (NVDLA-style; e.g. Zhang FPGA'15
    /// with its `Tn×Tm` tiles).
    ChannelParallel {
        /// Input-channel tile (`Tn`).
        tn: u32,
        /// Output-channel tile (`Tm`).
        tm: u32,
    },
    /// Output-pixel parallelism (Shi-diannao-style / loop-optimized
    /// spatial designs).
    OutputStationary {
        /// Parallel output pixels.
        spatial_pes: u32,
        /// Output-channel tile.
        channel_tile: u32,
    },
    /// Row-stationary-like balanced mapping (Eyeriss-style, large
    /// on-chip buffers): geometric mean of spatial and channel occupancy.
    RowStationary {
        /// Spatial capacity (output pixels held on-chip).
        spatial_cap: u32,
        /// Output-channel capacity.
        channel_cap: u32,
    },
    /// Winograd `F(2×2, 3×3)` engine: an arithmetic-strength multiplier
    /// on 3×3 stride-1 kernels, a steep fallback otherwise.
    Winograd {
        /// Input-channel tile.
        tn: u32,
        /// Output-channel tile.
        tm: u32,
        /// Effective-MAC multiplier on 3×3 s1 (≈ 2.25 for F(2,3)).
        speedup: f64,
        /// Flat utilization on non-3×3-s1 shapes.
        fallback: f64,
    },
    /// Output-stationary systolic GEMM array with im2col streaming.
    Systolic {
        /// Array rows (mapped to input channels / reduction dim).
        rows: u32,
        /// Array columns (mapped to output channels).
        cols: u32,
        /// Per-extra-kernel-element im2col bandwidth penalty coefficient.
        im2col_penalty: f64,
    },
    /// Generality-first designs (RTL/HLS hybrid, CPU-like flexibility):
    /// a flat utilization, mildly worse on recurrent layers.
    Generality {
        /// Flat utilization on Conv/FC.
        eff: f64,
    },
    /// Deep-pipelined LSTM engine (ESE / FTrans family): utilization
    /// grows with sequence length as the pipeline fills.
    LstmPipeline {
        /// Parallel MAC lanes across the `4H` gate width.
        lanes: u32,
        /// Pipeline fill/drain depth in time steps.
        depth: u32,
    },
    /// Gate-parallel LSTM engine (the authors' ICCD'20 design): all four
    /// gates computed concurrently, sized for small-to-medium hidden
    /// states.
    LstmGateParallel {
        /// PEs per gate (hidden-dimension tile).
        gate_pes: u32,
    },
}

impl Dataflow {
    fn conv_utilization(&self, p: &ConvParams) -> f64 {
        let m = p.in_channels as u64;
        let n = p.out_channels as u64;
        let spatial = p.out_h as u64 * p.out_w as u64;
        let kernel_area = p.kernel_h as u64 * p.kernel_w as u64;
        match *self {
            Dataflow::ChannelParallel { tn, tm } => {
                occupancy(m, tn as u64) * occupancy(n, tm as u64)
            }
            Dataflow::OutputStationary {
                spatial_pes,
                channel_tile,
            } => occupancy(spatial, spatial_pes as u64) * occupancy(n, channel_tile as u64),
            Dataflow::RowStationary {
                spatial_cap,
                channel_cap,
            } => (occupancy(spatial, spatial_cap as u64) * occupancy(n, channel_cap as u64)).sqrt(),
            Dataflow::Winograd {
                tn,
                tm,
                speedup,
                fallback,
            } => {
                if p.is_square(3) && p.stride == 1 {
                    occupancy(m, tn as u64) * occupancy(n, tm as u64) * speedup
                } else {
                    fallback
                }
            }
            Dataflow::Systolic {
                rows,
                cols,
                im2col_penalty,
            } => {
                let gemm = occupancy(m, rows as u64) * occupancy(n, cols as u64);
                gemm / (1.0 + im2col_penalty * (kernel_area as f64 - 1.0))
            }
            Dataflow::Generality { eff } => eff,
            // LSTM engines do not run convolutions (supports() filters
            // them out); conservative floor keeps the math total.
            Dataflow::LstmPipeline { .. } | Dataflow::LstmGateParallel { .. } => 0.05,
        }
    }

    fn fc_utilization(&self, p: &FcParams) -> f64 {
        let m = p.in_features as u64;
        let n = p.out_features as u64;
        match *self {
            // FC is a GEMV: no filter reuse, so conv-oriented arrays run
            // it at half their channel occupancy.
            Dataflow::ChannelParallel { tn, tm } => {
                0.5 * occupancy(m, tn as u64) * occupancy(n, tm as u64)
            }
            Dataflow::OutputStationary { channel_tile, .. } => {
                0.5 * occupancy(n, channel_tile as u64)
            }
            Dataflow::RowStationary { channel_cap, .. } => 0.5 * occupancy(n, channel_cap as u64),
            Dataflow::Winograd { fallback, .. } => fallback * 0.5,
            Dataflow::Systolic { rows, cols, .. } => {
                0.5 * occupancy(m, rows as u64) * occupancy(n, cols as u64)
            }
            Dataflow::Generality { eff } => eff,
            // ESE-style engines natively run FC (a degenerate one-step
            // recurrence) at good occupancy.
            Dataflow::LstmPipeline { lanes, .. } => 0.8 * occupancy(n, lanes as u64),
            Dataflow::LstmGateParallel { gate_pes } => 0.5 * occupancy(n, gate_pes as u64),
        }
    }

    fn lstm_utilization(&self, p: &LstmParams) -> f64 {
        let h = p.hidden as u64;
        let t = p.seq_len as u64;
        match *self {
            Dataflow::LstmPipeline { lanes, depth } => {
                let fill = t as f64 / (t + depth as u64) as f64;
                occupancy(4 * h, lanes as u64) * fill
            }
            Dataflow::LstmGateParallel { gate_pes } => occupancy(h, gate_pes as u64),
            Dataflow::Generality { eff } => eff * 0.6,
            // Conv-oriented dataflows stall on the recurrence.
            _ => 0.1,
        }
    }

    /// Effective PE-array utilization of `op` under this dataflow, in
    /// `(0, speedup]` (Winograd's arithmetic-strength gain can exceed 1).
    ///
    /// Auxiliary ops (pool/add/concat/input) are not compute-mapped and
    /// return a fixed memory-engine factor.
    pub fn utilization(&self, op: &LayerOp) -> f64 {
        let u = match op {
            LayerOp::Conv(p) => self.conv_utilization(p),
            LayerOp::Fc(p) => self.fc_utilization(p),
            LayerOp::Lstm(p) => self.lstm_utilization(p),
            LayerOp::Input { .. }
            | LayerOp::Pool(_)
            | LayerOp::GlobalPool { .. }
            | LayerOp::Add { .. }
            | LayerOp::Concat { .. } => 0.25,
        };
        u.max(1e-3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(m: u32, n: u32, hw: u32, k: u32, s: u32) -> LayerOp {
        LayerOp::Conv(ConvParams::square(n, m, hw, hw, k, s))
    }

    #[test]
    fn occupancy_basics() {
        assert_eq!(occupancy(64, 64), 1.0);
        assert_eq!(occupancy(3, 32), 3.0 / 32.0);
        assert_eq!(occupancy(65, 64), 65.0 / 128.0);
        assert_eq!(occupancy(0, 16), 1.0 / 16.0); // clamped to x=1
        assert_eq!(occupancy(100, 0), 1.0); // untiled dimension
    }

    #[test]
    fn channel_parallel_starves_on_stem() {
        let df = Dataflow::ChannelParallel { tn: 32, tm: 64 };
        let stem = conv(3, 64, 112, 7, 2);
        let deep = conv(512, 512, 7, 1, 1);
        assert!(df.utilization(&stem) < 0.15);
        assert!(df.utilization(&deep) > 0.9);
    }

    #[test]
    fn output_stationary_prefers_large_spatial() {
        let df = Dataflow::OutputStationary {
            spatial_pes: 256,
            channel_tile: 64,
        };
        let early = conv(64, 64, 56, 3, 1);
        let late = conv(512, 512, 7, 3, 1);
        assert!(df.utilization(&early) > 0.9);
        assert!(df.utilization(&late) < 0.3);
    }

    #[test]
    fn winograd_only_pays_on_3x3_s1() {
        let df = Dataflow::Winograd {
            tn: 32,
            tm: 32,
            speedup: 2.25,
            fallback: 0.2,
        };
        let three = conv(64, 64, 56, 3, 1);
        let strided = conv(64, 64, 28, 3, 2);
        let one = conv(256, 64, 56, 1, 1);
        assert!(df.utilization(&three) > 2.0, "winograd effective gain");
        assert_eq!(df.utilization(&strided), 0.2);
        assert_eq!(df.utilization(&one), 0.2);
    }

    #[test]
    fn systolic_pays_im2col_penalty_on_wide_kernels() {
        let df = Dataflow::Systolic {
            rows: 128,
            cols: 128,
            im2col_penalty: 0.06,
        };
        let pointwise = conv(512, 512, 14, 1, 1);
        let k3 = conv(512, 512, 14, 3, 1);
        let k7 = conv(128, 128, 56, 7, 2);
        assert!(df.utilization(&pointwise) > 0.9);
        let u3 = df.utilization(&k3);
        assert!(u3 < 0.75 && u3 > 0.5);
        assert!(df.utilization(&k7) < 0.4);
    }

    #[test]
    fn lstm_pipeline_needs_long_sequences() {
        let df = Dataflow::LstmPipeline {
            lanes: 1024,
            depth: 64,
        };
        let short = LayerOp::Lstm(LstmParams {
            in_size: 256,
            hidden: 256,
            layers: 1,
            seq_len: 16,
            return_sequences: false,
        });
        let long = LayerOp::Lstm(LstmParams {
            in_size: 256,
            hidden: 256,
            layers: 1,
            seq_len: 4096,
            return_sequences: false,
        });
        assert!(df.utilization(&long) > 2.0 * df.utilization(&short));
    }

    #[test]
    fn gate_parallel_sized_for_small_hidden() {
        let df = Dataflow::LstmGateParallel { gate_pes: 256 };
        let small = LayerOp::Lstm(LstmParams {
            in_size: 128,
            hidden: 256,
            layers: 1,
            seq_len: 100,
            return_sequences: false,
        });
        let awkward = LayerOp::Lstm(LstmParams {
            in_size: 128,
            hidden: 384,
            layers: 1,
            seq_len: 100,
            return_sequences: false,
        });
        assert_eq!(df.utilization(&small), 1.0);
        assert!((df.utilization(&awkward) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn conv_dataflows_stall_on_lstm() {
        let lstm = LayerOp::Lstm(LstmParams {
            in_size: 256,
            hidden: 256,
            layers: 1,
            seq_len: 100,
            return_sequences: false,
        });
        let df = Dataflow::ChannelParallel { tn: 32, tm: 64 };
        assert!(df.utilization(&lstm) <= 0.1);
    }

    #[test]
    fn utilization_never_zero() {
        let df = Dataflow::LstmGateParallel { gate_pes: 256 };
        let stem = conv(3, 64, 112, 7, 2);
        assert!(df.utilization(&stem) >= 1e-3);
    }
}
