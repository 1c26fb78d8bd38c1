//! ASCII Gantt rendering of a schedule — the textual equivalent of the
//! paper's Fig. 3 timeline blocks, used by examples and for debugging
//! mapping decisions.
//!
//! Each accelerator gets one row; layer executions appear as labelled
//! blocks scaled to a fixed character width, idle time as dots:
//!
//! ```text
//! A0 JZ |conv1~~~~~~~~....conv3~~~~|
//! A1 TM |......conv2~~~~~..........|
//! ```

use h2h_model::graph::ModelGraph;
use h2h_model::layer::LayerOp;
use h2h_model::units::Seconds;

use crate::locality::LocalityState;
use crate::mapping::Mapping;
use crate::schedule::Schedule;
use crate::system::{AccId, SystemSpec};
use crate::topology::Endpoint;

/// Renders `schedule` as an ASCII Gantt chart `width` characters wide.
/// Accelerators with no layers are omitted. Layer names are truncated to
/// fit their blocks; sub-character blocks render as `#`.
pub fn render_gantt(
    model: &ModelGraph,
    system: &SystemSpec,
    mapping: &Mapping,
    schedule: &Schedule,
    width: usize,
) -> String {
    let width = width.max(10);
    let span = schedule.makespan().as_f64().max(1e-12);
    let scale = width as f64 / span;
    let mut out = String::new();
    out.push_str(&format!(
        "makespan {} — one row per accelerator, {width} cols\n",
        schedule.makespan()
    ));

    for acc in system.acc_ids() {
        let mut layers: Vec<_> = model
            .layer_ids()
            .filter(|id| mapping.get(*id) == Some(acc))
            .filter_map(|id| schedule.timing(id).map(|t| (id, *t)))
            .collect();
        if layers.is_empty() {
            continue;
        }
        layers.sort_by(|a, b| a.1.start.partial_cmp(&b.1.start).expect("finite times"));

        let mut row = vec![b'.'; width];
        for (id, t) in &layers {
            let s = ((t.start.as_f64() * scale) as usize).min(width - 1);
            let e = ((t.finish.as_f64() * scale).ceil() as usize).clamp(s + 1, width);
            let name = model.layer(*id).name();
            let cells = e - s;
            let label: Vec<u8> = if cells == 1 {
                vec![b'#']
            } else {
                name.bytes()
                    .chain(std::iter::repeat(b'~'))
                    .take(cells)
                    .collect()
            };
            row[s..e].copy_from_slice(&label);
        }
        let busy: Seconds = layers
            .iter()
            .map(|(_, t)| t.finish - t.start)
            .fold(Seconds::ZERO, |a, b| a + Seconds::new(b.as_f64().max(0.0)));
        out.push_str(&format!(
            "{:<3}{:<4}|{}| {:>5.1}% busy\n",
            format!("{acc}"),
            system.acc(acc).meta().id,
            String::from_utf8(row).expect("ascii"),
            100.0 * busy.as_f64() / span,
        ));
    }
    out
}

/// One interconnect lane: a host↔accelerator link or a direct peer
/// link, plus the transfer spans scheduled on it.
struct Lane {
    label: String,
    rate: h2h_model::units::BytesPerSec,
    /// `(from_col, to_col)` character spans of transfers on this lane.
    spans: Vec<(usize, usize)>,
}

/// Renders the interconnect side of `schedule` as one ASCII lane **per
/// link** — host↔accelerator links and (switched fabrics) direct peer
/// links — instead of a single shared "Ethernet" row, so contended
/// links are visible: cells carrying one transfer render as `#`,
/// cells where `n > 1` transfers overlap render the digit `n` (`+`
/// beyond 9). Transfer spans are read off the schedule's per-layer
/// decomposition (weight download, IFM downloads, OFM upload) and
/// placed on every link their route crosses; pinned weights and fused
/// edges move no interconnect data and draw nothing.
pub fn render_link_gantt(
    model: &ModelGraph,
    system: &SystemSpec,
    mapping: &Mapping,
    locality: &LocalityState,
    schedule: &Schedule,
    width: usize,
) -> String {
    let width = width.max(10);
    let topo = system.topology();
    let span = schedule.makespan().as_f64().max(1e-12);
    let scale = width as f64 / span;
    let n = system.num_accs();

    // Lane 0..n: host <-> A<i>; then one lane per direct peer link.
    let mut lanes: Vec<Lane> = (0..n)
        .map(|i| Lane {
            label: format!("host<->A{i}"),
            rate: topo.link(AccId::new(i)),
            spans: Vec::new(),
        })
        .collect();
    let mut peer_lane = vec![usize::MAX; n * n];
    for (a, b, r) in topo.peers() {
        peer_lane[a * n + b] = lanes.len();
        lanes.push(Lane {
            label: format!("A{a}<->A{b}"),
            rate: *r,
            spans: Vec::new(),
        });
    }

    let cols = |from: f64, to: f64| -> (usize, usize) {
        let s = ((from * scale) as usize).min(width - 1);
        let e = ((to * scale).ceil() as usize).clamp(s + 1, width);
        (s, e)
    };
    // Every link the `src → dst` route crosses gets the span: both
    // endpoint links of a host relay, the single lane of a direct peer.
    let mark = |lanes: &mut Vec<Lane>, src: Endpoint, dst: Endpoint, s: usize, e: usize| match (
        src, dst,
    ) {
        (Endpoint::Host, Endpoint::Acc(a)) | (Endpoint::Acc(a), Endpoint::Host) => {
            lanes[a.index()].spans.push((s, e));
        }
        (Endpoint::Acc(a), Endpoint::Acc(b)) => {
            let (lo, hi) = (a.index().min(b.index()), a.index().max(b.index()));
            let pl = peer_lane[lo * n + hi];
            if pl != usize::MAX {
                lanes[pl].spans.push((s, e));
            } else {
                lanes[a.index()].spans.push((s, e));
                if lo != hi {
                    lanes[b.index()].spans.push((s, e));
                }
            }
        }
        (Endpoint::Host, Endpoint::Host) => {}
    };

    let edge_is_local = |from, to| locality.edge_is_local(model, mapping, from, to);

    for id in model.layer_ids() {
        let Some(t) = schedule.timing(id) else {
            continue;
        };
        let acc = mapping.acc_of(id);
        let here = Endpoint::Acc(acc);
        let dram_bw = system.acc(acc).dram_bandwidth();
        // Weight download first, then IFM, compute, OFM — the exact
        // serialization `LayerCost::duration` charges. A pinned
        // layer's weight term is a pure DRAM read and draws nothing.
        let w_end = t.start.as_f64() + t.weight_xfer.as_f64();
        if t.weight_xfer > Seconds::ZERO && !locality.is_pinned(id) {
            let (s, e) = cols(t.start.as_f64(), w_end);
            mark(&mut lanes, Endpoint::Host, here, s, e);
        }
        // The IFM window mixes interconnect downloads with fused-edge
        // DRAM reads, serialized in predecessor order (layer_cost's
        // term order). Carve it proportionally — the proportions are
        // batch-invariant, every IFM term scales by the batch factor —
        // and mark only the interconnect terms on their routes.
        if t.ifm_xfer > Seconds::ZERO {
            let terms: Vec<(Option<Endpoint>, f64)> = model
                .predecessors(id)
                .map(|pred| {
                    let bytes = model.edge_bytes(pred, id).expect("edge exists");
                    if edge_is_local(pred, id) {
                        (None, dram_bw.transfer_time(bytes).as_f64())
                    } else {
                        let src = crate::topology::edge_src(model, mapping, pred);
                        (
                            Some(src),
                            topo.path_bw(src, here).transfer_time(bytes).as_f64(),
                        )
                    }
                })
                .collect();
            let total: f64 = terms.iter().map(|(_, d)| d).sum();
            if total > 0.0 {
                let window = t.ifm_xfer.as_f64();
                let mut off = 0.0;
                for (src, d) in terms {
                    let from = w_end + off / total * window;
                    off += d;
                    let to = w_end + off / total * window;
                    if let (Some(src), true) = (src, d > 0.0) {
                        let (s, e) = cols(from, to);
                        mark(&mut lanes, src, here, s, e);
                    }
                }
            }
        }
        // Likewise the OFM window: the interconnect upload comes first,
        // a fused-consumer DRAM write second (layer_cost's term order).
        if t.ofm_xfer > Seconds::ZERO && !matches!(model.layer(id).op(), LayerOp::Input { .. }) {
            let obytes = model.layer(id).ofm_bytes(h2h_model::tensor::DataType::F32);
            let is_output = model.successors(id).next().is_none();
            let any_local = model.successors(id).any(|succ| edge_is_local(id, succ));
            let eth_secs = topo
                .ofm_route(model, mapping, locality, id)
                .map(|(bw, _)| bw.transfer_time(obytes).as_f64())
                .unwrap_or(0.0);
            let dram_secs = if any_local {
                dram_bw.transfer_time(obytes).as_f64()
            } else {
                0.0
            };
            let total = eth_secs + dram_secs;
            if eth_secs > 0.0 && total > 0.0 {
                let window = t.ofm_xfer.as_f64();
                let o_start = (t.finish.as_f64() - window).max(0.0);
                let eth_end = o_start + eth_secs / total * window;
                let (s, e) = cols(o_start, eth_end);
                for succ in model.successors(id) {
                    if !edge_is_local(id, succ) {
                        mark(&mut lanes, here, Endpoint::Acc(mapping.acc_of(succ)), s, e);
                    }
                }
                if is_output {
                    mark(&mut lanes, here, Endpoint::Host, s, e);
                }
            }
        }
    }

    let mut out = String::new();
    out.push_str(&format!(
        "interconnect lanes (one per link, {width} cols; digits = overlapping transfers)\n"
    ));
    for lane in &lanes {
        if lane.spans.is_empty() {
            continue;
        }
        let mut depth = vec![0u32; width];
        let mut busy_cols = 0usize;
        for (s, e) in &lane.spans {
            for d in &mut depth[*s..*e] {
                *d += 1;
            }
        }
        let row: String = depth
            .iter()
            .map(|d| match d {
                0 => '.',
                1 => '#',
                2..=9 => char::from_digit(*d, 10).expect("single digit"),
                _ => '+',
            })
            .collect();
        for d in &depth {
            if *d > 0 {
                busy_cols += 1;
            }
        }
        out.push_str(&format!(
            "{:<10}|{}| {:>5.1}% busy @ {}\n",
            lane.label,
            row,
            100.0 * busy_cols as f64 / width as f64,
            lane.rate,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locality::LocalityState;
    use crate::schedule::Evaluator;
    use crate::system::AccId;
    use crate::testutil::{const_system, ConstAccel};
    use h2h_model::builder::ModelBuilder;
    use h2h_model::tensor::TensorShape;

    fn setup() -> (ModelGraph, crate::system::SystemSpec, Mapping, Schedule) {
        let mut b = ModelBuilder::new("g");
        let i = b.input("in", TensorShape::Vector { features: 64 });
        let f1 = b.fc("alpha", i, 64).unwrap();
        let f2 = b.fc("beta", i, 64).unwrap();
        let j = b.add("join", &[f1, f2]).unwrap();
        let _ = j;
        let m = b.finish().unwrap();
        let sys = const_system(
            vec![
                ConstAccel::universal("u0", 1e-3),
                ConstAccel::universal("u1", 1e-3),
            ],
            1e9,
        );
        let ids = m.topo_order();
        let mut map = Mapping::new(&m);
        map.set(ids[0], AccId::new(0));
        map.set(ids[1], AccId::new(0));
        map.set(ids[2], AccId::new(1));
        map.set(ids[3], AccId::new(0));
        let ev = Evaluator::new(&m, &sys);
        let sched = ev.evaluate(&map, &LocalityState::new(&sys));
        (m, sys, map, sched)
    }

    #[test]
    fn gantt_shows_used_accelerators_only() {
        let (m, sys, map, sched) = setup();
        let g = render_gantt(&m, &sys, &map, &sched, 60);
        assert!(g.contains("u0"));
        assert!(g.contains("u1"));
        assert!(g.contains("alpha") || g.contains("al"));
        assert!(g.contains("beta") || g.contains("be"));
        assert!(g.contains("% busy"));
    }

    #[test]
    fn rows_have_requested_width() {
        let (m, sys, map, sched) = setup();
        let g = render_gantt(&m, &sys, &map, &sched, 40);
        for line in g.lines().skip(1) {
            let inner = line.split('|').nth(1).expect("framed row");
            assert_eq!(inner.len(), 40, "row `{line}`");
        }
    }

    #[test]
    fn width_is_clamped() {
        let (m, sys, map, sched) = setup();
        let g = render_gantt(&m, &sys, &map, &sched, 1);
        // Clamped to 10 columns, still renders.
        assert!(g.lines().count() >= 2);
    }

    #[test]
    fn link_lanes_show_per_link_traffic_and_contention() {
        let (m, sys, map, sched) = setup();
        let loc = LocalityState::new(&sys);
        let g = render_link_gantt(&m, &sys, &map, &loc, &sched, 60);
        // Both host links carry traffic (layers sit on both boards).
        assert!(g.contains("host<->A0"), "{g}");
        assert!(g.contains("host<->A1"), "{g}");
        assert!(g.contains('#'), "{g}");
        assert!(g.contains("% busy"), "{g}");
    }

    #[test]
    fn link_lanes_exclude_local_dram_shares() {
        // A fused co-located edge moves through DRAM: its IFM/OFM share
        // of the timing windows must not be painted on any link lane.
        // With the interconnect rate equal to the DRAM rate, fusing
        // swaps equal-duration terms, so both schedules (and the chart
        // scale) are identical in time — only the painted lane cells
        // may differ, and they must strictly shrink.
        // Weightless Add layers with a huge j -> k edge, so the edge's
        // transfer dominates the chart and its disappearance from the
        // lanes is many columns wide.
        let mut b = ModelBuilder::new("fused");
        let i1 = b.input(
            "i1",
            TensorShape::Vector {
                features: 4_000_000,
            },
        );
        let i2 = b.input(
            "i2",
            TensorShape::Vector {
                features: 4_000_000,
            },
        );
        let j = b.add("j", &[i1, i2]).unwrap();
        let k = b.add("k", &[j, i1]).unwrap();
        let _ = k;
        let m = b.finish().unwrap();
        // ConstAccel DRAM is 1e9; match the interconnect to it.
        let sys = const_system(vec![ConstAccel::universal("u0", 1e-3)], 1e9);
        let mut map = Mapping::new(&m);
        for id in m.layer_ids() {
            map.set(id, AccId::new(0));
        }
        let ev = Evaluator::new(&m, &sys);
        let busy_cells = |loc: &LocalityState| {
            let sched = ev.evaluate(&map, loc);
            render_link_gantt(&m, &sys, &map, loc, &sched, 80)
                .lines()
                .filter_map(|l| l.split('|').nth(1))
                .flat_map(|row| row.chars())
                .filter(|c| *c != '.')
                .count()
        };
        let unfused = busy_cells(&LocalityState::new(&sys));
        let mut loc = LocalityState::new(&sys);
        assert!(loc.try_fuse(&m, &sys, j, k, AccId::new(0)));
        let fused = busy_cells(&loc);
        assert!(
            fused < unfused,
            "fusing the j->k edge must reduce lane occupancy ({fused} vs {unfused})"
        );
    }

    #[test]
    fn peer_links_get_their_own_lane() {
        use crate::topology::Topology;
        use h2h_model::units::BytesPerSec;
        let mut b = ModelBuilder::new("peer");
        let i = b.input("in", TensorShape::Vector { features: 512 });
        let f1 = b.fc("up", i, 512).unwrap();
        let f2 = b.fc("down", f1, 64).unwrap();
        let _ = f2;
        let m = b.finish().unwrap();
        let sys = const_system(
            vec![
                ConstAccel::universal("u0", 1e-3),
                ConstAccel::universal("u1", 1e-3),
            ],
            1e6,
        )
        .with_topology(Topology::switched(
            BytesPerSec::new(1e6),
            vec![BytesPerSec::new(1e6); 2],
            vec![(0, 1, BytesPerSec::new(1e8))],
        ));
        let ids = m.topo_order();
        let mut map = Mapping::new(&m);
        map.set(ids[0], AccId::new(0));
        map.set(ids[1], AccId::new(0));
        map.set(ids[2], AccId::new(1));
        let ev = Evaluator::new(&m, &sys);
        let loc = LocalityState::new(&sys);
        let sched = ev.evaluate(&map, &loc);
        let g = render_link_gantt(&m, &sys, &map, &loc, &sched, 60);
        assert!(g.contains("A0<->A1"), "direct link lane expected: {g}");
    }

    #[test]
    fn renders_real_zoo_schedule() {
        let m = h2h_model::zoo::mocap();
        let sys = crate::system::SystemSpec::standard(crate::system::BandwidthClass::Mid);
        let mut map = Mapping::new(&m);
        for (id, layer) in m.layers() {
            let acc = sys.acc_ids().find(|a| sys.acc(*a).supports(layer)).unwrap();
            map.set(id, acc);
        }
        let ev = Evaluator::new(&m, &sys);
        let sched = ev.evaluate(&map, &LocalityState::new(&sys));
        let g = render_gantt(&m, &sys, &map, &sched, 100);
        assert!(g.contains("makespan"));
    }
}
