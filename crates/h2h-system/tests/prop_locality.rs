//! Property test of `LocalityState`'s bookkeeping against a plain
//! model: random sequences of fusions, unfusions, pins, unpins and
//! buffer-recycling clones on three small boards whose DRAM budgets
//! refuse often. The model is a `BTreeMap` of fused edges to their
//! charged bytes and the board they were charged to, the same for pins,
//! and a per-board byte count. After every operation the state must
//! answer every membership query, every board's use and free bytes,
//! and its edge list (ascending by endpoints) as the model does; at the
//! end of a sequence a state filled in another order must compare
//! equal to it.

use std::collections::BTreeMap;

use proptest::prelude::*;

use h2h_model::graph::LayerId;
use h2h_model::units::Bytes;
use h2h_system::locality::LocalityState;
use h2h_system::system::{AccId, SystemSpec};
use h2h_system::testutil::{const_system, ConstAccel};

/// Layer indices the operations draw from: a dense run, so producers
/// share consumers and fused edges are removed from the middle of what
/// one producer holds, plus a few far indices that make per-layer
/// tables grow.
const IDS: [usize; 12] = [0, 1, 2, 3, 4, 5, 6, 7, 63, 64, 65, 1000];

/// Indices that only membership queries use: never fused or pinned.
const PROBES: [usize; 2] = [8, 2000];

/// Per-board DRAM capacities in bytes, small against the 0..64-byte
/// charges so that capacity refusals are common.
const CAPS: [u64; 3] = [96, 160, 256];

fn system() -> SystemSpec {
    const_system(
        CAPS.iter()
            .enumerate()
            .map(|(i, c)| ConstAccel::universal(&format!("b{i}"), 1e-3).with_dram(Bytes::new(*c)))
            .collect(),
        1e9,
    )
}

fn id(i: usize) -> LayerId {
    LayerId::from_index(IDS[i % IDS.len()])
}

/// The reference the state is checked against.
#[derive(Default)]
struct Model {
    fused: BTreeMap<(LayerId, LayerId), (u64, AccId)>,
    pinned: BTreeMap<LayerId, (u64, AccId)>,
    used: [u64; 3],
}

impl Model {
    fn fits(&self, acc: AccId, bytes: u64) -> bool {
        bytes <= CAPS[acc.index()] - self.used[acc.index()]
    }

    fn fuse(&mut self, from: LayerId, to: LayerId, acc: AccId, bytes: u64) -> bool {
        if self.fused.contains_key(&(from, to)) {
            return true;
        }
        if !self.fits(acc, bytes) {
            return false;
        }
        self.used[acc.index()] += bytes;
        self.fused.insert((from, to), (bytes, acc));
        true
    }

    fn pin(&mut self, layer: LayerId, acc: AccId, bytes: u64) -> bool {
        if self.pinned.contains_key(&layer) {
            return true;
        }
        if !self.fits(acc, bytes) {
            return false;
        }
        self.used[acc.index()] += bytes;
        self.pinned.insert(layer, (bytes, acc));
        true
    }
}

/// Every query the state answers, against the model.
fn check(loc: &LocalityState, model: &Model, sys: &SystemSpec) {
    let queried = IDS
        .iter()
        .chain(PROBES.iter())
        .map(|i| LayerId::from_index(*i));
    for from in queried.clone() {
        for to in queried.clone() {
            assert_eq!(
                loc.is_fused(from, to),
                model.fused.contains_key(&(from, to)),
                "is_fused({from}, {to})"
            );
        }
        assert_eq!(
            loc.is_pinned(from),
            model.pinned.contains_key(&from),
            "is_pinned({from})"
        );
    }
    for acc in sys.acc_ids() {
        let used = model.used[acc.index()];
        assert_eq!(loc.dram_used(acc), Bytes::new(used), "dram_used({acc})");
        assert_eq!(
            loc.dram_free(acc, sys),
            Bytes::new(CAPS[acc.index()] - used),
            "dram_free({acc})"
        );
    }
    assert_eq!(loc.num_fused(), model.fused.len());
    assert_eq!(loc.num_pinned(), model.pinned.len());
    let edges: Vec<_> = loc.fused_edges().collect();
    let expect: Vec<_> = model.fused.keys().copied().collect();
    assert_eq!(
        edges, expect,
        "fused_edges() lists the model's edges in ascending order"
    );
}

/// The model's contents loaded into a fresh state: pins and edges in
/// descending order, the reverse of the order `fused_edges` lists.
fn refill(model: &Model, sys: &SystemSpec) -> LocalityState {
    let mut loc = LocalityState::new(sys);
    for ((from, to), (bytes, acc)) in model.fused.iter().rev() {
        assert!(loc.try_fuse_bytes(sys, *from, *to, *acc, Bytes::new(*bytes)));
    }
    for (layer, (bytes, acc)) in model.pinned.iter().rev() {
        assert!(loc.try_pin_bytes(sys, *layer, *acc, Bytes::new(*bytes)));
    }
    loc
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn locality_bookkeeping_matches_a_map_model(
        ops in proptest::collection::vec(
            (0u32..8, 0usize..IDS.len(), 0usize..IDS.len(), 0usize..CAPS.len(), 0u64..64),
            40..240,
        ),
    ) {
        let sys = system();
        let mut loc = LocalityState::new(&sys);
        // A second state whose buffers `clone_from` recycles; it holds
        // stale contents of another shape whenever it is reused.
        let mut spare = LocalityState::new(&sys);
        let mut model = Model::default();
        for (kind, a, b, acc, bytes) in ops {
            let (from, to, acc) = (id(a), id(b), AccId::new(acc));
            match kind {
                0..=2 => {
                    let got = loc.try_fuse_bytes(&sys, from, to, acc, Bytes::new(bytes));
                    prop_assert_eq!(got, model.fuse(from, to, acc, bytes));
                }
                3 | 4 => {
                    // Mostly a fused edge, so removals hit every
                    // position; otherwise the drawn pair, which may
                    // not be fused and must then be refused.
                    let edge = match model.fused.get(&(from, to)) {
                        Some(_) => Some((from, to)),
                        None if kind == 3 && !model.fused.is_empty() => {
                            model.fused.keys().nth((a * IDS.len() + b) % model.fused.len()).copied()
                        }
                        None => None,
                    };
                    match edge {
                        Some((f, t)) => {
                            let (charged, on) = model.fused.remove(&(f, t)).unwrap();
                            model.used[on.index()] -= charged;
                            prop_assert!(loc.unfuse(f, t, on));
                        }
                        None => prop_assert!(!loc.unfuse(from, to, acc)),
                    }
                }
                5 => {
                    let got = loc.try_pin_bytes(&sys, from, acc, Bytes::new(bytes));
                    prop_assert_eq!(got, model.pin(from, acc, bytes));
                }
                6 => match model.pinned.remove(&from) {
                    Some((charged, on)) => {
                        model.used[on.index()] -= charged;
                        prop_assert!(loc.unpin(from, on));
                    }
                    None => prop_assert!(!loc.unpin(from, acc)),
                },
                _ => {
                    spare.clone_from(&loc);
                    prop_assert!(spare == loc);
                    std::mem::swap(&mut loc, &mut spare);
                }
            }
            check(&loc, &model, &sys);
        }
        let refilled = refill(&model, &sys);
        check(&refilled, &model, &sys);
        prop_assert!(refilled == loc);
        prop_assert!(loc == refilled);
        prop_assert!(loc.clone() == loc);
    }
}

/// Two states that charge a board the same total through the same
/// edges, but each edge a different amount, are not equal: equality
/// compares every edge's charge, not only the boards' totals.
#[test]
fn equal_board_use_with_different_edge_charges_is_unequal() {
    let sys = system();
    let acc = AccId::new(2);
    let (l0, l1, l2) = (id(0), id(1), id(2));
    let mut a = LocalityState::new(&sys);
    assert!(a.try_fuse_bytes(&sys, l0, l1, acc, Bytes::new(10)));
    assert!(a.try_fuse_bytes(&sys, l0, l2, acc, Bytes::new(20)));
    let mut b = LocalityState::new(&sys);
    assert!(b.try_fuse_bytes(&sys, l0, l2, acc, Bytes::new(10)));
    assert!(b.try_fuse_bytes(&sys, l0, l1, acc, Bytes::new(20)));
    assert_eq!(a.dram_used(acc), b.dram_used(acc));
    assert!(a != b);
    // The same charges in another order are equal.
    let mut c = LocalityState::new(&sys);
    assert!(c.try_fuse_bytes(&sys, l0, l2, acc, Bytes::new(20)));
    assert!(c.try_fuse_bytes(&sys, l0, l1, acc, Bytes::new(10)));
    assert!(a == c);
}
