//! Data-locality state: which weights are pinned in which accelerator's
//! local DRAM, and which edges are activation-fused (paper §4.2–4.3).
//!
//! The DRAM budget (`M_acc`) is shared between pinned weights and the
//! buffers that hold fused activations; both are capacity-checked here so
//! no optimization pass can oversubscribe a board.
//!
//! The representation is optimized for the incremental search core,
//! which clones one `LocalityState` per scored candidate and re-fuses
//! every edge of the candidate's fusion pass: the read-only
//! per-accelerator capacity table is shared behind an [`Arc`], and the
//! mutable scratch is flat vectors indexed by layer (`memcpy`-cheap
//! clones, no hashing). Fused edges sit in one unordered vector, linked
//! into a list per producer, so a membership test, a fusion and an
//! unfusion each walk only the producer's fused edges and never shift
//! the others.

use std::fmt;
use std::sync::Arc;

use h2h_model::graph::{LayerId, ModelGraph};
use h2h_model::tensor::DataType;
use h2h_model::units::Bytes;

use crate::system::{AccId, SystemSpec};

/// Sentinel for "not pinned" in the position index.
const UNPINNED: usize = usize::MAX;

/// Sentinel for "no further fused edge" in the per-producer lists.
const NIL: u32 = u32::MAX;

/// One fused edge, the byte volume it charged, and the position of the
/// producer's next fused edge (or [`NIL`]).
#[derive(Clone, Copy)]
struct FusedEdge {
    from: LayerId,
    to: LayerId,
    next: u32,
    bytes: u64,
}

/// Pinned-weight and fused-edge bookkeeping for one system.
pub struct LocalityState {
    /// Pinned layers, unordered (swap-removed on unpin).
    pinned: Vec<LayerId>,
    /// Byte volume charged per pin, parallel to `pinned`: unpin refunds
    /// from here instead of re-deriving the layer's weight bytes from
    /// the model (the search core moves or re-derives the touched
    /// accelerators' pins once per scored candidate).
    pinned_bytes: Vec<u64>,
    /// `pinned_pos[layer.index()]` = position in `pinned`, or
    /// [`UNPINNED`] (grown on demand; layer id bounds are not known at
    /// construction, only the system is).
    pinned_pos: Vec<usize>,
    /// Fused edges with their charged byte volume, unordered
    /// (swap-removed on unfuse): unfuse refunds from the record instead
    /// of re-walking the model graph's edge storage.
    fused: Vec<FusedEdge>,
    /// `fused_head[from.index()]` = position in `fused` of the first of
    /// `from`'s fused outgoing edges, or [`NIL`] (grown on demand like
    /// `pinned_pos`); each edge's `next` links the rest. The cost kernel
    /// asks [`LocalityState::is_fused`] per edge and almost always hears
    /// `false`, which an empty list gives with one load; otherwise the
    /// walk is at most the producer's out-degree.
    fused_head: Vec<u32>,
    used: Vec<u64>,
    /// Per-accelerator DRAM capacities captured from the system at
    /// construction: read-only, shared by every clone.
    caps: Arc<[u64]>,
}

impl Clone for LocalityState {
    fn clone(&self) -> Self {
        LocalityState {
            pinned: self.pinned.clone(),
            pinned_bytes: self.pinned_bytes.clone(),
            pinned_pos: self.pinned_pos.clone(),
            fused: self.fused.clone(),
            fused_head: self.fused_head.clone(),
            used: self.used.clone(),
            caps: Arc::clone(&self.caps),
        }
    }

    /// Reuses the destination's buffers — the search core clones one
    /// locality per scored candidate, so this keeps the hot loop
    /// allocation-free.
    fn clone_from(&mut self, source: &Self) {
        self.pinned.clone_from(&source.pinned);
        self.pinned_bytes.clone_from(&source.pinned_bytes);
        self.pinned_pos.clone_from(&source.pinned_pos);
        self.fused.clone_from(&source.fused);
        self.fused_head.clone_from(&source.fused_head);
        self.used.clone_from(&source.used);
        self.caps = Arc::clone(&source.caps);
    }
}

impl PartialEq for LocalityState {
    /// Set semantics: the same pinned layers, the same fused edges with
    /// the same charges, and the same use of every board, in whatever
    /// order either state was filled.
    fn eq(&self, other: &Self) -> bool {
        self.pinned.len() == other.pinned.len()
            && self.pinned.iter().all(|l| other.is_pinned(*l))
            && self.fused.len() == other.fused.len()
            && self.fused.iter().all(|e| {
                other.position(e.from, e.to).map(|at| other.fused[at].bytes) == Some(e.bytes)
            })
            && self.used == other.used
    }
}

/// Pins and fused edges print sorted, so equal states print alike.
impl fmt::Debug for LocalityState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut pinned: Vec<(LayerId, u64)> = self
            .pinned
            .iter()
            .copied()
            .zip(self.pinned_bytes.iter().copied())
            .collect();
        pinned.sort_unstable();
        let mut fused: Vec<(LayerId, LayerId, u64)> =
            self.fused.iter().map(|e| (e.from, e.to, e.bytes)).collect();
        fused.sort_unstable();
        f.debug_struct("LocalityState")
            .field("pinned", &pinned)
            .field("fused", &fused)
            .field("used", &self.used)
            .field("caps", &self.caps)
            .finish()
    }
}

impl LocalityState {
    /// Empty state (zero data locality — the step-1 assumption).
    pub fn new(system: &SystemSpec) -> Self {
        LocalityState {
            pinned: Vec::new(),
            pinned_bytes: Vec::new(),
            pinned_pos: Vec::new(),
            fused: Vec::new(),
            fused_head: Vec::new(),
            used: vec![0; system.num_accs()],
            caps: system
                .acc_ids()
                .map(|a| system.acc(a).dram_capacity().as_u64())
                .collect(),
        }
    }

    /// Bytes of local DRAM currently committed on `acc`.
    pub fn dram_used(&self, acc: AccId) -> Bytes {
        Bytes::new(self.used[acc.index()])
    }

    /// Bytes of local DRAM still free on `acc`. (`system` must be the
    /// system this state was built for; the capacity itself comes from
    /// the table captured at construction.)
    pub fn dram_free(&self, acc: AccId, system: &SystemSpec) -> Bytes {
        debug_assert_eq!(
            self.caps[acc.index()],
            system.acc(acc).dram_capacity().as_u64(),
            "locality state used with a different system"
        );
        Bytes::new(self.caps[acc.index()].saturating_sub(self.used[acc.index()]))
    }

    /// Attempts to pin `layer`'s weights (at F32) into `acc`'s DRAM.
    /// Returns `true` on success, `false` if the budget does not fit.
    /// Pinning an already-pinned layer is a no-op returning `true`.
    pub fn try_pin(
        &mut self,
        model: &ModelGraph,
        system: &SystemSpec,
        layer: LayerId,
        acc: AccId,
    ) -> bool {
        let bytes = model.layer(layer).weight_bytes(DataType::F32);
        self.try_pin_bytes(system, layer, acc, bytes)
    }

    /// [`LocalityState::try_pin`] with the layer's weight bytes supplied
    /// by the caller — the weight-locality pass already holds them (its
    /// knapsack items are priced in bytes), so the hot path skips the
    /// model lookup. `bytes` must be the layer's F32 weight volume;
    /// `try_pin` delegates here, so the two can never drift.
    pub fn try_pin_bytes(
        &mut self,
        system: &SystemSpec,
        layer: LayerId,
        acc: AccId,
        bytes: Bytes,
    ) -> bool {
        if self.is_pinned(layer) {
            return true;
        }
        if bytes > self.dram_free(acc, system) {
            return false;
        }
        self.used[acc.index()] += bytes.as_u64();
        let i = layer.index();
        if self.pinned_pos.len() <= i {
            self.pinned_pos.resize(i + 1, UNPINNED);
        }
        self.pinned_pos[i] = self.pinned.len();
        self.pinned.push(layer);
        self.pinned_bytes.push(bytes.as_u64());
        true
    }

    /// Reverts a pin, refunding the layer's weight bytes to `acc`'s
    /// budget (the accelerator the layer was mapped to when
    /// [`LocalityState::try_pin`] charged it). Returns `false` if the
    /// layer was not pinned.
    pub fn unpin(&mut self, layer: LayerId, acc: AccId) -> bool {
        // The refund comes from the recorded charge — no model lookup
        // on the search core's hot path.
        if !self.is_pinned(layer) {
            return false;
        }
        let pos = self.pinned_pos[layer.index()];
        self.pinned.swap_remove(pos);
        let bytes = self.pinned_bytes.swap_remove(pos);
        if let Some(moved) = self.pinned.get(pos) {
            self.pinned_pos[moved.index()] = pos;
        }
        self.pinned_pos[layer.index()] = UNPINNED;
        self.used[acc.index()] -= bytes;
        true
    }

    /// True if `layer`'s weights are resident in its accelerator's DRAM.
    pub fn is_pinned(&self, layer: LayerId) -> bool {
        self.pinned_pos
            .get(layer.index())
            .is_some_and(|p| *p != UNPINNED)
    }

    /// Number of pinned layers.
    pub fn num_pinned(&self) -> usize {
        self.pinned.len()
    }

    /// Attempts to fuse the `from → to` edge on `acc`: the intermediate
    /// activation stays in local DRAM instead of round-tripping through
    /// the host. Charges the edge's byte volume against the DRAM budget.
    /// Returns `true` on success (idempotent).
    pub fn try_fuse(
        &mut self,
        model: &ModelGraph,
        system: &SystemSpec,
        from: LayerId,
        to: LayerId,
        acc: AccId,
    ) -> bool {
        let Some(bytes) = model.edge_bytes(from, to) else {
            return false;
        };
        self.try_fuse_bytes(system, from, to, acc, bytes)
    }

    /// [`LocalityState::try_fuse`] with the edge's byte volume supplied
    /// by the caller — the fusion pass's candidate list already carries
    /// it (candidates are ordered by byte volume), so the hot path
    /// skips the graph's per-edge linear scan. `bytes` must be the
    /// `from → to` edge's volume; `try_fuse` delegates here, so the two
    /// can never drift.
    pub fn try_fuse_bytes(
        &mut self,
        system: &SystemSpec,
        from: LayerId,
        to: LayerId,
        acc: AccId,
        bytes: Bytes,
    ) -> bool {
        if self.position(from, to).is_some() {
            return true;
        }
        if bytes > self.dram_free(acc, system) {
            return false;
        }
        self.used[acc.index()] += bytes.as_u64();
        let i = from.index();
        if self.fused_head.len() <= i {
            self.fused_head.resize(i + 1, NIL);
        }
        assert!(
            self.fused.len() < NIL as usize,
            "fused-edge positions fit a u32"
        );
        self.fused.push(FusedEdge {
            from,
            to,
            next: self.fused_head[i],
            bytes: bytes.as_u64(),
        });
        self.fused_head[i] = (self.fused.len() - 1) as u32;
        true
    }

    /// Reverts a fusion, refunding the edge's bytes to `acc`'s budget
    /// (the accelerator originally charged in [`LocalityState::try_fuse`]).
    /// Returns `false` if the edge was not fused.
    pub fn unfuse(&mut self, from: LayerId, to: LayerId, acc: AccId) -> bool {
        // The refund comes from the recorded charge — no graph walk on
        // the search core's hot path.
        let Some(at) = self.position(from, to) else {
            return false;
        };
        // Unlink the edge, relink the last edge at its position, then
        // move that edge there.
        *self.link_to(from, at) = self.fused[at].next;
        let last = self.fused.len() - 1;
        if at != last {
            *self.link_to(self.fused[last].from, last) = at as u32;
        }
        let bytes = self.fused.swap_remove(at).bytes;
        self.used[acc.index()] -= bytes;
        true
    }

    /// True if the `from → to` edge is activation-fused.
    pub fn is_fused(&self, from: LayerId, to: LayerId) -> bool {
        self.position(from, to).is_some()
    }

    /// Position in `fused` of the `from → to` edge, if it is fused.
    fn position(&self, from: LayerId, to: LayerId) -> Option<usize> {
        let mut at = *self.fused_head.get(from.index())?;
        while at != NIL {
            let e = &self.fused[at as usize];
            if e.to == to {
                return Some(at as usize);
            }
            at = e.next;
        }
        None
    }

    /// The link that holds position `target` on `from`'s list: the
    /// list's head, or the `next` of the edge before it. `target` must
    /// be on that list.
    fn link_to(&mut self, from: LayerId, target: usize) -> &mut u32 {
        let target = target as u32;
        let head = &mut self.fused_head[from.index()];
        if *head == target {
            return head;
        }
        let mut at = *head as usize;
        while self.fused[at].next != target {
            at = self.fused[at].next as usize;
        }
        &mut self.fused[at].next
    }

    /// True when the `from → to` edge actually short-circuits through
    /// local DRAM under `mapping`: marked fused, both endpoints mapped
    /// and co-located, and the producer is not a model input (raw
    /// modality data lives at the host and always crosses the
    /// interconnect once). The single owner of this predicate — the
    /// evaluator, the event simulator, the contention bound and the
    /// link-lane gantt all route through it, so they can never drift.
    pub fn edge_is_local(
        &self,
        model: &ModelGraph,
        mapping: &crate::mapping::Mapping,
        from: LayerId,
        to: LayerId,
    ) -> bool {
        self.edge_is_local_flat(
            mapping,
            from,
            to,
            matches!(
                model.layer(from).op(),
                h2h_model::layer::LayerOp::Input { .. }
            ),
        )
    }

    /// [`LocalityState::edge_is_local`] with the producer's Input-ness
    /// supplied by the caller: the data-oriented evaluator keeps that
    /// bit in a precomputed per-layer array, saving the `model.layer`
    /// lookup on the scoring hot path. This variant owns the predicate;
    /// `edge_is_local` delegates here, so the two can never drift.
    pub fn edge_is_local_flat(
        &self,
        mapping: &crate::mapping::Mapping,
        from: LayerId,
        to: LayerId,
        from_is_input: bool,
    ) -> bool {
        !from_is_input
            && self.is_fused(from, to)
            && mapping.get(from) == mapping.get(to)
            && mapping.get(from).is_some()
    }

    /// Number of fused edges.
    pub fn num_fused(&self) -> usize {
        self.fused.len()
    }

    /// Iterate over pinned layers (arbitrary order).
    pub fn pinned_layers(&self) -> impl Iterator<Item = LayerId> + '_ {
        self.pinned.iter().copied()
    }

    /// Iterate over fused `(from, to)` edges, ascending by endpoint ids
    /// (sorted on each call).
    pub fn fused_edges(&self) -> impl Iterator<Item = (LayerId, LayerId)> + '_ {
        let mut edges: Vec<(LayerId, LayerId)> =
            self.fused.iter().map(|e| (e.from, e.to)).collect();
        edges.sort_unstable();
        edges.into_iter()
    }

    /// Total pinned-weight bytes across the system.
    pub fn total_pinned_bytes(&self, model: &ModelGraph) -> Bytes {
        self.pinned
            .iter()
            .map(|l| model.layer(*l).weight_bytes(DataType::F32))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::BandwidthClass;
    use h2h_model::builder::ModelBuilder;
    use h2h_model::tensor::TensorShape;

    fn fc_chain() -> ModelGraph {
        let mut b = ModelBuilder::new("chain");
        // f1 and f2 each hold 8192×8192 weights ≈ 256 MiB at F32.
        let i = b.input("i", TensorShape::Vector { features: 8192 });
        let f1 = b.fc("f1", i, 8192).unwrap();
        let f2 = b.fc("f2", f1, 8192).unwrap();
        b.fc("f3", f2, 16).unwrap();
        b.finish().unwrap()
    }

    fn ids(m: &ModelGraph) -> Vec<LayerId> {
        m.topo_order()
    }

    #[test]
    fn pinning_respects_capacity() {
        let m = fc_chain();
        let sys = SystemSpec::standard(BandwidthClass::Mid);
        let xz = sys.find_by_meta_id("XZ").unwrap(); // 512 MiB board
        let mut loc = LocalityState::new(&sys);
        let ids = ids(&m);
        // f2: 8192×8192 weights ≈ 256 MiB -> fits once, not twice.
        assert!(loc.try_pin(&m, &sys, ids[2], xz));
        let used_once = loc.dram_used(xz);
        assert!(used_once > Bytes::from_mib(250));
        // Idempotent re-pin.
        assert!(loc.try_pin(&m, &sys, ids[2], xz));
        assert_eq!(loc.dram_used(xz), used_once);
        // Second large layer exceeds the 512 MiB board.
        assert!(!loc.try_pin(&m, &sys, ids[1], xz));
        assert_eq!(loc.num_pinned(), 1);
    }

    #[test]
    fn fusion_charges_edge_bytes() {
        let m = fc_chain();
        let sys = SystemSpec::standard(BandwidthClass::Mid);
        let sh = sys.find_by_meta_id("SH").unwrap();
        let mut loc = LocalityState::new(&sys);
        let ids = ids(&m);
        assert!(loc.try_fuse(&m, &sys, ids[1], ids[2], sh));
        assert!(loc.is_fused(ids[1], ids[2]));
        // Edge bytes = 8192 f32 = 32 KiB.
        assert_eq!(loc.dram_used(sh), Bytes::new(8192 * 4));
        // Nonexistent edge refuses.
        assert!(!loc.try_fuse(&m, &sys, ids[0], ids[3], sh));
        assert_eq!(loc.num_fused(), 1);
    }

    #[test]
    fn budget_shared_between_weights_and_activations() {
        let m = fc_chain();
        let sys = SystemSpec::standard(BandwidthClass::Mid);
        let xz = sys.find_by_meta_id("XZ").unwrap();
        let mut loc = LocalityState::new(&sys);
        let ids = ids(&m);
        assert!(loc.try_pin(&m, &sys, ids[2], xz)); // ~256 MiB of 512
        let free = loc.dram_free(xz, &sys);
        assert!(free < Bytes::from_mib(256));
        // A 32 KiB fusion still fits.
        assert!(loc.try_fuse(&m, &sys, ids[1], ids[2], xz));
    }

    #[test]
    fn debug_prints_pins_and_edges_sorted() {
        let m = fc_chain();
        let sys = SystemSpec::standard(BandwidthClass::Mid);
        let sh = sys.find_by_meta_id("SH").unwrap();
        let ids = ids(&m);
        let mut a = LocalityState::new(&sys);
        assert!(a.try_fuse(&m, &sys, ids[2], ids[3], sh));
        assert!(a.try_fuse(&m, &sys, ids[1], ids[2], sh));
        assert!(a.try_pin(&m, &sys, ids[3], sh));
        assert!(a.try_pin(&m, &sys, ids[2], sh));
        let mut b = LocalityState::new(&sys);
        assert!(b.try_pin(&m, &sys, ids[2], sh));
        assert!(b.try_fuse(&m, &sys, ids[1], ids[2], sh));
        assert!(b.try_pin(&m, &sys, ids[3], sh));
        assert!(b.try_fuse(&m, &sys, ids[2], ids[3], sh));
        let text = format!("{a:?}");
        assert_eq!(text, format!("{b:?}"));
        let at = |edge: (LayerId, LayerId)| {
            text.find(&format!("({:?}, {:?}, ", edge.0, edge.1))
                .unwrap()
        };
        assert!(at((ids[1], ids[2])) < at((ids[2], ids[3])), "{text}");
    }

    #[test]
    fn total_pinned_bytes_sums() {
        let m = fc_chain();
        let sys = SystemSpec::standard(BandwidthClass::Mid);
        let sh = sys.find_by_meta_id("SH").unwrap(); // 8 GiB
        let mut loc = LocalityState::new(&sys);
        for id in ids(&m) {
            assert!(loc.try_pin(&m, &sys, id, sh));
        }
        let expect: Bytes = m
            .layers()
            .map(|(_, l)| l.weight_bytes(h2h_model::tensor::DataType::F32))
            .sum();
        assert_eq!(loc.total_pinned_bytes(&m), expect);
    }
}
