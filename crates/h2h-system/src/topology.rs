//! The interconnect fabric: routed per-link bandwidths (`G_sys`'s
//! edges, generalized).
//!
//! The paper abstracts the cluster interconnect as a single scalar
//! `BW_acc`: every transfer, regardless of endpoints, is charged at one
//! global Ethernet rate over an implicit host star. [`Topology`] models
//! the fabric explicitly instead:
//!
//! * **Star** — a host NIC plus one host↔accelerator link per board,
//!   each with its own rate. Accelerator↔accelerator data is relayed
//!   through the host (two legs), so its effective rate is the
//!   bottleneck of the links it crosses.
//! * **Switched** — a star plus *direct* accelerator↔accelerator peer
//!   links that bypass the host entirely (and therefore neither pay the
//!   host-NIC bottleneck nor contend for it).
//!
//! Every `(src, dst)` endpoint pair resolves through a precomputed
//! route table to an *effective path bandwidth* — the minimum rate
//! along the route — and a `crosses host` bit that feeds both the
//! discrete-event simulator's host-NIC contention model and the
//! analytical contention bound ([`host_contention_bound`]).
//!
//! A **uniform star** (every link at one rate, the default built by
//! [`crate::system::SystemSpec::new`]) collapses to the paper's scalar
//! model *bitwise*: every route's effective bandwidth is the same
//! `f64`, so every transfer time, schedule, mapping decision and
//! search statistic is bit-identical to the historical scalar path
//! (asserted zoo-wide by the `topology_equiv` suite).

use std::fmt::Write as _;

use h2h_model::graph::{LayerId, ModelGraph};
use h2h_model::layer::LayerOp;
use h2h_model::tensor::DataType;
use h2h_model::units::{Bytes, BytesPerSec, Seconds};

use crate::fault::FaultState;
use crate::locality::LocalityState;
use crate::mapping::Mapping;
use crate::system::AccId;

/// One end of a transfer: the host node or an accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// The host node (raw modality inputs, weight storage, outputs).
    Host,
    /// An accelerator board.
    Acc(AccId),
}

impl Endpoint {
    /// Dense node index: host is 0, accelerator `i` is `i + 1`.
    fn node(self) -> usize {
        match self {
            Endpoint::Host => 0,
            Endpoint::Acc(a) => a.index() + 1,
        }
    }
}

/// The interconnect fabric of a [`crate::system::SystemSpec`]: per-link
/// rates plus a precomputed `(src, dst)` route table (see the module
/// docs for the routing rules).
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Host-side NIC rate (every via-host route crosses it).
    host_nic: BytesPerSec,
    /// Host↔accelerator link rate per board.
    links: Vec<BytesPerSec>,
    /// Direct peer links `(i, j, rate)` with `i < j` (switched fabrics).
    peers: Vec<(usize, usize, BytesPerSec)>,
    /// Effective path bandwidth per `(src, dst)` node pair, row-major
    /// over `n_accs + 1` nodes (host first).
    route: Vec<BytesPerSec>,
    /// Whether the `(src, dst)` route is relayed through the host.
    via_host: Vec<bool>,
    /// `Some(bw)` iff every route resolves to the same rate bitwise —
    /// the scalar-model fast path.
    uniform: Option<BytesPerSec>,
}

impl Topology {
    /// The paper's scalar model: every link (and the host NIC) at `bw`.
    pub fn uniform_star(bw: BytesPerSec, n_accs: usize) -> Self {
        Topology::star(bw, vec![bw; n_accs])
    }

    /// A star with one host NIC rate and per-accelerator link rates.
    ///
    /// # Panics
    ///
    /// Panics if `links` is empty or any rate is non-positive.
    pub fn star(host_nic: BytesPerSec, links: Vec<BytesPerSec>) -> Self {
        Topology::switched(host_nic, links, Vec::new())
    }

    /// A switched fabric: star links plus direct peer links that bypass
    /// the host. Peer endpoints are normalized to `i < j`; both
    /// directions use the same rate.
    ///
    /// # Panics
    ///
    /// Panics if `links` is empty, any rate is non-positive, or a peer
    /// link references an out-of-range or self-paired accelerator.
    pub fn switched(
        host_nic: BytesPerSec,
        links: Vec<BytesPerSec>,
        peers: Vec<(usize, usize, BytesPerSec)>,
    ) -> Self {
        assert!(
            !links.is_empty(),
            "a topology needs at least one accelerator link"
        );
        assert!(host_nic.as_f64() > 0.0, "host NIC rate must be positive");
        for l in &links {
            assert!(l.as_f64() > 0.0, "link rates must be positive");
        }
        let n = links.len();
        let peers: Vec<(usize, usize, BytesPerSec)> = peers
            .into_iter()
            .map(|(a, b, r)| {
                assert!(
                    a < n && b < n,
                    "peer link ({a},{b}) out of range for {n} accelerators"
                );
                assert!(a != b, "peer link endpoints must differ");
                assert!(r.as_f64() > 0.0, "peer rates must be positive");
                (a.min(b), a.max(b), r)
            })
            .collect();

        let nodes = n + 1;
        let mut route = vec![host_nic; nodes * nodes];
        let mut via_host = vec![true; nodes * nodes];
        let min_bw = |a: BytesPerSec, b: BytesPerSec| if b < a { b } else { a };
        for i in 0..nodes {
            for j in 0..nodes {
                let idx = i * nodes + j;
                let (bw, via) = match (i, j) {
                    (0, 0) => (host_nic, true),
                    (0, a) | (a, 0) => (min_bw(host_nic, links[a - 1]), true),
                    (a, b) => {
                        let (lo, hi) = (a.min(b) - 1, a.max(b) - 1);
                        match peers.iter().find(|(pa, pb, _)| (*pa, *pb) == (lo, hi)) {
                            Some((_, _, r)) => (*r, false),
                            // Relay through the host: up `a`'s link,
                            // across the NIC, down `b`'s link.
                            None => (min_bw(min_bw(links[a - 1], host_nic), links[b - 1]), true),
                        }
                    }
                };
                route[idx] = bw;
                via_host[idx] = via;
            }
        }
        let first = route[0];
        let uniform = route
            .iter()
            .all(|r| r.as_f64() == first.as_f64())
            .then_some(first);
        Topology {
            host_nic,
            links,
            peers,
            route,
            via_host,
            uniform,
        }
    }

    /// Number of accelerators this fabric connects.
    pub fn num_accs(&self) -> usize {
        self.links.len()
    }

    /// The host-side NIC rate.
    pub fn host_nic(&self) -> BytesPerSec {
        self.host_nic
    }

    /// The host↔accelerator link rate of one board.
    pub fn link(&self, acc: AccId) -> BytesPerSec {
        self.links[acc.index()]
    }

    /// Direct peer links `(i, j, rate)`, normalized `i < j`.
    pub fn peers(&self) -> &[(usize, usize, BytesPerSec)] {
        &self.peers
    }

    /// `Some(bw)` iff every route runs at the same rate bitwise — the
    /// scalar-model fast path (and the bit-identity guarantee).
    pub fn uniform_bw(&self) -> Option<BytesPerSec> {
        self.uniform
    }

    /// True when the fabric collapses to the paper's scalar model.
    pub fn is_uniform(&self) -> bool {
        self.uniform.is_some()
    }

    /// Effective bandwidth of the `src → dst` route: the minimum rate
    /// along the links it crosses (a direct peer link for switched
    /// pairs, the host relay otherwise).
    pub fn path_bw(&self, src: Endpoint, dst: Endpoint) -> BytesPerSec {
        let nodes = self.links.len() + 1;
        self.route[src.node() * nodes + dst.node()]
    }

    /// Dense row-major copy of the precomputed route table: entry
    /// `src * (num_accs + 1) + dst` is the effective `src → dst` rate,
    /// with node 0 the host and node `i + 1` accelerator `i` (the
    /// [`Endpoint`] numbering). Data-oriented consumers (the SoA
    /// evaluator kernel) index this directly instead of calling
    /// [`Topology::path_bw`] per edge; the values are the same
    /// `BytesPerSec` objects bitwise, so the two paths cannot diverge.
    pub fn route_rate_matrix(&self) -> Vec<BytesPerSec> {
        self.route.clone()
    }

    /// Whether the `src → dst` route is relayed through the host NIC
    /// (and therefore contends for it).
    pub fn crosses_host(&self, src: Endpoint, dst: Endpoint) -> bool {
        let nodes = self.links.len() + 1;
        self.via_host[src.node() * nodes + dst.node()]
    }

    /// Time to stream per-accelerator byte amounts from the host,
    /// charged at each board's host-path rate. On a uniform fabric the
    /// amounts collapse to one exact byte sum over the single rate —
    /// bit-identical to the scalar model's one-division charge (the
    /// multi-tenant serving ledger relies on this).
    pub fn host_stream_time<I>(&self, per_acc: I) -> Seconds
    where
        I: IntoIterator<Item = (AccId, Bytes)>,
    {
        match self.uniform {
            Some(bw) => {
                let total: Bytes = per_acc.into_iter().map(|(_, b)| b).sum();
                bw.transfer_time(total)
            }
            None => per_acc
                .into_iter()
                .map(|(a, b)| {
                    self.path_bw(Endpoint::Host, Endpoint::Acc(a))
                        .transfer_time(b)
                })
                .sum(),
        }
    }

    /// The single OFM upload of `id` under `(mapping, locality)`: its
    /// effective rate — the slowest route among the remote consumers,
    /// the host route for model outputs — and whether it crosses the
    /// host NIC (true if *any* chosen route relays through the host).
    /// `None` when every consumer is fused (no upload happens). The
    /// one owner of the multi-consumer OFM rule: the evaluator, the
    /// event simulator, the link gantt and the contention bound all
    /// route through it, so they can never drift apart.
    pub fn ofm_route(
        &self,
        model: &ModelGraph,
        mapping: &Mapping,
        locality: &LocalityState,
        id: LayerId,
    ) -> Option<(BytesPerSec, bool)> {
        let here = Endpoint::Acc(mapping.acc_of(id));
        let mut has_succ = false;
        let mut route: Option<(BytesPerSec, bool)> = None;
        for s in model.successors(id) {
            has_succ = true;
            if locality.edge_is_local(model, mapping, id, s) {
                continue;
            }
            let dst = match mapping.get(s) {
                Some(sa) => Endpoint::Acc(sa),
                None => Endpoint::Host,
            };
            let r = self.path_bw(here, dst);
            let via = self.crosses_host(here, dst);
            route = Some(match route {
                Some((cur, cur_via)) => (if cur < r { cur } else { r }, cur_via || via),
                None => (r, via),
            });
        }
        if !has_succ {
            // Model output: the result always lands at the host.
            route = Some((self.path_bw(here, Endpoint::Host), true));
        }
        route
    }

    /// The degraded view of this fabric under a [`FaultState`] — the
    /// fault model's entry point into the route table. The host NIC is
    /// divided by the host slowdown factor (re-pricing every via-host
    /// route at once), each board's host link is divided by its own
    /// slowdown factor, peer links incident to a down board are severed
    /// (their traffic falls back to the host relay), and the
    /// `(src, dst)` route table is rebuilt from scratch against the
    /// degraded rates — cheap (O(n²) over a handful of boards), so
    /// serve-time repair can afford one per fault transition. Down
    /// boards keep their (rate-unchanged) host links: liveness is a
    /// placement constraint, not a routing one — data the host already
    /// relayed stays reachable, the repair path just never maps a layer
    /// onto a dead board. Likewise a *down* host leaves every rate
    /// untouched: host liveness is enforced by the event simulator and
    /// the serve loop (stalled via-host phases, frozen
    /// admission/eviction), not by zeroed bandwidths, so analytic
    /// pricing on the degraded fabric stays finite.
    ///
    /// A healthy state returns a bitwise-identical clone, so the
    /// no-fault path cannot drift from the historical fabric.
    pub fn degrade(&self, state: &FaultState) -> Topology {
        assert_eq!(
            state.num_accs(),
            self.num_accs(),
            "fault state must describe every board of the fabric"
        );
        if state.is_healthy() {
            return self.clone();
        }
        let host_nic = BytesPerSec::new(self.host_nic.as_f64() / state.host_factor());
        let links = self
            .links
            .iter()
            .enumerate()
            .map(|(i, l)| BytesPerSec::new(l.as_f64() / state.link_factor(AccId::new(i))))
            .collect();
        let peers = self
            .peers
            .iter()
            .copied()
            .filter(|(a, b, _)| state.acc_is_up(AccId::new(*a)) && state.acc_is_up(AccId::new(*b)))
            .collect();
        Topology::switched(host_nic, links, peers)
    }

    /// Parses a topology spec string against a base rate (usually the
    /// bandwidth class) and accelerator count. Accepted forms:
    ///
    /// * `uniform` — every link at `base` (the scalar model);
    /// * `skewed[:FACTOR]` — odd-indexed boards' links slowed to
    ///   `base / FACTOR` (default 4), host NIC at `base`;
    /// * `switched[:MULT]` — uniform star plus direct peer links
    ///   between adjacent board pairs `(0,1), (2,3), …` at
    ///   `base × MULT` (default 4) — a partitioned switch;
    /// * `star:host=G;links=g0,g1,…` — explicit rates in GB/s (a links
    ///   list shorter than the system repeats cyclically);
    /// * `switched:host=G;links=…;peers=i-j@G,…` — explicit switched
    ///   fabric.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed specs.
    pub fn parse(spec: &str, base: BytesPerSec, n_accs: usize) -> Result<Topology, String> {
        if n_accs == 0 {
            // Without this guard every preset would panic inside the
            // `switched` constructor instead of reporting the error.
            return Err("a topology needs at least one accelerator".into());
        }
        let gbps = |s: &str| -> Result<BytesPerSec, String> {
            let v: f64 = s
                .trim()
                .parse()
                .map_err(|_| format!("bad rate `{s}` (GB/s expected)"))?;
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("rate `{s}` must be positive and finite"));
            }
            Ok(BytesPerSec::new(v * 1e9))
        };
        let (head, rest) = match spec.split_once(':') {
            Some((h, r)) => (h, Some(r)),
            None => (spec, None),
        };
        match head {
            "uniform" => {
                if rest.is_some() {
                    return Err("`uniform` takes no parameters".into());
                }
                Ok(Topology::uniform_star(base, n_accs))
            }
            "skewed" => {
                let factor: f64 = match rest {
                    None => 4.0,
                    Some(r) => r
                        .parse()
                        .map_err(|_| format!("bad skew factor `{r}` (number expected)"))?,
                };
                if !factor.is_finite() || factor <= 1.0 {
                    return Err("skew factor must be finite and exceed 1".into());
                }
                let slow = BytesPerSec::new(base.as_f64() / factor);
                let links = (0..n_accs)
                    .map(|i| if i % 2 == 1 { slow } else { base })
                    .collect();
                Ok(Topology::star(base, links))
            }
            "switched" if rest.is_none_or(|r| r.parse::<f64>().is_ok()) => {
                let mult: f64 = rest.map(|r| r.parse().expect("checked")).unwrap_or(4.0);
                if !mult.is_finite() || mult < 1.0 {
                    return Err("peer multiplier must be finite and at least 1".into());
                }
                let fast = BytesPerSec::new(base.as_f64() * mult);
                let peers = (0..n_accs / 2).map(|k| (2 * k, 2 * k + 1, fast)).collect();
                Ok(Topology::switched(base, vec![base; n_accs], peers))
            }
            "star" | "switched" => {
                let rest = rest.ok_or("explicit specs need `host=…;links=…`")?;
                let mut host = base;
                let mut links: Vec<BytesPerSec> = vec![base; n_accs];
                let mut peers = Vec::new();
                for field in rest.split(';').filter(|f| !f.is_empty()) {
                    let (key, val) = field
                        .split_once('=')
                        .ok_or_else(|| format!("field `{field}` is not key=value"))?;
                    match key {
                        "host" => host = gbps(val)?,
                        "links" => {
                            let rates: Vec<BytesPerSec> =
                                val.split(',').map(gbps).collect::<Result<_, _>>()?;
                            if rates.is_empty() {
                                return Err("links list must not be empty".into());
                            }
                            links = (0..n_accs).map(|i| rates[i % rates.len()]).collect();
                        }
                        "peers" => {
                            for p in val.split(',').filter(|p| !p.is_empty()) {
                                let (pair, rate) = p
                                    .split_once('@')
                                    .ok_or_else(|| format!("peer `{p}` is not i-j@rate"))?;
                                let (a, b) = pair
                                    .split_once('-')
                                    .ok_or_else(|| format!("peer `{p}` is not i-j@rate"))?;
                                let a: usize =
                                    a.parse().map_err(|_| format!("bad peer index `{a}`"))?;
                                let b: usize =
                                    b.parse().map_err(|_| format!("bad peer index `{b}`"))?;
                                if a >= n_accs || b >= n_accs || a == b {
                                    return Err(format!(
                                        "peer {a}-{b} invalid for {n_accs} accelerators"
                                    ));
                                }
                                // A pair prices one link: a second rate
                                // for it, in either order, would be
                                // silently dropped.
                                if peers
                                    .iter()
                                    .any(|&(pa, pb, _)| (pa, pb) == (a, b) || (pa, pb) == (b, a))
                                {
                                    return Err(format!("peer {a}-{b} given twice"));
                                }
                                peers.push((a, b, gbps(rate)?));
                            }
                        }
                        other => return Err(format!("unknown field `{other}`")),
                    }
                }
                if head == "star" && !peers.is_empty() {
                    return Err("`star` takes no peers (use `switched`)".into());
                }
                Ok(Topology::switched(host, links, peers))
            }
            other => Err(format!(
                "unknown topology `{other}` (uniform | skewed[:f] | switched[:m] | \
                 star:host=G;links=… | switched:host=G;links=…;peers=i-j@G,…)"
            )),
        }
    }

    /// Human-readable link + route table (the `inspect` CLI renders
    /// this): per-board host links, direct peer links, and for
    /// non-uniform fabrics the full effective-bandwidth route matrix.
    pub fn describe(&self) -> String {
        let gb = |r: BytesPerSec| format!("{:.3}", r.as_f64() / 1e9);
        let mut out = String::new();
        if let Some(bw) = self.uniform {
            let _ = writeln!(
                out,
                "topology: uniform star — every link {} GB/s (scalar-equivalent)",
                gb(bw)
            );
            return out;
        }
        let kind = if self.peers.is_empty() {
            "star"
        } else {
            "switched"
        };
        let _ = writeln!(
            out,
            "topology: {kind} — host NIC {} GB/s",
            gb(self.host_nic)
        );
        for (i, l) in self.links.iter().enumerate() {
            let _ = writeln!(out, "  host <-> A{i:<2} {:>8} GB/s", gb(*l));
        }
        for (a, b, r) in &self.peers {
            let _ = writeln!(out, "  A{a} <-> A{b} direct {:>8} GB/s", gb(*r));
        }
        let _ = writeln!(out, "route table (effective GB/s, * = bypasses host):");
        let n = self.links.len();
        let mut header = String::from("        host");
        for j in 0..n {
            let _ = write!(header, " {:>7}", format!("A{j}"));
        }
        let _ = writeln!(out, "{header}");
        for i in 0..=n {
            let name = if i == 0 {
                "host".to_owned()
            } else {
                format!("A{}", i - 1)
            };
            let _ = write!(out, "  {name:<5}");
            for j in 0..=n {
                let src = if i == 0 {
                    Endpoint::Host
                } else {
                    Endpoint::Acc(AccId::new(i - 1))
                };
                let dst = if j == 0 {
                    Endpoint::Host
                } else {
                    Endpoint::Acc(AccId::new(j - 1))
                };
                let mark = if self.crosses_host(src, dst) {
                    ' '
                } else {
                    '*'
                };
                let _ = write!(out, " {:>6}{mark}", gb(self.path_bw(src, dst)));
            }
            out.push('\n');
        }
        out
    }
}

/// Source endpoint of an unfused `pred → consumer` edge: the host for
/// model inputs (raw modality data lives there) and for
/// not-yet-placed producers (partial frontier evaluation), the
/// producer's accelerator otherwise. Shared by every transfer-routing
/// consumer so the rule has one owner.
pub fn edge_src(model: &ModelGraph, mapping: &Mapping, pred: LayerId) -> Endpoint {
    if matches!(model.layer(pred).op(), LayerOp::Input { .. }) {
        return Endpoint::Host;
    }
    match mapping.get(pred) {
        Some(pa) => Endpoint::Acc(pa),
        None => Endpoint::Host,
    }
}

/// Total bytes the host NIC relays for one inference of `(mapping,
/// locality)` at the given serving batch size: unpinned weight streams
/// (once per batch), unfused IFM downloads and remote OFM uploads whose
/// routes cross the host (each per request). Mirrors the simulator's
/// Ethernet phases exactly, so the bound below is sound against it.
pub fn host_traffic_bytes(
    model: &ModelGraph,
    topology: &Topology,
    mapping: &Mapping,
    locality: &LocalityState,
    batch: u32,
) -> f64 {
    let b = batch as f64;
    let mut total = 0.0f64;
    for (id, layer) in model.layers() {
        let acc = mapping.acc_of(id);
        let here = Endpoint::Acc(acc);
        if !locality.is_pinned(id) && topology.crosses_host(Endpoint::Host, here) {
            total += layer.weight_bytes(DataType::F32).as_f64();
        }
        let is_input = matches!(layer.op(), LayerOp::Input { .. });
        for pred in model.predecessors(id) {
            if locality.edge_is_local(model, mapping, pred, id) {
                continue;
            }
            if topology.crosses_host(edge_src(model, mapping, pred), here) {
                total += model.edge_bytes(pred, id).expect("edge exists").as_f64() * b;
            }
        }
        // One upload serves every remote consumer (and the final
        // output, which always lands at the host): it is counted once
        // iff its route crosses the host NIC.
        if !is_input {
            if let Some((_, via_host)) = topology.ofm_route(model, mapping, locality, id) {
                if via_host {
                    total += layer.ofm_bytes(DataType::F32).as_f64() * b;
                }
            }
        }
    }
    total
}

/// Analytical lower bound on the congested makespan: the host NIC of
/// capacity `nic` must relay [`host_traffic_bytes`] in serial, so no
/// schedule — simulated or real — finishes before `bytes / nic` (nor
/// before the contention-free analytical makespan, which the caller
/// maxes in). The `sim_crosscheck` suite asserts the discrete-event
/// simulator respects this bound and meets it when links are dedicated.
pub fn host_contention_bound(
    model: &ModelGraph,
    topology: &Topology,
    mapping: &Mapping,
    locality: &LocalityState,
    nic: BytesPerSec,
    batch: u32,
) -> Seconds {
    let bytes = host_traffic_bytes(model, topology, mapping, locality, batch);
    Seconds::new(bytes / nic.as_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bw(g: f64) -> BytesPerSec {
        BytesPerSec::new(g * 1e9)
    }

    #[test]
    fn uniform_star_collapses_to_scalar_bitwise() {
        let t = Topology::uniform_star(bw(0.125), 4);
        assert!(t.is_uniform());
        assert_eq!(t.uniform_bw().unwrap().as_f64(), 0.125e9);
        for i in 0..4 {
            for j in 0..4 {
                let p = t.path_bw(Endpoint::Acc(AccId::new(i)), Endpoint::Acc(AccId::new(j)));
                assert_eq!(p.as_f64(), 0.125e9);
            }
            let h = t.path_bw(Endpoint::Host, Endpoint::Acc(AccId::new(i)));
            assert_eq!(h.as_f64(), 0.125e9);
        }
    }

    #[test]
    fn star_routes_bottleneck_on_slowest_crossed_link() {
        let t = Topology::star(bw(1.0), vec![bw(1.0), bw(0.25), bw(0.5)]);
        assert!(!t.is_uniform());
        let a = |i| Endpoint::Acc(AccId::new(i));
        assert_eq!(t.path_bw(Endpoint::Host, a(1)).as_f64(), 0.25e9);
        assert_eq!(t.path_bw(a(0), a(1)).as_f64(), 0.25e9);
        assert_eq!(t.path_bw(a(0), a(2)).as_f64(), 0.5e9);
        assert!(t.crosses_host(a(0), a(2)));
        // Host NIC slower than both endpoint links bottlenecks the relay.
        let t2 = Topology::star(bw(0.1), vec![bw(1.0), bw(1.0)]);
        assert_eq!(t2.path_bw(a(0), a(1)).as_f64(), 0.1e9);
    }

    #[test]
    fn switched_peers_bypass_the_host() {
        let t = Topology::switched(bw(0.125), vec![bw(0.125); 4], vec![(0, 1, bw(1.0))]);
        let a = |i| Endpoint::Acc(AccId::new(i));
        assert_eq!(t.path_bw(a(0), a(1)).as_f64(), 1.0e9);
        assert_eq!(t.path_bw(a(1), a(0)).as_f64(), 1.0e9);
        assert!(!t.crosses_host(a(0), a(1)));
        assert!(t.crosses_host(a(0), a(2)));
        assert!(!t.is_uniform());
    }

    #[test]
    fn host_stream_time_is_grouped_exactly_when_uniform() {
        let t = Topology::uniform_star(bw(0.125), 3);
        let parts = [
            (AccId::new(0), Bytes::new(1_000_003)),
            (AccId::new(2), Bytes::new(7)),
        ];
        let grouped = t.host_stream_time(parts);
        let scalar = bw(0.125).transfer_time(Bytes::new(1_000_010));
        assert_eq!(grouped.as_f64(), scalar.as_f64(), "bitwise");

        let skew = Topology::star(bw(0.125), vec![bw(0.125), bw(0.125), bw(0.025)]);
        let per_link = skew.host_stream_time(parts);
        assert!(per_link > grouped, "slow link must cost more");
    }

    #[test]
    fn parse_presets_and_explicit_forms() {
        let base = bw(0.125);
        assert!(Topology::parse("uniform", base, 4).unwrap().is_uniform());
        let skew = Topology::parse("skewed", base, 4).unwrap();
        assert_eq!(skew.link(AccId::new(0)).as_f64(), 0.125e9);
        assert_eq!(skew.link(AccId::new(1)).as_f64(), 0.125e9 / 4.0);
        let skew8 = Topology::parse("skewed:8", base, 4).unwrap();
        assert_eq!(skew8.link(AccId::new(1)).as_f64(), 0.125e9 / 8.0);
        let sw = Topology::parse("switched", base, 4).unwrap();
        assert_eq!(sw.peers().len(), 2);
        assert_eq!(sw.peers()[0], (0, 1, bw(0.5)));
        let ex = Topology::parse("star:host=1;links=0.5,0.25", base, 4).unwrap();
        assert_eq!(ex.host_nic().as_f64(), 1e9);
        assert_eq!(ex.link(AccId::new(2)).as_f64(), 0.5e9, "cyclic repeat");
        let exs = Topology::parse("switched:links=0.125;peers=0-3@2", base, 4).unwrap();
        assert_eq!(exs.peers()[0], (0, 3, bw(2.0)));
        assert!(Topology::parse("nope", base, 4).is_err());
        assert!(Topology::parse("skewed:0.5", base, 4).is_err());
        // A malformed preset parameter names the parameter, not the
        // (correctly spelled) preset.
        let err = Topology::parse("skewed:4x", base, 4).unwrap_err();
        assert!(err.contains("skew factor"), "got: {err}");
        // Non-finite parameters error instead of panicking downstream.
        assert!(Topology::parse("skewed:inf", base, 4).is_err());
        assert!(Topology::parse("skewed:nan", base, 4).is_err());
        assert!(Topology::parse("switched:nan", base, 4).is_err());
        assert!(Topology::parse("star:host=inf", base, 4).is_err());
        assert!(Topology::parse("star:host=1;peers=0-1@2", base, 4).is_err());
        assert!(Topology::parse("switched:peers=0-9@2", base, 4).is_err());
    }

    #[test]
    fn parse_rejects_each_malformed_spec_with_a_descriptive_error() {
        // One case per rejection path: every malformed spec must come
        // back as an `Err` naming the problem, never as a panic in the
        // constructors downstream.
        let base = bw(0.125);
        let cases: &[(&str, &str)] = &[
            ("skewed:0", "exceed 1"),
            ("skewed:-3", "exceed 1"),
            ("skewed:1", "exceed 1"),
            ("skewed:4x", "skew factor"),
            ("switched:0.5", "at least 1"),
            ("switched:-2", "at least 1"),
            ("star", "host=…;links=…"),
            ("star:host=0", "must be positive"),
            ("star:host=-1", "must be positive"),
            ("star:links=0.5,-2", "must be positive"),
            ("star:links=0.5,nan", "must be positive"),
            ("star:links=", "bad rate"),
            ("star:rate=1", "unknown field"),
            ("star:host", "not key=value"),
            ("star:host=1;peers=0-1@2", "takes no peers"),
            ("switched:peers=0-12@2", "invalid for 12 accelerators"),
            ("switched:peers=3-3@2", "invalid for 12 accelerators"),
            ("switched:peers=a-1@2", "bad peer index"),
            ("switched:peers=0-1", "not i-j@rate"),
            ("switched:peers=0-1@0", "must be positive"),
            ("switched:host=1;links=1;peers=0-1@1,0-1@8", "given twice"),
            ("switched:peers=2-3@1,3-2@8", "given twice"),
            ("mesh", "unknown topology"),
        ];
        for (spec, needle) in cases {
            let err = Topology::parse(spec, base, 12).unwrap_err();
            assert!(err.contains(needle), "`{spec}`: `{err}` lacks `{needle}`");
        }
        assert!(
            Topology::parse("uniform", base, 0)
                .unwrap_err()
                .contains("at least one"),
            "an empty system must be rejected, not panic"
        );
    }

    #[test]
    fn degrade_rebuilds_routes_and_severs_dead_peers() {
        use crate::fault::FaultState;
        let t = Topology::switched(
            bw(0.125),
            vec![bw(0.125); 4],
            vec![(0, 1, bw(1.0)), (2, 3, bw(1.0))],
        );
        let a = |i| Endpoint::Acc(AccId::new(i));

        // Healthy state: bitwise-identical clone.
        assert_eq!(t.degrade(&FaultState::healthy(4)), t);

        // Link degradation re-prices every route crossing the link.
        let mut slow = FaultState::healthy(4);
        slow.set_link_factor(AccId::new(2), 4.0);
        let d = t.degrade(&slow);
        assert_eq!(d.link(AccId::new(2)).as_f64(), 0.125e9 / 4.0);
        assert_eq!(d.path_bw(Endpoint::Host, a(2)).as_f64(), 0.125e9 / 4.0);
        assert_eq!(
            d.path_bw(a(0), a(2)).as_f64(),
            0.125e9 / 4.0,
            "relay bottleneck"
        );
        assert_eq!(
            d.path_bw(a(2), a(3)).as_f64(),
            1.0e9,
            "peer links unaffected"
        );
        assert_eq!(
            d.path_bw(Endpoint::Host, a(0)).as_f64(),
            0.125e9,
            "others untouched"
        );

        // A dead board loses its peer link; the surviving partner's
        // traffic falls back to the host relay.
        let mut dead = FaultState::healthy(4);
        dead.set_down(AccId::new(1));
        let d = t.degrade(&dead);
        assert!(
            d.peers().len() == 1 && d.peers()[0].0 == 2,
            "0-1 severed, 2-3 kept"
        );
        assert!(
            d.crosses_host(a(0), a(1)),
            "severed pair relays through the host"
        );

        // A degraded host NIC re-prices every via-host route at once;
        // peer links and board link rates are untouched.
        let mut nic = FaultState::healthy(4);
        nic.set_host_factor(5.0);
        let d = t.degrade(&nic);
        assert_eq!(d.host_nic().as_f64(), 0.125e9 / 5.0);
        assert_eq!(
            d.link(AccId::new(0)).as_f64(),
            0.125e9,
            "board links keep their rate"
        );
        assert_eq!(d.path_bw(Endpoint::Host, a(0)).as_f64(), 0.125e9 / 5.0);
        assert_eq!(
            d.path_bw(a(0), a(2)).as_f64(),
            0.125e9 / 5.0,
            "relay bottleneck"
        );
        assert_eq!(
            d.path_bw(a(0), a(1)).as_f64(),
            1.0e9,
            "peer route unaffected"
        );

        // A *down* host leaves rates untouched (liveness is enforced by
        // the sim/serve layers, not by zeroed bandwidths).
        let mut down = FaultState::healthy(4);
        down.set_host_down();
        let d = t.degrade(&down);
        assert_eq!(d.host_nic().as_f64(), t.host_nic().as_f64());
        assert_eq!(d.path_bw(Endpoint::Host, a(0)).as_f64(), 0.125e9);
    }

    #[test]
    fn describe_lists_links_and_routes() {
        let t = Topology::parse("switched", bw(0.125), 4).unwrap();
        let d = t.describe();
        assert!(d.contains("switched"));
        assert!(d.contains("A0 <-> A1 direct"));
        assert!(d.contains("route table"));
        assert!(d.contains('*'), "direct routes marked");
        let u = Topology::uniform_star(bw(0.125), 4).describe();
        assert!(u.contains("scalar-equivalent"));
    }
}
