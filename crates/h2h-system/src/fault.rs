//! Fault model: timed board/link/host fault events and the
//! degraded-fabric view the repair pipeline searches against.
//!
//! Production fabrics are not the fabric the mapping was searched on:
//! boards die, links degrade, boards throttle, and the host NIC itself
//! can falter mid-serve. This module gives those events a first-class,
//! deterministic representation:
//!
//! * [`FaultEvent`] — one timed fault at an absolute onset `at` with an
//!   optional recovery time. The full [`FaultKind`] surface:
//!   - `board:IDX@T[-T2]` — [`FaultKind::BoardDown`], the board is
//!     offline;
//!   - `link:IDX/F@T[-T2]` — [`FaultKind::LinkDegraded`], the board's
//!     host link runs at `1/F`;
//!   - `slow:IDX/F@T[-T2]` — [`FaultKind::BoardDegraded`], the board
//!     computes at `1/F` speed (thermal throttle / partial
//!     reconfiguration) but stays placeable;
//!   - `host:F@T[-T2]` — [`FaultKind::HostDegraded`], the host NIC runs
//!     at `1/F`, re-pricing every via-host route and weight stream;
//!   - `host:down@T[-T2]` — [`FaultKind::HostDown`], the host is
//!     offline: via-host traffic, weight reloads, admissions and
//!     evictions stall, while peer-linked traffic and on-board compute
//!     survive.
//! * [`FaultPlan`] — an ordered set of events plus a parser
//!   ([`FaultPlan::parse`]) shared by the CLI/bench front ends.
//! * [`FaultState`] — the instantaneous condition of the fabric at one
//!   time ([`FaultPlan::state_at`]): a down mask, per-board link and
//!   compute slowdown factors, and the host's own condition. Applying a
//!   state to a fabric ([`crate::topology::Topology::degrade`] /
//!   [`crate::system::SystemSpec::degrade`]) rebuilds the route table
//!   with the degraded link and NIC rates and with peer links of dead
//!   boards severed — cheap (O(n²) on a handful of boards) and exact: a
//!   healthy state returns a bitwise-identical fabric. Compute
//!   slowdowns ride on the degraded [`crate::system::SystemSpec`] and
//!   are applied at cost-*read* time, so a healthy-system
//!   [`crate::schedule::CostCache`] stays valid on every degraded view.
//!
//! The event simulator replays a timeline through the fault window
//! ([`crate::sim::simulate_with_faults`]); the mapping-repair path in
//! `h2h-core` uses [`FaultState`] to evacuate dead boards and re-price
//! every route-crossing edge on the degraded fabric. An empty plan is
//! the no-fault fast path everywhere — bit-identical to the historical
//! code paths, asserted zoo-wide — and plans using only the original
//! board/link kinds reproduce the pre-host-fault behavior bitwise.

use h2h_model::units::Seconds;

use crate::system::AccId;

/// What went wrong with one board's attachment to the fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The board is offline: it computes nothing and its pinned weights
    /// are stranded. Its peer links are severed; host-relayed data
    /// already produced remains reachable (the host keeps the copies it
    /// relayed).
    BoardDown,
    /// The board's host link runs at `1/factor` of its healthy rate
    /// (`factor > 1`). Direct peer links are unaffected.
    LinkDegraded {
        /// Slowdown divisor applied to the host link rate.
        factor: f64,
    },
    /// The board computes at `1/factor` of its healthy speed
    /// (`factor > 1`) — a thermal throttle or partial reconfiguration.
    /// The board stays placeable; only its compute phases stretch
    /// (transfers and DRAM traffic are unaffected).
    BoardDegraded {
        /// Slowdown divisor applied to per-layer compute times.
        factor: f64,
    },
    /// The host NIC runs at `1/factor` of its healthy rate
    /// (`factor > 1`): every via-host route and weight stream
    /// re-prices. Host-scoped — the event's `acc` field is ignored.
    HostDegraded {
        /// Slowdown divisor applied to the host NIC rate.
        factor: f64,
    },
    /// The host is offline: via-host transfers, weight reloads,
    /// admissions and evictions stall until recovery, while peer-linked
    /// traffic and on-board compute survive. Host-scoped — the event's
    /// `acc` field is ignored. Fabric rates are left untouched
    /// (liveness is enforced by the sim and the serve loop, not by
    /// zeroed bandwidths).
    HostDown,
}

impl FaultKind {
    /// Whether this kind affects the host rather than one board (the
    /// event's `acc` field is then a placeholder).
    pub fn is_host_scoped(self) -> bool {
        matches!(self, FaultKind::HostDegraded { .. } | FaultKind::HostDown)
    }
}

/// One timed fault event, optionally recovering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// The affected board. Host-scoped kinds
    /// ([`FaultKind::is_host_scoped`]) ignore it; use `AccId::new(0)`
    /// as the conventional placeholder.
    pub acc: AccId,
    /// What happens to it.
    pub kind: FaultKind,
    /// Absolute onset time (seconds on the serve/sim clock).
    pub at: Seconds,
    /// Absolute recovery time; `None` means the fault persists.
    pub recover_at: Option<Seconds>,
}

impl FaultEvent {
    /// Whether this event is in force at time `t` (`at <= t`, and
    /// before recovery when one is scheduled).
    pub fn active_at(&self, t: Seconds) -> bool {
        self.at <= t && self.recover_at.is_none_or(|r| t < r)
    }
}

/// A deterministic fault schedule: the full set of timed events one
/// serve window (or one simulation) replays through.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan — the no-fault fast path.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// A single permanent board outage at `at`.
    pub fn board_down(acc: AccId, at: Seconds) -> Self {
        FaultPlan {
            events: vec![FaultEvent { acc, kind: FaultKind::BoardDown, at, recover_at: None }],
        }
    }

    /// Appends an event (builder style).
    pub fn with_event(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when no event is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Every time at which the fault state can change (onsets and
    /// recoveries), sorted ascending and deduplicated.
    pub fn boundaries(&self) -> Vec<f64> {
        let mut times: Vec<f64> = self
            .events
            .iter()
            .flat_map(|e| [Some(e.at), e.recover_at])
            .flatten()
            .map(Seconds::as_f64)
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("fault times are finite"));
        times.dedup();
        times
    }

    /// The instantaneous fabric condition at time `t` over `n_accs`
    /// boards: each active event contributes its down bit / slowdown
    /// factor (factors of stacked events on one board — or on the host
    /// — multiply).
    pub fn state_at(&self, t: Seconds, n_accs: usize) -> FaultState {
        let mut state = FaultState::healthy(n_accs);
        for e in self.events.iter().filter(|e| e.active_at(t)) {
            let i = e.acc.index();
            match e.kind {
                FaultKind::BoardDown => state.down[i] = true,
                FaultKind::LinkDegraded { factor } => state.link_factor[i] *= factor,
                FaultKind::BoardDegraded { factor } => state.compute_factor[i] *= factor,
                FaultKind::HostDegraded { factor } => state.host_factor *= factor,
                FaultKind::HostDown => state.host_down = true,
            }
        }
        state
    }

    /// Parses a fault spec string against the board count. Events are
    /// `;`-separated; accepted forms:
    ///
    /// * `board:IDX@T` / `board:IDX@T-T2` — board `IDX` down from `T`
    ///   seconds, optionally recovering at `T2`;
    /// * `link:IDX/F@T` / `link:IDX/F@T-T2` — board `IDX`'s host link
    ///   degraded to `1/F` of its rate (`F > 1`) from `T`, optionally
    ///   recovering at `T2`;
    /// * `slow:IDX/F@T` / `slow:IDX/F@T-T2` — board `IDX` computing at
    ///   `1/F` speed (`F > 1`) from `T`, optionally recovering at `T2`;
    /// * `host:F@T` / `host:F@T-T2` — the host NIC degraded to `1/F` of
    ///   its rate (`F > 1`);
    /// * `host:down@T` / `host:down@T-T2` — the host offline.
    ///
    /// Host windows must not overlap one another: a timeline where two
    /// host events are simultaneously in force is almost always a typo
    /// (and a down host makes a concurrent NIC slowdown meaningless),
    /// so the parser rejects it. Programmatic plans built with
    /// [`FaultPlan::with_event`] are not restricted.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed specs: unknown
    /// event kinds, out-of-range board indices, factors not above 1,
    /// negative or non-finite times, recoveries not after onsets,
    /// overlapping host windows.
    pub fn parse(spec: &str, n_accs: usize) -> Result<FaultPlan, String> {
        let secs = |s: &str| -> Result<Seconds, String> {
            let v: f64 =
                s.trim().parse().map_err(|_| format!("bad time `{s}` (seconds expected)"))?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!("time `{s}` must be non-negative and finite"));
            }
            Ok(Seconds::new(v))
        };
        let window = |s: &str| -> Result<(Seconds, Option<Seconds>), String> {
            // Onset and recovery split at the first `-` that is not an
            // exponent's sign, so `1e-6` is one time.
            let dash = s
                .match_indices('-')
                .map(|(i, _)| i)
                .find(|&i| !s[..i].ends_with(['e', 'E']));
            let (at, recover_at) = match dash {
                Some(i) => (secs(&s[..i])?, Some(secs(&s[i + 1..])?)),
                None => (secs(s)?, None),
            };
            if let Some(r) = recover_at {
                if r <= at {
                    return Err(format!("recovery `{}` must be after onset `{}`", r, at));
                }
            }
            Ok((at, recover_at))
        };
        let board = |s: &str| -> Result<AccId, String> {
            let idx: usize =
                s.trim().parse().map_err(|_| format!("bad board index `{s}`"))?;
            if idx >= n_accs {
                return Err(format!("board {idx} out of range for {n_accs} accelerators"));
            }
            Ok(AccId::new(idx))
        };
        let mut plan = FaultPlan::empty();
        for event in spec.split(';').filter(|e| !e.is_empty()) {
            let (kind, rest) = event
                .split_once(':')
                .ok_or_else(|| format!("event `{event}` is not kind:…"))?;
            match kind {
                "board" => {
                    let (idx, times) = rest
                        .split_once('@')
                        .ok_or_else(|| format!("board event `{rest}` is not IDX@T[-T2]"))?;
                    let acc = board(idx)?;
                    let (at, recover_at) = window(times)?;
                    plan.events.push(FaultEvent {
                        acc,
                        kind: FaultKind::BoardDown,
                        at,
                        recover_at,
                    });
                }
                "link" | "slow" => {
                    let (target, times) = rest
                        .split_once('@')
                        .ok_or_else(|| format!("{kind} event `{rest}` is not IDX/F@T[-T2]"))?;
                    let (idx, factor) = target
                        .split_once('/')
                        .ok_or_else(|| format!("{kind} target `{target}` is not IDX/F"))?;
                    let acc = board(idx)?;
                    let f: f64 = factor
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad slowdown factor `{factor}`"))?;
                    if !f.is_finite() || f <= 1.0 {
                        return Err("slowdown factor must be finite and exceed 1".into());
                    }
                    let (at, recover_at) = window(times)?;
                    let kind = if kind == "link" {
                        FaultKind::LinkDegraded { factor: f }
                    } else {
                        FaultKind::BoardDegraded { factor: f }
                    };
                    plan.events.push(FaultEvent { acc, kind, at, recover_at });
                }
                "host" => {
                    let (what, times) = rest
                        .split_once('@')
                        .ok_or_else(|| format!("host event `{rest}` is not F@T[-T2] or down@T[-T2]"))?;
                    let kind = if what.trim() == "down" {
                        FaultKind::HostDown
                    } else {
                        let f: f64 = what
                            .trim()
                            .parse()
                            .map_err(|_| format!("bad slowdown factor `{what}`"))?;
                        if !f.is_finite() || f <= 1.0 {
                            return Err("slowdown factor must be finite and exceed 1".into());
                        }
                        FaultKind::HostDegraded { factor: f }
                    };
                    let (at, recover_at) = window(times)?;
                    plan.events.push(FaultEvent {
                        acc: AccId::new(0),
                        kind,
                        at,
                        recover_at,
                    });
                }
                other => {
                    return Err(format!(
                        "unknown fault kind `{other}` (board:IDX@T[-T2] | link:IDX/F@T[-T2] | \
                         slow:IDX/F@T[-T2] | host:F@T[-T2] | host:down@T[-T2])"
                    ))
                }
            }
        }
        if plan.is_empty() {
            return Err("fault spec contains no events".into());
        }
        let hosts: Vec<&FaultEvent> =
            plan.events.iter().filter(|e| e.kind.is_host_scoped()).collect();
        for (i, a) in hosts.iter().enumerate() {
            for b in &hosts[i + 1..] {
                let a_end = a.recover_at.map_or(f64::INFINITY, Seconds::as_f64);
                let b_end = b.recover_at.map_or(f64::INFINITY, Seconds::as_f64);
                if a.at.as_f64() < b_end && b.at.as_f64() < a_end {
                    return Err(format!(
                        "host fault windows overlap (onsets `{}` and `{}`) — host events \
                         must not be simultaneously in force",
                        a.at, b.at
                    ));
                }
            }
        }
        Ok(plan)
    }
}

/// The instantaneous condition of the fabric: a board down mask,
/// per-board host-link and compute slowdown factors (`1.0` = healthy),
/// plus the host's own condition (down flag and NIC slowdown).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultState {
    down: Vec<bool>,
    link_factor: Vec<f64>,
    compute_factor: Vec<f64>,
    host_down: bool,
    host_factor: f64,
}

impl FaultState {
    /// All boards up, all links at full rate.
    pub fn healthy(n_accs: usize) -> Self {
        FaultState {
            down: vec![false; n_accs],
            link_factor: vec![1.0; n_accs],
            compute_factor: vec![1.0; n_accs],
            host_down: false,
            host_factor: 1.0,
        }
    }

    /// Number of boards this state describes.
    pub fn num_accs(&self) -> usize {
        self.down.len()
    }

    /// True when nothing is down and nothing is degraded.
    pub fn is_healthy(&self) -> bool {
        !self.down.iter().any(|d| *d)
            && self.link_factor.iter().all(|f| *f == 1.0)
            && self.compute_factor.iter().all(|f| *f == 1.0)
            && !self.host_down
            && self.host_factor == 1.0
    }

    /// Whether a board is up (alive, possibly with a degraded link).
    pub fn acc_is_up(&self, acc: AccId) -> bool {
        !self.down[acc.index()]
    }

    /// The host-link slowdown divisor of one board (`1.0` = healthy).
    pub fn link_factor(&self, acc: AccId) -> f64 {
        self.link_factor[acc.index()]
    }

    /// Marks a board down (test/constructor convenience).
    pub fn set_down(&mut self, acc: AccId) {
        self.down[acc.index()] = true;
    }

    /// Sets a board's link slowdown divisor.
    pub fn set_link_factor(&mut self, acc: AccId, factor: f64) {
        assert!(factor.is_finite() && factor >= 1.0, "slowdown factor must be >= 1");
        self.link_factor[acc.index()] = factor;
    }

    /// The compute slowdown divisor of one board (`1.0` = full speed).
    pub fn compute_factor(&self, acc: AccId) -> f64 {
        self.compute_factor[acc.index()]
    }

    /// Sets a board's compute slowdown divisor.
    pub fn set_compute_factor(&mut self, acc: AccId, factor: f64) {
        assert!(factor.is_finite() && factor >= 1.0, "slowdown factor must be >= 1");
        self.compute_factor[acc.index()] = factor;
    }

    /// True when any board is compute-throttled.
    pub fn any_compute_degraded(&self) -> bool {
        self.compute_factor.iter().any(|f| *f != 1.0)
    }

    /// Whether the host is reachable (its NIC may still be degraded).
    pub fn host_is_up(&self) -> bool {
        !self.host_down
    }

    /// The host NIC slowdown divisor (`1.0` = full rate).
    pub fn host_factor(&self) -> f64 {
        self.host_factor
    }

    /// Marks the host down (test/constructor convenience).
    pub fn set_host_down(&mut self) {
        self.host_down = true;
    }

    /// Sets the host NIC slowdown divisor.
    pub fn set_host_factor(&mut self, factor: f64) {
        assert!(factor.is_finite() && factor >= 1.0, "slowdown factor must be >= 1");
        self.host_factor = factor;
    }

    /// Boards currently down, ascending.
    pub fn down_accs(&self) -> impl Iterator<Item = AccId> + '_ {
        self.down
            .iter()
            .enumerate()
            .filter(|(_, d)| **d)
            .map(|(i, _)| AccId::new(i))
    }
}

/// Strips a `--faults <spec>` flag (and its value) out of a raw
/// argv-style list, shared by the CLI front ends (mirrors
/// [`crate::topology::take_topology_flag`]).
///
/// # Errors
///
/// Errors when the flag is present without a value.
pub fn take_faults_flag(args: &mut Vec<String>) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == "--faults") else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err("--faults needs a value".into());
    }
    let spec = args.remove(pos + 1);
    args.remove(pos);
    Ok(Some(spec))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_board_and_link_events() {
        let plan = FaultPlan::parse("board:3@2.5;link:1/4@0.5-2", 12).unwrap();
        assert_eq!(plan.events().len(), 2);
        assert_eq!(plan.events()[0].acc, AccId::new(3));
        assert!(matches!(plan.events()[0].kind, FaultKind::BoardDown));
        assert_eq!(plan.events()[0].at, Seconds::new(2.5));
        assert_eq!(plan.events()[0].recover_at, None);
        assert!(
            matches!(plan.events()[1].kind, FaultKind::LinkDegraded { factor } if factor == 4.0)
        );
        assert_eq!(plan.events()[1].recover_at, Some(Seconds::new(2.0)));
        assert_eq!(plan.boundaries(), vec![0.5, 2.0, 2.5]);
    }

    #[test]
    fn parse_accepts_host_and_slow_events() {
        let plan =
            FaultPlan::parse("slow:2/3@1-4;host:2.5@5-6;host:down@7", 12).unwrap();
        assert_eq!(plan.events().len(), 3);
        assert!(
            matches!(plan.events()[0].kind, FaultKind::BoardDegraded { factor } if factor == 3.0)
        );
        assert_eq!(plan.events()[0].acc, AccId::new(2));
        assert!(
            matches!(plan.events()[1].kind, FaultKind::HostDegraded { factor } if factor == 2.5)
        );
        assert!(plan.events()[1].kind.is_host_scoped());
        assert!(matches!(plan.events()[2].kind, FaultKind::HostDown));
        assert_eq!(plan.events()[2].recover_at, None);
        assert_eq!(plan.boundaries(), vec![1.0, 4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn parse_accepts_times_with_negative_exponents() {
        let plan = FaultPlan::parse("board:0@1e-6;board:0@1e-3-2e-3;link:1/4@2e-1-3", 12).unwrap();
        let windows: Vec<_> = plan.events().iter().map(|e| (e.at, e.recover_at)).collect();
        assert_eq!(
            windows,
            vec![
                (Seconds::new(1e-6), None),
                (Seconds::new(1e-3), Some(Seconds::new(2e-3))),
                (Seconds::new(0.2), Some(Seconds::new(3.0))),
            ]
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        let cases: &[(&str, &str)] = &[
            ("", "no events"),
            ("pause:1@2", "unknown fault kind"),
            ("board:12@1", "out of range"),
            ("board:x@1", "bad board index"),
            ("board:1", "not IDX@T"),
            ("board:1@-2", "bad time"),
            ("board:1@nan", "non-negative and finite"),
            ("board:1@3-2", "must be after onset"),
            ("board:1@3-3", "must be after onset"),
            ("link:1@2", "not IDX/F"),
            ("link:1/1@2", "exceed 1"),
            ("link:1/0.5@2", "exceed 1"),
            ("link:1/inf@2", "finite"),
            ("link:1/x@2", "bad slowdown factor"),
            ("slow:1@2", "not IDX/F"),
            ("slow:12/2@1", "out of range"),
            ("slow:1/1@2", "exceed 1"),
            ("slow:1/x@2", "bad slowdown factor"),
            ("host:2", "not F@T"),
            ("host:1@2", "exceed 1"),
            ("host:0.5@2", "exceed 1"),
            ("host:inf@2", "finite"),
            ("host:x@2", "bad slowdown factor"),
            ("host:down@3-2", "must be after onset"),
            ("host:2@1-5;host:down@3", "host fault windows overlap"),
            ("host:down@1;host:3@4-5", "host fault windows overlap"),
            ("host:2@1-3;host:2@1-3", "host fault windows overlap"),
        ];
        for (spec, needle) in cases {
            let err = FaultPlan::parse(spec, 12).unwrap_err();
            assert!(err.contains(needle), "`{spec}`: `{err}` lacks `{needle}`");
        }
        // Back-to-back host windows (recovery == next onset) do not
        // overlap: recovery is exclusive.
        assert!(FaultPlan::parse("host:2@1-3;host:down@3-4", 12).is_ok());
    }

    #[test]
    fn state_at_tracks_windows_and_stacks_factors() {
        let plan = FaultPlan::parse("board:0@1-3;link:2/2@0;link:2/3@2-4", 4).unwrap();
        let at = |t: f64| plan.state_at(Seconds::new(t), 4);
        assert!(at(0.5).acc_is_up(AccId::new(0)));
        assert!(!at(1.0).acc_is_up(AccId::new(0)), "onset is inclusive");
        assert!(at(3.0).acc_is_up(AccId::new(0)), "recovery is exclusive");
        assert_eq!(at(0.0).link_factor(AccId::new(2)), 2.0);
        assert_eq!(at(2.5).link_factor(AccId::new(2)), 6.0, "stacked factors multiply");
        assert_eq!(at(4.0).link_factor(AccId::new(2)), 2.0);
        assert!(!at(2.0).is_healthy());
        assert!(FaultPlan::empty().state_at(Seconds::new(9.0), 4).is_healthy());
    }

    #[test]
    fn state_at_tracks_host_and_compute_windows() {
        let plan =
            FaultPlan::parse("slow:1/2@0-9;slow:1/3@2-4;host:4@1-2;host:down@2-3", 4)
                .unwrap();
        let at = |t: f64| plan.state_at(Seconds::new(t), 4);
        assert_eq!(at(0.5).compute_factor(AccId::new(1)), 2.0);
        assert_eq!(at(3.0).compute_factor(AccId::new(1)), 6.0, "stacked factors multiply");
        assert!(at(3.0).any_compute_degraded());
        assert_eq!(at(9.0).compute_factor(AccId::new(1)), 1.0);
        assert_eq!(at(1.5).host_factor(), 4.0);
        assert!(at(1.5).host_is_up());
        assert_eq!(at(2.5).host_factor(), 1.0);
        assert!(!at(2.5).host_is_up(), "down window replaces the NIC slowdown");
        assert!(at(2.5).acc_is_up(AccId::new(0)), "host events leave boards up");
        assert!(at(3.5).host_is_up());
        assert!(!at(3.5).is_healthy(), "the compute throttle is still in force");
        assert!(at(9.5).is_healthy());
    }

    #[test]
    fn take_faults_flag_strips_the_pair() {
        let mut args: Vec<String> =
            ["serve", "--faults", "board:1@2", "mocap"].map(String::from).to_vec();
        assert_eq!(take_faults_flag(&mut args).unwrap().as_deref(), Some("board:1@2"));
        assert_eq!(args, ["serve", "mocap"]);
        let mut dangling: Vec<String> = ["serve", "--faults"].map(String::from).to_vec();
        assert!(take_faults_flag(&mut dangling).is_err());
        let mut none: Vec<String> = ["serve"].map(String::from).to_vec();
        assert_eq!(take_faults_flag(&mut none).unwrap(), None);
    }
}
