//! Pluggable request-arrival processes for open-loop serving.
//!
//! The serving layer ([`crate::serve`]) drains each tenant's request
//! window against an *arrival schedule*: the time request `j` enters
//! the tenant's queue. Three processes are supported, all read through
//! [`ArrivalSchedule::arrival`] so the round loop is process-agnostic:
//!
//! * **Fixed** — the PR 4 deterministic clock,
//!   `arrival(j) = j / rate_hz`. This is the default and computes the
//!   *identical floating-point expression* the serve loop historically
//!   inlined, so deterministic serving stays bit-identical zoo-wide
//!   (the `serve_equiv` / `BENCH_serve.json` contracts).
//! * **Poisson** — seeded exponential inter-arrival gaps at the
//!   contract rate, sampled once at admission from the workspace's
//!   deterministic SplitMix64 shim (`rand`), so a given seed replays
//!   the same open-loop workload on every run.
//! * **Trace** — a recorded [`h2h_system::trace::ArrivalTrace`]
//!   replayed verbatim (absolute timestamps; the contract's `rate_hz`
//!   is ignored for timing and only scales SLO bookkeeping).
//!
//! [`ArrivalProcess`] is the *specification* (what a [`crate::serve::TenantSpec`]
//! carries, what `--arrivals fixed|poisson:SEED|trace:PATH` parses
//! into); [`ArrivalSchedule`] is the *materialization* a tenant
//! actually consults during the drain. Sampled processes materialize
//! to a validated monotone timestamp vector; the fixed process stays
//! closed-form.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use h2h_system::trace::ArrivalTrace;

/// What a tenant consults during the drain: the materialization of its
/// [`ArrivalProcess`] against its contract, with monotone non-decreasing
/// arrival times for requests `0..requests`.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalSchedule {
    /// The closed-form deterministic clock `j / rate_hz` (the default
    /// process).
    Fixed {
        /// Contract arrival rate (validated positive and finite).
        rate_hz: f64,
    },
    /// Explicit timestamps (Poisson draws or a trace prefix),
    /// validated monotone at materialization.
    Sampled(Vec<f64>),
}

impl ArrivalSchedule {
    /// Arrival time (seconds) of request `j`. Only `j` below the
    /// materialized request window may be queried. The fixed clock is
    /// bit-identical to the historical inline computation.
    pub fn arrival(&self, j: usize) -> f64 {
        match self {
            ArrivalSchedule::Fixed { rate_hz } => j as f64 / rate_hz,
            ArrivalSchedule::Sampled(times) => times[j],
        }
    }
}

/// Specification of a tenant's arrival process (what the CLI / bench
/// `--arrivals` grammar parses into and a `TenantSpec` carries).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ArrivalProcess {
    /// Deterministic `j / rate_hz` clock (default; bit-identical to
    /// the pre-streaming serve loop).
    #[default]
    Fixed,
    /// Seeded Poisson process at the contract rate: exponential
    /// inter-arrival gaps `-ln(1 - u) / rate_hz`, `u` drawn from
    /// SplitMix64 seeded with `seed`.
    Poisson {
        /// RNG seed; equal seeds replay equal workloads.
        seed: u64,
    },
    /// A recorded trace replayed verbatim (the contract window serves
    /// the first `requests` timestamps).
    Trace(ArrivalTrace),
}

impl ArrivalProcess {
    /// Stable label for reports and bench records (`fixed`,
    /// `poisson:SEED`, `trace(N)`).
    pub fn label(&self) -> String {
        match self {
            ArrivalProcess::Fixed => "fixed".into(),
            ArrivalProcess::Poisson { seed } => format!("poisson:{seed}"),
            ArrivalProcess::Trace(tr) => format!("trace({})", tr.len()),
        }
    }

    /// Parses the CLI grammar `fixed | poisson:SEED | trace:PATH`
    /// (the trace file is read and validated here).
    ///
    /// # Errors
    ///
    /// A human-readable reason on an unknown process name, an
    /// unparsable seed, or an unreadable/invalid trace file.
    pub fn parse(spec: &str) -> Result<Self, String> {
        if spec == "fixed" {
            return Ok(ArrivalProcess::Fixed);
        }
        if let Some(seed) = spec.strip_prefix("poisson:") {
            let seed: u64 = seed
                .parse()
                .map_err(|_| format!("poisson seed `{seed}` is not an unsigned integer"))?;
            return Ok(ArrivalProcess::Poisson { seed });
        }
        if let Some(path) = spec.strip_prefix("trace:") {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("trace file `{path}`: {e}"))?;
            let tr = ArrivalTrace::parse(&text).map_err(|e| format!("trace `{path}`: {e}"))?;
            return Ok(ArrivalProcess::Trace(tr));
        }
        Err(format!(
            "unknown arrival process `{spec}` (expected fixed | poisson:SEED | trace:PATH)"
        ))
    }

    /// Materializes the process against a contract: the schedule for
    /// requests `0..requests` at `rate_hz`. Sampled schedules are
    /// validated monotone non-decreasing, finite and non-negative.
    ///
    /// # Errors
    ///
    /// When a trace holds fewer than `requests` arrivals. (Poisson
    /// sampling cannot fail for a validated contract: gaps are
    /// `-ln(1-u)/rate` with `u ∈ [0,1)`, always finite and ≥ 0.)
    pub fn materialize(&self, rate_hz: f64, requests: usize) -> Result<ArrivalSchedule, String> {
        debug_assert!(
            rate_hz > 0.0 && rate_hz.is_finite(),
            "contract validated upstream"
        );
        match self {
            ArrivalProcess::Fixed => Ok(ArrivalSchedule::Fixed { rate_hz }),
            ArrivalProcess::Poisson { seed } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                let mut t = 0.0f64;
                let mut times = Vec::with_capacity(requests);
                for _ in 0..requests {
                    let u = rng.next_f64();
                    t += -(1.0 - u).ln() / rate_hz;
                    times.push(t);
                }
                Ok(ArrivalSchedule::Sampled(times))
            }
            ArrivalProcess::Trace(tr) => Ok(ArrivalSchedule::Sampled(tr.prefix(requests)?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_matches_the_inline_expression_bitwise() {
        let rate = 37.25f64;
        let sched = ArrivalProcess::Fixed.materialize(rate, 100).unwrap();
        for j in 0..100usize {
            // The exact expression the serve loop historically inlined.
            assert_eq!(sched.arrival(j).to_bits(), (j as f64 / rate).to_bits());
        }
    }

    #[test]
    fn poisson_is_seeded_monotone_and_rate_scaled() {
        let a = ArrivalProcess::Poisson { seed: 7 }
            .materialize(10.0, 200)
            .unwrap();
        let b = ArrivalProcess::Poisson { seed: 7 }
            .materialize(10.0, 200)
            .unwrap();
        assert_eq!(a, b, "equal seeds must replay equal workloads");
        let c = ArrivalProcess::Poisson { seed: 8 }
            .materialize(10.0, 200)
            .unwrap();
        assert_ne!(a, c, "different seeds must differ");
        let mut prev = 0.0;
        for j in 0..200 {
            let t = a.arrival(j);
            assert!(t.is_finite() && t >= prev, "arrival {j} = {t} not monotone");
            prev = t;
        }
        // Mean inter-arrival gap ≈ 1/rate over 200 draws (loose bound).
        let mean_gap = a.arrival(199) / 199.0;
        assert!(
            (0.05..0.2).contains(&mean_gap),
            "mean gap {mean_gap} far from 0.1"
        );
    }

    #[test]
    fn trace_prefix_replays_and_refuses_short_traces() {
        let tr = ArrivalTrace::new(vec![0.0, 0.5, 0.5, 2.0]).unwrap();
        let p = ArrivalProcess::Trace(tr.clone());
        let sched = p.materialize(100.0, 3).unwrap();
        assert_eq!(sched.arrival(2), 0.5);
        assert!(p.materialize(100.0, 5).is_err(), "short trace must refuse");
    }

    #[test]
    fn grammar_round_trips() {
        assert_eq!(
            ArrivalProcess::parse("fixed").unwrap(),
            ArrivalProcess::Fixed
        );
        assert_eq!(
            ArrivalProcess::parse("poisson:42").unwrap(),
            ArrivalProcess::Poisson { seed: 42 }
        );
        assert!(ArrivalProcess::parse("poisson:x").is_err());
        assert!(ArrivalProcess::parse("uniform").is_err());
        assert!(ArrivalProcess::parse("trace:/no/such/file").is_err());
        assert_eq!(ArrivalProcess::Poisson { seed: 9 }.label(), "poisson:9");
    }
}
