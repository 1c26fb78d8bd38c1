//! Trace I/O: Chrome trace-event **export** of a mapped schedule
//! (open in `chrome://tracing` / Perfetto — one track per accelerator,
//! one complete event per layer, phase breakdown in `args`) and
//! replayable request-arrival **import** ([`ArrivalTrace`]) for the
//! open-loop serving layer (`h2h_core::serve`): one absolute arrival
//! timestamp per line, validated monotone, replayed bit-identically.

use h2h_model::graph::ModelGraph;
use h2h_model::units::Seconds;

use crate::mapping::Mapping;
use crate::schedule::Schedule;
use crate::system::SystemSpec;

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn micros(s: Seconds) -> f64 {
    s.as_f64() * 1e6
}

/// Renders the schedule as a Chrome trace-event JSON document.
///
/// ```
/// use h2h_system::trace::to_chrome_trace;
/// use h2h_system::{Evaluator, LocalityState, Mapping};
/// use h2h_system::system::{BandwidthClass, SystemSpec};
///
/// let model = h2h_model::zoo::mocap();
/// let system = SystemSpec::standard(BandwidthClass::Mid);
/// let mut mapping = Mapping::new(&model);
/// for (id, layer) in model.layers() {
///     let acc = system.acc_ids().find(|a| system.acc(*a).supports(layer)).unwrap();
///     mapping.set(id, acc);
/// }
/// let schedule = Evaluator::new(&model, &system)
///     .evaluate(&mapping, &LocalityState::new(&system));
/// let json = to_chrome_trace(&model, &system, &mapping, &schedule);
/// assert!(json.contains("traceEvents"));
/// ```
pub fn to_chrome_trace(
    model: &ModelGraph,
    system: &SystemSpec,
    mapping: &Mapping,
    schedule: &Schedule,
) -> String {
    let mut events = Vec::new();
    // Track names.
    for acc in system.acc_ids() {
        let meta = system.acc(acc).meta();
        events.push(format!(
            r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{},"args":{{"name":"{} ({})"}}}}"#,
            acc.index(),
            esc(&meta.id),
            esc(&meta.fpga)
        ));
    }
    // Layer executions.
    for id in model.layer_ids() {
        let Some(t) = schedule.timing(id) else {
            continue;
        };
        let layer = model.layer(id);
        let acc = mapping.acc_of(id);
        events.push(format!(
            concat!(
                r#"{{"name":"{}","cat":"{:?}","ph":"X","pid":0,"tid":{},"ts":{:.3},"dur":{:.3},"#,
                r#""args":{{"weight_xfer_us":{:.3},"ifm_xfer_us":{:.3},"compute_us":{:.3},"ofm_xfer_us":{:.3}}}}}"#
            ),
            esc(layer.name()),
            layer.class(),
            acc.index(),
            micros(t.start),
            micros(t.finish - t.start),
            micros(t.weight_xfer),
            micros(t.ifm_xfer),
            micros(t.compute),
            micros(t.ofm_xfer),
        ));
    }
    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
        events.join(",\n")
    )
}

/// A replayable request-arrival trace: absolute arrival timestamps in
/// seconds, validated finite, non-negative and monotone non-decreasing
/// at construction. The serving layer replays a prefix of the trace as
/// one tenant's arrival process, so a recorded production workload (or
/// a hand-written worst case) drives the open-loop drain exactly the
/// same way on every machine.
///
/// The text format is one timestamp per line; blank lines and lines
/// starting with `#` are ignored:
///
/// ```text
/// # bursty: three requests at t=0, then a gap
/// 0.0
/// 0.0
/// 0.0
/// 2.5
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalTrace {
    times: Vec<f64>,
}

impl ArrivalTrace {
    /// Builds a trace from raw timestamps, validating every invariant
    /// the serving clock depends on.
    ///
    /// # Errors
    ///
    /// A human-readable reason when some timestamp is non-finite,
    /// negative, or decreasing, or when the trace is empty.
    pub fn new(times: Vec<f64>) -> Result<Self, String> {
        if times.is_empty() {
            return Err("arrival trace is empty".into());
        }
        let mut prev = 0.0f64;
        for (i, t) in times.iter().enumerate() {
            if !t.is_finite() || *t < 0.0 {
                return Err(format!(
                    "arrival {i} is {t} — timestamps must be finite and non-negative"
                ));
            }
            if *t < prev {
                return Err(format!(
                    "arrival {i} at {t}s precedes arrival {} at {prev}s — \
                     the trace must be monotone non-decreasing",
                    i - 1
                ));
            }
            prev = *t;
        }
        Ok(ArrivalTrace { times })
    }

    /// Parses the one-timestamp-per-line text format (`#` comments and
    /// blank lines ignored).
    ///
    /// # Errors
    ///
    /// A reason naming the offending line on unparsable text, plus
    /// everything [`ArrivalTrace::new`] rejects.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut times = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let t: f64 = line
                .parse()
                .map_err(|_| format!("line {}: `{line}` is not a timestamp", lineno + 1))?;
            times.push(t);
        }
        ArrivalTrace::new(times)
    }

    /// Number of arrivals recorded.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when the trace holds no arrivals (unreachable for
    /// validated traces; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The validated timestamps.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The first `n` arrivals as an owned schedule.
    ///
    /// # Errors
    ///
    /// When the trace holds fewer than `n` arrivals.
    pub fn prefix(&self, n: usize) -> Result<Vec<f64>, String> {
        if self.times.len() < n {
            return Err(format!(
                "trace holds {} arrivals but the contract needs {n}",
                self.times.len()
            ));
        }
        Ok(self.times[..n].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locality::LocalityState;
    use crate::schedule::Evaluator;
    use crate::system::BandwidthClass;

    fn traced() -> String {
        let model = h2h_model::zoo::cnn_lstm();
        let system = SystemSpec::standard(BandwidthClass::Mid);
        let mut mapping = Mapping::new(&model);
        for (id, layer) in model.layers() {
            let acc = system
                .acc_ids()
                .find(|a| system.acc(*a).supports(layer))
                .unwrap();
            mapping.set(id, acc);
        }
        let schedule =
            Evaluator::new(&model, &system).evaluate(&mapping, &LocalityState::new(&system));
        to_chrome_trace(&model, &system, &mapping, &schedule)
    }

    #[test]
    fn trace_is_valid_json_with_all_layers() {
        let json = traced();
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = v["traceEvents"].as_array().expect("array");
        let model = h2h_model::zoo::cnn_lstm();
        let complete = events.iter().filter(|e| e["ph"] == "X").count();
        assert_eq!(complete, model.num_layers());
        // Metadata events name every accelerator track.
        let meta = events.iter().filter(|e| e["ph"] == "M").count();
        assert_eq!(meta, 12);
    }

    #[test]
    fn arrival_trace_parses_validates_and_prefixes() {
        let tr = ArrivalTrace::parse("# burst\n0.0\n0.0\n\n2.5\n3.25\n").unwrap();
        assert_eq!(tr.len(), 4);
        assert_eq!(tr.times(), &[0.0, 0.0, 2.5, 3.25]);
        assert_eq!(tr.prefix(2).unwrap(), vec![0.0, 0.0]);
        assert!(tr.prefix(5).is_err(), "prefix beyond the trace must refuse");

        assert!(ArrivalTrace::parse("").is_err(), "empty trace");
        assert!(ArrivalTrace::parse("1.0\nnope\n").is_err(), "bad line");
        assert!(ArrivalTrace::new(vec![1.0, 0.5]).is_err(), "decreasing");
        assert!(ArrivalTrace::new(vec![-1.0]).is_err(), "negative");
        assert!(ArrivalTrace::new(vec![f64::NAN]).is_err(), "NaN");
        assert!(ArrivalTrace::new(vec![f64::INFINITY]).is_err(), "infinite");
    }

    #[test]
    fn durations_are_nonnegative_and_phased() {
        let json = traced();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        for e in v["traceEvents"].as_array().unwrap() {
            if e["ph"] == "X" {
                assert!(e["dur"].as_f64().unwrap() >= 0.0);
                let args = &e["args"];
                let sum = args["weight_xfer_us"].as_f64().unwrap()
                    + args["ifm_xfer_us"].as_f64().unwrap()
                    + args["compute_us"].as_f64().unwrap()
                    + args["ofm_xfer_us"].as_f64().unwrap();
                let dur = e["dur"].as_f64().unwrap();
                assert!((sum - dur).abs() < 1e-3, "phases {sum} vs dur {dur}");
            }
        }
    }
}
