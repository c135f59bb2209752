//! The `rlckit-serve` wire protocol: one JSON object per line, in and
//! out.
//!
//! # Requests
//!
//! Every request carries an `"id"` (echoed verbatim in the response)
//! and an `"op"`:
//!
//! | op | answers | extra fields |
//! |---|---|---|
//! | `optimum` | optimal `(h, k)` configuration | — |
//! | `route_delay` | total delay of an optimally-buffered route | `length_m` or `length_mm` |
//! | `lcrit` | critical inductance at the optimum (Eq. 4) | — |
//! | `stats` | memo/served counters + latency percentiles (barrier) | — |
//! | `trace` | live snapshot: counters, percentiles, slowest traces, in-flight, uptime | — |
//!
//! `stats` is a pipeline barrier and therefore deterministic (its
//! `*_ns` fields aside); `trace` is answered immediately by the router
//! as a *live* observability snapshot — its in-flight count and
//! slowest-request ranking reflect scheduling and are explicitly
//! outside the byte-identity contract.
//!
//! The line and driver are specified either from a named NTRS node —
//! `"node"`: `"250nm"`, `"100nm"` or `"100nm_eps33"` — plus the swept
//! inductance (`l_nh_mm` or `l_h_per_m`), or from raw SI fields
//! (`r_ohm_per_m`, `c_f_per_m`, `rs_ohm`, `cp_f`, `c0_f`), which also
//! override individual node defaults. `threshold` (default 0.5) selects
//! the delay threshold `f`.
//!
//! ```text
//! {"id":1,"op":"optimum","node":"100nm","l_nh_mm":1.8}
//! {"id":2,"op":"route_delay","node":"100nm","l_nh_mm":1.8,"length_mm":30}
//! ```
//!
//! # Responses
//!
//! All responses echo `id` and `op` and carry `"ok"`. Successful query
//! responses add `"source"`: `"memo"` (served from the sharded memo,
//! bit-identical to the first answer for the quantized key) or
//! `"solve"` (computed now, and inserted). Floating-point values are
//! printed with Rust's shortest-round-trip formatting, so equal bits
//! always produce equal bytes — the two-run byte-identity the tier-1
//! serve smoke asserts hangs off this.

use std::borrow::Cow;
use std::sync::OnceLock;

use rlckit::optimizer::OptimizerOptions;
use rlckit::optimizer::RlcOptimum;
use rlckit::memo::Served;
use rlckit_tech::{DriverParams, LineParams, TechNode};
use rlckit_tline::LineRlc;
use rlckit_units::{FaradsPerMeter, HenriesPerMeter, Meters, OhmsPerMeter, Seconds};

/// A parsed scalar JSON value — all the protocol's flat objects need.
/// Strings borrow from the request line unless they carry an escape.
#[derive(Debug, Clone, PartialEq)]
enum Value<'a> {
    Num(f64),
    Str(Cow<'a, str>),
    Bool(bool),
    Null,
}

/// One parsed `(key, value)` pair, borrowing from the request line.
type Field<'a> = (Cow<'a, str>, Value<'a>);

/// Splits one flat JSON object line into `(key, value)` pairs. Strict
/// about structure (quotes, escapes, commas), intolerant of nesting —
/// the protocol is flat by design, and rejecting nesting keeps a
/// hostile payload from smuggling fields. Byte positions in messages
/// count from just inside the opening brace.
fn parse_object(line: &str) -> Result<Vec<Field<'_>>, String> {
    let line = line.trim();
    if !line.starts_with('{') || !line.ends_with('}') {
        return Err("request is not a JSON object".into());
    }
    let text = &line[1..line.len() - 1];
    let bytes = text.as_bytes();
    let mut fields: Vec<Field<'_>> = Vec::with_capacity(8);
    let mut pos = 0usize;
    let skip_ws = |mut p: usize| {
        while matches!(bytes.get(p), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            p += 1;
        }
        p
    };
    loop {
        pos = skip_ws(pos);
        if pos == bytes.len() {
            if fields.is_empty() {
                break; // {} is a valid (empty) object
            }
            return Err("trailing comma".into());
        }
        let (key, next) = parse_string(text, pos)?;
        pos = skip_ws(next);
        if bytes.get(pos) != Some(&b':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        pos = skip_ws(pos + 1);
        let (value, next) = parse_value(text, pos)?;
        if fields.iter().any(|(k, _)| *k == key) {
            return Err(format!("duplicate field {key:?}"));
        }
        fields.push((key, value));
        pos = skip_ws(next);
        match bytes.get(pos) {
            None => break,
            Some(b',') => pos += 1,
            Some(_) => return Err("expected ',' between fields".into()),
        }
    }
    Ok(fields)
}

/// Parses a quoted string starting at byte `pos` of `text`; returns it
/// and the position after the closing quote. A string without escapes
/// is a slice of `text`; one with escapes is copied run by run.
fn parse_string(text: &str, pos: usize) -> Result<(Cow<'_, str>, usize), String> {
    let bytes = text.as_bytes();
    if bytes.get(pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    let mut unescaped: Option<String> = None;
    // Every byte tested below is ASCII, so `run..p` always falls on
    // UTF-8 boundaries.
    let mut run = pos + 1;
    let mut p = run;
    loop {
        match bytes.get(p) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                let tail = &text[run..p];
                let out = match unescaped {
                    None => Cow::Borrowed(tail),
                    Some(mut out) => {
                        out.push_str(tail);
                        Cow::Owned(out)
                    }
                };
                return Ok((out, p + 1));
            }
            Some(b'\\') => {
                let out = unescaped.get_or_insert_with(String::new);
                out.push_str(&text[run..p]);
                out.push(match bytes.get(p + 1) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'n') => '\n',
                    Some(b't') => '\t',
                    Some(b'r') => '\r',
                    _ => return Err("unsupported escape".into()),
                });
                p += 2;
                run = p;
            }
            Some(&c) if c < 0x20 => return Err("control byte in string".into()),
            Some(_) => p += 1,
        }
    }
}

fn parse_value(text: &str, pos: usize) -> Result<(Value<'_>, usize), String> {
    let bytes = text.as_bytes();
    match bytes.get(pos) {
        Some(b'"') => parse_string(text, pos).map(|(s, p)| (Value::Str(s), p)),
        Some(b't') if bytes[pos..].starts_with(b"true") => Ok((Value::Bool(true), pos + 4)),
        Some(b'f') if bytes[pos..].starts_with(b"false") => Ok((Value::Bool(false), pos + 5)),
        Some(b'n') if bytes[pos..].starts_with(b"null") => Ok((Value::Null, pos + 4)),
        Some(b'{' | b'[') => Err("nested containers are not part of the protocol".into()),
        Some(_) => {
            let mut p = pos;
            while bytes
                .get(p)
                .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
            {
                p += 1;
            }
            let number = &text[pos..p];
            number
                .parse::<f64>()
                .map(|n| (Value::Num(n), p))
                .map_err(|_| format!("bad number {number:?}"))
        }
        None => Err("missing value".into()),
    }
}

/// The five request operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// The continuous optimum `(h_opt, k_opt, τ_opt)`.
    Optimum,
    /// Total optimally-buffered delay of a route of a given length.
    RouteDelay,
    /// Critical inductance at the optimum (Eq. 4).
    Lcrit,
    /// Serving counters (a pipeline barrier: answered only after every
    /// earlier response has been written).
    Stats,
    /// Live flight-recorder snapshot (router-answered, no barrier).
    Trace,
}

impl Op {
    /// The wire name of this op.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Optimum => "optimum",
            Self::RouteDelay => "route_delay",
            Self::Lcrit => "lcrit",
            Self::Stats => "stats",
            Self::Trace => "trace",
        }
    }

    /// A stable small integer for flight-recorder event payloads
    /// (`serve.parse` events carry it as the value).
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            Self::Optimum => 0,
            Self::RouteDelay => 1,
            Self::Lcrit => 2,
            Self::Stats => 3,
            Self::Trace => 4,
        }
    }
}

/// A fully validated solver-bound query (`optimum` / `route_delay` /
/// `lcrit`).
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Client-chosen request id, echoed in the response.
    pub id: u64,
    /// Which answer is wanted.
    pub op: Op,
    /// The line under question.
    pub line: LineRlc,
    /// The driving repeater technology.
    pub driver: DriverParams,
    /// Optimizer options (threshold; solver knobs stay at defaults).
    pub options: OptimizerOptions,
    /// Route length (`route_delay` only).
    pub length: Option<Meters>,
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A solver-bound query.
    Query(Box<Query>),
    /// A stats barrier.
    Stats {
        /// Client-chosen request id, echoed in the response.
        id: u64,
    },
    /// A live trace snapshot (no barrier).
    Trace {
        /// Client-chosen request id, echoed in the response.
        id: u64,
    },
}

fn get_num(fields: &[Field<'_>], key: &str) -> Result<Option<f64>, String> {
    match fields.iter().find(|(k, _)| k == key) {
        None => Ok(None),
        Some((_, Value::Num(n))) => Ok(Some(*n)),
        Some((_, other)) => Err(format!("field {key:?} must be a number, got {other:?}")),
    }
}

fn get_str<'a>(fields: &'a [Field<'_>], key: &str) -> Result<Option<&'a str>, String> {
    match fields.iter().find(|(k, _)| k == key) {
        None => Ok(None),
        Some((_, Value::Str(s))) => Ok(Some(s)),
        Some((_, other)) => Err(format!("field {key:?} must be a string, got {other:?}")),
    }
}

/// The line and driver defaults of a named node. Built once per
/// process: a [`TechNode`] allocates its name strings, which a request
/// parse has no use for.
fn node_defaults(name: &str) -> Option<(LineParams, DriverParams)> {
    static NODES: OnceLock<[(LineParams, DriverParams); 3]> = OnceLock::new();
    let index = ["250nm", "100nm", "100nm_eps33"].iter().position(|n| *n == name)?;
    let nodes = NODES.get_or_init(|| {
        [
            TechNode::nm250(),
            TechNode::nm100(),
            TechNode::nm100_with_250nm_dielectric(),
        ]
        .map(|node| (node.line(), node.driver()))
    });
    Some(nodes[index])
}

fn require_positive(name: &str, x: f64) -> Result<f64, String> {
    if x.is_finite() && x > 0.0 {
        Ok(x)
    } else {
        Err(format!("{name} must be finite and > 0, got {x}"))
    }
}

fn require_non_negative(name: &str, x: f64) -> Result<f64, String> {
    if x.is_finite() && x >= 0.0 {
        Ok(x)
    } else {
        Err(format!("{name} must be finite and >= 0, got {x}"))
    }
}

/// Parses and validates one request line.
///
/// # Errors
///
/// A human-readable message naming the malformed or missing field. The
/// caller pairs it with whatever `id` could still be extracted (see
/// [`request_id_of`]) so the client can correlate the error.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let fields = parse_object(line)?;
    let id = match get_num(&fields, "id")? {
        Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) => n as u64,
        Some(n) => return Err(format!("id must be a non-negative integer, got {n}")),
        None => return Err("missing field \"id\"".into()),
    };
    let op = match get_str(&fields, "op")? {
        Some("optimum") => Op::Optimum,
        Some("route_delay") => Op::RouteDelay,
        Some("lcrit") => Op::Lcrit,
        Some("stats") => return Ok(Request::Stats { id }),
        Some("trace") => return Ok(Request::Trace { id }),
        Some(other) => return Err(format!("unknown op {other:?}")),
        None => return Err("missing field \"op\"".into()),
    };

    // Node defaults first, raw fields override.
    let defaults = match get_str(&fields, "node")? {
        None => None,
        Some(name) => Some(node_defaults(name).ok_or_else(|| format!("unknown node {name:?}"))?),
    };

    let r = match get_num(&fields, "r_ohm_per_m")? {
        Some(x) => require_positive("r_ohm_per_m", x)?,
        None => defaults
            .as_ref()
            .map(|(l, _)| l.resistance.get())
            .ok_or("need \"r_ohm_per_m\" or \"node\"")?,
    };
    let c = match get_num(&fields, "c_f_per_m")? {
        Some(x) => require_positive("c_f_per_m", x)?,
        None => defaults
            .as_ref()
            .map(|(l, _)| l.capacitance.get())
            .ok_or("need \"c_f_per_m\" or \"node\"")?,
    };
    let l = match (get_num(&fields, "l_h_per_m")?, get_num(&fields, "l_nh_mm")?) {
        (Some(_), Some(_)) => return Err("give \"l_h_per_m\" or \"l_nh_mm\", not both".into()),
        (Some(x), None) => require_non_negative("l_h_per_m", x)?,
        (None, Some(x)) => require_non_negative("l_nh_mm", x)? * 1e-6,
        (None, None) => return Err("missing inductance (\"l_h_per_m\" or \"l_nh_mm\")".into()),
    };
    let rs = match get_num(&fields, "rs_ohm")? {
        Some(x) => require_positive("rs_ohm", x)?,
        None => defaults
            .as_ref()
            .map(|(_, d)| d.output_resistance.get())
            .ok_or("need \"rs_ohm\" or \"node\"")?,
    };
    let cp = match get_num(&fields, "cp_f")? {
        Some(x) => require_non_negative("cp_f", x)?,
        None => defaults
            .as_ref()
            .map(|(_, d)| d.parasitic_capacitance.get())
            .ok_or("need \"cp_f\" or \"node\"")?,
    };
    let c0 = match get_num(&fields, "c0_f")? {
        Some(x) => require_positive("c0_f", x)?,
        None => defaults
            .as_ref()
            .map(|(_, d)| d.input_capacitance.get())
            .ok_or("need \"c0_f\" or \"node\"")?,
    };
    let threshold = match get_num(&fields, "threshold")? {
        Some(x) if x.is_finite() && x > 0.0 && x < 1.0 => x,
        Some(x) => return Err(format!("threshold must be in (0, 1), got {x}")),
        None => OptimizerOptions::default().threshold,
    };
    let length = match (get_num(&fields, "length_m")?, get_num(&fields, "length_mm")?) {
        (Some(_), Some(_)) => return Err("give \"length_m\" or \"length_mm\", not both".into()),
        (Some(x), None) => Some(require_positive("length_m", x)?),
        (None, Some(x)) => Some(require_positive("length_mm", x)? * 1e-3),
        (None, None) => None,
    };
    if op == Op::RouteDelay && length.is_none() {
        return Err("route_delay needs \"length_m\" or \"length_mm\"".into());
    }

    Ok(Request::Query(Box::new(Query {
        id,
        op,
        line: LineRlc::new(
            OhmsPerMeter::new(r),
            HenriesPerMeter::new(l),
            FaradsPerMeter::new(c),
        ),
        driver: DriverParams::new(
            rlckit_units::Ohms::new(rs),
            rlckit_units::Farads::new(cp),
            rlckit_units::Farads::new(c0),
        ),
        options: OptimizerOptions {
            threshold,
            ..OptimizerOptions::default()
        },
        length: length.map(Meters::new),
    })))
}

/// Best-effort extraction of the `id` of a line that failed
/// [`parse_request`], so error responses can still be correlated.
#[must_use]
pub fn request_id_of(line: &str) -> Option<u64> {
    let fields = parse_object(line).ok()?;
    match get_num(&fields, "id").ok()?? {
        n if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) => Some(n as u64),
        _ => None,
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Successful `optimum` response.
#[must_use]
pub fn response_optimum(id: u64, opt: &RlcOptimum, served: Served) -> String {
    format!(
        "{{\"id\":{id},\"ok\":true,\"op\":\"optimum\",\"h_m\":{},\"k\":{},\
         \"segment_delay_s\":{},\"delay_per_m_s\":{},\"lcrit_h_per_m\":{},\
         \"damping\":\"{}\",\"source\":\"{}\"}}",
        opt.segment_length.get(),
        opt.repeater_size,
        opt.segment_delay.get(),
        opt.delay_per_length(),
        opt.critical_inductance.get(),
        opt.damping,
        served.label(),
    )
}

/// Successful `route_delay` response.
#[must_use]
pub fn response_route_delay(id: u64, length: Meters, delay: Seconds, served: Served) -> String {
    format!(
        "{{\"id\":{id},\"ok\":true,\"op\":\"route_delay\",\"length_m\":{},\
         \"delay_s\":{},\"source\":\"{}\"}}",
        length.get(),
        delay.get(),
        served.label(),
    )
}

/// Successful `lcrit` response.
#[must_use]
pub fn response_lcrit(id: u64, lcrit: HenriesPerMeter, served: Served) -> String {
    format!(
        "{{\"id\":{id},\"ok\":true,\"op\":\"lcrit\",\"lcrit_h_per_m\":{},\"source\":\"{}\"}}",
        lcrit.get(),
        served.label(),
    )
}

/// Counters reported by a `stats` response.
///
/// A `stats` request is a **per-session barrier**: it is answered only
/// after every *preceding* request of the asking session is on the
/// wire, and its counts cover exactly that preceding prefix — the
/// stats request itself is **not** counted (contrast
/// [`TraceOpView::requests`], which is self-inclusive). Every field
/// except the three `*_ns` latency percentiles and `uptime_ns` is
/// deterministic at the barrier (`in_flight` is always 0 there — the
/// barrier *is* "nothing in flight"); the `*_ns` fields are wall
/// clock, named per the trace-crate contract so determinism checks can
/// strip them. The counts are **session-scoped**, so a connection's
/// stats responses are byte-identical to a solo replay even while
/// other connections share the daemon, as long as they leave what the
/// memo retains alone (e.g. an all-hot mix): `entries` observes the
/// shared memo, and `evictions` count what this session's inserts
/// evicted from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsView {
    /// Entries currently retained across all shards (process-wide).
    pub entries: usize,
    /// Worker (= shard) count.
    pub workers: usize,
    /// This session's memo hits over its preceding request prefix.
    pub hits: u64,
    /// This session's fresh solves over its preceding request prefix.
    pub misses: u64,
    /// Memo entries this session's inserts evicted over its preceding
    /// request prefix (0 in an eviction-free mix).
    pub evictions: u64,
    /// Requests submitted but not yet written (0 at a barrier).
    pub in_flight: u64,
    /// Nanoseconds since the server was created.
    pub uptime_ns: u64,
    /// Median end-to-end latency in ns of this session's query
    /// requests (interpolated from the log₂ histogram; 0 when no
    /// latency was recorded).
    pub p50_ns: u64,
    /// 95th-percentile end-to-end request latency in ns (as `p50_ns`).
    pub p95_ns: u64,
    /// 99th-percentile end-to-end request latency in ns (as `p50_ns`).
    pub p99_ns: u64,
}

/// Successful `stats` response.
#[must_use]
pub fn response_stats(id: u64, stats: &StatsView) -> String {
    format!(
        "{{\"id\":{id},\"ok\":true,\"op\":\"stats\",\"entries\":{},\"workers\":{},\
         \"hits\":{},\"misses\":{},\"evictions\":{},\"in_flight\":{},\
         \"uptime_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{}}}",
        stats.entries,
        stats.workers,
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.in_flight,
        stats.uptime_ns,
        stats.p50_ns,
        stats.p95_ns,
        stats.p99_ns,
    )
}

/// One entry of the `trace` response's slowest-requests table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowRequest {
    /// The request's flight-recorder trace id.
    pub trace_id: u64,
    /// End-to-end latency (parse to write) in ns.
    pub total_ns: u64,
}

/// The live snapshot reported by a `trace` response. Unlike
/// [`StatsView`] this is *not* part of the byte-identity contract:
/// `in_flight` and the slowest ranking reflect scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceOpView {
    /// Requests consumed by this session so far, **including the trace
    /// request itself** (self-inclusive). This is the deliberate
    /// asymmetry with the stats view, whose counters cover only the
    /// *preceding* prefix: a trace is a live snapshot taken at parse
    /// time, so the freshest fact it knows is its own arrival — after
    /// `n` earlier requests it reports `n + 1`. `rlckit-traceview`
    /// relies on this when cross-checking a trace line against a
    /// drained event file (the trace request contributes its own
    /// `Parse` event), so the contract is pinned by test.
    pub requests: u64,
    /// Session parse errors.
    pub parse_errors: u64,
    /// This session's solve errors.
    pub solve_errors: u64,
    /// Requests submitted but not yet written, at answer time.
    pub in_flight: u64,
    /// Flight-recorder events currently retained across all rings.
    pub events: u64,
    /// Nanoseconds since the server was created.
    pub uptime_ns: u64,
    /// Median end-to-end latency in ns of this session's query
    /// requests answered so far (as [`StatsView::p50_ns`]).
    pub p50_ns: u64,
    /// 95th-percentile end-to-end request latency in ns (as `p50_ns`).
    pub p95_ns: u64,
    /// 99th-percentile end-to-end request latency in ns (as `p50_ns`).
    pub p99_ns: u64,
    /// The slowest requests seen so far, worst first.
    pub slowest: Vec<SlowRequest>,
}

/// Successful `trace` response. The `slowest` array is the protocol's
/// one nested value — it appears only in responses; requests stay
/// flat.
#[must_use]
pub fn response_trace(id: u64, view: &TraceOpView) -> String {
    let slowest: Vec<String> = view
        .slowest
        .iter()
        .map(|s| format!("{{\"trace_id\":{},\"total_ns\":{}}}", s.trace_id, s.total_ns))
        .collect();
    format!(
        "{{\"id\":{id},\"ok\":true,\"op\":\"trace\",\"requests\":{},\"parse_errors\":{},\
         \"solve_errors\":{},\"in_flight\":{},\"events\":{},\"uptime_ns\":{},\
         \"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"slowest\":[{}]}}",
        view.requests,
        view.parse_errors,
        view.solve_errors,
        view.in_flight,
        view.events,
        view.uptime_ns,
        view.p50_ns,
        view.p95_ns,
        view.p99_ns,
        slowest.join(","),
    )
}

/// Error response; `id` is `null` when the request's id could not even
/// be parsed.
#[must_use]
pub fn response_error(id: Option<u64>, message: &str) -> String {
    let id = id.map_or_else(|| "null".to_string(), |n| n.to_string());
    format!("{{\"id\":{id},\"ok\":false,\"error\":{}}}", json_escape(message))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_shorthand_fills_line_and_driver() {
        let req = parse_request(r#"{"id":7,"op":"optimum","node":"100nm","l_nh_mm":1.8}"#)
            .expect("valid request");
        let Request::Query(q) = req else { panic!("not a query") };
        let node = TechNode::nm100();
        assert_eq!(q.id, 7);
        assert_eq!(q.op, Op::Optimum);
        assert_eq!(q.line.resistance(), node.line().resistance);
        assert_eq!(q.line.capacitance(), node.line().capacitance);
        assert!((q.line.inductance().to_nano_per_milli() - 1.8).abs() < 1e-12);
        assert_eq!(q.driver, node.driver());
        assert!((q.options.threshold - 0.5).abs() < 1e-15);
        assert_eq!(q.length, None);
    }

    #[test]
    fn raw_fields_override_node_defaults() {
        let req = parse_request(
            r#"{"id":1,"op":"lcrit","node":"250nm","l_nh_mm":1.0,"rs_ohm":5000.0,"threshold":0.9}"#,
        )
        .expect("valid request");
        let Request::Query(q) = req else { panic!("not a query") };
        assert!((q.driver.output_resistance.get() - 5000.0).abs() < 1e-9);
        assert_eq!(
            q.driver.parasitic_capacitance,
            TechNode::nm250().driver().parasitic_capacitance
        );
        assert!((q.options.threshold - 0.9).abs() < 1e-15);
    }

    #[test]
    fn route_delay_requires_a_length_and_converts_mm() {
        let err = parse_request(r#"{"id":1,"op":"route_delay","node":"100nm","l_nh_mm":1.8}"#)
            .unwrap_err();
        assert!(err.contains("length"), "{err}");
        let req = parse_request(
            r#"{"id":1,"op":"route_delay","node":"100nm","l_nh_mm":1.8,"length_mm":30}"#,
        )
        .expect("valid request");
        let Request::Query(q) = req else { panic!("not a query") };
        assert!((q.length.unwrap().get() - 0.03).abs() < 1e-15);
    }

    #[test]
    fn invalid_inputs_are_rejected_not_panicked() {
        for (line, needle) in [
            ("", "object"),
            ("{}", "id"),
            (r#"{"id":1}"#, "op"),
            (r#"{"id":1,"op":"bogus"}"#, "unknown op"),
            (r#"{"id":1,"op":"optimum"}"#, "node"),
            (r#"{"id":1,"op":"optimum","node":"7nm","l_nh_mm":1}"#, "unknown node"),
            (r#"{"id":1,"op":"optimum","node":"100nm"}"#, "inductance"),
            (r#"{"id":1,"op":"optimum","node":"100nm","l_nh_mm":-1}"#, ">= 0"),
            (r#"{"id":1,"op":"optimum","node":"100nm","l_nh_mm":1,"threshold":1.5}"#, "threshold"),
            (r#"{"id":1,"op":"optimum","node":"100nm","l_nh_mm":1,"r_ohm_per_m":0}"#, "> 0"),
            (r#"{"id":-3,"op":"optimum","node":"100nm","l_nh_mm":1}"#, "id"),
            (r#"{"id":1,"id":2,"op":"stats"}"#, "duplicate"),
            (r#"{"id":1,"op":"stats","x":{"nested":1}}"#, "nested"),
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(
                err.to_lowercase().contains(&needle.to_lowercase()),
                "{line}: expected {needle:?} in {err:?}"
            );
        }
    }

    /// Escapes decode, unescaped text (multi-byte UTF-8 included)
    /// passes through whole, and a bad escape is still an error.
    #[test]
    fn string_escapes_decode_and_utf8_passes_through() {
        for (line, err) in [
            (r#"{"id":1,"op":"a\/b\"c\\d\te"}"#, r#"unknown op "a/b\"c\\d\te""#),
            (r#"{"id":1,"op":"größe"}"#, r#"unknown op "größe""#),
            (r#"{"id":1,"op":"a\qb"}"#, "unsupported escape"),
            (r#"{"id":1,"op":"stats","o\/p":1,"o\/p":2}"#, r#"duplicate field "o/p""#),
        ] {
            assert_eq!(parse_request(line).unwrap_err(), err, "{line}");
        }
    }

    #[test]
    fn stats_parses_and_ids_survive_parse_failures() {
        assert_eq!(
            parse_request(r#"{"id":9,"op":"stats"}"#).unwrap(),
            Request::Stats { id: 9 }
        );
        assert_eq!(
            parse_request(r#"{"id":11,"op":"trace"}"#).unwrap(),
            Request::Trace { id: 11 }
        );
        assert_eq!(request_id_of(r#"{"id":4,"op":"bogus"}"#), Some(4));
        assert_eq!(request_id_of("not json"), None);
    }

    #[test]
    fn responses_are_single_json_lines() {
        let err = response_error(Some(3), "bad \"field\"");
        assert_eq!(err, r#"{"id":3,"ok":false,"error":"bad \"field\""}"#);
        assert_eq!(
            response_error(None, "x"),
            r#"{"id":null,"ok":false,"error":"x"}"#
        );
        let stats = response_stats(
            1,
            &StatsView {
                entries: 2,
                workers: 4,
                hits: 10,
                misses: 3,
                evictions: 0,
                in_flight: 0,
                uptime_ns: 123,
                p50_ns: 512,
                p95_ns: 2048,
                p99_ns: 4096,
            },
        );
        assert_eq!(
            stats,
            "{\"id\":1,\"ok\":true,\"op\":\"stats\",\"entries\":2,\"workers\":4,\
             \"hits\":10,\"misses\":3,\"evictions\":0,\"in_flight\":0,\
             \"uptime_ns\":123,\"p50_ns\":512,\"p95_ns\":2048,\"p99_ns\":4096}"
        );
    }

    #[test]
    fn trace_response_carries_the_slowest_table() {
        let view = TraceOpView {
            requests: 9,
            parse_errors: 1,
            solve_errors: 0,
            in_flight: 2,
            events: 40,
            uptime_ns: 777,
            p50_ns: 100,
            p95_ns: 200,
            p99_ns: 300,
            slowest: vec![
                SlowRequest { trace_id: 5, total_ns: 9000 },
                SlowRequest { trace_id: 2, total_ns: 4000 },
            ],
        };
        assert_eq!(
            response_trace(7, &view),
            "{\"id\":7,\"ok\":true,\"op\":\"trace\",\"requests\":9,\"parse_errors\":1,\
             \"solve_errors\":0,\"in_flight\":2,\"events\":40,\"uptime_ns\":777,\
             \"p50_ns\":100,\"p95_ns\":200,\"p99_ns\":300,\
             \"slowest\":[{\"trace_id\":5,\"total_ns\":9000},{\"trace_id\":2,\"total_ns\":4000}]}"
        );
        // Empty slow log still renders a well-formed array.
        let empty = TraceOpView { slowest: Vec::new(), ..view };
        assert!(response_trace(7, &empty).contains("\"slowest\":[]}"));
    }

    #[test]
    fn op_codes_are_stable_and_distinct() {
        let ops = [Op::Optimum, Op::RouteDelay, Op::Lcrit, Op::Stats, Op::Trace];
        let codes: Vec<u64> = ops.iter().map(|o| o.code()).collect();
        assert_eq!(codes, vec![0, 1, 2, 3, 4]);
        assert_eq!(Op::Trace.label(), "trace");
    }
}
