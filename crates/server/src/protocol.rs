//! The serve line protocol: flat-JSON requests, one-line replies.
//!
//! Each request is one flat JSON object per line; each reply is one JSON
//! object per line with an `"ok"` field. The protocol is transport
//! neutral — the same bytes flow over stdio and over a socket — and
//! since protocol **v2** it is *session multiplexed*: every
//! session-scoped request may carry a `"sid"` (client-assigned session
//! id, any string) so one connection can interleave many concurrent
//! sessions. Requests without a `sid` address the connection's single
//! *bare* session, which keeps the v1 wire format byte-for-byte valid.
//!
//! Correlation: any request may carry a numeric `"seq"`; every reply to
//! it — success, typed error, or `unknown_cmd` — echoes `"seq"` back,
//! and replies to `sid`-addressed requests echo `"sid"`.
//!
//! This module owns parsing and serialisation only; session state lives
//! in the host/connection layers.

use std::fmt::Write as _;

use inrpp::config::InrppConfig;
use inrpp::session::{EngineKind, RunReport, SessionError, SessionStrategy};
use inrpp_packetsim::{AimdConfig, PacketEngine, PacketSimConfig, TransportKind};
use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_sim::units::{ByteSize, Rate};
use inrpp_topology::Topology;

/// Protocol version carried by the `hello` reply. v1 was the
/// single-session stdio protocol (PR 8/9); v2 adds `sid` multiplexing,
/// `hello`, `stats`, `seq` echo, and the socket transports.
pub const PROTOCOL_VERSION: u64 = 2;

// ===================================================================
// Flat JSON (requests)
// ===================================================================

/// A value in a flat request object.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A JSON string.
    Str(String),
    /// Any JSON number (integers included).
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// Parse one flat JSON object (`{"k": v, ...}` — no nesting) into its
/// key/value pairs. Line-oriented protocol, so errors are plain strings.
pub fn parse_object(s: &str) -> Result<Vec<(String, Json)>, String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    let mut out = Vec::new();
    skip_ws(b, &mut i);
    expect(b, &mut i, b'{')?;
    skip_ws(b, &mut i);
    if peek(b, i) == Some(b'}') {
        i += 1;
    } else {
        loop {
            skip_ws(b, &mut i);
            let key = parse_string(b, &mut i)?;
            skip_ws(b, &mut i);
            expect(b, &mut i, b':')?;
            skip_ws(b, &mut i);
            let val = parse_value(b, &mut i)?;
            out.push((key, val));
            skip_ws(b, &mut i);
            match peek(b, i) {
                Some(b',') => i += 1,
                Some(b'}') => {
                    i += 1;
                    break;
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {i}, found {:?}",
                        other.map(char::from)
                    ))
                }
            }
        }
    }
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing input after object at byte {i}"));
    }
    Ok(out)
}

fn peek(b: &[u8], i: usize) -> Option<u8> {
    b.get(i).copied()
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while matches!(peek(b, *i), Some(b' ' | b'\t' | b'\r' | b'\n')) {
        *i += 1;
    }
}

fn expect(b: &[u8], i: &mut usize, want: u8) -> Result<(), String> {
    if peek(b, *i) == Some(want) {
        *i += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {}, found {:?}",
            char::from(want),
            *i,
            peek(b, *i).map(char::from)
        ))
    }
}

fn parse_string(b: &[u8], i: &mut usize) -> Result<String, String> {
    expect(b, i, b'"')?;
    let mut out = String::new();
    loop {
        match peek(b, *i) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *i += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *i += 1;
                let esc = peek(b, *i).ok_or("unterminated escape")?;
                *i += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    other => return Err(format!("unsupported escape '\\{}'", char::from(other))),
                }
            }
            Some(_) => {
                // advance one UTF-8 scalar, not one byte
                let rest = &b[*i..];
                let s = std::str::from_utf8(rest).map_err(|_| "invalid UTF-8".to_string())?;
                let ch = s.chars().next().unwrap();
                out.push(ch);
                *i += ch.len_utf8();
            }
        }
    }
}

fn parse_value(b: &[u8], i: &mut usize) -> Result<Json, String> {
    match peek(b, *i) {
        Some(b'"') => Ok(Json::Str(parse_string(b, i)?)),
        Some(b't') if b[*i..].starts_with(b"true") => {
            *i += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*i..].starts_with(b"false") => {
            *i += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*i..].starts_with(b"null") => {
            *i += 4;
            Ok(Json::Null)
        }
        Some(b'{' | b'[') => Err("nested values are not supported; requests are flat".into()),
        Some(_) => {
            let start = *i;
            while matches!(
                peek(b, *i),
                Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            ) {
                *i += 1;
            }
            let text = std::str::from_utf8(&b[start..*i]).unwrap_or("");
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("not a number: {text:?}"))
        }
        None => Err("unexpected end of input".into()),
    }
}

/// Escape a string for JSON output.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A JSON number: `null` for non-finite floats (JSON has no NaN/Inf).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

// ===================================================================
// Request field access
// ===================================================================

/// A parsed flat request object.
pub type Obj = [(String, Json)];

/// Look a field up by key.
pub fn field<'o>(obj: &'o Obj, key: &str) -> Option<&'o Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A required string field.
pub fn str_field(obj: &Obj, key: &str) -> Result<String, String> {
    match field(obj, key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(_) => Err(format!("field {key:?} must be a string")),
        None => Err(format!("missing field {key:?}")),
    }
}

/// A required numeric field.
pub fn num_field(obj: &Obj, key: &str) -> Result<f64, String> {
    match field(obj, key) {
        Some(Json::Num(v)) => Ok(*v),
        Some(_) => Err(format!("field {key:?} must be a number")),
        None => Err(format!("missing field {key:?}")),
    }
}

/// An optional numeric field (`null` counts as absent).
pub fn opt_num_field(obj: &Obj, key: &str) -> Result<Option<f64>, String> {
    match field(obj, key) {
        Some(Json::Num(v)) => Ok(Some(*v)),
        Some(Json::Null) | None => Ok(None),
        Some(_) => Err(format!("field {key:?} must be a number")),
    }
}

/// An optional string field (`null` counts as absent).
pub fn opt_str_field(obj: &Obj, key: &str) -> Result<Option<String>, String> {
    match field(obj, key) {
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(Json::Null) | None => Ok(None),
        Some(_) => Err(format!("field {key:?} must be a string")),
    }
}

/// An optional boolean field (`null` counts as absent).
pub fn opt_bool_field(obj: &Obj, key: &str) -> Result<Option<bool>, String> {
    match field(obj, key) {
        Some(Json::Bool(v)) => Ok(Some(*v)),
        Some(Json::Null) | None => Ok(None),
        Some(_) => Err(format!("field {key:?} must be a boolean")),
    }
}

/// A required non-negative integer field.
pub fn u64_field(obj: &Obj, key: &str) -> Result<u64, String> {
    let v = num_field(obj, key)?;
    if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 {
        Ok(v as u64)
    } else {
        Err(format!("field {key:?} must be a non-negative integer"))
    }
}

// ===================================================================
// Session spec
// ===================================================================

/// Where a `resume` pulls its checkpoint from.
pub enum ResumeFrom {
    /// An explicit checkpoint file.
    Path(String),
    /// The newest readable auto-checkpoint under the spec's `ckpt_dir`
    /// (crash recovery: falls back past truncated/corrupt files).
    Newest,
}

/// Everything an `open` / `resume` request pins down.
pub struct OpenSpec {
    /// Which engine runs the session.
    pub engine: EngineKind,
    /// Topology catalog name (see [`topology_by_name`]).
    pub topology: String,
    /// Strategy name (`urp`/`inrpp` or `sp`).
    pub strategy: String,
    /// Simulated horizon, seconds.
    pub horizon_secs: f64,
    /// Session seed.
    pub seed: Option<u64>,
    /// Shard worker count (packet engine only).
    pub workers: Option<u64>,
    /// Transfer quantum for `feed`, bytes.
    pub chunk_bytes: u64,
    /// Path to a `# inrpp-trace v1` file pumped at each advance.
    pub trace: Option<String>,
    /// Fault-plan string (`FaultPlan::parse` syntax).
    pub faults: Option<String>,
    /// Auto-checkpoint directory; `None` disables auto-checkpointing.
    pub ckpt_dir: Option<String>,
    /// Auto-checkpoint after every this many successful `advance`s.
    pub ckpt_every: u64,
    /// Keep the newest this many auto-checkpoints.
    pub ckpt_retain: usize,
    /// Stream a running probe fingerprint in `advance`/`close` replies.
    pub probe_fp: bool,
    /// `Some` for `resume`, `None` for `open`.
    pub checkpoint: Option<ResumeFrom>,
}

impl OpenSpec {
    /// Parse an `open` (`resume: false`) or `resume` (`resume: true`)
    /// request.
    pub fn parse(obj: &Obj, resume: bool) -> Result<Self, String> {
        let engine = match str_field(obj, "engine")?.as_str() {
            "fluid" => EngineKind::Fluid,
            "packet" => EngineKind::Packet,
            other => return Err(format!("unknown engine {other:?} (fluid|packet)")),
        };
        let chunk_bytes = match opt_num_field(obj, "chunk_bytes")? {
            Some(v) if v >= 1.0 && v.fract() == 0.0 => v as u64,
            Some(v) => return Err(format!("chunk_bytes must be a positive integer, got {v}")),
            None => 1250,
        };
        let ckpt_every = match opt_num_field(obj, "ckpt_every")? {
            Some(v) if v >= 1.0 && v.fract() == 0.0 => v as u64,
            Some(v) => return Err(format!("ckpt_every must be a positive integer, got {v}")),
            None => 1,
        };
        let ckpt_retain = match opt_num_field(obj, "ckpt_retain")? {
            Some(v) if v >= 1.0 && v.fract() == 0.0 => v as usize,
            Some(v) => return Err(format!("ckpt_retain must be a positive integer, got {v}")),
            None => 3,
        };
        let ckpt_dir = opt_str_field(obj, "ckpt_dir")?;
        let checkpoint = if resume {
            match opt_str_field(obj, "path")? {
                Some(p) => Some(ResumeFrom::Path(p)),
                None if ckpt_dir.is_some() => Some(ResumeFrom::Newest),
                None => {
                    return Err("resume needs \"path\" (a checkpoint file) or \"ckpt_dir\" \
                         (recover from the newest auto-checkpoint)"
                        .into())
                }
            }
        } else {
            None
        };
        Ok(OpenSpec {
            engine,
            topology: str_field(obj, "topology")?,
            strategy: str_field(obj, "strategy")?,
            horizon_secs: num_field(obj, "horizon_secs")?,
            seed: opt_num_field(obj, "seed")?.map(|v| v as u64),
            workers: opt_num_field(obj, "workers")?.map(|v| v as u64),
            chunk_bytes,
            trace: opt_str_field(obj, "trace")?,
            faults: opt_str_field(obj, "faults")?,
            ckpt_dir,
            ckpt_every,
            ckpt_retain,
            probe_fp: opt_bool_field(obj, "probe_fp")?.unwrap_or(false),
            checkpoint,
        })
    }

    /// The session strategy named by the spec.
    pub fn strategy(&self) -> Result<SessionStrategy, String> {
        match self.strategy.as_str() {
            "urp" | "inrpp" => Ok(SessionStrategy::urp()),
            "sp" => Ok(SessionStrategy::Sp),
            other => Err(format!("unknown strategy {other:?} (urp|sp)")),
        }
    }

    /// The packet engine matching the strategy, with the session's
    /// transfer quantum.
    pub fn packet_engine(&self) -> Result<PacketEngine, String> {
        let transport = match self.strategy()? {
            SessionStrategy::Urp(_) => TransportKind::Inrpp(InrppConfig::default()),
            SessionStrategy::Sp => TransportKind::Aimd(AimdConfig::default()),
            other => return Err(format!("no packet transport for {}", other.name())),
        };
        Ok(PacketEngine::new(PacketSimConfig {
            chunk_bytes: ByteSize::bytes(self.chunk_bytes),
            transport,
            ..PacketSimConfig::default()
        }))
    }
}

/// A `feed` request before node-name resolution (names resolve against
/// the session's topology, which lives on the session host).
#[derive(Debug, Clone, PartialEq)]
pub struct FeedReq {
    /// Flow identity.
    pub flow: u64,
    /// Source node name.
    pub src: String,
    /// Destination node name.
    pub dst: String,
    /// Object length in chunks.
    pub chunks: u64,
    /// Transfer start, seconds.
    pub start_secs: f64,
}

/// Parse the topology-independent half of a `feed` request.
pub fn parse_feed_req(obj: &Obj) -> Result<FeedReq, String> {
    Ok(FeedReq {
        flow: u64_field(obj, "flow")?,
        src: str_field(obj, "src")?,
        dst: str_field(obj, "dst")?,
        chunks: u64_field(obj, "chunks")?,
        start_secs: num_field(obj, "start_secs")?,
    })
}

/// The topology catalog: `fig3`, or `line:N` / `ring:N` / `star:N` /
/// `mesh:N` / `dumbbell:N` with the serve defaults (10 Mbit/s links,
/// 10 ms delay; dumbbell bottleneck 10 Mbit/s, access 40 Mbit/s).
pub fn topology_by_name(name: &str) -> Result<Topology, String> {
    if name == "fig3" {
        return Ok(Topology::fig3());
    }
    let (kind, n) = match name.split_once(':') {
        Some((k, n)) => (
            k,
            n.parse::<usize>()
                .map_err(|_| format!("bad node count in topology {name:?}"))?,
        ),
        None => return Err(format!("unknown topology {name:?}")),
    };
    let cap = Rate::mbps(10.0);
    let delay = SimDuration::from_millis(10);
    match kind {
        "line" => Ok(Topology::line(n, cap, delay)),
        "ring" => Ok(Topology::ring(n, cap, delay)),
        "star" => Ok(Topology::star(n, cap, delay)),
        "mesh" => Ok(Topology::full_mesh(n, cap, delay)),
        "dumbbell" => Ok(Topology::dumbbell(n, Rate::mbps(40.0), cap, delay)),
        _ => Err(format!("unknown topology {name:?}")),
    }
}

/// Convert a `*_secs` request field to a [`SimTime`].
pub fn secs_to_time(secs: f64) -> Result<SimTime, SessionError> {
    Ok(SimTime::ZERO + SimDuration::try_from_secs_f64(secs)?)
}

// ===================================================================
// Replies
// ===================================================================

/// An error reply with a machine-readable `kind`: `parse`,
/// `unknown_cmd`, `config`, `state`, `session`, `checkpoint`, `io`,
/// `timeout`, `limit`. The session (if any) stays open, except after
/// `limit`, which ends the connection.
pub fn err_reply(kind: &str, msg: &str) -> String {
    format!(
        "{{\"ok\":false,\"kind\":\"{}\",\"error\":\"{}\"}}",
        esc(kind),
        esc(msg)
    )
}

/// The error `kind` a [`SessionError`] classifies as.
pub fn session_err_kind(e: &SessionError) -> &'static str {
    match e {
        SessionError::CheckpointMismatch(_) => "checkpoint",
        SessionError::InvalidConfig(_) => "config",
        _ => "session",
    }
}

/// An `{"ok":true,"event":...}` reply with optional extra fields
/// (pre-rendered `"k":v` pairs).
pub fn ok_reply(event: &str, extra: &str) -> String {
    if extra.is_empty() {
        format!("{{\"ok\":true,\"event\":\"{}\"}}", esc(event))
    } else {
        format!("{{\"ok\":true,\"event\":\"{}\",{extra}}}", esc(event))
    }
}

/// Append pre-rendered fields (`,"k":v...`) to a reply object produced
/// by this module — used to inject the `sid`/`seq` correlation tail.
pub fn append_fields(mut reply: String, tail: &str) -> String {
    if tail.is_empty() {
        return reply;
    }
    debug_assert!(reply.ends_with('}'));
    reply.pop();
    reply.push_str(tail);
    reply.push('}');
    reply
}

/// Serialise a [`RunReport`] reply (`snapshot` / `close`).
pub fn report_reply(event: &str, topo: &Topology, report: &RunReport) -> String {
    let a = &report.aggregates;
    let mut flows = String::new();
    for (i, f) in report.flows.iter().enumerate() {
        if i > 0 {
            flows.push(',');
        }
        let _ = write!(
            flows,
            "{{\"flow\":{},\"src\":\"{}\",\"dst\":\"{}\",\"offered_bits\":{},\
             \"delivered_bits\":{},\"arrival_secs\":{},\"fct_secs\":{},\"retransmits\":{}",
            f.flow,
            esc(&topo.node(f.src).name),
            esc(&topo.node(f.dst).name),
            num(f.offered_bits),
            num(f.delivered_bits),
            num(f.arrival.as_secs_f64()),
            f.fct_secs.map(num).unwrap_or_else(|| "null".into()),
            f.retransmits,
        );
        // recovery metrics appear only when a fault actually touched
        // the flow, so fault-free replies keep their exact shape
        if f.detours > 0 || f.custody_rescues > 0 || f.outage_delay_secs > 0.0 {
            let _ = write!(
                flows,
                ",\"detours\":{},\"custody_rescues\":{},\"outage_delay_secs\":{}",
                f.detours,
                f.custody_rescues,
                num(f.outage_delay_secs),
            );
        }
        flows.push('}');
    }
    format!(
        "{{\"ok\":true,\"event\":\"{}\",\"engine\":\"{}\",\"strategy\":\"{}\",\
         \"topology\":\"{}\",\"arrived_flows\":{},\"completed_flows\":{},\
         \"offered_bits\":{},\"delivered_bits\":{},\"duration_secs\":{},\
         \"mean_fct_secs\":{},\"mean_utilisation\":{},\"flows\":[{}]}}",
        esc(event),
        report.engine,
        esc(&report.strategy),
        esc(&report.topology),
        a.arrived_flows,
        a.completed_flows,
        num(a.offered_bits),
        num(a.delivered_bits),
        num(a.duration.as_secs_f64()),
        num(a.mean_fct_secs),
        num(a.mean_utilisation),
        flows,
    )
}

/// The `hello` handshake reply: protocol version, engine list, and the
/// daemon's worker-pool size.
pub fn hello_reply(workers: usize) -> String {
    format!(
        "{{\"ok\":true,\"event\":\"hello\",\"protocol\":{PROTOCOL_VERSION},\
         \"engines\":[\"fluid\",\"packet\"],\"transports\":[\"stdio\",\"tcp\",\"unix\"],\
         \"workers\":{workers}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_objects() {
        let obj = parse_object(
            r#"{"cmd":"open","engine":"fluid","horizon_secs":30.5,"quick":true,"note":null}"#,
        )
        .unwrap();
        assert_eq!(str_field(&obj, "cmd").unwrap(), "open");
        assert_eq!(num_field(&obj, "horizon_secs").unwrap(), 30.5);
        assert_eq!(field(&obj, "quick"), Some(&Json::Bool(true)));
        assert_eq!(field(&obj, "note"), Some(&Json::Null));
        assert!(parse_object(r#"{"a":{"b":1}}"#).is_err(), "nested rejected");
        assert!(
            parse_object(r#"{"a":1} extra"#).is_err(),
            "trailing rejected"
        );
        let esc = parse_object(r#"{"s":"a\"b\\c\nd"}"#).unwrap();
        assert_eq!(str_field(&esc, "s").unwrap(), "a\"b\\c\nd");
    }

    #[test]
    fn tail_injection_lands_inside_the_object() {
        let r = append_fields(ok_reply("feed", "\"flow\":3"), ",\"sid\":\"a\",\"seq\":7");
        assert_eq!(
            r,
            "{\"ok\":true,\"event\":\"feed\",\"flow\":3,\"sid\":\"a\",\"seq\":7}"
        );
        let obj = parse_object(&err_reply("state", "x")).unwrap();
        assert_eq!(str_field(&obj, "kind").unwrap(), "state");
    }

    #[test]
    fn hello_names_the_protocol_and_engines() {
        let h = hello_reply(4);
        assert!(h.contains("\"protocol\":2"), "{h}");
        assert!(h.contains("\"engines\":[\"fluid\",\"packet\"]"), "{h}");
        assert!(h.contains("\"workers\":4"), "{h}");
    }

    #[test]
    fn feed_req_parses_without_a_topology() {
        let obj = parse_object(
            r#"{"cmd":"feed","flow":7,"src":"1","dst":"4","chunks":80,"start_secs":0.5}"#,
        )
        .unwrap();
        let req = parse_feed_req(&obj).unwrap();
        assert_eq!(
            req,
            FeedReq {
                flow: 7,
                src: "1".into(),
                dst: "4".into(),
                chunks: 80,
                start_secs: 0.5,
            }
        );
        let bad = parse_object(r#"{"cmd":"feed","flow":"x"}"#).unwrap();
        assert!(parse_feed_req(&bad).is_err());
    }
}
