//! `daemon-sessions`: a closed loop of 2 TCP connections over host
//! loopback against `inrpp serve --listen 127.0.0.1:0 --workers 2`.
//!
//! Each connection interleaves three sessions (fluid and packet engines)
//! request by request: open, feed, many small advances, snapshots, one
//! checkpoint, close. A client sends its next request only after the
//! previous reply's newline arrived. One round — every session of both
//! connections from open to close — is the fixed unit of work; rounds
//! repeat until the measuring time is up.
//!
//! Every reply must be `"ok":true`, and every session's `close` reply
//! must be byte-equal to the same script run alone in this process
//! through `inrpp_server::serve_lines_with`.
//!
//! After the daemon has stopped, the traced run also measures the
//! chunk-level engine in this process (see `packet.rs`).

use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use inrpp_server::protocol::parse_object;
use inrpp_sim::rng::SimRng;

use crate::measure::{median, quantile, secs_since, Outcome, Tracer};
use crate::{Timed, WORK_DIR};

/// Client connections (and daemon worker slots).
const CONNECTIONS: usize = 2;
/// Sessions interleaved on each connection.
const SESSIONS: usize = 3;
/// `advance` requests per session, each 50 ms of simulated time.
const ADVANCES: usize = 24;

/// One session's request lines, in order.
struct Script {
    sid: String,
    lines: Vec<String>,
}

/// The session's script; `ckpt` is the checkpoint file it writes.
fn script(sid: &str, index: u64, rng: &mut SimRng, seed: u64, ckpt: &str) -> Vec<String> {
    let fluid = index.is_multiple_of(2);
    let (topology, pairs): (&str, &[(&str, &str)]) = if index % 3 == 2 {
        ("dumbbell:4", &[("n0", "n6"), ("n1", "n7"), ("n2", "n8")])
    } else {
        ("fig3", &[("1", "4"), ("1", "3"), ("2", "3")])
    };
    let mut seq = 0u64;
    let mut line = |body: String| {
        seq += 1;
        format!("{{\"sid\":\"{sid}\",\"seq\":{seq},{body}}}")
    };
    let mut lines = vec![line(format!(
        "\"cmd\":\"open\",\"engine\":\"{}\",\"topology\":\"{topology}\",\"strategy\":\"urp\",\
         \"horizon_secs\":30,\"seed\":{},\"probe_fp\":true",
        if fluid { "fluid" } else { "packet" },
        seed.wrapping_add(index)
    ))];
    for (flow, (src, dst)) in pairs.iter().enumerate() {
        let chunks = 200 + rng.index(401);
        let start_ms = rng.index(200);
        lines.push(line(format!(
            "\"cmd\":\"feed\",\"flow\":{},\"src\":\"{src}\",\"dst\":\"{dst}\",\"chunks\":{chunks},\
             \"start_secs\":{}",
            flow + 1,
            start_ms as f64 / 1e3
        )));
    }
    for k in 1..=ADVANCES {
        lines.push(line(format!(
            "\"cmd\":\"advance\",\"to_secs\":{}",
            k as f64 * 0.05
        )));
        if k % 8 == 0 {
            lines.push(line("\"cmd\":\"snapshot\"".into()));
        }
        if k == ADVANCES / 2 {
            lines.push(line(format!("\"cmd\":\"checkpoint\",\"path\":\"{ckpt}\"")));
        }
    }
    lines.push(line("\"cmd\":\"close\"".into()));
    lines
}

fn ckpt_path(tag: &str, sid: &str) -> String {
    format!("{WORK_DIR}/{tag}-{sid}.ckpt")
}

/// The sessions of each connection.
fn scripts(seed: u64, tag: &str) -> Vec<Vec<Script>> {
    let rng = SimRng::from_seed_u64(seed);
    (0..CONNECTIONS)
        .map(|c| {
            (0..SESSIONS)
                .map(|s| {
                    let index = (c * SESSIONS + s) as u64;
                    let sid = format!("c{c}s{s}");
                    let mut r = rng.derive(index);
                    let lines = script(&sid, index, &mut r, seed, &ckpt_path(tag, &sid));
                    Script { sid, lines }
                })
                .collect()
        })
        .collect()
}

/// A connection's requests in round-robin order across its sessions.
fn interleave(sessions: &[Script]) -> Vec<(usize, &str)> {
    let longest = sessions.iter().map(|s| s.lines.len()).max().unwrap_or(0);
    let mut out = Vec::new();
    for i in 0..longest {
        for (s, sc) in sessions.iter().enumerate() {
            if let Some(l) = sc.lines.get(i) {
                out.push((s, l.as_str()));
            }
        }
    }
    out
}

// ===================================================================
// The daemon process
// ===================================================================

/// A spawned `inrpp serve` and the two client connections.
struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    conns: Vec<TcpStream>,
}

impl Daemon {
    fn spawn(inrpp: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(inrpp)
            .args(["serve", "--listen", "127.0.0.1:0", "--workers"])
            .arg(CONNECTIONS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", inrpp.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.split("\"addr\":\"").nth(1))
            .and_then(|rest| rest.split('"').next())
            .map(str::to_string);
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            conns: Vec::new(),
        };
        let addr = addr.ok_or_else(|| format!("daemon printed no listening line: {line:?}"))?;
        for _ in 0..CONNECTIONS {
            let conn = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
            conn.set_nodelay(true)
                .map_err(|e| format!("nodelay: {e}"))?;
            conn.set_read_timeout(Some(Duration::from_secs(30)))
                .map_err(|e| format!("read timeout: {e}"))?;
            daemon.conns.push(conn);
        }
        Ok(daemon)
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::measure::peak_rss_mb(&self.child.id().to_string())
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Send `shutdown`, close the connections and wait up to 10 s for
    /// the process to exit (`Drop` kills it after that).
    fn shutdown(mut self) -> Result<(), String> {
        let sent = match self.conns.first_mut() {
            Some(c) => request(c, "{\"cmd\":\"shutdown\"}").map(|_| ()),
            None => Ok(()),
        };
        self.conns.clear();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return sent,
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("daemon did not exit after shutdown".into()),
            }
        }
    }
}

impl Drop for Daemon {
    /// A daemon still running here (an error cut the run short) is
    /// killed, and waited for.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}

/// One request/reply exchange's timing and reply.
struct Exchange {
    reply: String,
    /// Before the request was written.
    sent: Instant,
    /// After the first reply byte was read.
    first: Instant,
    /// After the reply's newline was read.
    end: Instant,
}

impl Exchange {
    fn latency_ms(&self) -> f64 {
        self.end.duration_since(self.sent).as_secs_f64() * 1e3
    }
}

/// Write one request line, read one reply line.
fn request(conn: &mut TcpStream, line: &str) -> Result<Exchange, String> {
    let mut msg = Vec::with_capacity(line.len() + 1);
    msg.extend_from_slice(line.as_bytes());
    msg.push(b'\n');
    let t0 = Instant::now();
    conn.write_all(&msg).map_err(|e| format!("write: {e}"))?;
    let mut reply = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    let mut first = None;
    loop {
        let n = conn.read(&mut buf).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".into());
        }
        let t = Instant::now();
        first.get_or_insert(t);
        reply.extend_from_slice(&buf[..n]);
        if reply.last() == Some(&b'\n') {
            let first = first.expect("set above");
            reply.pop();
            return Ok(Exchange {
                reply: String::from_utf8(reply).map_err(|_| "reply is not UTF-8")?,
                sent: t0,
                first,
                end: t,
            });
        }
    }
}

fn command_of(line: &str) -> &str {
    line.split("\"cmd\":\"")
        .nth(1)
        .and_then(|r| r.split('"').next())
        .unwrap_or("")
}

/// What one connection saw in one round.
#[derive(Default)]
struct ConnRound {
    /// (command, exchange) per request, in order.
    exchanges: Vec<(String, Exchange)>,
    /// Close reply per session index.
    closes: Vec<(usize, String)>,
}

fn drive(conn: &mut TcpStream, sessions: &[Script]) -> Result<ConnRound, String> {
    let mut round = ConnRound::default();
    for (s, line) in interleave(sessions) {
        let ex = request(conn, line)?;
        let cmd = command_of(line).to_string();
        if cmd == "close" {
            round.closes.push((s, ex.reply.clone()));
        }
        round.exchanges.push((cmd, ex));
    }
    Ok(round)
}

/// One round on both connections.
struct Round {
    start: Instant,
    end: Instant,
    conns: Vec<ConnRound>,
}

impl Round {
    fn wall(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }

    fn exchanges(&self) -> impl Iterator<Item = &(String, Exchange)> {
        self.conns.iter().flat_map(|c| &c.exchanges)
    }
}

/// Run one round on both connections concurrently.
fn round(daemon: &mut Daemon, all: &[Vec<Script>]) -> Result<Round, String> {
    let start = Instant::now();
    let results: Vec<Result<ConnRound, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = daemon
            .conns
            .iter_mut()
            .zip(all)
            .map(|(conn, sessions)| scope.spawn(move || drive(conn, sessions)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let end = Instant::now();
    Ok(Round {
        start,
        end,
        conns: results.into_iter().collect::<Result<_, _>>()?,
    })
}

/// Check one round's replies against the solo controls.
fn check_round(round: &Round, controls: &[Vec<String>], out: &mut Outcome) {
    for (c, r) in round.conns.iter().enumerate() {
        for (cmd, ex) in &r.exchanges {
            let ok = ex.reply.starts_with("{\"ok\":true");
            out.check(ok, &format!("{cmd} reply is ok: {}", ex.reply));
        }
        for (s, reply) in &r.closes {
            out.check(
                *reply == controls[c][*s],
                &format!("session c{c}s{s} close reply equals its solo run"),
            );
        }
    }
}

/// Each session's `close` reply when its script runs alone in-process.
fn controls(seed: u64) -> Result<Vec<Vec<String>>, String> {
    scripts(seed, "solo")
        .iter()
        .map(|sessions| {
            sessions
                .iter()
                .map(|s| {
                    let mut input = Cursor::new(s.lines.join("\n") + "\n");
                    let mut replies = Vec::new();
                    inrpp_server::serve_lines_with(&mut input, &mut replies, CONNECTIONS)
                        .map_err(|e| format!("solo run of {}: {e}", s.sid))?;
                    let text = String::from_utf8(replies).map_err(|_| "solo reply not UTF-8")?;
                    text.lines()
                        .find(|l| l.contains("\"event\":\"close\""))
                        .map(str::to_string)
                        .ok_or_else(|| format!("solo run of {} has no close reply", s.sid))
                })
                .collect()
        })
        .collect()
}

/// Pool-wide counters from the `stats` op.
fn stats(conn: &mut TcpStream) -> Result<[u64; 4], String> {
    let ex = request(conn, "{\"cmd\":\"stats\"}")?;
    let field = |k: &str| -> Result<u64, String> {
        ex.reply
            .split(&format!("\"{k}\":"))
            .nth(1)
            .and_then(|r| r.split([',', '}']).next())
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("stats reply has no {k}: {}", ex.reply))
    };
    Ok([
        field("pool_grants")?,
        field("events")?,
        field("advances")?,
        field("ckpt_writes")?,
    ])
}

pub fn run(
    inrpp: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &mut Outcome,
) -> Result<Timed, String> {
    let mut timed = Timed::default();
    let all = scripts(seed, "mux");
    // set-up: daemon spawn until the listening line, plus both connects;
    // repeated, median reported, the last daemon kept
    let mut daemon = None;
    for _ in 0..5 {
        if let Some(d) = daemon.take() {
            Daemon::shutdown(d)?;
        }
        let t0 = Instant::now();
        daemon = Some(Daemon::spawn(inrpp)?);
        timed.setup_s.push(secs_since(t0));
    }
    let mut daemon = daemon.expect("set-up ran");
    let result = if traced {
        traced_run(&mut daemon, &all, seconds, out)
    } else {
        timed_run(&mut daemon, &all, seconds, &mut timed)
    };
    let rss = daemon.peak_rss_mb();
    let down = daemon.shutdown();
    let rounds = result?;
    down?;
    timed.peak_rss_mb = rss?;
    let controls = controls(seed)?;
    for r in &rounds {
        check_round(r, &controls, out);
    }
    for s in all.iter().flatten() {
        for tag in ["mux", "solo"] {
            let _ = std::fs::remove_file(ckpt_path(tag, &s.sid));
        }
    }
    if traced {
        crate::packet::traced(seed, out)?;
    }
    Ok(timed)
}

fn timed_run(
    daemon: &mut Daemon,
    all: &[Vec<Script>],
    seconds: f64,
    timed: &mut Timed,
) -> Result<Vec<Round>, String> {
    let mut rounds = Vec::new();
    let start = Instant::now();
    while rounds.is_empty() || secs_since(start) < seconds {
        let r = round(daemon, all)?;
        for (cmd, ex) in r.exchanges() {
            match cmd.as_str() {
                "advance" => timed.advance_ms.push(ex.latency_ms()),
                "open" => timed.open_ms.push(ex.latency_ms()),
                _ => {}
            }
            timed.requests += 1;
        }
        timed.rep_s.push(r.wall());
        rounds.push(r);
    }
    Ok(rounds)
}

fn traced_run(
    daemon: &mut Daemon,
    all: &[Vec<Script>],
    seconds: f64,
    out: &mut Outcome,
) -> Result<Vec<Round>, String> {
    let mut tracer = Tracer::new(true);
    let start = Instant::now();
    // one untraced round: the baseline of the tracing overhead
    let first = round(daemon, all)?;
    let untraced = first.wall();
    // the first traced round is bracketed by `stats`: per-round counters
    let before = stats(&mut daemon.conns[0])?;
    let mut rounds = vec![first];
    let mut walls = Vec::new();
    while walls.is_empty() || secs_since(start) < seconds {
        let r = round(daemon, all)?;
        if walls.is_empty() {
            let after = stats(&mut daemon.conns[0])?;
            let names = [
                "runner.slots.grants",
                "server.daemon.events",
                "server.daemon.advances",
                "server.daemon.ckpt_writes",
            ];
            for (i, name) in names.iter().enumerate() {
                out.metric(name, (after[i] - before[i]) as f64, "count");
            }
            let bytes: f64 = r
                .exchanges()
                .filter(|(cmd, _)| cmd == "checkpoint")
                .filter_map(|(_, ex)| ex.reply.split("\"bytes\":").nth(1))
                .filter_map(|v| v.split([',', '}']).next()?.parse::<f64>().ok())
                .sum();
            out.metric("server.daemon.checkpoint_bytes", bytes, "bytes");
            out.metric(
                "server.daemon.requests",
                r.exchanges().count() as f64,
                "count",
            );
        }
        // spans from the exchange timestamps: round > request > (wait
        // for the first reply byte, reply tail up to the newline)
        let root = tracer.span("daemon.round", r.start, r.end, None);
        for (cmd, ex) in r.exchanges() {
            let name = match cmd.as_str() {
                "advance" => "server.request.advance",
                "checkpoint" => "server.request.checkpoint",
                _ => "server.request.other",
            };
            let req = tracer.span(name, ex.sent, ex.end, Some(root));
            tracer.span("server.conn.first_byte", ex.sent, ex.first, Some(req));
            tracer.span("server.transport.reply_tail", ex.first, ex.end, Some(req));
        }
        walls.push(r.wall());
        rounds.push(r);
    }
    let ms = |name: &str| -> Vec<f64> { tracer.durations(name).iter().map(|s| s * 1e3).collect() };
    let first_byte = ms("server.conn.first_byte");
    let tail = ms("server.transport.reply_tail");
    let ckpt = ms("server.request.checkpoint");
    out.metric(
        "server.conn.first_byte_ms_p50",
        quantile(&first_byte, 0.5),
        "ms",
    );
    out.metric(
        "server.conn.first_byte_ms_p99",
        quantile(&first_byte, 0.99),
        "ms",
    );
    out.metric(
        "server.transport.reply_tail_ms_p50",
        quantile(&tail, 0.5),
        "ms",
    );
    out.metric(
        "server.transport.reply_tail_ms_p99",
        quantile(&tail, 0.99),
        "ms",
    );
    out.metric(
        "server.daemon.checkpoint_ms_p50",
        quantile(&ckpt, 0.5),
        "ms",
    );
    out.metric(
        "server.daemon.advance_samples",
        tracer.durations("server.request.advance").len() as f64,
        "count",
    );

    // protocol parsing over the recorded request lines, repeated until
    // the total is long enough to time
    let lines: Vec<&str> = all
        .iter()
        .flat_map(|sessions| {
            sessions
                .iter()
                .flat_map(|s| s.lines.iter().map(String::as_str))
        })
        .collect();
    let mut passes = 0u64;
    let t0 = Instant::now();
    while passes < 20 || secs_since(t0) < 0.05 {
        for l in &lines {
            std::hint::black_box(parse_object(std::hint::black_box(l)))
                .map_err(|e| format!("request line does not parse: {e}"))?;
        }
        passes += 1;
    }
    let parse_us = secs_since(t0) * 1e6 / (passes * lines.len() as u64) as f64;
    out.metric("server.protocol.parse_us", parse_us, "us");
    out.metric("server.protocol.lines", lines.len() as f64, "count");

    let traced = median(&walls);
    out.metric("trace.wall_s", traced, "s");
    out.metric("trace.untraced_wall_s", untraced, "s");
    out.metric("trace.overhead_s", traced - untraced, "s");
    out.metric("trace.spans", tracer.len() as f64, "count");
    crate::write_spans(&tracer, "daemon-sessions")?;
    Ok(rounds)
}
