//! The daemon over real TCP sockets: request/reply latency in a closed
//! loop, and the request-line cap on a live connection.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use inrpp_server::conn::MAX_LINE_BYTES;
use inrpp_server::{Daemon, DaemonConfig, SocketTransport, Transport};

/// A daemon serving on a free loopback port from a background thread.
struct Served {
    addr: String,
    thread: JoinHandle<()>,
}

impl Served {
    fn start(workers: usize) -> Served {
        let daemon = Daemon::new(DaemonConfig { workers });
        let mut transport = SocketTransport::bind("127.0.0.1:0").expect("bind");
        let addr = transport.local_addr().expect("tcp addr");
        let thread = std::thread::spawn(move || daemon.serve(&mut transport).expect("daemon"));
        Served { addr, thread }
    }

    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(&self.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        stream
    }

    fn shutdown(self) {
        let mut stream = self.connect();
        stream
            .write_all(b"{\"cmd\":\"shutdown\"}\n")
            .expect("send shutdown");
        let mut ack = String::new();
        BufReader::new(stream).read_line(&mut ack).expect("ack");
        assert!(ack.contains("\"event\":\"shutdown\""), "ack: {ack}");
        self.thread.join().expect("daemon thread");
    }
}

/// Send one request line in one write and read its reply line.
fn roundtrip(w: &mut TcpStream, r: &mut BufReader<TcpStream>, line: &str) -> String {
    w.write_all(format!("{line}\n").as_bytes()).expect("send");
    let mut reply = String::new();
    r.read_line(&mut reply).expect("reply");
    assert!(reply.ends_with('\n'), "daemon hung up on: {line}");
    reply
}

#[test]
fn closed_loop_advances_are_not_held_back_by_nagle() {
    // one session, 120 sequential advances, each sent only after the
    // previous reply arrived: a reply split over two writes would cost
    // the client's delayed ACK (~40 ms) on each of them
    let served = Served::start(2);
    let stream = served.connect();
    let mut w = stream.try_clone().expect("clone");
    let mut r = BufReader::new(stream);
    let open = roundtrip(
        &mut w,
        &mut r,
        r#"{"cmd":"open","sid":"s","engine":"fluid","topology":"fig3","strategy":"urp","horizon_secs":30,"seed":7}"#,
    );
    assert!(open.starts_with("{\"ok\":true"), "{open}");
    let feed = roundtrip(
        &mut w,
        &mut r,
        r#"{"cmd":"feed","sid":"s","flow":1,"src":"1","dst":"4","chunks":400,"start_secs":0}"#,
    );
    assert!(feed.starts_with("{\"ok\":true"), "{feed}");

    let mut rtt_ms = Vec::new();
    for k in 1..=120 {
        let line = format!(
            "{{\"cmd\":\"advance\",\"sid\":\"s\",\"to_secs\":{}}}",
            f64::from(k) * 0.01
        );
        let t0 = Instant::now();
        let reply = roundtrip(&mut w, &mut r, &line);
        rtt_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        assert!(reply.starts_with("{\"ok\":true"), "{reply}");
    }
    rtt_ms.sort_by(f64::total_cmp);
    let median = rtt_ms[rtt_ms.len() / 2];
    assert!(
        median < 10.0,
        "median advance round trip {median:.2} ms (delayed-ACK stall is ~40 ms)"
    );

    let close = roundtrip(&mut w, &mut r, r#"{"cmd":"close","sid":"s"}"#);
    assert!(close.starts_with("{\"ok\":true"), "{close}");
    drop((w, r));
    served.shutdown();
}

#[test]
fn over_long_request_line_gets_a_limit_error_and_a_closed_connection() {
    let served = Served::start(1);
    let stream = served.connect();
    let mut w = stream.try_clone().expect("clone");
    let mut r = BufReader::new(stream);
    let open = roundtrip(
        &mut w,
        &mut r,
        r#"{"cmd":"open","engine":"fluid","topology":"fig3","strategy":"urp","horizon_secs":5}"#,
    );
    assert!(open.starts_with("{\"ok\":true"), "{open}");

    // 2 MiB with no newline, from its own thread: the daemon stops
    // reading at the cap, so this write may fail once it hangs up
    let flood = std::thread::spawn(move || {
        let _ = w.write_all(&vec![b'x'; 2 * MAX_LINE_BYTES]);
    });
    let mut reply = String::new();
    r.read_line(&mut reply).expect("limit reply");
    assert!(
        reply.starts_with("{\"ok\":false,\"kind\":\"limit\"") && reply.ends_with('\n'),
        "limit reply: {reply}"
    );
    // then the daemon ends the connection
    let mut rest = Vec::new();
    let end = r.read_to_end(&mut rest);
    assert!(
        rest.is_empty() && end.map_or(true, |n| n == 0),
        "nothing follows the limit reply: {:?}",
        String::from_utf8_lossy(&rest)
    );
    flood.join().expect("flood thread");

    // the daemon serves new connections, and the dropped connection's
    // session was torn down
    let stream = served.connect();
    let mut w = stream.try_clone().expect("clone");
    let mut r = BufReader::new(stream);
    let stats = roundtrip(&mut w, &mut r, r#"{"cmd":"stats"}"#);
    assert!(
        stats.contains("\"sessions_open\":0") && stats.contains("\"sessions_closed\":1"),
        "{stats}"
    );
    drop((w, r));
    served.shutdown();
}
