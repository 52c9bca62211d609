//! Graceful drain: shutdown while a request is in flight must let that
//! request finish and deliver its full response, close idle keep-alive
//! connections promptly, refuse new connections cleanly (no half-baked
//! HTTP answers), and leave the admission ledger balanced with the
//! open-connection gauge at zero.
//!
//! The in-flight window is made deterministic without fault injection:
//! the in-flight client holds back the last byte of its request body
//! until the drain has begun (observed as the idle connection closing),
//! then sends it.

use serve::{serve, ModelBundle, Provenance, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

#[test]
fn drain_finishes_in_flight_work_and_refuses_new_connections() {
    let data = microarray::synth::presets::all_aml(31).scaled_down(40).generate();
    let bundle = ModelBundle::train(&data, Provenance::new("drain", Some(31))).unwrap();
    let row: Vec<String> = data.row(0).iter().map(|v| format!("{v}")).collect();
    let body = format!("{{\"values\":[{}]}}", row.join(","));

    let handle = serve(
        ServerConfig {
            threads: 2,
            drain_timeout: Duration::from_secs(10),
            ..ServerConfig::default()
        },
        bundle,
    )
    .unwrap();
    let addr = handle.addr();

    // Client A: a keep-alive request sent all but its last body byte,
    // so it is mid-read when the drain begins.
    let mut in_flight = TcpStream::connect(addr).expect("connect");
    in_flight.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let head =
        format!("POST /classify HTTP/1.1\r\nhost: drain\r\ncontent-length: {}\r\n\r\n", body.len());
    let (body_start, last_byte) = body.as_bytes().split_at(body.len() - 1);
    in_flight.write_all(head.as_bytes()).unwrap();
    in_flight.write_all(body_start).unwrap();

    // Client B: idle keep-alive connection with nothing written — the
    // drain must close it immediately rather than wait it out.
    let mut idle = TcpStream::connect(addr).expect("connect");
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // Give the loop time to read client A's partial request.
    std::thread::sleep(Duration::from_millis(100));

    let drainer = std::thread::spawn(move || handle.shutdown());

    // The idle connection is closed without a fabricated response. This
    // read returns only once the drain has begun.
    let mut buffer = [0u8; 1];
    assert!(
        !matches!(idle.read(&mut buffer), Ok(n) if n > 0),
        "idle connection received bytes during drain"
    );

    // Client A's request completes only now, inside the drain.
    in_flight.write_all(last_byte).unwrap();

    // New connections are refused cleanly while draining: either the
    // connect itself fails (listener gone) or the socket never receives
    // an HTTP answer — the OS backlog may accept, the server must not.
    assert!(connect_is_refused(addr), "server answered a connection made after drain began");

    // The in-flight request completes with its full, well-formed answer.
    let mut reader = BufReader::new(in_flight);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("in-flight response status");
    let status: u16 =
        status_line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    assert_eq!(status, 200, "in-flight request must finish: {status_line:?}");
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end().to_ascii_lowercase();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap();
        }
    }
    let mut payload = vec![0u8; content_length];
    reader.read_exact(&mut payload).expect("full in-flight body");
    let payload = String::from_utf8(payload).unwrap();
    assert!(payload.contains("\"prediction\""), "truncated drain response: {payload}");

    // After the drain the ledger is settled: nothing open, nothing
    // unaccounted.
    let snapshot = drainer.join().expect("shutdown thread");
    assert_eq!(snapshot.conns_open, 0, "connections leaked across shutdown");
    assert_eq!(
        snapshot.conns_accepted,
        snapshot.conns_handled + snapshot.conns_shed,
        "ledger unbalanced: {snapshot:?}"
    );
    assert!(snapshot.conns_accepted >= 2, "both test connections must be accounted");
}

/// `true` when a fresh connection gets no HTTP answer: connect refused
/// outright, or accepted by the OS backlog but closed without bytes.
fn connect_is_refused(addr: SocketAddr) -> bool {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return true;
    };
    let _ = stream.write_all(b"GET /health HTTP/1.1\r\nconnection: close\r\n\r\n");
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let mut buffer = [0u8; 1];
    !matches!(stream.read(&mut buffer), Ok(n) if n > 0)
}
