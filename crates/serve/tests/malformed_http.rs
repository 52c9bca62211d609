//! Malformed-HTTP corpus: every hostile byte stream a real network
//! delivers — truncated heads, colon-less headers, oversized heads,
//! lying or duplicated Content-Length, early EOF mid-body, broken or
//! absurd chunked framing, trickled slow-loris heads — must produce the
//! *exact* expected status code, and the (single!) worker must survive
//! to serve the next request.
//!
//! The server runs with `threads: 1`, so the follow-up `/health` after
//! each case is handled by the very worker that just absorbed the
//! malformed input: a crash or a wedged read would fail the next case.

use serve::{serve, ModelBundle, Provenance, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

fn boot() -> ServerHandle {
    let data = microarray::synth::presets::all_aml(5).scaled_down(40).generate();
    let bundle = ModelBundle::train(&data, Provenance::new("corpus", Some(5))).unwrap();
    serve(
        ServerConfig {
            threads: 1,
            request_timeout: Some(Duration::from_millis(900)),
            ..ServerConfig::default()
        },
        bundle,
    )
    .unwrap()
}

/// Writes raw bytes, half-closes, and reads back the status line (0 when
/// the server closed without answering).
fn send_raw(addr: SocketAddr, raw: &[u8]) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Writes may fail once the server has already rejected and closed
    // (e.g. the oversized head) — the response is still readable.
    let _ = stream.write_all(raw);
    let _ = stream.shutdown(Shutdown::Write);
    read_status(&mut stream)
}

fn read_status(stream: &mut TcpStream) -> u16 {
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    if reader.read_line(&mut status_line).unwrap_or(0) == 0 {
        return 0;
    }
    status_line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0)
}

fn health_ok(addr: SocketAddr) -> bool {
    send_raw(addr, b"GET /health HTTP/1.1\r\nconnection: close\r\n\r\n") == 200
}

#[test]
fn corpus_gets_exact_statuses_and_the_worker_survives_each_case() {
    let handle = boot();
    let addr = handle.addr();

    let huge_head = {
        let mut head = b"GET /health HTTP/1.1\r\n".to_vec();
        for i in 0..2000 {
            head.extend_from_slice(format!("x-pad-{i}: {}\r\n", "y".repeat(64)).as_bytes());
        }
        head.extend_from_slice(b"\r\n");
        head
    };
    let oversized_body =
        format!("POST /classify HTTP/1.1\r\ncontent-length: {}\r\n\r\n", 17 * 1024 * 1024);

    let corpus: Vec<(&str, Vec<u8>, u16)> = vec![
        ("truncated request line", b"GET /he".to_vec(), 400),
        ("empty request line", b"\r\n".to_vec(), 400),
        ("header without colon", b"GET /health HTTP/1.1\r\nno colon here\r\n\r\n".to_vec(), 400),
        ("unsupported protocol", b"GET / SPDY/3\r\n\r\n".to_vec(), 400),
        ("huge head", huge_head, 413),
        (
            "non-numeric content-length",
            b"POST /classify HTTP/1.1\r\ncontent-length: soup\r\n\r\n".to_vec(),
            400,
        ),
        (
            "signed content-length",
            b"POST /classify HTTP/1.1\r\ncontent-length: +5\r\n\r\nhello".to_vec(),
            400,
        ),
        (
            "conflicting content-lengths",
            b"POST /classify HTTP/1.1\r\ncontent-length: 4\r\ncontent-length: 6\r\n\r\nbody!!"
                .to_vec(),
            400,
        ),
        (
            "duplicate agreeing content-lengths",
            b"POST /classify HTTP/1.1\r\ncontent-length: 4\r\ncontent-length: 4\r\n\r\nbody"
                .to_vec(),
            400,
        ),
        (
            "JSON number with a leading zero",
            b"POST /classify HTTP/1.1\r\ncontent-length: 15\r\n\r\n{\"values\":[01]}".to_vec(),
            400,
        ),
        (
            "early EOF mid-body",
            b"POST /classify HTTP/1.1\r\ncontent-length: 50\r\n\r\n{\"values\"".to_vec(),
            400,
        ),
        ("declared body too large", oversized_body.into_bytes(), 413),
        (
            "transfer-encoding with content-length (smuggling shape)",
            b"POST /classify HTTP/1.1\r\ntransfer-encoding: chunked\r\ncontent-length: 4\r\n\r\nbody"
                .to_vec(),
            400,
        ),
        (
            "non-chunked transfer-encoding",
            b"POST /classify HTTP/1.1\r\ntransfer-encoding: gzip\r\n\r\n".to_vec(),
            501,
        ),
        (
            "non-hex chunk size",
            b"POST /classify HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\nzz\r\nbody\r\n0\r\n\r\n"
                .to_vec(),
            400,
        ),
        (
            "chunk data without terminating CRLF",
            b"POST /classify HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n4\r\nbodyX0\r\n\r\n"
                .to_vec(),
            400,
        ),
        (
            "absurd chunk size",
            b"POST /classify HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\nffffffff\r\n".to_vec(),
            413,
        ),
        (
            "truncated chunked body (EOF mid-chunk)",
            b"POST /classify HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n10\r\nonly-som".to_vec(),
            400,
        ),
    ];

    for (name, raw, expected) in corpus {
        let status = send_raw(addr, &raw);
        assert_eq!(status, expected, "case '{name}'");
        assert!(health_ok(addr), "worker died after case '{name}'");
    }

    let snapshot = handle.metrics_snapshot();
    assert_eq!(snapshot.workers_alive, 1, "the single worker must still be alive");
    assert_eq!(snapshot.conns_accepted, snapshot.conns_handled + snapshot.conns_shed);
    handle.shutdown();
}

#[test]
fn deeply_nested_json_is_a_400_not_a_stack_overflow() {
    // A stack overflow cannot be caught: unbounded parser recursion on a
    // megabyte of `[` would abort the whole process. Both JSON-reading
    // routes must refuse it as bad_json and keep serving.
    let handle = boot();
    let addr = handle.addr();
    let body = vec![b'['; 1_000_000];
    for route in ["/classify", "/reload"] {
        let mut raw = format!(
            "POST {route} HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
            body.len()
        )
        .into_bytes();
        raw.extend_from_slice(&body);
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(&raw).expect("write");
        let mut response = String::new();
        use std::io::Read as _;
        let _ = stream.read_to_string(&mut response);
        assert!(response.starts_with("HTTP/1.1 400"), "{route}: unexpected response:\n{response}");
        assert!(response.contains("bad_json"), "{route}: wrong error code:\n{response}");
        assert!(health_ok(addr), "server died after deeply nested JSON on {route}");
    }
    handle.shutdown();
}

#[test]
fn a_body_of_short_strings_cannot_hold_the_worker() {
    // JSON string scanning must be linear: a body just under the size
    // cap made of ~64-byte strings is parsed (and refused) in well under
    // a second, where a scan that re-validates the rest of the input per
    // character would pin the only worker for hours.
    let handle = boot();
    let addr = handle.addr();
    let element = format!("\"{}\",", "s".repeat(64));
    let n = (serve::http::MAX_BODY_BYTES - 2) / element.len();
    let mut body = String::with_capacity(n * element.len() + 2);
    body.push('[');
    for _ in 0..n {
        body.push_str(&element);
    }
    body.pop();
    body.push(']');
    assert!(
        body.len() > serve::http::MAX_BODY_BYTES - 128 && body.len() <= serve::http::MAX_BODY_BYTES
    );

    let started = std::time::Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    // The budget covers a debug build on a slow host; the parse itself
    // takes milliseconds in release.
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let head = format!(
        "POST /classify HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    let status = read_status(&mut stream);
    let elapsed = started.elapsed();
    assert!((400..500).contains(&status), "expected a 4xx, got {status} after {elapsed:?}");
    assert!(elapsed < Duration::from_secs(30), "took {elapsed:?}");
    assert!(health_ok(addr), "worker still pinned after the string-heavy body");
    handle.shutdown();
}

#[test]
fn chunked_body_is_never_reparsed_as_a_second_request() {
    // The desync shape: a chunked POST whose decoded body is itself a
    // well-formed GET. The parser owns the chunk framing end to end, so
    // those bytes are *body* — handed to /classify (where they fail as
    // JSON) — and never replayed as a second request. Exactly one
    // response must come back.
    let handle = boot();
    let addr = handle.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Keep-alive connection; the chunked "body" is a smuggled request.
    let smuggled = b"POST /classify HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n\
                     2a\r\nGET /model HTTP/1.1\r\nconnection: close\r\n\r\n\r\n0\r\n\r\n";
    stream.write_all(smuggled).expect("write");
    let _ = stream.shutdown(Shutdown::Write);

    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("read status line");
    let status: u16 =
        status_line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    assert_eq!(status, 400, "decoded chunk body is not JSON: {status_line:?}");

    // Drain the rest of the 400; the connection must then close without
    // ever answering the smuggled GET (a second status line would be the
    // desync).
    let mut rest = String::new();
    while reader.read_line(&mut rest).unwrap_or(0) > 0 {}
    assert!(!rest.contains("HTTP/1.1 200"), "smuggled GET was answered — response desync:\n{rest}");

    assert!(health_ok(addr), "worker died on the chunked request");
    handle.shutdown();
}

#[test]
fn chunked_request_bodies_round_trip() {
    // The positive half of the chunked story: a well-formed chunked
    // POST decodes into exactly the declared payload and classifies
    // like its content-length twin, with the connection still usable.
    let handle = boot();
    let addr = handle.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // `{"nope": 1}` split across two chunks with an extension and a
    // trailer: every chunked-framing feature in one request. The body
    // reaches /classify intact, which answers its structured 400
    // (bad_request: no 'values'/'samples') — proof the payload was
    // decoded and dispatched, not refused at the framing layer.
    let chunked = b"POST /classify HTTP/1.1\r\ntransfer-encoding: chunked\r\n\
                    connection: close\r\n\r\n\
                    6;ext=1\r\n{\"nope\r\n5\r\n\": 1}\r\n0\r\nx-trailer: ignored\r\n\r\n";
    stream.write_all(chunked).expect("write");
    let _ = stream.shutdown(Shutdown::Write);

    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    use std::io::Read as _;
    let _ = reader.read_to_string(&mut response);
    assert!(response.starts_with("HTTP/1.1 400"), "unexpected response:\n{response}");
    assert!(response.contains("bad_request"), "body must have reached the handler:\n{response}");

    assert!(health_ok(addr), "server unusable after the chunked request");
    handle.shutdown();
}

#[test]
fn slow_loris_head_times_out_with_408_and_frees_the_worker() {
    let handle = boot();
    let addr = handle.addr();

    // Trickle a syntactically fine head one byte at a time, slower than
    // the budget allows but faster than any single socket poll — the old
    // server would sit on this worker forever.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(15))).unwrap();
    let head = b"GET /health HTTP/1.1\r\nx-slow: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa";
    let started = std::time::Instant::now();
    let mut wrote_all = true;
    for &byte in head {
        if stream.write_all(&[byte]).is_err() {
            // The server already gave up on us mid-trickle: also a pass.
            wrote_all = false;
            break;
        }
        std::thread::sleep(Duration::from_millis(60));
        if started.elapsed() > Duration::from_secs(5) {
            break;
        }
    }
    if wrote_all {
        let status = read_status(&mut stream);
        // 408 when the response still got through; 0 when the server
        // closed the socket while bytes were in flight. Either way the
        // hold was bounded.
        assert!(status == 408 || status == 0, "unexpected status {status}");
    }
    drop(stream);

    // The single worker is free again and answers promptly.
    assert!(health_ok(addr), "worker still pinned after the slow-loris client");
    let snapshot = handle.metrics_snapshot();
    assert_eq!(snapshot.workers_alive, 1);
    assert!(snapshot.request_timeouts >= 1, "the trickled request must have timed out");
    handle.shutdown();
}
