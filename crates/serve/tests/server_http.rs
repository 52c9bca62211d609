//! End-to-end test of the inference server over real sockets: boots on an
//! ephemeral port, speaks actual HTTP, and checks that served predictions
//! are bit-identical to in-process `ModelBundle::classify_row`.

use serde_json::Value;
use serve::{serve, ModelBundle, Provenance, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

fn dataset(seed: u64) -> microarray::ContinuousDataset {
    microarray::synth::presets::all_aml(seed).scaled_down(40).generate()
}

fn bundle(seed: u64, name: &str) -> ModelBundle {
    ModelBundle::train(&dataset(seed), Provenance::new(name, Some(seed))).unwrap()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bstc_serve_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// One-shot HTTP client: `(status, body)` with `Connection: close`.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line.split_whitespace().nth(1).expect("status").parse().unwrap();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        if line.trim_end().is_empty() {
            break;
        }
    }
    let mut body = String::new();
    reader.read_to_string(&mut body).unwrap();
    (status, body)
}

fn json(body: &str) -> Value {
    serde_json::from_str(body).unwrap_or_else(|e| panic!("bad JSON '{body}': {e}"))
}

fn fmt_row(row: &[f64]) -> String {
    let inner: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
    format!("[{}]", inner.join(","))
}

#[test]
fn full_server_lifecycle_over_real_sockets() {
    let bundle_a = bundle(11, "dataset-a");
    let path = tmp("live_bundle.json");
    bundle_a.save(&path).unwrap();

    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 3,
        bundle_path: Some(path.clone()),
        ..ServerConfig::default()
    };
    let handle = serve(config, bundle_a.clone()).unwrap();
    let addr = handle.addr();

    // -- health & model metadata ------------------------------------
    let (status, body) = request(addr, "GET", "/health", "");
    assert_eq!(status, 200);
    assert_eq!(json(&body).get("status").unwrap().as_str(), Some("ok"));

    let (status, body) = request(addr, "GET", "/model", "");
    assert_eq!(status, 200);
    let meta = json(&body);
    assert_eq!(meta.get("format_version").unwrap().as_u64(), Some(serve::FORMAT_VERSION));
    assert_eq!(meta.get("n_genes").unwrap().as_u64(), Some(bundle_a.n_genes() as u64));
    assert_eq!(meta.get("provenance").unwrap().get("dataset").unwrap().as_str(), Some("dataset-a"));

    // -- single classify matches the in-process model bit-for-bit ---
    let data = dataset(11);
    for s in 0..data.n_samples() {
        let row = data.row(s);
        let (status, body) =
            request(addr, "POST", "/classify", &format!("{{\"values\":{}}}", fmt_row(row)));
        assert_eq!(status, 200, "{body}");
        let served = json(&body);
        let p = served.get("prediction").unwrap();
        let local = bundle_a.classify_row(row).unwrap();
        assert_eq!(p.get("class").unwrap().as_u64(), Some(local.class as u64));
        assert_eq!(p.get("label").unwrap().as_str(), Some(local.label.as_str()));
        let served_values: Vec<f64> = p
            .get("values")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        assert_eq!(served_values, local.values, "sample {s}");
        assert_eq!(p.get("confidence").unwrap().as_f64(), Some(local.confidence));
    }

    // -- batch classify: all rows at once, same answers --------------
    let rows: Vec<String> = (0..data.n_samples()).map(|s| fmt_row(data.row(s))).collect();
    let (status, body) =
        request(addr, "POST", "/classify", &format!("{{\"samples\":[{}]}}", rows.join(",")));
    assert_eq!(status, 200, "{body}");
    let served = json(&body);
    let predictions = served.get("predictions").unwrap().as_array().unwrap().to_vec();
    assert_eq!(predictions.len(), data.n_samples());
    for (s, p) in predictions.iter().enumerate() {
        let local = bundle_a.classify_row(data.row(s)).unwrap();
        assert_eq!(p.get("class").unwrap().as_u64(), Some(local.class as u64), "sample {s}");
    }

    // -- malformed requests are structured 4xx, never disconnects ----
    for (body_text, want_status, want_code) in [
        ("{", 400, "bad_json"),
        ("{\"values\": 3}", 400, "bad_vector"),
        ("{\"values\": [1.0]}", 400, "wrong_length"),
        ("{}", 400, "bad_request"),
    ] {
        let (status, body) = request(addr, "POST", "/classify", body_text);
        assert_eq!(status, want_status, "{body_text} -> {body}");
        assert_eq!(json(&body).get("error").unwrap().as_str(), Some(want_code), "{body_text}");
    }
    let (status, _) = request(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "DELETE", "/classify", "");
    assert_eq!(status, 405);

    // -- hot reload swaps the model without dropping the server ------
    bundle(13, "dataset-b").save(&path).unwrap();
    let (status, body) = request(addr, "POST", "/reload", "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(json(&body).get("reloaded").unwrap().as_bool(), Some(true));
    let (_, body) = request(addr, "GET", "/model", "");
    assert_eq!(
        json(&body).get("provenance").unwrap().get("dataset").unwrap().as_str(),
        Some("dataset-b")
    );

    // -- a corrupt file fails the reload (409) and keeps the old model
    std::fs::write(&path, "{ not a bundle").unwrap();
    let (status, body) = request(addr, "POST", "/reload", "");
    assert_eq!(status, 409, "{body}");
    assert_eq!(json(&body).get("error").unwrap().as_str(), Some("reload_failed"));
    let (_, body) = request(addr, "GET", "/model", "");
    assert_eq!(
        json(&body).get("provenance").unwrap().get("dataset").unwrap().as_str(),
        Some("dataset-b"),
        "failed reload must not unload the serving model"
    );

    // -- a bundle corrupted mid-flight (payload flipped after the
    // checksum was computed, as a half-written file would look) is a
    // 409 and keeps the old model too --------------------------------
    let good = bundle(19, "dataset-c").to_json().unwrap();
    std::fs::write(&path, good.replace("\"dataset\":\"dataset-c\"", "\"dataset\":\"dataset-X\""))
        .unwrap();
    let (status, body) = request(addr, "POST", "/reload", "");
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("checksum"), "{body}");
    let (_, body) = request(addr, "GET", "/model", "");
    assert_eq!(
        json(&body).get("provenance").unwrap().get("dataset").unwrap().as_str(),
        Some("dataset-b"),
        "mid-flight corruption must not unload the serving model"
    );

    // -- a missing bundle file is the server's fault: 500 -------------
    let (status, body) =
        request(addr, "POST", "/reload", "{\"path\": \"/nonexistent/bundle.json\"}");
    assert_eq!(status, 500, "{body}");
    assert_eq!(json(&body).get("error").unwrap().as_str(), Some("reload_failed"));

    // -- metrics reflect the traffic this test generated -------------
    let (status, text) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(text.contains("bstc_requests_total{route=\"/classify\"}"), "{text}");
    assert!(text.contains("bstc_samples_classified_total"), "{text}");
    assert!(text.contains("bstc_model_reloads_total 1"), "{text}");
    assert!(text.contains("bstc_model_reload_failures_total 3"), "{text}");
    assert!(text.contains("bstc_workers{state=\"configured\"} 3"), "{text}");
    assert!(text.contains("bstc_workers{state=\"alive\"} 3"), "{text}");
    assert!(text.contains("bstc_panics_caught_total 0"), "{text}");
    assert!(text.contains("bstc_connections_total{event=\"accepted\"}"), "{text}");
    assert!(text.contains("bstc_classify_latency_us_bucket{le=\"+Inf\"}"), "{text}");
    let classified: u64 = text
        .lines()
        .find(|l| l.starts_with("bstc_samples_classified_total"))
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap()
        .parse()
        .unwrap();
    // Every single + one batch of all samples; errors classified nothing.
    assert_eq!(classified, 2 * data.n_samples() as u64);

    // -- graceful shutdown: joins cleanly, then refuses new work -----
    handle.shutdown();
    assert!(
        TcpStream::connect(addr).is_err() || request_after_shutdown(addr),
        "server still answering after shutdown"
    );
}

/// Wraps a payload in an envelope whose checksum (FNV-1a 64 over the
/// payload text) matches it — what a hand edit that recomputes the hash
/// produces.
fn reseal(payload: &str) -> String {
    let hash = payload
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3));
    format!(
        "{{\"format_version\":{},\"checksum\":\"fnv1a64:{hash:016x}\",\"bundle\":{payload}}}",
        serve::FORMAT_VERSION
    )
}

#[test]
fn resealed_bundle_with_a_bad_item_id_is_a_409_and_the_old_version_serves_on() {
    let bundle_a = bundle(11, "dataset-a");
    let path = tmp("resealed_bundle.json");
    bundle_a.save(&path).unwrap();
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        bundle_path: Some(path.clone()),
        ..ServerConfig::default()
    };
    let handle = serve(config, bundle_a.clone()).unwrap();
    let addr = handle.addr();

    // Control: the untouched payload, resealed, reloads fine and reports
    // the same checksum the in-memory bundle computes.
    let envelope = bundle(13, "dataset-b").to_json().unwrap();
    let payload = &envelope[envelope.find("\"bundle\":").unwrap() + 9..envelope.len() - 1];
    std::fs::write(&path, reseal(payload)).unwrap();
    let (status, body) = request(addr, "POST", "/reload", "");
    assert_eq!(status, 200, "{body}");
    let reloaded = json(&body);
    let good_checksum = reloaded.get("checksum").unwrap().as_str().unwrap().to_string();
    assert_eq!(good_checksum, bundle(13, "dataset-b").content_checksum().unwrap());

    // The same payload with one exclusion-list item id pushed past the
    // item universe: the checksum matches, the structure does not.
    let tampered = payload.replacen("\"items\":\"", "\"items\":\"fffff", 1);
    std::fs::write(&path, reseal(&tampered)).unwrap();
    let (status, body) = request(addr, "POST", "/reload", "");
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("out of range"), "{body}");

    let (_, body) = request(addr, "GET", "/model", "");
    let meta = json(&body);
    assert_eq!(meta.get("version").unwrap().as_u64(), Some(2), "{body}");
    assert_eq!(meta.get("checksum").unwrap().as_str(), Some(good_checksum.as_str()));
    let row = dataset(11).row(0).to_vec();
    let (status, body) =
        request(addr, "POST", "/classify", &format!("{{\"values\":{}}}", fmt_row(&row)));
    assert_eq!(status, 200, "the previous version keeps serving: {body}");
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// After shutdown the listener is gone; a racing connect may still be
/// accepted by the OS backlog but must never get an HTTP answer.
fn request_after_shutdown(addr: SocketAddr) -> bool {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return true;
    };
    let _ = stream.write_all(b"GET /health HTTP/1.1\r\nconnection: close\r\n\r\n");
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(500)));
    let mut buffer = [0u8; 1];
    !matches!(stream.read(&mut buffer), Ok(n) if n > 0)
}

/// Reads a response head: `(status, lowercased header block)`.
fn read_head(reader: &mut BufReader<TcpStream>) -> (u16, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line.split_whitespace().nth(1).expect("status").parse().unwrap();
    let mut headers = String::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        if line.trim_end().is_empty() {
            break;
        }
        headers.push_str(&line.to_ascii_lowercase());
    }
    (status, headers)
}

/// Decodes a chunked response body: hex-sized chunks until the `0`
/// terminator, then trailers up to the blank line.
fn read_chunked_body(reader: &mut BufReader<TcpStream>) -> String {
    let mut body = Vec::new();
    loop {
        let mut size_line = String::new();
        reader.read_line(&mut size_line).unwrap();
        let size = usize::from_str_radix(size_line.trim(), 16)
            .unwrap_or_else(|e| panic!("bad chunk size line {size_line:?}: {e}"));
        if size == 0 {
            break;
        }
        let mut chunk = vec![0u8; size];
        reader.read_exact(&mut chunk).unwrap();
        body.extend_from_slice(&chunk);
        let mut crlf = [0u8; 2];
        reader.read_exact(&mut crlf).unwrap();
        assert_eq!(&crlf, b"\r\n", "chunk data must end with CRLF");
    }
    loop {
        let mut trailer = String::new();
        reader.read_line(&mut trailer).unwrap();
        if trailer.trim_end().is_empty() {
            break;
        }
    }
    String::from_utf8(body).unwrap()
}

#[test]
fn large_responses_stream_chunked_and_round_trip() {
    // A server booted with a tiny chunk threshold streams ordinary
    // responses chunked; the decoded body must be the same JSON a
    // content-length response would carry, and the connection must stay
    // usable for a follow-up request (keep-alive + chunked compose).
    let b = bundle(29, "chunked");
    let handle = serve(
        ServerConfig { threads: 2, chunk_threshold: 256, ..ServerConfig::default() },
        b.clone(),
    )
    .unwrap();
    let addr = handle.addr();
    let data = dataset(29);

    let rows: Vec<String> = (0..data.n_samples()).map(|s| fmt_row(data.row(s))).collect();
    let body = format!("{{\"samples\":[{}]}}", rows.join(","));

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    let head =
        format!("POST /classify HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n", body.len());
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);

    let (status, headers) = read_head(&mut reader);
    assert_eq!(status, 200);
    assert!(headers.contains("transfer-encoding: chunked"), "not chunked:\n{headers}");
    assert!(!headers.contains("content-length"), "chunked must drop content-length:\n{headers}");
    let decoded = read_chunked_body(&mut reader);
    let served = json(&decoded);
    let predictions = served.get("predictions").unwrap().as_array().unwrap();
    assert_eq!(predictions.len(), data.n_samples());
    for (s, p) in predictions.iter().enumerate() {
        let local = b.classify_row(data.row(s)).unwrap();
        assert_eq!(p.get("class").unwrap().as_u64(), Some(local.class as u64), "sample {s}");
    }

    // Follow-up on the same socket: a small response arrives with
    // content-length framing, proving the threshold gates the streaming.
    let follow = "GET /health HTTP/1.1\r\nhost: test\r\nconnection: close\r\n\r\n";
    reader.get_mut().write_all(follow.as_bytes()).unwrap();
    let (status, headers) = read_head(&mut reader);
    assert_eq!(status, 200);
    assert!(headers.contains("content-length"), "small response must not chunk:\n{headers}");
    handle.shutdown();
}

#[test]
fn concurrent_clients_get_consistent_answers() {
    let b = bundle(17, "concurrent");
    let handle = serve(ServerConfig { threads: 4, ..ServerConfig::default() }, b.clone()).unwrap();
    let addr = handle.addr();
    let data = dataset(17);

    std::thread::scope(|scope| {
        for t in 0..8 {
            let b = &b;
            let data = &data;
            scope.spawn(move || {
                for i in 0..20 {
                    let s = (t + i) % data.n_samples();
                    let (status, body) = request(
                        addr,
                        "POST",
                        "/classify",
                        &format!("{{\"values\":{}}}", fmt_row(data.row(s))),
                    );
                    assert_eq!(status, 200, "{body}");
                    let served = json(&body);
                    let expected = b.classify_row(data.row(s)).unwrap();
                    assert_eq!(
                        served.get("prediction").unwrap().get("class").unwrap().as_u64(),
                        Some(expected.class as u64)
                    );
                }
            });
        }
    });
    handle.shutdown();
}
