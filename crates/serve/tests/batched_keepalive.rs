//! Response routing under cross-connection batching: several keep-alive
//! clients pipeline distinct rows concurrently into a single compute
//! thread, whose backlog coalesces into shared batch executions, and
//! every response must come back on the *right*
//! connection — correct echoed `x-request-id`, correct prediction for
//! that connection's row — with the `x-batch-id` header proving the
//! answers really were served out of shared batches.

use serde_json::Value;
use serve::{serve, ModelBundle, Provenance, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

fn dataset(seed: u64) -> microarray::ContinuousDataset {
    microarray::synth::presets::all_aml(seed).scaled_down(40).generate()
}

fn fmt_row(row: &[f64]) -> String {
    let inner: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
    format!("[{}]", inner.join(","))
}

/// One keep-alive response: status, echoed request id, batch id, body.
struct KeepAliveResponse {
    status: u16,
    request_id: Option<String>,
    batch_id: Option<String>,
    body: String,
}

fn read_keepalive_response(reader: &mut BufReader<TcpStream>) -> KeepAliveResponse {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line.split_whitespace().nth(1).expect("status").parse().unwrap();
    let mut request_id = None;
    let mut batch_id = None;
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let lower = line.to_ascii_lowercase();
        if let Some(v) = lower.strip_prefix("x-request-id:") {
            request_id = Some(v.trim().to_string());
        } else if let Some(v) = lower.strip_prefix("x-batch-id:") {
            batch_id = Some(v.trim().to_string());
        } else if let Some(v) = lower.strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap();
        }
    }
    let mut body = vec![0u8; content_length];
    std::io::Read::read_exact(reader, &mut body).expect("body");
    KeepAliveResponse { status, request_id, batch_id, body: String::from_utf8(body).unwrap() }
}

#[test]
fn keepalive_clients_get_their_own_answers_under_concurrent_batching() {
    const CLIENTS: usize = 6;
    const REQUESTS: usize = 25;
    let data = dataset(29);
    let bundle = ModelBundle::train(&data, Provenance::new("batched", Some(29))).unwrap();
    let handle = serve(
        ServerConfig {
            // One compute thread: while it runs a batch, the other
            // clients' requests pile up in the queue and coalesce into
            // its next batch.
            threads: 1,
            max_batch: 16,
            ..ServerConfig::default()
        },
        bundle.clone(),
    )
    .unwrap();
    let addr = handle.addr();

    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            let data = &data;
            let bundle = &bundle;
            scope.spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                let mut reader = BufReader::new(stream);
                for i in 0..REQUESTS {
                    let s = (t * 31 + i * 7) % data.n_samples();
                    let body = format!("{{\"values\":{}}}", fmt_row(data.row(s)));
                    let id = format!("client{t}-req{i}");
                    // One write per request: a head and body sent apart stall on
                    // Nagle plus delayed ACK (~40 ms each).
                    let request = format!(
                        "POST /classify HTTP/1.1\r\nhost: test\r\nx-request-id: {id}\r\n\
                         content-length: {}\r\n\r\n{body}",
                        body.len()
                    );
                    reader.get_mut().write_all(request.as_bytes()).unwrap();
                    let response = read_keepalive_response(&mut reader);
                    assert_eq!(response.status, 200, "{}", response.body);
                    // The response on this connection is for *this*
                    // request of *this* client...
                    assert_eq!(response.request_id.as_deref(), Some(id.as_str()));
                    // ...was served out of a batch execution...
                    assert!(response.batch_id.is_some(), "missing x-batch-id");
                    // ...and carries this row's prediction, not a
                    // batchmate's.
                    let served: Value = serde_json::from_str(&response.body).unwrap();
                    let p = served.get("prediction").unwrap();
                    let local = bundle.classify_row(data.row(s)).unwrap();
                    assert_eq!(
                        p.get("class").unwrap().as_u64(),
                        Some(local.class as u64),
                        "client {t} request {i} got a batchmate's answer"
                    );
                    assert_eq!(p.get("confidence").unwrap().as_f64(), Some(local.confidence));
                }
            });
        }
    });

    // The jobs really coalesced: more jobs than batch executions, and
    // every submitted job was resolved exactly once.
    let snap = handle.metrics_snapshot();
    assert_eq!(snap.batch_jobs_submitted, (CLIENTS * REQUESTS) as u64);
    assert_eq!(snap.batch_jobs_submitted, snap.batch_jobs_completed);
    assert!(
        snap.batches_executed < snap.batch_jobs_submitted,
        "no coalescing happened: {} batches for {} jobs",
        snap.batches_executed,
        snap.batch_jobs_submitted
    );
    handle.shutdown();
}
