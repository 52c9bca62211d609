//! Mixed-model traffic under cross-connection batching: two registered
//! models with *different query widths* are interleaved on a single
//! keep-alive connection and across concurrent connections while a
//! single compute thread coalesces the backlog from both models into the
//! same batches. Every batch must be partitioned by bundle —
//! never feeding one model's rows through the other's kernel — and each
//! response must carry the right `x-model` tag, the right `x-batch-id`
//! evidence, and that connection's own prediction.

use serde_json::Value;
use serve::{serve_models, ModelBundle, Provenance, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

fn fmt_row(row: &[f64]) -> String {
    let inner: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
    format!("[{}]", inner.join(","))
}

struct KeepAliveResponse {
    status: u16,
    request_id: Option<String>,
    batch_id: Option<String>,
    model: Option<String>,
    body: String,
}

fn read_keepalive_response(reader: &mut BufReader<TcpStream>) -> KeepAliveResponse {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line.split_whitespace().nth(1).expect("status").parse().unwrap();
    let (mut request_id, mut batch_id, mut model) = (None, None, None);
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
        } else if let Some(v) = lower.strip_prefix("x-model:") {
            model = Some(v.trim().to_string());
        } else if let Some(v) = lower.strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap();
        }
    }
    let mut body = vec![0u8; content_length];
    std::io::Read::read_exact(reader, &mut body).expect("body");
    KeepAliveResponse {
        status,
        request_id,
        batch_id,
        model,
        body: String::from_utf8(body).unwrap(),
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bstc_mixed_models_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn interleaved_models_batch_without_mixing_widths() {
    const CLIENTS: usize = 6;
    const REQUESTS: usize = 24;
    let narrow = microarray::synth::presets::all_aml(61).scaled_down(40).generate();
    let wide = microarray::synth::presets::lung(67).scaled_down(40).generate();
    let narrow_bundle = ModelBundle::train(&narrow, Provenance::new("narrow", Some(61))).unwrap();
    let wide_bundle = ModelBundle::train(&wide, Provenance::new("wide", Some(67))).unwrap();
    assert_ne!(
        narrow_bundle.n_genes(),
        wide_bundle.n_genes(),
        "the two models must have different query widths"
    );

    let dir = tmp_dir("interleave");
    narrow_bundle.save(dir.join("narrow.json")).unwrap();
    wide_bundle.save(dir.join("wide.json")).unwrap();
    let handle = serve_models(ServerConfig {
        // One compute thread: while it runs a batch, the other
        // clients' requests for *both* models pile up in the queue and
        // coalesce into its next batch.
        threads: 1,
        models_dir: Some(dir.clone()),
        max_batch: 16,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr();

    let models = [("narrow", &narrow, &narrow_bundle), ("wide", &wide, &wide_bundle)];
    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            let models = &models;
            scope.spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                let mut reader = BufReader::new(stream);
                for i in 0..REQUESTS {
                    // Each client alternates models request-by-request,
                    // staggered by client index so at any instant both
                    // models are in flight fleet-wide.
                    let (name, data, bundle) = models[(t + i) % 2];
                    let s = (t * 31 + i * 7) % data.n_samples();
                    let body = format!("{{\"values\":{}}}", fmt_row(data.row(s)));
                    let id = format!("client{t}-req{i}");
                    // One write per request: a head and body sent apart stall on
                    // Nagle plus delayed ACK (~40 ms each).
                    let request = format!(
                        "POST /v1/models/{name}/classify HTTP/1.1\r\nhost: test\r\n\
                         x-request-id: {id}\r\ncontent-length: {}\r\n\r\n{body}",
                        body.len()
                    );
                    reader.get_mut().write_all(request.as_bytes()).unwrap();
                    let response = read_keepalive_response(&mut reader);
                    assert_eq!(response.status, 200, "{}", response.body);
                    assert_eq!(response.request_id.as_deref(), Some(id.as_str()));
                    assert!(response.batch_id.is_some(), "missing x-batch-id");
                    // The response was served by the named model...
                    assert_eq!(
                        response.model.as_deref(),
                        Some(format!("{name}@v1").as_str()),
                        "wrong x-model tag"
                    );
                    // ...and carries *that* model's prediction for this
                    // row — a width mix-up could not produce it.
                    let served: Value = serde_json::from_str(&response.body).unwrap();
                    let p = served.get("prediction").unwrap();
                    let local = bundle.classify_row(data.row(s)).unwrap();
                    assert_eq!(
                        p.get("class").unwrap().as_u64(),
                        Some(local.class as u64),
                        "client {t} request {i} ({name}) got someone else's answer"
                    );
                    assert_eq!(p.get("label").unwrap().as_str(), Some(local.label.as_str()));
                    assert_eq!(p.get("confidence").unwrap().as_f64(), Some(local.confidence));
                }
            });
        }
    });

    let snap = handle.metrics_snapshot();
    // The jobs really coalesced across connections...
    assert_eq!(snap.batch_jobs_submitted, (CLIENTS * REQUESTS) as u64);
    assert_eq!(snap.batch_jobs_submitted, snap.batch_jobs_completed);
    assert!(
        snap.batches_executed < snap.batch_jobs_submitted,
        "no coalescing happened: {} batches for {} jobs",
        snap.batches_executed,
        snap.batch_jobs_submitted
    );
    // ...and with both models alternating in every batch, at least one
    // batch held jobs for both bundles and was partitioned (each switch
    // is one extra per-model group in a mixed batch).
    assert!(snap.batch_model_switches >= 1, "no mixed-model batch was ever partitioned: {snap:?}");
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
