//! Chaos harness: hammers a live server with a mixed hostile workload
//! (valid one-shot, valid keep-alive, malformed, oversized, half-open,
//! slow-writer clients, concurrent reloads) while deterministic faults
//! are injected at the named chaos sites — panics in classify, in
//! kernel groups and while building classify answers, I/O errors on the write path, stalls in reload — and
//! then *measures* that the fault-tolerance story holds:
//!
//! * every connection reached a terminal outcome (response or clean
//!   close) — nothing hung, nothing was silently dropped;
//! * `/health` still answers 200;
//! * every injected panic was isolated, and every compute thread is
//!   still alive;
//! * the admission ledger balances: accepted = handled + shed.
//!
//! Build with `--features chaos` (CI does); without the feature this
//! file compiles to nothing and `cargo test` is unaffected.
#![cfg(feature = "chaos")]

use serve::chaos::{self, Fault, Trigger};
use serve::{serve, serve_models, ModelBundle, Provenance, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

const WORKERS: usize = 4;

/// Chaos state is process-global and both tests in this binary arm and
/// clear sites, so they must not overlap: each takes this gate first.
static CHAOS_GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    CHAOS_GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn dataset(seed: u64) -> microarray::ContinuousDataset {
    microarray::synth::presets::all_aml(seed).scaled_down(40).generate()
}

fn boot() -> (ServerHandle, PathBuf, Vec<f64>) {
    let data = dataset(23);
    let bundle = ModelBundle::train(&data, Provenance::new("chaos", Some(23))).unwrap();
    let row = data.row(0).to_vec();
    let path = std::env::temp_dir().join(format!("bstc_chaos_bundle_{}.json", std::process::id()));
    bundle.save(&path).unwrap();
    let handle = serve(
        ServerConfig {
            threads: WORKERS,
            queue_depth: 64,
            request_timeout: Some(Duration::from_millis(1000)),
            drain_timeout: Duration::from_secs(5),
            bundle_path: Some(path.clone()),
            ..ServerConfig::default()
        },
        bundle,
    )
    .unwrap();
    (handle, path, row)
}

/// Terminal outcome of one client connection. There is deliberately no
/// "hung" variant: a read timeout panics the client thread and fails
/// the test, because a hang is exactly what the server must not do.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Outcome {
    Status(u16),
    /// The server closed without a response (legal only under injected
    /// write faults or mid-write kills).
    ClosedByServer,
}

/// One-shot request: fresh connection, `connection: close`, full write,
/// then read the outcome. Panics (= test failure) on a client-side read
/// timeout, i.e. a server hang.
fn one_shot(addr: SocketAddr, method: &str, path: &str, body: &str) -> Outcome {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: chaos\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    read_outcome(stream)
}

fn read_outcome(stream: TcpStream) -> Outcome {
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    match reader.read_line(&mut status_line) {
        Ok(0) => Outcome::ClosedByServer,
        Ok(_) => {
            let status: u16 = status_line
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("garbled status line '{status_line}'"));
            // Drain the rest so the server never sees us as a slow reader.
            let mut rest = Vec::new();
            let _ = reader.read_to_end(&mut rest);
            Outcome::Status(status)
        }
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            panic!("client read timed out: the server hung a connection")
        }
        Err(_) => Outcome::ClosedByServer,
    }
}

fn assert_allowed(outcome: Outcome, allowed: &[u16], who: &str) {
    match outcome {
        Outcome::ClosedByServer => {} // injected write fault
        Outcome::Status(s) => {
            assert!(allowed.contains(&s), "{who}: unexpected status {s} (allowed {allowed:?})")
        }
    }
}

#[test]
fn mixed_workload_with_injected_faults_leaves_the_server_healthy() {
    let _gate = gate();
    let (handle, bundle_path, row) = boot();
    let addr = handle.addr();
    let classify_body = {
        let values: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
        format!("{{\"values\":[{}]}}", values.join(","))
    };

    // Deterministic fault plan (fixed seeds → reproducible fire streams).
    chaos::inject("classify", Fault::Panic, Trigger::Probability { p: 0.05, seed: 1234 });
    chaos::inject("write", Fault::IoError, Trigger::Probability { p: 0.05, seed: 5678 });
    chaos::inject("reload", Fault::Delay(Duration::from_millis(100)), Trigger::EveryNth(2));
    // Kernel groups panic too: member jobs must resolve as 500s, never
    // hang or kill their compute thread.
    chaos::inject("batcher", Fault::Panic, Trigger::EveryNth(25));
    // So does building an answer after the kernel: that request alone
    // gets a 500, and the rest of its batch is answered normally.
    chaos::inject("respond", Fault::Panic, Trigger::Probability { p: 0.05, seed: 4321 });

    std::thread::scope(|scope| {
        // 1. Valid one-shot clients.
        for t in 0..4 {
            let classify_body = &classify_body;
            scope.spawn(move || {
                for _ in 0..60 {
                    let outcome = one_shot(addr, "POST", "/classify", classify_body);
                    assert_allowed(outcome, &[200, 500, 503, 408], &format!("one-shot-{t}"));
                }
            });
        }
        // 2. Valid keep-alive clients (reconnect when a fault closes them).
        for t in 0..2 {
            let classify_body = &classify_body;
            scope.spawn(move || {
                let mut conn: Option<BufReader<TcpStream>> = None;
                for _ in 0..30 {
                    let mut reader = conn.take().unwrap_or_else(|| {
                        let s = TcpStream::connect(addr).expect("connect");
                        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                        BufReader::new(s)
                    });
                    let head = format!(
                        "POST /classify HTTP/1.1\r\nhost: chaos\r\ncontent-length: {}\r\n\r\n",
                        classify_body.len()
                    );
                    let sent = reader
                        .get_mut()
                        .write_all(head.as_bytes())
                        .and_then(|()| reader.get_mut().write_all(classify_body.as_bytes()));
                    if sent.is_err() {
                        continue; // stale conn: retry on a fresh one
                    }
                    let mut status_line = String::new();
                    match reader.read_line(&mut status_line) {
                        Ok(0) | Err(_) => continue, // injected fault closed us
                        Ok(_) => {}
                    }
                    let status: u16 = status_line
                        .split_whitespace()
                        .nth(1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(0);
                    assert!(
                        [200, 500, 503, 408].contains(&status),
                        "keep-alive-{t}: unexpected status {status}"
                    );
                    // Consume headers + body to stay a well-behaved peer.
                    let mut content_length = 0usize;
                    loop {
                        let mut line = String::new();
                        if reader.read_line(&mut line).unwrap_or(0) == 0 {
                            break;
                        }
                        let line = line.trim_end().to_ascii_lowercase();
                        if line.is_empty() {
                            break;
                        }
                        if let Some(v) = line.strip_prefix("content-length:") {
                            content_length = v.trim().parse().unwrap_or(0);
                        }
                    }
                    let mut body = vec![0u8; content_length];
                    if reader.read_exact(&mut body).is_ok() && status == 200 {
                        conn = Some(reader); // server kept it open
                    }
                }
            });
        }
        // 3. Malformed clients.
        for t in 0..2 {
            scope.spawn(move || {
                for i in 0..30 {
                    let garbage: &[u8] = match i % 3 {
                        0 => b"THIS IS NOT HTTP AT ALL\r\n\r\n",
                        1 => b"POST /classify HTTP/1.1\r\nno colon\r\n\r\n",
                        _ => b"POST /classify HTTP/1.1\r\ncontent-length: 9\r\n\r\n{\"va", // lies
                    };
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                    let _ = stream.write_all(garbage);
                    let _ = stream.shutdown(std::net::Shutdown::Write);
                    assert_allowed(
                        read_outcome(stream),
                        &[400, 503, 408],
                        &format!("malformed-{t}"),
                    );
                }
            });
        }
        // 4. Oversized clients: a declared 17 MiB body is refused before
        // a byte of it is read.
        scope.spawn(move || {
            for _ in 0..10 {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                let head = format!(
                    "POST /classify HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                    17 * 1024 * 1024
                );
                let _ = stream.write_all(head.as_bytes());
                assert_allowed(read_outcome(stream), &[413, 503], "oversized");
            }
        });
        // 5. Slow writers: trickle a head slower than the budget allows.
        for t in 0..2 {
            scope.spawn(move || {
                for _ in 0..2 {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                    for &byte in b"GET /health HTTP/1.1\r\nx-drip: aaaaaaaaaaaaaaaaaaaaaaaa" {
                        if stream.write_all(&[byte]).is_err() {
                            break; // server already timed us out
                        }
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    assert_allowed(read_outcome(stream), &[408, 503], &format!("slow-{t}"));
                }
            });
        }
        // 6. Half-open clients: connect, send nothing, hold, then leave.
        for _ in 0..2 {
            scope.spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                std::thread::sleep(Duration::from_millis(1500));
                drop(stream);
            });
        }
        // 7. Reload hammer (every 2nd reload stalled by injection).
        {
            let bundle_path = &bundle_path;
            scope.spawn(move || {
                for _ in 0..10 {
                    let body = format!("{{\"path\": \"{}\"}}", bundle_path.display());
                    let outcome = one_shot(addr, "POST", "/reload", &body);
                    assert_allowed(outcome, &[200, 500, 503, 408], "reloader");
                    std::thread::sleep(Duration::from_millis(100));
                }
            });
        }
    });

    // Capture fire counts, then disarm so the assertion phase is quiet.
    let classify_fires = chaos::fired("classify");
    let write_fires = chaos::fired("write");
    let reload_fires = chaos::fired("reload");
    let batcher_fires = chaos::fired("batcher");
    let respond_fires = chaos::fired("respond");
    chaos::clear();

    // The fault plan actually exercised every site.
    assert!(classify_fires >= 1, "no classify panics fired");
    assert!(write_fires >= 1, "no write faults fired");
    assert!(reload_fires >= 1, "no reload stalls fired");
    assert!(batcher_fires >= 1, "no batch-execution panics fired");
    assert!(respond_fires >= 1, "no answer-building panics fired");

    // No compute thread died: panics were caught, not fatal.
    let healed = handle.metrics_snapshot();
    assert_eq!(healed.workers_configured, WORKERS as u64);
    assert_eq!(healed.workers_alive, WORKERS as u64, "a compute thread died: {healed:?}");
    assert_eq!(
        healed.panics_caught,
        classify_fires + respond_fires,
        "every classify and answer-building panic must be isolated"
    );
    // Batch executions actually ran and every injected kernel-group
    // panic was isolated by its catch_unwind.
    assert!(healed.batches_executed >= 1, "no batches executed: {healed:?}");
    assert_eq!(healed.batch_panics, batcher_fires, "every batch panic must be isolated");

    // Liveness after the storm.
    assert_eq!(one_shot(addr, "GET", "/health", ""), Outcome::Status(200));

    // The ledgers balance once the queues drain: accepted = handled +
    // shed (no connection silently dropped), and every classify job
    // handed to a kernel pass was answered exactly once (predictions, or
    // a 500 after an injected group panic — no strands, no
    // double-completions).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = handle.metrics_snapshot();
        if snap.conns_accepted == snap.conns_handled + snap.conns_shed
            && snap.batch_jobs_submitted == snap.batch_jobs_completed
        {
            break;
        }
        assert!(Instant::now() < deadline, "ledger never balanced: {snap:?}");
        std::thread::sleep(Duration::from_millis(50));
    }

    // Each compute thread takes itself off the alive gauge as it exits.
    let settled = handle.shutdown();
    assert_eq!(settled.workers_alive, 0, "alive gauge after shutdown: {settled:?}");
    std::fs::remove_file(&bundle_path).ok();
}

/// Faults injected at the `event_loop` site — forced EAGAIN (the loop
/// pretends the socket is not ready), short reads/writes (1 byte per
/// syscall), and hard I/O errors — while a storm of valid, keep-alive,
/// malformed, and vanishing clients runs. Level-triggered readiness
/// must absorb the fake EAGAINs (the event re-fires), short I/O must
/// only slow things down, and errors must close exactly that one
/// connection. Afterwards nothing may be leaked (the open-connection
/// gauge returns to zero), the ledger must balance, and no client may
/// ever observe two responses to one request.
#[test]
fn event_loop_io_faults_never_leak_or_double_answer() {
    let _gate = gate();
    let (handle, bundle_path, row) = boot();
    let addr = handle.addr();
    let classify_body = {
        let values: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
        format!("{{\"values\":[{}]}}", values.join(","))
    };

    // One phase per I/O shape the site supports; each must actually fire.
    for (phase, (fault, trigger)) in [
        (Fault::Eagain, Trigger::Probability { p: 0.2, seed: 42 }),
        (Fault::ShortIo, Trigger::Probability { p: 0.2, seed: 43 }),
        (Fault::IoError, Trigger::Probability { p: 0.03, seed: 44 }),
    ]
    .into_iter()
    .enumerate()
    {
        chaos::inject("event_loop", fault, trigger);
        std::thread::scope(|scope| {
            // Valid one-shot clients, each auditing for a double answer:
            // the full byte stream of a `connection: close` exchange may
            // contain at most one status line.
            for t in 0..3 {
                let classify_body = &classify_body;
                scope.spawn(move || {
                    for _ in 0..20 {
                        let mut stream = TcpStream::connect(addr).expect("connect");
                        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                        let head = format!(
                            "POST /classify HTTP/1.1\r\nhost: chaos\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
                            classify_body.len()
                        );
                        let _ = stream.write_all(head.as_bytes());
                        let _ = stream.write_all(classify_body.as_bytes());
                        let mut text = String::new();
                        let mut reader = BufReader::new(stream);
                        match reader.read_to_string(&mut text) {
                            Err(e)
                                if matches!(
                                    e.kind(),
                                    std::io::ErrorKind::WouldBlock
                                        | std::io::ErrorKind::TimedOut
                                ) =>
                            {
                                panic!("oneshot-{t}: server hung a connection")
                            }
                            _ => {}
                        }
                        let answers = text.matches("HTTP/1.1 ").count();
                        assert!(answers <= 1, "oneshot-{t}: double answer:\n{text}");
                        if answers == 1 {
                            let status: u16 = text
                                .split_whitespace()
                                .nth(1)
                                .and_then(|s| s.parse().ok())
                                .unwrap_or(0);
                            assert!(
                                [200, 500, 503, 408].contains(&status),
                                "oneshot-{t}: unexpected status {status}"
                            );
                        }
                    }
                });
            }
            // Keep-alive clients: reconnect whenever a fault closes them.
            for t in 0..2 {
                let classify_body = &classify_body;
                scope.spawn(move || {
                    let mut conn: Option<BufReader<TcpStream>> = None;
                    for _ in 0..15 {
                        let mut reader = conn.take().unwrap_or_else(|| {
                            let s = TcpStream::connect(addr).expect("connect");
                            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                            BufReader::new(s)
                        });
                        let head = format!(
                            "POST /classify HTTP/1.1\r\nhost: chaos\r\ncontent-length: {}\r\n\r\n",
                            classify_body.len()
                        );
                        let sent = reader
                            .get_mut()
                            .write_all(head.as_bytes())
                            .and_then(|()| reader.get_mut().write_all(classify_body.as_bytes()));
                        if sent.is_err() {
                            continue;
                        }
                        let mut status_line = String::new();
                        match reader.read_line(&mut status_line) {
                            Ok(0) | Err(_) => continue,
                            Ok(_) => {}
                        }
                        let status: u16 = status_line
                            .split_whitespace()
                            .nth(1)
                            .and_then(|s| s.parse().ok())
                            .unwrap_or(0);
                        assert!(
                            [200, 500, 503, 408].contains(&status),
                            "keepalive-{t}: unexpected status {status}"
                        );
                        let mut content_length = 0usize;
                        loop {
                            let mut line = String::new();
                            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                                break;
                            }
                            let line = line.trim_end().to_ascii_lowercase();
                            if line.is_empty() {
                                break;
                            }
                            if let Some(v) = line.strip_prefix("content-length:") {
                                content_length = v.trim().parse().unwrap_or(0);
                            }
                        }
                        let mut body = vec![0u8; content_length];
                        if reader.read_exact(&mut body).is_ok() && status == 200 {
                            conn = Some(reader);
                        }
                    }
                });
            }
            // Malformed clients under I/O faults.
            scope.spawn(move || {
                for i in 0..15 {
                    let garbage: &[u8] = match i % 2 {
                        0 => b"NOT HTTP\r\n\r\n",
                        _ => b"POST /classify HTTP/1.1\r\nno colon\r\n\r\n",
                    };
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                    let _ = stream.write_all(garbage);
                    let _ = stream.shutdown(std::net::Shutdown::Write);
                    assert_allowed(read_outcome(stream), &[400, 503, 408], "malformed");
                }
            });
            // Vanishing clients: write half a head and disappear — the
            // loop must reap these, not leak them.
            scope.spawn(move || {
                for _ in 0..8 {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    let _ = stream.write_all(b"GET /health HTTP/1.1\r\nx-gone");
                    drop(stream);
                    std::thread::sleep(Duration::from_millis(20));
                }
            });
        });
        // `inject` resets the site's counters, so each phase is measured
        // on its own.
        assert!(chaos::fired("event_loop") >= 1, "phase {phase} never fired its event_loop fault");
    }
    chaos::clear_site("event_loop");

    // Liveness after the storm.
    assert_eq!(one_shot(addr, "GET", "/health", ""), Outcome::Status(200));

    // Nothing leaked: every connection reaches a terminal state (the
    // open gauge returns to the one-shot health check having closed),
    // and the admission ledger balances.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = handle.metrics_snapshot();
        if snap.conns_open == 0 && snap.conns_accepted == snap.conns_handled + snap.conns_shed {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "connections leaked or ledger unbalanced: open={} accepted={} handled={} shed={}",
            snap.conns_open,
            snap.conns_accepted,
            snap.conns_handled,
            snap.conns_shed
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    handle.shutdown();
    std::fs::remove_file(&bundle_path).ok();
}

/// One generation of a tiny two-gene model whose class names carry a
/// generation tag, so any served label identifies exactly which version
/// produced it.
fn generation_bundle(tag: &str) -> ModelBundle {
    let data = microarray::ContinuousDataset::new(
        vec!["gA".into(), "gB".into()],
        vec![format!("{tag}-neg"), format!("{tag}-pos")],
        vec![
            vec![1.0, 5.0],
            vec![1.2, 3.0],
            vec![0.8, 5.5],
            vec![1.1, 2.9],
            vec![9.0, 5.1],
            vec![9.2, 3.2],
            vec![8.9, 5.2],
            vec![9.1, 3.1],
        ],
        vec![0, 0, 0, 0, 1, 1, 1, 1],
    )
    .unwrap();
    ModelBundle::train(&data, Provenance::new(tag, None)).unwrap()
}

/// Parses the `"label"` fields out of a batch-classify response body
/// without a full JSON parser (the bodies are machine-generated and the
/// labels match `[A-Za-z0-9-]+`).
fn labels_of(body: &str) -> Vec<String> {
    let mut labels = Vec::new();
    let mut rest = body;
    while let Some(at) = rest.find("\"label\":") {
        rest = &rest[at + 8..];
        let Some(open) = rest.find('"') else { break };
        rest = &rest[open + 1..];
        let Some(close) = rest.find('"') else { break };
        labels.push(rest[..close].to_string());
        rest = &rest[close + 1..];
    }
    labels
}

/// Faults injected at the `registry` site — i/o errors and stalls in
/// the version-swap path, panics during lazy compilation — while
/// traffic interleaves with per-model reload hammers that flip each
/// model's artifact between two generations with *disjoint* label
/// sets. The atomicity claim is measured directly: every successful
/// batch response's labels must all belong to exactly one generation,
/// i.e. no request is ever answered by a half-swapped model; and the
/// admission ledger must still balance afterwards.
#[test]
fn registry_faults_never_expose_a_half_swapped_model() {
    let _gate = gate();
    let models_dir =
        std::env::temp_dir().join(format!("bstc_chaos_registry_{}", std::process::id()));
    let gens_dir = models_dir.join("generations");
    std::fs::create_dir_all(&gens_dir).unwrap();

    // Model "a" flips between generations a1/a2, "b" between b1/b2.
    let mut gen_paths = std::collections::HashMap::new();
    for (model, gens) in [("a", ["a1", "a2"]), ("b", ["b1", "b2"])] {
        for tag in gens {
            let path = gens_dir.join(format!("{tag}.bundle"));
            generation_bundle(tag).save(&path).unwrap();
            gen_paths.insert(tag, path);
        }
        std::fs::copy(&gen_paths[gens[0]], models_dir.join(format!("{model}.json"))).unwrap();
    }

    let handle = serve_models(ServerConfig {
        threads: WORKERS,
        queue_depth: 64,
        request_timeout: Some(Duration::from_millis(1000)),
        drain_timeout: Duration::from_secs(5),
        models_dir: Some(models_dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr();
    let batch_body = "{\"samples\":[[1.0,5.0],[9.0,5.1],[1.2,3.0]]}";

    // Three storm phases, one per fault kind the site supports. The
    // i/o error surfaces in `swap` (failed reloads, old version keeps
    // serving); the delay stalls both swap and lazy compile; the panic
    // fires inside the handler's catch_unwind at either site.
    let mut phase_fires = Vec::new();
    for (fault, trigger) in [
        (Fault::IoError, Trigger::EveryNth(3)),
        (Fault::Delay(Duration::from_millis(50)), Trigger::EveryNth(2)),
        (Fault::Panic, Trigger::EveryNth(7)),
    ] {
        chaos::inject("registry", fault, trigger);
        std::thread::scope(|scope| {
            // Traffic: batch classifies against both models; every 200
            // must answer from exactly one generation's label set.
            for t in 0..3 {
                scope.spawn(move || {
                    for i in 0..16 {
                        let model = ["a", "b"][(t + i) % 2];
                        let path = format!("/v1/models/{model}/classify");
                        let outcome = one_shot(addr, "POST", &path, batch_body);
                        match outcome {
                            Outcome::Status(200) => {}
                            other => {
                                assert_allowed(
                                    other,
                                    &[500, 503, 408],
                                    &format!("registry-traffic-{t}"),
                                );
                                continue;
                            }
                        }
                    }
                });
            }
            // Label auditors: same traffic but keeping the body, so the
            // generation-set invariant is actually checked.
            for t in 0..2 {
                scope.spawn(move || {
                    for i in 0..10 {
                        let model = ["a", "b"][(t + i) % 2];
                        let path = format!("/v1/models/{model}/classify");
                        let (status, body) = one_shot_with_body(addr, "POST", &path, batch_body);
                        if status != 200 {
                            assert!(
                                [500, 503, 408].contains(&status),
                                "auditor-{t}: unexpected status {status}"
                            );
                            continue;
                        }
                        let labels = labels_of(&body);
                        assert_eq!(labels.len(), 3, "auditor-{t}: {body}");
                        let gen_of = |l: &str| l.split('-').next().unwrap().to_string();
                        let first = gen_of(&labels[0]);
                        assert!(
                            first.starts_with(model),
                            "auditor-{t}: model {model} answered with {labels:?}"
                        );
                        assert!(
                            labels.iter().all(|l| gen_of(l) == first),
                            "half-swapped answer: labels {labels:?} mix generations"
                        );
                    }
                });
            }
            // Reload hammers: flip each model's artifact between its two
            // generations and swap, concurrently with the traffic.
            for (model, gens) in [("a", ["a1", "a2"]), ("b", ["b1", "b2"])] {
                let gen_paths = &gen_paths;
                let models_dir = &models_dir;
                scope.spawn(move || {
                    for k in 0..8 {
                        let live = models_dir.join(format!("{model}.json"));
                        std::fs::copy(&gen_paths[gens[k % 2]], &live).unwrap();
                        let path = format!("/v1/models/{model}/reload");
                        let outcome = one_shot(addr, "POST", &path, "{}");
                        assert_allowed(
                            outcome,
                            &[200, 409, 500, 503, 408],
                            &format!("reloader-{model}"),
                        );
                        std::thread::sleep(Duration::from_millis(30));
                    }
                });
            }
        });
        phase_fires.push(chaos::fired("registry"));
    }
    chaos::clear_site("registry");
    for (i, fires) in phase_fires.iter().enumerate() {
        assert!(*fires >= 1, "phase {i} never fired its registry fault");
    }

    // Liveness, then the ledgers balance once the queues drain.
    assert_eq!(one_shot(addr, "GET", "/health", ""), Outcome::Status(200));
    for model in ["a", "b"] {
        let (status, body) =
            one_shot_with_body(addr, "POST", &format!("/v1/models/{model}/classify"), batch_body);
        assert_eq!(status, 200, "{model} dead after the storm: {body}");
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = handle.metrics_snapshot();
        if snap.conns_accepted == snap.conns_handled + snap.conns_shed
            && snap.batch_jobs_submitted == snap.batch_jobs_completed
        {
            break;
        }
        assert!(Instant::now() < deadline, "ledger never balanced: {snap:?}");
        std::thread::sleep(Duration::from_millis(50));
    }

    handle.shutdown();
    std::fs::remove_dir_all(&models_dir).ok();
}

/// Like [`one_shot`] but returns the response body too (0 status means
/// the server closed without responding).
fn one_shot_with_body(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: chaos\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    match reader.read_line(&mut status_line) {
        Ok(0) | Err(_) => return (0, String::new()),
        Ok(_) => {}
    }
    let status: u16 =
        status_line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim_end().to_ascii_lowercase();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap_or(0);
        }
    }
    let mut buf = vec![0u8; content_length];
    let _ = std::io::Read::read_exact(&mut reader, &mut buf);
    (status, String::from_utf8_lossy(&buf).into_owned())
}
