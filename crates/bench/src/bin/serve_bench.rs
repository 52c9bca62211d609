//! Load generator for the BSTC inference server: hammers `POST /classify`
//! from a fixed number of keep-alive connections and reports throughput
//! and the p50/p90/p99/max latency of complete request/response cycles.
//!
//! ```text
//! serve_bench [--addr HOST:PORT] [--requests N] [--concurrency C]
//!             [--batch B] [--seed S] [--scale K] [--json]
//!             [--max-batch N] [--model NAME]
//!             [--overload | --compare-batching | --shadow-overhead
//!              | --idle-connections N]
//! ```
//!
//! `--json` additionally writes the measurements to `BENCH_serve.json`.
//!
//! Without `--addr` it is self-contained: it trains a bundle on synthetic
//! ALL/AML data, boots the server in-process on an ephemeral port, drives
//! the load, and shuts the server down — so `cargo run --release -p
//! bench-suite --bin serve_bench` measures an end-to-end stack with no
//! setup. With `--addr` it targets an already-running `bstc-cli serve`.
//!
//! Every run also scrapes `GET /metrics` at the end and embeds the
//! **server-side** `bstc_request_duration_us{route="/classify"}`
//! percentiles next to the client-measured ones. A closed-loop client
//! under-samples slow periods (coordinated omission: it cannot issue
//! requests while stuck waiting on one), so a client p99 far below the
//! server p99 is a measurement artifact — the report flags it.
//!
//! `--overload` (self-contained only) measures behavior *past* capacity:
//! the server boots with a deliberately tiny compute stage (2 threads,
//! queue depth 2) and the load uses one-shot `connection: close` requests
//! so every request passes through admission. The report then covers the
//! shed rate, that every 503 carried `Retry-After`, and how far
//! saturation pushed the p99 of the *accepted* requests versus an
//! unloaded calibration run (taken after a discarded warm-up).
//!
//! `--compare-batching` (self-contained only) measures the model-pass
//! amortization win: the same steady load is driven twice at the default
//! thread count, once with coalescing off (`max_batch 1`) and once with
//! `--max-batch N`, so any coalescing comes from backlog; the report
//! carries both throughputs plus their ratio (`batched_speedup`).
//!
//! `--model NAME` drives `POST /v1/models/NAME/classify` instead of the
//! legacy route — against an external fleet server, the name must be
//! registered there; self-contained, the synthetic bundle is registered
//! under NAME.
//!
//! `--idle-connections N` (self-contained only) is the event-loop soak:
//! it measures a no-idle baseline, parks N idle keep-alive connections,
//! then drives the same live load *through* the parked herd. The report
//! records the process thread count and RSS with the herd attached plus
//! the live p99 next to the baseline p99 — the claim under test is that
//! idle connections cost an fd and a parser state, not a thread, so the
//! run fails if the thread count grew with N or any parked connection
//! was dropped.
//!
//! `--shadow-overhead` (self-contained only) measures what shadow/canary
//! traffic costs the serving path: the same steady load is driven three
//! times against a two-model registry server shadowing `primary` onto
//! `candidate` at 0%, 10%, and 100% sampling, and the report carries the
//! client p99 at each rate plus the deltas over the 0% baseline. The
//! shadow replay is asynchronous (a dedicated thread fed by a bounded
//! drop-on-full queue), so the deltas measure enqueue + row-clone cost,
//! not candidate inference.

use serde::Serialize;
use serve::{serve, ModelBundle, Provenance, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The `--json` report written to `BENCH_serve.json`. Fields that only
/// one mode produces stay at zero in the others.
#[derive(Default, Serialize)]
struct Report {
    mode: String,
    requests: usize,
    concurrency: usize,
    batch: usize,
    elapsed_secs: f64,
    requests_per_sec: f64,
    samples_per_sec: f64,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    max_ms: f64,
    accepted: usize,
    shed: usize,
    shed_rate: f64,
    unloaded_p99_ms: f64,
    saturated_over_unloaded_p99: f64,
    /// Server-side `bstc_request_duration_us{route="/classify"}` p50,
    /// scraped from `/metrics` at run end (0 when the scrape failed).
    server_p50_ms: f64,
    /// Server-side p99 — whole-request wall time as the *server* saw it.
    server_p99_ms: f64,
    /// Requests in the scraped server-side histogram (windowed: last
    /// 1–2 minutes).
    server_requests: u64,
    /// True when the client p99 sits far below the server p99: the
    /// closed-loop client under-sampled slow periods (coordinated
    /// omission), so trust the server percentiles over the client ones.
    coordinated_omission_skew: bool,
    /// `--compare-batching` only: samples/sec with `max_batch 1`.
    unbatched_samples_per_sec: f64,
    /// `--compare-batching` only: samples/sec with `--max-batch N`.
    batched_samples_per_sec: f64,
    /// `--compare-batching` only: batched over unbatched throughput.
    batched_speedup: f64,
    /// `--shadow-overhead` only: client p99 with shadowing off.
    shadow_p99_ms_at_0: f64,
    /// `--shadow-overhead` only: client p99 at 10% shadow sampling.
    shadow_p99_ms_at_10: f64,
    /// `--shadow-overhead` only: client p99 at 100% shadow sampling.
    shadow_p99_ms_at_100: f64,
    /// `--shadow-overhead` only: p99 delta of 10% shadowing over the
    /// 0% baseline (negative values are run-to-run noise).
    shadow_p99_delta_10_ms: f64,
    /// `--shadow-overhead` only: p99 delta of 100% shadowing over 0%.
    shadow_p99_delta_100_ms: f64,
    /// `--idle-connections` only: parked keep-alive connections held
    /// open for the whole live run.
    idle_connections: usize,
    /// `--idle-connections` only: the server's open-connection gauge
    /// with the herd parked (must cover every idle connection).
    idle_open_reported: u64,
    /// `--idle-connections` only: process threads with the herd parked.
    idle_threads: u64,
    /// `--idle-connections` only: threads added over the pre-boot count
    /// — flat in N when the event loop owns the sockets.
    idle_thread_delta: u64,
    /// `--idle-connections` only: process RSS (MiB) with the herd parked.
    idle_rss_mb: f64,
    /// `--idle-connections` only: client p99 with zero idle connections.
    idle_baseline_p99_ms: f64,
    /// `--idle-connections` only: client p99 with the herd parked.
    idle_live_p99_ms: f64,
    /// `--idle-connections` only: live over baseline p99.
    idle_p99_ratio: f64,
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match flag(args, name) {
        None => default,
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("error: bad value '{raw}' for {name}");
            std::process::exit(2);
        }),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let requests: usize = parse_flag(&args, "--requests", 2_000);
    let concurrency: usize = parse_flag(&args, "--concurrency", 8).max(1);
    let batch: usize = parse_flag(&args, "--batch", 1).max(1);
    let seed: u64 = parse_flag(&args, "--seed", 7);
    let scale: usize = parse_flag(&args, "--scale", 40);
    let json = args.iter().any(|a| a == "--json");
    let overload = args.iter().any(|a| a == "--overload");
    let compare = args.iter().any(|a| a == "--compare-batching");
    let shadow_overhead = args.iter().any(|a| a == "--shadow-overhead");
    let idle_connections: usize = parse_flag(&args, "--idle-connections", 0);
    let model = flag(&args, "--model");
    let max_batch: usize = parse_flag(&args, "--max-batch", ServerConfig::default().max_batch);
    if max_batch == 0 {
        eprintln!("error: --max-batch must be at least 1");
        std::process::exit(2);
    }
    if (overload || compare || shadow_overhead || idle_connections > 0)
        && flag(&args, "--addr").is_some()
    {
        eprintln!(
            "error: --overload/--compare-batching/--shadow-overhead/--idle-connections are \
             self-contained; cannot target --addr"
        );
        std::process::exit(2);
    }
    if [overload, compare, shadow_overhead, idle_connections > 0].iter().filter(|m| **m).count() > 1
    {
        eprintln!(
            "error: pick one of --overload, --compare-batching, --shadow-overhead, \
             --idle-connections"
        );
        std::process::exit(2);
    }
    // The classify route this run drives; `--model` goes through the
    // registry route space (server-side it pools into the same
    // `route="/classify"` metric family, so the scrape still works).
    let classify_path = match &model {
        Some(name) => format!("/v1/models/{name}/classify"),
        None => "/classify".to_string(),
    };
    let classify_path = classify_path.as_str();

    // Query rows come from the same synthetic distribution regardless of
    // target mode; against an external server they must still match its
    // gene count, so both sides should use the same --seed/--scale.
    // `--samples` overrides the preset's training-set size: BSTCE
    // inference cost grows ~quadratically with training samples while
    // request parse cost only grows with genes, so more samples shifts
    // the served workload from parse-bound to kernel-bound.
    let samples: usize = parse_flag(&args, "--samples", 0);
    let mut cfg = microarray::synth::presets::all_aml(seed).scaled_down(scale.max(1));
    if samples > 0 {
        cfg.class_sizes = vec![(samples * 2).div_ceil(3), samples / 3];
    }
    let data = cfg.generate();
    let rows: Vec<Vec<f64>> = (0..data.n_samples()).map(|s| data.row(s).to_vec()).collect();

    let train = || {
        ModelBundle::train(&data, Provenance::new("ALL/AML synth", Some(seed))).unwrap_or_else(
            |e| {
                eprintln!("error: training self-contained bundle failed: {e}");
                std::process::exit(1);
            },
        )
    };
    let boot = |config: ServerConfig| {
        serve(config, train()).unwrap_or_else(|e| {
            eprintln!("error: starting in-process server failed: {e}");
            std::process::exit(1);
        })
    };

    let bodies: Vec<String> = rows
        .iter()
        .enumerate()
        .map(|(i, _)| {
            // Round-robin over dataset rows; batches rotate their window.
            let mut sample_rows = Vec::with_capacity(batch);
            for j in 0..batch {
                sample_rows.push(rows[(i + j) % rows.len()].clone());
            }
            if batch == 1 {
                format!("{{\"values\":{}}}", fmt_row(&sample_rows[0]))
            } else {
                format!("{{\"samples\":{}}}", fmt_rows(&sample_rows))
            }
        })
        .collect();

    if idle_connections > 0 {
        // The soak claim: an idle keep-alive connection costs an fd and
        // a parser state, never a thread. A fixed compute stage makes the
        // thread assertion sharp: everything beyond WORKERS + the fixed
        // service threads (the event loop) would mean connections are
        // holding threads again.
        const WORKERS: usize = 4;
        // Event loop + main, with slack for the kernel's worker pool and
        // the runtime's own bookkeeping threads.
        const SERVICE_THREAD_SLACK: u64 = 8;
        let threads_before = proc_status("Threads:").unwrap_or(0);
        // Self-contained: client and server share this process, so each
        // parked connection costs two fds.
        match serve::sys::raise_nofile_limit((2 * idle_connections + 4096) as u64) {
            Ok(limit) if limit < (2 * idle_connections + 256) as u64 => {
                eprintln!(
                    "error: RLIMIT_NOFILE {limit} cannot hold {idle_connections} idle \
                     connections (need ~{})",
                    2 * idle_connections + 256
                );
                std::process::exit(1);
            }
            Ok(_) => {}
            Err(e) => eprintln!("warning: could not raise RLIMIT_NOFILE: {e}"),
        }
        let handle = boot(ServerConfig {
            threads: WORKERS,
            max_connections: idle_connections + 1024,
            max_batch,
            default_model: model.clone(),
            ..ServerConfig::default()
        });
        let addr = handle.addr().to_string();
        eprintln!(
            "serve_bench: IDLE-SOAK — {idle_connections} idle connections, {requests} live \
             requests x batch {batch}, concurrency {concurrency}, {WORKERS} compute threads, \
             target {addr}"
        );

        // Baseline: the same live load with zero idle connections.
        let warmup = (requests / 10).clamp(1, 200);
        run_load(&addr, classify_path, &bodies, warmup, concurrency);
        let (baseline, _) = run_load(&addr, classify_path, &bodies, requests, concurrency);
        let baseline_p99_ms = obs::percentile_of_sorted(&baseline, 0.99) as f64 / 1000.0;

        // Park the herd: open and hold N idle keep-alive connections.
        let mut herd = Vec::with_capacity(idle_connections);
        for i in 0..idle_connections {
            match TcpStream::connect(&addr) {
                Ok(stream) => herd.push(stream),
                Err(e) => {
                    eprintln!("error: idle connection {i} failed: {e}");
                    std::process::exit(1);
                }
            }
            if herd.len() % 256 == 0 {
                // Let the accept loop drain the backlog.
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // The gauge must account for every parked connection before the
        // live run starts.
        let deadline = Instant::now() + Duration::from_secs(30);
        let open_reported = loop {
            let open = handle.metrics_snapshot().conns_open;
            if open >= idle_connections as u64 {
                break open;
            }
            if Instant::now() >= deadline {
                eprintln!("error: only {open} of {idle_connections} idle connections registered");
                std::process::exit(1);
            }
            std::thread::sleep(Duration::from_millis(50));
        };
        let idle_threads = proc_status("Threads:").unwrap_or(0);
        let idle_rss_mb = proc_status("VmRSS:").unwrap_or(0) as f64 / 1024.0;
        let thread_delta = idle_threads.saturating_sub(threads_before);
        eprintln!(
            "herd parked: {open_reported} open connections, {idle_threads} process threads \
             (+{thread_delta} over pre-boot), RSS {idle_rss_mb:.1} MiB"
        );
        if proc_status("Threads:").is_some() && thread_delta > WORKERS as u64 + SERVICE_THREAD_SLACK
        {
            eprintln!(
                "error: {thread_delta} threads added for {idle_connections} idle connections — \
                 connections are holding threads (allowed: {WORKERS} compute threads + \
                 {SERVICE_THREAD_SLACK})"
            );
            std::process::exit(1);
        }

        // Live load through the parked herd.
        let (live, elapsed) = run_load(&addr, classify_path, &bodies, requests, concurrency);
        let live_p99_ms = obs::percentile_of_sorted(&live, 0.99) as f64 / 1000.0;
        let ratio = if baseline_p99_ms > 0.0 { live_p99_ms / baseline_p99_ms } else { 0.0 };

        // No parked connection may have been dropped by the live run.
        let open_after = handle.metrics_snapshot().conns_open;
        if open_after < idle_connections as u64 {
            eprintln!(
                "error: {} idle connections vanished during the live run",
                idle_connections as u64 - open_after
            );
            std::process::exit(1);
        }
        let pct = |p: f64| obs::percentile_of_sorted(&live, p) as f64 / 1000.0;
        let max_ms = *live.last().expect("at least one request") as f64 / 1000.0;
        let throughput = live.len() as f64 / elapsed.as_secs_f64();
        println!(
            "idle-soak: {idle_connections} idle connections held, {idle_threads} threads \
             (+{thread_delta}), RSS {idle_rss_mb:.1} MiB"
        );
        println!(
            "live latency through the herd: p50 {:.3} ms  p90 {:.3} ms  p99 {:.3} ms \
             (baseline p99 {baseline_p99_ms:.3} ms, {ratio:.2}x)",
            pct(0.50),
            pct(0.90),
            live_p99_ms
        );
        let server = scrape_classify_duration(&addr);
        print_server_side(&server, live_p99_ms);
        if json {
            write_report(Report {
                mode: "idle_soak".into(),
                requests: live.len(),
                concurrency,
                batch,
                elapsed_secs: elapsed.as_secs_f64(),
                requests_per_sec: throughput,
                samples_per_sec: throughput * batch as f64,
                p50_ms: pct(0.50),
                p90_ms: pct(0.90),
                p99_ms: live_p99_ms,
                max_ms,
                accepted: live.len(),
                server_p50_ms: server.as_ref().map_or(0.0, |s| s.p50_ms),
                server_p99_ms: server.as_ref().map_or(0.0, |s| s.p99_ms),
                server_requests: server.as_ref().map_or(0, |s| s.count),
                coordinated_omission_skew: co_skew(live_p99_ms, &server),
                idle_connections,
                idle_open_reported: open_reported,
                idle_threads,
                idle_thread_delta: thread_delta,
                idle_rss_mb,
                idle_baseline_p99_ms: baseline_p99_ms,
                idle_live_p99_ms: live_p99_ms,
                idle_p99_ratio: ratio,
                ..Report::default()
            });
        }
        drop(herd);
        handle.shutdown();
        return;
    }

    if overload {
        // A deliberately tiny compute stage and queue so a modest client
        // count drives the server well past capacity.
        let handle = boot(ServerConfig {
            threads: 2,
            queue_depth: 2,
            max_batch,
            default_model: model.clone(),
            ..ServerConfig::default()
        });
        eprintln!("self-contained: overload target on {}", handle.addr());
        run_overload(
            &handle.addr().to_string(),
            classify_path,
            &bodies,
            requests,
            concurrency,
            batch,
            json,
        );
        handle.shutdown();
        return;
    }

    if compare {
        // The default thread count for both runs: with more clients than
        // compute threads, requests back up in the queue, and that
        // backlog is what a compute thread coalesces. Only max_batch
        // differs between the runs.
        let mk = |mb: usize| ServerConfig {
            max_batch: mb,
            default_model: model.clone(),
            ..ServerConfig::default()
        };
        eprintln!(
            "serve_bench: COMPARE — {requests} requests x batch {batch}, concurrency \
             {concurrency}, default compute threads, max-batch 1 vs {max_batch}"
        );
        let warmup = (requests / 10).clamp(1, 200);
        let handle = boot(mk(1));
        let addr = handle.addr().to_string();
        run_load(&addr, classify_path, &bodies, warmup, concurrency);
        let (unbatched, elapsed_u) = run_load(&addr, classify_path, &bodies, requests, concurrency);
        handle.shutdown();
        let unbatched_sps = (unbatched.len() * batch) as f64 / elapsed_u.as_secs_f64();
        eprintln!("unbatched: {unbatched_sps:.1} samples/s in {:.2}s", elapsed_u.as_secs_f64());

        let handle = boot(mk(max_batch));
        let addr = handle.addr().to_string();
        run_load(&addr, classify_path, &bodies, warmup, concurrency);
        let (batched, elapsed_b) = run_load(&addr, classify_path, &bodies, requests, concurrency);
        let server = scrape_classify_duration(&addr);
        handle.shutdown();
        let batched_sps = (batched.len() * batch) as f64 / elapsed_b.as_secs_f64();
        let speedup = batched_sps / unbatched_sps;
        let pct = |p: f64| obs::percentile_of_sorted(&batched, p) as f64 / 1000.0;
        let max_ms = *batched.last().expect("at least one request") as f64 / 1000.0;
        println!(
            "compare-batching: unbatched {unbatched_sps:.1} samples/s, batched \
             {batched_sps:.1} samples/s — {speedup:.2}x amortization win"
        );
        println!(
            "batched latency: p50 {:.3} ms  p90 {:.3} ms  p99 {:.3} ms  max {max_ms:.3} ms",
            pct(0.50),
            pct(0.90),
            pct(0.99),
        );
        print_server_side(&server, pct(0.99));
        if json {
            write_report(Report {
                mode: "compare_batching".into(),
                requests: batched.len(),
                concurrency,
                batch,
                elapsed_secs: elapsed_b.as_secs_f64(),
                requests_per_sec: batched.len() as f64 / elapsed_b.as_secs_f64(),
                samples_per_sec: batched_sps,
                p50_ms: pct(0.50),
                p90_ms: pct(0.90),
                p99_ms: pct(0.99),
                max_ms,
                accepted: batched.len(),
                shed: 0,
                shed_rate: 0.0,
                unloaded_p99_ms: 0.0,
                saturated_over_unloaded_p99: 0.0,
                server_p50_ms: server.as_ref().map_or(0.0, |s| s.p50_ms),
                server_p99_ms: server.as_ref().map_or(0.0, |s| s.p99_ms),
                server_requests: server.as_ref().map_or(0, |s| s.count),
                coordinated_omission_skew: co_skew(pct(0.99), &server),
                unbatched_samples_per_sec: unbatched_sps,
                batched_samples_per_sec: batched_sps,
                batched_speedup: speedup,
                ..Report::default()
            });
        }
        return;
    }

    if shadow_overhead {
        // A two-model registry: `primary` serves the load, `candidate`
        // (same width, different training seed) receives the shadow
        // replays. One boot per sampling rate, identical otherwise.
        let dir =
            std::env::temp_dir().join(format!("bstc_serve_bench_shadow_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| {
            eprintln!("error: cannot create {}: {e}", dir.display());
            std::process::exit(1);
        });
        train().save(dir.join("primary.json")).expect("save primary");
        let candidate_data =
            microarray::synth::presets::all_aml(seed + 1).scaled_down(scale.max(1)).generate();
        ModelBundle::train(&candidate_data, Provenance::new("ALL/AML synth", Some(seed + 1)))
            .expect("train candidate")
            .save(dir.join("candidate.json"))
            .expect("save candidate");
        let threads = concurrency.max(2);
        eprintln!(
            "serve_bench: SHADOW-OVERHEAD — {requests} requests x batch {batch}, concurrency \
             {concurrency}, {threads} workers, shadow primary=candidate at 0%/10%/100%"
        );
        let warmup = (requests / 10).clamp(1, 200);
        let mut measured = Vec::new(); // (percent, sorted latencies, elapsed)
        for percent in [0.0f64, 10.0, 100.0] {
            let handle = serve::serve_models(ServerConfig {
                threads,
                max_batch,
                models_dir: Some(dir.clone()),
                default_model: Some("primary".into()),
                shadows: vec![serve::ShadowSpec::parse(&format!("primary=candidate:{percent}"))
                    .expect("shadow spec")],
                ..ServerConfig::default()
            })
            .unwrap_or_else(|e| {
                eprintln!("error: starting shadow-overhead server failed: {e}");
                std::process::exit(1);
            });
            let addr = handle.addr().to_string();
            run_load(&addr, classify_path, &bodies, warmup, concurrency);
            let (sorted, elapsed) = run_load(&addr, classify_path, &bodies, requests, concurrency);
            let snap = handle.metrics_snapshot();
            handle.shutdown();
            let p99 = obs::percentile_of_sorted(&sorted, 0.99) as f64 / 1000.0;
            eprintln!(
                "shadow {percent:>5.1}%: p99 {p99:.3} ms, {} shadow replays ({} dropped)",
                snap.shadow_requests, snap.shadow_dropped
            );
            measured.push((percent, sorted, elapsed));
        }
        std::fs::remove_dir_all(&dir).ok();
        let p99_of = |i: usize| obs::percentile_of_sorted(&measured[i].1, 0.99) as f64 / 1000.0;
        let (p99_0, p99_10, p99_100) = (p99_of(0), p99_of(1), p99_of(2));
        println!(
            "shadow-overhead: p99 {p99_0:.3} ms at 0% -> {p99_10:.3} ms at 10% \
             (+{:.3} ms) -> {p99_100:.3} ms at 100% (+{:.3} ms)",
            p99_10 - p99_0,
            p99_100 - p99_0
        );
        if json {
            let (_, baseline, elapsed_0) = &measured[0];
            let pct = |p: f64| obs::percentile_of_sorted(baseline, p) as f64 / 1000.0;
            let throughput = baseline.len() as f64 / elapsed_0.as_secs_f64();
            write_report(Report {
                mode: "shadow_overhead".into(),
                requests: baseline.len(),
                concurrency,
                batch,
                elapsed_secs: elapsed_0.as_secs_f64(),
                requests_per_sec: throughput,
                samples_per_sec: throughput * batch as f64,
                p50_ms: pct(0.50),
                p90_ms: pct(0.90),
                p99_ms: pct(0.99),
                max_ms: *baseline.last().expect("at least one request") as f64 / 1000.0,
                accepted: baseline.len(),
                shadow_p99_ms_at_0: p99_0,
                shadow_p99_ms_at_10: p99_10,
                shadow_p99_ms_at_100: p99_100,
                shadow_p99_delta_10_ms: p99_10 - p99_0,
                shadow_p99_delta_100_ms: p99_100 - p99_0,
                ..Report::default()
            });
        }
        return;
    }

    let (addr, handle) = match flag(&args, "--addr") {
        Some(addr) => (addr, None),
        None => {
            let handle = boot(ServerConfig {
                max_batch,
                default_model: model.clone(),
                ..ServerConfig::default()
            });
            eprintln!("self-contained: serving synthetic ALL/AML bundle on {}", handle.addr());
            (handle.addr().to_string(), Some(handle))
        }
    };

    eprintln!(
        "serve_bench: {requests} requests x batch {batch}, concurrency {concurrency}, \
         target {addr}"
    );
    let (sorted, elapsed) = run_load(&addr, classify_path, &bodies, requests, concurrency);
    let total = sorted.len();
    // Shared nearest-rank helper: the old truncating index under-reported
    // p99 for small runs (N=100 read index 98).
    let pct = |p: f64| obs::percentile_of_sorted(&sorted, p) as f64 / 1000.0;
    let throughput = total as f64 / elapsed.as_secs_f64();
    println!(
        "throughput: {throughput:.1} req/s ({:.1} samples/s) over {total} requests in {:.2}s",
        throughput * batch as f64,
        elapsed.as_secs_f64()
    );
    let max_ms = *sorted.last().expect("at least one request") as f64 / 1000.0;
    println!(
        "latency: p50 {:.3} ms  p90 {:.3} ms  p99 {:.3} ms  max {:.3} ms",
        pct(0.50),
        pct(0.90),
        pct(0.99),
        max_ms
    );
    let server = scrape_classify_duration(&addr);
    print_server_side(&server, pct(0.99));

    if json {
        write_report(Report {
            mode: "steady".into(),
            requests: total,
            concurrency,
            batch,
            elapsed_secs: elapsed.as_secs_f64(),
            requests_per_sec: throughput,
            samples_per_sec: throughput * batch as f64,
            p50_ms: pct(0.50),
            p90_ms: pct(0.90),
            p99_ms: pct(0.99),
            max_ms,
            accepted: total,
            server_p50_ms: server.as_ref().map_or(0.0, |s| s.p50_ms),
            server_p99_ms: server.as_ref().map_or(0.0, |s| s.p99_ms),
            server_requests: server.as_ref().map_or(0, |s| s.count),
            coordinated_omission_skew: co_skew(pct(0.99), &server),
            ..Report::default()
        });
    }

    if let Some(handle) = handle {
        handle.shutdown();
    }
}

/// Drives the steady closed-loop keep-alive load. Returns the **sorted**
/// per-request client latencies (µs) and the elapsed wall clock.
fn run_load(
    addr: &str,
    path: &str,
    bodies: &[String],
    requests: usize,
    concurrency: usize,
) -> (Vec<u64>, Duration) {
    let started = Instant::now();
    let per_worker = requests.div_ceil(concurrency);
    let mut latencies_us: Vec<u64> = std::thread::scope(|scope| {
        let mut joins = Vec::with_capacity(concurrency);
        for w in 0..concurrency {
            joins.push(scope.spawn(move || {
                let mut latencies = Vec::with_capacity(per_worker);
                let mut conn = Connection::open(addr);
                for i in 0..per_worker {
                    let body = &bodies[(w * per_worker + i) % bodies.len()];
                    let t0 = Instant::now();
                    let status = conn.post_classify(addr, path, body);
                    latencies.push(t0.elapsed().as_micros() as u64);
                    if status != 200 {
                        eprintln!("error: /classify returned HTTP {status}");
                        std::process::exit(1);
                    }
                }
                latencies
            }));
        }
        joins.into_iter().flat_map(|j| j.join().expect("worker panicked")).collect()
    });
    let elapsed = started.elapsed();
    latencies_us.sort_unstable();
    (latencies_us, elapsed)
}

/// Server-side `/classify` request-duration percentiles, scraped from
/// the target's `/metrics` exposition.
struct ServerHist {
    count: u64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Minimal `GET` returning the response body (`None` on any failure —
/// the scrape is best-effort garnish on the client measurements).
fn http_get(addr: &str, path: &str) -> Option<String> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream);
    let request = format!("GET {path} HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\r\n");
    reader.get_mut().write_all(request.as_bytes()).ok()?;
    let mut text = String::new();
    reader.read_to_string(&mut text).ok()?;
    Some(text.split_once("\r\n\r\n")?.1.to_string())
}

/// Scrapes `bstc_request_duration_us{route="/classify"}` and extracts
/// nearest-rank percentiles from its cumulative buckets. The family is
/// windowed server-side, so this reflects the run just driven, not the
/// server's whole lifetime.
fn scrape_classify_duration(addr: &str) -> Option<ServerHist> {
    let metrics = http_get(addr, "/metrics")?;
    let bucket_prefix = "bstc_request_duration_us_bucket{route=\"/classify\",le=\"";
    let count_prefix = "bstc_request_duration_us_count{route=\"/classify\"}";
    let mut buckets: Vec<(f64, u64)> = Vec::new();
    let mut count = 0u64;
    for line in metrics.lines() {
        if let Some(rest) = line.strip_prefix(bucket_prefix) {
            let (le, tail) = rest.split_once("\"}")?;
            let le: f64 = if le == "+Inf" { f64::INFINITY } else { le.parse().ok()? };
            buckets.push((le, tail.trim().parse().ok()?));
        } else if let Some(rest) = line.strip_prefix(count_prefix) {
            count = rest.trim().parse().ok()?;
        }
    }
    if count == 0 || buckets.is_empty() {
        return None;
    }
    let pct = |p: f64| {
        let rank = ((p * count as f64).ceil() as u64).clamp(1, count);
        buckets
            .iter()
            .find(|(_, cum)| *cum >= rank)
            .map(|(le, _)| *le)
            .filter(|le| le.is_finite())
            // Rank in the +Inf bucket: report the largest finite bound.
            .or_else(|| buckets.iter().rev().map(|(le, _)| *le).find(|le| le.is_finite()))
            .unwrap_or(0.0)
            / 1000.0
    };
    Some(ServerHist { count, p50_ms: pct(0.50), p99_ms: pct(0.99) })
}

/// Coordinated-omission check: the closed-loop client cannot issue
/// requests while one is stuck, so slow periods are under-sampled in
/// its percentiles. A client p99 at less than half the server-observed
/// p99 means the client numbers are too rosy to trust.
fn co_skew(client_p99_ms: f64, server: &Option<ServerHist>) -> bool {
    server.as_ref().is_some_and(|s| s.count > 0 && client_p99_ms * 2.0 < s.p99_ms)
}

fn print_server_side(server: &Option<ServerHist>, client_p99_ms: f64) {
    match server {
        Some(s) => {
            let skew = if co_skew(client_p99_ms, server) {
                "  [WARNING: client p99 << server p99 — coordinated-omission skew, trust the \
                 server numbers]"
            } else {
                ""
            };
            println!(
                "server-side: p50 {:.3} ms  p99 {:.3} ms over {} requests{skew}",
                s.p50_ms, s.p99_ms, s.count
            );
        }
        None => println!("server-side: /metrics scrape failed; client percentiles only"),
    }
}

fn write_report(report: Report) {
    let path = "BENCH_serve.json";
    let body = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(path, body + "\n").unwrap_or_else(|e| {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {path}");
}

/// One request on a fresh `connection: close` socket. Returns the status
/// and whether a `Retry-After` header accompanied it; `None` when the
/// connection died without an HTTP answer.
fn one_shot(addr: &str, path: &str, body: &str) -> Option<(u16, bool)> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream);
    let request = format!(
        "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    reader.get_mut().write_all(request.as_bytes()).ok()?;
    let mut status_line = String::new();
    reader.read_line(&mut status_line).ok().filter(|&n| n > 0)?;
    let status: u16 = status_line.split_whitespace().nth(1)?.parse().ok()?;
    let mut retry_after = false;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).ok().filter(|&n| n > 0)?;
        if line.trim_end().is_empty() {
            break;
        }
        if line.to_ascii_lowercase().starts_with("retry-after:") {
            retry_after = true;
        }
    }
    let mut rest = Vec::new();
    let _ = reader.read_to_end(&mut rest);
    Some((status, retry_after))
}

/// Saturation benchmark: calibrate the unloaded p99 first, then hammer the
/// tiny-pool server and report shed rate plus the accepted-request latency
/// distribution under overload.
fn run_overload(
    addr: &str,
    path: &str,
    bodies: &[String],
    requests: usize,
    concurrency: usize,
    batch: usize,
    json: bool,
) {
    // -- calibration: sequential one-shots against the idle server ------
    // The first requests pay cold caches, lazy allocation and connection
    // setup; a discarded warm-up keeps that out of the unloaded p99.
    let calibration = 500.min(requests.max(1));
    let warmup = (calibration / 5).max(1);
    let mut calib_us: Vec<u64> = Vec::with_capacity(calibration);
    for i in 0..warmup + calibration {
        let body = &bodies[i % bodies.len()];
        let t0 = Instant::now();
        match one_shot(addr, path, body) {
            Some((200, _)) if i < warmup => {}
            Some((200, _)) => calib_us.push(t0.elapsed().as_micros() as u64),
            Some((status, _)) => {
                eprintln!("error: calibration request returned HTTP {status}");
                std::process::exit(1);
            }
            None => {
                eprintln!("error: calibration request got no answer");
                std::process::exit(1);
            }
        }
    }
    calib_us.sort_unstable();
    let unloaded_p99_ms = obs::percentile_of_sorted(&calib_us, 0.99) as f64 / 1000.0;
    eprintln!("serve_bench: unloaded p99 {unloaded_p99_ms:.3} ms over {calibration} requests");

    eprintln!(
        "serve_bench: OVERLOAD — {requests} one-shot requests, concurrency {concurrency}, \
         target {addr}"
    );
    let started = Instant::now();
    let per_worker = requests.div_ceil(concurrency);
    // Per worker: (latencies of accepted requests, shed count, 503s
    // missing Retry-After, connections that died without an answer).
    let results: Vec<(Vec<u64>, usize, usize, usize)> = std::thread::scope(|scope| {
        let mut joins = Vec::with_capacity(concurrency);
        for w in 0..concurrency {
            joins.push(scope.spawn(move || {
                let mut accepted = Vec::with_capacity(per_worker);
                let (mut shed, mut bare_503, mut dead) = (0usize, 0usize, 0usize);
                for i in 0..per_worker {
                    let body = &bodies[(w * per_worker + i) % bodies.len()];
                    let t0 = Instant::now();
                    match one_shot(addr, path, body) {
                        Some((200, _)) => accepted.push(t0.elapsed().as_micros() as u64),
                        Some((503, true)) => shed += 1,
                        Some((503, false)) => {
                            shed += 1;
                            bare_503 += 1;
                        }
                        Some((status, _)) => {
                            eprintln!("error: /classify returned HTTP {status} under overload");
                            std::process::exit(1);
                        }
                        None => dead += 1,
                    }
                }
                (accepted, shed, bare_503, dead)
            }));
        }
        joins.into_iter().map(|j| j.join().expect("worker panicked")).collect()
    });
    let elapsed = started.elapsed();

    let mut accepted_us: Vec<u64> = Vec::new();
    let (mut shed, mut bare_503, mut dead) = (0usize, 0usize, 0usize);
    for (lat, s, b, d) in results {
        accepted_us.extend(lat);
        shed += s;
        bare_503 += b;
        dead += d;
    }
    if bare_503 > 0 {
        eprintln!("error: {bare_503} of {shed} 503 responses arrived without Retry-After");
        std::process::exit(1);
    }
    if dead > 0 {
        eprintln!("error: {dead} connections closed without any HTTP response");
        std::process::exit(1);
    }
    if accepted_us.is_empty() {
        eprintln!("error: overload run accepted zero requests");
        std::process::exit(1);
    }

    accepted_us.sort_unstable();
    let total = accepted_us.len() + shed;
    let pct = |p: f64| obs::percentile_of_sorted(&accepted_us, p) as f64 / 1000.0;
    let max_ms = *accepted_us.last().expect("nonempty") as f64 / 1000.0;
    let shed_rate = shed as f64 / total as f64;
    let throughput = accepted_us.len() as f64 / elapsed.as_secs_f64();
    let ratio = if unloaded_p99_ms > 0.0 { pct(0.99) / unloaded_p99_ms } else { 0.0 };
    println!(
        "overload: {} accepted + {shed} shed of {total} ({:.1}% shed, every 503 carried \
         Retry-After) in {:.2}s",
        accepted_us.len(),
        shed_rate * 100.0,
        elapsed.as_secs_f64()
    );
    println!(
        "accepted latency: p50 {:.3} ms  p90 {:.3} ms  p99 {:.3} ms  max {:.3} ms \
         ({ratio:.1}x unloaded p99 {unloaded_p99_ms:.3} ms)",
        pct(0.50),
        pct(0.90),
        pct(0.99),
        max_ms
    );

    let server = scrape_classify_duration(addr);
    print_server_side(&server, pct(0.99));

    if json {
        write_report(Report {
            mode: "overload".into(),
            requests: total,
            concurrency,
            batch,
            elapsed_secs: elapsed.as_secs_f64(),
            requests_per_sec: throughput,
            samples_per_sec: throughput * batch as f64,
            p50_ms: pct(0.50),
            p90_ms: pct(0.90),
            p99_ms: pct(0.99),
            max_ms,
            accepted: accepted_us.len(),
            shed,
            shed_rate,
            unloaded_p99_ms,
            saturated_over_unloaded_p99: ratio,
            server_p50_ms: server.as_ref().map_or(0.0, |s| s.p50_ms),
            server_p99_ms: server.as_ref().map_or(0.0, |s| s.p99_ms),
            server_requests: server.as_ref().map_or(0, |s| s.count),
            coordinated_omission_skew: co_skew(pct(0.99), &server),
            ..Report::default()
        });
    }
}

/// One numeric field from `/proc/self/status` (`None` off Linux — the
/// soak then skips its thread/RSS assertions).
fn proc_status(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Renders `[1,2]` without pulling in a serializer.
fn fmt_row(row: &[f64]) -> String {
    let mut out = String::from("[");
    for (j, v) in row.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        out.push_str(&format!("{v}"));
    }
    out.push(']');
    out
}

/// Renders `[[1,2],[3,4]]`.
fn fmt_rows(rows: &[Vec<f64>]) -> String {
    let mut out = String::from("[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&fmt_row(row));
    }
    out.push(']');
    out
}

/// One keep-alive client connection, reopened transparently if the server
/// closes it (e.g. an idle timeout between worker start and first send).
struct Connection {
    stream: BufReader<TcpStream>,
}

impl Connection {
    fn open(addr: &str) -> Connection {
        let stream = TcpStream::connect(addr).unwrap_or_else(|e| {
            eprintln!("error: cannot connect to {addr}: {e}");
            std::process::exit(1);
        });
        stream.set_nodelay(true).ok();
        Connection { stream: BufReader::new(stream) }
    }

    fn post_classify(&mut self, addr: &str, path: &str, body: &str) -> u16 {
        match self.try_post(path, body) {
            Some(status) => status,
            None => {
                // Stale keep-alive connection: reconnect once and retry.
                *self = Connection::open(addr);
                self.try_post(path, body).unwrap_or_else(|| {
                    eprintln!("error: connection to {addr} dropped mid-request");
                    std::process::exit(1);
                })
            }
        }
    }

    /// Sends one request and reads one response; `None` on a dead socket.
    fn try_post(&mut self, path: &str, body: &str) -> Option<u16> {
        let request = format!(
            "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.get_mut().write_all(request.as_bytes()).ok()?;

        let mut status_line = String::new();
        self.stream.read_line(&mut status_line).ok().filter(|&n| n > 0)?;
        let status: u16 = status_line.split_whitespace().nth(1)?.parse().ok()?;
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.stream.read_line(&mut line).ok().filter(|&n| n > 0)?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().ok()?;
            }
        }
        let mut body = vec![0u8; content_length];
        self.stream.read_exact(&mut body).ok()?;
        Some(status)
    }
}
