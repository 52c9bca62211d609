//! The two serving workloads, both against `serve::serve` on
//! `127.0.0.1:0` in this process, driven over real keep-alive sockets.
//!
//! * `serve-classify` — single-row `POST /v1/models/default/classify`
//!   of held-out ALL/AML rows from two closed-loop client connections.
//! * `serve-reload` — one connection; each op swaps the model with
//!   `POST /v1/models/default/reload {"path": …}`, cycling through sixteen
//!   saved bundles, then classifies one probe row on the new version
//!   (which pays the lazy compile).

use crate::client::{bucket_quantile, scrape, Conn, Exposition, Response};
use crate::stats::{mean, median};
use crate::trace::{ObsMeter, Summary, Tracer};
use crate::training::{cohort, ms, sub_seed};
use crate::{closed_loop, host, phase, Args, Outcome, Window, WorkDir, SETUPS};
use bstc::Scratch;
use microarray::synth::{presets, SynthConfig};
use serde_json::{json, Value};
use serve::{ModelBundle, Provenance, ServerConfig, ServerHandle};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Client connections (and threads) of `serve-classify`.
const CLIENTS: usize = 2;
/// Server worker threads.
const SERVER_THREADS: usize = 2;
/// Held-out rows per class that `serve-classify` cycles through.
const PROBES_PER_CLASS: usize = 32;
/// Discarded warm-up requests per `serve-classify` client per setup.
const WARMUP_REQUESTS: usize = 100;
/// Discarded warm-up ops per `serve-reload` setup: swaps to the two
/// bundles nearest the median size (see [`median_first`]).
const WARMUP_RELOADS: usize = 2;
/// Bundles `serve-reload` cycles through, each from its own sub-seed.
const RELOAD_BUNDLES: usize = 16;
/// Loads per size for `bundle.load_size_exponent`.
const EXPONENT_LOADS: usize = 3;

const CLASSIFY: &str = "/v1/models/default/classify";
const RELOAD: &str = "/v1/models/default/reload";

fn server_config() -> ServerConfig {
    ServerConfig { addr: "127.0.0.1:0".into(), threads: SERVER_THREADS, ..ServerConfig::default() }
}

/// One classify request and the answer the in-process compiled path
/// gives for it.
struct Probe {
    row: Vec<f64>,
    body: Vec<u8>,
    class: u64,
    label: String,
}

fn probe(bundle: &ModelBundle, row: &[f64]) -> Result<Probe, String> {
    let expected = bundle.classify_row(row).map_err(|e| e.to_string())?;
    let mut body = String::with_capacity(row.len() * 20);
    body.push_str("{\"values\":[");
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        // `Display` for f64 is the shortest text that parses back exactly.
        let _ = write!(body, "{v}");
    }
    body.push_str("]}");
    Ok(Probe {
        row: row.to_vec(),
        body: body.into_bytes(),
        class: expected.class as u64,
        label: expected.label,
    })
}

fn check_classify(resp: &Response, probe: &Probe, tag: &str) -> Result<(), String> {
    if resp.status != 200 {
        return Err(format!("classify answered {}: {}", resp.status, resp.text()));
    }
    if resp.header("x-model") != Some(tag) {
        return Err(format!("x-model {:?}, expected {tag}", resp.header("x-model")));
    }
    let v: Value = serde_json::from_str(resp.text()).map_err(|e| format!("classify body: {e}"))?;
    let p = v.get("prediction").ok_or("classify body without 'prediction'")?;
    let class = p.get("class").and_then(Value::as_u64);
    let label = p.get("label").and_then(Value::as_str);
    if class != Some(probe.class) || label != Some(probe.label.as_str()) {
        return Err(format!(
            "predicted {class:?}/{label:?}, in-process compiled path says {}/{}",
            probe.class, probe.label
        ));
    }
    Ok(())
}

/// The server's JSON decode of a classify body, replayed: parse, then
/// read `values` as numbers.
fn decode_values(body: &[u8]) -> Option<Vec<f64>> {
    let text = std::str::from_utf8(body).ok()?;
    let v: Value = serde_json::from_str(text).ok()?;
    v.get("values")?.as_array()?.iter().map(Value::as_f64).collect()
}

/// Server-side figures from two `/metrics` scrapes around a phase.
struct ServerView {
    p50_us: f64,
    p99_us: f64,
    mean_us: f64,
    batch_size_mean: f64,
    batch_wait_us_mean: f64,
    errors: f64,
}

fn server_view(before: &str, after: &str, route: &str) -> ServerView {
    let (a, b) = (Exposition::parse(before), Exposition::parse(after));
    let filter = format!("route=\"{route}\"");
    let family = "bstc_request_duration_us";
    let (ba, bb) = (a.buckets(family, &filter), b.buckets(family, &filter));
    let delta = |name: &str, filter: &str| b.sum(name, filter) - a.sum(name, filter);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    ServerView {
        p50_us: bucket_quantile(&ba, &bb, 0.5),
        p99_us: bucket_quantile(&ba, &bb, 0.99),
        mean_us: ratio(
            delta("bstc_request_duration_us_sum", &filter),
            delta("bstc_request_duration_us_count", &filter),
        ),
        batch_size_mean: ratio(
            delta("bstc_batch_size_sum", ""),
            delta("bstc_batch_size_count", ""),
        ),
        batch_wait_us_mean: ratio(
            delta("bstc_batch_wait_us_sum", ""),
            delta("bstc_batch_wait_us_count", ""),
        ),
        errors: b.sum("bstc_request_errors_total", ""),
    }
}

fn server_layers(
    view: &ServerView,
    handle: &ServerHandle,
    threads: f64,
    layers: &mut Vec<(&'static str, f64)>,
) {
    layers.push(("server.request_p50_us", view.p50_us));
    layers.push(("server.request_p99_us", view.p99_us));
    layers.push(("batcher.batch_size_mean", view.batch_size_mean));
    layers.push(("batcher.wait_us_mean", view.batch_wait_us_mean));
    layers.push(("server.errors", view.errors));
    layers.push(("server.shed", handle.metrics_snapshot().conns_shed as f64));
    layers.push(("server.threads", threads));
}

fn self_us(s: &Summary, name: &str) -> f64 {
    s.self_per_op_ns(name) / 1e3
}

/// Threads of this process that are not the benchmark's main thread
/// (call while no client thread runs).
fn server_threads() -> f64 {
    host::threads().map_or(0.0, |n| n - 1.0)
}

pub fn serve_classify(args: &Args, _work: &WorkDir) -> Result<Outcome, String> {
    let (train, held_out) = cohort(&presets::all_aml(args.seed), PROBES_PER_CLASS);
    let provenance = Provenance::new("ALL/AML (synthetic)", Some(args.seed));
    // The benchmark's own copy of the model: expected answers and replays.
    let reference = ModelBundle::train(&train, provenance.clone()).map_err(|e| e.to_string())?;
    let probes: Vec<Probe> =
        held_out.iter().map(|(row, _)| probe(&reference, row)).collect::<Result<_, _>>()?;
    let compiled = reference.compiled();
    let tag = "default@v1";

    let mut out = Outcome::default();
    let mut warmup = Window::default();
    let mut server: Option<(ServerHandle, Vec<Conn>)> = None;
    for _ in 0..SETUPS {
        if let Some((handle, conns)) = server.take() {
            drop(conns);
            handle.shutdown();
        }
        let t0 = Instant::now();
        let bundle = ModelBundle::train(&train, provenance.clone()).map_err(|e| e.to_string())?;
        let handle = serve::serve(server_config(), bundle).map_err(|e| format!("serve: {e}"))?;
        let mut conns: Vec<Conn> = (0..CLIENTS)
            .map(|_| Conn::open(handle.addr()))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        for j in 0..WARMUP_REQUESTS * CLIENTS {
            let p = &probes[j % probes.len()];
            let t = Instant::now();
            let r = conns[j % CLIENTS].request("POST", CLASSIFY, &p.body);
            warmup.record(
                0.0,
                ms(t),
                r.map_err(|e| e.to_string()).and_then(|r| check_classify(&r, p, tag)),
            );
        }
        out.setups_s.push(t0.elapsed().as_secs_f64());
        server = Some((handle, conns));
    }
    out.checks.push(("warm-up requests correct".into(), warmup.tally.failed == 0));
    let (handle, mut conns) = server.expect("at least one setup");
    let threads = server_threads();

    let (phase_s, min_ops) = phase(args);
    // Runs every client connection in its own thread for one phase.
    let run_clients = |conns: Vec<Conn>, traced: bool| {
        std::thread::scope(|scope| {
            let workers: Vec<_> = conns
                .into_iter()
                .enumerate()
                .map(|(c, mut conn)| {
                    let (probes, compiled, reference) = (&probes, &compiled, &reference);
                    scope.spawn(move || {
                        let mut tr = Tracer::new(traced);
                        let mut scratch = Scratch::for_model(compiled);
                        let w = closed_loop(phase_s, min_ops, |i| {
                            let p = &probes[(c + CLIENTS * i as usize) % probes.len()];
                            let t0 = Instant::now();
                            let root = tr.begin_op(i);
                            let r = conn.request("POST", CLASSIFY, &p.body);
                            tr.exit(root);
                            let lat = ms(t0);
                            let r = r
                                .map_err(|e| e.to_string())
                                .and_then(|r| check_classify(&r, p, tag));
                            if tr.on() {
                                let row = tr
                                    .replay(root, "json.request_decode", || decode_values(&p.body));
                                if let Some(Some(row)) = row {
                                    let q = tr.replay(root, "discretize.row", || {
                                        reference.query_for_row(&row)
                                    });
                                    if let Some(Ok(q)) = q {
                                        tr.replay(root, "compiled.query", || {
                                            compiled.class_values_into(&q, &mut scratch)
                                        });
                                    }
                                }
                            }
                            (lat, r)
                        });
                        (w, tr, conn)
                    })
                })
                .collect();
            let mut window = Window::default();
            let mut tracer = Tracer::new(traced);
            let mut conns = Vec::new();
            for worker in workers {
                let (w, tr, conn) = worker.join().expect("client thread panicked");
                window.merge(w);
                tracer.absorb(tr);
                conns.push(conn);
            }
            (window, tracer, conns)
        })
    };

    let (window, _, back) = run_clients(std::mem::take(&mut conns), false);
    out.window = window;
    conns = back;
    let mut tracer = Tracer::new(false);
    let mut meter = ObsMeter::new();
    let mut scrapes = None;
    if args.trace {
        let before = scrape(handle.addr()).map_err(|e| format!("scrape: {e}"))?;
        meter.start();
        let (window, tr, back) = run_clients(std::mem::take(&mut conns), true);
        meter.stop();
        let after = scrape(handle.addr()).map_err(|e| format!("scrape: {e}"))?;
        out.traced = Some(window);
        tracer = tr;
        conns = back;
        scrapes = Some((before, after));
    }
    out.peak_rss_mb = host::peak_rss_mb().ok_or("cannot read VmHWM")?;

    if let Some((before, after)) = scrapes {
        let s = tracer.summary();
        let ops = s.ops as f64;
        let view = server_view(&before, &after, "/classify");
        // Means, not bucketed p50s: the server's histogram resolves a
        // percentile only to its ~6% bucket width.
        let replayed_us: f64 = ["json.request_decode", "discretize.row", "compiled.query"]
            .iter()
            .map(|name| self_us(&s, name))
            .sum();
        let query_us = self_us(&s, "compiled.query");
        let mask_bytes = compiled.mask_bytes() as f64;
        let mut layers = vec![
            ("json.request_decode_us", self_us(&s, "json.request_decode")),
            ("discretize.row_us", self_us(&s, "discretize.row")),
            ("compiled.query_us", query_us),
            ("compiled.mask_bytes", mask_bytes),
            ("compiled.ns_per_mask_byte_query", query_us * 1e3 / mask_bytes),
            ("discretize.n_items", reference.discretizer.n_items() as f64),
            ("server.handoff_us", view.mean_us - replayed_us),
            // Client-side time outside the server's own request span.
            ("unattributed_ms", (mean(&s.op_ns) / 1e3 - view.mean_us) / 1e3),
        ];
        server_layers(&view, &handle, threads, &mut layers);
        layers.extend(meter.layers(ops));
        out.detail("traced_ops", json!(s.ops));
        out.detail("server_mean_us", json!(view.mean_us));
        out.layers = layers;
    }
    drop(conns);
    let snapshot = handle.shutdown();
    out.checks.push((
        "server ledger balanced".into(),
        snapshot.conns_accepted == snapshot.conns_handled + snapshot.conns_shed,
    ));
    out.detail("probes", json!(probes.len()));
    out.detail("request_bytes", json!(probes[0].body.len()));
    Ok(out)
}

/// One bundle `serve-reload` swaps in.
struct Artifact {
    seed: u64,
    path: PathBuf,
    bytes: u64,
    checksum: String,
    probe: Probe,
}

fn artifact(cfg: &SynthConfig, path: PathBuf, seed: u64) -> Result<Artifact, String> {
    let (train, held_out) = cohort(cfg, 1);
    let bundle = ModelBundle::train(&train, Provenance::new(cfg.name.clone(), Some(seed)))
        .map_err(|e| e.to_string())?;
    bundle.save(&path).map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let checksum = bundle.content_checksum().map_err(|e| e.to_string())?;
    let probe = probe(&bundle, &held_out[0].0)?;
    Ok(Artifact { seed, path, bytes, checksum, probe })
}

/// `arts` ordered by size outward from the median one: the median, the
/// next larger, the next smaller, and so on. Setup cold-starts on the
/// first and warms up on the next [`WARMUP_RELOADS`], so its work is that
/// of the median-size bundles whatever sizes a seed draws (load time is
/// quadratic in size).
fn median_first<T>(mut arts: Vec<T>, bytes: impl Fn(&T) -> u64) -> Vec<T> {
    arts.sort_by_key(|a| bytes(a));
    let m = arts.len() / 2;
    let mut ranked: Vec<(usize, T)> = arts.into_iter().enumerate().collect();
    ranked.sort_by_key(|(r, _)| (r.abs_diff(m), *r < m));
    ranked.into_iter().map(|(_, a)| a).collect()
}

/// The reload workload's bundle shape: ALL/AML at a third of its size.
fn reload_config(seed: u64) -> SynthConfig {
    presets::all_aml(seed).scaled_down(3)
}

/// Median wall time of loading `path` [`EXPONENT_LOADS`] times, in ns.
fn load_ns(path: &PathBuf) -> Result<f64, String> {
    let mut times = Vec::new();
    for _ in 0..EXPONENT_LOADS {
        let t0 = Instant::now();
        ModelBundle::load(path).map_err(|e| e.to_string())?;
        times.push(t0.elapsed().as_nanos() as f64);
    }
    Ok(median(&times))
}

pub fn serve_reload(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let arts: Vec<Artifact> = (0..RELOAD_BUNDLES)
        .map(|k| {
            let seed = sub_seed(args.seed, k);
            artifact(&reload_config(seed), work.path(&format!("bundle{k}.json")), seed)
        })
        .collect::<Result<_, _>>()?;
    let arts = median_first(arts, |a| a.bytes);
    let bodies: Vec<Vec<u8>> = arts
        .iter()
        .map(|t| {
            let body = json!({"path": t.path.to_string_lossy().into_owned()});
            serde_json::to_string(&body).expect("a path body serializes").into_bytes()
        })
        .collect();

    let mut meter = ObsMeter::new();
    // Version v serves bundle (v - 1) % RELOAD_BUNDLES, so the op on
    // version v swaps in bundle v % RELOAD_BUNDLES.
    let op = |conn: &mut Conn, version: &mut u64, tr: &mut Tracer, meter: &mut ObsMeter, i: u64| {
        let k = *version as usize % RELOAD_BUNDLES;
        let target = &arts[k];
        let t0 = Instant::now();
        let root = tr.begin_op(i);
        if tr.on() {
            meter.start();
        }
        let reload_span = tr.enter("registry.reload");
        let reloaded = conn.request("POST", RELOAD, &bodies[k]);
        tr.exit(reload_span);
        let classify_span = tr.enter("registry.first_classify");
        let classified = conn.request("POST", CLASSIFY, &target.probe.body);
        tr.exit(classify_span);
        if tr.on() {
            meter.stop();
        }
        tr.exit(root);
        let lat = ms(t0);

        let result = (|| {
            let r = reloaded.map_err(|e| format!("reload: {e}"))?;
            if r.status != 200 {
                return Err(format!("reload answered {}: {}", r.status, r.text()));
            }
            let v: Value =
                serde_json::from_str(r.text()).map_err(|e| format!("reload body: {e}"))?;
            let checksum = v.get("checksum").and_then(Value::as_str);
            if checksum != Some(target.checksum.as_str()) {
                return Err(format!("reload checksum {checksum:?}, file has {}", target.checksum));
            }
            let got = v.get("version").and_then(Value::as_u64);
            if got != Some(*version + 1) {
                return Err(format!("reload version {got:?}, expected {}", *version + 1));
            }
            *version += 1;
            let c = classified.map_err(|e| format!("classify: {e}"))?;
            check_classify(&c, &target.probe, &format!("default@v{version}"))
        })();

        if tr.on() {
            let loaded = tr.replay(reload_span, "bundle.load", || ModelBundle::load(&target.path));
            if let Some(Ok(bundle)) = loaded {
                if let Some(compiled) =
                    tr.replay(classify_span, "compiled.compile", || bundle.compiled())
                {
                    let q = tr.replay(classify_span, "discretize.row", || {
                        bundle.query_for_row(&target.probe.row)
                    });
                    if let Some(Ok(q)) = q {
                        let mut scratch = Scratch::for_model(&compiled);
                        tr.replay(classify_span, "compiled.query", || {
                            compiled.class_values_into(&q, &mut scratch)
                        });
                    }
                }
            }
        }
        (lat, result)
    };

    let mut out = Outcome::default();
    let mut quiet = Tracer::new(false);
    let mut warmup = Window::default();
    let mut server: Option<(ServerHandle, Conn, u64)> = None;
    for _ in 0..SETUPS {
        if let Some((handle, conn, _)) = server.take() {
            drop(conn);
            handle.shutdown();
        }
        let t0 = Instant::now();
        let bundle = ModelBundle::load(&arts[0].path).map_err(|e| format!("load: {e}"))?;
        let handle = serve::serve(server_config(), bundle).map_err(|e| format!("serve: {e}"))?;
        let mut conn = Conn::open(handle.addr()).map_err(|e| format!("connect: {e}"))?;
        let mut version = 1;
        for i in 0..WARMUP_RELOADS as u64 {
            let (lat, r) = op(&mut conn, &mut version, &mut quiet, &mut meter, i);
            warmup.record(0.0, lat, r);
        }
        out.setups_s.push(t0.elapsed().as_secs_f64());
        server = Some((handle, conn, version));
    }
    out.checks.push(("warm-up swaps correct".into(), warmup.tally.failed == 0));
    let (handle, mut conn, mut version) = server.expect("at least one setup");
    let threads = server_threads();

    let (phase_s, min_ops) = phase(args);
    out.window =
        closed_loop(phase_s, min_ops, |i| op(&mut conn, &mut version, &mut quiet, &mut meter, i));
    let mut tracer = Tracer::new(true);
    let mut scrapes = None;
    if args.trace {
        let before = scrape(handle.addr()).map_err(|e| format!("scrape: {e}"))?;
        out.traced = Some(closed_loop(phase_s, min_ops, |i| {
            op(&mut conn, &mut version, &mut tracer, &mut meter, i)
        }));
        let after = scrape(handle.addr()).map_err(|e| format!("scrape: {e}"))?;
        scrapes = Some((before, after));
    }
    out.peak_rss_mb = host::peak_rss_mb().ok_or("cannot read VmHWM")?;

    if let Some((before, after)) = scrapes {
        // Size exponent of bundle load: the median-size bundle against
        // one trained on half the genes (about half the bytes).
        let full = &arts[0];
        let mut half_cfg = reload_config(full.seed);
        half_cfg.n_genes /= 2;
        half_cfg.markers_per_class /= 2;
        let half = artifact(&half_cfg, work.path("half.json"), full.seed)?;
        let (full_ns, half_ns) = (load_ns(&full.path)?, load_ns(&half.path)?);
        let exponent = (full_ns / half_ns).ln() / (full.bytes as f64 / half.bytes as f64).ln();

        let s = tracer.summary();
        let ops = s.ops as f64;
        let view = server_view(&before, &after, "/reload");
        let bytes = mean(&arts.iter().map(|t| t.bytes as f64).collect::<Vec<_>>());
        let load_ns_per_op = s.self_per_op_ns("bundle.load");
        let query_us = self_us(&s, "compiled.query");
        let loaded = ModelBundle::load(&full.path).map_err(|e| e.to_string())?;
        let mask_bytes = loaded.compiled().mask_bytes() as f64;
        // The two requests are reported whole, as the client sees them;
        // the layers replayed inside them are reported by self time.
        let mut layers = vec![
            ("registry.reload_ms", s.total_per_op_ns("registry.reload") / 1e6),
            ("registry.first_classify_ms", s.total_per_op_ns("registry.first_classify") / 1e6),
        ];
        let spans = [
            ("bundle.load_ms", "bundle.load", 1e6),
            ("compiled.compile_ms", "compiled.compile", 1e6),
            ("discretize.row_us", "discretize.row", 1e3),
            ("compiled.query_us", "compiled.query", 1e3),
        ];
        layers.extend(
            spans.iter().map(|(metric, span, div)| (*metric, s.self_per_op_ns(span) / div)),
        );
        layers.extend([
            ("bundle.bytes", bytes),
            ("bundle.load_ns_per_byte", load_ns_per_op / bytes),
            ("bundle.load_size_exponent", exponent),
            ("compiled.mask_bytes", mask_bytes),
            ("compiled.ns_per_mask_byte_query", query_us * 1e3 / mask_bytes),
            ("discretize.n_items", loaded.discretizer.n_items() as f64),
            ("server.handoff_us", view.mean_us - self_us(&s, "bundle.load")),
            ("unattributed_ms", s.self_per_op_ns(crate::trace::OP) / 1e6),
        ]);
        server_layers(&view, &handle, threads, &mut layers);
        layers.extend(meter.layers(ops));
        out.detail("traced_ops", json!(s.ops));
        out.detail(
            "exponent_loads",
            json!({"full_bytes": full.bytes, "full_ms": full_ns / 1e6,
                   "half_bytes": half.bytes, "half_ms": half_ns / 1e6}),
        );
        out.layers = layers;
    }
    drop(conn);
    let snapshot = handle.shutdown();
    out.checks.push((
        "server ledger balanced".into(),
        snapshot.conns_accepted == snapshot.conns_handled + snapshot.conns_shed,
    ));
    out.detail("bundle_bytes", json!(arts.iter().map(|t| t.bytes).collect::<Vec<_>>()));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_first_starts_at_the_median_size_and_alternates_outward() {
        let sizes = vec![50u64, 10, 40, 20, 30];
        assert_eq!(median_first(sizes, |&b| b), vec![30, 40, 20, 50, 10]);
        let even = vec![4u64, 1, 3, 2];
        assert_eq!(median_first(even, |&b| b), vec![3, 4, 2, 1]);
        assert_eq!(median_first(Vec::<u64>::new(), |&b| b), Vec::<u64>::new());
    }
}
