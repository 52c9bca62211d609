//! Prometheus-exposition lint for `GET /metrics`, run by CI.
//!
//! Boots a real *two-model registry* server (a `primary` and a
//! label-flipped `candidate`, shadow-routed at 100% so the disagreement
//! counter provably goes nonzero), drives traffic over every route
//! family — named classifies, a version-bumping reload, unknown-model
//! 404s, the legacy aliases — scrapes `/metrics` over plain TCP, and
//! checks the exposition rules a scraper relies on:
//!
//! * every sample line belongs to the metric family announced by the
//!   most recent `# TYPE` line (histogram `_bucket` / `_sum` / `_count`
//!   samples map to their base family): each family is announced once
//!   and its samples form one block;
//! * every `(family, kind)` of the documented inventory ([`INVENTORY`],
//!   DESIGN.md §8) is in the scrape with that kind;
//! * within each histogram series (same labels minus `le`), cumulative
//!   bucket counts are monotone non-decreasing, a `+Inf` bucket exists,
//!   and it equals the series' `_count`;
//! * per-model label hygiene: every `model="..."` label value is a
//!   *registered* model name — the registry's name grammar plus route
//!   pooling is what bounds the label cardinality, and this check
//!   catches any future code path that leaks request-controlled text
//!   into the label set.
//!
//! Exits nonzero with a description of every violation.

use serve::{serve_models, ModelBundle, Provenance, ServerConfig, ShadowSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn get(addr: SocketAddr, target: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
        .write_all(format!("GET {target} HTTP/1.1\r\nconnection: close\r\n\r\n").as_bytes())
        .expect("write");
    stream.shutdown(Shutdown::Write).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    response
}

/// Splits `name{labels}` / bare `name`; returns (name, labels-with-braces).
fn split_name(sample: &str) -> (&str, &str) {
    match sample.find('{') {
        Some(i) => (&sample[..i], &sample[i..]),
        None => (sample, ""),
    }
}

/// Family a sample belongs to: histogram suffixes map to the base name.
fn family_of(name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            return base;
        }
    }
    name
}

/// Every family DESIGN.md §8 documents, with its exposition kind. The
/// lint's server trains in-process and drives every route, so each one
/// must appear.
const INVENTORY: [(&str, &str); 28] = [
    ("bstc_requests_total", "counter"),
    ("bstc_request_errors_total", "counter"),
    ("bstc_request_duration_us", "histogram"),
    ("bstc_request_timeouts_total", "counter"),
    ("bstc_classify_latency_us", "histogram"),
    ("bstc_samples_classified_total", "counter"),
    ("bstc_model_reloads_total", "counter"),
    ("bstc_model_reload_failures_total", "counter"),
    ("bstc_connections_total", "counter"),
    ("bstc_connections_open", "gauge"),
    ("bstc_panics_caught_total", "counter"),
    ("bstc_workers", "gauge"),
    ("bstc_batches_total", "counter"),
    ("bstc_batch_jobs_total", "counter"),
    ("bstc_batch_panics_total", "counter"),
    ("bstc_batch_size", "histogram"),
    ("bstc_batch_wait_us", "histogram"),
    ("bstc_batch_model_switches_total", "counter"),
    ("bstc_models_resident", "gauge"),
    ("bstc_model_compile_evictions_total", "counter"),
    ("bstc_shadow_requests_total", "counter"),
    ("bstc_shadow_dropped_total", "counter"),
    ("bstc_shadow_disagreements_total", "counter"),
    ("bstc_shadow_latency_us", "histogram"),
    ("bstc_stage_duration_us", "histogram"),
    ("bstc_bst_pairs_total", "counter"),
    ("bstc_bst_distinct_lists_total", "counter"),
    ("bstc_bst_arena_bytes_total", "counter"),
];

/// Every inventory family missing from `text`'s `# TYPE` lines, or
/// announced there with another kind.
fn lint_inventory(text: &str) -> Vec<String> {
    let typed: BTreeMap<&str, &str> =
        text.lines().filter_map(|l| l.strip_prefix("# TYPE ")?.split_once(' ')).collect();
    INVENTORY
        .iter()
        .filter_map(|&(family, kind)| match typed.get(family) {
            Some(&have) if have == kind => None,
            Some(have) => Some(format!("{family} is a {have}, documented as a {kind}")),
            None => Some(format!("{family} ({kind}) is missing from the exposition")),
        })
        .collect()
}

fn lint(text: &str) -> Vec<String> {
    let mut violations = Vec::new();
    let mut typed: BTreeMap<String, String> = BTreeMap::new(); // family -> type
                                                               // The family whose block is open: the one the last # TYPE announced.
    let mut open: Option<String> = None;
    // Histogram series state: (family, labels-minus-le) -> bucket values
    // in exposition order, the +Inf value, and the _count value.
    let mut buckets: BTreeMap<(String, String), Vec<u64>> = BTreeMap::new();
    let mut inf: BTreeMap<(String, String), u64> = BTreeMap::new();
    let mut counts: BTreeMap<(String, String), u64> = BTreeMap::new();
    let mut sums: BTreeMap<(String, String), f64> = BTreeMap::new();
    // Largest finite `le` bound seen per series and the cumulative count
    // at it, for the _sum-vs-bucket impossibility check.
    let mut max_finite: BTreeMap<(String, String), (f64, u64)> = BTreeMap::new();

    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            match (parts.next(), parts.next()) {
                (Some(name), Some(kind)) => {
                    if typed.insert(name.to_string(), kind.to_string()).is_some() {
                        violations.push(format!(
                            "line {lineno}: family {name} announced by a second # TYPE line"
                        ));
                    }
                    open = Some(name.to_string());
                }
                _ => violations.push(format!("line {lineno}: malformed TYPE line '{line}'")),
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let Some((sample, value)) = line.rsplit_once(' ') else {
            violations.push(format!("line {lineno}: no sample value in '{line}'"));
            continue;
        };
        let (name, labels) = split_name(sample);
        let family = family_of(name);
        let Some(kind) = typed.get(family) else {
            violations
                .push(format!("line {lineno}: sample '{name}' has no preceding # TYPE {family}"));
            continue;
        };
        if open.as_deref() != Some(family) {
            violations.push(format!(
                "line {lineno}: sample '{name}' arrives after the {family} block closed"
            ));
        }
        let is_histogram_part = name != family;
        if is_histogram_part && kind != "histogram" {
            violations.push(format!(
                "line {lineno}: '{name}' looks like a histogram sample but {family} is a {kind}"
            ));
        }
        let Ok(value) = value.parse::<f64>() else {
            violations.push(format!("line {lineno}: non-numeric value in '{line}'"));
            continue;
        };
        if kind == "histogram" && is_histogram_part {
            let series_labels: String = labels
                .trim_start_matches('{')
                .trim_end_matches('}')
                .split(',')
                .filter(|kv| !kv.starts_with("le=") && !kv.is_empty())
                .collect::<Vec<_>>()
                .join(",");
            let key = (family.to_string(), series_labels);
            if name.ends_with("_bucket") {
                buckets.entry(key.clone()).or_default().push(value as u64);
                if labels.contains("le=\"+Inf\"") {
                    inf.insert(key, value as u64);
                } else if let Some(le) = labels
                    .split_once("le=\"")
                    .and_then(|(_, rest)| rest.split_once('"'))
                    .and_then(|(le, _)| le.parse::<f64>().ok())
                {
                    let slot = max_finite.entry(key).or_insert((le, value as u64));
                    if le >= slot.0 {
                        *slot = (le, value as u64);
                    }
                }
            } else if name.ends_with("_count") {
                counts.insert(key, value as u64);
            } else if name.ends_with("_sum") {
                sums.insert(key, value);
            }
        }
    }

    for (key, series) in &buckets {
        if series.windows(2).any(|w| w[0] > w[1]) {
            violations.push(format!("histogram {key:?}: bucket counts not monotone: {series:?}"));
        }
        match (inf.get(key), counts.get(key)) {
            (None, _) => violations.push(format!("histogram {key:?}: no +Inf bucket")),
            (Some(inf), Some(count)) if inf != count => {
                violations.push(format!("histogram {key:?}: +Inf bucket {inf} != _count {count}"))
            }
            (Some(_), None) => violations.push(format!("histogram {key:?}: no _count sample")),
            _ => {}
        }
        // _sum-vs-bucket impossibility: when every sample landed in a
        // finite bucket (the +Inf cumulative equals the cumulative at
        // the largest finite bound), no sample can exceed that bound, so
        // _sum > count × max-bound means the sum counted a sample the
        // buckets never saw — the exact artifact of a torn counts/sum
        // snapshot. Series with samples beyond the last finite bucket
        // are skipped: those values are unbounded by construction.
        if let (Some(&sum), Some(&total), Some(&(max_le, at_max))) =
            (sums.get(key), inf.get(key), max_finite.get(key))
        {
            if total == at_max && sum > total as f64 * max_le {
                violations.push(format!(
                    "histogram {key:?}: _sum {sum} exceeds {total} samples × max bucket bound \
                     {max_le} — sum includes a sample the buckets lack"
                ));
            }
        }
    }
    violations
}

/// Per-model label hygiene: every `model="X"` value in the exposition
/// must be one of `allowed` (the registered model names). Anything else
/// means a code path let unvalidated text into a label — unbounded
/// cardinality waiting to happen.
fn lint_model_labels(text: &str, allowed: &[&str]) -> Vec<String> {
    let mut violations = Vec::new();
    let mut seen = BTreeSet::new();
    for (lineno, line) in text.lines().enumerate() {
        let mut rest = line;
        while let Some(at) = rest.find("model=\"") {
            rest = &rest[at + 7..];
            let Some(close) = rest.find('"') else { break };
            let value = &rest[..close];
            seen.insert(value.to_string());
            if !allowed.contains(&value) {
                violations.push(format!(
                    "line {}: model label '{value}' is not a registered model name",
                    lineno + 1
                ));
            }
            rest = &rest[close + 1..];
        }
    }
    if seen.len() > allowed.len() {
        violations.push(format!(
            "model label cardinality {} exceeds the {} registered models: {seen:?}",
            seen.len(),
            allowed.len()
        ));
    }
    violations
}

/// A tiny two-gene dataset; `flip` inverts the labels so the flipped
/// model disagrees with the straight one on every row.
fn toy(flip: bool) -> microarray::ContinuousDataset {
    let labels = if flip { vec![1, 1, 1, 1, 0, 0, 0, 0] } else { vec![0, 0, 0, 0, 1, 1, 1, 1] };
    microarray::ContinuousDataset::new(
        vec!["gA".into(), "gB".into()],
        vec!["neg".into(), "pos".into()],
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
        labels,
    )
    .unwrap()
}

fn post(addr: SocketAddr, target: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
        .write_all(
            format!(
                "POST {target} HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("write");
    stream.shutdown(Shutdown::Write).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    response
}

fn main() {
    // Train in-process so the stage registry renders real spans too: a
    // primary and a deliberately label-flipped candidate, registered
    // from a models dir and shadow-routed at 100% — every shadowed
    // classify is a guaranteed disagreement.
    let models_dir: PathBuf =
        std::env::temp_dir().join(format!("bstc_metrics_lint_{}", std::process::id()));
    std::fs::create_dir_all(&models_dir).expect("create models dir");
    ModelBundle::train(&toy(false), Provenance::new("metrics-lint", Some(11)))
        .unwrap()
        .save(models_dir.join("primary.json"))
        .unwrap();
    ModelBundle::train(&toy(true), Provenance::new("metrics-lint-flipped", Some(11)))
        .unwrap()
        .save(models_dir.join("candidate.json"))
        .unwrap();
    let handle = serve_models(ServerConfig {
        threads: 2,
        models_dir: Some(models_dir.clone()),
        default_model: Some("primary".into()),
        max_resident: 1,
        shadows: vec![ShadowSpec::parse("primary=candidate:100").unwrap()],
        ..ServerConfig::default()
    })
    .unwrap_or_else(|e| {
        eprintln!("error: cannot boot server: {e}");
        std::process::exit(1);
    });
    let addr = handle.addr();

    // Traffic so every endpoint family and latency histogram has samples:
    // the registry listing/metadata routes, unknown-model 404s, named and
    // legacy classifies (shadowed), and a version-bumping reload.
    for target in [
        "/health",
        "/model",
        "/metrics",
        "/nope",
        "/v1/models",
        "/v1/models/candidate",
        "/v1/models/ghost",
    ] {
        let _ = get(addr, target);
    }
    const CLASSIFIES: u64 = 4;
    for i in 0..CLASSIFIES {
        let target = if i % 2 == 0 { "/classify" } else { "/v1/models/primary/classify" };
        let response = post(addr, target, "{\"values\":[1.0,5.0]}");
        if !response.starts_with("HTTP/1.1 200") {
            eprintln!("error: {target} failed: {}", response.lines().next().unwrap_or(""));
            std::process::exit(1);
        }
    }
    let _ = post(addr, "/v1/models/candidate/classify", "{\"values\":[9.0,5.1]}");
    let _ = post(addr, "/v1/models/primary/reload", "{}"); // v1 -> v2

    // The shadow replay is asynchronous; wait for it to drain before the
    // scrape so the disagreement assertion below is deterministic.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.metrics_snapshot().shadow_requests < CLASSIFIES {
        if Instant::now() >= deadline {
            eprintln!("error: shadow jobs never replayed: {:?}", handle.metrics_snapshot());
            std::process::exit(1);
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    let response = get(addr, "/metrics");
    let Some((head, body)) = response.split_once("\r\n\r\n") else {
        eprintln!("error: unparseable /metrics response");
        std::process::exit(1);
    };
    if !head.starts_with("HTTP/1.1 200") {
        eprintln!("error: /metrics returned {}", head.lines().next().unwrap_or(""));
        std::process::exit(1);
    }

    let mut violations = lint(body);
    violations.extend(lint_inventory(body));
    violations.extend(lint_model_labels(body, &["primary", "candidate"]));
    // The crafted flipped candidate makes disagreement certain: a zero
    // (or missing) counter here means shadow comparison is broken.
    let disagreements: u64 = body
        .lines()
        .find(|l| l.starts_with("bstc_shadow_disagreements_total{model=\"primary\"}"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    if disagreements == 0 {
        violations.push(
            "bstc_shadow_disagreements_total{model=\"primary\"} is zero or missing after \
             shadowing a label-flipped candidate"
                .to_string(),
        );
    }
    // Both bundles trained in-process, so the BST builder's volume
    // counters must be present (with their own # TYPE lines, checked by
    // lint() above) and nonzero — this is what pins the bstc_bst_*
    // counter plumbing from Bst::build through obs to /metrics.
    for counter in
        ["bstc_bst_pairs_total", "bstc_bst_distinct_lists_total", "bstc_bst_arena_bytes_total"]
    {
        let value: u64 = body
            .lines()
            .find(|l| l.starts_with(counter) && !l.starts_with('#'))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        if value == 0 {
            violations.push(format!(
                "{counter} is zero or missing after in-process training — the BST build \
                 counters are not reaching the exposition"
            ));
        }
    }
    handle.shutdown();
    std::fs::remove_dir_all(&models_dir).ok();
    if violations.is_empty() {
        let families = body.lines().filter(|l| l.starts_with("# TYPE ")).count();
        let samples = body.lines().filter(|l| !l.starts_with('#') && !l.is_empty()).count();
        println!(
            "metrics_lint: OK — {families} families, {samples} samples, {disagreements} shadow \
             disagreements surfaced, 0 violations"
        );
    } else {
        eprintln!("metrics_lint: {} violation(s):", violations.len());
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::lint;

    #[test]
    fn clean_exposition_passes() {
        let text = "# TYPE a counter\na 1\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_count 2\nh_sum 3\n";
        assert!(lint(text).is_empty(), "{:?}", lint(text));
    }

    #[test]
    fn a_family_typed_twice_is_flagged() {
        let text = "# TYPE a counter\na{x=\"1\"} 1\n# TYPE a counter\na{x=\"2\"} 2\n";
        assert!(lint(text).iter().any(|v| v.contains("second # TYPE")), "{:?}", lint(text));
    }

    #[test]
    fn a_sample_after_its_family_block_is_flagged() {
        let text = "# TYPE a counter\na 1\n# TYPE b counter\nb 1\na{x=\"late\"} 2\n";
        assert!(
            lint(text).iter().any(|v| v.contains("after the a block closed")),
            "{:?}",
            lint(text)
        );
    }

    #[test]
    fn the_inventory_flags_missing_and_mistyped_families() {
        let mut text: String =
            super::INVENTORY.iter().map(|(f, k)| format!("# TYPE {f} {k}\n")).collect();
        assert!(super::lint_inventory(&text).is_empty());
        text = text.replace("# TYPE bstc_workers gauge\n", "# TYPE bstc_workers counter\n");
        text = text.replace("# TYPE bstc_batch_size histogram\n", "");
        let violations = super::lint_inventory(&text);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("bstc_workers is a counter")));
        assert!(violations.iter().any(|v| v.contains("bstc_batch_size (histogram) is missing")));
    }

    #[test]
    fn untyped_sample_is_flagged() {
        assert!(lint("orphan 1\n").iter().any(|v| v.contains("no preceding # TYPE")));
    }

    #[test]
    fn non_monotone_buckets_are_flagged() {
        let text = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_count 3\nh_sum 0\n";
        assert!(lint(text).iter().any(|v| v.contains("not monotone")));
    }

    #[test]
    fn inf_count_mismatch_is_flagged() {
        let text = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 4\nh_sum 0\n";
        assert!(lint(text).iter().any(|v| v.contains("!= _count")));
    }

    #[test]
    fn sum_exceeding_bucket_capacity_is_flagged() {
        // 2 samples, all at or below 100, yet _sum claims 250: at least
        // one sample is in the sum without a bucket.
        let text = "# TYPE h histogram\nh_bucket{le=\"100\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_count 2\nh_sum 250\n";
        assert!(lint(text).iter().any(|v| v.contains("max bucket bound")), "{:?}", lint(text));
    }

    #[test]
    fn sum_within_bucket_capacity_passes() {
        let text = "# TYPE h histogram\nh_bucket{le=\"100\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_count 2\nh_sum 200\n";
        assert!(lint(text).is_empty(), "{:?}", lint(text));
    }

    #[test]
    fn sum_check_skips_series_with_samples_beyond_finite_buckets() {
        // One sample sits past the last finite bucket (+Inf 3 > 2 at
        // le=100); its value is unbounded, so a large _sum is legal.
        let text = "# TYPE h histogram\nh_bucket{le=\"100\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_count 3\nh_sum 99999\n";
        assert!(lint(text).is_empty(), "{:?}", lint(text));
    }

    #[test]
    fn registered_model_labels_pass() {
        let text = "# TYPE d counter\nd{model=\"a\"} 1\nd{model=\"b\"} 2\n";
        assert!(super::lint_model_labels(text, &["a", "b"]).is_empty());
    }

    #[test]
    fn unregistered_model_label_is_flagged() {
        let text = "# TYPE d counter\nd{model=\"a\"} 1\nd{model=\"evil/../name\"} 2\n";
        let violations = super::lint_model_labels(text, &["a"]);
        assert!(violations.iter().any(|v| v.contains("evil/../name")));
    }
}
