//! End-to-end tests of the `bstc-cli` binary: synth → discretize → train
//! → classify → mine through actual process invocations and files.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bstc-cli"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bstc_cli_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn full_pipeline_through_the_binary() {
    let expr = tmp("expr.tsv");
    let items = tmp("items.tsv");
    let cuts = tmp("cuts.json");
    let model = tmp("model.json");

    let out = cli()
        .args(["synth", "--preset", "all", "--scale", "40", "--seed", "3"])
        .args(["--out", expr.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(expr.exists());

    let out = cli()
        .args(["discretize", "--train", expr.to_str().unwrap()])
        .args(["--out", items.to_str().unwrap(), "--cuts", cuts.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("selected"), "{stderr}");
    assert!(cuts.exists());

    // --bench-out goes to the tempdir: without it the stage report
    // would land as BENCH_train.json in whatever CWD the test runs
    // from, clobbering the committed benchmark.
    let bench = tmp("pipeline_bench.json");
    let out = cli()
        .args(["train", "--data", items.to_str().unwrap()])
        .args(["--model", model.to_str().unwrap()])
        .args(["--bench-out", bench.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = cli()
        .args(["classify", "--model", model.to_str().unwrap()])
        .args(["--data", items.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("sample 0:"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("accuracy vs file labels"), "{stderr}");
    // Every printed class is the in-process Algorithm-6 answer.
    let trained: bstc::BstcModel =
        serde_json::from_str(&std::fs::read_to_string(&model).unwrap()).unwrap();
    let data = microarray::io::read_bool_tsv(std::fs::File::open(&items).unwrap()).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), data.n_samples(), "{stdout}");
    for (s, line) in lines.iter().enumerate() {
        let expected = &data.class_names()[trained.classify(data.sample(s))];
        assert!(
            line.starts_with(&format!("sample {s}: {expected} (values ")),
            "sample {s}: CLI printed {line:?}, BstcModel::classify says {expected}"
        );
    }

    let out = cli()
        .args(["mine", "--data", items.to_str().unwrap(), "--class", "1", "-k", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("=> ALL"), "{stdout}");
    assert!(stdout.contains("car-confidence"), "{stdout}");
}

#[test]
fn classify_refuses_a_model_of_another_width() {
    // Two presets of different gene counts discretize to item files of
    // different widths.
    let mut items = Vec::new();
    for (preset, seed) in [("all", "3"), ("lc", "4")] {
        let expr = tmp(&format!("width_{preset}.tsv"));
        let out = cli()
            .args(["synth", "--preset", preset, "--scale", "40", "--seed", seed])
            .args(["--out", expr.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let path = tmp(&format!("width_{preset}_items.tsv"));
        let out = cli()
            .args(["discretize", "--train", expr.to_str().unwrap()])
            .args(["--out", path.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        items.push(path);
    }
    let width = |p: &PathBuf| {
        microarray::io::read_bool_tsv(std::fs::File::open(p).unwrap()).unwrap().n_items()
    };
    let (trained, other) = (width(&items[0]), width(&items[1]));
    assert_ne!(trained, other, "fixture needs two widths");

    let model = tmp("width_model.json");
    let out = cli()
        .args(["train", "--data", items[0].to_str().unwrap()])
        .args(["--model", model.to_str().unwrap()])
        .args(["--bench-out", tmp("width_bench.json").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = cli()
        .args(["classify", "--model", model.to_str().unwrap()])
        .args(["--data", items[1].to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&format!("BST has {trained} items, expected {other}")), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn train_save_then_serve_round_trips_over_http() {
    use std::io::{BufRead, BufReader, Read, Write};

    let expr = tmp("expr3.tsv");
    let bundle_path = tmp("bundle.json");

    let out = cli()
        .args(["synth", "--preset", "all", "--scale", "40", "--seed", "11"])
        .args(["--out", expr.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let bench = tmp("serve_bench.json");
    let out = cli()
        .args(["train", "--data", expr.to_str().unwrap()])
        .args(["--save", bundle_path.to_str().unwrap(), "--dataset", "cli-e2e", "--seed", "11"])
        .args(["--bench-out", bench.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("wrote bundle"));

    // The saved artifact is loadable in-process: this is the parity oracle.
    let bundle = serve::ModelBundle::load(&bundle_path).unwrap();
    let data = microarray::io::read_cont_tsv(std::fs::File::open(&expr).unwrap()).unwrap();

    let mut child = cli()
        .args(["serve", "--model", bundle_path.to_str().unwrap()])
        .args(["--addr", "127.0.0.1:0", "--threads", "2"])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut lines = BufReader::new(child.stderr.take().unwrap()).lines();
    let addr = loop {
        let line = lines.next().expect("serve exited before announcing its address").unwrap();
        if let Some(rest) = line.split("serving on http://").nth(1) {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };

    // Batch-POST every sample and demand bit-identical classes.
    let rows: Vec<String> = (0..data.n_samples())
        .map(|s| {
            let vals: Vec<String> = data.row(s).iter().map(|v| format!("{v}")).collect();
            format!("[{}]", vals.join(","))
        })
        .collect();
    let body = format!("{{\"samples\":[{}]}}", rows.join(","));
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream
        .write_all(
            format!(
                "POST /classify HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    child.kill().unwrap();
    child.wait().unwrap();

    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    let json_body = response.split("\r\n\r\n").nth(1).unwrap();
    let served: serde_json::Value = serde_json::from_str(json_body).unwrap();
    let predictions = served.get("predictions").unwrap().as_array().unwrap();
    assert_eq!(predictions.len(), data.n_samples());
    for (s, p) in predictions.iter().enumerate() {
        let expected = bundle.classify_row(data.row(s)).unwrap();
        assert_eq!(
            p.get("class").unwrap().as_u64(),
            Some(expected.class as u64),
            "served class diverges from in-process classify at sample {s}"
        );
    }
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = cli().arg("bogus").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn missing_flag_fails_cleanly() {
    let out = cli().args(["train", "--data", "/nonexistent.tsv"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing --model"));
}

#[test]
fn unknown_flags_are_usage_errors_that_name_the_flag() {
    for args in [
        ["serve", "--batch-wait-us", "5"],
        ["serve", "--kernel-block-bytes", "4096"],
        ["train", "--dta", "x"],
    ] {
        let out = cli().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag {}", args[1])), "{args:?}: {stderr}");
    }
}

#[test]
fn help_prints_usage() {
    let out = cli().arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("commands:"));
}

#[test]
fn bad_class_is_rejected_by_mine() {
    let expr = tmp("expr2.tsv");
    let items = tmp("items2.tsv");
    assert!(cli()
        .args(["synth", "--preset", "all", "--scale", "40", "--out", expr.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(cli()
        .args(["discretize", "--train", expr.to_str().unwrap(), "--out", items.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let out =
        cli().args(["mine", "--data", items.to_str().unwrap(), "--class", "9"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));
}

/// Pulls the `(rep, accuracy_bits, pred_hash)` triples out of a `cv
/// --out` JSON document — the bit-identity surface of a CV run.
fn replicate_triples(path: &std::path::Path) -> Vec<(u64, String, String)> {
    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    doc.get("replicates")
        .and_then(|r| r.as_array())
        .unwrap()
        .iter()
        .map(|rep| {
            (
                rep.get("rep").and_then(|v| v.as_u64()).unwrap(),
                rep.get("accuracy_bits").and_then(|v| v.as_str()).unwrap().to_string(),
                rep.get("pred_hash").and_then(|v| v.as_str()).unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn sharded_cv_merges_bit_identically_to_single_process() {
    let bmx = tmp("cv_equiv.bmx");
    let single = tmp("cv_single.json");
    let sharded = tmp("cv_sharded.json");
    assert!(cli()
        .args(["synth", "--preset", "all", "--scale", "12", "--seed", "5"])
        .args(["--out", bmx.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let out = cli()
        .args(["cv", "--data", bmx.to_str().unwrap(), "--spec", "0.6"])
        .args(["--reps", "5", "--seed", "42", "--out", single.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = cli()
        .args(["cv", "--data", bmx.to_str().unwrap(), "--spec", "0.6"])
        .args(["--reps", "5", "--seed", "42", "--shards", "3"])
        .args(["--out", sharded.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // The parent's joined trace shows the shard → replicate structure.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("shard shard_id="), "{stderr}");
    assert!(stderr.contains("    replicate rep="), "{stderr}");
    // The parent verified the .bmx checksum exactly once and handed the
    // token to the workers; no shard re-streams the file.
    assert_eq!(
        stderr.matches("cv_checksum_verified").count(),
        1,
        "expected exactly one parent-side verification\n{stderr}"
    );

    let a = replicate_triples(&single);
    let b = replicate_triples(&sharded);
    assert!(!a.is_empty(), "no replicates completed");
    assert_eq!(a, b, "sharded merge must be bit-identical to the single-process run");
}

#[test]
fn out_of_core_training_reports_and_asserts_peak_rss() {
    let bmx = tmp("ooc.bmx");
    let model = tmp("ooc_model.json");
    let bench = tmp("ooc_bench.json");
    // A preset grown past its natural size: the streamed generator
    // writes it column by column regardless of sample count.
    assert!(cli()
        .args(["synth", "--preset", "all", "--scale", "12", "--seed", "9"])
        .args(["--class-sizes", "120,140", "--out", bmx.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let out = cli()
        .args(["train", "--data", bmx.to_str().unwrap()])
        .args(["--model", model.to_str().unwrap()])
        .args(["--chunk-bytes", "65536", "--bench-out", bench.to_str().unwrap()])
        .args(["--assert-peak-rss-mb", "256"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("trained BSTC out-of-core"), "{stderr}");
    assert!(stderr.contains("within the 256 MiB budget"), "{stderr}");
    assert!(model.exists());
    // The bench report records the streaming evidence.
    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&bench).unwrap()).unwrap();
    assert_eq!(doc.get("mode").and_then(|v| v.as_str()), Some("bmx-stream"));
    assert_eq!(doc.get("chunk_bytes").and_then(|v| v.as_u64()), Some(65536));
    assert!(doc.get("matrix_bytes").and_then(|v| v.as_u64()).unwrap() > 0);
    assert!(doc.get("peak_rss_mb").and_then(|v| v.as_f64()).unwrap() > 0.0);
    // An impossible budget must fail loudly rather than pass silently.
    let out = cli()
        .args(["train", "--data", bmx.to_str().unwrap()])
        .args(["--model", model.to_str().unwrap()])
        .args(["--chunk-bytes", "65536", "--bench-out", bench.to_str().unwrap()])
        .args(["--assert-peak-rss-mb", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("exceeds the 1 MiB budget"));
}

#[test]
fn sample_scale_preset_reports_bst_construction_counters() {
    // The CI leg runs this preset at --scale 1 (2,600 samples) under a
    // hard RSS budget; here a 1/10 slice proves the wiring: the preset
    // exists, streams to .bmx, and the bench report carries the BST
    // construction counters the interned builder records.
    let bmx = tmp("sample_scale.bmx");
    let model = tmp("sample_scale_model.json");
    let bench = tmp("sample_scale_bench.json");
    assert!(cli()
        .args(["synth", "--preset", "sample-scale", "--scale", "10", "--seed", "7"])
        .args(["--out", bmx.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let out = cli()
        .args(["train", "--data", bmx.to_str().unwrap()])
        .args(["--model", model.to_str().unwrap()])
        .args(["--bench-out", bench.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&bench).unwrap()).unwrap();
    let field = |k: &str| doc.get(k).and_then(|v| v.as_u64()).unwrap();
    // 260 samples, two classes: every (c, h) pair was swept, interning
    // kept at most that many distinct lists, and the arena holds them.
    assert!(field("bst_pairs") > 0, "{doc:?}");
    assert!(field("bst_distinct_lists") > 0, "{doc:?}");
    assert!(field("bst_distinct_lists") <= field("bst_pairs"), "{doc:?}");
    assert!(field("bst_arena_bytes") > 0, "{doc:?}");
    let stages: Vec<&str> = doc
        .get("stages")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .map(|s| s.get("stage").unwrap().as_str().unwrap())
        .collect();
    assert!(stages.contains(&"bst_build"), "bst_build stage missing from {stages:?}");
    assert!(stages.contains(&"model_write"), "model_write stage missing from {stages:?}");
    // The stages run one after another inside the timed total.
    let stage_secs: f64 = doc
        .get("stages")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .map(|s| s.get("total_secs").unwrap().as_f64().unwrap())
        .sum();
    let total = doc.get("total_secs").and_then(|v| v.as_f64()).unwrap();
    assert!(stage_secs <= total + 1e-3, "stages sum to {stage_secs}s, total {total}s");
}

#[test]
fn cv_shard_rejects_a_stale_checksum_token() {
    let bmx = tmp("stale_token.bmx");
    assert!(cli()
        .args(["synth", "--preset", "all", "--scale", "12", "--seed", "5"])
        .args(["--out", bmx.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let out = cli()
        .args(["cv-shard", "--data", bmx.to_str().unwrap(), "--spec", "0.6"])
        .args(["--rep-start", "0", "--rep-end", "1", "--seed", "42"])
        .args(["--skip-checksum", "deadbeefdeadbeef"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("checksum handoff mismatch"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn cv_rejects_malformed_specs() {
    let out = cli().args(["cv", "--data", "x.bmx", "--spec", "1.5"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("must be in (0, 1)"));
    let out = cli().args(["cv", "--data", "x.bmx", "--spec", "8,banana"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad count"));
}
