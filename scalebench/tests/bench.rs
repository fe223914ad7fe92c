//! End-to-end tests of the benchmark binary on the tiny `smoke` profile.
//! Each run is its own process, as the benchmark is run for real.
//! Run with `cargo test --release`: the smoke workloads still simulate.

use std::path::{Path, PathBuf};
use std::process::Command;

use scalebench::ledger::PER_LAYER;
use scalebench::END_TO_END;
use scalesim_trace::check::{parse_json, JsonValue};

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the benchmark and returns (exit code, stdout).
fn bench(workload: &str, trace: bool, tag: &str) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_scalebench"))
        .args(["--workload", workload, "--seed", "42", "--seconds", "1"])
        .args([
            "--trace",
            if trace { "1" } else { "0" },
            "--profile",
            "smoke",
        ])
        .arg("--out-dir")
        .arg(out_dir(tag))
        .output()
        .expect("benchmark binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

/// The result object on the last line of `stdout`.
fn result(stdout: &str) -> JsonValue {
    parse_json(stdout.lines().last().expect("a result line")).expect("result is JSON")
}

fn correct(r: &JsonValue) -> bool {
    matches!(r.get("correct"), Some(JsonValue::Bool(true)))
}

/// `(name, unit)` of every metric in the result, in print order.
fn metrics(r: &JsonValue) -> Vec<(String, String, f64)> {
    let Some(JsonValue::Obj(pairs)) = r.get("metrics") else {
        panic!("metrics is an object");
    };
    pairs
        .iter()
        .map(|(name, m)| {
            let unit = m
                .get("unit")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_owned();
            (
                name.clone(),
                unit,
                m.get("value").and_then(JsonValue::as_num).unwrap(),
            )
        })
        .collect()
}

/// `(name, unit)` pairs of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    let Some(JsonValue::Arr(items)) = doc.get(section) else {
        panic!("{section} is an array");
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_owned();
            (s("name"), s("unit"))
        })
        .collect()
}

fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect()
}

#[test]
fn declared_metrics_match_the_printed_ones() {
    assert_eq!(declared("end_to_end"), pairs(&END_TO_END));
    assert_eq!(declared("per_layer"), pairs(&PER_LAYER));

    let (code, stdout) = bench("paper-figures", false, "names-untraced");
    assert_eq!(code, 0);
    let printed: Vec<(String, String)> = metrics(&result(&stdout))
        .into_iter()
        .map(|(n, u, _)| (n, u))
        .collect();
    assert_eq!(printed, pairs(&END_TO_END));

    let (code, stdout) = bench("paper-figures", true, "names-traced");
    assert_eq!(code, 0);
    let printed: Vec<(String, String)> = metrics(&result(&stdout))
        .into_iter()
        .map(|(n, u, _)| (n, u))
        .collect();
    assert_eq!(printed, pairs(&PER_LAYER));
}

#[test]
fn smoke_of_each_workload_passes_the_output_check() {
    for workload in ["paper-figures", "server-storm", "locks-traced"] {
        let (code, stdout) = bench(workload, false, &format!("smoke-{workload}"));
        assert_eq!(code, 0, "{workload}");
        let r = result(&stdout);
        assert!(correct(&r), "{workload}: {stdout}");
        assert_eq!(r.get("failed").and_then(JsonValue::as_num), Some(0.0));
        for (name, _, value) in metrics(&r) {
            assert!(
                value.is_finite() && value >= 0.0,
                "{workload}: {name} reads {value}"
            );
            // CPU time ticks at 10 ms, so tiny passes may read 0 CPU.
            if !name.starts_with("cpu_s") && !name.starts_with("ns_per_event") {
                assert!(value > 0.0, "{workload}: {name} reads {value}");
            }
        }
    }
}

#[test]
fn traced_runs_repeat_their_counts_and_match_the_replays() {
    for workload in ["locks-traced", "server-storm"] {
        let runs: Vec<JsonValue> = (0..2)
            .map(|i| {
                let (code, stdout) = bench(workload, true, &format!("traced-{workload}-{i}"));
                assert_eq!(code, 0);
                assert!(stdout.contains("== per-layer ledger"), "prints the table");
                result(&stdout)
            })
            .collect();
        // Correct includes every replay issuing exactly its run's counts.
        assert!(runs.iter().all(correct), "{workload}");
        let counts = |r: &JsonValue| -> Vec<(String, f64)> {
            metrics(r)
                .into_iter()
                .filter(|(_, unit, _)| unit == "count")
                .map(|(n, _, v)| (n, v))
                .collect()
        };
        assert_eq!(counts(&runs[0]), counts(&runs[1]), "{workload}");
        assert!(counts(&runs[0]).iter().any(|(_, v)| *v > 0.0));
    }
}

#[test]
fn refuses_to_run_without_the_program_sources() {
    let bare = out_dir("bare-checkout");
    let _ = std::fs::remove_dir_all(&bare);
    std::fs::create_dir_all(bare.join("scalebench")).unwrap();
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    std::fs::copy(here.join("../BENCHMARK.json"), bare.join("BENCHMARK.json")).unwrap();
    std::fs::copy(here.join("run.py"), bare.join("scalebench/run.py")).unwrap();
    let out = Command::new("python3")
        .args(["scalebench/run.py", "--workload", "paper-figures"])
        .args(["--seed", "42", "--seconds", "1", "--trace", "0"])
        .current_dir(&bare)
        .output()
        .expect("python3 runs");
    assert_ne!(out.status.code(), Some(0));
    assert!(out.stdout.is_empty(), "prints no result");
}
